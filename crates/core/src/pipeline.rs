//! The end-to-end SpotLake pipeline.

use spotlake_cloud_sim::{SimCloud, SimConfig};
use spotlake_collector::{
    CollectError, CollectStats, CollectorConfig, CollectorService, PlanStats, RoundHealth,
};
use spotlake_serving::{Gateway, HttpRequest, HttpResponse, OpsContext, ServeError};
use spotlake_timestream::Database;
use spotlake_types::Catalog;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Errors from the pipeline facade.
#[derive(Debug)]
pub enum SpotLakeError {
    /// The collector failed.
    Collect(CollectError),
    /// An HTTP request string failed to parse.
    Serve(ServeError),
    /// Persistence failed.
    Store(spotlake_timestream::TsError),
}

impl fmt::Display for SpotLakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpotLakeError::Collect(e) => write!(f, "collector error: {e}"),
            SpotLakeError::Serve(e) => write!(f, "serving error: {e}"),
            SpotLakeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl Error for SpotLakeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpotLakeError::Collect(e) => Some(e),
            SpotLakeError::Serve(e) => Some(e),
            SpotLakeError::Store(e) => Some(e),
        }
    }
}

impl From<CollectError> for SpotLakeError {
    fn from(e: CollectError) -> Self {
        SpotLakeError::Collect(e)
    }
}

impl From<ServeError> for SpotLakeError {
    fn from(e: ServeError) -> Self {
        SpotLakeError::Serve(e)
    }
}

impl From<spotlake_timestream::TsError> for SpotLakeError {
    fn from(e: spotlake_timestream::TsError) -> Self {
        SpotLakeError::Store(e)
    }
}

/// Builder for a [`SpotLake`] pipeline.
#[derive(Debug, Default)]
pub struct SpotLakeBuilder {
    catalog: Option<Catalog>,
    sim_config: Option<SimConfig>,
    collector_config: Option<CollectorConfig>,
}

impl SpotLakeBuilder {
    /// Sets the catalog (defaults to [`Catalog::aws_2022`]).
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Sets the simulation configuration.
    pub fn sim_config(mut self, config: SimConfig) -> Self {
        self.sim_config = Some(config);
        self
    }

    /// Sets the collector configuration.
    pub fn collector_config(mut self, config: CollectorConfig) -> Self {
        self.collector_config = Some(config);
        self
    }

    /// Builds the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`SpotLakeError::Collect`] if the collector cannot be
    /// planned (e.g. an explicitly undersized account pool).
    pub fn build(self) -> Result<SpotLake, SpotLakeError> {
        let catalog = self.catalog.unwrap_or_else(Catalog::aws_2022);
        let sim_config = self.sim_config.unwrap_or_default();
        let collector_config = self.collector_config.unwrap_or_default();
        let collector = CollectorService::new(&catalog, collector_config)?;
        let cloud = SimCloud::new(catalog, sim_config);
        Ok(SpotLake {
            cloud,
            collector,
            gateway: Gateway::new(),
        })
    }
}

/// The assembled SpotLake service: cloud + collector + archive + web
/// service.
#[derive(Debug)]
pub struct SpotLake {
    cloud: SimCloud,
    collector: CollectorService,
    gateway: Gateway,
}

impl SpotLake {
    /// Starts building a pipeline.
    pub fn builder() -> SpotLakeBuilder {
        SpotLakeBuilder::default()
    }

    /// The simulated cloud.
    pub fn cloud(&self) -> &SimCloud {
        &self.cloud
    }

    /// Mutable access to the simulated cloud (experiments submit spot
    /// requests through this).
    pub fn cloud_mut(&mut self) -> &mut SimCloud {
        &mut self.cloud
    }

    /// The archive database.
    pub fn archive(&self) -> &Database {
        self.collector.database()
    }

    /// The query plan statistics (Figure 1).
    pub fn plan_stats(&self) -> PlanStats {
        self.collector.plan_stats()
    }

    /// Advances the cloud one tick and runs one collection round, `rounds`
    /// times.
    ///
    /// # Errors
    ///
    /// Returns [`SpotLakeError::Collect`] if collection fails.
    pub fn run_rounds(&mut self, rounds: u64) -> Result<CollectStats, SpotLakeError> {
        Ok(self.collector.run(&mut self.cloud, rounds)?)
    }

    /// Like [`SpotLake::run_rounds`], also returning every round's
    /// [`RoundHealth`] — the resilience telemetry under fault injection.
    ///
    /// # Errors
    ///
    /// Returns [`SpotLakeError::Collect`] if collection fails
    /// non-retryably.
    pub fn run_rounds_with_health(
        &mut self,
        rounds: u64,
    ) -> Result<(CollectStats, Vec<RoundHealth>), SpotLakeError> {
        Ok(self.collector.run_with_health(&mut self.cloud, rounds)?)
    }

    /// The collector service (breaker levers, dead-letter depth).
    pub fn collector(&self) -> &CollectorService {
        &self.collector
    }

    /// What startup recovery replayed, when the pipeline runs with a
    /// durable archive (`CollectorConfig::wal_dir`); `None` otherwise.
    pub fn recovery_report(&self) -> Option<&spotlake_collector::RecoveryReport> {
        self.collector.recovery_report()
    }

    /// Mutable access to the collector service.
    pub fn collector_mut(&mut self) -> &mut CollectorService {
        &mut self.collector
    }

    /// Serves one HTTP request against the archive.
    ///
    /// # Errors
    ///
    /// Returns [`SpotLakeError::Serve`] when the request string is
    /// malformed (handler-level failures come back as HTTP error
    /// responses, not `Err`).
    pub fn http_get(&self, path_and_query: &str) -> Result<HttpResponse, SpotLakeError> {
        let request = HttpRequest::get(path_and_query)?;
        let health = self.collector.health_report();
        let stats = self.collector.stats();
        let quality = self.collector.quality_report();
        let shard_health = self.collector.shard_health();
        let registries = [self.collector.metrics()];
        let ops = OpsContext {
            registries: &registries,
            health: Some(&health),
            collect: Some(&stats),
            last_round: self.collector.last_health(),
            tick: self.cloud.ticks(),
            // In-process requests have no wire-level id.
            request_id: 0,
            quality: Some(&quality),
            recovery: self.collector.recovery_report(),
            shards: shard_health.as_ref(),
        };
        Ok(self
            .gateway
            .handle(self.collector.database(), &request, &ops))
    }

    /// Renders the full `/metrics` document — collector, store, and
    /// gateway families — without going through the router (the CLI's
    /// `--metrics` path).
    pub fn metrics_text(&self) -> String {
        let registries = [
            self.collector.metrics(),
            self.collector.database().metrics(),
            self.gateway.http_metrics(),
        ];
        spotlake_obs::Registry::render_merged(registries)
    }

    /// Renders the collector's trace journal — its newest 1 024 rounds —
    /// as JSON lines (the CLI's `--trace` path).
    pub fn trace_text(&self) -> String {
        self.collector.journal().render()
    }

    /// Renders the gateway's query trace journal as JSON lines — one root
    /// span per row query served, with per-stage cost children.
    pub fn query_trace_text(&self) -> String {
        self.gateway.query_trace_text()
    }

    /// Persists the archive to disk.
    ///
    /// # Errors
    ///
    /// Returns [`SpotLakeError::Store`] on I/O failure.
    pub fn save_archive(&self, path: impl AsRef<Path>) -> Result<(), SpotLakeError> {
        Ok(self.collector.database().save(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_types::CatalogBuilder;

    fn small() -> SpotLake {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2)
            .region("eu-test-1", 2)
            .instance_type("m5.large", 0.096)
            .instance_type("p3.2xlarge", 3.06);
        SpotLake::builder()
            .catalog(b.build().unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_collect_and_serve() {
        let mut lake = small();
        let stats = lake.run_rounds(4).unwrap();
        assert_eq!(stats.rounds, 4);
        assert!(stats.sps_records > 0);

        let ok = lake
            .http_get("/query?table=sps&instance_type=m5.large")
            .unwrap();
        assert_eq!(ok.status, 200);
        assert!(ok.body_text().contains("m5.large"));

        // Handler-level failure is an HTTP error, not Err.
        let missing = lake.http_get("/query?table=zzz").unwrap();
        assert_eq!(missing.status, 404);
        // Parse-level failure is Err.
        assert!(lake.http_get("nonsense").is_err());
    }

    #[test]
    fn archive_persists() {
        let mut lake = small();
        lake.run_rounds(2).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("spotlake-pipeline-{}.db", std::process::id()));
        lake.save_archive(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.point_count(), lake.archive().point_count());
    }

    #[test]
    fn plan_stats_accessible() {
        let lake = small();
        assert!(lake.plan_stats().planned_queries > 0);
    }
}
