//! Phase hooks: where a collection round spends its time, told to a
//! caller-supplied sink.
//!
//! The crates that run a round read no wall clock, so they cannot time
//! themselves. Instead they announce each [`Phase`] of the round as it
//! starts and ends, and a [`PhaseSink`] the caller installs does what it
//! likes with that — a profiler reads `Instant` there, a test counts. The
//! default sink ([`NoPhases`]) ignores everything, and nothing a sink sees
//! reaches a registry or a journal, so the same-seed bytes cannot depend
//! on it.

use std::fmt::Debug;
use std::sync::Arc;

/// One phase of a collection round. Phases nest: a dataset's
/// [`Phase::Commit`] holds its [`Phase::Delta`], [`Phase::Apply`],
/// [`Phase::CheckpointCut`] and [`Phase::QualityObserve`];
/// [`Phase::BookSps`] holds [`Phase::DeadLetters`]. [`Phase::SpsLane`]
/// and a commit's [`Phase::Log`]s run on threads of their own, beside
/// the caller's phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Draining the SPS account shards: once on the lane's scoped
    /// thread, and once on the caller's after its sweeps, taking the
    /// shards the lane has not.
    SpsLane,
    /// The sweep lane's advisor fetch.
    AdvisorSweep,
    /// The sweep lane's price fetch.
    PriceSweep,
    /// Booking the SPS lane's scores into series, after the join.
    BookSps,
    /// Re-attempting due dead-lettered SPS queries and parking fresh
    /// failures.
    DeadLetters,
    /// One dataset's commit, named by its table.
    Commit(&'static str),
    /// Filtering a batch to the points that change the store (delta
    /// logging), every shard at once.
    Delta,
    /// One shard appending its slice to its WAL and fsyncing it, on the
    /// shard's commit thread.
    Log,
    /// Applying points to the in-memory store: one shard's logged slice,
    /// or an in-memory write.
    Apply,
    /// Feeding the committed points to the quality monitor.
    QualityObserve,
    /// Cutting the checkpoints of the shards that reached the cadence.
    CheckpointCut,
    /// Persisting the dead-letter queue and the shard map manifest.
    ManifestSave,
    /// Recording the round in the metric registry and the journal.
    MetricsJournal,
}

/// Receives the start and end of every [`Phase`]. Called from the
/// round's threads, so implementations are `Send + Sync`; `exit` always
/// follows its `enter` on the same thread.
pub trait PhaseSink: Debug + Send + Sync {
    /// `phase` starts.
    fn enter(&self, phase: Phase);
    /// `phase` ends.
    fn exit(&self, phase: Phase);
}

/// The default sink: ignores every phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPhases;

impl PhaseSink for NoPhases {
    fn enter(&self, _: Phase) {}
    fn exit(&self, _: Phase) {}
}

/// A shared sink, [`NoPhases`] until a caller installs one.
pub type SharedPhaseSink = Arc<dyn PhaseSink>;

/// Enters `phase` on `sink` and exits it when dropped, so an early
/// return still closes the phase.
#[derive(Debug)]
#[must_use = "the phase ends when the guard drops"]
pub struct PhaseGuard<'s> {
    sink: &'s dyn PhaseSink,
    phase: Phase,
}

impl<'s> PhaseGuard<'s> {
    /// Enters `phase` on `sink`.
    pub fn enter(sink: &'s dyn PhaseSink, phase: Phase) -> Self {
        sink.enter(phase);
        PhaseGuard { sink, phase }
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.sink.exit(self.phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Debug, Default)]
    struct Log(Mutex<Vec<(bool, Phase)>>);

    impl PhaseSink for Log {
        fn enter(&self, phase: Phase) {
            self.0.lock().unwrap().push((true, phase));
        }
        fn exit(&self, phase: Phase) {
            self.0.lock().unwrap().push((false, phase));
        }
    }

    #[test]
    fn a_guard_exits_its_phase_on_every_path_out() {
        let log = Log::default();
        let early = |fail: bool| -> Result<(), ()> {
            let _commit = PhaseGuard::enter(&log, Phase::Commit("sps"));
            let _delta = PhaseGuard::enter(&log, Phase::Delta);
            if fail {
                return Err(());
            }
            Ok(())
        };
        assert!(early(true).is_err());
        assert_eq!(
            *log.0.lock().unwrap(),
            [
                (true, Phase::Commit("sps")),
                (true, Phase::Delta),
                (false, Phase::Delta),
                (false, Phase::Commit("sps")),
            ],
            "inner phases exit first"
        );
        NoPhases.enter(Phase::Apply);
        NoPhases.exit(Phase::Apply);
    }
}
