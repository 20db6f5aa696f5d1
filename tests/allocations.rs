//! Heap allocations per served request and per collection round, pinned:
//! unlike a wall-clock time, an allocation count is the same on every
//! machine, so a change that makes the query path or the write path
//! allocate more shows as a diff of `tests/golden/allocations.txt`.
//!
//! A counting global allocator (forwarding to the system one) counts
//! every allocation of this test binary, which holds this one test so no
//! other test's thread allocates. Over a small seeded archive, each
//! request line is one request through `Gateway::handle`, or one response
//! through the wire encoder and writer, after enough warm-up that the
//! gateway's query trace ring is full and every metric series exists:
//! what a long-running server pays per request. The operator lines are
//! one `SpotLake::http_get` each of `/metrics`, `/stats`, `/quality` and
//! `/health` on the lake itself, after warm-up calls and before any row
//! request. The collection lines are stretches of in-memory rounds of a
//! fresh service, their cloud steps not counted, rebuilt from the seed on
//! each repeat: rounds 1-4, which book every series the catalog has, in
//! allocations and bytes requested per booked series, and rounds 5-24,
//! which book none, per stored point. The durable line is one round of a
//! fresh service writing its sharded archive to a temp directory, after
//! the same four rounds of warm-up: what a round pays to spell, log and
//! fsync its frames. Each count must repeat exactly ten times before it
//! is compared. A deliberate change re-blesses the file with
//! `SPOTLAKE_BLESS=1` and gives the before and after counts in
//! CHANGES.md.

// The allocator hooks are `unsafe` trait methods; each only counts and
// forwards to `System`.
#![allow(unsafe_code)]

mod common;

use common::{golden_or_bless, sim_config, test_catalog, GPU_MENU};
use spotlake::SpotLake;
use spotlake_cloud_sim::SimCloud;
use spotlake_collector::{CollectorConfig, CollectorService};
use spotlake_serving::server::wire;
use spotlake_serving::{Gateway, HttpRequest, HttpResponse, OpsContext};
use spotlake_timestream::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested: each allocation's size, and each reallocation's new
/// size.
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Times each count is taken; they must all agree.
const REPEATS: usize = 10;

/// Collection rounds of a fresh service before the counted stretch, and
/// the last round counted.
const WARM_UP_ROUNDS: u64 = 4;
const LAST_ROUND: u64 = 24;

/// `count()`, the same on each of [`REPEATS`] calls.
fn repeated<T: PartialEq + Debug>(what: &str, mut count: impl FnMut() -> T) -> T {
    let mut counts: Vec<T> = (0..REPEATS).map(|_| count()).collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "{what}: allocation counts vary between repeats: {counts:?}"
    );
    counts.swap_remove(0)
}

/// Allocations and bytes requested so far, by every thread.
fn counters() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// What was allocated between two [`counters`] readings.
fn since(before: (u64, u64)) -> (u64, u64) {
    let now = counters();
    (now.0 - before.0, now.1 - before.1)
}

/// Allocations `f` makes, the same on each of [`REPEATS`] calls.
fn allocations_of<T>(what: &str, mut f: impl FnMut() -> T) -> u64 {
    repeated(what, || {
        let before = counters();
        drop(f());
        since(before).0
    })
}

/// What collection rounds of a fresh service allocate.
#[derive(Debug, PartialEq)]
struct Collection {
    /// Rounds 1..=`WARM_UP_ROUNDS`: allocations and bytes requested.
    booking: (u64, u64),
    /// Series in the store after them: each series they booked, since
    /// every one is filed by its first point.
    booked: usize,
    /// Rounds `WARM_UP_ROUNDS + 1..=LAST_ROUND`: allocations.
    rounds: u64,
    /// Points those rounds stored.
    stored: usize,
}

/// Collection rounds 1..=`LAST_ROUND` of a fresh in-memory service over
/// the test catalog, counted in two stretches.
fn collection_rounds() -> Collection {
    let mut cloud = SimCloud::new(test_catalog(GPU_MENU), sim_config());
    let mut service = CollectorService::new(cloud.catalog(), CollectorConfig::default())
        .expect("a fresh collector over the catalog");
    let mut booking = (0, 0);
    let (mut rounds, mut stored) = (0, 0);
    for round in 1..=LAST_ROUND {
        cloud.step();
        let before = counters();
        let report = service.collect_round(&cloud).expect("the round completes");
        let (allocations, bytes) = since(before);
        if round > WARM_UP_ROUNDS {
            rounds += allocations;
            stored += report.stats.records_written;
        } else {
            booking = (booking.0 + allocations, booking.1 + bytes);
        }
    }
    let db = service.database();
    let booked = db
        .table_names()
        .into_iter()
        .filter_map(|name| db.table(name).ok())
        .map(|t| t.series_count())
        .sum();
    Collection {
        booking,
        booked,
        rounds,
        stored,
    }
}

/// Allocations of durable round `WARM_UP_ROUNDS + 1` of a fresh service
/// over the test catalog writing its sharded archive under a new temp
/// directory, and the points it stored.
fn durable_round(repeat: usize) -> (u64, usize) {
    let dir = common::scratch_path("allocations", &format!("durable-{repeat}"));
    let mut cloud = SimCloud::new(test_catalog(GPU_MENU), sim_config());
    let config = CollectorConfig {
        wal_dir: Some(dir.clone()),
        ..CollectorConfig::default()
    };
    let mut service =
        CollectorService::new(cloud.catalog(), config).expect("a fresh durable collector");
    for _ in 0..WARM_UP_ROUNDS {
        cloud.step();
        service.collect_round(&cloud).expect("the round completes");
    }
    cloud.step();
    let before = counters();
    let report = service.collect_round(&cloud).expect("the round completes");
    let (allocations, _) = since(before);
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
    (allocations, report.stats.records_written)
}

/// One request through the gateway.
fn serve(gateway: &Gateway, db: &Database, target: &str) -> HttpResponse {
    let request = HttpRequest::get(target).expect("the target parses");
    gateway.handle(db, &request, &OpsContext::none())
}

/// Rows in a row or window response's JSON body.
fn rows_in(response: &HttpResponse) -> u64 {
    assert_eq!(response.status, 200);
    let body = response.body_text();
    let windows = body.matches("\"window_start\":").count();
    windows.max(body.matches("\"dimensions\":").count()) as u64
}

#[test]
fn requests_allocate_what_the_golden_file_pins() {
    let mut lake = SpotLake::builder()
        .catalog(test_catalog(GPU_MENU))
        .sim_config(sim_config())
        .build()
        .expect("pipeline builds");
    lake.run_rounds(24).expect("rounds complete");
    // The operator endpoints, through the lake's own gateway and
    // collector state, after warm-up calls have created their series;
    // counted before the row requests below fill the store's query
    // histograms.
    let mut operator = String::new();
    let targets = ["/metrics", "/stats", "/quality", "/health"];
    for _ in 0..3 {
        for target in targets {
            lake.http_get(target).expect("the target parses");
        }
    }
    for target in targets {
        let n = allocations_of(target, || lake.http_get(target).expect("the target parses"));
        let _ = writeln!(operator, "operator {target}: {n}");
    }

    let db = lake.archive();
    let gateway = Gateway::new();

    let pool = "instance_type=m5.large&az=us-test-1a";
    let point = [
        ("point /query", format!("/query?table=sps&{pool}")),
        ("point /latest", format!("/latest?table=sps&{pool}")),
        ("point /at", format!("/at?table=sps&{pool}&timestamp=36000")),
        (
            "point /window",
            format!("/window?table=sps&{pool}&window=86400"),
        ),
    ];
    let scans = [
        ("region /query", "/query?table=sps&region=us-test-1"),
        ("region /latest", "/latest?table=sps&region=us-test-1"),
        (
            "region /window",
            "/window?table=sps&region=us-test-1&window=3600",
        ),
        ("whole-table /latest", "/latest?table=sps"),
        (
            "whole-table /query, limit 100",
            "/query?table=sps&limit=100",
        ),
    ];
    // Fill the trace ring past its capacity and create every metric
    // series the requests touch.
    for _ in 0..300 {
        for (_, target) in &point {
            serve(&gateway, db, target);
        }
        for (_, target) in scans {
            serve(&gateway, db, target);
        }
    }

    let mut got = String::new();
    for (what, target) in &point {
        let n = allocations_of(what, || serve(&gateway, db, target));
        let _ = writeln!(got, "{what}: {n}");
    }

    let response = serve(&gateway, db, &point[0].1);
    let headers = [
        ("connection", "keep-alive".to_owned()),
        ("x-spotlake-request-id", "7".to_owned()),
    ];
    let n = allocations_of("encode_response", || {
        wire::encode_response(&response, &headers)
    });
    let _ = writeln!(got, "encode_response of a point response: {n}");
    let mut socket = Vec::with_capacity(64 * 1024);
    let n = allocations_of("write_response", || {
        socket.clear();
        wire::write_response(&mut socket, &response, &headers)
    });
    let _ = writeln!(got, "write_response of a point response: {n}");

    for (what, target) in scans {
        let rows = rows_in(&serve(&gateway, db, target));
        let n = allocations_of(what, || serve(&gateway, db, target));
        let _ = writeln!(
            got,
            "{what}: {n} over {rows} rows, {:.3} per row",
            n as f64 / rows as f64
        );
    }

    got.push_str(&operator);

    let c = repeated("collection rounds", collection_rounds);
    let (allocations, bytes) = c.booking;
    let _ = writeln!(
        got,
        "collection rounds 1-{WARM_UP_ROUNDS}: {allocations} allocations, {bytes} B over {} \
         booked series, {:.3} and {:.1} B per series",
        c.booked,
        allocations as f64 / c.booked as f64,
        bytes as f64 / c.booked as f64
    );
    let _ = writeln!(
        got,
        "collection rounds {}-{LAST_ROUND}: {} over {} stored points, {:.3} per point",
        WARM_UP_ROUNDS + 1,
        c.rounds,
        c.stored,
        c.rounds as f64 / c.stored as f64
    );

    let mut repeat = 0;
    let (n, stored) = repeated("durable round", || {
        repeat += 1;
        durable_round(repeat)
    });
    let _ = writeln!(
        got,
        "durable collection round {}: {n} over {stored} stored points, {:.3} per point",
        WARM_UP_ROUNDS + 1,
        n as f64 / stored as f64
    );

    if let Some(want) = golden_or_bless("allocations", &got) {
        assert_eq!(
            got, want,
            "allocations drifted from tests/golden/allocations.txt; if the change is meant, \
             re-bless with SPOTLAKE_BLESS=1 and give the counts before and after in CHANGES.md"
        );
    }
}
