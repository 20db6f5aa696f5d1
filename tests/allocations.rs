//! Heap allocations per served request, pinned: unlike a wall-clock
//! time, an allocation count is the same on every machine, so a change
//! that makes the query path allocate more shows as a diff of
//! `tests/golden/allocations.txt`.
//!
//! A counting global allocator (forwarding to the system one) counts
//! every allocation of this test binary, which holds this one test so no
//! other thread allocates. Over a small seeded archive, each line is one
//! request through `Gateway::handle`, or one response through the wire
//! encoder and writer, after enough warm-up that the gateway's query
//! trace ring is full and every metric series exists: what a long-running
//! server pays per request. Each count must repeat exactly ten times
//! before it is compared. A deliberate change re-blesses the file with
//! `SPOTLAKE_BLESS=1` and gives the before and after counts in
//! CHANGES.md.

// The allocator hooks are `unsafe` trait methods; each only counts and
// forwards to `System`.
#![allow(unsafe_code)]

mod common;

use common::{golden_or_bless, sim_config, test_catalog, GPU_MENU};
use spotlake::SpotLake;
use spotlake_serving::server::wire;
use spotlake_serving::{Gateway, HttpRequest, HttpResponse, OpsContext};
use spotlake_timestream::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Times each count is taken; they must all agree.
const REPEATS: usize = 10;

/// Allocations `f` makes, the same on each of [`REPEATS`] calls.
fn allocations_of<T>(what: &str, mut f: impl FnMut() -> T) -> u64 {
    let counts: Vec<u64> = (0..REPEATS)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            drop(f());
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "{what}: allocation counts vary between repeats: {counts:?}"
    );
    counts[0]
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

    if let Some(want) = golden_or_bless("allocations", &got) {
        assert_eq!(
            got, want,
            "allocations drifted from tests/golden/allocations.txt; if the change is meant, \
             re-bless with SPOTLAKE_BLESS=1 and give the counts before and after in CHANGES.md"
        );
    }
}
