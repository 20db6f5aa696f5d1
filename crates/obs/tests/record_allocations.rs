//! Recording into a series that exists, and offering a top-N recorder an
//! entry it will not keep, allocate nothing. A counting global allocator
//! (forwarding to the system one) counts every allocation of this test
//! binary, which holds this one test so no other thread allocates.

// The allocator hooks are `unsafe` trait methods; each only counts and
// forwards to `System`.
#![allow(unsafe_code)]

use spotlake_obs::names::{HTTP_REQUESTS_TOTAL, HTTP_RESPONSE_BYTES, QUERY_COST, SERVER_INFLIGHT};
use spotlake_obs::{FlightEntry, FlightRecorder, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
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

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn entry(trace_id: u64, cost: u64) -> FlightEntry {
    FlightEntry {
        trace_id,
        request_id: trace_id,
        tick: 0,
        op: "query".to_owned(),
        query: format!("/query?n={trace_id}"),
        cost,
        rows: 1,
        response_bytes: 10,
    }
}

#[test]
fn recording_what_is_already_kept_allocates_nothing() {
    let registry = Registry::new();
    // Labels out of order, as a caller may pass them.
    let labels = [("table", "sps"), ("op", "query")];
    let record = |status: &str| {
        registry.counter_add(
            HTTP_REQUESTS_TOTAL,
            &[("status", status), ("path", "/query")],
            1,
        );
        registry.histogram_record(HTTP_RESPONSE_BYTES, &[("path", "/query")], 512.0);
        registry.histogram_record(QUERY_COST, &labels, 40.0);
        registry.gauge_set(SERVER_INFLIGHT, &[], 1.0);
    };
    assert!(
        allocations_in(|| record("200")) > 0,
        "the first call creates the series"
    );
    let steady = allocations_in(|| {
        for _ in 0..1000 {
            record("200");
        }
    });
    assert_eq!(steady, 0, "recording into existing series allocated");
    assert!(
        allocations_in(|| record("404")) > 0,
        "a new label set is a new series"
    );

    let flight = FlightRecorder::new(4);
    for id in 0..4 {
        flight.record(entry(id, 100));
    }
    let refused = allocations_in(|| {
        for id in 4..1000 {
            flight.record_with((50, id), || entry(id, 50));
        }
    });
    assert_eq!(refused, 0, "an entry the recorder will not keep was built");
    assert_eq!(flight.observed(), 1000);
    assert!(allocations_in(|| flight.record_with((200, 1000), || entry(1000, 200))) > 0);
}
