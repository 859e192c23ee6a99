//! The runtime twin of ftl-analyzer's FTL001 (no-alloc hot path): a
//! counting global allocator proves that a warmed-up serving loop —
//! cache-hot fault sets, column-served lookups, a reused
//! [`BatchResponse`] via [`Engine::execute_into`] — performs **zero** heap
//! allocations per batch. The static rule says the hot closure *cannot*
//! allocate; this test says the whole serving path *does not*.
//!
//! The measured loop runs with `ftl-obs` instrumentation **enabled** (the
//! default feature set) and records into it explicitly — counters, stage
//! histograms, and a live [`ftl_obs::Span`] — so the zero-allocation
//! claim covers the observability layer, not just the engine.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout
)]
// The one sanctioned `unsafe` in the workspace: implementing `GlobalAlloc`
// for the counting shim. It delegates straight to `System`.
#![allow(unsafe_code)]

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{BatchRequest, BatchResponse, ConnQuery, Engine, EngineConfig};
use ftl_graph::{generators, EdgeId, VertexId};
use ftl_seeded::Seed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, plus a global count of allocation *events* (alloc + realloc;
/// frees are not counted — the invariant is "no new memory", not "no
/// churn").
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// Relaxed is enough: the test reads the counter on the same thread that
// allocates, and only ever compares before/after deltas.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warmed_sidecar_batch_allocates_nothing() {
    // A grid big enough to have interesting fault sets, small enough that
    // the test is instant.
    let g = generators::grid(6, 6);
    let f = 4;
    let scheme = CycleSpaceScheme::label(&g, f, Seed::new(7)).unwrap();
    let config = EngineConfig::default(); // certificates off
    let mut engine = Engine::from_cycle_space(&scheme, config).unwrap();

    // A batch with repeated fault sets and a spread of endpoints.
    let fault_sets: Vec<Vec<EdgeId>> = vec![
        vec![EdgeId::new(0), EdgeId::new(7)],
        vec![EdgeId::new(3), EdgeId::new(11), EdgeId::new(19)],
    ];
    let mut queries = Vec::new();
    for i in 0..24 {
        queries.push(ConnQuery {
            s: VertexId::new(i % g.num_vertices()),
            t: VertexId::new((i * 5 + 1) % g.num_vertices()),
            fault_set: i % fault_sets.len(),
        });
    }
    let req = BatchRequest {
        fault_sets,
        queries,
    };

    // Warm up: first run eliminates both fault sets (allocates: basis
    // vectors, cache entries), grows the response buffers to the
    // high-water mark, and touches every scratch arena.
    let mut resp = BatchResponse::default();
    for _ in 0..3 {
        engine.execute_into(&req, &mut resp).unwrap();
    }
    assert_eq!(resp.stats.queries, req.queries.len());
    assert_eq!(resp.stats.cache_hits, req.fault_sets.len(), "warm cache");
    let expected = resp.results.clone();

    // The measured runs: cache-hot, column-served, response reused —
    // and instrumented. `execute_into` itself records batch counters and
    // epoch gauges into the global registry; on top of that the loop
    // records a span, a histogram sample, and a counter bump per batch to
    // pin down that the obs record path is allocation-free too.
    let obs = ftl_obs::global();
    let before = alloc_count();
    for _ in 0..10 {
        let _span = ftl_obs::Span::enter(&obs.stages, ftl_obs::Stage::Answer);
        engine.execute_into(&req, &mut resp).unwrap();
        obs.engine.queries.add(resp.stats.queries as u64);
        obs.stages
            .record(ftl_obs::Stage::ResponseWrite, resp.stats.queries as u64);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "warmed-up execute_into allocated {delta} time(s) across 10 batches — \
         the zero-alloc serving loop regressed (run \
         `cargo run -p ftl-analyzer -- --check` for the static view)"
    );
    assert_eq!(resp.results, expected, "reused response must stay correct");
}

#[test]
fn first_run_does_allocate_which_proves_the_counter_works() {
    let before = alloc_count();
    let v: Vec<u64> = (0..100).collect();
    assert!(alloc_count() > before, "counter must observe allocations");
    drop(v);
}
