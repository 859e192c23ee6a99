//! Fault-injection (chaos) suite for the epoch-versioned serving stack.
//!
//! Every test here injects a failure the serving path must survive
//! *gracefully*: corrupted / truncated / length-lying wire records,
//! engine panics mid-batch, readers racing snapshot swaps, adversarial
//! targeted churn, and stale-cache hazards across epochs. "Gracefully"
//! means a typed `StoreError` at ingest or a clean `EngineError` (never a
//! crash), unaffected sibling queries, and 100% agreement with BFS ground
//! truth after every swap.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout
)]
use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{
    corrupt_random_bytes, full_store_of, oversize_declared_bits, plan_edge_removals,
    plan_vertex_removals, run_churn_scenario, truncate_record, BatchRequest, ChurnConfig,
    ConnQuery, Engine, EngineConfig, EngineError, EpochStore, LabelStore, LabelStoreBuilder,
    LiveStore, RemovalModel, StoreError, StoreKey, SwapPath,
};
use ftl_gf2::BitVec;
use ftl_graph::traversal::connected_avoiding;
use ftl_graph::{generators, EdgeId, Graph, VertexId};
use ftl_labels::wire::WireLabel;
use ftl_seeded::Seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A live store plus an epoch-following serial engine over it.
fn live_setup(g: &Graph, f: usize, seed: u64, config: EngineConfig) -> (LiveStore, Engine) {
    let store = LiveStore::new(g, f, Seed::new(seed), config).unwrap();
    let engine = Engine::over_epochs(Arc::clone(store.epochs()), config);
    (store, engine)
}

/// One-fault-set batch helper.
fn batch(fs: Vec<EdgeId>, pairs: &[(usize, usize)]) -> BatchRequest {
    BatchRequest {
        fault_sets: vec![fs],
        queries: pairs
            .iter()
            .map(|&(s, t)| ConnQuery {
                s: VertexId::new(s),
                t: VertexId::new(t),
                fault_set: 0,
            })
            .collect(),
    }
}

/// A non-tree (hence removable-without-disconnect) alive edge.
fn non_tree_edge(store: &LiveStore) -> EdgeId {
    store
        .live()
        .alive_edges()
        .find(|&e| !store.live().edge_label(e).is_tree)
        .expect("graph has a cycle")
}

// ---------------------------------------------------------------- wire chaos

/// Asserts two stores hold the same columns over ids `0..n` / `0..m`:
/// presence, ancestry interval, `φ` row, and child interval per id.
fn assert_same_columns(a: &LabelStore, b: &LabelStore, n: usize, m: usize) {
    assert_eq!(a.len(), b.len(), "record counts");
    for v in 0..n {
        let v = VertexId::new(v);
        assert_eq!(a.vertex_anc(v), b.vertex_anc(v), "{v:?}");
    }
    let (mut pa, mut pb) = (BitVec::zeros(0), BitVec::zeros(0));
    for e in 0..m {
        let e = EdgeId::new(e);
        assert_eq!(a.has_edge(e), b.has_edge(e), "{e:?}");
        assert_eq!(a.tree_child_interval(e), b.tree_child_interval(e), "{e:?}");
        assert_eq!(
            a.read_phi_into(e, &mut pa),
            b.read_phi_into(e, &mut pb),
            "{e:?}"
        );
        assert_eq!(pa, pb, "phi of {e:?}");
    }
}

/// A corrupt `victim` edge record must be rejected at ingest, by both
/// doors, with `StoreError::Wire`: `delta_freeze` builds nothing, and
/// `put_bytes` leaves its builder unchanged. The previous epoch keeps its
/// uid and keeps serving every query — those faulting the victim edge
/// included — in agreement with BFS.
fn assert_rejected_at_ingest(
    g: &Graph,
    scheme: &CycleSpaceScheme,
    good: &Arc<LabelStore>,
    victim: EdgeId,
    bad: &[u8],
    what: &str,
) {
    let key = StoreKey::edge(victim);
    let epochs = Arc::new(EpochStore::new(Arc::clone(good)));
    match good.delta_freeze(&[(key, bad.to_vec())], &[]) {
        Err(StoreError::Wire(_)) => {}
        Err(other) => panic!("{what}: delta_freeze: unexpected error {other:?}"),
        Ok(_) => panic!("{what}: delta_freeze accepted a corrupt record"),
    }

    let mut builder = LabelStoreBuilder::new(8);
    for v in 0..g.num_vertices() {
        let v = VertexId::new(v);
        builder.put_vertex_label(v, &scheme.vertex_label(v));
    }
    for e in 0..g.num_edges() {
        let e = EdgeId::new(e);
        builder.put_edge_label(e, &scheme.edge_label(e)).unwrap();
    }
    assert!(
        matches!(builder.put_bytes(key, bad), Err(StoreError::Wire(_))),
        "{what}: put_bytes accepted a corrupt record"
    );
    let built = builder.freeze().unwrap();
    assert_same_columns(&built, good, g.num_vertices(), g.num_edges());

    let mut engine = Engine::over_epochs(Arc::clone(&epochs), EngineConfig::default());
    let clean = EdgeId::new(g.num_edges() - 1);
    for faults in [vec![victim], vec![clean], vec![victim, clean]] {
        let pairs: Vec<(usize, usize)> = (0..g.num_vertices())
            .flat_map(|s| (0..g.num_vertices()).map(move |t| (s, t)))
            .collect();
        let resp = engine.execute(&batch(faults.clone(), &pairs)).unwrap();
        let mask = ftl_graph::traversal::forbidden_mask(g, &faults);
        for (&(s, t), r) in pairs.iter().zip(&resp.results) {
            assert_eq!(
                r.connected,
                connected_avoiding(g, VertexId::new(s), VertexId::new(t), &mask),
                "{what}: ({s}, {t}) avoiding {faults:?}"
            );
        }
    }
    assert_eq!(epochs.current().store().uid(), good.uid(), "{what}");
}

/// A corrupt record is rejected at ingest with a typed error, and every
/// query — the ones faulting the victim edge included — keeps being
/// served from the previous epoch.
#[test]
fn corrupted_record_errors_cleanly_and_spares_other_queries() {
    let g = generators::grid(5, 5);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(11)).unwrap();
    let good = Arc::new(ftl_engine::store_from_cycle_space(&scheme, 8).unwrap());
    let victim = EdgeId::new(7);
    // Re-encode the victim's record with heavy random corruption, the way
    // a disk or network flip would reach the ingest path.
    let mut bytes = scheme.edge_label(victim).to_wire();
    let smear = bytes.len() * 2;
    corrupt_random_bytes(&mut bytes, smear, Seed::new(0xBAD));
    assert_rejected_at_ingest(&g, &scheme, &good, victim, &bytes, "smeared");
}

/// Truncated and length-lying records are rejected at ingest with typed
/// errors, never panics.
#[test]
fn truncated_and_oversized_records_error_not_panic() {
    let g = generators::grid(4, 4);
    let scheme = CycleSpaceScheme::label(&g, 3, Seed::new(12)).unwrap();
    let good = Arc::new(ftl_engine::store_from_cycle_space(&scheme, 8).unwrap());
    let victim = EdgeId::new(3);
    let wire = scheme.edge_label(victim).to_wire();
    let corruptions: Vec<Vec<u8>> = vec![
        {
            let mut b = wire.clone();
            let keep = b.len().saturating_sub(2);
            truncate_record(&mut b, keep);
            b
        },
        {
            let mut b = wire.clone();
            truncate_record(&mut b, 3); // shorter than the header
            b
        },
        {
            let mut b = wire.clone();
            assert!(oversize_declared_bits(&mut b, 4096));
            b
        },
    ];
    for (i, bad) in corruptions.iter().enumerate() {
        assert_rejected_at_ingest(&g, &scheme, &good, victim, bad, &format!("corruption #{i}"));
    }
}

// -------------------------------------------------------------- panic chaos

/// A panic mid-batch is contained: the batch fails with `Panicked`, the
/// process survives, and the engine serves the next batch correctly on a
/// reset cache and scratch.
#[test]
fn worker_panic_is_contained_and_engine_recovers() {
    let g = generators::grid(5, 5);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(21)).unwrap();
    let chaos_edge = EdgeId::new(5);
    let config = EngineConfig {
        chaos_panic_edge: Some(chaos_edge),
        ..EngineConfig::default()
    };
    let mut engine = Engine::from_cycle_space(&scheme, config).unwrap();
    // Any fault set containing the chaos edge detonates its resolver.
    let out = engine.execute(&batch(
        vec![chaos_edge, EdgeId::new(9)],
        &[(0, 24), (3, 21)],
    ));
    match out {
        Err(EngineError::Panicked { message }) => {
            assert!(
                message.contains("chaos"),
                "lost the panic payload: {message}"
            );
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The engine — same instance, state reset — keeps serving batches
    // that avoid the tripwire, bit-identical to a fresh engine.
    let req = batch(
        vec![EdgeId::new(9), EdgeId::new(30)],
        &[(0, 24), (3, 21), (7, 18)],
    );
    let resp = engine
        .execute(&req)
        .expect("engine must recover after a contained panic");
    let mut fresh = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let reference = fresh.execute(&req).unwrap();
    assert_eq!(resp.results, reference.results);
    // And the tripwire still trips — containment is repeatable, not
    // one-shot.
    assert!(matches!(
        engine.execute(&batch(vec![chaos_edge], &[(0, 24)])),
        Err(EngineError::Panicked { .. })
    ));
    let resp2 = engine.execute(&req).unwrap();
    assert_eq!(resp2.results, reference.results);
}

// --------------------------------------------------------------- swap chaos

/// Readers serving batches while the writer swaps epochs underneath them
/// never error, never block on the publisher, and never observe a
/// half-applied snapshot (every answer stays `connected` because only
/// non-bridge edges are removed).
#[test]
fn mid_swap_readers_serve_consistent_snapshots() {
    let g = generators::grid(8, 8);
    let config = EngineConfig::default();
    let mut store = LiveStore::new(&g, 4, Seed::new(31), config).unwrap();
    let plan = plan_edge_removals(store.live(), 20, RemovalModel::Random, Seed::new(32));
    let epochs = Arc::clone(store.epochs());
    let n = g.num_vertices();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let epochs = Arc::clone(&epochs);
                scope.spawn(move || {
                    let mut engine = Engine::over_epochs(epochs, config);
                    let mut rng = Seed::new(40 + r).stream();
                    let mut last_epoch = 0u64;
                    for _ in 0..60 {
                        let pairs: Vec<(usize, usize)> = (0..8)
                            .map(|_| ((rng() % n as u64) as usize, (rng() % n as u64) as usize))
                            .collect();
                        let resp = engine
                            .execute(&batch(Vec::new(), &pairs))
                            .expect("reader must never fail across swaps");
                        // No vertex is ever removed and removals skip
                        // bridges, so every snapshot is fully connected.
                        assert!(resp.results.iter().all(|q| q.connected));
                        // Epochs are observed in publication order.
                        assert!(resp.stats.epoch >= last_epoch);
                        last_epoch = resp.stats.epoch;
                    }
                    last_epoch
                })
            })
            .collect();
        // Writer: swap epochs as fast as the removals allow.
        for e in plan {
            let _ = store.remove_edge(e);
        }
        for h in readers {
            h.join().expect("reader panicked");
        }
    });
    assert!(
        store.epochs().current().number() > 1,
        "no swap ever happened"
    );
}

/// Epoch numbers increase monotonically with each publishing removal, the
/// engine's batch stats report the epoch they were served at, and a failed
/// removal publishes nothing.
#[test]
fn epoch_numbers_are_monotone_and_stamped_into_stats() {
    let g = generators::grid(5, 5);
    let (mut store, mut engine) = live_setup(&g, 4, 41, EngineConfig::default());
    let mut seen = Vec::new();
    for _ in 0..4 {
        let resp = engine.execute(&batch(Vec::new(), &[(0, 24)])).unwrap();
        seen.push(resp.stats.epoch);
        let e = non_tree_edge(&store);
        let before = store.epochs().current().number();
        let report = store.remove_edge(e).unwrap();
        assert_eq!(report.epoch, before + 1);
    }
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "epochs not monotone: {seen:?}"
    );
    // A rejected removal (bridge) leaves the published epoch untouched.
    let tree = store
        .live()
        .alive_edges()
        .find(|&e| store.live().edge_label(e).is_tree)
        .unwrap();
    let before = store.epochs().current().number();
    if store.remove_edge(tree).is_err() {
        assert_eq!(store.epochs().current().number(), before);
    }
}

// -------------------------------------------------------------- churn chaos

/// Churn never grows the store: a removed record's slot is cleared in
/// place, so `bytes_total()` stays flat while `len()` falls.
#[test]
fn churn_does_not_grow_store_bytes() {
    let g = generators::grid(16, 16);
    let mut store = LiveStore::new(&g, 8, Seed::new(0xA7E), EngineConfig::default()).unwrap();
    let before = store.epochs().current();
    let (len0, bytes0) = (before.store().len(), before.store().bytes_total());
    for _ in 0..60 {
        let report = store.remove_edge(non_tree_edge(&store)).unwrap();
        assert!(matches!(report.path, SwapPath::Delta { .. }));
    }
    let after = store.epochs().current();
    assert_eq!(after.store().len(), len0 - 60);
    assert!(
        after.store().bytes_total() <= bytes0,
        "60 removals grew the store from {bytes0} to {} bytes",
        after.store().bytes_total()
    );
}

/// Adversarial targeted removal rounds: highest-degree victims first,
/// every answer checked against BFS truth, and after the final swap every
/// alive pair is reachable with no transient faults.
#[test]
fn targeted_churn_rounds_keep_perfect_reachability() {
    let g = generators::barabasi_albert(150, 3, &mut StdRng::seed_from_u64(51));
    let config = EngineConfig::default();
    let mut store = LiveStore::new(&g, 4, Seed::new(52), config).unwrap();
    let mut engine = Engine::over_epochs(Arc::clone(store.epochs()), config);
    let mut cfg = ChurnConfig::new("chaos-targeted", 4);
    cfg.model = RemovalModel::Targeted;
    cfg.rounds = 6;
    cfg.edge_removals_per_round = 10;
    cfg.vertex_removals_per_round = 3;
    let report = run_churn_scenario(&mut store, &mut engine, &cfg).unwrap();
    assert_eq!(
        report.mismatches, 0,
        "engine diverged from ground truth under attack"
    );
    assert!(report.final_epoch > 1);
    // Post-swap, zero-fault reachability is 100% over the survivors.
    let live = store.live();
    let alive: Vec<VertexId> = live.alive_vertices().collect();
    let mut rng = Seed::new(53).stream();
    let pairs: Vec<(usize, usize)> = (0..50)
        .map(|_| {
            (
                alive[(rng() % alive.len() as u64) as usize].index(),
                alive[(rng() % alive.len() as u64) as usize].index(),
            )
        })
        .collect();
    let resp = engine.execute(&batch(Vec::new(), &pairs)).unwrap();
    assert!(
        resp.results.iter().all(|q| q.connected),
        "post-swap reachability below 100%"
    );
}

/// The delta-freeze path and a from-scratch rebuild of the same surviving
/// topology are bit-identical: every surviving record column for column,
/// every removed key absent, and every query answer (certificates
/// included) equal.
#[test]
fn delta_swaps_match_full_rebuild_bit_for_bit() {
    let g = generators::grid(7, 7);
    let config = EngineConfig {
        collect_certificates: true,
        ..EngineConfig::default()
    };
    let mut store = LiveStore::new(&g, 4, Seed::new(61), config).unwrap();
    for round in 0..4 {
        let seed = Seed::new(62).derive(round);
        let edges = plan_edge_removals(store.live(), 3, RemovalModel::Random, seed);
        store.remove_edges(&edges).unwrap();
        let vertices = plan_vertex_removals(store.live(), 1, RemovalModel::Random, seed.derive(1));
        store.remove_vertices(&vertices).unwrap();
    }
    let live = store.live();
    let delta_built = Arc::clone(store.epochs().current().store());
    let rebuilt = Arc::new(full_store_of(live, &config).unwrap());
    // Column-level identity over the whole keyspace.
    assert_same_columns(&delta_built, &rebuilt, g.num_vertices(), g.num_edges());
    // Query-level identity, certificates included.
    let alive_edges: Vec<EdgeId> = live.alive_edges().collect();
    let alive_vertices: Vec<VertexId> = live.alive_vertices().collect();
    let mut rng = Seed::new(63).stream();
    let fault_sets: Vec<Vec<EdgeId>> = (0..4)
        .map(|_| {
            let mut fs = Vec::new();
            while fs.len() < 4 {
                let e = alive_edges[(rng() % alive_edges.len() as u64) as usize];
                if !fs.contains(&e) {
                    fs.push(e);
                }
            }
            fs
        })
        .collect();
    let queries: Vec<ConnQuery> = (0..120)
        .map(|i| ConnQuery {
            s: alive_vertices[(rng() % alive_vertices.len() as u64) as usize],
            t: alive_vertices[(rng() % alive_vertices.len() as u64) as usize],
            fault_set: i % fault_sets.len(),
        })
        .collect();
    let req = BatchRequest {
        fault_sets,
        queries,
    };
    let mut over_delta = Engine::with_shared(delta_built, config);
    let mut over_rebuilt = Engine::with_shared(rebuilt, config);
    let a = over_delta.execute(&req).unwrap();
    let b = over_rebuilt.execute(&req).unwrap();
    assert_eq!(a.results, b.results);
}

/// Regression: the elimination cache must not serve a basis eliminated
/// against an older epoch's labels. Same fault set, same engine, topology
/// changed underneath — the post-swap answer must follow the new truth.
#[test]
fn elimination_cache_never_crosses_epochs() {
    let g = generators::cycle(8);
    let (mut store, mut engine) = live_setup(&g, 3, 71, EngineConfig::default());
    // The transient fault: any alive edge that is NOT the one we will
    // structurally remove.
    let structural = non_tree_edge(&store);
    let fault = store
        .live()
        .alive_edges()
        .find(|&e| e != structural)
        .unwrap();
    let (s, t) = {
        let edge = g.edge(fault);
        (edge.u().index(), edge.v().index())
    };
    // Pre-churn: the cycle minus one faulted edge is still connected —
    // and this primes the cache for exactly this fault set.
    let pre = engine.execute(&batch(vec![fault], &[(s, t)])).unwrap();
    assert!(pre.results[0].connected);
    // Structurally remove the other edge: the cycle becomes a path, and
    // the same transient fault now disconnects its endpoints.
    store.remove_edge(structural).unwrap();
    let mask = {
        let mut m = store.live().forbidden_base();
        m[fault.index()] = true;
        m
    };
    let truth = connected_avoiding(&g, VertexId::new(s), VertexId::new(t), &mask);
    assert!(!truth, "test graph did not discriminate");
    let post = engine.execute(&batch(vec![fault], &[(s, t)])).unwrap();
    assert_eq!(
        post.results[0].connected, truth,
        "stale cached elimination served across an epoch swap"
    );
}

// ---------------------------------------------------------------- soak mode

/// Time-boxed churn soak: repeats randomized churn scenarios (fresh graph,
/// fresh seeds each iteration) until the `CHURN_SOAK_MS` budget runs out,
/// requiring perfect ground-truth agreement throughout. Run explicitly:
/// `CHURN_SOAK_MS=30000 cargo test -p ftl-engine --test chaos -- --ignored`.
#[test]
#[ignore = "time-boxed soak; enable via CHURN_SOAK_MS"]
fn churn_soak() {
    let budget_ms: u64 = std::env::var("CHURN_SOAK_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let start = std::time::Instant::now();
    let mut iteration = 0u64;
    while start.elapsed().as_millis() < budget_ms as u128 {
        let mut rng = StdRng::seed_from_u64(0x50AC ^ iteration);
        let g = generators::barabasi_albert(200, 3, &mut rng);
        let config = EngineConfig::default();
        let mut store = LiveStore::new(&g, 4, Seed::new(iteration), config).unwrap();
        let mut engine = Engine::over_epochs(Arc::clone(store.epochs()), config);
        let mut cfg = ChurnConfig::new("soak", 4);
        cfg.seed = iteration;
        cfg.rounds = 10;
        cfg.edge_removals_per_round = 8;
        cfg.vertex_removals_per_round = 2;
        cfg.model = if iteration.is_multiple_of(2) {
            RemovalModel::Random
        } else {
            RemovalModel::Targeted
        };
        let report = run_churn_scenario(&mut store, &mut engine, &cfg).unwrap();
        assert_eq!(
            report.mismatches, 0,
            "soak iteration {iteration} diverged from ground truth"
        );
        iteration += 1;
    }
    assert!(iteration > 0, "soak budget too small to run one iteration");
    println!(
        "churn_soak: {iteration} iterations in {:?}",
        start.elapsed()
    );
}
