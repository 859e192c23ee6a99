//! End-to-end engine tests: the batched path must agree with the naive
//! per-query path and with ground-truth graph traversals, certificates must
//! be genuine cuts, and the cache must actually amortise eliminations.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout
)]
use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{BatchRequest, ConnQuery, Engine, EngineConfig, EngineError, StoreError};
use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
use ftl_graph::{generators, EdgeId, Graph, VertexId};
use ftl_seeded::Seed;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engine_for(g: &Graph, f: usize, seed: u64, config: EngineConfig) -> Engine {
    let scheme = CycleSpaceScheme::label(g, f, Seed::new(seed)).unwrap();
    Engine::from_cycle_space(&scheme, config).unwrap()
}

fn random_fault_sets(g: &Graph, count: usize, f: usize, rng: &mut StdRng) -> Vec<Vec<EdgeId>> {
    (0..count)
        .map(|_| {
            let mut fs = Vec::new();
            while fs.len() < f.min(g.num_edges()) {
                let e = EdgeId::new(rng.gen_range(0..g.num_edges()));
                if !fs.contains(&e) {
                    fs.push(e);
                }
            }
            fs
        })
        .collect()
}

fn random_queries(g: &Graph, count: usize, fault_sets: usize, rng: &mut StdRng) -> Vec<ConnQuery> {
    (0..count)
        .map(|_| ConnQuery {
            s: VertexId::new(rng.gen_range(0..g.num_vertices())),
            t: VertexId::new(rng.gen_range(0..g.num_vertices())),
            fault_set: rng.gen_range(0..fault_sets),
        })
        .collect()
}

#[test]
fn batched_naive_and_truth_agree() {
    for (name, g) in [
        ("grid", generators::grid(4, 4)),
        ("cycle", generators::cycle(12)),
        ("star", generators::star(10)),
    ] {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let mut engine = engine_for(&g, 5, 9, EngineConfig::default());
        let fault_sets = random_fault_sets(&g, 4, 5, &mut rng);
        let queries = random_queries(&g, 120, fault_sets.len(), &mut rng);
        let req = BatchRequest {
            fault_sets: fault_sets.clone(),
            queries,
        };
        let batched = engine.execute(&req).unwrap();
        let naive = engine.execute_naive(&req).unwrap();
        assert_eq!(batched.results.len(), naive.results.len());
        for (i, (b, nv)) in batched.results.iter().zip(&naive.results).enumerate() {
            let q = &req.queries[i];
            assert_eq!(
                b.connected, nv.connected,
                "{name}: query {i} batched vs naive"
            );
            let mask = forbidden_mask(&g, &fault_sets[q.fault_set]);
            let truth = connected_avoiding(&g, q.s, q.t, &mask);
            assert_eq!(b.connected, truth, "{name}: query {i} vs ground truth");
        }
        // Batched ran one elimination per distinct fault set; naive ran one
        // per query.
        assert_eq!(batched.stats.eliminations, fault_sets.len());
        assert_eq!(naive.stats.eliminations, req.queries.len());
    }
}

#[test]
fn certificates_are_genuine_cuts() {
    let g = generators::grid(3, 4);
    let mut rng = StdRng::seed_from_u64(0xCE57);
    let mut engine = engine_for(
        &g,
        4,
        3,
        EngineConfig {
            collect_certificates: true,
            ..EngineConfig::default()
        },
    );
    let fault_sets = random_fault_sets(&g, 6, 4, &mut rng);
    let queries = random_queries(&g, 200, fault_sets.len(), &mut rng);
    let req = BatchRequest {
        fault_sets: fault_sets.clone(),
        queries,
    };
    let resp = engine.execute(&req).unwrap();
    let mut disconnections = 0;
    for (q, r) in req.queries.iter().zip(&resp.results) {
        if r.connected {
            assert!(r.certificate.is_none());
            continue;
        }
        disconnections += 1;
        let cert = r.certificate.as_ref().expect("disconnected carries a cut");
        assert!(!cert.is_empty());
        // The certificate must be a subset of the fault set…
        for e in cert {
            assert!(fault_sets[q.fault_set].contains(e), "cert edge outside F");
        }
        // …and removing it alone must separate s from t.
        let mask = forbidden_mask(&g, cert);
        assert!(
            !connected_avoiding(&g, q.s, q.t, &mask),
            "certificate does not cut ({:?}, {:?})",
            q.s,
            q.t
        );
    }
    assert!(disconnections > 0, "workload produced no disconnections");
}

#[test]
fn repeated_fault_sets_are_served_from_cache() {
    let g = generators::grid(4, 4);
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let mut engine = engine_for(&g, 6, 4, EngineConfig::default());
    let fault_sets = random_fault_sets(&g, 3, 6, &mut rng);
    let queries = random_queries(&g, 30, fault_sets.len(), &mut rng);
    let req = BatchRequest {
        fault_sets: fault_sets.clone(),
        queries,
    };
    let first = engine.execute(&req).unwrap();
    assert_eq!(first.stats.eliminations, 3);
    assert_eq!(first.stats.cache_hits, 0);
    let second = engine.execute(&req).unwrap();
    assert_eq!(second.stats.eliminations, 0);
    assert_eq!(second.stats.cache_hits, 3);
    // A permuted fault set is the same canonical set: still a hit.
    let mut permuted = fault_sets[0].clone();
    permuted.reverse();
    let req2 = BatchRequest {
        fault_sets: vec![permuted],
        queries: vec![ConnQuery {
            s: VertexId::new(0),
            t: VertexId::new(15),
            fault_set: 0,
        }],
    };
    let third = engine.execute(&req2).unwrap();
    assert_eq!(third.stats.eliminations, 0);
    assert_eq!(third.stats.cache_hits, 1);
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(a, b, "cache must not change answers");
    }
}

#[test]
fn zero_capacity_cache_still_answers_correctly() {
    let g = generators::cycle(10);
    let mut rng = StdRng::seed_from_u64(7);
    let mut engine = engine_for(
        &g,
        3,
        5,
        EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        },
    );
    let fault_sets = random_fault_sets(&g, 2, 3, &mut rng);
    let queries = random_queries(&g, 40, 2, &mut rng);
    let req = BatchRequest {
        fault_sets: fault_sets.clone(),
        queries,
    };
    let a = engine.execute(&req).unwrap();
    let b = engine.execute(&req).unwrap();
    assert_eq!(a.stats.eliminations, 2);
    assert_eq!(b.stats.eliminations, 2, "no cache, so re-eliminate");
    for (q, r) in req.queries.iter().zip(&a.results) {
        let mask = forbidden_mask(&g, &fault_sets[q.fault_set]);
        assert_eq!(r.connected, connected_avoiding(&g, q.s, q.t, &mask));
    }
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x, y);
    }
}

#[test]
fn bad_fault_set_index_is_an_error() {
    let g = generators::path(4);
    let mut engine = engine_for(&g, 2, 1, EngineConfig::default());
    let req = BatchRequest {
        fault_sets: vec![vec![EdgeId::new(0)]],
        queries: vec![ConnQuery {
            s: VertexId::new(0),
            t: VertexId::new(3),
            fault_set: 5,
        }],
    };
    assert!(matches!(
        engine.execute(&req),
        Err(EngineError::UnknownFaultSet {
            index: 5,
            available: 1
        })
    ));
}

#[test]
fn missing_edge_label_is_a_store_error() {
    let g = generators::path(4);
    let mut engine = engine_for(&g, 2, 1, EngineConfig::default());
    let req = BatchRequest {
        fault_sets: vec![vec![EdgeId::new(99)]],
        queries: vec![],
    };
    assert!(matches!(
        engine.execute(&req),
        Err(EngineError::Store(StoreError::Missing(_)))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs, fault sets, and query mixes: the engine always agrees
    /// with a direct graph traversal.
    #[test]
    fn engine_matches_truth_on_random_workloads(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_random(24, 0.12, 1, &mut rng);
        let f = 1 + (seed as usize) % 6;
        let mut engine = engine_for(&g, f, seed ^ 0xABC, EngineConfig::default());
        let fault_sets = random_fault_sets(&g, 3, f, &mut rng);
        let queries = random_queries(&g, 60, 3, &mut rng);
        let req = BatchRequest { fault_sets: fault_sets.clone(), queries };
        let resp = engine.execute(&req).unwrap();
        for (q, r) in req.queries.iter().zip(&resp.results) {
            let mask = forbidden_mask(&g, &fault_sets[q.fault_set]);
            prop_assert_eq!(r.connected, connected_avoiding(&g, q.s, q.t, &mask));
        }
    }
}

// ---------------------------------------------------------------------
// PR 5: zero-decode sidecar and the multi-worker engine.
// ---------------------------------------------------------------------

/// The zero-decode sidecar path and the wire-decoding path must be
/// bit-identical — results *and* certificates.
#[test]
fn sidecar_and_wire_paths_agree() {
    let g = generators::grid(5, 5);
    let scheme = CycleSpaceScheme::label(&g, 6, Seed::new(31)).unwrap();
    let mut with_sidecar = Engine::from_cycle_space(
        &scheme,
        EngineConfig {
            collect_certificates: true,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut wire_only = Engine::from_cycle_space(
        &scheme,
        EngineConfig {
            collect_certificates: true,
            use_sidecar: false,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x51DE);
    for trial in 0..6 {
        let fault_sets = random_fault_sets(&g, 3, 6, &mut rng);
        let queries = random_queries(&g, 100, fault_sets.len(), &mut rng);
        let req = BatchRequest {
            fault_sets,
            queries,
        };
        let a = with_sidecar.execute(&req).unwrap();
        let b = wire_only.execute(&req).unwrap();
        assert_eq!(a.results, b.results, "trial {trial}");
        let an = with_sidecar.execute_naive(&req).unwrap();
        let bn = wire_only.execute_naive(&req).unwrap();
        assert_eq!(an.results, bn.results, "naive trial {trial}");
        // Batched certificates come back in canonical (sorted) fault order,
        // naive ones in request order — compare them as sets, and the
        // connectivity verdicts exactly.
        for (qa, qn) in a.results.iter().zip(&an.results) {
            assert_eq!(qa.connected, qn.connected, "batched vs naive trial {trial}");
            match (&qa.certificate, &qn.certificate) {
                (None, None) => {}
                (Some(ca), Some(cn)) => {
                    let mut ca = ca.clone();
                    let mut cn = cn.clone();
                    ca.sort();
                    cn.sort();
                    assert_eq!(ca, cn, "certificate sets trial {trial}");
                }
                other => panic!("certificate presence mismatch: {other:?}"),
            }
        }
    }
    // The sidecar really decoded the whole store.
    assert_eq!(
        with_sidecar.store().sidecar().decoded_vertices(),
        g.num_vertices()
    );
    assert_eq!(
        with_sidecar.store().sidecar().decoded_edges(),
        g.num_edges()
    );
}

/// M plain threads hammering one frozen `Arc<LabelStore>` — each with its
/// own serving core — must all reproduce the serial engine's answers.
/// This is the lock-free-reads contract of the store, exercised with real
/// threads regardless of the `parallel` feature.
#[test]
fn threads_sharing_one_frozen_store_agree_with_serial() {
    use std::sync::Arc;
    let g = generators::grid(4, 5);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(12)).unwrap();
    let mut reference = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let store = reference.shared_store();
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    let fault_sets = random_fault_sets(&g, 4, 4, &mut rng);
    let queries = random_queries(&g, 200, fault_sets.len(), &mut rng);
    let req = Arc::new(BatchRequest {
        fault_sets,
        queries,
    });
    let expected = Arc::new(reference.execute(&req).unwrap().results);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&store);
            let req = Arc::clone(&req);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut engine = Engine::with_shared(store, EngineConfig::default());
                for _ in 0..3 {
                    let resp = engine.execute(&req).unwrap();
                    assert_eq!(resp.results, *expected);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
}

/// A fault set naming a missing edge must be rejected by BOTH serving
/// paths — the batched engine and the naive oracle — even when no query
/// references it.
#[test]
fn unreferenced_bad_fault_set_rejected_by_both_engines() {
    let g = generators::grid(3, 3);
    let scheme = CycleSpaceScheme::label(&g, 3, Seed::new(4)).unwrap();
    let req = BatchRequest {
        fault_sets: vec![vec![EdgeId::new(0)], vec![EdgeId::new(999_999)]],
        queries: vec![ConnQuery {
            s: VertexId::new(0),
            t: VertexId::new(8),
            fault_set: 0, // the bad set (index 1) is never referenced
        }],
    };
    let mut serial = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let serial_err = serial.execute(&req).unwrap_err();
    assert!(matches!(
        serial_err,
        EngineError::Store(StoreError::Missing(_))
    ));
    assert_eq!(serial.execute_naive(&req).unwrap_err(), serial_err);
}

/// `freeze_wire_only` skips the sidecar entirely; a wire-path engine over
/// it answers identically to a sidecar engine over the same labels.
#[test]
fn wire_only_freeze_serves_identically_without_sidecar() {
    use ftl_engine::{LabelStoreBuilder, StoreKey};
    let g = generators::grid(4, 4);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(6)).unwrap();
    let mut builder = LabelStoreBuilder::new(4);
    for i in 0..g.num_vertices() {
        let v = VertexId::new(i);
        builder
            .put_vertex_label(v, &scheme.vertex_label(v))
            .unwrap();
    }
    for i in 0..g.num_edges() {
        let e = EdgeId::new(i);
        builder.put_edge_label(e, &scheme.edge_label(e)).unwrap();
    }
    let store = builder.freeze_wire_only();
    assert_eq!(store.sidecar().decoded_vertices(), 0);
    assert_eq!(store.sidecar().decoded_edges(), 0);
    assert!(store
        .get_bytes(StoreKey::vertex(VertexId::new(0)))
        .is_some());
    let mut wire_engine = Engine::new(
        store,
        EngineConfig {
            use_sidecar: false,
            ..EngineConfig::default()
        },
    );
    let mut sidecar_engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xF00);
    let fault_sets = random_fault_sets(&g, 2, 4, &mut rng);
    let queries = random_queries(&g, 80, fault_sets.len(), &mut rng);
    let req = BatchRequest {
        fault_sets,
        queries,
    };
    assert_eq!(
        wire_engine.execute(&req).unwrap().results,
        sidecar_engine.execute(&req).unwrap().results
    );
}
