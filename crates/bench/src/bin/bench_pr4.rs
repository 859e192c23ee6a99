//! PR 4 engine benchmark: batched fault-set decoding vs per-query naive
//! decoding, engine scenario throughput, and a churn-scenario reachability
//! table, written to `BENCH_pr4.json` at the repo root.
//!
//! "Naive" is the pre-engine serving path ([`Engine::execute_naive`]): one
//! fresh GF(2) elimination of the augmented system per query. "Batched" is
//! the engine path: one elimination per fault set yielding null-space
//! generators, then a parity test per query. The speedup comparison runs
//! with the elimination cache **disabled**, so it isolates batching; the
//! scenario section then shows what the cache adds on recurring fault sets.
//!
//! Run with: `cargo run -p ftl-bench --bin bench_pr4 --release`

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{
    run_scenario, BatchRequest, ConnQuery, Engine, EngineConfig, FaultModel, ScenarioConfig,
};
use ftl_routing::{FtRoutingScheme, RoutingParams};
use ftl_seeded::Seed;
use std::fmt::Write as _;
use std::time::Instant;

/// Median wall-clock nanoseconds per call over enough repetitions to fill
/// ~20 ms per sample, 7 samples.
fn measure_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().as_nanos().max(1);
    let iters = ((20_000_000u128 / once).clamp(1, 1_000_000)) as u64;
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

struct Row {
    json: String,
    human: String,
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut rng = ftl_bench::rng(4);
    const QUERIES_PER_SET: usize = 64;

    // ------------------------------------------------------------------
    // Batched vs naive decoding on the 64-vertex suite.
    // ------------------------------------------------------------------
    let mut decode_rows: Vec<Row> = Vec::new();
    for workload in ftl_bench::standard_suite(&mut rng) {
        eprintln!("[bench_pr4] batched-vs-naive: {}", workload.name);
        let g = &workload.graph;
        let scheme = CycleSpaceScheme::label(g, 64, Seed::new(3)).expect("suite is connected");
        // Cache disabled: the measurement isolates per-batch elimination
        // amortisation, not cache hits.
        let mut engine = Engine::from_cycle_space(
            &scheme,
            EngineConfig {
                cache_capacity: 0,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for f in [4usize, 16, 64] {
            let f = f.min(g.num_edges());
            let faults = ftl_bench::sample_faults(g, f, &mut rng);
            let queries: Vec<ConnQuery> = (0..QUERIES_PER_SET)
                .map(|_| ConnQuery {
                    s: ftl_bench::sample_vertex(g, &mut rng),
                    t: ftl_bench::sample_vertex(g, &mut rng),
                    fault_set: 0,
                })
                .collect();
            let req = BatchRequest {
                fault_sets: vec![faults],
                queries,
            };
            // Sanity: the two paths agree before we time them.
            {
                let batched = engine.execute(&req).expect("batched path");
                let naive = engine.execute_naive(&req).expect("naive path");
                assert_eq!(batched.results, naive.results, "path disagreement");
            }
            let naive_batch = measure_ns(|| engine.execute_naive(&req).expect("naive path"));
            let batched_batch = measure_ns(|| engine.execute(&req).expect("batched path"));
            let naive_q = naive_batch / QUERIES_PER_SET as f64;
            let batched_q = batched_batch / QUERIES_PER_SET as f64;
            let speedup = naive_q / batched_q;
            decode_rows.push(Row {
                json: format!(
                    "{{\"workload\": \"{}\", \"f\": {f}, \"queries_per_set\": {QUERIES_PER_SET}, \"naive_ns_per_query\": {naive_q:.0}, \"batched_ns_per_query\": {batched_q:.0}, \"speedup\": {speedup:.2}}}",
                    workload.name
                ),
                human: format!(
                    "decode {:>9} f={f:<3} naive {naive_q:>9.0} ns/q  batched {batched_q:>9.0} ns/q  speedup {speedup:.2}x",
                    workload.name
                ),
            });
        }
    }

    // ------------------------------------------------------------------
    // Scenario workloads: steady traffic (cache-hot), multi-round churn
    // (with a per-round reachability table), and a hub-targeted attack.
    // The churn run also samples routed stretch through the f-fault
    // routing scheme.
    // ------------------------------------------------------------------
    let mut scenario_jsons: Vec<String> = Vec::new();
    let mut scenario_humans: Vec<String> = Vec::new();
    {
        let mut suite = ftl_bench::standard_suite(&mut rng);
        let grid = suite.remove(0); // grid-8x8
        let scheme = CycleSpaceScheme::label(&grid.graph, 16, Seed::new(8)).expect("connected");
        let mut engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();

        eprintln!("[bench_pr4] scenario: steady-traffic");
        let mut steady = ScenarioConfig::new("steady-traffic", 16);
        steady.rounds = 6;
        steady.fault_sets_per_round = 1;
        steady.queries_per_fault_set = 256;
        steady.churn = 0.0;
        steady.verify = true;
        let report = run_scenario(&grid.graph, &grid.name, &mut engine, None, &steady)
            .expect("steady scenario");
        assert_eq!(report.mismatches, 0, "steady scenario diverged from truth");
        scenario_humans.push(format!(
            "scenario {:<16} {:>9} qps  p50 {:>7.0} ns/q  reach {:.3}  elim {}  cache {}",
            report.name,
            report.throughput_qps as u64,
            report.latency_p50_ns,
            report.reachable_fraction,
            report.eliminations,
            report.cache_hits
        ));
        scenario_jsons.push(report.to_json());

        eprintln!("[bench_pr4] scenario: fault-churn (builds the routing scheme for stretch)");
        let routing = FtRoutingScheme::new(&grid.graph, RoutingParams::new(2, 2), Seed::new(6));
        let mut churn = ScenarioConfig::new("fault-churn", 16);
        churn.rounds = 8;
        churn.fault_sets_per_round = 4;
        churn.queries_per_fault_set = 64;
        churn.churn = 0.25;
        churn.verify = true;
        churn.stretch_samples = 6;
        let report = run_scenario(&grid.graph, &grid.name, &mut engine, Some(&routing), &churn)
            .expect("churn scenario");
        assert_eq!(report.mismatches, 0, "churn scenario diverged from truth");
        let stretch = report
            .stretch
            .as_ref()
            .map(|s| format!("stretch mean {:.2} max {:.2}", s.mean, s.max))
            .unwrap_or_else(|| "stretch -".into());
        scenario_humans.push(format!(
            "scenario {:<16} {:>9} qps  p50 {:>7.0} ns/q  reach {:.3}  elim {}  cache {}  {}",
            report.name,
            report.throughput_qps as u64,
            report.latency_p50_ns,
            report.reachable_fraction,
            report.eliminations,
            report.cache_hits,
            stretch
        ));
        for r in &report.rounds {
            scenario_humans.push(format!(
                "  churn round {:>2}: reach {:.3} over {} queries",
                r.round, r.reachable_fraction, r.queries
            ));
        }
        scenario_jsons.push(report.to_json());

        eprintln!("[bench_pr4] scenario: hub-attack");
        let mut attack = ScenarioConfig::new("hub-attack", 16);
        attack.model = FaultModel::HighDegree;
        attack.rounds = 4;
        attack.fault_sets_per_round = 2;
        attack.queries_per_fault_set = 128;
        attack.churn = 0.5;
        attack.verify = true;
        let report = run_scenario(&grid.graph, &grid.name, &mut engine, None, &attack)
            .expect("attack scenario");
        assert_eq!(report.mismatches, 0, "attack scenario diverged from truth");
        scenario_humans.push(format!(
            "scenario {:<16} {:>9} qps  p50 {:>7.0} ns/q  reach {:.3}  elim {}  cache {}",
            report.name,
            report.throughput_qps as u64,
            report.latency_p50_ns,
            report.reachable_fraction,
            report.eliminations,
            report.cache_hits
        ));
        scenario_jsons.push(report.to_json());
    }

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"pr\": 4,").unwrap();
    writeln!(json, "  \"cores\": {cores},").unwrap();
    writeln!(
        json,
        "  \"note\": \"naive = one augmented-system elimination per query (pre-engine path); batched = one elimination per fault set + parity test per query, cache disabled for the comparison. Scenario section runs the engine with its LRU cache of eliminated bases.\","
    )
    .unwrap();
    writeln!(json, "  \"batched_vs_naive\": [").unwrap();
    for (i, r) in decode_rows.iter().enumerate() {
        let comma = if i + 1 < decode_rows.len() { "," } else { "" };
        writeln!(json, "    {}{comma}", r.json).unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"scenarios\": [").unwrap();
    for (i, s) in scenario_jsons.iter().enumerate() {
        let comma = if i + 1 < scenario_jsons.len() {
            ","
        } else {
            ""
        };
        writeln!(json, "{s}{comma}").unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    for r in &decode_rows {
        println!("{}", r.human);
    }
    for h in &scenario_humans {
        println!("{h}");
    }

    let out = std::env::var("BENCH_PR4_OUT").unwrap_or_else(|_| "BENCH_pr4.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("\nwrote {out}");
}
