//! PR 5 benchmark: the zero-decode serving path and the 1k-node
//! scale-up — written to `BENCH_pr5.json` at the repo root.
//!
//! Sections:
//!
//! 1. **Labeling scale-up** — `SketchScheme::label` / `CycleSpaceScheme::
//!    label` wall times on the 1k-node suite (plus er-4096). The PR 4
//!    baseline for sketch labeling at n = 1024 on the 1-core bench
//!    container was ~15 ms; the JSON records the measured speedup against
//!    it.
//! 2. **Zero-decode serving** — the PR 4 steady-traffic scenario run
//!    twice on identical traffic: once with the decoded sidecar disabled
//!    (the PR 4 wire-decoding path) and once enabled. The ratio is the
//!    tentpole number.
//! 3. **Batched vs naive** on the n ≥ 1024 workloads (cache disabled, so
//!    it isolates elimination amortisation).
//!
//! Run with: `cargo run -p ftl-bench --bin bench_pr5 --release`

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{run_scenario, BatchRequest, ConnQuery, Engine, EngineConfig, ScenarioConfig};
use ftl_graph::generators;
use ftl_seeded::Seed;
use ftl_sketch::{SketchParams, SketchScheme};
use std::fmt::Write as _;
use std::time::Instant;

/// Median wall-clock milliseconds per call over `samples` runs. One
/// untimed warm-up first (so cold-allocator page faults don't skew the
/// median of millisecond-scale calls), and the result is dropped
/// **outside** the timed region — the metric is construction time, not
/// construction plus teardown.
fn measure_ms<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let elapsed = start.elapsed().as_nanos() as f64 / 1e6;
            drop(std::hint::black_box(out));
            elapsed
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Median wall-clock nanoseconds per call, criterion-style.
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

/// The PR 4 sketch-labeling baseline at n = 1024 on the 1-core bench
/// container (`bench_labeling`, `er-1024`, 8 units): ~15 ms.
const PR4_SKETCH_1024_MS: f64 = 15.2;

fn steady_cfg() -> ScenarioConfig {
    // Identical shape to BENCH_pr4's steady-traffic scenario.
    let mut steady = ScenarioConfig::new("steady-traffic", 16);
    steady.rounds = 6;
    steady.fault_sets_per_round = 1;
    steady.queries_per_fault_set = 256;
    steady.churn = 0.0;
    steady.verify = true;
    steady
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut rng = ftl_bench::rng(5);
    let mut human: Vec<String> = Vec::new();

    // ------------------------------------------------------------------
    // 1. Labeling scale-up.
    // ------------------------------------------------------------------
    let mut labeling_rows: Vec<String> = Vec::new();
    let mut sketch_1024_ms = f64::NAN;
    {
        let mut workloads = ftl_bench::scale_suite(&mut rng);
        workloads.push(ftl_bench::Workload {
            name: "er-4096".into(),
            graph: generators::connected_random(4096, 8.0 / 4096.0, 1, &mut rng),
        });
        for w in &workloads {
            eprintln!("[bench_pr5] labeling: {}", w.name);
            let params = SketchParams::for_graph(&w.graph).with_units(8);
            let sketch_ms = measure_ms(5, || {
                SketchScheme::label(&w.graph, &params, Seed::new(1)).expect("connected")
            });
            let cyc_ms = measure_ms(5, || {
                CycleSpaceScheme::label(&w.graph, 16, Seed::new(1)).expect("connected")
            });
            if w.name == "er-1024" {
                sketch_1024_ms = sketch_ms;
            }
            labeling_rows.push(format!(
                "{{\"workload\": \"{}\", \"n\": {}, \"m\": {}, \"sketch_label_ms\": {sketch_ms:.2}, \"cycle_space_label_ms\": {cyc_ms:.2}}}",
                w.name,
                w.graph.num_vertices(),
                w.graph.num_edges()
            ));
            human.push(format!(
                "labeling {:>10}: sketch {sketch_ms:>7.2} ms  cycle-space {cyc_ms:>6.2} ms",
                w.name
            ));
        }
    }
    let sketch_speedup = PR4_SKETCH_1024_MS / sketch_1024_ms;
    human.push(format!(
        "sketch n=1024: {sketch_1024_ms:.2} ms vs ~{PR4_SKETCH_1024_MS} ms PR4 baseline = {sketch_speedup:.1}x"
    ));
    // Regression guard, not a benchmark gate: the PR 5 state measures
    // ~3.5x on the reference container, so 1.5x still passes on a runner
    // half as fast (or twice as loaded) while a true regression toward
    // the ~15 ms PR 4 sweep (1.0x) fails loudly.
    assert!(
        sketch_speedup >= 1.5,
        "sketch labeling regressed: {sketch_1024_ms:.2} ms at n = 1024"
    );

    // ------------------------------------------------------------------
    // 2. Zero-decode serving: steady traffic, sidecar off vs on.
    // ------------------------------------------------------------------
    let grid = generators::grid(8, 8);
    let scheme = CycleSpaceScheme::label(&grid, 16, Seed::new(8)).expect("connected");
    let steady = steady_cfg();
    eprintln!("[bench_pr5] steady-traffic: wire path (pr4 baseline)");
    let mut wire_engine = Engine::from_cycle_space(
        &scheme,
        EngineConfig {
            use_sidecar: false,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let wire_report =
        run_scenario(&grid, "grid-8x8", &mut wire_engine, None, &steady).expect("wire scenario");
    assert_eq!(wire_report.mismatches, 0, "wire path diverged from truth");
    eprintln!("[bench_pr5] steady-traffic: zero-decode path");
    let mut sidecar_engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let sidecar_report = run_scenario(&grid, "grid-8x8", &mut sidecar_engine, None, &steady)
        .expect("sidecar scenario");
    assert_eq!(
        sidecar_report.mismatches, 0,
        "zero-decode path diverged from truth"
    );
    assert_eq!(
        wire_report.reachable_fraction, sidecar_report.reachable_fraction,
        "identical traffic must see identical reachability"
    );
    let zero_decode_ratio = sidecar_report.throughput_qps / wire_report.throughput_qps;
    human.push(format!(
        "steady-traffic: wire {:.2}M qps (p50 {:.0} ns) -> zero-decode {:.2}M qps (p50 {:.0} ns) = {zero_decode_ratio:.2}x",
        wire_report.throughput_qps / 1e6,
        wire_report.latency_p50_ns,
        sidecar_report.throughput_qps / 1e6,
        sidecar_report.latency_p50_ns,
    ));

    // ------------------------------------------------------------------
    // 3. Batched vs naive on the 1k-node workloads.
    // ------------------------------------------------------------------
    let mut decode_rows: Vec<String> = Vec::new();
    {
        const QUERIES_PER_SET: usize = 64;
        for w in ftl_bench::scale_suite(&mut rng) {
            eprintln!("[bench_pr5] batched-vs-naive: {}", w.name);
            let scheme =
                CycleSpaceScheme::label(&w.graph, 64, Seed::new(3)).expect("suite is connected");
            let mut engine = Engine::from_cycle_space(
                &scheme,
                EngineConfig {
                    cache_capacity: 0, // isolate batching, not caching
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            for f in [16usize, 64] {
                let faults = ftl_bench::sample_faults(&w.graph, f, &mut rng);
                let queries: Vec<ConnQuery> = (0..QUERIES_PER_SET)
                    .map(|_| ConnQuery {
                        s: ftl_bench::sample_vertex(&w.graph, &mut rng),
                        t: ftl_bench::sample_vertex(&w.graph, &mut rng),
                        fault_set: 0,
                    })
                    .collect();
                let req = BatchRequest {
                    fault_sets: vec![faults],
                    queries,
                };
                {
                    let batched = engine.execute(&req).expect("batched path");
                    let naive = engine.execute_naive(&req).expect("naive path");
                    assert_eq!(batched.results, naive.results, "path disagreement");
                }
                let naive_q = measure_ns(|| engine.execute_naive(&req).expect("naive"))
                    / QUERIES_PER_SET as f64;
                let batched_q =
                    measure_ns(|| engine.execute(&req).expect("batched")) / QUERIES_PER_SET as f64;
                let speedup = naive_q / batched_q;
                decode_rows.push(format!(
                    "{{\"workload\": \"{}\", \"f\": {f}, \"queries_per_set\": {QUERIES_PER_SET}, \"naive_ns_per_query\": {naive_q:.0}, \"batched_ns_per_query\": {batched_q:.0}, \"speedup\": {speedup:.2}}}",
                    w.name
                ));
                human.push(format!(
                    "decode {:>10} f={f:<3} naive {naive_q:>9.0} ns/q  batched {batched_q:>8.0} ns/q  speedup {speedup:.2}x",
                    w.name
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"pr\": 5,").unwrap();
    writeln!(json, "  \"cores\": {cores},").unwrap();
    writeln!(
        json,
        "  \"note\": \"zero_decode: PR4 steady-traffic scenario on identical traffic, wire-decoding path vs DecodedSidecar path. batched_vs_naive: cache disabled. labeling: pr4 sketch baseline ~15 ms at n = 1024 on the 1-core bench container.\","
    )
    .unwrap();
    writeln!(json, "  \"labeling\": [").unwrap();
    for (i, r) in labeling_rows.iter().enumerate() {
        let comma = if i + 1 < labeling_rows.len() { "," } else { "" };
        writeln!(json, "    {r}{comma}").unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(
        json,
        "  \"sketch_label_1024\": {{\"pr4_baseline_ms\": {PR4_SKETCH_1024_MS}, \"measured_ms\": {sketch_1024_ms:.2}, \"speedup\": {sketch_speedup:.2}}},"
    )
    .unwrap();
    writeln!(
        json,
        "  \"zero_decode\": {{\"wire_qps\": {:.0}, \"wire_p50_ns\": {:.0}, \"wire_p99_ns\": {:.0}, \"sidecar_qps\": {:.0}, \"sidecar_p50_ns\": {:.0}, \"sidecar_p99_ns\": {:.0}, \"speedup\": {zero_decode_ratio:.2}}},",
        wire_report.throughput_qps,
        wire_report.latency_p50_ns,
        wire_report.latency_p99_ns,
        sidecar_report.throughput_qps,
        sidecar_report.latency_p50_ns,
        sidecar_report.latency_p99_ns,
    )
    .unwrap();
    writeln!(json, "  \"batched_vs_naive\": [").unwrap();
    for (i, r) in decode_rows.iter().enumerate() {
        let comma = if i + 1 < decode_rows.len() { "," } else { "" };
        writeln!(json, "    {r}{comma}").unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    for h in &human {
        println!("{h}");
    }
    let out = std::env::var("BENCH_PR5_OUT").unwrap_or_else(|_| "BENCH_pr5.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("\nwrote {out}");
}
