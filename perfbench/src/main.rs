//! `ftl-perfbench`: one open-loop, audited serving benchmark with a
//! per-layer breakdown.
//!
//! ```text
//! ftl-perfbench --workload <shared-faults|fresh-faults|churn> --seed N
//!               --seconds S --trace <0|1> [--out-dir DIR]
//!               [--rustc VERSION] [--commit HASH]
//! ```
//!
//! Each run builds its workload in this process, serves it through an
//! in-process `ftl_server::Server` with default server and engine
//! configs, and loads it from two pipelined client connections on a fixed
//! schedule. Every answer is audited against BFS after the timed phases.
//! The report lists every metric by name and unit; its last line is one
//! JSON object. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! is the separate traced run that gives the per-layer breakdown and
//! writes its spans to `DIR/spans-<workload>.jsonl`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the client waits on sockets with ppoll as declared for 64-bit Linux");

mod layers;
mod load;
mod stats;
mod trace;
mod workload;

use crate::layers::{snapshot, Interval};
use crate::load::{connect, now_ns, run_phase, PhaseOut, PhaseSpec, ReqRec, Status};
use crate::stats::{bucket_count, bucket_percentile, median, percentile};
use crate::trace::{self_times, SpanLog};
use crate::workload::{audit, rss_mb, setup, Audit, EpochLog, Served, Workload, WORKLOADS};
use crate::workload::{QUERIES_PER_REQUEST, SWAP_RATE};
use ftl_engine::{Engine, EngineConfig, FaultSetBatch, LiveStore};
use ftl_graph::EdgeId;
use ftl_server::ServerConfig;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The latency limit `slo_qps` is defined by: p99 from due time, 10× the
/// default 500 µs accumulation window.
const SLO_P99_MS: f64 = 5.0;
/// Set-ups before the first phase; the last one serves.
const SETUPS: usize = 3;
/// Rounds of the fixed-rate phases. Each round runs `low`, then `high`,
/// then more set-ups (and, without a concurrent writer, a share of the
/// writer probe), so every metric samples the whole run, not one stretch
/// of a machine whose speed drifts.
const ROUNDS: usize = 12;
/// Per-round figures are reported as this quantile over the rounds: the
/// lower quartile. On the 2-vCPU virtual machine this was tuned on the
/// host slows everything down, for stretches of tens of seconds, by up
/// to 2× (a p90 by up to 7×); a code change moves every round alike.
const ROUND_QUANTILE: f64 = 0.25;
/// Throwaway set-ups after each round; `setup_s` is the median over these
/// and the first ones.
const SETUPS_PER_ROUND: usize = 2;
/// A phase whose sender ran later than this at the median measured the
/// generator, not the server, and is marked invalid. (Its p99 is not
/// used: on a small virtual machine every thread, the sender's too, sees
/// millisecond wake-up stalls, and those are charged to latency anyway.)
const GEN_LAG_LIMIT_MS: f64 = 0.25;
/// Probes of the `slo_qps` search (log-scale bisection).
const SLO_PROBES: usize = 6;
/// Latency p99s are taken per window of this many ns of due times, and
/// the median over a phase's windows is reported.
const P99_WINDOW_NS: u64 = 500_000_000;
/// Fewest samples a window needs for its p99 (ten beyond it).
const P99_WINDOW_MIN: usize = 1_000;
/// Unmeasured warm-up before the first timed phase.
const WARMUP_S: f64 = 0.5;
/// Swaps in the writer probe of workloads without a concurrent writer
/// (spread over the rounds).
const PROBE_SWAPS: usize = 1_200;
/// Most swaps the concurrent writer of `churn` may publish in one run:
/// an eighth of the ~5 100 edges of `er:1024:8` (of which ~4 100 can go
/// without disconnecting it), so the served topology drifts by a bounded
/// share over a run. A run whose schedule
/// could exceed it is refused up front (see [`max_writer_seconds`]).
const MAX_SWAPS: usize = 640;
/// Most requests in flight per connection before a phase stops sending:
/// far below the default admission budget (65 536 queries = 4 096
/// requests of 16), so a probe past saturation never draws `ServerBusy`.
const MAX_BACKLOG: usize = 1_500;

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = parse_value(&flag, &value)?,
            "--seconds" => args.seconds = parse_value(&flag, &value)?,
            "--trace" => args.trace = parse_value::<u8>(&flag, &value)? == 1,
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            "--rustc" => args.rustc = value.clone(),
            "--commit" => args.commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for {flag}"))
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind it, for percentiles and medians.
    samples: Option<usize>,
    /// Printed but left out of the JSON: its run-to-run spread on a small
    /// shared machine is wider than any bound it could carry.
    report_only: bool,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            report_only: false,
        });
    }

    /// Like [`Report::put`], but printed only (see [`Metric::report_only`]).
    fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.put(name, value, unit, samples);
        if let Some(m) = self.metrics.last_mut() {
            m.report_only = true;
        }
    }

    fn print(&self) {
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            let only = if m.report_only { "  [report only]" } else { "" };
            println!(
                "metric {:<40} {:>16.6} {}{n}{only}",
                m.name, m.value, m.unit
            );
        }
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> Result<String, String> {
        let mut body = Vec::new();
        for m in self.metrics.iter().filter(|m| !m.report_only) {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            body.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

/// One finished phase, kept for the audit and the report.
struct Phase {
    label: String,
    spec: PhaseSpec,
    out: PhaseOut,
}

/// A phase's client-side figures.
struct Summary {
    /// Latencies of the valid rounds (see [`Summary::of`]).
    latencies_ms: Vec<f64>,
    /// Lower quartile over the valid rounds of each round's p50.
    p50_ms: f64,
    /// Median over the valid rounds' windows of each window's p99.
    p99_ms: f64,
    /// Windows behind `p99_ms`.
    p99_windows: usize,
    /// The p99 of all samples of the valid rounds, for the report table.
    p99_all_ms: f64,
    /// Lower quartile over the valid rounds of each round's p90.
    p90_ms: f64,
    /// Sender lateness over every round, valid or not.
    lag_p50_ms: f64,
    lag_p99_ms: f64,
    lag_max_ms: f64,
    /// Rounds summarised, and how many of them were valid.
    rounds: usize,
    valid_rounds: usize,
    attempted: u64,
    failures: BTreeMap<Status, u64>,
}

impl Phase {
    fn summary(&self) -> Summary {
        Summary::of(&[self])
    }

    /// The generator held this phase's schedule: its median lateness
    /// stayed within [`GEN_LAG_LIMIT_MS`].
    fn held_schedule(&self) -> bool {
        lag_p50_ms(&self.out.recs) <= GEN_LAG_LIMIT_MS
    }
}

/// Median sender lateness of the requests that went out, ms.
fn lag_p50_ms(recs: &[ReqRec]) -> f64 {
    let lags: Vec<f64> = recs
        .iter()
        .filter(|r| r.sent_ns != 0)
        .map(|r| stats::gen_lag_ns(r.due_ns, r.sent_ns) as f64 / 1e6)
        .collect();
    median(&lags).unwrap_or(0.0)
}

impl Summary {
    /// Summarises `phases`, the rounds of one rate. A round whose sender
    /// fell behind its schedule measured the generator, not the server:
    /// its latencies are left out (all rounds are used only when none is
    /// valid, and then the summary is not [`Summary::valid`]). The p50 and
    /// p90 are each valid round's own, then their lower quartile over
    /// those rounds; the p99 is the median of the per-window p99s
    /// (windows cut within each round). A stretch of time in which the
    /// host slows the machine down then raises the figures only if it
    /// covers most of the rounds. Lateness and failures count every round.
    fn of(phases: &[&Phase]) -> Summary {
        let recs = || phases.iter().flat_map(|p| &p.out.recs);
        let valid: Vec<&Phase> = phases.iter().copied().filter(|p| p.held_schedule()).collect();
        let timed_rounds = if valid.is_empty() { phases } else { &valid[..] };
        let mut latencies_ms = Vec::new();
        let mut window_p99s = Vec::new();
        let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
        for p in timed_rounds {
            let timed: Vec<(u64, f64)> = p
                .out
                .recs
                .iter()
                .filter(|r| r.status == Status::Ok)
                .map(|r| {
                    (
                        r.due_ns,
                        stats::due_latency_ns(r.due_ns, r.done_ns) as f64 / 1e6,
                    )
                })
                .collect();
            let mut round: Vec<f64> = timed.iter().map(|&(_, v)| v).collect();
            round.sort_by(f64::total_cmp);
            p50s.extend(stats::nearest_rank(&round, 0.5));
            p90s.extend(stats::nearest_rank(&round, 0.9));
            latencies_ms.extend(round);
            window_p99s.extend(stats::window_percentiles(
                &timed,
                P99_WINDOW_NS,
                0.99,
                P99_WINDOW_MIN,
            ));
        }
        latencies_ms.sort_by(f64::total_cmp);
        let p99_ms = median(&window_p99s).unwrap_or(f64::INFINITY);
        let p99_windows = window_p99s.len();
        let lags: Vec<f64> = recs()
            .filter(|r| r.sent_ns != 0)
            .map(|r| stats::gen_lag_ns(r.due_ns, r.sent_ns) as f64 / 1e6)
            .collect();
        let mut failures = BTreeMap::new();
        for r in recs().filter(|r| !matches!(r.status, Status::Ok | Status::Skipped)) {
            *failures.entry(r.status).or_insert(0) += 1;
        }
        Summary {
            p50_ms: percentile(&p50s, ROUND_QUANTILE).unwrap_or(f64::INFINITY),
            p90_ms: percentile(&p90s, ROUND_QUANTILE).unwrap_or(f64::INFINITY),
            p99_ms,
            p99_windows,
            p99_all_ms: stats::nearest_rank(&latencies_ms, 0.99).unwrap_or(f64::INFINITY),
            latencies_ms,
            lag_p50_ms: percentile(&lags, 0.5).unwrap_or(0.0),
            lag_p99_ms: percentile(&lags, 0.99).unwrap_or(0.0),
            lag_max_ms: lags.iter().copied().fold(0.0, f64::max),
            rounds: phases.len(),
            valid_rounds: valid.len(),
            attempted: recs().filter(|r| r.status != Status::Skipped).count() as u64,
            failures,
        }
    }

    fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// The figures are the server's: at least one round, and at least
    /// half of them, held the generator's schedule.
    fn valid(&self) -> bool {
        self.valid_rounds > 0 && 2 * self.valid_rounds >= self.rounds
    }
}

/// Whether phases at one rate met the latency limit with no failures and
/// no growing backlog (and the generator held its schedule).
fn meets_slo(phases: &[&Phase], s: &Summary) -> bool {
    let held = phases.iter().all(|p| {
        !p.out.aborted && p.out.backlog_end as f64 <= (p.spec.rate * SLO_P99_MS / 1e3).max(2.0)
    });
    held && s.valid() && s.failed() == 0 && s.p99_ms <= SLO_P99_MS
}

/// One writer swap, timed around `LiveStore::remove_edges`.
#[derive(Debug, Clone, Copy)]
struct Swap {
    start_ns: u64,
    end_ns: u64,
}

/// The writer side: removes one edge per swap at a fixed rate and
/// remembers which epoch removed which edge, for the audit.
struct Writer {
    live: LiveStore,
    edges: Vec<EdgeId>,
    next: usize,
    log: EpochLog,
    swaps: Vec<Swap>,
    lag_max: u64,
}

impl Writer {
    fn new(live: LiveStore, edges: Vec<EdgeId>) -> Self {
        Writer {
            live,
            edges,
            next: 0,
            log: EpochLog::default(),
            swaps: Vec::new(),
            lag_max: 0,
        }
    }

    /// One swap: remove the next removable edge and publish. Edges whose
    /// removal would disconnect the graph are skipped (the call returns
    /// them) and the next one is tried.
    fn swap(&mut self) -> Result<bool, String> {
        self.lag_max = self.lag_max.max(ftl_obs::global().epoch.lag());
        while let Some(&e) = self.edges.get(self.next) {
            self.next += 1;
            let start_ns = now_ns();
            let (report, skipped) = self
                .live
                .remove_edges(&[e])
                .map_err(|err| format!("swap freeze: {err}"))?;
            let end_ns = now_ns();
            if skipped.is_empty() {
                self.log.removals.push((report.epoch, e));
                self.swaps.push(Swap { start_ns, end_ns });
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Swaps at `rate` per second until `stop` is raised.
    fn run(&mut self, rate: f64, stop: &AtomicBool) -> Result<(), String> {
        let start = now_ns();
        let mut j = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let due = start + (j as f64 * 1e9 / rate) as u64;
            let now = now_ns();
            if now < due {
                std::thread::sleep(Duration::from_nanos((due - now).min(2_000_000)));
                continue;
            }
            if self.swaps.len() >= MAX_SWAPS {
                return Err(format!(
                    "the writer reached its budget of {MAX_SWAPS} swaps; run fewer --seconds"
                ));
            }
            if !self.swap()? {
                return Err("the writer ran out of removable edges".into());
            }
            j += 1;
        }
        Ok(())
    }
}

/// A workload being measured: its server, connections, writer and every
/// phase run so far.
struct Bench<'a> {
    wl: &'a Workload,
    served: Served,
    conns: [TcpStream; 2],
    writer: Option<Writer>,
    phases: Vec<Phase>,
}

impl Bench<'_> {
    /// Runs one phase (with the writer swapping alongside, for churn) and
    /// returns its index.
    fn phase(
        &mut self,
        label: &str,
        rate: f64,
        seconds: f64,
        traced: bool,
        abort: usize,
    ) -> Result<usize, String> {
        let tag = self.phases.len() as u32 + 1;
        let spec = PhaseSpec {
            tag,
            seed: ftl_seeded::splitmix64(self.wl.seed ^ u64::from(tag) << 40),
            rate,
            seconds,
            traced,
            abort_backlog: abort,
        };
        let wl = self.wl;
        let conns = &mut self.conns;
        let out = match self.writer.as_mut() {
            Some(writer) if wl.params.writer => {
                let stop = AtomicBool::new(false);
                std::thread::scope(|s| {
                    let w = s.spawn(|| writer.run(SWAP_RATE, &stop));
                    let out = run_phase(conns, wl, spec);
                    stop.store(true, Ordering::Relaxed);
                    w.join()
                        .map_err(|_| "writer thread panicked".to_string())??;
                    Ok::<_, String>(out)
                })?
            }
            _ => run_phase(conns, wl, spec),
        };
        self.phases.push(Phase {
            label: label.to_string(),
            spec,
            out,
        });
        Ok(self.phases.len() - 1)
    }

    /// Every round of the phases labelled `label`, pooled.
    fn pooled(&self, label: &str) -> Summary {
        let phases: Vec<&Phase> = self.phases.iter().filter(|p| p.label == label).collect();
        Summary::of(&phases)
    }

    /// The highest offered rate that meets the SLO, by a fixed log-scale
    /// bisection: between the `high` rate and 8× it when the pooled `high`
    /// rounds met the SLO, else between the `low` and `high` rates when
    /// the `low` rounds did. When neither did, the search reports the
    /// `low` rate.
    fn slo_search(
        &mut self,
        low_met: bool,
        high_met: bool,
        seconds_each: f64,
    ) -> Result<f64, String> {
        let (low, high) = (self.wl.params.low_rate, self.wl.params.high_rate);
        let (mut lo, mut hi) = if high_met {
            (high, 8.0 * high)
        } else if low_met {
            (low, high)
        } else {
            println!(
                "# slo: the low rate misses the {SLO_P99_MS} ms limit; reporting the low rate"
            );
            return Ok(low);
        };
        for i in 0..SLO_PROBES {
            let mid = (lo * hi).sqrt();
            let abort = ((mid / 2.0 * SLO_P99_MS * 4.0 / 1e3) as usize).clamp(32, MAX_BACKLOG);
            // A miss is probed once more before it counts: one stall of
            // the machine should not send the bisection down a branch.
            let mut met = false;
            for attempt in ["", "-again"] {
                let at = self.phase(
                    &format!("probe{i}{attempt}"),
                    mid,
                    seconds_each,
                    false,
                    abort,
                )?;
                let p = &self.phases[at];
                met = meets_slo(&[p], &p.summary());
                if met {
                    break;
                }
            }
            if met {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Audits every phase's answers against BFS.
    fn audit(&self) -> Audit {
        let recs: Vec<(u64, &[ReqRec])> = self
            .phases
            .iter()
            .map(|p| (p.spec.seed, p.out.recs.as_slice()))
            .collect();
        let log = self
            .writer
            .as_ref()
            .map(|w| w.log.clone())
            .unwrap_or_default();
        audit(self.wl, &recs, &log, 1)
    }

    fn totals(&self) -> (u64, u64, BTreeMap<Status, u64>) {
        let (mut attempted, mut failed) = (0, 0);
        let mut by_status = BTreeMap::new();
        for p in &self.phases {
            let s = p.summary();
            attempted += s.attempted;
            failed += s.failed();
            for (k, v) in s.failures {
                *by_status.entry(k).or_insert(0) += v;
            }
        }
        (attempted, failed, by_status)
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let params = *WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or(format!(
            "unknown workload `{}` (want one of: {})",
            args.workload,
            WORKLOADS.map(|w| w.name).join(", ")
        ))?;
    if params.writer && SWAP_RATE * max_writer_seconds(&args) > MAX_SWAPS as f64 {
        return Err(format!(
            "--seconds {} would let the writer make more than {MAX_SWAPS} swaps at {SWAP_RATE}/s and thin the served graph too far",
            args.seconds
        ));
    }
    let wl = Workload::new(params, args.seed)?;
    print_conditions(&args, &wl);

    // Set-up, several times; the last one serves.
    let mut setup_spans = SpanLog::default();
    let mut setup_ns: Vec<f64> = Vec::new();
    let mut served: Option<Served> = None;
    let mut first_layers = None;
    for i in 0..SETUPS {
        if let Some(prev) = served.take() {
            prev.handle.shutdown();
        }
        let s = setup(&wl, i as u64, &mut setup_spans)?;
        setup_ns.push(s.layers.total_ns as f64);
        first_layers.get_or_insert_with(|| s.layers.clone());
        served = Some(s);
    }
    let mut served = served.ok_or("no set-up ran")?;
    let first_layers = first_layers.ok_or("no set-up ran")?;
    let addr = served.handle.local_addr();
    let conns = [
        connect(addr).map_err(|e| format!("connect: {e}"))?,
        connect(addr).map_err(|e| format!("connect: {e}"))?,
    ];
    let writer = served
        .live
        .take()
        .map(|live| Writer::new(live, wl.removal_order(true)));
    let mut bench = Bench {
        wl: &wl,
        served,
        conns,
        writer,
        phases: Vec::new(),
    };
    let (low, high) = (params.low_rate, params.high_rate);
    bench.phase("warmup", low, WARMUP_S, false, MAX_BACKLOG)?;
    // Peak memory of set-up and serving, read before the timed rounds:
    // those keep one client record per request and run throwaway set-ups.
    let hwm = rss_mb("VmHWM");

    let mut report = Report::default();
    let ok = if args.trace {
        traced_run(&args, &mut bench, &setup_spans, &first_layers, &mut report)?
    } else {
        // Workloads without a concurrent writer measure the same write
        // path alone, between rounds, on a store that is not served.
        let mut probe = match bench.writer {
            Some(_) => None,
            None => {
                let live = LiveStore::new(
                    &wl.graph,
                    params.f,
                    ftl_seeded::Seed::new(wl.seed),
                    EngineConfig::default(),
                )
                .map_err(|e| format!("writer probe: {e}"))?;
                Some(Writer::new(live, wl.removal_order(false)))
            }
        };
        let segment = args.seconds / 3.0 / ROUNDS as f64;
        // Churn's swaps count only during the fixed-rate rounds, not under
        // the probes, whose rates depend on how the search went.
        let swaps_from = bench.writer.as_ref().map_or(0, |w| w.swaps.len());
        for round in 0..ROUNDS {
            bench.phase("low", low, segment, false, MAX_BACKLOG)?;
            bench.phase("high", high, segment, false, MAX_BACKLOG)?;
            for i in 0..SETUPS_PER_ROUND {
                let s = setup(
                    &wl,
                    (SETUPS + round * SETUPS_PER_ROUND + i) as u64,
                    &mut setup_spans,
                )?;
                setup_ns.push(s.layers.total_ns as f64);
                s.handle.shutdown();
            }
            if let Some(probe) = probe.as_mut() {
                for _ in 0..PROBE_SWAPS / ROUNDS {
                    if !probe.swap()? {
                        break;
                    }
                }
            }
        }
        let swaps_to = bench.writer.as_ref().map_or(0, |w| w.swaps.len());
        let (low_sum, high_sum) = (bench.pooled("low"), bench.pooled("high"));
        let met = |label: &str, s: &Summary| {
            let phases: Vec<&Phase> = bench.phases.iter().filter(|p| p.label == label).collect();
            meets_slo(&phases, s)
        };
        let (low_met, high_met) = (met("low", &low_sum), met("high", &high_sum));
        let slo_rate =
            bench.slo_search(low_met, high_met, args.seconds / 3.0 / SLO_PROBES as f64)?;
        let swaps = match (&probe, &bench.writer) {
            (Some(p), _) => &p.swaps[..],
            (None, Some(w)) => &w.swaps[swaps_from..swaps_to],
            (None, None) => &[],
        };
        end_to_end(
            &bench,
            &setup_ns,
            hwm,
            slo_rate,
            &low_sum,
            &high_sum,
            swaps,
            &first_layers,
            &mut report,
        )?
    };
    let (attempted, failed, _) = bench.totals();
    // Every set-up's first answer was an attempt too (and had to be right).
    let attempted = attempted + setup_ns.len() as u64;
    bench.served.handle.shutdown();
    report.print();
    println!("{}", report.json(ok && failed == 0, attempted, failed)?);
    Ok(ok)
}

/// The longest time the concurrent writer can run: the warm-up, then
/// either the traced run's two phases, or the fixed-rate rounds and every
/// `slo_qps` probe run twice.
fn max_writer_seconds(args: &Args) -> f64 {
    let timed = if args.trace {
        args.seconds / 2.0
    } else {
        // Rounds: 2 × ROUNDS segments of seconds / 3 / ROUNDS. Probes:
        // SLO_PROBES × 2 of seconds / 3 / SLO_PROBES.
        4.0 * args.seconds / 3.0
    };
    WARMUP_S + timed
}

fn print_conditions(args: &Args, wl: &Workload) {
    let p = &wl.params;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# ftl-perfbench: workload {} seed {} seconds {} trace {}",
        p.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc {nproc}; rustc {}; commit {}",
        args.rustc, args.commit
    );
    println!(
        "# graph {} (n={}, m={}); labels for f={}; {} fault sets of {} edges ({} distinct, {}); {QUERIES_PER_REQUEST} queries/request",
        p.graph,
        wl.graph.num_vertices(),
        wl.graph.num_edges(),
        p.f,
        wl.vocab.sets.len(),
        p.set_size,
        wl.vocab.distinct(),
        if p.fresh { "walked in a seeded order" } else { "drawn uniformly" },
    );
    let swaps = if p.writer { SWAP_RATE } else { 0.0 };
    println!(
        "# rates: low {} req/s, high {} req/s, swaps {swaps} /s; client: 2 connections, 2 threads, open loop, fixed spacing",
        p.low_rate, p.high_rate
    );
    println!("# server config {:?}", ServerConfig::default());
    println!("# engine config {:?}", EngineConfig::default());
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    bench: &Bench<'_>,
    setup_ns: &[f64],
    hwm_mb: f64,
    slo_rate: f64,
    low: &Summary,
    high: &Summary,
    swaps: &[Swap],
    layers: &workload::SetupLayers,
    report: &mut Report,
) -> Result<bool, String> {
    let wl = bench.wl;
    println!("# phase          rate/s      n     p50_ms  p99_ms(win) p99_ms(all)  lag_p50_ms  lag_p99_ms  lag_max_ms  backlog  valid  slo  steal%");
    for p in &bench.phases {
        let s = p.summary();
        println!(
            "# {:<10} {:>10.1} {:>6} {:>10.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>8} {:>6} {:>4} {:>7.2}",
            p.label,
            p.spec.rate,
            s.latencies_ms.len(),
            s.p50_ms,
            s.p99_ms,
            s.p99_all_ms,
            s.lag_p50_ms,
            s.lag_p99_ms,
            s.lag_max_ms,
            p.out.backlog_end,
            if s.valid() { "yes" } else { "NO" },
            if meets_slo(&[p], &s) { "met" } else { "miss" },
            100.0 * p.out.steal,
        );
    }
    // Swap percentiles are taken over all swaps of the rounds, not per
    // round: a swap's cost depends on the edge it removes, and a hundred
    // per round are too few for a steady per-round figure.
    let mut swap_ms: Vec<f64> = swaps
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    swap_ms.sort_by(f64::total_cmp);
    let q = |p| stats::nearest_rank(&swap_ms, p).unwrap_or(0.0);
    println!(
        "# swaps: {} ({}), p50 {:.4} p90 {:.4} p99 {:.4} max {:.4} ms",
        swap_ms.len(),
        if wl.params.writer {
            "under read load"
        } else {
            "writer alone, between rounds"
        },
        q(0.5),
        q(0.9),
        q(0.99),
        q(1.0)
    );
    let mut held = true;
    for (label, s) in [("low (all)", low), ("high (all)", high)] {
        println!(
            "# {:<10} {:>10} {:>6} {:>10.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4}          {:>6}   (valid rounds {} of {}; p99 over {} windows)",
            label,
            "",
            s.latencies_ms.len(),
            s.p50_ms,
            s.p99_ms,
            s.p99_all_ms,
            s.lag_p50_ms,
            s.lag_p99_ms,
            s.lag_max_ms,
            if s.valid() { "yes" } else { "NO" },
            s.valid_rounds,
            s.rounds,
            s.p99_windows
        );
        if !s.valid() {
            println!(
                "# INVALID: the generator fell behind the {label} schedule in {} of {} rounds, so those figures measure the client, not the server",
                s.rounds - s.valid_rounds,
                s.rounds
            );
            held = false;
        }
    }
    let a = bench.audit();
    let correct = print_audit(&a) && held;
    let (attempted, failed, by_status) = bench.totals();
    print_failures(bench, attempted, failed, &by_status);

    report.put(
        "setup_s",
        median(setup_ns).unwrap_or(0.0) / 1e9,
        "s",
        Some(setup_ns.len()),
    );
    report.put("rss_mb", hwm_mb, "MiB", None);
    report.put(
        "label_bits",
        layers.vertex_label_bits.max(layers.edge_label_bits) as f64,
        "bits",
        None,
    );
    report.put("p50_ms.low", low.p50_ms, "ms", Some(low.latencies_ms.len()));
    report.put("p90_ms.low", low.p90_ms, "ms", Some(low.latencies_ms.len()));
    report.put(
        "p50_ms.high",
        high.p50_ms,
        "ms",
        Some(high.latencies_ms.len()),
    );
    report.put(
        "p90_ms.high",
        high.p90_ms,
        "ms",
        Some(high.latencies_ms.len()),
    );
    report.put("swap_p50_ms", q(0.5), "ms", Some(swap_ms.len()));
    report.note("p99_ms.low", low.p99_ms, "ms", Some(low.p99_windows));
    report.note("p99_ms.high", high.p99_ms, "ms", Some(high.p99_windows));
    report.note(
        "slo_qps",
        slo_rate * QUERIES_PER_REQUEST as f64,
        "queries/s",
        None,
    );
    report.note("swap_p90_ms", q(0.9), "ms", Some(swap_ms.len()));
    report.note("swap_p99_ms", q(0.99), "ms", Some(swap_ms.len()));
    println!(
        "# fail_frac {:.6} ratio ({failed} of {attempted} requests; not in the JSON: it is 0 on a healthy run)",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(correct)
}

fn print_audit(a: &Audit) -> bool {
    println!(
        "# audit: {} queries, {} truly disconnected ({:.4}), false connected {}, false disconnected {}, unknown epoch {}",
        a.queries,
        a.disconnected,
        a.disconnected as f64 / a.queries.max(1) as f64,
        a.false_connected,
        a.false_disconnected,
        a.unknown_epoch
    );
    let ok = a.false_connected == 0
        && a.false_disconnected == 0
        && a.unknown_epoch == 0
        && a.queries > 0;
    if !ok {
        println!("# AUDIT FAILED");
    }
    ok
}

fn print_failures(
    bench: &Bench<'_>,
    attempted: u64,
    failed: u64,
    by_status: &BTreeMap<Status, u64>,
) {
    let stats = bench.served.handle.stats();
    let parts: Vec<String> = Status::ALL
        .iter()
        .filter(|s| !matches!(s, Status::Ok | Status::Skipped))
        .map(|s| format!("{} {}", s.name(), by_status.get(s).copied().unwrap_or(0)))
        .collect();
    println!(
        "# client: {attempted} requests attempted, {failed} failed: {}",
        parts.join(", ")
    );
    println!(
        "# server: rejects {} + watchdog_fires {} + deadline_drops {} = {} (engine_errors {}, slow_client_drops {})",
        stats.rejects,
        stats.watchdog_fires,
        stats.deadline_drops,
        stats.rejects + stats.watchdog_fires + stats.deadline_drops,
        stats.engine_errors,
        stats.slow_client_drops
    );
}

/// The traced run: untraced and traced phases at the `low` rate (their
/// p50 difference is the tracing overhead), the server's breakdown over
/// the traced phase, an in-process engine replay, and the span file.
fn traced_run(
    args: &Args,
    bench: &mut Bench<'_>,
    setup_spans: &SpanLog,
    first: &workload::SetupLayers,
    report: &mut Report,
) -> Result<bool, String> {
    let wl = bench.wl;
    let low = wl.params.low_rate;
    let quarter = args.seconds / 4.0;
    let plain_at = bench.phase("low", low, quarter, false, MAX_BACKLOG)?;
    let before = snapshot(&bench.served.handle)?;
    let swaps_before = bench.writer.as_ref().map_or(0, |w| w.swaps.len());
    // `engine.epoch.lag_max` covers the traced phase only.
    if let Some(w) = bench.writer.as_mut() {
        w.lag_max = ftl_obs::global().epoch.lag();
    }
    let traced_at = bench.phase("low-traced", low, quarter, true, MAX_BACKLOG)?;
    let after = snapshot(&bench.served.handle)?;
    let iv = Interval::between(&before, &after)?;
    let plain = bench.phases[plain_at].summary();
    let traced = bench.phases[traced_at].summary();

    // Spans: set-up, every request of the traced phase, every swap.
    let mut spans = SpanLog::with_capacity(bench.phases[traced_at].out.recs.len() * 5 + 64);
    spans.absorb(request_spans(&bench.phases[traced_at]));
    if let Some(w) = bench.writer.as_ref() {
        let mut log = SpanLog::default();
        for (i, s) in w.swaps[swaps_before..].iter().enumerate() {
            log.record(0, i as u64, "swap", s.start_ns, s.end_ns);
        }
        spans.absorb(log);
    }
    let mut all = setup_spans.clone();
    all.absorb(spans);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("out dir: {e}"))?;
    let path = args.out_dir.join(format!("spans-{}.jsonl", wl.params.name));
    let file = std::fs::File::create(&path).map_err(|e| format!("span file: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    all.write_jsonl(&mut w)
        .map_err(|e| format!("span file: {e}"))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("span file: {e}"))?;
    println!(
        "# spans: {} written to {}",
        all.spans().len(),
        path.display()
    );

    print_self_times(&all);
    print_stage_table(&iv);

    // The engine's floor: the traced phase's requests regrouped into
    // windows and replayed in-process.
    let (replay_us_per_group, replay_ns_per_query, replay_ok) = replay(bench, traced_at)?;

    // Churn serves a live store; its freeze is measured once more here,
    // from outside the set-up, on the current labels.
    let mut store_layers = first.clone();
    if let Some(w) = bench.writer.as_ref() {
        let rss0 = rss_mb("VmRSS");
        let t0 = now_ns();
        let store = ftl_engine::full_store_of(w.live.live(), &EngineConfig::default())
            .map_err(|e| format!("freeze: {e}"))?;
        store_layers.freeze_ns = now_ns() - t0;
        store_layers.rss_delta_mb = rss_mb("VmRSS") - rss0;
        workload::describe_store(&store, &mut store_layers);
    }

    let a = bench.audit();
    let correct = print_audit(&a) && replay_ok;
    let (attempted, failed, by_status) = bench.totals();
    print_failures(bench, attempted, failed, &by_status);

    let label_ms: Vec<f64> = setup_spans
        .spans()
        .iter()
        .filter(|s| s.name == "label")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    report.put(
        "cycle_space.label_ms",
        median(&label_ms).unwrap_or(0.0),
        "ms",
        Some(label_ms.len()),
    );
    report.put(
        "cycle_space.vertex_label_bits",
        first.vertex_label_bits as f64,
        "bits",
        None,
    );
    report.put(
        "cycle_space.edge_label_bits",
        first.edge_label_bits as f64,
        "bits",
        None,
    );
    let freeze_ms: Vec<f64> = setup_spans
        .spans()
        .iter()
        .filter(|s| s.name == "freeze")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let freeze_ms = median(&freeze_ms).unwrap_or(store_layers.freeze_ns as f64 / 1e6);
    report.put("engine.store.freeze_ms", freeze_ms, "ms", None);
    report.put(
        "engine.store.wire_bytes",
        store_layers.wire_bytes as f64,
        "bytes",
        None,
    );
    report.put(
        "engine.store.records",
        store_layers.records as f64,
        "count",
        None,
    );
    report.put(
        "engine.store.rss_delta_mb",
        store_layers.rss_delta_mb,
        "MiB",
        None,
    );

    let windows = iv.counter("ftl_server_batches_total");
    let groups = iv.counter("ftl_server_groups_total");
    let requests = iv.counter("ftl_server_requests_total");
    let queries = iv.counter("ftl_server_queries_total");
    report.put("server.windows", windows, "count", None);
    report.put("server.groups", groups, "count", None);
    report.put(
        "server.requests_per_group",
        requests / groups.max(1.0),
        "ratio",
        None,
    );
    report.put(
        "server.queries_per_window",
        queries / windows.max(1.0),
        "ratio",
        None,
    );
    let us = |stage: &str, p: f64| bucket_percentile(&iv.stage(stage), p).unwrap_or(0) as f64 / 1e3;
    report.put(
        "server.stage.window_wait.p50_us",
        us("window_wait", 0.5),
        "us",
        None,
    );
    report.put(
        "server.stage.window_wait.p99_us",
        us("window_wait", 0.99),
        "us",
        None,
    );
    for stage in ["frame_read", "admission", "response_write"] {
        report.put(
            &format!("server.stage.{stage}.count"),
            bucket_count(&iv.stage(stage)) as f64,
            "count",
            None,
        );
        report.put(
            &format!("server.stage.{stage}.p50_us"),
            us(stage, 0.5),
            "us",
            None,
        );
        report.put(
            &format!("server.stage.{stage}.p99_us"),
            us(stage, 0.99),
            "us",
            None,
        );
        report.put(
            &format!("server.stage.{stage}.sum_ms"),
            iv.counter(&format!("stage.{stage}.sum_ns")) / 1e6,
            "ms",
            None,
        );
    }
    report.put(
        "server.rejects",
        iv.counter("ftl_server_rejects_total"),
        "count",
        None,
    );
    report.put(
        "server.watchdog_fires",
        iv.counter("ftl_server_watchdog_fires_total"),
        "count",
        None,
    );
    report.put(
        "server.deadline_drops",
        iv.counter("ftl_server_deadline_drops_total"),
        "count",
        None,
    );
    report.put(
        "server.slow_client_drops",
        iv.counter("ftl_server_slow_client_drops_total"),
        "count",
        None,
    );
    let elim = iv.counter("ftl_engine_eliminations_total");
    let hits = iv.counter("ftl_engine_cache_hits_total");
    report.put("engine.eliminations", elim, "count", None);
    report.put("engine.cache_hits", hits, "count", None);
    report.put(
        "engine.cache_hit_ratio",
        hits / (hits + elim).max(1.0),
        "ratio",
        None,
    );
    report.put(
        "engine.sidecar_fallbacks",
        iv.counter("ftl_engine_sidecar_fallbacks_total"),
        "count",
        None,
    );
    for stage in ["elimination", "answer"] {
        report.put(
            &format!("server.stage.{stage}.p50_us"),
            us(stage, 0.5),
            "us",
            None,
        );
        report.put(
            &format!("server.stage.{stage}.p99_us"),
            us(stage, 0.99),
            "us",
            None,
        );
    }
    report.put(
        "engine.replay.us_per_group",
        replay_us_per_group,
        "us",
        None,
    );
    report.put(
        "engine.replay.ns_per_query",
        replay_ns_per_query,
        "ns",
        None,
    );
    report.put(
        "engine.epoch.delta_swaps",
        iv.counter("ftl_epoch_delta_swaps_total"),
        "count",
        None,
    );
    report.put(
        "engine.epoch.rebuild_swaps",
        iv.counter("ftl_epoch_full_rebuilds_total"),
        "count",
        None,
    );
    report.put(
        "live.relabels",
        iv.counter("ftl_live_relabels_total"),
        "count",
        None,
    );
    let lag_max = bench
        .writer
        .as_ref()
        .map_or(0, |w| w.lag_max.max(ftl_obs::global().epoch.lag()));
    report.put("engine.epoch.lag_max", lag_max as f64, "count", None);

    let t = &bench.phases[traced_at];
    let span_us = |f: &dyn Fn(&ReqRec) -> u64| {
        let v: Vec<f64> = t
            .out
            .recs
            .iter()
            .filter(|r| r.status == Status::Ok)
            .map(|r| f(r) as f64 / 1e3)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    report.put(
        "client.encode_us",
        span_us(&|r| r.encoded_ns - r.sent_ns),
        "us",
        None,
    );
    report.put(
        "client.write_us",
        span_us(&|r| r.written_ns - r.encoded_ns),
        "us",
        None,
    );
    report.put(
        "client.wait_us",
        span_us(&|r| r.recv_ns.saturating_sub(r.written_ns)),
        "us",
        None,
    );
    report.put(
        "client.decode_us",
        span_us(&|r| r.done_ns - r.recv_ns),
        "us",
        None,
    );
    report.put("client.gen_lag_ms.p99", traced.lag_p99_ms, "ms", None);
    report.put("client.gen_lag_ms.max", traced.lag_max_ms, "ms", None);
    report.put(
        "client.backlog_end",
        t.out.backlog_end as f64,
        "count",
        None,
    );
    report.put("audit.queries", a.queries as f64, "count", None);
    report.put(
        "audit.disconnected_frac",
        a.disconnected as f64 / a.queries.max(1) as f64,
        "ratio",
        None,
    );
    report.put(
        "trace.overhead_ms",
        traced.p50_ms - plain.p50_ms,
        "ms",
        None,
    );
    println!(
        "# tracing overhead: p50_ms.low traced {:.4} - untraced {:.4} = {:.4} ms",
        traced.p50_ms,
        plain.p50_ms,
        traced.p50_ms - plain.p50_ms
    );
    Ok(correct)
}

/// The traced phase's request spans: a `request` root from due time to
/// decoded answer, with `encode`, `write`, `wait` and `decode` children.
fn request_spans(p: &Phase) -> SpanLog {
    let mut log = SpanLog::with_capacity(p.out.recs.len() * 5);
    for (k, r) in p
        .out
        .recs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.status == Status::Ok)
    {
        let id = u64::from(p.spec.tag) << 32 | k as u64;
        let root = log.record(0, id, "request", r.due_ns, r.done_ns);
        log.record(root, id, "encode", r.sent_ns, r.encoded_ns);
        log.record(root, id, "write", r.encoded_ns, r.written_ns);
        log.record(root, id, "wait", r.written_ns, r.recv_ns);
        log.record(root, id, "decode", r.recv_ns, r.done_ns);
    }
    log
}

fn print_self_times(spans: &SpanLog) {
    println!("# span self time        count     p50_us      p99_us    total_ms");
    for (name, v) in self_times(spans.spans()) {
        let us: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e3).collect();
        println!(
            "# {:<18} {:>10} {:>10.3} {:>11.3} {:>11.3}",
            name,
            us.len(),
            percentile(&us, 0.5).unwrap_or(0.0),
            percentile(&us, 0.99).unwrap_or(0.0),
            us.iter().sum::<f64>() / 1e3
        );
    }
}

fn print_stage_table(iv: &Interval) {
    println!("# server stage (same interval)  count     p50_us      p99_us    sum_ms");
    for stage in ftl_obs::Stage::ALL {
        let b = iv.stage(stage.name());
        println!(
            "# {:<26} {:>9} {:>10.3} {:>11.3} {:>9.3}",
            stage.name(),
            bucket_count(&b),
            bucket_percentile(&b, 0.5).unwrap_or(0) as f64 / 1e3,
            bucket_percentile(&b, 0.99).unwrap_or(0) as f64 / 1e3,
            iv.counter(&format!("stage.{}.sum_ns", stage.name())) / 1e6
        );
    }
}

/// Replays a phase's answered requests through a fresh serial
/// `Engine::execute_grouped`, grouped as the server would group them:
/// by fault set within each default-length accumulation window of due
/// times. Returns µs per group, ns per query, and whether the replay
/// agreed with every served answer (not checked for churn, whose epochs
/// have moved on since).
fn replay(bench: &Bench<'_>, at: usize) -> Result<(f64, f64, bool), String> {
    let wl = bench.wl;
    let p = &bench.phases[at];
    let window_ns = ServerConfig::default().window.as_nanos() as u64;
    let mut windows: BTreeMap<u64, BTreeMap<u32, (FaultSetBatch, Vec<usize>)>> = BTreeMap::new();
    for (k, r) in p
        .out
        .recs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.status == Status::Ok)
    {
        let (set, queries) = wl.request(p.spec.seed, k as u64);
        let w = windows
            .entry((r.due_ns - p.out.start_ns) / window_ns)
            .or_default();
        let (batch, members) = w.entry(set).or_insert_with(|| {
            (
                FaultSetBatch {
                    faults: wl.vocab.sets[set as usize].clone(),
                    queries: Vec::new(),
                },
                Vec::new(),
            )
        });
        batch.queries.extend(queries);
        members.push(k);
    }
    let mut engine = Engine::over_epochs(Arc::clone(&bench.served.epochs), EngineConfig::default());
    let check = bench.writer.is_none();
    let (mut total_ns, mut groups, mut queries) = (0u64, 0u64, 0u64);
    let mut agree = true;
    for window in windows.values() {
        let batches: Vec<FaultSetBatch> = window.values().map(|(b, _)| b.clone()).collect();
        let t0 = now_ns();
        let resp = std::hint::black_box(engine.execute_grouped(std::hint::black_box(&batches)));
        total_ns += now_ns() - t0;
        groups += batches.len() as u64;
        queries += batches.iter().map(|b| b.queries.len() as u64).sum::<u64>();
        if !check {
            continue;
        }
        for ((_, members), result) in window.values().zip(&resp.groups) {
            let Ok(answers) = result else {
                agree = false;
                continue;
            };
            for (j, &k) in members.iter().enumerate() {
                let bits = p.out.recs[k].answers;
                for i in 0..QUERIES_PER_REQUEST {
                    let got = answers
                        .get(j * QUERIES_PER_REQUEST + i)
                        .and_then(|r| r.as_ref().ok())
                        .map(|q| q.connected);
                    if got != Some(bits >> i & 1 == 1) {
                        agree = false;
                    }
                }
            }
        }
    }
    if !agree {
        println!("# REPLAY DISAGREED with served answers");
    }
    println!(
        "# replay: {groups} groups, {queries} queries, {:.3} ms in the engine",
        total_ns as f64 / 1e6
    );
    Ok((
        total_ns as f64 / 1e3 / groups.max(1) as f64,
        total_ns as f64 / queries.max(1) as f64,
        agree,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round of `n` answered requests, each sent `lag_ms` late and
    /// answered `lat_ms` after it was due.
    fn round(n: u64, lag_ms: f64, lat_ms: f64) -> Phase {
        let recs = (0..n)
            .map(|k| {
                let due_ns = 1_000_000 + k * 100_000;
                ReqRec {
                    due_ns,
                    sent_ns: due_ns + (lag_ms * 1e6) as u64,
                    encoded_ns: 0,
                    written_ns: 0,
                    recv_ns: 0,
                    done_ns: due_ns + (lat_ms * 1e6) as u64,
                    epoch: 1,
                    answers: 0,
                    status: Status::Ok,
                }
            })
            .collect();
        Phase {
            label: "low".into(),
            spec: PhaseSpec {
                tag: 1,
                seed: 0,
                rate: 10_000.0,
                seconds: 1.0,
                traced: false,
                abort_backlog: MAX_BACKLOG,
            },
            out: PhaseOut {
                recs,
                backlog_end: 0,
                aborted: false,
                start_ns: 0,
                steal: 0.0,
            },
        }
    }

    #[test]
    fn rounds_the_generator_could_not_hold_are_left_out() {
        let (ok, late) = (round(100, 0.01, 1.0), round(100, 3.0, 9.0));
        let s = Summary::of(&[&ok, &late]);
        assert_eq!((s.rounds, s.valid_rounds), (2, 1));
        assert!(s.valid(), "half the rounds held the schedule");
        assert_eq!(s.p50_ms, 1.0, "the late round's latencies do not count");
        assert_eq!(s.latencies_ms.len(), 100);
        assert_eq!(s.attempted, 200, "but its requests were attempted");
        assert!(s.lag_max_ms >= 3.0, "and its lateness is reported");

        let late2 = round(100, 3.0, 9.0);
        let s = Summary::of(&[&ok, &late, &late2]);
        assert!(!s.valid(), "most rounds fell behind");
        assert_eq!(s.p50_ms, 1.0);
        let s = Summary::of(&[&late]);
        assert!(!s.valid());
        assert_eq!(s.p50_ms, 9.0, "with no valid round all are summarised");
    }
}
