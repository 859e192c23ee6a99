//! Workloads: the graph, the fault-set vocabulary, the request stream,
//! the set-up pipeline that serves them, and the BFS audit.

use crate::load::{now_ns, one_request, ReqRec, Status};
use crate::trace::SpanLog;
use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EngineConfig, EpochStore, LabelStore, LiveStore};
use ftl_graph::traversal::{connected_components, forbidden_mask};
use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_labels::AncestryLabel;
use ftl_seeded::{splitmix64, Seed};
use ftl_server::{derive_fault_sets, parse_graph_spec, QueryRequestFrame, ResponseStatus};
use ftl_server::{Server, ServerConfig, ServerHandle};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Queries carried by every request.
pub const QUERIES_PER_REQUEST: usize = 16;

/// Swaps per second published by the concurrent writer of `churn`.
pub const SWAP_RATE: f64 = 16.0;

/// A workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Topology spec (`ftl_server::parse_graph_spec`).
    pub graph: &'static str,
    /// Fault budget the labels are built for.
    pub f: usize,
    /// Distinct fault sets in the vocabulary.
    pub sets: usize,
    /// Edges per fault set.
    pub set_size: usize,
    /// Fresh faults: half the sets isolate a vertex (see [`Vocab`]), and
    /// requests walk the vocabulary in a seeded order, so no set repeats
    /// within one pass and the elimination cache never hits. Otherwise
    /// requests draw sets uniformly from a small shared vocabulary.
    pub fresh: bool,
    /// A writer removes edges from the served store during the read
    /// phases, at [`SWAP_RATE`].
    pub writer: bool,
    /// The fixed `low` rate, requests/s: about 20 % of the workload's
    /// capacity (its median `slo_qps` on a 2-vCPU virtual machine), so
    /// lightly loaded. `churn` uses the rates of `shared-faults`, whose
    /// read load it carries.
    pub low_rate: f64,
    /// The fixed `high` rate, requests/s: about 70 % of that capacity,
    /// the queueing regime, below saturation.
    pub high_rate: f64,
}

/// Every workload of the benchmark.
pub const WORKLOADS: [Params; 3] = [
    Params {
        name: "shared-faults",
        graph: "er:1024:8",
        f: 8,
        sets: 8,
        set_size: 8,
        fresh: false,
        writer: false,
        low_rate: 9_000.0,
        high_rate: 32_000.0,
    },
    Params {
        name: "fresh-faults",
        graph: "grid:64x64",
        f: 32,
        sets: 4096,
        set_size: 32,
        fresh: true,
        writer: false,
        low_rate: 6_500.0,
        high_rate: 23_000.0,
    },
    Params {
        name: "churn",
        graph: "er:1024:8",
        f: 8,
        sets: 8,
        set_size: 8,
        fresh: false,
        writer: true,
        low_rate: 9_000.0,
        high_rate: 32_000.0,
    },
];

/// The fault-set vocabulary requests draw from.
#[derive(Debug, Clone)]
pub struct Vocab {
    /// Fault sets, each sorted.
    pub sets: Vec<Vec<EdgeId>>,
    /// For a set that contains every edge around one vertex: that vertex.
    pub isolated: Vec<Option<VertexId>>,
}

impl Vocab {
    /// Builds the vocabulary for `p` over `g`, deterministically in `seed`.
    pub fn new(p: &Params, g: &Graph, seed: u64) -> Self {
        if !p.fresh {
            let mut sets = derive_fault_sets(g, p.sets, p.set_size, seed);
            sets.iter_mut().for_each(|s| s.sort_unstable());
            return Vocab {
                isolated: vec![None; sets.len()],
                sets,
            };
        }
        let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
        let mut state = splitmix64(seed ^ 0x1501_A7ED);
        let mut draw = |bound: u64| {
            state = splitmix64(state);
            state % bound
        };
        let mut seen = BTreeSet::new();
        let (mut sets, mut isolated) = (Vec::new(), Vec::new());
        while sets.len() < p.sets {
            // Even slots isolate a vertex: every edge around it, topped up
            // with random edges. Odd slots are random edges only.
            let centre = (sets.len() % 2 == 0).then(|| VertexId::new(draw(n) as usize));
            let mut set: BTreeSet<EdgeId> = centre
                .map(|v| g.neighbors(v).iter().map(|nb| nb.edge).collect())
                .unwrap_or_default();
            while set.len() < p.set_size.min(g.num_edges()) {
                set.insert(EdgeId::new(draw(m) as usize));
            }
            let set: Vec<EdgeId> = set.into_iter().collect();
            if seen.insert(set.clone()) {
                sets.push(set);
                isolated.push(centre);
            }
        }
        Vocab { sets, isolated }
    }

    /// Number of distinct sets.
    pub fn distinct(&self) -> usize {
        self.sets.iter().collect::<BTreeSet<_>>().len()
    }
}

/// A workload bound to a seed: graph, vocabulary, request stream.
#[derive(Debug)]
pub struct Workload {
    /// Fixed parameters.
    pub params: Params,
    /// The workload seed from the command line.
    pub seed: u64,
    /// The topology.
    pub graph: Graph,
    /// The fault-set vocabulary.
    pub vocab: Vocab,
}

impl Workload {
    /// Builds the workload's inputs from its seed.
    pub fn new(params: Params, seed: u64) -> Result<Self, String> {
        let graph = parse_graph_spec(params.graph, seed)?;
        let vocab = Vocab::new(&params, &graph, seed);
        Ok(Workload {
            params,
            seed,
            graph,
            vocab,
        })
    }

    /// Request `k` of a phase seeded `phase_seed`: its fault-set index and
    /// its queries. A pure function, so the audit regenerates it instead
    /// of the client storing it.
    pub fn request(&self, phase_seed: u64, k: u64) -> (u32, Vec<(VertexId, VertexId)>) {
        let n = self.graph.num_vertices() as u64;
        let sets = self.vocab.sets.len() as u64;
        let mut state = splitmix64(phase_seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut draw = |bound: u64| {
            state = splitmix64(state);
            state % bound
        };
        let set = if self.params.fresh {
            // An odd stride visits every residue once per `sets`
            // consecutive requests when `sets` is a power of two.
            k.wrapping_mul(0x9E37_79B1).wrapping_add(phase_seed) % sets
        } else {
            draw(sets)
        };
        let centre = self.vocab.isolated[set as usize];
        let queries = (0..QUERIES_PER_REQUEST)
            .map(|i| {
                let s = match centre {
                    Some(v) if i % 2 == 0 => v,
                    _ => VertexId::new(draw(n) as usize),
                };
                let mut t = VertexId::new(draw(n) as usize);
                while t == s {
                    t = VertexId::new(draw(n) as usize);
                }
                (s, t)
            })
            .collect();
        (set as u32, queries)
    }

    /// Edges a writer may remove, in a seeded order: for a writer whose
    /// epochs are served (`outside_vocab`), only edges no fault set names.
    pub fn removal_order(&self, outside_vocab: bool) -> Vec<EdgeId> {
        let vocab: BTreeSet<EdgeId> = if outside_vocab {
            self.vocab.sets.iter().flatten().copied().collect()
        } else {
            BTreeSet::new()
        };
        let mut edges: Vec<EdgeId> = (0..self.graph.num_edges())
            .map(EdgeId::new)
            .filter(|e| !vocab.contains(e))
            .collect();
        let mut state = splitmix64(self.seed ^ 0xC4_0412);
        for i in (1..edges.len()).rev() {
            state = splitmix64(state);
            edges.swap(i, (state % (i as u64 + 1)) as usize);
        }
        edges
    }

    /// The request a fresh server must answer to count as set up.
    pub fn first_request(&self) -> QueryRequestFrame {
        let (set, queries) = self.request(self.seed, u64::MAX);
        QueryRequestFrame {
            request_id: 1,
            tenant_id: 0,
            faults: self.vocab.sets[set as usize].clone(),
            queries,
            ttl_ms: 0,
        }
    }
}

/// What one set-up measured, by layer.
#[derive(Debug, Clone, Default)]
pub struct SetupLayers {
    /// Whole set-up, ns: graph to first answer.
    pub total_ns: u64,
    /// Labeling, ns (for churn: `LiveStore::new`, which also freezes the
    /// first snapshot).
    pub label_ns: u64,
    /// Freezing the store, ns.
    pub freeze_ns: u64,
    /// Longest vertex label, bits.
    pub vertex_label_bits: usize,
    /// Longest edge label, bits.
    pub edge_label_bits: usize,
    /// Store bytes (wire arenas).
    pub wire_bytes: usize,
    /// Store records.
    pub records: usize,
    /// Resident-set growth across the freeze, MiB.
    pub rss_delta_mb: f64,
}

/// A served workload: the running server and what it serves.
pub struct Served {
    /// The server.
    pub handle: ServerHandle,
    /// The publication point the server reads from.
    pub epochs: Arc<EpochStore>,
    /// The writer side, for churn.
    pub live: Option<LiveStore>,
    /// What the set-up measured.
    pub layers: SetupLayers,
}

/// Builds graph → labels → frozen store → epoch → server answering its
/// first request, recording a `setup` span with one child per step.
pub fn setup(wl: &Workload, trace: u64, spans: &mut SpanLog) -> Result<Served, String> {
    let t0 = now_ns();
    let graph = parse_graph_spec(wl.params.graph, wl.seed)?;
    let t_graph = now_ns();
    let config = EngineConfig::default();
    let mut layers = SetupLayers::default();
    let (epochs, live, t_label, t_freeze) = if wl.params.writer {
        let live = LiveStore::new(&graph, wl.params.f, Seed::new(wl.seed), config)
            .map_err(|e| format!("live store: {e}"))?;
        let t_label = now_ns();
        let (vb, eb) = live_label_bits(&live);
        layers.vertex_label_bits = vb;
        layers.edge_label_bits = eb;
        (Arc::clone(live.epochs()), Some(live), t_label, None)
    } else {
        let scheme = CycleSpaceScheme::label(&graph, wl.params.f, Seed::new(wl.seed))
            .map_err(|e| format!("labeling: {e}"))?;
        let t_label = now_ns();
        layers.vertex_label_bits = scheme.vertex_label_bits();
        layers.edge_label_bits = scheme.edge_label_bits();
        let rss0 = rss_mb("VmRSS");
        let store = store_from_cycle_space(&scheme, config.num_shards)
            .map_err(|e| format!("freeze: {e}"))?;
        let t_freeze = now_ns();
        layers.rss_delta_mb = rss_mb("VmRSS") - rss0;
        describe_store(&store, &mut layers);
        (
            Arc::new(EpochStore::new(Arc::new(store))),
            None,
            t_label,
            Some(t_freeze),
        )
    };
    let t_built = t_freeze.unwrap_or(t_label);
    let handle = Server::spawn(
        Arc::clone(&epochs),
        config,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("server spawn: {e}"))?;
    let t_spawn = now_ns();
    let first = wl.first_request();
    let resp =
        one_request(handle.local_addr(), &first).map_err(|e| format!("first answer: {e}"))?;
    let t_done = now_ns();
    match resp.status {
        ResponseStatus::Ok(bits) if bits.len() == first.queries.len() => {
            let masked = forbidden_mask(&graph, &first.faults);
            let (comp, _) = connected_components(&graph, &masked);
            for (&(s, t), &got) in first.queries.iter().zip(&bits) {
                if got != (comp[s.index()] == comp[t.index()]) {
                    return Err(format!("first answer wrong for ({s:?}, {t:?})"));
                }
            }
        }
        other => return Err(format!("first answer was {other:?}")),
    }
    layers.total_ns = t_done - t0;
    layers.label_ns = t_label - t_graph;
    layers.freeze_ns = t_freeze.map_or(0, |t| t - t_label);
    let root = spans.record(0, trace, "setup", t0, t_done);
    spans.record(root, trace, "graph", t0, t_graph);
    spans.record(root, trace, "label", t_graph, t_label);
    if let Some(t) = t_freeze {
        spans.record(root, trace, "freeze", t_label, t);
    }
    spans.record(root, trace, "spawn", t_built, t_spawn);
    spans.record(root, trace, "first_answer", t_spawn, t_done);
    Ok(Served {
        handle,
        epochs,
        live,
        layers,
    })
}

/// Fills the store-shape fields of `layers`.
pub fn describe_store(store: &LabelStore, layers: &mut SetupLayers) {
    layers.wire_bytes = store.bytes_total();
    layers.records = store.len();
}

/// Longest vertex and edge label of a live labeling, in bits, by the
/// same accounting as `CycleSpaceScheme::{vertex,edge}_label_bits`.
fn live_label_bits(live: &LiveStore) -> (usize, usize) {
    let l = live.live();
    let max_time = l
        .alive_vertices()
        .map(|v| l.vertex_label(v).anc.post)
        .max()
        .unwrap_or(0);
    let edge = l
        .alive_edges()
        .map(|e| l.edge_label(e).bits(max_time))
        .max()
        .unwrap_or(0);
    (AncestryLabel::bits(max_time), edge)
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MiB; 0 where
/// the file is unavailable.
pub fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The edges each published epoch removed, in publication order.
#[derive(Debug, Default, Clone)]
pub struct EpochLog {
    /// `(epoch number, edge removed by the swap that published it)`.
    pub removals: Vec<(u64, EdgeId)>,
}

/// The audit's findings.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// Answered queries checked.
    pub queries: u64,
    /// Of those, truly disconnected.
    pub disconnected: u64,
    /// Answered "connected" where BFS says disconnected.
    pub false_connected: u64,
    /// Answered "disconnected" where BFS says connected.
    pub false_disconnected: u64,
    /// Answers naming an epoch that was never published.
    pub unknown_epoch: u64,
}

/// Checks every `Ok` answer of every phase against BFS on the topology of
/// the epoch that produced it (`G` minus the edges removed up to that
/// epoch) minus the request's fault set. Runs after the timed phases.
pub fn audit(
    wl: &Workload,
    phases: &[(u64, &[ReqRec])],
    log: &EpochLog,
    first_epoch: u64,
) -> Audit {
    let last_epoch = log.removals.last().map_or(first_epoch, |&(e, _)| e);
    // (epoch, set, phase, k) for every answered request, sorted so each
    // (epoch, set) topology is built once.
    let mut work: Vec<(u64, u32, usize, u64)> = Vec::new();
    let mut out = Audit::default();
    for (pi, &(phase_seed, recs)) in phases.iter().enumerate() {
        for (k, r) in recs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.status == Status::Ok)
        {
            if r.epoch < first_epoch || r.epoch > last_epoch {
                out.unknown_epoch += 1;
                continue;
            }
            let (set, _) = wl.request(phase_seed, k as u64);
            work.push((r.epoch, set, pi, k as u64));
        }
    }
    work.sort_unstable();
    let g = &wl.graph;
    let mut base = vec![false; g.num_edges()];
    let mut applied = 0usize;
    let mut current: Option<(u64, u32)> = None;
    let mut comp: Vec<usize> = Vec::new();
    for (epoch, set, pi, k) in work {
        if current != Some((epoch, set)) {
            while let Some(&(e, edge)) = log.removals.get(applied) {
                if e > epoch {
                    break;
                }
                base[edge.index()] = true;
                applied += 1;
            }
            let mut mask = base.clone();
            for e in &wl.vocab.sets[set as usize] {
                mask[e.index()] = true;
            }
            comp = connected_components(g, &mask).0;
            current = Some((epoch, set));
        }
        let (phase_seed, recs) = phases[pi];
        let (_, queries) = wl.request(phase_seed, k);
        let answers = recs[k as usize].answers;
        for (i, (s, t)) in queries.iter().enumerate() {
            let truth = comp[s.index()] == comp[t.index()];
            let got = answers >> i & 1 == 1;
            out.queries += 1;
            out.disconnected += u64::from(!truth);
            out.false_connected += u64::from(got && !truth);
            out.false_disconnected += u64::from(!got && truth);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(seed: u64) -> Workload {
        let mut p = WORKLOADS[1];
        p.graph = "grid:8x8";
        p.sets = 64;
        p.set_size = 6;
        Workload::new(p, seed).unwrap()
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b) = (fresh(3), fresh(3));
        assert_eq!(a.vocab.sets, b.vocab.sets);
        assert_eq!(a.request(9, 5), b.request(9, 5));
        assert_ne!(a.vocab.sets, fresh(4).vocab.sets);
    }

    #[test]
    fn fresh_vocabulary_is_distinct_and_isolates_half() {
        let w = fresh(1);
        assert_eq!(w.vocab.distinct(), 64);
        for (set, centre) in w.vocab.sets.iter().zip(&w.vocab.isolated) {
            assert_eq!(set.len(), 6);
            if let Some(v) = centre {
                for nb in w.graph.neighbors(*v) {
                    assert!(set.contains(&nb.edge));
                }
            }
        }
        assert_eq!(w.vocab.isolated.iter().filter(|c| c.is_some()).count(), 32);
        // A pass of `sets` consecutive requests visits every set once.
        let seen: BTreeSet<u32> = (0..64).map(|k| w.request(7, k).0).collect();
        assert_eq!(seen.len(), 64);
        // Half the queries of an isolating request start at the centre.
        let k = (0..64).find(|&k| w.vocab.isolated[w.request(7, k).0 as usize].is_some());
        let (set, q) = w.request(7, k.unwrap());
        let centre = w.vocab.isolated[set as usize].unwrap();
        assert_eq!(q.iter().filter(|(s, _)| *s == centre).count(), 8);
    }

    #[test]
    fn audit_counts_each_kind_of_wrong_answer() {
        let w = fresh(2);
        let recs: Vec<ReqRec> = (0..64)
            .map(|k| {
                let (set, q) = w.request(11, k);
                let mask = forbidden_mask(&w.graph, &w.vocab.sets[set as usize]);
                let comp = connected_components(&w.graph, &mask).0;
                let answers = q.iter().enumerate().fold(0u64, |acc, (i, (s, t))| {
                    acc | u64::from(comp[s.index()] == comp[t.index()]) << i
                });
                ReqRec {
                    due_ns: 0,
                    sent_ns: 1,
                    encoded_ns: 0,
                    written_ns: 0,
                    recv_ns: 0,
                    done_ns: 2,
                    epoch: 1,
                    answers,
                    status: Status::Ok,
                }
            })
            .collect();
        let clean = audit(&w, &[(11, &recs)], &EpochLog::default(), 1);
        assert_eq!(clean.queries, 64 * 16);
        assert_eq!((clean.false_connected, clean.false_disconnected), (0, 0));
        assert!(
            clean.disconnected >= 32 * 8,
            "isolating requests disconnect"
        );
        // Flip every answer: each truly-disconnected query becomes a false
        // "connected" and each connected one a false "disconnected".
        let flipped: Vec<ReqRec> = recs
            .iter()
            .map(|r| ReqRec {
                answers: !r.answers & 0xFFFF,
                ..*r
            })
            .collect();
        let bad = audit(&w, &[(11, &flipped)], &EpochLog::default(), 1);
        assert_eq!(bad.false_connected, clean.disconnected);
        assert_eq!(bad.false_disconnected, clean.queries - clean.disconnected);
        let stale: Vec<ReqRec> = recs.iter().map(|r| ReqRec { epoch: 9, ..*r }).collect();
        assert_eq!(
            audit(&w, &[(11, &stale)], &EpochLog::default(), 1).unknown_epoch,
            64
        );
    }

    #[test]
    fn audit_uses_the_topology_of_the_answering_epoch() {
        // A path 0-1-2-3 as a 1x4 grid; epoch 2 removed the middle edge.
        let mut p = WORKLOADS[0];
        p.graph = "grid:1x4";
        p.sets = 1;
        p.set_size = 0;
        let w = Workload::new(p, 1).unwrap();
        let middle = w
            .graph
            .find_edge(VertexId::new(1), VertexId::new(2))
            .unwrap();
        let log = EpochLog {
            removals: vec![(2, middle)],
        };
        let rec = |epoch, answers| ReqRec {
            due_ns: 0,
            sent_ns: 1,
            encoded_ns: 0,
            written_ns: 0,
            recv_ns: 0,
            done_ns: 2,
            epoch,
            answers,
            status: Status::Ok,
        };
        // Compute the truth for request 0 on each epoch directly.
        let (_, q) = w.request(5, 0);
        let side = |v: VertexId| v.index() <= 1;
        let cut_answers = q.iter().enumerate().fold(0u64, |acc, (i, (s, t))| {
            acc | u64::from(side(*s) == side(*t)) << i
        });
        let a1 = audit(&w, &[(5, &[rec(1, 0xFFFF)][..])], &log, 1);
        assert_eq!(a1.false_connected + a1.false_disconnected, 0);
        let a2 = audit(&w, &[(5, &[rec(2, cut_answers)][..])], &log, 1);
        assert_eq!(a2.false_connected + a2.false_disconnected, 0);
        let crossing = q.iter().filter(|(s, t)| side(*s) != side(*t)).count() as u64;
        let a3 = audit(&w, &[(5, &[rec(2, 0xFFFF)][..])], &log, 1);
        assert_eq!(a3.false_connected, crossing);
    }
}
