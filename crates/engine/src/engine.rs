//! The query engine: store → batcher → decoder → cache.
//!
//! An [`Engine`] serves [`BatchRequest`]s — connectivity queries grouped by
//! fault set — over a frozen [`LabelStore`] of decoded cycle-space label
//! columns. Each distinct fault set is eliminated **once** (or fetched from
//! the LRU cache of eliminated bases, keyed by the canonical fault-set
//! hash); each query then costs ancestry compares plus a parity test — see
//! [`crate::batch`] for the math.
//!
//! # The zero-decode hot path
//!
//! The store holds every label decoded once at ingest, so serving touches
//! no `WireReader`: vertex lookups are column reads of ancestry
//! intervals, and elimination (on cache miss) streams `φ` rows straight
//! out of the store's bank.
//!
//! An engine is single-threaded serving state — cache, scratch, and
//! decoder arenas — over a store shared behind an `Arc`, so one frozen
//! store can serve any number of engines, one per serving thread (the
//! server runs one per executor).
//!
//! # Panic containment
//!
//! Every entry point catches a panic at its unit of work: a batch for
//! [`Engine::execute`] / [`Engine::execute_into`] /
//! [`Engine::execute_naive`], a group for [`Engine::execute_grouped`].
//! The unit fails with [`EngineError::Panicked`], the engine resets its
//! cache and scratch (a panic may have unwound mid-update), and the next
//! unit is served normally.
//!
//! The naive serving path — a fresh elimination per query — is kept as
//! [`Engine::execute_naive`], both as the differential-testing oracle and
//! as the benchmark baseline; it shares the per-engine
//! [`ftl_gf2::DecodeScratch`] arenas, so the batched-vs-naive comparison
//! measures algorithm, not allocator.

use crate::batch::{canonical_fault_hash, ConnQuery, EliminatedFaultSet};
use crate::cache::LruCache;
use crate::store::{LabelStore, LabelStoreBuilder, StoreError, StoreKey};
use ftl_cycle_space::{
    CycleSpaceDecoder, CycleSpaceEdgeLabel, CycleSpaceScheme, CycleSpaceVertexLabel,
};
use ftl_gf2::BitVec;
use ftl_graph::{EdgeId, VertexId};
use ftl_labels::AncestryLabel;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Engine tuning knobs.
#[derive(Debug, Copy, Clone)]
pub struct EngineConfig {
    /// Most chunks (id ranges) each store column family is split into;
    /// a delta-freeze copies only the chunks it touches.
    pub num_shards: usize,
    /// Capacity of the eliminated-basis LRU cache (0 disables caching).
    pub cache_capacity: usize,
    /// Whether disconnected results carry the cut certificate `F′`
    /// (costs one small allocation per disconnected query).
    pub collect_certificates: bool,
    /// Chaos hook: panic while resolving any fault set containing this
    /// edge. Exercises the engine's panic containment (`catch_unwind` →
    /// [`EngineError::Panicked`]); `None` (the default) in all production
    /// configurations.
    pub chaos_panic_edge: Option<EdgeId>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_shards: 16,
            cache_capacity: 64,
            collect_certificates: false,
            chaos_panic_edge: None,
        }
    }
}

/// Why a batch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A query named a fault set index outside the request.
    UnknownFaultSet {
        /// The offending index.
        index: usize,
        /// How many fault sets the request carried.
        available: usize,
    },
    /// A label was missing from the store or failed to decode.
    Store(StoreError),
    /// Serving panicked. The panic was contained at the unit of work (a
    /// batch, or one group of a grouped execute): that unit fails with
    /// this error, the process survives, and the engine resets its cache
    /// and scratch before the next unit.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownFaultSet { index, available } => {
                write!(f, "query names fault set {index}, request has {available}")
            }
            EngineError::Store(e) => write!(f, "label store: {e}"),
            EngineError::Panicked { message } => write!(f, "engine panicked: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// A batch of connectivity queries, grouped by shared fault sets.
#[derive(Debug, Clone, Default)]
pub struct BatchRequest {
    /// The distinct fault sets of this batch (order and duplicates within a
    /// set are tolerated; sets are canonicalised internally).
    pub fault_sets: Vec<Vec<EdgeId>>,
    /// The queries, each naming its fault set by index.
    pub queries: Vec<ConnQuery>,
}

/// One query's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Whether `s` and `t` are connected in `G \ F` (w.h.p.).
    pub connected: bool,
    /// When disconnected and certificates are enabled: the disconnecting
    /// induced cut `F′ ⊆ F`, as edge ids.
    pub certificate: Option<Vec<EdgeId>>,
}

/// What one [`Engine::execute`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries answered.
    pub queries: usize,
    /// Distinct fault sets in the request.
    pub fault_sets: usize,
    /// Eliminations actually run (fault sets that missed the cache).
    pub eliminations: usize,
    /// Fault sets served from the cache.
    pub cache_hits: usize,
    /// The epoch this batch was served against — 0 for engines over a
    /// fixed store, the [`crate::Epoch`] number for engines built with
    /// `over_epochs` (pinned for the whole batch).
    pub epoch: u64,
}

/// A batch response: per-query results in request order, plus statistics.
///
/// Reusable: [`Engine::execute_into`] clears and refills an existing
/// response, so a serving loop that keeps one around allocates nothing
/// once its `results` vector has reached the high-water batch size.
#[derive(Debug, Clone, Default)]
pub struct BatchResponse {
    /// `results[i]` answers `queries[i]`.
    pub results: Vec<QueryResult>,
    /// Batch statistics.
    pub stats: BatchStats,
}

/// One pre-grouped unit of serving work: a fault set and the queries that
/// share it. This is the shape a batching front end (`ftl-server`) hands
/// the engine after grouping traffic by canonical fault-set hash — no
/// per-query fault-set indices to validate, one elimination per group by
/// construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSetBatch {
    /// The (not necessarily canonicalised) fault set shared by every query
    /// of this group.
    pub faults: Vec<EdgeId>,
    /// `(s, t)` connectivity queries against `G \ faults`.
    pub queries: Vec<(VertexId, VertexId)>,
}

/// One query's outcome inside a group: its answer, or the error that
/// failed *that query alone* (e.g. an out-of-range vertex id).
pub type GroupQueryResult = Result<QueryResult, EngineError>;

/// The outcome of one group of a grouped execute: per-query outcomes in
/// group order, or the group-level error (an unresolvable fault set, a
/// contained panic) that failed the whole group.
pub type GroupResult = Result<Vec<GroupQueryResult>, EngineError>;

/// Response to a grouped execute: one [`GroupResult`] per submitted
/// [`FaultSetBatch`], in submission order.
///
/// Unlike [`Engine::execute`], grouped execution isolates failures at the
/// finest granularity the work allows. Per **group**: a group whose fault
/// set names a missing edge (or whose serving panicked) fails alone, and
/// every other group still gets its answers. Per **query** within a
/// group: a query naming an out-of-range vertex fails alone
/// ([`GroupQueryResult`]), and the group's other queries still get their
/// answers — the property a multi-tenant front end needs, since one group
/// can mix queries from many independent connections.
#[derive(Debug, Clone, Default)]
pub struct GroupedResponse {
    /// `groups[i]` answers `FaultSetBatch` `i`.
    pub groups: Vec<GroupResult>,
    /// Aggregate statistics across all groups.
    pub stats: BatchStats,
}

/// The batch-decoding label-query engine: single-threaded serving
/// state over one (shareable) frozen store.
///
/// The serving state is the eliminated-basis cache, the decode scratch
/// arenas, and the naive-path decoder; the store is only ever read, so any
/// number of engines (one per serving thread) can share it lock-free.
///
/// Built with [`Engine::over_epochs`], the engine re-pins its store from
/// the [`EpochStore`](crate::EpochStore) at every batch boundary: a batch
/// always runs against one consistent snapshot, and a concurrent epoch
/// swap becomes visible at the *next* batch without the reader ever
/// blocking.
#[derive(Debug)]
pub struct Engine {
    store: Arc<LabelStore>,
    config: EngineConfig,
    /// Eliminated bases keyed by the canonical fault-set hash **mixed with
    /// the store uid**, each entry also carrying the uid it was computed
    /// against. A basis is only ever a function of the store's `φ` bank,
    /// so a hit requires the uid to match — otherwise an epoch swap (same
    /// edge ids, different labels) could serve a stale basis.
    cache: LruCache<(u64, Arc<EliminatedFaultSet>)>,
    /// Scratch for the per-query `D(s, t)` vector.
    diff: BitVec,
    /// Scratch for canonicalising fault sets.
    ids_scratch: Vec<EdgeId>,
    /// Reusable per-query eliminator for the naive baseline path.
    naive: CycleSpaceDecoder,
    /// Reusable per-fault-set label buffer for the naive baseline path.
    naive_labels: Vec<Vec<CycleSpaceEdgeLabel>>,
    /// Reusable resolved-set buffer for [`Engine::execute_into`] — taken
    /// out of `self` for the duration of a batch (resolving borrows the
    /// engine mutably per entry), returned cleared.
    resolved_scratch: Vec<Arc<EliminatedFaultSet>>,
    /// Publication point to re-pin from at batch boundaries, when epoch-
    /// following; `None` for engines over a fixed store.
    epochs: Option<Arc<crate::epoch::EpochStore>>,
    /// Number of the currently pinned epoch (0 when fixed-store).
    epoch: u64,
}

impl Engine {
    /// Builds an engine over an already-frozen store.
    pub fn new(store: LabelStore, config: EngineConfig) -> Self {
        Engine::with_shared(Arc::new(store), config)
    }

    /// Builds an engine over a store already shared behind an `Arc` —
    /// e.g. the same store another engine serves.
    pub fn with_shared(store: Arc<LabelStore>, config: EngineConfig) -> Self {
        Engine {
            store,
            config,
            cache: LruCache::new(config.cache_capacity),
            diff: BitVec::zeros(0),
            ids_scratch: Vec::new(),
            naive: CycleSpaceDecoder::new(),
            naive_labels: Vec::new(),
            resolved_scratch: Vec::new(),
            epochs: None,
            epoch: 0,
        }
    }

    /// Builds an epoch-following engine: each batch is served against the
    /// snapshot current at its start, re-pinned per batch.
    pub fn over_epochs(epochs: Arc<crate::epoch::EpochStore>, config: EngineConfig) -> Self {
        let current = epochs.current();
        let mut engine = Engine::with_shared(Arc::clone(current.store()), config);
        engine.epoch = current.number();
        engine.epochs = Some(epochs);
        engine
    }

    /// Re-pins the store from the epoch source, if following one. The
    /// stale-epoch cache guard is keyed by store uid, so nothing needs
    /// flushing here.
    fn refresh_epoch(&mut self) {
        if let Some(epochs) = &self.epochs {
            let current = epochs.current();
            self.epoch = current.number();
            ftl_obs::global().epoch.pinned.set(self.epoch);
            if !Arc::ptr_eq(&self.store, current.store()) {
                self.store = Arc::clone(current.store());
            }
        }
    }

    /// The epoch the engine is currently pinned to (0 for fixed-store
    /// engines).
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Freezes every label of a cycle-space scheme into a store and serves
    /// it — the usual way to stand an engine up.
    ///
    /// # Errors
    ///
    /// Fails as [`store_from_cycle_space`] does.
    pub fn from_cycle_space(
        scheme: &CycleSpaceScheme,
        config: EngineConfig,
    ) -> Result<Self, StoreError> {
        Ok(Engine::new(
            store_from_cycle_space(scheme, config.num_shards)?,
            config,
        ))
    }

    /// The underlying store.
    pub fn store(&self) -> &LabelStore {
        &self.store
    }

    /// A shared handle to the store (for standing up further engines over
    /// the same frozen labels).
    pub fn shared_store(&self) -> Arc<LabelStore> {
        Arc::clone(&self.store)
    }

    /// Engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Cumulative cache hits since construction (or since the last
    /// contained panic, which resets the cache).
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cumulative cache misses since construction (or since the last
    /// contained panic).
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Serves a batch: one elimination (or cache hit) per distinct fault
    /// set, a parity test per query. Results come back in request order.
    ///
    /// # Errors
    ///
    /// Fails if a query names a fault set the request does not carry, if
    /// a referenced label is missing from the store / fails to decode, or
    /// with [`EngineError::Panicked`] if serving the batch panicked.
    pub fn execute(&mut self, req: &BatchRequest) -> Result<BatchResponse, EngineError> {
        let mut resp = BatchResponse {
            results: Vec::with_capacity(req.queries.len()),
            stats: BatchStats::default(),
        };
        self.execute_into(req, &mut resp)?;
        Ok(resp)
    }

    /// [`Engine::execute`], but refilling a caller-owned [`BatchResponse`]
    /// instead of allocating a fresh one. A serving loop that keeps one
    /// response around performs zero heap allocations per cache-hot batch
    /// once its buffers have warmed up (the runtime twin of
    /// `ftl-analyzer`'s no-alloc hot-path rule; asserted by the
    /// counting-allocator test `alloc_free.rs`).
    ///
    /// Every fault set is resolved before any query is answered, so a
    /// fault set naming a missing edge fails the batch even when no query
    /// references it. On error the response's contents are unspecified
    /// (its buffers are still valid to reuse).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::execute`].
    pub fn execute_into(
        &mut self,
        req: &BatchRequest,
        out: &mut BatchResponse,
    ) -> Result<(), EngineError> {
        self.refresh_epoch();
        out.results.clear();
        out.stats = BatchStats {
            queries: req.queries.len(),
            fault_sets: req.fault_sets.len(),
            epoch: self.epoch,
            ..BatchStats::default()
        };
        self.contained(|engine| engine.serve_batch(req, out))?;
        record_obs_batch(&out.stats);
        Ok(())
    }

    /// The body of [`Engine::execute_into`]: resolve every fault set, then
    /// answer the queries in order, stopping at the first error.
    fn serve_batch(
        &mut self,
        req: &BatchRequest,
        out: &mut BatchResponse,
    ) -> Result<(), EngineError> {
        // Take the scratch out of `self` for the batch: filling it needs
        // `&mut self` per entry, and `answer` needs `&mut self` per query.
        let mut resolved = std::mem::take(&mut self.resolved_scratch);
        let mut fill = || -> Result<(), EngineError> {
            for fs in &req.fault_sets {
                resolved.push(self.resolve_fault_set(fs, &mut out.stats)?);
            }
            for q in &req.queries {
                let efs = resolved
                    .get(q.fault_set)
                    .ok_or(EngineError::UnknownFaultSet {
                        index: q.fault_set,
                        available: resolved.len(),
                    })?;
                out.results.push(self.answer(efs, q)?);
            }
            Ok(())
        };
        let result = fill();
        // Drop the batch's Arcs but keep the vector's capacity, then put
        // the scratch back — even on the error path.
        resolved.clear();
        self.resolved_scratch = resolved;
        result
    }

    /// Serves pre-grouped fault-set batches — the batching front end's
    /// entry point ([`FaultSetBatch`] is what `ftl-server` builds after
    /// grouping cross-connection traffic by canonical fault-set hash).
    /// Each group pays one elimination (or cache hit); failures — a panic
    /// included — are isolated per group, so the call itself never fails.
    /// See [`GroupedResponse`].
    pub fn execute_grouped(&mut self, groups: &[FaultSetBatch]) -> GroupedResponse {
        self.refresh_epoch();
        let mut stats = BatchStats {
            fault_sets: groups.len(),
            epoch: self.epoch,
            ..BatchStats::default()
        };
        let results = groups
            .iter()
            .map(|g| self.contained(|engine| engine.execute_group(g, &mut stats)))
            .collect();
        record_obs_batch(&stats);
        GroupedResponse {
            groups: results,
            stats,
        }
    }

    /// Serves one pre-grouped fault-set batch: resolve the set once,
    /// answer its queries. Only a fault set that fails to resolve fails
    /// the group as a unit; a query that fails on its own (out-of-range
    /// vertex) carries its error in its [`GroupQueryResult`] slot without
    /// touching its neighbors — a group merges queries from many
    /// independent requests, so one bad vertex id must not poison the
    /// rest.
    fn execute_group(&mut self, group: &FaultSetBatch, stats: &mut BatchStats) -> GroupResult {
        let efs = self.resolve_fault_set(&group.faults, stats)?;
        let mut results = Vec::with_capacity(group.queries.len());
        for &(s, t) in &group.queries {
            let q = ConnQuery { s, t, fault_set: 0 };
            results.push(self.answer(&efs, &q));
        }
        stats.queries += group.queries.len();
        Ok(results)
    }

    /// Runs one unit of work, containing a panic inside it: the unit fails
    /// with [`EngineError::Panicked`] and the engine resets its cache and
    /// scratch, which the panic may have left mid-update.
    fn contained<T>(
        &mut self,
        work: impl FnOnce(&mut Self) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        match catch_unwind(AssertUnwindSafe(|| work(&mut *self))) {
            Ok(result) => result,
            Err(payload) => {
                let epochs = self.epochs.take();
                *self = Engine {
                    epochs,
                    epoch: self.epoch,
                    ..Engine::with_shared(self.shared_store(), self.config)
                };
                Err(EngineError::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }

    /// The ancestry interval of `v`: one column read.
    // ftl-analyzer: hot-path
    #[inline]
    fn vertex_anc(&self, v: VertexId) -> Result<AncestryLabel, EngineError> {
        self.store
            .vertex_anc(v)
            .ok_or(EngineError::Store(StoreError::Missing(StoreKey::vertex(v))))
    }

    /// Resolves one fault set to its eliminated basis: canonicalise, probe
    /// the cache, eliminate from the store's `φ` bank on miss.
    fn resolve_fault_set(
        &mut self,
        faults: &[EdgeId],
        stats: &mut BatchStats,
    ) -> Result<Arc<EliminatedFaultSet>, EngineError> {
        self.ids_scratch.clear();
        self.ids_scratch.extend_from_slice(faults);
        self.ids_scratch.sort();
        self.ids_scratch.dedup();
        if let Some(chaos) = self.config.chaos_panic_edge {
            if self.ids_scratch.contains(&chaos) {
                // The whole point of this hook is to panic: it exercises
                // the engine's catch_unwind containment. Never set in
                // production configs.
                #[allow(clippy::panic)]
                {
                    // ftl-analyzer: allow(panic-free) deliberate chaos-injection hook
                    panic!(
                        "chaos: injected panic resolving fault set containing edge {}",
                        chaos.index()
                    );
                }
            }
        }
        // The store uid is folded into the hash so entries from different
        // epochs land in different slots instead of evicting each other,
        // and checked on hit so a stale epoch's basis (same ids, different
        // φ bank) can never be served.
        let uid = self.store.uid();
        let hash = canonical_fault_hash(&self.ids_scratch) ^ ftl_seeded::splitmix64(uid);
        if let Some((cached_uid, efs)) = self.cache.get(hash) {
            // Guard against 64-bit hash collisions between distinct fault
            // sets: a hit only counts if the canonical ids really match.
            // On a collision the sets simply keep re-eliminating (correct,
            // just slower) as the cache slot ping-pongs.
            if *cached_uid == uid && efs.edge_ids() == self.ids_scratch.as_slice() {
                stats.cache_hits += 1;
                return Ok(Arc::clone(efs));
            }
        }
        let ids = self.ids_scratch.clone();
        // Time the elimination itself (cold path: cache hits returned
        // above) into the process-wide Elimination stage histogram.
        let eliminate_t0 = std::time::Instant::now();
        let efs = EliminatedFaultSet::eliminate(ids, &self.store)?;
        ftl_obs::global().stages.record(
            ftl_obs::Stage::Elimination,
            eliminate_t0.elapsed().as_nanos() as u64,
        );
        let efs = Arc::new(efs);
        stats.eliminations += 1;
        self.cache.insert(hash, (uid, Arc::clone(&efs)));
        Ok(efs)
    }

    /// Answers one query against its eliminated fault set — the zero-decode
    /// kernel: two ancestry lookups, one interval compare per tree fault,
    /// one AND-popcount per generator.
    // ftl-analyzer: hot-path
    #[inline]
    fn answer(
        &mut self,
        efs: &EliminatedFaultSet,
        q: &ConnQuery,
    ) -> Result<QueryResult, EngineError> {
        let s_anc = self.vertex_anc(q.s)?;
        let t_anc = self.vertex_anc(q.t)?;
        let gen = efs.separating_generator_anc(&s_anc, &t_anc, &mut self.diff);
        Ok(QueryResult {
            connected: gen.is_none(),
            certificate: match gen {
                // ftl-analyzer: allow(hot-alloc) certificates are opt-in and only built for disconnected queries
                Some(g) if self.config.collect_certificates => Some(efs.certificate(g)),
                _ => None,
            },
        })
    }

    /// The naive serving path — a fresh elimination per query — kept as
    /// the benchmark baseline and differential oracle: labels are still
    /// fetched per fault set, but every query pays a **fresh elimination**
    /// of the augmented system (the pre-engine `ftl_cycle_space::decode`
    /// formulation).
    ///
    /// All elimination state is arena-reused across queries (the engine's
    /// [`CycleSpaceDecoder`] and per-set label buffers), so what this
    /// measures against [`Engine::execute`] is the algorithmic gap —
    /// per-query elimination versus shared elimination — not allocator
    /// noise.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::execute`].
    pub fn execute_naive(&mut self, req: &BatchRequest) -> Result<BatchResponse, EngineError> {
        self.refresh_epoch();
        let mut resp = self.contained(|engine| engine.serve_naive(req))?;
        resp.stats.epoch = self.epoch;
        record_obs_batch(&resp.stats);
        Ok(resp)
    }

    fn serve_naive(&mut self, req: &BatchRequest) -> Result<BatchResponse, EngineError> {
        let mut stats = BatchStats {
            queries: req.queries.len(),
            fault_sets: req.fault_sets.len(),
            ..BatchStats::default()
        };
        // Materialize each fault set's labels once into reusable buffers.
        if self.naive_labels.len() < req.fault_sets.len() {
            self.naive_labels
                .resize_with(req.fault_sets.len(), Vec::new);
        }
        for (buf, fs) in self.naive_labels.iter_mut().zip(&req.fault_sets) {
            buf.clear();
            for &e in fs {
                let label = self
                    .store
                    .materialize_edge_label(e)
                    .ok_or(StoreError::Missing(StoreKey::edge(e)))?;
                buf.push(label);
            }
        }
        let mut results = Vec::with_capacity(req.queries.len());
        for q in &req.queries {
            if q.fault_set >= req.fault_sets.len() {
                return Err(EngineError::UnknownFaultSet {
                    index: q.fault_set,
                    available: req.fault_sets.len(),
                });
            }
            let s_anc = self.vertex_anc(q.s)?;
            let t_anc = self.vertex_anc(q.t)?;
            let sl = CycleSpaceVertexLabel { anc: s_anc };
            let tl = CycleSpaceVertexLabel { anc: t_anc };
            let labels = &self.naive_labels[q.fault_set];
            stats.eliminations += 1;
            let (connected, certificate) = if self.config.collect_certificates {
                match self.naive.decode_with_certificate(&sl, &tl, labels) {
                    Some(idx) => (
                        false,
                        Some(
                            idx.into_iter()
                                .map(|i| req.fault_sets[q.fault_set][i])
                                .collect(),
                        ),
                    ),
                    None => (true, None),
                }
            } else {
                // Boolean decode: no certificate is ever materialized, so
                // separated queries allocate nothing either.
                (self.naive.decode(&sl, &tl, labels), None)
            };
            results.push(QueryResult {
                connected,
                certificate,
            });
        }
        Ok(BatchResponse { results, stats })
    }
}

/// Best-effort text out of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Folds one batch's counters into the process-wide engine metrics —
/// three relaxed atomic adds per *batch* (not per query), off the
/// per-query hot loop.
// ftl-analyzer: hot-path
#[inline]
pub(crate) fn record_obs_batch(stats: &BatchStats) {
    ftl_obs::global().engine.record_batch(
        stats.queries as u64,
        stats.eliminations as u64,
        stats.cache_hits as u64,
    );
}

/// Freezes every label of a cycle-space scheme into a store.
///
/// # Errors
///
/// Fails as [`LabelStoreBuilder::freeze`] does; the labels of one scheme
/// always share one `φ` width.
pub fn store_from_cycle_space(
    scheme: &CycleSpaceScheme,
    num_shards: usize,
) -> Result<LabelStore, StoreError> {
    let mut builder = LabelStoreBuilder::new(num_shards);
    for i in 0..scheme.num_vertices() {
        let v = VertexId::new(i);
        builder.put_vertex_label(v, &scheme.vertex_label(v));
    }
    for i in 0..scheme.num_edges() {
        let e = EdgeId::new(i);
        builder.put_edge_label(e, &scheme.edge_label(e))?;
    }
    builder.freeze()
}
