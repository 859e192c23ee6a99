//! The label store: the decoded columns of a cycle-space labeling, split
//! into id-range chunks, with a lock-free read path.
//!
//! A Dory–Parter vertex label is an ancestry interval, and an edge label
//! is `φ(e)` plus tree-edge data. Serving reads only those fields, so they
//! are all the store keeps, as columns indexed by id:
//!
//! * per-vertex ancestry intervals plus a presence bit;
//! * the `φ` bank, one [`BitMatrix`] row per edge id;
//! * per-edge child intervals (see `tree_child_interval_of`) plus a
//!   presence bit.
//!
//! Wire records ([`ftl_labels::wire`]) are the ingest format only. Each
//! record is decoded once, when it comes in through
//! [`LabelStoreBuilder::put_bytes`] or [`LabelStore::delta_freeze`], and a
//! record that cannot be placed is rejected with a typed [`StoreError`]:
//! corrupt bytes, the wrong label kind, a `φ` width that differs from the
//! bank's, or an id too sparse for dense columns. Nothing degrades to a
//! second lookup path, so one bad record never changes another query's
//! answer.
//!
//! The store follows a build-then-freeze lifecycle: a
//! [`LabelStoreBuilder`] stages records, and [`freeze`] places them into
//! an immutable [`LabelStore`]. After the freeze every read is a pure
//! `&self` lookup — no locks, no atomics — so any number of query threads
//! can share one store behind an `Arc`. Each column family is split into
//! at most `num_shards` chunks by id range, each behind its own `Arc`: a
//! delta-freeze copies and patches only the chunks its upserts and
//! removals touch, and shares the rest with the previous snapshot.
//!
//! [`freeze`]: LabelStoreBuilder::freeze

use ftl_cycle_space::{CycleSpaceEdgeLabel, CycleSpaceVertexLabel};
use ftl_gf2::{BitMatrix, BitVec};
use ftl_graph::{EdgeId, VertexId};
use ftl_labels::wire::{WireError, WireLabel};
use ftl_labels::AncestryLabel;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic source of store identities. Every freeze — full or delta —
/// mints a fresh uid, so two stores with equal content but different
/// provenance never compare equal by identity. The engine's elimination
/// cache keys on this to stay epoch-correct.
static NEXT_STORE_UID: AtomicU64 = AtomicU64::new(1);

fn fresh_store_uid() -> u64 {
    NEXT_STORE_UID.fetch_add(1, Ordering::Relaxed)
}

/// Which id space a record belongs to.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum Namespace {
    /// Vertex labels, keyed by vertex id.
    Vertex,
    /// Edge labels, keyed by edge id.
    Edge,
}

/// A store key: namespace plus 32-bit id.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// The id space.
    pub ns: Namespace,
    /// The id within it.
    pub id: u32,
}

impl StoreKey {
    /// The key of a vertex record.
    pub fn vertex(v: VertexId) -> Self {
        StoreKey {
            ns: Namespace::Vertex,
            id: v.raw(),
        }
    }

    /// The key of an edge record.
    pub fn edge(e: EdgeId) -> Self {
        StoreKey {
            ns: Namespace::Edge,
            id: e.index() as u32,
        }
    }
}

/// Why a store operation failed. Ingest errors leave the builder, or the
/// store a delta-freeze started from, unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No record under that key.
    Missing(StoreKey),
    /// The record failed wire decoding — corrupt bytes, or a label kind
    /// other than the cycle-space label of its namespace
    /// ([`WireError::WrongKind`]).
    Wire(WireError),
    /// The edge record's `φ` is not as wide as the store's `φ` bank.
    PhiWidth {
        /// The key of the rejected record.
        key: StoreKey,
        /// The bank's width in bits.
        expected: usize,
        /// The record's width in bits.
        got: usize,
    },
    /// The id lies so far past the other ids of its namespace that dense
    /// columns would be mostly empty slots.
    Sparse(StoreKey),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Missing(k) => write!(f, "no record for {k:?}"),
            StoreError::Wire(e) => write!(f, "record rejected: {e}"),
            StoreError::PhiWidth { key, expected, got } => write!(
                f,
                "record for {key:?} has a {got}-bit φ, the store's bank is {expected} bits"
            ),
            StoreError::Sparse(k) => write!(f, "id of {k:?} is too sparse for dense columns"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

/// Dense-column guard: placing by id only pays off when the id space is
/// reasonably dense; a record keyed by a sparse huge id is rejected rather
/// than allocating gigabytes of absent slots.
fn dense_enough(max_id: usize, count: usize) -> bool {
    max_id < 4 * count + 1024
}

/// An edge record's `φ` must be as wide as the bank it goes into.
fn check_width(key: StoreKey, expected: usize, got: usize) -> Result<(), StoreError> {
    if got == expected {
        Ok(())
    } else {
        Err(StoreError::PhiWidth { key, expected, got })
    }
}

/// The child interval of an absent or non-tree edge: an impossible
/// interval (`pre > post`).
const NO_CHILD: (u32, u32) = (1, 0);

/// The ancestry interval of the *deeper* endpoint of a tree edge — all the
/// per-query material a fault contributes. A tree edge lies on the
/// root–`x` path iff **both** endpoints are ancestors of `x`, and the
/// endpoint intervals of a tree edge nest, so that collapses to one
/// containment test against the child's interval. Non-tree edges (and the
/// impossible case of disjoint endpoint intervals, which no genuine tree
/// edge produces) yield `None`, matching `on_root_path_of` returning
/// `false` everywhere.
fn tree_child_interval_of(l: &CycleSpaceEdgeLabel) -> Option<(u32, u32)> {
    if !l.is_tree {
        return None;
    }
    if l.anc_u.is_ancestor_of(&l.anc_v) {
        Some((l.anc_v.pre, l.anc_v.post))
    } else if l.anc_v.is_ancestor_of(&l.anc_u) {
        Some((l.anc_u.pre, l.anc_u.post))
    } else {
        None
    }
}

/// One id-range chunk of the vertex columns.
#[derive(Debug, Clone)]
struct VertexChunk {
    anc: Vec<AncestryLabel>,
    present: Vec<bool>,
}

impl VertexChunk {
    fn empty(rows: usize) -> Self {
        VertexChunk {
            anc: vec![AncestryLabel { pre: 0, post: 0 }; rows],
            present: vec![false; rows],
        }
    }

    /// Writes row `off` (clears it for `None`).
    fn put(&mut self, off: usize, anc: Option<AncestryLabel>) {
        if let (Some(slot), Some(present)) = (self.anc.get_mut(off), self.present.get_mut(off)) {
            *slot = anc.unwrap_or(AncestryLabel { pre: 0, post: 0 });
            *present = anc.is_some();
        }
    }

    fn bytes(&self) -> usize {
        self.anc.len() * std::mem::size_of::<AncestryLabel>() + self.present.len()
    }
}

/// An edge row to write: the `φ` words and, for a tree edge, the child
/// interval.
type EdgeRow<'a> = (&'a [u64], Option<(u32, u32)>);

/// One id-range chunk of the edge columns.
#[derive(Debug, Clone)]
struct EdgeChunk {
    phi: BitMatrix,
    child: Vec<(u32, u32)>,
    present: Vec<bool>,
}

impl EdgeChunk {
    fn empty(rows: usize, width: usize) -> Self {
        EdgeChunk {
            phi: BitMatrix::with_rows(rows, width),
            child: vec![NO_CHILD; rows],
            present: vec![false; rows],
        }
    }

    /// Writes row `off` from `φ` words and a child interval (clears it for
    /// `None`). The words must be one bank row wide.
    fn put(&mut self, off: usize, record: Option<EdgeRow<'_>>) {
        let wpr = self.phi.words_per_row();
        let row = self.phi.words_mut().get_mut(off * wpr..(off + 1) * wpr);
        let (Some(row), Some(child), Some(present)) =
            (row, self.child.get_mut(off), self.present.get_mut(off))
        else {
            return;
        };
        match record {
            Some((words, interval)) => {
                row.copy_from_slice(words);
                *child = interval.unwrap_or(NO_CHILD);
            }
            None => {
                row.fill(0);
                *child = NO_CHILD;
            }
        }
        *present = record.is_some();
    }

    fn bytes(&self) -> usize {
        self.phi.words().len() * 8 + self.child.len() * 8 + self.present.len()
    }
}

/// A column family split into equal id ranges of `1 << shift` rows, each
/// chunk behind its own `Arc` so successor snapshots share the chunks
/// they do not touch.
#[derive(Debug, Clone)]
struct Chunked<C> {
    shift: u32,
    chunks: Vec<Arc<C>>,
}

impl<C: Clone> Chunked<C> {
    /// Columns for ids `0..ids` in at most `num_shards` chunks.
    fn new(ids: usize, num_shards: usize, empty: impl Fn(usize) -> C) -> Self {
        let rows = ids.div_ceil(num_shards).max(1).next_power_of_two();
        Chunked {
            shift: rows.trailing_zeros(),
            chunks: (0..ids.div_ceil(rows))
                .map(|_| Arc::new(empty(rows)))
                .collect(),
        }
    }

    /// The chunk holding `id` and the row within it.
    // ftl-analyzer: hot-path
    #[inline]
    fn chunk_of(&self, id: usize) -> Option<(&C, usize)> {
        let chunk = self.chunks.get(id >> self.shift)?;
        Some((chunk, id & ((1 << self.shift) - 1)))
    }

    /// [`Chunked::chunk_of`] for writing: copies the chunk first when
    /// another snapshot shares it.
    fn chunk_of_mut(&mut self, id: usize) -> Option<(&mut C, usize)> {
        let chunk = self.chunks.get_mut(id >> self.shift)?;
        Some((Arc::make_mut(chunk), id & ((1 << self.shift) - 1)))
    }

    /// Appends empty chunks until the id of `key` has a row, provided an
    /// id past the columns passes the dense-column guard for `capacity`
    /// records.
    fn make_room(
        &mut self,
        key: StoreKey,
        capacity: usize,
        empty: impl Fn(usize) -> C,
    ) -> Result<(), StoreError> {
        let chunk = key.id as usize >> self.shift;
        if chunk >= self.chunks.len() && !dense_enough(key.id as usize, capacity) {
            return Err(StoreError::Sparse(key));
        }
        while self.chunks.len() <= chunk {
            self.chunks.push(Arc::new(empty(1 << self.shift)));
        }
        Ok(())
    }

    /// How many chunks are the same allocation in both column families.
    fn shared_with(&self, other: &Chunked<C>) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

/// Mutable staging area for a [`LabelStore`]: records are validated as
/// they come in and placed into columns by [`LabelStoreBuilder::freeze`].
#[derive(Debug)]
pub struct LabelStoreBuilder {
    num_shards: usize,
    vertices: Vec<(u32, AncestryLabel)>,
    /// Staged edges in put order; row `i` of `phi` belongs to `edges[i]`.
    edges: Vec<(u32, Option<(u32, u32)>)>,
    phi: BitMatrix,
}

impl LabelStoreBuilder {
    /// A builder whose store will split each column family into at most
    /// `num_shards` chunks (minimum 1).
    pub fn new(num_shards: usize) -> Self {
        LabelStoreBuilder {
            num_shards: num_shards.max(1),
            vertices: Vec::new(),
            edges: Vec::new(),
            phi: BitMatrix::new(0),
        }
    }

    /// Decodes a wire record and stages it under `key` (a later record for
    /// the same key overwrites an earlier one). A vertex record must be a
    /// [`CycleSpaceVertexLabel`], an edge record a [`CycleSpaceEdgeLabel`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Wire`] for a corrupt record or one of the wrong kind,
    /// [`StoreError::PhiWidth`] as for
    /// [`LabelStoreBuilder::put_edge_label`]. The builder is unchanged.
    pub fn put_bytes(&mut self, key: StoreKey, record: &[u8]) -> Result<(), StoreError> {
        match key.ns {
            Namespace::Vertex => {
                let label = CycleSpaceVertexLabel::from_wire(record)?;
                self.put_vertex_label(VertexId::new(key.id as usize), &label);
                Ok(())
            }
            Namespace::Edge => {
                let label = CycleSpaceEdgeLabel::from_wire(record)?;
                self.put_edge_label(EdgeId::new(key.id as usize), &label)
            }
        }
    }

    /// Stages a vertex label.
    pub fn put_vertex_label(&mut self, v: VertexId, label: &CycleSpaceVertexLabel) {
        self.vertices.push((v.raw(), label.anc));
    }

    /// Stages an edge label. The first edge sets the width of the `φ`
    /// bank.
    ///
    /// # Errors
    ///
    /// [`StoreError::PhiWidth`] when `φ(e)` is not as wide as the edges
    /// staged before it; the builder is unchanged.
    pub fn put_edge_label(
        &mut self,
        e: EdgeId,
        label: &CycleSpaceEdgeLabel,
    ) -> Result<(), StoreError> {
        if self.edges.is_empty() {
            self.phi = BitMatrix::new(label.phi.len());
        }
        check_width(StoreKey::edge(e), self.phi.num_cols(), label.phi.len())?;
        self.phi.push_row(&label.phi);
        self.edges
            .push((StoreKey::edge(e).id, tree_child_interval_of(label)));
        Ok(())
    }

    /// Places the staged records into an immutable, lock-free-readable
    /// store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Sparse`] when the largest id of a namespace is too
    /// sparse for dense columns; nothing is built.
    pub fn freeze(self) -> Result<LabelStore, StoreError> {
        let max_vertex = self.vertices.iter().map(|&(id, _)| id).max();
        let max_edge = self.edges.iter().map(|&(id, _)| id).max();
        if let Some(id) = max_vertex.filter(|&id| !dense_enough(id as usize, self.vertices.len())) {
            return Err(StoreError::Sparse(StoreKey::vertex(VertexId::new(
                id as usize,
            ))));
        }
        if let Some(id) = max_edge.filter(|&id| !dense_enough(id as usize, self.edges.len())) {
            return Err(StoreError::Sparse(StoreKey::edge(EdgeId::new(id as usize))));
        }
        let phi_width = self.phi.num_cols();
        let mut store = LabelStore {
            vertices: Chunked::new(
                max_vertex.map_or(0, |id| id as usize + 1),
                self.num_shards,
                VertexChunk::empty,
            ),
            edges: Chunked::new(
                max_edge.map_or(0, |id| id as usize + 1),
                self.num_shards,
                |rows| EdgeChunk::empty(rows, phi_width),
            ),
            phi_width,
            num_shards: self.num_shards,
            uid: fresh_store_uid(),
        };
        for (id, anc) in self.vertices {
            store.put_vertex(id as usize, Some(anc));
        }
        for (i, &(id, child)) in self.edges.iter().enumerate() {
            store.put_edge(id as usize, Some((self.phi.row(i), child)));
        }
        Ok(store)
    }
}

/// The frozen, shareable label store. See the module docs for the column
/// layout and the concurrency story.
#[derive(Debug)]
pub struct LabelStore {
    vertices: Chunked<VertexChunk>,
    edges: Chunked<EdgeChunk>,
    /// Width of the `φ` bank in bits.
    phi_width: usize,
    num_shards: usize,
    /// Process-unique identity of this frozen snapshot (see
    /// [`LabelStore::uid`]).
    uid: u64,
}

impl LabelStore {
    /// The shard count the store was built with: the most chunks either
    /// column family was split into at freeze time.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Process-unique identity of this frozen snapshot. Two stores never
    /// share a uid, even across delta-freezes of the same lineage —
    /// anything derived from label *contents* (e.g. a cached elimination
    /// basis) must be keyed or guarded by it.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Freezes a **successor snapshot**: applies `removals`, then decodes
    /// and places `upserts`, on top of this store. Only the chunks a key
    /// falls in are copied and patched; every other chunk is shared with
    /// `self`. An upsert past the current columns grows them, within the
    /// dense-column guard.
    ///
    /// The successor has a fresh [`uid`](LabelStore::uid); `self` is
    /// untouched and keeps serving readers.
    ///
    /// # Errors
    ///
    /// Any upsert that [`LabelStoreBuilder::put_bytes`] would reject, and
    /// the errors of [`LabelStore::delta_freeze_staged`]. Nothing is
    /// built; `self` keeps serving unchanged.
    pub fn delta_freeze(
        &self,
        upserts: &[(StoreKey, Vec<u8>)],
        removals: &[StoreKey],
    ) -> Result<Self, StoreError> {
        let mut staged = LabelStoreBuilder::new(self.num_shards);
        for (key, bytes) in upserts {
            staged.put_bytes(*key, bytes)?;
        }
        self.delta_freeze_staged(staged, removals)
    }

    /// [`LabelStore::delta_freeze`] for upserts already staged, and so
    /// validated, in a builder: how an in-process producer of typed
    /// labels (the live store) skips a wire round trip.
    ///
    /// # Errors
    ///
    /// [`StoreError::PhiWidth`] when the staged edges' `φ` is not as wide
    /// as this store's bank, [`StoreError::Sparse`] for an id too far past
    /// the columns. Nothing is built; `self` keeps serving unchanged.
    pub fn delta_freeze_staged(
        &self,
        staged: LabelStoreBuilder,
        removals: &[StoreKey],
    ) -> Result<Self, StoreError> {
        let mut next = LabelStore {
            vertices: self.vertices.clone(),
            edges: self.edges.clone(),
            phi_width: self.phi_width,
            num_shards: self.num_shards,
            uid: 0,
        };
        for &key in removals {
            let id = key.id as usize;
            match key.ns {
                Namespace::Vertex if self.vertex_anc(VertexId::new(id)).is_some() => {
                    next.put_vertex(id, None);
                }
                Namespace::Edge if self.has_edge(EdgeId::new(id)) => next.put_edge(id, None),
                _ => {}
            }
        }
        if let Some(&(id, _)) = staged.edges.first() {
            if next.edges.chunks.is_empty() {
                next.phi_width = staged.phi.num_cols();
            }
            let key = StoreKey::edge(EdgeId::new(id as usize));
            check_width(key, next.phi_width, staged.phi.num_cols())?;
        }
        let capacity = self.len() + staged.vertices.len() + staged.edges.len();
        for &(id, anc) in &staged.vertices {
            let key = StoreKey::vertex(VertexId::new(id as usize));
            next.vertices.make_room(key, capacity, VertexChunk::empty)?;
            next.put_vertex(id as usize, Some(anc));
        }
        let width = next.phi_width;
        for (i, &(id, child)) in staged.edges.iter().enumerate() {
            let key = StoreKey::edge(EdgeId::new(id as usize));
            next.edges
                .make_room(key, capacity, |rows| EdgeChunk::empty(rows, width))?;
            next.put_edge(id as usize, Some((staged.phi.row(i), child)));
        }
        Ok(LabelStore {
            uid: fresh_store_uid(),
            ..next
        })
    }

    /// Writes (or for `None` clears) the vertex row of `id`. A no-op past
    /// the columns.
    fn put_vertex(&mut self, id: usize, anc: Option<AncestryLabel>) {
        if let Some((chunk, off)) = self.vertices.chunk_of_mut(id) {
            chunk.put(off, anc);
        }
    }

    /// Writes (or for `None` clears) the edge row of `id`. A no-op past
    /// the columns.
    fn put_edge(&mut self, id: usize, record: Option<EdgeRow<'_>>) {
        if let Some((chunk, off)) = self.edges.chunk_of_mut(id) {
            chunk.put(off, record);
        }
    }

    /// How many column chunks this store shares (same allocation) with
    /// `other`. A delta-freeze shares every chunk it did not touch.
    pub fn shared_chunks(&self, other: &LabelStore) -> usize {
        self.vertices.shared_with(&other.vertices) + self.edges.shared_with(&other.edges)
    }

    /// Number of column chunks, vertex and edge together.
    pub fn num_chunks(&self) -> usize {
        self.vertices.chunks.len() + self.edges.chunks.len()
    }

    /// Total number of stored records.
    pub fn len(&self) -> usize {
        let count = |present: &[bool]| present.iter().filter(|&&p| p).count();
        let vertices: usize = self.vertices.chunks.iter().map(|c| count(&c.present)).sum();
        vertices
            + self
                .edges
                .chunks
                .iter()
                .map(|c| count(&c.present))
                .sum::<usize>()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes of the columns, absent slots included.
    pub fn bytes_total(&self) -> usize {
        let vertices: usize = self.vertices.chunks.iter().map(|c| c.bytes()).sum();
        vertices + self.edges.chunks.iter().map(|c| c.bytes()).sum::<usize>()
    }

    /// The ancestry interval of vertex `v`, if it has a record.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn vertex_anc(&self, v: VertexId) -> Option<AncestryLabel> {
        let (chunk, off) = self.vertices.chunk_of(v.index())?;
        if *chunk.present.get(off)? {
            chunk.anc.get(off).copied()
        } else {
            None
        }
    }

    /// The chunk and row of edge `e`, if it has a record.
    // ftl-analyzer: hot-path
    #[inline]
    fn edge_row(&self, e: EdgeId) -> Option<(&EdgeChunk, usize)> {
        let (chunk, off) = self.edges.chunk_of(e.index())?;
        chunk.present.get(off).copied()?.then_some((chunk, off))
    }

    /// Width of the `φ` bank in bits.
    pub fn phi_width(&self) -> usize {
        self.phi_width
    }

    /// Whether edge `e` has a record.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn has_edge(&self, e: EdgeId) -> bool {
        self.edge_row(e).is_some()
    }

    /// Copies `φ(e)` out of the bank into `out` (reusing its allocation).
    /// Returns `false` when `e` has no record.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn read_phi_into(&self, e: EdgeId, out: &mut BitVec) -> bool {
        match self.edge_row(e) {
            Some((chunk, off)) => {
                chunk.phi.read_row_into(off, out);
                true
            }
            None => false,
        }
    }

    /// The ancestry interval of the deeper endpoint of `e` when it is a
    /// **tree** edge with a record. `e` lies on the root–`x` tree path iff
    /// `x`'s interval nests inside it, so this one compare stands in for
    /// `on_root_path_of` in `EliminatedFaultSet`'s per-query sweep.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn tree_child_interval(&self, e: EdgeId) -> Option<(u32, u32)> {
        let (chunk, off) = self.edge_row(e)?;
        let &(pre, post) = chunk.child.get(off)?;
        (pre <= post).then_some((pre, post))
    }

    /// Materializes a decode-equivalent [`CycleSpaceEdgeLabel`] from the
    /// columns: `φ` is bit-exact; the endpoint ancestry pair is collapsed
    /// to the child interval (both endpoints set to it), which preserves
    /// `on_root_path_of` for every query — the only thing decoders consult
    /// — without storing both endpoint intervals. Not wire-identical; for
    /// the naive oracle path.
    pub fn materialize_edge_label(&self, e: EdgeId) -> Option<CycleSpaceEdgeLabel> {
        let (chunk, off) = self.edge_row(e)?;
        let (is_tree, anc) = match self.tree_child_interval(e) {
            Some((pre, post)) => (true, AncestryLabel { pre, post }),
            None => (false, AncestryLabel { pre: 0, post: 0 }),
        };
        Some(CycleSpaceEdgeLabel {
            phi: chunk.phi.row_to_bitvec(off),
            anc_u: anc,
            anc_v: anc,
            is_tree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_cycle_space::CycleSpaceScheme;
    use ftl_seeded::Seed;

    fn vlabel(pre: u32, post: u32) -> CycleSpaceVertexLabel {
        CycleSpaceVertexLabel {
            anc: AncestryLabel { pre, post },
        }
    }

    fn elabel(width: usize, seed: u64, is_tree: bool) -> CycleSpaceEdgeLabel {
        let mut phi = BitVec::zeros(width);
        let mut state = seed | 1;
        phi.randomize(|| {
            state = ftl_seeded::splitmix64(state);
            state
        });
        CycleSpaceEdgeLabel {
            phi,
            anc_u: AncestryLabel { pre: 2, post: 9 },
            anc_v: AncestryLabel { pre: 3, post: 4 },
            is_tree,
        }
    }

    /// Asserts two stores hold the same columns over ids `0..n` / `0..m`:
    /// presence, ancestry interval, `φ` row, and child interval per id.
    fn assert_same_columns(a: &LabelStore, b: &LabelStore, n: usize, m: usize) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.phi_width(), b.phi_width());
        for i in 0..n {
            let v = VertexId::new(i);
            assert_eq!(a.vertex_anc(v), b.vertex_anc(v), "vertex {i}");
        }
        let (mut pa, mut pb) = (BitVec::zeros(0), BitVec::zeros(0));
        for i in 0..m {
            let e = EdgeId::new(i);
            assert_eq!(a.has_edge(e), b.has_edge(e), "edge {i}");
            assert_eq!(
                a.tree_child_interval(e),
                b.tree_child_interval(e),
                "edge {i}"
            );
            if a.read_phi_into(e, &mut pa) {
                assert!(b.read_phi_into(e, &mut pb));
                assert_eq!(pa, pb, "phi of edge {i}");
            }
        }
    }

    #[test]
    fn put_freeze_get_roundtrip() {
        let mut b = LabelStoreBuilder::new(4);
        for i in 0..50u32 {
            b.put_vertex_label(VertexId::new(i as usize), &vlabel(i, i + 1));
            b.put_edge_label(EdgeId::new(i as usize), &elabel(24, i as u64, i % 2 == 0))
                .unwrap();
        }
        let store = b.freeze().unwrap();
        assert_eq!(store.len(), 100);
        assert!(!store.is_empty());
        assert_eq!(store.phi_width(), 24);
        let mut phi = BitVec::zeros(0);
        for i in 0..50u32 {
            let v = VertexId::new(i as usize);
            assert_eq!(store.vertex_anc(v), Some(vlabel(i, i + 1).anc));
            let e = EdgeId::new(i as usize);
            let want = elabel(24, i as u64, i % 2 == 0);
            assert!(store.read_phi_into(e, &mut phi));
            assert_eq!(phi, want.phi);
            assert_eq!(store.tree_child_interval(e), tree_child_interval_of(&want));
        }
    }

    #[test]
    fn vertex_and_edge_namespaces_are_disjoint() {
        let mut b = LabelStoreBuilder::new(2);
        b.put_vertex_label(VertexId::new(7), &vlabel(1, 2));
        let store = b.freeze().unwrap();
        assert!(store.vertex_anc(VertexId::new(7)).is_some());
        assert!(!store.has_edge(EdgeId::new(7)));
        assert!(store.materialize_edge_label(EdgeId::new(7)).is_none());
    }

    #[test]
    fn overwrite_takes_effect() {
        let mut b = LabelStoreBuilder::new(1);
        b.put_vertex_label(VertexId::new(0), &vlabel(1, 1));
        b.put_vertex_label(VertexId::new(0), &vlabel(9, 9));
        b.put_edge_label(EdgeId::new(0), &elabel(20, 1, true))
            .unwrap();
        b.put_edge_label(EdgeId::new(0), &elabel(20, 2, false))
            .unwrap();
        let store = b.freeze().unwrap();
        assert_eq!(store.vertex_anc(VertexId::new(0)), Some(vlabel(9, 9).anc));
        let mut phi = BitVec::zeros(0);
        assert!(store.read_phi_into(EdgeId::new(0), &mut phi));
        assert_eq!(phi, elabel(20, 2, false).phi);
        assert_eq!(store.tree_child_interval(EdgeId::new(0)), None);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn shards_spread_keys() {
        let mut b = LabelStoreBuilder::new(8);
        for i in 0..800 {
            b.put_vertex_label(VertexId::new(i), &vlabel(i as u32, i as u32));
        }
        let store = b.freeze().unwrap();
        assert_eq!(store.num_shards(), 8);
        // 800 ids in 128-row chunks: 7 chunks, none above the shard count.
        assert_eq!(store.num_chunks(), 7);
        for i in 0..800 {
            assert!(store.vertex_anc(VertexId::new(i)).is_some(), "vertex {i}");
        }
        assert!(store.vertex_anc(VertexId::new(800)).is_none());
        assert!(store.vertex_anc(VertexId::new(100_000)).is_none());
    }

    #[test]
    fn corrupt_stored_bytes_surface_as_wire_error() {
        let mut b = LabelStoreBuilder::new(1);
        b.put_vertex_label(VertexId::new(0), &vlabel(1, 2));
        let mut bytes = vlabel(3, 4).to_wire();
        bytes[0] ^= 0xFF;
        assert_eq!(
            b.put_bytes(StoreKey::vertex(VertexId::new(1)), &bytes),
            Err(StoreError::Wire(WireError::BadMagic))
        );
        // A record of the wrong kind is rejected too: an edge record under
        // a vertex key, and a bare ancestry label anywhere.
        let edge = elabel(16, 3, true).to_wire();
        assert!(matches!(
            b.put_bytes(StoreKey::vertex(VertexId::new(1)), &edge),
            Err(StoreError::Wire(WireError::WrongKind { .. }))
        ));
        let bare = AncestryLabel { pre: 1, post: 2 }.to_wire();
        assert!(matches!(
            b.put_bytes(StoreKey::edge(EdgeId::new(0)), &bare),
            Err(StoreError::Wire(WireError::WrongKind { .. }))
        ));
        // Nothing of the rejected records was staged.
        let store = b.freeze().unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.vertex_anc(VertexId::new(1)).is_none());
    }

    #[test]
    fn sidecar_matches_wire_decoding_for_cycle_space_store() {
        let g = ftl_graph::generators::grid(4, 4);
        let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(5)).unwrap();
        let store = crate::engine::store_from_cycle_space(&scheme, 4).unwrap();
        assert_eq!(store.len(), g.num_vertices() + g.num_edges());
        let mut phi = BitVec::zeros(0);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            let wire = CycleSpaceVertexLabel::from_wire(&scheme.vertex_label(v).to_wire()).unwrap();
            assert_eq!(store.vertex_anc(v), Some(wire.anc), "vertex {i}");
        }
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            let wire = CycleSpaceEdgeLabel::from_wire(&scheme.edge_label(e).to_wire()).unwrap();
            assert!(store.has_edge(e));
            assert!(store.read_phi_into(e, &mut phi));
            assert_eq!(phi, wire.phi, "phi of edge {i}");
            // The child interval reproduces on_root_path_of for every
            // vertex in the graph.
            for x in 0..g.num_vertices() {
                let anc = scheme.vertex_label(VertexId::new(x)).anc;
                let by_interval = store
                    .tree_child_interval(e)
                    .is_some_and(|(pre, post)| pre <= anc.pre && anc.post <= post);
                assert_eq!(by_interval, wire.on_root_path_of(&anc), "edge {i} vs {x}");
            }
            // And so does the materialized decode-equivalent label.
            let mat = store.materialize_edge_label(e).unwrap();
            assert_eq!(mat.phi, wire.phi);
            assert_eq!(mat.is_tree, wire.is_tree);
            for x in 0..g.num_vertices() {
                let anc = scheme.vertex_label(VertexId::new(x)).anc;
                assert_eq!(mat.on_root_path_of(&anc), wire.on_root_path_of(&anc));
            }
        }
    }

    #[test]
    fn sparse_id_space_is_rejected() {
        // Two vertices, ids 3 and 900_000: far too sparse for dense columns.
        let mut b = LabelStoreBuilder::new(1);
        b.put_vertex_label(VertexId::new(3), &vlabel(1, 2));
        b.put_vertex_label(VertexId::new(900_000), &vlabel(3, 4));
        assert_eq!(
            b.freeze().unwrap_err(),
            StoreError::Sparse(StoreKey::vertex(VertexId::new(900_000)))
        );
        // The same id through a delta-freeze: rejected, nothing built.
        let mut b = LabelStoreBuilder::new(1);
        b.put_vertex_label(VertexId::new(3), &vlabel(1, 2));
        let store = b.freeze().unwrap();
        let key = StoreKey::vertex(VertexId::new(900_000));
        assert_eq!(
            store
                .delta_freeze(&[(key, vlabel(3, 4).to_wire())], &[])
                .unwrap_err(),
            StoreError::Sparse(key)
        );
        // A modest id past the columns grows them instead.
        let near = StoreKey::vertex(VertexId::new(40));
        let grown = store
            .delta_freeze(&[(near, vlabel(5, 6).to_wire())], &[])
            .unwrap();
        assert_eq!(grown.vertex_anc(VertexId::new(40)), Some(vlabel(5, 6).anc));
        assert_eq!(grown.len(), 2);
    }

    #[test]
    fn mixed_phi_widths_are_rejected() {
        let mut b = LabelStoreBuilder::new(2);
        b.put_edge_label(EdgeId::new(0), &elabel(20, 1, true))
            .unwrap();
        let key = StoreKey::edge(EdgeId::new(1));
        let wide = elabel(21, 2, false);
        let err = StoreError::PhiWidth {
            key,
            expected: 20,
            got: 21,
        };
        assert_eq!(b.put_edge_label(EdgeId::new(1), &wide), Err(err.clone()));
        assert_eq!(b.put_bytes(key, &wide.to_wire()), Err(err.clone()));
        let store = b.freeze().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(
            store
                .delta_freeze(&[(key, wide.to_wire())], &[])
                .unwrap_err(),
            err
        );
        assert!(err.to_string().contains("21-bit"));
    }

    #[test]
    fn delta_freeze_splices_untouched_shards_and_mints_fresh_uid() {
        let mut b = LabelStoreBuilder::new(8);
        for i in 0..400 {
            b.put_vertex_label(VertexId::new(i), &vlabel(i as u32, i as u32 + 1));
        }
        let store = b.freeze().unwrap();
        assert_eq!(store.num_chunks(), 7); // 64-row chunks
        let key = StoreKey::vertex(VertexId::new(3));
        let next = store
            .delta_freeze(&[(key, vlabel(99, 100).to_wire())], &[])
            .unwrap();
        assert_ne!(next.uid(), store.uid());
        // Only the chunk holding id 3 was copied.
        assert_eq!(next.shared_chunks(&store), store.num_chunks() - 1);
        // The old snapshot is untouched; the new one sees the upsert.
        assert_eq!(store.vertex_anc(VertexId::new(3)), Some(vlabel(3, 4).anc));
        assert_eq!(next.vertex_anc(VertexId::new(3)), Some(vlabel(99, 100).anc));
    }

    #[test]
    fn delta_freeze_matches_from_scratch_build() {
        let g = ftl_graph::generators::grid(4, 4);
        let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(5)).unwrap();
        let store = crate::engine::store_from_cycle_space(&scheme, 4).unwrap();

        // Remove two edges and move one vertex label.
        let removals = [
            StoreKey::edge(EdgeId::new(1)),
            StoreKey::edge(EdgeId::new(7)),
        ];
        let mut moved = scheme.vertex_label(VertexId::new(2));
        moved.anc.pre += 1;
        let upserts = [(StoreKey::vertex(VertexId::new(2)), moved.to_wire())];
        let next = store.delta_freeze(&upserts, &removals).unwrap();

        // From-scratch reference with the same final content.
        let mut b = LabelStoreBuilder::new(4);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            if i == 2 {
                b.put_vertex_label(v, &moved);
            } else {
                b.put_vertex_label(v, &scheme.vertex_label(v));
            }
        }
        for i in 0..g.num_edges() {
            if i == 1 || i == 7 {
                continue;
            }
            let e = EdgeId::new(i);
            b.put_edge_label(e, &scheme.edge_label(e)).unwrap();
        }
        let reference = b.freeze().unwrap();
        assert_same_columns(&next, &reference, g.num_vertices(), g.num_edges());
        assert!(!next.has_edge(EdgeId::new(7)));
    }

    #[test]
    fn delta_freeze_rejects_undecodable_upsert() {
        let g = ftl_graph::generators::cycle(6);
        let scheme = CycleSpaceScheme::label(&g, 2, Seed::new(3)).unwrap();
        let store = crate::engine::store_from_cycle_space(&scheme, 2).unwrap();
        let key = StoreKey::edge(EdgeId::new(0));
        let mut bad = scheme.edge_label(EdgeId::new(0)).to_wire();
        bad[0] ^= 0xFF;
        // A bad record among good ones fails the whole freeze.
        let good = (
            StoreKey::edge(EdgeId::new(1)),
            scheme.edge_label(EdgeId::new(1)).to_wire(),
        );
        assert_eq!(
            store
                .delta_freeze(&[good, (key, bad)], &[StoreKey::edge(EdgeId::new(2))])
                .unwrap_err(),
            StoreError::Wire(WireError::BadMagic)
        );
        // The previous snapshot is untouched.
        assert!(store.has_edge(EdgeId::new(0)));
        assert!(store.has_edge(EdgeId::new(2)));
        assert_eq!(store.len(), g.num_vertices() + g.num_edges());
    }

    #[test]
    fn delta_freeze_removal_then_reinsert_roundtrips() {
        let mut b = LabelStoreBuilder::new(3);
        for i in 0..30 {
            b.put_vertex_label(VertexId::new(i), &vlabel(i as u32, i as u32 + 1));
        }
        let store = b.freeze().unwrap();
        let key = StoreKey::vertex(VertexId::new(5));
        let gone = store.delta_freeze(&[], &[key]).unwrap();
        assert!(gone.vertex_anc(VertexId::new(5)).is_none());
        assert_eq!(gone.len(), 29);
        // Removing an absent key is a no-op, and copies nothing.
        let again = gone.delta_freeze(&[], &[key]).unwrap();
        assert_eq!(again.len(), 29);
        assert_eq!(again.shared_chunks(&gone), gone.num_chunks());
        let back = gone
            .delta_freeze(&[(key, vlabel(7, 8).to_wire())], &[])
            .unwrap();
        assert_eq!(back.vertex_anc(VertexId::new(5)), Some(vlabel(7, 8).anc));
        assert_eq!(back.len(), 30);
    }

    #[test]
    fn zero_shards_clamped_to_one() {
        let mut b = LabelStoreBuilder::new(0);
        b.put_vertex_label(VertexId::new(0), &vlabel(0, 0));
        let store = b.freeze().unwrap();
        assert_eq!(store.num_shards(), 1);
        assert_eq!(store.num_chunks(), 1);
        assert_eq!(store.len(), 1);
    }
}
