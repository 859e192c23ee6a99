//! `ftl-engine` — the batch-decoding label-query engine.
//!
//! The labeling schemes of this workspace build compact labels; this crate
//! *serves* them. The pipeline is **store → batcher → decoder → cache**:
//!
//! * [`store`] — labels live decoded, as columns (ancestry intervals, the
//!   `φ` bank, tree-edge child intervals) in a frozen [`LabelStore`]
//!   chunked by id range; wire records ([`ftl_labels::wire`]) are only
//!   the ingest format, validated on the way in. Reads are pure `&self`
//!   lookups, so any number of query threads can share the store
//!   lock-free.
//! * [`batch`] — queries arrive grouped by fault set ([`BatchRequest`]).
//!   Each distinct fault set pays **one** GF(2) elimination, which yields
//!   the null-space generators of its `φ` columns; every query is then a
//!   handful of ancestry checks plus one AND-popcount parity test per
//!   generator ([`EliminatedFaultSet`]).
//! * [`cache`] — eliminated bases are kept in an [`LruCache`] keyed by the
//!   canonical fault-set hash, so recurring fault sets (the common case:
//!   faults change rarely, queries arrive constantly) skip elimination
//!   entirely.
//! * [`scenario`] — workload drivers (uniform faults, targeted high-degree
//!   attacks, multi-round churn) that push traffic through an [`Engine`]
//!   and report throughput, per-query latency, reachability, and routed
//!   stretch.
//!
//! The naive pre-engine serving path — a fresh elimination per query — is
//! preserved as [`Engine::execute_naive`] for differential testing and
//! benchmarking.
//!
//! The failure-mode catalogue (epoch swaps mid-batch, engine panics,
//! corrupted labels) is `docs/robustness.md`; the network front end that
//! feeds this engine batched queries is documented in `docs/serving.md`.

#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod engine;
pub mod epoch;
pub mod inject;
pub mod scenario;
pub mod store;

pub use batch::{canonical_fault_hash, ConnQuery, EliminatedFaultSet};
pub use cache::LruCache;
pub use engine::{
    store_from_cycle_space, BatchRequest, BatchResponse, BatchStats, Engine, EngineConfig,
    EngineError, FaultSetBatch, GroupQueryResult, GroupResult, GroupedResponse, QueryResult,
};
pub use epoch::{full_store_of, Epoch, EpochStore, LiveStore, SwapPath, SwapReport};
pub use inject::{
    corrupt_random_bytes, flip_random_bits, oversize_declared_bits, plan_edge_removals,
    plan_vertex_removals, truncate_record, RemovalModel,
};
pub use scenario::{
    percentile_nearest_rank, run_churn_scenario, run_scenario, ChurnConfig, ChurnReport,
    ChurnRoundReport, FaultModel, RoundReport, ScenarioConfig, ScenarioReport, StretchStats,
};
pub use store::{LabelStore, LabelStoreBuilder, Namespace, StoreError, StoreKey};
