//! The server's internal breakdown over a phase, read from outside the
//! program: counters from the wire scrape (`scrape_metrics`), and each
//! stage histogram's bucket counts rebuilt from its public percentile
//! readout, so quantiles can be taken over one phase's samples alone.

use crate::stats::{bucket_diff, buckets_from_readout, parse_counters, phase_diff};
use crate::stats::{Buckets, Counters};
use ftl_obs::Stage;
use ftl_server::{parse_stage_table, scrape_metrics, ServerHandle};
use std::collections::BTreeMap;

/// Everything read at one phase boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Unlabeled counters (`*_total`) of the scrape, plus `stage.<name>.count` and
    /// `stage.<name>.sum_ns` from its stage table.
    pub counters: Counters,
    /// Bucket counts per stage.
    pub buckets: BTreeMap<&'static str, Buckets>,
}

/// Reads a snapshot. Call it with no load running: the histogram readout
/// is taken first, while the pipeline is quiet; the scrape's own frame
/// read then lands in the next interval.
pub fn snapshot(handle: &ServerHandle) -> Result<Snapshot, String> {
    let stages = &ftl_obs::global().stages;
    let buckets = Stage::ALL
        .iter()
        .map(|&s| {
            let h = stages.get(s);
            (
                s.name(),
                buckets_from_readout(h.count(), |p| h.percentile(p)),
            )
        })
        .collect();
    let text = scrape_metrics(handle.local_addr()).map_err(|e| format!("scrape: {e}"))?;
    let mut counters = parse_counters(&text);
    for row in parse_stage_table(&text) {
        counters.insert(format!("stage.{}.count", row.stage), row.count as f64);
        counters.insert(format!("stage.{}.sum_ns", row.stage), row.sum_ns as f64);
    }
    Ok(Snapshot { counters, buckets })
}

/// What changed between two snapshots.
#[derive(Debug, Clone)]
pub struct Interval {
    /// Counter differences.
    pub counters: Counters,
    /// Bucket-count differences per stage.
    pub buckets: BTreeMap<&'static str, Buckets>,
}

impl Interval {
    /// The difference `after - before`.
    pub fn between(before: &Snapshot, after: &Snapshot) -> Result<Self, String> {
        let counters = phase_diff(&before.counters, &after.counters)?;
        let mut buckets = BTreeMap::new();
        for (&stage, b) in &after.buckets {
            let a = before.buckets.get(stage).cloned().unwrap_or_default();
            buckets.insert(stage, bucket_diff(&a, b)?);
        }
        Ok(Interval { counters, buckets })
    }

    /// A counter's change (0 if absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A stage's samples over the interval.
    pub fn stage(&self, stage: &str) -> Buckets {
        self.buckets.get(stage).cloned().unwrap_or_default()
    }
}
