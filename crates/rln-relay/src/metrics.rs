//! Counters for validation and node activity — views over the shared
//! `waku-metrics` registry.
//!
//! The plain-old-data structs ([`ValidationMetrics`], [`NodeMetrics`])
//! keep their public field API, but they are no longer the storage:
//! recording goes through registry handles bound once at construction
//! (see the crate-private `catalogue()`), and the structs are *snapshots*
//! the same handles read back on demand. One registry per node feeds both
//! views plus the Prometheus exposition, so the node's observability is a
//! single pipe.

use std::sync::{Arc, OnceLock};

use waku_chain::{Wei, GWEI};
use waku_metrics::{
    Counter, CounterId, Gauge, GaugeFold, GaugeId, Histogram, HistogramId, Layout, LayoutBuilder,
    Registry,
};

/// Typed ids into the RLN-relay metric catalogue.
pub(crate) struct MetricIds {
    pub total: CounterId,
    pub relayed: CounterId,
    pub epoch_dropped: CounterId,
    pub root_dropped: CounterId,
    pub proof_rejected: CounterId,
    pub duplicates: CounterId,
    pub spam_detected: CounterId,
    pub out_of_window: CounterId,
    pub nullifier_entries: GaugeId,
    pub nullifier_high_water: GaugeId,
    pub epochs_pruned: GaugeId,
    pub validation_latency: HistogramId,
    pub proof_verify: HistogramId,
    pub batch_size: HistogramId,
    pub batch_isolation_checks: HistogramId,
    pub batch_invalid_proofs: CounterId,
    pub proof_verify_batch: HistogramId,
    pub published: CounterId,
    pub prove_changed_vars: HistogramId,
    pub rate_limited_locally: CounterId,
    pub slash_commits: CounterId,
    pub slash_reveals: CounterId,
    pub rewards_gwei: CounterId,
}

/// The RLN-relay catalogue (validation pipeline + node lifecycle), built
/// once per process and shared by every registry created through
/// [`registry`].
pub(crate) fn catalogue() -> &'static (Arc<Layout>, MetricIds) {
    static CELL: OnceLock<(Arc<Layout>, MetricIds)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut b = LayoutBuilder::new();
        let ids = MetricIds {
            total: b.counter("rln_validation_total", "Bundles examined."),
            relayed: b.counter("rln_validation_relayed_total", "Relayed (fresh, valid)."),
            epoch_dropped: b.counter(
                "rln_validation_epoch_dropped_total",
                "Dropped by the epoch-gap check.",
            ),
            root_dropped: b.counter(
                "rln_validation_root_dropped_total",
                "Dropped for an unknown tree root.",
            ),
            proof_rejected: b.counter(
                "rln_validation_proof_rejected_total",
                "Dropped for an invalid proof.",
            ),
            duplicates: b.counter(
                "rln_validation_duplicates_total",
                "Exact duplicates discarded.",
            ),
            spam_detected: b.counter(
                "rln_validation_spam_detected_total",
                "Rate violations detected (slashing evidence produced).",
            ),
            out_of_window: b.counter(
                "rln_out_of_window_total",
                "Rate checks refused because the epoch left the nullifier \
                 window (clock skew or a monotone store running ahead of a \
                 stale local clock).",
            ),
            nullifier_entries: b.gauge(
                "rln_nullifier_entries",
                "Shares resident in the windowed nullifier store.",
                GaugeFold::Sum,
            ),
            nullifier_high_water: b.gauge(
                "rln_nullifier_high_water",
                "Largest share count the nullifier store held at once.",
                GaugeFold::Max,
            ),
            epochs_pruned: b.gauge(
                "rln_epochs_pruned",
                "Expired epochs whose nullifier state has been recycled.",
                GaugeFold::Sum,
            ),
            validation_latency: b.histogram(
                "rln_validation_latency_ns",
                "Wall-clock latency of the full validation pipeline (ns).",
            ),
            proof_verify: b.histogram(
                "rln_proof_verify_ns",
                "Wall-clock time of the Groth16 proof verification (ns). \
                 On the batched path each proof observes its amortized \
                 share of the batch check, keeping the series comparable \
                 with the sequential pipeline.",
            ),
            batch_size: b.histogram(
                "rln_batch_size",
                "Number of proofs per batched verification flush.",
            ),
            batch_isolation_checks: b.histogram(
                "rln_batch_isolation_checks",
                "Pairing checks (final exponentiations) one flush ran after \
                 its full-batch check to find its invalid proofs: 0 for a \
                 clean flush, at most k*(ceil(log2 n)+1) for k invalid \
                 proofs among n. The work junk proofs buy from this relayer.",
            ),
            batch_invalid_proofs: b.counter(
                "rln_batch_invalid_proofs_total",
                "Invalid proofs found by batched verification flushes.",
            ),
            proof_verify_batch: b.histogram(
                "rln_proof_verify_batch_ns",
                "Wall-clock time of one batched (RLC) Groth16 verification \
                 over the whole flush (ns).",
            ),
            published: b.counter("node_published_total", "Messages this node published."),
            prove_changed_vars: b.histogram(
                "rln_prove_changed_vars",
                "Assignment entries the prover re-multiplied per publish (the \
                 rest was reused from the previous proof): a few hundred on \
                 an unchanged authentication path, the whole circuit on a \
                 first proof.",
            ),
            rate_limited_locally: b.counter(
                "node_rate_limited_locally_total",
                "Publishes refused locally because the epoch was already used.",
            ),
            slash_commits: b.counter("node_slash_commits_total", "Slashing commits submitted."),
            slash_reveals: b.counter("node_slash_reveals_total", "Slashing reveals submitted."),
            rewards_gwei: b.counter(
                "node_rewards_gwei_total",
                "Rewards collected (gwei, each payout rounded down).",
            ),
        };
        (b.build(), ids)
    })
}

/// A fresh registry over the RLN-relay catalogue. One per node (the
/// validator and the node lifecycle record into the same registry), or
/// one per standalone [`crate::validation::MessageValidator`].
pub fn registry() -> Registry {
    Registry::new(Arc::clone(&catalogue().0))
}

/// Hot-path handles for the validation pipeline, bound once.
pub(crate) struct ValidationHandles {
    pub total: Counter,
    pub relayed: Counter,
    pub epoch_dropped: Counter,
    pub root_dropped: Counter,
    pub proof_rejected: Counter,
    pub duplicates: Counter,
    pub spam_detected: Counter,
    pub out_of_window: Counter,
    pub nullifier_entries: Gauge,
    pub nullifier_high_water: Gauge,
    pub epochs_pruned: Gauge,
    pub validation_latency: Histogram,
    pub proof_verify: Histogram,
    pub batch_size: Histogram,
    pub batch_isolation_checks: Histogram,
    pub batch_invalid_proofs: Counter,
    pub proof_verify_batch: Histogram,
}

impl ValidationHandles {
    pub(crate) fn bind(registry: &Registry) -> Self {
        let ids = &catalogue().1;
        ValidationHandles {
            total: registry.counter(ids.total),
            relayed: registry.counter(ids.relayed),
            epoch_dropped: registry.counter(ids.epoch_dropped),
            root_dropped: registry.counter(ids.root_dropped),
            proof_rejected: registry.counter(ids.proof_rejected),
            duplicates: registry.counter(ids.duplicates),
            spam_detected: registry.counter(ids.spam_detected),
            out_of_window: registry.counter(ids.out_of_window),
            nullifier_entries: registry.gauge(ids.nullifier_entries),
            nullifier_high_water: registry.gauge(ids.nullifier_high_water),
            epochs_pruned: registry.gauge(ids.epochs_pruned),
            validation_latency: registry.histogram(ids.validation_latency),
            proof_verify: registry.histogram(ids.proof_verify),
            batch_size: registry.histogram(ids.batch_size),
            batch_isolation_checks: registry.histogram(ids.batch_isolation_checks),
            batch_invalid_proofs: registry.counter(ids.batch_invalid_proofs),
            proof_verify_batch: registry.histogram(ids.proof_verify_batch),
        }
    }

    /// The validation view, read from these handles.
    pub(crate) fn snapshot(&self) -> ValidationMetrics {
        ValidationMetrics {
            total: self.total.get(),
            relayed: self.relayed.get(),
            epoch_dropped: self.epoch_dropped.get(),
            root_dropped: self.root_dropped.get(),
            proof_rejected: self.proof_rejected.get(),
            duplicates: self.duplicates.get(),
            spam_detected: self.spam_detected.get(),
            out_of_window: self.out_of_window.get(),
            nullifier_entries: self.nullifier_entries.get(),
            epochs_pruned: self.epochs_pruned.get(),
        }
    }
}

/// Hot-path handles for the node lifecycle, bound once.
pub(crate) struct NodeHandles {
    pub published: Counter,
    pub prove_changed_vars: Histogram,
    pub rate_limited_locally: Counter,
    pub slash_commits: Counter,
    pub slash_reveals: Counter,
    rewards_gwei: Counter,
}

impl NodeHandles {
    pub(crate) fn bind(registry: &Registry) -> Self {
        let ids = &catalogue().1;
        NodeHandles {
            published: registry.counter(ids.published),
            prove_changed_vars: registry.histogram(ids.prove_changed_vars),
            rate_limited_locally: registry.counter(ids.rate_limited_locally),
            slash_commits: registry.counter(ids.slash_commits),
            slash_reveals: registry.counter(ids.slash_reveals),
            rewards_gwei: registry.counter(ids.rewards_gwei),
        }
    }

    /// Adds a slashing payout. Counter cells are `u64`, which wei
    /// overflow at 18.4 ETH — the 19th default deposit — so the cell
    /// counts gwei (wrapping only past 1.8·10¹⁰ ETH) and
    /// [`NodeMetrics`] multiplies back.
    pub(crate) fn record_reward(&self, wei: Wei) {
        self.rewards_gwei
            .add(u64::try_from(wei / GWEI).unwrap_or(u64::MAX));
    }

    /// The node view, read from these handles.
    pub(crate) fn snapshot(&self) -> NodeMetrics {
        NodeMetrics {
            published: self.published.get(),
            rate_limited_locally: self.rate_limited_locally.get(),
            slash_commits: self.slash_commits.get(),
            slash_reveals: self.slash_reveals.get(),
            rewards_wei: Wei::from(self.rewards_gwei.get()) * GWEI,
        }
    }
}

/// Validation pipeline counters (one per §III-F decision branch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidationMetrics {
    /// Bundles examined.
    pub total: u64,
    /// Relayed (fresh, valid).
    pub relayed: u64,
    /// Dropped by the epoch-gap check.
    pub epoch_dropped: u64,
    /// Dropped for an unknown tree root.
    pub root_dropped: u64,
    /// Dropped for an invalid proof.
    pub proof_rejected: u64,
    /// Exact duplicates discarded.
    pub duplicates: u64,
    /// Rate violations detected (slashing evidence produced).
    pub spam_detected: u64,
    /// Rate checks refused because the message's epoch had already left
    /// the nullifier window — the signature of clock skew beyond the
    /// tolerance bound (see `EpochManager::max_tolerated_skew_secs`).
    pub out_of_window: u64,
    /// Shares currently resident in the windowed nullifier store — a
    /// gauge, bounded by O(window × signals-per-epoch) by construction.
    pub nullifier_entries: u64,
    /// Expired epochs whose nullifier state has been recycled so far —
    /// a lifetime counter that grows with uptime while
    /// [`ValidationMetrics::nullifier_entries`] stays flat.
    pub epochs_pruned: u64,
}

/// Node-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Messages this node published.
    pub published: u64,
    /// Publishes refused locally because the epoch was already used.
    pub rate_limited_locally: u64,
    /// Slashing commits submitted.
    pub slash_commits: u64,
    /// Slashing reveals submitted.
    pub slash_reveals: u64,
    /// Rewards collected (wei; counted in whole gwei, so exact for any
    /// payout that is a gwei multiple).
    pub rewards_wei: Wei,
}

#[cfg(test)]
mod tests {
    use super::*;
    use waku_chain::ETHER;

    #[test]
    fn views_read_back_what_handles_record() {
        let registry = registry();
        let v = ValidationHandles::bind(&registry);
        let n = NodeHandles::bind(&registry);
        v.total.add(5);
        v.relayed.add(3);
        v.nullifier_entries.set(7);
        v.validation_latency.observe(1_000);
        n.published.inc();
        // 20 ETH of payouts: more wei than a `u64` cell holds.
        for _ in 0..20 {
            n.record_reward(ETHER);
        }
        let vm = v.snapshot();
        assert_eq!((vm.total, vm.relayed, vm.nullifier_entries), (5, 3, 7));
        let nm = n.snapshot();
        assert_eq!(nm.published, 1);
        assert_eq!(nm.rewards_wei, 20 * ETHER);
        // Both views sit over one exposition pipe.
        let text = registry.render_prometheus();
        assert!(text.contains("rln_validation_total 5"));
        assert!(text.contains("node_published_total 1"));
        assert!(text.contains("rln_validation_latency_ns_count 1"));
    }
}
