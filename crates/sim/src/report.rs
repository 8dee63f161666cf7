//! Scenario result aggregation.

/// Outcome of one network scenario run.
///
/// Derives `PartialEq`: a seeded scenario must produce a **bit-identical**
/// report at any shard count and any pool size — the
/// equivalence tests compare whole reports with `==`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioReport {
    /// Defense label (for tables).
    pub defense: String,
    /// Honest messages published.
    pub honest_sent: u64,
    /// Spam messages published.
    pub spam_sent: u64,
    /// First deliveries of honest messages (across all peers).
    pub honest_delivered: u64,
    /// First deliveries of spam messages.
    pub spam_delivered: u64,
    /// honest_delivered / (honest_sent · (peers − 1)).
    pub honest_delivery_ratio: f64,
    /// spam_delivered / (spam_sent · (peers − 1)).
    pub spam_delivery_ratio: f64,
    /// Validator invocations network-wide (proof-check cost proxy).
    pub validations: u64,
    /// Total bytes sent network-wide.
    pub bytes_sent: u64,
    /// Simulator events dispatched during the run (deterministic for a
    /// seeded scenario; divide by wall-clock for simulated events/sec).
    pub events_processed: u64,
    /// Unique spammer identities recovered by routers (RLN only).
    pub spammers_detected: usize,
    /// Median honest propagation latency (ms).
    pub honest_latency_p50_ms: u64,
    /// 95th-percentile honest propagation latency (ms).
    pub honest_latency_p95_ms: u64,
    /// Median per-message sending delay imposed on honest peers
    /// (PoW mining time; 0 for other defenses).
    pub honest_send_delay_p50_ms: u64,
    /// Wei an attacker must stake for this spam rate (economic cost).
    pub attack_cost_wei: u128,
    /// Start of the post-disruption observation window (sim ms): the
    /// instant the last scheduled fault ends (final partition heal /
    /// final peer restart). 0 when the run had no fault plan, making the
    /// post-window counters equal their whole-run counterparts.
    pub post_window_from_ms: u64,
    /// Honest messages published at/after [`Self::post_window_from_ms`].
    pub post_honest_sent: u64,
    /// Spam messages published at/after [`Self::post_window_from_ms`].
    pub post_spam_sent: u64,
    /// First deliveries of honest messages published in the post window
    /// — the re-convergence signal the E9 fault scenarios gate on: after
    /// the last heal/rejoin, delivery must return to near fault-free.
    pub post_honest_delivered: u64,
    /// First deliveries of spam messages published in the post window.
    pub post_spam_delivered: u64,
    /// post_honest_delivered / (post_honest_sent · (peers − 1)).
    pub post_honest_delivery_ratio: f64,
}

/// Percentile of a sample (nearest-rank); 0 for empty input.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

impl ScenarioReport {
    /// One markdown table row (matches the header in
    /// [`ScenarioReport::table_header`]).
    pub fn table_row(&self) -> String {
        format!(
            "| {} | {} | {} | {:.3} | {:.3} | {} | {} | {} | {} | {:.2} |",
            self.defense,
            self.honest_sent,
            self.spam_sent,
            self.honest_delivery_ratio,
            self.spam_delivery_ratio,
            self.spammers_detected,
            self.honest_latency_p50_ms,
            self.honest_send_delay_p50_ms,
            self.validations,
            self.attack_cost_wei as f64 / 1e18,
        )
    }

    /// The markdown table header for scenario comparisons.
    pub fn table_header() -> String {
        "| defense | honest sent | spam sent | honest delivery | spam delivery | spammers caught | latency p50 (ms) | send delay p50 (ms) | validations | attack cost (ETH) |\n|---|---|---|---|---|---|---|---|---|---|".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![10, 20, 30, 40, 50];
        assert_eq!(percentile(&mut v, 50.0), 30);
        assert_eq!(percentile(&mut v, 95.0), 50);
        assert_eq!(percentile(&mut v, 1.0), 10);
        let mut empty: Vec<u64> = vec![];
        assert_eq!(percentile(&mut empty, 50.0), 0);
    }

    #[test]
    fn table_row_contains_defense() {
        let r = ScenarioReport {
            defense: "rln".into(),
            ..Default::default()
        };
        assert!(r.table_row().contains("rln"));
        assert!(ScenarioReport::table_header().contains("spam delivery"));
    }
}
