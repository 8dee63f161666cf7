//! Experiment E7: sensitivity of the epoch-gap threshold `Thr`
//! (paper §III-F).
//!
//! Honest-only traffic under varying epoch length `T`, network delay, and
//! clock asynchrony: too small a `Thr` drops honest in-flight messages;
//! the paper's formula `Thr = ⌈(NetworkDelay + ClockAsynchrony)/T⌉` should
//! sit right at the knee.

use crate::report::ScenarioReport;
use crate::scenario::{run_scenario, Defense, ScenarioConfig};
use waku_gossip::NetworkConfig;

/// One sweep point result.
#[derive(Clone, Debug)]
pub struct EpochGapPoint {
    /// Epoch length (seconds).
    pub epoch_secs: u64,
    /// Threshold under test.
    pub thr: u64,
    /// The formula's recommendation for these parameters.
    pub thr_formula: u64,
    /// Fraction of honest first-deliveries achieved (1.0 = no false drops).
    pub honest_delivery_ratio: f64,
    /// Median honest latency (ms).
    pub latency_p50_ms: u64,
}

/// Runs the honest-only network at each threshold in `thrs`.
pub fn sweep_thr(
    epoch_secs: u64,
    clock_drift_ms: u64,
    latency_max_ms: u64,
    thrs: &[u64],
    seed: u64,
) -> Vec<EpochGapPoint> {
    // Estimate NetworkDelay empirically from a calibration run with a huge
    // threshold (no drops), then apply the paper's formula.
    let calibration = run_point(epoch_secs, clock_drift_ms, latency_max_ms, 1_000, seed);
    let network_delay_secs = calibration.honest_latency_p95_ms as f64 / 1000.0;
    let clock_asynchrony_secs = 2.0 * clock_drift_ms as f64 / 1000.0;
    let thr_formula = ((network_delay_secs + clock_asynchrony_secs) / epoch_secs as f64)
        .ceil()
        .max(1.0) as u64;

    thrs.iter()
        .map(|&thr| {
            let p = run_point(epoch_secs, clock_drift_ms, latency_max_ms, thr, seed);
            EpochGapPoint {
                epoch_secs,
                thr,
                thr_formula,
                honest_delivery_ratio: p.honest_delivery_ratio,
                latency_p50_ms: p.honest_latency_p50_ms,
            }
        })
        .collect()
}

fn run_point(
    epoch_secs: u64,
    clock_drift_ms: u64,
    latency_max_ms: u64,
    thr: u64,
    seed: u64,
) -> ScenarioReport {
    let config = ScenarioConfig {
        peers: 40,
        spammers: 0,
        duration_ms: 30_000,
        honest_interval_ms: 3_000,
        defense: Defense::RlnRelay { epoch_secs, thr },
        net: NetworkConfig::builder()
            .clock_drift_ms(clock_drift_ms)
            .latency_ms(latency_max_ms / 5, latency_max_ms)
            .build()
            .expect("valid net config"),
        seed,
        ..ScenarioConfig::default()
    };
    run_scenario(&config).report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_threshold_achieves_full_delivery() {
        // With sub-second delays and T = 1 s, the formula gives Thr = 1,
        // which must already avoid false drops.
        let points = sweep_thr(1, 100, 120, &[0, 1, 2], 3);
        let at_formula = points
            .iter()
            .find(|p| p.thr == p.thr_formula)
            .expect("formula threshold in sweep");
        assert!(at_formula.honest_delivery_ratio > 0.95, "{at_formula:?}");
        // Larger thresholds cannot reduce delivery.
        let above = points.iter().find(|p| p.thr == at_formula.thr + 1).unwrap();
        assert!(above.honest_delivery_ratio >= at_formula.honest_delivery_ratio - 0.01);
    }

    #[test]
    fn extreme_drift_with_tiny_threshold_drops_messages() {
        // Seconds of clock drift with Thr = 0 and T = 1 s: peers whose
        // clocks disagree by more than an epoch drop honest traffic.
        let points = sweep_thr(1, 3_000, 120, &[0], 5);
        assert!(
            points[0].honest_delivery_ratio < 0.9,
            "expected false drops: {points:?}"
        );
    }

    #[test]
    fn longer_epochs_tolerate_drift() {
        // Same drift, T = 10 s: a single epoch absorbs the asynchrony.
        let points = sweep_thr(10, 3_000, 120, &[1], 7);
        assert!(points[0].honest_delivery_ratio > 0.95, "{points:?}");
    }

    #[test]
    fn percentile_helper_reexported_sanity() {
        use crate::report::percentile;
        let mut v = vec![5, 1, 9];
        assert_eq!(percentile(&mut v, 50.0), 5);
    }
}
