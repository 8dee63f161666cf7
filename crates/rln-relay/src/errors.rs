//! Shared error shapes for the relay layer's fallible construction and
//! restore paths.
//!
//! Every error here follows the same discipline as [`crate::NodeError`]
//! and `waku_snark::SnarkError`: `#[non_exhaustive]`, a `Display` that
//! reads as one sentence, and an `std::error::Error` impl so downstream
//! layers (the `waku-node` service in particular) can wrap them behind
//! one top-level error type and still expose the full chain through
//! `source()`.

/// A configuration invariant rejected at builder `build()` time.
///
/// Builders ([`crate::NodeConfig::builder`],
/// [`crate::BatchConfig::builder`], and the `waku-node` service's
/// `ServiceConfig::builder`) validate here instead of panicking deep
/// inside constructors, so a service can surface a bad flag as an error
/// message rather than a backtrace.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The builder field that was rejected.
    pub field: &'static str,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl ConfigError {
    /// Rejects `field`; `reason` reads after the field name, as in
    /// "must be at least 1".
    pub fn new(field: &'static str, reason: &'static str) -> Self {
        ConfigError { field, reason }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid config: `{}` {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// A persisted nullifier snapshot whose epoch window does not match the
/// validator it is being restored into.
///
/// The gap check and the store window must enforce the same `Thr` bound
/// (see `MessageValidator::restore_nullifiers`); restoring across a
/// `Thr` change would let them disagree, so the restore is refused and
/// the caller starts with an empty window instead.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotMismatch {
    /// The validator's configured `Thr`.
    pub expected_max_gap: u64,
    /// The snapshot's recorded `Thr`.
    pub found_max_gap: u64,
}

impl SnapshotMismatch {
    pub(crate) fn new(expected_max_gap: u64, found_max_gap: u64) -> Self {
        SnapshotMismatch {
            expected_max_gap,
            found_max_gap,
        }
    }
}

impl std::fmt::Display for SnapshotMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nullifier snapshot window mismatch: validator Thr = {}, snapshot Thr = {}",
            self.expected_max_gap, self.found_max_gap
        )
    }
}

impl std::error::Error for SnapshotMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_reads_as_sentences() {
        let c = ConfigError::new("max_batch", "must be at least 1");
        assert_eq!(
            c.to_string(),
            "invalid config: `max_batch` must be at least 1"
        );
        let s = SnapshotMismatch::new(1, 3);
        assert_eq!(
            s.to_string(),
            "nullifier snapshot window mismatch: validator Thr = 1, snapshot Thr = 3"
        );
    }
}
