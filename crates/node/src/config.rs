//! Service configuration, following the builder discipline of
//! [`NodeConfig`] — `#[non_exhaustive]` structs, invariants validated
//! once at `build()`, `Default` preserved for the common case.

use std::path::PathBuf;
use std::time::Duration;

use waku_relay::SegmentConfig;
use waku_rln_relay::NodeConfig;

use crate::error::ServiceError;

/// Everything the long-running relayer service needs to open: where its
/// state lives, how its node validates, how its store persists, and how
/// often it checkpoints. How often it heartbeats is the caller's loop:
/// [`RelayerService::step`](crate::RelayerService::step) takes the time.
///
/// Construct via [`ServiceConfig::builder`].
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Root directory for all persistent state: `keys.bin` (proving-key
    /// cache), `store/` (message segments), `nullifiers.snap` (rate-limit
    /// window), `publish.guard` (own-publish epoch).
    pub data_dir: PathBuf,
    /// The RLN node configuration (epoch length, `Thr`, batching, …).
    pub node: NodeConfig,
    /// The segment-log shape for the durable message store.
    pub segment: SegmentConfig,
    /// Seconds between durable checkpoints (store flush + nullifier
    /// snapshot + publish guard). Bounds how much rate-limit memory a
    /// crash can lose.
    pub checkpoint_secs: u64,
    /// Seed for the service's deterministic RNG (identity + proving).
    pub seed: u64,
}

impl ServiceConfig {
    /// Starts building a config rooted at `data_dir`.
    pub fn builder(data_dir: impl Into<PathBuf>) -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            data_dir: data_dir.into(),
            node: NodeConfig::default(),
            segment: SegmentConfig::default(),
            checkpoint: Duration::from_secs(30),
            seed: 1,
        }
    }
}

/// Builder for [`ServiceConfig`] — see [`ServiceConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder {
    data_dir: PathBuf,
    node: NodeConfig,
    segment: SegmentConfig,
    checkpoint: Duration,
    seed: u64,
}

impl ServiceConfigBuilder {
    /// Sets the node (validator) configuration.
    pub fn node(mut self, node: NodeConfig) -> Self {
        self.node = node;
        self
    }

    /// Sets the segment-log shape for the message store.
    pub fn segment(mut self, segment: SegmentConfig) -> Self {
        self.segment = segment;
        self
    }

    /// Sets the checkpoint interval (whole seconds, ≥ 1).
    pub fn checkpoint(mut self, interval: Duration) -> Self {
        self.checkpoint = interval;
        self
    }

    /// Sets the deterministic RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the invariants and produces the config.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when `data_dir` is empty or the
    /// checkpoint interval is zero or sub-second.
    pub fn build(self) -> Result<ServiceConfig, ServiceError> {
        if self.data_dir.as_os_str().is_empty() {
            return Err(ServiceError::InvalidConfig {
                field: "data_dir",
                reason: "must not be empty",
            });
        }
        if self.checkpoint.as_secs() == 0 || self.checkpoint.subsec_nanos() != 0 {
            return Err(ServiceError::InvalidConfig {
                field: "checkpoint",
                reason: "must be a whole number of seconds ≥ 1",
            });
        }
        let checkpoint_secs = self.checkpoint.as_secs();
        Ok(ServiceConfig {
            data_dir: self.data_dir,
            node: self.node,
            segment: self.segment,
            checkpoint_secs,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_invariants() {
        let field = |r: Result<ServiceConfig, ServiceError>| match r.unwrap_err() {
            ServiceError::InvalidConfig { field, .. } => field,
            other => panic!("expected InvalidConfig, got {other}"),
        };
        assert_eq!(field(ServiceConfig::builder("").build()), "data_dir");
        assert_eq!(
            field(
                ServiceConfig::builder("/tmp/x")
                    .checkpoint(Duration::ZERO)
                    .build()
            ),
            "checkpoint"
        );
        let ok = ServiceConfig::builder("/tmp/x").build().unwrap();
        assert_eq!(ok.checkpoint_secs, 30);
    }
}
