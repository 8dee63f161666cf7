//! Service configuration, following the builder discipline of
//! [`NodeConfig`] — `#[non_exhaustive]` structs, a builder that holds
//! the config it builds, invariants validated once at `build()` into the
//! one [`ConfigError`].

use std::path::PathBuf;
use std::time::Duration;

use waku_relay::SegmentConfig;
use waku_rln_relay::{ConfigError, NodeConfig};

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
        let config = ServiceConfig {
            data_dir: data_dir.into(),
            node: NodeConfig::default(),
            segment: SegmentConfig::default(),
            checkpoint_secs: 30,
            seed: 1,
        };
        ServiceConfigBuilder {
            checkpoint: Duration::from_secs(config.checkpoint_secs),
            config,
        }
    }
}

/// Builder for [`ServiceConfig`] — see [`ServiceConfig::builder`]. It
/// holds the config it builds, plus the checkpoint interval as a
/// [`Duration`] until [`ServiceConfigBuilder::build`] checks it is whole
/// seconds.
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
    checkpoint: Duration,
}

impl ServiceConfigBuilder {
    /// Sets the node (validator) configuration.
    pub fn node(mut self, node: NodeConfig) -> Self {
        self.config.node = node;
        self
    }

    /// Sets the segment-log shape for the message store.
    pub fn segment(mut self, segment: SegmentConfig) -> Self {
        self.config.segment = segment;
        self
    }

    /// Sets the checkpoint interval (whole seconds, ≥ 1).
    pub fn checkpoint(mut self, interval: Duration) -> Self {
        self.checkpoint = interval;
        self
    }

    /// Sets the deterministic RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates the invariants and produces the config.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the field when `data_dir` is empty or the
    /// checkpoint interval is zero or sub-second.
    pub fn build(self) -> Result<ServiceConfig, ConfigError> {
        if self.config.data_dir.as_os_str().is_empty() {
            return Err(ConfigError::new("data_dir", "must not be empty"));
        }
        if self.checkpoint.as_secs() == 0 || self.checkpoint.subsec_nanos() != 0 {
            return Err(ConfigError::new(
                "checkpoint",
                "must be a whole number of seconds ≥ 1",
            ));
        }
        Ok(ServiceConfig {
            checkpoint_secs: self.checkpoint.as_secs(),
            ..self.config
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_invariants() {
        let field = |r: Result<ServiceConfig, ConfigError>| r.unwrap_err().field;
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
