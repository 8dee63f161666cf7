//! The service's single top-level error type.
//!
//! Every fallible layer below the service — config builders, the storage
//! backend, node operations, raw I/O — already reports through a
//! `#[non_exhaustive]` error with a `Display` sentence and a `source()`
//! chain. [`ServiceError`] wraps each of them behind one enum with
//! `From` impls, so service code is plain `?` and a caller printing
//! `error: {e}` (walking `source()` for the cause chain) sees the whole
//! story regardless of which layer failed.

use waku_relay::StorageError;
use waku_rln_relay::{ConfigError, NodeError};

/// Errors from opening or running the relayer service.
///
/// `#[non_exhaustive]`: match with a wildcard arm.
#[non_exhaustive]
#[derive(Debug)]
pub enum ServiceError {
    /// A service, node or batch configuration invariant was rejected.
    Config(ConfigError),
    /// The persistent store failed (I/O or corruption).
    Storage(StorageError),
    /// A node operation failed (proving, restore, rate limit).
    Node(NodeError),
    /// Raw I/O outside the storage backend (checkpoint files, sockets).
    Io(std::io::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "configuration rejected: {e}"),
            ServiceError::Storage(e) => write!(f, "persistent store failed: {e}"),
            ServiceError::Node(e) => write!(f, "node operation failed: {e}"),
            ServiceError::Io(e) => write!(f, "i/o failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(match self {
            ServiceError::Config(e) => e,
            ServiceError::Storage(e) => e,
            ServiceError::Node(e) => e,
            ServiceError::Io(e) => e,
        })
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> Self {
        ServiceError::Storage(e)
    }
}

impl From<NodeError> for ServiceError {
    fn from(e: NodeError) -> Self {
        ServiceError::Node(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn sources_chain_through_every_layer() {
        let storage: ServiceError = StorageError::Io(std::io::Error::other("disk gone")).into();
        // ServiceError -> StorageError -> io::Error: two hops of cause.
        let cause = storage.source().expect("storage cause");
        assert!(cause.source().is_some(), "io cause below storage");
        assert!(storage.to_string().starts_with("persistent store failed"));

        let node: ServiceError = NodeError::from(waku_snark::SnarkError::NotFinalized).into();
        assert!(node.source().expect("node cause").source().is_some());

        let cfg: ServiceError = waku_rln_relay::BatchConfig::builder()
            .max_batch(0)
            .build()
            .unwrap_err()
            .into();
        assert!(cfg.to_string().contains("max_batch"));
    }
}
