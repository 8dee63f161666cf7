//! On-disk persistence for [`NullifierSnapshot`]s.
//!
//! The rate-limit state is the one piece of validator memory that must
//! survive a crash (§III-F: a rebooted router that forgot this epoch's
//! nullifiers would relay a spammer's second signal as fresh), so the
//! `waku-node` service checkpoints it alongside the message store. The
//! blob is a [`waku_wire::envelope`] written through
//! [`waku_wire::fs::atomic_write`], so a crash mid-checkpoint leaves
//! either the previous snapshot or none, never a torn one:
//!
//! ```text
//! "WAKURLNS" ‖ version:u32 ‖ |snapshot|:u32 ‖ snapshot
//!            ‖ fnv1a64(all previous bytes)
//! ```
//!
//! Like the key cache, any malformation parses to `None`: the caller
//! starts with an empty window, which fails *safe* — at worst one
//! double-signal inside the restart window goes unslashed; no honest
//! message is ever dropped because of a bad snapshot.

use std::path::Path;

use waku_wire::{envelope, put_bytes};

use crate::nullifier::NullifierSnapshot;

/// Blob magic: identifies a nullifier-snapshot file.
const MAGIC: &[u8; 8] = b"WAKURLNS";

/// Bumped on incompatible layout changes; stale versions are discarded,
/// not migrated (the window refills within `2·Thr + 1` epochs anyway).
const VERSION: u32 = 1;

/// Serializes a snapshot into a versioned, checksummed blob.
pub fn encode_snapshot(snapshot: &NullifierSnapshot) -> Vec<u8> {
    envelope::seal(MAGIC, VERSION, |out| put_bytes(out, &snapshot.to_bytes()))
}

/// Parses a blob produced by [`encode_snapshot`], enforcing magic,
/// version, framing, and the checksum. `None` for anything malformed.
pub fn decode_snapshot(bytes: &[u8]) -> Option<NullifierSnapshot> {
    let mut body = envelope::open(MAGIC, VERSION, bytes).ok()?;
    let payload = body.bytes().ok()?;
    body.finish().ok()?;
    NullifierSnapshot::from_bytes(payload)
}

/// Writes the snapshot blob to `path` through
/// [`waku_wire::fs::atomic_write`].
pub fn save_snapshot(path: &Path, snapshot: &NullifierSnapshot) -> std::io::Result<()> {
    waku_wire::fs::atomic_write(path, &encode_snapshot(snapshot))
}

/// Reads and validates a snapshot blob from `path`. Any I/O or format
/// problem yields `None` (the caller starts with an empty window).
pub fn load_snapshot(path: &Path) -> Option<NullifierSnapshot> {
    decode_snapshot(&waku_wire::fs::read(path).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nullifier::NullifierStore;
    use waku_arith::fields::Fr;
    use waku_arith::traits::PrimeField;

    fn populated_store() -> NullifierStore {
        let mut store = NullifierStore::new(2);
        store.advance_to(100);
        for epoch in 98..=100u64 {
            for k in 0..3u64 {
                let mut n = [0u8; 32];
                n[0] = epoch as u8;
                n[1] = k as u8;
                store.check_shares(
                    epoch,
                    n,
                    (Fr::from_u64(epoch * 10 + k), Fr::from_u64(k + 1)),
                );
            }
        }
        store
    }

    #[test]
    fn blob_roundtrip_and_rejections() {
        let snap = populated_store().snapshot();
        let blob = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&blob).as_ref(), Some(&snap));

        assert!(
            decode_snapshot(&blob[..blob.len() - 1]).is_none(),
            "truncated"
        );
        let mut flipped = blob.clone();
        flipped[20] ^= 1;
        assert!(
            decode_snapshot(&flipped).is_none(),
            "checksum catches flips"
        );
        let mut wrong_magic = blob.clone();
        wrong_magic[0] = b'X';
        assert!(decode_snapshot(&wrong_magic).is_none());
        assert!(decode_snapshot(&[]).is_none());
    }

    #[test]
    fn file_roundtrip_is_atomic_and_recoverable() {
        let dir = std::env::temp_dir().join(format!("waku-snap-{}", std::process::id()));
        let path = dir.join("nullifiers.snap");
        let store = populated_store();
        let snap = store.snapshot();
        save_snapshot(&path, &snap).unwrap();
        let loaded = load_snapshot(&path).expect("snapshot loads");
        assert_eq!(loaded, snap);
        // The restored store behaves identically.
        let restored = NullifierStore::restore(&loaded);
        assert_eq!(restored.current_epoch(), store.current_epoch());
        assert_eq!(restored.len(), store.len());
        // Overwrite with a newer snapshot: the rename replaces in place.
        let mut store2 = NullifierStore::restore(&snap);
        store2.advance_to(101);
        save_snapshot(&path, &store2.snapshot()).unwrap();
        assert_eq!(load_snapshot(&path).unwrap().current_epoch(), 101);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_byte_codec_rejects_window_violations() {
        let snap = populated_store().snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(NullifierSnapshot::from_bytes(&bytes).as_ref(), Some(&snap));
        // Trailing garbage is rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(NullifierSnapshot::from_bytes(&extended).is_none());
        // An epoch outside the snapshot's own window is rejected: patch
        // the first epoch (offset 28) to something far below `hi`.
        let mut patched = bytes.clone();
        patched[28..36].copy_from_slice(&1u64.to_le_bytes());
        assert!(NullifierSnapshot::from_bytes(&patched).is_none());
        // A hostile `max_gap` must not overflow `2 * max_gap + 1`: all
        // ones panicked debug builds, and `1 << 63` wrapped to a window
        // of 1 in release builds, was accepted, and then tripped the
        // assert in `NullifierStore::new` on restore.
        assert!(NullifierSnapshot::from_bytes(&[0xFF; 28]).is_none());
        let mut wrapping = [0u8; 28];
        wrapping[..8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        assert!(NullifierSnapshot::from_bytes(&wrapping).is_none());
    }
}
