//! The checksummed, versioned blob every crash-survival file is wrapped
//! in:
//!
//! ```text
//! magic[8] ‖ version:u32 ‖ body ‖ fnv1a64(all previous bytes)
//! ```
//!
//! A stale version or any corruption is an error the caller answers by
//! regenerating the file — nothing is ever migrated or guessed.

use crate::checksum::fnv1a64;
use crate::{put_u32, put_u64, CodecError, Reader};

/// Builds an envelope: `body` appends the format's own bytes between the
/// header and the checksum trailer.
pub fn seal(magic: &[u8; 8], version: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = magic.to_vec();
    put_u32(&mut out, version);
    body(&mut out);
    let checksum = fnv1a64(&out);
    put_u64(&mut out, checksum);
    out
}

/// Checks magic, checksum and version (in that order) and returns a
/// reader over the body.
pub fn open<'a>(magic: &[u8; 8], version: u32, blob: &'a [u8]) -> Result<Reader<'a>, CodecError> {
    let (sealed, trailer) = blob.split_at(blob.len().saturating_sub(8));
    let mut r = Reader::new(sealed);
    if r.array::<8>()? != *magic {
        return Err(CodecError::BadMagic);
    }
    if Reader::new(trailer).u64()? != fnv1a64(sealed) {
        return Err(CodecError::BadChecksum);
    }
    if r.u32()? != version {
        return Err(CodecError::BadVersion);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"WAKUTEST";

    #[test]
    fn seal_open_round_trip_and_rejections() {
        let blob = seal(MAGIC, 3, |out| out.extend_from_slice(b"body"));
        assert_eq!(blob.len(), 8 + 4 + 4 + 8);
        let mut body = open(MAGIC, 3, &blob).expect("round trip");
        assert_eq!(body.take(4), Ok(&b"body"[..]));
        assert_eq!(body.finish(), Ok(()));

        assert_eq!(
            open(b"WAKUELSE", 3, &blob).err(),
            Some(CodecError::BadMagic)
        );
        assert_eq!(open(MAGIC, 4, &blob).err(), Some(CodecError::BadVersion));
        let mut flipped = blob.clone();
        flipped[13] ^= 1;
        assert_eq!(
            open(MAGIC, 3, &flipped).err(),
            Some(CodecError::BadChecksum)
        );
        for cut in 0..blob.len() {
            assert!(open(MAGIC, 3, &blob[..cut]).is_err(), "cut at {cut}");
        }
    }
}
