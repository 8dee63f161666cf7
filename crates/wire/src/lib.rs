//! The one wire/persistence layer under every codec and on-disk file in
//! the workspace: a bounds-checked [`Reader`] with matching `put_*`
//! writers, one [`CodecError`], the two [`checksum`]s, the checksummed
//! blob [`envelope`], and the one filesystem surface [`fs`].
//!
//! Junk bytes cost an attacker nothing, so every decoder a relayer
//! exposes must be total and cheap: any input either decodes or returns a
//! [`CodecError`] — never a panic, never a read past the buffer, never an
//! allocation sized by a length prefix the remaining bytes cannot
//! satisfy. Those three properties live here once; the format-specific
//! codecs above only say *which* fields come in *what* order. Everything
//! is little-endian. Dependency-free by design.

pub mod checksum;
pub mod envelope;
pub mod fs;

/// Why a byte string failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced structure was complete.
    Truncated,
    /// A length or count field exceeded its bound or the bytes present.
    Oversized,
    /// A tag byte held an unknown value.
    BadTag(u8),
    /// Bytes remained after the structure was fully decoded.
    TrailingBytes,
    /// A string field was not UTF-8.
    BadUtf8,
    /// An envelope did not start with the expected magic.
    BadMagic,
    /// An envelope carried a version this build does not read.
    BadVersion,
    /// An envelope's checksum did not match its contents.
    BadChecksum,
    /// A field decoded but its value is out of range for the format.
    BadValue,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::Oversized => write!(f, "length field exceeds sanity bound"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after payload"),
            CodecError::BadUtf8 => write!(f, "string is not UTF-8"),
            CodecError::BadMagic => write!(f, "wrong magic"),
            CodecError::BadVersion => write!(f, "unsupported version"),
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
            CodecError::BadValue => write!(f, "field value out of range"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Sequential reader over a byte slice. Every accessor checks the
/// remaining length first, so decoding never reads out of bounds.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take(N) returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A `0`/`1` byte; anything else is [`CodecError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Admits an already-read item count `n` only if `n` items of at
    /// least `min_item_bytes` each fit in what is left — a corrupted
    /// count is [`CodecError::Oversized`] *before* anything is allocated.
    pub fn fits(&self, n: u64, min_item_bytes: usize) -> Result<usize, CodecError> {
        let need = n.saturating_mul(min_item_bytes.max(1) as u64);
        if need > self.buf.len() as u64 {
            return Err(CodecError::Oversized);
        }
        Ok(n as usize)
    }

    /// A `u32` item count, admitted through [`Reader::fits`].
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()?;
        self.fits(n.into(), min_item_bytes)
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// The next `n` bytes as UTF-8.
    pub fn str(&mut self, n: usize) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Succeeds only when every byte has been consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length or count as the `u32` that [`Reader::count`] reads.
///
/// # Panics
///
/// Panics if `n` does not fit a `u32` — no format here can carry it.
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("length fits u32"));
}

/// Appends a `u32`-length-prefixed byte string ([`Reader::bytes`]).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// The shared hostile-input generator behind the decoder-totality tests
/// (`tests/decoders_total.rs` and the in-crate suites of the private
/// decoders): every truncation of `sample`, every byte XORed with
/// `0x01`/`0x80`/`0xFF`, and every 4- and 8-byte window forced to all
/// ones (whatever length or count field lives there becomes
/// `u32::MAX`/`u64::MAX`). Samples over 4 KiB are visited at their first
/// and last 64 offsets plus ~256 evenly spaced ones.
#[doc(hidden)]
pub fn mutations(sample: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let len = sample.len();
    let step = if len <= 4096 { 1 } else { len / 256 };
    let offsets = move || (0..len).filter(move |i| *i < 64 || len - *i <= 64 || i % step == 0);
    let cuts = offsets().map(|n| sample[..n].to_vec());
    let flips = offsets().flat_map(move |i| {
        [0x01, 0x80, 0xFF].map(|mask| {
            let mut v = sample.to_vec();
            v[i] ^= mask;
            v
        })
    });
    let maxed = offsets().flat_map(move |i| {
        [4, 8].into_iter().filter_map(move |width| {
            let mut v = sample.to_vec();
            v.get_mut(i..i + width)?.fill(0xFF);
            Some(v)
        })
    });
    cuts.chain(flips).chain(maxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_and_reader_round_trip() {
        let mut out = vec![7u8, 1];
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_bytes(&mut out, b"abc");
        out.extend_from_slice("é".as_bytes());
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.bytes(), Ok(&b"abc"[..]));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes));
        assert_eq!(r.str(2), Ok("é"));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn reader_rejects_instead_of_over_reading_or_allocating() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        assert_eq!(r.remaining(), 3, "a failed read consumes nothing");
        assert_eq!(r.array::<3>(), Ok([1, 2, 3]));

        assert_eq!(Reader::new(&[2]).bool(), Err(CodecError::BadTag(2)));
        assert_eq!(Reader::new(&[0xFF, 0xFE]).str(2), Err(CodecError::BadUtf8));

        // A count the remaining bytes cannot satisfy is refused up front.
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&huge).count(1), Err(CodecError::Oversized));
        assert_eq!(Reader::new(&huge).bytes(), Err(CodecError::Oversized));
        let mut two = 2u32.to_le_bytes().to_vec();
        two.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&two).count(8), Ok(2));
        assert_eq!(Reader::new(&two).count(9), Err(CodecError::Oversized));
        assert_eq!(
            Reader::new(&two).fits(u64::MAX, 8),
            Err(CodecError::Oversized)
        );
    }

    #[test]
    fn mutations_cover_cuts_flips_and_maxed_fields() {
        let sample = [0u8; 10];
        let all: Vec<Vec<u8>> = mutations(&sample).collect();
        // 10 cuts + 10×3 flips + 7 four-byte + 3 eight-byte windows.
        assert_eq!(all.len(), 10 + 30 + 7 + 3);
        assert!(all.contains(&vec![]));
        assert!(all.contains(&vec![0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0]));
        assert!(all.contains(&vec![0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]));
        // Large samples are sampled, ends densely.
        let big = vec![0u8; 1 << 20];
        let cuts = mutations(&big).take_while(|m| m.len() < big.len()).count();
        assert!((64 + 64 + 200..64 + 64 + 300).contains(&cuts), "{cuts}");
    }
}
