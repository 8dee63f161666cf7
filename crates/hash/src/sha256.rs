//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used by the RLN layer to map arbitrary message bytes to the field
//! (`x = H(m)` in §II-B of the paper, once per message on every hop) and by
//! the Groth16 batch verifier's Fiat–Shamir transcript.
//!
//! The block compression has two bodies. On an x86_64 CPU with the SHA
//! extensions (Intel since Goldmont and Ice Lake, AMD since Zen; checked
//! at run time with `is_x86_feature_detected!`) it runs `sha256rnds2` /
//! `sha256msg1` / `sha256msg2`, about 6× faster on a 128-byte message. On
//! every other CPU it runs the portable integer code, which is also the
//! oracle the kernel is tested against. Both give the same digest bit for
//! bit.

/// Initial hash values (fractional parts of √ of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (fractional parts of ∛ of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use waku_hash::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), waku_hash::sha256::sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros up to byte 56 of a block, then the
        // message's bit length big-endian. A tail of 56 bytes or more has
        // no room for the length and spills into a second block.
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// One compression: the SHA-extension kernel where the CPU has it, the
/// portable body everywhere else. Both give the same state bit for bit.
#[inline]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the three features the kernel enables beyond the
        // x86_64 baseline (SSE2) were just detected on this CPU.
        unsafe { compress_sha_ni(state, block) };
        return;
    }
    compress_portable(state, block);
}

/// The FIPS 180-4 compression in plain integer code.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..(i + 1) * 4].try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The same compression on the x86 SHA extensions.
///
/// `sha256rnds2` runs two rounds on the working variables packed as
/// `ABEF` and `CDGH` (most significant lane first), taking `Wᵢ + Kᵢ` for
/// both rounds from the low two lanes of its third operand;
/// `sha256msg1` / `sha256msg2` compute four message-schedule words at a
/// time. The state is repacked from `[a, b, …, h]` on entry and back on
/// exit.
///
/// # Safety
///
/// The CPU must have the SHA, SSSE3 and SSE4.1 extensions (SSE2 is part of
/// x86_64).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use core::arch::x86_64::*;

    // SAFETY (both loads): a `&[_; N]` of 16 bytes is a valid unaligned
    // 16-byte read.
    let words = |v: &[u32; 4]| unsafe { _mm_loadu_si128(v.as_ptr().cast()) };
    let bytes = |v: &[u8; 16]| unsafe { _mm_loadu_si128(v.as_ptr().cast()) };
    let k = K.as_chunks::<4>().0;
    // Byte-swaps each 32-bit lane: the schedule words are big-endian.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // Lane names run most significant first: `dcba` holds `a` in lane 0.
    let halves = state.as_chunks::<4>().0;
    let cdab = _mm_shuffle_epi32::<0xB1>(words(&halves[0]));
    let efgh = _mm_shuffle_epi32::<0x1B>(words(&halves[1]));
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
    let (abef_in, cdgh_in) = (abef, cdgh);

    let mut w = [_mm_setzero_si128(); 4];
    for (wj, chunk) in w.iter_mut().zip(block.as_chunks::<16>().0) {
        *wj = _mm_shuffle_epi8(bytes(chunk), be_words);
    }
    for i in 0..16 {
        if i >= 4 {
            // W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16] for four t.
            let (w16, w12, w8, w4) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
            let t = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8::<4>(w4, w8));
            w[i % 4] = _mm_sha256msg2_epu32(t, w4);
        }
        let wk = _mm_add_epi32(w[i % 4], words(&k[i]));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }
    let abef = _mm_add_epi32(abef, abef_in);
    let cdgh = _mm_add_epi32(cdgh, cdgh_in);

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    let out = state.as_mut_ptr().cast::<__m128i>();
    // SAFETY: `state` is 32 bytes, two unaligned 16-byte writes.
    unsafe {
        _mm_storeu_si128(out, dcba);
        _mm_storeu_si128(out.add(1), hgfe);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// `len` bytes of `(7i + 3) mod 256`: never zero for long, so a
    /// misplaced padding zero cannot pass for data.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn padding_edges_known_answers() {
        // Lengths where the padding changes shape: empty, the longest tail
        // that still fits the length (55), the first that spills into a
        // second block (56, 63), block-aligned (64, 128) and the same edges
        // one block on (119, 120). Digests from Python's `hashlib.sha256`.
        let lens = [0, 55, 56, 63, 64, 119, 120, 128];
        let digests = [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
            "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
            "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6",
        ];
        for (len, want) in lens.into_iter().zip(digests) {
            assert_eq!(hex(&sha256(&pattern(len))), want, "length {len}");
        }
    }

    /// SHA-256 on the portable compression alone, padding built the
    /// textbook way: the oracle for whichever body `sha256` runs.
    fn portable_sha256(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.as_chunks::<64>().0 {
            compress_portable(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    #[test]
    fn dispatched_body_matches_portable_body() {
        // On a CPU with the SHA extensions `sha256` runs the kernel, so
        // this pins kernel == portable; elsewhere it pins the padding and
        // the incremental buffering.
        for len in 0..=300 {
            let data = pattern(len);
            let want = portable_sha256(&data);
            assert_eq!(sha256(&data), want, "length {len}");
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), want, "length {len}, split at {split}");
            }
        }
    }
}
