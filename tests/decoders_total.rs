//! Decoder totality: all 8 publicly reachable decoders in the workspace,
//! one table, one mutation generator (`waku_wire::mutations`). The two
//! private decoders — `node::service::decode_guard` and
//! `relay::segment::scan_segment` — run the same loop over the same
//! generator in their in-crate tests.
//!
//! For each `(name, valid sample, decode fn)` row:
//!
//! * **golden bytes** — the encoder still produces exactly the bytes it
//!   produced before every codec moved onto `waku-wire` (literals and
//!   fingerprints captured at the parent commit — except the three rows
//!   whose format has changed on purpose since: the toy constraint-system
//!   shape's hex, the RLN template shape's fingerprint and the fingerprint
//!   of the `keys.bin` that embeds it, re-pinned when the shape became
//!   sparse rows and again at shape layout 3, which writes each distinct
//!   combination once), and the decoder reads them back to the same
//!   bytes;
//! * **totality** — under every truncation, single-byte flip and
//!   maxed-out 4/8-byte window the decoder never panics and never
//!   over-reads, and returns either `None`/`Err` or a value that
//!   re-encodes to exactly the mutated bytes (nothing is silently
//!   truncated, wrapped or defaulted).
//!
//! Integer overflow behaves differently per profile, so CI runs this
//! suite under both `cargo test` and `cargo test --release`: the
//! `NullifierSnapshot` row used to panic in one and mis-accept in the
//! other.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_suite::arith::fields::Fr;
use waku_suite::arith::traits::PrimeField;
use waku_suite::relay::WakuMessage;
use waku_suite::rln::keycache::{decode_keys, encode_keys};
use waku_suite::rln::snapshot_io::{decode_snapshot, encode_snapshot};
use waku_suite::rln::{Identity, NullifierSnapshot, NullifierStore, RlnMessageBundle, RlnProver};
use waku_suite::snark::serialize::{
    cs_shape_from_bytes, cs_shape_to_bytes, pk_from_bytes, pk_to_bytes,
};
use waku_suite::snark::{prove, setup, ConstraintSystem, Proof};
use waku_suite::wire::checksum::fnv1a64;
use waku_suite::wire::mutations;

/// What the parent commit's encoder produced for a row's sample.
enum Golden {
    /// The exact bytes.
    Hex(&'static str),
    /// Length and checksum, for encodings too long to spell out.
    Fingerprint { len: usize, fnv1a64: u64 },
}

struct Row {
    name: &'static str,
    sample: Vec<u8>,
    golden: Golden,
    /// Decodes and re-encodes; `None` when the bytes are rejected.
    decode: fn(&[u8]) -> Option<Vec<u8>>,
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex literal"))
        .collect()
}

const KEY_DEPTH: usize = 3;

fn toy_cs() -> ConstraintSystem {
    let mut cs = ConstraintSystem::new();
    let out = cs.alloc_input(Fr::from_u64(12));
    let a = cs.alloc_witness(Fr::from_u64(3));
    let b = cs.alloc_witness(Fr::from_u64(4));
    cs.enforce(a, b, out);
    cs.finalize();
    cs
}

fn sample_nullifiers() -> NullifierSnapshot {
    let mut store = NullifierStore::new(2);
    store.advance_to(100);
    for (epoch, k) in [(98u64, 0u64), (100, 1)] {
        let mut n = [0u8; 32];
        n[0] = epoch as u8;
        n[1] = k as u8;
        store.check_shares(
            epoch,
            n,
            (Fr::from_u64(epoch * 10 + k), Fr::from_u64(k + 1)),
        );
    }
    store.snapshot()
}

/// A decoded snapshot must also be *restorable*: the release-profile
/// half of the old overflow was accepted here and only blew up in
/// `NullifierStore::restore`.
fn decode_nullifiers(bytes: &[u8]) -> Option<Vec<u8>> {
    let snapshot = NullifierSnapshot::from_bytes(bytes)?;
    assert_eq!(
        NullifierStore::restore(&snapshot).current_epoch(),
        snapshot.current_epoch()
    );
    Some(snapshot.to_bytes())
}

/// The table: one row per public decoder, 8 in all (the shape decoder
/// has a second, larger sample).
fn rows() -> Vec<Row> {
    let cs = toy_cs();
    let pk = setup(&cs, &mut StdRng::seed_from_u64(31));
    let proof = prove(&pk, &cs, &mut StdRng::seed_from_u64(32)).expect("toy proof");

    let mut rng = StdRng::seed_from_u64(41);
    let (prover, _) = RlnProver::keygen(KEY_DEPTH, &mut rng);
    let template = waku_suite::rln::circuit::build_for_setup(KEY_DEPTH);
    let identity = Identity::random(&mut rng);
    let zeros = waku_suite::merkle::zeros::zero_hashes(KEY_DEPTH);
    let path = waku_suite::merkle::MerklePath {
        index: 0,
        siblings: zeros[..KEY_DEPTH].to_vec(),
    };
    let bundle = prover
        .prove_message(
            &identity,
            &path,
            b"golden",
            77,
            &mut StdRng::seed_from_u64(9),
        )
        .expect("bundle");

    vec![
        Row {
            name: "snark::serialize proving key",
            sample: pk_to_bytes(&pk),
            golden: Golden::Fingerprint {
                len: 2072,
                fnv1a64: 0x12ea_c591_3061_d67a,
            },
            decode: |b| Some(pk_to_bytes(&pk_from_bytes(b)?)),
        },
        Row {
            name: "snark::serialize constraint-system shape",
            sample: cs_shape_to_bytes(&cs),
            // Shape layout 3 (counts, the coefficient table, the table of
            // distinct combinations, then each matrix's combination ids),
            // spelled out from the layout rather than captured from the
            // encoder. Row 2 (finalize's `out · 0 = 0`) reuses row 0's C.
            golden: Golden::Hex(concat!(
                "02000000",
                "02000000",
                "01000000",
                "0100000000000000000000000000000000000000000000000000000000000000",
                "05000000",
                "0100000002000000030000000400000004000000",
                "04000000",
                "0200000000000000030000000000000001000000000000000000000000000000",
                "03000000",
                "000000000300000002000000",
                "010000000400000004000000",
                "020000000400000004000000",
            )),
            decode: |b| Some(cs_shape_to_bytes(&cs_shape_from_bytes(b)?)),
        },
        // The same decoder over a real template: 748 table entries and
        // ≈ 10⁴ row ends for the mutations to land in, where the toy
        // shape above has one and nine.
        Row {
            name: "snark::serialize RLN template shape",
            sample: cs_shape_to_bytes(&template),
            // Layout 3: this fingerprint is this commit's.
            golden: Golden::Fingerprint {
                len: 159560,
                fnv1a64: 0x7de8_390a_c766_167e,
            },
            decode: |b| Some(cs_shape_to_bytes(&cs_shape_from_bytes(b)?)),
        },
        Row {
            name: "rln::keycache blob (keys.bin)",
            sample: encode_keys(KEY_DEPTH, prover.proving_key(), &template),
            // Envelope version 3 (shape layout 3, then the key, neither
            // length-prefixed): this fingerprint is this commit's.
            golden: Golden::Fingerprint {
                len: 745912,
                fnv1a64: 0xfdd7_f2b2_5bd0_4f04,
            },
            decode: |b| {
                let (pk, template) = decode_keys(b, KEY_DEPTH)?;
                Some(encode_keys(KEY_DEPTH, &pk, &template))
            },
        },
        Row {
            name: "rln::snapshot_io blob (nullifiers.snap)",
            sample: encode_snapshot(&sample_nullifiers()),
            golden: Golden::Fingerprint {
                len: 268,
                fnv1a64: 0x7710_a8d1_ac52_a29d,
            },
            decode: |b| Some(encode_snapshot(&decode_snapshot(b)?)),
        },
        Row {
            name: "relay::WakuMessage",
            sample: WakuMessage::new(b"hi".to_vec(), "/app/1/chat/proto", 1_644_810_116).to_bytes(),
            golden: Golden::Hex(
                "020000006869110000002f6170702f312f636861742f70726f746f84cf09620000000000000000",
            ),
            decode: |b| Some(WakuMessage::from_bytes(b)?.to_bytes()),
        },
        Row {
            name: "rln::RlnMessageBundle",
            sample: bundle.to_bytes(),
            golden: Golden::Fingerprint {
                len: 370,
                fnv1a64: 0x8f1c_0870_f849_7beb,
            },
            decode: |b| Some(RlnMessageBundle::from_bytes(b)?.to_bytes()),
        },
        Row {
            name: "rln::NullifierSnapshot",
            sample: sample_nullifiers().to_bytes(),
            golden: Golden::Hex(concat!(
                "02000000000000006400000000000000000000000000000002000000620000000000000001000000",
                "6200000000000000000000000000000000000000000000000000000000000000d403000000000000",
                "00000000000000000000000000000000000000000000000001000000000000000000000000000000",
                "00000000000000000000000000000000640000000000000001000000640100000000000000000000",
                "0000000000000000000000000000000000000000e903000000000000000000000000000000000000",
                "00000000000000000000000002000000000000000000000000000000000000000000000000000000",
                "00000000",
            )),
            decode: decode_nullifiers,
        },
        Row {
            name: "snark::Proof",
            sample: proof.to_bytes().to_vec(),
            golden: Golden::Hex(concat!(
                "ff96030fb96446b56de4a351e7e3d0195d7dfd75efb1abbba2b24cc13bbe7421bf49667c4851101e",
                "c487def513deb7fbbedcd28b25e2d8481fc1986150fa301c52c006b1393f1fdab3c56f818839f2d4",
                "6c0268b56a874c111a993656ddc9cb20db18f30a7fb3f3baa221d2d990ff42021c7f239c62281ff5",
                "55d418373083021487ec60dd768bc3f7c8bd91217c6a49fab2078ff52936abc80c4e836edcf25102",
                "88e20ed5cf297b78780b67cdfb9ce0c1c24cd06f500766bdc9da976f8fab4c1757c603b6aeed9f25",
                "628b8d423dae43fbb02b53cbdb54810d803793ae76be761fb6aa75a457c67cb56332e82381c031de",
                "6be2dc1e54e18f49d72b7b4c2b0ced1a",
            )),
            decode: |b| Some(Proof::from_bytes(b.try_into().ok()?)?.to_bytes().to_vec()),
        },
    ]
}

#[test]
fn encodings_are_byte_identical_to_the_parent_commit() {
    for row in rows() {
        match row.golden {
            Golden::Hex(hex) => assert_eq!(row.sample, unhex(hex), "{}", row.name),
            Golden::Fingerprint { len, fnv1a64: sum } => {
                assert_eq!(
                    (row.sample.len(), fnv1a64(&row.sample)),
                    (len, sum),
                    "{}",
                    row.name
                );
            }
        }
        assert_eq!(
            (row.decode)(&row.sample).as_ref(),
            Some(&row.sample),
            "{}: decode ∘ encode must be the identity on bytes",
            row.name
        );
    }
}

#[test]
fn every_decoder_is_total_under_mutation() {
    for row in rows() {
        for mutated in mutations(&row.sample) {
            match (row.decode)(&mutated) {
                None => {}
                // Every format is length-delimited: no strict prefix of a
                // valid encoding is itself valid.
                Some(_) if mutated.len() < row.sample.len() => {
                    panic!("{}: accepted a {}-byte prefix", row.name, mutated.len())
                }
                Some(reencoded) => assert_eq!(
                    reencoded, mutated,
                    "{}: accepted bytes must re-encode to themselves",
                    row.name
                ),
            }
        }
    }
}

/// The two inputs that exposed `2 * max_gap + 1` on an attacker-supplied
/// `u64`: all ones (multiply overflow, a panic in debug/test builds) and
/// `max_gap = 1 << 63` (wraps to a window of 1 in release builds, used
/// to be accepted and then tripped the assert in `NullifierStore::new`).
#[test]
fn nullifier_snapshot_rejects_overflowing_windows() {
    assert!(decode_nullifiers(&[0xFF; 28]).is_none());
    let mut wrapping = [0u8; 28];
    wrapping[..8].copy_from_slice(&(1u64 << 63).to_le_bytes());
    assert!(decode_nullifiers(&wrapping).is_none());
}

/// The circuit a depth-6 ceremony is run over and the proof a seeded
/// publisher makes with it, pinned from the commit before the constraint
/// system moved to sparse rows: constraint order, variable numbering and
/// coefficient values all feed the key, so any drift in the frozen form
/// shows here as different bytes.
#[test]
fn seeded_ceremony_and_proof_match_the_nested_vec_representation() {
    const DEPTH: usize = 6;
    let mut rng = StdRng::seed_from_u64(23);
    let (prover, verifier) = RlnProver::keygen(DEPTH, &mut rng);
    assert_eq!(
        waku_suite::hash::sha256(&pk_to_bytes(prover.proving_key())).to_vec(),
        unhex("7e8a40fc67163527c480d82f03fc81e92caddf3d73d6b4dd8a1ce9a2d9c17eb3")
    );

    let identity = Identity::random(&mut rng);
    let path = waku_suite::merkle::MerklePath {
        index: 0,
        siblings: waku_suite::merkle::zeros::zero_hashes(DEPTH)[..DEPTH].to_vec(),
    };
    let bundle = prover
        .prove_message(&identity, &path, b"golden", 77, &mut rng)
        .expect("bundle");
    assert!(verifier.verify_bundle(&bundle));
    assert_eq!(
        bundle.proof.to_bytes().to_vec(),
        unhex(concat!(
            "fece02caa51c88fb2b429d7e77cad8284ca577ab96a64bca3f36bd51b786161d0ab113f09f789850",
            "094eab9943db582fe81488ca1382f11ed8af4dc2358ab6242c8aecf55812ba5f804a4a032b48a256",
            "62bbb8e9c0bf4b76683bb88d9d68082116fcbbd87ee22e24d7f447981fc986237c4b3d20b03bce96",
            "05dd95944196e4138bcde8a3238a45f6e6ac759ee49c3b3eadf5733434914bc331e435cea27d4820",
            "df98f5408ab1de2378128476c316ef7ec6517a4d633a64187e6b25cdff1c051b9f9726b0a90cd5a9",
            "94cf1b52f5e0dad32366fc47061861c8d4043f380b3e801ced11924963c8a16a5e93de05d0c3cde3",
            "23619e298e0a596cd4a082612402db2c",
        ))
    );
}
