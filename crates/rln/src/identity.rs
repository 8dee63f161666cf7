//! RLN identities: the secret *identity key* `sk` and its public
//! *identity commitment* `pk = H(sk)` (paper §II-B).
//!
//! Both are single field elements — the paper's §IV notes each peer persists
//! "a 32 B public and secret key", which is exactly the canonical encoding
//! here.

use rand::Rng;
use waku_arith::fields::Fr;
use waku_arith::traits::{Field, PrimeField};
use waku_poseidon::poseidon1;

/// A peer's RLN identity (the secret key plus cached commitment).
#[derive(Clone, PartialEq, Eq)]
pub struct Identity {
    secret: Fr,
    commitment: Fr,
}

impl std::fmt::Debug for Identity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret.
        write!(f, "Identity(pk = {})", self.commitment)
    }
}

impl Identity {
    /// Samples a fresh identity.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_secret(Fr::random(rng))
    }

    /// Rebuilds an identity from its secret key.
    fn from_secret(secret: Fr) -> Self {
        Identity {
            secret,
            commitment: poseidon1(secret),
        }
    }

    /// The identity secret key `sk`.
    pub fn secret(&self) -> Fr {
        self.secret
    }

    /// The identity commitment `pk = H(sk)` registered on the contract.
    pub fn commitment(&self) -> Fr {
        self.commitment
    }

    /// Canonical 32-byte encoding of the secret key.
    pub fn secret_bytes(&self) -> [u8; 32] {
        self.secret.to_le_bytes()
    }

    /// Canonical 32-byte encoding of the commitment.
    pub fn commitment_bytes(&self) -> [u8; 32] {
        self.commitment.to_le_bytes()
    }

    /// Parses an identity from a 32-byte secret key encoding.
    ///
    /// Returns `None` when the bytes are not a canonical field element.
    #[cfg(test)]
    fn from_secret_bytes(bytes: &[u8; 32]) -> Option<Self> {
        Fr::from_le_bytes(bytes).map(Self::from_secret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn commitment_is_poseidon_of_secret() {
        let mut rng = StdRng::seed_from_u64(1);
        let id = Identity::random(&mut rng);
        assert_eq!(id.commitment(), poseidon1(id.secret()));
    }

    #[test]
    fn byte_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let id = Identity::random(&mut rng);
        let back = Identity::from_secret_bytes(&id.secret_bytes()).unwrap();
        assert_eq!(back, id);
        assert_eq!(back.commitment_bytes(), id.commitment_bytes());
    }

    #[test]
    fn keys_are_32_bytes() {
        // §IV: "Each peer persists a 32B public and secret keys".
        let mut rng = StdRng::seed_from_u64(3);
        let id = Identity::random(&mut rng);
        assert_eq!(id.secret_bytes().len(), 32);
        assert_eq!(id.commitment_bytes().len(), 32);
    }

    #[test]
    fn distinct_identities() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Identity::random(&mut rng);
        let b = Identity::random(&mut rng);
        assert_ne!(a.commitment(), b.commitment());
    }

    #[test]
    fn debug_hides_secret() {
        let id = Identity::from_secret(Fr::from_u64(424242));
        let printed = format!("{id:?}");
        assert!(!printed.contains("424242"));
    }
}
