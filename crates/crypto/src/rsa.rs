//! RSA over [`crate::bignum`], including Chaum blind signatures.
//!
//! Built for the §5 pseudonym proposal ("investigate how pseudonyms could
//! be used as a way to protect user privacy and anonymity, e.g. through
//! the use of idemix"): the reputation server blind-signs pseudonym
//! tokens for verified members, so a redeemed token proves membership
//! without revealing *which* member — the unlinkability idemix provides,
//! realised with the classic Chaum construction.
//!
//! Signing uses the full-domain-hash style `SHA-256(message)` as the RSA
//! input (adequate for the 32-byte random tokens this scheme signs;
//! general-purpose RSA-PSS padding is out of scope and documented as
//! such).

use rand::Rng;

use crate::bignum::BigUint;
use crate::sha256::Sha256;

/// The public (verification) half of an RSA key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus `n = p·q`.
    pub n: BigUint,
    /// Public exponent (65537).
    pub e: BigUint,
}

/// A full RSA keypair.
#[derive(Debug, Clone)]
pub struct RsaKeypair {
    public: RsaPublicKey,
    d: BigUint,
}

/// First line of [`RsaKeypair::encode`]'s text.
const KEYPAIR_HEADER: &str = "softrep-rsa-keypair v1";

/// An RSA signature (the value `s = m^d mod n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaSignature(pub BigUint);

impl RsaKeypair {
    /// Generate a keypair with a modulus of `bits` bits (two `bits/2`
    /// primes). 1024 is the experiment default; tests use smaller keys.
    pub fn generate(bits: u32, rng: &mut impl Rng) -> Self {
        assert!(bits >= 64, "modulus below 64 bits is meaningless");
        let e = BigUint::from_u64(65_537);
        loop {
            let p = BigUint::gen_prime(bits / 2, rng);
            let q = BigUint::gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let Some(d) = e.mod_inverse(&phi) else { continue };
            return RsaKeypair { public: RsaPublicKey { n, e }, d };
        }
    }

    /// The verification key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Sign `message` (hashed internally).
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let m = hash_to_group(message, &self.public.n);
        RsaSignature(m.mod_exp(&self.d, &self.public.n))
    }

    /// Apply the private exponent to a raw group element — the server-side
    /// step of blind signing (the server never sees the message).
    pub fn sign_raw(&self, blinded: &BigUint) -> BigUint {
        blinded.rem(&self.public.n).mod_exp(&self.d, &self.public.n)
    }

    /// Encode the keypair, private exponent included, as text: a header
    /// line, then `n`, `e` and `d` in hex, one per line. The text is as
    /// secret as the key.
    pub fn encode(&self) -> String {
        format!(
            "{KEYPAIR_HEADER}\nn {}\ne {}\nd {}\n",
            self.public.n.to_hex(),
            self.public.e.to_hex(),
            self.d.to_hex()
        )
    }

    /// Decode [`RsaKeypair::encode`]'s text. `None` unless every line
    /// parses and a signature made with the decoded private exponent
    /// verifies under the decoded public key, so a torn or altered
    /// encoding never yields a key that signs garbage.
    pub fn decode(text: &str) -> Option<Self> {
        let mut lines = text.lines();
        if lines.next()? != KEYPAIR_HEADER {
            return None;
        }
        let mut field = |name: &str| {
            let line = lines.next()?;
            BigUint::from_hex(line.strip_prefix(name)?.strip_prefix(' ')?)
        };
        let (n, e, d) = (field("n")?, field("e")?, field("d")?);
        if lines.next().is_some() || n.bits() < 64 {
            return None;
        }
        let key = RsaKeypair { public: RsaPublicKey { n, e }, d };
        let probe = b"softrep keypair self-check";
        key.public.verify(probe, &key.sign(probe)).then_some(key)
    }
}

impl RsaPublicKey {
    /// Verify `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &RsaSignature) -> bool {
        if signature.0.cmp_ref(&self.n) != std::cmp::Ordering::Less {
            return false;
        }
        let expected = hash_to_group(message, &self.n);
        signature.0.mod_exp(&self.e, &self.n) == expected
    }
}

/// Map a message into Z_n via SHA-256 (full-domain-hash style, single
/// block — sufficient for ≥512-bit moduli over 256-bit digests).
fn hash_to_group(message: &[u8], n: &BigUint) -> BigUint {
    BigUint::from_bytes_be(&Sha256::digest(message)).rem(n)
}

/// Client-side state of one blind-signing exchange.
pub struct BlindingSession {
    r: BigUint,
    message: Vec<u8>,
    public: RsaPublicKey,
}

impl BlindingSession {
    /// Blind `message` under `public`: returns the session (keep private)
    /// and the blinded element to send to the signer.
    ///
    /// Blinding: `m' = m · r^e mod n` for random invertible `r` — the
    /// signer sees a uniformly random group element.
    pub fn blind(message: &[u8], public: &RsaPublicKey, rng: &mut impl Rng) -> (Self, BigUint) {
        let m = hash_to_group(message, &public.n);
        let r = loop {
            let candidate = BigUint::random_below(&public.n, rng);
            if !candidate.is_zero() && candidate.gcd(&public.n) == BigUint::one() {
                break candidate;
            }
        };
        let blinded = m.mul_mod(&r.mod_exp(&public.e, &public.n), &public.n);
        (BlindingSession { r, message: message.to_vec(), public: public.clone() }, blinded)
    }

    /// Unblind the signer's response: `s = s' · r⁻¹ mod n` is a valid
    /// signature on the original message. Returns `None` when the signer
    /// responded with garbage (the unblinded value fails verification).
    pub fn unblind(self, blind_signature: &BigUint) -> Option<RsaSignature> {
        let r_inv = self.r.mod_inverse(&self.public.n)?;
        let signature = RsaSignature(blind_signature.mul_mod(&r_inv, &self.public.n));
        self.public.verify(&self.message, &signature).then_some(signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> RsaKeypair {
        // 256-bit keys keep debug-mode tests fast; the scheme is
        // size-agnostic and the experiments use 1024.
        let mut rng = StdRng::seed_from_u64(1);
        RsaKeypair::generate(256, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let sig = kp.sign(b"pseudonym token 42");
        assert!(kp.public_key().verify(b"pseudonym token 42", &sig));
        assert!(!kp.public_key().verify(b"pseudonym token 43", &sig));
    }

    #[test]
    fn signatures_do_not_transfer_between_keys() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp1 = RsaKeypair::generate(256, &mut rng);
        let kp2 = RsaKeypair::generate(256, &mut rng);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn encoded_keypairs_decode_to_the_same_key() {
        let kp = keypair();
        let decoded = RsaKeypair::decode(&kp.encode()).expect("round trip");
        assert_eq!(decoded.public_key(), kp.public_key());
        assert_eq!(decoded.sign(b"msg"), kp.sign(b"msg"));
    }

    #[test]
    fn torn_or_altered_encodings_do_not_decode() {
        let text = keypair().encode();
        for cut in [0, 10, text.len() / 2, text.len() - 2] {
            assert!(RsaKeypair::decode(&text[..cut]).is_none(), "cut at {cut}");
        }
        // A different private exponent fails the self-signature check.
        let other = RsaKeypair::generate(256, &mut StdRng::seed_from_u64(9));
        let d_line = |t: &str| t.lines().last().unwrap().to_string();
        let swapped = text.replace(&d_line(&text), &d_line(&other.encode()));
        assert!(RsaKeypair::decode(&swapped).is_none());
        assert!(RsaKeypair::decode(&format!("{text}extra\n")).is_none());
        assert!(RsaKeypair::decode("softrep-rsa-keypair v1\nn 0\ne 0\nd 0\n").is_none());
    }

    #[test]
    fn oversized_signature_values_are_rejected() {
        let kp = keypair();
        let huge = RsaSignature(kp.public_key().n.add(&BigUint::one()));
        assert!(!kp.public_key().verify(b"msg", &huge));
    }

    #[test]
    fn blind_signature_roundtrip_and_unlinkability_shape() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(3);

        let token = b"random-pseudonym-token-bytes";
        let (session, blinded) = BlindingSession::blind(token, kp.public_key(), &mut rng);

        // What the signer sees is not the hashed message…
        let m = hash_to_group(token, &kp.public_key().n);
        assert_ne!(blinded, m, "blinding must hide the message");

        // …yet the unblinded result verifies as a plain signature.
        let blind_sig = kp.sign_raw(&blinded);
        let signature = session.unblind(&blind_sig).expect("valid signature");
        assert!(kp.public_key().verify(token, &signature));
        // And equals the signature the signer would have produced directly
        // (determinism of RSA: s = m^d).
        assert_eq!(signature, kp.sign(token));
    }

    #[test]
    fn two_blindings_of_the_same_token_look_unrelated() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(4);
        let (_, blinded1) = BlindingSession::blind(b"tok", kp.public_key(), &mut rng);
        let (_, blinded2) = BlindingSession::blind(b"tok", kp.public_key(), &mut rng);
        assert_ne!(blinded1, blinded2, "fresh randomness per blinding");
    }

    #[test]
    fn garbage_blind_response_is_rejected() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(5);
        let (session, _) = BlindingSession::blind(b"tok", kp.public_key(), &mut rng);
        assert!(session.unblind(&BigUint::from_u64(12_345)).is_none());
    }
}
