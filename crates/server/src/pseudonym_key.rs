//! The §5 pseudonym-credential signing key: made on first use, kept on disk.
//!
//! No server start generates or loads the key. The first pseudonym request
//! loads it from the store's directory ([`KEY_FILE`]); when there is none,
//! that request generates it and writes it durably before anything signed
//! with it leaves the server. So a credential drawn before a restart
//! redeems after it, and a server start costs no keygen.
//!
//! The file is a store side file ([`Store::write_local`]): outside every
//! tree, so neither the WAL, snapshots nor replication carry it. A replica
//! never reaches it, because it refuses the pseudonym endpoints.

use std::sync::OnceLock;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use softrep_crypto::rsa::RsaKeypair;
use softrep_storage::Store;

/// Name of the key's side file in the store directory.
pub const KEY_FILE: &str = "PSEUDONYM_KEY";

/// The lazily loaded or generated signing key.
pub(crate) struct PseudonymKey {
    bits: u32,
    /// Seeds the keygen, drawn from the server RNG at construction: runs
    /// stay reproducible, and the keygen never holds the server RNG's lock.
    seed: u64,
    key: OnceLock<RsaKeypair>,
    /// Held by the one request that loads or generates the key, so
    /// concurrent first requests wait for that key instead of racing on
    /// the file. Only pseudonym requests ever take it.
    init: Mutex<()>,
}

impl PseudonymKey {
    /// A key of `bits` bits, generated from `seed` if the store has none.
    pub(crate) fn new(bits: u32, seed: u64) -> Self {
        PseudonymKey { bits, seed, key: OnceLock::new(), init: Mutex::new(()) }
    }

    /// The key: loaded from `store`, or generated and written to it, on
    /// the first call. `Err` carries why the key is unavailable; a key
    /// file that does not decode is an error, never a reason to make a new
    /// key, because a new key voids every credential the old one signed.
    pub(crate) fn get(&self, store: &Store) -> Result<&RsaKeypair, String> {
        if let Some(key) = self.key.get() {
            return Ok(key);
        }
        let _init = self.init.lock();
        if let Some(key) = self.key.get() {
            return Ok(key);
        }
        let stored =
            store.read_local(KEY_FILE).map_err(|e| format!("cannot read the key file: {e}"))?;
        let key = match stored {
            Some(bytes) => std::str::from_utf8(&bytes)
                .ok()
                .and_then(RsaKeypair::decode)
                .ok_or("the key file does not hold a valid key")?,
            None => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                let key = RsaKeypair::generate(self.bits.max(64), &mut rng);
                store
                    .write_local(KEY_FILE, key.encode().as_bytes())
                    .map_err(|e| format!("cannot write the key file: {e}"))?;
                key
            }
        };
        Ok(self.key.get_or_init(|| key))
    }
}
