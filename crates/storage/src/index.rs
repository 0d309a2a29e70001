//! Secondary indexes maintained transactionally with their base table.
//!
//! An [`IndexedTable`] wraps a base tree plus any number of index trees.
//! Index entries are `(secondary_key, primary_key) → ()` rows; uniqueness
//! (at most one primary key per secondary key) is optionally enforced at
//! write time. The reputation server uses a **unique** index on the hashed
//! e-mail address to implement §3.2's "it is possible to sign up only once
//! per e-mail address", and non-unique indexes for vendor → software
//! lookups.
//!
//! All maintenance happens inside a single [`WriteBatch`], so a crash can
//! never leave an index pointing at a missing record or vice versa.

use std::sync::Arc;

use crate::batch::WriteBatch;
use crate::codec::{Decode, Encode};
use crate::error::{StorageError, StorageResult};
use crate::store::Store;
use crate::table::KeyCodec;

/// How an index treats multiple records with the same secondary key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Any number of primary keys may share a secondary key.
    NonUnique,
    /// At most one primary key per secondary key; violations fail the write.
    Unique,
}

/// Definition of one secondary index over records of type `V`.
pub struct IndexDef<K, V> {
    /// Tree that stores the index rows.
    pub tree: &'static str,
    /// Enforcement mode.
    pub kind: IndexKind,
    /// Extracts the secondary keys for a record (empty = not indexed).
    pub extract: fn(&K, &V) -> Vec<Vec<u8>>,
}

/// A typed table with transactionally-maintained secondary indexes.
pub struct IndexedTable<K, V> {
    store: Arc<Store>,
    tree: &'static str,
    indexes: Vec<IndexDef<K, V>>,
}

impl<K: KeyCodec + Clone, V: Encode + Decode> IndexedTable<K, V> {
    /// Create a table on `tree` with the given index definitions.
    pub fn new(store: Arc<Store>, tree: &'static str, indexes: Vec<IndexDef<K, V>>) -> Self {
        IndexedTable { store, tree, indexes }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The base tree name.
    pub fn tree(&self) -> &'static str {
        self.tree
    }

    /// Insert or overwrite `value` at `key`, updating every index; fails
    /// with [`StorageError::UniqueViolation`] if a unique index would gain
    /// a second primary key, in which case **nothing** is written.
    pub fn put(&self, key: &K, value: &V) -> StorageResult<()> {
        let key_bytes = key.to_key_bytes();
        let old: Option<V> = match self.store.get(self.tree, &key_bytes) {
            Some(raw) => Some(V::decode_from_bytes(&raw)?),
            None => None,
        };

        let mut batch = WriteBatch::new();
        for idx in &self.indexes {
            let new_keys = (idx.extract)(key, value);
            // Unique check before any mutation: a conflicting row must
            // belong to a *different* primary key.
            if idx.kind == IndexKind::Unique {
                for sk in &new_keys {
                    for (row_key, _) in self.store.scan_prefix(idx.tree, &prefix_of(sk)) {
                        let existing_pk = primary_of(&row_key, sk);
                        if existing_pk != key_bytes.as_slice() {
                            return Err(StorageError::UniqueViolation {
                                index: idx.tree.to_string(),
                                key: hex_preview(sk),
                            });
                        }
                    }
                }
            }
            if let Some(old_value) = &old {
                for sk in (idx.extract)(key, old_value) {
                    batch.delete(idx.tree, index_row_key(&sk, &key_bytes));
                }
            }
            for sk in &new_keys {
                batch.put(idx.tree, index_row_key(sk, &key_bytes), Vec::new());
            }
        }
        batch.put(self.tree, key_bytes, value.encode_to_bytes().to_vec());
        self.store.apply(&batch)
    }

    /// Remove the record at `key` together with its index rows.
    pub fn remove(&self, key: &K) -> StorageResult<()> {
        let key_bytes = key.to_key_bytes();
        let Some(raw) = self.store.get(self.tree, &key_bytes) else { return Ok(()) };
        let old = V::decode_from_bytes(&raw)?;

        let mut batch = WriteBatch::new();
        for idx in &self.indexes {
            for sk in (idx.extract)(key, &old) {
                batch.delete(idx.tree, index_row_key(&sk, &key_bytes));
            }
        }
        batch.delete(self.tree, key_bytes);
        self.store.apply(&batch)
    }

    /// Fetch the record at `key`.
    pub fn get(&self, key: &K) -> StorageResult<Option<V>> {
        match self.store.get(self.tree, &key.to_key_bytes()) {
            None => Ok(None),
            Some(raw) => Ok(Some(V::decode_from_bytes(&raw)?)),
        }
    }

    /// True if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.store.contains(self.tree, &key.to_key_bytes())
    }

    /// Primary keys whose records produced `secondary` in index `tree`.
    pub fn lookup(&self, index_tree: &str, secondary: &[u8]) -> StorageResult<Vec<K>> {
        let rows = self.store.scan_prefix(index_tree, &prefix_of(secondary));
        let mut out = Vec::with_capacity(rows.len());
        for (row_key, _) in rows {
            let pk_bytes = primary_of(&row_key, secondary);
            let pk = K::from_key_bytes(pk_bytes).ok_or_else(|| {
                StorageError::Decode(format!("malformed primary key in index {index_tree}"))
            })?;
            out.push(pk);
        }
        Ok(out)
    }

    /// Records (not just keys) matching `secondary` in `index_tree`.
    pub fn lookup_records(&self, index_tree: &str, secondary: &[u8]) -> StorageResult<Vec<(K, V)>> {
        let mut out = Vec::new();
        for pk in self.lookup(index_tree, secondary)? {
            if let Some(v) = self.get(&pk)? {
                out.push((pk, v));
            }
        }
        Ok(out)
    }

    /// All `(key, record)` pairs in key order.
    pub fn scan(&self) -> StorageResult<Vec<(K, V)>> {
        let mut out = Vec::new();
        for (k, v) in self.store.scan_all(self.tree) {
            let key = K::from_key_bytes(&k).ok_or_else(|| {
                StorageError::Decode(format!("malformed key in tree {}", self.tree))
            })?;
            out.push((key, V::decode_from_bytes(&v)?));
        }
        Ok(out)
    }

    /// Number of records in the base tree.
    pub fn len(&self) -> usize {
        self.store.tree_len(self.tree)
    }

    /// True when the base tree has no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Index rows are `escaped(secondary) ++ primary`; the escape terminator
/// makes the secondary component self-delimiting.
fn index_row_key(secondary: &[u8], primary: &[u8]) -> Vec<u8> {
    let mut out = prefix_of(secondary);
    out.extend_from_slice(primary);
    out
}

fn prefix_of(secondary: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(secondary.len() + 2);
    secondary.to_vec().write_key(&mut out);
    out
}

/// The primary-key bytes of an index row; rows come from a prefix scan, so
/// the prefix is always there.
fn primary_of<'a>(row_key: &'a [u8], secondary: &[u8]) -> &'a [u8] {
    row_key.strip_prefix(prefix_of(secondary).as_slice()).unwrap_or_default()
}

fn hex_preview(bytes: &[u8]) -> String {
    bytes
        .iter()
        .take(8)
        .flat_map(|&b| [b >> 4, b & 0xf])
        .filter_map(|nibble| char::from_digit(u32::from(nibble), 16))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct UserRec {
        name: String,
        email_hash: Vec<u8>,
        vendor: String,
    }

    impl Encode for UserRec {
        fn encode(&self, w: &mut crate::codec::Writer) {
            w.put_str(&self.name);
            w.put_bytes(&self.email_hash);
            w.put_str(&self.vendor);
        }
    }
    impl Decode for UserRec {
        fn decode(r: &mut crate::codec::Reader<'_>) -> StorageResult<Self> {
            Ok(UserRec { name: r.get_str()?, email_hash: r.get_bytes()?, vendor: r.get_str()? })
        }
    }

    fn table() -> IndexedTable<String, UserRec> {
        IndexedTable::new(
            Arc::new(Store::in_memory()),
            "users",
            vec![
                IndexDef {
                    tree: "users_by_email",
                    kind: IndexKind::Unique,
                    extract: |_, v| vec![v.email_hash.clone()],
                },
                IndexDef {
                    tree: "users_by_vendor",
                    kind: IndexKind::NonUnique,
                    extract: |_, v| vec![v.vendor.as_bytes().to_vec()],
                },
            ],
        )
    }

    fn user(name: &str, email: &[u8], vendor: &str) -> UserRec {
        UserRec { name: name.into(), email_hash: email.to_vec(), vendor: vendor.into() }
    }

    #[test]
    fn unique_index_rejects_duplicate_email() {
        let t = table();
        t.put(&"alice".to_string(), &user("alice", b"E1", "acme")).unwrap();
        let err = t.put(&"bob".to_string(), &user("bob", b"E1", "acme")).unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        // Nothing about bob must have been written.
        assert!(!t.contains(&"bob".to_string()));
        assert_eq!(t.lookup("users_by_email", b"E1").unwrap(), vec!["alice".to_string()]);
    }

    #[test]
    fn unique_index_allows_self_overwrite() {
        let t = table();
        t.put(&"alice".to_string(), &user("alice", b"E1", "acme")).unwrap();
        // Same user re-registering the same e-mail is an overwrite, not a
        // violation.
        t.put(&"alice".to_string(), &user("alice2", b"E1", "acme")).unwrap();
        assert_eq!(t.get(&"alice".to_string()).unwrap().unwrap().name, "alice2");
    }

    #[test]
    fn index_rows_follow_record_updates() {
        let t = table();
        t.put(&"alice".to_string(), &user("alice", b"E1", "acme")).unwrap();
        t.put(&"alice".to_string(), &user("alice", b"E2", "globex")).unwrap();
        assert!(t.lookup("users_by_email", b"E1").unwrap().is_empty());
        assert_eq!(t.lookup("users_by_email", b"E2").unwrap(), vec!["alice".to_string()]);
        assert!(t.lookup("users_by_vendor", b"acme").unwrap().is_empty());
        assert_eq!(t.lookup("users_by_vendor", b"globex").unwrap().len(), 1);
    }

    #[test]
    fn non_unique_index_collects_all_matches() {
        let t = table();
        t.put(&"a".to_string(), &user("a", b"E1", "acme")).unwrap();
        t.put(&"b".to_string(), &user("b", b"E2", "acme")).unwrap();
        t.put(&"c".to_string(), &user("c", b"E3", "globex")).unwrap();
        let mut acme = t.lookup("users_by_vendor", b"acme").unwrap();
        acme.sort();
        assert_eq!(acme, vec!["a".to_string(), "b".to_string()]);
        let recs = t.lookup_records("users_by_vendor", b"acme").unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn remove_cleans_index_rows() {
        let t = table();
        t.put(&"a".to_string(), &user("a", b"E1", "acme")).unwrap();
        t.remove(&"a".to_string()).unwrap();
        assert!(t.lookup("users_by_email", b"E1").unwrap().is_empty());
        assert!(t.lookup("users_by_vendor", b"acme").unwrap().is_empty());
        assert!(t.is_empty());
        // Removing again is a no-op.
        t.remove(&"a".to_string()).unwrap();
    }

    #[test]
    fn secondary_keys_that_prefix_each_other_do_not_collide() {
        let t = table();
        t.put(&"a".to_string(), &user("a", b"E1", "ac")).unwrap();
        t.put(&"b".to_string(), &user("b", b"E2", "acme")).unwrap();
        assert_eq!(t.lookup("users_by_vendor", b"ac").unwrap(), vec!["a".to_string()]);
        assert_eq!(t.lookup("users_by_vendor", b"acme").unwrap(), vec!["b".to_string()]);
    }

    #[test]
    fn scan_decodes_all_records() {
        let t = table();
        t.put(&"a".to_string(), &user("a", b"E1", "x")).unwrap();
        t.put(&"b".to_string(), &user("b", b"E2", "y")).unwrap();
        let all = t.scan().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "a");
        assert_eq!(all[1].1.vendor, "y");
    }
}
