//! Differential test of the indexed replication read against the
//! full-scan oracle (`support/repl_oracle.rs`): for every `from_seq` in
//! `0..=committed` and several page caps, `Store::replication_read` must
//! return the same entries, `committed_seq` and `backlog_bytes` as a walk
//! of the whole log, across rotation, retirement, torn-tail reopen and
//! appends that land between pages (DESIGN.md §15).
//!
//! Workload shapes are drawn from `SOFTREP_PROP_SEED` (or a fixed
//! default); every assertion names the case's seed, so a failure replays
//! with `SOFTREP_PROP_SEED=<seed> SOFTREP_PROP_CASES=1 cargo test -q --test
//! replication_index`.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use softwareputation::storage::{
    DurabilityMode, FailAction, Fault, ReplRead, SimVfs, Store, StoreOptions, Vfs, WriteBatch,
};

#[allow(dead_code, reason = "this binary uses a slice of the shared property helpers")]
#[path = "support/prop.rs"]
mod prop;
#[path = "support/repl_oracle.rs"]
mod repl_oracle;

use prop::{base_seed, case_count, SplitMix64};
use repl_oracle::{summary, Oracle};

const DIR: &str = "/sim/repl-index";

/// `(max_entries, max_bytes)` pairs: one entry per page, byte caps that
/// leave the larger batches to travel alone as over-cap entries, the
/// replica's default page, and the primary's largest.
const PAGES: [(usize, usize); 6] =
    [(1, 1), (1, usize::MAX), (7, 300), (64, 4096), (256, 128 * 1024), (1024, 192 * 1024)];

fn open(vfs: &SimVfs) -> Store {
    Store::open_with_vfs(
        DIR,
        StoreOptions { durability: DurabilityMode::Os, shards: 2 },
        Arc::new(vfs.clone()),
    )
    .expect("open sim store")
}

/// Commit a count drawn from `count` of batches of random shape. About
/// one value in twelve is 400–1,600 bytes, larger than the 300-byte page
/// cap, and one in two hundred is 64–100 KiB, larger than the reader's
/// 64 KiB chunk, so frames straddle and exceed chunk boundaries.
fn append(store: &Store, rng: &mut SplitMix64, count: Range<u64>) {
    let n = count.start + rng.below(count.end - count.start);
    for _ in 0..n {
        let mut batch = WriteBatch::new();
        for _ in 0..=rng.below(3) {
            let key = format!("k{}", rng.below(500)).into_bytes();
            if rng.chance(10) {
                batch.delete("t", key);
            } else {
                let len = match rng.below(200) {
                    0 => (64 << 10) + rng.below(36 << 10),
                    1..=16 => 400 + rng.below(1200),
                    _ => rng.below(120),
                };
                batch.put("t", key, vec![rng.below(256) as u8; len as usize]);
            }
        }
        store.apply(&batch).expect("apply");
    }
}

/// The oracle over the store's live log files as the VFS shows them now.
fn oracle(vfs: &SimVfs) -> Oracle {
    let file = |name: &str| vfs.try_read(&Path::new(DIR).join(name)).expect("read log");
    Oracle::parse(file("WAL.old").as_deref(), file("WAL").as_deref())
}

fn check(store: &Store, vfs: &SimVfs, ctx: &str) {
    store.sync().expect("sync");
    oracle(vfs).assert_matches(store, &PAGES, ctx);
}

/// Tail the store page by page from sequence `from`, committing a few
/// batches after each of the first pages, and check every page against
/// the oracle taken at that moment.
fn tail_with_appends(store: &Store, vfs: &SimVfs, rng: &mut SplitMix64, mut from: u64, ctx: &str) {
    let (max_entries, max_bytes) = (16, 2048);
    for page in 0.. {
        store.sync().expect("sync");
        let committed = store.committed_seq();
        let want = oracle(vfs).page(committed, from, max_entries, max_bytes);
        let got = store.replication_read(from, max_entries, max_bytes).expect("read");
        assert!(
            got == want,
            "{ctx}: page {page} from {from}: {} vs oracle {}",
            summary(&got),
            summary(&want)
        );
        match got {
            ReplRead::Entries { entries, .. } if !entries.is_empty() => {
                from = entries.last().map_or(from, |e| e.seq);
            }
            _ => return,
        }
        if page < 12 {
            append(store, rng, 0..5);
        }
    }
}

#[test]
fn indexed_replication_read_matches_the_full_scan_oracle() {
    let cases = case_count(2);
    let base = base_seed(0x1d_e7a1);
    for case in 0..cases {
        let seed = base.wrapping_add(case as u64);
        let mut rng = SplitMix64::new(seed);
        let ctx = |phase: &str| {
            format!(
                "case {case} (replay with SOFTREP_PROP_SEED={seed} SOFTREP_PROP_CASES=1) {phase}"
            )
        };
        let vfs = SimVfs::new();
        let mut store = open(&vfs);

        // One log file, spanning several index strides.
        append(&store, &mut rng, 100..250);
        check(&store, &vfs, &ctx("single WAL"));

        // A compaction that rotates and then fails to write its snapshot
        // leaves WAL.old in place: pages now span WAL.old → WAL.
        vfs.failpoints().set("vfs.create", FailAction::Nth(Fault::Err, 1));
        assert!(store.compact().is_err(), "{}", ctx("the snapshot create must fail"));
        vfs.failpoints().clear_all();
        append(&store, &mut rng, 20..120);
        check(&store, &vfs, &ctx("WAL.old and WAL"));
        tail_with_appends(&store, &vfs, &mut rng, 0, &ctx("tail across WAL.old → WAL"));
        check(&store, &vfs, &ctx("WAL.old and WAL after the tail"));

        // Reopen with WAL.old on disk: open rebuilds both files' indexes,
        // then finishes the compaction and retires WAL.old.
        drop(store);
        store = open(&vfs);
        append(&store, &mut rng, 0..40);
        check(&store, &vfs, &ctx("reopened over WAL.old, which is retired"));

        // A full compaction: everything before it needs a snapshot.
        append(&store, &mut rng, 0..30);
        store.compact().expect("compact");
        append(&store, &mut rng, 1..100);
        check(&store, &vfs, &ctx("after a rotation that retired WAL.old"));

        // A torn tail: the next frame tears halfway into the file and
        // poisons the log; the reopened store truncates it.
        vfs.failpoints().set("vfs.append", FailAction::Nth(Fault::Torn, 1));
        let mut torn = WriteBatch::new();
        torn.put("t", b"torn".to_vec(), vec![7; 64]);
        assert!(store.apply(&torn).is_err(), "{}", ctx("the torn append must fail"));
        vfs.failpoints().clear_all();
        drop(store);
        store = open(&vfs);
        check(&store, &vfs, &ctx("reopened after a torn tail"));
        append(&store, &mut rng, 1..80);
        check(&store, &vfs, &ctx("appends after the torn-tail reopen"));
        let from = store.committed_seq().saturating_sub(rng.below(100));
        tail_with_appends(&store, &vfs, &mut rng, from, &ctx("tail after the torn-tail reopen"));
    }
}
