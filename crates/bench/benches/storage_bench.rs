//! D10 (storage): WAL append/replay, store writes, scans and recovery —
//! plus the full-vs-incremental aggregation contrast over that storage.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softrep_core::bootstrap::BootstrapEntry;
use softrep_core::clock::Timestamp;
use softrep_core::db::ReputationDb;
use softrep_proto::{ReplEntry, Response};
use softrep_storage::wal::Wal;
use softrep_storage::{DurabilityMode, Store, StoreOptions, WriteBatch};

fn bench_store_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_put");
    group.throughput(Throughput::Elements(1));
    group.bench_function("in_memory_single_put", |b| {
        let store = Store::in_memory();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store.put("bench", i.to_be_bytes().to_vec(), vec![0u8; 64]).unwrap();
        })
    });
    group.bench_function("in_memory_batch_100", |b| {
        let store = Store::in_memory();
        let mut i = 0u64;
        b.iter(|| {
            let mut batch = WriteBatch::new();
            for _ in 0..100 {
                i += 1;
                batch.put("bench", i.to_be_bytes().to_vec(), vec![0u8; 64]);
            }
            store.apply(&batch).unwrap();
        })
    });
    group.finish();
}

fn bench_durable_store(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("softrep-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let mut group = c.benchmark_group("store_durable");
    group.sample_size(20);
    group.bench_function("wal_backed_put", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store.put("bench", i.to_be_bytes().to_vec(), vec![0u8; 64]).unwrap();
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_scans(c: &mut Criterion) {
    let store = Store::in_memory();
    for i in 0..10_000u64 {
        let key = format!("{:02}:{i:08}", i % 16);
        store.put("scan", key.into_bytes(), vec![0u8; 32]).unwrap();
    }
    let mut group = c.benchmark_group("store_scan");
    group.bench_function("prefix_1_of_16", |b| {
        b.iter(|| store.scan_prefix("scan", black_box(b"07:")))
    });
    group.bench_function("full_scan_10k", |b| b.iter(|| store.scan_all("scan")));
    group.finish();
}

/// The pre-striping store design, reconstructed as a baseline: one mutex
/// (the same lock type the old `store.rs` used) over the whole tree map,
/// with the WAL append + flush performed while that mutex is held —
/// exactly the contention profile the store had before the sharded read
/// path, when every reader queued behind writer I/O.
struct MutexBaseline {
    inner: Mutex<(Tree, Wal)>,
}

type Tree = BTreeMap<Vec<u8>, Vec<u8>>;

impl MutexBaseline {
    fn open(dir: &std::path::Path) -> Self {
        std::fs::create_dir_all(dir).unwrap();
        let wal = Wal::open(dir.join("WAL")).unwrap();
        MutexBaseline { inner: Mutex::new((BTreeMap::new(), wal)) }
    }

    fn put(&self, key: Vec<u8>, value: Vec<u8>, fsync: bool) {
        let mut guard = self.inner.lock();
        guard.1.append(&value).unwrap();
        if fsync {
            guard.1.sync().unwrap();
        } else {
            guard.1.flush().unwrap();
        }
        guard.0.insert(key, value);
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.lock().0.get(key).cloned()
    }
}

/// `SOFTREP_BENCH_SMOKE=1` shrinks the workload so CI can execute every
/// concurrency bench in a couple of seconds as a does-it-run check.
fn smoke() -> bool {
    std::env::var_os("SOFTREP_BENCH_SMOKE").is_some()
}

/// BENCH_STORE_CONCURRENT part 1 — mixed readers against a pool of
/// durable writers (the server's worker threads committing votes).
///
/// 16 writer threads commit fully durable (fsynced) 64-byte puts in a
/// loop for the whole measurement; N reader threads each perform a fixed
/// number of point reads, and the measured quantity is the wall-clock
/// until the readers are done — i.e. read throughput under sustained
/// durable write load. The sharded store performs the fsync outside
/// every tree lock, so readers run right through writer I/O and the
/// writers group-commit each other's fsyncs. The single-mutex baseline
/// holds its one lock across each fsync, exactly like the pre-striping
/// design, so readers repeatedly queue behind the writer pool's disk
/// waits.
fn bench_concurrent_reads(c: &mut Criterion) {
    const WRITERS: u64 = 16;
    const WRITE_VALUE: usize = 64;
    const KEYS: u64 = 10_000;
    let reads_per_thread: u64 = if smoke() { 50 } else { 2000 };
    let thread_counts: &[usize] = if smoke() { &[2] } else { &[1, 2, 4, 8] };

    let dir = std::env::temp_dir().join(format!("softrep-bench-conc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open_with(
        dir.join("sharded"),
        StoreOptions { durability: DurabilityMode::Always, ..StoreOptions::default() },
    )
    .unwrap();
    let baseline = MutexBaseline::open(&dir.join("mutex"));
    for i in 0..KEYS {
        store.put("bench", i.to_be_bytes().to_vec(), vec![0u8; 64]).unwrap();
        baseline.put(i.to_be_bytes().to_vec(), vec![0u8; 64], false);
    }

    let mut group = c.benchmark_group("store_concurrent");
    group.sample_size(10);
    for &threads in thread_counts {
        group.throughput(Throughput::Elements(threads as u64 * reads_per_thread));
        group.bench_with_input(
            BenchmarkId::new("sharded_readers_vs_16_writers", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let stop = AtomicBool::new(false);
                    let (stop, store) = (&stop, &store);
                    std::thread::scope(|s| {
                        for w in 0..WRITERS {
                            s.spawn(move || {
                                let mut i = w << 32;
                                while !stop.load(Ordering::Relaxed) {
                                    i += 1;
                                    store
                                        .put(
                                            "bench",
                                            i.to_be_bytes().to_vec(),
                                            vec![0u8; WRITE_VALUE],
                                        )
                                        .unwrap();
                                }
                            });
                        }
                        let readers: Vec<_> = (0..threads as u64)
                            .map(|t| {
                                s.spawn(move || {
                                    let mut r = t * 7;
                                    for _ in 0..reads_per_thread {
                                        r += 1;
                                        black_box(store.get("bench", &(r % KEYS).to_be_bytes()));
                                    }
                                })
                            })
                            .collect();
                        for reader in readers {
                            reader.join().unwrap();
                        }
                        stop.store(true, Ordering::Relaxed);
                    });
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mutex_readers_vs_16_writers", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let stop = AtomicBool::new(false);
                    let (stop, baseline) = (&stop, &baseline);
                    std::thread::scope(|s| {
                        for w in 0..WRITERS {
                            s.spawn(move || {
                                let mut i = w << 32;
                                while !stop.load(Ordering::Relaxed) {
                                    i += 1;
                                    baseline.put(
                                        i.to_be_bytes().to_vec(),
                                        vec![0u8; WRITE_VALUE],
                                        true,
                                    );
                                }
                            });
                        }
                        let readers: Vec<_> = (0..threads as u64)
                            .map(|t| {
                                s.spawn(move || {
                                    let mut r = t * 7;
                                    for _ in 0..reads_per_thread {
                                        r += 1;
                                        black_box(baseline.get(&(r % KEYS).to_be_bytes()));
                                    }
                                })
                            })
                            .collect();
                        for reader in readers {
                            reader.join().unwrap();
                        }
                        stop.store(true, Ordering::Relaxed);
                    });
                });
            },
        );
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// BENCH_STORE_CONCURRENT part 2 — the group-commit contrast. Four writers
/// all demanding full durability: under the old design each commit pays
/// its own fsync while holding the global lock; under `Always` mode the
/// committer coalesces the fsyncs of writers that queued during an
/// in-flight sync.
fn bench_group_commit(c: &mut Criterion) {
    const WRITERS: usize = 4;
    let puts_per_writer: usize = if smoke() { 4 } else { 25 };

    let dir = std::env::temp_dir().join(format!("softrep-bench-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open_with(
        dir.join("group"),
        StoreOptions { durability: DurabilityMode::Always, ..StoreOptions::default() },
    )
    .unwrap();
    let baseline = MutexBaseline::open(&dir.join("fsync-each"));

    let mut group = c.benchmark_group("store_group_commit");
    group.sample_size(10);
    group.throughput(Throughput::Elements((WRITERS * puts_per_writer) as u64));
    let mut round = 0u64;
    group.bench_function("always_4_writers_group_commit", |b| {
        b.iter(|| {
            round += 1;
            std::thread::scope(|s| {
                for w in 0..WRITERS as u64 {
                    let store = &store;
                    s.spawn(move || {
                        for i in 0..puts_per_writer as u64 {
                            let key = (round << 32 | w << 16 | i).to_be_bytes().to_vec();
                            store.put("bench", key, vec![0u8; 64]).unwrap();
                        }
                    });
                }
            });
        })
    });
    let mut round = 0u64;
    group.bench_function("fsync_per_commit_4_writers", |b| {
        b.iter(|| {
            round += 1;
            std::thread::scope(|s| {
                for w in 0..WRITERS as u64 {
                    let baseline = &baseline;
                    s.spawn(move || {
                        for i in 0..puts_per_writer as u64 {
                            let key = (round << 32 | w << 16 | i).to_be_bytes().to_vec();
                            baseline.put(key, vec![0u8; 64], true);
                        }
                    });
                }
            });
        })
    });
    group.finish();
    let stats = store.stats();
    println!(
        "bench store_group_commit/ledger: {} commits, {} fsyncs saved, deepest group {}",
        stats.batches_applied, stats.fsyncs_saved, stats.max_group_depth
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole contrast: recomputing 1 dirty title out of 10 000 with the
/// incremental engine versus the paper's full batch over all 10 000. The
/// incremental iteration includes the vote submission that dirties the
/// title, so it measures the whole hot path, not just the recompute.
fn bench_aggregation(c: &mut Criterion) {
    const TITLES: usize = 10_000;
    let db = ReputationDb::in_memory("bench-agg");
    let entries: Vec<BootstrapEntry> = (0..TITLES)
        .map(|i| BootstrapEntry {
            software_id: format!("{i:040x}"),
            rating: 1.0 + (i % 90) as f64 / 10.0,
            vote_count: 1,
            behaviours: vec![],
        })
        .collect();
    db.bootstrap(&entries, Timestamp(0)).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let token =
        db.register_user("bench_user", "pw", "bench@example.test", Timestamp(0), &mut rng).unwrap();
    db.activate_user("bench_user", &token).unwrap();
    // Settle the seeded dirty set so each incremental iteration recomputes
    // exactly the one title the fresh vote dirties.
    db.force_aggregation_full(Timestamp(10)).unwrap();

    let hot = format!("{:040x}", 7);
    let mut group = c.benchmark_group("aggregation");
    group.sample_size(20);
    let mut t = 1_000u64;
    group.bench_function("incremental_1_dirty_of_10k", |b| {
        b.iter(|| {
            t += 1;
            db.submit_vote("bench_user", &hot, ((t % 10) + 1) as u8, vec![], Timestamp(t)).unwrap();
            black_box(db.force_aggregation_incremental(Timestamp(t)).unwrap());
        })
    });
    group.sample_size(10);
    group.bench_function("full_batch_10k_titles", |b| {
        b.iter(|| {
            t += 1;
            black_box(db.force_aggregation_full(Timestamp(t)).unwrap());
        })
    });
    group.finish();
}

/// One replication page through the wire codec: the primary's
/// `Response::encode` and the replica's `Response::decode` of a
/// `ReplEntries` page (DESIGN.md §15). 256 entries of 240 pseudo-random
/// bytes — about 62 KiB of WAL batches, 122 KiB of XML once hex-encoded —
/// is the shape replica catch-up ships; the smoke run uses 16 entries.
fn bench_repl_page_codec(c: &mut Criterion) {
    let entries_per_page: u64 = if smoke() { 16 } else { 256 };
    let mut rng = StdRng::seed_from_u64(30);
    let page = Response::ReplEntries {
        committed_seq: 57_003,
        backlog_bytes: 13_000_000,
        entries: (0..entries_per_page)
            .map(|i| ReplEntry {
                seq: 1_000 + i,
                batch: (0..240).map(|_| rng.gen::<u8>()).collect(),
            })
            .collect(),
    };
    let doc = page.encode();
    let mut group = c.benchmark_group("repl_page_codec");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    group.bench_function(format!("encode_{entries_per_page}_entries"), |b| {
        b.iter(|| black_box(&page).encode())
    });
    group.bench_function(format!("decode_{entries_per_page}_entries"), |b| {
        b.iter(|| Response::decode(black_box(&doc)).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_store_writes,
    bench_durable_store,
    bench_scans,
    bench_concurrent_reads,
    bench_group_commit,
    bench_aggregation,
    bench_repl_page_codec
);
criterion_main!(benches);
