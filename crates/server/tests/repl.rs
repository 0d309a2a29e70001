//! The replication acceptance test (DESIGN.md §15): a primary under a
//! mixed 10k-write workload streams its WAL to a replica through a fault
//! proxy that tears the stream mid-frame (twice), while the replica is
//! killed and restarted once mid-stream. At quiesce the replica's store
//! must be **byte-identical** to the primary's and report zero lag.
//!
//! The proxy cuts at byte granularity, so the replica sees torn frames
//! and dropped connections — exactly the faults the tail's
//! watermark-resubscribe protocol must absorb without ever applying a
//! gap or a double.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use softrep_core::clock::{SimClock, Timestamp};
use softrep_core::db::ReputationDb;
use softrep_crypto::salted::SecretPepper;
use softrep_server::repl::{ReplicaTail, ReplicaTailConfig};
use softrep_server::tcp::{FrontendServer, TcpServer};
use softrep_server::{ReputationServer, ServerConfig};
use softrep_storage::batch::WriteBatch;
use softrep_storage::replication;
use softrep_storage::Store;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("softrep-repl-acc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file_backed_server(dir: &PathBuf) -> Arc<ReputationServer> {
    let store = Arc::new(Store::open(dir).unwrap());
    let db = ReputationDb::new(store, SecretPepper::new(b"repl-acceptance".to_vec()));
    Arc::new(ReputationServer::new(
        db,
        Arc::new(SimClock::new()),
        ServerConfig { puzzle_difficulty: 0, ..ServerConfig::default() },
        23,
    ))
}

fn fast_tail() -> ReplicaTailConfig {
    ReplicaTailConfig {
        poll_interval: Duration::from_millis(5),
        backoff_start: Duration::from_millis(5),
        backoff_max: Duration::from_millis(100),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..ReplicaTailConfig::default()
    }
}

/// A TCP proxy that forwards to `upstream`, cutting the Nth connection's
/// server→client stream after a scheduled number of bytes — a torn frame
/// from the subscriber's point of view. Connections beyond the schedule
/// pass through untouched.
struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    faults: Arc<AtomicU64>,
}

impl FaultProxy {
    fn spawn(upstream: SocketAddr, cut_after: Vec<usize>) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let faults = Arc::new(AtomicU64::new(0));
        let conn_counter = Arc::new(AtomicUsize::new(0));

        let accept_stop = Arc::clone(&stop);
        let accept_faults = Arc::clone(&faults);
        let accept = std::thread::spawn(move || loop {
            let Ok((client, _)) = listener.accept() else { break };
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let n = conn_counter.fetch_add(1, Ordering::SeqCst);
            let budget = cut_after.get(n).copied();
            let Ok(server) = TcpStream::connect(upstream) else {
                continue; // primary briefly unreachable; client sees a drop
            };
            // client → server: never cut (requests are tiny; faults on
            // this leg would just look like the response-leg drop anyway).
            let (c_read, c_write) = (client.try_clone().unwrap(), client);
            let (s_read, s_write) = (server.try_clone().unwrap(), server);
            std::thread::spawn(move || pump(c_read, s_write, None, None));
            let pump_faults = Arc::clone(&accept_faults);
            std::thread::spawn(move || pump(s_read, c_write, budget, Some(pump_faults)));
        });

        FaultProxy { addr, stop, accept: Some(accept), faults }
    }

    fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::SeqCst)
    }

    fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept awake.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Copy bytes `from` → `to`; with a budget, stop mid-stream once it is
/// spent and kill both directions (a torn frame for the reader).
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    mut budget: Option<usize>,
    faults: Option<Arc<AtomicU64>>,
) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let allowed = match budget {
            Some(remaining) if n >= remaining => {
                // Forward a prefix, then cut: the reader sees a frame
                // whose promised bytes never arrive.
                let _ = to.write_all(&buf[..remaining]);
                if let Some(f) = &faults {
                    f.fetch_add(1, Ordering::SeqCst);
                }
                let _ = from.shutdown(std::net::Shutdown::Both);
                let _ = to.shutdown(std::net::Shutdown::Both);
                return;
            }
            Some(remaining) => {
                budget = Some(remaining - n);
                n
            }
            None => n,
        };
        if to.write_all(&buf[..allowed]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Both);
}

fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "not reached within {deadline:?}: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One mixed write on the primary store: puts of varying sizes, deletes
/// of earlier keys, and occasional multi-op batches — enough shape
/// variety that replication cannot get away with special-casing
/// single-put entries.
fn mixed_write(store: &Store, i: usize) {
    let tree = ["titles", "votes", "comments"][i % 3];
    if i % 7 == 3 && i > 20 {
        store.delete(tree, format!("key-{}", i - 21).into_bytes()).unwrap();
    } else if i % 13 == 5 {
        let mut batch = WriteBatch::new();
        batch.put(tree, format!("key-{i}").into_bytes(), vec![b'm'; 1 + i % 200]);
        batch.put("meta", format!("batch-{i}").into_bytes(), i.to_le_bytes().to_vec());
        batch.delete("meta", format!("batch-{}", i.saturating_sub(50)).into_bytes());
        store.apply(&batch).unwrap();
    } else {
        store.put(tree, format!("key-{i}").into_bytes(), vec![b'v'; 1 + i % 97]).unwrap();
    }
}

/// The acceptance run: 10k mixed writes, two mid-stream cuts, one replica
/// restart → byte-identical stores and zero reported lag.
#[test]
fn replica_converges_byte_identically_through_faults_and_a_restart() {
    let dir_p = tmpdir("diff-p");
    let dir_r = tmpdir("diff-r");

    let primary = file_backed_server(&dir_p);
    let primary_store = Arc::clone(primary.db().store());
    let tcp = TcpServer::spawn(Arc::clone(&primary), "127.0.0.1:0").unwrap();

    // Two scheduled stream faults: the first and second proxied
    // connections are cut after 16 KiB and 64 KiB of response bytes.
    let proxy = FaultProxy::spawn(tcp.local_addr(), vec![16 * 1024, 64 * 1024]);
    let proxy_addr = proxy.addr.to_string();

    let replica = file_backed_server(&dir_r);
    let replica_store = Arc::clone(replica.db().store());
    let tail =
        ReplicaTail::spawn_with(Arc::clone(&replica), proxy_addr.clone(), fast_tail()).unwrap();

    // Phase one: 6k mixed writes racing the tail (and the fault cuts).
    for i in 0..6_000 {
        mixed_write(&primary_store, i);
    }
    wait_for("replica made initial progress", Duration::from_secs(30), || {
        replication::applied_watermark(&replica_store) > 1_000
    });

    // Kill the replica mid-stream and bring it back on the same data
    // directory: the persisted watermark must make the restart seamless.
    tail.shutdown();
    drop(replica);
    drop(replica_store);
    let replica = file_backed_server(&dir_r);
    let replica_store = Arc::clone(replica.db().store());
    assert!(
        replication::applied_watermark(&replica_store) > 0,
        "the watermark must survive the restart"
    );
    let tail = ReplicaTail::spawn_with(Arc::clone(&replica), proxy_addr, fast_tail()).unwrap();

    // Phase two: the rest of the workload, past 10k writes total.
    for i in 6_000..10_000 {
        mixed_write(&primary_store, i);
    }

    // Quiesce: identical bytes, zero lag, and the faults really fired.
    wait_for("replica converged", Duration::from_secs(60), || {
        replica_store.content_dump() == primary_store.content_dump()
    });
    wait_for("lag drained to zero", Duration::from_secs(30), || {
        replica.repl_state().metrics().lag_entries == 0
    });
    assert_eq!(
        replica_store.content_dump(),
        primary_store.content_dump(),
        "replica store must be byte-identical to the primary at quiesce"
    );
    assert_eq!(
        replication::applied_watermark(&replica_store),
        primary_store.committed_seq(),
        "watermark must sit exactly at the primary's committed sequence"
    );
    assert!(
        proxy.faults_injected() >= 2,
        "the schedule must have injected both stream faults, got {}",
        proxy.faults_injected()
    );
    let metrics_page = replica.metrics_text();
    assert!(
        metrics_page.contains("softrep_repl_lag_entries 0"),
        "metrics must report zero lag at quiesce"
    );

    tail.shutdown();
    proxy.shutdown();
    tcp.shutdown();
}

/// A replica killed *between* the snapshot-install batches restarts with
/// the bootstrap sentinel set and re-bootstraps rather than serving the
/// torn state — the crash-window half of the bootstrap handshake.
#[test]
fn interrupted_bootstrap_is_redone_not_trusted() {
    let dir_p = tmpdir("torn-p");
    let dir_r = tmpdir("torn-r");

    let primary = file_backed_server(&dir_p);
    let primary_store = Arc::clone(primary.db().store());
    for i in 0..2_000 {
        mixed_write(&primary_store, i);
    }
    // Retire the log so any fresh subscriber must bootstrap.
    primary_store.compact().unwrap();
    let tcp = TcpServer::spawn(Arc::clone(&primary), "127.0.0.1:0").unwrap();

    // Simulate a replica that died mid-install: sentinel present, half
    // the data missing.
    {
        let store = Store::open(&dir_r).unwrap();
        store
            .put(
                replication::REPL_META_TREE,
                replication::BOOTSTRAP_KEY.to_vec(),
                1u64.to_be_bytes().to_vec(),
            )
            .unwrap();
        store.put("titles", b"torn-half".to_vec(), b"stale".to_vec()).unwrap();
        store.sync().unwrap();
    }

    let replica = file_backed_server(&dir_r);
    let replica_store = Arc::clone(replica.db().store());
    assert!(replication::bootstrap_pending(&replica_store));
    let tail =
        ReplicaTail::spawn_with(Arc::clone(&replica), tcp.local_addr().to_string(), fast_tail())
            .unwrap();

    wait_for("re-bootstrap converged", Duration::from_secs(30), || {
        replica_store.content_dump() == primary_store.content_dump()
    });
    assert!(!replication::bootstrap_pending(&replica_store));
    assert!(replica_store.get("titles", b"torn-half").is_none(), "torn state replaced");

    tail.shutdown();
    tcp.shutdown();
}

/// A WAL entry too large for one frame must not stall the replica. An
/// aggregation batch that drains 6 000 dirty titles writes the whole dirty
/// set as one entry, whose hex inside XML exceeds the 1 MiB frame limit.
/// The primary answers `ReplResync` for it, so the replica bootstraps from
/// a snapshot taken past that entry and catches up.
#[test]
fn replica_catches_up_past_an_entry_too_large_for_one_frame() {
    let dir_p = tmpdir("huge-p");
    let dir_r = tmpdir("huge-r");

    let primary = file_backed_server(&dir_p);
    let db = primary.db();
    let mut rng = StdRng::seed_from_u64(7);
    let token = db.register_user("voter", "pw", "voter@x.example", Timestamp(0), &mut rng).unwrap();
    db.activate_user("voter", &token).unwrap();
    for i in 0..6_000u64 {
        let id = format!("{i:040x}");
        db.register_software(&id, "app.exe", 512, None, None, Timestamp(1)).unwrap();
        db.submit_vote("voter", &id, 5, vec![], Timestamp(2)).unwrap();
    }
    db.force_aggregation_full(Timestamp(3)).unwrap();
    let primary_store = Arc::clone(db.store());
    let tcp = FrontendServer::spawn(Arc::clone(&primary), "127.0.0.1:0").unwrap();

    let replica = file_backed_server(&dir_r);
    let replica_store = Arc::clone(replica.db().store());
    let tail =
        ReplicaTail::spawn_with(Arc::clone(&replica), tcp.local_addr().to_string(), fast_tail())
            .unwrap();

    wait_for("replica caught up past the oversized entry", Duration::from_secs(30), || {
        replication::applied_watermark(&replica_store) == primary_store.committed_seq()
    });
    assert_eq!(
        replica_store.content_dump(),
        primary_store.content_dump(),
        "replica store must be byte-identical to the primary once caught up"
    );

    tail.shutdown();
    tcp.shutdown();
}
