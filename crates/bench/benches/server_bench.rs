//! D10 (server): the 24 h aggregation batch cost as the database grows,
//! cached report reads, registration, the flood guard and a reconnecting
//! client — the layers perfbench's end-to-end runs do not isolate (its
//! `BENCH_*.json` ledger holds request latency and throughput). D11 (reactor, BENCH_REACTOR in
//! EXPERIMENTS.md): the front-end concurrency sweep A/B-ing the
//! thread-per-connection pool against the epoll reactor under mixed
//! idle+active connection loads, plus a steady-state allocation probe
//! backed by a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softrep_core::clock::{SimClock, Timestamp};
use softrep_core::db::ReputationDb;
use softrep_proto::{Request, Response};
use softrep_server::flood::FloodGuard;
use softrep_server::tcp::{Frontend, FrontendServer, TcpClient, TcpServer, TcpServerConfig};
use softrep_server::{ReputationServer, ServerConfig};

/// Counts every heap allocation in the process so the sweep can report
/// allocations-per-request for each front end. Counting is a single
/// relaxed `fetch_add`; the measured deltas compare front ends against
/// each other under identical client-side behaviour, so the client's own
/// allocations cancel out of the A/B difference.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn sw_id(i: u64) -> String {
    format!("{:040x}", i)
}

/// Seed a database with `users` members, `programs` titles and `votes`
/// ballots via the direct DB API (setup cost, not the measured path).
fn seeded_db(users: usize, programs: usize, votes: usize, seed: u64) -> ReputationDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = ReputationDb::in_memory("bench");
    for u in 0..users {
        let name = format!("user{u:05}");
        let token = db
            .register_user(&name, "pw", &format!("{name}@b.example"), Timestamp(0), &mut rng)
            .unwrap();
        db.activate_user(&name, &token).unwrap();
    }
    for p in 0..programs {
        db.register_software(
            &sw_id(p as u64),
            "app.exe",
            1_000,
            Some("Acme".into()),
            None,
            Timestamp(0),
        )
        .unwrap();
    }
    for v in 0..votes {
        let user = format!("user{:05}", v % users);
        let program = sw_id(rng.gen_range(0..programs) as u64);
        let score = rng.gen_range(1..=10);
        db.submit_vote(&user, &program, score, vec!["popup_ads".into()], Timestamp(1)).unwrap();
    }
    db
}

fn server_over(db: ReputationDb) -> ReputationServer {
    ReputationServer::new(
        db,
        Arc::new(SimClock::new()),
        ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        },
        9,
    )
}

/// Parallel report queries against a warm cache: the report cache is a
/// `RwLock`, so concurrent hits share the read lock instead of queueing
/// on the mutex the cache used before the concurrent-storage work. One
/// element per read, at 1/4 threads.
fn bench_concurrent_cached_reads(c: &mut Criterion) {
    let reads_per_thread: usize =
        if std::env::var_os("SOFTREP_BENCH_SMOKE").is_some() { 200 } else { 5_000 };
    let db = seeded_db(50, 100, 1_000, 4);
    db.force_aggregation(Timestamp(2)).unwrap();
    // Warm the cache entries the readers will hit.
    for p in 0..16u64 {
        db.software_report(&sw_id(p)).unwrap();
    }

    let mut group = c.benchmark_group("server_cached_reads");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.throughput(Throughput::Elements((threads * reads_per_thread) as u64));
        group.bench_with_input(
            BenchmarkId::new("software_report_hit", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for t in 0..threads as u64 {
                            let db = &db;
                            s.spawn(move || {
                                for r in 0..reads_per_thread as u64 {
                                    let id = sw_id((r + t * 3) % 16);
                                    black_box(db.software_report(&id).unwrap());
                                }
                            });
                        }
                    });
                })
            },
        );
    }
    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation_batch");
    group.sample_size(10);
    for votes in [1_000usize, 10_000, 50_000] {
        let users = 200.min(votes);
        let programs = 500;
        let db = seeded_db(users, programs, votes, 2);
        group.throughput(Throughput::Elements(votes as u64));
        group.bench_with_input(BenchmarkId::new("force_aggregation", votes), &db, |b, db| {
            b.iter(|| db.force_aggregation(black_box(Timestamp(10))).unwrap())
        });
    }
    group.finish();
}

fn bench_registration_path(c: &mut Criterion) {
    let server = server_over(ReputationDb::in_memory("reg-bench"));
    let mut group = c.benchmark_group("server_registration");
    group.sample_size(20);
    let mut i = 0u64;
    group.bench_function("register_activate_login", |b| {
        b.iter(|| {
            i += 1;
            let name = format!("bench{i:08}");
            let resp = server.handle(
                &Request::Register {
                    username: name.clone(),
                    password: "pw".into(),
                    email: format!("{name}@b.example"),
                    puzzle_challenge: String::new(),
                    puzzle_solution: 0,
                },
                "bench-client",
            );
            let Response::Registered { activation_token } = resp else { panic!("{resp:?}") };
            server.handle(
                &Request::Activate { username: name.clone(), token: activation_token },
                "c",
            );
            server.handle(&Request::Login { username: name, password: "pw".into() }, "c")
        })
    });
    group.finish();
}

/// A framed round trip on a fresh connection per request: what the
/// reconnect-per-request flooder pays per attempt (connection setup
/// dominates — throttling it is cheap for us and expensive for them).
/// The keep-alive round trip is perfbench's `query_p50_us`.
fn bench_tcp_round_trip(c: &mut Criterion) {
    let db = seeded_db(50, 100, 1_000, 3);
    db.force_aggregation(Timestamp(2)).unwrap();
    let server = Arc::new(server_over(db));
    let tcp = TcpServer::spawn(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let addr = tcp.local_addr();
    let query = Request::QuerySoftware { software_id: sw_id(7) };

    let mut group = c.benchmark_group("tcp_round_trip");
    group.throughput(Throughput::Elements(1));
    group.sample_size(20);
    group.bench_function("reconnect_per_request", |b| {
        b.iter(|| {
            let mut fresh = TcpClient::connect(addr).expect("connect");
            fresh.call(black_box(&query)).expect("call")
        })
    });
    group.finish();
    tcp.shutdown();
}

/// The flood guard's admission check, on the paths the TCP front end
/// actually exercises: a single hot identity (the common case — one
/// bucket lookup), and unique-identity churn pinned at the tracking bound
/// so every admission also pays the eviction sweep (the worst case an
/// identity-rotating attacker can force).
fn bench_flood_guard(c: &mut Criterion) {
    let mut group = c.benchmark_group("flood_guard");
    group.throughput(Throughput::Elements(1));

    let hot = FloodGuard::new(u32::MAX, u32::MAX);
    group.bench_function("single_identity", |b| {
        b.iter(|| hot.allow(black_box("10.0.0.1"), Timestamp(0)))
    });

    let bound = 1_024;
    let churn = FloodGuard::with_limits(4, 1, bound);
    let mut i = 0u64;
    group.bench_function("identity_churn_at_bound", |b| {
        b.iter(|| {
            i += 1;
            churn.allow(black_box(&format!("churn-{i}")), Timestamp(0))
        })
    });
    group.finish();
}

/// The front ends this build can run: the thread pool everywhere, the
/// epoll reactor on Linux.
fn available_frontends() -> Vec<Frontend> {
    let mut frontends = vec![Frontend::Threads];
    #[cfg(target_os = "linux")]
    frontends.push(Frontend::Epoll);
    frontends
}

fn connect_idle(addr: std::net::SocketAddr) -> TcpStream {
    // The listener backlog is finite; a connect burst may need retries
    // while the server drains the queue.
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
            Ok(stream) => return stream,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// D11: the concurrency sweep behind BENCH_REACTOR. At each total
/// connection count a handful of active clients issue framed queries
/// while the rest of the connections sit idle (connected, silent) — the
/// mixed load a real deployment sees. The thread front end pins one
/// worker per idle peer and sheds everything past `max_connections` (64),
/// so at 256+ its active clients are turned away; the reactor holds the
/// whole set in its connection table and keeps serving.
fn bench_frontend_concurrency_sweep(c: &mut Criterion) {
    let smoke = std::env::var_os("SOFTREP_BENCH_SMOKE").is_some();
    let conn_counts: &[usize] = if smoke { &[1, 64] } else { &[1, 64, 256, 1024] };

    let mut group = c.benchmark_group("frontend_concurrency");
    group.sample_size(10);
    for frontend in available_frontends() {
        for &conns in conn_counts {
            let db = seeded_db(50, 100, 1_000, 3);
            db.force_aggregation(Timestamp(2)).unwrap();
            let fe = FrontendServer::spawn_with(
                Arc::new(server_over(db)),
                "127.0.0.1:0",
                TcpServerConfig {
                    frontend,
                    max_open_connections: 4096,
                    read_timeout: Duration::from_secs(300), // idle peers stay pinned
                    drain_deadline: Duration::from_millis(200),
                    ..TcpServerConfig::default()
                },
            )
            .expect("bind loopback");
            let addr = fe.local_addr();
            let query = Request::QuerySoftware { software_id: sw_id(7) };

            let active_n = if conns == 1 { 1 } else { 8 };
            let idle: Vec<TcpStream> = (0..conns - active_n).map(|_| connect_idle(addr)).collect();

            // The active clients connect after the idle load is in place —
            // on the thread front end past its worker cap they are shed,
            // which is the measured difference, not a bench failure.
            let mut active = Vec::with_capacity(active_n);
            let mut shed = false;
            for _ in 0..active_n {
                let mut client = TcpClient::connect(addr).expect("connect");
                client
                    .set_timeouts(Some(Duration::from_secs(30)), Some(Duration::from_secs(30)))
                    .expect("timeouts");
                match client.call(&query) {
                    Ok(Response::Error { ref code, .. }) if code == "overloaded" => {
                        shed = true;
                        break;
                    }
                    Ok(_) => active.push(client),
                    Err(_) => {
                        shed = true;
                        break;
                    }
                }
            }
            if shed {
                eprintln!(
                    "frontend_concurrency/{frontend:?}/{conns}: active clients shed \
                     (front end saturated; admitted {} of {conns}) — no throughput to measure",
                    fe.stats().accepted
                );
                drop(active);
                drop(idle);
                fe.shutdown();
                continue;
            }

            group.throughput(Throughput::Elements(active_n as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("{frontend:?}").to_lowercase(), conns),
                &conns,
                |b, _| {
                    b.iter(|| {
                        for client in &mut active {
                            client.call(black_box(&query)).expect("call");
                        }
                    })
                },
            );
            drop(active);
            drop(idle);
            fe.shutdown();
        }
    }
    group.finish();
}

/// D11's allocation probe: allocations per framed request on a warm
/// keep-alive connection, per front end. Process-wide (client included),
/// so the absolute number carries the client's encode/decode cost; the
/// A/B difference between front ends isolates the server side. Before
/// the buffer-reuse work the framing layer alone cost 2 `Vec` + 1
/// `String` per request; the reactor's steady state re-uses its
/// per-connection buffers and adds zero framing allocations.
fn alloc_probe(_c: &mut Criterion) {
    const WARMUP: usize = 256;
    const MEASURED: u64 = 1024;
    for frontend in available_frontends() {
        let db = seeded_db(50, 100, 1_000, 3);
        db.force_aggregation(Timestamp(2)).unwrap();
        let fe = FrontendServer::spawn_with(
            Arc::new(server_over(db)),
            "127.0.0.1:0",
            TcpServerConfig { frontend, ..TcpServerConfig::default() },
        )
        .expect("bind loopback");
        let query = Request::QuerySoftware { software_id: sw_id(7) };
        let mut client = TcpClient::connect(fe.local_addr()).expect("connect");
        for _ in 0..WARMUP {
            client.call(&query).expect("warmup call");
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..MEASURED {
            client.call(&query).expect("measured call");
        }
        let per_request = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / MEASURED as f64;
        eprintln!(
            "alloc_probe/{frontend:?}: {per_request:.1} allocations per request \
             (process-wide, client included; {MEASURED} warm keep-alive requests)"
        );
        drop(client);
        fe.shutdown();
    }
}

/// BENCH_REPL (EXPERIMENTS.md): a replica's cold join. The primary's log
/// has been compacted away, so a fresh replica must pull a full snapshot
/// and install it before it can tail. Tailing an intact log is
/// perfbench's replica-catchup `capacity_per_s`.
fn bench_replication_catchup(c: &mut Criterion) {
    use softrep_core::db::ReputationDb as Db;
    use softrep_crypto::salted::SecretPepper;
    use softrep_server::repl::{ReplicaTail, ReplicaTailConfig};
    use softrep_storage::batch::WriteBatch;
    use softrep_storage::{replication, Store};

    let smoke = std::env::var_os("SOFTREP_BENCH_SMOKE").is_some();
    let entry_counts: &[usize] = if smoke { &[1_000] } else { &[10_000, 100_000] };

    fn bench_dir(name: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("softrep-bench-repl-{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn file_backed(dir: &std::path::Path) -> Arc<ReputationServer> {
        let store = Arc::new(Store::open(dir).expect("open bench store"));
        let db = Db::new(store, SecretPepper::new(b"bench-repl".to_vec()));
        Arc::new(ReputationServer::new(
            db,
            Arc::new(SimClock::new()),
            ServerConfig { puzzle_difficulty: 0, ..ServerConfig::default() },
            9,
        ))
    }

    fn fast_tail() -> ReplicaTailConfig {
        ReplicaTailConfig {
            poll_interval: Duration::from_millis(1),
            backoff_start: Duration::from_millis(1),
            ..ReplicaTailConfig::default()
        }
    }

    /// Spawn a tail against `addr`, block until the replica's watermark
    /// reaches `target`, and tear the replica down again.
    fn catch_up(addr: std::net::SocketAddr, target: u64) {
        let dir = bench_dir("replica");
        let replica = file_backed(&dir);
        let store = Arc::clone(replica.db().store());
        let tail = ReplicaTail::spawn_with(Arc::clone(&replica), addr.to_string(), fast_tail())
            .expect("spawn tail");
        while replication::applied_watermark(&store) < target {
            std::thread::sleep(Duration::from_micros(200));
        }
        tail.shutdown();
        drop(replica);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut group = c.benchmark_group("replication_catchup");
    group.sample_size(10);
    for &entries in entry_counts {
        let dir = bench_dir("primary");
        let primary = file_backed(&dir);
        let store = Arc::clone(primary.db().store());
        for i in 0..entries {
            let tree = ["titles", "votes", "comments"][i % 3];
            if i % 11 == 7 {
                let mut batch = WriteBatch::new();
                batch.put(tree, format!("key-{i}").into_bytes(), vec![b'm'; 1 + i % 200]);
                batch.put("meta", format!("b-{i}").into_bytes(), i.to_le_bytes().to_vec());
                store.apply(&batch).expect("seed batch");
            } else {
                store
                    .put(tree, format!("key-{i}").into_bytes(), vec![b'v'; 1 + i % 97])
                    .expect("seed put");
            }
        }
        let target = store.committed_seq();
        // Retire the log: every fresh subscriber has to bootstrap from a
        // snapshot before it can follow the (empty) suffix.
        store.compact().expect("compact");
        let tcp = TcpServer::spawn(Arc::clone(&primary), "127.0.0.1:0").expect("bind loopback");
        let addr = tcp.local_addr();

        group.throughput(Throughput::Elements(entries as u64));
        group.bench_with_input(BenchmarkId::new("bootstrap", entries), &entries, |b, _| {
            b.iter(|| catch_up(addr, target))
        });

        tcp.shutdown();
        drop(primary);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_concurrent_cached_reads,
    bench_aggregation,
    bench_registration_path,
    bench_tcp_round_trip,
    bench_flood_guard,
    bench_frontend_concurrency_sweep,
    bench_replication_catchup,
    alloc_probe
);
criterion_main!(benches);
