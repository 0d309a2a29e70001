//! Socket-level robustness tests for the protocol front ends: flood-guard
//! identity keying, overload shedding, idle-peer disconnect, and graceful
//! shutdown latency — each asserted through `ServerStats` counters rather
//! than inferred.
//!
//! Every behavioural test runs against *both* serving architectures (the
//! thread-per-connection pool and, on Linux, the epoll reactor): the two
//! front ends must be observationally equivalent at this level.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use softrep_core::clock::SimClock;
use softrep_core::db::ReputationDb;
use softrep_core::model::MAX_BEHAVIOURS;
use softrep_proto::framing::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use softrep_proto::{Request, Response};
#[cfg(target_os = "linux")]
use softrep_server::reactor::ReactorServer;
use softrep_server::tcp::{FrontendServer, TcpClient, TcpServer, TcpServerConfig};
use softrep_server::{ReputationServer, ServerConfig};

fn reputation_server(config: ServerConfig) -> Arc<ReputationServer> {
    Arc::new(ReputationServer::new(
        ReputationDb::in_memory("transport-pepper"),
        Arc::new(SimClock::new()),
        config,
        7,
    ))
}

/// Starts a server on `server` with `config`, on an ephemeral port.
type Spawn = fn(Arc<ReputationServer>, TcpServerConfig) -> FrontendServer;

/// Every server this platform has, by name: the thread server, and on
/// Linux the epoll reactor. Each behavioural test runs against all of them.
fn servers() -> Vec<(&'static str, Spawn)> {
    vec![
        ("threads", |server, config| {
            FrontendServer::Threads(TcpServer::spawn_with(server, "127.0.0.1:0", config).unwrap())
        }),
        #[cfg(target_os = "linux")]
        ("epoll", |server, config| {
            FrontendServer::Epoll(ReactorServer::spawn_with(server, "127.0.0.1:0", config).unwrap())
        }),
    ]
}

fn query() -> Request {
    Request::QuerySoftware { software_id: "ab".repeat(20) }
}

fn is_throttled(resp: &Response) -> bool {
    matches!(resp, Response::Error { code, .. } if code == "throttled")
}

/// Poll until `cond` holds (the serving thread increments counters just
/// after writing the response, so a client can observe the response a
/// moment before the counter).
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "condition not reached within 5s: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Regression for the flood-guard identity bug: the guard used to be keyed
/// on `SocketAddr::to_string()` (ip **and** ephemeral port), so every
/// reconnect minted a fresh token bucket and a reconnect-per-request
/// flooder was never throttled. Keyed on the IP alone, connections from
/// the same host share one bucket — on both front ends.
#[test]
fn reconnecting_flooder_shares_one_bucket_and_gets_throttled() {
    for (name, spawn) in servers() {
        let server = reputation_server(ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: 3,
            flood_refill_per_hour: 1,
            ..ServerConfig::default()
        });
        let fe = spawn(Arc::clone(&server), TcpServerConfig::default());

        let mut throttled = 0;
        for _ in 0..8 {
            // Fresh connection per request — the flooder's reconnect trick.
            let mut client = TcpClient::connect(fe.local_addr()).unwrap();
            if is_throttled(&client.call(&query()).unwrap()) {
                throttled += 1;
            }
        }
        assert_eq!(throttled, 5, "{name}: 3-token burst, then every reconnect throttled");
        assert_eq!(server.flood_guard().rejected_count(), 5);
        assert_eq!(
            server.flood_guard().tracked_identities(),
            1,
            "{name}: eight connections from 127.0.0.1 must share one bucket"
        );

        wait_for("8 served", || fe.stats().requests_served == 8);
        let stats = fe.stats();
        assert_eq!(stats.accepted, 8);
        assert_eq!(
            stats.requests_served, 8,
            "{name}: throttled answers are still served responses"
        );
        fe.shutdown();
    }
}

/// Two simultaneously open connections from the same IP also share the
/// bucket (the fix must hold for parallel connections, not just serial
/// reconnects).
#[test]
fn two_live_connections_from_one_ip_share_one_bucket() {
    for (name, spawn) in servers() {
        let server = reputation_server(ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: 2,
            flood_refill_per_hour: 1,
            ..ServerConfig::default()
        });
        let fe = spawn(Arc::clone(&server), TcpServerConfig::default());

        let mut a = TcpClient::connect(fe.local_addr()).unwrap();
        let mut b = TcpClient::connect(fe.local_addr()).unwrap();
        assert!(!is_throttled(&a.call(&query()).unwrap()));
        assert!(!is_throttled(&b.call(&query()).unwrap()));
        // The burst of 2 is spent across both connections; either one is
        // now throttled.
        assert!(is_throttled(&a.call(&query()).unwrap()), "{name}");
        assert!(is_throttled(&b.call(&query()).unwrap()), "{name}");
        assert_eq!(server.flood_guard().tracked_identities(), 1);
        fe.shutdown();
    }
}

/// Connections beyond the capacity bound get an immediate `overloaded`
/// error and a close — never an unbounded thread spawn (threads) or an
/// unbounded state table (epoll).
#[test]
fn overload_is_shed_with_an_error_frame_and_counted() {
    for (name, spawn) in servers() {
        let server = reputation_server(ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        });
        let fe = spawn(
            Arc::clone(&server),
            TcpServerConfig {
                max_connections: 2,
                max_open_connections: 2,
                ..TcpServerConfig::default()
            },
        );

        // Occupy both capacity slots with live connections (a served
        // response proves each one is fully admitted).
        let mut a = TcpClient::connect(fe.local_addr()).unwrap();
        let mut b = TcpClient::connect(fe.local_addr()).unwrap();
        assert!(matches!(a.call(&query()).unwrap(), Response::UnknownSoftware { .. }));
        assert!(matches!(b.call(&query()).unwrap(), Response::UnknownSoftware { .. }));
        assert_eq!(fe.active_connections(), 2, "{name}");

        // Overflow connections are turned away at the door.
        for _ in 0..3 {
            let stream = TcpStream::connect(fe.local_addr()).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut reader = BufReader::new(stream);
            let body = read_frame(&mut reader).unwrap();
            let resp = Response::decode(&body).unwrap();
            assert!(
                matches!(resp, Response::Error { ref code, .. } if code == "overloaded"),
                "{name}: {resp:?}"
            );
            // After the error frame the server closes the connection.
            assert!(matches!(read_frame(&mut reader), Err(FrameError::Closed)), "{name}");
        }

        let stats = fe.stats();
        assert_eq!(stats.rejected_overload, 3, "{name}");
        assert_eq!(stats.accepted, 2, "{name}: overflow connections never admitted");
        assert_eq!(stats.active, 2, "{name}");

        // Releasing a slot restores service. The freed slot may take a
        // moment to be reclaimed, so retry through residual shed answers.
        drop(a);
        let mut served = false;
        for _ in 0..100 {
            let mut c = TcpClient::connect(fe.local_addr()).unwrap();
            c.set_timeouts(Some(Duration::from_secs(5)), None).unwrap();
            if matches!(c.call(&query()), Ok(Response::UnknownSoftware { .. })) {
                served = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(served, "{name}: a freed slot must restore service");
        fe.shutdown();
    }
}

/// A peer that connects and then goes silent is disconnected at the read
/// deadline, freeing its capacity and incrementing `timed_out`.
#[test]
fn idle_peer_is_disconnected_at_the_read_deadline() {
    for (name, spawn) in servers() {
        let server = reputation_server(ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        });
        let fe = spawn(
            Arc::clone(&server),
            TcpServerConfig {
                max_connections: 4,
                read_timeout: Duration::from_millis(150),
                ..TcpServerConfig::default()
            },
        );

        let mut client = TcpClient::connect(fe.local_addr()).unwrap();
        client.set_timeouts(Some(Duration::from_secs(5)), None).unwrap();
        assert!(matches!(client.call(&query()).unwrap(), Response::UnknownSoftware { .. }));

        // Go silent past the server's read deadline; it must hang up.
        std::thread::sleep(Duration::from_millis(500));
        let err = client.call(&query()); // write may succeed locally...
        let disconnected = match err {
            // ...but the response read observes the server-side close,
            Err(e) => e.is_disconnect(),
            // or the write itself already failed on a torn-down socket.
            Ok(_) => false,
        };
        assert!(disconnected, "{name}: server must close the idle connection");

        // The capacity slot is free again and the timeout was counted.
        wait_for("idle conn reaped", || fe.active_connections() == 0);
        assert_eq!(fe.stats().timed_out, 1, "{name}");
        fe.shutdown();
    }
}

/// Shutdown with idle keep-alive connections must not wait out the full
/// read timeout: it drains for `drain_deadline`, force-closes stragglers,
/// and joins every serving thread.
#[test]
fn shutdown_latency_is_bounded_by_the_drain_deadline_not_the_read_timeout() {
    for (name, spawn) in servers() {
        let server = reputation_server(ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        });
        let fe = spawn(
            Arc::clone(&server),
            TcpServerConfig {
                max_connections: 4,
                read_timeout: Duration::from_secs(30), // deliberately long
                drain_deadline: Duration::from_millis(200),
                ..TcpServerConfig::default()
            },
        );

        // Two idle keep-alive clients sit in open connections.
        let mut a = TcpClient::connect(fe.local_addr()).unwrap();
        let mut b = TcpClient::connect(fe.local_addr()).unwrap();
        assert!(matches!(a.call(&query()).unwrap(), Response::UnknownSoftware { .. }));
        assert!(matches!(b.call(&query()).unwrap(), Response::UnknownSoftware { .. }));

        let stats = fe.stats_handle();
        let started = Instant::now();
        fe.shutdown();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "{name}: shutdown took {elapsed:?}; must not wait out the 30 s read timeout"
        );
        let s = stats.snapshot();
        assert_eq!(s.active, 0, "{name}: every connection closed: {s:?}");
        assert_eq!(s.accepted, s.closed, "{name}");
    }
}

/// Shutdown fires promptly even when no client ever connected — guards
/// against a blocking accept (threads) or a stuck event loop (epoll)
/// hanging shutdown forever.
#[test]
fn shutdown_with_no_traffic_is_prompt() {
    for (name, spawn) in servers() {
        let server = reputation_server(ServerConfig::default());
        let fe = spawn(server, TcpServerConfig::default());
        let started = Instant::now();
        fe.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{name}: idle shutdown must be immediate"
        );
    }
}

/// Raw protocol violations (oversized frame headers) drop the connection
/// without taking the serving thread down with a panic.
#[test]
fn oversized_frame_header_drops_the_connection_cleanly() {
    for (name, spawn) in servers() {
        let server = reputation_server(ServerConfig::default());
        let fe = spawn(Arc::clone(&server), TcpServerConfig::default());

        let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Declare a 512 MiB frame; the server must refuse, not allocate.
        use std::io::Write;
        stream.write_all(&(512u32 * 1024 * 1024).to_be_bytes()).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert!(read_frame(&mut reader).is_err(), "{name}: connection must be dropped");

        // The server is still alive for well-behaved clients.
        let mut client = TcpClient::connect(fe.local_addr()).unwrap();
        assert!(matches!(client.call(&query()).unwrap(), Response::UnknownSoftware { .. }));
        fe.shutdown();
    }
}

/// Many requests on one connection, written ahead of the reads: both front
/// ends answer each in order and count each (sanity for the counter
/// arithmetic and the reactor's kernel-buffered pipelining).
#[test]
fn request_counter_tracks_pipelined_traffic() {
    for (name, spawn) in servers() {
        let server = reputation_server(ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        });
        let fe = spawn(Arc::clone(&server), TcpServerConfig::default());
        let stream = TcpStream::connect(fe.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // Pipeline: write all requests, then read all responses.
        for _ in 0..10 {
            write_frame(&mut writer, &query().encode()).unwrap();
        }
        for i in 0..10 {
            let body =
                read_frame(&mut reader).unwrap_or_else(|e| panic!("{name}: response {i}: {e}"));
            assert!(matches!(Response::decode(&body).unwrap(), Response::UnknownSoftware { .. }));
        }
        wait_for("10 served", || fe.stats().requests_served == 10);
        fe.shutdown();
    }
}

/// The tentpole capacity claim: 1024 concurrent slow-loris connections —
/// each parks two header bytes and goes silent — are *held* by the reactor
/// (admitted, not shed) while a well-behaved client is still served. The
/// thread front end sheds at `max_connections` (64) under the same attack;
/// here the reactor's connection table absorbs the whole flood with no
/// thread per peer.
#[cfg(target_os = "linux")]
#[test]
fn reactor_sustains_1024_slow_loris_connections_while_serving() {
    use std::io::Write;

    const LORIS: usize = 1024;
    let server = reputation_server(ServerConfig {
        puzzle_difficulty: 0,
        flood_capacity: u32::MAX,
        flood_refill_per_hour: u32::MAX,
        ..ServerConfig::default()
    });
    let fe = ReactorServer::spawn_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        TcpServerConfig {
            max_open_connections: 4096,
            read_timeout: Duration::from_secs(60), // hold the flood open
            drain_deadline: Duration::from_millis(250),
            ..TcpServerConfig::default()
        },
    )
    .unwrap();
    let addr = fe.local_addr();

    let mut holds = Vec::with_capacity(LORIS);
    let deadline = Instant::now() + Duration::from_secs(60);
    while holds.len() < LORIS {
        // The listener backlog is finite; under a connect burst some
        // attempts need a retry while the reactor drains the queue.
        match TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
            Ok(mut stream) => {
                stream.write_all(&[0u8, 0u8]).unwrap(); // 2 of 4 header bytes
                holds.push(stream);
            }
            Err(_) => {
                assert!(Instant::now() < deadline, "could not open {LORIS} connections");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    let admitted = Instant::now() + Duration::from_secs(30);
    while (fe.stats().accepted as usize) < LORIS {
        assert!(Instant::now() < admitted, "flood not admitted: {:?}", fe.stats());
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = fe.stats();
    assert_eq!(stats.rejected_overload, 0, "the flood must be held, not shed: {stats:?}");
    assert!(stats.active as usize >= LORIS, "{stats:?}");

    // Under the full flood, a well-behaved client still gets answered.
    let mut client = TcpClient::connect(addr).unwrap();
    client.set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10))).unwrap();
    for _ in 0..3 {
        assert!(matches!(client.call(&query()).unwrap(), Response::UnknownSoftware { .. }));
    }

    drop(client);
    drop(holds);
    let stats = fe.stats_handle();
    fe.shutdown();
    assert_eq!(stats.snapshot().active, 0, "shutdown must reap the flood");
}

/// Joins `name` as an active member (puzzles are off) and returns a session.
fn join(server: &ReputationServer, name: &str) -> String {
    let register = Request::Register {
        username: name.into(),
        password: "pw".into(),
        email: format!("{name}@example.com"),
        puzzle_challenge: String::new(),
        puzzle_solution: 0,
    };
    let Response::Registered { activation_token } = server.handle(&register, name) else {
        panic!("{name} could not register")
    };
    let activate = Request::Activate { username: name.into(), token: activation_token };
    assert_eq!(server.handle(&activate, name), Response::Ok);
    let login = Request::Login { username: name.into(), password: "pw".into() };
    let Response::Session { token } = server.handle(&login, name) else {
        panic!("{name} could not log in")
    };
    token
}

/// Two members each vote on one title with 6,000 distinct ~100-byte
/// behaviour names. Each vote fits one request frame, but a report listing
/// all 12,000 names would not fit one response frame. The title's report
/// must still be answered, with a report, on both servers: a closed
/// connection reads as a transport failure, so clients would retry it
/// forever.
#[test]
fn a_title_flooded_with_behaviour_names_still_gets_a_report() {
    let server = reputation_server(ServerConfig {
        puzzle_difficulty: 0,
        flood_capacity: u32::MAX,
        flood_refill_per_hour: u32::MAX,
        ..ServerConfig::default()
    });
    let title = "ab".repeat(20);
    let register = Request::RegisterSoftware {
        software_id: title.clone(),
        file_name: "flooded.exe".into(),
        file_size: 1,
        company: None,
        version: None,
    };
    assert_eq!(server.handle(&register, "setup"), Response::Ok);
    for member in ["member-a", "member-b"] {
        let session = join(&server, member);
        let behaviours =
            (0..6_000).map(|i| format!("{member}-{i:05}-{}", "x".repeat(85))).collect();
        let vote =
            Request::SubmitVote { session, software_id: title.clone(), score: 2, behaviours };
        assert!(vote.encode().len() < MAX_FRAME_LEN as usize, "each vote fits one frame");
        // Accepted or refused, the title's report must stay answerable.
        let _ = server.handle(&vote, member);
    }
    server.run_full_aggregation();

    for (name, spawn) in servers() {
        let fe = spawn(Arc::clone(&server), TcpServerConfig::default());
        let mut client = TcpClient::connect(fe.local_addr()).unwrap();
        client.set_timeouts(Some(Duration::from_secs(10)), None).unwrap();
        let resp = client
            .call(&Request::QuerySoftware { software_id: title.clone() })
            .unwrap_or_else(|e| panic!("{name}: the report got no answer: {e}"));
        let Response::Software(info) = resp else { panic!("{name}: {resp:?}") };
        assert!(info.behaviours.len() <= MAX_BEHAVIOURS, "{name}");
        fe.shutdown();
    }
}

/// An answer that cannot fit one frame (here: a comment cap far above the
/// 41 comments a frame holds) is replaced by a typed
/// `response-too-large` error, and the connection stays usable. Both
/// servers answer it the same way, because they share one request path.
#[test]
fn an_answer_too_large_for_one_frame_is_a_typed_error() {
    let server = reputation_server(ServerConfig {
        puzzle_difficulty: 0,
        flood_capacity: u32::MAX,
        flood_refill_per_hour: u32::MAX,
        max_comments_in_report: 64,
        ..ServerConfig::default()
    });
    let title = "cd".repeat(20);
    let register = Request::RegisterSoftware {
        software_id: title.clone(),
        file_name: "talkative.exe".into(),
        file_size: 1,
        company: None,
        version: None,
    };
    assert_eq!(server.handle(&register, "setup"), Response::Ok);
    let session = join(&server, "commenter");
    for _ in 0..64 {
        // Each apostrophe encodes as the 6-byte `&apos;`.
        let comment = Request::SubmitComment {
            session: session.clone(),
            software_id: title.clone(),
            text: "'".repeat(4096),
        };
        assert_eq!(server.handle(&comment, "commenter"), Response::Ok);
    }

    for (name, spawn) in servers() {
        let fe = spawn(Arc::clone(&server), TcpServerConfig::default());
        let mut client = TcpClient::connect(fe.local_addr()).unwrap();
        client.set_timeouts(Some(Duration::from_secs(10)), None).unwrap();
        let resp = client.call(&Request::QuerySoftware { software_id: title.clone() }).unwrap();
        assert!(
            matches!(&resp, Response::Error { code, .. } if code == "response-too-large"),
            "{name}: {resp:?}"
        );
        assert!(matches!(client.call(&query()).unwrap(), Response::UnknownSoftware { .. }));
        fe.shutdown();
    }
}

/// `replica_of` marks the handler whichever server is spawned, so both
/// redirect writes to the primary.
#[test]
fn replica_of_redirects_writes_on_both_servers() {
    for (name, spawn) in servers() {
        let server = reputation_server(ServerConfig::default());
        let primary = "192.0.2.1:7007".to_string();
        let config = TcpServerConfig { replica_of: Some(primary.clone()), ..Default::default() };
        let fe = spawn(server, config);
        let mut client = TcpClient::connect(fe.local_addr()).unwrap();
        let resp = client.call(&Request::GetPuzzle).unwrap();
        assert_eq!(resp, Response::NotPrimary { primary: primary.clone() }, "{name}");
        drop(client);
        fe.shutdown();
    }
}
