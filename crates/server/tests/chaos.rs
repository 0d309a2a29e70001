//! Network chaos suite for the TCP front ends (DESIGN.md §13): scripted
//! connection-level faults — truncated frames, mid-frame stalls past the
//! read deadline, garbage bodies, oversized headers, abrupt closes —
//! singly and in a seeded random sweep. After every schedule the server
//! must still answer a healthy request, hold no workers hostage, and keep
//! its counters consistent: chaos degrades one connection, never the
//! service.
//!
//! Every scripted fault runs against *both* serving architectures (the
//! thread pool and, on Linux, the epoll reactor), and a differential test
//! replays the seeded sweep against both front ends asserting
//! byte-identical response transcripts.

#![allow(
    clippy::disallowed_methods,
    reason = "deadlines and latency bounds on real sockets need the wall clock"
)]

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use softrep_core::clock::SimClock;
use softrep_core::db::ReputationDb;
use softrep_proto::framing::write_frame;
use softrep_proto::{Request, Response};
#[cfg(target_os = "linux")]
use softrep_server::reactor::ReactorServer;
use softrep_server::tcp::{FrontendServer, TcpClient, TcpServer, TcpServerConfig};
use softrep_server::{ReputationServer, ServerConfig};

fn reputation_server() -> Arc<ReputationServer> {
    Arc::new(ReputationServer::new(
        ReputationDb::in_memory("chaos-pepper"),
        Arc::new(SimClock::new()),
        ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        },
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

fn spawn_with(spawn: Spawn, read_timeout: Duration) -> (FrontendServer, Arc<ReputationServer>) {
    let server = reputation_server();
    let fe =
        spawn(Arc::clone(&server), TcpServerConfig { read_timeout, ..TcpServerConfig::default() });
    (fe, server)
}

fn query() -> Request {
    Request::QuerySoftware { software_id: "ab".repeat(20) }
}

/// A healthy exchange must succeed — the proof that chaos did not take
/// the service down with the connection it hit.
fn assert_service_healthy(fe: &FrontendServer) {
    let mut client = TcpClient::connect(fe.local_addr()).unwrap();
    let response = client.call(&query()).unwrap();
    assert!(
        !matches!(&response, Response::Error { code, .. } if code == "overloaded"),
        "healthy request shed after chaos: {response:?}"
    );
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "not reached within 5s: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Same generator as the failpoint registry's `Chance` action — tiny,
/// seedable, and dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A frame whose header promises more bytes than ever arrive, then a
/// clean close: the body read fails mid-frame and the connection is
/// dropped without a response — and without wedging the front end.
#[test]
fn truncated_request_frame_drops_only_that_connection() {
    for (name, spawn) in servers() {
        let (fe, _server) = spawn_with(spawn, Duration::from_secs(30));

        let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
        let body = query().encode();
        stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(&body.as_bytes()[..body.len() / 2]).unwrap();
        stream.flush().unwrap();
        drop(stream); // tear: the rest of the frame never arrives

        wait_for("truncated connection closed", || fe.stats().closed == 1);
        let stats = fe.stats();
        assert_eq!(stats.accepted, 1, "{name}");
        assert_eq!(stats.requests_served, 0, "{name}: a torn request must not be dispatched");
        assert_eq!(stats.active, 0, "{name}: capacity freed");

        assert_service_healthy(&fe);
        fe.shutdown();
    }
}

/// A peer that sends half a frame and then goes silent (socket open, no
/// bytes) is evicted at the read deadline, freeing its capacity — the
/// delay path of the chaos matrix.
#[test]
fn mid_frame_stall_is_evicted_at_the_read_deadline() {
    for (name, spawn) in servers() {
        let (fe, _server) = spawn_with(spawn, Duration::from_millis(200));

        let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
        let body = query().encode();
        stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(&body.as_bytes()[..4]).unwrap();
        stream.flush().unwrap();
        // Keep the socket open and silent: only the deadline can free the
        // connection now.
        let started = Instant::now();
        wait_for("stalled connection evicted", || fe.stats().closed == 1);
        assert!(
            started.elapsed() >= Duration::from_millis(150),
            "{name}: eviction should come from the read deadline, not an instant error"
        );
        let stats = fe.stats();
        assert_eq!(stats.timed_out, 1, "{name}: eviction accounted as a timeout");
        assert_eq!(stats.requests_served, 0, "{name}");
        assert_eq!(stats.active, 0, "{name}");
        drop(stream);

        assert_service_healthy(&fe);
        fe.shutdown();
    }
}

/// While capacity is pinned by stalled peers, new arrivals are shed with
/// an explicit `overloaded` frame; once the deadline evicts the stallers,
/// service resumes — shed and deadline paths composing.
#[test]
fn shed_path_engages_while_stalled_peers_pin_the_workers() {
    for (name, spawn) in servers() {
        let server = reputation_server();
        let fe = spawn(
            Arc::clone(&server),
            TcpServerConfig {
                max_connections: 2,
                max_open_connections: 2,
                read_timeout: Duration::from_millis(400),
                ..TcpServerConfig::default()
            },
        );

        // Two silent peers pin the whole capacity.
        let pin_a = TcpStream::connect(fe.local_addr()).unwrap();
        let pin_b = TcpStream::connect(fe.local_addr()).unwrap();
        wait_for("capacity pinned", || fe.stats().active == 2);

        // A third connection is shed with a decodable overloaded frame.
        let mut client = TcpClient::connect(fe.local_addr()).unwrap();
        client.set_timeouts(Some(Duration::from_secs(5)), None).unwrap();
        match client.call(&query()) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, "overloaded", "{name}"),
            other => panic!("{name}: expected an overloaded error frame, got {other:?}"),
        }
        assert_eq!(fe.stats().rejected_overload, 1, "{name}");

        // The deadline evicts the stallers and capacity returns.
        wait_for("stallers evicted", || fe.stats().timed_out == 2);
        drop(pin_a);
        drop(pin_b);
        assert_service_healthy(&fe);
        fe.shutdown();
    }
}

/// Seeded random sweep: a few dozen connections each misbehave in a
/// randomly chosen way. Whatever the schedule, every connection ends,
/// no capacity leaks, well-formed requests are all answered, and the
/// server still serves. Reproduce a failure with
/// `SOFTREP_CHAOS_SEED=<seed> cargo test -p softrep-server --test chaos`.
#[test]
fn seeded_fault_sweep_never_degrades_the_service() {
    let seed: u64 =
        std::env::var("SOFTREP_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xdecaf);
    for (name, spawn) in servers() {
        let mut rng = SplitMix64(seed);
        let (fe, _server) = spawn_with(spawn, Duration::from_millis(300));

        let connections = 32;
        let mut well_formed = 0u64;
        for i in 0..connections {
            let ctx = || format!("{name}, seed {seed}, connection {i}");
            run_sweep_connection(&fe, &mut rng, i, &ctx, &mut well_formed, &mut Vec::new());
        }

        // Every connection winds down (the stragglers at the read
        // deadline) and no capacity leaks.
        wait_for("all chaos connections closed", || {
            let s = fe.stats();
            s.closed + s.rejected_overload >= connections
        });
        wait_for("no active connections", || fe.stats().active == 0);
        let stats = fe.stats();
        assert_eq!(
            stats.requests_served, well_formed,
            "{name}, seed {seed}: every well-formed request answered, malformed ones \
             never dispatched"
        );
        assert_service_healthy(&fe);
        fe.shutdown();
    }
}

/// One connection of the seeded sweep. Responses received on well-formed
/// exchanges are appended to `transcript` (raw frame bytes) so the
/// differential test can compare front ends byte-for-byte; fault cases
/// append a fixed marker keyed by the case.
fn run_sweep_connection(
    fe: &FrontendServer,
    rng: &mut SplitMix64,
    i: u64,
    ctx: &dyn Fn() -> String,
    well_formed: &mut u64,
    transcript: &mut Vec<Vec<u8>>,
) {
    match rng.below(6) {
        // A healthy request/response exchange; the queried id varies per
        // connection so the echoed response body differs too.
        0 => {
            let software_id = format!("{i:02}").repeat(20);
            let request = Request::QuerySoftware { software_id };
            let mut client = TcpClient::connect(fe.local_addr()).unwrap();
            let response = client.call(&request).unwrap_or_else(|e| panic!("{}: {e}", ctx()));
            transcript.push(response.encode().into_bytes());
            *well_formed += 1;
        }
        // Connect and immediately hang up.
        1 => {
            drop(TcpStream::connect(fe.local_addr()).unwrap());
            transcript.push(b"<hangup>".to_vec());
        }
        // Truncated frame, then close.
        2 => {
            let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
            let body = query().encode();
            let keep = rng.below(body.len() as u64) as usize;
            stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
            stream.write_all(&body.as_bytes()[..keep]).unwrap();
            transcript.push(b"<truncated>".to_vec());
        }
        // A frame header promising more than the 1 MiB cap.
        3 => {
            let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
            stream.write_all(&(8 * 1024 * 1024u32).to_be_bytes()).unwrap();
            transcript.push(b"<oversized>".to_vec());
        }
        // A well-framed body that is not a protocol message: answered
        // with a bad-request error, connection stays up.
        4 => {
            let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
            write_frame(&mut stream, "<gibberish>").unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let frame = softrep_proto::framing::read_frame(&mut reader)
                .unwrap_or_else(|e| panic!("{}: no bad-request reply: {e}", ctx()));
            match Response::decode(&frame) {
                Ok(Response::Error { ref code, .. }) => assert_eq!(code, "bad-request"),
                other => panic!("{}: expected bad-request, got {other:?}", ctx()),
            }
            transcript.push(frame.into_bytes());
            *well_formed += 1;
        }
        // A partial header (less than 4 length bytes), then close.
        _ => {
            let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
            stream.write_all(&[0u8; 2]).unwrap();
            transcript.push(b"<partial-header>".to_vec());
        }
    }
}

/// Differential oracle: the thread front end and the epoll reactor must
/// produce **byte-identical** response transcripts for the same seeded
/// 32-connection misbehaviour schedule against identically-seeded
/// servers. The thread pool is the simple, obviously-correct
/// implementation; any divergence is a reactor bug.
#[cfg(target_os = "linux")]
#[test]
fn differential_sweep_is_byte_identical_across_front_ends() {
    let seed: u64 =
        std::env::var("SOFTREP_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xdecaf);

    let run = |(name, spawn): (&str, Spawn)| -> Vec<Vec<u8>> {
        let mut rng = SplitMix64(seed);
        let (fe, _server) = spawn_with(spawn, Duration::from_millis(300));
        let mut transcript = Vec::new();
        let mut well_formed = 0u64;
        for i in 0..32u64 {
            let ctx = || format!("{name}, seed {seed}, connection {i}");
            run_sweep_connection(&fe, &mut rng, i, &ctx, &mut well_formed, &mut transcript);
        }
        wait_for("sweep settled", || {
            let s = fe.stats();
            s.closed + s.rejected_overload >= 32 && s.active == 0
        });
        assert_eq!(fe.stats().requests_served, well_formed, "{name}");
        fe.shutdown();
        transcript
    };

    let transcripts: Vec<Vec<Vec<u8>>> = servers().into_iter().map(run).collect();
    let [threads, epoll] = &transcripts[..] else { panic!("Linux has two servers") };
    assert_eq!(threads.len(), epoll.len());
    let markers: [&[u8]; 4] = [b"<hangup>", b"<truncated>", b"<oversized>", b"<partial-header>"];
    assert!(
        threads.iter().any(|t| !markers.contains(&t.as_slice())),
        "the seeded schedule must exercise at least one served response"
    );
    for (i, (t, e)) in threads.iter().zip(epoll).enumerate() {
        assert_eq!(
            t,
            e,
            "seed {seed}, connection {i}: front ends diverged\n threads: {:?}\n epoll:   {:?}",
            String::from_utf8_lossy(t),
            String::from_utf8_lossy(e)
        );
    }
}
