//! Client-side network chaos: a scripted fault proxy plays one planned
//! misbehaviour per accepted connection — drop before responding, truncate
//! the response frame, stall past the call deadline, answer garbage — and
//! the connector's retry taxonomy is asserted exactly: transport faults
//! retry and surface as `Exhausted` only when the budget runs out;
//! protocol violations are `Fatal` after precisely one attempt.

#![allow(
    clippy::disallowed_methods,
    reason = "deadlines and latency bounds on real sockets need the wall clock"
)]

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use softrep_client::{CallError, RetryPolicy, TcpConnector};
use softrep_proto::framing::{read_frame, write_frame};
use softrep_proto::{Request, Response};

/// What the proxy does with one accepted connection, after reading the
/// request frame.
#[derive(Clone, Copy, Debug)]
enum Plan {
    /// Answer with a well-formed response.
    Respond,
    /// Close without answering (connection drop mid-exchange).
    CloseBeforeResponse,
    /// Write a response header promising more bytes than are sent, then
    /// close (torn response frame).
    TruncateResponse,
    /// Go silent for the given milliseconds (without answering), forcing
    /// the client's call deadline to fire.
    StallMs(u64),
    /// Answer with a well-framed body that is not a protocol message.
    GarbageResponse,
    /// Answer with a frame header above the 1 MiB protocol cap.
    OversizedHeader,
    /// Answer with a well-framed body that is not UTF-8.
    NotUtf8Response,
}

/// A TCP endpoint that consumes one [`Plan`] per accepted connection (the
/// last plan repeats once the script is exhausted) and counts connections,
/// so tests can assert exactly how many attempts the connector made.
struct ChaosEndpoint {
    addr: std::net::SocketAddr,
    accepted: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosEndpoint {
    fn spawn(plans: Vec<Plan>) -> Self {
        assert!(!plans.is_empty(), "need at least one plan");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let script = Arc::new(Mutex::new(plans.into_iter().collect::<Vec<_>>()));

        let t_accepted = Arc::clone(&accepted);
        let t_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if t_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let n = t_accepted.fetch_add(1, Ordering::SeqCst);
                let plan = {
                    let s = script.lock();
                    *s.get(n).unwrap_or_else(|| s.last().expect("non-empty script"))
                };
                // One thread per connection: a stalling plan must not
                // block the accept loop, or the client's retry could time
                // out waiting in the backlog instead of being served.
                std::thread::spawn(move || serve_one(stream, plan));
            }
        });
        ChaosEndpoint { addr, accepted, stop, thread: Some(thread) }
    }

    fn connections(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }
}

impl Drop for ChaosEndpoint {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept so the thread observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_one(stream: TcpStream, plan: Plan) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    if read_frame(&mut reader).is_err() {
        return;
    }
    match plan {
        Plan::Respond => {
            let body = Response::error("chaos-ok", "scripted success").encode();
            let _ = write_frame(&mut writer, &body);
        }
        Plan::CloseBeforeResponse => {}
        Plan::TruncateResponse => {
            let body = Response::error("chaos-torn", "you will never read this").encode();
            let _ = writer.write_all(&(body.len() as u32).to_be_bytes());
            let _ = writer.write_all(&body.as_bytes()[..body.len() / 2]);
            let _ = writer.flush();
        }
        Plan::StallMs(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
        }
        Plan::GarbageResponse => {
            let _ = write_frame(&mut writer, "<not-a-response>");
        }
        Plan::OversizedHeader => {
            let _ = writer.write_all(&(8 * 1024 * 1024u32).to_be_bytes());
            let _ = writer.flush();
        }
        Plan::NotUtf8Response => {
            let _ = writer.write_all(&4u32.to_be_bytes());
            let _ = writer.write_all(&[0xff, 0xfe, 0xfd, 0xfc]);
            let _ = writer.flush();
        }
    }
}

fn policy(max_attempts: u32, call_timeout: Duration) -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(500),
        call_timeout,
        max_attempts,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter: 0.5,
        jitter_seed: 7,
    }
}

fn query() -> Request {
    Request::QuerySoftware { software_id: "cd".repeat(20) }
}

fn is_chaos_ok(response: &Response) -> bool {
    matches!(response, Response::Error { code, .. } if code == "chaos-ok")
}

/// Drops on every attempt: the budget is spent attempt-by-attempt (one
/// connection each) and the failure is `Exhausted` — explicitly retryable
/// later, with the true attempt count reported.
#[test]
fn persistent_drops_exhaust_the_budget_and_stay_retryable() {
    let endpoint = ChaosEndpoint::spawn(vec![Plan::CloseBeforeResponse]);
    let mut connector =
        TcpConnector::new(endpoint.addr, policy(3, Duration::from_secs(2))).unwrap();

    match connector.try_call(&query()) {
        Err(e @ CallError::Exhausted { attempts, .. }) => {
            assert_eq!(attempts, 3);
            assert!(e.is_retryable());
        }
        other => panic!("expected Exhausted after persistent drops, got {other:?}"),
    }
    assert_eq!(endpoint.connections(), 3, "one fresh connection per attempt");
}

/// Transient faults — a drop, then a torn response — are absorbed by the
/// retry budget: the third attempt lands and the caller sees only success.
#[test]
fn drop_then_torn_response_are_retried_to_success() {
    let endpoint = ChaosEndpoint::spawn(vec![
        Plan::CloseBeforeResponse,
        Plan::TruncateResponse,
        Plan::Respond,
    ]);
    let mut connector =
        TcpConnector::new(endpoint.addr, policy(5, Duration::from_secs(2))).unwrap();

    let response = connector.try_call(&query()).expect("retries must absorb transient chaos");
    assert!(is_chaos_ok(&response), "unexpected response: {response:?}");
    assert_eq!(endpoint.connections(), 3, "exactly two faulted attempts before success");
}

/// A stall past the call deadline is a *retryable* fault: the read times
/// out, the connection is abandoned, and the next attempt succeeds.
#[test]
fn stall_past_the_call_deadline_is_retried_not_fatal() {
    let deadline = Duration::from_millis(200);
    let endpoint = ChaosEndpoint::spawn(vec![Plan::StallMs(1_000), Plan::Respond]);
    let mut connector = TcpConnector::new(endpoint.addr, policy(4, deadline)).unwrap();

    let started = Instant::now();
    let response = connector.try_call(&query()).expect("stall must be retried");
    assert!(is_chaos_ok(&response));
    assert!(started.elapsed() >= deadline, "success cannot predate the first attempt's deadline");
    assert_eq!(endpoint.connections(), 2);
}

/// Protocol violations are fatal after exactly one attempt: a peer
/// answering garbage will answer garbage again, so the connector must not
/// spend its budget finding out. One test per violation class.
#[test]
fn garbage_response_is_fatal_after_one_attempt() {
    let endpoint = ChaosEndpoint::spawn(vec![Plan::GarbageResponse, Plan::Respond]);
    let mut connector =
        TcpConnector::new(endpoint.addr, policy(5, Duration::from_secs(2))).unwrap();

    match connector.try_call(&query()) {
        Err(e @ CallError::Fatal(_)) => assert!(!e.is_retryable()),
        other => panic!("expected Fatal on garbage, got {other:?}"),
    }
    assert_eq!(
        endpoint.connections(),
        1,
        "a protocol violation must not be retried (the Respond plan stays unused)"
    );
}

#[test]
fn oversized_response_header_is_fatal_after_one_attempt() {
    let endpoint = ChaosEndpoint::spawn(vec![Plan::OversizedHeader, Plan::Respond]);
    let mut connector =
        TcpConnector::new(endpoint.addr, policy(5, Duration::from_secs(2))).unwrap();

    match connector.try_call(&query()) {
        Err(CallError::Fatal(msg)) => {
            assert!(msg.contains("exceeds limit"), "unexpected fatal cause: {msg}")
        }
        other => panic!("expected Fatal on oversized header, got {other:?}"),
    }
    assert_eq!(endpoint.connections(), 1);
}

#[test]
fn non_utf8_response_is_fatal_after_one_attempt() {
    let endpoint = ChaosEndpoint::spawn(vec![Plan::NotUtf8Response, Plan::Respond]);
    let mut connector =
        TcpConnector::new(endpoint.addr, policy(5, Duration::from_secs(2))).unwrap();

    match connector.try_call(&query()) {
        Err(CallError::Fatal(msg)) => {
            assert!(msg.contains("UTF-8"), "unexpected fatal cause: {msg}")
        }
        other => panic!("expected Fatal on non-UTF-8 body, got {other:?}"),
    }
    assert_eq!(endpoint.connections(), 1);
}

/// After a fatal error the connector is still usable: the poisoned stream
/// was dropped, and the next call dials fresh and succeeds when the peer
/// behaves.
#[test]
fn connector_recovers_with_a_fresh_dial_after_a_fatal_error() {
    let endpoint = ChaosEndpoint::spawn(vec![Plan::GarbageResponse, Plan::Respond]);
    let mut connector =
        TcpConnector::new(endpoint.addr, policy(3, Duration::from_secs(2))).unwrap();

    assert!(matches!(connector.try_call(&query()), Err(CallError::Fatal(_))));
    assert!(!connector.is_connected(), "the desynchronized stream must be dropped");
    let response = connector.try_call(&query()).expect("fresh dial after fatal");
    assert!(is_chaos_ok(&response));
    assert_eq!(endpoint.connections(), 2);
}
