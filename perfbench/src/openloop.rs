//! The open-loop load generator.
//!
//! Requests leave on a fixed schedule whether or not earlier ones were
//! answered (independent users, not callers waiting on replies), and each
//! latency is timed from the request's *scheduled* send time, so a stall
//! is charged to every request it delays instead of being omitted.
//!
//! Two threads: the calling thread sends; a scoped receiver thread reads
//! every open connection through epoll and timestamps each answer as it
//! arrives, leaving decoding and checking until the phase is over. At most
//! [`MAX_CONNS`] connections are open at once, each carrying one user's
//! requests from that user's own loopback address.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddrV4, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use softrep_proto::framing::encode_frame_into;
use softrep_proto::Response;
use softrep_server::epoll::{self, Epoll, EventFd};

use crate::net;
use crate::workload::{user_addr, Class, Dataset, Stream};

/// Connections open at once, at most.
pub const MAX_CONNS: usize = 2;
/// Longest the sender waits for a free connection slot or a session.
const DEPENDENCY_WAIT: Duration = Duration::from_secs(2);
/// The sender sleeps until this close to a send time, then spins.
const SPIN: Duration = Duration::from_micros(40);
/// How long a phase waits for its last answers once its schedule ends.
const DRAIN: Duration = Duration::from_secs(10);
/// The windows, from the start of a phase, over which the receiver records
/// how much CPU time the host took from this machine.
pub const WINDOW_NS: u64 = 1_000_000_000;
const WAKER: u64 = u64::MAX;

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The request's class.
    pub class: Class,
    /// Scheduled send time, from the start of the phase.
    pub due_ns: u64,
    /// Arrival of the answer minus the scheduled send time.
    pub latency_ns: u64,
}

/// Where a phase starts in a stream: its first unsent request, skipping
/// the unsent rest of every connection an earlier phase opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor {
    pos: usize,
    min_conn: u32,
}

/// One stretch of traffic at a fixed rate.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Arrival rate, requests/s.
    pub rate: f64,
    /// How long requests are scheduled.
    pub duration: Duration,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every answered request.
    pub samples: Vec<Sample>,
    /// Requests due in the phase: written, or unsendable for want of a
    /// session.
    pub attempted: u64,
    /// Requests written to a socket.
    pub written: u64,
    /// Attempted requests without a correct answer: a wrong kind, an
    /// error, a lost connection, or no answer before the drain deadline.
    pub failed: u64,
    /// Actual minus scheduled send time of each written request.
    pub lag_ns: Vec<u64>,
    /// From the first scheduled send to the last answer.
    pub elapsed_ns: u64,
    /// Raw answers by stream index, for byte comparisons.
    pub bodies: Vec<(usize, Vec<u8>)>,
    /// Where the next phase on the same stream starts.
    pub next: Cursor,
    /// Share of CPU time the host's hypervisor took (steal) in each
    /// [`WINDOW_NS`] window of the phase.
    pub window_steal: Vec<f64>,
}

enum Msg {
    Open { conn: u32, socket: TcpStream },
    Sent { conn: u32, item: usize, due_ns: u64 },
    Seal { conn: u32, total: u32 },
    Done,
}

struct Shared {
    open: AtomicUsize,
    sessions: Mutex<HashMap<u32, String>>,
    waker: EventFd,
}

/// Send `stream` from `from` to `target` at `phase.rate` for
/// `phase.duration`, wait up to [`DRAIN`] for the answers, and check
/// each answer against its request.
pub fn run(
    target: SocketAddrV4,
    data: &Dataset,
    stream: &Stream,
    from: Cursor,
    phase: Phase,
) -> Result<Outcome, String> {
    let shared = Shared {
        open: AtomicUsize::new(0),
        sessions: Mutex::new(HashMap::new()),
        waker: EventFd::new().map_err(|e| format!("eventfd: {e}"))?,
    };
    let (tx, rx) = mpsc::channel();
    let base = Instant::now() + Duration::from_millis(2);
    let (sent, received) = std::thread::scope(|scope| {
        let shared = &shared;
        let receiver = scope.spawn(move || receive(shared, rx, base, stream));
        let sent = send(shared, &tx, base, target, data, stream, from, phase);
        let _ = tx.send(Msg::Done);
        let _ = shared.waker.signal();
        (sent, receiver.join())
    });
    let received = received.map_err(|_| "receiver thread panicked".to_string())??;
    let sent = sent?;
    let mut failed = sent.failed + received.failed;
    for (item, body) in &received.bodies {
        let answer = std::str::from_utf8(body).ok().and_then(|text| Response::decode(text).ok());
        if !answer.is_some_and(|r| stream.items[*item].accepts(data, &r)) {
            failed += 1;
        }
    }
    Ok(Outcome {
        samples: received.samples,
        attempted: sent.attempted,
        written: sent.written,
        failed,
        lag_ns: sent.lag_ns,
        elapsed_ns: received.last_ns,
        bodies: received.bodies,
        next: sent.next,
        window_steal: received.window_steal,
    })
}

struct Sent {
    attempted: u64,
    written: u64,
    failed: u64,
    lag_ns: Vec<u64>,
    next: Cursor,
}

#[allow(clippy::too_many_arguments)]
fn send(
    shared: &Shared,
    tx: &Sender<Msg>,
    base: Instant,
    target: SocketAddrV4,
    data: &Dataset,
    stream: &Stream,
    from: Cursor,
    phase: Phase,
) -> Result<Sent, String> {
    let period_ns = 1e9 / phase.rate;
    let limit_ns = phase.duration.as_nanos() as u64;
    let mut out = Sent { attempted: 0, written: 0, failed: 0, lag_ns: Vec::new(), next: from };
    // Open connections: the write half and the requests written on it.
    let mut writers: HashMap<u32, (TcpStream, u32)> = HashMap::new();
    let mut next_conn = from.min_conn;
    let mut frame = Vec::new();
    let mut pos = from.pos;
    while let Some(item) = stream.items.get(pos) {
        let conn = item.conn;
        if conn < next_conn && !writers.contains_key(&conn) {
            // The rest of a connection an earlier phase opened.
            pos += 1;
            continue;
        }
        let due_ns = (out.attempted as f64 * period_ns) as u64;
        if due_ns >= limit_ns {
            break;
        }
        if let Entry::Vacant(slot) = writers.entry(conn) {
            wait_for(|| (shared.open.load(Ordering::SeqCst) < MAX_CONNS).then_some(()))
                .ok_or("no connection finished within 2 s: the server stopped answering")?;
            let addr = user_addr(item.user);
            let socket = net::connect_from(addr, target)
                .map_err(|e| format!("connect from {addr} to {target}: {e}"))?;
            let reader = socket.try_clone().map_err(|e| format!("clone socket: {e}"))?;
            shared.open.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(Msg::Open { conn, socket: reader });
            let _ = shared.waker.signal();
            slot.insert((socket, 0));
            next_conn = conn + 1;
        }
        out.attempted += 1;
        let session = match item.op.class() {
            Class::Write => wait_for(|| shared.sessions.lock().ok()?.get(&conn).cloned()),
            Class::Query | Class::Login => Some(String::new()),
        };
        match session {
            // The visit's login was not answered; its writes cannot go out.
            None => out.failed += 1,
            Some(session) => {
                let body = item.request(data, &session).encode();
                encode_frame_into(&body, &mut frame).map_err(|e| format!("frame: {e}"))?;
                sleep_until(base + Duration::from_nanos(due_ns));
                out.lag_ns.push(nanos_since(base).saturating_sub(due_ns));
                let _ = tx.send(Msg::Sent { conn, item: pos, due_ns });
                if let Some((socket, total)) = writers.get_mut(&conn) {
                    // A failed write surfaces as a missing answer.
                    let _ = socket.write_all(&frame);
                    *total += 1;
                    out.written += 1;
                }
            }
        }
        if stream.last_of_conn[conn as usize] == pos {
            if let Some((_, total)) = writers.remove(&conn) {
                let _ = tx.send(Msg::Seal { conn, total });
            }
        }
        pos += 1;
    }
    for (conn, (_, total)) in writers.drain() {
        let _ = tx.send(Msg::Seal { conn, total });
    }
    out.next = Cursor { pos, min_conn: next_conn };
    Ok(out)
}

struct Received {
    samples: Vec<Sample>,
    bodies: Vec<(usize, Vec<u8>)>,
    failed: u64,
    last_ns: u64,
    window_steal: Vec<f64>,
}

struct Conn {
    socket: TcpStream,
    buf: Vec<u8>,
    /// Written requests awaiting answers: stream index, scheduled time.
    pending: VecDeque<(usize, u64)>,
    /// Requests written in total, once the sender is done with it.
    sealed: Option<u32>,
    answered: u32,
    /// The server closed its end.
    eof: bool,
}

impl Conn {
    fn new(socket: TcpStream) -> Conn {
        Conn {
            socket,
            buf: Vec::new(),
            pending: VecDeque::new(),
            sealed: None,
            answered: 0,
            eof: false,
        }
    }
}

fn receive(
    shared: &Shared,
    rx: Receiver<Msg>,
    base: Instant,
    stream: &Stream,
) -> Result<Received, String> {
    let mut epoll = Epoll::new(64).map_err(|e| format!("epoll: {e}"))?;
    epoll.add(shared.waker.raw(), epoll::EV_READ, WAKER).map_err(|e| format!("epoll: {e}"))?;
    let mut conns: HashMap<u32, Conn> = HashMap::new();
    let mut out = Received {
        samples: Vec::new(),
        bodies: Vec::new(),
        failed: 0,
        last_ns: 0,
        window_steal: Vec::new(),
    };
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut done_at: Option<Instant> = None;
    let mut steal = StealClock::start();
    loop {
        epoll.wait(&mut events, 2).map_err(|e| format!("epoll: {e}"))?;
        let window_end = |windows: usize| (windows as u64 + 1) * WINDOW_NS;
        if nanos_since(base) >= window_end(out.window_steal.len()) {
            let share = steal.lap();
            while nanos_since(base) >= window_end(out.window_steal.len()) {
                out.window_steal.push(share);
            }
        }
        // Read first, then take the sender's messages, then match answers
        // to requests: a request is announced before it is written, so
        // every answer read so far has its announcement queued by now.
        let mut readable = Vec::new();
        for event in &events {
            if event.token == WAKER {
                shared.waker.drain();
                continue;
            }
            let id = event.token as u32;
            let Some(c) = conns.get_mut(&id) else { continue };
            let n = match c.socket.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => 0,
            };
            net::quick_ack(&c.socket);
            c.eof |= n == 0;
            c.buf.extend_from_slice(&chunk[..n]);
            readable.push((id, nanos_since(base)));
        }
        while let Ok(msg) = rx.try_recv() {
            match msg {
                Msg::Open { conn, socket } => {
                    epoll
                        .add(socket.as_raw_fd(), epoll::EV_READ | epoll::EV_RDHUP, u64::from(conn))
                        .map_err(|e| format!("epoll: {e}"))?;
                    conns.insert(conn, Conn::new(socket));
                }
                Msg::Sent { conn, item, due_ns } => match conns.get_mut(&conn) {
                    Some(c) => c.pending.push_back((item, due_ns)),
                    // Written on a connection the server already closed.
                    None => out.failed += 1,
                },
                Msg::Seal { conn, total } => {
                    if let Some(c) = conns.get_mut(&conn) {
                        c.sealed = Some(total);
                    }
                }
                Msg::Done => done_at = Some(Instant::now()),
            }
        }
        for (id, now_ns) in readable {
            let Some(c) = conns.get_mut(&id) else { continue };
            let mut at = 0;
            while let Some(len) = frame_len(&c.buf[at..]) {
                let body = &c.buf[at + 4..at + 4 + len];
                at += 4 + len;
                let Some((item, due_ns)) = c.pending.pop_front() else {
                    out.failed += 1; // an answer nobody asked for
                    continue;
                };
                let class = stream.items[item].op.class();
                out.samples.push(Sample {
                    class,
                    due_ns,
                    latency_ns: now_ns.saturating_sub(due_ns),
                });
                if class == Class::Login {
                    if let (Some(token), Ok(mut sessions)) =
                        (session_token(body), shared.sessions.lock())
                    {
                        sessions.insert(id, token);
                    }
                }
                out.bodies.push((item, body.to_vec()));
                c.answered += 1;
                out.last_ns = now_ns;
            }
            c.buf.drain(..at);
            if c.eof {
                // The server closed the connection: whatever is pending is lost.
                out.failed += c.pending.len() as u64;
                c.pending.clear();
                c.sealed = Some(c.answered);
            }
        }
        conns.retain(|_, c| {
            let finished = c.sealed == Some(c.answered);
            if finished {
                let _ = epoll.delete(c.socket.as_raw_fd());
                shared.open.fetch_sub(1, Ordering::SeqCst);
            }
            !finished
        });
        if let Some(at) = done_at {
            if conns.is_empty() {
                break;
            }
            if at.elapsed() > DRAIN {
                out.failed += conns.values().map(|c| c.pending.len() as u64).sum::<u64>();
                break;
            }
        }
    }
    out.window_steal.push(steal.lap());
    Ok(out)
}

/// Laps of the share of CPU time the hypervisor took from this machine:
/// `steal` over all time in the first line of `/proc/stat`.
struct StealClock {
    last: (u64, u64),
}

impl StealClock {
    fn start() -> StealClock {
        StealClock { last: cpu_ticks() }
    }

    /// The steal share since the last lap; 0 where `/proc/stat` is missing.
    fn lap(&mut self) -> f64 {
        let now = cpu_ticks();
        let steal = now.0.saturating_sub(self.last.0);
        let total = now.1.saturating_sub(self.last.1);
        self.last = now;
        if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        }
    }
}

/// Steal ticks and all ticks (user to steal) of every CPU together.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let first = stat.lines().next().unwrap_or_default();
    let ticks: Vec<u64> =
        first.split_whitespace().skip(1).take(8).filter_map(|t| t.parse().ok()).collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The body length of the complete frame at the start of `buf`, if any.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let header: [u8; 4] = buf.get(..4)?.try_into().ok()?;
    let len = u32::from_be_bytes(header) as usize;
    (buf.len() >= 4 + len).then_some(len)
}

fn session_token(body: &[u8]) -> Option<String> {
    match Response::decode(std::str::from_utf8(body).ok()?).ok()? {
        Response::Session { token } => Some(token),
        _ => None,
    }
}

fn nanos_since(base: Instant) -> u64 {
    Instant::now().saturating_duration_since(base).as_nanos() as u64
}

fn sleep_until(deadline: Instant) {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Poll `ready` every 20 µs until it yields, for at most
/// [`DEPENDENCY_WAIT`].
fn wait_for<T>(mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        if let Some(value) = ready() {
            return Some(value);
        }
        if start.elapsed() > DEPENDENCY_WAIT {
            return None;
        }
        std::thread::sleep(Duration::from_micros(20));
    }
}
