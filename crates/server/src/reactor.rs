//! The event-driven (epoll) front end: 1024+ connections on one event
//! loop, zero per-request allocations on the frame path.
//!
//! The thread-per-connection front end in [`crate::tcp`] burns one OS
//! thread per peer, so its availability ceiling is
//! [`crate::tcp::TcpServerConfig::max_connections`] (64 by default) —
//! everything above that is shed, and a slow-loris flooder can pin every
//! worker with half-written frames. This module replaces threads with
//! readiness: every connection is a small state machine driven by a
//! single epoll loop, so an idle or stalled peer costs a few hundred bytes
//! of state instead of a stack. The loop answers the cheap requests
//! itself; only the expensive ones (password stretching, writes, RSA,
//! replication reads) run on threads, a bounded
//! [`crate::pool::DispatchPool`].
//!
//! Architecture (DESIGN.md §14):
//!
//! * **State machine** — `ReadingHeader → ReadingBody → Dispatched →
//!   Writing → ReadingHeader`; a request answered on the loop skips
//!   `Dispatched`. Frames reassemble incrementally into a per-connection
//!   buffer that is *recycled* through the dispatch cycle: the request
//!   body `Vec` (on the loop, or travelling to the worker) comes back
//!   holding the framed response, and swaps with the connection's
//!   previous write buffer — steady state allocates nothing.
//! * **Backpressure** — while a request is in flight the connection's
//!   epoll interest drops to zero (pipelined bytes wait in the kernel
//!   buffer), and a response that overfills the socket buffer arms
//!   `EPOLLOUT` instead of blocking the loop.
//! * **Timer wheel** — a 1024-slot hashed wheel (50 ms ticks) replaces
//!   per-socket `SO_RCVTIMEO`/`SO_SNDTIMEO`; reaping an idle peer is an
//!   O(1) wheel entry, not a parked thread waking from a timeout.
//! * **Request path** — the loop decodes each frame of up to
//!   `INLINE_FRAME_MAX` bytes once with `tcp::decode_frame`. The
//!   single-key queries and undecodable bodies are answered right there
//!   with `tcp::answer_decoded` (`Route::of` decides), which saves the
//!   pool round trip: two `epoll_ctl` calls, a condvar and an eventfd
//!   wakeup. Everything else, and any larger frame, goes to a worker,
//!   which calls the same `answer_decoded` (or `answer_frame` for a frame
//!   the loop did not decode). The thread server calls the same two
//!   halves, so the two servers differ only in transport.
//! * **Completion path** — workers push finished responses onto a queue
//!   and nudge the loop through an [`crate::epoll::EventFd`]; the loop
//!   never blocks on anything but `epoll_wait`.
//! * **Flood identity** — identical to the thread front end: the guard
//!   key is `ReputationDb::pseudonym_tag` of the peer IP, computed once
//!   at accept; the raw address goes no further (§2.2).
//!
//! Everything is accounted in the same [`ServerStats`] the thread front
//! end uses (the differential suite asserts both front ends tell the same
//! story), plus reactor-specific series in the obs registry:
//! `softrep_reactor_open_connections`, `softrep_reactor_wakeups_total`,
//! `softrep_reactor_ready_events`, `softrep_reactor_dispatch_us` (frame
//! complete → answer ready, on either path) and
//! `softrep_reactor_inline_total` (requests answered on the loop).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use softrep_obs::metrics::{Counter, Gauge, Histogram};
use softrep_obs::time::Stopwatch;
use softrep_proto::framing::MAX_FRAME_LEN;
use softrep_proto::Request;

use crate::epoll::{self, Epoll, Event, EventFd};
use crate::handler::ReputationServer;
use crate::pool::DispatchPool;
use crate::stats::{ServerStats, StatsSnapshot};
use crate::tcp::{
    answer_decoded, answer_frame, decode_frame, overloaded_frame, prepare_handler, DecodedFrame,
    TcpServerConfig,
};

/// Wheel granularity. Deadlines round up to the next tick, so an eviction
/// lands within one tick after the configured timeout.
const TICK_MS: u64 = 50;
/// Hashed-wheel slot count; the horizon (slots × tick ≈ 51 s) only bounds
/// how often a far-out entry is re-bucketed, not the deadline range.
const WHEEL_SLOTS: u64 = 1024;
/// Epoll events drained per wakeup.
const EVENTS_PER_WAKE: usize = 1024;
/// Buffers larger than this shrink once a request cycle completes, so one
/// oversized frame does not pin its high-water mark forever.
const BUF_KEEP: usize = 16 * 1024;
/// The loop decodes frames up to this size itself; larger ones go to the
/// pool undecoded, so one large anonymous frame cannot stall the loop. A
/// query frame is under 200 bytes.
const INLINE_FRAME_MAX: usize = 512;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;
/// "No deadline" sentinel tick.
const NEVER: u64 = u64::MAX;

/// Where the reactor answers a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// On the loop thread: a single-key lookup that never touches the WAL
    /// or an fsync, answered in less time than a pool handoff takes.
    Inline,
    /// On the dispatch pool, for the reason given.
    Pool(&'static str),
}

impl Route {
    /// Where `request` is answered. One arm per variant and no `_` arm, so
    /// a new request kind has to choose.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn of(request: &Request) -> Route {
        match request {
            Request::QuerySoftware { .. }
            | Request::QueryDetails { .. }
            | Request::QueryFeedEntry { .. } => Route::Inline,
            Request::QueryVendor { .. } => {
                Route::Pool("a report-cache miss reads one rating per title of the vendor")
            }
            Request::Login { .. } | Request::Register { .. } => {
                Route::Pool("password stretching takes milliseconds")
            }
            Request::GetPuzzle => {
                Route::Pool("locks the server RNG, which logins and registrations share")
            }
            Request::Activate { .. }
            | Request::RegisterSoftware { .. }
            | Request::SubmitVote { .. }
            | Request::SubmitComment { .. }
            | Request::RateComment { .. }
            | Request::SubmitEvidence { .. }
            | Request::CreateFeed { .. }
            | Request::PublishFeedEntry { .. } => {
                Route::Pool("a write appends to the WAL and may wait for an fsync")
            }
            Request::GetPseudonymKey
            | Request::BlindSignPseudonym { .. }
            | Request::RegisterPseudonym { .. } => {
                Route::Pool("RSA: the first call makes the key, and signing is an exponentiation")
            }
            Request::ReplSubscribe { .. } | Request::ReplSnapshot { .. } => {
                Route::Pool("reads a page of the log or a snapshot chunk from disk")
            }
        }
    }

    /// Where a decoded frame is answered: a body that is not a request
    /// gets `bad-request` on the loop.
    fn of_frame(decoded: &DecodedFrame) -> Route {
        match &decoded.request {
            Ok(request) => Route::of(request),
            Err(_) => Route::Inline,
        }
    }
}

/// A request handed to the dispatch pool.
struct DispatchJob {
    token: u64,
    /// The reassembled frame body; recycled into the framed response
    /// buffer by the worker.
    body: Vec<u8>,
    /// The body as the loop decoded it; `None` for a frame over
    /// [`INLINE_FRAME_MAX`], which the worker decodes.
    decoded: Option<DecodedFrame>,
    peer_tag: Arc<str>,
    started: Stopwatch,
}

/// A finished response travelling back to the event loop.
struct Completion {
    token: u64,
    /// Framed response bytes (header + body), ready to write. Empty means
    /// the request was not UTF-8 and the connection must close.
    buf: Vec<u8>,
    started: Stopwatch,
}

/// The worker→loop channel: a mutexed vector plus an eventfd nudge.
struct CompletionQueue {
    ready: Mutex<Vec<Completion>>,
    waker: EventFd,
}

impl CompletionQueue {
    fn push(&self, done: Completion) {
        self.ready.lock().push(done);
        // Signal outside the lock; a failed write leaves the 50 ms tick
        // as the fallback wakeup.
        let _ = self.waker.signal();
    }

    fn drain_into(&self, out: &mut Vec<Completion>) {
        out.clear();
        let mut ready = self.ready.lock();
        std::mem::swap(&mut *ready, out);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating the 4-byte length header.
    ReadingHeader,
    /// Accumulating `body.len()` body bytes (`body` is pre-sized).
    ReadingBody,
    /// A request is with the dispatch pool; interest is zero.
    Dispatched,
    /// Writing the framed response; `EPOLLOUT` armed when the socket
    /// buffer fills.
    Writing,
}

struct Conn {
    stream: TcpStream,
    peer_tag: Arc<str>,
    state: ConnState,
    header: [u8; 4],
    header_got: usize,
    /// Frame body reassembly buffer, sized to the declared length once the
    /// header completes. Travels to the worker at dispatch.
    body: Vec<u8>,
    body_got: usize,
    /// The framed response being written (recycled from the previous
    /// request's body buffer).
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Tick at which the connection is evicted ([`NEVER`] = none).
    deadline: u64,
    /// Tick of this connection's newest wheel entry ([`NEVER`] = none);
    /// entries with any other tick are stale and dropped when they fire.
    scheduled: u64,
    /// The epoll interest currently armed.
    interest: u32,
    /// Close once the in-flight response finishes (drain mode).
    close_after_write: bool,
}

enum ReadOutcome {
    /// Made progress (or hit `WouldBlock`); connection still open.
    Continue,
    /// A complete frame is in `body`.
    FrameReady,
    /// Clean EOF at a frame boundary.
    CleanClose,
    /// Mid-frame EOF, I/O error, or oversized header.
    Broken,
}

enum WriteOutcome {
    Finished,
    Blocked,
    Broken,
}

/// A hashed timer wheel: `(token, tick)` entries, lazily cancelled by
/// comparing the entry tick against the connection's `scheduled` field.
struct TimerWheel {
    slots: Vec<Vec<(u64, u64)>>,
    cursor: u64,
    /// Scratch for re-bucketed entries, reused across advances.
    pending: Vec<(u64, u64)>,
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            pending: Vec::new(),
        }
    }

    fn insert(&mut self, token: u64, tick: u64) {
        let idx = (tick % WHEEL_SLOTS) as usize;
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.push((token, tick));
        }
    }

    /// Advance to `now`, draining every slot passed. Expired tokens are
    /// appended to `expired`; live entries whose connection now has a
    /// later deadline re-bucket themselves at that deadline.
    fn advance(&mut self, now: u64, conns: &mut HashMap<u64, Conn>, expired: &mut Vec<u64>) {
        if now <= self.cursor {
            return;
        }
        // Visit each slot at most once per advance, even after a long
        // stall (e.g. a suspended machine): the wheel is a ring.
        let steps = (now - self.cursor).min(WHEEL_SLOTS);
        for step in 1..=steps {
            let tick = self.cursor + step;
            let idx = (tick % WHEEL_SLOTS) as usize;
            let mut drained = match self.slots.get_mut(idx) {
                Some(slot) => std::mem::take(slot),
                None => continue,
            };
            for (token, entry_tick) in drained.drain(..) {
                if entry_tick > now {
                    // Bucketed for a future lap of the ring: keep it.
                    self.pending.push((token, entry_tick));
                    continue;
                }
                let Some(conn) = conns.get_mut(&token) else { continue };
                if conn.scheduled != entry_tick {
                    continue; // stale entry; a newer one exists
                }
                if conn.deadline == NEVER {
                    conn.scheduled = NEVER;
                } else if conn.deadline <= now {
                    conn.scheduled = NEVER;
                    expired.push(token);
                } else {
                    // Deadline was pushed out since this entry was filed
                    // (the common keep-alive case): one re-bucket, no new
                    // allocation, no duplicate entries.
                    conn.scheduled = conn.deadline;
                    self.pending.push((token, conn.deadline));
                }
            }
            // Give the slot its capacity back before re-bucketing, since a
            // re-bucketed entry may hash right back into this slot.
            if let Some(slot) = self.slots.get_mut(idx) {
                *slot = drained;
            }
            let mut pending = std::mem::take(&mut self.pending);
            for (token, tick) in pending.drain(..) {
                let idx = (tick % WHEEL_SLOTS) as usize;
                if let Some(slot) = self.slots.get_mut(idx) {
                    slot.push((token, tick));
                }
            }
            self.pending = pending;
        }
        self.cursor = now;
    }
}

/// Reactor-specific observability series, registered eagerly at bind so
/// `/metrics` exposes them (at zero) before the first connection.
struct ReactorMetrics {
    open: Arc<Gauge>,
    wakeups: Arc<Counter>,
    ready_events: Arc<Histogram>,
    dispatch_us: Arc<Histogram>,
    inline: Arc<Counter>,
}

impl ReactorMetrics {
    fn register() -> Self {
        let registry = softrep_obs::registry();
        ReactorMetrics {
            open: registry.gauge("softrep_reactor_open_connections"),
            wakeups: registry.counter("softrep_reactor_wakeups_total"),
            ready_events: registry.histogram("softrep_reactor_ready_events"),
            dispatch_us: registry.histogram("softrep_reactor_dispatch_us"),
            inline: registry.counter("softrep_reactor_inline_total"),
        }
    }
}

/// A running epoll-reactor server. Serves the same framed XML protocol as
/// [`crate::tcp::TcpServer`] with the same stats accounting; select
/// between them with [`crate::tcp::FrontendServer`].
pub struct ReactorServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<CompletionQueue>,
    loop_thread: Option<JoinHandle<()>>,
    stats: Arc<ServerStats>,
    answered_inline: Arc<AtomicU64>,
}

impl ReactorServer {
    /// Bind `addr` and serve `server` with [`TcpServerConfig::default`]
    /// until [`ReactorServer::shutdown`].
    pub fn spawn(server: Arc<ReputationServer>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        ReactorServer::spawn_with(server, addr, TcpServerConfig::default())
    }

    /// Bind `addr` and serve `server` with explicit tuning knobs.
    /// `config.max_open_connections` bounds concurrent connections and
    /// `config.dispatch_workers` sizes the handler pool;
    /// `config.max_connections` (the thread front end's worker bound) is
    /// ignored here.
    pub fn spawn_with(
        server: Arc<ReputationServer>,
        addr: impl ToSocketAddrs,
        config: TcpServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // Register every series the reactor emits before traffic exists.
        let metrics = ReactorMetrics::register();
        prepare_handler(&server, &config);

        let shutdown = Arc::new(AtomicBool::new(false));
        let queue =
            Arc::new(CompletionQueue { ready: Mutex::new(Vec::new()), waker: EventFd::new()? });
        let stats = server.stats_handle();

        let pool = {
            let queue = Arc::clone(&queue);
            let server = Arc::clone(&server);
            DispatchPool::new(config.dispatch_workers, "softrep-reactor-worker", move |job| {
                run_dispatch_job(&server, &queue, job)
            })?
        };

        let epoll = Epoll::new(EVENTS_PER_WAKE)?;
        epoll.add(listener.as_raw_fd(), epoll::EV_READ, TOKEN_LISTENER)?;
        epoll.add(queue.waker.raw(), epoll::EV_READ, TOKEN_WAKER)?;

        let loop_shutdown = Arc::clone(&shutdown);
        let loop_queue = Arc::clone(&queue);
        let loop_stats = Arc::clone(&stats);
        let answered_inline = Arc::new(AtomicU64::new(0));
        let loop_answered_inline = Arc::clone(&answered_inline);
        let loop_thread =
            std::thread::Builder::new().name("softrep-reactor".to_string()).spawn(move || {
                let mut reactor = Reactor {
                    epoll,
                    listener,
                    server,
                    config,
                    stats: loop_stats,
                    queue: loop_queue,
                    shutdown: loop_shutdown,
                    metrics,
                    answered_inline: loop_answered_inline,
                    pool: Some(pool),
                    conns: HashMap::new(),
                    wheel: TimerWheel::new(),
                    clock: Stopwatch::start(),
                    next_token: TOKEN_FIRST_CONN,
                    draining: false,
                    drain_end: NEVER,
                    listener_muted_until: 0,
                };
                reactor.run();
                // Loop done: stop accepting jobs, let queued handlers
                // finish, and join the workers.
                if let Some(pool) = reactor.pool.take() {
                    pool.shutdown();
                }
            })?;

        Ok(ReactorServer {
            local_addr,
            shutdown,
            queue,
            loop_thread: Some(loop_thread),
            stats,
            answered_inline,
        })
    }

    /// The bound address (use port 0 to get an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A consistent snapshot of the transport counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// A handle to the live counters, usable after shutdown consumes the
    /// server.
    pub fn stats_handle(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Connections currently open on the reactor.
    pub fn active_connections(&self) -> usize {
        self.stats.snapshot().active as usize
    }

    /// Requests this server answered on its loop thread, without a round
    /// trip through the dispatch pool (process-wide, the same count is
    /// `softrep_reactor_inline_total`).
    pub fn answered_inline(&self) -> u64 {
        self.answered_inline.load(Ordering::Relaxed)
    }

    /// Stop accepting, answer in-flight requests up to the configured
    /// drain deadline, force-close stragglers, and join the event loop and
    /// every dispatch worker.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        let Some(handle) = self.loop_thread.take() else {
            return; // already shut down
        };
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.queue.waker.signal();
        let _ = handle.join();
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Answer one request on a dispatch worker. The body buffer is recycled
/// into the framed response, so the worker allocates nothing on the frame
/// path (the `Response` encoding itself is protocol work, not framing).
fn run_dispatch_job(server: &ReputationServer, queue: &CompletionQueue, job: DispatchJob) {
    let DispatchJob { token, mut body, decoded, peer_tag, started } = job;
    let answered = match decoded {
        Some(decoded) => answer_decoded(server, decoded, &mut body, &peer_tag),
        None => answer_frame(server, &mut body, &peer_tag),
    };
    if answered.is_err() {
        // Not UTF-8: send nothing and close, as the thread server does.
        body.clear();
    }
    queue.push(Completion { token, buf: body, started });
}

/// The event loop's owned state.
struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    server: Arc<ReputationServer>,
    config: TcpServerConfig,
    stats: Arc<ServerStats>,
    queue: Arc<CompletionQueue>,
    shutdown: Arc<AtomicBool>,
    metrics: ReactorMetrics,
    /// Requests answered on this loop (see [`ReactorServer::answered_inline`]).
    answered_inline: Arc<AtomicU64>,
    /// `Some` while serving; taken after the loop exits to join workers.
    pool: Option<DispatchPool<DispatchJob>>,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    clock: Stopwatch,
    next_token: u64,
    draining: bool,
    drain_end: u64,
    /// Tick until which the accept path stays muted after a transient
    /// accept failure (fd exhaustion), so level-triggered readiness does
    /// not spin the loop.
    listener_muted_until: u64,
}

impl Reactor {
    fn now_tick(&self) -> u64 {
        self.clock.elapsed_micros() / (TICK_MS * 1000)
    }

    fn ticks_for(d: Duration) -> u64 {
        // Round up so a deadline never fires early.
        (d.as_millis() as u64).div_ceil(TICK_MS).max(1)
    }

    /// File (or refresh) the connection's eviction deadline. At most one
    /// live wheel entry per connection: pushing a deadline *out* leaves
    /// the existing entry to re-bucket itself when it fires; only pulling
    /// a deadline *in* files a new entry (and stales the old one).
    fn schedule(wheel: &mut TimerWheel, conn: &mut Conn, token: u64, deadline: u64) {
        conn.deadline = deadline;
        if deadline == NEVER {
            return;
        }
        if conn.scheduled == NEVER || deadline < conn.scheduled {
            conn.scheduled = deadline;
            wheel.insert(token, deadline);
        }
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut completions: Vec<Completion> = Vec::new();
        let mut expired: Vec<u64> = Vec::new();

        loop {
            let wait_ms = TICK_MS.min(i32::MAX as u64) as i32;
            let ready = match self.epoll.wait(&mut events, wait_ms) {
                Ok(n) => n,
                Err(_) => {
                    // epoll itself failing is unrecoverable for the loop;
                    // close everything and exit rather than spin.
                    self.force_close_all();
                    return;
                }
            };
            self.metrics.wakeups.inc();
            self.metrics.ready_events.record(ready as u64);

            if self.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }

            // Pull the event list out so &mut self methods can run per
            // event; put it back afterwards to keep its capacity.
            let batch = std::mem::take(&mut events);
            for event in &batch {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.queue.waker.drain();
                        self.queue.drain_into(&mut completions);
                        for done in completions.drain(..) {
                            self.install_completion(done);
                        }
                    }
                    token => self.conn_ready(token, event),
                }
            }
            events = batch;

            // Timers after I/O: a read that just arrived refreshes its
            // deadline before the wheel can evict it.
            let now = self.now_tick();
            expired.clear();
            self.wheel.advance(now, &mut self.conns, &mut expired);
            for token in expired.drain(..) {
                self.stats.record_timed_out();
                self.close_conn(token);
            }

            if self.draining {
                if self.conns.is_empty() {
                    return;
                }
                if now >= self.drain_end {
                    self.force_close_all();
                    return;
                }
            }
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_end = self.now_tick() + Self::ticks_for(self.config.drain_deadline);
        // Stop accepting for good.
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        self.listener_muted_until = NEVER;
        // Idle keep-alive peers (no frame in progress) close now; anything
        // mid-request gets until the drain deadline, and the answer it is
        // waiting on becomes the last frame it sees.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::ReadingHeader && c.header_got == 0)
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
        for conn in self.conns.values_mut() {
            conn.close_after_write = true;
        }
    }

    fn force_close_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    fn accept_ready(&mut self) {
        if self.draining || self.now_tick() < self.listener_muted_until {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => self.admit(stream, peer),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient failure (e.g. fd exhaustion): mute the
                    // accept path briefly instead of spinning on
                    // level-triggered readiness.
                    self.listener_muted_until = self.now_tick() + 2;
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) {
        if self.conns.len() >= self.config.max_open_connections.max(1) {
            // Shed load explicitly: tell the peer why, then close. The
            // write is nonblocking best-effort; a peer with no socket
            // buffer room just sees the close.
            self.stats.record_rejected_overload();
            let _ = stream.set_nonblocking(true);
            let mut w = &stream;
            let _ = w.write(overloaded_frame());
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return; // dead on arrival; never admitted, never counted
        }
        // The flood-guard identity is a pseudonymized tag of the peer IP
        // only — see module docs. The raw address stops here.
        let peer_tag: Arc<str> =
            Arc::from(self.server.db().pseudonym_tag("peer", &peer.ip().to_string()));
        let token = self.next_token;
        self.next_token = self.next_token.wrapping_add(1);
        let interest = epoll::EV_READ | epoll::EV_RDHUP;
        if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
            return; // registration failed; connection dropped unserved
        }
        let deadline = self.now_tick() + Self::ticks_for(self.config.read_timeout);
        let mut conn = Conn {
            stream,
            peer_tag,
            state: ConnState::ReadingHeader,
            header: [0u8; 4],
            header_got: 0,
            body: Vec::new(),
            body_got: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            deadline: NEVER,
            scheduled: NEVER,
            interest,
            close_after_write: false,
        };
        Self::schedule(&mut self.wheel, &mut conn, token, deadline);
        self.conns.insert(token, conn);
        self.stats.record_accepted();
        self.metrics.open.set(self.conns.len() as u64);
        // Bytes may already be queued on the fresh socket; level-triggered
        // epoll reports them on the next wait.
    }

    fn conn_ready(&mut self, token: u64, event: &Event) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        match conn.state {
            ConnState::ReadingHeader | ConnState::ReadingBody => {
                if event.readable() || event.closed() {
                    self.read_ready(token);
                }
            }
            ConnState::Writing => {
                if event.writable() || event.closed() {
                    self.write_ready(token);
                }
            }
            // Interest is zero while dispatched; hangup/error readiness
            // (always reported) resolves once the response tries to write.
            ConnState::Dispatched => {}
        }
    }

    fn read_ready(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            read_into_conn(conn)
        };
        match outcome {
            ReadOutcome::Continue => {
                // Progress refreshes the idle deadline.
                let deadline = self.now_tick() + Self::ticks_for(self.config.read_timeout);
                let wheel = &mut self.wheel;
                if let Some(conn) = self.conns.get_mut(&token) {
                    Self::schedule(wheel, conn, token, deadline);
                }
            }
            ReadOutcome::FrameReady => self.dispatch(token),
            ReadOutcome::CleanClose | ReadOutcome::Broken => self.close_conn(token),
        }
    }

    /// A complete frame is in the connection's body: decode it once, if it
    /// is small, and answer it right here when [`Route::of`] allows;
    /// otherwise hand it to the pool.
    fn dispatch(&mut self, token: u64) {
        let started = Stopwatch::start();
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let mut body = std::mem::take(&mut conn.body);
        let decoded = if body.len() <= INLINE_FRAME_MAX {
            match decode_frame(&body) {
                Ok(decoded) => Some(decoded),
                Err(_) => {
                    // Not UTF-8: an empty completion closes the connection.
                    self.install_completion(Completion { token, buf: Vec::new(), started });
                    return;
                }
            }
        } else {
            None
        };
        let job = match decoded {
            Some(decoded) if Route::of_frame(&decoded) == Route::Inline => {
                if answer_decoded(&self.server, decoded, &mut body, &conn.peer_tag).is_err() {
                    body.clear(); // not even the error frame fits: close, as the pool does
                }
                self.metrics.inline.inc();
                self.answered_inline.fetch_add(1, Ordering::Relaxed);
                self.install_completion(Completion { token, buf: body, started });
                return;
            }
            decoded => {
                conn.state = ConnState::Dispatched;
                conn.deadline = NEVER;
                // Zero interest while the request is in flight: pipelined
                // frames wait in the kernel buffer (sequential
                // per-connection semantics, same as the thread front end).
                set_interest(&self.epoll, conn, token, 0);
                DispatchJob { token, body, decoded, peer_tag: Arc::clone(&conn.peer_tag), started }
            }
        };
        let submitted = self.pool.as_ref().is_some_and(|pool| pool.submit(job));
        if !submitted {
            // Submission only fails after shutdown; drain closes the
            // connection anyway.
            self.close_conn(token);
        }
    }

    fn install_completion(&mut self, done: Completion) {
        let Completion { token, buf, started } = done;
        self.metrics.dispatch_us.record(started.elapsed_micros());
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // evicted or force-closed while the handler ran
        };
        if buf.is_empty() {
            // The request was not UTF-8: drop the connection.
            self.close_conn(token);
            return;
        }
        // Buffer rotation: the previous write buffer becomes the next read
        // buffer; the completed response becomes the write buffer.
        conn.body = std::mem::replace(&mut conn.write_buf, buf);
        conn.body.clear();
        conn.write_pos = 0;
        conn.state = ConnState::Writing;
        self.write_ready(token);
    }

    fn write_ready(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            pump_writes(conn)
        };
        match outcome {
            WriteOutcome::Finished => {
                self.stats.record_request_served();
                if self.conns.get(&token).is_some_and(|c| c.close_after_write) {
                    self.close_conn(token);
                    return;
                }
                let deadline = self.now_tick() + Self::ticks_for(self.config.read_timeout);
                let epoll = &self.epoll;
                let wheel = &mut self.wheel;
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::ReadingHeader;
                    conn.header_got = 0;
                    conn.body_got = 0;
                    conn.write_pos = 0;
                    // One oversized frame must not pin its high-water mark
                    // for the connection's lifetime.
                    conn.body.clear();
                    conn.body.shrink_to(BUF_KEEP);
                    conn.write_buf.shrink_to(BUF_KEEP);
                    set_interest(epoll, conn, token, epoll::EV_READ | epoll::EV_RDHUP);
                    Self::schedule(wheel, conn, token, deadline);
                }
            }
            WriteOutcome::Blocked => {
                // Backpressure: arm EPOLLOUT and give the peer the write
                // deadline to make room.
                let deadline = self.now_tick() + Self::ticks_for(self.config.write_timeout);
                let epoll = &self.epoll;
                let wheel = &mut self.wheel;
                if let Some(conn) = self.conns.get_mut(&token) {
                    set_interest(epoll, conn, token, epoll::EV_WRITE);
                    Self::schedule(wheel, conn, token, deadline);
                }
            }
            WriteOutcome::Broken => self.close_conn(token),
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.stats.record_closed();
            self.metrics.open.set(self.conns.len() as u64);
        }
    }
}

/// Arm `interest` on the connection's socket, remembering what is armed so
/// redundant `epoll_ctl` calls are skipped.
fn set_interest(epoll: &Epoll, conn: &mut Conn, token: u64, interest: u32) {
    if conn.interest != interest {
        let _ = epoll.modify(conn.stream.as_raw_fd(), interest, token);
        conn.interest = interest;
    }
}

/// Push response bytes until done, `WouldBlock`, or a dead peer.
fn pump_writes(conn: &mut Conn) -> WriteOutcome {
    loop {
        let Some(rest) = conn.write_buf.get(conn.write_pos..) else {
            return WriteOutcome::Finished;
        };
        if rest.is_empty() {
            return WriteOutcome::Finished;
        }
        let mut w = &conn.stream;
        match w.write(rest) {
            Ok(0) => return WriteOutcome::Broken,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return WriteOutcome::Blocked,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return WriteOutcome::Broken,
        }
    }
}

/// Pump nonblocking reads through the header/body state machine until
/// `WouldBlock`, a complete frame, or a terminal condition.
fn read_into_conn(conn: &mut Conn) -> ReadOutcome {
    loop {
        match conn.state {
            ConnState::ReadingHeader => {
                let Some(dst) = conn.header.get_mut(conn.header_got..) else {
                    return ReadOutcome::Broken; // unreachable: header_got <= 4
                };
                if dst.is_empty() {
                    return ReadOutcome::Broken; // unreachable by construction
                }
                let mut r = &conn.stream;
                match r.read(dst) {
                    Ok(0) if conn.header_got == 0 => return ReadOutcome::CleanClose,
                    Ok(0) => return ReadOutcome::Broken, // mid-header EOF
                    Ok(n) => {
                        conn.header_got += n;
                        if conn.header_got == 4 {
                            let len = u32::from_be_bytes(conn.header);
                            if len > MAX_FRAME_LEN {
                                return ReadOutcome::Broken; // refuse, never allocate
                            }
                            conn.body.clear();
                            conn.body.resize(len as usize, 0);
                            conn.body_got = 0;
                            conn.header_got = 0;
                            if len == 0 {
                                return ReadOutcome::FrameReady;
                            }
                            conn.state = ConnState::ReadingBody;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return ReadOutcome::Continue
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return ReadOutcome::Broken,
                }
            }
            ConnState::ReadingBody => {
                let Some(dst) = conn.body.get_mut(conn.body_got..) else {
                    return ReadOutcome::Broken; // unreachable: body_got <= len
                };
                if dst.is_empty() {
                    conn.state = ConnState::ReadingHeader;
                    return ReadOutcome::FrameReady;
                }
                let mut r = &conn.stream;
                match r.read(dst) {
                    Ok(0) => return ReadOutcome::Broken, // mid-body EOF
                    Ok(n) => {
                        conn.body_got += n;
                        if conn.body_got == conn.body.len() {
                            conn.state = ConnState::ReadingHeader;
                            return ReadOutcome::FrameReady;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return ReadOutcome::Continue
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return ReadOutcome::Broken,
                }
            }
            ConnState::Dispatched | ConnState::Writing => return ReadOutcome::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softrep_core::clock::SimClock;
    use softrep_core::db::ReputationDb;
    use softrep_proto::{Request, Response};

    use crate::handler::ServerConfig;
    use crate::tcp::TcpClient;

    fn spawn_reactor(config: TcpServerConfig) -> ReactorServer {
        let clock = SimClock::new();
        let db = ReputationDb::in_memory("reactor-pepper");
        let server = Arc::new(ReputationServer::new(
            db,
            Arc::new(clock),
            ServerConfig { puzzle_difficulty: 2, ..ServerConfig::default() },
            7,
        ));
        ReactorServer::spawn_with(server, "127.0.0.1:0", config).unwrap()
    }

    /// Every request kind's class, pinned: the three single-key queries and
    /// undecodable bodies on the loop, everything else on the pool.
    #[test]
    fn route_pins_every_request_kind() {
        let s = || String::from("x");
        let cases = [
            (Request::QuerySoftware { software_id: s() }, true),
            (Request::QueryDetails { software_id: s() }, true),
            (Request::QueryFeedEntry { feed: s(), software_id: s() }, true),
            (Request::QueryVendor { vendor: s() }, false),
            (Request::GetPuzzle, false),
            (
                Request::Register {
                    username: s(),
                    password: s(),
                    email: s(),
                    puzzle_challenge: s(),
                    puzzle_solution: 0,
                },
                false,
            ),
            (Request::Activate { username: s(), token: s() }, false),
            (Request::Login { username: s(), password: s() }, false),
            (
                Request::RegisterSoftware {
                    software_id: s(),
                    file_name: s(),
                    file_size: 1,
                    company: None,
                    version: None,
                },
                false,
            ),
            (
                Request::SubmitVote {
                    session: s(),
                    software_id: s(),
                    score: 5,
                    behaviours: vec![],
                },
                false,
            ),
            (Request::SubmitComment { session: s(), software_id: s(), text: s() }, false),
            (Request::RateComment { session: s(), comment_id: 1, positive: true }, false),
            (
                Request::SubmitEvidence {
                    analyzer_token: s(),
                    software_id: s(),
                    behaviours: vec![],
                    analyzer: s(),
                },
                false,
            ),
            (Request::CreateFeed { session: s(), name: s() }, false),
            (
                Request::PublishFeedEntry {
                    session: s(),
                    feed: s(),
                    software_id: s(),
                    rating: 5.0,
                    behaviours: vec![],
                },
                false,
            ),
            (Request::GetPseudonymKey, false),
            (Request::BlindSignPseudonym { session: s(), blinded: s() }, false),
            (
                Request::RegisterPseudonym {
                    username: s(),
                    password: s(),
                    token: s(),
                    signature: s(),
                },
                false,
            ),
            (Request::ReplSubscribe { from_seq: 0, max_entries: 1, max_bytes: 1 }, false),
            (Request::ReplSnapshot { seq: 0, offset: 0 }, false),
        ];
        for (request, inline) in &cases {
            assert_eq!(Route::of(request) == Route::Inline, *inline, "{request:?}");
        }
        // QueryVendor is a query, but its cost grows with the vendor.
        assert_eq!(
            Route::of(&Request::QueryVendor { vendor: s() }),
            Route::Pool("a report-cache miss reads one rating per title of the vendor")
        );
        // A body that is not a request is answered `bad-request` inline.
        let garbage = decode_frame(b"this is not xml").unwrap();
        assert!(garbage.request.is_err());
        assert_eq!(Route::of_frame(&garbage), Route::Inline);
        let query = Request::QuerySoftware { software_id: "ab".repeat(20) }.encode();
        assert!(query.len() < INLINE_FRAME_MAX, "a query frame fits the inline limit");
    }

    #[test]
    fn serves_keepalive_requests_end_to_end() {
        let reactor = spawn_reactor(TcpServerConfig::default());
        let mut client = TcpClient::connect(reactor.local_addr()).unwrap();
        for _ in 0..5 {
            let resp =
                client.call(&Request::QuerySoftware { software_id: "ab".repeat(20) }).unwrap();
            assert!(matches!(resp, Response::UnknownSoftware { .. }));
        }
        drop(client);
        // The loop thread records `served` just after the response bytes
        // reach the kernel; the client can observe its reply a moment
        // earlier, so give the counter a bounded beat to settle.
        let sw = Stopwatch::start();
        while reactor.stats().requests_served < 5 && sw.elapsed_micros() < 2_000_000 {
            std::thread::yield_now();
        }
        let stats = reactor.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.requests_served, 5);
        reactor.shutdown();
    }

    #[test]
    fn sheds_beyond_max_open_connections_with_an_overloaded_frame() {
        let config = TcpServerConfig { max_open_connections: 2, ..TcpServerConfig::default() };
        let reactor = spawn_reactor(config);
        let addr = reactor.local_addr();
        // Two admitted connections, held open with a served request each.
        let mut a = TcpClient::connect(addr).unwrap();
        let mut b = TcpClient::connect(addr).unwrap();
        for c in [&mut a, &mut b] {
            let resp = c.call(&Request::QuerySoftware { software_id: "cd".repeat(20) }).unwrap();
            assert!(matches!(resp, Response::UnknownSoftware { .. }));
        }
        // The third sees an explicit overloaded frame (or, if it races the
        // accept loop, at least a prompt close — never a served request).
        let mut c = TcpClient::connect(addr).unwrap();
        c.set_timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5))).unwrap();
        match c.call(&Request::GetPuzzle) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, "overloaded"),
            Ok(other) => panic!("shed connection must not be served: {other:?}"),
            Err(e) => assert!(e.is_disconnect(), "expected disconnect, got {e:?}"),
        }
        let sw = Stopwatch::start();
        while reactor.stats().rejected_overload < 1 && sw.elapsed_micros() < 2_000_000 {
            std::thread::yield_now();
        }
        assert_eq!(reactor.stats().rejected_overload, 1);
        reactor.shutdown();
    }

    #[test]
    fn shutdown_answers_in_flight_and_closes_idle_peers() {
        let reactor = spawn_reactor(TcpServerConfig {
            drain_deadline: Duration::from_millis(500),
            ..TcpServerConfig::default()
        });
        let addr = reactor.local_addr();
        let mut served = TcpClient::connect(addr).unwrap();
        let resp = served.call(&Request::QuerySoftware { software_id: "ef".repeat(20) }).unwrap();
        assert!(matches!(resp, Response::UnknownSoftware { .. }));
        let _idle = TcpClient::connect(addr).unwrap();

        let stats = reactor.stats_handle();
        reactor.shutdown();
        let s = stats.snapshot();
        assert_eq!(s.active, 0, "shutdown must close every connection: {s:?}");
        assert_eq!(s.accepted, s.closed);
    }

    #[test]
    fn oversized_header_drops_the_connection_without_allocating() {
        let reactor = spawn_reactor(TcpServerConfig::default());
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Declare a 2 GiB frame: the reactor must refuse and close.
        stream.write_all(&(2u32 << 30).to_be_bytes()).unwrap();
        let mut sink = [0u8; 16];
        let n = stream.read(&mut sink).unwrap_or(0);
        assert_eq!(n, 0, "oversized frame must be met with a close, not bytes");
        reactor.shutdown();
    }

    #[test]
    fn timer_wheel_evicts_only_expired_entries_and_honours_refreshes() {
        fn conn_stub(deadline: u64, scheduled: u64) -> Conn {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            Conn {
                stream,
                peer_tag: Arc::from("t"),
                state: ConnState::ReadingHeader,
                header: [0u8; 4],
                header_got: 0,
                body: Vec::new(),
                body_got: 0,
                write_buf: Vec::new(),
                write_pos: 0,
                deadline,
                scheduled,
                interest: 0,
                close_after_write: false,
            }
        }

        let mut wheel = TimerWheel::new();
        let mut conns = HashMap::new();
        // Token 1 expires at tick 3; token 2 was filed at 3 but its
        // deadline has since been pushed to 10 (keep-alive refresh).
        conns.insert(1u64, conn_stub(3, 3));
        conns.insert(2u64, conn_stub(10, 3));
        wheel.insert(1, 3);
        wheel.insert(2, 3);

        let mut expired = Vec::new();
        wheel.advance(5, &mut conns, &mut expired);
        assert_eq!(expired, vec![1]);
        assert_eq!(conns.get(&2).map(|c| c.scheduled), Some(10), "refresh re-buckets");

        // The re-bucketed entry fires at its true deadline.
        expired.clear();
        conns.remove(&1);
        wheel.advance(10, &mut conns, &mut expired);
        assert_eq!(expired, vec![2]);

        // A stale entry (scheduled moved past it) is dropped silently, and
        // a wheel-lap-future entry survives a full ring traversal.
        expired.clear();
        conns.insert(3u64, conn_stub(WHEEL_SLOTS * 3, WHEEL_SLOTS * 3));
        wheel.insert(3, WHEEL_SLOTS * 3);
        wheel.advance(WHEEL_SLOTS * 2, &mut conns, &mut expired);
        assert!(expired.is_empty(), "future-lap entry must not fire early");
        wheel.advance(WHEEL_SLOTS * 3, &mut conns, &mut expired);
        assert_eq!(expired, vec![3]);
    }
}
