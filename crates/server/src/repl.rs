//! Server-side replication: serving the WAL-shipping endpoints on the
//! primary, and the tailing loop that keeps a read replica current
//! (DESIGN.md §15).
//!
//! The transport is the ordinary request/response protocol — replication
//! adds no second listener and works identically behind both front ends.
//! A replica is just a [`crate::handler::ReputationServer`] whose store is
//! written by [`ReplicaTail`] instead of by client requests: the tail
//! polls the primary with `ReplSubscribe`, applies each shipped batch
//! through [`softrep_storage::replication::apply_replicated`] (which
//! folds the applied-sequence watermark into the same atomic commit), and
//! falls back to a chunked snapshot bootstrap whenever the primary's log
//! no longer holds a gapless continuation.
//!
//! Failure handling mirrors the client connector's taxonomy: disconnects
//! and timeouts are retryable (reconnect with capped exponential
//! backoff), while a response that does not belong to the replication
//! protocol means the stream may be desynchronized — the connection is
//! dropped and re-established rather than reused.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use softrep_core::db::ReputationDb;
use softrep_proto::framing::MAX_FRAME_LEN;
use softrep_proto::message::ReplEntry as WireEntry;
use softrep_proto::{Request, Response};
use softrep_storage::replication::{self, ReplEntry};
use softrep_storage::{ReplRead, Store};

use crate::handler::ReputationServer;
use crate::tcp::TcpClient;

/// Hard cap on entries per `ReplEntries` page, whatever the subscriber
/// asks for.
pub const MAX_PAGE_ENTRIES: u32 = 1024;

/// Hard cap on raw (pre-hex) entry bytes per `ReplEntries` page. Hex
/// encoding doubles this on the wire and per-entry XML framing adds a
/// little more, so the cap keeps every response comfortably inside the
/// framing layer's 1 MiB frame limit.
pub const MAX_PAGE_BYTES: u32 = 192 * 1024;

/// Raw bytes per `ReplSnapshotChunk` (512 KiB of hex on the wire).
pub const SNAPSHOT_CHUNK_BYTES: usize = 256 * 1024;

/// Point-in-time values of the replication series exported on `/metrics`.
///
/// On a primary the gauges sit at zero and the counter never moves; the
/// series still render so dashboards and the CI smoke test can rely on
/// their presence unconditionally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplMetrics {
    /// `softrep_repl_lag_entries`: committed entries on the primary not
    /// yet applied here (0 when caught up).
    pub lag_entries: u64,
    /// `softrep_repl_lag_bytes`: bytes of committed entries beyond the
    /// last page the primary shipped us.
    pub lag_bytes: u64,
    /// `softrep_repl_applied_seq`: this replica's applied watermark.
    pub applied_seq: u64,
    /// `softrep_repl_reconnects_total`: connection cycles against the
    /// primary that ended in a retryable failure.
    pub reconnects: u64,
}

/// Replication state carried by every [`ReputationServer`]: the serving
/// side's snapshot cache, the replica role marker, and the metrics the
/// tail thread publishes.
#[derive(Default)]
pub struct ReplServerState {
    /// One encoded snapshot kept alive while subscribers page through it,
    /// keyed by its covered sequence number.
    snapshot_cache: Mutex<Option<(u64, Arc<Vec<u8>>)>>,
    /// Set exactly once when this node is configured as a read replica;
    /// the value is the primary's protocol address, echoed in
    /// [`Response::NotPrimary`] redirects.
    replica_of: OnceLock<String>,
    lag_entries: AtomicU64,
    lag_bytes: AtomicU64,
    applied_seq: AtomicU64,
    reconnects: AtomicU64,
}

impl ReplServerState {
    /// The primary's address when this node is a replica, else `None`.
    pub fn replica_of(&self) -> Option<&str> {
        self.replica_of.get().map(String::as_str)
    }

    /// Mark this node as a read replica of `primary`. The role is
    /// permanent for the process lifetime (first caller wins).
    pub fn set_replica_of(&self, primary: String) {
        let _ = self.replica_of.set(primary);
    }

    /// A consistent snapshot of the replication series.
    pub fn metrics(&self) -> ReplMetrics {
        ReplMetrics {
            lag_entries: self.lag_entries.load(Ordering::Relaxed),
            lag_bytes: self.lag_bytes.load(Ordering::Relaxed),
            applied_seq: self.applied_seq.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }

    fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    fn record_lag(&self, applied_seq: u64, committed_seq: u64, lag_bytes: u64) {
        self.applied_seq.store(applied_seq, Ordering::Relaxed);
        self.lag_entries.store(committed_seq.saturating_sub(applied_seq), Ordering::Relaxed);
        self.lag_bytes.store(lag_bytes, Ordering::Relaxed);
    }
}

/// Answer a `ReplSubscribe` request against `store`. Caps are clamped to
/// the server-side maxima so a misbehaving subscriber cannot force an
/// oversized frame, and floored at one entry so progress is always
/// possible. A single entry too large for one frame cannot be shipped at
/// all: the subscriber is told to resync, and bootstraps from a snapshot
/// taken past it.
pub fn serve_subscribe(store: &Store, from_seq: u64, max_entries: u32, max_bytes: u32) -> Response {
    let entries = max_entries.clamp(1, MAX_PAGE_ENTRIES) as usize;
    let bytes = max_bytes.clamp(1, MAX_PAGE_BYTES) as usize;
    match store.replication_read(from_seq, entries, bytes) {
        Ok(ReplRead::Entries { entries, committed_seq, backlog_bytes }) => {
            // Only a lone first entry can exceed the byte cap.
            let oversized = entries.first().is_some_and(|e| e.batch.len() > bytes);
            let page = Response::ReplEntries {
                committed_seq,
                backlog_bytes,
                entries: entries
                    .into_iter()
                    .map(|e| WireEntry { seq: e.seq, batch: e.batch })
                    .collect(),
            };
            if oversized && page.encode().len() > MAX_FRAME_LEN as usize {
                Response::ReplResync { committed_seq }
            } else {
                page
            }
        }
        Ok(ReplRead::SnapshotNeeded { committed_seq }) => Response::ReplResync { committed_seq },
        Err(e) => Response::error("repl-unavailable", e.to_string()),
    }
}

/// Answer a `ReplSnapshot` request: one chunk of an encoded store
/// snapshot. `seq == 0` (or a `seq` the cache no longer holds) cuts a
/// fresh export — never a stale cached one, so a bootstrap that raced a
/// compaction converges instead of looping on a retired snapshot. The
/// fresh export replaces the cache so subscribers paging through it get
/// consistent bytes.
pub fn serve_snapshot(state: &ReplServerState, store: &Store, seq: u64, offset: u64) -> Response {
    let cached = if seq == 0 {
        None
    } else {
        state
            .snapshot_cache
            .lock()
            .as_ref()
            .filter(|(cached_seq, _)| *cached_seq == seq)
            .map(|(cached_seq, data)| (*cached_seq, Arc::clone(data)))
    };
    let (snap_seq, data) = match cached {
        Some(hit) => hit,
        None => {
            let (snap_seq, bytes) = store.export_snapshot();
            let data = Arc::new(bytes);
            *state.snapshot_cache.lock() = Some((snap_seq, Arc::clone(&data)));
            (snap_seq, data)
        }
    };
    let total_len = data.len() as u64;
    let start = offset.min(total_len) as usize;
    let end = start.saturating_add(SNAPSHOT_CHUNK_BYTES).min(data.len());
    Response::ReplSnapshotChunk {
        seq: snap_seq,
        offset: start as u64,
        total_len,
        data: data.get(start..end).map(<[u8]>::to_vec).unwrap_or_default(),
    }
}

/// Tuning knobs for [`ReplicaTail`].
#[derive(Debug, Clone)]
pub struct ReplicaTailConfig {
    /// Sleep between polls once caught up with the primary.
    pub poll_interval: Duration,
    /// First backoff after a retryable failure; doubles per consecutive
    /// failure up to [`ReplicaTailConfig::backoff_max`], and resets on the
    /// next successful exchange — the client connector's shape.
    pub backoff_start: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Socket read deadline for calls against the primary (also bounds
    /// how long shutdown can block on an in-flight call).
    pub read_timeout: Duration,
    /// Socket write deadline for calls against the primary.
    pub write_timeout: Duration,
    /// Page caps requested per poll (clamped by the primary to
    /// [`MAX_PAGE_ENTRIES`]/[`MAX_PAGE_BYTES`]).
    pub page_entries: u32,
    /// See [`ReplicaTailConfig::page_entries`].
    pub page_bytes: u32,
}

impl Default for ReplicaTailConfig {
    fn default() -> Self {
        ReplicaTailConfig {
            poll_interval: Duration::from_millis(50),
            backoff_start: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            page_entries: 256,
            page_bytes: 128 * 1024,
        }
    }
}

/// How one connection's session ended.
enum SessionEnd {
    /// Shutdown was requested; the tail thread exits.
    Stop,
    /// A retryable failure; reconnect after backoff.
    Retry,
}

/// The replica's tailing thread: connects to the primary, bootstraps from
/// a snapshot when needed, then streams committed batches into the local
/// store, publishing lag metrics as it goes.
pub struct ReplicaTail {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReplicaTail {
    /// Spawn the tail with default tuning.
    pub fn spawn(server: Arc<ReputationServer>, primary: String) -> std::io::Result<Self> {
        ReplicaTail::spawn_with(server, primary, ReplicaTailConfig::default())
    }

    /// Spawn the tail with explicit tuning. Also marks `server` as a
    /// replica of `primary`, so its handler starts redirecting writes.
    pub fn spawn_with(
        server: Arc<ReputationServer>,
        primary: String,
        config: ReplicaTailConfig,
    ) -> std::io::Result<Self> {
        server.repl_state().set_replica_of(primary.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("softrep-repl-tail".to_string())
            .spawn(move || run_tail(&server, &primary, &config, &thread_stop))?;
        Ok(ReplicaTail { stop, thread: Some(thread) })
    }

    /// Signal the tail to stop and join it. An in-flight call against the
    /// primary delays this by at most the configured read deadline.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ReplicaTail {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn run_tail(
    server: &ReputationServer,
    primary: &str,
    config: &ReplicaTailConfig,
    stop: &AtomicBool,
) {
    let mut backoff = config.backoff_start;
    while !stop.load(Ordering::SeqCst) {
        if let Ok(mut client) = TcpClient::connect(primary) {
            let _ = client.set_timeouts(Some(config.read_timeout), Some(config.write_timeout));
            match run_session(server, &mut client, config, stop, &mut backoff) {
                SessionEnd::Stop => return,
                SessionEnd::Retry => {}
            }
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        server.repl_state().record_reconnect();
        sleep_interruptible(stop, backoff);
        backoff = backoff.saturating_mul(2).min(config.backoff_max);
    }
}

/// Drive one connection until it fails or shutdown is requested.
fn run_session(
    server: &ReputationServer,
    client: &mut TcpClient,
    config: &ReplicaTailConfig,
    stop: &AtomicBool,
    backoff: &mut Duration,
) -> SessionEnd {
    let db = server.db();
    let store = Arc::clone(db.store());
    let state = server.repl_state();
    loop {
        if stop.load(Ordering::SeqCst) {
            return SessionEnd::Stop;
        }
        // A sentinel left by an interrupted install means the local state
        // is a torn mix; re-bootstrap before serving or tailing anything.
        if replication::bootstrap_pending(&store) && resync(client, db, &store, state).is_err() {
            return SessionEnd::Retry;
        }
        let from_seq = replication::applied_watermark(&store);
        let request = Request::ReplSubscribe {
            from_seq,
            max_entries: config.page_entries,
            max_bytes: config.page_bytes,
        };
        let response = match client.call(&request) {
            Ok(response) => {
                *backoff = config.backoff_start;
                response
            }
            Err(_) => return SessionEnd::Retry,
        };
        match response {
            Response::ReplEntries { committed_seq, backlog_bytes, entries } => {
                if committed_seq < from_seq {
                    // The primary knows fewer commits than we applied: it
                    // was restored from older state. Our suffix is no
                    // longer meaningful; converge on its truth.
                    if resync(client, db, &store, state).is_err() {
                        return SessionEnd::Retry;
                    }
                    continue;
                }
                let caught_up = entries.is_empty();
                let mut applied_any = false;
                let mut gap = false;
                for entry in &entries {
                    let entry = ReplEntry { seq: entry.seq, batch: entry.batch.clone() };
                    match replication::apply_replicated(&store, &entry) {
                        Ok(()) => applied_any = true,
                        Err(_) => {
                            gap = true;
                            break;
                        }
                    }
                }
                if applied_any {
                    // Applies bypass the db layer, so its read-through
                    // caches must not serve pre-page state.
                    db.purge_read_caches();
                }
                state.record_lag(
                    replication::applied_watermark(&store),
                    committed_seq,
                    backlog_bytes,
                );
                if gap {
                    if resync(client, db, &store, state).is_err() {
                        return SessionEnd::Retry;
                    }
                    continue;
                }
                if caught_up {
                    sleep_interruptible(stop, config.poll_interval);
                }
            }
            Response::ReplResync { .. } => {
                if resync(client, db, &store, state).is_err() {
                    return SessionEnd::Retry;
                }
            }
            // Anything else — an error response, or a reply from a node
            // that is not a primary — leaves no way to know the stream
            // state; drop the connection and start over.
            _ => return SessionEnd::Retry,
        }
    }
}

/// Fetch a full snapshot in chunks and install it, replacing local state.
/// A `seq` change mid-assembly (the primary cut a newer snapshot, or
/// restarted) restarts the download from offset zero.
fn resync(
    client: &mut TcpClient,
    db: &ReputationDb,
    store: &Store,
    state: &ReplServerState,
) -> Result<(), ()> {
    let mut buf: Vec<u8> = Vec::new();
    let mut want_seq = 0u64;
    loop {
        let request = Request::ReplSnapshot { seq: want_seq, offset: buf.len() as u64 };
        let Ok(response) = client.call(&request) else { return Err(()) };
        let Response::ReplSnapshotChunk { seq, offset, total_len, data } = response else {
            return Err(());
        };
        if seq != want_seq || offset != buf.len() as u64 {
            buf.clear();
            want_seq = seq;
            if offset != 0 {
                // Re-request the new snapshot from its beginning.
                continue;
            }
        }
        if data.is_empty() && (buf.len() as u64) < total_len {
            // No progress would be made; the primary is misbehaving.
            return Err(());
        }
        buf.extend_from_slice(&data);
        if buf.len() as u64 >= total_len {
            break;
        }
    }
    let covered_seq = replication::install_snapshot(store, &buf).map_err(|_| ())?;
    db.purge_read_caches();
    state.applied_seq.store(covered_seq, Ordering::Relaxed);
    Ok(())
}

/// Sleep up to `total`, waking early when `stop` flips.
fn sleep_interruptible(stop: &AtomicBool, total: Duration) {
    let step = Duration::from_millis(10);
    let mut remaining = total;
    while !stop.load(Ordering::SeqCst) && remaining > Duration::ZERO {
        let chunk = remaining.min(step);
        std::thread::sleep(chunk);
        remaining = remaining.saturating_sub(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    use softrep_core::clock::SimClock;
    use softrep_crypto::salted::SecretPepper;

    use crate::handler::ServerConfig;
    use crate::tcp::TcpServer;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("softrep-srv-repl-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn file_backed_server(dir: &PathBuf) -> Arc<ReputationServer> {
        let store = Arc::new(Store::open(dir).unwrap());
        let db = ReputationDb::new(store, SecretPepper::new(b"repl-pepper".to_vec()));
        Arc::new(ReputationServer::new(
            db,
            Arc::new(SimClock::new()),
            ServerConfig { puzzle_difficulty: 0, ..ServerConfig::default() },
            11,
        ))
    }

    fn fast_tail_config() -> ReplicaTailConfig {
        ReplicaTailConfig {
            poll_interval: Duration::from_millis(5),
            backoff_start: Duration::from_millis(5),
            backoff_max: Duration::from_millis(50),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            ..ReplicaTailConfig::default()
        }
    }

    fn wait_until(deadline_ms: u64, mut check: impl FnMut() -> bool) -> bool {
        let sw = softrep_obs::time::Stopwatch::start();
        while sw.elapsed_micros() < deadline_ms * 1_000 {
            if check() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        check()
    }

    #[test]
    fn replica_redirects_writes_but_serves_reads() {
        let server = file_backed_server(&tmpdir("redirect"));
        server.repl_state().set_replica_of("10.1.2.3:7007".to_string());

        let resp = server.handle(&Request::GetPuzzle, "peer");
        let Response::NotPrimary { primary } = resp else { panic!("{resp:?}") };
        assert_eq!(primary, "10.1.2.3:7007");

        // Reads are answered locally.
        let resp = server.handle(&Request::QuerySoftware { software_id: "ab".repeat(20) }, "peer");
        assert!(matches!(resp, Response::UnknownSoftware { .. }), "{resp:?}");
    }

    #[test]
    fn repl_requests_bypass_the_flood_guard() {
        let server = file_backed_server(&tmpdir("flood-exempt"));
        let burst = server.config().flood_capacity + 50;
        for _ in 0..burst {
            let resp = server.handle(
                &Request::ReplSubscribe { from_seq: 0, max_entries: 1, max_bytes: 1024 },
                "replica-peer",
            );
            assert!(
                !matches!(resp, Response::Error { ref code, .. } if code == "throttled"),
                "replication polling must never be throttled"
            );
        }
    }

    #[test]
    fn in_memory_primary_reports_repl_unavailable() {
        let server = Arc::new(ReputationServer::new(
            ReputationDb::in_memory("p"),
            Arc::new(SimClock::new()),
            ServerConfig::default(),
            1,
        ));
        let resp = server.handle(
            &Request::ReplSubscribe { from_seq: 0, max_entries: 8, max_bytes: 1024 },
            "peer",
        );
        assert!(
            matches!(resp, Response::Error { ref code, .. } if code == "repl-unavailable"),
            "{resp:?}"
        );
    }

    #[test]
    fn snapshot_endpoint_chunks_and_is_cacheable() {
        let server = file_backed_server(&tmpdir("snap-chunks"));
        let store = Arc::clone(server.db().store());
        // Enough data that the export is non-trivial (still one chunk).
        for i in 0..100 {
            store.put("t", format!("key-{i}").into_bytes(), vec![b'x'; 100]).unwrap();
        }
        let resp = server.handle(&Request::ReplSnapshot { seq: 0, offset: 0 }, "peer");
        let Response::ReplSnapshotChunk { seq, offset, total_len, data } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(offset, 0);
        assert_eq!(seq, store.committed_seq());
        assert_eq!(total_len as usize, data.len(), "small exports fit one chunk");

        // Paging past the end returns an empty chunk, not an error.
        let resp = server.handle(&Request::ReplSnapshot { seq, offset: total_len }, "peer");
        let Response::ReplSnapshotChunk { data, .. } = resp else { panic!("{resp:?}") };
        assert!(data.is_empty());
    }

    #[test]
    fn tail_streams_writes_and_reports_zero_lag() {
        let primary = file_backed_server(&tmpdir("tail-e2e-p"));
        let primary_store = Arc::clone(primary.db().store());
        let tcp = TcpServer::spawn(Arc::clone(&primary), "127.0.0.1:0").unwrap();
        let primary_addr = tcp.local_addr().to_string();

        let replica = file_backed_server(&tmpdir("tail-e2e-r"));
        let replica_store = Arc::clone(replica.db().store());
        let tail = ReplicaTail::spawn_with(Arc::clone(&replica), primary_addr, fast_tail_config())
            .unwrap();

        for i in 0..200 {
            primary_store.put("t", format!("k{i}").into_bytes(), vec![b'v'; 50]).unwrap();
        }
        assert!(
            wait_until(10_000, || replica_store.content_dump() == primary_store.content_dump()),
            "replica must converge on the primary's contents"
        );
        assert!(wait_until(10_000, || replica.repl_state().metrics().lag_entries == 0));
        let metrics = replica.repl_state().metrics();
        assert_eq!(metrics.applied_seq, primary_store.committed_seq());

        // The metrics page carries all four series on both roles.
        for series in [
            "softrep_repl_lag_entries",
            "softrep_repl_lag_bytes",
            "softrep_repl_applied_seq",
            "softrep_repl_reconnects_total",
        ] {
            assert!(replica.metrics_text().contains(series), "replica missing {series}");
            assert!(primary.metrics_text().contains(series), "primary missing {series}");
        }

        tail.shutdown();
        tcp.shutdown();
    }

    #[test]
    fn tail_bootstraps_from_snapshot_after_compaction() {
        let primary = file_backed_server(&tmpdir("tail-snap-p"));
        let primary_store = Arc::clone(primary.db().store());
        for i in 0..300 {
            primary_store.put("t", format!("k{i}").into_bytes(), vec![b'v'; 40]).unwrap();
        }
        // Retire the whole log: a fresh subscriber must bootstrap.
        primary_store.compact().unwrap();
        let tcp = TcpServer::spawn(Arc::clone(&primary), "127.0.0.1:0").unwrap();

        let replica = file_backed_server(&tmpdir("tail-snap-r"));
        let replica_store = Arc::clone(replica.db().store());
        let tail = ReplicaTail::spawn_with(
            Arc::clone(&replica),
            tcp.local_addr().to_string(),
            fast_tail_config(),
        )
        .unwrap();

        assert!(
            wait_until(10_000, || replica_store.content_dump() == primary_store.content_dump()),
            "replica must bootstrap to the primary's contents"
        );
        // And keep tailing after the bootstrap.
        primary_store.put("t", b"post-snapshot".to_vec(), b"v".to_vec()).unwrap();
        assert!(wait_until(10_000, || {
            replica_store.content_dump() == primary_store.content_dump()
        }));

        tail.shutdown();
        tcp.shutdown();
    }

    #[test]
    fn tail_survives_primary_restart() {
        let dir_p = tmpdir("restart-p");
        let primary = file_backed_server(&dir_p);
        let primary_store = Arc::clone(primary.db().store());
        let tcp = TcpServer::spawn(Arc::clone(&primary), "127.0.0.1:0").unwrap();
        let addr = tcp.local_addr();

        let replica = file_backed_server(&tmpdir("restart-r"));
        let replica_store = Arc::clone(replica.db().store());
        let tail =
            ReplicaTail::spawn_with(Arc::clone(&replica), addr.to_string(), fast_tail_config())
                .unwrap();

        primary_store.put("t", b"before".to_vec(), b"1".to_vec()).unwrap();
        assert!(wait_until(10_000, || {
            replica_store.content_dump() == primary_store.content_dump()
        }));

        // Stop the primary's front end; the tail must ride out the outage.
        primary_store.sync().unwrap();
        tcp.shutdown();
        drop(primary);
        std::thread::sleep(Duration::from_millis(50));

        // Reopen the same data directory on the same port.
        let primary = {
            let store = Arc::new(Store::open(&dir_p).unwrap());
            let db = ReputationDb::new(store, SecretPepper::new(b"repl-pepper".to_vec()));
            Arc::new(ReputationServer::new(
                db,
                Arc::new(SimClock::new()),
                ServerConfig { puzzle_difficulty: 0, ..ServerConfig::default() },
                12,
            ))
        };
        let primary_store = Arc::clone(primary.db().store());
        let tcp2 = TcpServer::spawn(Arc::clone(&primary), addr).unwrap();
        primary_store.put("t", b"after".to_vec(), b"2".to_vec()).unwrap();

        assert!(
            wait_until(10_000, || replica_store.content_dump() == primary_store.content_dump()),
            "tail must reconnect and resume after a primary restart"
        );
        assert!(
            replica.repl_state().metrics().reconnects > 0,
            "the outage must be visible in the reconnect counter"
        );

        tail.shutdown();
        tcp2.shutdown();
    }
}
