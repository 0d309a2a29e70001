//! The traced in-process replay (`--trace 1`): the end-to-end run's seed
//! and stream, sent over loopback to the server [`crate::server`]
//! assembles for the benchmark's server process too, then replayed one request at a time
//! through each layer's public function. Calls are timed from here,
//! allocations are counted by the driver's counting allocator, and
//! `/metrics` is scraped before and after the loopback replay.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::Cursor as Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use softrep_core::clock::Timestamp;
use softrep_crypto::salted::PasswordHash;
use softrep_proto::framing::{encode_frame_into, read_frame_into};
use softrep_proto::{Request, Response};
use softrep_server::{FloodGuard, ReputationServer};
use softrep_storage::replication::apply_replicated;
use softrep_storage::{ReplRead, Store, StoreOptions};

use crate::alloc::thread_allocations;
use crate::net;
use crate::openloop::{self, Cursor, Phase};
use crate::report::{Metric, Report};
use crate::rng::SplitMix64;
use crate::seed;
use crate::stats::{mean, median, quantile};
use crate::workload::{user_addr, Class, Dataset, Item, Op, Stream, DATA_EPOCH};
use crate::{Args, Scratch};

/// Stream requests replayed through the layers one call at a time.
const OFFLINE_ITEMS: usize = 3_000;
/// Writes timed through the handler on workloads whose stream has none.
const WRITE_PROBE: usize = 200;
/// The replica tail's default page.
const PAGE_ENTRIES: usize = 256;
const PAGE_BYTES: usize = 128 * 1024;
/// Maintenance period during the replay: the incremental aggregation batch
/// and a store sync, standing in for the 24 h schedule.
const MAINTENANCE: Duration = Duration::from_secs(1);
const REPEATS: usize = 5;

type Batches = Mutex<Vec<(f64, usize)>>;

/// Per-call costs of the offline pass (µs unless named otherwise).
#[derive(Default)]
struct Calls {
    request_decode: Vec<f64>,
    request_decode_allocs: Vec<f64>,
    response_encode: Vec<f64>,
    response_encode_allocs: Vec<f64>,
    response_decode: Vec<f64>,
    frame_bytes: Vec<f64>,
    framing: Vec<f64>,
    handler_query: Vec<f64>,
    handler_write: Vec<f64>,
    handler_allocs: Vec<f64>,
    /// Query-class decode, handler, encode and framing costs: the stages
    /// the unattributed remainder is measured against.
    query_stages: [Vec<f64>; 4],
    failed: u64,
}

/// The traced replay of `args.workload`.
pub fn run(args: &Args) -> Result<Report, String> {
    let data = Dataset::new(args.workload, args.seed);
    let nominal = args.workload.nominal_rps();
    let replay = Duration::from_secs_f64(args.seconds as f64 * 0.5);
    let len = (nominal * replay.as_secs_f64() * 1.1) as usize + OFFLINE_ITEMS;
    let stream = Stream::generate(&data, len)?;
    stream.check_flood_budget()?;
    let scratch = Scratch::new(&args.work)?;
    let seeded = seed::ensure(&args.work, &data)?;

    // storage.store.open_ms: fresh copies, so every open replays the log.
    let mut open_ms = Vec::new();
    let mut opened = None;
    for i in 0..3 {
        let dir = scratch.path(&format!("open-{i}"));
        seed::copy_store(&seeded.store, &dir)?;
        let t = Instant::now();
        let store =
            Store::open_with(&dir, StoreOptions::default()).map_err(|e| format!("open: {e}"))?;
        open_ms.push(ms(t));
        opened = Some(store);
    }
    let store = Arc::new(opened.ok_or("no store opened")?);
    // crypto.rsa.keygen_ms: assembly is the 1024-bit keygen plus trivial
    // wiring.
    let t = Instant::now();
    let server = crate::server::assemble(Arc::clone(&store));
    let keygen_ms = ms(t);
    let fronts = crate::server::serve(&server, "127.0.0.1:0", "127.0.0.1:0", None)?;
    let (proto, web_addr) = (net::v4(fronts.tcp.local_addr())?, net::v4(fronts.web.local_addr())?);

    let stop = AtomicBool::new(false);
    let batches: Batches = Mutex::new(Vec::new());
    let syncs = Mutex::new(Vec::new());
    let (before, replayed, after) = std::thread::scope(|scope| {
        scope.spawn(|| maintain(&server, &store, &stop, &batches, &syncs));
        let result = (|| {
            let before = net::scrape(web_addr)?;
            let phase = Phase { rate: nominal, duration: replay };
            let out = openloop::run(proto, &data, &stream, Cursor::default(), phase)?;
            let after = net::scrape(web_addr)?;
            Ok::<_, String>((before, out, after))
        })();
        stop.store(true, Ordering::SeqCst);
        result
    })?;
    fronts.tcp.shutdown();
    drop(fronts.web);
    // One batch after the replay, so every run times at least one.
    maintenance_round(&server, &store, &batches, &syncs);

    let mut items: Vec<Item> = stream.items.iter().take(OFFLINE_ITEMS).copied().collect();
    if !items.iter().any(|i| i.op.class() == Class::Write) {
        items.extend(write_probe(&data));
    }
    let calls = offline(&server, &data, &items)?;
    let identities: HashSet<u32> =
        stream.items.iter().take(replayed.attempted as usize).map(|i| i.user).collect();
    let allow_ns = flood_allow_ns(&server, identities.len());
    let login = login_ms(&server)?;
    let (head_us, tail_us, apply_us) = replication(&store, &scratch)?;

    let sent = replayed.written.max(1) as f64;
    let writes = replayed.samples.iter().filter(|s| s.class == Class::Write).count().max(1) as f64;
    let served = after.delta(&before, "softrep_server_requests_served_total");
    let rejected = after.delta(&before, "softrep_flood_rejected_total");
    let hits = after.delta(&before, "softrep_agg_report_cache_hits_total");
    let misses = after.delta(&before, "softrep_agg_report_cache_misses_total");
    let query_latency: Vec<f64> = replayed
        .samples
        .iter()
        .filter(|s| s.class == Class::Query)
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect();
    let e2e_query_p50 = quantile(&query_latency, 0.5);
    let stage_p50s: Vec<f64> = calls.query_stages.iter().map(|v| median(v)).collect();
    let lag_us: Vec<f64> = replayed.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let batches = batches.into_inner().map_err(|_| "maintenance thread panicked")?;
    let syncs = syncs.into_inner().map_err(|_| "maintenance thread panicked")?;
    let batch_ms: Vec<f64> = batches.iter().map(|b| b.0).collect();
    let titles: usize = batches.iter().map(|b| b.1).sum();

    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("proto.request_decode_us", median(&calls.request_decode), "us"),
        metric("proto.response_encode_us", median(&calls.response_encode), "us"),
        metric("proto.response_decode_us", median(&calls.response_decode), "us"),
        metric("proto.request_decode_allocs", mean(&calls.request_decode_allocs), "count"),
        metric("proto.response_encode_allocs", mean(&calls.response_encode_allocs), "count"),
        metric("proto.resp_frame_bytes", mean(&calls.frame_bytes), "bytes"),
        metric("proto.framing_us", median(&calls.framing), "us"),
        metric("server.handler.query_us", median(&calls.handler_query), "us"),
        metric("server.handler.write_us", median(&calls.handler_write), "us"),
        metric("server.handler.allocs_per_req", mean(&calls.handler_allocs), "count"),
        metric("server.flood.allow_ns", allow_ns, "ns"),
        metric("server.flood.rejected", rejected, "count"),
        metric(
            "server.reactor.wakeups_per_req",
            after.delta(&before, "softrep_reactor_wakeups_total") / sent,
            "count",
        ),
        metric(
            "server.reactor.ready_events_per_req",
            after.delta(&before, "softrep_reactor_ready_events_sum") / sent,
            "count",
        ),
        metric(
            "server.reactor.dispatch_p50_us",
            after.get("softrep_reactor_dispatch_us_p50"),
            "us",
        ),
        metric(
            "server.reactor.unattributed_us",
            e2e_query_p50 - stage_p50s.iter().sum::<f64>(),
            "us",
        ),
        metric("core.db.report_cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        metric(
            "core.db.dirty_marks_per_write",
            after.delta(&before, "softrep_agg_dirty_marks_total") / writes,
            "count",
        ),
        metric("core.aggregate_engine.batch_ms", median(&batch_ms), "ms"),
        metric(
            "core.aggregate_engine.titles_per_batch",
            titles as f64 / batches.len() as f64,
            "count",
        ),
        metric(
            "core.aggregate_engine.us_per_title",
            batch_ms.iter().sum::<f64>() * 1e3 / titles.max(1) as f64,
            "us",
        ),
        metric("crypto.salted.login_ms", median(&login), "ms"),
        metric("crypto.rsa.keygen_ms", keygen_ms, "ms"),
        metric("storage.store.open_ms", median(&open_ms), "ms"),
        metric(
            "storage.store.wal_bytes_per_write",
            after.delta(&before, "softrep_store_wal_appended_bytes_total") / writes,
            "bytes",
        ),
        metric(
            "storage.store.batches_per_write",
            after.delta(&before, "softrep_store_batches_applied_total") / writes,
            "count",
        ),
        metric("storage.store.sync_ms", median(&syncs), "ms"),
        metric("storage.replication.read_page_us_head", head_us, "us"),
        metric("storage.replication.read_page_us_tail", tail_us, "us"),
        metric("storage.replication.apply_us_per_entry", apply_us, "us"),
        metric("driver.send_lag_p99_us", quantile(&lag_us, 0.99), "us"),
        metric("driver.achieved_rps", sent / (replayed.elapsed_ns.max(1) as f64 / 1e9), "1/s"),
        metric("driver.query_p50_us", e2e_query_p50, "us"),
    ];
    let served_gap = (served - replayed.written as f64).abs() as u64;
    let failed = replayed.failed + calls.failed + served_gap + rejected as u64;
    let manifest = vec![
        ("replay_seconds", replay.as_secs_f64().to_string()),
        ("query_samples", query_latency.len().to_string()),
        ("offline_requests", items.len().to_string()),
        ("query_stage_p50s_us", crate::report::json_nums(&stage_p50s)),
        ("flood_identities", identities.len().to_string()),
    ];
    Ok(Report {
        correct: failed == 0,
        attempted: replayed.attempted + items.len() as u64,
        failed,
        metrics,
        manifest,
    })
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// The server's maintenance at vote-write's cadence, timed.
fn maintain(
    server: &ReputationServer,
    store: &Store,
    stop: &AtomicBool,
    batches: &Batches,
    syncs: &Mutex<Vec<f64>>,
) {
    let mut next = Instant::now() + MAINTENANCE;
    while !stop.load(Ordering::SeqCst) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        next += MAINTENANCE;
        maintenance_round(server, store, batches, syncs);
    }
}

fn maintenance_round(
    server: &ReputationServer,
    store: &Store,
    batches: &Batches,
    syncs: &Mutex<Vec<f64>>,
) {
    let t = Instant::now();
    let titles = server.db().force_aggregation_incremental(server.now()).unwrap_or(0);
    let batch_ms = ms(t);
    let t = Instant::now();
    let _ = store.sync();
    let sync_ms = ms(t);
    if let Ok(mut b) = batches.lock() {
        b.push((batch_ms, titles));
    }
    if let Ok(mut s) = syncs.lock() {
        s.push(sync_ms);
    }
}

/// A login and [`WRITE_PROBE`] ballots by member 0 on one connection, for
/// workloads whose stream writes nothing; sources change every 50
/// requests to stay under the flood burst.
fn write_probe(data: &Dataset) -> Vec<Item> {
    let conn = u32::MAX;
    let mut rng = SplitMix64::derive(data.seed, 7);
    let mut items = vec![Item { conn, user: u32::MAX, op: Op::Login(0) }];
    for k in 0..WRITE_PROBE {
        let title = data.popular_title(&mut rng);
        let op = Op::Vote { title, score: 1 + (k % 10) as u8, tagged: false };
        items.push(Item { conn, user: u32::MAX - 1 - (k / 50) as u32, op });
    }
    items
}

/// Replay `items` through framing, decoding, the handler and encoding,
/// one call at a time.
fn offline(server: &ReputationServer, data: &Dataset, items: &[Item]) -> Result<Calls, String> {
    let mut c = Calls::default();
    let mut sessions: HashMap<u32, String> = HashMap::new();
    let (mut frame, mut body) = (Vec::new(), Vec::new());
    for item in items {
        let session = sessions.get(&item.conn).cloned().unwrap_or_default();
        let wire = item.request(data, &session).encode();
        let source = format!("trace-{}", item.user);

        let t = Instant::now();
        encode_frame_into(&wire, &mut frame).map_err(|e| format!("frame: {e}"))?;
        read_frame_into(&mut Bytes::new(&frame), &mut body).map_err(|e| format!("frame: {e}"))?;
        let mut framing = us(t);
        let text = std::str::from_utf8(&body).map_err(|e| format!("frame: {e}"))?;

        let (allocs, t) = (thread_allocations(), Instant::now());
        let request = Request::decode(text);
        let (decode_us, decode_allocs) = (us(t), thread_allocations() - allocs);
        let request = request.map_err(|e| format!("decode: {e}"))?;

        let (allocs, t) = (thread_allocations(), Instant::now());
        let response = server.handle(&request, &source);
        let (handle_us, handle_allocs) = (us(t), thread_allocations() - allocs);

        let (allocs, t) = (thread_allocations(), Instant::now());
        let encoded = response.encode();
        let (encode_us, encode_allocs) = (us(t), thread_allocations() - allocs);

        let t = Instant::now();
        encode_frame_into(&encoded, &mut frame).map_err(|e| format!("frame: {e}"))?;
        read_frame_into(&mut Bytes::new(&frame), &mut body).map_err(|e| format!("frame: {e}"))?;
        framing += us(t);
        c.frame_bytes.push(frame.len() as f64);

        let text = std::str::from_utf8(&body).map_err(|e| format!("frame: {e}"))?;
        let t = Instant::now();
        let decoded = black_box(Response::decode(text));
        c.response_decode.push(us(t));

        if let Response::Session { token } = &response {
            sessions.insert(item.conn, token.clone());
        }
        if !decoded.is_ok_and(|r| item.accepts(data, &r)) {
            c.failed += 1;
        }
        c.request_decode.push(decode_us);
        c.request_decode_allocs.push(decode_allocs as f64);
        c.response_encode.push(encode_us);
        c.response_encode_allocs.push(encode_allocs as f64);
        c.framing.push(framing);
        c.handler_allocs.push(handle_allocs as f64);
        match item.op.class() {
            Class::Query => {
                c.handler_query.push(handle_us);
                for (stage, cost) in
                    c.query_stages.iter_mut().zip([decode_us, handle_us, encode_us, framing])
                {
                    stage.push(cost);
                }
            }
            Class::Write => c.handler_write.push(handle_us),
            Class::Login => {}
        }
    }
    Ok(c)
}

/// Median cost in ns of one `FloodGuard::allow` on a guard with the
/// deployed limits already tracking `identities` peers.
fn flood_allow_ns(server: &ReputationServer, identities: usize) -> f64 {
    let guard = FloodGuard::new(60, 120);
    let tags: Vec<String> = (0..identities.max(1) as u32)
        .map(|u| server.db().pseudonym_tag("peer", &user_addr(u).to_string()))
        .collect();
    let now = Timestamp(DATA_EPOCH);
    for tag in &tags {
        guard.allow(tag, now);
    }
    let rounds: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for tag in &tags {
                black_box(guard.allow(tag, now));
            }
            t.elapsed().as_nanos() as f64 / tags.len() as f64
        })
        .collect();
    median(&rounds)
}

/// Times of 20 checks of member 0's stored password hash, in ms.
fn login_ms(server: &ReputationServer) -> Result<Vec<f64>, String> {
    let user = server
        .db()
        .user(&Dataset::member_name(0))
        .map_err(|e| format!("member 0: {e}"))?
        .ok_or("member 0 is not seeded")?;
    let hash = PasswordHash::decode(&user.password_hash).ok_or("member 0's hash is corrupt")?;
    let password = Dataset::member_password(0);
    let mut out = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let ok = black_box(hash.verify(&password));
        out.push(ms(t));
        if !ok {
            return Err("member 0's password does not verify".to_string());
        }
    }
    Ok(out)
}

/// `Store::replication_read` of one tail-sized page at the head and near
/// the end of the log (µs), and the cost per entry of applying the head
/// page to a fresh replica store (µs).
fn replication(store: &Store, scratch: &Scratch) -> Result<(f64, f64, f64), String> {
    let read = |from: u64| {
        let mut times = Vec::new();
        let mut page = Vec::new();
        for _ in 0..REPEATS {
            let t = Instant::now();
            let result = store
                .replication_read(from, PAGE_ENTRIES, PAGE_BYTES)
                .map_err(|e| format!("replication read: {e}"))?;
            times.push(us(t));
            if let ReplRead::Entries { entries, .. } = result {
                page = entries;
            }
        }
        Ok::<_, String>((median(&times), page))
    };
    let (head_us, page) = read(0)?;
    let (tail_us, _) = read(store.committed_seq().saturating_sub(PAGE_ENTRIES as u64))?;
    let replica = Store::open_with(scratch.path("apply"), StoreOptions::default())
        .map_err(|e| format!("open: {e}"))?;
    let t = Instant::now();
    for entry in &page {
        apply_replicated(&replica, entry).map_err(|e| format!("apply: {e}"))?;
    }
    Ok((head_us, tail_us, us(t) / page.len().max(1) as f64))
}
