//! The end-to-end run (`--trace 0`): release server processes on
//! loopback, driven open-loop, reporting every `end_to_end` metric of
//! `BENCHMARK.json`.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddrV4;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::net::{self, Metrics};
use crate::openloop::{self, Cursor, Outcome, Phase, WINDOW_NS};
use crate::procs::{self, ServerProc};
use crate::report::{json_nums, Metric, Report};
use crate::seed;
use crate::stats::{median, quantile};
use crate::workload::{Class, Dataset, Stream, Workload};
use crate::{Args, Scratch};

/// Server starts per run; `setup_s` is their median. On query-zipf and
/// vote-write each start serves a share of the traffic.
const SETUP_STARTS: usize = 5;
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// The saturation bursts offer this multiple of the nominal rate, far
/// beyond what the server answers, so their answer rate is the capacity.
const OVERLOAD: f64 = 30.0;
/// Saturation bursts per server; `capacity_per_s` is the median of those
/// the host left alone.
const BURSTS: usize = 3;
/// A nominal phase whose sender ran later than this at p99 fell behind
/// its schedule: that attempt is invalid and its latencies are not recorded
/// (see [`on_schedule`]).
/// Shorter stalls are charged to latency, which runs from the scheduled
/// send time; on a shared 2-core machine they reach a p99 of about 6 ms
/// even at the nominal rates.
const MAX_SEND_LAG_P99_US: f64 = 20_000.0;
/// Attempts at a nominal phase before the run is marked as behind schedule.
const ATTEMPTS: usize = 2;
/// Answers compared byte for byte between a replica and the primary.
const EQUALITY_SAMPLE: usize = 200;
const EQUALITY_RPS: f64 = 1_000.0;
/// Reads a caught-up replica serves at the nominal rate.
const REPLICA_READS: Duration = Duration::from_secs(3);
const MAX_REPLICAS: usize = 3;
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(150);
/// A latency window or saturation burst in which the host's hypervisor
/// took more than this share of the machine's CPU time (steal) measured the
/// host, not the server: it is left out, unless every one is stolen from.
const MAX_WINDOW_STEAL: f64 = 0.02;

#[derive(Default)]
struct Measured {
    attempted: u64,
    failed: u64,
    /// Latencies (µs) of the measured phases' queries and of all their
    /// requests, and the (p50, steal share) of each of their windows.
    query_us: Vec<f64>,
    mix_us: Vec<f64>,
    query_windows: Vec<(f64, f64)>,
    mix_windows: Vec<(f64, f64)>,
    /// Capacity readings and the host's steal share during each.
    capacity: Vec<(f64, f64)>,
    rss_kib: Vec<f64>,
    /// Send lag p99s (µs) of the nominal phases that kept to their
    /// schedule, and of the attempts that did not.
    lag_p99_us: Vec<f64>,
    invalid_lag_p99_us: Vec<f64>,
    /// Nominal phases none of whose attempts kept to schedule.
    behind_schedule: usize,
    manifest: Vec<(&'static str, String)>,
}

impl Measured {
    fn count(&mut self, out: &Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
    }

    fn add_latencies(&mut self, out: &Outcome) {
        let mut windows: BTreeMap<u64, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for s in &out.samples {
            let us = s.latency_ns as f64 / 1e3;
            let (query, mix) = windows.entry(s.due_ns / WINDOW_NS).or_default();
            if s.class == Class::Query {
                self.query_us.push(us);
                query.push(us);
            }
            self.mix_us.push(us);
            mix.push(us);
        }
        for (w, (query, mix)) in windows {
            let steal = out.window_steal.get(w as usize).copied().unwrap_or(0.0);
            if !query.is_empty() {
                self.query_windows.push((quantile(&query, 0.5), steal));
            }
            self.mix_windows.push((quantile(&mix, 0.5), steal));
        }
    }

    /// Count server-side discrepancies between two scrapes as failures:
    /// served requests other than the `written` ones, and throttled ones.
    fn check_server(&mut self, before: &Metrics, after: &Metrics, written: u64) {
        let served = after.delta(before, "softrep_server_requests_served_total");
        self.failed += (served - written as f64).abs() as u64;
        self.failed += after.delta(before, "softrep_flood_rejected_total") as u64;
    }
}

/// The end-to-end run of `args.workload`.
pub fn run(args: &Args) -> Result<Report, String> {
    let data = Dataset::new(args.workload, args.seed);
    let scratch = Scratch::new(&args.work)?;
    let seeded = seed::ensure(&args.work, &data)?;
    let bin = procs::server_binary()?;
    // Set-up: spawn to first answer, each start on a fresh copy of the
    // seeded data, one server at a time.
    let mut setup = Vec::new();
    let mut start = |i: usize| {
        let dir = scratch.path(&format!("primary-{i}"));
        seed::copy_store(&seeded.store, &dir)?;
        let log = scratch.path(&format!("primary-{i}.log"));
        let mut server = ServerProc::spawn(&bin, &dir, &log, &[])?;
        setup.push(server.wait_ready(READY_TIMEOUT)?.as_secs_f64());
        Ok::<_, String>(server)
    };
    let mut m = match args.workload {
        Workload::ReplicaCatchup => {
            // The replicas follow the last start.
            for i in 0..SETUP_STARTS - 1 {
                drop(start(i)?);
            }
            let primary = start(SETUP_STARTS - 1)?;
            replica_catchup(args, &data, &primary, &bin, &scratch, seeded.committed_seq)?
        }
        Workload::QueryZipf | Workload::VoteWrite => {
            // Every start serves an equal share of the traffic, so the
            // metrics are medians over several server processes.
            let traffic = PrimaryTraffic::new(args, &data)?;
            let mut m = Measured::default();
            let mut cursor = Cursor::default();
            for i in 0..SETUP_STARTS {
                cursor = traffic.serve(&mut m, &start(i)?, cursor)?;
            }
            m.manifest = vec![("overload_offered_rps", traffic.burst.rate.to_string())];
            m
        }
    };
    let metrics = vec![
        Metric { name: "setup_s", value: median(&setup), unit: "s" },
        Metric { name: "query_p50_us", value: unstolen_median(&m.query_windows), unit: "us" },
        Metric { name: "mix_p50_us", value: unstolen_median(&m.mix_windows), unit: "us" },
        Metric { name: "capacity_per_s", value: unstolen_median(&m.capacity), unit: "1/s" },
        Metric { name: "rss_peak_mib", value: median(&m.rss_kib) / 1024.0, unit: "MiB" },
    ];
    let mut manifest = vec![
        ("setup_s_runs", json_nums(&setup)),
        ("query_samples", m.query_us.len().to_string()),
        ("mix_samples", m.mix_us.len().to_string()),
        ("latency_windows", m.mix_windows.len().to_string()),
        (
            "stolen_windows",
            m.mix_windows.iter().filter(|w| w.1 > MAX_WINDOW_STEAL).count().to_string(),
        ),
        (
            "query_window_p50s_us",
            json_nums(&m.query_windows.iter().map(|w| w.0).collect::<Vec<_>>()),
        ),
        // The p99s spread 60-120 % between seeds on a shared 2-core
        // machine, too much for a regression bound, so they are reported
        // here rather than as metrics.
        ("query_p99_us", quantile(&m.query_us, 0.99).to_string()),
        ("mix_p99_us", quantile(&m.mix_us, 0.99).to_string()),
        ("capacity_runs", json_nums(&m.capacity.iter().map(|c| c.0).collect::<Vec<_>>())),
        ("rss_peak_kib_runs", json_nums(&m.rss_kib)),
        ("send_lag_p99_us", json_nums(&m.lag_p99_us)),
        ("invalid_attempt_lag_p99_us", json_nums(&m.invalid_lag_p99_us)),
        ("kept_schedule", (m.behind_schedule == 0).to_string()),
    ];
    manifest.append(&mut m.manifest);
    Ok(Report {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        manifest,
    })
}

/// query-zipf and vote-write traffic: on each server, its share of the
/// nominal-rate phase, then saturation bursts that measure the highest
/// rate the server answers.
struct PrimaryTraffic<'a> {
    data: &'a Dataset,
    stream: Stream,
    share: Phase,
    burst: Phase,
}

impl<'a> PrimaryTraffic<'a> {
    fn new(args: &Args, data: &'a Dataset) -> Result<PrimaryTraffic<'a>, String> {
        let nominal = args.workload.nominal_rps();
        let main_s = args.seconds as f64 * 0.6;
        let share = Phase {
            rate: nominal,
            duration: Duration::from_secs_f64(main_s / SETUP_STARTS as f64),
        };
        // A burst schedules 30 × nominal × run/192 requests, which the
        // server takes about a third of a second to answer.
        let burst = Phase {
            rate: nominal * OVERLOAD,
            duration: Duration::from_secs_f64(args.seconds as f64 / 192.0),
        };
        let bursts = (SETUP_STARTS * BURSTS) as f64;
        let scheduled = ATTEMPTS as f64 * main_s + bursts * OVERLOAD * burst.duration.as_secs_f64();
        let stream = Stream::generate(data, (nominal * scheduled) as usize + 1_000)?;
        stream.check_flood_budget()?;
        Ok(PrimaryTraffic { data, stream, share, burst })
    }

    /// Send one server its share from `from`; returns where the next
    /// server's share starts.
    fn serve(&self, m: &mut Measured, server: &ServerProc, from: Cursor) -> Result<Cursor, String> {
        let before = net::scrape(server.web)?;
        let main = on_schedule(m, server.proto, self.data, &self.stream, from, self.share)?;
        m.add_latencies(&main.out);
        // Saturation: the sender offers far more than the server answers,
        // blocks on its two connections, and the answers arrive as fast as
        // the server can produce them.
        let (mut cursor, mut written) = (main.next, main.written);
        for _ in 0..BURSTS {
            let burst = openloop::run(server.proto, self.data, &self.stream, cursor, self.burst)?;
            m.count(&burst);
            let rate = burst.samples.len() as f64 / (burst.elapsed_ns.max(1) as f64 / 1e9);
            let steal = burst.window_steal.iter().copied().fold(0.0, f64::max);
            m.capacity.push((rate, steal));
            (cursor, written) = (burst.next, written + burst.written);
        }
        let after = net::scrape(server.web)?;
        m.check_server(&before, &after, written);
        m.rss_kib.push(server.peak_rss_kib()? as f64);
        Ok(cursor)
    }
}

/// replica-catchup: fresh replicas tail the primary's log; each is timed
/// to catch up, compared byte for byte with the primary, then read at the
/// nominal rate.
fn replica_catchup(
    args: &Args,
    data: &Dataset,
    primary: &ServerProc,
    bin: &Path,
    scratch: &Scratch,
    committed: u64,
) -> Result<Measured, String> {
    let nominal = args.workload.nominal_rps();
    let per_replica =
        EQUALITY_SAMPLE as f64 + nominal * ATTEMPTS as f64 * REPLICA_READS.as_secs_f64();
    let stream = Stream::generate(data, (MAX_REPLICAS as f64 * per_replica * 1.1) as usize)?;
    stream.check_flood_budget()?;
    let equality = Phase {
        rate: EQUALITY_RPS,
        duration: Duration::from_secs_f64(EQUALITY_SAMPLE as f64 / EQUALITY_RPS),
    };
    let reads = Phase { rate: nominal, duration: REPLICA_READS };

    let mut m = Measured::default();
    let primary_before = net::scrape(primary.web)?;
    let mut cursor = Cursor::default();
    let mut catchup_s = Vec::new();
    let started = Instant::now();
    for i in 0..MAX_REPLICAS {
        let round = Instant::now();
        let dir = scratch.path(&format!("replica-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let follow = ["--replica-of".to_string(), primary.proto.to_string()];
        let log = scratch.path(&format!("replica-{i}.log"));
        let mut replica = ServerProc::spawn(bin, &dir, &log, &follow)?;
        replica.wait_ready(READY_TIMEOUT)?;
        let first_answer = Instant::now();
        let applied = wait_caught_up(&replica, committed)?;
        let took = first_answer.elapsed().as_secs_f64();
        catchup_s.push(took);
        m.capacity.push((applied as f64 / took, 0.0));

        let before = net::scrape(replica.web)?;
        let from_replica = openloop::run(replica.proto, data, &stream, cursor, equality)?;
        let from_primary = openloop::run(primary.proto, data, &stream, cursor, equality)?;
        m.count(&from_replica);
        m.count(&from_primary);
        m.failed += differing_answers(&from_replica, &from_primary);
        let read = on_schedule(&mut m, replica.proto, data, &stream, from_replica.next, reads)?;
        cursor = read.next;
        m.add_latencies(&read.out);
        let after = net::scrape(replica.web)?;
        m.check_server(&before, &after, from_replica.written + read.written);
        m.rss_kib.push(replica.peak_rss_kib()? as f64);
        drop(replica);
        // Start another replica only if it fits in the run's length.
        if started.elapsed() + round.elapsed() > Duration::from_secs(args.seconds) {
            break;
        }
    }
    // The primary also serves the replicas' log pages, so only its
    // throttle count is checked.
    let primary_after = net::scrape(primary.web)?;
    m.failed += primary_after.delta(&primary_before, "softrep_flood_rejected_total") as u64;
    m.manifest =
        vec![("committed_seq", committed.to_string()), ("catchup_s_runs", json_nums(&catchup_s))];
    Ok(m)
}

/// The median of the `(reading, steal share)` readings the host left
/// alone, or of every reading if the host took CPU time during them all.
fn unstolen_median(readings: &[(f64, f64)]) -> f64 {
    let clean: Vec<f64> =
        readings.iter().filter(|r| r.1 <= MAX_WINDOW_STEAL).map(|r| r.0).collect();
    if clean.is_empty() {
        median(&readings.iter().map(|r| r.0).collect::<Vec<_>>())
    } else {
        median(&clean)
    }
}

/// A nominal phase, sent until one attempt kept to its schedule.
struct OnSchedule {
    /// The attempt whose latencies are recorded.
    out: Outcome,
    /// Requests every attempt wrote, the invalid ones included.
    written: u64,
    /// Where the stream continues after the last attempt.
    next: Cursor,
}

/// Send `phase` from `from` until an attempt's send lag p99 stays within
/// [`MAX_SEND_LAG_P99_US`], at most [`ATTEMPTS`] times, each attempt
/// continuing the stream. An attempt that fell behind is invalid: its
/// answers are still checked and counted, but its latencies are not
/// recorded. If every attempt fell behind (the host starved the generator
/// for seconds on end), the least late one is recorded and the run is
/// marked in the manifest, because every run must report.
fn on_schedule(
    m: &mut Measured,
    target: SocketAddrV4,
    data: &Dataset,
    stream: &Stream,
    from: Cursor,
    phase: Phase,
) -> Result<OnSchedule, String> {
    let (mut next, mut written) = (from, 0);
    let mut least_late: Option<(f64, Outcome)> = None;
    for _ in 0..ATTEMPTS {
        let out = openloop::run(target, data, stream, next, phase)?;
        m.count(&out);
        written += out.written;
        next = out.next;
        let lag_us: Vec<f64> = out.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let lag_p99 = quantile(&lag_us, 0.99);
        if lag_p99 <= MAX_SEND_LAG_P99_US {
            m.lag_p99_us.push(lag_p99);
            return Ok(OnSchedule { out, written, next });
        }
        m.invalid_lag_p99_us.push(lag_p99);
        if least_late.as_ref().is_none_or(|(lag, _)| lag_p99 < *lag) {
            least_late = Some((lag_p99, out));
        }
    }
    let (_, out) = least_late.ok_or("no attempt was sent")?;
    m.behind_schedule += 1;
    Ok(OnSchedule { out, written, next })
}

/// Poll the replica until it has applied `committed` entries and reports
/// no lag; returns its applied sequence number.
fn wait_caught_up(replica: &ServerProc, committed: u64) -> Result<u64, String> {
    let start = Instant::now();
    loop {
        let metrics = net::scrape(replica.web)?;
        let applied = metrics.get("softrep_repl_applied_seq") as u64;
        if applied >= committed && metrics.get("softrep_repl_lag_entries") == 0.0 {
            return Ok(applied);
        }
        if start.elapsed() > CATCHUP_TIMEOUT {
            return Err(format!("replica at {applied} of {committed} after {CATCHUP_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Replica answers that differ from the primary's, byte for byte, plus
/// answers either side is missing.
fn differing_answers(replica: &Outcome, primary: &Outcome) -> u64 {
    let by_item: HashMap<usize, &Vec<u8>> = primary.bodies.iter().map(|(i, b)| (*i, b)).collect();
    let differ = replica.bodies.iter().filter(|(i, b)| by_item.get(i) != Some(&b)).count();
    differ as u64 + (primary.bodies.len() as u64).abs_diff(replica.bodies.len() as u64)
}
