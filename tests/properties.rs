//! Property-test harness: the incremental aggregation engine is
//! behaviourally equivalent to the paper's full 24 h batch.
//!
//! Each case replays one random workload (votes, comments, remarks, trust
//! adjustments, moderation, time advances) against two databases in
//! lockstep — one aggregating incrementally, one with the paper-faithful
//! full scan — and asserts their entire rating tables agree bit-for-bit
//! (modulo `computed_at`, which the full path restamps on clean titles) at
//! every batch.
//!
//! Knobs (see `tests/support/prop.rs`):
//! * `SOFTREP_PROP_CASES` — number of random workloads (default 200).
//! * `SOFTREP_PROP_SEED` — base seed; failures print the exact seed and a
//!   shrunk counterexample so every report is replayable.

#[path = "support/prop.rs"]
mod prop;

use prop::{base_seed, case_count, gen_workload, run_equivalence_case, shrink, SplitMix64, USERS};
use softrep_core::aggregate::weighted_mean;
use softrep_core::clock::Timestamp;
use softrep_core::trust::{TrustEngine, MAX_TRUST, MIN_TRUST, WEEKLY_TRUST_GROWTH_CAP};

#[test]
fn incremental_aggregation_equals_full_batch_on_random_workloads() {
    let cases = case_count(200);
    let base = base_seed(0x5eed_cafe);
    for case in 0..cases {
        let seed = base.wrapping_add(case as u64);
        let mut rng = SplitMix64::new(seed);
        let len = (rng.below(80) + 20) as usize;
        let ops = gen_workload(&mut rng, len);
        if let Some(diff) = run_equivalence_case(seed, &ops) {
            // Shrink before reporting: greedy chunk removal while the
            // divergence persists.
            let minimized =
                shrink(ops, |candidate| run_equivalence_case(seed, candidate).is_some());
            let final_diff = run_equivalence_case(seed, &minimized)
                .unwrap_or_else(|| "divergence vanished during shrinking".to_string());
            panic!(
                "incremental/full divergence (replay with SOFTREP_PROP_SEED={seed} \
                 SOFTREP_PROP_CASES=1)\nfirst failure: {diff}\n\
                 minimized to {} ops: {minimized:#?}\nminimized failure: {final_diff}",
                minimized.len(),
            );
        }
    }
}

#[test]
fn weighted_mean_stays_in_score_bounds_and_is_none_iff_weightless() {
    let mut rng = SplitMix64::new(base_seed(0xab5_0b57));
    for _ in 0..case_count(200) {
        let n = rng.below(30) as usize;
        let pairs: Vec<(u8, f64)> = (0..n)
            .map(|_| {
                let score = (rng.below(10) + 1) as u8;
                // Mix zero weights in: they must contribute nothing.
                let weight =
                    if rng.chance(20) { 0.0 } else { rng.below(10_000) as f64 / 100.0 + 0.01 };
                (score, weight)
            })
            .collect();
        let any_weight = pairs.iter().any(|(_, w)| *w > 0.0);
        match weighted_mean(pairs.iter().copied()) {
            None => assert!(!any_weight, "None only when no positive weight exists: {pairs:?}"),
            Some(mean) => {
                assert!(any_weight);
                assert!(
                    (1.0..=10.0).contains(&mean),
                    "mean {mean} outside score bounds for {pairs:?}"
                );
            }
        }
    }
}

#[test]
fn trust_engine_respects_clamp_and_weekly_cap_under_random_deltas() {
    let mut rng = SplitMix64::new(base_seed(0x0720_57ee));
    for _ in 0..case_count(200) {
        let mut record = TrustEngine::new_user(USERS[0], Timestamp(0));
        let mut now = Timestamp(0);
        let mut week_start_trust = record.trust();
        let mut current_week = now.week_index();
        for _ in 0..rng.below(60) {
            // Deltas in −5.0 .. +7.0, half-point steps; jumps of 0–10 days.
            let delta = rng.below(25) as f64 * 0.5 - 5.0;
            now = Timestamp(now.0 + rng.below(10) * 86_400);
            if now.week_index() != current_week {
                current_week = now.week_index();
                week_start_trust = record.trust();
            }
            let before = record.trust();
            let applied = TrustEngine::apply_delta(&mut record, delta, now);
            assert!(
                (MIN_TRUST..=MAX_TRUST).contains(&record.trust()),
                "trust {} escaped [{MIN_TRUST}, {MAX_TRUST}]",
                record.trust()
            );
            assert!(
                (record.trust() - before - applied).abs() < 1e-9,
                "apply_delta return value must equal the actual change"
            );
            assert!(
                record.trust() - week_start_trust <= WEEKLY_TRUST_GROWTH_CAP + 1e-9,
                "weekly growth {} exceeds the +{WEEKLY_TRUST_GROWTH_CAP} cap",
                record.trust() - week_start_trust
            );
        }
    }
}

#[test]
fn max_reachable_is_monotone_and_clamped() {
    let mut previous = 0.0;
    for weeks in 0..200 {
        let reachable = TrustEngine::max_reachable(weeks);
        assert!(reachable >= previous, "max_reachable must be monotone in account age");
        assert!(reachable <= MAX_TRUST);
        previous = reachable;
    }
    // Long-lived accounts saturate at the ceiling.
    assert_eq!(TrustEngine::max_reachable(10_000), MAX_TRUST);
    // Sanity: the constant relationship from the paper's model — one week
    // of membership buys at most one cap's worth of growth.
    assert!(TrustEngine::max_reachable(1) <= MIN_TRUST + 2.0 * WEEKLY_TRUST_GROWTH_CAP);
}

// ---------------------------------------------------------------------
// Observability histogram (crates/obs): the log-linear histogram must
// classify *arbitrary* u64 samples without losing any, keep its bucket
// walk monotone, bound every quantile it reports, and merge like the
// commutative monoid the sharded exposition assumes it is.
// ---------------------------------------------------------------------

/// A u64 with a random magnitude: raw 64-bit draws alone almost never
/// exercise the low buckets, so shift by a random amount first.
fn arbitrary_sample(rng: &mut SplitMix64) -> u64 {
    let shift = rng.below(64) as u32;
    rng.next_u64() >> shift
}

#[test]
fn histogram_buckets_are_monotone_and_lose_no_samples() {
    use softrep_obs::{Histogram, HistogramSnapshot};
    let base = base_seed(0x0b5_0001);
    for case in 0..case_count(200) {
        let mut rng = SplitMix64::new(base.wrapping_add(case as u64));
        let n = (rng.below(200) + 1) as usize;
        let hist = Histogram::new();
        let mut expected_sum = 0u64;
        let mut max = 0u64;
        for _ in 0..n {
            let v = arbitrary_sample(&mut rng);
            expected_sum = expected_sum.wrapping_add(v);
            max = max.max(v);
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count() as usize, n, "samples lost or double-counted");
        assert_eq!(snap.sum(), expected_sum, "sum drifted from the samples");
        // The cumulative walk is sorted by bound and non-decreasing in
        // count, ends exactly at n, and every sample's bucket bound holds
        // the sample (bound_of(v) >= v — the readout never understates).
        let walk = snap.cumulative_buckets();
        for pair in walk.windows(2) {
            assert!(pair[0].0 < pair[1].0, "bucket bounds out of order: {walk:?}");
            assert!(pair[0].1 <= pair[1].1, "cumulative count decreased: {walk:?}");
        }
        assert_eq!(walk.last().map(|&(_, c)| c), Some(n as u64));
        assert!(HistogramSnapshot::bound_of(max) >= max);
    }
}

#[test]
fn histogram_quantiles_bound_the_true_order_statistics() {
    use softrep_obs::{Histogram, HistogramSnapshot};
    let base = base_seed(0x0b5_0002);
    for case in 0..case_count(200) {
        let mut rng = SplitMix64::new(base.wrapping_add(case as u64));
        let n = (rng.below(300) + 1) as usize;
        let hist = Histogram::new();
        let mut samples: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = arbitrary_sample(&mut rng);
            samples.push(v);
            hist.record(v);
        }
        samples.sort_unstable();
        let snap = hist.snapshot();
        for &q in &[0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n as u64) as usize;
            let true_value = samples[rank - 1];
            let reported = snap.quantile(q);
            // The readout is the upper bound of the bucket holding the
            // rank-th sample: never below the true order statistic, and
            // no looser than that bucket's own bound.
            assert!(
                reported >= true_value,
                "q={q}: reported {reported} < true {true_value} (seed case {case})"
            );
            assert!(
                reported <= HistogramSnapshot::bound_of(true_value),
                "q={q}: reported {reported} overshoots the bucket bound of {true_value}"
            );
        }
        // Degenerate q is clamped, not misread.
        assert_eq!(snap.quantile(-1.0), snap.quantile(0.0));
        assert_eq!(snap.quantile(2.0), snap.quantile(1.0));
    }
}

#[test]
fn histogram_merge_is_associative_commutative_with_identity() {
    use softrep_obs::{Histogram, HistogramSnapshot};
    let base = base_seed(0x0b5_0003);
    for case in 0..case_count(200) {
        let mut rng = SplitMix64::new(base.wrapping_add(case as u64));
        let shard = |rng: &mut SplitMix64| {
            let hist = Histogram::new();
            for _ in 0..rng.below(60) {
                hist.record(arbitrary_sample(rng));
            }
            hist.snapshot()
        };
        let (a, b, c) = (shard(&mut rng), shard(&mut rng), shard(&mut rng));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)), "merge is not associative");
        assert_eq!(a.merge(&b), b.merge(&a), "merge is not commutative");
        let empty = HistogramSnapshot::empty();
        assert_eq!(a.merge(&empty), a, "empty is not a right identity");
        assert_eq!(empty.merge(&a), a, "empty is not a left identity");
        // Merging is lossless: totals add up.
        let merged = a.merge(&b);
        assert_eq!(merged.count(), a.count() + b.count());
    }
}

// ---------------------------------------------------------------------
// Crash-recovery property: single-fault schedules (DESIGN.md §13)
// ---------------------------------------------------------------------

/// Random workloads under random single-fault `SimVfs` schedules: every
/// storage operation either succeeds or returns a typed error (the fault
/// never panics), and reopening the durable image after a crash at a
/// random point recovers a gapless, batch-atomic prefix containing every
/// batch whose apply was confirmed durable before the crash.
#[test]
fn single_fault_crash_schedules_recover_every_committed_batch() {
    use std::sync::Arc;

    use softwareputation::storage::failpoint::FailAction;
    use softwareputation::storage::{
        durable_image_at, CrashStyle, DurabilityMode, Fault, SimVfs, Store, StoreOptions,
        WriteBatch,
    };

    #[path = "support/tempdir.rs"]
    mod tempdir;
    use tempdir::TempDir;

    const TREE_A: &str = "prop_a";
    const TREE_B: &str = "prop_b";
    const SITES: [&str; 6] =
        ["vfs.append", "vfs.sync", "vfs.write", "vfs.rename", "vfs.remove", "vfs.create"];

    let key = |i: u64| format!("key-{i:04}").into_bytes();
    let value = |i: u64| format!("value-{i:04}").into_bytes();

    let cases = case_count(60);
    let base = base_seed(0xfa17_c4a5);
    let dir = TempDir::new("prop-crash");
    for case in 0..cases {
        let seed = base.wrapping_add(case as u64);
        let mut rng = SplitMix64::new(seed);
        let ctx = |detail: &str| {
            format!(
                "case {case} (replay with SOFTREP_PROP_SEED={seed} SOFTREP_PROP_CASES=1): {detail}"
            )
        };

        // One fault, armed after open so the initial recovery is clean.
        let site = SITES[rng.below(SITES.len() as u64) as usize];
        let fault = if rng.chance(50) { Fault::Torn } else { Fault::Err };
        let trigger = rng.below(14);

        let vfs = SimVfs::new();
        let store = Store::open_with_vfs(
            "/sim/prop-crash",
            StoreOptions { durability: DurabilityMode::Always, shards: 2 },
            Arc::new(vfs.clone()),
        )
        .unwrap_or_else(|e| panic!("{}", ctx(&format!("pristine open failed: {e}"))));
        vfs.failpoints().set(site, FailAction::Nth(fault, trigger));

        // Random workload: numbered two-tree batches with syncs and
        // compactions mixed in. Everything may fail (typed) once the
        // fault trips; committed = the applies that returned Ok.
        let batches = rng.below(14) + 6;
        let mut committed_at: Vec<(u64, usize)> = Vec::new();
        for i in 0..batches {
            let mut batch = WriteBatch::new();
            batch.put(TREE_A, key(i), value(i));
            batch.put(TREE_B, key(i), value(i));
            if store.apply(&batch).is_ok() {
                // `Always` mode: Ok means group-commit durable.
                committed_at.push((i, vfs.durable_site_count()));
            }
            if rng.chance(15) {
                let _ = store.sync();
            }
            if rng.chance(15) {
                let _ = store.compact();
            }
        }
        drop(store);

        // Crash at a random durable site with a random style, or at the
        // very end (every durable site applied).
        let log = vfs.event_log();
        let sites = vfs.durable_site_count();
        let k = rng.below(sites as u64 + 1) as usize;
        let style = match rng.below(3) {
            0 => CrashStyle::DurableOnly,
            1 => CrashStyle::TornHalf,
            _ => CrashStyle::AllPending,
        };
        let image = durable_image_at(&log, k, style);

        let _ = std::fs::remove_dir_all(dir.path());
        std::fs::create_dir_all(dir.path()).expect("recreate materialization dir");
        for (path, bytes) in &image {
            let name = path.file_name().expect("image paths have file names");
            std::fs::write(dir.path().join(name), bytes).expect("write image file");
        }

        let detail =
            format!("fault {site}={fault:?}@{trigger}, crash at site {k}/{sites} style {style:?}");
        let store = Store::open(dir.path())
            .unwrap_or_else(|e| panic!("{}", ctx(&format!("{detail}: recovery failed: {e}"))));
        let mut recovered = 0u64;
        for i in 0..batches {
            match (store.get(TREE_A, &key(i)), store.get(TREE_B, &key(i))) {
                (Some(av), Some(bv)) => {
                    assert_eq!(av, value(i), "{}", ctx(&format!("{detail}: batch {i} corrupt")));
                    assert_eq!(bv, value(i), "{}", ctx(&format!("{detail}: batch {i} corrupt")));
                    assert_eq!(recovered, i, "{}", ctx(&format!("{detail}: gap before batch {i}")));
                    recovered += 1;
                }
                (None, None) => {}
                (a, b) => panic!(
                    "{}",
                    ctx(&format!(
                        "{detail}: half-applied batch {i} ({TREE_A}={} {TREE_B}={})",
                        a.is_some(),
                        b.is_some()
                    ))
                ),
            }
        }
        let required = committed_at.iter().filter(|&&(_, at)| at <= k).count() as u64;
        assert!(
            recovered >= required,
            "{}",
            ctx(&format!(
                "{detail}: lost committed batches — {recovered} recovered, {required} required"
            ))
        );
    }
}

// ---------------------------------------------------------------------
// Replication property: gapless applied prefix (DESIGN.md §15)
// ---------------------------------------------------------------------

/// Random primary workloads tailed under random kill/reconnect schedules:
/// pages cut mid-apply (a killed replica), stale resubscribes (a lost
/// response redelivered), replica and primary reopens, and compactions
/// forcing snapshot bootstraps. After every step the replica's applied
/// watermark `w` must identify a **gapless prefix**: its user-visible
/// contents equal the fold of the primary's committed batches `1..=w`,
/// `w` never exceeds the primary's committed sequence, and never
/// regresses. At quiesce the replica drains to full byte equality.
#[test]
fn replica_watermark_is_always_a_gapless_prefix_under_random_schedules() {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use softwareputation::storage::replication::{
        applied_watermark, apply_replicated, install_snapshot,
    };
    use softwareputation::storage::{
        DurabilityMode, ReplRead, SimVfs, Store, StoreOptions, WriteBatch,
    };

    /// One committed primary batch, mirrored test-side so the expected
    /// replica state at any watermark can be refolded exactly.
    type Op = (String, Vec<u8>, Option<Vec<u8>>);

    fn open(vfs: &SimVfs, path: &str) -> Store {
        Store::open_with_vfs(
            path,
            StoreOptions { durability: DurabilityMode::Os, shards: 2 },
            Arc::new(vfs.clone()),
        )
        .expect("sim open")
    }

    /// The replica's user-visible contents as a flat map.
    fn contents(store: &Store) -> BTreeMap<(String, Vec<u8>), Vec<u8>> {
        let mut map = BTreeMap::new();
        for name in store.tree_names() {
            if name.starts_with("__repl") {
                continue;
            }
            for (key, value) in store.scan_all(&name) {
                map.insert((name.clone(), key), value);
            }
        }
        map
    }

    /// The expected contents after applying committed batches `1..=w`.
    fn fold(log: &[Vec<Op>], w: u64) -> BTreeMap<(String, Vec<u8>), Vec<u8>> {
        let mut map = BTreeMap::new();
        for ops in log.iter().take(w as usize) {
            for (tree, key, value) in ops {
                match value {
                    Some(v) => {
                        map.insert((tree.clone(), key.clone()), v.clone());
                    }
                    None => {
                        map.remove(&(tree.clone(), key.clone()));
                    }
                }
            }
        }
        map
    }

    let cases = case_count(40);
    let base = base_seed(0x9e91_ca7e);
    for case in 0..cases {
        let seed = base.wrapping_add(case as u64);
        let mut rng = SplitMix64::new(seed);
        let ctx = |step: usize, detail: &str| {
            format!(
                "case {case} step {step} (replay with SOFTREP_PROP_SEED={seed} \
                 SOFTREP_PROP_CASES=1): {detail}"
            )
        };

        let primary_vfs = SimVfs::new();
        let replica_vfs = SimVfs::new();
        let mut primary = open(&primary_vfs, "/sim/repl-prop-p");
        let mut replica = open(&replica_vfs, "/sim/repl-prop-r");

        // The committed log, mirrored op-for-op: log[i] is batch seq i+1.
        let mut log: Vec<Vec<Op>> = Vec::new();
        let mut writes = 0usize;

        let steps = (rng.below(60) + 40) as usize;
        for step in 0..steps {
            let w_before = applied_watermark(&replica);
            match rng.below(100) {
                // Mixed write on the primary (put / delete / multi-op).
                0..=44 => {
                    let tree = ["alpha", "beta", "gamma"][rng.below(3) as usize].to_string();
                    let key = format!("k{}", rng.below(40)).into_bytes();
                    let mut ops: Vec<Op> = Vec::new();
                    if rng.chance(20) && writes > 0 {
                        primary.delete(&tree, key.clone()).expect("delete");
                        ops.push((tree, key, None));
                    } else if rng.chance(15) {
                        let mut batch = WriteBatch::new();
                        for j in 0..(rng.below(4) + 2) {
                            let k = format!("k{}-{j}", rng.below(40)).into_bytes();
                            let v = vec![b'm'; (rng.below(60) + 1) as usize];
                            batch.put(&tree, k.clone(), v.clone());
                            ops.push((tree.clone(), k, Some(v)));
                        }
                        primary.apply(&batch).expect("apply");
                    } else {
                        let v = vec![b'v'; (rng.below(120) + 1) as usize];
                        primary.put(&tree, key.clone(), v.clone()).expect("put");
                        ops.push((tree, key, Some(v)));
                    }
                    log.push(ops);
                    writes += 1;
                }
                // Poll a page with random caps; apply a random prefix of
                // it (a kill mid-page leaves the rest undelivered).
                45..=69 => {
                    let w = applied_watermark(&replica);
                    let max_entries = (rng.below(6) + 1) as usize;
                    let max_bytes = [32usize, 256, 4096][rng.below(3) as usize];
                    match primary.replication_read(w, max_entries, max_bytes).expect("read") {
                        ReplRead::Entries { entries, .. } => {
                            let cut = if rng.chance(25) {
                                rng.below(entries.len().max(1) as u64) as usize
                            } else {
                                entries.len()
                            };
                            for e in entries.iter().take(cut) {
                                apply_replicated(&replica, e)
                                    .unwrap_or_else(|e| panic!("{}", ctx(step, &e.to_string())));
                            }
                        }
                        ReplRead::SnapshotNeeded { .. } => {
                            let (_, bytes) = primary.export_snapshot();
                            install_snapshot(&replica, &bytes)
                                .unwrap_or_else(|e| panic!("{}", ctx(step, &e.to_string())));
                        }
                    }
                }
                // Stale resubscribe: a lost response makes the replica
                // re-request from an old watermark; redelivered entries
                // at or below the real watermark must be skipped.
                70..=77 => {
                    let w = applied_watermark(&replica).saturating_sub(rng.below(5));
                    if let ReplRead::Entries { entries, .. } =
                        primary.replication_read(w, 8, 4096).expect("stale read")
                    {
                        for e in &entries {
                            apply_replicated(&replica, e)
                                .unwrap_or_else(|e| panic!("{}", ctx(step, &e.to_string())));
                        }
                    }
                }
                // Replica crash + recovery.
                78..=85 => {
                    drop(replica);
                    replica = open(&replica_vfs, "/sim/repl-prop-r");
                }
                // Primary crash + recovery (sequence numbering must
                // resume exactly).
                86..=92 => {
                    drop(primary);
                    primary = open(&primary_vfs, "/sim/repl-prop-p");
                    assert_eq!(
                        primary.committed_seq(),
                        log.len() as u64,
                        "{}",
                        ctx(step, "primary ledger diverged from the committed log on reopen")
                    );
                }
                // Primary compaction: retires the log suffix, so lagging
                // subscribers must be told to bootstrap.
                _ => {
                    primary.compact().expect("compact");
                }
            }

            // The invariant, after every step.
            let w = applied_watermark(&replica);
            assert!(
                w <= primary.committed_seq(),
                "{}",
                ctx(step, &format!("watermark {w} beyond committed {}", primary.committed_seq()))
            );
            assert!(
                w >= w_before || w_before == 0,
                "{}",
                ctx(step, &format!("watermark regressed {w_before} -> {w}"))
            );
            assert_eq!(
                contents(&replica),
                fold(&log, w),
                "{}",
                ctx(step, &format!("contents are not the gapless prefix 1..={w}"))
            );
        }

        // Quiesce: drain to full equality.
        let mut guard = 0;
        loop {
            let w = applied_watermark(&replica);
            if w == primary.committed_seq() {
                break;
            }
            guard += 1;
            assert!(guard < 10_000, "case {case} seed {seed}: drain did not converge");
            match primary.replication_read(w, 64, 1 << 20).expect("drain read") {
                ReplRead::Entries { entries, .. } => {
                    for e in &entries {
                        apply_replicated(&replica, e).expect("drain apply");
                    }
                }
                ReplRead::SnapshotNeeded { .. } => {
                    let (_, bytes) = primary.export_snapshot();
                    install_snapshot(&replica, &bytes).expect("drain install");
                }
            }
        }
        assert_eq!(
            primary.content_dump(),
            replica.content_dump(),
            "case {case} seed {seed}: stores must be byte-identical at quiesce"
        );
    }
}
