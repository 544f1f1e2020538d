//! Failpoint-driven fault-injection harness: schedule-exploration tests.
//!
//! Only compiled with `--features failpoints`. Every test follows the
//! same discipline as `tests/serving.rs`: run a workload under an
//! injected fault schedule, then hold the observed answers (and any
//! recovered state) **bitwise-equal** to a quiesced oracle replay — or
//! to a typed fail-stop error. Faults may change *when* things happen
//! (a delayed swap, an oversized batch, a re-routed push); they must
//! never change *what* an acknowledged answer is.
//!
//! The failpoint registry is process-global, so every test serializes
//! on [`serial`]. Schedules derive deterministically from a seed
//! ([`Schedule::random`]): a failing case replays from the seed alone,
//! and the printed `site=spec;…` form feeds straight into
//! `polyfit-cli serve --failpoint`.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

use proptest::prelude::*;

use polyfit_suite::exact::dataset::Record;
use polyfit_suite::polyfit::failpoint::{self, Schedule};
use polyfit_suite::polyfit::prelude::*;
use polyfit_suite::polyfit::wal as pwal;
use polyfit_suite::polyfit::{ShardConfig, ShardHandle};

/// One registry, many tests: take this before touching failpoints. A
/// panicking test (several tests *expect* panics) must not wedge the
/// rest, so poisoning is ignored.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarm every site on scope exit — including unwinds — so one test's
/// schedule can never leak into the next.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        failpoint::reset();
    }
}

fn base_records(n: usize) -> Vec<Record> {
    (0..n).map(|i| Record::new(i as f64 * 0.5 - 100.0, 1.0 + (i % 3) as f64)).collect()
}

fn capped_config() -> PolyFitConfig {
    PolyFitConfig { max_segment_len: Some(96), ..PolyFitConfig::default() }
}

fn fresh_wal_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join("polyfit-failpoint-tests").join(format!("{tag}-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic update stream: seed-free, so the *schedule* is the
/// only random input of a case.
fn update_stream(n: usize) -> Vec<(bool, f64, f64)> {
    (0..n)
        .map(|i| {
            let k = (i as f64 * 37.0) % 280.0 - 140.0;
            let m = 0.5 + (i % 7) as f64;
            (i % 5 != 3, k, m)
        })
        .collect()
}

/// Bitwise probe grid over the workload's key window.
fn assert_bitwise_equal(a: &DynamicPolyFitSum, b: &DynamicPolyFitSum) -> Result<(), String> {
    for s in 0..40 {
        let lo = -170.0 + s as f64 * 8.5;
        for span in [0.0, 5.5, 63.0, 400.0] {
            let (x, y) = (a.query(lo, lo + span), b.query(lo, lo + span));
            if x.to_bits() != y.to_bits() {
                return Err(format!("({lo}, {}]: {x} vs {y}", lo + span));
            }
        }
    }
    Ok(())
}

/// Quiesced oracle: replay `upto` updates, staging at the logged points
/// and blocking-compacting the first `swaps` of them (a staged-but-
/// unswapped rebuild is bitwise-transparent — the PR 3 contract).
fn replay_oracle(
    n_base: usize,
    delta: f64,
    limit: usize,
    updates: &[Update],
    stage_log: &[u64],
    upto: u64,
    swaps: u64,
) -> DynamicPolyFitSum {
    let mut o =
        DynamicPolyFitSum::new(base_records(n_base), delta, capped_config(), limit).unwrap();
    o.set_step_budget(0);
    let mut si = 0usize;
    for (i, &u) in updates.iter().take(upto as usize).enumerate() {
        match u {
            Update::Insert { key, measure } => o.insert(key, measure),
            Update::Delete { key, measure } => o.delete(key, measure),
        }
        while si < stage_log.len() && stage_log[si] <= (i + 1) as u64 {
            if (si as u64) < swaps {
                assert!(o.begin_compaction(), "logged stage {si} must have work");
                o.compact_now();
            }
            si += 1;
        }
    }
    o
}

// ---------------------------------------------------------------------------
// Spec/schedule plumbing through the public surface
// ---------------------------------------------------------------------------

#[test]
fn schedules_roundtrip_through_display_and_parse() {
    let _g = serial();
    for seed in 0..64u64 {
        let s = Schedule::random(
            seed,
            &[
                ("dynamic.step.skip", &["trigger"]),
                ("shard.fence.skip", &["trigger"]),
                ("wal.fsync.err", &["error"]),
                ("shard.worker.panic", &["panic", "delay(2)"]),
            ],
        );
        let text = s.to_string();
        let back = Schedule::parse(&text).unwrap();
        assert_eq!(s, back, "seed {seed}: '{text}' did not roundtrip");
        assert!(!s.0.is_empty() && s.0.len() <= 3);
    }
}

// ---------------------------------------------------------------------------
// Dynamic layer: compaction aborted / delayed / starved, swap panics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Non-fatal dynamic-layer schedules: staging aborts, skipped and
    /// starved rebuild steps, and a delayed swap may postpone compaction
    /// arbitrarily — but the index must stay bitwise-equal to the
    /// quiesced oracle replay of what *actually* happened (the stage
    /// log + swap count are the provenance).
    #[test]
    fn dynamic_schedules_stay_bitwise_equal(seed in 0u64..u64::MAX) {
        let _g = serial();
        let _d = Disarm;
        let schedule = Schedule::random(seed, &[
            ("dynamic.stage.abort", &["trigger"]),
            ("dynamic.step.skip", &["trigger"]),
            ("dynamic.step.starve", &["trigger"]),
            ("dynamic.swap.panic", &["delay(1)"]),
        ]);
        schedule.install().unwrap();

        let mut live =
            DynamicPolyFitSum::new(base_records(300), 8.0, capped_config(), 10).unwrap();
        live.set_step_budget(0);
        let stream = update_stream(40);
        let mut updates = Vec::new();
        let mut stage_log: Vec<u64> = Vec::new();
        for (i, &(ins, k, m)) in stream.iter().enumerate() {
            if ins {
                live.insert(k, m);
                updates.push(Update::Insert { key: k, measure: m });
            } else {
                live.delete(k, m);
                updates.push(Update::Delete { key: k, measure: m });
            }
            if i % 6 == 5 {
                if live.begin_compaction() {
                    stage_log.push((i + 1) as u64);
                }
                live.step_compaction(24);
            }
        }
        // Coverage proof first (reset clears the counters): every armed
        // site was actually evaluated during the live run. The swap site
        // is exempt — a schedule that aborts or starves compaction
        // legitimately never reaches a swap (the dedicated swap-panic
        // test covers it deterministically).
        for (site, _) in &schedule.0 {
            prop_assert!(
                site == "dynamic.swap.panic" || failpoint::hits(site) > 0,
                "site {} never hit", site
            );
        }
        // The oracle replays quiesced — injection must not reach it.
        failpoint::reset();
        let swaps = live.rebuilds() as u64;
        let oracle = replay_oracle(
            300, 8.0, 10, &updates, &stage_log, updates.len() as u64, swaps,
        );
        prop_assert_eq!(live.rebuilds(), oracle.rebuilds(), "schedule {}", schedule);
        if let Err(msg) = assert_bitwise_equal(&live, &oracle) {
            prop_assert!(false, "schedule '{}': {}", schedule, msg);
        }
    }
}

/// A panic at the swap instant — after the rebuild completed, before
/// the in-memory install and its WAL checkpoint. Recovery must land on
/// the pre-swap journal, bitwise-equal to a never-crashed control that
/// simply never compacted there.
#[test]
fn swap_panic_recovers_bitwise_to_preswap_journal() {
    let _g = serial();
    let _d = Disarm;
    let dir = fresh_wal_dir("swap-panic");
    let mut live = DynamicPolyFitSum::new(base_records(300), 8.0, capped_config(), 10).unwrap();
    live.set_step_budget(0);
    live.attach_wal(&dir, "t", SyncPolicy::EveryUpdate, 0).unwrap();
    let stream = update_stream(30);
    let mut applied = Vec::new();
    let mut completed_swaps: Vec<u64> = Vec::new();
    for (i, &(ins, k, m)) in stream.iter().enumerate() {
        if ins {
            live.insert(k, m);
            applied.push(Update::Insert { key: k, measure: m });
        } else {
            live.delete(k, m);
            applied.push(Update::Delete { key: k, measure: m });
        }
        if i == 11 && live.begin_compaction() {
            live.compact_now(); // a completed, checkpointed swap first
            completed_swaps.push(applied.len() as u64);
        }
        if i == 23 {
            failpoint::configure("dynamic.swap.panic", "once:panic").unwrap();
            if live.begin_compaction() {
                let died = catch_unwind(AssertUnwindSafe(|| live.compact_now()));
                assert!(died.is_err(), "armed swap must panic");
            }
        }
    }
    assert_eq!(failpoint::fired("dynamic.swap.panic"), 1);
    failpoint::reset();
    let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
    assert_eq!(report.head_seq, applied.len() as u64, "every acked update survives");
    // Control: the same stream with only the *completed* swap — the
    // panicked one never checkpointed, so recovery must not see it.
    let oracle = replay_oracle(
        300,
        8.0,
        10,
        &applied,
        &completed_swaps,
        applied.len() as u64,
        completed_swaps.len() as u64,
    );
    assert_eq!(rec.rebuilds(), oracle.rebuilds());
    assert_bitwise_equal(&rec, &oracle).unwrap();
}

// ---------------------------------------------------------------------------
// Engine with a WAL: stalls, oversized batches, skipped fences, worker death
// ---------------------------------------------------------------------------

/// A one-shard engine journaling to `dir` under `policy`, recording its
/// history so a [`ShardedOracle`] can replay every answer.
fn wal_engine(
    dir: &Path,
    buffer_limit: usize,
    compaction_budget: usize,
    policy: SyncPolicy,
) -> ShardedServer {
    let cfg = ShardConfig {
        deadline: Duration::from_micros(30),
        max_batch: 4,
        compaction_budget,
        buffer_limit,
        record_history: true,
        ..ShardConfig::default()
    };
    ShardedServer::start_with_wal(base_records(300), 8.0, capped_config(), cfg, dir, policy)
        .unwrap()
}

/// Recover a one-shard WAL with compaction off, so the recovered shard
/// serves exactly the state its journal holds.
fn recover_frozen(dir: &Path) -> (ShardedServer, RecoveryReport) {
    let cfg = ShardConfig { compaction_budget: 0, ..ShardConfig::default() };
    let (server, mut reports) = ShardedServer::recover(dir, cfg, SyncPolicy::Batch).unwrap();
    assert_eq!(reports.len(), 1, "one shard recovered");
    (server, reports.remove(0).1)
}

/// Bitwise probe grid over the workload's key window.
fn probe_grid(mut answer: impl FnMut(f64, f64) -> ShardServed) -> Vec<ShardServed> {
    let mut out = Vec::new();
    for s in 0..40 {
        let lo = -170.0 + s as f64 * 8.5;
        for span in [0.0, 5.5, 63.0, 400.0] {
            out.push(answer(lo, lo + span));
        }
    }
    out
}

fn bits(served: &[ShardServed]) -> Vec<Option<u64>> {
    served.iter().map(|s| s.value().map(f64::to_bits)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Non-fatal schedules over a one-shard engine with a WAL attached:
    /// stalled write windows (the queue absorbs the backlog), windows
    /// that ignore `max_batch`, and fence-and-publish steps withheld,
    /// then forced. Every served answer must replay bitwise through the
    /// [`ShardedOracle`], and recovery from the WAL must hold every
    /// update and answer like the shutdown state — the withheld publish
    /// was delayed, never elided.
    #[test]
    fn serve_schedules_stay_bitwise_equal(seed in 0u64..u64::MAX) {
        let _g = serial();
        let _d = Disarm;
        let schedule = Schedule::random(seed, &[
            ("shard.worker.panic", &["delay(1)", "delay(2)"]),
            ("shard.batch.oversize", &["trigger"]),
            ("shard.fence.skip", &["trigger"]),
        ]);
        schedule.install().unwrap();

        let dir = fresh_wal_dir("serve-sched");
        let server = wal_engine(&dir, 10, 48, SyncPolicy::Batch);
        let (tx, rx) = mpsc::channel::<(f64, f64)>();
        let qh = server.handle();
        let client = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for (lo, hi) in rx {
                seen.push(qh.query_served(lo, hi));
            }
            seen
        });
        let writer = server.handle();
        let stream = update_stream(36);
        let mut own = Vec::new();
        for (i, &(ins, k, m)) in stream.iter().enumerate() {
            if ins {
                writer.insert(k, m).unwrap();
            } else {
                writer.delete(k, m).unwrap();
            }
            if i % 4 == 0 {
                let lo = -150.0 + (i as f64 * 11.0) % 280.0;
                tx.send((lo, lo + 60.0)).unwrap();
            }
            // The writer reads its own writes: each read makes the
            // window that holds its write due to publish — the publish
            // `shard.fence.skip` withholds.
            if i % 2 == 1 {
                own.push(writer.query_served(k - 30.0, k + 30.0));
            }
        }
        drop(tx);
        let mut observed = client.join().expect("client thread panicked");
        observed.extend(own);
        observed.extend(probe_grid(|lo, hi| writer.query_served(lo, hi)));
        // Coverage proof first (reset clears the counters): every armed
        // site was evaluated during the live run, and an armed
        // `shard.fence.skip` actually withheld a publish.
        for (site, _) in &schedule.0 {
            prop_assert!(failpoint::hits(site) > 0, "site {} never hit", site);
        }
        if schedule.arms_site("shard.fence.skip") {
            prop_assert!(failpoint::fired("shard.fence.skip") > 0,
                "schedule '{}': no publish was withheld", schedule);
        }
        // The oracle replays quiesced — injection must not reach it.
        failpoint::reset();
        let oracle = server.oracle();
        for (i, served) in observed.iter().enumerate() {
            prop_assert!(!served.poisoned, "schedule '{}': query {} poisoned", schedule, i);
            prop_assert!(
                oracle.matches(served),
                "schedule '{}': query {}: {:?} vs {:?}",
                schedule, i, served.answer, oracle.expected(served)
            );
        }
        server.shutdown();
        // Durability: each worker's final publish froze the state its
        // journal must cover, and the fence can be delayed, never lost.
        let expected = bits(&probe_grid(|lo, hi| writer.snapshot_query(lo, hi)));
        let (recovered, report) = recover_frozen(&dir);
        prop_assert_eq!(report.head_seq, stream.len() as u64,
            "schedule '{}': shutdown must force the skipped fence", schedule);
        let handle = recovered.handle();
        let got = bits(&probe_grid(|lo, hi| handle.query_served(lo, hi)));
        prop_assert!(got == expected, "schedule '{}': recovery diverged", schedule);
        recovered.shutdown();
    }
}

/// Worker death with a drained batch in hand — the worst crash point of
/// the write path: a window was accepted but never applied or journaled.
/// Later requests poison (never acknowledge), and recovery replays
/// exactly the synced prefix — every update the worker applied — bitwise.
#[test]
fn drain_panic_poisons_tickets_and_recovers_synced_prefix() {
    let _g = serial();
    let _d = Disarm;
    let dir = fresh_wal_dir("drain-panic");
    let server = wal_engine(&dir, 1_000, 0, SyncPolicy::EveryUpdate);
    failpoint::configure("shard.worker.panic", "3:panic").unwrap();
    let writer = server.handle();
    let stream = update_stream(24);
    for &(ins, k, m) in &stream {
        // Once the worker dies, the fail-stop guard closes the server and
        // later writes panic by the shutdown contract — loud refusal, not
        // a silent enqueue into a dead server.
        let pushed = catch_unwind(AssertUnwindSafe(|| {
            if ins {
                writer.insert(k, m).unwrap();
            } else {
                writer.delete(k, m).unwrap();
            }
        }));
        if pushed.is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(failpoint::fired("shard.worker.panic"), 1, "the armed panic fired");
    // A query against the dead engine resolves poisoned: never a hang,
    // never a wrong answer.
    let served = writer.query_served(-50.0, 50.0);
    assert!(served.poisoned && served.answer.is_none(), "{served:?}");
    let oracle = server.oracle();
    server.shutdown(); // joins the dead worker tolerantly — must return
    failpoint::reset();
    let applied = oracle.history().logs.get(&0).map_or(0, |log| log.updates.len());
    assert!(applied < stream.len(), "the dead worker must stop the stream");
    let (recovered, report) = recover_frozen(&dir);
    assert_eq!(report.head_seq as usize, applied, "every applied update was synced");
    let handle = recovered.handle();
    for (i, served) in probe_grid(|lo, hi| handle.query_served(lo, hi)).iter().enumerate() {
        assert!(oracle.matches(served), "probe {i}: {served:?} vs {:?}", oracle.expected(served));
    }
    recovered.shutdown();
}

// ---------------------------------------------------------------------------
// Shard layer: rebalance races, push-failure storms, worker death
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Non-fatal shard schedules: delays stretched across every step of
    /// the split/merge protocol (cutover-to-publish window, post-close
    /// straggler window, merge handoff) and a stalled `process_batch`.
    /// Splits race live traffic the whole time; every answer must still
    /// match the [`ShardedOracle`] bitwise.
    #[test]
    fn shard_schedules_stay_bitwise_equal(seed in 0u64..u64::MAX) {
        let _g = serial();
        let _d = Disarm;
        let schedule = Schedule::random(seed, &[
            ("shard.split.pre_publish", &["delay(2)"]),
            ("shard.split.post_close", &["delay(2)"]),
            ("shard.merge.handoff", &["delay(2)"]),
            ("shard.worker.panic", &["delay(1)"]),
        ]);
        schedule.install().unwrap();

        let cfg = ShardConfig {
            shards: 1,
            deadline: Duration::from_micros(30),
            max_batch: 8,
            compaction_budget: 48,
            buffer_limit: 12,
            split_threshold: 340,
            max_shards: 6,
            record_history: true,
            ..ShardConfig::default()
        };
        let server =
            ShardedServer::start(base_records(600), 8.0, capped_config(), cfg).unwrap();
        let writer = server.handle();
        let mut observed = Vec::new();
        for (i, &(ins, k, m)) in update_stream(48).iter().enumerate() {
            if ins {
                writer.insert(k, m).unwrap();
            } else {
                writer.delete(k, m).unwrap();
            }
            if i % 4 == 0 {
                let lo = -150.0 + (i as f64 * 13.0) % 280.0;
                observed.push((lo, lo + 80.0, writer.query_served(lo, lo + 80.0)));
            }
        }
        // Domain-spanning probes fold parts from every shard of whatever
        // layout the races produced.
        for &(lo, hi) in &[(-250.0, 300.0), (-40.0, 40.0), (f64::NEG_INFINITY, 0.0)] {
            observed.push((lo, hi, writer.query_served(lo, hi)));
        }
        let oracle = server.oracle();
        for (i, (lo, hi, served)) in observed.iter().enumerate() {
            prop_assert!(!served.poisoned,
                "schedule '{}': query {} ({}, {}] poisoned", schedule, i, lo, hi);
            prop_assert!(
                oracle.matches(served),
                "schedule '{}': query {} ({}, {}]: {:?} vs {:?}",
                schedule, i, lo, hi, served.answer, oracle.expected(served)
            );
        }
        server.shutdown();
    }
}

/// A bounded push-failure storm: every k-th enqueue is rejected as if
/// the queue had closed. Writers and straggler-forwarding must hand the
/// update back losslessly and retry — no lost update, reads that follow
/// their own writes, answers bitwise vs the oracle.
#[test]
fn push_failure_storm_loses_nothing() {
    let _g = serial();
    let _d = Disarm;
    failpoint::configure("shard.queue.push_fail", "*3:trigger").unwrap();
    let cfg = ShardConfig {
        shards: 2,
        deadline: Duration::from_micros(30),
        max_batch: 8,
        compaction_budget: 48,
        buffer_limit: 12,
        split_threshold: 340,
        max_shards: 6,
        record_history: true,
        ..ShardConfig::default()
    };
    let server = ShardedServer::start(base_records(600), 8.0, capped_config(), cfg).unwrap();
    let writer = server.handle();
    let mut observed = Vec::new();
    for (i, &(ins, k, m)) in update_stream(60).iter().enumerate() {
        if ins {
            writer.insert(k, m).unwrap();
        } else {
            writer.delete(k, m).unwrap();
        }
        if i % 5 == 0 {
            let lo = -150.0 + (i as f64 * 17.0) % 280.0;
            observed.push((lo, lo + 70.0, writer.query_served(lo, lo + 70.0)));
        }
    }
    assert!(failpoint::fired("shard.queue.push_fail") > 0, "the storm actually fired");
    let oracle = server.oracle();
    for (i, (lo, hi, served)) in observed.iter().enumerate() {
        assert!(!served.poisoned, "query {i} ({lo}, {hi}] poisoned");
        assert!(
            oracle.matches(served),
            "query {i} ({lo}, {hi}]: {:?} vs {:?}",
            served.answer,
            oracle.expected(served)
        );
    }
    server.shutdown();
}

/// Worker death mid-batch: the server must fail-stop — parked clients
/// wake with *poisoned* answers (never wrong ones, never a hang), and
/// shutdown still completes. Answers served before the death must still
/// match the oracle.
#[test]
fn worker_panic_fail_stops_poisoned_not_wrong() {
    let _g = serial();
    let _d = Disarm;
    failpoint::configure("shard.worker.panic", "4:panic").unwrap();
    let cfg = ShardConfig {
        shards: 2,
        deadline: Duration::from_micros(30),
        max_batch: 8,
        compaction_budget: 0,
        record_history: true,
        ..ShardConfig::default()
    };
    let server = ShardedServer::start(base_records(600), 8.0, capped_config(), cfg).unwrap();
    let writer = server.handle();
    let mut observed = Vec::new();
    for (i, &(ins, k, m)) in update_stream(48).iter().enumerate() {
        // After the fail-stop flips the server closed, `update` panics
        // by contract ("server has shut down") — tolerate and stop.
        let pushed = catch_unwind(AssertUnwindSafe(|| {
            if ins {
                writer.insert(k, m).unwrap();
            } else {
                writer.delete(k, m).unwrap();
            }
        }));
        if pushed.is_err() {
            break;
        }
        if i % 3 == 0 {
            let lo = -150.0 + (i as f64 * 19.0) % 280.0;
            observed.push((lo, lo + 60.0, writer.query_served(lo, lo + 60.0)));
        }
    }
    assert_eq!(failpoint::fired("shard.worker.panic"), 1, "the armed panic fired");
    // Late queries resolve (poisoned), they do not hang.
    observed.push((-250.0, 300.0, writer.query_served(-250.0, 300.0)));
    let oracle = server.oracle();
    let mut poisoned = 0usize;
    for (i, (lo, hi, served)) in observed.iter().enumerate() {
        if served.poisoned {
            assert!(served.answer.is_none(), "poisoned answers carry no value");
            poisoned += 1;
            continue;
        }
        assert!(
            oracle.matches(served),
            "query {i} ({lo}, {hi}]: {:?} vs {:?}",
            served.answer,
            oracle.expected(served)
        );
    }
    assert!(poisoned >= 1, "the in-flight window must poison, not vanish");
    server.shutdown(); // joins the dead worker tolerantly — must return
}

// ---------------------------------------------------------------------------
// WAL: injected write/fsync faults are fail-stop; recovery stays bitwise
// ---------------------------------------------------------------------------

/// fsyncgate: the first failed fsync permanently fail-stops the
/// journal. No retry, no silent success — later syncs keep failing,
/// later appends panic, and the error chain names the injection site.
#[test]
fn injected_fsync_error_is_sticky_fail_stop() {
    let _g = serial();
    let _d = Disarm;
    let dir = fresh_wal_dir("fsyncgate");
    let mut live = DynamicPolyFitSum::new(base_records(200), 8.0, capped_config(), 1_000).unwrap();
    live.set_step_budget(0);
    live.attach_wal(&dir, "t", SyncPolicy::Batch, 0).unwrap();
    live.insert(1.0, 2.0);
    live.wal_sync().unwrap(); // clean sync first: the fault is not ambient
    live.insert(2.0, 3.0);
    failpoint::configure("wal.fsync.err", "once:error").unwrap();
    let err = live.wal_sync().expect_err("armed fsync must fail");
    let io = match err {
        WalError::Io(e) => e,
        other => panic!("expected a typed I/O error, got {other}"),
    };
    assert!(failpoint::is_injected(&io), "error chain must name the injection: {io}");
    // Sticky: the failpoint fired once, but the journal stays dead.
    let err2 = live.wal_sync().expect_err("a fail-stopped journal must not retry");
    assert!(err2.to_string().contains("fail-stopped"), "got: {err2}");
    let append = catch_unwind(AssertUnwindSafe(|| live.insert(3.0, 4.0)));
    assert!(append.is_err(), "appends after fail-stop must panic, not buffer silently");
    failpoint::reset();
    // Recovery: the cleanly synced insert MUST survive. The insert whose
    // fence failed was written but never fsync-acknowledged — it may
    // survive (the write reached the file before the failed barrier) or
    // not; both are honest crash states. What fail-stop rules out is
    // acknowledging it: nothing after the failed fence was ever acked.
    let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
    assert!(
        (1..=2).contains(&report.head_seq),
        "synced prefix lost or unappended data invented: {report:?}"
    );
    assert_eq!(rec.buffered() as u64, report.head_seq);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Storage-fault schedule exploration over the whole WAL fault
    /// model: write errors, fsync errors, short (in-frame torn) writes,
    /// misdirected writes, and duplicated segment writes. Every
    /// schedule must end in one of exactly two outcomes per update —
    /// acknowledged (survives recovery bitwise) or fail-stopped (panic
    /// with a typed cause, lost like a crash) — and recovery must be
    /// bitwise-equal to replaying the surviving prefix. Position-keyed
    /// checksums turn duplicated/misdirected frames into ordinary
    /// torn-tail cuts instead of silent double-applies.
    #[test]
    fn wal_fault_schedules_recover_bitwise_prefix(seed in 0u64..u64::MAX) {
        let _g = serial();
        let _d = Disarm;
        let schedule = Schedule::random(seed, &[
            ("wal.write.err", &["error"]),
            ("wal.fsync.err", &["error"]),
            ("wal.write.short", &["error"]),
            ("wal.write.misdirect", &["trigger"]),
            ("wal.write.duplicate", &["trigger"]),
        ]);
        let dir = fresh_wal_dir("wal-sched");
        let mut live =
            DynamicPolyFitSum::new(base_records(200), 8.0, capped_config(), 1_000).unwrap();
        live.set_step_budget(0);
        live.attach_wal(&dir, "t", SyncPolicy::EveryUpdate, 0).unwrap();
        schedule.install().unwrap();
        let stream = update_stream(24);
        let mut attempted = 0usize;
        for &(ins, k, m) in &stream {
            attempted += 1;
            let ok = catch_unwind(AssertUnwindSafe(|| {
                if ins { live.insert(k, m) } else { live.delete(k, m) }
            }));
            if ok.is_err() {
                break; // fail-stop: typed panic, workload over
            }
        }
        failpoint::reset();
        let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
        let n = report.head_seq as usize;
        // Recovery yields a *prefix of the append order*, nothing
        // invented. Within that: silent faults (misdirect/duplicate) may
        // cost acked updates — that is what the fault means — and a
        // failed fence may leave its un-acked write behind (the bytes
        // reached the file before the barrier failed). Both directions
        // are honest crash states; a non-prefix is not.
        prop_assert!(
            n <= attempted,
            "schedule '{}': {} recovered > {} appended", schedule, n, attempted
        );
        let mut oracle =
            DynamicPolyFitSum::new(base_records(200), 8.0, capped_config(), 1_000).unwrap();
        oracle.set_step_budget(0);
        for &(ins, k, m) in &stream[..n] {
            if ins { oracle.insert(k, m) } else { oracle.delete(k, m) }
        }
        prop_assert_eq!(rec.buffered(), oracle.buffered(), "schedule '{}'", schedule);
        if let Err(msg) = assert_bitwise_equal(&rec, &oracle) {
            prop_assert!(false, "schedule '{}': {}", schedule, msg);
        }
        // A second recovery is clean and identical (truncate-at-
        // corruption is physical).
        let (rec2, report2) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
        prop_assert_eq!(report2.truncated_bytes, 0);
        prop_assert_eq!(report2.head_seq, report.head_seq);
        if let Err(msg) = assert_bitwise_equal(&rec2, &rec) {
            prop_assert!(false, "schedule '{}': second recovery: {}", schedule, msg);
        }
    }
}

/// Deterministic sweep for the CI grep-gate: enumerate a fixed seed
/// range, count the schedules that armed *and fired* an injected fsync
/// error, and print the tally. CI greps for a non-zero count, so the
/// fsyncgate path can never silently fall out of the explored set.
#[test]
fn fsync_error_schedules_are_explored() {
    let _g = serial();
    let _d = Disarm;
    let mut fsync_error_schedules = 0usize;
    for seed in 0..24u64 {
        let schedule = Schedule::random(
            seed,
            &[
                ("wal.write.err", &["error"]),
                ("wal.fsync.err", &["error"]),
                ("wal.write.short", &["error"]),
                ("wal.write.misdirect", &["trigger"]),
                ("wal.write.duplicate", &["trigger"]),
            ],
        );
        let dir = fresh_wal_dir("fsync-gate");
        let mut live =
            DynamicPolyFitSum::new(base_records(200), 8.0, capped_config(), 1_000).unwrap();
        live.set_step_budget(0);
        live.attach_wal(&dir, "t", SyncPolicy::EveryUpdate, 0).unwrap();
        schedule.install().unwrap();
        for &(ins, k, m) in &update_stream(16) {
            let ok = catch_unwind(AssertUnwindSafe(|| {
                if ins {
                    live.insert(k, m)
                } else {
                    live.delete(k, m)
                }
            }));
            if ok.is_err() {
                break;
            }
        }
        if schedule.arms_site("wal.fsync.err") && failpoint::fired("wal.fsync.err") > 0 {
            fsync_error_schedules += 1;
        }
        failpoint::reset();
        // Every schedule still recovers to *something* valid.
        let (_rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
        assert!(report.head_seq <= 16);
    }
    println!("injected-fsync-error schedules run: {fsync_error_schedules}");
    assert!(fsync_error_schedules >= 1, "the sweep must exercise the fsyncgate path");
}

/// The engine on top of an injected fsync error: group commit at an ack
/// point hits the dead device, the worker fail-stops (poisoned answers,
/// refused writes), and recovery yields the synced prefix — never an
/// acknowledged-but-lost update.
#[test]
fn serve_loop_fail_stops_on_injected_fsync_error() {
    let _g = serial();
    let _d = Disarm;
    let dir = fresh_wal_dir("serve-fsync");
    let server = wal_engine(&dir, 1_000, 0, SyncPolicy::Batch);
    failpoint::configure("wal.fsync.err", "2:error").unwrap();
    let writer = server.handle();
    let stream = update_stream(30);
    let mut acked = Vec::new();
    for &(ins, k, m) in &stream {
        let step = catch_unwind(AssertUnwindSafe(|| {
            if ins {
                writer.insert(k, m).unwrap();
            } else {
                writer.delete(k, m).unwrap();
            }
            // A query forces an ack-point fence for this window.
            writer.query_served(-50.0, 50.0)
        }));
        match step {
            Ok(served) if !served.poisoned => acked.push(served),
            _ => break, // fail-stopped: poisoned answer or loud refusal
        }
    }
    assert!(failpoint::fired("wal.fsync.err") >= 1);
    assert!(acked.len() < stream.len(), "the dead fence must stop the stream");
    let oracle = server.oracle();
    for (i, served) in acked.iter().enumerate() {
        assert!(oracle.matches(served), "acked answer {i} diverged from the replay");
    }
    server.shutdown(); // joins the dead worker tolerantly — must return
    failpoint::reset();
    // Every acknowledged window was fenced before its answer went out,
    // so all of them must survive; the window whose fence failed may or
    // may not (written, never acked). Nothing beyond it exists.
    let (recovered, report) = recover_frozen(&dir);
    assert!(
        (report.head_seq as usize) >= acked.len() && (report.head_seq as usize) <= stream.len(),
        "acked windows lost or unappended data invented: {} vs {} acked",
        report.head_seq,
        acked.len()
    );
    let served = recovered.handle().query_served(-50.0, 50.0);
    assert!(oracle.matches(&served), "recovered state diverged from the replay: {served:?}");
    recovered.shutdown();
}

/// Only durable state is published: a window whose fence fails is never
/// visible — not to the writer (its read resolves poisoned), and not to
/// a second handle polling `snapshot_query` while the worker dies.
#[test]
fn snapshots_never_show_an_update_whose_fence_failed() {
    let _g = serial();
    let _d = Disarm;
    const HEAVY: f64 = 1e9;
    let dir = fresh_wal_dir("durable-publish");
    let server = wal_engine(&dir, 1_000, 0, SyncPolicy::Batch);
    let writer = server.handle();
    let observer = server.handle();
    let (lo, hi) = (-200.0, 200.0);
    let base = observer.snapshot_query(lo, hi).value().unwrap();
    // Window 1 is fenced, so it is published and the writer sees it.
    writer.insert(0.25, HEAVY).unwrap();
    let first = writer.query_served(lo, hi);
    assert!(!first.poisoned);
    assert!((first.value().unwrap() - (base + HEAVY)).abs() < 1e3, "{first:?}");
    // Window 2's fence fails: the worker fail-stops before publishing.
    failpoint::configure("wal.fsync.err", "once:error").unwrap();
    let watcher = std::thread::spawn(move || {
        let mut seen = Vec::new();
        for _ in 0..400 {
            seen.push(observer.snapshot_query(lo, hi).value().unwrap());
            std::thread::sleep(Duration::from_micros(50));
        }
        seen
    });
    writer.insert(0.75, 2.0 * HEAVY).unwrap();
    let second = writer.query_served(lo, hi);
    let seen = watcher.join().expect("observer thread panicked");
    assert_eq!(failpoint::fired("wal.fsync.err"), 1, "the armed fence failed");
    assert!(second.poisoned && second.answer.is_none(), "{second:?}");
    for (i, v) in seen.iter().enumerate() {
        assert!((v - (base + HEAVY)).abs() < 1e3, "poll {i} saw unfenced state: {v}");
    }
    server.shutdown();
    failpoint::reset();
    // The failed window was written but never acknowledged: recovery may
    // or may not hold it, and holds everything before it.
    let (recovered, report) = recover_frozen(&dir);
    assert!((1..=2).contains(&report.head_seq), "head {}", report.head_seq);
    recovered.shutdown();
}

/// Read-your-writes across a split: writes that land in the splitting
/// shard's queue after its final drain (the pre-publish delay lets them
/// pile up) are forwarded to the children only after the post-close
/// delay. The writer's reads must still reflect every write — the
/// retired shard hands its stragglers' positions on to the children —
/// and replay bitwise.
#[test]
fn read_your_writes_follows_forwarded_stragglers() {
    let _g = serial();
    let _d = Disarm;
    const HEAVY: f64 = 1e6;
    failpoint::configure("shard.split.pre_publish", "delay(3)").unwrap();
    failpoint::configure("shard.split.post_close", "delay(3)").unwrap();
    let cfg = ShardConfig {
        shards: 1,
        deadline: Duration::from_micros(30),
        max_batch: 8,
        compaction_budget: 48,
        buffer_limit: 12,
        split_threshold: 340,
        max_shards: 6,
        record_history: true,
        ..ShardConfig::default()
    };
    // 300 records start under the threshold: the split fires mid-stream,
    // after about 40 inserts at fresh keys, with writes still arriving.
    let records = base_records(300);
    let base_total: f64 = records.iter().map(|r| r.measure).sum();
    let server = ShardedServer::start(records, 8.0, capped_config(), cfg).unwrap();
    let writer = server.handle();
    let mut observed = Vec::new();
    for i in 0..160usize {
        writer.insert(-99.75 + (i * 83 % 300) as f64 * 0.5, HEAVY).unwrap();
        if i % 4 == 3 {
            let served = writer.query_served(-250.0, 300.0);
            assert!(!served.poisoned, "read {i} poisoned");
            // Every write so far is in the answer: HEAVY dwarfs the
            // certificate, so a missing straggler cannot hide in it.
            let expected = base_total + (i + 1) as f64 * HEAVY;
            let cert = 16.0 * served.shards.len() as f64;
            let got = served.value().unwrap();
            assert!((got - expected).abs() <= cert + 1e-3, "read {i}: {got} vs {expected}");
            observed.push(served);
        }
    }
    assert!(server.stats().splits >= 1, "the split threshold must have fired");
    assert!(failpoint::hits("shard.split.post_close") >= 1, "the straggler window ran");
    failpoint::reset();
    let oracle = server.oracle();
    for (i, served) in observed.iter().enumerate() {
        assert!(oracle.matches(served), "read {i}: {served:?} vs {:?}", oracle.expected(served));
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The checkpointer: crash windows, faults, stalls, recovery beside it
// ---------------------------------------------------------------------------

/// A one-shard WAL engine whose checkpointer is stalled in its first
/// checkpoint (`wal.ckpt.begin=delay(stall_ms)`), with every write so far
/// acknowledged — read back by its writer — and the checkpoint swap's
/// state published, so the worker is idle: the next I/O is the
/// checkpointer's. `swaps` is the swap count the checkpoint holds.
struct Stalled {
    dir: PathBuf,
    server: ShardedServer,
    writer: ShardHandle,
    acked: u64,
    swaps: u64,
}

fn stall_first_checkpoint(tag: &str, stall_ms: u64) -> Stalled {
    failpoint::configure("wal.ckpt.begin", &format!("delay({stall_ms})")).unwrap();
    let dir = fresh_wal_dir(tag);
    let server = wal_engine(&dir, 10, 48, SyncPolicy::Batch);
    let writer = server.handle();
    for (i, &(ins, k, m)) in update_stream(2_000).iter().enumerate() {
        if ins {
            writer.insert(k, m).unwrap();
        } else {
            writer.delete(k, m).unwrap();
        }
        assert!(!writer.query_served(k - 1.0, k + 1.0).poisoned);
        if failpoint::hits("wal.ckpt.begin") > 0 {
            // One more write, read back: its publish covers the swap that
            // started the checkpoint, so that swap's fence is done.
            writer.insert(0.125, 1.0).unwrap();
            assert!(!writer.query_served(0.0, 0.25).poisoned);
            let swaps = server.stats().shards[0].rebuilds;
            return Stalled { dir, server, writer, acked: i as u64 + 2, swaps };
        }
    }
    panic!("no checkpoint started");
}

/// Poll (bounded) until `done` holds.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !done() {
        assert!(start.elapsed() < Duration::from_secs(5), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// After the checkpointer ran into `arms` (or not): one more write and
/// its read either land or find the server fail-stopped; then recovery
/// from the directory must hold every acknowledged update and answer
/// bitwise like the oracle replay. Returns whether the server
/// fail-stopped.
fn finish_checkpoint_window(s: Stalled, label: &str) -> bool {
    let Stalled { dir, server, writer, acked, .. } = s;
    let last = catch_unwind(AssertUnwindSafe(|| {
        writer.insert(0.25, 1.0).unwrap();
        writer.query_served(-50.0, 50.0)
    }));
    let fail_stopped = !matches!(&last, Ok(served) if !served.poisoned);
    let acked = acked + u64::from(!fail_stopped);
    let oracle = server.oracle();
    server.shutdown();
    failpoint::reset();
    let (recovered, report) = recover_frozen(&dir);
    assert!(
        report.head_seq >= acked && report.head_seq <= acked + 1,
        "{label}: recovered head {} vs {acked} acked",
        report.head_seq
    );
    let handle = recovered.handle();
    for (i, served) in probe_grid(|lo, hi| handle.query_served(lo, hi)).iter().enumerate() {
        assert!(oracle.matches(served), "{label}: probe {i}: {served:?}");
    }
    recovered.shutdown();
    fail_stopped
}

/// Every crash window of the checkpoint protocol, injected into the
/// background checkpointer: it dies mid temp-file write (a short write),
/// its temp-file fence fails (fsyncgate), it dies after the rename but
/// before the directory fsync, and after the checkpoint is durable but
/// before the superseded segments are deleted. Each fail-stops the server
/// exactly once — the next write's read is poisoned, not wrong — and
/// recovery from the directory is bitwise the oracle's.
#[test]
fn checkpointer_crash_windows_fail_stop_and_recover_bitwise() {
    let _g = serial();
    let _d = Disarm;
    for (site, spec) in [
        ("wal.write.short", "once:error"),
        ("wal.fsync.err", "once:error"),
        ("wal.ckpt.renamed", "once:panic"),
        ("wal.ckpt.durable", "once:panic"),
    ] {
        let stalled = stall_first_checkpoint("ckpt-window", 60);
        failpoint::configure(site, spec).unwrap();
        // The checkpointer records the failure only after the fault (and
        // after an injected panic has unwound): wait for the record, not
        // the fault, so the next write is sure to find it.
        eventually(site, || failpoint::hits("wal.ckpt.failed") > 0);
        assert_eq!(failpoint::fired(site), 1, "{site}: the injected fault fires once");
        let fail_stopped = finish_checkpoint_window(stalled, site);
        assert!(fail_stopped, "{site}: a failed checkpoint must fail-stop the server");
    }
}

/// A checkpoint still in flight at shutdown completes — shutdown waits
/// for it and writes no other — so the directory holds it, without the
/// segment it superseded, and recovery replays no swap.
#[test]
fn checkpoint_in_flight_at_shutdown_completes() {
    let _g = serial();
    let _d = Disarm;
    let Stalled { dir, server, writer: _writer, acked, swaps } =
        stall_first_checkpoint("ckpt-shutdown", 60);
    let oracle = server.oracle();
    server.shutdown();
    assert_eq!(failpoint::hits("wal.ckpt.begin"), 1, "shutdown starts no checkpoint");
    failpoint::reset();
    let ckpt = pwal::read_checkpoint(&pwal::checkpoint_path(&dir, "shard-0")).unwrap();
    assert_eq!(ckpt.rebuilds, swaps, "the in-flight checkpoint landed");
    let segments: Vec<u64> =
        pwal::list_segments(&dir, "shard-0").unwrap().iter().map(|s| s.0).collect();
    assert!(!segments.contains(&0), "superseded segment 0 survived: {segments:?}");
    let (recovered, report) = recover_frozen(&dir);
    assert_eq!((report.head_seq, report.replayed_swaps), (acked, 0));
    let handle = recovered.handle();
    for (i, served) in probe_grid(|lo, hi| handle.query_served(lo, hi)).iter().enumerate() {
        assert!(oracle.matches(served), "probe {i}: {served:?}");
    }
    recovered.shutdown();
}

/// Recovery beside a live checkpointer (the "recover while live" pattern
/// of `tests/serving.rs`): while the stalled checkpoint runs, renames
/// its file in and deletes the segment it supersedes, a recovery of the
/// live directory never fails and always reads a consistent state —
/// every acknowledged update, bitwise the oracle's — before and after
/// the checkpoint lands.
#[test]
fn recovery_beside_a_live_checkpointer_reads_consistent_states() {
    let _g = serial();
    let _d = Disarm;
    let Stalled { dir, server, writer: _writer, acked, .. } =
        stall_first_checkpoint("ckpt-beside", 60);
    let oracle = server.oracle();
    let mut seen = std::collections::BTreeSet::new();
    let start = std::time::Instant::now();
    while seen.len() < 2 && start.elapsed() < Duration::from_secs(5) {
        let (rec, report) =
            DynamicPolyFitSum::recover(&dir, "shard-0").expect("a live directory always recovers");
        assert_eq!(report.head_seq, acked, "recovered head");
        assert_eq!(report.truncated_bytes, 0, "no torn tail beside an idle writer");
        let want = oracle.index_at(0, report.head_seq, rec.rebuilds() as u64);
        assert_bitwise_equal(&rec, &want).unwrap();
        seen.insert(report.checkpoint_seq);
    }
    assert!(seen.len() >= 2, "recoveries saw checkpoints {seen:?}: both sides of the rename");
    server.shutdown();
}

/// The worker never waits on the checkpointer: with every checkpoint
/// stalled 100 ms, a writer that reads its own writes (each read waits
/// for its write's fence and publish) keeps writing through several
/// stalls, and every read resolves well within one.
#[test]
fn reads_resolve_while_the_checkpointer_stalls() {
    let _g = serial();
    let _d = Disarm;
    failpoint::configure("wal.ckpt.begin", "delay(100)").unwrap();
    let dir = fresh_wal_dir("ckpt-stall");
    let server = wal_engine(&dir, 10, 48, SyncPolicy::Batch);
    let writer = server.handle();
    let (mut slowest, mut first_stall) = (Duration::ZERO, None);
    let mut observed = Vec::new();
    for i in 0..100_000usize {
        let (k, m) = ((i as f64 * 37.0) % 280.0 - 140.0, 0.5 + (i % 7) as f64);
        if i % 5 == 3 {
            writer.delete(k, m).unwrap();
        } else {
            writer.insert(k, m).unwrap();
        }
        let t = std::time::Instant::now();
        let served = writer.query_served(k - 30.0, k + 30.0);
        slowest = slowest.max(t.elapsed());
        assert!(!served.poisoned, "read {i} poisoned");
        if i % 64 == 0 {
            observed.push(served);
        }
        if failpoint::hits("wal.ckpt.begin") > 0 {
            let since = *first_stall.get_or_insert_with(std::time::Instant::now);
            if since.elapsed() > Duration::from_millis(350) {
                break;
            }
        }
    }
    let stalls = failpoint::hits("wal.ckpt.begin");
    failpoint::reset();
    let oracle = server.oracle();
    server.shutdown();
    assert!(slowest < Duration::from_millis(50), "a read waited {slowest:?}");
    assert!(stalls >= 2, "the writes outlasted a stall ({stalls} checkpoints started)");
    for (i, served) in observed.iter().enumerate() {
        assert!(oracle.matches(served), "read {i}: {served:?}");
    }
}

/// Deterministic sweep for the CI grep gate: random storage-fault and
/// crash schedules armed while only the checkpointer does I/O (its first
/// checkpoint stalled, the worker idle). Each ends bitwise or in a clean
/// fail-stop; the tally counts schedules whose fault actually fired in
/// the checkpointer, so the fault model can never silently stop reaching
/// it.
#[test]
fn checkpoint_fault_schedules_are_explored() {
    let _g = serial();
    let _d = Disarm;
    let menu: &[(&str, &[&str])] = &[
        ("wal.write.err", &["error"]),
        ("wal.write.short", &["error"]),
        ("wal.fsync.err", &["error"]),
        ("wal.ckpt.renamed", &["panic"]),
        ("wal.ckpt.durable", &["panic"]),
    ];
    let mut checkpoint_fault_schedules = 0usize;
    for seed in 0..12u64 {
        let schedule = Schedule::random(seed, menu);
        let stalled = stall_first_checkpoint("ckpt-sweep", 30);
        schedule.install().unwrap();
        let dir = stalled.dir.clone();
        eventually("the stalled checkpoint", || {
            let done = pwal::read_checkpoint(&pwal::checkpoint_path(&dir, "shard-0"))
                .is_ok_and(|c| c.rebuilds > 0);
            done || schedule.0.iter().any(|(site, _)| failpoint::fired(site) > 0)
        });
        std::thread::sleep(Duration::from_millis(20));
        if schedule.0.iter().any(|(site, _)| failpoint::fired(site) > 0) {
            checkpoint_fault_schedules += 1;
        }
        finish_checkpoint_window(stalled, &schedule.to_string());
    }
    println!("injected-checkpoint-fault schedules run: {checkpoint_fault_schedules}");
    assert!(checkpoint_fault_schedules >= 1, "the sweep must inject into the checkpointer");
}

// ---------------------------------------------------------------------------
// Satellite: typed NoJournal errors on empty/missing WAL directories
// ---------------------------------------------------------------------------

#[test]
fn recover_on_missing_or_empty_dir_is_a_typed_error() {
    let _g = serial();
    let missing = fresh_wal_dir("nojournal-missing");
    match DynamicPolyFitSum::recover(&missing, "t") {
        Err(WalError::NoJournal(p)) => assert_eq!(p, missing),
        other => panic!("expected NoJournal, got {other:?}"),
    }
    let empty = fresh_wal_dir("nojournal-empty");
    std::fs::create_dir_all(&empty).unwrap();
    match DynamicPolyFitSum::recover(&empty, "t") {
        Err(WalError::NoJournal(p)) => assert_eq!(p, empty),
        other => panic!("expected NoJournal, got {other:?}"),
    }
    match ShardedServer::recover(&empty, ShardConfig::default(), SyncPolicy::Batch) {
        Err(WalError::NoJournal(p)) => assert_eq!(p, empty),
        Ok(_) => panic!("expected NoJournal, got a server"),
        Err(other) => panic!("expected NoJournal, got {other}"),
    }
    // The message names the path — that is the whole point.
    let msg = WalError::NoJournal(empty.clone()).to_string();
    assert!(msg.contains(empty.to_str().unwrap()), "got: {msg}");
    let _ = pwal::scan_wal; // keep the wal import tied to this suite
}
