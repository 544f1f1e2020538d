//! Property tests for the serving engine: interleaved submit/update
//! streams from multiple client threads through [`ShardedServer`],
//! verified bitwise against the [`ShardedOracle`]'s offline replay (and,
//! for one shard, against an independent quiesced replay), plus
//! kill-and-recover durability and immutable indexes answered directly
//! on client threads.
//!
//! Provenance makes exact verification possible even though compaction
//! and rebalancing interleave with serving: every [`ShardServed`] answer
//! carries, per shard, `(updates_applied, rebuilds)`, and the server
//! records each shard's applied updates, the update count at which each
//! rebuild was staged, and every split. Replaying the update prefix,
//! staging at the recorded points, and swapping exactly `rebuilds` of
//! them reproduces the served index state bit-for-bit — an in-flight
//! (staged but unswapped) rebuild is bitwise-transparent, and a swapped
//! rebuild's state is a deterministic function of its staged content
//! (stepped == blocking).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use polyfit_suite::exact::dataset::Record;
use polyfit_suite::polyfit::prelude::*;
use polyfit_suite::polyfit::wal as pwal;

/// One step of the client workload.
#[derive(Clone, Debug)]
enum Op {
    Insert(f64, f64),
    Delete(f64, f64),
    /// Query endpoint *selectors* — mapped to concrete (possibly
    /// degenerate) bounds by [`endpoints_of`].
    Query(usize, usize),
}

/// Map selector pairs to concrete query bounds, covering proper,
/// reversed, out-of-domain, and non-finite shapes.
fn endpoints_of(sa: usize, sb: usize) -> (f64, f64) {
    let coord = |s: usize| -200.0 + (s % 900) as f64 * 0.5;
    match sa % 11 {
        0 => (coord(sb), coord(sa)),     // frequently reversed
        1 => (f64::NAN, coord(sb)),      // non-finite low
        2 => (coord(sb), f64::INFINITY), // non-finite high
        3 => (coord(sa), coord(sa)),     // degenerate
        _ => {
            let (a, b) = (coord(sa), coord(sb) + 120.0);
            (a.min(b), a.max(b).max(a)) // proper
        }
    }
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..4, -150.0f64..150.0, 0.25f64..6.0, 0usize..1000, 0usize..1000),
        8..max_ops,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, k, m, sa, sb)| match kind {
                0 | 1 => Op::Insert(k, m),
                2 => Op::Delete(k, m),
                _ => Op::Query(sa, sb),
            })
            .collect()
    })
}

fn base_records(n: usize) -> Vec<Record> {
    (0..n).map(|i| Record::new(i as f64 * 0.5 - 100.0, 1.0 + (i % 3) as f64)).collect()
}

/// The stats once no split is left to run: every shard at or under
/// `split_threshold` (or the shard cap reached), on two reads 5 ms apart
/// with the same layout — a window applied just before the first read
/// is published (or split) by the second. Splits run on worker threads
/// after the write window that triggered them, and reads do not queue
/// behind them, so a test that inspects the layout waits (bounded) for
/// the rebalances its writes set off.
fn settled_stats(
    server: &ShardedServer,
    split_threshold: usize,
    max_shards: usize,
) -> ShardedStats {
    let settled = |s: &ShardedStats| {
        split_threshold == 0
            || s.shards.len() >= max_shards
            || s.shards.iter().all(|p| p.len <= split_threshold)
    };
    let start = Instant::now();
    loop {
        let first = server.stats();
        std::thread::sleep(Duration::from_millis(5));
        let stats = server.stats();
        let stable = settled(&first) && stats.layout_version == first.layout_version;
        if (stable && settled(&stats)) || start.elapsed() > Duration::from_secs(20) {
            return stats;
        }
    }
}

fn capped_config() -> PolyFitConfig {
    PolyFitConfig { max_segment_len: Some(96), ..PolyFitConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded server under interleaved multi-client traffic: one
    /// writer streams key-routed updates while two client threads submit
    /// queries concurrently — point ranges, boundary-crossing ranges, and
    /// full-domain scans alike — with auto-splits racing compaction or,
    /// at `split_threshold` 0, a fixed layout (one shard of it being the
    /// single-writer serving loop). Every served answer carries its
    /// per-shard provenance vector, and every one must be
    /// bitwise-identical to the [`ShardedOracle`]'s offline replay: per
    /// shard, rebuild the exact index state at `(updates_applied,
    /// rebuilds)` (through the split lineage), re-run the clipped
    /// sub-query, and compose in the served order — including answers
    /// served while a compaction was staged or mid-rebuild.
    #[test]
    fn sharded_answers_match_per_shard_replay(
        ops in ops_strategy(56),
        delta in 4.0f64..20.0,
        shards in 1usize..4,
        split_threshold in (0usize..2).prop_map(|s| s * 340),
        buffer_limit in 4usize..16,
    ) {
        let cfg = ShardConfig {
            shards,
            deadline: Duration::from_micros(30),
            max_batch: 8,
            // Tiny budget + buffer: compaction stages often and spans
            // many idle gaps, so queries (and splits) regularly race a
            // live rebuild.
            compaction_budget: 48,
            buffer_limit,
            split_threshold,
            max_shards: 6,
            record_history: true,
            ..ShardConfig::default()
        };
        let server =
            ShardedServer::start(base_records(600), delta, capped_config(), cfg).unwrap();
        let mut senders = Vec::new();
        let mut clients = Vec::new();
        for _ in 0..2 {
            let (tx, rx) = mpsc::channel::<(f64, f64)>();
            let handle = server.handle();
            senders.push(tx);
            clients.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                for (lo, hi) in rx {
                    seen.push((lo, hi, handle.query_served(lo, hi)));
                }
                seen
            }));
        }
        let writer = server.handle();
        let mut qi = 0usize;
        for op in &ops {
            match *op {
                Op::Insert(k, m) => writer.insert(k, m).unwrap(),
                Op::Delete(k, m) => writer.delete(k, m).unwrap(),
                Op::Query(sa, sb) => {
                    let (lo, hi) = endpoints_of(sa, sb);
                    senders[qi % senders.len()].send((lo, hi)).unwrap();
                    qi += 1;
                }
            }
        }
        drop(senders);
        let mut observed = Vec::new();
        for c in clients {
            observed.extend(c.join().expect("client thread panicked"));
        }
        // Deterministic boundary probes against the settled layout:
        // inside one shard, across each adjacent boundary, and the full
        // domain (all shards), so every fold width is checked even when
        // the random stream missed one.
        let stats = settled_stats(&server, split_threshold, 6);
        for w in stats.bounds.windows(1) {
            observed.push((w[0] - 4.0, w[0] + 4.0, writer.query_served(w[0] - 4.0, w[0] + 4.0)));
        }
        for &(lo, hi) in
            &[(-40.0, 40.0), (-250.0, 300.0), (f64::NEG_INFINITY, 0.0), (150.0, -150.0)]
        {
            observed.push((lo, hi, writer.query_served(lo, hi)));
        }
        // Wait-free snapshot path: answers from published snapshots must
        // replay through the same oracle (snapshots trail the live shard
        // only in provenance, never in reproducibility).
        let snap = writer.snapshot_query(-250.0, 300.0);
        let oracle = server.oracle();
        prop_assert!(!snap.poisoned);
        prop_assert!(oracle.matches(&snap), "snapshot path diverged: {:?}", snap);
        for (i, (lo, hi, served)) in observed.iter().enumerate() {
            prop_assert!(!served.poisoned, "query {} ({}, {}] poisoned", i, lo, hi);
            prop_assert!(
                oracle.matches(served),
                "query {} ({}, {}]: served {:?} vs oracle {:?}",
                i, lo, hi, served.answer, oracle.expected(served)
            );
        }
        // Epoch-reclamation safety: once the fleet quiesces and readers
        // unpin, retired snapshots must drain from limbo — each shard
        // may hold at most its current snapshot plus one awaiting the
        // final grace period.
        let final_stats = server.shutdown();
        prop_assert!(
            final_stats.limbo <= final_stats.shards.len() * 2,
            "unreclaimed limbo after quiesce: {:?}", final_stats
        );
        prop_assert_eq!(final_stats.layout_version, stats.layout_version,
            "no rebalance may run after shutdown began");
    }
}

/// Replay the update prefix with the recorded compaction history: stage
/// at each logged point, swap the first `swaps`, skip the rest. The
/// result answers bit-for-bit like a one-shard engine's index did at
/// provenance `(upto, swaps)`.
fn replay_oracle(
    delta: f64,
    limit: usize,
    updates: &[Update],
    stage_log: &[u64],
    upto: u64,
    swaps: u64,
) -> DynamicPolyFitSum {
    let mut o = DynamicPolyFitSum::new(base_records(600), delta, capped_config(), limit).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The single-writer serving loop — a one-shard [`ShardedServer`] —
    /// under interleaved multi-client traffic: one writer thread streams
    /// updates while two client threads submit queries concurrently;
    /// every served answer must equal a direct query on the quiesced
    /// replay of its provenance point, including answers served while a
    /// compaction was staged or mid-rebuild. The replay is built from the
    /// updates this test submitted plus the recorded stage points alone,
    /// so it checks the engine independently of [`ShardedOracle`].
    #[test]
    fn served_answers_match_quiesced_replay(
        ops in ops_strategy(48),
        delta in 4.0f64..20.0,
        limit in 4usize..16,
    ) {
        let cfg = ShardConfig {
            deadline: Duration::from_micros(30),
            max_batch: 8,
            // Tiny budget: rebuilds span many idle gaps, so queries
            // regularly land mid-compaction.
            compaction_budget: 48,
            buffer_limit: limit,
            record_history: true,
            ..ShardConfig::default()
        };
        let server =
            ShardedServer::start(base_records(600), delta, capped_config(), cfg).unwrap();
        // Two query clients fed round-robin over channels — queries
        // interleave with the writer from genuinely distinct threads.
        let mut senders = Vec::new();
        let mut clients = Vec::new();
        for _ in 0..2 {
            let (tx, rx) = mpsc::channel::<(f64, f64)>();
            let handle = server.handle();
            senders.push(tx);
            clients.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                for (lo, hi) in rx {
                    seen.push((lo, hi, handle.query_served(lo, hi)));
                }
                seen
            }));
        }
        let writer = server.handle();
        let mut updates: Vec<Update> = Vec::new();
        let mut qi = 0usize;
        for op in &ops {
            match *op {
                Op::Insert(k, m) => {
                    writer.insert(k, m).unwrap();
                    updates.push(Update::Insert { key: k, measure: m });
                }
                Op::Delete(k, m) => {
                    writer.delete(k, m).unwrap();
                    updates.push(Update::Delete { key: k, measure: m });
                }
                Op::Query(sa, sb) => {
                    let (lo, hi) = endpoints_of(sa, sb);
                    senders[qi % senders.len()].send((lo, hi)).unwrap();
                    qi += 1;
                }
            }
        }
        drop(senders);
        let mut observed = Vec::new();
        for c in clients {
            observed.extend(c.join().expect("client thread panicked"));
        }
        // Final-state probes from the writer: read-your-writes holds each
        // back until the shard publishes every update it submitted, so
        // the session ends in a state any offline consumer can reproduce.
        let streamed = observed.len();
        for s in 0..30usize {
            let (lo, hi) = (s as f64 * 12.0 - 150.0, s as f64 * 12.0 + 60.0);
            observed.push((lo, hi, writer.query_served(lo, hi)));
        }
        let history = server.history();
        server.shutdown();

        prop_assert_eq!(history.initial.len(), 1);
        let log = history.logs.get(&history.initial[0].0).cloned().unwrap_or_default();
        // One writer, one shard: the engine applied exactly the submitted
        // stream, in submission order.
        prop_assert_eq!(&log.updates, &updates);
        let mut replays: HashMap<(u64, u64), DynamicPolyFitSum> = HashMap::new();
        for (i, (lo, hi, served)) in observed.iter().enumerate() {
            prop_assert!(!served.poisoned, "query {} ({}, {}] poisoned", i, lo, hi);
            // Degenerate bounds are answered inline, from no shard state.
            let (upto, swaps) =
                served.shards.first().map_or((0, 0), |p| (p.updates_applied, p.rebuilds));
            if i >= streamed {
                prop_assert_eq!(upto, updates.len() as u64, "final probe {}", i - streamed);
            }
            let replay = replays.entry((upto, swaps)).or_insert_with(|| {
                replay_oracle(delta, limit, &updates, &log.stage_points, upto, swaps)
            });
            let expect = AggregateIndex::query(replay, *lo, *hi);
            prop_assert_eq!(
                served.answer.map(|a| a.value.to_bits()),
                expect.map(|a| a.value.to_bits()),
                "query {} ({}, {}] at provenance ({}, {}): served {:?} vs replay {:?}",
                i, lo, hi, upto, swaps, served.answer, expect
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Immutable indexes: answered directly on client threads
// ---------------------------------------------------------------------------

/// Answer `probes` the way `polyfit-cli serve` answers an immutable index:
/// `clients` threads split the probes round-robin and each calls
/// [`AggregateIndex::query`] on the one shared index — no serving loop.
/// Returns the answers in probe order.
fn answer_on_client_threads(
    index: &SharedIndex,
    probes: &[(f64, f64)],
    clients: usize,
) -> Vec<Option<RangeAggregate>> {
    let mut answers = vec![None; probes.len()];
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    (c..probes.len())
                        .step_by(clients)
                        .map(|i| (i, index.query(probes[i].0, probes[i].1)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in threads {
            for (i, a) in t.join().expect("client thread panicked") {
                answers[i] = a;
            }
        }
    });
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A static index is served without a loop: concurrent client threads
    /// over one shared [`SharedIndex`] get answers bitwise-identical to
    /// direct `query` calls and to one `query_batch` pass (the check
    /// `polyfit-cli serve` runs on every static file), for proper and
    /// degenerate bounds alike.
    #[test]
    fn static_server_matches_direct_queries(
        selectors in proptest::collection::vec((0usize..1000, 0usize..1000), 4..40),
        clients in 1usize..4,
    ) {
        let index: SharedIndex =
            Arc::new(PolyFitSum::build(base_records(800), 10.0, capped_config()).unwrap());
        let probes: Vec<(f64, f64)> =
            selectors.iter().map(|&(sa, sb)| endpoints_of(sa, sb)).collect();
        let served = answer_on_client_threads(&index, &probes, clients);
        let batch = index.query_batch(&probes);
        for (i, &(lo, hi)) in probes.iter().enumerate() {
            let direct = index.query(lo, hi);
            prop_assert_eq!(bits(served[i]), bits(direct), "({}, {}]", lo, hi);
            prop_assert_eq!(
                served[i].map(|a| a.value.to_bits()),
                batch[i].map(|a| a.value.to_bits()),
                "({}, {}] vs query_batch", lo, hi
            );
        }
    }
}

/// An answer's value bits and its certificate.
fn bits(answer: Option<RangeAggregate>) -> Option<(u64, Guarantee)> {
    answer.map(|a| (a.value.to_bits(), a.guarantee))
}

/// The AVG and MIN drivers answered the same way: every driver is
/// `Send + Sync`, and answers from concurrent client threads must be
/// bitwise-identical to direct queries — AVG's certified error bound
/// included — and to `query_batch`, MIN over degenerate and reversed
/// bounds included.
#[test]
fn avg_and_min_drivers_serve_bitwise() {
    let drivers: Vec<SharedIndex> = vec![
        Arc::new(GuaranteedAvg::with_abs_guarantees(base_records(500), 4.0, 4.0, capped_config())),
        Arc::new(GuaranteedMin::with_abs_guarantee(base_records(500), 4.0, capped_config())),
    ];
    let probes: Vec<(f64, f64)> = (0..60usize).map(|s| endpoints_of(s * 17, s * 23 + 5)).collect();
    for index in drivers {
        let served = answer_on_client_threads(&index, &probes, 2);
        let batch = index.query_batch(&probes);
        for (i, &(lo, hi)) in probes.iter().enumerate() {
            let what = format!("{}/{:?} ({lo}, {hi}]", index.name(), index.kind());
            assert_eq!(bits(served[i]), bits(index.query(lo, hi)), "{what}");
            assert_eq!(
                served[i].map(|a| a.value.to_bits()),
                batch[i].map(|a| a.value.to_bits()),
                "{what} vs query_batch"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Durability: kill-and-recover, torn tails, ±0.0 across the recovery boundary
// ---------------------------------------------------------------------------

/// Fresh per-case WAL directory (proptest reruns cases; stale files from
/// an earlier shrink iteration must never leak into the next one).
fn fresh_wal_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join("polyfit-serving-wal-tests").join(format!("{tag}-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bitwise query-equality probe grid: proper, degenerate, and
/// domain-spanning ranges over the workload's key window.
fn assert_bitwise_equal(rec: &DynamicPolyFitSum, live: &DynamicPolyFitSum) -> Result<(), String> {
    for s in 0..40 {
        let lo = -170.0 + s as f64 * 8.5;
        for span in [0.0, 5.5, 63.0, 400.0] {
            let (r, l) = (rec.query(lo, lo + span), live.query(lo, lo + span));
            if r.to_bits() != l.to_bits() {
                return Err(format!("({lo}, {}]: recovered {r} vs live {l}", lo + span));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill-and-recover at an arbitrary crash point — including while a
    /// shadow compaction is staged or mid-rebuild. Every update is
    /// journaled durably before it folds in ([`SyncPolicy::EveryUpdate`]),
    /// so the crash loses nothing acked: the recovered index must answer
    /// bitwise-identically to the never-crashed instance, with the same
    /// compaction lineage (swaps either checkpointed before the crash or
    /// still staged — and a staged rebuild is bitwise-transparent).
    #[test]
    fn recovery_is_bitwise_equal_at_any_crash_point(
        ops in proptest::collection::vec(
            (0u8..2, -150.0f64..150.0, 0.25f64..6.0), 8..64),
        crash_pct in 0usize..=100,
        stride in 4usize..12,
        partial_tail in 0u8..2,
    ) {
        let dir = fresh_wal_dir("crash");
        let crash = ops.len() * crash_pct / 100;
        let mut live =
            DynamicPolyFitSum::new(base_records(300), 8.0, capped_config(), 10).unwrap();
        live.set_step_budget(0);
        live.attach_wal(&dir, "t", SyncPolicy::EveryUpdate, 0).unwrap();
        for (i, &(ins, k, m)) in ops[..crash].iter().enumerate() {
            if ins == 1 {
                live.insert(k, m);
            } else {
                live.delete(k, m);
            }
            // Periodic full swaps: each one checkpoints + truncates the
            // log, so recovery exercises checkpoint-plus-tail replay.
            if i % stride == stride - 1 && live.begin_compaction() {
                live.compact_now();
            }
        }
        if partial_tail == 1 && live.begin_compaction() {
            // Crash mid-compaction: a few bounded steps, then die. If the
            // rebuild happened to finish, its swap checkpointed (covered
            // below either way).
            live.step_compaction(3);
        }
        // "Kill" = recover from disk while the live instance still runs:
        // the never-crashed state is the oracle.
        let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
        prop_assert_eq!(report.head_seq, crash as u64, "journal covers every acked update");
        prop_assert_eq!(report.truncated_bytes, 0, "clean log has no torn tail");
        prop_assert_eq!(rec.rebuilds(), live.rebuilds(), "compaction lineage");
        prop_assert_eq!(rec.base_len(), live.base_len(), "compacted base");
        if live.compaction().is_none() {
            // (A staged-but-unswapped rebuild holds its entries in
            // `pending`, which the buffer count doesn't see.)
            prop_assert_eq!(rec.buffered(), live.buffered(), "exact delta buffer");
        }
        if let Err(msg) = assert_bitwise_equal(&rec, &live) {
            prop_assert!(false, "crash at {}/{}: {}", crash, ops.len(), msg);
        }
    }

    /// Torn tails: chop (or corrupt) bytes at the end of the log, as a
    /// crash mid-write would. Recovery must land on the last checksummed
    /// prefix — bitwise-equal to replaying exactly the surviving updates —
    /// and physically truncate the torn bytes so a second recovery is
    /// clean and identical.
    #[test]
    fn torn_tail_recovers_to_last_checksummed_prefix(
        n_ops in 6usize..40,
        cut in 1usize..200,
        flip in 0u8..2,
    ) {
        let dir = fresh_wal_dir("torn");
        let mut live =
            DynamicPolyFitSum::new(base_records(200), 8.0, capped_config(), 1_000_000).unwrap();
        live.set_step_budget(0);
        live.attach_wal(&dir, "t", SyncPolicy::Batch, 0).unwrap();
        let ops: Vec<(f64, f64)> =
            (0..n_ops).map(|i| (i as f64 * 1.7 - 30.0, 1.0 + (i % 4) as f64)).collect();
        for &(k, m) in &ops {
            live.insert(k, m);
        }
        live.detach_wal().unwrap(); // final group commit, close the handle
        let log = pwal::log_path(&dir, "t");
        let bytes = std::fs::read(&log).unwrap();
        // Damage lands relative to the end of the *valid prefix* — the
        // file extends past it with preallocated zeros, which are not
        // where a torn write can land. Keep the 12-byte header; damage
        // may wipe every frame.
        let valid = pwal::scan_wal(&log).unwrap().valid_len as usize;
        let cut = cut.min(valid - 12);
        if flip == 1 {
            // Corrupt in place: the checksum must cut the scan at the
            // damaged frame even though the file length looks fine.
            let mut damaged = bytes.clone();
            damaged[valid - cut] ^= 0x5a;
            std::fs::write(&log, damaged).unwrap();
        } else {
            std::fs::write(&log, &bytes[..valid - cut]).unwrap();
        }
        let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
        prop_assert!(report.head_seq < n_ops as u64, "damage must cost at least one record");
        // The recovered state is exactly the surviving prefix.
        let mut oracle =
            DynamicPolyFitSum::new(base_records(200), 8.0, capped_config(), 1_000_000).unwrap();
        oracle.set_step_budget(0);
        for &(k, m) in ops.iter().take(report.head_seq as usize) {
            oracle.insert(k, m);
        }
        prop_assert_eq!(rec.buffered(), oracle.buffered());
        if let Err(msg) = assert_bitwise_equal(&rec, &oracle) {
            prop_assert!(false, "prefix of {} ops: {}", report.head_seq, msg);
        }
        // Truncate-at-corruption is physical: recovering again finds a
        // clean log with the same head.
        let (rec2, report2) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
        prop_assert_eq!(report2.truncated_bytes, 0, "first recovery cut the torn tail");
        prop_assert_eq!(report2.head_seq, report.head_seq);
        prop_assert_eq!(rec2.buffered(), rec.buffered());
        if let Err(msg) = assert_bitwise_equal(&rec2, &rec) {
            prop_assert!(false, "second recovery diverged: {}", msg);
        }
    }
}

/// Apply one `(insert?, key, measure)` op to every index in `idx`, with
/// a blocking compaction on all of them every `stride`-th op.
fn apply_all(idx: &mut [&mut DynamicPolyFitSum], i: usize, stride: usize, op: (bool, f64, f64)) {
    for x in idx.iter_mut() {
        let (ins, k, m) = op;
        if ins {
            x.insert(k, m);
        } else {
            x.delete(k, m);
        }
        if i % stride == stride - 1 && x.begin_compaction() {
            x.compact_now();
        }
    }
}

fn op_at(i: usize) -> (bool, f64, f64) {
    (i % 5 != 2, (i as f64 * 41.0) % 290.0 - 145.0, 0.5 + (i % 6) as f64)
}

/// The checkpoint swap switches the journal to a prepared, all-zero
/// segment whose header waits for the next fence. A crash in that window
/// recovers the checkpoint — every update and swap the journal holds —
/// bitwise; resuming from it and crashing again stays bitwise.
#[test]
fn crash_between_segment_switch_and_first_fence_recovers_bitwise() {
    let dir = fresh_wal_dir("switch-window");
    let mut live = DynamicPolyFitSum::new(base_records(300), 8.0, capped_config(), 10).unwrap();
    live.set_step_budget(0);
    live.attach_wal(&dir, "t", SyncPolicy::Batch, 0).unwrap();
    let mut control = live.clone();
    let mut i = 0;
    while live.wal().unwrap().segment() == 0 {
        apply_all(&mut [&mut live, &mut control], i, 5, op_at(i));
        i += 1;
        assert!(i < 500, "no checkpoint swap");
    }
    let segment = pwal::segment_path(&dir, "t", live.wal().unwrap().segment());
    assert!(pwal::scan_wal(&segment).is_err(), "the new segment is still all zeros");
    let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
    assert_eq!(report.head_seq, i as u64);
    assert_eq!(rec.to_bytes(), live.to_bytes(), "recovered state differs");
    // Crash: the live instance dies unsynced. Resume and keep writing.
    drop(live);
    let (mut resumed, _) = DynamicPolyFitSum::resume_wal(&dir, "t", SyncPolicy::Batch).unwrap();
    resumed.set_step_budget(0);
    for j in i..i + 40 {
        apply_all(&mut [&mut resumed, &mut control], j, 5, op_at(j));
    }
    resumed.wal_sync().unwrap();
    let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
    assert_eq!(report.head_seq, i as u64 + 40);
    assert_eq!(rec.rebuilds(), control.rebuilds());
    assert_eq!(rec.to_bytes(), control.to_bytes(), "recovered state differs after resume");
}

/// A resumed journal keeps the checkpoint cadence where the replay left
/// it: across five crash-and-resume cycles with writes and swaps between
/// them, no recovery replays more than `CHECKPOINT_EVERY - 1` swaps, and
/// each recovered state is bitwise the never-crashed control's.
#[test]
fn recovery_replays_at_most_k_minus_one_swaps_across_restarts() {
    let dir = fresh_wal_dir("cadence");
    let mut live = DynamicPolyFitSum::new(base_records(300), 8.0, capped_config(), 10).unwrap();
    live.set_step_budget(0);
    live.attach_wal(&dir, "t", SyncPolicy::EveryUpdate, 0).unwrap();
    let mut control = live.clone();
    let (mut i, mut replayed) = (0, Vec::new());
    for swaps in [1, 1, 2, 1, 3] {
        let target = control.rebuilds() + swaps;
        while control.rebuilds() < target {
            apply_all(&mut [&mut live, &mut control], i, 4, op_at(i));
            i += 1;
        }
        drop(live);
        let (resumed, report) =
            DynamicPolyFitSum::resume_wal(&dir, "t", SyncPolicy::EveryUpdate).unwrap();
        assert_eq!(report.head_seq, i as u64);
        assert_eq!(resumed.rebuilds(), control.rebuilds());
        assert_eq!(resumed.to_bytes(), control.to_bytes(), "restart {}", replayed.len());
        replayed.push(report.replayed_swaps);
        live = resumed;
        live.set_step_budget(0);
    }
    let bound = pwal::CHECKPOINT_EVERY - 1;
    assert!(replayed.iter().all(|&r| r <= bound), "replayed swaps {replayed:?} > {bound}");
    assert!(bound == 0 || replayed.iter().any(|&r| r > 0), "no restart replayed a swap");
}

/// `-0.0` and `+0.0` are one key; the journal normalizes before writing
/// (and the decoder re-normalizes defensively), so a mixed ±0.0 stream
/// folds bitwise-identically on both sides of a recovery boundary — even
/// when a compaction checkpoint lands mid-stream.
#[test]
fn mixed_zero_streams_recover_bitwise() {
    let dir = fresh_wal_dir("zeros");
    let records: Vec<Record> = (-6..6).map(|i| Record::new(i as f64, 1.0)).collect();
    let mut live =
        DynamicPolyFitSum::new(records.clone(), 2.0, PolyFitConfig::default(), 4).unwrap();
    live.set_step_budget(0);
    live.attach_wal(&dir, "t", SyncPolicy::EveryUpdate, 0).unwrap();
    live.insert(-0.0, 5.0);
    live.insert(0.0, 2.5);
    live.delete(-0.0, 1.0);
    live.insert(1.5, -0.0); // negative-zero *measure* is journaled as-is
                            // Compaction boundary mid-stream: the ±0.0 entries so far fold into
                            // the checkpointed base; the rest replay from the log tail.
    assert!(live.begin_compaction());
    live.compact_now();
    live.delete(0.0, 5.0);
    live.insert(-0.0, 3.25);
    live.delete(-1.0, 0.5);
    let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
    assert_eq!(report.head_seq, 7);
    assert_eq!(rec.rebuilds(), live.rebuilds());
    assert_eq!(rec.buffered(), live.buffered());
    // Bounds at ±0.0 and ranges covering the zero key answer bitwise
    // alike, with either sign of zero as an endpoint.
    for (lo, hi) in
        [(-0.0, 2.0), (0.0, 2.0), (-2.0, -0.0), (-2.0, 0.0), (-6.0, 6.0), (-0.5, 0.5), (0.0, 0.0)]
    {
        assert_eq!(
            rec.query(lo, hi).to_bits(),
            live.query(lo, hi).to_bits(),
            "({lo}, {hi}] diverged after recovery"
        );
    }
    // The strongest form: the serialized states are byte-identical.
    assert_eq!(rec.to_bytes(), live.to_bytes(), "recovered PFD2 bytes differ");
}

// ---------------------------------------------------------------------------
// Streaming aggregates: sliding windows
// ---------------------------------------------------------------------------

/// A sliding-window SUM stream through a one-shard engine: each step
/// inserts at the leading edge, deletes the trailing edge once the
/// window is full, and periodically queries exactly the live window.
/// Every answer must replay bitwise at its provenance — the window
/// bookkeeping (delete-on-slide) rides the same update queue as any
/// other write, so a lagging drain or mid-window compaction must never
/// smear adjacent windows together.
#[test]
fn sliding_window_sum_stream_matches_quiesced_replay() {
    let key_of = |t: usize| t as f64 * 0.5 - 90.0;
    let measure_of = |t: usize| 1.0 + (t % 5) as f64 * 0.25;
    const WINDOW: usize = 40;
    let cfg = ShardConfig {
        deadline: Duration::from_micros(30),
        max_batch: 8,
        compaction_budget: 48,
        buffer_limit: 10,
        record_history: true,
        ..ShardConfig::default()
    };
    let server = ShardedServer::start(base_records(600), 8.0, capped_config(), cfg).unwrap();
    let writer = server.handle();
    let mut submitted = 0u64;
    let mut observed = Vec::new();
    for t in 0..130usize {
        writer.insert(key_of(t), measure_of(t)).unwrap();
        submitted += 1;
        if t >= WINDOW {
            writer.delete(key_of(t - WINDOW), measure_of(t - WINDOW)).unwrap();
            submitted += 1;
        }
        if t % 5 == 4 {
            // The half-open window (key(t-WINDOW), key(t)] — exactly the
            // live entries, trailing edge excluded.
            let lo = if t >= WINDOW { key_of(t - WINDOW) } else { f64::NEG_INFINITY };
            let served = writer.query_served(lo, key_of(t));
            // One client: read-your-writes holds the read back until the
            // shard publishes every write this client submitted before it.
            if let Some(p) = served.shards.first() {
                assert_eq!(p.updates_applied, submitted, "window at t={t}");
            }
            observed.push((lo, key_of(t), served));
        }
    }
    // The final state, read wait-free from the published snapshot, must
    // equal the full replay too.
    for s in 0..40 {
        let lo = -170.0 + s as f64 * 8.5;
        for span in [0.0, 5.5, 63.0, 400.0] {
            observed.push((lo, lo + span, writer.snapshot_query(lo, lo + span)));
        }
    }
    let oracle = server.oracle();
    for (i, (lo, hi, served)) in observed.iter().enumerate() {
        assert!(!served.poisoned, "window {i} poisoned");
        assert!(
            oracle.matches(served),
            "window {i} ({lo}, {hi}]: {:?} vs {:?}",
            served.answer,
            oracle.expected(served)
        );
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Adversarial key distributions through sharded serving
// ---------------------------------------------------------------------------

/// Every record and every update on ONE key: the split heuristic has no
/// legal boundary (a shard cannot be cut inside a key), so the server
/// must decline to split — not spin, not carve an empty shard — while
/// measure-folding keeps every degenerate, covering, and missing-key
/// query bitwise against the oracle.
#[test]
fn all_duplicate_keys_serve_and_decline_to_split() {
    let records: Vec<Record> = (0..600).map(|i| Record::new(7.0, 1.0 + (i % 4) as f64)).collect();
    let cfg = ShardConfig {
        shards: 1,
        deadline: Duration::from_micros(30),
        max_batch: 8,
        compaction_budget: 48,
        buffer_limit: 12,
        split_threshold: 340, // far exceeded — but there is nothing to cut
        max_shards: 6,
        record_history: true,
        ..ShardConfig::default()
    };
    let server = ShardedServer::start(records, 8.0, capped_config(), cfg).unwrap();
    let writer = server.handle();
    let mut observed = Vec::new();
    for i in 0..60usize {
        if i % 4 == 3 {
            writer.delete(7.0, 0.5).unwrap();
        } else {
            writer.insert(7.0, 1.0 + (i % 3) as f64).unwrap();
        }
        if i % 6 == 0 {
            for &(lo, hi) in
                &[(7.0, 7.0), (6.0, 8.0), (f64::NEG_INFINITY, f64::INFINITY), (8.0, 9.0)]
            {
                observed.push((lo, hi, writer.query_served(lo, hi)));
            }
        }
    }
    let stats = server.stats();
    assert_eq!(stats.shards.len(), 1, "a single key must never split");
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

/// Keys tiled one ULP apart: shard boundaries, split points, and query
/// clipping all land *between* adjacent representable doubles. Splits
/// fire under live traffic, and answers — degenerate single-ULP probes,
/// windows spanning a boundary, and full-domain scans — must stay
/// bitwise against the per-shard replay oracle.
#[test]
fn one_ulp_key_tiling_shards_and_serves_bitwise() {
    let mut keys = Vec::with_capacity(600);
    let mut k = 1.0f64;
    for _ in 0..600 {
        keys.push(k);
        k = k.next_up();
    }
    let records: Vec<Record> = keys.iter().map(|&k| Record::new(k, 2.0)).collect();
    let cfg = ShardConfig {
        shards: 1,
        deadline: Duration::from_micros(30),
        max_batch: 8,
        compaction_budget: 48,
        buffer_limit: 12,
        split_threshold: 340, // 600 records: splits must fire
        max_shards: 6,
        record_history: true,
        ..ShardConfig::default()
    };
    let server = ShardedServer::start(records, 8.0, capped_config(), cfg).unwrap();
    let writer = server.handle();
    let mut observed = Vec::new();
    for i in 0..80usize {
        let key = keys[(i * 37) % keys.len()];
        if i % 5 == 2 {
            writer.delete(key, 0.25).unwrap();
        } else {
            writer.insert(key, 1.5).unwrap();
        }
        if i % 4 == 0 {
            let a = keys[(i * 13) % keys.len()];
            let b = keys[(i * 29) % keys.len()];
            observed.push((a, a, writer.query_served(a, a))); // one-ULP degenerate
            let (lo, hi) = (a.min(b), a.max(b));
            observed.push((lo, hi, writer.query_served(lo, hi)));
        }
    }
    // Boundary-straddling probes against the settled layout: one ULP to
    // either side of every shard bound.
    let stats = settled_stats(&server, 340, 6);
    for &b in &stats.bounds {
        observed.push((
            b.next_down(),
            b.next_up(),
            writer.query_served(b.next_down(), b.next_up()),
        ));
    }
    observed.push((
        f64::NEG_INFINITY,
        f64::INFINITY,
        writer.query_served(f64::NEG_INFINITY, f64::INFINITY),
    ));
    assert!(stats.shards.len() > 1, "the tiling must have split under load");
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
