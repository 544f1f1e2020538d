//! Command implementations.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use polyfit::prelude::*;
use polyfit::shard::shard_wal_name;
use polyfit::wal::plan_replay;
use polyfit::{atomic_write, Extremum, LayoutLog, PolyFitMax, PolyFitSum};
use polyfit::{AggregateIndex2d, QuadPolyFit};

/// Parse a batch-query file: one `lo,hi` range per line; `#` comments,
/// blank lines, and trailing newlines (including CRLF) are skipped.
///
/// Untrusted input never panics here: malformed rows — missing fields,
/// extra fields, non-numeric values — produce a line-numbered `Err`, and
/// a file with no ranges at all (empty, or nothing but comments) is
/// reported as such instead of handing downstream code an empty batch it
/// did not ask for.
fn parse_ranges(text: &str) -> Result<Vec<(f64, f64)>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',');
        let parse = |s: Option<&str>| -> Result<f64, String> {
            s.and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("line {}: expected 'lo,hi', got '{line}'", lineno + 1))
        };
        let lo = parse(parts.next())?;
        let hi = parse(parts.next())?;
        if parts.next().is_some() {
            return Err(format!(
                "line {}: expected exactly two fields 'lo,hi', got '{line}'",
                lineno + 1
            ));
        }
        out.push((lo, hi));
    }
    if out.is_empty() {
        let what = if text.trim().is_empty() { "file is empty" } else { "only comments/blanks" };
        return Err(format!("batch file contains no ranges ({what})"));
    }
    Ok(out)
}

use crate::args::{Aggregate, Command};
use crate::csv;

/// File-kind sniffing: the serializer's magic bytes.
fn kind_of(bytes: &[u8]) -> Option<&'static str> {
    match bytes.get(..4) {
        Some(b"PFS2") => Some("sum"),
        Some(b"PFM2") => Some("max"),
        Some(b"PFD2") => Some("dynamic"),
        Some(b"PFQ1") => Some("quad"),
        _ => None,
    }
}

/// Parse a 2-D batch-query file: one `u_lo,u_hi,v_lo,v_hi` rectangle per
/// line, with the same comment/blank/line-number conventions as
/// [`parse_ranges`].
fn parse_rects(text: &str) -> Result<Vec<(f64, f64, f64, f64)>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',');
        let mut parse = |_| -> Result<f64, String> {
            parts.next().and_then(|v| v.trim().parse().ok()).ok_or_else(|| {
                format!("line {}: expected 'u_lo,u_hi,v_lo,v_hi', got '{line}'", lineno + 1)
            })
        };
        let rect = (parse(0)?, parse(1)?, parse(2)?, parse(3)?);
        if parts.next().is_some() {
            return Err(format!(
                "line {}: expected exactly four fields 'u_lo,u_hi,v_lo,v_hi', got '{line}'",
                lineno + 1
            ));
        }
        out.push(rect);
    }
    if out.is_empty() {
        let what = if text.trim().is_empty() { "file is empty" } else { "only comments/blanks" };
        return Err(format!("batch file contains no rectangles ({what})"));
    }
    Ok(out)
}

/// Decode an index file into a trait object: the one place the on-disk
/// format is inspected. Everything downstream dispatches through
/// [`AggregateIndex`]; the `Send + Sync` bound lets `serve` share the
/// same object across worker threads.
fn load_index(bytes: &[u8]) -> Result<Box<dyn AggregateIndex + Send + Sync>, String> {
    match kind_of(bytes) {
        Some("sum") => Ok(Box::new(PolyFitSum::from_bytes(bytes).map_err(|e| e.to_string())?)),
        Some("max") => Ok(Box::new(PolyFitMax::from_bytes(bytes).map_err(|e| e.to_string())?)),
        Some("dynamic") => {
            Ok(Box::new(DynamicPolyFitSum::from_bytes(bytes).map_err(|e| e.to_string())?))
        }
        Some("quad") => Err("a 2-D (PFQ1) index — query it with \
             `query --rect u_lo u_hi v_lo v_hi` or a 4-field batch file"
            .into()),
        _ => Err("not a PolyFit index file".into()),
    }
}

fn backend_of(name: &str) -> FitBackend {
    match name {
        "chebyshev" => FitBackend::ExchangeChebyshev,
        "simplex" => FitBackend::Simplex,
        _ => FitBackend::Exchange,
    }
}

/// A `serve` answer: the value (`None` for non-finite bounds or a range
/// outside the key domain), or `Err` when the engine poisoned the request.
type Answer = Result<Option<f64>, String>;

/// The client-replay driver behind `serve`: `clients` threads split the
/// request file round-robin, each answering through its own function
/// from `client()`. Returns the answers in file order and the wall time.
fn replay<F>(ranges: &[(f64, f64)], clients: usize, client: impl Fn() -> F) -> (Vec<Answer>, f64)
where
    F: FnMut(f64, f64) -> Answer + Send,
{
    let t0 = Instant::now();
    let mut answers: Vec<Answer> = vec![Ok(None); ranges.len()];
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let mut answer = client();
                s.spawn(move || {
                    (c..ranges.len())
                        .step_by(clients)
                        .map(|i| (i, answer(ranges[i].0, ranges[i].1)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in threads {
            for (i, a) in t.join().expect("serve client panicked") {
                answers[i] = a;
            }
        }
    });
    (answers, t0.elapsed().as_secs_f64())
}

/// Check every served answer bitwise against `reference` (file order),
/// then print them one per line — nothing is printed unless all agree.
fn verify_and_print(
    ranges: &[(f64, f64)],
    answers: &[Answer],
    reference: impl Iterator<Item = Option<f64>>,
    what: &str,
) -> Result<(), String> {
    let mut out = String::with_capacity(ranges.len() * 16);
    for (i, (answer, expect)) in answers.iter().zip(reference).enumerate() {
        let (lo, hi) = ranges[i];
        let value = answer.as_ref().map_err(|e| format!("request {i} ({lo}, {hi}]: {e}"))?;
        if value.map(f64::to_bits) != expect.map(f64::to_bits) {
            return Err(format!("request {i} ({lo}, {hi}]: served answer diverged from {what}"));
        }
        match value {
            Some(v) => out.push_str(&format!("{v}\n")),
            None => out.push_str("NaN\n"),
        }
    }
    print!("{out}");
    Ok(())
}

/// Start the serving engine over a dynamic (`PFD2`) index file. Only
/// dynamic files retain their record set — the compacted base plus any
/// still-buffered deltas, which the engine's dedup-sum ingest folds back
/// into one ground truth — and the engine partitions it into `shards`
/// key ranges. With `wal`, every shard journals to `<dir>/shard-<id>` and
/// fences its journal before each snapshot publish, so every state a
/// read observes is durable and `recover` can rebuild the served state.
fn start_engine(
    index: &str,
    bytes: &[u8],
    shards: usize,
    wal: Option<&str>,
) -> Result<ShardedServer, String> {
    if kind_of(bytes) != Some("dynamic") {
        return Err(format!(
            "{index}: --shards and --wal serve mutable state through the sharded engine, \
             which needs the record set only dynamic (PFD2) index files retain — rebuild \
             with `build --dynamic`, or drop --shards/--wal"
        ));
    }
    let dynamic = DynamicPolyFitSum::from_bytes(bytes).map_err(|e| e.to_string())?;
    let mut records: Vec<Record> = dynamic.base_records().to_vec();
    records.extend(dynamic.buffered_entries().into_iter().map(|(k, dm)| Record::new(k, dm)));
    let cfg = ShardConfig {
        shards,
        buffer_limit: dynamic.buffer_limit(),
        max_shards: shards.max(16),
        ..Default::default()
    };
    match wal {
        Some(dir) => ShardedServer::start_with_wal(
            records,
            dynamic.delta(),
            dynamic.config(),
            cfg,
            Path::new(dir),
            SyncPolicy::Batch,
        )
        .map_err(|e| e.to_string()),
        None => ShardedServer::start(records, dynamic.delta(), dynamic.config(), cfg)
            .map_err(|e| e.to_string()),
    }
}

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Build {
            input,
            output,
            aggregate,
            eps_abs,
            degree,
            backend,
            threads,
            grid,
            stats,
            dynamic,
        } => {
            let text =
                fs::read_to_string(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
            if aggregate == Aggregate::Count2d {
                if dynamic {
                    return Err("--dynamic applies to sum/count indexes only".into());
                }
                if stats {
                    eprintln!("note: --stats applies to sum/count indexes only; ignored");
                }
                let points = csv::parse_points2d(&text)?;
                let config = Quad2dConfig {
                    degree,
                    grid_resolution: grid,
                    backend: if backend == "simplex" {
                        Fit2dBackend::Simplex
                    } else {
                        Fit2dBackend::LeastSquares
                    },
                    ..Default::default()
                };
                // Lemma 6: δ = ε_abs / 4 — a rectangle is 4 corner
                // evaluations, each off by at most δ.
                let opts = BuildOptions::with_threads(threads);
                let idx = QuadPolyFit::build_with(&points, eps_abs / 4.0, config, &opts)
                    .map_err(|e| e.to_string())?;
                let bytes = idx.to_bytes();
                atomic_write(Path::new(&output), &bytes)
                    .map_err(|e| format!("cannot write {output}: {e}"))?;
                println!(
                    "built count2d index: {} patches, {} bytes -> {output}",
                    idx.num_leaves(),
                    bytes.len()
                );
                return Ok(());
            }
            let mut records = csv::parse_records(&text)?;
            if aggregate == Aggregate::Count {
                for r in &mut records {
                    r.measure = 1.0;
                }
            }
            let config =
                PolyFitConfig { degree, backend: backend_of(&backend), ..Default::default() };
            config.validate().map_err(|e| e.to_string())?;
            // `--threads 0` (the default) resolves to available
            // parallelism inside the build pipeline.
            let opts = BuildOptions::with_threads(threads);
            if dynamic && !matches!(aggregate, Aggregate::Sum | Aggregate::Count) {
                return Err("--dynamic applies to sum/count indexes only".into());
            }
            let (bytes, segments, kind) = match aggregate {
                Aggregate::Sum | Aggregate::Count if dynamic => {
                    // Dynamic index: retains the record set, so the file
                    // can seed sharded or WAL-journaled serving.
                    let idx = DynamicPolyFitSum::with_options(
                        records,
                        eps_abs / 2.0,
                        config,
                        1024,
                        &opts,
                    )
                    .map_err(|e| e.to_string())?;
                    (idx.to_bytes(), format!("{} records", idx.base_len()), "dynamic")
                }
                Aggregate::Sum | Aggregate::Count => {
                    // Lemma 2: δ = ε_abs / 2 for SUM-family queries.
                    let idx = PolyFitSum::build_with(records, eps_abs / 2.0, config, &opts)
                        .map_err(|e| e.to_string())?;
                    // --stats embeds the per-segment summaries so a
                    // reloaded index keeps compaction incremental.
                    (
                        idx.to_bytes_with_stats(stats),
                        format!("{} segments", idx.num_segments()),
                        "sum",
                    )
                }
                Aggregate::Max => {
                    if stats {
                        eprintln!("note: --stats applies to sum/count indexes only; ignored");
                    }
                    // Lemma 4: δ = ε_abs.
                    let idx = PolyFitMax::build_with(records, eps_abs, config, &opts)
                        .map_err(|e| e.to_string())?;
                    (idx.to_bytes(), format!("{} segments", idx.num_segments()), "max")
                }
                Aggregate::Min => {
                    if stats {
                        eprintln!("note: --stats applies to sum/count indexes only; ignored");
                    }
                    let idx = PolyFitMax::build_min_with(records, eps_abs, config, &opts)
                        .map_err(|e| e.to_string())?;
                    (idx.to_bytes(), format!("{} segments", idx.num_segments()), "min")
                }
                Aggregate::Count2d => unreachable!("count2d builds return above"),
            };
            // Crash-atomic: temp file + fsync + rename + parent-dir
            // fsync, so a crash mid-write never leaves a torn index.
            atomic_write(Path::new(&output), &bytes)
                .map_err(|e| format!("cannot write {output}: {e}"))?;
            println!("built {kind} index: {segments}, {} bytes -> {output}", bytes.len());
            Ok(())
        }
        Command::Query { index, lo, hi } => {
            let bytes = fs::read(&index).map_err(|e| format!("cannot read {index}: {e}"))?;
            let idx = load_index(&bytes).map_err(|e| format!("{index} is {e}"))?;
            match idx.query(lo, hi) {
                Some(ans) => println!("{}", ans.value),
                None => println!("NaN  # range outside the key domain"),
            }
            Ok(())
        }
        Command::QueryRect { index, rect } => {
            let bytes = fs::read(&index).map_err(|e| format!("cannot read {index}: {e}"))?;
            if kind_of(&bytes) != Some("quad") {
                return Err(format!(
                    "{index}: --rect queries need a 2-D (PFQ1) index — build one with \
                     `build --aggregate count2d`"
                ));
            }
            let idx = QuadPolyFit::from_bytes(&bytes).map_err(|e| e.to_string())?;
            let (u_lo, u_hi, v_lo, v_hi) = rect;
            match AggregateIndex2d::query_rect(&idx, u_lo, u_hi, v_lo, v_hi) {
                Some(ans) => println!("{}", ans.value),
                None => println!("NaN  # non-finite rectangle bounds"),
            }
            Ok(())
        }
        Command::QueryBatch { index, batch_file } => {
            let bytes = fs::read(&index).map_err(|e| format!("cannot read {index}: {e}"))?;
            let text = fs::read_to_string(&batch_file)
                .map_err(|e| format!("cannot read {batch_file}: {e}"))?;
            // 2-D indexes take 4-field rectangle rows, answered one
            // compiled rect at a time; everything else takes `lo,hi` ranges.
            if kind_of(&bytes) == Some("quad") {
                let idx = QuadPolyFit::from_bytes(&bytes).map_err(|e| e.to_string())?;
                let rects = parse_rects(&text)?;
                let mut out = String::with_capacity(rects.len() * 16);
                for ans in AggregateIndex2d::query_batch_rect(&idx, &rects) {
                    match ans {
                        Some(a) => out.push_str(&format!("{}\n", a.value)),
                        None => out.push_str("NaN\n"),
                    }
                }
                print!("{out}");
                return Ok(());
            }
            let idx = load_index(&bytes).map_err(|e| format!("{index} is {e}"))?;
            let ranges = parse_ranges(&text)?;
            // One 8-lane batch engine pass over the whole file.
            let mut out = String::with_capacity(ranges.len() * 16);
            for ans in idx.query_batch(&ranges) {
                match ans {
                    Some(a) => out.push_str(&format!("{}\n", a.value)),
                    None => out.push_str("NaN\n"),
                }
            }
            print!("{out}");
            Ok(())
        }
        Command::Serve { index, requests, clients, shards, wal, failpoints } => {
            // Arm the requested fault schedule before any server thread
            // starts. Without the `failpoints` feature `configure_str`
            // rejects every arm, so a default build refuses the flag
            // loudly instead of silently serving fault-free.
            for arm in &failpoints {
                polyfit::failpoint::configure_str(arm)
                    .map_err(|e| format!("--failpoint {arm}: {e}"))?;
            }
            let bytes = fs::read(&index).map_err(|e| format!("cannot read {index}: {e}"))?;
            let text = fs::read_to_string(&requests)
                .map_err(|e| format!("cannot read {requests}: {e}"))?;
            let ranges = parse_ranges(&text).map_err(|e| format!("{requests}: {e}"))?;
            if shards.is_none() && wal.is_none() {
                // An immutable index needs no serving loop: every client
                // thread queries the one shared index directly.
                let shared: SharedIndex =
                    Arc::from(load_index(&bytes).map_err(|e| format!("{index} is {e}"))?);
                let (answers, wall) =
                    replay(&ranges, clients, || |lo, hi| Ok(shared.query(lo, hi).map(|a| a.value)));
                let batch = shared.query_batch(&ranges);
                verify_and_print(
                    &ranges,
                    &answers,
                    batch.iter().map(|a| a.map(|a| a.value)),
                    "query_batch",
                )?;
                println!(
                    "# served {} requests in {:.3} ms ({:.0} req/s) — answered directly on \
                     {clients} client threads, bitwise-verified against query_batch",
                    ranges.len(),
                    wall * 1e3,
                    ranges.len() as f64 / wall,
                );
                return Ok(());
            }
            let server = start_engine(&index, &bytes, shards.unwrap_or(1), wal.as_deref())?;
            let (answers, wall) = replay(&ranges, clients, || {
                let handle = server.handle();
                move |lo, hi| {
                    let served = handle.query_served(lo, hi);
                    if served.poisoned {
                        Err("poisoned — a shard worker was lost".to_string())
                    } else {
                        Ok(served.value())
                    }
                }
            });
            // A replay submits no updates, so the wait-free composed
            // snapshot read (same per-shard state, same clip-and-merge
            // composition) is a stable oracle for every served answer.
            let control = server.handle();
            let snapshots: Vec<ShardServed> =
                ranges.iter().map(|&(lo, hi)| control.snapshot_query(lo, hi)).collect();
            let spanning = snapshots.iter().filter(|s| s.shards.len() > 1).count();
            let verified = verify_and_print(
                &ranges,
                &answers,
                snapshots.iter().map(ShardServed::value),
                "composed snapshot read",
            );
            let stats = server.shutdown();
            verified?;
            println!(
                "# served {} requests in {:.3} ms ({:.0} req/s) — {} shard(s), {} spanning{}, \
                 bitwise-verified",
                ranges.len(),
                wall * 1e3,
                ranges.len() as f64 / wall,
                stats.shards.len(),
                spanning,
                wal.map(|dir| format!(", journaled to {dir}")).unwrap_or_default(),
            );
            Ok(())
        }
        Command::Recover { wal, output } => {
            let dir = Path::new(&wal);
            if LayoutLog::exists(dir) {
                // Sharded WAL (what `serve --wal` writes): replay the
                // layout lineage, then each surviving shard independently.
                // The recovered server is live (and durable again); with
                // compaction off it cannot re-segment the recovered state
                // before shutting down cleanly.
                let cfg = ShardConfig { compaction_budget: 0, ..ShardConfig::default() };
                let (server, reports) = ShardedServer::recover(dir, cfg, SyncPolicy::Batch)
                    .map_err(|e| format!("cannot recover {wal}: {e}"))?;
                for (id, r) in &reports {
                    println!(
                        "shard-{id}: checkpoint seq {}, replayed {} updates + {} swap(s) \
                         -> head {}{}",
                        r.checkpoint_seq,
                        r.replayed_updates,
                        r.replayed_swaps,
                        r.head_seq,
                        torn_note(r.truncated_bytes),
                    );
                }
                let stats = server.shutdown();
                println!(
                    "recovered {} shards from {wal} (journals resumed in their newest segments)",
                    stats.shards.len()
                );
                if let Some(out) = output {
                    let [(id, _)] = reports.as_slice() else {
                        return Err(format!(
                            "--output writes one index, but {wal} holds {} shards; their state \
                             lives in the per-shard checkpoints under the WAL dir",
                            reports.len()
                        ));
                    };
                    // Shutdown synced the shard's journal: read it back as
                    // one index.
                    let (index, _) = DynamicPolyFitSum::recover(dir, &shard_wal_name(*id))
                        .map_err(|e| format!("cannot recover {wal}: {e}"))?;
                    atomic_write(Path::new(&out), &index.to_bytes())
                        .map_err(|e| format!("cannot write {out}: {e}"))?;
                    println!("wrote recovered index -> {out}");
                }
                Ok(())
            } else {
                let (index, r) = DynamicPolyFitSum::recover(dir, "serve")
                    .map_err(|e| format!("cannot recover {wal}: {e}"))?;
                println!(
                    "recovered: checkpoint seq {}, replayed {} updates + {} swaps -> head {}{}",
                    r.checkpoint_seq,
                    r.replayed_updates,
                    r.replayed_swaps,
                    r.head_seq,
                    torn_note(r.truncated_bytes),
                );
                println!(
                    "state:     {} base records, {} buffered deltas, {} rebuilds",
                    index.base_len(),
                    index.buffered(),
                    index.rebuilds(),
                );
                if let Some(out) = output {
                    atomic_write(Path::new(&out), &index.to_bytes())
                        .map_err(|e| format!("cannot write {out}: {e}"))?;
                    println!("wrote recovered index -> {out}");
                }
                Ok(())
            }
        }
        Command::Info { index, wal } => {
            let bytes = fs::read(&index).map_err(|e| format!("cannot read {index}: {e}"))?;
            let report: Result<(), String> = match kind_of(&bytes) {
                Some("sum") => {
                    let idx = PolyFitSum::from_bytes(&bytes).map_err(|e| e.to_string())?;
                    println!("kind:      SUM/COUNT (CF difference queries)");
                    println!("segments:  {}", idx.num_segments());
                    println!("delta:     {} (answers within 2δ at key endpoints)", idx.delta());
                    println!("domain:    [{}, {}]", idx.domain().0, idx.domain().1);
                    println!("total:     {}", idx.total());
                    println!("file size: {} bytes", bytes.len());
                    match (idx.segment_stats(), idx.segment_stats_summary()) {
                        (Some(stats), Some(s)) => {
                            let mean_mass = stats.iter().map(SegmentStats::mass).sum::<f64>()
                                / stats.len() as f64;
                            println!(
                                "seg stats: spans {}..{} records (mean {:.1}), \
                                 worst residual {:.4} ({:.0}% of δ), \
                                 mass {} ({:.1}/segment)",
                                s.min_span,
                                s.max_span,
                                s.mean_span,
                                s.max_residual,
                                if idx.delta() > 0.0 {
                                    s.max_residual / idx.delta() * 100.0
                                } else {
                                    0.0
                                },
                                s.total_mass,
                                mean_mass,
                            );
                        }
                        _ => println!("seg stats: absent (built without --stats)"),
                    }
                    Ok(())
                }
                Some("max") => {
                    let idx = PolyFitMax::from_bytes(&bytes).map_err(|e| e.to_string())?;
                    match idx.orientation() {
                        Extremum::Max => println!("kind:      MAX (staircase extremum queries)"),
                        Extremum::Min => println!("kind:      MIN (staircase extremum queries)"),
                    }
                    println!("segments:  {}", idx.num_segments());
                    println!("delta:     {} (answers within δ, any endpoints)", idx.delta());
                    println!("domain:    [{}, {}]", idx.domain().0, idx.domain().1);
                    println!("file size: {} bytes", bytes.len());
                    Ok(())
                }
                Some("dynamic") => {
                    let idx = DynamicPolyFitSum::from_bytes(&bytes).map_err(|e| e.to_string())?;
                    println!("kind:      DYNAMIC SUM (base index + exact update buffer)");
                    println!("base:      {} records", idx.base_len());
                    println!(
                        "buffered:  {} pending deltas (compaction at {})",
                        idx.buffered(),
                        idx.buffer_limit()
                    );
                    println!("rebuilds:  {}", idx.rebuilds());
                    println!("delta:     {} (answers within 2δ at key endpoints)", idx.delta());
                    println!("file size: {} bytes", bytes.len());
                    // Provenance: how this state came to be — compaction
                    // lineage plus the exact buffer still riding on top.
                    println!(
                        "provenance: {} compaction swap(s) folded buffered updates into the \
                         base; {} delta(s) pending on top of {} base records",
                        idx.rebuilds(),
                        idx.buffered(),
                        idx.base_len(),
                    );
                    Ok(())
                }
                Some("quad") => {
                    let idx = QuadPolyFit::from_bytes(&bytes).map_err(|e| e.to_string())?;
                    println!("kind:      2-D COUNT (quadtree patches, 4-corner rectangles)");
                    println!("patches:   {}", idx.num_leaves());
                    println!("delta:     {} (rectangle answers within 4δ)", idx.delta());
                    println!("max error: {} worst certified leaf residual", idx.max_leaf_error());
                    if idx.uncertified_leaves() > 0 {
                        println!(
                            "warning:   {} leaves hit the depth/lattice floor above δ",
                            idx.uncertified_leaves()
                        );
                    }
                    let (u_lo, u_hi, v_lo, v_hi) = idx.bbox();
                    println!("grid:      {g}x{g} lattice", g = idx.grid_resolution());
                    println!("domain:    [{u_lo}, {u_hi}] x [{v_lo}, {v_hi}]");
                    println!("total:     {}", idx.total());
                    println!("arena:     {} bytes compiled", idx.directory().arena_bytes());
                    println!("file size: {} bytes", bytes.len());
                    Ok(())
                }
                _ => Err(format!("{index} is not a PolyFit index file")),
            };
            report?;
            if let Some(dir) = wal {
                wal_status(&dir)?;
            }
            Ok(())
        }
    }
}

/// Human note for a torn/corrupt tail cut during scan or recovery.
fn torn_note(truncated: u64) -> String {
    if truncated == 0 {
        String::new()
    } else {
        format!(" (torn tail: {truncated} bytes truncated)")
    }
}

/// `info --wal <dir>`: per journal, the checkpoint a recovery would load,
/// the live log segments it would read, and the updates and compaction
/// swaps it would replay. Read-only: torn tails are reported, not
/// truncated.
fn wal_status(dir_str: &str) -> Result<(), String> {
    print!("{}", wal_report(dir_str)?);
    Ok(())
}

fn wal_report(dir_str: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let dir = Path::new(dir_str);
    // Enumerate journals by their checkpoint files; the sharded layout
    // journal (routing table) is reported separately.
    let mut names: Vec<String> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read WAL dir {dir_str}: {e}"))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?.strip_suffix(".ckpt")?.to_string();
            (name != "layout").then_some(name)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{dir_str}: no journal checkpoints found"));
    }
    let mut out = String::new();
    if LayoutLog::exists(dir) {
        let _ = writeln!(out, "wal:       sharded journal ({} shard(s)) in {dir_str}", names.len());
    } else {
        let _ = writeln!(out, "wal:       single journal in {dir_str}");
    }
    for name in &names {
        let plan = plan_replay(dir, name).map_err(|e| format!("{name}: {e}"))?;
        let segments = match (plan.chain.first(), plan.chain.last()) {
            (Some(a), Some(b)) if a.number == b.number => format!("segment {}", a.number),
            (Some(a), Some(b)) => format!("segments {}..={}", a.number, b.number),
            _ => "no segment".to_string(),
        };
        // A trailing all-zero region is the segment's untouched
        // preallocation, not crash damage — only report real garbage.
        let torn: u64 = plan
            .chain
            .iter()
            .filter(|s| s.scan.truncated())
            .map(|s| s.scan.file_len - s.scan.valid_len)
            .sum();
        let _ = writeln!(
            out,
            "  {name}: checkpoint seq {} ({} rebuilds); live {segments}; recovery replays {} \
             update(s) + {} swap(s) -> head {}{}",
            plan.checkpoint.updates_applied,
            plan.checkpoint.rebuilds,
            plan.updates.len(),
            plan.swaps.len(),
            plan.head_seq,
            torn_note(torn),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("polyfit-cli-tests");
        let _ = fs::create_dir_all(&dir);
        dir.join(name).to_string_lossy().into_owned()
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn end_to_end_sum_roundtrip() {
        let data = tmp("sum.csv");
        let idx = tmp("sum.pf");
        let rows: String = (0..2000).map(|i| format!("{i},2\n")).collect();
        fs::write(&data, rows).unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate sum --eps-abs 50"
        )))
        .unwrap())
        .unwrap();
        // Reload and check a query against the exact answer.
        let bytes = fs::read(&idx).unwrap();
        let loaded = PolyFitSum::from_bytes(&bytes).unwrap();
        let approx = loaded.query(99.0, 1099.0);
        assert!((approx - 2000.0).abs() <= 50.0, "approx {approx}");
        run(parse(&argv(&format!("info --index {idx}"))).unwrap()).unwrap();
        run(parse(&argv(&format!("query --index {idx} --lo 99 --hi 1099"))).unwrap()).unwrap();
    }

    #[test]
    fn end_to_end_max_roundtrip() {
        let data = tmp("max.csv");
        let idx = tmp("max.pf");
        let rows: String =
            (0..1000).map(|i| format!("{i},{}\n", 100.0 + (i as f64 * 0.1).sin() * 30.0)).collect();
        fs::write(&data, rows).unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate max --eps-abs 5"
        )))
        .unwrap())
        .unwrap();
        let bytes = fs::read(&idx).unwrap();
        assert_eq!(kind_of(&bytes), Some("max"));
        let loaded = PolyFitMax::from_bytes(&bytes).unwrap();
        assert!(loaded.query_max(100.0, 900.0).is_some());
    }

    #[test]
    fn min_index_answers_minima_through_query_path() {
        let data = tmp("min.csv");
        let idx = tmp("min.pf");
        // Alternating measures 3 / 9: MIN over any window ≈ 3, MAX ≈ 9.
        let rows: String =
            (0..500).map(|i| format!("{i},{}\n", if i % 2 == 0 { 3 } else { 9 })).collect();
        fs::write(&data, rows).unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate min --eps-abs 1"
        )))
        .unwrap())
        .unwrap();
        let loaded = load_index(&fs::read(&idx).unwrap()).unwrap();
        let ans = loaded.query(50.0, 400.0).unwrap();
        assert!((ans.value - 3.0).abs() <= 1.0 + 1e-9, "min query answered {}", ans.value);
        run(parse(&argv(&format!("info --index {idx}"))).unwrap()).unwrap();
    }

    #[test]
    fn count_aggregate_forces_unit_measures() {
        let data = tmp("count.csv");
        let idx = tmp("count.pf");
        fs::write(&data, "1,99\n2,99\n3,99\n4,99\n").unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate count --eps-abs 2"
        )))
        .unwrap())
        .unwrap();
        let loaded = PolyFitSum::from_bytes(&fs::read(&idx).unwrap()).unwrap();
        assert!((loaded.total() - 4.0).abs() < 1e-9, "total {}", loaded.total());
    }

    #[test]
    fn query_rejects_non_index_files() {
        let bogus = tmp("bogus.pf");
        fs::write(&bogus, b"hello world").unwrap();
        let err = run(Command::Query { index: bogus, lo: 0.0, hi: 1.0 }).unwrap_err();
        assert!(err.contains("not a PolyFit index"));
    }

    #[test]
    fn build_rejects_missing_input() {
        let err = run(Command::Build {
            input: tmp("does-not-exist.csv"),
            output: tmp("x.pf"),
            aggregate: Aggregate::Sum,
            eps_abs: 1.0,
            degree: 2,
            backend: "exchange".into(),
            threads: 0,
            grid: 1024,
            stats: false,
            dynamic: false,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn stats_flag_embeds_segment_statistics() {
        let data = tmp("stats.csv");
        let lean = tmp("stats-lean.pf");
        let rich = tmp("stats-rich.pf");
        let rows: String = (0..1500).map(|i| format!("{i},3\n")).collect();
        fs::write(&data, rows).unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {lean} --aggregate sum --eps-abs 40"
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {rich} --aggregate sum --eps-abs 40 --stats"
        )))
        .unwrap())
        .unwrap();
        let lean_idx = PolyFitSum::from_bytes(&fs::read(&lean).unwrap()).unwrap();
        let rich_idx = PolyFitSum::from_bytes(&fs::read(&rich).unwrap()).unwrap();
        assert!(lean_idx.segment_stats().is_none(), "default build strips stats");
        let stats = rich_idx.segment_stats().expect("--stats embeds the block");
        assert_eq!(stats.len(), rich_idx.num_segments());
        // Queries agree bitwise regardless of the stats block.
        for i in 0..40 {
            let (l, u) = (i as f64 * 9.0, i as f64 * 9.0 + 300.0);
            assert_eq!(lean_idx.query(l, u).to_bits(), rich_idx.query(l, u).to_bits());
        }
        // `info` renders the summary on both flavours.
        run(parse(&argv(&format!("info --index {rich}"))).unwrap()).unwrap();
        run(parse(&argv(&format!("info --index {lean}"))).unwrap()).unwrap();
    }

    #[test]
    fn threaded_build_and_batch_query_roundtrip() {
        let data = tmp("batch.csv");
        let idx = tmp("batch.pf");
        let ranges = tmp("batch-ranges.csv");
        let rows: String = (0..3000).map(|i| format!("{i},1\n")).collect();
        fs::write(&data, rows).unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate sum --eps-abs 50 --threads 2"
        )))
        .unwrap())
        .unwrap();
        fs::write(&ranges, "# lo,hi pairs\n99,1099\n1,2\n2000,1000\n").unwrap();
        run(parse(&argv(&format!("query --index {idx} --batch-file {ranges}"))).unwrap()).unwrap();
        // The batch path must agree with the sequential trait query.
        let loaded = load_index(&fs::read(&idx).unwrap()).unwrap();
        let parsed = super::parse_ranges(&fs::read_to_string(&ranges).unwrap()).unwrap();
        let batch = loaded.query_batch(&parsed);
        for (i, &(lo, hi)) in parsed.iter().enumerate() {
            assert_eq!(
                batch[i].map(|a| a.value.to_bits()),
                loaded.query(lo, hi).map(|a| a.value.to_bits())
            );
        }
    }

    #[test]
    fn batch_file_parse_errors_are_reported() {
        assert!(parse_ranges("").is_err());
        assert!(parse_ranges("1,2\nbogus\n").is_err());
        assert_eq!(parse_ranges("# c\n 1 , 2 \n\n3,4\n").unwrap(), vec![(1.0, 2.0), (3.0, 4.0)]);
    }

    /// Builds a small SUM index file for the batch/serve regressions.
    fn built_index(name: &str) -> String {
        let data = tmp(&format!("{name}.csv"));
        let idx = tmp(&format!("{name}.pf"));
        let rows: String = (0..1000).map(|i| format!("{i},1\n")).collect();
        fs::write(&data, rows).unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate sum --eps-abs 20"
        )))
        .unwrap())
        .unwrap();
        idx
    }

    /// Satellite regression: empty files, comment-only files, trailing
    /// newlines/CRLF, and malformed rows each produce a line-numbered
    /// `Err` (or succeed) through the real `query --batch-file` path —
    /// never a panic.
    #[test]
    fn batch_file_edge_cases_error_cleanly() {
        let idx = built_index("batch-edges");
        let run_batch = |name: &str, content: &str| -> Result<(), String> {
            let f = tmp(name);
            fs::write(&f, content).unwrap();
            run(Command::QueryBatch { index: idx.clone(), batch_file: f })
        };
        // Empty file: a specific error, not a panic or silent success.
        let err = run_batch("edge-empty.csv", "").unwrap_err();
        assert!(err.contains("no ranges") && err.contains("empty"), "{err}");
        // Only comments and blank lines.
        let err = run_batch("edge-comments.csv", "# header\n\n   \n# more\n").unwrap_err();
        assert!(err.contains("no ranges"), "{err}");
        // Trailing newlines and CRLF line endings are fine.
        run_batch("edge-trailing.csv", "1,2\n10,900\n\n\n").unwrap();
        run_batch("edge-crlf.csv", "1,2\r\n10,900\r\n").unwrap();
        // Malformed rows carry their 1-based line number.
        let err = run_batch("edge-malformed.csv", "1,2\nbogus\n3,4\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = run_batch("edge-missing.csv", "1,2\n3\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = run_batch("edge-extra.csv", "1,2\n\n3,4,5\n").unwrap_err();
        assert!(err.contains("line 3") && err.contains("two fields"), "{err}");
        let err = run_batch("edge-nonnum.csv", "1,x\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn serve_replays_request_file_end_to_end() {
        let idx = built_index("serve-e2e");
        let reqs = tmp("serve-reqs.csv");
        // Proper, reversed, degenerate, and out-of-domain ranges are all
        // answered directly on the client threads (the bitwise check
        // against query_batch runs inside `run`).
        fs::write(&reqs, "10,500\n900,100\n# comment\n5,5\n-50,-10\n0,999\n").unwrap();
        run(parse(&argv(&format!("serve --index {idx} --requests {reqs} --clients 2"))).unwrap())
            .unwrap();
        // Malformed request files fail up front with the line number.
        let bad = tmp("serve-bad.csv");
        fs::write(&bad, "1,2\nnope\n").unwrap();
        let err = run(parse(&argv(&format!("serve --index {idx} --requests {bad}"))).unwrap())
            .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn serve_shards_requests_through_dynamic_index_end_to_end() {
        // Sharded serving needs records, so the index file must be a
        // dynamic (PFD2) one — write it through the library, including a
        // few still-buffered updates the sharded ingest must fold in.
        let records: Vec<Record> = (0..1500).map(|i| Record::new(i as f64, 2.0)).collect();
        let mut dynamic =
            DynamicPolyFitSum::new(records, 25.0, PolyFitConfig::default(), 4096).unwrap();
        dynamic.insert(250.5, 7.0);
        dynamic.insert(1000.25, -3.0);
        let idx = tmp("serve-sharded.pfd");
        fs::write(&idx, dynamic.to_bytes()).unwrap();
        let reqs = tmp("serve-sharded-reqs.csv");
        // Point-in-one-shard, spanning, reversed, degenerate, and
        // out-of-domain ranges all flow through the sharded path (the
        // bitwise check against snapshot reads runs inside `run`).
        fs::write(&reqs, "10,300\n900,100\n# comment\n5,5\n-50,-10\n0,1499\n700,800\n").unwrap();
        run(parse(&argv(&format!("serve --index {idx} --requests {reqs} --clients 2 --shards 2")))
            .unwrap())
        .unwrap();
        // A static index file cannot be sharded — refused with a hint,
        // not a panic.
        let static_idx = built_index("serve-sharded-static");
        let err =
            run(parse(&argv(&format!("serve --index {static_idx} --requests {reqs} --shards 2")))
                .unwrap())
            .unwrap_err();
        assert!(err.contains("PFD2"), "{err}");
        // The dynamic file also flows through info, and without --shards
        // or --wal it is answered directly like any immutable index.
        run(parse(&argv(&format!("info --index {idx}"))).unwrap()).unwrap();
        run(parse(&argv(&format!("serve --index {idx} --requests {reqs} --clients 2"))).unwrap())
            .unwrap();
    }

    /// Fresh WAL directory for a CLI durability test.
    fn wal_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join("polyfit-cli-wal-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn build_dynamic_serve_wal_recover_roundtrip() {
        // The full CLI durability cycle: build --dynamic, serve --wal,
        // recover, recover --output — the recovered file is bitwise the
        // served state (a pure query replay applies no updates).
        let data = tmp("wal-cycle.csv");
        let idx = tmp("wal-cycle.pfd");
        let rows: String = (0..1200).map(|i| format!("{i},2\n")).collect();
        fs::write(&data, rows).unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate sum --eps-abs 30 --dynamic"
        )))
        .unwrap())
        .unwrap();
        let bytes = fs::read(&idx).unwrap();
        assert_eq!(kind_of(&bytes), Some("dynamic"), "--dynamic writes a PFD2 file");

        let reqs = tmp("wal-cycle-reqs.csv");
        fs::write(&reqs, "10,500\n900,100\n5,5\n-50,-10\n0,1199\n").unwrap();
        let wal = wal_dir("cycle");
        run(parse(&argv(&format!(
            "serve --index {idx} --requests {reqs} --clients 2 --wal {wal}"
        )))
        .unwrap())
        .unwrap();
        // The journal now exists: info --wal reports its replay cursor,
        // and recover rebuilds the exact served state.
        run(parse(&argv(&format!("info --index {idx} --wal {wal}"))).unwrap()).unwrap();
        run(parse(&argv(&format!("recover --wal {wal}"))).unwrap()).unwrap();
        let out = tmp("wal-cycle-recovered.pfd");
        run(parse(&argv(&format!("recover --wal {wal} --output {out}"))).unwrap()).unwrap();
        let recovered = fs::read(&out).unwrap();
        assert_eq!(recovered, bytes, "recovered index is bitwise the served state");

        // --wal refuses static index files with a hint, not a panic.
        let static_idx = built_index("wal-static");
        let err =
            run(parse(&argv(&format!("serve --index {static_idx} --requests {reqs} --wal {wal}")))
                .unwrap())
            .unwrap_err();
        assert!(err.contains("PFD2"), "{err}");
    }

    #[test]
    fn sharded_serve_wal_recover_roundtrip() {
        let data = tmp("wal-sharded.csv");
        let idx = tmp("wal-sharded.pfd");
        let rows: String = (0..1000).map(|i| format!("{i},3\n")).collect();
        fs::write(&data, rows).unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate sum --eps-abs 30 --dynamic"
        )))
        .unwrap())
        .unwrap();
        let reqs = tmp("wal-sharded-reqs.csv");
        fs::write(&reqs, "10,300\n900,100\n5,5\n0,999\n700,800\n").unwrap();
        let wal = wal_dir("sharded");
        run(parse(&argv(&format!(
            "serve --index {idx} --requests {reqs} --clients 2 --shards 2 --wal {wal}"
        )))
        .unwrap())
        .unwrap();
        // Sharded recovery replays the layout journal + every shard.
        run(parse(&argv(&format!("info --index {idx} --wal {wal}"))).unwrap()).unwrap();
        let report = wal_report(&wal).unwrap();
        for id in 0..2 {
            let line = format!(
                "shard-{id}: checkpoint seq 0 (0 rebuilds); live segment 0; recovery replays 0 \
                 update(s) + 0 swap(s) -> head 0"
            );
            assert!(report.contains(&line), "{report}");
        }
        run(parse(&argv(&format!("recover --wal {wal}"))).unwrap()).unwrap();
        // --output writes one index, so two shards are refused.
        let out = tmp("wal-sharded-out.pfd");
        let err =
            run(parse(&argv(&format!("recover --wal {wal} --output {out}"))).unwrap()).unwrap_err();
        assert!(err.contains("holds 2 shards"), "{err}");
    }

    #[test]
    fn info_wal_reports_segments_and_the_replay_a_recovery_runs() {
        // A journal with writes: one shard, small buffer, compaction on,
        // so swaps land and every second one checkpoints into a new
        // segment.
        let wal = wal_dir("segments");
        let records: Vec<Record> = (0..400).map(|i| Record::new(i as f64, 1.0)).collect();
        let cfg = ShardConfig { buffer_limit: 16, ..ShardConfig::default() };
        let dir = Path::new(&wal);
        let server = ShardedServer::start_with_wal(
            records,
            10.0,
            PolyFitConfig::default(),
            cfg,
            dir,
            SyncPolicy::Batch,
        )
        .unwrap();
        let handle = server.handle();
        let ckpt_path = polyfit::wal::checkpoint_path(dir, "shard-0");
        let checkpointed = || polyfit::wal::read_checkpoint(&ckpt_path).unwrap().rebuilds > 0;
        let mut n = 0;
        while (server.stats().shards[0].rebuilds < 3 || !checkpointed()) && n < 5_000 {
            for _ in 0..20 {
                handle.insert(0.5 + n as f64, 1.0).unwrap();
                n += 1;
            }
            assert!(!handle.query_served(0.0, 1e6).poisoned);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let swaps = server.shutdown().shards[0].rebuilds;
        assert!(swaps >= 3, "compaction swapped {swaps} times");
        // The line names the checkpoint on disk and replays exactly the
        // updates and swaps after it.
        let ckpt = polyfit::wal::read_checkpoint(&ckpt_path).unwrap();
        assert!(ckpt.rebuilds >= 1, "no checkpoint after {swaps} swaps");
        let head = format!("-> head {n}");
        let line = format!(
            "shard-0: checkpoint seq {} ({} rebuilds); live segment",
            ckpt.updates_applied, ckpt.rebuilds
        );
        let replay = format!(
            "recovery replays {} update(s) + {} swap(s) {head}",
            n - ckpt.updates_applied,
            swaps - ckpt.rebuilds
        );
        let report = wal_report(&wal).unwrap();
        assert!(report.contains(&line) && report.contains(&replay), "{report}");
        // Recovery resumes the journal: the replay it reports matches.
        run(parse(&argv(&format!("recover --wal {wal}"))).unwrap()).unwrap();
        let again = wal_report(&wal).unwrap();
        assert!(again.lines().any(|l| l.ends_with(&head)), "{again}");
    }

    #[test]
    fn crafted_counts_end_in_typed_errors_not_aborts() {
        // A 44-byte PFS2 file whose segment count reads u32::MAX.
        let mut pfs2 = b"PFS2".to_vec();
        pfs2.extend_from_slice(&0u32.to_le_bytes());
        for v in [1.0f64, 10.0, 0.0, 9.0] {
            pfs2.extend_from_slice(&v.to_le_bytes());
        }
        pfs2.extend_from_slice(&u32::MAX.to_le_bytes());
        let idx = tmp("crafted-count.pf");
        fs::write(&idx, &pfs2).unwrap();
        let err = run(parse(&argv(&format!("info --index {idx}"))).unwrap()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // A 16-byte layout checkpoint with a valid FNV-1a checksum and
        // shard count u32::MAX.
        let wal = wal_dir("crafted-layout");
        fs::create_dir_all(&wal).unwrap();
        let body = u32::MAX.to_le_bytes();
        let fnv = body
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
        let mut layout = b"PFL1".to_vec();
        layout.extend_from_slice(&fnv.to_le_bytes());
        layout.extend_from_slice(&body);
        fs::write(Path::new(&wal).join("layout.ckpt"), &layout).unwrap();
        let err = run(parse(&argv(&format!("recover --wal {wal}"))).unwrap()).unwrap_err();
        assert!(err.contains("cannot recover") && err.contains("truncated"), "{err}");
    }

    #[test]
    fn recover_reads_single_journal_dirs_from_earlier_builds() {
        // Earlier builds' `serve --wal` journaled one index as `serve.*`.
        let wal = wal_dir("single-journal");
        let records: Vec<Record> = (0..800).map(|i| Record::new(i as f64, 1.0)).collect();
        let mut live =
            DynamicPolyFitSum::new(records, 20.0, PolyFitConfig::default(), 4096).unwrap();
        live.attach_wal(Path::new(&wal), "serve", SyncPolicy::Batch, 0).unwrap();
        live.insert(10.5, 3.0);
        live.detach_wal().unwrap();
        let out = tmp("single-journal-recovered.pfd");
        run(parse(&argv(&format!("recover --wal {wal} --output {out}"))).unwrap()).unwrap();
        assert_eq!(fs::read(&out).unwrap(), live.to_bytes(), "recovered bytes are the live state");
    }

    #[test]
    fn recover_reports_missing_wal_dir() {
        let wal = wal_dir("missing");
        let err = run(parse(&argv(&format!("recover --wal {wal}"))).unwrap()).unwrap_err();
        assert!(err.contains("cannot recover"), "{err}");
    }

    /// Builds a small 2-D (PFQ1) index file from hashed `u,v` rows.
    fn built_quad_index(name: &str) -> String {
        let data = tmp(&format!("{name}.csv"));
        let idx = tmp(&format!("{name}.pfq"));
        let rows: String = (0..2000)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let u = (h >> 40) as f64 / 167.0;
                let v = ((h >> 16) & 0xFF_FFFF) as f64 / 167_772.0;
                format!("{u},{v}\n")
            })
            .collect();
        fs::write(&data, rows).unwrap();
        run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate count2d --eps-abs 100 \
             --grid 64 --threads 2"
        )))
        .unwrap())
        .unwrap();
        idx
    }

    #[test]
    fn end_to_end_count2d_roundtrip() {
        let idx = built_quad_index("quad-e2e");
        let bytes = fs::read(&idx).unwrap();
        assert_eq!(kind_of(&bytes), Some("quad"), "count2d builds write PFQ1 files");
        // Rect queries, batch rects, and info all flow through `run`.
        run(parse(&argv(&format!("query --index {idx} --rect 10 90 10 90"))).unwrap()).unwrap();
        run(parse(&argv(&format!("info --index {idx}"))).unwrap()).unwrap();
        let rects = tmp("quad-e2e-rects.csv");
        fs::write(&rects, "# u_lo,u_hi,v_lo,v_hi\n10,90,10,90\n50,40,0,100\n5,5,5,5\nnan,1,2,3\n")
            .unwrap();
        run(parse(&argv(&format!("query --index {idx} --batch-file {rects}"))).unwrap()).unwrap();
        // The batch path agrees bitwise with per-rect trait queries.
        let loaded = QuadPolyFit::from_bytes(&bytes).unwrap();
        let parsed = super::parse_rects(&fs::read_to_string(&rects).unwrap()).unwrap();
        let batch = AggregateIndex2d::query_batch_rect(&loaded, &parsed);
        for (i, &(ul, uh, vl, vh)) in parsed.iter().enumerate() {
            assert_eq!(
                batch[i].map(|a| a.value.to_bits()),
                AggregateIndex2d::query_rect(&loaded, ul, uh, vl, vh).map(|a| a.value.to_bits()),
            );
        }
        // The approximation is within the advertised 4δ of exact: the
        // whole-domain rectangle must account for every point.
        let (u_lo, u_hi, v_lo, v_hi) = loaded.bbox();
        let whole = AggregateIndex2d::query_rect(&loaded, u_lo, u_hi, v_lo, v_hi).unwrap();
        assert!((whole.value - 2000.0).abs() <= 4.0 * loaded.delta() + 1e-9, "{}", whole.value);
    }

    #[test]
    fn quad_files_rejected_by_scalar_paths_with_hint() {
        let idx = built_quad_index("quad-reject");
        // Scalar query / serve refuse with a pointer to --rect.
        let err =
            run(parse(&argv(&format!("query --index {idx} --lo 0 --hi 1"))).unwrap()).unwrap_err();
        assert!(err.contains("--rect"), "{err}");
        let reqs = tmp("quad-reject-reqs.csv");
        fs::write(&reqs, "1,2\n").unwrap();
        let err = run(parse(&argv(&format!("serve --index {idx} --requests {reqs}"))).unwrap())
            .unwrap_err();
        assert!(err.contains("PFQ1"), "{err}");
        // And the other direction: --rect against a 1-D file.
        let sum_idx = built_index("quad-reject-sum");
        let err = run(parse(&argv(&format!("query --index {sum_idx} --rect 0 1 0 1"))).unwrap())
            .unwrap_err();
        assert!(err.contains("count2d"), "{err}");
    }

    #[test]
    fn count2d_rejects_dynamic_and_1d_input() {
        let data = tmp("quad-bad.csv");
        fs::write(&data, "1,2\n3,4\n").unwrap();
        let idx = tmp("quad-bad.pfq");
        let err = run(parse(&argv(&format!(
            "build --input {data} --output {idx} --aggregate count2d --eps-abs 10 --dynamic"
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("--dynamic"), "{err}");
    }

    #[test]
    fn rect_batch_file_errors_carry_line_numbers() {
        let idx = built_quad_index("quad-batch-edges");
        let run_batch = |name: &str, content: &str| -> Result<(), String> {
            let f = tmp(name);
            fs::write(&f, content).unwrap();
            run(Command::QueryBatch { index: idx.clone(), batch_file: f })
        };
        let err = run_batch("quad-edge-empty.csv", "").unwrap_err();
        assert!(err.contains("no rectangles") && err.contains("empty"), "{err}");
        let err = run_batch("quad-edge-short.csv", "1,2,3,4\n1,2,3\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = run_batch("quad-edge-extra.csv", "\n1,2,3,4,5\n").unwrap_err();
        assert!(err.contains("line 2") && err.contains("four fields"), "{err}");
        let err = run_batch("quad-edge-nonnum.csv", "1,x,3,4\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // Comments, blanks, and CRLF endings are fine.
        run_batch("quad-edge-ok.csv", "# c\r\n1,2,3,4\r\n\r\n5,6,7,8\r\n").unwrap();
    }
}
