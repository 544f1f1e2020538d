//! Parallel-construction benchmark: build-time scaling of the shared
//! build pipeline (`polyfit::build`) across thread counts, with the
//! δ-guarantee re-verified against exact structures after every build.
//! One untimed warm-up build runs before the timed sweep.
//!
//! Emits `results/BENCH_construction.json` — the machine-readable record
//! tracked across PRs — plus the usual aligned table and CSV/JSON pair.
//!
//! Usage: `cargo run --release -p polyfit-bench --bin construction_pipeline
//!         [--records 1000000] [--queries 200] [--delta 50]`

use std::fmt::Write as _;

use polyfit::prelude::*;
use polyfit_bench::{arg_usize, json_string, results_dir, time_it, to_records, ResultsTable};
use polyfit_data::{generate_tweet, query_intervals_from_keys};
use polyfit_exact::{AggTree, BPlusTree, KeyCumulativeArray};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

struct BuildRow {
    threads: usize,
    seconds: f64,
    segments: usize,
    max_query_err: f64,
    within_guarantee: bool,
}

fn main() {
    let n = arg_usize("records", 1_000_000);
    let n_queries = arg_usize("queries", 200);
    let delta = arg_usize("delta", 50) as f64;

    // Synthetic 1M-key dataset (TWEET shape), prepared once.
    let mut records = to_records(&generate_tweet(n, 0x7EE7));
    polyfit_exact::dataset::sort_records(&mut records);
    let records = polyfit_exact::dataset::dedup_sum(records);
    let keys: Vec<f64> = records.iter().map(|r| r.key).collect();
    let queries = query_intervals_from_keys(&keys, n_queries, 99);
    let ranges: Vec<(f64, f64)> = queries.iter().map(|q| (q.lo, q.hi)).collect();
    let exact = KeyCumulativeArray::new(&records);
    let truth: Vec<f64> = ranges.iter().map(|&(l, u)| exact.range_sum(l, u)).collect();

    let mut table = ResultsTable::new(
        &format!("Parallel construction — PolyFitSum over {} keys (delta = {delta})", keys.len()),
        &["threads", "build (s)", "segments", "worst query err", "within 2δ", "speedup vs 1T"],
    );

    // One untimed build first, so the first timed row does not carry the
    // process's cold start (page faults, allocator growth, cold caches).
    PolyFitSum::build_with(
        records.clone(),
        delta,
        PolyFitConfig::default(),
        &BuildOptions::default(),
    )
    .expect("warm-up build");

    let mut rows: Vec<BuildRow> = Vec::new();
    for threads in THREAD_COUNTS {
        let opts = BuildOptions::with_threads(threads);
        let (idx, seconds) = time_it(|| {
            PolyFitSum::build_with(records.clone(), delta, PolyFitConfig::default(), &opts)
                .expect("build")
        });
        // Certification check: every batched answer within the Lemma 2
        // bound of the exact sum, and the batch path must equal the
        // sequential queries bit-for-bit.
        let batch = idx.query_batch(&ranges);
        let mut max_err = 0.0f64;
        for ((&(l, u), t), &b) in ranges.iter().zip(&truth).zip(&batch) {
            assert_eq!(b.to_bits(), idx.query(l, u).to_bits(), "batch/sequential divergence");
            max_err = max_err.max((b - t).abs());
        }
        let within = max_err <= 2.0 * delta + 1e-6;
        rows.push(BuildRow {
            threads,
            seconds,
            segments: idx.num_segments(),
            max_query_err: max_err,
            within_guarantee: within,
        });
    }
    let base = rows[0].seconds;
    for r in &rows {
        table.row(&[
            format!("{}", r.threads),
            format!("{:.3}", r.seconds),
            format!("{}", r.segments),
            format!("{:.3}", r.max_query_err),
            format!("{}", r.within_guarantee),
            format!("{:.2}x", base / r.seconds.max(1e-12)),
        ]);
    }

    // Exact-structure parallel bulk-loads on the same data.
    let mut exact_table = ResultsTable::new(
        "Parallel bulk-load — exact structures",
        &["structure", "threads", "build (s)", "speedup vs 1T"],
    );
    let mut exact_rows: Vec<(String, usize, f64)> = Vec::new();
    for threads in THREAD_COUNTS {
        let (_, secs) = time_it(|| AggTree::with_threads(&records, threads));
        exact_rows.push(("agg-tree".into(), threads, secs));
    }
    for threads in THREAD_COUNTS {
        let (_, secs) = time_it(|| BPlusTree::with_threads(&records, threads));
        exact_rows.push(("B+-tree".into(), threads, secs));
    }
    for (name, threads, secs) in &exact_rows {
        let base = exact_rows
            .iter()
            .find(|(n2, t2, _)| n2 == name && *t2 == 1)
            .map(|&(_, _, s)| s)
            .unwrap_or(*secs);
        exact_table.row(&[
            name.clone(),
            format!("{threads}"),
            format!("{secs:.3}"),
            format!("{:.2}x", base / secs.max(1e-12)),
        ]);
    }

    table.emit("bench_construction_polyfit");
    exact_table.emit("bench_construction_exact");

    // The cross-PR perf record.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"records\": {},", keys.len());
    let _ = writeln!(json, "  \"delta\": {delta},");
    let _ = writeln!(json, "  \"queries\": {},", ranges.len());
    json.push_str("  \"polyfit_sum\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"seconds\": {:.6}, \"segments\": {}, \
             \"max_query_err\": {:.6}, \"within_guarantee\": {}}}{comma}",
            r.threads, r.seconds, r.segments, r.max_query_err, r.within_guarantee
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"exact_bulk_load\": [\n");
    for (i, (name, threads, secs)) in exact_rows.iter().enumerate() {
        let comma = if i + 1 < exact_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"structure\": {}, \"threads\": {threads}, \"seconds\": {secs:.6}}}{comma}",
            json_string(name)
        );
    }
    json.push_str("  ],\n");
    let speedup = rows[0].seconds / rows.last().unwrap().seconds.max(1e-12);
    let _ = writeln!(json, "  \"speedup_{}t_vs_1t\": {speedup:.3},", rows.last().unwrap().threads);
    let _ =
        writeln!(json, "  \"all_within_guarantee\": {}", rows.iter().all(|r| r.within_guarantee));
    json.push_str("}\n");

    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_construction.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    assert!(
        rows.iter().all(|r| r.within_guarantee),
        "a parallel build broke the 2δ query guarantee"
    );
    println!(
        "{}-thread build speedup over 1-thread: {speedup:.2}x (hardware: {} cores)",
        rows.last().unwrap().threads,
        polyfit_exact::resolve_threads(0)
    );
}
