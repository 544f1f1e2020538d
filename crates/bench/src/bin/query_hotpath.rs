//! Query hot-path benchmark: the compiled read path (flattened arena
//! rows + branchless Eytzinger directory) versus the oracle assembly
//! (`partition_point` over a `Vec<Segment>` + per-segment heap
//! polynomials).
//!
//! This is the operation the paper is about — ns per range-SUM query —
//! measured for point / short / long ranges at two directory sizes, with
//! the answers of the two paths asserted **bitwise-equal** before any
//! number is written. Emits `results/BENCH_query.json`, the
//! machine-readable record tracked across PRs.
//!
//! PR 6 adds the batched-engine columns: `interleaved` times the
//! lockstep K-way Eytzinger descent (`locate_batch`) with scalar Horner
//! evaluation, `soa` times the full engine (`locate_eval_batch`:
//! interleaved descent + lane-pack Horner over the transposed rows), and
//! `batch` now routes through that engine inside `query_batch`. All
//! engine answers are asserted bitwise-equal to the scalar compiled path
//! (and the oracle) before the JSON is written.
//!
//! Usage: `cargo run --release -p polyfit-bench --bin query_hotpath
//!         [--h1 1000] [--h2 100000] [--pts 16] [--queries 4096]
//!         [--repeats 25]`

use std::fmt::Write as _;

use polyfit::prelude::*;
use polyfit::Segment;
use polyfit_bench::{arg_usize, fmt_ns, measure_ns, results_dir, ResultsTable};
use polyfit_exact::dataset::Record;

/// The pre-compilation query path, replayed over the oracle assembly: a
/// `partition_point` search over the segments, then a dereference of the
/// owning `Segment` and its heap coefficient vector.
struct OldPathSum {
    segs: Vec<Segment>,
    total: f64,
    domain: (f64, f64),
}

impl OldPathSum {
    fn of(idx: &PolyFitSum) -> Self {
        OldPathSum { segs: idx.segments(), total: idx.total(), domain: idx.domain() }
    }

    #[inline]
    fn cf(&self, k: f64) -> f64 {
        if k < self.domain.0 {
            return 0.0;
        }
        if k >= self.domain.1 {
            return self.total;
        }
        let i = self.segs.partition_point(|s| s.lo_key <= k).checked_sub(1);
        self.segs[i.expect("k inside the key domain")].eval_clamped(k)
    }

    #[inline]
    fn query(&self, lq: f64, uq: f64) -> f64 {
        if lq >= uq {
            return 0.0;
        }
        self.cf(uq) - self.cf(lq)
    }
}

/// Deterministic mixer for query placement (no RNG dependency).
#[inline]
fn mix(i: usize, salt: u64) -> u64 {
    let mut h = (i as u64).wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (h >> 32)
}

fn unit(i: usize, salt: u64) -> f64 {
    (mix(i, salt) % (1 << 24)) as f64 / (1 << 24) as f64
}

struct Workload {
    name: &'static str,
    ranges: Vec<(f64, f64)>,
}

fn workloads(keys: &[f64], m: usize) -> Vec<Workload> {
    let (d0, d1) = (keys[0], *keys.last().unwrap());
    let span = d1 - d0;
    let point = (0..m)
        .map(|i| {
            let j = 1 + mix(i, 11) as usize % (keys.len() - 1);
            (keys[j - 1], keys[j])
        })
        .collect();
    let short = (0..m)
        .map(|i| {
            let lo = d0 + unit(i, 22) * span * 0.999;
            (lo, lo + span * 1e-3)
        })
        .collect();
    let long = (0..m)
        .map(|i| {
            let lo = d0 + unit(i, 33) * span * 0.5;
            (lo, lo + span * 0.5)
        })
        .collect();
    vec![
        Workload { name: "point", ranges: point },
        Workload { name: "short", ranges: short },
        Workload { name: "long", ranges: long },
    ]
}

struct Row {
    h: usize,
    workload: &'static str,
    ns_old: f64,
    ns_compiled: f64,
    ns_interleaved: f64,
    ns_soa: f64,
    ns_batch: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ns_old / self.ns_compiled
    }
}

fn main() {
    let h1 = arg_usize("h1", 1_000);
    let h2 = arg_usize("h2", 100_000);
    let pts = arg_usize("pts", 16).max(2);
    let m = arg_usize("queries", 4_096);
    let repeats = arg_usize("repeats", 25).max(1);

    let mut rows: Vec<Row> = Vec::new();
    let mut bitwise_equal = true;
    let mut engine_bitwise_equal = true;

    for &h in &[h1, h2] {
        // A length cap of `pts` with a loose δ makes the greedy
        // segmentation emit exactly `h` segments of `pts` points each, so
        // the directory size is controlled precisely. Key spacing and
        // measures vary deterministically so the fitted rows are
        // non-trivial.
        let n = h * pts;
        let records: Vec<Record> = (0..n)
            .map(|i| {
                let k = i as f64 * (1.0 + 0.25 * unit(i, 7));
                Record::new(k, 1.0 + 4.0 * unit(i, 8) + ((i as f64) * 0.013).sin())
            })
            .collect();
        let config = PolyFitConfig { max_segment_len: Some(pts), ..PolyFitConfig::default() };
        let idx = PolyFitSum::build(records, 1e12, config).expect("build");
        assert_eq!(idx.num_segments(), h, "cap must pin the segment count");
        let old = OldPathSum::of(&idx);
        let keys: Vec<f64> = idx.segments().iter().map(|s| s.lo_key).collect();

        for w in workloads(&keys, m) {
            // Equality gate first: per-query and batched answers must
            // match the oracle path bit-for-bit.
            let batched = idx.query_batch(&w.ranges);
            for (q, &(l, u)) in w.ranges.iter().enumerate() {
                let a = idx.query(l, u).to_bits();
                let equal = a == old.query(l, u).to_bits() && a == batched[q].to_bits();
                if !equal {
                    eprintln!("MISMATCH h={h} {} range ({l}, {u}]", w.name);
                    bitwise_equal = false;
                }
            }

            // Engine equality gate: the batched primitives (lockstep
            // interleaved descent, and descent + lane-pack Horner) must
            // match the scalar compiled primitives bit-for-bit on the
            // workload's endpoint keys.
            let dir = idx.directory();
            let endpoint_keys: Vec<f64> = w.ranges.iter().flat_map(|&(l, u)| [l, u]).collect();
            let engine_vals = dir.locate_eval_batch(&endpoint_keys);
            let engine_locs = dir.locate_batch(&endpoint_keys);
            for (j, &k) in endpoint_keys.iter().enumerate() {
                let sv = dir.locate_eval(k);
                let equal = engine_locs[j] == dir.locate(k)
                    && match (engine_vals[j], sv) {
                        (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                        (a, b) => a == b,
                    };
                if !equal {
                    eprintln!("ENGINE MISMATCH h={h} {} key {k}", w.name);
                    engine_bitwise_equal = false;
                }
            }

            // Timing: warm both paths once, then interleave measurement
            // rounds and keep each path's minimum — the shared container
            // this runs on injects spikes that a single long measurement
            // folds into the mean.
            measure_ns(&w.ranges, 1, |&(l, u)| old.query(l, u));
            measure_ns(&w.ranges, 1, |&(l, u)| idx.query(l, u));
            let rounds = 7usize;
            let mut ns_old = f64::INFINITY;
            let mut ns_compiled = f64::INFINITY;
            for _ in 0..rounds {
                ns_old = ns_old.min(measure_ns(&w.ranges, repeats, |&(l, u)| old.query(l, u)));
                ns_compiled =
                    ns_compiled.min(measure_ns(&w.ranges, repeats, |&(l, u)| idx.query(l, u)));
            }
            let batch_unit = [w.ranges.clone()];
            let key_unit = [endpoint_keys];
            let mut ns_interleaved = f64::INFINITY;
            let mut ns_soa = f64::INFINITY;
            let mut ns_batch = f64::INFINITY;
            for _ in 0..rounds {
                // Interleaved column: lockstep descents, scalar Horner —
                // isolates the descent-overlap win from the lane kernels.
                ns_interleaved = ns_interleaved.min(measure_ns(&key_unit, repeats, |ks| {
                    let locs = dir.locate_batch(ks);
                    let mut acc = 0.0;
                    for (j, loc) in locs.iter().enumerate() {
                        if let Some(i) = loc {
                            acc += dir.eval(*i, ks[j]);
                        }
                    }
                    acc
                }));
                // SoA column: the full engine — lockstep descents feeding
                // lane-transposed Horner packs.
                ns_soa = ns_soa.min(measure_ns(&key_unit, repeats, |ks| dir.locate_eval_batch(ks)));
                ns_batch = ns_batch.min(measure_ns(&batch_unit, repeats, |r| idx.query_batch(r)));
            }
            // Per-query normalisation: one range = two endpoint probes.
            ns_interleaved /= m as f64;
            ns_soa /= m as f64;
            ns_batch /= m as f64;
            rows.push(Row {
                h,
                workload: w.name,
                ns_old,
                ns_compiled,
                ns_interleaved,
                ns_soa,
                ns_batch,
            });
        }
    }

    let mut table = ResultsTable::new(
        "Query hot path: oracle vs compiled vs batched engine (ns/query)",
        &["h", "workload", "old", "compiled", "speedup", "interleaved", "soa", "batch"],
    );
    for r in &rows {
        table.row(&[
            r.h.to_string(),
            r.workload.to_string(),
            fmt_ns(r.ns_old),
            fmt_ns(r.ns_compiled),
            format!("{:.2}x", r.speedup()),
            fmt_ns(r.ns_interleaved),
            fmt_ns(r.ns_soa),
            fmt_ns(r.ns_batch),
        ]);
    }
    println!("{}", table.render());

    let long_large = rows
        .iter()
        .find(|r| r.h == h2 && r.workload == "long")
        .expect("long workload at h2 always runs");

    // The bench refuses to write numbers for a path that changed answers.
    assert!(bitwise_equal, "compiled path diverged from the oracle path");
    assert!(engine_bitwise_equal, "batched engine diverged from the scalar compiled path");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"h_small\": {h1},");
    let _ = writeln!(json, "  \"h_large\": {h2},");
    let _ = writeln!(json, "  \"points_per_segment\": {pts},");
    let _ = writeln!(json, "  \"queries\": {m},");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"h\": {}, \"workload\": \"{}\", \"ns_old\": {:.2}, \
             \"ns_compiled\": {:.2}, \"speedup\": {:.4}, \"ns_interleaved\": {:.2}, \
             \"ns_soa\": {:.2}, \"ns_batch\": {:.2}}}{comma}",
            r.h,
            r.workload,
            r.ns_old,
            r.ns_compiled,
            r.speedup(),
            r.ns_interleaved,
            r.ns_soa,
            r.ns_batch,
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"long_range_speedup_large_h\": {:.4},", long_large.speedup());
    let _ = writeln!(
        json,
        "  \"engine_batch_speedup_large_h\": {:.4},",
        long_large.ns_compiled / long_large.ns_batch
    );
    let _ = writeln!(json, "  \"engine_bitwise_equal\": {engine_bitwise_equal},");
    let _ = writeln!(json, "  \"bitwise_equal\": {bitwise_equal}");
    json.push_str("}\n");

    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_query.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    println!(
        "long-range speedup at h = {h2}: {:.2}x (old {} vs compiled {} per query)",
        long_large.speedup(),
        fmt_ns(long_large.ns_old),
        fmt_ns(long_large.ns_compiled),
    );
    println!(
        "engine batch speedup at h = {h2}: {:.2}x (compiled scalar {} vs engine batch {} \
         per query)",
        long_large.ns_compiled / long_large.ns_batch,
        fmt_ns(long_large.ns_compiled),
        fmt_ns(long_large.ns_batch),
    );
}
