//! 2-D query hot-path benchmark: the pointer quadtree walk versus the
//! compiled patch directory — ns per rectangle COUNT on clustered
//! (OSM-like) data at two lattice resolutions.
//!
//! Two columns per workload:
//!
//! * `walk` — the oracle path: recursive pointer descent for each of
//!   the rectangle's 4 corners (`query_walk`).
//! * `compiled` — flattened cell location (`partition_point` over the
//!   stored lattice lines) + fixed-stride arena rows, one rectangle at
//!   a time (`query`). `query_batch` runs this same path per rect.
//!
//! Workloads: `random` rectangles (every corner unique) and `snapped`
//! rectangles whose corners are drawn from a small shared pool (the
//! dashboard-style case, where corners repeat across the batch).
//!
//! `query`, `query_batch` and the walk are asserted **bitwise-equal**
//! before any number is written. A build-scaling section rebuilds the larger index at 1/2/4
//! threads, asserts the serialized bytes identical across thread counts,
//! and records the wall-clock ratio (hardware-gated: a 1-CPU container
//! reports ~1.0×; see ROADMAP.md for the multicore re-run recipe).
//!
//! Emits `results/BENCH_twod.json`.
//!
//! Usage: `cargo run --release -p polyfit-bench --bin twod_hotpath
//!         [--res1 256] [--res2 1024] [--points 200000] [--rects 4096]
//!         [--repeats 9]`

use std::fmt::Write as _;

use polyfit::prelude::*;
use polyfit_bench::{arg_usize, fmt_ns, measure_ns, results_dir, to_points};
use polyfit_data::generate_osm;
use polyfit_exact::dataset::Point2d;

/// Deterministic mixer for rectangle placement (no RNG dependency).
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
    rects: Vec<(f64, f64, f64, f64)>,
}

fn workloads(bbox: (f64, f64, f64, f64), m: usize) -> Vec<Workload> {
    let (u0, u1, v0, v1) = bbox;
    let (su, sv) = (u1 - u0, v1 - v0);
    // Random: every corner unique, spans from thin strips to half-domain.
    let random = (0..m)
        .map(|i| {
            let ul = u0 + unit(i, 1) * su * 0.7;
            let vl = v0 + unit(i, 2) * sv * 0.7;
            let uw = su * (0.01 + 0.4 * unit(i, 3));
            let vw = sv * (0.01 + 0.4 * unit(i, 4));
            (ul, ul + uw, vl, vl + vw)
        })
        .collect();
    // Snapped: corners drawn from a 32-per-axis shared pool, so the
    // same few cells and rows serve every rect.
    let snap = |t: u64| -> f64 { (t % 33) as f64 / 32.0 };
    let snapped = (0..m)
        .map(|i| {
            let a = u0 + snap(mix(i, 5)) * su;
            let b = u0 + snap(mix(i, 6)) * su;
            let c = v0 + snap(mix(i, 7)) * sv;
            let d = v0 + snap(mix(i, 8)) * sv;
            (a.min(b), a.max(b), c.min(d), c.max(d))
        })
        .collect();
    vec![Workload { name: "random", rects: random }, Workload { name: "snapped", rects: snapped }]
}

struct Row {
    res: usize,
    workload: &'static str,
    ns_walk: f64,
    ns_compiled: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ns_walk / self.ns_compiled
    }
}

fn main() {
    let res1 = arg_usize("res1", 256);
    let res2 = arg_usize("res2", 1024);
    let n = arg_usize("points", 200_000);
    let m = arg_usize("rects", 4_096);
    let repeats = arg_usize("repeats", 9).max(1);

    let points: Vec<Point2d> = to_points(&generate_osm(n, 42));
    let delta = (n as f64 / 2000.0).max(4.0);

    let mut rows: Vec<Row> = Vec::new();
    let mut bitwise_equal = true;

    for &res in &[res1, res2] {
        let cfg = Quad2dConfig { grid_resolution: res, ..Default::default() };
        let idx = QuadPolyFit::build(&points, delta, cfg).expect("build");

        for w in workloads(idx.bbox(), m) {
            // Equality gate first: compiled per-rect and batch answers
            // must match the pointer walk bit-for-bit.
            let batched = idx.query_batch(&w.rects);
            for (q, &(ul, uh, vl, vh)) in w.rects.iter().enumerate() {
                let a = idx.query(ul, uh, vl, vh).to_bits();
                let equal =
                    a == idx.query_walk(ul, uh, vl, vh).to_bits() && a == batched[q].to_bits();
                if !equal {
                    eprintln!("MISMATCH res={res} {} rect ({ul}, {uh}, {vl}, {vh})", w.name);
                    bitwise_equal = false;
                }
            }

            // Timing: warm each path once, then interleave rounds keeping
            // the per-path minimum (shared containers inject spikes).
            measure_ns(&w.rects, 1, |&(ul, uh, vl, vh)| idx.query_walk(ul, uh, vl, vh));
            measure_ns(&w.rects, 1, |&(ul, uh, vl, vh)| idx.query(ul, uh, vl, vh));
            let rounds = 7usize;
            let mut ns_walk = f64::INFINITY;
            let mut ns_compiled = f64::INFINITY;
            for _ in 0..rounds {
                ns_walk = ns_walk.min(measure_ns(&w.rects, repeats, |&(ul, uh, vl, vh)| {
                    idx.query_walk(ul, uh, vl, vh)
                }));
                ns_compiled =
                    ns_compiled.min(measure_ns(&w.rects, repeats, |&(ul, uh, vl, vh)| {
                        idx.query(ul, uh, vl, vh)
                    }));
            }
            rows.push(Row { res, workload: w.name, ns_walk, ns_compiled });
        }
    }

    // Build scaling: the sharded lattice + work-stealing deep-cell build
    // must produce the identical index at every thread count; the timing
    // ratio is the hardware-gated part.
    let scale_cfg = Quad2dConfig { grid_resolution: res2, ..Default::default() };
    let mut build_secs = Vec::new();
    let mut build_bitwise = true;
    let mut reference: Option<Vec<u8>> = None;
    for &threads in &[1usize, 2, 4] {
        let t0 = std::time::Instant::now();
        let idx = QuadPolyFit::build_with(
            &points,
            delta,
            scale_cfg,
            &BuildOptions::with_threads(threads),
        )
        .expect("build");
        build_secs.push(t0.elapsed().as_secs_f64());
        let bytes = idx.to_bytes();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => {
                if *r != bytes {
                    eprintln!("BUILD MISMATCH at {threads} threads");
                    build_bitwise = false;
                }
            }
        }
    }
    let build_speedup = build_secs[0] / build_secs[2];

    println!("2-D hot path: pointer walk vs compiled (ns/rect)");
    println!("{:>6} {:>8} {:>10} {:>10} {:>9}", "res", "workload", "walk", "compiled", "speedup");
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>10} {:>10} {:>8.2}x",
            r.res,
            r.workload,
            fmt_ns(r.ns_walk),
            fmt_ns(r.ns_compiled),
            r.speedup(),
        );
    }
    println!(
        "build scaling at res={res2}: 1t {:.2}s / 2t {:.2}s / 4t {:.2}s — {:.2}x \
         (hardware-gated), bitwise across threads: {build_bitwise}",
        build_secs[0], build_secs[1], build_secs[2], build_speedup,
    );

    // The bench refuses to write numbers for a path that changed answers.
    assert!(bitwise_equal, "compiled 2-D path diverged from the pointer walk");
    assert!(build_bitwise, "parallel build diverged from the serial index bytes");

    let best_large = rows.iter().filter(|r| r.res == res2).map(Row::speedup).fold(0.0f64, f64::max);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"grid_small\": {res1},");
    let _ = writeln!(json, "  \"grid_large\": {res2},");
    let _ = writeln!(json, "  \"points\": {n},");
    let _ = writeln!(json, "  \"rects\": {m},");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"res\": {}, \"workload\": \"{}\", \"ns_walk\": {:.2}, \
             \"ns_compiled\": {:.2}, \"compiled_vs_walk_speedup\": {:.4}}}{comma}",
            r.res,
            r.workload,
            r.ns_walk,
            r.ns_compiled,
            r.speedup(),
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"compiled_vs_walk_speedup_large\": {best_large:.4},");
    let _ = writeln!(
        json,
        "  \"build_scaling\": {{\"threads\": [1, 2, 4], \"seconds\": [{:.4}, {:.4}, {:.4}], \
         \"speedup_4_over_1\": {:.4}, \"bitwise_equal_across_threads\": {build_bitwise}, \
         \"note\": \"hardware-gated: ~1.0x on a 1-CPU container, see ROADMAP multicore \
         recipe\"}},",
        build_secs[0], build_secs[1], build_secs[2], build_speedup,
    );
    let _ = writeln!(json, "  \"bitwise_equal\": {bitwise_equal}");
    json.push_str("}\n");

    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_twod.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    println!("best compiled-vs-walk speedup at res = {res2}: {best_large:.2}x");
}
