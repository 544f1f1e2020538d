//! Property tests pinning the compiled 2-D read path to the pointer
//! quadtree oracle, bit for bit.
//!
//! The compiled directory ([`polyfit::twod_directory::TwodDirectory`]) is
//! a from-scratch re-implementation of the tree walk: flattened cell
//! location via `partition_point` over the stored lattice lines, a
//! fixed-stride coefficient arena, and corner probes fused per rectangle.
//! None of that is allowed to change a single answer — every test here
//! compares `to_bits()`, not tolerances — under adversarial inputs:
//! duplicated coordinates, one-ULP-separated tiles, signed zeros, NaN /
//! reversed / degenerate rectangles, and batches of those.

use proptest::prelude::*;

use polyfit_suite::exact::dataset::Point2d;
use polyfit_suite::polyfit::twod::{Quad2dConfig, QuadPolyFit};
use polyfit_suite::polyfit::{AggregateIndex2d, BuildOptions};

fn cfg(res: usize) -> Quad2dConfig {
    Quad2dConfig { grid_resolution: res, ..Default::default() }
}

/// Deterministic point cloud with adversarial structure: clustered mass,
/// exact duplicates, one-ULP neighbours, and signed-zero coordinates.
fn adversarial_points(n: usize, seed: u64) -> Vec<Point2d> {
    let mut pts = Vec::with_capacity(n + 8);
    let mut h = seed | 1;
    for i in 0..n {
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) ^ (i as u64);
        let u = ((h >> 11) as f64 / (1u64 << 53) as f64) * 200.0 - 100.0;
        let v = ((h.wrapping_mul(0xD135_8469_2589_9ABD) >> 11) as f64 / (1u64 << 53) as f64)
            * 200.0
            - 100.0;
        let w = 1.0 + (h % 5) as f64;
        pts.push(Point2d::new(u, v, w));
        match i % 7 {
            // Exact duplicate of the previous point.
            1 => pts.push(Point2d::new(u, v, w)),
            // One-ULP neighbour: the tightest possible tile boundary.
            2 => pts.push(Point2d::new(f64::from_bits(u.to_bits() + 1), v, 1.0)),
            3 => pts.push(Point2d::new(u, f64::from_bits(v.to_bits() + 1), 1.0)),
            _ => {}
        }
    }
    // Signed zeros on both axes — the walk and the compiled locate must
    // agree on which side of a lattice line ±0.0 falls.
    pts.push(Point2d::new(0.0, -0.0, 1.0));
    pts.push(Point2d::new(-0.0, 0.0, 1.0));
    pts
}

/// Probe coordinates that stress the locate: lattice lines themselves,
/// one-ULP offsets around them, bbox corners, and out-of-domain values.
fn probe_coords(idx: &QuadPolyFit) -> Vec<f64> {
    let (u_lo, u_hi, _, _) = idx.bbox();
    let mut xs = vec![
        u_lo,
        u_hi,
        f64::from_bits(u_lo.to_bits() + 1),
        f64::from_bits(u_hi.to_bits().wrapping_sub(1)),
        0.0,
        -0.0,
        u_lo - 1.0,
        u_hi + 1.0,
        f64::NAN,
    ];
    let span = u_hi - u_lo;
    for k in 0..16 {
        let x = u_lo + span * (k as f64 / 15.0);
        xs.push(x);
        xs.push(f64::from_bits(x.to_bits() + 1));
        xs.push(f64::from_bits(x.to_bits().wrapping_sub(1)));
    }
    xs
}

#[test]
fn compiled_cf_matches_walk_on_adversarial_grid() {
    let pts = adversarial_points(3000, 0xA5A5);
    let idx = QuadPolyFit::build(&pts, 40.0, cfg(64)).expect("build");
    let us = probe_coords(&idx);
    for &u in &us {
        for &v in &us {
            assert_eq!(
                idx.cf(u, v).to_bits(),
                idx.cf_walk(u, v).to_bits(),
                "cf({u}, {v}) diverged from the pointer walk"
            );
        }
    }
}

#[test]
fn parallel_builds_bitwise_equal_across_thread_counts() {
    let pts = adversarial_points(12_000, 0xBEEF);
    let serial = QuadPolyFit::build_with(&pts, 30.0, cfg(64), &BuildOptions::with_threads(1))
        .expect("serial build");
    let reference = serial.to_bytes();
    for threads in [2usize, 4] {
        let par =
            QuadPolyFit::build_with(&pts, 30.0, cfg(64), &BuildOptions::with_threads(threads))
                .expect("parallel build");
        assert_eq!(par.to_bytes(), reference, "threads={threads} build differs from serial");
    }
}

#[test]
fn serialized_roundtrip_preserves_every_answer() {
    let pts = adversarial_points(4000, 0x5EED);
    let idx = QuadPolyFit::build(&pts, 25.0, cfg(64)).expect("build");
    let bytes = idx.to_bytes();
    let back = QuadPolyFit::from_bytes(&bytes).expect("decode");
    assert_eq!(back.to_bytes(), bytes, "re-encode is byte-stable");
    let us = probe_coords(&idx);
    for &u in &us {
        for &v in &us {
            assert_eq!(idx.cf(u, v).to_bits(), back.cf(u, v).to_bits());
        }
    }
}

/// Strategy for one possibly-degenerate rectangle: mostly proper windows,
/// with NaN, reversed, and zero-area rects mixed in.
fn rect_strategy() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    fn coord() -> impl Strategy<Value = f64> {
        (-120.0f64..120.0, 0u8..10).prop_map(|(x, sel)| match sel {
            7 => 0.0,
            8 => -0.0,
            9 => f64::NAN,
            _ => x,
        })
    }
    (coord(), coord(), coord(), coord())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batches must agree bitwise with one-at-a-time queries, through the
    /// trait and through `QuadPolyFit::query_batch`, including batches
    /// polluted with NaN / reversed / degenerate rectangles.
    #[test]
    fn batched_rects_bitwise_equal_scalar(
        rects in proptest::collection::vec(rect_strategy(), 0..20),
        seed in 0u64..8,
    ) {
        let pts = adversarial_points(1500, 0xC0FFEE ^ seed);
        let idx = QuadPolyFit::build(&pts, 60.0, cfg(32)).expect("build");
        let batch = AggregateIndex2d::query_batch_rect(&idx, &rects);
        let raw = idx.query_batch(&rects);
        prop_assert_eq!(batch.len(), rects.len());
        prop_assert_eq!(raw.len(), rects.len());
        for (i, &(ul, uh, vl, vh)) in rects.iter().enumerate() {
            let one = AggregateIndex2d::query_rect(&idx, ul, uh, vl, vh);
            prop_assert_eq!(
                batch[i].map(|a| a.value.to_bits()),
                one.map(|a| a.value.to_bits()),
                "rect {} ({}, {}, {}, {})", i, ul, uh, vl, vh
            );
            prop_assert_eq!(
                raw[i].to_bits(),
                idx.query(ul, uh, vl, vh).to_bits(),
                "raw rect {} ({}, {}, {}, {})", i, ul, uh, vl, vh
            );
        }
    }

    /// Random probes: compiled CF and rectangle answers equal the pointer
    /// walk bitwise — including coordinates off the data's bounding box.
    #[test]
    fn compiled_answers_match_walk(
        coords in proptest::collection::vec(-150.0f64..150.0, 4..5),
        seed in 0u64..8,
    ) {
        let pts = adversarial_points(1200, 0xDADA ^ seed);
        let idx = QuadPolyFit::build(&pts, 60.0, cfg(32)).expect("build");
        let (ul, uh, vl, vh) = (coords[0], coords[1], coords[2], coords[3]);
        prop_assert_eq!(idx.cf(ul, vl).to_bits(), idx.cf_walk(ul, vl).to_bits());
        prop_assert_eq!(
            idx.query(ul, uh, vl, vh).to_bits(),
            idx.query_walk(ul, uh, vl, vh).to_bits()
        );
    }
}
