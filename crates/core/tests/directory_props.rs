//! Property-based equivalence of the compiled query hot path against the
//! oracle assembly (`partition_point` over a `Vec<Segment>` +
//! per-segment `Segment::eval_clamped`).
//!
//! The compiled path ([`polyfit::CompiledDirectory`]) replaces the sorted
//! binary search with a branchless Eytzinger walk and the per-segment
//! heap polynomials with one fixed-stride arena row; these tests pin it
//! to **bitwise** agreement with the oracle on adversarial directories —
//! duplicate `lo_key`s, adjacent-ULP tilings, ±0.0 boundaries — and
//! adversarial probes (NaN, ±∞, exact boundaries, one-ULP neighbours),
//! and pin the serialized formats (`PFS2`, `PFD2`) to round-trips whose
//! decoded compiled answers match the oracle bit-for-bit.

use proptest::prelude::*;

use polyfit::prelude::*;
use polyfit::{CompiledDirectory, Segment};
use polyfit_exact::dataset::Record;
use polyfit_poly::{Polynomial, ShiftedPolynomial};

/// The reference locate: the last segment whose `lo_key` is ≤ `k`, or
/// `None` left of the first segment (and for NaN).
fn oracle_locate(segs: &[Segment], k: f64) -> Option<usize> {
    segs.partition_point(|s| s.lo_key <= k).checked_sub(1)
}

/// Next representable f64 above `x` (for finite non-NaN `x`), without
/// relying on the unstable-era `f64::next_up`.
fn ulp_up(x: f64) -> f64 {
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let b = x.to_bits();
    if x > 0.0 {
        f64::from_bits(b + 1)
    } else {
        f64::from_bits(b - 1)
    }
}

fn ulp_down(x: f64) -> f64 {
    -ulp_up(-x)
}

/// Build a tiling segment list from raw step descriptors. Step kinds:
/// 0 ⇒ duplicate the previous `lo_key` (zero-width neighbour), 1 ⇒
/// advance by exactly one ULP (adjacent-tiling floats), 2 ⇒ a small
/// fractional step crossing ±0.0 territory, 3 ⇒ a coarse step. The walk
/// starts below zero so directories straddle the ±0.0 boundary.
fn segments_from_steps(steps: &[(u8, u8, i8)]) -> Vec<Segment> {
    let mut lo = -(steps.len() as f64) / 8.0;
    let mut out = Vec::with_capacity(steps.len());
    for &(kind, mag, c) in steps {
        let hi = match kind % 4 {
            0 => lo,
            1 => ulp_up(lo),
            2 => {
                let next = lo + mag as f64 / 16.0;
                // Normalise the landing spot so some boundaries sit at
                // exactly ±0.0 — but never move below `lo` (a previous
                // ULP step may have placed `lo` just above 0.0, and a
                // reversed interval would panic `clamp`).
                if next.abs() < 0.05 {
                    0.0f64.max(lo)
                } else {
                    next
                }
            }
            _ => lo + 1.0 + mag as f64,
        };
        // Mixed coefficient counts inside one directory exercise the
        // padded-kernel arms.
        let coeffs: Vec<f64> = (0..(mag % 5) as usize).map(|j| c as f64 + j as f64 * 0.5).collect();
        let (center, scale) = ShiftedPolynomial::normalizer(lo, hi);
        out.push(Segment {
            lo_key: lo,
            hi_key: hi,
            poly: ShiftedPolynomial::new(Polynomial::new(coeffs), center, scale),
            error: mag as f64 / 100.0,
            value_max: c as f64 + 1.0,
            value_min: c as f64 - 1.0,
        });
        lo = hi;
    }
    out
}

/// Probe set for a directory: every boundary, its one-ULP neighbours,
/// interval midpoints, far-outside keys, ±0.0, ±∞, and NaN.
fn probes_for(segs: &[Segment]) -> Vec<f64> {
    let mut probes = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1e300, 1e300];
    for s in segs {
        probes.extend([
            s.lo_key,
            s.hi_key,
            ulp_up(s.lo_key),
            ulp_down(s.lo_key),
            0.5 * (s.lo_key + s.hi_key),
        ]);
    }
    if let (Some(first), Some(last)) = (segs.first(), segs.last()) {
        probes.push(first.lo_key - 1.0);
        probes.push(last.hi_key + 1.0);
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eytzinger `locate` agrees with `partition_point` on random
    /// directories with duplicate `lo_key`s, ULP-adjacent tilings, and
    /// ±0.0 boundaries — NaN and ±∞ probes included.
    #[test]
    fn eytzinger_matches_partition_point(
        steps in proptest::collection::vec((0u8..4, 0u8..40, -9i8..9), 1..80),
    ) {
        let segs = segments_from_steps(&steps);
        let compiled = CompiledDirectory::from_segments(segs.clone());
        prop_assert_eq!(compiled.len(), segs.len());

        for &k in &probes_for(&segs) {
            prop_assert_eq!(compiled.locate(k), oracle_locate(&segs, k), "locate({})", k);
        }

        // Per-segment evaluation and reconstruction are exact.
        for (i, s) in segs.iter().enumerate() {
            for &k in &[s.lo_key, s.hi_key, 0.5 * (s.lo_key + s.hi_key), s.lo_key - 3.0] {
                prop_assert_eq!(
                    compiled.eval(i, k).to_bits(),
                    s.eval_clamped(k).to_bits(),
                    "eval segment {} at {}", i, k
                );
            }
            let back = compiled.segment(i);
            prop_assert_eq!(&back.poly, &s.poly, "poly {}", i);
            prop_assert_eq!(back.lo_key.to_bits(), s.lo_key.to_bits());
            prop_assert_eq!(back.hi_key.to_bits(), s.hi_key.to_bits());
        }

        // Precomputed folds agree with per-segment folds.
        let max_error = segs.iter().fold(0.0f64, |m, s| m.max(s.error));
        let logical_bytes: usize = segs.iter().map(Segment::logical_size_bytes).sum();
        let extrema: Vec<(f64, f64)> = segs.iter().map(|s| (s.value_max, s.value_min)).collect();
        prop_assert_eq!(compiled.max_certified_error(), max_error);
        prop_assert_eq!(compiled.segments_logical_bytes(), logical_bytes);
        prop_assert_eq!(compiled.extrema_leaves(), extrema);
    }

    /// The SIMD-batched engine (`locate_eval_batch` / `locate_batch`) is
    /// bitwise-equal to per-probe scalar `locate_eval` / `locate` on
    /// adversarial directories — duplicate `lo_key`s, one-ULP tilings,
    /// ±0.0 boundaries — with NaN/±∞ probes mixed into the batch, batch
    /// sizes that do not divide the lane count, and tiny directories with
    /// h < K. The `partition_point` oracle referees both paths.
    #[test]
    fn batched_engine_matches_scalar_bitwise(
        steps in proptest::collection::vec((0u8..4, 0u8..40, -9i8..9), 1..48),
        rot in 0usize..64,
        truncate in 0usize..17,
    ) {
        let segs = segments_from_steps(&steps);
        let compiled = CompiledDirectory::from_segments(segs.clone());

        // Scramble probe order (rotation keeps NaN/±∞ at varying lane
        // positions) and truncate so the length rarely divides the
        // descent group width.
        let mut keys = probes_for(&segs);
        let r = rot % keys.len().max(1);
        keys.rotate_left(r);
        keys.truncate(keys.len().saturating_sub(truncate).max(1));

        let vals = compiled.locate_eval_batch(&keys);
        let locs = compiled.locate_batch(&keys);
        prop_assert_eq!(vals.len(), keys.len());
        prop_assert_eq!(locs.len(), keys.len());
        for (j, &k) in keys.iter().enumerate() {
            let scalar = compiled.locate_eval(k);
            match (vals[j], scalar) {
                (Some(b), Some(s)) => prop_assert_eq!(
                    b.to_bits(), s.to_bits(), "probe {} (key {})", j, k
                ),
                (b, s) => prop_assert_eq!(b, s, "probe {} (key {})", j, k),
            }
            let located = oracle_locate(&segs, k);
            prop_assert_eq!(locs[j], located, "locate probe {} (key {})", j, k);
            // The fused scalar reference itself matches the oracle
            // assembly on non-NaN probes (NaN short-circuits to None in
            // both paths before evaluation).
            if let Some(i) = located {
                prop_assert_eq!(
                    scalar.expect("located probes evaluate").to_bits(),
                    segs[i].eval_clamped(k).to_bits(),
                    "oracle eval probe {} (key {})", j, k
                );
            } else {
                prop_assert_eq!(scalar, None);
            }
        }
    }
}

/// The pre-compilation SUM query path, replayed over the oracle assembly:
/// `partition_point` locate + `Segment::eval_clamped`, with the same
/// domain-edge short-circuits as `PolyFitSum::cf`.
struct OracleSum {
    segs: Vec<Segment>,
    total: f64,
    domain: (f64, f64),
}

impl OracleSum {
    fn of(idx: &PolyFitSum) -> Self {
        OracleSum { segs: idx.segments(), total: idx.total(), domain: idx.domain() }
    }

    fn cf(&self, k: f64) -> f64 {
        if k < self.domain.0 {
            return 0.0;
        }
        if k >= self.domain.1 {
            return self.total;
        }
        let i = oracle_locate(&self.segs, k).expect("k inside the key domain");
        self.segs[i].eval_clamped(k)
    }

    fn query(&self, lq: f64, uq: f64) -> f64 {
        if lq >= uq {
            return 0.0;
        }
        self.cf(uq) - self.cf(lq)
    }
}

fn range_probes(domain: (f64, f64), m: usize) -> Vec<(f64, f64)> {
    let span = domain.1 - domain.0;
    (0..m)
        .map(|i| {
            let l = domain.0 - 5.0 + span * ((i * 37) % 101) as f64 / 97.0;
            let u = l + span * ((i * 13) % 31) as f64 / 30.0 - 2.0;
            (l, u)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled SUM index answers bitwise-identically to the oracle
    /// path, per-query and batched; the PFS2 round-trip preserves that
    /// equality.
    #[test]
    fn sum_queries_match_oracle_bitwise(
        n in 50usize..900,
        delta_tenths in 20u32..400,
        degree in 1usize..4,
        key_step in 0.25f64..3.0,
        amp in 1.0f64..30.0,
    ) {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    i as f64 * key_step,
                    1.0 + ((i as f64) * 0.7).sin().abs() * amp,
                )
            })
            .collect();
        let delta = delta_tenths as f64 / 10.0;
        let idx = PolyFitSum::build(
            records,
            delta,
            PolyFitConfig { degree, ..PolyFitConfig::default() },
        ).unwrap();
        let oracle = OracleSum::of(&idx);
        let ranges = range_probes(idx.domain(), 64);
        let batched = idx.query_batch(&ranges);
        for (q, &(l, u)) in ranges.iter().enumerate() {
            let a = idx.query(l, u);
            prop_assert_eq!(a.to_bits(), oracle.query(l, u).to_bits(), "({}, {}]", l, u);
            prop_assert_eq!(a.to_bits(), batched[q].to_bits(), "batch ({}, {}]", l, u);
        }

        // PFS2 round-trip: the decoded (compiled) index and an oracle
        // over its decoded segments agree with the original bit-for-bit.
        let bytes = idx.to_bytes();
        let back = PolyFitSum::from_bytes(&bytes).unwrap();
        let back_oracle = OracleSum::of(&back);
        for &(l, u) in &ranges {
            let a = idx.query(l, u);
            prop_assert_eq!(a.to_bits(), back.query(l, u).to_bits());
            prop_assert_eq!(a.to_bits(), back_oracle.query(l, u).to_bits());
        }
        // Re-encoding the decoded index reproduces the file exactly:
        // compilation is lossless.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// PFD2 round-trips keep the dynamic index's compiled reads bitwise
    /// stable, across a compaction swap.
    #[test]
    fn dynamic_roundtrip_matches_across_compaction(
        n in 100usize..600,
        updates in 10usize..80,
        delta_tenths in 30u32..200,
    ) {
        let records: Vec<Record> =
            (0..n).map(|i| Record::new(i as f64, 1.0 + (i % 7) as f64)).collect();
        let delta = delta_tenths as f64 / 10.0;
        let cap = PolyFitConfig {
            max_segment_len: Some((n / 6).max(8)),
            ..PolyFitConfig::default()
        };
        let mut idx = DynamicPolyFitSum::new(records, delta, cap, 1 << 30).unwrap();
        for i in 0..updates {
            idx.insert(n as f64 * 0.9 + i as f64 * 0.25, 2.0);
        }
        let ranges = range_probes((0.0, n as f64), 48);

        // Pre-compaction round-trip.
        let back = DynamicPolyFitSum::from_bytes(&idx.to_bytes()).unwrap();
        for &(l, u) in &ranges {
            prop_assert_eq!(idx.query(l, u).to_bits(), back.query(l, u).to_bits());
        }

        // Compact (swapping in reused + refitted compiled segments), then
        // round-trip again; both batch paths stay bitwise too.
        idx.compact_now();
        let back = DynamicPolyFitSum::from_bytes(&idx.to_bytes()).unwrap();
        let batched = idx.query_batch(&ranges);
        let back_batched = back.query_batch(&ranges);
        for (q, &(l, u)) in ranges.iter().enumerate() {
            let a = idx.query(l, u);
            prop_assert_eq!(a.to_bits(), back.query(l, u).to_bits(), "({}, {}]", l, u);
            prop_assert_eq!(a.to_bits(), batched[q].to_bits());
            prop_assert_eq!(a.to_bits(), back_batched[q].to_bits());
        }
    }
}
