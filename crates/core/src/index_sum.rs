//! PolyFit index for range SUM / COUNT queries (paper Section V-A).
//!
//! Segments approximate the cumulative function `CF(k)`; a range aggregate
//! over `(lq, uq]` is `P_Iu(uq) − P_Il(lq)`. Each endpoint evaluation is an
//! `O(log h)` branchless Eytzinger lookup over the compiled segment
//! directory plus an `O(deg)` monomorphized Horner evaluation over one
//! contiguous arena row — independent of `n` and touching one cache line
//! per segment visit (see [`crate::directory::CompiledDirectory`]).

use polyfit_exact::dataset::Record;

use crate::build::{segment_function, BuildOptions};
use crate::config::PolyFitConfig;
use crate::directory::CompiledDirectory;
use crate::error::PolyFitError;
use crate::function::{cumulative_function, cumulative_function_sorted, TargetFunction};
use crate::segment::Segment;
use crate::segmentation::ErrorMetric;
use crate::stats::{IndexStats, SegmentStats, SegmentStatsSummary};

/// A PolyFit index over the cumulative function.
#[derive(Clone, Debug)]
pub struct PolyFitSum {
    dir: CompiledDirectory,
    /// The δ each segment is certified against.
    delta: f64,
    /// Exact total of all measures (pinning the right domain edge exactly
    /// costs 8 bytes and removes the fit error there).
    total: f64,
    /// Key domain `[first, last]`.
    domain: (f64, f64),
    build_stats: IndexStats,
    /// Per-segment fit summaries (key span, residual certificate,
    /// endpoint state). Always present for freshly built indexes; `None`
    /// only when decoded from a file serialized without the stats block.
    seg_stats: Option<Vec<SegmentStats>>,
}

/// The build parameters every SUM build checks before touching data.
fn check_build_params(delta: f64, config: &PolyFitConfig) -> Result<(), PolyFitError> {
    config.validate()?;
    if delta <= 0.0 || !delta.is_finite() {
        return Err(PolyFitError::InvalidErrorBound { bound: delta });
    }
    Ok(())
}

impl PolyFitSum {
    /// Build from raw records with the bounded δ-error constraint
    /// (serial; see [`Self::build_with`] for the parallel pipeline).
    pub fn build(
        records: Vec<Record>,
        delta: f64,
        config: PolyFitConfig,
    ) -> Result<Self, PolyFitError> {
        Self::build_with(records, delta, config, &BuildOptions::default())
    }

    /// Build through the shared pipeline ([`crate::build`]): the fitting
    /// work fans out over `opts.threads` workers and chunk seams are
    /// stitched back under the same δ guarantee.
    pub fn build_with(
        records: Vec<Record>,
        delta: f64,
        config: PolyFitConfig,
        opts: &BuildOptions,
    ) -> Result<Self, PolyFitError> {
        check_build_params(delta, &config)?;
        let f = cumulative_function(records)?;
        Ok(Self::from_function_with(&f, delta, config, opts))
    }

    /// [`Self::build_with`] over records that are already sorted,
    /// deduplicated, finite and non-empty, without sorting a second copy.
    /// Bitwise-equal to `build_with` over the same records.
    pub(crate) fn build_sorted(
        records: &[Record],
        delta: f64,
        config: PolyFitConfig,
        opts: &BuildOptions,
    ) -> Result<Self, PolyFitError> {
        check_build_params(delta, &config)?;
        Ok(Self::from_function_with(&cumulative_function_sorted(records), delta, config, opts))
    }

    /// Build a COUNT index (all measures 1).
    pub fn build_count(
        keys: impl IntoIterator<Item = f64>,
        delta: f64,
        config: PolyFitConfig,
    ) -> Result<Self, PolyFitError> {
        let records: Vec<Record> = keys.into_iter().map(|k| Record::new(k, 1.0)).collect();
        Self::build(records, delta, config)
    }

    /// Build directly from a prepared target function (used by drivers that
    /// already materialised `CF`).
    pub fn from_function(f: &TargetFunction, delta: f64, config: PolyFitConfig) -> Self {
        Self::from_function_with(f, delta, config, &BuildOptions::default())
    }

    /// [`Self::from_function`] through the shared build pipeline.
    pub fn from_function_with(
        f: &TargetFunction,
        delta: f64,
        config: PolyFitConfig,
        opts: &BuildOptions,
    ) -> Self {
        let t0 = std::time::Instant::now();
        let specs = segment_function(f, &config, delta, ErrorMetric::DataPoint, opts);
        let seg_stats = specs
            .iter()
            .map(|s| SegmentStats {
                point_start: s.start,
                point_end: s.end,
                lo_key: f.keys[s.start],
                hi_key: f.keys[s.end],
                residual: s.certified_error,
                cf_before: if s.start == 0 { 0.0 } else { f.values[s.start - 1] },
                cf_end: f.values[s.end],
            })
            .collect();
        let dir = CompiledDirectory::from_specs(f, specs);
        let total = *f.values.last().expect("non-empty function");
        let domain = f.domain();
        Self::assemble(dir, delta, total, domain, Some(seg_stats), t0.elapsed())
    }

    /// Reassemble an index from decoded parts (see [`crate::serialize`])
    /// or from a completed shadow compaction. Segments must be sorted and
    /// tiling; `seg_stats`, when present, must align with them.
    pub(crate) fn from_parts(
        segments: Vec<Segment>,
        delta: f64,
        total: f64,
        domain: (f64, f64),
        seg_stats: Option<Vec<SegmentStats>>,
        build_time: std::time::Duration,
    ) -> Self {
        let dir = CompiledDirectory::from_segments(segments);
        Self::assemble(dir, delta, total, domain, seg_stats, build_time)
    }

    fn assemble(
        dir: CompiledDirectory,
        delta: f64,
        total: f64,
        domain: (f64, f64),
        seg_stats: Option<Vec<SegmentStats>>,
        build_time: std::time::Duration,
    ) -> Self {
        debug_assert!(seg_stats.as_ref().is_none_or(|s| s.len() == dir.len()));
        let build_stats = IndexStats {
            segments: dir.len(),
            logical_size_bytes: Self::logical_bytes(&dir),
            build_time,
        };
        PolyFitSum { dir, delta, total, domain, build_stats, seg_stats }
    }

    fn logical_bytes(dir: &CompiledDirectory) -> usize {
        dir.segments_logical_bytes() + 3 * std::mem::size_of::<f64>() // delta, total, domain edge
    }

    /// Approximate the cumulative function at `k`, within δ at every
    /// dataset key (and exactly 0 / `total` outside the key domain).
    #[inline]
    pub fn cf(&self, k: f64) -> f64 {
        if k < self.domain.0 {
            return 0.0;
        }
        if k >= self.domain.1 {
            return self.total;
        }
        self.dir.locate_eval(k).expect("k is inside the key domain")
    }

    /// Approximate range SUM over `(lq, uq]`: `|answer − exact| ≤ 2δ` at
    /// dataset-key endpoints (paper Lemma 2 machinery).
    #[inline]
    pub fn query(&self, lq: f64, uq: f64) -> f64 {
        if lq >= uq {
            return 0.0;
        }
        self.cf(uq) - self.cf(lq)
    }

    /// Batched range SUM: answers every `(lq, uq]` of `ranges`, bitwise
    /// identical to per-range [`Self::query`] calls.
    ///
    /// Engine execution: out-of-domain endpoints resolve to the exact
    /// constants `0` / `total` without touching the directory; the
    /// in-domain endpoints are dense-packed and dispatched through
    /// [`CompiledDirectory::locate_eval_batch_each`], which runs
    /// [`DESCENT_LANES`](crate::directory::DESCENT_LANES) Eytzinger
    /// descents in lockstep (overlapping their dependent cache misses)
    /// and evaluates the located rows with lane-pack Horner kernels. No
    /// endpoint sort is needed — the descents are independent — and every
    /// lane reproduces the scalar operation sequence exactly, so answers
    /// stay bitwise-equal to the scalar path.
    pub fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<f64> {
        let m2 = 2 * ranges.len();
        let mut cf = vec![0.0f64; m2];
        let mut keys = Vec::with_capacity(m2);
        let mut slots = Vec::with_capacity(m2);
        for (e, slot) in cf.iter_mut().enumerate() {
            let k = endpoint_of(ranges, e);
            if k < self.domain.0 {
                // *slot stays 0.0.
            } else if k >= self.domain.1 {
                *slot = self.total;
            } else {
                keys.push(k);
                slots.push(e);
            }
        }
        self.dir.locate_eval_batch_each(&keys, &mut |j, v| {
            cf[slots[j]] = v.expect("k is inside the key domain");
        });
        combine_endpoint_cf(ranges, &cf)
    }

    /// Opt-in parallel batched range SUM: `ranges` is split into
    /// contiguous chunks and each chunk runs [`Self::query_batch`] (the
    /// full batched engine) on its own worker under
    /// `std::thread::scope`. Per-range answers depend only on that
    /// range's two endpoints, so the concatenation is **bitwise-equal**
    /// to the serial [`Self::query_batch`] for any thread count.
    ///
    /// `threads == 0` resolves to the machine's available parallelism;
    /// `threads <= 1` (or a batch too small to split) runs the serial
    /// engine. Note the speedup is hardware-gated: on a box with a single
    /// CPU of FP throughput this degrades gracefully to ~1.0× (same
    /// measurement note as the parallel build pipeline in ROADMAP.md).
    pub fn query_batch_par(&self, ranges: &[(f64, f64)], threads: usize) -> Vec<f64> {
        // Clamp to `max(1, min(threads, len))`: `threads == 0` resolves
        // to available parallelism, oversubscription beyond one range per
        // worker would spawn empty-chunk workers, and an empty batch must
        // not divide by zero. (The serial floor below subsumes most of
        // these, but the clamp is the documented contract.)
        let threads = polyfit_exact::resolve_threads(threads).min(ranges.len()).max(1);
        // Floor: below a few hundred ranges (or a couple per worker),
        // thread spawn costs more than the batch itself.
        if threads <= 1 || ranges.len() < (2 * threads).max(512) {
            return self.query_batch(ranges);
        }
        let chunk_len = ranges.len().div_ceil(threads);
        let parts: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .chunks(chunk_len)
                .map(|chunk| s.spawn(move || self.query_batch(chunk)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("query worker panicked")).collect()
        });
        let mut out = Vec::with_capacity(ranges.len());
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// The δ this index certifies per endpoint.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of polynomial segments `h`.
    pub fn num_segments(&self) -> usize {
        self.dir.len()
    }

    /// Largest certified per-segment error (≤ δ by construction).
    pub fn max_certified_error(&self) -> f64 {
        self.dir.max_certified_error()
    }

    /// Logical serialized index size in bytes (paper Fig. 19 metric).
    pub fn size_bytes(&self) -> usize {
        self.build_stats.logical_size_bytes
    }

    /// Construction statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.build_stats
    }

    /// Key domain covered by the index.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }

    /// Exact total of all measures (CF at the right domain edge).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Materialise the segments (diagnostics, plots, serialization —
    /// cold paths; the hot path reads the compiled arena directly).
    pub fn segments(&self) -> Vec<Segment> {
        self.dir.segments()
    }

    /// Materialise segment `i` (the dynamic index's compaction reads
    /// individual reusable segments through this).
    pub fn segment(&self, i: usize) -> Segment {
        self.dir.segment(i)
    }

    /// The compiled read-path directory backing this index.
    pub fn directory(&self) -> &CompiledDirectory {
        &self.dir
    }

    /// Per-segment fit summaries, when available (always for built
    /// indexes; absent only after decoding a stats-less file).
    pub fn segment_stats(&self) -> Option<&[SegmentStats]> {
        self.seg_stats.as_deref()
    }

    /// Aggregate view over the segment statistics.
    pub fn segment_stats_summary(&self) -> Option<SegmentStatsSummary> {
        self.seg_stats.as_deref().map(SegmentStatsSummary::of)
    }

    /// Reconstruct [`SegmentStats`] from the backing record set (sorted,
    /// distinct keys, exactly the records this index was built over) —
    /// the recovery path for indexes decoded from stats-less files, so
    /// incremental compaction works on them too. Cost: one `O(n)` prefix
    /// sweep plus a binary search per segment.
    pub fn derived_segment_stats(&self, records: &[Record]) -> Vec<SegmentStats> {
        debug_assert!(records.windows(2).all(|w| w[0].key < w[1].key));
        if records.is_empty() {
            return Vec::new();
        }
        let mut prefix = Vec::with_capacity(records.len());
        let mut acc = 0.0;
        for r in records {
            acc += r.measure;
            prefix.push(acc);
        }
        self.dir
            .segments()
            .iter()
            .map(|s| {
                // Saturate rather than underflow on segments outside the
                // record set (possible only with inconsistent inputs —
                // compaction's plan guards then force a refit).
                let end = records.partition_point(|r| r.key <= s.hi_key).max(1) - 1;
                let start = records.partition_point(|r| r.key < s.lo_key).min(end);
                SegmentStats {
                    point_start: start,
                    point_end: end,
                    lo_key: s.lo_key,
                    hi_key: s.hi_key,
                    residual: s.error,
                    cf_before: if start == 0 { 0.0 } else { prefix[start - 1] },
                    cf_end: prefix[end],
                }
            })
            .collect()
    }
}

/// Endpoint `e` of the flattened `2m` endpoint list: even indices are the
/// lower bound of range `e / 2`, odd indices the upper bound.
#[inline]
fn endpoint_of(ranges: &[(f64, f64)], e: usize) -> f64 {
    let (lq, uq) = ranges[e / 2];
    if e.is_multiple_of(2) {
        lq
    } else {
        uq
    }
}

/// Fold per-endpoint CF values back into per-range answers, preserving
/// the inverted-range convention of the single-query path.
fn combine_endpoint_cf(ranges: &[(f64, f64)], cf: &[f64]) -> Vec<f64> {
    ranges
        .iter()
        .enumerate()
        .map(|(q, &(lq, uq))| if lq >= uq { 0.0 } else { cf[2 * q + 1] - cf[2 * q] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyfit_exact::KeyCumulativeArray;

    fn records(n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::new(i as f64 * 1.5, 1.0 + ((i * 7) % 13) as f64)).collect()
    }

    fn exact_of(records: &[Record]) -> KeyCumulativeArray {
        let mut rs = records.to_vec();
        polyfit_exact::dataset::sort_records(&mut rs);
        KeyCumulativeArray::new(&polyfit_exact::dataset::dedup_sum(rs))
    }

    #[test]
    fn cf_within_delta_at_every_key() {
        let rs = records(2000);
        let exact = exact_of(&rs);
        let idx = PolyFitSum::build(rs, 25.0, PolyFitConfig::default()).unwrap();
        for &k in exact.keys() {
            let err = (idx.cf(k) - exact.cf(k)).abs();
            assert!(err <= 25.0 + 1e-9, "key {k}: err {err}");
        }
    }

    #[test]
    fn query_within_two_delta() {
        let rs = records(3000);
        let exact = exact_of(&rs);
        let idx = PolyFitSum::build(rs, 40.0, PolyFitConfig::default()).unwrap();
        let keys = exact.keys();
        for (a, b) in [(0usize, 2999usize), (10, 20), (500, 2500), (1234, 1235)] {
            let (l, u) = (keys[a], keys[b]);
            let err = (idx.query(l, u) - exact.range_sum(l, u)).abs();
            assert!(err <= 80.0 + 1e-9, "({l}, {u}]: err {err}");
        }
    }

    #[test]
    fn domain_edges_exact() {
        let rs = records(500);
        let exact = exact_of(&rs);
        let idx = PolyFitSum::build(rs, 10.0, PolyFitConfig::default()).unwrap();
        assert_eq!(idx.cf(idx.domain().0 - 1.0), 0.0);
        assert_eq!(idx.cf(idx.domain().1), exact.total());
        assert_eq!(idx.cf(idx.domain().1 + 100.0), exact.total());
    }

    #[test]
    fn tighter_delta_more_segments() {
        let rs = records(2000);
        let loose = PolyFitSum::build(rs.clone(), 100.0, PolyFitConfig::default()).unwrap();
        let tight = PolyFitSum::build(rs, 5.0, PolyFitConfig::default()).unwrap();
        assert!(tight.num_segments() >= loose.num_segments());
        assert!(tight.size_bytes() >= loose.size_bytes());
    }

    #[test]
    fn certified_error_below_delta() {
        let idx = PolyFitSum::build(records(1000), 15.0, PolyFitConfig::default()).unwrap();
        assert!(idx.max_certified_error() <= 15.0 + 1e-9);
    }

    #[test]
    fn count_flavour() {
        let keys: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let idx = PolyFitSum::build_count(keys.clone(), 10.0, PolyFitConfig::default()).unwrap();
        // COUNT over (100, 900] = 800.
        let approx = idx.query(100.0, 900.0);
        assert!((approx - 800.0).abs() <= 20.0, "approx {approx}");
    }

    #[test]
    fn inverted_query_is_zero() {
        let idx = PolyFitSum::build(records(100), 10.0, PolyFitConfig::default()).unwrap();
        assert_eq!(idx.query(50.0, 10.0), 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(matches!(
            PolyFitSum::build(vec![], 1.0, PolyFitConfig::default()),
            Err(PolyFitError::EmptyDataset)
        ));
        assert!(matches!(
            PolyFitSum::build(records(10), -1.0, PolyFitConfig::default()),
            Err(PolyFitError::InvalidErrorBound { .. })
        ));
        assert!(matches!(
            PolyFitSum::build(records(10), 1.0, PolyFitConfig::with_degree(0)),
            Err(PolyFitError::InvalidDegree { .. })
        ));
    }

    #[test]
    fn index_is_much_smaller_than_data() {
        let rs = records(20_000);
        let raw_bytes = rs.len() * std::mem::size_of::<Record>();
        let idx = PolyFitSum::build(rs, 200.0, PolyFitConfig::default()).unwrap();
        assert!(
            idx.size_bytes() * 10 < raw_bytes,
            "index {} vs raw {}",
            idx.size_bytes(),
            raw_bytes
        );
    }

    #[test]
    fn parallel_batch_matches_serial_bitwise() {
        let idx = PolyFitSum::build(records(6000), 30.0, PolyFitConfig::default()).unwrap();
        let (d0, d1) = idx.domain();
        let span = d1 - d0;
        // Enough ranges to clear the parallelisation floor, endpoints in
        // and out of the domain, plus inverted and degenerate ranges.
        let ranges: Vec<(f64, f64)> = (0..3000)
            .map(|i| {
                let l = d0 - 10.0 + span * ((i * 37) % 101) as f64 / 99.0;
                let u = l + span * ((i * 13) % 29) as f64 / 28.0 - 5.0;
                (l, u)
            })
            .collect();
        let serial = idx.query_batch(&ranges);
        for threads in [1usize, 2, 4, 7] {
            let par = idx.query_batch_par(&ranges, threads);
            assert_eq!(par.len(), serial.len());
            for (q, (a, b)) in par.iter().zip(&serial).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}, range {q}");
            }
        }
        // Small batches fall back to the serial sweep.
        let small = &ranges[..8];
        let a = idx.query_batch_par(small, 4);
        let b = idx.query_batch(small);
        assert_eq!(a, b);
    }

    /// Edge regression: `threads == 0` (auto), `threads > len`, and an
    /// empty batch must neither panic nor spawn empty-chunk workers —
    /// the clamp is `max(1, min(threads, len))`.
    #[test]
    fn parallel_batch_edge_thread_counts() {
        let idx = PolyFitSum::build(records(2000), 20.0, PolyFitConfig::default()).unwrap();
        assert!(idx.query_batch_par(&[], 0).is_empty());
        assert!(idx.query_batch_par(&[], 7).is_empty());
        let ranges: Vec<(f64, f64)> = (0..600).map(|i| (i as f64, i as f64 + 50.0)).collect();
        let serial = idx.query_batch(&ranges);
        for threads in [0usize, 1, 601, 10_000, usize::MAX] {
            let par = idx.query_batch_par(&ranges, threads);
            assert_eq!(par.len(), serial.len(), "threads {threads}");
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}");
            }
        }
        // A single range with an absurd thread count degenerates to the
        // serial sweep.
        let one = idx.query_batch_par(&ranges[..1], 64);
        assert_eq!(one[0].to_bits(), serial[0].to_bits());
    }

    #[test]
    fn stats_populated() {
        let idx = PolyFitSum::build(records(500), 20.0, PolyFitConfig::default()).unwrap();
        assert_eq!(idx.stats().segments, idx.num_segments());
        assert!(idx.stats().logical_size_bytes > 0);
    }

    #[test]
    fn segment_stats_align_with_segments() {
        let rs = {
            let mut rs = records(2000);
            polyfit_exact::dataset::sort_records(&mut rs);
            polyfit_exact::dataset::dedup_sum(rs)
        };
        let idx = PolyFitSum::build(rs.clone(), 25.0, PolyFitConfig::default()).unwrap();
        let stats = idx.segment_stats().expect("built indexes carry stats");
        assert_eq!(stats.len(), idx.num_segments());
        // Spans tile the record set, key bounds match segments, residual
        // equals the certified error, endpoint state is the exact prefix.
        assert_eq!(stats[0].point_start, 0);
        assert_eq!(stats.last().unwrap().point_end, rs.len() - 1);
        let mut acc = 0.0;
        let mut prefix = Vec::new();
        for r in &rs {
            acc += r.measure;
            prefix.push(acc);
        }
        for (seg, st) in idx.segments().iter().zip(stats) {
            assert_eq!((st.lo_key, st.hi_key), (seg.lo_key, seg.hi_key));
            assert_eq!(st.residual, seg.error);
            assert!(st.residual <= 25.0 + 1e-9);
            assert_eq!(st.cf_end, prefix[st.point_end]);
            let before = if st.point_start == 0 { 0.0 } else { prefix[st.point_start - 1] };
            assert_eq!(st.cf_before, before);
        }
        for w in stats.windows(2) {
            assert_eq!(w[0].point_end + 1, w[1].point_start, "spans must tile");
        }
        // The derived stats (stats-less decode recovery) reproduce the
        // build-time ones exactly.
        assert_eq!(idx.derived_segment_stats(&rs), stats);
        let summary = idx.segment_stats_summary().unwrap();
        assert_eq!(summary.segments, idx.num_segments());
        assert_eq!(summary.total_mass, prefix.last().copied().unwrap());
    }
}
