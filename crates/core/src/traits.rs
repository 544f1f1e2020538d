//! The `AggregateIndex` abstraction: one interface over every range
//! aggregate structure in the workspace.
//!
//! PolyFit's evaluation (Tables V–VI) compares three families of methods —
//! PolyFit itself, exact structures, and learned/heuristic baselines —
//! over the same query workloads. Before this layer existed, every harness
//! and the CLI dispatched with per-method match arms; now each structure
//! implements [`AggregateIndex`] (or [`AggregateIndex2d`] for two-key
//! rectangles) and callers hold `&dyn AggregateIndex` trait objects.
//!
//! Implementations for the `polyfit-exact` structures live here (the exact
//! crate sits *below* this one in the dependency order, so the orphan rule
//! places the impls next to the trait). Baseline implementations live in
//! `polyfit-baselines`, which depends on this crate.

use polyfit_exact::artree::Rect;
use polyfit_exact::{ARTree, AggTree, BPlusTree, KeyCumulativeArray};

use crate::drivers::{GuaranteedAvg, GuaranteedMax, GuaranteedMin, GuaranteedSum};
use crate::dynamic::{DynamicPolyFitSum, DynamicSnapshot};
use crate::index_max::{Extremum, PolyFitMax};
use crate::index_sum::PolyFitSum;
use crate::stats::IndexStats;
use crate::twod::{Guaranteed2dCount, QuadPolyFit};

/// The aggregate function an index answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateKind {
    /// Range SUM over `(lq, uq]`.
    Sum,
    /// Range COUNT over `(lq, uq]` (SUM with unit measures).
    Count,
    /// Range MAX over `[lq, uq]` (step-function semantics).
    Max,
    /// Range MIN over `[lq, uq]`.
    Min,
    /// Range AVG over `(lq, uq]`.
    Avg,
}

/// What an answer promises relative to the exact aggregate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Guarantee {
    /// The answer is exact.
    Exact,
    /// `|answer − truth| ≤ bound` at the method's certified endpoints
    /// (Problem 1 of the paper).
    Absolute(f64),
    /// `|answer − truth| / truth ≤ bound`, via certificate or exact
    /// fallback (Problem 2 of the paper).
    Relative(f64),
    /// No deterministic bound (sampling or heuristic method).
    Heuristic,
}

/// A range-aggregate answer with provenance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeAggregate {
    /// The aggregate value.
    pub value: f64,
    /// The promise attached to `value`.
    pub guarantee: Guarantee,
    /// True when a relative-guarantee certificate failed and an exact
    /// structure produced `value` instead (Fig. 10 of the paper).
    pub used_fallback: bool,
}

impl RangeAggregate {
    /// An exact answer.
    pub fn exact(value: f64) -> Self {
        RangeAggregate { value, guarantee: Guarantee::Exact, used_fallback: false }
    }

    /// An answer within `bound` absolutely.
    pub fn absolute(value: f64, bound: f64) -> Self {
        RangeAggregate { value, guarantee: Guarantee::Absolute(bound), used_fallback: false }
    }

    /// An answer within `bound` relatively.
    pub fn relative(value: f64, bound: f64, used_fallback: bool) -> Self {
        RangeAggregate { value, guarantee: Guarantee::Relative(bound), used_fallback }
    }

    /// An answer with no deterministic bound.
    pub fn heuristic(value: f64) -> Self {
        RangeAggregate { value, guarantee: Guarantee::Heuristic, used_fallback: false }
    }

    /// Compose two SUM-family sub-answers over *disjoint adjacent*
    /// sub-ranges into the answer for their union — the mergeable
    /// algebra the sharded serving layer gathers spanning ranges with.
    /// Values add, absolute bounds add (`Exact` composes as a zero
    /// bound), and `used_fallback` ORs. Relative or heuristic promises
    /// do not compose additively and degrade to [`Guarantee::Heuristic`].
    ///
    /// The fold is deterministic: the serving layer always folds
    /// sub-answers in ascending shard order, so a scatter-gather answer
    /// is bitwise-reproducible regardless of which shard finished first.
    pub fn merge_sum(self, other: RangeAggregate) -> RangeAggregate {
        let guarantee = match (self.guarantee, other.guarantee) {
            (Guarantee::Exact, Guarantee::Exact) => Guarantee::Exact,
            (Guarantee::Exact, Guarantee::Absolute(b))
            | (Guarantee::Absolute(b), Guarantee::Exact) => Guarantee::Absolute(b),
            (Guarantee::Absolute(a), Guarantee::Absolute(b)) => Guarantee::Absolute(a + b),
            _ => Guarantee::Heuristic,
        };
        RangeAggregate {
            value: self.value + other.value,
            guarantee,
            used_fallback: self.used_fallback || other.used_fallback,
        }
    }
}

/// Classification of raw `(lo, hi)` query bounds under the
/// workspace-wide query-boundary contract (see [`classify_bounds`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryBounds {
    /// At least one endpoint is NaN or ±∞ — the query is unanswerable.
    NonFinite,
    /// `lo > hi` — treated as an empty range.
    Reversed,
    /// Finite, ordered bounds — answered normally.
    Proper,
}

/// Vet raw client bounds once, uniformly across every implementation.
///
/// A serving layer forwards `(lo, hi)` pairs from untrusted clients
/// straight into whatever index sits behind the trait object, so the
/// meaning of a reversed or non-finite range must not be
/// implementation-dependent (historically it was: some structures
/// answered `0`, some `None`, some walked a search path with NaN keys).
/// The contract every [`AggregateIndex`] impl honors:
///
/// * **non-finite endpoint** (NaN or ±∞) ⇒ `None` — there is no key it
///   can denote;
/// * **reversed bounds** (`lo > hi`) ⇒ the empty-range answer: `0` with
///   the usual guarantee for SUM/COUNT-family queries, `None` for
///   extremum and average queries;
/// * **proper bounds** ⇒ the index answers normally (`lo == hi` is a
///   proper, possibly empty, range under each kind's own semantics).
#[inline]
pub fn classify_bounds(lo: f64, hi: f64) -> QueryBounds {
    if !lo.is_finite() || !hi.is_finite() {
        QueryBounds::NonFinite
    } else if lo > hi {
        QueryBounds::Reversed
    } else {
        QueryBounds::Proper
    }
}

/// [`classify_bounds`] for a rectangle: non-finite wins over reversed,
/// and either axis being reversed makes the rectangle empty.
#[inline]
pub fn classify_rect_bounds(u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> QueryBounds {
    match (classify_bounds(u_lo, u_hi), classify_bounds(v_lo, v_hi)) {
        (QueryBounds::NonFinite, _) | (_, QueryBounds::NonFinite) => QueryBounds::NonFinite,
        (QueryBounds::Reversed, _) | (_, QueryBounds::Reversed) => QueryBounds::Reversed,
        _ => QueryBounds::Proper,
    }
}

/// Apply the query-boundary contract over a batch: contract-degenerate
/// ranges are answered without touching the index (`None` for non-finite,
/// `empty` for reversed), proper ranges pass to `run` in their original
/// relative order, and the results are spliced back positionally. Batches
/// with no degenerate range take a zero-copy fast path, so overriding
/// implementations keep their batched execution untouched.
pub fn guarded_batch(
    ranges: &[(f64, f64)],
    empty: Option<RangeAggregate>,
    run: impl FnOnce(&[(f64, f64)]) -> Vec<Option<RangeAggregate>>,
) -> Vec<Option<RangeAggregate>> {
    if ranges.iter().all(|&(lo, hi)| classify_bounds(lo, hi) == QueryBounds::Proper) {
        return run(ranges);
    }
    let proper: Vec<(f64, f64)> = ranges
        .iter()
        .copied()
        .filter(|&(lo, hi)| classify_bounds(lo, hi) == QueryBounds::Proper)
        .collect();
    let mut inner = run(&proper).into_iter();
    ranges
        .iter()
        .map(|&(lo, hi)| match classify_bounds(lo, hi) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => empty,
            QueryBounds::Proper => inner.next().expect("one inner answer per proper range"),
        })
        .collect()
}

/// [`guarded_batch`] for rectangle batches: contract-degenerate rects are
/// answered without touching the index (`None` for non-finite, `empty` for
/// reversed/empty rectangles), proper rects pass to `run` in their
/// original relative order, and the results are spliced back
/// positionally. All-proper batches take a zero-copy fast path.
pub fn guarded_batch_rect(
    rects: &[(f64, f64, f64, f64)],
    empty: Option<RangeAggregate>,
    run: impl FnOnce(&[(f64, f64, f64, f64)]) -> Vec<Option<RangeAggregate>>,
) -> Vec<Option<RangeAggregate>> {
    let proper = |&(a, b, c, d): &(f64, f64, f64, f64)| {
        classify_rect_bounds(a, b, c, d) == QueryBounds::Proper
    };
    if rects.iter().all(proper) {
        return run(rects);
    }
    let kept: Vec<(f64, f64, f64, f64)> = rects.iter().copied().filter(proper).collect();
    let mut inner = run(&kept).into_iter();
    rects
        .iter()
        .map(|&(a, b, c, d)| match classify_rect_bounds(a, b, c, d) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => empty,
            QueryBounds::Proper => inner.next().expect("one inner answer per proper rect"),
        })
        .collect()
}

/// A built range-aggregate index over single-key records.
///
/// Object safe: harnesses and the CLI dispatch over `&dyn AggregateIndex`,
/// and the serving layer shares one index across worker threads as
/// [`SharedIndex`]. Query conventions follow the workspace standard
/// (`polyfit-exact` crate docs): half-open `(lq, uq]` for SUM/COUNT/AVG,
/// closed step-function semantics `[lq, uq]` for MAX/MIN. Every
/// implementation honors the [`classify_bounds`] boundary contract.
pub trait AggregateIndex {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// The aggregate this index answers.
    fn kind(&self) -> AggregateKind;

    /// Answer the range aggregate, or `None` when the range is empty or
    /// outside the key domain for extremum/average queries.
    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate>;

    /// Answer a batch of range aggregates: element `i` equals
    /// `self.query(ranges[i].0, ranges[i].1)` bit-for-bit.
    ///
    /// The default loops over [`Self::query`]; PolyFit indexes override
    /// it to dispatch the batch through the compiled directory's
    /// SIMD-batched descent engine (lockstep interleaved lookups +
    /// lane-pack Horner evaluation), which is how heavy query traffic
    /// should be served.
    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        ranges.iter().map(|&(lq, uq)| self.query(lq, uq)).collect()
    }

    /// Opt-in parallel batch execution: answers equal [`Self::query_batch`]
    /// bit-for-bit, with the batch split across up to `threads` engine
    /// workers (`0` = available parallelism) where the structure
    /// supports it. The default ignores `threads` and runs the serial
    /// batch, so every implementation is automatically correct; PolyFit
    /// SUM indexes override it with scoped-thread chunks. The speedup is
    /// hardware-gated — a box with one CPU of FP throughput sees ~1.0×.
    fn query_batch_par(
        &self,
        ranges: &[(f64, f64)],
        threads: usize,
    ) -> Vec<Option<RangeAggregate>> {
        let _ = threads;
        self.query_batch(ranges)
    }

    /// Logical serialized size in bytes (the paper's Fig. 19 metric).
    fn size_bytes(&self) -> usize;

    /// Construction statistics, when the structure records them.
    fn stats(&self) -> Option<&IndexStats> {
        None
    }
}

/// A built range-aggregate index over two-key points, queried with
/// half-open rectangles `(u_lo, u_hi] × (v_lo, v_hi]`.
pub trait AggregateIndex2d {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// The aggregate this index answers.
    fn kind(&self) -> AggregateKind;

    /// Answer the rectangle aggregate.
    fn query_rect(&self, u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> Option<RangeAggregate>;

    /// Answer a batch of rectangle aggregates: element `i` equals the
    /// corresponding [`Self::query_rect`] call bit-for-bit (the 2-D
    /// analogue of [`AggregateIndex::query_batch`]).
    fn query_batch_rect(&self, rects: &[(f64, f64, f64, f64)]) -> Vec<Option<RangeAggregate>> {
        rects.iter().map(|&(a, b, c, d)| self.query_rect(a, b, c, d)).collect()
    }

    /// Logical serialized size in bytes.
    fn size_bytes(&self) -> usize;

    /// Construction statistics, when the structure records them.
    fn stats(&self) -> Option<&IndexStats> {
        None
    }
}

// ---------------------------------------------------------------------------
// PolyFit indexes and drivers
// ---------------------------------------------------------------------------

impl AggregateIndex for PolyFitSum {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Sum
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        // Lemma 2: two δ-certified endpoint evaluations → 2δ.
        match classify_bounds(lq, uq) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => Some(RangeAggregate::absolute(0.0, 2.0 * self.delta())),
            QueryBounds::Proper => {
                Some(RangeAggregate::absolute(PolyFitSum::query(self, lq, uq), 2.0 * self.delta()))
            }
        }
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        let bound = 2.0 * self.delta();
        guarded_batch(ranges, Some(RangeAggregate::absolute(0.0, bound)), |proper| {
            PolyFitSum::query_batch(self, proper)
                .into_iter()
                .map(|v| Some(RangeAggregate::absolute(v, bound)))
                .collect()
        })
    }

    fn query_batch_par(
        &self,
        ranges: &[(f64, f64)],
        threads: usize,
    ) -> Vec<Option<RangeAggregate>> {
        let bound = 2.0 * self.delta();
        guarded_batch(ranges, Some(RangeAggregate::absolute(0.0, bound)), |proper| {
            PolyFitSum::query_batch_par(self, proper, threads)
                .into_iter()
                .map(|v| Some(RangeAggregate::absolute(v, bound)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        PolyFitSum::size_bytes(self)
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(PolyFitSum::stats(self))
    }
}

impl AggregateIndex for PolyFitMax {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        match self.orientation() {
            Extremum::Max => AggregateKind::Max,
            Extremum::Min => AggregateKind::Min,
        }
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        // Lemma 4: the continuous certification bounds any endpoint by δ.
        // Dispatch on the fold direction recorded at build time, so a
        // MIN-built index answers minima through the trait. Reversed
        // ranges cover no step of the staircase: the empty answer is
        // `None`, same as a range left of the domain.
        if classify_bounds(lq, uq) != QueryBounds::Proper {
            return None;
        }
        let v = match self.orientation() {
            Extremum::Max => self.query_max(lq, uq),
            Extremum::Min => self.query_min(lq, uq),
        };
        v.map(|v| RangeAggregate::absolute(v, self.delta()))
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        let delta = self.delta();
        guarded_batch(ranges, None, |proper| {
            let vals = match self.orientation() {
                Extremum::Max => self.query_batch_max(proper),
                Extremum::Min => self.query_batch_min(proper),
            };
            vals.into_iter().map(|v| v.map(|v| RangeAggregate::absolute(v, delta))).collect()
        })
    }

    fn size_bytes(&self) -> usize {
        PolyFitMax::size_bytes(self)
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(PolyFitMax::stats(self))
    }
}

impl AggregateIndex for DynamicPolyFitSum {
    fn name(&self) -> &'static str {
        "PolyFit-dynamic"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Sum
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        // The delta buffer contributes exactly; the bound is the base's
        // (and holds before, during, and after a shadow compaction).
        match classify_bounds(lq, uq) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => Some(RangeAggregate::absolute(0.0, 2.0 * self.delta())),
            QueryBounds::Proper => Some(RangeAggregate::absolute(
                DynamicPolyFitSum::query(self, lq, uq),
                2.0 * self.delta(),
            )),
        }
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        let bound = 2.0 * self.delta();
        guarded_batch(ranges, Some(RangeAggregate::absolute(0.0, bound)), |proper| {
            DynamicPolyFitSum::query_batch(self, proper)
                .into_iter()
                .map(|v| Some(RangeAggregate::absolute(v, bound)))
                .collect()
        })
    }

    fn query_batch_par(
        &self,
        ranges: &[(f64, f64)],
        threads: usize,
    ) -> Vec<Option<RangeAggregate>> {
        let bound = 2.0 * self.delta();
        guarded_batch(ranges, Some(RangeAggregate::absolute(0.0, bound)), |proper| {
            DynamicPolyFitSum::query_batch_par(self, proper, threads)
                .into_iter()
                .map(|v| Some(RangeAggregate::absolute(v, bound)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        // Base segments plus the buffered (key, Δmeasure) pairs.
        self.base().map_or(0, |b| b.size_bytes()) + self.buffered() * 2 * std::mem::size_of::<f64>()
    }

    fn stats(&self) -> Option<&IndexStats> {
        self.base().map(|b| b.stats())
    }
}

impl AggregateIndex for DynamicSnapshot {
    fn name(&self) -> &'static str {
        "PolyFit-dynamic-snapshot"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Sum
    }

    // Bitwise-identical to the `DynamicPolyFitSum` impl at freeze time —
    // the sharded gather path mixes live-index and snapshot sub-answers
    // and must not be able to tell them apart.
    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        match classify_bounds(lq, uq) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => Some(RangeAggregate::absolute(0.0, 2.0 * self.delta())),
            QueryBounds::Proper => Some(RangeAggregate::absolute(
                DynamicSnapshot::query(self, lq, uq),
                2.0 * self.delta(),
            )),
        }
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        let bound = 2.0 * self.delta();
        guarded_batch(ranges, Some(RangeAggregate::absolute(0.0, bound)), |proper| {
            DynamicSnapshot::query_batch(self, proper)
                .into_iter()
                .map(|v| Some(RangeAggregate::absolute(v, bound)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        self.base().map_or(0, |b| b.size_bytes()) + self.buffered() * 2 * std::mem::size_of::<f64>()
    }

    fn stats(&self) -> Option<&IndexStats> {
        self.base().map(|b| b.stats())
    }
}

impl AggregateIndex for GuaranteedSum {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Sum
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        match classify_bounds(lq, uq) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => {
                Some(RangeAggregate::absolute(0.0, 2.0 * self.index().delta()))
            }
            QueryBounds::Proper => {
                Some(RangeAggregate::absolute(self.query_abs(lq, uq), 2.0 * self.index().delta()))
            }
        }
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        let bound = 2.0 * self.index().delta();
        guarded_batch(ranges, Some(RangeAggregate::absolute(0.0, bound)), |proper| {
            self.index()
                .query_batch(proper)
                .into_iter()
                .map(|v| Some(RangeAggregate::absolute(v, bound)))
                .collect()
        })
    }

    fn query_batch_par(
        &self,
        ranges: &[(f64, f64)],
        threads: usize,
    ) -> Vec<Option<RangeAggregate>> {
        let bound = 2.0 * self.index().delta();
        guarded_batch(ranges, Some(RangeAggregate::absolute(0.0, bound)), |proper| {
            self.index()
                .query_batch_par(proper, threads)
                .into_iter()
                .map(|v| Some(RangeAggregate::absolute(v, bound)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        self.index().size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(self.index().stats())
    }
}

impl AggregateIndex for GuaranteedMax {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Max
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        if classify_bounds(lq, uq) != QueryBounds::Proper {
            return None;
        }
        self.query_abs(lq, uq).map(|v| RangeAggregate::absolute(v, self.index().delta()))
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        let delta = self.index().delta();
        guarded_batch(ranges, None, |proper| {
            self.index()
                .query_batch_max(proper)
                .into_iter()
                .map(|v| v.map(|v| RangeAggregate::absolute(v, delta)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        self.index().size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(self.index().stats())
    }
}

impl AggregateIndex for GuaranteedMin {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Min
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        if classify_bounds(lq, uq) != QueryBounds::Proper {
            return None;
        }
        self.query_abs(lq, uq).map(|v| RangeAggregate::absolute(v, self.index().delta()))
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        let delta = self.index().delta();
        guarded_batch(ranges, None, |proper| {
            self.index()
                .query_batch_min(proper)
                .into_iter()
                .map(|v| v.map(|v| RangeAggregate::absolute(v, delta)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        self.index().size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(self.index().stats())
    }
}

impl AggregateIndex for GuaranteedAvg {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Avg
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        // The average of an empty range is undefined — reversed bounds
        // answer `None`, matching the count-indistinguishable-from-zero
        // refusal a proper empty range produces.
        if classify_bounds(lq, uq) != QueryBounds::Proper {
            return None;
        }
        GuaranteedAvg::query(self, lq, uq).map(|ans| RangeAggregate::absolute(ans.value, ans.bound))
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        guarded_batch(ranges, None, |proper| {
            GuaranteedAvg::query_batch(self, proper)
                .into_iter()
                .map(|ans| ans.map(|ans| RangeAggregate::absolute(ans.value, ans.bound)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        self.sum_index().size_bytes() + self.count_index().size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(self.sum_index().stats())
    }
}

/// Adapter pinning an `ε_rel` so a relative-guarantee driver answers
/// through the fixed-arity trait query (the trait cannot thread a
/// per-query ε without losing object safety for every other method).
#[derive(Clone, Debug)]
pub struct RelDispatch<D> {
    driver: D,
    eps_rel: f64,
}

impl<D> RelDispatch<D> {
    /// Wrap `driver`, answering every trait query at `eps_rel`.
    pub fn new(driver: D, eps_rel: f64) -> Self {
        assert!(eps_rel > 0.0, "relative error must be positive");
        RelDispatch { driver, eps_rel }
    }

    /// The wrapped driver.
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// The pinned relative-error target.
    pub fn eps_rel(&self) -> f64 {
        self.eps_rel
    }
}

impl AggregateIndex for RelDispatch<GuaranteedSum> {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Sum
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        match classify_bounds(lq, uq) {
            QueryBounds::NonFinite => None,
            // An empty range's SUM of 0 always fails the Lemma 3
            // certificate, so the (exact, trivially 0) fallback answers.
            QueryBounds::Reversed => Some(RangeAggregate::relative(0.0, self.eps_rel, true)),
            QueryBounds::Proper => {
                let ans = self.driver.query_rel(lq, uq, self.eps_rel);
                Some(RangeAggregate::relative(ans.value, self.eps_rel, ans.used_fallback))
            }
        }
    }

    fn size_bytes(&self) -> usize {
        self.driver.index().size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(self.driver.index().stats())
    }
}

impl AggregateIndex for RelDispatch<GuaranteedMax> {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Max
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        if classify_bounds(lq, uq) != QueryBounds::Proper {
            return None;
        }
        self.driver
            .query_rel(lq, uq, self.eps_rel)
            .map(|ans| RangeAggregate::relative(ans.value, self.eps_rel, ans.used_fallback))
    }

    fn size_bytes(&self) -> usize {
        self.driver.index().size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(self.driver.index().stats())
    }
}

impl AggregateIndex for RelDispatch<GuaranteedMin> {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Min
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        if classify_bounds(lq, uq) != QueryBounds::Proper {
            return None;
        }
        self.driver
            .query_rel(lq, uq, self.eps_rel)
            .map(|ans| RangeAggregate::relative(ans.value, self.eps_rel, ans.used_fallback))
    }

    fn size_bytes(&self) -> usize {
        self.driver.index().size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(self.driver.index().stats())
    }
}

macro_rules! delegate_aggregate_index {
    ($($ptr:ty),+ $(,)?) => {$(
        impl<T: AggregateIndex + ?Sized> AggregateIndex for $ptr {
            fn name(&self) -> &'static str {
                (**self).name()
            }

            fn kind(&self) -> AggregateKind {
                (**self).kind()
            }

            fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
                (**self).query(lq, uq)
            }

            fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
                // Forwarded explicitly so pointer wrappers keep the
                // pointee's sort-and-share override.
                (**self).query_batch(ranges)
            }

            fn query_batch_par(
                &self,
                ranges: &[(f64, f64)],
                threads: usize,
            ) -> Vec<Option<RangeAggregate>> {
                (**self).query_batch_par(ranges, threads)
            }

            fn size_bytes(&self) -> usize {
                (**self).size_bytes()
            }

            fn stats(&self) -> Option<&IndexStats> {
                (**self).stats()
            }
        }
    )+};
}

macro_rules! delegate_aggregate_index_2d {
    ($($ptr:ty),+ $(,)?) => {$(
        impl<T: AggregateIndex2d + ?Sized> AggregateIndex2d for $ptr {
            fn name(&self) -> &'static str {
                (**self).name()
            }

            fn kind(&self) -> AggregateKind {
                (**self).kind()
            }

            fn query_rect(
                &self,
                u_lo: f64,
                u_hi: f64,
                v_lo: f64,
                v_hi: f64,
            ) -> Option<RangeAggregate> {
                (**self).query_rect(u_lo, u_hi, v_lo, v_hi)
            }

            fn query_batch_rect(
                &self,
                rects: &[(f64, f64, f64, f64)],
            ) -> Vec<Option<RangeAggregate>> {
                (**self).query_batch_rect(rects)
            }

            fn size_bytes(&self) -> usize {
                (**self).size_bytes()
            }

            fn stats(&self) -> Option<&IndexStats> {
                (**self).stats()
            }
        }
    )+};
}

// Pointer delegation, so adapters and harnesses can share one structure
// (e.g. a single exact fallback behind `Rc` serving several
// `CertifiedRelSum` wrappers, or one aR-tree timed in several rows).
delegate_aggregate_index!(&T, Box<T>, std::rc::Rc<T>, std::sync::Arc<T>);
delegate_aggregate_index_2d!(&T, Box<T>, std::rc::Rc<T>, std::sync::Arc<T>);

/// A shareable, thread-safe aggregate index. An immutable index needs no
/// serving loop: any number of client threads call
/// [`AggregateIndex::query`] on one `SharedIndex` directly (this is how
/// `polyfit-cli serve` answers static files), while mutable state is
/// served through [`crate::shard::ShardedServer`]. [`AggregateIndex`]
/// deliberately does *not* require `Send + Sync` (single-threaded
/// harnesses share structures behind `Rc`), so concurrent consumers name
/// the bound at the trait-object level instead.
pub type SharedIndex = std::sync::Arc<dyn AggregateIndex + Send + Sync>;

// Object-safety and thread-safety audit: concurrent callers hold an
// index as `Arc<dyn AggregateIndex + Send + Sync>` and query it from many
// threads at once, so (a) both traits must stay object safe and
// (b) every index meant to be served must be `Send + Sync`. Compile-time
// assertions so a regression fails the build, not a production serve.
const _: () = {
    const fn object_safe(_: Option<&dyn AggregateIndex>, _: Option<&dyn AggregateIndex2d>) {}
    object_safe(None, None);
    const fn servable<T: AggregateIndex + Send + Sync>() {}
    servable::<PolyFitSum>();
    servable::<PolyFitMax>();
    servable::<DynamicPolyFitSum>();
    servable::<GuaranteedSum>();
    servable::<GuaranteedMax>();
    servable::<GuaranteedMin>();
    servable::<GuaranteedAvg>();
    servable::<RelDispatch<GuaranteedSum>>();
    servable::<RelDispatch<GuaranteedMax>>();
    servable::<RelDispatch<GuaranteedMin>>();
    servable::<KeyCumulativeArray>();
    servable::<AggTree>();
    servable::<BPlusTree>();
    servable::<CertifiedRelSum<PolyFitSum, KeyCumulativeArray>>();
};

/// Lemma 3-style relative dispatch for *any* SUM-family approximate index
/// with a δ-bounded cumulative function: the approximate answer is
/// certified iff `A ≥ 2δ(1 + 1/ε_rel)`; otherwise the exact structure
/// answers. This is the generic form of the per-method fallback arms the
/// bench harness used to copy-paste for RMI and the FITing-tree.
///
/// The query-boundary contract is inherited from the wrapped indexes:
/// non-finite bounds propagate their `None`, and a reversed range's `0`
/// always fails the certificate, landing on the (exact, trivially `0`)
/// fallback — identically in the one-shot and batched paths.
pub struct CertifiedRelSum<I, E> {
    approx: I,
    exact: E,
    delta: f64,
    eps_rel: f64,
}

impl<I, E> CertifiedRelSum<I, E> {
    /// Wrap `approx` (whose endpoint evaluations are within `delta`) with
    /// `exact` as the fallback, answering at `eps_rel`.
    pub fn new(approx: I, exact: E, delta: f64, eps_rel: f64) -> Self {
        assert!(eps_rel > 0.0, "relative error must be positive");
        assert!(delta > 0.0, "delta must be positive");
        CertifiedRelSum { approx, exact, delta, eps_rel }
    }
}

impl<I: AggregateIndex, E: AggregateIndex> AggregateIndex for CertifiedRelSum<I, E> {
    fn name(&self) -> &'static str {
        self.approx.name()
    }

    fn kind(&self) -> AggregateKind {
        self.approx.kind()
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        let a = self.approx.query(lq, uq)?;
        if a.value >= 2.0 * self.delta * (1.0 + 1.0 / self.eps_rel) {
            Some(RangeAggregate::relative(a.value, self.eps_rel, false))
        } else {
            let e = self.exact.query(lq, uq)?;
            Some(RangeAggregate::relative(e.value, self.eps_rel, true))
        }
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        // The approximate index answers the whole batch through its
        // sort-and-share path; only certificate failures touch the exact
        // structure, one by one (they are the rare case by design).
        let threshold = 2.0 * self.delta * (1.0 + 1.0 / self.eps_rel);
        self.approx
            .query_batch(ranges)
            .into_iter()
            .zip(ranges)
            .map(|(a, &(lq, uq))| {
                let a = a?;
                if a.value >= threshold {
                    Some(RangeAggregate::relative(a.value, self.eps_rel, false))
                } else {
                    let e = self.exact.query(lq, uq)?;
                    Some(RangeAggregate::relative(e.value, self.eps_rel, true))
                }
            })
            .collect()
    }

    fn size_bytes(&self) -> usize {
        self.approx.size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        self.approx.stats()
    }
}

// ---------------------------------------------------------------------------
// Exact structures (polyfit-exact)
// ---------------------------------------------------------------------------

impl AggregateIndex for KeyCumulativeArray {
    fn name(&self) -> &'static str {
        "KCA"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Sum
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        match classify_bounds(lq, uq) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => Some(RangeAggregate::exact(0.0)),
            QueryBounds::Proper => Some(RangeAggregate::exact(self.range_sum(lq, uq))),
        }
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        guarded_batch(ranges, Some(RangeAggregate::exact(0.0)), |proper| {
            self.range_sum_batch(proper)
                .into_iter()
                .map(|v| Some(RangeAggregate::exact(v)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        KeyCumulativeArray::size_bytes(self)
    }
}

impl AggregateIndex for AggTree {
    fn name(&self) -> &'static str {
        "agg-tree"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Max
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        if classify_bounds(lq, uq) != QueryBounds::Proper {
            return None;
        }
        self.range_max(lq, uq).map(RangeAggregate::exact)
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        guarded_batch(ranges, None, |proper| {
            self.range_max_batch(proper).into_iter().map(|v| v.map(RangeAggregate::exact)).collect()
        })
    }

    fn size_bytes(&self) -> usize {
        AggTree::size_bytes(self)
    }
}

impl AggregateIndex for BPlusTree {
    fn name(&self) -> &'static str {
        "B+-tree"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Sum
    }

    fn query(&self, lq: f64, uq: f64) -> Option<RangeAggregate> {
        match classify_bounds(lq, uq) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => Some(RangeAggregate::exact(0.0)),
            QueryBounds::Proper => Some(RangeAggregate::exact(self.range_sum(lq, uq))),
        }
    }

    fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<RangeAggregate>> {
        guarded_batch(ranges, Some(RangeAggregate::exact(0.0)), |proper| {
            self.range_sum_batch(proper)
                .into_iter()
                .map(|v| Some(RangeAggregate::exact(v)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        BPlusTree::size_bytes(self)
    }
}

impl AggregateIndex2d for ARTree {
    fn name(&self) -> &'static str {
        "aR-tree"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Count
    }

    fn query_rect(&self, u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> Option<RangeAggregate> {
        match classify_rect_bounds(u_lo, u_hi, v_lo, v_hi) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => Some(RangeAggregate::exact(0.0)),
            QueryBounds::Proper => {
                let rect = Rect::new(u_lo, u_hi, v_lo, v_hi);
                Some(RangeAggregate::exact(self.range_count(&rect) as f64))
            }
        }
    }

    fn size_bytes(&self) -> usize {
        ARTree::size_bytes(self)
    }
}

// ---------------------------------------------------------------------------
// Two-key PolyFit
// ---------------------------------------------------------------------------

impl AggregateIndex2d for QuadPolyFit {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Count
    }

    fn query_rect(&self, u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> Option<RangeAggregate> {
        // Lemma 6: four δ-certified patch evaluations → 4δ.
        match classify_rect_bounds(u_lo, u_hi, v_lo, v_hi) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => Some(RangeAggregate::absolute(0.0, 4.0 * self.delta())),
            QueryBounds::Proper => Some(RangeAggregate::absolute(
                self.query(u_lo, u_hi, v_lo, v_hi),
                4.0 * self.delta(),
            )),
        }
    }

    fn query_batch_rect(&self, rects: &[(f64, f64, f64, f64)]) -> Vec<Option<RangeAggregate>> {
        let bound = 4.0 * self.delta();
        guarded_batch_rect(rects, Some(RangeAggregate::absolute(0.0, bound)), |proper| {
            QuadPolyFit::query_batch(self, proper)
                .into_iter()
                .map(|v| Some(RangeAggregate::absolute(v, bound)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        QuadPolyFit::size_bytes(self)
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(QuadPolyFit::stats(self))
    }
}

impl AggregateIndex2d for Guaranteed2dCount {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Count
    }

    fn query_rect(&self, u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> Option<RangeAggregate> {
        match classify_rect_bounds(u_lo, u_hi, v_lo, v_hi) {
            QueryBounds::NonFinite => None,
            QueryBounds::Reversed => {
                Some(RangeAggregate::absolute(0.0, 4.0 * self.index().delta()))
            }
            QueryBounds::Proper => Some(RangeAggregate::absolute(
                self.query_abs(u_lo, u_hi, v_lo, v_hi),
                4.0 * self.index().delta(),
            )),
        }
    }

    fn query_batch_rect(&self, rects: &[(f64, f64, f64, f64)]) -> Vec<Option<RangeAggregate>> {
        let bound = 4.0 * self.index().delta();
        guarded_batch_rect(rects, Some(RangeAggregate::absolute(0.0, bound)), |proper| {
            self.index()
                .query_batch(proper)
                .into_iter()
                .map(|v| Some(RangeAggregate::absolute(v, bound)))
                .collect()
        })
    }

    fn size_bytes(&self) -> usize {
        self.index().size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(self.index().stats())
    }
}

/// Adapter pinning an `ε_rel` for the relative-guarantee 2-D driver.
pub struct RelDispatch2d {
    driver: Guaranteed2dCount,
    eps_rel: f64,
}

impl RelDispatch2d {
    /// Wrap `driver`, answering every trait query at `eps_rel`.
    pub fn new(driver: Guaranteed2dCount, eps_rel: f64) -> Self {
        assert!(eps_rel > 0.0, "relative error must be positive");
        RelDispatch2d { driver, eps_rel }
    }
}

impl AggregateIndex2d for RelDispatch2d {
    fn name(&self) -> &'static str {
        "PolyFit"
    }

    fn kind(&self) -> AggregateKind {
        AggregateKind::Count
    }

    fn query_rect(&self, u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> Option<RangeAggregate> {
        match classify_rect_bounds(u_lo, u_hi, v_lo, v_hi) {
            QueryBounds::NonFinite => None,
            // An empty rectangle's COUNT of 0 fails the certificate; the
            // (exact, trivially 0) fallback answers.
            QueryBounds::Reversed => Some(RangeAggregate::relative(0.0, self.eps_rel, true)),
            QueryBounds::Proper => {
                let ans = self.driver.query_rel(u_lo, u_hi, v_lo, v_hi, self.eps_rel);
                Some(RangeAggregate::relative(ans.value, self.eps_rel, ans.used_fallback))
            }
        }
    }

    fn query_batch_rect(&self, rects: &[(f64, f64, f64, f64)]) -> Vec<Option<RangeAggregate>> {
        // Raw approximations come from the shared-corner sweep; the
        // Lemma 7 certificate-or-fallback decision then runs per rect
        // through the same helper as the scalar path, so answers match
        // `query_rect` bit for bit.
        guarded_batch_rect(rects, Some(RangeAggregate::relative(0.0, self.eps_rel, true)), {
            |proper| {
                self.driver
                    .index()
                    .query_batch(proper)
                    .into_iter()
                    .zip(proper)
                    .map(|(approx, &rect)| {
                        let ans = self.driver.rel_answer(approx, rect, self.eps_rel);
                        Some(RangeAggregate::relative(ans.value, self.eps_rel, ans.used_fallback))
                    })
                    .collect()
            }
        })
    }

    fn size_bytes(&self) -> usize {
        self.driver.index().size_bytes()
    }

    fn stats(&self) -> Option<&IndexStats> {
        Some(self.driver.index().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolyFitConfig;
    use polyfit_exact::dataset::{dedup_sum, sort_records, Record};

    fn records(n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::new(i as f64, 1.0 + ((i * 7) % 5) as f64)).collect()
    }

    #[test]
    fn sum_index_dispatches_with_absolute_guarantee() {
        let idx = PolyFitSum::build(records(2000), 10.0, PolyFitConfig::default()).unwrap();
        let dyn_idx: &dyn AggregateIndex = &idx;
        assert_eq!(dyn_idx.kind(), AggregateKind::Sum);
        let ans = dyn_idx.query(100.0, 900.0).unwrap();
        assert_eq!(ans.guarantee, Guarantee::Absolute(20.0));
        assert!(!ans.used_fallback);
        assert_eq!(ans.value, idx.query(100.0, 900.0));
        assert!(dyn_idx.size_bytes() > 0);
        assert_eq!(dyn_idx.stats().unwrap().segments, idx.num_segments());
    }

    #[test]
    fn max_index_none_outside_domain() {
        let idx = PolyFitMax::build(records(500), 2.0, PolyFitConfig::default()).unwrap();
        let dyn_idx: &dyn AggregateIndex = &idx;
        assert!(dyn_idx.query(-100.0, -50.0).is_none());
        assert_eq!(dyn_idx.query(10.0, 400.0).unwrap().guarantee, Guarantee::Absolute(2.0));
    }

    #[test]
    fn min_built_index_dispatches_minima() {
        // Alternating measures: max ≈ 9, min ≈ 3 — a MIN-built index must
        // answer ~3 through the trait, not ~9.
        let rs: Vec<Record> =
            (0..500).map(|i| Record::new(i as f64, if i % 2 == 0 { 3.0 } else { 9.0 })).collect();
        let idx = PolyFitMax::build_min(rs, 0.5, PolyFitConfig::default()).unwrap();
        assert_eq!(idx.orientation(), Extremum::Min);
        let dyn_idx: &dyn AggregateIndex = &idx;
        assert_eq!(dyn_idx.kind(), AggregateKind::Min);
        let ans = dyn_idx.query(10.0, 400.0).unwrap();
        assert!((ans.value - 3.0).abs() <= 0.5 + 1e-9, "got {}", ans.value);
        // Orientation survives serialization (the CLI query path decodes
        // the file before dispatching through the trait).
        let back = PolyFitMax::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(back.orientation(), Extremum::Min);
        let back_ans = AggregateIndex::query(&back, 10.0, 400.0).unwrap();
        assert_eq!(back_ans.value.to_bits(), ans.value.to_bits());
    }

    #[test]
    fn pointer_delegation_preserves_behavior() {
        let idx = PolyFitSum::build(records(800), 10.0, PolyFitConfig::default()).unwrap();
        let direct = AggregateIndex::query(&idx, 50.0, 700.0).unwrap();
        let rc: std::rc::Rc<dyn AggregateIndex> = std::rc::Rc::new(idx);
        let via_rc = rc.query(50.0, 700.0).unwrap();
        assert_eq!(via_rc, direct);
        assert_eq!(rc.kind(), AggregateKind::Sum);
        // Exercise the `&T` delegation impl explicitly.
        let borrowed: &std::rc::Rc<dyn AggregateIndex> = &rc;
        assert!(AggregateIndex::size_bytes(&borrowed) > 0);
    }

    #[test]
    fn exact_structures_report_exact() {
        let mut rs = records(1000);
        sort_records(&mut rs);
        let rs = dedup_sum(rs);
        let kca = KeyCumulativeArray::new(&rs);
        let tree = AggTree::new(&rs);
        let btree = BPlusTree::new(&rs);
        let methods: Vec<&dyn AggregateIndex> = vec![&kca, &tree, &btree];
        for m in methods {
            let ans = m.query(50.0, 500.0).unwrap();
            assert_eq!(ans.guarantee, Guarantee::Exact, "{}", m.name());
            assert!(m.size_bytes() > 0);
            assert!(m.stats().is_none());
        }
        // The exact SUM structures agree with each other through the trait.
        let a = AggregateIndex::query(&kca, 50.0, 500.0).unwrap().value;
        let b = AggregateIndex::query(&btree, 50.0, 500.0).unwrap().value;
        assert_eq!(a, b);
    }

    #[test]
    fn rel_dispatch_reports_fallback() {
        let driver =
            GuaranteedSum::with_rel_guarantee(records(2000), 50.0, PolyFitConfig::default());
        // Measures average 3, so the full-range SUM is ≈ 6000; the Lemma 3
        // threshold 2δ(1 + 1/ε) = 2100 sits between the tiny and huge range.
        let rel = RelDispatch::new(driver, 0.05);
        let tiny = rel.query(10.0, 12.0).unwrap();
        assert!(tiny.used_fallback, "tiny range must fall back");
        assert_eq!(tiny.guarantee, Guarantee::Relative(0.05));
        let big = rel.query(0.0, 1999.0).unwrap();
        assert!(!big.used_fallback, "huge range must certify");
    }

    #[test]
    fn dynamic_index_dispatches() {
        let mut idx =
            DynamicPolyFitSum::new(records(500), 5.0, PolyFitConfig::default(), 1000).unwrap();
        idx.insert(100.5, 3.0);
        let dyn_idx: &dyn AggregateIndex = &idx;
        let with_insert = dyn_idx.query(100.0, 101.0).unwrap();
        assert_eq!(with_insert.guarantee, Guarantee::Absolute(10.0));
        assert!(dyn_idx.size_bytes() > idx.base().unwrap().size_bytes());
    }

    #[test]
    fn bounds_classification() {
        assert_eq!(classify_bounds(1.0, 2.0), QueryBounds::Proper);
        assert_eq!(classify_bounds(2.0, 2.0), QueryBounds::Proper);
        assert_eq!(classify_bounds(3.0, 2.0), QueryBounds::Reversed);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(classify_bounds(bad, 2.0), QueryBounds::NonFinite);
            assert_eq!(classify_bounds(2.0, bad), QueryBounds::NonFinite);
        }
        // Non-finite wins over reversed, on either axis of a rectangle.
        assert_eq!(classify_bounds(f64::INFINITY, f64::NEG_INFINITY), QueryBounds::NonFinite);
        assert_eq!(classify_rect_bounds(0.0, 1.0, 0.0, 1.0), QueryBounds::Proper);
        assert_eq!(classify_rect_bounds(1.0, 0.0, 0.0, 1.0), QueryBounds::Reversed);
        assert_eq!(classify_rect_bounds(0.0, 1.0, 2.0, 1.0), QueryBounds::Reversed);
        assert_eq!(classify_rect_bounds(1.0, 0.0, f64::NAN, 1.0), QueryBounds::NonFinite);
    }

    #[test]
    fn guarded_batch_splices_contract_answers() {
        let idx = PolyFitSum::build(records(1000), 10.0, PolyFitConfig::default()).unwrap();
        let dyn_idx: &dyn AggregateIndex = &idx;
        let ranges = [
            (100.0, 500.0),
            (f64::NAN, 500.0),
            (400.0, 100.0),
            (50.0, 800.0),
            (f64::INFINITY, f64::NEG_INFINITY),
            (7.0, 7.0),
        ];
        let batch = dyn_idx.query_batch(&ranges);
        let par = dyn_idx.query_batch_par(&ranges, 3);
        assert_eq!(batch.len(), ranges.len());
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let single = dyn_idx.query(lo, hi);
            assert_eq!(
                batch[i].map(|a| a.value.to_bits()),
                single.map(|a| a.value.to_bits()),
                "range {i}"
            );
            assert_eq!(
                par[i].map(|a| a.value.to_bits()),
                single.map(|a| a.value.to_bits()),
                "par range {i}"
            );
        }
        assert!(batch[1].is_none() && batch[4].is_none(), "non-finite ⇒ None");
        assert_eq!(batch[2].unwrap().value, 0.0, "reversed ⇒ empty SUM");
    }

    #[test]
    fn heterogeneous_trait_object_collection() {
        let mut rs = records(1500);
        sort_records(&mut rs);
        let rs = dedup_sum(rs);
        let kca = KeyCumulativeArray::new(&rs);
        let pf = PolyFitSum::build(rs.clone(), 25.0, PolyFitConfig::default()).unwrap();
        let methods: Vec<Box<dyn AggregateIndex>> = vec![Box::new(kca), Box::new(pf)];
        let truth = methods[0].query(100.0, 1200.0).unwrap().value;
        for m in &methods {
            let ans = m.query(100.0, 1200.0).unwrap();
            let bound = match ans.guarantee {
                Guarantee::Exact => 0.0,
                Guarantee::Absolute(b) => b,
                other => panic!("unexpected guarantee {other:?}"),
            };
            assert!(
                (ans.value - truth).abs() <= bound + 1e-9,
                "{}: {} vs {truth}",
                m.name(),
                ans.value
            );
        }
    }
}
