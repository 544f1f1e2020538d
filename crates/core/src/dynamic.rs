//! Dynamic updates — the paper's stated future work ("we will further
//! develop some efficient techniques … for handling the dynamic case").
//!
//! This module implements the standard delta-buffer design: the static
//! PolyFit index serves the bulk of the data while a small ordered buffer
//! absorbs inserts/deletes. Queries combine the index's certified
//! approximation with the buffer's *exact* contribution, so the absolute
//! guarantee `|A − R| ≤ ε_abs` is preserved verbatim — the buffer adds
//! zero error.
//!
//! ## Shadow compaction
//!
//! When the buffer exceeds its limit, the index is compacted by merging
//! (LSM-style). Compaction is **incremental and non-blocking**: the
//! writer stages the merged record set into a generational
//! `PendingRebuild` and then drives the rebuild in bounded steps
//! ([`DynamicPolyFitSum::step_compaction`]) — each step emits at most a
//! budget's worth of refitted points — while inserts and deletes keep
//! landing in a fresh buffer overlaying the old base. When the shadow
//! index is complete it is swapped in atomically. Queries issued at any
//! point are bitwise-identical to an index that never started the
//! rebuild, and the post-swap state is bitwise-identical to a blocking
//! compaction ([`DynamicPolyFitSum::compact_now`]) at the same trigger.
//!
//! ## Mergeable segment statistics
//!
//! Staging consults the base index's per-segment
//! [`SegmentStats`]: a segment whose key span
//! contains no buffered update is **reused verbatim** — its polynomial is
//! translated by the delta mass that accumulated in front of it (adding a
//! constant preserves the minimax residual) and re-certified as the old
//! residual plus the measured prefix-rounding drift. Only segments whose
//! span intersects the updates are refitted, so a skewed update workload
//! refits a small fraction of the index instead of paying a full rebuild.

use std::collections::BTreeMap;
use std::io;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use polyfit_exact::dataset::{dedup_sum, sort_records, Record};
use polyfit_lp::{FitBackend, WithinScratch};
use polyfit_poly::{Polynomial, ShiftedPolynomial};

use crate::build::{segment_ranges, BuildOptions};
use crate::config::PolyFitConfig;
use crate::directory::segment_from_spec;
use crate::error::PolyFitError;
use crate::function::{cumulative_function_sorted, validate_records, TargetFunction};
use crate::index_sum::PolyFitSum;
use crate::segment::Segment;
use crate::segmentation::{greedy_next_segment, ErrorMetric, SegmentSpec};
use crate::serialize::{finite, DecodeError, Reader, WalRecord};
use crate::stats::SegmentStats;
use crate::wal::{
    checkpoint_path, plan_replay, segment_path, truncate_torn_tail, Checkpointer, Journal,
    RecoveryReport, ReplayPlan, SyncPolicy, WalError,
};

/// Default per-step compaction budget (measure: merged points covered by
/// refitting; reused segments cost one unit). Small workloads complete
/// within the triggering update; large rebuilds amortise across updates.
pub const DEFAULT_STEP_BUDGET: usize = 4096;

/// Monotone total-order mapping for finite `f64` keys, so a `BTreeMap`
/// can hold float keys: flips the sign bit for positives and all bits for
/// negatives (the classic IEEE-754 order trick). `-0.0` is normalized to
/// `+0.0` first — the base index's sort and dedup compare keys with `==`,
/// which treats the two zeros as the same key, so the buffer must bucket
/// them together too (else a delete at `+0.0` never cancels an insert at
/// `-0.0` and range bounds at `±0.0` disagree with the base).
#[inline]
fn ord_bits(k: f64) -> u64 {
    let k = if k == 0.0 { 0.0 } else { k };
    let b = k.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// One unit of staged rebuild work, in merged-record coordinates.
#[derive(Clone, Copy, Debug)]
enum PlanItem {
    /// Keep base segment `old_idx` verbatim: translate its polynomial by
    /// `shift` (the delta mass accumulated before it) and certify it as
    /// `residual` (old certificate + measured prefix drift).
    Reuse { old_idx: usize, new_start: usize, new_end: usize, shift: f64, residual: f64 },
    /// Refit merged points `start..=end` with the greedy segmentation.
    Refit { start: usize, end: usize },
}

/// The in-flight shadow rebuild: staged snapshot, merged record set, the
/// reuse/refit plan, and the partially emitted output. One generation of
/// the compaction state machine — created by staging, advanced by
/// [`DynamicPolyFitSum::step_compaction`], consumed by the atomic swap.
#[derive(Clone, Debug)]
struct PendingRebuild {
    /// Generation this rebuild will install (see
    /// [`DynamicPolyFitSum::generation`]).
    generation: u64,
    /// Buffer snapshot folded into `merged` at staging time. Never
    /// mutated afterwards.
    staged: BTreeMap<u64, (f64, f64)>,
    /// For keys updated *again* while staged: the control-visible folded
    /// value (staged delta ⊕ fresh deltas, folded in arrival order), so
    /// queries during the rebuild stay bitwise-identical to an index that
    /// never started compacting.
    overlay: BTreeMap<u64, f64>,
    /// The staged record set the shadow index is built over.
    merged: Vec<Record>,
    /// Cumulative function over `merged` (exact prefix sums).
    cf: TargetFunction,
    plan: Vec<PlanItem>,
    next_item: usize,
    /// Next uncovered point within the current `Refit` item.
    refit_pos: usize,
    /// Buffers the refit's feasibility probes reuse from step to step.
    probe_scratch: WithinScratch,
    out: Vec<Segment>,
    out_stats: Vec<SegmentStats>,
    reused: usize,
    refit_segments: usize,
    refit_points: usize,
    covered_points: usize,
    build_time: Duration,
    /// Journal cursor at staging time (`None` when no WAL is attached).
    /// Written into the swap's `CompactionSwap` record so replay can
    /// re-stage at exactly this point — stage-at-S + blocking-compact is
    /// bitwise-identical to the live stepped rebuild that swapped later.
    staged_at: Option<u64>,
}

/// Progress snapshot of an in-flight shadow rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionStatus {
    /// Generation the rebuild will install when it swaps.
    pub generation: u64,
    /// Plan items completed so far.
    pub items_done: usize,
    /// Total plan items (reuse + refit runs).
    pub items_total: usize,
    /// Merged points covered so far (reused spans + refitted spans).
    pub points_done: usize,
    /// Total merged points to cover.
    pub points_total: usize,
    /// Points that went through the fitting pipeline so far — the
    /// expensive share of `points_done` (reused spans are translated,
    /// not refitted) and the unit the step budget bounds.
    pub refit_points_done: usize,
    /// Segments emitted into the shadow index so far.
    pub segments_emitted: usize,
}

/// Outcome of the most recent completed compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionReport {
    /// Generation installed by the swap.
    pub generation: u64,
    /// Base segments kept verbatim (translated, not refitted).
    pub reused_segments: usize,
    /// Segments produced by refitting dirty runs.
    pub refit_segments: usize,
    /// Merged points that went through the fitting pipeline.
    pub refit_points: usize,
    /// Total merged points.
    pub total_points: usize,
    /// Wall-clock time spent inside compaction steps (staging excluded).
    pub build_time: Duration,
}

impl CompactionReport {
    /// Fraction of merged points that had to be refitted (`< 1.0`
    /// whenever any segment was reused; `0.0` for an empty merge).
    pub fn refit_fraction(&self) -> f64 {
        if self.total_points == 0 {
            0.0
        } else {
            self.refit_points as f64 / self.total_points as f64
        }
    }
}

/// One queued write against a [`DynamicPolyFitSum`] — the unit the
/// serving layer's update queue carries and
/// [`DynamicPolyFitSum::apply_updates`] drains.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Update {
    /// Add `measure` mass at `key` ([`DynamicPolyFitSum::try_insert`]).
    Insert {
        /// Record key.
        key: f64,
        /// Measure mass to add.
        measure: f64,
    },
    /// Remove `measure` mass at `key` ([`DynamicPolyFitSum::try_delete`]).
    Delete {
        /// Record key.
        key: f64,
        /// Measure mass to remove.
        measure: f64,
    },
}

impl Update {
    /// The key this update lands on.
    pub fn key(&self) -> f64 {
        match *self {
            Update::Insert { key, .. } | Update::Delete { key, .. } => key,
        }
    }

    /// True when both key and measure are finite — the precondition
    /// [`DynamicPolyFitSum::try_insert`] enforces. Serving handles
    /// pre-validate with this so a fire-and-forget enqueue cannot fail
    /// later inside the loop.
    pub fn is_finite(&self) -> bool {
        match *self {
            Update::Insert { key, measure } | Update::Delete { key, measure } => {
                key.is_finite() && measure.is_finite()
            }
        }
    }
}

/// A PolyFit SUM/COUNT index supporting inserts and deletes.
#[derive(Debug)]
pub struct DynamicPolyFitSum {
    /// The static index, absent only after a compaction over a fully
    /// deleted record set (queries then answer from the buffer alone).
    /// `Arc`-shared so a [`DynamicSnapshot`] can alias the compiled
    /// directory without copying it — a snapshot is two pointer clones
    /// plus the (small) buffer.
    base: Option<Arc<PolyFitSum>>,
    /// All records currently folded into `base` (kept for rebuilds).
    /// `Arc`-shared so a checkpoint can stream them after the swap.
    base_records: Arc<Vec<Record>>,
    /// Pending measure deltas per key (positive = insert, negative =
    /// delete), ordered by key bits. While a rebuild is pending this
    /// holds only the *fresh* deltas that arrived after staging.
    buffer: BTreeMap<u64, (f64, f64)>,
    /// Rebuild threshold.
    buffer_limit: usize,
    delta: f64,
    config: PolyFitConfig,
    /// Build-pipeline options applied to the initial build and every
    /// compaction rebuild (runtime knob — not serialized).
    build_opts: BuildOptions,
    rebuilds: usize,
    /// The in-flight shadow rebuild, if any.
    pending: Option<PendingRebuild>,
    /// Budget auto-driven per update while a rebuild is pending
    /// (`0` = manual mode: the caller drives [`Self::step_compaction`]).
    step_budget: usize,
    /// Staging counter: increments when a rebuild is staged; the value
    /// tags the [`PendingRebuild`] and its eventual [`CompactionReport`].
    generation: u64,
    last_compaction: Option<CompactionReport>,
    reused_segments_total: usize,
    refit_segments_total: usize,
    /// The durable write path, when attached: every insert/delete is
    /// journaled *before* it folds into the in-memory state, and every
    /// compaction swap is journaled (every `CHECKPOINT_EVERY`-th one with
    /// a checkpoint and a new log segment).
    journal: Option<Journal>,
    /// Reusable batch buffer for the journaled [`Self::apply_updates`]
    /// fast path. The serving loop often drains one-update batches, so a
    /// fresh `Vec` per call would cost an allocation per update. Not part
    /// of the index state — never serialized, never cloned.
    apply_scratch: Vec<Update>,
}

impl Clone for DynamicPolyFitSum {
    /// Clones everything *except* the journal — a WAL file handle is an
    /// exclusive resource, so the clone is an in-memory replica (this is
    /// what rebalance handoffs and oracles want; attach a fresh journal
    /// explicitly if the clone should be durable).
    fn clone(&self) -> Self {
        DynamicPolyFitSum {
            base: self.base.clone(),
            base_records: self.base_records.clone(),
            buffer: self.buffer.clone(),
            buffer_limit: self.buffer_limit,
            delta: self.delta,
            config: self.config,
            build_opts: self.build_opts,
            rebuilds: self.rebuilds,
            pending: self.pending.clone(),
            step_budget: self.step_budget,
            generation: self.generation,
            last_compaction: self.last_compaction,
            reused_segments_total: self.reused_segments_total,
            refit_segments_total: self.refit_segments_total,
            journal: None,
            apply_scratch: Vec::new(),
        }
    }
}

impl DynamicPolyFitSum {
    /// Build from initial records with the bounded δ-error constraint and
    /// a buffer limit (number of distinct buffered keys before compaction).
    pub fn new(
        records: Vec<Record>,
        delta: f64,
        config: PolyFitConfig,
        buffer_limit: usize,
    ) -> Result<Self, PolyFitError> {
        Self::with_options(records, delta, config, buffer_limit, &BuildOptions::default())
    }

    /// [`Self::new`] with explicit build-pipeline options: the initial
    /// build *and* every compaction refit fan out across `opts.threads`
    /// workers — rebuilds are exactly the latency spikes the parallel
    /// pipeline exists to shrink.
    pub fn with_options(
        mut records: Vec<Record>,
        delta: f64,
        config: PolyFitConfig,
        buffer_limit: usize,
        opts: &BuildOptions,
    ) -> Result<Self, PolyFitError> {
        validate_records(&records)?;
        sort_records(&mut records);
        Self::from_sorted(dedup_sum(records), BTreeMap::new(), delta, config, buffer_limit, opts)
    }

    /// An index over `records`, which are already sorted, deduplicated
    /// and finite, with `buffer` pending: the base is built by
    /// [`PolyFitSum::build_sorted`] (none when `records` is empty),
    /// without sorting or copying the records again.
    pub(crate) fn from_sorted(
        records: Vec<Record>,
        buffer: BTreeMap<u64, (f64, f64)>,
        delta: f64,
        config: PolyFitConfig,
        buffer_limit: usize,
        opts: &BuildOptions,
    ) -> Result<Self, PolyFitError> {
        let base = match records.is_empty() {
            true => None,
            false => Some(Arc::new(PolyFitSum::build_sorted(&records, delta, config, opts)?)),
        };
        Ok(DynamicPolyFitSum {
            base,
            base_records: Arc::new(records),
            buffer,
            buffer_limit: buffer_limit.max(1),
            delta,
            config,
            build_opts: *opts,
            rebuilds: 0,
            pending: None,
            step_budget: DEFAULT_STEP_BUDGET,
            generation: 0,
            last_compaction: None,
            reused_segments_total: 0,
            refit_segments_total: 0,
            journal: None,
            apply_scratch: Vec::new(),
        })
    }

    /// Insert a record: `O(log buffer)` plus at most one bounded
    /// compaction step. When the buffer limit is reached a shadow rebuild
    /// is staged and driven incrementally — the writer is never blocked
    /// for a full refit.
    ///
    /// Returns [`PolyFitError::NonFiniteUpdate`] for NaN/∞ inputs.
    pub fn try_insert(&mut self, key: f64, measure: f64) -> Result<(), PolyFitError> {
        if !key.is_finite() || !measure.is_finite() {
            return Err(PolyFitError::NonFiniteUpdate { key, measure });
        }
        // −0.0 ≡ +0.0: normalize *before* journaling, so a replayed log
        // folds bitwise-identically to the live path (and the on-disk
        // record matches the base index's key semantics).
        let key = if key == 0.0 { 0.0 } else { key };
        if let Some(j) = &mut self.journal {
            j.append(&WalRecord::Insert { key, measure });
        }
        self.fold_delta(key, measure);
        Ok(())
    }

    /// Fold one validated, normalized delta into the buffer (the shared
    /// tail of [`Self::try_insert`]/[`Self::try_delete`], *after* the
    /// journal append — the WAL must hold the record before the state
    /// reflects it).
    fn fold_delta(&mut self, key: f64, measure: f64) {
        let kb = ord_bits(key);
        match &mut self.pending {
            Some(p) if p.staged.contains_key(&kb) => {
                // The key is being folded into the shadow base. Keep the
                // buffer entry alive even when its delta cancels to zero
                // (post-swap it must carry exactly the fresh mass), and
                // track the control-visible folded value in the overlay
                // so queries stay bitwise-unchanged by the rebuild.
                let staged_dm = p.staged[&kb].1;
                let entry = self.buffer.entry(kb).or_insert((key, 0.0));
                entry.1 += measure;
                if entry.1 == 0.0 {
                    entry.1 = 0.0; // normalize −0.0, mirroring re-creation
                }
                let ov = p.overlay.entry(kb).or_insert(staged_dm);
                *ov += measure;
                if *ov == 0.0 {
                    *ov = 0.0;
                }
            }
            _ => {
                let entry = self.buffer.entry(kb).or_insert((key, 0.0));
                entry.1 += measure;
                // A cancelled update releases its slot immediately — it
                // must not count toward the compaction trigger.
                if entry.1 == 0.0 {
                    self.buffer.remove(&kb);
                }
            }
        }
        // Auto-drive (step budget 0 = manual mode: the caller stages and
        // steps explicitly): stage at the limit, then one bounded step
        // per update until the shadow index swaps in.
        if self.step_budget > 0 {
            if self.pending.is_some() {
                self.step_compaction(self.step_budget);
            } else if self.buffer.len() >= self.buffer_limit {
                self.stage_compaction();
                self.step_compaction(self.step_budget);
            }
        }
    }

    /// Delete measure mass at a key (the inverse of a previous insert).
    /// Deleting more than exists leaves a negative contribution — exactly
    /// cancelling against the base at query time.
    pub fn try_delete(&mut self, key: f64, measure: f64) -> Result<(), PolyFitError> {
        if !key.is_finite() || !measure.is_finite() {
            return Err(PolyFitError::NonFiniteUpdate { key, measure: -measure });
        }
        let key = if key == 0.0 { 0.0 } else { key };
        if let Some(j) = &mut self.journal {
            j.append(&WalRecord::Delete { key, measure });
        }
        self.fold_delta(key, -measure);
        Ok(())
    }

    /// Panicking convenience wrapper over [`Self::try_insert`].
    ///
    /// # Panics
    /// Panics on non-finite inputs.
    pub fn insert(&mut self, key: f64, measure: f64) {
        self.try_insert(key, measure).expect("finite values required");
    }

    /// Panicking convenience wrapper over [`Self::try_delete`].
    ///
    /// # Panics
    /// Panics on non-finite inputs.
    pub fn delete(&mut self, key: f64, measure: f64) {
        self.try_delete(key, measure).expect("finite values required");
    }

    /// Drain a queue of [`Update`]s in order — the serving loop's entry
    /// point between query batches. Returns the number applied; stops at
    /// the first non-finite update (everything before it has landed).
    /// Each update costs the same as the corresponding
    /// `try_insert`/`try_delete` call, including any auto-driven
    /// compaction step (none in manual mode, `step_budget == 0`).
    pub fn apply_updates(
        &mut self,
        updates: impl IntoIterator<Item = Update>,
    ) -> Result<usize, PolyFitError> {
        if self.journal.is_none() || self.step_budget > 0 {
            // No journal to batch for — or auto-driven compaction, where
            // a swap staged mid-batch must land in the log *between* the
            // updates that surround it (batch-first journaling would
            // reorder it past the whole batch and skew its `staged_at`
            // cursor on replay). Apply one by one, in live order.
            let mut applied = 0usize;
            for u in updates {
                match u {
                    Update::Insert { key, measure } => self.try_insert(key, measure)?,
                    Update::Delete { key, measure } => self.try_delete(key, measure)?,
                }
                applied += 1;
            }
            return Ok(applied);
        }
        // Journaled fast path: take the valid prefix (normalized exactly
        // like `try_insert`/`try_delete`), journal it in one tight loop,
        // then fold it. Appending back-to-back lets the per-record
        // checksum chains pipeline instead of stalling between BTreeMap
        // operations — this is what keeps group-commit serving within a
        // few percent of the journal-off loop. Ordering is preserved
        // batch-wide: every record is journaled before any state
        // reflects it, and replay applies them in the same order.
        let mut prefix = std::mem::take(&mut self.apply_scratch);
        prefix.clear();
        let mut bad: Option<PolyFitError> = None;
        for u in updates {
            let (key, measure) = match u {
                Update::Insert { key, measure } | Update::Delete { key, measure } => (key, measure),
            };
            if !key.is_finite() || !measure.is_finite() {
                let signed = if matches!(u, Update::Delete { .. }) { -measure } else { measure };
                bad = Some(PolyFitError::NonFiniteUpdate { key, measure: signed });
                break;
            }
            // −0.0 ≡ +0.0, mirroring `try_insert` (see the note there).
            let key = if key == 0.0 { 0.0 } else { key };
            prefix.push(match u {
                Update::Insert { measure, .. } => Update::Insert { key, measure },
                Update::Delete { measure, .. } => Update::Delete { key, measure },
            });
        }
        self.journal.as_mut().expect("checked above").append_updates(&prefix);
        for u in &prefix {
            match *u {
                Update::Insert { key, measure } => self.fold_delta(key, measure),
                Update::Delete { key, measure } => self.fold_delta(key, -measure),
            }
        }
        let applied = prefix.len();
        self.apply_scratch = prefix;
        match bad {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    /// Stage a shadow rebuild now, without waiting for the buffer limit:
    /// snapshots the buffer, merges it into the base record set, and
    /// plans which segments to reuse vs refit. Returns `false` when there
    /// is nothing to compact or a rebuild is already pending. Cheap:
    /// `O(n)` merges and additions, no polynomial fitting.
    pub fn begin_compaction(&mut self) -> bool {
        if self.pending.is_some() || self.buffer.is_empty() {
            return false;
        }
        self.stage_compaction();
        // Failpoint: abort right after staging. The staged buffer is put
        // back and the generation bump undone, so an aborted staging is
        // observationally identical to never having staged — queries and
        // the eventual (re-)compaction stay bitwise-equal to the oracle.
        if crate::failpoint::triggered("dynamic.stage.abort") {
            if let Some(p) = self.pending.take() {
                debug_assert!(self.buffer.is_empty() && p.overlay.is_empty());
                self.buffer = p.staged;
                self.generation -= 1;
            }
            return false;
        }
        self.pending.is_some()
    }

    /// Drive the pending rebuild by up to `budget` units of work (a
    /// refitted segment costs its point span; a reused segment costs one
    /// unit — the step may overshoot by at most one segment, since
    /// segments are emitted atomically). Swaps the shadow index in when
    /// the plan completes. Returns `true` when no rebuild remains pending
    /// after the call.
    pub fn step_compaction(&mut self, budget: usize) -> bool {
        // Failpoint: skip the step outright (the swap is delayed across
        // however many update bursts the trigger spec covers) or starve
        // it down to one work unit per call. Neither changes any answer:
        // queries overlay the buffer until the swap lands.
        let budget =
            if crate::failpoint::triggered("dynamic.step.starve") { budget.min(1) } else { budget };
        if crate::failpoint::triggered("dynamic.step.skip") {
            return self.pending.is_none();
        }
        let Some(mut p) = self.pending.take() else {
            return true;
        };
        let t0 = std::time::Instant::now();
        let mut work = 0usize;
        while work < budget && p.next_item < p.plan.len() {
            match p.plan[p.next_item] {
                PlanItem::Reuse { old_idx, new_start, new_end, shift, residual } => {
                    self.emit_reuse(&mut p, old_idx, new_start, new_end, shift, residual);
                    work += 1;
                    p.next_item += 1;
                }
                PlanItem::Refit { start, end } => {
                    let pos = p.refit_pos.max(start);
                    let spec = greedy_next_segment(
                        &p.cf,
                        &self.config,
                        self.delta,
                        ErrorMetric::DataPoint,
                        pos,
                        end + 1,
                        &mut p.probe_scratch,
                    );
                    let next_pos = spec.end + 1;
                    work += spec.end - spec.start + 1;
                    emit_refit_spec(&mut p, spec);
                    p.refit_pos = next_pos;
                    if next_pos > end {
                        p.next_item += 1;
                    }
                }
            }
        }
        p.build_time += t0.elapsed();
        if p.next_item == p.plan.len() {
            self.finish_swap(p);
            true
        } else {
            self.pending = Some(p);
            false
        }
    }

    /// Blocking compaction: stage (if needed) and drive the rebuild to
    /// completion. With a multi-thread build configuration the dirty runs
    /// are refitted in parallel; the result is bitwise-identical to
    /// serial stepping either way.
    pub fn compact_now(&mut self) {
        if self.pending.is_none() {
            if self.buffer.is_empty() {
                return;
            }
            self.stage_compaction();
        }
        let fresh = self.pending.as_ref().is_some_and(|p| p.next_item == 0);
        if self.build_opts.effective_threads() > 1 && fresh {
            let mut p = self.pending.take().expect("pending staged above");
            let t0 = std::time::Instant::now();
            let ranges: Vec<(usize, usize)> = p
                .plan
                .iter()
                .filter_map(|it| match *it {
                    PlanItem::Refit { start, end } => Some((start, end)),
                    PlanItem::Reuse { .. } => None,
                })
                .collect();
            let mut fitted = segment_ranges(
                &p.cf,
                &self.config,
                self.delta,
                ErrorMetric::DataPoint,
                &self.build_opts,
                &ranges,
            )
            .into_iter();
            let plan = std::mem::take(&mut p.plan);
            for item in &plan {
                match *item {
                    PlanItem::Reuse { old_idx, new_start, new_end, shift, residual } => {
                        self.emit_reuse(&mut p, old_idx, new_start, new_end, shift, residual);
                    }
                    PlanItem::Refit { .. } => {
                        for spec in fitted.next().expect("one spec list per refit run") {
                            emit_refit_spec(&mut p, spec);
                        }
                    }
                }
            }
            p.plan = plan;
            p.next_item = p.plan.len();
            p.build_time += t0.elapsed();
            self.finish_swap(p);
            return;
        }
        while !self.step_compaction(usize::MAX) {}
    }

    /// Discard a pending rebuild, folding the staged snapshot back into
    /// the live buffer. The resulting state is exactly the index that
    /// never began compacting. Returns `false` when nothing was pending.
    pub fn abort_compaction(&mut self) -> bool {
        if self.pending.is_none() {
            return false;
        }
        let entries = self.control_entries();
        self.pending = None;
        self.buffer = entries
            .into_iter()
            .filter(|&(_, dm)| dm != 0.0)
            .map(|(k, dm)| (ord_bits(k), (k, dm)))
            .collect();
        true
    }

    /// Snapshot the staged record set, compute its cumulative function,
    /// and plan reuse vs refit from the base's segment statistics.
    fn stage_compaction(&mut self) {
        debug_assert!(self.pending.is_none(), "staging over a pending rebuild");
        if self.buffer.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.buffer);
        // merged = base_records ⊕ staged deltas. Both sides are sorted,
        // so a linear merge replaces the sort a blocking rebuild would
        // run; equal keys fold base-first, exactly like `sort_records` +
        // `dedup_sum` over base records followed by the buffered deltas.
        let mut merged = Vec::with_capacity(self.base_records.len() + staged.len());
        {
            let mut base_it = self.base_records.iter().peekable();
            let mut deltas = staged.values().filter(|&&(_, dm)| dm != 0.0).peekable();
            loop {
                match (base_it.peek(), deltas.peek()) {
                    (Some(&&b), Some(&&(dk, dm))) => {
                        if b.key < dk {
                            merged.push(b);
                            base_it.next();
                        } else if dk < b.key {
                            merged.push(Record::new(dk, dm));
                            deltas.next();
                        } else {
                            merged.push(Record::new(b.key, b.measure + dm));
                            base_it.next();
                            deltas.next();
                        }
                    }
                    (Some(&&b), None) => {
                        merged.push(b);
                        base_it.next();
                    }
                    (None, Some(&&(dk, dm))) => {
                        merged.push(Record::new(dk, dm));
                        deltas.next();
                    }
                    (None, None) => break,
                }
            }
        }
        // Fully-deleted keys fold to measure 0; drop them so the step
        // function stays minimal.
        merged.retain(|r| r.measure != 0.0);
        let cf = cumulative_function_sorted(&merged);

        let update_keys: Vec<f64> =
            staged.values().filter(|&&(_, dm)| dm != 0.0).map(|&(k, _)| k).collect();
        let first_update = update_keys.first().copied();
        let mut plan = Vec::new();
        if let Some(base) = &self.base {
            let stats_owned;
            let stats: &[SegmentStats] = match base.segment_stats() {
                Some(s) => s,
                None => {
                    // Stats-less decode: recover them once from the
                    // record set so this and future compactions stay
                    // incremental.
                    stats_owned = base.derived_segment_stats(&self.base_records);
                    &stats_owned
                }
            };
            // Exact old CF prefix — the same fold the base was built
            // over, so reused spans can be drift-checked cheaply.
            let mut old_cf = Vec::with_capacity(self.base_records.len());
            let mut acc = 0.0;
            for r in self.base_records.iter() {
                acc += r.measure;
                old_cf.push(acc);
            }
            let mut cursor = 0usize;
            for (j, st) in stats.iter().enumerate() {
                // Defence in depth: stats whose span overruns the record
                // set (e.g. hand-constructed) fall back to refitting
                // rather than indexing out of bounds below.
                if st.point_end >= self.base_records.len() || st.point_end < st.point_start {
                    continue;
                }
                // Dirty iff any update key falls inside the closed span:
                // binary-search the first candidate at or right of
                // lo_key, then span-test it.
                let a = update_keys.partition_point(|&k| k < st.lo_key);
                if a < update_keys.len() && st.key_span_intersects(update_keys[a], update_keys[a]) {
                    continue;
                }
                // A clean segment's records are untouched: locate them in
                // merged coordinates and certify the constant translation.
                let ns = merged.partition_point(|r| r.key < st.lo_key);
                let ne = ns + (st.point_end - st.point_start);
                if ns < cursor || ne >= merged.len() {
                    continue;
                }
                if merged[ns].key != st.lo_key || merged[ne].key != st.hi_key {
                    continue;
                }
                let new_before = if ns == 0 { 0.0 } else { cf.values[ns - 1] };
                let (shift, residual) = if first_update.is_some_and(|fu| st.hi_key < fu) {
                    // Entirely left of every update: the prefix is
                    // bitwise unchanged — exact reuse, no drift scan.
                    (0.0, st.residual)
                } else {
                    // The CF over this span translates by a constant, up
                    // to prefix-summation rounding; fold the measured
                    // worst drift into the residual certificate.
                    let shift = new_before - st.cf_before;
                    let mut drift = 0.0f64;
                    for i in 0..st.span() {
                        let d = cf.values[ns + i] - (old_cf[st.point_start + i] + shift);
                        drift = drift.max(d.abs());
                    }
                    (shift, st.residual + drift)
                };
                if residual > self.delta {
                    continue; // drift ate the error budget → refit
                }
                if ns > cursor {
                    plan.push(PlanItem::Refit { start: cursor, end: ns - 1 });
                }
                plan.push(PlanItem::Reuse {
                    old_idx: j,
                    new_start: ns,
                    new_end: ne,
                    shift,
                    residual,
                });
                cursor = ne + 1;
            }
            if cursor < merged.len() {
                plan.push(PlanItem::Refit { start: cursor, end: merged.len() - 1 });
            }
        } else if !merged.is_empty() {
            plan.push(PlanItem::Refit { start: 0, end: merged.len() - 1 });
        }
        self.generation += 1;
        self.pending = Some(PendingRebuild {
            generation: self.generation,
            staged,
            overlay: BTreeMap::new(),
            merged,
            cf,
            plan,
            next_item: 0,
            refit_pos: 0,
            probe_scratch: WithinScratch::default(),
            out: Vec::new(),
            out_stats: Vec::new(),
            reused: 0,
            refit_segments: 0,
            refit_points: 0,
            covered_points: 0,
            build_time: Duration::ZERO,
            staged_at: self.journal.as_ref().map(|j| j.seq()),
        });
    }

    fn emit_reuse(
        &self,
        p: &mut PendingRebuild,
        old_idx: usize,
        new_start: usize,
        new_end: usize,
        shift: f64,
        residual: f64,
    ) {
        let old = self.base.as_ref().expect("reuse implies a base").segment(old_idx);
        p.out_stats.push(SegmentStats {
            point_start: new_start,
            point_end: new_end,
            lo_key: old.lo_key,
            hi_key: old.hi_key,
            residual,
            cf_before: if new_start == 0 { 0.0 } else { p.cf.values[new_start - 1] },
            cf_end: p.cf.values[new_end],
        });
        p.out.push(shifted_segment(&old, shift, residual));
        p.reused += 1;
        p.covered_points += new_end - new_start + 1;
    }

    /// Install the completed shadow index atomically.
    fn finish_swap(&mut self, p: PendingRebuild) {
        // Failpoint: die at the instant the shadow index would be
        // installed — the worst-case crash point for the durable path,
        // since neither the swap record nor a checkpoint for it exists.
        // Recovery must replay the pre-swap journal bitwise.
        crate::failpoint::hit("dynamic.swap.panic");
        let report = CompactionReport {
            generation: p.generation,
            reused_segments: p.reused,
            refit_segments: p.refit_segments,
            refit_points: p.refit_points,
            total_points: p.merged.len(),
            build_time: p.build_time,
        };
        if p.merged.is_empty() {
            // Delete-everything workload: a valid degenerate state — the
            // buffer alone answers queries (exactly).
            self.base = None;
            self.base_records = Arc::default();
        } else {
            let total = *p.cf.values.last().expect("non-empty merged set");
            let domain = p.cf.domain();
            self.base = Some(Arc::new(PolyFitSum::from_parts(
                p.out,
                self.delta,
                total,
                domain,
                Some(p.out_stats),
                p.build_time,
            )));
            self.base_records = Arc::new(p.merged);
        }
        // Deferred zero-delta removals (entries that cancelled while
        // their key was staged) drop now; what remains is exactly the
        // fresh mass that arrived during the rebuild.
        self.buffer.retain(|_, &mut (_, dm)| dm != 0.0);
        self.rebuilds += 1;
        self.reused_segments_total += p.reused;
        self.refit_segments_total += p.refit_segments;
        self.last_compaction = Some(report);
        // Journal the swap; at a checkpoint swap, hand the journal the
        // frozen post-swap state (no serialization here). Fail-stop on
        // I/O error — the swap already happened in memory, and a write
        // path that cannot persist must not keep acknowledging.
        if let Some(due) = self.journal.as_ref().map(Journal::checkpoint_due) {
            let state = due.then(|| self.freeze());
            let rebuilds = self.rebuilds as u64;
            let journal = self.journal.as_mut().expect("checked above");
            journal
                .record_swap(p.staged_at, rebuilds, state)
                .expect("wal checkpoint failed (fail-stop)");
        }
    }

    /// Visit the control-visible buffer entries within `bounds` in key
    /// order — the single definition of "what a never-compacted index's
    /// buffer would hold". While a rebuild is pending this merge-joins
    /// the staged snapshot with the fresh buffer, taking the overlay's
    /// folded value where a key is in both (and skipping it when folded
    /// to exactly `0.0`, mirroring the control's removed entry), so every
    /// consumer — queries, serialization, abort — visits the same values
    /// in the same order as a never-compacted index.
    fn for_each_control_entry(
        &self,
        bounds: (Bound<u64>, Bound<u64>),
        mut visit: impl FnMut(f64, f64),
    ) {
        let Some(p) = &self.pending else {
            for &(key, dm) in self.buffer.range(bounds).map(|(_, v)| v) {
                visit(key, dm);
            }
            return;
        };
        let mut staged = p.staged.range(bounds).peekable();
        let mut fresh = self.buffer.range(bounds).peekable();
        loop {
            match (staged.peek(), fresh.peek()) {
                (Some(&(&sk, &(skey, sdm))), Some(&(&fk, &(_, fdm)))) => {
                    if sk < fk {
                        visit(skey, sdm);
                        staged.next();
                    } else if fk < sk {
                        visit(self.buffer[&fk].0, fdm);
                        fresh.next();
                    } else {
                        let ov = *p.overlay.get(&sk).expect("overlay tracks doubly-present keys");
                        if ov != 0.0 {
                            visit(skey, ov);
                        }
                        staged.next();
                        fresh.next();
                    }
                }
                (Some(&(_, &(skey, sdm))), None) => {
                    visit(skey, sdm);
                    staged.next();
                }
                (None, Some(&(_, &(fkey, fdm)))) => {
                    visit(fkey, fdm);
                    fresh.next();
                }
                (None, None) => break,
            }
        }
    }

    /// The buffer as a never-compacted index would hold it: staged and
    /// fresh deltas merged per key in arrival-fold order.
    fn control_entries(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(
            self.buffer.len() + self.pending.as_ref().map_or(0, |p| p.staged.len()),
        );
        self.for_each_control_entry((Bound::Unbounded, Bound::Unbounded), |key, dm| {
            out.push((key, dm))
        });
        out
    }

    /// Exact buffered contribution to `(lq, uq]` — bitwise-identical to
    /// a never-compacted index's, even mid-rebuild. NaN when a bound is
    /// NaN, whose order bits can sit past the other bound's.
    fn buffered_sum(&self, lq: f64, uq: f64) -> f64 {
        if lq.is_nan() || uq.is_nan() {
            return f64::NAN;
        }
        let mut acc = 0.0;
        self.for_each_control_entry(
            (Bound::Excluded(ord_bits(lq)), Bound::Included(ord_bits(uq))),
            |_, dm| acc += dm,
        );
        acc
    }

    /// Approximate range SUM over `(lq, uq]`: index approximation + exact
    /// buffer contribution. Same `2δ` bound as the static index — before,
    /// during, and after a shadow compaction. A NaN bound answers NaN.
    pub fn query(&self, lq: f64, uq: f64) -> f64 {
        if lq >= uq {
            return 0.0;
        }
        let base = self.base.as_ref().map_or(0.0, |b| b.query(lq, uq));
        base + self.buffered_sum(lq, uq)
    }

    /// Batched range SUM: the static base answers all ranges through its
    /// 8-lane batch engine, the buffer contributes exactly per range.
    /// Bitwise identical to per-range [`Self::query`] calls (NaN for a
    /// NaN bound).
    pub fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<f64> {
        match &self.base {
            Some(b) => b
                .query_batch(ranges)
                .into_iter()
                .zip(ranges)
                .map(|(v, &(lq, uq))| if lq >= uq { 0.0 } else { v + self.buffered_sum(lq, uq) })
                .collect(),
            None => ranges.iter().map(|&(lq, uq)| self.query(lq, uq)).collect(),
        }
    }

    /// Number of records folded into the static index.
    pub fn base_len(&self) -> usize {
        self.base_records.len()
    }

    /// Number of pending buffered keys (staged and fresh combined while a
    /// rebuild is in flight).
    pub fn buffered(&self) -> usize {
        match &self.pending {
            None => self.buffer.len(),
            Some(p) => {
                self.buffer.len() + p.staged.keys().filter(|k| !self.buffer.contains_key(k)).count()
            }
        }
    }

    /// The buffered-key threshold that triggers a compaction.
    pub fn buffer_limit(&self) -> usize {
        self.buffer_limit
    }

    /// True when the buffer has reached its limit and no rebuild is in
    /// flight — i.e. a manual-mode driver (the serving loop) should call
    /// [`Self::begin_compaction`] in its next idle gap.
    pub fn needs_compaction(&self) -> bool {
        self.pending.is_none() && self.buffer.len() >= self.buffer_limit
    }

    /// How many compactions have completed (swapped in).
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// The certified per-endpoint δ (query answers are within `2δ`).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The fitting configuration applied to rebuilds — what a rebalance
    /// needs to rebuild this index's record set elsewhere.
    pub fn config(&self) -> PolyFitConfig {
        self.config
    }

    /// True while a shadow rebuild is staged but not yet swapped.
    pub fn is_compacting(&self) -> bool {
        self.pending.is_some()
    }

    /// Progress of the in-flight rebuild, if any.
    pub fn compaction(&self) -> Option<CompactionStatus> {
        self.pending.as_ref().map(|p| CompactionStatus {
            generation: p.generation,
            items_done: p.next_item,
            items_total: p.plan.len(),
            points_done: p.covered_points,
            points_total: p.merged.len(),
            refit_points_done: p.refit_points,
            segments_emitted: p.out.len(),
        })
    }

    /// Report of the most recent completed compaction.
    pub fn last_compaction(&self) -> Option<&CompactionReport> {
        self.last_compaction.as_ref()
    }

    /// Cumulative `(reused, refitted)` segment counters across all
    /// completed compactions.
    pub fn reuse_counters(&self) -> (usize, usize) {
        (self.reused_segments_total, self.refit_segments_total)
    }

    /// Staging counter: how many shadow rebuilds have been staged (the
    /// pending one included).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Budget auto-driven per update while a rebuild is pending. `0`
    /// disables auto-driving (callers step manually).
    pub fn step_budget(&self) -> usize {
        self.step_budget
    }

    /// Set the auto-driven per-update step budget (see
    /// [`Self::step_budget`]). A runtime knob — not serialized.
    pub fn set_step_budget(&mut self, budget: usize) {
        self.step_budget = budget;
    }

    /// The build-pipeline options applied to compaction rebuilds.
    pub fn build_options(&self) -> &BuildOptions {
        &self.build_opts
    }

    /// Set the build-pipeline options for future compaction rebuilds —
    /// a runtime knob, so it is not serialized; call this after
    /// [`Self::from_bytes`] to restore parallel rebuilds on a reloaded
    /// index.
    pub fn set_build_options(&mut self, opts: BuildOptions) {
        self.build_opts = opts;
    }

    /// The underlying static index (`None` after compacting a fully
    /// deleted record set).
    pub fn base(&self) -> Option<&PolyFitSum> {
        self.base.as_deref()
    }

    /// The records currently folded into the static base, sorted by key
    /// with distinct keys — the ground truth a rebalance partitions.
    pub fn base_records(&self) -> &[Record] {
        &self.base_records
    }

    /// The control-visible buffered deltas `(key, Δmeasure)` in key
    /// order — exactly what a never-compacted index's buffer would hold,
    /// even while a shadow rebuild is in flight.
    pub fn buffered_entries(&self) -> Vec<(f64, f64)> {
        self.control_entries()
    }

    /// A deterministic split point: the median base-record key, chosen so
    /// both sides of [`Self::split_at`] keep at least one record. `None`
    /// when the base holds fewer than two records (nothing to split).
    pub fn split_key(&self) -> Option<f64> {
        if self.base_records.len() < 2 {
            None
        } else {
            Some(self.base_records[(self.base_records.len() - 1) / 2].key)
        }
    }

    /// Split the index into `(left, right)` halves at `key`: the left
    /// side keeps every record and buffered delta with key `≤ key`, the
    /// right side everything above — matching the serving layer's
    /// half-open-left shard ownership `(lo, hi]`. Both halves are built
    /// fresh with the parent's configuration and build options, so the
    /// operation is deterministic and replayable: splitting a replayed
    /// clone of the parent yields bitwise-identical children. Counters
    /// (`rebuilds`, `generation`) restart at zero — the children are new
    /// provenance domains.
    ///
    /// # Panics
    /// Panics if a shadow rebuild is in flight (complete or abort it
    /// first; the serving layer calls [`Self::compact_now`]).
    pub fn split_at(&self, key: f64) -> Result<(Self, Self), PolyFitError> {
        assert!(self.pending.is_none(), "split_at during a pending rebuild");
        let key = if key == 0.0 { 0.0 } else { key };
        let kb = ord_bits(key);
        let cut = self.base_records.partition_point(|r| r.key <= key);
        let (left_records, right_records) =
            (self.base_records[..cut].to_vec(), self.base_records[cut..].to_vec());
        let mut left_buffer = BTreeMap::new();
        let mut right_buffer = BTreeMap::new();
        for (&bits, &entry) in &self.buffer {
            if bits <= kb {
                left_buffer.insert(bits, entry);
            } else {
                right_buffer.insert(bits, entry);
            }
        }
        Ok((self.child(left_records, left_buffer)?, self.child(right_records, right_buffer)?))
    }

    /// A split or merge child over the sorted run `records` with `buffer`
    /// pending: this index's settings, fresh counters.
    fn child(
        &self,
        records: Vec<Record>,
        buffer: BTreeMap<u64, (f64, f64)>,
    ) -> Result<Self, PolyFitError> {
        let mut child = Self::from_sorted(
            records,
            buffer,
            self.delta,
            self.config,
            self.buffer_limit,
            &self.build_opts,
        )?;
        child.step_budget = self.step_budget;
        Ok(child)
    }

    /// Merge with the adjacent index on the right (every key in `right`
    /// strictly above every key in `self`): record sets are concatenated
    /// and the base rebuilt fresh, buffers are unioned. Deterministic and
    /// replayable like [`Self::split_at`]; counters restart at zero.
    ///
    /// # Panics
    /// Panics if either side has a rebuild in flight or the key ranges
    /// are not ordered/disjoint.
    pub fn merge_with(&self, right: &Self) -> Result<Self, PolyFitError> {
        assert!(
            self.pending.is_none() && right.pending.is_none(),
            "merge_with during a pending rebuild"
        );
        let mut records = self.base_records.to_vec();
        records.extend_from_slice(&right.base_records);
        let mut buffer = self.buffer.clone();
        buffer.extend(right.buffer.iter().map(|(&k, &v)| (k, v)));
        let left_hi = self
            .buffer
            .keys()
            .next_back()
            .copied()
            .into_iter()
            .chain(self.base_records.last().map(|r| ord_bits(r.key)));
        let right_lo = right
            .buffer
            .keys()
            .next()
            .copied()
            .into_iter()
            .chain(right.base_records.first().map(|r| ord_bits(r.key)));
        if let (Some(hi), Some(lo)) = (left_hi.max(), right_lo.min()) {
            assert!(hi < lo, "merge_with requires disjoint ordered key ranges");
        }
        self.child(records, buffer)
    }

    /// Freeze the current control-visible state into an immutable,
    /// cheaply cloneable [`DynamicSnapshot`]: the `Arc`-shared base plus
    /// a copy of the buffered deltas. Queries against the snapshot are
    /// bitwise-identical to queries against `self` at this instant.
    pub fn snapshot(&self) -> DynamicSnapshot {
        let mut entries = Vec::with_capacity(
            self.buffer.len() + self.pending.as_ref().map_or(0, |p| p.staged.len()),
        );
        self.for_each_control_entry((Bound::Unbounded, Bound::Unbounded), |key, dm| {
            entries.push((ord_bits(key), dm))
        });
        DynamicSnapshot { base: self.base.clone(), entries, delta: self.delta }
    }

    // ------------------------------------------------------------------
    // Durable write path (see `crate::wal`)
    // ------------------------------------------------------------------

    /// Attach a write-ahead log: checkpoint the current state into
    /// `<dir>/<name>.ckpt` at update cursor `seq` (synchronously,
    /// streaming its PFD2 bytes as the checkpointer does), start
    /// a fresh log in segment `<dir>/<name>.wal`, and from here on journal
    /// every insert/delete before it folds into the in-memory state.
    /// Compaction swaps are journaled, and every
    /// [`CHECKPOINT_EVERY`](crate::wal::CHECKPOINT_EVERY)-th one
    /// checkpoints and switches to a new segment — inline at the swap,
    /// or on a server's checkpointer thread. Call [`Self::wal_sync`] to
    /// group-commit buffered appends (the serving loop does this before
    /// every publish).
    ///
    /// # Panics
    /// Panics if a shadow rebuild is in flight — attach at a quiesced
    /// point (the serving layer attaches before traffic starts), so every
    /// journaled swap carries a `staged_at` cursor the replay can use.
    pub fn attach_wal(
        &mut self,
        dir: &Path,
        name: &str,
        policy: SyncPolicy,
        seq: u64,
    ) -> Result<(), WalError> {
        assert!(self.pending.is_none(), "attach_wal during a pending rebuild");
        let journal =
            Journal::create_frozen(dir, name, policy, &self.freeze(), seq, self.rebuilds as u64)?;
        self.journal = Some(journal);
        Ok(())
    }

    /// Have `ck` write this index's checkpoints from now on, off the
    /// thread that swaps (no-op without a journal).
    pub(crate) fn attach_checkpointer(&mut self, ck: &Checkpointer) {
        if let Some(j) = &mut self.journal {
            j.attach_checkpointer(ck);
        }
    }

    /// Detach and return the journal (buffered appends are synced first).
    /// The index keeps running, no longer durable.
    pub fn detach_wal(&mut self) -> Result<Option<Journal>, WalError> {
        if let Some(j) = &mut self.journal {
            j.sync()?;
        }
        Ok(self.journal.take())
    }

    /// The attached journal, if any.
    pub fn wal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The journal's update cursor (updates journaled so far), if one is
    /// attached.
    pub fn wal_seq(&self) -> Option<u64> {
        self.journal.as_ref().map(|j| j.seq())
    }

    /// Group commit: push every buffered journal append to disk with one
    /// write + fsync. No-op without a journal or when already synced.
    /// The serving loop calls this after draining a window's updates and
    /// *before* publishing the state that holds them, so every state a
    /// reader can observe is durable.
    pub fn wal_sync(&mut self) -> Result<(), WalError> {
        match &mut self.journal {
            Some(j) => j.sync().map_err(WalError::Io),
            None => Ok(()),
        }
    }

    /// Crash recovery: load the checkpoint `<dir>/<name>.ckpt`, read the
    /// log segments after it, truncate a torn tail
    /// (truncate-at-corruption), and replay — updates re-apply through
    /// the normal insert/delete path and each journaled compaction swap
    /// re-stages at its recorded cursor and compacts blocking, which the
    /// stepped == blocking compaction contract makes bitwise-identical to
    /// the live stepped rebuild. The recovered index answers bit-for-bit
    /// like one that never crashed. Beside a live journal this reads a
    /// consistent state (see [`crate::wal`]); it writes only the
    /// truncation.
    ///
    /// The returned index has **no journal attached** — use
    /// [`Self::resume_wal`] to recover and keep journaling where the log
    /// left off, or [`Self::attach_wal`] with
    /// [`RecoveryReport::head_seq`] to start a fresh journal from a new
    /// checkpoint.
    ///
    /// # Errors
    /// A missing directory — or one with no checkpoint for `name` — is a
    /// usage error, not a torn crash state: it returns
    /// [`WalError::NoJournal`] naming the path instead of a raw
    /// `NotFound` I/O error.
    pub fn recover(dir: &Path, name: &str) -> Result<(Self, RecoveryReport), WalError> {
        Self::replay(dir, name).map(|(idx, report, _)| (idx, report))
    }

    /// [`Self::recover`], then resume journaling in the newest log
    /// segment (or a new one, when the checkpoint is ahead of every
    /// segment) instead of writing a fresh checkpoint. The checkpoint
    /// cadence continues from the replayed swaps, so the next recovery
    /// again replays at most
    /// [`CHECKPOINT_EVERY`](crate::wal::CHECKPOINT_EVERY)` − 1` of them.
    /// Takes the directory over: segments the replay could not reach are
    /// deleted.
    pub fn resume_wal(
        dir: &Path,
        name: &str,
        policy: SyncPolicy,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let (mut idx, report, plan) = Self::replay(dir, name)?;
        idx.journal = Some(Journal::resume(dir, name, policy, &plan)?);
        Ok((idx, report))
    }

    fn replay(dir: &Path, name: &str) -> Result<(Self, RecoveryReport, ReplayPlan), WalError> {
        if !checkpoint_path(dir, name).exists() {
            return Err(WalError::NoJournal(dir.to_path_buf()));
        }
        let plan = plan_replay(dir, name)?;
        let mut idx = Self::from_bytes(&plan.checkpoint.index).map_err(WalError::Decode)?;
        let mut truncated_bytes = 0;
        for s in &plan.chain {
            truncated_bytes += truncate_torn_tail(&segment_path(dir, name, s.number), &s.scan)?;
        }

        // Oracle-style replay: apply updates in order, and at each
        // stage-point compact blocking before applying the updates that
        // arrived after it. Auto-driving is disabled so compaction
        // happens exactly where the log says it did.
        let restore_budget = idx.step_budget;
        idx.set_step_budget(0);
        let mut swaps = plan.swaps.iter().peekable();
        for &(at, u) in &plan.updates {
            while swaps.next_if(|&&s| s < at).is_some() {
                idx.begin_compaction();
                idx.compact_now();
            }
            match u {
                Update::Insert { key, measure } => idx.try_insert(key, measure)?,
                Update::Delete { key, measure } => idx.try_delete(key, measure)?,
            }
        }
        for _ in swaps {
            idx.begin_compaction();
            idx.compact_now();
        }
        idx.set_step_budget(restore_budget);

        let report = RecoveryReport {
            checkpoint_seq: plan.checkpoint.updates_applied,
            replayed_updates: plan.updates.len() as u64,
            replayed_swaps: plan.swaps.len() as u64,
            head_seq: plan.head_seq,
            truncated_bytes,
        };
        Ok((idx, report, plan))
    }

    /// The state [`Self::to_bytes`] encodes, frozen: `Arc` clones of the
    /// base and its record run plus a copy of the buffered deltas.
    pub(crate) fn freeze(&self) -> Frozen {
        Frozen {
            base: self.base.clone(),
            records: Arc::clone(&self.base_records),
            entries: self.control_entries(),
            delta: self.delta,
            config: self.config,
            buffer_limit: self.buffer_limit,
            rebuilds: self.rebuilds,
        }
    }
}

/// A [`DynamicPolyFitSum`]'s serializable state frozen at one instant —
/// what a checkpoint writes. It shares the base and its record run by
/// `Arc`, so a checkpointer thread streams the PFD2 bytes without a
/// checkpoint-sized copy ever being made.
pub(crate) struct Frozen {
    base: Option<Arc<PolyFitSum>>,
    records: Arc<Vec<Record>>,
    entries: Vec<(f64, f64)>,
    delta: f64,
    config: PolyFitConfig,
    buffer_limit: usize,
    rebuilds: usize,
}

impl Frozen {
    /// The base block: the base index's PFS2 bytes (empty without one).
    /// Encoded up front, because its length precedes it.
    pub(crate) fn base_bytes(&self) -> Vec<u8> {
        self.base.as_ref().map(|b| b.to_bytes()).unwrap_or_default()
    }

    /// Length of the PFD2 encoding with base block `base`.
    pub(crate) fn encoded_len(&self, base: &[u8]) -> usize {
        4 + 8 + 6 * 4 + base.len() + 4 + 16 * self.records.len() + 4 + 16 * self.entries.len()
    }

    /// Write the PFD2 encoding (see [`DynamicPolyFitSum::to_bytes`]) with
    /// base block `base` to `w`.
    pub(crate) fn encode(&self, base: &[u8], w: &mut impl io::Write) -> io::Result<()> {
        w.write_all(MAGIC_DYNAMIC)?;
        w.write_all(&self.delta.to_le_bytes())?;
        for v in [
            self.config.degree as u32,
            backend_tag(self.config.backend),
            // 0 encodes None (a real cap is always ≥ 1).
            self.config.max_segment_len.unwrap_or(0) as u32,
            self.buffer_limit as u32,
            self.rebuilds as u32,
            base.len() as u32,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        w.write_all(base)?;
        write_pairs(w, self.records.len(), self.records.iter().map(|r| (r.key, r.measure)))?;
        write_pairs(w, self.entries.len(), self.entries.iter().copied())
    }
}

/// A `u32` count, then `n` `(f64, f64)` pairs, packed into a fixed chunk
/// so each `write_all` carries 256 of them, not one.
fn write_pairs(
    w: &mut impl io::Write,
    n: usize,
    pairs: impl Iterator<Item = (f64, f64)>,
) -> io::Result<()> {
    w.write_all(&(n as u32).to_le_bytes())?;
    let mut chunk = [0u8; 16 * 256];
    let mut filled = 0;
    for (a, b) in pairs {
        chunk[filled..filled + 8].copy_from_slice(&a.to_le_bytes());
        chunk[filled + 8..filled + 16].copy_from_slice(&b.to_le_bytes());
        filled += 16;
        if filled == chunk.len() {
            w.write_all(&chunk)?;
            filled = 0;
        }
    }
    w.write_all(&chunk[..filled])
}

/// The inverse of [`write_pairs`]: a `u32` count, then that many pairs,
/// taken as one slice (so a count the input cannot hold is `Truncated`
/// before anything is allocated) and decoded pair by pair.
fn read_pairs<'a>(
    r: &mut Reader<'a>,
) -> Result<impl ExactSizeIterator<Item = (f64, f64)> + 'a, DecodeError> {
    let n = r.u32()? as usize;
    let run = r.take(n.checked_mul(16).ok_or(DecodeError::Truncated)?)?;
    let f64_at = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
    Ok(run.chunks_exact(16).map(move |p| (f64_at(&p[..8]), f64_at(&p[8..]))))
}

/// An immutable frozen view of a [`DynamicPolyFitSum`]: the `Arc`-shared
/// compiled base plus the control-visible buffered deltas at freeze
/// time. Queries are bitwise-identical to the source index at the
/// moment [`DynamicPolyFitSum::snapshot`] ran — the serving layer
/// publishes these through [`crate::epoch`] so scatter-gather reads and
/// the wait-free read path never touch a live (mutating) index.
#[derive(Clone, Debug)]
pub struct DynamicSnapshot {
    base: Option<Arc<PolyFitSum>>,
    /// Buffered deltas as `(ord_bits(key), Δmeasure)`, ascending — the
    /// same iteration order as the live buffer's `BTreeMap` range scan,
    /// so the per-range fold is bitwise-identical.
    entries: Vec<(u64, f64)>,
    delta: f64,
}

impl DynamicSnapshot {
    /// Exact buffered contribution to `(lq, uq]` — same fold, same
    /// order, same values as the live index's (NaN for a NaN bound).
    fn buffered_sum(&self, lq: f64, uq: f64) -> f64 {
        if lq.is_nan() || uq.is_nan() {
            return f64::NAN;
        }
        let start = self.entries.partition_point(|&(bits, _)| bits <= ord_bits(lq));
        let end = self.entries.partition_point(|&(bits, _)| bits <= ord_bits(uq));
        let mut acc = 0.0;
        for &(_, dm) in &self.entries[start..end] {
            acc += dm;
        }
        acc
    }

    /// Approximate range SUM over `(lq, uq]`, bitwise-identical to
    /// [`DynamicPolyFitSum::query`] on the source at freeze time (NaN for
    /// a NaN bound).
    pub fn query(&self, lq: f64, uq: f64) -> f64 {
        if lq >= uq {
            return 0.0;
        }
        let base = self.base.as_ref().map_or(0.0, |b| b.query(lq, uq));
        base + self.buffered_sum(lq, uq)
    }

    /// Batched range SUM through the base's 8-lane batch engine,
    /// bitwise-identical to per-range [`Self::query`] calls.
    pub fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<f64> {
        match &self.base {
            Some(b) => b
                .query_batch(ranges)
                .into_iter()
                .zip(ranges)
                .map(|(v, &(lq, uq))| if lq >= uq { 0.0 } else { v + self.buffered_sum(lq, uq) })
                .collect(),
            None => ranges.iter().map(|&(lq, uq)| self.query(lq, uq)).collect(),
        }
    }

    /// The certified per-endpoint δ (answers are within `2δ`).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The frozen static base, if any.
    pub fn base(&self) -> Option<&PolyFitSum> {
        self.base.as_deref()
    }

    /// Number of buffered deltas in the frozen view.
    pub fn buffered(&self) -> usize {
        self.entries.len()
    }
}

/// Translate a reused segment by the delta mass accumulated before it:
/// add `shift` to the polynomial's constant term (the normalized variable
/// leaves constants untouched) and to the exact value extrema, and carry
/// the re-certified residual.
fn shifted_segment(old: &Segment, shift: f64, residual: f64) -> Segment {
    if shift == 0.0 && residual == old.error {
        return old.clone();
    }
    let mut coeffs = old.poly.inner().coeffs().to_vec();
    if coeffs.is_empty() {
        coeffs.push(shift);
    } else {
        coeffs[0] += shift;
    }
    Segment {
        lo_key: old.lo_key,
        hi_key: old.hi_key,
        poly: ShiftedPolynomial::new(
            Polynomial::new(coeffs),
            old.poly.center(),
            old.poly.scale_factor(),
        ),
        error: residual,
        value_max: old.value_max + shift,
        value_min: old.value_min + shift,
    }
}

/// Materialise one refitted spec into the shadow output.
fn emit_refit_spec(p: &mut PendingRebuild, spec: SegmentSpec) {
    let span = spec.end - spec.start + 1;
    p.out_stats.push(SegmentStats {
        point_start: spec.start,
        point_end: spec.end,
        lo_key: p.cf.keys[spec.start],
        hi_key: p.cf.keys[spec.end],
        residual: spec.certified_error,
        cf_before: if spec.start == 0 { 0.0 } else { p.cf.values[spec.start - 1] },
        cf_end: p.cf.values[spec.end],
    });
    p.out.push(segment_from_spec(&p.cf, spec));
    p.refit_segments += 1;
    p.refit_points += span;
    p.covered_points += span;
}

// "PFD2": v2 of the dynamic layout — the base block is the PFS2 format
// (carrying segment statistics) and may be empty (no base after a
// delete-everything compaction).
const MAGIC_DYNAMIC: &[u8; 4] = b"PFD2";

fn backend_tag(backend: FitBackend) -> u32 {
    match backend {
        FitBackend::Exchange => 0,
        FitBackend::ExchangeChebyshev => 1,
        FitBackend::Simplex => 2,
    }
}

fn backend_from_tag(tag: u32) -> Result<FitBackend, DecodeError> {
    match tag {
        0 => Ok(FitBackend::Exchange),
        1 => Ok(FitBackend::ExchangeChebyshev),
        2 => Ok(FitBackend::Simplex),
        _ => Err(DecodeError::Corrupt("fit backend")),
    }
}

impl DynamicPolyFitSum {
    /// Serialize the full dynamic state — static index (with its segment
    /// statistics), base records (for future compactions), pending
    /// buffer, and construction parameters — to a compact little-endian
    /// buffer (magic `PFD2`).
    ///
    /// An in-flight shadow rebuild is not persisted: the buffer is
    /// written as a never-compacted index would hold it, so the decoded
    /// index answers bitwise-identically and simply re-stages its
    /// compaction on the next update.
    pub fn to_bytes(&self) -> Vec<u8> {
        let state = self.freeze();
        let base = state.base_bytes();
        let mut out = Vec::with_capacity(state.encoded_len(&base));
        state.encode(&base, &mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Decode a buffer produced by [`Self::to_bytes`]. The static index is
    /// decoded (not refitted), so queries round-trip bit-exactly.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC_DYNAMIC {
            return Err(DecodeError::BadMagic);
        }
        let delta = r.finite("delta")?;
        let degree = r.u32()? as usize;
        let backend = backend_from_tag(r.u32()?)?;
        let max_segment_len = match r.u32()? {
            0 => None,
            cap => Some(cap as usize),
        };
        let buffer_limit = r.u32()? as usize;
        if buffer_limit == 0 {
            return Err(DecodeError::Corrupt("buffer limit"));
        }
        let rebuilds = r.u32()? as usize;
        let base_len = r.u32()? as usize;
        let base = if base_len == 0 {
            None
        } else {
            Some(Arc::new(PolyFitSum::from_bytes(r.take(base_len)?)?))
        };
        let pairs = read_pairs(&mut r)?;
        let mut base_records = Vec::with_capacity(pairs.len());
        let mut prev = f64::NEG_INFINITY;
        for (key, measure) in pairs {
            let key = finite(key, "record key")?;
            let measure = finite(measure, "record measure")?;
            // Compaction linear-merges this set and derives segment
            // statistics from it, both of which assume sorted distinct
            // keys — enforce at the trust boundary.
            if key <= prev {
                return Err(DecodeError::Corrupt("record order"));
            }
            prev = key;
            base_records.push(Record::new(key, measure));
        }
        if let Some(base) = &base {
            // The record set must be exactly the one the base was built
            // over: same key extent…
            let (d0, d1) = base.domain();
            let covers = base_records.first().is_some_and(|r| r.key == d0)
                && base_records.last().is_some_and(|r| r.key == d1);
            if !covers {
                return Err(DecodeError::Corrupt("record coverage"));
            }
            // …and, when a stats block is present, its tiled spans must
            // cover the records exactly (they index into them later).
            if let Some(stats) = base.segment_stats() {
                if stats.last().is_some_and(|s| s.point_end + 1 != base_records.len()) {
                    return Err(DecodeError::Corrupt("stats span coverage"));
                }
            }
        }
        let mut buffer = BTreeMap::new();
        for (key, dm) in read_pairs(&mut r)? {
            let key = finite(key, "buffered key")?;
            let key = if key == 0.0 { 0.0 } else { key };
            let dm = finite(dm, "buffered delta")?;
            if dm != 0.0 {
                buffer.insert(ord_bits(key), (key, dm));
            }
        }
        Ok(DynamicPolyFitSum {
            base,
            base_records: Arc::new(base_records),
            buffer,
            buffer_limit,
            delta,
            config: PolyFitConfig { degree, backend, max_segment_len },
            build_opts: BuildOptions::default(),
            rebuilds,
            pending: None,
            step_budget: DEFAULT_STEP_BUDGET,
            generation: rebuilds as u64,
            last_compaction: None,
            reused_segments_total: 0,
            refit_segments_total: 0,
            journal: None,
            apply_scratch: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_sum(records: &[(f64, f64)], l: f64, u: f64) -> f64 {
        records.iter().filter(|(k, _)| *k > l && *k <= u).map(|(_, m)| m).sum()
    }

    fn base_records(n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::new(i as f64, 1.0)).collect()
    }

    #[test]
    fn inserts_are_exact_on_top_of_base() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(10_000), 20.0, PolyFitConfig::default(), 1_000_000)
                .unwrap();
        let mut shadow: Vec<(f64, f64)> = (0..10_000).map(|i| (i as f64, 1.0)).collect();
        for i in 0..500 {
            let k = 2_000.5 + i as f64 * 3.0;
            idx.insert(k, 5.0);
            shadow.push((k, 5.0));
        }
        for (l, u) in [(0.0, 9999.0), (1999.0, 4000.0), (2000.0, 2001.0)] {
            let err = (idx.query(l, u) - exact_sum(&shadow, l, u)).abs();
            assert!(err <= 40.0 + 1e-9, "({l}, {u}]: err {err}");
        }
    }

    /// The inherent SUM reads answer NaN for a NaN bound (either sign, on
    /// either side), scalar and batched, with and without a base index
    /// and with buffered keys on both sides of the range; the finite
    /// ranges of the same batch keep their per-range answers.
    #[test]
    fn nan_bounds_answer_nan_on_every_sum_read() {
        fn check(what: &str, query: impl Fn(f64, f64) -> f64, batch: &[f64]) {
            for (i, &(lq, uq)) in RANGES.iter().enumerate() {
                let one = query(lq, uq);
                assert_eq!(one.is_nan(), lq.is_nan() || uq.is_nan(), "{what} range {i}");
                assert_eq!(batch[i].is_nan(), one.is_nan(), "{what} batch range {i}");
                if !one.is_nan() {
                    assert_eq!(batch[i].to_bits(), one.to_bits(), "{what} batch range {i}");
                }
            }
        }
        const RANGES: [(f64, f64); 7] = [
            (f64::NAN, 10.0),
            (5.0, f64::NAN),
            (f64::NAN, f64::NAN),
            (-f64::NAN, 10.0),
            (5.0, -f64::NAN),
            (10.0, 400.0),
            (-50.0, 1e9),
        ];
        let records = base_records(500);
        let idx = PolyFitSum::build(records.clone(), 5.0, PolyFitConfig::default()).unwrap();
        assert!(idx.cf(f64::NAN).is_nan());
        check("static", |l, u| idx.query(l, u), &idx.query_batch(&RANGES));
        let mut emptied =
            DynamicPolyFitSum::new(base_records(4), 5.0, PolyFitConfig::default(), 1 << 20)
                .unwrap();
        for r in base_records(4) {
            emptied.delete(r.key, r.measure);
        }
        emptied.compact_now();
        assert!(emptied.base().is_none());
        let with_base =
            DynamicPolyFitSum::new(records, 5.0, PolyFitConfig::default(), 1 << 20).unwrap();
        for mut dynamic in [with_base, emptied] {
            for k in [-7.0, 7.5, 250.5, 900.0] {
                dynamic.insert(k, 3.0);
            }
            let base = if dynamic.base().is_some() { "with base" } else { "no base" };
            let snap = dynamic.snapshot();
            check(base, |l, u| dynamic.query(l, u), &dynamic.query_batch(&RANGES));
            check(base, |l, u| snap.query(l, u), &snap.query_batch(&RANGES));
        }
    }

    #[test]
    fn deletes_cancel() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(5_000), 10.0, PolyFitConfig::default(), 1_000_000)
                .unwrap();
        // Delete keys 100..200 entirely.
        for i in 100..200 {
            idx.delete(i as f64, 1.0);
        }
        let approx = idx.query(99.0, 199.0);
        assert!(approx.abs() <= 20.0 + 1e-9, "deleted range still reports {approx}");
    }

    #[test]
    fn rebuild_triggers_and_preserves_answers() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(2_000), 10.0, PolyFitConfig::default(), 64)
                .unwrap();
        let mut shadow: Vec<(f64, f64)> = (0..2_000).map(|i| (i as f64, 1.0)).collect();
        for i in 0..300 {
            let k = 500.25 + i as f64;
            idx.insert(k, 2.0);
            shadow.push((k, 2.0));
        }
        assert!(idx.rebuilds() >= 1, "buffer limit 64 must have compacted");
        assert!(idx.buffered() < 64);
        for (l, u) in [(0.0, 1999.0), (499.0, 900.0)] {
            let err = (idx.query(l, u) - exact_sum(&shadow, l, u)).abs();
            assert!(err <= 20.0 + 1e-9, "({l}, {u}]: err {err}");
        }
    }

    #[test]
    fn negative_keys_ordered_correctly() {
        let records: Vec<Record> = (-500..500).map(|i| Record::new(i as f64, 1.0)).collect();
        let mut idx =
            DynamicPolyFitSum::new(records, 5.0, PolyFitConfig::default(), 1_000_000).unwrap();
        idx.insert(-250.5, 10.0);
        idx.insert(250.5, 20.0);
        // (−300, −200] must see the −250.5 insert but not the 250.5 one.
        let a = idx.query(-300.0, -200.0);
        assert!((a - (100.0 + 10.0)).abs() <= 10.0 + 1e-9, "got {a}");
    }

    #[test]
    fn repeated_update_same_key_folds() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(100), 2.0, PolyFitConfig::default(), 1_000_000)
                .unwrap();
        for _ in 0..50 {
            idx.insert(42.5, 1.0);
        }
        assert_eq!(idx.buffered(), 1);
        let a = idx.query(42.0, 43.0);
        assert!((a - 51.0).abs() <= 4.0 + 1e-9, "got {a}"); // key 43 + 50 inserts
    }

    #[test]
    fn ord_bits_is_monotone() {
        let vals = [-1e9, -2.5, -0.0, 0.0, 1e-300, 3.7, 1e18];
        for w in vals.windows(2) {
            assert!(ord_bits(w[0]) <= ord_bits(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    // ------------------------------------------------------------------
    // Satellite regression tests
    // ------------------------------------------------------------------

    /// Insert-then-delete pairs fold to a zero delta; the entry must
    /// release its buffer slot instead of counting toward the limit and
    /// triggering spurious compactions.
    #[test]
    fn cancelled_updates_release_their_slot() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(500), 5.0, PolyFitConfig::default(), 8).unwrap();
        for i in 0..20 {
            let k = 1000.5 + i as f64;
            idx.insert(k, 3.0);
            idx.delete(k, 3.0);
        }
        assert_eq!(idx.buffered(), 0, "cancelled entries must not occupy slots");
        assert_eq!(idx.rebuilds(), 0, "cancelled entries must not trigger compaction");
        assert_eq!(idx.query(999.0, 1030.0), 0.0);
    }

    /// `-0.0` and `+0.0` are one key to the base index; the buffer must
    /// bucket them together so deletes cancel and range bounds agree.
    #[test]
    fn negative_zero_folds_with_positive_zero() {
        let records: Vec<Record> = (-5..5).map(|i| Record::new(i as f64, 1.0)).collect();
        let mut idx =
            DynamicPolyFitSum::new(records, 2.0, PolyFitConfig::default(), 1_000_000).unwrap();
        idx.insert(-0.0, 5.0);
        idx.delete(0.0, 5.0);
        assert_eq!(idx.buffered(), 0, "±0.0 updates must cancel");
        idx.insert(0.0, 7.0);
        assert_eq!(idx.buffered(), 1);
        // Range bounds at ±0.0 agree with the base index's semantics.
        assert_eq!(idx.query(-0.0, 2.0).to_bits(), idx.query(0.0, 2.0).to_bits());
        assert_eq!(idx.query(-2.0, -0.0).to_bits(), idx.query(-2.0, 0.0).to_bits());
        let with_insert = idx.query(-1.0, 1.0);
        let truth = 2.0 + 7.0; // keys 0 and 1 plus the buffered insert
        assert!((with_insert - truth).abs() <= 4.0 + 1e-9, "got {with_insert}");
    }

    /// Deleting the whole record set must compact to a valid degenerate
    /// base instead of panicking, and the index must stay live.
    #[test]
    fn delete_everything_compacts_to_empty_base() {
        let n = 100usize;
        let mut idx =
            DynamicPolyFitSum::new(base_records(n), 5.0, PolyFitConfig::default(), 10).unwrap();
        for i in 0..n {
            idx.delete(i as f64, 1.0);
        }
        assert!(idx.rebuilds() >= 1);
        assert!(idx.base().is_none(), "empty merge must drop the base");
        assert_eq!(idx.base_len(), 0);
        assert_eq!(idx.query(-1.0, n as f64), 0.0);
        // The index keeps absorbing updates and rebuilds from scratch.
        for i in 0..50 {
            idx.insert(i as f64 + 0.5, 2.0);
        }
        assert!(idx.base().is_some(), "inserts after emptiness rebuild a base");
        let approx = idx.query(0.0, 100.0);
        assert!((approx - 100.0).abs() <= 10.0 + 1e-9, "got {approx}");
    }

    /// `try_insert`/`try_delete` reject non-finite updates with an error;
    /// the convenience wrappers panic.
    #[test]
    fn non_finite_updates_are_rejected() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(100), 5.0, PolyFitConfig::default(), 10).unwrap();
        assert!(matches!(idx.try_insert(f64::NAN, 1.0), Err(PolyFitError::NonFiniteUpdate { .. })));
        assert!(matches!(
            idx.try_insert(1.0, f64::INFINITY),
            Err(PolyFitError::NonFiniteUpdate { .. })
        ));
        assert!(matches!(
            idx.try_delete(f64::NEG_INFINITY, 1.0),
            Err(PolyFitError::NonFiniteUpdate { .. })
        ));
        assert_eq!(idx.buffered(), 0, "rejected updates must not land");
        assert!(idx.try_insert(1.5, 2.0).is_ok());
    }

    /// Non-finite initial records are a typed error from both build
    /// entry points, like `PolyFitSum::build` — not a panic in the sort.
    #[test]
    fn non_finite_records_are_a_typed_error() {
        for (bad, at) in [(Record::new(f64::NAN, 1.0), 3), (Record::new(2.0, f64::INFINITY), 7)] {
            let mut records = base_records(20);
            records[at] = bad;
            let cfg = PolyFitConfig::default();
            assert_eq!(
                DynamicPolyFitSum::new(records.clone(), 5.0, cfg, 10).err(),
                Some(PolyFitError::NonFiniteData { index: at })
            );
            assert_eq!(
                DynamicPolyFitSum::with_options(records, 5.0, cfg, 10, &BuildOptions::default())
                    .err(),
                Some(PolyFitError::NonFiniteData { index: at })
            );
        }
    }

    #[test]
    #[should_panic(expected = "finite values required")]
    fn insert_panics_on_non_finite() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(10), 5.0, PolyFitConfig::default(), 10).unwrap();
        idx.insert(f64::NAN, 1.0);
    }

    // ------------------------------------------------------------------
    // Shadow-compaction machinery
    // ------------------------------------------------------------------

    /// Skewed updates refit strictly fewer segments than a full rebuild:
    /// the reuse counters prove interior segments were kept verbatim.
    /// Config with a segment-length cap, so segment counts (and hence
    /// reuse behaviour) are deterministic even over linear data.
    fn capped(cap: usize) -> PolyFitConfig {
        PolyFitConfig { max_segment_len: Some(cap), ..PolyFitConfig::default() }
    }

    #[test]
    fn skewed_compaction_reuses_clean_segments() {
        let mut idx = DynamicPolyFitSum::new(base_records(8_000), 10.0, capped(256), 64).unwrap();
        let before = idx.base().unwrap().num_segments();
        assert!(before >= 4, "need several segments for reuse to be visible");
        // All updates land in the top 2% of the key range.
        for i in 0..64 {
            idx.insert(7_900.25 + i as f64 * 0.01, 2.0);
        }
        assert_eq!(idx.rebuilds(), 1);
        let report = *idx.last_compaction().unwrap();
        assert!(report.reused_segments >= 1, "clean interior segments must be reused");
        // Strictly fewer refits than a full rebuild would fit: the old
        // base had `before` segments, all of which a blocking refit-only
        // rebuild would re-derive; here most are reused instead.
        assert!(
            report.refit_segments < before,
            "refit {} segments vs {before} in a full rebuild",
            report.refit_segments
        );
        assert!(report.refit_fraction() < 1.0, "refit fraction {}", report.refit_fraction());
        assert_eq!(idx.reuse_counters().0, report.reused_segments);
        // The guarantee holds over the swapped base.
        let approx = idx.query(-1.0, 8_000.0);
        let truth = 8_000.0 + 64.0 * 2.0;
        assert!((approx - truth).abs() <= 20.0 + 1e-9, "got {approx} want {truth}");
    }

    /// Queries issued while the rebuild is mid-flight are bitwise-equal
    /// to a control index that never compacts, and the post-swap state is
    /// bitwise-equal to a blocking rebuild at the same trigger point.
    #[test]
    fn stepped_rebuild_is_bitwise_transparent() {
        let delta = 8.0;
        let mk =
            || DynamicPolyFitSum::new(base_records(4_000), delta, capped(96), 1 << 30).unwrap();
        let mut stepped = mk();
        let mut control = mk(); // never compacts
        for i in 0..200 {
            let k = 1_000.5 + i as f64 * 7.0;
            stepped.insert(k, 3.0);
            control.insert(k, 3.0);
            stepped.delete(i as f64, 0.25);
            control.delete(i as f64, 0.25);
        }
        let mut blocking = stepped.clone(); // same trigger state
        blocking.compact_now();
        assert!(!blocking.is_compacting() && blocking.rebuilds() == 1);

        stepped.set_step_budget(0); // manual stepping
        assert!(stepped.begin_compaction());
        let probes: Vec<(f64, f64)> =
            (0..40).map(|i| (i as f64 * 55.0 - 10.0, i as f64 * 55.0 + 700.0)).collect();
        let mut steps = 0usize;
        let cap = 120; // points per step; segments may overshoot by one
        loop {
            // During the rebuild: bitwise-equal to the untouched control,
            // per-query and batched.
            for &(l, u) in &probes {
                assert_eq!(stepped.query(l, u).to_bits(), control.query(l, u).to_bits());
            }
            let sb = stepped.query_batch(&probes);
            let cb = control.query_batch(&probes);
            for (a, b) in sb.iter().zip(&cb) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Fresh updates land without blocking, on both sides.
            let k = 30_000.0 + steps as f64;
            stepped.insert(k, 1.5);
            control.insert(k, 1.5);
            blocking.insert(k, 1.5);
            let before = stepped.compaction().map(|s| s.refit_points_done).unwrap_or(0);
            if stepped.step_compaction(cap) {
                break;
            }
            let after = stepped.compaction().unwrap().refit_points_done;
            // Segments are atomic, so a step may overshoot its fitting
            // budget by at most one segment span (capped at 96 here).
            assert!(after - before <= cap + 96, "step refit {} points", after - before);
            steps += 1;
            assert!(steps < 10_000, "compaction must terminate");
        }
        assert!(steps > 1, "budget {cap} must take several steps on 4k points");
        // After the swap: bitwise-equal to the blocking rebuild.
        assert_eq!(stepped.rebuilds(), blocking.rebuilds());
        assert_eq!(stepped.base_len(), blocking.base_len());
        assert_eq!(stepped.base().unwrap().num_segments(), blocking.base().unwrap().num_segments());
        assert_eq!(stepped.buffered(), blocking.buffered());
        for &(l, u) in &probes {
            assert_eq!(stepped.query(l, u).to_bits(), blocking.query(l, u).to_bits());
        }
        let sb = stepped.query_batch(&probes);
        let bb = blocking.query_batch(&probes);
        for (a, b) in sb.iter().zip(&bb) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Updates to a key that is being folded into the shadow base keep
    /// queries control-identical during the rebuild and leave exactly the
    /// fresh delta behind after the swap.
    #[test]
    fn staged_key_updates_overlay_correctly() {
        let mk = || {
            DynamicPolyFitSum::new(base_records(2_000), 5.0, PolyFitConfig::default(), 1 << 30)
                .unwrap()
        };
        let mut idx = mk();
        let mut control = mk();
        for m in [(100.5, 2.0), (200.5, 4.0), (300.5, 8.0), (400.5, 16.0)] {
            idx.insert(m.0, m.1);
            control.insert(m.0, m.1);
        }
        idx.set_step_budget(0);
        assert!(idx.begin_compaction());
        // Hit staged keys again mid-rebuild: more mass, a cancel of the
        // staged mass, a partial restatement, and a fresh delta that
        // folds back to exactly zero.
        for (k, m) in
            [(100.5, 1.0), (200.5, -4.0), (300.5, -8.0), (300.5, 0.5), (400.5, 3.0), (400.5, -3.0)]
        {
            idx.insert(k, m);
            control.insert(k, m);
        }
        for &(l, u) in
            &[(0.0, 2000.0), (100.0, 101.0), (200.0, 201.0), (300.0, 301.0), (400.0, 401.0)]
        {
            assert_eq!(idx.query(l, u).to_bits(), control.query(l, u).to_bits());
        }
        while !idx.step_compaction(64) {}
        // Post-swap the base holds the staged mass and the buffer exactly
        // the fresh deltas; the zero-folded 400.5 entry dropped at swap.
        let got: Vec<(f64, f64)> = idx.buffer.values().copied().collect();
        assert_eq!(got, vec![(100.5, 1.0), (200.5, -4.0), (300.5, -7.5)]);
        assert_eq!(idx.buffered(), 3);
    }

    /// `abort_compaction` restores the never-compacted state exactly.
    #[test]
    fn abort_restores_control_state() {
        let mk = || {
            DynamicPolyFitSum::new(base_records(1_000), 5.0, PolyFitConfig::default(), 1 << 30)
                .unwrap()
        };
        let mut idx = mk();
        let mut control = mk();
        for i in 0..30 {
            idx.insert(i as f64 + 0.5, 1.0);
            control.insert(i as f64 + 0.5, 1.0);
        }
        idx.set_step_budget(0);
        assert!(idx.begin_compaction());
        idx.insert(5.5, 2.0);
        control.insert(5.5, 2.0);
        idx.step_compaction(8);
        assert!(idx.abort_compaction());
        assert!(!idx.is_compacting());
        assert!(!idx.abort_compaction(), "nothing left to abort");
        assert_eq!(idx.buffered(), control.buffered());
        for i in 0..40 {
            let (l, u) = (i as f64 - 3.0, i as f64 + 12.0);
            assert_eq!(idx.query(l, u).to_bits(), control.query(l, u).to_bits());
        }
    }

    /// Parallel `compact_now` produces bitwise-identical output to serial
    /// stepping.
    #[test]
    fn parallel_compact_matches_serial() {
        let mk = |threads: usize| {
            let mut idx = DynamicPolyFitSum::with_options(
                base_records(6_000),
                10.0,
                capped(200),
                1 << 30,
                &BuildOptions::default(),
            )
            .unwrap();
            idx.set_build_options(BuildOptions::with_threads(threads));
            // Two separated update clusters → two dirty refit runs, so
            // the parallel path genuinely fans out.
            for i in 0..50 {
                idx.insert(1_500.25 + i as f64 * 2.0, 2.0);
                idx.insert(4_500.25 + i as f64 * 2.0, 2.0);
            }
            idx
        };
        let mut serial = mk(1);
        let mut par = mk(4);
        serial.compact_now();
        par.compact_now();
        assert_eq!(serial.base().unwrap().num_segments(), par.base().unwrap().num_segments());
        for i in 0..60 {
            let (l, u) = (i as f64 * 90.0, i as f64 * 90.0 + 800.0);
            assert_eq!(serial.query(l, u).to_bits(), par.query(l, u).to_bits());
        }
        let a = serial.last_compaction().unwrap();
        let b = par.last_compaction().unwrap();
        assert_eq!((a.reused_segments, a.refit_segments), (b.reused_segments, b.refit_segments));
    }

    /// A PFD2 buffer whose segment statistics overrun the serialized
    /// record set must fail decoding (not panic a later compaction).
    #[test]
    fn stats_overrunning_records_rejected_at_decode() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(100), 5.0, PolyFitConfig::default(), 1 << 30)
                .unwrap();
        idx.insert(42.5, 3.0);
        let mut bytes = idx.to_bytes();
        // Layout: magic(4) delta(8) degree(4) backend(4) cap(4) limit(4)
        // rebuilds(4) base_len(4) base… — shrink n_records so the stats
        // spans (which cover 100 records) overrun the record set.
        let base_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        let n_off = 36 + base_len;
        let n = u32::from_le_bytes(bytes[n_off..n_off + 4].try_into().unwrap());
        assert_eq!(n, 100);
        bytes[n_off..n_off + 4].copy_from_slice(&(n - 1).to_le_bytes());
        assert!(
            DynamicPolyFitSum::from_bytes(&bytes).is_err(),
            "stats spans overrunning the record set must not decode"
        );
    }

    /// Damage inside the PFD2 record run and buffered deltas ends in the
    /// typed error naming the field, and a count the input cannot hold in
    /// `Truncated`, before any record is decoded.
    #[test]
    fn damaged_pair_runs_end_in_typed_errors() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(100), 5.0, PolyFitConfig::default(), 1 << 30)
                .unwrap();
        idx.insert(42.5, 3.0);
        idx.insert(60.5, 1.0);
        let bytes = idx.to_bytes();
        let base_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        let records = 36 + base_len + 4; // first record's key
        let buffered = records + 100 * 16 + 4; // first buffered key
        assert_eq!(bytes.len(), buffered + 2 * 16);
        let with = |at: usize, v: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + v.len()].copy_from_slice(v);
            DynamicPolyFitSum::from_bytes(&b).err()
        };
        let nan = f64::NAN.to_le_bytes();
        let corrupt = |what| Some(DecodeError::Corrupt(what));
        assert_eq!(with(records + 3 * 16, &nan), corrupt("record key"));
        assert_eq!(
            with(records + 5 * 16 + 8, &f64::INFINITY.to_le_bytes()),
            corrupt("record measure")
        );
        assert_eq!(with(records + 5 * 16, &4.0f64.to_le_bytes()), corrupt("record order"));
        assert_eq!(with(records + 5 * 16, &3.5f64.to_le_bytes()), corrupt("record order"));
        assert_eq!(with(buffered + 16, &nan), corrupt("buffered key"));
        assert_eq!(with(buffered + 8, &nan), corrupt("buffered delta"));
        assert_eq!(with(records - 4, &u32::MAX.to_le_bytes()), Some(DecodeError::Truncated));
        assert_eq!(with(buffered - 4, &3u32.to_le_bytes()), Some(DecodeError::Truncated));
        for cut in [records + 7, records + 50 * 16, buffered + 31] {
            let err = DynamicPolyFitSum::from_bytes(&bytes[..cut]).err();
            assert_eq!(err, Some(DecodeError::Truncated), "cut at {cut}");
        }
        assert!(with(records + 5 * 16, &5.0f64.to_le_bytes()).is_none());
    }

    /// The generational state machine reports sane progress.
    #[test]
    fn compaction_status_reports_progress() {
        let mut idx =
            DynamicPolyFitSum::new(base_records(3_000), 8.0, capped(128), 1 << 30).unwrap();
        assert!(idx.compaction().is_none());
        assert_eq!(idx.generation(), 0);
        for i in 0..50 {
            idx.insert(700.5 + i as f64, 1.0);
        }
        idx.set_step_budget(0);
        assert!(idx.begin_compaction());
        assert!(!idx.begin_compaction(), "already pending");
        let s0 = idx.compaction().unwrap();
        assert_eq!(s0.generation, 1);
        assert_eq!(s0.points_done, 0);
        assert!(s0.points_total >= 3_000);
        idx.step_compaction(100);
        let s1 = idx.compaction().unwrap();
        assert!(s1.points_done > 0 && s1.points_done <= s1.points_total);
        assert!(s1.segments_emitted > 0);
        while !idx.step_compaction(500) {}
        assert!(idx.compaction().is_none());
        assert_eq!(idx.generation(), 1);
        assert_eq!(idx.last_compaction().unwrap().generation, 1);
    }
}
