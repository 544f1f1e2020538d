//! Shard-per-core serving: shared-nothing key-space shards behind an
//! epoch-published routing layout — the serving engine for mutable
//! state.
//!
//! Reads never wait in a queue. [`ShardHandle::submit`] answers on the
//! caller's thread from the published snapshot of every shard the range
//! touches, under one epoch pin, and returns an already-completed
//! [`ShardTicket`]. Only writes (and merge handoffs) ride the per-shard
//! queues. A worker applies them a window at a time — a window ends
//! when a pop empties the queue; `deadline` only bounds one while writes
//! keep arriving — and publishes a new snapshot only after one fence
//! covers every write it holds (group commit), so every state a reader
//! can observe is durable. It publishes at the end of the window that
//! reaches a write a handle waits on, before a compaction step, after a
//! park interval without writes, and at least every 10 ms under
//! sustained load; windows in between share one fence. Workers also
//! step compaction in idle gaps and fail-stop on worker death. One
//! shard (the default) is a single-writer serving loop;
//! more shards partition the key space. Immutable indexes need none of
//! this: every index is `Send + Sync`, so client threads call
//! [`crate::traits::AggregateIndex::query`] on a shared
//! [`crate::traits::SharedIndex`] directly.
//!
//! * **Shared-nothing shards.** The key space is partitioned into
//!   contiguous ranges `(B_{i-1}, B_i]`; each shard is one worker thread
//!   owning its own [`DynamicPolyFitSum`] and a private write queue.
//!   No mutex is shared between shards on the hot path.
//! * **Reads on the caller's thread.** A read `(lo, hi]` touching shards
//!   `a..=b` is clipped at the shard bounds; each part is answered from
//!   that shard's snapshot and the parts fold **in ascending shard
//!   order** with [`RangeAggregate::merge_sum`] — a deterministic fold,
//!   so the composed value is exactly reproducible. A read allocates its
//!   provenance vector and touches no shared counter, slot or lock.
//! * **Read-your-writes.** A handle remembers the queue position of its
//!   last write to each shard. A read that touches a shard which has not
//!   yet published that position is deferred to [`ShardTicket::wait`]
//!   (spin, then park until the worker's publish wakes it); `submit`
//!   itself never blocks, so an open-loop submitter keeps its schedule.
//!   Later reads of the handle defer behind an unresolved one, so its
//!   answers never go back in time. A split or merge hands the positions
//!   of the stragglers it forwards on to the successor shards.
//! * **Epoch-published snapshots.** The routing table ([`Layout`]) and
//!   every shard's frozen view ([`DynamicSnapshot`]) are published
//!   through [`crate::epoch`]: compaction swaps and shard rebalances are
//!   a pointer publish, wait-free for readers, with grace-period
//!   reclamation instead of locks.
//! * **Auto-partitioning.** Per-shard size counters drive YDB-style
//!   splits (at the median base key) and merges into a neighbour, each
//!   executed as a layout publish that is invisible to readers.
//!
//! ## Bitwise reproducibility
//!
//! Sharding changes the *decomposition* of an answer, not its
//! determinism. Every served answer carries a per-shard provenance
//! vector of [`ShardPoint`]s — `(shard, clipped range, updates_applied,
//! rebuilds, epoch)` — and the server records, per shard, the applied
//! update stream, the compaction stage points, and every split/merge
//! ([`RebalanceRecord`]).
//! [`ShardedOracle`] replays that history offline: it reconstructs each
//! shard's exact index state at its provenance point (split children
//! are re-derived by replaying the parent to its final state and
//! splitting at the recorded key — [`DynamicPolyFitSum::split_at`] is
//! deterministic), re-runs the clipped sub-queries, and folds them in
//! the same order. The proptests in `tests/serving.rs` hold every
//! served answer — point, spanning, mid-split, mid-compaction — bitwise
//! equal to this replay.
//!
//! Note the oracle is *per shard by construction*: a sharded answer is
//! a sum of independently δ-certified sub-range answers, which is not
//! (and need not be) bitwise-equal to one unsharded index answering the
//! unclipped range — the two differ in segmentation and fold order.
//! The certified `±2δ` bound per sub-range composes additively
//! ([`RangeAggregate::merge_sum`]), so an answer spanning `k` shards
//! carries a `±2kδ` certificate.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use polyfit_exact::dataset::{dedup_sum, sort_records, Record};

use crate::build::BuildOptions;
use crate::config::PolyFitConfig;
use crate::dynamic::{DynamicPolyFitSum, DynamicSnapshot, Update};
use crate::epoch::{Domain, Published, Reader};
use crate::error::PolyFitError;
use crate::function::validate_records;
use crate::serialize::WalRecord;
use crate::traits::{classify_bounds, QueryBounds, RangeAggregate};
use crate::wal::{
    Checkpointer, Journal, LayoutCheckpoint, LayoutLog, RecoveryReport, SyncPolicy, WalError,
};

/// Deadline windows above this are clamped — a misconfigured huge
/// deadline must degrade to coarse batching, not to an unserved stall.
const MAX_DEADLINE: Duration = Duration::from_millis(100);

/// How long a parked worker sleeps before re-checking for shutdown and
/// compaction work. Bounds the shutdown latency of a worker whose
/// close-time unpark was missed.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// How long a busy shard may coalesce write windows into one fence
/// before it publishes anyway: the staleness bound for snapshot reads
/// under sustained write load.
const PUBLISH_LAG: Duration = Duration::from_millis(10);

/// Tuning knobs for a [`ShardedServer`]. Validated and clamped by
/// [`ShardedServer::start`] (see [`ShardConfig::validated`]).
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Initial shard count (clamped to `1..=max_shards`; also capped by
    /// the number of distinct records, since every shard needs at least
    /// one).
    pub shards: usize,
    /// Longest a write window stays open while writes keep arriving,
    /// from the first write a worker pops; a window ends as soon as a
    /// pop leaves the queue empty. A window is one journaled batch, and
    /// the windows between two publishes share one fence (group
    /// commit). Clamped to at most 100 ms.
    pub deadline: Duration,
    /// Largest number of queued writes one window applies (`0` is
    /// clamped to 1).
    pub max_batch: usize,
    /// Compaction step budget spent per idle gap (`0` disables
    /// loop-driven compaction).
    pub compaction_budget: usize,
    /// Per-shard update-buffer limit before compaction is staged.
    pub buffer_limit: usize,
    /// Split a shard when its record count (base + buffered) exceeds
    /// this (`0` disables auto-splitting).
    pub split_threshold: usize,
    /// Merge a shard into a neighbour when its record count falls below
    /// this (`0` disables auto-merging).
    pub merge_threshold: usize,
    /// Hard cap on the shard count (auto-splits stop here).
    pub max_shards: usize,
    /// Build-pipeline options for initial builds, compaction rebuilds,
    /// and split/merge rebuilds. Must be deterministic for oracle
    /// replay (the default serial pipeline is).
    pub build: BuildOptions,
    /// Record per-shard update logs, stage points, and rebalances so a
    /// [`ShardedOracle`] can replay every answer. Off by default — the
    /// log grows with the update stream.
    pub record_history: bool,
    /// Spin iterations before an idle worker or a deferred read parks.
    /// On a single hardware thread, spinning only steals cycles from the
    /// worker — keep it small there.
    pub spin: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            deadline: Duration::from_micros(200),
            max_batch: 512,
            compaction_budget: crate::dynamic::DEFAULT_STEP_BUDGET,
            buffer_limit: 1024,
            split_threshold: 0,
            merge_threshold: 0,
            max_shards: 16,
            build: BuildOptions::default(),
            record_history: false,
            spin: 64,
        }
    }
}

impl ShardConfig {
    /// Clamp degenerate values into the serving loop's operating range:
    /// `max_batch = 0` and over-long deadlines would otherwise configure
    /// a loop that stalls, and `shards = 0` has no worker to run.
    pub fn validated(mut self) -> ShardConfig {
        self.max_shards = self.max_shards.max(1);
        self.shards = self.shards.clamp(1, self.max_shards);
        self.max_batch = self.max_batch.clamp(1, 1 << 20);
        self.deadline = self.deadline.min(MAX_DEADLINE);
        self
    }
}

// ---------------------------------------------------------------------------
// Served answers and provenance
// ---------------------------------------------------------------------------

/// One shard's contribution to a served answer: the clipped sub-range it
/// answered and the exact index state it answered from. The triple
/// `(updates_applied, rebuilds, epoch)` pins that state —
/// [`ShardedOracle::index_at`] reconstructs it bit-for-bit from the
/// first two; `epoch` names the published snapshot that carries the same
/// state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardPoint {
    /// Shard id (stable across its lifetime; splits and merges mint new
    /// ids).
    pub shard: u64,
    /// Clipped sub-range lower bound (exclusive).
    pub lo: f64,
    /// Clipped sub-range upper bound (inclusive).
    pub hi: f64,
    /// Updates this shard had applied when it answered.
    pub updates_applied: u64,
    /// Compaction swaps this shard had completed when it answered.
    pub rebuilds: u64,
    /// The shard's snapshot publication counter at answer time.
    pub epoch: u64,
}

/// A sharded served answer: the composed aggregate plus the per-shard
/// provenance vector (ascending shard order — the composition fold
/// order).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardServed {
    /// The composed answer (`None` for non-finite bounds or a poisoned
    /// request).
    pub answer: Option<RangeAggregate>,
    /// Per-shard provenance, in composition order. Empty for degenerate
    /// bounds (answered from the contract, not from shard state) and for
    /// poisoned requests.
    pub shards: Vec<ShardPoint>,
    /// Engine batch this answer rode in: always `0`, because every read
    /// is answered from published snapshots, one range at a time.
    pub batch_len: usize,
    /// `true` when the serving layer could not answer — the server shut
    /// down or a worker died with the request in flight. Never silently
    /// conflated with a real `None` answer: poisoned answers have
    /// `answer == None` *and* this flag set.
    pub poisoned: bool,
}

impl ShardServed {
    /// The composed aggregate value, if any.
    pub fn value(&self) -> Option<f64> {
        self.answer.as_ref().map(|a| a.value)
    }

    fn poisoned() -> ShardServed {
        ShardServed { answer: None, shards: Vec::new(), batch_len: 0, poisoned: true }
    }

    /// The contract answer for degenerate bounds, independent of any
    /// shard state.
    fn inline(answer: Option<RangeAggregate>) -> ShardServed {
        ShardServed { answer, shards: Vec::new(), batch_len: 0, poisoned: false }
    }
}

// ---------------------------------------------------------------------------
// Tickets: inline answers, and reads deferred behind the handle's writes
// ---------------------------------------------------------------------------

/// A handle's latest write to one shard: visible once that shard has
/// published queue position `pos` — or, once the shard has retired,
/// once every successor has published the position its forwarded
/// stragglers landed at.
#[derive(Clone)]
struct Pending {
    rt: Arc<ShardRt>,
    pos: u64,
}

impl Pending {
    /// Ask the shard to publish once it has applied this write: at the
    /// end of the window that holds it, or at once if it is idle. The
    /// shard keeps the highest position asked for, so reads waiting on
    /// one backlog share the fence of the window that reaches the last
    /// of their writes.
    fn request_publish(&self) {
        let awaited = &self.rt.awaited;
        if awaited.load(SeqCst) < self.pos && awaited.fetch_max(self.pos, SeqCst) < self.pos {
            self.rt.queue.wake();
        }
    }
}

/// Record that a write landed at queue position `pos` of `rt`.
fn note(pending: &mut Vec<Pending>, rt: &Arc<ShardRt>, pos: u64) {
    if let Some(p) = pending.iter_mut().find(|p| Arc::ptr_eq(&p.rt, rt)) {
        p.pos = p.pos.max(pos);
        return;
    }
    // A shard this handle has no entry for: first let go of writes that
    // are already visible, so a write-only handle never pins retired
    // shards.
    pending.retain(|p| p.rt.published.load(SeqCst) < p.pos);
    pending.push(Pending { rt: Arc::clone(rt), pos });
}

/// Drop the writes in `pending` that are now visible — published by
/// their shard, or handed on to a retired shard's successors — and
/// return an unpublished write that blocks a read of layout positions
/// `a..=b`: one on those shards, or one on a shard that has left the
/// layout but not yet named its successors.
fn settle(pending: &mut Vec<Pending>, layout: &Layout, a: usize, b: usize) -> Option<Pending> {
    let mut blocker = None;
    let mut i = 0;
    while i < pending.len() {
        let p = &pending[i];
        if p.rt.published.load(SeqCst) >= p.pos {
            pending.swap_remove(i);
        } else if let Some(next) = p.rt.successors.get().cloned() {
            pending.swap_remove(i);
            pending.extend(next);
        } else {
            let touched = layout.shards[a..=b].iter().any(|s| Arc::ptr_eq(s, &p.rt));
            if blocker.is_none() && (touched || layout.position_of(p.rt.id).is_none()) {
                blocker = Some(p.clone());
            }
            i += 1;
        }
    }
    blocker
}

/// A submitted read; await it exactly once.
pub struct ShardTicket(Ticket);

enum Ticket {
    /// Answered on the submitting thread — the common case.
    Ready(ShardServed),
    /// A shard the read touches has not yet published one of the
    /// submitting handle's writes.
    Deferred(Box<DeferredRead>),
}

struct DeferredRead {
    shared: Arc<ServerShared>,
    lo: f64,
    hi: f64,
    pending: Vec<Pending>,
    /// The submitting handle's count of resolved deferred reads, bumped
    /// when this one resolves (or is dropped unresolved).
    resolved: Arc<AtomicU64>,
}

impl Drop for DeferredRead {
    fn drop(&mut self) {
        self.resolved.fetch_add(1, SeqCst);
    }
}

impl ShardTicket {
    /// The answer. An inline answer returns at once; a read deferred
    /// behind the submitting handle's own writes waits until the shards
    /// it touches publish them. Resolves poisoned — never blocks forever
    /// — if the server shuts down or a worker dies first.
    pub fn wait(self) -> ShardServed {
        match self.0 {
            Ticket::Ready(served) => served,
            Ticket::Deferred(read) => read.resolve(),
        }
    }
}

impl DeferredRead {
    /// Retry the snapshot read until nothing blocks it: spin, yield, then
    /// park on the blocking shard, whose next publish wakes this thread.
    fn resolve(mut self) -> ShardServed {
        let reader = self.shared.domain.reader();
        let spin = self.shared.cfg.spin;
        let mut tries = 0u32;
        loop {
            let blocker = match self.shared.read(&reader, &mut self.pending, self.lo, self.hi) {
                Ok(served) => return served,
                Err(rt) => rt,
            };
            if !self.shared.open.load(SeqCst) {
                return ShardServed::poisoned();
            }
            blocker.request_publish();
            if tries < spin {
                std::hint::spin_loop();
            } else if tries < spin.saturating_add(64) {
                thread::yield_now();
            } else {
                blocker.rt.waiters.lock().expect("waiter list poisoned").push(thread::current());
                // A publish that landed before the registration woke
                // nobody; this retry sees it instead.
                if let Ok(served) = self.shared.read(&reader, &mut self.pending, self.lo, self.hi) {
                    return served;
                }
                thread::park_timeout(IDLE_POLL);
            }
            tries = tries.saturating_add(1);
        }
    }
}

/// A merge handoff: the under-sized sender drained and froze itself,
/// then mailed its whole state to the neighbour that absorbs it.
struct MergeHandoff {
    id: u64,
    /// `true` when the sender sits to the right of the receiver.
    from_right: bool,
    index: Box<DynamicPolyFitSum>,
    /// The sender's runtime: the receiver forwards the stragglers that
    /// raced its queue's close and names the merged shard its successor.
    rt: Arc<ShardRt>,
}

enum Req {
    Update(Update),
    Merge(Box<MergeHandoff>),
}

/// Private MPSC write queue with spin-then-park consumer wakeup: a push
/// is a short critical section plus one atomic swap; the `unpark`
/// syscall is paid only when the worker actually parked. Every push gets
/// a queue position (1, 2, …), which read-your-writes waits on.
struct ShardQueue {
    q: Mutex<Inbox>,
    len: AtomicUsize,
    closed: AtomicBool,
    parked: AtomicBool,
    worker: OnceLock<Thread>,
}

#[derive(Default)]
struct Inbox {
    reqs: VecDeque<Req>,
    /// Requests ever pushed: the queue position of the latest push.
    pushed: u64,
}

impl ShardQueue {
    fn new() -> Arc<ShardQueue> {
        Arc::new(ShardQueue {
            q: Mutex::new(Inbox::default()),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            worker: OnceLock::new(),
        })
    }

    /// Enqueue and return the request's queue position, or hand the
    /// request back if the queue is closed (the shard rebalanced away or
    /// the server shut down) — the caller re-routes against a fresh
    /// layout.
    fn push(&self, req: Req) -> Result<u64, Req> {
        // Failpoint: reject the push as if the queue had closed under
        // the caller — the re-route path must hand the request back
        // losslessly and retry against a fresh layout. An every-k spec
        // models a transient storm that eventually drains.
        if crate::failpoint::triggered("shard.queue.push_fail") {
            return Err(req);
        }
        let pos = {
            let mut q = self.q.lock().expect("shard queue poisoned");
            if self.closed.load(SeqCst) {
                return Err(req);
            }
            q.reqs.push_back(req);
            q.pushed += 1;
            self.len.store(q.reqs.len(), SeqCst);
            q.pushed
        };
        self.wake();
        Ok(pos)
    }

    fn pop(&self) -> Option<Req> {
        let mut q = self.q.lock().expect("shard queue poisoned");
        let r = q.reqs.pop_front();
        self.len.store(q.reqs.len(), SeqCst);
        r
    }

    /// Drain up to `max` requests under one lock — the hot-path consumer
    /// never pays one mutex round-trip per request.
    fn pop_many(&self, max: usize, out: &mut Vec<Req>) -> usize {
        let mut q = self.q.lock().expect("shard queue poisoned");
        let take = q.reqs.len().min(max);
        out.extend(q.reqs.drain(..take));
        self.len.store(q.reqs.len(), SeqCst);
        take
    }

    /// Close the queue: no push lands after this returns (the closed
    /// flag is checked under the same lock pushes hold), so the owner
    /// can drain the remainder exactly once.
    fn close(&self) {
        {
            let _guard = self.q.lock().expect("shard queue poisoned");
            self.closed.store(true, SeqCst);
        }
        self.wake();
    }

    fn wake(&self) {
        if self.parked.swap(false, SeqCst) {
            if let Some(t) = self.worker.get() {
                t.unpark();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Published state: per-shard snapshots and the routing layout
// ---------------------------------------------------------------------------

/// What a shard publishes after every state change: its frozen view plus
/// the provenance counters that pin it.
struct ShardSnap {
    view: DynamicSnapshot,
    id: u64,
    updates_applied: u64,
    rebuilds: u64,
    epoch: u64,
    /// Base records + buffered deltas — the size the split/merge
    /// triggers watch.
    len: usize,
}

/// One shard's runtime identity: id, write queue, published snapshot.
struct ShardRt {
    id: u64,
    queue: Arc<ShardQueue>,
    snap: Published<ShardSnap>,
    /// Queue position the published snapshot covers: every request the
    /// worker popped up to here is applied, fenced and visible.
    published: AtomicU64,
    /// Set once, when the shard retires in a split or merge: the shards
    /// that took over its keys, each with the queue position of the last
    /// straggler forwarded to it (`0` for none).
    successors: OnceLock<Vec<Pending>>,
    /// Highest queue position a deferred read waits on: publish at the
    /// end of the window that reaches it, even if more writes are queued
    /// behind it.
    awaited: AtomicU64,
    /// Deferred reads parked until the next publish.
    waiters: Mutex<Vec<Thread>>,
}

impl ShardRt {
    /// A fresh shard runtime whose first snapshot (epoch 1) is `index`.
    fn new(
        domain: &Arc<Domain>,
        id: u64,
        index: &DynamicPolyFitSum,
        updates_applied: u64,
    ) -> Arc<ShardRt> {
        Arc::new(ShardRt {
            id,
            queue: ShardQueue::new(),
            snap: Published::new(
                domain,
                ShardSnap {
                    view: index.snapshot(),
                    id,
                    updates_applied,
                    rebuilds: index.rebuilds() as u64,
                    epoch: 1,
                    len: index.base_len() + index.buffered(),
                },
            ),
            published: AtomicU64::new(0),
            successors: OnceLock::new(),
            awaited: AtomicU64::new(0),
            waiters: Mutex::new(Vec::new()),
        })
    }

    /// Wake every deferred read parked on this shard.
    fn wake_readers(&self) {
        let parked = std::mem::take(&mut *self.waiters.lock().expect("waiter list poisoned"));
        for t in parked {
            t.unpark();
        }
    }

    /// Retire the shard: name its successors, then wake the reads parked
    /// on it so they follow the handoff.
    fn retire(&self, successors: Vec<Pending>) {
        let _ = self.successors.set(successors);
        self.wake_readers();
    }
}

/// The routing table: shard `i` owns keys in `(bounds[i-1], bounds[i]]`
/// (unbounded at the ends). Published through [`crate::epoch`], so
/// routing is wait-free and a rebalance is one pointer swap.
struct Layout {
    version: u64,
    bounds: Vec<f64>,
    shards: Vec<Arc<ShardRt>>,
}

impl Layout {
    fn shard_for_key(&self, k: f64) -> usize {
        self.bounds.partition_point(|&b| b < k)
    }

    /// The inclusive shard positions a proper range `(lo, hi]` touches.
    fn shard_range(&self, lo: f64, hi: f64) -> (usize, usize) {
        let a = self.bounds.partition_point(|&b| b <= lo);
        let b = self.bounds.partition_point(|&b| b < hi);
        (a, b)
    }

    /// Clip `(lo, hi]` to shard position `j` within the touched span
    /// `a..=b`.
    fn clip(&self, j: usize, a: usize, b: usize, lo: f64, hi: f64) -> (f64, f64) {
        let sl = if j == a { lo } else { self.bounds[j - 1] };
        let sh = if j == b { hi } else { self.bounds[j] };
        (sl, sh)
    }

    fn position_of(&self, id: u64) -> Option<usize> {
        self.shards.iter().position(|s| s.id == id)
    }
}

// ---------------------------------------------------------------------------
// Replay history
// ---------------------------------------------------------------------------

/// One shard's recorded serving history: the applied update stream plus
/// the `updates_applied` value at which each compaction was staged.
#[derive(Clone, Debug, Default)]
pub struct ShardLog {
    /// Updates in application order.
    pub updates: Vec<Update>,
    /// `updates_applied` at each compaction staging, in staging order.
    pub stage_points: Vec<u64>,
}

/// A recorded shard split or merge — with [`ShardLog`]s, enough to
/// reconstruct any shard's lineage offline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RebalanceRecord {
    /// `parent` split at `key`: `left` took `(…, key]`, `right` the
    /// rest. The parent had drained its queue and completed any pending
    /// rebuild, so its log is final at this point.
    Split {
        /// The shard that split (retired).
        parent: u64,
        /// The split key (left-inclusive).
        key: f64,
        /// New left child id.
        left: u64,
        /// New right child id.
        right: u64,
    },
    /// `left` and `right` (adjacent, both final) merged into `merged`.
    Merge {
        /// Left input shard id (retired).
        left: u64,
        /// Right input shard id (retired).
        right: u64,
        /// New merged shard id.
        merged: u64,
    },
}

/// Everything a [`ShardedOracle`] needs to replay a serving session:
/// the initial partition, per-shard logs, and the rebalance lineage.
#[derive(Clone, Debug, Default)]
pub struct ShardedHistory {
    /// Initial shards as `(id, records)` — records already sorted and
    /// key-deduplicated, exactly what each shard was built from.
    pub initial: Vec<(u64, Vec<Record>)>,
    /// Per-shard serving logs.
    pub logs: HashMap<u64, ShardLog>,
    /// Splits and merges in execution order.
    pub rebalances: Vec<RebalanceRecord>,
}

// ---------------------------------------------------------------------------
// Server shared state
// ---------------------------------------------------------------------------

/// The WAL log-segment name owned by shard `id`: `shard-{id}`. Split and
/// merge children mint fresh ids, so every shard's journal lives in its
/// own files and replays independently.
pub fn shard_wal_name(id: u64) -> String {
    format!("shard-{id}")
}

/// Remove the files of shards not in the live layout — checkpoints,
/// checkpoint temp files and log segments (`shard-<id>.ckpt`,
/// `.shard-<id>.ckpt.tmp`, `shard-<id>[.<n>].wal`) of shards retired by
/// a rebalance whose cutover record reached the layout log (the only
/// place ids leave the layout), or children staged by a rebalance that
/// never committed. Best-effort: a leftover file is garbage, never a
/// correctness hazard.
fn remove_orphan_segments(dir: &Path, live: &[u64]) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(rest) =
            name.to_str().and_then(|n| n.trim_start_matches('.').strip_prefix("shard-"))
        else {
            continue;
        };
        let digits = rest.split('.').next().unwrap_or_default();
        let Ok(id) = digits.parse::<u64>() else {
            continue;
        };
        if !live.contains(&id) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Server-wide durability state: the WAL directory every per-shard
/// journal lives in, the layout log journaling split/merge cutovers
/// (rebalances are serialized server-wide, so one mutex is uncontended),
/// and the checkpointer thread every shard's journal hands its
/// checkpoints to.
struct WalShared {
    dir: PathBuf,
    policy: SyncPolicy,
    layout: Mutex<LayoutLog>,
    checkpointer: Checkpointer,
}

struct ServerShared {
    domain: Arc<Domain>,
    layout: Published<Layout>,
    open: AtomicBool,
    /// Serializes rebalances: at most one split or merge is in flight
    /// across the whole server.
    rebalance: AtomicBool,
    next_id: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
    threads: Mutex<Vec<JoinHandle<()>>>,
    history: Mutex<ShardedHistory>,
    cfg: ShardConfig,
    delta: f64,
    config: PolyFitConfig,
    /// Durable write path, when the server was started with a WAL
    /// directory ([`ShardedServer::start_with_wal`]).
    wal: Option<WalShared>,
}

impl ServerShared {
    fn mint_id(&self) -> u64 {
        self.next_id.fetch_add(1, SeqCst)
    }

    /// The one read fold, behind both [`ShardHandle::submit`] and
    /// [`ShardHandle::snapshot_query`]: answer `(lo, hi]` from the
    /// published snapshots of the shards it touches, under one epoch pin,
    /// folding the clipped parts in ascending shard order. Writes in
    /// `pending` that are visible by now are dropped from it; if one a
    /// touched (or retiring) shard has yet to publish remains, the read
    /// is not answered and that shard comes back instead.
    fn read(
        &self,
        reader: &Reader,
        pending: &mut Vec<Pending>,
        lo: f64,
        hi: f64,
    ) -> Result<ShardServed, Pending> {
        let bound = 2.0 * self.delta;
        match classify_bounds(lo, hi) {
            QueryBounds::NonFinite => return Ok(ShardServed::inline(None)),
            QueryBounds::Reversed => {
                return Ok(ShardServed::inline(Some(RangeAggregate::absolute(0.0, bound))))
            }
            QueryBounds::Proper => {}
        }
        let pin = reader.pin();
        let layout = self.layout.load(&pin);
        let (a, b) = layout.shard_range(lo, hi);
        if !pending.is_empty() {
            if let Some(blocker) = settle(pending, layout, a, b) {
                return Err(blocker);
            }
        }
        let mut shards = Vec::with_capacity(b - a + 1);
        let mut agg: Option<RangeAggregate> = None;
        for j in a..=b {
            let (sl, sh) = layout.clip(j, a, b, lo, hi);
            let snap = layout.shards[j].snap.load(&pin);
            shards.push(ShardPoint {
                shard: snap.id,
                lo: sl,
                hi: sh,
                updates_applied: snap.updates_applied,
                rebuilds: snap.rebuilds,
                epoch: snap.epoch,
            });
            let part = RangeAggregate::absolute(snap.view.query(sl, sh), bound);
            agg = Some(match agg {
                None => part,
                Some(acc) => acc.merge_sum(part),
            });
        }
        Ok(ShardServed { answer: agg, shards, batch_len: 0, poisoned: false })
    }
}

// ---------------------------------------------------------------------------
// Client handle
// ---------------------------------------------------------------------------

/// Client endpoint of a [`ShardedServer`]. `Send` but not `Sync` (it
/// owns an epoch reader slot and its own write positions); clone it to
/// give each client thread its own.
pub struct ShardHandle {
    shared: Arc<ServerShared>,
    reader: Reader,
    /// This handle's writes not yet seen published, at most one per
    /// shard: what read-your-writes waits for.
    pending: RefCell<Vec<Pending>>,
    /// Deferred reads this handle issued, and how many of them have
    /// resolved. While one is outstanding, later reads defer behind it,
    /// so a handle whose tickets are waited in order never sees a state
    /// older than one it saw before (monotonic reads).
    deferred: Cell<u64>,
    resolved: Arc<AtomicU64>,
}

impl Clone for ShardHandle {
    fn clone(&self) -> Self {
        ShardHandle {
            pending: RefCell::new(self.pending.borrow().clone()),
            ..ShardHandle::new(&self.shared)
        }
    }
}

impl ShardHandle {
    fn new(shared: &Arc<ServerShared>) -> ShardHandle {
        ShardHandle {
            shared: Arc::clone(shared),
            reader: shared.domain.reader(),
            pending: RefCell::new(Vec::new()),
            deferred: Cell::new(0),
            resolved: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Submit a query; pair with [`ShardTicket::wait`]. The answer is
    /// computed here, on the caller's thread, from the published
    /// snapshots of the shards the range touches. The read is deferred
    /// to [`ShardTicket::wait`] only when one of those shards has not yet
    /// published a write this handle submitted, or while an earlier
    /// deferred read of this handle is unresolved — `submit` never
    /// blocks. Never panics: after shutdown the ticket resolves poisoned.
    pub fn submit(&self, lo: f64, hi: f64) -> ShardTicket {
        if !self.shared.open.load(SeqCst) {
            return ShardTicket(Ticket::Ready(ShardServed::poisoned()));
        }
        let mut pending = self.pending.borrow_mut();
        let behind = self.deferred.get() > 0 && self.deferred.get() > self.resolved.load(SeqCst);
        if !behind {
            match self.shared.read(&self.reader, &mut pending, lo, hi) {
                Ok(served) => return ShardTicket(Ticket::Ready(served)),
                // Ask now, so the shard's fence runs while the caller
                // goes on (an open-loop submitter may wait much later).
                Err(blocker) => blocker.request_publish(),
            }
        }
        self.deferred.set(self.deferred.get() + 1);
        ShardTicket(Ticket::Deferred(Box::new(DeferredRead {
            shared: Arc::clone(&self.shared),
            lo,
            hi,
            pending: pending.clone(),
            resolved: Arc::clone(&self.resolved),
        })))
    }

    /// Submit and wait for the composed answer value.
    pub fn query(&self, lo: f64, hi: f64) -> Option<RangeAggregate> {
        self.submit(lo, hi).wait().answer
    }

    /// [`Self::query`] with the full per-shard provenance.
    pub fn query_served(&self, lo: f64, hi: f64) -> ShardServed {
        self.submit(lo, hi).wait()
    }

    /// [`Self::submit`]'s read without read-your-writes and without the
    /// shutdown check: whatever the shards last published, even after
    /// shutdown (each worker's final publish freezes exactly the state
    /// its journal covers). Wait-free, and every answer replays bitwise
    /// from its provenance like any other.
    pub fn snapshot_query(&self, lo: f64, hi: f64) -> ShardServed {
        match self.shared.read(&self.reader, &mut Vec::new(), lo, hi) {
            Ok(served) => served,
            Err(_) => unreachable!("a read with no pending writes never waits"),
        }
    }

    /// Enqueue a write, routed to the owning shard (fire-and-forget).
    /// Finiteness is validated here, so a rejected update never occupies
    /// queue space and a worker's drain cannot fail. The handle's later
    /// reads of that shard reflect the write.
    ///
    /// # Panics
    /// Panics if the server has been shut down.
    pub fn update(&self, update: Update) -> Result<(), PolyFitError> {
        if !update.is_finite() {
            let (key, measure) = match update {
                Update::Insert { key, measure } => (key, measure),
                Update::Delete { key, measure } => (key, -measure),
            };
            return Err(PolyFitError::NonFiniteUpdate { key, measure });
        }
        let mut req = Req::Update(update);
        loop {
            assert!(self.shared.open.load(SeqCst), "sharded server has shut down");
            let pin = self.reader.pin();
            let layout = self.shared.layout.load(&pin);
            let rt = &layout.shards[layout.shard_for_key(update.key())];
            match rt.queue.push(req) {
                Ok(pos) => {
                    note(&mut self.pending.borrow_mut(), rt, pos);
                    return Ok(());
                }
                Err(back) => req = back,
            }
            drop(pin);
            thread::yield_now();
        }
    }

    /// Enqueue an insert of `measure` mass at `key`.
    pub fn insert(&self, key: f64, measure: f64) -> Result<(), PolyFitError> {
        self.update(Update::Insert { key, measure })
    }

    /// Enqueue a delete of `measure` mass at `key`.
    pub fn delete(&self, key: f64, measure: f64) -> Result<(), PolyFitError> {
        self.update(Update::Delete { key, measure })
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// One shard's counters, read from its latest published snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardStats {
    /// Shard id.
    pub shard: u64,
    /// Updates applied so far.
    pub updates_applied: u64,
    /// Compaction swaps completed.
    pub rebuilds: u64,
    /// Snapshot publications.
    pub epoch: u64,
    /// Records owned (base + buffered).
    pub len: usize,
    /// Buffered deltas awaiting compaction.
    pub buffered: usize,
}

/// Server-wide counters plus the per-shard vector.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedStats {
    /// Per-shard stats in layout order.
    pub shards: Vec<ShardStats>,
    /// Routing-table version (increments per rebalance).
    pub layout_version: u64,
    /// Current shard bounds (`shards.len() - 1` keys).
    pub bounds: Vec<f64>,
    /// Completed shard splits.
    pub splits: u64,
    /// Completed shard merges.
    pub merges: u64,
    /// Retired snapshots still awaiting their grace period.
    pub limbo: usize,
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Shard-per-core serving engine over a partitioned
/// [`DynamicPolyFitSum`] fleet.
///
/// ```
/// use polyfit::prelude::*;
///
/// let records: Vec<Record> =
///     (0..4000).map(|i| Record::new(i as f64, 1.0)).collect();
/// let server = ShardedServer::start(
///     records,
///     10.0,
///     PolyFitConfig::default(),
///     ShardConfig { shards: 2, ..ShardConfig::default() },
/// )
/// .unwrap();
/// let handle = server.handle();
/// handle.insert(1234.5, 2.0).unwrap();
/// let served = handle.query_served(100.0, 3900.0); // spans both shards
/// assert!(!served.poisoned && served.shards.len() == 2);
/// server.shutdown();
/// ```
pub struct ShardedServer {
    shared: Arc<ServerShared>,
    reader: Reader,
}

impl ShardedServer {
    /// Partition `records` into `cfg.shards` contiguous key ranges,
    /// build one [`DynamicPolyFitSum`] per shard, and start a worker
    /// thread per shard. The config is validated/clamped first.
    pub fn start(
        records: Vec<Record>,
        delta: f64,
        config: PolyFitConfig,
        cfg: ShardConfig,
    ) -> Result<ShardedServer, PolyFitError> {
        Self::boot(records, delta, config, cfg, None).map_err(|e| match e {
            WalError::Build(e) => e,
            other => unreachable!("no WAL attached, only build errors possible: {other}"),
        })
    }

    /// [`Self::start`] with a durable write path: every shard journals
    /// its updates into log segments `<wal_dir>/shard-{id}[.<n>].wal`,
    /// and a checkpointer thread checkpoints a shard at every
    /// [`CHECKPOINT_EVERY`](crate::wal::CHECKPOINT_EVERY)-th compaction
    /// swap, off the shard's worker. Rebalance cutovers append to the
    /// layout log, and a worker group-fsyncs its window's appends before
    /// publishing the snapshot that holds them — every answer reflects
    /// only durable writes. Recover the whole server after a crash with
    /// [`Self::recover`].
    pub fn start_with_wal(
        records: Vec<Record>,
        delta: f64,
        config: PolyFitConfig,
        cfg: ShardConfig,
        wal_dir: &Path,
        policy: SyncPolicy,
    ) -> Result<ShardedServer, WalError> {
        Self::boot(records, delta, config, cfg, Some((wal_dir.to_path_buf(), policy)))
    }

    fn boot(
        mut records: Vec<Record>,
        delta: f64,
        config: PolyFitConfig,
        cfg: ShardConfig,
        wal: Option<(PathBuf, SyncPolicy)>,
    ) -> Result<ShardedServer, WalError> {
        let cfg = cfg.validated();
        validate_records(&records).map_err(WalError::Build)?;
        sort_records(&mut records);
        let mut records = dedup_sum(records);
        let n = records.len();
        let shards = cfg.shards.min(n);
        // Cut the sorted set into per-shard chunks from the back: each
        // chunk moves into its shard, and no full copy outlives the cut.
        let mut chunks = Vec::with_capacity(shards);
        for i in (1..shards).rev() {
            chunks.push(records.split_off(i * n / shards));
        }
        records.shrink_to_fit();
        chunks.push(records);
        chunks.reverse();
        let domain = Domain::new();
        let mut history = ShardedHistory::default();
        let mut rts = Vec::with_capacity(shards);
        let mut indexes = Vec::with_capacity(shards);
        let mut bounds = Vec::with_capacity(shards.saturating_sub(1));
        let checkpointer = wal.as_ref().map(|_| Checkpointer::start());
        for (i, chunk) in chunks.into_iter().enumerate() {
            if i + 1 < shards {
                bounds.push(chunk.last().expect("non-empty chunk").key);
            }
            let id = i as u64;
            if cfg.record_history {
                history.initial.push((id, chunk.clone()));
            }
            let mut index = DynamicPolyFitSum::from_sorted(
                chunk,
                BTreeMap::new(),
                delta,
                config,
                cfg.buffer_limit,
                &cfg.build,
            )
            .map_err(WalError::Build)?;
            index.set_step_budget(0);
            if let (Some((dir, policy)), Some(ck)) = (&wal, &checkpointer) {
                index.attach_wal(dir, &shard_wal_name(id), *policy, 0)?;
                index.attach_checkpointer(ck);
            }
            rts.push(ShardRt::new(&domain, id, &index, 0));
            indexes.push(index);
        }
        let wal = match (wal, checkpointer) {
            (Some((dir, policy)), Some(checkpointer)) => {
                let layout =
                    LayoutCheckpoint { ids: (0..shards as u64).collect(), bounds: bounds.clone() };
                let log = LayoutLog::create(&dir, &layout)?;
                Some(WalShared { dir, policy, layout: Mutex::new(log), checkpointer })
            }
            _ => None,
        };
        let shared = Arc::new(ServerShared {
            layout: Published::new(&domain, Layout { version: 1, bounds, shards: rts.clone() }),
            domain: Arc::clone(&domain),
            open: AtomicBool::new(true),
            rebalance: AtomicBool::new(false),
            next_id: AtomicU64::new(shards as u64),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
            history: Mutex::new(history),
            cfg,
            delta,
            config,
            wal,
        });
        {
            let mut threads = shared.threads.lock().expect("thread registry poisoned");
            for (rt, index) in rts.into_iter().zip(indexes) {
                threads.push(spawn_worker(&shared, rt, index, 0, 1));
            }
        }
        let reader = domain.reader();
        Ok(ShardedServer { shared, reader })
    }

    /// Crash recovery: rebuild the exact pre-crash server from
    /// `wal_dir`. The layout log replays the split/merge lineage to the
    /// routing table that was live at the crash, and is folded into a
    /// fresh layout checkpoint only when it replayed a rebalance (else
    /// appends continue in it); files of retired shards (their cutover
    /// record made the layout log before the crash) are removed. Each
    /// surviving shard then recovers from its own checkpoint and log
    /// segments, one shard after another, and resumes journaling in its
    /// newest segment ([`DynamicPolyFitSum::resume_wal`]) — no checkpoint
    /// is rewritten.
    /// Returns the running server plus per-shard recovery reports in
    /// layout order.
    pub fn recover(
        wal_dir: &Path,
        cfg: ShardConfig,
        policy: SyncPolicy,
    ) -> Result<(ShardedServer, Vec<(u64, RecoveryReport)>), WalError> {
        let cfg = cfg.validated();
        if !LayoutLog::exists(wal_dir) {
            // A missing directory — or one with no layout checkpoint —
            // is a usage error, not a torn crash state: name the path
            // instead of surfacing a raw `NotFound`.
            return Err(WalError::NoJournal(wal_dir.to_path_buf()));
        }
        let (log, layout_ckpt) = LayoutLog::resume(wal_dir)?;
        remove_orphan_segments(wal_dir, &layout_ckpt.ids);
        let checkpointer = Checkpointer::start();
        let domain = Domain::new();
        let mut rts = Vec::with_capacity(layout_ckpt.ids.len());
        let mut parts = Vec::with_capacity(layout_ckpt.ids.len());
        let mut reports = Vec::with_capacity(layout_ckpt.ids.len());
        let mut delta = 0.0;
        let mut config = PolyFitConfig::default();
        for (i, &id) in layout_ckpt.ids.iter().enumerate() {
            let name = shard_wal_name(id);
            let (mut index, report) = DynamicPolyFitSum::resume_wal(wal_dir, &name, policy)?;
            index.set_step_budget(0);
            index.attach_checkpointer(&checkpointer);
            if i == 0 {
                delta = index.delta();
                config = index.config();
            }
            let rt = ShardRt::new(&domain, id, &index, report.head_seq);
            rts.push(Arc::clone(&rt));
            parts.push((rt, index, report.head_seq));
            reports.push((id, report));
        }
        let next_id = layout_ckpt.ids.iter().copied().max().map_or(0, |m| m + 1);
        let shared = Arc::new(ServerShared {
            layout: Published::new(
                &domain,
                Layout { version: 1, bounds: layout_ckpt.bounds.clone(), shards: rts },
            ),
            domain: Arc::clone(&domain),
            open: AtomicBool::new(true),
            rebalance: AtomicBool::new(false),
            next_id: AtomicU64::new(next_id),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
            history: Mutex::new(ShardedHistory::default()),
            cfg,
            delta,
            config,
            wal: Some(WalShared {
                dir: wal_dir.to_path_buf(),
                policy,
                layout: Mutex::new(log),
                checkpointer,
            }),
        });
        {
            let mut threads = shared.threads.lock().expect("thread registry poisoned");
            for (rt, index, head) in parts {
                threads.push(spawn_worker(&shared, rt, index, head, 1));
            }
        }
        let reader = domain.reader();
        Ok((ShardedServer { shared, reader }, reports))
    }

    /// A new client endpoint (one epoch reader slot per handle).
    pub fn handle(&self) -> ShardHandle {
        ShardHandle::new(&self.shared)
    }

    /// Current counters and per-shard state.
    pub fn stats(&self) -> ShardedStats {
        let pin = self.reader.pin();
        let layout = self.shared.layout.load(&pin);
        let mut limbo = self.shared.layout.limbo_len();
        let mut shards = Vec::with_capacity(layout.shards.len());
        for rt in &layout.shards {
            limbo += rt.snap.limbo_len();
            let s = rt.snap.load(&pin);
            shards.push(ShardStats {
                shard: s.id,
                updates_applied: s.updates_applied,
                rebuilds: s.rebuilds,
                epoch: s.epoch,
                len: s.len,
                buffered: s.view.buffered(),
            });
        }
        ShardedStats {
            shards,
            layout_version: layout.version,
            bounds: layout.bounds.clone(),
            splits: self.shared.splits.load(Relaxed),
            merges: self.shared.merges.load(Relaxed),
            limbo,
        }
    }

    /// A clone of the recorded history (meaningful only with
    /// [`ShardConfig::record_history`]).
    pub fn history(&self) -> ShardedHistory {
        self.shared.history.lock().expect("history poisoned").clone()
    }

    /// A replay oracle over the recorded history. Requires
    /// [`ShardConfig::record_history`] to have been set.
    pub fn oracle(&self) -> ShardedOracle {
        ShardedOracle::new(
            self.history(),
            self.shared.delta,
            self.shared.config,
            self.shared.cfg.buffer_limit,
            self.shared.cfg.build,
        )
    }

    /// Stop accepting requests, apply and publish every queued write,
    /// join every worker (including rebalance-spawned ones), finish the
    /// checkpoints in flight (starting none), and return the final stats.
    /// Deferred reads resolve poisoned rather than hanging their clients.
    pub fn shutdown(self) -> ShardedStats {
        self.shared.open.store(false, SeqCst);
        loop {
            {
                let pin = self.reader.pin();
                let layout = self.shared.layout.load(&pin);
                for rt in &layout.shards {
                    rt.queue.close();
                    rt.wake_readers();
                }
            }
            let batch: Vec<JoinHandle<()>> = {
                let mut threads = self.shared.threads.lock().expect("thread registry poisoned");
                threads.drain(..).collect()
            };
            if batch.is_empty() {
                break;
            }
            for h in batch {
                // A panicked worker already fail-stopped the server;
                // shutdown stays tolerant so the remaining workers still
                // join.
                let _ = h.join();
            }
        }
        if let Some(w) = &self.shared.wal {
            w.checkpointer.shutdown();
        }
        self.stats()
    }
}

fn spawn_worker(
    shared: &Arc<ServerShared>,
    rt: Arc<ShardRt>,
    index: DynamicPolyFitSum,
    updates_applied: u64,
    epoch: u64,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let reader = shared.domain.reader();
    thread::spawn(move || {
        // Armed for the unwind path only: a worker that dies mid-batch
        // (injected panic, fail-stop `expect` on a dead log device) must
        // not leave its queue silently undrained — clients parked on
        // those requests would hang forever, and new submits would
        // re-route into the still-advertised dead shard. The guard
        // fail-stops the whole server: poisoned answers, never wrong
        // ones, never a hang.
        let guard = WorkerFailStop { shared: Arc::clone(&shared), rt: Arc::clone(&rt) };
        Worker {
            shared,
            reader,
            rt,
            index,
            updates_applied,
            epoch,
            popped: 0,
            published_at: Instant::now(),
            dirty: false,
            wal_dirty: false,
        }
        .run();
        drop(guard); // normal exit: `panicking()` is false, Drop is a no-op
    })
}

/// Worker-death fail-stop: on an unwinding worker thread, flip the
/// server closed (submits resolve poisoned, writes are refused instead
/// of re-routing into the dead shard forever), close and drain the dead
/// shard's queue, and wake the reads deferred on it — they resolve
/// poisoned (not missing, not wrong). Inert on normal exits.
struct WorkerFailStop {
    shared: Arc<ServerShared>,
    rt: Arc<ShardRt>,
}

impl Drop for WorkerFailStop {
    fn drop(&mut self) {
        if !thread::panicking() {
            return;
        }
        self.shared.open.store(false, SeqCst);
        self.rt.queue.close();
        while let Some(req) = self.rt.queue.pop() {
            drop(req);
        }
        self.rt.wake_readers();
        // A rebalance in flight dies with this worker; release the flag
        // so surviving workers are not wedged behind it at shutdown.
        self.shared.rebalance.store(false, SeqCst);
    }
}

/// Forward a recovered straggler update to `queue` and return its new
/// queue position, retrying while the rejection is transient (an
/// injected push failure) rather than a real close. A genuinely closed
/// target only happens under shutdown or worker-death fail-stop, where
/// dropping the unacked update is equivalent to a crash before its
/// append; the position is then `u64::MAX`, which is never published,
/// so a read waiting on it resolves poisoned.
fn forward_update(queue: &ShardQueue, u: Update) -> u64 {
    let mut req = Req::Update(u);
    loop {
        match queue.push(req) {
            Ok(pos) => return pos,
            Err(back) => {
                if queue.closed.load(SeqCst) {
                    return u64::MAX;
                }
                req = back;
                thread::yield_now();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The per-shard worker
// ---------------------------------------------------------------------------

enum Flow {
    Continue,
    /// The worker retired its shard (split executed or merge handed
    /// off); the thread exits.
    Exit,
}

struct Worker {
    shared: Arc<ServerShared>,
    reader: Reader,
    rt: Arc<ShardRt>,
    index: DynamicPolyFitSum,
    updates_applied: u64,
    /// Snapshot publication counter; the initial snapshot is epoch 1.
    epoch: u64,
    /// Requests taken from the current queue; once published, the
    /// shard's `published` position.
    popped: u64,
    /// When the current snapshot was published.
    published_at: Instant,
    /// Control-visible state changed since the last publication.
    dirty: bool,
    /// Journal appends not yet fenced to disk. The group-commit fsync
    /// runs right before a publish, so the windows since the last one
    /// share a fence and no reader ever sees an unfenced update.
    wal_dirty: bool,
}

impl Worker {
    fn run(mut self) {
        let _ = self.rt.queue.worker.set(thread::current());
        loop {
            // Size triggers are checked before waiting, so a shard born
            // oversized (a split child, a merge) rebalances without
            // waiting for a write.
            if let Flow::Exit = self.maybe_rebalance() {
                return;
            }
            if !self.wait_for_traffic() {
                break;
            }
            let batch = self.collect_window();
            self.process_batch(batch);
            self.commit();
            self.step_compaction_if_due();
        }
        // Closed and drained: fence any buffered journal appends and
        // publish the final state, so stats and snapshot reads stay
        // coherent after shutdown.
        self.maybe_publish();
    }

    /// Spin, then park until traffic arrives. While idle with a rebuild
    /// outstanding, spend bounded compaction budgets instead of
    /// sleeping. Returns `false` when the queue is closed and empty.
    fn wait_for_traffic(&mut self) -> bool {
        let mut spins = 0u32;
        loop {
            let queue = &self.rt.queue;
            if queue.len.load(SeqCst) > 0 {
                return true;
            }
            if queue.closed.load(SeqCst) {
                return queue.len.load(SeqCst) > 0;
            }
            if !self.shared.open.load(SeqCst) {
                // Shutdown is underway but this queue is still open: a
                // rebalance published it after shutdown's close sweep
                // read the layout (shutdown may already be blocked in
                // join() on this very thread and will never re-close).
                // Self-close so the drain-and-exit path runs instead of
                // parking forever.
                queue.close();
                continue;
            }
            if self.awaited() {
                self.maybe_publish();
                continue;
            }
            if self.step_compaction_if_due() {
                continue;
            }
            let queue = &self.rt.queue;
            if spins < self.shared.cfg.spin {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            queue.parked.store(true, SeqCst);
            if queue.len.load(SeqCst) > 0 || queue.closed.load(SeqCst) || self.awaited() {
                self.rt.queue.parked.store(false, SeqCst);
                continue;
            }
            thread::park_timeout(IDLE_POLL);
            self.rt.queue.parked.store(false, SeqCst);
            // Idle housekeeping: a park interval without a write publishes
            // what the last windows coalesced; reclaimable snapshots drain.
            if self.rt.queue.len.load(SeqCst) == 0 {
                self.maybe_publish();
            }
            self.rt.snap.try_reclaim();
            spins = 0;
        }
    }

    /// Pop up to `max_batch` writes into one window, which ends once a
    /// pop leaves the queue empty (no write is held for a timer), at
    /// `max_batch`, on close, or at the deadline while writes keep
    /// arriving. [`Self::commit`] decides which windows share a fence.
    fn collect_window(&mut self) -> Vec<Req> {
        let cfg = &self.shared.cfg;
        let queue = &self.rt.queue;
        // Failpoint: this window ignores `max_batch` and drains the
        // queue. Answers must not depend on batch geometry.
        let max_batch = if crate::failpoint::triggered("shard.batch.oversize") {
            usize::MAX
        } else {
            cfg.max_batch
        };
        let mut out = Vec::new();
        let opened = Instant::now();
        loop {
            self.popped += queue.pop_many(max_batch - out.len(), &mut out) as u64;
            if out.len() >= max_batch
                || queue.len.load(SeqCst) == 0
                || queue.closed.load(SeqCst)
                || opened.elapsed() >= cfg.deadline
            {
                return out;
            }
        }
    }

    /// Apply a window of writes (the caller fences and publishes them);
    /// a merge handoff in the window is absorbed after them.
    fn process_batch(&mut self, batch: Vec<Req>) {
        if batch.is_empty() {
            return;
        }
        // Failpoint: worker death (or a stall) with a drained batch in
        // hand, nothing of it applied or journaled. A panic fail-stops
        // the server through the `WorkerFailStop` guard; recovery
        // replays the synced prefix.
        crate::failpoint::hit("shard.worker.panic");
        let mut handoff: Option<Box<MergeHandoff>> = None;
        let mut updates: Vec<Update> = Vec::with_capacity(batch.len());
        for req in batch {
            match req {
                Req::Update(u) => updates.push(u),
                Req::Merge(h) => handoff = Some(h),
            }
        }
        if !updates.is_empty() {
            // One journaled batch: the records are framed back to back,
            // then folded in order — the same state as one insert/delete
            // each.
            self.index
                .apply_updates(updates.iter().copied())
                .expect("updates are validated finite at the handle");
            self.updates_applied += updates.len() as u64;
            self.dirty = true;
            self.wal_dirty = true;
            if self.shared.cfg.record_history {
                let mut hist = self.shared.history.lock().expect("history poisoned");
                hist.logs.entry(self.rt.id).or_default().updates.extend(updates);
            }
        }
        if let Some(h) = handoff {
            self.absorb(*h);
        }
    }

    /// Group commit: fence and publish the writes applied so far — one
    /// fsync and one snapshot for all of them — when this window reached
    /// a write a deferred read waits on, or the published state is
    /// [`PUBLISH_LAG`] old. Otherwise the next window joins the fence,
    /// until a read's write is reached, a compaction step is due, or the
    /// shard idles for a park interval (see [`Self::wait_for_traffic`]).
    fn commit(&mut self) {
        let due = self.awaited() || self.published_at.elapsed() >= PUBLISH_LAG;
        // Failpoint: withhold a due publish. `dirty` and `wal_dirty` stay
        // set, so a later boundary — a due window, the idle loop (at once
        // for a waiting read), a compaction step, rebalance or shutdown —
        // fences and publishes: injection can delay a publish, never
        // elide it.
        if due && !(self.wal_dirty && crate::failpoint::triggered("shard.fence.skip")) {
            self.maybe_publish();
        }
    }

    /// A deferred read waits on a write this shard has applied but not
    /// yet published.
    fn awaited(&self) -> bool {
        let want = self.rt.awaited.load(SeqCst);
        self.dirty && want <= self.popped && want > self.rt.published.load(SeqCst)
    }

    fn make_snap(&self) -> ShardSnap {
        ShardSnap {
            view: self.index.snapshot(),
            id: self.rt.id,
            updates_applied: self.updates_applied,
            rebuilds: self.index.rebuilds() as u64,
            epoch: self.epoch,
            len: self.index.base_len() + self.index.buffered(),
        }
    }

    /// Publish the current state if it changed since the last
    /// publication — one pointer swap, wait-free for readers — then wake
    /// the reads deferred on it. Only durable state is published: the
    /// fence covering every applied update comes first. Fail-stop on a
    /// dead log device — the worker dies before any reader can see
    /// state the journal does not hold.
    fn maybe_publish(&mut self) {
        if !self.dirty {
            return;
        }
        self.wal_fence();
        self.epoch += 1;
        self.rt.snap.publish(self.make_snap());
        self.rt.published.store(self.popped, SeqCst);
        self.published_at = Instant::now();
        self.dirty = false;
        self.rt.wake_readers();
    }

    /// One bounded compaction step when a rebuild is due or running
    /// (loop-driven compaction on). A step can take milliseconds, so
    /// whatever the shard holds unpublished is published first — no
    /// reader waits behind compaction. Returns whether a step ran.
    fn step_compaction_if_due(&mut self) -> bool {
        if self.shared.cfg.compaction_budget == 0
            || !(self.index.is_compacting() || self.index.needs_compaction())
        {
            return false;
        }
        self.maybe_publish();
        self.step_idle_compaction();
        true
    }

    /// Stage if needed (recording the per-shard provenance point), then
    /// drive one bounded compaction step.
    fn step_idle_compaction(&mut self) {
        let before = self.index.rebuilds();
        if self.index.needs_compaction()
            && self.index.begin_compaction()
            && self.shared.cfg.record_history
        {
            let mut hist = self.shared.history.lock().expect("history poisoned");
            hist.logs.entry(self.rt.id).or_default().stage_points.push(self.updates_applied);
        }
        if self.index.is_compacting() {
            self.index.step_compaction(self.shared.cfg.compaction_budget);
        }
        self.note_swap(before);
    }

    /// After a compaction that may have swapped: a swap changed the
    /// published state and journaled a record the next publish fences.
    fn note_swap(&mut self, rebuilds_before: usize) {
        if self.index.rebuilds() != rebuilds_before {
            self.dirty = true;
            self.wal_dirty = true;
        }
    }

    /// Complete any in-flight rebuild (its staging was already
    /// recorded), leaving the index split/merge-ready.
    fn finish_pending_compaction(&mut self) {
        if self.index.is_compacting() {
            let before = self.index.rebuilds();
            self.index.compact_now();
            self.note_swap(before);
        }
    }

    /// Pop-and-process until the queue is momentarily empty, so the
    /// shard's log is complete before a rebalance freezes it.
    fn drain_queue_fully(&mut self) {
        loop {
            let mut batch = Vec::new();
            self.popped += self.rt.queue.pop_many(usize::MAX, &mut batch) as u64;
            if batch.is_empty() {
                return;
            }
            self.process_batch(batch);
        }
    }

    /// Check the size triggers and run at most one rebalance. Rebalances
    /// are serialized server-wide by the `rebalance` flag.
    fn maybe_rebalance(&mut self) -> Flow {
        let cfg = &self.shared.cfg;
        if !self.shared.open.load(SeqCst) {
            return Flow::Continue;
        }
        let len = self.index.base_len() + self.index.buffered();
        let want_split = cfg.split_threshold > 0
            && len > cfg.split_threshold
            && self.index.split_key().is_some();
        let want_merge = cfg.merge_threshold > 0 && len < cfg.merge_threshold;
        if !want_split && !want_merge {
            return Flow::Continue;
        }
        {
            let pin = self.reader.pin();
            let layout = self.shared.layout.load(&pin);
            if want_split && layout.shards.len() >= cfg.max_shards {
                return Flow::Continue;
            }
            if want_merge && layout.shards.len() <= 1 {
                return Flow::Continue;
            }
        }
        if self.shared.rebalance.compare_exchange(false, true, SeqCst, SeqCst).is_err() {
            return Flow::Continue;
        }
        if want_split {
            self.do_split()
        } else {
            self.do_merge()
        }
    }

    /// Split this shard at its median base key: drain, finish any
    /// rebuild, build both children fresh (deterministic — the oracle
    /// re-derives them the same way), publish the new layout, close the
    /// old queue, and forward the stragglers.
    fn do_split(&mut self) -> Flow {
        self.drain_queue_fully();
        self.finish_pending_compaction();
        // Fence before the cutover: the crash-ordering argument below
        // assumes the parent's journal covers everything it drained.
        self.wal_fence();
        self.maybe_publish();
        let Some(key) = self.index.split_key() else {
            self.shared.rebalance.store(false, SeqCst);
            return Flow::Continue;
        };
        let (mut li, mut ri) = match self.index.split_at(key) {
            Ok(pair) => pair,
            Err(_) => {
                self.shared.rebalance.store(false, SeqCst);
                return Flow::Continue;
            }
        };
        let (lid, rid) = (self.shared.mint_id(), self.shared.mint_id());
        if self.shared.cfg.record_history {
            let mut hist = self.shared.history.lock().expect("history poisoned");
            hist.rebalances.push(RebalanceRecord::Split {
                parent: self.rt.id,
                key,
                left: lid,
                right: rid,
            });
        }
        if let Some(w) = &self.shared.wal {
            // Durable cutover, in commit order: both children checkpoint
            // first (attach writes `shard-{child}.ckpt` + a fresh log),
            // THEN the split record lands in the layout log. A crash
            // before the record recovers the intact parent (the children
            // files are orphans); a crash after it recovers the children.
            // Only then do the parent's segments become garbage.
            for (child, id) in [(&mut li, lid), (&mut ri, rid)] {
                child
                    .attach_wal(&w.dir, &shard_wal_name(id), w.policy, 0)
                    .expect("wal attach for split child failed (fail-stop)");
                child.attach_checkpointer(&w.checkpointer);
            }
            w.layout
                .lock()
                .expect("layout log poisoned")
                .append_sync(&WalRecord::SplitAt { parent: self.rt.id, key, left: lid, right: rid })
                .expect("layout split record failed (fail-stop)");
            let _ = self.index.detach_wal();
            Journal::remove_files(&w.dir, &shard_wal_name(self.rt.id));
        }
        let domain = &self.shared.domain;
        let (lrt, rrt) = (ShardRt::new(domain, lid, &li, 0), ShardRt::new(domain, rid, &ri, 0));
        {
            let pin = self.reader.pin();
            let cur = self.shared.layout.load(&pin);
            let pos = cur.position_of(self.rt.id).expect("splitting shard is in the layout");
            let mut shards = cur.shards.clone();
            let mut bounds = cur.bounds.clone();
            shards.splice(pos..=pos, [Arc::clone(&lrt), Arc::clone(&rrt)]);
            bounds.insert(pos, key);
            let version = cur.version + 1;
            drop(pin);
            // Failpoint: the durable cutover record is on disk but the
            // new layout is not yet visible — a delay here stretches the
            // window where queries still route to the parent; a panic
            // here must recover to the children (the record won).
            crate::failpoint::hit("shard.split.pre_publish");
            self.shared.layout.publish(Layout { version, bounds, shards });
        }
        self.rt.queue.close();
        // Failpoint: the parent's queue just closed but its stragglers
        // are not yet forwarded — racing submits bounce off the closed
        // queue and must re-route to the children losslessly.
        crate::failpoint::hit("shard.split.post_close");
        // Stragglers that raced the close forward to the owning child
        // (its worker logs them on application). The parent then names
        // both children with the positions its stragglers landed at, so
        // a handle's read waits for its own straggler on the child.
        let (mut lpos, mut rpos) = (0, 0);
        while let Some(req) = self.rt.queue.pop() {
            match req {
                Req::Update(u) if u.key() <= key => lpos = lpos.max(forward_update(&lrt.queue, u)),
                Req::Update(u) => rpos = rpos.max(forward_update(&rrt.queue, u)),
                Req::Merge(_) => unreachable!("rebalances are serialized"),
            }
        }
        self.rt.retire(vec![
            Pending { rt: Arc::clone(&lrt), pos: lpos },
            Pending { rt: Arc::clone(&rrt), pos: rpos },
        ]);
        {
            let mut threads = self.shared.threads.lock().expect("thread registry poisoned");
            threads.push(spawn_worker(&self.shared, lrt, li, 0, 1));
            threads.push(spawn_worker(&self.shared, rrt, ri, 0, 1));
        }
        self.shared.splits.fetch_add(1, Relaxed);
        self.shared.rebalance.store(false, SeqCst);
        Flow::Exit
    }

    /// Hand this (undersized) shard to its neighbour: drain, freeze,
    /// close the queue, and mail the whole state. The neighbour executes
    /// the merge and releases the rebalance flag.
    fn do_merge(&mut self) -> Flow {
        let (neighbour, from_right) = {
            let pin = self.reader.pin();
            let cur = self.shared.layout.load(&pin);
            let Some(pos) = cur.position_of(self.rt.id) else {
                self.shared.rebalance.store(false, SeqCst);
                return Flow::Continue;
            };
            if cur.shards.len() <= 1 {
                self.shared.rebalance.store(false, SeqCst);
                return Flow::Continue;
            }
            if pos > 0 {
                (Arc::clone(&cur.shards[pos - 1]), true)
            } else {
                (Arc::clone(&cur.shards[1]), false)
            }
        };
        self.drain_queue_fully();
        self.finish_pending_compaction();
        // Fence before the handoff: `absorb` relies on both inputs'
        // journals covering their drained queues.
        self.wal_fence();
        self.maybe_publish();
        self.rt.queue.close();
        let handoff = Box::new(MergeHandoff {
            id: self.rt.id,
            from_right,
            index: Box::new(self.index.clone()),
            rt: Arc::clone(&self.rt),
        });
        // Failpoint: the retiring shard is frozen, fenced, and closed,
        // but the handoff has not reached the neighbour — a panic here
        // loses only in-memory state the journal already covers; a delay
        // races writes against the closed queue.
        crate::failpoint::hit("shard.merge.handoff");
        let mut req = Req::Merge(handoff);
        loop {
            match neighbour.queue.push(req) {
                Ok(_) => return Flow::Exit,
                Err(back) => {
                    if !neighbour.queue.closed.load(SeqCst) {
                        // Injected transient push failure: the neighbour
                        // is alive, so retry until the handoff lands.
                        req = back;
                        thread::yield_now();
                        continue;
                    }
                    // The neighbour's queue genuinely closed under us —
                    // only shutdown (or worker-death fail-stop) does
                    // that while we hold the rebalance flag. Apply our
                    // own stragglers and exit.
                    self.shared.rebalance.store(false, SeqCst);
                    self.drain_closed_leftovers();
                    return Flow::Exit;
                }
            }
        }
    }

    /// Push any deferred journal appends to disk. Cheap when clean; a
    /// no-op without an attached journal.
    fn wal_fence(&mut self) {
        if self.wal_dirty {
            self.index.wal_sync().expect("wal sync failed (fail-stop)");
            self.wal_dirty = false;
        }
    }

    /// Apply and publish whatever raced into the closed queue before
    /// exit.
    fn drain_closed_leftovers(&mut self) {
        let mut batch = Vec::new();
        while let Some(r) = self.rt.queue.pop() {
            self.popped += 1;
            batch.push(r);
        }
        self.process_batch(batch);
        self.maybe_publish();
    }

    /// Execute a merge handed off by the neighbour: build the merged
    /// index, publish the new layout, and adopt both old queues. Runs on
    /// the receiving worker's thread, which continues as the merged
    /// shard's worker.
    fn absorb(&mut self, h: MergeHandoff) {
        self.finish_pending_compaction();
        self.maybe_publish();
        let (left_id, right_id) =
            if h.from_right { (self.rt.id, h.id) } else { (h.id, self.rt.id) };
        let mut merged = if h.from_right {
            self.index.merge_with(&h.index)
        } else {
            h.index.merge_with(&self.index)
        }
        .expect("adjacent shards merge cleanly");
        let mid = self.shared.mint_id();
        if self.shared.cfg.record_history {
            let mut hist = self.shared.history.lock().expect("history poisoned");
            hist.rebalances.push(RebalanceRecord::Merge {
                left: left_id,
                right: right_id,
                merged: mid,
            });
        }
        if let Some(w) = &self.shared.wal {
            // Durable cutover, mirroring `do_split`: the merged shard's
            // checkpoint lands before the merge record, so recovery on
            // either side of the record sees a complete set of segments
            // (both inputs' journals were synced when their queues
            // drained). The inputs' segments become garbage afterwards.
            merged
                .attach_wal(&w.dir, &shard_wal_name(mid), w.policy, 0)
                .expect("wal attach for merged shard failed (fail-stop)");
            merged.attach_checkpointer(&w.checkpointer);
            w.layout
                .lock()
                .expect("layout log poisoned")
                .append_sync(&WalRecord::Merge { left: left_id, right: right_id, merged: mid })
                .expect("layout merge record failed (fail-stop)");
            let _ = self.index.detach_wal();
            Journal::remove_files(&w.dir, &shard_wal_name(left_id));
            Journal::remove_files(&w.dir, &shard_wal_name(right_id));
        }
        let new_rt = ShardRt::new(&self.shared.domain, mid, &merged, 0);
        let _ = new_rt.queue.worker.set(thread::current());
        {
            let pin = self.reader.pin();
            let cur = self.shared.layout.load(&pin);
            let p = cur.position_of(self.rt.id).expect("receiver is in the layout");
            let q = cur.position_of(h.id).expect("sender is in the layout");
            let lo_pos = p.min(q);
            let mut shards = cur.shards.clone();
            let mut bounds = cur.bounds.clone();
            shards.splice(lo_pos..=lo_pos + 1, [Arc::clone(&new_rt)]);
            bounds.remove(lo_pos);
            let version = cur.version + 1;
            drop(pin);
            self.shared.layout.publish(Layout { version, bounds, shards });
        }
        self.rt.queue.close();
        // Adopt stragglers from both retired queues: they re-queue on the
        // merged shard (logged on application, key-disjoint across the
        // two sources), and each retired shard names the merged one with
        // the position its last straggler landed at.
        for old in [&self.rt, &h.rt] {
            let mut pos = 0;
            while let Some(req) = old.queue.pop() {
                match req {
                    Req::Update(u) => pos = pos.max(forward_update(&new_rt.queue, u)),
                    Req::Merge(_) => unreachable!("rebalances are serialized"),
                }
            }
            old.retire(vec![Pending { rt: Arc::clone(&new_rt), pos }]);
        }
        self.rt = new_rt;
        self.index = merged;
        self.index.set_step_budget(0);
        self.updates_applied = 0;
        self.epoch = 1;
        self.popped = 0;
        self.dirty = false;
        self.shared.merges.fetch_add(1, Relaxed);
        self.shared.rebalance.store(false, SeqCst);
        // Shutdown may have swept the previous layout's queues while the
        // merge handoff was queued; it is then blocked joining this very
        // thread and will never close the queue published above. Close
        // it ourselves (after the straggler re-queues land) so the run
        // loop drains the remainder and exits.
        if !self.shared.open.load(SeqCst) {
            self.rt.queue.close();
        }
    }
}

// ---------------------------------------------------------------------------
// The replay oracle
// ---------------------------------------------------------------------------

/// Offline replay of a recorded sharded serving session. For any
/// [`ShardPoint`] it reconstructs the shard's index state bit-for-bit
/// (PR 3's stepped == blocking compaction determinism, plus
/// deterministic [`DynamicPolyFitSum::split_at`]/
/// [`DynamicPolyFitSum::merge_with`] for the lineage), re-runs the
/// clipped sub-queries, and composes them in the served order — the
/// ground truth every sharded answer is held bitwise-equal to.
pub struct ShardedOracle {
    delta: f64,
    config: PolyFitConfig,
    buffer_limit: usize,
    build: BuildOptions,
    history: ShardedHistory,
}

impl ShardedOracle {
    /// Build an oracle from a recorded history and the server's build
    /// parameters (which must match [`ShardedServer::start`]'s).
    pub fn new(
        history: ShardedHistory,
        delta: f64,
        config: PolyFitConfig,
        buffer_limit: usize,
        build: BuildOptions,
    ) -> ShardedOracle {
        ShardedOracle { delta, config, buffer_limit, build, history }
    }

    /// The recorded history backing this oracle.
    pub fn history(&self) -> &ShardedHistory {
        &self.history
    }

    fn apply(idx: &mut DynamicPolyFitSum, updates: &[Update]) {
        for &u in updates {
            match u {
                Update::Insert { key, measure } => idx.insert(key, measure),
                Update::Delete { key, measure } => idx.delete(key, measure),
            }
        }
    }

    /// A shard's starting state: its initial build, or its
    /// split/merge-derived lineage.
    fn origin_index(&self, shard: u64) -> DynamicPolyFitSum {
        if let Some((_, records)) = self.history.initial.iter().find(|(id, _)| *id == shard) {
            let mut idx = DynamicPolyFitSum::with_options(
                records.clone(),
                self.delta,
                self.config,
                self.buffer_limit,
                &self.build,
            )
            .expect("initial shard records rebuild");
            idx.set_step_budget(0);
            return idx;
        }
        for r in &self.history.rebalances {
            match *r {
                RebalanceRecord::Split { parent, key, left, right }
                    if left == shard || right == shard =>
                {
                    let p = self.final_index(parent);
                    let (l, rgt) = p.split_at(key).expect("recorded split replays");
                    return if left == shard { l } else { rgt };
                }
                RebalanceRecord::Merge { left, right, merged } if merged == shard => {
                    let l = self.final_index(left);
                    let rgt = self.final_index(right);
                    return l.merge_with(&rgt).expect("recorded merge replays");
                }
                _ => {}
            }
        }
        panic!("shard {shard} is not in the recorded history");
    }

    /// A retired shard's final state: full log applied, every staged
    /// compaction completed (the worker finishes any pending rebuild
    /// before retiring a shard).
    fn final_index(&self, shard: u64) -> DynamicPolyFitSum {
        let (updates, stages) = self
            .history
            .logs
            .get(&shard)
            .map(|l| (l.updates.len() as u64, l.stage_points.len() as u64))
            .unwrap_or((0, 0));
        self.index_at(shard, updates, stages)
    }

    /// Reconstruct shard `shard`'s exact index state at provenance
    /// `(updates, rebuilds)`: replay the update prefix, staging at the
    /// recorded points and completing the first `rebuilds` of them
    /// (blocking — bitwise-equal to the worker's stepped execution; a
    /// staged-but-unswapped rebuild is bitwise-transparent and skipped).
    pub fn index_at(&self, shard: u64, updates: u64, rebuilds: u64) -> DynamicPolyFitSum {
        let mut idx = self.origin_index(shard);
        let empty = ShardLog::default();
        let log = self.history.logs.get(&shard).unwrap_or(&empty);
        let stages: Vec<u64> = log.stage_points.iter().copied().filter(|&p| p <= updates).collect();
        let mut pos = 0usize;
        for &p in stages.iter().take(rebuilds as usize) {
            Self::apply(&mut idx, &log.updates[pos..p as usize]);
            assert!(idx.begin_compaction(), "recorded stage point must have work");
            idx.compact_now();
            pos = p as usize;
        }
        Self::apply(&mut idx, &log.updates[pos..updates as usize]);
        idx
    }

    /// Recompute the answer a [`ShardServed`] should carry: replay every
    /// shard to its provenance point, re-run the clipped sub-query, and
    /// compose in the served order.
    pub fn expected(&self, served: &ShardServed) -> Option<RangeAggregate> {
        if served.poisoned {
            return None;
        }
        if served.shards.is_empty() {
            // Degenerate bounds were answered inline from the contract,
            // independent of any shard state.
            return served.answer;
        }
        let bound = 2.0 * self.delta;
        let mut agg: Option<RangeAggregate> = None;
        for p in &served.shards {
            let idx = self.index_at(p.shard, p.updates_applied, p.rebuilds);
            let part = RangeAggregate::absolute(idx.query(p.lo, p.hi), bound);
            agg = Some(match agg {
                None => part,
                Some(acc) => acc.merge_sum(part),
            });
        }
        agg
    }

    /// `true` when the served answer is bitwise-identical to the replay.
    pub fn matches(&self, served: &ShardServed) -> bool {
        self.expected(served).map(|a| a.value.to_bits())
            == served.answer.as_ref().map(|a| a.value.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::new(i as f64 * 0.5, 1.0 + (i % 4) as f64)).collect()
    }

    fn capped() -> PolyFitConfig {
        PolyFitConfig { max_segment_len: Some(128), ..PolyFitConfig::default() }
    }

    fn recording_config(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            record_history: true,
            deadline: Duration::from_micros(50),
            max_batch: 16,
            buffer_limit: 24,
            compaction_budget: 64,
            ..ShardConfig::default()
        }
    }

    /// Poll the stats (bounded) until `done` holds on two reads 5 ms
    /// apart with the same layout — a window applied just before the
    /// first read is published (or rebalanced) by the second. Splits and
    /// merges run on worker threads after the window that triggered
    /// them, and reads do not queue behind them, so a test that inspects
    /// the layout waits for the rebalance it expects.
    fn wait_for(server: &ShardedServer, done: impl Fn(&ShardedStats) -> bool) -> ShardedStats {
        let start = Instant::now();
        loop {
            let first = server.stats();
            thread::sleep(Duration::from_millis(5));
            let stats = server.stats();
            let stable = done(&first) && stats.layout_version == first.layout_version;
            if (stable && done(&stats)) || start.elapsed() > Duration::from_secs(20) {
                return stats;
            }
        }
    }

    #[test]
    fn config_validation_clamps_degenerate_values() {
        let cfg = ShardConfig {
            shards: 0,
            max_batch: 0,
            deadline: Duration::from_secs(3600),
            max_shards: 0,
            ..ShardConfig::default()
        }
        .validated();
        assert_eq!(cfg.shards, 1);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.max_shards, 1);
        assert!(cfg.deadline <= MAX_DEADLINE);
    }

    #[test]
    fn degenerate_config_still_serves() {
        let server = ShardedServer::start(
            records(500),
            8.0,
            capped(),
            ShardConfig { shards: 2, max_batch: 0, deadline: Duration::ZERO, ..Default::default() },
        )
        .unwrap();
        let handle = server.handle();
        for i in 0..32 {
            let served = handle.query_served(i as f64, 200.0);
            assert!(!served.poisoned && served.answer.is_some(), "query {i}");
        }
        server.shutdown();
    }

    #[test]
    fn a_windows_writes_share_one_fence() {
        // One shard: writes submitted back-to-back land in one window or
        // several, but nothing publishes them before the read asks, so
        // one fence and one publish cover them all however many windows
        // carry them.
        let dir = wal_dir("one-fence");
        let server = ShardedServer::start_with_wal(
            records(1000),
            10.0,
            capped(),
            ShardConfig {
                deadline: Duration::from_millis(100),
                max_batch: 64,
                ..Default::default()
            },
            &dir,
            SyncPolicy::Batch,
        )
        .unwrap();
        let handle = server.handle();
        for i in 0..64 {
            handle.insert(i as f64 * 7.25 + 0.1, 1.0).unwrap();
        }
        // Read-your-writes: this read waits for the window's publish.
        let served = handle.query_served(0.0, 450.0);
        assert!(!served.poisoned);
        let point = served.shards[0];
        assert_eq!(point.updates_applied, 64, "the read reflects every write");
        assert_eq!(point.epoch, 2, "one publish after the initial snapshot covers the window");
        let direct = handle.snapshot_query(0.0, 450.0);
        assert_eq!(served.value().map(f64::to_bits), direct.value().map(f64::to_bits));
        let stats = server.shutdown();
        assert_eq!(stats.shards[0].epoch, 2, "no further publish, so no further fence");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_read_behind_a_backlog_costs_one_fence() {
        // Small windows and a burst of writes leave windows queued when
        // the writer reads. The read asks for the window that reaches its
        // last write, so the windows before it join that one fence rather
        // than each publishing and fencing while the read waits.
        let dir = wal_dir("backlog-fence");
        let server = ShardedServer::start_with_wal(
            records(1000),
            10.0,
            capped(),
            ShardConfig { max_batch: 8, compaction_budget: 0, ..Default::default() },
            &dir,
            SyncPolicy::Batch,
        )
        .unwrap();
        let handle = server.handle();
        let t0 = Instant::now();
        for i in 0..4096 {
            handle.insert((i % 997) as f64 + 0.25, 1.0).unwrap();
        }
        let served = handle.query_served(0.0, 1000.0);
        let elapsed_ms = t0.elapsed().as_millis() as u64;
        let point = served.shards[0];
        assert_eq!(point.updates_applied, 4096, "the read reflects every write");
        // Besides the read's own, only the staleness bound (one per
        // PUBLISH_LAG) and idle parks (one per IDLE_POLL) publish.
        let publishes = point.epoch - 1;
        assert!(
            publishes <= 2 + elapsed_ms,
            "{publishes} publishes (each a fence) in {elapsed_ms} ms for one read"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_read_of_a_lone_write_waits_for_its_fence_not_the_deadline() {
        // A window ends when a pop leaves the queue empty, so a read that
        // follows its handle's only queued write waits for one fence and
        // publish, not for the write's window to run out its deadline.
        let dir = wal_dir("lone-write");
        let deadline = MAX_DEADLINE;
        let server = ShardedServer::start_with_wal(
            records(1000),
            10.0,
            capped(),
            ShardConfig { deadline, ..Default::default() },
            &dir,
            SyncPolicy::Batch,
        )
        .unwrap();
        let handle = server.handle();
        for i in 0..5u64 {
            let key = i as f64 * 50.0 + 0.1;
            handle.insert(key, 1.0).unwrap();
            let t0 = Instant::now();
            let served = handle.query_served(key - 1.0, key + 1.0);
            let waited = t0.elapsed();
            assert!(!served.poisoned, "read {i}");
            assert_eq!(served.shards[0].updates_applied, i + 1, "read {i} reflects its write");
            assert!(
                waited < deadline / 2,
                "read {i} waited {waited:?} under a {deadline:?} deadline"
            );
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes submitted by one handle, grouped by the shard position
    /// that owns their key under fixed `bounds`.
    fn routed_counts(keys: &[f64], bounds: &[f64]) -> Vec<u64> {
        let mut counts = vec![0u64; bounds.len() + 1];
        for &k in keys {
            counts[bounds.partition_point(|&b| b < k)] += 1;
        }
        counts
    }

    #[test]
    fn reads_see_the_handles_own_writes() {
        for shards in [1, 2] {
            // A write stays unpublished until a read asks for it (short
            // of a compaction step, an idle park or the lag bound), so
            // the writer's next read is usually deferred behind it.
            let cfg = ShardConfig {
                shards,
                deadline: Duration::from_millis(2),
                ..recording_config(shards)
            };
            let server = ShardedServer::start(records(800), 8.0, capped(), cfg).unwrap();
            let bounds = server.stats().bounds;
            let writer = server.handle();
            let reader = server.handle();
            let mut keys = Vec::new();
            let mut deferred = 0;
            for i in 0..60 {
                let key = (i * 37 % 400) as f64 + 0.25;
                writer.insert(key, 2.0).unwrap();
                keys.push(key);
                // A handle with no writes of its own never waits.
                assert!(matches!(reader.submit(-10.0, 500.0).0, Ticket::Ready(_)));
                let ticket = writer.submit(-10.0, 500.0);
                deferred += usize::from(matches!(ticket.0, Ticket::Deferred(_)));
                let served = ticket.wait();
                assert!(!served.poisoned, "{shards} shards, read {i}");
                let counts = routed_counts(&keys, &bounds);
                for p in &served.shards {
                    assert_eq!(
                        p.updates_applied, counts[p.shard as usize],
                        "{shards} shards, read {i}: shard {} must reflect the handle's writes",
                        p.shard
                    );
                }
            }
            assert!(deferred > 0, "{shards} shards: some read must have waited for its writes");
            server.shutdown();
        }
    }

    #[test]
    fn non_finite_records_are_a_typed_error() {
        for (bad, at) in [(Record::new(f64::NAN, 1.0), 5), (Record::new(2.0, f64::INFINITY), 9)] {
            let mut recs = records(40);
            recs[at] = bad;
            let cfg = ShardConfig { shards: 2, ..Default::default() };
            assert_eq!(
                ShardedServer::start(recs.clone(), 5.0, capped(), cfg).err(),
                Some(PolyFitError::NonFiniteData { index: at })
            );
            let dir = wal_dir("non-finite");
            match ShardedServer::start_with_wal(recs, 5.0, capped(), cfg, &dir, SyncPolicy::Batch) {
                Err(WalError::Build(e)) => assert_eq!(e, PolyFitError::NonFiniteData { index: at }),
                Err(other) => panic!("expected a build error, got {other}"),
                Ok(_) => panic!("non-finite records must not start a server"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn handle_rejects_non_finite_updates_eagerly() {
        let server = ShardedServer::start(records(200), 5.0, capped(), Default::default()).unwrap();
        let handle = server.handle();
        assert!(handle.insert(f64::NAN, 1.0).is_err());
        assert!(handle.delete(1.0, f64::INFINITY).is_err());
        assert!(handle.insert(1.25, 2.0).is_ok());
        assert!(handle.query(0.0, 50.0).is_some());
        let stats = server.shutdown();
        assert_eq!(stats.shards[0].updates_applied, 1, "rejected updates never reach a worker");
        assert_eq!(stats.shards[0].buffered, 1, "only the finite update may land");
    }

    #[test]
    fn point_and_spanning_queries_compose_the_per_shard_answers() {
        let recs = records(2000);
        let server =
            ShardedServer::start(recs.clone(), 10.0, capped(), recording_config(4)).unwrap();
        let handle = server.handle();
        // A query inside one shard routes to exactly one; a full-domain
        // query touches all four.
        let one = handle.query_served(10.0, 100.0);
        assert_eq!(one.shards.len(), 1);
        let all = handle.query_served(-10.0, 2000.0);
        assert_eq!(all.shards.len(), 4);
        // The composed value is the in-order fold of the sub-values.
        let mut acc: Option<RangeAggregate> = None;
        let oracle = server.oracle();
        for p in &all.shards {
            let idx = oracle.index_at(p.shard, p.updates_applied, p.rebuilds);
            let part = RangeAggregate::absolute(idx.query(p.lo, p.hi), 20.0);
            acc = Some(match acc {
                None => part,
                Some(a) => a.merge_sum(part),
            });
        }
        assert_eq!(all.answer.as_ref().map(|a| a.value.to_bits()), acc.map(|a| a.value.to_bits()));
        assert!(oracle.matches(&one) && oracle.matches(&all));
        server.shutdown();
    }

    #[test]
    fn degenerate_bounds_answer_inline() {
        let server = ShardedServer::start(records(400), 5.0, capped(), Default::default()).unwrap();
        let handle = server.handle();
        let nan = handle.query_served(f64::NAN, 10.0);
        assert_eq!(nan.answer, None);
        assert!(!nan.poisoned && nan.shards.is_empty());
        let rev = handle.query_served(100.0, 5.0);
        assert_eq!(rev.value(), Some(0.0));
        server.shutdown();
    }

    #[test]
    fn updates_route_to_the_owning_shard_and_replay() {
        let server =
            ShardedServer::start(records(1200), 8.0, capped(), recording_config(3)).unwrap();
        let handle = server.handle();
        let oracle_probe = (0..60).map(|i| (i as f64 * 9.0, i as f64 * 9.0 + 140.0));
        for i in 0..150 {
            handle.insert(3.25 + (i % 90) as f64 * 6.5, 2.0).unwrap();
            if i % 3 == 0 {
                let (lo, hi) = (i as f64 * 3.0, i as f64 * 3.0 + 320.0);
                let served = handle.query_served(lo, hi);
                assert!(!served.poisoned, "query {i}");
            }
        }
        let mut observed = Vec::new();
        for (lo, hi) in oracle_probe {
            observed.push(handle.query_served(lo, hi));
        }
        let oracle = server.oracle();
        for (i, served) in observed.iter().enumerate() {
            assert!(oracle.matches(served), "probe {i}: {served:?}");
        }
        let stats = server.shutdown();
        let total: u64 = stats.shards.iter().map(|s| s.updates_applied).sum();
        assert_eq!(total, 150, "every update must land on exactly one shard");
        server_is_quiet_after_shutdown(stats);
    }

    fn server_is_quiet_after_shutdown(stats: ShardedStats) {
        assert!(stats.shards.iter().all(|s| s.epoch >= 1));
    }

    #[test]
    fn snapshot_queries_are_oracle_consistent() {
        let server =
            ShardedServer::start(records(1500), 10.0, capped(), recording_config(2)).unwrap();
        let handle = server.handle();
        for i in 0..80 {
            handle.insert(1.23 + i as f64 * 4.0, 3.0).unwrap();
        }
        // Read-your-writes: this read waits until both shards publish
        // the writes, so the snapshot below observes them too.
        let _ = handle.query_served(0.0, 750.0);
        let snap = handle.snapshot_query(-5.0, 800.0);
        assert!(!snap.poisoned && snap.answer.is_some());
        let oracle = server.oracle();
        assert!(oracle.matches(&snap), "snapshot path must replay bitwise: {snap:?}");
        server.shutdown();
    }

    #[test]
    fn auto_split_keeps_answers_replayable() {
        let cfg = ShardConfig { split_threshold: 700, max_shards: 6, ..recording_config(1) };
        let server = ShardedServer::start(records(1300), 8.0, capped(), cfg).unwrap();
        let handle = server.handle();
        let mut observed = Vec::new();
        for i in 0..400 {
            handle.insert(660.0 + i as f64 * 0.125, 1.5).unwrap();
            if i % 7 == 0 {
                observed.push(handle.query_served(i as f64, i as f64 + 500.0));
            }
        }
        // Let the split land, then probe across the split layout.
        let stats = wait_for(&server, |s| s.splits >= 1);
        assert!(stats.splits >= 1, "split threshold must have fired: {stats:?}");
        for i in 0..40 {
            observed.push(handle.query_served(i as f64 * 18.0 - 4.0, i as f64 * 18.0 + 420.0));
        }
        assert!(stats.shards.len() >= 2);
        let oracle = server.oracle();
        for (i, served) in observed.iter().enumerate() {
            assert!(!served.poisoned, "query {i} poisoned");
            assert!(oracle.matches(served), "query {i}: {served:?}");
        }
        server.shutdown();
    }

    #[test]
    fn auto_merge_keeps_answers_replayable() {
        let cfg = ShardConfig { merge_threshold: 400, ..recording_config(3) };
        // 3 shards of ~240 records each — all under the merge threshold,
        // so the fleet collapses while serving.
        let server = ShardedServer::start(records(720), 8.0, capped(), cfg).unwrap();
        let handle = server.handle();
        let mut observed = Vec::new();
        for i in 0..120 {
            handle.insert(2.2 + (i % 50) as f64 * 7.0, 1.0).unwrap();
            observed.push(handle.query_served(i as f64 - 8.0, i as f64 + 220.0));
        }
        let stats = wait_for(&server, |s| s.merges >= 1);
        assert!(stats.merges >= 1, "merge threshold must have fired: {stats:?}");
        let oracle = server.oracle();
        for (i, served) in observed.iter().enumerate() {
            assert!(!served.poisoned, "query {i} poisoned");
            assert!(oracle.matches(served), "query {i}: {served:?}");
        }
        server.shutdown();
    }

    #[test]
    fn submit_after_shutdown_resolves_poisoned_not_hanging() {
        let server = ShardedServer::start(records(300), 5.0, capped(), Default::default()).unwrap();
        let handle = server.handle();
        server.shutdown();
        let served = handle.submit(0.0, 50.0).wait();
        assert!(served.poisoned);
        assert_eq!(served.answer, None);
    }

    #[test]
    fn writes_queued_at_shutdown_are_applied_and_recovered() {
        let dir = wal_dir("shutdown-drain");
        let server = ShardedServer::start_with_wal(
            records(600),
            8.0,
            capped(),
            ShardConfig { shards: 2, deadline: Duration::from_millis(40), ..Default::default() },
            &dir,
            SyncPolicy::Batch,
        )
        .unwrap();
        let handle = server.handle();
        for i in 0..24 {
            handle.insert(i as f64 * 12.25 + 0.1, 1.0).unwrap();
        }
        let stats = server.shutdown();
        let applied: u64 = stats.shards.iter().map(|s| s.updates_applied).sum();
        assert_eq!(applied, 24, "shutdown must apply and publish every queued write");
        let probes: Vec<(f64, f64)> =
            (0..20).map(|i| (i as f64 * 15.0 - 3.0, i as f64 * 15.0 + 90.0)).collect();
        let expected = snapshot_values(&handle, &probes);
        let frozen = ShardConfig { shards: 2, compaction_budget: 0, ..Default::default() };
        let (recovered, reports) = ShardedServer::recover(&dir, frozen, SyncPolicy::Batch).unwrap();
        let replayed: u64 = reports.iter().map(|(_, r)| r.head_seq).sum();
        assert_eq!(replayed, 24, "every write applied at shutdown is durable");
        assert_eq!(probe_values(&recovered.handle(), &probes), expected);
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_limbo_drains_once_readers_quiesce() {
        let server =
            ShardedServer::start(records(900), 8.0, capped(), recording_config(2)).unwrap();
        let handle = server.handle();
        for i in 0..60 {
            handle.insert(i as f64 * 3.7, 1.0).unwrap();
        }
        let _ = handle.query_served(0.0, 400.0);
        let stats = server.shutdown();
        // After shutdown no reader pins anything; every retired snapshot
        // must have been reclaimable by the final publishes.
        assert!(stats.limbo <= stats.shards.len() * 2, "unreclaimed limbo: {stats:?}");
    }

    #[test]
    fn shutdown_racing_queued_merges_does_not_deadlock() {
        use std::sync::mpsc;
        // Every shard starts under the merge threshold, so the first
        // batch each worker processes immediately hands the shard to a
        // neighbour. Shutting down while that cascade is in flight races
        // the close sweep against queued Req::Merge handoffs — absorb
        // must close its freshly published queue itself, or shutdown
        // blocks in join() on the receiver thread forever.
        for round in 0..8 {
            let cfg = ShardConfig { merge_threshold: 10_000, ..recording_config(3) };
            let server = ShardedServer::start(records(600), 8.0, capped(), cfg).unwrap();
            let handle = server.handle();
            for i in 0..24 {
                handle.insert(i as f64 * 7.0 + (round % 3) as f64, 1.0).unwrap();
            }
            let (tx, rx) = mpsc::channel();
            let joiner = thread::spawn(move || {
                let _ = tx.send(server.shutdown());
            });
            rx.recv_timeout(Duration::from_secs(20))
                .expect("shutdown deadlocked against an in-flight merge");
            joiner.join().unwrap();
        }
    }

    fn wal_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("polyfit-shard-wal-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn probe_values(handle: &ShardHandle, probes: &[(f64, f64)]) -> Vec<Option<u64>> {
        probes
            .iter()
            .map(|&(lo, hi)| handle.query_served(lo, hi).value().map(f64::to_bits))
            .collect()
    }

    /// The at-crash ground truth: after `shutdown()` each worker's final
    /// publish froze exactly the state its journal covers, and
    /// `snapshot_query` (which never touches the closed queues) composes
    /// answers from those frozen views with the served fold order.
    fn snapshot_values(handle: &ShardHandle, probes: &[(f64, f64)]) -> Vec<Option<u64>> {
        probes
            .iter()
            .map(|&(lo, hi)| handle.snapshot_query(lo, hi).value().map(f64::to_bits))
            .collect()
    }

    #[test]
    fn sharded_wal_shutdown_then_recover_is_bitwise() {
        let dir = wal_dir("shutdown-recover");
        // recording_config's small buffer + budget force compaction
        // checkpoints into the window under test.
        let server = ShardedServer::start_with_wal(
            records(900),
            8.0,
            capped(),
            recording_config(3),
            &dir,
            SyncPolicy::Batch,
        )
        .unwrap();
        let handle = server.handle();
        for i in 0..80 {
            handle.insert(1.1 + (i % 60) as f64 * 5.5, 2.0).unwrap();
        }
        let probes: Vec<(f64, f64)> =
            (0..30).map(|i| (i as f64 * 11.0 - 3.0, i as f64 * 11.0 + 250.0)).collect();
        server.shutdown();
        // Expected answers come from the post-shutdown frozen views —
        // idle compaction may swap (and so re-segment) any time up to
        // the crash point, and recovery reproduces the at-crash state.
        let expected = snapshot_values(&handle, &probes);
        // Recover with idle compaction disabled: a recovered worker
        // would otherwise immediately resume compacting its over-limit
        // buffer (correct behaviour, new segmentation) and the probes
        // below could no longer observe the at-crash state.
        let frozen = ShardConfig { compaction_budget: 0, ..recording_config(3) };
        let (recovered, reports) = ShardedServer::recover(&dir, frozen, SyncPolicy::Batch).unwrap();
        assert_eq!(reports.len(), 3, "one report per shard: {reports:?}");
        assert_eq!(probe_values(&recovered.handle(), &probes), expected);
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_checkpoint_is_to_bytes_at_its_swap() {
        // The checkpointer streams PFD2 bytes from the state frozen at a
        // swap; they must equal `to_bytes()` of the index at that swap,
        // which the oracle rebuilds from the recorded history.
        use crate::wal::{checkpoint_path, read_checkpoint, CHECKPOINT_EVERY};
        let dir = wal_dir("checkpoint-bytes");
        let cfg = recording_config(1);
        let server = ShardedServer::start_with_wal(
            records(600),
            8.0,
            capped(),
            cfg,
            &dir,
            SyncPolicy::Batch,
        )
        .unwrap();
        let handle = server.handle();
        let ckpt_path = checkpoint_path(&dir, &shard_wal_name(0));
        let checkpointed = || read_checkpoint(&ckpt_path).unwrap().rebuilds > 0;
        let mut i = 0;
        while (server.stats().shards[0].rebuilds < 2 * CHECKPOINT_EVERY || !checkpointed())
            && i < 20_000
        {
            handle.insert(0.3 + (i % 280) as f64, 1.0).unwrap();
            if i % 8 == 0 {
                assert!(!handle.query_served(0.0, 1e4).poisoned);
            }
            i += 1;
        }
        // Quiesce compaction, so the history covers every swap.
        let _ = handle.query_served(0.0, 1e4);
        wait_for(&server, |s| s.shards[0].buffered < cfg.buffer_limit);
        let oracle = server.oracle();
        server.shutdown();
        let ckpt = read_checkpoint(&ckpt_path).unwrap();
        assert!(ckpt.rebuilds >= CHECKPOINT_EVERY, "checkpointed at {} swaps", ckpt.rebuilds);
        let at_swap = oracle.index_at(0, ckpt.updates_applied, ckpt.rebuilds);
        assert!(ckpt.index == at_swap.to_bytes(), "checkpoint bytes differ from to_bytes()");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_wal_recovery_replays_rebalance_lineage() {
        let dir = wal_dir("rebalance-lineage");
        let cfg = ShardConfig { split_threshold: 700, max_shards: 6, ..recording_config(1) };
        let server = ShardedServer::start_with_wal(
            records(1300),
            8.0,
            capped(),
            cfg,
            &dir,
            SyncPolicy::Batch,
        )
        .unwrap();
        let handle = server.handle();
        for i in 0..400 {
            handle.insert(660.0 + i as f64 * 0.125, 1.5).unwrap();
        }
        let probes: Vec<(f64, f64)> =
            (0..40).map(|i| (i as f64 * 18.0 - 4.0, i as f64 * 18.0 + 420.0)).collect();
        // Quiesce the layout — every shard under the threshold, so no
        // split is left to run — before reading the pre-crash routing
        // table.
        let pre = wait_for(&server, |s| s.shards.iter().all(|p| p.len <= 700));
        let _ = probe_values(&handle, &probes);
        assert!(pre.splits >= 1, "split threshold must have fired: {pre:?}");
        server.shutdown();
        let expected = snapshot_values(&handle, &probes);
        // Freeze rebalancing and compaction in the recovered fleet so
        // the probes observe the at-crash state, not its continuation.
        let frozen = ShardConfig { compaction_budget: 0, split_threshold: 0, ..cfg };
        let (recovered, reports) = ShardedServer::recover(&dir, frozen, SyncPolicy::Batch).unwrap();
        let post = recovered.stats();
        // The layout log replays the lineage to the exact pre-crash
        // routing table: same ids, same bounds, bitwise.
        let pre_ids: Vec<u64> = pre.shards.iter().map(|s| s.shard).collect();
        let post_ids: Vec<u64> = post.shards.iter().map(|s| s.shard).collect();
        assert_eq!(post_ids, pre_ids);
        let pre_bounds: Vec<u64> = pre.bounds.iter().map(|b| b.to_bits()).collect();
        let post_bounds: Vec<u64> = post.bounds.iter().map(|b| b.to_bits()).collect();
        assert_eq!(post_bounds, pre_bounds);
        assert_eq!(reports.len(), post.shards.len());
        assert_eq!(probe_values(&recovered.handle(), &probes), expected);
        // A split after recovery must mint fresh ids, not collide with
        // the replayed lineage.
        assert!(post_ids.iter().all(|&id| id < recovered.shared.next_id.load(SeqCst)));
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rewrites_the_layout_only_to_fold_rebalances() {
        use crate::wal::{checkpoint_path, log_path};
        let dir = wal_dir("layout-kept");
        // Each layout file's bytes and inode: a rewrite goes through a
        // temp file renamed over the old one, so even a byte-identical
        // rewrite shows as a new inode.
        let layout_files = || {
            [checkpoint_path(&dir, "layout"), log_path(&dir, "layout")].map(|p| {
                #[cfg(unix)]
                let inode = std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(&p).unwrap());
                #[cfg(not(unix))]
                let inode = 0;
                (std::fs::read(&p).unwrap(), inode)
            })
        };
        let frozen = ShardConfig { compaction_budget: 0, ..recording_config(2) };
        let recover = |cfg| ShardedServer::recover(&dir, cfg, SyncPolicy::Batch).unwrap().0;
        ShardedServer::start_with_wal(
            records(1300),
            8.0,
            capped(),
            frozen,
            &dir,
            SyncPolicy::Batch,
        )
        .unwrap()
        .shutdown();
        let booted = layout_files();
        for i in 0..2 {
            recover(frozen).shutdown();
            assert!(layout_files() == booted, "recovery {i} rewrote a layout file");
        }
        // A split after a recovery appends to the kept log…
        let server = recover(ShardConfig { split_threshold: 700, max_shards: 6, ..frozen });
        let handle = server.handle();
        for i in 0..400 {
            handle.insert(10.0 + i as f64 * 0.125, 1.5).unwrap();
        }
        let pre = wait_for(&server, |s| s.shards.iter().all(|p| p.len <= 700));
        assert!(pre.splits >= 1, "split threshold must have fired: {pre:?}");
        server.shutdown();
        let [ckpt, (log, log_inode)] = layout_files();
        assert!(ckpt == booted[0], "the split rewrote the layout checkpoint");
        let kept = &booted[1].0;
        assert!(log_inode == booted[1].1 && log.len() > kept.len() && log.starts_with(kept));
        // …the next recovery replays it to the pre-crash routing table and
        // folds it into a fresh checkpoint, which later recoveries keep.
        let recovered = recover(frozen);
        let post = recovered.stats();
        let ids = |s: &ShardedStats| s.shards.iter().map(|p| p.shard).collect::<Vec<_>>();
        let bounds = |s: &ShardedStats| s.bounds.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!((ids(&post), bounds(&post)), (ids(&pre), bounds(&pre)));
        recovered.shutdown();
        let folded = layout_files();
        assert!(folded[0].0 != booted[0].0, "the replayed split was not folded");
        recover(frozen).shutdown();
        assert!(layout_files() == folded, "a recovery after the fold rewrote a layout file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_wal_recovers_acked_writes_without_shutdown() {
        let dir = wal_dir("crash-no-shutdown");
        // Every published state is fenced first, so recovery from the
        // live directory — no shutdown, no final syncs — must still
        // reproduce every state a served answer reflected.
        let server = ShardedServer::start_with_wal(
            records(700),
            8.0,
            capped(),
            ShardConfig { shards: 2, ..ShardConfig::default() },
            &dir,
            SyncPolicy::EveryUpdate,
        )
        .unwrap();
        let handle = server.handle();
        for i in 0..48 {
            handle.insert(2.7 + i as f64 * 6.0, 1.0).unwrap();
        }
        let probes: Vec<(f64, f64)> =
            (0..20).map(|i| (i as f64 * 16.0 - 2.0, i as f64 * 16.0 + 180.0)).collect();
        // Read-your-writes: each probe waits until its shards publish
        // the writes, and a publish implies the journal covers them.
        let expected = probe_values(&handle, &probes);
        let (recovered, _) = ShardedServer::recover(
            &dir,
            ShardConfig { shards: 2, ..ShardConfig::default() },
            SyncPolicy::EveryUpdate,
        )
        .unwrap();
        assert_eq!(probe_values(&recovered.handle(), &probes), expected);
        recovered.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
