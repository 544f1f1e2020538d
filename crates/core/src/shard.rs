//! Shard-per-core serving: shared-nothing key-space shards behind an
//! epoch-published routing layout — the serving engine for mutable
//! state.
//!
//! A worker drains each batch's writes before answering its reads,
//! fences group commit at ack points, steps compaction in idle gaps and
//! fail-stops on worker death. One shard (the default) is a single-writer
//! serving loop; more shards partition the key space. Immutable indexes
//! need none of this: every index is `Send + Sync`, so client threads
//! call [`crate::traits::AggregateIndex::query`] on a shared
//! [`crate::traits::SharedIndex`] directly — a direct query costs tens of
//! nanoseconds, far less than any queue round trip a loop would add.
//!
//! * **Shared-nothing shards.** The key space is partitioned into
//!   contiguous ranges `(B_{i-1}, B_i]`; each shard is one worker thread
//!   owning its own [`DynamicPolyFitSum`] and a private request queue.
//!   No mutex is shared between shards on the hot path.
//! * **Spin-then-park wakeups.** Queues and answer slots hand off with
//!   an atomic length/flag plus `thread::park` — a submission is a plain
//!   atomic store, not a `notify_all` syscall, unless someone is actually
//!   asleep.
//! * **Epoch-published snapshots.** The routing table ([`Layout`]) and
//!   every shard's frozen view ([`DynamicSnapshot`]) are published
//!   through [`crate::epoch`]: compaction swaps and shard rebalances are
//!   a pointer publish, wait-free for readers, with grace-period
//!   reclamation instead of locks.
//! * **Scatter-gather ranges.** A query `(lo, hi]` touching shards
//!   `a..=b` is clipped at the shard bounds and scattered; the last
//!   depositing shard composes the sub-answers **in ascending shard
//!   order** with [`RangeAggregate::merge_sum`] — a deterministic fold,
//!   so the composed value is exactly reproducible.
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

use std::collections::{HashMap, VecDeque};
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
use crate::serialize::WalRecord;
use crate::traits::{classify_bounds, QueryBounds, RangeAggregate};
use crate::wal::{Journal, LayoutCheckpoint, LayoutLog, RecoveryReport, SyncPolicy, WalError};

/// Deadline windows above this are clamped — a misconfigured huge
/// deadline must degrade to coarse batching, not to an unserved stall.
const MAX_DEADLINE: Duration = Duration::from_millis(100);

/// How long a parked worker sleeps before re-checking for shutdown and
/// compaction work. Bounds the shutdown latency of a worker whose
/// close-time unpark was missed.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// Tuning knobs for a [`ShardedServer`]. Validated and clamped by
/// [`ShardedServer::start`] (see [`ShardConfig::validated`]).
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Initial shard count (clamped to `1..=max_shards`; also capped by
    /// the number of distinct records, since every shard needs at least
    /// one).
    pub shards: usize,
    /// Per-shard batch-formation window, measured from the first request
    /// a worker pops. Clamped to at most 100 ms.
    pub deadline: Duration,
    /// Largest query batch one sweep answers (`0` is clamped to 1).
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
    /// Spin iterations before a waiter parks. On a single hardware
    /// thread, spinning only steals cycles from the worker — keep it
    /// small there.
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
    /// Per-shard provenance, in composition order. Empty when the
    /// request was answered inline (degenerate bounds) or poisoned.
    pub shards: Vec<ShardPoint>,
    /// Largest per-shard batch this request rode in (informational).
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
}

// ---------------------------------------------------------------------------
// Spin-then-park rendezvous
// ---------------------------------------------------------------------------

/// One-shot answer slot. The client spins briefly (the worker usually
/// answers within a batch window), yields, and only then parks — the
/// completing worker pays an `unpark` syscall only for a parked waiter.
struct GatherSlot {
    state: Mutex<Option<ShardServed>>,
    done: AtomicBool,
    waiter: OnceLock<Thread>,
}

impl GatherSlot {
    fn new() -> Arc<GatherSlot> {
        Arc::new(GatherSlot {
            state: Mutex::new(None),
            done: AtomicBool::new(false),
            waiter: OnceLock::new(),
        })
    }

    /// Complete the slot exactly once; later completions (e.g. a poison
    /// sweep racing a real answer) are ignored.
    fn finish(&self, served: ShardServed) {
        {
            let mut state = self.state.lock().expect("gather slot poisoned");
            if self.done.load(SeqCst) {
                return;
            }
            *state = Some(served);
            self.done.store(true, SeqCst);
        }
        if let Some(t) = self.waiter.get() {
            t.unpark();
        }
    }

    fn wait(&self, spin: u32) -> ShardServed {
        let mut i = 0u32;
        while !self.done.load(SeqCst) {
            if i < spin {
                std::hint::spin_loop();
                i += 1;
            } else if i < spin.saturating_add(64) {
                thread::yield_now();
                i += 1;
            } else {
                let _ = self.waiter.set(thread::current());
                if self.done.load(SeqCst) {
                    break;
                }
                thread::park_timeout(IDLE_POLL);
            }
        }
        self.state
            .lock()
            .expect("gather slot poisoned")
            .take()
            .expect("completed slot holds an answer")
    }
}

/// A pending sharded request; await it exactly once.
pub struct ShardTicket {
    slot: Arc<GatherSlot>,
    spin: u32,
}

impl ShardTicket {
    /// Block until every involved shard has deposited its sub-answer.
    /// Returns a poisoned answer (never blocks forever) if the server
    /// shut down or a worker died with this request in flight.
    pub fn wait(self) -> ShardServed {
        self.slot.wait(self.spin)
    }
}

/// One deposited sub-answer.
enum PartState {
    Waiting,
    Poisoned,
    Done { value: f64, point: ShardPoint, batch_len: usize },
}

/// Scatter-gather join: each involved shard deposits into its slot; the
/// last depositor composes in part order (ascending shard order) and
/// completes the client slot.
struct GatherState {
    parts: Mutex<Vec<PartState>>,
    remaining: AtomicUsize,
    slot: Arc<GatherSlot>,
    /// `true` once the submitting client abandoned this gather (a shard
    /// queue closed mid-scatter and the request was re-routed); late
    /// deposits must not complete the client slot.
    cancelled: AtomicBool,
    /// Composed certificate per sub-answer (`2δ`).
    bound: f64,
}

impl GatherState {
    fn new(parts: usize, slot: Arc<GatherSlot>, bound: f64) -> GatherState {
        GatherState {
            parts: Mutex::new((0..parts).map(|_| PartState::Waiting).collect()),
            remaining: AtomicUsize::new(parts),
            slot,
            cancelled: AtomicBool::new(false),
            bound,
        }
    }

    fn deposit(&self, part: usize, state: PartState) {
        {
            let mut parts = self.parts.lock().expect("gather parts poisoned");
            parts[part] = state;
        }
        if self.remaining.fetch_sub(1, SeqCst) == 1 && !self.cancelled.load(SeqCst) {
            self.compose();
        }
    }

    /// Deterministic composition: fold sub-aggregates in part (shard)
    /// order with [`RangeAggregate::merge_sum`]. Any poisoned part
    /// poisons the whole answer.
    fn compose(&self) {
        let parts = self.parts.lock().expect("gather parts poisoned");
        let mut shards = Vec::with_capacity(parts.len());
        let mut agg: Option<RangeAggregate> = None;
        let mut batch_len = 0usize;
        let mut poisoned = false;
        for p in parts.iter() {
            match *p {
                PartState::Done { value, point, batch_len: bl } => {
                    shards.push(point);
                    batch_len = batch_len.max(bl);
                    let a = RangeAggregate::absolute(value, self.bound);
                    agg = Some(match agg {
                        None => a,
                        Some(acc) => acc.merge_sum(a),
                    });
                }
                PartState::Poisoned => poisoned = true,
                PartState::Waiting => unreachable!("composed before all deposits"),
            }
        }
        if poisoned {
            self.slot.finish(ShardServed { answer: None, shards, batch_len, poisoned: true });
        } else {
            self.slot.finish(ShardServed { answer: agg, shards, batch_len, poisoned: false });
        }
    }
}

/// Where a sub-query's answer lands. Queries confined to one shard — the
/// common case — skip the gather machinery entirely and finish the
/// client slot directly (no parts vector, no second rendezvous).
enum QuerySink {
    Single { slot: Arc<GatherSlot>, bound: f64 },
    Gather { gather: Arc<GatherState>, part: usize },
}

/// A routed sub-query riding a shard queue. Dropping it un-answered
/// (worker panic, shutdown sweep, queue teardown) poisons its sink, so
/// the waiting client always wakes.
struct SubQuery {
    lo: f64,
    hi: f64,
    sink: QuerySink,
    deposited: bool,
}

impl SubQuery {
    /// Disarm the drop sweep on a request that was handed back by a
    /// closed queue and will be re-routed: the sweep is for genuinely
    /// abandoned requests, and the client slot is write-once — a poison
    /// deposited here would win over the re-routed real answer.
    fn defuse(mut self) {
        self.deposited = true;
    }

    fn answer(mut self, value: f64, point: ShardPoint, batch_len: usize) {
        self.deposited = true;
        match &self.sink {
            QuerySink::Single { slot, bound } => slot.finish(ShardServed {
                answer: Some(RangeAggregate::absolute(value, *bound)),
                shards: vec![point],
                batch_len,
                poisoned: false,
            }),
            QuerySink::Gather { gather, part } => {
                gather.deposit(*part, PartState::Done { value, point, batch_len })
            }
        }
    }
}

impl Drop for SubQuery {
    fn drop(&mut self) {
        if !self.deposited {
            match &self.sink {
                QuerySink::Single { slot, .. } => slot.finish(ShardServed::poisoned()),
                QuerySink::Gather { gather, part } => gather.deposit(*part, PartState::Poisoned),
            }
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
    /// The sender's (closed) queue — the receiver drains stragglers that
    /// raced the close.
    queue: Arc<ShardQueue>,
    /// The sender's final frozen view, for answering straggler queries.
    snap: DynamicSnapshot,
    updates_applied: u64,
    rebuilds: u64,
    epoch: u64,
}

enum Req {
    Update(Update),
    Query(SubQuery),
    Merge(Box<MergeHandoff>),
}

/// Private MPSC request queue with spin-then-park consumer wakeup: a
/// push is a short critical section plus one atomic swap; the `unpark`
/// syscall is paid only when the worker actually parked.
struct ShardQueue {
    q: Mutex<VecDeque<Req>>,
    len: AtomicUsize,
    closed: AtomicBool,
    parked: AtomicBool,
    worker: OnceLock<Thread>,
}

impl ShardQueue {
    fn new() -> Arc<ShardQueue> {
        Arc::new(ShardQueue {
            q: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            worker: OnceLock::new(),
        })
    }

    /// Enqueue, or hand the request back if the queue is closed (the
    /// shard rebalanced away or the server shut down) — the caller
    /// re-routes against a fresh layout.
    fn push(&self, req: Req) -> Result<(), Req> {
        // Failpoint: reject the push as if the queue had closed under
        // the caller — the re-route path must hand the request back
        // losslessly and retry against a fresh layout. An every-k spec
        // models a transient storm that eventually drains.
        if crate::failpoint::triggered("shard.queue.push_fail") {
            return Err(req);
        }
        {
            let mut q = self.q.lock().expect("shard queue poisoned");
            if self.closed.load(SeqCst) {
                return Err(req);
            }
            q.push_back(req);
            self.len.store(q.len(), SeqCst);
        }
        self.wake();
        Ok(())
    }

    fn pop(&self) -> Option<Req> {
        let mut q = self.q.lock().expect("shard queue poisoned");
        let r = q.pop_front();
        self.len.store(q.len(), SeqCst);
        r
    }

    /// Drain up to `max` requests under one lock — the hot-path consumer
    /// never pays one mutex round-trip per request.
    fn pop_many(&self, max: usize, out: &mut Vec<Req>) -> usize {
        let mut q = self.q.lock().expect("shard queue poisoned");
        let take = q.len().min(max);
        out.extend(q.drain(..take));
        self.len.store(q.len(), SeqCst);
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

/// One shard's runtime identity: id, request queue, published snapshot.
struct ShardRt {
    id: u64,
    queue: Arc<ShardQueue>,
    snap: Published<ShardSnap>,
    served: AtomicU64,
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

/// Remove `shard-*.{wal,ckpt}` files whose shard id is not in the live
/// layout — segments of shards retired by a rebalance whose cutover
/// record reached the layout log (the only place ids leave the layout),
/// or children staged by a rebalance that never committed. Best-effort:
/// a leftover file is garbage, never a correctness hazard.
fn remove_orphan_segments(dir: &Path, live: &[u64]) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".wal").or_else(|| name.strip_suffix(".ckpt")) else {
            continue;
        };
        let Some(id) = stem.strip_prefix("shard-").and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        if !live.contains(&id) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Server-wide durability state: the WAL directory every per-shard
/// journal lives in, plus the layout log journaling split/merge cutovers
/// (rebalances are serialized server-wide, so one mutex is uncontended).
struct WalShared {
    dir: PathBuf,
    policy: SyncPolicy,
    layout: Mutex<LayoutLog>,
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
    spanning: AtomicU64,
    submitted: AtomicU64,
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
}

// ---------------------------------------------------------------------------
// Client handle
// ---------------------------------------------------------------------------

/// Client endpoint of a [`ShardedServer`]. `Send` but not `Sync` (it
/// owns an epoch reader slot); clone it to give each client thread its
/// own.
pub struct ShardHandle {
    shared: Arc<ServerShared>,
    reader: Reader,
}

impl Clone for ShardHandle {
    fn clone(&self) -> Self {
        ShardHandle { shared: Arc::clone(&self.shared), reader: self.shared.domain.reader() }
    }
}

impl ShardHandle {
    /// Submit a query without waiting; pair with [`ShardTicket::wait`].
    /// Degenerate bounds (non-finite, reversed) are answered inline —
    /// the contract answer is state-independent, so no queue round-trip
    /// is paid. Never panics: after shutdown the ticket resolves
    /// poisoned.
    pub fn submit(&self, lo: f64, hi: f64) -> ShardTicket {
        self.shared.submitted.fetch_add(1, Relaxed);
        let slot = GatherSlot::new();
        let spin = self.shared.cfg.spin;
        match classify_bounds(lo, hi) {
            QueryBounds::NonFinite => {
                slot.finish(ShardServed {
                    answer: None,
                    shards: Vec::new(),
                    batch_len: 0,
                    poisoned: false,
                });
                return ShardTicket { slot, spin };
            }
            QueryBounds::Reversed => {
                slot.finish(ShardServed {
                    answer: Some(RangeAggregate::absolute(0.0, 2.0 * self.shared.delta)),
                    shards: Vec::new(),
                    batch_len: 0,
                    poisoned: false,
                });
                return ShardTicket { slot, spin };
            }
            QueryBounds::Proper => {}
        }
        let bound = 2.0 * self.shared.delta;
        loop {
            if !self.shared.open.load(SeqCst) {
                slot.finish(ShardServed::poisoned());
                return ShardTicket { slot, spin };
            }
            let pin = self.reader.pin();
            let layout = self.shared.layout.load(&pin);
            let (a, b) = layout.shard_range(lo, hi);
            if a == b {
                // Single-shard fast path (the common case): the sub-query
                // finishes the client slot directly — no gather state, no
                // parts rendezvous.
                let sq = SubQuery {
                    lo,
                    hi,
                    sink: QuerySink::Single { slot: Arc::clone(&slot), bound },
                    deposited: false,
                };
                match layout.shards[a].queue.push(Req::Query(sq)) {
                    Ok(()) => {
                        drop(pin);
                        return ShardTicket { slot, spin };
                    }
                    // The shard rebalanced away mid-route: the queue
                    // hands the request back. Defuse it before it drops
                    // so the poison sweep cannot pre-fill the write-once
                    // slot, then re-route against the fresh layout.
                    Err(Req::Query(back)) => back.defuse(),
                    Err(_) => unreachable!("push hands back the request it was given"),
                }
                drop(pin);
                thread::yield_now();
                continue;
            }
            self.shared.spanning.fetch_add(1, Relaxed);
            let gather = Arc::new(GatherState::new(b - a + 1, Arc::clone(&slot), bound));
            let mut routed = true;
            for j in a..=b {
                let (sl, sh) = layout.clip(j, a, b, lo, hi);
                let sq = SubQuery {
                    lo: sl,
                    hi: sh,
                    sink: QuerySink::Gather { gather: Arc::clone(&gather), part: j - a },
                    deposited: false,
                };
                if let Err(back) = layout.shards[j].queue.push(Req::Query(sq)) {
                    // The shard rebalanced away mid-scatter. Cancel the
                    // gather BEFORE the recovered request can drop, then
                    // defuse it so this part never deposits — `remaining`
                    // can no longer reach zero, so no racing depositor
                    // composes a spurious poisoned answer into the
                    // write-once slot. Already-routed parts deposit into
                    // the abandoned gather harmlessly; the query is
                    // re-routed against the fresh layout.
                    gather.cancelled.store(true, SeqCst);
                    match back {
                        Req::Query(sq) => sq.defuse(),
                        _ => unreachable!("push hands back the request it was given"),
                    }
                    routed = false;
                    break;
                }
            }
            drop(pin);
            if routed {
                return ShardTicket { slot, spin };
            }
            thread::yield_now();
        }
    }

    /// Submit and block for the composed answer value.
    pub fn query(&self, lo: f64, hi: f64) -> Option<RangeAggregate> {
        self.submit(lo, hi).wait().answer
    }

    /// [`Self::query`] with the full per-shard provenance.
    pub fn query_served(&self, lo: f64, hi: f64) -> ShardServed {
        self.submit(lo, hi).wait()
    }

    /// Wait-free read path: answer from the involved shards' published
    /// snapshots under one epoch pin — no queue, no worker round-trip.
    /// Eventually consistent (a snapshot trails the live shard by at
    /// most the in-flight batch), but every answer is still exactly the
    /// provenance-pinned state's answer, so it replays bitwise like any
    /// queued answer.
    pub fn snapshot_query(&self, lo: f64, hi: f64) -> ShardServed {
        match classify_bounds(lo, hi) {
            QueryBounds::NonFinite => {
                return ShardServed {
                    answer: None,
                    shards: Vec::new(),
                    batch_len: 0,
                    poisoned: false,
                }
            }
            QueryBounds::Reversed => {
                return ShardServed {
                    answer: Some(RangeAggregate::absolute(0.0, 2.0 * self.shared.delta)),
                    shards: Vec::new(),
                    batch_len: 0,
                    poisoned: false,
                }
            }
            QueryBounds::Proper => {}
        }
        let bound = 2.0 * self.shared.delta;
        let pin = self.reader.pin();
        let layout = self.shared.layout.load(&pin);
        let (a, b) = layout.shard_range(lo, hi);
        let mut shards = Vec::with_capacity(b - a + 1);
        let mut agg: Option<RangeAggregate> = None;
        for j in a..=b {
            let (sl, sh) = layout.clip(j, a, b, lo, hi);
            let snap = layout.shards[j].snap.load(&pin);
            let v = snap.view.query(sl, sh);
            shards.push(ShardPoint {
                shard: snap.id,
                lo: sl,
                hi: sh,
                updates_applied: snap.updates_applied,
                rebuilds: snap.rebuilds,
                epoch: snap.epoch,
            });
            let part = RangeAggregate::absolute(v, bound);
            agg = Some(match agg {
                None => part,
                Some(acc) => acc.merge_sum(part),
            });
        }
        ShardServed { answer: agg, shards, batch_len: 0, poisoned: false }
    }

    /// Enqueue a write, routed to the owning shard (fire-and-forget).
    /// Finiteness is validated here, so a rejected update never occupies
    /// queue space and a worker's drain cannot fail.
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
            let j = layout.shard_for_key(update.key());
            match layout.shards[j].queue.push(req) {
                Ok(()) => return Ok(()),
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
    /// Query sub-requests this shard answered.
    pub served: u64,
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
    /// Query requests submitted through handles.
    pub submitted: u64,
    /// Requests that spanned more than one shard.
    pub spanning: u64,
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
    /// its updates into `<wal_dir>/shard-{id}.wal` (checkpointing on
    /// compaction swaps), rebalance cutovers append to the layout log,
    /// and a worker group-fsyncs its window's appends before answering
    /// any query in that window — an acknowledged answer implies the
    /// writes it reflects are durable. Recover the whole server after a
    /// crash with [`Self::recover`].
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
        sort_records(&mut records);
        let records = dedup_sum(records);
        if records.is_empty() {
            return Err(WalError::Build(PolyFitError::EmptyDataset));
        }
        let n = records.len();
        let shards = cfg.shards.min(n);
        let domain = Domain::new();
        let mut history = ShardedHistory::default();
        let mut rts = Vec::with_capacity(shards);
        let mut indexes = Vec::with_capacity(shards);
        let mut bounds = Vec::with_capacity(shards.saturating_sub(1));
        for i in 0..shards {
            let (a, b) = (i * n / shards, (i + 1) * n / shards);
            let chunk = records[a..b].to_vec();
            if i + 1 < shards {
                bounds.push(chunk.last().expect("non-empty chunk").key);
            }
            let mut index = DynamicPolyFitSum::with_options(
                chunk.clone(),
                delta,
                config,
                cfg.buffer_limit,
                &cfg.build,
            )
            .map_err(WalError::Build)?;
            index.set_step_budget(0);
            let id = i as u64;
            if let Some((dir, policy)) = &wal {
                index.attach_wal(dir, &shard_wal_name(id), *policy, 0)?;
            }
            if cfg.record_history {
                history.initial.push((id, chunk));
            }
            let rt = Arc::new(ShardRt {
                id,
                queue: ShardQueue::new(),
                snap: Published::new(
                    &domain,
                    ShardSnap {
                        view: index.snapshot(),
                        id,
                        updates_applied: 0,
                        rebuilds: 0,
                        epoch: 1,
                        len: index.base_len() + index.buffered(),
                    },
                ),
                served: AtomicU64::new(0),
            });
            rts.push(rt);
            indexes.push(index);
        }
        let wal = match wal {
            Some((dir, policy)) => {
                let layout =
                    LayoutCheckpoint { ids: (0..shards as u64).collect(), bounds: bounds.clone() };
                let log = LayoutLog::create(&dir, &layout)?;
                Some(WalShared { dir, policy, layout: Mutex::new(log) })
            }
            None => None,
        };
        let shared = Arc::new(ServerShared {
            layout: Published::new(&domain, Layout { version: 1, bounds, shards: rts.clone() }),
            domain: Arc::clone(&domain),
            open: AtomicBool::new(true),
            rebalance: AtomicBool::new(false),
            next_id: AtomicU64::new(shards as u64),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            spanning: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
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
    /// routing table that was live at the crash; each surviving shard
    /// then recovers independently from its own checkpoint + log tail
    /// ([`DynamicPolyFitSum::recover`]) and re-attaches its journal at
    /// the recovered cursor. Orphaned log segments of retired shards
    /// (their cutover record made the layout log before the crash) are
    /// removed. Returns the running server plus per-shard recovery
    /// reports in layout order.
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
        let (layout_ckpt, _rebalances, _truncated) = LayoutLog::recover(wal_dir)?;
        let domain = Domain::new();
        let mut rts = Vec::with_capacity(layout_ckpt.ids.len());
        let mut parts = Vec::with_capacity(layout_ckpt.ids.len());
        let mut reports = Vec::with_capacity(layout_ckpt.ids.len());
        let mut delta = 0.0;
        let mut config = PolyFitConfig::default();
        for (i, &id) in layout_ckpt.ids.iter().enumerate() {
            let name = shard_wal_name(id);
            let (mut index, report) = DynamicPolyFitSum::recover(wal_dir, &name)?;
            index.set_step_budget(0);
            index.attach_wal(wal_dir, &name, policy, report.head_seq)?;
            if i == 0 {
                delta = index.delta();
                config = index.config();
            }
            let rt = Arc::new(ShardRt {
                id,
                queue: ShardQueue::new(),
                snap: Published::new(
                    &domain,
                    ShardSnap {
                        view: index.snapshot(),
                        id,
                        updates_applied: report.head_seq,
                        rebuilds: index.rebuilds() as u64,
                        epoch: 1,
                        len: index.base_len() + index.buffered(),
                    },
                ),
                served: AtomicU64::new(0),
            });
            rts.push(Arc::clone(&rt));
            parts.push((rt, index, report.head_seq));
            reports.push((id, report));
        }
        // The recovered shards are durable again (attach_wal collapsed
        // each checkpoint + tail); fold the replayed rebalances into a
        // fresh layout checkpoint and drop retired shards' stale files.
        let log = LayoutLog::create(wal_dir, &layout_ckpt)?;
        remove_orphan_segments(wal_dir, &layout_ckpt.ids);
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
            spanning: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
            history: Mutex::new(ShardedHistory::default()),
            cfg,
            delta,
            config,
            wal: Some(WalShared { dir: wal_dir.to_path_buf(), policy, layout: Mutex::new(log) }),
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
        ShardHandle { shared: Arc::clone(&self.shared), reader: self.shared.domain.reader() }
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
                served: rt.served.load(Relaxed),
            });
        }
        ShardedStats {
            shards,
            layout_version: layout.version,
            bounds: layout.bounds.clone(),
            submitted: self.shared.submitted.load(Relaxed),
            spanning: self.shared.spanning.load(Relaxed),
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

    /// Stop accepting requests, drain queued work, join every worker
    /// (including rebalance-spawned ones), and return the final stats.
    /// Requests still in flight when a worker dies resolve as poisoned
    /// rather than hanging their clients.
    pub fn shutdown(self) -> ShardedStats {
        self.shared.open.store(false, SeqCst);
        loop {
            {
                let pin = self.reader.pin();
                let layout = self.shared.layout.load(&pin);
                for rt in &layout.shards {
                    rt.queue.close();
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
                // A panicked worker already poisoned its in-flight
                // requests via the SubQuery drop sweep; shutdown stays
                // tolerant so the remaining workers still join.
                let _ = h.join();
            }
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
        let guard = WorkerFailStop { shared: Arc::clone(&shared), queue: Arc::clone(&rt.queue) };
        Worker {
            shared,
            reader,
            rt,
            index,
            updates_applied,
            epoch,
            dirty: false,
            wal_dirty: false,
        }
        .run();
        drop(guard); // normal exit: `panicking()` is false, Drop is a no-op
    })
}

/// Worker-death fail-stop: on an unwinding worker thread, flip the
/// server closed (submits resolve poisoned instead of re-routing into
/// the dead shard forever), close the dead shard's queue, and drain it —
/// dropping each recovered request runs the `SubQuery` poison sweep, so
/// every parked client wakes with a poisoned (not missing, not wrong)
/// answer. Inert on normal exits.
struct WorkerFailStop {
    shared: Arc<ServerShared>,
    queue: Arc<ShardQueue>,
}

impl Drop for WorkerFailStop {
    fn drop(&mut self) {
        if !thread::panicking() {
            return;
        }
        self.shared.open.store(false, SeqCst);
        self.queue.close();
        while let Some(req) = self.queue.pop() {
            drop(req);
        }
        // A rebalance in flight dies with this worker; release the flag
        // so surviving workers are not wedged behind it at shutdown.
        self.shared.rebalance.store(false, SeqCst);
    }
}

/// Forward a recovered straggler update to `queue`, retrying while the
/// rejection is transient (an injected push failure) rather than a real
/// close. A genuinely closed target only happens under shutdown or
/// worker-death fail-stop, where dropping the unacked update is
/// equivalent to a crash before its append.
fn forward_update(queue: &ShardQueue, u: Update) {
    let mut req = Req::Update(u);
    loop {
        match queue.push(req) {
            Ok(()) => return,
            Err(back) => {
                if queue.closed.load(SeqCst) {
                    return;
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
    /// Control-visible state changed since the last publication.
    dirty: bool,
    /// Journal appends not yet fenced to disk. The group-commit fsync
    /// runs at ack points only — before a batch's queries are answered,
    /// before a merge handoff is absorbed, at an idle boundary, and at
    /// shutdown — so write-only windows coalesce their fences.
    wal_dirty: bool,
}

impl Worker {
    fn run(mut self) {
        let _ = self.rt.queue.worker.set(thread::current());
        loop {
            if !self.wait_for_traffic() {
                break;
            }
            let batch = self.collect_window();
            self.process_batch(batch);
            if self.shared.cfg.compaction_budget > 0
                && (self.index.is_compacting() || self.index.needs_compaction())
            {
                self.step_idle_compaction();
                self.maybe_publish();
            }
            if let Flow::Exit = self.maybe_rebalance() {
                return;
            }
        }
        // Closed and drained: push any buffered journal appends to disk
        // and publish the final state so stats and the wait-free read
        // path stay coherent after shutdown.
        self.index.wal_sync().expect("wal sync at shutdown failed (fail-stop)");
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
            if self.shared.cfg.compaction_budget > 0
                && (self.index.is_compacting() || self.index.needs_compaction())
            {
                self.step_idle_compaction();
                self.maybe_publish();
                continue;
            }
            if spins < self.shared.cfg.spin {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            queue.parked.store(true, SeqCst);
            if queue.len.load(SeqCst) > 0 || queue.closed.load(SeqCst) {
                queue.parked.store(false, SeqCst);
                continue;
            }
            thread::park_timeout(IDLE_POLL);
            self.rt.queue.parked.store(false, SeqCst);
            // Idle housekeeping: drain any reclaimable snapshots, and
            // fence deferred journal appends — but only when the queue
            // is still empty after a full park (an empty queue right
            // after a drain usually just means the submitters haven't
            // been scheduled yet; fencing there would pay one fsync per
            // drain cycle). An idle shard never sits on unsynced
            // journal bytes longer than one park interval.
            self.rt.snap.try_reclaim();
            if queue.len.load(SeqCst) == 0 {
                self.wal_fence();
            }
            spins = 0;
        }
    }

    /// Pop up to `max_batch` requests, holding the deadline window open
    /// (yielding, not spinning — on one hardware thread the submitters
    /// need the core to fill the window).
    fn collect_window(&mut self) -> Vec<Req> {
        let cfg = &self.shared.cfg;
        let queue = &self.rt.queue;
        // Failpoint: this window ignores `max_batch` and collects until
        // its deadline. Answers must not depend on batch geometry.
        let max_batch = if crate::failpoint::triggered("shard.batch.oversize") {
            usize::MAX
        } else {
            cfg.max_batch
        };
        let mut out = Vec::new();
        let opened = Instant::now();
        loop {
            if out.len() < max_batch {
                queue.pop_many(max_batch - out.len(), &mut out);
            }
            if out.len() >= max_batch
                || queue.closed.load(SeqCst)
                || opened.elapsed() >= cfg.deadline
            {
                break;
            }
            if queue.len.load(SeqCst) == 0 {
                thread::yield_now();
            }
        }
        out
    }

    /// Apply the batch: drain writes first (every answer in the batch
    /// reflects one quiesced state), publish, then answer all sub-queries
    /// with one engine-batched call.
    fn process_batch(&mut self, batch: Vec<Req>) {
        if batch.is_empty() {
            return;
        }
        // Failpoint: worker death (or a stall) with a drained batch in
        // hand, nothing of it applied or journaled. A panic drop-poisons
        // every request in `batch` and the `WorkerFailStop` guard
        // fail-stops the server; recovery replays the synced prefix.
        crate::failpoint::hit("shard.worker.panic");
        let mut queries: Vec<SubQuery> = Vec::new();
        let mut handoff: Option<Box<MergeHandoff>> = None;
        let mut logged: Vec<Update> = Vec::new();
        for req in batch {
            match req {
                Req::Update(u) => {
                    match u {
                        Update::Insert { key, measure } => self.index.insert(key, measure),
                        Update::Delete { key, measure } => self.index.delete(key, measure),
                    }
                    self.updates_applied += 1;
                    self.dirty = true;
                    self.wal_dirty = true;
                    if self.shared.cfg.record_history {
                        logged.push(u);
                    }
                }
                Req::Query(sq) => queries.push(sq),
                Req::Merge(h) => handoff = Some(h),
            }
        }
        if !logged.is_empty() {
            let mut hist = self.shared.history.lock().expect("history poisoned");
            hist.logs.entry(self.rt.id).or_default().updates.extend(logged);
        }
        // Group commit: one write + fsync covers every deferred append,
        // before any query in this window is answered — an acknowledged
        // answer implies the writes it reflects are durable. Write-only
        // windows defer the fence (nothing is being acked), so a burst
        // of them shares the next window's fsync; a merge handoff also
        // fences, so the journal covers the pre-merge state before the
        // layout changes. Fail-stop on a dead log device: the panic
        // poisons the in-flight requests rather than acking non-durable
        // state.
        //
        // Failpoint: skip one query-ack fence (never a merge handoff's).
        // `wal_dirty` stays set, so the next boundary — idle park, next
        // batch, rebalance or shutdown — forces the sync: injection can
        // delay a fence, never elide it.
        let skip_ack = self.wal_dirty
            && handoff.is_none()
            && !queries.is_empty()
            && crate::failpoint::triggered("shard.fence.skip");
        if (!queries.is_empty() || handoff.is_some()) && !skip_ack {
            self.wal_fence();
        }
        self.maybe_publish();
        if !queries.is_empty() {
            let ranges: Vec<(f64, f64)> = queries.iter().map(|s| (s.lo, s.hi)).collect();
            let answers = DynamicPolyFitSum::query_batch(&self.index, &ranges);
            let batch_len = queries.len();
            let (id, ua, rb, ep) =
                (self.rt.id, self.updates_applied, self.index.rebuilds() as u64, self.epoch);
            self.rt.served.fetch_add(batch_len as u64, Relaxed);
            for (sq, v) in queries.into_iter().zip(answers) {
                let point = ShardPoint {
                    shard: id,
                    lo: sq.lo,
                    hi: sq.hi,
                    updates_applied: ua,
                    rebuilds: rb,
                    epoch: ep,
                };
                sq.answer(v, point, batch_len);
            }
        }
        if let Some(h) = handoff {
            self.absorb(*h);
        }
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
    /// publication — one pointer swap, wait-free for readers.
    fn maybe_publish(&mut self) {
        if !self.dirty {
            return;
        }
        self.epoch += 1;
        self.rt.snap.publish(self.make_snap());
        self.dirty = false;
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
        if self.index.rebuilds() != before {
            self.dirty = true;
        }
    }

    /// Complete any in-flight rebuild (its staging was already
    /// recorded), leaving the index split/merge-ready.
    fn finish_pending_compaction(&mut self) {
        if self.index.is_compacting() {
            let before = self.index.rebuilds();
            self.index.compact_now();
            if self.index.rebuilds() != before {
                self.dirty = true;
            }
        }
    }

    /// Pop-and-process until the queue is momentarily empty, so the
    /// shard's log is complete before a rebalance freezes it.
    fn drain_queue_fully(&mut self) {
        loop {
            let mut batch = Vec::new();
            self.rt.queue.pop_many(usize::MAX, &mut batch);
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
            li.attach_wal(&w.dir, &shard_wal_name(lid), w.policy, 0)
                .expect("wal attach for split child failed (fail-stop)");
            ri.attach_wal(&w.dir, &shard_wal_name(rid), w.policy, 0)
                .expect("wal attach for split child failed (fail-stop)");
            w.layout
                .lock()
                .expect("layout log poisoned")
                .append_sync(&WalRecord::SplitAt { parent: self.rt.id, key, left: lid, right: rid })
                .expect("layout split record failed (fail-stop)");
            let _ = self.index.detach_wal();
            Journal::remove_files(&w.dir, &shard_wal_name(self.rt.id));
        }
        let child_rt = |id: u64, index: &DynamicPolyFitSum| {
            Arc::new(ShardRt {
                id,
                queue: ShardQueue::new(),
                snap: Published::new(
                    &self.shared.domain,
                    ShardSnap {
                        view: index.snapshot(),
                        id,
                        updates_applied: 0,
                        rebuilds: 0,
                        epoch: 1,
                        len: index.base_len() + index.buffered(),
                    },
                ),
                served: AtomicU64::new(0),
            })
        };
        let (lrt, rrt) = (child_rt(lid, &li), child_rt(rid, &ri));
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
        // Stragglers that raced the close: updates forward to the owning
        // child (its worker logs them on application); queries answer
        // from the parent's final state — every update routed to the
        // parent before the close is already folded in, so the session
        // guarantee holds.
        let (pid, pua, prb, pep) =
            (self.rt.id, self.updates_applied, self.index.rebuilds() as u64, self.epoch);
        while let Some(req) = self.rt.queue.pop() {
            match req {
                Req::Update(u) => {
                    let side = if u.key() <= key { &lrt } else { &rrt };
                    forward_update(&side.queue, u);
                }
                Req::Query(sq) => {
                    let v = DynamicPolyFitSum::query(&self.index, sq.lo, sq.hi);
                    let point = ShardPoint {
                        shard: pid,
                        lo: sq.lo,
                        hi: sq.hi,
                        updates_applied: pua,
                        rebuilds: prb,
                        epoch: pep,
                    };
                    sq.answer(v, point, 1);
                }
                Req::Merge(_) => unreachable!("rebalances are serialized"),
            }
        }
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
            queue: Arc::clone(&self.rt.queue),
            snap: self.index.snapshot(),
            updates_applied: self.updates_applied,
            rebuilds: self.index.rebuilds() as u64,
            epoch: self.epoch,
        });
        // Failpoint: the retiring shard is frozen, fenced, and closed,
        // but the handoff has not reached the neighbour — a panic here
        // loses only in-memory state the journal already covers; a delay
        // races queries against the closed queue.
        crate::failpoint::hit("shard.merge.handoff");
        let mut req = Req::Merge(handoff);
        loop {
            match neighbour.queue.push(req) {
                Ok(()) => return Flow::Exit,
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
                    // that while we hold the rebalance flag. Drain our
                    // own stragglers (the drop sweep poisons any query
                    // we cannot answer sensibly) and exit.
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

    /// Answer/apply whatever raced into the closed queue before exit.
    fn drain_closed_leftovers(&mut self) {
        let mut batch = Vec::new();
        while let Some(r) = self.rt.queue.pop() {
            batch.push(r);
        }
        self.process_batch(batch);
        self.wal_fence();
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
            w.layout
                .lock()
                .expect("layout log poisoned")
                .append_sync(&WalRecord::Merge { left: left_id, right: right_id, merged: mid })
                .expect("layout merge record failed (fail-stop)");
            let _ = self.index.detach_wal();
            Journal::remove_files(&w.dir, &shard_wal_name(left_id));
            Journal::remove_files(&w.dir, &shard_wal_name(right_id));
        }
        let new_rt = Arc::new(ShardRt {
            id: mid,
            queue: ShardQueue::new(),
            snap: Published::new(
                &self.shared.domain,
                ShardSnap {
                    view: merged.snapshot(),
                    id: mid,
                    updates_applied: 0,
                    rebuilds: 0,
                    epoch: 1,
                    len: merged.base_len() + merged.buffered(),
                },
            ),
            served: AtomicU64::new(0),
        });
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
        let old_rt = Arc::clone(&self.rt);
        old_rt.queue.close();
        // Adopt stragglers from both retired queues. Updates re-queue on
        // the merged shard (logged on application, key-disjoint across
        // the two sources); queries answer from the respective final
        // frozen states.
        let (oid, oua, orb, oep) =
            (old_rt.id, self.updates_applied, self.index.rebuilds() as u64, self.epoch);
        while let Some(req) = old_rt.queue.pop() {
            match req {
                Req::Update(u) => {
                    forward_update(&new_rt.queue, u);
                }
                Req::Query(sq) => {
                    let v = DynamicPolyFitSum::query(&self.index, sq.lo, sq.hi);
                    let point = ShardPoint {
                        shard: oid,
                        lo: sq.lo,
                        hi: sq.hi,
                        updates_applied: oua,
                        rebuilds: orb,
                        epoch: oep,
                    };
                    sq.answer(v, point, 1);
                }
                Req::Merge(_) => unreachable!("rebalances are serialized"),
            }
        }
        while let Some(req) = h.queue.pop() {
            match req {
                Req::Update(u) => {
                    forward_update(&new_rt.queue, u);
                }
                Req::Query(sq) => {
                    let v = h.snap.query(sq.lo, sq.hi);
                    let point = ShardPoint {
                        shard: h.id,
                        lo: sq.lo,
                        hi: sq.hi,
                        updates_applied: h.updates_applied,
                        rebuilds: h.rebuilds,
                        epoch: h.epoch,
                    };
                    sq.answer(v, point, 1);
                }
                Req::Merge(_) => unreachable!("rebalances are serialized"),
            }
        }
        self.rt = new_rt;
        self.index = merged;
        self.index.set_step_budget(0);
        self.updates_applied = 0;
        self.epoch = 1;
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
    fn deadline_window_coalesces_tickets_into_batches() {
        // One shard, generous window: tickets submitted back-to-back must
        // coalesce into shared sweeps.
        let server = ShardedServer::start(
            records(1000),
            10.0,
            capped(),
            ShardConfig {
                deadline: Duration::from_millis(100),
                max_batch: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let handle = server.handle();
        let tickets: Vec<ShardTicket> = (0..64).map(|i| handle.submit(i as f64, 450.0)).collect();
        let mut max_batch = 0;
        for (i, t) in tickets.into_iter().enumerate() {
            let served = t.wait();
            assert!(!served.poisoned, "ticket {i}");
            let direct = handle.snapshot_query(i as f64, 450.0);
            assert_eq!(served.value().map(f64::to_bits), direct.value().map(f64::to_bits));
            max_batch = max_batch.max(served.batch_len);
        }
        assert!(max_batch >= 2, "a 100ms window must coalesce back-to-back submissions");
        server.shutdown();
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
        // Force the live path to quiesce so snapshots observe the writes.
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
        // Quiesce, then probe across the (possibly split) layout.
        for i in 0..40 {
            observed.push(handle.query_served(i as f64 * 18.0 - 4.0, i as f64 * 18.0 + 420.0));
        }
        let stats = server.stats();
        assert!(stats.splits >= 1, "split threshold must have fired: {stats:?}");
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
        let stats = server.stats();
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
    fn shutdown_drains_pending_requests() {
        let server = ShardedServer::start(
            records(600),
            8.0,
            capped(),
            ShardConfig { shards: 2, deadline: Duration::from_millis(40), ..Default::default() },
        )
        .unwrap();
        let handle = server.handle();
        let tickets: Vec<ShardTicket> = (0..24).map(|i| handle.submit(i as f64, 250.0)).collect();
        server.shutdown();
        for t in tickets {
            let served = t.wait();
            assert!(!served.poisoned, "shutdown must answer queued requests");
            assert!(served.answer.is_some());
        }
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
    fn recovered_subquery_defuses_instead_of_poisoning_the_slot() {
        let slot = GatherSlot::new();
        let queue = ShardQueue::new();
        queue.close();
        let sq = SubQuery {
            lo: 0.0,
            hi: 1.0,
            sink: QuerySink::Single { slot: Arc::clone(&slot), bound: 2.0 },
            deposited: false,
        };
        match queue.push(Req::Query(sq)) {
            Ok(()) => panic!("closed queue must hand the request back"),
            Err(Req::Query(back)) => back.defuse(),
            Err(_) => unreachable!("push hands back the request it was given"),
        }
        // The write-once slot must still be empty for the re-route.
        assert!(!slot.done.load(SeqCst), "defused sub-query must not pre-fill the slot");
        slot.finish(ShardServed {
            answer: Some(RangeAggregate::absolute(4.0, 2.0)),
            shards: Vec::new(),
            batch_len: 1,
            poisoned: false,
        });
        let served = slot.wait(0);
        assert!(!served.poisoned, "re-routed answer must win, not the drop sweep");
        assert_eq!(served.value(), Some(4.0));
    }

    #[test]
    fn gather_with_failed_last_part_never_composes_poisoned() {
        let slot = GatherSlot::new();
        let gather = Arc::new(GatherState::new(2, Arc::clone(&slot), 2.0));
        // Part 0 already answered by its worker.
        let point =
            ShardPoint { shard: 0, lo: 0.0, hi: 1.0, updates_applied: 0, rebuilds: 0, epoch: 1 };
        gather.deposit(0, PartState::Done { value: 1.0, point, batch_len: 1 });
        // Part 1's push failed mid-scatter: the recovery order is cancel
        // first, then defuse the recovered request — `remaining` can no
        // longer reach zero, so nothing composes into the client slot.
        gather.cancelled.store(true, SeqCst);
        let sq = SubQuery {
            lo: 1.0,
            hi: 2.0,
            sink: QuerySink::Gather { gather: Arc::clone(&gather), part: 1 },
            deposited: false,
        };
        sq.defuse();
        assert!(!slot.done.load(SeqCst), "abandoned gather must leave the slot for the re-route");
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
        // Quiesce the layout (query_served drains each shard's queue past
        // the writes) before reading the pre-crash routing table.
        let _ = probe_values(&handle, &probes);
        let pre = server.stats();
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
    fn sharded_wal_recovers_acked_writes_without_shutdown() {
        let dir = wal_dir("crash-no-shutdown");
        // EveryUpdate: an applied update is on disk before its window's
        // answers go out, so recovery from the live directory — no
        // shutdown, no final syncs — must still reproduce every state a
        // served answer reflected.
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
        // query_served quiesces each shard past its queued writes; the
        // acks imply the journal covers them.
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
