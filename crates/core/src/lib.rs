//! # polyfit — polynomial-based learned index for approximate range
//! # aggregate queries
//!
//! A from-scratch Rust reproduction of **PolyFit** (Li, Chan, Yiu, Jensen —
//! *PolyFit: Polynomial-based Indexing Approach for Fast Approximate Range
//! Aggregate Queries*, EDBT 2021). PolyFit replaces the `n` keys of a
//! traditional index with a small number `h ≪ n` of minimax-fitted
//! polynomial segments over a target function derived from the data:
//!
//! * **SUM / COUNT** — segments approximate the cumulative function
//!   `CF(k)`; a range aggregate is `P(uq) − P(lq)`, two `O(deg)` Horner
//!   evaluations after an `O(log h)` segment lookup.
//! * **MAX / MIN** — segments approximate the key–measure step function
//!   `DF(k)`; a range extremum combines exact per-segment aggregates for
//!   fully covered segments with closed-form maximisation of the two
//!   boundary polynomials (stationary points via root isolation).
//! * **Two keys** — a quadtree of bivariate polynomial patches approximates
//!   the 2-D cumulative surface; a rectangle COUNT is 4 patch evaluations
//!   (inclusion–exclusion).
//!
//! Every index is built under the **bounded δ-error constraint**
//! (Definition 3): greedy segmentation ([`segmentation`]) produces the
//! *minimum* number of segments such that each one's minimax fitting error
//! is ≤ δ (Theorem 1). Query drivers ([`drivers`]) then turn δ into
//! user-facing guarantees: absolute error `ε_abs` (Problem 1; Lemmas 2/4/6)
//! and relative error `ε_rel` with a certified exact fallback (Problem 2;
//! Lemmas 3/5/7).
//!
//! ## Quick start
//!
//! ```
//! use polyfit::prelude::*;
//!
//! // (key, measure) records — e.g. timestamped sensor readings.
//! let records: Vec<Record> = (0..10_000)
//!     .map(|i| Record::new(i as f64, 1.0 + (i % 10) as f64))
//!     .collect();
//!
//! // An index answering range SUM within ±50, built per Lemma 2.
//! let driver = GuaranteedSum::with_abs_guarantee(records.clone(), 50.0, PolyFitConfig::default());
//! let approx = driver.query_abs(1000.0, 9000.0);
//! let exact: f64 = records.iter()
//!     .filter(|r| r.key > 1000.0 && r.key <= 9000.0)
//!     .map(|r| r.measure).sum();
//! assert!((approx - exact).abs() <= 50.0);
//! ```

pub mod build;
pub mod config;
pub mod directory;
pub mod drivers;
pub mod dynamic;
pub mod epoch;
pub mod error;
pub mod failpoint;
pub mod function;
pub mod index_max;
pub mod index_sum;
pub mod segment;
pub mod segmentation;
pub mod serialize;
pub mod shard;
pub mod stats;
pub mod traits;
pub mod twod;
pub mod twod_directory;
pub mod wal;
pub mod workqueue;

pub use build::{segment_function, BuildOptions, SegmentationMethod};
pub use config::PolyFitConfig;
pub use directory::CompiledDirectory;
pub use drivers::{
    AvgAnswer, GuaranteedAvg, GuaranteedMax, GuaranteedMin, GuaranteedSum, RelAnswer,
};
pub use dynamic::{
    CompactionReport, CompactionStatus, DynamicPolyFitSum, DynamicSnapshot, Update,
    DEFAULT_STEP_BUDGET,
};
pub use error::PolyFitError;
pub use function::{
    cumulative_function, cumulative_function_sorted, step_function, TargetFunction,
};
pub use index_max::{Extremum, PolyFitMax};
pub use index_sum::PolyFitSum;
pub use segment::Segment;
pub use segmentation::{dp_segmentation, greedy_segmentation, SegmentSpec};
pub use serialize::{decode_wal_record, encode_wal_record, DecodeError, WalRecord};
pub use shard::{
    RebalanceRecord, ShardConfig, ShardHandle, ShardPoint, ShardServed, ShardStats, ShardTicket,
    ShardedHistory, ShardedOracle, ShardedServer, ShardedStats,
};
pub use stats::{IndexStats, SegmentStats, SegmentStatsSummary};
pub use traits::{
    classify_bounds, classify_rect_bounds, guarded_batch, AggregateIndex, AggregateIndex2d,
    AggregateKind, CertifiedRelSum, Guarantee, QueryBounds, RangeAggregate, RelDispatch,
    RelDispatch2d, SharedIndex,
};
pub use twod::{GridCF, Guaranteed2dCount, Quad2dConfig, QuadPolyFit};
pub use twod_directory::TwodDirectory;
pub use wal::{
    atomic_write, Journal, LayoutCheckpoint, LayoutLog, RecoveryReport, SyncPolicy, WalError,
    WalScan,
};
pub use workqueue::{oversubscribed_bounds, run_indexed_queue};

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::build::{BuildOptions, SegmentationMethod};
    pub use crate::config::PolyFitConfig;
    pub use crate::drivers::{
        AvgAnswer, GuaranteedAvg, GuaranteedMax, GuaranteedMin, GuaranteedSum, RelAnswer,
    };
    pub use crate::dynamic::{
        CompactionReport, CompactionStatus, DynamicPolyFitSum, DynamicSnapshot, Update,
    };
    pub use crate::index_max::PolyFitMax;
    pub use crate::index_sum::PolyFitSum;
    pub use crate::shard::{
        ShardConfig, ShardHandle, ShardPoint, ShardServed, ShardTicket, ShardedOracle,
        ShardedServer, ShardedStats,
    };
    pub use crate::stats::{IndexStats, SegmentStats, SegmentStatsSummary};
    pub use crate::traits::{
        classify_bounds, AggregateIndex, AggregateIndex2d, AggregateKind, CertifiedRelSum,
        Guarantee, QueryBounds, RangeAggregate, RelDispatch, RelDispatch2d, SharedIndex,
    };
    pub use crate::twod::{Guaranteed2dCount, Quad2dConfig, QuadPolyFit};
    pub use crate::twod_directory::TwodDirectory;
    pub use crate::wal::{Journal, RecoveryReport, SyncPolicy, WalError};
    pub use polyfit_exact::dataset::{Point2d, Record};
    pub use polyfit_lp::{Fit2dBackend, FitBackend};
}
