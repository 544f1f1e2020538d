//! Cross-implementation conformance test for the query-boundary contract
//! (`polyfit::classify_bounds`): a serving layer forwards `(lo, hi)`
//! pairs from untrusted clients into whatever index sits behind the
//! trait object, so every implementation must agree on what degenerate
//! bounds mean —
//!
//! * non-finite endpoint (NaN or ±∞) ⇒ `None`;
//! * reversed bounds (`lo > hi`)     ⇒ the empty-range answer
//!   (`Some(0)` for SUM/COUNT-family queries, `None` for extremum and
//!   average queries);
//! * `query_batch` agrees with `query` bit-for-bit on all of it, and
//!   `query_batch_rect` with `query_rect`.

use polyfit_suite::baselines::{
    EquiDepthHistogram, FitingTree, Rmi, S2Dispatch, S2Mode, S2Sampler, STree,
};
use polyfit_suite::exact::dataset::{dedup_max, dedup_sum, sort_records, Record};
use polyfit_suite::exact::{ARTree, AggTree, BPlusTree, KeyCumulativeArray};
use polyfit_suite::polyfit::prelude::*;
use polyfit_suite::polyfit::{CertifiedRelSum, PolyFitMax, PolyFitSum, RelDispatch};

fn sum_records(n: usize) -> Vec<Record> {
    let mut rs: Vec<Record> =
        (0..n).map(|i| Record::new(i as f64 * 0.75, 1.0 + ((i * 7) % 5) as f64)).collect();
    sort_records(&mut rs);
    dedup_sum(rs)
}

fn max_records(n: usize) -> Vec<Record> {
    let mut rs: Vec<Record> =
        (0..n).map(|i| Record::new(i as f64, 50.0 + ((i as f64) * 0.11).sin() * 20.0)).collect();
    sort_records(&mut rs);
    dedup_max(rs)
}

/// The probe battery: every degenerate shape a hostile client can send,
/// plus proper ranges so batch splicing is exercised around them.
fn probes(lo_key: f64, hi_key: f64) -> Vec<(f64, f64)> {
    let mid = (lo_key + hi_key) / 2.0;
    vec![
        (lo_key, hi_key),                   // proper, full domain
        (mid, hi_key),                      // proper
        (hi_key, lo_key),                   // reversed, finite
        (mid + 1.0, mid),                   // reversed, adjacent
        (mid, mid),                         // degenerate (proper)
        (f64::NAN, mid),                    // NaN low
        (mid, f64::NAN),                    // NaN high
        (f64::NAN, f64::NAN),               // NaN both
        (f64::NEG_INFINITY, mid),           // -inf low
        (mid, f64::INFINITY),               // +inf high
        (f64::NEG_INFINITY, f64::INFINITY), // full-infinite
        (f64::INFINITY, f64::NEG_INFINITY), // infinite *and* reversed
        (f64::NAN, f64::NEG_INFINITY),      // NaN + inf
        (lo_key - 100.0, lo_key - 50.0),    // proper, left of domain
        (hi_key + 1.0, hi_key + 2.0),       // proper, right of domain
        (mid, hi_key + 1e6),                // proper, overhanging
    ]
}

/// All 12 core `AggregateIndex` implementations plus the 1-D baseline
/// impls, each tagged with its aggregate family for the reversed-bounds
/// expectation.
fn all_methods() -> Vec<Box<dyn AggregateIndex>> {
    let records = sum_records(3000);
    let maxrec = max_records(3000);
    let keys: Vec<f64> = records.iter().map(|r| r.key).collect();
    let mut cf = Vec::with_capacity(records.len());
    let mut acc = 0.0;
    for r in &records {
        acc += r.measure;
        cf.push(acc);
    }

    let mut dynamic =
        DynamicPolyFitSum::new(records.clone(), 20.0, PolyFitConfig::default(), 1_000_000).unwrap();
    for i in 0..100 {
        dynamic.insert(keys[0] + 0.1 + i as f64 * 0.31, 2.0);
    }

    vec![
        // -- the 12 core impls ------------------------------------------------
        Box::new(PolyFitSum::build(records.clone(), 20.0, PolyFitConfig::default()).unwrap()),
        Box::new(PolyFitMax::build(maxrec.clone(), 5.0, PolyFitConfig::default()).unwrap()),
        Box::new(PolyFitMax::build_min(maxrec.clone(), 5.0, PolyFitConfig::default()).unwrap()),
        Box::new(dynamic),
        Box::new(KeyCumulativeArray::new(&records)),
        Box::new(BPlusTree::new(&records)),
        Box::new(AggTree::new(&maxrec)),
        Box::new(GuaranteedSum::with_abs_guarantee(records.clone(), 40.0, Default::default())),
        Box::new(GuaranteedMax::with_abs_guarantee(maxrec.clone(), 5.0, Default::default())),
        Box::new(GuaranteedMin::with_abs_guarantee(maxrec.clone(), 5.0, Default::default())),
        Box::new(GuaranteedAvg::with_abs_guarantees(
            records.clone(),
            30.0,
            8.0,
            Default::default(),
        )),
        Box::new(CertifiedRelSum::new(
            PolyFitSum::build(records.clone(), 20.0, PolyFitConfig::default()).unwrap(),
            KeyCumulativeArray::new(&records),
            20.0,
            0.05,
        )),
        // -- relative dispatch adapters ---------------------------------------
        Box::new(RelDispatch::new(
            GuaranteedSum::with_rel_guarantee(records.clone(), 30.0, Default::default()),
            0.05,
        )),
        Box::new(RelDispatch::new(
            GuaranteedMax::with_rel_guarantee(maxrec.clone(), 2.0, Default::default()),
            0.1,
        )),
        Box::new(RelDispatch::new(
            GuaranteedMin::with_rel_guarantee(maxrec.clone(), 2.0, Default::default()),
            0.1,
        )),
        // -- learned / heuristic baselines ------------------------------------
        Box::new(Rmi::new(keys.clone(), cf.clone(), &[1, 8, 64], 25.0)),
        Box::new(FitingTree::new(&keys, &cf, 25.0)),
        Box::new(EquiDepthHistogram::new(&keys, &cf, 32)),
        Box::new(STree::new(&keys, 0.5, 7)),
        Box::new(S2Dispatch::new(S2Sampler::new(keys.clone()), S2Mode::Abs(200.0), 7)),
    ]
}

/// True for families whose empty-range answer is `Some(0)`; extremum and
/// average families answer `None`.
fn sum_family(kind: AggregateKind) -> bool {
    matches!(kind, AggregateKind::Sum | AggregateKind::Count)
}

#[test]
fn reversed_and_non_finite_bounds_answer_uniformly() {
    let lo_key = 0.0;
    let hi_key = 3000.0;
    for m in &all_methods() {
        // Non-finite endpoints: None, always.
        for &(lo, hi) in probes(lo_key, hi_key).iter() {
            if !lo.is_finite() || !hi.is_finite() {
                assert!(
                    m.query(lo, hi).is_none(),
                    "{} ({:?}): non-finite ({lo}, {hi}] must answer None",
                    m.name(),
                    m.kind()
                );
            }
        }
        // Reversed bounds: the family's empty-range answer.
        for &(lo, hi) in &[(hi_key, lo_key), (1.0 + 1e-9, 1.0)] {
            let ans = m.query(lo, hi);
            if sum_family(m.kind()) {
                let a = ans.unwrap_or_else(|| {
                    panic!("{} ({:?}): reversed must answer Some(0)", m.name(), m.kind())
                });
                assert_eq!(
                    a.value,
                    0.0,
                    "{} ({:?}): reversed range must sum to 0",
                    m.name(),
                    m.kind()
                );
            } else {
                assert!(
                    ans.is_none(),
                    "{} ({:?}): reversed extremum/average must answer None",
                    m.name(),
                    m.kind()
                );
            }
        }
    }
}

/// `query_batch` answers the battery exactly like per-range `query`
/// calls. (The name also covered a thread-parallel batch path, since
/// removed: the batch engine is the one batch path left.)
#[test]
fn batch_and_parallel_batch_agree_with_query_on_degenerate_bounds() {
    let battery = probes(0.0, 3000.0);
    for m in &all_methods() {
        let batch = m.query_batch(&battery);
        assert_eq!(batch.len(), battery.len(), "{}", m.name());
        for (i, &(lo, hi)) in battery.iter().enumerate() {
            match (&batch[i], &m.query(lo, hi)) {
                (Some(b), Some(s)) => {
                    assert_eq!(
                        b.value.to_bits(),
                        s.value.to_bits(),
                        "{} probe {i} ({lo}, {hi}]",
                        m.name()
                    );
                    assert_eq!(b.guarantee, s.guarantee, "{} probe {i}", m.name());
                    assert_eq!(b.used_fallback, s.used_fallback, "{} probe {i}", m.name());
                }
                (None, None) => {}
                other => panic!("{} probe {i} ({lo}, {hi}]: {other:?}", m.name()),
            }
        }
    }
}

/// The 2-D implementations honor the same contract on rectangles.
#[test]
fn rect_queries_honor_the_contract() {
    let points: Vec<polyfit_suite::exact::Point2d> = (0..900)
        .map(|i| polyfit_suite::exact::Point2d::new((i % 30) as f64, (i / 30) as f64, 1.0))
        .collect();
    let artree = ARTree::new(points.clone());
    let quad = QuadPolyFit::build(&points, 5.0, Quad2dConfig::default()).unwrap();
    let abs =
        Guaranteed2dCount::with_abs_guarantee(&points, 20.0, Quad2dConfig::default()).unwrap();
    let rel = RelDispatch2d::new(
        Guaranteed2dCount::with_rel_guarantee(points.clone(), 5.0, Quad2dConfig::default())
            .unwrap(),
        0.1,
    );
    let methods: Vec<&dyn AggregateIndex2d> = vec![&artree, &quad, &abs, &rel];
    for m in &methods {
        // Non-finite on either axis: None.
        for &(a, b, c, d) in &[
            (f64::NAN, 10.0, 0.0, 10.0),
            (0.0, 10.0, f64::INFINITY, 20.0),
            (f64::NEG_INFINITY, f64::INFINITY, 0.0, 10.0),
        ] {
            assert!(m.query_rect(a, b, c, d).is_none(), "{}: non-finite rect", m.name());
        }
        // Reversed on either axis: the empty COUNT.
        for &(a, b, c, d) in &[(10.0, 0.0, 0.0, 10.0), (0.0, 10.0, 20.0, 10.0)] {
            let ans = m
                .query_rect(a, b, c, d)
                .unwrap_or_else(|| panic!("{}: reversed rect must answer Some(0)", m.name()));
            assert_eq!(ans.value, 0.0, "{}: reversed rect must count 0", m.name());
        }
        // query_batch_rect agrees with query_rect on the battery.
        let rects = vec![
            (0.0, 20.0, 0.0, 20.0),
            (20.0, 0.0, 0.0, 20.0),
            (f64::NAN, 1.0, 0.0, 1.0),
            (5.0, 5.0, 5.0, 5.0),
        ];
        let batch = m.query_batch_rect(&rects);
        for (i, &(a, b, c, d)) in rects.iter().enumerate() {
            let single = m.query_rect(a, b, c, d);
            assert_eq!(
                batch[i].map(|x| x.value.to_bits()),
                single.map(|x| x.value.to_bits()),
                "{} rect {i}",
                m.name()
            );
        }
    }
}
