//! Byte-identity gate for the SUM build: serial `PolyFitSum` builds over
//! TWEET and HKI must encode to the exact PFS2 bytes pinned below, across
//! δ and degree. The digests were recorded from the full-fit greedy
//! segmentation (every probe a converged exchange fit), so any change to
//! how segments are searched, fitted or certified that moves a single
//! coefficient, residual or segment end fails here.
//!
//! The same gate holds the PFD2 bytes `DynamicPolyFitSum::to_bytes`
//! writes — base block, record run and buffered deltas — for dynamic
//! indexes as built, with buffered inserts and deletes, after a
//! compaction, and with deltas buffered on the compacted base; those
//! digests were recorded with the field-by-field record codec.

use polyfit_suite::data::{generate_hki, generate_tweet};
use polyfit_suite::exact::dataset::Record;
use polyfit_suite::polyfit::dynamic::DynamicPolyFitSum;
use polyfit_suite::polyfit::prelude::*;
use polyfit_suite::polyfit::PolyFitSum;

const KEYS: usize = 20_000;
const DELTAS: [f64; 4] = [0.5, 5.0, 50.0, 500.0];
const DEGREES: [usize; 4] = [1, 2, 3, 8];

/// FNV-1a over the whole encoding.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// `(δ, degree, segments, digest)` for every build of `records`.
fn digests(records: &[Record]) -> Vec<(f64, usize, usize, u64)> {
    let mut out = Vec::new();
    for delta in DELTAS {
        for degree in DEGREES {
            let idx = PolyFitSum::build_with(
                records.to_vec(),
                delta,
                PolyFitConfig::with_degree(degree),
                &BuildOptions::default(),
            )
            .unwrap();
            out.push((delta, degree, idx.num_segments(), fnv1a(&idx.to_bytes())));
        }
    }
    out
}

fn check(name: &str, data: &[polyfit_suite::data::Record], pinned: &[(f64, usize, usize, u64)]) {
    let records: Vec<Record> = data.iter().map(|r| Record::new(r.key, r.measure)).collect();
    let got = digests(&records);
    let listing: String =
        got.iter().map(|(d, g, s, h)| format!("    ({d:?}, {g}, {s}, 0x{h:016x}),\n")).collect();
    assert_eq!(got, pinned, "{name} PFS2 digests moved; this build reads:\n{listing}");
}

#[test]
fn tweet_sum_builds_keep_their_bytes() {
    check(
        "TWEET",
        &generate_tweet(KEYS, 42),
        &[
            (0.5, 1, 4086, 0x13a6980b60a936b2),
            (0.5, 2, 3072, 0xd71070313a8abf85),
            (0.5, 3, 2420, 0xbc9931a3b1cb6eaf),
            (0.5, 8, 1302, 0x6442dae0a04de2fb),
            (5.0, 1, 207, 0xf40fa317b46a1cb5),
            (5.0, 2, 142, 0x1917c91627f530bf),
            (5.0, 3, 111, 0x0c9fe3c3db429a15),
            (5.0, 8, 60, 0xdd06603b5d606701),
            (50.0, 1, 24, 0x4322c15631eca10c),
            (50.0, 2, 16, 0x93507cb502506e7f),
            (50.0, 3, 12, 0xf40a1601fc03e5b1),
            (50.0, 8, 6, 0x9e25b2f85d3010c0),
            (500.0, 1, 6, 0xab33b9075cdff82a),
            (500.0, 2, 5, 0x992168ed66c522b0),
            (500.0, 3, 4, 0x11d7dae09144077f),
            (500.0, 8, 2, 0x28071af179833ff3),
        ],
    );
}

#[test]
fn hki_sum_builds_keep_their_bytes() {
    check(
        "HKI",
        &generate_hki(KEYS, 42),
        &[
            (0.5, 1, 9168, 0xb3fc83b4e2cb6435),
            (0.5, 2, 5972, 0xb335f55e661bde41),
            (0.5, 3, 4541, 0x9b32d75a90ec963d),
            (0.5, 8, 2071, 0x391cf633eb63df98),
            (5.0, 1, 3469, 0x4ef2f1098b261df6),
            (5.0, 2, 2173, 0xf76d38b5729bbbc9),
            (5.0, 3, 1623, 0x36d77bdb677b5b37),
            (5.0, 8, 760, 0x6227c9d8edbc3c45),
            (50.0, 1, 796, 0x7b0e96f65240a04f),
            (50.0, 2, 477, 0x41cc18c65d0b1cc1),
            (50.0, 3, 358, 0xf5e06a7967d1aeb4),
            (50.0, 8, 166, 0xf51a77b17271bb55),
            (500.0, 1, 178, 0x02b89a50dac18a18),
            (500.0, 2, 109, 0xaaf4dca6bdf6ac47),
            (500.0, 3, 83, 0xed4d0880e6078f7c),
            (500.0, 8, 37, 0xfb95a7f88335baaf),
        ],
    );
}

/// `(δ, stage, digest)` of the PFD2 bytes of a dynamic index over
/// `records` at four stages: as built, with buffered updates (inserts
/// between keys, full deletes, additions to existing keys), after a
/// blocking compaction, and with more updates buffered on the compacted
/// base.
fn dynamic_digests(records: &[Record]) -> Vec<(f64, &'static str, u64)> {
    let mut out = Vec::new();
    for delta in [5.0, 50.0] {
        let mut idx =
            DynamicPolyFitSum::new(records.to_vec(), delta, PolyFitConfig::default(), 1 << 20)
                .unwrap();
        idx.set_step_budget(0);
        out.push((delta, "built", fnv1a(&idx.to_bytes())));
        let n = records.len();
        for i in (0..n - 1).step_by(101) {
            idx.insert(0.5 * (records[i].key + records[i + 1].key), 1.5);
        }
        for i in (0..n).step_by(173) {
            idx.delete(records[i].key, records[i].measure);
        }
        for i in (50..n).step_by(211) {
            idx.insert(records[i].key, 2.0);
        }
        out.push((delta, "buffered", fnv1a(&idx.to_bytes())));
        assert!(idx.begin_compaction());
        idx.compact_now();
        out.push((delta, "compacted", fnv1a(&idx.to_bytes())));
        for i in (7..n).step_by(307) {
            idx.insert(records[i].key + 0.25, 0.75);
            idx.delete(records[i - 7].key, 0.5 * records[i - 7].measure);
        }
        out.push((delta, "compacted+buffered", fnv1a(&idx.to_bytes())));
    }
    out
}

fn check_dynamic(
    name: &str,
    data: &[polyfit_suite::data::Record],
    pinned: &[(f64, &'static str, u64)],
) {
    let records: Vec<Record> = data.iter().map(|r| Record::new(r.key, r.measure)).collect();
    let got = dynamic_digests(&records);
    let listing: String =
        got.iter().map(|(d, s, h)| format!("    ({d:?}, {s:?}, 0x{h:016x}),\n")).collect();
    assert_eq!(got, pinned, "{name} PFD2 digests moved; this build reads:\n{listing}");
}

#[test]
fn dynamic_pfd2_bytes_are_pinned() {
    check_dynamic(
        "TWEET",
        &generate_tweet(KEYS, 42),
        &[
            (5.0, "built", 0xc82feb38dae7560e),
            (5.0, "buffered", 0x565beb8335663490),
            (5.0, "compacted", 0x0db3cbd142fbd5de),
            (5.0, "compacted+buffered", 0x0a8ae76a9a33d11e),
            (50.0, "built", 0x656321580a0a25cc),
            (50.0, "buffered", 0x781bc250fbc5d11a),
            (50.0, "compacted", 0x000f8271c62d036f),
            (50.0, "compacted+buffered", 0x103a22d31307628f),
        ],
    );
    check_dynamic(
        "HKI",
        &generate_hki(KEYS, 42),
        &[
            (5.0, "built", 0x97bf4d0ac927fed3),
            (5.0, "buffered", 0x6ed7a0a609dc7c6a),
            (5.0, "compacted", 0xf9e8b1264fb0c319),
            (5.0, "compacted+buffered", 0x2841e26e107e3901),
            (50.0, "built", 0xa1f76ac03cbc0adc),
            (50.0, "buffered", 0x64fbf68da6ea34f1),
            (50.0, "compacted", 0xf036f6841132d048),
            (50.0, "compacted+buffered", 0xb81da0d40eccdb90),
        ],
    );
}
