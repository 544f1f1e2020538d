//! Binary serialization for the 1-D indexes.
//!
//! A downstream system wants to build once and ship the index next to the
//! data. The format is a deliberately simple little-endian layout (magic,
//! header, per-segment records) — the logical content matches
//! `Segment::logical_size_bytes` plus explicit per-segment metadata, with
//! no dependencies and no unsafe code.

use polyfit_poly::{monomial_count, BivariatePoly, Polynomial, ShiftedPolynomial};

use crate::index_max::{Extremum, PolyFitMax};
use crate::index_sum::PolyFitSum;
use crate::segment::Segment;
use crate::stats::SegmentStats;
use crate::twod::{Lattice, Node, QuadPolyFit};

// "PFS2": v2 of the CF layout — adds a flags word and an optional
// per-segment statistics block (point spans, residual certificates,
// endpoint state) so reloaded indexes keep compaction incremental.
const MAGIC_SUM: &[u8; 4] = b"PFS2";
// "PFM2": v2 of the staircase layout — v1 (never shipped; the seed tree
// could not compile) lacked the orientation field.
const MAGIC_MAX: &[u8; 4] = b"PFM2";
// "PFQ1": the 2-D quadtree layout. Split planes are *not* stored — they
// always bisect the lattice index range, so the decoder recomputes each
// `mid` from the shared lattice geometry, bit for bit.
const MAGIC_QUAD: &[u8; 4] = b"PFQ1";

/// Header flag: the segment-statistics block follows the segments.
const FLAG_SEGMENT_STATS: u32 = 1;

/// Errors from [`PolyFitSum::from_bytes`] / [`PolyFitMax::from_bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes (not a PolyFit index, or the wrong index kind).
    BadMagic,
    /// Input ended prematurely or lengths are inconsistent.
    Truncated,
    /// A decoded value is not finite / structurally invalid.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::Corrupt(what) => write!(f, "corrupt field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

pub(crate) struct Writer(pub(crate) Vec<u8>);

impl Writer {
    pub(crate) fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub(crate) fn finite(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        finite(self.f64()?, what)
    }
}

/// `v` when it is finite, else `Corrupt(what)`.
pub(crate) fn finite(v: f64, what: &'static str) -> Result<f64, DecodeError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(DecodeError::Corrupt(what))
    }
}

fn write_segments(w: &mut Writer, segments: &[Segment]) {
    w.u32(segments.len() as u32);
    for s in segments {
        w.f64(s.lo_key);
        w.f64(s.hi_key);
        w.f64(s.error);
        w.f64(s.value_max);
        w.f64(s.value_min);
        let coeffs = s.poly.inner().coeffs();
        w.u32(coeffs.len() as u32);
        for &c in coeffs {
            w.f64(c);
        }
    }
}

/// The smallest encoded segment: five `f64` fields plus the `u32`
/// coefficient count (a segment with no coefficients).
const MIN_SEGMENT_BYTES: usize = 5 * 8 + 4;

fn read_segments(r: &mut Reader<'_>) -> Result<Vec<Segment>, DecodeError> {
    let count = r.u32()? as usize;
    if count == 0 {
        return Err(DecodeError::Corrupt("segment count"));
    }
    // The count comes from the file: pre-allocate only what the bytes
    // left could hold, so a corrupt count ends in `Truncated`, not in an
    // allocation abort.
    let mut segments = Vec::with_capacity(count.min(r.remaining() / MIN_SEGMENT_BYTES));
    for _ in 0..count {
        let lo_key = r.finite("lo_key")?;
        let hi_key = r.finite("hi_key")?;
        if hi_key < lo_key {
            return Err(DecodeError::Corrupt("interval order"));
        }
        let error = r.finite("error")?;
        // Extrema may legitimately be ±∞ placeholders on SUM indexes.
        let value_max = r.f64()?;
        let value_min = r.f64()?;
        let ncoef = r.u32()? as usize;
        if ncoef > 64 {
            return Err(DecodeError::Corrupt("coefficient count"));
        }
        let mut coeffs = Vec::with_capacity(ncoef);
        for _ in 0..ncoef {
            coeffs.push(r.finite("coefficient")?);
        }
        let (center, scale) = ShiftedPolynomial::normalizer(lo_key, hi_key);
        segments.push(Segment {
            lo_key,
            hi_key,
            poly: ShiftedPolynomial::new(Polynomial::new(coeffs), center, scale),
            error,
            value_max,
            value_min,
        });
    }
    Ok(segments)
}

impl PolyFitSum {
    /// Serialize to a compact little-endian byte buffer, including the
    /// segment-statistics block when the index carries one.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_stats(true)
    }

    /// [`Self::to_bytes`] with explicit control over the statistics
    /// block: `false` strips it (smaller file; a reloaded index can still
    /// recover stats from its record set via
    /// [`Self::derived_segment_stats`]).
    pub fn to_bytes_with_stats(&self, include_stats: bool) -> Vec<u8> {
        let stats = if include_stats { self.segment_stats() } else { None };
        let mut w = Writer(Vec::with_capacity(64 + self.num_segments() * 64));
        w.0.extend_from_slice(MAGIC_SUM);
        w.u32(if stats.is_some() { FLAG_SEGMENT_STATS } else { 0 });
        w.f64(self.delta());
        w.f64(self.total());
        let (d0, d1) = self.domain();
        w.f64(d0);
        w.f64(d1);
        write_segments(&mut w, &self.segments());
        if let Some(stats) = stats {
            for s in stats {
                w.u32(s.point_start as u32);
                w.u32(s.point_end as u32);
                w.f64(s.residual);
                w.f64(s.cf_before);
                w.f64(s.cf_end);
            }
        }
        w.0
    }

    /// Decode an index serialized with [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC_SUM {
            return Err(DecodeError::BadMagic);
        }
        let flags = r.u32()?;
        let delta = r.finite("delta")?;
        let total = r.finite("total")?;
        let d0 = r.finite("domain lo")?;
        let d1 = r.finite("domain hi")?;
        let segments = read_segments(&mut r)?;
        let seg_stats = if flags & FLAG_SEGMENT_STATS != 0 {
            let mut stats: Vec<SegmentStats> = Vec::with_capacity(segments.len());
            for seg in &segments {
                let point_start = r.u32()? as usize;
                let point_end = r.u32()? as usize;
                // Spans must be ordered and tile the record set front to
                // back — compaction indexes records through them, so a
                // corrupt block must fail here, not panic later.
                let expected_start =
                    stats.last().map_or(0, |prev: &SegmentStats| prev.point_end + 1);
                if point_end < point_start || point_start != expected_start {
                    return Err(DecodeError::Corrupt("stats span order"));
                }
                stats.push(SegmentStats {
                    point_start,
                    point_end,
                    lo_key: seg.lo_key,
                    hi_key: seg.hi_key,
                    residual: r.finite("stats residual")?,
                    cf_before: r.finite("stats cf_before")?,
                    cf_end: r.finite("stats cf_end")?,
                });
            }
            Some(stats)
        } else {
            None
        };
        Ok(PolyFitSum::from_parts(
            segments,
            delta,
            total,
            (d0, d1),
            seg_stats,
            std::time::Duration::ZERO,
        ))
    }
}

impl PolyFitMax {
    /// Serialize to a compact little-endian byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer(Vec::with_capacity(64 + self.num_segments() * 64));
        w.0.extend_from_slice(MAGIC_MAX);
        w.f64(self.delta());
        w.u32(match self.orientation() {
            Extremum::Max => 0,
            Extremum::Min => 1,
        });
        let (d0, d1) = self.domain();
        w.f64(d0);
        w.f64(d1);
        write_segments(&mut w, &self.segments());
        w.0
    }

    /// Decode an index serialized with [`Self::to_bytes`]; the extrema
    /// tree is rebuilt from the per-segment aggregates.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC_MAX {
            return Err(DecodeError::BadMagic);
        }
        let delta = r.finite("delta")?;
        let orientation = match r.u32()? {
            0 => Extremum::Max,
            1 => Extremum::Min,
            _ => return Err(DecodeError::Corrupt("orientation")),
        };
        let d0 = r.finite("domain lo")?;
        let d1 = r.finite("domain hi")?;
        let segments = read_segments(&mut r)?;
        Ok(PolyFitMax::from_parts(segments, delta, (d0, d1), orientation))
    }
}

// ---------------------------------------------------------------------------
// Two-key quadtree index ("PFQ1")
// ---------------------------------------------------------------------------

const QUAD_TAG_LEAF: u8 = 0;
const QUAD_TAG_SPLIT_BOTH: u8 = 1;
const QUAD_TAG_SPLIT_U: u8 = 2;
const QUAD_TAG_SPLIT_V: u8 = 3;

/// Serialized resolutions are capped well below the compiled directory's
/// structural limit so a corrupt header cannot request a huge cell table.
const QUAD_MAX_RES: u32 = 8192;

fn write_quad_node(w: &mut Writer, node: &Node) {
    match node {
        Node::Leaf { poly, error } => {
            w.u8(QUAD_TAG_LEAF);
            w.f64(*error);
            w.u8(poly.degree() as u8);
            let (cu, su, cv, sv) = poly.normalizers();
            w.f64(cu);
            w.f64(su);
            w.f64(cv);
            w.f64(sv);
            for &c in poly.coeffs() {
                w.f64(c);
            }
        }
        Node::Internal { mid_u, mid_v, children } => {
            w.u8(match (!mid_u.is_nan(), !mid_v.is_nan()) {
                (true, true) => QUAD_TAG_SPLIT_BOTH,
                (true, false) => QUAD_TAG_SPLIT_U,
                (false, true) => QUAD_TAG_SPLIT_V,
                (false, false) => unreachable!("internal node with no split axis"),
            });
            for c in children {
                write_quad_node(w, c);
            }
        }
    }
}

/// Decode one node covering lattice range `[i0, i1] × [j0, j1]`. Split
/// planes are recomputed from `lat` (never trusted from the wire), span
/// and degree-uniformity invariants are enforced here so the compiled
/// directory's structural assertions can never fire on decoded trees.
fn read_quad_node(
    r: &mut Reader<'_>,
    lat: &Lattice,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    degree_seen: &mut Option<u8>,
) -> Result<Node, DecodeError> {
    let tag = r.u8()?;
    if tag == QUAD_TAG_LEAF {
        let error = r.finite("leaf error")?;
        let degree = r.u8()?;
        if !(1..=8).contains(&degree) {
            return Err(DecodeError::Corrupt("patch degree"));
        }
        if *degree_seen.get_or_insert(degree) != degree {
            return Err(DecodeError::Corrupt("mixed patch degrees"));
        }
        let cu = r.finite("normalizer cu")?;
        let su = r.finite("normalizer su")?;
        let cv = r.finite("normalizer cv")?;
        let sv = r.finite("normalizer sv")?;
        if su == 0.0 || sv == 0.0 {
            return Err(DecodeError::Corrupt("normalizer scale"));
        }
        let ncoef = monomial_count(degree as usize);
        let mut coeffs = Vec::with_capacity(ncoef);
        for _ in 0..ncoef {
            coeffs.push(r.finite("patch coefficient")?);
        }
        return Ok(Node::Leaf {
            poly: BivariatePoly::new(degree as usize, coeffs, cu, su, cv, sv),
            error,
        });
    }
    let (split_u, split_v) = match tag {
        QUAD_TAG_SPLIT_BOTH => (true, true),
        QUAD_TAG_SPLIT_U => (true, false),
        QUAD_TAG_SPLIT_V => (false, true),
        _ => return Err(DecodeError::Corrupt("node tag")),
    };
    if (split_u && i1 - i0 < 2) || (split_v && j1 - j0 < 2) {
        return Err(DecodeError::Corrupt("split span"));
    }
    let im = (i0 + i1) / 2;
    let jm = (j0 + j1) / 2;
    // Child order mirrors the builder exactly (see `collect_leaf_patches`).
    let ranges: Vec<(usize, usize, usize, usize)> = match (split_u, split_v) {
        (true, true) => {
            vec![(i0, im, j0, jm), (im, i1, j0, jm), (i0, im, jm, j1), (im, i1, jm, j1)]
        }
        (true, false) => vec![(i0, im, j0, j1), (im, i1, j0, j1)],
        (false, true) => vec![(i0, i1, j0, jm), (i0, i1, jm, j1)],
        (false, false) => unreachable!("matched above"),
    };
    let mut children = Vec::with_capacity(ranges.len());
    for (a, b, c, d) in ranges {
        children.push(read_quad_node(r, lat, a, b, c, d, degree_seen)?);
    }
    Ok(Node::Internal {
        mid_u: if split_u { lat.line_u(im) } else { f64::NAN },
        mid_v: if split_v { lat.line_v(jm) } else { f64::NAN },
        children,
    })
}

impl QuadPolyFit {
    /// Serialize to a compact little-endian byte buffer ("PFQ1").
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer(Vec::with_capacity(64 + self.num_leaves() * 64));
        w.0.extend_from_slice(MAGIC_QUAD);
        w.f64(self.delta);
        w.u32(self.lattice.res as u32);
        w.f64(self.lattice.u0);
        w.f64(self.lattice.v0);
        w.f64(self.lattice.step_u);
        w.f64(self.lattice.step_v);
        w.f64(self.total);
        write_quad_node(&mut w, &self.root);
        w.0
    }

    /// Decode an index serialized with [`Self::to_bytes`]: rebuilds the
    /// pointer quadtree, then recompiles the read-path arena — decoded
    /// indexes answer bitwise identically to the originals.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC_QUAD {
            return Err(DecodeError::BadMagic);
        }
        let delta = r.finite("delta")?;
        if delta <= 0.0 {
            return Err(DecodeError::Corrupt("delta"));
        }
        let res = r.u32()?;
        if !(2..=QUAD_MAX_RES).contains(&res) {
            return Err(DecodeError::Corrupt("resolution"));
        }
        let u0 = r.finite("domain u0")?;
        let v0 = r.finite("domain v0")?;
        let step_u = r.finite("step_u")?;
        let step_v = r.finite("step_v")?;
        if step_u <= 0.0 || step_v <= 0.0 {
            return Err(DecodeError::Corrupt("lattice step"));
        }
        let total = r.finite("total")?;
        let lat = Lattice { res: res as usize, u0, v0, step_u, step_v };
        let mut degree_seen = None;
        let root = read_quad_node(&mut r, &lat, 0, lat.res, 0, lat.res, &mut degree_seen)?;
        if r.remaining() != 0 {
            return Err(DecodeError::Corrupt("trailing bytes"));
        }
        Ok(QuadPolyFit::from_parts(root, delta, lat, total, std::time::Duration::ZERO))
    }
}

// ---------------------------------------------------------------------------
// Write-ahead-log records
// ---------------------------------------------------------------------------

/// One logical entry of the durable update log (see [`crate::wal`]). The
/// on-disk frame around an encoded record — length prefix + checksum —
/// lives in the `wal` module; this is the payload codec, kept here with
/// the other binary formats.
///
/// `Insert`/`Delete` advance the replay cursor (one sequence number
/// each); the control records do not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WalRecord {
    /// `measure` mass added at `key`. Keys are journaled already
    /// normalized (`-0.0` → `+0.0`), so a replayed log folds
    /// bitwise-identically to the live path.
    Insert {
        /// Record key (normalized).
        key: f64,
        /// Measure mass added.
        measure: f64,
    },
    /// `measure` mass removed at `key`.
    Delete {
        /// Record key (normalized).
        key: f64,
        /// Measure mass removed.
        measure: f64,
    },
    /// A shadow-compaction swap completed at the append position. The
    /// rebuild was staged when the cursor stood at `staged_at`; replay
    /// stages there and compacts blocking (bitwise-equal to the live
    /// stepped rebuild — the PR 3 determinism contract).
    CompactionSwap {
        /// Update cursor at staging time.
        staged_at: u64,
    },
    /// Shard-layout record: `parent` split at `key` into `left`
    /// (taking `(…, key]`) and `right`.
    SplitAt {
        /// Retired parent shard id.
        parent: u64,
        /// Split key (left-inclusive).
        key: f64,
        /// New left child id.
        left: u64,
        /// New right child id.
        right: u64,
    },
    /// Shard-layout record: adjacent `left` and `right` merged into
    /// `merged`.
    Merge {
        /// Retired left shard id.
        left: u64,
        /// Retired right shard id.
        right: u64,
        /// New merged shard id.
        merged: u64,
    },
    /// A checkpoint of the full index state was made durable with the
    /// cursor at `updates_applied`. Written as the first record of every
    /// fresh (truncated) log so the file is self-describing.
    Checkpoint {
        /// Update cursor at checkpoint time.
        updates_applied: u64,
        /// Completed compaction swaps at checkpoint time.
        rebuilds: u64,
    },
}

pub(crate) const WAL_TAG_INSERT: u8 = 1;
pub(crate) const WAL_TAG_DELETE: u8 = 2;
const WAL_TAG_SWAP: u8 = 3;
const WAL_TAG_SPLIT: u8 = 4;
const WAL_TAG_MERGE: u8 = 5;
const WAL_TAG_CHECKPOINT: u8 = 6;

/// Encode a [`WalRecord`] payload (tag byte + little-endian fields).
pub fn encode_wal_record(rec: &WalRecord) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(33));
    encode_wal_record_into(&mut w, rec);
    w.0
}

/// Encode a [`WalRecord`] payload onto the end of an existing writer —
/// the allocation-free form the journal's append hot path frames records
/// with.
pub(crate) fn encode_wal_record_into(w: &mut Writer, rec: &WalRecord) {
    match *rec {
        WalRecord::Insert { key, measure } => {
            w.u8(WAL_TAG_INSERT);
            w.f64(key);
            w.f64(measure);
        }
        WalRecord::Delete { key, measure } => {
            w.u8(WAL_TAG_DELETE);
            w.f64(key);
            w.f64(measure);
        }
        WalRecord::CompactionSwap { staged_at } => {
            w.u8(WAL_TAG_SWAP);
            w.u64(staged_at);
        }
        WalRecord::SplitAt { parent, key, left, right } => {
            w.u8(WAL_TAG_SPLIT);
            w.u64(parent);
            w.f64(key);
            w.u64(left);
            w.u64(right);
        }
        WalRecord::Merge { left, right, merged } => {
            w.u8(WAL_TAG_MERGE);
            w.u64(left);
            w.u64(right);
            w.u64(merged);
        }
        WalRecord::Checkpoint { updates_applied, rebuilds } => {
            w.u8(WAL_TAG_CHECKPOINT);
            w.u64(updates_applied);
            w.u64(rebuilds);
        }
    }
}

/// Decode a [`WalRecord`] payload produced by [`encode_wal_record`].
/// Any structural defect — unknown tag, short field, trailing bytes,
/// non-finite key or measure — is [`DecodeError::Corrupt`]; the log
/// scanner treats it as a torn tail and truncates there.
pub fn decode_wal_record(payload: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        WAL_TAG_INSERT => {
            let key = r.finite("wal key")?;
            // Keys are normalized before journaling; tolerate (and
            // re-normalize) a hand-written -0.0 defensively.
            let key = if key == 0.0 { 0.0 } else { key };
            WalRecord::Insert { key, measure: r.finite("wal measure")? }
        }
        WAL_TAG_DELETE => {
            let key = r.finite("wal key")?;
            let key = if key == 0.0 { 0.0 } else { key };
            WalRecord::Delete { key, measure: r.finite("wal measure")? }
        }
        WAL_TAG_SWAP => WalRecord::CompactionSwap { staged_at: r.u64()? },
        WAL_TAG_SPLIT => WalRecord::SplitAt {
            parent: r.u64()?,
            key: r.finite("wal split key")?,
            left: r.u64()?,
            right: r.u64()?,
        },
        WAL_TAG_MERGE => WalRecord::Merge { left: r.u64()?, right: r.u64()?, merged: r.u64()? },
        WAL_TAG_CHECKPOINT => {
            WalRecord::Checkpoint { updates_applied: r.u64()?, rebuilds: r.u64()? }
        }
        _ => return Err(DecodeError::Corrupt("wal record tag")),
    };
    if r.remaining() != 0 {
        return Err(DecodeError::Corrupt("wal record length"));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolyFitConfig;
    use polyfit_exact::dataset::Record;

    fn records(n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::new(i as f64 * 0.5, 1.0 + ((i * 13) % 7) as f64)).collect()
    }

    #[test]
    fn sum_roundtrip_preserves_queries() {
        let idx = PolyFitSum::build(records(5_000), 20.0, PolyFitConfig::default()).unwrap();
        let bytes = idx.to_bytes();
        let back = PolyFitSum::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_segments(), idx.num_segments());
        assert_eq!(back.delta(), idx.delta());
        for i in 0..200 {
            let (l, u) = (i as f64 * 3.0, i as f64 * 3.0 + 500.0);
            assert_eq!(back.query(l, u), idx.query(l, u), "query ({l}, {u}]");
        }
    }

    #[test]
    fn max_roundtrip_preserves_queries() {
        let idx = PolyFitMax::build(records(3_000), 2.0, PolyFitConfig::default()).unwrap();
        let back = PolyFitMax::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(back.num_segments(), idx.num_segments());
        for i in 0..200 {
            let (l, u) = (i as f64 * 2.0, i as f64 * 2.0 + 300.0);
            assert_eq!(back.query_max(l, u), idx.query_max(l, u), "query [{l}, {u}]");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let idx = PolyFitSum::build(records(100), 5.0, PolyFitConfig::default()).unwrap();
        let bytes = idx.to_bytes();
        // A SUM buffer is not a MAX index.
        assert!(matches!(PolyFitMax::from_bytes(&bytes), Err(DecodeError::BadMagic)));
        assert!(matches!(PolyFitSum::from_bytes(b"nope"), Err(DecodeError::BadMagic)));
    }

    #[test]
    fn truncated_rejected() {
        let idx = PolyFitSum::build(records(100), 5.0, PolyFitConfig::default()).unwrap();
        let bytes = idx.to_bytes();
        for cut in [0usize, 3, 10, bytes.len() - 1] {
            assert!(PolyFitSum::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_rejected() {
        let idx = PolyFitSum::build(records(100), 5.0, PolyFitConfig::default()).unwrap();
        let mut bytes = idx.to_bytes();
        // Corrupt delta (magic + flags word precede it) with a NaN.
        bytes[8..16].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(PolyFitSum::from_bytes(&bytes), Err(DecodeError::Corrupt("delta"))));
    }

    #[test]
    fn huge_segment_count_is_truncated_not_an_allocation_abort() {
        // A 44-byte header whose segment count reads u32::MAX: sizing the
        // segment vector from the count alone asked for 343 GB.
        let mut bytes = b"PFS2".to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        for v in [1.0f64, 10.0, 0.0, 9.0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 44);
        assert!(matches!(PolyFitSum::from_bytes(&bytes), Err(DecodeError::Truncated)));
        let mut max = b"PFM2".to_vec();
        max.extend_from_slice(&bytes[8..16]);
        max.extend_from_slice(&0u32.to_le_bytes());
        max.extend_from_slice(&bytes[24..]);
        assert!(matches!(PolyFitMax::from_bytes(&max), Err(DecodeError::Truncated)));
    }

    #[test]
    fn size_is_compact() {
        let idx = PolyFitSum::build(records(10_000), 50.0, PolyFitConfig::default()).unwrap();
        let bytes = idx.to_bytes();
        // Serialized form tracks the logical size (segments dominate).
        assert!(bytes.len() < idx.num_segments() * 100 + 64);
    }

    #[test]
    fn corrupt_stats_spans_rejected() {
        let idx = PolyFitSum::build(records(3_000), 15.0, PolyFitConfig::default()).unwrap();
        let mut bytes = idx.to_bytes();
        // The stats block is the trailing 32 bytes per segment
        // (2×u32 span + 3×f64); break the first span's tiling.
        let stats_off = bytes.len() - idx.num_segments() * 32;
        bytes[stats_off..stats_off + 4].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            PolyFitSum::from_bytes(&bytes),
            Err(DecodeError::Corrupt("stats span order"))
        ));
        // Reversed span order is rejected too.
        let mut bytes = idx.to_bytes();
        bytes[stats_off + 4..stats_off + 8].copy_from_slice(&0u32.to_le_bytes());
        bytes[stats_off..stats_off + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            PolyFitSum::from_bytes(&bytes),
            Err(DecodeError::Corrupt("stats span order"))
        ));
    }

    fn quad_index() -> QuadPolyFit {
        use polyfit_exact::dataset::Point2d;
        let pts: Vec<Point2d> = (0..4000)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let u = ((h >> 32) as f64 / u32::MAX as f64) * 100.0;
                let v = ((h & 0xFFFF_FFFF) as f64 / u32::MAX as f64) * 80.0;
                Point2d::new(u, v, 1.0)
            })
            .collect();
        let cfg = crate::twod::Quad2dConfig { grid_resolution: 64, ..Default::default() };
        QuadPolyFit::build(&pts, 20.0, cfg).unwrap()
    }

    #[test]
    fn quad_roundtrip_is_bitwise() {
        let idx = quad_index();
        let bytes = idx.to_bytes();
        let back = QuadPolyFit::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_leaves(), idx.num_leaves());
        assert_eq!(back.delta(), idx.delta());
        assert_eq!(back.max_leaf_error(), idx.max_leaf_error());
        for k in 0..100 {
            let a = (k % 11) as f64 * 9.5 - 2.0;
            let b = a + 5.0 + (k % 7) as f64 * 11.0;
            let c = (k % 5) as f64 * 14.0;
            let d = c + 3.0 + (k % 9) as f64 * 8.0;
            assert_eq!(
                back.query(a, b, c, d).to_bits(),
                idx.query(a, b, c, d).to_bits(),
                "rect ({a},{b},{c},{d})"
            );
        }
        // Re-encoding is byte-stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn quad_wrong_magic_rejected() {
        let bytes = quad_index().to_bytes();
        assert!(matches!(PolyFitSum::from_bytes(&bytes), Err(DecodeError::BadMagic)));
        let sum = PolyFitSum::build(records(100), 5.0, PolyFitConfig::default()).unwrap();
        assert!(matches!(QuadPolyFit::from_bytes(&sum.to_bytes()), Err(DecodeError::BadMagic)));
    }

    #[test]
    fn quad_truncation_rejected() {
        let bytes = quad_index().to_bytes();
        for cut in [0usize, 3, 11, 40, bytes.len() - 1] {
            assert!(QuadPolyFit::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            QuadPolyFit::from_bytes(&padded),
            Err(DecodeError::Corrupt("trailing bytes"))
        ));
    }

    #[test]
    fn quad_corruption_rejected() {
        let bytes = quad_index().to_bytes();
        // delta (right after the magic) poisoned with a NaN.
        let mut bad = bytes.clone();
        bad[4..12].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(QuadPolyFit::from_bytes(&bad), Err(DecodeError::Corrupt("delta"))));
        // Resolution outside the supported band.
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(QuadPolyFit::from_bytes(&bad), Err(DecodeError::Corrupt("resolution"))));
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&(QUAD_MAX_RES + 1).to_le_bytes());
        assert!(matches!(QuadPolyFit::from_bytes(&bad), Err(DecodeError::Corrupt("resolution"))));
        // Lattice step (header layout: magic 4, delta 8, res 4, u0/v0 16,
        // then step_u at offset 32) must be positive.
        let mut bad = bytes.clone();
        bad[32..40].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert!(matches!(QuadPolyFit::from_bytes(&bad), Err(DecodeError::Corrupt("lattice step"))));
        // First tree byte (after the 56-byte header): an unknown node tag.
        let mut bad = bytes;
        bad[56] = 9;
        assert!(matches!(QuadPolyFit::from_bytes(&bad), Err(DecodeError::Corrupt("node tag"))));
    }

    #[test]
    fn wal_records_roundtrip() {
        let records = [
            WalRecord::Insert { key: 1.5, measure: -2.25 },
            WalRecord::Delete { key: -7.0, measure: 0.125 },
            WalRecord::CompactionSwap { staged_at: u64::MAX - 3 },
            WalRecord::SplitAt { parent: 9, key: 44.5, left: 10, right: 11 },
            WalRecord::Merge { left: 10, right: 11, merged: 12 },
            WalRecord::Checkpoint { updates_applied: 1 << 40, rebuilds: 17 },
        ];
        for rec in records {
            let enc = encode_wal_record(&rec);
            assert_eq!(decode_wal_record(&enc), Ok(rec), "{rec:?}");
        }
    }

    #[test]
    fn wal_record_negative_zero_key_normalized_on_decode() {
        // The live path normalizes before journaling; a decoded -0.0 is
        // folded to +0.0 so replay cannot diverge on the key bucketing.
        let mut enc = encode_wal_record(&WalRecord::Insert { key: 0.0, measure: 1.0 });
        enc[1..9].copy_from_slice(&(-0.0f64).to_le_bytes());
        match decode_wal_record(&enc).unwrap() {
            WalRecord::Insert { key, .. } => assert_eq!(key.to_bits(), 0.0f64.to_bits()),
            other => panic!("wrong record {other:?}"),
        }
    }

    #[test]
    fn wal_record_corruption_rejected() {
        // Unknown tag.
        assert!(matches!(
            decode_wal_record(&[99, 0, 0]),
            Err(DecodeError::Corrupt("wal record tag"))
        ));
        // Trailing garbage after a well-formed record.
        let mut enc = encode_wal_record(&WalRecord::CompactionSwap { staged_at: 5 });
        enc.push(0xAB);
        assert!(matches!(decode_wal_record(&enc), Err(DecodeError::Corrupt("wal record length"))));
        // Short field.
        let enc = encode_wal_record(&WalRecord::Insert { key: 1.0, measure: 1.0 });
        assert!(decode_wal_record(&enc[..enc.len() - 1]).is_err());
        // Non-finite key.
        let mut enc = encode_wal_record(&WalRecord::Insert { key: 1.0, measure: 1.0 });
        enc[1..9].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(decode_wal_record(&enc), Err(DecodeError::Corrupt("wal key"))));
    }

    #[test]
    fn stats_block_roundtrips_and_strips() {
        let idx = PolyFitSum::build(records(3_000), 15.0, PolyFitConfig::default()).unwrap();
        let with_stats = PolyFitSum::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(
            with_stats.segment_stats().expect("stats round-trip"),
            idx.segment_stats().unwrap()
        );
        let lean_bytes = idx.to_bytes_with_stats(false);
        assert!(lean_bytes.len() < idx.to_bytes().len());
        let lean = PolyFitSum::from_bytes(&lean_bytes).unwrap();
        assert!(lean.segment_stats().is_none());
        // Queries are unaffected either way.
        for i in 0..50 {
            let (l, u) = (i as f64 * 7.0, i as f64 * 7.0 + 400.0);
            assert_eq!(lean.query(l, u).to_bits(), idx.query(l, u).to_bits());
            assert_eq!(with_stats.query(l, u).to_bits(), idx.query(l, u).to_bits());
        }
    }
}
