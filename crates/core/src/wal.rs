//! Durable write path: an append-only, fsync-batched write-ahead log
//! in segments, with background checkpoints and crash recovery that
//! resumes the log.
//!
//! ## Design
//!
//! Every mutating index owns at most one [`Journal`] — the single seam
//! the whole mutation path flows through:
//!
//! * **Log segments.** The log is a run of segment files,
//!   `<dir>/<name>.wal` then `<dir>/<name>.<n>.wal` (see
//!   [`segment_path`]). Each is a stream of length-prefixed, checksummed
//!   frames around [`WalRecord`] payloads, headed by a magic-and-base-
//!   cursor header and a [`WalRecord::Checkpoint`] record naming the
//!   update cursor and swap count it starts at. Appends buffer in memory;
//!   [`Journal::sync`] writes and fsyncs them in one batch (**group
//!   commit**). The serving loop calls it before every snapshot publish,
//!   so every state a reader can observe is on disk.
//! * **Checkpoints.** `<dir>/<name>.ckpt` holds the full serialized index
//!   (the PFD2 format) in a container (`PFC2`) that adds the replay cursor
//!   and a word-wise `Checksum` of everything after it — frames and
//!   layout files keep FNV-1a, whose byte-at-a-time multiply chain would
//!   dominate a recovery over megabytes of checkpoint. A checkpoint is due
//!   at every [`CHECKPOINT_EVERY`]-th compaction swap. At such a swap the
//!   journal switches to the next segment, a zero-filled file prepared in
//!   advance, and writes the swap record at its head. A sharded server
//!   hands the post-swap state (the `Arc`-shared base and record run plus
//!   the buffered deltas) to its `Checkpointer` thread, which streams the
//!   checkpoint into a temp file, fences it, renames it over `<name>.ckpt`,
//!   fsyncs the directory, deletes the segments the checkpoint supersedes
//!   and prepares the next segment. The shard worker does no checkpoint
//!   I/O. At most one checkpoint per journal is in flight: one that falls
//!   due while another runs moves to the next swap. A journal without a
//!   checkpointer (a standalone index) runs the same steps inline at the
//!   swap.
//! * **Recovery.** Read the checkpoint (its index straight into a buffer of
//!   its own), then every segment after it: a torn or corrupt frame ends a
//!   segment's scan, everything before it is recovered, the segment is
//!   truncated there (truncate-at-corruption), and the tail is reported,
//!   never silently dropped. A segment whose base is past the point the
//!   checkpoint and the segments before it reach (a gap) ends the replay.
//!   Updates re-apply through the normal insert/delete path and each
//!   [`WalRecord::CompactionSwap`] re-stages at its recorded cursor and
//!   compacts blocking — bitwise-identical to the live stepped rebuild, so
//!   a recovered index answers bit-for-bit like one that never crashed. A
//!   resumed journal appends to the newest segment instead of writing a new
//!   checkpoint, so a recovery replays at most `CHECKPOINT_EVERY − 1` swaps
//!   plus any deferred checkpoint.
//!
//! ## Crash windows of the checkpoint protocol
//!
//! At a checkpoint swap the journal ① fences its segment, ② switches to
//! the prepared segment with the header and swap record buffered, and
//! the checkpointer ③ writes and fences a temp file, ④ renames it over
//! the checkpoint and fsyncs the directory, ⑤ deletes the superseded
//! segments. A crash…
//!
//! * …before the first fence of the new segment: it is all zeros, which
//!   recovery reads as not yet started. The old checkpoint and segments
//!   replay without the swap — a swap is bitwise-transparent to answers,
//!   so the recovered index answers identically and re-compacts later.
//! * …during ③ or between ③ and ④: the temp file is ignored; the old
//!   checkpoint plus every segment replay the swap from its record.
//! * …between the rename and the directory fsync, or between ④ and ⑤:
//!   either checkpoint may be the one on disk. The new one covers the old
//!   segments, whose records are skipped by cursor and swap count.
//!
//! Recovery opens every segment before it reads the checkpoint and reads
//! the newest segment first. A live journal deletes a segment only after
//! a checkpoint covering it is durable, and writes a segment only after
//! the one before it is complete, so a recovery that runs beside a live
//! journal never reads a segment mid-deletion or sees a gap the journal
//! does not have.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::dynamic::{Frozen, Update};
use crate::error::PolyFitError;
use crate::serialize::{decode_wal_record, DecodeError, Reader, WalRecord, Writer};

/// Log-file magic: "PFW2", followed by the base cursor (u64) — the
/// number of updates already folded into the checkpoint this log extends.
/// (v2: frame checksums are position-keyed, see [`fnv1a_pos`].)
const MAGIC_WAL: &[u8; 4] = b"PFW2";
/// Checkpoint-container magic: "PFC2" — checksummed wrapper around a
/// serialized index plus its replay cursor. (v2: the checksum is the
/// word-wise [`Checksum`]; "PFC1" used byte-wise FNV-1a.)
const MAGIC_CKPT: &[u8; 4] = b"PFC2";
/// Checkpoint header length: magic, checksum, `updates_applied`,
/// `rebuilds` and `index_len`.
const CKPT_HEADER: usize = 36;
/// Shard-layout checkpoint magic: "PFL1" — the routing table (shard ids
/// + bounds) the layout log's rebalance records extend.
const MAGIC_LAYOUT: &[u8; 4] = b"PFL1";

/// Upper bound on a single frame payload — a defence against a corrupt
/// length prefix making the scanner allocate the moon.
const MAX_FRAME_LEN: u32 = 1 << 20;

/// Log segments are zero-filled ahead of the write position in chunks of
/// this size, so a group-commit fence overwrites already-allocated blocks
/// and its `fdatasync` never waits on a filesystem metadata (size/extent)
/// journal commit — the classic preallocated-WAL trick, worth ~30% of
/// the fence latency on ext4 here. Recovery distinguishes the untouched
/// zero tail from crash damage by content: a valid frame is never
/// all-zeros (nonzero FNV-1a), so an all-zero tail is clean preallocation
/// while any nonzero garbage past the valid prefix is a torn tail.
const PREALLOC_CHUNK: u64 = 256 * 1024;

/// Checkpoint cadence: a journal checkpoints at every `CHECKPOINT_EVERY`-th
/// compaction swap, so a recovery replays at most `CHECKPOINT_EVERY − 1`
/// swaps (plus any checkpoint deferred while another was in flight).
/// Replaying a swap and writing a checkpoint both cost O(shard size), so
/// a swap count bounds recovery at any shard size. Chosen from a paired
/// curve over 1–4 on the `ingest-durable` workload (README "Durability
/// and recovery").
pub const CHECKPOINT_EVERY: u64 = 2;

/// The checkpoint writer's buffer: the encoding streams through it into
/// the temp file, so no checkpoint-sized buffer is ever allocated.
const CHECKPOINT_CHUNK: usize = 64 * 1024;

/// FNV-1a, the classic 64-bit fold — dependency-free and plenty to catch
/// torn writes and bit rot in a length-prefixed stream (this is an
/// integrity check, not an adversarial MAC).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Position-keyed frame checksum: FNV-1a over the payload, continued
/// through the frame's absolute byte offset in the file. A frame is only
/// valid *at the offset it was written for*, which turns two storage
/// faults plain content checksums cannot see into ordinary torn-tail
/// truncations at scan time:
///
/// * a **duplicated** write (the same buffered batch landing twice)
///   re-places byte-identical frames at later offsets, where their
///   checksums no longer verify — replay can never double-apply;
/// * a **misdirected** write (a batch landing at a stale offset) parks
///   frames checksummed for one position at another, so the scan cuts at
///   the damage instead of replaying records out of order.
#[inline]
fn fnv1a_pos(bytes: &[u8], offset: u64) -> u64 {
    let mut h = fnv1a(bytes);
    for b in offset.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checkpoint checksum, fast enough that checksumming no longer
/// dominates a recovery. Four 64-bit lanes fold the input's 8-byte
/// little-endian words in turn (lane `i` takes word `i` of every 32-byte
/// block) by xor, multiply and xorshift; a tail under 32 bytes then folds
/// in byte by byte, and the length last. Each step is a bijection of its
/// lane, so a change confined to one word — any single-bit flip — always
/// changes the result; the xorshift carries a lane's top bit down, so two
/// flips of bit 63 in two words of one lane do not cancel, as they would
/// under xor–multiply alone. The four independent multiply chains run at
/// memory speed, where FNV-1a pays a dependent multiply per byte.
///
/// [`Checksum::update`] carries a partial block across calls, so a
/// stream split anywhere hashes like the whole input in one call.
struct Checksum {
    lanes: [u64; 4],
    /// The first `pending` bytes of a block not folded yet.
    block: [u8; 32],
    pending: usize,
    len: u64,
}

impl Checksum {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    const SEEDS: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x8422_2325_cbf2_9ce4,
        0x9ce4_8422_2325_cbf2,
        0x2325_cbf2_9ce4_8422,
    ];

    fn new() -> Checksum {
        Checksum { lanes: Self::SEEDS, block: [0; 32], pending: 0, len: 0 }
    }

    #[inline(always)]
    fn mix(h: u64, word: u64) -> u64 {
        let h = (h ^ word).wrapping_mul(Self::MUL);
        h ^ (h >> 29)
    }

    #[inline(always)]
    fn fold(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = Self::mix(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending > 0 {
            let k = bytes.len().min(32 - self.pending);
            self.block[self.pending..self.pending + k].copy_from_slice(&bytes[..k]);
            self.pending += k;
            bytes = &bytes[k..];
            if self.pending < 32 {
                return;
            }
            Self::fold(&mut self.lanes, &self.block);
            self.pending = 0;
        }
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            Self::fold(&mut lanes, block);
        }
        self.lanes = lanes;
        let tail = blocks.remainder();
        self.block[..tail.len()].copy_from_slice(tail);
        self.pending = tail.len();
    }

    fn finish(&self) -> u64 {
        let mut h = self.lanes.iter().fold(0, |h, &lane| Self::mix(h, lane));
        for &b in &self.block[..self.pending] {
            h = Self::mix(h, b as u64);
        }
        Self::mix(h, self.len)
    }
}

/// Errors from the durable write path.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(io::Error),
    /// A checkpoint or log header failed to decode.
    Decode(DecodeError),
    /// Rebuilding an index during replay failed.
    Build(PolyFitError),
    /// A required file is missing (path reported).
    Missing(PathBuf),
    /// A recovery was pointed at a directory that holds no journal at
    /// all — missing, or present but empty. Distinguished from
    /// [`WalError::Missing`] (one file of an otherwise-real journal gone)
    /// and from raw I/O failure so callers can say "nothing to recover
    /// here" instead of surfacing an `io::Error`.
    NoJournal(PathBuf),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Decode(e) => write!(f, "wal decode error: {e}"),
            WalError::Build(e) => write!(f, "wal replay build error: {e}"),
            WalError::Missing(p) => write!(f, "wal file missing: {}", p.display()),
            WalError::NoJournal(p) => {
                write!(f, "no WAL journal in {} (directory missing or empty)", p.display())
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<DecodeError> for WalError {
    fn from(e: DecodeError) -> Self {
        WalError::Decode(e)
    }
}

impl From<PolyFitError> for WalError {
    fn from(e: PolyFitError) -> Self {
        WalError::Build(e)
    }
}

/// When the journal pushes buffered appends to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Group commit: appends buffer in memory until [`Journal::sync`] —
    /// one write + fsync per shard-worker ack point. The default; an
    /// update is durable once the batch that carried it has been synced,
    /// which the shard worker guarantees before answering any query from
    /// that window.
    Batch,
    /// Fsync on every appended update — the strict (and slow) mode the
    /// durability bench compares against.
    EveryUpdate,
}

/// Process-wide count of journal fsync fences actually issued (no-op
/// [`Journal::sync`] calls on an already-clean log don't count). Purely
/// observational — the durability bench uses it to report the real
/// group-commit fence count next to the throughput numbers.
pub static SYNC_FENCES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Crash-atomic file write: write a temp file in the target's directory,
/// fsync it, rename it over the target, and fsync the directory so the
/// rename itself is durable. A crash at any point leaves either the old
/// complete file or the new complete file — never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if path.file_name().is_none() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "atomic_write needs a file path"));
    }
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    fsync_parent(path)
}

/// The temp file a crash-atomic write of `path` goes through:
/// `.<file name>.tmp` beside it.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(path.file_name().expect("a file path"));
    tmp_name.push(".tmp");
    path.with_file_name(tmp_name)
}

/// Fsync the directory holding `path`, pinning a rename or a new entry.
fn fsync_parent(path: &Path) -> io::Result<()> {
    match path.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(dir) => fsync_dir(dir),
        None => Ok(()),
    }
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    // Windows cannot open directories for sync; the rename is still
    // atomic there. On unix this pins the directory entry.
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// The VirtualFile seam
// ---------------------------------------------------------------------------

/// The I/O surface the journal needs from its log file — the seam the
/// fault-injection harness plugs into. Production code uses [`RealFile`]
/// (an inlined pass-through over [`File`]); with the `failpoints` feature
/// the journal is built over `FaultFile` instead, which consults the
/// failpoint registry on every operation and can inject write/fsync
/// errors, short (torn) writes, and misdirected or duplicated segment
/// writes. The concrete type is chosen at compile time ([`LogFile`]), so
/// the default build carries no indirection at all.
pub trait VirtualFile {
    /// Write the whole buffer at the current cursor.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file data durably (fdatasync).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Move the cursor to an absolute offset.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
}

/// The production [`VirtualFile`]: a plain pass-through over [`File`].
#[derive(Debug)]
pub struct RealFile(File);

impl RealFile {
    /// Wrap an open file.
    pub fn new(f: File) -> RealFile {
        RealFile(f)
    }
}

impl VirtualFile for RealFile {
    #[inline]
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    #[inline]
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    #[inline]
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

/// The fault-injecting [`VirtualFile`]: wraps a real file, tracks the
/// cursor, and consults the `wal.*` failpoint sites before every
/// operation. All faults are *storage-realistic*: an injected error
/// leaves prior bytes intact, a short write persists a prefix that tears
/// inside a checksummed frame, a misdirected write lands the buffer at a
/// stale offset, and a duplicated write lands it twice — the scanner's
/// position-keyed checksums are what recovery then has to answer with.
#[cfg(feature = "failpoints")]
#[derive(Debug)]
pub struct FaultFile {
    inner: File,
    /// Shadow of the kernel file cursor, so misdirection can compute a
    /// plausible stale offset.
    cursor: u64,
}

#[cfg(feature = "failpoints")]
impl FaultFile {
    /// Wrap an open file whose kernel cursor sits at `cursor`.
    pub fn new(f: File, cursor: u64) -> FaultFile {
        FaultFile { inner: f, cursor }
    }
}

#[cfg(feature = "failpoints")]
impl VirtualFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use crate::failpoint;
        if let Some(e) = failpoint::io_error("wal.write.err") {
            // Clean injected failure: nothing reaches the file.
            return Err(e);
        }
        if failpoint::triggered("wal.write.short") && buf.len() > 1 {
            // Crash mid-write: a prefix lands (cut inside a frame for any
            // multi-frame batch), then the "device" fails.
            let cut = buf.len() / 2;
            self.inner.write_all(&buf[..cut])?;
            self.cursor += cut as u64;
            return Err(failpoint::injected_io("wal.write.short"));
        }
        if failpoint::triggered("wal.write.misdirect") {
            // The batch lands at a stale offset (firmware/driver bug);
            // the caller is *not* told. Keep the header intact so the
            // damage is frame-level, which recovery must truncate at.
            let stale = self.cursor.saturating_sub(buf.len() as u64 + 7).max(12);
            self.inner.seek(SeekFrom::Start(stale))?;
            self.inner.write_all(buf)?;
            self.cursor = stale + buf.len() as u64;
            return Ok(());
        }
        if failpoint::triggered("wal.write.duplicate") {
            // A retried-but-already-applied write: the buffer lands twice,
            // back to back. Position-keyed checksums invalidate copy two.
            self.inner.write_all(buf)?;
            self.inner.write_all(buf)?;
            self.cursor += 2 * buf.len() as u64;
            return Ok(());
        }
        self.inner.write_all(buf)?;
        self.cursor += buf.len() as u64;
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        if let Some(e) = crate::failpoint::io_error("wal.fsync.err") {
            // fsyncgate: the fence "fails" and nothing was made durable.
            // The journal must fail-stop — it can never retry its way
            // back to a truthful ack.
            return Err(e);
        }
        self.inner.sync_data()
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek(SeekFrom::Start(pos))?;
        self.cursor = pos;
        Ok(())
    }
}

/// The journal's log-file type, chosen at compile time: the fault seam
/// with `failpoints`, the zero-overhead pass-through without.
#[cfg(feature = "failpoints")]
pub type LogFile = FaultFile;
/// The journal's log-file type, chosen at compile time: the fault seam
/// with `failpoints`, the zero-overhead pass-through without.
#[cfg(not(feature = "failpoints"))]
pub type LogFile = RealFile;

#[cfg(feature = "failpoints")]
fn log_file(f: File, cursor: u64) -> LogFile {
    FaultFile::new(f, cursor)
}

#[cfg(not(feature = "failpoints"))]
fn log_file(f: File, _cursor: u64) -> LogFile {
    RealFile::new(f)
}

/// Frame one encoded record onto the end of `buf`:
/// `[len u32][fnv1a_pos u64][payload]`, where `file_off` is the absolute
/// file offset this frame will occupy (see [`fnv1a_pos`] — the checksum
/// binds content *and* position). Insert/Delete — the per-update hot
/// path — assemble their fixed 29-byte frame on the stack and land with
/// one `extend_from_slice`; everything else (rebalance/checkpoint
/// records, a handful per journal lifetime) goes through the generic
/// encoder with an in-place header patch. Either way: no per-record
/// allocation, which is what keeps the group-commit append path within
/// a few percent of the journal-off write path.
#[inline]
fn frame_into(buf: &mut Vec<u8>, rec: &WalRecord, file_off: u64) {
    if let WalRecord::Insert { key, measure } | WalRecord::Delete { key, measure } = *rec {
        let tag = if matches!(rec, WalRecord::Insert { .. }) {
            crate::serialize::WAL_TAG_INSERT
        } else {
            crate::serialize::WAL_TAG_DELETE
        };
        let mut f = [0u8; 29];
        f[12] = tag;
        f[13..21].copy_from_slice(&key.to_le_bytes());
        f[21..29].copy_from_slice(&measure.to_le_bytes());
        f[0..4].copy_from_slice(&17u32.to_le_bytes());
        let cksum = fnv1a_pos(&f[12..29], file_off);
        f[4..12].copy_from_slice(&cksum.to_le_bytes());
        buf.extend_from_slice(&f);
        return;
    }
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 12]);
    let mut w = Writer(std::mem::take(buf));
    crate::serialize::encode_wal_record_into(&mut w, rec);
    *buf = w.0;
    let payload_len = buf.len() - start - 12;
    let cksum = fnv1a_pos(&buf[start + 12..], file_off);
    buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[start + 4..start + 12].copy_from_slice(&cksum.to_le_bytes());
}

/// Frame one encoded record as an owned buffer, checksummed for absolute
/// file offset `file_off` (cold paths: fresh-log headers, layout
/// records, tests).
fn frame(rec: &WalRecord, file_off: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(45);
    frame_into(&mut out, rec, file_off);
    out
}

/// Create a fresh log file at `path` (via temp + rename + dir fsync)
/// whose header carries `base_seq`, self-described by a leading
/// [`WalRecord::Checkpoint`] record. Returns the open handle, positioned
/// at the end, ready for appends.
fn write_fresh_log(path: &Path, base_seq: u64, rebuilds: u64) -> io::Result<(LogFile, u64)> {
    let mut w = Writer(Vec::with_capacity(64));
    w.0.extend_from_slice(MAGIC_WAL);
    w.u64(base_seq);
    // The self-describing header record sits right after the 12-byte
    // magic+cursor header.
    w.0.extend_from_slice(&frame(
        &WalRecord::Checkpoint { updates_applied: base_seq, rebuilds },
        12,
    ));
    let tmp = tmp_path(path);
    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    f.write_all(&w.0)?;
    f.sync_data()?;
    fs::rename(&tmp, path)?;
    fsync_parent(path)?;
    // The tmp handle survives the rename (same inode) — keep appending
    // through it (wrapped in the VirtualFile seam from here on).
    let len = w.0.len() as u64;
    Ok((log_file(f, len), len))
}

/// The parsed contents of one log file, up to the first torn frame.
#[derive(Clone, Debug)]
pub struct WalScan {
    /// Update cursor the log extends (from the header).
    pub base_seq: u64,
    /// Decoded records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Cursor after the last valid record (`base_seq` + update records).
    pub head_seq: u64,
    /// Byte length of the valid prefix (header + whole frames).
    pub valid_len: u64,
    /// Actual file length; `> valid_len` iff the file extends past the
    /// last whole frame (preallocated zeros or a torn tail).
    pub file_len: u64,
    /// `true` when everything past `valid_len` is zero bytes — the
    /// untouched remainder of a preallocated log segment (see
    /// `PREALLOC_CHUNK`), not crash damage. A valid frame can never be
    /// all-zeros (the FNV-1a checksum of any payload is nonzero), so the
    /// distinction is unambiguous.
    pub zero_tail: bool,
}

impl WalScan {
    /// `true` when a torn or corrupt tail was cut off by the scan — i.e.
    /// the bytes past the valid prefix hold garbage, not just the zeros
    /// of a preallocated segment.
    pub fn truncated(&self) -> bool {
        self.valid_len < self.file_len && !self.zero_tail
    }
}

/// Scan a log file: validate the header, decode whole checksummed
/// frames, stop at the first torn/corrupt one. Frame-level damage is the
/// expected crash artifact and is *not* an error — it bounds
/// `valid_len`; only a missing file or an unreadable header fails.
pub fn scan_wal(path: &Path) -> Result<WalScan, WalError> {
    match fs::read(path) {
        Ok(bytes) => scan_bytes(&bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Err(WalError::Missing(path.to_path_buf())),
        Err(e) => Err(e.into()),
    }
}

/// [`scan_wal`] over a log file's bytes. The first frame must be the
/// [`WalRecord::Checkpoint`] header record at the header's cursor; a
/// segment whose header record is torn has an empty valid prefix.
fn scan_bytes(bytes: &[u8]) -> Result<WalScan, WalError> {
    let file_len = bytes.len() as u64;
    let mut r = Reader::new(bytes);
    if r.take(4).map_err(WalError::Decode)? != MAGIC_WAL {
        return Err(DecodeError::BadMagic.into());
    }
    let base_seq = r.u64().map_err(WalError::Decode)?;
    let mut pos = 12usize;
    let mut records = Vec::new();
    let mut head_seq = base_seq;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < 12 {
            break; // torn frame header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_LEN || rest.len() < 12 + len as usize {
            break; // torn or corrupt length
        }
        let cksum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let payload = &rest[12..12 + len as usize];
        if fnv1a_pos(payload, pos as u64) != cksum {
            // Checksum mismatch: a torn tail, or a frame that is not
            // valid *at this offset* — which is how duplicated and
            // misdirected segment writes surface (see [`fnv1a_pos`]).
            break;
        }
        let Ok(rec) = decode_wal_record(payload) else {
            break; // DecodeError::Corrupt: treat as torn
        };
        let header = matches!(rec, WalRecord::Checkpoint { updates_applied, .. }
            if updates_applied == base_seq);
        if records.is_empty() && !header {
            break; // no header record: nothing after it can be placed
        }
        if matches!(rec, WalRecord::Insert { .. } | WalRecord::Delete { .. }) {
            head_seq += 1;
        }
        records.push(rec);
        pos += 12 + len as usize;
    }
    let zero_tail = pos < bytes.len() && bytes[pos..].iter().all(|&b| b == 0);
    Ok(WalScan { base_seq, records, head_seq, valid_len: pos as u64, file_len, zero_tail })
}

/// Streams a checkpoint container into its temp file through the
/// [`VirtualFile`] seam: bytes collect in a [`CHECKPOINT_CHUNK`] buffer
/// and fold into the running [`Checksum`] on the way.
struct CheckpointWriter {
    file: LogFile,
    buf: Vec<u8>,
    hash: Checksum,
}

impl io::Write for CheckpointWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.hash.update(bytes);
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= CHECKPOINT_CHUNK {
            self.flush()?;
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// Write journal `name`'s checkpoint crash-atomically: the container
/// `"PFC2" | checksum | updates_applied | rebuilds | index_len | index`
/// (the [`Checksum`] covers everything after itself), where `index` is the
/// `index_len` bytes `body` writes. The container streams into the temp
/// file, the checksum is patched in, and the file is fenced, renamed over
/// `<name>.ckpt` and the directory fsynced.
fn write_checkpoint(
    dir: &Path,
    name: &str,
    updates_applied: u64,
    rebuilds: u64,
    index_len: u64,
    body: impl FnOnce(&mut CheckpointWriter) -> io::Result<()>,
) -> io::Result<()> {
    let path = checkpoint_path(dir, name);
    let tmp = tmp_path(&path);
    let f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    let mut out = CheckpointWriter {
        file: log_file(f, 0),
        buf: Vec::with_capacity(CHECKPOINT_CHUNK),
        hash: Checksum::new(),
    };
    out.buf.extend_from_slice(MAGIC_CKPT);
    out.buf.extend_from_slice(&[0; 8]); // checksum, patched below
    for v in [updates_applied, rebuilds, index_len] {
        out.write_all(&v.to_le_bytes())?;
    }
    body(&mut out)?;
    out.flush()?;
    out.file.seek_to(4)?;
    out.file.write_all(&out.hash.finish().to_le_bytes())?;
    out.file.sync_data()?;
    fs::rename(&tmp, &path)?;
    // Failpoint: the rename is in place but not yet pinned by the
    // directory fsync.
    crate::failpoint::hit("wal.ckpt.renamed");
    fsync_parent(&path)
}

/// [`write_checkpoint`] of `state`: its PFD2 bytes stream into the file,
/// and only the base block is encoded up front (its length precedes it).
fn write_frozen_checkpoint(
    dir: &Path,
    name: &str,
    updates_applied: u64,
    rebuilds: u64,
    state: &Frozen,
) -> io::Result<()> {
    let base = state.base_bytes();
    let index_len = state.encoded_len(&base) as u64;
    write_checkpoint(dir, name, updates_applied, rebuilds, index_len, |w| state.encode(&base, w))
}

/// A decoded checkpoint: the replay cursor and the serialized index.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Updates folded into the serialized state.
    pub updates_applied: u64,
    /// Compaction swaps completed in the serialized state.
    pub rebuilds: u64,
    /// The serialized index (PFD2 bytes).
    pub index: Vec<u8>,
}

/// Read and verify a checkpoint file written by [`Journal`]. The header
/// is read first; the index then goes straight into a buffer of its own,
/// sized by the header only once the file's length agrees with it, so a
/// crafted length cannot allocate more than the file holds.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, WalError> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(WalError::Missing(path.to_path_buf()))
        }
        Err(e) => return Err(e.into()),
    };
    let file_len = f.metadata()?.len();
    let mut head = Vec::with_capacity(CKPT_HEADER);
    (&mut f).take(CKPT_HEADER as u64).read_to_end(&mut head)?;
    let mut r = Reader::new(&head);
    if r.take(4)? != MAGIC_CKPT {
        return Err(DecodeError::BadMagic.into());
    }
    let cksum = r.u64()?;
    let updates_applied = r.u64()?;
    let rebuilds = r.u64()?;
    let index_len = r.u64()?;
    // The index ends the file: shorter is a truncation, longer carries
    // bytes no checkpoint writes.
    match index_len.checked_add(CKPT_HEADER as u64) {
        Some(end) if end == file_len => {}
        Some(end) if end < file_len => return Err(DecodeError::Corrupt("checkpoint length").into()),
        _ => return Err(DecodeError::Truncated.into()),
    }
    let mut index = vec![0; usize::try_from(index_len).map_err(|_| DecodeError::Truncated)?];
    f.read_exact(&mut index)?;
    let mut hash = Checksum::new();
    hash.update(&head[12..]);
    hash.update(&index);
    if hash.finish() != cksum {
        return Err(DecodeError::Corrupt("checkpoint checksum").into());
    }
    Ok(Checkpoint { updates_applied, rebuilds, index })
}

/// Log file path for a journal name: its first segment.
pub fn log_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}

/// Path of log segment `n` of journal `name`: `<name>.wal` for segment 0
/// (where a fresh journal starts, and the only segment journals written
/// before segmenting have), `<name>.<n>.wal` after it. The directory
/// stays flat.
pub fn segment_path(dir: &Path, name: &str, n: u64) -> PathBuf {
    if n == 0 {
        log_path(dir, name)
    } else {
        dir.join(format!("{name}.{n}.wal"))
    }
}

/// The segment number of file `file_name` if it is a log segment of
/// journal `name`.
fn segment_number(file_name: &str, name: &str) -> Option<u64> {
    let rest = file_name.strip_prefix(name)?.strip_suffix(".wal")?;
    if rest.is_empty() {
        return Some(0);
    }
    let digits = rest.strip_prefix('.')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok().filter(|&n| n > 0)
}

/// The log segments of journal `name` in `dir`, ascending by number.
pub fn list_segments(dir: &Path, name: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(n) = entry.file_name().to_str().and_then(|f| segment_number(f, name)) {
            out.push((n, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(n, _)| n);
    Ok(out)
}

/// Delete journal `name`'s segments numbered below `n` — the ones a
/// durable checkpoint at the start of segment `n` supersedes. Best-effort:
/// a leftover superseded segment is skipped by recovery.
fn remove_segments_below(dir: &Path, name: &str, n: u64) {
    for (m, path) in list_segments(dir, name).unwrap_or_default() {
        if m < n {
            let _ = fs::remove_file(path);
        }
    }
}

/// Write `n` zero bytes at the file cursor.
fn write_zeros(file: &mut LogFile, n: u64) -> io::Result<()> {
    static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];
    let mut left = n;
    while left > 0 {
        let k = left.min(ZEROS.len() as u64) as usize;
        file.write_all(&ZEROS[..k])?;
        left -= k as u64;
    }
    Ok(())
}

/// Prepare log segment `n`: a zero-filled [`PREALLOC_CHUNK`], fenced and
/// with its directory entry fsynced, cursor at 0. All zeros reads as a
/// segment not yet started, so the journal that switches to it writes its
/// header with the first fence — a pure data overwrite.
fn create_segment(dir: &Path, name: &str, n: u64) -> io::Result<LogFile> {
    let path = segment_path(dir, name, n);
    let f = OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
    let mut file = log_file(f, 0);
    write_zeros(&mut file, PREALLOC_CHUNK)?;
    file.sync_data()?;
    file.seek_to(0)?;
    fsync_parent(&path)?;
    Ok(file)
}

/// Checkpoint file path for a journal name.
pub fn checkpoint_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.ckpt"))
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// The durable seam of one mutating index: an open log segment, a
/// group-commit buffer, and the update cursor. Owned by a
/// [`DynamicPolyFitSum`](crate::dynamic::DynamicPolyFitSum) via
/// `attach_wal` (or `resume_wal` after a crash); every insert/delete
/// appends here *before* it folds into the in-memory state, and every
/// compaction swap is journaled, every [`CHECKPOINT_EVERY`]-th one with
/// a checkpoint and a switch to a new segment (see the module docs).
///
/// Failure stance is fail-stop: append/swap I/O errors panic (a write
/// path that cannot persist must not keep acknowledging), while the
/// explicit [`Journal::sync`] returns the error to the caller (the
/// serving loop turns it into a worker panic, which poisons in-flight
/// tickets instead of hanging clients). A failed background checkpoint
/// surfaces at the next sync the same way. And fail-stop is *sticky*:
/// after any sync-path failure the journal refuses every further
/// operation — per fsyncgate, a failed fsync leaves the page cache in an
/// unknowable state, so retrying the fence could silently ack data that
/// never reached the disk. The first error is returned typed; every
/// later call fails with [`Journal::failed`]'s reason.
pub struct Journal {
    dir: PathBuf,
    name: String,
    policy: SyncPolicy,
    file: LogFile,
    /// Number of the segment `file` is (see [`segment_path`]).
    segment: u64,
    /// Encoded frames not yet written to the file (group commit).
    buf: Vec<u8>,
    /// Update cursor: updates journaled so far, absolute.
    seq: u64,
    /// `true` when the file covers every append and has been fsynced.
    synced: bool,
    /// Byte offset of the next data write — the log's logical end. The
    /// file itself extends to `prealloc_end` with zeros (see
    /// [`PREALLOC_CHUNK`]); the file cursor is kept parked here.
    pos: u64,
    /// End of the zero-filled region; data writes below this line never
    /// grow the file, keeping group-commit fences metadata-free.
    prealloc_end: u64,
    /// `Some(reason)` once any sync-path I/O failed: the journal is
    /// fail-stopped and every subsequent operation refuses (fsyncgate).
    dead: Option<String>,
    /// Compaction swaps journaled since the last checkpoint.
    swaps_since: u64,
    /// The checkpointer this journal hands its checkpoints to; without
    /// one they run inline at the swap.
    background: Option<Background>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("segment", &self.segment)
            .field("seq", &self.seq)
            .field("pending_bytes", &self.buf.len())
            .finish()
    }
}

impl Journal {
    /// Create (or overwrite) a journal: write a checkpoint of `index`
    /// at cursor `seq`, then start a fresh log extending it in segment 0
    /// (any later segments of the name are deleted first). `dir` is
    /// created if needed.
    pub fn create(
        dir: &Path,
        name: &str,
        policy: SyncPolicy,
        index: &[u8],
        seq: u64,
        rebuilds: u64,
    ) -> Result<Journal, WalError> {
        Self::create_after(dir, name, policy, seq, rebuilds, || {
            write_checkpoint(dir, name, seq, rebuilds, index.len() as u64, |w| w.write_all(index))
        })
    }

    /// [`Self::create`] checkpointing `state`, whose PFD2 bytes stream
    /// into the checkpoint file as the checkpointer writes them, instead
    /// of being encoded into an index-sized buffer first.
    pub(crate) fn create_frozen(
        dir: &Path,
        name: &str,
        policy: SyncPolicy,
        state: &Frozen,
        seq: u64,
        rebuilds: u64,
    ) -> Result<Journal, WalError> {
        Self::create_after(dir, name, policy, seq, rebuilds, || {
            write_frozen_checkpoint(dir, name, seq, rebuilds, state)
        })
    }

    /// The journal creation both constructors share, with `checkpoint`
    /// writing the checkpoint file.
    fn create_after(
        dir: &Path,
        name: &str,
        policy: SyncPolicy,
        seq: u64,
        rebuilds: u64,
        checkpoint: impl FnOnce() -> io::Result<()>,
    ) -> Result<Journal, WalError> {
        fs::create_dir_all(dir)?;
        for (n, path) in list_segments(dir, name)? {
            if n > 0 {
                fs::remove_file(path)?;
            }
        }
        checkpoint()?;
        let (file, header_len) = write_fresh_log(&log_path(dir, name), seq, rebuilds)?;
        let mut j = Journal::open(dir, name, policy, file, 0, seq);
        j.pos = header_len;
        j.prealloc_end = header_len;
        j.prealloc_initial()?;
        Ok(j)
    }

    fn open(
        dir: &Path,
        name: &str,
        policy: SyncPolicy,
        file: LogFile,
        segment: u64,
        seq: u64,
    ) -> Journal {
        Journal {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            policy,
            file,
            segment,
            buf: Vec::new(),
            seq,
            synced: true,
            pos: 0,
            prealloc_end: 0,
            dead: None,
            swaps_since: 0,
            background: None,
        }
    }

    /// Resume journaling after [`plan_replay`] and the replay it planned:
    /// append to the newest segment when it ends exactly at the replayed
    /// head, else start a new one whose header names the head. Segments
    /// the replay did not read are deleted first, and the checkpoint
    /// cadence continues from the replayed swaps.
    pub(crate) fn resume(
        dir: &Path,
        name: &str,
        policy: SyncPolicy,
        plan: &ReplayPlan,
    ) -> Result<Journal, WalError> {
        for &n in &plan.unused {
            match fs::remove_file(segment_path(dir, name, n)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
        if !plan.unused.is_empty() {
            fsync_dir(dir)?;
        }
        let mut j = match plan.chain.last() {
            Some(last) if plan.resumable => {
                let f =
                    OpenOptions::new().write(true).open(segment_path(dir, name, last.number))?;
                let mut j =
                    Journal::open(dir, name, policy, log_file(f, 0), last.number, plan.head_seq);
                j.pos = last.scan.valid_len;
                // A torn tail was truncated to the valid prefix; a clean
                // one keeps its preallocated zeros.
                j.prealloc_end =
                    if last.scan.truncated() { last.scan.valid_len } else { last.scan.file_len };
                j.file.seek_to(j.pos)?;
                j
            }
            _ => {
                let n = plan.next_segment;
                let file = create_segment(dir, name, n)?;
                let mut j = Journal::open(dir, name, policy, file, n, plan.head_seq);
                j.start_segment(plan.head_rebuilds);
                j
            }
        };
        j.swaps_since = plan.swaps.len() as u64;
        Ok(j)
    }

    /// Hand this journal's checkpoints to `ck` from now on. The segment
    /// the first checkpoint switches to is prepared at the first swap, so
    /// attaching (at start-up or recovery) starts no I/O.
    pub(crate) fn attach_checkpointer(&mut self, ck: &Checkpointer) {
        let queue = Arc::clone(&ck.queue);
        self.background = Some(Background { queue, slot: Arc::default() });
    }

    /// Zero-fill the first [`PREALLOC_CHUNK`] of a fresh log and commit
    /// the allocation, so every subsequent fence is a pure data
    /// overwrite. Runs at attach time — off the serving hot path — and
    /// leaves the file cursor parked at `pos`.
    fn prealloc_initial(&mut self) -> io::Result<()> {
        self.ensure_room(PREALLOC_CHUNK - self.pos.min(PREALLOC_CHUNK))?;
        self.file.sync_data()
    }

    /// Extend the zero-filled region so the next `need` bytes of data
    /// land on already-allocated blocks. No-op on the common path; when
    /// it does extend (one fence per [`PREALLOC_CHUNK`] of log), the next
    /// fdatasync simply absorbs the metadata flush the zeros dirtied.
    fn ensure_room(&mut self, need: u64) -> io::Result<()> {
        let end = self.pos + need;
        if end <= self.prealloc_end {
            return Ok(());
        }
        let new_end = end.div_ceil(PREALLOC_CHUNK) * PREALLOC_CHUNK;
        self.file.seek_to(self.prealloc_end)?;
        write_zeros(&mut self.file, new_end - self.prealloc_end)?;
        self.file.seek_to(self.pos)?;
        self.prealloc_end = new_end;
        Ok(())
    }

    /// Buffer the header of the (empty) current segment: the magic and
    /// base cursor, then the [`WalRecord::Checkpoint`] header record with
    /// `rebuilds`. The next fence writes it.
    fn start_segment(&mut self, rebuilds: u64) {
        self.buf.clear();
        self.buf.extend_from_slice(MAGIC_WAL);
        self.buf.extend_from_slice(&self.seq.to_le_bytes());
        let rec = WalRecord::Checkpoint { updates_applied: self.seq, rebuilds };
        frame_into(&mut self.buf, &rec, 12);
        self.synced = false;
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal's name (file stem of its checkpoint and segments).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The segment appends currently go to.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// The update cursor: updates journaled so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Append a record. `Insert`/`Delete` advance the cursor. Under
    /// [`SyncPolicy::EveryUpdate`] the record is on disk when this
    /// returns; under [`SyncPolicy::Batch`] it is buffered until
    /// [`Journal::sync`].
    ///
    /// # Panics
    /// Panics on I/O failure, and on any append after the journal has
    /// fail-stopped (see the type docs).
    #[inline]
    pub fn append(&mut self, rec: &WalRecord) {
        if let Some(reason) = &self.dead {
            panic!("wal append on a fail-stopped journal: {reason}");
        }
        if matches!(rec, WalRecord::Insert { .. } | WalRecord::Delete { .. }) {
            self.seq += 1;
        }
        let off = self.pos + self.buf.len() as u64;
        frame_into(&mut self.buf, rec, off);
        self.synced = false;
        if self.policy == SyncPolicy::EveryUpdate {
            self.sync().expect("wal append failed (fail-stop)");
        }
    }

    /// Append a validated run of updates in one pass — the serving
    /// loop's batch entry point. Equivalent to calling [`Journal::append`]
    /// per update but frames inline with a single buffer reservation, so
    /// the per-record cost is essentially the FNV-1a chain. Callers must
    /// have normalized keys already (`-0.0` → `+0.0`); this is the raw
    /// framing layer, not the validation layer.
    ///
    /// # Panics
    /// Panics on I/O failure (fail-stop; see the type docs).
    pub fn append_updates(&mut self, updates: &[Update]) {
        if updates.is_empty() {
            return;
        }
        if self.policy == SyncPolicy::EveryUpdate {
            // Strict mode means one durable write *per update* — batch
            // framing would silently group-commit. Take the slow path.
            for u in updates {
                self.append(&match *u {
                    Update::Insert { key, measure } => WalRecord::Insert { key, measure },
                    Update::Delete { key, measure } => WalRecord::Delete { key, measure },
                });
            }
            return;
        }
        if let Some(reason) = &self.dead {
            panic!("wal append on a fail-stopped journal: {reason}");
        }
        self.buf.reserve(29 * updates.len());
        for u in updates {
            let (tag, key, measure) = match *u {
                Update::Insert { key, measure } => (crate::serialize::WAL_TAG_INSERT, key, measure),
                Update::Delete { key, measure } => (crate::serialize::WAL_TAG_DELETE, key, measure),
            };
            let mut f = [0u8; 29];
            f[12] = tag;
            f[13..21].copy_from_slice(&key.to_le_bytes());
            f[21..29].copy_from_slice(&measure.to_le_bytes());
            f[0..4].copy_from_slice(&17u32.to_le_bytes());
            let cksum = fnv1a_pos(&f[12..29], self.pos + self.buf.len() as u64);
            f[4..12].copy_from_slice(&cksum.to_le_bytes());
            self.buf.extend_from_slice(&f);
        }
        self.seq += updates.len() as u64;
        self.synced = false;
    }

    /// Group commit: write every buffered frame and fsync. No-op when
    /// the log already covers everything (cheap to call per batch).
    ///
    /// The first failure anywhere on this path — or in a background
    /// checkpoint of this journal — fail-stops the journal permanently
    /// (see the type docs): the error comes back typed, and every
    /// subsequent call — sync, append, swap — refuses with the recorded
    /// reason rather than silently retrying a fence whose outcome is
    /// unknowable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.check_checkpointer();
        if let Some(reason) = &self.dead {
            return Err(io::Error::other(format!("journal is fail-stopped: {reason}")));
        }
        if self.synced {
            return Ok(());
        }
        let result = self.sync_inner();
        if let Err(e) = &result {
            self.dead = Some(e.to_string());
        }
        result
    }

    fn sync_inner(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.ensure_room(self.buf.len() as u64)?;
            self.file.write_all(&self.buf)?;
            self.pos += self.buf.len() as u64;
            self.buf.clear();
        }
        self.file.sync_data()?;
        SYNC_FENCES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.synced = true;
        Ok(())
    }

    /// Adopt a background checkpoint failure as this journal's own.
    fn check_checkpointer(&mut self) {
        if let (None, Some(bg)) = (&self.dead, &self.background) {
            self.dead = bg.slot.lock().failure.clone();
        }
    }

    /// `Some(reason)` once the journal has fail-stopped after a
    /// sync-path I/O failure; `None` while healthy.
    pub fn failed(&self) -> Option<&str> {
        self.dead.as_deref()
    }

    /// `true` when the next compaction swap should checkpoint: the
    /// [`CHECKPOINT_EVERY`]-th since the last checkpoint, or a later one
    /// when that checkpoint was deferred.
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.swaps_since + 1 >= CHECKPOINT_EVERY
    }

    /// Journal a compaction swap that brought the swap count to
    /// `rebuilds`: a [`WalRecord::CompactionSwap`] when it was staged at
    /// a journaled cursor (`staged_at`). With `state` (the post-swap
    /// index, passed when [`Self::checkpoint_due`]) the swap also
    /// checkpoints, unless the checkpointer is still busy with this
    /// journal: the journal fences, switches to the prepared segment with
    /// the swap record at its head, and hands `state` to the checkpointer
    /// (or writes it inline without one). A checkpointer with no segment
    /// prepared for this journal is asked for one at any swap.
    pub(crate) fn record_swap(
        &mut self,
        staged_at: Option<u64>,
        rebuilds: u64,
        state: Option<Frozen>,
    ) -> Result<(), WalError> {
        self.swaps_since += 1;
        if let Some(bg) = &self.background {
            let mut slot = bg.slot.lock();
            if !slot.busy && slot.spare.is_none() && slot.failure.is_none() {
                slot.busy = true;
                bg.queue.push(Job {
                    slot: Arc::clone(&bg.slot),
                    dir: self.dir.clone(),
                    name: self.name.clone(),
                    segment: self.segment + 1,
                    checkpoint: None,
                });
            }
        }
        if let Some(state) = state {
            self.sync()?;
            if let Some(next) = self.take_next_segment()? {
                self.file = next;
                self.segment += 1;
                self.pos = 0;
                self.prealloc_end = PREALLOC_CHUNK;
                self.start_segment(rebuilds - u64::from(staged_at.is_some()));
                if let Some(staged_at) = staged_at {
                    self.append(&WalRecord::CompactionSwap { staged_at });
                }
                self.swaps_since = 0;
                return self.checkpoint(state, rebuilds);
            }
        }
        if let Some(staged_at) = staged_at {
            self.append(&WalRecord::CompactionSwap { staged_at });
        }
        Ok(())
    }

    /// The prepared segment to switch to: the checkpointer's, or `None`
    /// while its last job (a checkpoint, or the segment's preparation)
    /// is in flight; created here without a checkpointer.
    fn take_next_segment(&mut self) -> Result<Option<LogFile>, WalError> {
        let Some(bg) = &self.background else {
            return create_segment(&self.dir, &self.name, self.segment + 1)
                .map(Some)
                .map_err(|e| self.fail(e));
        };
        let mut slot = bg.slot.lock();
        if slot.busy {
            return Ok(None);
        }
        let spare = slot.spare.take();
        slot.busy = spare.is_some();
        Ok(spare)
    }

    /// Checkpoint `state` at the current cursor, the start of the
    /// current segment.
    fn checkpoint(&mut self, state: Frozen, rebuilds: u64) -> Result<(), WalError> {
        let Some(bg) = &self.background else {
            return checkpoint_at(&self.dir, &self.name, self.segment, self.seq, rebuilds, &state)
                .map_err(|e| self.fail(e));
        };
        bg.queue.push(Job {
            slot: Arc::clone(&bg.slot),
            dir: self.dir.clone(),
            name: self.name.clone(),
            segment: self.segment,
            checkpoint: Some((self.seq, rebuilds, state)),
        });
        Ok(())
    }

    fn fail(&mut self, e: io::Error) -> WalError {
        self.dead = Some(e.to_string());
        WalError::Io(e)
    }

    /// Remove every file of a journal — checkpoint, its temp file and all
    /// segments (used when a shard retires after a rebalance). Missing
    /// files are fine — the caller may be cleaning up after a
    /// half-completed retire.
    pub fn remove_files(dir: &Path, name: &str) {
        remove_segments_below(dir, name, u64::MAX);
        let ckpt = checkpoint_path(dir, name);
        let _ = fs::remove_file(tmp_path(&ckpt));
        let _ = fs::remove_file(ckpt);
    }
}

// ---------------------------------------------------------------------------
// The checkpointer
// ---------------------------------------------------------------------------

/// One journal's handoff with the checkpointer.
#[derive(Default)]
struct Slot(Mutex<SlotState>);

#[derive(Default)]
struct SlotState {
    /// A job for this journal is queued or running.
    busy: bool,
    /// The prepared next segment.
    spare: Option<LogFile>,
    /// Why a job failed: sticky, the journal fail-stops on it.
    failure: Option<String>,
}

impl Slot {
    /// Every update of the state is one assignment, so a guard poisoned
    /// mid-update still holds valid state.
    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct Background {
    queue: Arc<JobQueue>,
    slot: Arc<Slot>,
}

/// Checkpoint work for one journal: prepare segment `segment`, or, with
/// `checkpoint = (updates_applied, rebuilds, state)`, checkpoint at the
/// start of segment `segment`, delete the segments before it, and
/// prepare the one after it.
struct Job {
    slot: Arc<Slot>,
    dir: PathBuf,
    name: String,
    segment: u64,
    checkpoint: Option<(u64, u64, Frozen)>,
}

/// Checkpoint `state` (cursor `updates_applied`, `rebuilds` swaps) as
/// of the start of segment `segment`, then delete the segments before it.
fn checkpoint_at(
    dir: &Path,
    name: &str,
    segment: u64,
    updates_applied: u64,
    rebuilds: u64,
    state: &Frozen,
) -> io::Result<()> {
    // Failpoint: the checkpoint starts (a delay stalls the checkpointer,
    // a panic kills it before it writes).
    crate::failpoint::hit("wal.ckpt.begin");
    write_frozen_checkpoint(dir, name, updates_applied, rebuilds, state)?;
    // Failpoint: the checkpoint is durable; the segments it supersedes
    // are not yet deleted.
    crate::failpoint::hit("wal.ckpt.durable");
    remove_segments_below(dir, name, segment);
    Ok(())
}

impl Job {
    /// Run on the checkpointer thread: a panic (an injected one) fails
    /// the journal like an I/O error instead of killing the thread.
    fn run(self) {
        let Job { slot, dir, name, segment, checkpoint } = self;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let next = match checkpoint {
                Some((updates_applied, rebuilds, state)) => {
                    checkpoint_at(&dir, &name, segment, updates_applied, rebuilds, &state)?;
                    segment + 1
                }
                None => segment,
            };
            create_segment(&dir, &name, next)
        }));
        let mut state = slot.lock();
        state.busy = false;
        match outcome {
            Ok(Ok(file)) => state.spare = Some(file),
            Ok(Err(e)) => state.failure = Some(format!("checkpoint failed: {e}")),
            Err(_) => state.failure = Some("checkpointer panicked".to_string()),
        }
        let failed = state.failure.is_some();
        drop(state);
        if failed {
            // Failpoint: the failure is recorded; the journal fail-stops
            // at its next sync.
            crate::failpoint::hit("wal.ckpt.failed");
        }
    }
}

#[derive(Default)]
struct JobQueue {
    /// Pending jobs, and whether the queue is closed.
    jobs: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn push(&self, job: Job) {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.0.push_back(job);
        self.ready.notify_one();
    }

    /// The next job; `None` once the queue is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = jobs.0.pop_front() {
                return Some(job);
            }
            if jobs.1 {
                return None;
            }
            jobs = self.ready.wait(jobs).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
        self.ready.notify_all();
    }
}

/// The background thread that writes checkpoints for the journals of one
/// server and prepares their next segments, so a shard worker's
/// checkpoint swap costs a segment switch and a queue push. Journals
/// join it with `attach_checkpointer`; [`Checkpointer::shutdown`]
/// finishes every queued job, and no journal waits on it meanwhile.
#[derive(Debug)]
pub(crate) struct Checkpointer {
    queue: Arc<JobQueue>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue").finish_non_exhaustive()
    }
}

impl Checkpointer {
    /// Start the checkpointer thread.
    pub(crate) fn start() -> Checkpointer {
        let queue = Arc::new(JobQueue::default());
        let jobs = Arc::clone(&queue);
        let thread = std::thread::Builder::new()
            .name("polyfit-checkpointer".into())
            .spawn(move || {
                while let Some(job) = jobs.pop() {
                    job.run();
                }
            })
            .expect("spawn the checkpointer thread");
        Checkpointer { queue, thread: Mutex::new(Some(thread)) }
    }

    /// Finish the queued and running jobs, then stop the thread. Call
    /// once no journal will swap again.
    pub(crate) fn shutdown(&self) {
        self.queue.close();
        if let Some(t) = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = t.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.queue.close();
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// One log segment in a [`ReplayPlan`]'s chain.
#[derive(Clone, Debug)]
pub struct SegmentScan {
    /// Segment number (see [`segment_path`]).
    pub number: u64,
    /// The segment's valid prefix.
    pub scan: WalScan,
}

/// What recovering journal `name` reads: the checkpoint, the chain of
/// segments replay runs through, and the updates and swaps to re-apply.
#[derive(Clone, Debug)]
pub struct ReplayPlan {
    /// The checkpoint replay starts from.
    pub checkpoint: Checkpoint,
    /// Segments replay reads, oldest first — including superseded ones,
    /// whose records the checkpoint already covers and replay skips.
    pub chain: Vec<SegmentScan>,
    /// Segment files replay does not read: not started (all zeros, like
    /// a prepared segment), unreadable, or after a gap.
    pub unused: Vec<u64>,
    /// Updates to re-apply, with their absolute cursors.
    pub updates: Vec<(u64, Update)>,
    /// Stage points of the swaps to re-apply, in order.
    pub swaps: Vec<u64>,
    /// Update cursor after replay.
    pub head_seq: u64,
    /// Swap count after replay.
    pub head_rebuilds: u64,
    /// The last chain segment ends exactly at the head (appends can
    /// continue in it).
    pub resumable: bool,
    /// A segment number above every existing one.
    pub next_segment: u64,
}

/// Plan the recovery of journal `name` in `dir` without touching it
/// (see the module docs for the read order that makes this safe beside a
/// live journal).
pub fn plan_replay(dir: &Path, name: &str) -> Result<ReplayPlan, WalError> {
    let listed = list_segments(dir, name)?;
    let next_segment = listed.last().map_or(0, |&(n, _)| n + 1);
    let mut files = Vec::with_capacity(listed.len());
    for (n, path) in listed {
        match File::open(&path) {
            Ok(f) => files.push((n, f, Vec::new())),
            // Superseded and deleted since the listing: the checkpoint
            // read below covers it.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    for (_, f, bytes) in files.iter_mut().rev() {
        f.read_to_end(bytes)?;
    }
    let checkpoint = read_checkpoint(&checkpoint_path(dir, name))?;

    let mut at = (checkpoint.updates_applied, checkpoint.rebuilds);
    let mut plan = ReplayPlan {
        checkpoint,
        chain: Vec::new(),
        unused: Vec::new(),
        updates: Vec::new(),
        swaps: Vec::new(),
        head_seq: 0,
        head_rebuilds: 0,
        resumable: false,
        next_segment,
    };
    let mut gap = false;
    for (number, _, bytes) in files {
        let scan = match scan_bytes(&bytes) {
            Ok(scan) if !gap => scan,
            // Not started (all zeros), unreadable, or past a gap.
            _ => {
                plan.unused.push(number);
                continue;
            }
        };
        let base_rebuilds = match scan.records.first() {
            Some(&WalRecord::Checkpoint { rebuilds, .. }) => rebuilds,
            _ => at.1,
        };
        // A segment continues the replay when it starts at or before the
        // point reached so far; past it, the updates or swaps between are
        // lost and the replay ends (a torn tail before a segment the
        // checkpoint reaches costs nothing).
        if scan.base_seq > at.0 || base_rebuilds > at.1 {
            gap = true;
            plan.unused.push(number);
            continue;
        }
        let (mut cursor, mut swaps) = (scan.base_seq, base_rebuilds);
        for rec in &scan.records {
            match *rec {
                WalRecord::Insert { key, measure } | WalRecord::Delete { key, measure } => {
                    cursor += 1;
                    if cursor > at.0 {
                        let u = match rec {
                            WalRecord::Insert { .. } => Update::Insert { key, measure },
                            _ => Update::Delete { key, measure },
                        };
                        plan.updates.push((cursor, u));
                        at.0 = cursor;
                    }
                }
                WalRecord::CompactionSwap { staged_at } => {
                    swaps += 1;
                    if swaps > at.1 {
                        plan.swaps.push(staged_at);
                        at.1 = swaps;
                    }
                }
                // The header record; a hand-damaged log may repeat it.
                WalRecord::Checkpoint { rebuilds, .. } => swaps = rebuilds,
                // Layout records live in the layout log; tolerate strays.
                WalRecord::SplitAt { .. } | WalRecord::Merge { .. } => {}
            }
        }
        plan.resumable = (cursor, swaps) == at && !scan.records.is_empty();
        plan.chain.push(SegmentScan { number, scan });
    }
    (plan.head_seq, plan.head_rebuilds) = at;
    Ok(plan)
}

/// What [`DynamicPolyFitSum::recover`](crate::dynamic::DynamicPolyFitSum::recover)
/// did: where the checkpoint stood, how much log tail was replayed, and
/// whether a torn tail was cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Update cursor of the checkpoint the replay started from.
    pub checkpoint_seq: u64,
    /// Update records replayed from the log tail.
    pub replayed_updates: u64,
    /// Compaction swaps replayed from the log tail.
    pub replayed_swaps: u64,
    /// Update cursor after replay (the log head).
    pub head_seq: u64,
    /// Torn/corrupt tail bytes truncated away (0 for a clean log).
    pub truncated_bytes: u64,
}

/// Physically truncate a scanned log to its valid prefix — the
/// truncate-at-corruption recovery semantics. Returns the bytes cut.
pub fn truncate_torn_tail(path: &Path, scan: &WalScan) -> io::Result<u64> {
    if !scan.truncated() {
        return Ok(0);
    }
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(scan.valid_len)?;
    f.sync_data()?;
    Ok(scan.file_len - scan.valid_len)
}

// ---------------------------------------------------------------------------
// Shard-layout durability
// ---------------------------------------------------------------------------

/// The durable routing table: shard ids in layout order plus the
/// `len - 1` bounds between them (shard `i` owns `(bounds[i-1],
/// bounds[i]]`). The layout checkpoint stores one; the layout log's
/// [`WalRecord::SplitAt`]/[`WalRecord::Merge`] records extend it.
#[derive(Clone, Debug, PartialEq)]
pub struct LayoutCheckpoint {
    /// Shard ids in key order.
    pub ids: Vec<u64>,
    /// Shard bounds (`ids.len() - 1` keys).
    pub bounds: Vec<f64>,
}

impl LayoutCheckpoint {
    /// Apply one rebalance record, mirroring the live layout edit.
    /// Unknown ids are ignored (a replayed record for an already-retired
    /// shard cannot occur in a well-formed log; tolerate it rather than
    /// panic on a hand-damaged one).
    pub fn apply(&mut self, rec: &WalRecord) {
        match *rec {
            WalRecord::SplitAt { parent, key, left, right } => {
                if let Some(pos) = self.ids.iter().position(|&id| id == parent) {
                    self.ids.splice(pos..=pos, [left, right]);
                    self.bounds.insert(pos, key);
                }
            }
            WalRecord::Merge { left, right, merged } => {
                if let Some(pos) = self.ids.iter().position(|&id| id == left) {
                    if self.ids.get(pos + 1) == Some(&right) {
                        self.ids.splice(pos..=pos + 1, [merged]);
                        self.bounds.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }
}

const LAYOUT_NAME: &str = "layout";

fn encode_layout(layout: &LayoutCheckpoint) -> Vec<u8> {
    let mut body = Writer(Vec::with_capacity(8 + layout.ids.len() * 16));
    body.u32(layout.ids.len() as u32);
    for &id in &layout.ids {
        body.u64(id);
    }
    for &b in &layout.bounds {
        body.f64(b);
    }
    let mut out = Vec::with_capacity(12 + body.0.len());
    out.extend_from_slice(MAGIC_LAYOUT);
    out.extend_from_slice(&fnv1a(&body.0).to_le_bytes());
    out.extend_from_slice(&body.0);
    out
}

fn decode_layout(bytes: &[u8]) -> Result<LayoutCheckpoint, WalError> {
    let mut r = Reader::new(bytes);
    if r.take(4).map_err(WalError::Decode)? != MAGIC_LAYOUT {
        return Err(DecodeError::BadMagic.into());
    }
    let cksum = r.u64().map_err(WalError::Decode)?;
    if fnv1a(&bytes[12..]) != cksum {
        return Err(DecodeError::Corrupt("layout checksum").into());
    }
    let n = r.u32().map_err(WalError::Decode)? as usize;
    if n == 0 {
        return Err(DecodeError::Corrupt("layout shard count").into());
    }
    // A corrupt count must end in `Truncated`, not an allocation abort:
    // pre-allocate only as many 8-byte ids as the bytes left could hold.
    let mut ids = Vec::with_capacity(n.min(r.remaining() / 8));
    for _ in 0..n {
        ids.push(r.u64().map_err(WalError::Decode)?);
    }
    let mut bounds = Vec::with_capacity(n - 1);
    for _ in 0..n - 1 {
        bounds.push(r.finite("layout bound").map_err(WalError::Decode)?);
    }
    Ok(LayoutCheckpoint { ids, bounds })
}

/// The sharded server's layout journal: a checkpointed routing table
/// plus an append-only log of rebalance records. Rebalances are rare and
/// already serialized server-wide, so every append syncs immediately.
pub struct LayoutLog {
    dir: PathBuf,
    file: LogFile,
    /// Byte offset of the next append (position-keyed checksums).
    pos: u64,
}

impl std::fmt::Debug for LayoutLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayoutLog").field("dir", &self.dir).finish()
    }
}

impl LayoutLog {
    /// Checkpoint `layout` and start a fresh rebalance log.
    pub fn create(dir: &Path, layout: &LayoutCheckpoint) -> Result<LayoutLog, WalError> {
        fs::create_dir_all(dir)?;
        atomic_write(&checkpoint_path(dir, LAYOUT_NAME), &encode_layout(layout))?;
        let (file, header_len) = write_fresh_log(&log_path(dir, LAYOUT_NAME), 0, 0)?;
        Ok(LayoutLog { dir: dir.to_path_buf(), file, pos: header_len })
    }

    /// Append one rebalance record, durably (write + fsync).
    pub fn append_sync(&mut self, rec: &WalRecord) -> io::Result<()> {
        let framed = frame(rec, self.pos);
        self.file.write_all(&framed)?;
        self.pos += framed.len() as u64;
        self.file.sync_data()
    }

    /// `true` when `dir` holds a sharded (layout-journaled) WAL.
    pub fn exists(dir: &Path) -> bool {
        checkpoint_path(dir, LAYOUT_NAME).exists()
    }

    /// Recover the routing table and take the log over for appends. A
    /// log that replayed no rebalance is kept and appended to at the
    /// valid end its scan found (after any torn tail was cut), so such a
    /// recovery writes neither layout file; one that did replay
    /// rebalances is folded into a fresh checkpoint and log
    /// ([`Self::create`]), as is a log whose header record is torn.
    pub(crate) fn resume(dir: &Path) -> Result<(LayoutLog, LayoutCheckpoint), WalError> {
        let (layout, rebalances, scan, _) = Self::recover(dir)?;
        if !rebalances.is_empty() || scan.records.is_empty() {
            return Ok((Self::create(dir, &layout)?, layout));
        }
        let f = OpenOptions::new().write(true).open(log_path(dir, LAYOUT_NAME))?;
        let mut file = log_file(f, 0);
        file.seek_to(scan.valid_len)?;
        Ok((LayoutLog { dir: dir.to_path_buf(), file, pos: scan.valid_len }, layout))
    }

    /// Recover the routing table: checkpoint + rebalance-record replay.
    /// Returns the final layout, the replayed rebalance records, the log's
    /// scan, and the torn-tail bytes truncated from the log.
    pub fn recover(
        dir: &Path,
    ) -> Result<(LayoutCheckpoint, Vec<WalRecord>, WalScan, u64), WalError> {
        let bytes = fs::read(checkpoint_path(dir, LAYOUT_NAME)).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                WalError::Missing(checkpoint_path(dir, LAYOUT_NAME))
            } else {
                WalError::Io(e)
            }
        })?;
        let mut layout = decode_layout(&bytes)?;
        let path = log_path(dir, LAYOUT_NAME);
        let scan = scan_wal(&path)?;
        let truncated = truncate_torn_tail(&path, &scan)?;
        let rebalances: Vec<WalRecord> = scan
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::SplitAt { .. } | WalRecord::Merge { .. }))
            .copied()
            .collect();
        for rec in &rebalances {
            layout.apply(rec);
        }
        Ok((layout, rebalances, scan, truncated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("polyfit-wal-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = tmp_dir("atomic");
        let path = dir.join("x.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second-longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second-longer");
        // No temp residue.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
    }

    #[test]
    fn journal_appends_scan_back() {
        let dir = tmp_dir("roundtrip");
        let mut j = Journal::create(&dir, "t", SyncPolicy::Batch, b"IDX", 0, 0).unwrap();
        j.append(&WalRecord::Insert { key: 1.0, measure: 2.0 });
        j.append(&WalRecord::Delete { key: 3.0, measure: 1.0 });
        j.append(&WalRecord::CompactionSwap { staged_at: 1 });
        assert_eq!(j.seq(), 2);
        j.sync().unwrap();
        let scan = scan_wal(&log_path(&dir, "t")).unwrap();
        assert_eq!(scan.base_seq, 0);
        assert_eq!(scan.head_seq, 2);
        assert!(!scan.truncated());
        // Leading self-describing checkpoint record + the three appends.
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.records[0], WalRecord::Checkpoint { updates_applied: 0, rebuilds: 0 });
        assert_eq!(scan.records[1], WalRecord::Insert { key: 1.0, measure: 2.0 });
        let ckpt = read_checkpoint(&checkpoint_path(&dir, "t")).unwrap();
        assert_eq!((ckpt.updates_applied, ckpt.rebuilds), (0, 0));
        assert_eq!(ckpt.index, b"IDX");
    }

    #[test]
    fn unsynced_batch_appends_stay_in_memory() {
        let dir = tmp_dir("batch");
        let mut j = Journal::create(&dir, "t", SyncPolicy::Batch, b"IDX", 0, 0).unwrap();
        j.append(&WalRecord::Insert { key: 1.0, measure: 2.0 });
        // Not synced: the on-disk log still holds only the header record.
        let scan = scan_wal(&log_path(&dir, "t")).unwrap();
        assert_eq!(scan.head_seq, 0);
        j.sync().unwrap();
        assert_eq!(scan_wal(&log_path(&dir, "t")).unwrap().head_seq, 1);
    }

    #[test]
    fn every_update_policy_is_durable_per_append() {
        let dir = tmp_dir("strict");
        let mut j = Journal::create(&dir, "t", SyncPolicy::EveryUpdate, b"IDX", 7, 1).unwrap();
        j.append(&WalRecord::Insert { key: 1.0, measure: 2.0 });
        let scan = scan_wal(&log_path(&dir, "t")).unwrap();
        assert_eq!(scan.base_seq, 7);
        assert_eq!(scan.head_seq, 8);
    }

    #[test]
    fn torn_tail_recovers_to_last_checksummed_prefix() {
        let dir = tmp_dir("torn");
        let path = log_path(&dir, "t");
        let mut j = Journal::create(&dir, "t", SyncPolicy::Batch, b"IDX", 0, 0).unwrap();
        for i in 0..10 {
            j.append(&WalRecord::Insert { key: i as f64, measure: 1.0 });
        }
        j.sync().unwrap();
        let clean = scan_wal(&path).unwrap();
        assert_eq!(clean.head_seq, 10);
        // Cut mid-frame at every byte of the last record and re-scan:
        // the valid prefix must always be the first 9 records.
        let full = fs::read(&path).unwrap();
        let frame_len = frame(&WalRecord::Insert { key: 0.0, measure: 1.0 }, 0).len() as u64;
        let cut_zone = (clean.valid_len - frame_len + 1)..clean.valid_len;
        for cut in cut_zone.step_by(5) {
            fs::write(&path, &full[..cut as usize]).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert_eq!(scan.head_seq, 9, "cut at {cut}");
            assert!(scan.truncated());
            let dropped = truncate_torn_tail(&path, &scan).unwrap();
            assert_eq!(dropped, cut - scan.valid_len);
            // After truncation the file is clean again.
            assert!(!scan_wal(&path).unwrap().truncated());
        }
        // Corrupt (not cut) tail: flip a payload byte of the last frame
        // (relative to the valid prefix — the file extends past it with
        // preallocated zeros).
        fs::write(&path, &full).unwrap();
        let mut corrupt = full.clone();
        let last = clean.valid_len as usize - 3;
        corrupt[last] ^= 0xFF;
        fs::write(&path, &corrupt).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.head_seq, 9);
        assert!(scan.truncated());
    }

    #[test]
    fn position_keyed_checksums_reject_duplicated_and_misdirected_frames() {
        let dir = tmp_dir("pos-key");
        let path = log_path(&dir, "t");
        let mut j = Journal::create(&dir, "t", SyncPolicy::Batch, b"IDX", 0, 0).unwrap();
        for i in 0..6 {
            j.append(&WalRecord::Insert { key: i as f64, measure: 1.0 });
        }
        j.sync().unwrap();
        let clean = scan_wal(&path).unwrap();
        assert_eq!(clean.head_seq, 6);
        let bytes = fs::read(&path).unwrap();
        let valid = clean.valid_len as usize;
        let f0 = valid - 6 * 29; // offset of the first insert frame
                                 // Duplicated segment write: the last batch (two byte-identical,
                                 // individually well-checksummed frames) lands a second time at
                                 // the end. Content checksums would replay them — double-applying
                                 // two updates; position-keyed checksums cut the scan instead.
        let mut dup = bytes[..valid].to_vec();
        dup.extend_from_slice(&bytes[valid - 2 * 29..valid]);
        fs::write(&path, &dup).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.head_seq, 6, "duplicated frames must not replay");
        assert_eq!(scan.valid_len, valid as u64);
        assert!(scan.truncated());
        // Misdirected write: the last frame lands at the second insert's
        // offset, overwriting it with a *valid-looking* frame. The scan
        // must stop at the damage, not replay records out of order.
        let mut mis = bytes[..valid].to_vec();
        mis.copy_within(valid - 29..valid, f0 + 29);
        fs::write(&path, &mis).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.head_seq, 1, "scan must cut at the misdirected frame");
        assert!(scan.truncated());
    }

    #[test]
    fn preallocated_zero_tail_is_clean_not_torn() {
        let dir = tmp_dir("prealloc");
        let path = log_path(&dir, "t");
        let mut j = Journal::create(&dir, "t", SyncPolicy::Batch, b"IDX", 0, 0).unwrap();
        for i in 0..4 {
            j.append(&WalRecord::Insert { key: i as f64, measure: 1.0 });
        }
        j.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.head_seq, 4);
        // The file extends past the valid prefix with zero-filled
        // preallocation — which the scan must classify as clean, not as
        // a torn tail to cut.
        assert!(scan.file_len > scan.valid_len);
        assert!(scan.zero_tail);
        assert!(!scan.truncated());
        assert_eq!(truncate_torn_tail(&path, &scan).unwrap(), 0);
    }

    fn small_index() -> crate::dynamic::DynamicPolyFitSum {
        use polyfit_exact::dataset::Record;
        let records = (0..64).map(|i| Record::new(i as f64, 1.0)).collect();
        let cfg = crate::config::PolyFitConfig::default();
        let mut idx = crate::dynamic::DynamicPolyFitSum::new(records, 4.0, cfg, 1_000).unwrap();
        idx.set_step_budget(0);
        idx
    }

    #[test]
    fn checkpoint_switches_segment_and_preserves_cursor() {
        let dir = tmp_dir("ckpt");
        let mut idx = small_index();
        idx.attach_wal(&dir, "t", SyncPolicy::Batch, 0).unwrap();
        for round in 0..CHECKPOINT_EVERY {
            for i in 0..5 {
                idx.insert(100.0 + (round * 5 + i) as f64, 1.0);
            }
            assert!(idx.begin_compaction());
            idx.compact_now();
        }
        // The last swap checkpointed its state at cursor `seq` and
        // switched to segment 1; the checkpoint superseded segment 0.
        let seq = 5 * CHECKPOINT_EVERY;
        let ckpt = read_checkpoint(&checkpoint_path(&dir, "t")).unwrap();
        assert_eq!((ckpt.updates_applied, ckpt.rebuilds), (seq, CHECKPOINT_EVERY));
        assert_eq!(ckpt.index, idx.to_bytes(), "the checkpoint is to_bytes() at the swap");
        assert_eq!(idx.wal().unwrap().segment(), 1);
        let segments: Vec<u64> = list_segments(&dir, "t").unwrap().iter().map(|s| s.0).collect();
        assert_eq!(segments, vec![1]);
        // Segment 1 is all zeros until its first fence.
        assert!(scan_wal(&segment_path(&dir, "t", 1)).is_err());
        idx.insert(999.0, 1.0);
        idx.wal_sync().unwrap();
        let scan = scan_wal(&segment_path(&dir, "t", 1)).unwrap();
        assert_eq!((scan.base_seq, scan.head_seq), (seq, seq + 1));
        let header = WalRecord::Checkpoint { updates_applied: seq, rebuilds: CHECKPOINT_EVERY - 1 };
        assert_eq!(scan.records[..2], [header, WalRecord::CompactionSwap { staged_at: seq }]);
        // Recovery reads the checkpoint and segment 1, replaying no swap.
        let (rec, report) = crate::dynamic::DynamicPolyFitSum::recover(&dir, "t").unwrap();
        assert_eq!((report.replayed_updates, report.replayed_swaps), (1, 0));
        assert_eq!(rec.to_bytes(), idx.to_bytes());
    }

    #[test]
    fn single_file_journal_recovers_and_resumes() {
        // The layout journals had before segmenting: one `<name>.ckpt`
        // and one `<name>.wal`, here caught between a swap's checkpoint
        // and the log restart that followed it, so the checkpoint is a
        // swap ahead of the log.
        use crate::dynamic::DynamicPolyFitSum;
        let dir = tmp_dir("single-file");
        let mut live = small_index();
        let mut j = Journal::create(&dir, "t", SyncPolicy::Batch, &live.to_bytes(), 0, 0).unwrap();
        for i in 0..5 {
            live.insert(100.0 + i as f64, 1.0);
            j.append(&WalRecord::Insert { key: 100.0 + i as f64, measure: 1.0 });
        }
        assert!(live.begin_compaction());
        live.compact_now();
        j.append(&WalRecord::CompactionSwap { staged_at: 5 });
        j.sync().unwrap();
        drop(j);
        let bytes = live.to_bytes();
        write_checkpoint(&dir, "t", 5, 1, bytes.len() as u64, |w| w.write_all(&bytes)).unwrap();
        let (mut resumed, report) =
            DynamicPolyFitSum::resume_wal(&dir, "t", SyncPolicy::Batch).unwrap();
        assert_eq!((report.head_seq, report.replayed_updates, report.replayed_swaps), (5, 0, 0));
        assert_eq!(resumed.to_bytes(), bytes);
        assert_eq!(resumed.wal().unwrap().segment(), 0, "appends continue in <name>.wal");
        resumed.insert(7.5, 2.0);
        live.insert(7.5, 2.0);
        resumed.wal_sync().unwrap();
        let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
        assert_eq!(report.head_seq, 6);
        assert_eq!(rec.to_bytes(), live.to_bytes());
    }

    /// Segment `n` of journal `t` by hand: a header at `base` with
    /// `rebuilds`, then one insert frame per key.
    fn write_segment(dir: &Path, n: u64, base: u64, rebuilds: u64, keys: &[f64]) {
        let mut bytes = MAGIC_WAL.to_vec();
        bytes.extend_from_slice(&base.to_le_bytes());
        frame_into(&mut bytes, &WalRecord::Checkpoint { updates_applied: base, rebuilds }, 12);
        for &key in keys {
            let off = bytes.len() as u64;
            frame_into(&mut bytes, &WalRecord::Insert { key, measure: 1.0 }, off);
        }
        fs::write(segment_path(dir, "t", n), bytes).unwrap();
    }

    #[test]
    fn segments_chain_until_a_gap() {
        use crate::dynamic::DynamicPolyFitSum;
        let dir = tmp_dir("chain");
        let mut idx = small_index();
        idx.attach_wal(&dir, "t", SyncPolicy::Batch, 0).unwrap();
        let mut n = 0;
        while idx.wal().unwrap().segment() == 0 {
            for _ in 0..3 {
                idx.insert(100.0 + n as f64, 1.0);
                n += 1;
            }
            assert!(idx.begin_compaction());
            idx.compact_now();
        }
        idx.insert(99.5, 1.0);
        idx.wal_sync().unwrap();
        let live = idx.to_bytes();
        drop(idx);
        let (seq, rebuilds) = (n as u64, CHECKPOINT_EVERY);
        // A superseded segment 0 left behind, with a torn tail: the
        // checkpoint reaches segment 1, so the replay goes on.
        write_segment(&dir, 0, 0, 0, &[100.0, 101.0]);
        let path = segment_path(&dir, "t", 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[7; 9]);
        fs::write(&path, bytes).unwrap();
        // A segment 3 past a gap: segment 1 ends at `seq + 1`.
        write_segment(&dir, 3, seq + 2, rebuilds, &[5.0]);
        let plan = plan_replay(&dir, "t").unwrap();
        let chain: Vec<u64> = plan.chain.iter().map(|s| s.number).collect();
        assert_eq!((chain, plan.unused.clone()), (vec![0, 1], vec![3]));
        assert_eq!((plan.head_seq, plan.updates.len()), (seq + 1, 1));
        let (rec, report) = DynamicPolyFitSum::recover(&dir, "t").unwrap();
        assert_eq!((report.head_seq, report.truncated_bytes), (seq + 1, 9));
        assert_eq!(rec.to_bytes(), live);
        // Resuming deletes the segment past the gap, then appends.
        let (mut resumed, _) = DynamicPolyFitSum::resume_wal(&dir, "t", SyncPolicy::Batch).unwrap();
        let left: Vec<u64> = list_segments(&dir, "t").unwrap().iter().map(|s| s.0).collect();
        assert_eq!(left, vec![0, 1]);
        resumed.insert(98.5, 1.0);
        resumed.wal_sync().unwrap();
        assert_eq!(DynamicPolyFitSum::recover(&dir, "t").unwrap().1.head_seq, seq + 2);
    }

    #[test]
    fn segment_names_parse_back() {
        let dir = Path::new("/d");
        for n in [0, 1, 17] {
            let path = segment_path(dir, "shard-1", n);
            let file = path.file_name().unwrap().to_str().unwrap();
            assert_eq!(segment_number(file, "shard-1"), Some(n), "{file}");
            assert_eq!(segment_number(file, "shard-10"), None, "{file}");
        }
        for file in
            ["shard-10.wal", "shard-1.ckpt", "shard-1..wal", "shard-1.0.wal", "shard-1.x.wal"]
        {
            assert_eq!(segment_number(file, "shard-1"), None, "{file}");
        }
    }

    #[test]
    fn corrupt_checkpoint_rejected() {
        let dir = tmp_dir("ckpt-corrupt");
        let _ = Journal::create(&dir, "t", SyncPolicy::Batch, b"IDX", 2, 0).unwrap();
        let path = checkpoint_path(&dir, "t");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(WalError::Decode(DecodeError::Corrupt("checkpoint checksum")))
        ));
        assert!(matches!(read_checkpoint(&dir.join("absent.ckpt")), Err(WalError::Missing(_))));
    }

    /// A checkpoint of `index` at cursor 5 after 1 swap, written through
    /// `write_checkpoint` in the pieces `split` cuts it into.
    fn checkpoint_in_pieces(dir: &Path, index: &[u8], split: &[usize]) -> Vec<u8> {
        write_checkpoint(dir, "t", 5, 1, index.len() as u64, |w| {
            let mut rest = index;
            for &n in split.iter().cycle() {
                if rest.is_empty() {
                    return Ok(());
                }
                let (piece, tail) = rest.split_at(n.min(rest.len()));
                w.write_all(piece)?;
                rest = tail;
            }
            Ok(())
        })
        .unwrap();
        fs::read(checkpoint_path(dir, "t")).unwrap()
    }

    fn test_bytes(n: usize) -> Vec<u8> {
        (0..n as u64).map(|i| (i.wrapping_mul(0x9e37_79b9) >> 7) as u8).collect()
    }

    #[test]
    fn checkpoint_checksum_streams_like_one_shot() {
        let dir = tmp_dir("ckpt-stream");
        // The stored checksum is the one-shot checksum of everything
        // after it, whatever pieces the body arrived in: single bytes,
        // cuts inside and across 32-byte blocks, a whole block, and
        // pieces larger than the writer's chunk.
        let index = test_bytes(3 * CHECKPOINT_CHUNK + 77);
        let whole = checkpoint_in_pieces(&dir, &index, &[index.len()]);
        let mut one_shot = Checksum::new();
        one_shot.update(&whole[12..]);
        assert_eq!(whole[4..12], one_shot.finish().to_le_bytes());
        for split in [&[1][..], &[7, 31], &[32], &[33, 5, 64], &[CHECKPOINT_CHUNK + 3, 1]] {
            let streamed = checkpoint_in_pieces(&dir, &index, split);
            assert!(streamed == whole, "split {split:?} changed the checkpoint");
        }
        // Any two-piece split of a short input, hashed directly.
        let bytes = test_bytes(200);
        let mut all = Checksum::new();
        all.update(&bytes);
        for cut in 0..=bytes.len() {
            let mut c = Checksum::new();
            c.update(&bytes[..cut]);
            c.update(&bytes[cut..]);
            assert_eq!(c.finish(), all.finish(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_checkpoint_is_rejected() {
        let dir = tmp_dir("ckpt-flips");
        let path = checkpoint_path(&dir, "t");
        let clean = checkpoint_in_pieces(&dir, &test_bytes(101), &[101]);
        let back = read_checkpoint(&path).unwrap();
        assert_eq!((back.updates_applied, back.rebuilds, back.index), (5, 1, test_bytes(101)));
        for bit in 0..clean.len() * 8 {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(read_checkpoint(&path), Err(WalError::Decode(_))),
                "flip of bit {bit} accepted"
            );
        }
        // Two flips of bit 63 in two words of one lane: xor–multiply
        // alone cancels them, the xorshift must not. Word `w` of the
        // checksummed bytes starts at file offset 12 + 8w; lane w % 4.
        // Words 3.. are the index.
        for w in 3..8 {
            let mut bytes = clean.clone();
            for word in [w, w + 4] {
                bytes[12 + 8 * word + 7] ^= 0x80;
            }
            fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    read_checkpoint(&path),
                    Err(WalError::Decode(DecodeError::Corrupt("checkpoint checksum")))
                ),
                "top-bit flips in words {w} and {} accepted",
                w + 4
            );
        }
    }

    #[test]
    fn old_short_and_long_checkpoints_end_in_typed_errors() {
        let dir = tmp_dir("ckpt-typed");
        let path = checkpoint_path(&dir, "t");
        let clean = checkpoint_in_pieces(&dir, &test_bytes(64), &[64]);
        let read = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            read_checkpoint(&path)
        };
        let decode = |r: Result<Checkpoint, WalError>| match r {
            Err(WalError::Decode(e)) => e,
            other => panic!("expected a decode error, got {other:?}"),
        };
        let mut old = clean.clone();
        old[..4].copy_from_slice(b"PFC1");
        assert_eq!(decode(read(&old)), DecodeError::BadMagic);
        for cut in [0, 3, 4, 11, 12, 35, 36, clean.len() - 1] {
            assert_eq!(decode(read(&clean[..cut])), DecodeError::Truncated, "cut at {cut}");
        }
        let mut long = clean.clone();
        long.extend_from_slice(&[0; 3]);
        assert_eq!(decode(read(&long)), DecodeError::Corrupt("checkpoint length"));
        // A length field past the file (here near u64::MAX) allocates
        // nothing and reads as truncated.
        let mut huge = clean.clone();
        huge[28..36].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        assert_eq!(decode(read(&huge)), DecodeError::Truncated);
        assert_eq!(read(&clean).unwrap().index, test_bytes(64));
    }

    #[test]
    fn crafted_counts_in_recovery_files_end_in_typed_errors() {
        use crate::config::PolyFitConfig;
        use crate::shard::{ShardConfig, ShardedServer};
        use polyfit_exact::dataset::Record;

        let dir = tmp_dir("crafted-counts");
        let records: Vec<Record> = (0..200).map(|i| Record::new(i as f64, 1.0)).collect();
        let cfg = ShardConfig::default();
        ShardedServer::start_with_wal(
            records,
            5.0,
            PolyFitConfig::default(),
            cfg,
            &dir,
            SyncPolicy::Batch,
        )
        .unwrap()
        .shutdown();
        // A PFD2 shard checkpoint whose base is a 44-byte PFS2 file with
        // segment count u32::MAX (was a 343 GB allocation abort).
        let mut base = b"PFS2".to_vec();
        base.extend_from_slice(&0u32.to_le_bytes());
        for v in [1.0f64, 10.0, 0.0, 9.0] {
            base.extend_from_slice(&v.to_le_bytes());
        }
        base.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut pfd2 = b"PFD2".to_vec();
        pfd2.extend_from_slice(&5.0f64.to_le_bytes());
        // degree, backend, max_segment_len, buffer_limit, rebuilds, base_len
        for v in [2u32, 0, 0, 1024, 0, base.len() as u32] {
            pfd2.extend_from_slice(&v.to_le_bytes());
        }
        pfd2.extend_from_slice(&base);
        write_checkpoint(&dir, "shard-0", 0, 0, pfd2.len() as u64, |w| w.write_all(&pfd2)).unwrap();
        let err = ShardedServer::recover(&dir, cfg, SyncPolicy::Batch).err();
        assert!(matches!(err, Some(WalError::Decode(DecodeError::Truncated))), "{err:?}");
        // A 16-byte layout checkpoint with a valid checksum and shard count
        // u32::MAX (was a 34 GB allocation abort).
        let body = u32::MAX.to_le_bytes();
        let mut layout = MAGIC_LAYOUT.to_vec();
        layout.extend_from_slice(&fnv1a(&body).to_le_bytes());
        layout.extend_from_slice(&body);
        fs::write(checkpoint_path(&dir, LAYOUT_NAME), &layout).unwrap();
        let err = ShardedServer::recover(&dir, cfg, SyncPolicy::Batch).err();
        assert!(matches!(err, Some(WalError::Decode(DecodeError::Truncated))), "{err:?}");
    }

    #[test]
    fn layout_log_replays_splits_and_merges() {
        let dir = tmp_dir("layout");
        let initial = LayoutCheckpoint { ids: vec![0, 1], bounds: vec![10.0] };
        let mut l = LayoutLog::create(&dir, &initial).unwrap();
        l.append_sync(&WalRecord::SplitAt { parent: 1, key: 20.0, left: 2, right: 3 }).unwrap();
        l.append_sync(&WalRecord::Merge { left: 0, right: 2, merged: 4 }).unwrap();
        let (layout, rebalances, _, truncated) = LayoutLog::recover(&dir).unwrap();
        assert_eq!(layout, LayoutCheckpoint { ids: vec![4, 3], bounds: vec![20.0] });
        assert_eq!(rebalances.len(), 2);
        assert_eq!(truncated, 0);
        assert!(LayoutLog::exists(&dir));
        assert!(!LayoutLog::exists(&dir.join("nope")));
    }

    #[test]
    fn layout_torn_tail_drops_unfinished_rebalance() {
        let dir = tmp_dir("layout-torn");
        let initial = LayoutCheckpoint { ids: vec![0], bounds: vec![] };
        let mut l = LayoutLog::create(&dir, &initial).unwrap();
        l.append_sync(&WalRecord::SplitAt { parent: 0, key: 5.0, left: 1, right: 2 }).unwrap();
        // Tear the record: the split must not replay.
        let path = log_path(&dir, LAYOUT_NAME);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let (layout, rebalances, _, truncated) = LayoutLog::recover(&dir).unwrap();
        assert_eq!(layout, initial);
        assert!(rebalances.is_empty());
        assert!(truncated > 0);
    }

    #[test]
    fn attach_streams_the_checkpoint_to_bytes_would_write() {
        // `attach_wal` streams the PFD2 bytes into the checkpoint the way
        // the checkpointer does; the file must equal the one an encoded
        // `to_bytes()` makes, across several checkpoint chunks and with
        // buffered deltas in the state.
        use polyfit_exact::dataset::Record;
        let records = (0..12_000).map(|i| Record::new(i as f64 * 0.5, 1.0 + (i % 7) as f64));
        let cfg = crate::config::PolyFitConfig::default();
        let mut idx =
            crate::dynamic::DynamicPolyFitSum::new(records.collect(), 4.0, cfg, 1_000).unwrap();
        idx.set_step_budget(0);
        for i in 0..40 {
            idx.insert(0.25 + i as f64, 2.0);
        }
        let bytes = idx.to_bytes();
        assert!(bytes.len() > 2 * CHECKPOINT_CHUNK);
        let (streamed, encoded) = (tmp_dir("attach-streamed"), tmp_dir("attach-encoded"));
        idx.attach_wal(&streamed, "t", SyncPolicy::Batch, 3).unwrap();
        Journal::create(&encoded, "t", SyncPolicy::Batch, &bytes, 3, 0).unwrap();
        let file = |dir: &Path| fs::read(checkpoint_path(dir, "t")).unwrap();
        assert!(file(&streamed) == file(&encoded), "streamed checkpoint differs");
        assert_eq!(read_checkpoint(&checkpoint_path(&streamed, "t")).unwrap().index, bytes);
    }
}
