//! Durable write path: an append-only, fsync-batched write-ahead log
//! with checkpoint/replay crash recovery (the ROADMAP "durable update
//! oplog" item).
//!
//! ## Design
//!
//! Every mutating index owns at most one [`Journal`] — the single seam
//! the whole mutation path flows through:
//!
//! * **Log.** `<dir>/<name>.wal` is a stream of length-prefixed,
//!   checksummed frames around [`WalRecord`] payloads, headed by a
//!   magic-and-base-cursor header. Appends buffer in memory; [`Journal::sync`]
//!   writes and fsyncs them in one batch (**group commit**). The serving
//!   loop calls it once per deadline window, after draining the window's
//!   updates and before answering its queries — so durability rides the
//!   existing batching and an answered query implies every update it
//!   observed is on disk.
//! * **Checkpoint.** `<dir>/<name>.ckpt` holds the full serialized index
//!   (the PFD2 format) wrapped in a checksummed container that adds the
//!   replay cursor. Checkpoints are written at every compaction swap —
//!   the moment the log's buffered deltas fold into the base — after
//!   which the log is truncated to a fresh file whose header carries the
//!   new cursor. Both writes are crash-atomic (temp file + rename +
//!   parent-directory fsync, see [`atomic_write`]).
//! * **Recovery.** Load the checkpoint, scan the log tail, replay. A
//!   torn or corrupt frame ends the scan: everything before it is the
//!   recovered state, the file is truncated there
//!   (truncate-at-corruption), and the tail is reported, never silently
//!   dropped. Replay reuses the provenance discipline every PR built on:
//!   updates re-apply through the normal insert/delete path and each
//!   [`WalRecord::CompactionSwap`] re-stages at its recorded cursor and
//!   compacts blocking — bitwise-identical to the live stepped rebuild,
//!   so a recovered index answers bit-for-bit like one that never
//!   crashed.
//!
//! ## Crash windows of the swap protocol
//!
//! The compaction-swap checkpoint runs: ① append
//! `CompactionSwap { staged_at }` and fsync the old log, ② atomically
//! replace the checkpoint file, ③ atomically replace the log with a
//! fresh one. A crash…
//!
//! * …before ① is durable: recovery replays the old checkpoint + update
//!   tail without the swap. The swap is bitwise-transparent to answers
//!   (PR 3's contract), so the recovered index answers identically and
//!   simply re-compacts later.
//! * …between ① and ②: the old checkpoint + full log replay the swap via
//!   the recorded `staged_at`.
//! * …between ② and ③: the new checkpoint's cursor covers every update
//!   and the swap; stale log records at or before the cursor are skipped
//!   on replay.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use crate::error::PolyFitError;
use crate::serialize::{decode_wal_record, DecodeError, Reader, WalRecord, Writer};

/// Log-file magic: "PFW2", followed by the base cursor (u64) — the
/// number of updates already folded into the checkpoint this log extends.
/// (v2: frame checksums are position-keyed, see [`fnv1a_pos`].)
const MAGIC_WAL: &[u8; 4] = b"PFW2";
/// Checkpoint-container magic: "PFC1" — checksummed wrapper around a
/// serialized index plus its replay cursor.
const MAGIC_CKPT: &[u8; 4] = b"PFC1";
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
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).map(Path::to_path_buf);
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "atomic_write needs a file path")
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = dir {
        fsync_dir(&dir)?;
    }
    Ok(())
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
/// the journal is built over [`FaultFile`] instead, which consults the
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
    let file_name = path.file_name().expect("log path has a file name");
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    f.write_all(&w.0)?;
    f.sync_data()?;
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fsync_dir(dir)?;
    }
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
    /// [`PREALLOC_CHUNK`]), not crash damage. A valid frame can never be
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
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(WalError::Missing(path.to_path_buf()))
        }
        Err(e) => return Err(e.into()),
    };
    let file_len = bytes.len() as u64;
    let mut r = Reader::new(&bytes);
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
        if matches!(rec, WalRecord::Insert { .. } | WalRecord::Delete { .. }) {
            head_seq += 1;
        }
        records.push(rec);
        pos += 12 + len as usize;
    }
    let zero_tail = pos < bytes.len() && bytes[pos..].iter().all(|&b| b == 0);
    Ok(WalScan { base_seq, records, head_seq, valid_len: pos as u64, file_len, zero_tail })
}

/// Encode the checkpoint container: `"PFC1" | fnv1a | updates_applied |
/// rebuilds | index_len | index bytes`. The checksum covers everything
/// after itself.
fn encode_checkpoint(updates_applied: u64, rebuilds: u64, index: &[u8]) -> Vec<u8> {
    let mut out = Writer(Vec::with_capacity(36 + index.len()));
    out.0.extend_from_slice(MAGIC_CKPT);
    out.u64(0); // checksum, patched below
    out.u64(updates_applied);
    out.u64(rebuilds);
    out.u64(index.len() as u64);
    out.0.extend_from_slice(index);
    let cksum = fnv1a(&out.0[12..]);
    out.0[4..12].copy_from_slice(&cksum.to_le_bytes());
    out.0
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

/// Read and verify a checkpoint file written by [`Journal`].
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, WalError> {
    let mut bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(WalError::Missing(path.to_path_buf()))
        }
        Err(e) => return Err(e.into()),
    };
    let mut r = Reader::new(&bytes);
    if r.take(4).map_err(WalError::Decode)? != MAGIC_CKPT {
        return Err(DecodeError::BadMagic.into());
    }
    let cksum = r.u64().map_err(WalError::Decode)?;
    if fnv1a(&bytes[12..]) != cksum {
        return Err(DecodeError::Corrupt("checkpoint checksum").into());
    }
    let updates_applied = r.u64().map_err(WalError::Decode)?;
    let rebuilds = r.u64().map_err(WalError::Decode)?;
    let index_len = r.u64().map_err(WalError::Decode)? as usize;
    r.take(index_len).map_err(WalError::Decode)?;
    // The index bytes are the tail of the file buffer: trim the header
    // off in place instead of copying them out.
    bytes.truncate(36 + index_len);
    bytes.drain(..36);
    Ok(Checkpoint { updates_applied, rebuilds, index: bytes })
}

/// Log file path for a journal name.
pub fn log_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}

/// Checkpoint file path for a journal name.
pub fn checkpoint_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.ckpt"))
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// The durable seam of one mutating index: an open log file, a group-
/// commit buffer, and the update cursor. Owned by a
/// [`DynamicPolyFitSum`](crate::dynamic::DynamicPolyFitSum) via
/// `attach_wal`; every insert/delete appends here *before* it folds into
/// the in-memory state, and every compaction swap checkpoints + truncates
/// through [`Journal::checkpoint`].
///
/// Failure stance is fail-stop: append/checkpoint I/O errors panic (a
/// write path that cannot persist must not keep acknowledging), while
/// the explicit [`Journal::sync`] returns the error to the caller (the
/// serving loop turns it into a worker panic, which poisons in-flight
/// tickets instead of hanging clients). And fail-stop is *sticky*: after
/// any sync-path failure the journal refuses every further operation —
/// per fsyncgate, a failed fsync leaves the page cache in an unknowable
/// state, so retrying the fence could silently ack data that never
/// reached the disk. The first error is returned typed; every later call
/// fails with [`Journal::failed`]'s reason.
pub struct Journal {
    dir: PathBuf,
    name: String,
    policy: SyncPolicy,
    file: LogFile,
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
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("seq", &self.seq)
            .field("pending_bytes", &self.buf.len())
            .finish()
    }
}

impl Journal {
    /// Create (or overwrite) a journal: write a checkpoint of `index`
    /// at cursor `seq`, then start a fresh log extending it. `dir` is
    /// created if needed.
    pub fn create(
        dir: &Path,
        name: &str,
        policy: SyncPolicy,
        index: &[u8],
        seq: u64,
        rebuilds: u64,
    ) -> Result<Journal, WalError> {
        fs::create_dir_all(dir)?;
        atomic_write(&checkpoint_path(dir, name), &encode_checkpoint(seq, rebuilds, index))?;
        let (file, header_len) = write_fresh_log(&log_path(dir, name), seq, rebuilds)?;
        let mut j = Journal {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            policy,
            file,
            buf: Vec::new(),
            seq,
            synced: true,
            pos: header_len,
            prealloc_end: header_len,
            dead: None,
        };
        j.prealloc_initial()?;
        Ok(j)
    }

    /// Zero-fill the first [`PREALLOC_CHUNK`] of a fresh log and commit
    /// the allocation, so every subsequent fence is a pure data
    /// overwrite. Runs at attach/checkpoint time — off the serving hot
    /// path — and leaves the file cursor parked at `pos`.
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
        self.file.write_all(&vec![0u8; (new_end - self.prealloc_end) as usize])?;
        self.file.seek_to(self.pos)?;
        self.prealloc_end = new_end;
        Ok(())
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal's name (file stem of its log/checkpoint pair).
    pub fn name(&self) -> &str {
        &self.name
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
    pub fn append_updates(&mut self, updates: &[crate::dynamic::Update]) {
        if updates.is_empty() {
            return;
        }
        if self.policy == SyncPolicy::EveryUpdate {
            // Strict mode means one durable write *per update* — batch
            // framing would silently group-commit. Take the slow path.
            for u in updates {
                self.append(&match *u {
                    crate::dynamic::Update::Insert { key, measure } => {
                        WalRecord::Insert { key, measure }
                    }
                    crate::dynamic::Update::Delete { key, measure } => {
                        WalRecord::Delete { key, measure }
                    }
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
                crate::dynamic::Update::Insert { key, measure } => {
                    (crate::serialize::WAL_TAG_INSERT, key, measure)
                }
                crate::dynamic::Update::Delete { key, measure } => {
                    (crate::serialize::WAL_TAG_DELETE, key, measure)
                }
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
    /// The first failure anywhere on this path fail-stops the journal
    /// permanently (see the type docs): the error comes back typed, and
    /// every subsequent call — sync, append, checkpoint — refuses with
    /// the recorded reason rather than silently retrying a fence whose
    /// outcome is unknowable.
    pub fn sync(&mut self) -> io::Result<()> {
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

    /// `Some(reason)` once the journal has fail-stopped after a
    /// sync-path I/O failure; `None` while healthy.
    pub fn failed(&self) -> Option<&str> {
        self.dead.as_deref()
    }

    /// The compaction-swap checkpoint protocol (see the module docs for
    /// the crash-window analysis):
    ///
    /// 1. append `CompactionSwap { staged_at }` (when the swap was
    ///    journal-visible) and fsync the old log,
    /// 2. atomically replace the checkpoint file with `index` at the
    ///    current cursor,
    /// 3. atomically replace the log with a fresh one extending it.
    pub fn checkpoint(
        &mut self,
        staged_at: Option<u64>,
        index: &[u8],
        rebuilds: u64,
    ) -> Result<(), WalError> {
        if let Some(staged_at) = staged_at {
            let off = self.pos + self.buf.len() as u64;
            frame_into(&mut self.buf, &WalRecord::CompactionSwap { staged_at }, off);
            self.synced = false;
        }
        self.sync()?;
        atomic_write(
            &checkpoint_path(&self.dir, &self.name),
            &encode_checkpoint(self.seq, rebuilds, index),
        )?;
        let (file, header_len) =
            write_fresh_log(&log_path(&self.dir, &self.name), self.seq, rebuilds)?;
        self.file = file;
        self.pos = header_len;
        self.prealloc_end = header_len;
        self.prealloc_initial()?;
        self.synced = true;
        Ok(())
    }

    /// Remove a journal's file pair (used when a shard retires after a
    /// rebalance). Missing files are fine — the caller may be cleaning
    /// up after a half-completed retire.
    pub fn remove_files(dir: &Path, name: &str) {
        let _ = fs::remove_file(log_path(dir, name));
        let _ = fs::remove_file(checkpoint_path(dir, name));
    }
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

    /// Recover the routing table: checkpoint + rebalance-record replay.
    /// Returns the final layout, the replayed rebalance records, and the
    /// torn-tail bytes truncated from the log.
    pub fn recover(dir: &Path) -> Result<(LayoutCheckpoint, Vec<WalRecord>, u64), WalError> {
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
            .into_iter()
            .filter(|r| matches!(r, WalRecord::SplitAt { .. } | WalRecord::Merge { .. }))
            .collect();
        for rec in &rebalances {
            layout.apply(rec);
        }
        Ok((layout, rebalances, truncated))
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

    #[test]
    fn checkpoint_truncates_log_and_preserves_cursor() {
        let dir = tmp_dir("ckpt");
        let mut j = Journal::create(&dir, "t", SyncPolicy::Batch, b"OLD", 0, 0).unwrap();
        for i in 0..5 {
            j.append(&WalRecord::Insert { key: i as f64, measure: 1.0 });
        }
        j.checkpoint(Some(3), b"NEW", 1).unwrap();
        let ckpt = read_checkpoint(&checkpoint_path(&dir, "t")).unwrap();
        assert_eq!((ckpt.updates_applied, ckpt.rebuilds), (5, 1));
        assert_eq!(ckpt.index, b"NEW");
        let scan = scan_wal(&log_path(&dir, "t")).unwrap();
        assert_eq!(scan.base_seq, 5);
        assert_eq!(scan.head_seq, 5);
        assert_eq!(scan.records, vec![WalRecord::Checkpoint { updates_applied: 5, rebuilds: 1 }]);
        // Appends continue on the fresh log.
        j.append(&WalRecord::Insert { key: 9.0, measure: 1.0 });
        j.sync().unwrap();
        assert_eq!(scan_wal(&log_path(&dir, "t")).unwrap().head_seq, 6);
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
        atomic_write(&checkpoint_path(&dir, "shard-0"), &encode_checkpoint(0, 0, &pfd2)).unwrap();
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
        let (layout, rebalances, truncated) = LayoutLog::recover(&dir).unwrap();
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
        let (layout, rebalances, truncated) = LayoutLog::recover(&dir).unwrap();
        assert_eq!(layout, initial);
        assert!(rebalances.is_empty());
        assert!(truncated > 0);
    }
}
