//! Write-ahead op log for the serving layer.
//!
//! Every operation a WAL-backed [`RmsService`](crate::RmsService)
//! acknowledges is first framed into an append-only log, so an unclean
//! death (kill −9, power cut with the fsync knob on) between
//! acknowledgement and apply loses nothing: the next
//! [`RmsService::start_with_wal`](crate::RmsService::start_with_wal)
//! replays the log on top of the base dataset before going live.
//!
//! The format is std-only binary framing in the style of
//! `rms-data::cache`:
//!
//! ```text
//! header   magic u32 = 0x4B57414C ("KWAL"), version u32
//! record   tag u8 | len u32 | payload (len bytes) | fnv1a-64 of tag+payload
//!
//! tag 1  INSERT      payload: id u64, d u32, d × f64
//! tag 2  DELETE      payload: id u64
//! tag 3  UPDATE      payload: id u64, d u32, d × f64
//! tag 4  CHECKPOINT  payload: an rms-data::cache dataset buffer
//! ```
//!
//! All integers and floats are little-endian. A `CHECKPOINT` record
//! resets replay state: everything before it is superseded by the
//! embedded dataset, ops after it apply on top. Graceful shutdown
//! compacts the log to a single checkpoint of the final live tuples
//! (atomically, via a temp-file rename), so the log never grows beyond
//! one unclean run's worth of ops.
//!
//! Torn tails are expected, not fatal: a crash mid-append leaves a
//! truncated or checksum-failing final record; [`Wal::open`] stops
//! replay at the last intact record and truncates the file there before
//! new appends, so the log never accumulates unreachable garbage.
//! Corruption is fatal: a crash tears only the record being appended, so
//! a bad record with an intact one anywhere after it is damage to
//! acknowledged ops, not a tear. [`Wal::open`] then refuses the log and
//! leaves it untouched instead of truncating those ops away.

use fdrms::Op;
use rms_geom::Point;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: u32 = 0x4B57_414C;
const VERSION: u32 = 1;
const HEADER_LEN: usize = 8;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;

/// Frame overhead around a payload: tag (1) + length (4) + hash (8).
const FRAME_OVERHEAD: usize = 13;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One FNV-1a 64-bit folding step over `bytes` — enough to tell a torn
/// or bit-rotted record from an intact one; this is corruption
/// detection, not authentication. Streaming (seed in, hash out) so a
/// record's `tag + payload` hashes without concatenating them.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The checksum of one record: FNV-1a over the tag byte then the payload.
fn record_hash(tag: u8, payload: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &[tag]), payload)
}

/// What [`Wal::open`] recovered from an existing log.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// The dataset of the most recent `CHECKPOINT` record, if any — the
    /// replay base that supersedes the caller's initial dataset.
    pub checkpoint: Option<Vec<Point>>,
    /// Operations logged after that checkpoint (or since the header when
    /// no checkpoint exists), in append order.
    pub ops: Vec<Op>,
    /// Bytes of torn/corrupt tail dropped during recovery (0 on a clean
    /// log).
    pub torn_bytes: u64,
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes of intact log, maintained across appends. A failed append
    /// truncates back here so a torn record never strands the records
    /// appended after it; if even the truncation fails the log is
    /// poisoned and refuses further appends (claiming durability over a
    /// wedged log would silently lose everything past the tear).
    end: u64,
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, first scanning what
    /// is already there. The scan tolerates a torn tail — the file is
    /// truncated to its last intact record so appends resume cleanly — but
    /// refuses a non-empty file that is not a KWAL log, so a mistaken
    /// `--wal` path never clobbers foreign data, and refuses a bad record
    /// followed by an intact one (`InvalidData`, naming both offsets), so
    /// corruption never truncates acknowledged ops away. A refused file is
    /// left byte for byte as it was.
    pub fn open(path: &Path) -> io::Result<(Self, WalReplay)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (replay, valid_len) = scan(&raw)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let end = if raw.is_empty() {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC.to_le_bytes());
            header.extend_from_slice(&VERSION.to_le_bytes());
            file.write_all(&header)?;
            HEADER_LEN as u64
        } else {
            // Drop the torn tail (if any) so fresh appends are reachable.
            file.set_len(valid_len)?;
            valid_len
        };
        file.seek(SeekFrom::End(0))?;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                end,
                poisoned: false,
            },
            replay,
        ))
    }

    /// Appends one operation record. The record reaches the OS (a plain
    /// `write`, no userspace buffering) before this returns, so it
    /// survives a process kill; call [`Wal::sync`] for power-failure
    /// durability.
    pub fn append(&mut self, op: &Op) -> io::Result<()> {
        self.append_frame(&Self::frame_op(op))
    }

    /// Encodes one operation into its on-disk record, for callers that
    /// build the frame before they take a lock (the serving layer frames
    /// outside its queue lock, then appends under it).
    pub fn frame_op(op: &Op) -> Vec<u8> {
        let (tag, payload) = encode_op(op);
        frame(tag, &payload)
    }

    /// Appends a record previously produced by [`Wal::frame_op`]. On an
    /// IO failure the log is truncated back to its last intact record —
    /// a partially written frame must not strand everything appended
    /// after it behind a checksum failure. If that recovery truncation
    /// itself fails, the log is poisoned: every further append returns
    /// an error instead of pretending to be durable.
    pub fn append_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "write-ahead log is poisoned by an unrecoverable append failure",
            ));
        }
        match self.file.write_all(frame) {
            Ok(()) => {
                self.end += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                if self.file.set_len(self.end).is_err() || self.file.seek(SeekFrom::End(0)).is_err()
                {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Marks the log poisoned, as a failed append whose truncation also
    /// failed would, so tests can drive the refusal path.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Flushes appended records to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// An independent fsync handle over the same log file (a duplicated
    /// descriptor), so the serving layer's group-commit `fdatasync` runs
    /// without the queue lock its submitters append under, and never
    /// stalls them. After a [`Wal::checkpoint`] the handle points at the
    /// unlinked pre-compaction file; syncing that is harmless, and
    /// compaction only happens at shutdown, after the last group commit.
    pub fn sync_handle(&self) -> io::Result<WalSyncHandle> {
        Ok(WalSyncHandle {
            file: self.file.try_clone()?,
        })
    }

    /// Compacts the log to a single checkpoint of `points`: the new
    /// content is written to a sibling temp file, synced, and atomically
    /// renamed over the log, so a crash mid-compaction leaves either the
    /// old log or the new one — never a mix.
    pub fn checkpoint(&mut self, points: &[Point]) -> io::Result<()> {
        let mut tmp_path = self.path.clone().into_os_string();
        tmp_path.push(".tmp");
        let tmp_path = PathBuf::from(tmp_path);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&frame(TAG_CHECKPOINT, &rms_data::cache::encode(points)));
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&buf)?;
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        // The rename itself is only power-failure durable once the
        // parent directory entry is flushed (best-effort: a directory
        // that cannot be opened or synced leaves process-kill durability
        // intact).
        let parent = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
        // Re-open so subsequent appends land after the checkpoint record
        // of the *new* file, not in the unlinked old one.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.end = self.file.seek(SeekFrom::End(0))?;
        self.poisoned = false;
        Ok(())
    }
}

/// A duplicated descriptor of an open [`Wal`], used only for
/// `fdatasync` — see [`Wal::sync_handle`].
#[derive(Debug)]
pub struct WalSyncHandle {
    file: File,
}

impl WalSyncHandle {
    /// Flushes everything appended to the log so far to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Frames one record: `tag | len | payload | fnv1a(tag + payload)`.
fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    rec.push(tag);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(payload);
    rec.extend_from_slice(&record_hash(tag, payload).to_le_bytes());
    rec
}

fn encode_op(op: &Op) -> (u8, Vec<u8>) {
    match op {
        Op::Insert(p) => (TAG_INSERT, encode_point(p)),
        Op::Update(p) => (TAG_UPDATE, encode_point(p)),
        Op::Delete(id) => (TAG_DELETE, id.to_le_bytes().to_vec()),
    }
}

fn encode_point(p: &Point) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + p.dim() * 8);
    buf.extend_from_slice(&p.id().to_le_bytes());
    buf.extend_from_slice(&(p.dim() as u32).to_le_bytes());
    for &c in p.coords() {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf
}

/// Reads a little-endian `u32` at `at`, `None` past the end — the
/// fallible primitive all decode paths are built on, so a torn or
/// corrupt record can never panic the replay.
fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    buf.get(at..)?
        .first_chunk::<4>()
        .map(|b| u32::from_le_bytes(*b))
}

/// Reads a little-endian `u64` at `at`, `None` past the end.
fn le_u64(buf: &[u8], at: usize) -> Option<u64> {
    buf.get(at..)?
        .first_chunk::<8>()
        .map(|b| u64::from_le_bytes(*b))
}

fn decode_point(payload: &[u8]) -> Option<Point> {
    let id = le_u64(payload, 0)?;
    let d = le_u32(payload, 8)? as usize;
    let mut rest = payload.get(12..)?;
    if rest.len() != d.checked_mul(8)? {
        return None;
    }
    let mut coords = Vec::with_capacity(d);
    while let Some((c, tail)) = rest.split_first_chunk::<8>() {
        coords.push(f64::from_le_bytes(*c));
        rest = tail;
    }
    Some(Point::new_unchecked(id, coords))
}

/// Scans a log buffer: returns the replay state and the byte length of
/// the intact prefix. A bad record with nothing intact after it ends the
/// scan (its bytes count as torn); one with an intact record anywhere
/// after it, and a non-KWAL prefix, are errors.
fn scan(raw: &[u8]) -> io::Result<(WalReplay, u64)> {
    if raw.is_empty() {
        return Ok((WalReplay::default(), 0));
    }
    if raw.len() < HEADER_LEN || le_u32(raw, 0) != Some(MAGIC) || le_u32(raw, 4) != Some(VERSION) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a KRMS write-ahead log (refusing to overwrite)",
        ));
    }
    let mut replay = WalReplay::default();
    let mut pos = HEADER_LEN;
    while let Some(next) = parse_record(&raw[pos..], &mut replay) {
        pos += next;
    }
    // The bad record's length field may be what is damaged, so an intact
    // record is looked for at every later offset.
    if let Some(intact) = (pos + 1..raw.len()).find(|&at| checked_frame(&raw[at..]).is_some()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "corrupt record at byte {pos} with an intact record after it at byte {intact}; \
                 refusing to truncate the acknowledged ops that follow (move the log aside)"
            ),
        ));
    }
    replay.torn_bytes = (raw.len() - pos) as u64;
    Ok((replay, pos as u64))
}

/// The frame at the front of `buf` if it is whole and its checksum
/// holds: its tag, its payload and its total length.
fn checked_frame(buf: &[u8]) -> Option<(u8, &[u8], usize)> {
    let tag = *buf.first()?;
    let len = le_u32(buf, 1)? as usize;
    let end = len.checked_add(5)?;
    let payload = buf.get(5..end)?;
    let stored = le_u64(buf, end)?;
    (record_hash(tag, payload) == stored).then_some((tag, payload, FRAME_OVERHEAD + len))
}

/// Parses one record at the front of `buf` into `replay`; returns the
/// record's total length, or `None` when the record is torn, corrupt, or
/// `buf` is exhausted.
fn parse_record(buf: &[u8], replay: &mut WalReplay) -> Option<usize> {
    let (tag, payload, total) = checked_frame(buf)?;
    match tag {
        TAG_INSERT => replay.ops.push(Op::Insert(decode_point(payload)?)),
        TAG_UPDATE => replay.ops.push(Op::Update(decode_point(payload)?)),
        TAG_DELETE => {
            if payload.len() != 8 {
                return None;
            }
            replay.ops.push(Op::Delete(le_u64(payload, 0)?));
        }
        TAG_CHECKPOINT => {
            let points = rms_data::cache::decode(payload).ok()?;
            // The checkpoint supersedes everything before it.
            replay.checkpoint = Some(points);
            replay.ops.clear();
        }
        _ => return None,
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("krms-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    /// One op of every `Op` variant. The match below has no wildcard
    /// arm, so a new variant fails to compile here, and the assert fails
    /// until an op of it is sampled.
    fn sample_ops() -> Vec<Op> {
        let ops = vec![
            Op::Insert(Point::new_unchecked(7, vec![0.5, 0.25])),
            Op::Delete(3),
            Op::Update(Point::new_unchecked(9, vec![1.0, 0.0])),
        ];
        let mut sampled = [false; 3];
        for op in &ops {
            sampled[match op {
                Op::Insert(_) => 0,
                Op::Delete(_) => 1,
                Op::Update(_) => 2,
            }] = true;
        }
        assert!(sampled.iter().all(|&s| s), "an Op variant is unsampled");
        ops
    }

    #[test]
    fn roundtrip_append_replay() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert!(replay.checkpoint.is_none() && replay.ops.is_empty());
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.ops, sample_ops());
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_appends_resume() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        drop(wal);
        // Tear the last record mid-frame, as a crash during append would.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.ops, sample_ops()[..2].to_vec());
        assert!(replay.torn_bytes > 0);
        // The torn bytes were truncated: a fresh append is reachable.
        wal.append(&Op::Delete(42)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.ops.len(), 3);
        assert_eq!(replay.ops[2], Op::Delete(42));
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_ends_replay() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        drop(wal);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a payload byte of the last record (its final 8 bytes are
        // the checksum): a bad record with nothing intact after it is a
        // torn tail, so replay stops there.
        let idx = raw.len() - 15;
        raw[idx] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert!(replay.ops.len() < 3);
        assert!(replay.torn_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_supersedes() {
        let path = temp_path("checkpoint");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        let live = vec![
            Point::new_unchecked(1, vec![0.1, 0.2]),
            Point::new_unchecked(2, vec![0.3, 0.4]),
        ];
        wal.checkpoint(&live).unwrap();
        // Ops appended after the checkpoint replay on top of it.
        wal.append(&Op::Delete(1)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.checkpoint, Some(live));
        assert_eq!(replay.ops, vec![Op::Delete(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refuses_foreign_files() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(Wal::open(&path).is_err());
        // The foreign file is untouched.
        assert_eq!(std::fs::read(&path).unwrap(), b"definitely not a wal");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_ops_and_checkpoints() {
        let path = temp_path("empty");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.checkpoint(&[]).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.checkpoint, Some(Vec::new()));
        assert!(replay.ops.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
