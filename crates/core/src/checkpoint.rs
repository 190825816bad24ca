//! Crash-safe checkpoint storage: checksummed segment files with epoch
//! rotation and an atomically-renamed manifest.
//!
//! A [`CheckpointStore`] owns one directory of numbered *epoch* files
//! (`epoch-<k>.ckpt`), each a sequence of framed segments:
//!
//! ```text
//! [tag: u32 LE][payload len: u64 LE][checksum: u64 LE][payload bytes]
//! ```
//!
//! The checksum is a seeded 64-bit [`FxHasher`] digest over the payload
//! (seeded with the tag and length, so a truncated or zero-padded
//! payload never checks out). Epoch files are written to a `.tmp` path
//! and atomically renamed on [`commit`](CheckpointStore::commit), and
//! the `MANIFEST` listing committed epochs is itself checksummed and
//! written tmp-then-rename — so a torn write at *any* point leaves
//! either the previous manifest or a manifest whose newest epoch fails
//! validation, and [`latest_valid_epoch`](CheckpointStore::latest_valid_epoch)
//! falls back to the newest epoch whose every segment still verifies.
//!
//! The store is deliberately dumb about payload *meaning*: segment tags
//! and their contents belong to the caller (the product-graph explorer
//! in `stabilization-verify` streams its row arenas through here).
//! What the store guarantees is framing: a reader either gets back the
//! exact bytes that were committed, or a typed
//! [`CheckpointError::Corrupt`] — never silently wrong data.

use std::fmt;
use std::fs::{self, File};
use std::hash::Hasher;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::intern::FxHasher;

/// Errors from checkpoint storage.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem operation failed.
    Io {
        /// The failed operation and path, with the OS error.
        what: String,
    },
    /// A segment or manifest failed its checksum / framing validation.
    Corrupt {
        /// What failed to validate, and where.
        what: String,
    },
    /// A required file or epoch does not exist.
    Missing {
        /// What was looked for.
        what: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { what } => write!(f, "checkpoint I/O failed: {what}"),
            CheckpointError::Corrupt { what } => write!(f, "checkpoint corrupt: {what}"),
            CheckpointError::Missing { what } => write!(f, "checkpoint missing: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Wraps an [`std::io::Error`] with the operation and path it hit.
fn io_err(op: &str, path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        what: format!("{op} {}: {e}", path.display()),
    }
}

/// The segment checksum: a seeded [`FxHasher`] digest of the payload,
/// seeded with the tag and payload length so frames are not
/// interchangeable and truncation never checks out.
fn segment_checksum(tag: u32, payload: &[u8]) -> u64 {
    let mut h = FxHasher::seeded((u64::from(tag) << 32) ^ payload.len() as u64);
    h.write(payload);
    h.finish()
}

/// Largest payload a single segment may carry; a corrupt length field
/// past this is rejected before any allocation is attempted.
const MAX_SEGMENT_BYTES: u64 = 1 << 31;

/// First line of a manifest / magic guard of both file formats.
const MANIFEST_MAGIC: &str = "stateless-checkpoint v1";

/// A directory of checkpoint epochs. See the [module docs](self).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory `dir`.
    ///
    /// Stale `*.tmp` files — an epoch or manifest whose writer died
    /// between [`begin_epoch`](CheckpointStore::begin_epoch) and the
    /// atomic rename in [`commit`](CheckpointStore::commit) — are swept
    /// on open: they were never published (commit renames before the
    /// manifest mentions them), so removing them loses nothing, and
    /// leaving them would accumulate orphans across crashes. Only this
    /// store's own naming patterns (`epoch-*.ckpt.tmp`, `MANIFEST.tmp`)
    /// are touched; removal is best-effort (a file another process just
    /// renamed away is not an error).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created or
    /// listed.
    pub fn open(dir: &Path) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let orphaned_epoch = name.starts_with("epoch-") && name.ends_with(".ckpt.tmp");
            if orphaned_epoch || name == "MANIFEST.tmp" {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path of epoch `epoch`'s file (whether or not it exists).
    pub fn epoch_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch}.ckpt"))
    }

    /// Starts writing epoch `epoch` (to a `.tmp` path; nothing is
    /// visible until [`commit`](CheckpointStore::commit)).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the temp file cannot be created.
    pub fn begin_epoch(&self, epoch: u64) -> Result<SegmentWriter, CheckpointError> {
        let dest = self.epoch_path(epoch);
        let tmp = self.dir.join(format!("epoch-{epoch}.ckpt.tmp"));
        let file = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        Ok(SegmentWriter {
            file: BufWriter::new(file),
            tmp,
            dest,
            epoch,
            buf: Vec::new(),
            open_tag: None,
        })
    }

    /// Commits a finished epoch: flushes and atomically renames its
    /// file into place, rewrites the manifest (tmp-then-rename), and
    /// prunes all but the newest `retain` epochs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure; the previous
    /// manifest and epochs are untouched in that case.
    pub fn commit(&self, writer: SegmentWriter, retain: usize) -> Result<(), CheckpointError> {
        let epoch = writer.epoch;
        let (tmp, dest) = (writer.tmp.clone(), writer.dest.clone());
        writer.finish()?;
        fs::rename(&tmp, &dest).map_err(|e| io_err("rename", &dest, e))?;
        let mut epochs = self.epochs()?;
        if !epochs.contains(&epoch) {
            epochs.push(epoch);
            epochs.sort_unstable();
        }
        // Prune: drop the oldest epochs past the retention count, then
        // publish the manifest naming the survivors.
        let retain = retain.max(1);
        while epochs.len() > retain {
            let old = epochs.remove(0);
            let path = self.epoch_path(old);
            fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
        }
        self.write_manifest(&epochs)
    }

    /// The committed epochs, ascending. Read from the checksummed
    /// manifest; if the manifest is missing or fails validation (a torn
    /// write), falls back to scanning the directory for epoch files —
    /// each epoch still validates independently, so the fallback can
    /// list but never *load* a bad epoch.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be read.
    pub fn epochs(&self) -> Result<Vec<u64>, CheckpointError> {
        if let Some(listed) = self.manifest_epochs() {
            return Ok(listed);
        }
        let mut found = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("read dir", &self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir", &self.dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("epoch-")
                .and_then(|s| s.strip_suffix(".ckpt"))
            {
                if let Ok(epoch) = num.parse::<u64>() {
                    found.push(epoch);
                }
            }
        }
        found.sort_unstable();
        Ok(found)
    }

    /// The newest epoch whose file fully validates (every segment's
    /// framing and checksum), or `None` if no epoch does. This is the
    /// torn-write recovery path: a corrupted newest epoch is skipped
    /// and the previous one wins.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be listed.
    pub fn latest_valid_epoch(&self) -> Result<Option<u64>, CheckpointError> {
        for &epoch in self.epochs()?.iter().rev() {
            if self.validate_epoch(epoch).is_ok() {
                return Ok(Some(epoch));
            }
        }
        Ok(None)
    }

    /// Validates every segment of epoch `epoch`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Missing`] if the file does not exist,
    /// [`CheckpointError::Corrupt`] naming the first bad segment.
    pub fn validate_epoch(&self, epoch: u64) -> Result<(), CheckpointError> {
        let mut reader = self.open_epoch(epoch)?;
        while reader.next_segment()?.is_some() {}
        Ok(())
    }

    /// Opens epoch `epoch` for segment-by-segment reading.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Missing`] if the epoch file does not exist,
    /// [`CheckpointError::Io`] on open failure.
    pub fn open_epoch(&self, epoch: u64) -> Result<SegmentReader, CheckpointError> {
        let path = self.epoch_path(epoch);
        if !path.exists() {
            return Err(CheckpointError::Missing {
                what: format!("epoch file {}", path.display()),
            });
        }
        let file = File::open(&path).map_err(|e| io_err("open", &path, e))?;
        let len = file.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        Ok(SegmentReader {
            file: BufReader::new(file),
            path,
            remaining: len,
        })
    }

    /// The largest segment payload (bytes) in epoch `epoch` — the
    /// transient buffer a writer or loader of this epoch needs; the
    /// bench harness reports it as the checkpoint scratch figure.
    ///
    /// # Errors
    ///
    /// As for [`open_epoch`](CheckpointStore::open_epoch), plus
    /// [`CheckpointError::Corrupt`] if any segment fails validation.
    pub fn max_segment_bytes(&self, epoch: u64) -> Result<usize, CheckpointError> {
        let mut reader = self.open_epoch(epoch)?;
        let mut max = 0usize;
        while let Some(seg) = reader.next_segment()? {
            max = max.max(seg.payload.len());
        }
        Ok(max)
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    /// Parses the manifest; `None` when missing or failing validation
    /// (callers fall back to the directory scan).
    fn manifest_epochs(&self) -> Option<Vec<u64>> {
        let text = fs::read_to_string(self.manifest_path()).ok()?;
        let (body, checksum_line) = text.trim_end().rsplit_once('\n')?;
        let stated = checksum_line.strip_prefix("checksum ")?;
        let actual = segment_checksum(0, body.as_bytes());
        if stated != format!("{actual:016x}") {
            return None;
        }
        let mut lines = body.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return None;
        }
        let mut epochs = Vec::new();
        for line in lines {
            epochs.push(line.strip_prefix("epoch ")?.parse().ok()?);
        }
        epochs.sort_unstable();
        Some(epochs)
    }

    fn write_manifest(&self, epochs: &[u64]) -> Result<(), CheckpointError> {
        let mut body = String::from(MANIFEST_MAGIC);
        for &e in epochs {
            body.push_str(&format!("\nepoch {e}"));
        }
        let checksum = segment_checksum(0, body.as_bytes());
        let text = format!("{body}\nchecksum {checksum:016x}\n");
        let tmp = self.dir.join("MANIFEST.tmp");
        fs::write(&tmp, text).map_err(|e| io_err("write", &tmp, e))?;
        let dest = self.manifest_path();
        fs::rename(&tmp, &dest).map_err(|e| io_err("rename", &dest, e))
    }
}

/// Writes framed segments into one (uncommitted) epoch file. Payloads
/// are accumulated per segment in a reusable buffer, framed with the
/// tag, length, and checksum on [`end_segment`](SegmentWriter::end_segment),
/// and streamed through a [`BufWriter`] — the peak transient is one
/// segment's payload, never the whole epoch.
#[derive(Debug)]
pub struct SegmentWriter {
    file: BufWriter<File>,
    tmp: PathBuf,
    dest: PathBuf,
    epoch: u64,
    buf: Vec<u8>,
    open_tag: Option<u32>,
}

impl SegmentWriter {
    /// The epoch this writer is producing.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Starts a segment with the given tag.
    ///
    /// # Panics
    ///
    /// Panics if a segment is already open.
    pub fn begin_segment(&mut self, tag: u32) {
        assert!(self.open_tag.is_none(), "segment already open");
        self.open_tag = Some(tag);
        self.buf.clear();
    }

    /// Appends one little-endian `u64` to the open segment.
    pub fn put_u64(&mut self, v: u64) {
        debug_assert!(self.open_tag.is_some(), "no open segment");
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a slice of little-endian `u64`s to the open segment.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        debug_assert!(self.open_tag.is_some(), "no open segment");
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Frames and writes the open segment.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on write failure.
    ///
    /// # Panics
    ///
    /// Panics if no segment is open.
    pub fn end_segment(&mut self) -> Result<(), CheckpointError> {
        let tag = self.open_tag.take().expect("no open segment");
        let checksum = segment_checksum(tag, &self.buf);
        let mut write = |bytes: &[u8]| {
            self.file
                .write_all(bytes)
                .map_err(|e| io_err("write", &self.tmp, e))
        };
        write(&tag.to_le_bytes())?;
        write(&(self.buf.len() as u64).to_le_bytes())?;
        write(&checksum.to_le_bytes())?;
        write(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Flushes and durably syncs the temp file (commit renames it).
    fn finish(self) -> Result<(), CheckpointError> {
        assert!(self.open_tag.is_none(), "unfinished segment at commit");
        let tmp = self.tmp;
        let file = self
            .file
            .into_inner()
            .map_err(|e| io_err("flush", &tmp, e.into_error()))?;
        file.sync_all().map_err(|e| io_err("sync", &tmp, e))
    }
}

/// Reads framed segments back from an epoch file, validating every
/// frame and checksum.
#[derive(Debug)]
pub struct SegmentReader {
    file: BufReader<File>,
    path: PathBuf,
    /// Bytes left in the file — a corrupt length field larger than this
    /// is rejected before allocating.
    remaining: u64,
}

impl SegmentReader {
    /// Bytes of the epoch file not read yet — an upper bound on what any
    /// count stated by the segments read so far can still describe.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads the next segment, or `None` at a clean end of file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] on a truncated frame, an oversized
    /// length, or a checksum mismatch; [`CheckpointError::Io`] on read
    /// failure.
    pub fn next_segment(&mut self) -> Result<Option<Segment>, CheckpointError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.remaining < 20 {
            return Err(self.corrupt("truncated segment header"));
        }
        let mut header = [0u8; 20];
        self.read_exact(&mut header)?;
        let tag = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let stated = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        if len > MAX_SEGMENT_BYTES || len > self.remaining {
            return Err(self.corrupt(&format!("segment length {len} exceeds file")));
        }
        let mut payload = vec![0u8; len as usize];
        self.read_exact(&mut payload)?;
        if segment_checksum(tag, &payload) != stated {
            return Err(self.corrupt(&format!("checksum mismatch in segment tag {tag}")));
        }
        Ok(Some(Segment {
            tag,
            payload,
            cursor: 0,
        }))
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), CheckpointError> {
        self.file
            .read_exact(buf)
            .map_err(|e| io_err("read", &self.path, e))?;
        self.remaining -= buf.len() as u64;
        Ok(())
    }

    fn corrupt(&self, what: &str) -> CheckpointError {
        CheckpointError::Corrupt {
            what: format!("{what} in {}", self.path.display()),
        }
    }
}

/// One validated segment: its tag and payload, with cursor-based
/// little-endian decoding helpers.
#[derive(Debug)]
pub struct Segment {
    /// The caller-assigned segment tag.
    pub tag: u32,
    payload: Vec<u8>,
    cursor: usize,
}

impl Segment {
    /// Payload bytes not yet consumed by the decoding cursor.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.cursor
    }

    /// Decodes the next little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        if self.remaining() < 8 {
            return Err(self.short("u64"));
        }
        let v = u64::from_le_bytes(
            self.payload[self.cursor..self.cursor + 8]
                .try_into()
                .expect("8 bytes"),
        );
        self.cursor += 8;
        Ok(v)
    }

    /// Decodes the next `count` little-endian `u64`s into `out`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if the payload is too short.
    pub fn take_u64s(&mut self, count: usize, out: &mut Vec<u64>) -> Result<(), CheckpointError> {
        if count
            .checked_mul(8)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(self.short("u64 run"));
        }
        out.reserve(count);
        for _ in 0..count {
            out.push(self.take_u64()?);
        }
        Ok(())
    }

    fn short(&self, what: &str) -> CheckpointError {
        CheckpointError::Corrupt {
            what: format!(
                "segment tag {} too short decoding {what} ({} bytes remain)",
                self.tag,
                self.remaining()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stateless-ckpt-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn write_epoch(store: &CheckpointStore, epoch: u64, words: &[u64], retain: usize) {
        let mut w = store.begin_epoch(epoch).unwrap();
        w.begin_segment(7);
        w.put_u64(words.len() as u64);
        w.end_segment().unwrap();
        w.begin_segment(8);
        w.put_u64s(words);
        w.end_segment().unwrap();
        store.commit(w, retain).unwrap();
    }

    #[test]
    fn segments_round_trip() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let words: Vec<u64> = (0..1000).map(|i| i * 31 + 7).collect();
        write_epoch(&store, 1, &words, 4);
        let mut r = store.open_epoch(1).unwrap();
        let mut head = r.next_segment().unwrap().unwrap();
        assert_eq!(head.tag, 7);
        assert_eq!(head.take_u64().unwrap(), 1000);
        assert_eq!(head.remaining(), 0);
        let mut body = r.next_segment().unwrap().unwrap();
        assert_eq!(body.tag, 8);
        let mut got = Vec::new();
        // A count whose byte size overflows is short, not a panic.
        for count in [usize::MAX / 4 + 1, usize::MAX] {
            assert!(body.take_u64s(count, &mut got).is_err());
        }
        body.take_u64s(1000, &mut got).unwrap();
        assert_eq!(got, words);
        assert!(r.next_segment().unwrap().is_none());
        assert_eq!(store.latest_valid_epoch().unwrap(), Some(1));
        assert_eq!(store.max_segment_bytes(1).unwrap(), 8000);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_epoch_is_rejected_and_previous_wins() {
        let dir = temp_dir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        write_epoch(&store, 1, &[1, 2, 3], 4);
        write_epoch(&store, 2, &[4, 5, 6], 4);
        // Flip one payload byte of the newest epoch.
        let path = store.epoch_path(2);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 5;
        bytes[mid] ^= 0x40;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(
            store.validate_epoch(2),
            Err(CheckpointError::Corrupt { .. })
        ));
        assert_eq!(store.latest_valid_epoch().unwrap(), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_epoch_is_rejected() {
        let dir = temp_dir("truncate");
        let store = CheckpointStore::open(&dir).unwrap();
        write_epoch(&store, 5, &[9; 64], 4);
        let path = store.epoch_path(5);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
        assert!(matches!(
            store.validate_epoch(5),
            Err(CheckpointError::Corrupt { .. })
        ));
        assert_eq!(store.latest_valid_epoch().unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_oldest_epochs() {
        let dir = temp_dir("retain");
        let store = CheckpointStore::open(&dir).unwrap();
        for epoch in 1..=5 {
            write_epoch(&store, epoch, &[epoch], 2);
        }
        assert_eq!(store.epochs().unwrap(), vec![4, 5]);
        assert!(!store.epoch_path(3).exists());
        assert!(store.epoch_path(4).exists() && store.epoch_path(5).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_falls_back_to_directory_scan() {
        let dir = temp_dir("manifest");
        let store = CheckpointStore::open(&dir).unwrap();
        write_epoch(&store, 1, &[1], 4);
        write_epoch(&store, 2, &[2], 4);
        // Tear the manifest; the directory scan still finds both epochs.
        fs::write(dir.join("MANIFEST"), "stateless-checkpoint v1\nepoch 2\n").unwrap();
        assert_eq!(store.epochs().unwrap(), vec![1, 2]);
        assert_eq!(store.latest_valid_epoch().unwrap(), Some(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_orphaned_tmp_files() {
        let dir = temp_dir("tmp-sweep");
        let store = CheckpointStore::open(&dir).unwrap();
        write_epoch(&store, 1, &[1, 2, 3], 4);
        // Simulate a crash between begin_epoch and commit: the writer's
        // tmp file survives the process.
        let mut w = store.begin_epoch(2).unwrap();
        w.begin_segment(7);
        w.put_u64(99);
        w.end_segment().unwrap();
        drop(w);
        // And a torn manifest rewrite.
        fs::write(dir.join("MANIFEST.tmp"), "half a manifest").unwrap();
        let tmp = dir.join("epoch-2.ckpt.tmp");
        assert!(tmp.exists());
        // A fresh open removes both orphans; committed state is intact,
        // and an unrelated file is not touched.
        fs::write(dir.join("notes.txt"), "keep me").unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(!tmp.exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        assert!(dir.join("notes.txt").exists());
        assert_eq!(store.epochs().unwrap(), vec![1]);
        assert_eq!(store.latest_valid_epoch().unwrap(), Some(1));
        // Epoch 2 can be rewritten cleanly after the sweep.
        write_epoch(&store, 2, &[4, 5], 4);
        assert_eq!(store.latest_valid_epoch().unwrap(), Some(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_epoch_is_typed() {
        let dir = temp_dir("missing");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(matches!(
            store.open_epoch(9),
            Err(CheckpointError::Missing { .. })
        ));
        assert_eq!(store.latest_valid_epoch().unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
