//! Append-only segment-log backend for 13/WAKU2-STORE.
//!
//! Messages are framed as CRC-checked, length-prefixed records and
//! appended to numbered segment files; an in-memory index (the live
//! window plus per-segment bookkeeping) answers scans and queries
//! without touching disk. The discipline mirrors `waku_rln::keycache`'s
//! checksummed blobs: cheap checksums catch torn writes and bit rot,
//! recovery never guesses — anything after the first invalid record is
//! discarded, so a crashed node reopens to a *consistent prefix* of its
//! history.
//!
//! ## Layout
//!
//! ```text
//! <dir>/seg-<first_seq>.log :=  "WAKUSEG1" ‖ record*
//! record                    :=  len:u32 ‖ crc32(payload):u32 ‖ payload
//! payload                   :=  WakuMessage::to_bytes()
//! ```
//!
//! Every record carries a global sequence number (implicit: the
//! segment's `first_seq` plus its position), so segment files sort and
//! splice deterministically. A segment rotates once it holds
//! [`SegmentConfig::records_per_segment`] records; when eviction moves
//! the live window past a whole segment, its file is deleted — disk
//! usage is O(capacity), not O(uptime).
//!
//! ## Crash recovery
//!
//! [`SegmentLog::open`] scans segments in order, CRC-checking each
//! record. The first malformed record ends the scan: the torn tail of
//! that file is truncated in place and any later segment files are
//! deleted. A crash mid-append therefore costs at most the records not
//! yet flushed — never a wrong message, never an unreadable store.
//!
//! Every read, append, truncate, unlink and fsync goes through
//! [`waku_wire::fs`]; this module decides only what to write and when
//! to sync.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use waku_wire::checksum::crc32;
use waku_wire::fs::{self, Appender};
use waku_wire::Reader;

use crate::message::WakuMessage;
use crate::storage::{StorageBackend, StorageError};

/// Per-segment magic: identifies a WAKU2-STORE segment file, version 1.
const SEGMENT_MAGIC: &[u8; 8] = b"WAKUSEG1";
/// Hard cap on one record's payload (a defense against reading a
/// garbage length prefix as a multi-gigabyte allocation).
const MAX_RECORD_BYTES: u32 = 16 << 20;

/// Sizing of a [`SegmentLog`].
///
/// `#[non_exhaustive]` with a builder — invariants (nonzero capacity,
/// nonzero segment size) are validated once at
/// [`SegmentConfigBuilder::build`], not deep inside constructors.
#[non_exhaustive]
#[derive(Clone, Copy, Debug)]
pub struct SegmentConfig {
    /// Live-window bound: the newest `capacity` messages stay queryable,
    /// older ones are evicted (and their segments eventually deleted).
    pub capacity: usize,
    /// Records per segment file before rotation.
    pub records_per_segment: usize,
}

impl SegmentConfig {
    /// Starts building a config from [`SegmentConfig::default`]
    /// (capacity 4096, 1024 records per segment).
    pub fn builder() -> SegmentConfigBuilder {
        SegmentConfigBuilder {
            config: SegmentConfig::default(),
        }
    }
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            capacity: 4096,
            records_per_segment: 1024,
        }
    }
}

/// Builder for [`SegmentConfig`]; it holds the config it builds.
#[derive(Clone, Debug)]
pub struct SegmentConfigBuilder {
    config: SegmentConfig,
}

impl SegmentConfigBuilder {
    /// Sets the live-window capacity (messages).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.config.capacity = capacity;
        self
    }

    /// Sets the rotation threshold (records per segment file).
    pub fn records_per_segment(mut self, records: usize) -> Self {
        self.config.records_per_segment = records;
        self
    }

    /// Validates the invariants and produces the config.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidConfig`] when `capacity` or
    /// `records_per_segment` is zero.
    pub fn build(self) -> Result<SegmentConfig, StorageError> {
        if self.config.capacity == 0 {
            return Err(StorageError::InvalidConfig("capacity must be nonzero"));
        }
        if self.config.records_per_segment == 0 {
            return Err(StorageError::InvalidConfig(
                "records_per_segment must be nonzero",
            ));
        }
        Ok(self.config)
    }
}

/// Bookkeeping for one on-disk segment file.
#[derive(Clone, Debug)]
struct SegmentMeta {
    /// Global sequence number of the segment's first record.
    first_seq: u64,
    /// Records currently in the file.
    records: usize,
    /// File size in bytes (header + records).
    bytes: u64,
    path: PathBuf,
}

/// The durable [`StorageBackend`]: an append-only segment log with an
/// in-memory index. See the [module docs](self) for the format and the
/// recovery discipline.
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    config: SegmentConfig,
    /// The live window (newest `capacity` messages), insertion order.
    live: VecDeque<WakuMessage>,
    /// Sequence number of `live.front()`.
    first_live_seq: u64,
    /// Sequence number the next append receives.
    next_seq: u64,
    /// On-disk segments, oldest first; the last one is the active
    /// (appendable) segment.
    segments: VecDeque<SegmentMeta>,
    /// Open handle to the active segment (lazily created).
    writer: Option<Appender>,
    /// A segment file was created since the last [`SegmentLog::flush`]:
    /// its directory entry is not durable until the directory is synced.
    created_unsynced: bool,
    /// Messages recovered from disk by [`SegmentLog::open`] (restart
    /// observability; 0 for a fresh store).
    recovered: usize,
}

impl SegmentLog {
    /// Opens (or creates) a segment log in `dir`, running the
    /// crash-recovery scan over any existing segments.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on filesystem failures. Corrupt tails are
    /// *not* errors — they are truncated to the last consistent prefix.
    pub fn open(dir: impl Into<PathBuf>, config: SegmentConfig) -> Result<Self, StorageError> {
        let mut log = SegmentLog {
            dir: dir.into(),
            config,
            live: VecDeque::new(),
            first_live_seq: 0,
            next_seq: 0,
            segments: VecDeque::new(),
            writer: None,
            created_unsynced: false,
            recovered: 0,
        };
        log.recover()?;
        Ok(log)
    }

    /// Messages recovered from disk when this instance was opened.
    pub fn recovered_messages(&self) -> usize {
        self.recovered
    }

    /// Number of on-disk segment files (including the active one).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total bytes across all segment files.
    pub fn disk_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
        dir.join(format!("seg-{first_seq:020}.log"))
    }

    /// Lists (creating the directory if needed), orders, and replays the
    /// on-disk segments; truncates the torn tail; deletes everything
    /// after the first inconsistency. Other files are left alone.
    fn recover(&mut self) -> Result<(), StorageError> {
        let mut found: Vec<(u64, PathBuf)> = fs::list_dir(&self.dir)?
            .into_iter()
            .filter_map(|path| {
                let seq = path
                    .file_name()?
                    .to_str()?
                    .strip_prefix("seg-")?
                    .strip_suffix(".log")?
                    .parse::<u64>()
                    .ok()?;
                Some((seq, path))
            })
            .collect();
        found.sort_unstable_by_key(|(seq, _)| *seq);

        let mut all: Vec<WakuMessage> = Vec::new();
        let mut expected_seq: Option<u64> = None;
        let mut stop = false;
        for (first_seq, path) in found {
            if stop || expected_seq.is_some_and(|e| e != first_seq) {
                // A gap in the sequence (or an earlier torn tail) makes
                // everything from here on unsplicable: drop it.
                fs::remove(&path)?;
                stop = true;
                continue;
            }
            let scan = scan_segment(&fs::read(&path)?);
            if scan.torn {
                // Truncate the invalid tail in place; later files (if
                // any) no longer splice and are deleted above.
                fs::truncate(&path, scan.valid_bytes)?;
                stop = true;
            }
            if scan.messages.is_empty() && scan.torn {
                // Nothing valid in the file at all — remove it entirely.
                fs::remove(&path)?;
                continue;
            }
            let records = scan.messages.len();
            expected_seq = Some(first_seq + records as u64);
            all.extend(scan.messages);
            self.segments.push_back(SegmentMeta {
                first_seq,
                records,
                bytes: scan.valid_bytes,
                path,
            });
        }

        self.next_seq = expected_seq.unwrap_or(0);
        let keep = all.len().min(self.config.capacity);
        self.first_live_seq = self.next_seq - keep as u64;
        self.live = all.split_off(all.len() - keep).into();
        self.recovered = keep;
        self.gc_segments()?;
        Ok(())
    }

    /// Deletes leading segments that no longer hold any live record.
    /// The active (last) segment is never deleted.
    fn gc_segments(&mut self) -> Result<(), StorageError> {
        while self.segments.len() > 1 {
            let head = &self.segments[0];
            if head.first_seq + head.records as u64 <= self.first_live_seq {
                fs::remove(&head.path)?;
                self.segments.pop_front();
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Ensures an active segment with room is open, rotating when full.
    fn writer_for_append(&mut self) -> Result<&mut Appender, StorageError> {
        let needs_new = match self.segments.back() {
            Some(active) => active.records >= self.config.records_per_segment,
            None => true,
        };
        if needs_new {
            self.sync_writer()?;
            self.writer = None;
            let path = Self::segment_path(&self.dir, self.next_seq);
            let file = Appender::create(&path, SEGMENT_MAGIC)?;
            self.created_unsynced = true;
            self.segments.push_back(SegmentMeta {
                first_seq: self.next_seq,
                records: 0,
                bytes: SEGMENT_MAGIC.len() as u64,
                path,
            });
            self.writer = Some(file);
        } else if self.writer.is_none() {
            // Reopening an existing active segment (fresh `open()`).
            let active = self.segments.back().expect("active segment exists");
            self.writer = Some(Appender::reopen(&active.path)?);
        }
        Ok(self.writer.as_mut().expect("writer just ensured"))
    }

    fn sync_writer(&mut self) -> Result<(), StorageError> {
        if let Some(w) = self.writer.as_mut() {
            w.sync()?;
        }
        Ok(())
    }
}

/// Result of replaying one segment file.
struct SegmentScan {
    messages: Vec<WakuMessage>,
    /// Bytes up to (and including) the last valid record.
    valid_bytes: u64,
    /// True when the file ended in garbage (torn write / corruption).
    torn: bool,
}

/// Replays one segment file's bytes record by record, stopping at the
/// first framing/CRC/parse failure.
fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut r = Reader::new(bytes);
    if r.take(SEGMENT_MAGIC.len()).ok() != Some(SEGMENT_MAGIC) {
        return SegmentScan {
            messages: Vec::new(),
            valid_bytes: 0,
            torn: true,
        };
    }
    let mut messages = Vec::new();
    // Torn tail: everything before the last fully valid record stands.
    while r.remaining() > 0 {
        let valid_bytes = (bytes.len() - r.remaining()) as u64;
        let Some(message) = read_record(&mut r) else {
            return SegmentScan {
                messages,
                valid_bytes,
                torn: true,
            };
        };
        messages.push(message);
    }
    SegmentScan {
        messages,
        valid_bytes: bytes.len() as u64,
        torn: false,
    }
}

/// One `len ‖ crc32(payload) ‖ payload` record; `None` when the framing,
/// the CRC or the message itself is bad.
fn read_record(r: &mut Reader) -> Option<WakuMessage> {
    let len = r.u32().ok()?;
    if len == 0 || len > MAX_RECORD_BYTES {
        return None;
    }
    let crc = r.u32().ok()?;
    let payload = r.take(len as usize).ok()?;
    if crc32(payload) != crc {
        return None;
    }
    WakuMessage::from_bytes(payload)
}

impl StorageBackend for SegmentLog {
    fn append(&mut self, message: WakuMessage) -> Result<(), StorageError> {
        let payload = message.to_bytes();
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= MAX_RECORD_BYTES)
            .ok_or(StorageError::RecordTooLarge {
                bytes: payload.len(),
            })?;
        let crc = crc32(&payload);
        let w = self.writer_for_append()?;
        w.append(&len.to_le_bytes())?;
        w.append(&crc.to_le_bytes())?;
        w.append(&payload)?;
        let active = self.segments.back_mut().expect("active segment exists");
        active.records += 1;
        active.bytes += 8 + u64::from(len);
        self.next_seq += 1;

        self.live.push_back(message);
        if self.live.len() > self.config.capacity {
            self.live.pop_front();
            self.first_live_seq += 1;
            self.gc_segments()?;
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn scan_range(
        &self,
        start: Option<u64>,
        end: Option<u64>,
        visit: &mut dyn FnMut(&WakuMessage),
    ) {
        for m in &self.live {
            if start.is_none_or(|s| m.timestamp >= s) && end.is_none_or(|e| m.timestamp <= e) {
                visit(m);
            }
        }
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.sync_writer()?;
        // Without this a power loss can drop a whole new segment whose
        // records were synced, and recovery then deletes every later
        // segment as a sequence gap.
        if self.created_unsynced {
            fs::sync_dir(&self.dir)?;
            self.created_unsynced = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::HistoryQuery;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "waku-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn msg(i: u64) -> WakuMessage {
        WakuMessage::new(
            vec![i as u8; 4],
            if i.is_multiple_of(2) { "/a" } else { "/b" },
            100 + i,
        )
    }

    #[test]
    fn config_builder_validates() {
        assert!(SegmentConfig::builder().capacity(0).build().is_err());
        assert!(SegmentConfig::builder()
            .records_per_segment(0)
            .build()
            .is_err());
        let c = SegmentConfig::builder()
            .capacity(7)
            .records_per_segment(3)
            .build()
            .unwrap();
        assert_eq!((c.capacity, c.records_per_segment), (7, 3));
    }

    #[test]
    fn append_flush_reopen_recovers_everything() {
        let dir = tmpdir("reopen");
        let cfg = SegmentConfig::builder()
            .capacity(100)
            .records_per_segment(4)
            .build()
            .unwrap();
        {
            let mut log = SegmentLog::open(&dir, cfg).unwrap();
            for i in 0..10 {
                log.append(msg(i)).unwrap();
            }
            log.flush().unwrap();
            assert_eq!(log.segment_count(), 3, "4 + 4 + 2 records");
        }
        let log = SegmentLog::open(&dir, cfg).unwrap();
        assert_eq!(log.recovered_messages(), 10);
        assert_eq!(log.len(), 10);
        let r = log.query(&HistoryQuery::default());
        assert_eq!(r.messages.len(), 10);
        assert_eq!(r.messages[0].timestamp, 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_deletes_exhausted_segments() {
        let dir = tmpdir("gc");
        let cfg = SegmentConfig::builder()
            .capacity(4)
            .records_per_segment(2)
            .build()
            .unwrap();
        let mut log = SegmentLog::open(&dir, cfg).unwrap();
        for i in 0..20 {
            log.append(msg(i)).unwrap();
        }
        log.flush().unwrap();
        assert_eq!(log.len(), 4);
        // live window spans at most 3 two-record segments.
        assert!(log.segment_count() <= 3, "got {}", log.segment_count());
        let on_disk = fs::read_dir(&dir).unwrap().count();
        assert_eq!(on_disk, log.segment_count());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_consistent_prefix() {
        let dir = tmpdir("torn");
        let cfg = SegmentConfig::builder()
            .capacity(100)
            .records_per_segment(100)
            .build()
            .unwrap();
        {
            let mut log = SegmentLog::open(&dir, cfg).unwrap();
            for i in 0..5 {
                log.append(msg(i)).unwrap();
            }
            log.flush().unwrap();
        }
        // Corrupt the last record's payload byte on disk.
        let path = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let log = SegmentLog::open(&dir, cfg).unwrap();
        assert_eq!(log.len(), 4, "last record dropped, prefix intact");
        assert_eq!(log.recovered_messages(), 4);
        // Appending after recovery still works and re-reads cleanly.
        let mut log = log;
        log.append(msg(99)).unwrap();
        log.flush().unwrap();
        let log2 = SegmentLog::open(&dir, cfg).unwrap();
        assert_eq!(log2.len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_truncation_drops_later_segments() {
        let dir = tmpdir("midtrunc");
        let cfg = SegmentConfig::builder()
            .capacity(100)
            .records_per_segment(2)
            .build()
            .unwrap();
        {
            let mut log = SegmentLog::open(&dir, cfg).unwrap();
            for i in 0..6 {
                log.append(msg(i)).unwrap();
            }
            log.flush().unwrap();
        }
        // Corrupt the FIRST segment's second record: recovery keeps only
        // record 0 and must discard segments 2..3 entirely.
        let first = SegmentLog::segment_path(&dir, 0);
        let mut bytes = fs::read(&first).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        fs::write(&first, &bytes).unwrap();

        let log = SegmentLog::open(&dir, cfg).unwrap();
        assert_eq!(log.len(), 1, "consistent prefix = first record only");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn file_lengths(dir: &Path) -> Vec<(PathBuf, u64)> {
        let mut lengths: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.path(), e.metadata().unwrap().len())
            })
            .collect();
        lengths.sort();
        lengths
    }

    #[test]
    fn oversize_message_is_refused_without_touching_disk() {
        let dir = tmpdir("oversize");
        let cfg = SegmentConfig::builder()
            .capacity(100)
            .records_per_segment(2)
            .build()
            .unwrap();
        let mut log = SegmentLog::open(&dir, cfg).unwrap();
        log.append(msg(0)).unwrap();
        log.append(msg(1)).unwrap();
        log.flush().unwrap();
        let before = file_lengths(&dir);
        // The active segment is full, so a record that fit would open a
        // new segment file first.
        let huge = WakuMessage::new(vec![7u8; MAX_RECORD_BYTES as usize], "/a", 102);
        let err = log.append(huge).unwrap_err();
        assert!(
            matches!(err, StorageError::RecordTooLarge { bytes } if bytes > MAX_RECORD_BYTES as usize),
            "{err}"
        );
        log.flush().unwrap();
        assert_eq!(file_lengths(&dir), before, "no byte and no file written");
        assert_eq!(log.len(), 2);

        log.append(msg(2)).unwrap();
        log.flush().unwrap();
        drop(log);
        let log = SegmentLog::open(&dir, cfg).unwrap();
        let r = log.query(&HistoryQuery::default());
        assert_eq!(r.messages, [msg(0), msg(1), msg(2)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_in_the_directory_are_left_alone() {
        let dir = tmpdir("foreign");
        let cfg = SegmentConfig::builder()
            .capacity(100)
            .records_per_segment(2)
            .build()
            .unwrap();
        {
            let mut log = SegmentLog::open(&dir, cfg).unwrap();
            for i in 0..5 {
                log.append(msg(i)).unwrap();
            }
            log.flush().unwrap();
        }
        let foreign = ["notes.txt", "seg-x.log", "seg-00000000000000000000.log.tmp"];
        for name in foreign {
            fs::write(dir.join(name), name.as_bytes()).unwrap();
        }
        let log = SegmentLog::open(&dir, cfg).unwrap();
        assert_eq!(log.recovered_messages(), 5);
        assert_eq!(log.segment_count(), 3);
        let r = log.query(&HistoryQuery::default());
        assert_eq!(r.messages, (0..5).map(msg).collect::<Vec<_>>());
        for name in foreign {
            assert_eq!(fs::read(dir.join(name)).unwrap(), name.as_bytes());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The segment file's row of the decoder-totality suite (see
    /// `tests/decoders_total.rs`; same generator): golden bytes from the
    /// parent commit, and under mutation the scan never panics and the
    /// records it recovers re-encode to exactly the prefix it kept.
    #[test]
    fn segment_scan_is_byte_stable_and_total() {
        let dir = tmpdir("total");
        let messages = [
            WakuMessage::new(vec![1u8; 4], "/a", 100),
            WakuMessage::new(vec![2u8; 3], "/b", 101),
        ];
        let mut log = SegmentLog::open(&dir, SegmentConfig::default()).unwrap();
        for m in &messages {
            log.append(m.clone()).unwrap();
        }
        log.flush().unwrap();
        let sample = fs::read(SegmentLog::segment_path(&dir, 0)).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let hex: String = sample.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "57414b5553454731",
                "1a000000ad871ad90400000001010101020000002f61640000000000000000000000",
                "190000007c1ae6c603000000020202020000002f62650000000000000000000000",
            )
        );
        let scan = scan_segment(&sample);
        assert_eq!(scan.messages, messages);
        assert!(!scan.torn);

        for mutated in waku_wire::mutations(&sample) {
            let scan = scan_segment(&mutated);
            let kept = &mutated[..scan.valid_bytes as usize];
            assert!(scan.torn || kept.len() == mutated.len());
            let mut reencoded = Vec::new();
            for m in &scan.messages {
                let payload = m.to_bytes();
                reencoded.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                reencoded.extend_from_slice(&crc32(&payload).to_le_bytes());
                reencoded.extend_from_slice(&payload);
            }
            if kept.is_empty() {
                assert!(scan.messages.is_empty(), "bad magic keeps nothing");
            } else {
                assert_eq!([&SEGMENT_MAGIC[..], &reencoded].concat(), kept);
            }
        }
    }
}
