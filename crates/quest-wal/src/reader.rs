//! [`LogReader`]: positioned, incremental log reading — the streaming
//! counterpart to [`read_log`](crate::read_log).
//!
//! `read_log` materializes and decodes the whole file; that is the right
//! tool for one-shot integrity audits, but a replica tailing a live log (or
//! a recovery that starts from a snapshot) only cares about the suffix. A
//! `LogReader` remembers the byte offset of the last complete record it
//! consumed, so:
//!
//! * [`LogReader::seek`] skips every record at or below a sequence number
//!   under the log's record rule ([`crate::log`]) — each skipped line's
//!   frame, seq and checksum are verified, but no body is decoded — which
//!   is what makes bootstrapping from a snapshot O(suffix) in decode work
//!   instead of O(log); damage at or below the watermark is
//!   [`WalError::Corrupt`];
//! * [`LogReader::poll`] applies the log's header and record rules to one
//!   read from its offset, so it accepts what `read_log` accepts; an
//!   in-flight or torn tail stays *pending* until a later poll (live
//!   follow) or is reported as torn by batch callers;
//! * [`LogReader::after`] attaches at a snapshot: open, seek past its
//!   watermark, and refuse a log that ends below it.
//!
//! The reader holds no file handle between calls: each poll re-opens the
//! path, so it keeps working across writer crashes, torn-tail truncations
//! on reopen (the writer only ever truncates bytes no reader has consumed
//! — both sides advance strictly over complete, valid records), and
//! snapshot/rotation schemes that swap files atomically.

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use relstore::Catalog;

use crate::codec::schema_fingerprint;
use crate::error::WalError;
use crate::log::{ensure_covers, header_len, read_failpoint, scan_records, HEADER_LEN};
use crate::record::ChangeRecord;
use crate::snapshot::Snapshot;

/// One batch of records surfaced by [`LogReader::poll`].
#[derive(Debug)]
pub struct TailPoll {
    /// Complete, verified records in log order, each with its sequence
    /// number (each one past the last, across polls).
    pub records: Vec<(u64, ChangeRecord)>,
    /// Bytes past the last consumed record that do not (yet) form a valid
    /// record: an append still in flight, or a torn tail after a crash.
    /// They stay unconsumed — a later poll re-reads them — so live
    /// followers just poll again, while batch callers treating the current
    /// end of file as final report `pending > 0` as a torn tail.
    pub pending: u64,
}

/// A positioned reader over a write-ahead log.
///
/// See the [module docs](self) for the contract. Create with
/// [`LogReader::open`] (or [`LogReader::after`]), position with
/// [`LogReader::seek`], then call [`LogReader::poll`] as often as needed.
#[derive(Debug)]
pub struct LogReader {
    path: PathBuf,
    fingerprint: u64,
    /// Byte offset just past the last consumed line (header or record).
    offset: u64,
    /// Lines consumed, the header included: 0 until a read finds a
    /// complete header (a log whose creation crashed has none yet).
    line: usize,
    /// Sequence number of the last consumed record (or the seek watermark).
    last_seq: u64,
}

impl LogReader {
    /// Open a reader over the log at `path`, bound to `catalog`'s schema.
    ///
    /// The header is verified immediately when present; a log without a
    /// complete header line (creation crashed mid-write) is tolerated and
    /// re-checked on each poll, so a follower can attach before the writer
    /// finishes initializing.
    pub fn open(path: &Path, catalog: &Catalog) -> Result<LogReader, WalError> {
        let reader = LogReader {
            path: path.to_path_buf(),
            fingerprint: schema_fingerprint(catalog),
            offset: 0,
            line: 0,
            last_seq: 0,
        };
        let mut head = Vec::with_capacity(HEADER_LEN);
        std::fs::File::open(path)?
            .take(HEADER_LEN as u64)
            .read_to_end(&mut head)?;
        header_len(&head, reader.fingerprint)?;
        Ok(reader)
    }

    /// Open a reader over the log at `path` positioned past `snapshot`'s
    /// watermark: how recovery and replica bootstrap attach. A log that
    /// ends below the watermark is [`WalError::State`] (it would re-issue
    /// covered LSNs); damage at or below it is [`WalError::Corrupt`].
    pub fn after(path: &Path, snapshot: &Snapshot) -> Result<LogReader, WalError> {
        let mut reader = LogReader::open(path, snapshot.db.catalog())?;
        let reached = reader.seek(snapshot.last_seq)?;
        ensure_covers(path, reached, snapshot.last_seq)?;
        Ok(reader)
    }

    /// Sequence number of the last record consumed (or the watermark set by
    /// [`LogReader::seek`]); the next record returned will be newer.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Position past every record with sequence number `<= after_seq`,
    /// verifying each skipped line under the record rule but decoding none
    /// (their effects are already in whatever state the caller starts
    /// from, typically a snapshot). A bad line with a complete line after
    /// it is [`WalError::Corrupt`], as it is to [`LogReader::poll`].
    ///
    /// Returns the highest sequence number actually observed at or below
    /// `after_seq` (0 if none). A return below `after_seq` means the log
    /// does not hold everything the watermark claims; [`LogReader::after`]
    /// refuses such a log.
    ///
    /// Records at or below an earlier watermark are already consumed, so
    /// seeking backwards is a no-op.
    pub fn seek(&mut self, after_seq: u64) -> Result<u64, WalError> {
        if after_seq <= self.last_seq {
            return Ok(self.last_seq);
        }
        self.scan(after_seq, after_seq)?;
        // No complete header yet ⇒ no records exist to skip; the watermark
        // is kept so the records, once written, still stream from
        // `after_seq + 1` on.
        let reached = if self.line == 0 { 0 } else { self.last_seq };
        self.last_seq = self.last_seq.max(after_seq);
        Ok(reached)
    }

    /// Read the records appended since the last poll (or seek position).
    ///
    /// Stops at the first incomplete or invalid trailing line, which stays
    /// pending (see [`TailPoll::pending`]). An invalid line with *further
    /// complete lines after it* cannot be an append in flight and fails
    /// with [`WalError::Corrupt`]. Sequence numbers must rise by exactly one
    /// across the reader's lifetime. On `Err` the reader is unchanged.
    pub fn poll(&mut self) -> Result<TailPoll, WalError> {
        read_failpoint()?;
        self.scan(self.last_seq, u64::MAX)
    }

    /// Read from the consumed offset to the end of file and consume what
    /// the record rule verifies there, up to the record `stop_after`,
    /// returning the records past `decode_past`. Records start past the
    /// header until one is consumed; while there is no complete header,
    /// nothing is consumed. On `Err` the reader is unchanged.
    fn scan(&mut self, decode_past: u64, stop_after: u64) -> Result<TailPoll, WalError> {
        let mut file = std::fs::File::open(&self.path)?;
        let len = file.metadata()?.len();
        if len < self.offset {
            // The writer only ever truncates torn bytes no reader has
            // consumed; a file shorter than the consumed prefix means the
            // log was replaced or externally damaged.
            return Err(WalError::Corrupt {
                line: 0,
                message: format!(
                    "log shrank below the consumed offset ({len} < {})",
                    self.offset
                ),
            });
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut bytes = Vec::with_capacity((len - self.offset) as usize);
        file.read_to_end(&mut bytes)?;
        let start = match self.line {
            0 => header_len(&bytes, self.fingerprint)?,
            _ => Some(0),
        };
        let Some(start) = start else {
            return Ok(TailPoll {
                records: Vec::new(),
                pending: bytes.len() as u64,
            });
        };
        let line = self.line.max(1);
        let scan = scan_records(
            &bytes,
            start,
            self.last_seq,
            line + 1,
            decode_past,
            stop_after,
            ChangeRecord::decode,
        )?;
        self.offset += scan.valid_len as u64;
        self.line = line + (scan.last_seq - self.last_seq) as usize;
        self.last_seq = scan.last_seq;
        Ok(TailPoll {
            records: scan.records,
            pending: (bytes.len() - scan.valid_len) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::WalWriter;
    use relstore::DataType;
    use std::path::PathBuf;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        c
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quest-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    fn ins(id: i64) -> ChangeRecord {
        ChangeRecord::Insert {
            table: "t".into(),
            row: vec![id.into(), format!("rëcord {id}").into()],
        }
    }

    #[test]
    fn poll_streams_appends_incrementally() {
        let path = temp_path("tail");
        let c = catalog();
        let mut w = WalWriter::open(&path, &c).unwrap();
        let mut r = LogReader::open(&path, &c).unwrap();
        assert!(r.poll().unwrap().records.is_empty());

        w.append(&ins(1)).unwrap();
        w.append(&ins(2)).unwrap();
        let poll = r.poll().unwrap();
        assert_eq!(poll.pending, 0);
        assert_eq!(poll.records, vec![(1, ins(1)), (2, ins(2))]);

        // Nothing new: empty poll, not a re-read.
        assert!(r.poll().unwrap().records.is_empty());
        w.append(&ins(3)).unwrap();
        assert_eq!(r.poll().unwrap().records, vec![(3, ins(3))]);
        assert_eq!(r.last_seq(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seek_skips_without_decoding_and_streams_the_suffix() {
        let path = temp_path("seek");
        let c = catalog();
        let mut w = WalWriter::open(&path, &c).unwrap();
        for i in 1..=5 {
            w.append(&ins(i)).unwrap();
        }
        let mut r = LogReader::open(&path, &c).unwrap();
        r.seek(3).unwrap();
        assert_eq!(r.last_seq(), 3);
        let poll = r.poll().unwrap();
        assert_eq!(poll.records, vec![(4, ins(4)), (5, ins(5))]);
        // Seeking backwards is a no-op: those records are consumed.
        r.seek(1).unwrap();
        assert!(r.poll().unwrap().records.is_empty());
        // Seeking to the exact end leaves the reader waiting for new records.
        let mut r = LogReader::open(&path, &c).unwrap();
        r.seek(5).unwrap();
        assert!(r.poll().unwrap().records.is_empty());
        w.append(&ins(6)).unwrap();
        assert_eq!(r.poll().unwrap().records, vec![(6, ins(6))]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seek_never_consumes_an_unverified_final_line() {
        // The final line's seq field sits outside the body checksum, so a
        // torn/rotted tail can carry a plausible low seq. seek must not
        // consume it on seq evidence alone: the writer truncates that line
        // on reopen, and a reader positioned past it would be mis-framed.
        let path = temp_path("seek-rotted-tail");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            for i in 1..=5 {
                w.append(&ins(i)).unwrap();
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("rëcord 5", "rëcorX 5")).unwrap();
        let mut r = LogReader::open(&path, &c).unwrap();
        r.seek(5).unwrap();
        // Records 1–4 were skipped; the rotted final line stays pending.
        let poll = r.poll().unwrap();
        assert!(poll.records.is_empty());
        assert!(poll.pending > 0, "rotted final line must stay unconsumed");
        // An intact final line at the same position is consumed normally.
        std::fs::write(&path, &text).unwrap();
        let mut r = LogReader::open(&path, &c).unwrap();
        r.seek(5).unwrap();
        let poll = r.poll().unwrap();
        assert!(poll.records.is_empty());
        assert_eq!(poll.pending, 0, "valid final line was consumed by seek");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_stays_pending_and_heals_after_writer_reopen() {
        let path = temp_path("tail-heal");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
        }
        let mut r = LogReader::open(&path, &c).unwrap();
        assert_eq!(r.poll().unwrap().records.len(), 1);
        // Crash mid-append: a half-written line (even mid-multibyte).
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"2\t00ff\tI\tt\ti2\tt\xc3").unwrap();
        }
        let poll = r.poll().unwrap();
        assert!(poll.records.is_empty());
        assert!(poll.pending > 0, "torn bytes are pending, not consumed");
        // The writer reopens (truncating the torn tail) and appends cleanly;
        // the same reader picks up the rewrite from its unchanged offset.
        let mut w = WalWriter::open(&path, &c).unwrap();
        assert_eq!(w.next_seq(), 2);
        w.append(&ins(2)).unwrap();
        let poll = r.poll().unwrap();
        assert_eq!(poll.records, vec![(2, ins(2))]);
        assert_eq!(poll.pending, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_stream_corruption_is_fatal_for_poll() {
        let path = temp_path("reader-corrupt");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.append(&ins(2)).unwrap();
            w.append(&ins(3)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("rëcord 2", "rëcorX 2")).unwrap();
        let mut r = LogReader::open(&path, &c).unwrap();
        assert!(matches!(
            r.poll().unwrap_err(),
            WalError::Corrupt { line: 3, .. }
        ));
        // The failed poll consumed nothing: once the line is whole again,
        // the same reader streams every record.
        assert_eq!(r.last_seq(), 0);
        std::fs::write(&path, &text).unwrap();
        assert_eq!(
            r.poll().unwrap().records,
            vec![(1, ins(1)), (2, ins(2)), (3, ins(3))]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn headerless_log_is_tolerated_until_the_header_lands() {
        let path = temp_path("late-header");
        let c = catalog();
        std::fs::write(&path, "QUESTW").unwrap(); // creation torn mid-header
        let mut r = LogReader::open(&path, &c).unwrap();
        let poll = r.poll().unwrap();
        assert!(poll.records.is_empty());
        assert!(poll.pending > 0);
        // The writer reinitializes the log; the reader attaches seamlessly.
        let mut w = WalWriter::open(&path, &c).unwrap();
        w.append(&ins(1)).unwrap();
        assert_eq!(r.poll().unwrap().records, vec![(1, ins(1))]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn schema_mismatch_refuses_open() {
        let path = temp_path("reader-mismatch");
        let c = catalog();
        drop(WalWriter::open(&path, &c).unwrap());
        let mut other = Catalog::new();
        other
            .define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("renamed", DataType::Text)
            .unwrap()
            .finish();
        assert!(matches!(
            LogReader::open(&path, &other).unwrap_err(),
            WalError::SchemaMismatch { .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
