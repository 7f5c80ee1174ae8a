//! Property suite for torn-tail recovery: truncating the log at **every
//! byte offset inside the final record** must always recover the valid
//! prefix — never an error, never a phantom record. This is the crash model
//! the WAL promises to survive: an un-synced append interrupted at an
//! arbitrary byte, including mid-way through a multi-byte character.
//!
//! A snapshot has no per-line checksum, so its reader faces arbitrary
//! corruption instead: overwritten bytes and truncations must come back as
//! `Ok` or `Err`, never as a panic or an abort. A coordinator log's batch
//! frame gets the same treatment, with its checksum recomputed so the
//! damage reaches the frame decoder, which must also never allocate out of
//! proportion to its input. A [`LogReader`] tailing a log file must survive
//! any bytes in that file: `open`, `seek` and `poll` return `Ok` or a
//! `WalError`, never a panic, and never allocate out of proportion to the
//! file. On those same bytes every reader of the log format — `read_log`,
//! a polled `LogReader`, one that seeks first, and a writer's open —
//! reaches the same verdict.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use quest_fault::{RetryPolicy, SystemClock};
use quest_wal::codec::fnv64;
use quest_wal::{
    read_log, read_snapshot, recover, schema_fingerprint, write_snapshot, BatchFrame, ChangeRecord,
    CoordinatorLog, LogReader, ShardSlice, WalError, WalWriter,
};
use relstore::{Catalog, DataType, Database, Date, Row, Value};

/// The system allocator, noting the largest single request per thread.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Run `f`, returning its result and the largest single allocation it made
/// on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

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

fn temp_path(name: &str, ext: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("quest-wal-proptests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.{ext}", std::process::id()))
}

/// Record payloads: printable ASCII from the strategy, plus multi-byte
/// characters salted in deterministically so every case exercises UTF-8
/// tails (truncation can split `ö` or `𝄞` mid-sequence).
fn records_from(names: Vec<String>) -> Vec<ChangeRecord> {
    names
        .into_iter()
        .enumerate()
        .map(|(i, mut name)| {
            if i % 2 == 0 {
                name.push_str("ö𝄞€");
            }
            ChangeRecord::Insert {
                table: "t".into(),
                row: vec![Value::Int(i as i64 + 1), name.into()],
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncation_inside_the_final_record_recovers_the_prefix(
        names in proptest::collection::vec("[a-z0-9 ,;]{0,12}", 2..6),
    ) {
        let c = catalog();
        let records = records_from(names);
        let base = temp_path("torn-base", "wal");
        {
            let mut w = WalWriter::open(&base, &c).expect("open");
            for r in &records {
                w.append(r).expect("append");
            }
        }
        let bytes = std::fs::read(&base).expect("read log");
        prop_assert!(bytes.ends_with(b"\n"));
        // Start of the final record's line: just past the previous newline.
        let final_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("header line precedes every record") + 1;
        let prefix: Vec<(u64, ChangeRecord)> = records[..records.len() - 1]
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (i as u64 + 1, r))
            .collect();

        let snap = temp_path("torn-snap", "snap");
        let mut empty = Database::new(c.clone()).expect("db");
        empty.finalize();
        write_snapshot(&empty, &snap, 0).expect("snapshot");

        let torn = temp_path("torn-cut", "wal");
        for cut in final_start..bytes.len() {
            std::fs::write(&torn, &bytes[..cut]).expect("write truncated copy");

            // Reading never errors and never invents a record.
            let log = read_log(&torn, &c)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: read_log failed: {e}"));
            prop_assert_eq!(
                &log.records, &prefix,
                "cut at byte {} must yield exactly the prefix", cut
            );
            // A cut at the line boundary is a clean log; anything inside
            // the final record is a reported torn tail.
            prop_assert_eq!(log.torn_tail, cut > final_start, "cut at byte {}", cut);

            // Full recovery (snapshot + replay) holds the same prefix.
            let recovery = recover(&snap, &torn)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: recover failed: {e}"));
            prop_assert_eq!(recovery.applied, prefix.len());
            prop_assert_eq!(recovery.rejected, 0);
            prop_assert_eq!(recovery.db.total_rows(), prefix.len());

            // Reopening for append truncates the tail and resumes the
            // sequence where the prefix left off.
            let mut w = WalWriter::open(&torn, &c).expect("reopen");
            prop_assert_eq!(w.next_seq(), prefix.len() as u64 + 1);
            w.append(records.last().expect("non-empty script"))
                .expect("append after truncation");
            drop(w);
            let healed = read_log(&torn, &c).expect("healed log reads");
            prop_assert!(!healed.torn_tail);
            prop_assert_eq!(healed.records.len(), records.len());
        }

        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&torn).ok();
        std::fs::remove_file(&snap).ok();
    }
}

/// Bytes the snapshot format gives meaning to (separators, line tags, value
/// tags, digits, the escape character) plus one that breaks UTF-8.
const HOSTILE: &[u8] = b"\t\n0123456789-TAFBRXE_ibftd\\\xff";

/// Whole-field replacements: counts too large to allocate or to fit, off-by
/// signs, stray tags, and values that are well-formed but out of range.
const TOKENS: &[&str] = &[
    "",
    "0",
    "1",
    "-1",
    "99999999999",
    "18446744073709551615",
    "R",
    "X",
    "B",
    "E",
    "_",
    "i",
    "t\\",
    "fffffffffffffffff",
    "d2024,2,30",
];

/// A small two-table snapshot with a foreign key, every value tag, escaped
/// text, and a tombstone.
fn valid_snapshot() -> String {
    let mut c = catalog();
    c.define_table("u")
        .unwrap()
        .pk("id", DataType::Int)
        .unwrap()
        .col("title", DataType::Text)
        .unwrap()
        .col_opts("t_id", DataType::Int, true, false)
        .unwrap()
        .col_opts("score", DataType::Float, true, false)
        .unwrap()
        .col_opts("flag", DataType::Bool, true, false)
        .unwrap()
        .finish();
    c.add_foreign_key("u", "t_id", "t").unwrap();
    let mut db = Database::new(c).expect("db");
    for i in 1..=3i64 {
        db.insert("t", Row::new(vec![i.into(), format!("name\t{i}ö").into()]))
            .unwrap();
    }
    for i in 1..=4i64 {
        db.insert(
            "u",
            Row::new(vec![
                (10 + i).into(),
                format!("title \\ {i}").into(),
                if i == 4 { Value::Null } else { i.into() },
                (i as f64 / 3.0).into(),
                (i % 2 == 0).into(),
            ]),
        )
        .unwrap();
    }
    db.finalize();
    db.delete("u", &[Value::Int(12)]).unwrap();
    let path = temp_path("hostile-base", "snap");
    write_snapshot(&db, &path, 7).expect("snapshot");
    let text = std::fs::read_to_string(&path).expect("read snapshot");
    std::fs::remove_file(&path).ok();
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn hostile_snapshot_bytes_never_panic_the_reader(
        fields in proptest::collection::vec((0usize..64, 0usize..8, 0usize..TOKENS.len()), 1..4),
        bytes_at in proptest::collection::vec((0usize..4096, 0usize..HOSTILE.len()), 0..4),
        cut in 0usize..4096,
        truncate in any::<bool>(),
    ) {
        // Field replacements first, on the line structure; then raw byte
        // overwrites and an optional truncation on the result. Edits spare
        // the header line: the reader checks it first and whole, so a
        // damaged header only hides the catalog and body from the case.
        let mut lines: Vec<String> = valid_snapshot().lines().map(str::to_string).collect();
        let n = lines.len();
        for &(line, field, token) in &fields {
            let line = &mut lines[1 + line % (n - 1)];
            let mut cells: Vec<&str> = line.split('\t').collect();
            let at = field % cells.len();
            cells[at] = TOKENS[token];
            *line = cells.join("\t");
        }
        let mut bytes = lines.join("\n").into_bytes();
        bytes.push(b'\n');
        let header = lines[0].len() + 1;
        for &(at, b) in &bytes_at {
            let at = header + at % (bytes.len() - header);
            bytes[at] = HOSTILE[b];
        }
        if truncate {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let path = temp_path("hostile", "snap");
        std::fs::write(&path, &bytes).expect("write hostile copy");
        let outcome = std::panic::catch_unwind(|| read_snapshot(&path).map(|s| s.last_seq));
        std::fs::remove_file(&path).ok();
        prop_assert!(
            outcome.is_ok(),
            "read_snapshot panicked on fields {:?}, bytes {:?}, truncate {} at {}",
            fields, bytes_at, truncate, cut
        );
    }
}

/// A three-participant frame with every record kind, every value tag, and
/// text that needs escaping twice (once in the record, once in the frame).
fn valid_frame() -> String {
    let insert = |id: i64, name: &str| ChangeRecord::Insert {
        table: "t".into(),
        row: vec![id.into(), name.into()],
    };
    BatchFrame {
        slices: vec![
            ShardSlice {
                shard: 0,
                last_lsn: 9,
                records: vec![
                    insert(1, "name\t1ö"),
                    insert(2, "back \\ slash"),
                    ChangeRecord::Delete {
                        table: "t".into(),
                        key: vec![3.into()],
                    },
                ],
            },
            ShardSlice {
                shard: 2,
                last_lsn: 1,
                records: vec![ChangeRecord::Update {
                    table: "u".into(),
                    key: vec![11.into()],
                    row: vec![
                        11.into(),
                        Value::Null,
                        (1.0f64 / 3.0).into(),
                        true.into(),
                        Value::Date(Date::new(2024, 2, 29).expect("leap day")),
                    ],
                }],
            },
            ShardSlice {
                shard: 3,
                last_lsn: 12,
                records: vec![insert(4, "𝄞€")],
            },
        ],
    }
    .encode()
}

/// Field replacements for a frame: counts and LSNs too large to allocate
/// or to fit (alone, and as a whole slice header that passes the
/// count-versus-LSN check), shard numbers out of order, non-canonical
/// spellings, and record fields that are only half escaped.
const FRAME_TOKENS: &[&str] = &[
    "0\t99999999999\t99999999999",
    "1\t18446744073709551615\t18446744073709551615",
    "",
    "0",
    "1",
    "3",
    "+1",
    "01",
    "99999999999",
    "18446744073709551615",
    "B",
    "I\\tt\\ti1",
    "D\\t",
    "U\\tt\\t9\\ti1",
    "\\",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn hostile_frame_bytes_never_panic_or_overallocate(
        fields in proptest::collection::vec((0usize..64, 0usize..FRAME_TOKENS.len()), 0..4),
        bytes_at in proptest::collection::vec((0usize..4096, 0usize..HOSTILE.len()), 0..4),
        cut in 0usize..4096,
        truncate in any::<bool>(),
    ) {
        let mut cells: Vec<String> = valid_frame().split('\t').map(str::to_string).collect();
        for &(at, token) in &fields {
            let at = at % cells.len();
            cells[at] = FRAME_TOKENS[token].to_string();
        }
        let mut bytes = cells.join("\t").into_bytes();
        for &(at, b) in &bytes_at {
            let at = at % bytes.len();
            bytes[at] = HOSTILE[b];
        }
        if truncate {
            bytes.truncate(cut % (bytes.len() + 1));
        }

        // The decoder on the body alone: no panic, no allocation out of
        // proportion to the input (a decoded record takes at least 8 input
        // bytes and one record slot, and a vector at most doubles), and an
        // accepted frame is exactly what `encode` writes.
        let body = String::from_utf8_lossy(&bytes).into_owned();
        let bound = 32 * body.len().max(64);
        let outcome = std::panic::catch_unwind(|| largest_allocation(|| BatchFrame::decode(&body)));
        prop_assert!(outcome.is_ok(), "decode panicked on {:?}", body);
        let (decoded, largest) = outcome.expect("checked above");
        prop_assert!(
            largest <= bound,
            "decode of {} bytes allocated {} at once: {:?}", body.len(), largest, body
        );
        if let Ok(frame) = decoded {
            prop_assert_eq!(frame.encode(), body.clone());
        }

        // The same bytes as the final line of a coordinator log, checksum
        // recomputed so they reach the decoder: opening never panics.
        let path = temp_path("hostile-frame", "wal");
        let mut file = format!("QUESTWAL\t1\t{:016x}\n", schema_fingerprint(&catalog())).into_bytes();
        file.extend_from_slice(format!("1\t{:016x}\t", fnv64(&bytes)).as_bytes());
        file.extend_from_slice(&bytes);
        file.push(b'\n');
        std::fs::write(&path, &file).expect("write hostile log");
        let opened = std::panic::catch_unwind(|| {
            CoordinatorLog::open(
                &path,
                &catalog(),
                RetryPolicy::default(),
                Arc::new(SystemClock::new()),
            )
            .map(|(_, frames)| frames.len())
        });
        std::fs::remove_file(&path).ok();
        prop_assert!(opened.is_ok(), "opening panicked on {:?}", body);
    }
}

/// Seq-field replacements for a log line: in order, repeated, regressed,
/// `u64::MAX`, one past it, far past it, signed, padded, and not a number.
const SEQS: &[&str] = &[
    "1",
    "2",
    "3",
    "0",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-1",
    "+2",
    "02",
    "",
    "x",
];

/// A valid three-record log, written once: the generator below runs on
/// every test thread at once.
fn three_record_log() -> &'static str {
    static LOG: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    LOG.get_or_init(|| {
        let base = temp_path("hostile-reader-base", "wal");
        {
            let mut w = WalWriter::open(&base, &catalog()).expect("open");
            for r in records_from(vec!["a".into(), "b".into(), "c".into()]) {
                w.append(&r).expect("append");
            }
        }
        let text = std::fs::read_to_string(&base).expect("read log");
        std::fs::remove_file(&base).ok();
        text
    })
}

/// Bytes where a log should be, in four shapes: arbitrary bytes; a valid
/// header followed by garbage; a valid three-record log with hostile seq
/// fields (they sit outside the checksum), overwritten bytes, and a cut
/// that can truncate it anywhere; and the same log with a first line that
/// runs past 256 bytes, a header grown into damage no fixed look-ahead
/// window can see the end of.
fn hostile_log() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..4,
        proptest::collection::vec(any::<u8>(), 0..256),
        proptest::collection::vec((0usize..4, 0usize..SEQS.len()), 0..3),
        proptest::collection::vec((0usize..4096, 0usize..HOSTILE.len()), 0..3),
        0usize..4096,
    )
        .prop_map(|(shape, garbage, seqs, bytes_at, cut)| {
            let c = catalog();
            let header = format!("QUESTWAL\t1\t{:016x}", schema_fingerprint(&c));
            if shape == 0 {
                return garbage;
            }
            if shape == 1 {
                return [format!("{header}\n").into_bytes(), garbage].concat();
            }
            let mut lines: Vec<String> = three_record_log().lines().map(str::to_string).collect();
            if shape == 3 {
                let mut first = header + &String::from_utf8_lossy(&garbage).replace('\n', "#");
                while first.len() <= 256 {
                    first.push('#');
                }
                lines[0] = first;
            }
            for &(line, seq) in &seqs {
                // Line 0 is the header; records are lines 1..=3.
                let line = &mut lines[1 + line % 3];
                let tab = line.find('\t').expect("seq field");
                line.replace_range(..tab, SEQS[seq]);
            }
            let mut bytes = (lines.join("\n") + "\n").into_bytes();
            for &(at, b) in &bytes_at {
                let at = at % bytes.len();
                bytes[at] = HOSTILE[b];
            }
            bytes.truncate(cut % (bytes.len() + 1));
            bytes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_log_bytes_never_panic_the_reader(
        bytes in hostile_log(),
        after in prop_oneof![0u64..6, Just(u64::MAX)],
    ) {
        let c = catalog();
        let path = temp_path("hostile-reader", "wal");
        std::fs::write(&path, &bytes).expect("write hostile log");
        let outcome = std::panic::catch_unwind(|| largest_allocation(|| {
            let mut reader = LogReader::open(&path, &c)?;
            reader.seek(after)?;
            let mut accepted = Vec::new();
            for _ in 0..2 {
                accepted.extend(reader.poll()?.records.into_iter().map(|(seq, _)| seq));
            }
            Ok::<_, WalError>(accepted)
        }));
        std::fs::remove_file(&path).ok();
        prop_assert!(outcome.is_ok(), "the reader panicked on {:?} after seek({})", bytes, after);
        let (read, largest) = outcome.expect("checked above");
        let bound = 32 * bytes.len().max(64);
        prop_assert!(
            largest <= bound,
            "reading {} bytes allocated {} at once: {:?}", bytes.len(), largest, bytes
        );
        // Whatever it accepts streams past the seek watermark, in strictly
        // increasing order.
        if let Ok(accepted) = read {
            prop_assert!(accepted.first().is_none_or(|&first| first > after), "{:?}", accepted);
            prop_assert!(accepted.windows(2).all(|w| w[0] < w[1]), "{:?}", accepted);
        }
    }

    #[test]
    fn every_reader_of_the_log_accepts_the_same_bytes(bytes in hostile_log(), k in 0u64..4) {
        // One header rule and one record rule decide for every reader:
        // `read_log`, a `LogReader` polled from the start, one that seeks
        // to `k` before it polls, and a writer opening a copy either all
        // refuse, with the same error, or all accept the same records and
        // agree on the torn tail. The seek verifies what it skips, so damage
        // at or below `k` is the same error too.
        let c = catalog();
        let path = temp_path("agree-read", "wal");
        let copy = temp_path("agree-write", "wal");
        std::fs::write(&path, &bytes).expect("write hostile log");
        std::fs::write(&copy, &bytes).expect("write hostile log");
        let read = read_log(&path, &c);
        let polled = LogReader::open(&path, &c).and_then(|mut reader| reader.poll());
        let sought = LogReader::open(&path, &c).and_then(|mut reader| {
            let reached = reader.seek(k)?;
            Ok((reached, reader.poll()?))
        });
        let next_seq = WalWriter::open(&copy, &c).map(|w| w.next_seq());
        let kept = read_log(&copy, &c);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&copy).ok();
        match (read, polled, sought, next_seq) {
            (Ok(log), Ok(poll), Ok((reached, tail)), Ok(next_seq)) => {
                prop_assert_eq!(&log.records, &poll.records, "{:?}", bytes);
                prop_assert_eq!(log.torn_tail, poll.pending > 0, "{:?}", bytes);
                let last = log.records.last().map_or(0, |&(seq, _)| seq);
                prop_assert_eq!(next_seq, last + 1, "{:?}", bytes);
                // The seek reaches `k`, or says where the log ends below it
                // (`LogReader::after` refuses such a log); from `k` on, the
                // poll returns exactly `read_log`'s records past `k`.
                prop_assert_eq!(reached, last.min(k), "{:?}", bytes);
                if k <= last {
                    let past: Vec<_> = log.records.iter().filter(|&&(seq, _)| seq > k).cloned().collect();
                    prop_assert_eq!(&tail.records, &past, "{:?}", bytes);
                    prop_assert_eq!(log.torn_tail, tail.pending > 0, "{:?}", bytes);
                }
                // What the writer kept is exactly what the readers accepted.
                let kept = kept.expect("the writer's log reads back");
                prop_assert_eq!(&kept.records, &log.records, "{:?}", bytes);
                prop_assert!(!kept.torn_tail, "{:?}", bytes);
            }
            (Err(read), Err(polled), Err(sought), Err(opened)) => {
                prop_assert_eq!(read.to_string(), polled.to_string(), "{:?}", bytes);
                prop_assert_eq!(read.to_string(), sought.to_string(), "{:?}", bytes);
                prop_assert_eq!(read.to_string(), opened.to_string(), "{:?}", bytes);
            }
            (read, polled, sought, next_seq) => prop_assert!(
                false,
                "readers disagree on {:?} (seek to {}): read_log {:?}, LogReader {:?}, \
                 seeking LogReader {:?}, WalWriter {:?}",
                bytes, k, read.map(|log| log.records.len()), polled.map(|poll| poll.pending),
                sought.map(|(reached, _)| reached), next_seq
            ),
        }
    }
}
