//! Whole-database snapshots.
//!
//! A snapshot is a self-contained text file: header (schema fingerprint +
//! the WAL sequence number it covers), the full catalog, then every table's
//! slot layout — tombstones included, so the restored [`Database`] is
//! *structurally identical* to the one snapshotted (same `RowId`s, same
//! posting lists after `finalize`), not merely equivalent. The file ends
//! with an explicit `E` marker so a truncated snapshot is detected.
//!
//! ```text
//! QUESTSNAP<TAB>1<TAB><fingerprint><TAB><last_seq>
//! T<TAB><table name>
//! A<TAB><attr name><TAB><type><TAB><pk><TAB><nullable><TAB><full_text>
//! F<TAB><from table><TAB><from attr><TAB><to table>
//! B<TAB><table name><TAB><slot count>
//! R<TAB><value>...          (live slot)
//! X                         (tombstoned slot)
//! E
//! ```

use std::io::Write;
use std::path::Path;

use relstore::{Catalog, DataType, Database, Row, Value};

use crate::codec::{decode_value, encode_value, escape_field, schema_fingerprint, unescape_field};
use crate::error::WalError;

/// Magic first field of a snapshot header.
const MAGIC: &str = "QUESTSNAP";
/// Format version this code writes and reads.
const VERSION: &str = "1";

/// A snapshot read back from disk.
#[derive(Debug)]
pub struct Snapshot {
    /// The restored database's rows, not yet finalized.
    pub db: Database,
    /// Highest WAL sequence number whose effect the snapshot contains;
    /// recovery replays strictly newer records on top.
    pub last_seq: u64,
}

fn type_tag(ty: DataType) -> &'static str {
    match ty {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Text => "text",
        DataType::Date => "date",
    }
}

fn parse_type(tag: &str) -> Result<DataType, String> {
    match tag {
        "bool" => Ok(DataType::Bool),
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        "text" => Ok(DataType::Text),
        "date" => Ok(DataType::Date),
        other => Err(format!("unknown type `{other}`")),
    }
}

/// Write a snapshot of `db` to `path`, recording that every WAL record with
/// sequence number `<= last_seq` is already reflected in it.
pub fn write_snapshot(db: &Database, path: &Path, last_seq: u64) -> Result<(), WalError> {
    // Failpoint before any byte is staged: an injected publish fault leaves
    // the previous snapshot at `path` untouched, so bootstrap falls back to
    // it (the same guarantee the temp-then-rename protocol gives crashes).
    if let Some(fault) = quest_fault::fire(quest_fault::sites::WAL_SNAPSHOT) {
        match fault.kind {
            quest_fault::FaultKind::SlowIo => fault.stall(),
            _ => return Err(WalError::Io(fault.io_error())),
        }
    }
    let catalog = db.catalog();
    let mut out = String::new();
    out.push_str(&format!(
        "{MAGIC}\t{VERSION}\t{:016x}\t{last_seq}\n",
        schema_fingerprint(catalog)
    ));
    for table in catalog.tables() {
        out.push_str(&format!("T\t{}\n", escape_field(&table.name)));
        for attr_id in &table.attributes {
            let a = catalog.attribute(*attr_id);
            out.push_str(&format!(
                "A\t{}\t{}\t{}\t{}\t{}\n",
                escape_field(&a.name),
                type_tag(a.data_type),
                a.in_primary_key as u8,
                a.nullable as u8,
                a.full_text as u8
            ));
        }
    }
    for fk in catalog.foreign_keys() {
        let from = catalog.attribute(fk.from);
        let to = catalog.attribute(fk.to);
        out.push_str(&format!(
            "F\t{}\t{}\t{}\n",
            escape_field(&catalog.table(from.table).name),
            escape_field(&from.name),
            escape_field(&catalog.table(to.table).name)
        ));
    }
    for table in catalog.tables() {
        let data = db.table_data(table.id);
        out.push_str(&format!(
            "B\t{}\t{}\n",
            escape_field(&table.name),
            data.slot_count()
        ));
        for slot in data.slots() {
            match slot {
                Some(row) => {
                    let cells: Vec<String> = row.values().iter().map(encode_value).collect();
                    out.push_str(&format!("R\t{}\n", cells.join("\t")));
                }
                None => out.push_str("X\n"),
            }
        }
    }
    out.push_str("E\n");
    // Write-to-temp then rename: the previous snapshot at `path` stays
    // valid until the new one is complete and synced, so a crash mid-write
    // never destroys the only recovery point. The temp file itself is
    // guarded by the `E` marker (a torn temp write is rejected on read),
    // and the rename is atomic on POSIX filesystems.
    let tmp = path.with_extension("snap-tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(out.as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    // The rename is atomic but not durable until the *directory* entry is
    // flushed: without this fsync a power cut can resurrect the old name
    // (or neither) even though the data blocks above were synced.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Read a snapshot back: the rows, slot layout and watermark only. Each
/// row's shape and key are checked as it is restored; the derived state
/// (postings, statistics) is not built. Call [`Database::finalize`] before
/// searching — [`crate::recover`] first replays the log suffix on these
/// rows, so it builds that state once.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, WalError> {
    let text = std::fs::read_to_string(path)?;
    let corrupt = |line: usize, message: String| WalError::Corrupt { line, message };
    let mut lines = text.lines().enumerate();

    // Header.
    let (_, header) = lines
        .next()
        .ok_or_else(|| corrupt(1, "empty file".into()))?;
    let mut fields = header.split('\t');
    if fields.next() != Some(MAGIC) || fields.next() != Some(VERSION) {
        return Err(corrupt(1, format!("bad header `{header}`")));
    }
    let fingerprint = fields
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| corrupt(1, "bad fingerprint".into()))?;
    let last_seq = fields
        .next()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| corrupt(1, "bad last_seq".into()))?;

    // Catalog section: T/A lines describe tables, F lines foreign keys.
    // Collected first because attribute lines belong to the preceding T.
    let mut catalog = Catalog::new();
    let mut current: Option<relstore::TableId> = None;
    let mut body_start: Option<(usize, &str)> = None;
    let mut fks: Vec<(String, String, String)> = Vec::new();
    for (i, line) in lines.by_ref() {
        let lineno = i + 1;
        let mut fields = line.split('\t');
        let tag = fields.next().unwrap_or_default();
        let mut field = |name: &str| -> Result<String, WalError> {
            fields
                .next()
                .ok_or_else(|| corrupt(lineno, format!("missing {name}")))
                .and_then(|f| unescape_field(f).map_err(|e| corrupt(lineno, e)))
        };
        match tag {
            "T" => {
                let name = field("table name")?;
                let builder = catalog
                    .define_table(&name)
                    .map_err(|e| corrupt(lineno, e.to_string()))?;
                current = Some(builder.finish());
            }
            "A" => {
                let Some(tid) = current else {
                    return Err(corrupt(lineno, "attribute before any table".into()));
                };
                let name = field("attr name")?;
                let ty = parse_type(&field("type")?).map_err(|e| corrupt(lineno, e))?;
                let pk = field("pk flag")? == "1";
                let nullable = field("nullable flag")? == "1";
                let full_text = field("full-text flag")? == "1";
                let table_name = catalog.table(tid).name.clone();
                let builder = catalog
                    .resume_table(tid)
                    .map_err(|e| corrupt(lineno, e.to_string()))?;
                let result = if pk {
                    builder.pk(&name, ty)
                } else {
                    builder.col_opts(&name, ty, nullable, full_text)
                };
                result
                    .map_err(|e| corrupt(lineno, format!("attribute {table_name}.{name}: {e}")))?;
            }
            "F" => {
                fks.push((
                    field("from table")?,
                    field("from attr")?,
                    field("to table")?,
                ));
            }
            "B" => {
                // First data line: catalog is complete. Register FKs now.
                body_start = Some((lineno, line));
                break;
            }
            other => return Err(corrupt(lineno, format!("unexpected tag `{other}`"))),
        }
    }
    for (from_table, from_attr, to_table) in fks {
        catalog
            .add_foreign_key(&from_table, &from_attr, &to_table)
            .map_err(|e| WalError::Corrupt {
                line: 1,
                message: format!("foreign key {from_table}.{from_attr}: {e}"),
            })?;
    }
    if schema_fingerprint(&catalog) != fingerprint {
        return Err(WalError::SchemaMismatch {
            expected: schema_fingerprint(&catalog),
            found: fingerprint,
        });
    }

    // Data section: for each B line, `slot_count` R/X lines follow.
    let mut db = Database::new(catalog)?;
    let mut pending = body_start;
    let mut saw_end = false;
    loop {
        let (lineno, line) = match pending.take() {
            Some(l) => l,
            None => match lines.next() {
                Some((i, l)) => (i + 1, l),
                None => break,
            },
        };
        let mut fields = line.split('\t');
        match fields.next().unwrap_or_default() {
            "B" => {
                let name = fields
                    .next()
                    .map(unescape_field)
                    .transpose()
                    .map_err(|e| corrupt(lineno, e))?
                    .ok_or_else(|| corrupt(lineno, "missing table name".into()))?;
                let slots: usize = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt(lineno, "bad slot count".into()))?;
                let tid = db
                    .catalog()
                    .table_id(&name)
                    .map_err(|e| corrupt(lineno, e.to_string()))?;
                // The count sits on an unchecksummed line: preallocate no
                // more slots than the rest of the file can hold (each is a
                // line of at least two bytes), so a corrupted count ends in
                // `Corrupt` below instead of a process-killing allocation.
                let remaining = text.len() - (line.as_ptr() as usize - text.as_ptr() as usize);
                let mut layout: Vec<Option<Row>> = Vec::with_capacity(slots.min(remaining / 2));
                for _ in 0..slots {
                    let (i, row_line) = lines
                        .next()
                        .ok_or_else(|| corrupt(lineno, "truncated table body".into()))?;
                    let rowno = i + 1;
                    let mut cells = row_line.split('\t');
                    match cells.next().unwrap_or_default() {
                        "R" => {
                            let values: Vec<Value> = cells
                                .map(decode_value)
                                .collect::<Result<_, _>>()
                                .map_err(|e| corrupt(rowno, e))?;
                            layout.push(Some(Row::new(values)));
                        }
                        "X" => layout.push(None),
                        other => {
                            return Err(corrupt(rowno, format!("expected row, got `{other}`")))
                        }
                    }
                }
                db.restore_table(tid, layout)?;
            }
            "E" => {
                saw_end = true;
                break;
            }
            other => return Err(corrupt(lineno, format!("unexpected tag `{other}`"))),
        }
    }
    if !saw_end {
        return Err(WalError::Corrupt {
            line: 0,
            message: "snapshot missing end marker (truncated write?)".into(),
        });
    }
    Ok(Snapshot { db, last_seq })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quest-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.snap", std::process::id()))
    }

    fn sample_db() -> Database {
        let mut c = Catalog::new();
        c.define_table("person")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        c.define_table("movie")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("title", DataType::Text)
            .unwrap()
            .col_opts("director_id", DataType::Int, true, false)
            .unwrap()
            .col_opts("rating", DataType::Float, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("movie", "director_id", "person").unwrap();
        let mut db = Database::new(c).unwrap();
        db.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))
            .unwrap();
        db.insert(
            "person",
            Row::new(vec![2.into(), "Michael, \"Mike\"".into()]),
        )
        .unwrap();
        db.insert(
            "movie",
            Row::new(vec![
                10.into(),
                "Gone with the Wind".into(),
                1.into(),
                (0.1f64 + 0.2).into(),
            ]),
        )
        .unwrap();
        db.insert(
            "movie",
            Row::new(vec![11.into(), "Casablanca".into(), 2.into(), Value::Null]),
        )
        .unwrap();
        db.finalize();
        // Leave a tombstone so the slot layout is non-trivial.
        db.delete("movie", &[Value::Int(10)]).unwrap();
        db
    }

    #[test]
    fn snapshot_round_trips_structurally() {
        let db = sample_db();
        let path = temp_path("roundtrip");
        write_snapshot(&db, &path, 42).unwrap();
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.last_seq, 42);
        let mut restored = snap.db;
        assert!(!restored.is_finalized(), "bare rows");
        restored.finalize();
        assert!(restored.validate().is_ok());
        let movie = restored.catalog().table_id("movie").unwrap();
        // Slot layout preserved: tombstone at slot 0, Casablanca at slot 1.
        assert_eq!(restored.table_data(movie).slot_count(), 2);
        assert_eq!(restored.table_data(movie).get(relstore::RowId(0)), None);
        for attr in db.catalog().attributes() {
            assert_eq!(
                db.index(attr.id),
                restored.index(attr.id),
                "index of {} diverged",
                db.catalog().qualified_name(attr.id)
            );
        }
        for t in db.catalog().tables() {
            let (a, b) = (db.table_data(t.id), restored.table_data(t.id));
            assert!(a.slots().eq(b.slots()), "slots of {} diverged", t.name);
        }
        for fk in db.catalog().foreign_keys() {
            assert_eq!(db.fk_stats(*fk), restored.fk_stats(*fk));
        }
        // Float survives bitwise.
        let rating = restored.catalog().attr_id("movie", "rating").unwrap();
        let person = restored.catalog().attr_id("person", "name").unwrap();
        assert!(restored.search_score(person, "fleming") > 0.0);
        let _ = rating;
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let db = sample_db();
        let path = temp_path("truncated");
        write_snapshot(&db, &path, 0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Drop the end marker and the last row.
        let cut: String = text
            .lines()
            .take(text.lines().count() - 2)
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&path, cut).unwrap();
        assert!(matches!(
            read_snapshot(&path).unwrap_err(),
            WalError::Corrupt { .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_slot_count_rejected() {
        let db = sample_db();
        let path = temp_path("slot-count");
        write_snapshot(&db, &path, 0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let b_line = text.lines().find(|l| l.starts_with("B\t")).unwrap();
        let (prefix, count) = b_line.rsplit_once('\t').unwrap();
        let count: usize = count.parse().unwrap();
        // Absurd counts must not reach the allocator; off-by-one counts
        // misalign the body. Every case is an ordinary `Corrupt`.
        for bad in [
            u64::MAX.to_string(),
            "99999999999".to_string(),
            (count + 1).to_string(),
            (count - 1).to_string(),
        ] {
            let tampered = text.replacen(b_line, &format!("{prefix}\t{bad}"), 1);
            std::fs::write(&path, tampered).unwrap();
            assert!(
                matches!(read_snapshot(&path), Err(WalError::Corrupt { .. })),
                "slot count {bad} must be rejected as corrupt"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tampered_fingerprint_rejected() {
        let db = sample_db();
        let path = temp_path("fingerprint");
        write_snapshot(&db, &path, 0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Rename a column in the catalog section without updating the
        // header fingerprint: the reader must notice.
        let tampered = text.replacen("A\ttitle", "A\tname2", 1);
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(
            read_snapshot(&path).unwrap_err(),
            WalError::SchemaMismatch { .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
