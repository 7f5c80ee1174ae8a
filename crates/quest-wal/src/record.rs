//! Serializable change records: the unit the log stores and replays.

use relstore::{Database, Row, RowId, StoreError, Value};

use crate::codec::{decode_value, encode_value, escape_field, unescape_field};

/// One logical mutation of a [`Database`], addressed by table name and
/// primary-key values so records stay valid across process restarts (slot
/// numbers are an in-memory artifact; keys are the durable identity).
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeRecord {
    /// Insert a full row.
    Insert {
        /// Target table name.
        table: String,
        /// Column values in declaration order.
        row: Vec<Value>,
    },
    /// Delete the row with the given primary key.
    Delete {
        /// Target table name.
        table: String,
        /// Primary-key values in key order.
        key: Vec<Value>,
    },
    /// Replace the row with the given primary key by a full new row.
    Update {
        /// Target table name.
        table: String,
        /// Primary-key values of the victim, in key order.
        key: Vec<Value>,
        /// Replacement column values in declaration order.
        row: Vec<Value>,
    },
}

impl ChangeRecord {
    /// The table this record mutates.
    pub fn table(&self) -> &str {
        match self {
            ChangeRecord::Insert { table, .. }
            | ChangeRecord::Delete { table, .. }
            | ChangeRecord::Update { table, .. } => table,
        }
    }

    /// Encode as one tab-separated line body (no newline, no framing).
    pub fn encode(&self) -> String {
        let mut fields: Vec<String> = Vec::new();
        match self {
            ChangeRecord::Insert { table, row } => {
                fields.push("I".into());
                fields.push(escape_field(table));
                fields.extend(row.iter().map(encode_value));
            }
            ChangeRecord::Delete { table, key } => {
                fields.push("D".into());
                fields.push(escape_field(table));
                fields.extend(key.iter().map(encode_value));
            }
            ChangeRecord::Update { table, key, row } => {
                fields.push("U".into());
                fields.push(escape_field(table));
                fields.push(key.len().to_string());
                fields.extend(key.iter().map(encode_value));
                fields.extend(row.iter().map(encode_value));
            }
        }
        fields.join("\t")
    }

    /// Invert [`ChangeRecord::encode`].
    pub fn decode(body: &str) -> Result<ChangeRecord, String> {
        let mut fields = body.split('\t');
        let op = fields.next().ok_or("empty record")?;
        let table = unescape_field(fields.next().ok_or("missing table")?)?;
        let values: Vec<Value> = fields
            .clone()
            .skip(usize::from(op == "U"))
            .map(decode_value)
            .collect::<Result<_, _>>()?;
        match op {
            "I" => {
                if values.is_empty() {
                    return Err("insert with no values".into());
                }
                Ok(ChangeRecord::Insert { table, row: values })
            }
            "D" => {
                if values.is_empty() {
                    return Err("delete with no key".into());
                }
                Ok(ChangeRecord::Delete { table, key: values })
            }
            "U" => {
                let n: usize = fields
                    .next()
                    .ok_or("update missing key arity")?
                    .parse()
                    .map_err(|_| "bad update key arity".to_string())?;
                if n == 0 || values.len() <= n {
                    return Err("update with empty key or row".into());
                }
                let (key, row) = values.split_at(n);
                Ok(ChangeRecord::Update {
                    table,
                    key: key.to_vec(),
                    row: row.to_vec(),
                })
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Apply this record to a database through its checked mutation API
    /// (referential integrity enforced, indexes maintained incrementally).
    pub fn apply(&self, db: &mut Database) -> Result<RowId, StoreError> {
        match self {
            ChangeRecord::Insert { table, row } => db.insert(table, Row::new(row.clone())),
            ChangeRecord::Delete { table, key } => db.delete(table, key),
            ChangeRecord::Update { table, key, row } => {
                db.update(table, key, Row::new(row.clone()))
            }
        }
    }
}

/// One participant's part of a [`BatchFrame`]: the records a batch routed
/// to one shard, in batch order, and that shard's LSN once they are logged.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSlice {
    /// Index of the shard whose log receives the records.
    pub shard: usize,
    /// The shard's LSN after the batch: the LSN of the slice's last record.
    /// The slice's first record therefore lands at
    /// `last_lsn - records.len() + 1`.
    pub last_lsn: u64,
    /// The records, in batch order (never empty).
    pub records: Vec<ChangeRecord>,
}

impl ShardSlice {
    /// The shard's LSN before the batch.
    pub fn lsn_before(&self) -> u64 {
        self.last_lsn - self.records.len() as u64
    }
}

/// One sharded batch as a coordinator log stores it: every participant
/// shard's slice of the accepted records, in ascending shard order.
///
/// The body is one line: `B`, then per slice its shard, its post-batch LSN,
/// its record count and the records, each a [`ChangeRecord::encode`] body
/// escaped into a single field. [`BatchFrame::decode`] accepts exactly the
/// bytes [`BatchFrame::encode`] produces, so an accepted frame re-encodes
/// byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchFrame {
    /// The participants (at least one), in ascending shard order.
    pub slices: Vec<ShardSlice>,
}

impl BatchFrame {
    /// Encode as one tab-separated line body (no newline, no framing).
    pub fn encode(&self) -> String {
        let mut out = String::from("B");
        for slice in &self.slices {
            out.push_str(&format!(
                "\t{}\t{}\t{}",
                slice.shard,
                slice.last_lsn,
                slice.records.len()
            ));
            for record in &slice.records {
                out.push('\t');
                out.push_str(&escape_field(&record.encode()));
            }
        }
        out
    }

    /// Invert [`BatchFrame::encode`]. Anything `encode` would not have
    /// written — an empty frame or slice, shards out of order, a count
    /// larger than the LSN it ends at, a non-canonical number or record —
    /// is an error. Nothing is allocated in proportion to a count field: a
    /// slice's vector grows one decoded record at a time.
    pub fn decode(body: &str) -> Result<BatchFrame, String> {
        let mut fields = body.split('\t');
        if fields.next() != Some("B") {
            return Err("not a batch frame".into());
        }
        fn number(field: Option<&str>, what: &str) -> Result<u64, String> {
            field
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("bad {what} field"))
        }
        let mut slices: Vec<ShardSlice> = Vec::new();
        while let Some(shard) = fields.next() {
            let shard = usize::try_from(number(Some(shard), "shard")?)
                .map_err(|_| "shard out of range".to_string())?;
            if slices.last().is_some_and(|prev| prev.shard >= shard) {
                return Err(format!("shard {shard} out of order"));
            }
            let last_lsn = number(fields.next(), "lsn")?;
            let count = number(fields.next(), "record count")?;
            if count == 0 || count > last_lsn {
                return Err(format!("slice of {count} records ending at lsn {last_lsn}"));
            }
            let mut records = Vec::new();
            for _ in 0..count {
                let field = fields.next().ok_or("slice ends early")?;
                records.push(ChangeRecord::decode(&unescape_field(field)?)?);
            }
            slices.push(ShardSlice {
                shard,
                last_lsn,
                records,
            });
        }
        if slices.is_empty() {
            return Err("frame without participants".into());
        }
        let frame = BatchFrame { slices };
        // Numbers and values have spellings `encode` never writes (`+1`,
        // `007`, upper-case hex); refusing them keeps decode one-to-one.
        if frame.encode() != body {
            return Err("frame is not in canonical form".into());
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{Catalog, DataType};

    fn sample_records() -> Vec<ChangeRecord> {
        vec![
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![1.into(), "Gone, with\tthe Wind".into(), Value::Null],
            },
            ChangeRecord::Delete {
                table: "movie".into(),
                key: vec![1.into()],
            },
            ChangeRecord::Update {
                table: "person".into(),
                key: vec![7.into()],
                row: vec![7.into(), "O'Hara".into(), Value::Float(1.5)],
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let body = rec.encode();
            assert!(!body.contains('\n'));
            assert_eq!(ChangeRecord::decode(&body).unwrap(), rec);
        }
    }

    #[test]
    fn malformed_bodies_rejected() {
        for body in [
            "",
            "Z\tmovie\ti1",
            "I\tmovie",
            "D\tmovie",
            "U\tmovie\t2\ti1\ti2",
            "U\tmovie\tx\ti1\ti2",
            "I\tmovie\tq1",
        ] {
            assert!(ChangeRecord::decode(body).is_err(), "`{body}`");
        }
    }

    #[test]
    fn frames_round_trip_and_refuse_what_encode_never_writes() {
        let frame = BatchFrame {
            slices: vec![
                ShardSlice {
                    shard: 0,
                    last_lsn: 3,
                    records: sample_records()[..2].to_vec(),
                },
                ShardSlice {
                    shard: 2,
                    last_lsn: 1,
                    records: sample_records()[2..].to_vec(),
                },
            ],
        };
        let body = frame.encode();
        assert!(!body.contains('\n'));
        assert_eq!(BatchFrame::decode(&body).unwrap(), frame);
        assert_eq!(frame.slices[0].lsn_before(), 1);
        let one = escape_field(&sample_records()[1].encode());
        for bad in [
            String::new(),
            "B".into(),
            "X\t0\t1\t1".into(),
            format!("B\t0\t1\t0\t{one}"),
            format!("B\t0\t0\t1\t{one}"),
            format!("B\t0\t2\t2\t{one}"),
            format!("B\t1\t1\t1\t{one}\t0\t1\t1\t{one}"),
            format!("B\t1\t1\t1\t{one}\t1\t2\t1\t{one}"),
            format!("B\t+1\t1\t1\t{one}"),
            format!("B\t01\t1\t1\t{one}"),
            format!("B\t0\t1\t1\t{one}\textra"),
            "B\t0\t1\t1\tD\\tmovie\\ti007".into(),
        ] {
            assert!(BatchFrame::decode(&bad).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn apply_goes_through_checked_mutations() {
        let mut c = Catalog::new();
        c.define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        let mut db = Database::new(c).unwrap();
        db.finalize();
        ChangeRecord::Insert {
            table: "t".into(),
            row: vec![1.into(), "alpha".into()],
        }
        .apply(&mut db)
        .unwrap();
        ChangeRecord::Update {
            table: "t".into(),
            key: vec![1.into()],
            row: vec![1.into(), "beta".into()],
        }
        .apply(&mut db)
        .unwrap();
        let name = db.catalog().attr_id("t", "name").unwrap();
        assert!(db.search_score(name, "beta") > 0.0);
        ChangeRecord::Delete {
            table: "t".into(),
            key: vec![1.into()],
        }
        .apply(&mut db)
        .unwrap();
        assert_eq!(db.total_rows(), 0);
        // A record against a missing table errors cleanly.
        assert!(ChangeRecord::Delete {
            table: "ghost".into(),
            key: vec![1.into()],
        }
        .apply(&mut db)
        .is_err());
    }
}
