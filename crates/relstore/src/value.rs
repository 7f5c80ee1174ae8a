//! Typed scalar values stored in relation columns.
//!
//! `Value` is the dynamic value type flowing through the storage engine, the
//! SQL executor and the full-text indexes. It supports a *total* ordering
//! (`Null` sorts first, then by type rank, then by payload) so values can be
//! used as keys in ordered collections, and SQL-style *three-valued* equality
//! through [`Value::sql_eq`].

use std::cmp::Ordering;
use std::fmt;

use crate::types::DataType;

/// A calendar date, stored as (year, month, day) without timezone semantics.
///
/// The storage engine does not need full chrono support: QUEST only compares
/// and renders dates. Validity (month in 1..=12, day in 1..=31) is enforced at
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Astronomical year (may be negative).
    pub year: i32,
    /// Month, 1-12.
    pub month: u8,
    /// Day of month, 1-31 (no per-month length check; this is a storage type).
    pub day: u8,
}

impl Date {
    /// Create a date, validating month and day ranges.
    pub fn new(year: i32, month: u8, day: u8) -> Option<Date> {
        if (1..=12).contains(&month) && (1..=31).contains(&day) {
            Some(Date { year, month, day })
        } else {
            None
        }
    }

    /// Days since year 0 in a simplified proleptic calendar (months = 31
    /// days). Only used for ordering and distance, never for display.
    fn ordinal(&self) -> i64 {
        self.year as i64 * 372 + (self.month as i64 - 1) * 31 + (self.day as i64 - 1)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A dynamically typed scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalized to `Null` at construction sites.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Construct a float, mapping NaN to `Null` so the total order is sound.
    pub fn float(f: f64) -> Value {
        if f.is_nan() {
            Value::Null
        } else {
            Value::Float(f)
        }
    }

    /// The runtime type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True when the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL three-valued equality: NULL = anything is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_non_null(other) == Ordering::Equal)
    }

    /// SQL three-valued comparison; `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_non_null(other))
    }

    /// Numeric view: ints and floats compare numerically across types.
    fn numeric(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
            Value::Date(_) => 4,
        }
    }

    fn cmp_non_null(&self, other: &Value) -> Ordering {
        if let (Some(a), Some(b)) = (self.numeric(), other.numeric()) {
            return a.partial_cmp(&b).unwrap_or(Ordering::Equal);
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.ordinal().cmp(&b.ordinal()),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    /// Render the value as it would appear inside a SQL literal.
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                // An integral float keeps its `.0` at every magnitude (`{}`
                // drops it), or the literal would read back as an integer.
                if f.fract() == 0.0 {
                    format!("{:.1}", f)
                } else {
                    format!("{}", f)
                }
            }
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Date(d) => format!("DATE '{}'", d),
        }
    }

    /// Best-effort textual rendering (used by full-text indexing and display).
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Text(s) => s.clone(),
            Value::Date(d) => d.to_string(),
        }
    }

    /// Attempt to parse `raw` into a value of `ty`.
    pub fn parse(raw: &str, ty: DataType) -> Option<Value> {
        let raw = raw.trim();
        if raw.is_empty() || raw.eq_ignore_ascii_case("null") {
            return Some(Value::Null);
        }
        match ty {
            DataType::Bool => match raw.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" | "yes" => Some(Value::Bool(true)),
                "false" | "f" | "0" | "no" => Some(Value::Bool(false)),
                _ => None,
            },
            DataType::Int => raw.parse::<i64>().ok().map(Value::Int),
            DataType::Float => raw.parse::<f64>().ok().map(Value::float),
            DataType::Text => Some(Value::Text(raw.to_string())),
            DataType::Date => {
                let mut parts = raw.splitn(3, '-');
                let year = parts.next()?.parse::<i32>().ok()?;
                let month = parts.next()?.parse::<u8>().ok()?;
                let day = parts.next()?.parse::<u8>().ok()?;
                Date::new(year, month, day).map(Value::Date)
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL first, then by type rank, then payload. Int/Float
    /// compare numerically so `Int(1) == Float(1.0)`.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            _ => {}
        }
        self.cmp_non_null(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash identically when numerically equal,
            // because they compare equal. Hash the f64 bit pattern of the
            // canonical numeric value.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            other => write!(f, "{}", other.render()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::Int(1), Value::Null, Value::Bool(true)];
        vs.sort();
        assert!(vs[0].is_null());
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
    }

    #[test]
    fn sql_eq_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn nan_becomes_null() {
        assert!(Value::float(f64::NAN).is_null());
    }

    #[test]
    fn date_ordering_and_display() {
        let a = Date::new(1999, 12, 31).unwrap();
        let b = Date::new(2000, 1, 1).unwrap();
        assert!(Value::Date(a) < Value::Date(b));
        assert_eq!(a.to_string(), "1999-12-31");
        assert!(Date::new(2000, 13, 1).is_none());
        assert!(Date::new(2000, 0, 1).is_none());
        assert!(Date::new(2000, 1, 32).is_none());
    }

    #[test]
    fn parse_round_trip() {
        assert_eq!(Value::parse("42", DataType::Int), Some(Value::Int(42)));
        assert_eq!(
            Value::parse("2001-09-11", DataType::Date),
            Some(Value::Date(Date::new(2001, 9, 11).unwrap()))
        );
        assert_eq!(Value::parse("yes", DataType::Bool), Some(Value::Bool(true)));
        assert_eq!(Value::parse("", DataType::Int), Some(Value::Null));
        assert_eq!(Value::parse("abc", DataType::Int), None);
    }

    #[test]
    fn sql_literal_escaping() {
        assert_eq!(Value::text("O'Hara").to_sql_literal(), "'O''Hara'");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Float(2.0).to_sql_literal(), "2.0");
        assert_eq!(Value::Float(1e17).to_sql_literal(), "100000000000000000.0");
    }
}
