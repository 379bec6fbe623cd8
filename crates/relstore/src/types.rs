//! SQL data types and runtime values.
//!
//! [`Datum`] is the single runtime value representation: typed scalars
//! plus SQL `NULL`. Three relations are defined over it, each with one
//! job:
//!
//! * [`Datum::sql_cmp`] is SQL comparison in predicate position: `NULL`
//!   compares as *unknown* (`None`), numeric types compare cross-type.
//! * [`Datum::sort_cmp`] — also `Datum`'s own `Ord`/`Eq` — is the total
//!   order of `ORDER BY` and of the B-tree index keys, where SQL treats
//!   NULLs as equal and orders them first.
//! * [`GroupKey`] is the typed, hashable, borrowing key under which
//!   `GROUP BY`, `DISTINCT`, `COUNT(DISTINCT …)` and hash joins decide
//!   that two values are the same one.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Declared column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (covers the paper's `int` columns).
    Int,
    /// 64-bit IEEE float (`real` in the paper's examples).
    Double,
    /// UTF-8 string (`string` / `varchar`).
    Text,
    /// Boolean.
    Bool,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Parse a type name as written in `CREATE TABLE`, accepting the
    /// common vendor spellings.
    pub fn parse(name: &str) -> Option<DataType> {
        Some(match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "NUMBER" => DataType::Int,
            "DOUBLE" | "REAL" | "FLOAT" | "DECIMAL" | "NUMERIC" => DataType::Double,
            "TEXT" | "VARCHAR" | "VARCHAR2" | "CHAR" | "STRING" | "CLOB" => DataType::Text,
            "BOOL" | "BOOLEAN" => DataType::Bool,
            "DATE" | "DATETIME" | "TIMESTAMP" => DataType::Date,
            _ => return None,
        })
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Double-precision float.
    Double(f64),
    /// String.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Date as days since the Unix epoch.
    Date(i32),
}

/// One stored or produced tuple.
pub type Row = Vec<Datum>;

impl Datum {
    /// The dynamic type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        Some(match self {
            Datum::Null => return None,
            Datum::Int(_) => DataType::Int,
            Datum::Double(_) => DataType::Double,
            Datum::Text(_) => DataType::Text,
            Datum::Bool(_) => DataType::Bool,
            Datum::Date(_) => DataType::Date,
        })
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Coerce into `target` if losslessly possible (Int→Double, and Text
    /// date literals → Date). Returns `None` when the coercion is not
    /// meaningful.
    pub fn coerce(&self, target: DataType) -> Option<Datum> {
        match (self, target) {
            (Datum::Null, _) => Some(Datum::Null),
            (Datum::Int(v), DataType::Double) => Some(Datum::Double(*v as f64)),
            (Datum::Int(v), DataType::Int) => Some(self.clone().tap_int(*v)),
            (Datum::Text(s), DataType::Date) => parse_date(s).map(Datum::Date),
            (d, t) if d.data_type() == Some(t) => Some(d.clone()),
            _ => None,
        }
    }

    fn tap_int(self, _v: i64) -> Datum {
        self
    }

    /// SQL comparison: `None` when either side is NULL or the types are
    /// incomparable; numeric types compare cross-type.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => None,
            (Datum::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (Datum::Double(a), Datum::Double(b)) => a.partial_cmp(b),
            (Datum::Int(a), Datum::Double(b)) => (*a as f64).partial_cmp(b),
            (Datum::Double(a), Datum::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Datum::Text(a), Datum::Text(b)) => Some(a.cmp(b)),
            (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
            (Datum::Date(a), Datum::Date(b)) => Some(a.cmp(b)),
            // A Text date literal compared against a Date column.
            (Datum::Text(a), Datum::Date(b)) => parse_date(a).map(|d| d.cmp(b)),
            (Datum::Date(a), Datum::Text(b)) => parse_date(b).map(|d| a.cmp(&d)),
            _ => None,
        }
    }

    /// Total order for sorting/grouping: NULLs first and equal to each
    /// other, then by type rank, then by value.
    pub fn sort_cmp(&self, other: &Datum) -> Ordering {
        fn rank(d: &Datum) -> u8 {
            match d {
                Datum::Null => 0,
                Datum::Bool(_) => 1,
                Datum::Int(_) | Datum::Double(_) => 2,
                Datum::Date(_) => 3,
                Datum::Text(_) => 4,
            }
        }
        match self.sql_cmp(other) {
            Some(ord) => ord,
            None => match (self.is_null(), other.is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => {
                    // Incomparable non-null types: order by rank for a
                    // stable, if arbitrary, total order.
                    let (ra, rb) = (rank(self), rank(other));
                    if ra != rb {
                        ra.cmp(&rb)
                    } else {
                        // NaN vs number lands here: order NaN last.
                        match (self, other) {
                            (Datum::Double(a), Datum::Double(b)) => a.is_nan().cmp(&b.is_nan()),
                            _ => Ordering::Equal,
                        }
                    }
                }
            },
        }
    }

    /// Equality under the grouping/sorting order (NULL == NULL).
    pub fn group_eq(&self, other: &Datum) -> bool {
        self.sort_cmp(other) == Ordering::Equal
    }
}

/// The hash key of one value in `GROUP BY`, `DISTINCT`, `COUNT(DISTINCT)`
/// and hash joins: typed, hashable, and borrowing `Text` from the datum
/// it was taken from.
///
/// Equal keys are the executor's definition of "the same value". `Int`
/// is exact; a `Double` that is integral and exactly an `i64` takes the
/// `Int` form, so `Int(1)` and `Double(1.0)` collide as they do under
/// [`Datum::sql_cmp`]; `-0.0` keys as `0`, and every NaN as one class.
/// `sql_cmp` itself compares a mixed `Int`/`Double` pair through `f64`
/// and so stops being transitive above 2^53 (`2^53 = 2^53 as f64 =
/// 2^53 + 1`); no key can follow it there, and this one follows the
/// exact integer, as two `Int`s compare everywhere else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey<'a> {
    /// SQL NULL (one class: NULLs group together).
    Null,
    /// Boolean.
    Bool(bool),
    /// An integer, or a double holding exactly that integer.
    Int(i64),
    /// Bits of a double that is not exactly an `i64` (NaN canonical).
    Double(u64),
    /// Date as days since the Unix epoch.
    Date(i32),
    /// String, borrowed where the datum outlives the key.
    Text(Cow<'a, str>),
}

impl<'a> GroupKey<'a> {
    /// The key of `d`, borrowing its text.
    pub fn of(d: &'a Datum) -> GroupKey<'a> {
        // -2^63 and 2^63 as doubles: the half-open range in which
        // `v as i64` is exact for an integral `v` (the cast saturates
        // outside it).
        const LO: f64 = -9_223_372_036_854_775_808.0;
        const HI: f64 = 9_223_372_036_854_775_808.0;
        match d {
            Datum::Null => GroupKey::Null,
            Datum::Bool(b) => GroupKey::Bool(*b),
            Datum::Int(v) => GroupKey::Int(*v),
            Datum::Double(v) if v.is_nan() => GroupKey::Double(f64::NAN.to_bits()),
            Datum::Double(v) if (LO..HI).contains(v) && v.trunc() == *v => GroupKey::Int(*v as i64),
            Datum::Double(v) => GroupKey::Double(v.to_bits()),
            Datum::Date(v) => GroupKey::Date(*v),
            Datum::Text(s) => GroupKey::Text(Cow::Borrowed(s)),
        }
    }

    /// The key of a possibly computed value, keeping a borrow when the
    /// value is one.
    pub fn of_cow(d: Cow<'a, Datum>) -> GroupKey<'a> {
        match d {
            Cow::Borrowed(d) => GroupKey::of(d),
            Cow::Owned(Datum::Text(s)) => GroupKey::Text(Cow::Owned(s)),
            Cow::Owned(other) => GroupKey::of(&other).into_owned(),
        }
    }

    /// The same key owning its text, for sets that outlive the datum.
    pub fn into_owned(self) -> GroupKey<'static> {
        match self {
            GroupKey::Text(s) => GroupKey::Text(Cow::Owned(s.into_owned())),
            GroupKey::Null => GroupKey::Null,
            GroupKey::Bool(b) => GroupKey::Bool(b),
            GroupKey::Int(v) => GroupKey::Int(v),
            GroupKey::Double(v) => GroupKey::Double(v),
            GroupKey::Date(v) => GroupKey::Date(v),
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Double(v) => write!(f, "{v}"),
            Datum::Text(s) => write!(f, "{s}"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Date(d) => write!(f, "{}", format_date(*d)),
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        self.group_eq(other)
    }
}

impl Eq for Datum {}

/// `Datum`'s own order is the total [`Datum::sort_cmp`] order — what
/// `ORDER BY` sorts by and what the B-tree indexes are keyed on, NULLs
/// first and equal to each other. Predicates never use it: SQL
/// comparison is [`Datum::sql_cmp`], where NULL is unknown.
impl Ord for Datum {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Index keys of one column share a type; decide those pairs
        // without the general comparison's NULL and coercion cases.
        match (self, other) {
            (Datum::Int(a), Datum::Int(b)) => a.cmp(b),
            (Datum::Text(a), Datum::Text(b)) => a.cmp(b),
            _ => self.sort_cmp(other),
        }
    }
}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

const DAYS_IN_MONTH: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

/// Parse `YYYY-MM-DD` into days since 1970-01-01.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.splitn(3, '-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: i64 = parts.next()?.parse().ok()?;
    let d: i64 = parts.next()?.parse().ok()?;
    if !(1..=12).contains(&m) {
        return None;
    }
    let max_d = DAYS_IN_MONTH[(m - 1) as usize] + i64::from(m == 2 && is_leap(y));
    if !(1..=max_d).contains(&d) {
        return None;
    }
    // Days from 1970-01-01 to the start of year y.
    let mut days: i64 = 0;
    if y >= 1970 {
        for year in 1970..y {
            days += 365 + i64::from(is_leap(year));
        }
    } else {
        for year in y..1970 {
            days -= 365 + i64::from(is_leap(year));
        }
    }
    for month in 1..m {
        days += DAYS_IN_MONTH[(month - 1) as usize] + i64::from(month == 2 && is_leap(y));
    }
    days += d - 1;
    i32::try_from(days).ok()
}

/// Format days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(mut days: i32) -> String {
    let mut y: i64 = 1970;
    loop {
        let len = 365 + i32::from(is_leap(y));
        if days >= len {
            days -= len;
            y += 1;
        } else if days < 0 {
            y -= 1;
            days += 365 + i32::from(is_leap(y));
        } else {
            break;
        }
    }
    let mut m = 1usize;
    loop {
        let len = (DAYS_IN_MONTH[m - 1] + i64::from(m == 2 && is_leap(y))) as i32;
        if days >= len {
            days -= len;
            m += 1;
        } else {
            break;
        }
    }
    format!("{y:04}-{:02}-{:02}", m, days + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip_known_values() {
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-02-01"), Some(31));
        assert_eq!(parse_date("1971-01-01"), Some(365));
        assert_eq!(parse_date("1972-03-01"), Some(365 * 2 + 31 + 29)); // leap
        assert_eq!(parse_date("1969-12-31"), Some(-1));
        for s in ["1999-06-15", "2026-07-05", "1960-02-29", "2000-02-29"] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s, "roundtrip {s}");
        }
    }

    #[test]
    fn date_rejects_invalid() {
        assert_eq!(parse_date("1999-13-01"), None);
        assert_eq!(parse_date("1999-02-29"), None); // not a leap year
        assert_eq!(parse_date("1999-06-31"), None);
        assert_eq!(parse_date("junk"), None);
        assert_eq!(parse_date("1999-06"), None);
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), None);
        assert_eq!(Datum::Null.sql_cmp(&Datum::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Datum::Double(1.5).sql_cmp(&Datum::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn text_date_comparison() {
        let d = Datum::Date(parse_date("1999-06-15").unwrap());
        assert_eq!(
            Datum::Text("1999-06-15".into()).sql_cmp(&d),
            Some(Ordering::Equal)
        );
        assert_eq!(
            d.sql_cmp(&Datum::Text("2000-01-01".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sort_order_nulls_first_and_equal() {
        assert_eq!(Datum::Null.sort_cmp(&Datum::Null), Ordering::Equal);
        assert_eq!(Datum::Null.sort_cmp(&Datum::Int(0)), Ordering::Less);
        assert_eq!(Datum::Int(0).sort_cmp(&Datum::Null), Ordering::Greater);
    }

    #[test]
    fn group_keys_collide_exactly_when_equal() {
        const BIG: i64 = 1 << 53;
        let cases = [
            (Datum::Int(1), Datum::Double(1.0), true),
            (Datum::Int(1), Datum::Int(2), false),
            (Datum::Null, Datum::Null, true),
            (Datum::Text("a".into()), Datum::Text("a".into()), true),
            (Datum::Text("a".into()), Datum::Text("b".into()), false),
            (Datum::Bool(true), Datum::Bool(true), true),
            // Exact above 2^53, where an f64 cannot tell neighbours apart.
            (Datum::Int(BIG), Datum::Int(BIG + 1), false),
            (Datum::Int(BIG), Datum::Double(BIG as f64), true),
            (Datum::Double(0.0), Datum::Double(-0.0), true),
            (Datum::Double(-0.0), Datum::Int(0), true),
            (Datum::Double(1.5), Datum::Double(1.5), true),
            (Datum::Double(1.5), Datum::Int(1), false),
        ];
        for (a, b, expect_equal) in cases {
            assert_eq!(
                GroupKey::of(&a) == GroupKey::of(&b),
                expect_equal,
                "{a:?} vs {b:?}"
            );
            assert_eq!(a.group_eq(&b), expect_equal);
        }
        // Every NaN is one class; the 2^63 boundary does not saturate
        // into i64::MAX.
        let nan = GroupKey::of(&Datum::Double(f64::NAN));
        assert_eq!(nan, GroupKey::of(&Datum::Double(-f64::NAN)));
        assert_ne!(
            GroupKey::of(&Datum::Double(9_223_372_036_854_775_808.0)),
            GroupKey::of(&Datum::Int(i64::MAX))
        );
        // A computed text value keys like a stored one.
        let stored = Datum::Text("ward".into());
        assert_eq!(
            GroupKey::of_cow(Cow::Owned(Datum::Text("ward".into()))),
            GroupKey::of(&stored)
        );
        assert_eq!(GroupKey::of(&stored).into_owned(), GroupKey::of(&stored));
    }

    #[test]
    fn coercion() {
        assert_eq!(
            Datum::Int(3).coerce(DataType::Double),
            Some(Datum::Double(3.0))
        );
        assert_eq!(Datum::Null.coerce(DataType::Int), Some(Datum::Null));
        assert_eq!(Datum::Text("x".into()).coerce(DataType::Int), None);
        assert_eq!(
            Datum::Text("1999-01-01".into()).coerce(DataType::Date),
            Some(Datum::Date(parse_date("1999-01-01").unwrap()))
        );
    }

    #[test]
    fn type_parsing_accepts_vendor_spellings() {
        assert_eq!(DataType::parse("VARCHAR2"), Some(DataType::Text));
        assert_eq!(DataType::parse("number"), Some(DataType::Int));
        assert_eq!(DataType::parse("real"), Some(DataType::Double));
        assert_eq!(DataType::parse("blob"), None);
    }
}
