//! SQL values and their comparison semantics.

use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
}

/// A borrowed view of one value: what a stored cell reads as, its text in
/// place. Expressions evaluate to it, so a filter, a sort key or a group key
/// never copies a row's text; only a `SELECT`'s output becomes
/// [`SqlValue`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CellRef<'a> {
    Null,
    Integer(i64),
    Real(f64),
    Text(&'a str),
}

impl CellRef<'_> {
    pub(crate) fn is_null(self) -> bool {
        matches!(self, CellRef::Null)
    }

    pub(crate) fn as_real(self) -> Option<f64> {
        match self {
            CellRef::Integer(i) => Some(i as f64),
            CellRef::Real(r) => Some(r),
            _ => None,
        }
    }

    /// See [`SqlValue::compare`].
    pub(crate) fn compare(self, other: CellRef<'_>) -> Option<Ordering> {
        use CellRef::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Integer(a), Integer(b)) => Some(a.cmp(&b)),
            (Integer(a), Real(b)) => (a as f64).partial_cmp(&b),
            (Real(a), Integer(b)) => a.partial_cmp(&(b as f64)),
            (Real(a), Real(b)) => a.partial_cmp(&b),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Integer(_) | Real(_), Text(_)) => Some(Ordering::Less),
            (Text(_), Integer(_) | Real(_)) => Some(Ordering::Greater),
        }
    }

    /// See [`SqlValue::total_cmp`].
    pub(crate) fn total_cmp(self, other: CellRef<'_>) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.compare(other).unwrap_or(Ordering::Equal),
        }
    }

    /// An owned copy.
    pub(crate) fn to_value(self) -> SqlValue {
        match self {
            CellRef::Null => SqlValue::Null,
            CellRef::Integer(i) => SqlValue::Integer(i),
            CellRef::Real(r) => SqlValue::Real(r),
            CellRef::Text(s) => SqlValue::Text(s.to_string()),
        }
    }
}

impl SqlValue {
    /// The value as a [`CellRef`], borrowing its text.
    pub(crate) fn cell(&self) -> CellRef<'_> {
        match self {
            SqlValue::Null => CellRef::Null,
            SqlValue::Integer(i) => CellRef::Integer(*i),
            SqlValue::Real(r) => CellRef::Real(*r),
            SqlValue::Text(s) => CellRef::Text(s),
        }
    }

    /// Text content, if the value is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            SqlValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content, accepting integral reals.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            SqlValue::Integer(i) => Some(*i),
            SqlValue::Real(r) if r.fract() == 0.0 => Some(*r as i64),
            _ => None,
        }
    }

    /// Numeric content as f64.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            SqlValue::Integer(i) => Some(*i as f64),
            SqlValue::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// `true` if NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    /// SQL three-valued comparison: `None` when either side is NULL,
    /// otherwise the ordering. Numbers compare numerically across
    /// integer/real; text compares lexicographically; cross-type comparisons
    /// order by type (numbers < text), matching SQLite's affinity-free
    /// fallback.
    pub fn compare(&self, other: &SqlValue) -> Option<Ordering> {
        self.cell().compare(other.cell())
    }

    /// A total ordering for ORDER BY and index keys: NULL sorts first.
    pub fn total_cmp(&self, other: &SqlValue) -> Ordering {
        self.cell().total_cmp(other.cell())
    }
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => f.write_str("NULL"),
            SqlValue::Integer(i) => write!(f, "{i}"),
            SqlValue::Real(r) => write!(f, "{r}"),
            SqlValue::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for SqlValue {
    fn from(v: i64) -> Self {
        SqlValue::Integer(v)
    }
}
impl From<f64> for SqlValue {
    fn from(v: f64) -> Self {
        SqlValue::Real(v)
    }
}
impl From<&str> for SqlValue {
    fn from(v: &str) -> Self {
        SqlValue::Text(v.to_string())
    }
}
impl From<String> for SqlValue {
    fn from(v: String) -> Self {
        SqlValue::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons() {
        assert_eq!(
            SqlValue::Integer(1).compare(&SqlValue::Integer(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            SqlValue::Integer(2).compare(&SqlValue::Real(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            SqlValue::Text("a".into()).compare(&SqlValue::Text("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(SqlValue::Null.compare(&SqlValue::Integer(1)), None);
        assert_eq!(
            SqlValue::Integer(9).compare(&SqlValue::Text("1".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_sorts_first_in_total_order() {
        assert_eq!(
            SqlValue::Null.total_cmp(&SqlValue::Integer(0)),
            Ordering::Less
        );
        assert_eq!(SqlValue::Null.total_cmp(&SqlValue::Null), Ordering::Equal);
    }

    #[test]
    fn accessors() {
        assert_eq!(SqlValue::Integer(5).as_integer(), Some(5));
        assert_eq!(SqlValue::Real(5.0).as_integer(), Some(5));
        assert_eq!(SqlValue::Real(5.5).as_integer(), None);
        assert_eq!(SqlValue::Text("x".into()).as_text(), Some("x"));
        assert_eq!(SqlValue::Integer(2).as_real(), Some(2.0));
    }
}
