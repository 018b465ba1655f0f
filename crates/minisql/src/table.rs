//! In-memory table storage with constraint enforcement.

use crate::ast::{ColType, ColumnDef};
use crate::error::Error;
use crate::value::SqlValue;
use std::collections::HashMap;

/// A table: schema + row store + unique indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column definitions, in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Row-major storage.
    pub rows: Vec<Vec<SqlValue>>,
    /// For each column with a UNIQUE/PRIMARY KEY constraint: `(column index,
    /// key → row index)`.
    unique: Vec<(usize, HashMap<String, usize>)>,
}

/// Encode a value as a hashable index key (`f64` is not `Hash`).
fn index_key(v: &SqlValue) -> String {
    match v {
        SqlValue::Null => "n".to_string(),
        SqlValue::Integer(i) => format!("i{i}"),
        SqlValue::Real(r) => {
            if r.fract() == 0.0 && r.abs() < 9.0e15 {
                // Integral reals collide with the equal integer, matching
                // `SqlValue::compare` equality.
                format!("i{}", *r as i64)
            } else {
                format!("r{}", r.to_bits())
            }
        }
        SqlValue::Text(s) => format!("t{s}"),
    }
}

impl Table {
    /// Create an empty table.
    pub fn new(name: String, columns: Vec<ColumnDef>) -> Table {
        let unique = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique || c.primary_key)
            .map(|(i, _)| (i, HashMap::new()))
            .collect();
        Table {
            name,
            columns,
            rows: Vec::new(),
            unique,
        }
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Result<usize, Error> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::NoSuchColumn(name.to_string()))
    }

    /// Coerce a value to the column's declared type where loss-free (integer
    /// → real for REAL columns, integral real → integer for INTEGER columns).
    fn coerce(&self, col: usize, v: SqlValue) -> SqlValue {
        match (self.columns[col].ty, &v) {
            (ColType::Real, SqlValue::Integer(i)) => SqlValue::Real(*i as f64),
            (ColType::Integer, SqlValue::Real(r)) if r.fract() == 0.0 && r.abs() < 9.0e15 => {
                SqlValue::Integer(*r as i64)
            }
            _ => v,
        }
    }

    /// Append a row, coerced to the column types, unless it breaks a NOT
    /// NULL or unique constraint.
    pub fn insert(&mut self, mut row: Vec<SqlValue>) -> Result<(), Error> {
        if row.len() != self.columns.len() {
            return Err(Error::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (i, v) in row.iter_mut().enumerate() {
            *v = self.coerce(i, std::mem::replace(v, SqlValue::Null));
        }
        let null = self
            .columns
            .iter()
            .zip(&row)
            .find(|(c, v)| c.not_null && v.is_null());
        if let Some((col, _)) = null {
            return Err(Error::NotNullViolation {
                table: self.name.clone(),
                column: col.name.clone(),
            });
        }
        // NULLs never conflict (SQL semantics).
        let conflict = self
            .unique
            .iter()
            .find(|(c, index)| !row[*c].is_null() && index.contains_key(&index_key(&row[*c])));
        if let Some((c, _)) = conflict {
            return Err(Error::UniqueViolation {
                table: self.name.clone(),
                column: self.columns[*c].name.clone(),
            });
        }
        let idx = self.rows.len();
        for (col_idx, index) in &mut self.unique {
            if !row[*col_idx].is_null() {
                index.insert(index_key(&row[*col_idx]), idx);
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Overwrite column `col` of row `row_idx` (constraint-checked by the
    /// caller through [`Table::rebuild_indexes`]); returns the old value.
    pub fn set(&mut self, row_idx: usize, col: usize, v: SqlValue) -> SqlValue {
        let v = self.coerce(col, v);
        std::mem::replace(&mut self.rows[row_idx][col], v)
    }

    /// Reverse an append: remove the last row and its unique-index entries.
    pub fn pop_row(&mut self) {
        let Some(row) = self.rows.pop() else { return };
        for (col_idx, index) in &mut self.unique {
            index.remove(&index_key(&row[*col_idx]));
        }
    }

    /// Reverse an overwrite: put `before` back into column `col` of row
    /// `row_idx`, moving the row's unique-index entry with it.
    pub fn restore_cell(&mut self, row_idx: usize, col: usize, before: SqlValue) {
        let now = std::mem::replace(&mut self.rows[row_idx][col], before);
        let before = &self.rows[row_idx][col];
        if let Some((_, index)) = self.unique.iter_mut().find(|(c, _)| *c == col) {
            index.remove(&index_key(&now));
            if !before.is_null() {
                index.insert(index_key(before), row_idx);
            }
        }
    }

    /// Delete the rows at the given (sorted, deduplicated) indices.
    pub fn delete_rows(&mut self, indices: &[usize]) {
        let mut keep = 0usize;
        let mut del_iter = indices.iter().peekable();
        for i in 0..self.rows.len() {
            if del_iter.peek() == Some(&&i) {
                del_iter.next();
                continue;
            }
            self.rows.swap(keep, i);
            keep += 1;
        }
        self.rows.truncate(keep);
        self.rebuild_indexes()
            .expect("deleting rows cannot create conflicts");
    }

    /// Rebuild the unique indexes from the row store, failing on duplicates
    /// (used after UPDATE).
    pub fn rebuild_indexes(&mut self) -> Result<(), Error> {
        for (col_idx, index) in &mut self.unique {
            index.clear();
            for (row_idx, row) in self.rows.iter().enumerate() {
                if row[*col_idx].is_null() {
                    continue;
                }
                if index.insert(index_key(&row[*col_idx]), row_idx).is_some() {
                    return Err(Error::UniqueViolation {
                        table: self.name.clone(),
                        column: self.columns[*col_idx].name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether column `col` carries a unique index (usable for point
    /// lookups).
    pub fn lookup_unique_available(&self, col: usize) -> bool {
        self.unique.iter().any(|(c, _)| *c == col)
    }

    /// Fast lookup of a row by a unique column's value.
    pub fn lookup_unique(&self, col: usize, v: &SqlValue) -> Option<usize> {
        self.unique
            .iter()
            .find(|(c, _)| *c == col)
            .and_then(|(_, index)| index.get(&index_key(v)).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef {
                name: "id".into(),
                ty: ColType::Text,
                primary_key: true,
                not_null: true,
                unique: true,
                default: None,
            },
            ColumnDef {
                name: "n".into(),
                ty: ColType::Integer,
                primary_key: false,
                not_null: false,
                unique: false,
                default: None,
            },
        ]
    }

    #[test]
    fn insert_and_unique_violation() {
        let mut t = Table::new("t".into(), cols());
        t.insert(vec!["a".into(), 1i64.into()]).unwrap();
        let err = t.insert(vec!["a".into(), 2i64.into()]).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = Table::new("t".into(), cols());
        let err = t.insert(vec![SqlValue::Null, 1i64.into()]).unwrap_err();
        assert!(matches!(err, Error::NotNullViolation { .. }));
    }

    #[test]
    fn delete_keeps_index_consistent() {
        let mut t = Table::new("t".into(), cols());
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            t.insert(vec![(*id).into(), (i as i64).into()]).unwrap();
        }
        t.delete_rows(&[1]);
        assert_eq!(t.rows.len(), 2);
        // `b` can be reinserted; `a` still conflicts.
        t.insert(vec!["b".into(), 9i64.into()]).unwrap();
        assert!(t.insert(vec!["a".into(), 9i64.into()]).is_err());
    }

    #[test]
    fn coercion() {
        let mut t = Table::new("t".into(), cols());
        t.insert(vec!["a".into(), SqlValue::Real(3.0)]).unwrap();
        assert_eq!(t.rows[0][1], SqlValue::Integer(3));
    }

    #[test]
    fn lookup_unique() {
        let mut t = Table::new("t".into(), cols());
        t.insert(vec!["a".into(), 1i64.into()]).unwrap();
        t.insert(vec!["b".into(), 2i64.into()]).unwrap();
        assert_eq!(t.lookup_unique(0, &"b".into()), Some(1));
        assert_eq!(t.lookup_unique(0, &"zz".into()), None);
        assert_eq!(t.lookup_unique(1, &1i64.into()), None); // not unique
    }
}
