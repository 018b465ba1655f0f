//! In-memory table storage with constraint enforcement.

use crate::ast::{ColType, ColumnDef};
use crate::error::Error;
use crate::value::SqlValue;
use std::hash::{DefaultHasher, Hash, Hasher};

/// A table: schema + row store + unique indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column definitions, in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Row-major storage.
    pub rows: Vec<Vec<SqlValue>>,
    /// One per column with a UNIQUE/PRIMARY KEY constraint.
    unique: Vec<UniqueIndex>,
}

/// What a unique index compares: values equal under `SqlValue::compare`
/// have equal keys (`f64` is not `Hash`, and an integral real is its
/// integer). NULL has none: NULLs never conflict.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Key<'a> {
    Int(i64),
    Real(u64),
    Text(&'a str),
}

fn key(v: &SqlValue) -> Option<Key<'_>> {
    match v {
        SqlValue::Null => None,
        SqlValue::Integer(i) => Some(Key::Int(*i)),
        SqlValue::Real(r) if r.fract() == 0.0 && r.abs() < 9.0e15 => Some(Key::Int(*r as i64)),
        SqlValue::Real(r) => Some(Key::Real(r.to_bits())),
        SqlValue::Text(s) => Some(Key::Text(s)),
    }
}

fn hash(k: &Key) -> u64 {
    #[cfg(test)]
    if tests::ONE_BUCKET.get() {
        return 0;
    }
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

/// A unique index over one column: open addressing with linear probing,
/// where a slot holds a row number plus one (0 is empty) and the key is that
/// row's own cell — the index keeps no copy of it. At most half the slots
/// are full, so every probe ends at an empty slot.
#[derive(Debug, Clone)]
struct UniqueIndex {
    col: usize,
    slots: Vec<u32>,
    len: usize,
}

impl UniqueIndex {
    fn new(col: usize) -> UniqueIndex {
        UniqueIndex {
            col,
            slots: Vec::new(),
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot where the probe for `k` starts.
    fn home(&self, k: &Key) -> usize {
        hash(k) as usize & self.mask()
    }

    /// The slot where the probe for row `row`'s cell starts.
    fn home_of(&self, rows: &[Vec<SqlValue>], row: usize) -> usize {
        self.home(&key(&rows[row][self.col]).expect("an indexed cell is not NULL"))
    }

    /// The row whose cell equals `v`.
    fn find(&self, rows: &[Vec<SqlValue>], v: &SqlValue) -> Option<usize> {
        let k = key(v)?;
        if self.len == 0 {
            return None;
        }
        let mut i = self.home(&k);
        loop {
            let row = (self.slots[i] as usize).checked_sub(1)?;
            if key(&rows[row][self.col]).as_ref() == Some(&k) {
                return Some(row);
            }
            i = (i + 1) & self.mask();
        }
    }

    /// Index row `row`, whose cell is not NULL and not held yet.
    fn insert(&mut self, rows: &[Vec<SqlValue>], row: usize) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.resize(rows, 2 * (self.len + 1));
        }
        self.place(rows, row);
        self.len += 1;
    }

    fn place(&mut self, rows: &[Vec<SqlValue>], row: usize) {
        let mut i = self.home_of(rows, row);
        while self.slots[i] != 0 {
            i = (i + 1) & self.mask();
        }
        self.slots[i] = u32::try_from(row + 1).expect("a table holds fewer than 2^32 - 1 rows");
    }

    /// Re-place every entry into at least `min_slots` slots.
    fn resize(&mut self, rows: &[Vec<SqlValue>], min_slots: usize) {
        let slots = min_slots.next_power_of_two().max(8);
        let old = std::mem::replace(&mut self.slots, vec![0; slots]);
        for s in old.into_iter().filter(|&s| s != 0) {
            self.place(rows, s as usize - 1);
        }
    }

    /// Drop row `row`'s entry, found through its cell as it is now, and
    /// shift the rest of its probe run back over the hole.
    fn remove(&mut self, rows: &[Vec<SqlValue>], row: usize) {
        let Some(k) = key(&rows[row][self.col]) else {
            return;
        };
        let mask = self.mask();
        let mut hole = self.home(&k);
        while self.slots[hole] as usize != row + 1 {
            if self.slots[hole] == 0 {
                debug_assert!(false, "row {row} is not indexed");
                return;
            }
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s == 0 {
                break;
            }
            // An entry may fill the hole unless its probe starts after it.
            let from_home = j.wrapping_sub(self.home_of(rows, s as usize - 1)) & mask;
            if from_home >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = 0;
        self.len -= 1;
    }

    /// Index every row again, failing on the first duplicate.
    fn rebuild(&mut self, rows: &[Vec<SqlValue>]) -> Result<(), usize> {
        self.slots.fill(0);
        self.len = 0;
        if self.slots.len() < 2 * rows.len() {
            self.resize(rows, 2 * rows.len());
        }
        for (row, cells) in rows.iter().enumerate() {
            if cells[self.col].is_null() {
                continue;
            }
            if self.find(rows, &cells[self.col]).is_some() {
                return Err(self.col);
            }
            self.insert(rows, row);
        }
        Ok(())
    }
}

impl Table {
    /// Create an empty table.
    pub fn new(name: String, columns: Vec<ColumnDef>) -> Table {
        let unique = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique || c.primary_key)
            .map(|(i, _)| UniqueIndex::new(i))
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

    /// Append a column (neither UNIQUE nor PRIMARY KEY), every existing row
    /// taking its default.
    pub fn add_column(&mut self, column: ColumnDef) {
        let fill = coerce(column.ty, column.default.clone().unwrap_or(SqlValue::Null));
        for row in &mut self.rows {
            // Not `push` alone: it would double every row's capacity.
            row.reserve_exact(1);
            row.push(fill.clone());
        }
        self.columns.push(column);
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
            *v = coerce(self.columns[i].ty, std::mem::replace(v, SqlValue::Null));
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
        let conflict = self
            .unique
            .iter()
            .find(|index| index.find(&self.rows, &row[index.col]).is_some());
        if let Some(index) = conflict {
            return Err(self.unique_violation(index.col));
        }
        self.rows.push(row);
        let at = self.rows.len() - 1;
        for index in &mut self.unique {
            if !self.rows[at][index.col].is_null() {
                index.insert(&self.rows, at);
            }
        }
        Ok(())
    }

    fn unique_violation(&self, col: usize) -> Error {
        Error::UniqueViolation {
            table: self.name.clone(),
            column: self.columns[col].name.clone(),
        }
    }

    /// Overwrite column `col` of row `row_idx` (constraint-checked by the
    /// caller through [`Table::rebuild_indexes`]); returns the old value.
    pub fn set(&mut self, row_idx: usize, col: usize, v: SqlValue) -> SqlValue {
        let v = coerce(self.columns[col].ty, v);
        std::mem::replace(&mut self.rows[row_idx][col], v)
    }

    /// Reverse an append: remove the last row and its unique-index entries.
    pub fn pop_row(&mut self) {
        let Some(last) = self.rows.len().checked_sub(1) else {
            return;
        };
        for index in &mut self.unique {
            index.remove(&self.rows, last);
        }
        self.rows.pop();
    }

    /// Reverse an overwrite: put `before` back into column `col` of row
    /// `row_idx`, moving the row's unique-index entry with it.
    pub fn restore_cell(&mut self, row_idx: usize, col: usize, before: SqlValue) {
        let index = self.unique.iter_mut().find(|index| index.col == col);
        if let Some(index) = index {
            index.remove(&self.rows, row_idx);
            self.rows[row_idx][col] = before;
            if !self.rows[row_idx][col].is_null() {
                index.insert(&self.rows, row_idx);
            }
        } else {
            self.rows[row_idx][col] = before;
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
        // A table emptied by a `DELETE` (the folded `examples` rows of a
        // migrated store) does not keep its old row capacity.
        if self.rows.capacity() > 4 * keep {
            self.rows.shrink_to(2 * keep);
        }
        self.rebuild_indexes()
            .expect("deleting rows cannot create conflicts");
    }

    /// Rebuild the unique indexes from the row store, failing on duplicates
    /// (used after UPDATE).
    pub fn rebuild_indexes(&mut self) -> Result<(), Error> {
        let rows = &self.rows;
        match self
            .unique
            .iter_mut()
            .find_map(|index| index.rebuild(rows).err())
        {
            Some(col) => Err(self.unique_violation(col)),
            None => Ok(()),
        }
    }

    /// Whether column `col` carries a unique index (usable for point
    /// lookups).
    pub fn lookup_unique_available(&self, col: usize) -> bool {
        self.unique.iter().any(|index| index.col == col)
    }

    /// Fast lookup of a row by a unique column's value.
    pub fn lookup_unique(&self, col: usize, v: &SqlValue) -> Option<usize> {
        self.unique
            .iter()
            .find(|index| index.col == col)
            .and_then(|index| index.find(&self.rows, v))
    }
}

/// Coerce a value to a column's declared type where loss-free (integer →
/// real for REAL columns, integral real → integer for INTEGER columns).
fn coerce(ty: ColType, v: SqlValue) -> SqlValue {
    match (ty, &v) {
        (ColType::Real, SqlValue::Integer(i)) => SqlValue::Real(*i as f64),
        (ColType::Integer, SqlValue::Real(r)) if r.fract() == 0.0 && r.abs() < 9.0e15 => {
            SqlValue::Integer(*r as i64)
        }
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use std::cell::Cell;
    use testkit::prop::{self, Config};
    use testkit::prop_assert_eq;
    use testkit::rng::Rng;

    thread_local! {
        /// Every key hashes to one slot: each probe walks one run.
        pub(super) static ONE_BUCKET: Cell<bool> = const { Cell::new(false) };
    }

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
        // Emptying a table gives its row capacity back.
        for i in 0..100 {
            t.insert(vec![format!("k{i}").into(), 0i64.into()]).unwrap();
        }
        t.delete_rows(&(0..t.rows.len()).collect::<Vec<_>>());
        assert_eq!(t.rows.capacity(), 0);
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

    /// Values that `SqlValue::compare` calls equal share a key; no others do.
    #[test]
    fn keys_collide_as_compare_says() {
        let same = [
            (SqlValue::Integer(3), SqlValue::Real(3.0)),
            (SqlValue::Integer(0), SqlValue::Real(-0.0)),
            (SqlValue::Text("3".into()), SqlValue::Text("3".into())),
        ];
        for (a, b) in &same {
            assert_eq!(key(a), key(b), "{a:?} {b:?}");
        }
        let apart = [
            (SqlValue::Integer(3), SqlValue::Text("3".into())),
            (SqlValue::Integer(3), SqlValue::Real(3.5)),
            (SqlValue::Text("a".into()), SqlValue::Text("A".into())),
        ];
        for (a, b) in &apart {
            assert_ne!(key(a), key(b), "{a:?} {b:?}");
        }
        assert_eq!(key(&SqlValue::Null), None);
    }

    fn text_key(rng: &mut Rng) -> String {
        format!("'k{}'", rng.gen_range(0..12i64))
    }

    fn int_key(rng: &mut Rng) -> String {
        let k = rng.gen_range(0..6i64);
        match rng.bounded(3) {
            0 => format!("{k}.0"),
            1 => "NULL".to_string(),
            _ => k.to_string(),
        }
    }

    /// One step on `t (k INTEGER PRIMARY KEY, s TEXT UNIQUE, v INTEGER,
    /// u TEXT UNIQUE)`.
    #[derive(Debug, Clone)]
    enum Step {
        Sql(String),
        /// Put `s` of a row back to `m<key>` (NULL for `None`) as an undo
        /// step does: the one path that drops an entry from the middle of
        /// a probe run.
        Restore {
            row: usize,
            key: Option<i64>,
        },
    }

    fn step(rng: &mut Rng) -> Step {
        let k = |rng: &mut Rng| rng.gen_range(0..6i64);
        Step::Sql(match rng.bounded(16) {
            0..=3 => format!(
                "INSERT INTO t VALUES ({}, {}, {})",
                rng.gen_range(0..12i64),
                text_key(rng),
                k(rng)
            ),
            4 => format!("INSERT INTO t (k, u) VALUES ({}, {})", k(rng), int_key(rng)),
            5 => format!("UPDATE t SET v = v + 1 WHERE k = {}", int_key(rng)),
            6 => format!("UPDATE t SET s = {} WHERE k = {}", text_key(rng), k(rng)),
            7 => format!("UPDATE t SET u = {} WHERE v < {}", int_key(rng), k(rng)),
            8 => format!("UPDATE t SET k = k + 1 WHERE v < {}", k(rng)),
            9 => format!("DELETE FROM t WHERE s = {}", text_key(rng)),
            10 => format!("DELETE FROM t WHERE v < {}", rng.gen_range(0..3i64)),
            11 => ["BEGIN", "ROLLBACK", "COMMIT"][rng.bounded(3) as usize].to_string(),
            _ => {
                return Step::Restore {
                    row: rng.gen_range(0..64usize),
                    key: rng.gen_bool(0.5).then(|| rng.gen_range(0..12i64)),
                }
            }
        })
    }

    fn probes() -> Vec<(usize, SqlValue)> {
        let mut probes = vec![(3, SqlValue::Null), (1, SqlValue::Integer(1))];
        for k in 0..13i64 {
            probes.push((0, SqlValue::Integer(k)));
            probes.push((0, SqlValue::Real(k as f64)));
            probes.push((0, SqlValue::Real(k as f64 + 0.5)));
            probes.push((1, SqlValue::Text(format!("k{k}"))));
            probes.push((1, SqlValue::Text(format!("m{k}"))));
            probes.push((3, SqlValue::Integer(k)));
            probes.push((3, SqlValue::Real(k as f64)));
            probes.push((3, SqlValue::Text(k.to_string())));
        }
        probes
    }

    fn scan(t: &Table, col: usize, v: &SqlValue) -> Vec<usize> {
        (0..t.rows.len())
            .filter(|&r| t.rows[r][col].compare(v) == Some(std::cmp::Ordering::Equal))
            .collect()
    }

    /// After every step of any mix of writes and rollbacks, an index probe
    /// finds exactly the row a scan comparing every cell finds.
    fn probe_equals_scan() {
        let strategy = prop::vec(prop::from_fn(step), 0..40);
        prop::check(&Config::cases(192), &strategy, |steps| {
            let mut db = Database::in_memory();
            db.execute(
                "CREATE TABLE t (k INTEGER PRIMARY KEY, s TEXT UNIQUE, v INTEGER, u TEXT UNIQUE)",
            )
            .unwrap();
            for (at, step) in steps.iter().enumerate() {
                match step {
                    Step::Sql(sql) => drop(db.execute(sql)),
                    Step::Restore { row, key } => {
                        let t = db.table_mut("t").unwrap();
                        let v = key.map_or(SqlValue::Null, |k| SqlValue::Text(format!("m{k}")));
                        if !t.rows.is_empty() && scan(t, 1, &v).is_empty() {
                            t.restore_cell(row % t.rows.len(), 1, v);
                        }
                    }
                }
                let t = db.table("t").unwrap();
                for (col, v) in probes() {
                    let probed: Vec<usize> = t.lookup_unique(col, &v).into_iter().collect();
                    let scanned = scan(t, col, &v);
                    prop_assert_eq!(probed, scanned, "step {}, column {}: {:?}", at, col, v);
                }
            }
            Ok(())
        });
    }

    #[test]
    fn a_unique_probe_finds_what_a_scan_finds() {
        probe_equals_scan();
    }

    #[test]
    fn a_unique_probe_finds_what_a_scan_finds_when_every_key_shares_a_slot() {
        ONE_BUCKET.set(true);
        probe_equals_scan();
    }
}
