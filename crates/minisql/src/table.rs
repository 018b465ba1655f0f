//! In-memory table storage with constraint enforcement.
//!
//! A row is one packed record, a `Box<[u8]>`: a tag byte per column, then
//! the payloads of its cells in column order. An INTEGER or a REAL is 8
//! little-endian bytes, a TEXT its `u32` byte length and its UTF-8 bytes, a
//! NULL nothing. Reads borrow from the record ([`CellRef`]). An update that
//! puts a number where a number was rewrites those 8 bytes in place; any
//! other change of a cell re-encodes its record once.

use crate::ast::{ColType, ColumnDef};
use crate::error::Error;
use crate::value::{CellRef, SqlValue};
use std::hash::{DefaultHasher, Hash, Hasher};

const NULL: u8 = 0;
const INTEGER: u8 = 1;
const REAL: u8 = 2;
const TEXT: u8 = 3;

fn tag(v: CellRef<'_>) -> u8 {
    match v {
        CellRef::Null => NULL,
        CellRef::Integer(_) => INTEGER,
        CellRef::Real(_) => REAL,
        CellRef::Text(_) => TEXT,
    }
}

/// The 8 payload bytes of a number.
fn word(v: CellRef<'_>) -> Option<[u8; 8]> {
    match v {
        CellRef::Integer(i) => Some(i.to_le_bytes()),
        CellRef::Real(r) => Some(r.to_bits().to_le_bytes()),
        _ => None,
    }
}

/// Refuse what a cell cannot hold, or what its SQL literal could not
/// bring back from the WAL or the snapshot: a NaN or infinite REAL, a text
/// longer than a record's `u32` length.
pub(crate) fn storable(v: CellRef<'_>) -> Result<(), Error> {
    match v {
        CellRef::Real(r) if !r.is_finite() => Err(Error::Type(format!("REAL {r} is not finite"))),
        CellRef::Text(s) if u32::try_from(s.len()).is_err() => Err(Error::Type(format!(
            "TEXT of {} bytes is longer than a cell holds",
            s.len()
        ))),
        _ => Ok(()),
    }
}

/// How many bytes `v`'s payload takes.
fn payload_len(v: CellRef<'_>) -> usize {
    match v {
        CellRef::Null => 0,
        CellRef::Integer(_) | CellRef::Real(_) => 8,
        CellRef::Text(s) => 4 + s.len(),
    }
}

fn push_payload(out: &mut Vec<u8>, v: CellRef<'_>) {
    if let Some(word) = word(v) {
        out.extend_from_slice(&word);
    } else if let CellRef::Text(s) = v {
        let len = u32::try_from(s.len()).expect("storable text fits a u32 length");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
}

/// One record holding `cells`, in one allocation of its exact size.
fn encode(cells: &[CellRef<'_>]) -> Box<[u8]> {
    let len = cells.len() + cells.iter().map(|&v| payload_len(v)).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend(cells.iter().map(|&v| tag(v)));
    for &v in cells {
        push_payload(&mut out, v);
    }
    out.into_boxed_slice()
}

/// The byte length of the text whose payload starts at `rec[at..]`.
fn text_len(rec: &[u8], at: usize) -> usize {
    u32::from_le_bytes(rec[at..at + 4].try_into().expect("4 bytes")) as usize
}

/// The cell tagged `tag` whose payload starts at `rec[at..]`.
fn decode(rec: &[u8], tag: u8, at: usize) -> CellRef<'_> {
    let word = |at: usize| <[u8; 8]>::try_from(&rec[at..at + 8]).expect("8 bytes");
    match tag {
        NULL => CellRef::Null,
        INTEGER => CellRef::Integer(i64::from_le_bytes(word(at))),
        REAL => CellRef::Real(f64::from_bits(u64::from_le_bytes(word(at)))),
        _ => {
            let text = std::str::from_utf8(&rec[at + 4..at + 4 + text_len(rec, at)]);
            CellRef::Text(text.expect("a record holds UTF-8 text"))
        }
    }
}

/// The cells of a record `width` columns wide, in column order.
fn cells(rec: &[u8], width: usize) -> impl Iterator<Item = CellRef<'_>> {
    let mut at = width;
    rec[..width].iter().map(move |&tag| {
        let v = decode(rec, tag, at);
        at += payload_len(v);
        v
    })
}

/// Where cell `col`'s payload starts: past the payloads before it, whose
/// text is skipped by its length, not read.
fn offset(rec: &[u8], width: usize, col: usize) -> usize {
    let mut at = width;
    for &tag in &rec[..col] {
        at += match tag {
            NULL => 0,
            INTEGER | REAL => 8,
            _ => 4 + text_len(rec, at),
        };
    }
    at
}

/// The record with cell `col`, whose payload is `rec[at..end]`, replaced
/// by `v`.
fn splice(rec: &[u8], col: usize, at: usize, end: usize, v: CellRef<'_>) -> Box<[u8]> {
    let mut out = Vec::with_capacity(rec.len() - (end - at) + payload_len(v));
    out.extend_from_slice(&rec[..col]);
    out.push(tag(v));
    out.extend_from_slice(&rec[col + 1..at]);
    push_payload(&mut out, v);
    out.extend_from_slice(&rec[end..]);
    out.into_boxed_slice()
}

/// The row store: one record per row, each `width` cells.
#[derive(Debug, Clone)]
struct Rows {
    width: usize,
    records: Vec<Box<[u8]>>,
}

impl Rows {
    fn cell(&self, row: usize, col: usize) -> CellRef<'_> {
        let rec = &self.records[row];
        decode(rec, rec[col], offset(rec, self.width, col))
    }
}

/// A table: schema + row store + unique indexes.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    pub(crate) name: String,
    /// Column definitions, in declaration order.
    pub(crate) columns: Vec<ColumnDef>,
    rows: Rows,
    /// One per column with a UNIQUE/PRIMARY KEY constraint.
    unique: Vec<UniqueIndex>,
}

/// What a unique index or a `GROUP BY` compares: values equal under
/// `SqlValue::compare` have equal keys (`f64` is not `Hash`, and an
/// integral real is its integer). NULL has none: NULLs never conflict.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) enum Key<'a> {
    Int(i64),
    Real(u64),
    Text(&'a str),
}

pub(crate) fn key(v: CellRef<'_>) -> Option<Key<'_>> {
    match v {
        CellRef::Null => None,
        CellRef::Integer(i) => Some(Key::Int(i)),
        CellRef::Real(r) if r.fract() == 0.0 && r.abs() < 9.0e15 => Some(Key::Int(r as i64)),
        CellRef::Real(r) => Some(Key::Real(r.to_bits())),
        CellRef::Text(s) => Some(Key::Text(s)),
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
    fn home_of(&self, rows: &Rows, row: usize) -> usize {
        self.home(&key(rows.cell(row, self.col)).expect("an indexed cell is not NULL"))
    }

    /// The row whose cell equals `v`.
    fn find(&self, rows: &Rows, v: CellRef<'_>) -> Option<usize> {
        let k = key(v)?;
        if self.len == 0 {
            return None;
        }
        let mut i = self.home(&k);
        loop {
            let row = (self.slots[i] as usize).checked_sub(1)?;
            if key(rows.cell(row, self.col)).as_ref() == Some(&k) {
                return Some(row);
            }
            i = (i + 1) & self.mask();
        }
    }

    /// Index row `row`, whose cell is not NULL and not held yet.
    fn insert(&mut self, rows: &Rows, row: usize) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.resize(rows, 2 * (self.len + 1));
        }
        self.place(rows, row);
        self.len += 1;
    }

    fn place(&mut self, rows: &Rows, row: usize) {
        let mut i = self.home_of(rows, row);
        while self.slots[i] != 0 {
            i = (i + 1) & self.mask();
        }
        self.slots[i] = u32::try_from(row + 1).expect("a table holds fewer than 2^32 - 1 rows");
    }

    /// Re-place every entry into at least `min_slots` slots.
    fn resize(&mut self, rows: &Rows, min_slots: usize) {
        let slots = min_slots.next_power_of_two().max(8);
        let old = std::mem::replace(&mut self.slots, vec![0; slots]);
        for s in old.into_iter().filter(|&s| s != 0) {
            self.place(rows, s as usize - 1);
        }
    }

    /// Drop row `row`'s entry, found through its cell as it is now, and
    /// shift the rest of its probe run back over the hole.
    fn remove(&mut self, rows: &Rows, row: usize) {
        let Some(k) = key(rows.cell(row, self.col)) else {
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
    fn rebuild(&mut self, rows: &Rows) -> Result<(), usize> {
        self.slots.fill(0);
        self.len = 0;
        let n = rows.records.len();
        if self.slots.len() < 2 * n {
            self.resize(rows, 2 * n);
        }
        for row in 0..n {
            let v = rows.cell(row, self.col);
            if v.is_null() {
                continue;
            }
            if self.find(rows, v).is_some() {
                return Err(self.col);
            }
            self.insert(rows, row);
        }
        Ok(())
    }
}

impl Table {
    /// Create an empty table.
    pub(crate) fn new(name: String, columns: Vec<ColumnDef>) -> Table {
        let unique = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique || c.primary_key)
            .map(|(i, _)| UniqueIndex::new(i))
            .collect();
        Table {
            name,
            rows: Rows {
                width: columns.len(),
                records: Vec::new(),
            },
            columns,
            unique,
        }
    }

    /// Index of a column by case-insensitive name.
    pub(crate) fn column_index(&self, name: &str) -> Result<usize, Error> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::NoSuchColumn(name.to_string()))
    }

    /// The number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.records.len()
    }

    /// Column `col` of row `row`.
    pub(crate) fn cell(&self, row: usize, col: usize) -> CellRef<'_> {
        self.rows.cell(row, col)
    }

    /// The cells of row `row`, in column order.
    pub(crate) fn row(&self, row: usize) -> impl Iterator<Item = CellRef<'_>> {
        cells(&self.rows.records[row], self.rows.width)
    }

    /// Append a column (neither UNIQUE nor PRIMARY KEY), every existing row
    /// taking its default: each record is re-encoded once.
    pub(crate) fn add_column(&mut self, column: ColumnDef) {
        let fill = column
            .default
            .as_ref()
            .map_or(CellRef::Null, SqlValue::cell);
        let fill = coerce(column.ty, fill);
        let width = self.rows.width;
        for rec in &mut self.rows.records {
            let mut out = Vec::with_capacity(rec.len() + 1 + payload_len(fill));
            out.extend_from_slice(&rec[..width]);
            out.push(tag(fill));
            out.extend_from_slice(&rec[width..]);
            push_payload(&mut out, fill);
            *rec = out.into_boxed_slice();
        }
        self.rows.width += 1;
        self.columns.push(column);
    }

    /// Append a row: column `targets[i]` takes `values[i]`, every other
    /// column its default, each coerced to its column's type. Refused, and
    /// nothing appended, when a value cannot be stored or the row breaks a
    /// NOT NULL or unique constraint.
    pub(crate) fn insert(
        &mut self,
        targets: &[usize],
        values: &[CellRef<'_>],
    ) -> Result<(), Error> {
        let mut row: Vec<CellRef<'_>> = self
            .columns
            .iter()
            .map(|c| c.default.as_ref().map_or(CellRef::Null, SqlValue::cell))
            .collect();
        for (&col, &v) in targets.iter().zip(values) {
            row[col] = v;
        }
        for (v, c) in row.iter_mut().zip(&self.columns) {
            *v = coerce(c.ty, *v);
            storable(*v)?;
            if c.not_null && v.is_null() {
                return Err(Error::NotNullViolation {
                    table: self.name.clone(),
                    column: c.name.clone(),
                });
            }
        }
        let conflict = self
            .unique
            .iter()
            .find(|index| index.find(&self.rows, row[index.col]).is_some());
        if let Some(index) = conflict {
            return Err(self.unique_violation(index.col));
        }
        let rec = encode(&row);
        self.rows.records.push(rec);
        let at = self.len() - 1;
        for index in &mut self.unique {
            if !self.rows.cell(at, index.col).is_null() {
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

    /// Overwrite column `col` of row `row` with `v`, which [`storable`]
    /// accepted (constraint-checked by the caller through
    /// [`Table::rebuild_indexes`]); returns the old value. A number over a
    /// number is written in place; anything else re-encodes the record.
    pub(crate) fn set(&mut self, row: usize, col: usize, v: CellRef<'_>) -> SqlValue {
        let v = coerce(self.columns[col].ty, v);
        let rec = &mut self.rows.records[row];
        let at = offset(rec, self.rows.width, col);
        let old = decode(rec, rec[col], at);
        let end = at + payload_len(old);
        let before = old.to_value();
        match (word(v), old) {
            (Some(word), CellRef::Integer(_) | CellRef::Real(_)) => {
                rec[col] = tag(v);
                rec[at..end].copy_from_slice(&word);
            }
            (None, CellRef::Null) if v.is_null() => {}
            _ => *rec = splice(rec, col, at, end, v),
        }
        before
    }

    /// Reverse an append: remove the last row and its unique-index entries.
    pub(crate) fn pop_row(&mut self) {
        let Some(last) = self.len().checked_sub(1) else {
            return;
        };
        for index in &mut self.unique {
            index.remove(&self.rows, last);
        }
        self.rows.records.pop();
    }

    /// Reverse an overwrite: put `before` back into column `col` of row
    /// `row`, moving the row's unique-index entry with it.
    pub(crate) fn restore_cell(&mut self, row: usize, col: usize, before: SqlValue) {
        match self.unique.iter().position(|index| index.col == col) {
            Some(i) => {
                self.unique[i].remove(&self.rows, row);
                self.set(row, col, before.cell());
                if !before.is_null() {
                    self.unique[i].insert(&self.rows, row);
                }
            }
            None => {
                self.set(row, col, before.cell());
            }
        }
    }

    /// Delete the rows at the given (sorted, deduplicated) indices; the
    /// rest keep their order.
    pub(crate) fn delete_rows(&mut self, indices: &[usize]) {
        let records = &mut self.rows.records;
        let mut keep = 0usize;
        let mut del_iter = indices.iter().peekable();
        for i in 0..records.len() {
            if del_iter.peek() == Some(&&i) {
                del_iter.next();
                continue;
            }
            records.swap(keep, i);
            keep += 1;
        }
        records.truncate(keep);
        // A table emptied by a `DELETE` (the folded `examples` rows of a
        // migrated store) does not keep its old row capacity.
        if records.capacity() > 4 * keep {
            records.shrink_to(2 * keep);
        }
        self.rebuild_indexes()
            .expect("deleting rows cannot create conflicts");
    }

    /// Rebuild the unique indexes from the row store, failing on duplicates
    /// (used after UPDATE).
    pub(crate) fn rebuild_indexes(&mut self) -> Result<(), Error> {
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
    pub(crate) fn lookup_unique_available(&self, col: usize) -> bool {
        self.unique.iter().any(|index| index.col == col)
    }

    /// Fast lookup of a row by a unique column's value.
    pub(crate) fn lookup_unique(&self, col: usize, v: CellRef<'_>) -> Option<usize> {
        self.unique
            .iter()
            .find(|index| index.col == col)
            .and_then(|index| index.find(&self.rows, v))
    }
}

/// Coerce a value to a column's declared type where loss-free (integer →
/// real for REAL columns, integral real → integer for INTEGER columns).
fn coerce(ty: ColType, v: CellRef<'_>) -> CellRef<'_> {
    match (ty, v) {
        (ColType::Real, CellRef::Integer(i)) => CellRef::Real(i as f64),
        (ColType::Integer, CellRef::Real(r)) if r.fract() == 0.0 && r.abs() < 9.0e15 => {
            CellRef::Integer(r as i64)
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
    use testkit::rng::Rng;
    use testkit::{prop_assert, prop_assert_eq};

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

    /// Append a whole row.
    fn insert(t: &mut Table, row: &[SqlValue]) -> Result<(), Error> {
        let cells: Vec<CellRef> = row.iter().map(SqlValue::cell).collect();
        t.insert(&[0, 1], &cells)
    }

    #[test]
    fn insert_and_unique_violation() {
        let mut t = Table::new("t".into(), cols());
        insert(&mut t, &["a".into(), 1i64.into()]).unwrap();
        let err = insert(&mut t, &["a".into(), 2i64.into()]).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = Table::new("t".into(), cols());
        let err = insert(&mut t, &[SqlValue::Null, 1i64.into()]).unwrap_err();
        assert!(matches!(err, Error::NotNullViolation { .. }));
    }

    #[test]
    fn delete_keeps_index_consistent() {
        let mut t = Table::new("t".into(), cols());
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            insert(&mut t, &[(*id).into(), (i as i64).into()]).unwrap();
        }
        t.delete_rows(&[1]);
        assert_eq!(t.len(), 2);
        // `b` can be reinserted; `a` still conflicts.
        insert(&mut t, &["b".into(), 9i64.into()]).unwrap();
        assert!(insert(&mut t, &["a".into(), 9i64.into()]).is_err());
        // Emptying a table gives its row capacity back.
        for i in 0..100 {
            insert(&mut t, &[format!("k{i}").into(), 0i64.into()]).unwrap();
        }
        t.delete_rows(&(0..t.len()).collect::<Vec<_>>());
        assert_eq!(t.rows.records.capacity(), 0);
    }

    #[test]
    fn coercion() {
        let mut t = Table::new("t".into(), cols());
        insert(&mut t, &["a".into(), SqlValue::Real(3.0)]).unwrap();
        assert_eq!(t.cell(0, 1), CellRef::Integer(3));
    }

    #[test]
    fn lookup_unique() {
        let mut t = Table::new("t".into(), cols());
        insert(&mut t, &["a".into(), 1i64.into()]).unwrap();
        insert(&mut t, &["b".into(), 2i64.into()]).unwrap();
        assert_eq!(t.lookup_unique(0, CellRef::Text("b")), Some(1));
        assert_eq!(t.lookup_unique(0, CellRef::Text("zz")), None);
        assert_eq!(t.lookup_unique(1, CellRef::Integer(1)), None); // not unique
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
            assert_eq!(key(a.cell()), key(b.cell()), "{a:?} {b:?}");
        }
        let apart = [
            (SqlValue::Integer(3), SqlValue::Text("3".into())),
            (SqlValue::Integer(3), SqlValue::Real(3.5)),
            (SqlValue::Text("a".into()), SqlValue::Text("A".into())),
        ];
        for (a, b) in &apart {
            assert_ne!(key(a.cell()), key(b.cell()), "{a:?} {b:?}");
        }
        assert_eq!(key(CellRef::Null), None);
    }

    /// One cell of [`a_row_round_trips_through_its_record`]: the column
    /// type it is declared with, and the value bound to it.
    fn any_cell(rng: &mut Rng) -> (ColType, SqlValue) {
        let ty = [ColType::Integer, ColType::Real, ColType::Text][rng.bounded(3) as usize];
        let texts = ["", "é😀 ünï", "it's", "''", "two\nlines\n", "3", "NULL"];
        let v = match rng.bounded(12) {
            0 => SqlValue::Null,
            1 => SqlValue::Integer(i64::MIN),
            2 => SqlValue::Integer(i64::MAX),
            3 => SqlValue::Integer(rng.gen_range(-9..10i64)),
            4 => SqlValue::Real(0.0),
            5 => SqlValue::Real(-0.0),
            // Subnormal.
            6 => SqlValue::Real(f64::from_bits(rng.gen_range(1..1u64 << 52))),
            7 => SqlValue::Real(-f64::MIN_POSITIVE / 2.0),
            8 => SqlValue::Real(rng.gen_range(-9..10i64) as f64 + 0.25),
            9 => SqlValue::Real(f64::MAX),
            _ => SqlValue::Text(rng.choose(&texts).unwrap().to_string()),
        };
        (ty, v)
    }

    /// Values compared bit for bit: `-0.0` is not `0.0` here.
    fn bits(row: &[SqlValue]) -> String {
        format!("{row:?}")
    }

    /// Any row of 1–12 cells reads back from its record as inserted
    /// (coerced), an integer updated in place rolls back to it, and the
    /// dump replays to itself.
    #[test]
    fn a_row_round_trips_through_its_record() {
        let strategy = prop::vec(prop::from_fn(any_cell), 1..13);
        prop::check(&Config::cases(512), &strategy, |cells| {
            let names: Vec<String> = (0..cells.len()).map(|i| format!("c{i}")).collect();
            let defs: Vec<String> = names
                .iter()
                .zip(cells)
                .map(|(name, (ty, _))| format!("{name} {ty:?}"))
                .collect();
            let mut db = Database::in_memory();
            db.execute(&format!("CREATE TABLE t ({}, n INTEGER)", defs.join(", ")))
                .unwrap();
            let values: Vec<SqlValue> = cells.iter().map(|(_, v)| v.clone()).collect();
            let marks = vec!["?"; cells.len()].join(", ");
            db.execute_with(&format!("INSERT INTO t VALUES ({marks}, 0)"), &values)
                .unwrap();
            let coerced: Vec<SqlValue> = cells
                .iter()
                .map(|(ty, v)| coerce(*ty, v.cell()).to_value())
                .chain([SqlValue::Integer(0)])
                .collect();
            let select = format!("SELECT {}, n FROM t", names.join(", "));
            let read = db.query(&select).unwrap();
            prop_assert_eq!(bits(&read[0]), bits(&coerced));

            let record = |db: &Database| db.table("t").unwrap().rows.records[0].as_ptr();
            let before = record(&db);
            db.execute("BEGIN").unwrap();
            db.execute("UPDATE t SET n = n + 7").unwrap();
            prop_assert!(record(&db) == before, "a number update moved the record");
            let mut updated = coerced.clone();
            *updated.last_mut().unwrap() = SqlValue::Integer(7);
            prop_assert_eq!(bits(&db.query(&select).unwrap()[0]), bits(&updated));
            db.execute_with("UPDATE t SET c0 = ?", &["re-encoded".into()])
                .unwrap();
            db.execute("ROLLBACK").unwrap();
            prop_assert_eq!(bits(&db.query(&select).unwrap()[0]), bits(&coerced));

            let mut replayed = Database::in_memory();
            for stmt in db.dump_statements() {
                replayed.execute(&stmt).unwrap();
            }
            prop_assert_eq!(replayed.dump(), db.dump());
            Ok(())
        });
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
    /// u TEXT UNIQUE, q INTEGER)`. An `INSERT` binds `q` to its step's
    /// number, which no other statement writes.
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
                "INSERT INTO t (k, s, v, q) VALUES ({}, {}, {}, ?)",
                rng.gen_range(0..12i64),
                text_key(rng),
                k(rng)
            ),
            4 => format!(
                "INSERT INTO t (k, u, q) VALUES ({}, {}, ?)",
                k(rng),
                int_key(rng)
            ),
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
        (0..t.len())
            .filter(|&r| t.cell(r, col).compare(v.cell()) == Some(std::cmp::Ordering::Equal))
            .collect()
    }

    /// After every step of any mix of writes and rollbacks, an index probe
    /// finds exactly the row a scan comparing every cell finds, and an
    /// unordered `SELECT` lists the rows in the order they were inserted.
    fn probe_equals_scan() {
        let strategy = prop::vec(prop::from_fn(step), 0..40);
        prop::check(&Config::cases(192), &strategy, |steps| {
            let mut db = Database::in_memory();
            db.execute(
                "CREATE TABLE t (k INTEGER PRIMARY KEY, s TEXT UNIQUE, v INTEGER, u TEXT UNIQUE, q INTEGER)",
            )
            .unwrap();
            for (at, step) in steps.iter().enumerate() {
                match step {
                    Step::Sql(sql) => drop(db.execute_with(sql, &[(at as i64).into()])),
                    Step::Restore { row, key } => {
                        let t = db.table_mut("t").unwrap();
                        let v = key.map_or(SqlValue::Null, |k| SqlValue::Text(format!("m{k}")));
                        if t.len() > 0 && scan(t, 1, &v).is_empty() {
                            t.restore_cell(row % t.len(), 1, v);
                        }
                    }
                }
                let t = db.table("t").unwrap();
                for (col, v) in probes() {
                    let probed: Vec<usize> = t.lookup_unique(col, v.cell()).into_iter().collect();
                    let scanned = scan(t, col, &v);
                    prop_assert_eq!(probed, scanned, "step {}, column {}: {:?}", at, col, v);
                }
                let listed = db.query("SELECT q FROM t").unwrap();
                let inserted_at: Vec<i64> =
                    listed.iter().filter_map(|r| r[0].as_integer()).collect();
                prop_assert!(
                    inserted_at.len() == listed.len() && inserted_at.is_sorted_by(|a, b| a < b),
                    "step {}: rows listed out of insertion order: {:?}",
                    at,
                    inserted_at
                );
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
