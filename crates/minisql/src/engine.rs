//! Statement execution.

use crate::ast::*;
use crate::error::Error;
use crate::parser::parse;
use crate::table::{key, storable, Key, Table};
use crate::value::{CellRef, SqlValue};
use crate::wal::{self, Wal};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::path::Path;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// SELECT output.
    Rows {
        /// Column headers.
        columns: Vec<String>,
        /// Row values.
        rows: Vec<Vec<SqlValue>>,
    },
    /// Number of rows inserted / updated / deleted.
    Affected(usize),
    /// DDL success.
    None,
}

impl ExecResult {
    /// Affected row count (0 for SELECT/DDL).
    pub fn affected(&self) -> usize {
        match self {
            ExecResult::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// An embedded SQL database: a set of tables, optionally persisted through a
/// snapshot + write-ahead log (see [`crate::wal`]).
///
/// Transactions are supported at statement granularity and cost what they
/// touch: `BEGIN` allocates nothing, every mutating statement records what
/// reverses it in an undo log (see [`TableUndo`]), `ROLLBACK` replays that
/// log backwards, `COMMIT` drops it and appends the buffered statements to
/// the WAL as one all-or-nothing group. There is a single transaction scope
/// (no nesting), matching what the pattern store needs for atomic batch
/// commits.
#[derive(Debug)]
pub struct Database {
    tables: HashMap<String, Table>,
    wal: Option<Wal>,
    /// Undo log + buffered WAL frames while a transaction is open.
    txn: Option<TxnState>,
}

#[derive(Debug, Default)]
struct TxnState {
    /// Per table the transaction touched, what puts it back.
    undo: HashMap<String, TableUndo>,
    /// The statements executed so far, rendered and framed for the WAL.
    wal_frames: Vec<u8>,
}

/// What reverses one transaction's effect on one table. Tables are
/// independent, so each keeps its own log: row-level steps until the first
/// destructive statement (`DELETE`, `CREATE TABLE`, `ALTER TABLE`, an
/// `UPDATE` that assigns a unique column) saves a before-image of the whole
/// table, and nothing after it — the image already reverses whatever
/// follows, so a transaction holds at most one per table.
#[derive(Debug, Default)]
struct TableUndo {
    /// Row-level steps, oldest first.
    rows: Vec<RowUndo>,
    /// The table as it was before the first destructive statement; the inner
    /// `None` is a table that did not exist.
    image: Option<Option<Table>>,
}

#[derive(Debug)]
enum RowUndo {
    /// A row was appended: pop it.
    Appended,
    /// Cells of row `row` were overwritten: put `(column, value)` back,
    /// last assignment first.
    Cells {
        row: usize,
        before: Vec<(usize, SqlValue)>,
    },
}

/// The row-level undo log of `table`, or `None` when there is nothing to
/// record: no transaction is open, or it already holds the table's image.
fn row_log<'t>(txn: &'t mut Option<TxnState>, table: &str) -> Option<&'t mut Vec<RowUndo>> {
    let undo = &mut txn.as_mut()?.undo;
    if !undo.contains_key(table) {
        undo.insert(table.to_string(), TableUndo::default());
    }
    let log = undo.get_mut(table)?;
    log.image.is_none().then_some(&mut log.rows)
}

/// Before a destructive statement on table `name`: keep `before()` as its
/// image, unless no transaction is open or it already holds one.
fn keep_image(txn: &mut Option<TxnState>, name: &str, before: impl FnOnce() -> Option<Table>) {
    if let Some(txn) = txn {
        let log = txn.undo.entry(name.to_string()).or_default();
        if log.image.is_none() {
            log.image = Some(before());
        }
    }
}

impl Database {
    /// A volatile in-memory database.
    pub fn in_memory() -> Database {
        Database {
            tables: HashMap::new(),
            wal: None,
            txn: None,
        }
    }

    /// Heap bytes of every table's rows and unique indexes (not what an
    /// open transaction's undo log holds).
    pub fn heap_bytes(&self) -> usize {
        self.tables.values().map(Table::heap_bytes).sum()
    }

    /// `true` while a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Open (or create) a persistent database rooted at `path`. `path` is a
    /// directory: `snapshot.sql` holds the last checkpoint, `wal.sql` the
    /// statements since.
    pub fn open(path: impl AsRef<Path>) -> Result<Database, Error> {
        let mut db = Database::in_memory();
        // Replay without re-logging.
        let replay = |stmt: &str| db.execute_internal(stmt, &[], false).map(drop);
        db.wal = Some(Wal::open(path.as_ref(), replay)?);
        Ok(db)
    }

    /// Execute a statement without parameters.
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult, Error> {
        self.execute_with(sql, &[])
    }

    /// Execute a statement with `?` parameters bound in order.
    pub fn execute_with(&mut self, sql: &str, params: &[SqlValue]) -> Result<ExecResult, Error> {
        self.execute_internal(sql, params, true)
    }

    /// Convenience: run a SELECT and return its rows.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Vec<SqlValue>>, Error> {
        self.query_with(sql, &[])
    }

    /// Convenience: run a SELECT with parameters and return its rows.
    pub fn query_with(
        &mut self,
        sql: &str,
        params: &[SqlValue],
    ) -> Result<Vec<Vec<SqlValue>>, Error> {
        Ok(match self.execute_with(sql, params)? {
            ExecResult::Rows { rows, .. } => rows,
            _ => Vec::new(),
        })
    }

    /// Run a SELECT and hand its output rows to `row` one at a time, in
    /// order, from one reused buffer: the result is never held whole, so a
    /// reader that keeps nothing of a row costs what the sort order costs
    /// (a few words a row), not a copy of the table. The callback may take
    /// the values out of the buffer.
    pub fn query_each(
        &self,
        sql: &str,
        params: &[SqlValue],
        mut row: impl FnMut(&mut [SqlValue]),
    ) -> Result<(), Error> {
        match parse(sql)? {
            Statement::Select(sel) => self
                .select_each(&sel, params, |values| row(values))
                .map(drop),
            _ => Err(Error::Parse("query_each runs a SELECT".into())),
        }
    }

    fn execute_internal(
        &mut self,
        sql: &str,
        params: &[SqlValue],
        log: bool,
    ) -> Result<ExecResult, Error> {
        let stmt = parse(sql)?;
        // A mutation is rendered for the WAL before it runs, so one the WAL
        // could not replay (a non-finite REAL parameter) changes nothing.
        let mutates = !matches!(
            stmt,
            Statement::Select(_) | Statement::Begin | Statement::Commit | Statement::Rollback
        );
        let rendered = match mutates && log && self.wal.is_some() {
            true => Some(wal::render_statement(sql, params)?),
            false => None,
        };
        let result = match stmt {
            Statement::Select(sel) => return self.run_select(&sel, params),
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(Error::Parse("transaction already open".into()));
                }
                self.txn = Some(TxnState::default());
                return Ok(ExecResult::None);
            }
            Statement::Commit => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| Error::Parse("COMMIT without open transaction".into()))?;
                if let Some(wal) = &mut self.wal {
                    if let Err(e) = wal.log_group(&txn.wal_frames) {
                        // What is not durable must not stay visible.
                        self.undo(txn.undo);
                        return Err(e);
                    }
                }
                return Ok(ExecResult::None);
            }
            Statement::Rollback => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| Error::Parse("ROLLBACK without open transaction".into()))?;
                self.undo(txn.undo);
                return Ok(ExecResult::None);
            }
            Statement::CreateTable {
                name,
                if_not_exists,
                columns,
            } => {
                if self.tables.contains_key(&name) {
                    if if_not_exists {
                        return Ok(ExecResult::None);
                    }
                    return Err(Error::TableExists(name));
                }
                keep_image(&mut self.txn, &name, || None);
                self.tables.insert(name.clone(), Table::new(name, columns));
                ExecResult::None
            }
            Statement::AddColumn { table, column } => {
                if self.table(&table)?.column_index(&column.name).is_ok() {
                    return Err(Error::Parse(format!("duplicate column {}", column.name)));
                }
                keep_image(&mut self.txn, &table, || self.tables.get(&table).cloned());
                self.table_mut(&table)?.add_column(column);
                ExecResult::None
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => ExecResult::Affected(self.run_insert(&table, &columns, &values, params)?),
            Statement::Update {
                table,
                sets,
                filter,
            } => ExecResult::Affected(self.run_update(&table, &sets, filter.as_ref(), params)?),
            Statement::Delete { table, filter } => {
                ExecResult::Affected(self.run_delete(&table, filter.as_ref(), params)?)
            }
        };
        if let (Some(stmt), Some(wal)) = (rendered, &mut self.wal) {
            match &mut self.txn {
                // Inside a transaction, buffer the rendered statement; it
                // only reaches the WAL at COMMIT (rollbacks leave no trace).
                Some(txn) => wal::write_frame(&mut txn.wal_frames, &stmt)?,
                None => wal.log(&stmt)?,
            }
        }
        Ok(result)
    }

    pub(crate) fn table(&self, name: &str) -> Result<&Table, Error> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    pub(crate) fn table_mut(&mut self, name: &str) -> Result<&mut Table, Error> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    /// Reverse a transaction: per table, the image first (it was taken
    /// last), then the row-level steps newest to oldest.
    fn undo(&mut self, undo: HashMap<String, TableUndo>) {
        for (name, log) in undo {
            match log.image {
                Some(Some(table)) => {
                    self.tables.insert(name.clone(), table);
                }
                Some(None) => {
                    self.tables.remove(&name);
                }
                None => {}
            }
            let Some(table) = self.tables.get_mut(&name) else {
                continue;
            };
            for step in log.rows.into_iter().rev() {
                match step {
                    RowUndo::Appended => table.pop_row(),
                    RowUndo::Cells { row, before } => {
                        for (col, v) in before.into_iter().rev() {
                            table.restore_cell(row, col, v);
                        }
                    }
                }
            }
        }
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: &[String],
        values: &[Expr],
        params: &[SqlValue],
    ) -> Result<usize, Error> {
        let t = self.table(table)?;
        let targets: Vec<usize> = if columns.is_empty() {
            (0..t.columns.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| t.column_index(c))
                .collect::<Result<_, _>>()?
        };
        if values.len() != targets.len() {
            return Err(Error::ArityMismatch {
                expected: targets.len(),
                got: values.len(),
            });
        }
        let cells = values
            .iter()
            .map(|e| eval(e, None, params))
            .collect::<Result<Vec<_>, _>>()?;
        self.table_mut(table)?.insert(&targets, &cells)?;
        if let Some(log) = row_log(&mut self.txn, table) {
            log.push(RowUndo::Appended);
        }
        Ok(1)
    }

    /// Resolve a `WHERE unique_col = literal/param` filter through the
    /// unique index, returning the matching row indices (zero or one).
    /// `None` means the filter is not index-resolvable and the caller must
    /// scan.
    fn index_probe(
        t: &Table,
        filter: Option<&Expr>,
        params: &[SqlValue],
    ) -> Result<Option<Vec<usize>>, Error> {
        let Some(Expr::Binary(lhs, BinOp::Eq, rhs)) = filter else {
            return Ok(None);
        };
        let (col_name, value_expr) = match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Column(c), v @ (Expr::Literal(_) | Expr::Param(_))) => (c, v),
            (v @ (Expr::Literal(_) | Expr::Param(_)), Expr::Column(c)) => (c, v),
            _ => return Ok(None),
        };
        let Ok(col) = t.column_index(col_name) else {
            return Ok(None);
        };
        let value = eval(value_expr, None, params)?;
        if value.is_null() {
            return Ok(Some(Vec::new()));
        }
        // Only applicable when the column has a unique index.
        match t.lookup_unique_available(col) {
            false => Ok(None),
            true => Ok(Some(t.lookup_unique(col, value).into_iter().collect())),
        }
    }

    /// The indices, ascending, of the rows of `t` that `filter` keeps: by a
    /// unique-index probe for `WHERE id = ?` (the pattern store's hottest
    /// filter), by a scan otherwise.
    fn matching_rows(
        t: &Table,
        filter: Option<&Expr>,
        params: &[SqlValue],
    ) -> Result<Vec<usize>, Error> {
        if let Some(hits) = Self::index_probe(t, filter, params)? {
            return Ok(hits);
        }
        let mut hits = Vec::new();
        for row in 0..t.len() {
            let keep = match filter {
                Some(f) => truthy(eval(f, Some((t, row)), params)?),
                None => true,
            };
            if keep {
                hits.push(row);
            }
        }
        Ok(hits)
    }

    fn run_select(&self, sel: &SelectStmt, params: &[SqlValue]) -> Result<ExecResult, Error> {
        let mut rows = Vec::new();
        let columns = self.select_each(sel, params, |row| rows.push(std::mem::take(row)))?;
        Ok(ExecResult::Rows { columns, rows })
    }

    /// Run a SELECT, handing each output row to `emit` in order, and return
    /// the column headers. The row buffer is reused unless `emit` takes it.
    fn select_each(
        &self,
        sel: &SelectStmt,
        params: &[SqlValue],
        mut emit: impl FnMut(&mut Vec<SqlValue>),
    ) -> Result<Vec<String>, Error> {
        let t = self.table(&sel.table)?;
        // Validate column references up front, so a bad projection fails even
        // on an empty table (ORDER BY is exempt: it may name aliases).
        let items = sel.items.iter().filter_map(|it| match &it.projection {
            Projection::Expr(e) | Projection::Sum(e) => Some(e),
            Projection::CountStar => None,
        });
        for e in items.chain(&sel.filter).chain(&sel.group_by) {
            check_columns(e, t)?;
        }
        let columns: Vec<String> = sel
            .items
            .iter()
            .map(|it| match (&it.alias, &it.projection) {
                (Some(alias), _) => alias.clone(),
                (None, Projection::Expr(Expr::Column(c))) => c.clone(),
                (None, Projection::Expr(_)) => "expr".to_string(),
                (None, Projection::CountStar) => "count".to_string(),
                (None, Projection::Sum(_)) => "sum".to_string(),
            })
            .collect();
        // A bare `SELECT COUNT(*) FROM t` is answered from the row store's
        // length, so what it costs does not grow with the table (`seqd`
        // asks for the pattern count on every `/stats` request).
        if counts_rows_only(sel) {
            emit(&mut vec![SqlValue::Integer(t.len() as i64)]);
            return Ok(columns);
        }

        let hits = Self::matching_rows(t, sel.filter.as_ref(), params)?;
        // Each output row comes from a group of row numbers: one group per
        // GROUP BY key in an aggregate query (a single group without GROUP
        // BY, even over no rows), one row per group otherwise.
        let aggregate = !sel.group_by.is_empty()
            || sel
                .items
                .iter()
                .any(|it| !matches!(it.projection, Projection::Expr(_)));
        let mut members: Vec<Vec<usize>> = Vec::new();
        if !sel.group_by.is_empty() {
            // Rows group as the unique index keys them: by cell equality,
            // read in place.
            let width = sel.group_by.len();
            let mut keys: Vec<Option<Key>> = Vec::with_capacity(hits.len() * width);
            for &row in &hits {
                for g in &sel.group_by {
                    keys.push(key(eval(g, Some((t, row)), params)?));
                }
            }
            let mut group_of: HashMap<&[Option<Key>], usize> = HashMap::new();
            for (&row, k) in hits.iter().zip(keys.chunks(width)) {
                let at = *group_of.entry(k).or_insert_with(|| {
                    members.push(Vec::new());
                    members.len() - 1
                });
                members[at].push(row);
            }
        }
        let groups: Vec<&[usize]> = match (aggregate, sel.group_by.is_empty()) {
            (false, _) => hits.chunks(1).collect(),
            (true, true) => vec![&hits],
            (true, false) => members.iter().map(Vec::as_slice).collect(),
        };

        // Sort group numbers by borrowed keys, then project in that order.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        let n = sel.order_by.len();
        if n > 0 {
            let mut keys: Vec<CellRef> = Vec::with_capacity(groups.len() * n);
            for group in &groups {
                for k in &sel.order_by {
                    // An alias or projected column name refers to the
                    // projection; anything else is evaluated on the group.
                    let projected_at = match &k.expr {
                        Expr::Column(name) => {
                            columns.iter().position(|c| c.eq_ignore_ascii_case(name))
                        }
                        _ => None,
                    };
                    keys.push(match projected_at {
                        Some(pos) => project(&sel.items[pos].projection, t, group, params)?,
                        None => on_first_row(&k.expr, t, group, params)?,
                    });
                }
            }
            order.sort_by(|&a, &b| {
                let (ka, kb) = (&keys[a * n..(a + 1) * n], &keys[b * n..(b + 1) * n]);
                for ((ka, kb), k) in ka.iter().zip(kb).zip(&sel.order_by) {
                    let ord = ka.total_cmp(*kb);
                    if ord != Ordering::Equal {
                        return if k.desc { ord.reverse() } else { ord };
                    }
                }
                Ordering::Equal
            });
        }
        let mut row = Vec::new();
        for g in order {
            // One exact allocation when `emit` took the last buffer.
            row.clear();
            row.reserve_exact(sel.items.len());
            for it in &sel.items {
                row.push(project(&it.projection, t, groups[g], params)?.to_value());
            }
            emit(&mut row);
        }
        Ok(columns)
    }

    fn run_update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        filter: Option<&Expr>,
        params: &[SqlValue],
    ) -> Result<usize, Error> {
        let t = self.table(table)?;
        let set_indices: Vec<usize> = sets
            .iter()
            .map(|(c, _)| t.column_index(c))
            .collect::<Result<_, _>>()?;
        // Evaluate every assignment before the first one is applied, and
        // refuse the statement if one of them cannot be stored.
        let hits = Self::matching_rows(t, filter, params)?;
        let mut vals: Vec<SqlValue> = Vec::with_capacity(hits.len() * sets.len());
        for &row in &hits {
            for (_, e) in sets {
                let v = eval(e, Some((t, row)), params)?;
                storable(v)?;
                vals.push(v.to_value());
            }
        }
        let n = hits.len();
        // Rebuilding the unique indexes is only needed when a constrained
        // column was assigned.
        let touches_unique = set_indices
            .iter()
            .any(|&ci| t.columns[ci].unique || t.columns[ci].primary_key);
        if touches_unique && n > 0 {
            keep_image(&mut self.txn, table, || self.tables.get(table).cloned());
        }
        let t = self.table_mut(table)?;
        let mut changed = Vec::with_capacity(n);
        for (&row, vals) in hits.iter().zip(vals.chunks(sets.len())) {
            let before: Vec<(usize, SqlValue)> = set_indices
                .iter()
                .zip(vals)
                .map(|(&ci, v)| (ci, t.set(row, ci, v.cell())))
                .collect();
            changed.push((row, before));
        }
        if touches_unique {
            if let Err(e) = t.rebuild_indexes() {
                // The statement fails as a whole: rows back, indexes again.
                for (row, before) in changed.into_iter().rev() {
                    for (col, v) in before.into_iter().rev() {
                        t.set(row, col, v.cell());
                    }
                }
                t.rebuild_indexes()
                    .expect("the rows were consistent before the statement");
                return Err(e);
            }
        }
        if let Some(log) = row_log(&mut self.txn, table) {
            log.extend(
                changed
                    .into_iter()
                    .map(|(row, before)| RowUndo::Cells { row, before }),
            );
        }
        Ok(n)
    }

    fn run_delete(
        &mut self,
        table: &str,
        filter: Option<&Expr>,
        params: &[SqlValue],
    ) -> Result<usize, Error> {
        let hits = Self::matching_rows(self.table(table)?, filter, params)?;
        if !hits.is_empty() {
            keep_image(&mut self.txn, table, || self.tables.get(table).cloned());
            self.table_mut(table)?.delete_rows(&hits);
        }
        Ok(hits.len())
    }

    /// Write a compact snapshot and truncate the WAL. No-op for in-memory
    /// databases. Refused while a transaction is open (the snapshot would
    /// capture uncommitted state). Rows are rendered one at a time straight
    /// into the snapshot file: the database is never held a second time as
    /// text.
    pub fn checkpoint(&mut self) -> Result<(), Error> {
        if self.txn.is_some() {
            return Err(Error::Parse(
                "cannot checkpoint inside a transaction".into(),
            ));
        }
        if let Some(wal) = &mut self.wal {
            let tables = &self.tables;
            wal.checkpoint(|out| {
                let mut written = Ok(());
                dump_each(tables, |stmt| {
                    if written.is_ok() {
                        written = wal::write_frame(out, stmt);
                    }
                });
                written
            })?;
        }
        Ok(())
    }

    /// Dump the whole database as a list of SQL statements (CREATE TABLE +
    /// INSERTs) whose replay reproduces it exactly.
    pub fn dump_statements(&self) -> Vec<String> {
        let mut stmts = Vec::new();
        dump_each(&self.tables, |stmt| stmts.push(stmt.to_string()));
        stmts
    }

    /// Human-readable SQL dump (the statements of
    /// [`Database::dump_statements`], `;`-terminated).
    pub fn dump(&self) -> String {
        let mut s = String::new();
        dump_each(&self.tables, |stmt| {
            s.push_str(stmt);
            s.push_str(";\n");
        });
        s
    }
}

/// Render the database as SQL — per table in name order, its `CREATE TABLE`
/// then one `INSERT` per row — handing each statement to `sink` from one
/// reused buffer.
fn dump_each(tables: &HashMap<String, Table>, mut sink: impl FnMut(&str)) {
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        let t = &tables[name];
        out.clear();
        out.push_str("CREATE TABLE ");
        out.push_str(&t.name);
        out.push_str(" (");
        for (i, c) in t.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&c.name);
            out.push(' ');
            out.push_str(match c.ty {
                ColType::Integer => "INTEGER",
                ColType::Real => "REAL",
                ColType::Text => "TEXT",
            });
            if c.primary_key {
                out.push_str(" PRIMARY KEY");
            } else {
                if c.not_null {
                    out.push_str(" NOT NULL");
                }
                if c.unique {
                    out.push_str(" UNIQUE");
                }
            }
            if let Some(d) = &c.default {
                out.push_str(" DEFAULT ");
                push_literal(&mut out, d.cell());
            }
        }
        out.push(')');
        sink(&out);
        for row in 0..t.len() {
            out.clear();
            out.push_str("INSERT INTO ");
            out.push_str(&t.name);
            out.push_str(" VALUES (");
            for (i, v) in t.row(row).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_literal(&mut out, v);
            }
            out.push(')');
            sink(&out);
        }
    }
}

/// Render a value as a SQL literal.
pub fn sql_literal(v: &SqlValue) -> String {
    let mut out = String::new();
    push_literal(&mut out, v.cell());
    out
}

/// Append a value's SQL literal to `out`.
fn push_literal(out: &mut String, v: CellRef<'_>) {
    use std::fmt::Write;
    match v {
        CellRef::Null => out.push_str("NULL"),
        CellRef::Integer(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
        CellRef::Real(r) => {
            if r.fract() == 0.0 && r.is_finite() {
                write!(out, "{r:.1}")
            } else {
                write!(out, "{r}")
            }
            .expect("writing to a String cannot fail");
        }
        CellRef::Text(s) => {
            out.push('\'');
            for (i, part) in s.split('\'').enumerate() {
                if i > 0 {
                    out.push_str("''");
                }
                out.push_str(part);
            }
            out.push('\'');
        }
    }
}

/// Whether the statement is a bare `SELECT COUNT(*) FROM t`.
fn counts_rows_only(sel: &SelectStmt) -> bool {
    let count_star = matches!(
        sel.items.as_slice(),
        [SelectItem {
            projection: Projection::CountStar,
            ..
        }]
    );
    count_star && sel.filter.is_none() && sel.group_by.is_empty()
}

/// Fail with [`Error::NoSuchColumn`] if `e` names a column `t` lacks.
fn check_columns(e: &Expr, t: &Table) -> Result<(), Error> {
    match e {
        Expr::Column(c) => t.column_index(c).map(drop),
        Expr::Binary(l, _, r) => check_columns(l, t).and_then(|()| check_columns(r, t)),
        Expr::Literal(_) | Expr::Param(_) => Ok(()),
    }
}

/// SQL truthiness: NULL and 0 are false.
fn truthy(v: CellRef<'_>) -> bool {
    match v {
        CellRef::Null => false,
        CellRef::Integer(i) => i != 0,
        CellRef::Real(r) => r != 0.0,
        CellRef::Text(s) => !s.is_empty(),
    }
}

/// Evaluate a row-level expression on row `row` of a table, reading its
/// cells in place; `row` is `None` for INSERT values, which name no column.
fn eval<'a>(
    e: &'a Expr,
    row: Option<(&'a Table, usize)>,
    params: &'a [SqlValue],
) -> Result<CellRef<'a>, Error> {
    match e {
        Expr::Literal(v) => Ok(v.cell()),
        Expr::Param(i) => params.get(*i).map(SqlValue::cell).ok_or(Error::ParamCount {
            expected: *i + 1,
            got: params.len(),
        }),
        Expr::Column(name) => match row {
            Some((t, row)) => Ok(t.cell(row, t.column_index(name)?)),
            None => Err(Error::NoSuchColumn(name.clone())),
        },
        Expr::Binary(l, op, r) => eval_binop(eval(l, row, params)?, *op, eval(r, row, params)?),
    }
}

/// `l op r`: NULL when either side is NULL; a comparison yields 1 or 0;
/// integers add and subtract as integers, any real makes the result real.
fn eval_binop<'a>(l: CellRef<'a>, op: BinOp, r: CellRef<'a>) -> Result<CellRef<'a>, Error> {
    if let BinOp::Add | BinOp::Sub = op {
        let add = op == BinOp::Add;
        return match (l, r) {
            (CellRef::Null, _) | (_, CellRef::Null) => Ok(CellRef::Null),
            (CellRef::Integer(a), CellRef::Integer(b)) => Ok(CellRef::Integer(if add {
                a.wrapping_add(b)
            } else {
                a.wrapping_sub(b)
            })),
            _ => match (l.as_real(), r.as_real()) {
                (Some(a), Some(b)) => Ok(CellRef::Real(if add { a + b } else { a - b })),
                _ => Err(Error::Type("arithmetic on text".into())),
            },
        };
    }
    let Some(ord) = l.compare(r) else {
        return Ok(CellRef::Null);
    };
    let holds = match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        BinOp::Add | BinOp::Sub => unreachable!("handled above"),
    };
    Ok(CellRef::Integer(holds as i64))
}

/// Evaluate `e` on the first row of `group`; NULL for an empty group.
fn on_first_row<'a>(
    e: &'a Expr,
    t: &'a Table,
    group: &[usize],
    params: &'a [SqlValue],
) -> Result<CellRef<'a>, Error> {
    match group.first() {
        Some(&row) => eval(e, Some((t, row)), params),
        None => Ok(CellRef::Null),
    }
}

/// One SELECT item's value over a group of rows: `COUNT(*)` and `SUM` fold
/// the group, an expression reads its first row.
fn project<'a>(
    p: &'a Projection,
    t: &'a Table,
    group: &[usize],
    params: &'a [SqlValue],
) -> Result<CellRef<'a>, Error> {
    match p {
        Projection::Expr(e) => on_first_row(e, t, group, params),
        Projection::CountStar => Ok(CellRef::Integer(group.len() as i64)),
        Projection::Sum(e) => {
            let mut sum = CellRef::Null;
            for &row in group {
                let v = eval(e, Some((t, row)), params)?;
                if sum.is_null() {
                    sum = v;
                } else if !v.is_null() {
                    sum = eval_binop(sum, BinOp::Add, v)?;
                }
            }
            Ok(sum)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_data() -> Database {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE p (id TEXT PRIMARY KEY, service TEXT NOT NULL, cnt INTEGER DEFAULT 0, score REAL)")
            .unwrap();
        for (id, svc, cnt, score) in [
            ("p1", "sshd", 10i64, 0.2),
            ("p2", "sshd", 3, 0.9),
            ("p3", "nginx", 7, 0.5),
            ("p4", "cron", 1, 1.0),
        ] {
            db.execute_with(
                "INSERT INTO p (id, service, cnt, score) VALUES (?, ?, ?, ?)",
                &[id.into(), svc.into(), cnt.into(), score.into()],
            )
            .unwrap();
        }
        db
    }

    fn text(s: &str) -> SqlValue {
        SqlValue::Text(s.into())
    }

    /// `sql` is refused by the parser and leaves the database as it was.
    fn refused(db: &mut Database, sql: &str) -> bool {
        let before = db.dump();
        matches!(db.execute(sql), Err(Error::Parse(_) | Error::Lex(_))) && db.dump() == before
    }

    #[test]
    fn heap_bytes_follow_the_rows() {
        let mut db = db_with_data();
        let four = db.heap_bytes();
        // Four records of four tags, id, service and two numbers each, and
        // at least eight index slots.
        assert!(four >= 4 * (4 + 4 + 2 + 4 + 4 + 16) + 8 * 4, "{four}");
        let long = "x".repeat(1_000);
        db.execute_with(
            "INSERT INTO p (id, service) VALUES (?, ?)",
            &[text("p5"), text(&long)],
        )
        .unwrap();
        assert!(db.heap_bytes() >= four + long.len(), "{}", db.heap_bytes());
        db.execute("DELETE FROM p WHERE id = 'p5'").unwrap();
        assert!(db.heap_bytes() < four + long.len());
    }

    #[test]
    fn select_where_order_limit() {
        let mut db = db_with_data();
        let rows = db
            .query("SELECT id FROM p WHERE cnt > 1 ORDER BY cnt DESC")
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![text("p1")], vec![text("p3")], vec![text("p2")]]
        );
        assert!(refused(
            &mut db,
            "SELECT id FROM p ORDER BY cnt DESC LIMIT 2"
        ));
        assert!(refused(&mut db, "SELECT id FROM p LIMIT 2 OFFSET 1"));
    }

    /// The row callback sees exactly `query`'s rows, in its order, and
    /// refuses what is not a SELECT.
    #[test]
    fn query_each_streams_the_query_rows() {
        let mut db = db_with_data();
        for sql in [
            "SELECT id, service, cnt, score FROM p ORDER BY service, cnt DESC, id",
            "SELECT service, COUNT(*), SUM(cnt) FROM p GROUP BY service ORDER BY service",
            "SELECT COUNT(*) FROM p",
            "SELECT id FROM p WHERE id = 'p3'",
            "SELECT id FROM p WHERE cnt > 100",
        ] {
            let mut streamed = Vec::new();
            db.query_each(sql, &[], |row| streamed.push(row.to_vec()))
                .unwrap();
            assert_eq!(streamed, db.query(sql).unwrap(), "{sql}");
        }
        let mut taken = Vec::new();
        db.query_each("SELECT id FROM p WHERE cnt < ?", &[5i64.into()], |row| {
            taken.push(std::mem::replace(&mut row[0], SqlValue::Null))
        })
        .unwrap();
        assert_eq!(taken, vec![text("p2"), text("p4")]);
        let before = db.dump();
        assert!(matches!(
            db.query_each("DELETE FROM p", &[], |_| {}),
            Err(Error::Parse(_))
        ));
        assert_eq!(db.dump(), before);
    }

    #[test]
    fn select_star() {
        let mut db = db_with_data();
        // Every reader names its columns.
        assert!(refused(&mut db, "SELECT * FROM p WHERE id = 'p4'"));
        match db
            .execute("SELECT id, service AS s FROM p WHERE id = 'p4'")
            .unwrap()
        {
            ExecResult::Rows { columns, rows } => {
                assert_eq!(columns, vec!["id", "s"]);
                assert_eq!(rows, vec![vec![text("p4"), text("cron")]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_with_group_by() {
        let mut db = db_with_data();
        let rows = db
            .query("SELECT service, COUNT(*) AS n, SUM(cnt) FROM p GROUP BY service ORDER BY n DESC, service")
            .unwrap();
        assert_eq!(
            rows[0],
            vec!["sshd".into(), SqlValue::Integer(2), SqlValue::Integer(13)]
        );
        assert_eq!(rows.len(), 3);
    }

    /// Rows group by cell equality, as the unique index keys them: `3` and
    /// `3.0` are one group, as `=` says.
    #[test]
    fn group_by_groups_equal_cells() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE g (k TEXT)").unwrap();
        for v in [SqlValue::Integer(3), SqlValue::Real(3.0), "3".into()] {
            db.execute_with("INSERT INTO g VALUES (?)", &[v]).unwrap();
        }
        let rows = db
            .query("SELECT k, COUNT(*) FROM g GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![SqlValue::Integer(3), SqlValue::Integer(2)],
                vec![text("3"), SqlValue::Integer(1)],
            ]
        );
    }

    /// Without a WAL too, a NaN or infinite REAL never reaches a cell.
    #[test]
    fn a_non_finite_real_is_not_stored() {
        let mut db = db_with_data();
        let before = db.dump();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let got = db.execute_with(
                "INSERT INTO p (id, service, score) VALUES ('x', 'y', ?)",
                &[v.into()],
            );
            assert!(matches!(got, Err(Error::Type(_))), "{v}: {got:?}");
            let got = db.execute_with("UPDATE p SET score = score + ?", &[v.into()]);
            assert!(matches!(got, Err(Error::Type(_))), "{v}: {got:?}");
        }
        assert_eq!(db.dump(), before);
    }

    #[test]
    fn aggregate_without_group() {
        let mut db = db_with_data();
        let rows = db
            .query("SELECT COUNT(*), SUM(cnt), SUM(score), SUM(cnt + 1) FROM p")
            .unwrap();
        assert_eq!(rows[0][0], SqlValue::Integer(4));
        assert_eq!(rows[0][1], SqlValue::Integer(21));
        assert_eq!(rows[0][2], SqlValue::Real(0.2 + 0.9 + 0.5 + 1.0));
        assert_eq!(rows[0][3], SqlValue::Integer(25));
    }

    #[test]
    fn aggregate_over_empty_set() {
        let mut db = db_with_data();
        let rows = db
            .query("SELECT COUNT(*), SUM(cnt) FROM p WHERE cnt > 100")
            .unwrap();
        assert_eq!(rows[0][0], SqlValue::Integer(0));
        assert_eq!(rows[0][1], SqlValue::Null);
    }

    #[test]
    fn update_rows() {
        let mut db = db_with_data();
        let n = db
            .execute("UPDATE p SET cnt = cnt + 1 WHERE service = 'sshd'")
            .unwrap();
        assert_eq!(n.affected(), 2);
        let rows = db
            .query("SELECT SUM(cnt) FROM p WHERE service = 'sshd'")
            .unwrap();
        assert_eq!(rows[0][0], SqlValue::Integer(15));
    }

    #[test]
    fn delete_rows() {
        let mut db = db_with_data();
        assert_eq!(
            db.execute("DELETE FROM p WHERE cnt < 5")
                .unwrap()
                .affected(),
            2
        );
        assert_eq!(
            db.query("SELECT COUNT(*) FROM p").unwrap()[0][0],
            SqlValue::Integer(2)
        );
    }

    #[test]
    fn like_and_in() {
        let mut db = db_with_data();
        assert!(refused(
            &mut db,
            "SELECT id FROM p WHERE service LIKE 'ss%'"
        ));
        assert!(refused(
            &mut db,
            "SELECT id FROM p WHERE service IN ('cron', 'nginx')"
        ));
        assert!(refused(
            &mut db,
            "DELETE FROM p WHERE service NOT LIKE '%n%'"
        ));
    }

    #[test]
    fn null_semantics() {
        let mut db = db_with_data();
        db.execute("INSERT INTO p (id, service) VALUES ('p5', 'x')")
            .unwrap();
        // NULL comparisons exclude the row, `= NULL` included.
        let rows = db.query("SELECT id FROM p WHERE score > 0").unwrap();
        assert_eq!(rows.len(), 4);
        assert!(db
            .query("SELECT id FROM p WHERE score = NULL")
            .unwrap()
            .is_empty());
        // Arithmetic on NULL is NULL, SUM skips it, and it sorts first.
        let rows = db
            .query("SELECT id, score + 1 FROM p ORDER BY score")
            .unwrap();
        assert_eq!(rows[0], vec![text("p5"), SqlValue::Null]);
        let rows = db.query("SELECT SUM(score) FROM p WHERE cnt < 5").unwrap();
        assert_eq!(rows[0][0], SqlValue::Real(0.9 + 1.0));
    }

    #[test]
    fn unique_violation_and_params() {
        let mut db = db_with_data();
        let err = db
            .execute_with(
                "INSERT INTO p (id, service) VALUES (?, ?)",
                &["p1".into(), "x".into()],
            )
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        let err = db.execute_with("INSERT INTO p (id, service) VALUES (?, ?)", &["z".into()]);
        assert!(matches!(err, Err(Error::ParamCount { .. })));
    }

    #[test]
    fn scalar_functions() {
        let mut db = db_with_data();
        for call in [
            "LENGTH(id)",
            "UPPER(id)",
            "COALESCE(score, 0)",
            "ABS(cnt)",
            "MAX(cnt)",
            "AVG(cnt)",
            "COUNT(cnt)",
        ] {
            assert!(refused(&mut db, &format!("SELECT {call} FROM p")), "{call}");
        }
    }

    #[test]
    fn constant_select_and_arith() {
        let mut db = db_with_data();
        // A SELECT reads a table.
        assert!(refused(&mut db, "SELECT 1 + 2"));
        let rows = db
            .query("SELECT cnt + 2 - 1, cnt - -3, score + cnt, 'a' FROM p WHERE id = 'p2'")
            .unwrap();
        assert_eq!(
            rows[0],
            vec![
                SqlValue::Integer(4),
                SqlValue::Integer(6),
                SqlValue::Real(3.9),
                text("a")
            ]
        );
        assert!(matches!(
            db.query("SELECT id + 1 FROM p"),
            Err(Error::Type(_))
        ));
        assert!(refused(&mut db, "SELECT cnt * 2, cnt / 2 FROM p"));
    }

    #[test]
    fn dump_round_trips() {
        let db = {
            let mut db = db_with_data();
            db.execute("INSERT INTO p (id, service, cnt, score) VALUES ('q''uote', 'with ''quotes''', -4, -0.5)")
                .unwrap();
            db
        };
        let stmts = db.dump_statements();
        let mut db2 = Database::in_memory();
        for stmt in &stmts {
            db2.execute(stmt).unwrap();
        }
        assert_eq!(db2.dump_statements(), stmts);
    }

    #[test]
    fn drop_table() {
        let mut db = db_with_data();
        assert!(refused(&mut db, "DROP TABLE p"));
        assert!(refused(&mut db, "DROP TABLE IF EXISTS p"));
    }

    /// `WHERE <unique column> = value` takes the unique index; a filter on
    /// any other column, or any other comparison, scans.
    #[test]
    fn explain_shows_index_probe_vs_scan() {
        let db = db_with_data();
        let t = db.table("p").unwrap();
        let probe = |filter: &str, params: &[SqlValue]| {
            let Statement::Select(sel) =
                parse(&format!("SELECT id FROM p WHERE {filter}")).unwrap()
            else {
                unreachable!()
            };
            Database::index_probe(t, sel.filter.as_ref(), params).unwrap()
        };
        assert_eq!(probe("id = 'p3'", &[]), Some(vec![2]));
        assert_eq!(probe("? = id", &[text("p1")]), Some(vec![0]));
        assert_eq!(probe("id = 'nope'", &[]), Some(vec![]));
        assert_eq!(probe("id = NULL", &[]), Some(vec![]));
        assert_eq!(probe("service = 'sshd'", &[]), None);
        assert_eq!(probe("cnt > 3", &[]), None);
        assert_eq!(probe("id != 'p1'", &[]), None);
        assert_eq!(Database::index_probe(t, None, &[]).unwrap(), None);
    }

    #[test]
    fn bare_count_star_is_the_row_count() {
        let mut db = db_with_data();
        let sel = |sql: &str| match parse(sql).unwrap() {
            Statement::Select(sel) => sel,
            other => panic!("{other:?}"),
        };
        assert!(counts_rows_only(&sel("SELECT COUNT(*) AS n FROM p")));
        assert!(!counts_rows_only(&sel(
            "SELECT COUNT(*) FROM p WHERE cnt > 1"
        )));
        assert!(!counts_rows_only(&sel(
            "SELECT COUNT(*) FROM p GROUP BY service"
        )));
        assert!(!counts_rows_only(&sel("SELECT COUNT(*), SUM(cnt) FROM p")));
        let count =
            |db: &mut Database| db.query("SELECT COUNT(*) AS n FROM p").unwrap()[0][0].clone();
        assert_eq!(count(&mut db), SqlValue::Integer(4));
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO p (id, service) VALUES ('p5', 'x')")
            .unwrap();
        db.execute("INSERT INTO p (id, service) VALUES ('p6', 'x')")
            .unwrap();
        db.execute("DELETE FROM p WHERE id = 'p1'").unwrap();
        assert_eq!(count(&mut db), SqlValue::Integer(5));
        db.execute("ROLLBACK").unwrap();
        assert_eq!(count(&mut db), SqlValue::Integer(4));
        assert!(db.execute("SELECT COUNT(*) FROM nope").is_err());
    }

    #[test]
    fn rollback_restores_state() {
        let mut db = db_with_data();
        db.execute("BEGIN").unwrap();
        assert!(db.in_transaction());
        db.execute("DELETE FROM p").unwrap();
        db.execute("INSERT INTO p (id, service) VALUES ('tmp', 'x')")
            .unwrap();
        assert_eq!(
            db.query("SELECT COUNT(*) FROM p").unwrap()[0][0],
            SqlValue::Integer(1)
        );
        db.execute("ROLLBACK").unwrap();
        assert!(!db.in_transaction());
        assert_eq!(
            db.query("SELECT COUNT(*) FROM p").unwrap()[0][0],
            SqlValue::Integer(4)
        );
        assert!(db
            .query("SELECT id FROM p WHERE id = 'tmp'")
            .unwrap()
            .is_empty());
        // Unique index still consistent after restore.
        assert!(db
            .execute("INSERT INTO p (id, service) VALUES ('p1', 'x')")
            .is_err());
    }

    #[test]
    fn commit_keeps_changes() {
        let mut db = db_with_data();
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE p SET cnt = 0").unwrap();
        db.execute("COMMIT").unwrap();
        assert_eq!(
            db.query("SELECT SUM(cnt) FROM p").unwrap()[0][0],
            SqlValue::Integer(0)
        );
    }

    #[test]
    fn transaction_misuse_errors() {
        let mut db = db_with_data();
        assert!(db.execute("COMMIT").is_err());
        assert!(db.execute("ROLLBACK").is_err());
        db.execute("BEGIN").unwrap();
        assert!(db.execute("BEGIN").is_err());
        db.execute("ROLLBACK").unwrap();
    }

    #[test]
    fn order_by_alias() {
        let mut db = db_with_data();
        let rows = db
            .query("SELECT id, cnt + cnt AS double_cnt FROM p ORDER BY double_cnt DESC")
            .unwrap();
        assert_eq!(rows[0], vec![text("p1"), SqlValue::Integer(20)]);
        assert_eq!(rows[3][0], text("p4"));
    }

    /// `ALTER TABLE … ADD` gives every row the default, is reversed by
    /// `ROLLBACK`, and survives WAL replay and the dump.
    #[test]
    fn add_column_fills_rows_and_rolls_back() {
        let dir = std::env::temp_dir().join(format!("minisql-alter-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE p (id TEXT PRIMARY KEY, cnt INTEGER)")
            .unwrap();
        db.execute("INSERT INTO p VALUES ('a', 1)").unwrap();
        let before = db.dump();
        db.execute("BEGIN").unwrap();
        db.execute("ALTER TABLE p ADD COLUMN body TEXT DEFAULT 'it''s'")
            .unwrap();
        db.execute("UPDATE p SET body = 'x' WHERE id = 'a'")
            .unwrap();
        db.execute("ROLLBACK").unwrap();
        assert_eq!(db.dump(), before);

        db.execute("BEGIN").unwrap();
        db.execute("ALTER TABLE p ADD body TEXT DEFAULT 'it''s'")
            .unwrap();
        db.execute("INSERT INTO p (id, cnt) VALUES ('b', 2)")
            .unwrap();
        db.execute("COMMIT").unwrap();
        assert!(matches!(
            db.execute("ALTER TABLE p ADD body TEXT"),
            Err(Error::Parse(_))
        ));
        assert!(matches!(
            db.execute("ALTER TABLE q ADD body TEXT"),
            Err(Error::NoSuchTable(_))
        ));
        let rows = db.query("SELECT id, body FROM p ORDER BY id").unwrap();
        assert_eq!(
            rows,
            vec![vec![text("a"), text("it's")], vec![text("b"), text("it's")]]
        );
        let live = db.dump();
        assert!(live.contains("body TEXT DEFAULT 'it''s'"), "{live}");
        drop(db);
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(db.dump(), live, "replayed from the WAL");
        db.checkpoint().unwrap();
        drop(db);
        assert_eq!(
            Database::open(&dir).unwrap().dump(),
            live,
            "from the snapshot"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A COMMIT whose fsync fails is not durable, so it is undone like a
    /// failed write, and its bytes are cut back out of the file.
    #[test]
    fn a_failed_wal_sync_undoes_the_commit() {
        let dir = std::env::temp_dir().join(format!("minisql-sync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, body TEXT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'kept')").unwrap();
        let before = db.dump();
        let wal_len = std::fs::metadata(dir.join("wal.sql")).unwrap().len();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (2, 'unsynced')").unwrap();
        crate::log::inject(Some(crate::log::Fault::Sync));
        assert!(matches!(db.execute("COMMIT"), Err(Error::Io(_))));
        assert_eq!(db.dump(), before, "a commit that is not durable is undone");
        assert_eq!(
            std::fs::metadata(dir.join("wal.sql")).unwrap().len(),
            wal_len
        );
        db.execute("INSERT INTO t VALUES (3, 'synced')").unwrap();
        drop(db);
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(
            db.query("SELECT id, body FROM t ORDER BY id").unwrap(),
            vec![
                vec![SqlValue::Integer(1), text("kept")],
                vec![SqlValue::Integer(3), text("synced")],
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A COMMIT whose WAL append fails after part of the group reached the
    /// file: the torn bytes are cut back out, so the retried commit that
    /// follows is replayed, and nothing after it is hidden.
    #[test]
    fn a_failed_wal_append_is_cut_back_out_of_the_file() {
        let dir = std::env::temp_dir().join(format!("minisql-tear-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, body TEXT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'kept')").unwrap();
        let before = db.dump();
        for torn in [0, 3, 20] {
            db.execute("BEGIN").unwrap();
            db.execute("INSERT INTO t VALUES (2, 'torn')").unwrap();
            crate::log::inject(Some(crate::log::Fault::TornWrite(torn)));
            assert!(matches!(db.execute("COMMIT"), Err(Error::Io(_))));
            assert_eq!(db.dump(), before, "a commit that is not durable is undone");
        }
        // A plain frame is cut back out the same way (the statement itself
        // stays applied in memory: only a COMMIT is undone).
        crate::log::inject(Some(crate::log::Fault::TornWrite(5)));
        assert!(db.execute("INSERT INTO t VALUES (4, 'plain')").is_err());
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (3, 'retried')").unwrap();
        db.execute("COMMIT").unwrap();
        drop(db);
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(
            db.query("SELECT id, body FROM t ORDER BY id").unwrap(),
            vec![
                vec![SqlValue::Integer(1), text("kept")],
                vec![SqlValue::Integer(3), text("retried")],
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
