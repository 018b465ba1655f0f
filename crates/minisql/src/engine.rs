//! Statement execution.

use crate::ast::*;
use crate::error::Error;
use crate::parser::parse;
use crate::table::Table;
use crate::value::SqlValue;
use crate::wal::{self, Wal};
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
    /// The rows, if this is a SELECT result.
    pub fn rows(&self) -> &[Vec<SqlValue>] {
        match self {
            ExecResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

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
/// the WAL as one all-or-nothing group. A multi-row `INSERT` that fails
/// half-way keeps the rows before the failing one, and exactly their undo
/// entries. There is a single transaction scope (no nesting), matching what
/// the pattern store needs for atomic batch commits.
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
/// destructive statement (`DELETE`, `DROP`/`CREATE TABLE`, an `UPDATE` that
/// assigns a unique column) saves a before-image of the whole table, and
/// nothing after it — the image already reverses whatever follows, so a
/// transaction holds at most one per table.
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

    /// `true` while a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Open (or create) a persistent database rooted at `path`. `path` is a
    /// directory: `snapshot.sql` holds the last checkpoint, `wal.sql` the
    /// statements since.
    pub fn open(path: impl AsRef<Path>) -> Result<Database, Error> {
        let mut db = Database::in_memory();
        let wal = Wal::open(path.as_ref())?;
        for stmt in wal.recover()? {
            // Replay without re-logging.
            db.execute_internal(&stmt, &[], false)?;
        }
        db.wal = Some(wal);
        Ok(db)
    }

    /// Names of the existing tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
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
        Ok(match self.execute(sql)? {
            ExecResult::Rows { rows, .. } => rows,
            _ => Vec::new(),
        })
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

    fn execute_internal(
        &mut self,
        sql: &str,
        params: &[SqlValue],
        log: bool,
    ) -> Result<ExecResult, Error> {
        let stmt = parse(sql)?;
        let result = match &stmt {
            Statement::Explain(inner) => {
                return Ok(ExecResult::Rows {
                    columns: vec!["plan".to_string()],
                    rows: self
                        .explain(inner, params)?
                        .into_iter()
                        .map(|line| vec![SqlValue::Text(line)])
                        .collect(),
                });
            }
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
                if self.tables.contains_key(name) {
                    if *if_not_exists {
                        return Ok(ExecResult::None);
                    }
                    return Err(Error::TableExists(name.clone()));
                }
                keep_image(&mut self.txn, name, || None);
                self.tables
                    .insert(name.clone(), Table::new(name.clone(), columns.clone()));
                ExecResult::None
            }
            Statement::DropTable { name, if_exists } => {
                match self.tables.remove(name) {
                    Some(dropped) => keep_image(&mut self.txn, name, || Some(dropped)),
                    None if *if_exists => {}
                    None => return Err(Error::NoSuchTable(name.clone())),
                }
                ExecResult::None
            }
            Statement::Insert {
                table,
                columns,
                rows,
                or_replace,
            } => {
                let n = self.run_insert(table, columns, rows, *or_replace, params)?;
                ExecResult::Affected(n)
            }
            Statement::Select(sel) => self.run_select(sel, params)?,
            Statement::Update {
                table,
                sets,
                filter,
            } => ExecResult::Affected(self.run_update(table, sets, filter.as_ref(), params)?),
            Statement::Delete { table, filter } => {
                ExecResult::Affected(self.run_delete(table, filter.as_ref(), params)?)
            }
        };
        if log && !matches!(stmt, Statement::Select(_)) {
            match &mut self.txn {
                // Inside a transaction, buffer the rendered statement; it
                // only reaches the WAL at COMMIT (rollbacks leave no trace).
                Some(txn) if self.wal.is_some() => {
                    wal::write_frame(&mut txn.wal_frames, &wal::render_statement(sql, params)?)?;
                }
                _ => {
                    if let Some(wal) = &mut self.wal {
                        wal.log(sql, params)?;
                    }
                }
            }
        }
        Ok(result)
    }

    /// Describe the access plan of a statement (the `EXPLAIN` output).
    fn explain(&self, stmt: &Statement, params: &[SqlValue]) -> Result<Vec<String>, Error> {
        let mut lines = Vec::new();
        let access = |t: &Table, filter: Option<&Expr>| -> Result<String, Error> {
            Ok(match Self::index_probe(t, filter, params)? {
                Some(_) => format!("INDEX PROBE {} (unique point lookup)", t.name),
                None => format!("SCAN {} ({} rows)", t.name, t.rows.len()),
            })
        };
        match stmt {
            Statement::Select(sel) => {
                match &sel.table {
                    Some(name) if row_count_item(sel).is_some() => {
                        lines.push(format!("ROW COUNT {name} (no scan)"));
                        return Ok(lines);
                    }
                    Some(name) => lines.push(access(self.table(name)?, sel.filter.as_ref())?),
                    None => lines.push("CONSTANT (no table)".to_string()),
                }
                if sel.filter.is_some() {
                    lines.push("FILTER (where clause)".to_string());
                }
                if !sel.group_by.is_empty()
                    || sel.items.iter().any(|it| matches!(&it.expr, Expr::Call(n, _) if matches!(n.as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")))
                {
                    lines.push("AGGREGATE (group by / aggregate functions)".to_string());
                }
                if sel.having.is_some() {
                    lines.push("HAVING (group filter)".to_string());
                }
                if !sel.order_by.is_empty() {
                    lines.push(format!("SORT ({} keys)", sel.order_by.len()));
                }
                if sel.limit.is_some() || sel.offset.is_some() {
                    lines.push("LIMIT/OFFSET".to_string());
                }
            }
            Statement::Update { table, filter, .. } => {
                lines.push(access(self.table(table)?, filter.as_ref())?);
                lines.push("UPDATE".to_string());
            }
            Statement::Delete { table, filter } => {
                lines.push(access(self.table(table)?, filter.as_ref())?);
                lines.push("DELETE".to_string());
            }
            Statement::Insert { table, .. } => {
                lines.push(format!("INSERT INTO {table}"));
            }
            other => lines.push(format!("{other:?}")),
        }
        Ok(lines)
    }

    fn table(&self, name: &str) -> Result<&Table, Error> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, Error> {
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
        rows: &[Vec<Expr>],
        or_replace: bool,
        params: &[SqlValue],
    ) -> Result<usize, Error> {
        // Evaluate all rows before mutating (statement atomicity for the
        // common single-row case; multi-row inserts fail fast).
        let t = self.table(table)?;
        let col_indices: Vec<usize> = if columns.is_empty() {
            (0..t.columns.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| t.column_index(c))
                .collect::<Result<_, _>>()?
        };
        let defaults: Vec<SqlValue> = t
            .columns
            .iter()
            .map(|c| c.default.clone().unwrap_or(SqlValue::Null))
            .collect();
        let mut evaluated = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != col_indices.len() {
                return Err(Error::ArityMismatch {
                    expected: col_indices.len(),
                    got: row.len(),
                });
            }
            let mut full = defaults.clone();
            for (expr, &ci) in row.iter().zip(&col_indices) {
                full[ci] = eval(expr, None, params)?;
            }
            evaluated.push(full);
        }
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::NoSuchTable(table.to_string()))?;
        let mut log = row_log(&mut self.txn, table);
        let mut n = 0;
        for row in evaluated {
            let replaced = t.insert(row, or_replace)?;
            if let Some(log) = &mut log {
                log.push(match replaced {
                    None => RowUndo::Appended,
                    Some((row, before)) => RowUndo::Cells {
                        row,
                        before: before.into_iter().enumerate().collect(),
                    },
                });
            }
            n += 1;
        }
        Ok(n)
    }

    /// Detect a `WHERE unique_col = literal/param` filter and resolve it via
    /// the unique index, returning the matching row indices (zero or one).
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
            true => Ok(Some(t.lookup_unique(col, &value).into_iter().collect())),
        }
    }

    /// Collect every column reference in an expression tree.
    fn collect_columns<'e>(e: &'e Expr, out: &mut Vec<&'e str>) {
        match e {
            Expr::Column(c) => out.push(c),
            Expr::Unary(_, inner) | Expr::IsNull(inner, _) => Self::collect_columns(inner, out),
            Expr::Binary(l, _, r) | Expr::Like(l, r, _) => {
                Self::collect_columns(l, out);
                Self::collect_columns(r, out);
            }
            Expr::InList(lhs, list, _) => {
                Self::collect_columns(lhs, out);
                for item in list {
                    Self::collect_columns(item, out);
                }
            }
            Expr::Call(_, args) => {
                for a in args {
                    Self::collect_columns(a, out);
                }
            }
            Expr::Literal(_) | Expr::Param(_) | Expr::Star => {}
        }
    }

    fn run_select(&self, sel: &SelectStmt, params: &[SqlValue]) -> Result<ExecResult, Error> {
        // Constant query without FROM.
        let table = match &sel.table {
            Some(name) => Some(self.table(name)?),
            None => None,
        };
        // Validate column references up front, so a bad projection fails even
        // on an empty table (ORDER BY is exempt: it may name aliases).
        if let Some(t) = table {
            let mut cols = Vec::new();
            for it in &sel.items {
                Self::collect_columns(&it.expr, &mut cols);
            }
            if let Some(f) = &sel.filter {
                Self::collect_columns(f, &mut cols);
            }
            for g in &sel.group_by {
                Self::collect_columns(g, &mut cols);
            }
            if let Some(h) = &sel.having {
                Self::collect_columns(h, &mut cols);
            }
            for c in cols {
                t.column_index(c)?;
            }
        }
        if let (Some(t), Some(item)) = (table, row_count_item(sel)) {
            return Ok(ExecResult::Rows {
                columns: vec![item.alias.clone().unwrap_or_else(|| expr_name(&item.expr))],
                rows: vec![vec![SqlValue::Integer(t.rows.len() as i64)]],
            });
        }
        let aggregate =
            sel.items.iter().any(|it| contains_aggregate(&it.expr)) || !sel.group_by.is_empty();

        // Header names.
        let mut headers = Vec::new();
        for it in &sel.items {
            headers.push(match (&it.alias, &it.expr) {
                (Some(a), _) => a.clone(),
                (None, Expr::Column(c)) => c.clone(),
                (None, Expr::Star) => "*".to_string(),
                (None, e) => expr_name(e),
            });
        }

        let source_rows: Vec<&Vec<SqlValue>> = match table {
            Some(t) => {
                // Unique-index fast path for point lookups (`WHERE id = ?`),
                // the pattern store's hottest query.
                if let Some(hits) = Self::index_probe(t, sel.filter.as_ref(), params)? {
                    hits.into_iter().map(|i| &t.rows[i]).collect()
                } else {
                    let mut v = Vec::new();
                    for row in &t.rows {
                        let keep = match &sel.filter {
                            Some(f) => truthy(&eval(f, Some((t, row)), params)?),
                            None => true,
                        };
                        if keep {
                            v.push(row);
                        }
                    }
                    v
                }
            }
            None => Vec::new(),
        };

        let mut out: Vec<(Vec<SqlValue>, Vec<SqlValue>)> = Vec::new(); // (sort keys, projection)
        if aggregate {
            let t = table.ok_or_else(|| Error::Parse("aggregate query requires FROM".into()))?;
            // Group rows.
            let mut groups: Vec<(String, Vec<&Vec<SqlValue>>)> = Vec::new();
            let mut group_index: HashMap<String, usize> = HashMap::new();
            for row in &source_rows {
                let mut key = String::new();
                for g in &sel.group_by {
                    key.push_str(&format!("{:?}|", eval(g, Some((t, row)), params)?));
                }
                let idx = *group_index.entry(key.clone()).or_insert_with(|| {
                    groups.push((key.clone(), Vec::new()));
                    groups.len() - 1
                });
                groups[idx].1.push(row);
            }
            if groups.is_empty() && sel.group_by.is_empty() {
                // Aggregate over an empty set still yields one row.
                groups.push((String::new(), Vec::new()));
            }
            for (_, rows) in &groups {
                if let Some(h) = &sel.having {
                    if !truthy(&eval_aggregate(h, t, rows, params)?) {
                        continue;
                    }
                }
                let mut projected = Vec::new();
                for it in &sel.items {
                    projected.push(eval_aggregate(&it.expr, t, rows, params)?);
                }
                // Sort keys: resolve against aliases/projection first, then
                // the first row of the group.
                let mut keys = Vec::new();
                for k in &sel.order_by {
                    keys.push(resolve_order_key(
                        &k.expr,
                        &headers,
                        &projected,
                        t,
                        rows.first().copied(),
                        params,
                    )?);
                }
                out.push((keys, projected));
            }
        } else if let Some(t) = table {
            for row in &source_rows {
                let mut projected = Vec::new();
                for it in &sel.items {
                    if matches!(it.expr, Expr::Star) {
                        projected.extend(row.iter().cloned());
                    } else {
                        projected.push(eval(&it.expr, Some((t, row)), params)?);
                    }
                }
                let mut keys = Vec::new();
                for k in &sel.order_by {
                    keys.push(resolve_order_key(
                        &k.expr,
                        &headers,
                        &projected,
                        t,
                        Some(row),
                        params,
                    )?);
                }
                out.push((keys, projected));
            }
        } else {
            // SELECT of constants.
            let mut projected = Vec::new();
            for it in &sel.items {
                projected.push(eval(&it.expr, None, params)?);
            }
            out.push((Vec::new(), projected));
        }

        // ORDER BY.
        if !sel.order_by.is_empty() {
            let desc: Vec<bool> = sel.order_by.iter().map(|k| k.desc).collect();
            out.sort_by(|a, b| {
                for (i, (ka, kb)) in a.0.iter().zip(b.0.iter()).enumerate() {
                    let ord = ka.total_cmp(kb);
                    let ord = if desc[i] { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        // Expand `*` headers.
        let columns = if sel.items.iter().any(|it| matches!(it.expr, Expr::Star)) {
            match table {
                Some(t) => {
                    let mut h = Vec::new();
                    for it in &sel.items {
                        if matches!(it.expr, Expr::Star) {
                            h.extend(t.columns.iter().map(|c| c.name.clone()));
                        } else {
                            h.push(
                                headers
                                    [sel.items.iter().position(|x| std::ptr::eq(x, it)).unwrap()]
                                .clone(),
                            );
                        }
                    }
                    h
                }
                None => headers,
            }
        } else {
            headers
        };

        let offset = sel.offset.unwrap_or(0);
        let limit = sel.limit.unwrap_or(usize::MAX);
        let rows: Vec<Vec<SqlValue>> = out
            .into_iter()
            .map(|(_, r)| r)
            .skip(offset)
            .take(limit)
            .collect();
        Ok(ExecResult::Rows { columns, rows })
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
        // Collect updates first (borrow rules + atomic evaluation), using
        // the unique-index fast path for point updates.
        let mut updates: Vec<(usize, Vec<SqlValue>)> = Vec::new();
        let candidates: Vec<usize> = match Self::index_probe(t, filter, params)? {
            Some(hits) => hits,
            None => (0..t.rows.len()).collect(),
        };
        for row_idx in candidates {
            let row = &t.rows[row_idx];
            let keep = match filter {
                Some(f) => truthy(&eval(f, Some((t, row)), params)?),
                None => true,
            };
            if keep {
                let mut vals = Vec::new();
                for (_, e) in sets {
                    vals.push(eval(e, Some((t, row)), params)?);
                }
                updates.push((row_idx, vals));
            }
        }
        let n = updates.len();
        // Rebuilding the unique indexes is only needed when a constrained
        // column was assigned.
        let touches_unique = set_indices
            .iter()
            .any(|&ci| t.columns[ci].unique || t.columns[ci].primary_key);
        if touches_unique && n > 0 {
            keep_image(&mut self.txn, table, || self.tables.get(table).cloned());
        }
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::NoSuchTable(table.to_string()))?;
        let mut changed = Vec::with_capacity(n);
        for (row, vals) in updates {
            let before: Vec<(usize, SqlValue)> = set_indices
                .iter()
                .zip(vals)
                .map(|(ci, v)| (*ci, t.set(row, *ci, v)))
                .collect();
            changed.push((row, before));
        }
        if touches_unique {
            if let Err(e) = t.rebuild_indexes() {
                // The statement fails as a whole: rows back, indexes again.
                for (row, before) in changed.into_iter().rev() {
                    for (col, v) in before.into_iter().rev() {
                        t.rows[row][col] = v;
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
        let t = self.table(table)?;
        let mut to_delete = Vec::new();
        let candidates: Vec<usize> = match Self::index_probe(t, filter, params)? {
            Some(hits) => hits,
            None => (0..t.rows.len()).collect(),
        };
        for row_idx in candidates {
            let row = &t.rows[row_idx];
            let hit = match filter {
                Some(f) => truthy(&eval(f, Some((t, row)), params)?),
                None => true,
            };
            if hit {
                to_delete.push(row_idx);
            }
        }
        let n = to_delete.len();
        if n > 0 {
            keep_image(&mut self.txn, table, || self.tables.get(table).cloned());
            self.table_mut(table)?.delete_rows(&to_delete);
        }
        Ok(n)
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
                push_literal(&mut out, d);
            }
        }
        out.push(')');
        sink(&out);
        for row in &t.rows {
            out.clear();
            out.push_str("INSERT INTO ");
            out.push_str(&t.name);
            out.push_str(" VALUES (");
            for (i, v) in row.iter().enumerate() {
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
    push_literal(&mut out, v);
    out
}

/// Append a value's SQL literal to `out`.
fn push_literal(out: &mut String, v: &SqlValue) {
    use std::fmt::Write;
    match v {
        SqlValue::Null => out.push_str("NULL"),
        SqlValue::Integer(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
        SqlValue::Real(r) => {
            if r.fract() == 0.0 && r.is_finite() {
                write!(out, "{r:.1}")
            } else {
                write!(out, "{r}")
            }
            .expect("writing to a String cannot fail");
        }
        SqlValue::Text(s) => {
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

/// The single projected item of a bare `SELECT COUNT(*) FROM t` — answered
/// from the row store's length, so what it costs does not grow with the
/// table (`seqd` asks for the pattern count on every `/stats` request).
fn row_count_item(sel: &SelectStmt) -> Option<&SelectItem> {
    let [item] = sel.items.as_slice() else {
        return None;
    };
    let count_star = matches!(&item.expr, Expr::Call(name, args)
        if name == "COUNT" && matches!(args.as_slice(), [] | [Expr::Star]));
    let bare = sel.filter.is_none()
        && sel.group_by.is_empty()
        && sel.having.is_none()
        && sel.limit.is_none()
        && sel.offset.is_none();
    (count_star && bare).then_some(item)
}

fn expr_name(e: &Expr) -> String {
    match e {
        Expr::Call(name, _) => name.to_ascii_lowercase(),
        _ => "expr".to_string(),
    }
}

/// SQL truthiness: NULL and 0 are false.
fn truthy(v: &SqlValue) -> bool {
    match v {
        SqlValue::Null => false,
        SqlValue::Integer(i) => *i != 0,
        SqlValue::Real(r) => *r != 0.0,
        SqlValue::Text(s) => !s.is_empty(),
    }
}

fn bool_val(b: bool) -> SqlValue {
    SqlValue::Integer(if b { 1 } else { 0 })
}

/// Evaluate a row-level expression.
fn eval(
    e: &Expr,
    row: Option<(&Table, &[SqlValue])>,
    params: &[SqlValue],
) -> Result<SqlValue, Error> {
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => params.get(*i).cloned().ok_or(Error::ParamCount {
            expected: *i + 1,
            got: params.len(),
        }),
        Expr::Column(name) => match row {
            Some((t, r)) => Ok(r[t.column_index(name)?].clone()),
            None => Err(Error::NoSuchColumn(name.clone())),
        },
        Expr::Star => Err(Error::Parse(
            "* is only valid in COUNT(*) or as a projection".into(),
        )),
        Expr::Unary(UnaryOp::Neg, inner) => {
            let v = eval(inner, row, params)?;
            match v {
                SqlValue::Null => Ok(SqlValue::Null),
                SqlValue::Integer(i) => Ok(SqlValue::Integer(-i)),
                SqlValue::Real(r) => Ok(SqlValue::Real(-r)),
                SqlValue::Text(_) => Err(Error::Type("cannot negate text".into())),
            }
        }
        Expr::Unary(UnaryOp::Not, inner) => {
            let v = eval(inner, row, params)?;
            if v.is_null() {
                Ok(SqlValue::Null)
            } else {
                Ok(bool_val(!truthy(&v)))
            }
        }
        Expr::Binary(l, op, r) => {
            let lv = eval(l, row, params)?;
            // Short-circuit AND/OR.
            match op {
                BinOp::And => {
                    if !lv.is_null() && !truthy(&lv) {
                        return Ok(bool_val(false));
                    }
                    let rv = eval(r, row, params)?;
                    if lv.is_null() || rv.is_null() {
                        return Ok(SqlValue::Null);
                    }
                    return Ok(bool_val(truthy(&lv) && truthy(&rv)));
                }
                BinOp::Or => {
                    if truthy(&lv) {
                        return Ok(bool_val(true));
                    }
                    let rv = eval(r, row, params)?;
                    if lv.is_null() || rv.is_null() {
                        return Ok(SqlValue::Null);
                    }
                    return Ok(bool_val(truthy(&lv) || truthy(&rv)));
                }
                _ => {}
            }
            let rv = eval(r, row, params)?;
            eval_binop(&lv, *op, &rv)
        }
        Expr::IsNull(inner, negated) => {
            let v = eval(inner, row, params)?;
            Ok(bool_val(v.is_null() != *negated))
        }
        Expr::InList(lhs, list, negated) => {
            let v = eval(lhs, row, params)?;
            if v.is_null() {
                return Ok(SqlValue::Null);
            }
            let mut found = false;
            for item in list {
                let iv = eval(item, row, params)?;
                if v.sql_eq(&iv) {
                    found = true;
                    break;
                }
            }
            Ok(bool_val(found != *negated))
        }
        Expr::Like(lhs, pat, negated) => {
            let v = eval(lhs, row, params)?;
            let p = eval(pat, row, params)?;
            match (v, p) {
                (SqlValue::Null, _) | (_, SqlValue::Null) => Ok(SqlValue::Null),
                (a, b) => {
                    let s = a.to_string();
                    let pat = b.to_string();
                    Ok(bool_val(like_match(&s, &pat) != *negated))
                }
            }
        }
        Expr::Call(name, args) => eval_scalar_call(name, args, row, params),
    }
}

fn eval_binop(l: &SqlValue, op: BinOp, r: &SqlValue) -> Result<SqlValue, Error> {
    use BinOp::*;
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => {
            let ord = match l.compare(r) {
                Some(o) => o,
                None => return Ok(SqlValue::Null),
            };
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Ne => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(bool_val(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(SqlValue::Null);
            }
            match (l, r) {
                (SqlValue::Integer(a), SqlValue::Integer(b)) => Ok(match op {
                    Add => SqlValue::Integer(a.wrapping_add(*b)),
                    Sub => SqlValue::Integer(a.wrapping_sub(*b)),
                    Mul => SqlValue::Integer(a.wrapping_mul(*b)),
                    Div => {
                        if *b == 0 {
                            SqlValue::Null
                        } else {
                            SqlValue::Integer(a / b)
                        }
                    }
                    _ => unreachable!(),
                }),
                _ => {
                    let a = l
                        .as_real()
                        .ok_or_else(|| Error::Type("arith on text".into()))?;
                    let b = r
                        .as_real()
                        .ok_or_else(|| Error::Type("arith on text".into()))?;
                    Ok(match op {
                        Add => SqlValue::Real(a + b),
                        Sub => SqlValue::Real(a - b),
                        Mul => SqlValue::Real(a * b),
                        Div => {
                            if b == 0.0 {
                                SqlValue::Null
                            } else {
                                SqlValue::Real(a / b)
                            }
                        }
                        _ => unreachable!(),
                    })
                }
            }
        }
        Concat => {
            if l.is_null() || r.is_null() {
                return Ok(SqlValue::Null);
            }
            Ok(SqlValue::Text(format!("{l}{r}")))
        }
        And | Or => unreachable!("handled by eval"),
    }
}

/// SQL LIKE with `%` and `_`, ASCII case-insensitive.
fn like_match(s: &str, pat: &str) -> bool {
    fn inner(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Try all splits.
                for i in 0..=s.len() {
                    if inner(&s[i..], &p[1..]) {
                        return true;
                    }
                }
                false
            }
            Some(b'_') => !s.is_empty() && inner(&s[1..], &p[1..]),
            Some(&c) => !s.is_empty() && s[0].eq_ignore_ascii_case(&c) && inner(&s[1..], &p[1..]),
        }
    }
    inner(s.as_bytes(), pat.as_bytes())
}

fn eval_scalar_call(
    name: &str,
    args: &[Expr],
    row: Option<(&Table, &[SqlValue])>,
    params: &[SqlValue],
) -> Result<SqlValue, Error> {
    match name {
        "LENGTH" => {
            let v = eval(
                args.first()
                    .ok_or_else(|| Error::Parse("LENGTH needs 1 arg".into()))?,
                row,
                params,
            )?;
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                other => SqlValue::Integer(other.to_string().chars().count() as i64),
            })
        }
        "LOWER" | "UPPER" => {
            let v = eval(
                args.first()
                    .ok_or_else(|| Error::Parse("needs 1 arg".into()))?,
                row,
                params,
            )?;
            Ok(match v {
                SqlValue::Text(s) => SqlValue::Text(if name == "LOWER" {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                }),
                other => other,
            })
        }
        "ABS" => {
            let v = eval(
                args.first()
                    .ok_or_else(|| Error::Parse("ABS needs 1 arg".into()))?,
                row,
                params,
            )?;
            Ok(match v {
                SqlValue::Integer(i) => SqlValue::Integer(i.abs()),
                SqlValue::Real(r) => SqlValue::Real(r.abs()),
                other => other,
            })
        }
        "COALESCE" => {
            for a in args {
                let v = eval(a, row, params)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(SqlValue::Null)
        }
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" => {
            Err(Error::Parse(format!("aggregate {name} not allowed here")))
        }
        other => Err(Error::Parse(format!("unknown function {other}"))),
    }
}

fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Call(name, args) => is_aggregate_name(name) || args.iter().any(contains_aggregate),
        Expr::Unary(_, inner) => contains_aggregate(inner),
        Expr::Binary(l, _, r) => contains_aggregate(l) || contains_aggregate(r),
        Expr::IsNull(inner, _) => contains_aggregate(inner),
        Expr::InList(lhs, list, _) => {
            contains_aggregate(lhs) || list.iter().any(contains_aggregate)
        }
        Expr::Like(l, p, _) => contains_aggregate(l) || contains_aggregate(p),
        _ => false,
    }
}

/// Evaluate a projection expression in aggregate context: aggregate calls
/// fold over the group's rows; everything else evaluates on the group's
/// first row.
fn eval_aggregate(
    e: &Expr,
    t: &Table,
    rows: &[&Vec<SqlValue>],
    params: &[SqlValue],
) -> Result<SqlValue, Error> {
    match e {
        Expr::Call(name, args) if is_aggregate_name(name) => {
            let mut values = Vec::new();
            let star = args.first().map_or(true, |a| matches!(a, Expr::Star));
            for row in rows {
                if star {
                    values.push(SqlValue::Integer(1));
                } else {
                    let v = eval(&args[0], Some((t, row)), params)?;
                    if !v.is_null() {
                        values.push(v);
                    }
                }
            }
            Ok(match name.to_ascii_uppercase().as_str() {
                "COUNT" => SqlValue::Integer(values.len() as i64),
                "SUM" | "AVG" => {
                    if values.is_empty() {
                        SqlValue::Null
                    } else {
                        let all_int = values.iter().all(|v| matches!(v, SqlValue::Integer(_)));
                        let sum: f64 = values.iter().filter_map(|v| v.as_real()).sum();
                        if name == "AVG" {
                            SqlValue::Real(sum / values.len() as f64)
                        } else if all_int {
                            SqlValue::Integer(sum as i64)
                        } else {
                            SqlValue::Real(sum)
                        }
                    }
                }
                "MIN" => values
                    .into_iter()
                    .min_by(|a, b| a.total_cmp(b))
                    .unwrap_or(SqlValue::Null),
                "MAX" => values
                    .into_iter()
                    .max_by(|a, b| a.total_cmp(b))
                    .unwrap_or(SqlValue::Null),
                _ => unreachable!(),
            })
        }
        Expr::Binary(l, op, r) => {
            let lv = eval_aggregate(l, t, rows, params)?;
            let rv = eval_aggregate(r, t, rows, params)?;
            eval_binop(&lv, *op, &rv)
        }
        Expr::Unary(op, inner) => {
            let v = eval_aggregate(inner, t, rows, params)?;
            match op {
                UnaryOp::Neg => eval_binop(&SqlValue::Integer(0), BinOp::Sub, &v),
                UnaryOp::Not => Ok(if v.is_null() {
                    SqlValue::Null
                } else {
                    bool_val(!truthy(&v))
                }),
            }
        }
        other => match rows.first() {
            Some(row) => eval(other, Some((t, row)), params),
            None => Ok(SqlValue::Null),
        },
    }
}

/// Resolve an ORDER BY key: an alias or projected column name refers to the
/// projection; otherwise the expression is evaluated on the source row.
fn resolve_order_key(
    e: &Expr,
    headers: &[String],
    projected: &[SqlValue],
    t: &Table,
    row: Option<&Vec<SqlValue>>,
    params: &[SqlValue],
) -> Result<SqlValue, Error> {
    if let Expr::Column(name) = e {
        if let Some(pos) = headers.iter().position(|h| h.eq_ignore_ascii_case(name)) {
            if pos < projected.len() {
                return Ok(projected[pos].clone());
            }
        }
    }
    match row {
        Some(r) => eval(e, Some((t, r)), params),
        None => Ok(SqlValue::Null),
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

    #[test]
    fn select_where_order_limit() {
        let mut db = db_with_data();
        let rows = db
            .query("SELECT id FROM p WHERE cnt > 1 ORDER BY cnt DESC LIMIT 2")
            .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![SqlValue::Text("p1".into())],
                vec![SqlValue::Text("p3".into())]
            ]
        );
    }

    #[test]
    fn select_star() {
        let mut db = db_with_data();
        match db.execute("SELECT * FROM p WHERE id = 'p4'").unwrap() {
            ExecResult::Rows { columns, rows } => {
                assert_eq!(columns, vec!["id", "service", "cnt", "score"]);
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0][1], SqlValue::Text("cron".into()));
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

    #[test]
    fn aggregate_without_group() {
        let mut db = db_with_data();
        let rows = db
            .query("SELECT COUNT(*), MIN(cnt), MAX(score), AVG(cnt) FROM p")
            .unwrap();
        assert_eq!(rows[0][0], SqlValue::Integer(4));
        assert_eq!(rows[0][1], SqlValue::Integer(1));
        assert_eq!(rows[0][2], SqlValue::Real(1.0));
        assert_eq!(rows[0][3], SqlValue::Real(21.0 / 4.0));
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
    fn insert_or_replace_updates_row() {
        let mut db = db_with_data();
        db.execute("INSERT OR REPLACE INTO p (id, service, cnt) VALUES ('p1', 'sshd', 999)")
            .unwrap();
        let rows = db
            .query("SELECT cnt, score FROM p WHERE id = 'p1'")
            .unwrap();
        assert_eq!(rows[0][0], SqlValue::Integer(999));
        // Unspecified column falls back to its default (NULL here).
        assert_eq!(rows[0][1], SqlValue::Null);
        assert_eq!(
            db.query("SELECT COUNT(*) FROM p").unwrap()[0][0],
            SqlValue::Integer(4)
        );
    }

    #[test]
    fn like_and_in() {
        let mut db = db_with_data();
        let rows = db
            .query("SELECT id FROM p WHERE service LIKE 'ss%'")
            .unwrap();
        assert_eq!(rows.len(), 2);
        let rows = db
            .query("SELECT id FROM p WHERE service IN ('cron', 'nginx') ORDER BY id")
            .unwrap();
        assert_eq!(rows.len(), 2);
        let rows = db
            .query("SELECT id FROM p WHERE service NOT LIKE '%n%' ORDER BY id")
            .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![SqlValue::Text("p1".into())],
                vec![SqlValue::Text("p2".into())]
            ]
        );
    }

    #[test]
    fn null_semantics() {
        let mut db = db_with_data();
        db.execute("INSERT INTO p (id, service) VALUES ('p5', 'x')")
            .unwrap();
        // score IS NULL for p5 only.
        let rows = db.query("SELECT id FROM p WHERE score IS NULL").unwrap();
        assert_eq!(rows, vec![vec![SqlValue::Text("p5".into())]]);
        // NULL comparisons exclude the row.
        let rows = db.query("SELECT id FROM p WHERE score > 0").unwrap();
        assert_eq!(rows.len(), 4);
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
        let mut db = Database::in_memory();
        let rows = db
            .query("SELECT LENGTH('hello'), UPPER('ab'), COALESCE(NULL, 3), ABS(-4)")
            .unwrap();
        assert_eq!(
            rows[0],
            vec![
                SqlValue::Integer(5),
                SqlValue::Text("AB".into()),
                SqlValue::Integer(3),
                SqlValue::Integer(4)
            ]
        );
    }

    #[test]
    fn constant_select_and_arith() {
        let mut db = Database::in_memory();
        let rows = db
            .query("SELECT 1 + 2 * 3, 'a' || 'b', 7 / 2, 7.0 / 2")
            .unwrap();
        assert_eq!(
            rows[0],
            vec![
                SqlValue::Integer(7),
                SqlValue::Text("ab".into()),
                SqlValue::Integer(3),
                SqlValue::Real(3.5)
            ]
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        let mut db = Database::in_memory();
        assert_eq!(db.query("SELECT 1 / 0").unwrap()[0][0], SqlValue::Null);
    }

    #[test]
    fn dump_round_trips() {
        let db = {
            let mut db = db_with_data();
            db.execute("INSERT INTO p (id, service) VALUES ('q''uote', 'with ''quotes''')")
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
        db.execute("DROP TABLE p").unwrap();
        assert!(db.execute("SELECT * FROM p").is_err());
        assert!(db.execute("DROP TABLE p").is_err());
        db.execute("DROP TABLE IF EXISTS p").unwrap();
    }

    #[test]
    fn explain_shows_index_probe_vs_scan() {
        let mut db = db_with_data();
        let plan = db.query("EXPLAIN SELECT * FROM p WHERE id = 'p1'").unwrap();
        assert!(plan[0][0].to_string().contains("INDEX PROBE"), "{plan:?}");
        let plan = db.query("EXPLAIN SELECT * FROM p WHERE cnt > 3").unwrap();
        assert!(plan[0][0].to_string().contains("SCAN p"), "{plan:?}");
        let plan = db
            .query(
                "EXPLAIN SELECT service, COUNT(*) FROM p GROUP BY service ORDER BY service LIMIT 1",
            )
            .unwrap();
        let text: Vec<String> = plan.iter().map(|r| r[0].to_string()).collect();
        assert!(text.iter().any(|l| l.contains("AGGREGATE")), "{text:?}");
        assert!(text.iter().any(|l| l.contains("SORT")), "{text:?}");
        assert!(text.iter().any(|l| l.contains("LIMIT")), "{text:?}");
        // EXPLAIN executes nothing.
        let plan = db.query("EXPLAIN DELETE FROM p").unwrap();
        assert!(plan[0][0].to_string().contains("SCAN"));
        assert_eq!(
            db.query("SELECT COUNT(*) FROM p").unwrap()[0][0],
            SqlValue::Integer(4)
        );
    }

    #[test]
    fn bare_count_star_is_the_row_count() {
        let mut db = db_with_data();
        let plan = db.query("EXPLAIN SELECT COUNT(*) FROM p").unwrap();
        assert_eq!(
            plan,
            vec![vec![SqlValue::Text("ROW COUNT p (no scan)".into())]]
        );
        let count =
            |db: &mut Database| db.query("SELECT COUNT(*) AS n FROM p").unwrap()[0][0].clone();
        assert_eq!(count(&mut db), SqlValue::Integer(4));
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO p (id, service) VALUES ('p5', 'x'), ('p6', 'x')")
            .unwrap();
        db.execute("DELETE FROM p WHERE id = 'p1'").unwrap();
        assert_eq!(count(&mut db), SqlValue::Integer(5));
        db.execute("ROLLBACK").unwrap();
        assert_eq!(count(&mut db), SqlValue::Integer(4));
        assert!(db.execute("SELECT COUNT(*) FROM nope").is_err());
    }

    #[test]
    fn having_filters_groups() {
        let mut db = db_with_data();
        let rows = db
            .query("SELECT service, COUNT(*) AS n FROM p GROUP BY service HAVING COUNT(*) >= 2")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], SqlValue::Text("sshd".into()));
        let rows = db
            .query("SELECT service FROM p GROUP BY service HAVING SUM(cnt) > 100")
            .unwrap();
        assert!(rows.is_empty());
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
            .query("SELECT * FROM p WHERE id = 'tmp'")
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
        db.execute("BEGIN TRANSACTION").unwrap();
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
            .query("SELECT id, cnt * 2 AS double_cnt FROM p ORDER BY double_cnt DESC LIMIT 1")
            .unwrap();
        assert_eq!(rows[0][0], SqlValue::Text("p1".into()));
    }
}
