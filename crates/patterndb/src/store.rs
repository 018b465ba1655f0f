//! The persistent pattern store.
//!
//! "Analysing system logs in a continuous way requires to be able to preserve
//! patterns between the processing of different message batches. To this end,
//! Sequence-RTG stores the patterns in a SQL database in a one-to-many
//! relationship with their related services. We also include up to three
//! unique examples for each pattern [...] we attach a set of statistics to
//! the messages matched to each pattern [...] the number of times that the
//! pattern has been matched since first discovered (count), how recently it
//! was last matched (last matched date) and a calculated complexity score."

use crate::examples_log::ExamplesLog;
use crate::sha1::pattern_id;
use minisql::{Database, SqlValue};
use sequence_core::analyzer::DiscoveredPattern;
use sequence_core::{Pattern, PatternSet};
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// Errors from the pattern store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying database error.
    Db(minisql::Error),
    /// A stored pattern string no longer parses (e.g. the documented `%`
    /// collision, see §IV "unknown tag error").
    BadPattern {
        /// The offending pattern id.
        id: String,
        /// Parse failure.
        err: sequence_core::PatternParseError,
    },
    /// A failure injected by the test fault hook (see
    /// [`PatternStore::set_fault_hook`]); never produced in production.
    Injected(&'static str),
    /// Writing an export failed.
    Io(std::io::Error),
    /// Reading or writing the examples log failed, or it is shorter than
    /// its rows say (see [`crate::examples_log`]).
    Examples(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Db(e) => write!(f, "pattern store database error: {e}"),
            StoreError::BadPattern { id, err } => {
                write!(f, "stored pattern {id} no longer parses: {err}")
            }
            StoreError::Injected(op) => write!(f, "injected fault in store operation {op}"),
            StoreError::Io(e) => write!(f, "writing the export failed: {e}"),
            StoreError::Examples(e) => write!(f, "pattern store examples log: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<minisql::Error> for StoreError {
    fn from(e: minisql::Error) -> Self {
        StoreError::Db(e)
    }
}

/// A pattern row with its statistics and examples.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPattern {
    /// SHA1(pattern ‖ service).
    pub id: String,
    /// Originating service.
    pub service: String,
    /// The pattern's textual form.
    pub pattern_text: String,
    /// Match count since discovery.
    pub count: u64,
    /// Unix timestamp of first discovery.
    pub first_seen: u64,
    /// Unix timestamp of the most recent match.
    pub last_matched: u64,
    /// The pattern's complexity score (variable fraction; 1.0 = worst).
    pub complexity: f64,
    /// Up to three unique example messages.
    pub examples: Vec<String>,
    /// Whether an administrator review promoted this pattern to production
    /// (see [`crate::review`]).
    pub promoted: bool,
}

impl StoredPattern {
    /// Parse the stored pattern text back into a [`Pattern`].
    pub fn pattern(&self) -> Result<Pattern, StoreError> {
        Pattern::parse(&self.pattern_text).map_err(|err| StoreError::BadPattern {
            id: self.id.clone(),
            err,
        })
    }
}

/// The fault-hook shape: called with the operation name before each write
/// path; returning `true` injects [`StoreError::Injected`].
pub type FaultHook = std::sync::Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// The store: a thin typed layer over the [`minisql`] database, plus the
/// [`crate::examples_log`] that holds every pattern's example bodies.
pub struct PatternStore {
    db: Database,
    examples: ExamplesLog,
    fault_hook: Option<FaultHook>,
    /// Set by [`PatternStore::begin`]: when it began, recorded into the
    /// `patterndb_txn_seconds` histogram at commit, and the examples log's
    /// length then, what a rollback cuts it back to.
    txn: Option<(std::time::Instant, u64)>,
}

impl std::fmt::Debug for PatternStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternStore")
            .field("db", &self.db)
            .field("examples", &self.examples)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "…"))
            .finish()
    }
}

/// One row per pattern. Its up to three example bodies are
/// `examples_len` bytes of the examples log at offset `examples_at`, in
/// [`encode_examples`]' form; a pattern without examples has length 0.
const SCHEMA: &str = "CREATE TABLE IF NOT EXISTS patterns (
    id TEXT PRIMARY KEY,
    service TEXT NOT NULL,
    pattern TEXT NOT NULL,
    cnt INTEGER DEFAULT 0,
    first_seen INTEGER DEFAULT 0,
    last_matched INTEGER DEFAULT 0,
    complexity REAL DEFAULT 0.0,
    promoted INTEGER DEFAULT 0,
    examples_at INTEGER DEFAULT 0,
    examples_len INTEGER DEFAULT 0
)";

/// One row: the generation of the examples log the rows point into.
const LOG_SCHEMA: &str = "CREATE TABLE IF NOT EXISTS examples_log (generation INTEGER NOT NULL)";

/// A pattern's examples as stored: each body in order, prefixed by its byte
/// length (`<len>:<body>…`), so a body may hold any character, `:` and
/// newlines included.
fn encode_examples<S: AsRef<str>>(bodies: &[S]) -> String {
    let mut cell = String::new();
    for body in bodies {
        let body = body.as_ref();
        cell.push_str(&body.len().to_string());
        cell.push(':');
        cell.push_str(body);
    }
    cell
}

/// The bodies of an [`encode_examples`] string, in order.
fn decode_examples(mut cell: &str) -> Vec<String> {
    let mut bodies = Vec::new();
    while let Some((len, rest)) = cell.split_once(':') {
        let Some(body) = len.parse().ok().and_then(|len: usize| rest.get(..len)) else {
            break;
        };
        bodies.push(body.to_string());
        cell = &rest[body.len()..];
    }
    bodies
}

/// An offset or length cell; what no write of this store produces reads 0.
fn offset(v: &SqlValue) -> u64 {
    v.as_integer()
        .and_then(|v| u64::try_from(v).ok())
        .unwrap_or(0)
}

/// Take a text cell out of a row buffer.
fn take_text(v: &mut SqlValue) -> String {
    match std::mem::replace(v, SqlValue::Null) {
        SqlValue::Text(s) => s,
        _ => String::new(),
    }
}

/// Where the examples log must end: the last byte a committed row points
/// at. A store written before the log (no `examples_at` column) points at
/// none.
fn referenced_end(db: &Database) -> Result<u64, minisql::Error> {
    let mut end = 0u64;
    let read = db.query_each("SELECT examples_at, examples_len FROM patterns", &[], |r| {
        end = end.max(offset(&r[0]).saturating_add(offset(&r[1])))
    });
    match read {
        Err(minisql::Error::NoSuchColumn(_)) => Ok(0),
        read => read.map(|()| end),
    }
}

/// Examples that older layouts keep in the database, by pattern id: the
/// non-empty cells of a `patterns.examples` column (the layout before the
/// log), then the rows of an `examples (pattern_id, seq, body)` table (the
/// layout before the cell), grouped in `seq` order. Also returns whether
/// the `examples` column exists.
fn examples_in_db(db: &mut Database) -> Result<(Vec<(SqlValue, String)>, bool), minisql::Error> {
    let mut found = Vec::new();
    let cells = db.query_each(
        "SELECT id, examples FROM patterns WHERE examples != ''",
        &[],
        |r| {
            found.push((
                std::mem::replace(&mut r[0], SqlValue::Null),
                take_text(&mut r[1]),
            ))
        },
    );
    let has_cell = match cells {
        Err(minisql::Error::NoSuchColumn(_)) => false,
        cells => cells.map(|()| true)?,
    };
    let rows = match db.query("SELECT pattern_id, body FROM examples ORDER BY pattern_id, seq") {
        Err(minisql::Error::NoSuchTable(_)) => Vec::new(),
        rows => rows?,
    };
    for group in rows.chunk_by(|a, b| a[0] == b[0]) {
        let bodies: Vec<&str> = group
            .iter()
            .map(|r| r[1].as_text().unwrap_or_default())
            .collect();
        found.push((group[0][0].clone(), encode_examples(&bodies)));
    }
    Ok((found, has_cell))
}

impl PatternStore {
    /// A volatile in-memory store; its examples log is a buffer.
    pub fn in_memory() -> PatternStore {
        PatternStore::with_log(Database::in_memory(), |_| Ok(ExamplesLog::memory()))
            .expect("a fresh in-memory store opens")
    }

    /// Open (or create) a persistent store rooted at the directory `path`:
    /// minisql's `snapshot.sql` and `wal.sql`, and the examples log. Bytes
    /// of the log no committed row points at (a crash between the log's
    /// sync and the WAL's `COMMIT`) are cut. A store that keeps its
    /// examples in the database, as earlier builds wrote it, moves them into
    /// the log once, here (see [`PatternStore::migrate`]).
    pub fn open(path: impl AsRef<Path>) -> Result<PatternStore, StoreError> {
        let dir = path.as_ref();
        PatternStore::with_log(Database::open(dir)?, |generation| {
            ExamplesLog::open(dir, generation)
        })
    }

    /// The store over `db`, with the examples log `open_log` opens for the
    /// generation the database names.
    fn with_log(
        mut db: Database,
        open_log: impl FnOnce(i64) -> io::Result<ExamplesLog>,
    ) -> Result<PatternStore, StoreError> {
        db.execute(SCHEMA)?;
        db.execute(LOG_SCHEMA)?;
        let generation = match db.query("SELECT generation FROM examples_log")?.first() {
            Some(row) => row[0].as_integer().unwrap_or(0),
            None => {
                db.execute("INSERT INTO examples_log VALUES (0)")?;
                0
            }
        };
        let mut examples = open_log(generation).map_err(StoreError::Examples)?;
        let end = referenced_end(&db)?;
        if examples.len() > end {
            examples.cut(end).map_err(StoreError::Examples)?;
        } else if examples.len() < end {
            return Err(StoreError::Examples(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "the log holds {} bytes but its rows point up to byte {end}",
                    examples.len()
                ),
            )));
        }
        let mut store = PatternStore {
            db,
            examples,
            fault_hook: None,
            txn: None,
        };
        store.migrate()?;
        Ok(store)
    }

    /// Move examples kept in the database into the log, in one transaction:
    /// add the location columns if they are missing, append each pattern's
    /// bodies, point its row at them and empty its `examples` cell, and
    /// delete the rows of an `examples` table. Bodies of no stored pattern
    /// are dropped. A store with nothing left in the database is untouched.
    fn migrate(&mut self) -> Result<(), StoreError> {
        let located = match self
            .db
            .query("SELECT examples_at FROM patterns WHERE id = ''")
        {
            Err(minisql::Error::NoSuchColumn(_)) => false,
            other => other.map(|_| true)?,
        };
        let (found, has_cell) = examples_in_db(&mut self.db)?;
        if located && found.is_empty() {
            return Ok(());
        }
        self.begin()?;
        match self.move_into_log(located, found, has_cell) {
            Ok(()) => self.commit(),
            Err(e) => {
                self.rollback()?;
                Err(e)
            }
        }
    }

    fn move_into_log(
        &mut self,
        located: bool,
        found: Vec<(SqlValue, String)>,
        has_cell: bool,
    ) -> Result<(), StoreError> {
        if !located {
            self.db
                .execute("ALTER TABLE patterns ADD COLUMN examples_at INTEGER DEFAULT 0")?;
            self.db
                .execute("ALTER TABLE patterns ADD COLUMN examples_len INTEGER DEFAULT 0")?;
        }
        let update = match has_cell {
            true => {
                "UPDATE patterns SET examples_at = ?, examples_len = ?, examples = '' WHERE id = ?"
            }
            false => "UPDATE patterns SET examples_at = ?, examples_len = ? WHERE id = ?",
        };
        for (id, cell) in found {
            let at = self.append_examples(&cell)?;
            let params = [(at as i64).into(), (cell.len() as i64).into(), id];
            if self.db.execute_with(update, &params)?.affected() == 0 {
                self.examples.cut(at).map_err(StoreError::Examples)?;
            }
        }
        match self.db.execute("DELETE FROM examples") {
            Err(minisql::Error::NoSuchTable(_)) => Ok(()),
            deleted => deleted.map(drop).map_err(StoreError::Db),
        }
    }

    /// Install (or clear) a fault-injection hook for tests. The hook runs
    /// before each write-path operation with its name — `"begin"`,
    /// `"upsert"`, `"examples_append"` (a new pattern's bodies are about to
    /// be appended to the log), `"examples_sync"` (the log is about to be
    /// synced: at every commit, or at once after an append outside a
    /// transaction),
    /// `"commit"` (the log is synced and the WAL's `COMMIT` is next),
    /// `"record_matches"`, `"checkpoint"`; returning `true` makes that call
    /// fail with [`StoreError::Injected`] instead of going on, and a failed
    /// commit rolls back. Read paths are never hooked, so an injected store
    /// stays inspectable.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.fault_hook = hook;
    }

    /// Whether the fault hook asks operation `op` to fail.
    fn fault_fires(&self, op: &str) -> bool {
        self.fault_hook.as_ref().is_some_and(|h| h(op))
    }

    /// Checkpoint the underlying database (compact snapshot + truncate WAL).
    /// When the bodies of deleted patterns outnumber the live ones, the
    /// examples log is first rewritten into its next generation (see
    /// [`crate::examples_log`]).
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        if self.fault_fires("checkpoint") {
            return Err(StoreError::Injected("checkpoint"));
        }
        let _span = obs::span!("patterndb.checkpoint");
        let live = self.db.query("SELECT SUM(examples_len) FROM patterns")?[0][0]
            .as_integer()
            .unwrap_or(0) as u64;
        if self.examples.len().saturating_sub(live) > live {
            self.rewrite_examples()?;
        }
        self.db.checkpoint()?;
        Ok(())
    }

    /// Copy every live body into the log's next generation, then, in one
    /// transaction, point each row at its copy and name the new generation;
    /// the old file goes once that commits.
    fn rewrite_examples(&mut self) -> Result<(), StoreError> {
        let mut spans = Vec::new();
        self.db.query_each(
            "SELECT id, examples_at, examples_len FROM patterns WHERE examples_len > 0",
            &[],
            |r| {
                spans.push((
                    std::mem::replace(&mut r[0], SqlValue::Null),
                    offset(&r[1]),
                    offset(&r[2]),
                ))
            },
        )?;
        let mut next = self
            .examples
            .next_generation()
            .map_err(StoreError::Examples)?;
        self.begin()?;
        let moved = self.point_at(&mut next, spans).and_then(|()| self.commit());
        match moved {
            Ok(()) => {
                let old = std::mem::replace(&mut self.examples, next);
                // A file left behind is removed by the next open.
                let _ = old.remove();
                Ok(())
            }
            Err(e) => {
                if self.db.in_transaction() {
                    self.rollback()?;
                }
                let _ = next.remove();
                Err(e)
            }
        }
    }

    /// Inside [`PatternStore::rewrite_examples`]' transaction: copy each
    /// span into `next`, sync it, and point the rows and the generation at
    /// it.
    fn point_at(
        &mut self,
        next: &mut ExamplesLog,
        spans: Vec<(SqlValue, u64, u64)>,
    ) -> Result<(), StoreError> {
        for (id, at, len) in spans {
            let bytes = self.examples.read(at, len).map_err(StoreError::Examples)?;
            let moved = next.append(&bytes).map_err(StoreError::Examples)?;
            self.db.execute_with(
                "UPDATE patterns SET examples_at = ? WHERE id = ?",
                &[(moved as i64).into(), id],
            )?;
        }
        next.sync().map_err(StoreError::Examples)?;
        self.db.execute_with(
            "UPDATE examples_log SET generation = ?",
            &[next.generation().into()],
        )?;
        Ok(())
    }

    /// Open a transaction spanning a whole batch's worth of updates, so a
    /// crash mid-batch never leaves half the batch's statistics behind.
    pub fn begin(&mut self) -> Result<(), StoreError> {
        if self.fault_fires("begin") {
            return Err(StoreError::Injected("begin"));
        }
        self.db.execute("BEGIN")?;
        self.txn = Some((std::time::Instant::now(), self.examples.len()));
        Ok(())
    }

    /// Commit the open batch transaction: sync the bodies it appended to the
    /// examples log, then `COMMIT` to the WAL. On failure the transaction is
    /// torn down (rolled back, the log cut back), so the store stays usable
    /// for a retry.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        if let Err(e) = self.sync_and_commit() {
            if self.db.in_transaction() {
                let _ = self.db.execute("ROLLBACK");
            }
            self.cut_examples_back()?;
            return Err(e);
        }
        if let Some((started, _)) = self.txn.take() {
            obs::histogram!(
                "patterndb_txn_seconds",
                "Pattern store transaction time, begin to commit"
            )
            .record(started.elapsed());
        }
        Ok(())
    }

    fn sync_and_commit(&mut self) -> Result<(), StoreError> {
        self.sync_examples()?;
        if self.fault_fires("commit") {
            return Err(StoreError::Injected("commit"));
        }
        self.db.execute("COMMIT")?;
        Ok(())
    }

    /// Abandon the open batch transaction.
    pub fn rollback(&mut self) -> Result<(), StoreError> {
        self.db.execute("ROLLBACK")?;
        self.cut_examples_back()
    }

    /// Close the transaction on the store's side: cut the examples log back
    /// to its length at `BEGIN`.
    fn cut_examples_back(&mut self) -> Result<(), StoreError> {
        match self.txn.take() {
            Some((_, len)) if len < self.examples.len() => {
                self.examples.cut(len).map_err(StoreError::Examples)
            }
            _ => Ok(()),
        }
    }

    /// Append a new pattern's encoded bodies to the examples log and return
    /// their offset. Outside a transaction they are synced at once, before
    /// the row that points at them is written.
    fn append_examples(&mut self, cell: &str) -> Result<u64, StoreError> {
        if self.fault_fires("examples_append") {
            return Err(StoreError::Injected("examples_append"));
        }
        let at = self
            .examples
            .append(cell.as_bytes())
            .map_err(StoreError::Examples)?;
        if !self.db.in_transaction() {
            if let Err(e) = self.sync_examples() {
                self.examples.cut(at).map_err(StoreError::Examples)?;
                return Err(e);
            }
        }
        Ok(at)
    }

    fn sync_examples(&mut self) -> Result<(), StoreError> {
        if self.fault_fires("examples_sync") {
            return Err(StoreError::Injected("examples_sync"));
        }
        self.examples.sync().map_err(StoreError::Examples)
    }

    /// Record a pattern discovered by an analysis run. Returns the pattern's
    /// reproducible id and whether a new row was created. If the pattern is
    /// already known for this service only its statistics are updated (the
    /// first discovery already stored up to three unique examples);
    /// otherwise its examples are appended to the log and a new row points
    /// at them.
    pub fn upsert_discovered(
        &mut self,
        service: &str,
        discovered: &DiscoveredPattern,
        now: u64,
    ) -> Result<(String, bool), StoreError> {
        if self.fault_fires("upsert") {
            return Err(StoreError::Injected("upsert"));
        }
        let text = discovered.pattern.render();
        let id = pattern_id(&text, service);
        let existing = self.db.query_with(
            "SELECT cnt FROM patterns WHERE id = ?",
            &[id.as_str().into()],
        )?;
        if existing.is_empty() {
            let cell = encode_examples(&discovered.examples[..discovered.examples.len().min(3)]);
            let at = match cell.is_empty() {
                true => 0,
                false => self.append_examples(&cell)?,
            };
            let inserted = self.db.execute_with(
                "INSERT INTO patterns (id, service, pattern, cnt, first_seen, last_matched, complexity, examples_at, examples_len)
                 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                &[
                    id.as_str().into(),
                    service.into(),
                    text.into(),
                    (discovered.match_count as i64).into(),
                    (now as i64).into(),
                    (now as i64).into(),
                    discovered.pattern.complexity_score().into(),
                    (at as i64).into(),
                    (cell.len() as i64).into(),
                ],
            );
            if let Err(e) = inserted {
                if !cell.is_empty() {
                    self.examples.cut(at).map_err(StoreError::Examples)?;
                }
                return Err(e.into());
            }
            Ok((id, true))
        } else {
            self.db.execute_with(
                "UPDATE patterns SET cnt = cnt + ?, last_matched = ? WHERE id = ?",
                &[
                    (discovered.match_count as i64).into(),
                    (now as i64).into(),
                    id.as_str().into(),
                ],
            )?;
            Ok((id, false))
        }
    }

    /// Bump the match statistics of a pattern after the parser matched `n`
    /// messages against it.
    pub fn record_matches(&mut self, id: &str, n: u64, now: u64) -> Result<(), StoreError> {
        if self.fault_fires("record_matches") {
            return Err(StoreError::Injected("record_matches"));
        }
        self.db.execute_with(
            "UPDATE patterns SET cnt = cnt + ?, last_matched = ? WHERE id = ?",
            &[(n as i64).into(), (now as i64).into(), id.into()],
        )?;
        Ok(())
    }

    /// Bulk variant of [`PatternStore::record_matches`] for hot loops: all
    /// updates run inside one transaction, so a flush of N matched patterns
    /// costs one WAL commit instead of N. Must not be called while another
    /// transaction is open (it manages its own).
    pub fn record_matches_bulk(
        &mut self,
        counts: &[(String, u64)],
        now: u64,
    ) -> Result<(), StoreError> {
        if counts.is_empty() {
            return Ok(());
        }
        self.begin()?;
        for (id, n) in counts {
            if let Err(e) = self.record_matches(id, *n, now) {
                self.rollback()?;
                return Err(e);
            }
        }
        self.commit()
    }

    /// All stored patterns (optionally restricted to one service), by
    /// service, then count descending, then id — convenient for review.
    pub fn patterns(&mut self, service: Option<&str>) -> Result<Vec<StoredPattern>, StoreError> {
        let mut all = Vec::new();
        self.each_pattern(service, |p| all.push(p))?;
        Ok(all)
    }

    /// Hand each stored pattern to `f` in [`PatternStore::patterns`]' order,
    /// one row at a time, its examples read from the log as it goes: a
    /// reader that keeps nothing, like an export, never holds the store a
    /// second time.
    pub fn each_pattern(
        &mut self,
        service: Option<&str>,
        f: impl FnMut(StoredPattern),
    ) -> Result<(), StoreError> {
        self.each_row(service, |_| true, true, f)
    }

    /// [`PatternStore::each_pattern`] over the rows `keep` admits, reading
    /// their examples from the log only `with_examples`.
    pub(crate) fn each_row(
        &mut self,
        service: Option<&str>,
        keep: impl Fn(&StoredPattern) -> bool,
        with_examples: bool,
        mut f: impl FnMut(StoredPattern),
    ) -> Result<(), StoreError> {
        let log = &self.examples;
        let mut failed = None;
        let row = |r: &mut [SqlValue]| {
            if failed.is_some() {
                return;
            }
            let mut p = StoredPattern {
                id: take_text(&mut r[0]),
                service: take_text(&mut r[1]),
                pattern_text: take_text(&mut r[2]),
                count: r[3].as_integer().unwrap_or(0) as u64,
                first_seen: r[4].as_integer().unwrap_or(0) as u64,
                last_matched: r[5].as_integer().unwrap_or(0) as u64,
                complexity: r[6].as_real().unwrap_or(0.0),
                promoted: r[7].as_integer().unwrap_or(0) != 0,
                examples: Vec::new(),
            };
            if !keep(&p) {
                return;
            }
            let len = offset(&r[9]);
            if with_examples && len > 0 {
                let cell = log.read(offset(&r[8]), len).and_then(|bytes| {
                    String::from_utf8(bytes)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
                });
                match cell {
                    Ok(cell) => p.examples = decode_examples(&cell),
                    Err(e) => {
                        failed = Some(StoreError::Examples(e));
                        return;
                    }
                }
            }
            f(p)
        };
        const COLUMNS: &str = "SELECT id, service, pattern, cnt, first_seen, last_matched, complexity, promoted, examples_at, examples_len FROM patterns";
        match service {
            Some(s) => self.db.query_each(
                &format!("{COLUMNS} WHERE service = ? ORDER BY cnt DESC, id"),
                &[s.into()],
                row,
            )?,
            None => self.db.query_each(
                &format!("{COLUMNS} ORDER BY service, cnt DESC, id"),
                &[],
                row,
            )?,
        }
        failed.map_or(Ok(()), Err)
    }

    /// Parse each stored pattern and hand it to `f` as `(service, id,
    /// pattern)`, one row at a time in [`PatternStore::patterns`]' order (it
    /// breaks specificity ties), reading no statistics and no examples.
    /// Patterns that no longer parse (the documented `%`-collision
    /// limitation) are skipped and returned.
    pub fn each_parsed_pattern(
        &mut self,
        mut f: impl FnMut(&str, &str, Pattern),
    ) -> Result<Vec<StoreError>, StoreError> {
        let mut skipped = Vec::new();
        self.db.query_each(
            "SELECT id, service, pattern FROM patterns ORDER BY service, cnt DESC, id",
            &[],
            |r| {
                let [id, service, text] = [0, 1, 2].map(|i| r[i].as_text().unwrap_or_default());
                match Pattern::parse(text) {
                    Ok(p) => f(service, id, p),
                    Err(err) => skipped.push(StoreError::BadPattern {
                        id: id.to_string(),
                        err,
                    }),
                }
            },
        )?;
        Ok(skipped)
    }

    /// Load every stored pattern into per-service [`PatternSet`]s for the
    /// parser (see [`PatternStore::each_parsed_pattern`]); the second value
    /// lists the patterns that no longer parse and were skipped.
    pub fn load_pattern_sets(
        &mut self,
    ) -> Result<(HashMap<String, PatternSet>, Vec<StoreError>), StoreError> {
        let mut sets: HashMap<String, PatternSet> = HashMap::new();
        let skipped = self.each_parsed_pattern(|service, id, p| match sets.get_mut(service) {
            Some(set) => set.insert(id, p),
            None => sets.entry(service.to_string()).or_default().insert(id, p),
        })?;
        Ok((sets, skipped))
    }

    /// Flag a pattern as promoted to production.
    pub fn promote(&mut self, id: &str) -> Result<(), StoreError> {
        self.db.execute_with(
            "UPDATE patterns SET promoted = 1 WHERE id = ?",
            &[id.into()],
        )?;
        Ok(())
    }

    /// Discard a pattern outright (the losing side of a multi-match
    /// conflict, or an administrator rejection), examples and all: its
    /// bodies stay in the log, orphaned, until a checkpoint rewrites it.
    pub fn discard(&mut self, id: &str) -> Result<(), StoreError> {
        self.db
            .execute_with("DELETE FROM patterns WHERE id = ?", &[id.into()])?;
        Ok(())
    }

    /// Delete patterns whose match count is below the save threshold. "Any
    /// pattern whose count of matches is less than the threshold is
    /// considered useless and thus not saved." Returns how many were removed.
    /// Their bodies stay in the log, orphaned, as with
    /// [`PatternStore::discard`].
    pub fn prune_below_threshold(&mut self, threshold: u64) -> Result<usize, StoreError> {
        let n = self
            .db
            .execute_with(
                "DELETE FROM patterns WHERE cnt < ?",
                &[(threshold as i64).into()],
            )?
            .affected();
        Ok(n)
    }

    /// Per-service pattern counts, most patterns first.
    pub fn service_summary(&mut self) -> Result<Vec<(String, u64, u64)>, StoreError> {
        let rows = self.db.query(
            "SELECT service, COUNT(*) AS n, SUM(cnt) FROM patterns GROUP BY service ORDER BY n DESC, service",
        )?;
        Ok(rows
            .into_iter()
            .map(|r| {
                (
                    r[0].as_text().unwrap_or_default().to_string(),
                    r[1].as_integer().unwrap_or(0) as u64,
                    r[2].as_integer().unwrap_or(0) as u64,
                )
            })
            .collect())
    }

    /// Total number of stored patterns.
    pub fn pattern_count(&mut self) -> Result<u64, StoreError> {
        let rows = self.db.query("SELECT COUNT(*) FROM patterns")?;
        Ok(rows[0][0].as_integer().unwrap_or(0) as u64)
    }

    /// Heap bytes of the stored rows and their indexes; the examples live
    /// in the log file, not here.
    pub fn heap_bytes(&self) -> usize {
        self.db.heap_bytes()
    }

    /// Direct access to the underlying database, for ad-hoc administrator
    /// queries. They get minisql's grammar, which is the store's own: a
    /// `SELECT` of columns, `COUNT(*)` and `SUM(…)` from one table with a
    /// one-comparison `WHERE`, `GROUP BY` and `ORDER BY … [DESC]` (no
    /// `*`, `LIKE`, `AND` or `LIMIT`; see the [`minisql`] crate docs).
    pub fn db(&mut self) -> &mut Database {
        &mut self.db
    }
}

/// Convert [`SqlValue`] rows into displayable text (debug/CLI helper).
pub fn row_to_strings(row: &[SqlValue]) -> Vec<String> {
    row.iter().map(|v| v.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequence_core::{Analyzer, Scanner};

    fn discover(msgs: &[&str]) -> Vec<DiscoveredPattern> {
        let scanner = Scanner::new();
        let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
        Analyzer::new().analyze(&scanned)
    }

    fn sshd_patterns() -> Vec<DiscoveredPattern> {
        discover(&[
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
            "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
        ])
    }

    #[test]
    fn upsert_and_read_back() {
        let mut store = PatternStore::in_memory();
        let d = &sshd_patterns()[0];
        let (id, inserted) = store.upsert_discovered("sshd", d, 1000).unwrap();
        assert!(inserted);
        let all = store.patterns(Some("sshd")).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].id, id);
        assert_eq!(all[0].count, 3);
        assert_eq!(all[0].first_seen, 1000);
        assert_eq!(all[0].examples.len(), 3);
        assert!(all[0].complexity > 0.0 && all[0].complexity < 1.0);
        assert_eq!(all[0].pattern().unwrap(), d.pattern);
    }

    #[test]
    fn upsert_twice_accumulates() {
        let mut store = PatternStore::in_memory();
        let d = &sshd_patterns()[0];
        let (id1, ins1) = store.upsert_discovered("sshd", d, 1000).unwrap();
        let (id2, ins2) = store.upsert_discovered("sshd", d, 2000).unwrap();
        assert_eq!(id1, id2);
        assert!(ins1 && !ins2);
        let all = store.patterns(None).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].count, 6);
        assert_eq!(all[0].first_seen, 1000);
        assert_eq!(all[0].last_matched, 2000);
        // Examples stay capped at three and unique.
        assert_eq!(all[0].examples.len(), 3);
    }

    #[test]
    fn same_pattern_different_service_distinct_rows() {
        let mut store = PatternStore::in_memory();
        let d = &sshd_patterns()[0];
        let (a, _) = store.upsert_discovered("sshd", d, 1).unwrap();
        let (b, _) = store.upsert_discovered("sshd-internal", d, 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(store.pattern_count().unwrap(), 2);
    }

    #[test]
    fn record_matches_updates_stats() {
        let mut store = PatternStore::in_memory();
        let (id, _) = store
            .upsert_discovered("sshd", &sshd_patterns()[0], 100)
            .unwrap();
        store.record_matches(&id, 50, 999).unwrap();
        let p = &store.patterns(None).unwrap()[0];
        assert_eq!(p.count, 53);
        assert_eq!(p.last_matched, 999);
    }

    #[test]
    fn record_matches_bulk_updates_every_row_in_one_transaction() {
        let mut store = PatternStore::in_memory();
        let ds = discover(&["alpha one", "beta two", "gamma three"]);
        let mut ids = Vec::new();
        for d in &ds {
            ids.push(store.upsert_discovered("svc", d, 10).unwrap().0);
        }
        let counts: Vec<(String, u64)> = ids.iter().map(|id| (id.clone(), 7u64)).collect();
        store.record_matches_bulk(&counts, 99).unwrap();
        for p in store.patterns(Some("svc")).unwrap() {
            assert_eq!(p.count, 1 + 7);
            assert_eq!(p.last_matched, 99);
        }
        // Empty input is a no-op (and must not open a stray transaction).
        store.record_matches_bulk(&[], 100).unwrap();
        store.begin().unwrap();
        store.commit().unwrap();
    }

    #[test]
    fn fault_hook_injects_and_failed_commit_leaves_store_usable() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut store = PatternStore::in_memory();
        let (id, _) = store
            .upsert_discovered("sshd", &sshd_patterns()[0], 1)
            .unwrap();
        let failing = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&failing);
        store.set_fault_hook(Some(Arc::new(move |op: &str| {
            op == "commit" && flag.load(Ordering::Relaxed)
        })));
        let counts = vec![(id.clone(), 5u64)];
        match store.record_matches_bulk(&counts, 9) {
            Err(StoreError::Injected("commit")) => {}
            other => panic!("expected injected commit failure, got {other:?}"),
        }
        // The failed commit rolled back: statistics unchanged, and the
        // transaction is closed so a retry can succeed.
        assert_eq!(store.patterns(None).unwrap()[0].count, 3);
        failing.store(false, Ordering::Relaxed);
        store.record_matches_bulk(&counts, 9).unwrap();
        assert_eq!(store.patterns(None).unwrap()[0].count, 8);
    }

    #[test]
    fn load_pattern_sets_matches_messages() {
        let mut store = PatternStore::in_memory();
        store
            .upsert_discovered("sshd", &sshd_patterns()[0], 1)
            .unwrap();
        let (sets, errors) = store.load_pattern_sets().unwrap();
        assert!(errors.is_empty());
        let set = &sets["sshd"];
        let msg = Scanner::new().scan("Accepted password for eve from 203.0.113.9 port 4022 ssh2");
        assert!(set.match_message(&msg).is_some());
    }

    /// The one-query load inserts in `patterns(None)` order — service, then
    /// count descending, then id — which is what breaks specificity ties.
    #[test]
    fn load_pattern_sets_keeps_the_listing_order() {
        let mut store = PatternStore::in_memory();
        for (i, verb) in ["opened", "closed", "failed", "reset"].iter().enumerate() {
            let d = &discover(&[&format!("link {verb} on port {i}")])[0];
            let (id, _) = store.upsert_discovered("net", d, 1).unwrap();
            store.record_matches(&id, (i as u64 * 7) % 4, 2).unwrap();
        }
        let mut listed = PatternSet::new();
        for sp in store.patterns(None).unwrap() {
            listed.insert(sp.id.clone(), sp.pattern().unwrap());
        }
        let (sets, errors) = store.load_pattern_sets().unwrap();
        assert!(errors.is_empty());
        let ids = |set: &PatternSet| set.iter().map(|(id, _)| id.to_string()).collect::<Vec<_>>();
        assert_eq!(ids(&sets["net"]), ids(&listed));
        assert_eq!(sets["net"].len(), 4);
    }

    #[test]
    fn prune_below_threshold() {
        let mut store = PatternStore::in_memory();
        store
            .upsert_discovered("svc", &discover(&["rare event only once"])[0], 1)
            .unwrap();
        store
            .upsert_discovered("sshd", &sshd_patterns()[0], 1)
            .unwrap();
        let removed = store.prune_below_threshold(2).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(store.pattern_count().unwrap(), 1);
        assert_eq!(store.patterns(None).unwrap()[0].examples.len(), 3);
    }

    #[test]
    fn the_examples_cell_round_trips_any_bodies() {
        use testkit::prop::{self, Config};
        let body = prop::one_of(vec![
            Box::new(prop::unicode_string(0..16)),
            Box::new(prop::string("':\n9é ", 0..6)),
        ]);
        prop::check(&Config::default(), &prop::vec(body, 0..4), |bodies| {
            testkit::prop_assert_eq!(&decode_examples(&encode_examples(bodies)), bodies);
            Ok(())
        });
        assert_eq!(encode_examples(&["", "a:b", "é"]), "0:3:a:b2:é");
    }

    /// What a reopened store holds: its database and every pattern with
    /// its examples.
    fn contents(store: &mut PatternStore) -> (String, Vec<StoredPattern>) {
        (store.db().dump(), store.patterns(None).unwrap())
    }

    /// An old store keeps each example as a row of its own: opening it
    /// moves them into the log once, and a second open changes nothing.
    #[test]
    fn open_moves_example_rows_into_the_log_once() {
        let dir = std::env::temp_dir().join(format!("patterndb-fold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Database::open(&dir).unwrap();
            for sql in [
                "CREATE TABLE patterns (id TEXT PRIMARY KEY, service TEXT NOT NULL, pattern TEXT NOT NULL, cnt INTEGER DEFAULT 0, first_seen INTEGER DEFAULT 0, last_matched INTEGER DEFAULT 0, complexity REAL DEFAULT 0.0, promoted INTEGER DEFAULT 0)",
                "CREATE TABLE examples (pattern_id TEXT NOT NULL, seq INTEGER NOT NULL, body TEXT NOT NULL)",
                "INSERT INTO patterns (id, service, pattern, cnt) VALUES ('b', 'svc', 'two %integer%', 2)",
                "INSERT INTO patterns (id, service, pattern, cnt) VALUES ('a', 'svc', 'one', 5)",
                "INSERT INTO examples VALUES ('b', 1, 'two 2: it''s\nso')",
                "INSERT INTO examples VALUES ('gone', 0, 'an orphan')",
                "INSERT INTO examples VALUES ('b', 0, 'two 1')",
            ] {
                db.execute(sql).unwrap();
            }
        }
        let mut store = PatternStore::open(&dir).unwrap();
        let examples: Vec<_> = store
            .patterns(None)
            .unwrap()
            .into_iter()
            .map(|p| (p.id, p.examples))
            .collect();
        assert_eq!(
            examples,
            [
                ("a".to_string(), vec![]),
                (
                    "b".to_string(),
                    vec!["two 1".into(), "two 2: it's\nso".into()]
                )
            ]
        );
        let rows = store.db().query("SELECT COUNT(*) FROM examples").unwrap();
        assert_eq!(rows[0][0], SqlValue::Integer(0));
        let log = std::fs::read(dir.join("examples.0.log")).unwrap();
        assert_eq!(log, b"5:two 114:two 2: it's\nso", "the orphan is not kept");
        let migrated = contents(&mut store);
        drop(store);
        assert_eq!(contents(&mut PatternStore::open(&dir).unwrap()), migrated);
        assert_eq!(std::fs::read(dir.join("examples.0.log")).unwrap(), log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store that keeps each pattern's examples in an `examples` cell of
    /// its row moves them into the log on its first open, in one
    /// transaction, and empties the cells.
    #[test]
    fn open_moves_example_cells_into_the_log_once() {
        let dir = std::env::temp_dir().join(format!("patterndb-cells-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cell = encode_examples(&["panic: a\n at 1", "panic: b"]);
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE patterns (id TEXT PRIMARY KEY, service TEXT NOT NULL, pattern TEXT NOT NULL, cnt INTEGER DEFAULT 0, first_seen INTEGER DEFAULT 0, last_matched INTEGER DEFAULT 0, complexity REAL DEFAULT 0.0, promoted INTEGER DEFAULT 0, examples TEXT DEFAULT '')").unwrap();
            db.execute(
                "INSERT INTO patterns (id, service, pattern, cnt) VALUES ('a', 'svc', 'quiet', 4)",
            )
            .unwrap();
            db.execute_with(
                "INSERT INTO patterns (id, service, pattern, cnt, examples) VALUES ('p', 'app', 'panic: %string%', 2, ?)",
                &[cell.as_str().into()],
            )
            .unwrap();
            db.checkpoint().unwrap();
        }
        let mut store = PatternStore::open(&dir).unwrap();
        let p = &store.patterns(Some("app")).unwrap()[0];
        assert_eq!(p.examples, ["panic: a\n at 1", "panic: b"]);
        assert_eq!(
            store.patterns(Some("svc")).unwrap()[0].examples,
            Vec::<String>::new()
        );
        let cells = store
            .db()
            .query("SELECT COUNT(*) FROM patterns WHERE examples != ''")
            .unwrap();
        assert_eq!(cells[0][0], SqlValue::Integer(0));
        assert_eq!(
            std::fs::read(dir.join("examples.0.log")).unwrap(),
            cell.as_bytes()
        );
        // New patterns land after the moved bodies, and every one survives
        // a checkpoint and two more opens.
        store
            .upsert_discovered("sshd", &sshd_patterns()[0], 7)
            .unwrap();
        store.checkpoint().unwrap();
        let migrated = contents(&mut store);
        drop(store);
        for _ in 0..2 {
            assert_eq!(contents(&mut PatternStore::open(&dir).unwrap()), migrated);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn service_summary_orders_by_pattern_count() {
        let mut store = PatternStore::in_memory();
        store
            .upsert_discovered("sshd", &sshd_patterns()[0], 1)
            .unwrap();
        for d in &discover(&["a b", "c d e", "f g h i"]) {
            store.upsert_discovered("noisy", d, 1).unwrap();
        }
        let summary = store.service_summary().unwrap();
        assert_eq!(summary[0].0, "noisy");
        assert_eq!(summary[0].1, 3);
        assert_eq!(summary[1], ("sshd".to_string(), 1, 3));
    }

    #[test]
    fn persistence_round_trip() {
        let dir = std::env::temp_dir().join(format!("patterndb-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let id = {
            let mut store = PatternStore::open(&dir).unwrap();
            let (id, _) = store
                .upsert_discovered("sshd", &sshd_patterns()[0], 42)
                .unwrap();
            store.checkpoint().unwrap();
            id
        };
        {
            let mut store = PatternStore::open(&dir).unwrap();
            let all = store.patterns(None).unwrap();
            assert_eq!(all.len(), 1);
            assert_eq!(all[0].id, id);
            assert_eq!(all[0].examples.len(), 3);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiline_examples_survive_persistence() {
        let dir = std::env::temp_dir().join(format!("patterndb-ml-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = PatternStore::open(&dir).unwrap();
            let d = discover(&[
                "panic: oh no\n  at frame 1",
                "panic: oh dear\n  at frame 9",
                "panic: oh my\nstack",
            ]);
            store.upsert_discovered("app", &d[0], 1).unwrap();
        }
        {
            let mut store = PatternStore::open(&dir).unwrap();
            let all = store.patterns(None).unwrap();
            assert!(all[0].examples.iter().any(|e| e.contains('\n')));
            assert!(all[0].pattern().unwrap().has_ignore_rest());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
