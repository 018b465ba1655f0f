//! # minisql
//!
//! A small embedded SQL engine: lexer, recursive-descent parser, row-store
//! executor, and snapshot + write-ahead-log durability.
//!
//! Sequence-RTG "stores the patterns in a SQL database in a one-to-many
//! relationship with their related services". This crate is that database
//! substrate, built from scratch instead of binding to an external engine
//! (see DESIGN.md §2). The grammar is exactly what the pattern store writes
//! and its snapshot and WAL replay, and nothing more:
//!
//! * `CREATE TABLE [IF NOT EXISTS]` with INTEGER / REAL / TEXT columns and
//!   PRIMARY KEY, NOT NULL, UNIQUE and DEFAULT constraints
//! * `ALTER TABLE t ADD [COLUMN] <column>`, a column that is not a key;
//!   existing rows take its default (the pattern store's one migration)
//! * `INSERT INTO t [(cols)] VALUES (…)`, one row per statement
//! * `SELECT` of columns, `COUNT(*)` and `SUM(expr)`, with `AS`,
//!   `FROM` one table, `WHERE`, `GROUP BY` and `ORDER BY … [DESC]`
//! * `UPDATE t SET col = expr, … [WHERE …]` and `DELETE FROM t [WHERE …]`
//! * `BEGIN` / `COMMIT` / `ROLLBACK`
//!
//! An expression is a `?` parameter, a literal (numbers, `'text'`, NULL),
//! a column, or `+` / `-` of those; a filter compares two such with `=`,
//! `!=`/`<>`, `<`, `<=`, `>` or `>=`. Anything else is a parse error.
//!
//! A row is stored as one packed record — a tag byte per column, then each
//! cell's payload (8 bytes for a number, a `u32` length and the bytes for a
//! text) — in one allocation. Filters, sort and group keys, `SUM` and the
//! dump read cells in place; only a `SELECT`'s output is copied out as
//! [`SqlValue`]s, and [`Database::query_each`] hands it over a row at a
//! time instead of whole. A number updated over a number is rewritten in
//! place.
//! Rows keep their insertion order. A NaN or infinite REAL is refused with
//! [`Error::Type`]: it has no literal the WAL could replay.
//!
//! ```
//! use minisql::{Database, SqlValue};
//!
//! let mut db = Database::in_memory();
//! db.execute("CREATE TABLE patterns (id TEXT PRIMARY KEY, service TEXT, cnt INTEGER DEFAULT 0)").unwrap();
//! db.execute_with(
//!     "INSERT INTO patterns (id, service) VALUES (?, ?)",
//!     &["abc".into(), "sshd".into()],
//! ).unwrap();
//! db.execute("UPDATE patterns SET cnt = cnt + 1 WHERE id = 'abc'").unwrap();
//! let rows = db.query("SELECT cnt FROM patterns WHERE service = 'sshd'").unwrap();
//! assert_eq!(rows[0][0], SqlValue::Integer(1));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod log;
pub mod parser;
mod table;
pub mod value;
pub mod wal;

pub use engine::{sql_literal, Database, ExecResult};
pub use error::Error;
pub use value::SqlValue;

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("minisql-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// The plain frames of a statement list, as every version has written
    /// them.
    fn framed<S: AsRef<str>>(stmts: &[S]) -> String {
        stmts
            .iter()
            .map(|stmt| format!("#{}\n{}\n", stmt.as_ref().len(), stmt.as_ref()))
            .collect()
    }

    #[test]
    fn reopen_recovers_state() {
        let dir = tmpdir("reopen");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id TEXT PRIMARY KEY, n INTEGER)")
                .unwrap();
            db.execute_with("INSERT INTO t VALUES (?, ?)", &["a".into(), 1i64.into()])
                .unwrap();
            db.execute_with("INSERT INTO t VALUES (?, ?)", &["b".into(), 2i64.into()])
                .unwrap();
            db.execute("UPDATE t SET n = 10 WHERE id = 'a'").unwrap();
        }
        {
            let mut db = Database::open(&dir).unwrap();
            let rows = db.query("SELECT n FROM t ORDER BY id").unwrap();
            assert_eq!(
                rows,
                vec![vec![SqlValue::Integer(10)], vec![SqlValue::Integer(2)]]
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_preserves() {
        let dir = tmpdir("ckpt");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id TEXT PRIMARY KEY, n INTEGER)")
                .unwrap();
            for i in 0..50 {
                db.execute_with(
                    "INSERT INTO t VALUES (?, ?)",
                    &[format!("k{i}").into(), (i as i64).into()],
                )
                .unwrap();
            }
            // Lots of churn, then checkpoint.
            for _ in 0..5 {
                db.execute("UPDATE t SET n = n + 1").unwrap();
            }
            db.checkpoint().unwrap();
            // The snapshot is streamed row by row; it must hold exactly the
            // frames of the statement dump.
            let framed: String = db
                .dump_statements()
                .iter()
                .map(|stmt| format!("#{}\n{stmt}\n", stmt.len()))
                .collect();
            assert_eq!(
                fs::read_to_string(dir.join("snapshot.sql")).unwrap(),
                framed
            );
            db.execute("DELETE FROM t WHERE n < 10").unwrap();
        }
        {
            let mut db = Database::open(&dir).unwrap();
            let rows = db.query("SELECT COUNT(*), SUM(n) FROM t").unwrap();
            assert_eq!(rows[0][0], SqlValue::Integer(45));
            // n = 5 + i, and the DELETE dropped i < 5.
            assert_eq!(rows[0][1], SqlValue::Integer((5..50).map(|i| 5 + i).sum()));
            // The WAL was truncated at checkpoint; only the DELETE follows.
            let wal_size = fs::metadata(dir.join("wal.sql")).unwrap().len();
            assert!(
                wal_size < 200,
                "wal should be small after checkpoint, got {wal_size}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolled_back_statements_never_reach_the_wal() {
        let dir = tmpdir("txn");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
                .unwrap();
            db.execute("BEGIN").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute("ROLLBACK").unwrap();
            db.execute("BEGIN").unwrap();
            db.execute("INSERT INTO t VALUES (2)").unwrap();
            db.execute("COMMIT").unwrap();
        }
        {
            let mut db = Database::open(&dir).unwrap();
            let rows = db.query("SELECT id FROM t").unwrap();
            assert_eq!(rows, vec![vec![SqlValue::Integer(2)]]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A committed transaction is one group in the WAL: cut the file at every
    /// byte of the group and recovery sees none of its statements, or all.
    #[test]
    fn torn_transaction_group_recovers_all_or_nothing() {
        let dir = tmpdir("torn-group");
        let (before, after, group_start, wal) = {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, body TEXT)")
                .unwrap();
            db.execute("INSERT INTO t VALUES (1, 'kept')").unwrap();
            let before = db.dump();
            let group_start = fs::metadata(dir.join("wal.sql")).unwrap().len() as usize;
            db.execute("BEGIN").unwrap();
            // A cut may split `é`: a torn tail is cut before it is read as text.
            db.execute_with("INSERT INTO t VALUES (2, ?)", &["two\nlinés".into()])
                .unwrap();
            db.execute("UPDATE t SET body = 'changed' WHERE id = 1")
                .unwrap();
            db.execute("INSERT INTO t VALUES (3, 'three')").unwrap();
            db.execute("COMMIT").unwrap();
            let wal = fs::read(dir.join("wal.sql")).unwrap();
            (before, db.dump(), group_start, wal)
        };
        assert_eq!(wal[group_start], b'!');
        for cut in group_start..=wal.len() {
            fs::write(dir.join("wal.sql"), &wal[..cut]).unwrap();
            let mut db = Database::open(&dir).unwrap();
            let expect = if cut == wal.len() { &after } else { &before };
            assert_eq!(&db.dump(), expect, "wal.sql cut at byte {cut}");
            // The torn tail is gone from the file too: what is appended next
            // is still there after another restart.
            db.execute("INSERT INTO t VALUES (9, 'later')").unwrap();
            let live = db.dump();
            drop(db);
            assert_eq!(Database::open(&dir).unwrap().dump(), live, "cut {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Files written before transaction groups existed hold plain frames.
    #[test]
    fn plain_frame_wal_opens_unchanged() {
        let dir = tmpdir("plain-frames");
        fs::create_dir_all(&dir).unwrap();
        let stmts = [
            "CREATE TABLE t (id INTEGER PRIMARY KEY)",
            "INSERT INTO t VALUES ( 1 )",
            "INSERT INTO t VALUES ( 2 )",
        ];
        fs::write(dir.join("wal.sql"), framed(&stmts)).unwrap();
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(
            db.query("SELECT id FROM t ORDER BY id").unwrap(),
            vec![vec![SqlValue::Integer(1)], vec![SqlValue::Integer(2)]]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A NaN or infinite REAL has no literal that reads back, so none
    /// reaches a cell or the WAL — by parameter, literal or `+` — and the
    /// database still opens with every row written before.
    #[test]
    fn a_non_finite_real_is_refused_and_the_database_still_opens() {
        let dir = tmpdir("non-finite");
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id TEXT PRIMARY KEY, r REAL)")
            .unwrap();
        db.execute_with("INSERT INTO t VALUES (?, ?)", &["a".into(), 1.5.into()])
            .unwrap();
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &["max".into(), f64::MAX.into()],
        )
        .unwrap();
        let before = db.dump();
        let huge = format!("{}.0", "9".repeat(400));
        let refused: [(String, Vec<SqlValue>); 6] = [
            (
                "INSERT INTO t VALUES (?, ?)".into(),
                vec!["b".into(), f64::NAN.into()],
            ),
            (
                "INSERT INTO t VALUES (?, ?)".into(),
                vec!["c".into(), f64::INFINITY.into()],
            ),
            (format!("INSERT INTO t VALUES ('d', {huge})"), vec![]),
            ("UPDATE t SET r = r + ?".into(), vec![f64::MAX.into()]),
            (
                "UPDATE t SET r = ? - r".into(),
                vec![f64::NEG_INFINITY.into()],
            ),
            (
                "DELETE FROM t WHERE r < ?".into(),
                vec![f64::INFINITY.into()],
            ),
        ];
        for (sql, params) in &refused {
            let got = db.execute_with(sql, params);
            assert!(matches!(got, Err(Error::Type(_))), "{sql}: {got:?}");
            assert_eq!(db.dump(), before, "{sql} changed the table");
        }
        db.execute("BEGIN").unwrap();
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &["e".into(), f64::NAN.into()],
        )
        .unwrap_err();
        db.execute("COMMIT").unwrap();
        drop(db);
        assert_eq!(Database::open(&dir).unwrap().dump(), before);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint syncs the directory after renaming the snapshot: a
    /// failure there is reported, and the WAL the new snapshot covers is
    /// cut all the same, so a reopen applies each statement once.
    #[test]
    fn a_failed_directory_sync_fails_the_checkpoint_and_replays_nothing_twice() {
        let dir = tmpdir("dir-sync");
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id TEXT PRIMARY KEY, n INTEGER)")
            .unwrap();
        db.execute("INSERT INTO t VALUES ('a', 1)").unwrap();
        db.execute("UPDATE t SET n = n + 1").unwrap();
        let live = db.dump();
        log::inject(Some(log::Fault::DirSync));
        assert!(matches!(db.checkpoint(), Err(Error::Io(_))));
        assert_eq!(fs::metadata(dir.join("wal.sql")).unwrap().len(), 0);
        db.execute("UPDATE t SET n = n + 1").unwrap();
        let after = db.dump();
        drop(db);
        assert_ne!(after, live);
        assert_eq!(Database::open(&dir).unwrap().dump(), after);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_refused_inside_transaction() {
        let dir = tmpdir("txn-ckpt");
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.execute("BEGIN").unwrap();
        assert!(db.checkpoint().is_err());
        db.execute("COMMIT").unwrap();
        db.checkpoint().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiline_text_survives_reopen() {
        let dir = tmpdir("multiline");
        let msg = "panic: boom\n  at a()\n  at b()";
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE ex (id INTEGER PRIMARY KEY, body TEXT)")
                .unwrap();
            db.execute_with("INSERT INTO ex VALUES (?, ?)", &[1i64.into(), msg.into()])
                .unwrap();
            db.checkpoint().unwrap();
        }
        {
            let mut db = Database::open(&dir).unwrap();
            let rows = db.query("SELECT body FROM ex").unwrap();
            assert_eq!(rows[0][0], SqlValue::Text(msg.into()));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
