//! Data-driven SQL logic tests: each case is a statement plus its expected
//! rendering. Cases run in order against one shared database, sqllogictest
//! style, so later cases also verify the side effects of earlier ones.

use minisql::{Database, ExecResult};

/// Render an ExecResult compactly: rows as `a|b|c` lines, affected counts as
/// `#n`, DDL as `ok`.
fn render(r: &ExecResult) -> String {
    match r {
        ExecResult::None => "ok".to_string(),
        ExecResult::Affected(n) => format!("#{n}"),
        ExecResult::Rows { rows, .. } => rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

fn run_script(cases: &[(&str, &str)]) {
    let mut db = Database::in_memory();
    for (i, (sql, expected)) in cases.iter().enumerate() {
        match db.execute(sql) {
            Ok(result) => {
                let got = render(&result);
                assert_eq!(
                    &got, expected,
                    "case {i}: {sql}\n  expected {expected:?}\n  got      {got:?}"
                );
            }
            Err(e) => {
                assert_eq!(
                    *expected, "error",
                    "case {i}: {sql} unexpectedly failed with {e}"
                );
            }
        }
    }
}

#[test]
fn schema_and_inserts() {
    run_script(&[
        (
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT NOT NULL, c REAL DEFAULT 1.5)",
            "ok",
        ),
        ("CREATE TABLE t (a INTEGER)", "error"),
        ("CREATE TABLE IF NOT EXISTS t (a INTEGER)", "ok"),
        ("INSERT INTO t (a, b) VALUES (1, 'one')", "#1"),
        ("INSERT INTO t (a, b, c) VALUES (2, 'two', 2.5)", "#1"),
        ("INSERT INTO t VALUES (3, 'three', 3)", "#1"),
        (
            "SELECT a, b, c FROM t ORDER BY a",
            "1|one|1.5\n2|two|2.5\n3|three|3",
        ),
        ("INSERT INTO t (a, b) VALUES (1, 'dup')", "error"),
        ("INSERT INTO t (a) VALUES (9)", "error"), // b NOT NULL
        (
            "INSERT INTO t (a, b) VALUES (4, 'four'), (5, 'five')",
            "error",
        ),
        ("INSERT OR REPLACE INTO t (a, b) VALUES (1, 'uno')", "error"),
        ("SELECT b FROM t WHERE a = 1", "one"),
        ("SELECT COUNT(*) FROM t", "3"),
        ("CREATE TABLE v (a VARCHAR(8))", "error"),
        ("CREATE TABLE v (a INT)", "error"),
    ]);
}

#[test]
fn filtering_and_expressions() {
    run_script(&[
        ("CREATE TABLE n (x INTEGER, y INTEGER)", "ok"),
        ("INSERT INTO n VALUES (1, 10)", "#1"),
        ("INSERT INTO n VALUES (2, 20)", "#1"),
        ("INSERT INTO n VALUES (3, 30)", "#1"),
        ("INSERT INTO n VALUES (4, 40)", "#1"),
        ("INSERT INTO n VALUES (5, NULL)", "#1"),
        ("SELECT x FROM n WHERE y > 15 ORDER BY x", "2\n3\n4"),
        (
            "SELECT x FROM n WHERE y - 15 < x + 5 ORDER BY x DESC",
            "2\n1",
        ),
        ("SELECT x FROM n WHERE x <> 3 ORDER BY y DESC", "4\n2\n1\n5"),
        ("SELECT x + y FROM n WHERE x = 2", "22"),
        ("SELECT x - 1 + y FROM n WHERE x = 3", "32"),
        ("SELECT x FROM n WHERE y = x + 9", "1"),
        ("SELECT x FROM n WHERE x % 2 = 0", "error"), // % unsupported
        ("SELECT x FROM n WHERE y > 15 AND y < 35", "error"),
        ("SELECT x FROM n WHERE y IS NULL", "error"),
        ("SELECT -x FROM n WHERE x = 1", "error"),
        ("SELECT x - -1 FROM n WHERE x = 1", "2"),
        ("SELECT x FROM n ORDER BY y DESC LIMIT 2", "error"),
    ]);
}

#[test]
fn strings_and_like() {
    run_script(&[
        ("CREATE TABLE s (v TEXT)", "ok"),
        ("INSERT INTO s VALUES ('alpha')", "#1"),
        ("INSERT INTO s VALUES ('it''s')", "#1"),
        ("INSERT INTO s VALUES ('gamma ray')", "#1"),
        ("INSERT INTO s VALUES ('étoile 😀')", "#1"),
        ("INSERT INTO s VALUES ('')", "#1"),
        ("SELECT v FROM s WHERE v = 'it''s'", "it's"),
        (
            "SELECT v FROM s WHERE v > 'b' ORDER BY v",
            "gamma ray\nit's\nétoile 😀",
        ),
        ("SELECT COUNT(*) FROM s WHERE v != ''", "4"),
        ("SELECT v FROM s WHERE v = 'beta'", ""),
        ("SELECT v FROM s WHERE v LIKE 'alpha%'", "error"),
        ("SELECT 'x' || v FROM s", "error"),
        ("SELECT UPPER(v) FROM s", "error"),
        ("SELECT v + 1 FROM s WHERE v = 'alpha'", "error"),
    ]);
}

#[test]
fn aggregates_and_groups() {
    run_script(&[
        ("CREATE TABLE g (k TEXT, v INTEGER)", "ok"),
        ("INSERT INTO g VALUES ('a', 1)", "#1"),
        ("INSERT INTO g VALUES ('a', 2)", "#1"),
        ("INSERT INTO g VALUES ('b', 10)", "#1"),
        ("INSERT INTO g VALUES ('b', 20)", "#1"),
        ("INSERT INTO g VALUES ('b', 30)", "#1"),
        ("INSERT INTO g VALUES ('c', NULL)", "#1"),
        ("SELECT COUNT(*), SUM(v) FROM g", "6|63"),
        ("SELECT SUM(v) FROM g WHERE k = 'b'", "60"),
        (
            "SELECT k, COUNT(*) FROM g GROUP BY k ORDER BY k",
            "a|2\nb|3\nc|1",
        ),
        (
            "SELECT k, SUM(v) AS total FROM g GROUP BY k ORDER BY total DESC",
            "b|60\na|3\nc|NULL",
        ),
        ("SELECT k FROM g WHERE v > 5 GROUP BY k", "b"),
        ("SELECT COUNT(*) FROM g WHERE v > 100", "0"),
        ("SELECT SUM(v) FROM g WHERE v > 100", "NULL"),
        ("SELECT COUNT(v) FROM g", "error"),
        ("SELECT MIN(v), MAX(v), AVG(v) FROM g", "error"),
        ("SELECT k FROM g GROUP BY k HAVING SUM(v) > 50", "error"),
    ]);
}

#[test]
fn updates_deletes_and_transactions() {
    run_script(&[
        (
            "CREATE TABLE u (id INTEGER PRIMARY KEY, n INTEGER DEFAULT 0)",
            "ok",
        ),
        ("INSERT INTO u (id) VALUES (1)", "#1"),
        ("INSERT INTO u (id) VALUES (2)", "#1"),
        ("INSERT INTO u (id) VALUES (3)", "#1"),
        ("UPDATE u SET n = id + 100", "#3"),
        ("SELECT n FROM u ORDER BY id", "101\n102\n103"),
        ("UPDATE u SET n = n + 1 WHERE id = 2", "#1"),
        ("SELECT n FROM u WHERE id = 2", "103"),
        ("DELETE FROM u WHERE n > 102", "#2"),
        ("SELECT COUNT(*) FROM u", "1"),
        ("UPDATE u SET id = 5, n = id WHERE id = 1", "#1"),
        ("SELECT id, n FROM u", "5|1"),
        ("BEGIN", "ok"),
        ("DELETE FROM u", "#1"),
        ("SELECT COUNT(*) FROM u", "0"),
        ("ROLLBACK", "ok"),
        ("SELECT COUNT(*) FROM u", "1"),
        ("BEGIN", "ok"),
        ("UPDATE u SET n = 0", "#1"),
        ("COMMIT", "ok"),
        ("SELECT SUM(n) FROM u", "0"),
        ("COMMIT", "error"),
        ("BEGIN TRANSACTION", "error"),
    ]);
}

#[test]
fn null_three_valued_logic() {
    run_script(&[
        ("CREATE TABLE z (v INTEGER)", "ok"),
        ("INSERT INTO z VALUES (NULL)", "#1"),
        ("INSERT INTO z VALUES (0)", "#1"),
        ("INSERT INTO z VALUES (1)", "#1"),
        ("SELECT COUNT(*) FROM z WHERE v = NULL", "0"),
        ("SELECT COUNT(*) FROM z WHERE v != 0", "1"),
        ("SELECT COUNT(*) FROM z WHERE v <> NULL", "0"),
        ("SELECT v FROM z ORDER BY v DESC", "1\n0\nNULL"),
        ("SELECT v + 1 FROM z ORDER BY v", "NULL\n1\n2"),
        ("SELECT v = 0 FROM z ORDER BY v", "NULL\n1\n0"),
        ("SELECT COUNT(*) FROM z WHERE v", "1"), // NULL and 0 are false
        ("SELECT COUNT(*) FROM z WHERE v IS NULL OR v = 0", "error"),
    ]);
}

#[test]
fn error_cases() {
    run_script(&[
        ("CREATE TABLE e (a INTEGER)", "ok"),
        ("SELECT b FROM e", "error"),
        ("SELECT a FROM e WHERE b = 1", "error"),
        ("SELECT a FROM e ORDER BY a GROUP BY a", "error"),
        ("SELECT a FROM missing", "error"),
        ("SELECT 1", "error"),
        ("SELECT * FROM e", "error"),
        ("INSERT INTO e VALUES (1, 2)", "error"),
        ("INSERT INTO e VALUES (a)", "error"),
        ("UPDATE e SET b = 1", "error"),
        ("DELETE FROM missing", "error"),
        ("DROP TABLE e", "error"),
        ("EXPLAIN SELECT a FROM e", "error"),
        ("SELECT a FROM e;", "error"),
        ("SELECT", "error"),
        ("FROBNICATE", "error"),
        ("SELECT COUNT(*) FROM e", "0"),
    ]);
}
