//! Transactions as a property. The engine reverses a transaction from an
//! undo log of what its statements touched; the oracle here is the state
//! itself: whatever a random transaction did, `ROLLBACK` must leave the dump
//! and the unique indexes exactly as `BEGIN` found them, and `COMMIT` must
//! leave on disk exactly what is live.

use minisql::{Database, Error};
use std::collections::{BTreeMap, BTreeSet};
use testkit::prop::{self, Config};
use testkit::rng::Rng;
use testkit::{prop_assert, prop_assert_eq};

/// Keys come from a domain this small so that statements collide.
fn key(rng: &mut Rng) -> i64 {
    rng.gen_range(0..8i64)
}

fn table(rng: &mut Rng) -> &'static str {
    ["a", "b"][rng.bounded(2) as usize]
}

fn create(rng: &mut Rng) -> String {
    let unique = if rng.gen_bool(0.7) { " UNIQUE" } else { "" };
    format!(
        "CREATE TABLE {} (k INTEGER PRIMARY KEY, u INTEGER{unique}, v INTEGER, s TEXT)",
        table(rng)
    )
}

/// One row, which may repeat an existing key.
fn insert(rng: &mut Rng) -> String {
    let u = if rng.gen_bool(0.2) {
        "NULL".to_string()
    } else {
        key(rng).to_string()
    };
    format!(
        "INSERT INTO {} VALUES ({}, {u}, {}, 'it''s {}')",
        table(rng),
        key(rng),
        key(rng),
        key(rng)
    )
}

fn setup_statement(rng: &mut Rng) -> String {
    if rng.gen_bool(0.3) {
        create(rng)
    } else {
        insert(rng)
    }
}

fn statement(rng: &mut Rng) -> String {
    let t = table(rng);
    match rng.bounded(15) {
        0 => create(rng),
        1..=5 => insert(rng),
        // Non-unique columns: by index probe, by scan, every row.
        6 => format!(
            "UPDATE {t} SET v = v + 1, s = 'probed' WHERE k = {}",
            key(rng)
        ),
        7 => format!("UPDATE {t} SET v = 0, v = v + 7 WHERE v < {}", key(rng)),
        8 => format!(
            "UPDATE {t} SET s = 'it''s -{}', v = v - {}",
            key(rng),
            key(rng)
        ),
        // Unique columns: a shift of every key onto its neighbour's, one
        // that may collide with the rows it skips, a key move, and (more
        // than one row present) a certain failure in `rebuild_indexes`.
        9 => format!("UPDATE {t} SET u = u + 1"),
        10 => format!("UPDATE {t} SET u = u + 1 WHERE v < {}", key(rng)),
        11 => format!("UPDATE {t} SET k = {} WHERE k = {}", key(rng), key(rng)),
        12 => format!("UPDATE {t} SET u = {}", key(rng)),
        13 => format!("DELETE FROM {t} WHERE k = {}", key(rng)),
        _ => format!("DELETE FROM {t} WHERE v < {}", key(rng)),
    }
}

/// Per table: whether `u` is unique, the `k` values and the non-null `u`
/// values it holds.
type Keys = BTreeMap<String, (bool, BTreeSet<i64>, BTreeSet<i64>)>;

fn keys(db: &mut Database) -> Keys {
    let unique_u: BTreeSet<String> = db
        .dump_statements()
        .iter()
        .filter(|stmt| stmt.contains("u INTEGER UNIQUE"))
        .map(|stmt| stmt.split(' ').nth(2).unwrap().to_string())
        .collect();
    ["a", "b"]
        .into_iter()
        .filter_map(|t| {
            let rows = db.query(&format!("SELECT k, u FROM {t}")).ok()?;
            let column = |i: usize| rows.iter().filter_map(|r| r[i].as_integer()).collect();
            let held = (unique_u.contains(t), column(0), column(1));
            Some((t.to_string(), held))
        })
        .collect()
}

#[test]
fn rollback_leaves_rows_and_indexes_as_begin_found_them() {
    let strategy = (
        prop::vec(prop::from_fn(setup_statement), 0..12),
        prop::vec(prop::from_fn(statement), 0..24),
    );
    prop::check(&Config::default(), &strategy, |(setup, txn)| {
        let mut db = Database::in_memory();
        for sql in setup {
            let _ = db.execute(sql);
        }
        let dump = db.dump();
        let before = keys(&mut db);

        db.execute("BEGIN").unwrap();
        for sql in txn {
            // Failures stay in the sequence: what a statement did before it
            // failed must be reversed like everything else.
            let _ = db.execute(sql);
        }
        let inside = keys(&mut db);
        db.execute("ROLLBACK").unwrap();
        prop_assert_eq!(db.dump(), dump);

        for (t, (unique_u, ks, us)) in &before {
            for k in ks {
                let again = db.execute(&format!("INSERT INTO {t} (k) VALUES ({k})"));
                prop_assert!(
                    matches!(again, Err(Error::UniqueViolation { .. })),
                    "{t}.k = {k} existed before BEGIN and no longer conflicts"
                );
            }
            for u in us.iter().filter(|_| *unique_u) {
                let again = db.execute(&format!("INSERT INTO {t} (k, u) VALUES (1000, {u})"));
                prop_assert!(
                    matches!(again, Err(Error::UniqueViolation { .. })),
                    "{t}.u = {u} existed before BEGIN and no longer conflicts"
                );
            }
            // Keys only the transaction held are free again.
            let Some((_, ks_inside, us_inside)) = inside.get(t) else {
                continue;
            };
            for k in ks_inside.difference(ks) {
                let free = db.execute(&format!("INSERT INTO {t} (k) VALUES ({k})"));
                prop_assert!(free.is_ok(), "{t}.k = {k} left behind: {free:?}");
            }
            for u in us_inside.difference(us).filter(|_| *unique_u) {
                let free = db.execute(&format!(
                    "INSERT INTO {t} (k, u) VALUES ({}, {u})",
                    1000 + u
                ));
                prop_assert!(free.is_ok(), "{t}.u = {u} left behind: {free:?}");
            }
        }
        Ok(())
    });
}

#[test]
fn commit_leaves_on_disk_what_is_live() {
    let strategy = (
        prop::vec(prop::from_fn(setup_statement), 0..12),
        prop::vec(prop::from_fn(statement), 0..16),
    );
    let dir = std::env::temp_dir().join(format!("minisql-txn-prop-{}", std::process::id()));
    prop::check(&Config::cases(96), &strategy, |(setup, txn)| {
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::open(&dir).unwrap();
        for sql in setup {
            let _ = db.execute(sql);
        }
        db.execute("BEGIN").unwrap();
        for sql in txn {
            let was = db.dump();
            // A statement that fails changes nothing.
            if db.execute(sql).is_err() {
                prop_assert_eq!(db.dump(), was, "{}", sql);
            }
        }
        db.execute("COMMIT").unwrap();
        let live = db.dump();
        drop(db);
        prop_assert_eq!(Database::open(&dir).unwrap().dump(), live);
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&dir);
}
