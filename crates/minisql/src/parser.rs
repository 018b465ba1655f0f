//! Recursive-descent parser for the SQL subset.

use crate::ast::*;
use crate::error::Error;
use crate::lexer::{lex, Tok};
use crate::value::SqlValue;

/// Parse one statement.
pub fn parse(sql: &str) -> Result<Statement, Error> {
    let toks = lex(sql)?;
    let mut p = P {
        toks,
        i: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    if p.i != p.toks.len() {
        return Err(Error::Parse(format!(
            "trailing tokens after statement: {:?}",
            &p.toks[p.i..]
        )));
    }
    Ok(stmt)
}

struct P {
    toks: Vec<Tok>,
    i: usize,
    params: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn peek_kw(&self) -> Option<String> {
        self.peek().and_then(|t| t.keyword())
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw().as_deref() == Some(kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), Error> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(x)) if *x == p) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), Error> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {p:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, Error> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(Error::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// `item (, item)*`
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let mut items = vec![item(self)?];
        while self.eat_punct(",") {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// `( item (, item)* )`
    fn parenthesized<T>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        self.expect_punct("(")?;
        let items = self.list(item)?;
        self.expect_punct(")")?;
        Ok(items)
    }

    /// `[WHERE expr]`
    fn filter(&mut self) -> Result<Option<Expr>, Error> {
        self.eat_kw("WHERE").then(|| self.expr()).transpose()
    }

    fn statement(&mut self) -> Result<Statement, Error> {
        let kw = self.peek_kw();
        self.i += 1;
        Ok(match kw.as_deref() {
            Some("CREATE") => self.create()?,
            Some("ALTER") => self.alter()?,
            Some("INSERT") => self.insert()?,
            Some("SELECT") => Statement::Select(self.select()?),
            Some("UPDATE") => self.update()?,
            Some("DELETE") => self.delete()?,
            Some("BEGIN") => Statement::Begin,
            Some("COMMIT") => Statement::Commit,
            Some("ROLLBACK") => Statement::Rollback,
            _ => {
                return Err(Error::Parse(format!(
                    "expected statement, found {:?}",
                    self.toks.first()
                )))
            }
        })
    }

    fn create(&mut self) -> Result<Statement, Error> {
        self.expect_kw("TABLE")?;
        let if_not_exists = self.eat_kw("IF");
        if if_not_exists {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
        }
        Ok(Statement::CreateTable {
            name: self.ident()?,
            if_not_exists,
            columns: self.parenthesized(Self::column_def)?,
        })
    }

    /// `ALTER TABLE t ADD [COLUMN] <column-def>`. As in SQLite, the column
    /// cannot be a key, and a NOT NULL one needs a non-NULL default: the
    /// rows already there take the default.
    fn alter(&mut self) -> Result<Statement, Error> {
        self.expect_kw("TABLE")?;
        let table = self.ident()?;
        self.expect_kw("ADD")?;
        self.eat_kw("COLUMN");
        let column = self.column_def()?;
        if column.primary_key || column.unique {
            return Err(Error::Parse("cannot add a key column".into()));
        }
        if column.not_null && column.default.as_ref().is_none_or(SqlValue::is_null) {
            return Err(Error::Parse(
                "cannot add a NOT NULL column with default NULL".into(),
            ));
        }
        Ok(Statement::AddColumn { table, column })
    }

    fn column_def(&mut self) -> Result<ColumnDef, Error> {
        let name = self.ident()?;
        let ty = match self.ident()?.to_ascii_uppercase().as_str() {
            "INTEGER" => ColType::Integer,
            "REAL" => ColType::Real,
            "TEXT" => ColType::Text,
            other => return Err(Error::Parse(format!("unknown column type {other}"))),
        };
        let mut def = ColumnDef {
            name,
            ty,
            primary_key: false,
            not_null: false,
            unique: false,
            default: None,
        };
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                def.primary_key = true;
                def.not_null = true;
                def.unique = true;
            } else if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                def.not_null = true;
            } else if self.eat_kw("UNIQUE") {
                def.unique = true;
            } else if self.eat_kw("DEFAULT") {
                def.default = Some(self.literal()?);
            } else {
                return Ok(def);
            }
        }
    }

    /// A number (a leading `-` makes it negative), a string, or NULL.
    fn literal(&mut self) -> Result<SqlValue, Error> {
        let negative = self.eat_punct("-");
        match (self.next(), negative) {
            (Some(Tok::Int(v)), _) => match negative {
                true => 0i64.checked_sub_unsigned(v),
                false => i64::try_from(v).ok(),
            }
            .map(SqlValue::Integer)
            .ok_or_else(|| Error::Parse(format!("integer {v} is out of range"))),
            // `NaN` or `inf` would read back from the WAL as a column name.
            (Some(Tok::Float(v)), _) if !v.is_finite() => {
                Err(Error::Type(format!("REAL {v} is not finite")))
            }
            (Some(Tok::Float(v)), _) => Ok(SqlValue::Real(if negative { -v } else { v })),
            (Some(Tok::Str(s)), false) => Ok(SqlValue::Text(s)),
            (Some(Tok::Ident(s)), false) if s.eq_ignore_ascii_case("NULL") => Ok(SqlValue::Null),
            (other, _) => Err(Error::Parse(format!("expected a value, found {other:?}"))),
        }
    }

    fn insert(&mut self) -> Result<Statement, Error> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = match self.peek() {
            Some(Tok::Punct("(")) => self.parenthesized(Self::ident)?,
            _ => Vec::new(),
        };
        self.expect_kw("VALUES")?;
        Ok(Statement::Insert {
            table,
            columns,
            values: self.parenthesized(Self::expr)?,
        })
    }

    fn select(&mut self) -> Result<SelectStmt, Error> {
        let items = self.list(Self::select_item)?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = self.filter()?;
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by = self.list(Self::expr)?;
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            order_by = self.list(|p| {
                let expr = p.expr()?;
                Ok(OrderKey {
                    expr,
                    desc: p.eat_kw("DESC"),
                })
            })?;
        }
        Ok(SelectStmt {
            items,
            table,
            filter,
            group_by,
            order_by,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, Error> {
        let call = matches!(self.toks.get(self.i + 1), Some(Tok::Punct("(")));
        let projection = match self.peek_kw().as_deref() {
            Some(f @ ("COUNT" | "SUM")) if call => {
                self.i += 2;
                let projection = if f == "COUNT" {
                    self.expect_punct("*")?;
                    Projection::CountStar
                } else {
                    Projection::Sum(self.expr()?)
                };
                self.expect_punct(")")?;
                projection
            }
            _ => Projection::Expr(self.expr()?),
        };
        let alias = self.eat_kw("AS").then(|| self.ident()).transpose()?;
        Ok(SelectItem { projection, alias })
    }

    fn update(&mut self) -> Result<Statement, Error> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let sets = self.list(|p| {
            let col = p.ident()?;
            p.expect_punct("=")?;
            Ok((col, p.expr()?))
        })?;
        Ok(Statement::Update {
            table,
            sets,
            filter: self.filter()?,
        })
    }

    fn delete(&mut self) -> Result<Statement, Error> {
        self.expect_kw("FROM")?;
        Ok(Statement::Delete {
            table: self.ident()?,
            filter: self.filter()?,
        })
    }

    // ---- expressions ----

    /// A sum, or a comparison of two.
    fn expr(&mut self) -> Result<Expr, Error> {
        let lhs = self.sum()?;
        let op = match self.peek() {
            Some(Tok::Punct("=")) => BinOp::Eq,
            Some(Tok::Punct("!=" | "<>")) => BinOp::Ne,
            Some(Tok::Punct("<")) => BinOp::Lt,
            Some(Tok::Punct("<=")) => BinOp::Le,
            Some(Tok::Punct(">")) => BinOp::Gt,
            Some(Tok::Punct(">=")) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.i += 1;
        Ok(Expr::Binary(Box::new(lhs), op, Box::new(self.sum()?)))
    }

    /// Operands joined by `+` and `-`, left to right.
    fn sum(&mut self) -> Result<Expr, Error> {
        let mut lhs = self.operand()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("+")) => BinOp::Add,
                Some(Tok::Punct("-")) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.i += 1;
            lhs = Expr::Binary(Box::new(lhs), op, Box::new(self.operand()?));
        }
    }

    fn operand(&mut self) -> Result<Expr, Error> {
        match self.peek() {
            Some(Tok::Param) => {
                self.i += 1;
                self.params += 1;
                Ok(Expr::Param(self.params - 1))
            }
            Some(Tok::Ident(name)) if !name.eq_ignore_ascii_case("NULL") => {
                let name = name.clone();
                self.i += 1;
                Ok(Expr::Column(name))
            }
            _ => Ok(Expr::Literal(self.literal()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The statement fails to parse.
    fn rejected(sql: &str) -> bool {
        matches!(parse(sql), Err(Error::Parse(_) | Error::Lex(_)))
    }

    #[test]
    fn create_table() {
        let s = parse(
            "CREATE TABLE IF NOT EXISTS patterns (
                id TEXT PRIMARY KEY,
                service TEXT NOT NULL,
                cnt INTEGER DEFAULT 0,
                complexity REAL DEFAULT -0.5,
                code INTEGER UNIQUE
            )",
        )
        .unwrap();
        match s {
            Statement::CreateTable {
                name,
                if_not_exists,
                columns,
            } => {
                assert_eq!(name, "patterns");
                assert!(if_not_exists);
                assert_eq!(columns.len(), 5);
                assert!(columns[0].primary_key && columns[0].unique && columns[0].not_null);
                assert_eq!(columns[2].default, Some(SqlValue::Integer(0)));
                assert_eq!(columns[3].ty, ColType::Real);
                assert_eq!(columns[3].default, Some(SqlValue::Real(-0.5)));
                assert!(columns[4].unique && !columns[4].primary_key);
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn alter_table_add_column() {
        for sql in [
            "ALTER TABLE t ADD COLUMN body TEXT DEFAULT ''",
            "alter table t add body TEXT DEFAULT ''",
        ] {
            let Statement::AddColumn { table, column } = parse(sql).unwrap() else {
                panic!("{sql}")
            };
            assert_eq!((table.as_str(), column.name.as_str()), ("t", "body"));
            assert_eq!(column.default, Some(SqlValue::Text(String::new())));
        }
        assert!(parse("ALTER TABLE t ADD n INTEGER NOT NULL DEFAULT 0").is_ok());
        for sql in [
            "ALTER TABLE t ADD n INTEGER NOT NULL",
            "ALTER TABLE t ADD n INTEGER UNIQUE",
            "ALTER TABLE t ADD n INTEGER PRIMARY KEY",
            "ALTER TABLE t DROP COLUMN n",
            "ALTER TABLE t RENAME TO u",
            "ALTER TABLE t ADD COLUMN",
        ] {
            assert!(rejected(sql), "{sql}");
        }
    }

    #[test]
    fn insert_with_params_and_multirow() {
        let s = parse("INSERT INTO t (a, b) VALUES (?, ?)").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(values, vec![Expr::Param(0), Expr::Param(1)]);
            }
            other => panic!("wrong statement {other:?}"),
        }
        // One row per statement, and no conflict clause.
        assert!(rejected("INSERT INTO t (a, b) VALUES (?, ?), (1, 'x')"));
        assert!(rejected("INSERT OR REPLACE INTO t (a, b) VALUES (1, 'x')"));
    }

    #[test]
    fn select_full_clause_set() {
        let s = parse(
            "SELECT service, COUNT(*) AS n, SUM(cnt) FROM patterns \
             WHERE cnt >= 5 \
             GROUP BY service ORDER BY n DESC, service",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 3);
                assert_eq!(sel.items[1].projection, Projection::CountStar);
                assert_eq!(sel.items[1].alias.as_deref(), Some("n"));
                assert_eq!(
                    sel.items[2].projection,
                    Projection::Sum(Expr::Column("cnt".into()))
                );
                assert_eq!(sel.table, "patterns");
                assert_eq!(sel.group_by.len(), 1);
                assert_eq!(sel.order_by.len(), 2);
                assert!(sel.order_by[0].desc && !sel.order_by[1].desc);
            }
            other => panic!("wrong statement {other:?}"),
        }
        assert!(rejected("SELECT a FROM t ORDER BY a LIMIT 10"));
        assert!(rejected("SELECT a FROM t ORDER BY a ASC"));
    }

    #[test]
    fn operator_precedence() {
        // Comparison binds looser than `+` / `-`, which associate left.
        let s = parse("SELECT a FROM t WHERE a - 1 + ? = -2").unwrap();
        let Statement::Select(sel) = s else {
            unreachable!()
        };
        let Some(Expr::Binary(lhs, BinOp::Eq, rhs)) = sel.filter else {
            panic!("wrong tree {:?}", sel.filter)
        };
        assert!(matches!(*rhs, Expr::Literal(SqlValue::Integer(-2))));
        let Expr::Binary(inner, BinOp::Add, param) = *lhs else {
            panic!("wrong tree")
        };
        assert_eq!(*param, Expr::Param(0));
        assert!(matches!(*inner, Expr::Binary(_, BinOp::Sub, _)));
        assert!(rejected("SELECT a FROM t WHERE a * 2 = 4"));
    }

    #[test]
    fn where_variants() {
        for op in ["=", "!=", "<>", "<", "<=", ">", ">="] {
            assert!(parse(&format!("SELECT a FROM t WHERE a {op} 1")).is_ok());
        }
        assert!(parse("SELECT a FROM t WHERE a = NULL").is_ok());
        assert!(parse("SELECT a FROM t WHERE 'x' = a").is_ok());
        for filter in [
            "a IS NULL",
            "a IN (1, 2, 3)",
            "a LIKE '%x%'",
            "NOT a = 1",
            "a = 1 AND b = 2",
            "a = 1 OR b = 2",
            "(a = 1)",
            "-a = 1",
        ] {
            assert!(
                rejected(&format!("SELECT a FROM t WHERE {filter}")),
                "{filter}"
            );
        }
    }

    #[test]
    fn update_and_delete() {
        assert!(matches!(
            parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = ?").unwrap(),
            Statement::Update { .. }
        ));
        assert!(matches!(
            parse("DELETE FROM t WHERE a < 3").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse("DELETE FROM t").unwrap(),
            Statement::Delete { filter: None, .. }
        ));
    }

    #[test]
    fn errors() {
        assert!(rejected("SELEC a"));
        assert!(rejected("SELECT a FROM"));
        assert!(rejected("CREATE TABLE t (a BLOB2)"));
        assert!(rejected("SELECT a FROM t WHERE a NOT 5"));
        assert!(rejected("SELECT a FROM t SELECT b FROM t"));
        assert!(rejected("SELECT a FROM t;"));
        assert!(rejected(""));
    }

    #[test]
    fn having_clause() {
        assert!(rejected(
            "SELECT service, COUNT(*) FROM p GROUP BY service HAVING COUNT(*) > 2"
        ));
    }

    #[test]
    fn transaction_statements() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
        assert!(rejected("BEGIN TRANSACTION"));
    }

    #[test]
    fn param_counting() {
        // Placeholders are numbered in the order they appear.
        let s = parse("UPDATE t SET a = a + ?, b = ? WHERE id = ?").unwrap();
        let Statement::Update { sets, filter, .. } = s else {
            unreachable!()
        };
        assert!(matches!(&sets[0].1, Expr::Binary(_, BinOp::Add, p) if **p == Expr::Param(0)));
        assert_eq!(sets[1].1, Expr::Param(1));
        assert!(matches!(filter, Some(Expr::Binary(_, BinOp::Eq, p)) if *p == Expr::Param(2)));
    }
}
