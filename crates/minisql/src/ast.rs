//! Abstract syntax tree of the SQL subset.

use crate::value::SqlValue;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integer.
    Integer,
    /// 64-bit float.
    Real,
    /// UTF-8 text.
    Text,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: ColType,
    /// PRIMARY KEY (implies UNIQUE and NOT NULL).
    pub primary_key: bool,
    /// NOT NULL constraint.
    pub not_null: bool,
    /// UNIQUE constraint.
    pub unique: bool,
    /// DEFAULT value (a literal).
    pub default: Option<SqlValue>,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(SqlValue),
    /// A `?` placeholder, by position.
    Param(usize),
    /// A column reference.
    Column(String),
    /// Binary operation.
    Binary(Box<Expr>, BinOp, Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
}

/// What one SELECT item computes.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// A row-level expression.
    Expr(Expr),
    /// `COUNT(*)`: the rows of the group.
    CountStar,
    /// `SUM(expr)`: the sum of the group's non-NULL values, NULL if none.
    Sum(Expr),
}

/// One item of a SELECT projection.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// What the item computes.
    pub projection: Projection,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression (usually a column).
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Skip if the table exists.
        if_not_exists: bool,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `ALTER TABLE t ADD [COLUMN] <column-def>`.
    AddColumn {
        /// Target table.
        table: String,
        /// The new last column; existing rows take its default.
        column: ColumnDef,
    },
    /// INSERT of one row.
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list (empty = all columns in order).
        columns: Vec<String>,
        /// The row's value expressions.
        values: Vec<Expr>,
    },
    /// SELECT.
    Select(SelectStmt),
    /// UPDATE.
    Update {
        /// Target table.
        table: String,
        /// `SET col = expr` assignments.
        sets: Vec<(String, Expr)>,
        /// WHERE filter.
        filter: Option<Expr>,
    },
    /// DELETE.
    Delete {
        /// Target table.
        table: String,
        /// WHERE filter.
        filter: Option<Expr>,
    },
    /// BEGIN.
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
}

/// The SELECT statement body.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection.
    pub items: Vec<SelectItem>,
    /// FROM table.
    pub table: String,
    /// WHERE filter.
    pub filter: Option<Expr>,
    /// GROUP BY columns.
    pub group_by: Vec<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
}
