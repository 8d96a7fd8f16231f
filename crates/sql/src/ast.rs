//! Abstract syntax tree for the SQL subset.

/// A (possibly qualified) column reference, e.g. `mk.movie_id` or `name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColumnRef {
    pub fn new(qualifier: Option<&str>, name: &str) -> Self {
        ColumnRef {
            qualifier: qualifier.map(str::to_string),
            name: name.to_string(),
        }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Binary operators (comparisons, boolean connectives, arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggName {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    Column(ColumnRef),
    Literal(Literal),
    Binary {
        op: BinOp,
        left: Box<AstExpr>,
        right: Box<AstExpr>,
    },
    Not(Box<AstExpr>),
    IsNull {
        expr: Box<AstExpr>,
        negated: bool,
    },
    InList {
        expr: Box<AstExpr>,
        list: Vec<Literal>,
        negated: bool,
    },
    /// `expr LIKE 'pattern'` — the binder understands `%x%` (contains),
    /// `x%` (prefix) and exact patterns.
    Like {
        expr: Box<AstExpr>,
        pattern: String,
        negated: bool,
    },
    Between {
        expr: Box<AstExpr>,
        low: Box<AstExpr>,
        high: Box<AstExpr>,
    },
    /// Aggregate call. `star` is `COUNT(*)`.
    Agg {
        func: AggName,
        arg: Option<Box<AstExpr>>,
        star: bool,
    },
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write!(f, "{v}"),
            Literal::Str(s) => write!(f, "'{s}'"),
            Literal::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Literal::Null => f.write_str("NULL"),
        }
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        })
    }
}

/// SQL text of an expression, for error messages. Binary operands that
/// are themselves binary are parenthesized.
impl std::fmt::Display for AstExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let not = |negated: &bool| if *negated { "NOT " } else { "" };
        match self {
            AstExpr::Column(c) => write!(f, "{c}"),
            AstExpr::Literal(l) => write!(f, "{l}"),
            AstExpr::Binary { op, left, right } => {
                for (i, side) in [left, right].into_iter().enumerate() {
                    if i == 1 {
                        write!(f, " {op} ")?;
                    }
                    match **side {
                        AstExpr::Binary { .. } => write!(f, "({side})")?,
                        _ => write!(f, "{side}")?,
                    }
                }
                Ok(())
            }
            AstExpr::Not(inner) => write!(f, "NOT ({inner})"),
            AstExpr::IsNull { expr, negated } => write!(f, "{expr} IS {}NULL", not(negated)),
            AstExpr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(Literal::to_string).collect();
                write!(f, "{expr} {}IN ({})", not(negated), items.join(", "))
            }
            AstExpr::Like {
                expr,
                pattern,
                negated,
            } => write!(f, "{expr} {}LIKE '{pattern}'", not(negated)),
            AstExpr::Between { expr, low, high } => write!(f, "{expr} BETWEEN {low} AND {high}"),
            AstExpr::Agg { func, arg, star } => {
                let name = format!("{func:?}").to_uppercase();
                match arg {
                    _ if *star => write!(f, "{name}(*)"),
                    Some(a) => write!(f, "{name}({a})"),
                    None => write!(f, "{name}()"),
                }
            }
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    Star,
    Expr {
        expr: AstExpr,
        alias: Option<String>,
    },
}

/// A table in the FROM list with optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in the query.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// What an ORDER BY key refers to: an output column by name/alias, or a
/// 1-based ordinal into the SELECT list (`ORDER BY 2`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderByTarget {
    Column(ColumnRef),
    Ordinal(usize),
}

/// One `ORDER BY` key with its direction and NULL placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderByItem {
    pub target: OrderByTarget,
    pub desc: bool,
    /// `Some(true)` = NULLS FIRST, `Some(false)` = NULLS LAST, `None` =
    /// dialect default (NULLS LAST for ASC, NULLS FIRST for DESC).
    pub nulls_first: Option<bool>,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<AstExpr>,
    pub group_by: Vec<ColumnRef>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

impl SelectStmt {
    /// Does the SELECT list contain any aggregate?
    pub fn has_aggregates(&self) -> bool {
        fn expr_has_agg(e: &AstExpr) -> bool {
            match e {
                AstExpr::Agg { .. } => true,
                AstExpr::Binary { left, right, .. } => expr_has_agg(left) || expr_has_agg(right),
                AstExpr::Not(x) => expr_has_agg(x),
                AstExpr::IsNull { expr, .. }
                | AstExpr::InList { expr, .. }
                | AstExpr::Like { expr, .. } => expr_has_agg(expr),
                AstExpr::Between { expr, low, high } => {
                    expr_has_agg(expr) || expr_has_agg(low) || expr_has_agg(high)
                }
                _ => false,
            }
        }
        self.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr_has_agg(expr),
            SelectItem::Star => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_display() {
        assert_eq!(ColumnRef::new(Some("t"), "id").to_string(), "t.id");
        assert_eq!(ColumnRef::new(None, "id").to_string(), "id");
    }

    #[test]
    fn expr_display_reparses() {
        use crate::parse_select;
        for w in [
            "o.k + 1 * 2 > 3 AND NOT (o.s LIKE 'a%')",
            "(a = 1 OR b IS NOT NULL) AND c NOT IN (1, 'x', NULL)",
            "x BETWEEN 1 AND 2.5",
        ] {
            let stmt = parse_select(&format!("SELECT COUNT(*) FROM t WHERE {w}")).unwrap();
            let e = stmt.where_clause.unwrap();
            let again = parse_select(&format!("SELECT COUNT(*) FROM t WHERE {e}")).unwrap();
            assert_eq!(again.where_clause.unwrap(), e, "{e}");
        }
    }

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableRef {
            table: "title".into(),
            alias: Some("t".into()),
        };
        assert_eq!(t.binding_name(), "t");
        let t = TableRef {
            table: "title".into(),
            alias: None,
        };
        assert_eq!(t.binding_name(), "title");
    }

    #[test]
    fn aggregate_detection() {
        let stmt = SelectStmt {
            items: vec![SelectItem::Expr {
                expr: AstExpr::Agg {
                    func: AggName::Count,
                    arg: None,
                    star: true,
                },
                alias: None,
            }],
            from: vec![],
            where_clause: None,
            group_by: vec![],
            order_by: vec![],
            limit: None,
            offset: None,
        };
        assert!(stmt.has_aggregates());
        let plain = SelectStmt {
            items: vec![SelectItem::Star],
            from: vec![],
            where_clause: None,
            group_by: vec![],
            order_by: vec![],
            limit: None,
            offset: None,
        };
        assert!(!plain.has_aggregates());
    }
}
