//! `dasp` — Database-as-a-Service with secret sharing.
//!
//! The top-level API of the workspace: deploy a simulated multi-provider
//! outsourced database, speak SQL to it, and get plaintext answers while
//! every provider stores only information-theoretic (or order-leaking,
//! your choice per column) shares.
//!
//! ```
//! use dasp_core::{OutsourcedDatabase, QueryOutput};
//!
//! let mut db = OutsourcedDatabase::deploy_seeded(2, 3, 42).unwrap();
//! db.execute(
//!     "CREATE TABLE employees (name VARCHAR(8) MODE DETERMINISTIC, \
//!      salary INT(1048576) MODE ORDERED)",
//! )
//! .unwrap();
//! db.execute("INSERT INTO employees VALUES ('JOHN', 10000), ('MARY', 20000)")
//!     .unwrap();
//! let out = db
//!     .execute("SELECT * FROM employees WHERE salary BETWEEN 5000 AND 15000")
//!     .unwrap();
//! let QueryOutput::Rows { rows, .. } = out else { panic!() };
//! assert_eq!(rows.len(), 1);
//! ```
//!
//! Lower-level building blocks are re-exported: `client` (the data
//! source), `server` (the provider), `net` (the simulated cluster),
//! `sss` (the share algebra), `verify` (trust mechanisms).

pub use dasp_client as client;
pub use dasp_net as net;
pub use dasp_server as server;
pub use dasp_sql as sql;
pub use dasp_sss as sss;
pub use dasp_verify as verify;

/// Redacting wrapper for client-secret state (defined in `dasp-field`,
/// the workspace's dependency root, so every layer can use it).
pub use dasp_field::Secret;

use dasp_client::{
    AggResult, ClientError, ClientKeys, ColumnSpec, ColumnType, DataSource, ExplainReport,
    GroupRow, Predicate, QueryOptions, TableSchema, Value,
};
use dasp_net::Cluster;
use dasp_server::service::provider_fleet;
use dasp_sql::{
    Aggregate, ColumnMode, ColumnTypeDef, Condition, Literal, ParseError, Projection, Statement,
};
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Top-level errors.
#[derive(Debug)]
pub enum DbError {
    /// SQL syntax error.
    Parse(ParseError),
    /// Execution error from the client/provider stack.
    Client(ClientError),
    /// The statement is syntactically valid but not executable here.
    Unsupported(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::Client(e) => write!(f, "{e}"),
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> Self {
        DbError::Parse(e)
    }
}

impl From<ClientError> for DbError {
    fn from(e: ClientError) -> Self {
        DbError::Client(e)
    }
}

/// A decoded row: id plus values.
pub type OutRow = (u64, Vec<Value>);

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// DDL or other side-effect-only statement.
    None,
    /// Row ids assigned by an INSERT.
    Inserted(Vec<u64>),
    /// SELECT result: column names plus decoded rows.
    Rows {
        /// Projected column names.
        columns: Vec<String>,
        /// `(row id, values)` pairs.
        rows: Vec<OutRow>,
    },
    /// Joined SELECT result.
    Joined {
        /// Pairs of (left row, right row).
        pairs: Vec<(OutRow, OutRow)>,
    },
    /// Aggregate result.
    Aggregate(AggResult),
    /// GROUP BY result rows.
    Groups(Vec<GroupRow>),
    /// Rows affected by UPDATE/DELETE.
    Affected(usize),
    /// An EXPLAIN plan.
    Plan(ExplainReport),
}

/// A deployed outsourced database: one data source, n provider threads.
pub struct OutsourcedDatabase {
    ds: DataSource,
    /// Verify every SELECT via majority reconstruction when true.
    pub verify_reads: bool,
}

impl OutsourcedDatabase {
    /// Deploy with threshold `k` of `n` providers (fresh random keys).
    pub fn deploy(k: usize, n: usize) -> Result<Self, DbError> {
        let mut rng = StdRng::from_entropy();
        Self::deploy_with_rng(k, n, &mut rng, None)
    }

    /// Deterministic deployment for tests and benchmarks.
    pub fn deploy_seeded(k: usize, n: usize, seed: u64) -> Result<Self, DbError> {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::deploy_with_rng(k, n, &mut rng, Some(seed ^ 0x5a5a))
    }

    fn deploy_with_rng(
        k: usize,
        n: usize,
        rng: &mut StdRng,
        ds_seed: Option<u64>,
    ) -> Result<Self, DbError> {
        let keys = ClientKeys::generate(k, n, rng)?;
        let cluster = Cluster::spawn_concurrent(provider_fleet(n), Duration::from_secs(2), 1);
        let ds = match ds_seed {
            Some(seed) => DataSource::with_seed(keys, cluster, seed)?,
            None => DataSource::new(keys, cluster)?,
        };
        Ok(OutsourcedDatabase {
            ds,
            verify_reads: false,
        })
    }

    /// The underlying data source (typed API, ringers, lazy updates…).
    pub fn source(&mut self) -> &mut DataSource {
        &mut self.ds
    }

    /// The cluster (failure injection, traffic statistics).
    pub fn cluster(&self) -> &Cluster {
        self.ds.cluster()
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&mut self, sql_text: &str) -> Result<QueryOutput, DbError> {
        let stmt = dasp_sql::parse(sql_text)?;
        self.run(stmt)
    }

    fn run(&mut self, stmt: Statement) -> Result<QueryOutput, DbError> {
        match stmt {
            Statement::Explain(inner) => {
                let Statement::Select {
                    table, conditions, ..
                } = *inner
                else {
                    return Err(DbError::Unsupported("EXPLAIN supports only SELECT".into()));
                };
                let preds = lower_conditions(&conditions);
                Ok(QueryOutput::Plan(self.ds.explain(&table, &preds)?))
            }
            Statement::CreateTable { name, columns } => {
                let specs = columns
                    .into_iter()
                    .map(lower_column)
                    .collect::<Result<Vec<_>, DbError>>()?;
                self.ds.create_table(TableSchema::new(&name, specs)?)?;
                Ok(QueryOutput::None)
            }
            Statement::Insert { table, rows } => {
                let rows: Vec<Vec<Value>> = rows
                    .into_iter()
                    .map(|row| row.into_iter().map(lower_literal).collect())
                    .collect();
                let ids = self.ds.insert(&table, &rows)?;
                Ok(QueryOutput::Inserted(ids))
            }
            Statement::Select {
                projection,
                table,
                join,
                conditions,
                group_by,
                order_by,
                limit,
            } => self.run_select(
                projection, table, join, conditions, group_by, order_by, limit,
            ),
            Statement::Update {
                table,
                assignments,
                conditions,
            } => {
                let preds = lower_conditions(&conditions);
                let assigns: Vec<(&str, Value)> = assignments
                    .iter()
                    .map(|(c, l)| (c.as_str(), lower_literal(l.clone())))
                    .collect();
                let n = self.ds.update_where(&table, &preds, &assigns)?;
                Ok(QueryOutput::Affected(n))
            }
            Statement::Delete { table, conditions } => {
                let preds = lower_conditions(&conditions);
                let n = self.ds.delete_where(&table, &preds)?;
                Ok(QueryOutput::Affected(n))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_select(
        &mut self,
        projection: Projection,
        table: String,
        join: Option<dasp_sql::ast::JoinClause>,
        conditions: Vec<Condition>,
        group_by: Option<String>,
        order_by: Option<(String, bool)>,
        limit: Option<u64>,
    ) -> Result<QueryOutput, DbError> {
        let preds = lower_conditions(&conditions);
        if let Some(group_col) = group_by {
            if join.is_some() || order_by.is_some() || limit.is_some() {
                return Err(DbError::Unsupported(
                    "GROUP BY cannot combine with JOIN/ORDER BY/LIMIT".into(),
                ));
            }
            let sum_col = match &projection {
                Projection::Aggregate(Aggregate::Count) => None,
                Projection::Aggregate(Aggregate::Sum(col)) => Some(col.clone()),
                _ => {
                    return Err(DbError::Unsupported(
                        "GROUP BY needs SELECT COUNT(*) or SELECT SUM(col)".into(),
                    ))
                }
            };
            let groups = self
                .ds
                .group_by(&table, &group_col, sum_col.as_deref(), &preds)?;
            return Ok(QueryOutput::Groups(groups));
        }
        if let Some((order_col, desc)) = order_by {
            if join.is_some() {
                return Err(DbError::Unsupported("ORDER BY with JOIN".into()));
            }
            if !matches!(projection, Projection::All) {
                return Err(DbError::Unsupported(
                    "ORDER BY supports only SELECT *".into(),
                ));
            }
            let rows =
                self.ds
                    .select_top(&table, &order_col, desc, limit.unwrap_or(u64::MAX), &preds)?;
            let columns = self
                .ds
                .schema_columns(&table)?
                .iter()
                .map(|c| c.name.clone())
                .collect();
            return Ok(QueryOutput::Rows { columns, rows });
        }
        if let Some(n) = limit {
            // LIMIT without ORDER BY: plain select then truncate.
            let opts = QueryOptions {
                verify: self.verify_reads,
            };
            let mut rows = self.ds.select_opts(&table, &preds, opts)?;
            rows.truncate(n as usize);
            let columns = self
                .ds
                .schema_columns(&table)?
                .iter()
                .map(|c| c.name.clone())
                .collect();
            return Ok(QueryOutput::Rows { columns, rows });
        }
        if let Some(join) = join {
            if !conditions.is_empty() {
                return Err(DbError::Unsupported(
                    "JOIN with WHERE is not supported; filter after joining".into(),
                ));
            }
            if !matches!(projection, Projection::All) {
                return Err(DbError::Unsupported("JOIN supports only SELECT *".into()));
            }
            let pairs = self
                .ds
                .join(&table, &join.left_col, &join.table, &join.right_col)?;
            return Ok(QueryOutput::Joined { pairs });
        }
        match projection {
            Projection::All | Projection::Columns(_) => {
                let opts = QueryOptions {
                    verify: self.verify_reads,
                };
                let mut rows = self.ds.select_opts(&table, &preds, opts)?;
                let schema_cols: Vec<String> = {
                    // Resolve the projection against the schema.
                    let all: Vec<String> = self
                        .ds
                        .schema_columns(&table)?
                        .iter()
                        .map(|c| c.name.clone())
                        .collect();
                    match &projection {
                        Projection::All => all,
                        Projection::Columns(cols) => {
                            let idxs: Vec<usize> = cols
                                .iter()
                                .map(|c| {
                                    all.iter().position(|a| a == c).ok_or_else(|| {
                                        DbError::Unsupported(format!("no column {c:?}"))
                                    })
                                })
                                .collect::<Result<_, DbError>>()?;
                            for (_, values) in rows.iter_mut() {
                                *values = idxs.iter().map(|&i| values[i].clone()).collect();
                            }
                            cols.clone()
                        }
                        Projection::Aggregate(_) => unreachable!(),
                    }
                };
                Ok(QueryOutput::Rows {
                    columns: schema_cols,
                    rows,
                })
            }
            Projection::Aggregate(agg) => {
                let result = match agg {
                    Aggregate::Count => AggResult {
                        value: None,
                        count: self.ds.count(&table, &preds)?,
                    },
                    Aggregate::Sum(col) => self.ds.sum(&table, &col, &preds)?,
                    Aggregate::Avg(col) => self.ds.avg(&table, &col, &preds)?,
                    Aggregate::Min(col) => self.ds.min(&table, &col, &preds)?,
                    Aggregate::Max(col) => self.ds.max(&table, &col, &preds)?,
                    Aggregate::Median(col) => self.ds.median(&table, &col, &preds)?,
                };
                Ok(QueryOutput::Aggregate(result))
            }
        }
    }
}

fn lower_column(def: dasp_sql::ColumnDef) -> Result<ColumnSpec, DbError> {
    let mode = match def.mode {
        ColumnMode::Random => ShareMode::Random,
        ColumnMode::Deterministic => ShareMode::Deterministic,
        ColumnMode::Ordered => ShareMode::OrderPreserving,
    };
    let ctype = match def.ctype {
        ColumnTypeDef::Int { domain_size } => ColumnType::Numeric { domain_size },
        ColumnTypeDef::Varchar { width } => ColumnType::Text {
            width: width as usize,
        },
    };
    let mut spec = ColumnSpec {
        name: def.name.clone(),
        ctype,
        mode,
        domain: def.name,
    };
    if let Some(domain) = def.domain {
        spec.domain = domain;
    }
    Ok(spec)
}

fn lower_literal(lit: Literal) -> Value {
    match lit {
        Literal::Int(v) => Value::Int(v),
        Literal::Str(s) => Value::Str(s),
    }
}

fn lower_conditions(conditions: &[Condition]) -> Vec<Predicate> {
    conditions
        .iter()
        .map(|c| match c {
            Condition::Eq { col, value } => Predicate::Eq {
                col: col.clone(),
                value: lower_literal(value.clone()),
            },
            Condition::Between { col, lo, hi } => Predicate::Between {
                col: col.clone(),
                lo: lower_literal(lo.clone()),
                hi: lower_literal(hi.clone()),
            },
            Condition::Prefix { col, prefix } => Predicate::Prefix {
                col: col.clone(),
                prefix: prefix.clone(),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> OutsourcedDatabase {
        let mut db = OutsourcedDatabase::deploy_seeded(2, 3, 1).unwrap();
        db.execute(
            "CREATE TABLE employees (name VARCHAR(8) MODE DETERMINISTIC, \
             salary INT(1048576) MODE ORDERED, ssn INT(1048576) MODE RANDOM)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO employees VALUES \
             ('JOHN', 10000, 111), ('MARY', 20000, 222), ('JOHN', 40000, 333), \
             ('ALICE', 60000, 444), ('BOB', 80000, 555)",
        )
        .unwrap();
        db
    }

    #[test]
    fn full_sql_lifecycle() {
        let mut db = db();
        // The paper's §III range query, in SQL.
        let out = db
            .execute("SELECT * FROM employees WHERE salary BETWEEN 10000 AND 40000")
            .unwrap();
        let QueryOutput::Rows { columns, rows } = out else {
            panic!()
        };
        assert_eq!(columns, vec!["name", "salary", "ssn"]);
        assert_eq!(rows.len(), 3);

        // Aggregate over exact match (the §V-A example).
        let out = db
            .execute("SELECT AVG(salary) FROM employees WHERE name = 'JOHN'")
            .unwrap();
        let QueryOutput::Aggregate(agg) = out else {
            panic!()
        };
        assert_eq!(agg.value, Some(Value::Int(25000)));
        assert_eq!(agg.count, 2);

        // Update + verify.
        let out = db
            .execute("UPDATE employees SET salary = 99000 WHERE name = 'BOB'")
            .unwrap();
        assert_eq!(out, QueryOutput::Affected(1));
        let out = db.execute("SELECT MAX(salary) FROM employees").unwrap();
        let QueryOutput::Aggregate(agg) = out else {
            panic!()
        };
        assert_eq!(agg.value, Some(Value::Int(99000)));

        // Delete.
        let out = db
            .execute("DELETE FROM employees WHERE name = 'JOHN'")
            .unwrap();
        assert_eq!(out, QueryOutput::Affected(2));
        let out = db.execute("SELECT COUNT(*) FROM employees").unwrap();
        let QueryOutput::Aggregate(agg) = out else {
            panic!()
        };
        assert_eq!(agg.count, 3);
    }

    #[test]
    fn projection_subsets_columns() {
        let mut db = db();
        let out = db
            .execute("SELECT salary, name FROM employees WHERE name = 'MARY'")
            .unwrap();
        let QueryOutput::Rows { columns, rows } = out else {
            panic!()
        };
        assert_eq!(columns, vec!["salary", "name"]);
        assert_eq!(rows[0].1, vec![Value::Int(20000), Value::from("MARY")]);
    }

    #[test]
    fn random_mode_predicate_via_sql() {
        let mut db = db();
        let out = db
            .execute("SELECT * FROM employees WHERE ssn = 444")
            .unwrap();
        let QueryOutput::Rows { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[0], Value::from("ALICE"));
    }

    #[test]
    fn join_via_sql() {
        let mut db = db();
        db.execute(
            "CREATE TABLE managers (name VARCHAR(8) MODE DETERMINISTIC DOMAIN 'name', level INT(16) MODE RANDOM)",
        )
        .unwrap();
        db.execute("INSERT INTO managers VALUES ('ALICE', 3), ('JOHN', 2)")
            .unwrap();
        let out = db
            .execute("SELECT * FROM employees JOIN managers ON employees.name = managers.name")
            .unwrap();
        let QueryOutput::Joined { pairs } = out else {
            panic!()
        };
        assert_eq!(pairs.len(), 3); // JOHN×2, ALICE×1
    }

    #[test]
    fn unknown_projection_column_fails() {
        let mut db = db();
        assert!(db.execute("SELECT bogus FROM employees").is_err());
    }

    #[test]
    fn join_with_where_unsupported() {
        let mut db = db();
        db.execute("CREATE TABLE m (name VARCHAR(8) DOMAIN 'name')")
            .unwrap();
        let err = db
            .execute("SELECT * FROM employees JOIN m ON employees.name = m.name WHERE salary = 1")
            .unwrap_err();
        assert!(matches!(err, DbError::Unsupported(_)));
    }

    #[test]
    fn parse_errors_surface() {
        let mut db = db();
        assert!(matches!(
            db.execute("SELEKT * FROM employees"),
            Err(DbError::Parse(_))
        ));
    }

    #[test]
    fn group_by_via_sql() {
        let mut db = db();
        let out = db
            .execute("SELECT SUM(salary) FROM employees GROUP BY name")
            .unwrap();
        let QueryOutput::Groups(groups) = out else {
            panic!("{out:?}")
        };
        assert_eq!(groups.len(), 4);
        let john = groups
            .iter()
            .find(|g| g.group == Value::from("JOHN"))
            .unwrap();
        assert_eq!(john.sum, Some(Value::Int(50_000)));
        assert_eq!(john.count, 2);

        let out = db
            .execute(
                "SELECT COUNT(*) FROM employees WHERE salary BETWEEN 0 AND 45000 GROUP BY name",
            )
            .unwrap();
        let QueryOutput::Groups(groups) = out else {
            panic!()
        };
        assert_eq!(groups.len(), 2);

        // GROUP BY needs an aggregate projection.
        assert!(db.execute("SELECT * FROM employees GROUP BY name").is_err());
    }

    #[test]
    fn order_by_limit_via_sql() {
        let mut db = db();
        let out = db
            .execute("SELECT * FROM employees ORDER BY salary DESC LIMIT 2")
            .unwrap();
        let QueryOutput::Rows { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1[1], Value::Int(80_000));
        assert_eq!(rows[1].1[1], Value::Int(60_000));

        let out = db
            .execute("SELECT * FROM employees ORDER BY salary LIMIT 1")
            .unwrap();
        let QueryOutput::Rows { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows[0].1[1], Value::Int(10_000));

        // Plain LIMIT truncates.
        let out = db.execute("SELECT * FROM employees LIMIT 3").unwrap();
        let QueryOutput::Rows { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn explain_via_sql() {
        let mut db = db();
        let out = db
            .execute(
                "EXPLAIN SELECT * FROM employees WHERE name = 'JOHN'                  AND salary BETWEEN 10000 AND 40000 AND ssn = 111",
            )
            .unwrap();
        let QueryOutput::Plan(plan) = out else {
            panic!("{out:?}")
        };
        assert_eq!(plan.table, "employees");
        assert_eq!(plan.conjuncts.len(), 3);
        let server: Vec<bool> = plan.conjuncts.iter().map(|c| c.server_side).collect();
        assert_eq!(server, vec![true, true, false], "ssn is residual");
        // The rewritten atoms expose shares, never plaintext values.
        for c in &plan.conjuncts {
            if let Some(r) = &c.rewritten {
                assert!(!r.contains("10000") || r.contains("share("), "{r}");
            }
        }
        let rendered = plan.to_string();
        assert!(rendered.contains("RESIDUAL"));
        assert!(rendered.contains("strategy:"));
    }

    #[test]
    fn like_prefix_via_sql() {
        let mut db = db();
        let out = db
            .execute("SELECT * FROM employees WHERE name LIKE 'JO%'")
            .unwrap();
        let QueryOutput::Rows { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
    }
}
