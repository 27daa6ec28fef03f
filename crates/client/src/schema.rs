//! Client-side schema: tables, typed columns, values and predicates.

use crate::ClientError;
use dasp_sss::{ShareMode, StringCodec};

/// The type of a column's plaintext values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnType {
    /// Unsigned integers in `[0, domain_size)`.
    Numeric {
        /// Exclusive upper bound of the value domain.
        domain_size: u64,
    },
    /// Fixed-maximum-width uppercase strings, encoded base-27 (§V-B).
    Text {
        /// Maximum string length.
        width: usize,
    },
}

/// A column type's value ↔ code mapping, resolved once per column: a
/// text column's [`StringCodec`] is built here, not once per value.
#[derive(Debug, Clone)]
pub(crate) enum ValueCodec {
    Numeric { domain_size: u64 },
    Text(StringCodec),
}

impl ValueCodec {
    pub(crate) fn new(ctype: &ColumnType) -> Result<Self, ClientError> {
        Ok(match ctype {
            ColumnType::Numeric { domain_size } => ValueCodec::Numeric {
                domain_size: *domain_size,
            },
            ColumnType::Text { width } => {
                ValueCodec::Text(StringCodec::uppercase(*width).map_err(ClientError::Sss)?)
            }
        })
    }

    /// The numeric domain this column's values encode into.
    pub(crate) fn domain_size(&self) -> u64 {
        match self {
            ValueCodec::Numeric { domain_size } => *domain_size,
            ValueCodec::Text(codec) => codec.domain_size(),
        }
    }

    /// Encode into the column's numeric domain.
    pub(crate) fn encode(&self, value: &Value) -> Result<u64, ClientError> {
        match (value, self) {
            (Value::Int(v), ValueCodec::Numeric { domain_size }) => {
                if v >= domain_size {
                    return Err(ClientError::Schema(format!(
                        "value {v} outside domain {domain_size}"
                    )));
                }
                Ok(*v)
            }
            (Value::Str(s), ValueCodec::Text(codec)) => codec.encode(s).map_err(ClientError::Sss),
            (v, ValueCodec::Numeric { domain_size }) => Err(ClientError::Schema(format!(
                "value {v:?} does not fit column type {:?}",
                ColumnType::Numeric {
                    domain_size: *domain_size
                }
            ))),
            (v, ValueCodec::Text(codec)) => Err(ClientError::Schema(format!(
                "value {v:?} does not fit column type {:?}",
                ColumnType::Text {
                    width: codec.width()
                }
            ))),
        }
    }

    /// Decode from the column's numeric domain.
    pub(crate) fn decode(&self, code: u64) -> Result<Value, ClientError> {
        match self {
            ValueCodec::Numeric { domain_size } => {
                if code >= *domain_size {
                    return Err(ClientError::Reconstruction(format!(
                        "decoded value {code} outside domain {domain_size}"
                    )));
                }
                Ok(Value::Int(code))
            }
            ValueCodec::Text(codec) => codec.decode(code).map(Value::Str).ok_or_else(|| {
                ClientError::Reconstruction(format!("code {code} is not a valid string"))
            }),
        }
    }
}

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Plaintext type.
    pub ctype: ColumnType,
    /// How this column is shared (the privacy/capability trade-off).
    pub mode: ShareMode,
    /// Value domain name. Columns sharing a domain share polynomials, so
    /// equi-joins across them work server-side (§V-A). Defaults to the
    /// column name.
    pub domain: String,
}

impl ColumnSpec {
    /// A numeric column in its own domain.
    pub fn numeric(name: &str, domain_size: u64, mode: ShareMode) -> Self {
        ColumnSpec {
            name: name.to_string(),
            ctype: ColumnType::Numeric { domain_size },
            mode,
            domain: name.to_string(),
        }
    }

    /// A text column in its own domain.
    pub fn text(name: &str, width: usize, mode: ShareMode) -> Self {
        ColumnSpec {
            name: name.to_string(),
            ctype: ColumnType::Text { width },
            mode,
            domain: name.to_string(),
        }
    }

    /// Override the value domain (for join keys shared across tables).
    pub fn in_domain(mut self, domain: &str) -> Self {
        self.domain = domain.to_string();
        self
    }
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in order.
    pub columns: Vec<ColumnSpec>,
}

impl TableSchema {
    /// Build and validate a schema.
    pub fn new(name: &str, columns: Vec<ColumnSpec>) -> Result<Self, ClientError> {
        if columns.is_empty() {
            return Err(ClientError::Schema(format!(
                "table {name:?} has no columns"
            )));
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(ClientError::Schema(format!(
                    "duplicate column {:?}",
                    c.name
                )));
            }
            if let ColumnType::Text { width } = c.ctype {
                StringCodec::uppercase(width)
                    .map_err(|e| ClientError::Schema(format!("column {:?}: {e}", c.name)))?;
            }
            if let ColumnType::Numeric { domain_size } = c.ctype {
                if domain_size == 0 || domain_size > 1 << 32 {
                    return Err(ClientError::Schema(format!(
                        "column {:?}: domain_size must be in 1..=2^32",
                        c.name
                    )));
                }
            }
        }
        Ok(TableSchema {
            name: name.to_string(),
            columns,
        })
    }

    /// Index of a column by name.
    pub fn col(&self, name: &str) -> Result<usize, ClientError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| self.no_column(name))
    }

    /// The spec of the column named `name`.
    pub(crate) fn spec(&self, name: &str) -> Result<&ColumnSpec, ClientError> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| self.no_column(name))
    }

    fn no_column(&self, name: &str) -> ClientError {
        ClientError::Schema(format!("no column {name:?} in table {:?}", self.name))
    }
}

/// A typed plaintext value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A numeric value.
    Int(u64),
    /// A string value (uppercase A–Z, length ≤ column width).
    Str(String),
}

impl Value {
    /// Encode into the column's numeric domain.
    pub fn encode(&self, ctype: &ColumnType) -> Result<u64, ClientError> {
        ValueCodec::new(ctype)?.encode(self)
    }

    /// Decode from the column's numeric domain.
    pub fn decode(code: u64, ctype: &ColumnType) -> Result<Value, ClientError> {
        ValueCodec::new(ctype)?.decode(code)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

/// A client-level predicate conjunct over plaintext values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `col = value`.
    Eq {
        /// Column name.
        col: String,
        /// Comparison value.
        value: Value,
    },
    /// `lo ≤ col ≤ hi` (numeric order / padded-lexicographic for text).
    Between {
        /// Column name.
        col: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `col LIKE 'prefix%'` (text columns).
    Prefix {
        /// Column name.
        col: String,
        /// The literal prefix.
        prefix: String,
    },
}

impl Predicate {
    /// Shorthand for an equality conjunct.
    pub fn eq(col: &str, value: impl Into<Value>) -> Self {
        Predicate::Eq {
            col: col.to_string(),
            value: value.into(),
        }
    }

    /// Shorthand for a range conjunct.
    pub fn between(col: &str, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Predicate::Between {
            col: col.to_string(),
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Shorthand for a string-prefix conjunct.
    pub fn prefix(col: &str, prefix: &str) -> Self {
        Predicate::Prefix {
            col: col.to_string(),
            prefix: prefix.to_string(),
        }
    }

    /// The column this conjunct constrains.
    pub fn col(&self) -> &str {
        match self {
            Predicate::Eq { col, .. }
            | Predicate::Between { col, .. }
            | Predicate::Prefix { col, .. } => col,
        }
    }

    /// The encoded (inclusive) code interval this conjunct selects.
    pub fn code_interval(&self, ctype: &ColumnType) -> Result<(u64, u64), ClientError> {
        match self {
            Predicate::Eq { value, .. } => {
                let code = value.encode(ctype)?;
                Ok((code, code))
            }
            Predicate::Between { lo, hi, .. } => {
                let (lo, hi) = match (lo, hi, ctype) {
                    // Text ranges follow §V-B: the upper bound covers all
                    // strings extending `hi`.
                    (Value::Str(lo), Value::Str(hi), ColumnType::Text { width }) => {
                        let codec = StringCodec::uppercase(*width).map_err(ClientError::Sss)?;
                        codec.string_range(lo, hi).map_err(ClientError::Sss)?
                    }
                    _ => (lo.encode(ctype)?, hi.encode(ctype)?),
                };
                if lo > hi {
                    return Err(ClientError::Schema("empty range".into()));
                }
                Ok((lo, hi))
            }
            Predicate::Prefix { prefix, .. } => match ctype {
                ColumnType::Text { width } => {
                    let codec = StringCodec::uppercase(*width).expect("validated");
                    codec.prefix_range(prefix).map_err(ClientError::Sss)
                }
                _ => Err(ClientError::Schema(
                    "prefix predicate on numeric column".into(),
                )),
            },
        }
    }

    /// Evaluate client-side against a decoded value (for residual
    /// filtering of non-filterable share modes).
    pub fn matches_code(&self, code: u64, ctype: &ColumnType) -> bool {
        self.code_interval(ctype)
            .map(|(lo, hi)| code >= lo && code <= hi)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "employees",
            vec![
                ColumnSpec::text("name", 8, ShareMode::Deterministic),
                ColumnSpec::numeric("salary", 1 << 20, ShareMode::OrderPreserving),
                ColumnSpec::numeric("ssn", 1 << 30, ShareMode::Random),
            ],
        )
        .unwrap()
    }

    #[test]
    fn schema_validation() {
        assert!(TableSchema::new("t", vec![]).is_err());
        assert!(TableSchema::new(
            "t",
            vec![
                ColumnSpec::numeric("a", 10, ShareMode::Random),
                ColumnSpec::numeric("a", 10, ShareMode::Random),
            ],
        )
        .is_err());
        assert!(
            TableSchema::new("t", vec![ColumnSpec::numeric("a", 0, ShareMode::Random)],).is_err()
        );
        assert!(
            TableSchema::new("t", vec![ColumnSpec::text("a", 99, ShareMode::Random)],).is_err()
        );
    }

    #[test]
    fn col_lookup() {
        let s = schema();
        assert_eq!(s.col("salary").unwrap(), 1);
        assert!(s.col("nope").is_err());
    }

    #[test]
    fn value_encode_decode() {
        let num = ColumnType::Numeric { domain_size: 100 };
        assert_eq!(Value::Int(42).encode(&num).unwrap(), 42);
        assert!(Value::Int(100).encode(&num).is_err());
        assert_eq!(Value::decode(42, &num).unwrap(), Value::Int(42));
        assert!(Value::decode(100, &num).is_err());

        let text = ColumnType::Text { width: 5 };
        let code = Value::from("JOHN").encode(&text).unwrap();
        assert_eq!(Value::decode(code, &text).unwrap(), Value::from("JOHN"));
        assert!(Value::from("toolongname").encode(&text).is_err());
        assert!(Value::Int(5).encode(&text).is_err(), "type mismatch");
        assert!(Value::from("JOHN").encode(&num).is_err());
    }

    #[test]
    fn domain_preserves_join_compatibility() {
        let c = ColumnSpec::numeric("eid", 1 << 20, ShareMode::Deterministic).in_domain("emp_id");
        assert_eq!(c.domain, "emp_id");
        let d = ColumnSpec::numeric("eid", 1 << 20, ShareMode::Deterministic);
        assert_eq!(d.domain, "eid");
    }

    #[test]
    fn predicate_intervals() {
        let num = ColumnType::Numeric {
            domain_size: 1 << 20,
        };
        assert_eq!(
            Predicate::eq("c", 7u64).code_interval(&num).unwrap(),
            (7, 7)
        );
        assert_eq!(
            Predicate::between("c", 10u64, 40u64)
                .code_interval(&num)
                .unwrap(),
            (10, 40)
        );
        assert!(Predicate::between("c", 40u64, 10u64)
            .code_interval(&num)
            .is_err());

        let text = ColumnType::Text { width: 5 };
        let (lo, hi) = Predicate::prefix("c", "AB").code_interval(&text).unwrap();
        let ab = Value::from("AB").encode(&text).unwrap();
        let abzzz = Value::from("ABZZZ").encode(&text).unwrap();
        assert_eq!((lo, hi), (ab, abzzz));
        assert!(Predicate::prefix("c", "AB").code_interval(&num).is_err());
    }

    #[test]
    fn string_between_covers_extensions() {
        // The §V-B semantics: BETWEEN 'AL' AND 'JACK' includes 'JACKZ'.
        let text = ColumnType::Text { width: 5 };
        let pred = Predicate::between("c", "AL", "JACK");
        let jackz = Value::from("JACKZ").encode(&text).unwrap();
        assert!(pred.matches_code(jackz, &text));
        let jad = Value::from("JAD").encode(&text).unwrap();
        assert!(!pred.matches_code(jad, &text));
    }

    #[test]
    fn matches_code_residual_filtering() {
        let num = ColumnType::Numeric { domain_size: 100 };
        let p = Predicate::between("c", 10u64, 20u64);
        assert!(p.matches_code(15, &num));
        assert!(!p.matches_code(9, &num));
        assert!(!p.matches_code(21, &num));
    }
}
