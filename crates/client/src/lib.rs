//! The data source D — the client half of the paper.
//!
//! D owns all secret material (evaluation points X and per-domain keys),
//! rewrites every query into one provider-specific request per DAS
//! (§V-A), reconstructs results from any k responses, and never sends a
//! plaintext private value anywhere.
//!
//! * [`schema`] — tables, column types (numeric and VARCHAR-style text),
//!   per-column [`dasp_sss::ShareMode`], and typed [`schema::Value`]s.
//! * [`keys`] — the client's secret: evaluation points + domain keys.
//! * [`source`] — [`source::DataSource`]: outsourcing, exact-match /
//!   range / aggregate / join queries, eager and lazy updates (§V-C),
//!   ringer planting, and majority-verified reads.
//! * [`mashup`] — §V-D private/public integration: bucketed retrieval
//!   from provider-hosted public tables keyed by privately reconstructed
//!   values, trading leaked bucket width against transfer size.

pub mod journal;
pub mod keys;
pub mod mashup;
pub mod schema;
pub mod source;

pub use journal::LazyJournal;
pub use keys::ClientKeys;
pub use mashup::{BucketJoin, MashupStats};
pub use schema::{ColumnSpec, ColumnType, Predicate, TableSchema, Value};
pub use source::{AggResult, DataSource, ExplainConjunct, ExplainReport, GroupRow, QueryOptions};

use dasp_net::{QuorumError, RpcError, WireError};
use dasp_sss::SssError;

/// Client-side errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport failure.
    Rpc(RpcError),
    /// A quorum call fell short, with a per-provider post-mortem.
    Quorum(QuorumError),
    /// A provider replied with an application error.
    Provider(String),
    /// A provider's reply failed to decode.
    Wire(WireError),
    /// Share algebra failure.
    Sss(SssError),
    /// Schema violation (unknown table/column, type mismatch, …).
    Schema(String),
    /// Not enough consistent provider responses to reconstruct.
    Reconstruction(String),
    /// The operation needs a capability this column's share mode lacks.
    Unsupported(String),
    /// The lazy-update journal failed (open, append, or replay).
    Journal(String),
    /// Rebuilding a provider found the surviving providers' shares of
    /// `table` in disagreement, so it wrote nothing.
    RebuildMismatch {
        /// The table whose shares disagree.
        table: String,
        /// Which row and column, or which row was missing.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rpc(e) => write!(f, "rpc: {e}"),
            ClientError::Quorum(e) => write!(f, "quorum: {e}"),
            ClientError::Provider(msg) => write!(f, "provider error: {msg}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Sss(e) => write!(f, "secret sharing: {e}"),
            ClientError::Schema(msg) => write!(f, "schema: {msg}"),
            ClientError::Reconstruction(msg) => write!(f, "reconstruction: {msg}"),
            ClientError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            ClientError::Journal(msg) => write!(f, "lazy-update journal: {msg}"),
            ClientError::RebuildMismatch { table, detail } => {
                write!(
                    f,
                    "rebuild refused: providers disagree on {table:?} ({detail})"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<RpcError> for ClientError {
    fn from(e: RpcError) -> Self {
        ClientError::Rpc(e)
    }
}

impl From<QuorumError> for ClientError {
    fn from(e: QuorumError) -> Self {
        ClientError::Quorum(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<SssError> for ClientError {
    fn from(e: SssError) -> Self {
        ClientError::Sss(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ClientError>;
