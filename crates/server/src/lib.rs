//! The database service provider (DAS) — the server half of the paper.
//!
//! A provider stores *shares*, never values. It answers the client's
//! rewritten queries (§V-A): exact matches and ranges over share space,
//! server-side aggregation partials (share sums, order statistics over
//! order-preserving shares), and share-equality joins. It also hosts
//! *public* plaintext tables for the §V-D private/public mash-up.
//!
//! * [`proto`] — the request/response wire protocol.
//! * [`engine`] — the share-table engine: snapshot-versioned in-memory
//!   tables, checkpointed and write-ahead logged through `dasp-storage`.
//! * [`pmap`] — the persistent ordered map the table versions are made of.
//! * [`service`] — the [`dasp_net::SharedService`] adapter gluing the
//!   engine to the RPC fabric.
//!
//! Nothing in this crate has access to evaluation points, domain keys, or
//! plaintext private values — by construction it *could not* decode what
//! it stores, which is the paper's security argument made literal in the
//! module structure.

pub mod engine;
pub mod pmap;
pub mod proto;
pub mod service;

pub use engine::{DurableConfig, ProviderEngine, RecoveryReport};
pub use proto::{AggOp, PredAtom, Request, Response, Row};
pub use service::{provider_fleet, serve_provider_tcp, tcp_provider_fleet, ProviderService};
