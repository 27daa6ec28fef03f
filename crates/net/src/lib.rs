//! Simulated multi-provider deployment.
//!
//! The paper's architecture is one client (the data source D) talking to
//! `n` independent database service providers over a WAN. This crate
//! builds that deployment on one machine:
//!
//! * [`wire`] — a compact hand-rolled binary codec (no serde formats are
//!   available offline) used for all RPC payloads.
//! * [`cost`] — a network cost model: per-message latency and bandwidth
//!   translate measured byte/message counts into modeled WAN time, so
//!   experiments can report both raw compute and network-dominated
//!   end-to-end figures, like the paper's "~3 Gbit of transfer" claims.
//! * [`rpc`] — [`Cluster`]: each provider a pool of OS threads sharing
//!   one [`SharedService`] behind a crossbeam channel, every call sent
//!   through one quorum engine, with per-provider failure injection
//!   (crash, omission, response corruption) for the paper's
//!   benign/malicious failure-model challenge (conclusion, challenge (b)).
//! * [`resilience`] — retry policies with jittered backoff, per-provider
//!   health tracking (latency EWMAs), and circuit breakers backing the
//!   first-k-wins quorum engine in [`rpc`].
//! * [`reactor`] — a real TCP server: a blocking thread per connection
//!   that runs non-blocking requests itself and hands the rest to a
//!   worker pool, CRC-framed request/response multiplexing by token,
//!   per-connection backpressure, and no thread that polls.
//! * [`transport`] — the socket-backed client: a multiplexing
//!   [`transport::TcpClient`] implementing [`SharedService`] so
//!   `Cluster`, quorum, hedging, retries, and breakers run unchanged
//!   over sockets, plus a blocking per-connection handle for load
//!   generators.

pub mod cost;
pub mod reactor;
pub mod resilience;
pub mod rpc;
pub mod transport;
pub mod wire;

pub use cost::{NetworkModel, TrafficStats};
pub use reactor::{ReactorConfig, ServerStats, ServerStatsSnapshot, TcpServer};
pub use resilience::{
    Admission, BreakerConfig, BreakerState, Clock, HealthSnapshot, HealthTracker, ManualClock,
    ProviderHealthView, ProviderOutcome, QuorumError, RetryPolicy, SystemClock,
};
pub use rpc::{
    Cluster, FailureMode, FailureSwitch, ProviderId, QuorumMode, QuorumOptions, RpcError,
    SharedService,
};
pub use transport::{BlockingConn, TcpClient, TcpClientConfig, TransportError};
pub use wire::{
    batch_items, crc32, decode_batch, encode_frame, encode_frame_into, BatchFrameBuilder,
    BatchItems, Frame, FrameDecoder, FrameError, FrameKind, FrameView, WireError, WireReader,
    WireWriter, FRAME_MAGIC, FRAME_OVERHEAD, MAX_FRAME_BODY,
};
