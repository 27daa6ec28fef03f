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
//!   one [`SharedService`] behind one request queue, every call sent
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

mod channel;
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
    Cluster, FailureMode, FailureSwitch, ProviderId, QuorumMode, QuorumOptions, Refusal, RpcError,
    SharedService,
};
pub use transport::{BlockingConn, TcpClient, TcpClientConfig, TransportError};
pub use wire::{
    batch_items, crc32, decode_batch, encode_frame, encode_frame_into, BatchFrameBuilder,
    BatchItems, Frame, FrameDecoder, FrameError, FrameKind, FrameView, WireError, WireReader,
    WireWriter, FRAME_MAGIC, FRAME_OVERHEAD, MAX_FRAME_BODY,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scalar width goes out little-endian, byte for byte, and
    /// reads back to the value written, extremes included.
    #[test]
    fn scalar_roundtrip_all_widths() {
        let mut w = WireWriter::new();
        w.u8(7)
            .u16(0x0102)
            .u32(0x0102_0304)
            .u64(0x0102_0304_0506_0708)
            .u128(1 << 90)
            .i128(-5)
            .raw(b"xyz");
        let bytes = w.finish();
        let mut want = vec![7, 0x02, 0x01, 0x04, 0x03, 0x02, 0x01];
        want.extend([8, 7, 6, 5, 4, 3, 2, 1]);
        want.extend((1u128 << 90).to_le_bytes());
        want.extend([0xfb].into_iter().chain([0xff; 15]));
        want.extend(b"xyz");
        assert_eq!(bytes, want);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0102_0304));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.u128(), Ok(1 << 90));
        assert_eq!(r.i128(), Ok(-5));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.raw(3), Ok(&b"xyz"[..]));

        let mut w = WireWriter::new();
        w.u8(u8::MAX).u16(u16::MAX).u32(u32::MAX).u64(u64::MAX);
        w.u128(u128::MAX).i128(i128::MIN).i128(i128::MAX);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 16 * 3);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8(), Ok(u8::MAX));
        assert_eq!(r.u16(), Ok(u16::MAX));
        assert_eq!(r.u32(), Ok(u32::MAX));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.u128(), Ok(u128::MAX));
        assert_eq!(r.i128(), Ok(i128::MIN));
        assert_eq!(r.i128(), Ok(i128::MAX));
        r.expect_end().unwrap();
    }
}
