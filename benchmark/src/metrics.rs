//! The metric catalogue — names, units, directions and bounds, the one
//! place `BENCHMARK.json` is generated from — and the arithmetic that
//! turns a [`RunResult`] into those metrics.

use crate::deploy::{K, N};
use crate::proc::{peak_rss_mb, Bucket, CpuByBucket};
use crate::stats::{median, percentile, supported_tail};
use crate::trace::OpBreakdown;
use crate::workloads::{RunResult, Slice, Workload};
use std::collections::BTreeMap;
use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// `run_seconds` of `BENCHMARK.json`: the window of the three
/// steady-state workloads, and twenty batches of `bulk_load` per second.
pub const RUN_SECONDS: u64 = 10;

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 8] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("throughput_ops_s", "1/s", Better::Higher, 0.25),
    gated("read_p50_us", "us", Better::Lower, 0.25),
    gated("write_p50_us", "us", Better::Lower, 0.25),
    gated("client_cpu_us_per_op", "us", Better::Lower, 0.25),
    gated("provider_cpu_us_per_op", "us", Better::Lower, 0.25),
    gated("wire_bytes_per_op", "B", Better::Lower, 0.05),
    gated("recovery_ms", "ms", Better::Lower, 0.25),
];

/// Single layers (layer = crate), from the traced run and layer calls.
pub const PER_LAYER: [MetricDef; 58] = [
    // dasp-client + dasp-sss + dasp-field
    lower("client.driver_cpu_us_per_op", "us"),
    lower("client.self_us_p50", "us"),
    higher("client.rows_per_op", "count"),
    lower("client.latency_p99_us", "us"),
    lower("client.latency_max_us", "us"),
    higher("client.latency_samples", "count"),
    lower("client.rpc_failures", "count"),
    lower("sss.op_share_ns_per_value", "ns"),
    lower("sss.op_reconstruct_ns_per_value", "ns"),
    lower("sss.field_split_ns_per_value", "ns"),
    lower("sss.field_reconstruct_ns_per_value", "ns"),
    // dasp-net rpc.rs
    lower("rpc.worker_cpu_us_per_op", "us"),
    lower("rpc.calls_per_op", "count"),
    lower("rpc.bytes_out_per_op", "B"),
    lower("rpc.bytes_in_per_op", "B"),
    lower("rpc.round_trips_per_op", "count"),
    higher("rpc.useful_response_ratio", "ratio"),
    lower("rpc.dispatch_us_p50", "us"),
    // dasp-net transport.rs, wire.rs, reactor.rs
    lower("net.call_us_p50", "us"),
    lower("net.reactor_cpu_us_per_op", "us"),
    lower("net.reader_cpu_us_per_op", "us"),
    lower("net.frames_in_per_op", "count"),
    higher("net.batch_frames_in_per_op", "count"),
    lower("net.backpressure_pauses", "count"),
    lower("net.protocol_errors", "count"),
    lower("net.echo_rtt_us_p50", "us"),
    lower("net.echo_rtt_64k_us_p50", "us"),
    lower("net.frame_encode_ns", "ns"),
    lower("net.frame_decode_ns", "ns"),
    higher("net.crc32_mb_s", "MB/s"),
    // dasp-server proto.rs, engine.rs
    lower("server.worker_cpu_us_per_op", "us"),
    lower("server.handle_us_p50", "us"),
    lower("server.proto_decode_us_p50", "us"),
    lower("server.engine_execute_us_p50", "us"),
    lower("server.proto_encode_us_p50", "us"),
    lower("server.rows_examined_per_row_returned", "ratio"),
    higher("server.index_probe_share", "ratio"),
    lower("server.insert_us_at_1k", "us"),
    lower("server.insert_us_at_100k", "us"),
    // dasp-storage wal.rs, recovery.rs
    lower("storage.wal_flusher_cpu_us_per_op", "us"),
    lower("storage.wal_fsyncs_per_write", "ratio"),
    lower("storage.wal_bytes_per_row", "B"),
    lower("storage.dir_bytes_per_row", "B"),
    lower("storage.recovered_wal_records", "count"),
    lower("storage.wal_commit_us_p50", "us"),
    lower("storage.checkpoint_ms", "ms"),
    // dasp-sql: the control
    lower("sql.parse_us_p50", "us"),
    // the process and the trace itself
    lower("process.peak_rss_mb", "MiB"),
    lower("process.threads", "count"),
    lower("process.other_cpu_us_per_op", "us"),
    lower("process.steal_pct", "%"),
    lower("trace.overhead_pct", "%"),
    higher("trace.ops", "count"),
    lower("trace.op_us_p50", "us"),
    lower("trace.self_sum_err_pct", "%"),
    lower("trace.client_share_pct", "%"),
    lower("trace.net_share_pct", "%"),
    lower("trace.server_share_pct", "%"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// `num / den`, 0 when there is nothing to divide by (a read workload's
/// bytes per written row).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median over the window's slices of `f`.
fn slice_median(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    let values: Vec<f64> = slices.iter().map(f).collect();
    median(&values).unwrap_or(0.0)
}

fn slice_cpu(slices: &[Slice], us: impl Fn(&CpuByBucket) -> u64) -> f64 {
    slice_median(slices, |s| ratio(us(&s.cpu), s.ops))
}

/// The eight end-to-end metrics of one run.
pub fn end_to_end(r: &mut RunResult) -> Metrics {
    Metrics::from([
        ("setup_s", median(&r.setup_s).unwrap_or(0.0)),
        (
            "throughput_ops_s",
            slice_median(&r.slices, |s| s.ops as f64 / s.secs),
        ),
        ("read_p50_us", r.reads.pct_us(50.0)),
        ("write_p50_us", r.writes.pct_us(50.0)),
        (
            "client_cpu_us_per_op",
            slice_cpu(&r.slices, CpuByBucket::client_side),
        ),
        (
            "provider_cpu_us_per_op",
            slice_cpu(&r.slices, CpuByBucket::provider_side),
        ),
        (
            "wire_bytes_per_op",
            ratio(r.traffic.total_bytes(), r.window_ops),
        ),
        ("recovery_ms", median(&r.recovery_ms).unwrap_or(0.0)),
    ])
}

fn p50_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    percentile(ns, 50.0).map_or(0.0, |v| v as f64 / 1e3)
}

/// The per-layer metrics one run yields by itself: counters, CPU per
/// thread bucket, and — in a traced run — span statistics. The layer
/// calls of [`crate::layers`] complete the set.
pub fn per_layer(r: &mut RunResult) -> Metrics {
    let ops = r.window_ops;
    let mut m = Metrics::new();
    let slices = &r.slices;
    let cpu = |b: Bucket| slice_cpu(slices, |c| c.get(b));
    let c = &r.counters;
    m.extend([
        ("client.driver_cpu_us_per_op", cpu(Bucket::Driver)),
        (
            "client.rows_per_op",
            ratio(r.rows_returned + r.rows_written, ops),
        ),
        ("client.latency_p99_us", r.window_latencies.pct_us(99.0)),
        ("client.latency_max_us", r.window_latencies.max_us()),
        ("client.latency_samples", r.window_latencies.len() as f64),
        ("client.rpc_failures", r.rpc_failures as f64),
        ("rpc.worker_cpu_us_per_op", cpu(Bucket::RpcWorker)),
        ("rpc.calls_per_op", ratio(r.traffic.messages_sent, ops)),
        ("rpc.bytes_out_per_op", ratio(r.traffic.bytes_sent, ops)),
        ("rpc.bytes_in_per_op", ratio(r.traffic.bytes_received, ops)),
        ("rpc.round_trips_per_op", ratio(r.traffic.round_trips, ops)),
        (
            "rpc.useful_response_ratio",
            ratio(K as u64 * ops, r.traffic.messages_received),
        ),
        ("net.reactor_cpu_us_per_op", cpu(Bucket::Reactor)),
        ("net.reader_cpu_us_per_op", cpu(Bucket::NetClient)),
        ("net.frames_in_per_op", ratio(c.frames_in, ops)),
        ("net.batch_frames_in_per_op", ratio(c.batch_frames_in, ops)),
        ("net.backpressure_pauses", c.backpressure_pauses as f64),
        ("net.protocol_errors", c.protocol_errors as f64),
        ("server.worker_cpu_us_per_op", cpu(Bucket::ServerWorker)),
        (
            "server.rows_examined_per_row_returned",
            // Each of the n providers examines and returns its own copy.
            ratio(c.rows_examined, N as u64 * r.rows_returned),
        ),
        (
            "server.index_probe_share",
            ratio(c.index_probes, c.index_probes + c.full_scans),
        ),
        ("storage.wal_flusher_cpu_us_per_op", cpu(Bucket::WalFlusher)),
        (
            "storage.wal_fsyncs_per_write",
            ratio(c.wal_fsyncs, N as u64 * r.write_ops),
        ),
        (
            "storage.wal_bytes_per_row",
            ratio(r.wal_bytes, N as u64 * r.rows_written),
        ),
        (
            "storage.dir_bytes_per_row",
            ratio(r.dir_bytes, N as u64 * r.final_rows),
        ),
        (
            "storage.recovered_wal_records",
            r.recovery.wal_records as f64,
        ),
        ("process.peak_rss_mb", peak_rss_mb()),
        ("process.threads", r.threads as f64),
        ("process.other_cpu_us_per_op", cpu(Bucket::Other)),
        ("process.steal_pct", r.steal_pct),
    ]);
    if let Some(t) = &mut r.trace {
        let a = &mut t.analysis;
        let untraced = t.untraced.pct_us(50.0);
        let mut client: Vec<u64> = a.ops.iter().map(|o| o.client_ns).collect();
        let mut op: Vec<u64> = a.ops.iter().map(|o| o.op_ns).collect();
        let sum = |f: fn(&OpBreakdown) -> u64| a.ops.iter().map(f).sum::<u64>();
        let wall = sum(|o| o.op_ns);
        let worst = a
            .ops
            .iter()
            .map(|o| {
                let parts = o.client_ns + o.net_ns + o.server_ns;
                100.0 * parts.abs_diff(o.op_ns) as f64 / o.op_ns.max(1) as f64
            })
            .fold(0.0, f64::max);
        m.extend([
            ("client.self_us_p50", p50_us(&mut client)),
            ("net.call_us_p50", p50_us(&mut a.net_call_ns)),
            ("server.handle_us_p50", p50_us(&mut a.handle_ns)),
            ("server.proto_decode_us_p50", p50_us(&mut a.decode_ns)),
            ("server.engine_execute_us_p50", p50_us(&mut a.execute_ns)),
            ("server.proto_encode_us_p50", p50_us(&mut a.encode_ns)),
            (
                "trace.overhead_pct",
                if untraced > 0.0 {
                    100.0 * (t.traced.pct_us(50.0) - untraced) / untraced
                } else {
                    0.0
                },
            ),
            ("trace.ops", a.ops.len() as f64),
            ("trace.op_us_p50", p50_us(&mut op)),
            ("trace.self_sum_err_pct", worst),
            (
                "trace.client_share_pct",
                100.0 * ratio(sum(|o| o.client_ns), wall),
            ),
            (
                "trace.net_share_pct",
                100.0 * ratio(sum(|o| o.net_ns), wall),
            ),
            (
                "trace.server_share_pct",
                100.0 * ratio(sum(|o| o.server_ns), wall),
            ),
        ]);
    }
    m
}

/// The highest tail the window's sample count supports, as
/// `(percentile, microseconds)`.
pub fn supported_tail_us(r: &mut RunResult) -> Option<(f64, f64)> {
    let pct = supported_tail(r.window_latencies.len())?;
    Some((pct, r.window_latencies.pct_us(pct)))
}

/// `name value unit` lines in catalogue order, for the metrics `values`
/// holds (an untraced run has counters but no span statistics).
pub fn render(defs: &[MetricDef], values: &Metrics) -> String {
    let mut out = String::new();
    for d in defs {
        if let Some(v) = values.get(d.name) {
            writeln!(out, "  {:<40} {:>16.4} {}", d.name, v, d.unit).expect("write to string");
        }
    }
    out
}

/// The contract's result line.
pub fn result_json(defs: &[MetricDef], values: &Metrics, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name));
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// `BENCHMARK.json`, generated so that the file and the program cannot
/// name different metrics, bounds or workloads.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("write to string");
    let block = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        writeln!(out, "  \"{key}\": [").expect("write to string");
        out.push_str(&rows.join(",\n"));
        out.push_str(if last { "\n  ]\n" } else { "\n  ],\n" });
    };
    block(
        &mut out,
        "workloads",
        Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name(),
                    w.why()
                )
            })
            .collect(),
        false,
    );
    let metric = |d: &MetricDef| {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name,
            d.unit,
            d.better.as_str()
        )
    };
    block(
        &mut out,
        "end_to_end",
        END_TO_END.iter().map(metric).collect(),
        false,
    );
    block(
        &mut out,
        "per_layer",
        PER_LAYER.iter().map(metric).collect(),
        true,
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let mut names = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(d.name, 64, "_.-"), "name {}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(d.unit, 16, "_/%.-"), "unit {}", d.unit);
            assert!(names.insert(d.name), "{} is listed twice", d.name);
        }
        for d in &END_TO_END {
            let bound = d.bound.expect("end-to-end metrics are gated");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for w in Workload::ALL {
            assert!(names.insert(w.name()), "{} is listed twice", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains(['"', '\n']),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: dasp-benchmark --print-benchmark-json"
        );
    }

    #[test]
    fn result_line_carries_exactly_the_listed_metrics() {
        let defs = [lower("a.b", "us"), higher("c", "1/s")];
        let values = Metrics::from([("a.b", 1.5), ("c", 2.0), ("unlisted", 9.0)]);
        assert_eq!(
            result_json(&defs, &values, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 1.5, \"unit\": \"us\"}, \"c\": {\"value\": 2, \"unit\": \"1/s\"}}}"
        );
        assert!(result_json(&defs, &values, 10, 1).starts_with("{\"correct\": false"));
    }
}
