//! Standalone TCP provider process.
//!
//! Runs one database service provider behind `dasp_net::TcpServer` so
//! clients (or a whole [`dasp_net::Cluster`]) connect over real
//! sockets. In-memory by default; `--data <dir>` makes it durable
//! (WAL + checkpoint recovery on restart).
//!
//! ```text
//! provider --listen 0.0.0.0:7171 --data /var/lib/dasp/p0 --workers 4
//! ```

use dasp_net::{ReactorConfig, TcpServer};
use dasp_server::engine::DurableConfig;
use dasp_server::service::ProviderService;
use std::sync::Arc;

struct Args {
    listen: String,
    data: Option<std::path::PathBuf>,
    workers: Option<usize>,
}

const USAGE: &str = "usage: provider [--listen ADDR] [--data DIR] [--workers N]

  --listen ADDR   address to bind (default 127.0.0.1:7171; port 0 = ephemeral)
  --data DIR      durable storage directory (default: in-memory)
  --workers N     request worker threads (default: min(cores, 4))";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7171".to_string(),
        data: None,
        workers: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--data" => args.data = Some(std::path::PathBuf::from(value("--data")?)),
            "--workers" => {
                args.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let service = match &args.data {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let (service, report) = ProviderService::durable(dir, DurableConfig::default())
                .map_err(|e| format!("recover {}: {e}", dir.display()))?;
            eprintln!(
                "recovered durable provider from {} ({} checkpoint tables, {} wal records replayed)",
                dir.display(),
                report.checkpoint_tables,
                report.wal_records
            );
            service
        }
        None => ProviderService::new(),
    };
    let mut cfg = ReactorConfig::default();
    if let Some(workers) = args.workers {
        cfg.workers = workers.max(1);
    }
    let server = TcpServer::serve(args.listen.as_str(), Arc::new(service), cfg)
        .map_err(|e| format!("bind {}: {e}", args.listen))?;
    // Stdout so scripts can scrape the bound (possibly ephemeral) port.
    println!("listening on {}", server.local_addr());
    // Serve until killed. The server's threads own all the work; this
    // thread just sleeps and periodically logs load.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        let s = server.stats();
        eprintln!(
            "open={} accepted={} frames_in={} frames_out={} protocol_errors={} backpressure={}",
            s.open, s.accepted, s.frames_in, s.frames_out, s.protocol_errors, s.backpressure_pauses
        );
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
