//! `dasp-benchmark`: the repo's yardstick. Four workloads through the
//! typed `DataSource` API against three durable providers over loopback
//! TCP, every result checked against a plaintext oracle; end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run and
//! from layer calls. See `README.md` beside this package.

mod deploy;
mod layers;
mod metrics;
mod oracle;
mod proc;
mod stats;
mod trace;
mod workloads;

use metrics::{Better, Metrics, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Plan, RunResult, Workload};

const USAGE: &str = "\
usage:
  dasp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run; the last line of output is the result as one JSON object
  dasp-benchmark [--seed <n>] [--seconds <s>] [--quick] [--repeat <n>]
      all four workloads untraced, then traced, then the layer calls;
      --quick      small table and 1 s windows (a smoke test that still verifies)
      --repeat <n> run the untraced set n times and fail if two sets disagree
                   beyond a metric's bound
  dasp-benchmark --print-benchmark-json
workloads: point_read range_scan write_mix bulk_load";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    print_benchmark_json: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        seed: 1,
        repeat: 1,
        ..Args::default()
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{s:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => out.seed = number(value("a number")?)?,
            "--seconds" => out.seconds = Some(number(value("a number")?)?.max(1)),
            "--trace" => out.trace = number(value("0 or 1")?)? != 0,
            "--repeat" => out.repeat = number(value("a number")?)?.max(1) as usize,
            "--quick" => out.quick = true,
            "--print-benchmark-json" => out.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Where provider directories and trace files go: inside the build's
/// target directory, which is inside the checkout and ignored by git.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("benchmark")
}

/// Run one workload on a thread of its own, named so that its CPU time
/// is charged to the driver.
fn run_on_driver(workload: Workload, seed: u64, plan: Plan, traced: bool) -> RunResult {
    let scratch = scratch_dir();
    std::thread::Builder::new()
        .name(proc::DRIVER_THREAD.into())
        .spawn(move || workloads::run(workload, seed, plan, traced, &scratch))
        .expect("spawn the driver thread")
        .join()
        .unwrap_or_else(|_| {
            eprintln!("the driver thread panicked");
            std::process::exit(2);
        })
}

/// A traced run measures layers, not set-up or recovery: once is enough.
fn traced_plan(plan: Plan) -> Plan {
    Plan {
        setups: 1,
        recoveries: 1,
        ..plan
    }
}

fn describe(r: &mut RunResult) {
    println!(
        "  ops_attempted {} ops_failed {} (window: {} ops in {:.3} s)",
        r.attempted, r.failed, r.window_ops, r.window_s
    );
    if let Some(e) = &r.first_failure {
        println!("  first failure: {e}");
    }
    if let Some((pct, us)) = metrics::supported_tail_us(r) {
        println!(
            "  tail: p{pct} = {us:.1} us, the highest percentile with ten samples beyond it (n = {})",
            r.window_latencies.len()
        );
    }
}

/// The contract's single run.
fn single(workload: Workload, args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let plan = Plan::standard(workload, seconds);
    println!(
        "dasp-benchmark {} seed={} seconds={seconds} trace={} (k={} n={}, {} cores)",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        deploy::K,
        deploy::N,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (defs, values, mut result): (&[_], Metrics, RunResult) = if args.trace {
        let mut r = run_on_driver(workload, args.seed, traced_plan(plan), true);
        let mut values = metrics::per_layer(&mut r);
        values.extend(layers::run_all(args.seed, &scratch_dir()));
        (&PER_LAYER, values, r)
    } else {
        let mut r = run_on_driver(workload, args.seed, plan, false);
        let values = metrics::end_to_end(&mut r);
        println!("per-layer counters of this untraced run:");
        print!(
            "{}",
            metrics::render(&PER_LAYER, &metrics::per_layer(&mut r))
        );
        (&END_TO_END, values, r)
    };
    println!(
        "{}:",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    print!("{}", metrics::render(defs, &values));
    describe(&mut result);
    println!(
        "{}",
        metrics::result_json(defs, &values, result.attempted, result.failed)
    );
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Is `b` worse than `a` by more than `bound` of `a`, either way round?
fn disagree(a: f64, b: f64, better: Better, bound: f64) -> bool {
    let (best, worst) = match better {
        Better::Lower => (a.min(b), a.max(b)),
        Better::Higher => (a.max(b), a.min(b)),
    };
    (worst - best).abs() > bound * best.abs()
}

/// All workloads: untraced `repeat` times, traced once, layer calls.
fn full(args: &Args) -> ExitCode {
    let plan = |workload| {
        if args.quick {
            Plan::quick(workload)
        } else {
            Plan::standard(workload, args.seconds.unwrap_or(RUN_SECONDS))
        }
    };
    let mut failed_ops = 0;
    let mut sets: Vec<Vec<Metrics>> = Vec::new();
    for set in 0..args.repeat {
        let seed = args.seed + set as u64;
        let mut row = Vec::new();
        for workload in Workload::ALL {
            println!("== {} (untraced, seed {seed})", workload.name());
            let mut r = run_on_driver(workload, seed, plan(workload), false);
            let values = metrics::end_to_end(&mut r);
            print!("{}", metrics::render(&END_TO_END, &values));
            describe(&mut r);
            failed_ops += r.failed;
            row.push(values);
        }
        sets.push(row);
    }
    for workload in Workload::ALL {
        println!("== {} (traced, seed {})", workload.name(), args.seed);
        let mut r = run_on_driver(workload, args.seed, traced_plan(plan(workload)), true);
        print!(
            "{}",
            metrics::render(&PER_LAYER, &metrics::per_layer(&mut r))
        );
        describe(&mut r);
        failed_ops += r.failed;
    }
    println!("== layer calls");
    let calls: Metrics = layers::run_all(args.seed, &scratch_dir())
        .into_iter()
        .collect();
    print!("{}", metrics::render(&PER_LAYER, &calls));

    let mut disagreements = 0;
    if sets.len() > 1 {
        println!(
            "== agreement of {} sets (min / median / max, spread vs bound)",
            sets.len()
        );
        for (w, workload) in Workload::ALL.iter().enumerate() {
            for d in &END_TO_END {
                let values: Vec<f64> = sets.iter().map(|row| row[w][d.name]).collect();
                let (min, max) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                let mid = stats::median(&values).expect("at least two sets");
                let bound = d.bound.expect("end-to-end metrics are gated");
                let bad = disagree(min, max, d.better, bound);
                disagreements += usize::from(bad);
                println!(
                    "  {:<11} {:<24} {min:>14.3} {mid:>14.3} {max:>14.3} {:<5} {:>6.1} % of {:>4.1} %{}",
                    workload.name(),
                    d.name,
                    d.unit,
                    100.0 * (max - min) / mid.abs(),
                    100.0 * bound,
                    if bad { "  DISAGREE" } else { "" },
                );
            }
        }
    }
    if failed_ops > 0 {
        println!("FAILED: {failed_ops} ops disagreed with the oracle");
    }
    if disagreements > 0 {
        println!("FAILED: {disagreements} (metric, workload) pairs disagree beyond their bound");
    }
    if failed_ops == 0 && disagreements == 0 {
        println!("ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match args.workload {
        Some(workload) => single(workload, &args),
        None => full(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse("--workload write_mix --seed 42 --seconds 7 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::WriteMix));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(7), true));
        assert!(!parse("--workload bulk_load --trace 0").unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn disagreement_is_measured_from_the_better_value() {
        assert!(!disagree(100.0, 109.0, Better::Lower, 0.10));
        assert!(disagree(100.0, 111.0, Better::Lower, 0.10));
        assert!(disagree(111.0, 100.0, Better::Lower, 0.10), "order-free");
        assert!(!disagree(100.0, 91.0, Better::Higher, 0.10));
        assert!(disagree(100.0, 89.0, Better::Higher, 0.10));
    }
}
