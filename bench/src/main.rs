//! `hatbench` — the repository's benchmark.
//!
//! ```text
//! hatbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One process measures one workload: a correctness pass on every
//! engine, then either the timed run (`--trace 0`, end-to-end metrics)
//! or the traced run (`--trace 1`, per-layer metrics). Every metric is
//! printed by name with its unit; the last line of standard output is
//! the result as one JSON object. Anything wrong — a failed check, bad
//! arguments — exits non-zero with no result line. See `bench/README.md`.

mod check;
mod gen;
mod inline;
mod kernels;
mod plan;
mod procfs;
mod report;
mod rt;
mod sim;
mod source;
mod stats;
mod timed;
mod traced;
mod workload;

use plan::Plan;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Backend, Workload, ENGINES};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 7;
/// Measured seconds when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 16.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {names:?}")
                })?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => trace = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn describe(wl: &Workload, plan: &Plan) {
    println!("workload {}: {}", wl.name, wl.why);
    println!(
        "traffic: 8 ops/txn over 10000 keys (user%08d), uniform, 256-byte values; \
         closed loop, zero think time, {} clients; seed {}",
        wl.clients, plan.seed
    );
    // Hash of a fixed-size sample of the generated inputs: two runs at
    // one seed print the same value.
    let sample: Vec<_> = (0..wl.clients)
        .map(|c| gen::client_inputs(plan.seed, c, wl.mix, 256))
        .collect();
    println!(
        "inputs: hash {:016x} over the first 256 transactions of each client",
        gen::input_hash(&sample)
    );
    match wl.backend {
        Backend::Threaded => println!(
            "backend: hat-runtime, 1 server + {} client threads on {} cores; injected delay: 0 \
             (latency_scale 0, ServiceModel::zero); store: {}; warm-up {:.2} s, measured {:.2} s per engine",
            wl.clients,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            if wl.durable {
                "DurableStore, flush policy SyncPolicy::Always (sync_data per put, sandbox filesystem)"
            } else {
                "MemStore"
            },
            plan.warmup.as_secs_f64(),
            plan.measured(wl, 0).as_secs_f64(),
        ),
        Backend::Sim => println!(
            "backend: hat-sim via SimFrontend, ClusterSpec::va_or(2), default LatencyModel and ServiceModel; \
             episodes of {:.2} simulated s, each at its own derived seed, for {:.2} wall s in all",
            plan.episode.as_secs_f64(),
            plan.seconds,
        ),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let wl = args.workload;
    let plan = Plan::new(args.seed, args.seconds, args.smoke);
    describe(wl, &plan);
    // WAL directories live inside the checkout, one per process.
    let scratch = PathBuf::from(format!("bench/out/tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
    let result = measure(wl, &plan, args.trace, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn measure(
    wl: &Workload,
    plan: &Plan,
    trace: bool,
    scratch: &std::path::Path,
) -> Result<(), String> {
    eprintln!("correctness pass:");
    let mut checked = Vec::new();
    for (label, kind) in ENGINES {
        let t0 = std::time::Instant::now();
        checked.push(check::check_engine(wl, label, kind, plan, scratch)?);
        eprintln!("  {label:<9} ok ({:.2} s)", t0.elapsed().as_secs_f64());
    }
    let mut report = Report::default();
    let totals = if trace {
        eprintln!("traced run:");
        traced::run(wl, plan, scratch, &checked, &mut report)?
    } else {
        eprintln!("timed run:");
        timed::run(wl, plan, scratch, &mut report)
    };
    report.print(totals);
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("hatbench: {why}");
            ExitCode::FAILURE
        }
    }
}
