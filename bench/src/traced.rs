//! The traced run (`--trace 1`): the per-layer metrics of one workload.
//!
//! Four sources, all from outside the program:
//!
//! * the inline harness with spans on — `client.*`, `server.*`,
//!   `protocol.*`, `msg.*`, and (spans off, `SystemConfig::trace` on,
//!   `obs` on) the `inline.*`, `trace.*`, `obs.*` ratios;
//! * a `SimFrontend` episode stepped one event at a time — `sim.*` run
//!   metrics and the `replication.*` counts;
//! * a short threaded run — `runtime.cpu_us_per_txn`,
//!   `runtime.ctx_switches_per_txn`, `client.commit_p999_us`;
//! * direct timed calls (`kernels`).
//!
//! Cross-engine values are arithmetic means over the seven engines.

use crate::check::{records_hash, Checked};
use crate::inline::{self, InlineOpts, InlineRun, Span, Until, BACKGROUND, NO_PARENT};
use crate::kernels;
use crate::plan::Plan;
use crate::report::{Report, Totals};
use crate::rt;
use crate::sim;
use crate::stats::{geomean, mean, quantile};
use crate::workload::{Backend, Workload, ENGINES};
use hat_core::{Frontend, ProtocolKind, SystemConfig};
use hat_sim::SimDuration;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans per engine written to the trace file (all spans are kept in
/// memory and take part in the metrics; the file holds the first ones).
const SPANS_WRITTEN: usize = 4_000;

/// Virtual horizon of the inline replay of a simulator workload.
const INLINE_SIM_HORIZON: SimDuration = SimDuration(2_000_000);
/// Inputs per client prepared for it.
const INLINE_SIM_INPUTS: usize = 400;

/// Simulated length of the stepped simulator episode on a threaded
/// workload's deployment (the simulator workload steps a full episode).
const PROBE_EPISODE: SimDuration = SimDuration(1_000_000);

/// One engine's layer numbers.
#[derive(Default)]
struct Layers {
    committed: f64,
    reads: f64,
    writes: f64,
    client_ns: f64,
    server_ns: f64,
    read_ns: f64,
    write_ns: f64,
    replicate_ns: f64,
    timer_ns: f64,
    msgs: f64,
    msg_bytes: f64,
    msg_rounds: f64,
    repair_rounds: f64,
    metadata_bytes: f64,
    replicated_records: f64,
    /// Inline wall time per committed transaction, spans off.
    inline_ns_per_txn: f64,
    inline_txn_per_s: f64,
    queue_ns_per_txn: f64,
    span_ratio: f64,
    trace_ratio: f64,
    obs_ratio: f64,
}

/// One inline run of `kind` on the workload's deployment.
fn inline_run(
    wl: &Workload,
    kind: ProtocolKind,
    plan: &Plan,
    scratch: &Path,
    config: SystemConfig,
    spans: bool,
) -> InlineRun {
    let (until, per_client) = match wl.backend {
        Backend::Threaded => (Until::InputsDone, plan.scaled(wl.inline_txns)),
        Backend::Sim => (
            Until::Virtual(plan.simulated(INLINE_SIM_HORIZON)),
            INLINE_SIM_INPUTS,
        ),
    };
    let wal_dir = wl.durable.then(|| scratch.join("inline"));
    let run = inline::run(
        wl,
        kind,
        InlineOpts {
            config,
            spans,
            until,
            seed: plan.seed,
            per_client,
            preload: plan.preload_keys(wl),
            wal_dir: wal_dir.as_deref(),
        },
    );
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    run
}

/// Sums span durations by who ran them and what they handled.
fn attribute(run: &InlineRun, layers: &mut Layers) {
    for span in &run.spans[run.first_measured_span..] {
        let (is_server, label) = run.names[span.name as usize];
        let ns = (span.end_ns - span.start_ns) as f64;
        if !is_server {
            layers.client_ns += ns;
            continue;
        }
        layers.server_ns += ns;
        match label {
            "Get" | "GetTs" | "GetVersion" | "Scan" => layers.read_ns += ns,
            "Put" | "Commit" | "CommitBatch" => layers.write_ns += ns,
            "timer" => layers.timer_ns += ns,
            l if l.starts_with("Replicate") => layers.replicate_ns += ns,
            _ => {}
        }
    }
}

/// The spans-off, spans-on, trace-on and obs-on inline runs of one
/// engine, folded into its [`Layers`]. Returns the spans-on run for the
/// trace file.
fn inline_engine(
    wl: &Workload,
    kind: ProtocolKind,
    plan: &Plan,
    scratch: &Path,
) -> Result<(Layers, InlineRun), String> {
    let base = wl.config(kind);
    let off = inline_run(wl, kind, plan, scratch, base.clone(), false);
    let on = inline_run(wl, kind, plan, scratch, base.clone(), true);
    let mut traced_cfg = base.clone();
    traced_cfg.trace = true;
    let traced = inline_run(wl, kind, plan, scratch, traced_cfg, false);
    let mut obs_cfg = base;
    obs_cfg.obs.enabled = true;
    let observed = inline_run(wl, kind, plan, scratch, obs_cfg, false);

    // Same seed, same inputs, same order: the counts must agree exactly
    // whether or not the loop records spans or the program its telemetry.
    for (what, other) in [
        ("spans on", &on),
        ("trace on", &traced),
        ("obs on", &observed),
    ] {
        if (other.committed, other.msgs, other.calls) != (off.committed, off.msgs, off.calls) {
            return Err(format!(
                "inline counts differ with {what}: committed {} vs {}, messages {} vs {}, calls {} vs {}",
                other.committed, off.committed, other.msgs, off.msgs, other.calls, off.calls
            ));
        }
    }
    // And the histories themselves, on a short recorded pair.
    let mut recorded = wl.config(kind);
    recorded.record_history = true;
    let short = Plan {
        work: plan.work / 8.0,
        ..plan.clone()
    };
    let plain = inline_run(wl, kind, &short, scratch, recorded.clone(), false);
    let spanned = inline_run(wl, kind, &short, scratch, recorded, true);
    if plain.records.is_empty() || records_hash(&plain.records) != records_hash(&spanned.records) {
        return Err(format!(
            "inline histories differ with spans on ({} vs {} records)",
            plain.records.len(),
            spanned.records.len()
        ));
    }
    if off.committed == 0 {
        return Err("the inline run committed nothing".into());
    }
    if off.failed != 0 {
        return Err(format!("{} inline transactions failed", off.failed));
    }

    let committed = off.committed as f64;
    let per_s = |r: &InlineRun| r.committed as f64 / (r.wall_ns as f64 / 1e9);
    let mut layers = Layers {
        committed,
        reads: on.reads as f64,
        writes: on.writes as f64,
        msgs: on.msgs as f64,
        msg_bytes: on.msg_bytes as f64,
        msg_rounds: on.msg_rounds as f64,
        repair_rounds: on.repair_rounds as f64,
        metadata_bytes: on.metadata_bytes as f64,
        replicated_records: on.repl_records as f64,
        inline_ns_per_txn: off.wall_ns as f64 / committed,
        inline_txn_per_s: per_s(&off),
        span_ratio: on.wall_ns as f64 / off.wall_ns as f64,
        trace_ratio: per_s(&traced) / per_s(&off),
        obs_ratio: per_s(&observed) / per_s(&off),
        ..Layers::default()
    };
    attribute(&on, &mut layers);
    layers.queue_ns_per_txn = (on.wall_ns as f64 - layers.client_ns - layers.server_ns) / committed;
    Ok((layers, on))
}

/// What stepping one simulator episode event by event shows.
struct Stepped {
    step_ns: Vec<f64>,
    events_per_s: f64,
    /// Commits per wall-clock second of stepping, and the 99th
    /// percentile wall-clock gap between a client's `next_txn` calls.
    txn_per_s: f64,
    p99_wall_us: f64,
    committed: u64,
    commit_p50_sim_us: f64,
    records_per_write: f64,
    repl_msgs_per_txn: f64,
    max_lag: u64,
}

fn stepped_episode(wl: &Workload, kind: ProtocolKind, plan: &Plan) -> Stepped {
    let (per_client, simulated) = match wl.backend {
        Backend::Sim => (sim::inputs_for(plan.episode), plan.episode),
        Backend::Threaded => (plan.scaled(wl.inline_txns), plan.simulated(PROBE_EPISODE)),
    };
    let inputs = sim::inputs(wl, plan.seed, per_client);
    let (mut front, phases) = sim::build(wl, kind, plan.seed, inputs, false);
    let mut step_ns = Vec::new();
    let horizon = simulated.as_micros();
    // Starts the actors; the queue is empty until then.
    front.run_for(SimDuration(0));
    let t0 = Instant::now();
    while front
        .engine()
        .peek_time()
        .is_some_and(|t| t.as_micros() <= horizon)
    {
        let t = Instant::now();
        front.engine_mut().step();
        step_ns.push(t.elapsed().as_nanos() as f64);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let metrics = front.aggregate_metrics();
    let server = front.server_stats();
    let delivered = front.engine().net_stats().delivered;
    let max_lag = sim::max_replication_lag(&front);
    drop(front);
    let logs = phases.take_logs();
    let (handed, writes): (u64, u64) = logs
        .iter()
        .fold((0, 0), |(h, w), l| (h + l.handed, w + l.writes));
    // Writes of the transactions that committed, taking the handed-out
    // transactions' mean (a few are still in flight at the horizon).
    let committed_writes = writes as f64 * metrics.committed as f64 / handed.max(1) as f64;
    step_ns.sort_by(f64::total_cmp);
    let mut gaps_us: Vec<f64> = rt::all_latencies_us(&logs).collect();
    gaps_us.sort_by(f64::total_cmp);
    Stepped {
        events_per_s: delivered as f64 / wall_s,
        txn_per_s: metrics.committed as f64 / wall_s,
        p99_wall_us: quantile(&gaps_us, 0.99),
        committed: metrics.committed,
        commit_p50_sim_us: metrics.commit_percentiles().p50 * 1e3,
        records_per_write: server.replication_records as f64 / committed_writes.max(1.0),
        repl_msgs_per_txn: server.replication_msgs as f64 / metrics.committed.max(1) as f64,
        max_lag,
        step_ns,
    }
}

/// What the short threaded run adds.
struct Threaded {
    cpu_us_per_txn: f64,
    switches_per_txn: f64,
    txn_per_s: f64,
    p99_us: f64,
    p999_us: f64,
    samples: usize,
    attempted: u64,
    committed: u64,
}

fn threaded_probe(
    wl: &Workload,
    label: &str,
    kind: ProtocolKind,
    plan: &Plan,
    scratch: &Path,
) -> Threaded {
    let run = rt::measure(wl, label, kind, plan, plan.measured(wl, 0) / 2, scratch);
    let committed = run.metrics.committed.max(1) as f64;
    Threaded {
        cpu_us_per_txn: run.cpu_us / committed,
        switches_per_txn: run.switches as f64 / committed,
        txn_per_s: run.txn_per_s(),
        p99_us: quantile(&run.window.latencies_us, 0.99),
        p999_us: quantile(&run.window.latencies_us, 0.999),
        samples: run.window.latencies_us.len(),
        attempted: run.attempted,
        committed: run.metrics.committed,
    }
}

/// Runs the traced run and reports every per-layer metric.
pub fn run(
    wl: &Workload,
    plan: &Plan,
    scratch: &Path,
    checked: &[Checked],
    report: &mut Report,
) -> Result<Totals, String> {
    let mut layers = Vec::new();
    let mut stepped = Vec::new();
    let mut threaded = Vec::new();
    let mut trace_file = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"note\": \"first {SPANS_WRITTEN} measured spans per engine; \
         span = [id, parent (-1 none), name, client (-1 background), txn ordinal, start_ns, end_ns]\", \"engines\": {{",
        wl.name, plan.seed
    );
    for (i, (label, kind)) in ENGINES.into_iter().enumerate() {
        let (l, on) = inline_engine(wl, kind, plan, scratch)
            .map_err(|e| format!("{} / {label}: {e}", wl.name))?;
        let s = stepped_episode(wl, kind, plan);
        let t = threaded_probe(wl, label, kind, plan, scratch);
        eprintln!(
            "  {label:<9} inline {:>8.0} txn/s  client {:>7.0} ns/txn  server {:>7.0} ns/txn  {:>5.1} msgs/txn  threaded cpu {:>6.1} us/txn",
            l.inline_txn_per_s,
            l.client_ns / l.committed,
            l.server_ns / l.committed,
            l.msgs / l.committed,
            t.cpu_us_per_txn
        );
        write_engine_spans(&mut trace_file, i, label, &on);
        layers.push(l);
        stepped.push(s);
        threaded.push(t);
    }
    trace_file.push_str("}}\n");
    let path = format!("bench/out/trace-{}.json", wl.name);
    std::fs::write(&path, trace_file).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("  spans written to {path}");

    // The end-to-end candidates too noisy to gate on (README, "Noise"):
    // per engine, on the workload's own backend, from this run's probes.
    let on_backend = |threaded_value: fn(&Threaded) -> f64, stepped_value: fn(&Stepped) -> f64| {
        (0..ENGINES.len())
            .map(|i| match wl.backend {
                Backend::Threaded => threaded_value(&threaded[i]),
                Backend::Sim => stepped_value(&stepped[i]),
            })
            .collect::<Vec<f64>>()
    };
    for ((label, _), v) in ENGINES
        .iter()
        .zip(on_backend(|t| t.txn_per_s, |s| s.txn_per_s))
    {
        report.push(format!("txn_per_s.{label}"), v, "1/s");
    }
    report.note(
        "commit_p99_us",
        geomean(&on_backend(|t| t.p99_us, |s| s.p99_wall_us)),
        "us",
        "geometric mean over engines",
    );

    let over = |f: &dyn Fn(&Layers) -> f64| mean(&layers.iter().map(f).collect::<Vec<_>>());
    let per_txn = |f: fn(&Layers) -> f64| over(&|l| f(l) / l.committed);

    // hat-core client
    report.push("client.self_ns_per_txn", per_txn(|l| l.client_ns), "ns/txn");
    report.push(
        "client.msg_rounds_per_txn",
        per_txn(|l| l.msg_rounds),
        "count",
    );
    report.push(
        "client.repair_rounds_per_txn",
        per_txn(|l| l.repair_rounds),
        "count",
    );
    report.push(
        "client.metadata_bytes_per_txn",
        per_txn(|l| l.metadata_bytes),
        "B/txn",
    );
    let fewest = threaded.iter().map(|t| t.samples).min().unwrap_or(0);
    report.note(
        "client.commit_p999_us",
        mean(&threaded.iter().map(|t| t.p999_us).collect::<Vec<_>>()),
        "us",
        format!(
            "threaded, >= {fewest} samples per engine: the scheduler's tail as much as the code's"
        ),
    );
    // hat-core server
    report.push("server.self_ns_per_txn", per_txn(|l| l.server_ns), "ns/txn");
    report.push(
        "server.read_ns_per_op",
        over(&|l| l.read_ns / l.reads.max(1.0)),
        "ns/op",
    );
    report.push(
        "server.write_ns_per_op",
        over(&|l| l.write_ns / l.writes.max(1.0)),
        "ns/op",
    );
    report.push(
        "server.replicate_ns_per_record",
        over(&|l| l.replicate_ns / l.replicated_records.max(1.0)),
        "ns/record",
    );
    report.push("server.timer_ns_per_txn", per_txn(|l| l.timer_ns), "ns/txn");
    // hat-core protocol engines
    for ((label, _), l) in ENGINES.iter().zip(&layers) {
        report.push(
            format!("protocol.{label}.server_ns_per_txn"),
            l.server_ns / l.committed,
            "ns/txn",
        );
        report.push(
            format!("protocol.{label}.client_ns_per_txn"),
            l.client_ns / l.committed,
            "ns/txn",
        );
        report.note(
            format!("protocol.{label}.msgs_per_txn"),
            l.msgs / l.committed,
            "count",
            "exact at a fixed seed",
        );
    }
    // hat-core messages
    report.note(
        "msg.per_txn",
        per_txn(|l| l.msgs),
        "count",
        "exact at a fixed seed",
    );
    report.note(
        "msg.bytes_per_txn",
        per_txn(|l| l.msg_bytes),
        "B/txn",
        "exact at a fixed seed",
    );
    // hat-core replication, counted by the simulator
    let col = |f: fn(&Stepped) -> f64| mean(&stepped.iter().map(f).collect::<Vec<_>>());
    report.note(
        "replication.records_per_write",
        col(|s| s.records_per_write),
        "ratio",
        format!(
            "eventual alone: {:.1}; exact at a fixed seed",
            stepped[0].records_per_write
        ),
    );
    report.push(
        "replication.msgs_per_txn",
        col(|s| s.repl_msgs_per_txn),
        "count",
    );
    report.push("replication.max_lag", col(|s| s.max_lag as f64), "count");
    // hat-sim
    report.push("sim.events_per_s", col(|s| s.events_per_s), "1/s");
    report.push("sim.step_p50_ns", col(|s| quantile(&s.step_ns, 0.50)), "ns");
    report.push("sim.step_p99_ns", col(|s| quantile(&s.step_ns, 0.99)), "ns");
    report.note(
        "sim.committed",
        stepped.iter().map(|s| s.committed as f64).sum(),
        "count",
        "simulated; repeats exactly at a fixed seed",
    );
    report.note(
        "sim.commit_p50_sim_us",
        col(|s| s.commit_p50_sim_us),
        "us_sim",
        "simulated time; repeats exactly at a fixed seed",
    );
    // hat-runtime
    let cpu = mean(
        &threaded
            .iter()
            .map(|t| t.cpu_us_per_txn)
            .collect::<Vec<_>>(),
    );
    report.push("runtime.cpu_us_per_txn", cpu, "us/txn");
    report.push(
        "runtime.ctx_switches_per_txn",
        mean(
            &threaded
                .iter()
                .map(|t| t.switches_per_txn)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    report.note(
        "runtime.overhead_ratio",
        mean(
            &threaded
                .iter()
                .zip(&layers)
                .map(|(t, l)| t.cpu_us_per_txn * 1e3 / l.inline_ns_per_txn)
                .collect::<Vec<_>>(),
        ),
        "ratio",
        "threaded CPU time per txn / inline wall time per txn",
    );
    // the inline harness itself
    report.push("inline.txn_per_s", over(&|l| l.inline_txn_per_s), "1/s");
    report.push(
        "inline.queue_ns_per_txn",
        over(&|l| l.queue_ns_per_txn),
        "ns/txn",
    );
    report.push(
        "inline.span_overhead_ratio",
        over(&|l| l.span_ratio),
        "ratio",
    );
    // telemetry
    report.push("trace.on_ratio", over(&|l| l.trace_ratio), "ratio");
    report.push("obs.on_ratio", over(&|l| l.obs_ratio), "ratio");
    report.push(
        "history.check_ns_per_txn",
        mean(
            &checked
                .iter()
                .map(|c| c.check_ns_per_txn)
                .collect::<Vec<_>>(),
        ),
        "ns/txn",
    );
    kernels::run(plan, scratch, report);

    let attempted: u64 = threaded.iter().map(|t| t.attempted).sum();
    let committed: u64 = threaded.iter().map(|t| t.committed).sum();
    report.note(
        "failed_share",
        (attempted - committed) as f64 / attempted.max(1) as f64,
        "ratio",
        "threaded probe: failed / attempted over all engines",
    );
    Ok(Totals {
        attempted,
        committed,
    })
}

fn write_engine_spans(out: &mut String, index: usize, label: &str, run: &InlineRun) {
    let sep = if index == 0 { "" } else { ", " };
    let names: Vec<String> = run
        .names
        .iter()
        .map(|(is_server, l)| format!("\"{}.{l}\"", if *is_server { "server" } else { "client" }))
        .collect();
    write!(
        out,
        "{sep}\"{label}\": {{\"names\": [{}], \"spans\": [",
        names.join(", ")
    )
    .expect("write");
    let first = run.first_measured_span;
    let last = (first + SPANS_WRITTEN).min(run.spans.len());
    for (id, span) in run.spans[first..last].iter().enumerate() {
        let Span {
            name,
            parent,
            txn,
            start_ns,
            end_ns,
        } = *span;
        let parent = match parent {
            NO_PARENT => -1,
            p if (p as usize) < first => -1,
            p => (p as usize - first) as i64,
        };
        let (client, ordinal) = match txn {
            BACKGROUND => (-1, 0),
            t => ((t >> 32) as i64, t & 0xFFFF_FFFF),
        };
        let sep = if id == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}[{id}, {parent}, {name}, {client}, {ordinal}, {start_ns}, {end_ns}]"
        )
        .expect("write");
    }
    out.push_str("]}");
}
