//! The timed run (`--trace 0`): the end-to-end metrics of one workload,
//! all seven engines one after the other, telemetry off.

use crate::plan::Plan;
use crate::procfs;
use crate::report::{Report, Totals};
use crate::rt;
use crate::sim;
use crate::stats::{geomean, median, quantile};
use crate::workload::{Backend, Workload, ENGINES};
use hat_core::ProtocolKind;
use std::path::Path;
use std::time::Duration;

/// One engine's end-to-end numbers.
pub struct EngineTimed {
    pub setup_s: f64,
    pub txn_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
    pub attempted: u64,
    pub committed: u64,
}

/// Runs every engine for `per_engine` of measured time and reports the
/// end-to-end metrics.
pub fn run(wl: &Workload, plan: &Plan, scratch: &Path, report: &mut Report) -> Totals {
    let mut engines = Vec::new();
    for (i, (label, kind)) in ENGINES.into_iter().enumerate() {
        let measured = plan.measured(wl, i);
        let e = match wl.backend {
            Backend::Threaded => threaded(wl, label, kind, plan, measured, scratch),
            Backend::Sim => simulated(wl, kind, plan, measured),
        };
        eprintln!(
            "  {label:<9} {:>9.0} txn/s  p50 {:>8.1} us  p99 {:>8.1} us  ({} samples, set-up {:.3} s)",
            e.txn_per_s, e.p50_us, e.p99_us, e.samples, e.setup_s
        );
        engines.push(e);
    }
    let col = |f: fn(&EngineTimed) -> f64| engines.iter().map(f).collect::<Vec<f64>>();
    report.note(
        "setup_s",
        median(&col(|e| e.setup_s)),
        "s",
        "median over the seven engines' set-ups",
    );
    report.note(
        "txn_per_s",
        geomean(&col(|e| e.txn_per_s)),
        "1/s",
        "geometric mean over engines",
    );
    let fewest = engines.iter().map(|e| e.samples).min().unwrap_or(0);
    report.note(
        "commit_p50_us",
        geomean(&col(|e| e.p50_us)),
        "us",
        format!("geometric mean over engines, >= {fewest} samples each"),
    );
    report.push("peak_rss_mb", procfs::peak_rss_mb(), "MB");
    Totals {
        attempted: engines.iter().map(|e| e.attempted).sum(),
        committed: engines.iter().map(|e| e.committed).sum(),
    }
}

fn threaded(
    wl: &Workload,
    label: &str,
    kind: ProtocolKind,
    plan: &Plan,
    measured: Duration,
    scratch: &Path,
) -> EngineTimed {
    let run = rt::measure(wl, label, kind, plan, measured, scratch);
    if run.exhausted {
        eprintln!(
            "  note: {label} used up its prepared inputs; its window closed after {:.3} s",
            (run.window.close - run.window.open) as f64 / 1e9
        );
    }
    EngineTimed {
        setup_s: run.setup_s,
        txn_per_s: run.txn_per_s(),
        p50_us: quantile(&run.window.latencies_us, 0.50),
        p99_us: quantile(&run.window.latencies_us, 0.99),
        samples: run.window.latencies_us.len(),
        attempted: run.attempted,
        committed: run.metrics.committed,
    }
}

/// Fewest episodes an engine runs, whatever its budget: the cost of an
/// episode depends on its seed, and the mean of four is what keeps the
/// result steady from one `--seed` to the next.
const MIN_EPISODES: usize = 4;

/// Episodes, each at its own seed derived from `--seed`, until the
/// engine's wall-clock budget is used; throughput is all commits over
/// all `run_for` time. Latency here is the same outside measurement as
/// on the threaded backend — the wall-clock gap between a client's
/// consecutive `next_txn` calls — which on a simulator is what it costs
/// to *simulate* a transaction from begin to outcome with 31 others in
/// flight, not the simulated latency (`sim.commit_p50_sim_us`, per
/// layer).
fn simulated(wl: &Workload, kind: ProtocolKind, plan: &Plan, budget: Duration) -> EngineTimed {
    let (mut setup_s, mut run_s, mut committed, mut attempted) = (0.0, 0.0, 0, 0);
    let mut latencies_us = Vec::new();
    let mut per_client = sim::inputs_for(plan.episode);
    let min_episodes = plan.scaled(MIN_EPISODES);
    let mut episode = 0;
    while run_s < budget.as_secs_f64() || episode < min_episodes {
        let seed = sim::episode_seed(plan.seed, episode as u64);
        let t0 = std::time::Instant::now();
        let inputs = sim::inputs(wl, seed, per_client);
        setup_s += t0.elapsed().as_secs_f64();
        let e = sim::episode(wl, kind, seed, inputs, plan.episode, false);
        let most = e.logs.iter().map(|l| l.handed as usize).max().unwrap_or(0);
        assert!(
            most < per_client,
            "an episode used all {per_client} inputs of a client"
        );
        if episode == 0 {
            // Later episodes differ only in seed: twice what this one
            // consumed is plenty, and far cheaper to generate.
            per_client = 2 * most + 16;
        }
        setup_s += e.build_s;
        run_s += e.run_s;
        committed += e.metrics.committed;
        // A transaction still in flight at the horizon has no outcome:
        // it was not attempted as far as the result is concerned.
        attempted += e.metrics.committed + e.metrics.aborted_external + e.metrics.aborted_internal;
        latencies_us.extend(rt::all_latencies_us(&e.logs));
        episode += 1;
    }
    latencies_us.sort_by(f64::total_cmp);
    EngineTimed {
        setup_s,
        txn_per_s: committed as f64 / run_s,
        p50_us: quantile(&latencies_us, 0.50),
        p99_us: quantile(&latencies_us, 0.99),
        samples: latencies_us.len(),
        attempted,
        committed,
    }
}
