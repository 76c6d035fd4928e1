//! Threaded-runtime runs: one engine, one deployment, closed loop.

use crate::gen::{self, VALUE_LEN};
use crate::plan::Plan;
use crate::procfs;
use crate::source::{ClientLog, Phases, StampedSource};
use crate::stats;
use crate::workload::Workload;
use hat_core::{ClientMetrics, DeploymentBuilder, Node, ProtocolKind, ServiceModel, TxnRecord};
use hat_runtime::{Runtime, RuntimeConfig};
use hat_storage::{DurableStore, Record, Store, SyncPolicy, VersionStamp};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Warm-up between the end of the preload and the opening of the
/// measured window. It must outlast `RetryPolicy::default().base` (1 s):
/// every request arms a retry timer that far ahead, so only after a
/// second do the client threads carry their steady-state load of stale
/// timers — at the seed commit throughput is ~40 % higher before that
/// point than after it (README, "Warm-up").
pub const WARMUP: Duration = Duration::from_millis(1250);

/// Writer id of directly preloaded versions: no client uses it (client
/// writer ids start at 1 and stay small; 0 is the initial version's).
const PRELOAD_WRITER: u32 = u32::MAX;

/// How a threaded run ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After a warm-up and a measured window of these lengths, counted
    /// from the moment the last client finishes preloading.
    After {
        warmup: Duration,
        measured: Duration,
    },
    /// When every client has run `n` mixed transactions.
    Txns(usize),
}

/// What one threaded run measured.
pub struct ThreadedRun {
    /// Input generation, build, spawn and preload: start of the run to
    /// the moment every client had finished its preload share.
    pub setup_s: f64,
    pub window: Window,
    /// Transactions handed out, all phases.
    pub attempted: u64,
    /// Client metrics summed over clients, all phases.
    pub metrics: ClientMetrics,
    /// Process CPU time and voluntary context switches, spawn to stop.
    pub cpu_us: f64,
    pub switches: u64,
    /// A client ran out of inputs before the window closed.
    pub exhausted: bool,
    /// Final node states (servers still hold their stores).
    pub nodes: Vec<Node>,
    pub records: Vec<TxnRecord>,
}

impl ThreadedRun {
    /// Committed transactions per wall-clock second: the median over
    /// the window's slices (a stall of the sandbox lands in one or two
    /// slices, not in the result), with outcomes that were not commits
    /// scaled out.
    pub fn txn_per_s(&self) -> f64 {
        let commit_share = self.metrics.committed as f64 / self.attempted.max(1) as f64;
        stats::median(&self.window.slice_rates) * commit_share
    }
}

/// Writes each of the first `keys` keys once into the durable store the deployment will
/// open as server 0, without syncing each put: the deployment's own
/// `DurableStore::open` then replays it, which is how a durable server
/// meets existing data. (`DeploymentBuilder::durable` documents the
/// `server-<id>` layout.)
pub fn preload_durable(dir: &Path, seed: u64, keys: u64) {
    let mut rng = gen::SplitMix64::new(seed ^ 0x5EED_0F7E_10AD);
    let mut store =
        DurableStore::open(dir.join("server-0"), SyncPolicy::Never).expect("open preload store");
    for k in 0..keys {
        let mut v = vec![0u8; VALUE_LEN];
        for chunk in v.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
        let record = Record::new(VersionStamp::new(1, PRELOAD_WRITER), v);
        store
            .put(gen::key(k), Arc::new(record))
            .expect("preload put");
    }
    store.sync().expect("sync preload");
}

/// How to run one engine on the threaded backend.
pub struct RunOpts<'a> {
    pub stop: Stop,
    /// Record the history (the correctness pass); off in timed runs.
    pub record_history: bool,
    /// Keys written once each before the mixed transactions start: the
    /// whole keyspace in a measured run, none in the correctness pass,
    /// whose history must be self-contained.
    pub preload: u64,
    /// Given (and empty) exactly when the workload is durable.
    pub wal_dir: Option<&'a Path>,
    /// How long the servers keep running after the last client stops.
    /// The correctness pass gives them a few anti-entropy ticks: MAV
    /// acknowledges a write while it is still in the volatile pending
    /// set and logs it on promotion (documented in `protocol/mav.rs`),
    /// so only a settled server can be held to "every acknowledged
    /// write is in the log".
    pub settle: Duration,
}

/// Runs `kind` on the workload's deployment.
pub fn run_threaded(
    wl: &Workload,
    kind: ProtocolKind,
    seed: u64,
    opts: RunOpts<'_>,
) -> ThreadedRun {
    let RunOpts {
        stop,
        record_history,
        preload,
        wal_dir,
        settle,
    } = opts;
    // Service holds are real sleeps on this backend: none, whatever the
    // workload's own model says.
    let mut config = wl.config(kind);
    config.service = ServiceModel::zero();
    config.record_history = record_history;
    let (window, budget, mixed_per_client) = match stop {
        Stop::After { warmup, measured } => {
            let budget = warmup + measured;
            let inputs = (wl.inputs_per_client_s as f64 * budget.as_secs_f64()).ceil();
            (Some((warmup, measured)), Some(budget), inputs as usize)
        }
        Stop::Txns(n) => (None, None, n),
    };
    let phases = Phases::new(wl.clients, budget);
    let drivers = (0..wl.clients)
        .map(|c| {
            // A durable deployment is preloaded through its log instead.
            let preload = if wl.durable {
                Vec::new()
            } else {
                gen::preload_inputs(seed, c, wl.clients, preload)
            };
            let mixed = gen::client_inputs(seed, c, wl.mix, mixed_per_client);
            StampedSource::boxed(c, preload, mixed, &phases)
        })
        .collect();
    let mut builder = DeploymentBuilder::new(kind)
        .seed(seed)
        .clusters(wl.spec())
        .config(config)
        .drivers(drivers);
    if let Some(dir) = wal_dir {
        preload_durable(dir, seed, preload);
        builder = builder.durable(dir, SyncPolicy::Always);
    }
    let cpu0 = procfs::cpu_time_us();
    let sw0 = procfs::voluntary_switches();
    let rt = Runtime::spawn(
        builder,
        RuntimeConfig {
            latency_scale: 0.0,
            seed,
            op_deadline: None,
        },
    );
    // The main thread does nothing but sleep until the sources stop.
    phases.wait_all_done();
    let cpu_us = procfs::cpu_time_us() - cpu0;
    let switches = procfs::voluntary_switches().saturating_sub(sw0);
    rt.run_for(settle);
    let (nodes, metrics, records) = rt.shutdown();
    let logs = phases.take_logs();
    let loaded = phases.loaded_at().expect("every client preloaded");
    ThreadedRun {
        setup_s: loaded as f64 / 1e9,
        window: Window::of(&logs, loaded, window),
        attempted: logs.iter().map(|l| l.handed).sum(),
        metrics,
        cpu_us,
        switches,
        exhausted: logs.iter().any(|l| l.exhausted),
        nodes,
        records,
    }
}

/// A measured run of `kind`: full preload, warm-up, a window of
/// `measured`, history off. Handles the durable workload's scratch
/// directory (`scratch/<label>`), which is gone again on return.
pub fn measure(
    wl: &Workload,
    label: &str,
    kind: ProtocolKind,
    plan: &Plan,
    measured: Duration,
    scratch: &Path,
) -> ThreadedRun {
    let dir = wl.durable.then(|| scratch.join(label));
    let opts = RunOpts {
        stop: Stop::After {
            warmup: plan.warmup,
            measured,
        },
        record_history: false,
        preload: plan.preload_keys(wl),
        wal_dir: dir.as_deref(),
        settle: Duration::ZERO,
    };
    let mut run = run_threaded(wl, kind, plan.seed, opts);
    // Close the stores before their directory goes.
    run.nodes.clear();
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    run
}

/// The measured window over a set of client logs.
pub struct Window {
    pub open: u64,
    pub close: u64,
    /// Latency (µs) of every transaction whose outcome stamp lies in
    /// `(open, close]`, ascending.
    pub latencies_us: Vec<f64>,
    /// Outcomes per second in each of [`SLICES`] equal parts of the
    /// window.
    pub slice_rates: Vec<f64>,
}

/// Begin-to-outcome latency (µs) of every mixed transaction in `logs`
/// that had an outcome, unsorted.
pub fn all_latencies_us(logs: &[ClientLog]) -> impl Iterator<Item = f64> + '_ {
    logs.iter().flat_map(|log| {
        log.stamps[log.preload..]
            .windows(2)
            .map(|pair| (pair[1] - pair[0]) as f64 / 1e3)
    })
}

/// Parts the window is cut into for the throughput median.
pub const SLICES: u64 = 10;

impl Window {
    /// With `(warmup, measured)` the window opens `warmup` after
    /// `loaded` and lasts `measured`, cut short if a client ran out of
    /// input first. Without, it is from `loaded` until the first client
    /// stopped.
    pub fn of(logs: &[ClientLog], loaded: u64, timed: Option<(Duration, Duration)>) -> Window {
        let last_stamp = |l: &ClientLog| *l.stamps.last().expect("a source always stamps once");
        let earliest_stop = logs
            .iter()
            .map(last_stamp)
            .min()
            .expect("at least one client");
        let (open, close) = match timed {
            Some((warmup, measured)) => {
                let open = loaded + warmup.as_nanos() as u64;
                (open, (open + measured.as_nanos() as u64).min(earliest_stop))
            }
            None => (loaded, earliest_stop),
        };
        // A fixed-count run can have a client finish everything before
        // the slowest has preloaded; such a run has no common window.
        let close = close.max(open + 1);
        let slice = (close - open).div_ceil(SLICES);
        let mut counts = [0u64; SLICES as usize];
        let mut latencies_us = Vec::new();
        for log in logs {
            // stamps[i] hands out transaction i; stamps[i + 1] is its
            // outcome. Preload transactions never count.
            for pair in log.stamps[log.preload..].windows(2) {
                if pair[1] > open && pair[1] <= close {
                    latencies_us.push((pair[1] - pair[0]) as f64 / 1e3);
                    counts[((pair[1] - open - 1) / slice) as usize] += 1;
                }
            }
        }
        latencies_us.sort_by(f64::total_cmp);
        Window {
            open,
            close,
            latencies_us,
            slice_rates: counts
                .iter()
                .map(|&c| c as f64 / (slice as f64 / 1e9))
                .collect(),
        }
    }
}
