//! Drives one engine through one nemesis schedule and checks the wreck.

use crate::schedule::{Fault, Nemesis};
use hat_core::{
    format_txn_window, ClusterSpec, DeploymentBuilder, Frontend, HatError, ProtocolKind, Session,
    SessionOptions, SimFrontend, SystemConfig, TraceEventKind, TxnId, TxnRecord,
};
use hat_history::{check, IsolationLevel};
use hat_obs::{LatencyPercentiles, MetricsRegistry, ObsSink, TimeSeries};
use hat_sim::{LatencyModel, NodeId, Partition, SimDuration, SimTime};
use hat_storage::{Key, SyncPolicy, VersionStamp};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shape and pacing of a nemesis run. The defaults provision a paper
/// deployment (VA + OR, two servers each, two sessions per cluster) with
/// WAN latency scaled down 10× so a whole adversarial run fits in under
/// a second of simulated time.
#[derive(Debug, Clone)]
pub struct NemesisOpts {
    /// Engine seed (the single rng stream; same seed ⇒ bit-identical run).
    pub seed: u64,
    /// Fault-injection window.
    pub horizon: SimDuration,
    /// Gap between workload rounds.
    pub tick: SimDuration,
    /// Servers per cluster (two clusters, VA and OR).
    pub servers_per_cluster: usize,
    /// Hot-keyspace size the workload cycles over.
    pub keys: usize,
}

impl Default for NemesisOpts {
    fn default() -> Self {
        NemesisOpts {
            seed: 0x0ADE_57ED,
            horizon: SimDuration::from_millis(600),
            tick: SimDuration::from_millis(15),
            servers_per_cluster: 2,
            keys: 6,
        }
    }
}

/// What one `(engine, schedule, seed)` run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct NemesisReport {
    /// Engine under test.
    pub protocol: ProtocolKind,
    /// Schedule name.
    pub schedule: String,
    /// Engine seed.
    pub seed: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that failed unavailable (paper §2 availability:
    /// blocked on an unreachable replica).
    pub unavailable: u64,
    /// Transactions aborted by the system (lock timeouts, validation).
    pub aborted: u64,
    /// Isolation level the history was checked at.
    pub level: IsolationLevel,
    /// Phenomenon violations found at that level (must be 0).
    pub violations: usize,
    /// Messages dropped by active partitions, across servers.
    pub msgs_dropped_by_partition: u64,
    /// Server crashes injected.
    pub crashes: u64,
    /// WAL records replayed by restarted servers (must be > 0 whenever
    /// `crashes > 0`: restarts provably serve log-recovered state).
    pub wal_records_replayed: u64,
    /// Bytes of torn WAL tail recovery cut (> 0 whenever a torn-tail
    /// crash hit a log: the fault reached where replay looks).
    pub wal_torn_bytes_cut: u64,
    /// Every replica group agreed on per-key newest versions post-heal.
    pub converged: bool,
    /// Commit-latency tail percentiles aggregated across sessions.
    pub commit_latency: LatencyPercentiles,
    /// Per-window telemetry timeline with embedded fault marks: the
    /// paper's availability split readable window by window.
    pub series: TimeSeries,
    /// End-of-run metrics registry snapshot, with the client/server
    /// counter exposition and probe/checker metrics folded in.
    pub registry: MetricsRegistry,
    /// t-visibility staleness percentiles from the online probe pair
    /// (None when no probe resolved before the run ended).
    pub staleness: Option<LatencyPercentiles>,
    /// Violations flagged *live* by the streaming checker. Must be 0,
    /// like the offline `violations` — the streamed check is bounded-
    /// memory and may miss (evicted writers), but never false-alarms.
    pub stream_violations: u64,
    /// The full recorded history (for bit-identical same-seed checks).
    pub records: Vec<TxnRecord>,
}

impl NemesisReport {
    /// Availability + correctness in one predicate: the advertised level
    /// held, replicas converged, progress was made, and every crash
    /// restart served recovered state.
    pub fn ok(&self) -> bool {
        self.violations == 0
            && self.stream_violations == 0
            && self.converged
            && self.committed > 0
            && (self.crashes == 0 || self.wal_records_replayed > 0)
    }
}

/// The strongest isolation level each engine's nemesis history must be
/// clean at — Table 3's advertised guarantees (plus the RAMP follow-up's
/// Read Atomic row). Mirrors the conformance suite: the nemesis workload
/// reads multi-key pairs through one-shot `get_many`, so both RAMP
/// variants are held to full Read Atomic.
pub fn advertised_level(protocol: ProtocolKind) -> IsolationLevel {
    match protocol {
        ProtocolKind::Eventual => IsolationLevel::ReadUncommitted,
        ProtocolKind::ReadCommitted => IsolationLevel::ReadCommitted,
        ProtocolKind::Mav => IsolationLevel::MonotonicAtomicView,
        ProtocolKind::RampFast => IsolationLevel::ReadAtomic,
        ProtocolKind::RampSmall => IsolationLevel::ReadAtomic,
        ProtocolKind::Master => IsolationLevel::ReadUncommitted,
        ProtocolKind::TwoPhaseLocking => IsolationLevel::Serializable,
    }
}

/// Deterministic workload key names whose masters stripe round-robin
/// across clusters: key `i`'s master lives in cluster `i % clusters`
/// (found by probing candidate names against the layout's placement
/// hash — a pure function of the layout, no rng). Adjacent workload
/// pairs therefore always straddle an inter-cluster cut, which is what
/// keeps the split-brain availability split sharp: a 2PL write must
/// lock a master on each side of the cut, so zero writes commit inside
/// the window, while the HAT engines keep committing against whatever
/// replicas they can reach.
pub fn workload_keys(layout: &hat_core::ClusterLayout, n: usize) -> Vec<String> {
    let clusters = layout.servers.len().max(1);
    (0..n)
        .map(|i| {
            let want = i % clusters;
            (0..10_000)
                .map(|c| format!("nk{i}-{c}"))
                .find(|k| layout.master_cluster(&Key::from(k.clone())) == want)
                .expect("some candidate key masters in the wanted cluster")
        })
        .collect()
}

/// Monotonic run counter: every run gets a private durable-store
/// directory even when tests run concurrently in one process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(protocol: ProtocolKind, seed: u64) -> PathBuf {
    let n = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hat-nemesis-{}-{protocol:?}-{seed}-{n}",
        std::process::id()
    ))
}

/// Runs `protocol` through `nemesis` and returns the report. The
/// deployment is always durable (WAL-backed stores), so crash faults
/// have a log to tear and restarts have one to replay.
pub fn run(protocol: ProtocolKind, nemesis: &dyn Nemesis, opts: &NemesisOpts) -> NemesisReport {
    let dir = fresh_dir(protocol, opts.seed);
    let report = run_in(protocol, nemesis, opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn run_in(
    protocol: ProtocolKind,
    nemesis: &dyn Nemesis,
    opts: &NemesisOpts,
    dir: &Path,
) -> NemesisReport {
    let mut cfg = SystemConfig::new(protocol);
    // Fast failure detection: an unreachable replica should cost an
    // unavailability data point, not half the horizon. Both bounds stay
    // an order of magnitude above the (scaled) WAN round trip.
    cfg.op_deadline = SimDuration::from_millis(40);
    cfg.lock_timeout = SimDuration::from_millis(25);
    // Always trace: the sink is rng-neutral (same-seed runs stay
    // bit-identical), and a conformance failure can then dump the
    // fault-annotated timeline around the violating transaction.
    cfg.trace = true;
    // Always observe: the live registry, the per-window time series
    // with fault marks, the t-visibility probes and the streaming
    // checker are equally rng-neutral, so telemetry is free to leave on.
    cfg.obs.enabled = true;
    let mut front = DeploymentBuilder::new(protocol)
        .seed(opts.seed)
        .clusters(ClusterSpec::va_or(opts.servers_per_cluster))
        .sessions_per_cluster(2)
        .config(cfg)
        .latency(LatencyModel {
            wan_scale: 0.1,
            ..LatencyModel::default()
        })
        .durable(dir.to_path_buf(), SyncPolicy::Always)
        .build();
    let sessions: Vec<Session> = (0..4)
        .map(|_| front.open_session(SessionOptions::default()))
        .collect();

    let keys = workload_keys(front.layout(), opts.keys);
    let schedule = nemesis.schedule(front.layout(), opts.horizon);
    let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
    let mut spiked = false;
    let mut next = 0usize;
    let (mut committed, mut unavailable, mut aborted) = (0u64, 0u64, 0u64);
    let end = SimTime::ZERO + opts.horizon;
    let mut round = 0usize;
    while front.now() < end {
        while next < schedule.len() && schedule[next].0 <= front.now() {
            apply(&mut front, &schedule[next].1, &mut crashed, &mut spiked);
            next += 1;
        }
        workload_round(
            &mut front,
            &sessions,
            round,
            &keys,
            &mut committed,
            &mut unavailable,
            &mut aborted,
        );
        round += 1;
        front.run_for(opts.tick);
    }
    // Fire anything left (typically the restarts paired with the last
    // crashes), then heal: revive stragglers, restore latency, let every
    // bounded partition expire, and give anti-entropy + bootstrap
    // recovery time to settle.
    for (_, fault) in &schedule[next..] {
        if let Fault::Restart { node } = fault {
            if crashed.remove(node) {
                front
                    .obs_sink()
                    .fault_end(front.now().as_micros(), &format!("crash node {node}"));
                front.restart_server(*node);
            }
        }
    }
    for node in std::mem::take(&mut crashed) {
        front
            .obs_sink()
            .fault_end(front.now().as_micros(), &format!("crash node {node}"));
        front.restart_server(node);
    }
    if std::mem::take(&mut spiked) {
        // The horizon cut mid-spike: close the mark so the exported
        // series keeps every bounded fault paired.
        front
            .obs_sink()
            .fault_end(front.now().as_micros(), "latency spike");
    }
    front.engine_mut().set_latency_factor(1.0);
    let max_cut = schedule
        .iter()
        .filter_map(|(t, f)| match f {
            Fault::Partition { duration, .. } => Some(*t + *duration),
            _ => None,
        })
        .max()
        .unwrap_or(SimTime::ZERO);
    if max_cut > front.now() {
        front.run_for(max_cut.since(front.now()));
    }
    front.quiesce();
    front.quiesce();

    let records = front.take_records();
    let level = advertised_level(protocol);
    let report = check(records.clone(), level);
    if !report.violations.is_empty() {
        dump_violation_traces(
            &front,
            &report.violations,
            &records,
            protocol,
            nemesis,
            opts,
        );
    }
    let stats = front.server_stats();
    let series = front.obs_series().unwrap_or_default();
    let registry = front.obs_registry().unwrap_or_default();
    let staleness = front.obs_sink().staleness();
    let stream_violations = front.obs_sink().violations();
    NemesisReport {
        protocol,
        schedule: nemesis.name(),
        seed: opts.seed,
        committed,
        unavailable,
        aborted,
        level,
        violations: report.violations.len(),
        msgs_dropped_by_partition: stats.msgs_dropped_by_partition,
        crashes: stats.crashes,
        wal_records_replayed: stats.wal_records_replayed,
        wal_torn_bytes_cut: stats.wal_torn_bytes_cut,
        converged: converged(&front),
        commit_latency: front.aggregate_metrics().commit_percentiles(),
        series,
        registry,
        staleness,
        stream_violations,
        records,
    }
}

/// On a conformance failure, prints the fault-annotated trace timeline
/// around each violating transaction (capped at three) so the report is
/// debuggable without a re-run: which partitions/crashes were open, what
/// the client retried, and which messages were dropped.
fn dump_violation_traces(
    front: &SimFrontend,
    violations: &[hat_history::Violation],
    records: &[TxnRecord],
    protocol: ProtocolKind,
    nemesis: &dyn Nemesis,
    opts: &NemesisOpts,
) {
    let events = front.trace_events();
    for v in violations.iter().take(3) {
        eprintln!(
            "[schedule={} seed={:#x}] {protocol:?}: {v}",
            nemesis.name(),
            opts.seed
        );
        if let Some(rec) = v
            .txns
            .iter()
            .find_map(|t| records.iter().find(|r| r.id == *t))
        {
            let txn = TxnId::new(rec.session, rec.session_seq);
            eprint!("{}", format_txn_window(&events, txn, 50_000));
        }
    }
}

fn apply(
    front: &mut SimFrontend,
    fault: &Fault,
    crashed: &mut BTreeSet<NodeId>,
    spiked: &mut bool,
) {
    let now = front.now();
    let trace = front.trace_sink().clone();
    // Fault marks mirror the trace records into the telemetry series.
    // Begin/end pairs must share one label (the series validator pairs
    // by label), so restart closes with the *crash* label and latency
    // transitions share a constant one; clock skew and handoffs are
    // instantaneous and stay begin-only.
    let obs = front.obs_sink().clone();
    match fault {
        Fault::Partition {
            a,
            b,
            duration,
            one_way,
        } => {
            let desc = format!(
                "partition {a:?}{}{b:?}",
                if *one_way { " -/-> " } else { " <-/-> " }
            );
            let reporter = a.first().copied().unwrap_or(0);
            trace.record(
                now.as_micros(),
                reporter,
                TraceEventKind::FaultBegin { desc: desc.clone() },
            );
            // Bounded faults know their end now; stamping the close
            // event at its future time keeps the sorted timeline honest.
            trace.record(
                (now + *duration).as_micros(),
                reporter,
                TraceEventKind::FaultEnd { desc: desc.clone() },
            );
            obs.fault_begin(now.as_micros(), &desc);
            obs.fault_end((now + *duration).as_micros(), &desc);
            let p = if *one_way {
                Partition::one_way(now, now + *duration, a.iter().copied(), b.iter().copied())
            } else {
                Partition::new(now, now + *duration, a.iter().copied(), b.iter().copied())
            };
            front.engine_mut().partitions_mut().add(p);
        }
        Fault::SkewClock { node, offset_us } => {
            trace.record(
                now.as_micros(),
                *node,
                TraceEventKind::FaultBegin {
                    desc: format!("clock skew {offset_us}us on node {node}"),
                },
            );
            obs.fault_begin(
                now.as_micros(),
                &format!("clock skew {offset_us}us on node {node}"),
            );
            front.engine_mut().set_clock_offset(*node, *offset_us);
        }
        Fault::LatencyScale { factor } => {
            let kind = if *factor > 1.0 {
                TraceEventKind::FaultBegin {
                    desc: format!("latency x{factor}"),
                }
            } else {
                TraceEventKind::FaultEnd {
                    desc: format!("latency x{factor}"),
                }
            };
            trace.record(now.as_micros(), 0, kind);
            if *factor > 1.0 {
                obs.fault_begin(now.as_micros(), "latency spike");
                *spiked = true;
            } else {
                obs.fault_end(now.as_micros(), "latency spike");
                *spiked = false;
            }
            front.engine_mut().set_latency_factor(*factor)
        }
        Fault::Crash { node, torn_tail } => {
            if crashed.insert(*node) {
                trace.record(
                    now.as_micros(),
                    *node,
                    TraceEventKind::FaultBegin {
                        desc: format!("crash node {node} (torn tail {torn_tail}B)"),
                    },
                );
                obs.fault_begin(now.as_micros(), &format!("crash node {node}"));
                front.crash_server(*node);
                if *torn_tail > 0 {
                    front.tear_wal_tail(*node, *torn_tail);
                }
            }
        }
        Fault::Restart { node } => {
            if crashed.remove(node) {
                trace.record(
                    now.as_micros(),
                    *node,
                    TraceEventKind::FaultEnd {
                        desc: format!("restart node {node}"),
                    },
                );
                obs.fault_end(now.as_micros(), &format!("crash node {node}"));
                front.restart_server(*node);
            }
        }
        Fault::ShardHandoff { token, to_position } => {
            trace.record(
                now.as_micros(),
                0,
                TraceEventKind::FaultBegin {
                    desc: format!("handoff token {token} -> position {to_position}"),
                },
            );
            obs.fault_begin(
                now.as_micros(),
                &format!("handoff token {token} -> position {to_position}"),
            );
            front.begin_handoff(*token, *to_position);
        }
    }
}

/// One closed-loop round: every session runs a read-modify-write over a
/// rotating key pair, then a one-shot `get_many` of the same pair (the
/// atomic-visibility probe — fractured reads show up here).
#[allow(clippy::too_many_arguments)]
fn workload_round(
    front: &mut SimFrontend,
    sessions: &[Session],
    round: usize,
    keys: &[String],
    committed: &mut u64,
    unavailable: &mut u64,
    aborted: &mut u64,
) {
    let obs = front.obs_sink().clone();
    for (ci, s) in sessions.iter().enumerate() {
        let a = keys[(round + ci) % keys.len()].clone();
        let b = keys[(round + ci + 1) % keys.len()].clone();
        let w = front.try_txn(s, |t| {
            let _ = t.get(&a)?;
            t.put(&a, &format!("r{round}c{ci}a"))?;
            t.put(&b, &format!("r{round}c{ci}b"))
        });
        tally(w.map(|_| ()), &obs, committed, unavailable, aborted);
        let r = front.try_txn(s, |t| {
            let _ = t.get_many(&[&a, &b])?;
            Ok(())
        });
        tally(r, &obs, committed, unavailable, aborted);
    }
}

/// Folds one transaction outcome into the run totals. Unavailability
/// is not a client-side counter (the client only sees an error), so
/// the tally also feeds it to the telemetry registry, where the series
/// sampler picks it up per window.
fn tally(
    outcome: Result<(), HatError>,
    obs: &ObsSink,
    committed: &mut u64,
    unavailable: &mut u64,
    aborted: &mut u64,
) {
    match outcome {
        Ok(()) => *committed += 1,
        Err(HatError::Unavailable { .. }) => {
            *unavailable += 1;
            obs.counter_add("hat_txn_unavailable_total", &[], 1);
        }
        Err(_) => *aborted += 1,
    }
}

/// Post-heal replica agreement. Replication groups are positional
/// (server `i` of each cluster owns the same key partition), so the
/// fingerprint — per-key newest `(stamp, value)` — must match across
/// clusters at each position. Public so crash-restart end-to-end tests
/// can assert it on deployments they drive themselves.
pub fn converged(front: &SimFrontend) -> bool {
    let layout = front.layout();
    let positions = layout.servers.iter().map(|c| c.len()).max().unwrap_or(0);
    for pos in 0..positions {
        let mut group: Vec<BTreeMap<Key, (VersionStamp, Vec<u8>)>> = Vec::new();
        for cluster in &layout.servers {
            let Some(&id) = cluster.get(pos) else {
                continue;
            };
            let Some(srv) = front.engine().actor(id).as_server() else {
                continue;
            };
            let mut newest: BTreeMap<Key, (VersionStamp, Vec<u8>)> = BTreeMap::new();
            for (key, record) in srv.store().all_versions() {
                let entry = (record.stamp, record.value.to_vec());
                match newest.get(&key) {
                    Some((stamp, _)) if *stamp >= record.stamp => {}
                    _ => {
                        newest.insert(key, entry);
                    }
                }
            }
            group.push(newest);
        }
        if group.windows(2).any(|w| w[0] != w[1]) {
            if std::env::var_os("NEMESIS_DEBUG").is_some() {
                for (i, g) in group.iter().enumerate() {
                    for (k, (s, _)) in g {
                        eprintln!(
                            "pos{pos} replica{i} {:?} -> {s:?}",
                            String::from_utf8_lossy(k)
                        );
                    }
                }
            }
            return false;
        }
    }
    true
}
