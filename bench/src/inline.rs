//! The inline harness: the deployment's own nodes driven by one
//! benchmark-owned loop, no threads, no channels, no `hat-sim` engine.
//!
//! `DeploymentBuilder::build_parts` yields the nodes; the loop delivers
//! messages and timers in (virtual time, sequence) order through
//! `Node::on_start / on_message / on_timer` with `Ctx::detached`, and —
//! when spans are on — wraps every call in a span: name = node kind +
//! `Msg::label`, wall-clock start and end, parent = the span whose
//! output produced the message or timer, transaction = the `next_txn`
//! ordinal of the client that rooted the chain (server timers root
//! their own background trees). Messages and `approx_bytes` are counted
//! at the same boundary. Handler calls do not nest, so a span's self
//! time is its duration.
//!
//! Virtual time moves only by what the nodes ask for (`send_after`
//! holds, timer delays) plus a fixed per-link hop, so at one seed the
//! order of calls, and every count, repeats exactly. This is the
//! single-threaded ceiling the threaded numbers are compared with.

use crate::gen;
use crate::rt;
use crate::source::{Phases, StampedSource};
use crate::workload::{Backend, Workload};
use hat_core::{DeploymentBuilder, Msg, Node, ProtocolKind, SystemConfig, TxnRecord};
use hat_sim::{Actor, Ctx, LatencyModel, NodeId, SimDuration, SimTime, TimerId, Topology};
use hat_storage::SyncPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::time::Instant;

/// Virtual one-way hop between two nodes of a threaded workload's
/// deployment, in µs. The threaded run injects no delay; a channel hop
/// there costs 15–30 µs of wall clock, and giving the inline clock the
/// same order of magnitude makes the servers' 10 ms anti-entropy timer
/// fire about once per hundred transactions, as it does under threads.
const THREADED_HOP_US: u64 = 20;

/// No parent: the span was rooted by `on_start`.
pub const NO_PARENT: u32 = u32::MAX;
/// Transaction id of background work (server timers and what they send).
pub const BACKGROUND: u64 = u64::MAX;

/// One handler call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`InlineRun::names`].
    pub name: u16,
    pub parent: u32,
    /// `client << 32 | next_txn ordinal`, or [`BACKGROUND`].
    pub txn: u64,
    /// Nanoseconds since the run started.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// When the loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Every client has exhausted its inputs.
    InputsDone,
    /// Virtual time passes this horizon.
    Virtual(SimDuration),
}

/// What a run is given.
pub struct InlineOpts<'a> {
    pub config: SystemConfig,
    pub spans: bool,
    pub until: Until,
    pub seed: u64,
    /// Mixed transactions generated per client.
    pub per_client: usize,
    /// Keys written once each before measuring.
    pub preload: u64,
    /// `SyncPolicy::Always` stores under this directory.
    pub wal_dir: Option<&'a Path>,
}

/// What a run produced. Everything is counted from the moment the last
/// client finished its preload share (the start, if there is none).
pub struct InlineRun {
    /// Wall-clock nanoseconds of the measured part of the loop.
    pub wall_ns: u64,
    pub committed: u64,
    pub failed: u64,
    /// Point reads and scans / writes in the transactions handed out.
    pub reads: u64,
    pub writes: u64,
    /// `ClientMetrics` counters, summed over clients.
    pub msg_rounds: u64,
    pub repair_rounds: u64,
    pub metadata_bytes: u64,
    /// Messages sent and their `approx_bytes`.
    pub msgs: u64,
    pub msg_bytes: u64,
    /// Handler calls made (the exact count of measured spans).
    pub calls: u64,
    /// `(is_server, label)` per span name.
    pub names: Vec<(bool, &'static str)>,
    /// Every span of the run, empty unless spans were on; the measured
    /// ones start at `first_measured_span`.
    pub spans: Vec<Span>,
    pub first_measured_span: usize,
    /// Histories, if the configuration records them.
    pub records: Vec<TxnRecord>,
    /// Replication records shipped by the servers.
    pub repl_records: u64,
}

/// The client counters a run reports, summed over the client nodes.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    committed: u64,
    failed: u64,
    msg_rounds: u64,
    repair_rounds: u64,
    metadata_bytes: u64,
}

impl Counters {
    fn of(nodes: &[Node]) -> Counters {
        let mut c = Counters::default();
        for m in nodes
            .iter()
            .filter_map(|n| n.as_client())
            .map(|cl| &cl.metrics)
        {
            c.committed += m.committed;
            c.failed += m.aborted_external + m.aborted_internal;
            c.msg_rounds += m.msg_rounds;
            c.repair_rounds += m.repair_rounds;
            c.metadata_bytes += m.metadata_bytes;
        }
        c
    }
}

enum Due {
    Start,
    Deliver { from: NodeId, msg: Msg },
    Timer(TimerId),
}

struct Item {
    at: u64,
    seq: u64,
    to: NodeId,
    due: Due,
    parent: u32,
    txn: u64,
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One-way virtual hop in µs for every ordered pair of nodes.
fn hop_table(wl: &Workload, topology: &Topology) -> Vec<Vec<u64>> {
    let model = LatencyModel::default();
    let n = topology.len();
    let mut table = vec![vec![0u64; n]; n];
    for (a, site_a) in topology.iter() {
        for (b, site_b) in topology.iter() {
            if a == b {
                continue;
            }
            table[a as usize][b as usize] = match wl.backend {
                Backend::Threaded => THREADED_HOP_US,
                // The simulator samples a log-normal around this mean;
                // the inline clock takes the mean itself.
                Backend::Sim => {
                    (model.mean_rtt_ms(LatencyModel::classify(site_a, site_b)) * 500.0) as u64
                }
            };
        }
    }
    table
}

/// Runs `kind` on the workload's deployment.
pub fn run(wl: &Workload, kind: ProtocolKind, opts: InlineOpts<'_>) -> InlineRun {
    let phases = Phases::new(wl.clients, None);
    // As on the threaded backend: a durable deployment meets its
    // preloaded keys in its log, any other gets them from its clients.
    let client_preload = if opts.wal_dir.is_some() {
        0
    } else {
        opts.preload
    };
    let drivers = (0..wl.clients)
        .map(|c| {
            let preload = gen::preload_inputs(opts.seed, c, wl.clients, client_preload);
            let mixed = gen::client_inputs(opts.seed, c, wl.mix, opts.per_client);
            StampedSource::boxed(c, preload, mixed, &phases)
        })
        .collect();
    let mut builder = DeploymentBuilder::new(kind)
        .seed(opts.seed)
        .clusters(wl.spec())
        .config(opts.config)
        .drivers(drivers);
    if let Some(dir) = opts.wal_dir {
        rt::preload_durable(dir, opts.seed, opts.preload);
        builder = builder.durable(dir, SyncPolicy::Always);
    }
    let (_, topology, mut nodes, layout, _, _, _) = builder.build_parts();
    let hops = hop_table(wl, &topology);
    let client_index: Vec<Option<u64>> = (0..nodes.len() as NodeId)
        .map(|id| {
            layout
                .clients
                .iter()
                .position(|&c| c == id)
                .map(|i| i as u64)
        })
        .collect();
    let horizon = match opts.until {
        Until::InputsDone => u64::MAX,
        Until::Virtual(d) => d.as_micros(),
    };

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut names: Vec<(bool, &'static str)> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let (mut msgs, mut msg_bytes, mut calls) = (0u64, 0u64, 0u64);
    // Set when the last client finishes its preload share.
    let mut measuring: Option<(Instant, Counters, usize)> = None;

    // `on_start` for every node, in id order, at time 0.
    let mut queue: BinaryHeap<Reverse<Item>> = (0..nodes.len() as NodeId)
        .map(|to| {
            Reverse(Item {
                at: 0,
                seq: to as u64,
                to,
                due: Due::Start,
                parent: NO_PARENT,
                txn: BACKGROUND,
            })
        })
        .collect();
    let mut seq = nodes.len() as u64;
    let started = Instant::now();
    while phases.stopped() < wl.clients {
        if measuring.is_none() && phases.loaded_at().is_some() {
            measuring = Some((Instant::now(), Counters::of(&nodes), spans.len()));
            (msgs, msg_bytes, calls) = (0, 0, 0);
        }
        let item = match queue.pop() {
            Some(Reverse(item)) if item.at <= horizon => item,
            _ => break,
        };
        let Item {
            at,
            to,
            due,
            parent,
            txn,
            ..
        } = item;
        let node = &mut nodes[to as usize];
        let is_server = node.as_server().is_some();
        // A client's call belongs to the transaction it is running when
        // the call begins; what it sends belongs to the one it is
        // running when the call ends.
        let client = client_index[to as usize];
        let txn_before = match client {
            Some(c) => c << 32 | phases.handed(c as usize),
            None => txn,
        };
        let label = match &due {
            Due::Start => "start",
            Due::Deliver { msg, .. } => msg.label(),
            Due::Timer(_) => "timer",
        };
        let mut ctx = Ctx::detached(to, SimTime(at), &mut rng);
        let t0 = opts.spans.then(|| started.elapsed().as_nanos() as u64);
        match due {
            Due::Start => node.on_start(&mut ctx),
            Due::Deliver { from, msg } => node.on_message(&mut ctx, from, msg),
            Due::Timer(tag) => node.on_timer(&mut ctx, tag),
        }
        let (sends, timers) = ctx.into_outputs();
        calls += 1;
        let this = match t0 {
            Some(start_ns) => {
                let end_ns = started.elapsed().as_nanos() as u64;
                let name = match names.iter().position(|n| *n == (is_server, label)) {
                    Some(i) => i,
                    None => {
                        names.push((is_server, label));
                        names.len() - 1
                    }
                };
                spans.push(Span {
                    name: name as u16,
                    parent,
                    txn: txn_before,
                    start_ns,
                    end_ns,
                });
                (spans.len() - 1) as u32
            }
            None => NO_PARENT,
        };
        let txn_after = match client {
            Some(c) => c << 32 | phases.handed(c as usize),
            None => txn,
        };
        for (hold, dest, msg) in sends {
            msgs += 1;
            msg_bytes += msg.approx_bytes();
            seq += 1;
            queue.push(Reverse(Item {
                at: at + hold.as_micros() + hops[to as usize][dest as usize],
                seq,
                to: dest,
                due: Due::Deliver { from: to, msg },
                parent: this,
                txn: txn_after,
            }));
        }
        for (delay, tag) in timers {
            seq += 1;
            queue.push(Reverse(Item {
                at: at + delay.as_micros(),
                seq,
                to,
                due: Due::Timer(tag),
                parent: this,
                txn: txn_after,
            }));
        }
    }
    let (measure_start, base, first_measured_span) =
        measuring.expect("the loop ran past the preload");
    let wall_ns = measure_start.elapsed().as_nanos() as u64;

    let end = Counters::of(&nodes);
    let mut records = Vec::new();
    let mut repl_records = 0;
    for node in &mut nodes {
        match node {
            Node::Client(c) => records.extend(c.take_records()),
            Node::Server(s) => repl_records += s.stats.replication_records,
        }
    }
    records.sort_by_key(|r| (r.session, r.session_seq));
    drop(nodes);
    let logs = phases.take_logs();
    let mixed_handed: u64 = logs.iter().map(|l| l.handed - l.preload as u64).sum();
    let writes: u64 = logs.iter().map(|l| l.writes).sum();
    InlineRun {
        wall_ns,
        committed: end.committed - base.committed,
        failed: end.failed - base.failed,
        reads: mixed_handed * gen::OPS_PER_TXN as u64 - writes,
        writes,
        msg_rounds: end.msg_rounds - base.msg_rounds,
        repair_rounds: end.repair_rounds - base.repair_rounds,
        metadata_bytes: end.metadata_bytes - base.metadata_bytes,
        msgs,
        msg_bytes,
        calls,
        names,
        spans,
        first_measured_span,
        records,
        repl_records,
    }
}
