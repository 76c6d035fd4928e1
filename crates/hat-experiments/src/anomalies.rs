//! The paper's executable arguments: the §5.2 impossibility results and
//! the §6.2 TPC-C audit, each run on a Virginia + Oregon deployment whose
//! clusters a partition cuts apart. Each scenario is one claim, whose
//! statement also prints what the scenario observed.

use crate::report::Outcome;
use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, HatError, ProtocolKind, Session, SessionLevel,
    SessionOptions, SimFrontend, TxnCtx,
};
use hat_history::{check, Model};
use hat_sim::{Partition, PartitionSchedule, SimDuration, SimTime};
use hat_storage::Key;
use hat_workloads::tpcc::{check_consistency, IdPolicy, TpccConfig, TpccRunner};

use ProtocolKind::{Eventual, Master, Mav, ReadCommitted, TwoPhaseLocking};

fn deployment(protocol: ProtocolKind, seed: u64, servers: usize) -> DeploymentBuilder {
    DeploymentBuilder::new(protocol)
        .seed(seed)
        .clusters(ClusterSpec::va_or(servers))
        .sessions_per_cluster(1)
}

/// A deployment whose two clusters `cut` partitions apart. Each side is a
/// cluster's servers plus, with `clients`, the session client homed there.
fn partitioned(
    protocol: ProtocolKind,
    seed: u64,
    servers: usize,
    clients: bool,
    cut: fn(Vec<u32>, Vec<u32>) -> Partition,
) -> SimFrontend {
    let probe = deployment(protocol, seed, servers).build();
    let side = |c: usize| {
        let mut nodes = probe.layout().servers[c].clone();
        nodes.extend(clients.then(|| probe.client(c)));
        nodes
    };
    let partition = cut(side(0), side(1));
    drop(probe);
    deployment(protocol, seed, servers)
        .partitions(PartitionSchedule::from_partitions(vec![partition]))
        .build()
}

/// Cut from 5 s to 60 s: long enough to load and converge first.
fn from_5s(a: Vec<u32>, b: Vec<u32>) -> Partition {
    Partition::new(SimTime::from_secs(5), SimTime::from_secs(60), a, b)
}

fn forever(a: Vec<u32>, b: Vec<u32>) -> Partition {
    Partition::forever(SimTime::ZERO, a, b)
}

/// Writes `init` and converges, then, once the partition is up, runs
/// `step(t, side)` in a session on each side; heals and converges again.
/// Returns the deployment and side 0's session.
fn split_brain(
    protocol: ProtocolKind,
    seed: u64,
    init: &[(&str, &str)],
    step: impl Fn(&mut TxnCtx<'_>, usize) -> Result<(), HatError>,
) -> (SimFrontend, Session) {
    let mut sim = partitioned(protocol, seed, 2, true, from_5s);
    let sessions = [(); 2].map(|_| sim.open_session(SessionOptions::default()));
    sim.txn(&sessions[0], |t| {
        init.iter().try_for_each(|(k, v)| t.put(k, v))
    });
    sim.quiesce();
    sim.run_for(SimDuration::from_secs(4)); // now inside the partition
    for (side, s) in sessions.iter().enumerate() {
        sim.txn(s, |t| step(t, side));
    }
    sim.run_for(SimDuration::from_secs(60));
    sim.quiesce();
    let [s0, _] = sessions;
    (sim, s0)
}

/// §5.2: Lost Update and Write Skew happen under partition on every HAT
/// engine, and the history checker finds them (so Snapshot Isolation and
/// Repeatable Read are unavailable); read-your-writes fails for clients
/// that are not sticky; master and 2PL block.
pub fn impossibility(_smoke: bool) -> Outcome {
    let mut out = Outcome::default();
    for protocol in [Eventual, ReadCommitted, Mav] {
        let (mut sim, s0) = split_brain(protocol, 11, &[("x", "100")], |t, side| {
            let x: u64 = t
                .get("x")?
                .expect("x was written")
                .parse()
                .expect("x is a number");
            t.put("x", &(x + [20, 30][side]).to_string())
        });
        let x = sim.txn(&s0, |t| t.get("x")).expect("x was written");
        let found = check(sim.take_records(), Model::SnapshotIsolation)
            .violations
            .len();
        let label = protocol.label();
        out.gated(format!(
            "§5.2 {label:8} lost update: final x={x} (serial would be 150); SI violations"
        ))
        .at_least(found as f64, 1.0);
    }
    for protocol in [ReadCommitted, Mav] {
        // constraint: at most one of x, y may be 1
        let (mut sim, s0) = split_brain(protocol, 12, &[("x", "0"), ("y", "0")], |t, side| {
            let (read, write) = [("y", "x"), ("x", "y")][side];
            if t.get(read)?.as_deref() == Some("0") {
                t.put(write, "1")?;
            }
            Ok(())
        });
        let (x, y) = sim.txn(&s0, |t| Ok((t.get("x")?, t.get("y")?)));
        let found = check(sim.take_records(), Model::RepeatableRead)
            .violations
            .len();
        let label = protocol.label();
        out.gated(format!(
            "§5.2 {label:8} write skew: x={x:?} y={y:?} (not both 1); RR violations"
        ))
        .at_least(found as f64, 1.0);
    }

    // Servers-only partition: the client reaches both clusters but they
    // cannot replicate to each other, §5.1.3's "the client can only
    // execute T2 on a different replica that is partitioned from the
    // replica that executed T1".
    let (mut missed, mut attempts) = (0, 0);
    for seed in 100..120 {
        let mut sim = partitioned(Eventual, seed, 2, false, forever);
        let c = sim.open_session(SessionOptions {
            level: SessionLevel::None,
            sticky: false,
        });
        for i in 0..10 {
            let k = format!("w{i}");
            // non-sticky operations can time out hunting for a reachable
            // cluster; only a completed write + read pair counts
            if sim.try_txn(&c, |t| t.put(&k, "mine")).is_err() {
                continue;
            }
            let Ok(read) = sim.try_txn(&c, |t| t.get(&k)) else {
                continue;
            };
            attempts += 1;
            missed += usize::from(read.is_none());
        }
    }
    out.gated(format!(
        "§5.2 non-sticky RYW: reads of {attempts} that missed the session's own write under \
         partition (sticky RYW: 0 violations by construction)"
    ))
    .at_least(missed as f64, 1.0);

    for protocol in [Master, TwoPhaseLocking] {
        let mut sim = partitioned(protocol, 31, 2, true, forever);
        let s0 = sim.open_session(SessionOptions::default());
        let far = |k: &String| {
            sim.layout()
                .cluster_of(sim.layout().master(&Key::from(k.clone())))
        };
        let key = (0..200)
            .map(|i| format!("k{i}"))
            .find(|k| far(k) == Some(1))
            .expect("some key is mastered on the far side");
        let (verdict, blocked) = match sim.try_txn(&s0, |t| t.put(&key, "v")) {
            Err(HatError::Unavailable { .. }) => ("unavailable (blocked)", true),
            Err(HatError::ExternalAbort { .. }) => ("external abort (lock timeout)", true),
            Err(HatError::InternalAbort { .. }) => ("internal abort?", false),
            Err(HatError::InvalidDeployment { .. }) => ("invalid deployment?!", false),
            Ok(_) => ("committed?!", false),
        };
        out.gated(format!(
            "§5.2 {:8} under partition: {verdict}",
            protocol.label()
        ))
        .is_true(blocked);
    }
    out
}

fn monotonic() -> SessionOptions {
    SessionOptions {
        level: SessionLevel::Monotonic,
        sticky: true,
    }
}

/// Loads warehouse 0 through one session, converges, waits `wait`, then
/// places three orders in district 0 from each of two sessions. Returns
/// the order ids and the loading session.
fn orders_from_two_sessions(
    sim: &mut SimFrontend,
    cfg: TpccConfig,
    wait: Option<SimDuration>,
) -> (Vec<String>, Session) {
    let sessions = [(); 2].map(|_| sim.open_session(monotonic()));
    let mut runners = [1, 2].map(|id| TpccRunner::new(cfg, id));
    runners[0].load(sim, &sessions[0]).unwrap();
    sim.quiesce();
    if let Some(wait) = wait {
        sim.run_for(wait);
    }
    let mut placed = Vec::new();
    for i in 0..3 {
        for (c, (r, s)) in (0..).zip(runners.iter_mut().zip(&sessions)) {
            let order = r.new_order(sim, s, 0, 0, c, &[(i + 3 * c, 1)]);
            placed.push(order.unwrap().o_id);
        }
    }
    let [s0, _] = sessions;
    (placed, s0)
}

/// §6.2: TPC-C under HAT semantics. Payment, Order-Status and Stock-Level
/// run unchanged and New-Order keeps stock non-negative, but New-Order's
/// sequential order ids and Delivery's delete need coordination.
pub fn tpcc(_smoke: bool) -> Outcome {
    let mut out = Outcome::default();
    for protocol in [Eventual, ReadCommitted, Mav] {
        let mut sim = deployment(protocol, 42, 3).build();
        let client = sim.open_session(monotonic());
        let cfg = TpccConfig {
            items: 50,
            initial_stock: 20,
            ..TpccConfig::default()
        };
        let mut runner = TpccRunner::new(cfg, 1);
        runner.load(&mut sim, &client).unwrap();
        for i in 0..20u32 {
            let (d, c) = (i % 2, i % 5);
            let items = [(i % 50, 3), ((i + 7) % 50, 2)];
            runner
                .new_order(&mut sim, &client, 0, d, c, &items)
                .unwrap();
            runner
                .payment(&mut sim, &client, 0, d, c, 100 + u64::from(i))
                .unwrap();
            if i % 4 == 0 {
                sim.quiesce();
                runner.delivery(&mut sim, &client, 0, d, 1 + i).unwrap();
            }
        }
        sim.quiesce();
        let r = check_consistency(&mut sim, &client, &runner.config).unwrap();
        out.gated(format!("§6.2 {:8} healthy: {r:?}", protocol.label()))
            .is_true(r.all_ok());
    }

    // Sequential ids under partition: the district counter suffers Lost
    // Update, so both sides assign the same order id, and last-writer-wins
    // keeps one of each colliding pair.
    let mut sim = partitioned(ReadCommitted, 7, 3, true, from_5s);
    let cfg = TpccConfig {
        id_policy: IdPolicy::Sequential,
        ..TpccConfig::default()
    };
    let (placed, c0) = orders_from_two_sessions(&mut sim, cfg, Some(SimDuration::from_secs(4)));
    sim.run_for(SimDuration::from_secs(60));
    sim.quiesce();
    // The audit's reads come before the scan in this run's fixed schedule.
    check_consistency(&mut sim, &c0, &cfg).unwrap();
    let surviving = sim.txn(&c0, |t| Ok(t.scan("o/0000/00/")?.len()));
    let distinct = placed
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len();
    out.gated(format!(
        "§6.2 RC + partition, sequential ids: placed={} distinct_ids={distinct} \
         surviving_orders={surviving}; orders lost (paper: HATs cannot assign sequential ids)",
        placed.len()
    ))
    .at_least((placed.len() - surviving) as f64, 1.0);

    let mut sim = deployment(ReadCommitted, 8, 3)
        .sessions_per_cluster(2)
        .build();
    let cfg = TpccConfig::default();
    let (_, d0) = orders_from_two_sessions(&mut sim, cfg, None);
    sim.quiesce();
    let dups = check_consistency(&mut sim, &d0, &cfg)
        .unwrap()
        .duplicate_order_ids;
    out.gated("§6.2 RC, unique (timestamp) ids: duplicates (uniqueness is HAT-achievable)")
        .at_most(dups as f64, 0.0);

    // Delivery on both sides of a partition bills the same order twice.
    let mut sim = partitioned(ReadCommitted, 9, 3, true, from_5s);
    let c0 = sim.open_session(monotonic());
    let c1 = sim.open_session(monotonic());
    let mut r0 = TpccRunner::new(TpccConfig::default(), 1);
    let mut r1 = TpccRunner::new(TpccConfig::default(), 2);
    r0.load(&mut sim, &c0).unwrap();
    r0.new_order(&mut sim, &c0, 0, 0, 0, &[(1, 1)]).unwrap();
    sim.quiesce(); // the order is visible on both sides before the cut
    sim.run_for(SimDuration::from_secs(4));
    let a = r0.delivery(&mut sim, &c0, 0, 0, 100).unwrap();
    let b = r1.delivery(&mut sim, &c1, 0, 0, 200).unwrap();
    out.gated(format!(
        "§6.2 RC + partition, Delivery: side A delivered {a:?}, side B delivered {b:?}; same order \
         billed twice (paper: needs compensation)"
    ))
    .is_true(a.is_some() && a == b);
    out
}
