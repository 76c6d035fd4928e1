//! §5.2 impossibility results, demonstrated end-to-end and verified with
//! the Adya checker:
//!
//! * Lost Update happens under partitions on every HAT protocol and the
//!   history checker finds it (so Snapshot Isolation is unachievable).
//! * Write Skew likewise (so Repeatable Read / 1SR are unachievable).
//! * Read-your-writes fails for non-sticky clients (so RYW/PRAM/causal
//!   require stickiness).
//! * master (recency) and 2PL (serializability) simply block.
//!
//! Run: `cargo run -p hat-bench --release --bin exp_impossibility`

use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, HatError, ProtocolKind, SessionLevel, SessionOptions,
};
use hat_history::{check, Model};
use hat_sim::{Partition, PartitionSchedule, SimDuration, SimTime};

fn split_sides(protocol: ProtocolKind, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let probe = DeploymentBuilder::new(protocol)
        .seed(seed)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .build();
    let a = probe.layout().servers[0]
        .iter()
        .copied()
        .chain([probe.client(0)])
        .collect();
    let b = probe.layout().servers[1]
        .iter()
        .copied()
        .chain([probe.client(1)])
        .collect();
    (a, b)
}

fn partitioned_sim(protocol: ProtocolKind, seed: u64) -> hat_core::SimFrontend {
    let (a, b) = split_sides(protocol, seed);
    DeploymentBuilder::new(protocol)
        .seed(seed)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .partitions(PartitionSchedule::from_partitions(vec![Partition::new(
            SimTime::from_secs(5),
            SimTime::from_secs(60),
            a,
            b,
        )]))
        .build()
}

fn lost_update(protocol: ProtocolKind) {
    let mut sim = partitioned_sim(protocol, 11);
    let s0 = sim.open_session(SessionOptions::default());
    let s1 = sim.open_session(SessionOptions::default());
    sim.txn(&s0, |t| t.put("x", "100"));
    sim.quiesce();
    sim.run_for(SimDuration::from_secs(4)); // now inside the partition
    sim.txn(&s0, |t| {
        let v: u64 = t.get("x")?.unwrap().parse().unwrap();
        t.put("x", &(v + 20).to_string())
    });
    sim.txn(&s1, |t| {
        let v: u64 = t.get("x")?.unwrap().parse().unwrap();
        t.put("x", &(v + 30).to_string())
    });
    sim.run_for(SimDuration::from_secs(60));
    sim.quiesce();
    let final_v = sim.txn(&s0, |t| t.get("x")).unwrap();
    let report = check(sim.take_records(), Model::SnapshotIsolation);
    println!(
        "{:10} lost update: final x={} (serial would be 150); SI check: {} violation(s)",
        protocol.label(),
        final_v,
        report.violations.len()
    );
}

fn write_skew(protocol: ProtocolKind) {
    let mut sim = partitioned_sim(protocol, 12);
    let s0 = sim.open_session(SessionOptions::default());
    let s1 = sim.open_session(SessionOptions::default());
    sim.txn(&s0, |t| {
        t.put("x", "0")?;
        t.put("y", "0")
    });
    sim.quiesce();
    sim.run_for(SimDuration::from_secs(4));
    // constraint: at most one of x,y may be 1
    sim.txn(&s0, |t| {
        if t.get("y")?.as_deref() == Some("0") {
            t.put("x", "1")?;
        }
        Ok(())
    });
    sim.txn(&s1, |t| {
        if t.get("x")?.as_deref() == Some("0") {
            t.put("y", "1")?;
        }
        Ok(())
    });
    sim.run_for(SimDuration::from_secs(60));
    sim.quiesce();
    let (x, y) = sim.txn(&s0, |t| Ok((t.get("x")?, t.get("y")?)));
    let report = check(sim.take_records(), Model::RepeatableRead);
    println!(
        "{:10} write skew: x={:?} y={:?} (constraint: not both 1); RR check: {} violation(s)",
        protocol.label(),
        x,
        y,
        report.violations.len()
    );
}

fn ryw_without_stickiness() {
    let mut violations = 0;
    let mut attempts = 0;
    for seed in 0..20 {
        // server-only partition: the client can reach both clusters but
        // the clusters cannot replicate to each other — the §5.1.3
        // scenario where "the client can only execute T2 on a different
        // replica that is partitioned from the replica that executed T1".
        let probe = DeploymentBuilder::new(ProtocolKind::Eventual)
            .seed(100 + seed)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .build();
        let a: Vec<u32> = probe.layout().servers[0].clone();
        let b: Vec<u32> = probe.layout().servers[1].clone();
        drop(probe);
        let mut sim = DeploymentBuilder::new(ProtocolKind::Eventual)
            .seed(100 + seed)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .partitions(PartitionSchedule::from_partitions(vec![
                Partition::forever(SimTime::ZERO, a, b),
            ]))
            .build();
        let c = sim.open_session(SessionOptions {
            level: SessionLevel::None,
            sticky: false,
        });
        for i in 0..10 {
            let k = format!("w{i}");
            // non-sticky ops can themselves time out hunting for a
            // reachable cluster; only a completed write+read pair counts
            if sim.try_txn(&c, |t| t.put(&k, "mine")).is_err() {
                continue;
            }
            let Ok(read) = sim.try_txn(&c, |t| t.get(&k)) else {
                continue;
            };
            attempts += 1;
            if read.is_none() {
                violations += 1;
            }
        }
    }
    println!(
        "non-sticky RYW: {violations}/{attempts} reads missed the session's own write under partition"
    );
    println!("sticky RYW:     0 violations by construction (home replica holds the write)");
}

fn unavailable_protocols_block() {
    for protocol in [ProtocolKind::Master, ProtocolKind::TwoPhaseLocking] {
        let (a, b) = split_sides(protocol, 31);
        let mut sim = DeploymentBuilder::new(protocol)
            .seed(31)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .partitions(PartitionSchedule::from_partitions(vec![
                Partition::forever(SimTime::ZERO, a, b),
            ]))
            .build();
        let s0 = sim.open_session(SessionOptions::default());
        // find a key mastered on the far side
        let key = (0..200)
            .map(|i| format!("k{i}"))
            .find(|k| {
                let key = hat_storage::Key::from(k.clone());
                sim.layout().cluster_of(sim.layout().master(&key)) == Some(1)
            })
            .unwrap();
        let res = sim.try_txn(&s0, |t| t.put(&key, "v"));
        let verdict = match res {
            Err(HatError::Unavailable { .. }) => "unavailable (blocked)",
            Err(HatError::ExternalAbort { .. }) => "external abort (lock timeout)",
            Err(HatError::InternalAbort { .. }) => "internal abort?",
            Err(HatError::InvalidDeployment { .. }) => "invalid deployment?!",
            Ok(_) => "committed?!",
        };
        println!("{:10} under partition: {verdict}", protocol.label());
    }
}

fn main() {
    println!("== §5.2 impossibility results ==");
    for protocol in [
        ProtocolKind::Eventual,
        ProtocolKind::ReadCommitted,
        ProtocolKind::Mav,
    ] {
        lost_update(protocol);
    }
    println!();
    for protocol in [ProtocolKind::ReadCommitted, ProtocolKind::Mav] {
        write_skew(protocol);
    }
    println!();
    ryw_without_stickiness();
    println!();
    unavailable_protocols_block();
    println!();
    println!("# paper: preventing Lost Update / Write Skew / recency bounds");
    println!("# requires unavailability; RYW requires stickiness.");
}
