//! Bank audit: why Monotonic Atomic View matters (§5.1.2) — maintaining
//! a multi-key invariant (an account and its audit trail must move
//! together), and why Lost Update cannot be prevented (§5.2.1).
//!
//! Run: `cargo run --release --example bank_audit`

use hatdb::core::{ClusterSpec, DeploymentBuilder, HatError, ProtocolKind, SessionOptions};
use hatdb::history::{check, Model};
use hatdb::sim::{Partition, PartitionSchedule, SimDuration, SimTime};
use hatdb::Frontend;

fn atomic_audit_trail() {
    println!("-- MAV keeps account + audit trail consistent --");
    let mut front = DeploymentBuilder::new(ProtocolKind::Mav)
        .seed(7)
        .clusters(ClusterSpec::va_or(3))
        .sessions_per_cluster(1)
        .build();
    let teller = front.open_session(SessionOptions::default());
    let auditor = front.open_session(SessionOptions::default());

    front.txn(&teller, |t| {
        t.put("acct:alice", "1000")?;
        t.put("audit:alice", "0 deposits")
    });
    front.quiesce();

    for round in 1..=5u32 {
        front.txn(&teller, |t| {
            let bal: u64 = t.get("acct:alice")?.unwrap().parse().unwrap();
            t.put("acct:alice", &(bal + 100).to_string())?;
            t.put("audit:alice", &format!("{round} deposits"))
        });
        // The auditor reads at arbitrary times; under MAV the pair is
        // never torn: if the audit trail shows N deposits, the balance
        // reflects at least N deposits.
        let (audit, balance) = front.txn(&auditor, |t| {
            // read audit first, then balance: MAV's required vector
            // forces the balance to be at least as new
            Ok((t.get("audit:alice")?, t.get("acct:alice")?))
        });
        println!("  auditor sees audit={audit:?} balance={balance:?}");
        front.run_for(SimDuration::from_millis(23));
    }
    assert_eq!(front.mav_required_misses(), 0);
}

fn lost_update_is_unpreventable() {
    println!("-- but no HAT system prevents Lost Update (§5.2.1) --");
    let probe = DeploymentBuilder::new(ProtocolKind::Mav)
        .seed(8)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .build();
    let side_a: Vec<u32> = probe.layout().servers[0]
        .iter()
        .copied()
        .chain([probe.client(0)])
        .collect();
    let side_b: Vec<u32> = probe.layout().servers[1]
        .iter()
        .copied()
        .chain([probe.client(1)])
        .collect();
    drop(probe);
    let mut front = DeploymentBuilder::new(ProtocolKind::Mav)
        .seed(8)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .partitions(PartitionSchedule::from_partitions(vec![Partition::new(
            SimTime::from_secs(3),
            SimTime::from_secs(30),
            side_a,
            side_b,
        )]))
        .build();
    let teller_va = front.open_session(SessionOptions::default());
    let teller_or = front.open_session(SessionOptions::default());
    front.txn(&teller_va, |t| t.put("acct:bob", "100"));
    front.quiesce();
    front.run_for(SimDuration::from_secs(2)); // partition begins at t=3s

    // both tellers credit bob concurrently
    front.txn(&teller_va, |t| {
        let v: u64 = t.get("acct:bob")?.unwrap().parse().unwrap();
        t.put("acct:bob", &(v + 20).to_string())
    });
    front.txn(&teller_or, |t| {
        let v: u64 = t.get("acct:bob")?.unwrap().parse().unwrap();
        t.put("acct:bob", &(v + 30).to_string())
    });
    front.run_for(SimDuration::from_secs(30));
    front.quiesce();
    let final_bal = front.txn(&teller_va, |t| t.get("acct:bob")).unwrap();
    println!("  serial balance would be 150; converged balance = {final_bal}");
    let report = check(front.take_records(), Model::SnapshotIsolation);
    println!(
        "  Adya checker (SI level): {} Lost Update violation(s) detected",
        report.violations.len()
    );
    assert!(!report.ok());
}

fn coordination_has_a_price() {
    println!("-- preventing it requires unavailable coordination (2PL) --");
    let mut front = DeploymentBuilder::new(ProtocolKind::TwoPhaseLocking)
        .seed(9)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(2)
        .build();
    let tellers: Vec<_> = (0..4)
        .map(|_| front.open_session(SessionOptions::default()))
        .collect();
    front.txn(&tellers[0], |t| t.put("acct:carol", "0"));
    let t0 = front.now();
    for s in &tellers {
        front.txn(s, |t| {
            let v: u64 = t.get("acct:carol")?.unwrap().parse().unwrap();
            t.put("acct:carol", &(v + 25).to_string())
        });
    }
    let elapsed = front.now() - t0;
    let v = front.txn(&tellers[0], |t| t.get("acct:carol"));
    println!(
        "  2PL: all 4 credits preserved (balance={}), but {} of cross-DC locking",
        v.unwrap(),
        elapsed
    );
    // ... and under a partition 2PL simply blocks (see `hat-experiments impossibility`)
    let _ = HatError::Unavailable { key: None };
}

fn main() {
    atomic_audit_trail();
    println!();
    lost_update_is_unpreventable();
    println!();
    coordination_has_a_price();
}
