//! TPC-C-lite on HATs (§6.2): run the five transactions against a
//! geo-replicated MAV deployment and audit the consistency conditions.
//! The workload is written against the backend-agnostic `Frontend`, so
//! the same runner drives the simulator here and the threaded runtime at
//! the end.
//!
//! Run: `cargo run --release --example tpcc_demo`

use hatdb::core::{ClusterSpec, DeploymentBuilder, ProtocolKind, SessionLevel, SessionOptions};
use hatdb::workloads::tpcc::{check_consistency, TpccConfig, TpccRunner};
use hatdb::{BuildThreaded, Frontend, RuntimeConfig, Session};

fn session_options() -> SessionOptions {
    SessionOptions {
        level: SessionLevel::Monotonic,
        sticky: true,
    }
}

fn tpcc_config() -> TpccConfig {
    TpccConfig {
        warehouses: 1,
        districts: 2,
        customers: 5,
        items: 40,
        initial_stock: 25,
        ..TpccConfig::default()
    }
}

/// The whole demo, generic over the execution backend.
fn run_mix<F: Frontend>(front: &mut F, client: &Session, rounds: u32) {
    let mut runner = TpccRunner::new(tpcc_config(), 1);

    println!("  loading warehouse...");
    runner.load(front, client).unwrap();

    println!("  running the transaction mix...");
    for i in 0..rounds {
        let lines = [(i % 40, 3), ((i * 7 + 1) % 40, 2)];
        let res = runner
            .new_order(front, client, 0, i % 2, i % 5, &lines)
            .unwrap();
        assert!(
            res.stock_after.iter().all(|&q| q >= 0),
            "the restock rule keeps stock non-negative"
        );
        runner
            .payment(front, client, 0, i % 2, i % 5, 500 + u64::from(i))
            .unwrap();
        if i % 5 == 4 {
            front.quiesce();
            if let Some(oid) = runner.delivery(front, client, 0, i % 2, i).unwrap() {
                println!("  delivered order {oid}");
            }
        }
    }
    front.quiesce();

    let (oid, order, lines) = runner
        .order_status(front, client, 0, 0)
        .unwrap()
        .expect("orders exist");
    println!(
        "  order-status: latest order {oid} by customer {} with {} line(s): {lines:?}",
        order.c_id, order.line_count
    );

    let low = runner.stock_level(front, client, 0, 15).unwrap();
    println!("  stock-level: {low} item(s) below threshold 15");

    let report = check_consistency(front, client, &runner.config).unwrap();
    println!("  consistency audit: {report:?}");
    assert!(report.all_ok(), "healthy network, single session: clean");
}

fn main() {
    println!("simulated backend (geo-replicated, WAN latency model):");
    let mut sim = DeploymentBuilder::new(ProtocolKind::Mav)
        .seed(2026)
        .clusters(ClusterSpec::va_or(3))
        .sessions_per_cluster(1)
        .build();
    let client = sim.open_session(session_options());
    run_mix(&mut sim, &client, 25);
    assert_eq!(sim.required_misses(), 0);

    println!();
    println!("threaded backend (same workload, real threads + channels):");
    let mut rt = DeploymentBuilder::new(ProtocolKind::Mav)
        .seed(2026)
        .clusters(ClusterSpec::single_dc(2, 2))
        .sessions_per_cluster(1)
        .build_threaded(RuntimeConfig::default());
    let client = rt.open_session(session_options());
    run_mix(&mut rt, &client, 10);
    rt.shutdown();

    println!();
    println!(
        "TPC-C conditions hold under MAV on both backends (see `hat-experiments tpcc` for partition anomalies)"
    );
}
