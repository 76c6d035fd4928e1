//! Live-telemetry tour: run a deployment with the metrics registry,
//! the time-sliced sampler and the online consistency probes enabled,
//! then print the Prometheus exposition, the per-window series JSON,
//! and the probe verdicts.
//!
//! Run: `cargo run --release --example live_metrics [series.json]`
//!
//! Like the tracing example, this also asserts the zero-cost-when-off
//! contract: a second, untelemetered deployment runs the same workload
//! and the telemetry counter must not move (it counts this thread's
//! recordings, and the simulator runs on it).

use hatdb::core::{ClusterSpec, DeploymentBuilder, ProtocolKind, SessionOptions, SystemConfig};
use hatdb::obs::obs_recorded_total;
use hatdb::sim::SimDuration;
use hatdb::Frontend;

fn build(obs: bool) -> hatdb::SimFrontend {
    let mut cfg = SystemConfig::new(ProtocolKind::Mav);
    cfg.obs.enabled = obs;
    DeploymentBuilder::new(ProtocolKind::Mav)
        .seed(0x0011_FEED)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .config(cfg)
        .build()
}

fn workload(front: &mut hatdb::SimFrontend) -> usize {
    let va = front.open_session(SessionOptions::default());
    let or = front.open_session(SessionOptions::default());
    for round in 0..20 {
        let v = format!("balance-{round}");
        front.txn(&va, |t| {
            t.put("acct:alice", &v)?;
            t.put("acct:bob", &v)
        });
        front.txn(&or, |t| {
            let _ = t.get_many(&["acct:alice", "acct:bob"])?;
            Ok(())
        });
        front.run_for(SimDuration::from_millis(5));
    }
    front.quiesce();
    front.take_records().len()
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "series.json".to_string());

    // --- Telemetered run ------------------------------------------------
    let mut front = build(true);
    let committed = workload(&mut front);

    let reg = front.obs_registry().expect("telemetry enabled");
    println!("=== Prometheus exposition (client + server + probes) ===");
    print!("{}", reg.prometheus());

    let series = front.obs_series().expect("telemetry enabled");
    println!("=== time-sliced series ===");
    println!(
        "{} windows over {} committed txns",
        series.points.len(),
        committed
    );
    let windowed: u64 = series.points.iter().map(|p| p.committed).sum();
    assert_eq!(windowed, committed as u64, "every commit lands in a window");

    if let Some(p) = front.obs_sink().staleness() {
        println!(
            "t-visibility staleness: n={} p50={:.2}ms p99={:.2}ms max={:.2}ms",
            p.count, p.p50, p.p99, p.max
        );
    }
    let violations = front.obs_sink().violations();
    println!("streaming-checker violations: {violations}");
    assert_eq!(violations, 0, "healthy run must not trip the checker");

    std::fs::write(&out, series.to_json()).expect("write series JSON");
    println!("series written to {out}");

    // --- Untelemetered run: the sink must be a true no-op ---------------
    let before = obs_recorded_total();
    let mut plain = build(false);
    workload(&mut plain);
    let after = obs_recorded_total();
    assert_eq!(
        before, after,
        "disabled telemetry recorded events ({before} -> {after})"
    );
    assert!(plain.obs_series().is_none());
    println!("untelemetered run recorded 0 telemetry events (counter {before} -> {after})");
}
