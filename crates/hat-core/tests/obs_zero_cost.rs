//! Zero-cost-when-off audit: the [`hat_obs::obs_recorded_total`]
//! counter must not move across an entire untelemetered deployment run.
//! The counter is per thread and the simulator runs on the test's own
//! thread, so obs-enabled tests running beside it cannot disturb it.
//! Mirrors hat-trace's `events_recorded_total` audit.

use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, SessionOptions, SystemConfig,
};
use hat_sim::SimDuration;

#[test]
fn disabled_telemetry_records_nothing_at_all() {
    let before = hat_obs::obs_recorded_total();
    let cfg = SystemConfig::new(ProtocolKind::Mav);
    assert!(!cfg.obs.enabled, "telemetry must default off");
    let mut front = DeploymentBuilder::new(ProtocolKind::Mav)
        .seed(0x0FF)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .config(cfg)
        .build();
    let s = front.open_session(SessionOptions::default());
    for round in 0..10 {
        front.txn(&s, |t| {
            let _ = t.get("zc:a")?;
            t.put("zc:a", &format!("r{round}"))?;
            t.put("zc:b", &format!("r{round}"))
        });
        front.run_for(SimDuration::from_millis(5));
    }
    front.quiesce();
    assert!(!front.take_records().is_empty());
    assert!(front.obs_series().is_none());
    assert_eq!(
        hat_obs::obs_recorded_total(),
        before,
        "an obs-off run recorded telemetry"
    );
}
