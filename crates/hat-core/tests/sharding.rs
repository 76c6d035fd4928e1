//! Deployment-validation and shard-routing regression tests.
//!
//! * A spec the layout cannot route over (no clusters, a zero-server
//!   cluster, unequal cluster sizes, no session slots) must surface as
//!   a typed [`HatError::InvalidDeployment`] from `try_build`, not as a
//!   routing panic on the first key touched.
//! * A sticky client whose home cluster has lost every replica must
//!   surface [`HatError::Unavailable`] *naming the key* it could not
//!   reach, so the operator sees which item was unreachable instead of
//!   a bare timeout.

use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, HatError, ProtocolKind, SessionLevel, SessionOptions,
};

fn build_err(spec: ClusterSpec, sessions: usize) -> HatError {
    DeploymentBuilder::new(ProtocolKind::Eventual)
        .seed(7)
        .clusters(spec)
        .sessions_per_cluster(sessions)
        .try_build()
        .map(|_| ())
        .expect_err("spec must be rejected")
}

#[test]
fn zero_server_cluster_is_a_typed_error() {
    let err = build_err(ClusterSpec::single_dc(2, 0), 1);
    match err {
        HatError::InvalidDeployment { ref reason } => {
            assert!(reason.contains("zero-server"), "reason: {reason}")
        }
        other => panic!("expected InvalidDeployment, got {other}"),
    }
    // The error is a config bug, not a liveness result: it must not
    // count against the availability ledger in experiments.
    assert!(!err.violates_availability());
}

#[test]
fn empty_spec_is_a_typed_error() {
    let spec = ClusterSpec { clusters: vec![] };
    assert!(matches!(
        build_err(spec, 1),
        HatError::InvalidDeployment { .. }
    ));
}

#[test]
fn unequal_cluster_sizes_are_a_typed_error() {
    // Positional anti-entropy peering pairs replicas by index, so the
    // shard ring is only shared between equal-sized clusters.
    let mut spec = ClusterSpec::single_dc(2, 2);
    spec.clusters[1].1 = 3;
    match build_err(spec, 1) {
        HatError::InvalidDeployment { reason } => {
            assert!(reason.contains("equal-sized"), "reason: {reason}")
        }
        other => panic!("expected InvalidDeployment, got {other}"),
    }
}

#[test]
fn zero_session_slots_are_a_typed_error() {
    assert!(matches!(
        build_err(ClusterSpec::single_dc(2, 2), 0),
        HatError::InvalidDeployment { .. }
    ));
}

/// A sticky session pins every request to its (derived) home cluster;
/// when that cluster has crashed every replica, the operation must time
/// out with an [`HatError::Unavailable`] that names the key — and a
/// non-sticky session on the same deployment stays available through
/// the surviving cluster (§5.1.3: stickiness is what the client trades
/// for the session guarantees).
#[test]
fn dead_home_sticky_client_surfaces_unavailable_with_key() {
    let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
        .seed(21)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .build();
    let sticky = front.open_session(SessionOptions {
        level: SessionLevel::None,
        sticky: true,
    });
    let roaming = front.open_session(SessionOptions {
        level: SessionLevel::None,
        sticky: false,
    });

    // Seed a value while both clusters are alive.
    front.txn(&sticky, |t| t.put("shard-k", "v0"));
    front.quiesce();

    // Kill every server in the sticky session's home cluster. Homes are
    // derived round-robin, so session 0's home is cluster 0.
    for server in front.layout().servers[0].clone() {
        front.crash_server(server, 0);
    }

    let err = front
        .try_txn(&sticky, |t| t.get("shard-k"))
        .expect_err("sticky read against a dead home cluster must fail");
    match err {
        HatError::Unavailable { key: Some(ref k) } => {
            assert_eq!(k, "shard-k", "the error must name the unreachable key")
        }
        other => panic!("expected Unavailable naming the key, got {other}"),
    }
    assert!(err.violates_availability());

    // The non-sticky session reads the same key through the surviving
    // cluster.
    let v = front.txn(&roaming, |t| t.get("shard-k"));
    assert_eq!(v.as_deref(), Some("v0"));
}
