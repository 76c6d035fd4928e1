//! Quickstart: build a geo-replicated MAV deployment, open a session per
//! region, run transactions, observe atomic multi-key visibility.
//!
//! Run: `cargo run --release --example quickstart`

use hatdb::core::{ClusterSpec, DeploymentBuilder, ProtocolKind, SessionOptions};
use hatdb::sim::Region;
use hatdb::Frontend;

fn main() {
    // Two fully replicated clusters: Virginia and Oregon, three servers
    // each, with EC2-calibrated WAN latency between them.
    let mut front = DeploymentBuilder::new(ProtocolKind::Mav)
        .seed(42)
        .clusters(ClusterSpec::regions(&[Region::Virginia, Region::Oregon], 3))
        .sessions_per_cluster(1)
        .build();

    // Sessions claim slots round-robin over clusters; each carries its
    // own options (both sticky defaults here).
    let va_session = front.open_session(SessionOptions::default()); // Virginia
    let or_session = front.open_session(SessionOptions::default()); // Oregon

    // A multi-key transaction from Virginia.
    front.txn(&va_session, |t| {
        t.put("profile:alice", "brewer-fan-42")?;
        t.put("followers:alice", "1")
    });
    println!("[{}] alice's profile committed in Virginia", front.now());

    // Let anti-entropy carry the writes across the WAN.
    front.quiesce();

    // Read both keys from Oregon: under Monotonic Atomic View, either
    // both writes are visible or neither — never a torn pair.
    let (profile, followers) = front.txn(&or_session, |t| {
        Ok((t.get("profile:alice")?, t.get("followers:alice")?))
    });
    println!(
        "[{}] Oregon reads profile={profile:?} followers={followers:?}",
        front.now()
    );
    assert_eq!(profile.as_deref(), Some("brewer-fan-42"));
    assert_eq!(followers.as_deref(), Some("1"));

    // Predicate read (P-CI substrate): everything under a prefix.
    front.txn(&va_session, |t| t.put("profile:bob", "new-here"));
    front.quiesce();
    let profiles = front.txn(&or_session, |t| t.scan("profile:"));
    println!("[{}] all profiles: {profiles:?}", front.now());
    assert_eq!(profiles.len(), 2);

    // The MAV invariant held everywhere: no read ever needed a fallback.
    assert_eq!(front.required_misses(), 0);
    println!("done: MAV served every read within its required bound");
}
