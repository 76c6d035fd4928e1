//! Read Atomic head-to-head: MAV against RAMP-Fast and RAMP-Small.
//!
//! The paper implements atomic visibility with MAV's sibling notifications
//! (server→server fan-in on every write); RAMP moves the work to readers,
//! who repair fractured reads from per-write metadata. The first axis
//! compares the three engines' coordination cost — client message rounds
//! per committed transaction, metadata bytes per transaction, second-round
//! repairs — alongside throughput and latency, on read-heavy, balanced and
//! write-heavy YCSB mixes over Virginia + Oregon.
//!
//! * RAMP-F reads are one round unless a fracture is detected; its
//!   metadata scales with the write set, but it sends no notifications.
//! * RAMP-S always pays two read rounds, but for a whole transaction's
//!   reads at once, and its second-round requests carry every stamp the
//!   first round learnt, so its bytes per transaction grow with the reads.
//! * MAV keeps client rounds low but pays |write set| × |clusters| sibling
//!   notifications server-side; they do not appear in client rounds.
//!
//! The second axis grows the same deployment from 1 to 16 shards per
//! cluster, clients growing with it. `vs first` is throughput relative to
//! the engine's own 1-shard run: RAMP-F's coordination rides on messages the
//! transaction already sends, while MAV's notifications fan out to every
//! server holding a sibling key, so a flatter curve means hardware spent
//! on coordination rather than commits.

use crate::report::Outcome;
use crate::runner::Sweep;
use hat_core::{ClusterSpec, ProtocolKind};
use hat_sim::SimDuration;

use ProtocolKind::{Mav, RampFast, RampSmall};

/// MAV, RAMP-F and RAMP-S over read-heavy (90% reads), balanced and
/// write-heavy (10% reads) mixes, then RAMP-F and MAV over 1–16 shards per
/// cluster.
pub fn ramp(smoke: bool) -> Outcome {
    let by_mix = Sweep::run(
        "reads",
        &[0.9, 0.5, 0.1],
        &[Mav, RampFast, RampSmall],
        smoke,
        |cfg, reads| {
            cfg.spec = ClusterSpec::va_or(2);
            cfg.clients = if smoke { 8 } else { 64 };
            cfg.ycsb.read_proportion = reads;
            cfg.seed = 0x7A3F ^ reads.to_bits();
            if smoke {
                cfg.ycsb.num_keys = 200;
                cfg.ycsb.value_size = 32;
                cfg.duration = SimDuration::from_millis(250);
            }
        },
    );
    let by_shards = Sweep::run(
        "shards",
        &[1, 2, 4, 8, 16],
        &[RampFast, Mav],
        smoke,
        |cfg, n| {
            cfg.spec = ClusterSpec::va_or(n);
            cfg.clients = if smoke { 4 * n } else { 8 * n };
            cfg.ycsb.read_proportion = 0.5;
            cfg.seed = 0x5AAD ^ n as u64;
            if smoke {
                cfg.ycsb.num_keys = 400;
                cfg.ycsb.value_size = 32;
                cfg.duration = SimDuration::from_millis(250);
            }
        },
    );
    let mut out = Outcome::from(vec![
        by_mix.table("Read Atomic engines by share of reads (VA + OR, 2 shards per cluster)"),
        by_shards.table("shard scaling (VA + OR, 50% reads, clients growing with shards)"),
    ]);
    let mixes = || by_mix.results.iter().flatten();
    let fewest = |runs: &mut dyn Iterator<Item = u64>| runs.min().unwrap_or(0) as f64;
    let commits = fewest(
        &mut mixes()
            .chain(by_shards.results.iter().flatten())
            .map(|r| r.committed),
    );
    out.gated("RAMP: fewest commits of any engine at any mix or shard count")
        .at_least(commits, 1.0);
    let rounds = fewest(&mut mixes().map(|r| r.msg_rounds));
    out.gated("RAMP: fewest client message rounds of any engine at any mix")
        .at_least(rounds, 1.0);
    for (engine, what) in [(RampFast, "write-set"), (RampSmall, "timestamp")] {
        let bytes = fewest(
            &mut mixes()
                .filter(|r| r.protocol == engine)
                .map(|r| r.metadata_bytes),
        );
        out.gated(format!(
            "RAMP: fewest {what} metadata bytes {} moves at any mix",
            engine.label()
        ))
        .at_least(bytes, 1.0);
    }
    out
}
