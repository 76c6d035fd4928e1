//! Tier-1 nemesis conformance: every protocol engine, through every
//! adversarial schedule, at fixed seeds.
//!
//! For each `(engine, schedule)` pair the runner injects the schedule's
//! faults while a closed-loop workload keeps committing, heals the
//! deployment, and then asserts the three HAT claims: the advertised
//! isolation level held through the faults, every replica group
//! converged, and each crash-restart provably served WAL-recovered
//! state. Every assertion message carries the schedule name and the
//! seed, so a failure is replayable verbatim.

use hat_core::{ProtocolKind, ReadMode};
use hat_nemesis::{run, standard_catalog, CrashRestart, NemesisOpts, Rolling};
use hat_sim::SimDuration;

const SEED: u64 = 0xBAD_CAFE;

/// The canonical schedules (split-brain, rolling partition, flapping
/// link, crash-restart with torn WAL, the composed storm, and live
/// handoffs) — shared with `exp_nemesis` via [`standard_catalog`].
/// Every one of them must leave a mark on every engine: dropped
/// messages, crashes or completed handoffs.
fn schedules() -> Vec<Box<dyn hat_nemesis::Nemesis>> {
    standard_catalog()
}

#[test]
fn all_engines_hold_their_advertised_level_under_every_schedule() {
    for protocol in ProtocolKind::ALL {
        for nemesis in &schedules() {
            let opts = NemesisOpts {
                seed: SEED,
                ..NemesisOpts::default()
            };
            let r = run(protocol, nemesis.as_ref(), &opts);
            assert!(
                r.msgs_dropped_by_partition
                    + r.crashes
                    + r.registry.counter_total("hat_server_shard_handoffs_total")
                    > 0,
                "[schedule={} seed={:#x}] {protocol:?}: the schedule's faults never took hold",
                r.schedule,
                r.seed
            );
            assert!(
                r.committed > 0,
                "[schedule={} seed={:#x}] {protocol:?}: no transaction committed",
                r.schedule,
                r.seed
            );
            assert_eq!(
                r.violations, 0,
                "[schedule={} seed={:#x}] {protocol:?} violated {:?} \
                 (committed={} unavailable={} aborted={})",
                r.schedule, r.seed, r.level, r.committed, r.unavailable, r.aborted
            );
            assert!(
                r.converged,
                "[schedule={} seed={:#x}] {protocol:?}: replicas diverged after heal",
                r.schedule, r.seed
            );
            if r.crashes > 0 {
                assert!(
                    r.wal_records_replayed > 0,
                    "[schedule={} seed={:#x}] {protocol:?}: {} crashes but no WAL \
                     records replayed — restarts served empty stores",
                    r.schedule,
                    r.seed,
                    r.crashes
                );
            }
        }
    }
}

/// Determinism: the whole adversarial pipeline — faults, workload,
/// recovery — replays bit-identically from the seed. `NemesisReport`
/// includes the full recorded history, so this is equality of every
/// operation of every transaction, not just summary counters.
#[test]
fn same_seed_nemesis_runs_are_bit_identical() {
    let all = schedules();
    let combined = all
        .iter()
        .find(|n| n.name().contains('+'))
        .expect("catalog has the composed schedule");
    for protocol in ProtocolKind::ALL {
        let opts = NemesisOpts {
            seed: 0x5EED_0001,
            ..NemesisOpts::default()
        };
        let a = run(protocol, combined.as_ref(), &opts);
        let b = run(protocol, combined.as_ref(), &opts);
        assert_eq!(
            a,
            b,
            "[schedule={} seed={:#x}] {protocol:?}: same-seed runs diverged",
            combined.name(),
            opts.seed
        );
    }
}

/// The fault counters are live: rolling partitions actually drop
/// messages, crash schedules actually crash and replay.
#[test]
fn fault_ledgers_record_real_damage() {
    let opts = NemesisOpts {
        seed: SEED,
        ..NemesisOpts::default()
    };
    let rolling = run(
        ProtocolKind::Eventual,
        &Rolling {
            period: SimDuration::from_millis(80),
            outage: SimDuration::from_millis(40),
        },
        &opts,
    );
    assert!(
        rolling.msgs_dropped_by_partition > 0,
        "[schedule={} seed={:#x}] partitions dropped nothing",
        rolling.schedule,
        rolling.seed
    );
    let crashes = run(
        ProtocolKind::Eventual,
        &CrashRestart {
            period: SimDuration::from_millis(140),
            downtime: SimDuration::from_millis(50),
            torn_tail: 48,
        },
        &opts,
    );
    assert!(
        crashes.crashes >= 2,
        "[schedule={} seed={:#x}] expected repeated crashes, got {}",
        crashes.schedule,
        crashes.seed,
        crashes.crashes
    );
    assert!(
        crashes.wal_records_replayed > 0,
        "[schedule={} seed={:#x}] no WAL replay despite {} crashes",
        crashes.schedule,
        crashes.seed,
        crashes.crashes
    );
    // The torn tail lands where replay looks, not past the log's
    // pre-written zeros: recovery had something to cut.
    assert!(
        crashes.wal_torn_bytes_cut > 0,
        "[schedule={} seed={:#x}] {} torn-tail crashes but recovery cut nothing",
        crashes.schedule,
        crashes.seed,
        crashes.crashes
    );
}

/// Partitions cost the strong engines availability (the paper's central
/// trade-off) while the HAT engines keep committing. We assert the
/// availability of every engine whose Table 3 class is not unavailable
/// rather than the strong engines' unavailability — the latter depends
/// on which side of each cut the workload lands — but every engine must
/// keep its guarantee either way.
#[test]
fn hat_engines_stay_available_through_rolling_partitions() {
    let opts = NemesisOpts {
        seed: SEED,
        ..NemesisOpts::default()
    };
    let nemesis = Rolling {
        period: SimDuration::from_millis(80),
        outage: SimDuration::from_millis(40),
    };
    let hat_engines = ProtocolKind::ALL
        .into_iter()
        .filter(|p| p.model(ReadMode::Batched).hat_achievable());
    for protocol in hat_engines {
        let r = run(protocol, &nemesis, &opts);
        assert!(
            r.committed > r.unavailable,
            "[schedule={} seed={:#x}] {protocol:?} mostly unavailable: \
             committed={} unavailable={}",
            r.schedule,
            r.seed,
            r.committed,
            r.unavailable
        );
    }
}
