//! The correctness pass: a short recorded run per (workload, engine)
//! before anything is timed. A failure is returned as `Err` and the
//! caller exits non-zero without printing a result.

use crate::plan::Plan;
use crate::rt::{self, RunOpts, Stop};
use crate::sim;
use crate::workload::{Backend, Workload};
use hat_core::{OpRecord, ProtocolKind, TxnRecord};
use hat_sim::SimDuration;
use hat_storage::{DurableStore, Store, SyncPolicy};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// What the pass hands on to the traced run.
pub struct Checked {
    /// Wall-clock nanoseconds `hat_history::check` took per recorded
    /// transaction (`history.check_ns_per_txn`).
    pub check_ns_per_txn: f64,
}

/// FNV-1a over the `Debug` rendering of a history: every stamp, key,
/// value and outcome takes part.
pub fn records_hash(records: &[TxnRecord]) -> u64 {
    let mut text = String::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        text.clear();
        write!(text, "{r:?}").expect("write to string");
        for &b in text.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// `hat_history::check` at the level the engine advertises.
pub fn check_history(kind: ProtocolKind, records: Vec<TxnRecord>) -> Result<(), String> {
    let level = hat_nemesis::advertised_level(kind);
    let report = hat_history::check(records, level);
    if report.ok() {
        Ok(())
    } else {
        Err(format!("history violates {level:?}: {report}"))
    }
}

/// Grace the servers get after the last client stops (three
/// anti-entropy ticks) before their logs are judged.
const SETTLE: Duration = Duration::from_millis(30);

/// Simulated length of the recorded simulator episodes.
const SIM_CHECK: SimDuration = SimDuration(1_000_000);

pub fn check_engine(
    wl: &Workload,
    label: &str,
    kind: ProtocolKind,
    plan: &Plan,
    scratch: &Path,
) -> Result<Checked, String> {
    let seed = plan.seed;
    let fail = |why: String| format!("{} / {label}: {why}", wl.name);
    let records = match wl.backend {
        Backend::Threaded => {
            let dir = wl.durable.then(|| scratch.join(format!("check-{label}")));
            let opts = RunOpts {
                stop: Stop::Txns(plan.scaled(wl.check_txns)),
                record_history: true,
                preload: 0,
                wal_dir: dir.as_deref(),
                settle: SETTLE,
            };
            let mut run = rt::run_threaded(wl, kind, seed, opts);
            let m = &run.metrics;
            let failed = m.aborted_external + m.aborted_internal;
            if run.attempted != m.committed + failed {
                return Err(fail(format!(
                    "attempted {} != committed {} + failed {failed}",
                    run.attempted, m.committed
                )));
            }
            if failed != 0 {
                return Err(fail(format!(
                    "{failed} of {} transactions failed",
                    run.attempted
                )));
            }
            if let Some(dir) = &dir {
                // Close the servers' stores before reopening their logs.
                run.nodes.clear();
                let res = acknowledged_writes_survive(&dir.join("server-0"), &run.records);
                let _ = std::fs::remove_dir_all(dir);
                res.map_err(&fail)?;
            }
            run.records
        }
        Backend::Sim => {
            let inputs = sim::inputs(wl, seed, sim::inputs_for(SIM_CHECK));
            let a = sim::episode(wl, kind, seed, inputs.clone(), SIM_CHECK, true);
            let b = sim::episode(wl, kind, seed, inputs, SIM_CHECK, true);
            if a.metrics.committed == 0 {
                return Err(fail("no transaction committed".into()));
            }
            if a.metrics.committed != b.metrics.committed
                || records_hash(&a.records) != records_hash(&b.records)
            {
                return Err(fail(format!(
                    "two runs at seed {seed} differ: committed {} vs {}",
                    a.metrics.committed, b.metrics.committed
                )));
            }
            a.records
        }
    };
    let txns = records.len().max(1);
    let t0 = Instant::now();
    check_history(kind, records).map_err(&fail)?;
    Ok(Checked {
        check_ns_per_txn: t0.elapsed().as_nanos() as f64 / txns as f64,
    })
}

/// Reopens a server's store from its log alone and looks for every
/// write of every committed transaction at or above its stamp.
fn acknowledged_writes_survive(dir: &Path, records: &[TxnRecord]) -> Result<(), String> {
    let store =
        DurableStore::open(dir, SyncPolicy::Never).map_err(|e| format!("reopen {dir:?}: {e}"))?;
    let mut writes = 0u64;
    for r in records.iter().filter(|r| r.committed()) {
        for op in &r.ops {
            if let OpRecord::Write { key, .. } = op {
                writes += 1;
                if store.latest_at_or_above(key, r.id).is_none() {
                    return Err(format!(
                        "acknowledged write of {key:?} at {} is missing after reopen",
                        r.id
                    ));
                }
            }
        }
    }
    if writes == 0 {
        return Err("the recorded run acknowledged no write".into());
    }
    Ok(())
}
