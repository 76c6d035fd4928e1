//! Nemesis sweep: every protocol engine through every adversarial schedule
//! in the standard catalog, at a fixed seed.
//!
//! For each `(schedule, engine)` pair the nemesis runner injects rolling
//! and one-way partitions, latency spikes, crash-restarts with torn WAL
//! tails and shard handoffs while a closed-loop workload keeps committing,
//! then heals the deployment and checks the three HAT claims: the
//! advertised isolation level held, every replica group converged, and
//! each crash-restart served WAL-recovered state (`replayed > 0`).
//!
//! The HAT engines stay available through partitions (`unavail` stays
//! near zero outside the crash-restart windows of their own home
//! replicas); master and 2PL go unavailable whenever the faults separate
//! them from a key's master; `viol` is zero everywhere.

use crate::report::{Outcome, Table};
use hat_core::ProtocolKind;
use hat_nemesis::{run, standard_catalog, NemesisOpts, NemesisReport};
use hat_sim::SimDuration;

/// Runs every engine through every schedule. With `json`, each pair
/// prints as one JSON object with its per-window telemetry series and
/// fault marks embedded, in place of the table.
pub fn nemesis(smoke: bool, json: bool) -> Outcome {
    let opts = NemesisOpts {
        seed: 0xBAD_CAFE,
        horizon: SimDuration::from_millis(if smoke { 400 } else { 600 }),
        keys: if smoke { 4 } else { 6 },
        ..NemesisOpts::default()
    };
    let mut table = Table::new(
        "",
        &[
            ("schedule", -48),
            ("engine", -16),
            ("commit", 7),
            ("unavail", 7),
            ("abort", 7),
            ("viol", 6),
            ("p50 ms", 8),
            ("p99 ms", 8),
            ("p999 ms", 8),
            ("dropped", 7),
            ("crashes", 7),
            ("replayed", 8),
            ("ok", 5),
        ],
    );
    if json {
        table.columns.clear();
    }
    let mut failures = Vec::new();
    for nemesis in &standard_catalog() {
        for protocol in ProtocolKind::ALL {
            let r = run(protocol, nemesis.as_ref(), &opts);
            table
                .rows
                .push(if json { vec![to_json(&r)] } else { row(&r) });
            if !r.ok() {
                failures.push(format!(
                    "[schedule={} seed={:#x}] {protocol:?}: violations={} converged={} committed={} crashes={} replayed={}",
                    r.schedule, r.seed, r.violations, r.converged, r.committed, r.crashes, r.wal_records_replayed
                ));
            }
        }
    }
    let mut tables = vec![table];
    if !failures.is_empty() {
        eprintln!("\n{} failing pair(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
    } else if !json {
        tables.push(Table::lines(
            "",
            vec!["all engine x schedule pairs hold their claims".into()],
        ));
    }
    let mut out = Outcome::from(tables);
    out.gated("Nemesis: engine x schedule pairs that broke isolation, convergence or recovery")
        .at_most(failures.len() as f64, 0.0);
    out
}

fn row(r: &NemesisReport) -> Vec<String> {
    vec![
        r.schedule.clone(),
        format!("{:?}", r.protocol),
        r.committed.to_string(),
        r.unavailable.to_string(),
        r.aborted.to_string(),
        r.violations.to_string(),
        format!("{:.2}", r.commit_latency.p50),
        format!("{:.2}", r.commit_latency.p99),
        format!("{:.2}", r.commit_latency.p999),
        r.msgs_dropped_by_partition.to_string(),
        r.crashes.to_string(),
        r.wal_records_replayed.to_string(),
        r.ok().to_string(),
    ]
}

/// One JSON object per pair, the per-window series
/// (`{"windows":[...],"faults":[...]}`) embedded verbatim so consumers get
/// the availability timeline and fault marks without re-running.
fn to_json(r: &NemesisReport) -> String {
    let staleness = match &r.staleness {
        Some(p) => format!(
            "{{\"count\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3}}}",
            p.count, p.p50, p.p99, p.max
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"schedule\":\"{}\",\"engine\":\"{}\",\"seed\":{},\"committed\":{},\
         \"unavailable\":{},\"aborted\":{},\"violations\":{},\"stream_violations\":{},\
         \"converged\":{},\"crashes\":{},\"wal_replayed\":{},\"dropped\":{},\
         \"p50_ms\":{:.3},\"p99_ms\":{:.3},\"staleness\":{},\"ok\":{},\"series\":{}}}",
        r.schedule.replace('"', "\\\""),
        r.protocol.label(),
        r.seed,
        r.committed,
        r.unavailable,
        r.aborted,
        r.violations,
        r.stream_violations,
        r.converged,
        r.crashes,
        r.wal_records_replayed,
        r.msgs_dropped_by_partition,
        r.commit_latency.p50,
        r.commit_latency.p99,
        staleness,
        r.ok(),
        r.series.to_json()
    )
}
