//! Nemesis sweep: every protocol engine through every adversarial
//! schedule in the standard catalog, at a fixed seed.
//!
//! For each `(schedule, engine)` pair the nemesis runner injects
//! rolling/one-way partitions, latency spikes, crash-restarts with
//! torn WAL tails and shard handoffs while a closed-loop workload keeps
//! committing, then heals the deployment and checks the three HAT
//! claims: the advertised isolation level held, every replica group
//! converged, and each crash-restart provably served WAL-recovered
//! state (`wal replayed > 0`).
//!
//! Expected shape:
//! * The HAT engines (eventual, RC, MAV, both RAMPs) stay available
//!   through partitions — `unavail` stays near zero outside the
//!   crash-restart windows of their own home replicas.
//! * Master and 2PL go unavailable whenever the faults separate them
//!   from the key's master — the paper's §6 impossibility, measured.
//! * `violations` is zero everywhere: faults cost availability, never
//!   the advertised isolation.
//!
//! Run: `cargo run -p hat-bench --release --bin exp_nemesis [--smoke]
//! [--schedule <substring>] [--json]` (`--smoke` is the CI
//! configuration: shorter horizon, fewer keys; `--schedule` filters the
//! catalog by name substring, e.g. `--schedule handoff` for the
//! shard-smoke job; `--json` emits one JSON object per pair with the
//! per-window telemetry series and fault marks embedded, for the CI
//! obs-smoke validator).
//! Exits non-zero if any pair fails its claims, so CI can gate on it.

use hat_core::ProtocolKind;
use hat_nemesis::{run, standard_catalog, NemesisOpts, NemesisReport};
use hat_sim::SimDuration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let filter: Option<&str> = args
        .iter()
        .position(|a| a == "--schedule")
        .map(|i| args.get(i + 1).expect("--schedule needs a name").as_str());
    let opts = NemesisOpts {
        seed: 0xBAD_CAFE,
        horizon: if smoke {
            SimDuration::from_millis(400)
        } else {
            SimDuration::from_millis(600)
        },
        keys: if smoke { 4 } else { 6 },
        ..NemesisOpts::default()
    };
    if !json {
        println!(
            "{:48} {:16} {:>7} {:>7} {:>7} {:>6} {:>8} {:>8} {:>8} {:>7} {:>7} {:>8} {:>5}",
            "schedule",
            "engine",
            "commit",
            "unavail",
            "abort",
            "viol",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "dropped",
            "crashes",
            "replayed",
            "ok"
        );
    }
    let mut failures = Vec::new();
    let mut ran = 0usize;
    for nemesis in &standard_catalog() {
        if let Some(f) = filter {
            if !nemesis.name().contains(f) {
                continue;
            }
        }
        ran += 1;
        for protocol in ProtocolKind::ALL {
            let r = run(protocol, nemesis.as_ref(), &opts);
            if json {
                print_json(&r);
            } else {
                println!(
                    "{:48} {:16} {:>7} {:>7} {:>7} {:>6} {:>8.2} {:>8.2} {:>8.2} {:>7} {:>7} {:>8} {:>5}",
                    r.schedule,
                    format!("{protocol:?}"),
                    r.committed,
                    r.unavailable,
                    r.aborted,
                    r.violations,
                    r.commit_latency.p50,
                    r.commit_latency.p99,
                    r.commit_latency.p999,
                    r.msgs_dropped_by_partition,
                    r.crashes,
                    r.wal_records_replayed,
                    r.ok()
                );
            }
            if !r.ok() {
                failures.push(format!(
                    "[schedule={} seed={:#x}] {protocol:?}: violations={} converged={} committed={} crashes={} replayed={}",
                    r.schedule,
                    r.seed,
                    r.violations,
                    r.converged,
                    r.committed,
                    r.crashes,
                    r.wal_records_replayed
                ));
            }
        }
    }
    if ran == 0 {
        eprintln!("no schedule matches filter {:?}", filter.unwrap_or(""));
        std::process::exit(1);
    }
    if !failures.is_empty() {
        eprintln!("\n{} failing pair(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if !json {
        println!("\nall engine x schedule pairs hold their claims");
    }
}

/// One JSON object per (schedule, engine) pair, the per-window series
/// (`{"windows":[...],"faults":[...]}`) embedded verbatim so consumers
/// get the availability timeline and fault marks without re-running.
/// Deterministic field order; one line per pair, like `exp_ramp`.
fn print_json(r: &NemesisReport) {
    let staleness = match &r.staleness {
        Some(p) => format!(
            "{{\"count\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3}}}",
            p.count, p.p50, p.p99, p.max
        ),
        None => "null".to_string(),
    };
    println!(
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
    );
}
