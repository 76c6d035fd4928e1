//! Read Atomic head-to-head: MAV vs RAMP-Fast vs RAMP-Small.
//!
//! The paper implements atomic visibility with MAV's sibling
//! notifications (server→server fan-in on every write); the RAMP
//! follow-up direction moves the work to readers, who repair fractured
//! reads from per-write metadata. This experiment compares the three
//! engines' *coordination cost* — client message rounds per committed
//! transaction, metadata bytes per transaction, second-round repair
//! frequency — alongside throughput and p50/p99 latency, on read-heavy
//! vs balanced vs write-heavy YCSB mixes over the Virginia + Oregon
//! deployment.
//!
//! Expected shape:
//! * RAMP-F reads are one round unless a fracture is detected, so its
//!   rounds/txn sit close to RC's; its metadata cost scales with the
//!   write-set (like MAV's) but it sends no Notify traffic at all.
//! * RAMP-S always pays two read rounds, but for a whole transaction's
//!   reads at once (the driver issues them as one `GET_ALL`), so its
//!   rounds/txn are the lowest on read-heavy mixes; its second-round
//!   requests carry every stamp the first round learnt, so its
//!   bytes/txn grow with the read set.
//! * MAV keeps client rounds low but pays |write-set| × |clusters|
//!   sibling notifications server-side on every write — the fan-in this
//!   experiment exists to avoid; its write amplification also shows up
//!   as lower write-heavy throughput.
//!
//! The second axis is **shard scaling** (§6.3's "millions of keys"
//! regime): the same two-region deployment grown from 1 to 16 shards
//! per cluster, closed-loop clients growing with it. RAMP-F's
//! coordination rides on the messages the transaction already sends, so
//! its throughput should track the shard count near-linearly; MAV's
//! sibling notifications fan out to every server holding a sibling key
//! — at 1 shard they collapse onto the writing server, at 16 they are
//! |write-set| × |clusters| extra serviced messages per transaction —
//! so its curve flattens as shards (and therefore write-set spread)
//! grow.
//!
//! Run: `cargo run -p hat-bench --release --bin exp_ramp [--smoke]`
//! (`--smoke` is the CI configuration: small keyspace, short window).

use hat_bench::{run_ycsb, YcsbRunConfig, YcsbRunResult};
use hat_core::{ClusterSpec, ProtocolKind};
use hat_sim::SimDuration;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--quick");
    // `--json` emits one JSON object per (mix, engine) line instead of
    // the table.
    let json = std::env::args().any(|a| a == "--json");
    let mixes: &[(&str, f64)] = &[
        ("read-heavy 90/10", 0.9),
        ("balanced 50/50", 0.5),
        ("write-heavy 10/90", 0.1),
    ];
    let protocols = [
        ProtocolKind::Mav,
        ProtocolKind::RampFast,
        ProtocolKind::RampSmall,
    ];
    if !json {
        println!(
            "{:>18} {:8} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
            "mix",
            "engine",
            "txn/s",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "rounds/tx",
            "meta B/tx",
            "repairs",
            "commits"
        );
    }
    for &(label, read_prop) in mixes {
        for protocol in protocols {
            let clients = if smoke { 8 } else { 64 };
            let mut cfg = YcsbRunConfig::paper_defaults(protocol, ClusterSpec::va_or(2), clients);
            cfg.ycsb.read_proportion = read_prop;
            cfg.seed = 0x7A3F ^ read_prop.to_bits();
            if smoke {
                cfg.ycsb.num_keys = 200;
                cfg.ycsb.value_size = 32;
                cfg.duration = SimDuration::from_millis(250);
            }
            let r = run_ycsb(&cfg);
            if json {
                print_json(label, &r);
            } else {
                print_row(label, &r);
            }
            sanity(&r, protocol, smoke);
        }
        if !json {
            println!();
        }
    }
    if !json {
        println!("rounds/tx counts client→server request rounds (reads, repair fetches,");
        println!("prepare and commit phases); MAV's sibling-notification fan-in is");
        println!("server→server and does not appear in client rounds — that asymmetry");
        println!("is the point: RAMP buys atomic visibility with reader-side rounds");
        println!("and metadata instead of write-side notification storms.");
        println!();
    }
    shard_scaling(smoke, json);
}

/// Shard-scaling sweep: RAMP-F vs MAV on 2 clusters × {1,2,4,8,16}
/// shards, balanced 50/50 mix, clients growing with the shard count so
/// the offered load scales with the deployment.
fn shard_scaling(smoke: bool, json: bool) {
    let shard_counts: &[usize] = if smoke { &[1, 8] } else { &[1, 2, 4, 8, 16] };
    let protocols = [ProtocolKind::RampFast, ProtocolKind::Mav];
    if !json {
        println!(
            "{:>18} {:8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>8}",
            "axis", "engine", "shards", "txn/s", "p50 ms", "p99 ms", "commits", "scale"
        );
    }
    for protocol in protocols {
        let mut base_tps = 0.0f64;
        for &shards in shard_counts {
            let clients = if smoke { 4 * shards } else { 8 * shards };
            let mut cfg =
                YcsbRunConfig::paper_defaults(protocol, ClusterSpec::va_or(shards), clients);
            cfg.ycsb.read_proportion = 0.5;
            cfg.seed = 0x5AAD ^ shards as u64;
            if smoke {
                cfg.ycsb.num_keys = 400;
                cfg.ycsb.value_size = 32;
                cfg.duration = SimDuration::from_millis(250);
            }
            let r = run_ycsb(&cfg);
            if base_tps == 0.0 {
                base_tps = r.throughput_tps;
            }
            let scale = r.throughput_tps / base_tps;
            if json {
                print_shard_json(shards, scale, &r);
            } else {
                println!(
                    "{:>18} {:8} {:>7} {:>9.0} {:>9.2} {:>9.2} {:>9} {:>7.2}x",
                    "shard-scaling",
                    r.protocol.label(),
                    shards,
                    r.throughput_tps,
                    r.p50_latency_ms,
                    r.p99_latency_ms,
                    r.committed,
                    scale
                );
            }
            assert!(
                r.committed > 0,
                "{protocol:?} @ {shards} shards: no transactions committed"
            );
        }
        if !json {
            println!();
        }
    }
    if !json {
        println!("scale is throughput relative to the engine's own 1-shard run; clients");
        println!("grow with shards, so a flat curve means the engine burns the added");
        println!("hardware on coordination (MAV's sibling fan-in) rather than commits.");
    }
}

fn print_shard_json(shards: usize, scale: f64, r: &YcsbRunResult) {
    println!(
        "{{\"axis\":\"shard-scaling\",\"engine\":\"{}\",\"shards\":{},\"clients\":{},\
         \"tps\":{:.1},\"scale\":{:.3},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"commits\":{}}}",
        r.protocol.label(),
        shards,
        r.clients,
        r.throughput_tps,
        scale,
        r.p50_latency_ms,
        r.p99_latency_ms,
        r.committed
    );
}

fn print_json(mix: &str, r: &YcsbRunResult) {
    // `shards` is the per-cluster server count (the mix axis runs the
    // paper's fixed 2-shard deployment; the shard axis sweeps it).
    println!(
        "{{\"mix\":\"{}\",\"engine\":\"{}\",\"shards\":2,\"tps\":{:.1},\"p50_ms\":{:.3},\
         \"p95_ms\":{:.3},\"p99_ms\":{:.3},\"p999_ms\":{:.3},\"max_ms\":{:.3},\
         \"commits\":{}}}",
        mix,
        r.protocol.label(),
        r.throughput_tps,
        r.p50_latency_ms,
        r.p95_latency_ms,
        r.p99_latency_ms,
        r.p999_latency_ms,
        r.max_latency_ms,
        r.committed
    );
}

fn print_row(mix: &str, r: &YcsbRunResult) {
    let per_txn = |v: u64| {
        if r.committed == 0 {
            0.0
        } else {
            v as f64 / r.committed as f64
        }
    };
    println!(
        "{:>18} {:8} {:>9.0} {:>9.2} {:>9.2} {:>9.2} {:>10.2} {:>10.1} {:>9} {:>9}",
        mix,
        r.protocol.label(),
        r.throughput_tps,
        r.p50_latency_ms,
        r.p99_latency_ms,
        r.p999_latency_ms,
        per_txn(r.msg_rounds),
        per_txn(r.metadata_bytes),
        r.repair_rounds,
        r.committed
    );
}

/// Smoke-mode assertions so CI fails loudly if the experiment rots.
fn sanity(r: &YcsbRunResult, protocol: ProtocolKind, smoke: bool) {
    assert!(r.committed > 0, "{protocol:?}: no transactions committed");
    assert!(r.msg_rounds > 0, "{protocol:?}: no message rounds counted");
    match protocol {
        ProtocolKind::RampFast => {
            assert!(r.metadata_bytes > 0, "RAMP-F must move write-set metadata")
        }
        ProtocolKind::RampSmall => {
            assert!(r.metadata_bytes > 0, "RAMP-S must move timestamp metadata")
        }
        _ => {}
    }
    let _ = smoke;
}
