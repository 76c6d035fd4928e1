//! Figures 3–6: YCSB throughput and latency of the HAT engines against
//! master, each a sweep over one axis (§6.3).

use crate::report::Outcome;
use crate::runner::{Sweep, YcsbRunResult};
use hat_core::{ClusterSpec, ProtocolKind};
use hat_sim::latency::FIG3C_REGIONS;
use hat_sim::SimDuration;

use ProtocolKind::{Eventual, Master, Mav, ReadCommitted};

fn tps(r: &YcsbRunResult) -> f64 {
    r.throughput_tps
}

/// `a[i] / b[i]` at every point.
fn ratios(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x / y).collect()
}

pub(crate) fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub(crate) fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

fn last(xs: &[f64]) -> f64 {
    xs[xs.len() - 1]
}

/// The ratio furthest from 1 by factor, so that 0.5 and 2 are equally far.
fn furthest_from_one(xs: &[f64]) -> f64 {
    let far = |x: &f64| x.ln().abs();
    xs.iter()
        .copied()
        .max_by(|a, b| far(a).total_cmp(&far(b)))
        .unwrap_or(1.0)
}

/// Figure 3: throughput and latency against client count on (A) two
/// clusters in one datacenter (us-east), (B) clusters in us-east (VA) and
/// us-west-2 (OR), and (C) five clusters across VA, CA, OR, IR and TO.
pub fn fig3(smoke: bool) -> Outcome {
    let protocols = [Eventual, ReadCommitted, Mav, Master];
    let (two, five): (&[usize], &[usize]) = (&[8, 32, 128, 256, 512], &[25, 100, 400, 800]);
    // The last field is the deployment's fastest cross-region mean RTT
    // (Table 1c: VA-OR 82.9 ms, CA-OR 22.5 ms).
    let scenarios = [
        (
            "3A: two clusters in VA",
            ClusterSpec::single_dc(2, 5),
            two,
            0.5,
            None,
        ),
        ("3B: VA + OR", ClusterSpec::va_or(5), two, 0.5, Some(82.9)),
        (
            "3C: VA, CA, OR, IR, TO",
            ClusterSpec::regions(&FIG3C_REGIONS, 5),
            five,
            0.4,
            Some(22.5),
        ),
    ];
    let mut out = Outcome::default();
    for (name, spec, clients, mav_floor, rtt) in scenarios {
        let s = Sweep::run("clients", clients, &protocols, smoke, |cfg, n| {
            cfg.spec = spec.clone();
            cfg.clients = n;
        });
        out.tables.push(s.table(format!("Figure {name}")));
        let eventual = s.column(0, tps);
        let rc = ratios(&s.column(1, tps), &eventual);
        let mav = ratios(&s.column(2, tps), &eventual);
        out.ungated(format!(
            "Figure {name}: eventual txn/s at the most clients / its peak"
        ))
        .at_least(last(&eventual) / max(&eventual), 0.9);
        out.ungated(format!(
            "Figure {name}: RC / eventual txn/s, furthest from 1 over clients"
        ))
        .between(furthest_from_one(&rc), 0.9, 1.1);
        out.ungated(format!(
            "Figure {name}: MAV / eventual txn/s, lowest over clients"
        ))
        .at_least(min(&mav), mav_floor);
        // §6.3: a HAT transaction never waits on a WAN round trip, so its
        // latency stays below the fastest cross-region RTT, while master's
        // includes at least one.
        let Some(rtt) = rtt else { continue };
        let p50 = |p| s.column(p, |r| r.p50_latency_ms);
        let hat = max(&[max(&p50(0)), max(&p50(1)), max(&p50(2))]);
        out.ungated(format!(
            "Figure {name}: highest HAT p50 ms, below the fastest WAN RTT"
        ))
        .at_most(hat, rtt);
        out.gated(format!(
            "Figure {name}: lowest master p50 ms, the fastest WAN RTT or more"
        ))
        .at_least(min(&p50(3)), rtt);
    }
    out
}

/// Figure 4: throughput against transaction length (1–128 operations) on
/// Virginia + Oregon. MAV's sibling metadata grows with the write set.
pub fn fig4(smoke: bool) -> Outcome {
    let protocols = [Eventual, ReadCommitted, Mav, Master];
    let lengths = [1, 2, 4, 8, 16, 32, 64, 128];
    let s = Sweep::run("txn len", &lengths, &protocols, smoke, |cfg, len| {
        cfg.ycsb.ops_per_txn = len;
        // long transactions need a window many times their duration, or
        // partially complete transactions dominate the measurement
        cfg.duration = cfg.duration.max(SimDuration::from_millis(len as u64 * 60));
    });
    let ops = |p| s.column(p, |r| r.throughput_ops);
    let mut out = Outcome::default();
    out.tables
        .push(s.table("Figure 4: transaction length (VA + OR)"));
    for (p, name) in [(0, "eventual"), (1, "RC"), (3, "master")] {
        let flat = furthest_from_one(&ratios(&ops(p), &[ops(p)[0]; 8]));
        let statement = format!("Figure 4: {name} ops/s / its length-1 ops/s, furthest from 1");
        out.claim(statement, p == 1).between(flat, 0.5, 2.0);
    }
    let mav = ratios(&ops(2), &ops(0));
    out.ungated("Figure 4: MAV / eventual ops/s at length 1")
        .at_least(mav[0], 0.75);
    out.ungated("Figure 4: MAV / eventual ops/s at length 128")
        .at_least(last(&mav), 0.4);
    out
}

/// Figure 5: throughput against the share of writes on Virginia + Oregon,
/// plus the 99.8%-read mix §6.3 quotes from Facebook.
pub fn fig5(smoke: bool) -> Outcome {
    let protocols = [Eventual, ReadCommitted, Mav, Master];
    let writes = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0];
    let s = Sweep::run("write frac", &writes, &protocols, smoke, |cfg, w| {
        cfg.ycsb.read_proportion = 1.0 - w
    });
    let fb = Sweep::run("reads", &[0.998], &[Eventual, Mav], smoke, |cfg, r| {
        cfg.ycsb.read_proportion = r
    });
    let eventual = s.column(0, tps);
    let mut out = Outcome::default();
    out.tables
        .push(s.table("Figure 5: share of writes (VA + OR)"));
    out.tables
        .push(fb.table("Figure 5: Facebook's 99.8%-read mix, §6.3 (VA + OR)"));
    out.gated("Figure 5: eventual txn/s at all reads / at all writes (paper: 3.9x)")
        .at_least(eventual[0] / last(&eventual), 3.0);
    out.gated("Figure 5: MAV / eventual txn/s at 99.8% reads")
        .between(fb.column(1, tps)[0] / fb.column(0, tps)[0], 0.95, 1.05);
    out.ungated("Figure 5: MAV / eventual txn/s at all writes")
        .between(last(&s.column(2, tps)) / last(&eventual), 0.67, 1.33);
    out
}

/// Figure 6: scale-out from 10 to 50 servers (two clusters, Virginia +
/// Oregon) at 15 closed-loop clients per server.
pub fn fig6(smoke: bool) -> Outcome {
    let protocols = [Eventual, ReadCommitted, Mav];
    let s = Sweep::run(
        "servers",
        &[10, 20, 30, 40, 50],
        &protocols,
        smoke,
        |cfg, n| {
            cfg.spec = ClusterSpec::va_or(n / 2);
            cfg.clients = n * 15;
            // scale-out points are noisy at short windows (retry bursts
            // around saturation); 5 s smooths them
            cfg.duration = SimDuration::from_millis(if smoke { 1500 } else { 5000 });
        },
    );
    let mut out = Outcome::default();
    out.tables
        .push(s.table("Figure 6: servers (VA + OR, 15 clients each)"));
    for (p, name, floor) in [(0, "eventual", 4.0), (1, "RC", 4.0), (2, "MAV", 3.0)] {
        let col = s.column(p, tps);
        out.claim(
            format!("Figure 6: {name} txn/s at 50 servers / at 10"),
            p == 2,
        )
        .at_least(last(&col) / col[0], floor);
        if p < 2 {
            out.ungated(format!("Figure 6: {name} txn/s, lowest step-to-step ratio"))
                .at_least(min(&ratios(&col[1..], &col)), 1.0);
        }
    }
    out
}
