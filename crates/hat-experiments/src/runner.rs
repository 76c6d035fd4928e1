//! Shared closed-loop YCSB experiment runner (§6.3 methodology).
//!
//! Each run builds a simulated deployment, attaches `clients` closed-loop
//! YCSB drivers, runs for a simulated duration, and reports throughput
//! and latency aggregates — the series plotted in Figures 3–6.

use std::fmt::Display;

use crate::report::Table;
use hat_core::client::TxnSource;
use hat_core::{ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, SystemConfig};
use hat_sim::SimDuration;
use hat_workloads::{YcsbConfig, YcsbSource};

/// One experiment point.
#[derive(Debug, Clone)]
pub struct YcsbRunConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Cluster deployment.
    pub spec: ClusterSpec,
    /// Total closed-loop clients (spread round-robin over clusters).
    pub clients: usize,
    /// Workload shape.
    pub ycsb: YcsbConfig,
    /// Simulated measurement window.
    pub duration: SimDuration,
    /// Engine seed.
    pub seed: u64,
}

/// Aggregated result of one run.
#[derive(Debug, Clone)]
pub struct YcsbRunResult {
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Committed transactions per simulated second.
    pub throughput_tps: f64,
    /// Committed operations per simulated second.
    pub throughput_ops: f64,
    /// Mean transaction latency, ms.
    pub mean_latency_ms: f64,
    /// Median transaction latency, ms.
    pub p50_latency_ms: f64,
    /// 95th percentile transaction latency, ms.
    pub p95_latency_ms: f64,
    /// 99th percentile transaction latency, ms.
    pub p99_latency_ms: f64,
    /// 99.9th percentile transaction latency, ms.
    pub p999_latency_ms: f64,
    /// Transactions committed in the window.
    pub committed: u64,
    /// Client→server message rounds issued (coordination cost).
    pub msg_rounds: u64,
    /// Second-round fracture repairs (RAMP-Fast; 0 elsewhere).
    pub repair_rounds: u64,
    /// Metadata bytes moved for atomic visibility.
    pub metadata_bytes: u64,
}

/// Runs one experiment point.
pub fn run_ycsb(cfg: &YcsbRunConfig) -> YcsbRunResult {
    let drivers: Vec<Box<dyn TxnSource>> = (0..cfg.clients)
        .map(|_| Box::new(YcsbSource::new(cfg.ycsb.clone())) as Box<dyn TxnSource>)
        .collect();
    let mut system = SystemConfig::new(cfg.protocol);
    system.record_history = false; // throughput runs skip history capture
    let mut sim = DeploymentBuilder::new(cfg.protocol)
        .seed(cfg.seed)
        .clusters(cfg.spec.clone())
        .config(system)
        .drivers(drivers)
        .build();
    sim.run_for(cfg.duration);
    let ops_per_txn = cfg.ycsb.ops_per_txn as f64;
    let m = sim.aggregate_metrics();
    let secs = cfg.duration.as_secs_f64();
    // Tail percentiles come from the lossless histogram summary (clamped
    // at the true max), so p999/max stay honest at low sample counts.
    let p = m.commit_percentiles();
    YcsbRunResult {
        protocol: cfg.protocol,
        throughput_tps: m.committed as f64 / secs,
        throughput_ops: m.committed as f64 * ops_per_txn / secs,
        mean_latency_ms: m.txn_latency_ms.mean(),
        p50_latency_ms: p.p50,
        p95_latency_ms: m.txn_latency_ms.quantile(0.95).min(p.max),
        p99_latency_ms: p.p99,
        p999_latency_ms: p.p999,
        committed: m.committed,
        msg_rounds: m.msg_rounds,
        repair_rounds: m.repair_rounds,
        metadata_bytes: m.metadata_bytes,
    }
}

/// Every protocol run at every point of one axis: the loop behind
/// Figures 3–6 and the RAMP comparison.
pub struct Sweep<T> {
    /// The axis' name, the first column of [`Sweep::table`].
    pub axis: &'static str,
    /// The axis' points.
    pub points: Vec<T>,
    /// `results[point][protocol]`, in the order the protocols were given.
    pub results: Vec<Vec<YcsbRunResult>>,
}

impl<T: Copy> Sweep<T> {
    /// Runs the sweep. Each run starts from the paper's §6.3 defaults — two
    /// five-server clusters (Virginia + Oregon), 128 clients, 100 000 keys,
    /// 1 KB values, 8 operations per transaction, 50% reads, a 2 s window —
    /// halved to a 1 s window under `smoke` (shorter windows hide the
    /// anti-entropy storm and change the figures' verdicts); `tweak` then
    /// sets the point.
    pub fn run(
        axis: &'static str,
        points: &[T],
        protocols: &[ProtocolKind],
        smoke: bool,
        tweak: impl Fn(&mut YcsbRunConfig, T),
    ) -> Sweep<T> {
        let run = |point, protocol| {
            let mut cfg = YcsbRunConfig {
                protocol,
                spec: ClusterSpec::va_or(5),
                clients: 128,
                ycsb: YcsbConfig::default(),
                duration: SimDuration::from_millis(if smoke { 1000 } else { 2000 }),
                seed: 0xEC2,
            };
            tweak(&mut cfg, point);
            run_ycsb(&cfg)
        };
        let results = points
            .iter()
            .map(|&point| protocols.iter().map(|&p| run(point, p)).collect())
            .collect();
        Sweep {
            axis,
            points: points.to_vec(),
            results,
        }
    }

    /// `f` of protocol `p`'s result at every point.
    pub fn column(&self, p: usize, f: impl Fn(&YcsbRunResult) -> f64) -> Vec<f64> {
        self.results.iter().map(|row| f(&row[p])).collect()
    }
}

impl<T: Display> Sweep<T> {
    /// One row per (point, protocol) with every metric of the run, and
    /// throughput relative to the point's first protocol (eventual, in the
    /// figures) and to the protocol's own first point.
    pub fn table(&self, title: impl Into<String>) -> Table {
        let first = format!("vs {}", self.results[0][0].protocol.label());
        let mut table = Table::new(
            title,
            &[
                (self.axis, 10),
                ("protocol", -8),
                ("txn/s", 7),
                ("ops/s", 7),
                ("mean ms", 8),
                ("p50 ms", 8),
                ("p95 ms", 8),
                ("p99 ms", 8),
                ("p999 ms", 8),
                ("rounds/tx", 9),
                ("meta B/tx", 9),
                ("repairs", 7),
                ("commits", 7),
                (&first, 11),
                ("vs first", 8),
            ],
        );
        for (point, row) in self.points.iter().zip(&self.results) {
            let reference = row[0].throughput_tps;
            for (r, first) in row.iter().zip(&self.results[0]) {
                let per_txn = |v: u64| v as f64 / r.committed.max(1) as f64;
                let rel = if reference > 0.0 {
                    r.throughput_tps / reference
                } else {
                    0.0
                };
                table.rows.push(vec![
                    point.to_string(),
                    r.protocol.label().to_string(),
                    format!("{:.0}", r.throughput_tps),
                    format!("{:.0}", r.throughput_ops),
                    format!("{:.2}", r.mean_latency_ms),
                    format!("{:.2}", r.p50_latency_ms),
                    format!("{:.2}", r.p95_latency_ms),
                    format!("{:.2}", r.p99_latency_ms),
                    format!("{:.2}", r.p999_latency_ms),
                    format!("{:.2}", per_txn(r.msg_rounds)),
                    format!("{:.1}", per_txn(r.metadata_bytes)),
                    r.repair_rounds.to_string(),
                    r.committed.to_string(),
                    format!("{:.0}%", rel * 100.0),
                    format!("{:.2}x", r.throughput_tps / first.throughput_tps.max(1.0)),
                ]);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_sane_numbers() {
        let cfg = YcsbRunConfig {
            protocol: ProtocolKind::Eventual,
            spec: ClusterSpec::single_dc(2, 2),
            clients: 4,
            ycsb: YcsbConfig::small(),
            duration: SimDuration::from_millis(500),
            seed: 1,
        };
        let r = run_ycsb(&cfg);
        assert!(r.committed > 0, "{r:?}");
        assert!(r.throughput_tps > 0.0);
        assert!(r.mean_latency_ms > 0.0);
        assert!(r.p95_latency_ms >= r.mean_latency_ms * 0.3);
    }

    #[test]
    fn master_slower_than_eventual_over_wan() {
        let mk = |p| YcsbRunConfig {
            protocol: p,
            spec: ClusterSpec::va_or(2),
            clients: 8,
            ycsb: YcsbConfig::small(),
            duration: SimDuration::from_secs(2),
            seed: 2,
        };
        let ev = run_ycsb(&mk(ProtocolKind::Eventual));
        let ma = run_ycsb(&mk(ProtocolKind::Master));
        assert!(
            ma.mean_latency_ms > ev.mean_latency_ms * 5.0,
            "master {:.1}ms vs eventual {:.1}ms",
            ma.mean_latency_ms,
            ev.mean_latency_ms
        );
    }
}
