//! The four workloads and the seven engines, by name.

use crate::gen::Mix;
use hat_core::{ClusterSpec, ProtocolKind, ServiceModel, SystemConfig};

/// Engine labels in run order, as they appear in metric names.
pub const ENGINES: [(&str, ProtocolKind); 7] = [
    ("eventual", ProtocolKind::Eventual),
    ("rc", ProtocolKind::ReadCommitted),
    ("mav", ProtocolKind::Mav),
    ("ramp-f", ProtocolKind::RampFast),
    ("ramp-s", ProtocolKind::RampSmall),
    ("master", ProtocolKind::Master),
    ("2pl", ProtocolKind::TwoPhaseLocking),
];

/// Which backend carries a workload's timed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `hat-runtime`: one OS thread per node, injected delay 0.
    Threaded,
    /// `hat-sim` through `SimFrontend`: default latency and service
    /// models, simulated time.
    Sim,
}

/// One workload: a deployment, a traffic mix, and how much input to
/// prepare for it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: Backend,
    pub mix: Mix,
    /// `SyncPolicy::Always` WAL under every server.
    pub durable: bool,
    /// Closed-loop client nodes.
    pub clients: usize,
    /// Inputs generated per client per second of an engine's time
    /// budget on the threaded backend: several times what the seed
    /// commit consumes, so the clock and not the input ends a run.
    pub inputs_per_client_s: usize,
    /// Fixed transactions per client in the inline (traced) replay and
    /// in the correctness pass.
    pub inline_txns: usize,
    pub check_txns: usize,
}

impl Workload {
    /// The deployment under test.
    pub fn spec(&self) -> ClusterSpec {
        match self.backend {
            // One server + `clients` client nodes = 5 threads on 2
            // cores, on purpose: see README "Thread count".
            Backend::Threaded => ClusterSpec::single_dc(1, 1),
            Backend::Sim => ClusterSpec::va_or(2),
        }
    }
}

impl Workload {
    /// The system configuration of a measured run: no modelled service
    /// time on a threaded workload (the number is the code's own cost),
    /// the default model on the simulator's; history and telemetry off.
    pub fn config(&self, kind: ProtocolKind) -> SystemConfig {
        let mut cfg = SystemConfig::new(kind);
        if self.backend == Backend::Threaded {
            cfg.service = ServiceModel::zero();
        }
        cfg.record_history = false;
        cfg
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rt-mixed-mem",
        why: "threaded runtime on MemStore, 50/50 reads and writes: message path, client state machine, engine hooks and memtable inserts; WAL and hat-sim idle",
        backend: Backend::Threaded,
        mix: Mix::MIXED,
        durable: false,
        clients: 4,
        inputs_per_client_s: 10_000,
        inline_txns: 2_000,
        check_txns: 150,
    },
    Workload {
        name: "rt-mixed-durable",
        why: "rt-mixed-mem plus a SyncPolicy::Always WAL: encode, write and sync_data dominate, so the gap to rt-mixed-mem is the WAL's cost",
        backend: Backend::Threaded,
        mix: Mix::MIXED,
        durable: true,
        clients: 4,
        inputs_per_client_s: 2_500,
        inline_txns: 200,
        check_txns: 60,
    },
    Workload {
        name: "rt-read-scan-mem",
        why: "threaded runtime on MemStore, 90% point reads, 5% 10-key prefix scans, 5% writes: ordered lookups, scan_prefix and RAMP second rounds instead of inserts",
        backend: Backend::Threaded,
        mix: Mix::READ_SCAN,
        durable: false,
        clients: 4,
        inputs_per_client_s: 10_000,
        inline_txns: 2_000,
        check_txns: 150,
    },
    Workload {
        name: "sim-mixed-wan",
        why: "SimFrontend on two regions x two shards with 32 clients, 50/50: event queue, latency sampling, anti-entropy and shard routing; hat-runtime and WAL idle",
        backend: Backend::Sim,
        mix: Mix::MIXED,
        durable: false,
        clients: 32,
        // Only the traced run's threaded probe uses these.
        inputs_per_client_s: 1_500,
        inline_txns: 0,
        check_txns: 0,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
