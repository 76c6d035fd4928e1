//! Simulator runs: `SimFrontend` episodes of fixed simulated length.
//!
//! An episode is a fresh deployment driven for [`EPISODE`] of simulated
//! time; at one seed it is the same computation every time — same
//! events, same commits. Fixed simulated length matters: four engines
//! get slower per simulated second the longer an episode runs (README,
//! "Seed findings"), so a wall-clock cut inside an episode would measure
//! a different mix of cheap and dear seconds whenever the code's speed
//! changed. The timed run therefore runs whole episodes, each at its own
//! derived seed, until an engine's wall-clock budget is used.

use crate::gen;
use crate::source::{ClientLog, Phases, StampedSource};
use crate::workload::Workload;
use hat_core::{
    ClientMetrics, DeploymentBuilder, Frontend, ProtocolKind, SimFrontend, TxnRecord, TxnSpec,
};
use hat_sim::SimDuration;
use std::time::Instant;

/// Simulated length of one episode.
pub const EPISODE: SimDuration = SimDuration(4_000_000);

/// Inputs prepared per client and simulated second for an episode whose
/// appetite is not known yet: about six times what the hungriest engine
/// consumes at the seed commit.
const INPUTS_PER_SIM_SECOND: u64 = 300;

/// Inputs to prepare per client for a first episode of `simulated` time.
pub fn inputs_for(simulated: SimDuration) -> usize {
    (INPUTS_PER_SIM_SECOND * simulated.as_micros()).div_ceil(1_000_000) as usize
}

/// What one episode produced.
pub struct Episode {
    /// Wall-clock seconds spent building the deployment and its inputs.
    pub build_s: f64,
    /// Wall-clock seconds inside `run_for`.
    pub run_s: f64,
    pub metrics: ClientMetrics,
    pub logs: Vec<ClientLog>,
    /// Empty unless `record_history`.
    pub records: Vec<TxnRecord>,
}

/// Builds the workload's deployment for `kind` over `inputs`.
pub fn build(
    wl: &Workload,
    kind: ProtocolKind,
    seed: u64,
    inputs: Vec<Vec<TxnSpec>>,
    record_history: bool,
) -> (SimFrontend, std::sync::Arc<Phases>) {
    let mut cfg = wl.config(kind);
    cfg.record_history = record_history;
    let phases = Phases::new(wl.clients, None);
    let drivers = inputs
        .into_iter()
        .enumerate()
        .map(|(c, specs)| StampedSource::boxed(c, Vec::new(), specs, &phases))
        .collect();
    let sim = DeploymentBuilder::new(kind)
        .seed(seed)
        .clusters(wl.spec())
        .config(cfg)
        .drivers(drivers)
        .build();
    (sim, phases)
}

/// Runs one episode for `simulated` time.
pub fn episode(
    wl: &Workload,
    kind: ProtocolKind,
    seed: u64,
    inputs: Vec<Vec<TxnSpec>>,
    simulated: SimDuration,
    record_history: bool,
) -> Episode {
    let t0 = Instant::now();
    let (mut sim, phases) = build(wl, kind, seed, inputs, record_history);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    sim.run_for(simulated);
    let run_s = t1.elapsed().as_secs_f64();
    let metrics = sim.aggregate_metrics();
    let records = sim.take_records();
    drop(sim);
    Episode {
        build_s,
        run_s,
        metrics,
        logs: phases.take_logs(),
        records,
    }
}

/// Largest replication lag over the servers right now.
pub fn max_replication_lag(sim: &SimFrontend) -> u64 {
    (0..sim.engine().topology().len() as u32)
        .filter_map(|id| sim.engine().actor(id).as_server())
        .map(|s| s.replication_lag())
        .max()
        .unwrap_or(0)
}

/// `per_client` generated transactions for every client.
pub fn inputs(wl: &Workload, seed: u64, per_client: usize) -> Vec<Vec<TxnSpec>> {
    (0..wl.clients)
        .map(|c| gen::client_inputs(seed, c, wl.mix, per_client))
        .collect()
}

/// The seed of an engine's `episode`-th episode under `--seed seed`:
/// inputs and the simulator's own rng both take it.
pub fn episode_seed(seed: u64, episode: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(episode)
}
