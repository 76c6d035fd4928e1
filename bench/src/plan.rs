//! How much a run does: derived once from the command line.

use crate::gen;
use crate::rt;
use crate::sim;
use crate::workload::{Backend, Workload};
use hat_sim::SimDuration;
use std::time::Duration;

/// Share of the full work a `--smoke` run does.
const SMOKE: f64 = 1.0 / 20.0;

/// How the simulator workload's measured seconds are split over the
/// engines (run order: eventual rc mav ramp-f ramp-s master 2pl). An
/// episode of eventual, rc or either RAMP costs about a wall-clock
/// second and its cost swings ~10 % with the seed, so those four get
/// enough for four episodes each; mav, master and 2pl episodes cost
/// milliseconds and dozens fit in the little they get.
const SIM_SHARE: [f64; 7] = [0.22, 0.22, 0.05, 0.22, 0.22, 0.035, 0.035];

/// `full` scaled by `work`, but never under one simulated second (or
/// `full`, if that is shorter): the least in which every engine commits
/// over WAN round trips.
fn scale_simulated(full: SimDuration, work: f64) -> SimDuration {
    let floor = full.as_micros().min(1_000_000);
    SimDuration(((full.as_micros() as f64 * work) as u64).max(floor))
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Measured seconds for the whole workload (after scaling).
    pub seconds: f64,
    /// Threaded warm-up before the window opens.
    pub warmup: Duration,
    /// Simulated length of one simulator episode.
    pub episode: SimDuration,
    /// Factor on every fixed amount of work (1, or 1/20 under `--smoke`).
    pub work: f64,
}

impl Plan {
    /// `seconds` of measured time for the whole workload.
    pub fn new(seed: u64, seconds: f64, smoke: bool) -> Plan {
        let work = if smoke { SMOKE } else { 1.0 };
        Plan {
            seed,
            seconds: seconds * work,
            warmup: rt::WARMUP.mul_f64(work),
            episode: scale_simulated(sim::EPISODE, work),
            work,
        }
    }

    /// A simulated duration scaled by the plan's work factor.
    pub fn simulated(&self, full: SimDuration) -> SimDuration {
        scale_simulated(full, self.work)
    }

    /// Measured time of engine number `engine` (run order): the window
    /// on the threaded backend, the `run_for` wall-clock budget on the
    /// simulator.
    pub fn measured(&self, wl: &Workload, engine: usize) -> Duration {
        let share = match wl.backend {
            Backend::Threaded => 1.0 / SIM_SHARE.len() as f64,
            Backend::Sim => SIM_SHARE[engine],
        };
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Keys written once each before a measured run: the whole keyspace
    /// (its share under `--smoke`) on the threaded workloads, none on
    /// the simulator's (README, "Simulator runs").
    pub fn preload_keys(&self, wl: &Workload) -> u64 {
        match wl.backend {
            Backend::Threaded => self.scaled(gen::KEYS as usize) as u64,
            Backend::Sim => 0,
        }
    }

    /// A fixed count scaled by the plan's work factor, at least 1.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.work).ceil() as usize).max(1)
    }
}
