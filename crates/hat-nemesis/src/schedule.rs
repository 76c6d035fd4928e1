//! Fault vocabulary and the combinators that compose schedules.

use hat_core::ClusterLayout;
use hat_sim::{NodeId, SimDuration, SimTime};

/// One injectable fault, applied at a scheduled instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Cut `a` from `b` for `duration` (both directions), or only the
    /// `a → b` direction when `one_way` — an asymmetric link failure:
    /// `b` keeps hearing from `a`'s side is silent. Partitions are
    /// bounded, so every schedule self-heals.
    Partition {
        /// One side of the cut.
        a: Vec<NodeId>,
        /// The other side (the blocked *destination* when one-way).
        b: Vec<NodeId>,
        /// How long the cut lasts.
        duration: SimDuration,
        /// Drop only `a → b` traffic.
        one_way: bool,
    },
    /// Multiply every cross-node latency sample by `factor` (1.0
    /// restores normal service).
    LatencyScale {
        /// The multiplier (≥ 0, non-finite values are ignored).
        factor: f64,
    },
    /// Hard-crash server `node`, leaving `torn_tail` bytes of a partial
    /// WAL — the torn write a real machine leaves when power dies
    /// mid-append. Volatile state (RAMP prepared sets, 2PL lock tables,
    /// MAV pending queues) is lost outright.
    Crash {
        /// The server to kill.
        node: NodeId,
        /// Bytes of the partially-flushed frame left torn at the WAL
        /// tail (0 = clean crash). Never covers acknowledged records.
        torn_tail: u64,
    },
    /// Restart a previously crashed server: reopen its store (replaying
    /// the surviving WAL prefix) and rejoin the cluster via the bootstrap
    /// recovery protocol.
    Restart {
        /// The server to revive.
        node: NodeId,
    },
    /// Start a live handoff of ring token `token` to the server at
    /// `to_position` of each cluster, while traffic keeps flowing: the
    /// old owner streams the shard snapshot plus its replication tail,
    /// and NACKs (`WrongShard`) new requests only once the receiver
    /// holds a byte-complete copy. Races the cutover against in-flight
    /// transactions by construction.
    ShardHandoff {
        /// The ring token to move.
        token: u32,
        /// Destination server position (same position in every cluster —
        /// handoffs are positional, like replication).
        to_position: u32,
    },
}

/// A deterministic fault schedule generator. Implementations must be
/// pure: the same layout and horizon always produce the same schedule
/// (no clocks, no ambient randomness — derive any per-node variation
/// from node ids).
pub trait Nemesis {
    /// Human-readable schedule name (appears in every failure message).
    fn name(&self) -> String;

    /// The time-ordered fault list for a deployment shaped by `layout`,
    /// covering `[0, horizon)`. Faults must self-heal within a bounded
    /// tail after `horizon` (bounded partitions, every `Crash` paired
    /// with a later `Restart`); the runner restarts any still-crashed
    /// node during its heal phase as a backstop.
    fn schedule(&self, layout: &ClusterLayout, horizon: SimDuration) -> Vec<(SimTime, Fault)>;
}

/// Every server of every cluster, in id order.
fn all_servers(layout: &ClusterLayout) -> Vec<NodeId> {
    layout.servers.iter().flatten().copied().collect()
}

/// Rolling single-node isolation: each server in turn is cut off from
/// every other node (servers *and* clients) for `outage`, one victim
/// per `period`, cycling until the horizon. The classic "one replica at
/// a time" maintenance-gone-wrong schedule.
#[derive(Debug, Clone)]
pub struct Rolling {
    /// Gap between consecutive victims.
    pub period: SimDuration,
    /// How long each victim stays isolated (≤ `period` keeps cuts
    /// non-overlapping).
    pub outage: SimDuration,
}

impl Nemesis for Rolling {
    fn name(&self) -> String {
        "rolling-partition".into()
    }

    fn schedule(&self, layout: &ClusterLayout, horizon: SimDuration) -> Vec<(SimTime, Fault)> {
        let servers = all_servers(layout);
        let mut everyone = servers.clone();
        everyone.extend(layout.clients.iter().copied());
        let mut out = Vec::new();
        let mut t = SimTime::ZERO + self.period;
        let mut i = 0usize;
        while t < SimTime::ZERO + horizon {
            let victim = servers[i % servers.len()];
            let rest: Vec<NodeId> = everyone.iter().copied().filter(|&n| n != victim).collect();
            out.push((
                t,
                Fault::Partition {
                    a: vec![victim],
                    b: rest,
                    duration: self.outage,
                    one_way: false,
                },
            ));
            t += self.period;
            i += 1;
        }
        out
    }
}

/// Flapping asymmetric inter-cluster link: every `period`, cluster 0's
/// servers lose their *outbound* path to cluster 1 for half the period,
/// then it comes back — the replies still flow, the requests vanish.
/// Exercises one-way partitions and rapid heal/cut cycling (routing
/// flaps, asymmetric firewall rules).
#[derive(Debug, Clone)]
pub struct Flapping {
    /// Full flap cycle length (down for `period / 2`, up for the rest).
    pub period: SimDuration,
}

impl Nemesis for Flapping {
    fn name(&self) -> String {
        "flapping-one-way-link".into()
    }

    fn schedule(&self, layout: &ClusterLayout, horizon: SimDuration) -> Vec<(SimTime, Fault)> {
        if layout.servers.len() < 2 {
            return Vec::new();
        }
        let a = layout.servers[0].clone();
        let b = layout.servers[1].clone();
        let down = SimDuration::from_micros(self.period.as_micros() / 2);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO + down;
        while t < SimTime::ZERO + horizon {
            out.push((
                t,
                Fault::Partition {
                    a: a.clone(),
                    b: b.clone(),
                    duration: down,
                    one_way: true,
                },
            ));
            t += self.period;
        }
        out
    }
}

/// Crash-restart cycling: every `period`, the next server (round-robin)
/// is hard-crashed, a `torn_tail`-byte partial frame is left on its WAL, and it
/// restarts after `downtime` — recovering its store from the surviving
/// log prefix and re-joining via the bootstrap protocol.
#[derive(Debug, Clone)]
pub struct CrashRestart {
    /// Gap between consecutive crashes.
    pub period: SimDuration,
    /// How long each victim stays down (< `period`: the victim must be
    /// back before the next one falls, or a 2-server cluster would lose
    /// both replicas at once).
    pub downtime: SimDuration,
    /// Bytes torn off the WAL tail at each crash.
    pub torn_tail: u64,
}

impl Nemesis for CrashRestart {
    fn name(&self) -> String {
        "crash-restart-torn-wal".into()
    }

    fn schedule(&self, layout: &ClusterLayout, horizon: SimDuration) -> Vec<(SimTime, Fault)> {
        let servers = all_servers(layout);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO + self.period;
        let mut i = 0usize;
        while t < SimTime::ZERO + horizon {
            let node = servers[i % servers.len()];
            out.push((
                t,
                Fault::Crash {
                    node,
                    torn_tail: self.torn_tail,
                },
            ));
            out.push((t + self.downtime, Fault::Restart { node }));
            t += self.period;
            i += 1;
        }
        out
    }
}

/// Periodic latency spikes: cross-node latency multiplies by `factor`
/// for the first half of every `period`, then recovers. Stresses
/// timeout-sensitive paths (2PL lock waits, op deadlines) without
/// dropping a single message.
#[derive(Debug, Clone)]
pub struct LatencySpikes {
    /// Full spike cycle (spiked for `period / 2`, normal for the rest).
    pub period: SimDuration,
    /// Latency multiplier while spiked.
    pub factor: f64,
}

impl Nemesis for LatencySpikes {
    fn name(&self) -> String {
        "latency-spikes".into()
    }

    fn schedule(&self, _layout: &ClusterLayout, horizon: SimDuration) -> Vec<(SimTime, Fault)> {
        let half = SimDuration::from_micros(self.period.as_micros() / 2);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO + half;
        while t < SimTime::ZERO + horizon {
            out.push((
                t,
                Fault::LatencyScale {
                    factor: self.factor,
                },
            ));
            out.push((t + half, Fault::LatencyScale { factor: 1.0 }));
            t += self.period;
        }
        out
    }
}

/// Live shard handoffs mid-workload: every `period` the next ring
/// token (stepping a stride so successive handoffs hit different
/// owners) moves to another position — in every cluster at once, since
/// handoffs are positional. Each cutover races in-flight transactions
/// by construction; the conformance suite asserts every engine's
/// advertised isolation survives it and that replicas still converge.
#[derive(Debug, Clone)]
pub struct Handoffs {
    /// Gap between consecutive handoffs.
    pub period: SimDuration,
}

impl Nemesis for Handoffs {
    fn name(&self) -> String {
        "shard-handoffs".into()
    }

    fn schedule(&self, layout: &ClusterLayout, horizon: SimDuration) -> Vec<(SimTime, Fault)> {
        let positions = layout.shards_per_cluster() as u32;
        if positions < 2 {
            return Vec::new(); // a single shard has nowhere to move
        }
        let ring = layout.ring();
        let tokens = ring.num_tokens();
        let mut out = Vec::new();
        let mut t = SimTime::ZERO + self.period;
        let mut i = 0u32;
        while t < SimTime::ZERO + horizon {
            let token = i.wrapping_mul(7) % tokens;
            let owner = ring.position_of_token(token);
            // Any position but the token's base owner. The broadcast is
            // ownership-agnostic (only the *current* owner acts on it),
            // so a token that already moved may get a no-op — the next
            // stride picks a fresh one.
            let to_position = (owner + 1 + i % (positions - 1)) % positions;
            out.push((t, Fault::ShardHandoff { token, to_position }));
            t += self.period;
            i += 1;
        }
        out
    }
}

/// One clean inter-datacenter split: for the middle half of the
/// horizon, every node of cluster 0 — its servers *and* its home
/// clients — is cut both ways from everything in the other clusters.
/// Each side stays internally healthy, so this is the paper's §6
/// experiment in schedule form: HAT engines keep committing against
/// their local replicas straight through the split, while 2PL (whose
/// writes must lock every positional replica) produces exactly zero
/// commits inside the window and recovers after the heal. The PR-10
/// time series makes that split visible per window instead of
/// flattening it into run totals.
#[derive(Debug, Clone)]
pub struct SplitBrain;

impl SplitBrain {
    /// The partition window `[begin, end)` this schedule opens for a
    /// given horizon — `[horizon/4, 3·horizon/4)`. Exposed so tests and
    /// the experiment binary can assert per-window behavior without
    /// re-deriving the fractions.
    pub fn window(horizon: SimDuration) -> (SimTime, SimTime) {
        let quarter = SimDuration::from_micros(horizon.as_micros() / 4);
        let begin = SimTime::ZERO + quarter;
        (begin, begin + quarter + quarter)
    }
}

impl Nemesis for SplitBrain {
    fn name(&self) -> String {
        "split-brain".into()
    }

    fn schedule(&self, layout: &ClusterLayout, horizon: SimDuration) -> Vec<(SimTime, Fault)> {
        if layout.servers.len() < 2 {
            return Vec::new();
        }
        // Each side of the cut is a whole datacenter: its servers plus
        // the clients homed there, so intra-DC traffic keeps flowing.
        let mut sides: Vec<Vec<NodeId>> = layout.servers.clone();
        for (i, &c) in layout.clients.iter().enumerate() {
            sides[layout.client_home[i]].push(c);
        }
        let a = sides.remove(0);
        let b: Vec<NodeId> = sides.into_iter().flatten().collect();
        let (begin, end) = Self::window(horizon);
        vec![(
            begin,
            Fault::Partition {
                a,
                b,
                duration: end.since(begin),
                one_way: false,
            },
        )]
    }
}

/// Runs several nemeses at once: the union of their schedules, stably
/// sorted by fire time (ties keep constituent order). This is where the
/// harness earns its keep — a crash *during* a partition *under* a
/// latency spike is the adversary none of the single-fault tests construct.
pub struct Compose {
    /// The constituent schedule generators.
    pub parts: Vec<Box<dyn Nemesis>>,
}

impl Compose {
    /// Composes `parts` into one schedule.
    pub fn new(parts: Vec<Box<dyn Nemesis>>) -> Self {
        Compose { parts }
    }
}

impl Nemesis for Compose {
    fn name(&self) -> String {
        self.parts
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    fn schedule(&self, layout: &ClusterLayout, horizon: SimDuration) -> Vec<(SimTime, Fault)> {
        let mut out: Vec<(SimTime, Fault)> = self
            .parts
            .iter()
            .flat_map(|p| p.schedule(layout, horizon))
            .collect();
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

/// The six canonical schedules every engine must survive: a clean
/// inter-DC split-brain, rolling partitions, a flapping one-way link,
/// crash-restart with torn WAL tails, the partition/crash/latency
/// faults composed at once, and live shard handoffs racing the
/// workload. The conformance suite and the
/// `exp_nemesis` experiment binary share this catalog, so a schedule
/// added here is exercised by both.
pub fn standard_catalog() -> Vec<Box<dyn Nemesis>> {
    vec![
        Box::new(SplitBrain),
        Box::new(Rolling {
            period: SimDuration::from_millis(80),
            outage: SimDuration::from_millis(40),
        }),
        Box::new(Flapping {
            period: SimDuration::from_millis(60),
        }),
        Box::new(CrashRestart {
            period: SimDuration::from_millis(140),
            downtime: SimDuration::from_millis(50),
            torn_tail: 48,
        }),
        Box::new(Compose::new(vec![
            Box::new(Rolling {
                period: SimDuration::from_millis(160),
                outage: SimDuration::from_millis(40),
            }),
            Box::new(CrashRestart {
                period: SimDuration::from_millis(200),
                downtime: SimDuration::from_millis(60),
                torn_tail: 32,
            }),
            Box::new(LatencySpikes {
                period: SimDuration::from_millis(120),
                factor: 6.0,
            }),
        ])),
        // Handoffs stay un-composed with crashes: a crashed server loses
        // its in-memory handoff state, which models a different failure
        // (split ownership recovery) than live rebalancing under load.
        Box::new(Handoffs {
            period: SimDuration::from_millis(70),
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_core::{ClusterSpec, DeploymentBuilder, ProtocolKind};

    fn layout() -> std::sync::Arc<ClusterLayout> {
        let front = DeploymentBuilder::new(ProtocolKind::Eventual)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(2)
            .build();
        std::sync::Arc::new(front.layout().clone())
    }

    #[test]
    fn schedules_are_pure_functions_of_layout_and_horizon() {
        let l = layout();
        let h = SimDuration::from_millis(500);
        let n = Compose::new(vec![
            Box::new(Rolling {
                period: SimDuration::from_millis(80),
                outage: SimDuration::from_millis(40),
            }),
            Box::new(CrashRestart {
                period: SimDuration::from_millis(120),
                downtime: SimDuration::from_millis(50),
                torn_tail: 48,
            }),
        ]);
        assert_eq!(n.schedule(&l, h), n.schedule(&l, h));
        assert!(!n.schedule(&l, h).is_empty());
    }

    #[test]
    fn compose_merges_sorted_and_names_every_part() {
        let l = layout();
        let h = SimDuration::from_millis(400);
        let n = Compose::new(vec![
            Box::new(Flapping {
                period: SimDuration::from_millis(60),
            }),
            Box::new(LatencySpikes {
                period: SimDuration::from_millis(100),
                factor: 8.0,
            }),
        ]);
        let s = n.schedule(&l, h);
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0), "schedule unsorted");
        assert_eq!(n.name(), "flapping-one-way-link+latency-spikes");
    }

    #[test]
    fn crash_restart_pairs_every_crash_with_a_later_restart() {
        let l = layout();
        let s = CrashRestart {
            period: SimDuration::from_millis(100),
            downtime: SimDuration::from_millis(40),
            torn_tail: 32,
        }
        .schedule(&l, SimDuration::from_millis(600));
        let crashes: Vec<_> = s
            .iter()
            .filter_map(|(t, f)| match f {
                Fault::Crash { node, .. } => Some((*t, *node)),
                _ => None,
            })
            .collect();
        assert!(!crashes.is_empty());
        for (t, node) in crashes {
            assert!(
                s.iter().any(
                    |(rt, f)| matches!(f, Fault::Restart { node: n } if *n == node) && *rt > t
                ),
                "crash of {node} at {t:?} has no later restart"
            );
        }
    }
}
