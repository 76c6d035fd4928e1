//! System configuration: protocol choice and the server service-time
//! model.

use crate::taxonomy::{Model, Taxonomy};
use hat_sim::SimDuration;

/// Which concurrency-control / replication protocol the deployment runs.
///
/// The first three are the HAT configurations of §6.3; the last two are
/// the unavailable baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Last-writer-wins Read Uncommitted with all-to-all anti-entropy —
    /// the paper's `eventual`.
    Eventual,
    /// `eventual` plus client-side write buffering until commit — the
    /// paper's `RC` ("essentially eventual with buffering").
    ReadCommitted,
    /// The efficient Monotonic Atomic View algorithm of §5.1.2 /
    /// Appendix B (pending/good sets, sibling notifications, `required`
    /// vectors).
    Mav,
    /// Read Atomic visibility, RAMP-Fast style: each write carries its
    /// transaction's full write-set as metadata, readers detect
    /// fractured reads from that metadata and repair them with a second
    /// round of by-timestamp fetches. One-round reads in the race-free
    /// case; no server-side sibling-notification fan-in at all.
    RampFast,
    /// Read Atomic visibility, RAMP-Small style: constant-size
    /// (timestamp-only) metadata. Reads always take two rounds — fetch
    /// the latest committed stamp, then fetch the newest version whose
    /// stamp is in the transaction's observed-timestamp set.
    RampSmall,
    /// All operations for a key routed to a designated master replica,
    /// guaranteeing single-key linearizability (as in the CAP proof and
    /// PNUTS "read latest") — the paper's `master`.
    Master,
    /// Distributed two-phase locking: per-key exclusive/shared locks at
    /// the key's master, held until commit. One-copy serializable and
    /// thoroughly unavailable.
    TwoPhaseLocking,
}

/// How a transaction fetches its reads — the one input besides the
/// engine that decides which Table 3 model a history holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// The read set is fetched as one batch: a closed-loop plan or a
    /// one-shot `get_many`.
    Batched,
    /// Interactive `get`s, one round trip at a time.
    Sequential,
}

impl ProtocolKind {
    /// The Table 3 model this engine guarantees for reads fetched by
    /// `reads` — the only statement of each engine's guarantee; its
    /// availability class is [`Model::availability`].
    ///
    /// RAMP-S is Read Atomic only for a read set fetched as one batch:
    /// its constant-size metadata cannot name what an *earlier*
    /// sequential read missed, so sequential reads give atomic view.
    /// Master linearizes each key, but multi-key transactions neither
    /// serialize nor buffer writes until commit.
    pub fn model(self, reads: ReadMode) -> Model {
        match self {
            ProtocolKind::Eventual => Model::ReadUncommitted,
            ProtocolKind::ReadCommitted => Model::ReadCommitted,
            ProtocolKind::Mav => Model::MonotonicAtomicView,
            ProtocolKind::RampFast => Model::ReadAtomic,
            ProtocolKind::RampSmall => match reads {
                ReadMode::Batched => Model::ReadAtomic,
                ReadMode::Sequential => Model::MonotonicAtomicView,
            },
            ProtocolKind::Master => Model::Linearizability,
            ProtocolKind::TwoPhaseLocking => Model::OneCopySerializability,
        }
    }

    /// Short label used in experiment output (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Eventual => "eventual",
            ProtocolKind::ReadCommitted => "RC",
            ProtocolKind::Mav => "MAV",
            ProtocolKind::RampFast => "RAMP-F",
            ProtocolKind::RampSmall => "RAMP-S",
            ProtocolKind::Master => "master",
            ProtocolKind::TwoPhaseLocking => "2PL",
        }
    }

    /// Streaming-checker policy for this engine: a phenomenon is checked
    /// online when the engine's model for [`ReadMode::Sequential`] is,
    /// or implies, the model that prohibits it — Read Atomic for
    /// fractured reads, Monotonic Reads for session read regression. A
    /// commit does not say how its reads were fetched, so the weaker
    /// read mode decides.
    pub fn checker_policy(self) -> hat_obs::CheckerPolicy {
        let model = self.model(ReadMode::Sequential);
        let taxonomy = Taxonomy::new();
        let at_least = |m: Model| model == m || taxonomy.stronger_than(model, m);
        hat_obs::CheckerPolicy {
            fractured: at_least(Model::ReadAtomic),
            monotonic: at_least(Model::MonotonicReads),
        }
    }

    /// All protocol kinds, HAT first (the order used in experiment
    /// tables).
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::Eventual,
        ProtocolKind::ReadCommitted,
        ProtocolKind::Mav,
        ProtocolKind::RampFast,
        ProtocolKind::RampSmall,
        ProtocolKind::Master,
        ProtocolKind::TwoPhaseLocking,
    ];
}

/// Server-side service-time model.
///
/// The simulator charges each request a service duration at the replica
/// that handles it; a replica is a single queue (requests are serialized),
/// which is what produces the saturation and contention shapes of
/// Figures 3–6. Defaults are calibrated so the *ratios* the paper reports
/// hold: writes ≈ 4× reads (LevelDB write + synchronous WAL, Figure 5's
/// all-read vs all-write gap), MAV writes ≈ 1.5× plain writes plus a
/// per-metadata-byte cost (Figure 4) plus a per-sibling-replica
/// notification cost (the five-cluster fan-in effect of Figure 3C).
///
/// The costs are calibration, not workload inputs: a deployment runs
/// either the calibrated model ([`ServiceModel::default`]) or the free
/// one ([`ServiceModel::zero`]), and the server and engines read each
/// cost through a method.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Service time of a read, µs.
    read_us: f64,
    /// Service time of a write (WAL + storage), µs.
    write_us: f64,
    /// MAV write amplification factor ("two writes for every client-side
    /// write": WAL/pending put then good promotion).
    mav_write_factor: f64,
    /// Cost per byte of MAV sibling metadata, µs/byte.
    meta_byte_us: f64,
    /// Cost of processing one MAV sibling notification, µs.
    notify_us: f64,
    /// Cost of applying one anti-entropy record, µs.
    replicate_record_us: f64,
    /// Cost of a lock-table operation (grant/enqueue/release), µs.
    lock_us: f64,
    /// Cost of a predicate scan per matched record, µs.
    scan_record_us: f64,
    /// Cost of a RAMP-Small first-round timestamp read (no value moved,
    /// constant-size reply), µs.
    ts_read_us: f64,
    /// Cost of applying a RAMP commit marker (promote prepared →
    /// visible), µs.
    ramp_commit_us: f64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            read_us: 100.0,
            write_us: 400.0,
            mav_write_factor: 1.5,
            meta_byte_us: 0.15,
            notify_us: 40.0,
            replicate_record_us: 120.0,
            lock_us: 20.0,
            scan_record_us: 20.0,
            ts_read_us: 40.0,
            ramp_commit_us: 40.0,
        }
    }
}

impl ServiceModel {
    /// A free service model (all costs zero) for ablations that isolate
    /// pure network effects.
    pub fn zero() -> Self {
        ServiceModel {
            read_us: 0.0,
            write_us: 0.0,
            mav_write_factor: 1.0,
            meta_byte_us: 0.0,
            notify_us: 0.0,
            replicate_record_us: 0.0,
            lock_us: 0.0,
            scan_record_us: 0.0,
            ts_read_us: 0.0,
            ramp_commit_us: 0.0,
        }
    }

    /// Service duration of a MAV write carrying `meta_bytes` of sibling
    /// metadata.
    pub fn mav_write(&self, meta_bytes: usize) -> SimDuration {
        SimDuration::from_micros(
            (self.write_us * self.mav_write_factor + self.meta_byte_us * meta_bytes as f64) as u64,
        )
    }

    /// Plain write service duration.
    pub fn write(&self) -> SimDuration {
        SimDuration::from_micros(self.write_us as u64)
    }

    /// Read service duration.
    pub fn read(&self) -> SimDuration {
        SimDuration::from_micros(self.read_us as u64)
    }

    /// RAMP-Small first-round (timestamp-only) read service duration.
    pub fn ts_read(&self) -> SimDuration {
        SimDuration::from_micros(self.ts_read_us as u64)
    }

    /// Service duration of a batch of `marks` RAMP commit markers, each
    /// charged its full commit cost.
    pub fn ramp_commits(&self, marks: usize) -> SimDuration {
        SimDuration::from_micros((self.ramp_commit_us * marks as f64) as u64)
    }

    /// Service duration of a RAMP prepare carrying `meta_bytes` of
    /// write-set metadata: a plain durable write plus the per-byte
    /// metadata cost (no MAV-style write amplification — the second
    /// phase is a cheap commit marker, charged separately).
    pub fn ramp_prepare(&self, meta_bytes: usize) -> SimDuration {
        SimDuration::from_micros((self.write_us + self.meta_byte_us * meta_bytes as f64) as u64)
    }

    /// Service duration of a predicate scan that matched `matches`
    /// records: one read plus a per-record cost.
    pub fn scan(&self, matches: usize) -> SimDuration {
        SimDuration::from_micros((self.read_us + self.scan_record_us * matches as f64) as u64)
    }

    /// Service duration of applying `records` replicated records (gossip,
    /// recovery dumps, handoff chunks).
    pub fn replicate(&self, records: usize) -> SimDuration {
        SimDuration::from_micros((self.replicate_record_us * records as f64) as u64)
    }

    /// Service duration of a MAV notification message carrying `acks`
    /// sibling acknowledgements (at least one is charged).
    pub fn notify(&self, acks: usize) -> SimDuration {
        SimDuration::from_micros(self.notify_us as u64 * acks.max(1) as u64)
    }

    /// Service duration of one lock-table operation.
    pub fn lock(&self) -> SimDuration {
        SimDuration::from_micros(self.lock_us as u64)
    }
}

/// Client retry/backoff policy for outstanding requests.
///
/// Replaces the previously hardcoded backoff constants: a retried
/// request waits `base × multiplier^min(attempts, max_exponent)` before
/// the next attempt. Without the exponential component a saturated
/// server turns slow commits into a retry storm; the cap keeps sticky
/// clients probing often enough to notice a healed partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Per-attempt backoff multiplier.
    pub multiplier: u64,
    /// Exponent cap: attempts beyond this reuse the maximum delay.
    pub max_exponent: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_millis(1000),
            multiplier: 2,
            max_exponent: 4,
        }
    }
}

impl RetryPolicy {
    /// The delay scheduled after `attempts` failed tries.
    pub fn backoff(&self, attempts: u32) -> SimDuration {
        let factor = self
            .multiplier
            .max(1)
            .saturating_pow(attempts.min(self.max_exponent));
        self.base.saturating_mul(factor)
    }
}

/// Full deployment configuration shared by servers and clients.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Protocol the deployment runs.
    pub protocol: ProtocolKind,
    /// Server service-time model.
    pub service: ServiceModel,
    /// Client retry/backoff policy for outstanding requests.
    pub retry: RetryPolicy,
    /// Per-operation deadline after which the facade reports
    /// unavailability.
    pub op_deadline: SimDuration,
    /// 2PL: how long a lock request may wait before the system aborts the
    /// transaction (external abort; also the deadlock breaker).
    pub lock_timeout: SimDuration,
    /// Whether clients record full [`crate::TxnRecord`] histories (turn
    /// off for throughput runs).
    pub record_history: bool,
    /// Structured tracing. When `false` (the default) every node carries
    /// a no-op [`hat_trace::TraceSink`] — recording is a branch on a
    /// `None`, no allocation, no lock. When `true` the deployment builder
    /// installs one shared sink on every client, server, and the network,
    /// exported via the frontend. Tracing observes the same seeded
    /// schedule either way: same-seed runs are bit-identical with it on
    /// or off.
    pub trace: bool,
    /// Live telemetry (hat-obs). Same determinism contract as `trace`:
    /// disabled (the default) costs one branch per hook; enabled, the
    /// sampler and probes only *read* simulation state and draw nothing
    /// from the rng, so same-seed runs are bit-identical on or off.
    pub obs: ObsConfig,
}

/// Live-telemetry configuration (see `hat-obs`). The sampling cadence,
/// probe rate and checker window are hat-obs constants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Master switch; when false the deployment carries no-op sinks.
    pub enabled: bool,
}

impl SystemConfig {
    /// Defaults for `protocol`.
    pub fn new(protocol: ProtocolKind) -> Self {
        SystemConfig {
            protocol,
            service: ServiceModel::default(),
            retry: RetryPolicy::default(),
            op_deadline: SimDuration::from_secs(30),
            lock_timeout: SimDuration::from_secs(10),
            record_history: true,
            trace: false,
            obs: ObsConfig::default(),
        }
    }

    /// How long a deployment must run, mutation-free, for replication to
    /// quiesce: enough anti-entropy rounds *and* WAN round trips for
    /// every write (and, under MAV, every sibling notification) to reach
    /// every replica.
    pub fn quiesce_duration(&self) -> SimDuration {
        self.quiesce_duration_scaled(1.0)
    }

    /// [`SystemConfig::quiesce_duration`] with the WAN term scaled by
    /// `wan_scale` — for runtimes that scale network latency but run
    /// timers (the anti-entropy term) in real time, like the threaded
    /// runtime's `latency_scale`.
    pub fn quiesce_duration_scaled(&self, wan_scale: f64) -> SimDuration {
        let wan = SimDuration::from_micros((WAN_RTT_BOUND.as_micros() as f64 * wan_scale) as u64);
        (ANTI_ENTROPY_INTERVAL + wan).saturating_mul(QUIESCE_ROUNDS)
    }
}

/// Anti-entropy gossip period between sibling replicas.
pub(crate) const ANTI_ENTROPY_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Upper bound on one WAN round trip (the largest Table 1c mean is São
/// Paulo–Singapore at ~363ms). Used to derive the quiesce duration.
const WAN_RTT_BOUND: SimDuration = SimDuration::from_millis(400);

/// Rounds of (anti-entropy interval + WAN RTT) covered by a quiesce:
/// gossip propagation is clique-wide, but MAV promotion needs a write to
/// replicate *and* its notifications to fan back in, with retries.
const QUIESCE_ROUNDS: u64 = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legend() {
        let labels: Vec<_> = ProtocolKind::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec!["eventual", "RC", "MAV", "RAMP-F", "RAMP-S", "master", "2PL"]
        );
    }

    #[test]
    fn writes_cost_about_4x_reads() {
        let m = ServiceModel::default();
        let ratio = m.write_us / m.read_us;
        assert!(
            (3.0..=5.0).contains(&ratio),
            "Figure 5's all-read/all-write gap needs writes ~4x reads, got {ratio}"
        );
    }

    #[test]
    fn mav_write_grows_with_metadata() {
        let m = ServiceModel::default();
        let short = m.mav_write(34); // 1-op txn overhead (paper, Fig 4)
        let long = m.mav_write(1898); // 128-op txn overhead
        assert!(long > short);
        assert!(long.as_micros() > m.write().as_micros());
    }

    #[test]
    fn retry_policy_backs_off_exponentially_with_cap() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), SimDuration::from_millis(1000));
        assert_eq!(p.backoff(1), SimDuration::from_millis(2000));
        assert_eq!(p.backoff(4), SimDuration::from_millis(16000));
        assert_eq!(p.backoff(9), p.backoff(4), "capped at max_exponent");
    }

    #[test]
    fn quiesce_duration_tracks_config() {
        let c = SystemConfig::new(ProtocolKind::Mav);
        assert_eq!(
            c.quiesce_duration(),
            SimDuration::from_millis(5 * (10 + 400))
        );
        assert!(
            c.quiesce_duration_scaled(0.1) < c.quiesce_duration(),
            "shorter links quiesce faster"
        );
    }

    #[test]
    fn zero_model_is_free() {
        let m = ServiceModel::zero();
        assert_eq!(m.read().as_micros(), 0);
        assert_eq!(m.mav_write(10_000).as_micros(), 0);
        assert_eq!(m.ramp_prepare(10_000).as_micros(), 0);
        assert_eq!(m.ts_read().as_micros(), 0);
    }

    #[test]
    fn ramp_costs_sit_between_plain_and_mav() {
        let m = ServiceModel::default();
        // RAMP prepare pays metadata bytes but not MAV's write
        // amplification; the second phase is a cheap marker.
        assert!(m.ramp_prepare(100) > m.write());
        assert!(m.ramp_prepare(100) < m.mav_write(100));
        // A timestamp-only read is cheaper than a value read.
        assert!(m.ts_read() < m.read());
    }
}
