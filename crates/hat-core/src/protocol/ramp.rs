//! Read Atomic visibility, RAMP style: atomic visibility without MAV's
//! sibling-notification fan-in.
//!
//! The paper proves Read Atomic isolation is HAT-compliant and sketches
//! MAV (§5.1.2) as one implementation: servers gossip `notify(ts)`
//! messages until a write is *pending stable* everywhere. The RAMP
//! family inverts the responsibility — **readers repair fractured reads
//! from per-write metadata**, and servers never coordinate with each
//! other beyond ordinary anti-entropy:
//!
//! * Writes are two-phase but master-less: the client PREPAREs every
//!   written key at its replica (the version lands in a `prepared` set,
//!   invisible to ordinary reads but fetchable by exact stamp), then
//!   COMMITs each key with a constant-size marker that promotes the
//!   version to visible. Prepared versions never abort, so serving them
//!   to an exact-stamp fetch is safe.
//! * [`RampFastEngine`] — RAMP-Fast: each record carries its
//!   transaction's full write-set (`Record::siblings`). Reads are one
//!   round; the *client* detects a fractured read by comparing the
//!   metadata against what the transaction already observed and issues a
//!   second-round [`VersionReq`] fetch only then.
//! * [`RampSmallEngine`] — RAMP-Small: constant-size (timestamp-only)
//!   metadata. Reads always take two rounds: fetch the latest committed
//!   stamp, then fetch the newest version whose stamp is in the
//!   transaction's observed-stamp set.
//!
//! Server-side, both engines are the same state machine ([`RampCore`]);
//! the difference is entirely in what the client attaches to writes and
//! how it drives reads ([`RampFastClient`], [`RampSmallClient`]; the
//! two-phase commit they share is [`TwoPhaseWrite`]). An exact-stamp fetch that
//! arrives before its version does is **parked** and answered when the
//! prepare or anti-entropy copy lands — the reader-side analogue of
//! MAV's "pending guarantee", without any server→server notification
//! traffic.
//!
//! Geo-replication caveat (the RAMP paper is single-cluster): prepares
//! and commits are synchronous only within the writer's cluster; other
//! clusters converge by anti-entropy. RAMP-Fast metadata lets remote
//! readers repair (or park) across that lag too; RAMP-Small's
//! timestamp-only metadata cannot name what it is missing, so its
//! guarantee is exact within a cluster and best-effort across the WAN.

use crate::client::{bottom, sibling_bytes, ClientCore, Done, Placement};
use crate::messages::{Msg, TS_WIRE_BYTES};
use crate::protocol::engine::{ClientProtocol, EngineMsg, ProtocolEngine, ServerView, Step};
use crate::timestamp::Timestamp;
use crate::txn::TxnOutcome;
use hat_sim::{Ctx, NodeId, SimDuration};
use hat_storage::{Key, Memtable, Record, SharedRecord, Store};
use hat_trace::OpKind;
use std::collections::{BTreeMap, BTreeSet};

/// Which version a RAMP second-round fetch asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum VersionReq {
    /// Exactly this stamp (RAMP-Fast repair: the sibling version named
    /// in another record's metadata). The server may hold the reply
    /// until the version arrives — it is guaranteed to be in flight.
    Exact(Timestamp),
    /// The newest committed version at or below this stamp (RAMP-Fast
    /// ceiling repair: a later read must not expose a write-set a
    /// previously returned read fractures).
    AtOrBelow(Timestamp),
    /// The newest version whose stamp is in this set (RAMP-Small second
    /// round: the transaction's observed-timestamp set).
    Among(Vec<Timestamp>),
}

/// RAMP's messages: the body of an [`EngineMsg::Ramp`]. Requests travel
/// in a [`Msg::EngineReq`], answers in a [`Msg::EngineResp`].
#[derive(Debug, Clone, PartialEq)]
pub enum RampMsg {
    /// RAMP-Small round 1: fetch the latest *committed stamp* of `key`
    /// (no value moves — this is the constant-size metadata read).
    GetTs {
        /// Key whose latest committed stamp is wanted.
        key: Key,
    },
    /// Answer to [`RampMsg::GetTs`].
    GetTsResp {
        /// Latest committed stamp (INITIAL when the key has no version).
        ts: Timestamp,
    },
    /// Second-round fetch: a specific version of `key`, selected by
    /// `req` (exact sibling stamp, ceiling, or timestamp set). Carries
    /// the op id of the read it continues.
    GetVersion {
        /// Key to fetch.
        key: Key,
        /// Which version is wanted.
        req: VersionReq,
    },
    /// Answer to [`RampMsg::GetVersion`].
    GetVersionResp {
        /// The version found, or `None` when nothing satisfies the
        /// request.
        found: Option<SharedRecord>,
    },
    /// Commit markers, group-committed: promote the prepared versions
    /// of the marked keys stamped `ts` to visible (phase 2 of the
    /// two-phase write). Every marker a transaction owes one server is
    /// coalesced into a single message, registered under its first
    /// mark's op.
    CommitBatch {
        /// Stamp of the versions committing (the transaction's write
        /// stamp).
        ts: Timestamp,
        /// `(op, key)` commit marks, in op order.
        marks: Box<[(u32, Key)]>,
    },
    /// Answer to [`RampMsg::CommitBatch`]: every mark in the batch was
    /// applied.
    CommitBatchResp {
        /// Op indexes of the acknowledged marks.
        ops: Vec<u32>,
    },
}

impl RampMsg {
    pub(super) fn label(&self) -> &'static str {
        match self {
            RampMsg::GetTs { .. } => "GetTs",
            RampMsg::GetTsResp { .. } => "GetTsResp",
            RampMsg::GetVersion { .. } => "GetVersion",
            RampMsg::GetVersionResp { .. } => "GetVersionResp",
            RampMsg::CommitBatch { .. } => "CommitBatch",
            RampMsg::CommitBatchResp { .. } => "CommitBatchResp",
        }
    }

    pub(super) fn approx_bytes(&self) -> u64 {
        const TS: u64 = TS_WIRE_BYTES;
        match self {
            RampMsg::GetTs { key } => TS + 4 + key.len() as u64,
            RampMsg::GetTsResp { .. } => TS + 4 + TS,
            RampMsg::GetVersion { key, req } => {
                let req_bytes = match req {
                    VersionReq::Exact(_) | VersionReq::AtOrBelow(_) => TS,
                    VersionReq::Among(set) => TS * set.len() as u64,
                };
                TS + 4 + key.len() as u64 + req_bytes
            }
            RampMsg::GetVersionResp { found } => {
                TS + 4 + found.as_ref().map_or(0, |r| r.encoded_len() as u64)
            }
            RampMsg::CommitBatch { marks, .. } => {
                TS + TS + marks.iter().map(|(_, k)| 4 + k.len() as u64).sum::<u64>()
            }
            RampMsg::CommitBatchResp { ops } => TS + 4 * ops.len() as u64,
        }
    }

    pub(super) fn key(&self) -> Option<&Key> {
        match self {
            RampMsg::GetTs { key } | RampMsg::GetVersion { key, .. } => Some(key),
            _ => None,
        }
    }

    pub(super) fn answers(&self, request: &RampMsg) -> bool {
        matches!(
            (self, request),
            (RampMsg::GetTsResp { .. }, RampMsg::GetTs { .. })
                | (RampMsg::GetVersionResp { .. }, RampMsg::GetVersion { .. })
                | (RampMsg::CommitBatchResp { .. }, RampMsg::CommitBatch { .. })
        )
    }
}

/// Sends `reply` to `to` as the answer to its request `(txn, op)`.
fn reply_after(
    ctx: &mut Ctx<'_, Msg>,
    hold: SimDuration,
    to: NodeId,
    txn: Timestamp,
    op: u32,
    reply: RampMsg,
) {
    let body = EngineMsg::Ramp(reply);
    ctx.send_after(hold, to, Msg::EngineResp { txn, op, body });
}

/// Resolves a [`VersionReq`] against the visible store.
fn resolve_version(store: &dyn Store, key: &Key, req: &VersionReq) -> Option<SharedRecord> {
    match req {
        VersionReq::Exact(ts) => store.exact(key, *ts),
        VersionReq::AtOrBelow(ts) => store.latest_at_or_below(key, *ts),
        VersionReq::Among(set) => set
            .iter()
            .filter_map(|ts| store.exact(key, *ts))
            .max_by_key(|r| r.stamp),
    }
}

/// A reader waiting on a parked exact-stamp fetch.
type Waiter = (NodeId, Timestamp, u32);

/// Shared server-side RAMP state: the prepared set and the parked
/// exact-stamp fetches. The visible ("committed") set is the server's
/// ordinary store.
#[derive(Debug, Default)]
pub struct RampCore {
    /// Prepared-but-uncommitted versions, fetchable by exact stamp only.
    prepared: Memtable,
    /// Anti-entropy ticks each prepared `(key, stamp)` has survived.
    /// RAMP writes never abort once prepared, so a version whose commit
    /// marker was lost (client crashed/abandoned mid-commit) is
    /// promoted after [`COOPERATIVE_TERMINATION_TICKS`] — the
    /// simulation's stand-in for the RAMP paper's cooperative
    /// termination, and the bound on how long the prepared set and any
    /// parked fetches can outlive their writer.
    prepared_age: BTreeMap<(Key, Timestamp), u32>,
    /// Exact-stamp fetches whose version has not arrived yet, keyed by
    /// `(key, stamp)`. Ordered map: reply order must not depend on hash
    /// seeds or same-seed runs diverge.
    parked: BTreeMap<(Key, Timestamp), Vec<Waiter>>,
    /// Anti-entropy ticks each parked slot has waited; slots older than
    /// [`PARKED_GC_TICKS`] are dropped (their readers have long since
    /// hit the operation deadline and abandoned).
    parked_age: BTreeMap<(Key, Timestamp), u32>,
    /// `Among` fetches that matched nothing in their set — routine for
    /// keys with no committed history; the answer is then `None` (`⊥`),
    /// never an out-of-set version (which could itself fracture).
    pub among_misses: u64,
}

/// Anti-entropy ticks a prepared version survives before the replica
/// promotes it on its own (cooperative termination: prepares never
/// abort, so a lost commit marker only *delays* visibility).
const COOPERATIVE_TERMINATION_TICKS: u32 = 8;

/// Anti-entropy ticks a parked exact-stamp fetch is held before being
/// dropped (the reader's operation deadline is long past).
const PARKED_GC_TICKS: u32 = 64;

impl RampCore {
    /// Installs a PREPARE: the version becomes fetchable by exact stamp
    /// but stays invisible to ordinary reads. Resolves parked fetches.
    /// Idempotent (commit retries and anti-entropy make redelivery
    /// routine).
    fn prepare(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        rec: SharedRecord,
    ) {
        let ts = rec.stamp;
        if view.store.exact(&key, ts).is_some() || self.prepared.exact(&key, ts).is_some() {
            return; // duplicate delivery
        }
        // The prepared set, any parked-reader replies, and the eventual
        // visible/gossip copies all share this one allocation.
        self.prepared.insert(key.clone(), rec.clone());
        self.prepared_age.insert((key.clone(), ts), 0);
        self.release_parked(view, ctx, &key, ts, &rec);
    }

    /// Applies a COMMIT marker: the prepared version becomes visible and
    /// is queued for anti-entropy gossip. Idempotent.
    fn commit_mark(&mut self, view: &mut ServerView<'_>, key: Key, ts: Timestamp) {
        let Some(rec) = self.prepared.remove(&key, ts) else {
            return; // already committed (retry) or never prepared here
        };
        self.prepared_age.remove(&(key.clone(), ts));
        // A failed put surfaces at the server's durability barrier (see
        // `lww_apply`); a version the store refused is not gossiped.
        if view.store.put(key.clone(), rec.clone()).is_ok() {
            view.repl.push(key, rec);
        }
    }

    /// Per anti-entropy tick: cooperative termination of orphaned
    /// prepares and garbage collection of stale parked fetches. Keeps
    /// both side tables bounded even when a writer abandons mid-commit.
    fn on_tick(&mut self, view: &mut ServerView<'_>) {
        let mut promote = Vec::new();
        for (slot, age) in self.prepared_age.iter_mut() {
            *age += 1;
            if *age >= COOPERATIVE_TERMINATION_TICKS {
                promote.push(slot.clone());
            }
        }
        // Bounded per tick, like MAV's notification replay.
        for (key, ts) in promote.into_iter().take(256) {
            self.commit_mark(view, key, ts);
        }
        let mut drop_slots = Vec::new();
        for (slot, age) in self.parked_age.iter_mut() {
            *age += 1;
            if *age >= PARKED_GC_TICKS {
                drop_slots.push(slot.clone());
            }
        }
        for slot in drop_slots {
            self.parked.remove(&slot);
            self.parked_age.remove(&slot);
        }
    }

    /// Installs an anti-entropy copy: gossip ships committed versions,
    /// so the record goes straight to the visible store (no re-gossip —
    /// peers form a clique). Resolves parked fetches.
    fn apply_replicated(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        rec: SharedRecord,
    ) {
        let ts = rec.stamp;
        // A gossiped commit supersedes a local prepare of the same
        // version (possible when a commit marker was lost to a
        // partition but the origin's gossip got through).
        let _ = self.prepared.remove(&key, ts);
        self.prepared_age.remove(&(key.clone(), ts));
        let _ = view.store.put(key.clone(), rec.clone());
        self.release_parked(view, ctx, &key, ts, &rec);
    }

    /// Answers every fetch parked on `(key, ts)`. The reply is held for
    /// one read's service time — the release happens inside another
    /// request's apply, but the read itself is not free (without the
    /// hold, repair latencies under contention would be understated in
    /// exactly the comparison `hat-experiments ramp` makes).
    fn release_parked(
        &mut self,
        view: &ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: &Key,
        ts: Timestamp,
        rec: &SharedRecord,
    ) {
        let Some(waiters) = self.parked.remove(&(key.clone(), ts)) else {
            return;
        };
        self.parked_age.remove(&(key.clone(), ts));
        let hold = view.config.service.read();
        for (from, txn, op) in waiters {
            let found = Some(rec.clone());
            reply_after(ctx, hold, from, txn, op, RampMsg::GetVersionResp { found });
        }
    }

    /// Serves one RAMP request from `from`: each is charged its service
    /// time and answered once the queue drains — a parked fetch later,
    /// when its version arrives.
    fn on_message(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        txn: Timestamp,
        op: u32,
        body: EngineMsg,
    ) {
        match body {
            // Round 1 of RAMP-Small: the latest visible stamp, a
            // constant-size reply.
            EngineMsg::Ramp(RampMsg::GetTs { key }) => {
                let hold = view.service(ctx.now(), view.config.service.ts_read());
                let latest = view.store.latest(&key);
                let ts = latest.map_or(Timestamp::INITIAL, |r| r.stamp);
                reply_after(ctx, hold, from, txn, op, RampMsg::GetTsResp { ts });
            }
            EngineMsg::Ramp(RampMsg::GetVersion { key, req }) => {
                let hold = view.service(ctx.now(), view.config.service.read());
                if let Some(found) = self.read_version(view, (from, txn, op), &key, &req) {
                    reply_after(ctx, hold, from, txn, op, RampMsg::GetVersionResp { found });
                }
            }
            // Every mark is charged its full commit cost; the saving over
            // one message per mark is the round trips.
            EngineMsg::Ramp(RampMsg::CommitBatch { ts, marks }) => {
                view.stats.commit_batches += 1;
                view.stats.commit_batch_size += marks.len() as u64;
                let cost = view.config.service.ramp_commits(marks.len());
                let hold = view.service(ctx.now(), cost);
                let mut ops = Vec::with_capacity(marks.len());
                for (mark, key) in marks.into_vec() {
                    self.commit_mark(view, key, ts);
                    ops.push(mark);
                }
                reply_after(ctx, hold, from, txn, op, RampMsg::CommitBatchResp { ops });
            }
            // Answers, and other engines' bodies, never reach a RAMP server.
            _ => {}
        }
    }

    /// Serves a second-round fetch against committed ∪ prepared: the
    /// answer (`None` inside for nothing found), or `None` when the fetch
    /// parked — `waiter` is answered when the version arrives.
    fn read_version(
        &mut self,
        view: &mut ServerView<'_>,
        waiter: Waiter,
        key: &Key,
        req: &VersionReq,
    ) -> Option<Option<SharedRecord>> {
        match req {
            VersionReq::Exact(ts) => {
                if let Some(r) = view.store.exact(key, *ts) {
                    return Some(Some(r));
                }
                if let Some(r) = self.prepared.exact(key, *ts) {
                    return Some(Some(r.clone()));
                }
                // The requested stamp is a *floor*: any visible version
                // at or above it satisfies the reader (fracture checks
                // re-run client-side on whatever comes back). This also
                // keeps the fetch answerable when the exact version was
                // evicted by the bounded version chain — the newer
                // versions that evicted it are the proof it is stale.
                if let Some(r) = view.store.latest_at_or_above(key, *ts) {
                    return Some(Some(r));
                }
                // The version is guaranteed in flight (the reader
                // learned the stamp from a committed sibling): park and
                // answer on arrival. Duplicate parks (request retries)
                // are deduplicated.
                let waiters = self.parked.entry((key.clone(), *ts)).or_default();
                if !waiters.contains(&waiter) {
                    waiters.push(waiter);
                }
                self.parked_age.entry((key.clone(), *ts)).or_insert(0);
                None
            }
            VersionReq::AtOrBelow(_) => {
                // Ceiling repairs want a *visible* version: committed
                // only.
                Some(resolve_version(view.store, key, req))
            }
            VersionReq::Among(set) => {
                let committed = resolve_version(view.store, key, req);
                let prepared = set
                    .iter()
                    .filter_map(|ts| self.prepared.exact(key, *ts))
                    .max_by_key(|r| r.stamp)
                    .cloned();
                let best = match (committed, prepared) {
                    (Some(a), Some(b)) => Some(if a.stamp >= b.stamp { a } else { b }),
                    (a, b) => a.or(b),
                };
                if best.is_none() {
                    // Nothing in the set has a version here: the honest
                    // answer is `⊥`. An out-of-set fallback could hand
                    // back a version the reader's set membership cannot
                    // justify — itself a potential fractured read.
                    self.among_misses += 1;
                }
                Some(best)
            }
        }
    }

    /// Number of prepared (not yet committed) versions held.
    pub fn prepared_len(&self) -> usize {
        self.prepared.version_count()
    }

    /// Number of `(key, stamp)` slots with parked readers.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }
}

/// Builds the two concrete engines from the shared [`RampCore`]. Both
/// are thin delegation shells; they exist as distinct types so the
/// registry, experiment labels and conformance suite treat each variant
/// as first-class.
macro_rules! ramp_engine {
    ($name:ident, $label:literal, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Default)]
        pub struct $name {
            /// Shared RAMP server state.
            pub core: RampCore,
        }

        impl ProtocolEngine for $name {
            fn name(&self) -> &'static str {
                $label
            }

            fn read(
                &mut self,
                view: &mut ServerView<'_>,
                key: &Key,
                _required: Timestamp,
            ) -> Option<SharedRecord> {
                // Round 1 returns the latest *visible* version; repair
                // decisions are the client's (that is the RAMP
                // inversion). The `required` bound is unused — RAMP
                // clients always send INITIAL.
                view.store.latest(key)
            }

            fn apply_client_write(
                &mut self,
                view: &mut ServerView<'_>,
                ctx: &mut Ctx<'_, Msg>,
                key: Key,
                record: SharedRecord,
            ) -> SimDuration {
                let meta = record.encoded_len().saturating_sub(4 + record.value.len());
                self.core.prepare(view, ctx, key, record);
                view.config.service.ramp_prepare(meta)
            }

            fn apply_replicated_write(
                &mut self,
                view: &mut ServerView<'_>,
                ctx: &mut Ctx<'_, Msg>,
                key: Key,
                record: SharedRecord,
            ) {
                self.core.apply_replicated(view, ctx, key, record);
            }

            fn on_message(
                &mut self,
                view: &mut ServerView<'_>,
                ctx: &mut Ctx<'_, Msg>,
                from: NodeId,
                txn: Timestamp,
                op: u32,
                body: EngineMsg,
            ) {
                self.core.on_message(view, ctx, from, txn, op, body);
            }

            fn on_anti_entropy_tick(&mut self, view: &mut ServerView<'_>, _ctx: &mut Ctx<'_, Msg>) {
                // Cooperative termination of orphaned prepares + parked
                // fetch GC (liveness and memory bounds under writer
                // failure).
                self.core.on_tick(view);
            }
        }
    };
}

ramp_engine!(
    RampFastEngine,
    "RAMP-F",
    "RAMP-Fast: full write-set metadata on every record, one-round reads, \
     second round only on a detected fracture."
);
ramp_engine!(
    RampSmallEngine,
    "RAMP-S",
    "RAMP-Small: timestamp-only metadata, always two read rounds, \
     constant metadata size."
);

// ---------------------------------------------------------------------
// Client halves
// ---------------------------------------------------------------------

/// Bound on chained RAMP-Fast ceiling repairs for one read. Each round
/// strictly lowers the ceiling, so the loop terminates on its own; the
/// cap is a defensive fuse (an exhausted loop is counted in
/// [`crate::ClientMetrics::unrepaired_reads`]).
const MAX_RAMP_REPAIRS: u32 = 4;

/// Group commit: the most phase-2 commit marks coalesced into one
/// [`RampMsg::CommitBatch`] per destination server.
const COMMIT_BATCH_MARKS: usize = 64;

/// Continues the read `done` belongs to with a second-round version
/// fetch (same op id — the fetch *is* the read's continuation). Pinned
/// to the round-1 replica: both rounds must see one server's state.
fn fetch_version(
    core: &mut ClientCore,
    ctx: &mut Ctx<'_, Msg>,
    done: &Done,
    key: Key,
    req: VersionReq,
) {
    if let VersionReq::Among(set) = &req {
        core.metrics.metadata_bytes += TS_WIRE_BYTES * set.len() as u64;
    }
    core.open_round(ctx, done.issued);
    let (txn, op) = (core.txn_id(), done.op);
    let body = EngineMsg::Ramp(RampMsg::GetVersion { key, req });
    core.send(ctx, op, done.target, true, Msg::EngineReq { txn, op, body });
}

/// The two-phase, master-less RAMP write both client halves share:
/// PREPARE every buffered write at its replica — all in one cluster,
/// because phase 2 must land exactly where phase 1 prepared, so RAMP
/// commits never retry elsewhere and block under partition like any
/// sticky commit — then, once every prepare is acknowledged, send the
/// commit marks that make the versions visible, coalesced per replica.
#[derive(Debug, Default)]
pub struct TwoPhaseWrite {
    /// Acknowledged prepares: `(op, key, replica)`.
    prepared: Vec<(u32, Key, NodeId)>,
    /// True once the outstanding requests are commit marks.
    marking: bool,
}

impl TwoPhaseWrite {
    fn begin(&mut self) {
        self.prepared.clear();
        self.marking = false;
    }

    fn on_acked(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, done: Done) -> Step {
        if let Msg::Put { key, .. } = done.msg {
            // `done.target` is where the prepare finally landed, shard
            // redirects included.
            self.prepared.push((done.op, key, done.target));
        }
        if core.busy() {
            return Step::Continue;
        }
        if std::mem::replace(&mut self.marking, true) {
            return Step::Finish(TxnOutcome::Committed);
        }
        // Marks go out in prepare order, whatever order the acks took;
        // grouped by destination in an ordered map so send order is
        // deterministic.
        self.prepared.sort_by_key(|p| p.0);
        let (txn, ts) = (core.txn_id(), core.write_stamp());
        core.open_round(ctx, ctx.now());
        let mut per_dest: BTreeMap<NodeId, Vec<(u32, Key)>> = BTreeMap::new();
        for (_, key, target) in self.prepared.drain(..) {
            per_dest
                .entry(target)
                .or_default()
                .push((core.next_op(), key));
        }
        for (target, marks) in per_dest {
            for chunk in marks.chunks(COMMIT_BATCH_MARKS) {
                let (op, marks) = (chunk[0].0, chunk.into());
                let body = EngineMsg::Ramp(RampMsg::CommitBatch { ts, marks });
                core.send(ctx, op, target, true, Msg::EngineReq { txn, op, body });
            }
        }
        Step::Continue
    }
}

/// The answers both RAMP clients take alike: a version fetch's goes
/// back to the read it continues, a mark batch's ack to the commit.
fn on_reply(
    proto: &mut impl ClientProtocol,
    core: &mut ClientCore,
    ctx: &mut Ctx<'_, Msg>,
    done: Done,
    reply: RampMsg,
) -> Step {
    match reply {
        RampMsg::GetVersionResp { found } => {
            let key = done.key().expect("keyed request").clone();
            proto.on_value(core, ctx, done, key, found)
        }
        RampMsg::CommitBatchResp { .. } => proto.on_acked(core, ctx, done),
        _ => Step::Continue,
    }
}

/// Client half of [`crate::ProtocolKind::RampFast`]: one-round reads,
/// checked against the write-set metadata of everything the transaction
/// has observed and repaired with by-stamp fetches when fractured.
#[derive(Debug, Default)]
pub struct RampFastClient {
    /// For every key named in the metadata of a version this
    /// transaction observed, the highest such writer stamp. A later read
    /// of that key below its floor is a fractured read.
    floor: BTreeMap<Key, Timestamp>,
    /// Chained ceiling repairs of the read in flight.
    repairs: u32,
    write: TwoPhaseWrite,
}

impl RampFastClient {
    /// The repair a read of `key` needs after observing `record`, if
    /// any:
    ///
    /// * below the key's floor (metadata of an earlier read names a
    ///   newer write of this key by an observed transaction) → fetch
    ///   that exact version;
    /// * above a ceiling (this record's write-set includes a key this
    ///   transaction already read *older* — returning it would expose a
    ///   fractured write-set) → fetch the newest visible version at or
    ///   below the oldest such observation.
    fn repair(&self, core: &ClientCore, key: &Key, record: &Record) -> Option<VersionReq> {
        let floor = self.floor.get(key).copied().unwrap_or(Timestamp::INITIAL);
        if record.stamp < floor {
            return Some(VersionReq::Exact(floor));
        }
        record
            .siblings
            .iter()
            .filter(|sib| *sib != key)
            .filter_map(|sib| core.cached(sib))
            .filter(|prior| prior.stamp < record.stamp)
            .map(|prior| prior.stamp)
            .min()
            .map(VersionReq::AtOrBelow)
    }
}

impl ClientProtocol for RampFastClient {
    fn begin(&mut self) {
        self.floor.clear();
        self.write.begin();
    }

    /// A fractured read is repaired with a further round before
    /// anything is returned (the one-round fast path stays one round
    /// when no fracture is detected). A repaired version is re-checked:
    /// a ceiling fetch can land on a version that fractures an even
    /// older observation.
    fn on_value(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        done: Done,
        key: Key,
        found: Option<SharedRecord>,
    ) -> Step {
        let first_round = matches!(done.msg, Msg::Get { .. });
        let mut record = found.unwrap_or_else(bottom);
        if first_round {
            // The fracture check runs on what the session will actually
            // observe.
            core.session_clamp(&key, &mut record);
            self.repairs = 0;
        }
        if let Some(req) = self.repair(core, &key, &record) {
            if first_round || self.repairs < MAX_RAMP_REPAIRS {
                self.repairs += u32::from(!first_round);
                core.metrics.repair_rounds += 1;
                fetch_version(core, ctx, &done, key, req);
                return Step::Continue;
            }
            core.metrics.unrepaired_reads += 1;
        }
        Step::Read {
            key,
            record,
            issued: done.issued,
        }
    }

    /// The sibling list raises per-key floors — later reads repair
    /// themselves against them.
    fn fold_read(&mut self, core: &mut ClientCore, _key: &Key, record: &Record) {
        core.metrics.metadata_bytes += sibling_bytes(record);
        for sib in record.siblings.iter() {
            let e = self.floor.entry(sib.clone()).or_insert(record.stamp);
            *e = (*e).max(record.stamp);
        }
    }

    fn commit(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        core.flush_writes(
            ctx,
            core.write_buffer().to_vec(),
            true,
            Placement::OneCluster,
        )
    }

    fn on_acked(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, done: Done) -> Step {
        self.write.on_acked(core, ctx, done)
    }

    fn on_reply(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        done: Done,
        reply: EngineMsg,
    ) -> Step {
        match reply {
            EngineMsg::Ramp(reply) => on_reply(self, core, ctx, done, reply),
            _ => Step::Continue,
        }
    }
}

/// A one-shot multi-key read in progress.
#[derive(Debug)]
struct Batch {
    /// Keys in request order (the recording order).
    keys: Vec<Key>,
    /// Collected results (round 2, plus cache/buffer hits).
    found: BTreeMap<Key, SharedRecord>,
    /// Round-1 answers: each remote key's latest committed stamp and
    /// the replica that reported it (round 2 goes back there).
    stamps: BTreeMap<Key, (Timestamp, NodeId)>,
}

/// Client half of [`crate::ProtocolKind::RampSmall`]: the only metadata
/// is the stamp, so every read takes two rounds — the key's latest
/// committed stamp, then the newest version among the stamps the
/// transaction has observed.
#[derive(Debug, Default)]
pub struct RampSmallClient {
    /// Stamps of every version this transaction has read (the
    /// second-round `Among` set).
    observed: BTreeSet<Timestamp>,
    batch: Option<Batch>,
    write: TwoPhaseWrite,
}

impl ClientProtocol for RampSmallClient {
    fn begin(&mut self) {
        self.observed.clear();
        self.batch = None;
        self.write.begin();
    }

    fn read(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, key: Key) {
        let target = core.pick_replica(ctx, &key);
        let body = EngineMsg::Ramp(RampMsg::GetTs { key });
        core.request(ctx, target, false, |txn, op| Msg::EngineReq {
            txn,
            op,
            body,
        });
    }

    /// The paper's `GET_ALL`: round 1 fetches every key's latest
    /// committed stamp in parallel, round 2 fetches values by the union
    /// timestamp set in parallel, each key at the replica that answered
    /// its round 1.
    fn read_many(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        keys: Vec<Key>,
    ) -> Result<Step, Vec<Key>> {
        core.op_span(ctx.now(), OpKind::GetMany, false);
        // Resolve buffer/cache hits locally; the rest fan out.
        let mut found = BTreeMap::new();
        let mut remote: Vec<&Key> = Vec::new();
        for key in &keys {
            if found.contains_key(key) || remote.contains(&key) {
                continue;
            }
            match core.local_version(key) {
                Some(hit) => {
                    found.insert(key.clone(), hit);
                }
                None => remote.push(key),
            }
        }
        if !remote.is_empty() {
            core.open_round(ctx, ctx.now());
            for key in remote {
                let target = core.pick_replica(ctx, key);
                let (txn, op) = (core.txn_id(), core.next_op());
                let body = EngineMsg::Ramp(RampMsg::GetTs { key: key.clone() });
                core.send(ctx, op, target, true, Msg::EngineReq { txn, op, body });
            }
            self.batch = Some(Batch {
                keys,
                found,
                stamps: BTreeMap::new(),
            });
            return Ok(Step::Continue);
        }
        Ok(Step::ReadMany {
            keys,
            found,
            issued: ctx.now(),
        })
    }

    /// A round-1 answer continues into round 2 with the transaction's
    /// observed-stamp set plus the stamp(s) just learnt. With nothing to
    /// fetch — no observed stamps and `⊥` keys — the read completes as
    /// `⊥` without a value round. The other answers go where both RAMP
    /// clients send them.
    fn on_reply(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        done: Done,
        reply: EngineMsg,
    ) -> Step {
        let ts = match reply {
            EngineMsg::Ramp(RampMsg::GetTsResp { ts }) => ts,
            EngineMsg::Ramp(reply) => return on_reply(self, core, ctx, done, reply),
            _ => return Step::Continue,
        };
        let Some(key) = done.key().cloned() else {
            return Step::Continue;
        };
        core.metrics.metadata_bytes += TS_WIRE_BYTES;
        let Some(batch) = &mut self.batch else {
            let mut set: Vec<Timestamp> = self.observed.iter().copied().collect();
            if !ts.is_initial() && !self.observed.contains(&ts) {
                set.push(ts);
            }
            if set.is_empty() {
                return Step::read(key, None, done.issued);
            }
            fetch_version(core, ctx, &done, key, VersionReq::Among(set));
            return Step::Continue;
        };
        batch.stamps.insert(key, (ts, done.target));
        if core.busy() {
            return Step::Continue;
        }
        let learnt = batch.stamps.values().map(|s| s.0);
        let set: BTreeSet<Timestamp> = self
            .observed
            .iter()
            .copied()
            .chain(learnt.filter(|t| !t.is_initial()))
            .collect();
        if set.is_empty() {
            // Nothing committed anywhere in sight: every remote key is ⊥.
            return self.finish_batch(done.issued);
        }
        let set: Vec<Timestamp> = set.into_iter().collect();
        core.open_round(ctx, done.issued);
        core.metrics.metadata_bytes += TS_WIRE_BYTES * set.len() as u64 * batch.stamps.len() as u64;
        for (key, &(_, target)) in &batch.stamps {
            let (txn, op, key) = (core.txn_id(), core.next_op(), key.clone());
            let req = VersionReq::Among(set.clone());
            let body = EngineMsg::Ramp(RampMsg::GetVersion { key, req });
            core.send(ctx, op, target, true, Msg::EngineReq { txn, op, body });
        }
        Step::Continue
    }

    fn on_value(
        &mut self,
        core: &mut ClientCore,
        _ctx: &mut Ctx<'_, Msg>,
        done: Done,
        key: Key,
        found: Option<SharedRecord>,
    ) -> Step {
        let Some(batch) = &mut self.batch else {
            return Step::read(key, found, done.issued);
        };
        if let Some(record) = found {
            batch.found.insert(key, record);
        }
        if core.busy() {
            return Step::Continue;
        }
        self.finish_batch(done.issued)
    }

    fn fold_read(&mut self, core: &mut ClientCore, _key: &Key, record: &Record) {
        // A batch read served from the write buffer carries the
        // transaction's own id, which is no committed stamp.
        if !record.stamp.is_initial() && record.stamp != core.txn_id() {
            self.observed.insert(record.stamp);
        }
    }

    /// No sibling metadata — constant-size metadata (the stamp) is
    /// RAMP-Small's whole point.
    fn commit(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        core.flush_writes(
            ctx,
            core.write_buffer().to_vec(),
            false,
            Placement::OneCluster,
        )
    }

    fn on_acked(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, done: Done) -> Step {
        self.write.on_acked(core, ctx, done)
    }
}

impl RampSmallClient {
    fn finish_batch(&mut self, issued: hat_sim::SimTime) -> Step {
        let batch = self.batch.take().expect("batch in progress");
        Step::ReadMany {
            keys: batch.keys,
            found: batch.found,
            issued,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterLayout;
    use crate::config::{ProtocolKind, SystemConfig};
    use crate::protocol::replication::ReplicationLog;
    use crate::server::ServerStats;
    use bytes::Bytes;
    use hat_sim::SimTime;
    use hat_storage::MemStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layout() -> ClusterLayout {
        ClusterLayout::new(vec![vec![0], vec![1]], vec![2], vec![0])
    }

    fn exact(ts: Timestamp) -> VersionReq {
        VersionReq::Exact(ts)
    }

    fn rec(ts: Timestamp, val: &str, sibs: &[&str]) -> Record {
        Record::with_siblings(
            ts,
            Bytes::from(val.to_owned()),
            sibs.iter()
                .map(|s| Key::from(s.to_string()))
                .collect::<Vec<_>>(),
        )
    }

    /// Runs `f` with a fresh engine + view + ctx, returning the messages
    /// the engine sent.
    fn with_engine<R>(
        f: impl FnOnce(&mut RampFastEngine, &mut ServerView<'_>, &mut Ctx<'_, Msg>) -> R,
    ) -> (R, Vec<(hat_sim::SimDuration, NodeId, Msg)>) {
        let layout = layout();
        let config = SystemConfig::new(ProtocolKind::RampFast);
        let mut store = MemStore::new();
        let mut repl = ReplicationLog::new(1);
        let mut stats = ServerStats::default();
        let mut busy_until = SimTime::ZERO;
        let mut view = ServerView {
            store: &mut store,
            repl: &mut repl,
            layout: &layout,
            config: &config,
            stats: &mut stats,
            recovering: false,
            busy_until: &mut busy_until,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut ctx = Ctx::detached(0, SimTime::ZERO, &mut rng);
        let mut engine = RampFastEngine::default();
        let r = f(&mut engine, &mut view, &mut ctx);
        let (sends, _) = ctx.into_outputs();
        (r, sends)
    }

    #[test]
    fn prepared_versions_are_invisible_until_committed() {
        let ts = Timestamp::new(1, 1);
        with_engine(|e, view, ctx| {
            e.apply_client_write(view, ctx, Key::from("x"), rec(ts, "v", &["x", "y"]).into());
            assert!(view.store.latest(b"x").is_none(), "prepare is invisible");
            assert_eq!(e.core.prepared_len(), 1);
            // exact fetch sees the prepared version
            let ans = e
                .core
                .read_version(view, (2, ts, 0), &Key::from("x"), &exact(ts));
            assert_eq!(ans, Some(Some(rec(ts, "v", &["x", "y"]).into())));
            // commit promotes it and queues gossip
            e.core.commit_mark(view, Key::from("x"), ts);
            assert_eq!(view.store.latest(b"x").unwrap().value, Bytes::from("v"));
            assert_eq!(e.core.prepared_len(), 0);
            assert_eq!(view.repl.len(), 1, "committed version gossips");
            // duplicate commit (retry) is idempotent
            e.core.commit_mark(view, Key::from("x"), ts);
            assert_eq!(view.repl.len(), 1);
        });
    }

    #[test]
    fn exact_fetch_parks_until_the_version_arrives() {
        let ts = Timestamp::new(3, 1);
        let ((), sends) = with_engine(|e, view, ctx| {
            let ans = e
                .core
                .read_version(view, (9, ts, 4), &Key::from("x"), &exact(ts));
            assert_eq!(ans, None, "parked");
            // a retried fetch parks once
            let ans = e
                .core
                .read_version(view, (9, ts, 4), &Key::from("x"), &exact(ts));
            assert_eq!(ans, None, "parked");
            assert_eq!(e.core.parked_len(), 1);
            // the anti-entropy copy lands: the parked reader is answered
            e.apply_replicated_write(view, ctx, Key::from("x"), rec(ts, "late", &["x"]).into());
            assert_eq!(e.core.parked_len(), 0);
        });
        let replies: Vec<_> = sends
            .iter()
            .filter_map(|(_, to, m)| match m {
                Msg::EngineResp {
                    body: EngineMsg::Ramp(RampMsg::GetVersionResp { found }),
                    ..
                } if *to == 9 => Some(found),
                _ => None,
            })
            .collect();
        assert_eq!(replies.len(), 1, "deduplicated park answers once");
        assert_eq!(replies[0].as_ref().unwrap().value, Bytes::from("late"));
    }

    #[test]
    fn among_picks_the_newest_in_set_across_committed_and_prepared() {
        let t1 = Timestamp::new(1, 1);
        let t2 = Timestamp::new(2, 1);
        let t3 = Timestamp::new(3, 1);
        with_engine(|e, view, ctx| {
            view.store
                .put(Key::from("x"), rec(t1, "old", &[]).into())
                .unwrap();
            e.apply_client_write(view, ctx, Key::from("x"), rec(t2, "prepped", &[]).into());
            // t3 has no version of x: ignored
            let among = VersionReq::Among(vec![t1, t2, t3]);
            let ans = e
                .core
                .read_version(view, (2, t3, 0), &Key::from("x"), &among);
            let Some(Some(r)) = ans else {
                panic!("expected a version");
            };
            assert_eq!(r.value, Bytes::from("prepped"));
            // a set matching nothing answers ⊥ — never an out-of-set
            // version, which the reader's set membership couldn't
            // justify (and could itself fracture)
            let among = VersionReq::Among(vec![t3]);
            let ans = e
                .core
                .read_version(view, (2, t3, 1), &Key::from("x"), &among);
            assert_eq!(ans, Some(None));
            assert_eq!(e.core.among_misses, 1);
        });
    }

    #[test]
    fn orphaned_prepares_are_cooperatively_terminated() {
        // A prepare whose commit marker never arrives (writer abandoned
        // mid-commit) is promoted by the replica itself after the
        // termination window — prepared versions never abort, a lost
        // marker only delays visibility — and any parked fetch for it
        // is answered at promotion-or-earlier, so nothing leaks.
        let ts = Timestamp::new(6, 1);
        let ((), sends) = with_engine(|e, view, ctx| {
            e.apply_client_write(
                view,
                ctx,
                Key::from("x"),
                rec(ts, "orphan", &["x", "y"]).into(),
            );
            // A remote reader parks on the sibling stamp meanwhile.
            let ans = e
                .core
                .read_version(view, (9, ts, 1), &Key::from("y"), &exact(ts));
            assert_eq!(ans, None, "parked");
            for _ in 0..COOPERATIVE_TERMINATION_TICKS {
                assert!(view.store.latest(b"x").is_none() || e.core.prepared_len() == 0);
                e.on_anti_entropy_tick(view, ctx);
            }
            assert_eq!(e.core.prepared_len(), 0, "orphan promoted");
            assert_eq!(
                view.store.latest(b"x").unwrap().value,
                Bytes::from("orphan")
            );
            assert_eq!(view.repl.len(), 1, "promotion gossips");
            // The y-parked fetch outlives its reader: GC'd within bound.
            for _ in 0..PARKED_GC_TICKS {
                e.on_anti_entropy_tick(view, ctx);
            }
            assert_eq!(e.core.parked_len(), 0, "stale parked slot dropped");
        });
        let _ = sends;
    }

    #[test]
    fn round_one_read_sees_only_committed_versions() {
        let t1 = Timestamp::new(1, 1);
        let t2 = Timestamp::new(2, 1);
        let ((), sends) = with_engine(|e, view, ctx| {
            view.store
                .put(Key::from("x"), rec(t1, "good", &[]).into())
                .unwrap();
            e.apply_client_write(view, ctx, Key::from("x"), rec(t2, "prep", &[]).into());
            let r = e.read(view, &Key::from("x"), Timestamp::INITIAL).unwrap();
            assert_eq!(r.value, Bytes::from("good"));
            let get_ts = RampMsg::GetTs {
                key: Key::from("x"),
            };
            e.on_message(view, ctx, 9, t2, 0, EngineMsg::Ramp(get_ts.clone()));
            let marks = vec![(1, Key::from("x"))].into();
            let batch = RampMsg::CommitBatch { ts: t2, marks };
            e.on_message(view, ctx, 9, t2, 1, EngineMsg::Ramp(batch));
            e.on_message(view, ctx, 9, t2, 2, EngineMsg::Ramp(get_ts));
            assert_eq!(view.stats.commit_batches, 1);
        });
        let bodies: Vec<_> = sends
            .into_iter()
            .map(|(_, to, m)| match m {
                Msg::EngineResp { op, body, .. } if to == 9 => (op, body),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            bodies,
            [
                (0, EngineMsg::Ramp(RampMsg::GetTsResp { ts: t1 })),
                (
                    1,
                    EngineMsg::Ramp(RampMsg::CommitBatchResp { ops: vec![1] })
                ),
                (2, EngineMsg::Ramp(RampMsg::GetTsResp { ts: t2 })),
            ]
        );
    }
}
