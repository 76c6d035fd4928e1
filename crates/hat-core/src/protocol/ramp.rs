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
use crate::config::ServiceModel;
use crate::messages::{Msg, VersionReq};
use crate::protocol::engine::{
    resolve_version, ClientProtocol, ProtocolEngine, ServerView, Step, VersionAnswer,
};
use crate::timestamp::Timestamp;
use crate::txn::TxnOutcome;
use hat_sim::{Ctx, NodeId, SimDuration};
use hat_storage::{Key, Memtable, Record, SharedRecord};
use hat_trace::OpKind;
use std::collections::{BTreeMap, BTreeSet};

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
    /// Second-round fetches served (RAMP-Small round 2 + repairs).
    pub version_fetches: u64,
    /// Exact fetches that had to park (the version was still in flight).
    pub parked_fetches: u64,
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
            ctx.send_after(
                hold,
                from,
                Msg::GetVersionResp {
                    txn,
                    op,
                    found: Some(rec.clone()),
                },
            );
        }
    }

    /// Serves a second-round fetch against committed ∪ prepared.
    fn read_version(
        &mut self,
        view: &mut ServerView<'_>,
        from: NodeId,
        txn: Timestamp,
        op: u32,
        key: &Key,
        req: &VersionReq,
    ) -> VersionAnswer {
        self.version_fetches += 1;
        match req {
            VersionReq::Exact(ts) => {
                if let Some(r) = view.store.exact(key, *ts) {
                    return VersionAnswer::Ready(Some(r));
                }
                if let Some(r) = self.prepared.exact(key, *ts) {
                    return VersionAnswer::Ready(Some(r.clone()));
                }
                // The requested stamp is a *floor*: any visible version
                // at or above it satisfies the reader (fracture checks
                // re-run client-side on whatever comes back). This also
                // keeps the fetch answerable when the exact version was
                // evicted by the bounded version chain — the newer
                // versions that evicted it are the proof it is stale.
                if let Some(r) = view.store.latest_at_or_above(key, *ts) {
                    return VersionAnswer::Ready(Some(r));
                }
                // The version is guaranteed in flight (the reader
                // learned the stamp from a committed sibling): park and
                // answer on arrival. Duplicate parks (request retries)
                // are deduplicated.
                self.parked_fetches += 1;
                let waiters = self.parked.entry((key.clone(), *ts)).or_default();
                if !waiters.contains(&(from, txn, op)) {
                    waiters.push((from, txn, op));
                }
                self.parked_age.entry((key.clone(), *ts)).or_insert(0);
                VersionAnswer::Parked
            }
            VersionReq::AtOrBelow(_) => {
                // Ceiling repairs want a *visible* version: committed
                // only.
                VersionAnswer::Ready(resolve_version(view.store, key, req))
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
                VersionAnswer::Ready(best)
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

            fn write_cost(&self, service: &ServiceModel, record: &Record) -> SimDuration {
                let meta = record.encoded_len().saturating_sub(4 + record.value.len());
                service.ramp_prepare(meta)
            }

            fn apply_client_write(
                &mut self,
                view: &mut ServerView<'_>,
                ctx: &mut Ctx<'_, Msg>,
                key: Key,
                record: SharedRecord,
            ) {
                self.core.prepare(view, ctx, key, record);
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

            fn on_commit_mark(
                &mut self,
                view: &mut ServerView<'_>,
                _ctx: &mut Ctx<'_, Msg>,
                key: Key,
                ts: Timestamp,
            ) {
                self.core.commit_mark(view, key, ts);
            }

            fn read_version(
                &mut self,
                view: &mut ServerView<'_>,
                from: NodeId,
                txn: Timestamp,
                op: u32,
                key: &Key,
                req: &VersionReq,
            ) -> VersionAnswer {
                self.core.read_version(view, from, txn, op, key, req)
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

/// Encoded size of one timestamp on the wire (seq + writer).
const TS_WIRE_BYTES: u64 = 12;

/// Group commit: the most phase-2 commit marks coalesced into one
/// [`Msg::CommitBatch`] per destination server.
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
    core.send(
        ctx,
        op,
        done.target,
        true,
        Msg::GetVersion { txn, op, key, req },
    );
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
                let marks = chunk.to_vec();
                core.send(
                    ctx,
                    chunk[0].0,
                    target,
                    true,
                    Msg::CommitBatch { txn, ts, marks },
                );
            }
        }
        Step::Continue
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
        core.request(ctx, target, false, |txn, op| Msg::GetTs { txn, op, key });
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
                let (txn, op, key) = (core.txn_id(), core.next_op(), key.clone());
                core.send(ctx, op, target, true, Msg::GetTs { txn, op, key });
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

    /// Round-1 answer: continue into round 2 with the transaction's
    /// observed-stamp set plus the stamp(s) just learnt. With nothing to
    /// fetch — no observed stamps and `⊥` keys — the read completes as
    /// `⊥` without a value round.
    fn on_reply(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        done: Done,
        reply: Msg,
    ) -> Step {
        let (Msg::GetTsResp { ts, .. }, Some(key)) = (reply, done.key().cloned()) else {
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
            core.send(ctx, op, target, true, Msg::GetVersion { txn, op, key, req });
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
    use bytes::Bytes;
    use hat_sim::SimTime;
    use hat_storage::MemStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layout() -> ClusterLayout {
        ClusterLayout::new(vec![vec![0], vec![1]], vec![2], vec![0])
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
        let mut view = ServerView {
            store: &mut store,
            repl: &mut repl,
            layout: &layout,
            config: &config,
            cluster: 0,
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
            let ans = e.read_version(view, 2, ts, 0, &Key::from("x"), &VersionReq::Exact(ts));
            assert_eq!(
                ans,
                VersionAnswer::Ready(Some(rec(ts, "v", &["x", "y"]).into()))
            );
            // commit promotes it and queues gossip
            e.on_commit_mark(view, ctx, Key::from("x"), ts);
            assert_eq!(view.store.latest(b"x").unwrap().value, Bytes::from("v"));
            assert_eq!(e.core.prepared_len(), 0);
            assert_eq!(view.repl.len(), 1, "committed version gossips");
            // duplicate commit (retry) is idempotent
            e.on_commit_mark(view, ctx, Key::from("x"), ts);
            assert_eq!(view.repl.len(), 1);
        });
    }

    #[test]
    fn exact_fetch_parks_until_the_version_arrives() {
        let ts = Timestamp::new(3, 1);
        let ((), sends) = with_engine(|e, view, ctx| {
            let ans = e.read_version(view, 9, ts, 4, &Key::from("x"), &VersionReq::Exact(ts));
            assert_eq!(ans, VersionAnswer::Parked);
            // a retried fetch parks once
            let ans = e.read_version(view, 9, ts, 4, &Key::from("x"), &VersionReq::Exact(ts));
            assert_eq!(ans, VersionAnswer::Parked);
            assert_eq!(e.core.parked_len(), 1);
            // the anti-entropy copy lands: the parked reader is answered
            e.apply_replicated_write(view, ctx, Key::from("x"), rec(ts, "late", &["x"]).into());
            assert_eq!(e.core.parked_len(), 0);
        });
        let replies: Vec<_> = sends
            .iter()
            .filter(|(_, to, m)| *to == 9 && matches!(m, Msg::GetVersionResp { .. }))
            .collect();
        assert_eq!(replies.len(), 1, "deduplicated park answers once");
        let Msg::GetVersionResp { found, .. } = &replies[0].2 else {
            unreachable!()
        };
        assert_eq!(found.as_ref().unwrap().value, Bytes::from("late"));
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
            let ans = e.read_version(
                view,
                2,
                t3,
                0,
                &Key::from("x"),
                &VersionReq::Among(vec![t1, t2, t3]),
            );
            let VersionAnswer::Ready(Some(r)) = ans else {
                panic!("expected a version");
            };
            assert_eq!(r.value, Bytes::from("prepped"));
            // a set matching nothing answers ⊥ — never an out-of-set
            // version, which the reader's set membership couldn't
            // justify (and could itself fracture)
            let ans = e.read_version(
                view,
                2,
                t3,
                1,
                &Key::from("x"),
                &VersionReq::Among(vec![t3]),
            );
            assert_eq!(ans, VersionAnswer::Ready(None));
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
            let ans = e.read_version(view, 9, ts, 1, &Key::from("y"), &VersionReq::Exact(ts));
            assert_eq!(ans, VersionAnswer::Parked);
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
        with_engine(|e, view, ctx| {
            view.store
                .put(Key::from("x"), rec(t1, "good", &[]).into())
                .unwrap();
            e.apply_client_write(view, ctx, Key::from("x"), rec(t2, "prep", &[]).into());
            let r = e.read(view, &Key::from("x"), Timestamp::INITIAL).unwrap();
            assert_eq!(r.value, Bytes::from("good"));
            assert_eq!(e.read_ts(view, &Key::from("x")), t1);
            e.on_commit_mark(view, ctx, Key::from("x"), t2);
            assert_eq!(e.read_ts(view, &Key::from("x")), t2);
        });
    }
}
