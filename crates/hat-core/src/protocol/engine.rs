//! The pluggable protocol layer: one engine per isolation/consistency
//! level, each a *pair* of halves.
//!
//! The paper defines every HAT level (§5.1, Appendix B) as a client
//! procedure plus a server procedure, and so does this crate:
//!
//! * the server half is a [`ProtocolEngine`], plugged into the
//!   protocol-agnostic [`crate::Server`] (service queue, anti-entropy
//!   gossip, replication log, backing store). It decides how a read at a
//!   `required` bound is answered, what a write costs and what happens
//!   when it is installed, how anti-entropy copies, sibling
//!   notifications and lock traffic are handled, and what extra work the
//!   anti-entropy timer performs;
//! * the client half is a [`ClientProtocol`], plugged into the
//!   protocol-agnostic [`crate::client::ClientCore`] (sessions, caches,
//!   routing, shard overrides, the one outstanding-request round with
//!   its retry and redirect paths, metrics, history). It decides where
//!   requests are routed, how a read starts and which further rounds it
//!   needs, what read metadata is folded into, whether a write is sent
//!   now, buffered or locked first, and which phases a commit runs.
//!
//! **Adding a level = one file with both halves + one arm in
//! [`engine_for`].** Most hooks have defaults (last-writer-wins servers,
//! write-buffering clients), and every driver — the discrete-event
//! simulator, the threaded runtime and the benchmark harness — picks the
//! pair up without touching `server.rs` or `client/`. Engines outside
//! the registry inject the same pair through
//! [`crate::DeploymentBuilder::engine_factory`].

use crate::client::{ClientCore, Done, Placement};
use crate::cluster::ClusterLayout;
use crate::config::{ProtocolKind, ServiceModel, SystemConfig};
use crate::messages::{Msg, VersionReq};
use crate::protocol::replication::ReplicationLog;
use crate::protocol::twopl::Grant;
use crate::timestamp::Timestamp;
use crate::txn::TxnOutcome;
use bytes::Bytes;
use hat_sim::{Ctx, NodeId, SimDuration, SimTime};
use hat_storage::{Key, Record, SharedRecord, Store};
use std::collections::BTreeMap;

/// What a [`ProtocolEngine::read_version`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum VersionAnswer {
    /// Answer now (`None` = nothing satisfies the request).
    Ready(Option<SharedRecord>),
    /// Hold the reply: the requested version is guaranteed to be in
    /// flight (RAMP exact-stamp fetches); the engine replies itself,
    /// through `ctx`, when the version arrives.
    Parked,
}

/// Mutable view over the protocol-agnostic server state, handed to every
/// engine hook. Borrowing a view (rather than the whole server) keeps the
/// engine and the server state disjoint, so an engine can never reach the
/// service queue or timers except through its declared hooks.
pub struct ServerView<'a> {
    /// The replica's good/visible version store.
    pub store: &'a mut dyn Store,
    /// The anti-entropy buffer gossiped to positional peers.
    pub repl: &'a mut ReplicationLog,
    /// Cluster layout (replica placement, masters).
    pub layout: &'a ClusterLayout,
    /// Deployment configuration.
    pub config: &'a SystemConfig,
    /// The owning server's cluster index.
    pub cluster: usize,
}

/// A protocol state machine plugged into the server.
///
/// Every hook has a sensible last-writer-wins default, so a minimal
/// engine (e.g. the `eventual` level, or a stub for a new level) is an
/// empty struct plus a [`ProtocolEngine::name`].
pub trait ProtocolEngine: Send + std::fmt::Debug {
    /// Short label used in experiment output and `Debug` formatting.
    fn name(&self) -> &'static str;

    /// Serves an item read. `required` is the client's lower bound
    /// (Appendix B); engines without the concept ignore it and answer
    /// with the last-writer-wins winner.
    fn read(
        &mut self,
        view: &mut ServerView<'_>,
        key: &Key,
        required: Timestamp,
    ) -> Option<SharedRecord> {
        let _ = required;
        view.store.latest(key)
    }

    /// Service cost charged for installing `record`.
    fn write_cost(&self, service: &ServiceModel, record: &Record) -> SimDuration {
        let _ = record;
        service.write()
    }

    /// Serves a timestamp-only read (RAMP-Small round 1): the stamp of
    /// the latest *visible* version, [`Timestamp::INITIAL`] when the key
    /// has none. The default answers from the ordinary store.
    fn read_ts(&mut self, view: &mut ServerView<'_>, key: &Key) -> Timestamp {
        view.store
            .latest(key)
            .map(|r| r.stamp)
            .unwrap_or(Timestamp::INITIAL)
    }

    /// Serves a second-round version fetch (RAMP repair reads). The
    /// default resolves against the visible store and never parks;
    /// engines with a prepared/pending set overlay it and may park
    /// exact-stamp fetches until the version arrives. `from`/`txn`/`op`
    /// identify the requester so a parking engine can reply later.
    fn read_version(
        &mut self,
        view: &mut ServerView<'_>,
        from: NodeId,
        txn: Timestamp,
        op: u32,
        key: &Key,
        req: &VersionReq,
    ) -> VersionAnswer {
        let _ = (from, txn, op);
        VersionAnswer::Ready(resolve_version(view.store, key, req))
    }

    /// Applies a RAMP commit marker: promote the prepared version of
    /// `key` stamped `ts` to visible. No-op for engines whose writes are
    /// visible on install.
    fn on_commit_mark(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        ts: Timestamp,
    ) {
        let _ = (view, ctx, key, ts);
    }

    /// Installs a client write, emitting any protocol traffic through
    /// `ctx` (e.g. MAV sibling notifications).
    fn apply_client_write(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        record: SharedRecord,
    ) {
        let _ = ctx;
        lww_apply(view, key, record);
    }

    /// Installs an anti-entropy copy received from a peer replica.
    /// Engines must apply these idempotently (delivery is at-least-once)
    /// and must *not* re-gossip (peers form a clique; the origin gossips
    /// to everyone).
    fn apply_replicated_write(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        record: SharedRecord,
    ) {
        let _ = ctx;
        let _ = view.store.put(key, record);
    }

    /// Handles a sibling notification (MAV's `notify(ts)`).
    fn on_notify(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        ts: Timestamp,
        key: Key,
    ) {
        let _ = (view, ctx, from, ts, key);
    }

    /// True if a client write of `key` by `txn` may be installed now.
    /// Locking engines fence here: a commit write whose exclusive lock
    /// is no longer on the table (the server crashed and rebuilt an
    /// empty table) must not install, because the lock may already have
    /// been re-granted to a younger transaction. Lock-free engines admit
    /// everything.
    fn write_admissible(&self, txn: Timestamp, key: &Key) -> bool {
        let _ = (txn, key);
        true
    }

    /// True if `txn` still holds a lock (any mode) on `key`. The
    /// read-path counterpart of [`ProtocolEngine::write_admissible`]:
    /// at commit time a 2PL client validates every read-locked key with
    /// a [`Msg::LockCheck`], because a crashed-and-restarted master has
    /// an empty lock table and may have re-granted the key to a
    /// conflicting writer while this transaction still believes it
    /// holds the read lock. Lock-free engines vacuously say yes.
    fn lock_valid(&self, txn: Timestamp, key: &Key) -> bool {
        let _ = (txn, key);
        true
    }

    /// Handles a peer's complete acknowledgement set for a transaction
    /// it already promoted (MAV's answer to a duplicate notification —
    /// the recovery path for notifications lost to one-way partitions).
    fn on_notify_summary(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        ts: Timestamp,
        acks: Vec<(NodeId, Key)>,
    ) {
        let _ = (view, ctx, from, ts, acks);
    }

    /// Handles a lock request, returning the grants to acknowledge now
    /// (empty means queued — the grant is returned by a later
    /// [`ProtocolEngine::on_unlock`]). Engines without locking ignore
    /// the request: their clients never send one.
    fn on_lock(
        &mut self,
        view: &mut ServerView<'_>,
        client: NodeId,
        txn: Timestamp,
        op: u32,
        key: Key,
        exclusive: bool,
    ) -> Vec<Grant> {
        let _ = (view, client, txn, op, key, exclusive);
        Vec::new()
    }

    /// Releases `txn`'s locks on `keys` (all of them when `keys` is
    /// empty), returning grants for promoted waiters.
    fn on_unlock(
        &mut self,
        view: &mut ServerView<'_>,
        txn: Timestamp,
        keys: Vec<Key>,
    ) -> Vec<Grant> {
        let _ = (view, txn, keys);
        Vec::new()
    }

    /// Invoked on every anti-entropy tick, after the gossip batches have
    /// been sent — the hook MAV uses to replay notifications lost to
    /// partitions.
    fn on_anti_entropy_tick(&mut self, view: &mut ServerView<'_>, ctx: &mut Ctx<'_, Msg>) {
        let _ = (view, ctx);
    }

    /// Reads that missed their `required` bound (0 for engines without
    /// the concept; must stay 0 in a correct MAV run).
    fn required_misses(&self) -> u64 {
        0
    }

    /// True if a client write is acknowledged only once a replication
    /// peer has confirmed it (instead of right after the local install).
    /// A serializable engine cannot ack a write whose only copy sits in
    /// a WAL tail a crash may tear off.
    fn acks_after_replication(&self) -> bool {
        false
    }

    /// True if this engine's request routing must stay on the ring
    /// owner through a shard handoff (records are still streamed, but
    /// the server never answers [`Msg::WrongShard`]). Engines with
    /// per-server volatile state that cannot be split across a live
    /// cutover — lock tables — pin.
    fn pins_shards(&self) -> bool {
        false
    }
}

/// How a client half routes a request for a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Any replica: the home cluster's for a sticky session, a random
    /// cluster's otherwise — drawn again on every retry, which is how a
    /// non-sticky HAT client stays available under partition (§4.1).
    Replica,
    /// The key's designated master replica, following shard handoffs.
    Master,
    /// The key's master by ring position, ignoring shard handoffs (the
    /// client-side counterpart of [`ProtocolEngine::pins_shards`]).
    RingMaster,
}

/// What a [`ClientProtocol`] hook asks the core to do next.
#[derive(Debug)]
pub enum Step {
    /// Nothing: requests are in flight, or the operation completed.
    Continue,
    /// The item read of `key` resolved to `record`.
    Read {
        /// Key read.
        key: Key,
        /// The version to observe.
        record: SharedRecord,
        /// When the read was issued.
        issued: SimTime,
    },
    /// A one-shot multi-key read resolved: one read per entry of `keys`
    /// (in order) is recorded from `found`, `⊥` where a key is absent.
    ReadMany {
        /// Keys in request order.
        keys: Vec<Key>,
        /// Versions found.
        found: BTreeMap<Key, SharedRecord>,
        /// When the batch was issued.
        issued: SimTime,
    },
    /// The transaction is over.
    Finish(TxnOutcome),
}

impl Step {
    /// The read of `key` resolved to `found` (`None`: the initial `⊥`).
    pub fn read(key: Key, found: Option<SharedRecord>, issued: SimTime) -> Step {
        Step::Read {
            key,
            record: found.unwrap_or_else(crate::client::bottom),
            issued,
        }
    }
}

/// The client half of a protocol: the decisions of §5.1 / Appendix B's
/// client procedures, driven by the session core through these hooks.
/// Per-transaction protocol state lives in the implementing type and is
/// reset in [`ClientProtocol::begin`].
///
/// The defaults are the Read Committed client — route to any replica,
/// one-round reads, writes buffered until a one-phase commit flush — so
/// a level overrides only what it does differently.
pub trait ClientProtocol: Send + std::fmt::Debug {
    /// Where requests for a key go. Fixed for the client's lifetime.
    fn route(&self) -> Route {
        Route::Replica
    }

    /// A transaction begins: reset per-transaction state.
    fn begin(&mut self) {}

    /// Per-key lower bounds this transaction's reads carry (MAV's
    /// `required` vector). Causal sessions fold it into their
    /// cross-transaction floor at commit.
    fn required(&self) -> Option<&BTreeMap<Key, Timestamp>> {
        None
    }

    /// Starts an item read that missed the local buffer and cache.
    fn read(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, key: Key) {
        let floor = self.required().and_then(|r| r.get(&key).copied());
        let target = core.pick_replica(ctx, &key);
        core.send_get(ctx, key, target, floor.unwrap_or(Timestamp::INITIAL));
    }

    /// Starts a one-shot multi-key read if the protocol has one; `Err`
    /// hands the keys back to be read one at a time.
    fn read_many(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        keys: Vec<Key>,
    ) -> Result<Step, Vec<Key>> {
        let _ = (core, ctx);
        Err(keys)
    }

    /// A `Get` or `GetVersion` for `key` was answered with `found`:
    /// complete the read, or repair it with a further round.
    fn on_value(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        done: Done,
        key: Key,
        found: Option<SharedRecord>,
    ) -> Step {
        let _ = (core, ctx);
        Step::read(key, found, done.issued)
    }

    /// Folds the metadata of a completed read into protocol state.
    fn fold_read(&mut self, core: &mut ClientCore, key: &Key, record: &Record) {
        let _ = (core, key, record);
    }

    /// Issues a write: send it now, buffer it, or lock first.
    fn write(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, key: Key, value: Bytes) {
        core.buffer_write(key, value);
        core.op_span(ctx.now(), hat_trace::OpKind::Put, true);
    }

    /// Starts commit.
    fn commit(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        core.flush_writes(ctx, false, Placement::PerKey)
    }

    /// A commit-phase `Put` or mark batch was acknowledged.
    fn on_acked(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, done: Done) -> Step {
        let _ = (ctx, done);
        if core.busy() {
            Step::Continue
        } else {
            Step::Finish(TxnOutcome::Committed)
        }
    }

    /// A reply only this protocol's requests elicit (`GetTsResp`,
    /// `LockResp`, `LockCheckResp`) arrived for `done`.
    fn on_reply(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        done: Done,
        reply: Msg,
    ) -> Step {
        let _ = (core, ctx, done, reply);
        Step::Continue
    }

    /// The timer serving the deadlines this half armed with
    /// [`ClientCore::arm_deadline`] fired. It may be early — one timer
    /// serves every deadline — so compare yours with `ctx.now()`, and
    /// re-arm for one still ahead.
    fn on_timer(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        let _ = (core, ctx);
        Step::Continue
    }

    /// The transaction is being aborted or abandoned: give back what it
    /// holds at servers.
    fn release(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) {
        let _ = (core, ctx);
    }
}

/// Shared last-writer-wins install + gossip, used by every engine whose
/// server-side write path is plain LWW (eventual, RC, master, 2PL).
///
/// Gossips when the version is new *or* its value changed (a
/// transaction's later write of the same key carries the same stamp but
/// supersedes the value).
pub fn lww_apply(view: &mut ServerView<'_>, key: Key, record: SharedRecord) {
    let changed = view
        .store
        .exact(&key, record.stamp)
        .map(|prior| prior.value != record.value)
        .unwrap_or(true);
    // A WAL-backed store can fail a put. It has then not applied the
    // write either, and reports the failure at the durability barrier,
    // which lets no acknowledgement out — so there is nothing to gossip.
    if view.store.put(key.clone(), record.clone()).is_err() {
        return;
    }
    if changed {
        view.repl.push(key, record);
    }
}

/// Shared resolution of a [`VersionReq`] against a plain visible store —
/// the default [`ProtocolEngine::read_version`] behavior, also used by
/// the RAMP engines for the committed part of their lookup.
pub fn resolve_version(store: &dyn Store, key: &Key, req: &VersionReq) -> Option<SharedRecord> {
    match req {
        VersionReq::Exact(ts) => store.get_at(key, *ts),
        VersionReq::AtOrBelow(ts) => store.latest_at_or_below(key, *ts),
        VersionReq::Among(set) => set
            .iter()
            .filter_map(|ts| store.get_at(key, *ts))
            .max_by_key(|r| r.stamp),
    }
}

/// Both halves of one engine.
pub type EnginePair = (Box<dyn ProtocolEngine>, Box<dyn ClientProtocol>);

/// Builds both halves of a built-in protocol kind. This registry is the
/// single place a new engine is wired up; custom engines can instead be
/// injected through [`crate::DeploymentBuilder::engine_factory`].
pub fn engine_for(kind: ProtocolKind) -> EnginePair {
    use crate::protocol::{eventual, master, mav, ramp, read_committed, twopl};
    match kind {
        ProtocolKind::Eventual => (
            Box::new(eventual::EventualEngine),
            Box::new(eventual::EventualClient),
        ),
        ProtocolKind::ReadCommitted => (
            Box::new(read_committed::ReadCommittedEngine),
            Box::new(read_committed::ReadCommittedClient),
        ),
        ProtocolKind::Mav => (
            Box::<mav::MavEngine>::default(),
            Box::<mav::MavClient>::default(),
        ),
        ProtocolKind::RampFast => (
            Box::<ramp::RampFastEngine>::default(),
            Box::<ramp::RampFastClient>::default(),
        ),
        ProtocolKind::RampSmall => (
            Box::<ramp::RampSmallEngine>::default(),
            Box::<ramp::RampSmallClient>::default(),
        ),
        ProtocolKind::Master => (
            Box::new(master::MasterEngine),
            Box::new(master::MasterClient),
        ),
        ProtocolKind::TwoPhaseLocking => (
            Box::<twopl::TwoPlEngine>::default(),
            Box::<twopl::TwoPlClient>::default(),
        ),
    }
}
