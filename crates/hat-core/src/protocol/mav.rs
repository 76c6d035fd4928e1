//! The Monotonic Atomic View algorithm (§5.1.2, Appendix B).
//!
//! Replicas keep two sets of writes per item: `good` (pending stable —
//! every replica of every sibling key has received its respective write)
//! and `pending` (not yet known stable). Every receipt of a write of
//! transaction `ts` makes the receiving replica notify each *distinct
//! server* hosting a replica of any sibling key, tagging the
//! notification with the received key. A write becomes pending-stable
//! once `|siblings| × |clusters|` distinct `(origin, key)` notifications
//! for `ts` have been collected — one per (sibling key, replica copy)
//! pair. Keying makes retransmissions idempotent: notifications lost to
//! a partition are replayed on the anti-entropy timer for writes still
//! pending, without ever double-counting.
//!
//! Reads carry a `required` timestamp per item (the client's lower
//! bound): the replica answers with a `good` version at or above the
//! bound, or, failing that, the `pending` write stamped exactly
//! `required` — which is guaranteed present, because a client only learns
//! a bound from a version that was already `good` somewhere, and `good`
//! anywhere implies every sibling replica holds its write at least in
//! `pending`. This is the "entirely master-less and operations never
//! block due to replica coordination" property the paper claims.
//!
//! The client half ([`MavClient`]) is where those bounds come from:
//! every version a transaction reads names its siblings, and the reader
//! raises its `required` entry for each of them to the version's stamp
//! (Appendix B client GET). Writes are buffered and flushed at commit
//! carrying the whole write set as sibling metadata.
//!
//! Durability boundary: a client write is acknowledged while it sits in
//! the volatile `pending` set — only promotion to the good set goes
//! through the (possibly WAL-backed) store. A crash in the window
//! between ack and promotion can therefore lose the write, which is
//! faithful to the paper's in-memory protocol but weaker than the LWW
//! engines, whose installs hit the log before the ack. The crash-restart
//! end-to-end test pins this boundary down explicitly.

use crate::client::{ClientCore, Placement};
use crate::config::ServiceModel;
use crate::messages::Msg;
use crate::protocol::engine::{ClientProtocol, ProtocolEngine, ServerView, Step};
use crate::timestamp::Timestamp;
use hat_sim::{Ctx, NodeId, SimDuration};
use hat_storage::{Key, Memtable, Record, SharedRecord, Store};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Outcome of receiving a write at a MAV replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiveOutcome {
    /// True if this is the first time this replica saw this (key, stamp)
    /// version — the caller must then send notifications for `record.stamp`
    /// to all replicas of all siblings (including this replica itself).
    pub first_receipt: bool,
    /// Versions promoted to `good` by this receipt (the receipt may have
    /// completed the acknowledgement count).
    pub promoted: Vec<(Key, SharedRecord)>,
}

/// Per-replica MAV state (Appendix B's `pending`, `good` lives in the
/// ordinary store, plus the `acks` map).
#[derive(Debug, Default)]
pub struct MavState {
    /// Writes not yet pending-stable.
    pending: Memtable,
    /// Keys held in `pending` per transaction timestamp. Ordered: the
    /// anti-entropy replay loop iterates this map, and with a hashed map
    /// the notification send order (hence the whole event schedule)
    /// would vary across processes even at a fixed seed.
    pending_by_ts: BTreeMap<Timestamp, Vec<Key>>,
    /// Distinct notifications per transaction: `(origin server, key)`
    /// pairs. Keyed so retransmitted notifications are idempotent —
    /// necessary because notifications dropped by a partition are re-sent
    /// on the anti-entropy timer for writes still pending.
    acks: BTreeMap<Timestamp, BTreeSet<(NodeId, Key)>>,
    /// Required notification counts (`siblings × clusters`), learned from
    /// the first write of the transaction that arrives here.
    expected: BTreeMap<Timestamp, u32>,
    /// Reads that had to fall back because neither `good` nor `pending`
    /// satisfied the `required` bound. Must stay 0 in a correct run; the
    /// test suite asserts on it.
    pub required_misses: u64,
}

impl MavState {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of writes currently pending.
    pub fn pending_len(&self) -> usize {
        self.pending.version_count()
    }

    /// Handles receipt of a write (client `PUT` or anti-entropy copy).
    ///
    /// `store` is the replica's `good` set. `clusters` is the number of
    /// replicas per key (one per cluster).
    pub fn receive_write(
        &mut self,
        store: &mut dyn Store,
        key: Key,
        record: impl Into<SharedRecord>,
        clusters: u32,
    ) -> ReceiveOutcome {
        let record = record.into();
        let ts = record.stamp;
        // Dedup: already good or already pending → not a first receipt.
        if store.exact(&key, ts).is_some() || self.pending.exact(&key, ts).is_some() {
            return ReceiveOutcome {
                first_receipt: false,
                promoted: Vec::new(),
            };
        }
        let expected = (record.siblings.len().max(1) as u32) * clusters;
        self.expected.insert(ts, expected);
        self.pending.insert(key.clone(), record);
        self.pending_by_ts.entry(ts).or_default().push(key);
        let promoted = self.try_promote(store, ts);
        ReceiveOutcome {
            first_receipt: true,
            promoted,
        }
    }

    /// Handles a `notify(ts)` from some replica (possibly ourselves).
    /// Returns versions promoted to `good`.
    pub fn receive_notify(
        &mut self,
        store: &mut dyn Store,
        ts: Timestamp,
        origin: NodeId,
        key: Key,
    ) -> Vec<(Key, SharedRecord)> {
        self.acks.entry(ts).or_default().insert((origin, key));
        self.try_promote(store, ts)
    }

    fn try_promote(&mut self, store: &mut dyn Store, ts: Timestamp) -> Vec<(Key, SharedRecord)> {
        let (Some(&expected), Some(acks)) = (self.expected.get(&ts), self.acks.get(&ts)) else {
            return Vec::new();
        };
        if (acks.len() as u32) < expected {
            return Vec::new();
        }
        // Pending-stable: move every local pending write of ts to good.
        let keys = self.pending_by_ts.remove(&ts).unwrap_or_default();
        let mut promoted = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(record) = self.pending.remove(&key, ts) {
                // A failed put surfaces at the server's durability
                // barrier (see `lww_apply`); a version the store refused
                // was not promoted.
                if store.put(key.clone(), record.clone()).is_ok() {
                    promoted.push((key, record));
                }
            }
        }
        // Keep the counters: late notifies for ts must not re-create
        // state; we retain expected/acks so dedup stays cheap. They are
        // garbage-collected by `gc_acks`.
        promoted
    }

    /// True if `ts` has already been notified for `origin`/`key` — a
    /// duplicate notification. Duplicates arriving for an already
    /// promoted transaction identify a sender stuck replaying
    /// notifications it never got answered for (see
    /// [`Msg::NotifySummary`]).
    pub fn has_ack(&self, ts: Timestamp, origin: NodeId, key: &Key) -> bool {
        self.acks
            .get(&ts)
            .is_some_and(|s| s.contains(&(origin, key.clone())))
    }

    /// True once `ts` reached its notification quorum here: the counters
    /// are retained after promotion precisely so this stays answerable.
    pub fn is_promoted(&self, ts: Timestamp) -> bool {
        match (self.expected.get(&ts), self.acks.get(&ts)) {
            (Some(&expected), Some(acks)) => {
                (acks.len() as u32) >= expected && !self.pending_by_ts.contains_key(&ts)
            }
            _ => false,
        }
    }

    /// The complete acknowledgement set collected for `ts` (empty if
    /// unknown or garbage-collected).
    pub fn ack_set(&self, ts: Timestamp) -> Vec<(NodeId, Key)> {
        self.acks
            .get(&ts)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Writes still pending, with their sibling lists — the server
    /// re-notifies these periodically so notifications lost to a
    /// partition are eventually replayed (liveness of promotion).
    pub fn pending_writes(&self) -> Vec<(Timestamp, Key, Arc<[Key]>)> {
        let mut out = Vec::new();
        for (&ts, keys) in &self.pending_by_ts {
            for key in keys {
                let siblings = self
                    .pending
                    .exact(key, ts)
                    .map(|r| r.siblings.clone())
                    .unwrap_or_default();
                out.push((ts, key.clone(), siblings));
            }
        }
        out
    }

    /// Serves a read at `required` (Appendix B `GET`).
    pub fn read(
        &mut self,
        store: &dyn Store,
        key: &Key,
        required: Timestamp,
    ) -> Option<SharedRecord> {
        if required == Timestamp::INITIAL {
            return store.latest(key);
        }
        if let Some(good) = store.latest_at_or_above(key, required) {
            return Some(good);
        }
        if let Some(pending) = self.pending.exact(key, required) {
            return Some(pending.clone());
        }
        // Should be unreachable in a correct execution (see module docs);
        // fall back to the best good version so the system stays
        // available, and count the anomaly.
        self.required_misses += 1;
        store.latest(key)
    }

    /// Drops acknowledgement bookkeeping for transactions already
    /// promoted whose timestamps sort below `bound` (long-run memory
    /// bound). Pending (unpromoted) transactions are retained.
    pub fn gc_acks(&mut self, bound: Timestamp) {
        let retained: BTreeSet<Timestamp> = self.pending_by_ts.keys().copied().collect();
        self.acks
            .retain(|ts, _| *ts >= bound || retained.contains(ts));
        self.expected
            .retain(|ts, _| *ts >= bound || retained.contains(ts));
    }
}

/// The pluggable-engine wrapper around [`MavState`]: the Monotonic
/// Atomic View protocol as a [`ProtocolEngine`].
#[derive(Debug, Default)]
pub struct MavEngine {
    state: MavState,
}

impl MavEngine {
    /// All distinct servers hosting a replica of any sibling key (the
    /// notification fan-out of Appendix B). Falls back to the written
    /// key's own replicas when the record carries no sibling list.
    fn notify_targets(view: &ServerView<'_>, key: &Key, siblings: &[Key]) -> Vec<NodeId> {
        let mut targets: Vec<NodeId> = siblings
            .iter()
            .flat_map(|s| view.layout.replicas(s))
            .collect();
        if targets.is_empty() {
            targets = view.layout.replicas(key);
        }
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    /// Receives a write (client put or anti-entropy copy): dedup,
    /// pend, and — on first receipt — notify every sibling replica
    /// exactly once, so the expected count (|sibs| × |clusters|) is
    /// matched by the |sibs × clusters| receipt events.
    fn receive(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        record: SharedRecord,
        gossip: bool,
    ) {
        let ts = record.stamp;
        let siblings = record.siblings.clone();
        // The gossip path shares the same allocation with the pending
        // set — cloning the handle is a refcount bump.
        let gossip_copy = if gossip { Some(record.clone()) } else { None };
        let outcome = self.state.receive_write(
            view.store,
            key.clone(),
            record,
            view.layout.num_clusters() as u32,
        );
        if outcome.first_receipt {
            for t in Self::notify_targets(view, &key, &siblings) {
                ctx.send(
                    t,
                    Msg::Notify {
                        ts,
                        key: key.clone(),
                    },
                );
            }
            if let Some(copy) = gossip_copy {
                view.repl.push(key, copy);
            }
        }
    }
}

impl ProtocolEngine for MavEngine {
    fn name(&self) -> &'static str {
        "MAV"
    }

    fn read(
        &mut self,
        view: &mut ServerView<'_>,
        key: &Key,
        required: Timestamp,
    ) -> Option<SharedRecord> {
        self.state.read(view.store, key, required)
    }

    fn write_cost(&self, service: &ServiceModel, record: &Record) -> SimDuration {
        let meta_bytes = record.encoded_len().saturating_sub(4 + record.value.len());
        service.mav_write(meta_bytes)
    }

    fn apply_client_write(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        record: SharedRecord,
    ) {
        self.receive(view, ctx, key, record, true);
    }

    fn apply_replicated_write(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        record: SharedRecord,
    ) {
        // Do not re-gossip: peers form a clique, the origin gossips to
        // everyone.
        self.receive(view, ctx, key, record, false);
    }

    fn on_notify(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        ts: Timestamp,
        key: Key,
    ) {
        let duplicate = self.state.has_ack(ts, from, &key);
        let _promoted = self.state.receive_notify(view.store, ts, from, key);
        // A duplicate notification for a transaction we already promoted
        // means the sender is replaying on its anti-entropy timer — it
        // is still pending, and the replicas whose notifications it lost
        // (to a one-way partition, say) have promoted and gone quiet.
        // Answer with our complete acknowledgement set so it can finish
        // its count. First-time notifications never trigger this, so the
        // fault-free path sends nothing extra.
        if duplicate && self.state.is_promoted(ts) {
            let acks = self.state.ack_set(ts);
            ctx.send(from, Msg::NotifySummary { ts, acks });
        }
    }

    fn on_notify_summary(
        &mut self,
        view: &mut ServerView<'_>,
        _ctx: &mut Ctx<'_, Msg>,
        _from: NodeId,
        ts: Timestamp,
        acks: Vec<(NodeId, Key)>,
    ) {
        for (origin, key) in acks {
            let _ = self.state.receive_notify(view.store, ts, origin, key);
        }
    }

    fn on_anti_entropy_tick(&mut self, view: &mut ServerView<'_>, ctx: &mut Ctx<'_, Msg>) {
        // Liveness: notifications lost to partitions are replayed for
        // writes still pending (keyed notifications make the replay
        // idempotent). Bounded per tick.
        for (ts, key, siblings) in self.state.pending_writes().into_iter().take(256) {
            for t in Self::notify_targets(view, &key, &siblings) {
                ctx.send(
                    t,
                    Msg::Notify {
                        ts,
                        key: key.clone(),
                    },
                );
            }
        }
    }

    fn required_misses(&self) -> u64 {
        self.state.required_misses
    }
}

/// Client half of [`crate::ProtocolKind::Mav`].
#[derive(Debug, Default)]
pub struct MavClient {
    /// The transaction's `required` vector (Appendix B). Ordered for
    /// determinism.
    required: BTreeMap<Key, Timestamp>,
}

impl ClientProtocol for MavClient {
    fn begin(&mut self) {
        self.required.clear();
    }

    fn required(&self) -> Option<&BTreeMap<Key, Timestamp>> {
        Some(&self.required)
    }

    fn fold_read(&mut self, _core: &mut ClientCore, _key: &Key, record: &Record) {
        for sib in record.siblings.iter() {
            let e = self.required.entry(sib.clone()).or_insert(record.stamp);
            *e = (*e).max(record.stamp);
        }
    }

    fn commit(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        core.flush_writes(ctx, core.write_buffer().to_vec(), true, Placement::PerKey)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use hat_storage::MemStore;

    fn rec(ts: Timestamp, val: &str, sibs: &[&str]) -> Record {
        Record::with_siblings(
            ts,
            Bytes::from(val.to_owned()),
            sibs.iter()
                .map(|s| Key::from(s.to_string()))
                .collect::<Vec<_>>(),
        )
    }

    /// One replica per key, two keys, single cluster: expected acks = 2*1.
    #[test]
    fn write_promotes_after_all_sibling_acks() {
        let mut store = MemStore::new();
        let mut mav = MavState::new();
        let ts = Timestamp::new(1, 1);
        let out = mav.receive_write(&mut store, Key::from("x"), rec(ts, "1", &["x", "y"]), 1);
        assert!(out.first_receipt);
        assert!(out.promoted.is_empty());
        assert!(store.latest(b"x").is_none(), "not yet visible in good");

        // the x-replica's own notify (for receiving x) ...
        assert!(mav
            .receive_notify(&mut store, ts, 10, Key::from("x"))
            .is_empty());
        // a retransmission of the same notification is idempotent
        assert!(mav
            .receive_notify(&mut store, ts, 10, Key::from("x"))
            .is_empty());
        // ... and the y-replica's notify (for receiving y)
        let promoted = mav.receive_notify(&mut store, ts, 11, Key::from("y"));
        assert_eq!(promoted.len(), 1);
        assert_eq!(store.latest(b"x").unwrap().value, Bytes::from("1"));
        assert_eq!(mav.pending_len(), 0);
    }

    #[test]
    fn duplicate_write_is_not_first_receipt() {
        let mut store = MemStore::new();
        let mut mav = MavState::new();
        let ts = Timestamp::new(1, 1);
        let r = rec(ts, "1", &["x"]);
        assert!(
            mav.receive_write(&mut store, Key::from("x"), r.clone(), 1)
                .first_receipt
        );
        assert!(
            !mav.receive_write(&mut store, Key::from("x"), r.clone(), 1)
                .first_receipt,
            "anti-entropy redelivery must not re-notify"
        );
        // promote, then redeliver again: still deduped (now in good)
        mav.receive_notify(&mut store, ts, 10, Key::from("x"));
        assert!(
            !mav.receive_write(&mut store, Key::from("x"), r, 1)
                .first_receipt
        );
    }

    #[test]
    fn notify_before_write_arrival_counts() {
        let mut store = MemStore::new();
        let mut mav = MavState::new();
        let ts = Timestamp::new(2, 1);
        // notifications race ahead of the write copy
        assert!(mav
            .receive_notify(&mut store, ts, 10, Key::from("x"))
            .is_empty());
        assert!(mav
            .receive_notify(&mut store, ts, 11, Key::from("y"))
            .is_empty());
        // write arrives: expected = 2 sibs * 1 cluster = 2, acks already 2
        let out = mav.receive_write(&mut store, Key::from("x"), rec(ts, "1", &["x", "y"]), 1);
        assert_eq!(out.promoted.len(), 1, "promotion happens on arrival");
    }

    #[test]
    fn read_semantics_follow_appendix_b() {
        let mut store = MemStore::new();
        let mut mav = MavState::new();
        let t1 = Timestamp::new(1, 1);
        let t2 = Timestamp::new(2, 1);

        // t1 is good
        store
            .put(Key::from("x"), rec(t1, "good", &["x"]).into())
            .unwrap();
        // t2 still pending
        mav.receive_write(
            &mut store,
            Key::from("x"),
            rec(t2, "pending", &["x", "y"]),
            2,
        );

        // no bound: latest good
        assert_eq!(
            mav.read(&store, &Key::from("x"), Timestamp::INITIAL)
                .unwrap()
                .value,
            Bytes::from("good")
        );
        // bound below good: good satisfies (>= required)
        assert_eq!(
            mav.read(&store, &Key::from("x"), t1).unwrap().value,
            Bytes::from("good")
        );
        // bound at t2: served from pending
        assert_eq!(
            mav.read(&store, &Key::from("x"), t2).unwrap().value,
            Bytes::from("pending")
        );
        assert_eq!(mav.required_misses, 0);
    }

    #[test]
    fn required_miss_is_counted_and_falls_back() {
        let mut store = MemStore::new();
        let mut mav = MavState::new();
        let t1 = Timestamp::new(1, 1);
        store
            .put(Key::from("x"), rec(t1, "old", &["x"]).into())
            .unwrap();
        let got = mav.read(&store, &Key::from("x"), Timestamp::new(9, 9));
        assert_eq!(got.unwrap().value, Bytes::from("old"));
        assert_eq!(mav.required_misses, 1);
    }

    #[test]
    fn multi_replica_counting() {
        // 2 clusters: txn writes {x, y}; expected acks = 2 sibs * 2 clusters = 4.
        let mut store = MemStore::new();
        let mut mav = MavState::new();
        let ts = Timestamp::new(3, 1);
        mav.receive_write(&mut store, Key::from("x"), rec(ts, "1", &["x", "y"]), 2);
        let sources: [(NodeId, &str); 4] = [(10, "x"), (11, "x"), (12, "y"), (13, "y")];
        for (i, (origin, key)) in sources.into_iter().enumerate() {
            let promoted = mav.receive_notify(&mut store, ts, origin, Key::from(key));
            if i < 3 {
                assert!(promoted.is_empty(), "not stable after {} acks", i + 1);
            } else {
                assert_eq!(promoted.len(), 1, "stable after 4 acks");
            }
        }
    }

    #[test]
    fn same_server_holds_two_sibling_writes() {
        // both x and y hash to this server: promotion releases both
        let mut store = MemStore::new();
        let mut mav = MavState::new();
        let ts = Timestamp::new(4, 1);
        mav.receive_write(&mut store, Key::from("x"), rec(ts, "vx", &["x", "y"]), 1);
        mav.receive_write(&mut store, Key::from("y"), rec(ts, "vy", &["x", "y"]), 1);
        // expected = 2; each receive_write should have triggered one
        // self-notify by the server, simulated here:
        mav.receive_notify(&mut store, ts, 10, Key::from("x"));
        let promoted = mav.receive_notify(&mut store, ts, 10, Key::from("y"));
        assert_eq!(promoted.len(), 2);
        assert_eq!(store.latest(b"x").unwrap().value, Bytes::from("vx"));
        assert_eq!(store.latest(b"y").unwrap().value, Bytes::from("vy"));
    }

    #[test]
    fn gc_acks_retains_pending() {
        let mut store = MemStore::new();
        let mut mav = MavState::new();
        let old_done = Timestamp::new(1, 1);
        let old_pending = Timestamp::new(2, 1);
        mav.receive_write(&mut store, Key::from("x"), rec(old_done, "1", &["x"]), 1);
        mav.receive_notify(&mut store, old_done, 10, Key::from("x")); // promoted
        mav.receive_write(
            &mut store,
            Key::from("y"),
            rec(old_pending, "2", &["y", "z"]),
            1,
        );
        mav.gc_acks(Timestamp::new(10, 0));
        assert!(mav.expected.contains_key(&old_pending), "pending retained");
        assert!(!mav.expected.contains_key(&old_done), "done collected");
    }
}
