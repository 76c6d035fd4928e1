//! Distributed two-phase locking (the unavailable baseline).
//!
//! §6.1: "traditional two-phase locking for a transaction of length T may
//! require T lock operations and will require at least one lock and one
//! unlock operation. In a distributed environment, each of these lock
//! operations requires coordination ... If this coordination mechanism is
//! unavailable, transactions cannot safely commit."
//!
//! Each key's lock lives at its master replica. Locks are shared (reads)
//! or exclusive (writes), granted FIFO with the standard compatibility
//! matrix plus upgrade of a solely-held shared lock. Deadlocks are broken
//! by client-side lock timeouts (external aborts).
//!
//! The client half ([`TwoPlClient`]) takes a shared lock before every
//! read and an exclusive one before every (buffered) write, all at the
//! key's master; at commit it re-validates its read-only locks, flushes
//! the buffered writes to the masters, and only then unlocks.

use crate::client::{ClientCore, Done, Placement};
use crate::messages::Msg;
use crate::protocol::engine::{ClientProtocol, ProtocolEngine, Route, ServerView, Step};
use crate::timestamp::Timestamp;
use crate::txn::TxnOutcome;
use bytes::Bytes;
use hat_sim::{Ctx, NodeId, SimTime};
use hat_storage::Key;
use hat_trace::TraceEventKind;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A lock grant to report back to a waiting client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// Client node to notify.
    pub client: NodeId,
    /// Transaction granted.
    pub txn: Timestamp,
    /// Op index echoed back.
    pub op: u32,
    /// Key granted — the server looks up its current version stamp so
    /// the [`crate::messages::Msg::LockResp`] can carry a Lamport floor
    /// (see the `floor` field there for why blind writes need it).
    pub key: Key,
}

#[derive(Debug, Clone)]
struct Waiter {
    client: NodeId,
    txn: Timestamp,
    op: u32,
    exclusive: bool,
}

#[derive(Debug, Default)]
struct LockState {
    /// Current holders; if any holder is exclusive it is the only one.
    holders: Vec<(Timestamp, bool)>,
    /// FIFO wait queue.
    queue: VecDeque<Waiter>,
}

impl LockState {
    fn holds(&self, txn: Timestamp) -> Option<bool> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, x)| *x)
    }

    fn compatible(&self, exclusive: bool) -> bool {
        if exclusive {
            self.holders.is_empty()
        } else {
            self.holders.iter().all(|(_, x)| !x)
        }
    }
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// Granted immediately — reply now.
    Granted,
    /// Queued behind incompatible holders — reply when granted.
    Queued,
}

/// The per-server lock table.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: HashMap<Key, LockState>,
    /// Keys held per transaction (for release-all on abort).
    held: HashMap<Timestamp, Vec<Key>>,
}

impl LockTable {
    /// Fresh table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a lock on `key` for `txn`.
    pub fn acquire(
        &mut self,
        key: Key,
        txn: Timestamp,
        op: u32,
        exclusive: bool,
        client: NodeId,
    ) -> Acquire {
        let state = self.locks.entry(key.clone()).or_default();
        match state.holds(txn) {
            // Re-entrant: already exclusive, or shared request on a held
            // lock — grant.
            Some(true) => return Acquire::Granted,
            Some(false) if !exclusive => return Acquire::Granted,
            // Upgrade shared→exclusive: allowed when sole holder.
            Some(false) => {
                if state.holders.len() == 1 {
                    state.holders[0].1 = true;
                    return Acquire::Granted;
                }
                // Wait for other sharers to drain.
                state.queue.push_back(Waiter {
                    client,
                    txn,
                    op,
                    exclusive,
                });
                return Acquire::Queued;
            }
            None => {}
        }
        if state.compatible(exclusive) && state.queue.is_empty() {
            state.holders.push((txn, exclusive));
            self.held.entry(txn).or_default().push(key);
            Acquire::Granted
        } else {
            state.queue.push_back(Waiter {
                client,
                txn,
                op,
                exclusive,
            });
            Acquire::Queued
        }
    }

    /// Releases `txn`'s locks on `keys`, returning the grants to send.
    pub fn release(&mut self, txn: Timestamp, keys: &[Key]) -> Vec<Grant> {
        let mut grants = Vec::new();
        for key in keys {
            grants.extend(self.release_one(txn, key));
        }
        if let Some(held) = self.held.get_mut(&txn) {
            held.retain(|k| !keys.contains(k));
            if held.is_empty() {
                self.held.remove(&txn);
            }
        }
        grants
    }

    /// Releases everything `txn` holds (abort path).
    pub fn release_all(&mut self, txn: Timestamp) -> Vec<Grant> {
        let keys = self.held.remove(&txn).unwrap_or_default();
        let mut grants = Vec::new();
        for key in &keys {
            grants.extend(self.release_one(txn, key));
        }
        // The txn may also be sitting in wait queues; purge it.
        for state in self.locks.values_mut() {
            state.queue.retain(|w| w.txn != txn);
        }
        grants
    }

    fn release_one(&mut self, txn: Timestamp, key: &Key) -> Vec<Grant> {
        let Some(state) = self.locks.get_mut(key) else {
            return Vec::new();
        };
        state.holders.retain(|(t, _)| *t != txn);
        let mut grants = Vec::new();
        // Promote waiters FIFO while compatible.
        while let Some(front) = state.queue.front() {
            // Upgrade case: waiter already holds shared and wants exclusive.
            let is_upgrade = front.exclusive && state.holders == vec![(front.txn, false)];
            if is_upgrade {
                state.holders[0].1 = true;
            } else if state.compatible(front.exclusive) {
                state.holders.push((front.txn, front.exclusive));
                self.held.entry(front.txn).or_default().push(key.clone());
            } else {
                break;
            }
            let w = state.queue.pop_front().unwrap();
            grants.push(Grant {
                client: w.client,
                txn: w.txn,
                op: w.op,
                key: key.clone(),
            });
            if w.exclusive {
                break;
            }
        }
        if state.holders.is_empty() && state.queue.is_empty() {
            self.locks.remove(key);
        }
        grants
    }

    /// True if `txn` currently holds `key` exclusively. The write-path
    /// fence: a commit write arriving without its exclusive lock on the
    /// table means the lock was lost — the server crashed and rebuilt an
    /// empty table — and the key may since have been re-granted.
    pub fn holds_exclusive(&self, key: &Key, txn: Timestamp) -> bool {
        self.locks
            .get(key)
            .and_then(|s| s.holds(txn))
            .unwrap_or(false)
    }

    /// True if `txn` holds `key` in any mode. The read-path fence: at
    /// commit time the client validates every read-locked key, because
    /// a crash wipes this (volatile) table and a vanished shared lock
    /// lets a conflicting writer in mid-transaction — write skew the
    /// exclusive-lock fence cannot catch.
    pub fn holds_any(&self, key: &Key, txn: Timestamp) -> bool {
        self.locks
            .get(key)
            .map(|s| s.holds(txn).is_some())
            .unwrap_or(false)
    }

    /// Number of keys with active lock state.
    pub fn active_locks(&self) -> usize {
        self.locks.len()
    }
}

/// The distributed two-phase-locking protocol as a
/// [`ProtocolEngine`]: a lock table at each key's master replica, plain
/// last-writer-wins data movement (write stamps agree with the serial
/// order because clients Lamport-advance past everything they read while
/// holding locks).
#[derive(Debug, Default)]
pub struct TwoPlEngine {
    locks: LockTable,
}

impl ProtocolEngine for TwoPlEngine {
    fn name(&self) -> &'static str {
        "2PL"
    }

    fn write_admissible(&self, txn: Timestamp, key: &Key) -> bool {
        self.locks.holds_exclusive(key, txn)
    }

    fn lock_valid(&self, txn: Timestamp, key: &Key) -> bool {
        self.locks.holds_any(key, txn)
    }

    fn acks_after_replication(&self) -> bool {
        true
    }

    /// Lock tables stay with the original placement: splitting one
    /// across a live routing flip would forfeit serializability.
    fn pins_shards(&self) -> bool {
        true
    }

    fn on_lock(
        &mut self,
        _view: &mut ServerView<'_>,
        client: NodeId,
        txn: Timestamp,
        op: u32,
        key: Key,
        exclusive: bool,
    ) -> Vec<Grant> {
        match self.locks.acquire(key.clone(), txn, op, exclusive, client) {
            Acquire::Granted => vec![Grant {
                client,
                txn,
                op,
                key,
            }],
            Acquire::Queued => Vec::new(), // grant arrives at release time
        }
    }

    fn on_unlock(
        &mut self,
        _view: &mut ServerView<'_>,
        txn: Timestamp,
        keys: Vec<Key>,
    ) -> Vec<Grant> {
        if keys.is_empty() {
            self.locks.release_all(txn)
        } else {
            self.locks.release(txn, &keys)
        }
    }
}

/// Client half of [`crate::ProtocolKind::TwoPhaseLocking`].
#[derive(Debug, Default)]
pub struct TwoPlClient {
    /// Locks held, with the master holding each (for unlock).
    held: Vec<(Key, NodeId)>,
    /// The lock request in flight: when it times out, and the value to
    /// buffer once an exclusive lock is granted (`None`: a shared lock,
    /// followed by the read itself).
    waiting: Option<(SimTime, Option<Bytes>)>,
}

impl TwoPlClient {
    fn acquire(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        write: Option<Bytes>,
    ) {
        core.trace(
            ctx.now(),
            TraceEventKind::LockWait {
                txn: core.trace_txn(),
                key: String::from_utf8_lossy(&key).into_owned(),
            },
        );
        let target = core.pick_replica(ctx, &key);
        let exclusive = write.is_some();
        core.request(ctx, target, true, |txn, op| Msg::Lock {
            txn,
            op,
            key,
            exclusive,
        });
        // Lock timeout (deadlock breaker / unavailability bound). Counted
        // from the first issue, not from retries: the lock request keeps
        // being re-sent on the retry backoff until this deadline.
        let deadline = ctx.now() + core.config().lock_timeout;
        core.arm_deadline(ctx, deadline);
        self.waiting = Some((deadline, write));
    }

    /// Flushes the write buffer as stamped `Put`s to each key's lock
    /// master (read-only transactions just unlock and finish). Runs
    /// after commit-time lock validation when the transaction holds
    /// read locks, immediately otherwise.
    fn flush(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        let step = core.flush_writes(ctx, core.write_buffer().to_vec(), false, Placement::PerKey);
        if matches!(step, Step::Finish(_)) {
            self.release(core, ctx);
        }
        step
    }
}

impl ClientProtocol for TwoPlClient {
    /// 2PL is exempt from shard cutover (lock tables stay pinned to the
    /// ring owner), so its routing ignores overrides.
    fn route(&self) -> Route {
        Route::RingMaster
    }

    fn begin(&mut self) {
        *self = Self::default();
    }

    fn read(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, key: Key) {
        self.acquire(core, ctx, key, None);
    }

    fn write(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, key: Key, value: Bytes) {
        self.acquire(core, ctx, key, Some(value));
    }

    fn on_reply(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        done: Done,
        reply: Msg,
    ) -> Step {
        match (reply, done.msg) {
            (Msg::LockResp { floor, .. }, Msg::Lock { key, .. }) => {
                let Some((_, write)) = self.waiting.take() else {
                    return Step::Continue;
                };
                // Lamport-advance past the granted key's current version
                // even if this transaction never reads it: the commit
                // stamp must dominate every locked key's version, or a
                // *blind* write could carry a stamp that last-writer-wins
                // orders behind the version it overwrote, inverting the
                // lock serialization order.
                core.observe(floor);
                self.held.push((key.clone(), done.target));
                core.metrics
                    .lock_latency_ms
                    .record(ctx.now().since(done.issued).as_millis_f64());
                core.trace(
                    ctx.now(),
                    TraceEventKind::LockGrant {
                        txn: core.trace_txn(),
                        key: String::from_utf8_lossy(&key).into_owned(),
                    },
                );
                match write {
                    // Read at the lock master (it has the authoritative
                    // copy).
                    None => core.send_get(ctx, key, done.target, Timestamp::INITIAL),
                    // Just buffer the write (data moves at commit).
                    Some(value) => {
                        core.buffer_write(key, value);
                        core.finish_write(ctx, done.issued);
                    }
                }
                Step::Continue
            }
            // `!ok` means the lock master crashed and lost this
            // transaction's lock — the read set may already be
            // overwritten by a freshly granted writer, so the transaction
            // aborts instead of publishing write skew.
            (Msg::LockCheckResp { ok: false, .. }, _) => {
                core.clear_round();
                self.release(core, ctx);
                Step::Finish(TxnOutcome::AbortedExternal)
            }
            (Msg::LockCheckResp { .. }, _) if !core.busy() => {
                // Every read lock is confirmed still on its master's
                // table; now the writes may be published.
                self.flush(core, ctx)
            }
            _ => Step::Continue,
        }
    }

    fn commit(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        // Keys locked for reading only. Their locks back the
        // serializability of the read set, but nothing on the write path
        // ever re-checks them: a crashed master rebuilds an empty lock
        // table, a conflicting writer gets the key, and this transaction
        // would commit write skew. Validate them before publishing
        // anything.
        let writes = core.write_buffer();
        let read_only: Vec<&(Key, NodeId)> = self
            .held
            .iter()
            .filter(|(k, _)| !writes.iter().any(|(wk, _)| wk == k))
            .collect();
        // A single-lock read-only transaction is trivially serializable
        // at its read point; skip the round.
        if read_only.is_empty() || (writes.is_empty() && self.held.len() <= 1) {
            return self.flush(core, ctx);
        }
        core.open_round(ctx, ctx.now());
        for (key, master) in read_only {
            let (txn, op, key) = (core.txn_id(), core.next_op(), key.clone());
            core.send(ctx, op, *master, true, Msg::LockCheck { txn, op, key });
        }
        Step::Continue
    }

    fn on_acked(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, _done: Done) -> Step {
        if core.busy() {
            return Step::Continue;
        }
        self.release(core, ctx);
        Step::Finish(TxnOutcome::Committed)
    }

    /// Lock timeout: external abort — give up the transaction, release
    /// held locks. Early for the lock wait in flight: wait out the rest.
    fn on_timer(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        match self.waiting {
            Some((deadline, _)) if ctx.now() < deadline => {
                core.arm_deadline(ctx, deadline);
                Step::Continue
            }
            Some(_) => {
                core.clear_round();
                self.release(core, ctx);
                Step::Finish(TxnOutcome::AbortedExternal)
            }
            None => Step::Continue,
        }
    }

    fn release(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) {
        // Group keys per lock master (ordered: unlock send order must
        // not depend on hash seeds).
        let mut per_master: BTreeMap<NodeId, Vec<Key>> = BTreeMap::new();
        for (k, master) in self.held.drain(..) {
            per_master.entry(master).or_default().push(k);
        }
        for (master, keys) in per_master {
            let txn = core.txn_id();
            ctx.send(master, Msg::Unlock { txn, keys });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(n: u64) -> Timestamp {
        Timestamp::new(n, 1)
    }
    fn k(s: &str) -> Key {
        Key::from(s.to_owned())
    }

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire(k("x"), ts(1), 0, false, 10), Acquire::Granted);
        assert_eq!(t.acquire(k("x"), ts(2), 0, false, 11), Acquire::Granted);
        assert_eq!(t.acquire(k("x"), ts(3), 0, true, 12), Acquire::Queued);
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire(k("x"), ts(1), 0, true, 10), Acquire::Granted);
        assert_eq!(t.acquire(k("x"), ts(2), 0, false, 11), Acquire::Queued);
        assert_eq!(t.acquire(k("x"), ts(3), 0, true, 12), Acquire::Queued);
        let grants = t.release(ts(1), &[k("x")]);
        // FIFO: the shared waiter is granted first, then stops at the
        // exclusive waiter.
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, ts(2));
        let grants = t.release(ts(2), &[k("x")]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, ts(3));
    }

    #[test]
    fn reentrant_grants() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire(k("x"), ts(1), 0, true, 10), Acquire::Granted);
        assert_eq!(t.acquire(k("x"), ts(1), 1, true, 10), Acquire::Granted);
        assert_eq!(t.acquire(k("x"), ts(1), 2, false, 10), Acquire::Granted);
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire(k("x"), ts(1), 0, false, 10), Acquire::Granted);
        assert_eq!(t.acquire(k("x"), ts(1), 1, true, 10), Acquire::Granted);
        // now exclusive: others queue
        assert_eq!(t.acquire(k("x"), ts(2), 0, false, 11), Acquire::Queued);
    }

    #[test]
    fn upgrade_waits_for_other_sharers() {
        let mut t = LockTable::new();
        t.acquire(k("x"), ts(1), 0, false, 10);
        t.acquire(k("x"), ts(2), 0, false, 11);
        assert_eq!(t.acquire(k("x"), ts(1), 1, true, 10), Acquire::Queued);
        let grants = t.release(ts(2), &[k("x")]);
        assert_eq!(grants.len(), 1, "upgrade granted once sharers drain");
        assert_eq!(grants[0].txn, ts(1));
    }

    #[test]
    fn release_all_purges_queue_entries() {
        let mut t = LockTable::new();
        t.acquire(k("x"), ts(1), 0, true, 10);
        t.acquire(k("x"), ts(2), 0, true, 11); // queued
        t.acquire(k("y"), ts(2), 1, true, 11); // granted
        let grants = t.release_all(ts(2));
        assert!(grants.is_empty(), "nobody waits on y");
        // ts(2) no longer queued on x
        let grants = t.release_all(ts(1));
        assert!(grants.is_empty());
        assert_eq!(t.active_locks(), 0);
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        let mut t = LockTable::new();
        t.acquire(k("x"), ts(1), 0, false, 10);
        assert_eq!(t.acquire(k("x"), ts(2), 0, true, 11), Acquire::Queued);
        // a later shared request queues behind the exclusive waiter
        assert_eq!(t.acquire(k("x"), ts(3), 0, false, 12), Acquire::Queued);
        let grants = t.release(ts(1), &[k("x")]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, ts(2), "writer first (FIFO)");
    }
}
