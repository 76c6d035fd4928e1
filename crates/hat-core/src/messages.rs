//! The wire protocol: every message exchanged between clients and
//! servers, across all five protocol kinds.

use crate::timestamp::Timestamp;
use hat_sim::NodeId;
use hat_storage::{Key, SharedRecord};

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

/// Messages of the HAT deployment. One enum covers all protocols; servers
/// ignore variants their protocol never receives.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ---- client → server ----
    /// Read `key`. `required` is the MAV lower bound (Appendix B's
    /// `ts_required`); `Timestamp::INITIAL` means "no bound, give me the
    /// latest".
    Get {
        /// Transaction issuing the read.
        txn: Timestamp,
        /// Op index within the transaction (correlates the response).
        op: u32,
        /// Key to read.
        key: Key,
        /// MAV `required` lower bound (INITIAL = none).
        required: Timestamp,
    },
    /// Predicate read: all keys under `prefix`.
    Scan {
        /// Transaction issuing the scan.
        txn: Timestamp,
        /// Op index within the transaction.
        op: u32,
        /// Key prefix to scan.
        prefix: Key,
    },
    /// Install a write. The record carries the transaction timestamp and
    /// (for MAV) the sibling key list. The handle is the write's single
    /// allocation: the client's commit buffer, this message, the server's
    /// store, and the replication log all share it.
    Put {
        /// Transaction issuing the write.
        txn: Timestamp,
        /// Op index within the transaction.
        op: u32,
        /// Key to write.
        key: Key,
        /// The version to install.
        record: SharedRecord,
    },
    /// RAMP-Small round 1: fetch the latest *committed stamp* of `key`
    /// (no value moves — this is the constant-size metadata read).
    GetTs {
        /// Transaction issuing the read.
        txn: Timestamp,
        /// Op index within the transaction.
        op: u32,
        /// Key whose latest committed stamp is wanted.
        key: Key,
    },
    /// RAMP second-round fetch: a specific version of `key`, selected by
    /// `req` (exact sibling stamp, ceiling, or timestamp set).
    GetVersion {
        /// Transaction issuing the fetch.
        txn: Timestamp,
        /// Op index within the transaction.
        op: u32,
        /// Key to fetch.
        key: Key,
        /// Which version is wanted.
        req: VersionReq,
    },
    /// RAMP commit markers, group-committed: promote the prepared
    /// versions of the marked keys stamped `ts` to visible (phase 2 of
    /// the two-phase write). Every marker a transaction owes one server
    /// is coalesced into a single message. Acked by
    /// [`Msg::CommitBatchResp`].
    CommitBatch {
        /// Committing transaction.
        txn: Timestamp,
        /// Stamp of the versions committing (the transaction timestamp).
        ts: Timestamp,
        /// `(op, key)` commit marks, in op order.
        marks: Vec<(u32, Key)>,
    },
    /// 2PL: acquire a lock on `key` at its lock master.
    Lock {
        /// Requesting transaction.
        txn: Timestamp,
        /// Op index (correlates the grant).
        op: u32,
        /// Key to lock.
        key: Key,
        /// Exclusive (write) or shared (read) mode.
        exclusive: bool,
    },
    /// 2PL: release this transaction's locks on `keys`.
    Unlock {
        /// Transaction releasing.
        txn: Timestamp,
        /// Keys to release.
        keys: Vec<Key>,
    },
    /// 2PL commit-time validation: is `txn`'s lock on `key` still on
    /// the master's table? A crash wipes the volatile lock table, so a
    /// read lock can vanish mid-transaction and a conflicting writer
    /// can be granted the key before the reader commits — write skew
    /// the write-path fence ([`crate::protocol::ProtocolEngine::
    /// write_admissible`]) cannot see, because the reader never writes
    /// the key. The client checks every read-locked key before flushing
    /// its commit writes and aborts on any `ok: false` answer.
    LockCheck {
        /// Transaction validating its lock.
        txn: Timestamp,
        /// Op index (correlates the response).
        op: u32,
        /// Key whose lock is being validated.
        key: Key,
    },

    // ---- server → client ----
    /// Response to [`Msg::Get`].
    GetResp {
        /// Transaction the read belongs to.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
        /// The version read, or `None` for the initial `⊥` value.
        found: Option<SharedRecord>,
    },
    /// Response to [`Msg::Scan`].
    ScanResp {
        /// Transaction the scan belongs to.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
        /// Matched `(key, version)` pairs in key order.
        matches: Vec<(Key, SharedRecord)>,
    },
    /// Response to [`Msg::GetTs`].
    GetTsResp {
        /// Transaction the read belongs to.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
        /// Latest committed stamp (INITIAL when the key has no version).
        ts: Timestamp,
    },
    /// Response to [`Msg::GetVersion`].
    GetVersionResp {
        /// Transaction the fetch belongs to.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
        /// The version found, or `None` when nothing satisfies the
        /// request.
        found: Option<SharedRecord>,
    },
    /// Acknowledgement of [`Msg::Put`].
    PutResp {
        /// Transaction the write belongs to.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
    },
    /// Acknowledgement of [`Msg::CommitBatch`]: every mark in the batch
    /// was applied.
    CommitBatchResp {
        /// Transaction the batch belongs to.
        txn: Timestamp,
        /// Op indexes of the acknowledged marks.
        ops: Vec<u32>,
    },
    /// 2PL: the lock on `key` was granted to `txn`.
    LockResp {
        /// Transaction the grant is for.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
        /// Lamport floor: the granted key's current version stamp
        /// ([`Timestamp::INITIAL`] when the key has no version). The
        /// client observes it into its clock so the commit stamp
        /// Lamport-dominates every locked key's current version — a
        /// *blind* write (locked X, never read) would otherwise carry a
        /// stamp ordered only against the transaction's read set, and
        /// last-writer-wins could place it *behind* the version it
        /// overwrote, inverting the lock serialization order.
        floor: Timestamp,
    },
    /// Response to [`Msg::LockCheck`]. `ok: false` means the lock is no
    /// longer on the table (the master crashed and rebuilt an empty
    /// one) — the transaction must abort instead of committing.
    LockCheckResp {
        /// Transaction echoed from the request.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
        /// Whether the lock is still held.
        ok: bool,
    },

    // ---- server → server ----
    /// Anti-entropy: a batch of versions for the receiving replica's
    /// partition, covering the sender's log up to `upto` (exclusive).
    /// An ordinary batch is the unacked suffix itself, so `upto` is its
    /// start plus its length; a badly lagging peer instead gets one
    /// compacted catch-up batch — the latest version of each key written
    /// in the lag window, closed over transaction timestamps so
    /// multi-key transactions arrive whole (MAV sibling counting and
    /// RAMP promotion stay correct) — shorter than the range it covers.
    /// Entries are shared handles into the sender's
    /// [`crate::protocol::replication::ReplicationLog`] — batching a
    /// retransmission clones `Arc`s, not records (the throughput hot
    /// path: an unacked suffix is re-batched every anti-entropy tick).
    /// Applying either is idempotent; the receiver acks `upto`.
    Replicate {
        /// Log position (exclusive) the batch catches the peer up to.
        upto: u64,
        /// `(key, version)` pairs to install, in log order.
        writes: Vec<(Key, SharedRecord)>,
    },
    /// Anti-entropy acknowledgement: the receiver has applied the
    /// sender's log up to `upto` (exclusive).
    ReplicateAck {
        /// Acknowledged log position.
        upto: u64,
    },
    /// Crash-recovery bootstrap: a restarted replica asks a gossip peer
    /// for a full state dump. Needed because peers never re-gossip
    /// writes they did not originate — a record this server accepted,
    /// gossiped out, and then lost to a torn WAL tail survives only in
    /// peers' *stores*, where no incremental log path can reach it.
    /// Retried on a timer until a response arrives (the request itself
    /// may be lost to a concurrent partition).
    RecoverReq,
    /// Bootstrap response: every version of the sender's store. One
    /// message rather than a chunked stream — acceptable at simulation
    /// scale, and the idempotent apply path makes duplicates free.
    RecoverResp {
        /// The sender's full version set, in key order.
        writes: Vec<(Key, SharedRecord)>,
    },
    /// MAV: a replica announces it has received transaction `ts`'s write
    /// of `key` (Appendix B's `notify(w.ts)`, keyed so retransmissions
    /// count once).
    Notify {
        /// The transaction whose write was received.
        ts: Timestamp,
        /// The key whose write the sender received.
        key: Key,
    },
    /// MAV: the complete acknowledgement set a replica collected before
    /// promoting transaction `ts`. Sent in answer to a *duplicate*
    /// notification for an already-promoted transaction — the sender of
    /// that duplicate is replaying notifications on its anti-entropy
    /// timer because it is still pending, which means the notifications
    /// it is missing were lost (e.g. to a one-way partition) *and* every
    /// replica that could re-send them has already promoted and stopped
    /// replaying. The summary lets the stuck replica finish its count
    /// from a peer's records instead.
    NotifySummary {
        /// The promoted transaction.
        ts: Timestamp,
        /// Every `(origin, key)` notification the sender collected.
        acks: Vec<(NodeId, Key)>,
    },

    // ---- shard handoff ----
    /// Control: start handing `token`'s ownership to `to` (a server in
    /// the same cluster). Injected by the deployment frontend — the
    /// nemesis schedules these mid-transaction — at the token's current
    /// owner; a receiver that does not own the token ignores it.
    BeginHandoff {
        /// Ring token (vnode arc) to move.
        token: u32,
        /// The new owner.
        to: NodeId,
    },
    /// Handoff stream: records of the migrating token, starting at
    /// index `from_seq` of the sender's handoff queue (snapshot followed
    /// by late writes). Chunks are resent from the acked cursor every
    /// anti-entropy tick until acknowledged; the receiver applies them
    /// idempotently.
    ShardTransfer {
        /// The migrating token.
        token: u32,
        /// Absolute queue index of the first record in `writes`.
        from_seq: u64,
        /// `(key, version)` pairs to install at the new owner.
        writes: Vec<(Key, SharedRecord)>,
    },
    /// Handoff acknowledgement: the new owner has applied the sender's
    /// handoff queue up to `upto` (exclusive).
    ShardTransferAck {
        /// The migrating token.
        token: u32,
        /// Acknowledged queue position.
        upto: u64,
    },

    // ---- server → client (routing) ----
    /// NACK: the requested key's shard has been handed off; retry at
    /// `owner`. The client updates its routing overrides and resends
    /// immediately, without waiting for the retry timer.
    WrongShard {
        /// Transaction the rejected request belonged to.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
        /// The key whose shard moved.
        key: Key,
        /// The shard's current owner in this cluster.
        owner: NodeId,
    },
}

impl Msg {
    /// Short stable label for tracing (the variant name).
    pub fn label(&self) -> &'static str {
        match self {
            Msg::Get { .. } => "Get",
            Msg::Scan { .. } => "Scan",
            Msg::Put { .. } => "Put",
            Msg::GetTs { .. } => "GetTs",
            Msg::GetVersion { .. } => "GetVersion",
            Msg::CommitBatch { .. } => "CommitBatch",
            Msg::Lock { .. } => "Lock",
            Msg::Unlock { .. } => "Unlock",
            Msg::LockCheck { .. } => "LockCheck",
            Msg::LockCheckResp { .. } => "LockCheckResp",
            Msg::GetResp { .. } => "GetResp",
            Msg::ScanResp { .. } => "ScanResp",
            Msg::GetTsResp { .. } => "GetTsResp",
            Msg::GetVersionResp { .. } => "GetVersionResp",
            Msg::PutResp { .. } => "PutResp",
            Msg::CommitBatchResp { .. } => "CommitBatchResp",
            Msg::LockResp { .. } => "LockResp",
            Msg::Replicate { .. } => "Replicate",
            Msg::ReplicateAck { .. } => "ReplicateAck",
            Msg::RecoverReq => "RecoverReq",
            Msg::RecoverResp { .. } => "RecoverResp",
            Msg::Notify { .. } => "Notify",
            Msg::NotifySummary { .. } => "NotifySummary",
            Msg::BeginHandoff { .. } => "BeginHandoff",
            Msg::ShardTransfer { .. } => "ShardTransfer",
            Msg::ShardTransferAck { .. } => "ShardTransferAck",
            Msg::WrongShard { .. } => "WrongShard",
        }
    }

    /// Approximate wire size in bytes, using the same accounting as
    /// `ServerStats::note_replication_batch` (`4 + key + encoded record`
    /// per version, 12 bytes per timestamp). Tracing-only: nothing
    /// protocol-visible depends on it.
    pub fn approx_bytes(&self) -> u64 {
        const TS: u64 = 12;
        fn rec(r: &SharedRecord) -> u64 {
            r.encoded_len() as u64
        }
        fn versions(writes: &[(Key, SharedRecord)]) -> u64 {
            writes
                .iter()
                .map(|(k, r)| 4 + k.len() as u64 + rec(r))
                .sum()
        }
        match self {
            Msg::Get { key, .. } => TS + TS + 4 + key.len() as u64,
            Msg::Scan { prefix, .. } => TS + 4 + prefix.len() as u64,
            Msg::Put { key, record, .. } => TS + 4 + key.len() as u64 + rec(record),
            Msg::GetTs { key, .. } => TS + 4 + key.len() as u64,
            Msg::GetVersion { key, req, .. } => {
                let req_bytes = match req {
                    VersionReq::Exact(_) | VersionReq::AtOrBelow(_) => TS,
                    VersionReq::Among(set) => TS * set.len() as u64,
                };
                TS + 4 + key.len() as u64 + req_bytes
            }
            Msg::CommitBatch { marks, .. } => {
                TS + TS + marks.iter().map(|(_, k)| 4 + k.len() as u64).sum::<u64>()
            }
            Msg::Lock { key, .. } => TS + 5 + key.len() as u64,
            Msg::Unlock { keys, .. } => TS + keys.iter().map(|k| 4 + k.len() as u64).sum::<u64>(),
            Msg::LockCheck { key, .. } => TS + 4 + key.len() as u64,
            Msg::LockCheckResp { .. } => TS + 5,
            Msg::GetResp { found, .. } | Msg::GetVersionResp { found, .. } => {
                TS + 4 + found.as_ref().map_or(0, rec)
            }
            Msg::ScanResp { matches, .. } => TS + 4 + versions(matches),
            Msg::GetTsResp { .. } => TS + 4 + TS,
            Msg::PutResp { .. } => TS + 4,
            Msg::CommitBatchResp { ops, .. } => TS + 4 * ops.len() as u64,
            Msg::LockResp { .. } => 2 * TS + 4,
            Msg::Replicate { writes, .. } => 8 + versions(writes),
            Msg::ReplicateAck { .. } => 8,
            Msg::RecoverReq => 1,
            Msg::RecoverResp { writes } => versions(writes),
            Msg::Notify { key, .. } => TS + 4 + key.len() as u64,
            Msg::NotifySummary { acks, .. } => {
                TS + acks.iter().map(|(_, k)| 8 + k.len() as u64).sum::<u64>()
            }
            Msg::BeginHandoff { .. } => 8,
            Msg::ShardTransfer { writes, .. } => 12 + versions(writes),
            Msg::ShardTransferAck { .. } => 12,
            Msg::WrongShard { key, .. } => TS + 4 + key.len() as u64 + 4,
        }
    }
}
