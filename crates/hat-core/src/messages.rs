//! The wire protocol: every message exchanged between clients and
//! servers, across all seven protocol kinds.
//!
//! What every level shares — reads, scans, writes, anti-entropy, crash
//! recovery and shard handoff — has a variant of its own. What one
//! engine alone speaks (RAMP's stamp reads, version fetches and commit
//! marks, MAV's sibling notifications, 2PL's lock traffic) travels in
//! one of three envelopes, [`Msg::EngineReq`], [`Msg::EngineResp`] and
//! [`Msg::Engine`], whose body the engine's own file defines: the server
//! and the client core carry it without looking inside.

use crate::protocol::EngineMsg;
use crate::timestamp::Timestamp;
use hat_sim::NodeId;
use hat_storage::{Key, SharedRecord};

/// Encoded size of one timestamp on the wire (seq + writer).
pub(crate) const TS_WIRE_BYTES: u64 = 12;

/// Messages of the HAT deployment.
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
    /// An engine's own request, answered with [`Msg::EngineResp`]: the
    /// server hands the body to its engine.
    EngineReq {
        /// Transaction issuing the request.
        txn: Timestamp,
        /// Op index within the transaction (correlates the response).
        op: u32,
        /// What the engine is asked.
        body: EngineMsg,
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
    /// Acknowledgement of [`Msg::Put`].
    PutResp {
        /// Transaction the write belongs to.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
    },
    /// An engine's answer to a [`Msg::EngineReq`], handed to the
    /// client's protocol half.
    EngineResp {
        /// Transaction echoed from the request.
        txn: Timestamp,
        /// Op index echoed from the request.
        op: u32,
        /// The engine's answer.
        body: EngineMsg,
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
    /// One-way engine traffic about transaction `txn`, between replicas
    /// (MAV's sibling notifications, where `txn` is the notified write's
    /// stamp) or from a client (2PL's unlocks).
    Engine {
        /// The transaction the message is about.
        txn: Timestamp,
        /// What the engine is told.
        body: EngineMsg,
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
    /// Short stable label for tracing (the variant name; an engine
    /// body's own name for the envelopes).
    pub fn label(&self) -> &'static str {
        match self {
            Msg::Get { .. } => "Get",
            Msg::Scan { .. } => "Scan",
            Msg::Put { .. } => "Put",
            Msg::GetResp { .. } => "GetResp",
            Msg::ScanResp { .. } => "ScanResp",
            Msg::PutResp { .. } => "PutResp",
            Msg::Replicate { .. } => "Replicate",
            Msg::ReplicateAck { .. } => "ReplicateAck",
            Msg::RecoverReq => "RecoverReq",
            Msg::RecoverResp { .. } => "RecoverResp",
            Msg::BeginHandoff { .. } => "BeginHandoff",
            Msg::ShardTransfer { .. } => "ShardTransfer",
            Msg::ShardTransferAck { .. } => "ShardTransferAck",
            Msg::WrongShard { .. } => "WrongShard",
            Msg::EngineReq { body, .. }
            | Msg::EngineResp { body, .. }
            | Msg::Engine { body, .. } => body.label(),
        }
    }

    /// Approximate wire size in bytes, using the same accounting as
    /// `ServerStats::note_replication_batch` (`4 + key + encoded record`
    /// per version, 12 bytes per timestamp). An envelope's size is its
    /// body's, envelope fields included. Tracing-only: nothing
    /// protocol-visible depends on it.
    pub fn approx_bytes(&self) -> u64 {
        const TS: u64 = TS_WIRE_BYTES;
        fn versions(writes: &[(Key, SharedRecord)]) -> u64 {
            writes
                .iter()
                .map(|(k, r)| 4 + k.len() as u64 + r.encoded_len() as u64)
                .sum()
        }
        match self {
            Msg::Get { key, .. } => TS + TS + 4 + key.len() as u64,
            Msg::Scan { prefix, .. } => TS + 4 + prefix.len() as u64,
            Msg::Put { key, record, .. } => TS + 4 + key.len() as u64 + record.encoded_len() as u64,
            Msg::GetResp { found, .. } => {
                TS + 4 + found.as_ref().map_or(0, |r| r.encoded_len() as u64)
            }
            Msg::ScanResp { matches, .. } => TS + 4 + versions(matches),
            Msg::PutResp { .. } => TS + 4,
            Msg::Replicate { writes, .. } => 8 + versions(writes),
            Msg::ReplicateAck { .. } => 8,
            Msg::RecoverReq => 1,
            Msg::RecoverResp { writes } => versions(writes),
            Msg::BeginHandoff { .. } => 8,
            Msg::ShardTransfer { writes, .. } => 12 + versions(writes),
            Msg::ShardTransferAck { .. } => 12,
            Msg::WrongShard { key, .. } => TS + 4 + key.len() as u64 + 4,
            Msg::EngineReq { body, .. }
            | Msg::EngineResp { body, .. }
            | Msg::Engine { body, .. } => body.approx_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event on the simulator's queue carries a `Msg`: it must not
    /// grow. An engine body's two tags share a niche with RAMP's version
    /// request, which is what keeps the envelopes inside the bound.
    #[test]
    fn a_message_fits_in_64_bytes() {
        assert!(
            std::mem::size_of::<Msg>() <= 64,
            "{}",
            std::mem::size_of::<Msg>()
        );
    }
}
