//! The interactive command path, shared by every backend.
//!
//! A [`crate::Frontend`] runs each interactive operation as one
//! [`ClientCmd`] against its session's client. [`Client::start_cmd`]
//! issues it and either answers at once or leaves the client awaiting a
//! network round; once the client is no longer
//! [`busy`](super::ClientCore::busy), [`Client::finish_cmd`] builds the
//! [`ClientReply`]. A backend supplies only what lies between the two
//! calls — a transport and an operation deadline: the simulator steps
//! virtual time, the threaded runtime's node loop keeps delivering
//! messages. [`crate::TxnBackend`]'s default methods map replies to typed
//! results, once. An interactive operation is added here, and both
//! backends have it.

use super::{Client, SessionOptions};
use crate::error::HatError;
use crate::messages::Msg;
use crate::metrics::ClientMetrics;
use crate::txn::{OpRecord, TxnOutcome, TxnRecord};
use bytes::Bytes;
use hat_sim::Ctx;
use hat_storage::Key;

/// An interactive operation on a client.
#[derive(Debug)]
pub enum ClientCmd {
    /// Replaces the client's session options (frontends send this when
    /// a session is opened over the client).
    SetSession(SessionOptions),
    /// Begins a transaction (clearing any finished one).
    Begin,
    /// Item read.
    Get(Key),
    /// One-shot multi-key read (RAMP-Small `GET_ALL`; a protocol
    /// without one answers [`ClientReply::Unbatched`]).
    GetMany(Vec<Key>),
    /// Write (buffered or sent, per protocol).
    Put(Key, Bytes),
    /// Predicate read.
    Scan(Key),
    /// Internal abort of the open transaction.
    AbortTxn,
    /// Commit the open transaction.
    Commit,
    /// Abandon the open transaction (after an operation failure).
    Abandon,
    /// Drain recorded transaction histories.
    TakeRecords,
    /// Snapshot the client's metrics.
    Metrics,
}

/// Reply to a [`ClientCmd`].
#[derive(Debug)]
pub enum ClientReply {
    /// Command applied (begin / set-session / abort / abandon).
    Ack,
    /// Read result; `None` is the initial `⊥` version.
    Read(Option<Bytes>),
    /// Batch read results, one per requested key in request order.
    ReadMany(Vec<Option<Bytes>>),
    /// The protocol has no one-shot batch read: the keys, handed back
    /// for the frontend to read one at a time.
    Unbatched(Vec<Key>),
    /// Write applied (or buffered).
    Wrote,
    /// Scan result.
    Scanned(Vec<(Key, Bytes)>),
    /// Commit succeeded.
    Committed,
    /// The operation or commit failed.
    Failed(HatError),
    /// Drained histories.
    Records(Vec<TxnRecord>),
    /// Metrics snapshot.
    Metrics(Box<ClientMetrics>),
}

/// The network round a started command waits on.
#[derive(Debug, Clone, Copy)]
pub(super) enum Awaiting {
    Read,
    ReadMany(usize),
    Write,
    Scan,
    Commit,
}

impl ClientCmd {
    /// The key an operation that runs out of time is reported against:
    /// the key read or written, a scan's prefix, a batch's first key.
    pub(crate) fn key(&self) -> Option<&Key> {
        match self {
            ClientCmd::Get(key) | ClientCmd::Put(key, _) | ClientCmd::Scan(key) => Some(key),
            ClientCmd::GetMany(keys) => keys.first(),
            _ => None,
        }
    }
}

impl Client {
    /// Issues `cmd` and answers it now if it is bookkeeping (begin,
    /// abort, abandon, session options, records, metrics) or a batch read
    /// the protocol cannot serve in one shot. Otherwise returns `None`:
    /// call [`Client::finish_cmd`] once the client is no longer busy. An
    /// operation that turns out to need no round (a cache hit, a buffered
    /// write) takes the same road; the client is simply not busy.
    ///
    /// # Panics
    /// Panics if an operation is issued while another is in flight.
    pub fn start_cmd(&mut self, ctx: &mut Ctx<'_, Msg>, cmd: ClientCmd) -> Option<ClientReply> {
        let awaiting = match cmd {
            ClientCmd::SetSession(opts) => {
                self.set_session_options(opts);
                return Some(ClientReply::Ack);
            }
            ClientCmd::Begin => {
                self.clear_finished();
                self.begin(ctx.now());
                return Some(ClientReply::Ack);
            }
            ClientCmd::Get(key) => {
                self.issue_read(ctx, key);
                Awaiting::Read
            }
            ClientCmd::GetMany(keys) => {
                let n = keys.len();
                if let Err(keys) = self.issue_read_many(ctx, keys) {
                    return Some(ClientReply::Unbatched(keys));
                }
                Awaiting::ReadMany(n)
            }
            ClientCmd::Put(key, value) => {
                self.issue_write(ctx, key, value);
                Awaiting::Write
            }
            ClientCmd::Scan(prefix) => {
                self.issue_scan(ctx, prefix);
                Awaiting::Scan
            }
            ClientCmd::AbortTxn => {
                self.abort(ctx);
                return Some(ClientReply::Ack);
            }
            ClientCmd::Commit => {
                self.start_commit(ctx);
                Awaiting::Commit
            }
            ClientCmd::Abandon => {
                self.abandon(ctx);
                return Some(ClientReply::Ack);
            }
            ClientCmd::TakeRecords => return Some(ClientReply::Records(self.take_records())),
            ClientCmd::Metrics => {
                return Some(ClientReply::Metrics(Box::new(self.metrics.clone())))
            }
        };
        self.awaiting = Some(awaiting);
        None
    }

    /// Builds the reply to the command [`Client::start_cmd`] left
    /// awaiting its round, once the client is no longer busy. A commit
    /// that never resolved is abandoned and reported unavailable.
    ///
    /// # Panics
    /// Panics if no command is awaiting a round.
    pub fn finish_cmd(&mut self, ctx: &mut Ctx<'_, Msg>) -> ClientReply {
        let awaiting = self.awaiting.take().expect("no command awaits a round");
        let reply = match awaiting {
            Awaiting::Commit => return self.commit_reply(ctx),
            Awaiting::Read => ClientReply::Read(self.last_reads(1).pop().flatten()),
            Awaiting::ReadMany(n) => ClientReply::ReadMany(self.last_reads(n)),
            Awaiting::Write => ClientReply::Wrote,
            Awaiting::Scan => ClientReply::Scanned(std::mem::take(&mut self.core.last_scan)),
        };
        match self.op_interrupted() {
            Some(e) => ClientReply::Failed(e),
            None => reply,
        }
    }

    /// If the transaction finished *during* an operation — a 2PL lock
    /// timeout externally aborts mid-op, for instance — the operation
    /// itself fails: aborts surface at the failing operation.
    fn op_interrupted(&self) -> Option<HatError> {
        match self.txn_outcome() {
            Some(TxnOutcome::AbortedExternal) => Some(HatError::ExternalAbort {
                reason: "system abort mid-operation".into(),
            }),
            Some(TxnOutcome::AbortedInternal) => Some(HatError::InternalAbort {
                reason: "transaction aborted".into(),
            }),
            _ => None,
        }
    }

    /// The finished transaction's outcome as the reply to its commit.
    fn commit_reply(&mut self, ctx: &mut Ctx<'_, Msg>) -> ClientReply {
        let failure = match self.txn_outcome() {
            Some(TxnOutcome::Committed) => return ClientReply::Committed,
            Some(TxnOutcome::AbortedExternal) => HatError::ExternalAbort {
                reason: "system abort during commit".into(),
            },
            Some(TxnOutcome::AbortedInternal) => HatError::InternalAbort {
                reason: "transaction aborted".into(),
            },
            Some(TxnOutcome::Indeterminate) | None => {
                self.abandon(ctx);
                HatError::Unavailable { key: None }
            }
        };
        ClientReply::Failed(failure)
    }

    /// The last `n` completed item reads, in execution order (`None` for
    /// the initial `⊥` version).
    fn last_reads(&self, n: usize) -> Vec<Option<Bytes>> {
        let Some(txn) = self.core.current.as_ref() else {
            return Vec::new();
        };
        let mut reads: Vec<Option<Bytes>> = txn
            .ops_done
            .iter()
            .rev()
            .filter_map(|op| match op {
                OpRecord::Read {
                    observed, value, ..
                } => Some((!observed.is_initial()).then(|| value.clone())),
                _ => None,
            })
            .take(n)
            .collect();
        reads.reverse();
        reads
    }
}
