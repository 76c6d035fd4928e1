//! The one outstanding-request mechanism.
//!
//! Everything a client has in flight — a single `Get`, a scan scattered
//! over a cluster, a batch of timestamp probes, a commit's `Put`s, its
//! commit marks or lock validations — is a [`Request`] in the
//! transaction's current [`Round`]. A request *is* its wire message, so
//! first send, retransmission and `WrongShard` redirect all go through
//! one `transmit` function and cannot drift apart. One retry deadline
//! per round, served by the client's one live retry timer
//! (`deadline.rs`); a response retires the request it answers; an empty
//! round means the client is idle.

use super::core::ClientCore;
use crate::messages::Msg;
use crate::metrics::ClientMetrics;
use crate::protocol::engine::Route;
use crate::timestamp::Timestamp;
use hat_sim::{Ctx, NodeId, SimTime};
use hat_storage::{Key, SharedRecord};
use hat_trace::TraceEventKind;

/// One request awaiting its answer.
#[derive(Debug)]
pub(super) struct Request {
    op: u32,
    msg: Msg,
    target: NodeId,
    /// Pinned requests are retransmitted to the server they were first
    /// sent to; the others follow the session's routing again on every
    /// retry (a non-sticky session retries elsewhere).
    pinned: bool,
}

/// A request whose answer arrived, handed to whoever consumes it.
#[derive(Debug)]
pub struct Done {
    /// Op id the request carried.
    pub op: u32,
    /// The request as it went out.
    pub msg: Msg,
    /// The server it was (last) addressed to.
    pub target: NodeId,
    /// When the operation this request belongs to was issued.
    pub issued: SimTime,
}

/// The requests a transaction has in flight and their shared retry
/// state.
#[derive(Debug, Default)]
pub(super) struct Round {
    /// Outstanding requests in first-send order — retransmission order
    /// is part of the seeded schedule.
    reqs: Vec<Request>,
    /// Matches gathered so far by a scatter-gather scan.
    pub(super) gathered: Vec<(Key, SharedRecord)>,
    issued: SimTime,
    /// When the unanswered requests are re-sent.
    deadline: SimTime,
    /// Retries so far (drives exponential backoff).
    attempts: u32,
}

impl Round {
    pub(super) fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    pub(super) fn clear(&mut self) {
        self.reqs.clear();
    }
}

/// The `(transaction, op)` a server reply is addressed to.
fn reply_id(reply: &Msg) -> Option<(Timestamp, u32)> {
    match reply {
        Msg::GetResp { txn, op, .. }
        | Msg::ScanResp { txn, op, .. }
        | Msg::PutResp { txn, op }
        | Msg::EngineResp { txn, op, .. }
        | Msg::WrongShard { txn, op, .. } => Some((*txn, *op)),
        _ => None,
    }
}

/// True if `reply` is what a server sends back for `request`. A late
/// duplicate of an earlier reply under the same op id (a read's first
/// round answered twice after a retry, say) fails this and is dropped.
fn answers(reply: &Msg, request: &Msg) -> bool {
    match (reply, request) {
        (Msg::GetResp { .. }, Msg::Get { .. })
        | (Msg::ScanResp { .. }, Msg::Scan { .. })
        | (Msg::PutResp { .. }, Msg::Put { .. }) => true,
        (Msg::EngineResp { body: reply, .. }, Msg::EngineReq { body: request, .. }) => {
            reply.answers(request)
        }
        // Servers refuse only operation-starting requests.
        (Msg::WrongShard { .. }, Msg::Get { .. } | Msg::Put { .. }) => true,
        (Msg::WrongShard { .. }, Msg::EngineReq { body, .. }) => body.may_redirect(),
        _ => false,
    }
}

/// The key a request names (`None` for scans and mark batches).
fn request_key(msg: &Msg) -> Option<&Key> {
    match msg {
        Msg::Get { key, .. } | Msg::Put { key, .. } => Some(key),
        Msg::EngineReq { body, .. } => body.key(),
        _ => None,
    }
}

impl Done {
    /// The key the request named (`None` for scans and mark batches).
    pub fn key(&self) -> Option<&Key> {
        request_key(&self.msg)
    }
}

impl ClientCore {
    /// True while a request is outstanding.
    pub fn busy(&self) -> bool {
        self.current.as_ref().is_some_and(|t| !t.round.is_empty())
    }

    /// Forgets every outstanding request; late answers are ignored.
    pub fn clear_round(&mut self) {
        self.txn_mut().round.clear();
    }

    /// Allocates the next op id of the transaction.
    pub fn next_op(&mut self) -> u32 {
        let txn = self.txn_mut();
        txn.op_seq += 1;
        txn.op_seq - 1
    }

    /// Opens a new round of requests: sets its retry deadline according
    /// to the configured [`crate::RetryPolicy`] (exponential backoff by
    /// default — without backoff, a saturated server turns slow commits
    /// into a retry storm) and counts it. `issued` is when the operation
    /// the round serves began — `ctx.now()`, or the previous round's
    /// [`Done::issued`] when this one continues the same operation.
    pub fn open_round(&mut self, ctx: &mut Ctx<'_, Msg>, issued: SimTime) {
        let deadline = ctx.now() + self.config.retry.backoff(0);
        self.retry_timer.arm(ctx, deadline);
        self.metrics.msg_rounds += 1;
        let round = &mut self.txn_mut().round;
        debug_assert!(round.is_empty(), "previous round still outstanding");
        round.gathered.clear();
        round.issued = issued;
        round.deadline = deadline;
        round.attempts = 0;
    }

    /// Adds `msg` (carrying `op`) to the open round and sends it.
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        op: u32,
        target: NodeId,
        pinned: bool,
        msg: Msg,
    ) {
        let req = Request {
            op,
            msg,
            target,
            pinned,
        };
        Self::transmit(&mut self.metrics, ctx, &req);
        self.txn_mut().round.reqs.push(req);
    }

    /// A round of one: allocates an op id, builds the message around
    /// `(txn, op)` and sends it to `target`.
    pub fn request(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        target: NodeId,
        pinned: bool,
        build: impl FnOnce(Timestamp, u32) -> Msg,
    ) {
        self.open_round(ctx, ctx.now());
        let op = self.next_op();
        let msg = build(self.txn_id(), op);
        self.send(ctx, op, target, pinned, msg);
    }

    /// Makes sure the protocol half's
    /// [`crate::protocol::ClientProtocol::on_timer`] runs no later than
    /// `deadline` (2PL's lock-wait timeout). One live timer serves every
    /// such deadline, so the hook may run early; it then re-arms for the
    /// deadline it still has.
    pub fn arm_deadline(&mut self, ctx: &mut Ctx<'_, Msg>, deadline: SimTime) {
        self.protocol_timer.arm(ctx, deadline);
    }

    /// Puts a request on the wire — the only place one becomes a `Msg`.
    fn transmit(metrics: &mut ClientMetrics, ctx: &mut Ctx<'_, Msg>, req: &Request) {
        if let Msg::EngineReq { body, .. } = &req.msg {
            body.count_sent(metrics);
        }
        ctx.send(req.target, req.msg.clone());
    }

    /// Retires the request `reply` (from `from`) answers. `None` for a
    /// stale reply: wrong transaction, already answered, or retried as
    /// something else.
    pub(super) fn ack(&mut self, reply: &Msg, from: NodeId) -> Option<Done> {
        let (txn_id, op) = reply_id(reply)?;
        let txn = self.current.as_mut().filter(|t| t.id == txn_id)?;
        // A scan is one op at many servers: each answers once.
        let scatter = matches!(reply, Msg::ScanResp { .. });
        let reqs = &mut txn.round.reqs;
        let i = reqs
            .iter()
            .position(|r| r.op == op && answers(reply, &r.msg) && (!scatter || r.target == from))?;
        let req = if scatter {
            reqs.swap_remove(i)
        } else {
            reqs.remove(i)
        };
        Some(Done {
            op: req.op,
            msg: req.msg,
            target: req.target,
            issued: txn.round.issued,
        })
    }

    /// A retry timer fired. The live one serves the round in flight: early,
    /// it re-arms for the time left; at the round's deadline it re-sends
    /// everything still unanswered. Non-sticky sessions on any-replica
    /// routing retry elsewhere; sticky sessions, master routing and
    /// pinned requests retry the same target (and block under partition
    /// — §5.2).
    pub(super) fn on_retry_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if !self.retry_timer.fired(tag) {
            return;
        }
        let Some(txn) = self.current.as_mut().filter(|t| !t.round.is_empty()) else {
            return;
        };
        if ctx.now() < txn.round.deadline {
            self.retry_timer.arm(ctx, txn.round.deadline);
            return;
        }
        txn.round.attempts += 1;
        let deadline = ctx.now() + self.config.retry.backoff(txn.round.attempts);
        let mut reqs = std::mem::take(&mut txn.round.reqs);
        self.metrics.retries += 1;
        self.trace(
            ctx.now(),
            TraceEventKind::OpRetry {
                txn: self.trace_txn(),
            },
        );
        self.retry_timer.arm(ctx, deadline);
        let reroute = self.route == Route::Replica && !self.session.sticky;
        for req in &mut reqs {
            if reroute && !req.pinned {
                if let Some(key) = request_key(&req.msg) {
                    req.target = self.pick_replica(ctx, key);
                }
            }
            Self::transmit(&mut self.metrics, ctx, req);
        }
        let round = &mut self.txn_mut().round;
        round.deadline = deadline;
        round.reqs = reqs;
    }

    /// A server refused an op because the key's shard token was handed
    /// off to a new owner. Learn the override — every future route of
    /// that token (in any cluster) follows it — then resend the refused
    /// request to the owner. A stale refusal (the op already completed
    /// or was retried elsewhere) still teaches the route but resends
    /// nothing.
    pub(super) fn on_wrong_shard(&mut self, ctx: &mut Ctx<'_, Msg>, nack: &Msg) {
        let Msg::WrongShard {
            txn,
            op,
            key,
            owner,
        } = nack
        else {
            return;
        };
        if let Some(pos) = self.layout.position_of(*owner) {
            self.shard_overrides
                .insert(self.layout.ring().token_of(key), pos);
        }
        self.metrics.shard_redirects += 1;
        self.trace(
            ctx.now(),
            TraceEventKind::ShardRedirect {
                txn: self.trace_txn(),
                owner: *owner,
            },
        );
        let Some(current) = self.current.as_mut().filter(|t| t.id == *txn) else {
            return;
        };
        let refused = |r: &&mut Request| r.op == *op && answers(nack, &r.msg);
        if let Some(req) = current.round.reqs.iter_mut().find(refused) {
            req.target = *owner;
            Self::transmit(&mut self.metrics, ctx, req);
        }
    }
}
