//! Regression test for the retry-path `required` floor.
//!
//! `Client::on_retry_timer` used to rebuild a retried `Msg::Get` from the
//! transaction's `required` vector alone, dropping the cross-transaction
//! `causal_required` session floor that the initial send applies. Under
//! `SessionLevel::Causal`, a read whose first `GetResp` is lost would
//! therefore be retried with `required = INITIAL` and could legally be
//! answered with a causally stale version. Both paths now share one
//! floor computation; this test drives the client state machine directly,
//! drops the first `GetResp`, fires the retry timer, and asserts the
//! resent `Get` still carries the session floor. Timer tags are whatever
//! the client armed: the harness fires what `Ctx::into_outputs` returned,
//! so the test pins retry behaviour, not tag numbering.

use hat_core::{
    Client, ClientCmd, ClusterLayout, Msg, ProtocolKind, SessionLevel, SessionOptions,
    SystemConfig, Timestamp,
};
use hat_sim::{Ctx, NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SERVER: NodeId = 0;
const CLIENT: NodeId = 1;

fn single_replica_client(level: SessionLevel) -> Client {
    let layout = Arc::new(ClusterLayout::new(
        vec![vec![SERVER]],
        vec![CLIENT],
        vec![0],
    ));
    let config = Arc::new(SystemConfig::new(ProtocolKind::Mav));
    Client::new(
        CLIENT,
        1,
        0,
        layout,
        config,
        SessionOptions {
            level,
            sticky: true,
        },
    )
}

/// A client driven by hand, with its one live retry timer.
struct Harness {
    client: Client,
    rng: StdRng,
    now: SimTime,
    /// Fire time and tag of the newest timer the client armed — always
    /// its live one, since it arms only ahead of the timer it has.
    live: Option<(SimTime, u64)>,
}

impl Harness {
    fn new(client: Client, seed: u64) -> Self {
        Harness {
            client,
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            live: None,
        }
    }

    /// Runs `f` against the client with a detached context at `now` and
    /// returns the messages it sent.
    fn step<R>(
        &mut self,
        f: impl FnOnce(&mut Client, &mut Ctx<'_, Msg>) -> R,
    ) -> Vec<(NodeId, Msg)> {
        let mut ctx = Ctx::detached(CLIENT, self.now, &mut self.rng);
        f(&mut self.client, &mut ctx);
        let (sends, timers) = ctx.into_outputs();
        if let Some(&(delay, tag)) = timers.last() {
            self.live = Some((self.now + delay, tag));
        }
        sends.into_iter().map(|(_, to, msg)| (to, msg)).collect()
    }

    /// Fires the client's live timer — again after each early fire that
    /// re-armed it — until the client re-sends something.
    fn retry(&mut self) -> Vec<(NodeId, Msg)> {
        loop {
            let (at, tag) = self.live.take().expect("a retry timer is live");
            self.now = at;
            let sends = self.step(|c, ctx| c.on_timer(ctx, tag));
            if !sends.is_empty() {
                return sends;
            }
        }
    }
}

fn get_required(sends: &[(NodeId, Msg)]) -> Timestamp {
    match sends {
        [(_, Msg::Get { required, .. })] => *required,
        other => panic!("expected exactly one Get, saw {other:?}"),
    }
}

#[test]
fn retried_get_keeps_the_causal_session_floor() {
    let mut h = Harness::new(single_replica_client(SessionLevel::Causal), 1);

    // Txn 1: write k and commit, establishing the causal floor for k.
    let txn1 = h.client.begin(h.now);
    let v1 = bytes::Bytes::from_static(b"v1");
    let sends = h.step(|c, ctx| c.start_cmd(ctx, ClientCmd::Put("k".into(), v1)));
    assert!(sends.is_empty(), "MAV buffers writes until commit");
    let commit_sends = h.step(|c, ctx| c.start_cmd(ctx, ClientCmd::Commit));
    let (put_op, floor) = match commit_sends.as_slice() {
        [(to, Msg::Put { op, record, .. })] => {
            assert_eq!(*to, SERVER);
            assert!(record.stamp > txn1, "write stamp Lamport-dominates");
            (*op, record.stamp)
        }
        other => panic!("expected one commit Put, saw {other:?}"),
    };
    h.step(|c, ctx| {
        c.on_message(
            ctx,
            SERVER,
            Msg::PutResp {
                txn: txn1,
                op: put_op,
            },
        )
    });
    assert!(!h.client.busy(), "txn 1 committed");

    // Txn 2: read k. The initial Get must carry the session floor.
    h.client.clear_finished();
    h.client.begin(h.now + SimDuration::from_millis(1));
    let sends = h.step(|c, ctx| c.start_cmd(ctx, ClientCmd::Get("k".into())));
    assert_eq!(
        get_required(&sends),
        floor,
        "initial Get carries the causal floor"
    );

    // Drop the first GetResp (never deliver it) and fire the retry
    // timer.
    let resent = h.retry();
    assert_eq!(h.now, SimTime::from_secs(1));
    assert_eq!(
        get_required(&resent),
        floor,
        "retried Get must keep the causal session floor — a stale \
         retry can observe a causally older version"
    );
}

/// Control: without a causal session the retried Get has no floor (the
/// per-transaction `required` vector is empty for a fresh read).
#[test]
fn retried_get_without_causal_session_has_no_floor() {
    let mut h = Harness::new(single_replica_client(SessionLevel::None), 2);
    h.client.begin(h.now);
    let sends = h.step(|c, ctx| c.start_cmd(ctx, ClientCmd::Get("k".into())));
    assert_eq!(get_required(&sends), Timestamp::INITIAL);
    let resent = h.retry();
    assert_eq!(get_required(&resent), Timestamp::INITIAL);
}
