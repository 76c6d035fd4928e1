//! Timer discipline: a client keeps at most one live backend timer per
//! deadline purpose (its round's retry, its protocol half's own), yet
//! every deadline still fires exactly when it did with one timer per
//! request.

use hat_core::client::TxnSource;
use hat_core::{
    ClientCmd, ClusterSpec, DeploymentBuilder, Frontend, HatError, Msg, Node, Op, ProtocolKind,
    SessionOptions, TxnBackend, TxnSpec,
};
use hat_sim::{Actor, Ctx, Event, EventQueue, NetHop, NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

/// An endless closed loop of small mixed transactions over eight keys,
/// every fourth with a scan.
struct Cycle(usize);

impl TxnSource for Cycle {
    fn next_txn(&mut self, _rng: &mut StdRng) -> Option<TxnSpec> {
        self.0 += 1;
        let key = |i: usize| format!("k{}", (self.0 + i) % 8);
        let mut ops = vec![
            Op::read(&key(0)),
            Op::write(&key(1), "v"),
            Op::read(&key(2)),
            Op::write(&key(3), "w"),
        ];
        if self.0.is_multiple_of(4) {
            ops.push(Op::predicate("k"));
        }
        Some(TxnSpec::new(ops))
    }
}

/// Drives one closed-loop client of every engine through 10 000 request
/// rounds, each answered one virtual hop later, on a loop of its own
/// over `Ctx::detached` (no `hat_sim::Engine`). A one-timer-per-request
/// client would end with ~10 000 timers armed and unfired; this one may
/// never have more than its two purposes' worth.
#[test]
fn answered_rounds_keep_at_most_two_timers_live() {
    const ROUNDS: u64 = 10_000;
    // A millisecond per hop: over 10 000 rounds virtual time passes the
    // 1 s retry base and the 10 s 2PL lock timeout several times, so
    // live timers do fire early and re-arm.
    const HOP_US: u64 = 1_000;
    for kind in ProtocolKind::ALL {
        let (_, _, mut nodes, layout, _, _, _) = DeploymentBuilder::new(kind)
            .seed(3)
            .drivers(vec![Box::new(Cycle(0))])
            .build_parts();
        let client = layout.clients[0];
        let mut rng = StdRng::seed_from_u64(3);
        let mut queue: EventQueue<Msg> = EventQueue::new();
        // Every node starts at time 0, in id order, before any event.
        let mut starts = 0..nodes.len() as NodeId;
        let (mut armed, mut fired, mut most_live) = (0u64, 0u64, 0u64);
        let rounds = |nodes: &[Node]| {
            nodes[client as usize]
                .as_client()
                .unwrap()
                .metrics
                .msg_rounds
        };
        while rounds(&nodes) < ROUNDS {
            let (at, to, event) = match starts.next() {
                Some(id) => (SimTime::ZERO, id, None),
                None => {
                    let (at, event) = queue.pop().expect("servers keep timers armed");
                    let to = match event {
                        Event::Deliver { to, .. } => to,
                        Event::TimerFire { node, .. } => node,
                    };
                    (at, to, Some(event))
                }
            };
            assert!(at.as_micros() < 3_600_000_000, "{kind:?}: client stalled");
            let node = &mut nodes[to as usize];
            let mut ctx = Ctx::detached(to, at, &mut rng);
            match event {
                None => node.on_start(&mut ctx),
                Some(Event::Deliver { from, msg, .. }) => node.on_message(&mut ctx, from, msg),
                Some(Event::TimerFire { timer, .. }) => {
                    fired += u64::from(to == client);
                    node.on_timer(&mut ctx, timer)
                }
            }
            let (sends, timers) = ctx.into_outputs();
            if to == client {
                armed += timers.len() as u64;
                most_live = most_live.max(armed - fired);
            }
            for (hold, dest, msg) in sends {
                let event = Event::Deliver {
                    to: dest,
                    from: to,
                    msg,
                };
                queue.push(at + hold + SimDuration::from_micros(HOP_US), event);
            }
            for (delay, timer) in timers {
                let event = Event::TimerFire {
                    node: to,
                    timer,
                    gen: 0,
                };
                queue.push(at + delay, event);
            }
        }
        let metrics = &nodes[client as usize].as_client().unwrap().metrics;
        assert!(
            most_live <= 2,
            "{kind:?}: {most_live} client timers armed and unfired at once"
        );
        assert!(fired >= 2, "{kind:?}: no live timer ever fired early");
        assert_eq!(
            metrics.retries, 0,
            "{kind:?}: an early fire re-sent a round"
        );
        assert!(metrics.committed > 1_000, "{kind:?}: {}", metrics.committed);
    }
}

/// An unanswered round is re-sent at exactly its open time plus the
/// backoff, then the backoff again from each retry — on the simulator,
/// and also when the live timer it inherits was armed by an earlier
/// round and fires before its own deadline.
#[test]
fn unanswered_round_retries_on_its_own_backoff_schedule() {
    let mut front = DeploymentBuilder::new(ProtocolKind::ReadCommitted)
        .clusters(ClusterSpec::single_dc(1, 1))
        .build();
    let retry = front.config().retry.clone();
    let client = front.client(0);
    let server = front.layout().servers[0][0];
    let gets: Rc<RefCell<Vec<SimTime>>> = Rc::default();
    let seen = gets.clone();
    let engine = front.engine_mut();
    engine.set_net_tracer(move |t, from, _, msg: &Msg, hop| {
        if from == client && hop == NetHop::Send && matches!(msg, Msg::Get { .. }) {
            seen.borrow_mut().push(t);
        }
    });
    let busy = |engine: &hat_sim::Engine<Node>| engine.actor(client).as_client().unwrap().busy();

    // An answered read leaves its live retry timer behind, due 1 s on.
    engine.with_actor_ctx(client, |node, ctx| {
        let c = node.as_client_mut().unwrap();
        c.begin(ctx.now());
        c.start_cmd(ctx, ClientCmd::Get("a".into()));
    });
    while busy(engine) {
        engine.step();
    }
    engine.run_for(SimDuration::from_millis(300));

    // The next read is never answered: its server is down.
    engine.crash(server);
    let opened = engine.now();
    engine.with_actor_ctx(client, |node, ctx| {
        let c = node.as_client_mut().unwrap();
        c.start_cmd(ctx, ClientCmd::Get("b".into()))
    });
    engine.run_for(SimDuration::from_secs(20));

    let mut expected = vec![opened];
    let mut at = opened;
    for attempts in 0..4 {
        at += retry.backoff(attempts);
        expected.push(at);
    }
    let gets = gets.borrow();
    assert_eq!(gets[1..], expected[..], "first Get, then the read of `b`");
}

/// A 2PL lock wait aborts at exactly its lock timeout even when it
/// starts just after the previous transaction's lock timer fired —
/// between transactions, where the client swallows it. A swallowed
/// timer that still counted as live would leave the new wait with no
/// timer at all.
#[test]
fn lock_wait_after_a_swallowed_lock_timer_still_times_out() {
    let mut front = DeploymentBuilder::new(ProtocolKind::TwoPhaseLocking)
        .clusters(ClusterSpec::single_dc(1, 1))
        .sessions_per_cluster(2)
        .build();
    let lock_timeout = front.config().lock_timeout;
    let holder = front.open_session(SessionOptions::default());
    let waiter = front.open_session(SessionOptions::default());
    let put = |front: &mut hat_core::SimFrontend, s, k: &str| {
        front.exec_put(s, k.into(), bytes::Bytes::from_static(b"v"))
    };

    // The waiter's first transaction locks, commits, and leaves its lock
    // timer live; that timer fires with no transaction running.
    front.begin(&waiter).unwrap();
    put(&mut front, &waiter, "y").unwrap();
    front.commit(&waiter).unwrap();
    front.run_for(lock_timeout + SimDuration::from_millis(1));

    // Now it queues behind a lock that is never released.
    front.begin(&holder).unwrap();
    put(&mut front, &holder, "x").unwrap();
    front.begin(&waiter).unwrap();
    let asked = front.now();
    let err = put(&mut front, &waiter, "x").expect_err("the lock is never granted");
    assert!(matches!(err, HatError::ExternalAbort { .. }), "{err}");
    assert_eq!(front.now(), asked + lock_timeout);
}
