//! A worker thread: a wall-clock [`hat_sim::Engine`] holding a contiguous
//! range of [`Node`]s.
//!
//! The engine, built by [`Engine::wall`], is the simulator's event loop
//! on the wall clock (microseconds since the runtime's epoch): it
//! delivers messages and fires timers as they fall due, runs its nodes'
//! durability barriers once per pass (group commit), queues a send to a
//! node it holds on its own queue, and sends to every other node through
//! the [`Router`] after the hop's mean delay. This module adds the
//! worker's inbox, the park policy and the interactive ports: the
//! transport of the command path both backends share. The
//! [`crate::Runtime`] sends [`ClientCmd`]s in and gets [`ClientReply`]s
//! back; the worker runs each through `Client::start_cmd` and
//! `Client::finish_cmd` exactly as the simulator does, adding only a
//! wall-clock deadline at which it abandons the transaction and replies
//! `Failed(Unavailable)`.
//!
//! **Park policy:** after each pass a worker polls its inbox in a short
//! bounded spin, yielding the core between polls, and only then blocks in
//! `recv_timeout` until the queue's head is due; the spin ends early once
//! that head is due or the inbox is disconnected. A request/reply hop is
//! a few microseconds of work; a futex sleep plus wake-up per hop costs
//! more than the handlers themselves.
//! **Timer rule:** the queue has no cancel, so actors keep it small
//! themselves: a client keeps one live timer per deadline purpose (its
//! round's retry, its protocol half's own) rather than one per request,
//! and servers arm one periodic timer per task.

use hat_core::{net_tracer, ClientCmd, ClientReply, HatError, Msg, Node, TraceSink};
use hat_sim::{Actor, Engine, Link, NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a worker can receive on its inbox. Interactive commands
/// share the inbox with network traffic so their arrival wakes the
/// blocked `recv` immediately (`std::sync::mpsc` has no `select`); a
/// separate command channel would only be noticed on poll ticks.
#[derive(Debug)]
pub enum Envelope {
    /// A network message in flight: deliver `msg` from `from` to `to` at
    /// `at`.
    Net {
        /// Delivery time, in microseconds since the runtime's epoch.
        at: SimTime,
        /// Sender node.
        from: NodeId,
        /// Receiving node, one the worker holds.
        to: NodeId,
        /// Payload.
        msg: Msg,
    },
    /// An interactive command from the frontend: the client it is for,
    /// its correlation sequence number and the command.
    Cmd(NodeId, u64, ClientCmd),
}

/// A client's interactive port: commands arrive on its worker's inbox
/// ([`Envelope::Cmd`]), and each reply carries its command's sequence
/// number (see the runtime's reply channel).
pub struct InteractivePort {
    /// The client node this port serves.
    pub client: NodeId,
    /// Replies to the frontend, tagged with the command's sequence.
    pub reply_tx: Sender<(u64, ClientReply)>,
    /// Wall-clock deadline for one operation/commit before the node
    /// abandons it and reports unavailability.
    pub op_deadline: Duration,
}

/// Routing information shared by all workers: every worker engine's
/// [`Link`].
pub struct Router {
    /// Per-node inboxes: each node's entry is its worker's inbox.
    pub inboxes: Vec<Sender<Envelope>>,
    /// One-way delivery delay applied to `(from, to)` sends, in
    /// microseconds (precomputed from the latency model means — the
    /// threaded runtime uses deterministic means, not sampled tails).
    pub delay_us: Vec<Vec<u64>>,
}

impl Link<Msg> for Router {
    fn delay(&self, from: NodeId, to: NodeId) -> SimDuration {
        SimDuration::from_micros(self.delay_us[from as usize][to as usize])
    }

    fn send(&self, at: SimTime, from: NodeId, to: NodeId, msg: Msg) {
        // A full inbox or a disconnected peer behaves like a lossy
        // network — HAT protocols tolerate both.
        let _ = self.inboxes[to as usize].send(Envelope::Net { at, from, to, msg });
    }
}

/// A client's interactive commands: the one in flight (its sequence and
/// deadline) and those queued behind it.
#[derive(Default)]
struct Cmds {
    in_flight: Option<(u64, Instant)>,
    queued: VecDeque<(u64, ClientCmd)>,
}

/// Runs the nodes `first..first + nodes.len()` on one engine until `stop`
/// is set, serving each of `ports` (one per interactive client among
/// them). Returns the nodes, in id order, with their final state,
/// metrics and histories.
#[allow(clippy::too_many_arguments)]
pub fn run_node(
    nodes: Vec<Node>,
    first: NodeId,
    rx: Receiver<Envelope>,
    router: Arc<Router>,
    stop: Arc<AtomicBool>,
    rng: StdRng,
    epoch: Instant,
    ports: Vec<InteractivePort>,
    trace: TraceSink,
) -> Vec<Node> {
    let mut engine = Engine::wall(epoch, first, nodes, rng, router);
    if trace.is_enabled() {
        engine.set_net_tracer(net_tracer(trace));
    }
    let mut cmds: Vec<_> = ports.into_iter().map(|p| (p, Cmds::default())).collect();
    loop {
        engine.run_due();
        for (port, client) in &mut cmds {
            client.serve(&mut engine, port);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Wait for the next due event or an incoming envelope, then take
        // whatever else is queued without blocking.
        let first = match wait(&rx, &engine) {
            Err(RecvTimeoutError::Disconnected) => break,
            first => first.ok(),
        };
        for env in first.into_iter().chain(rx.try_iter()) {
            match env {
                Envelope::Net { at, from, to, msg } => engine.enqueue(at, from, to, msg),
                Envelope::Cmd(client, seq, cmd) => {
                    let port = cmds.iter_mut().find(|(port, _)| port.client == client);
                    let (_, cmds) = port.expect("a command for a client this worker serves");
                    cmds.queued.push_back((seq, cmd));
                }
            }
        }
    }
    let mut nodes = engine.into_actors();
    // Every pass ends with the barrier, so this normally finds clean
    // nodes; it is the guarantee that whoever receives a node back never
    // holds an unsynced write. A failure is counted by the node and has
    // no send left to drop.
    for node in &mut nodes {
        node.flush();
    }
    nodes
}

/// Inbox polls a worker makes, yielding its core between them, before
/// it parks. 512 polls take about 150 µs on a 2-core box, longer than a
/// WAL sync (`fdatasync` p99 128 µs): a worker waiting out its peer's
/// group commit keeps its core, which with no more workers than cores
/// would otherwise go idle and be slow to wake. In one alternating set
/// of `rt-mixed-durable` runs 64 polls (22 µs) gave 6.0–10.3 k txn/s and
/// 1024 gave 10.2–11.9 k; 512 and 1024 measure alike there and on
/// `rt-mixed-mem`. Yielding leaves the core to whatever else shares it.
const SPIN_POLLS: u32 = 512;

/// Waits for the next envelope under the park policy (module doc).
fn wait(rx: &Receiver<Envelope>, engine: &Engine<Node>) -> Result<Envelope, RecvTimeoutError> {
    let due = || engine.peek_time().is_some_and(|t| t <= engine.now());
    for _ in 0..SPIN_POLLS {
        match rx.try_recv() {
            Ok(env) => return Ok(env),
            Err(TryRecvError::Empty) if !due() => std::thread::yield_now(),
            // Disconnected (the blocking receive reports it), or due.
            Err(_) => break,
        }
    }
    // Parked until the queue's head is due, at most the 5 ms idle cap.
    let until_due = engine
        .peek_time()
        .map_or(u64::MAX, |t| (t - engine.now()).as_micros());
    rx.recv_timeout(Duration::from_micros(until_due.min(5_000)))
}

impl Cmds {
    /// Serves the interactive port: answers the command in flight once
    /// its client is idle, or abandons it at its deadline, then starts
    /// queued commands one at a time (the frontend issues one operation
    /// and blocks on its reply).
    fn serve(&mut self, engine: &mut Engine<Node>, port: &InteractivePort) {
        let id = port.client;
        while self.in_flight.is_some() || !self.queued.is_empty() {
            let client = engine.actor(id).as_client();
            let busy = client.expect("interactive port on a client").busy();
            let waiting = self.in_flight.is_some_and(|(_, due)| Instant::now() < due);
            if busy && waiting {
                break;
            }
            let reply = engine.with_actor_ctx(id, |node, ctx| {
                let client = node.as_client_mut().expect("interactive port on a client");
                match self.in_flight.take() {
                    Some((cmd_seq, _)) if !busy => Some((cmd_seq, client.finish_cmd(ctx))),
                    Some((cmd_seq, _)) => {
                        // Abandoning releases any held 2PL locks (unlock
                        // messages go out here).
                        client.abandon(ctx);
                        let unavailable = HatError::Unavailable { key: None };
                        Some((cmd_seq, ClientReply::Failed(unavailable)))
                    }
                    None => {
                        let (cmd_seq, cmd) = self.queued.pop_front().expect("the loop checked");
                        let reply = client.start_cmd(ctx, cmd);
                        if reply.is_none() {
                            self.in_flight = Some((cmd_seq, Instant::now() + port.op_deadline));
                        }
                        reply.map(|reply| (cmd_seq, reply))
                    }
                }
            });
            if let Some(reply) = reply {
                let _ = port.reply_tx.send(reply);
            }
        }
    }
}
