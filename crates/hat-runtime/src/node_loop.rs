//! Per-node event loop: a thread owning one [`Node`].
//!
//! Every client node carries an *interactive port*: the transport of the
//! one command path both backends share. The [`crate::Runtime`] sends
//! [`ClientCmd`]s (begin / get / put / scan / commit …) into the running
//! thread and gets [`ClientReply`]s back, so the threaded runtime is
//! drivable through the same [`hat_core::Frontend`] surface as the
//! simulator, not only by canned `TxnSource` plans. What a command does
//! is the client's own code — `Client::start_cmd`, then
//! `Client::finish_cmd` once the client is idle — exactly as under the
//! simulator; the loop adds only the transport and a wall-clock deadline,
//! at which it abandons the transaction and replies `Failed(Unavailable)`.
//!
//! One pass of the loop delivers everything due (messages and timers
//! from one [`EventQueue`], the simulator's queue, here keyed by
//! wall-clock microseconds since the runtime's epoch), runs the
//! durability barrier, serves the interactive port, and then waits for
//! more. **Park policy:** it first polls the inbox in a short bounded
//! spin, yielding the core between polls, and only then blocks in
//! `recv_timeout` until the queue's head is due; the spin ends early once
//! that head is due or the inbox is disconnected. A request/reply hop is
//! a few microseconds of work; a futex sleep plus wake-up per hop costs
//! more than the handlers themselves.
//! **Timer rule:** the queue has no cancel, so actors keep it small
//! themselves: a client keeps one live timer per deadline purpose (its
//! round's retry, its protocol half's own) rather than one per request,
//! and servers arm one periodic timer per task.

use hat_core::{ClientCmd, ClientReply, HatError, Msg, Node, TraceEventKind, TraceSink};
use hat_sim::{Actor, Ctx, Event, EventQueue, NodeId, SimDuration, SimTime, TimerId};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a node thread can receive on its inbox. Interactive
/// commands share the inbox with network traffic so their arrival wakes
/// the blocked `recv` immediately (`std::sync::mpsc` has no `select`);
/// a separate command channel would only be noticed on poll ticks.
#[derive(Debug)]
pub enum Envelope {
    /// A network message in flight: deliver `msg` from `from` at `at`.
    Net {
        /// Delivery time, in microseconds since the runtime's epoch.
        at: SimTime,
        /// Sender node.
        from: NodeId,
        /// Payload.
        msg: Msg,
    },
    /// An interactive command from the frontend, with its correlation
    /// sequence number.
    Cmd(u64, ClientCmd),
}

/// The interactive port handed to client threads. Commands arrive via
/// the node's inbox ([`Envelope::Cmd`]); replies carry the command's
/// correlation sequence number, so if the frontend times out on a
/// command and moves on, the late reply's stale sequence lets it be
/// discarded instead of being mistaken for the next command's reply.
pub struct InteractivePort {
    /// Replies to the frontend, tagged with the command's sequence.
    pub reply_tx: Sender<(u64, ClientReply)>,
    /// Wall-clock deadline for one operation/commit before the node
    /// abandons it and reports unavailability.
    pub op_deadline: Duration,
}

/// Routing information shared by all node threads.
pub struct Router {
    /// Per-node inboxes.
    pub inboxes: Vec<Sender<Envelope>>,
    /// One-way delivery delay applied to `(from, to)` sends, in
    /// microseconds (precomputed from the latency model means — the
    /// threaded runtime uses deterministic means, not sampled tails).
    pub delay_us: Vec<Vec<u64>>,
}

impl Router {
    /// Delay for a send.
    pub fn delay(&self, from: NodeId, to: NodeId) -> SimDuration {
        SimDuration::from_micros(self.delay_us[from as usize][to as usize])
    }
}

/// Wall-clock time since `epoch`, as the microsecond [`SimTime`] the
/// node threads schedule on.
pub fn since(epoch: Instant) -> SimTime {
    SimTime(epoch.elapsed().as_micros() as u64)
}

/// One node thread's schedule: its queue of messages and timers, and
/// what it needs to route and trace the outputs of its handlers.
struct Sched<'a> {
    id: NodeId,
    queue: EventQueue<Msg>,
    router: &'a Router,
    trace: &'a TraceSink,
    epoch: Instant,
}

impl Sched<'_> {
    fn now(&self) -> SimTime {
        since(self.epoch)
    }

    /// True once the queue's head is due.
    fn head_due(&self) -> bool {
        self.queue.peek_time().is_some_and(|t| t <= self.now())
    }

    /// Sends each message after its hold plus the link delay, and queues
    /// each timer.
    fn dispatch(
        &mut self,
        sends: Vec<(SimDuration, NodeId, Msg)>,
        timers: Vec<(SimDuration, TimerId)>,
    ) {
        let (id, now) = (self.id, self.now());
        for (hold, to, msg) in sends {
            if self.trace.is_enabled() {
                self.trace.record(
                    now.as_micros(),
                    id,
                    TraceEventKind::MsgSend {
                        from: id,
                        to,
                        label: msg.label(),
                        bytes: msg.approx_bytes(),
                    },
                );
            }
            let at = now + hold + self.router.delay(id, to);
            // A full inbox or a disconnected peer behaves like a lossy
            // network — HAT protocols tolerate both.
            let _ = self.router.inboxes[to as usize].send(Envelope::Net { at, from: id, msg });
        }
        for (delay, timer) in timers {
            let event = Event::TimerFire {
                node: id,
                timer,
                gen: 0,
            };
            self.queue.push(now + delay, event);
        }
    }

    /// Queues an inbox arrival: a message by its delivery time, a command
    /// behind the commands already waiting.
    fn enqueue(&mut self, env: Envelope, cmds: &mut Cmds) {
        match env {
            Envelope::Net { at, from, msg } => {
                let to = self.id;
                self.queue.push(at, Event::Deliver { to, from, msg });
            }
            Envelope::Cmd(seq, cmd) => cmds.queued.push_back((seq, cmd)),
        }
    }
}

/// A client's interactive commands: the one in flight (its sequence and
/// deadline) and those queued behind it.
#[derive(Default)]
struct Cmds {
    in_flight: Option<(u64, Instant)>,
    queued: VecDeque<(u64, ClientCmd)>,
}

/// Runs one node until `stop` is set. Returns the node (with its final
/// state, metrics and histories).
#[allow(clippy::too_many_arguments)]
pub fn run_node(
    mut node: Node,
    id: NodeId,
    rx: Receiver<Envelope>,
    router: Arc<Router>,
    stop: Arc<AtomicBool>,
    mut rng: StdRng,
    epoch: Instant,
    interactive: Option<InteractivePort>,
    trace: TraceSink,
) -> Node {
    let mut sched = Sched {
        id,
        queue: EventQueue::new(),
        router: &router,
        trace: &trace,
        epoch,
    };
    let mut cmds = Cmds::default();

    let mut ctx = Ctx::detached(id, sched.now(), &mut rng);
    node.on_start(&mut ctx);
    let (sends, timers) = ctx.into_outputs();
    sched.dispatch(sends, timers);

    loop {
        // Deliver everything due, as one group commit: this loop runs
        // the node's durability barrier, once per pass, instead of every
        // handler running its own. Sends queued while the node is clean
        // leave as they are produced; from the first handler that leaves
        // it holding an unsynced write they are held — read replies and
        // replication pushes too, they can expose the write — and
        // released in order once the barrier has covered the pass. The
        // batch is whatever queued up while the previous sync was in
        // flight; a node on a volatile store never holds anything.
        let now = sched.now();
        let mut held = Vec::new();
        let mut holding = false;
        while sched.queue.peek_time().is_some_and(|t| t <= now) {
            let (_, event) = sched.queue.pop().expect("the head was peeked");
            let mut ctx = Ctx::detached(id, sched.now(), &mut rng).deferring_barrier();
            match event {
                Event::Deliver { from, msg, .. } => {
                    if trace.is_enabled() {
                        trace.record(
                            ctx.now().as_micros(),
                            id,
                            TraceEventKind::MsgRecv {
                                from,
                                to: id,
                                label: msg.label(),
                                bytes: msg.approx_bytes(),
                            },
                        );
                    }
                    node.on_message(&mut ctx, from, msg)
                }
                Event::TimerFire { timer, .. } => node.on_timer(&mut ctx, timer),
            }
            let (mut sends, timers) = ctx.into_outputs();
            holding = holding || node.needs_flush();
            if holding {
                held.append(&mut sends);
            }
            sched.dispatch(sends, timers);
        }
        // A failed barrier drops what it was holding back: the server
        // then looks unreachable instead of acknowledging writes it may
        // lose (`ServerStats::wal_flush_failures` counts these).
        if holding && node.flush().is_ok() {
            sched.dispatch(held, Vec::new());
        }
        // interactive port: answer a finished command, start queued ones
        if let Some(port) = &interactive {
            service_interactive(&mut node, port, &mut cmds, &mut sched, &mut rng);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Wait for the next due event or an incoming envelope; command
        // arrivals wake the recv immediately (shared inbox). Spin before
        // parking (the park policy in the module doc).
        let first = match spin_recv(&rx, &sched) {
            Some(env) => Ok(env),
            None => {
                let idle_cap = Duration::from_millis(5);
                let timeout = sched
                    .queue
                    .peek_time()
                    .map(|t| Duration::from_micros((t - sched.now()).as_micros()))
                    .unwrap_or(idle_cap)
                    .min(idle_cap);
                rx.recv_timeout(timeout)
            }
        };
        match first {
            Ok(env) => {
                sched.enqueue(env, &mut cmds);
                // drain whatever else is queued without blocking
                while let Ok(env) = rx.try_recv() {
                    sched.enqueue(env, &mut cmds);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Every pass ends with the barrier, so this normally finds a clean
    // node; it is the guarantee that whoever receives the node back never
    // holds an unsynced write. A failure is counted by the node and has
    // no send left to drop.
    let _ = node.flush();
    node
}

/// Inbox polls a node makes, yielding its core between them, before it
/// parks. Yielding rather than busy-waiting matters: nodes usually
/// outnumber cores, and the peer that will answer may need this one.
/// Long enough to cover a request/reply hop on a loaded box (16, 64 and
/// 256 polls measure alike on `rt-mixed-mem`; 64 is best of the three
/// on `rt-mixed-durable`), short enough that an idle node soon parks.
const SPIN_POLLS: u32 = 64;

/// The bounded spin before parking: polls the inbox, yielding the core
/// between polls, and returns the first envelope to arrive. Gives up
/// after [`SPIN_POLLS`] polls, or as soon as the queue's head is due (the
/// loop has work of its own) or the inbox is disconnected (the blocking
/// receive reports it).
fn spin_recv(rx: &Receiver<Envelope>, sched: &Sched<'_>) -> Option<Envelope> {
    for _ in 0..SPIN_POLLS {
        match rx.try_recv() {
            Ok(env) => return Some(env),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {}
        }
        if sched.head_due() {
            return None;
        }
        std::thread::yield_now();
    }
    None
}

/// Serves the interactive port: answers the command in flight once its
/// client is idle, or abandons it at its deadline, then starts queued
/// commands one at a time (the frontend issues one operation and blocks
/// on its reply).
fn service_interactive(
    node: &mut Node,
    port: &InteractivePort,
    cmds: &mut Cmds,
    sched: &mut Sched<'_>,
    rng: &mut StdRng,
) {
    let client = node.as_client_mut().expect("interactive port on a client");
    while cmds.in_flight.is_some() || !cmds.queued.is_empty() {
        let mut ctx = Ctx::detached(sched.id, sched.now(), rng);
        let reply = match cmds.in_flight {
            Some((cmd_seq, _)) if !client.busy() => {
                cmds.in_flight = None;
                Some((cmd_seq, client.finish_cmd(&mut ctx)))
            }
            Some((_, deadline)) if Instant::now() < deadline => break,
            Some((cmd_seq, _)) => {
                cmds.in_flight = None;
                // Abandoning releases any held 2PL locks (unlock messages
                // go out here).
                client.abandon(&mut ctx);
                let unavailable = HatError::Unavailable { key: None };
                Some((cmd_seq, ClientReply::Failed(unavailable)))
            }
            None => {
                let (cmd_seq, cmd) = cmds.queued.pop_front().expect("the loop checked");
                let reply = client.start_cmd(&mut ctx, cmd);
                if reply.is_none() {
                    cmds.in_flight = Some((cmd_seq, Instant::now() + port.op_deadline));
                }
                reply.map(|reply| (cmd_seq, reply))
            }
        };
        let (sends, timers) = ctx.into_outputs();
        sched.dispatch(sends, timers);
        if let Some(reply) = reply {
            let _ = port.reply_tx.send(reply);
        }
    }
}
