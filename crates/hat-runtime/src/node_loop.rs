//! Per-node event loop: a thread owning one [`Node`].
//!
//! Client nodes can optionally carry an *interactive port*: the
//! transport of the one command path both backends share. A
//! `RuntimeFrontend` sends [`ClientCmd`]s (begin / get / put / scan /
//! commit …) into the running thread and gets [`ClientReply`]s back, so
//! the threaded runtime is drivable through the same
//! [`hat_core::Frontend`] surface as the simulator instead of only
//! replaying canned `TxnSource` plans. What a command does is the
//! client's own code — `Client::start_cmd`, then `Client::finish_cmd`
//! once the client is idle — exactly as under the simulator; the loop
//! adds only the transport and a wall-clock deadline, at which it
//! abandons the transaction and replies `Failed(Unavailable)`.
//!
//! One pass of the loop delivers everything due (messages and timers
//! from one heap), runs the durability barrier, serves the interactive
//! port, and then waits for more. **Park policy:** it first polls the
//! inbox in a short bounded spin, yielding the core between polls, and
//! only then blocks in `recv_timeout` until the heap's head is due; the
//! spin ends early once that head is due or the inbox is disconnected.
//! A request/reply hop is a few microseconds of work; a futex sleep plus
//! wake-up per hop costs more than the handlers themselves.
//! **Timer rule:** the heap has no cancel, so actors keep it small
//! themselves: a client keeps one live timer per deadline purpose (its
//! round's retry, its protocol half's own) rather than one per request,
//! and servers arm one periodic timer per task.

use hat_core::{ClientCmd, ClientReply, HatError, Msg, Node, TraceEventKind, TraceSink};
use hat_sim::{Actor, Ctx, NodeId, SimTime, TimerId};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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
        /// Wall-clock delivery deadline.
        at: Instant,
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

#[derive(Debug)]
enum Due {
    Deliver { from: NodeId, msg: Msg },
    Timer(TimerId),
}

struct Scheduled {
    at: Instant,
    seq: u64,
    due: Due,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
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
    pub fn delay(&self, from: NodeId, to: NodeId) -> Duration {
        Duration::from_micros(self.delay_us[from as usize][to as usize])
    }
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
    let mut heap: BinaryHeap<Reverse<Scheduled>> = BinaryHeap::new();
    let mut seq = 0u64;
    // The command in flight (its sequence and deadline), and those queued
    // behind it.
    let mut in_flight: Option<(u64, Instant)> = None;
    let mut cmd_queue: VecDeque<(u64, ClientCmd)> = VecDeque::new();

    let now_sim = |epoch: Instant| SimTime(epoch.elapsed().as_micros() as u64);

    // on_start
    {
        let mut ctx = Ctx::detached(id, now_sim(epoch), &mut rng);
        node.on_start(&mut ctx);
        let (sends, timers) = ctx.into_outputs();
        dispatch_outputs(
            id, sends, timers, &router, &mut heap, &mut seq, &trace, epoch,
        );
    }

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
        let now = Instant::now();
        let mut held = Vec::new();
        let mut holding = false;
        while heap.peek().map(|Reverse(s)| s.at <= now).unwrap_or(false) {
            let Reverse(s) = heap.pop().unwrap();
            let mut ctx = Ctx::detached(id, now_sim(epoch), &mut rng).deferring_barrier();
            match s.due {
                Due::Deliver { from, msg } => {
                    if trace.is_enabled() {
                        trace.record(
                            now_sim(epoch).as_micros(),
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
                Due::Timer(tag) => node.on_timer(&mut ctx, tag),
            }
            let (mut sends, timers) = ctx.into_outputs();
            holding = holding || node.needs_flush();
            if holding {
                held.append(&mut sends);
            }
            dispatch_outputs(
                id, sends, timers, &router, &mut heap, &mut seq, &trace, epoch,
            );
        }
        // A failed barrier drops what it was holding back: the server
        // then looks unreachable instead of acknowledging writes it may
        // lose (`ServerStats::wal_flush_failures` counts these).
        if holding && node.flush().is_ok() {
            dispatch_outputs(
                id,
                held,
                Vec::new(),
                &router,
                &mut heap,
                &mut seq,
                &trace,
                epoch,
            );
        }
        // interactive port: answer a finished command, start queued ones
        if let Some(port) = &interactive {
            service_interactive(
                &mut node,
                id,
                port,
                &mut in_flight,
                &mut cmd_queue,
                &router,
                &mut heap,
                &mut seq,
                &mut rng,
                epoch,
                &trace,
            );
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Wait for the next due event or an incoming envelope; command
        // arrivals wake the recv immediately (shared inbox). Spin before
        // parking (the park policy in the module doc).
        let first = match spin_recv(&rx, &heap) {
            Some(env) => Ok(env),
            None => {
                let idle_cap = Duration::from_millis(5);
                let timeout = heap
                    .peek()
                    .map(|Reverse(s)| s.at.saturating_duration_since(Instant::now()))
                    .unwrap_or(idle_cap)
                    .min(idle_cap);
                rx.recv_timeout(timeout)
            }
        };
        let mut enqueue = |env: Envelope, seq: &mut u64| match env {
            Envelope::Net { at, from, msg } => {
                *seq += 1;
                heap.push(Reverse(Scheduled {
                    at,
                    seq: *seq,
                    due: Due::Deliver { from, msg },
                }));
            }
            Envelope::Cmd(cmd_seq, cmd) => cmd_queue.push_back((cmd_seq, cmd)),
        };
        match first {
            Ok(env) => {
                enqueue(env, &mut seq);
                // drain whatever else is queued without blocking
                while let Ok(env) = rx.try_recv() {
                    enqueue(env, &mut seq);
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
/// after [`SPIN_POLLS`] polls, or as soon as the heap's head is due (the
/// loop has work of its own) or the inbox is disconnected (the blocking
/// receive reports it).
fn spin_recv(rx: &Receiver<Envelope>, heap: &BinaryHeap<Reverse<Scheduled>>) -> Option<Envelope> {
    for _ in 0..SPIN_POLLS {
        match rx.try_recv() {
            Ok(env) => return Some(env),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {}
        }
        if heap.peek().is_some_and(|Reverse(s)| s.at <= Instant::now()) {
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
#[allow(clippy::too_many_arguments)]
fn service_interactive(
    node: &mut Node,
    id: NodeId,
    port: &InteractivePort,
    in_flight: &mut Option<(u64, Instant)>,
    cmd_queue: &mut VecDeque<(u64, ClientCmd)>,
    router: &Router,
    heap: &mut BinaryHeap<Reverse<Scheduled>>,
    seq: &mut u64,
    rng: &mut StdRng,
    epoch: Instant,
    trace: &TraceSink,
) {
    let client = node.as_client_mut().expect("interactive port on a client");
    while in_flight.is_some() || !cmd_queue.is_empty() {
        let mut ctx = Ctx::detached(id, SimTime(epoch.elapsed().as_micros() as u64), rng);
        let reply = match *in_flight {
            Some((cmd_seq, _)) if !client.busy() => {
                *in_flight = None;
                Some((cmd_seq, client.finish_cmd(&mut ctx)))
            }
            Some((_, deadline)) if Instant::now() < deadline => break,
            Some((cmd_seq, _)) => {
                *in_flight = None;
                // Abandoning releases any held 2PL locks (unlock messages
                // go out here).
                client.abandon(&mut ctx);
                let unavailable = HatError::Unavailable { key: None };
                Some((cmd_seq, ClientReply::Failed(unavailable)))
            }
            None => {
                let (cmd_seq, cmd) = cmd_queue.pop_front().expect("the loop checked");
                let reply = client.start_cmd(&mut ctx, cmd);
                if reply.is_none() {
                    *in_flight = Some((cmd_seq, Instant::now() + port.op_deadline));
                }
                reply.map(|reply| (cmd_seq, reply))
            }
        };
        let (sends, timers) = ctx.into_outputs();
        dispatch_outputs(id, sends, timers, router, heap, seq, trace, epoch);
        if let Some(reply) = reply {
            let _ = port.reply_tx.send(reply);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_outputs(
    id: NodeId,
    sends: Vec<(hat_sim::SimDuration, NodeId, Msg)>,
    timers: Vec<(hat_sim::SimDuration, TimerId)>,
    router: &Router,
    heap: &mut BinaryHeap<Reverse<Scheduled>>,
    seq: &mut u64,
    trace: &TraceSink,
    epoch: Instant,
) {
    let now = Instant::now();
    for (hold, to, msg) in sends {
        if trace.is_enabled() {
            trace.record(
                epoch.elapsed().as_micros() as u64,
                id,
                TraceEventKind::MsgSend {
                    from: id,
                    to,
                    label: msg.label(),
                    bytes: msg.approx_bytes(),
                },
            );
        }
        let at = now + Duration::from_micros(hold.as_micros()) + router.delay(id, to);
        // A full inbox or a disconnected peer behaves like a lossy
        // network — HAT protocols tolerate both.
        let _ = router.inboxes[to as usize].send(Envelope::Net { at, from: id, msg });
    }
    for (delay, tag) in timers {
        *seq += 1;
        heap.push(Reverse(Scheduled {
            at: now + Duration::from_micros(delay.as_micros()),
            seq: *seq,
            due: Due::Timer(tag),
        }));
    }
}
