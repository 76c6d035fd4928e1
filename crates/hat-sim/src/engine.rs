//! The discrete-event simulation engine.
//!
//! Nodes implement [`Actor`] and interact with the world exclusively
//! through a [`Ctx`]: reading the clock, sending messages, setting timers,
//! and drawing randomness from the engine's seeded RNG. The engine pops
//! events in deterministic `(time, insertion)` order, applies the latency
//! model to every send, and drops messages that cross an active partition
//! — exactly the fault model assumed by the paper's availability
//! definitions (a partitioned server never hears from the other side, and
//! nothing tells the sender).
//!
//! The same engine is the threaded runtime's node loop; its constructor
//! picks the clock. [`Engine::new`] is the simulator: virtual time jumps
//! from event to event and the engine holds every node of the topology.
//! [`Engine::wall`] runs on the wall clock and holds some of the nodes:
//! [`Engine::run_due`] delivers whatever has fallen due as one pass under
//! one durability barrier, every hop takes its [`Link`]'s fixed delay,
//! and sends to the nodes it does not hold leave through that link.

use crate::event::{Event, EventQueue};
use crate::latency::LatencyModel;
use crate::partition::PartitionSchedule;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Tag identifying a timer to the actor that set it. Tags are chosen by
/// the actor (they need not be unique); a periodic task typically reuses
/// one tag.
pub type TimerId = u64;

/// A simulated node: a deterministic state machine reacting to messages
/// and timers.
pub trait Actor {
    /// Message type exchanged between actors of this simulation.
    type Msg;

    /// Invoked once before any event is processed; typically used to set
    /// initial timers or send bootstrap messages.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Invoked when a message from `from` is delivered to this actor.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Invoked when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _timer: TimerId) {}

    /// True while the actor holds a write its durability barrier has not
    /// covered. Only a wall-clock engine asks: from the first handler of
    /// a pass that leaves an actor so, it holds back every send until
    /// [`Actor::flush`] has covered the pass.
    fn needs_flush(&self) -> bool {
        false
    }

    /// Runs the actor's durability barrier. Returns `false` if it
    /// failed: the engine then drops the sends it was holding back.
    fn flush(&mut self) -> bool {
        true
    }
}

/// A wall-clock engine's way out (see [`Engine::wall`]): the fixed delay
/// of every hop it routes, and the road to the nodes it does not hold.
pub trait Link<M> {
    /// One-way delay of a hop from `from` to `to`.
    fn delay(&self, from: NodeId, to: NodeId) -> SimDuration;

    /// Hands `msg` to whatever holds `to`, for delivery at `at`.
    fn send(&self, at: SimTime, from: NodeId, to: NodeId, msg: M);
}

/// The actor's handle to the simulation during a callback.
pub struct Ctx<'a, M> {
    /// Id of the actor being invoked.
    pub self_id: NodeId,
    now: SimTime,
    rng: &'a mut StdRng,
    outbox: Vec<(SimDuration, NodeId, M)>,
    timer_requests: Vec<(SimDuration, TimerId)>,
    barrier_deferred: bool,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to`. Delivery latency is drawn from the latency
    /// model; the message is silently dropped if a partition separates the
    /// two nodes at send time.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((SimDuration::ZERO, to, msg));
    }

    /// Sends `msg` to `to` after a local processing delay of `hold` —
    /// used to model server service time (the reply leaves the node once
    /// the request has been processed). Network latency and partition
    /// checks apply on top of `hold`, evaluated at the *release* time.
    pub fn send_after(&mut self, hold: SimDuration, to: NodeId, msg: M) {
        self.outbox.push((hold, to, msg));
    }

    /// Schedules a timer to fire after `delay`; `tag` is returned to
    /// [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: TimerId) {
        self.timer_requests.push((delay, tag));
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Builds a detached context for harnesses that call an actor
    /// without an [`Engine`]: the caller supplies the clock and RNG and
    /// collects the outputs with [`Ctx::into_outputs`] after the actor
    /// callback returns.
    pub fn detached(self_id: NodeId, now: SimTime, rng: &'a mut StdRng) -> Self {
        Ctx {
            self_id,
            now,
            rng,
            outbox: Vec::new(),
            timer_requests: Vec::new(),
            barrier_deferred: false,
        }
    }

    /// Driver-to-actor promise: the driver will run the actor's
    /// durability barrier itself, after this callback (and possibly
    /// several more) and before it releases any send they queued. An
    /// actor that would otherwise end every callback with its barrier
    /// skips it when [`Ctx::barrier_deferred`] says so; one that sees a
    /// plain context stays safe on its own. This is how a driver batches
    /// one disk sync over many callbacks (group commit).
    pub fn deferring_barrier(mut self) -> Self {
        self.barrier_deferred = true;
        self
    }

    /// True if the driver took over the durability barrier (see
    /// [`Ctx::deferring_barrier`]).
    pub fn barrier_deferred(&self) -> bool {
        self.barrier_deferred
    }

    /// Drops every send this callback has queued — what an actor does
    /// when its durability barrier fails: nothing that could reflect an
    /// unsynced write may leave. Timers stay.
    pub fn discard_sends(&mut self) {
        self.outbox.clear();
    }

    /// Consumes the context, returning `(sends, timers)`: each send is
    /// `(hold, to, msg)` and each timer `(delay, tag)`.
    #[allow(clippy::type_complexity)]
    pub fn into_outputs(self) -> (Vec<(SimDuration, NodeId, M)>, Vec<(SimDuration, TimerId)>) {
        (self.outbox, self.timer_requests)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Seed for the engine RNG; identical seeds give identical runs.
    pub seed: u64,
    /// Latency model applied to every message.
    pub latency: LatencyModel,
    /// Partition schedule; messages crossing an active cut are dropped.
    pub partitions: PartitionSchedule,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0xEC2_CAFE,
            latency: LatencyModel::default(),
            partitions: PartitionSchedule::none(),
        }
    }
}

/// Counters describing what the network did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages dropped by an active partition (or addressed to a
    /// crashed node).
    pub dropped: u64,
}

/// Per-node fault bookkeeping: crash state, incarnation and drop
/// counters attributed to the node as message *destination*.
#[derive(Debug, Clone, Copy, Default)]
struct NodeFault {
    crashed: bool,
    /// Incarnation count; bumped on every restart so timers armed by a
    /// previous incarnation never fire into the new one.
    gen: u64,
    dropped_by_partition: u64,
    dropped_by_crash: u64,
    crashes: u64,
}

/// Snapshot of one node's fault counters (see [`Engine::fault_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeFaultStats {
    /// Messages destined to this node dropped by an active partition.
    pub dropped_by_partition: u64,
    /// Messages destined to this node dropped because it was crashed at
    /// delivery time.
    pub dropped_by_crash: u64,
    /// Times this node has been crashed.
    pub crashes: u64,
}

/// What happened to a message at a network hop, as seen by a
/// [`NetTracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetHop {
    /// The message left the sender (before latency sampling).
    Send,
    /// The message reached a live destination actor.
    Deliver,
    /// An active partition dropped the message at send time.
    DropPartition,
    /// The destination was crashed at delivery time.
    DropCrash,
}

/// Observer hook for network activity: `(now, from, to, msg, hop)`.
///
/// The engine stays trace-agnostic — callers (e.g. `hat-core`'s
/// deployment builder) install a closure that translates messages into
/// whatever event vocabulary they use. The hook is called *outside* all
/// rng use: it observes, it must never perturb determinism.
pub type NetTracer<M> = Box<dyn FnMut(SimTime, NodeId, NodeId, &M, NetHop)>;

/// What makes an engine a wall-clock engine (see [`Engine::wall`]).
struct Wall<M> {
    epoch: Instant,
    link: Arc<dyn Link<M>>,
}

/// The simulation engine: owns the actors, the clock, the event queue and
/// the network model.
pub struct Engine<A: Actor> {
    topology: Topology,
    actors: Vec<A>,
    /// Node id of `actors[0]`: the engine holds the nodes
    /// `first..first + actors.len()`.
    first: NodeId,
    queue: EventQueue<A::Msg>,
    now: SimTime,
    rng: StdRng,
    config: EngineConfig,
    stats: NetStats,
    faults: Vec<NodeFault>,
    /// Multiplier applied to sampled cross-node latency — the latency-
    /// spike fault. 1.0 is the healthy network.
    latency_factor: f64,
    started: bool,
    net_tracer: Option<NetTracer<A::Msg>>,
    wall: Option<Wall<A::Msg>>,
    /// True while [`Engine::run_due`] runs a pass: its handlers leave
    /// the durability barrier to the pass.
    in_pass: bool,
    /// From the pass's first handler that leaves its actor
    /// [`Actor::needs_flush`] on, the sends the pass holds back, by
    /// sender.
    #[allow(clippy::type_complexity)]
    held: Option<Vec<(NodeId, Vec<(SimDuration, NodeId, A::Msg)>)>>,
}

impl<A: Actor> Engine<A> {
    /// Creates an engine over `actors`, whose indices must match the node
    /// ids assigned by `topology`.
    ///
    /// # Panics
    /// Panics if `actors.len() != topology.len()`.
    pub fn new(config: EngineConfig, topology: Topology, actors: Vec<A>) -> Self {
        assert_eq!(
            actors.len(),
            topology.len(),
            "one actor required per topology node"
        );
        let rng = StdRng::seed_from_u64(config.seed);
        let faults = vec![NodeFault::default(); actors.len()];
        Engine {
            topology,
            actors,
            first: 0,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng,
            config,
            stats: NetStats::default(),
            faults,
            latency_factor: 1.0,
            started: false,
            net_tracer: None,
            wall: None,
            in_pass: false,
            held: None,
        }
    }

    /// Creates an engine on the wall clock that holds `actors` as the
    /// nodes `first..first + actors.len()`: the threaded runtime's node
    /// loop. Time is the microseconds elapsed since `epoch`, and events
    /// fall due as it passes ([`Engine::run_due`] delivers them). Every
    /// hop takes `link`'s delay, so no latency is sampled and `rng` is
    /// the actors' alone; a send to a node this engine does not hold
    /// leaves through `link`.
    pub fn wall(
        epoch: Instant,
        first: NodeId,
        actors: Vec<A>,
        rng: StdRng,
        link: Arc<dyn Link<A::Msg>>,
    ) -> Self {
        Engine {
            faults: vec![NodeFault::default(); actors.len()],
            actors,
            first,
            rng,
            wall: Some(Wall { epoch, link }),
            ..Engine::new(EngineConfig::default(), Topology::new(), Vec::new())
        }
    }

    /// Installs a [`NetTracer`] observing every send, delivery and drop.
    /// The tracer runs outside all rng sampling, so installing one (or
    /// not) never changes a seeded run's schedule.
    pub fn set_net_tracer(
        &mut self,
        tracer: impl FnMut(SimTime, NodeId, NodeId, &A::Msg, NetHop) + 'static,
    ) {
        self.net_tracer = Some(Box::new(tracer));
    }

    /// Current time: simulated, or the wall clock's on a wall-clock
    /// engine.
    pub fn now(&self) -> SimTime {
        self.wall
            .as_ref()
            .map_or(self.now, |wall| SimTime::elapsed(wall.epoch))
    }

    /// Reads the wall clock into `now` on a wall-clock engine; simulated
    /// time moves only with the events.
    fn tick(&mut self) {
        self.now = self.now();
    }

    /// Network statistics so far.
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Mutable access to the partition schedule — nemesis schedules
    /// inject and heal cuts mid-run through this.
    pub fn partitions_mut(&mut self) -> &mut PartitionSchedule {
        &mut self.config.partitions
    }

    /// Sets the latency multiplier applied to every cross-node message
    /// from now on (latency-spike fault; 1.0 restores the healthy
    /// network). Sampling still consumes the same rng stream, so toggling
    /// the factor never reshuffles an otherwise-identical run.
    pub fn set_latency_factor(&mut self, factor: f64) {
        self.latency_factor = if factor.is_finite() && factor > 0.0 {
            factor
        } else {
            1.0
        };
    }

    /// The current latency multiplier (1.0 on a healthy network).
    pub fn latency_factor(&self) -> f64 {
        self.latency_factor
    }

    /// Index of node `id` among the actors this engine holds.
    fn slot(&self, id: NodeId) -> usize {
        (id - self.first) as usize
    }

    /// True if this engine holds node `id`.
    fn holds(&self, id: NodeId) -> bool {
        id >= self.first && self.slot(id) < self.actors.len()
    }

    /// Fault counters attributed to `node`.
    pub fn fault_stats(&self, node: NodeId) -> NodeFaultStats {
        let f = &self.faults[self.slot(node)];
        NodeFaultStats {
            dropped_by_partition: f.dropped_by_partition,
            dropped_by_crash: f.dropped_by_crash,
            crashes: f.crashes,
        }
    }

    /// True while `node` is crashed (between [`Engine::crash`] and
    /// [`Engine::restart_with`]).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.faults[self.slot(node)].crashed
    }

    /// Crashes `node`: from now until restart, messages addressed to it
    /// are dropped at delivery time and its pending timers are
    /// discarded. The actor's in-memory state stays in place but is
    /// never invoked again — [`Engine::restart_with`] replaces it
    /// wholesale, which is where recovery-from-durable-state happens.
    ///
    /// # Panics
    /// Panics if `node` is already crashed.
    pub fn crash(&mut self, node: NodeId) {
        let slot = self.slot(node);
        let f = &mut self.faults[slot];
        assert!(!f.crashed, "node {node} is already crashed");
        f.crashed = true;
        f.crashes += 1;
    }

    /// Restarts a crashed `node` with a fresh actor (typically rebuilt
    /// from recovered durable state). The node's incarnation is bumped —
    /// timers armed before the crash never fire into the new actor — and
    /// the new actor's `on_start` runs immediately, as on boot.
    ///
    /// # Panics
    /// Panics if `node` is not crashed.
    pub fn restart_with(&mut self, node: NodeId, actor: A) {
        let slot = self.slot(node);
        let f = &mut self.faults[slot];
        assert!(f.crashed, "restart_with requires a crashed node");
        f.crashed = false;
        f.gen += 1;
        self.actors[slot] = actor;
        if self.started {
            self.invoke(node, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Immutable access to an actor.
    pub fn actor(&self, id: NodeId) -> &A {
        &self.actors[self.slot(id)]
    }

    /// Mutable access to an actor (for inspection or test injection
    /// between runs; mutations take effect before the next event).
    pub fn actor_mut(&mut self, id: NodeId) -> &mut A {
        let slot = self.slot(id);
        &mut self.actors[slot]
    }

    /// Consumes the engine, returning the actors it holds.
    pub fn into_actors(self) -> Vec<A> {
        self.actors
    }

    /// The node topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in self.first..self.first + self.actors.len() as NodeId {
            self.invoke(id, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Runs a single actor callback, then routes its outputs — or, in a
    /// pass that is holding, holds its sends.
    fn invoke(&mut self, id: NodeId, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>)) {
        self.tick();
        let slot = self.slot(id);
        let gen = self.faults[slot].gen;
        let mut ctx = Ctx {
            self_id: id,
            now: self.now,
            rng: &mut self.rng,
            outbox: Vec::new(),
            timer_requests: Vec::new(),
            barrier_deferred: self.in_pass,
        };
        f(&mut self.actors[slot], &mut ctx);
        let Ctx {
            outbox,
            timer_requests,
            ..
        } = ctx;
        if self.in_pass && (self.held.is_some() || self.actors[slot].needs_flush()) {
            self.held.get_or_insert_with(Vec::new).push((id, outbox));
        } else {
            for (hold, to, msg) in outbox {
                self.route(id, to, msg, hold);
            }
        }
        for (delay, tag) in timer_requests {
            self.queue.push(
                self.now + delay,
                Event::TimerFire {
                    node: id,
                    timer: tag,
                    gen,
                },
            );
        }
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: A::Msg, hold: SimDuration) {
        self.stats.sent += 1;
        let release = self.now + hold;
        if self.config.partitions.blocks(from, to, release) {
            self.stats.dropped += 1;
            if self.holds(to) {
                let slot = self.slot(to);
                self.faults[slot].dropped_by_partition += 1;
            }
            if let Some(t) = self.net_tracer.as_mut() {
                t(self.now, from, to, &msg, NetHop::DropPartition);
            }
            return;
        }
        if let Some(t) = self.net_tracer.as_mut() {
            t(self.now, from, to, &msg, NetHop::Send);
        }
        let latency = if let Some(wall) = &self.wall {
            wall.link.delay(from, to)
        } else if from == to {
            SimDuration::from_micros((self.config.latency.local_rtt_ms * 500.0) as u64)
        } else {
            let a = self.topology.site(from);
            let b = self.topology.site(to);
            let sampled = self.config.latency.sample_one_way(a, b, &mut self.rng);
            if self.latency_factor != 1.0 {
                SimDuration::from_micros((sampled.as_micros() as f64 * self.latency_factor) as u64)
            } else {
                sampled
            }
        };
        if self.holds(to) {
            self.enqueue(release + latency, from, to, msg);
        } else {
            let wall = self.wall.as_ref().expect("a simulator holds every node");
            wall.link.send(release + latency, from, to, msg);
        }
    }

    /// Invokes a callback on actor `id` with a full [`Ctx`], outside of
    /// any event. Messages sent and timers set by the callback are routed
    /// exactly as from an event handler. This is the entry point external
    /// drivers (the transaction facade, tests) use to inject work.
    pub fn with_actor_ctx<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>) -> R,
    ) -> R {
        self.ensure_started();
        let mut out = None;
        self.invoke(id, |actor, ctx| out = Some(f(actor, ctx)));
        out.expect("callback always runs")
    }

    /// Queues `msg` from `from` for the held node `to` at `at`: how a send
    /// that left another engine through its [`Link`] arrives.
    pub fn enqueue(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: A::Msg) {
        self.queue.push(at, Event::Deliver { to, from, msg });
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// exhausted.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time must not run backwards");
        self.now = time;
        self.fire(event);
        true
    }

    /// Delivers a message or fires a timer, unless a crash swallows it.
    fn fire(&mut self, event: Event<A::Msg>) {
        self.tick();
        match event {
            Event::Deliver { to, from, msg } => {
                // A message in flight toward a crashed node is lost at
                // delivery time (the kernel that would have received it
                // is gone). Messages sent before the crash but arriving
                // after a restart are delivered — that's a delayed
                // packet, which real networks produce too.
                let slot = self.slot(to);
                if self.faults[slot].crashed {
                    self.stats.dropped += 1;
                    self.faults[slot].dropped_by_crash += 1;
                    if let Some(t) = self.net_tracer.as_mut() {
                        t(self.now, from, to, &msg, NetHop::DropCrash);
                    }
                    return;
                }
                self.stats.delivered += 1;
                if let Some(t) = self.net_tracer.as_mut() {
                    t(self.now, from, to, &msg, NetHop::Deliver);
                }
                self.invoke(to, |actor, ctx| actor.on_message(ctx, from, msg));
            }
            Event::TimerFire { node, timer, gen } => {
                // Timers die with their incarnation: swallowed while the
                // node is down, and never delivered to a later
                // incarnation (the restart's `on_start` arms its own).
                let fault = self.faults[self.slot(node)];
                if fault.crashed || fault.gen != gen {
                    return;
                }
                self.invoke(node, |actor, ctx| actor.on_timer(ctx, timer));
            }
        }
    }

    /// Runs one pass on the wall clock: delivers every message and fires
    /// every timer due by now, as one group commit. The pass runs the
    /// actors' durability barrier once, in place of every handler running
    /// its own. Sends queued while the actors are clean leave as they are
    /// produced; from the first handler that leaves an actor holding an
    /// unsynced write they are held — read replies and replication
    /// pushes too, they can expose the write — and released in order once
    /// the barrier has covered the pass. Timers are never held. The batch
    /// is whatever fell due while the previous barrier was in flight;
    /// actors on a volatile store never hold anything.
    pub fn run_due(&mut self) {
        self.ensure_started();
        let now = self.now();
        self.in_pass = true;
        while self.queue.peek_time().is_some_and(|t| t <= now) {
            let (_, event) = self.queue.pop().expect("the head was peeked");
            self.fire(event);
        }
        self.in_pass = false;
        // Every dirty actor runs its barrier. One that fails drops the
        // sends it was holding back: it then looks unreachable instead
        // of acknowledging writes it may lose. The others' sends leave:
        // none can reflect the failed actor's writes, because the pass
        // held its sends to co-resident actors too.
        if let Some(held) = self.held.take() {
            let failed: Vec<NodeId> = (self.first..)
                .zip(&mut self.actors)
                .filter_map(|(id, actor)| (actor.needs_flush() && !actor.flush()).then_some(id))
                .collect();
            self.tick();
            for (from, sends) in held {
                if failed.contains(&from) {
                    continue;
                }
                for (hold, to, msg) in sends {
                    self.route(from, to, msg, hold);
                }
            }
        }
    }

    /// Runs until the queue is empty or simulated time would exceed
    /// `deadline`; events scheduled after `deadline` stay queued and the
    /// clock is advanced to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `d` of simulated time from the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until no events remain (use only for workloads that quiesce).
    pub fn run_to_quiescence(&mut self) {
        self.ensure_started();
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::Region;
    use crate::partition::Partition;
    use crate::topology::Site;
    use rand::Rng;

    /// A ping-pong actor: node 0 starts, each node replies up to `budget`
    /// times, recording delivery times.
    struct PingPong {
        peer: NodeId,
        budget: u32,
        initiator: bool,
        deliveries: Vec<SimTime>,
    }

    impl Actor for PingPong {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.initiator {
                ctx.send(self.peer, 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.deliveries.push(ctx.now());
            if msg < self.budget {
                ctx.send(from, msg + 1);
            }
        }
    }

    fn two_node_engine(config: EngineConfig) -> Engine<PingPong> {
        let mut topo = Topology::new();
        let a = topo.add_node(Site::new(Region::Virginia, 0));
        let b = topo.add_node(Site::new(Region::Oregon, 0));
        let actors = vec![
            PingPong {
                peer: b,
                budget: 10,
                initiator: true,
                deliveries: Vec::new(),
            },
            PingPong {
                peer: a,
                budget: 10,
                initiator: false,
                deliveries: Vec::new(),
            },
        ];
        Engine::new(config, topo, actors)
    }

    #[test]
    fn ping_pong_exchanges_messages_with_wan_latency() {
        let mut engine = two_node_engine(EngineConfig::default());
        engine.run_to_quiescence();
        // 11 messages total (0..=10), alternating delivery
        let total: usize = (0..2).map(|i| engine.actor(i).deliveries.len()).sum();
        assert_eq!(total, 11);
        // VA<->OR mean RTT is 82.9ms so one-way ~41ms; first delivery
        // should be in that ballpark (log-normal, generous bounds).
        let first = engine.actor(1).deliveries[0];
        assert!(
            first.as_millis_f64() > 5.0 && first.as_millis_f64() < 400.0,
            "first delivery at {first}"
        );
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed: u64| {
            let mut e = two_node_engine(EngineConfig {
                seed,
                ..EngineConfig::default()
            });
            e.run_to_quiescence();
            (
                e.actor(0).deliveries.clone(),
                e.actor(1).deliveries.clone(),
                e.now(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).2, run(43).2, "different seeds should differ");
    }

    #[test]
    fn partition_drops_messages() {
        let cfg = EngineConfig {
            partitions: PartitionSchedule::from_partitions(vec![Partition::forever(
                SimTime::ZERO,
                [0],
                [1],
            )]),
            ..EngineConfig::default()
        };
        let mut engine = two_node_engine(cfg);
        engine.run_to_quiescence();
        assert_eq!(engine.actor(1).deliveries.len(), 0);
        let stats = engine.net_stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn healed_partition_allows_later_traffic() {
        struct Retry {
            peer: NodeId,
            got: u32,
        }
        impl Actor for Retry {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                // retry every 10ms, 20 times
                for i in 0..20 {
                    ctx.set_timer(SimDuration::from_millis(10 * (i + 1)), i);
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _t: TimerId) {
                ctx.send(self.peer, ());
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
                self.got += 1;
            }
        }
        let mut topo = Topology::new();
        let a = topo.add_node(Site::new(Region::Virginia, 0));
        let b = topo.add_node(Site::new(Region::Virginia, 0));
        let cfg = EngineConfig {
            partitions: PartitionSchedule::from_partitions(vec![Partition::new(
                SimTime::ZERO,
                SimTime::from_millis(100),
                [a],
                [b],
            )]),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(
            cfg,
            topo,
            vec![Retry { peer: b, got: 0 }, Retry { peer: a, got: 0 }],
        );
        e.run_to_quiescence();
        // sends at 10..=100ms blocked (end exclusive at exactly 100ms the
        // partition has healed), later ones delivered
        let got = e.actor(b).got;
        assert!((10..20).contains(&got), "got {got}");
        assert!(e.net_stats().dropped >= 9);
    }

    #[test]
    fn timers_fire_in_order_and_advance_clock() {
        struct T {
            fired: Vec<(TimerId, SimTime)>,
        }
        impl Actor for T {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, t: TimerId) {
                self.fired.push((t, ctx.now()));
            }
        }
        let mut topo = Topology::new();
        topo.add_node(Site::new(Region::Virginia, 0));
        let mut e = Engine::new(EngineConfig::default(), topo, vec![T { fired: vec![] }]);
        e.run_to_quiescence();
        let tags: Vec<TimerId> = e.actor(0).fired.iter().map(|f| f.0).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(e.actor(0).fired[2].1, SimTime::from_millis(30));
    }

    #[test]
    fn crashed_node_drops_deliveries_and_timers() {
        let mut engine = two_node_engine(EngineConfig::default());
        engine.run_until(SimTime::from_millis(1)); // started, ping in flight
        engine.crash(1);
        assert!(engine.is_crashed(1));
        engine.run_to_quiescence();
        // the initial ping was in flight toward node 1 when it crashed
        assert_eq!(engine.actor(1).deliveries.len(), 0);
        let f = engine.fault_stats(1);
        assert_eq!(f.crashes, 1);
        assert_eq!(f.dropped_by_crash, 1);
        assert_eq!(engine.net_stats().dropped, 1);
    }

    #[test]
    fn restart_runs_on_start_and_kills_stale_timers() {
        struct Beeper {
            beeps: u32,
            armed: bool,
        }
        impl Actor for Beeper {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if self.armed {
                    ctx.set_timer(SimDuration::from_millis(100), 7);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _t: TimerId) {
                self.beeps += 1;
                ctx.set_timer(SimDuration::from_millis(100), 7);
            }
        }
        let mut topo = Topology::new();
        topo.add_node(Site::new(Region::Virginia, 0));
        let mut e = Engine::new(
            EngineConfig::default(),
            topo,
            vec![Beeper {
                beeps: 0,
                armed: true,
            }],
        );
        e.run_until(SimTime::from_millis(250)); // beeps at 100, 200
        assert_eq!(e.actor(0).beeps, 2);
        e.crash(0);
        e.run_until(SimTime::from_millis(450)); // timer at 300 swallowed
                                                // restart with a disarmed beeper: the pre-crash timer chain must
                                                // NOT resume into the new incarnation
        e.restart_with(
            0,
            Beeper {
                beeps: 0,
                armed: false,
            },
        );
        e.run_until(SimTime::from_millis(1000));
        assert_eq!(e.actor(0).beeps, 0, "stale timer fired into restart");
        assert_eq!(e.fault_stats(0).crashes, 1);
    }

    #[test]
    fn latency_factor_slows_delivery_without_consuming_extra_rng() {
        let run = |factor: f64| {
            let mut e = two_node_engine(EngineConfig::default());
            e.set_latency_factor(factor);
            e.run_to_quiescence();
            (e.now(), e.actor(1).deliveries[0])
        };
        let (end_1x, first_1x) = run(1.0);
        let (end_4x, first_4x) = run(4.0);
        assert!(first_4x > first_1x, "spike must slow the first delivery");
        assert!(end_4x > end_1x);
        // same seed, same number of rng draws: scaling preserves the
        // sampled sequence, so 4x is exactly 4x on the first hop
        assert_eq!(first_4x.as_micros(), first_1x.as_micros() * 4);
    }

    #[test]
    fn one_way_partition_drops_only_forward_traffic() {
        let cfg = EngineConfig {
            partitions: PartitionSchedule::from_partitions(vec![Partition::one_way(
                SimTime::ZERO,
                SimTime(u64::MAX),
                [0],
                [1],
            )]),
            ..EngineConfig::default()
        };
        let mut engine = two_node_engine(cfg);
        engine.run_to_quiescence();
        // node 0's opening ping is dropped; node 1 never replies because
        // it never hears anything — asymmetric silence
        assert_eq!(engine.actor(1).deliveries.len(), 0);
        assert_eq!(engine.fault_stats(1).dropped_by_partition, 1);
        assert_eq!(engine.fault_stats(0).dropped_by_partition, 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut engine = two_node_engine(EngineConfig::default());
        engine.run_until(SimTime::from_millis(1));
        // WAN one-way ~41ms, so nothing delivered yet
        assert_eq!(engine.actor(1).deliveries.len(), 0);
        assert_eq!(engine.now(), SimTime::from_millis(1));
        engine.run_until(SimTime::from_secs(10));
        assert!(!engine.actor(1).deliveries.is_empty());
    }

    /// What a wall-clock test engine's link and actor saw, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        /// A send left through the link: `(at, from, to, msg)`.
        Sent(SimTime, NodeId, NodeId, u32),
        /// The actor ran its barrier, with this outcome.
        Flush(bool),
    }

    type Log = Arc<std::sync::Mutex<Vec<Seen>>>;

    /// A link whose every hop takes `DELAY` and which records each send.
    struct Recorder(Log);

    const DELAY: SimDuration = SimDuration::from_micros(500);
    const HOLD: SimDuration = SimDuration::from_micros(300);
    /// A node no test engine holds.
    const REMOTE: NodeId = 9;

    impl Link<u32> for Recorder {
        fn delay(&self, _from: NodeId, _to: NodeId) -> SimDuration {
            DELAY
        }
        fn send(&self, at: SimTime, from: NodeId, to: NodeId, msg: u32) {
            self.0.lock().unwrap().push(Seen::Sent(at, from, to, msg));
        }
    }

    /// A node with a toy barrier: message `m` is answered with `m` to
    /// [`REMOTE`] after [`HOLD`]; an odd `m` is a write, which leaves the
    /// node dirty until a flush succeeds, and arms timer `m`.
    struct Durable {
        log: Log,
        flush_ok: bool,
        dirty: bool,
        /// `(now, barrier deferred)` at each message.
        handled: Vec<(SimTime, bool)>,
        fired: Vec<TimerId>,
    }

    impl Actor for Durable {
        type Msg = u32;

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, m: u32) {
            self.handled.push((ctx.now(), ctx.barrier_deferred()));
            if m % 2 == 1 {
                self.dirty = true;
                ctx.set_timer(SimDuration::ZERO, m.into());
            }
            ctx.send_after(HOLD, REMOTE, m);
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, timer: TimerId) {
            self.fired.push(timer);
        }

        fn needs_flush(&self) -> bool {
            self.dirty
        }

        fn flush(&mut self) -> bool {
            self.log.lock().unwrap().push(Seen::Flush(self.flush_ok));
            self.dirty &= !self.flush_ok;
            self.flush_ok
        }
    }

    /// A wall-clock engine holding a [`Durable`] as node `i` for each
    /// `flush_ok[i]`, with messages `msgs` (`(to, m)`) from [`REMOTE`]
    /// already due.
    fn wall_engine_of(flush_ok: &[bool], msgs: &[(NodeId, u32)]) -> (Engine<Durable>, Log) {
        let log = Log::default();
        let nodes = flush_ok
            .iter()
            .map(|&flush_ok| Durable {
                log: Arc::clone(&log),
                flush_ok,
                dirty: false,
                handled: Vec::new(),
                fired: Vec::new(),
            })
            .collect();
        let link = Arc::new(Recorder(Arc::clone(&log)));
        let rng = StdRng::seed_from_u64(5);
        let mut engine = Engine::wall(Instant::now(), 0, nodes, rng, link);
        for &(to, m) in msgs {
            engine.enqueue(SimTime::ZERO, REMOTE, to, m);
        }
        (engine, log)
    }

    /// [`wall_engine_of`] with one node, node 0.
    fn wall_engine(flush_ok: bool, msgs: &[u32]) -> (Engine<Durable>, Log) {
        let msgs: Vec<_> = msgs.iter().map(|&m| (0, m)).collect();
        wall_engine_of(&[flush_ok], &msgs)
    }

    #[test]
    fn a_pass_holds_sends_from_its_first_dirty_handler_until_its_flush() {
        // 0 is a read, 1 a write, 2 a read that could expose the write.
        let (mut engine, log) = wall_engine(true, &[0, 1, 2]);
        engine.run_due();
        let seen = log.lock().unwrap();
        assert!(
            matches!(
                seen[..],
                [
                    Seen::Sent(_, 0, REMOTE, 0),
                    Seen::Flush(true),
                    Seen::Sent(_, 0, REMOTE, 1),
                    Seen::Sent(_, 0, REMOTE, 2),
                ]
            ),
            "one barrier, after the clean send and before the rest: {seen:?}"
        );
        let node = engine.actor(0);
        assert!(node.handled.iter().all(|&(_, deferred)| deferred));
        assert!(!node.dirty);
        // Outside a pass the actor runs its own barrier.
        engine.with_actor_ctx(0, |_, ctx| assert!(!ctx.barrier_deferred()));
    }

    #[test]
    fn a_failed_flush_drops_the_held_sends_and_keeps_the_timers() {
        let (mut engine, log) = wall_engine(false, &[0, 1, 2]);
        engine.run_due();
        while engine.actor(0).fired.is_empty() {
            engine.run_due();
        }
        assert_eq!(engine.actor(0).fired, vec![1]);
        let seen = log.lock().unwrap();
        assert!(
            matches!(
                seen[..],
                [Seen::Sent(_, 0, REMOTE, 0), Seen::Flush(false), ..]
            ),
            "{seen:?}"
        );
        let sent = seen.iter().filter(|s| matches!(s, Seen::Sent(..))).count();
        assert_eq!(sent, 1, "a held send leaked: {seen:?}");
    }

    #[test]
    fn a_failed_flush_drops_only_its_own_actors_held_sends() {
        // Node 0's barrier fails; node 1's write and read, held behind
        // node 0's write, still leave once node 1's barrier has run.
        let (mut engine, log) = wall_engine_of(&[false, true], &[(0, 1), (1, 3), (1, 2)]);
        engine.run_due();
        let seen = log.lock().unwrap();
        assert!(
            matches!(
                seen[..],
                [
                    Seen::Flush(false),
                    Seen::Flush(true),
                    Seen::Sent(_, 1, REMOTE, 3),
                    Seen::Sent(_, 1, REMOTE, 2),
                ]
            ),
            "both barriers, then node 1's sends alone: {seen:?}"
        );
        assert!(engine.actor(0).dirty && !engine.actor(1).dirty);
    }

    #[test]
    fn a_send_to_a_node_the_engine_does_not_hold_takes_the_link() {
        let (mut engine, log) = wall_engine(true, &[4]);
        engine.run_due();
        let (now, _) = engine.actor(0).handled[0];
        assert_eq!(
            log.lock().unwrap()[..],
            [Seen::Sent(now + HOLD + DELAY, 0, REMOTE, 4)]
        );
        // Nothing was sampled: the rng is where the seed left it.
        let drawn: u64 = engine.rng.gen();
        assert_eq!(drawn, StdRng::seed_from_u64(5).gen::<u64>());
    }
}
