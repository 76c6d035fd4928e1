//! A closed-loop plan's write batch on the write-through engines
//! (eventual, master): at the plan's start the client sends, as one
//! round, every key whose first operation in the plan is a write, at
//! that key's last value in the plan. Keys the plan reads first are
//! written when the plan reaches the write, after the read is answered.
//!
//! The deployment is driven by hand — one server, the plan's client and
//! an idle reader client, every message delivered one at a time in send
//! order — so the test can stop between the batch's acknowledgement and
//! the plan's commit and read from the other session there. Timers are
//! dropped: nothing is lost, so nothing needs a retry.

use bytes::Bytes;
use hatdb::core::client::TxnSource;
use hatdb::core::{
    ClientCmd, ClientReply, ClusterSpec, DeploymentBuilder, Msg, Node, Op, OpRecord, ProtocolKind,
    SystemConfig, TxnRecord, TxnSpec,
};
use hatdb::history::{check, IsolationLevel};
use hatdb::sim::{Actor, Ctx, NodeId, SimTime};
use hatdb::storage::Key;
use hatdb::trace::{OpKind, TraceEventKind, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Hands out one plan, then stops.
struct Once(Option<TxnSpec>);

impl TxnSource for Once {
    fn next_txn(&mut self, _rng: &mut StdRng) -> Option<TxnSpec> {
        self.0.take()
    }
}

/// What the plan's client sent or was sent, in delivery order.
#[derive(Debug)]
enum Seen {
    Sent(Msg),
    Received(Msg),
}

struct Pump {
    nodes: Vec<Node>,
    rng: StdRng,
    now: u64,
    /// Messages not yet delivered: `(from, to, msg)`, in send order.
    queue: VecDeque<(NodeId, NodeId, Msg)>,
    server: NodeId,
    writer: NodeId,
    reader: NodeId,
    writer_log: Vec<Seen>,
    trace: TraceSink,
}

impl Pump {
    fn new(kind: ProtocolKind, plan: TxnSpec) -> Pump {
        let mut config = SystemConfig::new(kind);
        config.trace = true;
        let (_, _, nodes, layout, _, trace, _) = DeploymentBuilder::new(kind)
            .seed(9)
            .clusters(ClusterSpec::single_dc(1, 1))
            .config(config)
            .drivers(vec![Box::new(Once(Some(plan))), Box::new(Once(None))])
            .build_parts();
        Pump {
            nodes,
            rng: StdRng::seed_from_u64(9),
            now: 0,
            queue: VecDeque::new(),
            server: layout.servers[0][0],
            writer: layout.clients[0],
            reader: layout.clients[1],
            writer_log: Vec::new(),
            trace,
        }
    }

    /// Runs `f` on node `at` one microsecond after the last step and
    /// queues what it sent.
    fn step<R>(&mut self, at: NodeId, f: impl FnOnce(&mut Node, &mut Ctx<'_, Msg>) -> R) -> R {
        self.now += 1;
        let mut ctx = Ctx::detached(at, SimTime(self.now), &mut self.rng);
        let out = f(&mut self.nodes[at as usize], &mut ctx);
        for (_, to, msg) in ctx.into_outputs().0 {
            if at == self.writer {
                self.writer_log.push(Seen::Sent(msg.clone()));
            }
            self.queue.push_back((at, to, msg));
        }
        out
    }

    /// Delivers the first queued message `pick` accepts; false if none.
    fn deliver(&mut self, pick: impl Fn(NodeId, NodeId) -> bool) -> bool {
        let Some(i) = self.queue.iter().position(|(from, to, _)| pick(*from, *to)) else {
            return false;
        };
        let (from, to, msg) = self.queue.remove(i).expect("position is in range");
        if to == self.writer {
            self.writer_log.push(Seen::Received(msg.clone()));
        }
        self.step(to, |node, ctx| node.on_message(ctx, from, msg));
        true
    }

    fn writer_metrics(&self) -> &hatdb::core::ClientMetrics {
        &self.nodes[self.writer as usize]
            .as_client()
            .unwrap()
            .metrics
    }

    fn acks_received(&self) -> usize {
        let acks = self.writer_log.iter();
        acks.filter(|s| matches!(s, Seen::Received(Msg::PutResp { .. })))
            .count()
    }

    fn client(node: &mut Node) -> &mut hatdb::core::Client {
        node.as_client_mut().expect("a client")
    }

    /// The reader session begins a transaction and reads `key` while the
    /// plan's client is held: only the reader's messages move.
    fn read_from_other_session(&mut self, key: &str) -> Option<Bytes> {
        let (reader, key) = (self.reader, Key::from(key.to_owned()));
        let begun = self.step(reader, |n, ctx| {
            Self::client(n).start_cmd(ctx, ClientCmd::Begin)
        });
        assert!(matches!(begun, Some(ClientReply::Ack)));
        let issued = self.step(reader, |n, ctx| {
            Self::client(n).start_cmd(ctx, ClientCmd::Get(key))
        });
        assert!(issued.is_none(), "the read needs the server");
        while self.deliver(|from, to| from == reader || to == reader) {}
        match self.step(reader, |n, ctx| Self::client(n).finish_cmd(ctx)) {
            ClientReply::Read(value) => value,
            other => panic!("a read answered {other:?}"),
        }
    }

    fn latest(&self, key: &str) -> Bytes {
        let server = self.nodes[self.server as usize].as_server().unwrap();
        let record = server.store().latest(key.as_bytes()).expect("written");
        record.value.clone()
    }

    /// Op id of the client's `Get` of `key`, and the log positions at
    /// which its answer arrived and the client's `Put` of `key` left.
    fn read_then_put(&self, key: &str) -> (usize, usize) {
        let get_op = self.writer_log.iter().find_map(|s| match s {
            Seen::Sent(Msg::Get { op, key: k, .. }) if k.as_ref() == key.as_bytes() => Some(*op),
            _ => None,
        });
        let get_op = get_op.expect("the key was read over the network");
        let answered = self
            .writer_log
            .iter()
            .position(|s| matches!(s, Seen::Received(Msg::GetResp { op, .. }) if *op == get_op));
        let put = self.writer_log.iter().position(
            |s| matches!(s, Seen::Sent(Msg::Put { key: k, .. }) if k.as_ref() == key.as_bytes()),
        );
        (answered.expect("answered"), put.expect("written"))
    }

    fn put_spans(&self) -> (usize, usize) {
        let mut spans = (0, 0);
        for e in self.trace.events().iter().filter(|e| e.node == self.writer) {
            match e.kind {
                TraceEventKind::OpStart {
                    kind: OpKind::Put, ..
                } => spans.0 += 1,
                TraceEventKind::OpEnd {
                    kind: OpKind::Put, ..
                } => spans.1 += 1,
                _ => {}
            }
        }
        spans
    }
}

/// One batch-rule case: the plan; the keys its batch sends, with their
/// last values (a second session reads each once the batch is
/// acknowledged); the keys written only after their read, with their
/// values; the value each of the plan's reads returns (`None`: `⊥`); and
/// how many of those reads go to the server.
struct Case {
    name: &'static str,
    plan: Vec<Op>,
    batch: &'static [(&'static str, &'static str)],
    read_first: &'static [(&'static str, &'static str)],
    reads: &'static [Option<&'static str>],
    network_reads: u64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "(a) one key written twice",
            plan: vec![Op::write("a", "a1"), Op::write("a", "a2"), Op::read("z")],
            batch: &[("a", "a2")],
            read_first: &[],
            reads: &[None],
            network_reads: 1,
        },
        Case {
            name: "(b) written, read back, written again",
            plan: vec![
                Op::write("b", "b1"),
                Op::read("b"),
                Op::write("b", "b2"),
                Op::read("z"),
            ],
            batch: &[("b", "b2")],
            read_first: &[],
            reads: &[Some("b1"), None],
            network_reads: 1,
        },
        Case {
            name: "(c) read, then written",
            plan: vec![
                Op::read("c"),
                Op::write("c", "c1"),
                Op::write("d", "d1"),
                Op::read("z"),
            ],
            batch: &[("d", "d1")],
            read_first: &[("c", "c1")],
            reads: &[None, None],
            network_reads: 2,
        },
    ]
}

/// The plan's ops as the history must record them, in plan order.
fn plan_order(plan: &[Op]) -> Vec<(bool, Key)> {
    plan.iter()
        .map(|op| match op {
            Op::Read(k) => (false, k.clone()),
            Op::Write(k, _) => (true, k.clone()),
            Op::PredicateRead(_) => unreachable!("no scans here"),
        })
        .collect()
}

fn recorded_order(record: &TxnRecord) -> Vec<(bool, Key)> {
    record
        .ops
        .iter()
        .map(|op| match op {
            OpRecord::Read { key, .. } => (false, key.clone()),
            OpRecord::Write { key, .. } => (true, key.clone()),
            OpRecord::PredicateRead { .. } => unreachable!("no scans here"),
        })
        .collect()
}

#[test]
fn write_through_plans_send_their_write_set_as_one_round() {
    for kind in [ProtocolKind::Eventual, ProtocolKind::Master] {
        for case in cases() {
            let who = format!("{kind:?} {}", case.name);
            let mut pump = Pump::new(kind, TxnSpec::new(case.plan.clone()));
            for id in 0..pump.nodes.len() as NodeId {
                pump.step(id, |node, ctx| node.on_start(ctx));
            }

            // The batch went out before any read, one put per key.
            let batch_puts: Vec<(Key, Bytes)> = pump
                .writer_log
                .iter()
                .map(|s| match s {
                    Seen::Sent(Msg::Put { key, record, .. }) => (key.clone(), record.value.clone()),
                    other => panic!("{who}: the plan opened with {other:?}"),
                })
                .collect();
            let expected: Vec<(Key, Bytes)> = case
                .batch
                .iter()
                .map(|(k, v)| (Key::from(*k), Bytes::from(*v)))
                .collect();
            assert_eq!(batch_puts, expected, "{who}: the batch");

            // Acknowledged and not yet committed, the batch is visible.
            while pump.acks_received() < expected.len() {
                assert!(
                    pump.deliver(|_, _| true),
                    "{who}: the batch was not answered"
                );
            }
            assert_eq!(pump.writer_metrics().committed, 0, "{who}: committed early");
            for (key, value) in case.batch {
                let seen = pump.read_from_other_session(key);
                assert_eq!(seen.as_deref(), Some(value.as_bytes()), "{who}: {key}");
            }

            while pump.deliver(|_, _| true) {}
            let metrics = pump.writer_metrics();
            assert_eq!(metrics.committed, 1, "{who}");
            let writes = case.plan.iter().filter(|op| matches!(op, Op::Write(..)));
            let writes = writes.count();
            assert_eq!(metrics.put_latency_ms.count(), writes as u64, "{who}");
            assert_eq!(pump.put_spans(), (writes, writes), "{who}: Put spans");
            // Network reads, the batch, and one round per read-first write.
            let rounds = case.network_reads + 1 + case.read_first.len() as u64;
            assert_eq!(metrics.msg_rounds, rounds, "{who}: rounds");

            for (key, value) in case.batch.iter().chain(case.read_first) {
                assert_eq!(pump.latest(key), Bytes::from(*value), "{who}: {key}");
            }
            for (key, _) in case.read_first {
                let (answered, put) = pump.read_then_put(key);
                assert!(answered < put, "{who}: {key} was written before its read");
            }

            let records = pump.nodes[pump.writer as usize]
                .as_client_mut()
                .unwrap()
                .take_records();
            assert_eq!(records.len(), 1, "{who}");
            assert_eq!(
                recorded_order(&records[0]),
                plan_order(&case.plan),
                "{who}: op order"
            );
            let read_values: Vec<Option<&[u8]>> = records[0]
                .ops
                .iter()
                .filter_map(|op| match op {
                    OpRecord::Read {
                        observed, value, ..
                    } => Some((!observed.is_initial()).then_some(value.as_ref())),
                    _ => None,
                })
                .collect();
            let expected_reads: Vec<Option<&[u8]>> =
                case.reads.iter().map(|r| r.map(str::as_bytes)).collect();
            assert_eq!(read_values, expected_reads, "{who}: the plan's reads");
            let report = check(records, IsolationLevel::ReadUncommitted);
            assert!(report.ok(), "{who}: {report}");
        }
    }
}
