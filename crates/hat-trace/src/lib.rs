//! Deterministic structured tracing for the HAT repro.
//!
//! Every layer of the stack (client, server, network, WAL, nemesis)
//! reports [`TraceEvent`]s into a shared [`TraceSink`]. The sink has two
//! modes:
//!
//! - **disabled** (the default, behind `SystemConfig::trace = false`):
//!   [`TraceSink::record`] returns before touching any state — no
//!   allocation, no lock, no atomic. A process-wide counter
//!   ([`events_recorded_total`]) only moves when an *enabled* sink stores
//!   an event, so "tracing off ⇒ zero trace allocations" is checkable.
//! - **enabled**: events are stamped with the caller-supplied time
//!   (simulated microseconds under `hat-sim`, monotonic process
//!   microseconds under the threaded runtime) plus a global sequence
//!   number, so a single-threaded simulation produces a byte-identical
//!   trace for a given seed.
//!
//! On top of the flat event stream the crate reconstructs per-transaction
//! span trees ([`spans`]), renders fault-annotated timeline windows
//! ([`format_window`]), and exports Chrome-trace-format JSON
//! ([`TraceSink::to_chrome_json`]) that opens in `about:tracing` or
//! Perfetto.
//!
//! The crate is dependency-free on purpose: `hat-sim` and `hat-storage`
//! stay trace-agnostic (they expose generic hooks instead), while
//! `hat-core`, `hat-runtime`, `hat-nemesis`, and `hat-bench` link this
//! crate directly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Process-wide count of events stored by *enabled* sinks. Disabled
/// sinks never touch it; CI asserts it stays flat in no-trace runs.
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);

/// Total events recorded by enabled sinks since process start.
pub fn events_recorded_total() -> u64 {
    EVENTS_RECORDED.load(Ordering::Relaxed)
}

/// Stable transaction identity: the issuing client node and the
/// client-local session sequence number. Matches `TxnRecord` identity in
/// `hat-core`, so a trace line can be joined back to the history checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// Node id of the issuing client.
    pub client: u32,
    /// Session-local transaction sequence number.
    pub seq: u64,
}

impl TxnId {
    pub fn new(client: u32, seq: u64) -> Self {
        TxnId { client, seq }
    }
}

/// What kind of client operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    Get,
    GetMany,
    Scan,
    Put,
    Lock,
    Commit,
}

impl OpKind {
    /// Short stable label (used in Chrome traces and metrics JSON).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::GetMany => "get_many",
            OpKind::Scan => "scan",
            OpKind::Put => "put",
            OpKind::Lock => "lock",
            OpKind::Commit => "commit",
        }
    }

    /// Every kind, in label order. Handy for per-kind reporting loops.
    pub const ALL: [OpKind; 6] = [
        OpKind::Get,
        OpKind::GetMany,
        OpKind::Scan,
        OpKind::Put,
        OpKind::Lock,
        OpKind::Commit,
    ];
}

/// Why the simulated network dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// An active partition blocked the link.
    Partition,
    /// The destination node was crashed at delivery time.
    Crashed,
}

/// One structured trace event. `time_us` is simulated time in the sim
/// frontend and monotonic-since-start time in the threaded runtime;
/// `node` is the reporting node; `seq` is a sink-global sequence number
/// that makes the order total (and, single-threaded, deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub time_us: u64,
    pub node: u32,
    pub seq: u64,
    pub kind: TraceEventKind,
}

/// The event vocabulary. Everything the acceptance criteria need to
/// explain a run: transaction lifecycle, per-op spans and retries,
/// message traffic with byte counts, lock waits, anti-entropy rounds,
/// WAL appends/replays, crashes, and nemesis fault windows.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    TxnBegin {
        txn: TxnId,
    },
    TxnCommit {
        txn: TxnId,
    },
    TxnAbort {
        txn: TxnId,
        /// True for system-internal aborts (validation), false for
        /// external ones (lock timeout, unavailability).
        internal: bool,
    },
    /// The session walked away mid-transaction. `indeterminate` marks an
    /// abandon with a commit in flight — the outcome is unknown.
    TxnAbandon {
        txn: TxnId,
        indeterminate: bool,
    },
    OpStart {
        txn: TxnId,
        kind: OpKind,
    },
    OpEnd {
        txn: TxnId,
        kind: OpKind,
    },
    /// The retry policy re-issued an in-flight op (or commit round).
    OpRetry {
        txn: TxnId,
    },
    MsgSend {
        from: u32,
        to: u32,
        label: &'static str,
        bytes: u64,
    },
    MsgRecv {
        from: u32,
        to: u32,
        label: &'static str,
        bytes: u64,
    },
    MsgDrop {
        from: u32,
        to: u32,
        label: &'static str,
        reason: DropReason,
    },
    LockWait {
        txn: TxnId,
        key: String,
    },
    LockGrant {
        txn: TxnId,
        key: String,
    },
    /// One anti-entropy push to one peer (`delta` = compacted catch-up).
    AntiEntropyRound {
        peer: u32,
        records: u64,
        bytes: u64,
        delta: bool,
    },
    WalAppend {
        bytes: u64,
    },
    WalReplay {
        records: u64,
    },
    Crash,
    Restart,
    /// A nemesis fault window opened (partition, latency spike or shard
    /// handoff; crashes and restarts are [`TraceEventKind::Crash`] and
    /// [`TraceEventKind::Restart`]).
    FaultBegin {
        desc: String,
    },
    /// A nemesis fault window closed (partition heal, latency restored).
    FaultEnd {
        desc: String,
    },
    /// A shard handoff started: the emitting server began streaming
    /// `token`'s records to `to`.
    ShardHandoffBegin {
        token: u32,
        to: u32,
        snapshot: u64,
    },
    /// The new owner acknowledged the full snapshot; the emitting server
    /// stopped serving the token and now NACKs requests toward `to`.
    ShardHandoffDone {
        token: u32,
        to: u32,
        streamed: u64,
    },
    /// A client was NACKed with `WrongShard` and re-routed the request
    /// to the shard's new owner.
    ShardRedirect {
        txn: TxnId,
        owner: u32,
    },
}

impl TraceEventKind {
    /// Transaction-lifecycle events survive into the canonical projection
    /// used for threaded-runtime determinism checks (timing-free).
    fn is_txn_lifecycle(&self) -> bool {
        matches!(
            self,
            TraceEventKind::TxnBegin { .. }
                | TraceEventKind::TxnCommit { .. }
                | TraceEventKind::TxnAbort { .. }
                | TraceEventKind::TxnAbandon { .. }
        )
    }

    fn is_fault(&self) -> bool {
        matches!(
            self,
            TraceEventKind::FaultBegin { .. }
                | TraceEventKind::FaultEnd { .. }
                | TraceEventKind::Crash
                | TraceEventKind::Restart
                | TraceEventKind::ShardHandoffBegin { .. }
                | TraceEventKind::ShardHandoffDone { .. }
        )
    }
}

struct Shared {
    events: Mutex<Vec<TraceEvent>>,
    seq: AtomicU64,
}

/// A cloneable handle to one shared event buffer — or to nothing at all.
///
/// `TraceSink::disabled()` (also `Default`) is a no-op handle: `record`
/// returns immediately without locking, allocating, or counting.
/// `TraceSink::enabled()` allocates the shared buffer; clones of it all
/// append to the same globally-ordered stream.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Shared>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "TraceSink(disabled)"),
            Some(s) => write!(f, "TraceSink({} events)", s.events.lock().unwrap().len()),
        }
    }
}

impl TraceSink {
    /// The no-op sink. Zero cost on `record`.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// A live sink with an empty shared buffer.
    pub fn enabled() -> Self {
        TraceSink {
            inner: Some(Arc::new(Shared {
                events: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event. Disabled sinks return before doing anything.
    pub fn record(&self, time_us: u64, node: u32, kind: TraceEventKind) {
        let Some(shared) = &self.inner else {
            return;
        };
        let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
        EVENTS_RECORDED.fetch_add(1, Ordering::Relaxed);
        shared.events.lock().unwrap().push(TraceEvent {
            time_us,
            node,
            seq,
            kind,
        });
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(s) => s.events.lock().unwrap().len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the event stream in total order `(time_us, seq)`.
    /// Under the single-threaded simulator the append order already *is*
    /// this order, so the snapshot is seed-stable byte for byte.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(shared) = &self.inner else {
            return Vec::new();
        };
        let mut out = shared.events.lock().unwrap().clone();
        out.sort_by_key(|e| (e.time_us, e.seq));
        out
    }

    /// Drain the buffer (snapshot + clear), same ordering as [`events`].
    ///
    /// [`events`]: TraceSink::events
    pub fn take_events(&self) -> Vec<TraceEvent> {
        let Some(shared) = &self.inner else {
            return Vec::new();
        };
        let mut out = std::mem::take(&mut *shared.events.lock().unwrap());
        out.sort_by_key(|e| (e.time_us, e.seq));
        out
    }

    /// Timing-free per-node projection of transaction-lifecycle events.
    ///
    /// The threaded runtime interleaves nodes nondeterministically and
    /// stamps wall-clock-derived times, so full traces differ run to run.
    /// What *is* deterministic (and what the conformance suite pins via
    /// bit-identical records) is each client's ordered sequence of
    /// begin/commit/abort/abandon outcomes — exactly this projection.
    pub fn canonical_projection(&self) -> BTreeMap<u32, Vec<TraceEventKind>> {
        let mut by_node: BTreeMap<u32, Vec<(u64, TraceEventKind)>> = BTreeMap::new();
        for e in self.events() {
            if e.kind.is_txn_lifecycle() {
                by_node.entry(e.node).or_default().push((e.seq, e.kind));
            }
        }
        by_node
            .into_iter()
            .map(|(node, mut evs)| {
                evs.sort_by_key(|(seq, _)| *seq);
                (node, evs.into_iter().map(|(_, k)| k).collect())
            })
            .collect()
    }

    /// Export the whole trace as Chrome-trace-format JSON (the
    /// `traceEvents` array form). Transactions and their ops become
    /// complete (`"ph":"X"`) duration events; faults, crashes, WAL and
    /// anti-entropy activity become instant (`"ph":"i"`) events. Open the
    /// output in `about:tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        chrome_json(&self.events())
    }
}

/// One operation inside a transaction span.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpan {
    pub kind: OpKind,
    pub start_us: u64,
    /// `None` while the op never completed (txn aborted mid-op).
    pub end_us: Option<u64>,
}

/// A reconstructed per-transaction span tree: the transaction envelope
/// plus its ordered child op spans and retry count.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnSpan {
    pub txn: TxnId,
    /// Node that ran the transaction (the client).
    pub node: u32,
    pub begin_us: u64,
    /// `None` when the trace ends before the transaction resolved.
    pub end_us: Option<u64>,
    /// `"commit"`, `"abort-internal"`, `"abort-external"`,
    /// `"indeterminate"`, `"abandon"`, or `"open"`.
    pub outcome: &'static str,
    pub ops: Vec<OpSpan>,
    pub retries: u32,
}

impl TxnSpan {
    /// A span is complete when it has both a begin and a resolution.
    pub fn is_complete(&self) -> bool {
        self.end_us.is_some()
    }
}

/// Reconstruct per-transaction span trees from an ordered event stream.
/// Spans come back sorted by `(begin_us, txn)`.
pub fn spans(events: &[TraceEvent]) -> Vec<TxnSpan> {
    let mut open: BTreeMap<TxnId, TxnSpan> = BTreeMap::new();
    let mut done: Vec<TxnSpan> = Vec::new();
    for e in events {
        match &e.kind {
            TraceEventKind::TxnBegin { txn } => {
                // A client begins transactions strictly one at a time, so
                // a dangling open span with the same id is a truncated
                // trace; flush it as-is.
                if let Some(prev) = open.remove(txn) {
                    done.push(prev);
                }
                open.insert(
                    *txn,
                    TxnSpan {
                        txn: *txn,
                        node: e.node,
                        begin_us: e.time_us,
                        end_us: None,
                        outcome: "open",
                        ops: Vec::new(),
                        retries: 0,
                    },
                );
            }
            TraceEventKind::TxnCommit { txn } => {
                close(&mut open, &mut done, txn, e.time_us, "commit");
            }
            TraceEventKind::TxnAbort { txn, internal } => {
                let outcome = if *internal {
                    "abort-internal"
                } else {
                    "abort-external"
                };
                close(&mut open, &mut done, txn, e.time_us, outcome);
            }
            TraceEventKind::TxnAbandon { txn, indeterminate } => {
                let outcome = if *indeterminate {
                    "indeterminate"
                } else {
                    "abandon"
                };
                close(&mut open, &mut done, txn, e.time_us, outcome);
            }
            TraceEventKind::OpStart { txn, kind } => {
                if let Some(span) = open.get_mut(txn) {
                    span.ops.push(OpSpan {
                        kind: *kind,
                        start_us: e.time_us,
                        end_us: None,
                    });
                }
            }
            TraceEventKind::OpEnd { txn, kind } => {
                if let Some(span) = open.get_mut(txn) {
                    if let Some(op) = span
                        .ops
                        .iter_mut()
                        .rev()
                        .find(|o| o.kind == *kind && o.end_us.is_none())
                    {
                        op.end_us = Some(e.time_us);
                    }
                }
            }
            TraceEventKind::OpRetry { txn } => {
                if let Some(span) = open.get_mut(txn) {
                    span.retries += 1;
                }
            }
            _ => {}
        }
    }
    done.extend(open.into_values());
    done.sort_by_key(|s| (s.begin_us, s.txn));
    done
}

fn close(
    open: &mut BTreeMap<TxnId, TxnSpan>,
    done: &mut Vec<TxnSpan>,
    txn: &TxnId,
    at: u64,
    outcome: &'static str,
) {
    if let Some(mut span) = open.remove(txn) {
        span.end_us = Some(at);
        span.outcome = outcome;
        // Commit resolution closes the trailing commit op if one is open.
        for op in span.ops.iter_mut().rev() {
            if op.end_us.is_none() {
                op.end_us = Some(at);
            }
        }
        done.push(span);
    }
}

/// Minimal JSON string escaping (labels and fault descriptions are
/// repo-internal strings, but keys can hold arbitrary bytes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn chrome_json(events: &[TraceEvent]) -> String {
    let mut rows: Vec<String> = Vec::new();
    for span in spans(events) {
        let end = span.end_us.unwrap_or(span.begin_us);
        rows.push(format!(
            "{{\"name\":\"txn {}:{}\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"outcome\":\"{}\",\"retries\":{}}}}}",
            span.txn.client,
            span.txn.seq,
            span.begin_us,
            end.saturating_sub(span.begin_us),
            span.node,
            span.txn.client,
            span.outcome,
            span.retries,
        ));
        for op in &span.ops {
            let op_end = op.end_us.unwrap_or(end);
            rows.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"txn\":\"{}:{}\"}}}}",
                op.kind.label(),
                op.start_us,
                op_end.saturating_sub(op.start_us),
                span.node,
                span.txn.client,
                span.txn.client,
                span.txn.seq,
            ));
        }
    }
    for e in events {
        let instant = |name: String, args: String| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"sys\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{{}}}}}",
                name, e.time_us, e.node, args
            )
        };
        match &e.kind {
            TraceEventKind::Crash => rows.push(instant("crash".into(), String::new())),
            TraceEventKind::Restart => rows.push(instant("restart".into(), String::new())),
            TraceEventKind::FaultBegin { desc } => rows.push(instant(
                format!("fault-begin {}", escape(desc)),
                String::new(),
            )),
            TraceEventKind::FaultEnd { desc } => rows.push(instant(
                format!("fault-end {}", escape(desc)),
                String::new(),
            )),
            TraceEventKind::WalReplay { records } => rows.push(instant(
                "wal-replay".into(),
                format!("\"records\":{records}"),
            )),
            TraceEventKind::ShardHandoffBegin {
                token,
                to,
                snapshot,
            } => rows.push(instant(
                "shard-handoff-begin".into(),
                format!("\"token\":{token},\"to\":{to},\"snapshot\":{snapshot}"),
            )),
            TraceEventKind::ShardHandoffDone {
                token,
                to,
                streamed,
            } => rows.push(instant(
                "shard-handoff-done".into(),
                format!("\"token\":{token},\"to\":{to},\"streamed\":{streamed}"),
            )),
            TraceEventKind::AntiEntropyRound {
                peer,
                records,
                bytes,
                delta,
            } => rows.push(instant(
                if *delta {
                    "delta-catchup".into()
                } else {
                    "anti-entropy".into()
                },
                format!("\"peer\":{peer},\"records\":{records},\"bytes\":{bytes}"),
            )),
            _ => {}
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Render the events inside `[from_us, to_us]` as an annotated text
/// timeline: one line per event, fault/crash lines flagged with `!!` so
/// a conformance-failure dump shows which fault windows overlapped the
/// violating transaction.
pub fn format_window(events: &[TraceEvent], from_us: u64, to_us: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--- trace window [{from_us}us .. {to_us}us] ---");
    let mut shown = 0usize;
    for e in events {
        if e.time_us < from_us || e.time_us > to_us {
            continue;
        }
        let flag = if e.kind.is_fault() { "!!" } else { "  " };
        let _ = writeln!(
            out,
            "{flag} [{:>10}us n{:<3}] {:?}",
            e.time_us, e.node, e.kind
        );
        shown += 1;
    }
    let _ = writeln!(out, "--- {shown} events ---");
    out
}

/// Render the window around one transaction (its span ± `radius_us`),
/// annotated with every fault event in range. This is what the nemesis
/// runner prints when a conformance check fails.
pub fn format_txn_window(events: &[TraceEvent], txn: TxnId, radius_us: u64) -> String {
    let all = spans(events);
    let Some(span) = all.iter().find(|s| s.txn == txn) else {
        return format!("no span for txn {}:{} in trace\n", txn.client, txn.seq);
    };
    let from = span.begin_us.saturating_sub(radius_us);
    let to = span
        .end_us
        .unwrap_or(span.begin_us)
        .saturating_add(radius_us);
    let mut out = format!(
        "txn {}:{} on n{} [{}] {}us..{}us\n",
        txn.client,
        txn.seq,
        span.node,
        span.outcome,
        span.begin_us,
        span.end_us.unwrap_or(span.begin_us),
    );
    out.push_str(&format_window(events, from, to));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event counter is process-wide and the test harness runs tests
    /// on parallel threads: every test that records or reads it holds
    /// this lock, so the counting tests see only their own events.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn txn(c: u32, s: u64) -> TxnId {
        TxnId::new(c, s)
    }

    #[test]
    fn disabled_sink_is_inert_and_uncounted() {
        let _serial = serial();
        let before = events_recorded_total();
        let sink = TraceSink::disabled();
        for i in 0..100 {
            sink.record(i, 0, TraceEventKind::Crash);
        }
        assert!(!sink.is_enabled());
        assert_eq!(sink.len(), 0);
        assert!(sink.events().is_empty());
        assert_eq!(events_recorded_total(), before);
    }

    #[test]
    fn enabled_sink_orders_and_counts() {
        let _serial = serial();
        let before = events_recorded_total();
        let sink = TraceSink::enabled();
        let clone = sink.clone();
        sink.record(5, 1, TraceEventKind::TxnBegin { txn: txn(1, 0) });
        clone.record(5, 1, TraceEventKind::TxnCommit { txn: txn(1, 0) });
        sink.record(2, 2, TraceEventKind::Crash);
        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        // Sorted by (time, seq): the crash at t=2 first, then the two
        // t=5 events in record order.
        assert_eq!(evs[0].kind, TraceEventKind::Crash);
        assert_eq!(evs[1].kind, TraceEventKind::TxnBegin { txn: txn(1, 0) });
        assert_eq!(evs[2].kind, TraceEventKind::TxnCommit { txn: txn(1, 0) });
        assert_eq!(events_recorded_total() - before, 3);
    }

    #[test]
    fn span_reconstruction_pairs_ops_and_outcomes() {
        let _serial = serial();
        let sink = TraceSink::enabled();
        let t = txn(7, 3);
        sink.record(10, 7, TraceEventKind::TxnBegin { txn: t });
        sink.record(
            11,
            7,
            TraceEventKind::OpStart {
                txn: t,
                kind: OpKind::Get,
            },
        );
        sink.record(
            15,
            7,
            TraceEventKind::OpEnd {
                txn: t,
                kind: OpKind::Get,
            },
        );
        sink.record(16, 7, TraceEventKind::OpRetry { txn: t });
        sink.record(
            16,
            7,
            TraceEventKind::OpStart {
                txn: t,
                kind: OpKind::Commit,
            },
        );
        sink.record(20, 7, TraceEventKind::TxnCommit { txn: t });
        let spans = spans(&sink.events());
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert!(s.is_complete());
        assert_eq!(s.outcome, "commit");
        assert_eq!(s.begin_us, 10);
        assert_eq!(s.end_us, Some(20));
        assert_eq!(s.retries, 1);
        assert_eq!(s.ops.len(), 2);
        assert_eq!(s.ops[0].kind, OpKind::Get);
        assert_eq!(s.ops[0].end_us, Some(15));
        // The open commit op is closed by the txn resolution.
        assert_eq!(s.ops[1].kind, OpKind::Commit);
        assert_eq!(s.ops[1].end_us, Some(20));
    }

    #[test]
    fn abort_outcomes_distinguished() {
        let _serial = serial();
        let sink = TraceSink::enabled();
        sink.record(1, 1, TraceEventKind::TxnBegin { txn: txn(1, 0) });
        sink.record(
            2,
            1,
            TraceEventKind::TxnAbort {
                txn: txn(1, 0),
                internal: false,
            },
        );
        sink.record(3, 1, TraceEventKind::TxnBegin { txn: txn(1, 1) });
        sink.record(
            4,
            1,
            TraceEventKind::TxnAbandon {
                txn: txn(1, 1),
                indeterminate: true,
            },
        );
        sink.record(5, 1, TraceEventKind::TxnBegin { txn: txn(1, 2) });
        let spans = spans(&sink.events());
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].outcome, "abort-external");
        assert_eq!(spans[1].outcome, "indeterminate");
        assert_eq!(spans[2].outcome, "open");
        assert!(!spans[2].is_complete());
    }

    #[test]
    fn chrome_json_shape() {
        let _serial = serial();
        let sink = TraceSink::enabled();
        let t = txn(2, 0);
        sink.record(100, 2, TraceEventKind::TxnBegin { txn: t });
        sink.record(
            101,
            2,
            TraceEventKind::OpStart {
                txn: t,
                kind: OpKind::Put,
            },
        );
        sink.record(
            109,
            2,
            TraceEventKind::OpEnd {
                txn: t,
                kind: OpKind::Put,
            },
        );
        sink.record(110, 2, TraceEventKind::TxnCommit { txn: t });
        sink.record(50, 0, TraceEventKind::Crash);
        sink.record(
            60,
            0,
            TraceEventKind::FaultBegin {
                desc: "partition va/or".into(),
            },
        );
        let json = sink.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"txn 2:0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"put\""));
        assert!(json.contains("\"name\":\"crash\""));
        assert!(json.contains("fault-begin partition va/or"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn window_flags_faults() {
        let _serial = serial();
        let sink = TraceSink::enabled();
        let t = txn(3, 0);
        sink.record(10, 3, TraceEventKind::TxnBegin { txn: t });
        sink.record(
            12,
            0,
            TraceEventKind::FaultBegin {
                desc: "crash n0".into(),
            },
        );
        sink.record(
            30,
            3,
            TraceEventKind::TxnAbort {
                txn: t,
                internal: false,
            },
        );
        sink.record(500, 3, TraceEventKind::TxnBegin { txn: txn(3, 1) });
        let text = format_txn_window(&sink.events(), t, 5);
        assert!(text.contains("txn 3:0 on n3 [abort-external]"));
        assert!(text.contains("!!"));
        assert!(text.contains("crash n0"));
        assert!(!text.contains("500us"));
        assert!(text.contains("3 events"));
    }

    #[test]
    fn canonical_projection_strips_timing() {
        let _serial = serial();
        let a = TraceSink::enabled();
        let b = TraceSink::enabled();
        // Same lifecycle, wildly different timestamps and extra noise.
        for (sink, base) in [(&a, 10u64), (&b, 9000u64)] {
            sink.record(base, 1, TraceEventKind::TxnBegin { txn: txn(1, 0) });
            sink.record(
                base + 1,
                0,
                TraceEventKind::MsgSend {
                    from: 1,
                    to: 0,
                    label: "Put",
                    bytes: 32,
                },
            );
            sink.record(base + 7, 1, TraceEventKind::TxnCommit { txn: txn(1, 0) });
        }
        assert_eq!(a.canonical_projection(), b.canonical_projection());
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn take_events_drains() {
        let _serial = serial();
        let sink = TraceSink::enabled();
        sink.record(1, 0, TraceEventKind::Crash);
        assert_eq!(sink.take_events().len(), 1);
        assert!(sink.is_empty());
    }
}
