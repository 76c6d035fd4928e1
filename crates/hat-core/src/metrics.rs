//! Per-client performance metrics.

use hat_obs::{Histogram, LatencyPercentiles};
use hat_sim::{SimDuration, SimTime};
use hat_trace::OpKind;

/// Latency/throughput counters maintained by each client. Latencies are
/// log-scale histograms (not means), so aggregation across clients is
/// lossless and the paper-style tail percentiles (p50/p90/p99/p999 +
/// max) survive a `merge`.
#[derive(Debug, Clone)]
pub struct ClientMetrics {
    /// Committed transactions.
    pub committed: u64,
    /// Externally aborted transactions (system-induced).
    pub aborted_external: u64,
    /// Internally aborted transactions (application-induced).
    pub aborted_internal: u64,
    /// Individual operations completed (reads + writes acked).
    pub ops_completed: u64,
    /// Request retries (resends after the retry interval elapsed).
    pub retries: u64,
    /// Client→server message rounds issued (every request round trip
    /// the client waits on: reads, timestamp reads, version fetches,
    /// write/commit phases, scans, locks). The coordination-cost
    /// denominator for comparing protocols in `hat-experiments ramp`.
    pub msg_rounds: u64,
    /// Second-round repair fetches (RAMP-Fast fracture repairs; 0 for
    /// engines without reader-side repair). RAMP-Small's unconditional
    /// second round counts in `msg_rounds`, not here.
    pub repair_rounds: u64,
    /// Metadata bytes moved on behalf of atomic visibility: sibling
    /// write-set bytes attached to writes and returned with reads, and
    /// timestamp-set bytes in RAMP-Small second rounds.
    pub metadata_bytes: u64,
    /// Reads whose fracture repair gave up (ceiling loop exhausted) —
    /// must stay 0 in a correct RAMP-Fast run.
    pub unrepaired_reads: u64,
    /// `WrongShard` NACKs received: requests that raced a live shard
    /// handoff and were redirected to the token's new owner.
    pub shard_redirects: u64,
    /// Group-commit batches sent (RAMP's `CommitBatch`), including
    /// retransmissions.
    pub commit_batches: u64,
    /// Total commit marks those batches carried; the mean batch size is
    /// `commit_batch_marks / commit_batches`.
    pub commit_batch_marks: u64,
    /// Transaction commit latency, milliseconds.
    pub txn_latency_ms: Histogram,
    /// Per-operation latency across all kinds, milliseconds.
    pub op_latency_ms: Histogram,
    /// Point-read (`get`) latency, milliseconds.
    pub get_latency_ms: Histogram,
    /// One-shot multi-read (`get_many`) per-key latency, milliseconds.
    pub get_many_latency_ms: Histogram,
    /// Predicate-scan latency, milliseconds.
    pub scan_latency_ms: Histogram,
    /// Write (`put`) latency, milliseconds.
    pub put_latency_ms: Histogram,
    /// 2PL lock-acquisition latency, milliseconds.
    pub lock_latency_ms: Histogram,
}

impl Default for ClientMetrics {
    fn default() -> Self {
        ClientMetrics {
            committed: 0,
            aborted_external: 0,
            aborted_internal: 0,
            ops_completed: 0,
            retries: 0,
            msg_rounds: 0,
            repair_rounds: 0,
            metadata_bytes: 0,
            unrepaired_reads: 0,
            shard_redirects: 0,
            commit_batches: 0,
            commit_batch_marks: 0,
            txn_latency_ms: Histogram::for_latency_ms(),
            op_latency_ms: Histogram::for_latency_ms(),
            get_latency_ms: Histogram::for_latency_ms(),
            get_many_latency_ms: Histogram::for_latency_ms(),
            scan_latency_ms: Histogram::for_latency_ms(),
            put_latency_ms: Histogram::for_latency_ms(),
            lock_latency_ms: Histogram::for_latency_ms(),
        }
    }
}

impl ClientMetrics {
    /// Records a committed transaction that started at `started` and
    /// finished at `finished`.
    pub fn record_commit(&mut self, started: SimTime, finished: SimTime) {
        self.committed += 1;
        self.txn_latency_ms
            .record(finished.since(started).as_millis_f64());
    }

    /// Records one completed operation of `kind` taking `latency`, into
    /// both the all-ops histogram and the per-kind one.
    pub fn record_op(&mut self, kind: OpKind, latency: SimDuration) {
        self.ops_completed += 1;
        let ms = latency.as_millis_f64();
        self.op_latency_ms.record(ms);
        if let Some(h) = self.op_hist_mut(kind) {
            h.record(ms);
        }
    }

    /// The per-kind latency histogram (`Commit` maps to the transaction
    /// latency histogram; `None` never happens today but keeps the match
    /// total if kinds grow).
    pub fn op_hist(&self, kind: OpKind) -> Option<&Histogram> {
        match kind {
            OpKind::Get => Some(&self.get_latency_ms),
            OpKind::GetMany => Some(&self.get_many_latency_ms),
            OpKind::Scan => Some(&self.scan_latency_ms),
            OpKind::Put => Some(&self.put_latency_ms),
            OpKind::Lock => Some(&self.lock_latency_ms),
            OpKind::Commit => Some(&self.txn_latency_ms),
        }
    }

    fn op_hist_mut(&mut self, kind: OpKind) -> Option<&mut Histogram> {
        match kind {
            OpKind::Get => Some(&mut self.get_latency_ms),
            OpKind::GetMany => Some(&mut self.get_many_latency_ms),
            OpKind::Scan => Some(&mut self.scan_latency_ms),
            OpKind::Put => Some(&mut self.put_latency_ms),
            OpKind::Lock => Some(&mut self.lock_latency_ms),
            // `record_op(Commit, …)` is never issued (commits go through
            // `record_commit`), but route it sensibly anyway.
            OpKind::Commit => None,
        }
    }

    /// Tail percentiles of transaction commit latency.
    pub fn commit_percentiles(&self) -> LatencyPercentiles {
        self.txn_latency_ms.percentiles()
    }

    /// Tail percentiles per operation kind, in [`OpKind::ALL`] order,
    /// skipping kinds with no samples.
    pub fn op_percentiles(&self) -> Vec<(OpKind, LatencyPercentiles)> {
        OpKind::ALL
            .iter()
            .filter_map(|&k| {
                let h = self.op_hist(k)?;
                (h.count() > 0).then(|| (k, h.percentiles()))
            })
            .collect()
    }

    /// Merges another client's metrics into this one (for aggregate
    /// reporting). Histogram merges are lossless: the merged percentiles
    /// equal those of recording every sample into one histogram.
    pub fn merge(&mut self, other: &ClientMetrics) {
        self.committed += other.committed;
        self.aborted_external += other.aborted_external;
        self.aborted_internal += other.aborted_internal;
        self.ops_completed += other.ops_completed;
        self.retries += other.retries;
        self.msg_rounds += other.msg_rounds;
        self.repair_rounds += other.repair_rounds;
        self.metadata_bytes += other.metadata_bytes;
        self.unrepaired_reads += other.unrepaired_reads;
        self.shard_redirects += other.shard_redirects;
        self.commit_batches += other.commit_batches;
        self.commit_batch_marks += other.commit_batch_marks;
        self.txn_latency_ms.merge(&other.txn_latency_ms);
        self.op_latency_ms.merge(&other.op_latency_ms);
        self.get_latency_ms.merge(&other.get_latency_ms);
        self.get_many_latency_ms.merge(&other.get_many_latency_ms);
        self.scan_latency_ms.merge(&other.scan_latency_ms);
        self.put_latency_ms.merge(&other.put_latency_ms);
        self.lock_latency_ms.merge(&other.lock_latency_ms);
    }

    /// Exports every counter and histogram into a metrics registry
    /// under `hat_client_*`/`hat_txn_*` names with the given labels —
    /// the client half of the unified Prometheus/JSON exposition.
    /// Histograms are folded in losslessly ([`hat_obs::MetricsRegistry`]
    /// bucket-merges), so exporting several clients under the same
    /// labels aggregates exactly like [`ClientMetrics::merge`].
    pub fn export_into(&self, reg: &mut hat_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.counter_add("hat_txn_committed_total", labels, self.committed);
        reg.counter_add(
            "hat_txn_aborted_external_total",
            labels,
            self.aborted_external,
        );
        reg.counter_add(
            "hat_txn_aborted_internal_total",
            labels,
            self.aborted_internal,
        );
        reg.counter_add("hat_client_ops_completed_total", labels, self.ops_completed);
        reg.counter_add("hat_client_retries_total", labels, self.retries);
        reg.counter_add("hat_client_msg_rounds_total", labels, self.msg_rounds);
        reg.counter_add("hat_client_repair_rounds_total", labels, self.repair_rounds);
        reg.counter_add(
            "hat_client_metadata_bytes_total",
            labels,
            self.metadata_bytes,
        );
        reg.counter_add(
            "hat_client_unrepaired_reads_total",
            labels,
            self.unrepaired_reads,
        );
        reg.counter_add(
            "hat_client_shard_redirects_total",
            labels,
            self.shard_redirects,
        );
        reg.counter_add(
            "hat_client_commit_batches_total",
            labels,
            self.commit_batches,
        );
        reg.counter_add(
            "hat_client_commit_batch_marks_total",
            labels,
            self.commit_batch_marks,
        );
        for (name, h) in [
            ("hat_txn_latency_ms", &self.txn_latency_ms),
            ("hat_op_latency_ms", &self.op_latency_ms),
            ("hat_get_latency_ms", &self.get_latency_ms),
            ("hat_get_many_latency_ms", &self.get_many_latency_ms),
            ("hat_scan_latency_ms", &self.scan_latency_ms),
            ("hat_put_latency_ms", &self.put_latency_ms),
            ("hat_lock_latency_ms", &self.lock_latency_ms),
        ] {
            if h.count() > 0 {
                reg.hist_merge(name, labels, h);
            }
        }
    }

    /// Committed transactions per second over a window of `elapsed`.
    pub fn throughput_tps(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.committed as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_throughput() {
        let mut m = ClientMetrics::default();
        m.record_commit(SimTime::ZERO, SimTime::from_millis(10));
        m.record_commit(SimTime::from_millis(10), SimTime::from_millis(30));
        assert_eq!(m.committed, 2);
        assert!((m.txn_latency_ms.mean() - 15.0).abs() < 0.5);
        assert!((m.throughput_tps(SimDuration::from_secs(2)) - 1.0).abs() < 1e-9);
        assert_eq!(m.throughput_tps(SimDuration::ZERO), 0.0);
        let p = m.commit_percentiles();
        assert_eq!(p.count, 2);
        assert!(p.p50 <= p.p999 && p.p999 <= p.max);
    }

    #[test]
    fn record_op_splits_by_kind() {
        let mut m = ClientMetrics::default();
        m.record_op(OpKind::Get, SimDuration::from_millis(1));
        m.record_op(OpKind::Get, SimDuration::from_millis(2));
        m.record_op(OpKind::Put, SimDuration::from_millis(10));
        m.record_op(OpKind::Scan, SimDuration::from_millis(5));
        m.record_op(OpKind::Lock, SimDuration::from_millis(3));
        m.record_op(OpKind::GetMany, SimDuration::from_millis(4));
        assert_eq!(m.ops_completed, 6);
        assert_eq!(m.op_latency_ms.count(), 6);
        assert_eq!(m.get_latency_ms.count(), 2);
        assert_eq!(m.put_latency_ms.count(), 1);
        assert_eq!(m.scan_latency_ms.count(), 1);
        assert_eq!(m.lock_latency_ms.count(), 1);
        assert_eq!(m.get_many_latency_ms.count(), 1);
        let kinds: Vec<OpKind> = m.op_percentiles().into_iter().map(|(k, _)| k).collect();
        assert!(kinds.contains(&OpKind::Get) && kinds.contains(&OpKind::Put));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ClientMetrics::default();
        let mut b = ClientMetrics::default();
        a.record_commit(SimTime::ZERO, SimTime::from_millis(5));
        b.record_commit(SimTime::ZERO, SimTime::from_millis(5));
        b.record_op(OpKind::Get, SimDuration::from_millis(1));
        b.retries = 3;
        b.msg_rounds = 7;
        b.repair_rounds = 2;
        b.metadata_bytes = 640;
        a.merge(&b);
        assert_eq!(a.committed, 2);
        assert_eq!(a.ops_completed, 1);
        assert_eq!(a.retries, 3);
        assert_eq!(a.msg_rounds, 7);
        assert_eq!(a.repair_rounds, 2);
        assert_eq!(a.metadata_bytes, 640);
        assert_eq!(a.unrepaired_reads, 0);
        assert_eq!(a.get_latency_ms.count(), 1);
    }

    #[test]
    fn merge_is_associative_and_empty_identity() {
        let mk = |ms: &[u64]| {
            let mut m = ClientMetrics::default();
            for &v in ms {
                m.record_commit(SimTime::ZERO, SimTime::from_millis(v));
                m.record_op(OpKind::Get, SimDuration::from_millis(v));
            }
            m
        };
        let a = mk(&[1, 50]);
        let b = mk(&[9]);
        let c = mk(&[400, 2]);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.committed, right.committed);
        assert_eq!(left.commit_percentiles(), right.commit_percentiles());
        assert_eq!(
            left.get_latency_ms.percentiles(),
            right.get_latency_ms.percentiles()
        );
        // Lossless: equal to single-histogram recording.
        let all = mk(&[1, 50, 9, 400, 2]);
        assert_eq!(left.commit_percentiles(), all.commit_percentiles());
        // Empty merge is an identity.
        let mut with_empty = a.clone();
        with_empty.merge(&ClientMetrics::default());
        assert_eq!(with_empty.commit_percentiles(), a.commit_percentiles());
        assert_eq!(with_empty.ops_completed, a.ops_completed);
    }
}
