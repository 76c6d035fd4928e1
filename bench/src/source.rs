//! The benchmark-owned [`TxnSource`]: hands pre-generated transactions
//! to one closed-loop client and stamps the wall clock on every call.
//!
//! `Client::finish_txn` calls `drive_next` — and so `next_txn` — the
//! moment a transaction has its outcome, so the gap between two
//! consecutive calls on one client is that transaction's begin-to-outcome
//! latency, measured entirely from outside the program.
//!
//! A client's inputs are `[preload | mixed]`. With a time budget the
//! clients agree on a window through [`Phases`]: it opens when the last
//! client has finished its preload share and closes `budget` later; each
//! source stops handing out work at the first call past the close.
//! Without a budget a source runs until its inputs are exhausted.

use hat_core::client::TxnSource;
use hat_core::TxnSpec;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one client's source observed, published when it stops.
#[derive(Debug, Default, Clone)]
pub struct ClientLog {
    /// Nanoseconds since [`Phases::epoch`] of every `next_txn` call.
    pub stamps: Vec<u64>,
    /// Leading stamps that handed out preload transactions.
    pub preload: usize,
    /// Transactions handed out (preload included).
    pub handed: u64,
    /// Writes in the non-preload transactions handed out.
    pub writes: u64,
    /// True if the source stopped because its inputs ran out while a
    /// budget was still open.
    pub exhausted: bool,
}

/// State shared by the sources of one deployment.
#[derive(Debug)]
pub struct Phases {
    epoch: Instant,
    clients: usize,
    budget_ns: Option<u64>,
    preloaded: AtomicUsize,
    /// Sources that have stopped.
    stopped: AtomicUsize,
    /// Transactions handed out so far, per client.
    handed: Vec<AtomicU64>,
    /// When the last client finished preloading (0 = not yet).
    loaded_at: AtomicU64,
    logs: Mutex<Vec<(usize, ClientLog)>>,
    all_done: Condvar,
}

impl Phases {
    pub fn new(clients: usize, budget: Option<Duration>) -> Arc<Self> {
        Arc::new(Phases {
            epoch: Instant::now(),
            clients,
            budget_ns: budget.map(|b| b.as_nanos() as u64),
            preloaded: AtomicUsize::new(0),
            stopped: AtomicUsize::new(0),
            handed: (0..clients).map(|_| AtomicU64::new(0)).collect(),
            loaded_at: AtomicU64::new(0),
            logs: Mutex::new(Vec::new()),
            all_done: Condvar::new(),
        })
    }

    /// Nanoseconds since this deployment's epoch (never 0).
    pub fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// When every client had finished its preload share, if they have.
    pub fn loaded_at(&self) -> Option<u64> {
        match self.loaded_at.load(Ordering::Acquire) {
            0 => None,
            t => Some(t),
        }
    }

    /// Sources that have stopped handing out work.
    pub fn stopped(&self) -> usize {
        self.stopped.load(Ordering::Acquire)
    }

    /// Transactions client `client` has been handed so far — the
    /// ordinal of the one it is running.
    pub fn handed(&self, client: usize) -> u64 {
        self.handed[client].load(Ordering::Relaxed)
    }

    /// Blocks the caller until every source has stopped.
    pub fn wait_all_done(&self) {
        let mut logs = self.logs.lock().expect("a source panicked");
        while logs.len() < self.clients {
            logs = self.all_done.wait(logs).expect("a source panicked");
        }
    }

    /// The published logs in client order. Sources that were dropped
    /// mid-run (a simulator stopped at its horizon) publish on drop, so
    /// call this after the deployment is gone.
    pub fn take_logs(&self) -> Vec<ClientLog> {
        let mut logs = std::mem::take(&mut *self.logs.lock().expect("a source panicked"));
        logs.sort_by_key(|(client, _)| *client);
        logs.into_iter().map(|(_, log)| log).collect()
    }
}

/// One client's source.
pub struct StampedSource {
    client: usize,
    specs: Vec<TxnSpec>,
    next: usize,
    log: ClientLog,
    phases: Arc<Phases>,
    published: bool,
}

impl StampedSource {
    /// A source handing out `preload` then `mixed`. The stamp vector is
    /// sized up front so the measured path never reallocates it.
    pub fn boxed(
        client: usize,
        preload: Vec<TxnSpec>,
        mixed: Vec<TxnSpec>,
        phases: &Arc<Phases>,
    ) -> Box<dyn TxnSource> {
        let preload_len = preload.len();
        let mut specs = preload;
        specs.extend(mixed);
        Box::new(StampedSource {
            client,
            log: ClientLog {
                stamps: Vec::with_capacity(specs.len() + 1),
                preload: preload_len,
                ..ClientLog::default()
            },
            specs,
            next: 0,
            phases: Arc::clone(phases),
            published: false,
        })
    }

    fn publish(&mut self) {
        if self.published {
            return;
        }
        self.published = true;
        self.phases.stopped.fetch_add(1, Ordering::AcqRel);
        let log = std::mem::take(&mut self.log);
        if let Ok(mut logs) = self.phases.logs.lock() {
            logs.push((self.client, log));
            if logs.len() == self.phases.clients {
                self.phases.all_done.notify_all();
            }
        }
    }
}

impl TxnSource for StampedSource {
    fn next_txn(&mut self, _rng: &mut rand::rngs::StdRng) -> Option<TxnSpec> {
        let now = self.phases.now_ns();
        self.log.stamps.push(now);
        if self.next == self.log.preload {
            // The last preload transaction has its outcome (or there
            // was none): report in, and open the window if we are last.
            if self.phases.preloaded.fetch_add(1, Ordering::AcqRel) + 1 == self.phases.clients {
                self.phases.loaded_at.store(now, Ordering::Release);
            }
        }
        if self.next >= self.log.preload {
            if let (Some(budget), Some(loaded)) = (self.phases.budget_ns, self.phases.loaded_at()) {
                if now >= loaded + budget {
                    self.publish();
                    return None;
                }
            }
        }
        let Some(spec) = self.specs.get_mut(self.next) else {
            self.log.exhausted = self.phases.budget_ns.is_some();
            self.publish();
            return None;
        };
        if self.next >= self.log.preload {
            self.log.writes += spec.ops.iter().filter(|op| op.is_write()).count() as u64;
        }
        self.next += 1;
        self.log.handed += 1;
        self.phases.handed[self.client].store(self.log.handed, Ordering::Relaxed);
        Some(std::mem::take(spec))
    }
}

impl Drop for StampedSource {
    fn drop(&mut self) {
        self.publish();
    }
}
