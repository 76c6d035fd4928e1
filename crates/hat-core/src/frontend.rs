//! The backend-agnostic transaction surface: [`Frontend`], [`Session`]
//! and the typed [`TxnCtx`].
//!
//! The paper's central claim is that HAT guarantees are *client-side*
//! properties: they come from write buffering, `required` vectors and
//! session caches (§5.1), not from any particular deployment substrate.
//! This module makes that claim structural. One [`Frontend`] trait is the
//! whole interactive API — open sessions, run transactions, let time
//! pass, quiesce replication, collect metrics and histories — and it is
//! implemented by two interchangeable backends:
//!
//! * [`crate::SimFrontend`] — the deterministic discrete-event simulator
//!   (built by [`crate::DeploymentBuilder::build`]);
//! * `hat_runtime::Runtime` — a pool of worker threads, at most one per
//!   core, with real channels between them (built by `build_threaded`
//!   from `hat-runtime`).
//!
//! The conformance suite runs the *same* scripts through both.
//!
//! ## Sessions and their knobs (§4.1, §5.1.3)
//!
//! A [`Session`] owns its own [`SessionOptions`], so a single deployment
//! can mix, say, a sticky causal client with a non-sticky
//! no-guarantee client — the exact contrast §5.1.3 draws when proving
//! read-your-writes requires stickiness:
//!
//! | knob | paper section | effect |
//! |---|---|---|
//! | [`SessionOptions::sticky`] | §4.1 sticky availability | route every request to the home cluster vs any replica |
//! | [`SessionLevel::ItemCut`](crate::SessionLevel::ItemCut) | §5.1.1 Item Cut Isolation | per-transaction read cache (repeat reads identical) |
//! | [`SessionLevel::Monotonic`](crate::SessionLevel::Monotonic) | §5.1.3 session guarantees | cross-transaction cache: monotonic reads + read-your-writes |
//! | [`SessionLevel::Causal`](crate::SessionLevel::Causal) | §5.1.3 / §5.1.2 | monotonic plus a cross-transaction `required` floor over MAV |
//!
//! ## Typed operations
//!
//! [`TxnCtx::get`]/[`TxnCtx::put`]/[`TxnCtx::scan`] return
//! `Result<_, HatError>`: an unavailable replica or a system abort
//! surfaces at the failing operation (usable with `?`), instead of the
//! old facade's silent no-ops after failure. The closure's own `Err`
//! return aborts the transaction.

use crate::client::{ClientCmd, ClientReply, SessionOptions};
use crate::error::HatError;
use crate::metrics::ClientMetrics;
use crate::txn::TxnRecord;
use bytes::Bytes;
use hat_sim::{NodeId, SimDuration};
use hat_storage::Key;

/// A handle to one client session of a deployment, carrying its own
/// [`SessionOptions`] (per-session, not per-deployment). Obtained from
/// [`Frontend::open_session`]; pass it back to the same frontend's
/// transaction methods.
#[derive(Debug, Clone)]
pub struct Session {
    idx: u32,
    node: NodeId,
    opts: SessionOptions,
}

impl Session {
    /// Builds a handle from raw parts; sessions are minted by
    /// [`Frontend`] implementations.
    pub fn from_parts(idx: u32, node: NodeId, opts: SessionOptions) -> Self {
        Session { idx, node, opts }
    }

    /// The session's index within its deployment (0-based open order).
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// The node id of the client actor backing this session.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The options this session was opened with.
    pub fn options(&self) -> SessionOptions {
        self.opts
    }

    /// Sugar for [`Frontend::txn`]: `session.txn(&mut front, |t| …)`.
    pub fn txn<F, R>(
        &self,
        front: &mut F,
        f: impl FnOnce(&mut TxnCtx<'_>) -> Result<R, HatError>,
    ) -> R
    where
        F: Frontend,
    {
        front.txn(self, f)
    }
}

/// The per-operation SPI a backend implements so the shared transaction
/// driver ([`drive_txn`]) can run closures against it. Kept object-safe:
/// [`TxnCtx`] holds it as `&mut dyn TxnBackend`.
///
/// A backend implements one method, [`TxnBackend::exec`]: run a
/// [`ClientCmd`] on the session's client through the one command path
/// (`Client::start_cmd`, then `Client::finish_cmd` once the client is
/// idle), supplying only the transport and the operation deadline. The
/// simulator steps virtual time until the client's network round
/// resolves; the threaded runtime sends the command into the client's
/// event loop and blocks on the reply channel. The typed operations are
/// default methods that map replies to results, so they are written
/// once for every backend.
pub trait TxnBackend {
    /// Runs `cmd` on `session`'s client and returns its reply. `Err`
    /// means the backend could not get an answer: the operation deadline
    /// passed, or the client is unreachable.
    fn exec(&mut self, session: &Session, cmd: ClientCmd) -> Result<ClientReply, HatError>;

    /// Starts a transaction on `session` (clears any finished one).
    fn begin(&mut self, session: &Session) -> Result<(), HatError> {
        ack(self, session, ClientCmd::Begin)
    }
    /// Executes an item read. `Ok(None)` is the initial `⊥` version.
    fn exec_get(&mut self, session: &Session, key: Key) -> Result<Option<Bytes>, HatError> {
        match run(self, session, ClientCmd::Get(key))? {
            ClientReply::Read(value) => Ok(value),
            other => mismatch("Read", other),
        }
    }
    /// Executes a one-shot multi-key read, returning one value per key
    /// in request order: natively under a protocol with a batch read
    /// (RAMP-Small's `GET_ALL`, whose atomicity guarantee holds exactly
    /// when the read set is fetched as one batch), otherwise one key at
    /// a time.
    fn exec_get_many(
        &mut self,
        session: &Session,
        keys: Vec<Key>,
    ) -> Result<Vec<Option<Bytes>>, HatError> {
        match run(self, session, ClientCmd::GetMany(keys))? {
            ClientReply::ReadMany(values) => Ok(values),
            ClientReply::Unbatched(keys) => keys
                .into_iter()
                .map(|k| self.exec_get(session, k))
                .collect(),
            other => mismatch("ReadMany", other),
        }
    }
    /// Executes (or buffers, per protocol) a write.
    fn exec_put(&mut self, session: &Session, key: Key, value: Bytes) -> Result<(), HatError> {
        match run(self, session, ClientCmd::Put(key, value))? {
            ClientReply::Wrote => Ok(()),
            other => mismatch("Wrote", other),
        }
    }
    /// Executes a predicate read over `prefix`.
    fn exec_scan(&mut self, session: &Session, prefix: Key) -> Result<Vec<(Key, Bytes)>, HatError> {
        match run(self, session, ClientCmd::Scan(prefix))? {
            ClientReply::Scanned(matches) => Ok(matches),
            other => mismatch("Scanned", other),
        }
    }
    /// Internally aborts the open transaction.
    fn exec_abort(&mut self, session: &Session) {
        let _ = ack(self, session, ClientCmd::AbortTxn);
    }
    /// Commits the open transaction and reports the outcome.
    fn commit(&mut self, session: &Session) -> Result<(), HatError> {
        match run(self, session, ClientCmd::Commit)? {
            ClientReply::Committed => Ok(()),
            other => mismatch("Committed", other),
        }
    }
    /// Abandons the open transaction after an operation failure
    /// (counts as an external abort; straggler responses are ignored).
    fn abandon(&mut self, session: &Session) {
        let _ = ack(self, session, ClientCmd::Abandon);
    }
}

/// Runs `cmd` and returns its reply, with a failed operation as `Err`.
fn run<B: TxnBackend + ?Sized>(
    backend: &mut B,
    session: &Session,
    cmd: ClientCmd,
) -> Result<ClientReply, HatError> {
    match backend.exec(session, cmd)? {
        ClientReply::Failed(e) => Err(e),
        reply => Ok(reply),
    }
}

/// Runs a bookkeeping `cmd`, which answers [`ClientReply::Ack`].
fn ack<B: TxnBackend + ?Sized>(
    backend: &mut B,
    session: &Session,
    cmd: ClientCmd,
) -> Result<(), HatError> {
    match run(backend, session, cmd)? {
        ClientReply::Ack => Ok(()),
        other => mismatch("Ack", other),
    }
}

fn mismatch(expected: &str, got: ClientReply) -> ! {
    panic!("protocol mismatch: expected {expected}, got {got:?}")
}

/// The backend-agnostic deployment surface. Everything interactive goes
/// through this trait, so workloads (the TPC-C runner, the conformance
/// scripts, the examples) run unchanged against the simulator and the
/// threaded runtime.
pub trait Frontend: TxnBackend {
    /// Opens the next session with its own `opts`.
    ///
    /// # Panics
    /// Panics if the deployment's provisioned sessions are exhausted
    /// (see `DeploymentBuilder::sessions_per_cluster`).
    fn open_session(&mut self, opts: SessionOptions) -> Session;

    /// Lets the deployment run for `d` with no injected work: simulated
    /// time under the simulator, (unscaled) wall-clock time under the
    /// threaded runtime.
    fn run_for(&mut self, d: SimDuration);

    /// How long [`Frontend::quiesce`] waits, derived from the deployment
    /// configuration (anti-entropy interval and WAN RTT bound).
    fn quiesce_duration(&self) -> SimDuration;

    /// Lets replication quiesce: runs with no new mutations long enough
    /// for anti-entropy, WAN propagation and MAV promotion to settle.
    fn quiesce(&mut self) {
        let d = self.quiesce_duration();
        self.run_for(d);
    }

    /// Metrics of one session (cloned snapshot).
    fn session_metrics(&self, session: &Session) -> ClientMetrics;

    /// Aggregated metrics across every client of the deployment.
    fn aggregate_metrics(&self) -> ClientMetrics;

    /// Drains recorded transaction histories from every client, sorted
    /// by `(session, session_seq)`.
    fn take_records(&mut self) -> Vec<TxnRecord>;

    /// Runs one interactive transaction on `session`, reporting
    /// unavailability and aborts as errors. Operations inside the
    /// closure return typed results, so `?` propagates a failing
    /// operation straight out (the transaction is then abandoned); a
    /// closure returning its own `Err` aborts internally.
    fn try_txn<R>(
        &mut self,
        session: &Session,
        f: impl FnOnce(&mut TxnCtx<'_>) -> Result<R, HatError>,
    ) -> Result<R, HatError>
    where
        Self: Sized,
    {
        drive_txn(self, session, f)
    }

    /// Runs one interactive transaction, panicking on failure (use
    /// [`Frontend::try_txn`] to observe errors).
    fn txn<R>(
        &mut self,
        session: &Session,
        f: impl FnOnce(&mut TxnCtx<'_>) -> Result<R, HatError>,
    ) -> R
    where
        Self: Sized,
    {
        match self.try_txn(session, f) {
            Ok(r) => r,
            Err(e) => panic!("transaction failed: {e}"),
        }
    }
}

/// Shared transaction driver: begin, run the closure against a typed
/// [`TxnCtx`], then commit / abort / abandon according to what happened.
/// Both frontends (and any future backend) funnel through this, so the
/// transaction lifecycle semantics cannot drift between them.
pub fn drive_txn<R>(
    backend: &mut dyn TxnBackend,
    session: &Session,
    f: impl FnOnce(&mut TxnCtx<'_>) -> Result<R, HatError>,
) -> Result<R, HatError> {
    backend.begin(session)?;
    let mut ctx = TxnCtx {
        backend,
        session,
        failed: None,
        aborted: false,
    };
    let out = f(&mut ctx);
    let failed = ctx.failed.take();
    let aborted = ctx.aborted;
    if let Some(e) = failed {
        // An operation failed (unavailability / system abort): the
        // transaction cannot commit; forget its outstanding requests.
        backend.abandon(session);
        return Err(e);
    }
    match out {
        Err(e) => {
            // The closure bailed out with its own error: internal abort.
            if !aborted {
                backend.exec_abort(session);
            }
            Err(e)
        }
        Ok(r) => {
            if aborted {
                return Err(HatError::InternalAbort {
                    reason: "aborted by transaction".into(),
                });
            }
            backend.commit(session)?;
            Ok(r)
        }
    }
}

/// Handle passed to transaction closures. Backend-neutral: it only
/// talks to a `dyn` [`TxnBackend`], so the same closure runs under the
/// simulator and the threaded runtime.
pub struct TxnCtx<'a> {
    backend: &'a mut dyn TxnBackend,
    session: &'a Session,
    failed: Option<HatError>,
    aborted: bool,
}

impl TxnCtx<'_> {
    fn run_op<T>(
        &mut self,
        f: impl FnOnce(&mut dyn TxnBackend, &Session) -> Result<T, HatError>,
    ) -> Result<T, HatError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.aborted {
            return Err(HatError::InternalAbort {
                reason: "operation after abort".into(),
            });
        }
        match f(self.backend, self.session) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.failed = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Reads `key` as a UTF-8 string. `Ok(None)` for the initial `⊥`
    /// value or non-UTF-8 data.
    pub fn get(&mut self, key: &str) -> Result<Option<String>, HatError> {
        Ok(self
            .get_bytes(key)?
            .and_then(|b| String::from_utf8(b.to_vec()).ok()))
    }

    /// Reads `key` raw. `Ok(None)` for the initial `⊥` value.
    pub fn get_bytes(&mut self, key: &str) -> Result<Option<Bytes>, HatError> {
        let k = Key::from(key.to_owned());
        self.run_op(|b, s| b.exec_get(s, k))
    }

    /// One-shot multi-key read as UTF-8 strings, one entry per key in
    /// request order (`None` for `⊥` or non-UTF-8 data). Under
    /// RAMP-Small this is the paper's `GET_ALL`: both metadata and
    /// value rounds are issued in parallel over the whole read set, the
    /// mode in which its constant-size metadata guarantees read
    /// atomicity. Other engines read the keys sequentially.
    pub fn get_many(&mut self, keys: &[&str]) -> Result<Vec<Option<String>>, HatError> {
        Ok(self
            .get_many_bytes(keys)?
            .into_iter()
            .map(|v| v.and_then(|b| String::from_utf8(b.to_vec()).ok()))
            .collect())
    }

    /// One-shot multi-key read, raw. An empty key list is a no-op.
    pub fn get_many_bytes(&mut self, keys: &[&str]) -> Result<Vec<Option<Bytes>>, HatError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let ks: Vec<Key> = keys.iter().map(|k| Key::from((*k).to_owned())).collect();
        self.run_op(|b, s| b.exec_get_many(s, ks))
    }

    /// Writes a UTF-8 value.
    pub fn put(&mut self, key: &str, value: &str) -> Result<(), HatError> {
        self.put_bytes(key, Bytes::from(value.to_owned()))
    }

    /// Writes raw bytes.
    pub fn put_bytes(&mut self, key: &str, value: Bytes) -> Result<(), HatError> {
        let k = Key::from(key.to_owned());
        self.run_op(|b, s| b.exec_put(s, k, value))
    }

    /// Predicate read: all `(key, value)` pairs under `prefix`, as
    /// UTF-8 (non-UTF-8 pairs are skipped).
    pub fn scan(&mut self, prefix: &str) -> Result<Vec<(String, String)>, HatError> {
        Ok(self
            .scan_bytes(prefix)?
            .into_iter()
            .filter_map(|(k, v)| {
                let ks = String::from_utf8(k.to_vec()).ok()?;
                let vs = String::from_utf8(v.to_vec()).ok()?;
                Some((ks, vs))
            })
            .collect())
    }

    /// Predicate read, raw.
    pub fn scan_bytes(&mut self, prefix: &str) -> Result<Vec<(Key, Bytes)>, HatError> {
        let p = Key::from(prefix.to_owned());
        self.run_op(|b, s| b.exec_scan(s, p))
    }

    /// Marks the transaction internally aborted; subsequent operations
    /// fail and the transaction reports [`HatError::InternalAbort`].
    pub fn abort(&mut self) {
        if self.aborted || self.failed.is_some() {
            return;
        }
        self.aborted = true;
        self.backend.exec_abort(self.session);
    }

    /// The error recorded so far, if any (inspection before txn end).
    pub fn error(&self) -> Option<&HatError> {
        self.failed.as_ref()
    }
}
