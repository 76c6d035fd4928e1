//! The `master` engine: per-key linearizability via a designated master
//! replica (§6.3's unavailable recency baseline).
//!
//! Clients route every operation on a key to that key's master (see
//! [`crate::ClusterLayout::master`]), so the master's LWW state *is* the
//! linearization point; the server-side write/read path is plain LWW and
//! the anti-entropy gossip merely keeps the other replicas warm. The
//! unavailability under partition comes from the routing, not from any
//! server-side machinery — which is why this engine has none.

use crate::client::ClientCore;
use crate::messages::Msg;
use crate::protocol::engine::{ClientProtocol, ProtocolEngine, Route, Step};
use crate::txn::TxnOutcome;
use bytes::Bytes;
use hat_sim::Ctx;
use hat_storage::Key;

/// Engine for [`crate::ProtocolKind::Master`].
#[derive(Debug, Default, Clone, Copy)]
pub struct MasterEngine;

impl ProtocolEngine for MasterEngine {
    fn name(&self) -> &'static str {
        "master"
    }
}

/// Client half of [`crate::ProtocolKind::Master`]: the `eventual`
/// client, routed to each key's master.
#[derive(Debug, Default, Clone, Copy)]
pub struct MasterClient;

impl ClientProtocol for MasterClient {
    fn route(&self) -> Route {
        Route::Master
    }

    fn write(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, key: Key, value: Bytes) {
        core.write_through(ctx, key, value);
    }

    fn commit(&mut self, _core: &mut ClientCore, _ctx: &mut Ctx<'_, Msg>) -> Step {
        Step::Finish(TxnOutcome::Committed)
    }
}
