//! The `eventual` engine: last-writer-wins Read Uncommitted with
//! all-to-all anti-entropy (§5.1.1, the paper's most available
//! configuration).
//!
//! Server-side this is the pure default behavior of
//! [`crate::protocol::ProtocolEngine`]: LWW installs, LWW reads, gossip
//! on change. Everything Read Uncommitted needs — a total per-item
//! version order — is provided by the storage layer's stamp ordering.
//! Client-side, writes go to a replica at operation time (visible
//! before commit), so commit has nothing left to do.

use crate::client::ClientCore;
use crate::messages::Msg;
use crate::protocol::engine::{ClientProtocol, ProtocolEngine, Step};
use crate::txn::TxnOutcome;
use bytes::Bytes;
use hat_sim::Ctx;
use hat_storage::Key;

/// Engine for [`crate::ProtocolKind::Eventual`].
#[derive(Debug, Default, Clone, Copy)]
pub struct EventualEngine;

impl ProtocolEngine for EventualEngine {
    fn name(&self) -> &'static str {
        "eventual"
    }
}

/// Client half of [`crate::ProtocolKind::Eventual`].
#[derive(Debug, Default, Clone, Copy)]
pub struct EventualClient;

impl ClientProtocol for EventualClient {
    fn write(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, key: Key, value: Bytes) {
        core.write_through(ctx, key, value);
    }

    fn commit(&mut self, _core: &mut ClientCore, _ctx: &mut Ctx<'_, Msg>) -> Step {
        Step::Finish(TxnOutcome::Committed)
    }
}
