//! The `eventual` engine: last-writer-wins Read Uncommitted with
//! all-to-all anti-entropy (§5.1.1, the paper's most available
//! configuration).
//!
//! Server-side this is the pure default behavior of
//! [`crate::protocol::ProtocolEngine`]: LWW installs, LWW reads, gossip
//! on change. Everything Read Uncommitted needs — a total per-item
//! version order — is provided by the storage layer's stamp ordering.
//! Client-side, writes reach a replica before commit, so commit has
//! nothing left to do. An interactive put goes out at operation time. A
//! closed-loop plan sends its write set as one round at its start
//! ([`ClientProtocol::write_many`]): all of a transaction's writes carry
//! one stamp and replicas keep the last writer, so Read Uncommitted
//! constrains the order of writes, not when they are sent (§5.1.1), and
//! the plan's puts share one round and one durability barrier.

use crate::client::{ClientCore, Placement};
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

    fn write_many(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        writes: Vec<(Key, Bytes)>,
    ) -> Result<Step, Vec<(Key, Bytes)>> {
        Ok(core.flush_writes(ctx, writes, false, Placement::PerKey))
    }

    fn commit(&mut self, _core: &mut ClientCore, _ctx: &mut Ctx<'_, Msg>) -> Step {
        Step::Finish(TxnOutcome::Committed)
    }
}
