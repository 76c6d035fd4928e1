//! The Read Committed engine (§5.1.1).
//!
//! RC is "essentially eventual with buffering": the isolation upgrade is
//! entirely client-side (writes stay in the client's buffer until
//! commit, so no transaction ever reads another's uncommitted data).
//! The server-side engine is therefore identical to `eventual` — it only
//! ever sees committed writes — and exists as its own type so the
//! protocol registry, experiment labels and conformance suite treat the
//! level as first-class. The client half is likewise the pure default
//! of [`ClientProtocol`]: buffer writes, flush them at commit.

use crate::protocol::engine::{ClientProtocol, ProtocolEngine};

/// Engine for [`crate::ProtocolKind::ReadCommitted`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadCommittedEngine;

impl ProtocolEngine for ReadCommittedEngine {
    fn name(&self) -> &'static str {
        "RC"
    }
}

/// Client half of [`crate::ProtocolKind::ReadCommitted`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadCommittedClient;

impl ClientProtocol for ReadCommittedClient {}
