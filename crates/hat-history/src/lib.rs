//! # hat-history — Adya-style anomaly detection
//!
//! The paper defines every isolation level and session guarantee in terms
//! of *phenomena* over histories (Appendix A, following Adya's
//! dissertation). This crate makes those definitions executable:
//!
//! * [`dsg`] — builds the Direct Serialization Graph of a history
//!   recorded by `hat-core` clients: write-dependencies, read-
//!   dependencies, (item-)anti-dependencies and session-dependencies,
//!   plus the per-item version order.
//! * [`phenomena`] — detectors for G0 (dirty writes), G1a (aborted
//!   reads), G1b (intermediate reads), G1c (circular information flow),
//!   IMP/PMP (cut-isolation violations), OTV (observed transaction
//!   vanishes — the MAV phenomenon), Fractured Reads (partial write-set
//!   observed — the Read Atomic phenomenon of the RAMP follow-up work),
//!   the session phenomena N-MR, N-MW, MYR and MRWD, plus Lost Update
//!   and Write Skew.
//! * [`checker`] — maps taxonomy models ([`Model`], Table 3) to their
//!   prohibited phenomena (Appendix A definitions 17–41) and checks a
//!   history against a model.
//!
//! The test suites of the workspace use this crate to *prove* that the
//! protocol implementations provide what Table 3 claims: e.g. MAV
//! histories never exhibit G0/G1/OTV, while eventual histories under
//! partition do exhibit Lost Update.

pub mod checker;
pub mod dsg;
pub mod phenomena;

pub use checker::{check, prohibited, Report};
pub use dsg::{Dsg, EdgeKind, History};
pub use hat_core::taxonomy::Model;
pub use phenomena::{Phenomenon, Violation};
