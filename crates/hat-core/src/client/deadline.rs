//! Timers that die with their reason.
//!
//! Neither backend can cancel a timer once armed, yet a client's
//! deadlines move with every round: the retry deadline of the round in
//! flight, a protocol half's own (2PL's lock wait). Arming one backend
//! timer per deadline leaves one dead timer per request ever sent for
//! the backend to keep and pop. Instead each purpose keeps at most one
//! timer live and lets it serve whatever deadline is current when it
//! fires: a new deadline arms a timer only if none is live or the live
//! one would fire too late, and a live timer that fires early is re-armed
//! by its owner for the time left. This file holds the client's only
//! `set_timer` call (`scripts/check_protocol_seam.sh` enforces that).

use crate::messages::Msg;
use hat_sim::{Ctx, SimTime};

/// Timer tags with this bit set serve the protocol half's deadline (see
/// [`super::ClientCore::arm_deadline`]); the rest serve retries.
pub(super) const PROTOCOL_TIMER: u64 = 1 << 63;

/// The one live backend timer serving one purpose's deadline.
#[derive(Debug)]
pub(super) struct DeadlineTimer {
    /// Bit every tag of this purpose carries: 0 or [`PROTOCOL_TIMER`].
    purpose: u64,
    /// Timers armed so far; numbers the next tag.
    armed: u64,
    /// Tag and fire time of the live timer.
    live: Option<(u64, SimTime)>,
}

impl DeadlineTimer {
    pub(super) fn new(purpose: u64) -> Self {
        DeadlineTimer {
            purpose,
            armed: 0,
            live: None,
        }
    }

    /// Makes sure a timer fires no later than `deadline`. Arms one only
    /// if none is live or the live one fires after `deadline`; the timer
    /// that loses its place is ignored when it fires.
    pub(super) fn arm(&mut self, ctx: &mut Ctx<'_, Msg>, deadline: SimTime) {
        if self.live.is_some_and(|(_, at)| at <= deadline) {
            return;
        }
        self.armed += 1;
        let tag = self.armed | self.purpose;
        ctx.set_timer(deadline - ctx.now(), tag);
        self.live = Some((tag, deadline));
    }

    /// A timer tagged `tag` fired. True if it was the live one — which
    /// is now gone, whether or not its owner still has a deadline to
    /// serve; false for a timer that lost its place.
    pub(super) fn fired(&mut self, tag: u64) -> bool {
        let live = self.live.is_some_and(|(t, _)| t == tag);
        if live {
            self.live = None;
        }
        live
    }
}
