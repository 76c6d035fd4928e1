//! The consistent-hash shard ring shared by every cluster.
//!
//! §6.3 partitions data *within* a cluster by hash. The naive form —
//! `hash(key) % servers` — remaps nearly every key when a cluster is
//! resized, which makes live rebalancing (and the "millions of keys"
//! scaling regime) impractical. The ring fixes that: each server
//! position owns a fixed number of *virtual nodes* (tokens) placed
//! deterministically on a 64-bit circle, a key belongs to the first
//! token clockwise from its hash, and adding one server steals only
//! ~1/N of the keyspace (one arc per new token) instead of reshuffling
//! everything.
//!
//! The ring is keyed on the server's **position within its cluster**,
//! not its node id. Every equal-sized cluster therefore shares one
//! identical ring, which keeps replica sets positional: key `k` lives
//! at the same position in every cluster, and anti-entropy peering
//! (position `i` gossips with position `i` elsewhere) keeps working
//! unchanged. Token placement is a pure function of `(position,
//! vnode)`, so two layouts built from the same spec are bit-identical —
//! the determinism the simulator and nemesis reruns rely on.
//!
//! Live handoff ([`crate::Server`]) moves *token ownership* — a
//! `(token → new position)` override — without touching the ring
//! itself; the ring stays the immutable base placement that every node
//! derives routing from.

use crate::cluster::fnv1a;

/// Virtual nodes (tokens) per server position. More tokens smooth the
/// per-server keyspace share: at 16 positions, 16 vnodes leave the
/// hottest shard ~1.7× the mean share (which caps closed-loop shard
/// scaling near 0.6× linear — the hottest server queues while the rest
/// idle), 128 brings it under 1.15×. The ring stays tiny (≤2048
/// entries at 16 shards) and lookups are a binary search, so the extra
/// tokens cost nanoseconds.
pub const VNODES_PER_POSITION: u32 = 128;

/// A consistent-hash ring over server positions `0..positions`.
///
/// Tokens are identified by their index in the sorted ring (`0..
/// num_tokens()`); a token id is only meaningful relative to one ring,
/// which is fine because a deployment's ring is fixed for its lifetime
/// (handoffs move ownership of a token, never the token itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRing {
    /// Sorted `(token hash, home position)` pairs — the vnode arcs.
    entries: Vec<(u64, u32)>,
    positions: u32,
}

impl ShardRing {
    /// Ring for `positions` servers with the default vnode count.
    pub fn new(positions: usize) -> ShardRing {
        ShardRing::with_vnodes(positions, VNODES_PER_POSITION)
    }

    /// Ring for `positions` servers with `vnodes` tokens each.
    pub fn with_vnodes(positions: usize, vnodes: u32) -> ShardRing {
        assert!(positions > 0, "ring needs at least one position");
        assert!(vnodes > 0, "ring needs at least one vnode per position");
        let mut entries = Vec::with_capacity(positions * vnodes as usize);
        for pos in 0..positions as u32 {
            for v in 0..vnodes {
                entries.push((vnode_token(pos, v), pos));
            }
        }
        entries.sort_unstable();
        ShardRing {
            entries,
            positions: positions as u32,
        }
    }

    /// Total tokens (vnode arcs) on the ring.
    pub fn num_tokens(&self) -> u32 {
        self.entries.len() as u32
    }

    /// The token (vnode arc) owning `key`.
    pub fn token_of(&self, key: &[u8]) -> u32 {
        // FNV-1a alone leaves the high bits of short sequential keys
        // ("key-1", "key-2", …) nearly identical, which would dump the
        // whole workload into one arc; the finalizer spreads them over
        // the full circle.
        self.token_of_hash(mix64(fnv1a(key)))
    }

    /// The token owning hash `h`: the first token at or clockwise from
    /// `h`, wrapping past the top of the circle.
    pub fn token_of_hash(&self, h: u64) -> u32 {
        let idx = self.entries.partition_point(|&(t, _)| t < h);
        (if idx == self.entries.len() { 0 } else { idx }) as u32
    }

    /// The home position of `token` (base placement, before any
    /// handoff overrides).
    pub fn position_of_token(&self, token: u32) -> u32 {
        self.entries[token as usize].1
    }

    /// The home position owning `key`.
    pub fn owner_position(&self, key: &[u8]) -> u32 {
        self.position_of_token(self.token_of(key))
    }
}

/// Deterministic token placement: FNV-1a over the `(position, vnode)`
/// pair's little-endian bytes, finalized so tokens spread over the
/// whole circle. Stable across runs and platforms.
fn vnode_token(position: u32, vnode: u32) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..4].copy_from_slice(&position.to_le_bytes());
    bytes[4..].copy_from_slice(&vnode.to_le_bytes());
    mix64(fnv1a(&bytes))
}

/// MurmurHash3's 64-bit finalizer: full-avalanche bit mixing, so inputs
/// differing in any bit land anywhere on the circle.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hash_has_exactly_one_owner() {
        let ring = ShardRing::new(5);
        for i in 0..1000u64 {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let t = ring.token_of_hash(h);
            assert!(t < ring.num_tokens());
            assert!(ring.position_of_token(t) < 5);
        }
    }

    #[test]
    fn same_parameters_give_identical_rings() {
        assert_eq!(ShardRing::new(7), ShardRing::new(7));
        assert_eq!(ShardRing::with_vnodes(3, 4), ShardRing::with_vnodes(3, 4));
    }

    #[test]
    fn wraps_past_the_top_of_the_circle() {
        let ring = ShardRing::new(2);
        // u64::MAX is above every token, so it wraps to token 0.
        assert_eq!(ring.token_of_hash(u64::MAX), 0);
    }

    #[test]
    fn growth_remaps_a_bounded_fraction() {
        // The consistent-hash contract: adding one server moves ~1/(n+1)
        // of the keyspace, not ~all of it as modulo placement would.
        let n = 8usize;
        let old = ShardRing::new(n);
        let new = ShardRing::new(n + 1);
        let samples = 4000;
        let moved = (0..samples)
            .filter(|i| {
                let key = format!("sample-{i}");
                old.owner_position(key.as_bytes()) != new.owner_position(key.as_bytes())
            })
            .count();
        let bound = 2 * samples / n;
        assert!(moved <= bound, "moved {moved}/{samples}, bound {bound}");
        assert!(moved > 0, "growth must hand some keys to the new server");
    }

    #[test]
    fn all_positions_get_keyspace() {
        let ring = ShardRing::new(5);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200 {
            let key = format!("key-{i}");
            seen.insert(ring.owner_position(key.as_bytes()));
        }
        assert_eq!(seen.len(), 5, "vnode placement should cover all servers");
    }
}
