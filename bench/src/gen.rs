//! Seeded input generation: the paper's §6.3 YCSB transaction groups
//! scaled to the sandbox.
//!
//! Everything the program under test sees comes out of this module as
//! plain `Vec<TxnSpec>` — one vector per client, a pure function of
//! `(seed, client, shape, count)`. The generator is the benchmark's own
//! SplitMix64, so a change to `hat-workloads` or the `rand` shim cannot
//! move the inputs.

use bytes::Bytes;
use hat_core::{Op, TxnSpec};
use hat_storage::Key;

/// Keys in the keyspace (`user00000000` … `user00009999`).
pub const KEYS: u64 = 10_000;
/// Operations per transaction (§6.3).
pub const OPS_PER_TXN: usize = 8;
/// Value size in bytes.
pub const VALUE_LEN: usize = 256;
/// Length of a scan prefix: `user` + 7 digits, so one scan covers the
/// 10 keys that share it.
pub const SCAN_PREFIX_LEN: usize = 11;

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, good enough for
/// uniform key choice.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at n = 10⁴ is 2⁻⁵⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Per-operation mix, in percent; the remainder is writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub read_pct: u64,
    pub scan_pct: u64,
}

impl Mix {
    /// 50 % reads / 50 % writes.
    pub const MIXED: Mix = Mix {
        read_pct: 50,
        scan_pct: 0,
    };
    /// 90 % point reads / 5 % prefix scans / 5 % writes.
    pub const READ_SCAN: Mix = Mix {
        read_pct: 90,
        scan_pct: 5,
    };
}

/// The key with index `i`.
pub fn key(i: u64) -> Key {
    Key::from(format!("user{i:08}"))
}

fn value(rng: &mut SplitMix64) -> Bytes {
    let mut v = Vec::with_capacity(VALUE_LEN);
    while v.len() < VALUE_LEN {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(VALUE_LEN);
    Bytes::from(v)
}

/// `count` transactions for client `client`. Each touches
/// [`OPS_PER_TXN`] distinct uniformly-chosen keys in ascending key
/// order: distinct so no transaction overwrites its own write, ascending
/// so lock-based engines acquire locks in one global order and cannot
/// deadlock — the benchmark is built so that no operation fails.
pub fn client_inputs(seed: u64, client: usize, mix: Mix, count: usize) -> Vec<TxnSpec> {
    let mut rng = SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut specs = Vec::with_capacity(count);
    let mut picks = [0u64; OPS_PER_TXN];
    for _ in 0..count {
        let mut n = 0;
        while n < OPS_PER_TXN {
            let k = rng.below(KEYS);
            if !picks[..n].contains(&k) {
                picks[n] = k;
                n += 1;
            }
        }
        picks.sort_unstable();
        let ops = picks
            .iter()
            .map(|&k| {
                let roll = rng.below(100);
                if roll < mix.read_pct {
                    Op::Read(key(k))
                } else if roll < mix.read_pct + mix.scan_pct {
                    let full = key(k);
                    Op::PredicateRead(Key::from(&full[..SCAN_PREFIX_LEN]))
                } else {
                    Op::Write(key(k), value(&mut rng))
                }
            })
            .collect();
        specs.push(TxnSpec::new(ops));
    }
    specs
}

/// Client `client`'s share of the keyspace preload: each of the first
/// `keys` keys is written exactly once across the `clients` shares, 8
/// keys per transaction, in ascending order.
pub fn preload_inputs(seed: u64, client: usize, clients: usize, keys: u64) -> Vec<TxnSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0F7E_10AD ^ client as u64);
    let mine: Vec<u64> = (0..keys)
        .filter(|k| *k as usize % clients == client)
        .collect();
    mine.chunks(OPS_PER_TXN)
        .map(|chunk| {
            TxnSpec::new(
                chunk
                    .iter()
                    .map(|&k| Op::Write(key(k), value(&mut rng)))
                    .collect(),
            )
        })
        .collect()
}

/// FNV-1a over every op of every client's inputs: printed so two runs
/// at one seed can be seen to have generated identical inputs.
pub fn input_hash(inputs: &[Vec<TxnSpec>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for client in inputs {
        for spec in client {
            for op in &spec.ops {
                match op {
                    Op::Read(k) => {
                        eat(b"r");
                        eat(k);
                    }
                    Op::PredicateRead(p) => {
                        eat(b"s");
                        eat(p);
                    }
                    Op::Write(k, v) => {
                        eat(b"w");
                        eat(k);
                        eat(v);
                    }
                }
            }
        }
    }
    h
}
