//! Workspace-local stand-in for the `rand` crate.
//!
//! The build environment is offline, so the workspace vendors the narrow
//! slice of the `rand 0.8` API the codebase uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] helpers `gen`,
//! `gen_range` and `gen_bool`. The generator is xoshiro256++ seeded via
//! SplitMix64 — deterministic, fast, and plenty for simulation use.
//! It makes no cryptographic claims whatsoever.

/// Concrete generators.
pub mod rngs {
    pub use crate::std_rng::StdRng;
}

mod std_rng {
    use crate::SeedableRng;

    /// Deterministic xoshiro256++ generator (the shim's "standard" RNG).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        pub(crate) fn next_u64_impl(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the 64-bit seed into full state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.next_u64_impl()
        }
    }
}

/// Core randomness source: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction (the only constructor the workspace uses).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly from the generator's raw stream.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Integer types usable with [`Rng::gen_range`].
pub trait UniformInt: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                // Debiased multiply-shift (Lemire); bias is negligible for
                // simulation spans but reject the worst case anyway.
                let mut x = rng.next_u64();
                if span.is_power_of_two() {
                    return lo + ((x & (span - 1)) as $t);
                }
                let threshold = u64::MAX - u64::MAX % span;
                while x >= threshold {
                    x = rng.next_u64();
                }
                lo + ((x % span) as $t)
            }
        }
    )*};
}

impl_uniform_int!(u8, u32, u64, usize);

/// The user-facing randomness trait (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Samples a value of type `T` from the standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from a half-open integer range.
    fn gen_range<T: UniformInt>(&mut self, range: core::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// True with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0usize..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
    }
}
