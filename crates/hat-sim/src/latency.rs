//! Round-trip latency models calibrated to the paper's EC2 measurements.
//!
//! Section 2.2 of the paper reports one week of ping times between all
//! seven EC2 regions (plus an eighth, Singapore, as a column), across
//! availability zones, and within a single availability zone. Table 1
//! gives the mean RTTs; Figure 1 shows the latency CDFs. We embed the
//! published means verbatim and model each link as a log-normal
//! distribution around that mean, with the log-scale spread (`sigma`)
//! chosen so the tails match the paper's reported percentiles (e.g. the
//! São Paulo ↔ Singapore link: mean 362.8 ms, 95th percentile 649 ms
//! implies `sigma ≈ 0.4`).

use crate::time::SimDuration;
use crate::topology::Site;
use rand::Rng;

/// The EC2 regions used in the paper's measurement study (Table 1c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// us-west-1 (CA)
    California,
    /// us-west-2 (OR)
    Oregon,
    /// us-east (VA)
    Virginia,
    /// ap-northeast (TO)
    Tokyo,
    /// eu-west (IR)
    Ireland,
    /// ap-southeast-2 (SY)
    Sydney,
    /// sa-east (SP)
    SaoPaulo,
    /// ap-southeast-1 (SI)
    Singapore,
}

/// All eight regions, in the row/column order of Table 1c.
pub const ALL_REGIONS: [Region; 8] = [
    Region::California,
    Region::Oregon,
    Region::Virginia,
    Region::Tokyo,
    Region::Ireland,
    Region::Sydney,
    Region::SaoPaulo,
    Region::Singapore,
];

impl Region {
    /// Two-letter code used in Table 1c.
    pub fn code(self) -> &'static str {
        match self {
            Region::California => "CA",
            Region::Oregon => "OR",
            Region::Virginia => "VA",
            Region::Tokyo => "TO",
            Region::Ireland => "IR",
            Region::Sydney => "SY",
            Region::SaoPaulo => "SP",
            Region::Singapore => "SI",
        }
    }

    /// Index into [`ALL_REGIONS`].
    pub fn index(self) -> usize {
        ALL_REGIONS.iter().position(|r| *r == self).unwrap()
    }
}

/// An unordered pair of distinct regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionPair(pub Region, pub Region);

/// Mean cross-region RTTs in milliseconds, exactly as printed in Table 1c.
///
/// `CROSS_REGION_MEAN_MS[i][j]` for `i < j` in [`ALL_REGIONS`] order;
/// entries with `i >= j` are zero and never read directly (use
/// [`mean_cross_region_rtt_ms`]).
const CROSS_REGION_MEAN_MS: [[f64; 8]; 8] = [
    // CA      OR     VA     TO     IR     SY     SP     SI
    [0.0, 22.5, 84.5, 143.7, 169.8, 179.1, 185.9, 186.9], // CA
    [0.0, 0.0, 82.9, 135.1, 170.6, 200.6, 207.8, 234.4],  // OR
    [0.0, 0.0, 0.0, 202.4, 107.9, 265.6, 163.4, 253.5],   // VA
    [0.0, 0.0, 0.0, 0.0, 278.3, 144.2, 301.4, 90.6],      // TO
    [0.0, 0.0, 0.0, 0.0, 0.0, 346.2, 239.8, 234.1],       // IR
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 333.6, 243.1],         // SY
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 362.8],           // SP
    [0.0; 8],                                             // SI
];

/// Mean RTT between two distinct regions, in milliseconds (Table 1c).
///
/// # Panics
/// Panics if `a == b`; same-region links are intra-AZ or cross-AZ and use
/// the Table 1a/1b means instead.
pub fn mean_cross_region_rtt_ms(a: Region, b: Region) -> f64 {
    assert!(a != b, "cross-region mean requested for identical regions");
    let (i, j) = (a.index(), b.index());
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    CROSS_REGION_MEAN_MS[lo][hi]
}

/// Mean intra-availability-zone RTT (Table 1a; mean of the three
/// host-pair means 0.55, 0.56, 0.50).
pub const INTRA_AZ_MEAN_MS: f64 = 0.537;

/// Mean cross-availability-zone RTT within one region (Table 1b; mean of
/// 1.08, 3.12, 3.57).
pub const CROSS_AZ_MEAN_MS: f64 = 2.59;

/// The regions used for the five-cluster deployment of Figure 3C
/// ("the five EC2 datacenters with lowest communication cost"):
/// us-east (VA), us-west-1 (CA), us-west-2 (OR), eu-west (IR) and
/// ap-northeast (Tokyo).
pub const FIG3C_REGIONS: [Region; 5] = [
    Region::Virginia,
    Region::California,
    Region::Oregon,
    Region::Ireland,
    Region::Tokyo,
];

/// Classification of a link between two sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkClass {
    /// Same node talking to itself (loopback).
    Local,
    /// Distinct hosts in the same availability zone (Table 1a scale).
    IntraAz,
    /// Different availability zones of the same region (Table 1b scale).
    CrossAz,
    /// Different regions (Table 1c scale).
    CrossRegion(RegionPair),
}

/// A calibrated latency model: log-normal RTTs per link class.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Loopback RTT in ms.
    pub local_rtt_ms: f64,
    /// Mean intra-AZ RTT in ms.
    pub intra_az_mean_ms: f64,
    /// Mean cross-AZ RTT in ms.
    pub cross_az_mean_ms: f64,
    /// Log-scale spread for intra-AZ links.
    pub sigma_intra: f64,
    /// Log-scale spread for cross-AZ links.
    pub sigma_cross_az: f64,
    /// Log-scale spread for cross-region links (0.4 reproduces the paper's
    /// SP↔SI mean 362.8 ms / p95 649 ms ratio).
    pub sigma_wan: f64,
    /// Multiplier applied to the Table 1c cross-region means (1.0 = the
    /// paper's measurements; 0.0 disables WAN latency for ablations).
    pub wan_scale: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            local_rtt_ms: 0.05,
            intra_az_mean_ms: INTRA_AZ_MEAN_MS,
            cross_az_mean_ms: CROSS_AZ_MEAN_MS,
            sigma_intra: 0.5,
            sigma_cross_az: 0.6,
            sigma_wan: 0.4,
            wan_scale: 1.0,
        }
    }
}

impl LatencyModel {
    /// A model with zero latency everywhere — used by ablation benches to
    /// isolate protocol/service-time effects from network effects.
    pub fn zero() -> Self {
        LatencyModel {
            local_rtt_ms: 0.0,
            intra_az_mean_ms: 0.0,
            cross_az_mean_ms: 0.0,
            sigma_intra: 0.0,
            sigma_cross_az: 0.0,
            sigma_wan: 0.0,
            wan_scale: 0.0,
        }
    }

    /// Classifies the link between two sites.
    pub fn classify(a: Site, b: Site) -> LinkClass {
        if a.region != b.region {
            LinkClass::CrossRegion(RegionPair(a.region, b.region))
        } else if a.az != b.az {
            LinkClass::CrossAz
        } else {
            LinkClass::IntraAz
        }
    }

    /// Mean RTT of a link class, in milliseconds.
    pub fn mean_rtt_ms(&self, class: LinkClass) -> f64 {
        match class {
            LinkClass::Local => self.local_rtt_ms,
            LinkClass::IntraAz => self.intra_az_mean_ms,
            LinkClass::CrossAz => self.cross_az_mean_ms,
            LinkClass::CrossRegion(RegionPair(a, b)) => {
                mean_cross_region_rtt_ms(a, b) * self.wan_scale
            }
        }
    }

    fn sigma(&self, class: LinkClass) -> f64 {
        match class {
            LinkClass::Local => 0.0,
            LinkClass::IntraAz => self.sigma_intra,
            LinkClass::CrossAz => self.sigma_cross_az,
            LinkClass::CrossRegion(_) => self.sigma_wan,
        }
    }

    /// Samples a round-trip time for a link class, in milliseconds.
    ///
    /// The sample is log-normal with the configured mean: for mean `m` and
    /// log-scale spread `σ`, `ln X ~ N(ln m − σ²/2, σ²)`, so `E[X] = m`.
    pub fn sample_rtt_ms<R: Rng + ?Sized>(&self, class: LinkClass, rng: &mut R) -> f64 {
        let mean = self.mean_rtt_ms(class);
        if mean <= 0.0 {
            return 0.0;
        }
        let sigma = self.sigma(class);
        if sigma == 0.0 {
            return mean;
        }
        let mu = mean.ln() - sigma * sigma / 2.0;
        let z = standard_normal(rng);
        (mu + sigma * z).exp()
    }

    /// Samples a one-way delivery latency between two sites (half a
    /// sampled RTT).
    pub fn sample_one_way<R: Rng + ?Sized>(&self, a: Site, b: Site, rng: &mut R) -> SimDuration {
        let class = Self::classify(a, b);
        let rtt = self.sample_rtt_ms(class, rng);
        SimDuration::from_millis_f64(rtt / 2.0)
    }
}

/// Samples a standard normal deviate via the Box–Muller transform.
///
/// Implemented locally so the crate needs no distribution dependency; the
/// second deviate of each Box–Muller pair is deliberately discarded to keep
/// the sampler stateless.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would take ln(0).
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::EPSILON {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn table1c_values_match_paper() {
        assert_eq!(
            mean_cross_region_rtt_ms(Region::California, Region::Oregon),
            22.5
        );
        assert_eq!(
            mean_cross_region_rtt_ms(Region::SaoPaulo, Region::Singapore),
            362.8
        );
        assert_eq!(
            mean_cross_region_rtt_ms(Region::Ireland, Region::Sydney),
            346.2
        );
        // symmetry
        assert_eq!(
            mean_cross_region_rtt_ms(Region::Oregon, Region::California),
            22.5
        );
        assert_eq!(
            mean_cross_region_rtt_ms(Region::Tokyo, Region::Singapore),
            90.6
        );
    }

    #[test]
    #[should_panic]
    fn same_region_mean_panics() {
        mean_cross_region_rtt_ms(Region::Tokyo, Region::Tokyo);
    }

    #[test]
    fn classify_links() {
        let a = Site::new(Region::Virginia, 0);
        let b = Site::new(Region::Virginia, 0);
        let c = Site::new(Region::Virginia, 1);
        let d = Site::new(Region::Oregon, 0);
        assert_eq!(LatencyModel::classify(a, b), LinkClass::IntraAz);
        assert_eq!(LatencyModel::classify(a, c), LinkClass::CrossAz);
        assert!(matches!(
            LatencyModel::classify(a, d),
            LinkClass::CrossRegion(_)
        ));
    }

    #[test]
    fn sampled_mean_converges_to_table_mean() {
        let model = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        let class = LinkClass::CrossRegion(RegionPair(Region::SaoPaulo, Region::Singapore));
        let n = 40_000;
        let sum: f64 = (0..n).map(|_| model.sample_rtt_ms(class, &mut rng)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 362.8).abs() < 5.0,
            "sampled mean {mean} too far from 362.8"
        );
    }

    #[test]
    fn sampled_p95_reproduces_heavy_tail() {
        // Paper: SP<->SI mean 362.8ms, 95th percentile 649ms.
        let model = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(11);
        let class = LinkClass::CrossRegion(RegionPair(Region::SaoPaulo, Region::Singapore));
        let mut samples: Vec<f64> = (0..40_000)
            .map(|_| model.sample_rtt_ms(class, &mut rng))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = samples[(samples.len() as f64 * 0.95) as usize];
        assert!(
            (p95 - 649.0).abs() < 60.0,
            "p95 {p95} too far from paper's 649ms"
        );
    }

    #[test]
    fn zero_model_samples_zero() {
        let model = LatencyModel::zero();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(model.sample_rtt_ms(LinkClass::IntraAz, &mut rng), 0.0);
        let d = model.sample_one_way(
            Site::new(Region::Virginia, 0),
            Site::new(Region::Tokyo, 0),
            &mut rng,
        );
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn intra_faster_than_cross_az_faster_than_wan() {
        // Reproduces the paper's ordering claim: intra-DC is 1.8-6.4x faster
        // than cross-AZ and 40-647x faster than cross-region.
        let m = LatencyModel::default();
        let intra = m.mean_rtt_ms(LinkClass::IntraAz);
        let az = m.mean_rtt_ms(LinkClass::CrossAz);
        let ratio_az = az / intra;
        assert!((1.8..=6.5).contains(&ratio_az), "ratio {ratio_az}");
        for (i, &a) in ALL_REGIONS.iter().enumerate() {
            for &b in &ALL_REGIONS[i + 1..] {
                let wan = m.mean_rtt_ms(LinkClass::CrossRegion(RegionPair(a, b)));
                let r = wan / intra;
                assert!((40.0..=700.0).contains(&r), "{a:?}-{b:?} ratio {r}");
            }
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
