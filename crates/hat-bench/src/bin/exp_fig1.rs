//! Figure 1: CDFs of round-trip times for the slowest intra- and
//! inter-availability-zone links vs cross-region links.
//!
//! Prints `(rtt_ms, cumulative_fraction)` series, one block per link, in
//! a gnuplot-friendly format.
//!
//! Run: `cargo run -p hat-bench --release --bin exp_fig1`

use hat_obs::Histogram;
use hat_sim::latency::{LatencyModel, LinkClass, Region, RegionPair};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let model = LatencyModel::default();
    let mut rng = StdRng::seed_from_u64(0xF161);
    let links: [(&str, LinkClass); 4] = [
        ("east-b:east-b (intra-AZ)", LinkClass::IntraAz),
        ("east-c:east-d (cross-AZ)", LinkClass::CrossAz),
        (
            "CA:OR",
            LinkClass::CrossRegion(RegionPair(Region::California, Region::Oregon)),
        ),
        (
            "SI:SP",
            LinkClass::CrossRegion(RegionPair(Region::Singapore, Region::SaoPaulo)),
        ),
    ];
    for (name, class) in links {
        let mut h = Histogram::for_latency_ms();
        for _ in 0..100_000 {
            h.record(model.sample_rtt_ms(class, &mut rng));
        }
        println!("# {name}");
        println!(
            "# p50={:.2}ms p95={:.2}ms p99={:.2}ms",
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99)
        );
        // thin the CDF to ~40 points per curve
        let cdf = h.cdf();
        let step = (cdf.len() / 40).max(1);
        for (i, (v, f)) in cdf.iter().enumerate() {
            if i % step == 0 || *f >= 1.0 {
                println!("{v:.3} {f:.4}");
            }
        }
        println!();
    }
    println!("# paper: trend intra < cross-AZ < cross-region over 10^-1..10^3 ms");
}
