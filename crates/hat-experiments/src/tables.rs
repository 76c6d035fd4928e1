//! Tables 1–3 and Figures 1–2: the latency calibration, the isolation
//! survey and the taxonomy, none of which runs a workload.

use crate::figures::{max, min};
use crate::report::{Outcome, Table};
use hat_core::survey::{stats, SURVEY};
use hat_core::taxonomy::{Availability, Model, Taxonomy, EDGES};
use hat_obs::Histogram;
use hat_sim::latency::{LinkClass, Region, RegionPair};
use hat_sim::{LatencyModel, ALL_REGIONS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Table 1c's mean RTTs, ms: row `i` holds region `i`'s links to regions
/// `i+1..` in [`ALL_REGIONS`] order. Restated from the paper so that the
/// simulator's calibration is checked against the paper, not itself.
const PAPER_1C: [&[f64]; 7] = [
    &[22.5, 84.5, 143.7, 169.8, 179.1, 185.9, 186.9],
    &[82.9, 135.1, 170.6, 200.6, 207.8, 234.4],
    &[202.4, 107.9, 265.6, 163.4, 253.5],
    &[278.3, 144.2, 301.4, 90.6],
    &[346.2, 239.8, 234.1],
    &[333.6, 243.1],
    &[362.8],
];

/// Table 1: mean RTTs within an availability zone (a), across zones (b)
/// and across regions (c), sampled from the calibrated latency model.
pub fn table1(_smoke: bool) -> Outcome {
    let model = LatencyModel::default();
    let mut rng = StdRng::seed_from_u64(0xEC2);
    // Tables 1a and 1b list three host pairs each: 0.55, 0.56 and 0.50 ms
    // within a zone, 1.08, 3.12 and 3.57 ms across zones.
    let mut links = vec![
        (
            "intra-AZ".to_string(),
            LinkClass::IntraAz,
            (0.55 + 0.56 + 0.50) / 3.0,
        ),
        (
            "cross-AZ".to_string(),
            LinkClass::CrossAz,
            (1.08 + 3.12 + 3.57) / 3.0,
        ),
    ];
    for (i, &a) in ALL_REGIONS[..7].iter().enumerate() {
        for (&b, &paper) in ALL_REGIONS[i + 1..].iter().zip(PAPER_1C[i]) {
            let name = format!("{}:{}", a.code(), b.code());
            links.push((name, LinkClass::CrossRegion(RegionPair(a, b)), paper));
        }
    }
    let mut table = Table::new(
        "Table 1: mean RTTs, ms (paper's host pairs: 0.50-0.56 intra-AZ, 1.08-3.57 cross-AZ)",
        &[("link", -9), ("sampled", 8), ("paper", 8), ("model", 8)],
    );
    let mut worst: f64 = 0.0;
    for (name, class, paper) in &links {
        let n = 10_000;
        let sampled = (0..n)
            .map(|_| model.sample_rtt_ms(*class, &mut rng))
            .sum::<f64>()
            / n as f64;
        worst = worst.max((sampled / paper - 1.0).abs());
        let p = if matches!(class, LinkClass::CrossRegion(_)) {
            1
        } else {
            2
        };
        let cells = [sampled, *paper, model.mean_rtt_ms(*class)].map(|x| format!("{x:.p$}"));
        table
            .rows
            .push([vec![name.clone()], cells.to_vec()].concat());
    }
    let intra = model.mean_rtt_ms(LinkClass::IntraAz);
    let cross_az = model.mean_rtt_ms(LinkClass::CrossAz) / intra;
    let ratios: Vec<f64> = links[2..]
        .iter()
        .map(|l| model.mean_rtt_ms(l.1) / intra)
        .collect();
    let (fastest, slowest) = (min(&ratios), max(&ratios));
    let line = format!(
        "cross-AZ/intra = {cross_az:.1}x; cross-region/intra = {fastest:.0}x-{slowest:.0}x \
         (paper: 1.82-6.38x and 40-647x)"
    );
    // The paper divides by its slowest intra-AZ host pair, 0.56 ms, and
    // truncates: CA:OR 22.5 / 0.56 = 40x, SP:SI 362.8 / 0.56 = 647x.
    let outside = links[2..]
        .iter()
        .map(|l| (model.mean_rtt_ms(l.1) / 0.56).trunc())
        .filter(|r| !(40.0..=647.0).contains(r))
        .count();
    let mut out = Outcome::from(vec![
        table,
        Table::lines("ratios of model means", vec![line]),
    ]);
    out.gated("Table 1: every sampled mean RTT (1a, 1b, 1c) within 2% of the paper's")
        .at_most(worst, 0.02);
    out.gated("Table 1: cross-AZ / intra-AZ RTT within the paper's 1.82-6.38x")
        .between(cross_az, 1.82, 6.38);
    out.gated("Table 1: cross-region links whose RTT / 0.56 ms is outside 40-647x")
        .at_most(outside as f64, 0.0);
    out
}

/// Table 2: default and maximum isolation levels of 18 ACID and NewSQL
/// databases (the paper's January 2013 survey).
pub fn table2(_smoke: bool) -> Outcome {
    let mut survey = Table::new(
        "Table 2: isolation levels of 18 databases",
        &[("database", -26), ("default", 10), ("maximum", 10)],
    );
    for e in SURVEY {
        survey.rows.push(vec![
            e.database.into(),
            e.default.code().into(),
            e.maximum.code().into(),
        ]);
    }
    let s = stats();
    let counts = Table::lines(
        "survey counts",
        vec![
            format!("databases surveyed:        {}", s.total),
            format!("weak (RC/CS/CR) default:   {}", s.weak_default),
        ],
    );
    let mut out = Outcome::from(vec![survey, counts]);
    out.gated("Table 2: databases serializable by default")
        .between(s.serializable_by_default as f64, 3.0, 3.0);
    out.gated("Table 2: databases with no serializable option")
        .between(s.no_serializability_option as f64, 8.0, 8.0);
    out
}

/// The paper's Table 3 rows, with its unavailability marks (†: prevents
/// lost update, ‡: prevents write skew, ⊕: requires recency).
const PAPER_TABLE_3: [(&str, &str); 3] = [
    ("HA", "RU, RC, MAV, I-CI, P-CI, WFR, MR, MW"),
    ("Sticky", "RYW, PRAM, causal"),
    (
        "Unavailable",
        "CS†, SI†, RR†‡, 1SR†‡, recency⊕, safe⊕, regular⊕, linearizable⊕, Strong-1SR†‡⊕",
    ),
];

/// Table 3: highly available, sticky available and unavailable models, as
/// `Model::availability` classifies them.
pub fn table3(_smoke: bool) -> Outcome {
    let mut rows: [Vec<String>; 3] = Default::default();
    for m in Model::ALL {
        let (row, marks) = match m.availability() {
            Availability::HighlyAvailable => (0, String::new()),
            Availability::Sticky => (1, String::new()),
            Availability::Unavailable(u) => {
                let marks = [
                    u.prevents_lost_update,
                    u.prevents_write_skew,
                    u.requires_recency,
                ];
                let on = marks.into_iter().zip("†‡⊕".chars()).filter(|m| m.0);
                (2, on.map(|m| m.1).collect())
            }
        };
        rows[row].push(format!("{}{marks}", m.acronym()));
    }
    let mut table = Table::new(
        "Table 3: availability of each model (†: prevents lost update, ‡: prevents write skew, \
         ⊕: requires recency)",
        &[("class", -11), ("models", -80), ("paper", 0)],
    );
    let mut mismatches = 0;
    for ((class, paper), ours) in PAPER_TABLE_3.iter().zip(&rows) {
        mismatches += paper
            .split(", ")
            .filter(|m| !ours.iter().any(|o| o == m))
            .count();
        table
            .rows
            .push(vec![class.to_string(), ours.join(", "), paper.to_string()]);
    }
    let mut out = Outcome::from(vec![table]);
    out.gated("Table 3: models the paper lists outside their class (or with other marks)")
        .at_most(mismatches as f64, 0.0);
    out
}

/// Figure 1: RTT CDFs of the slowest intra- and cross-AZ links and two
/// cross-region links, as `rtt_ms cumulative_fraction` pairs per link.
pub fn fig1(_smoke: bool) -> Outcome {
    let model = LatencyModel::default();
    let mut rng = StdRng::seed_from_u64(0xF161);
    let wan = |a, b| LinkClass::CrossRegion(RegionPair(a, b));
    let links = [
        ("east-b:east-b (intra-AZ)", LinkClass::IntraAz),
        ("east-c:east-d (cross-AZ)", LinkClass::CrossAz),
        ("CA:OR", wan(Region::California, Region::Oregon)),
        ("SI:SP", wan(Region::Singapore, Region::SaoPaulo)),
    ];
    let tables: Vec<Table> = links
        .into_iter()
        .map(|(name, class)| {
            let mut h = Histogram::for_latency_ms();
            for _ in 0..100_000 {
                h.record(model.sample_rtt_ms(class, &mut rng));
            }
            let mut lines = vec![format!(
                "# p50={:.2}ms p95={:.2}ms p99={:.2}ms",
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99)
            )];
            // about 40 points per curve
            let cdf = h.cdf();
            let step = (cdf.len() / 40).max(1);
            for (i, (v, f)) in cdf.iter().enumerate() {
                if i % step == 0 || *f >= 1.0 {
                    lines.push(format!("{v:.3} {f:.4}"));
                }
            }
            Table::lines(name, lines)
        })
        .collect();
    Outcome::from(tables)
}

/// Figure 2: the partial order of HAT, sticky and unavailable models —
/// edges, downsets, the achievable-combination count and the maximal
/// achievable combinations. The count's convention differs from the
/// paper's caption, so no claim is made on it.
pub fn fig2(_smoke: bool) -> Outcome {
    let t = Taxonomy::new();
    let names = |ms: &[Model]| {
        ms.iter()
            .map(|m| m.acronym())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let edges = EDGES
        .iter()
        .map(|(a, b)| format!("{} -> {}", a.acronym(), b.acronym()));
    let downsets = [
        Model::SnapshotIsolation,
        Model::RepeatableRead,
        Model::OneCopySerializability,
        Model::StrongOneCopySerializability,
    ]
    .map(|m| format!("{} => {}", m.acronym(), names(&t.implied_by(m))));
    let count = format!(
        "non-empty antichains of the 12 achievable models (Read Atomic included): {} (paper \
         caption: \"144 possible HAT combinations\", under a counting convention the paper does \
         not state)",
        t.count_hat_combinations()
    );
    let maximal = t
        .maximal_hat_combinations()
        .iter()
        .map(|c| format!("{{{}}}", names(c)))
        .collect();
    Outcome::from(vec![
        Table::lines("strength edges (stronger -> weaker)", edges.collect()),
        Table::lines(
            "downsets: what each unavailable headline model entails",
            downsets.to_vec(),
        ),
        Table::lines("achievable (HA + sticky) combination count", vec![count]),
        Table::lines("maximal simultaneously-achievable combinations", maximal),
    ])
}
