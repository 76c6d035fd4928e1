//! Figure 2: the partial order of HAT, sticky and unavailable models —
//! edges, incomparable pairs, achievable-combination counts and the
//! strongest (maximal) HAT combinations.
//!
//! Run: `cargo run -p hat-bench --release --bin exp_fig2`

use hat_core::taxonomy::{Model, Taxonomy, EDGES};

fn main() {
    println!("# strength edges (stronger -> weaker)");
    for (a, b) in EDGES {
        println!("{} -> {}", a.acronym(), b.acronym());
    }
    println!();

    let t = Taxonomy::new();
    println!("# downsets: what each unavailable headline model entails");
    for m in [
        Model::SnapshotIsolation,
        Model::RepeatableRead,
        Model::OneCopySerializability,
        Model::StrongOneCopySerializability,
    ] {
        let implied: Vec<&str> = t.implied_by(m).iter().map(|x| x.acronym()).collect();
        println!("{} => {}", m.acronym(), implied.join(", "));
    }
    println!();

    let count = t.count_hat_combinations();
    println!("# achievable (HA + sticky) combination count");
    println!(
        "non-empty antichains of the 12 achievable models (Read Atomic \
         included): {count} (paper caption: \"144 possible HAT \
         combinations\", under a counting convention the paper does not \
         state)"
    );
    println!();

    println!("# maximal simultaneously-achievable combinations");
    for combo in t.maximal_hat_combinations() {
        let names: Vec<&str> = combo.iter().map(|m| m.acronym()).collect();
        println!("{{{}}}", names.join(", "));
    }
    println!();
    println!(
        "# §5.3: combining all HAT and sticky guarantees = causal + P-CI \
         (transactional, causally consistent snapshot reads)"
    );
}
