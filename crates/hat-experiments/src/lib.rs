//! # hat-experiments — the paper's evaluation, checked
//!
//! One binary, `hat-experiments <experiment|all> [--smoke]`, runs the
//! paper's tables and figures on the simulator. Each experiment is a
//! function returning its measured rows and the paper's claims about them
//! ([`report::Claim`]); the process exits non-zero when a gated claim
//! fails. `--smoke` shortens windows (and the RAMP and nemesis keyspaces)
//! but keeps every point of every sweep, so it changes no verdict.
//! Wall-clock performance is measured by the separate `bench/` package.

pub mod anomalies;
pub mod figures;
pub mod nemesis;
pub mod ramp;
pub mod report;
pub mod runner;
pub mod tables;

pub use report::{Bound, Claim, Outcome, Table};
pub use runner::{run_ycsb, Sweep, YcsbRunConfig, YcsbRunResult};

/// An experiment: runs at full size, or at smoke size when passed `true`.
pub type Experiment = fn(bool) -> Outcome;

/// Every experiment but `nemesis`, by its command-line name, in the order
/// `all` runs them (`nemesis` last).
pub const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("fig1", tables::fig1),
    ("fig2", tables::fig2),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("impossibility", anomalies::impossibility),
    ("tpcc", anomalies::tpcc),
    ("ramp", ramp::ramp),
];

/// Runs the command line `<experiment|all> [--smoke]` (after the program
/// name; `nemesis` also takes `--json`),
/// prints each experiment's tables and claims, and returns the exit
/// status: 0 when every gated claim holds, 1 when one fails, 2 on a usage
/// error.
pub fn main(args: &[String]) -> i32 {
    let name = args.first().map_or("", String::as_str);
    let (mut smoke, mut json) = (false, false);
    for flag in args.iter().skip(1) {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--json" => json = true,
            _ => return usage(),
        }
    }
    let known = name == "all" || name == "nemesis" || EXPERIMENTS.iter().any(|e| e.0 == name);
    if !known || (json && name != "nemesis") {
        return usage();
    }
    let mut claims = Vec::new();
    let mut report = |title: &str, outcome: Outcome| {
        if name == "all" {
            println!("#### {title}\n");
        }
        println!("{outcome}");
        claims.extend(outcome.claims);
    };
    for (title, experiment) in EXPERIMENTS {
        if name == title || name == "all" {
            report(title, experiment(smoke));
        }
    }
    if name == "nemesis" || name == "all" {
        report("nemesis", nemesis::nemesis(smoke, json));
    }
    report::exit_status(&claims)
}

fn usage() -> i32 {
    eprintln!(
        "usage: hat-experiments <table1|table2|table3|fig1|fig2|fig3|fig4|fig5|fig6|impossibility|\
         tpcc|ramp|nemesis|all> [--smoke]\n       hat-experiments nemesis [--smoke] [--json]"
    );
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gated_claims_of_the_fast_experiments_hold() {
        let fast = ["table1", "table2", "table3", "impossibility", "tpcc"];
        for (name, experiment) in EXPERIMENTS.iter().filter(|e| fast.contains(&e.0)) {
            let claims = experiment(true).claims;
            assert!(claims.iter().any(|c| c.gated), "{name} gates no claim");
            for c in claims.iter().filter(|c| c.gated) {
                assert!(
                    c.holds,
                    "{name}: {} measured {} against {}",
                    c.statement, c.measured, c.bound
                );
            }
        }
    }
}
