//! `hat-experiments <experiment|all> [--smoke]`: see the library docs.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(hat_experiments::main(&args));
}
