//! Regenerate the reproduction's tables and figures.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin repro -- <artifact|all> [--scale N] [--edge-factor N]
//!     [--seed N] [--procs A,B,C] [--out DIR] [--calibrate]
//! ```
//!
//! Prints each artifact's transcript under a `== name ==` line; with
//! `--out DIR` also writes its JSON/CSV files there.  Each artifact runs
//! at its own default scale unless `--scale` is given, and artifacts run
//! together share one graph per `(scale, edge factor, seed)`.

use std::time::Instant;

use xmt_bench::artifacts::ARTIFACTS;
use xmt_bench::HarnessConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let flags: Vec<String> = args.collect();
    let chosen: Vec<_> = ARTIFACTS
        .iter()
        .filter(|a| name == "all" || a.name == name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        eprintln!(
            "usage: repro <artifact|all> [flags]\nunknown artifact {name:?}; valid: all {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    for artifact in chosen {
        let cfg = HarnessConfig::parse(artifact.default_scale, flags.iter().cloned());
        let clock = Instant::now();
        let out = (artifact.run)(&cfg);
        let seconds = clock.elapsed().as_secs_f64();
        println!("== {} ==\n{}", artifact.name, out.text);
        if let Some(dir) = &cfg.out_dir {
            if let Err(e) = out.write_files(dir) {
                eprintln!("repro: cannot write {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
        eprintln!(
            "repro: {} scale {} seconds {seconds:.2}",
            artifact.name, cfg.scale
        );
    }
}
