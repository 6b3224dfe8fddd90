//! Minimal command-line parsing shared by every artifact of `repro`.
//!
//! Aborting with a message on a malformed flag IS this parser's
//! interface (pinned by the should_panic tests below).

#![expect(
    clippy::panic,
    clippy::expect_used,
    reason = "the CLI aborts on bad flags"
)]

use std::path::PathBuf;

/// Common experiment options.
///
/// ```text
/// --scale N        log2 vertices of the RMAT graph (default per artifact)
/// --edge-factor N  edges per vertex (default 16, as in the paper)
/// --seed N         RMAT seed (default 1)
/// --procs A,B,C    processor counts to sweep (default 8,16,32,64,128;
///                  sorted ascending, duplicates dropped, 0 rejected)
/// --out DIR        also write machine-readable JSON under DIR
/// --calibrate      derive model constants from xmt-sim instead of the
///                  pinned defaults (slower, same shapes)
/// ```
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges per vertex.
    pub edge_factor: u64,
    /// Generator seed.
    pub seed: u64,
    /// Processor counts for scaling sweeps, ascending and distinct.
    pub procs: Vec<usize>,
    /// Optional output directory for JSON results.
    pub out_dir: Option<PathBuf>,
    /// Run simulator calibration instead of pinned constants.
    pub calibrate: bool,
}

impl HarnessConfig {
    /// Parse `std::env::args`, with a per-artifact default scale.
    pub fn from_args(default_scale: u32) -> Self {
        Self::parse(default_scale, std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse(default_scale: u32, args: impl IntoIterator<Item = String>) -> Self {
        let mut cfg = HarnessConfig {
            scale: default_scale,
            edge_factor: 16,
            seed: 1,
            procs: vec![8, 16, 32, 64, 128],
            out_dir: None,
            calibrate: false,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut need = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match arg.as_str() {
                "--scale" => cfg.scale = need("--scale").parse().expect("bad --scale"),
                "--edge-factor" => {
                    cfg.edge_factor = need("--edge-factor").parse().expect("bad --edge-factor")
                }
                "--seed" => cfg.seed = need("--seed").parse().expect("bad --seed"),
                "--procs" => {
                    cfg.procs = need("--procs")
                        .split(',')
                        .map(|s| s.trim().parse().expect("bad --procs"))
                        .collect()
                }
                "--out" => cfg.out_dir = Some(PathBuf::from(need("--out"))),
                "--calibrate" => cfg.calibrate = true,
                "--help" | "-h" => {
                    eprintln!(
                        "options: --scale N --edge-factor N --seed N --procs A,B,C --out DIR --calibrate"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown option {other}"),
            }
        }
        assert!(!cfg.procs.is_empty(), "need at least one processor count");
        assert!(!cfg.procs.contains(&0), "--procs takes no 0");
        cfg.procs.sort_unstable();
        cfg.procs.dedup();
        cfg
    }

    /// The model parameters to use (pinned defaults or live calibration).
    pub fn model(&self) -> xmt_model::ModelParams {
        if self.calibrate {
            xmt_model::ModelParams::from_calibration(&xmt_sim::MachineConfig::default())
        } else {
            xmt_model::ModelParams::default()
        }
    }

    /// The largest processor count in the sweep (the paper headlines 128).
    pub fn max_procs(&self) -> usize {
        #[expect(clippy::unwrap_used, reason = "`parse` asserts `procs` is non-empty")]
        *self.procs.iter().max().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_the_paper_ladder() {
        let c = HarnessConfig::parse(20, strs(&[]));
        assert_eq!(c.scale, 20);
        assert_eq!(c.edge_factor, 16);
        assert_eq!(c.procs, vec![8, 16, 32, 64, 128]);
        assert_eq!(c.max_procs(), 128);
        assert!(!c.calibrate);
    }

    #[test]
    fn flags_override_defaults() {
        let c = HarnessConfig::parse(
            20,
            strs(&[
                "--scale",
                "12",
                "--seed",
                "7",
                "--procs",
                "4,8",
                "--edge-factor",
                "8",
                "--calibrate",
            ]),
        );
        assert_eq!(c.scale, 12);
        assert_eq!(c.seed, 7);
        assert_eq!(c.procs, vec![4, 8]);
        assert_eq!(c.edge_factor, 8);
        assert!(c.calibrate);
    }

    #[test]
    fn procs_are_sorted_and_deduplicated() {
        let c = HarnessConfig::parse(20, strs(&["--procs", "128,8,32,8"]));
        assert_eq!(c.procs, vec![8, 32, 128]);
        assert_eq!(c.max_procs(), 128);
    }

    #[test]
    #[should_panic(expected = "takes no 0")]
    fn zero_procs_are_rejected() {
        HarnessConfig::parse(20, strs(&["--procs", "0,8"]));
    }

    #[test]
    #[should_panic(expected = "unknown option")]
    fn unknown_flags_are_rejected() {
        HarnessConfig::parse(20, strs(&["--bogus"]));
    }
}
