//! Every table and figure of the reproduction, one function each, behind
//! one list.  The `repro` binary runs entries of [`ARTIFACTS`] by name
//! (or all of them); the root `model_goldens` test runs every entry at
//! scale 10 and compares the files against `tests/goldens/`.  See
//! DESIGN.md §5 for what each artifact regenerates.

use std::sync::{Arc, Mutex, PoisonError};

use serde::{Content, Serialize};
use xmt_graph::Csr;
use xmt_model::Recorder;

use crate::output::{field, say};
use crate::run::{bsp_step_seconds, ct_step_seconds};
use crate::{build_paper_graph, HarnessConfig, Output};

mod ablations;
mod extras;
mod paper;

/// One artifact: its name, the scale it runs at unless `--scale` says
/// otherwise, and the function that produces it.
pub struct Artifact {
    /// The name `repro` takes, e.g. `table1`.
    pub name: &'static str,
    /// The default `--scale`.
    pub default_scale: u32,
    /// Runs the experiment; every agreement check inside it aborts on
    /// failure, so a returned [`Output`] is itself a correctness check.
    pub run: fn(&HarnessConfig) -> Output,
}

const fn artifact(
    name: &'static str,
    default_scale: u32,
    run: fn(&HarnessConfig) -> Output,
) -> Artifact {
    Artifact {
        name,
        default_scale,
        run,
    }
}

/// Every artifact, in the order `repro all` runs them.
pub const ARTIFACTS: &[Artifact] = &[
    artifact("table1", 16, paper::table1),
    artifact("fig1", 18, paper::fig1),
    artifact("fig2", 18, paper::fig2),
    artifact("fig3", 18, paper::fig3),
    artifact("fig4", 17, paper::fig4),
    artifact("fig_service", 12, extras::fig_service),
    artifact("ablation_exchange", 16, ablations::exchange),
    artifact("ablation_labelprop", 16, ablations::labelprop),
    artifact("ablation_combiner", 16, ablations::combiner),
    artifact("ablation_activeset", 16, ablations::activeset),
    artifact("ablation_intersect", 16, ablations::intersect),
    artifact("ablation_direction", 14, ablations::direction),
    artifact("graph500", 16, extras::graph500),
    artifact("related_work", 16, paper::related_work),
    artifact("calibrate", 0, extras::calibrate),
];

/// The artifact called `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.name == name)
}

/// The paper graph of `cfg`, built once per `(scale, edge_factor, seed)`
/// for the life of the process, so artifacts run together share it.
pub(crate) fn graph(cfg: &HarnessConfig) -> Arc<Csr> {
    type Built = Vec<((u32, u64, u64), Arc<Csr>)>;
    static BUILT: Mutex<Built> = Mutex::new(Vec::new());
    let key = (cfg.scale, cfg.edge_factor, cfg.seed);
    let mut built = BUILT.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, g)) = built.iter().find(|(k, _)| *k == key) {
        return Arc::clone(g);
    }
    let g = Arc::new(build_paper_graph(cfg));
    built.push((key, Arc::clone(&g)));
    g
}

/// A panel of Fig. 1 or Fig. 3: its name, its recorder, and the label
/// of a GraphCT recorder's steps (`None` for a BSP recorder).
type Panel<'a> = (&'a str, &'a Recorder, Option<&'a str>);

/// The panels of Fig. 1 and Fig. 3, each cut to the steps `keep` admits.
/// Returns one JSON point `{panel, <key>, procs, seconds}` per processor
/// count, panel and step, in that nesting; prints per panel a step ×
/// procs pivot and the speedup of each step from the smallest machine
/// to the largest.
fn step_panels(
    out: &mut Output,
    cfg: &HarnessConfig,
    key: &str,
    panels: &[Panel],
    keep: impl Fn(u64) -> bool,
) -> Vec<Content> {
    let model = cfg.model();
    let steps = |&(_, rec, label): &Panel, p| -> Vec<(u64, f64)> {
        let all = match label {
            None => bsp_step_seconds(rec, &model, p),
            Some(label) => ct_step_seconds(rec, &model, label, p),
        };
        all.into_iter().filter(|&(s, _)| keep(s)).collect()
    };
    let mut points = Vec::new();
    for &p in &cfg.procs {
        for panel in panels {
            for (step, secs) in steps(panel, p) {
                let fields = [
                    ("panel", panel.0.to_content()),
                    (key, step.to_content()),
                    ("procs", p.to_content()),
                    ("seconds", secs.to_content()),
                ];
                points.push(Content::Map(fields.map(|(k, v)| (k.to_string(), v)).into()));
            }
        }
    }
    let (lo, hi) = (cfg.procs[0], cfg.max_procs());
    for panel in panels {
        say!(out, "\n[{}]", panel.0);
        let name = panel.0.to_content();
        out.pivot(
            points.iter().filter(|pt| field(pt, "panel") == Some(&name)),
            &[key],
            "procs",
            "seconds",
        );
        let speedups = steps(panel, lo).into_iter().zip(steps(panel, hi));
        let speedups: Vec<String> = speedups
            .map(|((s, a), (_, b))| format!("{s}: {:.1}x", a / b))
            .collect();
        let ideal = hi as f64 / lo as f64;
        say!(
            out,
            "speedup {lo}→{hi} procs: {} (ideal {ideal:.0}x)",
            speedups.join(", ")
        );
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert!(
                ARTIFACTS[..i].iter().all(|b| b.name != a.name),
                "{}",
                a.name
            );
        }
        assert!(find("fig2").is_some() && find("fig5").is_none());
    }

    #[test]
    fn graph500_terminates_on_a_graph_with_few_sources() {
        let cfg = HarnessConfig::parse(4, std::iter::empty::<String>());
        let g = graph(&cfg);
        let live = (0..g.num_vertices()).filter(|&v| g.degree(v) > 0).count();
        assert!(live < 16, "scale 4 should have fewer than 16 live vertices");
        // `graph500` validates both trees of every source before returning.
        let out = (find("graph500").unwrap().run)(&cfg);
        let rows = out.files[0].1.matches("\"source\"").count();
        assert_eq!(rows, live);
    }

    #[test]
    fn procs_order_does_not_invert_speedups() {
        let cfg = HarnessConfig::parse(8, ["--procs", "128,8"].map(String::from));
        for name in ["fig3", "fig4"] {
            let out = (find(name).unwrap().run)(&cfg);
            assert!(out.text.contains("speedup 8→128 procs"), "{}", out.text);
            assert!(out.text.contains("(ideal 16x)"), "{}", out.text);
        }
    }
}
