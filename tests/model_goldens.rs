//! Model-cycle goldens: every artifact of `xmt_bench::artifacts::ARTIFACTS`
//! (Table I, Fig. 1–4, the service series, the ablations, Graph500,
//! related work and calibration) runs at scale 10 on one worker, and
//! each file it writes must equal its copy under `tests/goldens/` in
//! every field but the host-measured ones listed in [`HOST`].  A model
//! charge, a superstep order or a result that moves shows up here as the
//! first differing field.
//!
//! The goldens are exactly what this writes:
//!
//! ```text
//! XMT_PAR_THREADS=1 cargo run -p xmt-bench --bin repro -- all --scale 10 --out tests/goldens
//! ```
//!
//! Built `harness = false` so `main` can pin the worker count before the
//! global pool exists: at two workers the model counts of `fig1` and
//! `ablation_labelprop` vary from run to run, and `fig4`'s `bsp_seconds`
//! (so its `ratio`) differ from these goldens in the third digit: the
//! BSP superstep loops charge loop overhead at the host's chunk.  The
//! GraphCT triangle charges use a constant chunk, so `fig4`'s
//! `graphct_seconds` and every `ablation_intersect` row match at two
//! workers too.

use std::collections::BTreeSet;
use std::path::Path;

use xmt_bench::artifacts::ARTIFACTS;
use xmt_bench::HarnessConfig;

const REGENERATE: &str =
    "XMT_PAR_THREADS=1 cargo run -p xmt-bench --bin repro -- all --scale 10 --out tests/goldens";

/// Host-measured fields no golden pins: `(file, JSON key or CSV column)`.
const HOST: [(&str, &str); 6] = [
    ("ablation_intersect.json", "host_seconds"),
    ("ablation_intersect.json", "speedup_vs_merge"),
    ("graph500.json", "graphct_host_teps"),
    ("graph500.json", "bsp_host_teps"),
    ("fig1_service.csv", "seconds"),
    ("fig2_service.csv", "seconds"),
];

fn host(file: &str, field: &str) -> bool {
    HOST.contains(&(file, field))
}

/// The first field where `got` differs from `want`, if any.  Pretty JSON
/// holds one field per line, so JSON compares line by line; CSV compares
/// cell by cell under the header's column names.
fn first_difference(file: &str, want: &str, got: &str) -> Option<String> {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let header: Vec<&str> = got.first().map_or(vec![], |h| h.split(',').collect());
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if file.ends_with(".csv") {
            let cells = w.split(',').zip(g.split(',')).zip(&header);
            for ((wc, gc), column) in cells {
                if wc != gc && !host(file, column) {
                    return Some(format!(
                        "line {}, column {column}: want {wc}, got {gc}",
                        i + 1
                    ));
                }
            }
            if w.split(',').count() != g.split(',').count() {
                return Some(format!("line {}: want `{w}`, got `{g}`", i + 1));
            }
        } else if w != g {
            let key = |line: &str| {
                line.trim()
                    .split(':')
                    .next()
                    .unwrap_or("")
                    .trim_matches('"')
                    .to_string()
            };
            if key(w) == key(g) && host(file, &key(w)) {
                continue;
            }
            return Some(format!(
                "line {}: want `{}`, got `{}`",
                i + 1,
                w.trim(),
                g.trim()
            ));
        }
    }
    (want.len() != got.len()).then(|| format!("want {} lines, got {}", want.len(), got.len()))
}

fn main() {
    // Before anything starts the global pool.
    std::env::set_var("XMT_PAR_THREADS", "1");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let cfg = HarnessConfig::parse(10, std::iter::empty::<String>());
    let (mut written, mut failures) = (BTreeSet::new(), Vec::new());
    for artifact in ARTIFACTS {
        for (file, got) in (artifact.run)(&cfg).files {
            let want = std::fs::read_to_string(dir.join(&file)).unwrap_or_default();
            if let Some(diff) = first_difference(&file, &want, &got) {
                failures.push(format!(
                    "{} wrote {file} unlike its golden: {diff}",
                    artifact.name
                ));
            }
            written.insert(file);
        }
    }
    let goldens: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("tests/goldens exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    for stale in goldens.difference(&written) {
        failures.push(format!("no artifact writes golden {stale}"));
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("model_goldens: {failure}");
        }
        eprintln!("model_goldens: if the change is meant, regenerate with\n    {REGENERATE}");
        std::process::exit(1);
    }
    println!(
        "model_goldens: {} files of {} artifacts match",
        written.len(),
        ARTIFACTS.len()
    );
}
