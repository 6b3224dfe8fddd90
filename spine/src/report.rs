//! What a run prints and writes: named metrics with units, the
//! provenance block, and the one-line result the driver reads.

use std::path::PathBuf;
use std::process::Command;

use serde::Content;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub fn map(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: impl Into<String>) -> Content {
    Content::Str(s.into())
}

pub fn metrics_content(metrics: &[Metric]) -> Content {
    Content::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    map(vec![
                        ("value", Content::F64(m.value)),
                        ("unit", text(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let tree = map(vec![
        ("correct", Content::Bool(correct)),
        ("attempted", Content::U64(attempted)),
        ("failed", Content::U64(failed)),
        ("metrics", metrics_content(metrics)),
    ]);
    serde_json::to_string(&tree).expect("a metric tree serializes")
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.  The driver's checkout is
/// not a git repository, so the sha reads `unknown` there unless
/// `SPINE_GIT_SHA` says otherwise.
pub fn provenance(seed: u64) -> Content {
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let sha = std::env::var("SPINE_GIT_SHA")
        .ok()
        .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string());
    map(vec![
        ("host_threads", Content::U64(host_threads as u64)),
        ("cpu_model", text(cpu_model())),
        (
            "pool_size",
            Content::U64(xmt_par::Executor::fixed().workers() as u64),
        ),
        ("git_sha", text(sha)),
        (
            "rustc",
            text(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())),
        ),
        ("seed", Content::U64(seed)),
        ("graph_seed", Content::U64(crate::inputs::GRAPH_SEED)),
    ])
}

/// `spine/out/`, next to the sources this binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write a report under [`out_dir`]; a failure to write is reported and
/// does not fail the run (the result line is what the driver reads).
pub fn write_report(file: &str, tree: &Content) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let body = serde_json::to_string_pretty(tree).expect("a report tree serializes");
        std::fs::write(dir.join(file), body + "\n")
    });
    match written {
        Ok(()) => eprintln!("spine: wrote {}", dir.join(file).display()),
        Err(e) => eprintln!("spine: could not write {file}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, &[metric("setup_s", 0.8127, "s")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
