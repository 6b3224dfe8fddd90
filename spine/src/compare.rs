//! `spine --compare a.json b.json`: apply the bounds of `BENCHMARK.json`
//! to two results files (as `spine/run_all.py` writes them) and print
//! one row per workload and end-to-end metric.  Exits non-zero when `b`
//! is worse than `a` by more than a metric's bound, or when a run of `b`
//! failed an operation.  A row whose run-to-run spread exceeds its
//! bound is `unresolved`, not `ok` (choosing-metrics §6.5).  This is
//! the hook a CI gate calls.

use std::process::ExitCode;

use serde::Content;
use xmt_service::client::{field, field_bool, field_str, field_u64};

use crate::stats::{median, quartiles};

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    /// The spread between runs of one side exceeds the bound, so the
    /// medians cannot tell a change of that size from noise.
    Unresolved,
    /// One side has no run of this workload.
    Missing,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// How much worse `b`'s median is, as a share of `a`'s (negative =
    /// better).
    pub worse: Option<f64>,
    /// The larger of the two sides' inter-quartile spreads, as a share
    /// of the side's median.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Inter-quartile distance over the median, the driver's spread rule.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Judge one metric on one workload from each side's values.
pub fn judge(declared: &Declared, workload: &str, a: &[f64], b: &[f64]) -> Row {
    // The interpolated median, as the driver takes it (the second
    // quartile); a single run stands for itself.
    let mid = |v: &[f64]| quartiles(v).map(|q| q.1).or_else(|| median(v));
    let (ma, mb) = (mid(a), mid(b));
    let worse = match (ma, mb) {
        (Some(ma), Some(mb)) if ma != 0.0 => Some(if declared.higher_is_better {
            (ma - mb) / ma.abs()
        } else {
            (mb - ma) / ma.abs()
        }),
        _ => None,
    };
    let spread = [spread(a), spread(b)]
        .into_iter()
        .flatten()
        .reduce(f64::max);
    let verdict = match worse {
        None => Verdict::Missing,
        Some(_) if spread.is_some_and(|s| s > declared.bound) => Verdict::Unresolved,
        Some(w) if w > declared.bound => Verdict::Regression,
        Some(w) if w < -declared.bound => Verdict::Improved,
        Some(_) => Verdict::Ok,
    };
    Row {
        workload: workload.to_string(),
        metric: declared.name.clone(),
        a: ma,
        b: mb,
        worse,
        spread,
        verdict,
    }
}

fn number(c: &Content) -> Option<f64> {
    match c {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    }
}

fn seq(c: Option<&Content>) -> &[Content] {
    match c {
        Some(Content::Seq(items)) => items,
        _ => &[],
    }
}

/// The `end_to_end` metrics and workload names of a `BENCHMARK.json`.
pub fn declared(benchmark: &Content) -> Result<(Vec<String>, Vec<Declared>), String> {
    let workloads = seq(field(benchmark, "workloads"))
        .iter()
        .filter_map(|w| field_str(w, "name").map(str::to_string))
        .collect::<Vec<_>>();
    let metrics = seq(field(benchmark, "end_to_end"))
        .iter()
        .map(|m| {
            Some(Declared {
                name: field_str(m, "name")?.to_string(),
                higher_is_better: field_str(m, "better")? == "higher",
                bound: number(field(m, "bound")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: an end_to_end metric lacks name, better or bound")?;
    if workloads.is_empty() || metrics.is_empty() {
        return Err("BENCHMARK.json names no workloads or no end_to_end metrics".to_string());
    }
    Ok((workloads, metrics))
}

/// Values of `metric` over a results file's plain runs of `workload`.
fn values(results: &Content, workload: &str, metric: &str) -> Vec<f64> {
    seq(field(results, "runs"))
        .iter()
        .filter(|r| field_str(r, "workload") == Some(workload) && field_u64(r, "trace") == Some(0))
        .filter_map(|r| number(field(field(field(r, "metrics")?, metric)?, "value")?))
        .collect()
}

/// Runs of a results file that failed an operation or a check.
fn failed_runs(results: &Content) -> usize {
    seq(field(results, "runs"))
        .iter()
        .filter(|r| field_bool(r, "correct") != Some(true) || field_u64(r, "failed") != Some(0))
        .count()
}

pub fn compare(benchmark: &Content, a: &Content, b: &Content) -> Result<Vec<Row>, String> {
    let (workloads, metrics) = declared(benchmark)?;
    let mut rows = Vec::new();
    for workload in &workloads {
        for m in &metrics {
            rows.push(judge(
                m,
                workload,
                &values(a, workload, &m.name),
                &values(b, workload, &m.name),
            ));
        }
    }
    Ok(rows)
}

fn pct(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |v| format!("{:+.1}%", v * 100.0))
}

fn render(rows: &[Row], metrics: &[Declared]) -> String {
    let mut out = format!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "worse", "spread", "bound"
    );
    for r in rows {
        let bound = metrics
            .iter()
            .find(|m| m.name == r.metric)
            .map_or(0.0, |m| m.bound);
        let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
        out.push_str(&format!(
            "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            pct(r.worse),
            pct(r.spread).trim_start_matches('+'),
            bound * 100.0,
            r.verdict.word()
        ));
    }
    out
}

fn load(path: &str) -> Result<Content, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> ExitCode {
    let (paths, benchmark) = match args {
        [a, b] => ([a, b], "BENCHMARK.json".to_string()),
        [a, b, flag, path] if flag == "--benchmark" => ([a, b], path.clone()),
        _ => {
            eprintln!("usage: spine --compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]");
            return ExitCode::from(2);
        }
    };
    let loaded = load(&benchmark).and_then(|bench| Ok((bench, load(paths[0])?, load(paths[1])?)));
    let (bench, a, b) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("spine: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = match compare(&bench, &a, &b) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("spine: {e}");
            return ExitCode::from(2);
        }
    };
    let (_, metrics) = declared(&bench).expect("compare checked the declarations");
    print!("{}", render(&rows, &metrics));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let failed = failed_runs(&b);
    println!(
        "{} rows: {} regression, {} unresolved, {} improved, {} missing; {} run(s) of b failed an operation",
        rows.len(),
        count(Verdict::Regression),
        count(Verdict::Unresolved),
        count(Verdict::Improved),
        count(Verdict::Missing),
        failed
    );
    if count(Verdict::Regression) > 0 || failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "cc_s".to_string(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn lower_is_better_regresses_when_b_is_slower() {
        let r = judge(&lower(0.10), "w", &[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19]);
        assert_eq!(r.verdict, Verdict::Regression);
        assert!((r.worse.unwrap() - 0.2).abs() < 1e-9);
        let r = judge(&lower(0.10), "w", &[1.0, 1.01, 0.99], &[1.05, 1.06, 1.04]);
        assert_eq!(r.verdict, Verdict::Ok);
        let r = judge(&lower(0.10), "w", &[1.0, 1.01, 0.99], &[0.8, 0.81, 0.79]);
        assert_eq!(r.verdict, Verdict::Improved);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let d = Declared {
            name: "ops_per_s".to_string(),
            higher_is_better: true,
            bound: 0.10,
        };
        assert_eq!(
            judge(&d, "w", &[100.0, 101.0], &[80.0, 81.0]).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&d, "w", &[100.0, 101.0], &[120.0, 121.0]).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        // Quartiles of a are 0.775 and 1.225: a spread of 45 %.
        let r = judge(
            &lower(0.10),
            "w",
            &[0.7, 1.0, 1.0, 1.3],
            &[1.0, 1.0, 1.0, 1.0],
        );
        assert_eq!(r.verdict, Verdict::Unresolved);
        // A single run per side has no spread to judge by.
        let r = judge(&lower(0.10), "w", &[1.0], &[1.3]);
        assert_eq!(r.spread, None);
        assert_eq!(r.verdict, Verdict::Regression);
    }

    #[test]
    fn a_side_without_runs_is_missing() {
        assert_eq!(
            judge(&lower(0.10), "w", &[], &[1.0]).verdict,
            Verdict::Missing
        );
    }

    const BENCH: &str = r#"{"workloads":[{"name":"w1","why":"x"},{"name":"w2","why":"y"}],
        "end_to_end":[{"name":"cc_s","unit":"s","better":"lower","bound":0.1},
                      {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#;

    fn results(cc: f64, ops: f64, failed: u64) -> Content {
        let run = |w: &str, trace: u64| {
            format!(
                r#"{{"workload":"{w}","seed":1,"trace":{trace},"correct":{},"attempted":5,"failed":{failed},
                    "metrics":{{"cc_s":{{"value":{cc},"unit":"s"}},"ops_per_s":{{"value":{ops},"unit":"1/s"}}}}}}"#,
                failed == 0
            )
        };
        let body = format!(
            r#"{{"runs":[{},{},{},{}]}}"#,
            run("w1", 0),
            run("w1", 0),
            run("w2", 0),
            // A traced run's metrics are never compared.
            run("w2", 1)
        );
        serde_json::from_str(&body).unwrap()
    }

    #[test]
    fn compares_whole_files_by_workload_and_metric() {
        let bench: Content = serde_json::from_str(BENCH).unwrap();
        let rows = compare(&bench, &results(1.0, 100.0, 0), &results(1.5, 100.0, 0)).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert_eq!(
            (rows[2].workload.as_str(), rows[2].verdict),
            ("w2", Verdict::Regression)
        );
        assert_eq!(failed_runs(&results(1.0, 1.0, 0)), 0);
        assert_eq!(failed_runs(&results(1.0, 1.0, 2)), 4);
        assert!(render(&rows, &declared(&bench).unwrap().1).contains("REGRESSION"));
    }

    #[test]
    fn malformed_benchmark_is_an_error() {
        let bench: Content = serde_json::from_str(r#"{"workloads":[],"end_to_end":[]}"#).unwrap();
        assert!(declared(&bench).is_err());
    }
}
