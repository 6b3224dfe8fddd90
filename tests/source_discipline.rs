//! The one concurrency rule no compiler lint covers (DESIGN.md §9):
//! every `Ordering::Relaxed` in library code says, on its own line or
//! the line above, why no stronger ordering is needed.  Also fails on a
//! leftover marker of the retired `xmt-lint` tool, which nothing reads,
//! and on a model charge that reads the host pool's size: the modelled
//! machine's cycles must not depend on how many workers the host has.

use std::path::{Path, PathBuf};

/// Spelt in two halves so this file does not contain what it looks for.
const MARKERS: [&str; 2] = [concat!("lint", ":allow"), concat!("lint", ":order")];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Library code: under a crate's `src/`, not a binary or a test file.
fn is_library(rel: &str) -> bool {
    rel.contains("src/")
        && !rel.contains("/bin/")
        && !rel.contains("compat/")
        && !rel.ends_with("tests.rs")
}

/// The index of the file's `#[cfg(test)] mod` line, or its length.
fn test_mod_start(lines: &[&str]) -> usize {
    lines
        .windows(2)
        .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim().starts_with("mod "))
        .unwrap_or(lines.len())
}

#[test]
fn relaxed_orderings_are_justified_and_no_lint_markers_survive() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut findings = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let lines: Vec<&str> = text.lines().collect();
        let library = is_library(&rel);
        let test_mod = test_mod_start(&lines);
        for (i, line) in lines.iter().enumerate() {
            if MARKERS.iter().any(|m| line.contains(m)) {
                findings.push(format!("{rel}:{}: stale xmt-lint marker", i + 1));
            }
            let commented = line.contains("//") || (i > 0 && lines[i - 1].contains("//"));
            if library && i < test_mod && line.contains("::Relaxed") && !commented {
                findings.push(format!("{rel}:{}: unexplained Ordering::Relaxed", i + 1));
            }
        }
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

/// Names that read the host pool's size.
const POOL_READS: [&str; 2] = ["workers", "num_threads()"];

/// The argument text of every `charge_*(…)` call or definition in
/// `lines`, up to its closing parenthesis (which may sit on a later
/// line), with the 1-based line it starts on.
fn charge_arguments(lines: &[&str]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let mut rest = *line;
        while let Some(at) = rest.find("charge_") {
            rest = &rest[at + "charge_".len()..];
            let name_len = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            if !rest[name_len..].starts_with('(') {
                continue;
            }
            let (mut depth, mut args) = (1i32, String::new());
            'scan: for text in
                std::iter::once(&rest[name_len + 1..]).chain(lines[i + 1..].iter().copied())
            {
                for c in text.chars() {
                    depth += (c == '(') as i32 - (c == ')') as i32;
                    if depth == 0 {
                        break 'scan;
                    }
                    args.push(c);
                }
                args.push('\n');
            }
            out.push((i + 1, args));
        }
    }
    out
}

#[test]
fn the_charge_scanner_sees_pool_reads_across_lines() {
    let found = charge_arguments(&[
        "c.charge_loop_overhead(default_chunk(n, 1) as u64);",
        "e.charge_loop_overhead(",
        "    default_chunk(self.n, self.exec.workers()) as u64,",
        ");",
    ]);
    assert_eq!(found.len(), 2);
    assert!(!found[0].1.contains("workers"));
    assert_eq!(found[1].0, 2);
    assert!(found[1].1.contains("self.exec.workers()"));
}

#[test]
fn model_charges_do_not_read_the_host_pool() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        if !is_library(&rel) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (line, args) in charge_arguments(&lines[..test_mod_start(&lines)]) {
            if POOL_READS.iter().any(|r| args.contains(r)) {
                findings.push(format!(
                    "{rel}:{line}: charge reads the host pool: ({args})"
                ));
            }
        }
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}
