//! The one concurrency rule no compiler lint covers (DESIGN.md §9):
//! every `Ordering::Relaxed` in library code says, on its own line or
//! the line above, why no stronger ordering is needed.  Also fails on a
//! leftover marker of the retired `xmt-lint` tool, which nothing reads.

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
        // Library code: under a crate's `src/`, not a binary or a test
        // file, and above the file's `#[cfg(test)] mod`.
        let library = rel.contains("src/")
            && !rel.contains("/bin/")
            && !rel.contains("compat/")
            && !rel.ends_with("tests.rs");
        let test_mod = lines
            .windows(2)
            .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim().starts_with("mod "))
            .unwrap_or(lines.len());
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
