//! Integration tests for the linter: fixture pairs (one passing, one
//! violating file per rule), the live workspace staying clean, and the
//! CLI contract (nonzero exit + `file:line` diagnostic on a seeded
//! violation).

use std::path::{Path, PathBuf};
use std::process::Command;

use lint::engine;
use lint::model::FileModel;
use lint::rules::{all_rules, workspace_rules};

/// `(rule name, fixture stem, virtual path the fixture is linted as)`.
///
/// The virtual path matters because rules scope themselves by path:
/// `no-lock-unwrap` only fires inside `crates/service` / `crates/bsp`.
const CASES: &[(&str, &str, &str)] = &[
    (
        "unsafe-needs-safety-comment",
        "unsafe_needs_safety_comment",
        "crates/x/src/lib.rs",
    ),
    ("no-panic-in-lib", "no_panic_in_lib", "crates/x/src/lib.rs"),
    (
        "relaxed-ordering-justified",
        "relaxed_ordering_justified",
        "crates/x/src/lib.rs",
    ),
    (
        "no-lock-unwrap",
        "no_lock_unwrap",
        "crates/service/src/lib.rs",
    ),
    (
        "no-alloc-in-parallel-for",
        "no_alloc_in_parallel_for",
        "crates/bsp/src/lib.rs",
    ),
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn lint_fixture(stem: &str, suffix: &str, virtual_path: &str) -> Vec<lint::diag::Diagnostic> {
    let path = fixture_dir().join(format!("{stem}_{suffix}.rs"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    let model = FileModel::parse(Path::new(virtual_path), &text);
    let (diags, _) = engine::lint_file(&model, &all_rules());
    diags
}

#[test]
fn passing_fixtures_are_clean() {
    for &(rule, stem, vpath) in CASES {
        let diags = lint_fixture(stem, "pass", vpath);
        assert!(
            diags.is_empty(),
            "{rule}: passing fixture produced findings: {diags:?}"
        );
    }
}

#[test]
fn violating_fixtures_trigger_their_rule_with_a_line() {
    for &(rule, stem, vpath) in CASES {
        let diags = lint_fixture(stem, "violate", vpath);
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == rule).collect();
        assert!(
            !hits.is_empty(),
            "{rule}: violating fixture produced no finding for its rule; got {diags:?}"
        );
        for d in hits {
            assert!(d.line > 0, "{rule}: diagnostic must carry a 1-based line");
        }
    }
}

#[test]
fn every_shipped_rule_has_a_fixture_pair() {
    let covered: Vec<&str> = CASES.iter().map(|&(rule, _, _)| rule).collect();
    for rule in all_rules() {
        assert!(
            covered.contains(&rule.name),
            "rule `{}` has no fixture pair",
            rule.name
        );
    }
    let ws_covered: Vec<&str> = WS_CASES.iter().map(|&(rule, _)| rule).collect();
    for rule in workspace_rules() {
        assert!(
            ws_covered.contains(&rule.name),
            "workspace rule `{}` has no fixture pair",
            rule.name
        );
    }
}

/// `(workspace rule name, fixture stem)`; the fixture is mounted as
/// `crates/a/src/lib.rs` next to a fixed companion crate `b` so the
/// cross-crate rules have a foreign `pub fn` to resolve against.
const WS_CASES: &[(&str, &str)] = &[
    ("lock-order-cycle", "lock_order_cycle"),
    ("wait-while-holding", "wait_while_holding"),
    ("guard-across-call", "guard_across_call"),
    ("lock-order-undeclared", "lock_order_undeclared"),
];

const COMPANION_CRATE: &str = "pub fn crate_b_entry(x: u32) -> u32 {\n    x + 1\n}\n";

fn lint_ws_fixture(stem: &str, suffix: &str) -> Vec<lint::diag::Diagnostic> {
    let path = fixture_dir().join(format!("{stem}_{suffix}.rs"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    let models = vec![
        FileModel::parse(Path::new("crates/a/src/lib.rs"), &text),
        FileModel::parse(Path::new("crates/b/src/lib.rs"), COMPANION_CRATE),
    ];
    let (diags, _, _) = engine::lint_workspace(&models);
    diags
}

#[test]
fn passing_workspace_fixtures_are_clean() {
    for &(rule, stem) in WS_CASES {
        let diags = lint_ws_fixture(stem, "pass");
        assert!(
            diags.is_empty(),
            "{rule}: passing fixture produced findings: {diags:?}"
        );
    }
}

#[test]
fn violating_workspace_fixtures_trigger_their_rule_with_a_line() {
    for &(rule, stem) in WS_CASES {
        let diags = lint_ws_fixture(stem, "violate");
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == rule).collect();
        assert!(
            !hits.is_empty(),
            "{rule}: violating fixture produced no finding for its rule; got {diags:?}"
        );
        for d in hits {
            assert!(d.line > 0, "{rule}: diagnostic must carry a 1-based line");
        }
    }
}

/// The cycle witness must be actionable: it names both functions and
/// both locks on the inverted pair.
#[test]
fn lock_order_cycle_witness_names_functions_and_locks() {
    let diags = lint_ws_fixture("lock_order_cycle", "violate");
    let cycle = diags
        .iter()
        .find(|d| d.rule == "lock-order-cycle")
        .expect("cycle diagnostic");
    for needle in ["forward", "backward", "a/alpha", "a/beta"] {
        assert!(
            cycle.message.contains(needle),
            "witness must mention `{needle}`; got: {}",
            cycle.message
        );
    }
}

/// The workspace itself must stay lint-clean: every violation is either
/// fixed or carries a reviewed `lint:allow`.
#[test]
fn workspace_is_clean() {
    let summary = engine::run(&workspace_root()).expect("lint run succeeds");
    let errors: Vec<_> = summary
        .diagnostics
        .iter()
        .filter(|d| d.severity == lint::diag::Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "workspace has lint errors:\n{}",
        errors
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(summary.files > 50, "expected a real scan, not a stub");
}

/// CLI contract: a seeded violation makes the binary exit nonzero and
/// print a `file:line` diagnostic plus the LINT-SUMMARY trailer.
#[test]
fn seeded_violation_fails_the_cli_with_file_line() {
    let ws = workspace_root()
        .join("target")
        .join(format!("lint-seeded-ws-{}", std::process::id()));
    let src_dir = ws.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("create seeded workspace");
    std::fs::write(ws.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn broken(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root", ws.to_str().unwrap()])
        .output()
        .expect("run lint binary");
    let stdout = String::from_utf8_lossy(&out.stdout);

    let cleanup = std::fs::remove_dir_all(&ws);

    assert!(
        !out.status.success(),
        "seeded violation must exit nonzero; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("lib.rs:2"),
        "diagnostic must carry file:line; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("no-panic-in-lib"),
        "diagnostic must name the rule; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("LINT-SUMMARY {"),
        "machine-readable trailer missing; stdout:\n{stdout}"
    );
    cleanup.expect("remove seeded workspace");
}

/// CLI contract: a seeded lock-order inversion makes the binary exit
/// nonzero, and the `--locks` report plus the `lock-order-cycle` error
/// name both functions and both locks.
#[test]
fn seeded_lock_inversion_fails_the_cli_with_witness() {
    let ws = workspace_root()
        .join("target")
        .join(format!("lint-seeded-cycle-ws-{}", std::process::id()));
    let src_dir = ws.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("create seeded workspace");
    std::fs::write(ws.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "// lint:order: first < second\n\
         struct S {\n\
             first: Mutex<u32>,\n\
             second: Mutex<u32>,\n\
         }\n\
         \n\
         impl S {\n\
             fn take_forward(&self) {\n\
                 let a = self.first.lock();\n\
                 let b = self.second.lock();\n\
                 drop(b);\n\
                 drop(a);\n\
             }\n\
             fn take_backward(&self) {\n\
                 let b = self.second.lock();\n\
                 let a = self.first.lock();\n\
                 drop(a);\n\
                 drop(b);\n\
             }\n\
         }\n",
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root", ws.to_str().unwrap(), "--locks"])
        .output()
        .expect("run lint binary");
    let stdout = String::from_utf8_lossy(&out.stdout);

    let cleanup = std::fs::remove_dir_all(&ws);

    assert!(
        !out.status.success(),
        "seeded inversion must exit nonzero; stdout:\n{stdout}"
    );
    for needle in [
        "lock-order-cycle",
        "take_forward",
        "take_backward",
        "demo/first",
        "demo/second",
    ] {
        assert!(
            stdout.contains(needle),
            "witness must mention `{needle}`; stdout:\n{stdout}"
        );
    }
    cleanup.expect("remove seeded workspace");
}

/// CLI contract: a clean tree exits zero.
#[test]
fn clean_tree_passes_the_cli() {
    let ws = workspace_root()
        .join("target")
        .join(format!("lint-clean-ws-{}", std::process::id()));
    let src_dir = ws.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("create clean workspace");
    std::fs::write(ws.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn fine(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n",
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root", ws.to_str().unwrap()])
        .output()
        .expect("run lint binary");
    let stdout = String::from_utf8_lossy(&out.stdout);

    std::fs::remove_dir_all(&ws).expect("remove clean workspace");

    assert!(out.status.success(), "clean tree must exit zero:\n{stdout}");
    assert!(stdout.contains("\"errors\":0"), "stdout:\n{stdout}");
}
