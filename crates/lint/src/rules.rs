//! The shipped rules.
//!
//! Each rule is a pure function from a [`FileModel`] to diagnostics;
//! scoping (which files and which regions of a file the rule applies
//! to) lives with the rule, and the engine applies `lint:allow`
//! suppression afterwards.  Rationale for every rule is documented in
//! DESIGN.md ("Static analysis & concurrency discipline").

use std::path::Path;

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{idents, next_nonspace, prev_nonspace};
use crate::model::FileModel;

/// A named rule with a fixed severity.
pub struct Rule {
    /// Kebab-case rule name (the `lint:allow` key).
    pub name: &'static str,
    /// Severity of the rule's findings.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// The checker.
    pub check: fn(&FileModel) -> Vec<Diagnostic>,
}

/// Every shipped rule.
pub fn all_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "unsafe-needs-safety-comment",
            severity: Severity::Error,
            summary: "every `unsafe` block/fn/impl must be preceded by a `// SAFETY:` comment",
            check: unsafe_needs_safety_comment,
        },
        Rule {
            name: "no-panic-in-lib",
            severity: Severity::Error,
            summary: "unwrap()/expect()/panic!/unreachable!/todo! forbidden in library code",
            check: no_panic_in_lib,
        },
        Rule {
            name: "relaxed-ordering-justified",
            severity: Severity::Error,
            summary: "every Ordering::Relaxed needs a same-or-previous-line justification comment",
            check: relaxed_ordering_justified,
        },
        Rule {
            name: "no-lock-unwrap",
            severity: Severity::Error,
            summary:
                ".lock()/.read()/.write() + unwrap() forbidden in crates/service and crates/bsp",
            check: no_lock_unwrap,
        },
        Rule {
            name: "no-alloc-in-parallel-for",
            severity: Severity::Warning,
            summary: "Vec::new()/vec![] inside parallel_for closures in crates/{par,bsp,graphct,stinger} (advisory)",
            check: no_alloc_in_parallel_for,
        },
    ]
}

/// A workspace-level rule: checked by the inter-procedural pass in
/// [`crate::workspace`]/[`crate::callgraph`] rather than per file, but
/// named, listed, gated, and `lint:allow`-suppressible exactly like the
/// per-file rules.
pub struct WorkspaceRule {
    /// Kebab-case rule name (the `lint:allow` key).
    pub name: &'static str,
    /// Severity of the rule's findings.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
}

/// Every shipped workspace-level rule.
pub fn workspace_rules() -> Vec<WorkspaceRule> {
    vec![
        WorkspaceRule {
            name: "lock-order-cycle",
            severity: Severity::Error,
            summary: "cycle in the global lock acquisition-order graph (potential deadlock), \
                 reported with the witness path of functions and locks",
        },
        WorkspaceRule {
            name: "wait-while-holding",
            severity: Severity::Error,
            summary: "condvar wait (direct or via a call) while a second guard is live",
        },
        WorkspaceRule {
            name: "guard-across-call",
            severity: Severity::Warning,
            summary: "guard held across a call into another crate's public API (advisory)",
        },
        WorkspaceRule {
            name: "lock-order-undeclared",
            severity: Severity::Warning,
            summary: "observed lock nesting not covered by a declared lint:order chain (advisory)",
        },
    ]
}

/// Is this file a binary root (`src/bin/**` or `src/main.rs`)?
fn is_bin_path(path: &Path) -> bool {
    let bin_dir = path
        .components()
        .any(|c| c.as_os_str().to_str() == Some("bin"));
    let main = path.file_name().and_then(|f| f.to_str()) == Some("main.rs");
    bin_dir || main
}

/// Is the file inside the crate `name` (matched as a `crates/<name>`
/// path component pair)?
fn in_crate(path: &Path, name: &str) -> bool {
    let comps: Vec<&str> = path
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    comps.windows(2).any(|w| w[0] == "crates" && w[1] == name)
}

/// Library code: not a binary root and not inside test-only regions.
fn is_lib_line(m: &FileModel, line: usize) -> bool {
    !is_bin_path(&m.path) && !m.in_test_code(line)
}

// ---------------------------------------------------------------------
// Rule 1: unsafe-needs-safety-comment
// ---------------------------------------------------------------------

/// Flag `unsafe` tokens with no `SAFETY:` comment on the same line or
/// in the contiguous comment/attribute block directly above.
fn unsafe_needs_safety_comment(m: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, line) in m.src.lines.iter().enumerate() {
        let has_unsafe = idents(&line.code).iter().any(|&(_, id)| id == "unsafe");
        if !has_unsafe {
            continue;
        }
        if m.comment_block_contains(i, "SAFETY:") {
            continue;
        }
        out.push(Diagnostic {
            rule: "unsafe-needs-safety-comment",
            severity: Severity::Error,
            path: m.path.clone(),
            line: i + 1,
            message: "`unsafe` without a `// SAFETY:` comment on this line or directly above"
                .to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------
// Rule 2: no-panic-in-lib
// ---------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Flag `.unwrap()`, `.expect(...)` and panicking macros in library
/// code (binary roots and `#[cfg(test)]` regions are exempt).
fn no_panic_in_lib(m: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if is_bin_path(&m.path) {
        return out;
    }
    for (i, line) in m.src.lines.iter().enumerate() {
        if m.in_test_code(i) {
            continue;
        }
        for &(at, id) in &idents(&line.code) {
            let end = at + id.len();
            let found = match id {
                "unwrap" => {
                    prev_nonspace(&line.code, at) == Some('.')
                        && line.code[end..].trim_start().starts_with("()")
                }
                "expect" => {
                    prev_nonspace(&line.code, at) == Some('.')
                        && next_nonspace(&line.code, end) == Some('(')
                }
                name if PANIC_MACROS.contains(&name) => next_nonspace(&line.code, end) == Some('!'),
                _ => false,
            };
            if found {
                let what = if PANIC_MACROS.contains(&id) {
                    format!("`{id}!`")
                } else {
                    format!("`.{id}()`")
                };
                out.push(Diagnostic {
                    rule: "no-panic-in-lib",
                    severity: Severity::Error,
                    path: m.path.clone(),
                    line: i + 1,
                    message: format!(
                        "{what} can panic in library code; return a typed error or justify \
                         the invariant with lint:allow"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 3: relaxed-ordering-justified
// ---------------------------------------------------------------------

/// Flag `Ordering::Relaxed` in library code with no comment on the
/// same line or the line directly above.
fn relaxed_ordering_justified(m: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, line) in m.src.lines.iter().enumerate() {
        if !is_lib_line(m, i) {
            continue;
        }
        let relaxed = idents(&line.code)
            .iter()
            .any(|&(at, id)| id == "Relaxed" && prev_nonspace(&line.code, at) == Some(':'));
        if !relaxed {
            continue;
        }
        if m.has_adjacent_comment(i) {
            continue;
        }
        out.push(Diagnostic {
            rule: "relaxed-ordering-justified",
            severity: Severity::Error,
            path: m.path.clone(),
            line: i + 1,
            message: "`Ordering::Relaxed` without a same-or-previous-line justification \
                      comment (say why no stronger ordering is needed)"
                .to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------
// Rule 4: no-lock-unwrap
// ---------------------------------------------------------------------

const LOCK_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Flag `.lock().unwrap()`-style poisoned-lock panics in the service
/// and bsp crates, where a worker must map them to typed errors.
fn no_lock_unwrap(m: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !(in_crate(&m.path, "service") || in_crate(&m.path, "bsp")) {
        return out;
    }
    for (i, line) in m.src.lines.iter().enumerate() {
        if !is_lib_line(m, i) {
            continue;
        }
        for &(at, id) in &idents(&line.code) {
            if !LOCK_METHODS.contains(&id) || prev_nonspace(&line.code, at) != Some('.') {
                continue;
            }
            // Whitespace-insensitive check for `().unwrap()`/`().expect(`.
            let rest: String = line.code[at + id.len()..]
                .chars()
                .filter(|c| !c.is_whitespace())
                .collect();
            if rest.starts_with("().unwrap()") || rest.starts_with("().expect(") {
                out.push(Diagnostic {
                    rule: "no-lock-unwrap",
                    severity: Severity::Error,
                    path: m.path.clone(),
                    line: i + 1,
                    message: format!(
                        "`.{id}().unwrap()` turns a poisoned lock into a worker death; \
                         map it to a typed error"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 5: no-alloc-in-parallel-for (advisory)
// ---------------------------------------------------------------------

const PARALLEL_ENTRY_POINTS: &[&str] = &[
    "parallel_for",
    "parallel_for_on",
    "parallel_for_chunked",
    "parallel_for_chunked_on",
    "parallel_for_guided_on",
    "parallel_fill",
    "pfor",
    "pfor_chunked",
];

/// Flag `Vec::new()` and `vec![...]` inside the argument list of a
/// `parallel_for`-family call (including the `Executor::pfor` wrappers
/// both engines run through) in `crates/par`, `crates/bsp`,
/// `crates/graphct` and `crates/stinger` (advisory).  The BSP engine's
/// zero-allocation steady
/// state depends on compute closures drawing from per-worker scratch or
/// the superstep frame; a fresh vector constructed per invocation
/// silently reintroduces per-superstep allocation that the `zero_alloc`
/// gate then has to bisect.  The heuristic is paren-depth scoped:
/// everything from the call's opening parenthesis to its matching close
/// counts as closure territory.
fn no_alloc_in_parallel_for(m: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !(in_crate(&m.path, "par")
        || in_crate(&m.path, "bsp")
        || in_crate(&m.path, "graphct")
        || in_crate(&m.path, "stinger"))
    {
        return out;
    }
    let mut flagged: Vec<(usize, &'static str)> = Vec::new();
    for (i, line) in m.src.lines.iter().enumerate() {
        let toks = idents(&line.code);
        for (k, &(at, id)) in toks.iter().enumerate() {
            if !PARALLEL_ENTRY_POINTS.contains(&id)
                || next_nonspace(&line.code, at + id.len()) != Some('(')
            {
                continue;
            }
            // A definition (`pub fn parallel_for(...)`) is not a call.
            if k > 0 && toks[k - 1].1 == "fn" {
                continue;
            }
            scan_call_region(m, i, at + id.len(), &mut flagged);
        }
    }
    flagged.sort_unstable();
    flagged.dedup();
    for (line, what) in flagged {
        if m.in_test_code(line) {
            continue;
        }
        out.push(Diagnostic {
            rule: "no-alloc-in-parallel-for",
            severity: Severity::Warning,
            path: m.path.clone(),
            line: line + 1,
            message: format!(
                "{what} inside a parallel_for closure allocates per invocation; \
                 draw from per-worker scratch or the superstep frame instead \
                 (lint:allow(no-alloc-in-parallel-for) if intentional)"
            ),
        });
    }
    out
}

/// Walk the lines from a call's opening parenthesis to its matching
/// close, recording every `Vec::new` / `vec!` found in between.
fn scan_call_region(
    m: &FileModel,
    start_line: usize,
    from: usize,
    flagged: &mut Vec<(usize, &'static str)>,
) {
    let mut depth = 0i64;
    for li in start_line..m.src.lines.len() {
        let code = &m.src.lines[li].code;
        let lo = if li == start_line { from } else { 0 };
        let mut hi = code.len();
        for (ci, ch) in code.char_indices() {
            if ci < lo {
                continue;
            }
            match ch {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        hi = ci;
                        break;
                    }
                }
                _ => {}
            }
        }
        let seg = &code[lo..hi.max(lo)];
        for (at, _) in seg.match_indices("Vec::new") {
            // Reject `MyVec::new` (an identifier continuing to the left).
            let boundary = seg[..at]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
            if boundary {
                flagged.push((li, "`Vec::new()`"));
            }
        }
        for &(at, id) in &idents(seg) {
            if id == "vec" && next_nonspace(seg, at + 3) == Some('!') {
                flagged.push((li, "`vec![]`"));
            }
        }
        if depth == 0 && hi < code.len() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn check(rule: &str, path: &str, text: &str) -> Vec<Diagnostic> {
        let m = FileModel::parse(&PathBuf::from(path), text);
        let r = all_rules()
            .into_iter()
            .find(|r| r.name == rule)
            .expect("rule exists");
        (r.check)(&m)
    }

    #[test]
    fn unsafe_without_safety_is_flagged() {
        let d = check(
            "unsafe-needs-safety-comment",
            "crates/x/src/lib.rs",
            "fn f() {\n    unsafe { g() };\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_above_passes() {
        let d = check(
            "unsafe-needs-safety-comment",
            "crates/x/src/lib.rs",
            "fn f() {\n    // SAFETY: g is pure\n    unsafe { g() };\n}\n",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn unwrap_in_lib_is_flagged_but_unwrap_or_is_not() {
        let d = check(
            "no-panic-in-lib",
            "crates/x/src/lib.rs",
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0);\n    x.unwrap()\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn panics_in_tests_and_bins_pass() {
        assert!(check(
            "no-panic-in-lib",
            "crates/x/src/bin/tool.rs",
            "fn main() { x.unwrap(); }\n"
        )
        .is_empty());
        assert!(check(
            "no-panic-in-lib",
            "crates/x/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn relaxed_without_comment_is_flagged() {
        let d = check(
            "relaxed-ordering-justified",
            "crates/x/src/lib.rs",
            "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        assert_eq!(d.len(), 1);
        let ok = check(
            "relaxed-ordering-justified",
            "crates/x/src/lib.rs",
            "fn f(c: &AtomicU64) {\n    // monotonic counter, read after join\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn lock_unwrap_only_fires_in_scoped_crates() {
        let src = "fn f() {\n    let g = m.lock().unwrap();\n}\n";
        assert_eq!(
            check("no-lock-unwrap", "crates/service/src/x.rs", src).len(),
            1
        );
        assert_eq!(check("no-lock-unwrap", "crates/bsp/src/x.rs", src).len(), 1);
        assert!(check("no-lock-unwrap", "crates/graph/src/x.rs", src).is_empty());
    }

    #[test]
    fn alloc_inside_parallel_for_closure_is_flagged() {
        let src = "fn f() {\n    parallel_for(0, n, |i| {\n        let mut v = Vec::new();\n        v.push(i);\n    });\n}\n";
        let d = check("no-alloc-in-parallel-for", "crates/bsp/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
        assert_eq!(d[0].severity, Severity::Warning);
        // The kernel crates run the same hot loops, so they are in scope
        // too; code outside them is not this rule's business.
        assert_eq!(
            check("no-alloc-in-parallel-for", "crates/graphct/src/x.rs", src).len(),
            1
        );
        assert_eq!(
            check("no-alloc-in-parallel-for", "crates/par/src/x.rs", src).len(),
            1
        );
        assert!(check("no-alloc-in-parallel-for", "crates/model/src/x.rs", src).is_empty());
        // The streaming structures feed the same engines, so stinger's
        // hot loops are in scope as well.
        assert_eq!(
            check("no-alloc-in-parallel-for", "crates/stinger/src/x.rs", src).len(),
            1
        );
    }

    #[test]
    fn alloc_inside_executor_pfor_closure_is_flagged() {
        // The Executor seam's `pfor`/`pfor_chunked` wrappers are hot-path
        // entry points exactly like the free functions they dispatch to.
        let src = "fn f(exec: &Executor) {\n    exec.pfor(0, n, |w, r| {\n        let mut v = Vec::new();\n        v.extend(r);\n    });\n}\n";
        let d = check("no-alloc-in-parallel-for", "crates/graphct/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
        let src = "fn f(exec: &Executor) {\n    exec.pfor_chunked(0, n, 1, |w, r| {\n        let buf = vec![0u8; 4];\n    });\n}\n";
        let d = check("no-alloc-in-parallel-for", "crates/par/src/x.rs", src);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn vec_macro_inside_chunked_closure_is_flagged() {
        let src = "fn f() {\n    parallel_for_chunked(0, n, c, |w, range| {\n        let buf = vec![0u64; range.len()];\n    });\n}\n";
        let d = check("no-alloc-in-parallel-for", "crates/bsp/src/runtime.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn alloc_outside_the_call_region_passes() {
        // Before the call, after the call closes, and `MyVec::new` (a
        // different type) are all out of scope.
        let src = "fn f() {\n    let warm = Vec::new();\n    parallel_for(0, n, |i| {\n        let v = MyVec::new();\n    });\n    let after = vec![1];\n}\n";
        assert!(check("no-alloc-in-parallel-for", "crates/bsp/src/x.rs", src).is_empty());
    }

    #[test]
    fn parallel_for_definitions_and_test_code_pass() {
        assert!(check(
            "no-alloc-in-parallel-for",
            "crates/bsp/src/x.rs",
            "pub fn parallel_for(a: usize, b: usize) {\n    let v = Vec::new();\n}\n"
        )
        .is_empty());
        assert!(check(
            "no-alloc-in-parallel-for",
            "crates/bsp/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() {\n        parallel_for(0, n, |i| {\n            let v = Vec::new();\n        });\n    }\n}\n"
        )
        .is_empty());
    }
}
