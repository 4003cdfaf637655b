//! `ustream-lint` — repo-specific static analysis for the
//! uncertain-streams workspace.
//!
//! The engine's correctness rests on invariants the Rust compiler cannot
//! see: panic-free hot paths (a worker panic costs the in-flight record),
//! NaN-total float ordering (a NaN must never win or wedge a nearest-
//! cluster scan), justified relaxed atomics (progress counters cross
//! threads), and deterministic iteration on everything that reaches a
//! report, checkpoint, or BENCH artifact. This crate enforces them with an
//! in-house lexer ([`lexer`]) and a rule engine ([`rules`]) — no external
//! parser dependencies, consistent with the workspace's vendored-only
//! policy.
//!
//! Entry points:
//!
//! * [`lint_workspace`] — walk every workspace `.rs` file and run all
//!   rules (what `cargo lint` and `tests/lint_clean.rs` use),
//! * [`lint_paths`] — lint explicit files/directories (used to assert the
//!   seeded fixtures *do* fire),
//! * [`analyze_sources`] — pure in-memory analysis for unit tests.

#![forbid(unsafe_code)]

pub mod cache;
pub mod context;
pub mod diag;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod tree;

pub use context::FileCtx;
pub use diag::{render_json, render_json_with_stats, render_report, Finding};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timing and cache counters for one lint run, reported in
/// `--format json` so CI can watch lint cost over time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Files analyzed.
    pub files: usize,
    /// Rules the engine ran (length of [`rules::RULE_IDS`]).
    pub rules: usize,
    /// Findings after suppression filtering.
    pub findings: usize,
    /// Milliseconds spent lexing (cache misses only).
    pub lex_ms: u128,
    /// Milliseconds spent in rule analysis.
    pub analyze_ms: u128,
    /// Token streams served from the on-disk cache.
    pub cache_hits: usize,
    /// Token streams lexed fresh (and cached when possible).
    pub cache_misses: usize,
}

/// Directories never linted: build output, vendored stand-ins, VCS
/// metadata, and the deliberately-violating rule fixtures.
const EXCLUDED_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Analyzes in-memory `(path, source)` pairs. Paths are only used for
/// scoping (crate detection, test classification) and diagnostics.
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Finding> {
    let ctxs: Vec<FileCtx> = files.iter().map(|(p, src)| FileCtx::new(p, src)).collect();
    rules::run_all(&ctxs)
}

/// Lints every `.rs` file under `root` except the excluded directories
/// (`target`, `vendor`, `.git`, `fixtures` and hidden ones).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint_workspace_with_stats(root)?.0)
}

/// [`lint_workspace`] plus run statistics.
pub fn lint_workspace_with_stats(root: &Path) -> io::Result<(Vec<Finding>, RunStats)> {
    let mut files = Vec::new();
    collect_rs_files(root, true, &mut files)?;
    files.sort();
    run(root, &files, rules::run_all)
}

/// Lints explicit `paths` (files or directories, recursive) relative to
/// `root`. Exclusions are *not* applied — this is how the seeded fixture
/// files are linted on purpose.
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> io::Result<Vec<Finding>> {
    Ok(lint_paths_with_stats(root, paths)?.0)
}

/// [`lint_paths`] plus run statistics.
pub fn lint_paths_with_stats(
    root: &Path,
    paths: &[PathBuf],
) -> io::Result<(Vec<Finding>, RunStats)> {
    let mut files = Vec::new();
    for p in paths {
        let abs = if p.is_absolute() {
            p.clone()
        } else {
            root.join(p)
        };
        if abs.is_dir() {
            collect_rs_files(&abs, false, &mut files)?;
        } else {
            files.push(abs);
        }
    }
    files.sort();
    run(root, &files, rules::run_all)
}

/// Runs the `--stale-allows` audit over the whole workspace: reports
/// every suppression annotation whose target line no longer produces the
/// finding it excuses.
pub fn stale_allows_workspace(root: &Path) -> io::Result<(Vec<Finding>, RunStats)> {
    let mut files = Vec::new();
    collect_rs_files(root, true, &mut files)?;
    files.sort();
    run(root, &files, rules::stale_allows)
}

/// Finds the workspace root by walking up from `start` to the first
/// directory holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

fn collect_rs_files(dir: &Path, apply_exclusions: bool, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if apply_exclusions && (EXCLUDED_DIRS.contains(&name.as_ref()) || name.starts_with('.'))
            {
                continue;
            }
            collect_rs_files(&path, apply_exclusions, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads every file (token cache engaged when `<root>/target` exists),
/// builds contexts, and applies `analysis` with timing/cache counters.
fn run(
    root: &Path,
    files: &[PathBuf],
    analysis: fn(&[FileCtx]) -> Vec<Finding>,
) -> io::Result<(Vec<Finding>, RunStats)> {
    let cache_dir = cache::cache_dir(root);
    let mut stats = RunStats {
        rules: rules::RULE_IDS.len(),
        ..RunStats::default()
    };
    let mut ctxs = Vec::with_capacity(files.len());
    let mut lex_time = std::time::Duration::ZERO;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(f)?;
        let key = cache_dir.as_deref().and_then(|_| cache::FileKey::of(f));
        let cached = match (&cache_dir, key) {
            (Some(dir), Some(k)) => cache::load(dir, &rel, k),
            _ => None,
        };
        let ctx = match cached {
            Some(tokens) => {
                stats.cache_hits += 1;
                FileCtx::from_tokens(&rel, &text, tokens)
            }
            None => {
                stats.cache_misses += 1;
                let t0 = Instant::now();
                let ctx = FileCtx::new(&rel, &text);
                lex_time += t0.elapsed();
                if let (Some(dir), Some(k)) = (&cache_dir, key) {
                    cache::store(dir, &rel, k, &ctx.tokens);
                }
                ctx
            }
        };
        ctxs.push(ctx);
    }
    stats.files = ctxs.len();
    stats.lex_ms = lex_time.as_millis();
    let t0 = Instant::now();
    let findings = analysis(&ctxs);
    stats.analyze_ms = t0.elapsed().as_millis();
    stats.findings = findings.len();
    Ok((findings, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(path: &str, src: &str) -> Vec<Finding> {
        analyze_sources(&[(path.to_string(), src.to_string())])
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ---- R1 hot-panic -------------------------------------------------

    #[test]
    fn hot_panic_fires_in_hot_crate_non_test() {
        let f = findings_for(
            "crates/core/src/x.rs",
            "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n",
        );
        assert_eq!(rules_of(&f), vec!["hot-panic"]);
        assert_eq!((f[0].line, f[0].col), (1, 31));
    }

    #[test]
    fn hot_panic_covers_expect_panic_and_literal_index() {
        let src = "fn f(v: &[u8]) -> u8 {\n    let a = v[0];\n    panic!(\"boom\");\n}\n";
        let f = findings_for("crates/engine/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["hot-panic", "hot-panic"]);
    }

    #[test]
    fn hot_panic_ignores_tests_and_cold_crates() {
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f(o: Option<u8>) { o.unwrap(); }\n}\n";
        assert!(findings_for("crates/core/src/x.rs", in_test).is_empty());
        let cold = "fn f(o: Option<u8>) { o.unwrap(); }\n";
        assert!(findings_for("crates/synth/src/x.rs", cold).is_empty());
        assert!(findings_for("tests/x.rs", cold).is_empty());
    }

    #[test]
    fn hot_panic_ignores_failpoint_items() {
        let src = "#[cfg(feature = \"failpoints\")]\nfn inject() {\n    panic!(\"boom\");\n}\n";
        assert!(findings_for("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn hot_panic_suppression_with_reason() {
        let src = "fn f(v: &[u8; 4]) -> u8 {\n    // lint:allow(hot-panic): fixed-size array, index in bounds\n    v[0]\n}\n";
        assert!(findings_for("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hot_panic_not_fooled_by_strings_or_comments() {
        let src = "fn f() {\n    // calls .unwrap() somewhere\n    let s = \"x.unwrap()\";\n    let _ = s;\n}\n";
        assert!(findings_for("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap_or(0) }\n";
        assert!(findings_for("crates/core/src/x.rs", src).is_empty());
    }

    // ---- R2 float-eq --------------------------------------------------

    #[test]
    fn float_eq_fires_on_literal_comparison() {
        let f = findings_for(
            "crates/eval/src/x.rs",
            "fn f(x: f64) -> bool { x == 1.0 }\n",
        );
        assert_eq!(rules_of(&f), vec!["float-eq"]);
        let f = findings_for("tests/x.rs", "fn f(x: f64) -> bool { 0.5 != x }\n");
        assert_eq!(rules_of(&f), vec!["float-eq"]);
    }

    #[test]
    fn float_eq_ignores_int_comparison_and_strings() {
        assert!(
            findings_for("crates/eval/src/x.rs", "fn f(x: u8) -> bool { x == 1 }\n").is_empty()
        );
        assert!(findings_for(
            "crates/eval/src/x.rs",
            "fn f() -> &'static str { \"x == 1.0\" }\n"
        )
        .is_empty());
    }

    #[test]
    fn float_eq_suppressible() {
        let src = "fn f(x: f64) -> bool {\n    // lint:allow(float-eq): sentinel assigned verbatim, never computed\n    x == -1.0\n}\n";
        assert!(findings_for("crates/eval/src/x.rs", src).is_empty());
    }

    // ---- R3 nan-ord ---------------------------------------------------

    #[test]
    fn nan_ord_fires_on_partial_cmp_unwrap() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let f = findings_for("crates/eval/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["nan-ord"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn nan_ord_fires_on_unwrap_or_equal_comparator() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n}\n";
        let f = findings_for("crates/eval/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["nan-ord"]);
    }

    #[test]
    fn nan_ord_accepts_total_cmp() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n";
        assert!(findings_for("crates/eval/src/x.rs", src).is_empty());
    }

    // ---- R4 relaxed-atomic --------------------------------------------

    #[test]
    fn relaxed_fires_without_justification() {
        let src =
            "fn f(c: &std::sync::atomic::AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let f = findings_for("crates/engine/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["relaxed-atomic"]);
    }

    #[test]
    fn relaxed_ok_same_line_and_above() {
        let same =
            "fn f(c: &A) { c.fetch_add(1, Ordering::Relaxed); } // relaxed-ok: monotone counter\n";
        assert!(findings_for("crates/engine/src/x.rs", same).is_empty());
        let above = "fn f(c: &A) {\n    // relaxed-ok: stats counter, no ordering dependency\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(findings_for("crates/engine/src/x.rs", above).is_empty());
    }

    #[test]
    fn relaxed_ok_requires_a_reason() {
        let src = "fn f(c: &A) {\n    // relaxed-ok:\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let f = findings_for("crates/engine/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["relaxed-atomic"]);
    }

    // ---- R5 nondet-iter -----------------------------------------------

    #[test]
    fn nondet_iter_fires_on_serialization_surface() {
        let src = "use std::collections::HashMap;\n";
        let f = findings_for("crates/engine/src/report.rs", src);
        assert_eq!(rules_of(&f), vec!["nondet-iter"]);
        let f = findings_for("crates/bench/src/bin/fig_x.rs", src);
        assert_eq!(rules_of(&f), vec!["nondet-iter"]);
    }

    #[test]
    fn nondet_iter_silent_elsewhere() {
        let src = "use std::collections::HashMap;\n";
        assert!(findings_for("crates/engine/src/engine.rs", src).is_empty());
    }

    // ---- R6 no-sleep --------------------------------------------------

    #[test]
    fn no_sleep_fires_in_prod_code() {
        let src = "fn f() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n";
        let f = findings_for("crates/engine/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["no-sleep"]);
    }

    #[test]
    fn no_sleep_exempts_tests_benches_failpoints() {
        let src = "fn f() { std::thread::sleep(d()); }\n";
        assert!(findings_for("tests/x.rs", src).is_empty());
        assert!(findings_for("crates/bench/benches/x.rs", src).is_empty());
        assert!(findings_for("crates/engine/src/failpoints.rs", src).is_empty());
        let gated = "#[cfg(feature = \"failpoints\")]\nfn f() { std::thread::sleep(d()); }\n";
        assert!(findings_for("crates/engine/src/x.rs", gated).is_empty());
    }

    #[test]
    fn no_sleep_suppressible_with_reason() {
        let src = "fn f() {\n    // lint:allow(no-sleep): watchdog poll cadence, config-bounded\n    std::thread::sleep(poll);\n}\n";
        assert!(findings_for("crates/engine/src/x.rs", src).is_empty());
    }

    // ---- R7 lossy-cast ------------------------------------------------

    #[test]
    fn lossy_cast_fires_in_scoped_files_only() {
        let src = "fn f(n: u64) -> f64 { n as f64 }\n";
        let f = findings_for("crates/core/src/ecf.rs", src);
        assert_eq!(rules_of(&f), vec!["lossy-cast"]);
        assert!(findings_for("crates/core/src/config.rs", src).is_empty());
    }

    #[test]
    fn lossy_cast_ignores_non_numeric_as() {
        let src = "use std::fmt::Debug as D;\nfn f(x: &dyn D) -> &dyn D { x }\n";
        assert!(findings_for("crates/core/src/ecf.rs", src).is_empty());
    }

    #[test]
    fn lossy_cast_suppressible_with_range_proof() {
        let src = "fn f(dt: u64) -> f64 {\n    // lint:allow(lossy-cast): tick deltas < 2^53, exact in f64\n    dt as f64\n}\n";
        assert!(findings_for("crates/core/src/ecf.rs", src).is_empty());
    }

    // ---- R8 missing-docs ----------------------------------------------

    #[test]
    fn missing_docs_fires_on_undocumented_pub() {
        let f = findings_for("crates/core/src/x.rs", "pub fn frob() {}\n");
        assert_eq!(rules_of(&f), vec!["missing-docs"]);
        assert!(f[0].message.contains("frob"));
    }

    #[test]
    fn missing_docs_accepts_doc_comment_and_attrs_between() {
        let src = "/// Frobnicates.\n#[inline]\npub fn frob() {}\n";
        assert!(findings_for("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn missing_docs_skips_restricted_visibility_and_cold_crates() {
        assert!(findings_for("crates/core/src/x.rs", "pub(crate) fn f() {}\n").is_empty());
        assert!(findings_for("crates/eval/src/x.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn missing_docs_mod_satisfied_by_inner_docs() {
        let files = [
            (
                "crates/core/src/lib.rs".to_string(),
                "//! Crate docs.\npub mod ecf;\npub mod bare;\n".to_string(),
            ),
            (
                "crates/core/src/ecf.rs".to_string(),
                "//! Module docs.\n".to_string(),
            ),
            (
                "crates/core/src/bare.rs".to_string(),
                "fn private() {}\n".to_string(),
            ),
        ];
        let f = analyze_sources(&files);
        assert_eq!(rules_of(&f), vec!["missing-docs"]);
        assert!(f[0].message.contains("bare"));
    }

    // ---- S0 suppression hygiene ---------------------------------------

    #[test]
    fn reasonless_suppression_is_reported_and_inert() {
        let src = "fn f(o: Option<u8>) {\n    // lint:allow(hot-panic)\n    o.unwrap();\n}\n";
        let f = findings_for("crates/core/src/x.rs", src);
        let mut rules = rules_of(&f);
        rules.sort_unstable();
        assert_eq!(rules, vec!["hot-panic", "suppression"]);
    }

    #[test]
    fn unknown_rule_id_is_reported() {
        let src = "// lint:allow(no-such-rule): because\nfn f() {}\n";
        let f = findings_for("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["suppression"]);
    }

    // ---- output ordering ----------------------------------------------

    #[test]
    fn findings_are_sorted_and_deterministic() {
        let files = [
            (
                "crates/core/src/b.rs".to_string(),
                "pub fn undoc() {}\n".to_string(),
            ),
            (
                "crates/core/src/a.rs".to_string(),
                "fn f(o: Option<u8>) { o.unwrap(); }\n".to_string(),
            ),
        ];
        let f = analyze_sources(&files);
        let paths: Vec<_> = f.iter().map(|x| x.path.as_str()).collect();
        assert_eq!(paths, vec!["crates/core/src/a.rs", "crates/core/src/b.rs"]);
        assert_eq!(analyze_sources(&files), f);
    }
}
