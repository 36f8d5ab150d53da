//! Fixture sharpness harness.
//!
//! Every file under `fixtures/violations/` carries `gdx-lint:
//! expect(<rule>)` markers; the linter must fire *exactly* at the
//! marked (rule, line) pairs — nothing missing, nothing extra. The
//! `fixtures/clean/` twins must produce zero diagnostics. Root and
//! manifest fixtures are asserted by dedicated tests (their findings
//! anchor to line 1 / manifest lines, where in-file markers cannot
//! point). Finally, a coverage test proves the corpus exercises the
//! whole rule catalog — a new rule without a fixture fails here.

use gdx_lint::source::lint_source;
use gdx_lint::{FileCtx, Rule, Severity, ALL_RULES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(sub)
}

fn read(sub: &str) -> String {
    let path = fixture(sub);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// `(rule-id, line)` pairs declared by `expect(...)` markers. A marker
/// trailing code targets its own line; a standalone comment line
/// targets the next line.
fn expected_sites(text: &str) -> BTreeSet<(String, u32)> {
    let mut out = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let Some(pos) = line.find("gdx-lint: expect(") else {
            continue;
        };
        let rest = &line[pos + "gdx-lint: expect(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let before_comment = &line[..line.find("//").unwrap_or(pos)];
        let target = if before_comment.trim().is_empty() {
            i as u32 + 2
        } else {
            i as u32 + 1
        };
        out.insert((rest[..close].to_owned(), target));
    }
    out
}

fn fired_sites(file: &str, text: &str) -> BTreeSet<(String, u32)> {
    let ctx = FileCtx::library("fixture");
    lint_source(file, text, &ctx)
        .diagnostics
        .into_iter()
        .map(|d| (d.rule.id().to_owned(), d.line))
        .collect()
}

const VIOLATION_FIXTURES: &[&str] = &[
    "violations/hash_iter.rs",
    "violations/wall_clock.rs",
    "violations/clock_inject.rs",
    "violations/thread_spawn.rs",
    "violations/panic_macro.rs",
    "violations/lock_unwrap.rs",
    "violations/lock_scrutinee.rs",
    "violations/slice_index.rs",
    "violations/unsafe_code.rs",
    "violations/allows.rs",
];

const CLEAN_FIXTURES: &[&str] = &[
    "clean/hash_iter.rs",
    "clean/wall_clock.rs",
    "clean/clock_inject.rs",
    "clean/thread_spawn.rs",
    "clean/panic_macro.rs",
    "clean/lock_unwrap.rs",
    "clean/lock_scrutinee.rs",
    "clean/slice_index.rs",
];

#[test]
fn violations_fire_exactly_where_annotated() {
    for sub in VIOLATION_FIXTURES {
        let text = read(sub);
        let expected = expected_sites(&text);
        assert!(
            !expected.is_empty(),
            "{sub}: fixture carries no expect() markers"
        );
        let fired = fired_sites(sub, &text);
        assert_eq!(fired, expected, "{sub}: fired (left) != annotated (right)");
    }
}

#[test]
fn clean_twins_are_silent() {
    for sub in CLEAN_FIXTURES {
        let text = read(sub);
        let fired = fired_sites(sub, &text);
        assert!(fired.is_empty(), "{sub}: unexpected findings: {fired:?}");
    }
}

#[test]
fn unsafe_sites_are_inventoried_with_annotation_state() {
    let text = read("violations/unsafe_code.rs");
    let out = lint_source(
        "violations/unsafe_code.rs",
        &text,
        &FileCtx::library("fixture"),
    );
    assert_eq!(out.unsafe_sites.len(), 2, "both blocks inventoried");
    let annotated: Vec<bool> = out.unsafe_sites.iter().map(|u| u.annotated).collect();
    assert_eq!(annotated.iter().filter(|&&a| a).count(), 1);
}

#[test]
fn used_allow_suppresses_and_is_recorded() {
    let text = read("violations/hash_iter.rs");
    let out = lint_source(
        "violations/hash_iter.rs",
        &text,
        &FileCtx::library("fixture"),
    );
    let allows: Vec<_> = out
        .allows
        .iter()
        .filter(|a| a.rule == Rule::HashIter)
        .collect();
    assert_eq!(allows.len(), 1);
    assert!(
        allows[0].used,
        "the allowed for-loop must consume the allow"
    );
    assert!(allows[0].reason.contains("commutative"));
}

/// The `net_module` carve-out admits exactly the server's process
/// edge: under the net.rs context the thread/clock fixtures go silent,
/// while any other gdx-server file keeps the full library contract.
#[test]
fn net_module_carve_out_is_per_file_not_per_crate() {
    let mut net = FileCtx::library("gdx-server");
    net.net_module = true;
    for sub in [
        "violations/thread_spawn.rs",
        "violations/clock_inject.rs",
        "violations/wall_clock.rs",
    ] {
        let text = read(sub);
        let fired = lint_source(sub, &text, &net).diagnostics;
        assert!(fired.is_empty(), "{sub} under net.rs ctx: {fired:?}");
        let plain = FileCtx::library("gdx-server");
        let fired = lint_source(sub, &text, &plain).diagnostics;
        assert!(
            !fired.is_empty(),
            "{sub}: the rest of gdx-server must stay covered"
        );
    }
    // Panic hygiene is not part of the carve-out.
    let text = read("violations/panic_macro.rs");
    let fired = lint_source("violations/panic_macro.rs", &text, &net).diagnostics;
    assert!(!fired.is_empty(), "panic-macro still applies in net.rs");
}

#[test]
fn bad_root_is_missing_both_attributes() {
    let text = read("roots/bad_root.rs");
    let mut ctx = FileCtx::library("fixture");
    ctx.root = Some(gdx_lint::RootPolicy {
        require_preamble: true,
    });
    let fired = lint_source("roots/bad_root.rs", &text, &ctx)
        .diagnostics
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect::<BTreeSet<_>>();
    let expected: BTreeSet<(Rule, u32)> = [(Rule::ForbidUnsafe, 1), (Rule::DenyPreamble, 1)].into();
    assert_eq!(fired, expected);
}

#[test]
fn good_root_is_silent() {
    let text = read("roots/good_root.rs");
    let mut ctx = FileCtx::library("fixture");
    ctx.root = Some(gdx_lint::RootPolicy {
        require_preamble: true,
    });
    let out = lint_source("roots/good_root.rs", &text, &ctx);
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
}

#[test]
fn external_deps_without_shims_fire() {
    let text = read("manifests/external.toml");
    let diags = gdx_lint::manifest::lint_manifest("manifests/external.toml", &text, &|_| false);
    let names: Vec<&str> = diags
        .iter()
        .map(|d| {
            assert_eq!(d.rule, Rule::DepShim);
            d.message.split('`').nth(1).unwrap_or("")
        })
        .collect();
    assert_eq!(names, ["serde", "libc"], "{diags:?}");
}

#[test]
fn shimmed_and_workspace_deps_are_silent() {
    let text = read("manifests/shimmed.toml");
    let diags =
        gdx_lint::manifest::lint_manifest("manifests/shimmed.toml", &text, &|n| n == "criterion");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn slice_index_is_the_only_warn_tier_rule() {
    for &r in ALL_RULES {
        assert_eq!(
            r.severity() == Severity::Warn,
            r == Rule::SliceIndex,
            "{r:?}"
        );
    }
}

/// The corpus must exercise every rule in the catalog: token-anchored
/// rules via expect markers, file/manifest-anchored rules via the
/// dedicated tests above.
#[test]
fn fixture_corpus_covers_the_whole_catalog() {
    let mut covered: BTreeSet<String> = VIOLATION_FIXTURES
        .iter()
        .flat_map(|sub| expected_sites(&read(sub)))
        .map(|(rule, _)| rule)
        .collect();
    // Anchored to line 1 / manifest lines — asserted by dedicated tests.
    for extra in ["forbid-unsafe", "deny-preamble", "dep-shim"] {
        covered.insert(extra.to_owned());
    }
    let catalog: BTreeSet<String> = ALL_RULES.iter().map(|r| r.id().to_owned()).collect();
    assert_eq!(covered, catalog, "fixture corpus out of sync with catalog");
}
