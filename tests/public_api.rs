//! Committed snapshots, each diffed byte for byte so a change is always
//! a deliberate, reviewed diff:
//!
//! * the public API: the `pub` surface of the API crates (`gdx-exchange`,
//!   `gdx-query`, and — since the PR-6 versioning primitives —
//!   `gdx-graph`), extracted from their sources as an item list;
//! * the work counters of the Example 2.2 certain-answer session: its
//!   metrics registry, rendered as JSON.
//!
//! Regenerate both after an intentional change with
//! `UPDATE_API_SNAPSHOT=1 cargo test --test public_api`.

use gdx::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const API_SNAPSHOT: &str = "tests/snapshots/public_api.txt";
const METRICS_SNAPSHOT: &str = "tests/snapshots/metrics_example_2_2.json";
const CRATES: &[&str] = &["crates/core/src", "crates/query/src", "crates/graph/src"];

/// `pub` item declarations of one file, in source order: one normalized
/// line each. `pub(crate)`/`pub(super)` items are internal and excluded;
/// `#[cfg(test)]` modules are skipped wholesale.
fn extract_items(path: &Path) -> Vec<String> {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let mut items = Vec::new();
    let mut in_tests = false;
    let mut test_depth = 0usize;
    for line in src.lines() {
        let trimmed = line.trim();
        if in_tests {
            test_depth += trimmed.matches('{').count();
            test_depth = test_depth.saturating_sub(trimmed.matches('}').count());
            if test_depth == 0 {
                in_tests = false;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            in_tests = true;
            test_depth = 0;
            continue;
        }
        let is_pub_item = trimmed.starts_with("pub ")
            && [
                "pub fn ",
                "pub struct ",
                "pub enum ",
                "pub trait ",
                "pub type ",
                "pub mod ",
                "pub const ",
                "pub use ",
                "pub static ",
            ]
            .iter()
            .any(|prefix| trimmed.starts_with(prefix));
        if is_pub_item {
            // First line of the declaration, without the body/terminator.
            let cut = trimmed.find(['{', ';']).unwrap_or(trimmed.len());
            let decl = trimmed[..cut].trim_end().to_owned();
            items.push(decl);
        }
    }
    items
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read dir {dir:?}: {e}"))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn current_surface() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = String::new();
    for dir in CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        for file in files {
            let items = extract_items(&file);
            if items.is_empty() {
                continue;
            }
            let rel = file
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            let _ = writeln!(out, "# {rel}");
            for item in items {
                let _ = writeln!(out, "{item}");
            }
        }
    }
    out
}

/// Compares `current` with the committed snapshot at `rel` (relative to
/// the repository root), or rewrites the snapshot when
/// `UPDATE_API_SNAPSHOT` is set.
fn check_snapshot(rel: &str, current: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var("UPDATE_API_SNAPSHOT").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {rel} ({e}); run \
             `UPDATE_API_SNAPSHOT=1 cargo test --test public_api` and commit it"
        )
    });
    if committed != current {
        let committed_lines: Vec<&str> = committed.lines().collect();
        let current_lines: Vec<&str> = current.lines().collect();
        let mut diff = String::new();
        for l in &current_lines {
            if !committed_lines.contains(l) {
                let _ = writeln!(diff, "+ {l}");
            }
        }
        for l in &committed_lines {
            if !current_lines.contains(l) {
                let _ = writeln!(diff, "- {l}");
            }
        }
        panic!(
            "{rel} changed; if intentional, regenerate with \
             `UPDATE_API_SNAPSHOT=1 cargo test --test public_api` and commit.\n\
             Diff vs snapshot:\n{diff}"
        );
    }
}

#[test]
fn public_surface_matches_snapshot() {
    check_snapshot(API_SNAPSHOT, &current_surface());
}

/// One fully instrumented run of the Example 2.2 session: chase,
/// candidate verification and the paper query's certain answers, with
/// metrics recording on. One worker and the no-op clock of
/// [`Obs::enabled`] keep scheduling-shaped counters and wall-clock
/// histograms out of the dump, so it is byte-stable on every host; a
/// drift in a counter is a change in what the engine does, not noise.
#[test]
fn example_2_2_metrics_match_snapshot() {
    let obs = Obs::enabled();
    let mut session = ExchangeSession::new(Setting::example_2_2_egd(), Instance::example_2_2())
        .with_options(Options::default().with_threads(Threads::Fixed(1)))
        .with_obs(obs.clone());
    let query = PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
    let (rows, _exact) = session.certain_answers(&query).unwrap();
    assert_eq!(rows.len(), 4);
    check_snapshot(METRICS_SNAPSHOT, &obs.render_metrics_json());
}
