//! `gdx-lint` — the workspace invariant checker.
//!
//! The engine's correctness contracts (byte-identical outputs across
//! worker counts, insertion-order-carrying data structures, poison-
//! recovering mutexes, unwrap-free library crates) live in
//! ARCHITECTURE.md prose and are guarded after the fact by the sim
//! oracles. This crate turns them into mechanical lints that fail CI
//! the moment a contract is broken, instead of costing a sim-campaign
//! debugging session later.
//!
//! # Rule catalog
//!
//! Determinism:
//! * `hash-iter` — iteration over a hash-ordered collection
//!   (`HashMap`/`HashSet`/`FxHashMap`/`FxHashSet`) in a library crate,
//!   unless the statement provably re-aggregates order-free (collects
//!   into another hash/BTree container, feeds an order-insensitive sink
//!   like `count`/`sum`/`min`/`max`/`any`/`all`, or the collected Vec is
//!   sorted within the next few lines). Hash order must never leak into
//!   outputs.
//! * `wall-clock` — `Instant::now`/`SystemTime::now` outside
//!   `cli`/`bench`/`sim` and gdx-obs's clock module (the one sanctioned
//!   wall-clock wrapper): library results must be functions of their
//!   inputs.
//! * `clock-inject` — constructing `MonotonicClock` in a library crate:
//!   time flows in through an injected `gdx_obs::Clock` (`&dyn Clock` /
//!   `Arc<dyn Clock>`); only entry points (cli/bench/sim) decide which
//!   clock runs, so library behaviour stays replayable.
//! * `thread-spawn` — `thread::spawn`/`thread::scope` outside
//!   `gdx-runtime`: all parallelism goes through the deterministic pool.
//!
//! Panic hygiene:
//! * `panic-macro` — `panic!`/`todo!`/`unimplemented!`/`dbg!` in
//!   non-test library code.
//! * `lock-unwrap` — `.lock().unwrap()` (and `read`/`write`/`try_*`
//!   variants): shared mutexes must recover from poisoning via
//!   `PoisonError::into_inner`, so one caught panic cannot condemn
//!   every later operation.
//! * `lock-scrutinee` — a `.lock()`/`.read()`/`.write()` guard (or a
//!   `try_` variant) created inside a `match`, `if let` or `while let`
//!   scrutinee. Temporaries of a scrutinee live to the end of the whole
//!   expression, so the guard stays held through every arm — the shape
//!   of the `par_chunks` deadlock, where the empty-deque arm locked a
//!   neighbour's deque while still holding its own. Bind the guarded
//!   value in a `let` first.
//! * `slice-index` — direct indexing `x[i]` in library code
//!   (warn-tier): prefer `get()` or a justified allow.
//!
//! Hygiene:
//! * `unsafe-code` — every `unsafe` token must carry a `// SAFETY:`
//!   comment just above it; all sites are inventoried in the report.
//! * `forbid-unsafe` — every crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * `deny-preamble` — every library crate root carries
//!   `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]`.
//! * `dep-shim` — no non-workspace dependency in any `Cargo.toml`
//!   without a vendored `shims/` entry (the build environment is
//!   offline).
//!
//! # Suppression
//!
//! Explicit and auditable only:
//!
//! ```text
//! // gdx-lint: allow(<rule>) — <reason>
//! ```
//!
//! trailing on the offending line or alone on the line above. The
//! reason is mandatory (`bad-allow` otherwise) and stale suppressions
//! fail the run (`unused-allow`), so the allow inventory can never
//! drift from the code.
//!
//! Test code — `tests/`, `benches/`, `examples/` trees and
//! `#[cfg(test)]`/`#[test]` items — is exempt from the source rules;
//! the `deny(clippy::unwrap_used)` preamble is deliberately
//! `not(test)`-gated for the same reason.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod manifest;
pub mod report;
pub mod source;
pub mod workspace;

pub use report::{render_json, render_text};
pub use workspace::{check_workspace, find_workspace_root};

/// Severity tier of a diagnostic. Only `Error` affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warn,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// The rule catalog. `UnusedAllow`/`BadAllow` police the suppression
/// mechanism itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    HashIter,
    WallClock,
    ClockInject,
    ThreadSpawn,
    PanicMacro,
    LockUnwrap,
    LockScrutinee,
    SliceIndex,
    UnsafeCode,
    ForbidUnsafe,
    DenyPreamble,
    DepShim,
    UnusedAllow,
    BadAllow,
}

/// Every rule, for catalog listings and sharpness coverage checks.
pub const ALL_RULES: &[Rule] = &[
    Rule::HashIter,
    Rule::WallClock,
    Rule::ClockInject,
    Rule::ThreadSpawn,
    Rule::PanicMacro,
    Rule::LockUnwrap,
    Rule::LockScrutinee,
    Rule::SliceIndex,
    Rule::UnsafeCode,
    Rule::ForbidUnsafe,
    Rule::DenyPreamble,
    Rule::DepShim,
    Rule::UnusedAllow,
    Rule::BadAllow,
];

impl Rule {
    /// Stable kebab-case id used in output and allow comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::ClockInject => "clock-inject",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::PanicMacro => "panic-macro",
            Rule::LockUnwrap => "lock-unwrap",
            Rule::LockScrutinee => "lock-scrutinee",
            Rule::SliceIndex => "slice-index",
            Rule::UnsafeCode => "unsafe-code",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::DenyPreamble => "deny-preamble",
            Rule::DepShim => "dep-shim",
            Rule::UnusedAllow => "unused-allow",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Inverse of [`Rule::id`]; `None` for unknown ids.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// `slice-index` is advisory; everything else fails the run.
    pub fn severity(self) -> Severity {
        match self {
            Rule::SliceIndex => Severity::Warn,
            _ => Severity::Error,
        }
    }
}

/// One finding: rule, tier, location, human message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    pub severity: Severity,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// One `unsafe` occurrence (annotated or not) for the inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub file: String,
    pub line: u32,
    /// Whether a `// SAFETY:` comment annotates the site.
    pub annotated: bool,
}

/// One parsed allow comment, with whether it suppressed anything.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub reason: String,
    pub used: bool,
}

/// Aggregated result of a workspace (or single-file) run.
#[derive(Debug, Default)]
pub struct Report {
    /// Sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    pub unsafe_inventory: Vec<UnsafeSite>,
    pub allows: Vec<AllowRecord>,
    pub files_checked: usize,
    pub crates_checked: usize,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Clean = no errors. Warn-tier findings never fail the run.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Canonical ordering for stable output.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.unsafe_inventory
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }
}

/// How a crate is classified for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateKind {
    /// Library contract applies in full (determinism + panic hygiene).
    Library,
    /// Front-end / harness crates (`gdx-cli`, `gdx-bench`, `gdx-lint`):
    /// may panic, print and take wall-clock time.
    Tool,
}

/// Requirements checked only on a crate's root file (`lib.rs` /
/// `main.rs`): `#![forbid(unsafe_code)]` always, the clippy deny
/// preamble when `require_preamble` (library crates).
#[derive(Debug, Clone, Copy)]
pub struct RootPolicy {
    pub require_preamble: bool,
}

/// Per-file lint context: which crate the file belongs to, and whether
/// this file is the crate root (attribute requirements apply there).
#[derive(Debug, Clone)]
pub struct FileCtx {
    pub crate_name: String,
    pub kind: CrateKind,
    pub root: Option<RootPolicy>,
    /// True only for gdx-obs's clock module — the one library file
    /// allowed to read the wall clock (it *is* the injected clock).
    pub clock_module: bool,
    /// True only for gdx-server's network module (`net.rs`) — the
    /// process edge that owns sockets, the accept/worker threads and
    /// the real clock it injects into everything behind it. The same
    /// shape of carve-out as `clock_module`: one named file, not a
    /// whole crate.
    pub net_module: bool,
}

impl FileCtx {
    pub fn library(name: &str) -> FileCtx {
        FileCtx {
            crate_name: name.to_owned(),
            kind: CrateKind::Library,
            root: None,
            clock_module: false,
            net_module: false,
        }
    }

    pub fn tool(name: &str) -> FileCtx {
        FileCtx {
            crate_name: name.to_owned(),
            kind: CrateKind::Tool,
            root: None,
            clock_module: false,
            net_module: false,
        }
    }

    /// Whether `rule` is checked for this crate. The exemption table is
    /// the contract: tools may use the clock and panic; only the
    /// runtime crate touches raw threads; the deterministic-sim crate
    /// is library-class except for the clock (campaign timing); the
    /// observability crate's clock module wraps the wall clock for
    /// everyone else and constructs what others must inject; the
    /// server crate's net module is the process edge that spawns the
    /// accept/worker threads and constructs the deadline clock it
    /// injects — every other server file stays under the full library
    /// contract.
    pub fn applies(&self, rule: Rule) -> bool {
        let lib = self.kind == CrateKind::Library;
        match rule {
            Rule::HashIter | Rule::PanicMacro | Rule::SliceIndex => lib,
            Rule::WallClock => {
                lib && self.crate_name != "gdx-sim" && !self.clock_module && !self.net_module
            }
            Rule::ClockInject => {
                lib && self.crate_name != "gdx-obs"
                    && self.crate_name != "gdx-sim"
                    && !self.net_module
            }
            Rule::ThreadSpawn => self.crate_name != "gdx-runtime" && !self.net_module,
            Rule::LockUnwrap | Rule::LockScrutinee | Rule::UnsafeCode => true,
            // Crate-root / manifest rules are not per-file.
            Rule::ForbidUnsafe | Rule::DenyPreamble | Rule::DepShim => false,
            Rule::UnusedAllow | Rule::BadAllow => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(Rule::from_id(r.id()), Some(r), "{r:?}");
        }
        assert_eq!(Rule::from_id("no-such-rule"), None);
    }

    #[test]
    fn applicability_table() {
        let lib = FileCtx::library("gdx-graph");
        let sim = FileCtx::library("gdx-sim");
        let runtime = FileCtx::library("gdx-runtime");
        let cli = FileCtx::tool("gdx-cli");
        let obs = FileCtx::library("gdx-obs");
        let mut clock = FileCtx::library("gdx-obs");
        clock.clock_module = true;
        let server = FileCtx::library("gdx-server");
        let mut net = FileCtx::library("gdx-server");
        net.net_module = true;
        assert!(lib.applies(Rule::HashIter));
        assert!(!cli.applies(Rule::HashIter));
        assert!(lib.applies(Rule::WallClock));
        assert!(!sim.applies(Rule::WallClock));
        assert!(obs.applies(Rule::WallClock), "obs outside clock.rs");
        assert!(!clock.applies(Rule::WallClock), "the clock module itself");
        assert!(lib.applies(Rule::ClockInject));
        assert!(!obs.applies(Rule::ClockInject));
        assert!(!sim.applies(Rule::ClockInject));
        assert!(!cli.applies(Rule::ClockInject));
        assert!(sim.applies(Rule::PanicMacro));
        assert!(lib.applies(Rule::ThreadSpawn));
        assert!(!runtime.applies(Rule::ThreadSpawn));
        assert!(cli.applies(Rule::ThreadSpawn));
        assert!(cli.applies(Rule::LockUnwrap));
        assert!(
            runtime.applies(Rule::LockScrutinee),
            "the pool's own deques"
        );
        assert!(cli.applies(Rule::LockScrutinee));
        // gdx-server is an ordinary library crate except for net.rs,
        // which owns threads and the real clock (the process edge).
        assert!(server.applies(Rule::ThreadSpawn));
        assert!(server.applies(Rule::ClockInject));
        assert!(server.applies(Rule::WallClock));
        assert!(!net.applies(Rule::ThreadSpawn), "net.rs spawns the pool");
        assert!(!net.applies(Rule::ClockInject), "net.rs builds the clock");
        assert!(!net.applies(Rule::WallClock), "net.rs owns socket timeouts");
        assert!(net.applies(Rule::PanicMacro), "panic hygiene still applies");
        assert!(net.applies(Rule::LockUnwrap));
    }

    #[test]
    fn only_slice_index_is_warn_tier() {
        for &r in ALL_RULES {
            let expect = if r == Rule::SliceIndex {
                Severity::Warn
            } else {
                Severity::Error
            };
            assert_eq!(r.severity(), expect, "{r:?}");
        }
    }
}
