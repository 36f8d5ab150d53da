//! `perfbench` — one seeded benchmark of gdx, driven only through its
//! shipped entry points: the `gdx` CLI (one process per job) and `gdx
//! serve` over HTTP.
//!
//! ```text
//! perfbench --gdx PATH --workload paper_cli|serve_warm|serve_churn
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The workloads, the metrics and which layer metric should move which
//! end-to-end metric are described in `perfbench/README.md`. The last line
//! of standard output is the result object; the line before it records
//! the run (seed, CPU count, source revision, sample counts).
//!
//! `--trace 0` measures one untraced pass of `--seconds` and reports the
//! end-to-end metrics. `--trace 1` splits the time into an untraced and a
//! traced half, records spans around the calls into each layer, writes
//! them to `.bench_out/`, and reports the per-layer metrics, the tracing
//! overhead (traced minus untraced latency) among them.

mod cli_load;
mod client;
mod inputs;
mod replay;
mod serve_load;
mod sys;
mod trace;

use gdx_common::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

/// Setups made per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Slices of a run whose p99s the reported p99 is the median of.
const SLICES: usize = 5;

/// The per-layer metrics every traced run reports, with their units. A
/// layer that a workload's operations never enter reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("cli.overhead_ms", "ms"),
    ("parse.ms", "ms"),
    ("chase.st_ms", "ms"),
    ("chase.egd_ms", "ms"),
    ("chase.egd_merges", "count"),
    ("chase.firings", "count"),
    ("enum.ms", "ms"),
    ("enum.chase_ms", "ms"),
    ("enum.verify_ms", "ms"),
    ("enum.candidates", "count"),
    ("enum.yield", "ratio"),
    ("eval.ms", "ms"),
    ("session.eval_ms", "ms"),
    ("eval.demand_visited", "count"),
    ("runtime.par_scopes", "count"),
    ("runtime.steals", "count"),
    ("runtime.tasks", "count"),
    ("runtime.stalls", "count"),
    ("http.parse_us", "us"),
    ("serialize.us", "us"),
    ("net.wait_ms", "ms"),
    ("server.handler_ms.certain", "ms"),
    ("server.handler_ms.certain_answers", "ms"),
    ("server.handler_ms.is_solution", "ms"),
    ("server.handler_ms.solutions", "ms"),
    ("pool.hit_ratio", "ratio"),
    ("pool.evictions_per_kreq", "count"),
    ("session.freeze_ms", "ms"),
    ("session.chase_ms", "ms"),
    ("session.verify_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer values measured by one traced pass, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCli,
    ServeWarm,
    ServeChurn,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        match name {
            "paper_cli" => Some(Workload::PaperCli),
            "serve_warm" => Some(Workload::ServeWarm),
            "serve_churn" => Some(Workload::ServeChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperCli => "paper_cli",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeChurn => "serve_churn",
        }
    }
}

/// Command-line configuration of one run.
pub struct Config {
    pub gdx: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for generated inputs, inside the checkout.
    pub work_dir: PathBuf,
}

/// One measured pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of every attempted operation (a timed-out one counts with
    /// the time it was given).
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Wrong answers, non-200 statuses, non-zero exits and timeouts.
    pub failed: u64,
    /// Failures that were wrong answers.
    pub wrong: u64,
    /// Operations killed or abandoned after their timeout.
    pub stalls: u64,
    pub wall_s: f64,
    /// CPU time of the system under test over the pass.
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    /// A named error that ended the pass early (partial counts kept).
    pub aborted: Option<String>,
}

impl Pass {
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
    }
}

/// A workload after setup: it can run measured passes.
pub trait Fixture {
    /// One closed-loop pass of `seconds`, without tracing.
    fn pass(&mut self, seconds: f64) -> Pass;
    /// One pass of `seconds` with spans recorded into `trace`, plus the
    /// per-layer values it measured.
    fn traced_pass(&mut self, seconds: f64, trace: &mut Trace) -> (Pass, Layers);
    /// Facts about the inputs worth recording with the run.
    fn info(&self) -> Vec<(&'static str, Json)>;
}

fn setup(cfg: &Config) -> Result<Box<dyn Fixture>, String> {
    match cfg.workload {
        Workload::PaperCli => Ok(Box::new(cli_load::setup(cfg)?)),
        Workload::ServeWarm | Workload::ServeChurn => Ok(Box::new(serve_load::setup(cfg)?)),
    }
}

/// Linear-interpolated percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

fn metric(value: f64, unit: &str) -> Json {
    json::obj(vec![
        ("value", Json::Number(value)),
        ("unit", json::s(unit)),
    ])
}

/// A tail percentile as the median, over `SLICES` consecutive equal
/// slices of the run's operations, of each slice's percentile. A run of
/// `paper_cli` holds about a hundred jobs, where the whole-run p99 is
/// set by the one or two slowest samples; sliced, a burst of host noise
/// or a stall moves one slice, not the reported value.
fn sliced_percentile(latencies: &[f64], p: f64) -> f64 {
    let per_slice = latencies.len().div_ceil(SLICES).max(1);
    let slices: Vec<f64> = latencies
        .chunks(per_slice)
        .map(|chunk| {
            let mut sorted = chunk.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, p)
        })
        .collect();
    median(&slices)
}

fn end_to_end(pass: &Pass, setup_s: f64) -> Vec<(&'static str, Json)> {
    let mut sorted = pass.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let ok = pass.attempted - pass.failed;
    let wall = pass.wall_s.max(1e-9);
    let attempted = pass.attempted.max(1) as f64;
    vec![
        ("throughput_ops_s", metric(ok as f64 / wall, "ops/s")),
        ("latency_p50_ms", metric(percentile(&sorted, 50.0), "ms")),
        ("latency_p90_ms", metric(percentile(&sorted, 90.0), "ms")),
        (
            "latency_p99_ms",
            metric(sliced_percentile(&pass.latencies_ms, 99.0), "ms"),
        ),
        ("success_rate", metric(ok as f64 / attempted, "ratio")),
        ("cpu_ms_per_op", metric(pass.cpu_ms / attempted, "ms")),
        ("peak_rss_mb", metric(pass.peak_rss_mb, "MB")),
        ("setup_s", metric(setup_s, "s")),
    ]
}

fn parse_args(argv: &[String]) -> Result<Config, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_owned())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let seed: u64 = get("seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer".to_owned())?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let workload =
        Workload::from_name(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let work_dir = PathBuf::from(".bench_out").join(format!(
        "{}-s{seed}-p{}",
        workload.name(),
        std::process::id()
    ));
    Ok(Config {
        gdx: PathBuf::from(get("gdx")?),
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

fn run(cfg: &Config) -> Result<bool, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        // Stop the previous fixture's server before timing the next
        // setup, so no two servers share the CPUs.
        drop(fixture.take());
        let start = Instant::now();
        fixture = Some(setup(cfg)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut fixture = fixture.ok_or("no setup ran")?;
    let setup_s = median(&setups);

    let (pass, metrics, traced_samples) = if cfg.trace {
        let untraced = fixture.pass(cfg.seconds / 2.0);
        let mut trace = Trace::new();
        let (traced, mut layers) = fixture.traced_pass(cfg.seconds / 2.0, &mut trace);
        layers.insert(
            "trace.overhead_ms",
            traced.mean_latency_ms() - untraced.mean_latency_ms(),
        );
        let path = PathBuf::from(".bench_out").join(format!(
            "spans-{}-s{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        trace
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            trace.len(),
            path.display()
        );
        let metrics: Vec<(&str, Json)> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, metric(layers.get(name).copied().unwrap_or(0.0), unit)))
            .collect();
        let samples = traced.latencies_ms.len();
        let merged = Pass {
            latencies_ms: untraced.latencies_ms,
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            wrong: untraced.wrong + traced.wrong,
            stalls: untraced.stalls + traced.stalls,
            aborted: untraced.aborted.or(traced.aborted),
            ..Pass::default()
        };
        (merged, metrics, Some(samples))
    } else {
        let pass = fixture.pass(cfg.seconds);
        let metrics = end_to_end(&pass, setup_s);
        (pass, metrics, None)
    };

    let mut info = vec![
        ("workload", json::s(cfg.workload.name())),
        ("seed", json::n(cfg.seed)),
        ("seconds", Json::Number(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("nproc", json::n(sys::nproc() as u64)),
        (
            "gdx_revision",
            json::s(sys::source_revision(&PathBuf::from("."))),
        ),
        (
            "percentile_samples",
            json::n(pass.latencies_ms.len() as u64),
        ),
        (
            "setup_s_samples",
            Json::Array(setups.iter().map(|&s| Json::Number(s)).collect()),
        ),
        ("stalls", json::n(pass.stalls)),
        ("wrong_answers", json::n(pass.wrong)),
    ];
    if let Some(n) = traced_samples {
        info.push(("traced_samples", json::n(n as u64)));
    }
    info.extend(fixture.info());
    if let Some(err) = &pass.aborted {
        info.push(("aborted", json::s(err.clone())));
    }
    drop(fixture);
    println!("{}", json::obj(vec![("run", json::obj(info))]).render());

    let correct = pass.wrong == 0 && pass.aborted.is_none();
    let result = json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", json::n(pass.attempted)),
        ("failed", json::n(pass.failed)),
        ("metrics", json::obj(metrics)),
    ]);
    println!("{}", result.render());
    if let Some(err) = &pass.aborted {
        eprintln!("perfbench: run ended early: {err}");
    }
    Ok(pass.aborted.is_none())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("replay") {
        return replay::child_main(&argv[1..]);
    }
    let result = parse_args(&argv).and_then(|cfg| {
        let outcome = run(&cfg);
        // Generated inputs are scratch; the span files stay.
        drop(std::fs::remove_dir_all(&cfg.work_dir));
        outcome
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn sliced_percentiles_ignore_one_noisy_slice() {
        let mut v = vec![10.0; 100];
        v[3] = 1000.0;
        v[7] = 900.0;
        assert_eq!(sliced_percentile(&v, 99.0), 10.0);
        assert_eq!(sliced_percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn end_to_end_reports_every_metric_once() {
        let pass = Pass {
            latencies_ms: vec![1.0, 2.0],
            attempted: 2,
            wall_s: 1.0,
            ..Pass::default()
        };
        let names: Vec<&str> = end_to_end(&pass, 0.5).iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
        assert!(names.contains(&"setup_s"));
    }
}
