//! `paper_cli`: sequential one-shot `gdx` jobs in a closed loop with one
//! client, each run with `--threads 1`.
//!
//! The job mix (the run's seed orders it):
//!
//! * `cert-query` with the paper query on Flight/Hotel instances of 10,
//!   20, 30 and 50 flights (three of each) — chase and evaluation
//!   dominate;
//! * `certain --nre f.f* --pair c1,c2` on Example 2.2;
//! * `solve` on Example 5.2, where no solution exists;
//! * `solve` and `certain --nre a.a --pair c1,c2` on Corollary 4.2
//!   reductions of random 3-CNF at ratio 4.26 with n = 6, 7, 8 (three
//!   satisfiable and three unsatisfiable formulas each), with
//!   `--max-graphs 2^n+8` so the search is exact — enumeration and egd
//!   repair dominate.
//!
//! Expected answers come from the session API at one worker (flights,
//! Example 2.2), from DPLL (the reductions: a solution exists iff the
//! formula is satisfiable, `(c1, c2)` is certain iff it is not) and from
//! the paper (Example 5.2 has no solution).
//!
//! At two or more workers `Runtime::par_chunks` can deadlock (its
//! own-deque guard lives through the steal arm), and at the default worker
//! count about one `cert-query` on 50 flights in twenty stalled, a failed
//! job count that differed from run to run. The jobs therefore run at one
//! worker, which never enters the parallel path. Every job still runs
//! under a timeout; a job that outlives it is killed and counted as a
//! failed operation, never retried. The traced run measures the runtime
//! layer apart, by replaying each job once more at the default worker
//! count (see [`CliFixture::runtime_probe`]); a stall there is counted in
//! `runtime.stalls` and listed, not hidden.

use crate::replay::{self, Values};
use crate::trace::{Span, Trace};
use crate::{inputs, sys, Config, Fixture, Layers, Pass};
use gdx_common::json::{self, Json};
use gdx_sat::Cnf;
use rand::rngs::StdRng;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A job that sleeps this long without using any CPU is deadlocked: a
/// gdx job waits on nothing but its own threads.
const STALL_WINDOW: Duration = Duration::from_millis(250);
/// How often a running job's CPU time is sampled.
const POLL: Duration = Duration::from_millis(25);
/// Longest any job may run, stalled or not. Every job of the mix
/// finishes within a second.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// The worker count every job runs at: the one that cannot deadlock.
const THREADS: &str = "1";

const FLIGHT_SIZES: &[usize] = &[10, 20, 30, 50];
const SAT_VARS: &[u32] = &[6, 7, 8];
/// Inputs per job class: flight instances per size, and satisfiable (and
/// again unsatisfiable) formulas per variable count.
const PER_CLASS: usize = 3;
/// Formulas drawn per variable count before giving up on a balanced set.
const MAX_DRAWS: usize = 200;

/// What a job's standard output must be.
enum Expect {
    /// The whole output.
    Exact(String),
    /// The first line.
    FirstLine(String),
    /// `EXISTS` with a witness whose valuation satisfies the formula, or
    /// `NO SOLUTION` when the formula is unsatisfiable.
    Sat { cnf: Cnf, satisfiable: bool },
    /// Example 5.2 has no solution. Outside the exact fragment gdx's
    /// bounded search may only say `UNKNOWN`, which is sound; claiming a
    /// solution is wrong.
    NoSolution,
}

struct Job {
    kind: &'static str,
    args: Vec<String>,
    expect: Expect,
}

impl Job {
    /// `kind instance-file`, naming the job in the run record.
    fn label(&self) -> String {
        let instance = self
            .args
            .windows(2)
            .find(|w| w[0] == "--instance")
            .and_then(|w| Path::new(&w[1]).file_name())
            .map_or(String::new(), |f| f.to_string_lossy().into_owned());
        format!("{} {instance}", self.kind)
    }
}

pub struct CliFixture {
    gdx: PathBuf,
    /// Jobs grouped by class: the same command on inputs of one size (and,
    /// for formulas, one verdict).
    classes: Vec<Vec<Job>>,
    /// The current round: every class once, in an order shuffled afresh
    /// per round, each on its next input. Passes run whole rounds only,
    /// so every pass runs the same mix of jobs.
    order: Vec<usize>,
    /// Position in `order`; passes continue where the last one stopped.
    next: usize,
    round: usize,
    rng: StdRng,
    op: u64,
    unknown_verdicts: u64,
    /// Jobs killed at their timeout, as `kind input-file`; replays and
    /// runtime probes killed at theirs, with `replay ` or `runtime probe `
    /// in front.
    stalled: Vec<String>,
}

fn write(dir: &Path, name: &str, text: &str) -> Result<String, String> {
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

pub fn setup(cfg: &Config) -> Result<CliFixture, String> {
    let dir = &cfg.work_dir;
    let mut rng = inputs::rng(inputs::CONTENT_SEED);
    let mut classes: Vec<Vec<Job>> = Vec::new();

    let ex22 = write(dir, "ex22.gdx", inputs::EX22_SETTING)?;
    for &size in FLIGHT_SIZES {
        let mut class = Vec::with_capacity(PER_CLASS);
        for k in 0..PER_CLASS {
            let instance = inputs::flights(size, &mut rng);
            let path = write(dir, &format!("flights-{size}-{k}.facts"), &instance)?;
            let expected =
                replay::expected_cert_query(inputs::EX22_SETTING, &instance, inputs::PAPER_QUERY)?;
            class.push(Job {
                kind: "cert-query",
                args: strings(&[
                    "cert-query",
                    "--setting",
                    &ex22,
                    "--instance",
                    &path,
                    "--cnre",
                    inputs::PAPER_QUERY,
                ]),
                expect: Expect::Exact(expected),
            });
        }
        classes.push(class);
    }

    let ex22_instance = write(dir, "ex22.facts", inputs::EX22_INSTANCE)?;
    let line = replay::expected_certain_pair(
        inputs::EX22_SETTING,
        inputs::EX22_INSTANCE,
        "f.f*",
        "c1",
        "c2",
    )?;
    classes.push(vec![Job {
        kind: "certain",
        args: strings(&[
            "certain",
            "--setting",
            &ex22,
            "--instance",
            &ex22_instance,
            "--nre",
            "f.f*",
            "--pair",
            "c1,c2",
        ]),
        expect: Expect::FirstLine(line),
    }]);

    let ex52 = write(dir, "ex52.gdx", inputs::EX52_SETTING)?;
    let ex52_instance = write(dir, "ex52.facts", inputs::EX52_INSTANCE)?;
    classes.push(vec![Job {
        kind: "solve",
        args: strings(&["solve", "--setting", &ex52, "--instance", &ex52_instance]),
        expect: Expect::NoSolution,
    }]);

    for &n in SAT_VARS {
        // Classes: solve and certain, on satisfiable and on
        // unsatisfiable formulas.
        let mut sat_classes: [Vec<Job>; 4] = Default::default();
        for (k, (cnf, setting, instance, satisfiable)) in
            stratified_formulas(n, &mut rng)?.into_iter().enumerate()
        {
            let base = if satisfiable { 0 } else { 2 };
            let s = write(dir, &format!("sat-{n}-{k}.gdx"), &setting)?;
            let i = write(dir, &format!("sat-{n}-{k}.facts"), &instance)?;
            let max_graphs = ((1usize << n) + 8).to_string();
            sat_classes[base].push(Job {
                kind: "solve",
                args: strings(&[
                    "solve",
                    "--setting",
                    &s,
                    "--instance",
                    &i,
                    "--max-graphs",
                    &max_graphs,
                ]),
                expect: Expect::Sat { cnf, satisfiable },
            });
            let verdict = if satisfiable {
                "NOT CERTAIN — counterexample solution:"
            } else {
                "CERTAIN"
            };
            sat_classes[base + 1].push(Job {
                kind: "certain",
                args: strings(&[
                    "certain",
                    "--setting",
                    &s,
                    "--instance",
                    &i,
                    "--nre",
                    "a.a",
                    "--pair",
                    "c1,c2",
                    "--max-graphs",
                    &max_graphs,
                ]),
                expect: Expect::FirstLine(verdict.to_owned()),
            });
        }
        classes.extend(sat_classes);
    }
    for job in classes.iter_mut().flatten() {
        job.args.extend(strings(&["--threads", THREADS]));
    }
    Ok(CliFixture {
        gdx: cfg.gdx.clone(),
        order: Vec::new(),
        classes,
        next: 0,
        round: 0,
        rng: inputs::rng(cfg.seed),
        op: 0,
        unknown_verdicts: 0,
        stalled: Vec::new(),
    })
}

/// `PER_CLASS` satisfiable and `PER_CLASS` unsatisfiable reductions over
/// `n` variables. A fixed number of each verdict keeps both paths in
/// every run: an unsatisfiable formula makes `solve` examine every
/// candidate.
fn stratified_formulas(
    n: u32,
    rng: &mut StdRng,
) -> Result<Vec<(Cnf, String, String, bool)>, String> {
    let (mut sat, mut unsat) = (Vec::new(), Vec::new());
    for _ in 0..MAX_DRAWS {
        if sat.len() == PER_CLASS && unsat.len() == PER_CLASS {
            break;
        }
        let (cnf, setting, instance) = inputs::sat_reduction(n, rng)?;
        let satisfiable = inputs::satisfiable(&cnf)?;
        let bucket = if satisfiable { &mut sat } else { &mut unsat };
        if bucket.len() < PER_CLASS {
            bucket.push((cnf, setting, instance, satisfiable));
        }
    }
    if sat.len() < PER_CLASS || unsat.len() < PER_CLASS {
        return Err(format!("no balanced 3-CNF sample at n = {n}"));
    }
    sat.append(&mut unsat);
    Ok(sat)
}

/// `args` without a `--threads N` pair.
fn without_threads(args: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--threads" {
            it.next();
        } else {
            out.push(arg.clone());
        }
    }
    out
}

/// How one child process ended.
struct Run {
    wall_ms: f64,
    /// Standard output, when the process exited by itself with status 0.
    stdout: Option<String>,
    timed_out: bool,
}

/// Runs `program args` to completion. It is killed as stalled when it
/// sleeps for `STALL_WINDOW` without using CPU, or outlives `JOB_TIMEOUT`.
/// Standard output is drained on a helper thread so a full pipe never
/// blocks the child.
fn run_child(program: &Path, args: &[String]) -> Run {
    let start = Instant::now();
    let spawned = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(_) => {
            return Run {
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                stdout: None,
                timed_out: false,
            }
        }
    };
    let mut pipe = child.stdout.take();
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let ok = pipe
            .as_mut()
            .is_some_and(|p| p.read_to_string(&mut out).is_ok());
        drop(tx.send(ok.then_some(out)));
    });
    let (mut last_cpu, mut progress_at) = (-1.0, Instant::now());
    let (stdout, timed_out) = loop {
        match rx.recv_timeout(POLL) {
            Ok(out) => break (out, false),
            Err(mpsc::RecvTimeoutError::Disconnected) => break (None, false),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();
        match sys::process_state(child.id()) {
            Ok(('S', cpu)) if cpu == last_cpu => {}
            Ok((_, cpu)) => {
                last_cpu = cpu;
                progress_at = now;
            }
            // Without a reading, only the timeout applies.
            Err(_) => progress_at = now,
        }
        if now - progress_at >= STALL_WINDOW || now - start >= JOB_TIMEOUT {
            drop(child.kill());
            break (None, true);
        }
    };
    let status = child.wait();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(reader.join());
    let success = status.is_ok_and(|s| s.success());
    Run {
        wall_ms,
        stdout: stdout.filter(|_| success && !timed_out),
        timed_out,
    }
}

/// Checks one job's output; `Ok(true)` for an inconclusive but sound
/// answer.
fn check(expect: &Expect, stdout: &str) -> Result<bool, ()> {
    let first = stdout.lines().next().unwrap_or("");
    match expect {
        Expect::Exact(text) => (stdout == text).then_some(false).ok_or(()),
        Expect::FirstLine(line) => (first == line).then_some(false).ok_or(()),
        Expect::NoSolution => match first {
            "NO SOLUTION" => Ok(false),
            l if l.starts_with("UNKNOWN") => Ok(true),
            _ => Err(()),
        },
        Expect::Sat { cnf, satisfiable } => {
            if !satisfiable {
                return (first == "NO SOLUTION").then_some(false).ok_or(());
            }
            if first != "EXISTS" {
                return Err(());
            }
            // The witness encodes a valuation as one `t_i` or `f_i`
            // self-loop on c1 per variable (Theorem 4.1).
            let valuation = (0..cnf.num_vars)
                .map(|i| {
                    let t = format!("(c1, t{}, c1);", i + 1);
                    let f = format!("(c1, f{}, c1);", i + 1);
                    let has = |e: &str| stdout.lines().any(|l| l.trim() == e);
                    match (has(&t), has(&f)) {
                        (true, false) => Ok(true),
                        (false, true) => Ok(false),
                        _ => Err(()),
                    }
                })
                .collect::<Result<Vec<bool>, ()>>()?;
            cnf.eval(&valuation).then_some(false).ok_or(())
        }
    }
}

impl CliFixture {
    /// Runs jobs in a closed loop for `seconds`. With a trace, each job is
    /// followed by its in-process replay (in a child process) at the
    /// job's worker count, whose spans and readings are collected into
    /// `replays`, and then by its runtime probe: the same replay at the
    /// default worker count, where `par_chunks` fans out and can stall,
    /// whose readings are collected into `probes`. A stalled probe is
    /// killed, counted in `stalls` and listed; it is not an operation of
    /// the workload, so it is not a failed one.
    fn closed_loop(
        &mut self,
        seconds: f64,
        mut trace: Option<&mut Trace>,
        replays: &mut Vec<(String, f64, Values)>,
        probes: &mut Vec<Values>,
    ) -> Pass {
        let mut pass = Pass::default();
        let (cpu_before, _) = sys::children_usage().unwrap_or((0.0, 0.0));
        let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("perfbench"));
        let start = Instant::now();
        let (mut round_start, mut round_s): (Option<Instant>, f64) = (None, 0.0);
        loop {
            if self.next == self.order.len() {
                let now = Instant::now();
                if let Some(begun) = round_start {
                    round_s = (now - begun).as_secs_f64();
                }
                round_start = Some(now);
                // Rounds run whole, so every pass runs the same mix. A new
                // one starts only if, as long as the last, it would end at
                // most half a round past `seconds`.
                if (now - start).as_secs_f64() + round_s / 2.0 >= seconds {
                    break;
                }
                self.order = (0..self.classes.len()).collect();
                inputs::shuffle(&mut self.order, &mut self.rng);
                self.next = 0;
                self.round += 1;
            }
            let class = &self.classes[self.order[self.next]];
            let job = &class[self.round % class.len()];
            self.next += 1;
            self.op += 1;
            let op = self.op;
            let span_start = trace.as_ref().map(|t| t.now_us());
            let run = run_child(&self.gdx, &job.args);
            pass.attempted += 1;
            pass.latencies_ms.push(run.wall_ms);
            match (&run.stdout, run.timed_out) {
                (_, true) => {
                    pass.failed += 1;
                    pass.stalls += 1;
                    self.stalled.push(job.label());
                }
                (None, false) => pass.failed += 1,
                (Some(out), false) => match check(&job.expect, out) {
                    Ok(inconclusive) => self.unknown_verdicts += u64::from(inconclusive),
                    Err(()) => {
                        pass.failed += 1;
                        pass.wrong += 1;
                    }
                },
            }
            let Some(t) = trace.as_deref_mut() else {
                continue;
            };
            let begin = span_start.unwrap_or(0.0);
            t.push(Span {
                name: format!("cli.{}", job.kind),
                op,
                parent: None,
                start_us: begin,
                end_us: begin + run.wall_ms * 1e3,
            });
            if run.stdout.is_none() {
                continue;
            }
            let mut args = vec!["replay".to_owned()];
            args.extend(job.args.iter().cloned());
            let replayed = run_child(&exe, &args);
            if replayed.timed_out {
                pass.stalls += 1;
                self.stalled.push(format!("replay {}", job.label()));
            }
            if let Some(out) = replayed.stdout {
                if let Ok(values) = replay::absorb_child(&out, op, t) {
                    replays.push((job.kind.to_owned(), run.wall_ms, values));
                }
            }
            args.truncate(1);
            args.extend(without_threads(&job.args));
            let probe = run_child(&exe, &args);
            if probe.timed_out {
                pass.stalls += 1;
                self.stalled.push(format!("runtime probe {}", job.label()));
            }
            if let Some(values) = probe.stdout.and_then(|out| replay::child_values(&out).ok()) {
                probes.push(values);
            }
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        let (cpu_after, peak) = sys::children_usage().unwrap_or((0.0, 0.0));
        pass.cpu_ms = cpu_after - cpu_before;
        pass.peak_rss_mb = peak;
        pass
    }
}

impl Fixture for CliFixture {
    fn pass(&mut self, seconds: f64) -> Pass {
        self.closed_loop(seconds, None, &mut Vec::new(), &mut Vec::new())
    }

    fn traced_pass(&mut self, seconds: f64, trace: &mut Trace) -> (Pass, Layers) {
        let (mut replays, mut probes) = (Vec::new(), Vec::new());
        let pass = self.closed_loop(seconds, Some(trace), &mut replays, &mut probes);
        let mut layers = Layers::new();
        let n = replays.len().max(1) as f64;
        let sum = |key: &str| -> f64 {
            replays
                .iter()
                .map(|(_, _, v)| v.get(key).copied().unwrap_or(0.0))
                .sum()
        };
        let per_op_ms = |us: f64| us / n / 1e3;
        let replay_total = trace.total_us("replay");
        let cli_wall: f64 = replays.iter().map(|(_, wall, _)| wall).sum();
        let chase_total = trace.total_us("chase");
        let st = sum("chase:st_us");
        layers.insert("cli.overhead_ms", (cli_wall - replay_total / 1e3) / n);
        layers.insert("parse.ms", per_op_ms(trace.total_us("parse")));
        layers.insert("chase.st_ms", per_op_ms(st));
        layers.insert("chase.egd_ms", per_op_ms(chase_total - st));
        layers.insert("chase.egd_merges", sum("egd.merges") / n);
        layers.insert("chase.firings", sum("chase.firings") / n);
        layers.insert("enum.ms", per_op_ms(trace.total_us("enum")));
        layers.insert(
            "enum.chase_ms",
            per_op_ms(sum("enum:session.phase.chase_us")),
        );
        layers.insert(
            "enum.verify_ms",
            per_op_ms(sum("enum:session.phase.verify_us")),
        );
        let candidates = sum("enum:session.candidates");
        layers.insert("enum.candidates", candidates / n);
        layers.insert("enum.yield", sum("enum:verified") / candidates.max(1.0));
        layers.insert("eval.ms", per_op_ms(trace.total_us("eval")));
        layers.insert("session.eval_ms", per_op_ms(sum("session.phase.eval_us")));
        layers.insert("eval.demand_visited", sum("demand.visited") / n);
        let probed = |key: &str| -> f64 {
            let total: f64 = probes
                .iter()
                .map(|v| v.get(key).copied().unwrap_or(0.0))
                .sum();
            total / probes.len().max(1) as f64
        };
        layers.insert("runtime.par_scopes", probed("runtime.par_scopes"));
        layers.insert("runtime.steals", probed("runtime.steals"));
        layers.insert("runtime.tasks", probed("runtime.tasks"));
        layers.insert("runtime.stalls", pass.stalls as f64);
        layers.insert("serialize.us", trace.total_us("serialize") / n);
        layers.insert(
            "session.freeze_ms",
            per_op_ms(sum("session.phase.freeze_us")),
        );
        layers.insert("session.chase_ms", per_op_ms(sum("session.phase.chase_us")));
        layers.insert(
            "session.verify_ms",
            per_op_ms(sum("session.phase.verify_us")),
        );
        // The CLI's own share is wall minus replay; what the replay's
        // layer spans leave uncovered is unattributed.
        layers.insert(
            "unattributed_share",
            trace.self_time_us("replay") / 1e3 / cli_wall.max(1e-9),
        );
        (pass, layers)
    }

    fn info(&self) -> Vec<(&'static str, Json)> {
        let mut kinds: Vec<(&str, u64)> = Vec::new();
        for job in self.classes.iter().flatten() {
            match kinds.iter_mut().find(|(k, _)| *k == job.kind) {
                Some((_, c)) => *c += 1,
                None => kinds.push((job.kind, 1)),
            }
        }
        vec![
            (
                "jobs_per_cycle",
                json::obj(kinds.into_iter().map(|(k, c)| (k, json::n(c))).collect()),
            ),
            ("unknown_verdicts", json::n(self.unknown_verdicts)),
            (
                "stalled_jobs",
                Json::Array(self.stalled.iter().cloned().map(Json::String).collect()),
            ),
            ("gdx_threads", json::s(THREADS)),
            ("runtime_probe_threads", json::s("default")),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_witnesses_are_checked_against_the_formula() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![
            gdx_sat::Lit::pos(0),
            gdx_sat::Lit::pos(1),
            gdx_sat::Lit::pos(2),
        ]);
        let expect = Expect::Sat {
            cnf,
            satisfiable: true,
        };
        let good = "EXISTS\n(c1, a, c2);\n(c1, t1, c1);\n(c1, f2, c1);\n(c1, f3, c1);\n";
        let bad = "EXISTS\n(c1, a, c2);\n(c1, f1, c1);\n(c1, f2, c1);\n(c1, f3, c1);\n";
        assert_eq!(check(&expect, good), Ok(false));
        assert_eq!(check(&expect, bad), Err(()));
        assert_eq!(check(&expect, "NO SOLUTION\n"), Err(()));
    }

    #[test]
    fn example_5_2_accepts_only_sound_verdicts() {
        assert_eq!(check(&Expect::NoSolution, "NO SOLUTION\n"), Ok(false));
        assert_eq!(check(&Expect::NoSolution, "UNKNOWN (bounded)\n"), Ok(true));
        assert_eq!(check(&Expect::NoSolution, "EXISTS\n"), Err(()));
    }

    #[test]
    fn the_runtime_probe_drops_only_the_worker_count() {
        let args = strings(&["solve", "--threads", "1", "--max-graphs", "72"]);
        assert_eq!(
            without_threads(&args),
            strings(&["solve", "--max-graphs", "72"])
        );
    }

    #[test]
    fn a_stalled_child_is_killed() {
        let run = run_child(Path::new("sleep"), &["5".to_owned()]);
        assert!(run.timed_out);
        assert!(run.stdout.is_none());
        assert!(run.wall_ms < 2000.0);
    }
}
