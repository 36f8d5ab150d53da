//! `serve_warm` and `serve_churn`: closed-loop keep-alive clients against
//! `gdx serve --workers 2 --threads 1`.
//!
//! Two closed-loop connections already keep both cores of a 2-CPU host
//! busy, so per-request fan-out inside the server would only oversubscribe
//! them; `--threads 1` also keeps requests off the runtime's `par_chunks`,
//! whose lock-order deadlock can stall a server at the default worker
//! count.
//!
//! * `serve_warm`: Example 2.2 plus Flight/Hotel instances of 10, 20 and
//!   50 flights, all pre-warmed within pool capacity, chosen uniformly.
//!   Every request is a pool hit with chase and enumeration memoized.
//! * `serve_churn`: 16 Flight/Hotel instances of 8 to 14 flights with
//!   Zipf(1) popularity against a pool of 4 sessions, so a steady share
//!   of requests miss: parse, chase, enumerate and evict, while hits on
//!   other keys wait behind the pool lock held during the build.
//!
//! The request mix is the same for both: `certain`, `certain_answers` as
//! JSON and as binary rows, `is_solution` (the payload is a solution taken
//! from the session API at setup) and `solutions` with `limit 2`.

use crate::client::{self, Conn, Response};
use crate::replay::{ServeReplay, Values};
use crate::trace::{Span, Trace};
use crate::{inputs, sys, Config, Fixture, Layers, Pass, Workload};
use gdx_common::json::{self, Json};
use gdx_exchange::{CertainAnswer, ExchangeSession, Options, Threads};
use gdx_query::PreparedQuery;
use gdx_relational::Instance;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// A request that takes longer than this has stalled the server.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Server connection workers.
const WORKERS: usize = 2;
/// Closed-loop connections (at most the CPU count).
const CONNECTIONS: usize = 2;
const WARM_FLIGHTS: &[usize] = &[10, 20, 50];
/// Instances per warm flight size: the seed changes their content, and
/// averaging over two keeps the mix's cost from swinging with it.
const WARM_PER_SIZE: usize = 2;
const CHURN_KEYS: usize = 16;
const CHURN_FLIGHTS: &[usize] = &[8, 10, 12, 14];
const CHURN_CAPACITY: usize = 4;
/// Zipf exponent of key popularity under churn. Skewed enough that most
/// requests hit, so the median is a hit and the tail percentiles misses.
const ZIPF_S: f64 = 1.5;
/// Deck copies of the most popular churn key.
const ZIPF_TOP: f64 = 16.0;
/// Candidate-family cap sent with every request (`options.max_graphs`).
/// A quarter of the CLI default keeps one request's evaluation over the
/// family to milliseconds, so a run holds thousands of requests over
/// many instances instead of a few heavy ones.
const MAX_GRAPHS: usize = 64;
/// Requests replayed in-process per traced pass, at most.
const REPLAY_MAX: usize = 400;
/// Round trips of the load generator's own soundness check.
const SELF_TEST_ROUNDS: usize = 50;

#[derive(Clone, Copy)]
enum Kind {
    Certain,
    AnswersJson,
    AnswersBinary,
    IsSolution,
    Solutions,
}

const KINDS: [Kind; 5] = [
    Kind::Certain,
    Kind::AnswersJson,
    Kind::AnswersBinary,
    Kind::IsSolution,
    Kind::Solutions,
];

impl Kind {
    fn endpoint(self) -> &'static str {
        match self {
            Kind::Certain => "certain",
            Kind::AnswersJson | Kind::AnswersBinary => "certain_answers",
            Kind::IsSolution => "is_solution",
            Kind::Solutions => "solutions",
        }
    }
}

/// What a response body must hold.
enum Expected {
    /// A JSON document, compared by value.
    Json(Json),
    /// Binary certain-answer rows and their exactness.
    Rows(Vec<Vec<String>>, bool),
    /// The first solutions of the stream, in order.
    Solutions(Vec<String>),
}

struct Request {
    kind: Kind,
    bytes: Vec<u8>,
    expected: Expected,
}

/// One instance key: its requests, one per kind, in `KINDS` order.
struct Key {
    flights: usize,
    requests: Vec<Request>,
}

/// A `gdx serve` child, killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.child.kill());
        drop(self.child.wait());
    }
}

pub struct ServeFixture {
    workload: Workload,
    server: Server,
    capacity: usize,
    keys: Vec<Key>,
    /// Every `(key, kind)` request, each key repeated by its popularity.
    /// Clients send whole decks, each shuffled afresh, so the mix of a
    /// run is the deck's mix up to one partial deck.
    deck: Vec<(usize, usize)>,
    seed: u64,
    passes: u64,
    self_test_p50_ms: f64,
    /// Request sequence of the warm-up, replayed before a layer replay
    /// so the replay's pool starts as the server's did.
    warmup: Vec<(usize, usize)>,
}

fn session(setting: &str, instance: &str) -> Result<ExchangeSession, String> {
    let err = |e: gdx_common::GdxError| e.to_string();
    let setting = gdx_mapping::dsl::parse_setting(setting).map_err(err)?;
    let instance = Instance::parse(setting.source.clone(), instance).map_err(err)?;
    Ok(ExchangeSession::new(setting, instance).with_options(
        Options::default()
            .with_max_graphs(MAX_GRAPHS)
            .with_threads(Threads::Fixed(1)),
    ))
}

/// Builds a key's requests and their expected answers through the session
/// API at one worker.
fn key(setting: &str, instance: &str, flights: usize) -> Result<Key, String> {
    let err = |e: gdx_common::GdxError| e.to_string();
    let (from, to) = inputs::first_route(instance).ok_or("instance has no flight")?;
    let boolean = format!("(\"{from}\", f.f*, \"{to}\")");
    let mut s = session(setting, instance)?;
    let answers = PreparedQuery::parse(inputs::PAPER_QUERY).map_err(err)?;
    let (rows, exact) = s.certain_answers(&answers).map_err(err)?;
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|n| n.name().as_str().to_owned()).collect())
        .collect();
    let verdict = match s
        .certain(&PreparedQuery::parse(&boolean).map_err(err)?)
        .map_err(err)?
    {
        CertainAnswer::Certain => vec![("verdict", json::s("certain"))],
        CertainAnswer::NotCertain(g) => vec![
            ("verdict", json::s("not_certain")),
            ("counterexample", json::s(g.to_string())),
        ],
        CertainAnswer::Unknown(r) => vec![("verdict", json::s("unknown")), ("reason", json::s(r))],
    };
    let first: Vec<String> = s
        .solutions()
        .map_err(err)?
        .take(2)
        .map(|g| g.map(|g| g.to_string()))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    // gdx prints nulls as `_~N`, which its own graph parser rejects;
    // renamed nulls leave the graph the same solution.
    let witness = first
        .first()
        .ok_or("instance has no solution")?
        .replace("_~", "_n");

    let body = |extra: Vec<(&str, Json)>| {
        let mut fields = vec![
            ("setting", json::s(setting)),
            ("instance", json::s(instance)),
            (
                "options",
                json::obj(vec![("max_graphs", json::n(MAX_GRAPHS as u64))]),
            ),
        ];
        fields.extend(extra);
        json::obj(fields).render()
    };
    let post = |endpoint: &str, body: String| {
        client::post(&format!("/v1/{endpoint}"), "application/json", &body)
    };
    let json_rows = Json::Array(
        rows.iter()
            .map(|r| Json::Array(r.iter().cloned().map(Json::String).collect()))
            .collect(),
    );
    let requests = vec![
        Request {
            kind: Kind::Certain,
            bytes: post("certain", body(vec![("query", json::s(boolean.clone()))])),
            expected: Expected::Json(json::obj(verdict)),
        },
        Request {
            kind: Kind::AnswersJson,
            bytes: post(
                "certain_answers",
                body(vec![("query", json::s(inputs::PAPER_QUERY))]),
            ),
            expected: Expected::Json(json::obj(vec![
                ("rows", json_rows),
                ("exact", Json::Bool(exact)),
            ])),
        },
        Request {
            kind: Kind::AnswersBinary,
            bytes: post(
                "certain_answers",
                body(vec![
                    ("query", json::s(inputs::PAPER_QUERY)),
                    ("format", json::s("binary")),
                ]),
            ),
            expected: Expected::Rows(rows, exact),
        },
        Request {
            kind: Kind::IsSolution,
            bytes: post("is_solution", body(vec![("graph", json::s(witness))])),
            expected: Expected::Json(json::obj(vec![("solution", Json::Bool(true))])),
        },
        Request {
            kind: Kind::Solutions,
            bytes: post("solutions", body(vec![("limit", json::n(2))])),
            expected: Expected::Solutions(first),
        },
    ];
    Ok(Key { flights, requests })
}

/// Does a response answer its request correctly?
fn correct(expected: &Expected, resp: &Response) -> bool {
    if resp.status != 200 {
        return false;
    }
    match expected {
        Expected::Json(want) => std::str::from_utf8(&resp.body)
            .ok()
            .and_then(|t| json::parse(t).ok())
            .is_some_and(|got| &got == want),
        Expected::Rows(rows, exact) => gdx_server::wire::decode_rows(&resp.body)
            .is_ok_and(|(got, got_exact)| &got == rows && got_exact == *exact),
        Expected::Solutions(want) => {
            // One `{"solution": …}` line per solution, then the summary.
            // Its `exact` flag reflects how far the session's enumeration
            // had got, which depends on pool history, so only the count
            // is checked.
            let Ok(text) = std::str::from_utf8(&resp.body) else {
                return false;
            };
            let lines: Vec<Json> = match text.lines().map(json::parse).collect() {
                Ok(l) => l,
                Err(_) => return false,
            };
            let Some((done, sols)) = lines.split_last() else {
                return false;
            };
            sols.len() == want.len()
                && sols
                    .iter()
                    .zip(want)
                    .all(|(l, w)| l.get("solution").and_then(Json::as_str) == Some(w))
                && done.get("done").and_then(Json::as_bool) == Some(true)
                && done.get("count").and_then(Json::as_f64) == Some(want.len() as f64)
        }
    }
}

fn boot(gdx: &Path, capacity: usize) -> Result<Server, String> {
    let mut cmd = Command::new(gdx);
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &WORKERS.to_string(),
        "--threads",
        "1",
        "--max-sessions",
        &capacity.to_string(),
        "--queue-depth",
        "64",
    ])
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    // SAFETY: the hook runs in the forked child before exec and only makes
    // one async-signal-safe system call, asking the kernel to kill the
    // server if this process dies without reaping it.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start gdx serve: {e}"))?;
    let stdout = child.stdout.take().ok_or("gdx serve has no stdout")?;
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut line = String::new();
        drop(BufReader::new(stdout).read_line(&mut line));
        drop(tx.send(line));
    });
    // From here on the server is killed and reaped on every early return.
    let mut server = Server {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
    };
    let line = rx.recv_timeout(REQUEST_TIMEOUT);
    if line.is_err() {
        drop(server);
        drop(reader.join());
        return Err("gdx serve did not report its address".to_owned());
    }
    drop(reader.join());
    let line = line.unwrap_or_default();
    server.addr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("unexpected gdx serve output: {line:?}"))?;
    Ok(server)
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, arg2: u64, ...) -> i32;
}

fn connect(addr: SocketAddr) -> Result<Conn, String> {
    Conn::connect(addr, REQUEST_TIMEOUT).map_err(|e| format!("cannot connect to gdx serve: {e}"))
}

/// The load generator's soundness check: keep-alive `/healthz` round
/// trips must not pay a Nagle/delayed-ACK stall (about 40 ms each).
fn self_test(addr: SocketAddr) -> Result<f64, String> {
    let mut conn = connect(addr)?;
    let request = client::get("/healthz");
    let mut times = Vec::with_capacity(SELF_TEST_ROUNDS);
    for _ in 0..SELF_TEST_ROUNDS {
        let start = Instant::now();
        let resp = conn.send(&request).map_err(|e| format!("self-test: {e}"))?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        if resp.status != 200 {
            return Err(format!("self-test: /healthz answered {}", resp.status));
        }
    }
    times.sort_by(f64::total_cmp);
    let p50 = crate::percentile(&times, 50.0);
    if p50 > 5.0 {
        return Err(format!(
            "load generator self-test failed: /healthz p50 {p50:.1} ms on keep-alive"
        ));
    }
    Ok(p50)
}

pub fn setup(cfg: &Config) -> Result<ServeFixture, String> {
    let mut rng = inputs::rng(inputs::CONTENT_SEED);
    let setting = inputs::EX22_SETTING;
    let (keys, capacity, copies): (Vec<Key>, usize, Vec<usize>) = match cfg.workload {
        Workload::ServeWarm => {
            let mut keys = vec![key(setting, inputs::EX22_INSTANCE, 3)?];
            for &n in WARM_FLIGHTS {
                for _ in 0..WARM_PER_SIZE {
                    keys.push(key(setting, &inputs::flights(n, &mut rng), n)?);
                }
            }
            let copies = vec![1; keys.len()];
            let capacity = 2 * keys.len();
            (keys, capacity, copies)
        }
        _ => {
            let mut keys = Vec::with_capacity(CHURN_KEYS);
            for i in 0..CHURN_KEYS {
                let n = CHURN_FLIGHTS[i % CHURN_FLIGHTS.len()];
                keys.push(key(setting, &inputs::flights(n, &mut rng), n)?);
            }
            // Zipf: key i is the (i+1)-th most popular, `ZIPF_TOP`
            // copies over (i+1)^ZIPF_S, at least one.
            let copies = (0..CHURN_KEYS)
                .map(|i| (ZIPF_TOP / ((i + 1) as f64).powf(ZIPF_S)).round().max(1.0) as usize)
                .collect();
            (keys, CHURN_CAPACITY, copies)
        }
    };
    let deck: Vec<(usize, usize)> = copies
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| (0..c).flat_map(move |_| (0..KINDS.len()).map(move |r| (k, r))))
        .collect();

    let server = boot(&cfg.gdx, capacity)?;
    let self_test_p50_ms = self_test(server.addr)?;
    // Pre-warm the most popular keys that fit the pool, least popular
    // first so the most popular ends most recently used.
    let warm = keys.len().min(capacity);
    let warmup: Vec<(usize, usize)> = (0..warm)
        .rev()
        .flat_map(|k| (0..KINDS.len()).map(move |r| (k, r)))
        .collect();
    let mut conn = connect(server.addr)?;
    for &(k, r) in &warmup {
        let req = &keys[k].requests[r];
        let resp = conn
            .send(&req.bytes)
            .map_err(|e| format!("pre-warm request failed: {e}"))?;
        if !correct(&req.expected, &resp) {
            return Err(format!(
                "pre-warm: wrong answer from /v1/{} (status {})",
                req.kind.endpoint(),
                resp.status
            ));
        }
    }
    Ok(ServeFixture {
        workload: cfg.workload,
        server,
        capacity,
        keys,
        deck,
        seed: cfg.seed,
        passes: 0,
        self_test_p50_ms,
        warmup,
    })
}

/// One sent request of a pass: which one, when, and how long it took.
struct Sent {
    key: usize,
    kind: usize,
    start_us: f64,
    latency_ms: f64,
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    sent: Vec<Sent>,
    failed: u64,
    wrong: u64,
    error: Option<String>,
}

impl ServeFixture {
    /// One closed-loop client until `deadline` or until another client
    /// reports a stall.
    fn client(&self, id: u64, origin: Instant, deadline: Instant, stop: &AtomicBool) -> ClientLog {
        let mut log = ClientLog::default();
        let mut rng = inputs::rng(self.seed ^ (self.passes << 32) ^ (id << 48) ^ 0x5eed);
        let mut conn = match connect(self.server.addr) {
            Ok(c) => c,
            Err(e) => {
                log.error = Some(e);
                stop.store(true, Ordering::SeqCst);
                return log;
            }
        };
        let mut deck = self.deck.clone();
        let mut next = deck.len();
        while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
            if next == deck.len() {
                inputs::shuffle(&mut deck, &mut rng);
                next = 0;
            }
            let (k, r) = deck[next];
            next += 1;
            let req = &self.keys[k].requests[r];
            let start = Instant::now();
            let result = conn.send(&req.bytes);
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            log.sent.push(Sent {
                key: k,
                kind: r,
                start_us: start.duration_since(origin).as_secs_f64() * 1e6,
                latency_ms,
            });
            match result {
                Ok(resp) => {
                    if !correct(&req.expected, &resp) {
                        log.failed += 1;
                        if resp.status == 200 {
                            log.wrong += 1;
                        }
                    }
                }
                Err(e) => {
                    log.failed += 1;
                    log.error = Some(format!(
                        "server request stalled: /v1/{} gave no response ({e}) after {latency_ms:.0} ms",
                        req.kind.endpoint()
                    ));
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
        log
    }

    /// Runs the clients for `seconds` and merges their logs, ordered by
    /// send time.
    fn closed_loop(&mut self, seconds: f64, origin: Instant) -> (Pass, Vec<Sent>) {
        self.passes += 1;
        let pid = self.server.child.id();
        let cpu_before = sys::process_cpu_ms(pid).unwrap_or(0.0);
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let connections = CONNECTIONS.min(sys::nproc()).max(1);
        let logs: Mutex<Vec<ClientLog>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for id in 0..connections as u64 {
                let (this, stop, logs) = (&*self, &stop, &logs);
                scope.spawn(move || {
                    let log = this.client(id, origin, deadline, stop);
                    logs.lock().unwrap_or_else(|e| e.into_inner()).push(log);
                });
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut pass = Pass {
            wall_s,
            cpu_ms: sys::process_cpu_ms(pid).unwrap_or(0.0) - cpu_before,
            peak_rss_mb: sys::process_peak_rss_mb(pid).unwrap_or(0.0),
            ..Pass::default()
        };
        let mut sent = Vec::new();
        for log in logs.into_inner().unwrap_or_else(|e| e.into_inner()) {
            pass.failed += log.failed;
            pass.wrong += log.wrong;
            if log.error.is_some() {
                pass.stalls += 1;
                pass.aborted = pass.aborted.or(log.error);
            }
            sent.extend(log.sent);
        }
        sent.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        pass.attempted = sent.len() as u64;
        pass.latencies_ms = sent.iter().map(|s| s.latency_ms).collect();
        (pass, sent)
    }

    fn scrape(&self) -> Result<Json, String> {
        let mut conn = connect(self.server.addr)?;
        let resp = conn
            .send(&client::get("/metrics?format=json"))
            .map_err(|e| format!("metrics scrape failed: {e}"))?;
        let text = String::from_utf8(resp.body).map_err(|e| e.to_string())?;
        json::parse(&text).map_err(|e| format!("metrics scrape: {e}"))
    }

    /// Replays the first requests of a traced pass in-process, after the
    /// warm-up the server saw, and returns the summed readings.
    fn replay(&self, sent: &[Sent], trace: &mut Trace, budget: Duration) -> (usize, Values) {
        let mut replay = ServeReplay::new(self.capacity);
        let mut scratch = Trace::new();
        for &(k, r) in &self.warmup {
            drop(replay.request(&self.keys[k].requests[r].bytes, 0, &mut scratch));
        }
        let start = Instant::now();
        let mut total = Values::new();
        let mut n = 0;
        for (i, s) in sent.iter().take(REPLAY_MAX).enumerate() {
            if start.elapsed() > budget {
                break;
            }
            let bytes = &self.keys[s.key].requests[s.kind].bytes;
            if let Ok(values) = replay.request(bytes, i as u64, trace) {
                n += 1;
                for (k, v) in values {
                    *total.entry(k).or_insert(0.0) += v;
                }
            }
        }
        (n, total)
    }
}

/// `after − before` of a scraped counter.
fn counter_delta(before: &Json, after: &Json, name: &str) -> f64 {
    let read = |doc: &Json| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    read(after) - read(before)
}

/// `after − before` of a scraped histogram's `(count, sum)`.
fn hist_delta(before: &Json, after: &Json, name: &str) -> (f64, f64) {
    let read = |doc: &Json, field: &str| {
        doc.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (
        read(after, "count") - read(before, "count"),
        read(after, "sum") - read(before, "sum"),
    )
}

impl Fixture for ServeFixture {
    fn pass(&mut self, seconds: f64) -> Pass {
        self.closed_loop(seconds, Instant::now()).0
    }

    fn traced_pass(&mut self, seconds: f64, trace: &mut Trace) -> (Pass, Layers) {
        let mut layers = Layers::new();
        let before = self.scrape();
        let origin_us = trace.now_us();
        let (mut pass, sent) = self.closed_loop(seconds, Instant::now());
        let after = self.scrape();
        for (i, s) in sent.iter().enumerate() {
            trace.push(Span {
                name: format!("http.{}", KINDS[s.kind].endpoint()),
                op: i as u64,
                parent: None,
                start_us: origin_us + s.start_us,
                end_us: origin_us + s.start_us + s.latency_ms * 1e3,
            });
        }
        let (before, after) = match (before, after) {
            (Ok(b), Ok(a)) => (b, a),
            (Err(e), _) | (_, Err(e)) => {
                pass.aborted = pass.aborted.or(Some(e));
                return (pass, layers);
            }
        };

        let mut handled = (0.0, 0.0);
        for endpoint in ["certain", "certain_answers", "is_solution", "solutions"] {
            let name = format!("server.{endpoint}.latency_us");
            let (count, sum) = hist_delta(&before, &after, &name);
            handled.0 += count;
            handled.1 += sum;
            let metric = match endpoint {
                "certain" => "server.handler_ms.certain",
                "certain_answers" => "server.handler_ms.certain_answers",
                "is_solution" => "server.handler_ms.is_solution",
                _ => "server.handler_ms.solutions",
            };
            layers.insert(metric, sum / count.max(1.0) / 1e3);
        }
        let requests = handled.0.max(1.0);
        let per_request = |name: &str| counter_delta(&before, &after, name) / requests;
        let phase_ms = |name: &str| hist_delta(&before, &after, name).1 / requests / 1e3;
        let hits = counter_delta(&before, &after, "server.pool.hits");
        let misses = counter_delta(&before, &after, "server.pool.misses");
        layers.insert("pool.hit_ratio", hits / (hits + misses).max(1.0));
        layers.insert(
            "pool.evictions_per_kreq",
            per_request("server.pool.evictions") * 1e3,
        );
        layers.insert("session.freeze_ms", phase_ms("session.phase.freeze_us"));
        layers.insert("session.chase_ms", phase_ms("session.phase.chase_us"));
        layers.insert("session.verify_ms", phase_ms("session.phase.verify_us"));
        layers.insert("session.eval_ms", phase_ms("session.phase.eval_us"));
        layers.insert("chase.egd_merges", per_request("egd.merges"));
        layers.insert("chase.firings", per_request("chase.firings"));
        layers.insert("enum.candidates", per_request("session.candidates"));
        layers.insert("eval.demand_visited", per_request("demand.visited"));
        layers.insert("runtime.par_scopes", per_request("runtime.par_scopes"));
        layers.insert("runtime.steals", per_request("runtime.steals"));
        layers.insert("runtime.tasks", per_request("runtime.tasks"));
        layers.insert("runtime.stalls", pass.stalls as f64);
        let mean_latency = pass.mean_latency_ms();
        let handler_ms = handled.1 / requests / 1e3;
        layers.insert("net.wait_ms", mean_latency - handler_ms);

        // Only the replay records spans with these layer names.
        let (n, values) = self.replay(&sent, trace, Duration::from_secs_f64(seconds / 2.0));
        let n = n.max(1) as f64;
        let span_ms = |name: &str| trace.total_us(name) / n / 1e3;
        let value = |name: &str| values.get(name).copied().unwrap_or(0.0);
        let st_ms = value("chase:st_us") / n / 1e3;
        layers.insert("http.parse_us", span_ms("http.parse") * 1e3);
        layers.insert("parse.ms", span_ms("parse"));
        layers.insert("chase.st_ms", st_ms);
        layers.insert("chase.egd_ms", span_ms("chase") - st_ms);
        layers.insert("enum.ms", span_ms("enum"));
        layers.insert(
            "enum.chase_ms",
            value("enum:session.phase.chase_us") / n / 1e3,
        );
        layers.insert(
            "enum.verify_ms",
            value("enum:session.phase.verify_us") / n / 1e3,
        );
        layers.insert(
            "enum.yield",
            value("enum:verified") / value("enum:session.candidates").max(1.0),
        );
        layers.insert("eval.ms", span_ms("eval"));
        layers.insert("serialize.us", span_ms("serialize") * 1e3);
        // Time the replay's layer spans cover per request, against the
        // handler time the server measured: what the layers leave out
        // (lock waits, scheduling) is unattributed.
        let covered = span_ms("request") - trace.self_time_us("request") / n / 1e3;
        layers.insert(
            "unattributed_share",
            1.0 - (mean_latency - handler_ms + covered) / mean_latency.max(1e-9),
        );
        (pass, layers)
    }

    fn info(&self) -> Vec<(&'static str, Json)> {
        vec![
            (
                "keys_flights",
                Json::Array(
                    self.keys
                        .iter()
                        .map(|k| json::n(k.flights as u64))
                        .collect(),
                ),
            ),
            ("max_sessions", json::n(self.capacity as u64)),
            ("server_workers", json::n(WORKERS as u64)),
            ("server_threads", json::n(1)),
            (
                "connections",
                json::n(CONNECTIONS.min(sys::nproc()).max(1) as u64),
            ),
            (
                "popularity",
                json::s(match self.workload {
                    Workload::ServeChurn => "zipf(1.5)",
                    _ => "uniform",
                }),
            ),
            ("self_test_p50_ms", Json::Number(self.self_test_p50_ms)),
        ]
    }
}
