//! The layer replay of the traced run: the same operation the CLI or the
//! server ran, made again in-process through the public functions of each
//! layer, with a span around every call and the gdx-obs registry read on
//! a monotonic clock.
//!
//! A CLI job is replayed in a child process (`perfbench replay <job
//! args>`) at the job's `--threads`, or at the CLI's default worker count
//! without one. The default count is where the runtime can stall, and a
//! child can be killed when it does. Server requests are replayed
//! in-process at one worker, as `gdx serve --threads 1` runs them.

use crate::trace::{Span, Trace};
use gdx_common::json::{self, Json};
use gdx_exchange::representative::RepresentativeOutcome;
use gdx_exchange::{CertainAnswer, ExchangeSession, Existence, Options, Threads};
use gdx_graph::Graph;
use gdx_obs::{MonotonicClock, Obs, Snapshot};
use gdx_query::PreparedQuery;
use gdx_relational::Instance;
use gdx_server::http::{self, ReadOutcome};
use gdx_server::pool::{SessionKey, SessionPool};
use std::collections::{BTreeMap, HashSet};
use std::io::Cursor;
use std::process::ExitCode;
use std::sync::Arc;

/// Registry readings of one replayed operation, keyed by the names the
/// per-layer metrics are built from.
pub type Values = BTreeMap<String, f64>;

fn monotonic() -> Obs {
    Obs::with_clock(Arc::new(MonotonicClock::new()))
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

fn hist_sum(s: &Snapshot, name: &str) -> f64 {
    s.histograms
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, h)| h.sum as f64)
}

fn snapshot(obs: &Obs) -> Snapshot {
    obs.registry()
        .map(gdx_obs::Registry::snapshot)
        .unwrap_or_default()
}

/// The registry readings between two snapshots that the layer metrics
/// use: counters as deltas, phase histograms as summed microseconds.
fn readings(before: &Snapshot, after: &Snapshot) -> Values {
    let mut v = Values::new();
    for name in [
        "chase.firings",
        "egd.merges",
        "session.candidates",
        "demand.visited",
        "runtime.par_scopes",
        "runtime.steals",
        "runtime.tasks",
    ] {
        v.insert(
            name.to_owned(),
            counter(after, name) - counter(before, name),
        );
    }
    for name in [
        "session.phase.freeze_us",
        "session.phase.chase_us",
        "session.phase.verify_us",
        "session.phase.eval_us",
    ] {
        v.insert(
            name.to_owned(),
            hist_sum(after, name) - hist_sum(before, name),
        );
    }
    v
}

fn add_into(into: &mut Values, from: &Values, prefix: &str) {
    for (k, x) in from {
        *into.entry(format!("{prefix}{k}")).or_insert(0.0) += x;
    }
}

/// Flags of a CLI job: `--name value` pairs after the subcommand.
fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.windows(2)
        .find(|w| w[0] == format!("--{name}"))
        .map(|w| w[1].as_str())
        .ok_or_else(|| format!("replay: missing --{name}"))
}

/// Replays one CLI job (`cert-query`, `certain` or `solve`, with the same
/// flags) and returns its spans, relative to the replay's own start, and
/// its registry readings. `enum.*` readings cover the enumeration span
/// only; the rest cover the whole job.
pub fn cli_job(args: &[String]) -> Result<(Trace, Values), String> {
    let err = |e: gdx_common::GdxError| e.to_string();
    let cmd = args.first().ok_or("replay: no subcommand")?.as_str();
    let read = |name: &str| -> Result<String, String> {
        let path = flag(args, name)?;
        std::fs::read_to_string(path).map_err(|e| format!("replay: cannot read {path}: {e}"))
    };
    let (setting_text, instance_text) = (read("setting")?, read("instance")?);
    let max_graphs = match flag(args, "max-graphs") {
        Ok(v) => v.parse().map_err(|_| "replay: bad --max-graphs")?,
        Err(_) => 256,
    };
    let threads = match flag(args, "threads") {
        Ok(v) => Threads::Fixed(v.parse().map_err(|_| "replay: bad --threads")?),
        Err(_) => Threads::Auto,
    };

    let mut t = Trace::new();
    let obs = monotonic();
    let root = t.open("replay", 0, None);

    let span = t.open("parse", 0, Some(root));
    let setting = gdx_mapping::dsl::parse_setting(&setting_text).map_err(err)?;
    let instance = Instance::parse(setting.source.clone(), &instance_text).map_err(err)?;
    enum Query {
        Answers(PreparedQuery),
        Pair(gdx_nre::Nre, String, String),
        Exists,
    }
    let query = match cmd {
        "cert-query" => Query::Answers(PreparedQuery::parse(flag(args, "cnre")?).map_err(err)?),
        "certain" => {
            let nre = gdx_nre::parse::parse_nre(flag(args, "nre")?).map_err(err)?;
            let (c1, c2) = flag(args, "pair")?
                .split_once(',')
                .ok_or("replay: --pair expects c1,c2")?;
            Query::Pair(nre, c1.trim().to_owned(), c2.trim().to_owned())
        }
        "solve" => Query::Exists,
        other => return Err(format!("replay: unsupported job `{other}`")),
    };
    t.close(span);

    // The CLI's options: the job's worker count and candidate cap.
    let mut session = ExchangeSession::new(setting, instance)
        .with_options(
            Options::default()
                .with_max_graphs(max_graphs)
                .with_threads(threads),
        )
        .with_obs(obs.clone());
    let start = snapshot(&obs);

    let span = t.open("chase", 0, Some(root));
    session.representative().map_err(err)?;
    t.close(span);
    let after_chase = snapshot(&obs);

    let span = t.open("enum", 0, Some(root));
    let mut verified = 0.0;
    let mut output = String::new();
    if let Query::Exists = query {
        match session.solution_exists().map_err(err)? {
            Existence::Exists(g) => {
                verified = 1.0;
                output = format!("EXISTS\n{g}");
            }
            Existence::NoSolution => output.push_str("NO SOLUTION\n"),
            Existence::Unknown(why) => output = format!("UNKNOWN ({why})\n"),
        }
    } else {
        for g in session.solutions().map_err(err)? {
            g.map_err(err)?;
            verified += 1.0;
        }
    }
    t.close(span);
    let after_enum = snapshot(&obs);

    let span = t.open("eval", 0, Some(root));
    let answers = match &query {
        Query::Answers(q) => Some((q.variables(), session.certain_answers(q).map_err(err)?)),
        _ => None,
    };
    let verdict = match &query {
        Query::Pair(nre, c1, c2) => Some(session.certain_pair(nre, c1, c2).map_err(err)?),
        _ => None,
    };
    t.close(span);

    let span = t.open("serialize", 0, Some(root));
    if let Some((vars, (rows, exact))) = answers {
        output = answers_text(vars, &rows, exact);
    }
    if let Some(v) = verdict {
        output = verdict_text(&v);
    }
    std::hint::black_box(&output);
    t.close(span);
    t.close(root);

    let end = snapshot(&obs);
    let mut values = readings(&start, &end);
    add_into(&mut values, &readings(&after_chase, &after_enum), "enum:");
    values.insert(
        "chase:st_us".to_owned(),
        hist_sum(&after_chase, "session.phase.freeze_us"),
    );
    values.insert("enum:verified".to_owned(), verified);
    Ok((t, values))
}

/// Certain-answer rows as `gdx cert-query` prints them.
fn answers_text(vars: &[gdx_common::Symbol], rows: &[Vec<gdx_graph::Node>], exact: bool) -> String {
    let mut out = format!(
        "{} certain answer(s){}:\n",
        rows.len(),
        if exact { "" } else { " (within bounds)" }
    );
    for row in rows {
        let cells: Vec<String> = vars
            .iter()
            .zip(row)
            .map(|(v, n)| format!("{v}={n}"))
            .collect();
        out.push_str(&format!("  {}\n", cells.join(", ")));
    }
    out
}

/// A verdict as `gdx certain` prints it.
fn verdict_text(verdict: &CertainAnswer) -> String {
    match verdict {
        CertainAnswer::Certain => "CERTAIN\n".to_owned(),
        CertainAnswer::NotCertain(g) => format!("NOT CERTAIN — counterexample solution:\n{g}"),
        CertainAnswer::Unknown(why) => format!("UNKNOWN ({why})\n"),
    }
}

/// The expected stdout of a `cert-query` job: computed through the session
/// API at one worker, as the CLI would print it.
pub fn expected_cert_query(setting: &str, instance: &str, query: &str) -> Result<String, String> {
    let err = |e: gdx_common::GdxError| e.to_string();
    let setting = gdx_mapping::dsl::parse_setting(setting).map_err(err)?;
    let instance = Instance::parse(setting.source.clone(), instance).map_err(err)?;
    let query = PreparedQuery::parse(query).map_err(err)?;
    let mut session = ExchangeSession::new(setting, instance)
        .with_options(Options::default().with_threads(Threads::Fixed(1)));
    let (rows, exact) = session.certain_answers(&query).map_err(err)?;
    Ok(answers_text(query.variables(), &rows, exact))
}

/// The expected first line of a `certain --nre R --pair c1,c2` job,
/// through the session API at one worker.
pub fn expected_certain_pair(
    setting: &str,
    instance: &str,
    nre: &str,
    c1: &str,
    c2: &str,
) -> Result<String, String> {
    let err = |e: gdx_common::GdxError| e.to_string();
    let setting = gdx_mapping::dsl::parse_setting(setting).map_err(err)?;
    let instance = Instance::parse(setting.source.clone(), instance).map_err(err)?;
    let nre = gdx_nre::parse::parse_nre(nre).map_err(err)?;
    let mut session = ExchangeSession::new(setting, instance)
        .with_options(Options::default().with_threads(Threads::Fixed(1)));
    let verdict = session.certain_pair(&nre, c1, c2).map_err(err)?;
    let text = verdict_text(&verdict);
    Ok(text.lines().next().unwrap_or("").to_owned())
}

/// `perfbench replay <job args>`: replays one CLI job and prints its spans
/// and registry readings as one JSON line.
pub fn child_main(args: &[String]) -> ExitCode {
    match cli_job(args) {
        Ok((trace, values)) => {
            let spans: Vec<Json> = trace
                .spans()
                .iter()
                .map(|s| {
                    Json::Array(vec![
                        json::s(s.name.clone()),
                        s.parent.map_or(Json::Null, |p| json::n(p as u64)),
                        Json::Number(s.start_us),
                        Json::Number(s.end_us),
                    ])
                })
                .collect();
            let values: Vec<(&str, Json)> = values
                .iter()
                .map(|(k, v)| (k.as_str(), Json::Number(*v)))
                .collect();
            println!(
                "{}",
                json::obj(vec![
                    ("spans", Json::Array(spans)),
                    ("values", json::obj(values))
                ])
                .render()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads a replay child's output back: its spans (rebased onto `trace`
/// under `op`) and its readings.
pub fn absorb_child(output: &str, op: u64, trace: &mut Trace) -> Result<Values, String> {
    let doc = json::parse(output.trim()).map_err(|e| format!("replay output: {e}"))?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("replay output: no spans")?;
    let offset = trace.now_us();
    let base = trace.len();
    for s in spans {
        let f = s.as_array().ok_or("replay output: bad span")?;
        let name = f
            .first()
            .and_then(Json::as_str)
            .ok_or("replay: span name")?;
        let parent = f.get(1).and_then(Json::as_f64).map(|p| base + p as usize);
        let start = f
            .get(2)
            .and_then(Json::as_f64)
            .ok_or("replay: span start")?;
        let end = f.get(3).and_then(Json::as_f64).ok_or("replay: span end")?;
        trace.push(Span {
            name: name.to_owned(),
            op,
            parent,
            start_us: offset + start,
            end_us: offset + end,
        });
    }
    Ok(values_of(&doc))
}

/// Reads only the registry readings of a replay child's output.
pub fn child_values(output: &str) -> Result<Values, String> {
    let doc = json::parse(output.trim()).map_err(|e| format!("replay output: {e}"))?;
    Ok(values_of(&doc))
}

fn values_of(doc: &Json) -> Values {
    let mut values = Values::new();
    if let Some(Json::Object(fields)) = doc.get("values") {
        for (k, v) in fields {
            values.insert(k.clone(), v.as_f64().unwrap_or(0.0));
        }
    }
    values
}

/// In-process replay of server requests against a pool of the server's
/// capacity, at one worker.
pub struct ServeReplay {
    pool: SessionPool,
    obs: Obs,
    options: Options,
    /// Sessions whose solution family this replay has enumerated since
    /// they were (re)built.
    enumerated: HashSet<SessionKey>,
}

impl ServeReplay {
    pub fn new(capacity: usize) -> ServeReplay {
        let obs = monotonic();
        ServeReplay {
            pool: SessionPool::new(capacity, obs.clone()),
            obs,
            options: Options::default().with_threads(Threads::Fixed(1)),
            enumerated: HashSet::new(),
        }
    }

    /// Replays one request's bytes as `gdx serve` handles them, one span
    /// per layer under a `request` root: `http.parse`, `parse`, `pool`
    /// (with the session build's parse inside), `chase`, `enum`, `eval` or
    /// `verify`, and `serialize`. Returns the registry readings.
    pub fn request(&mut self, bytes: &[u8], op: u64, t: &mut Trace) -> Result<Values, String> {
        let err = |e: gdx_common::GdxError| e.to_string();
        let before = snapshot(&self.obs);
        let root = t.open("request", op, None);

        let span = t.open("http.parse", op, Some(root));
        let req = match http::read_request(&mut Cursor::new(bytes)).map_err(|e| e.to_string())? {
            ReadOutcome::Request(req) => req,
            _ => return Err("replay: request did not parse".to_owned()),
        };
        t.close(span);

        let span = t.open("parse", op, Some(root));
        let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
        let body = json::parse(text)?;
        let field = |name: &str| body.get(name).and_then(Json::as_str);
        let setting_text: Arc<str> = Arc::from(field("setting").ok_or("no setting")?);
        let instance_text: Arc<str> = Arc::from(field("instance").ok_or("no instance")?);
        let kind = req.path.as_str();
        let query = match field("query") {
            Some(q) => Some(PreparedQuery::parse(q).map_err(err)?),
            None => None,
        };
        let graph = match field("graph") {
            Some(g) => Some(Graph::parse(g).map_err(err)?),
            None => None,
        };
        t.close(span);

        let mut options = self.options;
        if let Some(n) = body
            .get("options")
            .and_then(|o| o.get("max_graphs"))
            .and_then(Json::as_f64)
        {
            options.instantiation.max_graphs = n as usize;
        }
        let key = SessionKey::new(setting_text.clone(), instance_text.clone(), &options);
        let span = t.open("pool", op, Some(root));
        let mut built = false;
        let obs = self.obs.clone();
        let session = {
            let t = &mut *t;
            self.pool
                .checkout(&key, || {
                    built = true;
                    let build = t.open("parse", op, Some(span));
                    let setting = gdx_mapping::dsl::parse_setting(&setting_text)?;
                    let instance = Instance::parse(setting.source.clone(), &instance_text)?;
                    t.close(build);
                    Ok(ExchangeSession::new(setting, instance)
                        .with_options(options)
                        .with_obs(obs))
                })
                .map_err(err)?
        };
        t.close(span);
        if built {
            self.enumerated.remove(&key);
        }
        let mut session = session.lock().unwrap_or_else(|e| e.into_inner());

        let span = t.open("chase", op, Some(root));
        let failed = matches!(
            session.representative().map_err(err)?,
            RepresentativeOutcome::ChaseFailed
        );
        t.close(span);
        let after_chase = snapshot(&self.obs);

        let span = t.open("enum", op, Some(root));
        let mut verified = 0.0;
        let mut streamed = Vec::new();
        if kind == "/v1/solutions" {
            let limit = body.get("limit").and_then(Json::as_f64).unwrap_or(f64::MAX);
            let mut stream = session.solutions().map_err(err)?;
            while (streamed.len() as f64) < limit {
                match stream.next() {
                    Some(g) => streamed.push(g.map_err(err)?.to_string()),
                    None => break,
                }
            }
        } else if kind != "/v1/is_solution" && !failed && self.enumerated.insert(key) {
            for g in session.solutions().map_err(err)? {
                g.map_err(err)?;
                verified += 1.0;
            }
        }
        t.close(span);
        let after_enum = snapshot(&self.obs);

        let mut body_out: Vec<u8> = Vec::new();
        let mut content_type = "application/json";
        match (kind, &query, &graph) {
            ("/v1/certain", Some(q), _) => {
                let span = t.open("eval", op, Some(root));
                let verdict = session.certain(q).map_err(err)?;
                t.close(span);
                let span = t.open("serialize", op, Some(root));
                let fields = match verdict {
                    CertainAnswer::Certain => vec![("verdict", json::s("certain"))],
                    CertainAnswer::NotCertain(g) => vec![
                        ("verdict", json::s("not_certain")),
                        ("counterexample", json::s(g.to_string())),
                    ],
                    CertainAnswer::Unknown(r) => {
                        vec![("verdict", json::s("unknown")), ("reason", json::s(r))]
                    }
                };
                body_out = json::obj(fields).render().into_bytes();
                t.close(span);
            }
            ("/v1/certain_answers", Some(q), _) => {
                let span = t.open("eval", op, Some(root));
                let (rows, exact) = session.certain_answers(q).map_err(err)?;
                t.close(span);
                let span = t.open("serialize", op, Some(root));
                let rendered: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| r.iter().map(|n| n.name().as_str().to_owned()).collect())
                    .collect();
                if field("format") == Some("binary") {
                    content_type = "application/x-gdx-rows";
                    body_out = gdx_server::wire::encode_rows(&rendered, exact);
                } else {
                    let rows = rendered
                        .into_iter()
                        .map(|r| Json::Array(r.into_iter().map(Json::String).collect()))
                        .collect();
                    body_out = json::obj(vec![
                        ("rows", Json::Array(rows)),
                        ("exact", Json::Bool(exact)),
                    ])
                    .render()
                    .into_bytes();
                }
                t.close(span);
            }
            ("/v1/is_solution", _, Some(g)) => {
                let span = t.open("verify", op, Some(root));
                let ok = session.is_solution(g).map_err(err)?;
                t.close(span);
                let span = t.open("serialize", op, Some(root));
                body_out = json::obj(vec![("solution", Json::Bool(ok))])
                    .render()
                    .into_bytes();
                t.close(span);
            }
            ("/v1/solutions", _, _) => {
                let span = t.open("serialize", op, Some(root));
                for g in &streamed {
                    body_out.extend_from_slice(
                        json::obj(vec![("solution", json::s(g.clone()))])
                            .render()
                            .as_bytes(),
                    );
                    body_out.push(b'\n');
                }
                t.close(span);
            }
            _ => return Err(format!("replay: unsupported request {kind}")),
        }
        let span = t.open("serialize", op, Some(root));
        let mut wire = Vec::with_capacity(body_out.len() + 128);
        http::write_response(&mut wire, 200, content_type, &[], &body_out)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(&wire);
        t.close(span);
        t.close(root);
        drop(session);

        let end = snapshot(&self.obs);
        let mut values = readings(&before, &end);
        add_into(&mut values, &readings(&after_chase, &after_enum), "enum:");
        values.insert(
            "chase:st_us".to_owned(),
            hist_sum(&after_chase, "session.phase.freeze_us")
                - hist_sum(&before, "session.phase.freeze_us"),
        );
        values.insert("enum:verified".to_owned(), verified);
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn cli_replay_answers_like_the_expectation() {
        let dir = std::env::temp_dir().join(format!("perfbench-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (s, i) = (dir.join("s.gdx"), dir.join("i.facts"));
        std::fs::write(&s, inputs::EX22_SETTING).unwrap();
        std::fs::write(&i, inputs::EX22_INSTANCE).unwrap();
        let args: Vec<String> = [
            "cert-query",
            "--setting",
            s.to_str().unwrap(),
            "--instance",
            i.to_str().unwrap(),
            "--cnre",
            inputs::PAPER_QUERY,
        ]
        .iter()
        .map(|x| x.to_string())
        .collect();
        let (trace, values) = cli_job(&args).unwrap();
        for name in ["replay", "parse", "chase", "enum", "eval", "serialize"] {
            assert!(trace.total_us(name) >= 0.0);
            assert!(trace.spans().iter().any(|sp| sp.name == name), "{name}");
        }
        assert!(values["enum:session.candidates"] >= 1.0);
        let expected = expected_cert_query(
            inputs::EX22_SETTING,
            inputs::EX22_INSTANCE,
            inputs::PAPER_QUERY,
        )
        .unwrap();
        assert!(expected.contains("certain answer(s)"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_replay_hits_after_the_first_request() {
        let body = json::obj(vec![
            ("setting", json::s(inputs::EX22_SETTING)),
            ("instance", json::s(inputs::EX22_INSTANCE)),
            ("query", json::s(inputs::PAPER_QUERY)),
        ])
        .render();
        let bytes = crate::client::post("/v1/certain_answers", "application/json", &body);
        let mut replay = ServeReplay::new(4);
        let mut t = Trace::new();
        let cold = replay.request(&bytes, 0, &mut t).unwrap();
        let warm = replay.request(&bytes, 1, &mut t).unwrap();
        assert!(cold["enum:session.candidates"] >= 1.0);
        assert_eq!(warm["enum:session.candidates"], 0.0);
        assert!(t.total_us("eval") > 0.0);
    }
}
