//! In-memory span recorder of the traced run, written out once at the end.
//!
//! A span is a named interval around one call into a layer, tied to the
//! operation (CLI job or HTTP request) it served and to the span that
//! caused it. A layer's self time is its duration minus the part its
//! child spans cover.

use gdx_common::json::{self, Json};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Operation id: the CLI job or request this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the trace began.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.push(Span {
            name: name.to_owned(),
            op,
            parent,
            start_us: now,
            end_us: now,
        })
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_us();
        self.spans[id].end_us = now;
    }

    /// Adds a finished span (e.g. one recorded by a child process).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time (µs) of the spans called `name`: each span's
    /// duration minus that of its direct children.
    pub fn self_time_us(&self, name: &str) -> f64 {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration_us();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration_us() - child_time[i])
            .sum()
    }

    /// Total duration (µs) of the spans called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .sum()
    }

    /// One JSON object per span, one per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = json::obj(vec![
                ("id", json::n(i as u64)),
                ("name", json::s(s.name.clone())),
                ("op", json::n(s.op)),
                ("parent", s.parent.map_or(Json::Null, |p| json::n(p as u64))),
                ("start_us", Json::Number(s.start_us)),
                ("end_us", Json::Number(s.end_us)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.to_owned(),
            op: 0,
            parent,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Trace::new();
        let root = t.push(span("op", None, 0.0, 100.0));
        let a = t.push(span("a", Some(root), 10.0, 40.0));
        t.push(span("b", Some(a), 15.0, 25.0));
        t.push(span("a", Some(root), 50.0, 60.0));
        assert_eq!(t.self_time_us("op"), 60.0);
        assert_eq!(t.self_time_us("a"), 30.0);
        assert_eq!(t.total_us("a"), 40.0);
        assert_eq!(t.self_time_us("missing"), 0.0);
    }
}
