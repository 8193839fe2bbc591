//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. Spans of one analysis share a request id; a span's
//! parent is the span open when it started. Nothing is written until
//! [`Recorder::write_json`] runs at the end of the benchmark.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end.saturating_duration_since(self.start).as_nanos() as u64
    }
}

/// A single-threaded span recorder. When disabled, [`Recorder::time`]
/// runs its closure and records nothing.
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request id for the spans that follow.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Records a call timed elsewhere — an engine batch, a daemon
    /// request — as a top-level span with a request id of its own.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.next_request();
            self.spans.push(Span {
                name,
                request: self.request,
                parent: None,
                start,
                end,
            });
        }
    }

    /// Runs `f` inside a span named `name`, returning its result and
    /// its wall time in nanoseconds (measured whether or not spans are
    /// recorded).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, u64) {
        let t0 = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, t0.elapsed().as_nanos() as u64);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start: t0,
            end: t0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = Instant::now();
        self.spans[idx].end = end;
        (out, end.duration_since(t0).as_nanos() as u64)
    }

    /// Per span name: `(calls, total ns, self ns)`, where self time is
    /// the span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.ns();
            let e = table.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child_ns[i]);
        }
        table
    }

    /// Renders the self-time table, largest self time first.
    pub fn render_table(&self, title: &str) -> String {
        let table = self.self_times();
        let total_self: u64 = table.values().map(|v| v.2).sum::<u64>().max(1);
        let mut rows: Vec<_> = table.into_iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1 .2));
        let mut out = format!(
            "self time by layer ({title})\n{:<22} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "calls", "total ms", "self ms", "self %"
        );
        for (name, (calls, total, own)) in rows {
            out.push_str(&format!(
                "{:<22} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                calls,
                total as f64 / 1e6,
                own as f64 / 1e6,
                100.0 * own as f64 / total_self as f64
            ));
        }
        out
    }

    /// Writes every span as a JSON array of
    /// `{"id","name","request","parent","start_ns","end_ns"}` objects,
    /// times counted from the earliest span's start.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(epoch) = self.spans.iter().map(|s| s.start).min() else {
            return std::fs::write(path, "[]\n");
        };
        let ns = |t: Instant| t.duration_since(epoch).as_nanos();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.name,
                s.request,
                ns(s.start),
                ns(s.end),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.next_request();
        r.time("outer", |r| {
            r.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = r.self_times();
        let (calls, total, own) = t["outer"];
        assert_eq!(calls, 1);
        assert!(own < total);
        assert_eq!(total - own, t["inner"].1);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans.iter().all(|s| s.request == 1));
    }

    #[test]
    fn recorded_calls_get_their_own_request() {
        let mut r = Recorder::new(true);
        let t0 = Instant::now();
        r.record(
            "serve.analyze",
            t0,
            t0 + std::time::Duration::from_millis(3),
        );
        r.record(
            "serve.analyze",
            t0,
            t0 + std::time::Duration::from_millis(1),
        );
        assert_eq!(r.self_times()["serve.analyze"], (2, 4_000_000, 4_000_000));
        assert_eq!((r.spans[0].request, r.spans[1].request), (1, 2));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let (v, _) = r.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(r.self_times().is_empty());
    }
}
