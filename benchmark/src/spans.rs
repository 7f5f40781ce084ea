//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Spans are kept in memory and written once, as Chrome-trace JSON, when the
//! benchmark ends. Only the traced run records them: the end-to-end numbers
//! come from runs with `Spans::off()`.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a workload's root.
    pub parent: Option<usize>,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn on() -> Spans {
        Spans {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::on()
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
    /// per span, with its id and parent in `args`.
    pub fn chrome_json(&self) -> Json {
        let self_ns = self.self_ns();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Int(id as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                            ),
                            ("self_us", Json::Num(self_ns[id] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_link_to_their_parent() {
        let mut s = Spans::on();
        s.scope("root", |s| {
            s.scope("a", |_| {});
            s.scope("b", |s| s.scope("c", |_| {}));
        });
        let names: Vec<_> = s.spans().iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["root", "a", "b", "c"]);
        let parents: Vec<_> = s.spans().iter().map(|x| x.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        for x in s.spans() {
            assert!(x.end_ns >= x.start_ns);
        }
        let root = &s.spans()[0];
        assert!(s.self_ns()[0] <= root.end_ns - root.start_ns);
    }

    #[test]
    fn off_records_nothing_but_still_runs_the_body() {
        let mut s = Spans::off();
        assert_eq!(s.scope("x", |_| 7), 7);
        assert!(s.spans().is_empty());
    }
}
