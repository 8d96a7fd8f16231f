//! In-memory spans recorded around the calls the benchmark makes into each
//! layer. Spans of one request share its id; a span's parent is the span
//! that caused it. They are written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, request: u64, parent: Option<usize>, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, parent, name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: (calls, summed self time in ns).
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
        }
        out
    }

    /// The spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"request\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    s.request, s.id, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 0,
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Tracer::new();
        t.spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),  // overlaps span 1
            span(3, Some(0), 90, 120), // runs past its parent
            span(4, Some(1), 10, 15),
        ];
        assert_eq!(t.self_times_ns(), vec![100 - 40 - 10, 15, 30, 30, 5]);
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let root = t.open(7, None, "query");
        let v = t.span(7, Some(root), "child", || 3);
        t.close(root);
        assert_eq!(v, 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        let json = t.to_json();
        assert!(json.contains("\"name\": \"child\"") && json.contains("\"parent\": 0"));
        assert_eq!(t.self_time_by_name()["query"].0, 1);
    }
}
