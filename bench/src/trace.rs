//! In-memory spans recorded by the harness around its calls into the
//! crates. Nothing here touches the crates themselves: a span is opened
//! and closed in `bench/` code, kept in a vector, and written out once
//! at exit.

use std::io::Write;
use std::time::Instant;

/// One recorded span. `parent` indexes the span that caused it; spans
/// of one operation (a query, a window boundary) share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. While disabled, [`Tracer::span`] only runs its body,
/// which is how the traced pass measures its own overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`, child of whichever span
    /// is open.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        body: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return body(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        let out = body(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        out
    }

    /// Writes the spans as a JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Per span, the part of its interval that its direct children cover.
/// Children may overlap one another (and, for spans stitched together
/// from several threads, stick out of the parent); covered time is the
/// length of the union of their intervals clipped to the parent.
pub fn child_covered_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                kids[p as usize].push((lo, hi));
            }
        }
    }
    kids.into_iter()
        .map(|mut iv| {
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in iv {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            covered
        })
        .collect()
}

/// A span's self time: its duration minus what its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    child_covered_ns(spans)
        .iter()
        .zip(spans)
        .map(|(&covered, s)| s.duration_ns() - covered)
        .collect()
}

/// Share of the time of the operation spans named `root` that their
/// children account for.
pub fn coverage_ratio(spans: &[Span], root: &str) -> f64 {
    let covered = child_covered_ns(spans);
    let (mut total, mut inside) = (0u64, 0u64);
    for (s, c) in spans.iter().zip(covered) {
        if s.parent.is_none() && s.name == root {
            total += s.duration_ns();
            inside += c;
        }
    }
    if total == 0 {
        0.0
    } else {
        inside as f64 / total as f64
    }
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(slot) => {
                slot.1 += t;
                slot.2 += 1;
            }
            None => out.push((s.name, t, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 and sticks 20 out of the parent.
            span("b", 30, 120, Some(0)),
            span("a.inner", 12, 20, Some(1)),
            // Entirely inside `a`: adds nothing to the union.
            span("c", 15, 35, Some(0)),
        ];
        let covered = child_covered_ns(&spans);
        assert_eq!(covered[0], 90, "union of [10,40) ∪ [30,100) ∪ [15,35)");
        assert_eq!(covered[1], 8);
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 10);
        assert_eq!(own[1], 22);
        assert_eq!(own[2], 90);
        assert_eq!(own[3], 8);
        assert!((coverage_ratio(&spans, "op") - 0.9).abs() < 1e-12);
        assert_eq!(coverage_ratio(&spans, "other"), 0.0);
    }

    #[test]
    fn tracer_nests_and_can_be_switched_off() {
        let mut t = Tracer::new();
        let v = t.span("op", 7, |t| {
            t.span("child", 7, |_| 1) + t.span("child", 7, |_| 2)
        });
        assert_eq!(v, 3);
        t.set_enabled(false);
        t.span("ignored", 8, |t| t.span("ignored.child", 8, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        let by_name = self_time_by_name(spans);
        assert_eq!(by_name.len(), 2);
        assert_eq!(by_name[1].2, 2);
    }
}
