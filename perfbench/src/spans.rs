//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! of one transaction share its id as their key, spans of one block share
//! its number. They are kept in memory while the run measures, written as
//! JSON lines at the end, and reduced to self times: a span's duration
//! minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded interval. Times are offsets from the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `tagging` or `store.append`.
    pub name: &'static str,
    /// Transaction id or block number the span belongs to.
    pub key: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start offset from the epoch.
    pub start: Duration,
    /// End offset from the epoch.
    pub end: Duration,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store. A disabled recorder takes no clock readings and
/// keeps nothing, so the same code path can run with tracing off to
/// measure what tracing costs.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose offsets count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Reserves room for `n` more spans, so recording does not reallocate.
    pub fn reserve(&mut self, n: usize) {
        if self.enabled {
            self.spans.reserve(n);
        }
    }

    /// Opens a span starting now; close it with [`Recorder::close`].
    /// Returns `None` when recording is off.
    #[inline]
    pub fn open(&mut self, name: &'static str, key: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            key,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends an open span now.
    #[inline]
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed();
        }
    }

    /// Adds a span measured elsewhere (another thread, or a callback)
    /// from its two instants.
    pub fn push(
        &mut self,
        name: &'static str,
        key: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            key,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        Some(self.spans.len() - 1)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"key\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.key,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval (children
/// on other threads may overlap one another or outlive their parent).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            key: 0,
            parent,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100 ─┬─ a 10..40 ── c 15..25
        //              └─ b 50..70
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 70),
            span("c", Some(1), 15, 25),
        ];
        let own: Vec<u64> = self_times(&spans)
            .iter()
            .map(|d| d.as_micros() as u64)
            .collect();
        assert_eq!(own, vec![50, 20, 20, 10]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children on two threads overlap (20..60 and 40..80) and one
        // runs past the parent's end (90..130): covered = 20..80 + 90..100.
        let spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 20, 60),
            span("y", Some(0), 40, 80),
            span("z", Some(0), 90, 130),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_micros(30));
        let by_name = self_ms_by_name(&spans);
        assert!((by_name["root"] - 0.030).abs() < 1e-12);
        assert!((by_name["z"] - 0.040).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        let id = rec.open("x", 1, None);
        rec.close(id);
        assert_eq!(id, None);
        assert!(rec.spans().is_empty());

        let mut rec = Recorder::new(Instant::now(), true);
        let root = rec.open("root", 7, None);
        let child = rec.open("child", 7, root);
        rec.close(child);
        rec.close(root);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, root);
        assert!(rec.spans()[0].end >= rec.spans()[1].end);
    }
}
