//! In-memory spans of the traced pass, written out when the run ends.
//!
//! A span is one timed call (or loop of calls) into a layer: its name,
//! start and end, the span that caused it, and the study it belongs to.
//! `calls` and `busy_ns` count the layer calls the span covers, so ratios
//! are taken where the work happens.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub study: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

/// The spans of one study, measured against one origin instant.
pub struct SpanLog {
    study: u32,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(study: u32) -> SpanLog {
        SpanLog {
            study,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the log's origin to `at`.
    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn push(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u64,
        busy_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            study: self.study,
            parent,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            calls,
            busy_ns,
        });
        id
    }

    /// Reserve an id for a span whose children are recorded before it
    /// ends; [`SpanLog::close`] fills in its end.
    pub fn open(&mut self, parent: Option<u32>, name: &'static str) -> u32 {
        let now = Instant::now();
        self.push(parent, name, now, now, 0, 0)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.offset(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"study\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}}}",
                s.id, s.study, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_offsets_and_parents() {
        let mut log = SpanLog::new(1);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = log.push(None, "study", ms(0), ms(10), 0, 0);
        let child = log.push(Some(root), "a", ms(1), ms(4), 3, 2_000_000);
        let spans = log.spans();
        assert_eq!((root, child), (1, 2));
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].end_ns - spans[1].start_ns, 3_000_000);
        assert_eq!(spans[0].end_ns - spans[0].start_ns, 10_000_000);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut log = SpanLog::new(7);
        let root = log.open(None, "study");
        log.push(Some(root), "a", Instant::now(), Instant::now(), 2, 5);
        log.close(root);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"id\": 1, \"study\": 7, \"parent\": null, \"name\": \"study\""));
        assert!(lines[1].contains("\"study\": 7, \"parent\": 1, \"name\": \"a\""));
        assert!(lines[1].ends_with("\"calls\": 2, \"busy_ns\": 5}"));
    }
}
