//! Spans recorded by the harness around its calls into each layer's
//! public functions. Nothing here reaches inside the program: a span is
//! what the harness saw from outside (name, start, end, the span that
//! caused it, the job it belongs to). Spans stay in memory and are
//! written once, when the traced run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id; 0 at the top level.
    pub parent: u64,
    pub name: &'static str,
    /// The job (kernel or rung) the span belongs to; empty when it
    /// covers the whole workload.
    pub job: String,
    pub start: u64,
    pub end: u64,
}

/// The harness thread's recorder. `Recorder::off()` records nothing and
/// costs one branch per call, which is what every end-to-end run uses.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u64>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&self, name: &'static str, job: &str, f: impl FnOnce() -> T) -> T {
        self.span_id(name, job, f).1
    }

    /// As [`Recorder::span`], also returning the span's id (0 when off).
    fn span_id<T>(&self, name: &'static str, job: &str, f: impl FnOnce() -> T) -> (u64, T) {
        if !self.on {
            return (0, f());
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u64 + 1;
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied().unwrap_or(0),
                name,
                job: job.to_string(),
                start: self.now(),
                end: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id as usize - 1].end = self.now();
        (id, out)
    }

    /// A sink for `body` spans recorded on worker threads, sharing this
    /// recorder's clock.
    pub fn body_spans(&self) -> BodySpans {
        BodySpans(Arc::new(BodySink {
            epoch: self.epoch,
            armed: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }))
    }

    /// Runs `f` inside a span and adopts every body span `sink` collects
    /// meanwhile as that span's children.
    pub fn span_with_bodies<T>(
        &self,
        name: &'static str,
        job: &str,
        sink: &BodySpans,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        sink.0.armed.store(true, Ordering::SeqCst);
        let (parent, out) = self.span_id(name, job, f);
        sink.0.armed.store(false, Ordering::SeqCst);
        let bodies = std::mem::take(&mut *sink.0.spans.lock().expect("body sink poisoned"));
        let mut spans = self.spans.borrow_mut();
        for (start, end) in bodies {
            let id = spans.len() as u64 + 1;
            spans.push(Span {
                id,
                parent,
                name: "body",
                job: job.to_string(),
                start,
                end,
            });
        }
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

#[derive(Debug)]
struct BodySink {
    epoch: Instant,
    armed: AtomicBool,
    spans: Mutex<Vec<(u64, u64)>>,
}

/// Handle a ladder body closure uses to record its own span.
#[derive(Clone, Debug)]
pub struct BodySpans(Arc<BodySink>);

impl BodySpans {
    /// Records `started..now` if the harness armed the sink (it does so
    /// only around the traced `exec.run` whose bodies it wants).
    pub fn record(&self, started: Instant) {
        if !self.0.armed.load(Ordering::Relaxed) {
            return;
        }
        let start = started.duration_since(self.0.epoch).as_nanos() as u64;
        let end = self.0.epoch.elapsed().as_nanos() as u64;
        self.0
            .spans
            .lock()
            .expect("body sink poisoned")
            .push((start, end));
    }
}

/// Total and self time of every span name. A span's self time is its
/// duration minus the part of it its children cover (their union, so
/// bodies overlapping on several workers are not counted twice).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTime {
    pub count: u64,
    pub total: u64,
    pub self_time: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        });
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.end - s.start;
        t.self_time += (s.end - s.start).saturating_sub(covered);
    }
    out
}

/// Serialises spans as the `"spans"` and `"self_time"` members of the
/// trace file (without the enclosing braces).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("\"self_time\": {");
    for (i, (name, t)) in self_times(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.count, t.total, t.self_time
        )
        .expect("write to string");
    }
    out.push_str("},\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        write!(
            out,
            "{sep}{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"job\": \"{}\", \"start\": {}, \"end\": {}}}",
            s.id, s.parent, s.name, s.job, s.start, s.end
        )
        .expect("write to string");
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            job: String::new(),
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let rec = Recorder::new(true);
        rec.span("outer", "j", || rec.span("inner", "j", || ()));
        rec.span("second", "", || ());
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 1));
        assert_eq!((spans[2].name, spans[2].parent), ("second", 0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let rec = Recorder::off();
        assert_eq!(rec.span("x", "", || 5), 5);
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with children 10..30, 20..50 (overlapping) and 70..80.
        let spans = vec![
            span(1, 0, "run", 0, 100),
            span(2, 1, "body", 10, 30),
            span(3, 1, "body", 20, 50),
            span(4, 1, "body", 70, 80),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["run"],
            NameTime {
                count: 1,
                total: 100,
                self_time: 50
            }
        );
        assert_eq!(
            t["body"],
            NameTime {
                count: 3,
                total: 60,
                self_time: 60
            }
        );
    }

    #[test]
    fn body_spans_are_adopted_only_while_armed() {
        let rec = Recorder::new(true);
        let sink = rec.body_spans();
        sink.record(Instant::now());
        rec.span_with_bodies("exec.run", "g64.clean", &sink, || {
            sink.record(Instant::now());
            sink.record(Instant::now());
        });
        sink.record(Instant::now());
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[1..].iter().all(|s| s.name == "body" && s.parent == 1));
        let json = spans_json(&spans);
        assert!(json.contains("\"self_time\"") && json.contains("\"name\": \"body\""));
    }
}
