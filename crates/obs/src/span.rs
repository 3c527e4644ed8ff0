//! Hierarchical spans on a deterministic virtual clock.
//!
//! The recorder keeps two clocks, neither of which reads wall time:
//!
//! * a **tick** counter that advances by exactly one on every span
//!   begin and every span end — so durations are reproducible and the
//!   sum of child durations can never exceed the parent's;
//! * a **virtual millisecond** counter that only moves when the caller
//!   syncs it (the controller feeds it from its fault-injection
//!   [`VirtualClock`], which advances on retry backoff).
//!
//! Spans form a tree via an explicit stack: `enter` pushes, the
//! returned [`ScopedSpan`] guard pops on drop. Ending a span that is
//! not on top force-closes everything above it (at the same tick) and
//! counts a mis-nesting, so a bug in instrumentation degrades telemetry
//! instead of corrupting it.
//!
//! [`VirtualClock`]: https://docs.rs/flowplace-ctrl

use std::cell::RefCell;
use std::fmt;

/// Handle to a span recorded by a [`Recorder`]; stable for the lifetime
/// of the recorder (it is the span's index in the trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// One recorded span: name, tree position, clock readings, attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanData {
    /// Span name, dot-separated by convention (`"pipeline.depgraphs"`).
    pub name: String,
    /// Parent span, `None` for roots.
    pub parent: Option<SpanId>,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Tick at which the span began.
    pub start_tick: u64,
    /// Tick at which the span ended; `None` while still open.
    pub end_tick: Option<u64>,
    /// Virtual-millisecond reading at begin.
    pub start_ms: u64,
    /// Virtual-millisecond reading at end; `None` while still open.
    pub end_ms: Option<u64>,
    /// Attributes as text, in insertion order (first write per key
    /// wins the position, later writes overwrite the value).
    pub attrs: Vec<(String, String)>,
}

impl SpanData {
    /// Length in ticks, if the span has ended.
    pub fn duration_ticks(&self) -> Option<u64> {
        self.end_tick.map(|end| end - self.start_tick)
    }

    /// Length in virtual milliseconds, if the span has ended.
    pub fn duration_ms(&self) -> Option<u64> {
        self.end_ms.map(|end| end - self.start_ms)
    }
}

/// A whole trace: what [`Recorder::doc`] returns, what the canonical
/// dump serializes, and what [`validate_obs_json`] reads back.
///
/// [`validate_obs_json`]: crate::validate_obs_json
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDoc {
    /// Tick-clock reading at dump time.
    pub final_tick: u64,
    /// Virtual-millisecond reading at dump time.
    pub final_virtual_ms: u64,
    /// Mis-nested `end` calls absorbed by the recorder.
    pub mis_nested: u64,
    /// All spans, in begin order (= id order).
    pub spans: Vec<SpanData>,
}

#[derive(Clone, Debug, Default)]
struct Inner {
    tick: u64,
    virtual_ms: u64,
    spans: Vec<SpanData>,
    stack: Vec<SpanId>,
    mis_nested: u64,
}

/// Deterministic span recorder; [`Recorder::doc`] is the trace the
/// canonical dump serializes. All methods take `&self`; state lives
/// behind a `RefCell` so instrumented call sites stay borrow-friendly.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: RefCell<Inner>,
}

impl Recorder {
    /// Creates an empty recorder with both clocks at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins a span named `name` as a child of the innermost open
    /// span, consuming one tick. Prefer [`Recorder::enter`] unless the
    /// matching [`Recorder::end`] cannot be expressed as a scope.
    pub fn begin(&self, name: &str) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        inner.tick += 1;
        let id = SpanId(inner.spans.len() as u64);
        let parent = inner.stack.last().copied();
        let depth = inner.stack.len();
        let span = SpanData {
            name: name.to_string(),
            parent,
            depth,
            start_tick: inner.tick,
            end_tick: None,
            start_ms: inner.virtual_ms,
            end_ms: None,
            attrs: Vec::new(),
        };
        inner.spans.push(span);
        inner.stack.push(id);
        id
    }

    /// Ends `span`, consuming one tick. If `span` is not the innermost
    /// open span, every span nested inside it is force-closed at the
    /// same tick and one mis-nesting is counted per forced close;
    /// ending an already-closed span only counts a mis-nesting.
    pub fn end(&self, span: SpanId) {
        let mut inner = self.inner.borrow_mut();
        if !inner.stack.contains(&span) {
            inner.mis_nested += 1;
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let ms = inner.virtual_ms;
        while let Some(top) = inner.stack.pop() {
            let idx = top.0 as usize;
            inner.spans[idx].end_tick = Some(tick);
            inner.spans[idx].end_ms = Some(ms);
            if top == span {
                break;
            }
            inner.mis_nested += 1;
        }
    }

    /// Begins a span and returns a guard that ends it on drop.
    pub fn enter(&self, name: &str) -> ScopedSpan<'_> {
        let id = self.begin(name);
        ScopedSpan { recorder: self, id }
    }

    /// Attaches (or overwrites) attribute `key` on `span`, stored as
    /// the value's `Display` text.
    pub fn attr(&self, span: SpanId, key: &str, value: impl fmt::Display) {
        let mut inner = self.inner.borrow_mut();
        let idx = span.0 as usize;
        let value = value.to_string();
        if let Some(slot) = inner.spans[idx].attrs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            inner.spans[idx].attrs.push((key.to_string(), value));
        }
    }

    /// Advances the virtual-millisecond clock to `ms` if `ms` is ahead
    /// of it (monotone; never moves backwards).
    pub fn set_virtual_ms(&self, ms: u64) {
        let mut inner = self.inner.borrow_mut();
        if ms > inner.virtual_ms {
            inner.virtual_ms = ms;
        }
    }

    /// Number of currently open spans.
    pub fn open_count(&self) -> usize {
        self.inner.borrow().stack.len()
    }

    /// Number of mis-nested `end` calls absorbed so far (0 in a
    /// correctly instrumented program).
    pub fn mis_nested(&self) -> u64 {
        self.inner.borrow().mis_nested
    }

    /// Snapshot of the trace: every span (open or closed) and both
    /// clock readings.
    pub fn doc(&self) -> TraceDoc {
        let inner = self.inner.borrow();
        TraceDoc {
            final_tick: inner.tick,
            final_virtual_ms: inner.virtual_ms,
            mis_nested: inner.mis_nested,
            spans: inner.spans.clone(),
        }
    }
}

/// RAII guard for a span opened with [`Recorder::enter`]: the span ends
/// when the guard drops.
#[derive(Debug)]
pub struct ScopedSpan<'a> {
    recorder: &'a Recorder,
    id: SpanId,
}

impl ScopedSpan<'_> {
    /// The underlying span id (e.g. to attach attributes later).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attaches (or overwrites) attribute `key` on this span.
    pub fn attr(&self, key: &str, value: impl fmt::Display) {
        self.recorder.attr(self.id, key, value);
    }
}

impl Drop for ScopedSpan<'_> {
    fn drop(&mut self) {
        self.recorder.end(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let rec = Recorder::new();
        let a = rec.begin("a");
        let b = rec.begin("b");
        rec.end(b);
        rec.end(a);
        let spans = rec.doc().spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].parent, Some(a));
        assert_eq!(spans[1].depth, 1);
        // a: ticks 1..4, b: ticks 2..3.
        assert_eq!(spans[0].start_tick, 1);
        assert_eq!(spans[0].end_tick, Some(4));
        assert_eq!(spans[1].start_tick, 2);
        assert_eq!(spans[1].end_tick, Some(3));
        assert!(spans[1].duration_ticks() < spans[0].duration_ticks());
        assert_eq!(rec.mis_nested(), 0);
        assert_eq!(rec.open_count(), 0);
    }

    #[test]
    fn scoped_guard_ends_on_drop() {
        let rec = Recorder::new();
        {
            let root = rec.enter("root");
            root.attr("k", 7u64);
            let _child = rec.enter("child");
        }
        assert_eq!(rec.open_count(), 0);
        let spans = rec.doc().spans;
        assert!(spans.iter().all(|s| s.end_tick.is_some()));
        assert_eq!(spans[0].attrs, vec![("k".to_string(), "7".to_string())]);
    }

    #[test]
    fn mis_nested_end_force_closes_children() {
        let rec = Recorder::new();
        let a = rec.begin("a");
        let b = rec.begin("b");
        rec.end(a); // b never explicitly ended
        assert_eq!(rec.mis_nested(), 1);
        assert_eq!(rec.open_count(), 0);
        let spans = rec.doc().spans;
        assert_eq!(spans[1].end_tick, spans[0].end_tick);
        rec.end(b); // already closed: absorbed, counted
        assert_eq!(rec.mis_nested(), 2);
    }

    #[test]
    fn virtual_ms_is_monotone_and_stamped() {
        let rec = Recorder::new();
        rec.set_virtual_ms(10);
        let a = rec.begin("a");
        rec.set_virtual_ms(25);
        rec.set_virtual_ms(5); // ignored: behind
        rec.end(a);
        let spans = rec.doc().spans;
        assert_eq!(spans[0].start_ms, 10);
        assert_eq!(spans[0].end_ms, Some(25));
        assert_eq!(spans[0].duration_ms(), Some(15));
        assert_eq!(rec.doc().final_virtual_ms, 25);
    }

    #[test]
    fn attr_overwrites_in_place() {
        let rec = Recorder::new();
        let a = rec.begin("a");
        rec.attr(a, "x", 1u64);
        rec.attr(a, "y", "first");
        rec.attr(a, "x", 2u64);
        rec.end(a);
        let spans = rec.doc().spans;
        assert_eq!(
            spans[0].attrs,
            vec![
                ("x".to_string(), "2".to_string()),
                ("y".to_string(), "first".to_string()),
            ]
        );
    }
}
