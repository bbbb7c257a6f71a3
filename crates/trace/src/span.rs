//! RAII span tracing over the journal: nested wall-time scopes with
//! stable ids, emitted as `span.open` / `span.close` events.
//!
//! A [`Span`] is opened with [`crate::Journal::span`] and closed on
//! drop. Each span records
//!
//! - `name`: the scope (e.g. `flow.place`, `gwtw.round`);
//! - `id`: per-journal open-order index (deterministic for a fixed
//!   seed, unlike wall-clock times);
//! - `parent`: the id of the innermost open span on the same thread and
//!   journal, `-1` for roots;
//! - `depth`: nesting depth (0 for roots);
//! - `secs` (close only): elapsed wall time.
//!
//! Parentage is tracked per thread with a thread-local stack keyed by
//! the journal's process-unique id, so two journals instrumenting the
//! same code never cross-link. Spans on plain `std::thread` threads
//! root independently; an executor moving work to pool workers can
//! preserve nesting by snapshotting the spawning thread's stack with
//! [`SpanStack::capture`] and entering it around the task with
//! [`SpanStack::enter`]. Every `span.open`/`span.close` event carries a
//! `thread` field naming the thread it happened on, so per-worker
//! attribution survives into offline analysis (`ifjournal summary
//! --by-thread` charges a span's self-time to that thread).
//!
//! A [`Span`] is not `Send`: it opens, runs and closes on one thread,
//! so its drop always pops its own entry from that thread's stack, and
//! the close carries the same `thread` label as the open. Work that
//! moves to another thread opens its own span there.
//!
//! Close events also feed the `span.<name>.secs` histogram, which flows
//! into any attached [`crate::TelemetryRegistry`] live.
//!
//! The `ifjournal flame` subcommand folds these events into
//! flamegraph-compatible stacks ([`crate::analyze::SpanCollector::flame_folded`]).

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::Journal;

thread_local! {
    /// Stack of `(journal id, span id)` for the spans currently open on
    /// this thread. The journal id is process-unique for the lifetime
    /// of the program (a monotone counter, not an address), so entries
    /// can never alias a later journal.
    static OPEN_SPANS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The label `span.open`/`span.close` events carry in their `thread`
/// field: the OS thread name (`main`, a pool worker like `ifw-3`, the
/// test name under the libtest harness), or `unnamed` for anonymous
/// threads.
#[must_use]
pub fn thread_label() -> String {
    std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_owned()
}

/// A snapshot of the open-span stack of one thread, used to carry span
/// parentage across threads: an executor captures the stack on the
/// spawning thread ([`SpanStack::capture`]) and replays it around the
/// task body on the worker ([`SpanStack::enter`]), so spans the task
/// opens nest under the spawning span instead of becoming depth-0
/// roots.
///
/// The snapshot stores journal ids without holding the journals alive;
/// the caller must guarantee the captured spans outlive every `enter`
/// (an executor whose scope blocks until all tasks finish does, because
/// the spawning thread keeps the span guards — and through them the
/// journals — alive).
#[derive(Debug, Clone, Default)]
pub struct SpanStack {
    entries: Vec<(u64, u64)>,
}

impl SpanStack {
    /// Snapshots the current thread's open-span stack.
    #[must_use]
    pub fn capture() -> Self {
        OPEN_SPANS.with(|stack| Self {
            entries: stack.borrow().clone(),
        })
    }

    /// Runs `f` with this snapshot installed as the current thread's
    /// open-span stack, restoring the previous stack afterwards (also
    /// on panic). Replacing — not appending — keeps re-entry on the
    /// spawning thread (a caller executing its own queued task while it
    /// waits) from double-counting the spans already open there.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Vec<(u64, u64)>);
        impl Drop for Restore {
            fn drop(&mut self) {
                OPEN_SPANS.with(|stack| *stack.borrow_mut() = std::mem::take(&mut self.0));
            }
        }
        let previous = OPEN_SPANS
            .with(|stack| std::mem::replace(&mut *stack.borrow_mut(), self.entries.clone()));
        let _restore = Restore(previous);
        f()
    }

    /// Number of open spans in the snapshot (over all journals).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no open spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An open span; closing (dropping) it emits the `span.close` event.
/// Spans from a disabled journal are inert.
///
/// A span closes on the thread that opened it, so it cannot be moved
/// to another thread:
///
/// ```compile_fail
/// let journal = ideaflow_trace::Journal::in_memory("run");
/// let span = journal.span("stage");
/// std::thread::spawn(move || drop(span));
/// ```
#[derive(Debug)]
pub struct Span {
    journal: Journal,
    name: String,
    id: u64,
    parent: i64,
    depth: u64,
    start: Instant,
    thread: String,
    /// Makes the guard `!Send`: its drop pops this thread's stack.
    _not_send: PhantomData<*const ()>,
}

impl Journal {
    /// Opens a span named `name`, emitting a `span.open` event and
    /// registering it as the parent of any span opened on this thread
    /// before the guard drops. Returns an inert guard when disabled.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = self.inner.as_deref() else {
            return Span {
                journal: Journal::disabled(),
                name: String::new(),
                id: 0,
                parent: -1,
                depth: 0,
                start: Instant::now(),
                thread: String::new(),
                _not_send: PhantomData,
            };
        };
        let key = inner.id;
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let (parent, depth) = OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let depth = stack.iter().filter(|(k, _)| *k == key).count() as u64;
            let parent = stack
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map_or(-1, |(_, id)| *id as i64);
            stack.push((key, id));
            (parent, depth)
        });
        let span = Span {
            journal: self.clone(),
            name: name.to_owned(),
            id,
            parent,
            depth,
            start: Instant::now(),
            thread: thread_label(),
            _not_send: PhantomData,
        };
        self.emit(
            "span.open",
            &[
                ("name", name.into()),
                ("id", id.into()),
                ("parent", parent.into()),
                ("depth", depth.into()),
                ("thread", span.thread.as_str().into()),
            ],
        );
        span
    }
}

impl Span {
    /// The span id (unique per journal).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The parent span id, `-1` for roots.
    #[must_use]
    pub fn parent(&self) -> i64 {
        self.parent
    }

    /// Nesting depth at open time (0 for roots).
    #[must_use]
    pub fn depth(&self) -> u64 {
        self.depth
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.journal.inner.as_deref() else {
            return;
        };
        let key = inner.id;
        OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&e| e == (key, self.id)) {
                stack.remove(pos);
            }
        });
        let secs = self.start.elapsed().as_secs_f64();
        self.journal.emit(
            "span.close",
            &[
                ("name", self.name.as_str().into()),
                ("id", self.id.into()),
                ("parent", self.parent.into()),
                ("depth", self.depth.into()),
                ("secs", secs.into()),
                ("thread", self.thread.as_str().into()),
            ],
        );
        self.journal
            .observe(&format!("span.{}.secs", self.name), secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JournalReader;

    fn load(journal: &Journal) -> JournalReader {
        JournalReader::from_jsonl(&journal.drain_lines().join("\n")).unwrap()
    }

    #[test]
    fn disabled_journal_yields_inert_spans() {
        let j = Journal::disabled();
        let s = j.span("x");
        assert_eq!(s.id(), 0);
        assert_eq!(s.parent(), -1);
        drop(s);
        assert!(j.drain_lines().is_empty());
    }

    #[test]
    fn nested_spans_link_parent_and_depth() {
        let j = Journal::in_memory("spans");
        {
            let root = j.span("outer");
            assert_eq!(root.parent(), -1);
            assert_eq!(root.depth(), 0);
            {
                let child = j.span("inner");
                assert_eq!(child.parent(), root.id() as i64);
                assert_eq!(child.depth(), 1);
            }
            let sibling = j.span("inner2");
            assert_eq!(sibling.parent(), root.id() as i64);
            assert_eq!(sibling.depth(), 1);
        }
        let after = j.span("later");
        assert_eq!(after.parent(), -1);
        drop(after);
        let r = load(&j);
        assert_eq!(r.events_for_step("span.open").len(), 4);
        assert_eq!(r.events_for_step("span.close").len(), 4);
    }

    #[test]
    fn two_journals_do_not_cross_link() {
        let a = Journal::in_memory("a");
        let b = Journal::in_memory("b");
        let _ra = a.span("root-a");
        let rb = b.span("root-b");
        // `b` has no open span of its own above `rb`.
        assert_eq!(rb.parent(), -1);
        let cb = b.span("child-b");
        assert_eq!(cb.parent(), rb.id() as i64);
    }

    #[test]
    fn span_events_carry_the_thread_label() {
        let j = Journal::in_memory("thr");
        drop(j.span("stage"));
        let r = load(&j);
        let expected = thread_label();
        for step in ["span.open", "span.close"] {
            let e = &r.events_for_step(step)[0];
            assert_eq!(
                e.payload.get("thread").and_then(|v| v.as_str()),
                Some(expected.as_str()),
                "{step}"
            );
        }
    }

    #[test]
    fn captured_stack_parents_spans_on_another_thread() {
        let j = Journal::in_memory("xthread");
        let root = j.span("outer");
        let root_id = root.id();
        let snapshot = SpanStack::capture();
        assert_eq!(snapshot.len(), 1);
        let journal = j.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                // Without the snapshot the worker span would root at
                // depth 0; entering the snapshot nests it under `outer`.
                let orphan = journal.span("orphan");
                assert_eq!(orphan.parent(), -1);
                drop(orphan);
                snapshot.enter(|| {
                    let child = journal.span("child");
                    assert_eq!(child.parent(), root_id as i64);
                    assert_eq!(child.depth(), 1);
                });
            });
        });
        drop(root);
    }

    #[test]
    fn enter_replaces_rather_than_appends() {
        let j = Journal::in_memory("replay");
        let root = j.span("outer");
        let snapshot = SpanStack::capture();
        // Re-entering on the same thread (the caller-helps path of a
        // pool) must not double-count the already-open span.
        snapshot.enter(|| {
            let child = j.span("child");
            assert_eq!(child.depth(), 1);
            assert_eq!(child.parent(), root.id() as i64);
        });
        // The original stack is restored afterwards.
        let sibling = j.span("sibling");
        assert_eq!(sibling.parent(), root.id() as i64);
        assert_eq!(sibling.depth(), 1);
    }

    #[test]
    fn empty_snapshot_detaches_spans() {
        let j = Journal::in_memory("detach");
        let _root = j.span("outer");
        let empty = SpanStack::default();
        assert!(empty.is_empty());
        empty.enter(|| {
            let s = j.span("detached");
            assert_eq!(s.parent(), -1);
            assert_eq!(s.depth(), 0);
        });
    }

    #[test]
    fn close_feeds_the_span_histogram() {
        let j = Journal::in_memory("h");
        drop(j.span("stage"));
        drop(j.span("stage"));
        j.finish();
        let r = load(&j);
        let summary = &r.events_for_step("journal.summary")[0];
        let hist = summary
            .payload
            .get("histograms")
            .and_then(|h| h.get("span.stage.secs"))
            .expect("span histogram present");
        assert_eq!(hist.get("count"), Some(&serde::Value::Int(2)));
    }
}
