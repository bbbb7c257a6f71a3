//! The ideaflow run journal: a workspace-wide observability facade.
//!
//! The paper's §4 argues that reducing IC implementation effort needs
//! machine-readable records of *every* tool run — "collect everything,
//! analyze later". This crate is that collection layer for the simulated
//! flow: a [`Journal`] handle that any subsystem (flow steps, annealers,
//! bandit pulls, orchestration) can emit structured events into, with
//!
//! - **events**: [`RunEvent`] `{ run_id, step, seq, payload }` appended
//!   as length-prefixed binary frames (the [`codec`]), to a file or to
//!   memory; JSONL is what [`Journal::drain_lines`] and
//!   `ifjournal convert` render from them;
//! - **counters** and **histograms**: cheap in-process aggregates,
//!   flushed as a final `journal.summary` event;
//! - **timers**: wall-clock scopes recorded as both an event field and a
//!   histogram sample;
//! - a **no-op default** ([`Journal::disabled`]) whose emit path is a
//!   single `Option` check, so instrumented code costs ~nothing when
//!   journaling is off.
//!
//! # Concurrency: per-worker buffers, one ordered writer
//!
//! The emit hot path shares **no lock** between threads: `emit` claims a
//! `seq` ticket from an atomic counter, encodes the frame outside any
//! shared lock, and appends it to a per-thread buffer (registered lazily, one
//! per `(journal, thread)` pair). `count`/`observe` aggregate into the
//! same thread-local buffer. Ordering is restored at flush time: a
//! flush drains every thread buffer under the sink lock, sorts by
//! `seq`, and writes only the *seq-contiguous prefix* — a frame whose
//! predecessor ticket is still in flight on another worker stays staged
//! until the gap closes. The sequence any reader of the sink observes
//! is therefore strictly increasing per run, exactly as when `seq` was
//! assigned under the old single sink lock (and byte-for-byte identical
//! for single-threaded emitters, where arrival order *is* ticket
//! order). The final handle's drop (and [`Journal::finish`]) writes
//! whatever remains, so no event is ever lost — including events
//! buffered by a worker that panicked.
//!
//! The reader half ([`Journal::load`] / [`EventStream`] /
//! [`JournalReader`]) decodes frames back into events and computes
//! per-step summary statistics, which is what downstream analysis
//! (doomed-run prediction, bandit warm-starts) consumes.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};
use serde::{DeError, Deserialize, Serialize, Value};

pub mod analyze;
pub mod codec;
pub mod grafana;
pub mod reader;
pub mod schema;
pub mod span;
pub mod stats;
pub mod telemetry;

pub use codec::{DecodeError, EventStream, JournalFormat, StreamDecoder};
pub use reader::{JournalReader, StepSummary};
pub use span::{thread_label, Span, SpanStack};
pub use stats::{FieldStats, Histogram};
pub use telemetry::TelemetryRegistry;

/// One journaled event: a step of a named run, with a monotone sequence
/// number and a free-form JSON payload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEvent {
    /// The run this event belongs to.
    pub run_id: String,
    /// The step or subsystem that emitted it (e.g. `flow.place`,
    /// `anneal.round`, `bandit.pull`).
    pub step: String,
    /// Strictly increasing per journal (hence per run within one
    /// journal), assigned at emit time.
    pub seq: u64,
    /// Event payload; an object for all events this workspace emits.
    pub payload: Value,
}

/// The JSONL line shape: one object whose keys are the fields in
/// declaration order.
impl Serialize for RunEvent {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("run_id".to_owned(), self.run_id.to_value()),
            ("step".to_owned(), self.step.to_value()),
            ("seq".to_owned(), self.seq.to_value()),
            ("payload".to_owned(), self.payload.to_value()),
        ])
    }
}

impl Deserialize for RunEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::new(format!("expected object for `RunEvent`, got {v:?}")))?;
        Ok(Self {
            run_id: serde::field(obj, "run_id", "RunEvent")?,
            step: serde::field(obj, "step", "RunEvent")?,
            seq: serde::field(obj, "seq", "RunEvent")?,
            payload: serde::field(obj, "payload", "RunEvent")?,
        })
    }
}

enum Sink {
    File(BufWriter<File>),
    /// The bytes a file would hold, kept in the decoder that
    /// [`Journal::drain_lines`] renders them through.
    Memory(StreamDecoder),
}

/// A thread's private slice of one journal: encoded event frames
/// (tagged with their seq tickets) plus counter/histogram aggregates.
/// Owned by the journal (so buffered data survives the thread), keyed
/// from the emitting thread through a TLS `Weak`.
#[derive(Default)]
struct ThreadBuf {
    state: Mutex<BufState>,
}

/// One buffered record: its seq ticket, its complete record frame, and
/// its step name, which the writer's block tracker folds into index
/// frames.
type BufferedFrame = (u64, Vec<u8>, String);

#[derive(Default)]
struct BufState {
    frames: Vec<BufferedFrame>,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
    /// Which dynamic name ids this thread has defined inline (see
    /// [`codec::ThreadNames`]).
    names: codec::ThreadNames,
}

struct SinkState {
    sink: Sink,
    /// Frames drained from thread buffers but not yet written: kept
    /// sorted by seq; only the prefix contiguous with `next_write` goes
    /// to the sink, so a flush racing in-flight emits cannot reorder
    /// the stream.
    staged: Vec<BufferedFrame>,
    /// The seq the sink expects next (everything below it is written).
    next_write: u64,
    /// Bytes written to the sink so far (index frames embed their own
    /// absolute offset).
    bytes_written: u64,
    /// Block statistics feeding periodic index frames.
    block: codec::BlockTracker,
}

impl SinkState {
    fn write(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::File(w) => {
                let _ = w.write_all(bytes);
            }
            Sink::Memory(dec) => dec.push(bytes),
        }
        self.bytes_written += bytes.len() as u64;
    }

    /// Writes the staged frames in seq order — only the prefix
    /// contiguous with `next_write`, or all of them when `write_all`
    /// (safe only once no emit can be in flight, i.e. from the final
    /// drop) — with an index frame at each block boundary. The boundary
    /// depends only on the record count, so index placement is as
    /// deterministic as the records themselves.
    fn write_staged(&mut self, names: &codec::NameTable, write_all: bool) {
        // Moved out for the loop, so `self.write` can borrow `self`.
        let staged = std::mem::take(&mut self.staged);
        let mut written = 0;
        for (seq, frame, step) in &staged {
            if !write_all && *seq != self.next_write {
                break; // a predecessor ticket is still in flight
            }
            self.write(frame);
            self.block.on_record(*seq, step);
            if let Some(idx) = self
                .block
                .maybe_index_frame(self.bytes_written, names, false)
            {
                self.write(&idx);
            }
            self.next_write = seq + 1;
            written += 1;
        }
        self.staged = staged;
        self.staged.drain(..written);
    }
}

struct Inner {
    run_id: String,
    /// Process-unique journal identity; keys the per-thread buffer and
    /// open-span TLS maps (an id, unlike the `Arc` address, can never
    /// be recycled into a colliding key).
    id: u64,
    /// The journal-wide name interner.
    names: codec::NameTable,
    /// Next event seq ticket. Claimed with a single `fetch_add`; the
    /// sink lock is no longer on the emit path.
    seq: AtomicU64,
    /// Next span id; spans are numbered in open order per journal, which
    /// keeps fixed-seed runs byte-identical modulo wall-clock fields.
    next_span: AtomicU64,
    /// `None` for a telemetry-only journal, which discards events
    /// without encoding them.
    sink: Option<Mutex<SinkState>>,
    /// Every thread buffer ever registered, in registration order (the
    /// deterministic merge order for counters/histograms at `finish`).
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
    /// Whether a `journal.summary` has been emitted (finish guard).
    summarized: Mutex<bool>,
    /// Fast-path guard: mirror into telemetry only when attached.
    telemetry_on: AtomicBool,
    telemetry: RwLock<Option<TelemetryRegistry>>,
}

/// Once a thread's buffer holds this many unflushed frames, emit
/// flushes the contiguous prefix to the sink — bounding memory for long
/// runs that never call `flush`/`finish` mid-way, while amortizing the
/// sink lock over many events.
const AUTO_FLUSH_FRAMES: usize = 1024;

static NEXT_JOURNAL_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's buffer handle per live journal, keyed by journal
    /// id. Holds `Weak` so a dropped journal's buffers free promptly;
    /// dead entries are pruned on the next lookup.
    static THREAD_BUFS: RefCell<Vec<(u64, Weak<ThreadBuf>)>> = const { RefCell::new(Vec::new()) };
}

impl Inner {
    /// This thread's buffer for this journal, registering a fresh one on
    /// first use. The registry keeps the only strong reference, so
    /// buffered events survive the emitting thread (panic or exit).
    fn thread_buf(&self) -> Arc<ThreadBuf> {
        THREAD_BUFS.with(|cell| {
            let mut bufs = cell.borrow_mut();
            bufs.retain(|(_, w)| w.strong_count() > 0);
            if let Some(buf) = bufs
                .iter()
                .find(|(id, _)| *id == self.id)
                .and_then(|(_, w)| w.upgrade())
            {
                return buf;
            }
            let buf = Arc::new(ThreadBuf::default());
            self.buffers.lock().push(buf.clone());
            bufs.push((self.id, Arc::downgrade(&buf)));
            buf
        })
    }

    /// Drains every thread buffer into the staging area and writes the
    /// seq-contiguous prefix.
    fn write_buffered(&self) {
        let Some(sink) = &self.sink else {
            return;
        };
        let mut sink = sink.lock();
        let bufs: Vec<Arc<ThreadBuf>> = self.buffers.lock().clone();
        for buf in &bufs {
            let mut st = buf.state.lock();
            if sink.staged.is_empty() {
                sink.staged = std::mem::take(&mut st.frames);
            } else {
                sink.staged.append(&mut st.frames);
            }
        }
        sink.staged.sort_unstable_by_key(|(s, _, _)| *s);
        sink.write_staged(&self.names, false);
    }

    fn mirror_counter(&self, name: &str, delta: u64) {
        if self.telemetry_on.load(Ordering::Relaxed) {
            if let Some(t) = self.telemetry.read().as_ref() {
                t.inc_counter(name, delta);
            }
        }
    }
}

/// A cheap-to-clone journaling handle. Disabled by default; all emit
/// paths early-return on a disabled journal.
#[derive(Clone, Default)]
pub struct Journal {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Journal(disabled)"),
            Some(i) => write!(f, "Journal(run_id={:?})", i.run_id),
        }
    }
}

impl Journal {
    /// The no-op journal: every emit is a single branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A journal writing to `path` (truncating any existing file). The
    /// file opens with the magic bytes, the registry-derived base
    /// dictionary and a `journal.meta` schema-version event.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created or the
    /// header cannot be written.
    pub fn to_file(run_id: &str, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut writer = BufWriter::new(File::create(path)?);
        let j = Self::with_sink(run_id, |header| {
            writer.write_all(header)?;
            Ok(Sink::File(writer))
        })?;
        // Every file journal opens with a schema-version header, so a
        // reader on a different build can tell the corpus was written
        // under another registry instead of silently misparsing it.
        j.emit(
            "journal.meta",
            &[
                ("schema_hash", Value::Str(schema::registry_hash_hex())),
                ("format", Value::Int(2)),
            ],
        );
        Ok(j)
    }

    /// [`Journal::to_file`]; `format` names the one encoding there is.
    ///
    /// # Errors
    ///
    /// As [`Journal::to_file`].
    pub fn to_file_with_format(
        run_id: &str,
        path: impl AsRef<Path>,
        format: JournalFormat,
    ) -> std::io::Result<Self> {
        match format {
            JournalFormat::Binary => Self::to_file(run_id, path),
        }
    }

    /// A journal keeping the bytes a file journal would hold in memory
    /// (for tests and for post-run inspection without touching the
    /// filesystem); [`Journal::drain_lines`] renders them.
    #[must_use]
    pub fn in_memory(run_id: &str) -> Self {
        Self::with_sink(run_id, |header| {
            let mut dec = StreamDecoder::new();
            dec.push(header);
            Ok(Sink::Memory(dec))
        })
        .expect("a memory sink cannot fail")
    }

    /// A journal that discards events but still drives counters,
    /// histograms, spans, and any attached [`TelemetryRegistry`] — live
    /// telemetry with no file.
    #[must_use]
    pub fn telemetry_only(run_id: &str) -> Self {
        // Nothing is encoded, so the name table stays empty.
        Self::build(run_id, Vec::new(), None)
    }

    /// A journal whose sink `open` builds after receiving the header
    /// bytes to write first.
    fn with_sink(
        run_id: &str,
        open: impl FnOnce(&[u8]) -> std::io::Result<Sink>,
    ) -> std::io::Result<Self> {
        let base = codec::base_names();
        let header = codec::header_bytes(&base);
        let sink = SinkState {
            sink: open(&header)?,
            staged: Vec::new(),
            next_write: 0,
            bytes_written: header.len() as u64,
            block: codec::BlockTracker::default(),
        };
        Ok(Self::build(run_id, base, Some(sink)))
    }

    fn build(run_id: &str, base: Vec<String>, sink: Option<SinkState>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                run_id: run_id.to_owned(),
                id: NEXT_JOURNAL_ID.fetch_add(1, Ordering::Relaxed),
                names: codec::NameTable::with_base(base),
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(0),
                sink: sink.map(Mutex::new),
                buffers: Mutex::new(Vec::new()),
                summarized: Mutex::new(false),
                telemetry_on: AtomicBool::new(false),
                telemetry: RwLock::new(None),
            })),
        }
    }

    /// Attaches a live telemetry registry: every subsequent `count`,
    /// `observe`, and emitted event is mirrored into it as it happens.
    /// Returns `self` for builder-style chaining; no-op when disabled.
    #[must_use]
    pub fn with_telemetry(self, registry: TelemetryRegistry) -> Self {
        if let Some(inner) = self.inner.as_deref() {
            *inner.telemetry.write() = Some(registry);
            inner.telemetry_on.store(true, Ordering::Relaxed);
        }
        self
    }

    /// The attached telemetry registry, if any.
    #[must_use]
    pub fn telemetry(&self) -> Option<TelemetryRegistry> {
        self.inner
            .as_deref()
            .and_then(|i| i.telemetry.read().clone())
    }

    /// Whether events are actually recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The run id, when enabled.
    #[must_use]
    pub fn run_id(&self) -> Option<&str> {
        self.inner.as_deref().map(|i| i.run_id.as_str())
    }

    /// Emits one event. `fields` becomes the payload object; field order
    /// is preserved. No-op when disabled. Lock-free against other
    /// emitting threads: the seq ticket is atomic, and the frame is
    /// encoded into this thread's buffer (ordered into the sink at flush
    /// time).
    pub fn emit(&self, step: &str, fields: &[(&str, Value)]) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        inner.mirror_counter("journal.events", 1);
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        if inner.sink.is_none() {
            return; // telemetry-only: seq advanced, event discarded unencoded
        }
        let payload = Value::Object(
            fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        );
        let event = RunEvent {
            run_id: inner.run_id.clone(),
            step: step.to_owned(),
            seq,
            payload,
        };
        let buf = inner.thread_buf();
        // Encoding updates this thread's inline-definition ledger, so it
        // runs under the thread's own (uncontended) buffer lock.
        let mut st = buf.state.lock();
        let frame = codec::record_frame(&inner.names, &mut st.names, &event);
        st.frames.push((seq, frame, event.step));
        let depth = st.frames.len();
        drop(st);
        if depth >= AUTO_FLUSH_FRAMES {
            inner.write_buffered();
        }
    }

    /// Adds `delta` to a named counter. No-op when disabled. Aggregates
    /// into this thread's buffer; buffers merge deterministically (in
    /// buffer-registration order) at [`Journal::finish`].
    pub fn count(&self, name: &str, delta: u64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        inner.mirror_counter(name, delta);
        let buf = inner.thread_buf();
        let mut st = buf.state.lock();
        match st.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => st.counters.push((name.to_owned(), delta)),
        }
    }

    /// Records `sample` into a named histogram. No-op when disabled.
    /// Thread-buffered like [`Journal::count`]; per-thread histograms
    /// merge exactly (counts/bins/extrema) with parallel-Welford moments
    /// at [`Journal::finish`].
    pub fn observe(&self, name: &str, sample: f64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        if inner.telemetry_on.load(Ordering::Relaxed) {
            if let Some(t) = inner.telemetry.read().as_ref() {
                t.observe(name, sample);
            }
        }
        let buf = inner.thread_buf();
        let mut st = buf.state.lock();
        match st.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.record(sample),
            None => {
                let mut h = Histogram::new();
                h.record(sample);
                st.histograms.push((name.to_owned(), h));
            }
        }
    }

    /// Runs `f`, emits a `<step>` event with the elapsed wall-clock
    /// seconds in field `secs`, and records the duration into histogram
    /// `<step>.secs`. When disabled, just runs `f`.
    pub fn time<T>(&self, step: &str, f: impl FnOnce() -> T) -> T {
        if self.inner.is_none() {
            return f();
        }
        let start = std::time::Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.emit(step, &[("secs", secs.into())]);
        self.observe(&format!("{step}.secs"), secs);
        out
    }

    /// Writes buffered events whose predecessors have also arrived (the
    /// seq-contiguous prefix) to the sink, then flushes file sinks. Safe
    /// to call mid-run from any thread: events still in flight on other
    /// workers stay staged until their seq gap closes, so the sink never
    /// observes an out-of-order frame.
    pub fn flush(&self) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        inner.write_buffered();
        if let Some(sink) = &inner.sink {
            if let Sink::File(w) = &mut sink.lock().sink {
                let _ = w.flush();
            }
        }
    }

    /// Emits the `journal.summary` event (counters and histogram stats
    /// accumulated so far, merged over all thread buffers) and flushes
    /// the sink. Idempotent per journal: later calls with no new
    /// aggregates emit nothing extra.
    pub fn finish(&self) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let mut summarized = inner.summarized.lock();
        // Merge per-thread aggregates in buffer-registration order; each
        // buffer contributes its names in first-touch order. With one
        // emitting thread this reduces to exactly the arrival order the
        // old single-lock journal recorded.
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut histograms: Vec<(String, Histogram)> = Vec::new();
        let bufs: Vec<Arc<ThreadBuf>> = inner.buffers.lock().clone();
        for buf in &bufs {
            let mut st = buf.state.lock();
            for (n, v) in st.counters.drain(..) {
                match counters.iter_mut().find(|(c, _)| *c == n) {
                    Some((_, total)) => *total += v,
                    None => counters.push((n, v)),
                }
            }
            for (n, h) in st.histograms.drain(..) {
                match histograms.iter_mut().find(|(c, _)| *c == n) {
                    Some((_, total)) => total.merge_from(&h),
                    None => histograms.push((n, h)),
                }
            }
        }
        if *summarized && counters.is_empty() && histograms.is_empty() {
            drop(summarized);
            self.flush();
            return;
        }
        *summarized = true;
        drop(summarized);
        let counters_v = Value::Object(
            counters
                .into_iter()
                .map(|(n, v)| (n, Value::from(v)))
                .collect(),
        );
        let histograms_v = Value::Object(
            histograms
                .into_iter()
                .map(|(n, h)| (n, h.stats().to_payload()))
                .collect(),
        );
        self.emit(
            "journal.summary",
            &[("counters", counters_v), ("histograms", histograms_v)],
        );
        self.flush();
    }

    /// Takes the events written to an in-memory journal so far (after
    /// merging thread buffers into seq order), each rendered as one JSONL
    /// line. Empty for disabled, telemetry-only and file journals.
    #[must_use]
    pub fn drain_lines(&self) -> Vec<String> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        inner.write_buffered();
        let mut events = Vec::new();
        if let Some(sink) = &inner.sink {
            if let Sink::Memory(dec) = &mut sink.lock().sink {
                while let Some(event) = dec.next_event().expect("a journal decodes its own frames")
                {
                    events.push(event);
                }
            }
        }
        events
            .iter()
            .map(|e| serde_json::to_string(e).expect("events are serializable"))
            .collect()
    }

    /// Loads a journal file back into events. Prefer [`EventStream`] for
    /// corpora that may not fit in RAM — this collects everything.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files, or `InvalidData` for
    /// frames that fail to decode as [`RunEvent`]s.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<JournalReader> {
        let mut events = Vec::new();
        for event in EventStream::open(path)? {
            events.push(event?);
        }
        Ok(JournalReader { events })
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Last handle gone: no emit can be in flight, so everything
        // still buffered is writable — sorted by seq it extends the
        // flushed prefix monotonically (every staged seq exceeds
        // `next_write`), even if an interior ticket was lost to a panic
        // between claim and buffer.
        let Some(sink) = self.sink.as_mut().map(Mutex::get_mut) else {
            return;
        };
        for buf in self.buffers.get_mut().drain(..) {
            sink.staged.append(&mut buf.state.lock().frames);
        }
        sink.staged.sort_unstable_by_key(|(s, _, _)| *s);
        sink.write_staged(&self.names, true);
        // Close with one final index frame so the tail of the file is
        // reachable without a full scan.
        if let Some(idx) = sink
            .block
            .maybe_index_frame(sink.bytes_written, &self.names, true)
        {
            sink.write(&idx);
        }
        if let Sink::File(w) = &mut sink.sink {
            let _ = w.flush();
        }
    }
}

/// Parses JSONL text — a journal's rendering by
/// [`Journal::drain_lines`] or `ifjournal convert` — into events.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<RunEvent>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str::<RunEvent>(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// Convenience re-export so instrumented crates can build payloads
/// without importing serde directly.
pub use serde::Value as PayloadValue;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        j.emit("x", &[("a", 1u64.into())]);
        j.count("c", 3);
        j.observe("h", 1.0);
        assert_eq!(j.time("t", || 41 + 1), 42);
        j.finish();
        j.flush();
        assert!(j.drain_lines().is_empty());
    }

    #[test]
    fn memory_journal_round_trips_events() {
        let j = Journal::in_memory("r0");
        j.emit("flow.place", &[("hpwl_um", 123.5.into())]);
        j.emit("flow.route", &[("drv", 7u64.into()), ("ok", true.into())]);
        let lines = j.drain_lines();
        assert_eq!(lines.len(), 2);
        let events = parse_jsonl(&lines.join("\n")).unwrap();
        assert_eq!(events[0].run_id, "r0");
        assert_eq!(events[0].step, "flow.place");
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].payload.get("drv"), Some(&Value::Int(7)));
    }

    #[test]
    fn clones_share_one_sequence() {
        let j = Journal::in_memory("shared");
        let j2 = j.clone();
        j.emit("a", &[]);
        j2.emit("b", &[]);
        j.emit("c", &[]);
        let events = parse_jsonl(&j.drain_lines().join("\n")).unwrap();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn summary_event_carries_aggregates() {
        let j = Journal::in_memory("agg");
        j.count("moves.accepted", 10);
        j.count("moves.accepted", 5);
        j.count("moves.rejected", 2);
        for x in [1.0, 2.0, 3.0, 4.0] {
            j.observe("cost", x);
        }
        j.finish();
        let events = parse_jsonl(&j.drain_lines().join("\n")).unwrap();
        let summary = events.last().unwrap();
        assert_eq!(summary.step, "journal.summary");
        let counters = summary.payload.get("counters").unwrap();
        assert_eq!(counters.get("moves.accepted"), Some(&Value::Int(15)));
        assert_eq!(counters.get("moves.rejected"), Some(&Value::Int(2)));
        let cost = summary
            .payload
            .get("histograms")
            .unwrap()
            .get("cost")
            .unwrap();
        assert_eq!(cost.get("count"), Some(&Value::Int(4)));
        assert_eq!(cost.get("mean"), Some(&Value::Float(2.5)));
    }

    #[test]
    fn finish_is_idempotent_when_nothing_new() {
        let j = Journal::in_memory("idem");
        j.count("c", 1);
        j.finish();
        j.finish();
        let events = parse_jsonl(&j.drain_lines().join("\n")).unwrap();
        let summaries = events
            .iter()
            .filter(|e| e.step == "journal.summary")
            .count();
        assert_eq!(summaries, 1);
    }

    #[test]
    fn file_journal_loads_back() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ideaflow_trace_test_{}.ifj", std::process::id()));
        {
            let j = Journal::to_file("file-run", &path).unwrap();
            j.emit("step.one", &[("x", 1.5.into())]);
            j.time("step.two", || ());
            j.finish();
        }
        let reader = Journal::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reader.events.len(), 4, "meta header + 2 events + summary");
        assert!(reader.seq_strictly_increasing_per_run());
        assert_eq!(reader.events[0].run_id, "file-run");
        assert_eq!(reader.events[0].step, "journal.meta");
        assert_eq!(
            reader.events[0].payload.get("schema_hash"),
            Some(&Value::Str(schema::registry_hash_hex()))
        );
        assert_eq!(reader.events_for_step("step.one").len(), 1);
    }

    #[test]
    fn concurrent_emitters_merge_into_a_dense_monotone_sequence() {
        let j = Journal::in_memory("conc");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let j = j.clone();
                s.spawn(move || {
                    for i in 0..50u64 {
                        j.emit("w", &[("t", t.into()), ("i", i.into())]);
                        j.count("events", 1);
                        j.observe("i", i as f64);
                    }
                });
            }
        });
        j.finish();
        let events = parse_jsonl(&j.drain_lines().join("\n")).unwrap();
        assert_eq!(events.len(), 201, "200 worker events + summary");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..201).collect::<Vec<u64>>(), "dense and sorted");
        let summary = events.last().unwrap();
        assert_eq!(
            summary.payload.get("counters").unwrap().get("events"),
            Some(&Value::Int(200))
        );
        let hist = summary.payload.get("histograms").unwrap().get("i").unwrap();
        assert_eq!(hist.get("count"), Some(&Value::Int(200)));
        // Whole floats round-trip through JSONL as integers.
        assert_eq!(hist.get("min"), Some(&Value::Int(0)));
        assert_eq!(hist.get("max"), Some(&Value::Int(49)));
    }

    #[test]
    fn mid_run_flush_keeps_the_file_monotone_and_complete() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "ideaflow_trace_midflush_{}.ifj",
            std::process::id()
        ));
        {
            let j = Journal::to_file("mid", &path).unwrap();
            for i in 0..10u64 {
                j.emit("a", &[("i", i.into())]);
            }
            j.flush();
            // The prefix is on disk already (readable mid-run).
            let partial = Journal::load(&path).unwrap();
            assert_eq!(partial.events.len(), 11, "meta header + 10 events");
            assert!(partial.seq_strictly_increasing_per_run());
            for i in 10..20u64 {
                j.emit("a", &[("i", i.into())]);
            }
            j.finish();
        }
        let reader = Journal::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reader.events.len(), 22, "meta + 20 events + summary");
        assert!(reader.seq_strictly_increasing_per_run());
    }

    #[test]
    fn events_buffered_by_a_panicking_thread_survive() {
        let j = Journal::in_memory("panicky");
        let jc = j.clone();
        let handle = std::thread::spawn(move || {
            jc.emit("before.panic", &[("x", 1u64.into())]);
            panic!("worker died after emitting");
        });
        assert!(handle.join().is_err());
        let events = parse_jsonl(&j.drain_lines().join("\n")).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].step, "before.panic");
    }

    #[test]
    fn telemetry_only_journal_drives_registry_without_lines() {
        let registry = TelemetryRegistry::new();
        let j = Journal::telemetry_only("t").with_telemetry(registry.clone());
        j.emit("x", &[]);
        j.count("c", 2);
        assert!(j.drain_lines().is_empty());
        assert_eq!(registry.counter_value("journal.events"), Some(1));
        assert_eq!(registry.counter_value("c"), Some(2));
    }

    /// The JSONL wire form of one event and the parse errors for three
    /// malformed lines, byte for byte: field order, whole floats as
    /// ints, `null`, nested objects, string escapes, and the messages
    /// `ifjournal lint` and `parse_jsonl` surface.
    #[test]
    fn run_event_json_is_pinned() {
        let event = RunEvent {
            run_id: "c0007.a1".to_owned(),
            step: "campaign.spec".to_owned(),
            seq: 42,
            payload: Value::Object(vec![
                ("best".to_owned(), Value::Float(3.0)),
                (
                    "note".to_owned(),
                    Value::Str("say \"hi\"\tback\\\n\u{1}".to_owned()),
                ),
                ("missing".to_owned(), Value::Null),
                (
                    "spec".to_owned(),
                    Value::Object(vec![
                        ("kind".to_owned(), Value::Str("chaos".to_owned())),
                        ("rounds".to_owned(), Value::Int(12)),
                        ("rate".to_owned(), Value::Float(0.005)),
                    ]),
                ),
            ]),
        };
        let line = serde_json::to_string(&event).unwrap();
        assert_eq!(
            line,
            r#"{"run_id":"c0007.a1","step":"campaign.spec","seq":42,"payload":{"best":3,"note":"say \"hi\"\tback\\\n\u0001","missing":null,"spec":{"kind":"chaos","rounds":12,"rate":0.005}}}"#
        );
        let back: RunEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back.payload.get("best"), Some(&Value::Int(3)));
        assert_eq!(serde_json::to_string(&back).unwrap(), line);

        let err = |text: &str| {
            serde_json::from_str::<RunEvent>(text)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            err("[1, 2]"),
            "expected object for `RunEvent`, got Array([Int(1), Int(2)])"
        );
        assert_eq!(
            err(r#"{"run_id": "r", "step": "s", "payload": {}}"#),
            "missing field `seq` for `RunEvent`"
        );
        assert_eq!(
            err(r#"{"run_id": "r", "step": "s", "seq": "7", "payload": {}}"#),
            r#"field `seq` of `RunEvent`: expected integer, got Str("7")"#
        );
    }
}
