//! The journal's one encoding: length-prefixed binary frames with
//! interned names, and the streaming decoder every reader shares.
//!
//! Every [`crate::Journal`] sink writes these bytes: a file journal to
//! disk, an in-memory journal into a decoder that
//! [`crate::Journal::drain_lines`] renders. JSONL is only a rendering of
//! decoded events (`ifjournal convert`, the daemon's follow stream,
//! `drain_lines`); nothing reads it back as a journal. A file holds
//! three frame kinds after the [`MAGIC`] bytes:
//!
//! - **dict**: defines interned name ids (event/step/field names). A
//!   base dictionary derived from the schema registry is written right
//!   after the magic, so files are self-describing; names outside the
//!   registry are defined inline at first use per writer thread.
//! - **record**: one [`RunEvent`] — varint seq, interned run-id/step,
//!   then the payload with varint ints, raw little-endian f64 bits, and
//!   interned field names. No JSON text on the hot path.
//! - **index**: written every [`INDEX_EVERY`] records by the single
//!   ordered writer. Carries a sync marker (so a reader can find index
//!   frames by scanning backwards from EOF without any footer), the
//!   byte offset (self-validating), the record count and seq range of
//!   the preceding block, the step names seen in it, and a full
//!   snapshot of the dynamic dictionary — everything a reader needs to
//!   resume decoding mid-file. `tail` on a million-record corpus reads
//!   the last blocks instead of the whole file.
//!
//! Every frame is `varint(body_len)` + body, bounded by [`MAX_FRAME`],
//! so a corrupt length yields a typed error instead of an unbounded
//! read. Frames are self-delimiting; a truncated tail (killed writer)
//! decodes to the valid prefix plus [`DecodeError::Truncated`].
//!
//! # Rendering equality
//!
//! JSONL is lossy for floats (whole floats re-parse as ints, non-finite
//! floats render as `null`), so the encoder applies the *same*
//! normalization at encode time — see `norm_float`. Parsing a rendered
//! journal back therefore yields exactly the events the binary decoder
//! yields.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use parking_lot::RwLock;
use serde::Value;

use crate::RunEvent;

/// First bytes of every journal. The leading `0x89` can never start a
/// JSONL rendering (it is not valid UTF-8 on its own, let alone JSON),
/// so a reader handed one fails at the first byte with
/// [`DecodeError::BadMagic`] instead of misparsing it. The `\r\n`
/// catches line-ending mangling, the `\x1a` stops accidental `type` on
/// Windows — the PNG header trick.
pub const MAGIC: [u8; 8] = [0x89, b'I', b'F', b'J', b'1', b'\r', b'\n', 0x1A];

/// Marker bytes at the start of every index-frame body, so a reader can
/// locate index frames by scanning a tail window backwards. Candidates
/// are validated by the self-offset field that follows the marker, so a
/// payload that happens to contain these bytes is rejected, not
/// misparsed.
const SYNC: [u8; 8] = [0xF6, b'I', b'D', b'X', 0xF6, b'S', b'Y', b'N'];

/// An index frame is written after every this-many record frames.
pub const INDEX_EVERY: u64 = 4096;

/// Upper bound on a single frame body. A corrupt length prefix larger
/// than this is reported as [`DecodeError::Corrupt`] immediately
/// instead of waiting forever for bytes that will never arrive.
pub const MAX_FRAME: usize = 64 << 20;

const FRAME_DICT: u8 = 1;
const FRAME_RECORD: u8 = 2;
const FRAME_INDEX: u8 = 3;

/// The deepest nesting of arrays and objects a record may carry, counted
/// as it renders to JSON: the event object and its payload object are
/// the first two levels. Corrupt frames cannot recurse the stack away,
/// and the vendored `serde_json` parser stops at the same depth, so
/// every record this decoder accepts renders to a JSONL line that
/// parses back.
const MAX_DEPTH: usize = 64;

/// Most undefined ids a reader's name table may hold at once. Writer
/// threads racing the interner leave a few short-lived gaps; a corrupt
/// id far past the defined names must not size the table.
const MAX_NAME_GAPS: usize = 1 << 16;

/// The on-disk encoding of a journal file. The binary codec is the
/// only one; this names it for callers of
/// [`crate::Journal::to_file_with_format`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalFormat {
    /// Length-prefixed binary frames (this module).
    Binary,
}

// ---------------------------------------------------------------------------
// varints
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn varint_len(x: u64) -> usize {
    let mut n = 1;
    let mut x = x >> 7;
    while x != 0 {
        n += 1;
        x >>= 7;
    }
    n
}

fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Reads a varint from `buf` at `*pos`. `Ok(None)` means the buffer
/// ends mid-varint (caller should wait for more bytes); `Err` means the
/// varint is malformed (longer than any u64 encoding).
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<Option<u64>, String> {
    let mut x: u64 = 0;
    let mut shift = 0u32;
    let mut p = *pos;
    loop {
        let Some(&byte) = buf.get(p) else {
            return Ok(None);
        };
        p += 1;
        if shift == 63 && byte > 1 {
            return Err("varint overflows u64".to_owned());
        }
        x |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            *pos = p;
            return Ok(Some(x));
        }
        shift += 7;
        if shift > 63 {
            return Err("varint longer than 10 bytes".to_owned());
        }
    }
}

// ---------------------------------------------------------------------------
// name interning (writer side)
// ---------------------------------------------------------------------------

/// The names every journal can intern up front, derived from the schema
/// registry: exact event names and their declared field names, exact
/// counter/histogram names (the `journal.summary` vocabulary), and the
/// [`crate::FieldStats`] payload keys. Deduplicated in registry order,
/// so the base dictionary is identical for every file written by this
/// build — and carried in the file itself, so readers never depend on
/// it matching their own registry.
#[must_use]
pub fn base_names() -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut add = |n: &str| {
        if !n.contains('*') && !names.iter().any(|x| x == n) {
            names.push(n.to_owned());
        }
    };
    for ev in crate::schema::EVENTS {
        add(ev.name);
        for field in ev.fields {
            add(field.name);
        }
    }
    for c in crate::schema::COUNTERS {
        add(c.name);
    }
    for h in crate::schema::HISTOGRAMS {
        add(h.name);
    }
    for k in crate::stats::FieldStats::PAYLOAD_KEYS {
        add(k);
    }
    names
}

struct NameTableState {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

/// The journal-wide name interner. Ids are assigned in first-intern
/// order across all threads; the base prefix (from [`base_names`]) is
/// fixed at creation. Lookups of known names take only the read lock,
/// so concurrent emitters do not serialize on it.
pub struct NameTable {
    base_len: u32,
    state: RwLock<NameTableState>,
}

impl NameTable {
    /// A table seeded with the registry-derived base dictionary.
    #[must_use]
    pub fn with_base(base: Vec<String>) -> Self {
        let ids = base
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        Self {
            base_len: base.len() as u32,
            state: RwLock::new(NameTableState { names: base, ids }),
        }
    }

    /// Number of base (pre-seeded) names.
    #[must_use]
    pub fn base_len(&self) -> u32 {
        self.base_len
    }

    /// The id for `name`, interning it if new.
    pub fn intern(&self, name: &str) -> u32 {
        if let Some(&id) = self.state.read().ids.get(name) {
            return id;
        }
        let mut st = self.state.write();
        if let Some(&id) = st.ids.get(name) {
            return id;
        }
        let id = st.names.len() as u32;
        st.names.push(name.to_owned());
        st.ids.insert(name.to_owned(), id);
        id
    }

    /// A snapshot of the dynamic (non-base) names, in id order. Index
    /// frames embed this so a reader resuming mid-file knows every id
    /// defined before the frame.
    #[must_use]
    pub fn dynamic_snapshot(&self) -> Vec<String> {
        self.state.read().names[self.base_len as usize..].to_vec()
    }
}

/// FNV-1a, as a [`std::hash::Hasher`]: names are short (a dozen bytes)
/// and hashed once per field per emit, where SipHash's setup cost
/// dominates the hot path. Collision quality is ample for a
/// per-thread table of a few dozen schema names.
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[derive(Clone, Default)]
struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = Fnv;

    fn build_hasher(&self) -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

/// Per-writer-thread name cache: id lookups the thread has already
/// resolved (so the emit hot path never takes the shared table's lock
/// or SipHash for a repeated name), doubling as the record of which
/// dynamic ids this thread has defined inline. The first frame *this
/// thread* emits that references a dynamic id carries the definition;
/// since a thread's frames are seq-ordered, the earliest frame in the
/// file referencing an id always defines it, whichever thread wins the
/// intern race.
#[derive(Default)]
pub struct ThreadNames {
    ids: HashMap<String, u32, FnvBuild>,
}

impl ThreadNames {
    fn encode(&mut self, out: &mut Vec<u8>, table: &NameTable, name: &str) {
        if let Some(&id) = self.ids.get(name) {
            // Cached: base ids are defined by the header dictionary,
            // dynamic ids were defined inline on this thread's first use.
            put_varint(out, u64::from(id) << 1);
            return;
        }
        let id = table.intern(name);
        if id < table.base_len {
            put_varint(out, u64::from(id) << 1);
        } else {
            put_varint(out, (u64::from(id) << 1) | 1);
            put_varint(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
        self.ids.insert(name.to_owned(), id);
    }
}

// ---------------------------------------------------------------------------
// value + record encoding
// ---------------------------------------------------------------------------

/// Normalizes a float exactly the way a JSONL round trip would:
/// non-finite renders as `null`, and whole floats re-parse as integers
/// when their rendering fits `i64`. Below 2^53 every whole float
/// displays as its exact integer, so the mapping is computable without
/// text. Above 2^53 Rust's shortest-roundtrip `Display` may print a
/// *different* nearby integer (e.g. 2^62 prints 4611686018427388000),
/// so the rare huge-whole-float case takes the same string path JSONL
/// does. Applying the same mapping at binary-encode time is what makes
/// `convert` lossless in both directions.
fn norm_float(f: f64) -> Value {
    if !f.is_finite() {
        return Value::Null;
    }
    if f == f.trunc() {
        if f.abs() < 9_007_199_254_740_992.0 {
            return Value::Int(f as i64);
        }
        if let Ok(i) = f.to_string().parse::<i64>() {
            return Value::Int(i);
        }
    }
    Value::Float(f)
}

fn encode_value(out: &mut Vec<u8>, table: &NameTable, tn: &mut ThreadNames, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(false) => out.push(1),
        Value::Bool(true) => out.push(2),
        Value::Int(i) => {
            out.push(3);
            put_varint(out, zigzag(*i));
        }
        Value::Float(f) => match norm_float(*f) {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(3);
                put_varint(out, zigzag(i));
            }
            _ => {
                out.push(4);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
        },
        Value::Str(s) => {
            out.push(5);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(6);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_value(out, table, tn, item);
            }
        }
        Value::Object(entries) => {
            out.push(7);
            put_varint(out, entries.len() as u64);
            for (k, v) in entries {
                tn.encode(out, table, k);
                encode_value(out, table, tn, v);
            }
        }
    }
}

/// Encodes one event as a complete record frame (length prefix
/// included). Any inline name definitions this thread still owes are
/// embedded, so the frame is decodable by anyone who has seen this
/// thread's earlier frames (in seq order, they always have).
#[must_use]
pub fn record_frame(table: &NameTable, tn: &mut ThreadNames, event: &RunEvent) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    body.push(FRAME_RECORD);
    put_varint(&mut body, event.seq);
    tn.encode(&mut body, table, &event.run_id);
    tn.encode(&mut body, table, &event.step);
    match event.payload.as_object() {
        Some(entries) => {
            put_varint(&mut body, (entries.len() as u64) << 1);
            for (k, v) in entries {
                tn.encode(&mut body, table, k);
                encode_value(&mut body, table, tn, v);
            }
        }
        // Non-object payloads never come out of `Journal::emit`, but
        // `convert` must round-trip arbitrary recorded events: the odd
        // count tag says "one raw value follows".
        None => {
            put_varint(&mut body, 1);
            encode_value(&mut body, table, tn, &event.payload);
        }
    }
    frame(body)
}

fn frame(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 4);
    put_varint(&mut out, body.len() as u64);
    out.extend_from_slice(&body);
    out
}

/// The bytes every binary journal starts with: magic plus the base
/// dictionary frame.
#[must_use]
pub fn header_bytes(base: &[String]) -> Vec<u8> {
    let mut body = Vec::with_capacity(base.iter().map(|n| n.len() + 2).sum::<usize>() + 8);
    body.push(FRAME_DICT);
    put_varint(&mut body, base.len() as u64);
    for name in base {
        put_varint(&mut body, name.len() as u64);
        body.extend_from_slice(name.as_bytes());
    }
    let mut out = Vec::with_capacity(body.len() + MAGIC.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&frame(body));
    out
}

/// Running block statistics for the single ordered writer: what the
/// next index frame will describe. `lib.rs` keeps one in the sink
/// state; [`BinaryWriter`] keeps one for single-threaded rewrites.
#[derive(Default)]
pub struct BlockTracker {
    records_total: u64,
    since_index: u64,
    first_seq: u64,
    last_seq: u64,
    steps: Vec<String>,
}

impl BlockTracker {
    /// Accounts one written record frame.
    pub fn on_record(&mut self, seq: u64, step: &str) {
        if self.since_index == 0 {
            self.first_seq = seq;
            self.steps.clear();
        }
        self.records_total += 1;
        self.since_index += 1;
        self.last_seq = seq;
        if !self.steps.iter().any(|s| s == step) {
            self.steps.push(step.to_owned());
        }
    }

    /// Builds an index frame if one is due (or `force`d and the block is
    /// non-empty). `pos` is the absolute file offset the frame will be
    /// written at; the frame embeds the offset of its own sync marker,
    /// which is how tail readers validate candidates found by scanning.
    #[must_use]
    pub fn maybe_index_frame(
        &mut self,
        pos: u64,
        table: &NameTable,
        force: bool,
    ) -> Option<Vec<u8>> {
        if self.since_index == 0 || (!force && self.since_index < INDEX_EVERY) {
            return None;
        }
        let dynamic = table.dynamic_snapshot();
        let mut body = Vec::with_capacity(64);
        body.push(FRAME_INDEX);
        body.extend_from_slice(&SYNC);
        body.extend_from_slice(&[0u8; 8]); // sync offset, patched below
        put_varint(&mut body, self.records_total);
        put_varint(&mut body, self.first_seq);
        put_varint(&mut body, self.last_seq);
        put_varint(&mut body, self.steps.len() as u64);
        for step in &self.steps {
            put_varint(&mut body, step.len() as u64);
            body.extend_from_slice(step.as_bytes());
        }
        put_varint(&mut body, u64::from(table.base_len()));
        put_varint(&mut body, dynamic.len() as u64);
        for name in &dynamic {
            put_varint(&mut body, name.len() as u64);
            body.extend_from_slice(name.as_bytes());
        }
        // The sync marker sits after the length prefix and the kind
        // byte; its absolute offset is self-describing.
        let sync_pos = pos + varint_len(body.len() as u64) as u64 + 1;
        body[9..17].copy_from_slice(&sync_pos.to_le_bytes());
        self.since_index = 0;
        self.steps.clear();
        Some(frame(body))
    }
}

// ---------------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------------

/// Why a journal failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream does not start with [`MAGIC`] (a JSONL rendering, for
    /// one).
    BadMagic,
    /// The stream ends inside a frame — a killed writer's torn tail.
    /// Everything before `offset` decoded cleanly.
    Truncated {
        /// Byte offset of the truncated frame's start.
        offset: u64,
    },
    /// A frame is structurally invalid.
    Corrupt {
        /// Byte offset of the offending frame's start.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad magic bytes (not a binary journal)"),
            Self::Truncated { offset } => write!(
                f,
                "truncated frame at byte {offset} (torn tail; events before it are intact)"
            ),
            Self::Corrupt { offset, detail } => {
                write!(f, "corrupt frame at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for std::io::Error {
    fn from(e: DecodeError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// The reader's id → name table. Sparse: threads define their
/// first-use ids out of numeric order, so id 6 may be defined frames
/// before id 5. Well-formed files never *reference* an undefined id, so
/// hitting a hole is a corruption diagnostic.
#[derive(Clone, Default)]
struct Names {
    slots: Vec<Option<String>>,
    /// How many slots are `None`.
    gaps: usize,
}

impl Names {
    /// Defines `id`. Ids beyond the writer's `u32` range, or that would
    /// leave more than [`MAX_NAME_GAPS`] ids undefined, are corrupt.
    fn define(&mut self, id: u64, name: String) -> Result<(), String> {
        if id > u64::from(u32::MAX) {
            return Err(format!("name id {id} out of range"));
        }
        let id = id as usize;
        if let Some(slot) = self.slots.get_mut(id) {
            self.gaps -= usize::from(slot.is_none());
            *slot = Some(name);
            return Ok(());
        }
        let gaps = self.gaps + (id - self.slots.len());
        if gaps > MAX_NAME_GAPS {
            return Err(format!("name id {id} leaves {gaps} ids undefined"));
        }
        self.gaps = gaps;
        self.slots.resize(id, None);
        self.slots.push(Some(name));
        Ok(())
    }

    fn get(&self, id: u64) -> Option<&str> {
        self.slots.get(usize::try_from(id).ok()?)?.as_deref()
    }

    /// The table after an index frame: the first `base_len` ids of
    /// `self` (the header dictionary), then the frame's dynamic names.
    fn resumed(&self, base_len: u64, dynamic: &[String]) -> Result<Self, String> {
        let mut names = Self::default();
        for (id, name) in (0..base_len).zip(&self.slots) {
            if let Some(name) = name {
                names.define(id, name.clone())?;
            }
        }
        for (i, name) in dynamic.iter().enumerate() {
            names.define(base_len.saturating_add(i as u64), name.clone())?;
        }
        Ok(names)
    }
}

/// Decodes one value that sits inside `depth` arrays and objects of
/// its rendered event (see [`MAX_DEPTH`]).
fn decode_value(
    buf: &[u8],
    pos: &mut usize,
    names: &mut Names,
    depth: usize,
) -> Result<Value, String> {
    let tag = *buf.get(*pos).ok_or("value tag missing")?;
    *pos += 1;
    if matches!(tag, 6 | 7) && depth >= MAX_DEPTH {
        return Err("value nesting exceeds depth bound".to_owned());
    }
    match tag {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(false)),
        2 => Ok(Value::Bool(true)),
        3 => {
            let x = need(get_varint(buf, pos)?, "int")?;
            Ok(Value::Int(unzigzag(x)))
        }
        4 => {
            let end = pos.checked_add(8).ok_or("float overflows")?;
            let bytes = buf.get(*pos..end).ok_or("float bytes missing")?;
            *pos = end;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(bytes);
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(raw))))
        }
        5 => Ok(Value::Str(decode_str(buf, pos, "string value")?)),
        6 => {
            let n = need(get_varint(buf, pos)?, "array count")? as usize;
            if n > buf.len() - *pos {
                return Err("array count exceeds frame".to_owned());
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(buf, pos, names, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        7 => {
            let n = need(get_varint(buf, pos)?, "object count")? as usize;
            if n > buf.len() - *pos {
                return Err("object count exceeds frame".to_owned());
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                // Map keys use the *mutating* name decode: a writer
                // thread's first use of a dynamic name can be a nested
                // map key (e.g. a spec payload), and later records
                // reference it bare.
                let k = decode_name_mut(buf, pos, names)?;
                let v = decode_value(buf, pos, names, depth + 1)?;
                entries.push((k, v));
            }
            Ok(Value::Object(entries))
        }
        t => Err(format!("unknown value tag {t}")),
    }
}

fn need<T>(x: Option<T>, what: &str) -> Result<T, String> {
    x.ok_or_else(|| format!("{what} runs past frame end"))
}

fn decode_str(buf: &[u8], pos: &mut usize, what: &str) -> Result<String, String> {
    let len = need(get_varint(buf, pos)?, what)? as usize;
    let end = pos.checked_add(len).ok_or("string length overflows")?;
    let bytes = buf
        .get(*pos..end)
        .ok_or_else(|| format!("{what} bytes missing"))?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
}

/// Decodes a name reference, absorbing an inline definition if present.
fn decode_name_mut(buf: &[u8], pos: &mut usize, names: &mut Names) -> Result<String, String> {
    let x = need(get_varint(buf, pos)?, "name ref")?;
    let id = x >> 1;
    if x & 1 == 1 {
        let name = decode_str(buf, pos, "name definition")?;
        names.define(id, name.clone())?;
        Ok(name)
    } else {
        names
            .get(id)
            .map(str::to_owned)
            .ok_or_else(|| format!("reference to undefined name id {id}"))
    }
}

/// A push-based journal decoder. Feed it bytes as they arrive
/// ([`StreamDecoder::push`]); [`StreamDecoder::next_event`] yields
/// complete records, returning `Ok(None)` when the buffered bytes end
/// mid-frame — the contract `ifjournal watch` relies on to retry a torn
/// tail on the next poll instead of reporting it malformed.
pub struct StreamDecoder {
    buf: Vec<u8>,
    consumed: usize,
    /// Absolute offset of `buf[consumed]` in the underlying stream.
    pos: u64,
    names: Names,
    seen_magic: bool,
    records: u64,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDecoder {
    /// A decoder expecting a full file (magic first).
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            consumed: 0,
            pos: 0,
            names: Names::default(),
            seen_magic: false,
            records: 0,
        }
    }

    /// A decoder resuming mid-file (right after an index frame), with
    /// the name table reconstructed from the base dictionary plus the
    /// index frame's dynamic snapshot.
    fn resume(names: Names, pos: u64) -> Self {
        Self {
            buf: Vec::new(),
            consumed: 0,
            pos,
            names,
            seen_magic: true,
            records: 0,
        }
    }

    /// Feeds more bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Records decoded so far (1-based ordinal of the last yielded).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.consumed..]
    }

    /// Decodes the next record, skipping dict/index frames. `Ok(None)`
    /// means the buffer ends mid-frame; push more bytes and retry.
    pub fn next_event(&mut self) -> Result<Option<RunEvent>, DecodeError> {
        loop {
            if !self.seen_magic {
                // Judge whatever prefix has arrived, so a stream that is
                // not a journal fails at its first byte.
                let have = self.pending().len().min(MAGIC.len());
                if self.pending()[..have] != MAGIC[..have] {
                    return Err(DecodeError::BadMagic);
                }
                if have < MAGIC.len() {
                    return Ok(None);
                }
                self.consumed += MAGIC.len();
                self.pos += MAGIC.len() as u64;
                self.seen_magic = true;
            }
            let pending = &self.buf[self.consumed..];
            if pending.is_empty() {
                return Ok(None);
            }
            let frame_pos = self.pos;
            let mut p = 0usize;
            let len = match get_varint(pending, &mut p) {
                Ok(Some(len)) => len,
                Ok(None) => return Ok(None),
                Err(detail) => {
                    return Err(DecodeError::Corrupt {
                        offset: frame_pos,
                        detail,
                    })
                }
            };
            if len as usize > MAX_FRAME {
                return Err(DecodeError::Corrupt {
                    offset: frame_pos,
                    detail: format!("frame length {len} exceeds the {MAX_FRAME}-byte bound"),
                });
            }
            let body_start = p;
            let body_end = body_start + len as usize;
            if pending.len() < body_end {
                return Ok(None);
            }
            let body = &pending[body_start..body_end];
            let consumed_now = body_end;
            let result = Self::decode_body(body, &mut self.names);
            self.consumed += consumed_now;
            self.pos += consumed_now as u64;
            match result {
                Ok(Some(event)) => {
                    self.records += 1;
                    return Ok(Some(event));
                }
                Ok(None) => {} // dict or index frame: absorbed, keep going
                Err(detail) => {
                    return Err(DecodeError::Corrupt {
                        offset: frame_pos,
                        detail,
                    })
                }
            }
        }
    }

    fn decode_body(body: &[u8], names: &mut Names) -> Result<Option<RunEvent>, String> {
        let kind = *body.first().ok_or("empty frame")?;
        let mut p = 1usize;
        match kind {
            FRAME_DICT => {
                let start = names.slots.len() as u64;
                let n = need(get_varint(body, &mut p)?, "dict count")?;
                if n > body.len() as u64 {
                    return Err("dict count exceeds frame".to_owned());
                }
                for id in start..start + n {
                    names.define(id, decode_str(body, &mut p, "dict name")?)?;
                }
                Ok(None)
            }
            FRAME_RECORD => {
                let seq = need(get_varint(body, &mut p)?, "seq")?;
                let run_id = decode_name_mut(body, &mut p, names)?;
                let step = decode_name_mut(body, &mut p, names)?;
                let n = need(get_varint(body, &mut p)?, "field count")?;
                // Depths count the event object (and the payload
                // object) a rendering wraps the values in.
                let payload = if n & 1 == 1 {
                    decode_value(body, &mut p, names, 1)?
                } else {
                    let count = (n >> 1) as usize;
                    if count > body.len() {
                        return Err("field count exceeds frame".to_owned());
                    }
                    let mut entries = Vec::with_capacity(count);
                    for _ in 0..count {
                        let k = decode_name_mut(body, &mut p, names)?;
                        let v = decode_value(body, &mut p, names, 2)?;
                        entries.push((k, v));
                    }
                    Value::Object(entries)
                };
                if p != body.len() {
                    return Err("trailing bytes after record".to_owned());
                }
                Ok(Some(RunEvent {
                    run_id,
                    step,
                    seq,
                    payload,
                }))
            }
            FRAME_INDEX => {
                let index = IndexFrame::parse_body(body)?;
                // Absorb the dictionary snapshot: ids this decoder has
                // not seen defined yet (possible when resuming, or when
                // a thread's defining frame was past this index) become
                // known here.
                for (i, name) in index.dynamic.into_iter().enumerate() {
                    names.define(index.base_len.saturating_add(i as u64), name)?;
                }
                Ok(None)
            }
            k => Err(format!("unknown frame kind {k}")),
        }
    }

    /// Call at end of input. Residual bytes mean a torn final frame
    /// (an entirely empty file is zero events, not an error).
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pending().is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Truncated { offset: self.pos })
        }
    }
}

/// One parsed index frame.
struct IndexFrame {
    records_before: u64,
    #[allow(dead_code)]
    first_seq: u64,
    #[allow(dead_code)]
    last_seq: u64,
    #[allow(dead_code)]
    steps: Vec<String>,
    base_len: u64,
    dynamic: Vec<String>,
    /// Offset within the body where parsing ended (== body length for
    /// well-formed frames).
    parsed_len: usize,
}

impl IndexFrame {
    /// Parses an index-frame body (kind byte included at `body[0]`).
    fn parse_body(body: &[u8]) -> Result<Self, String> {
        let mut p = 1usize; // kind
        let sync = body.get(p..p + 8).ok_or("sync marker missing")?;
        if sync != SYNC {
            return Err("sync marker mismatch".to_owned());
        }
        p += 8;
        if body.len() < p + 8 {
            return Err("sync offset missing".to_owned());
        }
        p += 8; // self-offset: validated by the tail scanner, not here
        let records_before = need(get_varint(body, &mut p)?, "record count")?;
        let first_seq = need(get_varint(body, &mut p)?, "first seq")?;
        let last_seq = need(get_varint(body, &mut p)?, "last seq")?;
        let nsteps = need(get_varint(body, &mut p)?, "step count")? as usize;
        if nsteps > body.len() {
            return Err("step count exceeds frame".to_owned());
        }
        let mut steps = Vec::with_capacity(nsteps);
        for _ in 0..nsteps {
            steps.push(decode_str(body, &mut p, "step name")?);
        }
        let base_len = need(get_varint(body, &mut p)?, "base length")?;
        let ndyn = need(get_varint(body, &mut p)?, "dynamic count")? as usize;
        if ndyn > body.len() {
            return Err("dynamic count exceeds frame".to_owned());
        }
        let mut dynamic = Vec::with_capacity(ndyn);
        for _ in 0..ndyn {
            dynamic.push(decode_str(body, &mut p, "dynamic name")?);
        }
        Ok(Self {
            records_before,
            first_seq,
            last_seq,
            steps,
            base_len,
            dynamic,
            parsed_len: p,
        })
    }
}

// ---------------------------------------------------------------------------
// streaming file reader
// ---------------------------------------------------------------------------

const CHUNK: usize = 64 * 1024;

/// A streaming iterator over a journal file. Peak memory is one read
/// chunk plus one frame — this is what lets
/// `ifjournal` and the seed-from-journal paths handle corpora that do
/// not fit in RAM.
pub struct EventStream {
    file: File,
    dec: StreamDecoder,
    eof: bool,
    done: bool,
}

impl EventStream {
    /// Opens `path` for streaming.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be opened.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            file: File::open(path)?,
            dec: StreamDecoder::new(),
            eof: false,
            done: false,
        })
    }
}

impl Iterator for EventStream {
    type Item = Result<RunEvent, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            match self.dec.next_event() {
                Ok(Some(event)) => return Some(Ok(event)),
                Ok(None) => {
                    if self.eof {
                        self.done = true;
                        return self.dec.finish().err().map(Err);
                    }
                    let mut chunk = [0u8; CHUNK];
                    match self.file.read(&mut chunk) {
                        Ok(0) => self.eof = true,
                        Ok(n) => self.dec.push(&chunk[..n]),
                        Err(e) => {
                            self.done = true;
                            return Some(Err(DecodeError::Corrupt {
                                offset: 0,
                                detail: format!("read error: {e}"),
                            }));
                        }
                    }
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// single-threaded binary writer (convert, corpus generation)
// ---------------------------------------------------------------------------

/// Writes pre-assigned [`RunEvent`]s to a binary journal, preserving
/// their seq/run-id exactly: the single-threaded path for corpus
/// generators and tests that need exact seqs. Live [`crate::Journal`]
/// handles encode frames per worker thread instead.
pub struct BinaryWriter<W: Write> {
    out: W,
    table: NameTable,
    tn: ThreadNames,
    pos: u64,
    block: BlockTracker,
}

impl<W: Write> BinaryWriter<W> {
    /// Wraps `out`, writing the magic and base dictionary immediately.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the header write fails.
    pub fn new(mut out: W) -> std::io::Result<Self> {
        let base = base_names();
        let header = header_bytes(&base);
        out.write_all(&header)?;
        Ok(Self {
            out,
            table: NameTable::with_base(base),
            tn: ThreadNames::default(),
            pos: header.len() as u64,
            block: BlockTracker::default(),
        })
    }

    /// Appends one event, emitting an index frame when due.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a write fails.
    pub fn write_event(&mut self, event: &RunEvent) -> std::io::Result<()> {
        let frame = record_frame(&self.table, &mut self.tn, event);
        self.out.write_all(&frame)?;
        self.pos += frame.len() as u64;
        self.block.on_record(event.seq, &event.step);
        if let Some(idx) = self.block.maybe_index_frame(self.pos, &self.table, false) {
            self.out.write_all(&idx)?;
            self.pos += idx.len() as u64;
        }
        Ok(())
    }

    /// Writes the final index frame and flushes, returning the sink.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the final writes fail.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(idx) = self.block.maybe_index_frame(self.pos, &self.table, true) {
            self.out.write_all(&idx)?;
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Renders a journal file as JSONL, one [`RunEvent`] object per line.
/// Parsing the output with [`crate::parse_jsonl`] yields exactly the
/// events the input decodes to.
///
/// Returns the record count.
///
/// # Errors
///
/// Returns I/O errors, and `InvalidData` wrapping the [`DecodeError`]
/// for malformed input.
pub fn convert(input: impl AsRef<Path>, output: impl AsRef<Path>) -> std::io::Result<u64> {
    let stream = EventStream::open(input)?;
    let mut out = std::io::BufWriter::new(File::create(output)?);
    let mut count = 0u64;
    for event in stream {
        let line = serde_json::to_string(&event?).expect("decoded events are serializable");
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        count += 1;
    }
    out.flush()?;
    Ok(count)
}

// ---------------------------------------------------------------------------
// indexed tail
// ---------------------------------------------------------------------------

/// Returns the last `n` events (optionally filtered to one step). This
/// seeks to the latest index frame that still leaves `n` records ahead
/// and decodes only the tail blocks; files under 256 KiB, and files
/// without a usable index, fall back to [`full_scan_tail`] (flat memory
/// either way).
///
/// # Errors
///
/// Returns I/O errors, and `InvalidData` for malformed journals.
pub fn tail_events(
    path: impl AsRef<Path>,
    step: Option<&str>,
    n: usize,
) -> std::io::Result<Vec<RunEvent>> {
    let path = path.as_ref();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < (256 << 10) {
        return full_scan_tail(path, step, n);
    }
    match indexed_tail(&mut file, file_len, step, n)? {
        Some(events) => Ok(events),
        None => full_scan_tail(path, step, n),
    }
}

/// [`tail_events`] by decoding every record from the start, keeping the
/// last `n` (optionally filtered to one step) in a ring buffer.
///
/// # Errors
///
/// Returns I/O errors, and `InvalidData` for malformed journals.
pub fn full_scan_tail(
    path: impl AsRef<Path>,
    step: Option<&str>,
    n: usize,
) -> std::io::Result<Vec<RunEvent>> {
    let stream = EventStream::open(path)?;
    let mut ring: VecDeque<RunEvent> = VecDeque::with_capacity(n + 1);
    for event in stream {
        let event = event?;
        if step.is_none_or(|s| event.step == s) {
            if ring.len() == n {
                ring.pop_front();
            }
            ring.push_back(event);
        }
    }
    Ok(ring.into_iter().collect())
}

/// A validated index-frame candidate found by the tail scanner.
struct TailCandidate {
    records_before: u64,
    /// Absolute offset decoding resumes at (the frame's end).
    resume_at: u64,
    base_len: u64,
    dynamic: Vec<String>,
}

/// `Ok(None)` means "no usable index found — fall back to a full scan".
fn indexed_tail(
    file: &mut File,
    file_len: u64,
    step: Option<&str>,
    n: usize,
) -> std::io::Result<Option<Vec<RunEvent>>> {
    // The base dictionary lives in the header; decode it once.
    file.seek(SeekFrom::Start(0))?;
    let mut header_dec = StreamDecoder::new();
    let base: Names = loop {
        let mut chunk = [0u8; CHUNK];
        let read = file.read(&mut chunk)?;
        if read == 0 {
            return Ok(None); // header torn: let the full scan report it
        }
        header_dec.push(&chunk[..read]);
        match header_dec.next_event() {
            // First record decoded → the dict frame has been absorbed.
            Ok(Some(_)) => break std::mem::take(&mut header_dec.names),
            Ok(None) => continue,
            Err(_) => return Ok(None),
        }
    };

    let mut window = 1u64 << 20;
    loop {
        let start = file_len.saturating_sub(window);
        let len = (file_len - start) as usize;
        let mut buf = vec![0u8; len];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(&mut buf)?;
        let candidates = scan_candidates(&buf, start);
        if let Some(best) = pick_candidate(&candidates, n) {
            let Ok(names) = base.resumed(best.base_len, &best.dynamic) else {
                return Ok(None); // let the full scan report the bad index
            };
            let started_mid_file = best.resume_at > 0;
            let events = decode_from(file, best.resume_at, names, step, n)?;
            // A step filter can make the tail blocks too thin; only a
            // scan from the very start proves there is nothing more.
            if events.len() >= n || !started_mid_file {
                return Ok(Some(events));
            }
        }
        if start == 0 {
            return Ok(None);
        }
        window *= 4;
    }
}

/// Scans `buf` (starting at absolute offset `buf_base`) for validated
/// index frames, in position order.
fn scan_candidates(buf: &[u8], buf_base: u64) -> Vec<TailCandidate> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + SYNC.len() + 8 <= buf.len() {
        if buf[i..i + SYNC.len()] != SYNC {
            i += 1;
            continue;
        }
        let abs = buf_base + i as u64;
        let mut off = [0u8; 8];
        off.copy_from_slice(&buf[i + 8..i + 16]);
        if u64::from_le_bytes(off) != abs {
            i += 1;
            continue; // payload bytes that merely look like a marker
        }
        // Reconstruct the body slice: the marker sits 1 byte (kind)
        // into the body. Parse to both validate and find the frame end.
        if i == 0 {
            i += 1;
            continue;
        }
        let body = &buf[i - 1..];
        match IndexFrame::parse_body(body) {
            Ok(idx) => {
                out.push(TailCandidate {
                    records_before: idx.records_before,
                    resume_at: abs - 1 + idx.parsed_len as u64,
                    base_len: idx.base_len,
                    dynamic: idx.dynamic,
                });
                i += idx.parsed_len;
            }
            Err(_) => i += 1,
        }
    }
    out
}

/// The latest candidate that still has at least `n` records after it
/// (measured against the last candidate in the window; the unindexed
/// tail segment can only add more).
fn pick_candidate(candidates: &[TailCandidate], n: usize) -> Option<&TailCandidate> {
    let last = candidates.last()?;
    candidates
        .iter()
        .rev()
        .find(|c| last.records_before.saturating_sub(c.records_before) >= n as u64)
        .or_else(|| candidates.first())
}

fn decode_from(
    file: &mut File,
    resume_at: u64,
    names: Names,
    step: Option<&str>,
    n: usize,
) -> std::io::Result<Vec<RunEvent>> {
    file.seek(SeekFrom::Start(resume_at))?;
    let mut dec = StreamDecoder::resume(names, resume_at);
    let mut ring: VecDeque<RunEvent> = VecDeque::with_capacity(n + 1);
    let mut chunk = [0u8; CHUNK];
    loop {
        loop {
            match dec.next_event() {
                Ok(Some(event)) => {
                    if step.is_none_or(|s| event.step == s) {
                        if ring.len() == n {
                            ring.pop_front();
                        }
                        ring.push_back(event);
                    }
                }
                Ok(None) => break,
                Err(e) => return Err(e.into()),
            }
        }
        let read = file.read(&mut chunk)?;
        if read == 0 {
            dec.finish().map_err(std::io::Error::from)?;
            return Ok(ring.into_iter().collect());
        }
        dec.push(&chunk[..read]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(run: &str, step: &str, seq: u64, fields: Vec<(&str, Value)>) -> RunEvent {
        RunEvent {
            run_id: run.to_owned(),
            step: step.to_owned(),
            seq,
            payload: Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()),
        }
    }

    fn round_trip(events: &[RunEvent]) -> Vec<RunEvent> {
        let table = NameTable::with_base(base_names());
        let mut tn = ThreadNames::default();
        let mut bytes = header_bytes(&base_names());
        for e in events {
            bytes.extend_from_slice(&record_frame(&table, &mut tn, e));
        }
        let mut dec = StreamDecoder::new();
        dec.push(&bytes);
        let mut out = Vec::new();
        while let Some(e) = dec.next_event().unwrap() {
            out.push(e);
        }
        dec.finish().unwrap();
        out
    }

    #[test]
    fn varints_round_trip() {
        for x in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, x);
            assert_eq!(buf.len(), varint_len(x));
            let mut p = 0;
            assert_eq!(get_varint(&buf, &mut p), Ok(Some(x)));
            assert_eq!(p, buf.len());
        }
        for x in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }

    #[test]
    fn records_round_trip_exactly() {
        let events = vec![
            ev(
                "r0",
                "flow.sample",
                0,
                vec![
                    ("sample", Value::Int(7)),
                    ("wns_ps", Value::Float(-12.5)),
                    ("note", Value::Str("hé\"llo\n".to_owned())),
                    ("flags", Value::Array(vec![Value::Bool(true), Value::Null])),
                    (
                        "nested",
                        Value::Object(vec![("k".to_owned(), Value::Int(-3))]),
                    ),
                ],
            ),
            ev("r0", "custom.step", 1, vec![("x", Value::Int(1))]),
            ev("r0", "custom.step", 2, vec![("x", Value::Int(2))]),
        ];
        assert_eq!(round_trip(&events), events);
    }

    #[test]
    fn float_normalization_matches_the_jsonl_round_trip() {
        let cases: Vec<(f64, Value)> = vec![
            (2.0, Value::Int(2)),
            (-0.0, Value::Int(0)),
            (2.5, Value::Float(2.5)),
            (f64::NAN, Value::Null),
            (f64::INFINITY, Value::Null),
            (1e300, Value::Float(1e300)),
            // Above 2^53, Display prints a shortest-roundtrip integer
            // that may differ from the exact value — or overflow i64.
            (
                4_611_686_018_427_387_904.0,
                Value::Int(4_611_686_018_427_388_000),
            ),
            (
                9_223_372_036_854_775_808.0,
                Value::Float(9.223_372_036_854_776e18),
            ),
            (
                -9_223_372_036_854_775_808.0,
                Value::Float(-9.223_372_036_854_776e18),
            ),
        ];
        for (f, expected) in cases {
            // What the binary codec produces...
            let event = ev("r", "prop.event", 0, vec![("v", Value::Float(f))]);
            let decoded = round_trip(std::slice::from_ref(&event));
            let got = decoded[0].payload.get("v").unwrap();
            assert_eq!(got, &expected, "binary round trip of {f}");
            // ...matches what JSONL produces for the same event.
            let line = serde_json::to_string(&event).unwrap();
            let reparsed: RunEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(reparsed.payload.get("v").unwrap(), &expected, "jsonl {f}");
        }
    }

    #[test]
    fn truncated_tail_recovers_the_valid_prefix() {
        let events: Vec<RunEvent> = (0..5)
            .map(|i| ev("r", "prop.event", i, vec![("i", Value::Int(i as i64))]))
            .collect();
        let table = NameTable::with_base(base_names());
        let mut tn = ThreadNames::default();
        let mut bytes = header_bytes(&base_names());
        for e in &events {
            bytes.extend_from_slice(&record_frame(&table, &mut tn, e));
        }
        // Chop mid-way through the last frame.
        let torn = &bytes[..bytes.len() - 3];
        let mut dec = StreamDecoder::new();
        dec.push(torn);
        let mut out = Vec::new();
        while let Some(e) = dec.next_event().unwrap() {
            out.push(e);
        }
        assert_eq!(out, events[..4].to_vec(), "valid prefix recovered");
        let err = dec.finish().unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }), "{err}");
    }

    #[test]
    fn nested_map_keys_define_names_for_later_records() {
        // A dynamic name whose first (defining) use is a *nested* map
        // key: record 2 references it bare, so the decoder must have
        // retained the inline definition from record 1's payload.
        let spec = |n: i64| {
            Value::Object(vec![
                ("zz_dyn_key".to_owned(), Value::Int(n)),
                ("zz_other".to_owned(), Value::Str("x".to_owned())),
            ])
        };
        let events: Vec<RunEvent> = (0..3)
            .map(|i| ev("r", "prop.event", i, vec![("spec", spec(i as i64))]))
            .collect();
        let table = NameTable::with_base(base_names());
        let mut tn = ThreadNames::default();
        let mut bytes = header_bytes(&base_names());
        for e in &events {
            bytes.extend_from_slice(&record_frame(&table, &mut tn, e));
        }
        let mut dec = StreamDecoder::new();
        dec.push(&bytes);
        let mut out = Vec::new();
        while let Some(e) = dec.next_event().unwrap() {
            out.push(e);
        }
        dec.finish().unwrap();
        assert_eq!(out, events);
    }

    #[test]
    fn corrupt_frames_surface_typed_errors() {
        // Giant length prefix.
        let mut bytes = MAGIC.to_vec();
        put_varint(&mut bytes, (MAX_FRAME + 1) as u64);
        let mut dec = StreamDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_event(), Err(DecodeError::Corrupt { .. })));
        // Unknown frame kind.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&frame(vec![99u8]));
        let mut dec = StreamDecoder::new();
        dec.push(&bytes);
        assert!(matches!(
            dec.next_event(),
            Err(DecodeError::Corrupt { offset, .. }) if offset == 8
        ));
        // Wrong magic.
        let mut dec = StreamDecoder::new();
        dec.push(b"\x89WRONG!!!");
        assert_eq!(dec.next_event(), Err(DecodeError::BadMagic));
    }

    #[test]
    fn single_threaded_encoding_is_deterministic() {
        let events: Vec<RunEvent> = (0..10)
            .map(|i| {
                ev(
                    "r",
                    "dyn.step",
                    i,
                    vec![("v", Value::Float(i as f64 * 0.5))],
                )
            })
            .collect();
        let encode = || {
            let table = NameTable::with_base(base_names());
            let mut tn = ThreadNames::default();
            let mut bytes = header_bytes(&base_names());
            for e in &events {
                bytes.extend_from_slice(&record_frame(&table, &mut tn, e));
            }
            bytes
        };
        assert_eq!(encode(), encode(), "same events, byte-identical output");
    }

    #[test]
    fn out_of_order_definitions_decode_via_sparse_table() {
        // Simulate two threads racing the interner: ids are assigned
        // b=base+0, a=base+1, but the frame *defining* base+1 lands
        // first in the file.
        let table = NameTable::with_base(base_names());
        let _ = table.intern("zz.first-interned");
        let _ = table.intern("aa.second-interned");
        let mut tn_b = ThreadNames::default(); // "thread B" defines aa only
        let mut tn_a = ThreadNames::default(); // "thread A" defines zz only
        let e1 = ev("r", "aa.second-interned", 0, vec![]);
        let e2 = ev("r", "zz.first-interned", 1, vec![]);
        let mut bytes = header_bytes(&base_names());
        bytes.extend_from_slice(&record_frame(&table, &mut tn_b, &e1));
        bytes.extend_from_slice(&record_frame(&table, &mut tn_a, &e2));
        let mut dec = StreamDecoder::new();
        dec.push(&bytes);
        assert_eq!(
            dec.next_event().unwrap().unwrap().step,
            "aa.second-interned"
        );
        assert_eq!(dec.next_event().unwrap().unwrap().step, "zz.first-interned");
        dec.finish().unwrap();
    }

    #[test]
    fn binary_writer_emits_indexes_and_tail_uses_them() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ideaflow_codec_tail_{}.ifj", std::process::id()));
        let count = 3 * INDEX_EVERY + 100;
        {
            let mut w =
                BinaryWriter::new(std::io::BufWriter::new(File::create(&path).unwrap())).unwrap();
            for i in 0..count {
                w.write_event(&ev(
                    "r",
                    if i % 2 == 0 { "even.step" } else { "odd.step" },
                    i,
                    vec![("i", Value::Int(i as i64))],
                ))
                .unwrap();
            }
            w.finish().unwrap();
        }
        let tail = tail_events(&path, None, 5).unwrap();
        assert_eq!(tail.len(), 5);
        assert_eq!(tail.last().unwrap().seq, count - 1);
        assert_eq!(tail[0].seq, count - 5);
        let odd = tail_events(&path, Some("odd.step"), 3).unwrap();
        assert_eq!(odd.len(), 3);
        assert!(odd.iter().all(|e| e.step == "odd.step"));
        assert_eq!(odd.last().unwrap().seq, count - 1);
        // A step that exists only at the very start forces the
        // fall-back full scan to prove completeness.
        let none = tail_events(&path, Some("missing.step"), 3).unwrap();
        assert!(none.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn event_stream_reads_whole_binary_files() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ideaflow_codec_stream_{}.ifj", std::process::id()));
        let events: Vec<RunEvent> = (0..100)
            .map(|i| ev("r", "prop.event", i, vec![("i", Value::Int(i as i64))]))
            .collect();
        {
            let mut w =
                BinaryWriter::new(std::io::BufWriter::new(File::create(&path).unwrap())).unwrap();
            for e in &events {
                w.write_event(e).unwrap();
            }
            w.finish().unwrap();
        }
        let stream = EventStream::open(&path).unwrap();
        let decoded: Vec<RunEvent> = stream.map(Result::unwrap).collect();
        std::fs::remove_file(&path).ok();
        assert_eq!(decoded, events);
    }

    #[test]
    fn a_jsonl_rendering_is_refused_at_its_first_byte() {
        let line = serde_json::to_string(&ev("r", "prop.event", 0, vec![])).unwrap();
        let mut dec = StreamDecoder::new();
        dec.push(&line.as_bytes()[..1]);
        assert_eq!(dec.next_event(), Err(DecodeError::BadMagic));
    }

    #[test]
    fn every_decodable_depth_renders_and_parses_back() {
        // `k` nested arrays in a field sit inside the event and payload
        // objects: `k + 2` containers deep as JSON.
        let nest = |k: usize| (0..k).fold(Value::Null, |v, _| Value::Array(vec![v]));
        for k in [MAX_DEPTH - 2, MAX_DEPTH - 1] {
            let event = ev("r", "prop.event", 0, vec![("v", nest(k))]);
            let table = NameTable::with_base(base_names());
            let mut bytes = header_bytes(&base_names());
            bytes.extend_from_slice(&record_frame(&table, &mut ThreadNames::default(), &event));
            let mut dec = StreamDecoder::new();
            dec.push(&bytes);
            let decoded = dec.next_event();
            let line = serde_json::to_string(&event).unwrap();
            let parsed = serde_json::from_str::<RunEvent>(&line);
            if k + 2 <= MAX_DEPTH {
                assert_eq!(decoded, Ok(Some(event.clone())));
                assert_eq!(parsed.unwrap(), event);
            } else {
                assert!(
                    matches!(decoded, Err(DecodeError::Corrupt { .. })),
                    "{decoded:?}"
                );
                assert!(parsed.is_err());
            }
        }
    }

    #[test]
    fn base_dictionary_covers_the_registry() {
        let base = base_names();
        assert!(base.iter().any(|n| n == "flow.sample"));
        assert!(base.iter().any(|n| n == "journal.meta"));
        assert!(base.iter().any(|n| n == "schema_hash"));
        assert!(base.iter().any(|n| n == "p95"));
        assert!(!base.iter().any(|n| n.contains('*')), "no wildcards");
        let mut dedup = base.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), base.len(), "no duplicates");
    }

    /// An index-frame body with no steps, the given counts and names, and
    /// a zero sync offset.
    fn index_body(records_before: u64, base_len: u64, dynamic: &[&str]) -> Vec<u8> {
        let mut body = vec![FRAME_INDEX];
        body.extend_from_slice(&SYNC);
        body.extend_from_slice(&[0; 8]);
        for x in [records_before, 0, 0, 0, base_len, dynamic.len() as u64] {
            put_varint(&mut body, x);
        }
        for name in dynamic {
            put_varint(&mut body, name.len() as u64);
            body.extend_from_slice(name.as_bytes());
        }
        body
    }

    #[test]
    fn crafted_name_ids_are_corrupt_not_panics_or_giant_tables() {
        // 43 bytes: one index frame whose base length is 2^64 - 1.
        let mut huge_base = MAGIC.to_vec();
        huge_base.extend_from_slice(&frame(index_body(0, u64::MAX, &["x"])));
        // A 21-byte record frame defining name id 60,000,000 inline.
        let mut body = vec![FRAME_RECORD, 0];
        put_varint(&mut body, (60_000_000 << 1) | 1);
        put_varint(&mut body, 8);
        body.extend_from_slice(b"campaign");
        put_varint(&mut body, 60_000_000 << 1);
        body.push(0);
        let mut far_id = MAGIC.to_vec();
        far_id.extend_from_slice(&frame(body));
        assert_eq!((huge_base.len(), far_id.len() - MAGIC.len()), (43, 21));
        for bytes in [huge_base, far_id] {
            let mut dec = StreamDecoder::new();
            dec.push(&bytes);
            let err = dec.next_event().unwrap_err();
            assert!(
                matches!(err, DecodeError::Corrupt { offset: 8, .. }),
                "{err}"
            );
            assert!(dec.names.slots.is_empty(), "table sized by a corrupt id");
        }
    }

    #[test]
    fn crafted_index_frames_fall_back_instead_of_panicking() {
        let path =
            std::env::temp_dir().join(format!("ideaflow_codec_idx_{}.ifj", std::process::id()));
        // One record big enough for `tail_events` to take the indexed
        // path, then index frames carrying their true sync offsets.
        let write = |indexes: &[(u64, u64)]| {
            let big = ev(
                "r",
                "big",
                0,
                vec![("pad", Value::Str("x".repeat(300 << 10)))],
            );
            let table = NameTable::with_base(base_names());
            let mut bytes = header_bytes(&base_names());
            bytes.extend_from_slice(&record_frame(&table, &mut ThreadNames::default(), &big));
            for &(records_before, base_len) in indexes {
                let mut body = index_body(records_before, base_len, &["x"]);
                let sync_pos = bytes.len() + varint_len(body.len() as u64) + 1;
                body[9..17].copy_from_slice(&(sync_pos as u64).to_le_bytes());
                bytes.extend_from_slice(&frame(body));
            }
            std::fs::write(&path, bytes).unwrap();
        };
        let base_len = base_names().len() as u64;
        // Record counts running backwards must not underflow the pick.
        write(&[(5, base_len), (1, base_len)]);
        assert_eq!(tail_events(&path, None, 1).unwrap().len(), 1);
        // A base length past the id space must not size the name table.
        write(&[(1, u64::MAX)]);
        let err = tail_events(&path, None, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// Runs `bytes` through every reader (push decoder, file stream,
    /// indexed tail): each may fail, none may panic.
    fn decode_every_way(bytes: &[u8], path: &Path) {
        let mut dec = StreamDecoder::new();
        dec.push(bytes);
        while let Ok(Some(_)) = dec.next_event() {}
        let _ = dec.finish();
        std::fs::write(path, bytes).unwrap();
        EventStream::open(path).unwrap().for_each(drop);
        let _ = tail_events(path, None, 3);
        let _ = tail_events(path, Some("flow.place"), 3);
    }

    /// A binary journal from the live writer, past the indexed-tail size
    /// threshold, with dynamic names, nested payloads and spans.
    fn real_journal() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            let path = std::env::temp_dir()
                .join(format!("ideaflow_codec_real_{}.ifj", std::process::id()));
            let j = crate::Journal::to_file("fuzz", &path).unwrap();
            for i in 0..6000u64 {
                let _span = (i % 100 == 0).then(|| j.span("fuzz.block"));
                j.emit("flow.place", &[("hpwl_um", (i as f64 * 0.5).into())]);
                let spec = Value::Object(vec![(
                    format!("k{}", i % 7),
                    Value::Array(vec![Value::Null]),
                )]);
                j.emit(
                    "fuzz.step",
                    &[("note", "padding text for size".into()), ("spec", spec)],
                );
            }
            j.finish();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert!(
                bytes.len() > 256 << 10,
                "indexed tail needs {} > 256 KiB",
                bytes.len()
            );
            bytes
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn decoders_survive_arbitrary_frames(tail in proptest::collection::vec(0u8..=255, 0..512)) {
            let path = std::env::temp_dir().join(format!("ideaflow_codec_arb_{}.ifj", std::process::id()));
            decode_every_way(&[&MAGIC[..], &tail].concat(), &path);
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn decoders_survive_bit_flips_of_a_real_journal(flips in proptest::collection::vec(0u64..u64::MAX, 1..8)) {
            let mut bytes = real_journal().to_vec();
            for bit in flips {
                let bit = (bit % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            let path = std::env::temp_dir().join(format!("ideaflow_codec_flip_{}.ifj", std::process::id()));
            decode_every_way(&bytes, &path);
            std::fs::remove_file(&path).ok();
        }
    }
}
