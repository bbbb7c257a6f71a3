//! The traced run's spans: kept in memory while the run executes and
//! written to one JSONL file at exit. Each span times one call the
//! benchmark makes into a layer; the spans of one campaign share its id.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span this call was made under.
    pub parent: Option<u64>,
    /// Layer call, e.g. `client.submit` or `replay.queue.claim`.
    pub name: String,
    /// The campaign this call served, if any.
    pub campaign: Option<String>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's span log. Ids are `thread << 40 | n`, so logs of
/// different threads merge without clashes.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log for `thread`, timing against `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Self {
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose times are known only later.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.thread << 40 | self.next
    }

    /// Records a finished span under a reserved or fresh id.
    pub fn record(
        &mut self,
        id: Option<u64>,
        name: &str,
        parent: Option<u64>,
        campaign: Option<&str>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = id.unwrap_or_else(|| self.reserve());
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            campaign: campaign.map(str::to_owned),
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Times `f` as a span and returns its result with the duration in ms.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        campaign: Option<&str>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(None, name, parent, campaign, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Moves another log's spans into this one.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Every span, in record order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of the spans named `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span to `path` as one JSON object per line, ordered
    /// by start.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut out)?;
        out.flush()
    }

    fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        for s in spans {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_owned());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"campaign\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                opt(s.parent.map(|p| p.to_string())),
                s.name,
                opt(s.campaign.as_ref().map(|c| format!("\"{c}\""))),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_merge_and_serialize() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 1);
        let unit = a.reserve();
        let ((), _) = a.time("client.submit", Some(unit), Some("c0001"), || ());
        let now = Instant::now();
        a.record(
            Some(unit),
            "client.campaign",
            None,
            Some("c0001"),
            epoch,
            now,
        );
        let mut b = SpanLog::new(epoch, 2);
        let ((), ms) = b.time("client.healthz", None, None, || ());
        assert!(ms >= 0.0);
        a.absorb(b);
        let ids: std::collections::HashSet<u64> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3, "ids stay unique across threads");
        assert_eq!(a.durations_ms("client.submit").len(), 1);
        let submit = &a.spans()[0];
        assert_eq!(submit.parent, Some(unit));

        let mut buf = Vec::new();
        a.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v: ideaflow_trace::PayloadValue = serde_json::from_str(line).unwrap();
            assert!(v.get("name").and_then(|n| n.as_str()).is_some());
        }
        assert!(text.contains("\"campaign\": \"c0001\""));
        assert!(text.contains("\"parent\": null"));
    }
}
