//! The `allow.toml` allowlist: commented, audited suppressions.
//!
//! `ifcheck` is deny-by-default — every finding fails the build unless
//! an entry here names it *and says why*. The format is a TOML subset
//! (parsed by hand; the workspace vendors no TOML crate):
//!
//! ```toml
//! # Why this file exists…
//!
//! [[allow]]
//! lint = "wall-clock"
//! path = "crates/flow/src/spnr.rs"
//! reason = "stage timers feed only telemetry `secs` fields"
//! ```
//!
//! An entry suppresses every finding of `lint` in `path` (paths are
//! workspace-relative with forward slashes). `reason` is mandatory:
//! a suppression nobody can explain is a finding in itself. In strict
//! mode (`--deny-all`) entries that no longer suppress anything are
//! reported as `stale-allow` so the file cannot rot.

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The lint name the entry suppresses.
    pub lint: String,
    /// Workspace-relative file path (forward slashes).
    pub path: String,
    /// Why the suppression is sound. Mandatory.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header (for stale-entry reports).
    pub line: u32,
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the TOML subset. Unknown or repeated keys, missing
    /// fields, and anything but `[[allow]]` tables are errors — the
    /// allowlist is a security-adjacent artifact and silent tolerance
    /// would hide typos (a misspelled `lint =` would otherwise suppress
    /// nothing and the finding would *still fail*, but with a confusing
    /// double report; a repeated `path =` would silently suppress a
    /// different file than the one the entry's first line names).
    ///
    /// # Errors
    ///
    /// Returns a line-numbered message for malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut open = false;
        // Keys set in the current table; each may appear once.
        let mut keys: Vec<&str> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = (i + 1) as u32;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(prev) = entries.last() {
                    validate(prev)?;
                }
                entries.push(AllowEntry {
                    lint: String::new(),
                    path: String::new(),
                    reason: String::new(),
                    line: lineno,
                });
                open = true;
                keys.clear();
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "line {lineno}: only [[allow]] tables are supported, got {line}"
                ));
            }
            if !open {
                return Err(format!("line {lineno}: key outside an [[allow]] table"));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = \"value\"`"))?;
            let key = key.trim();
            if keys.contains(&key) {
                return Err(format!(
                    "line {lineno}: repeated key `{key}` in one [[allow]] table"
                ));
            }
            keys.push(key);
            let value = value.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("line {lineno}: values must be double-quoted strings"))?;
            let entry = entries.last_mut().expect("open implies an entry");
            match key {
                "lint" => entry.lint = value.to_owned(),
                "path" => entry.path = value.to_owned(),
                "reason" => entry.reason = value.to_owned(),
                other => {
                    return Err(format!(
                        "line {lineno}: unknown key `{other}` (expected lint/path/reason)"
                    ))
                }
            }
        }
        if let Some(prev) = entries.last() {
            validate(prev)?;
        }
        Ok(Self { entries })
    }

    /// Whether a finding is suppressed; returns the entry index so
    /// callers can track which entries actually fired.
    #[must_use]
    pub fn suppresses(&self, lint: &str, path: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.lint == lint && e.path == path)
    }
}

fn validate(e: &AllowEntry) -> Result<(), String> {
    for (field, value) in [("lint", &e.lint), ("path", &e.path), ("reason", &e.reason)] {
        if value.is_empty() {
            return Err(format!(
                "line {}: [[allow]] entry is missing `{field}` (every \
                 suppression must name its lint, file, and reason)",
                e.line
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_with_comments() {
        let text = "\n# header\n\n[[allow]]\n# why\nlint = \"wall-clock\"\npath = \"crates/flow/src/spnr.rs\"\nreason = \"telemetry only\"\n";
        let a = Allowlist::parse(text).unwrap();
        assert_eq!(a.entries.len(), 1);
        assert_eq!(a.entries[0].lint, "wall-clock");
        assert_eq!(a.entries[0].line, 4);
        assert!(a
            .suppresses("wall-clock", "crates/flow/src/spnr.rs")
            .is_some());
        assert!(a
            .suppresses("wall-clock", "crates/flow/src/cache.rs")
            .is_none());
    }

    #[test]
    fn missing_reason_is_rejected() {
        let text = "[[allow]]\nlint = \"wall-clock\"\npath = \"a.rs\"\n";
        let err = Allowlist::parse(text).unwrap_err();
        assert!(err.contains("missing `reason`"), "{err}");
    }

    #[test]
    fn unknown_key_is_rejected() {
        let err = Allowlist::parse("[[allow]]\nlints = \"x\"\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn unquoted_value_is_rejected() {
        let err = Allowlist::parse("[[allow]]\nlint = wall-clock\n").unwrap_err();
        assert!(err.contains("double-quoted"), "{err}");
    }

    #[test]
    fn repeated_key_is_rejected() {
        let text =
            "[[allow]]\nlint = \"wall-clock\"\npath = \"a.rs\"\npath = \"b.rs\"\nreason = \"r\"\n";
        let err = Allowlist::parse(text).unwrap_err();
        assert!(
            err.contains("line 4: repeated key `path` in one [[allow]] table"),
            "{err}"
        );
        // The same key in the next table is a new entry, not a repeat.
        let two = "[[allow]]\nlint = \"a\"\npath = \"a.rs\"\nreason = \"r\"\n\
                   [[allow]]\nlint = \"b\"\npath = \"b.rs\"\nreason = \"r\"\n";
        assert_eq!(Allowlist::parse(two).unwrap().entries.len(), 2);
    }

    proptest::proptest! {
        #[test]
        fn parse_never_panics(
            keys in proptest::collection::vec(0..4usize, 0..12),
            noise in "[ -~\n]{0,24}",
            at in 0usize..512,
        ) {
            // Generated entries, each key drawn from lint/path/reason
            // (and an unknown one), so tables miss and repeat keys.
            const KEYS: [&str; 4] = ["lint", "path", "reason", "lints"];
            let mut text = String::new();
            for (i, &k) in keys.iter().enumerate() {
                if i % 3 == 0 {
                    text += "[[allow]]\n";
                }
                text += &format!("{} = \"v{i}\"\n", KEYS[k]);
            }
            // Half the cases splice the random text in (all of the text,
            // when no entries were generated).
            if at < 256 {
                text.insert_str(at.min(text.len()), &noise);
            }
            if let Ok(list) = Allowlist::parse(&text) {
                for e in &list.entries {
                    proptest::prop_assert!(!e.lint.is_empty());
                    proptest::prop_assert!(!e.path.is_empty());
                    proptest::prop_assert!(!e.reason.is_empty());
                }
            }
        }
    }
}
