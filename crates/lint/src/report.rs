//! Machine-readable output and the baseline workflow.
//!
//! `--format json` emits the full report as JSON with findings sorted
//! by (file, line, rule, message) — byte-stable across platforms and
//! runs. A committed `lint-baseline.json` records known findings as
//! (rule, file, message) triples; `--deny-new` fails when the unwaived
//! findings differ from it in either direction. Lines are deliberately
//! *not* part of the baseline key (and the interprocedural messages
//! carry no line numbers), so unrelated edits that shift code do not
//! churn CI.
//!
//! Both the writer and the reader here are hand-rolled: the analyzer
//! stays dependency-free, and the baseline subset of JSON (one object,
//! one array of flat string-valued objects) does not need serde.

use crate::{Finding, Report};
use std::collections::BTreeSet;

/// Order findings by (file, line, rule, message) and drop duplicates
/// (interprocedural rules can reach one site along several edges).
pub fn normalize(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule.as_str(),
            b.message.as_str(),
        ))
    });
    findings.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.message == b.message
    });
}

/// Escape a string for JSON output.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a full report as JSON (findings must already be normalized).
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i + 1 == report.findings.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"waived\": {}}}{}\n",
            f.rule,
            esc(&f.file),
            f.line,
            esc(&f.message),
            f.waived,
            sep
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The committed set of known findings, keyed by (rule, file, message).
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeSet<(String, String, String)>,
}

impl Baseline {
    /// Build a baseline from the unwaived findings of a report.
    pub fn from_report(report: &Report) -> Baseline {
        Baseline {
            entries: report
                .violations()
                .map(|f| (f.rule.to_string(), f.file.clone(), f.message.clone()))
                .collect(),
        }
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize as the committed `lint-baseline.json` format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n  \"entries\": [\n");
        for (i, (rule, file, message)) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"message\": \"{}\"}}{}\n",
                esc(rule),
                esc(file),
                esc(message),
                sep
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The drift between this baseline and the current unwaived
    /// findings, as unified-diff lines in (rule, file, message) order:
    /// `+` for a finding absent from the baseline, `-` for an entry that
    /// no longer fires. `--deny-new` fails on either, so the baseline
    /// only shrinks, and only together with the fix.
    pub fn drift(&self, report: &Report) -> Vec<String> {
        let current: BTreeSet<(String, String, String)> = report
            .violations()
            .map(|f| (f.rule.to_string(), f.file.clone(), f.message.clone()))
            .collect();
        let stale = self.entries.difference(&current).map(|e| ('-', e));
        let new = current.difference(&self.entries).map(|e| ('+', e));
        let mut lines: Vec<_> = stale.chain(new).collect();
        lines.sort_by(|a, b| a.1.cmp(b.1));
        lines
            .into_iter()
            .map(|(sign, (rule, file, message))| format!("{sign}{rule}: {file}: {message}"))
            .collect()
    }

    /// Parse the `lint-baseline.json` format. Unknown keys are ignored;
    /// a malformed file is an error (CI must not silently pass).
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let value = Json::parse(src)?;
        let Json::Object(top) = value else {
            return Err("baseline: top level must be an object".into());
        };
        let Some(Json::Array(items)) = top.iter().find(|(k, _)| k == "entries").map(|(_, v)| v)
        else {
            return Err("baseline: missing \"entries\" array".into());
        };
        let mut entries = BTreeSet::new();
        for item in items {
            let Json::Object(fields) = item else {
                return Err("baseline: entries must be objects".into());
            };
            let get = |key: &str| -> Result<String, String> {
                match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
                    Some(Json::String(s)) => Ok(s.clone()),
                    _ => Err(format!("baseline: entry missing string \"{key}\"")),
                }
            };
            entries.insert((get("rule")?, get("file")?, get("message")?));
        }
        Ok(Baseline { entries })
    }
}

/// A minimal JSON value — just enough to read the baseline file.
enum Json {
    Null,
    Bool,
    Number,
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("json: trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let Json::String(key) = parse_value(b, pos)? else {
                    return Err("json: object key must be a string".into());
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("json: expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("json: expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("json: expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("json: unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::String(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("json: truncated \\u escape")?;
                                let hex =
                                    std::str::from_utf8(hex).map_err(|_| "json: bad \\u escape")?;
                                let n = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "json: bad \\u escape")?;
                                s.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err("json: bad escape".into()),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Copy a full UTF-8 sequence.
                        let len = match c {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let chunk = b
                            .get(*pos..*pos + len)
                            .ok_or("json: truncated utf-8 in string")?;
                        s.push_str(std::str::from_utf8(chunk).map_err(|_| "json: invalid utf-8")?);
                        *pos += len;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool)
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool)
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(|_| Json::Number)
                .ok_or_else(|| format!("json: bad number at byte {start}"))
        }
        _ => Err(format!("json: unexpected byte at {}", *pos)),
    }
}
