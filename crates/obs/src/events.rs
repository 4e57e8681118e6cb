//! Flat JSONL event encoding and the file sink.
//!
//! Events are single-line JSON objects with only scalar values (string /
//! integer / float / bool / null) — no nesting — so they can be parsed
//! back by the dependency-free scanner in [`crate::report`] and grepped
//! with line tools. Every event carries `t_ms` (milliseconds since the
//! recorder was created) and `kind`, followed by the recorder's static
//! meta fields (e.g. `engine`, `workload`) and the event's own fields.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A scalar JSON value for one event field.
#[derive(Clone, Debug, PartialEq)]
pub enum J {
    /// String (escaped on encode).
    S(String),
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Float, rendered with up to 3 decimals.
    F(f64),
    /// Boolean.
    B(bool),
    /// Null.
    N,
}

impl J {
    /// Borrowed-str convenience constructor.
    #[must_use]
    pub fn s(v: impl Into<String>) -> J {
        J::S(v.into())
    }

    fn encode_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            J::S(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            J::U(v) => {
                let _ = write!(out, "{v}");
            }
            J::I(v) => {
                let _ = write!(out, "{v}");
            }
            J::F(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.3}");
                } else {
                    out.push_str("null");
                }
            }
            J::B(v) => out.push_str(if *v { "true" } else { "false" }),
            J::N => out.push_str("null"),
        }
    }
}

pub(crate) fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render one flat JSON object line (no trailing newline). `head` fields
/// come first (in order), then `fields`.
#[must_use]
pub fn encode_line<'a>(
    head: impl IntoIterator<Item = (&'a str, &'a J)>,
    fields: impl IntoIterator<Item = (&'a str, &'a J)>,
) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    let mut first = true;
    for (k, v) in head.into_iter().chain(fields) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        escape_into(k, &mut out);
        out.push_str("\":");
        v.encode_into(&mut out);
    }
    out.push('}');
    out
}

/// JSONL file sink, written crash-safely.
///
/// Lines are flushed to the OS as they are written (line-buffered), so a
/// crashed process loses at most the line being written — and only that
/// line can be torn, which the report scanner skips and counts rather
/// than erroring on. A [`create`](Self::create)d sink additionally
/// streams into a `<path>.partial` sibling and atomically renames it to
/// the final name on close (drop), so the final path either holds a
/// complete stream or nothing; a leftover `.partial` file is the
/// recognizable signature of a crashed run.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    /// Temp path the stream is being written to; renamed to `path` on
    /// drop. `None` for append-mode sinks, which write in place.
    partial: Option<PathBuf>,
    file: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Open `path` for appending, creating parent directories on demand.
    /// Appending writes in place (there is existing content an atomic
    /// rename would orphan); each line is still flushed as written.
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(JsonlSink {
            path,
            partial: None,
            file: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Open a fresh stream that will land at `path` when the sink is
    /// dropped, creating parents on demand. Until then the bytes live in
    /// `<path>.partial`; a stale final file from a previous run is
    /// removed up front so readers never mix runs.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut partial = path.clone().into_os_string();
        partial.push(".partial");
        let partial = PathBuf::from(partial);
        let file = File::create(&partial)?;
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(JsonlSink {
            path,
            partial: Some(partial),
            file: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Write one line (newline appended) and flush it. Errors are
    /// swallowed — losing telemetry must never fail the run being
    /// observed.
    pub fn write_line(&self, line: &str) {
        let mut f = self.file.lock().expect("unpoisoned");
        let _ = f.write_all(line.as_bytes());
        let _ = f.write_all(b"\n");
        let _ = f.flush();
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) {
        let _ = self.file.lock().expect("unpoisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        {
            let mut f = self.file.lock().expect("unpoisoned");
            let _ = f.flush();
            let _ = f.get_ref().sync_all();
        }
        if let Some(partial) = &self.partial {
            // Publish the completed stream under its final name. Errors
            // are swallowed like every other sink error; the .partial
            // file then survives as the crashed-run artifact it is.
            let _ = fs::rename(partial, &self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_escapes_and_orders() {
        let kind = J::s("info");
        let msg = J::s("a\"b\\c\nd");
        let n = J::U(3);
        let line = encode_line([("kind", &kind)], [("msg", &msg), ("n", &n)]);
        assert_eq!(line, r#"{"kind":"info","msg":"a\"b\\c\nd","n":3}"#);
    }

    #[test]
    fn floats_render_fixed_and_nonfinite_as_null() {
        let mut s = String::new();
        J::F(1.0 / 3.0).encode_into(&mut s);
        assert_eq!(s, "0.333");
        s.clear();
        J::F(f64::NAN).encode_into(&mut s);
        assert_eq!(s, "null");
    }

    #[test]
    fn created_sink_publishes_on_drop() {
        let dir = std::env::temp_dir().join(format!("ftobs_sink_test_{}", std::process::id()));
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).expect("create");
        sink.write_line(r#"{"kind":"a"}"#);
        // While the sink is live, the stream is in the .partial sibling
        // (already flushed line by line) and the final path is absent.
        assert!(!path.exists(), "final path appears only on close");
        let partial = dir.join("events.jsonl.partial");
        assert_eq!(
            std::fs::read_to_string(&partial).expect("partial readable"),
            "{\"kind\":\"a\"}\n",
            "lines are flushed as written"
        );
        drop(sink);
        assert!(!partial.exists(), "partial renamed away on close");
        assert_eq!(
            std::fs::read_to_string(&path).expect("final readable"),
            "{\"kind\":\"a\"}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_removes_stale_final_file() {
        let dir = std::env::temp_dir().join(format!("ftobs_stale_test_{}", std::process::id()));
        let path = dir.join("events.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "old run\n").unwrap();
        let sink = JsonlSink::create(&path).expect("create");
        assert!(!path.exists(), "stale stream removed up front");
        drop(sink);
        assert_eq!(std::fs::read_to_string(&path).expect("final"), "");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
