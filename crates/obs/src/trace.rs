//! Span tracing: RAII scope timers with per-thread parent/child
//! nesting, written as JSONL when tracing is enabled.
//!
//! A [`Span`] guard is opened at the top of a traced scope and records
//! its duration on drop. Nesting is tracked per thread (a span opened
//! while another is active becomes its child); worker threads started
//! mid-span can link back to the spawning span explicitly with
//! [`span_under`]. When tracing is disabled — the default — opening a
//! span is one relaxed atomic load and no allocation, so the guards
//! stay in release hot paths.
//!
//! Enabling: [`init_file`] (the `--trace-out` flag), [`init_from_env`]
//! (`NDETECT_TRACE=<path>`), or [`init_writer`] (tests). Each span
//! close appends one JSON object line:
//!
//! ```text
//! {"name":"universe.build","id":3,"parent":1,"thread":1,
//!  "start_ns":1200,"dur_ns":154000000,"fields":{"circuit":"rie"}}
//! ```
//!
//! `id` is unique per process, `parent` is `0` for roots, `start_ns`
//! counts from the moment tracing was enabled, and `fields` carries
//! span-specific key/value annotations (attached with
//! [`Span::field`]). Lines are flushed as they are written, so a trace
//! is valid JSONL even if the process is killed mid-run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether a sink is installed; the only cost uninstrumented runs pay.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic span id allocator (0 is reserved for "no parent").
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Monotonic thread id allocator (stable `u64` ids, unlike
/// `std::thread::ThreadId` which cannot be read as an integer).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// The trace output; `None` until one of the init functions runs.
static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();

/// The instant `start_ns` counts from (set once, at first enable).
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// The stack of open span ids on this thread (innermost last).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    SINK.get_or_init(|| Mutex::new(None))
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Whether tracing is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Routes trace output to (truncates) the JSONL file at `path`.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be created.
pub fn init_file(path: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    init_writer(Box::new(std::io::BufWriter::new(file)));
    Ok(())
}

/// Routes trace output to an arbitrary writer (tests use an in-memory
/// buffer). Replaces any previous sink.
pub fn init_writer(writer: Box<dyn Write + Send>) {
    let _ = epoch();
    *sink().lock().expect("trace sink") = Some(writer);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Enables tracing when `NDETECT_TRACE=<path>` is set; returns whether
/// tracing is now enabled. A path that cannot be created is reported on
/// stderr and tracing stays off (observability must never fail the
/// analysis).
pub fn init_from_env() -> bool {
    if enabled() {
        return true;
    }
    if let Ok(path) = std::env::var("NDETECT_TRACE") {
        if !path.is_empty() {
            if let Err(e) = init_file(&path) {
                eprintln!("warning: cannot open NDETECT_TRACE file `{path}`: {e}");
            }
        }
    }
    enabled()
}

/// Disables tracing and drops the sink (flushing it). Used by tests
/// and by the CLI teardown.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    if let Some(mut writer) = sink().lock().expect("trace sink").take() {
        let _ = writer.flush();
    }
}

/// Flushes the sink (a no-op when disabled). Lines are already flushed
/// per record; this exists for writers that buffer despite that.
pub fn flush() {
    if let Some(writer) = sink().lock().expect("trace sink").as_mut() {
        let _ = writer.flush();
    }
}

/// The id of the innermost open span on this thread (`0` when none) —
/// capture it before handing work to another thread, then open the
/// worker's root span with [`span_under`].
#[must_use]
pub fn current_span_id() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// One completed span, as written to (and parsed back from) the JSONL
/// trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Dotted lowercase span name (`universe.build`, `serve.request`).
    pub name: String,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Process-local thread id (1-based, stable per thread).
    pub thread: u64,
    /// Start, in nanoseconds since tracing was enabled.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Span-specific annotations, in insertion order.
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{},\"fields\":{{",
            escape_json(&self.name),
            self.id,
            self.parent,
            self.thread,
            self.start_ns,
            self.dur_ns,
        );
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        out.push_str("}}");
        out
    }

    /// Parses one JSONL line back into a record.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem. The parser is
    /// strict about the shape this module writes (all six fixed keys,
    /// string-valued `fields`), so it doubles as a trace validator.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut p = Parser::new(line);
        p.expect('{')?;
        let mut record = SpanRecord {
            name: String::new(),
            id: 0,
            parent: 0,
            thread: 0,
            start_ns: 0,
            dur_ns: 0,
            fields: Vec::new(),
        };
        let mut seen_name = false;
        let mut seen_id = false;
        loop {
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "name" => {
                    record.name = p.string()?;
                    seen_name = true;
                }
                "id" => {
                    record.id = p.number()?;
                    seen_id = true;
                }
                "parent" => record.parent = p.number()?,
                "thread" => record.thread = p.number()?,
                "start_ns" => record.start_ns = p.number()?,
                "dur_ns" => record.dur_ns = p.number()?,
                "fields" => {
                    p.expect('{')?;
                    if !p.eat('}') {
                        loop {
                            let k = p.string()?;
                            p.expect(':')?;
                            let v = p.string()?;
                            record.fields.push((k, v));
                            if !p.eat(',') {
                                break;
                            }
                        }
                        p.expect('}')?;
                    }
                }
                other => return Err(format!("unknown key `{other}`")),
            }
            if !p.eat(',') {
                break;
            }
        }
        p.expect('}')?;
        p.end()?;
        if !seen_name || !seen_id {
            return Err("record is missing `name` or `id`".into());
        }
        Ok(record)
    }
}

/// Escapes `s` for a JSON string literal: quotes, backslashes and every
/// control character below U+0020.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A minimal strict parser over one JSONL trace line.
struct Parser<'a> {
    rest: &'a str,
}

impl<'a> Parser<'a> {
    fn new(line: &'a str) -> Self {
        Parser { rest: line.trim() }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.rest.strip_prefix(c) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            None => Err(format!("expected `{c}` at `{}`", truncate(self.rest))),
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        match self.rest.strip_prefix(c) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("trailing content `{}`", truncate(self.rest)))
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let digits: String = self.rest.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return Err(format!("expected a number at `{}`", truncate(self.rest)));
        }
        self.rest = &self.rest[digits.len()..];
        digits
            .parse()
            .map_err(|_| format!("number out of range `{digits}`"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let Some((i, c)) = chars.next() else {
                return Err("unterminated string".into());
            };
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => {
                    let Some((_, esc)) = chars.next() else {
                        return Err("unterminated escape".into());
                    };
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let Some((_, h)) = chars.next() else {
                                    return Err("truncated \\u escape".into());
                                };
                                code = code * 16
                                    + h.to_digit(16).ok_or("bad hex digit in \\u escape")?;
                            }
                            // Surrogate pairs (this writer never emits
                            // them, but accept full JSON anyway).
                            if (0xD800..0xDC00).contains(&code) {
                                let tail: String = chars.by_ref().take(6).map(|(_, c)| c).collect();
                                let low = tail
                                    .strip_prefix("\\u")
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .filter(|l| (0xDC00..0xE000).contains(l))
                                    .ok_or("unpaired surrogate in \\u escape")?;
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        }
                        other => return Err(format!("unknown escape `\\{other}`")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

fn truncate(s: &str) -> &str {
    let end = s
        .char_indices()
        .map(|(i, _)| i)
        .take_while(|&i| i <= 24)
        .last()
        .unwrap_or(0);
    &s[..end]
}

/// An open span; closing (dropping) it writes the record. Obtained from
/// [`span`] / [`span_under`].
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    started: Instant,
    fields: Vec<(String, String)>,
}

impl Span {
    /// Attaches a key/value annotation (a no-op when tracing is off).
    pub fn field(&mut self, key: &str, value: impl ToString) {
        if let Some(active) = &mut self.active {
            active.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// This span's id (0 when inactive) — pass to [`span_under`] on
    /// worker threads.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else {
                // Out-of-order drop (a guard outlived its scope):
                // remove wherever it is rather than corrupting the
                // stack below it.
                stack.retain(|&id| id != active.id);
            }
        });
        let record = SpanRecord {
            name: active.name.to_string(),
            id: active.id,
            parent: active.parent,
            thread: THREAD_ID.with(|t| *t),
            start_ns: active.started.duration_since(epoch()).as_nanos() as u64,
            dur_ns: active.started.elapsed().as_nanos() as u64,
            fields: active.fields,
        };
        if let Some(writer) = sink().lock().expect("trace sink").as_mut() {
            // Write-and-flush per record: traces stay valid JSONL even
            // if the process dies mid-run. Tracing is opt-in, so the
            // flush cost is never paid by uninstrumented runs.
            let _ = writeln!(writer, "{}", record.to_json());
            let _ = writer.flush();
        }
    }
}

fn open(name: &'static str, parent: u64) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        active: Some(ActiveSpan {
            name,
            id,
            parent,
            started: Instant::now(),
            fields: Vec::new(),
        }),
    }
}

/// Opens a span as a child of this thread's innermost open span (a root
/// span when none is open).
#[must_use]
pub fn span(name: &'static str) -> Span {
    open(name, current_span_id())
}

/// Opens a span under an explicit parent id — the cross-thread link for
/// worker threads (capture [`current_span_id`] or [`Span::id`] before
/// spawning).
#[must_use]
pub fn span_under(name: &'static str, parent: u64) -> Span {
    open(name, parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let record = SpanRecord {
            name: "universe.build".into(),
            id: 7,
            parent: 3,
            thread: 2,
            start_ns: 123,
            dur_ns: 456_789,
            fields: vec![
                ("circuit".into(), "rie".into()),
                ("weird".into(), "a\"b\\c\nd\te\u{1}π".into()),
            ],
        };
        let json = record.to_json();
        assert_eq!(SpanRecord::parse(&json).unwrap(), record);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(SpanRecord::parse("").is_err());
        assert!(SpanRecord::parse("{}").is_err());
        assert!(SpanRecord::parse("{\"name\":\"x\"}").is_err(), "missing id");
        assert!(SpanRecord::parse("{\"name\":\"x\",\"id\":1} trailing").is_err());
        assert!(SpanRecord::parse("{\"name\":\"x\",\"id\":-1}").is_err());
        assert!(SpanRecord::parse("{\"name\":\"x\",\"id\":1,\"bogus\":2}").is_err());
        assert!(SpanRecord::parse("{\"name\":\"\\q\",\"id\":1}").is_err());
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        let line = "{\"name\":\"\\ud83d\\ude00\",\"id\":1,\"fields\":{}}";
        assert_eq!(SpanRecord::parse(line).unwrap().name, "😀");
        assert!(SpanRecord::parse("{\"name\":\"\\ud83d\",\"id\":1}").is_err());
    }

    #[test]
    fn disabled_spans_cost_nothing_and_record_nothing() {
        // Tracing is off by default in the test process.
        let mut span = span("test.disabled");
        assert_eq!(span.id(), 0);
        span.field("k", "v");
        drop(span);
    }
}
