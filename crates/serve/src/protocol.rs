//! The newline-delimited request protocol spoken by `ndet serve`.
//!
//! A request is one text line: a verb, then positional and `key=value`
//! tokens. A reply is either
//!
//! ```text
//! ok <nbytes>\n<nbytes of payload>
//! ```
//!
//! — the payload being exactly the bytes the matching one-shot `ndet`
//! command prints on stdout — or a one-line structured error
//!
//! ```text
//! err <code> <message>\n
//! ```
//!
//! where `<code>` is a stable machine-readable token (`parse`,
//! `analysis`, `timeout`, `busy`, `shutdown`, `internal`, `denied`) and
//! `<message>` is human-readable
//! (newlines stripped so the reply stays one line). Connections are
//! persistent: a client may pipeline any number of request lines;
//! closing the write side ends the conversation.
//!
//! Long-running verbs (`corpus`) may precede the terminal reply with
//! any number of incremental frames
//!
//! ```text
//! row <nbytes>\n<nbytes of chunk>
//! ```
//!
//! streamed as each unit of work completes; the terminal `ok` payload
//! carries the closing bytes, and the concatenation of every `row`
//! chunk plus the `ok` payload is byte-identical to the unstreamed
//! reply. [`read_reply`] accumulates the frames transparently, so
//! clients that do not care about incremental progress see one `ok`.
//! It reads each payload as it arrives: a count larger than the bytes
//! that follow is an `UnexpectedEof` error, never an allocation of that
//! size.
//!
//! Verbs:
//!
//! ```text
//! stats <circuit> [model=transition|stuck-at]
//! worst <circuit> [floor=N] [model=M]
//! gen <circuit> [n=N] [compact] [seed=S] [model=M]
//! corpus <dir> [format=csv|json] [max_inputs=N] [recursive]
//! metrics
//! ping
//! sleep [ms=N]
//! chaos set <site>=<spec> | chaos list | chaos clear
//! ```
//!
//! `<circuit>` resolves through the combinational suite first, then the
//! sequential registry (`s27`, `shift4`, `cnt3`); sequential circuits
//! are analysed via two-frame broadside expansion under `model=`
//! (default `transition`). `model=` on a combinational circuit is an
//! `analysis` error, worded as the CLI's `--fault-model` one.
//!
//! The `chaos` verb (failpoint control, `ndetect-chaos` spec grammar)
//! only works when the server was started with `--chaos`; otherwise it
//! answers `err denied`.
//!
//! Every analysis verb also accepts `threads=N` (same semantics as the
//! CLI's `--threads` — a pure performance knob).

use crate::render::{CorpusRequest, Knobs};
use std::io::{self, BufRead, Read, Write};
use std::path::PathBuf;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `stats <circuit> [model=M]`: structure + fault population +
    /// kernel report.
    Stats {
        /// Suite circuit name (`ndet list`) or sequential registry name.
        circuit: String,
        /// Fault model for sequential circuits (`model=`, unresolved
        /// until execution; `None` defaults to transition).
        model: Option<String>,
        /// Performance knobs (`threads=`).
        knobs: Knobs,
    },
    /// `worst <circuit> [floor=N] [model=M]`: worst-case nmin analysis.
    Worst {
        /// Suite circuit name or sequential registry name.
        circuit: String,
        /// Distribution floor (default 100, like `--floor`).
        floor: usize,
        /// Fault model for sequential circuits.
        model: Option<String>,
        /// Performance knobs.
        knobs: Knobs,
    },
    /// `gen <circuit> [n=N] [compact] [seed=S] [model=M]`: n-detection
    /// set generation.
    Gen {
        /// Suite circuit name or sequential registry name.
        circuit: String,
        /// Detection multiplicity (default 10, like `--n`).
        n: u32,
        /// Whether to reverse-order compact the set.
        compact: bool,
        /// Tie-breaking seed.
        seed: Option<u64>,
        /// Fault model for sequential circuits.
        model: Option<String>,
        /// Performance knobs.
        knobs: Knobs,
    },
    /// `corpus <dir> [format=csv|json] [max_inputs=N] [recursive]`.
    Corpus {
        /// The corpus request (directory, format, cone threshold).
        request: CorpusRequest,
        /// Performance knobs.
        knobs: Knobs,
    },
    /// `metrics`: the Prometheus-style text exposition (the engine's
    /// registry plus the process-global library metrics).
    Metrics,
    /// `ping`: liveness probe (replies `ok` with payload `pong\n`).
    Ping,
    /// `sleep [ms=N]`: a deterministic slow job (test/CI aid for the
    /// timeout and drain paths; default 100ms).
    Sleep {
        /// How long the job holds its worker.
        ms: u64,
    },
    /// `chaos <set|list|clear>`: failpoint control (debug-gated behind
    /// the server's `--chaos` flag).
    Chaos(ChaosCommand),
}

/// A parsed `chaos` sub-command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosCommand {
    /// `chaos set <site>=<spec>`: arm one failpoint (the spec uses the
    /// `ndetect-chaos` grammar, e.g. `one-shot@2:panic`).
    Set {
        /// The failpoint site name.
        site: String,
        /// The `trigger:action` spec.
        spec: String,
    },
    /// `chaos list`: every registered site with its spec and counters.
    List,
    /// `chaos clear`: disarm every site.
    Clear,
}

/// A structured error reply: a stable code plus a human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReply {
    /// Stable machine-readable token: `parse`, `analysis`, `timeout`,
    /// `busy`, `shutdown`, `internal`, `denied`.
    pub code: &'static str,
    /// Human-readable detail (newlines are stripped on the wire).
    pub message: String,
}

impl ErrorReply {
    /// A `parse` error (malformed request line).
    #[must_use]
    pub fn parse(message: impl Into<String>) -> Self {
        ErrorReply {
            code: "parse",
            message: message.into(),
        }
    }

    /// An `analysis` error (the request was well-formed but the
    /// analysis failed — unknown circuit, too wide, bad directory...).
    #[must_use]
    pub fn analysis(message: impl Into<String>) -> Self {
        ErrorReply {
            code: "analysis",
            message: message.into(),
        }
    }

    /// An `internal` error: the job crashed (panicked) instead of
    /// failing cleanly. The server caught it, stayed up, and a retry is
    /// safe — a build whose leader panicked is rebuilt fresh.
    #[must_use]
    pub fn internal(message: impl Into<String>) -> Self {
        ErrorReply {
            code: "internal",
            message: message.into(),
        }
    }

    /// A `denied` error: the verb exists but is disabled on this server
    /// (e.g. `chaos` without `--chaos`).
    #[must_use]
    pub fn denied(message: impl Into<String>) -> Self {
        ErrorReply {
            code: "denied",
            message: message.into(),
        }
    }
}

/// Splits a `key=value` token; `None` for bare (positional) tokens.
fn split_kv(token: &str) -> Option<(&str, &str)> {
    token.split_once('=')
}

/// Parses `threads=` off a token; `Ok(true)` when the token was
/// consumed as a knob.
fn parse_knob(knobs: &mut Knobs, key: &str, value: &str) -> Result<bool, ErrorReply> {
    match key {
        "threads" => {
            knobs.threads = value
                .parse()
                .map_err(|_| ErrorReply::parse(format!("bad threads value `{value}`")))?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ErrorReply> {
    value
        .parse()
        .map_err(|_| ErrorReply::parse(format!("bad {key} value `{value}`")))
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a `parse` [`ErrorReply`] on unknown verbs, missing
    /// positionals, or malformed `key=value` tokens.
    pub fn parse(line: &str) -> Result<Self, ErrorReply> {
        let mut tokens = line.split_whitespace();
        let verb = tokens
            .next()
            .ok_or_else(|| ErrorReply::parse("empty request"))?;
        let rest: Vec<&str> = tokens.collect();

        // Shared scan: one positional (the circuit/dir), plus knobs,
        // plus verb-specific key=value and bare tokens handed back to
        // the caller.
        let mut positional: Option<&str> = None;
        let mut knobs = Knobs::default();
        let mut extras: Vec<(&str, Option<&str>)> = Vec::new();
        for token in &rest {
            if let Some((key, value)) = split_kv(token) {
                if !parse_knob(&mut knobs, key, value)? {
                    extras.push((key, Some(value)));
                }
            } else if positional.is_none() {
                positional = Some(token);
            } else {
                extras.push((token, None));
            }
        }
        let positional_required = |what: &str| {
            positional
                .map(str::to_string)
                .ok_or_else(|| ErrorReply::parse(format!("missing {what}")))
        };
        let reject_extras = |verb: &str, extras: &[(&str, Option<&str>)]| {
            if let Some((key, _)) = extras.first() {
                return Err(ErrorReply::parse(format!(
                    "unknown token `{key}` for `{verb}`"
                )));
            }
            Ok(())
        };

        match verb {
            "stats" => {
                let mut model = None;
                for (key, value) in &extras {
                    match (*key, value) {
                        ("model", Some(v)) => model = Some((*v).to_string()),
                        _ => {
                            return Err(ErrorReply::parse(format!(
                                "unknown token `{key}` for `stats`"
                            )))
                        }
                    }
                }
                Ok(Request::Stats {
                    circuit: positional_required("circuit name")?,
                    model,
                    knobs,
                })
            }
            "worst" => {
                let mut floor = 100usize;
                let mut model = None;
                for (key, value) in &extras {
                    match (*key, value) {
                        ("floor", Some(v)) => floor = parse_num("floor", v)?,
                        ("model", Some(v)) => model = Some((*v).to_string()),
                        _ => {
                            return Err(ErrorReply::parse(format!(
                                "unknown token `{key}` for `worst`"
                            )))
                        }
                    }
                }
                Ok(Request::Worst {
                    circuit: positional_required("circuit name")?,
                    floor,
                    model,
                    knobs,
                })
            }
            "gen" => {
                let mut n = 10u32;
                let mut compact = false;
                let mut seed = None;
                let mut model = None;
                for (key, value) in &extras {
                    match (*key, value) {
                        ("n", Some(v)) => n = parse_num("n", v)?,
                        ("seed", Some(v)) => seed = Some(parse_num("seed", v)?),
                        ("compact", None) => compact = true,
                        ("model", Some(v)) => model = Some((*v).to_string()),
                        _ => {
                            return Err(ErrorReply::parse(format!(
                                "unknown token `{key}` for `gen`"
                            )))
                        }
                    }
                }
                Ok(Request::Gen {
                    circuit: positional_required("circuit name")?,
                    n,
                    compact,
                    seed,
                    model,
                    knobs,
                })
            }
            "corpus" => {
                let mut format = "csv".to_string();
                let mut max_inputs = 14usize;
                let mut recursive = false;
                for (key, value) in &extras {
                    match (*key, value) {
                        ("format", Some(v)) => format = (*v).to_string(),
                        ("max_inputs", Some(v)) => max_inputs = parse_num("max_inputs", v)?,
                        ("recursive", None) => recursive = true,
                        _ => {
                            return Err(ErrorReply::parse(format!(
                                "unknown token `{key}` for `corpus`"
                            )))
                        }
                    }
                }
                Ok(Request::Corpus {
                    request: CorpusRequest {
                        dir: PathBuf::from(positional_required("corpus directory")?),
                        format,
                        max_inputs,
                        recursive,
                    },
                    knobs,
                })
            }
            "metrics" => {
                reject_extras("metrics", &extras)?;
                if positional.is_some() {
                    return Err(ErrorReply::parse("`metrics` takes no arguments"));
                }
                Ok(Request::Metrics)
            }
            "ping" => {
                reject_extras("ping", &extras)?;
                if positional.is_some() {
                    return Err(ErrorReply::parse("`ping` takes no arguments"));
                }
                Ok(Request::Ping)
            }
            "sleep" => {
                let mut ms = 100u64;
                for (key, value) in &extras {
                    match (*key, value) {
                        ("ms", Some(v)) => ms = parse_num("ms", v)?,
                        _ => {
                            return Err(ErrorReply::parse(format!(
                                "unknown token `{key}` for `sleep`"
                            )))
                        }
                    }
                }
                if positional.is_some() {
                    return Err(ErrorReply::parse("`sleep` takes only ms=N"));
                }
                Ok(Request::Sleep { ms })
            }
            "chaos" => match positional {
                Some("set") => match extras.as_slice() {
                    [(site, Some(spec))] => Ok(Request::Chaos(ChaosCommand::Set {
                        site: (*site).to_string(),
                        spec: (*spec).to_string(),
                    })),
                    _ => Err(ErrorReply::parse(
                        "`chaos set` wants exactly one <site>=<spec>",
                    )),
                },
                Some("list") => {
                    reject_extras("chaos list", &extras)?;
                    Ok(Request::Chaos(ChaosCommand::List))
                }
                Some("clear") => {
                    reject_extras("chaos clear", &extras)?;
                    Ok(Request::Chaos(ChaosCommand::Clear))
                }
                Some(other) => Err(ErrorReply::parse(format!(
                    "unknown chaos sub-command `{other}` (set | list | clear)"
                ))),
                None => Err(ErrorReply::parse("`chaos` wants set | list | clear")),
            },
            other => Err(ErrorReply::parse(format!("unknown verb `{other}`"))),
        }
    }
}

/// Writes an `ok` reply: header line with the payload byte count, then
/// the payload verbatim.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_ok(writer: &mut impl Write, payload: &str) -> io::Result<()> {
    write!(writer, "ok {}\n{payload}", payload.len())?;
    writer.flush()
}

/// Writes one incremental `row` frame: a counted chunk of the body
/// streamed ahead of the terminal reply. The concatenation of every
/// `row` chunk plus the terminal `ok` payload must be byte-identical to
/// the unstreamed reply.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_row(writer: &mut impl Write, chunk: &str) -> io::Result<()> {
    write!(writer, "row {}\n{chunk}", chunk.len())?;
    writer.flush()
}

/// Writes an `err` reply (one line; embedded newlines in the message
/// are flattened to spaces so the framing survives).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_err(writer: &mut impl Write, error: &ErrorReply) -> io::Result<()> {
    let message = error.message.replace('\n', " ");
    writeln!(writer, "err {} {}", error.code, message.trim_end())?;
    writer.flush()
}

/// A reply read back by a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `ok`: the payload bytes (exactly what one-shot `ndet` prints).
    Ok(String),
    /// `err`: structured code + message.
    Err {
        /// The stable error code.
        code: String,
        /// The human-readable message.
        message: String,
    },
}

/// Reads one reply: any number of incremental `row` frames, then the
/// terminal header (a counted payload for `ok`, one line for `err`).
/// Streamed `row` chunks are accumulated in order and prepended to the
/// `ok` payload, so callers observe exactly the unstreamed reply. Rows
/// preceding an `err` are discarded — a partial stream that failed is
/// not a usable body.
///
/// # Errors
///
/// Returns `InvalidData` on malformed headers, `UnexpectedEof` when the
/// server closed mid-reply.
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<Reply> {
    let read_counted = |reader: &mut dyn BufRead, header: &str, rest: &str| -> io::Result<String> {
        let nbytes: u64 = rest.trim().parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad reply header `{header}`"),
            )
        })?;
        // The count is the peer's claim: the buffer grows only as bytes
        // arrive, so a huge count cannot allocate ahead of them.
        let mut payload = Vec::new();
        reader.take(nbytes).read_to_end(&mut payload)?;
        if payload.len() as u64 != nbytes {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed inside a `{header}` frame"),
            ));
        }
        String::from_utf8(payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "payload is not UTF-8"))
    };
    let mut accumulated = String::new();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before reply",
            ));
        }
        let header = header.trim_end_matches('\n');
        if let Some(rest) = header.strip_prefix("row ") {
            accumulated.push_str(&read_counted(reader, header, rest)?);
        } else if let Some(rest) = header.strip_prefix("ok ") {
            accumulated.push_str(&read_counted(reader, header, rest)?);
            return Ok(Reply::Ok(accumulated));
        } else if let Some(rest) = header.strip_prefix("err ") {
            let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
            return Ok(Reply::Err {
                code: code.to_string(),
                message: message.to_string(),
            });
        } else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad reply header `{header}`"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_verbs() {
        assert_eq!(Request::parse("ping").unwrap(), Request::Ping);
        assert_eq!(Request::parse("metrics").unwrap(), Request::Metrics);
        let stats = Request::parse("stats figure1").unwrap();
        assert!(matches!(stats, Request::Stats { ref circuit, .. } if circuit == "figure1"));
        let worst = Request::parse("worst c17 floor=2").unwrap();
        assert!(matches!(worst, Request::Worst { floor: 2, .. }));
        let gen = Request::parse("gen figure1 n=3 compact seed=7").unwrap();
        assert!(matches!(
            gen,
            Request::Gen {
                n: 3,
                compact: true,
                seed: Some(7),
                ..
            }
        ));
        let corpus = Request::parse("corpus /tmp/benches format=json recursive").unwrap();
        assert!(
            matches!(corpus, Request::Corpus { ref request, .. } if request.format == "json"
                && request.recursive)
        );
    }

    #[test]
    fn parses_the_chaos_verb() {
        assert_eq!(
            Request::parse("chaos set store.save.write=one-shot@2:torn-write").unwrap(),
            Request::Chaos(ChaosCommand::Set {
                site: "store.save.write".to_string(),
                spec: "one-shot@2:torn-write".to_string(),
            })
        );
        assert_eq!(
            Request::parse("chaos list").unwrap(),
            Request::Chaos(ChaosCommand::List)
        );
        assert_eq!(
            Request::parse("chaos clear").unwrap(),
            Request::Chaos(ChaosCommand::Clear)
        );
        // The spec is passed through opaquely; validation happens when
        // the server arms it, not at parse time.
        assert!(Request::parse("chaos set x=utter:nonsense").is_ok());
        for bad in [
            "chaos",
            "chaos explode",
            "chaos set",
            "chaos set bare-token",
            "chaos set a=b c=d",
            "chaos list extra",
            "chaos clear extra",
        ] {
            assert_eq!(Request::parse(bad).unwrap_err().code, "parse", "{bad}");
        }
    }

    #[test]
    fn parses_knobs_on_any_analysis_verb() {
        let stats = Request::parse("stats figure1 threads=2").unwrap();
        let Request::Stats { knobs, .. } = stats else {
            panic!("not stats");
        };
        assert_eq!(knobs.threads, 2);
        // `mem_budget=` is no knob: it is rejected like any unknown token.
        let err = Request::parse("stats figure1 mem_budget=16MiB").unwrap_err();
        assert_eq!(err.code, "parse");
        assert!(err.message.contains("unknown token"), "{}", err.message);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(Request::parse("").unwrap_err().code, "parse");
        assert_eq!(Request::parse("frobnicate x").unwrap_err().code, "parse");
        assert_eq!(Request::parse("stats").unwrap_err().code, "parse");
        assert_eq!(
            Request::parse("worst c17 floor=zebra").unwrap_err().code,
            "parse"
        );
        assert_eq!(
            Request::parse("gen figure1 bogus=1").unwrap_err().code,
            "parse"
        );
        assert_eq!(Request::parse("ping extra").unwrap_err().code, "parse");
        assert_eq!(Request::parse("metrics now").unwrap_err().code, "parse");
        assert_eq!(
            Request::parse("stats figure1 threads=zebra")
                .unwrap_err()
                .code,
            "parse"
        );
    }

    #[test]
    fn reply_round_trips() {
        let mut wire = Vec::new();
        write_ok(&mut wire, "hello\nworld\n").unwrap();
        write_err(&mut wire, &ErrorReply::analysis("bad\nthing")).unwrap();
        let mut reader = io::BufReader::new(wire.as_slice());
        assert_eq!(
            read_reply(&mut reader).unwrap(),
            Reply::Ok("hello\nworld\n".to_string())
        );
        assert_eq!(
            read_reply(&mut reader).unwrap(),
            Reply::Err {
                code: "analysis".to_string(),
                message: "bad thing".to_string(),
            }
        );
        assert!(read_reply(&mut reader).is_err(), "EOF");
    }

    #[test]
    fn a_frame_count_past_the_stream_is_an_error_not_an_allocation() {
        for header in ["ok", "row"] {
            let wire = format!("{header} {}\nshort", usize::MAX);
            let mut reader = io::BufReader::new(wire.as_bytes());
            let error = read_reply(&mut reader).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof, "{header}");
        }
    }

    #[test]
    fn empty_ok_payload_round_trips() {
        let mut wire = Vec::new();
        write_ok(&mut wire, "").unwrap();
        let mut reader = io::BufReader::new(wire.as_slice());
        assert_eq!(read_reply(&mut reader).unwrap(), Reply::Ok(String::new()));
    }

    #[test]
    fn parses_the_model_token_on_analysis_verbs() {
        let stats = Request::parse("stats s27 model=transition").unwrap();
        assert!(matches!(stats, Request::Stats { ref model, .. }
            if model.as_deref() == Some("transition")));
        let worst = Request::parse("worst s27 floor=2 model=stuck-at").unwrap();
        assert!(matches!(worst, Request::Worst { floor: 2, ref model, .. }
            if model.as_deref() == Some("stuck-at")));
        let gen = Request::parse("gen s27 n=3 model=transition").unwrap();
        assert!(matches!(gen, Request::Gen { n: 3, ref model, .. }
            if model.as_deref() == Some("transition")));
        // Absent by default; the value is opaque at parse time.
        let plain = Request::parse("stats figure1").unwrap();
        assert!(matches!(plain, Request::Stats { model: None, .. }));
        assert!(Request::parse("stats s27 model=bogus").is_ok());
    }

    #[test]
    fn row_frames_accumulate_into_the_ok_payload() {
        let mut wire = Vec::new();
        write_row(&mut wire, "header\n").unwrap();
        write_row(&mut wire, "row one\n").unwrap();
        write_ok(&mut wire, "trailer\n").unwrap();
        let mut reader = io::BufReader::new(wire.as_slice());
        assert_eq!(
            read_reply(&mut reader).unwrap(),
            Reply::Ok("header\nrow one\ntrailer\n".to_string())
        );

        // Rows before an error are discarded — a failed stream has no
        // usable body.
        let mut wire = Vec::new();
        write_row(&mut wire, "partial\n").unwrap();
        write_err(&mut wire, &ErrorReply::analysis("boom")).unwrap();
        let mut reader = io::BufReader::new(wire.as_slice());
        assert_eq!(
            read_reply(&mut reader).unwrap(),
            Reply::Err {
                code: "analysis".to_string(),
                message: "boom".to_string(),
            }
        );
    }
}
