//! `ndet serve` / `ndet request`: the persistent analysis service and
//! its one-shot client.

use ndetect_serve::protocol::{read_reply, Reply};
use ndetect_serve::{signal, Engine, Server, ServerConfig};
use ndetect_store::Store;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

use super::{flag_present, flag_str, flag_value, positionals, write_stdout};

/// `ndet serve [--addr A] [--addr-file F] [--request-timeout-ms T]
/// [--hot-universes N] [--hot-sets N] [--max-conns N] [--chaos]`: bind,
/// announce, serve until SIGTERM/ctrl-c, then drain and exit cleanly.
pub fn serve(rest: &[&String], store: Option<Store>, stdout: &mut dyn Write) -> Result<(), String> {
    let config = ServerConfig {
        addr: flag_str(rest, "--addr")?
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        request_timeout: Duration::from_millis(
            flag_value(rest, "--request-timeout-ms")?.unwrap_or(60_000),
        ),
        hot_universes: flag_value(rest, "--hot-universes")?.unwrap_or(32),
        hot_sets: flag_value(rest, "--hot-sets")?.unwrap_or(32),
        max_conns: flag_value(rest, "--max-conns")?.unwrap_or(256),
        chaos: flag_present(rest, "--chaos"),
    };
    let addr_file = flag_str(rest, "--addr-file")?.map(str::to_string);

    signal::install();
    let engine = Engine::new(store, config.hot_universes, config.hot_sets);
    let server = Server::bind(config, engine)?;
    let addr = server.local_addr()?;
    // Announce before accepting so a supervisor can connect as soon as
    // the line appears.
    write_stdout(stdout, &format!("listening on {addr}\n"))?;
    if let Some(path) = addr_file {
        // Temp-plus-rename so a polling client never reads a torn file.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| format!("cannot write --addr-file {path}: {e}"))?;
    }
    server.run()
}

/// The retry conditions `--retry-on` accepts: `refused` is a failed
/// connect; the rest are structured reply codes. Transient by nature —
/// `parse`/`analysis`/`denied` replies are deterministic, so retrying
/// them only re-earns the same error and they are not listed.
const RETRYABLE: &[&str] = &["refused", "busy", "timeout", "internal", "shutdown"];

/// What `--retry N` covers when `--retry-on` is not given: the server
/// not up yet, the connection cap, and a request deadline.
const DEFAULT_RETRY_ON: &[&str] = &["refused", "busy", "timeout"];

/// One attempt's outcome, split by what a retry could fix.
enum Attempt {
    /// Connected and got a structured reply (possibly `err`).
    Replied(Reply),
    /// The connect itself was refused — the server is not up (yet).
    Refused(String),
}

/// `ndet request <addr> <verb> [args...] [--retry N] [--retry-on
/// LIST]`: send one request line and print the reply payload (the
/// exact bytes the matching one-shot command would print). Server-side
/// errors come back as an `Err` with the structured code, so the
/// process exits nonzero. `--retry N` re-attempts the whole
/// request — reconnect and resend — up to N times with exponential
/// backoff (50ms doubling, capped at 3.2s) whenever the failure is on
/// the `--retry-on` list (default: refused,busy,timeout).
pub fn request(rest: &[&String]) -> Result<String, String> {
    let pos = positionals(rest);
    let addr = *pos.first().ok_or("missing server address")?;
    if pos.len() < 2 {
        return Err("missing request (e.g. `ndet request 127.0.0.1:PORT worst figure1`)".into());
    }
    let line = pos[1..].join(" ");
    let timeout = Duration::from_millis(flag_value(rest, "--timeout-ms")?.unwrap_or(120_000));
    let retries = flag_value(rest, "--retry")?.unwrap_or(0);
    let retry_on = parse_retry_on(flag_str(rest, "--retry-on")?)?;

    let mut attempt = 0;
    loop {
        let may_retry = attempt < retries;
        match attempt_once(addr, &line, timeout)? {
            Attempt::Replied(Reply::Ok(payload)) => return Ok(payload),
            Attempt::Replied(Reply::Err { code, message }) => {
                if !(may_retry && retry_on.contains(&code)) {
                    return Err(format!("server error ({code}): {message}"));
                }
            }
            Attempt::Refused(error) => {
                if !(may_retry && retry_on.iter().any(|c| c == "refused")) {
                    let tried = if attempt > 0 {
                        format!(" after {} attempts", attempt + 1)
                    } else {
                        String::new()
                    };
                    return Err(format!("{error}{tried}"));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50 << attempt.min(6)));
        attempt += 1;
    }
}

/// Parses the `--retry-on` comma list against [`RETRYABLE`]; `None`
/// falls back to [`DEFAULT_RETRY_ON`].
fn parse_retry_on(flag: Option<&str>) -> Result<Vec<String>, String> {
    let Some(list) = flag else {
        return Ok(DEFAULT_RETRY_ON.iter().map(ToString::to_string).collect());
    };
    let mut out = Vec::new();
    for token in list.split(',').filter(|t| !t.is_empty()) {
        if !RETRYABLE.contains(&token) {
            return Err(format!(
                "bad value for --retry-on: `{token}` (expected a comma list of {})",
                RETRYABLE.join(",")
            ));
        }
        if !out.iter().any(|t| t == token) {
            out.push(token.to_string());
        }
    }
    Ok(out)
}

/// One full request attempt: connect, send the line, read one reply.
/// A refused connect is reported as [`Attempt::Refused`] so the caller
/// can retry it; every other transport failure is a hard `Err` (an
/// unresolvable address or unreachable network does not get better by
/// waiting).
fn attempt_once(addr: &str, line: &str, timeout: Duration) -> Result<Attempt, String> {
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
            return Ok(Attempt::Refused(format!("cannot connect to {addr}: {e}")));
        }
        Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
    };
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    writeln!(writer, "{line}").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let reply = read_reply(&mut reader).map_err(|e| format!("bad reply from {addr}: {e}"))?;
    Ok(Attempt::Replied(reply))
}
