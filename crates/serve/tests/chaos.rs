//! Fault-injection tests for the serve layer's isolation contract: a
//! panicking job yields `err internal` (never a dropped connection or a
//! dead server), waiters on a crashed build leader rebuild
//! cleanly, and the `chaos` verb is gated behind `--chaos`.
//!
//! Failpoints are process-global, so these tests live in their own
//! integration-test binary and serialize on one lock.

use ndetect_serve::protocol::{read_reply, Reply};
use ndetect_serve::{Engine, Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

/// Serializes the tests in this binary and guarantees a disarmed
/// registry on entry and exit.
struct ChaosGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ndetect_chaos::disarm_all();
    }
}

fn exclusive() -> ChaosGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    ndetect_chaos::disarm_all();
    ChaosGuard(guard)
}

type Running = (
    std::net::SocketAddr,
    Arc<Engine>,
    ShutdownHandle,
    std::thread::JoinHandle<Result<(), String>>,
);

fn start(config: ServerConfig) -> Running {
    let server = Server::bind(config, Engine::new(None, 8, 8)).unwrap();
    let addr = server.local_addr().unwrap();
    let engine = server.engine();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run());
    (addr, engine, shutdown, handle)
}

fn request_line(addr: std::net::SocketAddr, line: &str) -> Reply {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    read_reply(&mut reader).unwrap()
}

fn chaos_config() -> ServerConfig {
    ServerConfig {
        chaos: true,
        ..ServerConfig::default()
    }
}

#[test]
fn chaos_verb_is_denied_unless_enabled() {
    let _chaos = exclusive();
    let (addr, _engine, shutdown, handle) = start(ServerConfig::default());
    let Reply::Err { code, message } = request_line(addr, "chaos set x=panic") else {
        panic!("expected denial");
    };
    assert_eq!(code, "denied");
    assert!(message.contains("--chaos"), "{message}");
    // Nothing got armed through the denied request.
    assert!(ndetect_chaos::list().is_empty());
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}

#[test]
fn chaos_verb_round_trips_set_list_clear() {
    let _chaos = exclusive();
    let (addr, _engine, shutdown, handle) = start(chaos_config());
    let Reply::Ok(armed) = request_line(addr, "chaos set serve.job=one-shot@5:return-err") else {
        panic!("expected ok");
    };
    assert!(armed.contains("serve.job"), "{armed}");
    let Reply::Ok(listing) = request_line(addr, "chaos list") else {
        panic!("expected ok");
    };
    assert!(
        listing.contains("serve.job one-shot@5:return-err hits=0 fired=0"),
        "{listing}"
    );
    // Malformed specs come back as parse errors, not armed garbage.
    let Reply::Err { code, .. } = request_line(addr, "chaos set x=sometimes:maybe") else {
        panic!("expected parse error");
    };
    assert_eq!(code, "parse");
    let Reply::Ok(_) = request_line(addr, "chaos clear") else {
        panic!("expected ok");
    };
    assert!(ndetect_chaos::list().is_empty());
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}

#[test]
fn job_panic_yields_err_internal_and_the_server_keeps_serving() {
    let _chaos = exclusive();
    let (addr, engine, shutdown, handle) = start(chaos_config());
    // Warm the circuit memo and the hot worst-case result first.
    let Reply::Ok(warm) = request_line(addr, "worst figure1") else {
        panic!("expected ok");
    };
    let Reply::Ok(_) = request_line(addr, "chaos set serve.job=one-shot@1:panic") else {
        panic!("expected ok");
    };
    // The failpoint fires inside the job thread: the requester gets a
    // structured internal error, not a dropped connection.
    let Reply::Err { code, message } = request_line(addr, "worst figure1") else {
        panic!("expected err internal");
    };
    assert_eq!(code, "internal");
    assert!(message.contains("retry is safe"), "{message}");
    assert_eq!(engine.counters().panics_caught.get(), 1);

    // One-shot: the retry succeeds, on the same server, from the hot
    // layers the panic left intact.
    let hot_hits = engine.counters().hot_hits.get();
    let Reply::Ok(payload) = request_line(addr, "worst figure1") else {
        panic!("expected ok retry");
    };
    assert!(payload.contains("40.00% at n=1"), "{payload}");
    assert_eq!(payload, warm);
    assert_eq!(engine.counters().hot_hits.get(), hot_hits + 2);
    assert_eq!(engine.counters().universe_builds.get(), 1);
    // And unrelated requests were never at risk.
    assert_eq!(request_line(addr, "ping"), Reply::Ok("pong\n".to_string()));
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}

#[test]
fn panicking_build_leader_poisons_only_itself_waiters_rebuild() {
    let _chaos = exclusive();
    let (addr, engine, shutdown, handle) = start(chaos_config());
    // The *first* universe build panics mid-flight; concurrent
    // requesters coalesced onto it must observe the poisoning and
    // rebuild, ending with real answers.
    let Reply::Ok(_) = request_line(addr, "chaos set engine.universe.build=one-shot@1:panic")
    else {
        panic!("expected ok");
    };
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| scope.spawn(move || request_line(addr, "worst figure1")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok_payloads: Vec<&String> = replies
        .iter()
        .filter_map(|r| match r {
            Reply::Ok(p) => Some(p),
            Reply::Err { .. } => None,
        })
        .collect();
    let internals = replies
        .iter()
        .filter(|r| matches!(r, Reply::Err { code, .. } if code == "internal"))
        .count();
    // Exactly the leader's request fails (it hosted the panic); every
    // other herd member retried the flight and got the real answer.
    assert_eq!(internals, replies.len() - ok_payloads.len());
    assert!(
        internals <= 1,
        "only the leader can host the one-shot panic"
    );
    assert!(!ok_payloads.is_empty(), "the herd must not all fail");
    for payload in &ok_payloads {
        assert!(payload.contains("40.00% at n=1"), "{payload}");
    }
    assert_eq!(engine.counters().panics_caught.get(), 1);

    // A fresh request confirms the flight map healed.
    let Reply::Ok(_) = request_line(addr, "worst figure1") else {
        panic!("expected ok");
    };
    // The metrics exposition carries the isolation counters.
    let Reply::Ok(metrics) = request_line(addr, "metrics") else {
        panic!("expected ok");
    };
    assert!(metrics.contains("panics_caught_total 1"), "{metrics}");
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}

#[test]
fn injected_build_error_is_a_clean_analysis_error() {
    let _chaos = exclusive();
    let (addr, engine, shutdown, handle) = start(chaos_config());
    let Reply::Ok(_) = request_line(
        addr,
        "chaos set engine.universe.build=one-shot@1:return-err",
    ) else {
        panic!("expected ok");
    };
    let Reply::Err { code, message } = request_line(addr, "worst figure1") else {
        panic!("expected analysis error");
    };
    assert_eq!(code, "analysis");
    assert!(message.contains("engine.universe.build"), "{message}");
    assert_eq!(
        engine.counters().panics_caught.get(),
        0,
        "no panic involved"
    );
    let Reply::Ok(_) = request_line(addr, "worst figure1") else {
        panic!("retry must succeed");
    };
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}

#[test]
fn pipelined_connection_survives_a_mid_stream_panic() {
    let _chaos = exclusive();
    let (addr, _engine, shutdown, handle) = start(chaos_config());
    let Reply::Ok(_) = request_line(addr, "chaos set serve.job=one-shot@1:panic") else {
        panic!("expected ok");
    };
    // One connection, three pipelined requests; the middle one panics.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    write!(writer, "ping\nworst figure1\nping\n").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(read_reply(&mut reader).unwrap(), Reply::Ok("pong\n".into()));
    let Reply::Err { code, .. } = read_reply(&mut reader).unwrap() else {
        panic!("expected err internal mid-stream");
    };
    assert_eq!(code, "internal");
    assert_eq!(
        read_reply(&mut reader).unwrap(),
        Reply::Ok("pong\n".into()),
        "the connection keeps answering after the caught panic"
    );
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}

/// `read_reply` helper sanity: a raw reader sees exactly one line per
/// error reply (framing survives panics).
#[test]
fn error_replies_stay_one_line_on_the_wire() {
    let _chaos = exclusive();
    let (addr, _engine, shutdown, handle) = start(chaos_config());
    let Reply::Ok(_) = request_line(addr, "chaos set serve.job=one-shot@1:panic") else {
        panic!("expected ok");
    };
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    writeln!(writer, "worst figure1").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.starts_with("err internal "), "{line}");
    assert_eq!(line.matches('\n').count(), 1);
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}
