//! End-to-end tests of the serving loop over real TCP connections:
//! the single-flight guarantee under a concurrent herd, byte-identical
//! replies, store-backed warm starts, and the drain path.

use ndetect_serve::protocol::{read_reply, Reply};
use ndetect_serve::{render_worst, Engine, Knobs, Server, ServerConfig};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn start(
    engine: Engine,
) -> (
    SocketAddr,
    Arc<Engine>,
    ndetect_serve::ShutdownHandle,
    std::thread::JoinHandle<Result<(), String>>,
) {
    let server = Server::bind(ServerConfig::default(), engine).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let engine = server.engine();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run());
    (addr, engine, shutdown, handle)
}

fn request(addr: SocketAddr, line: &str) -> Reply {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    writeln!(writer, "{line}").expect("write");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    read_reply(&mut reader).expect("reply")
}

#[test]
fn concurrent_identical_requests_over_tcp_build_once() {
    let (addr, engine, shutdown, handle) = start(Engine::new(None, 8, 8));
    let barrier = Barrier::new(8);
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    request(addr, "worst figure1")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let Reply::Ok(first) = &replies[0] else {
        panic!("expected ok, got {:?}", replies[0]);
    };
    assert!(first.contains("40.00% at n=1"), "{first}");
    for reply in &replies {
        assert_eq!(reply, &replies[0], "all replies must be byte-identical");
    }
    assert_eq!(
        engine.counters().universe_builds.get(),
        1,
        "8 racing identical requests must run exactly one universe build"
    );
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}

#[test]
fn distinct_requests_build_independently_and_serve_from_hot_cache() {
    let (addr, engine, shutdown, handle) = start(Engine::new(None, 8, 8));
    for circuit in ["figure1", "c17", "lion"] {
        let Reply::Ok(_) = request(addr, &format!("stats {circuit}")) else {
            panic!("stats {circuit} failed");
        };
    }
    assert_eq!(engine.counters().universe_builds.get(), 3);
    // Warm repeats: zero additional builds.
    for circuit in ["figure1", "c17", "lion"] {
        let Reply::Ok(_) = request(addr, &format!("stats {circuit}")) else {
            panic!("warm stats {circuit} failed");
        };
    }
    assert_eq!(engine.counters().universe_builds.get(), 3);
    assert!(engine.counters().hot_hits.get() >= 3);
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}

#[test]
fn warm_serve_requests_over_a_store_take_zero_store_misses() {
    let dir = std::env::temp_dir().join(format!("ndet-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ndetect_store::Store::open(&dir).expect("open store");
    let lines = ["gen figure1 n=2 compact", "worst s1a", "worst s27"];

    // Cold pass warms the on-disk store.
    {
        let (addr, _engine, shutdown, handle) = start(Engine::new(Some(store), 8, 8));
        for line in lines {
            let Reply::Ok(_) = request(addr, line) else {
                panic!("cold `{line}` failed");
            };
        }
        shutdown.shutdown();
        handle.join().unwrap().unwrap();
    }

    // Fresh engine, same store: everything loads from disk (store
    // hits), and repeats inside the process touch nothing but memory.
    let store = ndetect_store::Store::open(&dir).expect("reopen store");
    let (addr, engine, shutdown, handle) = start(Engine::new(Some(store), 8, 8));
    let store = engine.store().expect("the engine has a store");
    let session = || (store.session_hits(), store.session_misses());
    let mut hot = Vec::new();
    for line in lines {
        let Reply::Ok(first) = request(addr, line) else {
            panic!("warm `{line}` failed");
        };
        assert_eq!(
            engine.counters().universe_builds.get(),
            0,
            "a store hit is not a build"
        );
        let after_warm = session();
        let Reply::Ok(second) = request(addr, line) else {
            panic!("hot `{line}` failed");
        };
        assert_eq!(first, second);
        assert_eq!(
            session(),
            after_warm,
            "hot `{line}` must take zero store hits and zero store misses"
        );
        hot.push(second);
    }
    let s1a = ndetect_circuits::build("s1a").expect("s1a is in the suite");
    let one_shot = Engine::new(
        Some(ndetect_store::Store::open(&dir).expect("reopen")),
        0,
        0,
    );
    let expected = render_worst(&s1a, 100, Knobs::default(), &one_shot).expect("one-shot worst");
    assert_eq!(hot[1], expected, "the hot reply must match one-shot output");
    shutdown.shutdown();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cold_worst_herd_misses_the_store_once_per_artifact() {
    // s27 adds its expansion to the universe and the nmin artifact.
    for (line, misses) in [("worst s1a", 2), ("worst s27", 3)] {
        let dir = std::env::temp_dir().join(format!(
            "ndet-serve-herd-{}-{}",
            std::process::id(),
            line.replace(' ', "-")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ndetect_store::Store::open(&dir).expect("open store");
        let (addr, engine, shutdown, handle) = start(Engine::new(Some(store), 8, 8));
        let barrier = Barrier::new(8);
        let replies: Vec<Reply> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        request(addr, line)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(matches!(replies[0], Reply::Ok(_)), "{:?}", replies[0]);
        for reply in &replies {
            assert_eq!(reply, &replies[0], "all replies must be byte-identical");
        }
        assert_eq!(
            engine.store().map(ndetect_store::Store::session_misses),
            Some(misses),
            "`{line}` misses once per artifact"
        );
        shutdown.shutdown();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn metrics_exposition_parses_and_matches_counters() {
    let (addr, engine, shutdown, handle) = start(Engine::new(None, 8, 8));
    for _ in 0..2 {
        let Reply::Ok(_) = request(addr, "worst figure1") else {
            panic!("worst figure1 failed");
        };
    }
    assert_eq!(request(addr, "ping"), Reply::Ok("pong\n".to_string()));
    let Reply::Ok(exposition) = request(addr, "metrics") else {
        panic!("metrics failed");
    };

    // The exposition must be strictly well-formed Prometheus text.
    let samples = ndetect_obs::parse_exposition(&exposition).expect("exposition must parse");

    // ... and agree with the engine's counter cells, which it reads.
    let from_metrics = ndetect_obs::expose::sample_value(&samples, "universe_builds")
        .expect("exposition lists universe_builds");
    assert_eq!(from_metrics, engine.counters().universe_builds.get());
    assert_eq!(from_metrics, 1, "two identical requests build once");

    // The request latency histogram saw every request so far.
    let latency_count = ndetect_obs::expose::sample_value(&samples, "request_latency_us_count")
        .expect("exposition lists the request latency histogram");
    assert!(
        latency_count >= 3,
        "latency histogram count {latency_count}"
    );

    shutdown.shutdown();
    handle.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_inflight_requests_instead_of_dropping_them() {
    let (addr, _engine, shutdown, handle) = start(Engine::new(None, 8, 8));
    // Start a slow request, then request shutdown while it runs.
    let worker = std::thread::spawn(move || request(addr, "sleep ms=600"));
    std::thread::sleep(Duration::from_millis(150)); // request is in flight
    shutdown.shutdown();
    handle.join().unwrap().unwrap(); // drain must not hang or abort
    assert_eq!(
        worker.join().unwrap(),
        Reply::Ok("slept 600ms\n".to_string()),
        "the in-flight request must complete through the drain"
    );
}
