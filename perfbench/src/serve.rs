//! The `serve-mix` workload: one resident `ndet serve`, driven
//! closed-loop over persistent connections, because callers such as
//! `ndet request` wait for each reply before sending the next.

use crate::batch::{describe, SETUP_REPS};
use crate::report::Report;
use crate::stats::{median, percentile, supported_tail};
use crate::{proc, Args};
use ndetect_obs::expose::{parse_exposition, sample_value, Sample};
use ndetect_serve::{read_reply, Engine, Reply, Request};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::Stdio;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Circuits of the hot reads: small, mid-size and sequential.
const HOT_CIRCUITS: &[&str] = &["c17", "figure1", "cse", "s1a", "log", "s27"];

/// Circuits of the fresh builds.
const FRESH_CIRCUITS: &[&str] = &["s1a", "log", "rie"];

/// The directory the streamed `corpus` read walks, relative to the
/// checkout root where the server runs.
pub const CORPUS: &str = "tests/data/corpus";

/// Copies of every hot read in one pass. With one fresh build per fresh
/// circuit, 3 of a pass's 60 requests (5%) are builds.
const HOT_COPIES: usize = 3;

/// Fresh-connection pings behind `connect_p50_ms`.
const CONNECT_REPS: usize = 15;

/// The distinct hot reads: `stats`, `worst` and a repeated `gen` per hot
/// circuit, and the streamed corpus.
fn hot_requests() -> Vec<String> {
    let mut lines: Vec<String> = HOT_CIRCUITS
        .iter()
        .flat_map(|c| {
            [
                format!("stats {c}"),
                format!("worst {c}"),
                format!("gen {c} n=10"),
            ]
        })
        .collect();
    lines.push(format!("corpus {CORPUS}"));
    lines
}

/// The set-up pass: every distinct hot read once, plus `stats rie` so
/// the one fresh-build circuit no hot read touches also has its universe
/// resident and fresh builds time the generator alone.
pub fn warmup_requests() -> Vec<String> {
    let mut lines = hot_requests();
    lines.push("stats rie".to_string());
    lines
}

/// One request of the mix.
pub struct Item {
    /// The request line.
    pub line: String,
    /// Whether it is a fresh build (a `gen` seed nothing has asked for).
    pub fresh: bool,
}

/// Requests in one pass of the mix.
pub fn pass_len() -> usize {
    HOT_COPIES * hot_requests().len() + FRESH_CIRCUITS.len()
}

/// The first `passes` passes of the mix for `seed`. A pass holds every
/// hot read `HOT_COPIES` times and one compacted 10-detection build per
/// fresh circuit, shuffled by the seed; the proportions are fixed so
/// that runs with different seeds do the same work. Fresh `gen` seeds
/// come from the run's seed and are unique within the run, so every
/// fresh build misses both the hot cache and the store.
pub fn mix(seed: u64, passes: usize) -> Vec<Item> {
    let hot = hot_requests();
    let mut state = seed;
    let mut out = Vec::with_capacity(passes * pass_len());
    for pass in 0..passes {
        let mut items: Vec<Item> = hot
            .iter()
            .cycle()
            .take(hot.len() * HOT_COPIES)
            .map(|line| Item {
                line: line.clone(),
                fresh: false,
            })
            .collect();
        for (k, circuit) in FRESH_CIRCUITS.iter().enumerate() {
            let gen_seed = (seed % 100_000) * 1_000_000 + (pass * FRESH_CIRCUITS.len() + k) as u64;
            items.push(Item {
                line: format!("gen {circuit} n=10 compact seed={gen_seed}"),
                fresh: true,
            });
        }
        for i in (1..items.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
        out.extend(items);
    }
    out
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A running `ndet serve` over a fresh cache directory.
pub struct Server {
    guard: proc::Guard,
    /// The address it announced.
    pub addr: String,
    dir: PathBuf,
}

impl Server {
    /// Spawns the server and waits until it announces its address.
    pub fn start(args: &Args, name: &str) -> Result<Server, String> {
        let dir = args.out.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let addr_file = dir.join("addr");
        let store = dir.join("store");
        let child = args
            .ndet(&[
                "serve",
                "--cache-dir",
                &store.to_string_lossy(),
                "--addr-file",
                &addr_file.to_string_lossy(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn `ndet serve`: {e}"))?;
        let guard = proc::Guard::new(child);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            // The server writes the file by rename, so it is whole once
            // it exists.
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                return Ok(Server {
                    guard,
                    addr: text.trim().to_string(),
                    dir,
                });
            }
            if Instant::now() > deadline {
                return Err("`ndet serve` announced no address within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sends SIGTERM, waits for the drain, and removes the cache.
    pub fn stop(self) -> Result<proc::Exit, String> {
        let exit = self
            .guard
            .terminate()
            .map_err(|e| format!("cannot stop `ndet serve`: {e}"))?;
        let _ = std::fs::remove_dir_all(&self.dir);
        if exit.status.success() {
            Ok(exit)
        } else {
            Err(format!("`ndet serve` exited with {}", exit.status))
        }
    }
}

/// A persistent client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to the server.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let setup = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .and_then(|()| stream.try_clone());
        let reader = setup.map_err(|e| format!("cannot configure the connection: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(reader),
            writer: stream,
        })
    }

    /// Sends one request line and waits for its reply payload; an `err`
    /// reply is an error.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.receive(line)
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("`{line}`: send failed: {e}"))
    }

    /// Waits until the first byte of the reply to `line` has arrived.
    pub fn await_reply(&mut self, line: &str) -> Result<(), String> {
        self.reader
            .fill_buf()
            .map(|_| ())
            .map_err(|e| format!("`{line}`: {e}"))
    }

    /// Reads the reply payload to `line`; an `err` reply is an error.
    pub fn receive(&mut self, line: &str) -> Result<String, String> {
        match read_reply(&mut self.reader) {
            Ok(Reply::Ok(payload)) => Ok(payload),
            Ok(Reply::Err { code, message }) => Err(format!("`{line}`: err {code} {message}")),
            Err(e) => Err(format!("`{line}`: {e}")),
        }
    }
}

/// Every distinct reply seen, by request line.
#[derive(Default)]
pub struct Replies(BTreeMap<String, String>);

impl Replies {
    /// Records a reply; a line whose reply differs from an earlier one
    /// is an error.
    pub fn record(&mut self, line: &str, payload: String) -> Result<(), String> {
        match self.0.get(line) {
            Some(earlier) if *earlier != payload => {
                Err(format!("`{line}`: the reply changed between two requests"))
            }
            Some(_) => Ok(()),
            None => {
                self.0.insert(line.to_string(), payload);
                Ok(())
            }
        }
    }
}

/// Latencies (ms) of sequential pings, each on a fresh connection.
pub fn pings(addr: &str, report: &mut Report) -> Vec<f64> {
    (0..CONNECT_REPS)
        .filter_map(|_| {
            let start = Instant::now();
            report
                .op(Conn::open(addr).and_then(|mut c| c.call("ping")))
                .map(|_| start.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Sends the warm-up pass over one connection.
pub fn warm_up(conn: &mut Conn, report: &mut Report, replies: &mut Replies) {
    for line in warmup_requests() {
        report.op(conn
            .call(&line)
            .and_then(|payload| replies.record(&line, payload)));
    }
}

/// Set-up, repeated: spawn to ready plus the warm-up pass, each time
/// with a fresh server and cache. Keeps the last server; returns it
/// with the median set-up time.
fn setup(args: &Args, report: &mut Report, replies: &mut Replies) -> Option<(Server, f64)> {
    let mut times = Vec::new();
    let mut kept: Option<Server> = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let server = report.op(Server::start(args, &format!("serve-{rep}")))?;
        let mut conn = report.op(Conn::open(&server.addr))?;
        warm_up(&mut conn, report, replies);
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(server) {
            report.op(previous.stop());
        }
    }
    kept.map(|server| (server, median(&times)))
}

/// One completed request of the closed loop.
pub struct Done {
    /// Position in the mix.
    pub index: usize,
    /// Send to reply, as the client saw it.
    pub latency: Duration,
    /// The payload, or why the request failed.
    pub reply: Result<String, String>,
}

/// Drives `mix` closed-loop over `conns` persistent connections until
/// `budget` has passed or the mix runs out: each connection sends its
/// next request only after the previous reply. Returns the completed
/// requests in mix order and the loop's wall time.
pub fn drive(
    addr: &str,
    mix: &[Item],
    conns: usize,
    budget: Duration,
) -> Result<(Vec<Done>, Duration), String> {
    // Connect first: a fresh connection's cost is `connect_p50_ms`, not
    // request latency.
    let mut connections = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while start.elapsed() < budget {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = mix.get(index) else { break };
                        let sent = Instant::now();
                        let reply = conn.call(&item.line);
                        let failed = reply.is_err();
                        out.push(Done {
                            index,
                            latency: sent.elapsed(),
                            reply,
                        });
                        if failed {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    done.sort_by_key(|d| d.index);
    Ok((done, wall))
}

/// The `metrics` exposition, parsed.
pub fn scrape(conn: &mut Conn) -> Result<Vec<Sample>, String> {
    parse_exposition(&conn.call("metrics")?)
}

/// Cumulative count of the `request_latency_us` histogram at `le`.
fn cumulative_at(samples: &[Sample], le: u64) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == "request_latency_us_bucket" && s.le.is_some_and(|b| b <= le))
        .map(|s| s.value)
        .max()
        .unwrap_or(0)
}

/// Reports the server's own counters over the window between two
/// scrapes: the hot/store/build split and the server-side median.
pub fn server_counters(report: &mut Report, before: &[Sample], after: &[Sample]) {
    let delta = |name: &str| {
        let v = |s: &[Sample]| sample_value(s, name).unwrap_or(0);
        v(after).saturating_sub(v(before)) as f64
    };
    let hot = delta("hot_lru_hits");
    let store_hits = delta("store_hits");
    let store_misses = delta("store_misses");
    report.metric(
        "serve.hot_hit_ratio",
        hot / (hot + store_hits + store_misses).max(1.0),
        "ratio",
    );
    report.note(format!(
        "serve split: {hot} hot-cache hits, {store_hits} store hits, {store_misses} store misses"
    ));
    report.metric("serve.universe_builds", delta("universe_builds"), "count");
    report.metric("serve.gen_builds", delta("gen_builds"), "count");
    report.metric("serve.coalesced", delta("coalesced"), "count");
    report.metric("serve.errors", delta("errors"), "count");
    let requests = delta("request_latency_us_count");
    let mut bounds: Vec<u64> = after
        .iter()
        .filter(|s| s.name == "request_latency_us_bucket")
        .filter_map(|s| s.le)
        .collect();
    bounds.sort_unstable();
    let p50 = bounds.into_iter().find(|&le| {
        cumulative_at(after, le).saturating_sub(cumulative_at(before, le)) as f64 >= requests / 2.0
    });
    if let Some(le) = p50 {
        // The histogram's log2 buckets give an upper bound, not a value.
        report.metric("serve.server_p50_ms", le as f64 / 1e3, "ms");
    }
}

/// The one-shot `ndet` arguments matching a request line (`key=value`
/// becomes `--key value`, a bare token `--token`).
fn one_shot_argv(line: &str) -> Vec<String> {
    let mut tokens = line.split_whitespace();
    let mut argv: Vec<String> = tokens.by_ref().take(2).map(str::to_string).collect();
    for token in tokens {
        match token.split_once('=') {
            Some((key, value)) => argv.extend([format!("--{key}"), value.to_string()]),
            None => argv.push(format!("--{token}")),
        }
    }
    argv
}

/// Fresh builds per circuit whose replies are recomputed after a run.
/// Redoing a fresh `rie` build costs 0.3–1 s and a run makes dozens,
/// so checking a fixed number bounds the run's length.
const FRESH_CHECKS: usize = 8;

/// Checks distinct replies byte for byte against the matching one-shot
/// output: every hot read with a real `ndet` process, and the first
/// `FRESH_CHECKS` fresh builds of each circuit (in request-line order)
/// with `ndetect_serve::render_gen`, the function one-shot `ndet gen`
/// prints, which costs only the generator and not a cold process per
/// build. The first of those per circuit also runs as a real `ndet`.
pub fn check_replies(args: &Args, report: &mut Report, replies: &Replies) {
    let checker = Engine::new(None, FRESH_CIRCUITS.len(), 0);
    let mut fresh_checked: BTreeMap<&str, usize> = BTreeMap::new();
    for (line, payload) in &replies.0 {
        let fresh = line.contains("seed=");
        let circuit = line.split_whitespace().nth(1).unwrap_or("");
        let checked = fresh_checked.entry(circuit).or_default();
        if fresh {
            if *checked == FRESH_CHECKS {
                continue;
            }
            *checked += 1;
        }
        if !fresh || *checked == 1 {
            let argv = one_shot_argv(line);
            let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
            report.op(proc::run(&mut args.ndet(&argv))
                .map_err(|e| format!("cannot run one-shot `{line}`: {e}"))
                .and_then(|run| match run.stdout == payload.as_bytes() {
                    true => Ok(()),
                    false => Err(format!(
                        "`{line}`: the served reply differs from one-shot `ndet`"
                    )),
                }));
        }
        if fresh {
            report.op(render_fresh(line, &checker).and_then(|expected| {
                match expected == *payload {
                    true => Ok(()),
                    false => Err(format!(
                        "`{line}`: the served reply differs from render_gen"
                    )),
                }
            }));
        }
    }
}

/// A fresh `gen` request rendered in-process.
fn render_fresh(line: &str, provider: &Engine) -> Result<String, String> {
    let Ok(Request::Gen {
        circuit,
        n,
        compact,
        seed,
        knobs,
        ..
    }) = Request::parse(line)
    else {
        return Err(format!("`{line}` is not a gen request"));
    };
    let netlist = ndetect_circuits::build(&circuit).map_err(|e| e.to_string())?;
    ndetect_serve::render_gen(&netlist, n, compact, seed, knobs, provider)
}

/// Records the loop's replies; returns the client latencies in ms.
pub fn record(
    report: &mut Report,
    mix: &[Item],
    done: Vec<Done>,
    replies: &mut Replies,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(done.len());
    for d in done {
        latencies.push(d.latency.as_secs_f64() * 1e3);
        let line = &mix[d.index].line;
        report.op(d.reply.and_then(|payload| replies.record(line, payload)));
    }
    latencies
}

/// The `--trace 0` run of `serve-mix`.
pub fn measure(args: &Args, report: &mut Report) {
    let mut replies = Replies::default();
    let Some((server, setup_s)) = setup(args, report, &mut replies) else {
        return;
    };
    report.metric("setup_s", setup_s, "s");

    let Some(mut control) = report.op(Conn::open(&server.addr)) else {
        return;
    };
    let before = report.op(scrape(&mut control));
    // Enough passes for the fastest plausible server; the loop stops
    // at the time budget.
    let mix = mix(args.seed, args.seconds.as_secs() as usize * 100);
    let outcome = report.op(drive(&server.addr, &mix, args.threads, args.seconds));
    let after = report.op(scrape(&mut control));
    drop(control);
    let exit = report.op(server.stop());
    let Some((done, wall)) = outcome else { return };

    let fresh = done.iter().filter(|d| mix[d.index].fresh).count();
    report.note(format!(
        "mix: {} requests over {} connections, {fresh} fresh builds ({:.1}%)",
        done.len(),
        args.threads,
        100.0 * fresh as f64 / done.len().max(1) as f64
    ));
    let latencies = record(report, &mix, done, &mut replies);
    describe(report, "request latency", "ms", &latencies);
    if let Some((per_mille, v)) = supported_tail(&latencies, 10) {
        report.note(format!(
            "highest percentile with >=10 requests beyond it: p{} = {v:.3} ms",
            per_mille as f64 / 10.0
        ));
    }
    if let (Some(before), Some(after)) = (&before, &after) {
        server_counters(report, before, after);
    }
    // A pass is fixed work, so its wall is the loop's wall per pass:
    // a median over individual passes would mostly measure where in its
    // pass the one rie build fell.
    let passes = latencies.len() as f64 / pass_len() as f64;
    report.metric("wall_s", wall.as_secs_f64() / passes, "s");
    report.metric("request_p50_ms", median(&latencies), "ms");
    report.metric("request_p99_ms", percentile(&latencies, 990), "ms");
    report.metric(
        "throughput_rps",
        latencies.len() as f64 / wall.as_secs_f64(),
        "1/s",
    );
    if let Some(exit) = exit {
        report.metric("peak_rss_mb", exit.max_rss_kb as f64 / 1024.0, "MB");
    }
    check_replies(args, report, &replies);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn a_pass_is_five_percent_fresh_builds_with_unique_seeds() {
        let items = mix(7, 4);
        assert_eq!(items.len(), 4 * pass_len());
        let fresh: Vec<&str> = items
            .iter()
            .filter(|i| i.fresh)
            .map(|i| i.line.as_str())
            .collect();
        assert_eq!(fresh.len(), 4 * FRESH_CIRCUITS.len());
        assert_eq!(fresh.iter().collect::<BTreeSet<_>>().len(), fresh.len());
        assert_eq!(pass_len(), 60);
        // Same seed, same mix; another seed, another order.
        let again: Vec<String> = mix(7, 4).into_iter().map(|i| i.line).collect();
        let lines: Vec<String> = items.into_iter().map(|i| i.line).collect();
        assert_eq!(lines, again);
        let other: Vec<String> = mix(8, 4).into_iter().map(|i| i.line).collect();
        assert_ne!(lines, other);
    }

    #[test]
    fn request_lines_map_to_one_shot_flags() {
        assert_eq!(
            one_shot_argv("gen rie n=10 compact seed=5"),
            ["gen", "rie", "--n", "10", "--compact", "--seed", "5"]
        );
        assert_eq!(
            one_shot_argv("corpus tests/data/corpus"),
            ["corpus", "tests/data/corpus"]
        );
    }
}
