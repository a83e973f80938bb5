//! The serve stack's layers, measured against a live `ecl-cc serve`
//! child (product defaults apart from `--dir`, `--addr` and
//! `--vertices`) in the `cc-social` traced run.
//!
//! The server is preloaded with a seeded social stand-in's spanning
//! forest through its own `ADD` path, then driven open-loop with the
//! read-heavy mix (95% `CONN`, 5% `ADD`) from at most `nproc` threads,
//! one connection each. Every request is timed from when it was due, so
//! a stall also delays the requests queued behind it. Every reply is
//! checked: `ADD`s must be acknowledged, `CONN` answers must be
//! justified by the `ADD` history ([`crate::oracle`]), and the final
//! `STATS` line must match the acknowledged edges.

use crate::oracle::{self, AddEvent, ConnEvent, Dsu};
use crate::util::{mix, quantile, wait_child, Spans};
use crate::{Ctx, Report};
use ecl_graph::generate::{preferential_attachment, Pcg32};
use ecl_obs::{Recorder, TraceEvent, PID_ENGINE};
use ecl_serve::Client;
use std::io::{self, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Vertex space of the server (`--vertices`).
pub const VERTICES: usize = 1 << 18;
/// Vertices of the social stand-in (preferential attachment).
const SOCIAL_N: usize = 1 << 14;
/// Edges per new vertex in the social stand-in.
const SOCIAL_M_PER: usize = 8;
/// The preload covers the social stand-in's first 7/8 of vertices; the
/// `ADD` stream's edges then link the rest in during the run.
const PRELOAD_CUT: u32 = (SOCIAL_N as u32 / 8) * 7;
/// Requests pipelined per write while preloading.
const PRELOAD_CHUNK: usize = 256;
/// Share of `ADD`s in the request stream, per mille (the rest are `CONN`s).
const ADD_PERMILLE: u32 = 50;
/// Offered rate of the load, requests per second (about half of what two
/// blocking connections sustain on a 2-core host).
const RATE: f64 = 15_000.0;
/// Share of `--seconds` the load runs for.
const LOAD_SHARE: f64 = 0.25;

/// One request of the generated stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Add(u32, u32),
    Conn(u32, u32),
}

impl Op {
    fn write_line(&self, buf: &mut Vec<u8>) {
        buf.clear();
        let _ = match *self {
            Op::Add(u, v) => writeln!(buf, "ADD {u} {v}"),
            Op::Conn(u, v) => writeln!(buf, "CONN {u} {v}"),
        };
    }
}

/// The seeded social stand-in, scattered over the server's vertex space.
pub struct Social {
    /// Every edge (server vertex ids).
    pub edges: Vec<(u32, u32)>,
    /// Every vertex (server vertex ids).
    pub vertices: Vec<u32>,
    /// Spanning forest of the first [`PRELOAD_CUT`] vertices.
    pub preload: Vec<(u32, u32)>,
}

pub fn social(seed: u64) -> Social {
    let g = preferential_attachment(SOCIAL_N, SOCIAL_M_PER, mix(seed, 3));
    // An odd multiplier is a bijection modulo the power-of-two space.
    let offset = (mix(seed, 4) % VERTICES as u64) as u32;
    let scatter = |x: u32| x.wrapping_mul(40_503).wrapping_add(offset) % VERTICES as u32;
    let mut dsu = Dsu::new(SOCIAL_N);
    let mut preload = Vec::new();
    let mut edges = Vec::new();
    for (u, v) in g.edges() {
        if u < PRELOAD_CUT && v < PRELOAD_CUT && dsu.union(u, v) {
            preload.push((scatter(u), scatter(v)));
        }
        edges.push((scatter(u), scatter(v)));
    }
    Social {
        edges,
        vertices: (0..SOCIAL_N as u32).map(scatter).collect(),
        preload,
    }
}

/// `count` requests: `ADD`s are social edges; a `CONN`
/// pairs a social vertex with another social vertex or, half the time,
/// with any vertex of the space.
pub fn ops(social: &Social, count: usize, rng: &mut Pcg32) -> Vec<Op> {
    (0..count)
        .map(|_| {
            if rng.below(1000) < ADD_PERMILLE {
                let (u, v) = social.edges[rng.below_usize(social.edges.len())];
                Op::Add(u, v)
            } else {
                let u = social.vertices[rng.below_usize(social.vertices.len())];
                let v = if rng.chance(0.5) {
                    social.vertices[rng.below_usize(social.vertices.len())]
                } else {
                    rng.below(VERTICES as u32)
                };
                Op::Conn(u, v)
            }
        })
        .collect()
}

/// Sends `op` as one write and parses its reply: the `CONN` answer or
/// the `ADD`'s `linked` flag; `None` for an error reply.
fn call(client: &mut Client, op: Op, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
    op.write_line(line);
    client.send_raw(line)?;
    let reply = client.read_line()?;
    let body = match op {
        Op::Add(..) => reply.strip_prefix("OK linked="),
        Op::Conn(..) => reply.strip_prefix("OK "),
    };
    Ok(match body {
        Some("true") => Some(true),
        Some("false") => Some(false),
        _ => None,
    })
}

/// One request as the generator saw it (nanoseconds on the run clock).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub op: Op,
    /// When the schedule said to send it.
    pub due: u64,
    /// When it was sent (`u64::MAX`: never, its connection broke).
    pub send: u64,
    /// When its reply arrived or the connection failed.
    pub done: u64,
    /// Parsed reply; `None` for an error reply or a broken connection.
    pub reply: Option<bool>,
}

impl Sample {
    /// Latency from due time in ms; a failed request never meets a limit.
    pub fn latency_ms(&self) -> f64 {
        match self.reply {
            Some(_) => (self.done - self.due) as f64 / 1e6,
            None => f64::INFINITY,
        }
    }
}

fn now_ns(clock: Instant) -> u64 {
    clock.elapsed().as_nanos() as u64
}

/// Drives `ops` open-loop at `rate` requests per second over `conns`
/// (request `k` is due at `start + k / rate` and goes to connection
/// `k % conns.len()`), one thread per connection, the calling thread
/// included. With `rec` enabled, each request is also recorded as a
/// span. Returns the samples in due order.
pub fn drive(
    conns: &mut [Client],
    ops: &[Op],
    rate: f64,
    clock: Instant,
    rec: &Recorder,
) -> Vec<Sample> {
    let stride = conns.len();
    let start = now_ns(clock) + 2_000_000;
    let one = |c: usize, conn: &mut Client| {
        let mut out = Vec::with_capacity(ops.len() / stride + 1);
        let mut line = Vec::with_capacity(32);
        let mut local = rec.local();
        for k in (c..ops.len()).step_by(stride) {
            let due = start + (k as f64 * 1e9 / rate) as u64;
            let now = now_ns(clock);
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let send = now_ns(clock);
            let span_start = rec.now_us();
            let reply = call(conn, ops[k], &mut line);
            let done = now_ns(clock);
            if local.is_enabled() {
                let name = match ops[k] {
                    Op::Add(..) => "request.add",
                    Op::Conn(..) => "request.conn",
                };
                let dur = rec.now_us().saturating_sub(span_start);
                local.push(TraceEvent::span(
                    name,
                    "perfbench",
                    PID_ENGINE,
                    c as u32 + 1,
                    span_start,
                    dur,
                ));
            }
            let broken = reply.is_err();
            out.push(Sample {
                op: ops[k],
                due,
                send,
                done,
                reply: reply.ok().flatten(),
            });
            if broken {
                // The rest of this connection's requests are never sent
                // (`send` = never, so no answer may rely on them) and
                // each counts as failed.
                for k in (k + stride..ops.len()).step_by(stride) {
                    out.push(Sample {
                        op: ops[k],
                        due: start + (k as f64 * 1e9 / rate) as u64,
                        send: u64::MAX,
                        done: u64::MAX,
                        reply: None,
                    });
                }
                break;
            }
        }
        rec.merge(&mut local);
        out
    };
    let (first, rest) = conns.split_first_mut().expect("at least one connection");
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| s.spawn(move || one(i + 1, conn)))
            .collect();
        let mut results = vec![one(0, first)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked")),
        );
        results
    });
    let mut samples: Vec<Sample> = results.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.due);
    samples
}

/// A running `ecl-cc serve` child; killed and reaped if dropped before
/// [`stop_server`] drains it (an error path).
struct Server {
    child: Option<Child>,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn start_server(ctx: &Ctx, dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    let out = ctx.work.join("server.out");
    let open = |p: &Path| std::fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let mut child = Command::new(&ctx.sut)
        .arg("serve")
        .arg("--dir")
        .arg(dir)
        .args(["--addr", "127.0.0.1:0", "--vertices", &VERTICES.to_string()])
        .stdout(Stdio::from(open(&out)?))
        .stderr(Stdio::from(open(&ctx.work.join("server.err"))?))
        .spawn()
        .map_err(|e| format!("spawn ecl-cc serve: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = std::fs::read_to_string(&out).unwrap_or_default();
        if let Some(addr) = text.lines().find_map(|l| l.strip_prefix("listening on ")) {
            return Ok(Server {
                child: Some(child),
                addr: addr.trim().to_string(),
            });
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("ecl-cc serve exited early: {status}"));
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("ecl-cc serve did not report its address".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drains the server with `SHUTDOWN` on `conns[0]`, closes every
/// connection and reaps the child.
fn stop_server(mut server: Server, mut conns: Vec<Client>) -> Result<(), String> {
    let reply = conns[0]
        .request("SHUTDOWN")
        .map_err(|e| format!("SHUTDOWN: {e}"))?;
    if reply != "OK draining" {
        return Err(format!("SHUTDOWN answered {reply:?}"));
    }
    drop(conns);
    let child = server.child.take().expect("server not yet stopped");
    let exit = wait_child(child).map_err(|e| format!("wait for ecl-cc serve: {e}"))?;
    if !exit.status.success() {
        return Err(format!("ecl-cc serve exited with {}", exit.status));
    }
    Ok(())
}

/// Sends the preload over every connection, pipelined; every edge is a
/// forest edge, so every reply must be `OK linked=true`.
fn preload(conns: &mut [Client], edges: &[(u32, u32)]) -> Result<(), String> {
    let stride = conns.len();
    let one = |c: usize, conn: &mut Client| -> io::Result<()> {
        let mine: Vec<(u32, u32)> = edges.iter().copied().skip(c).step_by(stride).collect();
        let mut buf = Vec::new();
        for chunk in mine.chunks(PRELOAD_CHUNK) {
            buf.clear();
            for &(u, v) in chunk {
                writeln!(buf, "ADD {u} {v}")?;
            }
            conn.send_raw(&buf)?;
            for _ in chunk {
                let r = conn.read_line()?;
                if r != "OK linked=true" {
                    return Err(io::Error::other(format!("preload ADD answered {r:?}")));
                }
            }
        }
        Ok(())
    };
    let (first, rest) = conns.split_first_mut().expect("at least one connection");
    std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| s.spawn(move || one(i + 1, conn)))
            .collect();
        let mut res = one(0, first);
        for h in handles {
            res = res.and(h.join().expect("preload thread panicked"));
        }
        res
    })
    .map_err(|e| format!("preload: {e}"))
}

/// Cumulative latency-bucket counts `(le_us, count)` of one command class
/// in a `METRICS` document.
fn buckets(doc: &str, cmd: &str) -> Result<Buckets, String> {
    let lines = ecl_obs::parse_expo(doc)?;
    let mut out: Buckets = lines
        .iter()
        .filter(|l| l.name == "ecl_request_latency_us_bucket")
        .filter(|l| l.labels.iter().any(|(k, v)| k == "cmd" && v == cmd))
        .filter_map(|l| {
            let le = l.labels.iter().find(|(k, _)| k == "le")?;
            let le = if le.1 == "+Inf" {
                f64::INFINITY
            } else {
                le.1.parse().ok()?
            };
            Some((le, l.value))
        })
        .collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(out)
}

/// Cumulative histogram buckets `(le_us, count)`, ascending.
type Buckets = Vec<(f64, f64)>;

/// Server-side latency quantile (µs, a bucket upper bound) of the
/// requests recorded between a `(before, after)` pair of scrapes.
fn server_quantile((before, after): &(Buckets, Buckets), q: f64) -> f64 {
    let cum = |h: &[(f64, f64)], le: f64| {
        h.iter()
            .filter(|b| b.0 <= le)
            .map(|b| b.1)
            .fold(0.0, f64::max)
    };
    let total = cum(after, f64::INFINITY) - cum(before, f64::INFINITY);
    after
        .iter()
        .find(|b| total > 0.0 && b.1 - cum(before, b.0) >= q * total)
        .map_or(0.0, |b| b.0)
}

/// Connects `n` clients; a `BUSY` greeting is an error.
fn connect_all(addr: &str, n: usize) -> Result<Vec<Client>, String> {
    (0..n)
        .map(|_| match Client::connect(addr) {
            Ok(c) if c.accepted() => Ok(c),
            Ok(c) => Err(format!("connect: refused: {}", c.greeting)),
            Err(e) => Err(format!("connect: {e}")),
        })
        .collect()
}

/// Checks a server's whole history: every `CONN` answer against the
/// `ADD`s, and the final `STATS` line against the acknowledged edges.
/// Returns the number of wrong answers (a wrong `STATS` counts as one).
fn check_history(preload: &[(u32, u32)], history: &[Sample], stats: &str) -> usize {
    let mut adds = Vec::new();
    let mut conns = Vec::new();
    for s in history {
        match (s.op, s.reply) {
            (Op::Add(u, v), r) => adds.push(AddEvent {
                u,
                v,
                send: s.send,
                ack: r.map(|_| s.done),
            }),
            (Op::Conn(u, v), Some(answer)) => conns.push(ConnEvent {
                u,
                v,
                send: s.send,
                reply: s.done,
                answer,
            }),
            (Op::Conn(..), None) => {}
        }
    }
    let wrong = oracle::check(VERTICES, preload, &adds, &conns);
    for w in wrong.iter().take(5) {
        eprintln!("perfbench: wrong answer: {w}");
    }
    let acked: Vec<(u32, u32)> = adds
        .iter()
        .filter(|a| a.ack.is_some())
        .map(|a| (a.u, a.v))
        .collect();
    let mut dsu = Dsu::new(VERTICES);
    for &(u, v) in preload.iter().chain(&acked) {
        dsu.union(u, v);
    }
    let want = format!(
        "OK vertices={VERTICES} edges={} components={}",
        preload.len() + acked.len(),
        dsu.components()
    );
    if stats != want {
        eprintln!("perfbench: STATS answered {stats:?}, expected {want:?}");
    }
    wrong.len() + usize::from(stats != want)
}

/// Drives the live server and sets the client-, server- and
/// network-side metrics, then times the request path's layers
/// in-process ([`crate::serve_layers`]).
pub fn layers(ctx: &Ctx, spans: &Spans, report: &mut Report) -> Result<(), String> {
    let social = social(ctx.seed);
    let nconn = ctx.nproc.clamp(1, 2);
    let mut rng = Pcg32::new(mix(ctx.seed, 5));
    let n = ((ctx.seconds * LOAD_SHARE * RATE) as usize).max(1000);

    let server = start_server(ctx, &ctx.work.join("state"))?;
    let mut conns = connect_all(&server.addr, nconn)?;
    let (r, _) = spans.time("serve.preload", || preload(&mut conns, &social.preload));
    r?;
    let load = ops(&social, n, &mut rng);
    let before = conns[0]
        .request_metrics(None)
        .map_err(|e| format!("METRICS: {e}"))?;
    let (samples, _) = spans.time("serve.load", || {
        drive(&mut conns, &load, RATE, Instant::now(), spans.recorder())
    });
    let after = conns[0]
        .request_metrics(None)
        .map_err(|e| format!("METRICS: {e}"))?;
    let stats = conns[0]
        .request("STATS")
        .map_err(|e| format!("STATS: {e}"))?;
    stop_server(server, conns)?;
    let failed = samples.iter().filter(|s| s.reply.is_none()).count();
    let wrong = check_history(&social.preload, &samples, &stats);
    report.attempted += samples.len() as u64;
    report.failed += (failed + wrong) as u64;

    let by = |want_add: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| matches!(s.op, Op::Add(..)) == want_add)
            .map(Sample::latency_ms)
            .collect()
    };
    let (adds_ms, conns_ms) = (by(true), by(false));
    report.set("client.add_p50_ms", quantile(&adds_ms, 0.5));
    report.set("client.add_p99_ms", quantile(&adds_ms, 0.99));
    report.set("client.conn_p50_ms", quantile(&conns_ms, 0.5));
    report.set("client.conn_p99_ms", quantile(&conns_ms, 0.99));
    let lag: Vec<f64> = samples
        .iter()
        .map(|s| (s.send - s.due) as f64 / 1e6)
        .collect();
    report.set("gen.lag_p99_ms", quantile(&lag, 0.99));
    for (cmd, client_ms) in [("add", &adds_ms), ("conn", &conns_ms)] {
        let delta = (buckets(&before, cmd)?, buckets(&after, cmd)?);
        let p50 = server_quantile(&delta, 0.5);
        report.set(&format!("server.{cmd}_p50_us"), p50);
        report.set(
            &format!("server.{cmd}_p99_us"),
            server_quantile(&delta, 0.99),
        );
        report.set(
            &format!("net.{cmd}_wait_p50_us"),
            quantile(client_ms, 0.5) * 1e3 - p50,
        );
    }
    report.stamp(
        "serve",
        format!(
            "{{\"vertices\": {VERTICES}, \"social_vertices\": {SOCIAL_N}, \"social_edges\": {}, \"preload_edges\": {}, \"connections\": {nconn}, \"add_permille\": {ADD_PERMILLE}, \"rate_per_s\": {RATE}, \"requests\": {}, \"succeeded\": {}, \"failed\": {failed}, \"wrong_answers\": {wrong}}}",
            social.edges.len(),
            social.preload.len(),
            samples.len(),
            samples.len() - failed,
        ),
    );
    crate::serve_layers::run(ctx, &social, &load, nconn, spans, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A stand-in server on one connection: greets, answers every request
    /// `OK true` (`OK linked=true` for `ADD`), and sleeps `stall` once,
    /// before answering request number `stall_at`.
    fn stalling_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            out.write_all(b"ECL/1 OK vertices=8\n").unwrap();
            for (n, line) in BufReader::new(stream).lines().enumerate() {
                let Ok(line) = line else { break };
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                let reply: &[u8] = if line.starts_with("ADD") {
                    b"OK linked=true\n"
                } else {
                    b"OK true\n"
                };
                if out.write_all(reply).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn one_stall_inflates_the_due_time_latency_of_later_requests() {
        // 2000 requests/s: request k is due at k * 0.5 ms. Request 100 is
        // due at 50 ms and is answered only after a 60 ms stall.
        let (addr, server) = stalling_server(100, Duration::from_millis(60));
        let mut conns = vec![Client::connect(&addr).unwrap()];
        let ops = vec![Op::Conn(1, 2); 400];
        let samples = drive(
            &mut conns,
            &ops,
            2000.0,
            Instant::now(),
            &Recorder::disabled(),
        );
        drop(conns);
        server.join().unwrap();
        assert_eq!(samples.len(), 400);
        assert!(
            samples[100].latency_ms() >= 55.0,
            "{}",
            samples[100].latency_ms()
        );
        // Due 25 ms into the stall, sent only after it ended: the wait
        // counts, though its own round trip was fast.
        let later = samples[150];
        assert!(later.latency_ms() >= 25.0, "{}", later.latency_ms());
        assert!(later.send - later.due >= 25_000_000);
        assert!(((later.done - later.send) as f64 / 1e6) < 10.0);
        // Well after the stall the generator has caught up again.
        assert!(
            samples[399].latency_ms() < 10.0,
            "{}",
            samples[399].latency_ms()
        );
    }
}
