//! The serve request path's layers, timed in-process on the serve load's
//! own requests: protocol parse, `IncrementalCc`, the WAL, and
//! `ServeState` (apply + WAL + inline snapshot).

use crate::serve::{Op, Social, VERTICES};
use crate::util::{median, quantile, Spans};
use crate::{Ctx, Report};
use ecl_cc::incremental::IncrementalCc;
use ecl_serve::wal::Wal;
use ecl_serve::ServeState;
use std::hint::black_box;
use std::time::Instant;

/// Batches per in-process probe; each layer reports the median batch.
const BATCHES: usize = 5;
/// The server's default `--snapshot-every`.
const SNAPSHOT_EVERY: u64 = 10_000;
/// `Wal::append_edge` calls per thread.
const WAL_APPENDS: usize = 2_000;

/// Times each layer on the load's own requests and sets its metrics.
pub fn run(
    ctx: &Ctx,
    social: &Social,
    stream: &[Op],
    nconn: usize,
    spans: &Spans,
    report: &mut Report,
) -> Result<(), String> {
    let lines: Vec<String> = stream
        .iter()
        .map(|op| match *op {
            Op::Add(u, v) => format!("ADD {u} {v}"),
            Op::Conn(u, v) => format!("CONN {u} {v}"),
        })
        .collect();
    let per = |secs: f64, n: usize| secs * 1e9 / n.max(1) as f64;

    let mut parse = Vec::new();
    for _ in 0..BATCHES {
        let (bad, t) = spans.time("protocol.parse", || {
            lines
                .iter()
                .filter(|l| black_box(ecl_serve::parse_request(l)).is_err())
                .count()
        });
        if bad > 0 {
            return Err(format!("{bad} generated requests failed to parse"));
        }
        parse.push(per(t, lines.len()));
    }

    let adds: Vec<(u32, u32)> = stream
        .iter()
        .filter_map(|o| {
            if let Op::Add(u, v) = *o {
                Some((u, v))
            } else {
                None
            }
        })
        .collect();
    let queries: Vec<(u32, u32)> = stream
        .iter()
        .filter_map(|o| {
            if let Op::Conn(u, v) = *o {
                Some((u, v))
            } else {
                None
            }
        })
        .collect();
    let (mut add_ns, mut conn_ns) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let cc = IncrementalCc::new(VERTICES);
        for &(u, v) in &social.preload {
            cc.add_edge(u, v);
        }
        let (r, t) = spans.time("incremental.add", || {
            adds.iter()
                .try_for_each(|&(u, v)| cc.try_add_edge(u, v).map(|_| ()))
        });
        r.map_err(|e| format!("IncrementalCc::try_add_edge: {e}"))?;
        add_ns.push(per(t, adds.len()));
        let (r, t) = spans.time("incremental.conn", || {
            queries.iter().try_for_each(|&(u, v)| {
                cc.try_connected(u, v).map(|c| {
                    black_box(c);
                })
            })
        });
        r.map_err(|e| format!("IncrementalCc::try_connected: {e}"))?;
        conn_ns.push(per(t, queries.len()));
    }

    // WAL appends from `nconn` threads: per-call latency.
    let wal_path = ctx.work.join("probe.wal");
    let wal =
        Wal::create(&wal_path, VERTICES).map_err(|e| format!("{}: {e}", wal_path.display()))?;
    let edges = &social.edges;
    let (wal_lat, _) = spans.time("wal.append", || {
        concurrent(nconn, |t| {
            let mut lat = Vec::with_capacity(WAL_APPENDS);
            for i in 0..WAL_APPENDS {
                let (u, v) = edges[(i * nconn + t) % edges.len()];
                let s = Instant::now();
                wal.append_edge(u, v)
                    .map_err(|e| format!("Wal::append_edge: {e}"))?;
                lat.push(s.elapsed().as_secs_f64() * 1e6);
            }
            Ok(lat)
        })
    });
    let wal_lat = wal_lat?;
    drop(wal);

    // ServeState: the preload and the stream's ADDs from `nconn` threads,
    // crossing the inline-snapshot threshold, then explicit snapshots.
    let dir = ctx.work.join("probe-state");
    let _ = std::fs::remove_dir_all(&dir);
    let state = ServeState::open_fresh(&dir, VERTICES, SNAPSHOT_EVERY)?;
    let writes: Vec<(u32, u32)> = social.preload.iter().chain(&adds).copied().collect();
    let (state_lat, _) = spans.time("state.add", || {
        concurrent(nconn, |t| {
            let mut lat = Vec::new();
            for &(u, v) in writes.iter().skip(t).step_by(nconn) {
                let s = Instant::now();
                state
                    .add_edge(u, v)
                    .map_err(|e| format!("ServeState::add_edge: {e}"))?;
                lat.push(s.elapsed().as_secs_f64() * 1e6);
            }
            Ok(lat)
        })
    });
    let state_lat = state_lat?;
    let mut snaps = Vec::new();
    for _ in 0..3 {
        let (r, t) = spans.time("state.snapshot", || state.snapshot());
        r.map_err(|e| format!("ServeState::snapshot: {e}"))?;
        snaps.push(t * 1e3);
    }
    drop(state);

    report.set("protocol.parse_ns", median(&parse));
    report.set("incremental.add_ns", median(&add_ns));
    report.set("incremental.conn_ns", median(&conn_ns));
    report.set("wal.append_p50_us", quantile(&wal_lat, 0.5));
    report.set("wal.append_p99_us", quantile(&wal_lat, 0.99));
    report.set("state.add_p99_us", quantile(&state_lat, 0.99));
    report.set("state.snapshot_ms", median(&snaps));
    Ok(())
}

/// Runs `f(thread_index)` on `n` threads (the caller's included) and
/// concatenates their samples.
fn concurrent(
    n: usize,
    f: impl Fn(usize) -> Result<Vec<f64>, String> + Sync,
) -> Result<Vec<f64>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..n)
            .map(|t| {
                let f = &f;
                s.spawn(move || f(t))
            })
            .collect();
        let mut all = f(0)?;
        for h in handles {
            all.extend(h.join().expect("probe thread panicked")?);
        }
        Ok(all)
    })
}
