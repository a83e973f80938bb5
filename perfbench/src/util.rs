//! Shared helpers: order statistics, seeds, child processes with their
//! peak RSS, and the in-memory span log the traced run exports.

use ecl_obs::{EventKind, Recorder, TraceEvent, PID_ENGINE};
use std::collections::BTreeMap;
use std::io;
use std::process::{Child, Command, ExitStatus};
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for even counts);
/// NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `xs`; NaN for an empty slice. Other tenants of a shared
/// host only ever add time to a repetition, so the fastest one is the
/// steadiest estimate of the program's own cost.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Nearest-rank quantile of `xs` for `q` in (0, 1]; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest nearest-rank percentile of `xs` that has at least ten
/// samples beyond it, never below the median: the tail a few dozen
/// samples support. NaN when empty.
pub fn supported_tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len().saturating_sub(10).max(v.len().div_ceil(2));
    v.get(rank.wrapping_sub(1)).copied().unwrap_or(f64::NAN)
}

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// benchmark's `--seed` and a per-stream tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How one child process ended.
pub struct ChildExit {
    /// Exit status.
    pub status: ExitStatus,
    /// Peak resident set size in KiB (0 where the platform cannot say).
    pub peak_rss_kb: u64,
}

/// Runs `cmd` to completion; returns its exit, its peak RSS and its wall
/// time from spawn to exit in seconds.
pub fn run_child(cmd: &mut Command) -> io::Result<(ChildExit, f64)> {
    let t = Instant::now();
    let child = cmd.spawn()?;
    let exit = wait_child(child)?;
    Ok((exit, t.elapsed().as_secs_f64()))
}

/// Reaps `child`, reading its peak RSS from the kernel's accounting.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn wait_child(child: Child) -> io::Result<ChildExit> {
    use std::os::unix::process::ExitStatusExt;
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    }
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut ru = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on it
        // because `child` is consumed here without `wait`), and both out
        // pointers refer to live, correctly laid-out locals for the whole
        // call.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(ChildExit {
        status: ExitStatus::from_raw(status),
        peak_rss_kb: u64::try_from(ru.maxrss).unwrap_or(0),
    })
}

/// Reaps `child`; peak RSS is unavailable on this platform.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn wait_child(mut child: Child) -> io::Result<ChildExit> {
    Ok(ChildExit {
        status: child.wait()?,
        peak_rss_kb: 0,
    })
}

/// In-memory span log around the benchmark's calls into each layer.
/// Spans are kept by an [`ecl_obs::Recorder`] and exported once, at the
/// end, as a Chrome trace.
pub struct Spans {
    rec: Recorder,
}

impl Spans {
    /// A log that records (`enabled`) or only times.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            rec: if enabled {
                Recorder::new()
            } else {
                Recorder::disabled()
            },
        }
    }

    /// The underlying recorder (for per-thread buffers).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Runs `f` inside a span named `name`; returns its value and its
    /// wall time in seconds.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_us = self.rec.now_us();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        // End read from the recorder's clock too, so a child span never
        // ends after its parent.
        let dur_us = self.rec.now_us().saturating_sub(start_us);
        self.rec.record(TraceEvent::span(
            name,
            "perfbench",
            PID_ENGINE,
            0,
            start_us,
            dur_us,
        ));
        (out, secs)
    }

    /// Writes the Chrome trace to `path` and returns each span name's
    /// total self time in seconds: a span's duration minus the part of it
    /// its child spans (same thread, nested inside it) cover.
    pub fn export(
        &self,
        path: &std::path::Path,
        meta: &[(String, String)],
    ) -> io::Result<BTreeMap<String, f64>> {
        std::fs::write(path, self.rec.chrome_trace_json(meta))?;
        Ok(self_times(&self.rec.events()))
    }
}

/// Per-name self time (seconds) over the nested spans in `events`.
pub fn self_times(events: &[TraceEvent]) -> BTreeMap<String, f64> {
    let mut spans: Vec<(u32, u64, u64, &str)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { dur } => Some((e.tid, e.ts, dur, e.name.as_str())),
            _ => None,
        })
        .collect();
    // Parents sort before the children they contain.
    spans.sort_by(|a, b| {
        (a.0, a.1, std::cmp::Reverse(a.2)).cmp(&(b.0, b.1, std::cmp::Reverse(b.2)))
    });
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut self_us: Vec<i64> = spans.iter().map(|s| s.2 as i64).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (tid, ts, dur, _) = spans[i];
        while let Some(&top) = stack.last() {
            let (ptid, pts, pdur, _) = spans[top];
            if ptid == tid && ts >= pts && ts + dur <= pts + pdur {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            self_us[parent] -= dur as i64;
        }
        stack.push(i);
    }
    for (s, us) in spans.iter().zip(self_us) {
        *out.entry(s.3.to_string()).or_default() += us as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert!(median(&[]).is_nan());
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert!(fastest(&[]).is_nan());
        // 35 samples: rank 25 has exactly ten beyond it.
        let xs: Vec<f64> = (1..=35).map(f64::from).collect();
        assert_eq!(supported_tail(&xs), 25.0);
        // Too few for ten beyond: the median.
        assert_eq!(supported_tail(&[3.0, 1.0, 2.0]), 2.0);
        assert!(supported_tail(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let ev = |name: &str, ts, dur| TraceEvent::span(name, "t", PID_ENGINE, 0, ts, dur);
        let events = vec![
            ev("root", 0, 100),
            ev("a", 10, 30),
            ev("b", 50, 20),
            ev("next", 200, 5),
        ];
        let st = self_times(&events);
        assert!((st["root"] - 50e-6).abs() < 1e-12);
        assert!((st["a"] - 30e-6).abs() < 1e-12);
        assert!((st["next"] - 5e-6).abs() < 1e-12);
    }
}
