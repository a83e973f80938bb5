//! The repository benchmark: end-to-end and per-layer numbers for the
//! `ecl-cc` CLI (file to certified labels) and the `ecl-cc serve`
//! connectivity server (open-loop request latency).
//!
//! ```text
//! perfbench --workload cc-social|cc-road
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The benchmark builds the `ecl-cc`
//! binary, generates every input from `--seed`, measures for about
//! `--seconds`, checks every output, and prints one JSON object as the
//! last line of stdout. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics from spans this program
//! records around its own calls into each crate. See `README.md`.

mod cc;
mod oracle;
mod probe;
mod serve;
mod serve_layers;
mod util;

use ecl_obs::json::Obj;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `(name, unit)` of every end-to-end metric, as declared in
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("edges_per_s", "edges/s"),
    ("norm_wall_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as declared in
/// `BENCHMARK.json`. A layer the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_s", "s"),
    ("ladder.run_s", "s"),
    ("ladder.attempts", "count"),
    ("gpu.run_s", "s"),
    ("gpu.steal_count", "count"),
    ("gpu.cycles", "cycles"),
    ("gpu.cycles.init", "cycles"),
    ("gpu.cycles.compute1", "cycles"),
    ("gpu.cycles.compute2", "cycles"),
    ("gpu.cycles.compute3", "cycles"),
    ("gpu.cycles.finalize", "cycles"),
    ("gpu.l2_reads", "count"),
    ("gpu.dram_transactions", "count"),
    ("gpu.cas_fail_ratio", "ratio"),
    ("gpu.worklist_mid", "count"),
    ("gpu.worklist_big", "count"),
    ("verify.certify_s", "s"),
    ("client.add_p50_ms", "ms"),
    ("client.add_p99_ms", "ms"),
    ("client.conn_p50_ms", "ms"),
    ("client.conn_p99_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("server.add_p50_us", "us"),
    ("server.add_p99_us", "us"),
    ("server.conn_p50_us", "us"),
    ("server.conn_p99_us", "us"),
    ("net.add_wait_p50_us", "us"),
    ("net.conn_wait_p50_us", "us"),
    ("protocol.parse_ns", "ns"),
    ("incremental.add_ns", "ns"),
    ("incremental.conn_ns", "ns"),
    ("wal.append_p50_us", "us"),
    ("wal.append_p99_us", "us"),
    ("state.add_p99_us", "us"),
    ("state.snapshot_ms", "ms"),
    ("unaccounted_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// What one run hands back: op counts, metric values and the stamp.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Context recorded with the result: `(key, raw JSON value)`.
    pub stamp: Vec<(String, String)>,
}

impl Report {
    /// Sets a metric. Panics on a name `BENCHMARK.json` does not declare:
    /// that is a bug in this program, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in BENCHMARK.json"));
        self.metrics.insert(key, value);
    }

    /// Adds a stamp entry (value is raw JSON).
    pub fn stamp(&mut self, key: &str, raw_json: String) {
        self.stamp.push((key.to_string(), raw_json));
    }

    /// The result line: every metric of the mode, with its unit. Unset
    /// per-layer metrics are layers this workload never calls and read 0;
    /// an unset end-to-end metric is a bug.
    fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut m = Obj::new();
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            m = m.raw(
                name,
                &Obj::new().f64("value", value).str("unit", unit).build(),
            );
        }
        Obj::new()
            .bool("correct", self.failed == 0)
            .u64("attempted", self.attempted.max(1))
            .u64("failed", self.failed)
            .raw("metrics", &m.build())
            .build()
    }
}

/// Where runs keep their temporary inputs (removed after the run), results
/// and traces, relative to the repository root.
const OUT_DIR: &str = ".perfbench";

/// Exports the traced run's spans as a Chrome trace under
/// `.perfbench/results/` and stamps each span name's self time (s).
pub fn export_trace(ctx: &Ctx, spans: &util::Spans, report: &mut Report) -> Result<(), String> {
    let dir = Path::new(OUT_DIR).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", ctx.label));
    let self_times = spans
        .export(&path, &[("tool".into(), "perfbench".into())])
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut o = Obj::new();
    for (name, secs) in &self_times {
        o = o.f64(name, *secs);
    }
    report.stamp("self_time_s", o.build());
    Ok(())
}

/// Everything a workload needs to run.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub traced: bool,
    /// The `ecl-cc` binary under test.
    pub sut: PathBuf,
    /// `<workload>-<seed>`, naming this run's files.
    pub label: String,
    /// Working directory for this run's inputs and state.
    pub work: PathBuf,
    /// Host cores.
    pub nproc: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

/// Builds the `ecl-cc` binary from the repository at the current
/// directory and returns its path.
fn build_sut() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/cli not found)".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "ecl-cc-cli",
            "--bin",
            "ecl-cc",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ecl-cc failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("ecl-cc");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

/// The checked-out revision, read from `.git` without running git (the
/// benchmark may run in a plain export, where this is "unknown").
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{r}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Result<Report, String> {
    let sut = build_sut()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let label = format!("{}-{}", args.workload, args.seed);
    let work = Path::new(OUT_DIR).join(format!("work-{label}"));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.trace,
        sut,
        label,
        work: work.clone(),
        nproc,
    };
    let result = match args.workload.as_str() {
        "cc-social" => cc::run(cc::Input::Social, &ctx),
        "cc-road" => cc::run(cc::Input::Road, &ctx),
        other => Err(format!("unknown workload {other} (cc-social, cc-road)")),
    };
    // Inputs and server state are large; results and traces are kept.
    let _ = std::fs::remove_dir_all(&work);
    let mut report = result?;
    report.stamp("workload", format!("\"{}\"", args.workload));
    report.stamp("seed", args.seed.to_string());
    report.stamp("trace", args.trace.to_string());
    report.stamp("nproc", nproc.to_string());
    report.stamp("git_revision", format!("\"{}\"", git_revision()));
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let line = report.result_line(args.trace);
    let mut stamp = Obj::new();
    for (k, v) in &report.stamp {
        stamp = stamp.raw(k, v);
    }
    let stamp = stamp.build();
    eprintln!("perfbench stamp: {stamp}");
    let dir = Path::new(OUT_DIR).join("results");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let record = Obj::new().raw("stamp", &stamp).raw("result", &line).build() + "\n";
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("perfbench: {}: {e}", file.display());
    }
    println!("{line}");
    if report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = ecl_obs::json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.set("graph.load_s", 0.25);
        let e2e = ecl_obs::json::parse(&r.result_line(false)).unwrap();
        let layer = ecl_obs::json::parse(&r.result_line(true)).unwrap();
        let count = |v: &ecl_obs::json::Value| v.get("metrics").unwrap().as_map().unwrap().len();
        assert_eq!(count(&e2e), END_TO_END.len());
        assert_eq!(count(&layer), PER_LAYER.len());
        assert_eq!(
            e2e.get("correct").unwrap(),
            &ecl_obs::json::Value::Bool(true)
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_rejected() {
        Report::default().set("made.up", 1.0);
    }
}
