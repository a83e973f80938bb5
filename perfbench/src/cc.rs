//! `cc-*` workloads: `ecl-cc components FILE --algo auto --sim-workers 0
//! --labels OUT` from a generated edge-list file to certified labels.
//!
//! End-to-end runs time the CLI as a child process, between host probes
//! that rescale each timing to a nominal host. The traced run times
//! the same pipeline's public calls in-process: `read_graph`, the
//! fallback ladder, the simulated-GPU kernels and `certify`; on
//! `cc-social` it also measures the serve stack's layers
//! ([`crate::serve::layers`]).

use crate::probe;
use crate::util::{fastest, median, mix, run_child, supported_tail, Spans};
use crate::{Ctx, Report};
use ecl_cc::ladder::{run_with_fallback, LadderConfig};
use ecl_cc::EclConfig;
use ecl_gpu_sim::{DeviceProfile, ExecMode, FaultPlan, Gpu, SchedMode};
use ecl_graph::{generate, CsrGraph};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Which catalog stand-in the workload labels.
#[derive(Clone, Copy)]
pub enum Input {
    /// soc-LiveJournal1 at catalog large scale: preferential attachment,
    /// 262,040 vertices, 9 edges per new vertex (≈2.36M edges).
    Social,
    /// europe_osm at catalog large scale: a 1024×1024 road lattice
    /// (≈1.05M vertices, ≈1.1M edges).
    Road,
}

/// Times each setup is repeated; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fewest end-to-end repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// In-process repetitions of each layer call in the traced run.
const LAYER_REPS: usize = 3;

fn generate_input(input: Input, seed: u64) -> CsrGraph {
    match input {
        Input::Social => generate::preferential_attachment(262_040, 9, mix(seed, 1)),
        Input::Road => generate::road_network(1024, 1024, 0.05, 1.0, mix(seed, 2)),
    }
}

/// Generates the input and writes it as an edge list.
fn setup(input: Input, seed: u64, file: &Path) -> Result<(), String> {
    let g = generate_input(input, seed);
    let f = std::fs::File::create(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut w = std::io::BufWriter::new(f);
    ecl_graph::io::write_edge_list(&g, &mut w)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("{}: {e}", file.display()))
}

/// The `--labels` file format: `vertex label` lines.
fn label_bytes(labels: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(labels.len() * 14);
    for (v, l) in labels.iter().enumerate() {
        out.extend_from_slice(format!("{v} {l}\n").as_bytes());
    }
    out
}

/// One CLI run: wall seconds, peak RSS (KiB), and whether its labels
/// were byte-identical to the oracle's.
fn components(
    ctx: &Ctx,
    file: &Path,
    out: &Path,
    expected: &[u8],
) -> Result<(f64, u64, bool), String> {
    let _ = std::fs::remove_file(out);
    let mut cmd = Command::new(&ctx.sut);
    cmd.arg("components")
        .arg(file)
        .args(["--algo", "auto", "--sim-workers", "0", "--labels"])
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let (exit, wall) = run_child(&mut cmd).map_err(|e| format!("spawn ecl-cc: {e}"))?;
    let ok = exit.status.success() && std::fs::read(out).is_ok_and(|b| b == expected);
    Ok((wall, exit.peak_rss_kb, ok))
}

/// The ladder as `ecl-cc components --algo auto --sim-workers 0`
/// configures it.
fn cli_ladder() -> LadderConfig {
    LadderConfig {
        cc: EclConfig::default(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        fault: FaultPlan::none(),
        exec: ExecMode::HostParallel(0),
        sched: SchedMode::default(),
        profile: DeviceProfile::titan_x(),
        ..LadderConfig::default()
    }
}

pub fn run(input: Input, ctx: &Ctx) -> Result<Report, String> {
    let file = ctx.work.join("input.el");
    let out = ctx.work.join("labels.txt");
    // The untraced run rescales its timings to a nominal host
    // (`probe.rs`): a probe runs before the first timed sample and after
    // each one, so every sample sits between two probes.
    let run_probe = |probes: &mut Vec<f64>| {
        if !ctx.traced {
            probes.push(probe::run(ctx.nproc));
        }
    };
    let (mut setups, mut setup_probes) = (Vec::new(), Vec::new());
    run_probe(&mut setup_probes);
    for _ in 0..SETUPS {
        // Unlinked first, untimed: each setup writes a fresh file, and the
        // previous one's unwritten pages are dropped rather than flushed.
        let _ = std::fs::remove_file(&file);
        let t = Instant::now();
        setup(input, ctx.seed, &file)?;
        setups.push(t.elapsed().as_secs_f64());
        run_probe(&mut setup_probes);
    }

    // Oracle: serial ECL-CC on the same file, certified.
    let g = ecl_cc_cli::read_graph(&file, None)?;
    let reference = ecl_cc::serial::run(&g, &EclConfig::default());
    ecl_verify::certify(&g, &reference.labels)
        .map_err(|e| format!("oracle failed certification: {e}"))?;
    let expected = label_bytes(&reference.labels);
    let (n, m) = (g.num_vertices(), g.num_edges());
    let file_bytes = std::fs::metadata(&file).map_err(|e| e.to_string())?.len();
    drop(g);

    let mut report = Report::default();
    report.stamp(
        "input",
        format!("{{\"vertices\": {n}, \"edges\": {m}, \"file_bytes\": {file_bytes}}}"),
    );
    report.stamp(
        "sim_workers",
        format!("{{\"flag\": 0, \"resolved\": {}}}", ctx.nproc),
    );

    // End-to-end repetitions. The traced run alternates untraced and
    // traced repetitions so their difference is the tracing overhead.
    let spans = Spans::new(ctx.traced);
    let (mut plain, mut traced, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut probes = Vec::new();
    run_probe(&mut probes);
    let min_reps = if ctx.traced { 2 * MIN_REPS } else { MIN_REPS };
    let t0 = Instant::now();
    let mut rep = 0usize;
    while rep < min_reps || t0.elapsed().as_secs_f64() < ctx.seconds {
        let with_spans = ctx.traced && rep % 2 == 1;
        let (wall, kb, ok) = if with_spans {
            spans
                .time("cc.components", || components(ctx, &file, &out, &expected))
                .0?
        } else {
            components(ctx, &file, &out, &expected)?
        };
        run_probe(&mut probes);
        report.attempted += 1;
        report.failed += u64::from(!ok);
        if with_spans { &mut traced } else { &mut plain }.push(wall);
        rss.push(kb as f64 / 1024.0);
        rep += 1;
    }
    for (key, xs) in [
        ("walls_s", &plain),
        ("probes_s", &probes),
        ("setups_s", &setups),
        ("setup_probes_s", &setup_probes),
    ] {
        let xs: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
        report.stamp(key, format!("[{}]", xs.join(", ")));
    }
    report.stamp(
        "wall_summary_s",
        format!(
            "{{\"reps\": {}, \"fastest\": {}, \"p50\": {}, \"tail\": {}}}",
            plain.len(),
            fastest(&plain),
            median(&plain),
            supported_tail(&plain)
        ),
    );
    report.stamp(
        "ops",
        format!(
            "{{\"measure\": {{\"sent\": {}, \"succeeded\": {}, \"failed\": {}}}}}",
            report.attempted,
            report.attempted - report.failed,
            report.failed
        ),
    );

    if !ctx.traced {
        report.stamp("nominal_probe_s", probe::NOMINAL_S.to_string());
        let wall = median(&probe::rescale(&plain, &probes));
        report.set("edges_per_s", m as f64 / wall);
        report.set("norm_wall_ms", wall * 1e3);
        report.set("setup_s", median(&probe::rescale(&setups, &setup_probes)));
        report.set("peak_rss_mb", median(&rss));
        return Ok(report);
    }

    let wall = fastest(&plain);
    report.set(
        "trace.overhead_pct",
        100.0 * (fastest(&traced) - wall) / wall,
    );
    let blocking = layers(&file, &expected, &spans, &mut report)?;
    report.set("unaccounted_s", wall - blocking);
    if matches!(input, Input::Social) {
        crate::serve::layers(ctx, &spans, &mut report)?;
    }
    crate::export_trace(ctx, &spans, &mut report)?;
    Ok(report)
}

/// Times each layer of the components pipeline in-process and returns
/// the sum of the blocking layers' fastest times (load + ladder +
/// certify), the statistic `unaccounted_s` takes of the CLI wall time.
/// Each repetition nests the three under one `cc.pipeline` span, so the
/// pipeline's self time is the time between the calls.
fn layers(file: &Path, expected: &[u8], spans: &Spans, report: &mut Report) -> Result<f64, String> {
    let (mut load, mut ladder, mut gpu_s, mut certify) = (vec![], vec![], vec![], vec![]);
    for _ in 0..LAYER_REPS {
        let (piped, _) = spans.time("cc.pipeline", || -> Result<_, String> {
            let (g, t_load) = spans.time("graph.load", || ecl_cc_cli::read_graph(file, None));
            let g = g?;
            let (outcome, t_ladder) =
                spans.time("ladder.run", || run_with_fallback(&g, &cli_ladder()));
            let outcome = outcome.map_err(|e| format!("ladder: {e}"))?;
            let (cert, t_cert) = spans.time("verify.certify", || {
                ecl_verify::certify(&g, &outcome.result.labels)
            });
            cert.map_err(|e| format!("certify: {e}"))?;
            Ok((g, outcome, [t_load, t_ladder, t_cert]))
        });
        let (g, outcome, [t_load, t_ladder, t_cert]) = piped?;
        load.push(t_load);
        ladder.push(t_ladder);
        certify.push(t_cert);
        report.attempted += 1;
        report.failed += u64::from(label_bytes(&outcome.result.labels) != expected);
        report.set("ladder.attempts", outcome.attempts.len() as f64);

        let ((res, gpu), t) = spans.time("gpu.run", || {
            let mut gpu = Gpu::new(DeviceProfile::titan_x());
            gpu.set_exec_mode(ExecMode::HostParallel(0));
            (
                ecl_cc::gpu::try_run(&mut gpu, &g, &EclConfig::default()),
                gpu,
            )
        });
        let (labels, stats) = res.map_err(|e| format!("gpu: {e}"))?;
        gpu_s.push(t);
        report.attempted += 1;
        report.failed += u64::from(label_bytes(&labels.labels) != expected);
        report.set("gpu.steal_count", gpu.steal_count() as f64);
        report.set("gpu.cycles", stats.total_cycles() as f64);
        for k in ["init", "compute1", "compute2", "compute3", "finalize"] {
            let cycles = stats.kernel(k).map_or(0, |s| s.cycles);
            report.set(&format!("gpu.cycles.{k}"), cycles as f64);
        }
        report.set("gpu.l2_reads", stats.l2_reads() as f64);
        let sum = |f: fn(&ecl_gpu_sim::KernelStats) -> u64| {
            stats.kernels.iter().map(f).sum::<u64>() as f64
        };
        report.set("gpu.dram_transactions", sum(|k| k.dram_transactions));
        report.set(
            "gpu.cas_fail_ratio",
            sum(|k| k.cas_failures) / sum(|k| k.cas_attempts).max(1.0),
        );
        report.set("gpu.worklist_mid", stats.worklist_mid as f64);
        report.set("gpu.worklist_big", stats.worklist_big as f64);
    }
    let (load, ladder, certify) = (fastest(&load), fastest(&ladder), fastest(&certify));
    report.set("graph.load_s", load);
    report.set("ladder.run_s", ladder);
    report.set("gpu.run_s", fastest(&gpu_s));
    report.set("verify.certify_s", certify);
    Ok(load + ladder + certify)
}
