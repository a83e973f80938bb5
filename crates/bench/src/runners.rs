//! Uniform adapters around every CC implementation so the experiment
//! drivers can iterate over codes by name.

use ecl_cc::{CcResult, EclConfig};
use ecl_gpu_sim::{DeviceProfile, ExecMode, Gpu, SchedMode};
use ecl_graph::CsrGraph;

/// One GPU code: returns the labeling and total simulated cycles.
pub type GpuRunner = fn(&mut Gpu, &CsrGraph) -> (CcResult, u64);

fn gpu_ecl(gpu: &mut Gpu, g: &CsrGraph) -> (CcResult, u64) {
    let (r, s) = ecl_cc::gpu::run(gpu, g, &EclConfig::default());
    (r, s.total_cycles())
}

fn gpu_groute(gpu: &mut Gpu, g: &CsrGraph) -> (CcResult, u64) {
    let run = ecl_baselines::gpu::groute::run(gpu, g);
    let c = run.total_cycles();
    (run.result, c)
}

fn gpu_gunrock(gpu: &mut Gpu, g: &CsrGraph) -> (CcResult, u64) {
    let run = ecl_baselines::gpu::gunrock::run(gpu, g);
    let c = run.total_cycles();
    (run.result, c)
}

fn gpu_irgl(gpu: &mut Gpu, g: &CsrGraph) -> (CcResult, u64) {
    let run = ecl_baselines::gpu::irgl::run(gpu, g);
    let c = run.total_cycles();
    (run.result, c)
}

fn gpu_soman(gpu: &mut Gpu, g: &CsrGraph) -> (CcResult, u64) {
    let run = ecl_baselines::gpu::soman::run(gpu, g);
    let c = run.total_cycles();
    (run.result, c)
}

/// The five GPU codes of Tables 5/6, in the paper's column order.
pub const GPU_CODES: [(&str, GpuRunner); 5] = [
    ("ECL-CC", gpu_ecl as GpuRunner),
    ("Groute", gpu_groute as GpuRunner),
    ("Gunrock", gpu_gunrock as GpuRunner),
    ("IrGL", gpu_irgl as GpuRunner),
    ("Soman", gpu_soman as GpuRunner),
];

/// A timed and certified GPU run.
pub struct CertifiedGpuRun {
    /// Simulated pseudo-milliseconds. In [`ExecMode::HostParallel`] the
    /// cycle count depends on thread interleaving, so this is indicative
    /// only; serial-mode values are deterministic.
    pub ms: f64,
    /// Host wall-clock milliseconds spent simulating (what the
    /// `simspeed` experiment compares across exec modes).
    pub wall_ms: f64,
    /// The labeling itself, kept so equivalence experiments can compare
    /// exec modes byte for byte.
    pub labels: Vec<u32>,
    /// Certificate from the independent checker (issued *outside* the
    /// timed region — certification never contributes to `ms`).
    pub certificate: ecl_verify::Certificate,
    /// Schedulable units (one block's worth of an SM's work) dispatched
    /// across all launches of the run. Zero in serial mode.
    pub sched_units: u64,
    /// Units run by a worker other than their SM's home worker (steal
    /// scheduler only; zero for static, one thread, and serial).
    pub steal_count: u64,
}

impl CertifiedGpuRun {
    /// Fraction of schedulable units run off their home worker, in
    /// percent.
    pub fn blocks_stolen_pct(&self) -> f64 {
        if self.sched_units == 0 {
            0.0
        } else {
            100.0 * self.steal_count as f64 / self.sched_units as f64
        }
    }
}

/// Runs one GPU code on a fresh device of the given profile and certifies
/// the labeling with the independent checker. Timing is simulated cycles;
/// certification happens on the host afterwards and costs no simulated
/// time. Errors (rather than panics) on a wrong labeling.
pub fn try_run_gpu_code(
    runner: GpuRunner,
    profile: &DeviceProfile,
    g: &CsrGraph,
    exec: ExecMode,
) -> Result<CertifiedGpuRun, String> {
    try_run_gpu_code_sched(runner, profile, g, exec, SchedMode::default())
}

/// [`try_run_gpu_code`] with an explicit host-parallel block scheduler.
pub fn try_run_gpu_code_sched(
    runner: GpuRunner,
    profile: &DeviceProfile,
    g: &CsrGraph,
    exec: ExecMode,
    sched: SchedMode,
) -> Result<CertifiedGpuRun, String> {
    let mut gpu = Gpu::new(profile.clone());
    gpu.set_exec_mode(exec);
    gpu.set_sched_mode(sched);
    let wall = std::time::Instant::now();
    let (r, cycles) = runner(&mut gpu, g);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let certificate = ecl_verify::certify(g, &r.labels)
        .map_err(|e| format!("GPU code produced a wrong labeling: {e}"))?;
    Ok(CertifiedGpuRun {
        ms: profile.cycles_to_ms(cycles),
        wall_ms,
        labels: r.labels,
        certificate,
        sched_units: gpu.sched_unit_count(),
        steal_count: gpu.steal_count(),
    })
}

/// Infallible convenience wrapper around [`try_run_gpu_code`] for the
/// experiment drivers, which treat a wrong labeling as fatal.
pub fn run_gpu_code(
    runner: GpuRunner,
    profile: &DeviceProfile,
    g: &CsrGraph,
    exec: ExecMode,
    sched: SchedMode,
) -> f64 {
    match try_run_gpu_code_sched(runner, profile, g, exec, sched) {
        Ok(run) => run.ms,
        Err(e) => panic!("{e}"),
    }
}

/// One parallel CPU code: `(graph, threads) -> labels`, `None` when the
/// code cannot handle the input (CRONO's memory blow-up).
pub type CpuParRunner = fn(&CsrGraph, usize) -> Option<CcResult>;

fn cpu_ecl(g: &CsrGraph, t: usize) -> Option<CcResult> {
    Some(ecl_cc::connected_components_par(g, t))
}

fn cpu_bfscc(g: &CsrGraph, t: usize) -> Option<CcResult> {
    Some(ecl_baselines::cpu::bfscc::run(g, t))
}

fn cpu_comp(g: &CsrGraph, t: usize) -> Option<CcResult> {
    Some(ecl_baselines::cpu::label_prop::run(g, t))
}

fn cpu_crono(g: &CsrGraph, t: usize) -> Option<CcResult> {
    ecl_baselines::cpu::crono::run(g, t)
}

fn cpu_ndhybrid(g: &CsrGraph, t: usize) -> Option<CcResult> {
    Some(ecl_baselines::cpu::ndhybrid::run(g, t))
}

fn cpu_multistep(g: &CsrGraph, t: usize) -> Option<CcResult> {
    Some(ecl_baselines::cpu::multistep::run(g, t))
}

fn cpu_galois(g: &CsrGraph, t: usize) -> Option<CcResult> {
    Some(ecl_baselines::cpu::galois_async::run(g, t))
}

/// The seven parallel CPU codes of Tables 7/8, in the paper's column order.
pub const CPU_PAR_CODES: [(&str, CpuParRunner); 7] = [
    ("ECL-CComp", cpu_ecl as CpuParRunner),
    ("Ligra+BFSCC", cpu_bfscc as CpuParRunner),
    ("Ligra+Comp", cpu_comp as CpuParRunner),
    ("CRONO", cpu_crono as CpuParRunner),
    ("ndHybrid", cpu_ndhybrid as CpuParRunner),
    ("Multistep", cpu_multistep as CpuParRunner),
    ("Galois", cpu_galois as CpuParRunner),
];

/// One serial CPU code.
pub type SerialRunner = fn(&CsrGraph) -> CcResult;

fn ser_ecl(g: &CsrGraph) -> CcResult {
    ecl_cc::connected_components(g)
}

/// The five serial codes of Tables 9/10, in the paper's column order.
pub const SERIAL_CODES: [(&str, SerialRunner); 5] = [
    ("ECL-CCser", ser_ecl as SerialRunner),
    (
        "Galois",
        ecl_baselines::serial::unionfind_cc as SerialRunner,
    ),
    ("Boost", ecl_baselines::serial::dfs_cc as SerialRunner),
    ("Lemon", ecl_baselines::serial::bfs_cc as SerialRunner),
    ("igraph", ecl_baselines::serial::igraph_cc as SerialRunner),
];

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generate;

    #[test]
    fn every_gpu_code_runs_and_verifies() {
        let g = generate::gnm_random(200, 500, 1);
        for (name, r) in GPU_CODES {
            let ms = run_gpu_code(
                r,
                &DeviceProfile::test_tiny(),
                &g,
                ExecMode::Serial,
                SchedMode::default(),
            );
            assert!(ms > 0.0, "{name}");
        }
    }

    #[test]
    fn ecl_labels_identical_across_exec_modes() {
        let g = generate::gnm_random(300, 900, 4);
        let profile = DeviceProfile::test_tiny();
        let serial = try_run_gpu_code(gpu_ecl, &profile, &g, ExecMode::Serial).unwrap();
        for workers in [1, 2, 4] {
            let par =
                try_run_gpu_code(gpu_ecl, &profile, &g, ExecMode::HostParallel(workers)).unwrap();
            assert_eq!(par.labels, serial.labels, "workers={workers}");
            assert_eq!(
                par.certificate.num_components,
                serial.certificate.num_components
            );
        }
    }

    #[test]
    fn ecl_labels_identical_across_sched_modes() {
        let g = generate::gnm_random(300, 900, 4);
        let profile = DeviceProfile::test_tiny();
        let serial = try_run_gpu_code(gpu_ecl, &profile, &g, ExecMode::Serial).unwrap();
        for sched in [SchedMode::Static, SchedMode::Steal] {
            let par =
                try_run_gpu_code_sched(gpu_ecl, &profile, &g, ExecMode::HostParallel(4), sched)
                    .unwrap();
            assert_eq!(par.labels, serial.labels, "sched={sched:?}");
        }
    }

    #[test]
    fn every_cpu_par_code_runs_and_verifies() {
        let g = generate::gnm_random(200, 500, 2);
        for (name, r) in CPU_PAR_CODES {
            let res = r(&g, 2).unwrap_or_else(|| panic!("{name} refused input"));
            res.verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn every_serial_code_runs_and_verifies() {
        let g = generate::rmat(8, 6, generate::RmatParams::GALOIS, 3);
        for (name, r) in SERIAL_CODES {
            r(&g).verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
