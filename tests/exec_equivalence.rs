//! The determinism contract between the simulator's two execution modes.
//!
//! * **Serial mode is the timing record**: cycles, cache statistics, and
//!   fault behaviour are bit-for-bit reproducible, and this file pins
//!   them to golden values captured from the original single-threaded
//!   implementation — any refactor of the simulator's internals must
//!   keep these numbers exactly.
//! * **Host-parallel mode is the throughput path**: thread interleaving
//!   makes cycle counts indicative only, but ECL-CC's min-wins hooking
//!   converges to the same canonical labeling under any schedule, so
//!   final labels must be *byte-identical* to serial mode for every
//!   worker count and fault plan — and certified by the independent
//!   checker on top.

use ecl_cc::EclConfig;
use ecl_gpu_sim::{DeviceProfile, ExecMode, FaultPlan, Gpu, SchedMode};
use ecl_graph::{generate, CsrGraph};

/// One golden per-kernel row:
/// (cycles, instructions, l1 hits, l2 reads, l2 writes, dram, atomics, warps).
type KernelRow = (u64, u64, u64, u64, u64, u64, u64, u64);

/// One golden serial run.
struct Golden {
    total_cycles: u64,
    l2_reads: u64,
    l2_writes: u64,
    components: usize,
    kernels: [KernelRow; 5],
}

fn check_golden(g: &CsrGraph, profile: DeviceProfile, fault: FaultPlan, want: &Golden) {
    // Every golden must hold with recording off AND on: the observability
    // recorder is observation-only, so attaching an enabled recorder must
    // not move a single cycle, cache access, or fault-RNG draw.
    for recorder in [None, Some(ecl_obs::Recorder::new())] {
        let tag = if recorder.is_some() {
            "recording"
        } else {
            "plain"
        };
        let mut gpu = Gpu::new(profile.clone());
        gpu.set_fault_plan(fault);
        gpu.set_recorder(recorder);
        let (r, s) = ecl_cc::gpu::run(&mut gpu, g, &EclConfig::default());
        assert_eq!(s.total_cycles(), want.total_cycles, "{tag}: total_cycles");
        assert_eq!(s.l2_reads(), want.l2_reads, "{tag}: l2_reads");
        assert_eq!(s.l2_writes(), want.l2_writes, "{tag}: l2_writes");
        assert_eq!(r.num_components(), want.components, "{tag}: components");
        assert_eq!(s.kernels.len(), want.kernels.len());
        for (k, w) in s.kernels.iter().zip(&want.kernels) {
            let got = (
                k.cycles,
                k.instructions,
                k.l1_hit_transactions,
                k.l2_read_accesses,
                k.l2_write_accesses,
                k.dram_transactions,
                k.atomics,
                k.warps,
            );
            assert_eq!(got, *w, "{tag}: kernel {}", k.name);
        }
    }
}

#[test]
fn serial_cycles_pinned_gnm_titan() {
    check_golden(
        &generate::gnm_random(2000, 6000, 42),
        DeviceProfile::titan_x(),
        FaultPlan::none(),
        &Golden {
            total_cycles: 58350,
            l2_reads: 3260,
            l2_writes: 343,
            components: 5,
            kernels: [
                (24996, 1152, 1634, 1950, 0, 1933, 0, 64),
                (20938, 5740, 18818, 1310, 343, 68, 343, 64),
                (4000, 0, 0, 0, 0, 0, 0, 64),
                (4000, 0, 0, 0, 0, 0, 0, 0),
                (4416, 546, 717, 0, 0, 0, 0, 64),
            ],
        },
    );
}

#[test]
fn serial_cycles_pinned_star_tiny() {
    check_golden(
        &generate::star(1000),
        DeviceProfile::test_tiny(),
        FaultPlan::none(),
        &Golden {
            total_cycles: 56270,
            l2_reads: 1370,
            l2_writes: 268,
            components: 1,
            kernels: [
                (28662, 3218, 1006, 588, 145, 505, 0, 16),
                (14920, 354, 184, 476, 14, 375, 1, 16),
                (100, 0, 0, 0, 0, 0, 0, 16),
                (9512, 101, 2, 159, 0, 127, 0, 2),
                (3076, 256, 198, 147, 109, 37, 0, 16),
            ],
        },
    );
}

#[test]
fn serial_cycles_pinned_rmat_k40() {
    check_golden(
        &generate::rmat(10, 8, generate::RmatParams::GALOIS, 7),
        DeviceProfile::k40(),
        FaultPlan::none(),
        &Golden {
            total_cycles: 102483,
            l2_reads: 3391,
            l2_writes: 353,
            components: 6,
            kernels: [
                (31107, 491, 319, 1197, 0, 1188, 0, 32),
                (31495, 3510, 10648, 785, 353, 236, 353, 32),
                (31384, 4009, 5091, 1409, 0, 770, 0, 32),
                (4000, 0, 0, 0, 0, 0, 0, 0),
                (4497, 259, 354, 0, 0, 0, 0, 32),
            ],
        },
    );
}

/// Fault injection exercises the RNG draw order, warp shuffling, and
/// spurious-CAS paths — the parts of the refactor most likely to disturb
/// serial reproducibility. The totals and the SM load-balance metric are
/// pinned from the pre-refactor implementation.
#[test]
fn serial_fault_run_pinned() {
    let g = generate::gnm_random(2000, 6000, 42);
    // The fault-RNG draw sequence is the part of the timing record most
    // easily perturbed by a stray observation, so this golden also runs
    // with an enabled recorder attached.
    for recorder in [None, Some(ecl_obs::Recorder::new())] {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        gpu.set_fault_plan(FaultPlan::everything(0xfa11));
        gpu.set_recorder(recorder);
        let (r, s) = ecl_cc::gpu::run(&mut gpu, &g, &EclConfig::default());
        assert_eq!(s.total_cycles(), 158142);
        assert_eq!(s.l2_reads(), 3293);
        assert_eq!(s.l2_writes(), 376);
        assert_eq!(r.num_components(), 5);
        let cycles: Vec<u64> = s.kernels.iter().map(|k| k.cycles).collect();
        assert_eq!(cycles, [44418, 98932, 4000, 4000, 6792]);
        assert_eq!(s.kernels[1].atomics, 376);
        assert!((gpu.sm_balance() - 0.262795).abs() < 1e-6);
    }
}

/// The certified-equivalence contract: across worker counts and fault
/// plans, host-parallel labels are byte-identical to serial labels, and
/// both certify. (A property test in spirit: the worker counts cover
/// degenerate (1), divisor, non-divisor, and oversubscribed (8 > SMs)
/// schedules; the fault plans cover none, CAS-heavy, and everything.)
#[test]
fn parallel_labels_byte_identical_to_serial() {
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("gnm", generate::gnm_random(1500, 4000, 11)),
        ("star", generate::star(900)),
        ("cliques", generate::disjoint_cliques(5, 50)),
        (
            "rmat",
            generate::rmat(9, 7, generate::RmatParams::GALOIS, 3),
        ),
    ];
    let plans = [
        ("none", FaultPlan::none()),
        ("cas-storm", FaultPlan::cas_storm(0xc0de)),
        ("everything", FaultPlan::everything(0xfa11)),
    ];
    for (gname, g) in &graphs {
        for (pname, plan) in &plans {
            let mut serial_gpu = Gpu::new(DeviceProfile::test_tiny());
            serial_gpu.set_fault_plan(*plan);
            let (serial, _) = ecl_cc::gpu::run(&mut serial_gpu, g, &EclConfig::default());
            let cert = ecl_verify::certify(g, &serial.labels)
                .unwrap_or_else(|e| panic!("{gname}/{pname}: serial labels: {e}"));

            for workers in [1usize, 2, 3, 8] {
                let mut gpu = Gpu::new(DeviceProfile::test_tiny());
                gpu.set_fault_plan(*plan);
                gpu.set_exec_mode(ExecMode::HostParallel(workers));
                let (par, _) = ecl_cc::gpu::run(&mut gpu, g, &EclConfig::default());
                assert_eq!(
                    par.labels, serial.labels,
                    "{gname}/{pname}/workers={workers}: labels diverged"
                );
                let par_cert = ecl_verify::certify(g, &par.labels)
                    .unwrap_or_else(|e| panic!("{gname}/{pname}/{workers}: {e}"));
                assert_eq!(par_cert.num_components, cert.num_components);
            }
        }
    }
}

/// The scheduler half of the equivalence contract: for every sched mode
/// (static SM homes and the shared dispenser), worker count, and fault
/// plan, host-parallel ECL-CC labels are byte-identical to serial
/// labels. The host-thread override forces real pool threads (with real
/// interleavings) even on a single-core CI host, so the pool path is
/// genuinely exercised, not collapsed to one inline thread.
#[test]
fn steal_and_static_sched_labels_byte_identical_to_serial() {
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("gnm", generate::gnm_random(1500, 4000, 11)),
        ("star", generate::star(900)),
        (
            "rmat",
            generate::rmat(9, 7, generate::RmatParams::GALOIS, 3),
        ),
    ];
    let plans = [
        ("none", FaultPlan::none()),
        ("everything", FaultPlan::everything(0xfa11)),
    ];
    for (gname, g) in &graphs {
        for (pname, plan) in &plans {
            let mut serial_gpu = Gpu::new(DeviceProfile::test_tiny());
            serial_gpu.set_fault_plan(*plan);
            let (serial, _) = ecl_cc::gpu::run(&mut serial_gpu, g, &EclConfig::default());

            for sched in [SchedMode::Static, SchedMode::Steal] {
                for workers in [1usize, 2, 4, 8] {
                    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
                    gpu.set_fault_plan(*plan);
                    gpu.set_exec_mode(ExecMode::HostParallel(workers));
                    gpu.set_sched_mode(sched);
                    gpu.set_host_threads_override(Some(workers));
                    let (par, _) = ecl_cc::gpu::run(&mut gpu, g, &EclConfig::default());
                    assert_eq!(
                        par.labels,
                        serial.labels,
                        "{gname}/{pname}/{}/workers={workers}: labels diverged",
                        sched.describe()
                    );
                    ecl_verify::certify(g, &par.labels).unwrap_or_else(|e| {
                        panic!("{gname}/{pname}/{}/{workers}: {e}", sched.describe())
                    });
                }
            }
        }
    }
}

/// For race-free kernels the *statistics* — not just the labels — are
/// schedule-free: every `CacheStats` field must be byte-identical across
/// sched modes and worker counts, because each SM slot carries its own
/// caches and counters and per-block fault RNG reseeding makes every
/// draw a pure function of (seed, launch, block). Stealing may move a
/// slot to a different OS thread, never to different work.
#[test]
fn steal_mode_cache_stats_byte_identical_across_workers() {
    const N: usize = 4096;
    let run_one = |sched: SchedMode,
                   workers: usize,
                   host: Option<usize>|
     -> (ecl_gpu_sim::CacheStats, ecl_gpu_sim::CacheStats) {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(ExecMode::HostParallel(workers));
        gpu.set_sched_mode(sched);
        gpu.set_host_threads_override(host);
        let src = gpu.alloc_from(&(0..N as u32).collect::<Vec<u32>>());
        let dst = gpu.alloc(N);
        gpu.try_launch_warps_sync("scale", N, move |w| {
            let ids = w.thread_ids();
            let m = w.launch_mask();
            let vals = w.load(src, &ids, m);
            w.store(dst, &ids, &vals.map(|x| x.wrapping_mul(3)), m);
        })
        .expect("clean launch");
        (gpu.l1_stats(), gpu.l2_stats())
    };

    // Reference: single-thread schedule (serial block order).
    let (ref_l1, ref_l2) = run_one(SchedMode::Steal, 4, Some(1));
    for sched in [SchedMode::Static, SchedMode::Steal] {
        for workers in [1usize, 2, 4, 8] {
            let (l1, l2) = run_one(sched, workers, Some(4));
            assert_eq!(
                (l1, l2),
                (ref_l1, ref_l2),
                "{}/workers={workers}: cache stats not schedule-free",
                sched.describe()
            );
        }
    }
}

/// Per-level cache statistics are part of the serial timing record: the
/// L1 and L2 `CacheStats` of the three golden configs are pinned to the
/// values captured from the original implementation. These are the
/// numbers the paper's Table 3 is regenerated from, so a cache refactor
/// that preserves cycle totals but shifts hit/miss classification still
/// fails here.
#[test]
fn serial_cache_stats_pinned_per_level() {
    // (read_accesses, write_accesses, read_hits, write_hits, writebacks)
    type Row = (u64, u64, u64, u64, u64);
    let project = |s: ecl_gpu_sim::CacheStats| -> Row {
        (
            s.read_accesses,
            s.write_accesses,
            s.read_hits,
            s.write_hits,
            s.writebacks,
        )
    };
    let cases: [(&str, CsrGraph, DeviceProfile, Row, Row); 3] = [
        (
            "gnm/titan",
            generate::gnm_random(2000, 6000, 42),
            DeviceProfile::titan_x(),
            (22596, 1490, 19937, 1232, 0),
            (3260, 343, 1259, 343, 0),
        ),
        (
            "star/tiny",
            generate::star(1000),
            DeviceProfile::test_tiny(),
            (2445, 314, 1234, 156, 267),
            (1370, 268, 326, 268, 65),
        ),
        (
            "rmat/k40",
            generate::rmat(10, 8, generate::RmatParams::GALOIS, 7),
            DeviceProfile::k40(),
            (18633, 817, 15775, 637, 0),
            (3391, 353, 1197, 353, 0),
        ),
    ];
    for (name, g, profile, l1_want, l2_want) in cases {
        // Cache goldens, like cycle goldens, must hold with recording on.
        for recorder in [None, Some(ecl_obs::Recorder::new())] {
            let tag = if recorder.is_some() {
                "recording"
            } else {
                "plain"
            };
            let mut gpu = Gpu::new(profile.clone());
            gpu.set_recorder(recorder);
            let _ = ecl_cc::gpu::run(&mut gpu, &g, &EclConfig::default());
            assert_eq!(project(gpu.l1_stats()), l1_want, "{name}/{tag}: L1 stats");
            assert_eq!(project(gpu.l2_stats()), l2_want, "{name}/{tag}: L2 stats");
        }
    }
}

/// Host-parallel cache statistics must be a pure function of the kernel,
/// not of the worker count or the thread schedule, for any kernel whose
/// memory traffic does not race across SMs: each SM's private L1 and L2
/// slice see exactly that SM's fixed work list. The kernel here reads a
/// shared buffer and writes disjoint per-thread cells — data-independent
/// by construction, so this pin holds on any host core count. L1 traffic
/// is also mode-independent (per-SM work lists are identical in serial
/// mode), so parallel L1 stats must equal serial L1 stats exactly.
#[test]
fn parallel_cache_stats_deterministic_across_workers() {
    const N: usize = 4096;
    let run_one = |mode: ExecMode| -> (ecl_gpu_sim::CacheStats, ecl_gpu_sim::CacheStats) {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(mode);
        let src = gpu.alloc_from(&(0..N as u32).collect::<Vec<u32>>());
        let dst = gpu.alloc(N);
        gpu.try_launch_warps_sync("scale", N, move |w| {
            let ids = w.thread_ids();
            let m = w.launch_mask();
            let vals = w.load(src, &ids, m);
            w.store(dst, &ids, &vals.map(|x| x.wrapping_mul(3)), m);
        })
        .expect("clean launch");
        (gpu.l1_stats(), gpu.l2_stats())
    };

    let (serial_l1, _) = run_one(ExecMode::Serial);
    let (ref_l1, ref_l2) = run_one(ExecMode::HostParallel(1));
    assert_eq!(ref_l1, serial_l1, "parallel L1 stats diverged from serial");
    for workers in [2usize, 3, 8] {
        let (l1, l2) = run_one(ExecMode::HostParallel(workers));
        assert_eq!(l1, ref_l1, "workers={workers}: L1 stats not deterministic");
        assert_eq!(l2, ref_l2, "workers={workers}: L2 stats not deterministic");
    }
}

/// Serial stats after a host-parallel run must not depend on how the
/// parallel run's threads happened to interleave: per-SM L1 content is a
/// function of that SM's own (deterministic) work list, and switching
/// modes rebuilds the shared L2 cold. Two devices with identical
/// histories must therefore agree exactly, run after run.
#[test]
fn mode_switch_does_not_perturb_serial_stats() {
    let g = generate::gnm_random(800, 2400, 5);
    let cfg = EclConfig::default();

    let project = |s: &ecl_cc::gpu::GpuRunStats| -> Vec<(u64, u64, u64, u64)> {
        s.kernels
            .iter()
            .map(|k| (k.cycles, k.instructions, k.l2_read_accesses, k.atomics))
            .collect()
    };

    let history = || {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(ExecMode::HostParallel(3));
        let _ = ecl_cc::gpu::run(&mut gpu, &g, &cfg);
        gpu.set_exec_mode(ExecMode::Serial);
        let (r, s) = ecl_cc::gpu::run(&mut gpu, &g, &cfg);
        (r.labels, project(&s))
    };

    let (labels_a, stats_a) = history();
    let (labels_b, stats_b) = history();
    assert_eq!(labels_a, labels_b);
    assert_eq!(stats_a, stats_b);
}

/// The order contract of the host-parallel block dispenser: on one OS
/// thread it runs blocks in exactly the serial order, so every quantity
/// that depends only on that order — instructions, atomics, CAS attempts
/// and failures, per-SM L1 traffic, worklist sizes, labels — equals
/// serial mode's, for any worker count. (L2 stats and cycles differ
/// legitimately: host-parallel mode slices the L2 per SM.) The lattice
/// is the input where hooking order changes union-find path lengths.
#[test]
fn one_thread_host_parallel_reproduces_serial_counts() {
    let cases: [(&str, CsrGraph, DeviceProfile); 4] = [
        (
            "gnm/titan",
            generate::gnm_random(2000, 6000, 42),
            DeviceProfile::titan_x(),
        ),
        (
            "star/tiny",
            generate::star(1000),
            DeviceProfile::test_tiny(),
        ),
        (
            "rmat/k40",
            generate::rmat(10, 8, generate::RmatParams::GALOIS, 7),
            DeviceProfile::k40(),
        ),
        (
            "road/titan",
            generate::road_network(96, 96, 0.9, 0.05, 3),
            DeviceProfile::titan_x(),
        ),
    ];
    type Row = (u64, u64, u64, u64, ecl_gpu_sim::CacheStats);
    let rows = |s: &ecl_cc::gpu::GpuRunStats| -> Vec<Row> {
        s.kernels
            .iter()
            .map(|k| {
                (
                    k.instructions,
                    k.atomics,
                    k.cas_attempts,
                    k.cas_failures,
                    k.l1_cache,
                )
            })
            .collect()
    };
    for (name, g, profile) in &cases {
        let mut serial_gpu = Gpu::new(profile.clone());
        let (serial, s) = ecl_cc::gpu::run(&mut serial_gpu, g, &EclConfig::default());
        for workers in 1..=8 {
            let mut gpu = Gpu::new(profile.clone());
            gpu.set_exec_mode(ExecMode::HostParallel(workers));
            gpu.set_host_threads_override(Some(1));
            let (par, p) = ecl_cc::gpu::run(&mut gpu, g, &EclConfig::default());
            assert_eq!(
                par.labels, serial.labels,
                "{name}/workers={workers}: labels"
            );
            assert_eq!(
                (p.worklist_mid, p.worklist_big),
                (s.worklist_mid, s.worklist_big),
                "{name}/workers={workers}: worklists"
            );
            for ((pk, sk), (prow, srow)) in p
                .kernels
                .iter()
                .zip(&s.kernels)
                .zip(rows(&p).iter().zip(rows(&s)))
            {
                assert_eq!(pk.name, sk.name);
                assert_eq!(*prow, srow, "{name}/workers={workers}: kernel {}", sk.name);
            }
            assert_eq!(gpu.steal_count(), 0, "one thread has no other worker");
        }
    }
}

/// `Static` keeps every unit on its home worker (`sm % workers`), and
/// `Steal` never counts more units off home than it ran.
#[test]
fn static_sched_runs_no_unit_off_its_home_worker() {
    let g = generate::road_network(64, 64, 0.9, 0.05, 5);
    for sched in [SchedMode::Static, SchedMode::Steal] {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        gpu.set_exec_mode(ExecMode::HostParallel(4));
        gpu.set_sched_mode(sched);
        gpu.set_host_threads_override(Some(4));
        let _ = ecl_cc::gpu::run(&mut gpu, &g, &EclConfig::default());
        assert!(gpu.sched_unit_count() > 0);
        if sched == SchedMode::Static {
            assert_eq!(
                gpu.steal_count(),
                0,
                "static ran a unit off its home worker"
            );
        } else {
            assert!(gpu.steal_count() <= gpu.sched_unit_count());
        }
    }
}

/// An abort must stop every worker, including those waiting for an SM
/// whose earlier step is still running: a launch whose first block spins
/// past the watchdog while the others are cheap returns a structured
/// watchdog error instead of hanging, and leaves the device usable.
#[test]
fn skewed_watchdog_abort_with_four_threads_does_not_hang() {
    for sched in [SchedMode::Steal, SchedMode::Static] {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        gpu.set_exec_mode(ExecMode::HostParallel(4));
        gpu.set_sched_mode(sched);
        gpu.set_host_threads_override(Some(4));
        gpu.set_watchdog(Some(50_000));
        let blocks = gpu.profile().num_sms * 6;
        let err = gpu
            .try_launch_blocks_sync("skew", blocks, |b| {
                let spins = if b.block_idx() == 0 { 10_000_000 } else { 10 };
                b.for_each_warp(|w| {
                    for _ in 0..spins {
                        w.alu(1);
                    }
                });
            })
            .unwrap_err();
        assert!(
            matches!(err, ecl_gpu_sim::SimError::Watchdog { .. }),
            "{}: got {err:?}",
            sched.describe()
        );
        gpu.set_watchdog(None);
        gpu.health_probe().unwrap();
    }
}
