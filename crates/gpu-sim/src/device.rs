//! The simulated device: memory + caches + SM cycle accounting + the
//! kernel-launch API.
//!
//! Two execution modes are supported (see [`ExecMode`]): the default
//! serial mode runs every warp on the calling thread in a deterministic
//! order and is the reference for all timing/profiling numbers; the
//! host-parallel mode runs the blocks on real host threads, in serial
//! block order, for wall-clock throughput, trading shared-L2 modelling
//! fidelity for speed while preserving the simulated machine's semantics
//! (real atomics, per-SM L1s, and the modelled L2 capacity statically
//! sliced per SM so workers never contend on a lock or a cache line).

use crate::cache::{Cache, CacheStats};
use crate::error::{SimError, WatchdogAbort};
use crate::fault::{FaultPlan, FaultRng};
use crate::mem::{DevicePtr, GlobalMemory};
use crate::profile::DeviceProfile;
use crate::sched::SchedMode;
use crate::warp::{BlockCtx, SmView, WarpCtx};
use crate::{Lanes, LANES};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};

std::thread_local! {
    /// True while a `try_launch_*` call is on this thread's stack — the
    /// quiet panic hook only swallows simulator aborts raised inside one.
    /// Host-parallel SM workers set it for their own thread, so aborts
    /// raised on a worker are silenced exactly like serial ones.
    static IN_TRY_LAUNCH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

/// Installs (once, process-wide) a panic hook that suppresses the default
/// message/backtrace for panics `try_launch_*` is about to convert into
/// [`SimError`] — watchdog aborts and device OOB faults. All other panics,
/// and these same panics outside a `try_launch_*`, still reach the
/// previous hook unchanged.
fn install_quiet_abort_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let convertible = payload.is::<WatchdogAbort>()
                || payload
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("OOB"))
                || payload
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("OOB"));
            if !(convertible && IN_TRY_LAUNCH.with(|c| c.get())) {
                prev(info);
            }
        }));
    });
}

/// RAII guard for the thread-local launch flag: restores the previous
/// value even if the launch panics with a non-convertible payload.
struct TryLaunchScope {
    was: bool,
}

impl TryLaunchScope {
    fn enter() -> Self {
        install_quiet_abort_hook();
        let was = IN_TRY_LAUNCH.with(|c| c.replace(true));
        TryLaunchScope { was }
    }
}

impl Drop for TryLaunchScope {
    fn drop(&mut self) {
        IN_TRY_LAUNCH.with(|c| c.set(self.was));
    }
}

/// How kernel launches execute on the host.
///
/// * `Serial` (the default) runs every warp on the calling thread in a
///   fixed order. Cycles, cache stats, fault injection, and watchdog
///   behaviour are bit-for-bit reproducible — all timing experiments use
///   this mode.
/// * `HostParallel(workers)` runs the launch's blocks on real host
///   threads (`workers` of them; `0` = one per available core), handed
///   out in serial block order, each against its own SM's state. Final
///   memory contents for order-independent algorithms (ECL-CC's min-wins
///   hooking) are byte-identical to serial mode. The modelled L2 is
///   statically sliced per SM, so cycle counts and cache stats do not
///   depend on the worker count or thread interleaving *unless* the
///   kernel's memory traffic itself races across SMs (CAS retry loops do);
///   they still differ from serial mode's shared-L2 numbers, so serial
///   remains the timing record. Use host-parallel for throughput:
///   `components`, `verify`, batch jobs, and large harness sweeps, where
///   every run is certified by `ecl-verify`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Deterministic single-threaded execution (reference timing mode).
    #[default]
    Serial,
    /// Multi-threaded SM execution with the given worker count
    /// (0 = available parallelism).
    HostParallel(usize),
}

impl ExecMode {
    /// Parses a CLI spec: `serial`, `parallel`, or `parallel:N`.
    pub fn parse(spec: &str) -> Result<ExecMode, String> {
        match spec.trim() {
            "serial" => Ok(ExecMode::Serial),
            "parallel" => Ok(ExecMode::HostParallel(0)),
            other => match other.strip_prefix("parallel:") {
                Some(n) => n
                    .parse::<usize>()
                    .map(ExecMode::HostParallel)
                    .map_err(|e| format!("bad worker count '{n}': {e}")),
                None => Err(format!(
                    "unknown exec mode '{other}' (expected serial, parallel, or parallel:N)"
                )),
            },
        }
    }

    /// The concrete worker count this mode runs with (1 for serial,
    /// the machine's available parallelism for `HostParallel(0)`).
    pub fn resolved_workers(&self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::HostParallel(0) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            ExecMode::HostParallel(n) => *n,
        }
    }

    /// Stable spec string (the inverse of [`ExecMode::parse`]), stamped
    /// into bench records and trace metadata.
    pub fn describe(&self) -> String {
        match self {
            ExecMode::Serial => "serial".to_string(),
            ExecMode::HostParallel(0) => "parallel".to_string(),
            ExecMode::HostParallel(n) => format!("parallel:{n}"),
        }
    }
}

/// Counters gathered for one kernel launch.
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// Kernel name as passed to the launch call.
    pub name: String,
    /// Simulated execution time: max over SMs of the cycles this launch
    /// added, plus the fixed launch overhead.
    pub cycles: u64,
    /// Warp instructions issued (ALU + one per memory operation).
    pub instructions: u64,
    /// Memory transactions that hit in L1.
    pub l1_hit_transactions: u64,
    /// Read accesses presented to the L2 (L1 read misses, write-allocate
    /// fills, and atomic reads).
    pub l2_read_accesses: u64,
    /// Write accesses presented to the L2 (L1 dirty write-backs and atomic
    /// writes).
    pub l2_write_accesses: u64,
    /// Transactions served by DRAM (L2 misses).
    pub dram_transactions: u64,
    /// Atomic operations executed.
    pub atomics: u64,
    /// Number of warps executed.
    pub warps: u64,
    /// Cycles spent in ALU instructions (including shuffles/reductions).
    pub alu_cycles: u64,
    /// Cycles spent on transactions served by the L1.
    pub l1_cycles: u64,
    /// Cycles spent on transactions served by the L2.
    pub l2_cycles: u64,
    /// Cycles spent on transactions served by DRAM.
    pub dram_cycles: u64,
    /// Cycles spent serialized on atomic operations.
    pub atomic_cycles: u64,
    /// Extra cycles injected by a memory-delay fault plan.
    pub stall_cycles: u64,
    /// Lane-level `atomicCAS` operations issued.
    pub cas_attempts: u64,
    /// CAS operations that observed a value other than their comparand —
    /// the contention signal (includes injected spurious failures).
    pub cas_failures: u64,
    /// Warp memory/atomic instructions carrying an active-lane mask.
    pub mask_ops: u64,
    /// Sum of active lanes over those instructions (occupancy numerator).
    pub active_lanes: u64,
    /// Masked instructions where all 32 lanes were active (no divergence).
    pub full_mask_ops: u64,
    /// Cycles each SM added during this launch (index = SM id).
    pub sm_cycle_deltas: Vec<u64>,
    /// L1 counters accrued by this launch (summed over SMs).
    pub l1_cache: CacheStats,
    /// L2 counters accrued by this launch.
    pub l2_cache: CacheStats,
}

impl KernelStats {
    /// Simulated time in pseudo-milliseconds on `profile`.
    pub fn ms(&self, profile: &DeviceProfile) -> f64 {
        profile.cycles_to_ms(self.cycles)
    }

    /// Mean active lanes per masked warp instruction, in [0, 32]
    /// (32.0 when nothing was masked — fully converged).
    pub fn warp_occupancy(&self) -> f64 {
        if self.mask_ops == 0 {
            crate::LANES as f64
        } else {
            self.active_lanes as f64 / self.mask_ops as f64
        }
    }

    /// Fraction of masked instructions issued with a partial mask.
    pub fn divergence_ratio(&self) -> f64 {
        if self.mask_ops == 0 {
            0.0
        } else {
            1.0 - self.full_mask_ops as f64 / self.mask_ops as f64
        }
    }

    /// Fraction of CAS operations that observed contention.
    pub fn cas_failure_ratio(&self) -> f64 {
        if self.cas_attempts == 0 {
            0.0
        } else {
            self.cas_failures as f64 / self.cas_attempts as f64
        }
    }

    /// Serializes through the workspace's shared JSON writer — the one
    /// serialization path for kernel statistics (bench `--json`, metrics
    /// export, the profile artifacts).
    pub fn to_json(&self) -> String {
        ecl_obs::json::Obj::new()
            .str("name", &self.name)
            .u64("cycles", self.cycles)
            .u64("instructions", self.instructions)
            .u64("warps", self.warps)
            .u64("l1_hit_transactions", self.l1_hit_transactions)
            .u64("l2_read_accesses", self.l2_read_accesses)
            .u64("l2_write_accesses", self.l2_write_accesses)
            .u64("dram_transactions", self.dram_transactions)
            .u64("atomics", self.atomics)
            .u64("alu_cycles", self.alu_cycles)
            .u64("l1_cycles", self.l1_cycles)
            .u64("l2_cycles", self.l2_cycles)
            .u64("dram_cycles", self.dram_cycles)
            .u64("atomic_cycles", self.atomic_cycles)
            .u64("stall_cycles", self.stall_cycles)
            .u64("cas_attempts", self.cas_attempts)
            .u64("cas_failures", self.cas_failures)
            .f64("warp_occupancy", self.warp_occupancy())
            .f64("divergence_ratio", self.divergence_ratio())
            .raw("l1_cache", &self.l1_cache.to_json())
            .raw("l2_cache", &self.l2_cache.to_json())
            .build()
    }
}

/// The L2 representation tracks the execution mode: serial keeps the
/// monolithic cache (bit-exact stats by construction); host-parallel
/// statically slices the modelled capacity into one private cache per SM,
/// so SM workers touch disjoint state and need no locking. Per-SM slicing
/// also makes parallel-mode stats deterministic for any kernel whose
/// memory behaviour does not depend on cross-SM data races: each SM's
/// slice sees exactly its own SM's (fixed) work list.
enum L2Store {
    Excl(Cache),
    PerSm(Vec<Cache>),
}

/// The simulated GPU. See the crate docs for the model.
pub struct Gpu {
    pub(crate) profile: DeviceProfile,
    pub(crate) mem: GlobalMemory,
    pub(crate) l1: Vec<Cache>,
    l2: L2Store,
    pub(crate) sm_cycles: Vec<u64>,
    pub(crate) cur: LaunchCounters,
    kernels: Vec<KernelStats>,
    pub(crate) fault: FaultPlan,
    pub(crate) fault_rng: FaultRng,
    pub(crate) watchdog: Option<u64>,
    pub(crate) launch_start_sm: Vec<u64>,
    launch_index: u64,
    exec: ExecMode,
    /// How host-parallel launches distribute SM slots over workers.
    sched: SchedMode,
    /// Test/tuning override for the detected host parallelism; `None`
    /// (default) uses `std::thread::available_parallelism`.
    host_threads_override: Option<usize>,
    /// Persistent worker threads for host-parallel launches: spawned on
    /// first use, parked on a channel between launches, reused across
    /// kernels, joined when the device drops.
    pool: WorkerPool,
    /// Cumulative work units (one block's worth of an SM's items)
    /// scheduled by host-parallel launches since the last profiling reset.
    sched_units: u64,
    /// Cumulative units run off their home worker since the last
    /// profiling reset.
    steals: u64,
    /// Per-launch scratch for the warp/block execution order, reused
    /// across launches to avoid a fresh allocation per kernel.
    warp_order: Vec<usize>,
    /// Per-SM item-list scratch for host-parallel launches, reused across
    /// launches so the inner `Vec` capacities survive.
    parallel_items: Vec<Vec<usize>>,
    /// Optional observability recorder; spans are emitted at launch end
    /// (never from the hot path) and only when the recorder is enabled.
    recorder: Option<ecl_obs::Recorder>,
    /// Optional request trace context; when set, kernel spans carry
    /// trace/span/parent args hanging off this context (span ids are
    /// derived per launch, so tagging never touches shared state).
    trace_ctx: Option<ecl_obs::TraceCtx>,
    /// Cumulative kernel cycles, the `ts` base of the simulated timeline.
    timeline_cycles: u64,
}

/// A job dispatched to a pool worker: runs once, captures its launch
/// state in an `Arc`, and drops it before the done signal is sent.
type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// One persistent pool thread: a dedicated job channel plus its handle.
struct PoolWorker {
    tx: Option<mpsc::Sender<PoolJob>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// The persistent host-parallel worker pool. Threads are spawned lazily
/// (first launch that needs them), block on their job channel between
/// launches, and are joined on drop — so a run with many kernel launches
/// pays thread-spawn cost once, not per launch, and serial-only devices
/// never spawn anything.
struct WorkerPool {
    workers: Vec<PoolWorker>,
    done_tx: mpsc::Sender<()>,
    done_rx: mpsc::Receiver<()>,
}

impl WorkerPool {
    fn new() -> WorkerPool {
        let (done_tx, done_rx) = mpsc::channel();
        WorkerPool {
            workers: Vec::new(),
            done_tx,
            done_rx,
        }
    }

    /// Number of live pool threads (spawned so far).
    #[cfg(test)]
    fn size(&self) -> usize {
        self.workers.len()
    }

    /// Grows the pool to at least `n` threads.
    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            let (tx, rx) = mpsc::channel::<PoolJob>();
            let done = self.done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("gpu-sim-{}", self.workers.len()))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // The job consumes itself (and with it every Arc
                        // it captured) before the done signal, so the
                        // launch can reclaim sole ownership of its state
                        // as soon as the last done arrives.
                        job();
                        if done.send(()).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn gpu-sim pool worker");
            self.workers.push(PoolWorker {
                tx: Some(tx),
                handle: Some(handle),
            });
        }
    }

    /// Sends one job per worker (growing the pool as needed) without
    /// waiting — the caller runs its own share inline, then calls
    /// [`WorkerPool::wait`].
    fn dispatch(&mut self, jobs: Vec<PoolJob>) {
        self.ensure(jobs.len());
        for (worker, job) in self.workers.iter().zip(jobs) {
            worker
                .tx
                .as_ref()
                .expect("pool worker channel open")
                .send(job)
                .expect("pool worker alive");
        }
    }

    /// Blocks until `n` previously dispatched jobs have finished.
    fn wait(&self, n: usize) {
        for _ in 0..n {
            self.done_rx.recv().expect("pool worker done signal");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels unblocks the workers' `recv` loops;
        // join so no detached thread outlives the device.
        for w in &mut self.workers {
            w.tx.take();
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Counters accumulated while a launch is in flight. All fields are pure
/// bookkeeping: they never influence cycle charges, cache behaviour, or
/// fault-RNG draws, so recording them cannot perturb the golden-pinned
/// serial timing record.
#[derive(Clone, Debug, Default)]
pub(crate) struct LaunchCounters {
    pub instructions: u64,
    pub l1_hits: u64,
    pub dram: u64,
    pub atomics: u64,
    pub warps: u64,
    pub alu_cycles: u64,
    pub l1_cycles: u64,
    pub l2_cycles: u64,
    pub dram_cycles: u64,
    pub atomic_cycles: u64,
    pub stall_cycles: u64,
    pub cas_attempts: u64,
    pub cas_failures: u64,
    pub mask_ops: u64,
    pub active_lanes: u64,
    pub full_mask_ops: u64,
}

impl LaunchCounters {
    /// Adds a detached SM's counters back into the launch total.
    fn merge(&mut self, other: &LaunchCounters) {
        self.instructions += other.instructions;
        self.l1_hits += other.l1_hits;
        self.dram += other.dram;
        self.atomics += other.atomics;
        self.warps += other.warps;
        self.alu_cycles += other.alu_cycles;
        self.l1_cycles += other.l1_cycles;
        self.l2_cycles += other.l2_cycles;
        self.dram_cycles += other.dram_cycles;
        self.atomic_cycles += other.atomic_cycles;
        self.stall_cycles += other.stall_cycles;
        self.cas_attempts += other.cas_attempts;
        self.cas_failures += other.cas_failures;
        self.mask_ops += other.mask_ops;
        self.active_lanes += other.active_lanes;
        self.full_mask_ops += other.full_mask_ops;
    }
}

/// One simulated SM's exclusive state, detached from the [`Gpu`] for the
/// duration of a host-parallel launch. It lives in its own lock for the
/// whole launch: a worker holds that lock while it runs one step of the
/// SM's item list.
struct SmSlot {
    sm: usize,
    l1: Cache,
    l2: Cache,
    cycles: u64,
    start: u64,
    counters: LaunchCounters,
    rng: FaultRng,
    items: Vec<usize>,
    /// The next step (one block's worth of `items`) to run.
    next: usize,
}

/// Everything one host-parallel launch shares with the pool workers.
/// Wrapped in an `Arc` per launch; each worker's job captures a clone and
/// drops it before signalling done, so [`Gpu::launch_parallel`] reclaims
/// sole ownership (slots, memory) as soon as the last done arrives.
struct ParallelLaunch<R> {
    mem: Arc<GlobalMemory>,
    profile: DeviceProfile,
    fault: FaultPlan,
    watchdog: Option<u64>,
    launch: u64,
    sched: SchedMode,
    /// OS threads running the launch. Worker `w` is the home worker of
    /// the SMs `s` with `s % workers == w`.
    workers: usize,
    /// Items per unit: one block's worth of a slot's item list.
    step: usize,
    /// Units in serial order: unit `u` is step `u / num_sms` of SM
    /// `u % num_sms`, which is block `u` of an unshuffled launch.
    units: usize,
    /// Next unit to hand out under [`SchedMode::Steal`]. `Relaxed` is
    /// enough: the cursor publishes no data, and a slot's state passes
    /// between workers through the slot's lock.
    cursor: AtomicUsize,
    /// Steps per SM, fixed for the launch, readable without the slot lock.
    steps: Vec<usize>,
    /// One cell per SM, in SM order.
    slots: Vec<Mutex<SmSlot>>,
    run_item: R,
    abort: AtomicBool,
    /// First abort payload (watchdog / OOB / kernel bug) wins.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Units run by a worker other than their SM's home worker.
    steals: AtomicU64,
}

impl<R> ParallelLaunch<R>
where
    R: Fn(&mut SmView<'_>, usize) + Send + Sync + 'static,
{
    /// Worker entry point: runs units under the launch guard, catching
    /// aborts so the first payload is preserved for classification and
    /// the other workers stop at their next item boundary.
    fn run_worker(&self, w: usize) {
        let _scope = TryLaunchScope::enter();
        if let Err(payload) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.work_loop(w)))
        {
            self.abort.store(true, Ordering::Relaxed);
            if let Ok(mut first) = self.panic.lock() {
                if first.is_none() {
                    *first = Some(payload);
                }
            }
        }
    }

    /// Takes units in serial order until none are left: under
    /// [`SchedMode::Steal`] the next unit off the shared cursor, under
    /// [`SchedMode::Static`] the next unit of one of this worker's home
    /// SMs. Units past the end of their SM's item list are skipped.
    fn work_loop(&self, w: usize) {
        let num_sms = self.slots.len();
        let mut own = 0;
        loop {
            if self.abort.load(Ordering::Relaxed) {
                return;
            }
            let u = match self.sched {
                SchedMode::Steal => self.cursor.fetch_add(1, Ordering::Relaxed),
                SchedMode::Static => {
                    own += 1;
                    own - 1
                }
            };
            if u >= self.units {
                return;
            }
            let (k, sm) = (u / num_sms, u % num_sms);
            let home = sm % self.workers == w;
            if k >= self.steps[sm] || (self.sched == SchedMode::Static && !home) {
                continue;
            }
            if !home {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            self.run_step(sm);
        }
    }

    /// Runs the next step of one SM against that SM's own caches,
    /// counters, and RNG. A worker that claimed a later step while an
    /// earlier one still runs blocks on the lock rather than spinning;
    /// whoever holds the lock runs the slot's *next* step, so an SM's
    /// steps run in order and one at a time. A panic poisons the lock but
    /// leaves the slot in its cell, so the launch always merges a whole
    /// device afterwards. Recovering the guard from a poisoned lock is
    /// sound: the simulator's own panics (the watchdog check, the memory
    /// bounds check) never interrupt a cache update, and an aborted
    /// launch's counters are discarded anyway.
    fn run_step(&self, sm: usize) {
        let mut guard = self.slots[sm]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let slot = &mut *guard;
        let lo = slot.next * self.step;
        slot.next += 1;
        let items = &slot.items[lo..(lo + self.step).min(slot.items.len())];
        let mut view = SmView {
            mem: &self.mem,
            l2: &mut slot.l2,
            l1: &mut slot.l1,
            cycles: &mut slot.cycles,
            launch_start: slot.start,
            watchdog: self.watchdog,
            counters: &mut slot.counters,
            fault: self.fault,
            rng: &mut slot.rng,
            profile: &self.profile,
            sm: slot.sm,
        };
        for &item in items {
            if self.abort.load(Ordering::Relaxed) {
                return;
            }
            // Reseed per item: every injection draw is a pure function
            // of (seed, launch, item), whichever worker runs it.
            *view.rng = FaultRng::for_block(self.fault.seed, self.launch, item);
            (self.run_item)(&mut view, item);
        }
    }
}

impl Gpu {
    /// A device with the given profile and empty memory.
    pub fn new(profile: DeviceProfile) -> Self {
        let l1 = (0..profile.num_sms)
            .map(|_| {
                Cache::new(
                    profile.l1_bytes,
                    profile.l1_ways,
                    profile.line_bytes,
                    profile.sector_bytes,
                )
            })
            .collect();
        let l2 = L2Store::Excl(Cache::new(
            profile.l2_bytes,
            profile.l2_ways,
            profile.line_bytes,
            profile.sector_bytes,
        ));
        let sm_cycles = vec![0; profile.num_sms];
        let launch_start_sm = sm_cycles.clone();
        Gpu {
            profile,
            mem: GlobalMemory::new(),
            l1,
            l2,
            sm_cycles,
            cur: LaunchCounters::default(),
            kernels: Vec::new(),
            fault: FaultPlan::none(),
            fault_rng: FaultRng::new(0, 0),
            watchdog: None,
            launch_start_sm,
            launch_index: 0,
            exec: ExecMode::Serial,
            sched: SchedMode::default(),
            host_threads_override: None,
            pool: WorkerPool::new(),
            sched_units: 0,
            steals: 0,
            warp_order: Vec::new(),
            parallel_items: Vec::new(),
            recorder: None,
            trace_ctx: None,
            timeline_cycles: 0,
        }
    }

    /// Attaches (or with `None` detaches) an observability recorder.
    /// Recording is observation-only: it reads counters the simulator
    /// maintains unconditionally, so cycles, cache stats, and fault-RNG
    /// streams are bit-identical with a recorder attached or not.
    pub fn set_recorder(&mut self, recorder: Option<ecl_obs::Recorder>) {
        self.recorder = recorder;
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&ecl_obs::Recorder> {
        self.recorder.as_ref()
    }

    /// Attaches (or with `None` detaches) a request trace context.
    /// Kernel spans emitted afterwards become children of this context
    /// in the request's span tree. Like the recorder, this is
    /// observation-only metadata: it never affects simulation.
    pub fn set_trace_ctx(&mut self, ctx: Option<ecl_obs::TraceCtx>) {
        self.trace_ctx = ctx;
    }

    /// Current position on the simulated-cycle trace timeline (the sum
    /// of all launched kernels' cycles since the last reset or origin
    /// change). Kernel spans are emitted at this offset.
    pub fn timeline_cycles(&self) -> u64 {
        self.timeline_cycles
    }

    /// Moves the trace timeline origin, so that several runs (possibly
    /// on fresh devices) can share one recorder without their kernel
    /// spans overlapping. Affects only span timestamps, never timing.
    pub fn set_timeline_origin(&mut self, cycles: u64) {
        self.timeline_cycles = cycles;
    }

    /// Takes the per-SM item scratch, cleared and sized to `num_sms`, with
    /// inner capacities preserved from earlier launches.
    fn take_item_scratch(&mut self) -> Vec<Vec<usize>> {
        let mut items = std::mem::take(&mut self.parallel_items);
        items.resize_with(self.profile.num_sms, Vec::new);
        for v in &mut items {
            v.clear();
        }
        items
    }

    /// Selects the execution mode for subsequent `*_sync` launches (the
    /// `FnMut` launch APIs always run serially regardless). Switching
    /// between serial and parallel rebuilds the L2 model cold — cache
    /// *contents* only affect stats, never values, so this is safe at any
    /// point between launches.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec = mode;
        let want_sliced = matches!(mode, ExecMode::HostParallel(_));
        let is_sliced = matches!(self.l2, L2Store::PerSm(_));
        if want_sliced != is_sliced {
            self.l2 = if want_sliced {
                // Slice capacity is rounded down to a power-of-two set
                // count so every slice keeps the shift-mask index path;
                // parallel-mode stats are a distinct record from serial
                // anyway, so the model trades a little modelled capacity
                // for wall-clock speed on the hot path.
                let way_bytes = self.profile.l2_ways * self.profile.line_bytes;
                let raw_sets = ((self.profile.l2_bytes / self.profile.num_sms) / way_bytes).max(1);
                // Largest power of two <= raw_sets.
                let slice_sets = (raw_sets + 1).next_power_of_two() >> 1;
                let per_sm = slice_sets.max(1) * way_bytes;
                L2Store::PerSm(
                    (0..self.profile.num_sms)
                        .map(|_| {
                            Cache::new(
                                per_sm,
                                self.profile.l2_ways,
                                self.profile.line_bytes,
                                self.profile.sector_bytes,
                            )
                        })
                        .collect(),
                )
            } else {
                L2Store::Excl(Cache::new(
                    self.profile.l2_bytes,
                    self.profile.l2_ways,
                    self.profile.line_bytes,
                    self.profile.sector_bytes,
                ))
            };
        }
    }

    /// The active execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec
    }

    /// Selects which workers may take the units of a host-parallel launch
    /// (see [`SchedMode`]; by default any free worker takes the next
    /// unit). Both modes run units in the same serial order, so labels,
    /// per-SM cache stats and fault draws of race-free kernels are
    /// identical; only wall-clock load balance differs. Serial mode
    /// ignores the scheduler entirely.
    pub fn set_sched_mode(&mut self, mode: SchedMode) {
        self.sched = mode;
    }

    /// The active host-parallel scheduler mode.
    pub fn sched_mode(&self) -> SchedMode {
        self.sched
    }

    /// Overrides (or with `None` restores) the detected host parallelism
    /// used to size the worker pool. A test/tuning knob: values above the
    /// physical core count oversubscribe the host (useful to exercise the
    /// real pool path on small CI machines); values below it cap
    /// the threads a launch may occupy. Labels are identical either way;
    /// on one thread a launch runs its blocks in exactly the serial order.
    pub fn set_host_threads_override(&mut self, threads: Option<usize>) {
        self.host_threads_override = threads;
    }

    /// Work units (one block's worth of an SM's warps, or one block)
    /// scheduled by host-parallel launches since construction or the last
    /// [`Self::reset_profiling`].
    pub fn sched_unit_count(&self) -> u64 {
        self.sched_units
    }

    /// Units run by a worker other than their SM's home worker
    /// (`sm % workers`) since construction or the last
    /// [`Self::reset_profiling`]. Always 0 under [`SchedMode::Static`]
    /// and on single-threaded launches; under [`SchedMode::Steal`] about
    /// `(workers - 1) / workers` of all units, since any free worker
    /// takes the next unit.
    pub fn steal_count(&self) -> u64 {
        self.steals
    }

    /// Installs a fault-injection plan applied to every subsequent launch
    /// (see [`FaultPlan`]); [`FaultPlan::none`] restores clean execution.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// The active fault-injection plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Arms (or with `None` disarms) the kernel watchdog: any single
    /// launch whose busiest SM exceeds `budget` cycles is aborted, and the
    /// fallible launch APIs report it as [`SimError::Watchdog`]. The
    /// infallible `launch_*` APIs propagate the abort as a panic.
    ///
    /// After a watchdog abort the in-flight launch's counters are
    /// discarded and device memory may hold a partial kernel's writes;
    /// callers are expected to re-run on a fresh device (what the
    /// fallback ladder in `ecl-cc` does) or re-upload their buffers.
    /// In host-parallel mode each SM worker checks its own budget, so a
    /// livelocked SM aborts the launch without cross-thread coordination.
    pub fn set_watchdog(&mut self, budget: Option<u64>) {
        self.watchdog = budget;
    }

    /// The armed watchdog budget, if any.
    pub fn watchdog(&self) -> Option<u64> {
        self.watchdog
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Allocates a zeroed buffer of `len` words.
    pub fn alloc(&mut self, len: usize) -> DevicePtr {
        self.mem.alloc(len)
    }

    /// Allocates and uploads `data` (untimed, like a pre-kernel memcpy —
    /// the paper excludes transfer time from all measurements, §4).
    pub fn alloc_from(&mut self, data: &[u32]) -> DevicePtr {
        self.mem.alloc_from(data)
    }

    /// Untimed host read-back of a buffer.
    pub fn download(&self, ptr: DevicePtr) -> Vec<u32> {
        self.mem.download(ptr)
    }

    /// Untimed host write of a buffer.
    pub fn upload(&mut self, ptr: DevicePtr, data: &[u32]) {
        self.mem.upload(ptr, data)
    }

    /// A launch size that fills the device for a grid-stride loop over `n`
    /// items: enough blocks for 4 resident blocks per SM, capped at `n`
    /// rounded up to a block.
    pub fn suggested_threads(&self, n: usize) -> usize {
        let tpb = self.profile.threads_per_block;
        let max_threads = self.profile.num_sms * 4 * tpb;
        let needed = n.div_ceil(tpb) * tpb;
        needed.min(max_threads).max(tpb)
    }

    /// The [`SmView`] for one SM in serial execution: disjoint borrows of
    /// the device's per-SM and shared state.
    fn sm_view(&mut self, sm: usize) -> SmView<'_> {
        SmView {
            mem: &self.mem,
            l2: match &mut self.l2 {
                L2Store::Excl(c) => c,
                L2Store::PerSm(v) => &mut v[sm],
            },
            l1: &mut self.l1[sm],
            cycles: &mut self.sm_cycles[sm],
            launch_start: self.launch_start_sm[sm],
            watchdog: self.watchdog,
            counters: &mut self.cur,
            fault: self.fault,
            rng: &mut self.fault_rng,
            profile: &self.profile,
            sm,
        }
    }

    /// Launches a thread-granularity kernel: `total_threads` threads, 32
    /// per warp, blocks assigned round-robin to SMs. The closure runs once
    /// per warp with the warp's context (lane `i`'s global thread ID is
    /// `ctx.thread_ids().get(i)`); lanes beyond `total_threads` are
    /// inactive in [`WarpCtx::launch_mask`]. Always executes serially on
    /// the calling thread — use [`Self::try_launch_warps_sync`] for a
    /// launch that honours [`ExecMode::HostParallel`].
    pub fn launch_warps<F>(&mut self, name: &str, total_threads: usize, mut body: F) -> KernelStats
    where
        F: FnMut(&mut WarpCtx),
    {
        self.begin_launch();
        let before = (self.l1_stats(), self.l2_stats());
        self.cur = LaunchCounters::default();

        let warps_per_block = self.profile.warps_per_block();
        let num_warps = total_threads.div_ceil(LANES);
        // Block→SM placement is fixed at launch; only the *execution order*
        // of warps is perturbed under a scheduler-chaos fault plan (real
        // hardware guarantees nothing about it either).
        let mut order = std::mem::take(&mut self.warp_order);
        order.clear();
        order.extend(0..num_warps);
        if self.fault.shuffle_warps {
            self.fault_rng.shuffle(&mut order);
        }
        for &wid in &order {
            let block = wid / warps_per_block;
            let sm = block % self.profile.num_sms;
            let base = (wid * LANES) as u32;
            let active = crate::Mask::first(total_threads.saturating_sub(wid * LANES).min(LANES));
            let mut ctx = WarpCtx::new(self.sm_view(sm), base, total_threads as u32, active);
            body(&mut ctx);
            self.cur.warps += 1;
        }
        self.warp_order = order;
        self.finish_launch(name, before)
    }

    /// Launches a block-granularity kernel: the closure runs once per
    /// thread block and drives its warps through [`BlockCtx::for_each_warp`].
    /// Always executes serially — see [`Self::try_launch_blocks_sync`].
    pub fn launch_blocks<F>(&mut self, name: &str, num_blocks: usize, mut body: F) -> KernelStats
    where
        F: FnMut(&mut BlockCtx),
    {
        self.begin_launch();
        let before = (self.l1_stats(), self.l2_stats());
        self.cur = LaunchCounters::default();

        let mut order = std::mem::take(&mut self.warp_order);
        order.clear();
        order.extend(0..num_blocks);
        if self.fault.shuffle_warps {
            self.fault_rng.shuffle(&mut order);
        }
        for &b in &order {
            let sm = b % self.profile.num_sms;
            let mut ctx = BlockCtx::new(self.sm_view(sm), b, num_blocks);
            body(&mut ctx);
        }
        self.warp_order = order;
        self.finish_launch(name, before)
    }

    /// Fallible form of [`Self::launch_warps`]: converts watchdog aborts
    /// and out-of-bounds device accesses into a structured [`SimError`]
    /// instead of a panic. Any other panic from the kernel body is
    /// propagated unchanged.
    pub fn try_launch_warps<F>(
        &mut self,
        name: &str,
        total_threads: usize,
        body: F,
    ) -> Result<KernelStats, SimError>
    where
        F: FnMut(&mut WarpCtx),
    {
        let _scope = TryLaunchScope::enter();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.launch_warps(name, total_threads, body)
        }));
        result.map_err(|payload| Self::classify_abort(name, payload))
    }

    /// Fallible form of [`Self::launch_blocks`] (see
    /// [`Self::try_launch_warps`] for the abort contract).
    pub fn try_launch_blocks<F>(
        &mut self,
        name: &str,
        num_blocks: usize,
        body: F,
    ) -> Result<KernelStats, SimError>
    where
        F: FnMut(&mut BlockCtx),
    {
        let _scope = TryLaunchScope::enter();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.launch_blocks(name, num_blocks, body)
        }));
        result.map_err(|payload| Self::classify_abort(name, payload))
    }

    /// Mode-aware thread-granularity launch: executes serially under
    /// [`ExecMode::Serial`] (identical to [`Self::try_launch_warps`]) and
    /// across host threads under [`ExecMode::HostParallel`]. The kernel
    /// body must be `Fn + Send + Sync + 'static` because warps on
    /// different SMs run concurrently on the device's persistent worker
    /// pool in parallel mode (capture device pointers and scalars by
    /// value; share host-side accumulators via `Arc`).
    pub fn try_launch_warps_sync<F>(
        &mut self,
        name: &str,
        total_threads: usize,
        body: F,
    ) -> Result<KernelStats, SimError>
    where
        F: Fn(&mut WarpCtx) + Send + Sync + 'static,
    {
        match self.exec {
            ExecMode::Serial => self.try_launch_warps(name, total_threads, |w| body(w)),
            ExecMode::HostParallel(workers) => {
                let warps_per_block = self.profile.warps_per_block();
                let num_sms = self.profile.num_sms;
                let num_warps = total_threads.div_ceil(LANES);
                let mut items = self.take_item_scratch();
                for wid in 0..num_warps {
                    items[(wid / warps_per_block) % num_sms].push(wid);
                }
                let total = total_threads as u32;
                self.launch_parallel(name, workers, items, warps_per_block, move |view, wid| {
                    let base = (wid * LANES) as u32;
                    let active =
                        crate::Mask::first(total_threads.saturating_sub(wid * LANES).min(LANES));
                    let mut ctx = WarpCtx::new(view.reborrow(), base, total, active);
                    body(&mut ctx);
                    view.counters.warps += 1;
                })
            }
        }
    }

    /// Mode-aware block-granularity launch (see
    /// [`Self::try_launch_warps_sync`]).
    pub fn try_launch_blocks_sync<F>(
        &mut self,
        name: &str,
        num_blocks: usize,
        body: F,
    ) -> Result<KernelStats, SimError>
    where
        F: Fn(&mut BlockCtx) + Send + Sync + 'static,
    {
        match self.exec {
            ExecMode::Serial => self.try_launch_blocks(name, num_blocks, |b| body(b)),
            ExecMode::HostParallel(workers) => {
                let num_sms = self.profile.num_sms;
                let mut items = self.take_item_scratch();
                for b in 0..num_blocks {
                    items[b % num_sms].push(b);
                }
                self.launch_parallel(name, workers, items, 1, move |view, b| {
                    let mut ctx = BlockCtx::new(view.reborrow(), b, num_blocks);
                    body(&mut ctx);
                })
            }
        }
    }

    /// The host-parallel launch engine. Detaches each SM's exclusive state
    /// — its L1, its private L2 slice, its cycle counter, its stat
    /// counters, and its fault-RNG stream — into an [`SmSlot`], then
    /// dispenses *units* to the persistent worker pool in the order the
    /// serial launch runs them: step `k` of SM `s`, `k`-major and
    /// `s`-minor, where one step is `step` items (one block's worth) of
    /// the SM's item list. Under [`SchedMode::Steal`] any free worker
    /// takes the next unit off one shared cursor; under
    /// [`SchedMode::Static`] worker `w` takes, in the same order, only
    /// the units of its home SMs (`s % workers == w`). A unit always runs
    /// against its own SM's L1, L2 slice, counters, and fault-RNG stream,
    /// and an SM's steps run in order and never at once, so per-SM stats
    /// do not depend on the schedule. Fault draws are reseeded per item
    /// ([`FaultRng::for_block`]), so injection is schedule-free too.
    ///
    /// The order matters beyond wall-clock: ECL-CC's union-find paths
    /// grow with the order vertices are hooked in, so running blocks in
    /// serial order keeps the simulated work near serial mode's. On one
    /// OS thread the same loop runs inline on the calling thread, with
    /// no pool, in exactly the serial order.
    ///
    /// All slots are merged back once at kernel end — even when a worker
    /// aborted, so the device stays structurally valid for the caller's
    /// recovery path. The first abort payload is classified into a
    /// [`SimError`] exactly like a serial abort; the other workers stop
    /// at their next item boundary.
    fn launch_parallel<R>(
        &mut self,
        name: &str,
        workers: usize,
        items_per_sm: Vec<Vec<usize>>,
        step: usize,
        run_item: R,
    ) -> Result<KernelStats, SimError>
    where
        R: Fn(&mut SmView<'_>, usize) + Send + Sync + 'static,
    {
        self.begin_launch();
        let before = (self.l1_stats(), self.l2_stats());
        self.cur = LaunchCounters::default();

        let num_sms = self.profile.num_sms;
        let nworkers = match workers {
            0 => ExecMode::HostParallel(0).resolved_workers(),
            n => n,
        }
        .min(num_sms)
        .max(1);
        // Which unit runs on which OS thread is unobservable beyond the
        // interleaving of real atomics on global memory, so never run more
        // OS threads than min(workers, cores): extra threads would only
        // add context-switch cost.
        let host_threads = self
            .host_threads_override
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);
        let os_threads = nworkers.min(host_threads).max(1);

        let l1s = std::mem::take(&mut self.l1);
        let l2s = match &mut self.l2 {
            L2Store::PerSm(v) => std::mem::take(v),
            L2Store::Excl(_) => unreachable!("host-parallel launch requires the per-SM L2"),
        };
        let mut slots = Vec::with_capacity(num_sms);
        let mut steps = Vec::with_capacity(num_sms);
        for (sm, ((l1, l2), mut items)) in l1s.into_iter().zip(l2s).zip(items_per_sm).enumerate() {
            // The per-SM stream is only used for the scheduler-chaos
            // shuffle of the slot's own item order; execution reseeds per
            // item, so draws never depend on the schedule.
            let mut rng = FaultRng::for_sm(self.fault.seed, self.launch_index, sm);
            if self.fault.shuffle_warps {
                rng.shuffle(&mut items);
            }
            steps.push(items.len().div_ceil(step));
            slots.push(Mutex::new(SmSlot {
                sm,
                l1,
                l2,
                cycles: self.sm_cycles[sm],
                start: self.launch_start_sm[sm],
                counters: LaunchCounters::default(),
                rng,
                items,
                next: 0,
            }));
        }
        self.sched_units += steps.iter().sum::<usize>() as u64;

        // Move the slots and global memory into an `Arc` so the 'static
        // pool workers can share them; both are reclaimed right after the
        // last worker signals done (jobs drop their `Arc` before
        // signalling).
        let shared = Arc::new(ParallelLaunch {
            mem: Arc::new(std::mem::take(&mut self.mem)),
            profile: self.profile.clone(),
            fault: self.fault,
            watchdog: self.watchdog,
            launch: self.launch_index,
            sched: self.sched,
            workers: os_threads,
            step,
            units: steps.iter().max().copied().unwrap_or(0) * num_sms,
            cursor: AtomicUsize::new(0),
            steps,
            slots,
            run_item,
            abort: AtomicBool::new(false),
            panic: Mutex::new(None),
            steals: AtomicU64::new(0),
        });
        let jobs: Vec<PoolJob> = (1..os_threads)
            .map(|w| {
                let sh = Arc::clone(&shared);
                Box::new(move || sh.run_worker(w)) as PoolJob
            })
            .collect();
        let pending = jobs.len();
        self.pool.dispatch(jobs);
        // Worker 0 runs inline on the calling thread.
        shared.run_worker(0);
        self.pool.wait(pending);

        let launch = match Arc::try_unwrap(shared) {
            Ok(l) => l,
            Err(_) => unreachable!("pool workers hold no launch refs after done"),
        };
        self.steals += launch.steals.load(Ordering::Relaxed);
        self.mem = match Arc::try_unwrap(launch.mem) {
            Ok(m) => m,
            Err(_) => unreachable!("pool workers hold no memory refs after done"),
        };

        // Slots are in SM order, so the merge is a straight in-order sweep
        // that hands the caches and the item scratch back to `self`.
        let mut l1s = Vec::with_capacity(num_sms);
        let mut l2s = Vec::with_capacity(num_sms);
        let mut item_scratch = std::mem::take(&mut self.parallel_items);
        item_scratch.clear();
        for cell in launch.slots {
            let slot = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
            self.sm_cycles[slot.sm] = slot.cycles;
            self.cur.merge(&slot.counters);
            l1s.push(slot.l1);
            l2s.push(slot.l2);
            item_scratch.push(slot.items);
        }
        self.l1 = l1s;
        self.l2 = L2Store::PerSm(l2s);
        self.parallel_items = item_scratch;
        let first_panic = launch
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = first_panic {
            return Err(Self::classify_abort(name, payload));
        }
        Ok(self.finish_launch(name, before))
    }

    /// Cheap device self-test for circuit-breaker half-open probes.
    ///
    /// Launches one tiny diagnostic kernel under the *currently
    /// installed* fault plan and watchdog budget — the exact machinery
    /// real jobs run under — and verifies its output on the host. Each
    /// thread CAS-publishes a known value into its own cell with the
    /// same retry-loop shape production hook loops use (so spurious-CAS
    /// injection is exercised), and all threads bump a shared
    /// `atomicAdd` counter.
    ///
    /// Returns `Ok(())` when the downloaded results are exactly right;
    /// a structured [`SimError`] when the launch aborted (watchdog trip
    /// or memory fault); and a synthesized [`SimError::MemoryFault`]
    /// when the kernel ran but produced wrong values — a device that
    /// computes incorrectly must not be trusted with real jobs.
    ///
    /// Each probe allocates a small scratch buffer (probes are expected
    /// to be rare: one per breaker half-open transition). Probes always
    /// execute serially, so they work identically in either exec mode.
    pub fn health_probe(&mut self) -> Result<(), SimError> {
        const N: usize = 64;
        let cells = self.alloc(N);
        let counter = self.alloc(1);
        let nu = N as u32;
        self.try_launch_warps("health-probe", N, |w| {
            let v = w.thread_ids();
            let m = w.launch_mask() & v.lt_scalar(nu);
            if m.none() {
                return;
            }
            let want = v.map(|x| 2 * x + 1);
            // CAS-publish with a load-back retry loop: under spurious
            // contention the returned "old" value lies, but the memory
            // state does not — exactly the discipline hook loops need.
            let mut pending = m;
            while pending.any() {
                let _ = w.atomic_cas(cells, &v, &Lanes::splat(0), &want, pending);
                let now = w.load(cells, &v, pending);
                pending &= now.ne_mask(&want);
                w.alu(1);
            }
            let _ = w.atomic_add(counter, &Lanes::splat(0), &Lanes::splat(1), m);
        })?;
        let got_cells = self.download(cells);
        let got_count = self.download(counter)[0];
        for (i, &c) in got_cells.iter().take(N).enumerate() {
            let want = 2 * i as u32 + 1;
            if c != want {
                return Err(SimError::MemoryFault {
                    kernel: "health-probe".to_string(),
                    detail: format!("self-test cell {i}: got {c}, want {want}"),
                });
            }
        }
        if got_count != nu {
            return Err(SimError::MemoryFault {
                kernel: "health-probe".to_string(),
                detail: format!("self-test counter: got {got_count}, want {nu}"),
            });
        }
        Ok(())
    }

    /// Maps a caught launch panic to the error taxonomy: the watchdog's
    /// dedicated payload becomes [`SimError::Watchdog`], bounds-check
    /// failures become [`SimError::MemoryFault`], anything else resumes
    /// unwinding (it is a simulator or kernel bug, not a modelled fault).
    fn classify_abort(name: &str, payload: Box<dyn std::any::Any + Send>) -> SimError {
        let payload = match payload.downcast::<WatchdogAbort>() {
            Ok(w) => {
                return SimError::Watchdog {
                    kernel: name.to_string(),
                    budget: w.budget,
                    spent: w.spent,
                }
            }
            Err(other) => other,
        };
        let detail = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        match detail {
            Some(d) if d.contains("OOB") => SimError::MemoryFault {
                kernel: name.to_string(),
                detail: d,
            },
            _ => std::panic::resume_unwind(payload),
        }
    }

    /// Per-launch prologue: advances the fault-RNG stream and snapshots
    /// SM counters for the watchdog (reusing the snapshot buffer — no
    /// per-launch allocation).
    fn begin_launch(&mut self) {
        self.launch_index += 1;
        self.fault_rng = FaultRng::new(self.fault.seed, self.launch_index);
        self.launch_start_sm.clone_from(&self.sm_cycles);
    }

    /// Aggregate access statistics of the L2 level (summed over slices in
    /// host-parallel mode) since construction or the last
    /// [`Self::reset_profiling`].
    pub fn l2_stats(&self) -> CacheStats {
        match &self.l2 {
            L2Store::Excl(c) => c.stats(),
            L2Store::PerSm(v) => {
                let mut total = CacheStats::default();
                for c in v {
                    total.accumulate(&c.stats());
                }
                total
            }
        }
    }

    /// Aggregate access statistics of all per-SM L1 caches since
    /// construction or the last [`Self::reset_profiling`].
    pub fn l1_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.l1 {
            total.accumulate(&c.stats());
        }
        total
    }

    fn finish_launch(&mut self, name: &str, before: (CacheStats, CacheStats)) -> KernelStats {
        let (l1_before, l2_before) = before;
        let sm_cycle_deltas: Vec<u64> = self
            .sm_cycles
            .iter()
            .zip(&self.launch_start_sm)
            .map(|(now, then)| now - then)
            .collect();
        let max_delta = sm_cycle_deltas.iter().copied().max().unwrap_or(0);
        let l1_now = self.l1_stats();
        let l2_now = self.l2_stats();
        let stats = KernelStats {
            name: name.to_string(),
            cycles: max_delta + self.profile.launch_overhead_cycles,
            instructions: self.cur.instructions,
            l1_hit_transactions: self.cur.l1_hits,
            l2_read_accesses: l2_now.read_accesses - l2_before.read_accesses,
            l2_write_accesses: l2_now.write_accesses - l2_before.write_accesses,
            dram_transactions: self.cur.dram,
            atomics: self.cur.atomics,
            warps: self.cur.warps,
            alu_cycles: self.cur.alu_cycles,
            l1_cycles: self.cur.l1_cycles,
            l2_cycles: self.cur.l2_cycles,
            dram_cycles: self.cur.dram_cycles,
            atomic_cycles: self.cur.atomic_cycles,
            stall_cycles: self.cur.stall_cycles,
            cas_attempts: self.cur.cas_attempts,
            cas_failures: self.cur.cas_failures,
            mask_ops: self.cur.mask_ops,
            active_lanes: self.cur.active_lanes,
            full_mask_ops: self.cur.full_mask_ops,
            sm_cycle_deltas,
            l1_cache: l1_now.delta(&l1_before),
            l2_cache: l2_now.delta(&l2_before),
        };
        self.emit_launch_span(&stats);
        self.timeline_cycles += stats.cycles;
        self.kernels.push(stats.clone());
        stats
    }

    /// Emits the per-launch span tree and metric updates. Runs only at
    /// launch end (the "span close" of the recording contract), buffers
    /// locally, and merges with one lock; a disabled or absent recorder
    /// costs one branch.
    fn emit_launch_span(&self, stats: &KernelStats) {
        let Some(rec) = &self.recorder else { return };
        if !rec.is_enabled() {
            return;
        }
        use ecl_obs::{TraceEvent, PID_SIM};
        let ts = self.timeline_cycles;
        let mut buf = rec.local();
        let mut kernel_span = TraceEvent::span(&stats.name, "kernel", PID_SIM, 0, ts, stats.cycles);
        if let Some(ctx) = &self.trace_ctx {
            // Derive the launch's span id from the launch count so
            // tagging is deterministic and lock-free.
            let launch = ecl_obs::TraceCtx {
                trace_id: ctx.trace_id,
                span_id: ctx.derive(self.kernels.len() as u64),
            };
            kernel_span = ecl_obs::tag_span(kernel_span, &launch, Some(ctx.span_id));
        }
        buf.push(
            kernel_span
                .arg_u64("instructions", stats.instructions)
                .arg_u64("warps", stats.warps)
                .arg_u64("alu_cycles", stats.alu_cycles)
                .arg_u64("l1_cycles", stats.l1_cycles)
                .arg_u64("l2_cycles", stats.l2_cycles)
                .arg_u64("dram_cycles", stats.dram_cycles)
                .arg_u64("atomic_cycles", stats.atomic_cycles)
                .arg_u64("stall_cycles", stats.stall_cycles)
                .arg_u64("cas_attempts", stats.cas_attempts)
                .arg_u64("cas_failures", stats.cas_failures)
                .arg_f64("warp_occupancy", stats.warp_occupancy())
                .arg_f64("divergence_ratio", stats.divergence_ratio())
                .arg_f64("l1_read_hit_ratio", stats.l1_cache.read_hit_ratio())
                .arg_f64("l2_read_hit_ratio", stats.l2_cache.read_hit_ratio())
                .arg_u64("dram_transactions", stats.dram_transactions),
        );
        // One sub-span per SM that did work: the launch's load-balance
        // picture, rendered as per-SM tracks under the kernel row.
        for (sm, &delta) in stats.sm_cycle_deltas.iter().enumerate() {
            if delta > 0 {
                buf.push(TraceEvent::span(
                    &format!("{}@sm{sm}", stats.name),
                    "sm",
                    PID_SIM,
                    sm as u32 + 1,
                    ts,
                    delta,
                ));
            }
        }
        rec.merge(&mut buf);
        rec.add_metric("sim.cycles", stats.cycles as f64);
        rec.add_metric("sim.instructions", stats.instructions as f64);
        rec.add_metric("sim.warps", stats.warps as f64);
        rec.add_metric("sim.atomics", stats.atomics as f64);
        rec.add_metric("sim.dram_transactions", stats.dram_transactions as f64);
        rec.add_metric("sim.cas_attempts", stats.cas_attempts as f64);
        rec.add_metric("sim.cas_failures", stats.cas_failures as f64);
        rec.add_metric("sim.launches", 1.0);
    }

    /// Stats of every kernel launched so far, in launch order.
    pub fn kernel_stats(&self) -> &[KernelStats] {
        &self.kernels
    }

    /// Sum of all kernel cycles (launches are sequential, as in the CUDA
    /// code where each kernel waits for the previous one).
    pub fn total_cycles(&self) -> u64 {
        self.kernels.iter().map(|k| k.cycles).sum()
    }

    /// Total simulated time in pseudo-ms.
    pub fn total_ms(&self) -> f64 {
        self.profile.cycles_to_ms(self.total_cycles())
    }

    /// Per-SM busy-cycle counters since construction (or the last
    /// [`Self::reset_profiling`]). The spread across SMs is the
    /// load-imbalance signal ECL-CC's degree-bucketed kernels exist to
    /// minimize.
    pub fn sm_cycles(&self) -> &[u64] {
        &self.sm_cycles
    }

    /// SM load balance: mean busy cycles divided by the maximum
    /// (1.0 = perfectly balanced; small values = one SM dominated).
    /// Returns 1.0 when nothing has executed.
    pub fn sm_balance(&self) -> f64 {
        let max = self.sm_cycles.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.sm_cycles.iter().sum::<u64>() as f64 / self.sm_cycles.len() as f64;
        mean / max as f64
    }

    /// Clears kernel history and cache contents/counters; memory contents
    /// are preserved (like re-running a program on a device with data
    /// already resident).
    pub fn reset_profiling(&mut self) {
        self.kernels.clear();
        self.timeline_cycles = 0;
        self.sched_units = 0;
        self.steals = 0;
        for c in &mut self.l1 {
            c.flush();
        }
        match &mut self.l2 {
            L2Store::Excl(c) => c.flush(),
            L2Store::PerSm(v) => {
                for c in v {
                    c.flush();
                }
            }
        }
        for c in &mut self.sm_cycles {
            *c = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lanes;

    #[test]
    fn simple_copy_kernel() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let src: Vec<u32> = (0..1000).collect();
        let a = gpu.alloc_from(&src);
        let b = gpu.alloc(1000);
        let total = 1000;
        gpu.launch_warps("copy", total, |w| {
            let tid = w.thread_ids();
            let m = w.launch_mask();
            let v = w.load(a, &tid, m);
            w.store(b, &tid, &v, m);
        });
        assert_eq!(gpu.download(b), src);
        let k = &gpu.kernel_stats()[0];
        assert!(k.cycles > 0);
        assert_eq!(k.warps as usize, total.div_ceil(32));
    }

    #[test]
    fn grid_stride_kernel_covers_all() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let n = 5000u32;
        let buf = gpu.alloc(n as usize);
        let total = gpu.suggested_threads(n as usize);
        gpu.launch_warps("fill", total, |w| {
            let mut idx = w.thread_ids();
            loop {
                let m = w.launch_mask() & idx.lt_scalar(n);
                if m.none() {
                    break;
                }
                w.store(buf, &idx, &idx, m);
                idx = idx.add_scalar(total as u32);
                w.alu(1);
            }
        });
        let out = gpu.download(buf);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn coalesced_cheaper_than_scattered() {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        let n = 32 * 1024;
        let buf = gpu.alloc(n);
        // Coalesced: lane i reads consecutive words.
        let k1 = gpu.launch_warps("coalesced", 1024, |w| {
            let mut idx = w.thread_ids();
            for _ in 0..(n / 1024) {
                let m = w.launch_mask();
                let _ = w.load(buf, &idx, m);
                idx = idx.add_scalar(1024);
            }
        });
        gpu.reset_profiling();
        // Scattered: lane addresses hashed apart so every lane touches its
        // own sector and sectors are rarely revisited (same total
        // lane-loads as the coalesced kernel).
        let k2 = gpu.launch_warps("scattered", 1024, |w| {
            let tid = w.thread_ids();
            let mut iter = 0u32;
            for _ in 0..(n / 1024) {
                let idx = tid.map(|t| {
                    t.wrapping_mul(2654435761)
                        .wrapping_add(iter.wrapping_mul(40503))
                        % n as u32
                });
                let m = w.launch_mask();
                let _ = w.load(buf, &idx, m);
                iter = iter.wrapping_add(1);
            }
        });
        assert!(
            k2.cycles > 2 * k1.cycles,
            "scattered {} vs coalesced {}",
            k2.cycles,
            k1.cycles
        );
    }

    #[test]
    fn atomic_add_counts() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let ctr = gpu.alloc(1);
        let k = gpu.launch_warps("count", 320, |w| {
            let m = w.launch_mask();
            let _ = w.atomic_add(ctr, &Lanes::splat(0), &Lanes::splat(1), m);
        });
        assert_eq!(gpu.download(ctr)[0], 320);
        assert_eq!(k.atomics, 320);
        assert!(k.l2_read_accesses >= 320);
        assert!(k.l2_write_accesses >= 320);
    }

    #[test]
    fn atomic_cas_semantics() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let cell = gpu.alloc_from(&[5]);
        gpu.launch_warps("cas", 32, |w| {
            let m = w.launch_mask();
            let old = w.atomic_cas(
                cell,
                &Lanes::splat(0),
                &Lanes::splat(5),
                &Lanes::splat(9),
                m,
            );
            // Exactly one lane observes 5; the rest observe 9.
            let winners = old.eq_mask(&Lanes::splat(5)) & m;
            assert_eq!(winners.count(), 1);
        });
        assert_eq!(gpu.download(cell)[0], 9);
    }

    #[test]
    fn kernel_time_is_max_over_sms() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        // One block does 1000 ALU cycles, others do nothing → kernel time
        // tracks the busiest SM, not the sum.
        let k = gpu.launch_blocks("imbalanced", 4, |b| {
            if b.block_idx() == 0 {
                b.for_each_warp(|w| w.alu(1000));
            }
        });
        assert!(k.cycles >= 1000 + 100);
        assert!(
            k.cycles < 3000,
            "cycles {} look summed, not maxed",
            k.cycles
        );
    }

    #[test]
    fn sm_balance_reflects_imbalance() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        // Balanced: every block does the same work.
        gpu.launch_blocks("even", 4, |b| b.for_each_warp(|w| w.alu(100)));
        assert!(gpu.sm_balance() > 0.99, "balance {}", gpu.sm_balance());
        gpu.reset_profiling();
        // Imbalanced: only block 0 works.
        gpu.launch_blocks("skew", 4, |b| {
            if b.block_idx() == 0 {
                b.for_each_warp(|w| w.alu(1000));
            }
        });
        assert!(gpu.sm_balance() < 0.6, "balance {}", gpu.sm_balance());
        assert_eq!(gpu.sm_cycles().len(), 2);
    }

    #[test]
    fn launch_history_accumulates() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let b = gpu.alloc(64);
        gpu.launch_warps("a", 64, |w| {
            let m = w.launch_mask();
            let t = w.thread_ids();
            w.store(b, &t, &t, m);
        });
        gpu.launch_warps("b", 64, |w| w.alu(1));
        assert_eq!(gpu.kernel_stats().len(), 2);
        assert_eq!(gpu.kernel_stats()[0].name, "a");
        assert!(gpu.total_cycles() >= gpu.kernel_stats()[1].cycles);
    }

    #[test]
    fn repeated_reads_hit_l1() {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        let buf = gpu.alloc(32);
        let k = gpu.launch_warps("rehit", 32, |w| {
            let tid = w.thread_ids();
            let m = w.launch_mask();
            for _ in 0..10 {
                let _ = w.load(buf, &tid, m);
            }
        });
        assert!(
            k.l1_hit_transactions >= 9 * 4,
            "l1 hits {}",
            k.l1_hit_transactions
        );
        // Only the first pass misses: 4 sectors.
        assert!(k.l2_read_accesses <= 8, "l2 reads {}", k.l2_read_accesses);
    }

    #[test]
    fn exec_mode_parses() {
        assert_eq!(ExecMode::parse("serial").unwrap(), ExecMode::Serial);
        assert_eq!(
            ExecMode::parse("parallel").unwrap(),
            ExecMode::HostParallel(0)
        );
        assert_eq!(
            ExecMode::parse("parallel:4").unwrap(),
            ExecMode::HostParallel(4)
        );
        assert!(ExecMode::parse("bogus").is_err());
        assert!(ExecMode::parse("parallel:x").is_err());
        assert_eq!(ExecMode::Serial.resolved_workers(), 1);
        assert_eq!(ExecMode::HostParallel(3).resolved_workers(), 3);
        assert!(ExecMode::HostParallel(0).resolved_workers() >= 1);
    }

    #[test]
    fn parallel_copy_matches_serial_memory() {
        let src: Vec<u32> = (0..4096).map(|i| i * 3 + 1).collect();
        let run = |mode: ExecMode| {
            let mut gpu = Gpu::new(DeviceProfile::test_tiny());
            gpu.set_exec_mode(mode);
            let a = gpu.alloc_from(&src);
            let b = gpu.alloc(src.len());
            gpu.try_launch_warps_sync("copy", src.len(), move |w| {
                let tid = w.thread_ids();
                let m = w.launch_mask();
                let v = w.load(a, &tid, m);
                w.store(b, &tid, &v, m);
            })
            .unwrap();
            gpu.download(b)
        };
        for workers in [1, 2, 3, 8] {
            assert_eq!(run(ExecMode::HostParallel(workers)), run(ExecMode::Serial));
        }
    }

    #[test]
    fn parallel_atomic_add_is_exact() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(ExecMode::HostParallel(2));
        let ctr = gpu.alloc(1);
        let k = gpu
            .try_launch_warps_sync("count", 4096, move |w| {
                let m = w.launch_mask();
                let _ = w.atomic_add(ctr, &Lanes::splat(0), &Lanes::splat(1), m);
            })
            .unwrap();
        assert_eq!(gpu.download(ctr)[0], 4096, "real atomics never lose adds");
        assert_eq!(k.atomics, 4096);
        assert_eq!(k.warps, 128);
    }

    #[test]
    fn parallel_blocks_run_every_block() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(ExecMode::HostParallel(2));
        let seen = gpu.alloc(16);
        gpu.try_launch_blocks_sync("mark", 16, move |b| {
            let idx = b.block_idx() as u32;
            let v = b.load_uniform(seen, idx);
            assert_eq!(v, 0);
            // One warp writes the block's cell.
            let mut done = false;
            b.for_each_warp(|w| {
                if !done {
                    w.store(
                        seen,
                        &Lanes::splat(idx),
                        &Lanes::splat(idx + 1),
                        crate::Mask(1),
                    );
                    done = true;
                }
            });
        })
        .unwrap();
        let got = gpu.download(seen);
        let want: Vec<u32> = (1..=16).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_watchdog_aborts_structuredly() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(ExecMode::HostParallel(2));
        gpu.set_watchdog(Some(500));
        let err = gpu
            .try_launch_warps_sync("spin", 256, |w| {
                for _ in 0..10_000 {
                    w.alu(1);
                }
            })
            .unwrap_err();
        match err {
            SimError::Watchdog { kernel, budget, .. } => {
                assert_eq!(kernel, "spin");
                assert_eq!(budget, 500);
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
        // The device must remain usable after the abort.
        gpu.set_watchdog(None);
        gpu.health_probe().unwrap();
    }

    #[test]
    fn parallel_oob_is_memory_fault() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(ExecMode::HostParallel(3));
        let buf = gpu.alloc(8);
        let err = gpu
            .try_launch_warps_sync("oob", 256, move |w| {
                let tid = w.thread_ids();
                let _ = w.load(buf, &tid, w.launch_mask());
            })
            .unwrap_err();
        assert!(matches!(err, SimError::MemoryFault { .. }), "got {err:?}");
    }

    #[test]
    fn sync_launch_in_serial_mode_is_bit_identical_to_fnmut() {
        let run = |sync: bool| {
            let mut gpu = Gpu::new(DeviceProfile::titan_x());
            gpu.set_fault_plan(FaultPlan::everything(77));
            let buf = gpu.alloc(1024);
            let k = if sync {
                gpu.try_launch_warps_sync("k", 1024, move |w| {
                    let tid = w.thread_ids();
                    let m = w.launch_mask();
                    let _ = w.atomic_min(buf, &tid, &tid, m);
                })
                .unwrap()
            } else {
                gpu.try_launch_warps("k", 1024, |w| {
                    let tid = w.thread_ids();
                    let m = w.launch_mask();
                    let _ = w.atomic_min(buf, &tid, &tid, m);
                })
                .unwrap()
            };
            (
                k.cycles,
                k.instructions,
                k.l2_read_accesses,
                gpu.download(buf),
            )
        };
        assert_eq!(run(true), run(false));
    }

    /// A kernel whose per-SM work is identical however it is scheduled:
    /// grid-stride scale of `src` into `dst`. Returns (labels-equivalent
    /// memory, per-kernel stats tuple, per-SM cycles) for comparison.
    #[allow(clippy::type_complexity)]
    fn run_scheduled(
        sched: SchedMode,
        workers: usize,
        host_threads: Option<usize>,
        fault: FaultPlan,
    ) -> (Vec<u32>, (u64, u64, u64, u64, u64), Vec<u64>) {
        let src: Vec<u32> = (0..2048u32).map(|i| i.wrapping_mul(7) + 3).collect();
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(ExecMode::HostParallel(workers));
        gpu.set_sched_mode(sched);
        gpu.set_host_threads_override(host_threads);
        gpu.set_fault_plan(fault);
        let a = gpu.alloc_from(&src);
        let b = gpu.alloc(src.len());
        let n = src.len();
        let k = gpu
            .try_launch_warps_sync("scale", n, move |w| {
                let tid = w.thread_ids();
                let m = w.launch_mask();
                let v = w.load(a, &tid, m);
                w.store(b, &tid, &v.map(|x| x.wrapping_mul(3)), m);
            })
            .unwrap();
        (
            gpu.download(b),
            (
                k.cycles,
                k.instructions,
                k.stall_cycles,
                k.l1_cache.read_accesses,
                k.l2_cache.read_accesses,
            ),
            k.sm_cycle_deltas.clone(),
        )
    }

    /// The scheduler determinism contract: memory, cycles, cache stats,
    /// and per-SM deltas are byte-identical across scheduler modes,
    /// worker counts, and the inline/pool split — including under an
    /// active fault plan, thanks to the per-block RNG reseed.
    #[test]
    fn steal_and_static_schedules_are_result_identical() {
        for fault in [FaultPlan::none(), FaultPlan::everything(42)] {
            // Reference: single OS thread (inline, no pool).
            let reference = run_scheduled(SchedMode::Steal, 4, Some(1), fault);
            for sched in [SchedMode::Static, SchedMode::Steal] {
                for workers in [1, 2, 3, 8] {
                    // Force real pool threads even on a 1-core CI host.
                    let got = run_scheduled(sched, workers, Some(4), fault);
                    assert_eq!(
                        got,
                        reference,
                        "sched {sched:?} workers {workers} diverged (fault={})",
                        fault.to_spec()
                    );
                }
            }
        }
    }

    /// Under forced multithreading with an imbalanced launch, the steal
    /// scheduler actually steals — and the static scheduler never does.
    #[test]
    fn steal_counters_reflect_scheduler_mode() {
        let run = |sched: SchedMode| {
            let mut gpu = Gpu::new(DeviceProfile::titan_x());
            gpu.set_exec_mode(ExecMode::HostParallel(8));
            gpu.set_sched_mode(sched);
            gpu.set_host_threads_override(Some(8));
            // Skewed work: low block indices (low SMs) do far more ALU
            // work, so early-finishing workers must steal to help.
            gpu.try_launch_blocks_sync("skew", 24, move |b| {
                let heavy = 24u64.saturating_sub(b.block_idx() as u64 * 8);
                b.for_each_warp(|w| {
                    for _ in 0..heavy * 200 {
                        w.alu(1);
                    }
                });
            })
            .unwrap();
            (gpu.steal_count(), gpu.sched_unit_count())
        };
        let (static_steals, static_units) = run(SchedMode::Static);
        assert_eq!(static_steals, 0, "static mode must never steal");
        assert_eq!(static_units, 24);
        // Steal mode may or may not steal on any given run (it depends on
        // OS timing), but the counters must stay consistent.
        let (steal_steals, steal_units) = run(SchedMode::Steal);
        assert_eq!(steal_units, 24);
        assert!(steal_steals <= steal_units);
    }

    /// The worker pool is persistent: a second launch reuses the threads
    /// spawned by the first instead of spawning fresh ones.
    #[test]
    fn worker_pool_is_reused_across_launches() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(ExecMode::HostParallel(2));
        gpu.set_host_threads_override(Some(2));
        assert_eq!(gpu.pool.size(), 0, "no threads before the first launch");
        let buf = gpu.alloc(256);
        for _ in 0..3 {
            gpu.try_launch_warps_sync("touch", 256, move |w| {
                let tid = w.thread_ids();
                let m = w.launch_mask();
                w.store(buf, &tid, &tid, m);
            })
            .unwrap();
            assert_eq!(gpu.pool.size(), 1, "one pool thread, spawned once");
        }
    }

    /// Abort handling through the pool path: watchdog and OOB still
    /// classify structurally with real worker threads and stealing on.
    #[test]
    fn pooled_steal_launch_classifies_aborts() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_exec_mode(ExecMode::HostParallel(2));
        gpu.set_host_threads_override(Some(2));
        gpu.set_watchdog(Some(500));
        let err = gpu
            .try_launch_warps_sync("spin", 256, |w| {
                for _ in 0..10_000 {
                    w.alu(1);
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Watchdog { .. }), "got {err:?}");
        gpu.set_watchdog(None);
        let buf = gpu.alloc(8);
        let err = gpu
            .try_launch_warps_sync("oob", 256, move |w| {
                let tid = w.thread_ids();
                let _ = w.load(buf, &tid, w.launch_mask());
            })
            .unwrap_err();
        assert!(matches!(err, SimError::MemoryFault { .. }), "got {err:?}");
        // The device must remain usable after both aborts.
        gpu.health_probe().unwrap();
    }

    /// Records, per block, the position at which it ran: each block's
    /// first warp takes a ticket from a shared counter and stores it in
    /// the block's cell.
    fn block_run_order(mode: ExecMode, host_threads: Option<usize>, blocks: usize) -> Vec<u32> {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        gpu.set_exec_mode(mode);
        gpu.set_host_threads_override(host_threads);
        let ticket = gpu.alloc(1);
        let order = gpu.alloc(blocks);
        let tpb = gpu.profile().threads_per_block;
        let wpb = gpu.profile().warps_per_block() as u32;
        gpu.try_launch_warps_sync("order", blocks * tpb, move |w| {
            let wid = w.thread_ids().get(0) / 32;
            if wid % wpb != 0 {
                return;
            }
            let t = w.atomic_add(ticket, &Lanes::splat(0), &Lanes::splat(1), crate::Mask(1));
            w.store(order, &Lanes::splat(wid / wpb), &t, crate::Mask(1));
        })
        .unwrap();
        gpu.download(order)
    }

    /// On one OS thread the dispenser runs blocks in exactly the serial
    /// order, which for an unshuffled launch is block order.
    #[test]
    fn one_thread_runs_blocks_in_serial_order() {
        let blocks = 100;
        let serial = block_run_order(ExecMode::Serial, None, blocks);
        assert_eq!(serial, (0..blocks as u32).collect::<Vec<_>>());
        for workers in [1, 2, 8] {
            assert_eq!(
                block_run_order(ExecMode::HostParallel(workers), Some(1), blocks),
                serial,
                "workers={workers}"
            );
        }
        // With real threads every block still runs exactly once.
        let mut par = block_run_order(ExecMode::HostParallel(4), Some(4), blocks);
        par.sort_unstable();
        assert_eq!(par, serial);
    }
}
