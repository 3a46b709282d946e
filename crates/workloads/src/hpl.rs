//! The HPL (High-Performance Linpack) workload model.
//!
//! HPL factorizes a dense N×N system by blocked right-looking LU: each of
//! the N/NB iterations factorizes an NB-wide panel, broadcasts it, and
//! updates the trailing submatrix (a dgemm of `2·NB·(N−k·NB)²` FLOPs,
//! which dominates). We reproduce that *structure* — per-iteration panel →
//! update → synchronization — as simulated task programs, with two
//! partitioning personalities matching the paper's benchmarks:
//!
//! * **OpenBLAS HPL** (hetero-unaware): the trailing update is split into
//!   *equal static* chunks per thread; threads that finish early **spin**
//!   at the iteration barrier (OpenBLAS's default busy-wait). On a hybrid
//!   machine the E-core chunks straggle each iteration, the P-cores burn
//!   instructions and power spinning, and all-core runs end up *slower*
//!   than P-only (Table II's −18.5 %) while the P-cores retire ≈80 % of
//!   all instructions (Table III).
//! * **Intel (MKL) HPL** (hetero-aware): the update is a *dynamic* chunk
//!   queue — faster cores pull more chunks, waiting is blocking, the
//!   blocking is deeper (better LLC reuse) and more of the instruction
//!   stream runs on E-cores (≈32 %), so all cores contribute (+16.4 %
//!   over P-only).
//!
//! The HPL.dat parameters (N, NB, P, Q) and the β-based N selection of
//! Krpić et al. used in §II.A.2 are modeled in [`HplConfig`].

use parking_lot::Mutex;
use simcpu::phase::Phase;
use simcpu::types::{CpuMask, Nanos};
use simos::kernel::KernelHandle;
use simos::task::{Op, Pid, ProgCtx};
use std::sync::Arc;

/// HPL.dat-style configuration.
#[derive(Debug, Clone)]
pub struct HplConfig {
    /// Problem size N.
    pub n: u64,
    /// Block size NB.
    pub nb: u64,
    /// Process grid rows (1 on a single node).
    pub p: u32,
    /// Process grid columns.
    pub q: u32,
}

impl HplConfig {
    /// The paper's tuned configuration: N=57024, NB=192, P=Q=1.
    pub fn paper() -> HplConfig {
        HplConfig {
            n: 57024,
            nb: 192,
            p: 1,
            q: 1,
        }
    }

    /// A scaled-down configuration for fast runs/tests, preserving N/NB.
    pub fn scaled(scale_denom: u64) -> HplConfig {
        let full = HplConfig::paper();
        HplConfig {
            n: (full.n / scale_denom).max(full.nb * 4),
            ..full
        }
    }

    /// The β approach of Krpić, Loina & Galba: choose N to use a fraction
    /// of system memory: `N = β·√(mem_bytes/8)` with β ≈ √fraction.
    pub fn n_for_memory_fraction(mem_gb: u32, fraction: f64) -> u64 {
        let mem_bytes = mem_gb as f64 * 1024.0 * 1024.0 * 1024.0;
        let beta = fraction.sqrt();
        let n = beta * (mem_bytes / 8.0).sqrt();
        // Round down to a multiple of a typical NB for clean blocking.
        ((n as u64) / 64) * 64
    }

    /// Number of panel iterations.
    pub fn iterations(&self) -> u64 {
        self.n / self.nb
    }

    /// Total solve FLOPs: `2/3·N³ + 3/2·N²` (the HPL formula).
    pub fn total_flops(&self) -> f64 {
        let n = self.n as f64;
        (2.0 / 3.0) * n * n * n + 1.5 * n * n
    }

    /// FLOPs in iteration `k`'s trailing update.
    pub fn update_flops(&self, k: u64) -> f64 {
        let rem = (self.n - k * self.nb) as f64;
        2.0 * self.nb as f64 * rem * rem
    }

    /// FLOPs in iteration `k`'s panel factorization.
    pub fn panel_flops(&self, k: u64) -> f64 {
        let rem = (self.n - k * self.nb) as f64;
        self.nb as f64 * self.nb as f64 * rem
    }

    /// Matrix bytes (N² doubles).
    pub fn matrix_bytes(&self) -> u64 {
        self.n * self.n * 8
    }
}

/// Which benchmark personality to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HplVariant {
    /// HPL compiled against OpenBLAS: hetero-unaware.
    OpenBlas,
    /// Intel oneAPI optimized LINPACK: hetero-aware.
    IntelMkl,
}

impl HplVariant {
    pub fn name(self) -> &'static str {
        match self {
            HplVariant::OpenBlas => "OpenBLAS HPL",
            HplVariant::IntelMkl => "Intel HPL",
        }
    }

    fn params(self) -> VariantParams {
        match self {
            HplVariant::OpenBlas => VariantParams {
                reuse_llc: 0.10,
                vector_frac: 0.45,
                flops_per_inst: 3.2,
                spin_wait: true,
                dynamic_chunks_per_thread: 0, // static equal split
                setup_passes: 3,
            },
            HplVariant::IntelMkl => VariantParams {
                reuse_llc: 0.35,
                vector_frac: 0.55,
                flops_per_inst: 3.6,
                spin_wait: false,
                dynamic_chunks_per_thread: 6,
                setup_passes: 1,
            },
        }
    }
}

/// Variant tuning knobs (see module docs).
#[derive(Debug, Clone, Copy)]
struct VariantParams {
    /// dgemm LLC-level blocking quality (Table III's miss-rate knob).
    reuse_llc: f64,
    /// Vector density of the generated code (power/efficiency knob).
    vector_frac: f64,
    /// FLOPs per instruction of the dgemm inner loops.
    flops_per_inst: f64,
    /// Busy-wait (true) vs blocking wait at synchronization points.
    spin_wait: bool,
    /// 0 = one static chunk per thread; >0 = a dynamic queue with
    /// `threads × this` chunks per iteration.
    dynamic_chunks_per_thread: u32,
    /// Passes over the matrix during setup/generation.
    setup_passes: u32,
}

/// Instructions per spin-poll chunk (~150 µs of busy-wait at P speed).
const SPIN_CHUNK_INSTRUCTIONS: u64 = 2_000_000;

/// Blocking-wait poll period.
const BLOCK_POLL_NS: Nanos = 100_000;

/// Shared run state across the worker threads.
struct HplShared {
    cfg: HplConfig,
    params: VariantParams,
    nthreads: usize,
    /// Per-iteration: threads that finished their panel share. The panel
    /// is modeled as parallel work: optimized HPL hides panel cost behind
    /// the trailing update via lookahead, so serializing it on one thread
    /// would overstate its cost enormously at small N.
    panel_arrived: Vec<u32>,
    /// Per-iteration: threads that completed their update share.
    update_done: Vec<u32>,
    /// Per-iteration: dynamic chunks still unclaimed.
    chunks_left: Vec<u32>,
    /// Solve timing (set by the first/last worker).
    t_start_ns: Option<Nanos>,
    t_end_ns: Option<Nanos>,
    threads_exited: u32,
}

/// Handle to a spawned HPL run.
pub struct HplRun {
    pub pids: Vec<Pid>,
    shared: Arc<Mutex<HplShared>>,
    cfg: HplConfig,
    pub variant: HplVariant,
}

impl HplRun {
    /// Solve wall time, once finished.
    pub fn solve_time_s(&self) -> Option<f64> {
        let s = self.shared.lock();
        match (s.t_start_ns, s.t_end_ns) {
            (Some(a), Some(b)) if b > a => Some((b - a) as f64 / 1e9),
            _ => None,
        }
    }

    /// The HPL figure of merit.
    pub fn gflops(&self) -> Option<f64> {
        self.solve_time_s()
            .map(|t| self.cfg.total_flops() / t / 1e9)
    }

    pub fn config(&self) -> &HplConfig {
        &self.cfg
    }

    /// Whether every worker exited.
    pub fn finished(&self) -> bool {
        let s = self.shared.lock();
        s.threads_exited as usize == s.nthreads
    }
}

/// Per-thread program state machine.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Setup { pass: u32, remaining_bytes: u64 },
    Panel { k: u64, computed: bool },
    PanelWait { k: u64 },
    Update { k: u64, my_static_done: bool },
    UpdateDone { k: u64 },
    IterWait { k: u64 },
    Finished,
}

/// Ablation overrides for a variant's tuning (None = keep the variant's
/// own value). Used by the `ablation` bench to isolate which design
/// choice produces which Table II effect.
#[derive(Debug, Clone, Copy, Default)]
pub struct HplTuning {
    /// Override busy-wait vs blocking synchronization.
    pub spin_wait: Option<bool>,
    /// Override the partitioner: Some(0) = static equal chunks,
    /// Some(n>0) = dynamic queue with n chunks per thread.
    pub dynamic_chunks_per_thread: Option<u32>,
    /// Override dgemm LLC blocking quality.
    pub reuse_llc: Option<f64>,
}

/// Spawn one HPL run: one worker per CPU in `cpus`, each pinned to its CPU
/// (the paper runs 1 thread per core via taskset/OMP affinity).
pub fn spawn_hpl(
    kernel: &KernelHandle,
    cfg: HplConfig,
    variant: HplVariant,
    cpus: CpuMask,
) -> HplRun {
    spawn_hpl_tuned(kernel, cfg, variant, HplTuning::default(), cpus)
}

/// [`spawn_hpl`] with per-knob overrides (ablations).
pub fn spawn_hpl_tuned(
    kernel: &KernelHandle,
    cfg: HplConfig,
    variant: HplVariant,
    tuning: HplTuning,
    cpus: CpuMask,
) -> HplRun {
    let mut params = variant.params();
    if let Some(v) = tuning.spin_wait {
        params.spin_wait = v;
    }
    if let Some(v) = tuning.dynamic_chunks_per_thread {
        params.dynamic_chunks_per_thread = v;
    }
    if let Some(v) = tuning.reuse_llc {
        params.reuse_llc = v;
    }
    let nthreads = cpus.count();
    assert!(nthreads > 0, "HPL needs at least one CPU");
    let masks: Vec<CpuMask> = cpus.iter().map(|c| CpuMask::from_cpus([c.0])).collect();
    spawn_hpl_masked(kernel, cfg, variant, params, &masks)
}

/// Spawn `nthreads` *unpinned* HPL workers, every one free to run anywhere
/// in `cpus`: placement (and any later migration) is entirely the
/// scheduler's call. This is the scheduler-tournament entry point — the
/// pinned [`spawn_hpl`] measures the *machine* (the paper's taskset/OMP
/// affinity runs), this variant measures the *policy*.
pub fn spawn_hpl_free(
    kernel: &KernelHandle,
    cfg: HplConfig,
    variant: HplVariant,
    tuning: HplTuning,
    cpus: CpuMask,
    nthreads: usize,
) -> HplRun {
    let mut params = variant.params();
    if let Some(v) = tuning.spin_wait {
        params.spin_wait = v;
    }
    if let Some(v) = tuning.dynamic_chunks_per_thread {
        params.dynamic_chunks_per_thread = v;
    }
    if let Some(v) = tuning.reuse_llc {
        params.reuse_llc = v;
    }
    assert!(nthreads > 0, "HPL needs at least one worker");
    assert!(!cpus.is_empty(), "HPL needs at least one CPU");
    let masks = vec![cpus; nthreads];
    spawn_hpl_masked(kernel, cfg, variant, params, &masks)
}

fn spawn_hpl_masked(
    kernel: &KernelHandle,
    cfg: HplConfig,
    variant: HplVariant,
    params: VariantParams,
    masks: &[CpuMask],
) -> HplRun {
    let nthreads = masks.len();
    let iters = cfg.iterations() as usize;
    let shared = Arc::new(Mutex::new(HplShared {
        cfg: cfg.clone(),
        params,
        nthreads,
        panel_arrived: vec![0; iters],
        update_done: vec![0; iters],
        chunks_left: vec![
            params.dynamic_chunks_per_thread * nthreads as u32;
            if params.dynamic_chunks_per_thread > 0 {
                iters
            } else {
                0
            }
        ],
        t_start_ns: None,
        t_end_ns: None,
        threads_exited: 0,
    }));

    let mut pids = Vec::with_capacity(nthreads);
    for (ti, mask) in masks.iter().enumerate() {
        let sh = Arc::clone(&shared);
        let program = worker_program(sh, ti, nthreads);
        let pid = kernel
            .lock()
            .spawn(&format!("hpl-{}-t{ti}", variant.name()), program, *mask, 0);
        pids.push(pid);
    }
    HplRun {
        pids,
        shared,
        cfg,
        variant,
    }
}

/// Drive a spawned run to completion. Returns the Gflops.
pub fn run_to_completion(kernel: &KernelHandle, run: &HplRun, max_ns: Nanos) -> Option<f64> {
    let deadline = kernel.lock().time_ns() + max_ns;
    loop {
        {
            let mut k = kernel.lock();
            if k.time_ns() >= deadline {
                return None;
            }
            // Batch ticks per lock acquisition: the tick is the hot loop.
            for _ in 0..256 {
                k.tick();
            }
        }
        if run.finished() {
            return run.gflops();
        }
    }
}

fn worker_program(
    shared: Arc<Mutex<HplShared>>,
    thread_idx: usize,
    nthreads: usize,
) -> Box<dyn simos::task::Program> {
    let mut stage = Stage::Setup {
        pass: 0,
        remaining_bytes: 0,
    };
    let mut initialized = false;

    Box::new(move |ctx: &ProgCtx| -> Op {
        let mut s = shared.lock();
        let cfg = s.cfg.clone();
        let params = s.params;
        let iters = cfg.iterations();

        if !initialized {
            initialized = true;
            stage = Stage::Setup {
                pass: 0,
                remaining_bytes: cfg.matrix_bytes() / nthreads as u64,
            };
        }

        loop {
            match stage {
                Stage::Setup {
                    pass,
                    remaining_bytes,
                } => {
                    if remaining_bytes == 0 {
                        if pass + 1 < params.setup_passes {
                            stage = Stage::Setup {
                                pass: pass + 1,
                                remaining_bytes: cfg.matrix_bytes() / nthreads as u64,
                            };
                        } else {
                            stage = next_iteration_stage(0, thread_idx, iters);
                            continue;
                        }
                        continue;
                    }
                    // Stream the matrix in ~256 MB slices (several ticks each).
                    let slice = remaining_bytes.min(256 << 20);
                    stage = Stage::Setup {
                        pass,
                        remaining_bytes: remaining_bytes - slice,
                    };
                    // 1 ref per 8 bytes at 0.5 refs/inst ⇒ inst = bytes/4.
                    return Op::Compute(Phase::stream(slice / 4, cfg.matrix_bytes()));
                }

                Stage::Panel { k, computed } => {
                    if s.t_start_ns.is_none() {
                        s.t_start_ns = Some(ctx.time_ns);
                    }
                    if !computed {
                        // Each thread factorizes its share of the panel.
                        stage = Stage::Panel { k, computed: true };
                        let inst = (cfg.panel_flops(k) / 0.9 / nthreads as f64).max(1.0) as u64;
                        let ws = cfg.nb * (cfg.n - k * cfg.nb) * 8;
                        drop(s);
                        return Op::Compute(panel_phase(inst, ws));
                    }
                    s.panel_arrived[k as usize] += 1;
                    stage = Stage::PanelWait { k };
                }

                Stage::PanelWait { k } => {
                    if s.panel_arrived[k as usize] as usize >= nthreads {
                        stage = Stage::Update {
                            k,
                            my_static_done: false,
                        };
                        continue;
                    }
                    drop(s);
                    return wait_op(params.spin_wait);
                }

                Stage::Update { k, my_static_done } => {
                    if s.t_start_ns.is_none() {
                        s.t_start_ns = Some(ctx.time_ns);
                    }
                    let total_inst = (cfg.update_flops(k) / params.flops_per_inst) as u64;
                    let ws = remaining_working_set(&cfg, k);
                    if params.dynamic_chunks_per_thread == 0 {
                        // Static equal split: one chunk, once.
                        if my_static_done {
                            stage = Stage::UpdateDone { k };
                            continue;
                        }
                        stage = Stage::Update {
                            k,
                            my_static_done: true,
                        };
                        let my_inst = total_inst / nthreads as u64;
                        drop(s);
                        return Op::Compute(dgemm_phase(my_inst, ws, params));
                    }
                    // Dynamic queue.
                    let left = &mut s.chunks_left[k as usize];
                    if *left == 0 {
                        stage = Stage::UpdateDone { k };
                        continue;
                    }
                    *left -= 1;
                    let n_chunks = params.dynamic_chunks_per_thread * nthreads as u32;
                    let chunk_inst = total_inst / n_chunks as u64;
                    drop(s);
                    return Op::Compute(dgemm_phase(chunk_inst, ws, params));
                }

                Stage::UpdateDone { k } => {
                    s.update_done[k as usize] += 1;
                    stage = Stage::IterWait { k };
                }

                Stage::IterWait { k } => {
                    if s.update_done[k as usize] as usize >= nthreads {
                        if k + 1 >= iters {
                            stage = Stage::Finished;
                        } else {
                            stage = next_iteration_stage(k + 1, thread_idx, iters);
                        }
                        continue;
                    }
                    drop(s);
                    return wait_op(params.spin_wait);
                }

                Stage::Finished => {
                    if s.t_end_ns.is_none() || ctx.time_ns > s.t_end_ns.unwrap() {
                        s.t_end_ns = Some(ctx.time_ns);
                    }
                    s.threads_exited += 1;
                    return Op::Exit;
                }
            }
        }
    })
}

fn next_iteration_stage(k: u64, _thread_idx: usize, iters: u64) -> Stage {
    debug_assert!(k < iters);
    Stage::Panel { k, computed: false }
}

/// The op a worker returns while it waits for the other threads. The
/// spinning variant's answer only changes once another worker has run
/// (its arrival counters live in the shared state), which is the promise
/// `Op::Spin` makes.
fn wait_op(spin: bool) -> Op {
    if spin {
        Op::Spin(Phase::spin(SPIN_CHUNK_INSTRUCTIONS))
    } else {
        Op::Sleep(BLOCK_POLL_NS)
    }
}

fn dgemm_phase(inst: u64, working_set: u64, params: VariantParams) -> Phase {
    let mut p = Phase::dgemm(inst.max(1), working_set, params.reuse_llc);
    p.vector_frac = params.vector_frac;
    p.flops_per_inst = params.flops_per_inst;
    p
}

fn panel_phase(inst: u64, working_set: u64) -> Phase {
    Phase::panel(inst.max(1), working_set)
}

/// Working set of iteration `k`'s trailing update: the remaining submatrix.
fn remaining_working_set(cfg: &HplConfig, k: u64) -> u64 {
    let rem = cfg.n - k * cfg.nb;
    (rem * rem * 8).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::machine::MachineSpec;
    use simos::kernel::{Kernel, KernelConfig};

    #[test]
    fn config_math() {
        let cfg = HplConfig::paper();
        assert_eq!(cfg.iterations(), 297);
        let fl = cfg.total_flops();
        assert!((fl - 1.236e14).abs() / 1.236e14 < 0.01, "{fl:e}");
        // Update flops sum ≈ total.
        let sum: f64 = (0..cfg.iterations())
            .map(|k| cfg.update_flops(k) + cfg.panel_flops(k))
            .sum();
        assert!((sum - fl).abs() / fl < 0.05, "sum={sum:e} total={fl:e}");
        assert_eq!(cfg.matrix_bytes(), 57024 * 57024 * 8);
    }

    #[test]
    fn beta_n_selection_matches_paper_scale() {
        // 80 % of 32 GB should land in the same region as the paper's
        // N = 57024 (they found 57024 best among the β-derived values).
        let n = HplConfig::n_for_memory_fraction(32, 0.80);
        assert!((52_000..62_000).contains(&n), "N = {n}");
        // More memory → bigger N; smaller fraction → smaller N.
        assert!(HplConfig::n_for_memory_fraction(32, 0.70) < n);
        assert!(HplConfig::n_for_memory_fraction(4, 0.80) < n);
    }

    #[test]
    fn small_run_completes_and_reports_gflops() {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let cfg = HplConfig {
            n: 1536,
            nb: 192,
            p: 1,
            q: 1,
        };
        let run = spawn_hpl(
            &kernel,
            cfg,
            HplVariant::IntelMkl,
            CpuMask::parse_cpulist("0,2,4,6").unwrap(),
        );
        let gflops = run_to_completion(&kernel, &run, 600_000_000_000).expect("finishes");
        assert!(gflops > 1.0, "gflops = {gflops}");
        assert!(run.finished());
        assert!(run.solve_time_s().unwrap() > 0.0);
    }

    #[test]
    fn openblas_variant_spins_intel_blocks() {
        // Run both tiny variants on a hybrid core set and compare the
        // instruction overhead: the spinning variant retires more
        // instructions for the same numerical work.
        let cfg = HplConfig {
            n: 1152,
            nb: 192,
            p: 1,
            q: 1,
        };
        let mut inst = Vec::new();
        for variant in [HplVariant::OpenBlas, HplVariant::IntelMkl] {
            let kernel =
                Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
            let run = spawn_hpl(
                &kernel,
                cfg.clone(),
                variant,
                CpuMask::parse_cpulist("0,16").unwrap(), // 1 P + 1 E
            );
            run_to_completion(&kernel, &run, 600_000_000_000).expect("finishes");
            let total: u64 = run
                .pids
                .iter()
                .map(|&p| kernel.lock().task_stats(p).unwrap().instructions)
                .sum();
            inst.push(total);
        }
        assert!(
            inst[0] > inst[1],
            "spinning OpenBLAS should retire more instructions: {inst:?}"
        );
    }

    #[test]
    fn solve_excludes_setup() {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let cfg = HplConfig {
            n: 768,
            nb: 192,
            p: 1,
            q: 1,
        };
        let run = spawn_hpl(
            &kernel,
            cfg,
            HplVariant::OpenBlas,
            CpuMask::parse_cpulist("0").unwrap(),
        );
        run_to_completion(&kernel, &run, 600_000_000_000).unwrap();
        let s = run.shared.lock();
        assert!(s.t_start_ns.unwrap() > 0, "setup happens before the solve");
    }
}
