//! Microbenchmarks: the §IV.F validation test and supporting workloads.
//!
//! `papi_hybrid_100m_one_eventset` runs a counted loop of 1 million
//! instructions 100 times, with PAPI calipers around each repetition. On a
//! hybrid machine, an unpinned run migrates between core types; original
//! PAPI could only count one PMU (getting 0, 1 M, or something in between),
//! while the patched multi-PMU EventSet reports per-core-type counts whose
//! sum is ≈1 M per repetition.
//!
//! [`spawn_noise`] provides the deterministic background load that induces
//! migrations: duty-cycled spinners pinned to the P-cores, so the measured
//! task periodically gets pushed to an E-core and pulled back.

use parking_lot::Mutex;
use simcpu::phase::Phase;
use simcpu::types::{CoreType, CpuMask, Nanos};
use simos::kernel::KernelHandle;
use simos::task::{HookId, Op, Pid, ProgCtx};
use std::sync::Arc;

/// Caliper hooks used by the instrumented loop.
pub const HOOK_START: HookId = HookId(0xCA11);
pub const HOOK_STOP: HookId = HookId(0xCA12);

/// Configuration of the hybrid counting test.
#[derive(Debug, Clone)]
pub struct HybridTestConfig {
    /// Instructions per measured repetition (1 M in the paper).
    pub instructions: u64,
    /// Number of repetitions (100 in the paper).
    pub repetitions: u32,
    /// Affinity of the measured task.
    pub cpus: CpuMask,
    /// Gap between repetitions (lets the scheduler shuffle things).
    pub gap_ns: Nanos,
}

impl HybridTestConfig {
    /// The paper's test: 1 M instructions × 100, unpinned.
    pub fn paper(n_cpus: usize) -> HybridTestConfig {
        HybridTestConfig {
            instructions: 1_000_000,
            repetitions: 100,
            cpus: CpuMask::first_n(n_cpus),
            gap_ns: 2_000_000,
        }
    }
}

/// Spawn the instrumented loop: `Call(HOOK_START); work; Call(HOOK_STOP)`
/// repeated; drive it with `Papi::run_instrumented`.
pub fn spawn_hybrid_test(kernel: &KernelHandle, cfg: &HybridTestConfig) -> Pid {
    let reps = cfg.repetitions;
    let inst = cfg.instructions;
    let gap = cfg.gap_ns;
    let mut rep = 0u32;
    let mut step = 0u8;
    let mut seed = 0x2545_f491_4f6c_dd1du64;
    let program = move |_: &ProgCtx| -> Op {
        if rep >= reps {
            return Op::Exit;
        }
        match step {
            0 => {
                step = 1;
                Op::Call(HOOK_START)
            }
            1 => {
                step = 2;
                Op::Compute(Phase::scalar(inst))
            }
            2 => {
                step = 3;
                Op::Call(HOOK_STOP)
            }
            _ => {
                step = 0;
                rep += 1;
                if gap > 0 {
                    // Jittered gap (deterministic LCG): avoids phase lock
                    // with periodic background load.
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let f = 0.5 + ((seed >> 33) as f64 / (1u64 << 31) as f64);
                    Op::Sleep(((gap as f64 * f) as Nanos).max(1))
                } else {
                    Op::Compute(Phase::spin(1))
                }
            }
        }
    };
    kernel
        .lock()
        .spawn("papi_hybrid_100m", Box::new(program), cfg.cpus, 0)
}

/// Handle to stop background noise tasks.
pub struct NoiseHandle {
    stop: Arc<Mutex<bool>>,
    pub pids: Vec<Pid>,
}

impl NoiseHandle {
    /// Ask every noise task to exit at its next scheduling point.
    pub fn stop(&self) {
        *self.stop.lock() = true;
    }
}

/// Spawn duty-cycled spinner tasks, one per CPU in `cpus`: they run
/// `busy_ns` of scalar work, sleep `idle_ns`, repeat — in phase with each
/// other, so during each burst *every* covered CPU is busy at once and an
/// unpinned task there gets displaced (to an E-core, in the §IV.F setup),
/// then drifts back when the burst ends.
pub fn spawn_noise(
    kernel: &KernelHandle,
    cpus: CpuMask,
    busy_ns: Nanos,
    idle_ns: Nanos,
) -> NoiseHandle {
    let stop = Arc::new(Mutex::new(false));
    let mut pids = Vec::new();
    let period = (busy_ns + idle_ns).max(1);
    for cpu in cpus.iter() {
        let stop_c = Arc::clone(&stop);
        // Per-task LCG: frays the burst edges so the system never
        // phase-locks with the measured task, while burst cores still
        // overlap across all noise tasks.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(cpu.0 as u64 + 7);
        let program = move |ctx: &ProgCtx| -> Op {
            if *stop_c.lock() {
                return Op::Exit;
            }
            let burst_idx = ctx.time_ns / period;
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(burst_idx | 1);
            let jitter = 0.8 + 0.4 * ((seed >> 33) as f64 / (1u64 << 31) as f64);
            let busy_eff = (busy_ns as f64 * jitter) as Nanos;
            let t = ctx.time_ns % period;
            if t < busy_eff {
                // ~0.5 ms of work per op so the window is honoured closely.
                Op::Compute(Phase::scalar(4_000_000))
            } else {
                Op::Sleep((period - t).max(1))
            }
        };
        // Nice +1: noise should pressure, not starve, the measured task.
        let pid = kernel.lock().spawn(
            &format!("noise-{}", cpu.0),
            Box::new(program),
            CpuMask::from_cpus([cpu.0]),
            1,
        );
        pids.push(pid);
    }
    NoiseHandle { stop, pids }
}

/// A STREAM-like bandwidth-bound task.
pub fn spawn_stream(
    kernel: &KernelHandle,
    cpus: CpuMask,
    total_bytes: u64,
    working_set: u64,
) -> Pid {
    let mut remaining = total_bytes;
    let program = move |_: &ProgCtx| -> Op {
        if remaining == 0 {
            return Op::Exit;
        }
        let slice = remaining.min(64 << 20);
        remaining -= slice;
        Op::Compute(Phase::stream(slice / 4, working_set))
    };
    kernel.lock().spawn("stream", Box::new(program), cpus, 0)
}

/// A branch-mispredict-heavy task.
pub fn spawn_branchy(kernel: &KernelHandle, cpus: CpuMask, instructions: u64) -> Pid {
    let mut remaining = instructions;
    let program = move |_: &ProgCtx| -> Op {
        if remaining == 0 {
            return Op::Exit;
        }
        let slice = remaining.min(10_000_000);
        remaining -= slice;
        Op::Compute(Phase::branchy(slice))
    };
    kernel.lock().spawn("branchy", Box::new(program), cpus, 0)
}

// ---- Analytic validation kernels (Röhl-style) ------------------------------
//
// Röhl et al. validate hardware events by running kernels whose event
// counts are *known in closed form* and checking the measured values land
// in analytic bounds. These kernels are built so every bound follows from
// the phase's statistical mix (instructions, branch/vector rates), the
// first-touch page-fault model (ceil(ws / 4 KiB)), or the scheduling
// structure (one switch-in per region entry / sleep wake-up) — nothing is
// calibrated against the simulator's own output.

/// Simulated page size (must match `simos`' first-touch fault model).
const ANALYTIC_PAGE_BYTES: u64 = 4096;

/// Which analytic kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyticKind {
    /// Instruction-retire loop: L1-resident scalar ALU work.
    Retire,
    /// Memory-bound stream over a cache-busting working set.
    Stream,
    /// Dependent-load pointer chase (latency-bound, zero reuse).
    PointerChase,
    /// Context-switch-heavy server loop: compute bursts separated by
    /// deterministic request-arrival sleeps (a metricsd-style poller
    /// cadence), so software-event counts are part of the closed form.
    Server,
}

/// One analytic kernel instance with its closed-form expectations.
#[derive(Debug, Clone)]
pub struct Analytic {
    pub kind: AnalyticKind,
    /// Total instructions retired inside the marked region.
    pub instructions: u64,
    /// Working set, bytes (fixes the page-fault count).
    pub working_set: u64,
    /// Compute bursts inside the region (>1 only for `Server`).
    pub bursts: u32,
    /// Inter-burst sleep, ns (`Server` only).
    pub sleep_ns: Nanos,
}

impl Analytic {
    pub fn retire(instructions: u64) -> Analytic {
        Analytic {
            kind: AnalyticKind::Retire,
            instructions,
            working_set: 8 * 1024, // Phase::scalar's L1-resident set
            bursts: 1,
            sleep_ns: 0,
        }
    }

    pub fn stream(instructions: u64, working_set: u64) -> Analytic {
        Analytic {
            kind: AnalyticKind::Stream,
            instructions,
            working_set,
            bursts: 1,
            sleep_ns: 0,
        }
    }

    pub fn pointer_chase(instructions: u64, working_set: u64) -> Analytic {
        Analytic {
            kind: AnalyticKind::PointerChase,
            instructions,
            working_set,
            bursts: 1,
            sleep_ns: 0,
        }
    }

    /// `sleep_ns` must exceed the scheduler tick (default 1 ms) for the
    /// closed-form context-switch count to hold: a sub-tick sleep wakes
    /// before the next scheduling pass ever sees the task blocked, so no
    /// switch is observable.
    pub fn server(instructions: u64, bursts: u32, sleep_ns: Nanos) -> Analytic {
        Analytic {
            kind: AnalyticKind::Server,
            instructions,
            working_set: 8 * 1024, // scalar bursts
            bursts: bursts.max(1),
            sleep_ns,
        }
    }

    /// The standard 4-kernel validation suite, `instructions` each.
    pub fn suite(instructions: u64) -> Vec<Analytic> {
        vec![
            Analytic::retire(instructions),
            Analytic::stream(instructions, 64 << 20),
            Analytic::pointer_chase(instructions, 32 << 20),
            Analytic::server(instructions, 16, 2_000_000),
        ]
    }

    pub fn name(&self) -> &'static str {
        match self.kind {
            AnalyticKind::Retire => "retire",
            AnalyticKind::Stream => "stream",
            AnalyticKind::PointerChase => "chase",
            AnalyticKind::Server => "server",
        }
    }

    /// The phase executed per burst.
    fn phase(&self, instructions: u64) -> Phase {
        match self.kind {
            AnalyticKind::Retire | AnalyticKind::Server => Phase::scalar(instructions),
            AnalyticKind::Stream => Phase::stream(instructions, self.working_set),
            AnalyticKind::PointerChase => Phase::pointer_chase(instructions, self.working_set),
        }
    }

    /// The events every kernel's expectations cover: 4 hardware presets
    /// (exactly the GP-counter budget of the smallest core PMU, so no
    /// group is ever multiplex-scaled) + the 4 software presets.
    pub fn events() -> Vec<String> {
        [
            "PAPI_TOT_INS",
            "PAPI_BR_INS",
            "PAPI_BR_MSP",
            "PAPI_VEC_INS",
            "PAPI_CTX_SW",
            "PAPI_CPU_MIG",
            "PAPI_PG_FLT",
            "PAPI_TSK_CLK",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    /// Closed-form expected counts, `event -> (lo, hi)` inclusive, for a
    /// run pinned to one CPU of `core_type` with the region markers of
    /// [`Analytic::spawn_marked`]. Bounds are core-type-independent by
    /// construction (the mix rates and the fault/switch structure don't
    /// depend on the microarchitecture); the matrix's per-core-type check
    /// is that the counts land on *that* core type's PMU row.
    pub fn expected_counts(&self, _core_type: CoreType) -> Vec<(String, (u64, u64))> {
        let n = self.instructions;
        let ph = self.phase(n);
        // Per-slice rounding slack: each op-pull/tick slice rounds every
        // derived event once (≤0.5 each way); bound the slice count by
        // instructions/tick plus burst boundaries, generously.
        let slack = 64 + n / 50_000 + 2 * self.bursts as u64;
        let rated = |rate: f64| -> (u64, u64) {
            let x = n as f64 * rate;
            (
                (x.floor() as u64).saturating_sub(slack),
                x.ceil() as u64 + slack,
            )
        };
        let pages = self.working_set.div_ceil(ANALYTIC_PAGE_BYTES);
        let b = self.bursts as u64;
        vec![
            ("PAPI_TOT_INS".into(), (n, n)),
            ("PAPI_BR_INS".into(), rated(ph.branch_rate)),
            (
                "PAPI_BR_MSP".into(),
                rated(ph.branch_rate * ph.branch_miss_rate),
            ),
            ("PAPI_VEC_INS".into(), rated(ph.vector_frac)),
            // One switch-in entering the region, one per sleep wake-up.
            ("PAPI_CTX_SW".into(), (b, b + 1)),
            ("PAPI_CPU_MIG".into(), (0, 0)),
            ("PAPI_PG_FLT".into(), (pages, pages)),
            // Sanity bracket: ≥0.01 ns and ≤1 µs of runtime per
            // instruction covers every modeled core at any frequency.
            ("PAPI_TSK_CLK".into(), (n / 100, n.saturating_mul(1_000))),
        ]
    }

    /// Spawn the kernel with marker hooks around the measured region:
    /// `begin; burst (sleep burst)*; end; exit`. The caller supplies the
    /// hook ids (e.g. `papi::regions::{begin_hook, end_hook}`) so
    /// this crate stays independent of the region library.
    pub fn spawn_marked(
        &self,
        kernel: &KernelHandle,
        cpus: CpuMask,
        begin: HookId,
        end: HookId,
    ) -> Pid {
        let bursts = self.bursts.max(1);
        let per_burst = self.instructions / bursts as u64;
        let remainder = self.instructions - per_burst * bursts as u64;
        let spec = self.clone();
        let mut burst = 0u32;
        let mut step = 0u8; // 0 begin, 1 compute, 2 sleep-or-end
        let program = move |_: &ProgCtx| -> Op {
            match step {
                0 => {
                    step = 1;
                    Op::Call(begin)
                }
                1 => {
                    step = 2;
                    let extra = if burst == 0 { remainder } else { 0 };
                    Op::Compute(spec.phase(per_burst + extra))
                }
                2 => {
                    burst += 1;
                    if burst < bursts {
                        step = 1;
                        // Deterministic request-arrival gap (fixed
                        // cadence: the closed form counts its wake-ups).
                        Op::Sleep(spec.sleep_ns.max(1))
                    } else {
                        step = 3;
                        Op::Call(end)
                    }
                }
                _ => Op::Exit,
            }
        };
        kernel.lock().spawn(self.name(), Box::new(program), cpus, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::machine::MachineSpec;
    use simos::kernel::{Kernel, KernelConfig};
    use simos::task::TaskState;

    fn raptor() -> KernelHandle {
        Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default())
    }

    #[test]
    fn hybrid_test_program_shape() {
        let kernel = raptor();
        let cfg = HybridTestConfig {
            repetitions: 3,
            ..HybridTestConfig::paper(24)
        };
        let pid = spawn_hybrid_test(&kernel, &cfg);
        let mut hooks = Vec::new();
        simos::kernel::run_with_hooks(&kernel, pid, 60_000_000_000, |_, p, h| {
            assert_eq!(p, pid);
            hooks.push(h);
        });
        // start,stop × 3 repetitions.
        assert_eq!(hooks.len(), 6);
        assert_eq!(hooks[0], HOOK_START);
        assert_eq!(hooks[1], HOOK_STOP);
        let st = kernel.lock().task_stats(pid).unwrap();
        assert_eq!(st.instructions, 3_000_000);
    }

    #[test]
    fn noise_tasks_stop_on_request() {
        let kernel = raptor();
        let noise = spawn_noise(
            &kernel,
            CpuMask::parse_cpulist("0,2").unwrap(),
            500_000,
            500_000,
        );
        for _ in 0..50 {
            kernel.lock().tick();
        }
        noise.stop();
        for _ in 0..5000 {
            kernel.lock().tick();
            if kernel.lock().all_exited() {
                break;
            }
        }
        for pid in &noise.pids {
            assert_eq!(kernel.lock().task_state(*pid), Some(TaskState::Exited));
            assert!(kernel.lock().task_stats(*pid).unwrap().instructions > 0);
        }
    }

    #[test]
    fn noise_displaces_measured_task_to_e_cores() {
        // With all P cpus under noise pressure, an unpinned task must spend
        // some instructions on E cores — the §IV.F migration mechanism.
        let kernel = raptor();
        let _noise = spawn_noise(
            &kernel,
            CpuMask::parse_cpulist("0-15").unwrap(),
            3_000_000,
            7_000_000,
        );
        let cfg = HybridTestConfig {
            repetitions: 40,
            instructions: 1_000_000,
            cpus: CpuMask::first_n(24),
            gap_ns: 1_000_000,
        };
        let pid = spawn_hybrid_test(&kernel, &cfg);
        // Hooks are just resumed (no PAPI here); the noise never exits.
        simos::kernel::run_with_hooks(&kernel, pid, 120_000_000_000, |_, _, _| {});
        let st = kernel.lock().task_stats(pid).unwrap();
        assert_eq!(st.instructions, 40_000_000);
        assert!(
            st.instructions_by_type[1] > 0,
            "some work must land on E cores: {st:?}"
        );
        assert!(
            st.instructions_by_type[0] > st.instructions_by_type[1],
            "P cores should still dominate: {st:?}"
        );
        assert!(st.core_type_migrations > 0);
    }

    #[test]
    fn analytic_kernels_conserve_instructions_and_mark() {
        let begin = HookId(0x5247_0000);
        let end = HookId(0x5247_0001);
        for a in Analytic::suite(5_000_000) {
            let kernel = raptor();
            let pid = a.spawn_marked(&kernel, CpuMask::from_cpus([0]), begin, end);
            let mut hooks = Vec::new();
            simos::kernel::run_with_hooks(&kernel, pid, 120_000_000_000, |_, p, h| {
                assert_eq!(p, pid);
                hooks.push(h);
            });
            assert_eq!(hooks, vec![begin, end], "{}", a.name());
            let st = kernel.lock().task_stats(pid).unwrap();
            assert_eq!(st.instructions, 5_000_000, "{}", a.name());
            let (lo, hi) = a
                .expected_counts(CoreType::Performance)
                .into_iter()
                .find(|(e, _)| e == "PAPI_PG_FLT")
                .unwrap()
                .1;
            assert!(
                (lo..=hi).contains(&st.page_faults),
                "{}: {} faults outside [{lo},{hi}]",
                a.name(),
                st.page_faults
            );
        }
    }

    #[test]
    fn stream_and_branchy_complete() {
        let kernel = raptor();
        let s = spawn_stream(&kernel, CpuMask::from_cpus([0]), 256 << 20, 1 << 30);
        let b = spawn_branchy(&kernel, CpuMask::from_cpus([16]), 5_000_000);
        kernel.lock().run_to_completion(120_000_000_000);
        let ks = kernel.lock();
        assert_eq!(ks.task_state(s), Some(TaskState::Exited));
        assert_eq!(ks.task_state(b), Some(TaskState::Exited));
        assert_eq!(ks.task_stats(b).unwrap().instructions, 5_000_000);
    }
}
