//! The cycle-batch execution engine.
//!
//! Given a [`Phase`], a core's microarchitecture, frequency and cache
//! situation, [`advance`] computes how many instructions retire within a
//! cycle budget and what performance-counter events they generate. All the
//! paper's observable quantities flow from here: instructions per core type,
//! LLC miss rates, FLOP throughput (→ HPL Gflops), and the stall behaviour
//! that makes memory-bound code insensitive to frequency.
//!
//! The CPI model is additive with a throughput floor:
//!
//! ```text
//! cpi = max(1/ipc_base, flops_per_inst/flops_per_cycle)      // issue/FP bound
//!     + mem_ref_rate · miss-weighted latency / MLP           // memory stalls
//!     + branch_rate · branch_miss_rate · penalty             // speculation
//! ```
//!
//! Memory latency is counted in *cycles at the current frequency*, so a
//! core that clocks higher spends more cycles per miss — which is exactly
//! why DVFS helps compute-bound HPL phases and does nothing for streams.

use crate::cache::analytic::{miss_profile, MissProfile};
use crate::events::{ArchEvent, EventCounts};
use crate::phase::Phase;
use crate::plan::{PlanCache, PlanId, PlanKey};
use crate::uarch::UarchParams;

/// DRAM access latency in nanoseconds (uncontended).
pub const MEM_LAT_NS: f64 = 85.0;

/// Cache line size used for bandwidth accounting.
pub const LINE_BYTES: f64 = 64.0;

/// Everything the engine needs to know about where a phase is running.
#[derive(Debug, Clone)]
pub struct ExecContext<'a> {
    /// Microarchitecture of the executing core.
    pub uarch: &'a UarchParams,
    /// Current core frequency in kHz.
    pub freq_khz: u64,
    /// Reference (TSC) frequency in kHz, for `RefCycles`.
    pub ref_khz: u64,
    /// This context's current share of the LLC in bytes (0 = no LLC).
    pub llc_share_bytes: u64,
    /// Memory-contention multiplier on miss latency (1.0 = uncontended).
    pub mem_contention: f64,
    /// Throughput factor for SMT sharing (1.0 = core to ourselves).
    pub smt_factor: f64,
}

/// What a slice of execution produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecResult {
    /// Instructions retired.
    pub instructions: u64,
    /// Core cycles consumed (at `freq_khz`).
    pub cycles: u64,
    /// PMU-visible event deltas.
    pub events: EventCounts,
    /// Double-precision FLOPs performed.
    pub flops: f64,
    /// Bytes demanded from DRAM (for bandwidth accounting).
    pub mem_bytes: f64,
}

/// Cycles per instruction of `phase` in this context.
pub fn cpi(phase: &Phase, ctx: &ExecContext<'_>) -> f64 {
    let m = miss_profile(phase, ctx.uarch, ctx.llc_share_bytes);
    cpi_with_profile(phase, ctx, &m)
}

pub(crate) fn cpi_with_profile(phase: &Phase, ctx: &ExecContext<'_>, m: &MissProfile) -> f64 {
    let ua = ctx.uarch;
    let f_ghz = ctx.freq_khz as f64 / 1e6;

    // Issue-width / FP-throughput floor.
    let issue_cpi = (1.0 / ua.ipc_base).max(if ua.flops_per_cycle > 0.0 {
        phase.flops_per_inst / ua.flops_per_cycle
    } else {
        f64::INFINITY
    });

    // Miss-weighted memory latency per reference, in cycles.
    let mem_lat_cycles = MEM_LAT_NS * ctx.mem_contention * f_ghz;
    let l2_per_ref = m.l1 * ua.l2_lat_cycles;
    let (llc_per_ref, mem_per_ref) = if ctx.llc_share_bytes == 0 {
        // No LLC: L2 misses go straight to memory; prefetch hides latency
        // for the fraction that is not demand-visible.
        (0.0, m.l1 * m.l2 * m.llc_demand_frac * mem_lat_cycles)
    } else {
        (
            m.l1 * m.l2 * ua.llc_lat_cycles,
            m.l1 * m.l2 * m.llc * mem_lat_cycles,
        )
    };
    let mem_cpi = phase.mem_ref_rate * (l2_per_ref + llc_per_ref + mem_per_ref) / ua.mlp.max(1.0);

    let branch_cpi = phase.branch_rate * phase.branch_miss_rate * ua.mispredict_penalty;

    (issue_cpi + mem_cpi + branch_cpi) / ctx.smt_factor.clamp(0.05, 1.0)
}

/// `x.floor() as u64`: the saturating cast already truncates toward zero,
/// which is the floor for every non-negative `x`, and sends NaN and
/// negatives to 0 and everything from 2⁶⁴ up to `u64::MAX`, as the
/// floored cast does.
#[inline]
fn floor_u64(x: f64) -> u64 {
    x as u64
}

/// `x.round() as u64` without a libm call (the x86-64 baseline has no
/// rounding instruction). The fraction `x - t` is exact wherever it
/// decides anything, so comparing it with one half rounds halves away from
/// zero exactly like [`f64::round`]; NaN, negatives and overflow saturate
/// like the cast.
#[inline]
fn round_u64(x: f64) -> u64 {
    let t = floor_u64(x);
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// Run up to `budget_cycles` of `phase` (without consuming more than
/// `phase.instructions`). Returns what happened; the caller subtracts
/// `result.instructions` from the phase.
pub fn advance(phase: &Phase, budget_cycles: f64, ctx: &ExecContext<'_>) -> ExecResult {
    if phase.instructions == 0 || budget_cycles <= 0.0 {
        return ExecResult::default();
    }
    let m = miss_profile(phase, ctx.uarch, ctx.llc_share_bytes);
    let cpi = cpi_with_profile(phase, ctx, &m);
    debug_assert!(cpi.is_finite() && cpi > 0.0, "bad cpi {cpi}");

    let max_inst = floor_u64(budget_cycles / cpi);
    let inst = max_inst.min(phase.instructions);
    if inst == 0 {
        return ExecResult::default();
    }
    result_for_inst(phase, ctx, &m, cpi, inst)
}

/// [`advance`] from a plan the caller already holds for `phase` under
/// `ctx` (see [`PlanCache::plan`]): no key is built or hashed.
pub fn advance_with_plan(
    phase: &Phase,
    budget_cycles: f64,
    ctx: &ExecContext<'_>,
    cache: &mut PlanCache,
    plan: PlanId,
) -> ExecResult {
    if phase.instructions == 0 || budget_cycles <= 0.0 {
        return ExecResult::default();
    }
    let entry = cache.entry_mut(plan);
    debug_assert!(
        entry.key == PlanKey::new(phase, ctx),
        "held plan does not match the phase and context"
    );
    let cpi = entry.cpi;
    debug_assert!(cpi.is_finite() && cpi > 0.0, "bad cpi {cpi}");

    let max_inst = floor_u64(budget_cycles / cpi);
    let inst = max_inst.min(phase.instructions);
    if inst == 0 {
        return ExecResult::default();
    }
    if entry.last_inst == inst {
        if let Some(res) = entry.last_result {
            return res;
        }
    }
    let res = result_for_inst(phase, ctx, &entry.miss, cpi, inst);
    entry.last_inst = inst;
    entry.last_result = Some(res);
    res
}

/// Whether [`advance_with_plan`] would retire all of a fresh
/// `chunk`-instruction phase of the held plan's shape within
/// `budget_cycles`, using the same division and cast it does. A slice's
/// result depends only on its plan and instruction count, so when this
/// holds the slice returns exactly what the last whole chunk of that plan
/// returned.
pub fn retires_whole(budget_cycles: f64, cache: &PlanCache, plan: PlanId, chunk: u64) -> bool {
    budget_cycles > 0.0 && floor_u64(budget_cycles / cache.entry(plan).cpi) >= chunk
}

/// The slice-construction tail shared by [`advance`] and
/// [`advance_with_plan`]: given the (possibly memoized) miss profile and CPI,
/// build the full result for an `inst`-instruction slice. Keeping both
/// callers on this single body is what makes the planned path bit-identical.
fn result_for_inst(
    phase: &Phase,
    ctx: &ExecContext<'_>,
    m: &MissProfile,
    cpi: f64,
    inst: u64,
) -> ExecResult {
    let cycles = round_u64(inst as f64 * cpi);
    let inst_f = inst as f64;

    // Reference cycles tick at the TSC rate for the wall time this slice
    // took: wall_ns = cycles / f_ghz; ref = wall_ns * ref_ghz.
    let f_ghz = ctx.freq_khz as f64 / 1e6;
    let ref_cycles = if f_ghz > 0.0 {
        (cycles as f64 / f_ghz) * (ctx.ref_khz as f64 / 1e6)
    } else {
        0.0
    };

    let refs = inst_f * phase.mem_ref_rate;
    let l1_miss = refs * m.l1;
    let l2_acc = l1_miss;
    let l2_miss = l2_acc * m.l2;
    let (llc_acc, llc_miss, mem_lines) = if ctx.llc_share_bytes == 0 {
        // L2 is last-level: PMU "LLC" events alias the L2 on such machines,
        // and memory traffic is every L2 miss (demand or prefetch).
        (l2_acc, l2_miss * m.llc_demand_frac, l2_miss)
    } else {
        let demand_acc = l2_miss * m.llc_demand_frac;
        let demand_miss = demand_acc * m.llc;
        // Memory traffic includes prefetched fills (hidden misses still
        // consume bandwidth) — approximate with the unhidden miss rate.
        let raw_llc_miss_rate = (m.llc / (1.0 - ctx.uarch.prefetch_hide).max(1e-6)).min(1.0);
        (demand_acc, demand_miss, l2_miss * raw_llc_miss_rate)
    };

    let branches = inst_f * phase.branch_rate;
    let br_miss = branches * phase.branch_miss_rate;
    let flops = inst_f * phase.flops_per_inst;
    let mem_cpi_cycles = {
        // Recompute the memory-stall share of the consumed cycles.
        let total_cpi = cpi;
        let issue_cpi = (1.0 / ctx.uarch.ipc_base).max(if ctx.uarch.flops_per_cycle > 0.0 {
            phase.flops_per_inst / ctx.uarch.flops_per_cycle
        } else {
            0.0
        });
        ((total_cpi - issue_cpi / ctx.smt_factor.clamp(0.05, 1.0)).max(0.0) * inst_f)
            .min(cycles as f64)
    };

    let mut ev = EventCounts::ZERO;
    ev.set(ArchEvent::Instructions, inst);
    ev.set(ArchEvent::Cycles, cycles);
    ev.set(ArchEvent::RefCycles, round_u64(ref_cycles));
    ev.set(ArchEvent::BranchInstructions, round_u64(branches));
    ev.set(ArchEvent::BranchMisses, round_u64(br_miss));
    ev.set(ArchEvent::L1dAccesses, round_u64(refs));
    ev.set(ArchEvent::L1dMisses, round_u64(l1_miss));
    ev.set(ArchEvent::L2Accesses, round_u64(l2_acc));
    ev.set(ArchEvent::L2Misses, round_u64(l2_miss));
    ev.set(ArchEvent::LlcAccesses, round_u64(llc_acc));
    ev.set(ArchEvent::LlcMisses, round_u64(llc_miss));
    ev.set(ArchEvent::MemStallCycles, round_u64(mem_cpi_cycles));
    ev.set(ArchEvent::FpOps, round_u64(flops));
    ev.set(ArchEvent::VectorUops, round_u64(inst_f * phase.vector_frac));
    if ctx.uarch.supports_event(ArchEvent::TopdownSlots) {
        // Slots = pipeline width × cycles.
        ev.set(
            ArchEvent::TopdownSlots,
            (round_u64(ctx.uarch.ipc_base) as f64 * cycles as f64) as u64,
        );
    }
    // Simple dTLB model: misses scale with working set beyond 2 MB coverage.
    let tlb_cover: u64 = 2 << 20;
    let tlb_rate = if phase.working_set > tlb_cover {
        0.001 * (1.0 - tlb_cover as f64 / phase.working_set as f64)
    } else {
        1e-6
    };
    ev.set(ArchEvent::DtlbMisses, round_u64(refs * tlb_rate));

    ExecResult {
        instructions: inst,
        cycles,
        events: ev,
        flops,
        mem_bytes: mem_lines * LINE_BYTES,
    }
}

/// L2-miss pressure of a phase (misses per instruction) — used by the
/// machine tick to apportion LLC occupancy between contexts.
pub fn llc_pressure(phase: &Phase, uarch: &UarchParams, llc_share_bytes: u64) -> f64 {
    let m = miss_profile(phase, uarch, llc_share_bytes.max(1 << 20));
    phase.mem_ref_rate * m.l1 * m.l2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uarch::{CORTEX_A53, CORTEX_A72, GOLDEN_COVE, GRACEMONT};

    fn ctx<'a>(ua: &'a UarchParams, khz: u64) -> ExecContext<'a> {
        ExecContext {
            uarch: ua,
            freq_khz: khz,
            ref_khz: 2_100_000,
            llc_share_bytes: 30 << 20,
            mem_contention: 1.0,
            smt_factor: 1.0,
        }
    }

    #[test]
    fn scalar_loop_runs_near_issue_width() {
        let p = Phase::scalar(1_000_000);
        let c = ctx(&GOLDEN_COVE, 3_000_000);
        let ipc = 1.0 / cpi(&p, &c);
        assert!(ipc > 2.5 && ipc <= GOLDEN_COVE.ipc_base, "ipc = {ipc}");
    }

    #[test]
    fn dgemm_is_fp_throughput_bound_on_p_core() {
        let p = Phase::dgemm(1_000_000, 1 << 30, 0.35);
        let c = ctx(&GOLDEN_COVE, 3_300_000);
        let flops_per_cycle = p.flops_per_inst / cpi(&p, &c);
        // Well-blocked dgemm should reach the ~85-95 % HPL efficiency band.
        let eff = flops_per_cycle / GOLDEN_COVE.flops_per_cycle;
        assert!(
            (0.70..=1.0).contains(&eff),
            "P-core dgemm efficiency = {eff:.3}"
        );
    }

    #[test]
    fn p_core_outperforms_e_core_on_dgemm() {
        let p = Phase::dgemm(10_000_000, 1 << 30, 0.3);
        // Both at PL1-equilibrium frequencies.
        let cp = ctx(&GOLDEN_COVE, 2_610_000);
        let ce = ctx(&GRACEMONT, 2_320_000);
        let rp = advance(&p, 1e9, &cp);
        let re = advance(&p, 1e9, &ce);
        // FLOP rate = flops / (cycles / f).
        let fp = rp.flops / (rp.cycles as f64 / 2.61e9);
        let fe = re.flops / (re.cycles as f64 / 2.32e9);
        let ratio = fp / fe;
        assert!(
            (1.5..4.0).contains(&ratio),
            "P/E dgemm flop-rate ratio = {ratio:.2}"
        );
    }

    #[test]
    fn advance_conserves_instructions() {
        let p = Phase::scalar(1_000_000);
        let c = ctx(&GOLDEN_COVE, 3_000_000);
        // Tiny budget: partial progress.
        let r = advance(&p, 1000.0, &c);
        assert!(r.instructions > 0 && r.instructions < 1_000_000);
        assert_eq!(r.events[ArchEvent::Instructions], r.instructions);
        // Huge budget: exactly the phase, never more.
        let r2 = advance(&p, 1e12, &c);
        assert_eq!(r2.instructions, 1_000_000);
    }

    #[test]
    fn advance_zero_budget_or_empty_phase() {
        let c = ctx(&GOLDEN_COVE, 3_000_000);
        assert_eq!(advance(&Phase::scalar(0), 1e6, &c), ExecResult::default());
        assert_eq!(advance(&Phase::scalar(100), 0.0, &c), ExecResult::default());
    }

    #[test]
    fn topdown_slots_only_on_glc() {
        let p = Phase::scalar(10_000);
        let r_glc = advance(&p, 1e9, &ctx(&GOLDEN_COVE, 3_000_000));
        let r_grt = advance(&p, 1e9, &ctx(&GRACEMONT, 3_000_000));
        assert!(r_glc.events[ArchEvent::TopdownSlots] > 0);
        assert_eq!(r_grt.events[ArchEvent::TopdownSlots], 0);
    }

    #[test]
    fn memory_bound_insensitive_to_frequency() {
        let p = Phase::stream(1_000_000, 8 << 30);
        let lo = ctx(&GOLDEN_COVE, 2_100_000);
        let hi = ctx(&GOLDEN_COVE, 5_100_000);
        // Wall time per instruction = cpi / f.
        let t_lo = cpi(&p, &lo) / 2.1;
        let t_hi = cpi(&p, &hi) / 5.1;
        let speedup = t_lo / t_hi;
        assert!(
            speedup < 1.6,
            "2.4× frequency should buy <1.6× on a stream, got {speedup:.2}"
        );
        // …whereas compute-bound code scales nearly linearly.
        let q = Phase::dgemm(1_000_000, 16 << 20, 0.9);
        let s2 = (cpi(&q, &lo) / 2.1) / (cpi(&q, &hi) / 5.1);
        assert!(s2 > 2.0, "dgemm frequency speedup = {s2:.2}");
    }

    #[test]
    fn smt_sharing_halves_per_thread_throughput() {
        let p = Phase::scalar(100_000);
        let solo = ctx(&GOLDEN_COVE, 3_000_000);
        let mut shared = ctx(&GOLDEN_COVE, 3_000_000);
        shared.smt_factor = GOLDEN_COVE.smt_share;
        assert!(cpi(&p, &shared) > cpi(&p, &solo));
    }

    #[test]
    fn mem_contention_slows_streams() {
        let p = Phase::stream(100_000, 8 << 30);
        let free = ctx(&GOLDEN_COVE, 3_000_000);
        let mut jam = ctx(&GOLDEN_COVE, 3_000_000);
        jam.mem_contention = 3.0;
        assert!(cpi(&p, &jam) > 1.5 * cpi(&p, &free));
    }

    #[test]
    fn arm_no_llc_path() {
        let p = Phase::stream(100_000, 1 << 30);
        let mut c = ctx(&CORTEX_A72, 1_800_000);
        c.llc_share_bytes = 0;
        c.ref_khz = 24_000; // ARM arch timer
        let r = advance(&p, 1e9, &c);
        assert!(r.instructions > 0);
        assert!(r.mem_bytes > 0.0);
        // LLC events alias L2 on LLC-less machines.
        assert_eq!(
            r.events[ArchEvent::LlcAccesses],
            r.events[ArchEvent::L2Accesses]
        );
    }

    #[test]
    fn a53_prefetch_hides_demand_misses() {
        let p = Phase::stream(1_000_000, 1 << 30);
        let mut c = ctx(&CORTEX_A53, 1_400_000);
        c.llc_share_bytes = 0;
        let r = advance(&p, 1e9, &c);
        let acc = r.events[ArchEvent::LlcAccesses] as f64;
        let miss = r.events[ArchEvent::LlcMisses] as f64;
        assert!(
            miss / acc.max(1.0) < 0.2,
            "LITTLE demand miss rate too high"
        );
    }

    /// `round_u64` and `floor_u64` against the libm calls they replace on
    /// every edge class: NaN, infinities, signed zeros, negatives,
    /// subnormals, the halves and their neighbours, and the range from 2⁵¹
    /// (the last binade with fractions) past 2⁶⁴ (where the cast saturates).
    #[test]
    fn rounding_helpers_equal_round_and_floor_on_edges() {
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            -0.5,
            -0.49999999999999994,
            -1.5,
            -1e300,
            u64::MAX as f64,
            1e30,
        ];
        for e in 51..=66 {
            let p = 2f64.powi(e);
            for x in [p, p + 0.5, p + 1.0, p - 0.5, p - 1.0, p + 1.5] {
                for y in [
                    x,
                    f64::from_bits(x.to_bits() + 1),
                    f64::from_bits(x.to_bits() - 1),
                ] {
                    xs.push(y);
                    xs.push(-y);
                }
            }
        }
        for k in 0..4096u64 {
            let h = k as f64 + 0.5;
            xs.extend([
                h,
                f64::from_bits(h.to_bits() - 1),
                f64::from_bits(h.to_bits() + 1),
                k as f64,
            ]);
        }
        for x in xs {
            assert_eq!(
                round_u64(x),
                x.round() as u64,
                "round {x:e} ({:#x})",
                x.to_bits()
            );
            assert_eq!(
                floor_u64(x),
                x.floor() as u64,
                "floor {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]

        /// Any bit pattern (but all-ones, a NaN the edge test covers):
        /// any sign, any exponent.
        #[test]
        fn rounding_helpers_equal_round_and_floor(bits in 0u64..u64::MAX) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_u64(x), x.round() as u64);
            proptest::prop_assert_eq!(floor_u64(x), x.floor() as u64);
        }

        /// Values where rounding actually decides something: below 2⁵³
        /// with a fraction.
        #[test]
        fn rounding_helpers_equal_round_on_fractions(x in 0.0f64..9.007_199_254_740_992e15) {
            proptest::prop_assert_eq!(round_u64(x), x.round() as u64);
            proptest::prop_assert_eq!(floor_u64(x), x.floor() as u64);
        }
    }

    #[test]
    fn flop_accounting_matches_rate() {
        let p = Phase::dgemm(1000, 1 << 20, 0.5);
        let r = advance(&p, 1e9, &ctx(&GOLDEN_COVE, 3_000_000));
        assert_eq!(r.flops, 1000.0 * p.flops_per_inst);
        assert_eq!(r.events[ArchEvent::FpOps], r.flops.round() as u64);
    }
}
