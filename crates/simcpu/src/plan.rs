//! Exec-plan memoization (DESIGN.md §9).
//!
//! [`exec::advance`](crate::exec::advance) recomputes the analytic
//! [`MissProfile`] and the full CPI model on every call — once per phase per
//! core per tick, plus again for [`exec::llc_pressure`](crate::exec::llc_pressure).
//! Both are pure functions of the phase *shape* and the execution context, and
//! on a steady workload those inputs repeat tick after tick. A [`PlanCache`]
//! memoizes the derived plan per core seat.
//!
//! [`PlanCache::plan`] is the one place a plan is looked up or built. It
//! returns a [`PlanId`] that the caller holds while the phase shape and the
//! context stay fixed — the kernel keeps one per installed phase for the
//! rest of a CPU's tick — so slicing a held plan
//! ([`exec::advance_with_plan`](crate::exec::advance_with_plan)) builds and
//! hashes no key.
//!
//! Correctness does not rest on invalidation heuristics: a [`PlanKey`] carries
//! **every** input the model reads — the nine phase-shape fields (bit-exact,
//! via `f64::to_bits`), the µarch identity, the core and reference
//! frequencies, the LLC share, and the contention/SMT factors. A hit therefore
//! returns exactly the bits a fresh computation would produce; the hash only
//! picks the direct-mapped slot, and a full key comparison guards every hit.
//! The µarch's address takes part in that comparison but not in the hash, so
//! which slot a plan lands in (and with it the hit/miss counts) does not
//! depend on where the process was loaded.
//! The epoch counter (bumped by the kernel on fault/hotplug activity) is
//! belt-and-braces: it drops all slots so no entry can outlive a
//! fault-injection boundary even if a future input were missed by the key.
//!
//! The cache is a fixed inline array — no heap allocation, ever — so plan
//! lookups keep the tick hot loop allocation-free (`tests/alloc_free.rs`).

use crate::cache::analytic::{miss_profile, MissProfile};
use crate::exec::{cpi_with_profile, llc_pressure, ExecContext, ExecResult};
use crate::phase::Phase;
use crate::uarch::UarchParams;

/// Direct-mapped slot count per core seat. A seat typically sees one or two
/// live (phase shape × frequency) combinations at a time; 16 slots absorb
/// DVFS transients without evicting the steady-state plan.
pub const PLAN_SLOTS: usize = 16;

/// Exact-match memoization key: every input `exec::advance` reads.
///
/// `f64` fields are stored as raw bits so the comparison is bit-exact, and
/// the µarch is identified by the address of its `&'static UarchParams`
/// (compared, never hashed: see [`PlanKey::slot`]).
/// `Phase::instructions` is deliberately absent — the remaining instruction
/// count never changes the derived plan, only how much of it is consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanKey {
    uarch: usize,
    freq_khz: u64,
    ref_khz: u64,
    llc_share_bytes: u64,
    mem_contention: u64,
    smt_factor: u64,
    mem_ref_rate: u64,
    working_set: u64,
    reuse_l1: u64,
    reuse_l2: u64,
    reuse_llc: u64,
    flops_per_inst: u64,
    vector_frac: u64,
    branch_rate: u64,
    branch_miss_rate: u64,
}

impl PlanKey {
    /// Build the key for running `phase` under `ctx`.
    pub fn new(phase: &Phase, ctx: &ExecContext<'_>) -> PlanKey {
        PlanKey {
            uarch: ctx.uarch as *const UarchParams as usize,
            freq_khz: ctx.freq_khz,
            ref_khz: ctx.ref_khz,
            llc_share_bytes: ctx.llc_share_bytes,
            mem_contention: ctx.mem_contention.to_bits(),
            smt_factor: ctx.smt_factor.to_bits(),
            mem_ref_rate: phase.mem_ref_rate.to_bits(),
            working_set: phase.working_set,
            reuse_l1: phase.reuse_l1.to_bits(),
            reuse_l2: phase.reuse_l2.to_bits(),
            reuse_llc: phase.reuse_llc.to_bits(),
            flops_per_inst: phase.flops_per_inst.to_bits(),
            vector_frac: phase.vector_frac.to_bits(),
            branch_rate: phase.branch_rate.to_bits(),
            branch_miss_rate: phase.branch_miss_rate.to_bits(),
        }
    }

    /// FNV-1a over the key fields, used only for slot selection. The µarch
    /// address is left out: it moves with the process's load address, and
    /// a seat only ever sees one µarch anyway.
    fn slot(&self) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [
            self.freq_khz,
            self.llc_share_bytes,
            self.mem_contention,
            self.smt_factor,
            self.mem_ref_rate,
            self.working_set,
            self.reuse_l1,
            self.reuse_l2,
            self.reuse_llc,
            self.flops_per_inst,
            self.vector_frac,
            self.branch_rate,
            self.branch_miss_rate,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h ^ (h >> 32)) as usize & (PLAN_SLOTS - 1)
    }
}

/// A memoized plan: everything `advance` derives before it scales by the
/// instruction count, plus a one-deep result cache for the common case of
/// the same slice size recurring every tick.
#[derive(Debug, Clone, Copy)]
pub struct PlanEntry {
    pub(crate) key: PlanKey,
    /// `miss_profile(phase, uarch, llc_share_bytes)` — the CPI-path profile.
    pub(crate) miss: MissProfile,
    /// `cpi_with_profile(phase, ctx, &miss)`.
    pub(crate) cpi: f64,
    /// `llc_pressure(phase, uarch, llc_share_bytes)` (its own clamped-share
    /// miss profile, so it is cached separately from `miss`).
    pub(crate) pressure: f64,
    /// Instruction count of the most recent slice built from this plan.
    pub(crate) last_inst: u64,
    /// The full result for `last_inst`, skipping the event-vector build.
    pub(crate) last_result: Option<ExecResult>,
}

/// A plan held in a [`PlanCache`], as returned by [`PlanCache::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanId(usize);

/// Per-core-seat plan cache: a fixed, inline, direct-mapped array.
#[derive(Debug, Clone)]
pub struct PlanCache {
    slots: [Option<PlanEntry>; PLAN_SLOTS],
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache {
            slots: [None; PLAN_SLOTS],
            epoch: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Adopt the owner's invalidation epoch, dropping every entry when it
    /// moved since the last call. Hit/miss totals survive (they describe the
    /// cache's lifetime, not one epoch).
    pub fn set_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.slots = [None; PLAN_SLOTS];
        }
    }

    /// Look up the plan for running `phase` under `ctx`, building it into
    /// its slot on a miss; counts the lookup as a hit or a miss. The id
    /// stays valid until the next `plan` call or epoch change on this cache
    /// (either may reuse the slot).
    pub fn plan(&mut self, phase: &Phase, ctx: &ExecContext<'_>) -> PlanId {
        self.lookup(phase, ctx).0
    }

    /// [`PlanCache::plan`], also saying whether the lookup hit. A hit on
    /// an id the caller held before proves that `phase` and `ctx` match
    /// the key that id was built for, if nothing else looked up on this
    /// cache in between: the key names every model input, and an epoch
    /// change empties the slot.
    pub fn lookup(&mut self, phase: &Phase, ctx: &ExecContext<'_>) -> (PlanId, bool) {
        let key = PlanKey::new(phase, ctx);
        let slot = key.slot();
        let hit = matches!(&self.slots[slot], Some(e) if e.key == key);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            let miss = miss_profile(phase, ctx.uarch, ctx.llc_share_bytes);
            self.slots[slot] = Some(PlanEntry {
                key,
                miss,
                cpi: cpi_with_profile(phase, ctx, &miss),
                pressure: llc_pressure(phase, ctx.uarch, ctx.llc_share_bytes),
                last_inst: 0,
                last_result: None,
            });
        }
        (PlanId(slot), hit)
    }

    /// The entry a held id names.
    pub(crate) fn entry(&self, id: PlanId) -> &PlanEntry {
        self.slots[id.0]
            .as_ref()
            .expect("held plan id names a live slot")
    }

    /// The entry a held id names, for updating its one-deep result memo.
    pub(crate) fn entry_mut(&mut self, id: PlanId) -> &mut PlanEntry {
        self.slots[id.0]
            .as_mut()
            .expect("held plan id names a live slot")
    }

    /// [`llc_pressure`] of the held plan's phase and context.
    pub fn pressure(&self, id: PlanId) -> f64 {
        self.entry(id).pressure
    }

    /// Lifetime (hits, misses) of plan lookups through this cache.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::uarch::{GOLDEN_COVE, GRACEMONT};

    fn ctx(khz: u64) -> ExecContext<'static> {
        ExecContext {
            uarch: &GOLDEN_COVE,
            freq_khz: khz,
            ref_khz: 2_100_000,
            llc_share_bytes: 30 << 20,
            mem_contention: 1.0,
            smt_factor: 1.0,
        }
    }

    #[test]
    fn key_ignores_remaining_instructions_only() {
        let a = Phase::dgemm(200_000, 8 << 20, 0.35);
        let mut b = a.clone();
        b.instructions = 77;
        let c = ctx(3_000_000);
        assert_eq!(PlanKey::new(&a, &c), PlanKey::new(&b, &c));
        // …but every physical input distinguishes keys.
        let mut hot = ctx(3_000_001);
        assert_ne!(PlanKey::new(&a, &c), PlanKey::new(&a, &hot));
        hot = ctx(3_000_000);
        hot.uarch = &GRACEMONT;
        assert_ne!(PlanKey::new(&a, &c), PlanKey::new(&a, &hot));
        hot = ctx(3_000_000);
        hot.smt_factor = 0.62;
        assert_ne!(PlanKey::new(&a, &c), PlanKey::new(&a, &hot));
    }

    #[test]
    fn planned_advance_is_bit_identical_and_hits() {
        let p = Phase::dgemm(200_000, 8 << 20, 0.35);
        let c = ctx(3_300_000);
        let mut cache = PlanCache::new();
        let fresh = exec::advance(&p, 1e6, &c);
        for _ in 0..10 {
            let id = cache.plan(&p, &c);
            assert_eq!(exec::advance_with_plan(&p, 1e6, &c, &mut cache, id), fresh);
        }
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (9, 1));
        // A held plan slices and reports pressure without another lookup.
        let id = cache.plan(&p, &c);
        assert_eq!(cache.stats(), (10, 1));
        for _ in 0..3 {
            let held = exec::advance_with_plan(&p, 1e6, &c, &mut cache, id);
            assert_eq!(held, fresh);
        }
        let pr = cache.pressure(id);
        assert_eq!(pr, exec::llc_pressure(&p, c.uarch, c.llc_share_bytes));
        assert_eq!(cache.stats(), (10, 1));
        // `lookup` says whether it hit; a new context misses.
        assert_eq!(cache.lookup(&p, &c), (id, true));
        assert!(!cache.lookup(&p, &ctx(3_300_001)).1);
        assert_eq!(cache.stats(), (11, 2));
        // A whole chunk fits exactly when a fresh chunk would slice whole.
        let id = cache.plan(&p, &c);
        let chunk = Phase::dgemm(1_000, 8 << 20, 0.35);
        let whole = exec::advance(&chunk, 1e9, &c);
        assert_eq!(whole.instructions, 1_000);
        for budget in [whole.cycles as f64 + 10.0, whole.cycles as f64 - 10.0, 0.0] {
            let fits = exec::retires_whole(budget, &cache, id, 1_000);
            let sliced = exec::advance_with_plan(&chunk, budget, &c, &mut cache, id);
            assert_eq!(fits, sliced == whole, "budget {budget}");
        }
    }

    #[test]
    fn slot_ignores_the_uarch_address() {
        // Two copies of one µarch at different addresses: the keys differ
        // (a hit still needs the seat's own µarch), but the slot — and with
        // it the hit/miss counts — must not depend on where they live.
        let a: &'static UarchParams = Box::leak(Box::new(GOLDEN_COVE.clone()));
        let b: &'static UarchParams = Box::leak(Box::new(GOLDEN_COVE.clone()));
        let (mut ca, mut cb) = (ctx(3_000_000), ctx(3_000_000));
        ca.uarch = a;
        cb.uarch = b;
        let shapes = [
            Phase::scalar(1_000),
            Phase::spin(1_000),
            Phase::stream(1_000, 1 << 30),
            Phase::panel(1_000, 4 << 20),
            Phase::dgemm(1_000, 8 << 20, 0.35),
            Phase::dgemm(1_000, 64 << 20, 0.9),
            Phase::stream(1_000, 64 << 10),
            Phase::dgemm(1_000, 1 << 30, 0.1),
        ];
        for p in &shapes {
            let (ka, kb) = (PlanKey::new(p, &ca), PlanKey::new(p, &cb));
            assert_ne!(ka, kb);
            assert_eq!(
                ka.slot(),
                kb.slot(),
                "slot moved with the µarch address: {p:?}"
            );
        }
    }

    #[test]
    fn epoch_change_drops_entries() {
        let p = Phase::scalar(1_000_000);
        let c = ctx(3_000_000);
        let mut cache = PlanCache::new();
        let _ = cache.plan(&p, &c);
        let _ = cache.plan(&p, &c);
        assert_eq!(cache.stats().0, 1);
        cache.set_epoch(1);
        let _ = cache.plan(&p, &c);
        assert_eq!(cache.stats(), (1, 2), "epoch bump forced a recompute");
        cache.set_epoch(1);
        let _ = cache.plan(&p, &c);
        assert_eq!(cache.stats(), (2, 2), "same epoch keeps entries");
    }
}
