//! The architectural event vocabulary counted by the simulated PMUs.
//!
//! Real PMUs expose hundreds of raw event-select/umask encodings whose
//! meaning differs per microarchitecture; the portable core that performance
//! libraries actually consume is a much smaller set. We model that set as
//! [`ArchEvent`]. The `pfmlib` crate maps vendor-specific event *names*
//! (e.g. `adl_glc::INST_RETIRED:ANY`) onto these architectural events plus a
//! PMU type, mirroring how libpfm4 maps names onto `(config, type)` pairs.
//!
//! Crucially for the paper, availability is *per microarchitecture*: Intel
//! top-down slots exist only on the P-core (GoldenCove), exactly the example
//! the paper gives of an event present on one hybrid core type and absent on
//! the other.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Architectural events countable by a core PMU.
///
/// The discriminants are stable and used as array indices in
/// [`EventCounts`]; append new events at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum ArchEvent {
    /// Retired instructions.
    Instructions = 0,
    /// Core clock cycles (at current frequency).
    Cycles = 1,
    /// Reference cycles (constant-rate TSC-like clock).
    RefCycles = 2,
    /// Retired branch instructions.
    BranchInstructions = 3,
    /// Mispredicted branches.
    BranchMisses = 4,
    /// L1 data-cache accesses.
    L1dAccesses = 5,
    /// L1 data-cache misses.
    L1dMisses = 6,
    /// L2 (unified) accesses.
    L2Accesses = 7,
    /// L2 misses.
    L2Misses = 8,
    /// Last-level-cache accesses (LONGEST_LAT_CACHE.REFERENCE).
    LlcAccesses = 9,
    /// Last-level-cache misses (LONGEST_LAT_CACHE.MISS).
    LlcMisses = 10,
    /// Cycles stalled on memory.
    MemStallCycles = 11,
    /// Double-precision floating-point operations (scalar + vector lanes).
    FpOps = 12,
    /// Retired vector (SIMD) micro-ops.
    VectorUops = 13,
    /// Top-down pipeline slots. **GoldenCove (P-core) only** — the paper's
    /// canonical example of a hybrid-asymmetric event.
    TopdownSlots = 14,
    /// Data-TLB misses.
    DtlbMisses = 15,
}

/// Number of architectural events (length of [`EventCounts`]).
pub const NUM_ARCH_EVENTS: usize = 16;

/// All events, in discriminant order.
pub const ALL_ARCH_EVENTS: [ArchEvent; NUM_ARCH_EVENTS] = [
    ArchEvent::Instructions,
    ArchEvent::Cycles,
    ArchEvent::RefCycles,
    ArchEvent::BranchInstructions,
    ArchEvent::BranchMisses,
    ArchEvent::L1dAccesses,
    ArchEvent::L1dMisses,
    ArchEvent::L2Accesses,
    ArchEvent::L2Misses,
    ArchEvent::LlcAccesses,
    ArchEvent::LlcMisses,
    ArchEvent::MemStallCycles,
    ArchEvent::FpOps,
    ArchEvent::VectorUops,
    ArchEvent::TopdownSlots,
    ArchEvent::DtlbMisses,
];

impl ArchEvent {
    /// Array index of this event.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Event from its index, if valid.
    pub fn from_idx(i: usize) -> Option<ArchEvent> {
        ALL_ARCH_EVENTS.get(i).copied()
    }

    /// Generic (vendor-neutral) name, close to `perf list` spellings.
    pub fn generic_name(self) -> &'static str {
        match self {
            ArchEvent::Instructions => "instructions",
            ArchEvent::Cycles => "cycles",
            ArchEvent::RefCycles => "ref-cycles",
            ArchEvent::BranchInstructions => "branches",
            ArchEvent::BranchMisses => "branch-misses",
            ArchEvent::L1dAccesses => "L1-dcache-loads",
            ArchEvent::L1dMisses => "L1-dcache-load-misses",
            ArchEvent::L2Accesses => "l2_rqsts.references",
            ArchEvent::L2Misses => "l2_rqsts.miss",
            ArchEvent::LlcAccesses => "LLC-loads",
            ArchEvent::LlcMisses => "LLC-load-misses",
            ArchEvent::MemStallCycles => "cycle_activity.stalls_mem_any",
            ArchEvent::FpOps => "fp_arith_inst_retired.all",
            ArchEvent::VectorUops => "uops_retired.vector",
            ArchEvent::TopdownSlots => "topdown.slots",
            ArchEvent::DtlbMisses => "dTLB-load-misses",
        }
    }
}

impl fmt::Display for ArchEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.generic_name())
    }
}

/// A dense vector of counts, one slot per [`ArchEvent`].
///
/// This is the unit of exchange between the execution model (which produces
/// per-tick deltas) and the PMU hardware (which accumulates enabled events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts(pub [u64; NUM_ARCH_EVENTS]);

impl EventCounts {
    /// All-zero counts.
    pub const ZERO: EventCounts = EventCounts([0; NUM_ARCH_EVENTS]);

    /// Add `other` into `self`, saturating (counters cannot exceed u64).
    pub fn add(&mut self, other: &EventCounts) {
        for i in 0..NUM_ARCH_EVENTS {
            self.0[i] = self.0[i].saturating_add(other.0[i]);
        }
    }

    /// Add `other` into `self` `n` times over, saturating: the same as
    /// `n` calls to [`EventCounts::add`], with one multiply per event.
    pub fn add_times(&mut self, other: &EventCounts, n: u64) {
        for i in 0..NUM_ARCH_EVENTS {
            self.0[i] = self.0[i].saturating_add(other.0[i].saturating_mul(n));
        }
    }

    /// Total for one event.
    #[inline]
    pub fn get(&self, ev: ArchEvent) -> u64 {
        self.0[ev.idx()]
    }

    /// Set the count for one event.
    #[inline]
    pub fn set(&mut self, ev: ArchEvent, v: u64) {
        self.0[ev.idx()] = v;
    }

    /// Increment one event.
    #[inline]
    pub fn bump(&mut self, ev: ArchEvent, by: u64) {
        self.0[ev.idx()] = self.0[ev.idx()].saturating_add(by);
    }
}

impl Index<ArchEvent> for EventCounts {
    type Output = u64;
    #[inline]
    fn index(&self, ev: ArchEvent) -> &u64 {
        &self.0[ev.idx()]
    }
}

impl IndexMut<ArchEvent> for EventCounts {
    #[inline]
    fn index_mut(&mut self, ev: ArchEvent) -> &mut u64 {
        &mut self.0[ev.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, ev) in ALL_ARCH_EVENTS.iter().enumerate() {
            assert_eq!(ev.idx(), i);
            assert_eq!(ArchEvent::from_idx(i), Some(*ev));
        }
        assert_eq!(ArchEvent::from_idx(NUM_ARCH_EVENTS), None);
    }

    #[test]
    fn counts_add_and_index() {
        let mut a = EventCounts::ZERO;
        a.bump(ArchEvent::Instructions, 100);
        a.bump(ArchEvent::Cycles, 50);
        let mut b = EventCounts::ZERO;
        b.bump(ArchEvent::Instructions, 1);
        b.add(&a);
        assert_eq!(b[ArchEvent::Instructions], 101);
        assert_eq!(b[ArchEvent::Cycles], 50);
        assert_eq!(b.get(ArchEvent::LlcMisses), 0);
    }

    #[test]
    fn add_times_equals_repeated_adds_and_saturates() {
        let mut one = EventCounts::ZERO;
        one.bump(ArchEvent::Instructions, 2_000_000);
        one.bump(ArchEvent::Cycles, 7);
        one.bump(ArchEvent::FpOps, u64::MAX / 3);
        let (mut times, mut repeated) = (EventCounts::ZERO, EventCounts::ZERO);
        times.bump(ArchEvent::Cycles, 5);
        repeated.bump(ArchEvent::Cycles, 5);
        times.add_times(&one, 4);
        for _ in 0..4 {
            repeated.add(&one);
        }
        assert_eq!(times, repeated);
        assert_eq!(times[ArchEvent::FpOps], u64::MAX);
        let before = times;
        times.add_times(&one, 0);
        assert_eq!(times, before);
    }

    #[test]
    fn counts_saturate() {
        let mut a = EventCounts::ZERO;
        a.set(ArchEvent::Cycles, u64::MAX - 1);
        let mut d = EventCounts::ZERO;
        d.set(ArchEvent::Cycles, 10);
        a.add(&d);
        assert_eq!(a[ArchEvent::Cycles], u64::MAX);
    }

    #[test]
    fn generic_names_unique() {
        let mut names: Vec<&str> = ALL_ARCH_EVENTS.iter().map(|e| e.generic_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), NUM_ARCH_EVENTS);
    }
}
