//! The `perf_event` subsystem analogue.
//!
//! This module reproduces the Linux kernel behaviours the paper's PAPI work
//! has to cope with:
//!
//! * **One PMU per event.** Every event names a PMU `type` (the integer in
//!   `/sys/devices/<pmu>/type`); hybrid machines export one core PMU per
//!   core type (`cpu_core` / `cpu_atom` on Intel, one per cluster on ARM).
//! * **Groups cannot span PMUs.** Adding an event to a group whose leader
//!   belongs to a different PMU fails with `EINVAL` — the exact restriction
//!   that forces PAPI to maintain *multiple* event groups per EventSet.
//! * **Core-type filtered counting.** A per-thread event only counts while
//!   the thread runs on a CPU covered by the event's PMU; elsewhere
//!   `time_enabled` advances but `time_running` does not. Measuring
//!   "instructions anywhere" on a hybrid machine therefore takes one event
//!   per core type.
//! * **Multiplexing.** When a context has more events than hardware
//!   counters, groups rotate; readers scale by
//!   `time_enabled / time_running`.
//! * **Counting vs sampling**, and the `rdpmc` fast read path.
//!
//! The scheduling of event groups onto fixed/general counters is the pure
//! function [`schedule_groups`], unit-tested in isolation; the kernel tick
//! counts only the events it schedules.

use crate::task::Pid;
use simcpu::events::ArchEvent;
use simcpu::pmu::{COUNTER_BITS, COUNTER_MASK};
use simcpu::types::{CpuId, CpuMask, Nanos};
use simcpu::uarch::{Microarch, UarchParams};
use std::collections::{vec_deque, VecDeque};

/// File-descriptor-like handle returned by `perf_event_open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventFd(pub u32);

/// What kind of PMU a [`PmuDesc`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PmuKind {
    /// A CPU-core PMU (one per core type on hybrid machines).
    CoreHw,
    /// An uncore PMU (LLC boxes, memory controller).
    Uncore,
    /// The RAPL energy PMU.
    Rapl,
    /// Kernel software events.
    Software,
}

/// A PMU as exported through sysfs.
#[derive(Debug, Clone)]
pub struct PmuDesc {
    /// The `type` value passed in `perf_event_attr.type`.
    pub id: u32,
    /// Directory name under `/sys/devices/`.
    pub name: String,
    pub kind: PmuKind,
    /// CPUs this PMU's events may count on (the sysfs `cpus` file).
    pub cpus: CpuMask,
    /// Microarchitecture, for core PMUs.
    pub uarch: Option<Microarch>,
}

/// Events the RAPL PMU exposes (its `config` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaplConfig {
    EnergyPkg,
    EnergyCores,
    EnergyRam,
    EnergyPsys,
}

/// Events the uncore PMUs expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UncoreConfig {
    /// LLC box: package-wide lookups.
    LlcLookups,
    /// LLC box: package-wide misses.
    LlcMisses,
    /// Memory controller: read CAS commands (64 B each).
    ImcCasReads,
    /// Memory controller: write CAS commands (64 B each).
    ImcCasWrites,
}

/// The `config` field of an attr: which event, in the PMU's own vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventConfig {
    Hw(ArchEvent),
    Rapl(RaplConfig),
    Uncore(UncoreConfig),
    /// Software wall-clock (task clock, ns).
    SwTaskClock,
    /// Times the target was switched in (PERF_COUNT_SW_CONTEXT_SWITCHES).
    SwContextSwitches,
    /// Cross-CPU migrations of the target (PERF_COUNT_SW_CPU_MIGRATIONS).
    SwCpuMigrations,
    /// Minor page faults of the target (PERF_COUNT_SW_PAGE_FAULTS).
    /// First-touch model: installing a compute phase faults in the pages
    /// of its working set that the task has never touched before.
    SwPageFaults,
}

/// The subset of `perf_event_attr` the simulation honours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfAttr {
    /// PMU type id (from `/sys/devices/<pmu>/type`).
    pub pmu_type: u32,
    pub config: EventConfig,
    /// Start disabled (enable later via ioctl)?
    pub disabled: bool,
    /// Sampling period (0 = pure counting).
    pub sample_period: u64,
    /// Pinned groups are always scheduled, never multiplexed out.
    pub pinned: bool,
}

impl PerfAttr {
    /// Counting attr for a hardware event on the given PMU type.
    pub fn counting(pmu_type: u32, ev: ArchEvent) -> PerfAttr {
        PerfAttr {
            pmu_type,
            config: EventConfig::Hw(ev),
            disabled: true,
            sample_period: 0,
            pinned: false,
        }
    }
}

/// What an event is attached to — mirrors the `(pid, cpu)` pair of
/// `perf_event_open(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `(pid, -1)`: follow the thread wherever it is scheduled.
    Thread(Pid),
    /// `(-1, cpu)`: count everything on one CPU (requires the PMU to cover
    /// that CPU).
    Cpu(CpuId),
    /// `(pid, cpu)`: count the thread only while it runs on that CPU.
    ThreadOnCpu(Pid, CpuId),
}

impl Target {
    pub fn pid(&self) -> Option<Pid> {
        match self {
            Target::Thread(p) | Target::ThreadOnCpu(p, _) => Some(*p),
            Target::Cpu(_) => None,
        }
    }

    pub fn cpu(&self) -> Option<CpuId> {
        match self {
            Target::Cpu(c) | Target::ThreadOnCpu(_, c) => Some(*c),
            Target::Thread(_) => None,
        }
    }
}

/// Errors from the perf syscall surface (errno-flavoured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// Unknown PMU type (ENODEV).
    NoSuchPmu(u32),
    /// The PMU cannot count this event (ENOENT) — e.g. top-down slots on
    /// an E-core PMU.
    EventNotSupported,
    /// Group leader belongs to a different PMU (EINVAL) — the restriction
    /// at the heart of the paper's §IV.E.
    CrossPmuGroup,
    /// Target CPU is not covered by the PMU (EINVAL).
    CpuNotCovered,
    /// Bad file descriptor (EBADF).
    BadFd,
    /// Target process does not exist (ESRCH).
    NoSuchProcess,
    /// Config value not valid for this PMU kind (EINVAL).
    BadConfig,
    /// Operation not valid in this state.
    InvalidState(&'static str),
    /// The call was interrupted before completing (EINTR). Transient:
    /// retrying the identical call is the correct response.
    TransientEintr,
    /// The PMU was momentarily busy, e.g. mid-hotplug or contended with
    /// the NMI watchdog (EBUSY). Transient: retry after a short backoff.
    TransientEbusy,
}

impl PerfError {
    /// Whether retrying the same call can succeed. Drives the PAPI layer's
    /// retry-with-backoff loop; every other variant is a hard error.
    pub fn is_transient(&self) -> bool {
        matches!(self, PerfError::TransientEintr | PerfError::TransientEbusy)
    }
}

impl std::fmt::Display for PerfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfError::NoSuchPmu(t) => write!(f, "no PMU with type {t} (ENODEV)"),
            PerfError::EventNotSupported => write!(f, "event not supported by PMU (ENOENT)"),
            PerfError::CrossPmuGroup => {
                write!(f, "cannot group events from different PMUs (EINVAL)")
            }
            PerfError::CpuNotCovered => write!(f, "cpu not covered by PMU (EINVAL)"),
            PerfError::BadFd => write!(f, "bad perf event fd (EBADF)"),
            PerfError::NoSuchProcess => write!(f, "no such process (ESRCH)"),
            PerfError::BadConfig => write!(f, "bad config for PMU (EINVAL)"),
            PerfError::InvalidState(s) => write!(f, "invalid state: {s}"),
            PerfError::TransientEintr => write!(f, "interrupted system call (EINTR)"),
            PerfError::TransientEbusy => write!(f, "device or resource busy (EBUSY)"),
        }
    }
}

impl std::error::Error for PerfError {}

/// One recorded sample (sampling mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRec {
    pub time_ns: Nanos,
    pub cpu: CpuId,
    pub pid: Option<Pid>,
    /// Counter value at the time of the sample.
    pub value: u64,
}

/// Maximum retained samples per event (older ones are dropped, like an
/// overwritten ring buffer).
pub const SAMPLE_RING_CAP: usize = 65_536;

/// An event's sample records: the newest [`SAMPLE_RING_CAP`], with the
/// oldest overwritten in O(1), plus the number of samples ever taken. A
/// sample's sequence number is its position in that count (the first is
/// 0), so a reader that remembers [`SampleRing::taken`] can resume with
/// [`SampleRing::since`] after the ring has wrapped.
#[derive(Debug, Clone, Default)]
pub struct SampleRing {
    recs: VecDeque<SampleRec>,
    taken: u64,
}

impl SampleRing {
    fn push(&mut self, rec: SampleRec) {
        if self.recs.len() == SAMPLE_RING_CAP {
            self.recs.pop_front();
        }
        self.recs.push_back(rec);
        self.taken += 1;
    }

    /// Retained records.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Samples taken since the event was opened, retained or not: the
    /// sequence number the next sample will get.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Retained records, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, SampleRec> {
        self.recs.iter()
    }

    /// Retained records with sequence number `seq` or later, oldest
    /// first. Records the ring has already overwritten are gone.
    pub fn since(&self, seq: u64) -> vec_deque::Iter<'_, SampleRec> {
        let oldest = self.taken - self.recs.len() as u64;
        let skip = seq.saturating_sub(oldest).min(self.recs.len() as u64);
        self.recs.range(skip as usize..)
    }
}

impl<'a> IntoIterator for &'a SampleRing {
    type Item = &'a SampleRec;
    type IntoIter = vec_deque::Iter<'a, SampleRec>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The mmap'd perf userpage a self-monitoring process reads for the
/// `rdpmc` fast path (`struct perf_event_mmap_page` in Linux).
///
/// The protocol: read `lock_seq`, read the fields, re-read `lock_seq`; if
/// it changed, retry. `index == 0` means the event is not currently on a
/// hardware counter — multiplexed out, wrong core type, or target not
/// running — and the reader must fall back to the `read()` syscall. This
/// is exactly the §V.5 interaction the paper flags: on a hybrid machine,
/// an EventSet's wrong-core-type halves are *never* rdpmc-readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserPage {
    /// Seqlock generation (even = stable snapshot).
    pub lock_seq: u32,
    /// Hardware counter index + 1; 0 = rdpmc unavailable right now.
    pub index: u32,
    /// Software offset to add to the sign-extended hardware bits.
    pub offset: u64,
    /// Raw hardware counter bits to add when `index != 0`.
    pub hw_value: u64,
    /// Width of the hardware counter in bits (`pmc_width` in Linux).
    pub pmc_width: u16,
    pub time_enabled: Nanos,
    pub time_running: Nanos,
}

impl UserPage {
    /// Complete an rdpmc read: None when the fast path is unavailable.
    /// The hardware bits are sign-extended from `pmc_width` before the
    /// offset is added, as PAPI's `mmap_read_self` does, so the sum is
    /// the 64-bit count whether or not the register has wrapped.
    pub fn rdpmc(&self) -> Option<u64> {
        if self.index == 0 {
            return None;
        }
        let mut pmc = self.hw_value as i64;
        if (1..64).contains(&self.pmc_width) {
            let shift = 64 - u32::from(self.pmc_width);
            pmc = (pmc << shift) >> shift;
        }
        Some(self.offset.wrapping_add(pmc as u64))
    }
}

/// What `read()` returns for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadValue {
    pub fd: EventFd,
    pub value: u64,
    pub time_enabled: Nanos,
    pub time_running: Nanos,
    /// Time the event's context was active on a CPU its PMU covers,
    /// whether or not it held a hardware counter. The gap
    /// `enabled − matched` is expected hybrid behaviour (wrong core
    /// type); the gap `matched − running` is involuntary loss
    /// (multiplexed out, counter stolen) and is the only part a reader
    /// should scale over.
    pub time_matched: Nanos,
}

impl ReadValue {
    /// Multiplex-scaled estimate: `value · enabled/running`.
    pub fn scaled(&self) -> u64 {
        if self.time_running == 0 {
            0
        } else if self.time_running >= self.time_enabled {
            self.value
        } else {
            (self.value as f64 * self.time_enabled as f64 / self.time_running as f64) as u64
        }
    }

    /// Coverage-aware estimate: `value · matched/running`. Extrapolates
    /// only over involuntary counter loss, never over time spent on a
    /// core type the PMU does not cover — the scaling a hybrid-aware
    /// reader wants.
    pub fn scaled_matched(&self) -> u64 {
        if self.time_running == 0 {
            0
        } else if self.time_running >= self.time_matched {
            self.value
        } else {
            (self.value as f64 * self.time_matched as f64 / self.time_running as f64) as u64
        }
    }
}

/// Kernel-internal state of one perf event.
pub struct PerfEvent {
    pub fd: EventFd,
    pub attr: PerfAttr,
    /// Kind of the PMU named by `attr.pmu_type`.
    pub kind: PmuKind,
    pub target: Target,
    /// Leader of this event's group (== `fd` for leaders).
    pub leader: EventFd,
    /// Members of the group, leader first (maintained on the leader only).
    pub group: Vec<EventFd>,
    pub enabled: bool,
    /// Accumulated count (64-bit software counter).
    pub count: u64,
    pub time_enabled: Nanos,
    pub time_running: Nanos,
    /// See [`ReadValue::time_matched`].
    pub time_matched: Nanos,
    /// Fault injection: where the hardware register started, near the
    /// 48-bit counter limit, so its bits wrap mid-run. Only the userpage
    /// shows it (`PerfEvent::userpage`); `read()` returns the 64-bit
    /// count, as Linux's does. Zero means no wrap bias was drawn.
    pub wrap_bias: u64,
    /// Sampling accumulator and ring.
    pub sample_accum: u64,
    pub samples: SampleRing,
}

impl PerfEvent {
    pub fn new(
        fd: EventFd,
        attr: PerfAttr,
        kind: PmuKind,
        target: Target,
        leader: EventFd,
    ) -> PerfEvent {
        PerfEvent {
            fd,
            attr,
            kind,
            target,
            leader,
            group: if leader == fd { vec![fd] } else { Vec::new() },
            enabled: !attr.disabled,
            count: 0,
            time_enabled: 0,
            time_running: 0,
            time_matched: 0,
            wrap_bias: 0,
            sample_accum: 0,
            samples: SampleRing::default(),
        }
    }

    pub fn is_leader(&self) -> bool {
        self.leader == self.fd
    }

    /// Record a counting delta; emits samples when in sampling mode.
    pub fn add_count(&mut self, delta: u64, time_ns: Nanos, cpu: CpuId) {
        self.count = self.count.saturating_add(delta);
        if self.attr.sample_period > 0 {
            self.sample_accum += delta;
            while self.sample_accum >= self.attr.sample_period {
                self.sample_accum -= self.attr.sample_period;
                self.samples.push(SampleRec {
                    time_ns,
                    cpu,
                    pid: self.target.pid(),
                    value: self.count,
                });
            }
        }
    }

    /// The event's mmap'd page (`perf_event_mmap_page`), with `index`
    /// set when the event holds a hardware counter right now. The
    /// simulation folds hardware bits into the count every tick, so
    /// without a wrap bias the page's base is the count and the residual
    /// hardware bits are zero. With one, the page carries the register's
    /// bits, `(count + wrap_bias) mod 2^48`, and an offset of the count
    /// minus their signed value, which [`UserPage::rdpmc`] adds back.
    pub(crate) fn userpage(&self, on_hw: bool, lock_seq: u32) -> UserPage {
        let (offset, hw_value) = if self.wrap_bias == 0 {
            (self.count, 0)
        } else {
            let hw = self.count.wrapping_add(self.wrap_bias) & COUNTER_MASK;
            let shift = 64 - COUNTER_BITS;
            let signed = ((hw << shift) as i64 >> shift) as u64;
            (self.count.wrapping_sub(signed), hw)
        };
        UserPage {
            lock_seq,
            index: u32::from(on_hw),
            offset,
            hw_value,
            pmc_width: COUNTER_BITS as u16,
            time_enabled: self.time_enabled,
            time_running: self.time_running,
        }
    }

    /// Snapshot for `read()`: the 64-bit count, whatever the register's
    /// width.
    pub fn read_value(&self) -> ReadValue {
        ReadValue {
            fd: self.fd,
            value: self.count,
            time_enabled: self.time_enabled,
            time_running: self.time_running,
            time_matched: self.time_matched,
        }
    }
}

/// A group's hardware needs, as seen by the counter scheduler.
#[derive(Debug, Clone)]
pub struct GroupReq {
    pub leader: EventFd,
    /// Architectural events of every member (hardware groups only).
    pub events: Vec<ArchEvent>,
    pub pinned: bool,
}

/// Decide which groups get counters this rotation.
///
/// Greedy in the order given (callers put pinned groups first and rotate
/// the rest): a group is scheduled only if *all* its members fit, using
/// each fixed counter at most once and general counters for the rest.
/// Returns, per group, whether it was scheduled.
pub fn schedule_groups(uarch: &UarchParams, groups: &[GroupReq]) -> Vec<bool> {
    schedule_groups_with(uarch, groups, &[])
}

/// [`schedule_groups`] with some fixed counters pre-claimed by the kernel
/// itself — e.g. the NMI watchdog sitting on the fixed cycles counter.
/// An event whose fixed counter is stolen falls back to a general
/// counter, so theft shows up to user space as extra GP pressure and,
/// under load, multiplexing.
pub fn schedule_groups_with(
    uarch: &UarchParams,
    groups: &[GroupReq],
    stolen_fixed: &[ArchEvent],
) -> Vec<bool> {
    let mut fixed_used: Vec<bool> = uarch
        .fixed_counters
        .iter()
        .map(|f| stolen_fixed.contains(f))
        .collect();
    let mut gp_free = uarch.n_gp_counters;
    let mut out = Vec::with_capacity(groups.len());
    for g in groups {
        // Tentatively allocate.
        let mut fixed_try = fixed_used.clone();
        let mut gp_need = 0usize;
        let mut ok = true;
        for &ev in &g.events {
            if !uarch.supports_event(ev) {
                ok = false;
                break;
            }
            let fixed_idx = uarch.fixed_counters.iter().position(|&f| f == ev);
            match fixed_idx {
                Some(i) if !fixed_try[i] => fixed_try[i] = true,
                _ => gp_need += 1,
            }
        }
        if ok && gp_need <= gp_free {
            fixed_used = fixed_try;
            gp_free -= gp_need;
            out.push(true);
        } else {
            out.push(false);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::uarch::{GOLDEN_COVE, GRACEMONT};

    fn grp(leader: u32, events: &[ArchEvent]) -> GroupReq {
        GroupReq {
            leader: EventFd(leader),
            events: events.to_vec(),
            pinned: false,
        }
    }

    #[test]
    fn read_value_scaling() {
        let rv = ReadValue {
            fd: EventFd(1),
            value: 500,
            time_enabled: 1000,
            time_running: 500,
            time_matched: 1000,
        };
        assert_eq!(rv.scaled(), 1000);
        let full = ReadValue {
            time_running: 1000,
            ..rv
        };
        assert_eq!(full.scaled(), 500);
        let never = ReadValue {
            time_running: 0,
            ..rv
        };
        assert_eq!(never.scaled(), 0);
    }

    #[test]
    fn matched_scaling_ignores_wrong_core_time() {
        // Thread enabled 1000 ns total, but only 400 ns on this PMU's core
        // type; counted for 200 of those 400 (multiplexed half the time).
        let rv = ReadValue {
            fd: EventFd(1),
            value: 300,
            time_enabled: 1000,
            time_running: 200,
            time_matched: 400,
        };
        // enabled/running would extrapolate the P-core rate across E-core
        // residency (1500); matched/running stops at the covered window.
        assert_eq!(rv.scaled(), 1500);
        assert_eq!(rv.scaled_matched(), 600);
        // Fully counted while covered: value passes through.
        let full = ReadValue {
            time_running: 400,
            ..rv
        };
        assert_eq!(full.scaled_matched(), 300);
    }

    #[test]
    fn wrap_bias_is_invisible_until_the_counter_wraps() {
        let attr = PerfAttr::counting(4, ArchEvent::Instructions);
        let mut ev = PerfEvent::new(
            EventFd(1),
            attr,
            PmuKind::CoreHw,
            Target::Thread(Pid(1)),
            EventFd(1),
        );
        ev.wrap_bias = COUNTER_MASK - 99; // 100 counts of headroom
        ev.add_count(60, 0, CpuId(0));
        let page = ev.userpage(true, 0);
        assert_eq!(page.hw_value, COUNTER_MASK - 39);
        assert_eq!(page.rdpmc(), Some(60));
        // 60 more counts carries the hardware bits across the 48-bit edge;
        // rdpmc's sign extension keeps the sum exact on both sides.
        ev.add_count(60, 0, CpuId(0));
        let page = ev.userpage(true, 0);
        assert_eq!(page.hw_value, 20);
        assert_eq!(page.rdpmc(), Some(120));
        // `read()` never shows the register: it returns the 64-bit count.
        assert_eq!(ev.read_value().value, 120);
    }

    #[test]
    fn schedule_single_group_fits() {
        let g = grp(
            1,
            &[
                ArchEvent::Instructions,
                ArchEvent::Cycles,
                ArchEvent::LlcMisses,
            ],
        );
        assert_eq!(schedule_groups(&GOLDEN_COVE, &[g]), vec![true]);
    }

    #[test]
    fn fixed_counters_free_up_gp() {
        // Instructions+Cycles+RefCycles ride fixed counters on Intel, so a
        // group of 3 fixed + 8 GP events fits GoldenCove exactly.
        let mut evs = vec![
            ArchEvent::Instructions,
            ArchEvent::Cycles,
            ArchEvent::RefCycles,
        ];
        evs.extend([
            ArchEvent::BranchInstructions,
            ArchEvent::BranchMisses,
            ArchEvent::L1dAccesses,
            ArchEvent::L1dMisses,
            ArchEvent::L2Accesses,
            ArchEvent::L2Misses,
            ArchEvent::LlcAccesses,
            ArchEvent::LlcMisses,
        ]);
        assert_eq!(schedule_groups(&GOLDEN_COVE, &[grp(1, &evs)]), vec![true]);
        // One more GP event and it no longer fits.
        let mut too_many = evs.clone();
        too_many.push(ArchEvent::DtlbMisses);
        assert_eq!(
            schedule_groups(&GOLDEN_COVE, &[grp(1, &too_many)]),
            vec![false]
        );
    }

    #[test]
    fn second_instructions_event_takes_gp() {
        // Two separate groups both counting Instructions: first gets the
        // fixed counter, second falls back to GP — both schedulable.
        let g1 = grp(1, &[ArchEvent::Instructions]);
        let g2 = grp(2, &[ArchEvent::Instructions]);
        assert_eq!(schedule_groups(&GOLDEN_COVE, &[g1, g2]), vec![true, true]);
    }

    #[test]
    fn overcommit_multiplexes_later_groups_out() {
        // Gracemont has 6 GP counters; seven 1-GP-event groups → the last
        // one misses out.
        let groups: Vec<GroupReq> = (0..7).map(|i| grp(i, &[ArchEvent::BranchMisses])).collect();
        let sched = schedule_groups(&GRACEMONT, &groups);
        assert_eq!(sched.iter().filter(|&&b| b).count(), 6);
        assert!(!sched[6]);
    }

    #[test]
    fn stolen_fixed_counter_falls_back_to_gp() {
        // Fixed cycles stolen by the watchdog: a lone Cycles group still
        // schedules, but now burns a general counter — a second group
        // needing all 8 GP slots no longer fits beside it.
        let g1 = grp(1, &[ArchEvent::Cycles]);
        let gp8: Vec<ArchEvent> = vec![
            ArchEvent::BranchInstructions,
            ArchEvent::BranchMisses,
            ArchEvent::L1dAccesses,
            ArchEvent::L1dMisses,
            ArchEvent::L2Accesses,
            ArchEvent::L2Misses,
            ArchEvent::LlcAccesses,
            ArchEvent::LlcMisses,
        ];
        let g2 = grp(2, &gp8);
        assert_eq!(
            schedule_groups(&GOLDEN_COVE, &[g1.clone(), g2.clone()]),
            vec![true, true]
        );
        assert_eq!(
            schedule_groups_with(&GOLDEN_COVE, &[g1, g2], &[ArchEvent::Cycles]),
            vec![true, false]
        );
    }

    #[test]
    fn watchdog_theft_forces_rotation_on_small_pmu() {
        // Gracemont: 6 GP counters. Two groups that coexist normally
        // (fixed Instructions + 6 GP) are forced into rotation once the
        // watchdog steals the fixed Instructions counter.
        let g1 = grp(1, &[ArchEvent::Instructions, ArchEvent::BranchMisses]);
        let g2 = grp(
            2,
            &[
                ArchEvent::L1dAccesses,
                ArchEvent::L1dMisses,
                ArchEvent::L2Accesses,
                ArchEvent::L2Misses,
                ArchEvent::LlcMisses,
            ],
        );
        assert_eq!(
            schedule_groups(&GRACEMONT, &[g1.clone(), g2.clone()]),
            vec![true, true]
        );
        let stolen = [ArchEvent::Instructions];
        assert_eq!(
            schedule_groups_with(&GRACEMONT, &[g1.clone(), g2.clone()], &stolen),
            vec![true, false]
        );
        // Rotation's other phase: g2 first, g1 multiplexed out.
        assert_eq!(
            schedule_groups_with(&GRACEMONT, &[g2, g1], &stolen),
            vec![true, false]
        );
    }

    #[test]
    fn theft_of_an_unused_fixed_counter_is_invisible() {
        // The watchdog stealing RefCycles doesn't disturb groups that
        // never wanted it.
        let g = grp(1, &[ArchEvent::Cycles, ArchEvent::Instructions]);
        assert_eq!(
            schedule_groups_with(&GRACEMONT, &[g], &[ArchEvent::RefCycles]),
            vec![true]
        );
    }

    #[test]
    fn unsupported_event_never_scheduled() {
        let g = grp(1, &[ArchEvent::TopdownSlots]);
        assert_eq!(schedule_groups(&GRACEMONT, &[g]), vec![false]);
    }

    #[test]
    fn sampling_emits_records() {
        let attr = PerfAttr {
            sample_period: 100,
            ..PerfAttr::counting(4, ArchEvent::Instructions)
        };
        let mut ev = PerfEvent::new(
            EventFd(1),
            attr,
            PmuKind::CoreHw,
            Target::Thread(Pid(1)),
            EventFd(1),
        );
        ev.add_count(250, 1000, CpuId(0));
        assert_eq!(ev.samples.len(), 2);
        ev.add_count(50, 2000, CpuId(0));
        assert_eq!(ev.samples.len(), 3);
        assert_eq!(ev.count, 300);
    }

    #[test]
    fn sample_ring_resumes_by_sequence_after_wrap() {
        let cap = SAMPLE_RING_CAP as u64;
        let mut ring = SampleRing::default();
        // Each record's value is its sequence number.
        for seq in 0..cap + 10 {
            ring.push(SampleRec {
                time_ns: 0,
                cpu: CpuId(0),
                pid: None,
                value: seq,
            });
        }
        assert_eq!((ring.len(), ring.taken()), (SAMPLE_RING_CAP, cap + 10));
        // The ten oldest were overwritten: a reader from 0 resumes at 10.
        assert_eq!(ring.since(0).next().map(|r| r.value), Some(10));
        let tail: Vec<u64> = ring.since(cap + 5).map(|r| r.value).collect();
        assert_eq!(tail, (cap + 5..cap + 10).collect::<Vec<_>>());
        assert_eq!(ring.since(ring.taken()).count(), 0);
    }

    #[test]
    fn target_accessors() {
        assert_eq!(Target::Thread(Pid(3)).pid(), Some(Pid(3)));
        assert_eq!(Target::Thread(Pid(3)).cpu(), None);
        assert_eq!(Target::Cpu(CpuId(2)).cpu(), Some(CpuId(2)));
        let t = Target::ThreadOnCpu(Pid(1), CpuId(5));
        assert_eq!(t.pid(), Some(Pid(1)));
        assert_eq!(t.cpu(), Some(CpuId(5)));
    }
}
