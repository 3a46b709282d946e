//! The collector and snapshot cache.
//!
//! Sessions never touch the kernel. A single [`Collector`] owns per-CPU
//! counting events (instructions + cycles via each core PMU) and, once
//! per pump, does exactly one kernel pass: advance the simulation, read
//! every counter (bounded transient retry), and sample telemetry (the
//! thermal canary and RAPL package energy) through the same fault-aware
//! sysfs the poller uses. The result is an immutable
//! [`TickSnapshot`]; every client read in that pump is served from it.
//!
//! This is what makes served counts independent of the sessions: the
//! kernel-op sequence depends only on the pump schedule, not on how many
//! sessions exist or how subscriptions are spread over them.

use simcpu::power::energy_delta_uj;
use simcpu::types::CpuId;
use simos::kernel::KernelHandle;
use simos::perf::{EventFd, PerfAttr, Target};
use simos::sysfs;
use simtrace::{span, EventKind, TraceEvent, TraceSink};
use std::sync::Arc;

use crate::wire::metrics;

/// Bounded retry for transient (EINTR/EBUSY) counter-read failures; a
/// counter still failing after this keeps its last value and the CPU is
/// marked lossy for the pump.
const READ_RETRIES: u32 = 4;

/// Per-CPU state in a snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuCounters {
    pub online: bool,
    /// Incremented every time this CPU goes offline; a subscription that
    /// saw a different epoch at baseline knows its window was disturbed.
    pub offline_epochs: u32,
    pub instructions: u64,
    pub cycles: u64,
    /// A transient read failure exhausted its retries this pump; the
    /// counter values are carried over from the previous pump.
    pub stale: bool,
}

/// One pump's immutable view of the machine.
#[derive(Debug, Clone)]
pub struct TickSnapshot {
    /// Pump index (0 = the state at daemon boot, before any pump).
    pub tick: u64,
    /// Simulated time of the snapshot.
    pub time_ns: u64,
    pub cpus: Vec<CpuCounters>,
    pub temp_mc: i64,
    /// Unwrapped package energy accumulated since boot (µJ).
    pub energy_pkg_uj: u64,
    /// Cumulative count of pumps whose sysfs sampling was lost to a
    /// flaky window (energy accumulation bridged the gap); telemetry
    /// fields are carried over such a pump.
    pub sysfs_gaps: u32,
}

impl TickSnapshot {
    /// Sum a per-CPU counter metric over a CPU bitmask. `ENERGY_PKG` is
    /// package-scoped and ignores the mask.
    pub fn sum_metric(&self, cpu_mask: u64, metric: u8) -> u64 {
        match metric {
            metrics::INSTRUCTIONS | metrics::CYCLES => self
                .cpus
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < 64 && cpu_mask & (1 << *i) != 0)
                .map(|(_, c)| {
                    if metric == metrics::INSTRUCTIONS {
                        c.instructions
                    } else {
                        c.cycles
                    }
                })
                .sum(),
            metrics::ENERGY_PKG => self.energy_pkg_uj,
            _ => 0,
        }
    }
}

/// The daemon's single kernel-facing reader.
pub struct Collector {
    kernel: KernelHandle,
    /// Per-CPU (instructions, cycles) counting events; `None` where no
    /// core PMU covers the CPU.
    fds: Vec<Option<(EventFd, EventFd)>>,
    n_cpus: usize,
    has_rapl: bool,
    tick: u64,
    cpus: Vec<CpuCounters>,
    prev_online: Vec<bool>,
    offline_epochs: Vec<u32>,
    energy_acc_uj: u64,
    prev_raw_pkg_uj: Option<u64>,
    sysfs_gaps: u32,
    temp_mc: i64,
    /// Flight recorder for the collector's own spans: every pump's
    /// kernel pass records a `collect` span carrying the snapshot flow
    /// id derived from the tick, so RPC reads and stream pushes served
    /// from that snapshot stitch back to the pass that produced it.
    trace: TraceSink,
}

impl Collector {
    /// Open and enable one instructions + one cycles event per CPU (via
    /// whichever core PMU covers it), then take the boot snapshot.
    pub fn new(kernel: KernelHandle) -> Collector {
        let (fds, n_cpus, has_rapl) = {
            let mut k = kernel.lock();
            let pfm = pfmlib::Pfm::initialize(&k, pfmlib::PfmOptions::default())
                .expect("pfm init on booted kernel");
            let n = k.machine().n_cpus();
            let mut fds: Vec<Option<(EventFd, EventFd)>> = vec![None; n];
            for pmu in pfm.default_pmus() {
                let pmu_id = pmu.pmu_id;
                for cpu in pmu.cpus.iter() {
                    if fds[cpu.0].is_some() {
                        continue;
                    }
                    let open = |k: &mut simos::kernel::Kernel, ev| {
                        let mut tries = 0;
                        loop {
                            match k.perf_event_open(
                                PerfAttr::counting(pmu_id, ev),
                                Target::Cpu(cpu),
                                None,
                            ) {
                                Ok(fd) => return fd,
                                Err(e) if e.is_transient() && tries < READ_RETRIES => {
                                    tries += 1;
                                }
                                Err(e) => panic!("collector open on cpu{}: {e}", cpu.0),
                            }
                        }
                    };
                    let ins = open(&mut k, simcpu::events::ArchEvent::Instructions);
                    let cyc = open(&mut k, simcpu::events::ArchEvent::Cycles);
                    k.ioctl_enable(ins, false).expect("enable ins");
                    k.ioctl_enable(cyc, false).expect("enable cyc");
                    fds[cpu.0] = Some((ins, cyc));
                }
            }
            let has_rapl = k.machine().rapl().available();
            (fds, n, has_rapl)
        };
        let mut c = Collector {
            kernel,
            fds,
            n_cpus,
            has_rapl,
            tick: 0,
            cpus: vec![CpuCounters::default(); n_cpus],
            prev_online: vec![true; n_cpus],
            offline_epochs: vec![0; n_cpus],
            energy_acc_uj: 0,
            prev_raw_pkg_uj: None,
            sysfs_gaps: 0,
            temp_mc: 0,
            trace: TraceSink::disabled(),
        };
        // Boot snapshot (tick 0): no simulation ticks, just a read pass.
        c.sample(0);
        c
    }

    /// Advance the simulation `ticks` ticks and take the next snapshot.
    pub fn advance(&mut self, ticks: u32) -> Arc<TickSnapshot> {
        self.tick += 1;
        if !self.trace.enabled() {
            // Off path: one branch, no extra kernel lock.
            return self.sample(ticks);
        }
        let begin_ns = self.kernel.lock().time_ns();
        let flow = span::snapshot_flow_id(self.tick);
        self.trace
            .record(begin_ns, EventKind::SpanBegin, span::COLLECTOR, flow, 0);
        let snap = self.sample(ticks);
        self.trace
            .record(snap.time_ns, EventKind::SpanEnd, span::COLLECTOR, flow, 0);
        snap
    }

    pub fn kernel(&self) -> &KernelHandle {
        &self.kernel
    }

    /// Install the collector's flight recorder (disabled by default).
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Recorded collector spans, oldest-first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    fn sample(&mut self, ticks: u32) -> Arc<TickSnapshot> {
        let mut k = self.kernel.lock();
        // One `tick()` per tick of the window: faults, scheduling, perf and
        // the hardware tick run every time, and a CPU that repeats its last
        // tick replays it (DESIGN.md §9).
        k.tick_batch(ticks as u64);
        let time_ns = k.time_ns();

        for i in 0..self.n_cpus {
            let online = k.cpu_online(CpuId(i));
            if self.prev_online[i] && !online {
                self.offline_epochs[i] += 1;
            }
            self.prev_online[i] = online;
            let c = &mut self.cpus[i];
            c.online = online;
            c.offline_epochs = self.offline_epochs[i];
            c.stale = false;
            if !online {
                // Counters freeze at their last value.
                continue;
            }
            if let Some((ins_fd, cyc_fd)) = self.fds[i] {
                let mut read = |fd| {
                    let mut tries = 0;
                    loop {
                        match k.read_event(fd) {
                            Ok(rv) => return Some(rv.value),
                            Err(e) if e.is_transient() && tries < READ_RETRIES => tries += 1,
                            Err(_) => return None,
                        }
                    }
                };
                match (read(ins_fd), read(cyc_fd)) {
                    (Some(ins), Some(cyc)) => {
                        c.instructions = ins;
                        c.cycles = cyc;
                    }
                    _ => c.stale = true,
                }
            }
        }

        // Telemetry through fault-aware sysfs: the thermal zone is the
        // canary (same policy as telemetry::Poller). On a flaky window
        // the previous values are carried and the pump is gap-flagged.
        let mut gap = false;
        match sysfs::read(&k, "/sys/class/thermal/thermal_zone0/temp")
            .ok()
            .and_then(|s| s.parse::<i64>().ok())
        {
            Some(t) => {
                self.temp_mc = t;
                if self.has_rapl {
                    match sysfs::read(&k, "/sys/class/powercap/intel-rapl:0/energy_uj")
                        .ok()
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        Some(raw) => {
                            if let Some(prev) = self.prev_raw_pkg_uj {
                                self.energy_acc_uj += energy_delta_uj(prev, raw);
                            }
                            self.prev_raw_pkg_uj = Some(raw);
                        }
                        None => gap = true,
                    }
                }
            }
            None => gap = true,
        }
        if gap {
            self.sysfs_gaps += 1;
        }
        drop(k);

        Arc::new(TickSnapshot {
            tick: self.tick,
            time_ns,
            cpus: self.cpus.clone(),
            temp_mc: self.temp_mc,
            energy_pkg_uj: self.energy_acc_uj,
            sysfs_gaps: self.sysfs_gaps,
        })
    }
}

/// The delta stream's pre-encoded frames for one published snapshot:
/// encoded **once** per pump and fanned out to every subscriber via
/// `FrameQueue::push_shared` — N subscribers share one encode.
pub struct StreamFrames {
    /// Tick the frames describe (the published snapshot's tick).
    pub tick: u64,
    /// Tick of the previously published snapshot — the only base a
    /// subscriber can apply [`StreamFrames::delta`] from.
    pub base_tick: u64,
    /// Full-state `Response::TickKeyframe` frame bytes.
    pub keyframe: Arc<Vec<u8>>,
    /// `Response::TickDelta` frame bytes vs the previous publish, or
    /// `None` when there is no usable base (boot).
    pub delta: Option<Arc<Vec<u8>>>,
}

fn snap_cpu_pairs(snap: &TickSnapshot) -> Vec<(u64, u64)> {
    snap.cpus
        .iter()
        .map(|c| (c.instructions, c.cycles))
        .collect()
}

fn build_stream_frames(prev: &TickSnapshot, snap: &TickSnapshot) -> StreamFrames {
    let pairs = snap_cpu_pairs(snap);
    let crc = crate::wire::stream_crc(snap.tick, snap.energy_pkg_uj, &pairs);
    let keyframe = crate::wire::Response::TickKeyframe {
        tick: snap.tick,
        time_ns: snap.time_ns,
        temp_mc: snap.temp_mc,
        energy_uj: snap.energy_pkg_uj,
        crc,
        cpus: snap
            .cpus
            .iter()
            .map(|c| crate::wire::CpuKeyframe {
                online: c.online,
                instructions: c.instructions,
                cycles: c.cycles,
            })
            .collect(),
    }
    .encode();
    let delta = (prev.tick < snap.tick && prev.cpus.len() == snap.cpus.len()).then(|| {
        Arc::new(
            crate::wire::Response::TickDelta {
                base_tick: prev.tick,
                tick: snap.tick,
                d_time_ns: snap.time_ns.saturating_sub(prev.time_ns),
                temp_mc: snap.temp_mc,
                d_energy_uj: snap.energy_pkg_uj.wrapping_sub(prev.energy_pkg_uj) as i64,
                crc,
                cpu_deltas: snap
                    .cpus
                    .iter()
                    .zip(&prev.cpus)
                    .map(|(c, p)| {
                        (
                            c.instructions.wrapping_sub(p.instructions) as i64,
                            c.cycles.wrapping_sub(p.cycles) as i64,
                        )
                    })
                    .collect(),
            }
            .encode(),
        )
    });
    StreamFrames {
        tick: snap.tick,
        base_tick: prev.tick,
        keyframe: Arc::new(keyframe),
        delta,
    }
}

/// The latest snapshot and the delta stream's shared frames, both
/// replaced at each publish. The pump thread publishes and serves from
/// it, so serving never takes the kernel lock.
pub struct SnapshotCache {
    latest: Arc<TickSnapshot>,
    stream: StreamFrames,
}

impl SnapshotCache {
    pub fn new(first: Arc<TickSnapshot>) -> SnapshotCache {
        let stream = build_stream_frames(&first, &first);
        SnapshotCache {
            latest: first,
            stream,
        }
    }

    /// Publish a new snapshot — the pump's single point of invalidation.
    /// Also encodes this pump's keyframe + delta frames exactly once.
    pub fn publish(&mut self, snap: Arc<TickSnapshot>) {
        self.stream = build_stream_frames(&self.latest, &snap);
        self.latest = snap;
    }

    pub fn latest(&self) -> &TickSnapshot {
        &self.latest
    }

    /// The delta stream's shared frames for the latest publish.
    pub fn stream_frames(&self) -> &StreamFrames {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::machine::MachineSpec;
    use simcpu::phase::Phase;
    use simcpu::types::CpuMask;
    use simos::kernel::{Kernel, KernelConfig};
    use simos::task::{Op, ScriptedProgram};

    fn boot_with_work() -> KernelHandle {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        kernel.lock().spawn(
            "w0",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(5_000_000_000)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        kernel.lock().spawn(
            "w1",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(3_000_000_000)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([16]),
            0,
        );
        kernel
    }

    #[test]
    fn collector_counts_advance_monotonically() {
        let mut c = Collector::new(boot_with_work());
        let s0 = c.advance(50);
        let s1 = c.advance(50);
        assert_eq!(s1.tick, 2);
        assert!(s1.time_ns > s0.time_ns);
        let m = u64::MAX;
        assert!(
            s1.sum_metric(m, metrics::INSTRUCTIONS) > s0.sum_metric(m, metrics::INSTRUCTIONS),
            "instructions advance"
        );
        assert!(s1.sum_metric(m, metrics::CYCLES) >= s1.sum_metric(m, metrics::INSTRUCTIONS) / 8);
        // Masked sum: the P-core worker lands on cpu 0 only.
        assert!(s1.sum_metric(1 << 0, metrics::INSTRUCTIONS) > 0);
        assert!(s1.sum_metric(1 << 3, metrics::INSTRUCTIONS) == 0);
        assert!(s1.energy_pkg_uj > 0, "package energy accumulates");
        assert!(s1.temp_mc > 0);
    }

    #[test]
    fn collector_marks_offline_cpu_and_epochs() {
        use simos::faults::{FaultKind, FaultPlan};
        let kernel = boot_with_work();
        kernel.lock().install_faults(&FaultPlan::new(9).at(
            50_000_000,
            FaultKind::CpuOffline {
                cpu: CpuId(17),
                down_ns: Some(200_000_000),
            },
        ));
        let mut c = Collector::new(kernel);
        let mut saw_offline = false;
        let mut last = c.advance(10);
        for _ in 0..60 {
            let s = c.advance(10);
            if !s.cpus[17].online {
                saw_offline = true;
            }
            last = s;
        }
        assert!(saw_offline, "hotplug window observed");
        assert!(last.cpus[17].online, "cpu came back");
        assert_eq!(last.cpus[17].offline_epochs, 1, "one offline epoch");
        assert_eq!(last.cpus[16].offline_epochs, 0);
    }

    #[test]
    fn collector_bridges_flaky_sysfs_windows() {
        use simos::faults::{FaultKind, FaultPlan};
        let kernel = boot_with_work();
        kernel.lock().install_faults(
            &FaultPlan::new(5).at(20_000_000, FaultKind::SysfsFlaky { dur_ns: 45_000_000 }),
        );
        let mut c = Collector::new(kernel);
        let mut last = c.advance(10);
        for _ in 0..40 {
            let s = c.advance(10);
            if s.sysfs_gaps > last.sysfs_gaps {
                assert_eq!(s.sysfs_gaps, last.sysfs_gaps + 1, "one gap per pump");
                assert_eq!(s.temp_mc, last.temp_mc, "carried temperature");
                assert_eq!(s.energy_pkg_uj, last.energy_pkg_uj, "carried energy");
            }
            last = s;
        }
        assert!(
            last.sysfs_gaps >= 2,
            "flaky window produced gap pumps: {}",
            last.sysfs_gaps
        );
        let s = c.advance(10);
        assert_eq!(s.sysfs_gaps, last.sysfs_gaps, "the window closed");
    }

    #[test]
    fn snapshot_cache_publishes_latest() {
        let mut c = Collector::new(boot_with_work());
        let mut cache = SnapshotCache::new(c.advance(5));
        assert_eq!(cache.latest().tick, 1);
        cache.publish(c.advance(5));
        assert_eq!(cache.latest().tick, 2);
    }
}
