//! `perf stat`: aggregate counting with hybrid-aware event expansion.
//!
//! On a hybrid machine a request for `instructions` becomes one event per
//! core-type PMU — the rows real perf prints as `cpu_core/instructions/`
//! and `cpu_atom/instructions/`. Per-task mode follows the thread; system
//! -wide mode (`-a`) opens one event per covered CPU per PMU and sums.

use crate::parse_generic_event;
use pfmlib::{Pfm, PfmOptions};
use simcpu::events::ArchEvent;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelHandle};
use simos::perf::{EventConfig, EventFd, PerfAttr, Target};
use simos::task::Pid;
use simtrace::{span, EventKind, TraceEvent, TraceSink};

/// Parse a perf-style software event name (`perf stat -e context-switches`).
/// These count kernel activity, not PMU hardware, so they take no hybrid
/// expansion — one row regardless of core types.
pub fn parse_software_event(name: &str) -> Option<EventConfig> {
    Some(match name.to_ascii_lowercase().as_str() {
        "context-switches" | "cs" => EventConfig::SwContextSwitches,
        "cpu-migrations" | "migrations" => EventConfig::SwCpuMigrations,
        "page-faults" | "faults" => EventConfig::SwPageFaults,
        "task-clock" => EventConfig::SwTaskClock,
        _ => return None,
    })
}

/// The canonical software event names `simperf list` prints.
pub const SOFTWARE_EVENTS: &[&str] = &[
    "context-switches",
    "cpu-migrations",
    "page-faults",
    "task-clock",
];

/// What to count.
#[derive(Debug, Clone)]
pub struct StatConfig {
    /// Generic event names ("instructions", "cycles", "LLC-load-misses").
    pub events: Vec<String>,
    /// `-a`: system-wide counting on every CPU instead of following a task.
    pub system_wide: bool,
    /// Restrict system-wide counting to these CPUs (`-C`).
    pub cpus: Option<CpuMask>,
}

impl StatConfig {
    /// The default `perf stat` event set.
    pub fn default_events() -> StatConfig {
        StatConfig {
            events: ["instructions", "cycles", "branches", "branch-misses"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            system_wide: false,
            cpus: None,
        }
    }
}

/// One output row.
#[derive(Debug, Clone)]
pub struct StatRow {
    /// perf-style label: `cpu_core/instructions/` on hybrid machines,
    /// plain `instructions` on homogeneous ones.
    pub label: String,
    pub value: u64,
    pub time_enabled: u64,
    pub time_running: u64,
}

impl StatRow {
    /// The `(xx.x%)` multiplex annotation perf prints.
    pub fn running_pct(&self) -> f64 {
        if self.time_enabled == 0 {
            100.0
        } else {
            self.time_running as f64 / self.time_enabled as f64 * 100.0
        }
    }
}

/// A completed `perf stat` run.
#[derive(Debug, Clone)]
pub struct StatResult {
    pub rows: Vec<StatRow>,
    pub wall_s: f64,
    /// The measurement-window span (arm → finish) in sim time, for the
    /// `--trace-out` timeline. Empty when kernel tracing is off.
    pub span_events: Vec<TraceEvent>,
}

impl StatResult {
    /// Render like `perf stat` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(" Performance counter stats:\n\n");
        for r in &self.rows {
            let note = if r.running_pct() < 99.5 {
                format!("  ({:.1}%)", r.running_pct())
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:>16}      {}{}\n",
                group_digits(r.value),
                r.label,
                note
            ));
        }
        out.push_str(&format!("\n{:>12.6} seconds time elapsed\n", self.wall_s));
        out
    }

    /// Machine-readable variant of [`StatResult::render`], for tooling
    /// that would otherwise scrape the text table.
    pub fn render_json(&self) -> String {
        let mut w = jsonw::JsonWriter::new();
        w.begin_obj();
        w.field_str("tool", "simperf-stat");
        w.key("rows");
        w.begin_arr();
        for r in &self.rows {
            push_row_json(&mut w, r);
        }
        w.end_arr();
        w.field_f64("wall_s", self.wall_s);
        w.end_obj();
        w.finish()
    }

    /// Sum of all rows whose label contains `needle` (e.g. sum the hybrid
    /// halves of one generic event).
    pub fn total_for(&self, needle: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.label.contains(needle))
            .map(|r| r.value)
            .sum()
    }
}

fn push_row_json(w: &mut jsonw::JsonWriter, r: &StatRow) {
    w.begin_obj();
    w.field_str("event", &r.label);
    w.field_u64("value", r.value);
    w.field_u64("time_enabled", r.time_enabled);
    w.field_u64("time_running", r.time_running);
    w.field_f64("running_pct", r.running_pct());
    w.end_obj();
}

/// JSON for `perf stat -I`-style interval snapshots (delta rows per
/// timestamp), as produced by [`run_interval`].
pub fn interval_json(snaps: &[(f64, Vec<StatRow>)]) -> String {
    let mut w = jsonw::JsonWriter::new();
    w.begin_obj();
    w.field_str("tool", "simperf-stat-interval");
    w.key("intervals");
    w.begin_arr();
    for (t_s, rows) in snaps {
        w.begin_obj();
        w.field_f64("t_s", *t_s);
        w.key("rows");
        w.begin_arr();
        for r in rows {
            push_row_json(&mut w, r);
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

fn group_digits(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// An armed stat session: events opened and enabled; read after the
/// workload completes.
pub struct StatSession {
    kernel: KernelHandle,
    /// (label, fds-to-sum).
    rows: Vec<(String, Vec<EventFd>)>,
    t0_ns: u64,
    /// Records the measurement window as a span when kernel tracing is
    /// enabled; a disabled sink otherwise (record is a no-op branch).
    trace: TraceSink,
}

/// Errors from setup.
#[derive(Debug)]
pub enum StatError {
    UnknownEvent(String),
    Pfm(pfmlib::PfmError),
    Perf(simos::perf::PerfError),
}

impl std::fmt::Display for StatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatError::UnknownEvent(e) => write!(f, "unknown event '{e}' (see simperf list)"),
            StatError::Pfm(e) => write!(f, "{e}"),
            StatError::Perf(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StatError {}

impl From<pfmlib::PfmError> for StatError {
    fn from(e: pfmlib::PfmError) -> Self {
        StatError::Pfm(e)
    }
}

impl From<simos::perf::PerfError> for StatError {
    fn from(e: simos::perf::PerfError) -> Self {
        StatError::Perf(e)
    }
}

/// Open and enable the counters for `target` per `cfg`. The caller then
/// drives the kernel and finally calls [`StatSession::finish`].
pub fn arm(
    kernel: &KernelHandle,
    cfg: &StatConfig,
    target: Option<Pid>,
) -> Result<StatSession, StatError> {
    let mut k = kernel.lock();
    let pfm = Pfm::initialize(&k, PfmOptions::default())?;
    let hybrid = pfm.default_pmus().len() > 1;
    let mut rows = Vec::new();
    for name in &cfg.events {
        if let Some(config) = parse_software_event(name) {
            let sw = pfm
                .pmu_by_pfm_name("perf_sw")
                .ok_or_else(|| StatError::UnknownEvent(name.clone()))?
                .1;
            let attr = PerfAttr {
                config,
                ..PerfAttr::counting(sw.pmu_id, ArchEvent::Instructions)
            };
            let mut fds = Vec::new();
            if cfg.system_wide {
                let covered = match &cfg.cpus {
                    Some(m) => sw.cpus.and(m),
                    None => sw.cpus,
                };
                for cpu in covered.iter() {
                    fds.push(open_and_enable(&mut k, attr, Target::Cpu(cpu))?);
                }
            } else {
                let pid = target.expect("per-task stat needs a pid");
                fds.push(open_and_enable(&mut k, attr, Target::Thread(pid))?);
            }
            if !fds.is_empty() {
                rows.push((name.clone(), fds));
            }
            continue;
        }
        let arch =
            parse_generic_event(name).ok_or_else(|| StatError::UnknownEvent(name.clone()))?;
        for pmu in pfm.default_pmus() {
            let ua = pmu.uarch.expect("core pmu").params();
            if !ua.supports_event(arch) {
                continue; // e.g. topdown.slots on the E PMU
            }
            let label = if hybrid {
                format!("{}/{}/", pmu.kernel_name, name)
            } else {
                name.clone()
            };
            let attr = PerfAttr::counting(pmu.pmu_id, arch);
            let mut fds = Vec::new();
            if cfg.system_wide {
                let covered = match &cfg.cpus {
                    Some(m) => pmu.cpus.and(m),
                    None => pmu.cpus,
                };
                for cpu in covered.iter() {
                    let fd = open_and_enable(&mut k, attr, Target::Cpu(cpu))?;
                    fds.push(fd);
                }
                if fds.is_empty() {
                    continue;
                }
            } else {
                let pid = target.expect("per-task stat needs a pid");
                fds.push(open_and_enable(&mut k, attr, Target::Thread(pid))?);
            }
            rows.push((label, fds));
        }
    }
    let t0_ns = k.time_ns();
    let trace = TraceSink::new(&k.config().trace);
    Ok(StatSession {
        kernel: kernel.clone(),
        rows,
        t0_ns,
        trace,
    })
}

fn open_and_enable(k: &mut Kernel, attr: PerfAttr, target: Target) -> Result<EventFd, StatError> {
    let fd = k.perf_event_open(attr, target, None)?;
    k.ioctl_enable(fd, false)?;
    Ok(fd)
}

impl StatSession {
    /// Read everything and build the report.
    pub fn finish(mut self) -> Result<StatResult, StatError> {
        let mut k = self.kernel.lock();
        let end_ns = k.time_ns();
        let wall_s = (end_ns - self.t0_ns) as f64 / 1e9;
        // One balanced span covering the measurement window. The flow id
        // is a pure function of the (seeded) arm time, so the export is
        // deterministic run to run.
        let flow = span::snapshot_flow_id(self.t0_ns);
        self.trace
            .record(self.t0_ns, EventKind::SpanBegin, span::STAT, flow, 0);
        self.trace
            .record(end_ns, EventKind::SpanEnd, span::STAT, flow, 0);
        let mut rows = Vec::new();
        for (label, fds) in &self.rows {
            let mut value = 0u64;
            let mut te = 0u64;
            let mut tr = 0u64;
            for fd in fds {
                let rv = k.read_event(*fd)?;
                value += rv.value;
                te += rv.time_enabled;
                tr += rv.time_running;
            }
            rows.push(StatRow {
                label: label.clone(),
                value,
                time_enabled: te,
                time_running: tr,
            });
        }
        Ok(StatResult {
            rows,
            wall_s,
            span_events: self.trace.events(),
        })
    }
}

/// `perf stat -I`: run the kernel to completion, snapshotting the counters
/// every `interval_ns` of simulated time. Each snapshot row carries the
/// *delta* since the previous snapshot, like perf's interval output.
pub fn run_interval(
    session: StatSession,
    interval_ns: u64,
    max_ns: u64,
) -> Result<Vec<(f64, Vec<StatRow>)>, StatError> {
    let kernel = session.kernel.clone();
    let mut out = Vec::new();
    let mut prev: Vec<u64> = vec![0; session.rows.len()];
    let t0 = kernel.lock().time_ns();
    let mut next_snap = t0 + interval_ns;
    let deadline = t0 + max_ns;
    loop {
        let (now, done) = {
            let mut k = kernel.lock();
            k.tick();
            (k.time_ns(), k.all_exited() || k.time_ns() >= deadline)
        };
        if now >= next_snap || done {
            next_snap = now + interval_ns;
            let mut rows = Vec::with_capacity(session.rows.len());
            let mut k = kernel.lock();
            for ((label, fds), prev_v) in session.rows.iter().zip(prev.iter_mut()) {
                let mut value = 0u64;
                let mut te = 0u64;
                let mut tr = 0u64;
                for fd in fds {
                    let rv = k.read_event(*fd)?;
                    value += rv.value;
                    te += rv.time_enabled;
                    tr += rv.time_running;
                }
                rows.push(StatRow {
                    label: label.clone(),
                    value: value - *prev_v,
                    time_enabled: te,
                    time_running: tr,
                });
                *prev_v = value;
            }
            out.push(((now - t0) as f64 / 1e9, rows));
        }
        if done {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::machine::MachineSpec;
    use simcpu::phase::Phase;
    use simos::kernel::KernelConfig;
    use simos::task::{Op, ScriptedProgram};

    fn boot() -> KernelHandle {
        Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default())
    }

    fn spawn(kernel: &KernelHandle, cpus: &str, inst: u64) -> Pid {
        kernel.lock().spawn(
            "w",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(inst)),
                Op::Exit,
            ])),
            CpuMask::parse_cpulist(cpus).unwrap(),
            0,
        )
    }

    #[test]
    fn software_events_count_without_hybrid_expansion() {
        let kernel = boot();
        let pid = spawn(&kernel, "0", 2_000_000);
        let cfg = StatConfig {
            events: vec![
                "instructions".into(),
                "context-switches".into(),
                "page-faults".into(),
                "task-clock".into(),
                "cpu-migrations".into(),
            ],
            system_wide: false,
            cpus: None,
        };
        let session = arm(&kernel, &cfg, Some(pid)).unwrap();
        kernel.lock().run_to_completion(60_000_000_000);
        let res = session.finish().unwrap();
        // 2 hybrid instruction rows + 4 single software rows.
        assert_eq!(res.rows.len(), 6);
        assert_eq!(res.total_for("instructions"), 2_000_000);
        assert!(res.total_for("context-switches") >= 1);
        // Phase::scalar touches an 8 KiB working set: 2 first-touch faults.
        assert_eq!(res.total_for("page-faults"), 2);
        assert!(res.total_for("task-clock") > 0, "ns of runtime");
        assert_eq!(res.total_for("cpu-migrations"), 0, "pinned");
    }

    #[test]
    fn per_task_hybrid_expansion() {
        let kernel = boot();
        let pid = spawn(&kernel, "0,16", 5_000_000);
        let cfg = StatConfig {
            events: vec!["instructions".into()],
            system_wide: false,
            cpus: None,
        };
        let session = arm(&kernel, &cfg, Some(pid)).unwrap();
        kernel.lock().run_to_completion(60_000_000_000);
        let res = session.finish().unwrap();
        // Hybrid: two rows, cpu_core + cpu_atom.
        assert_eq!(res.rows.len(), 2);
        assert!(res.rows[0].label.starts_with("cpu_core/"));
        assert!(res.rows[1].label.starts_with("cpu_atom/"));
        assert_eq!(res.total_for("instructions"), 5_000_000);
        assert!(res.wall_s > 0.0);
        let text = res.render();
        assert!(text.contains("cpu_core/instructions/"), "{text}");
        let json = res.render_json();
        assert!(jsonw::validate(&json), "{json}");
        assert!(
            json.contains("\"event\":\"cpu_core/instructions/\""),
            "{json}"
        );
    }

    #[test]
    fn interval_mode_deltas_sum_to_total() {
        let kernel = boot();
        let pid = spawn(&kernel, "0", 50_000_000);
        let cfg = StatConfig {
            events: vec!["instructions".into()],
            system_wide: false,
            cpus: None,
        };
        let session = arm(&kernel, &cfg, Some(pid)).unwrap();
        let snaps = run_interval(session, 2_000_000, 60_000_000_000).unwrap();
        assert!(snaps.len() >= 2, "several interval rows: {}", snaps.len());
        // Per-interval deltas over all (hybrid) rows sum to the total.
        let total: u64 = snaps
            .iter()
            .flat_map(|(_, rows)| rows.iter().map(|r| r.value))
            .sum();
        assert_eq!(total, 50_000_000);
        // Timestamps increase.
        for w in snaps.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        let json = interval_json(&snaps);
        assert!(jsonw::validate(&json), "{json}");
        assert_eq!(json.matches("\"t_s\":").count(), snaps.len());
    }

    #[test]
    fn homogeneous_has_plain_labels() {
        let kernel = Kernel::boot_handle(MachineSpec::skylake_quad(), KernelConfig::default());
        let pid = spawn(&kernel, "0", 1_000_000);
        let session = arm(&kernel, &StatConfig::default_events(), Some(pid)).unwrap();
        kernel.lock().run_to_completion(60_000_000_000);
        let res = session.finish().unwrap();
        assert_eq!(res.rows[0].label, "instructions");
        assert_eq!(res.rows[0].value, 1_000_000);
    }

    #[test]
    fn system_wide_counts_everything() {
        let kernel = boot();
        spawn(&kernel, "0", 3_000_000);
        spawn(&kernel, "16", 2_000_000);
        let cfg = StatConfig {
            events: vec!["instructions".into()],
            system_wide: true,
            cpus: None,
        };
        let session = arm(&kernel, &cfg, None).unwrap();
        kernel.lock().run_to_completion(60_000_000_000);
        let res = session.finish().unwrap();
        assert_eq!(res.total_for("cpu_core"), 3_000_000);
        assert_eq!(res.total_for("cpu_atom"), 2_000_000);
    }

    /// A counter-wrap fault armed before `arm` opens the events puts every
    /// register within 1,000 counts of the 48-bit limit. `read()` returns
    /// 64-bit counts, so each system-wide row still equals the unfaulted
    /// run's.
    #[test]
    fn counter_wrap_armed_before_open_leaves_rows_exact() {
        use simos::faults::{FaultKind, FaultPlan};
        let run = |faults: Option<FaultPlan>| {
            let kernel = boot();
            if let Some(plan) = faults {
                kernel.lock().install_faults(&plan);
            }
            spawn(&kernel, "0", 3_000_000);
            spawn(&kernel, "16", 2_000_000);
            let cfg = StatConfig {
                events: vec!["instructions".into(), "cycles".into()],
                system_wide: true,
                cpus: None,
            };
            let session = arm(&kernel, &cfg, None).unwrap();
            kernel.lock().run_to_completion(60_000_000_000);
            let res = session.finish().unwrap();
            res.rows
                .iter()
                .map(|r| (r.label.clone(), r.value, r.time_enabled, r.time_running))
                .collect::<Vec<_>>()
        };
        let clean = run(None);
        let wrapped = run(Some(
            FaultPlan::new(5).at(0, FaultKind::CounterWrap { headroom: 1_000 }),
        ));
        assert_eq!(wrapped, clean);
        assert_eq!(clean[0].1, 3_000_000, "cpu_core instructions");
        assert_eq!(clean[1].1, 2_000_000, "cpu_atom instructions");
    }

    #[test]
    fn system_wide_cpu_filter() {
        let kernel = boot();
        spawn(&kernel, "0", 3_000_000);
        spawn(&kernel, "16", 2_000_000);
        let cfg = StatConfig {
            events: vec!["instructions".into()],
            system_wide: true,
            cpus: Some(CpuMask::parse_cpulist("16-23").unwrap()),
        };
        let session = arm(&kernel, &cfg, None).unwrap();
        kernel.lock().run_to_completion(60_000_000_000);
        let res = session.finish().unwrap();
        // Only the atom rows exist (the core PMU covers no selected CPU).
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.total_for("cpu_atom"), 2_000_000);
    }

    #[test]
    fn asymmetric_event_expands_partially() {
        // topdown.slots exists only on the P-core PMU: one row, not two.
        let kernel = boot();
        let pid = spawn(&kernel, "0", 1_000_000);
        let cfg = StatConfig {
            events: vec!["topdown.slots".into()],
            system_wide: false,
            cpus: None,
        };
        let session = arm(&kernel, &cfg, Some(pid)).unwrap();
        kernel.lock().run_to_completion(60_000_000_000);
        let res = session.finish().unwrap();
        assert_eq!(res.rows.len(), 1);
        assert!(res.rows[0].label.starts_with("cpu_core/"));
        assert!(res.rows[0].value > 0);
    }

    #[test]
    fn unknown_event_rejected() {
        let kernel = boot();
        let pid = spawn(&kernel, "0", 1000);
        let cfg = StatConfig {
            events: vec!["bogus-event".into()],
            system_wide: false,
            cpus: None,
        };
        assert!(matches!(
            arm(&kernel, &cfg, Some(pid)),
            Err(StatError::UnknownEvent(_))
        ));
    }

    #[test]
    fn stat_span_lands_in_trace_export() {
        let kernel = Kernel::boot_handle(
            MachineSpec::raptor_lake_i7_13700(),
            KernelConfig {
                trace: simtrace::TraceConfig::enabled_with_cap(1 << 12),
                ..KernelConfig::default()
            },
        );
        let pid = spawn(&kernel, "0", 1_000_000);
        let cfg = StatConfig {
            events: vec!["instructions".into()],
            system_wide: false,
            cpus: None,
        };
        let session = arm(&kernel, &cfg, Some(pid)).unwrap();
        kernel.lock().run_to_completion(60_000_000_000);
        let res = session.finish().unwrap();
        // One balanced SpanBegin/SpanEnd pair covering the window.
        assert_eq!(res.span_events.len(), 2);
        assert_eq!(res.span_events[0].kind, EventKind::SpanBegin);
        assert_eq!(res.span_events[1].kind, EventKind::SpanEnd);
        assert_eq!(res.span_events[0].code, span::STAT);
        assert!(res.span_events[1].t_ns > res.span_events[0].t_ns);
        let mut tracks = kernel.lock().trace_tracks();
        tracks.push(simtrace::Track::new("simperf", res.span_events.clone()));
        let json = simtrace::chrome_trace_json(&tracks);
        assert!(jsonw::validate(&json), "{json}");
        assert!(json.contains("\"name\":\"stat\""), "{json}");
        assert!(json.contains("simperf"), "{json}");
    }

    #[test]
    fn stat_span_empty_when_tracing_off() {
        let kernel = boot();
        let pid = spawn(&kernel, "0", 1_000);
        let session = arm(&kernel, &StatConfig::default_events(), Some(pid)).unwrap();
        kernel.lock().run_to_completion(60_000_000_000);
        assert!(session.finish().unwrap().span_events.is_empty());
    }

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(1_004_300), "1,004,300");
        assert_eq!(group_digits(42), "42");
        assert_eq!(group_digits(1_000), "1,000");
    }
}
