//! LIKWID-marker-style region instrumentation.
//!
//! LIKWID's marker API (`LIKWID_MARKER_START/STOP`) lets an application
//! caliper *named code regions* instead of the whole run, which is what
//! makes per-kernel event validation practical: each analytic kernel gets
//! its own region with its own counts. This module is that API over the
//! simulated PAPI stack, with the `Probe`-style lifecycle (init → begin →
//! end → report) and two properties LIKWID users rely on:
//!
//! * **nestable** — regions may enclose other regions (strict LIFO);
//!   every region accumulates *inclusive* counts, like LIKWID;
//! * **per-core-type aggregation** — hardware presets expand to one
//!   counter row per core-type PMU (the §V.2 hybrid expansion), so a
//!   region's report can answer "how many instructions on the P cores
//!   vs the E cores" directly. Software events (`perf_sw::*`) are
//!   kernel-wide and contribute a single row.
//!
//! Region boundaries can be driven two ways: directly (`begin`/`end`
//! from host code between ticks) or from *markers inside the workload*
//! — `Op::Call` hooks built with [`begin_hook`]/[`end_hook`], serviced
//! by [`Regions::run_marked`]. Begins and ends are recorded to the
//! flight recorder as `region_begin`/`region_end` events.
//!
//! The EventSet starts once, at [`Regions::init`], and regions attribute
//! counts by read deltas. So PAPI's injected start overhead
//! ([`crate::PapiConfig::overhead_instructions`]) is charged once per
//! session, not per region: it is the task's next work after `init`,
//! ahead of any in-workload marker.

use crate::{Attach, EventSetId, Papi, PapiError, Preset};
use simcpu::types::{CoreType, Nanos};
use simos::kernel::{run_with_hooks, KernelHandle};
use simos::task::{HookId, Pid};
use simtrace::{EventKind, TraceSink, Track};

/// Hook-id namespace for region markers ("RG" in ASCII), leaving the
/// low bits for `region_id << 1 | is_end`.
pub const REGION_HOOK_BASE: u32 = 0x5247_0000;

/// Identifier of a registered region (dense, registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u32);

/// The `Op::Call` hook a workload emits to open region `r`.
pub fn begin_hook(r: RegionId) -> HookId {
    HookId(REGION_HOOK_BASE | (r.0 << 1))
}

/// The `Op::Call` hook a workload emits to close region `r`.
pub fn end_hook(r: RegionId) -> HookId {
    HookId(REGION_HOOK_BASE | (r.0 << 1) | 1)
}

/// Decode a marker hook: `(region, is_end)`, or `None` for hooks from
/// other namespaces (which `run_marked` leaves to their owners).
pub fn decode_hook(h: HookId) -> Option<(RegionId, bool)> {
    if h.0 & 0xFFFF_0000 != REGION_HOOK_BASE {
        return None;
    }
    let low = h.0 & 0xFFFF;
    Some((RegionId(low >> 1), low & 1 == 1))
}

/// Region API errors.
#[derive(Debug)]
pub enum RegionError {
    Papi(PapiError),
    /// `begin`/`end` named a region that was never `region_init`ed.
    UnknownRegion(String),
    /// `end` did not match the innermost open region (non-LIFO nesting).
    Mismatched {
        open: String,
        ended: String,
    },
    /// `end` with no region open.
    NotActive(String),
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::Papi(e) => write!(f, "papi: {e}"),
            RegionError::UnknownRegion(n) => write!(f, "unknown region '{n}'"),
            RegionError::Mismatched { open, ended } => {
                write!(f, "region end '{ended}' while '{open}' is innermost")
            }
            RegionError::NotActive(n) => write!(f, "region '{n}' ended but none open"),
        }
    }
}

impl std::error::Error for RegionError {}

impl From<PapiError> for RegionError {
    fn from(e: PapiError) -> RegionError {
        RegionError::Papi(e)
    }
}

/// One counter row of a region: a user-facing event (a preset's `PAPI_*`
/// name, or a native as given), the native that implements it, and (for
/// core PMUs) which core type it counts on.
#[derive(Debug, Clone)]
pub struct RegionCounter {
    pub event: String,
    pub native: String,
    pub core_type: Option<CoreType>,
    pub value: u64,
}

/// Aggregated results for one region.
#[derive(Debug, Clone)]
pub struct RegionSummary {
    pub name: String,
    /// Completed begin/end pairs.
    pub count: u64,
    /// Inclusive time spent inside the region, ns.
    pub time_ns: u64,
    pub counters: Vec<RegionCounter>,
}

impl RegionSummary {
    /// Total for a user event, summed across core types (§V.2
    /// DERIVED_ADD applied region-locally).
    pub fn value(&self, event: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.event == event)
            .map(|c| c.value)
            .sum()
    }

    /// Total for a user event on one core type.
    pub fn value_on(&self, event: &str, ct: CoreType) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.event == event && c.core_type == Some(ct))
            .map(|c| c.value)
            .sum()
    }
}

/// The report for a whole session, one summary per region in
/// registration order.
#[derive(Debug, Clone)]
pub struct RegionReport {
    pub regions: Vec<RegionSummary>,
}

impl RegionReport {
    pub fn region(&self, name: &str) -> Option<&RegionSummary> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// LIKWID-style text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.regions {
            out.push_str(&format!(
                "Region {} | count {} | time {:.6} s\n",
                r.name,
                r.count,
                r.time_ns as f64 / 1e9
            ));
            for c in &r.counters {
                let ct = c
                    .core_type
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into());
                out.push_str(&format!(
                    "  {:<14} {:<40} {:<12} {:>16}\n",
                    c.event, c.native, ct, c.value
                ));
            }
        }
        out
    }

    /// JSON via `jsonw` (validated, dep-free).
    pub fn render_json(&self) -> String {
        let mut w = jsonw::JsonWriter::new();
        w.begin_obj();
        w.field_str("tool", "simperf-regions");
        w.key("regions");
        w.begin_arr();
        for r in &self.regions {
            w.begin_obj();
            w.field_str("region", &r.name);
            w.field_u64("count", r.count);
            w.field_u64("time_ns", r.time_ns);
            w.key("counters");
            w.begin_arr();
            for c in &r.counters {
                w.begin_obj();
                w.field_str("event", &c.event);
                w.field_str("native", &c.native);
                match c.core_type {
                    Some(t) => w.field_str("core_type", &t.to_string()),
                    None => w.field_str("core_type", "-"),
                }
                w.field_u64("value", c.value);
                w.end_obj();
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

struct RegionData {
    name: String,
    count: u64,
    time_ns: u64,
    totals: Vec<u64>,
}

struct OpenRegion {
    region: usize,
    t0_ns: u64,
    snapshot: Vec<u64>,
}

/// A live region-measurement session (the `Probe` lifecycle).
pub struct Regions {
    kernel: KernelHandle,
    papi: Papi,
    es: EventSetId,
    pid: Pid,
    /// Per counter row: (user event name, core type if a core PMU).
    row_meta: Vec<(String, Option<CoreType>)>,
    natives: Vec<String>,
    regions: Vec<RegionData>,
    stack: Vec<OpenRegion>,
    trace: TraceSink,
}

impl Regions {
    /// `region_init` half one: build the session over `papi`. Opens one
    /// hybrid EventSet attached to `pid` counting `events` (`PAPI_*`
    /// preset names, which expand per core-type PMU, or fully-qualified
    /// natives), and starts counting (regions only *attribute* counts;
    /// the set runs for the whole session).
    pub fn init<S: AsRef<str>>(
        mut papi: Papi,
        pid: Pid,
        events: &[S],
    ) -> Result<Regions, RegionError> {
        let kernel = papi.kernel();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid))?;
        let mut row_meta = Vec::new();
        for name in events {
            let name = name.as_ref();
            let (label, natives) = match Preset::from_papi_name(name) {
                Some(p) => (p.papi_name(), papi.preset_native_names(p)?),
                None => (name, vec![name.to_string()]),
            };
            for native in natives {
                papi.add_named(es, &native)?;
                row_meta.push((label.to_string(), None));
            }
        }
        let natives = papi.native_names(es)?;
        for (meta, native) in row_meta.iter_mut().zip(&natives) {
            meta.1 = core_type_of(&papi, native);
        }
        papi.start(es)?;
        let trace = {
            let k = kernel.lock();
            TraceSink::new(&k.config().trace)
        };
        Ok(Regions {
            kernel,
            papi,
            es,
            pid,
            row_meta,
            natives,
            regions: Vec::new(),
            stack: Vec::new(),
            trace,
        })
    }

    /// Register a region; markers refer to it by the returned id.
    /// Registering the same name twice returns the existing id.
    pub fn region_init(&mut self, name: &str) -> RegionId {
        if let Some(i) = self.regions.iter().position(|r| r.name == name) {
            return RegionId(i as u32);
        }
        self.regions.push(RegionData {
            name: name.to_string(),
            count: 0,
            time_ns: 0,
            totals: vec![0; self.row_meta.len()],
        });
        RegionId(self.regions.len() as u32 - 1)
    }

    /// The task this session instruments.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Open a region (LIKWID `MARKER_START`).
    pub fn begin(&mut self, name: &str) -> Result<(), RegionError> {
        let region = self
            .regions
            .iter()
            .position(|r| r.name == name)
            .ok_or_else(|| RegionError::UnknownRegion(name.to_string()))?;
        self.begin_id(RegionId(region as u32))
    }

    fn begin_id(&mut self, id: RegionId) -> Result<(), RegionError> {
        let region = id.0 as usize;
        if region >= self.regions.len() {
            return Err(RegionError::UnknownRegion(format!("#{}", id.0)));
        }
        let snapshot = self.read_values()?;
        let t0_ns = self.kernel.lock().time_ns();
        self.stack.push(OpenRegion {
            region,
            t0_ns,
            snapshot,
        });
        if self.trace.enabled() {
            self.trace.record(
                t0_ns,
                EventKind::RegionBegin,
                id.0,
                self.stack.len() as u64,
                0,
            );
        }
        Ok(())
    }

    /// Close a region (LIKWID `MARKER_STOP`). Must match the innermost
    /// open region.
    pub fn end(&mut self, name: &str) -> Result<(), RegionError> {
        let region = self
            .regions
            .iter()
            .position(|r| r.name == name)
            .ok_or_else(|| RegionError::UnknownRegion(name.to_string()))?;
        self.end_id(RegionId(region as u32))
    }

    fn end_id(&mut self, id: RegionId) -> Result<(), RegionError> {
        let region = id.0 as usize;
        if region >= self.regions.len() {
            return Err(RegionError::UnknownRegion(format!("#{}", id.0)));
        }
        let Some(top) = self.stack.last() else {
            return Err(RegionError::NotActive(self.regions[region].name.clone()));
        };
        if top.region != region {
            return Err(RegionError::Mismatched {
                open: self.regions[top.region].name.clone(),
                ended: self.regions[region].name.clone(),
            });
        }
        let now = self.read_values()?;
        let t_ns = self.kernel.lock().time_ns();
        let depth = self.stack.len() as u64;
        let open = self.stack.pop().expect("checked above");
        let data = &mut self.regions[region];
        data.count += 1;
        data.time_ns += t_ns.saturating_sub(open.t0_ns);
        for (tot, (a, b)) in data.totals.iter_mut().zip(now.iter().zip(&open.snapshot)) {
            *tot += a.saturating_sub(*b);
        }
        if self.trace.enabled() {
            self.trace
                .record(t_ns, EventKind::RegionEnd, id.0, depth, 0);
        }
        Ok(())
    }

    fn read_values(&mut self) -> Result<Vec<u64>, RegionError> {
        Ok(self
            .papi
            .read(self.es)?
            .into_iter()
            .map(|(_, v)| v)
            .collect())
    }

    /// Drive the kernel until the instrumented task exits (or `max_ns`
    /// elapses), servicing in-workload markers: [`begin_hook`]/[`end_hook`]
    /// calls from the instrumented task open and close regions; hooks from
    /// other namespaces (and other tasks) are resumed untouched.
    pub fn run_marked(&mut self, max_ns: Nanos) -> Result<(), RegionError> {
        let kernel = self.kernel.clone();
        let me = self.pid;
        let mut err = None;
        run_with_hooks(&kernel, me, max_ns, |_, pid, hook| {
            if err.is_some() || pid != me {
                return;
            }
            if let Some((region, is_end)) = decode_hook(hook) {
                let r = if is_end {
                    self.end_id(region)
                } else {
                    self.begin_id(region)
                };
                if let Err(e) = r {
                    err = Some(e);
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Build the report for everything measured so far.
    pub fn report(&self) -> RegionReport {
        let regions = self
            .regions
            .iter()
            .map(|r| RegionSummary {
                name: r.name.clone(),
                count: r.count,
                time_ns: r.time_ns,
                counters: r
                    .totals
                    .iter()
                    .enumerate()
                    .map(|(i, &value)| RegionCounter {
                        event: self.row_meta[i].0.clone(),
                        native: self.natives[i].clone(),
                        core_type: self.row_meta[i].1,
                        value,
                    })
                    .collect(),
            })
            .collect();
        RegionReport { regions }
    }

    /// Stop counting and return the final report (Probe `report_values`).
    pub fn finish(mut self) -> Result<RegionReport, RegionError> {
        self.papi.stop(self.es)?;
        Ok(self.report())
    }

    /// The region marker track for trace export, alongside
    /// [`simos::kernel::Kernel::trace_tracks`].
    pub fn trace_track(&self) -> Track {
        Track::new("regions", self.trace.events())
    }
}

/// Which core type a fully-qualified native counts on (`None` for
/// package-scope PMUs: software, RAPL, uncore).
fn core_type_of(papi: &Papi, fq_name: &str) -> Option<CoreType> {
    let prefix = fq_name.split("::").next()?;
    let (_, pmu) = papi.pfm().pmu_by_pfm_name(prefix)?;
    pmu.uarch.map(|u| u.params().core_type)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PapiConfig;
    use simcpu::machine::MachineSpec;
    use simcpu::phase::Phase;
    use simcpu::types::CpuMask;
    use simcpu::uarch::GOLDEN_COVE;
    use simos::kernel::{Kernel, KernelConfig};
    use simos::task::{Op, ScriptedProgram};

    fn boot(spec: MachineSpec) -> KernelHandle {
        Kernel::boot_handle(spec, KernelConfig::default())
    }

    /// PAPI without its injected start overhead.
    fn papi_without_overhead(kernel: &KernelHandle) -> Papi {
        let cfg = PapiConfig {
            overhead_instructions: 0,
            ..Default::default()
        };
        Papi::init_with(kernel.clone(), cfg).unwrap()
    }

    #[test]
    fn hook_codec_roundtrip() {
        for r in [0u32, 1, 77, 0x7FFF] {
            assert_eq!(
                decode_hook(begin_hook(RegionId(r))),
                Some((RegionId(r), false))
            );
            assert_eq!(
                decode_hook(end_hook(RegionId(r))),
                Some((RegionId(r), true))
            );
        }
        assert_eq!(decode_hook(HookId(0xCA11)), None, "foreign namespace");
    }

    #[test]
    fn marked_regions_attribute_counts_per_region() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let a = RegionId(0);
        let b = RegionId(1);
        let pid = kernel.lock().spawn(
            "marked",
            Box::new(ScriptedProgram::new([
                Op::Call(begin_hook(a)),
                Op::Compute(Phase::scalar(3_000_000)),
                Op::Call(end_hook(a)),
                Op::Call(begin_hook(b)),
                Op::Compute(Phase::scalar(1_000_000)),
                Op::Call(end_hook(b)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let papi = papi_without_overhead(&kernel);
        let mut regions = Regions::init(papi, pid, &["PAPI_TOT_INS", "PAPI_CTX_SW"]).unwrap();
        assert_eq!(regions.region_init("compute"), a);
        assert_eq!(regions.region_init("reduce"), b);
        regions.run_marked(60_000_000_000).unwrap();
        let report = regions.finish().unwrap();
        let compute = report.region("compute").unwrap();
        let reduce = report.region("reduce").unwrap();
        assert_eq!(compute.count, 1);
        assert_eq!(reduce.count, 1);
        assert_eq!(compute.value("PAPI_TOT_INS"), 3_000_000);
        assert_eq!(reduce.value("PAPI_TOT_INS"), 1_000_000);
        // Pinned to CPU 0 (a P core): all instructions on Performance.
        assert_eq!(
            compute.value_on("PAPI_TOT_INS", CoreType::Performance),
            3_000_000
        );
        assert_eq!(compute.value_on("PAPI_TOT_INS", CoreType::Efficiency), 0);
        assert!(compute.time_ns > 0);
        // Hook blocking forces a switch-out/in per region boundary.
        assert!(compute.value("PAPI_CTX_SW") >= 1);
    }

    #[test]
    fn nested_regions_accumulate_inclusively() {
        let kernel = boot(MachineSpec::orangepi_800());
        let outer = RegionId(0);
        let inner = RegionId(1);
        let pid = kernel.lock().spawn(
            "nested",
            Box::new(ScriptedProgram::new([
                Op::Call(begin_hook(outer)),
                Op::Compute(Phase::scalar(1_000_000)),
                Op::Call(begin_hook(inner)),
                Op::Compute(Phase::scalar(2_000_000)),
                Op::Call(end_hook(inner)),
                Op::Compute(Phase::scalar(1_000_000)),
                Op::Call(end_hook(outer)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let papi = papi_without_overhead(&kernel);
        let mut regions = Regions::init(papi, pid, &["PAPI_TOT_INS"]).unwrap();
        regions.region_init("outer");
        regions.region_init("inner");
        regions.run_marked(60_000_000_000).unwrap();
        let report = regions.finish().unwrap();
        assert_eq!(
            report.region("inner").unwrap().value("PAPI_TOT_INS"),
            2_000_000
        );
        // Inclusive: outer sees its own 2 M plus the nested 2 M.
        assert_eq!(
            report.region("outer").unwrap().value("PAPI_TOT_INS"),
            4_000_000
        );
        let json = report.render_json();
        assert!(jsonw::validate(&json), "{json}");
        assert!(report.render().contains("Region outer"));
    }

    #[test]
    fn non_lifo_end_is_rejected() {
        let kernel = boot(MachineSpec::skylake_quad());
        let pid = kernel.lock().spawn(
            "t",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(100_000_000)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let papi = papi_without_overhead(&kernel);
        let mut regions = Regions::init(papi, pid, &["PAPI_TOT_INS"]).unwrap();
        regions.region_init("a");
        regions.region_init("b");
        assert!(matches!(regions.end("a"), Err(RegionError::NotActive(_))));
        regions.begin("a").unwrap();
        regions.begin("b").unwrap();
        assert!(matches!(
            regions.end("a"),
            Err(RegionError::Mismatched { .. })
        ));
        regions.end("b").unwrap();
        regions.end("a").unwrap();
        assert!(matches!(
            regions.begin("nope"),
            Err(RegionError::UnknownRegion(_))
        ));
    }

    /// Region `a` runs twice and `b` once. PAPI's start overhead (the
    /// library default here) runs once, before the first region, so each
    /// region counts exactly its own work.
    #[test]
    fn regions_accumulate_per_name() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let a = RegionId(0);
        let b = RegionId(1);
        let pid = kernel.lock().spawn(
            "marked",
            Box::new(ScriptedProgram::new([
                Op::Call(begin_hook(a)),
                Op::Compute(Phase::scalar(200_000)),
                Op::Call(end_hook(a)),
                Op::Call(begin_hook(b)),
                Op::Compute(Phase::scalar(500_000)),
                Op::Call(end_hook(b)),
                Op::Call(begin_hook(a)),
                Op::Compute(Phase::scalar(200_000)),
                Op::Call(end_hook(a)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0, 16]),
            0,
        );
        let papi = Papi::init(kernel.clone()).unwrap();
        let mut regions = Regions::init(papi, pid, &["PAPI_TOT_INS", "PAPI_TOT_CYC"]).unwrap();
        assert_eq!(regions.region_init("a"), a);
        assert_eq!(regions.region_init("b"), b);
        regions.run_marked(120_000_000_000).unwrap();
        let report = regions.finish().unwrap();
        let ra = report.region("a").unwrap();
        let rb = report.region("b").unwrap();
        assert_eq!((ra.count, rb.count), (2, 1));
        assert_eq!(ra.value("PAPI_TOT_INS"), 400_000);
        assert_eq!(rb.value("PAPI_TOT_INS"), 500_000);
        assert!(ra.value("PAPI_TOT_CYC") > 0, "cycles counted");
        let text = report.render();
        assert!(text.contains("Region a | count 2"), "{text}");
    }

    /// Presets and fully qualified natives share one session: a hardware
    /// preset gets a row per core type, a core-PMU native one row on its
    /// core type, and a software native one kernel-wide row. Each is
    /// looked up by the name it was given.
    #[test]
    fn mixed_native_and_preset_events() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let r = RegionId(0);
        let pid = kernel.lock().spawn(
            "mixed",
            Box::new(ScriptedProgram::new([
                Op::Call(begin_hook(r)),
                Op::Compute(Phase::scalar(2_000_000)),
                Op::Call(end_hook(r)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let events = [
            "PAPI_TOT_INS",
            "PAPI_TOT_CYC",
            "adl_glc::TOPDOWN:SLOTS",
            "perf_sw::CPU_MIGRATIONS",
        ];
        let papi = Papi::init(kernel.clone()).unwrap();
        let mut regions = Regions::init(papi, pid, &events).unwrap();
        regions.region_init("mixed");
        regions.run_marked(60_000_000_000).unwrap();
        let report = regions.finish().unwrap();
        let region = report.region("mixed").unwrap();
        let rows = |event: &str| -> Vec<Option<CoreType>> {
            region
                .counters
                .iter()
                .filter(|c| c.event == event)
                .map(|c| c.core_type)
                .collect()
        };
        let per_type = vec![Some(CoreType::Performance), Some(CoreType::Efficiency)];
        assert_eq!(rows("PAPI_TOT_INS"), per_type);
        assert_eq!(rows("PAPI_TOT_CYC"), per_type);
        assert_eq!(
            rows("adl_glc::TOPDOWN:SLOTS"),
            vec![Some(CoreType::Performance)]
        );
        assert_eq!(rows("perf_sw::CPU_MIGRATIONS"), vec![None]);
        assert_eq!(region.counters.len(), 6);
        assert_eq!(region.value("PAPI_TOT_INS"), 2_000_000);
        // Slots are the P core's pipeline width × its cycles.
        let cycles = region.value_on("PAPI_TOT_CYC", CoreType::Performance);
        assert!(cycles > 0);
        assert_eq!(
            region.value("adl_glc::TOPDOWN:SLOTS"),
            GOLDEN_COVE.ipc_base.round() as u64 * cycles
        );
        assert_eq!(region.value("perf_sw::CPU_MIGRATIONS"), 0, "pinned");
    }
}
