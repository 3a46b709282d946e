//! # papi — a PAPI-style performance library with heterogeneous support
//!
//! This crate is the paper's contribution (C1), rebuilt in Rust over the
//! simulated `perf_event` substrate:
//!
//! * **Multi-PMU EventSets** (§IV.E): one EventSet may hold events from
//!   several perf PMUs (P-core + E-core + RAPL + uncore); internally it is
//!   split into one perf event group per PMU, and start/stop/read/reset
//!   fan out across the groups.
//! * **Multiple default PMUs** (§IV.D): unqualified event names search all
//!   core PMUs, P-core first.
//! * **Derived presets** (§V.2): `PAPI_TOT_INS` on a hybrid machine opens
//!   `adl_glc::INST_RETIRED:ANY` *and* `adl_grt::INST_RETIRED:ANY` and
//!   reports the sum.
//! * **Hetero-aware hardware info + sysdetect** (§IV.B, §V.1).
//! * **Uncore component merge** (§V.3): uncore events join ordinary
//!   EventSets; the old separate component remains as a deprecated alias.
//! * **Legacy mode**: the pre-paper behaviour — one PMU per EventSet, one
//!   default PMU, separate RAPL/uncore components, stock-libpfm4 ARM
//!   detection — kept as an executable baseline (`PapiMode::Legacy`), so
//!   the paper's before/after comparisons (§IV.F) are reproducible.
//!
//! The caliper workflow the paper contrasts with the `perf` tool —
//! `PAPI_start()` / `PAPI_stop()` around arbitrary code regions — is
//! [`Papi::start`]/[`Papi::stop`] driven from instrumentation hooks;
//! [`Papi::run_instrumented`] is the canonical loop. As in real PAPI,
//! `start` and `reset` issue only reset/enable ioctls, no reads. Named,
//! nested regions over one running EventSet are [`regions`], LIKWID's
//! marker API.
//!
//! The library never sees the 48-bit hardware counter width: the
//! kernel's `read()` returns 64-bit counts, and the rdpmc path of
//! [`Papi::read_fast`] gets exact sums from
//! [`simos::perf::UserPage::rdpmc`], which sign-extends the page's
//! hardware bits from its `pmc_width`.

pub mod avail;
pub mod error;
pub mod eventset;
pub mod hwinfo;
pub mod metrics;
pub mod preset_table;
pub mod presets;
pub mod regions;
pub mod sysdetect;

pub use error::PapiError;
pub use eventset::{Attach, Component, EsState, EventSet, EventSetId};
pub use hwinfo::HardwareInfo;
pub use preset_table::{parse_preset_csv, PresetDef, PresetTableError};
pub use presets::Preset;
pub use sysdetect::{DetectMethod, DetectionReport};

use eventset::{plan_groups, Entry, NativeRef};
use pfmlib::{Pfm, PfmOptions};
use simcpu::phase::Phase;
use simcpu::types::{CpuId, Nanos};
use simos::kernel::{run_with_hooks, KernelHandle};
use simos::perf::{EventFd, PerfError, PmuKind, ReadValue};
use simos::task::{HookId, Op, Pid};
use simtrace::{EventKind, TraceSink, Track};
use std::collections::HashMap;

/// Library behaviour: the paper's patched stack, or the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PapiMode {
    /// Heterogeneous support on (the paper's contribution).
    Hybrid,
    /// Original PAPI 7.1 behaviour (errors on hybrid configurations).
    Legacy,
}

/// Library configuration.
#[derive(Debug, Clone)]
pub struct PapiConfig {
    pub mode: PapiMode,
    /// Instructions of in-process measurement-library overhead charged at
    /// each `start()` (the "minor overhead inherent in using PAPI" that
    /// makes the §IV.F averages land slightly above 1 M).
    pub overhead_instructions: u64,
}

impl Default for PapiConfig {
    fn default() -> PapiConfig {
        PapiConfig {
            mode: PapiMode::Hybrid,
            overhead_instructions: 4_300,
        }
    }
}

/// Component registry row (`PAPI_get_component_info`).
#[derive(Debug, Clone)]
pub struct ComponentInfo {
    pub name: &'static str,
    pub description: String,
    /// Disabled components exist but cannot host EventSets.
    pub enabled: bool,
    /// §V.3: the uncore component is deprecated once merged.
    pub deprecated: bool,
}

/// One measured region's values, labeled as added.
pub type Values = Vec<(String, u64)>;

/// How trustworthy one returned value is (graceful-degradation metadata
/// for [`Papi::read_with_quality`]).
///
/// Ordered worst-last so entry qualities aggregate with `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadQuality {
    /// Counted the whole time it could have: the value is exact. (A
    /// zero from the wrong-core-type half of a hybrid derived preset is
    /// still `Ok` — that gap is expected, not a measurement failure.)
    Ok,
    /// The event lost its hardware counter part of the time (kernel
    /// multiplexing, NMI-watchdog theft) and the value is scaled up over
    /// the involuntarily uncounted window.
    Scaled,
    /// No usable measurement: the event never held a counter while its
    /// context was live, or its group read kept failing. The value is
    /// whatever partial data exists (usually 0) — never silently wrong,
    /// always flagged.
    Lost,
}

/// Labeled values plus per-entry quality.
pub type QualifiedValues = Vec<(String, u64, ReadQuality)>;

/// Per-fd counter snapshots plus the group leaders whose reads kept
/// failing past the transient-retry budget.
type GroupReads = (HashMap<EventFd, ReadValue>, Vec<(EventFd, PerfError)>);

/// Bounded retry for transient kernel errors (EINTR/EBUSY injected by
/// the fault layer). Deterministic: a fixed attempt budget, no clocks.
/// Every failed attempt has already been charged to the kernel's syscall
/// ledger, so retry cost shows up in [`Papi::syscall_stats`].
const TRANSIENT_RETRY_BUDGET: u32 = 8;

fn retry_transient<T>(mut f: impl FnMut() -> Result<T, PerfError>) -> Result<T, PerfError> {
    let mut attempts = 0;
    loop {
        match f() {
            Err(e) if e.is_transient() && attempts < TRANSIENT_RETRY_BUDGET => attempts += 1,
            other => return other,
        }
    }
}

/// Sum one entry's member counters, loss-scaling each, and report the
/// worst member quality. `read()` returns 64-bit counts (the kernel folds
/// the hardware counter width), so values are summed as read.
///
/// * A member absent from `by_fd` (its group read failed persistently)
///   is `Lost` and contributes nothing.
/// * `time_running == 0` with `time_matched > 0` means the event had
///   countable time but never held a counter: `Lost`.
/// * `time_running < time_matched` means it held a counter part of that
///   time: scale the count over the gap, `Scaled`.
/// * Time outside `time_matched` (wrong core type for this PMU) is the
///   expected hybrid gap and is neither scaled over nor penalized.
fn entry_value(
    es: &EventSet,
    entry: &Entry,
    by_fd: &HashMap<EventFd, ReadValue>,
) -> Result<(u64, ReadQuality), PapiError> {
    let mut total = 0u64;
    let mut quality = ReadQuality::Ok;
    for &ni in &entry.native_indices {
        let fd = es.natives[ni]
            .fd
            .ok_or(PapiError::State("event not opened"))?;
        let Some(rv) = by_fd.get(&fd) else {
            quality = quality.max(ReadQuality::Lost);
            continue;
        };
        if rv.time_running == 0 {
            if rv.time_matched > 0 {
                quality = quality.max(ReadQuality::Lost);
            }
            // matched == 0: nothing to count (e.g. wrong-core-type half
            // of a derived preset) — an exact zero.
        } else if rv.time_running < rv.time_matched {
            total += (rv.value as f64 * rv.time_matched as f64 / rv.time_running as f64) as u64;
            quality = quality.max(ReadQuality::Scaled);
        } else {
            total += rv.value;
        }
    }
    Ok((total, quality))
}

/// The initialized library.
pub struct Papi {
    kernel: KernelHandle,
    pfm: Pfm,
    cfg: PapiConfig,
    eventsets: Vec<Option<EventSet>>,
    hwinfo: HardwareInfo,
    detection: DetectionReport,
    /// Data-driven preset definitions (the PAPI_events.csv analogue).
    preset_defs: Vec<preset_table::PresetDef>,
    /// Per (eventset, entry): the sequence number of the next overflow
    /// record to drain (see `simos::perf::SampleRing`).
    overflow_seen: HashMap<(usize, usize), u64>,
    /// Flight recorder for the library's own start/stop/read activity,
    /// inheriting the kernel's trace configuration.
    trace: TraceSink,
}

impl Papi {
    /// Initialize with heterogeneous support (the paper's stack).
    pub fn init(kernel: KernelHandle) -> Result<Papi, PapiError> {
        Papi::init_with(kernel, PapiConfig::default())
    }

    /// Initialize the legacy (pre-paper) library.
    pub fn init_legacy(kernel: KernelHandle) -> Result<Papi, PapiError> {
        Papi::init_with(
            kernel,
            PapiConfig {
                mode: PapiMode::Legacy,
                ..Default::default()
            },
        )
    }

    /// Initialize with explicit configuration.
    pub fn init_with(kernel: KernelHandle, cfg: PapiConfig) -> Result<Papi, PapiError> {
        let (pfm, detection, hwinfo, trace) = {
            let k = kernel.lock();
            let pfm = Pfm::initialize(
                &k,
                PfmOptions {
                    // Stock libpfm4 (no ARM multi-PMU patch) in legacy mode.
                    arm_multi_pmu: cfg.mode == PapiMode::Hybrid,
                },
            )?;
            let detection = sysdetect::detect(&k);
            let hwinfo = hwinfo::hardware_info_with(&k, &detection);
            let trace = TraceSink::new(&k.config().trace);
            (pfm, detection, hwinfo, trace)
        };
        Ok(Papi {
            kernel,
            pfm,
            cfg,
            eventsets: Vec::new(),
            hwinfo,
            detection,
            preset_defs: preset_table::parse_preset_csv(preset_table::BUILTIN_CSV)
                .expect("built-in preset table is valid"),
            overflow_seen: HashMap::new(),
            trace,
        })
    }

    // ---- introspection ----------------------------------------------------

    pub fn mode(&self) -> PapiMode {
        self.cfg.mode
    }

    /// `PAPI_get_hardware_info`, hetero-aware (§V.1).
    pub fn hardware_info(&self) -> &HardwareInfo {
        &self.hwinfo
    }

    /// The sysdetect component's report (§IV.B).
    pub fn detection_report(&self) -> &DetectionReport {
        &self.detection
    }

    /// The underlying libpfm handle.
    pub fn pfm(&self) -> &Pfm {
        &self.pfm
    }

    /// A clone of the kernel handle (for workload setup and telemetry).
    pub fn kernel(&self) -> KernelHandle {
        self.kernel.clone()
    }

    /// The library's own flight-recorder track (start/stop/read events),
    /// for merging into an export alongside [`simos::kernel::Kernel::trace_tracks`].
    pub fn trace_track(&self) -> Track {
        Track::new("papi", self.trace.events())
    }

    /// Cumulative perf syscall overhead (§V.5).
    pub fn syscall_stats(&self) -> simos::kernel::SyscallStats {
        self.kernel.lock().syscall_stats()
    }

    /// `PAPI_enum_cmp_info`: the component registry.
    pub fn components(&self) -> Vec<ComponentInfo> {
        let k = self.kernel.lock();
        let has_rapl = k.machine().rapl().available();
        let has_uncore = k.machine().llc_bytes() > 0;
        let hybrid = self.cfg.mode == PapiMode::Hybrid;
        let mut v = vec![ComponentInfo {
            name: "perf_event",
            description: if hybrid {
                "Linux perf_event CPU counters (multi-PMU EventSets; RAPL and \
                 uncore events may be mixed in)"
                    .into()
            } else {
                "Linux perf_event CPU counters (single PMU per EventSet)".into()
            },
            enabled: true,
            deprecated: false,
        }];
        if has_rapl {
            v.push(ComponentInfo {
                name: "rapl",
                description: "RAPL energy counters".into(),
                enabled: !hybrid, // merged into perf_event by the new code
                deprecated: hybrid,
            });
        }
        if has_uncore {
            v.push(ComponentInfo {
                name: "perf_event_uncore",
                description: if hybrid {
                    "deprecated alias: uncore events now join ordinary EventSets (§V.3)".into()
                } else {
                    "separate uncore component".into()
                },
                enabled: !hybrid,
                deprecated: hybrid,
            });
        }
        v
    }

    /// All preset events available on this machine.
    pub fn available_presets(&self) -> Vec<Preset> {
        presets::ALL_PRESETS
            .iter()
            .copied()
            .filter(|p| self.preset_natives(p.papi_name()).is_ok())
            .collect()
    }

    /// Fully-qualified native event names a preset maps to on this machine
    /// (one per covered PMU in hybrid mode), without creating an EventSet.
    pub fn preset_native_names(&self, preset: Preset) -> Result<Vec<String>, PapiError> {
        Ok(self
            .preset_natives(preset.papi_name())?
            .into_iter()
            .map(|e| e.fq_name)
            .collect())
    }

    // ---- EventSet lifecycle -------------------------------------------------

    /// `PAPI_create_eventset`.
    pub fn create_eventset(&mut self) -> EventSetId {
        let id = EventSetId(self.eventsets.len());
        self.eventsets.push(Some(EventSet::new(id)));
        id
    }

    /// `PAPI_destroy_eventset`: closes all fds.
    pub fn destroy_eventset(&mut self, id: EventSetId) -> Result<(), PapiError> {
        let es = self.es(id)?;
        if es.state == EsState::Running {
            return Err(PapiError::State("cannot destroy a running EventSet"));
        }
        let leaders = es.group_leaders.clone();
        {
            let mut k = self.kernel.lock();
            for fd in leaders {
                let _ = k.close_event(fd);
            }
        }
        self.eventsets[id.0] = None;
        Ok(())
    }

    /// `PAPI_attach`: bind the EventSet to a task or CPU. Must happen
    /// before the first start.
    pub fn attach(&mut self, id: EventSetId, attach: Attach) -> Result<(), PapiError> {
        let es = self.es_mut(id)?;
        if es.opened() {
            return Err(PapiError::State("cannot re-attach an opened EventSet"));
        }
        es.attach = Some(attach);
        Ok(())
    }

    /// `PAPI_overflow`: arm an overflow threshold on one entry. Every
    /// `threshold` counts of that entry's (first) native event generates an
    /// overflow record retrievable with [`Papi::take_overflows`] — the
    /// counting-mode analogue of real PAPI's overflow callbacks, built on
    /// the kernel's sampling machinery. Must precede the first start.
    pub fn set_overflow(
        &mut self,
        id: EventSetId,
        entry_idx: usize,
        threshold: u64,
    ) -> Result<(), PapiError> {
        if threshold == 0 {
            return Err(PapiError::State("overflow threshold must be nonzero"));
        }
        let es = self.es_mut(id)?;
        if es.opened() {
            return Err(PapiError::State(
                "overflow must be armed before first start",
            ));
        }
        let ni = *es
            .entries
            .get(entry_idx)
            .ok_or(PapiError::State("no such entry"))?
            .native_indices
            .first()
            .ok_or(PapiError::State("entry has no natives"))?;
        es.natives[ni].attr.sample_period = threshold;
        Ok(())
    }

    /// Drain the overflow records accumulated since the last call, for
    /// entry `entry_idx` of EventSet `id`: `(time_ns, cpu, value)` per
    /// overflow.
    pub fn take_overflows(
        &mut self,
        id: EventSetId,
        entry_idx: usize,
    ) -> Result<Vec<(u64, usize, u64)>, PapiError> {
        let es = self.es(id)?;
        if !es.opened() {
            return Err(PapiError::State("EventSet never started"));
        }
        let fd = {
            let ni = *es
                .entries
                .get(entry_idx)
                .ok_or(PapiError::State("no such entry"))?
                .native_indices
                .first()
                .ok_or(PapiError::State("entry has no natives"))?;
            es.natives[ni]
                .fd
                .ok_or(PapiError::State("event not opened"))?
        };
        let k = self.kernel.lock();
        let samples = k.event_samples(fd)?;
        // Return the records taken since the last drain of this entry.
        let key = (id.0, entry_idx);
        let seen = self.overflow_seen.get(&key).copied().unwrap_or(0);
        let fresh: Vec<(u64, usize, u64)> = samples
            .since(seen)
            .map(|r| (r.time_ns, r.cpu.0, r.value))
            .collect();
        let taken = samples.taken();
        drop(k);
        self.overflow_seen.insert(key, taken);
        Ok(fresh)
    }

    /// `PAPI_set_multiplex`: must precede the first start.
    pub fn set_multiplex(&mut self, id: EventSetId) -> Result<(), PapiError> {
        let es = self.es_mut(id)?;
        if es.opened() {
            return Err(PapiError::MultiplexTooLate);
        }
        es.multiplex = true;
        Ok(())
    }

    /// `PAPI_add_named_event`.
    pub fn add_named(&mut self, id: EventSetId, name: &str) -> Result<(), PapiError> {
        let resolved = self.resolve_name(name)?;
        let enc = self.pfm.encode(&resolved).map_err(|e| match e {
            pfmlib::PfmError::UnknownEvent(_) | pfmlib::PfmError::NotInDefaultPmus(_) => {
                PapiError::NoSuchEvent(name.to_string())
            }
            other => PapiError::Pfm(other),
        })?;
        let pmu = &self.pfm.pmus()[enc.pmu_index];
        let native = NativeRef {
            fq_name: enc.fq_name.clone(),
            attr: enc.attr,
            pmu_kind: pmu.kind,
            pmu_first_cpu: pmu.cpus.iter().next().unwrap_or(CpuId(0)),
            fd: None,
        };
        self.push_entry(id, name.to_string(), vec![native])
    }

    /// `PAPI_add_event` with a preset: derived-add across core types on
    /// hybrid machines (§V.2), resolved through the preset table.
    pub fn add_preset(&mut self, id: EventSetId, preset: Preset) -> Result<(), PapiError> {
        self.add_preset_named(id, preset.papi_name())
    }

    /// Extend/override the preset table at runtime (§V.2: the
    /// `PAPI_events.csv` path, hybrid-aware). Later definitions win.
    pub fn load_preset_csv(&mut self, text: &str) -> Result<usize, PresetTableError> {
        let defs = preset_table::parse_preset_csv(text)?;
        let n = defs.len();
        for def in defs {
            if let Some(existing) = self.preset_defs.iter_mut().find(|d| d.name == def.name) {
                *existing = def;
            } else {
                self.preset_defs.push(def);
            }
        }
        Ok(n)
    }

    /// Add a preset by its `PAPI_*` name, resolved through the data-driven
    /// table (which `load_preset_csv` may have extended).
    pub fn add_preset_named(&mut self, id: EventSetId, name: &str) -> Result<(), PapiError> {
        let natives: Vec<NativeRef> = self
            .preset_natives(name)?
            .into_iter()
            .map(|enc| {
                let pmu = &self.pfm.pmus()[enc.pmu_index];
                NativeRef {
                    fq_name: enc.fq_name,
                    attr: enc.attr,
                    pmu_kind: pmu.kind,
                    pmu_first_cpu: pmu.cpus.iter().next().unwrap_or(CpuId(0)),
                    fd: None,
                }
            })
            .collect();
        self.push_entry(id, name.to_ascii_uppercase(), natives)
    }

    /// All preset names available on this machine via the data table.
    pub fn preset_names(&self) -> Vec<String> {
        let vendor = {
            let k = self.kernel.lock();
            k.machine().spec().vendor
        };
        self.preset_defs
            .iter()
            .filter(|d| d.native_for(vendor).is_some())
            .map(|d| d.name.clone())
            .collect()
    }

    /// Natives implementing the preset table's `name` (any case) on this
    /// machine. The definition is borrowed, not cloned: resolving a
    /// preset allocates only its encodings.
    fn preset_natives(&self, name: &str) -> Result<Vec<pfmlib::EncodedEvent>, PapiError> {
        let unavailable = || PapiError::PresetUnavailable(name.to_string());
        let vendor = self.kernel.lock().machine().spec().vendor;
        let native = self
            .preset_defs
            .iter()
            .find(|d| d.name.eq_ignore_ascii_case(name))
            .and_then(|d| d.native_for(vendor))
            .ok_or_else(unavailable)?;
        let encs = match self.cfg.mode {
            PapiMode::Hybrid => self.pfm.encode_on_all_defaults(native),
            // Already-prefixed natives (software events) name their PMU.
            PapiMode::Legacy if native.contains("::") => self.pfm.encode(native).map(|e| vec![e]),
            PapiMode::Legacy => {
                // One default PMU only.
                let first = &self.pfm.default_pmus()[0].pfm_name;
                self.pfm
                    .encode(&format!("{first}::{native}"))
                    .map(|e| vec![e])
            }
        };
        match encs {
            Ok(encs) if !encs.is_empty() => Ok(encs),
            _ => Err(unavailable()),
        }
    }

    /// Legacy name resolution: unprefixed events search only the first
    /// default PMU (§IV.D's pre-fix world).
    fn resolve_name(&self, name: &str) -> Result<String, PapiError> {
        if self.cfg.mode == PapiMode::Hybrid || name.contains("::") {
            return Ok(name.to_string());
        }
        let first = &self.pfm.default_pmus()[0].pfm_name;
        Ok(format!("{first}::{name}"))
    }

    fn push_entry(
        &mut self,
        id: EventSetId,
        label: String,
        natives: Vec<NativeRef>,
    ) -> Result<(), PapiError> {
        let mode = self.cfg.mode;
        let es = self.es_mut(id)?;
        if es.state == EsState::Running {
            return Err(PapiError::State("cannot add events while running"));
        }
        if es.opened() {
            return Err(PapiError::State(
                "cannot add events after the EventSet has been started once",
            ));
        }
        // Legacy restrictions.
        if mode == PapiMode::Legacy {
            for n in &natives {
                let comp = Component::for_pmu_kind(n.pmu_kind);
                match es.component {
                    None => {}
                    Some(c) if c == comp => {}
                    Some(c) => {
                        return Err(PapiError::ComponentConflict {
                            eventset_component: c.name(),
                            event_component: comp.name(),
                        })
                    }
                }
                if n.pmu_kind == PmuKind::CoreHw {
                    if let Some(existing) = es.natives.iter().find(|e| {
                        e.pmu_kind == PmuKind::CoreHw && e.attr.pmu_type != n.attr.pmu_type
                    }) {
                        return Err(PapiError::MultiPmuUnsupported {
                            existing: existing.fq_name.clone(),
                            adding: n.fq_name.clone(),
                        });
                    }
                }
            }
        }
        // Bind component (legacy: by first event; hybrid: always perf_event).
        let comp = match mode {
            PapiMode::Hybrid => Component::PerfEvent,
            PapiMode::Legacy => Component::for_pmu_kind(natives[0].pmu_kind),
        };
        es.component.get_or_insert(comp);

        let base = es.natives.len();
        let idxs: Vec<usize> = (base..base + natives.len()).collect();
        es.natives.extend(natives);
        es.entries.push(Entry {
            label,
            native_indices: idxs,
        });
        Ok(())
    }

    /// Number of user-visible entries.
    pub fn num_events(&self, id: EventSetId) -> Result<usize, PapiError> {
        Ok(self.es(id)?.entries.len())
    }

    /// Labels in add order.
    pub fn event_labels(&self, id: EventSetId) -> Result<Vec<String>, PapiError> {
        Ok(self
            .es(id)?
            .entries
            .iter()
            .map(|e| e.label.clone())
            .collect())
    }

    /// Fully-qualified native names (presets expand to several).
    pub fn native_names(&self, id: EventSetId) -> Result<Vec<String>, PapiError> {
        Ok(self
            .es(id)?
            .natives
            .iter()
            .map(|n| n.fq_name.clone())
            .collect())
    }

    /// How many perf event groups this EventSet spans (the §V.5
    /// indirection metric: 1 on homogeneous, ≥2 on hybrid).
    pub fn num_groups(&self, id: EventSetId) -> Result<usize, PapiError> {
        let es = self.es(id)?;
        if es.opened() {
            Ok(es.group_leaders.len())
        } else {
            Ok(plan_groups(
                &es.natives
                    .iter()
                    .map(|n| n.attr.pmu_type)
                    .collect::<Vec<_>>(),
                es.multiplex,
            )
            .len())
        }
    }

    // ---- start/stop/read ---------------------------------------------------

    /// `PAPI_start`.
    pub fn start(&mut self, id: EventSetId) -> Result<(), PapiError> {
        // Component-exclusivity: one running EventSet per component.
        let my_comp = {
            let es = self.es(id)?;
            if es.state == EsState::Running {
                return Err(PapiError::State("EventSet already running"));
            }
            if es.natives.is_empty() {
                return Err(PapiError::State("EventSet is empty"));
            }
            es.component.unwrap_or(Component::PerfEvent)
        };
        for other in self.eventsets.iter().flatten() {
            if other.id != id && other.state == EsState::Running && other.component == Some(my_comp)
            {
                return Err(PapiError::ComponentBusy(my_comp.name()));
            }
        }
        self.ensure_opened(id)?;
        // Automatic multiplexing fallback (graceful degradation): a group
        // that cannot hold all its counters at once — GP overcommit, or
        // the NMI watchdog squatting on a fixed counter it needs — would
        // never be co-scheduled and would read zero forever. Detect that
        // here and transparently re-open the set as single-event groups;
        // rotation then time-shares the counters and reads surface as
        // scaled estimates flagged [`ReadQuality::Scaled`].
        if !self.es(id)?.multiplex {
            let leaders = self.es(id)?.group_leaders.clone();
            let unfit = {
                let k = self.kernel.lock();
                leaders
                    .iter()
                    .any(|l| !k.group_schedulable(*l).unwrap_or(true))
            };
            if unfit {
                self.reopen_multiplexed(id)?;
            }
        }
        let es = self.es(id)?;
        let leaders = es.group_leaders.clone();
        let attach = es.attach;
        {
            let mut k = self.kernel.lock();
            for fd in &leaders {
                k.ioctl_reset(*fd, true)?;
                k.ioctl_enable(*fd, true)?;
            }
            // In-process overhead: PAPI_start's tail executes inside the
            // measurement window.
            if let Some(Attach::Task(pid)) = attach {
                if self.cfg.overhead_instructions > 0 {
                    k.inject_ops(
                        pid,
                        [Op::Compute(Phase::scalar(self.cfg.overhead_instructions))],
                    );
                }
            }
        }
        self.es_mut(id)?.state = EsState::Running;
        if self.trace.enabled() {
            let t = self.kernel.lock().time_ns();
            self.trace
                .record(t, EventKind::PapiStart, id.0 as u32, 0, 0);
        }
        Ok(())
    }

    /// `PAPI_stop`: returns the final values.
    pub fn stop(&mut self, id: EventSetId) -> Result<Values, PapiError> {
        {
            let es = self.es(id)?;
            if es.state != EsState::Running {
                return Err(PapiError::State("EventSet not running"));
            }
        }
        let values = self.read(id)?;
        let leaders = self.es(id)?.group_leaders.clone();
        {
            let mut k = self.kernel.lock();
            for fd in &leaders {
                k.ioctl_disable(*fd, true)?;
            }
        }
        self.es_mut(id)?.state = EsState::Stopped;
        if self.trace.enabled() {
            let t = self.kernel.lock().time_ns();
            self.trace.record(t, EventKind::PapiStop, id.0 as u32, 0, 0);
        }
        Ok(values)
    }

    /// `PAPI_read`: one read syscall **per group** — the latency cost the
    /// paper attributes to heterogeneous measurement.
    ///
    /// Transient kernel errors are retried up to [`TRANSIENT_RETRY_BUDGET`]
    /// times; a group that still fails surfaces its error (no partial
    /// results on this strict path — use [`Papi::read_with_quality`] to
    /// degrade gracefully instead). Values from events that lost their
    /// hardware counter involuntarily (multiplexing, watchdog theft) are
    /// scaled over the uncounted window; time spent on a wrong-type core
    /// is never scaled over.
    pub fn read(&mut self, id: EventSetId) -> Result<Values, PapiError> {
        let (by_fd, mut failed) = self.read_groups(id)?;
        if let Some((_, e)) = failed.pop() {
            return Err(e.into());
        }
        let es = self.es(id)?;
        let mut out = Vec::with_capacity(es.entries.len());
        for entry in &es.entries {
            let (total, _) = entry_value(es, entry, &by_fd)?;
            out.push((entry.label.clone(), total));
        }
        // The strict path either returned exact/scaled-free values or
        // errored above, so quality is Ok by construction.
        if self.trace.enabled() {
            let t = self.kernel.lock().time_ns();
            self.trace.record(t, EventKind::PapiRead, id.0 as u32, 0, 0);
        }
        Ok(out)
    }

    /// Like [`Papi::read`], but degrades instead of failing: entries whose
    /// group read kept failing, or whose events never held a counter while
    /// countable, are returned with [`ReadQuality::Lost`] (and whatever
    /// partial value exists); scaled estimates carry
    /// [`ReadQuality::Scaled`]. Only errors that leave no EventSet to read
    /// (bad id, never started) are returned as `Err`.
    pub fn read_with_quality(&mut self, id: EventSetId) -> Result<QualifiedValues, PapiError> {
        let (by_fd, _failed) = self.read_groups(id)?;
        let es = self.es(id)?;
        let mut out = Vec::with_capacity(es.entries.len());
        let mut worst = ReadQuality::Ok;
        for entry in &es.entries {
            let (total, q) = entry_value(es, entry, &by_fd)?;
            worst = worst.max(q);
            out.push((entry.label.clone(), total, q));
        }
        if self.trace.enabled() {
            let t = self.kernel.lock().time_ns();
            let q = match worst {
                ReadQuality::Ok => 0,
                ReadQuality::Scaled => 1,
                ReadQuality::Lost => 2,
            };
            self.trace.record(t, EventKind::PapiRead, id.0 as u32, q, 0);
        }
        Ok(out)
    }

    /// Read every group with transient-retry, collecting per-fd results.
    /// Persistently failing groups are reported in the second return
    /// slot; hard errors propagate.
    fn read_groups(&mut self, id: EventSetId) -> Result<GroupReads, PapiError> {
        let es = self.es(id)?;
        if !es.opened() {
            return Err(PapiError::State("EventSet never started"));
        }
        let leaders = es.group_leaders.clone();
        let mut by_fd: HashMap<EventFd, ReadValue> = HashMap::new();
        let mut failed = Vec::new();
        let mut k = self.kernel.lock();
        for leader in leaders {
            match retry_transient(|| k.read_group(leader)) {
                Ok(rvs) => {
                    for rv in rvs {
                        by_fd.insert(rv.fd, rv);
                    }
                }
                Err(e) if e.is_transient() => failed.push((leader, e)),
                Err(e) => return Err(e.into()),
            }
        }
        Ok((by_fd, failed))
    }

    /// `PAPI_reset`.
    pub fn reset(&mut self, id: EventSetId) -> Result<(), PapiError> {
        let leaders = self.es(id)?.group_leaders.clone();
        let mut k = self.kernel.lock();
        for fd in leaders {
            k.ioctl_reset(fd, true)?;
        }
        Ok(())
    }

    /// `PAPI_accum`: add current values into `out` and reset the counters.
    pub fn accum(&mut self, id: EventSetId, out: &mut [u64]) -> Result<(), PapiError> {
        let values = self.read(id)?;
        if values.len() != out.len() {
            return Err(PapiError::State("accum array length mismatch"));
        }
        for (slot, (_, v)) in out.iter_mut().zip(values) {
            *slot = slot.saturating_add(v);
        }
        self.reset(id)
    }

    /// Read one entry via the rdpmc fast path. Presets sum their member
    /// counters.
    ///
    /// Implements the real userpage protocol (§V.5's concern): each member
    /// counter is read through its mmap'd page when it currently holds a
    /// hardware counter, and through a `read()` **syscall fallback** when
    /// it does not — which on a hybrid machine is the steady state of the
    /// wrong-core-type half of a derived preset. `papi_cost`/`overhead`
    /// make the resulting latency asymmetry visible.
    pub fn read_fast(&mut self, id: EventSetId, entry_idx: usize) -> Result<u64, PapiError> {
        let es = self.es(id)?;
        if !es.opened() {
            return Err(PapiError::State("EventSet never started"));
        }
        let fds: Vec<EventFd> = es
            .entries
            .get(entry_idx)
            .ok_or(PapiError::State("no such entry"))?
            .native_indices
            .iter()
            .map(|&ni| {
                es.natives[ni]
                    .fd
                    .ok_or(PapiError::State("event not opened"))
            })
            .collect::<Result<_, _>>()?;
        let mut total = 0u64;
        {
            let mut k = self.kernel.lock();
            for &fd in &fds {
                let page = k.mmap_userpage(fd)?;
                total += match page.rdpmc() {
                    Some(v) => v,
                    // Not on a hardware counter: take the syscall.
                    None => retry_transient(|| k.read_event(fd))?.value,
                };
            }
        }
        Ok(total)
    }

    fn ensure_opened(&mut self, id: EventSetId) -> Result<(), PapiError> {
        if self.es(id)?.opened() {
            return Ok(());
        }
        let (plan, targets, attrs) = {
            let es = self.es(id)?;
            let pmu_types: Vec<u32> = es.natives.iter().map(|n| n.attr.pmu_type).collect();
            let plan = plan_groups(&pmu_types, es.multiplex);
            let targets: Result<Vec<_>, _> = es.natives.iter().map(|n| es.target_for(n)).collect();
            let attrs: Vec<_> = es.natives.iter().map(|n| n.attr).collect();
            (plan, targets?, attrs)
        };
        let mut leaders = Vec::with_capacity(plan.len());
        let mut fds: Vec<Option<EventFd>> = vec![None; attrs.len()];
        {
            let mut k = self.kernel.lock();
            let mut open_err: Option<PerfError> = None;
            'open: for group in &plan {
                let leader_idx = group[0];
                let leader_fd = match retry_transient(|| {
                    k.perf_event_open(attrs[leader_idx], targets[leader_idx], None)
                }) {
                    Ok(fd) => fd,
                    Err(e) => {
                        open_err = Some(e);
                        break 'open;
                    }
                };
                fds[leader_idx] = Some(leader_fd);
                leaders.push(leader_fd);
                for &member in &group[1..] {
                    match retry_transient(|| {
                        k.perf_event_open(attrs[member], targets[member], Some(leader_fd))
                    }) {
                        Ok(fd) => fds[member] = Some(fd),
                        Err(e) => {
                            open_err = Some(e);
                            break 'open;
                        }
                    }
                }
            }
            if let Some(e) = open_err {
                // Don't leak half an EventSet: close whatever opened.
                for fd in fds.iter().flatten() {
                    let _ = k.close_event(*fd);
                }
                return Err(e.into());
            }
        }
        let es = self.es_mut(id)?;
        for (n, fd) in es.natives.iter_mut().zip(fds) {
            n.fd = fd;
        }
        es.group_leaders = leaders;
        Ok(())
    }

    /// Close an EventSet's fds and re-open it with every event as its own
    /// group leader — the tail of `start()`'s automatic multiplexing
    /// fallback.
    fn reopen_multiplexed(&mut self, id: EventSetId) -> Result<(), PapiError> {
        let old_fds: Vec<EventFd> = {
            let es = self.es_mut(id)?;
            es.group_leaders.clear();
            es.multiplex = true;
            es.natives.iter_mut().filter_map(|n| n.fd.take()).collect()
        };
        {
            let mut k = self.kernel.lock();
            for fd in &old_fds {
                let _ = k.close_event(*fd);
            }
        }
        self.ensure_opened(id)
    }

    fn es(&self, id: EventSetId) -> Result<&EventSet, PapiError> {
        self.eventsets
            .get(id.0)
            .and_then(|e| e.as_ref())
            .ok_or(PapiError::NoSuchEventSet)
    }

    fn es_mut(&mut self, id: EventSetId) -> Result<&mut EventSet, PapiError> {
        self.eventsets
            .get_mut(id.0)
            .and_then(|e| e.as_mut())
            .ok_or(PapiError::NoSuchEventSet)
    }

    // ---- instrumented (calipered) runs --------------------------------------

    /// Drive the kernel until task `pid` exits (background tasks may
    /// outlive it), treating `start_hook` / `stop_hook` as
    /// `PAPI_start`/`PAPI_stop` calipers on `es`. Returns the values
    /// captured at each stop — the §IV.F test harness. The first start or
    /// stop error is returned once the run ends; later hooks are resumed
    /// untouched.
    pub fn run_instrumented(
        &mut self,
        es: EventSetId,
        start_hook: HookId,
        stop_hook: HookId,
        pid: Pid,
        max_ns: Nanos,
    ) -> Result<Vec<Values>, PapiError> {
        let kernel = self.kernel.clone();
        let mut results = Vec::new();
        let mut err = None;
        run_with_hooks(&kernel, pid, max_ns, |_, _, hook| {
            if err.is_some() {
                return;
            }
            let r = if hook == start_hook {
                self.start(es)
            } else if hook == stop_hook {
                self.stop(es).map(|v| results.push(v))
            } else {
                Ok(())
            };
            err = r.err();
        });
        match err {
            Some(e) => Err(e),
            None => Ok(results),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::machine::MachineSpec;
    use simcpu::types::CpuMask;
    use simos::kernel::{Kernel, KernelConfig};
    use simos::task::ScriptedProgram;

    fn boot(spec: MachineSpec) -> KernelHandle {
        Kernel::boot_handle(spec, KernelConfig::default())
    }

    fn spawn_loop(kernel: &KernelHandle, cpus: CpuMask, inst: u64) -> Pid {
        kernel.lock().spawn(
            "w",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(inst)),
                Op::Exit,
            ])),
            cpus,
            0,
        )
    }

    fn run_all(kernel: &KernelHandle) {
        let mut k = kernel.lock();
        k.run_to_completion(60_000_000_000);
        assert!(k.all_exited());
    }

    #[test]
    fn paper_example_multi_pmu_eventset() {
        // §IV.E: one EventSet holding both core types' INST_RETIRED.
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 3_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap();
        assert_eq!(papi.num_groups(es).unwrap(), 2, "two perf groups");
        papi.start(es).unwrap();
        run_all(&kernel);
        let values = papi.stop(es).unwrap();
        // Pinned to a P core: all instructions (plus start overhead) on P.
        assert_eq!(values[0].1, 3_000_000 + 4_300);
        assert_eq!(values[1].1, 0);
    }

    #[test]
    fn legacy_mode_rejects_multi_pmu() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 1000);
        let mut papi = Papi::init_legacy(kernel).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        let err = papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap_err();
        assert!(matches!(err, PapiError::MultiPmuUnsupported { .. }));
    }

    #[test]
    fn legacy_mode_separate_rapl_component() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 1000);
        let mut papi = Papi::init_legacy(kernel).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "INST_RETIRED").unwrap();
        let err = papi.add_named(es, "rapl::RAPL_ENERGY_PKG").unwrap_err();
        assert!(matches!(err, PapiError::ComponentConflict { .. }), "{err}");
    }

    #[test]
    fn hybrid_mode_mixes_cpu_and_rapl() {
        // §IV.E/§V.3: CPU + RAPL (+ uncore) in ONE EventSet.
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 50_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        papi.add_named(es, "rapl::RAPL_ENERGY_PKG").unwrap();
        papi.add_named(es, "unc_llc::UNC_LLC_LOOKUPS").unwrap();
        assert_eq!(papi.num_groups(es).unwrap(), 3);
        papi.start(es).unwrap();
        run_all(&kernel);
        let v = papi.stop(es).unwrap();
        assert!(v[0].1 >= 50_000_000);
        assert!(v[1].1 > 0, "energy counted");
    }

    #[test]
    fn derived_preset_sums_across_core_types() {
        // §V.2: PAPI_TOT_INS = glc + grt INST_RETIRED.
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0, 16]), 10_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_preset(es, Preset::TotIns).unwrap();
        let natives = papi.native_names(es).unwrap();
        assert_eq!(
            natives,
            vec!["adl_glc::INST_RETIRED:ANY", "adl_grt::INST_RETIRED:ANY"]
        );
        papi.start(es).unwrap();
        run_all(&kernel);
        let v = papi.stop(es).unwrap();
        assert_eq!(v[0].0, "PAPI_TOT_INS");
        assert_eq!(v[0].1, 10_000_000 + 4_300);
    }

    #[test]
    fn preset_single_native_on_homogeneous() {
        let kernel = boot(MachineSpec::skylake_quad());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 1_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_preset(es, Preset::TotIns).unwrap();
        assert_eq!(papi.native_names(es).unwrap().len(), 1);
        assert_eq!(papi.num_groups(es).unwrap(), 1);
    }

    #[test]
    fn ref_cyc_preset_unavailable_on_arm() {
        let kernel = boot(MachineSpec::orangepi_800());
        let mut papi = Papi::init(kernel).unwrap();
        let es = papi.create_eventset();
        let err = papi.add_preset(es, Preset::RefCyc).unwrap_err();
        assert!(matches!(err, PapiError::PresetUnavailable(_)));
        assert!(!papi.available_presets().contains(&Preset::RefCyc));
        assert!(papi.available_presets().contains(&Preset::TotIns));
    }

    #[test]
    fn component_busy_blocks_second_eventset() {
        // The restriction that defeats the two-EventSet workaround.
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 100_000_000);
        let mut papi = Papi::init_legacy(kernel).unwrap();
        let es1 = papi.create_eventset();
        papi.attach(es1, Attach::Task(pid)).unwrap();
        papi.add_named(es1, "adl_glc::INST_RETIRED:ANY").unwrap();
        let es2 = papi.create_eventset();
        papi.attach(es2, Attach::Task(pid)).unwrap();
        papi.add_named(es2, "adl_grt::INST_RETIRED:ANY").unwrap();
        papi.start(es1).unwrap();
        let err = papi.start(es2).unwrap_err();
        assert_eq!(err, PapiError::ComponentBusy("perf_event"));
    }

    #[test]
    fn legacy_unprefixed_uses_single_default_pmu() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 1000);
        let mut papi = Papi::init_legacy(kernel).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "INST_RETIRED").unwrap();
        assert!(papi.native_names(es).unwrap()[0].starts_with("adl_glc::"));
    }

    #[test]
    fn state_machine_errors() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 10_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        // Start without attach/events.
        assert!(matches!(papi.start(es), Err(PapiError::State(_))));
        papi.attach(es, Attach::Task(pid)).unwrap();
        assert!(matches!(papi.start(es), Err(PapiError::State(_)))); // empty
        papi.add_named(es, "INST_RETIRED").unwrap();
        papi.start(es).unwrap();
        assert!(matches!(papi.start(es), Err(PapiError::State(_)))); // double start
        assert!(matches!(
            papi.add_named(es, "CPU_CLK_UNHALTED"),
            Err(PapiError::State(_))
        )); // add while running
        run_all(&kernel);
        papi.stop(es).unwrap();
        assert!(matches!(papi.stop(es), Err(PapiError::State(_)))); // double stop
        assert!(matches!(
            papi.set_multiplex(es),
            Err(PapiError::MultiplexTooLate)
        ));
        // Bad ids.
        assert!(matches!(
            papi.read(EventSetId(99)),
            Err(PapiError::NoSuchEventSet)
        ));
    }

    #[test]
    fn accum_adds_and_resets() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 5_000_000);
        let mut papi = Papi::init_with(
            kernel.clone(),
            PapiConfig {
                overhead_instructions: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        papi.start(es).unwrap();
        run_all(&kernel);
        let mut acc = [0u64; 1];
        papi.accum(es, &mut acc).unwrap();
        assert_eq!(acc[0], 5_000_000);
        // After reset, a second accum adds nothing.
        papi.accum(es, &mut acc).unwrap();
        assert_eq!(acc[0], 5_000_000);
        // Length mismatch.
        let mut wrong = [0u64; 2];
        assert!(papi.accum(es, &mut wrong).is_err());
    }

    /// `PAPI_start` and `PAPI_reset` issue ioctls only, as real PAPI's
    /// do: the kernel's `read()` returns 64-bit counts, so there is no
    /// counter width to take a baseline against.
    #[test]
    fn start_and_reset_issue_no_read_syscalls() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 1_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        papi.add_named(es, "adl_glc::CPU_CLK_UNHALTED:THREAD")
            .unwrap();
        papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap();
        let before = papi.syscall_stats();
        papi.start(es).unwrap();
        let started = papi.syscall_stats();
        assert_eq!(started.reads, before.reads, "start reads nothing");
        // One reset and one enable per group (one group per core PMU).
        assert_eq!(started.ioctls, before.ioctls + 4);
        papi.reset(es).unwrap();
        let reset = papi.syscall_stats();
        assert_eq!(reset.reads, before.reads, "reset reads nothing");
        assert_eq!(reset.ioctls, started.ioctls + 2);
    }

    #[test]
    fn components_reflect_mode() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let hybrid = Papi::init(kernel.clone()).unwrap();
        let comps = hybrid.components();
        let uncore = comps
            .iter()
            .find(|c| c.name == "perf_event_uncore")
            .unwrap();
        assert!(uncore.deprecated && !uncore.enabled, "§V.3 merge");
        let legacy = Papi::init_legacy(kernel).unwrap();
        let comps = legacy.components();
        let uncore = comps
            .iter()
            .find(|c| c.name == "perf_event_uncore")
            .unwrap();
        assert!(!uncore.deprecated && uncore.enabled);
    }

    #[test]
    fn hardware_info_reports_core_types() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let papi = Papi::init(kernel).unwrap();
        let hw = papi.hardware_info();
        assert!(hw.heterogeneous);
        assert_eq!(hw.core_types.len(), 2);
        assert!(papi.detection_report().is_hybrid());
    }

    #[test]
    fn instrumented_caliper_run() {
        // A miniature §IV.F: caliper around a 1 M instruction region.
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = kernel.lock().spawn(
            "calipered",
            Box::new(ScriptedProgram::new([
                Op::Call(HookId(1)),
                Op::Compute(Phase::scalar(1_000_000)),
                Op::Call(HookId(2)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        // Background load that never exits: the run ends with `pid`.
        kernel.lock().spawn(
            "noise",
            Box::new(|_: &simos::task::ProgCtx| Op::Compute(Phase::scalar(1_000_000))),
            CpuMask::from_cpus([1]),
            0,
        );
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap();
        let results = papi
            .run_instrumented(es, HookId(1), HookId(2), pid, 60_000_000_000)
            .unwrap();
        assert_eq!(results.len(), 1);
        let p = results[0][0].1;
        let e = results[0][1].1;
        assert_eq!(p + e, 1_000_000 + 4_300);
        assert_eq!(e, 0, "pinned to a P core");
        assert!(kernel.lock().time_ns() < 1_000_000_000, "ran past the exit");
    }

    #[test]
    fn instrumented_run_keeps_the_first_error_and_drives_the_task_out() {
        // Start, start again (an error), stop: the second start's error
        // is returned, the stop after it is ignored, and the task still
        // runs to its exit rather than staying parked.
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = kernel.lock().spawn(
            "double-start",
            Box::new(ScriptedProgram::new([
                Op::Call(HookId(1)),
                Op::Call(HookId(1)),
                Op::Compute(Phase::scalar(1_000_000)),
                Op::Call(HookId(2)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        let r = papi.run_instrumented(es, HookId(1), HookId(2), pid, 60_000_000_000);
        assert!(
            matches!(r, Err(PapiError::State("EventSet already running"))),
            "{r:?}"
        );
        let k = kernel.lock();
        assert_eq!(k.task_state(pid), Some(simos::task::TaskState::Exited));
        assert_eq!(k.task_stats(pid).unwrap().instructions, 1_000_000 + 4_300);
        assert!(k.time_ns() < 1_000_000_000, "ran to the deadline");
    }

    #[test]
    fn destroy_closes_fds() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 1_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "INST_RETIRED").unwrap();
        papi.start(es).unwrap();
        run_all(&kernel);
        papi.stop(es).unwrap();
        papi.destroy_eventset(es).unwrap();
        assert!(matches!(papi.read(es), Err(PapiError::NoSuchEventSet)));
    }

    #[test]
    fn multiplex_mode_single_event_groups() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 400_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.set_multiplex(es).unwrap();
        // 10 events: more than the 8 GP + fixed counters → must multiplex.
        for _ in 0..10 {
            papi.add_named(es, "adl_glc::BR_INST_RETIRED:ALL_BRANCHES")
                .unwrap();
        }
        assert_eq!(papi.num_groups(es).unwrap(), 10);
        papi.start(es).unwrap();
        run_all(&kernel);
        let v = papi.stop(es).unwrap();
        let truth = 400_000_000.0 * 0.08;
        for (_, val) in v {
            let err = (val as f64 - truth).abs() / truth;
            assert!(err < 0.3, "scaled multiplex estimate off by {err:.2}");
        }
    }

    #[test]
    fn unschedulable_group_auto_falls_back_to_multiplex() {
        use simos::faults::{FaultKind, FaultPlan};
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        kernel.lock().install_faults(&FaultPlan::new(2).at(
            0,
            FaultKind::NmiWatchdog {
                steal: simcpu::events::ArchEvent::Instructions,
                hold_ns: None,
            },
        ));
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 400_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        // INST_RETIRED's fixed counter is stolen, so this 9-event group
        // needs 9 GP counters on an 8-GP PMU: never co-schedulable.
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        for _ in 0..8 {
            papi.add_named(es, "adl_glc::BR_INST_RETIRED:ALL_BRANCHES")
                .unwrap();
        }
        assert_eq!(papi.num_groups(es).unwrap(), 1);
        papi.start(es).unwrap();
        assert_eq!(
            papi.num_groups(es).unwrap(),
            9,
            "start() must fall back to single-event groups"
        );
        run_all(&kernel);
        let q = papi.read_with_quality(es).unwrap();
        assert!(
            q.iter().any(|(_, _, qq)| *qq == ReadQuality::Scaled),
            "rotation must be flagged: {q:?}"
        );
        let inst = q[0].1 as f64;
        let truth = 400_000_000.0;
        assert!(
            (inst - truth).abs() / truth < 0.3,
            "scaled estimate usable: {inst}"
        );
    }

    #[test]
    fn topdown_only_addable_for_p_pmu() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let mut papi = Papi::init(kernel).unwrap();
        let es = papi.create_eventset();
        assert!(papi.add_named(es, "adl_glc::TOPDOWN:SLOTS").is_ok());
        assert!(matches!(
            papi.add_named(es, "adl_grt::TOPDOWN:SLOTS"),
            Err(PapiError::NoSuchEvent(_))
        ));
    }

    #[test]
    fn overflow_records_every_threshold() {
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 10_000_000);
        let mut papi = Papi::init_with(
            kernel.clone(),
            PapiConfig {
                overhead_instructions: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        papi.set_overflow(es, 0, 1_000_000).unwrap();
        papi.start(es).unwrap();
        // Mid-run drain picks up the overflows so far…
        for _ in 0..3 {
            kernel.lock().tick();
        }
        let early = papi.take_overflows(es, 0).unwrap();
        run_all(&kernel);
        let late = papi.take_overflows(es, 0).unwrap();
        assert_eq!(early.len() + late.len(), 10, "10 M / 1 M threshold");
        // Overflow values are non-decreasing snapshots of the counter
        // (several overflows within one tick share the tick-end value).
        let mut last = 0;
        for (_, cpu, v) in early.iter().chain(&late) {
            assert_eq!(*cpu, 0, "pinned to cpu0");
            assert!(*v >= last);
            last = *v;
        }
        assert_eq!(last, 10_000_000);
        // A second drain returns nothing.
        assert!(papi.take_overflows(es, 0).unwrap().is_empty());
        // Arming after open is rejected.
        assert!(matches!(
            papi.set_overflow(es, 0, 5),
            Err(PapiError::State(_))
        ));
        // Zero threshold rejected on a fresh set.
        let es2 = papi.create_eventset();
        assert!(papi.set_overflow(es2, 0, 0).is_err());
    }

    #[test]
    fn overflow_drain_survives_sample_ring_wrap() {
        // 200 k overflows, three times the kernel's sample ring, drained
        // every 5 ticks: each drain must pick up where the last one
        // stopped even after the ring has dropped its oldest records.
        const THRESHOLD: u64 = 1_000;
        const INSTRUCTIONS: u64 = 200_000_000;
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), INSTRUCTIONS);
        let mut papi = Papi::init_with(
            kernel.clone(),
            PapiConfig {
                overhead_instructions: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        papi.set_overflow(es, 0, THRESHOLD).unwrap();
        papi.start(es).unwrap();
        let mut drained = Vec::new();
        while !kernel.lock().all_exited() {
            for _ in 0..5 {
                kernel.lock().tick();
            }
            drained.extend(papi.take_overflows(es, 0).unwrap());
        }
        drained.extend(papi.take_overflows(es, 0).unwrap());
        assert_eq!(
            drained.len() as u64,
            INSTRUCTIONS / THRESHOLD,
            "every overflow drained"
        );
        // Record i fires once the count reaches (i+1)·threshold and
        // carries the count at the end of its tick, so a record's value
        // is never below that, and the last record of each tick closes
        // the count exactly: nothing dropped, nothing drained twice.
        for (i, &(_, _, v)) in drained.iter().enumerate() {
            let n = i as u64 + 1;
            assert!(v >= n * THRESHOLD, "record {i} ({v}) early: duplicated");
            if drained.get(i + 1).is_none_or(|next| next.2 > v) {
                assert_eq!(v / THRESHOLD, n, "records lost before value {v}");
            }
        }
    }

    #[test]
    fn imc_bandwidth_on_llc_less_machine() {
        // The RK3399 has no L3 (hence no uncore_llc PMU), but its memory
        // controller PMU still measures DRAM traffic through an ordinary
        // hybrid EventSet.
        let kernel = boot(MachineSpec::orangepi_800());
        let pid = kernel.lock().spawn(
            "stream",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::stream(50_000_000, 1 << 30)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let mut papi = Papi::init(kernel.clone()).unwrap();
        assert!(papi.pfm().pmu_by_pfm_name("unc_llc").is_none());
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "arm_ac72::INST_RETIRED").unwrap();
        papi.add_named(es, "unc_imc::UNC_M_CAS_COUNT:RD").unwrap();
        papi.add_named(es, "unc_imc::UNC_M_CAS_COUNT:WR").unwrap();
        papi.start(es).unwrap();
        run_all(&kernel);
        let v = papi.stop(es).unwrap();
        assert!(v[1].1 > 0 && v[2].1 > 0, "DRAM CAS counted: {v:?}");
        assert!(v[1].1 > v[2].1, "read-dominated split");
    }

    #[test]
    fn software_events_join_hybrid_eventset() {
        // perf_sw::CPU_MIGRATIONS alongside both core PMUs: PAPI itself
        // observes the §IV.F migrations.
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 100_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "adl_glc::INST_RETIRED:ANY").unwrap();
        papi.add_named(es, "adl_grt::INST_RETIRED:ANY").unwrap();
        papi.add_named(es, "perf_sw::CPU_MIGRATIONS").unwrap();
        papi.add_named(es, "perf_sw::CONTEXT_SWITCHES").unwrap();
        assert_eq!(papi.num_groups(es).unwrap(), 3);
        papi.start(es).unwrap();
        // Bounce the task to the E cores and back mid-run.
        for _ in 0..5 {
            kernel.lock().tick();
        }
        kernel
            .lock()
            .set_affinity(pid, CpuMask::from_cpus([16]))
            .unwrap();
        for _ in 0..5 {
            kernel.lock().tick();
        }
        kernel
            .lock()
            .set_affinity(pid, CpuMask::from_cpus([0]))
            .unwrap();
        run_all(&kernel);
        let v = papi.stop(es).unwrap();
        assert!(v[0].1 > 0, "P instructions: {v:?}");
        assert!(v[1].1 > 0, "E instructions: {v:?}");
        assert!(v[2].1 >= 2, "migrations observed by PAPI: {v:?}");
        assert!(v[3].1 >= v[2].1, "switches ≥ migrations: {v:?}");
    }

    #[test]
    fn software_presets_count_in_hybrid_mode() {
        // The new sw presets resolve through the data table (already
        // PMU-prefixed → no per-core-type expansion) and count next to a
        // derived hardware preset in one EventSet.
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 10_000_000);
        let mut papi = Papi::init(kernel.clone()).unwrap();
        for name in ["PAPI_CTX_SW", "PAPI_CPU_MIG", "PAPI_PG_FLT", "PAPI_TSK_CLK"] {
            assert!(papi.preset_names().contains(&name.to_string()), "{name}");
        }
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_preset_named(es, "PAPI_TOT_INS").unwrap();
        papi.add_preset_named(es, "PAPI_PG_FLT").unwrap();
        papi.add_preset_named(es, "PAPI_TSK_CLK").unwrap();
        papi.add_preset_named(es, "PAPI_CPU_MIG").unwrap();
        papi.start(es).unwrap();
        run_all(&kernel);
        let v = papi.stop(es).unwrap();
        assert_eq!(v[0].1, 10_000_000 + 4_300);
        // scalar phases (loop + injected overhead) share one 8 KiB
        // working set: exactly two first-touch faults, ever.
        assert_eq!(v[1].1, 2, "first-touch faults: {v:?}");
        assert!(v[2].1 > 0, "task clock advanced: {v:?}");
        assert_eq!(v[3].1, 0, "pinned task never migrates: {v:?}");
    }

    #[test]
    fn software_presets_work_in_legacy_mode() {
        // Legacy mode must not mangle already-prefixed natives into
        // "adl_glc::perf_sw::…".
        let kernel = boot(MachineSpec::raptor_lake_i7_13700());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 1_000_000);
        let mut papi = Papi::init_legacy(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_preset_named(es, "PAPI_CTX_SW").unwrap();
        assert_eq!(
            papi.native_names(es).unwrap(),
            vec!["perf_sw::CONTEXT_SWITCHES"]
        );
        papi.start(es).unwrap();
        run_all(&kernel);
        let v = papi.stop(es).unwrap();
        assert!(v[0].1 >= 1, "task switched in at least once: {v:?}");
    }

    #[test]
    fn arm_biglittle_eventset() {
        let kernel = boot(MachineSpec::orangepi_800());
        let pid = spawn_loop(&kernel, CpuMask::from_cpus([0]), 2_000_000); // big core
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        papi.add_named(es, "arm_ac72::INST_RETIRED").unwrap();
        papi.add_named(es, "arm_ac53::INST_RETIRED").unwrap();
        papi.start(es).unwrap();
        run_all(&kernel);
        let v = papi.stop(es).unwrap();
        assert_eq!(v[0].1, 2_000_000 + 4_300);
        assert_eq!(v[1].1, 0);
    }
}
