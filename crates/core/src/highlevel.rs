//! The high-level API (`PAPI_hl_region_begin` / `PAPI_hl_region_end`).
//!
//! Real PAPI's high-level interface lets applications mark named regions
//! and get a per-region report without managing EventSets; the event list
//! comes from the `PAPI_EVENTS` environment variable. On hybrid machines
//! this inherits everything the low-level rework provides: the regions are
//! measured by one multi-PMU EventSet and presets are derived-add across
//! core types, so the same instrumented source works unchanged on
//! homogeneous and heterogeneous machines — the paper's end goal.

use crate::{Attach, EventSetId, Papi, PapiError, Preset};
use simos::task::Pid;
use std::collections::BTreeMap;

/// Accumulated measurements for one named region.
#[derive(Debug, Clone, Default)]
pub struct RegionTotals {
    /// Times the region executed.
    pub count: u64,
    /// Summed values, parallel to the event labels.
    pub totals: Vec<u64>,
}

/// The high-level measurement context for one task.
pub struct HighLevel {
    papi: Papi,
    es: EventSetId,
    labels: Vec<String>,
    regions: BTreeMap<String, RegionTotals>,
    active: Option<String>,
}

impl HighLevel {
    /// Create a context measuring `events` (preset `PAPI_*` names or
    /// native names — the `PAPI_EVENTS` syntax) on task `pid`.
    pub fn new(
        kernel: simos::kernel::KernelHandle,
        pid: Pid,
        events: &[&str],
    ) -> Result<HighLevel, PapiError> {
        let mut papi = Papi::init(kernel)?;
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid))?;
        for ev in events {
            if let Some(p) = Preset::from_papi_name(ev) {
                papi.add_preset(es, p)?;
            } else if ev.to_ascii_uppercase().starts_with("PAPI_") {
                papi.add_preset_named(es, ev)?;
            } else {
                papi.add_named(es, ev)?;
            }
        }
        let labels = papi.event_labels(es)?;
        Ok(HighLevel {
            papi,
            es,
            labels,
            regions: BTreeMap::new(),
            active: None,
        })
    }

    /// The default event list when the caller gives none — the same
    /// default real papi_hl uses (`perf::TASK-CLOCK,PAPI_TOT_INS,
    /// PAPI_TOT_CYC` modulo naming).
    pub fn default_events() -> &'static [&'static str] {
        &["PAPI_TOT_INS", "PAPI_TOT_CYC"]
    }

    /// `PAPI_hl_region_begin`.
    pub fn region_begin(&mut self, name: &str) -> Result<(), PapiError> {
        if let Some(active) = &self.active {
            return Err(PapiError::State(if active == name {
                "region already active"
            } else {
                "another region is active (nesting unsupported)"
            }));
        }
        self.papi.start(self.es)?;
        self.active = Some(name.to_string());
        Ok(())
    }

    /// `PAPI_hl_region_end`.
    pub fn region_end(&mut self, name: &str) -> Result<(), PapiError> {
        match &self.active {
            Some(active) if active == name => {}
            Some(_) => return Err(PapiError::State("mismatched region name")),
            None => return Err(PapiError::State("no active region")),
        }
        let values = self.papi.stop(self.es)?;
        let entry = self
            .regions
            .entry(name.to_string())
            .or_insert_with(|| RegionTotals {
                count: 0,
                totals: vec![0; values.len()],
            });
        entry.count += 1;
        for (slot, (_, v)) in entry.totals.iter_mut().zip(&values) {
            *slot += v;
        }
        self.active = None;
        Ok(())
    }

    /// Per-region accumulated totals.
    pub fn regions(&self) -> &BTreeMap<String, RegionTotals> {
        &self.regions
    }

    /// Event labels, in the order of each region's totals.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Render the papi_hl-style report.
    pub fn report(&self) -> String {
        let mut out = String::from("PAPI-HL output:\n");
        for (name, r) in &self.regions {
            out.push_str(&format!("  region \"{name}\" (count {}):\n", r.count));
            for (label, total) in self.labels.iter().zip(&r.totals) {
                out.push_str(&format!("    {label:<24} {total}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::machine::MachineSpec;
    use simcpu::phase::Phase;
    use simcpu::types::CpuMask;
    use simos::kernel::{run_with_hooks, Kernel, KernelConfig};
    use simos::task::{HookId, Op, ScriptedProgram};

    /// Drive a two-region instrumented task through the HL API.
    #[test]
    fn regions_accumulate_per_name() {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        // Region "a" runs 2×200k, region "b" runs 1×500k.
        let pid = kernel.lock().spawn(
            "hl",
            Box::new(ScriptedProgram::new([
                Op::Call(HookId(1)),
                Op::Compute(Phase::scalar(200_000)),
                Op::Call(HookId(2)),
                Op::Call(HookId(3)),
                Op::Compute(Phase::scalar(500_000)),
                Op::Call(HookId(4)),
                Op::Call(HookId(1)),
                Op::Compute(Phase::scalar(200_000)),
                Op::Call(HookId(2)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0, 16]),
            0,
        );
        let mut hl =
            HighLevel::new(kernel.clone(), pid, &["PAPI_TOT_INS", "PAPI_TOT_CYC"]).unwrap();
        // Drive hooks: 1/2 = region a, 3/4 = region b.
        run_with_hooks(&kernel, 120_000_000_000, |_, _, h| match h.0 {
            1 => hl.region_begin("a").unwrap(),
            2 => hl.region_end("a").unwrap(),
            3 => hl.region_begin("b").unwrap(),
            _ => hl.region_end("b").unwrap(),
        });
        let regions = hl.regions();
        let a = &regions["a"];
        let b = &regions["b"];
        assert_eq!(a.count, 2);
        assert_eq!(b.count, 1);
        // TOT_INS per execution = work + 4300 overhead.
        assert_eq!(a.totals[0], 2 * (200_000 + 4_300));
        assert_eq!(b.totals[0], 500_000 + 4_300);
        assert!(a.totals[1] > 0, "cycles counted");
        let rep = hl.report();
        assert!(rep.contains("region \"a\" (count 2)"), "{rep}");
        assert!(rep.contains("PAPI_TOT_INS"), "{rep}");
    }

    #[test]
    fn region_state_errors() {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let pid = kernel.lock().spawn(
            "hl",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(1_000_000_000)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let mut hl = HighLevel::new(kernel, pid, HighLevel::default_events()).unwrap();
        assert!(hl.region_end("x").is_err(), "no active region");
        hl.region_begin("x").unwrap();
        assert!(hl.region_begin("x").is_err(), "already active");
        assert!(hl.region_begin("y").is_err(), "nesting unsupported");
        assert!(hl.region_end("y").is_err(), "mismatched name");
        hl.region_end("x").unwrap();
    }

    #[test]
    fn mixed_native_and_preset_events() {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let pid = kernel.lock().spawn(
            "hl",
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(1_000_000_000)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([0]),
            0,
        );
        let hl = HighLevel::new(
            kernel,
            pid,
            &[
                "PAPI_TOT_INS",
                "adl_glc::TOPDOWN:SLOTS",
                "perf_sw::CPU_MIGRATIONS",
            ],
        )
        .unwrap();
        assert_eq!(hl.labels().len(), 3);
    }
}
