//! The preset definition table — `PAPI_events.csv`, hybrid edition.
//!
//! Real PAPI defines presets in a CSV keyed by CPU family/model. §V.2 of
//! the paper points out this breaks on hybrid Intel parts (one
//! family/model covers two different core PMUs) and says the parser "will
//! have to be modified to be aware of the existence of E and P core
//! availability". This module is that modification: definitions are keyed
//! by *vendor* and expanded per detected core-type PMU at add time, with
//! DERIVED_ADD across however many core types the machine has.
//!
//! Format (one definition per line):
//!
//! ```text
//! # name,derived,vendor=native[,vendor=native...]
//! PAPI_TOT_INS,DERIVED_ADD,intel=INST_RETIRED:ANY,arm=INST_RETIRED
//! ```
//!
//! Users may extend or override the built-in table at runtime with
//! [`crate::Papi::load_preset_csv`].

use simcpu::uarch::Vendor;
use std::collections::HashMap;

/// How a preset's member counts combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DerivedKind {
    /// Sum of all member events (the only kind hybrid expansion needs).
    Add,
}

/// One preset definition.
#[derive(Debug, Clone)]
pub struct PresetDef {
    pub name: String,
    pub derived: DerivedKind,
    /// Per-vendor unprefixed native event name.
    pub natives: HashMap<&'static str, String>,
}

impl PresetDef {
    /// The native event for a vendor, if defined.
    pub fn native_for(&self, vendor: Vendor) -> Option<&str> {
        let key = vendor_key(vendor);
        self.natives.get(key).map(|s| s.as_str())
    }
}

fn vendor_key(v: Vendor) -> &'static str {
    match v {
        Vendor::Intel => "intel",
        Vendor::Arm => "arm",
    }
}

/// Parse errors, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresetTableError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for PresetTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "preset table line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PresetTableError {}

/// Parse a preset CSV. Later definitions of the same name override
/// earlier ones (so user tables can patch the built-in one).
pub fn parse_preset_csv(text: &str) -> Result<Vec<PresetDef>, PresetTableError> {
    let mut out: Vec<PresetDef> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split(',');
        let name = fields
            .next()
            .filter(|n| !n.is_empty())
            .ok_or_else(|| err(line, "missing preset name"))?
            .trim()
            .to_ascii_uppercase();
        if !name.starts_with("PAPI_") {
            return Err(err(line, "preset names must start with PAPI_"));
        }
        let derived = match fields
            .next()
            .ok_or_else(|| err(line, "missing derived kind"))?
            .trim()
            .to_ascii_uppercase()
            .as_str()
        {
            "DERIVED_ADD" | "NOT_DERIVED" => DerivedKind::Add,
            other => return Err(err(line, &format!("unknown derived kind '{other}'"))),
        };
        let mut natives = HashMap::new();
        for field in fields {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (vendor, native) = field
                .split_once('=')
                .ok_or_else(|| err(line, &format!("expected vendor=native, got '{field}'")))?;
            let key = match vendor.trim().to_ascii_lowercase().as_str() {
                "intel" => "intel",
                "arm" => "arm",
                other => return Err(err(line, &format!("unknown vendor '{other}'"))),
            };
            natives.insert(key, native.trim().to_string());
        }
        if natives.is_empty() {
            return Err(err(line, "preset defines no vendor natives"));
        }
        let def = PresetDef {
            name: name.clone(),
            derived,
            natives,
        };
        if let Some(existing) = out.iter_mut().find(|d| d.name == name) {
            *existing = def; // override
        } else {
            out.push(def);
        }
    }
    Ok(out)
}

fn err(line: usize, message: &str) -> PresetTableError {
    PresetTableError {
        line,
        message: message.to_string(),
    }
}

/// The built-in table: every [`crate::presets::Preset`]'s natives, keyed
/// by its `papi_name()`.
pub const BUILTIN_CSV: &str = "\
# PAPI preset definitions (hybrid-aware): name,derived,vendor=native,...
PAPI_TOT_INS,DERIVED_ADD,intel=INST_RETIRED:ANY,arm=INST_RETIRED
PAPI_TOT_CYC,DERIVED_ADD,intel=CPU_CLK_UNHALTED:THREAD,arm=CPU_CYCLES
PAPI_REF_CYC,DERIVED_ADD,intel=CPU_CLK_UNHALTED:REF_TSC
PAPI_BR_INS,DERIVED_ADD,intel=BR_INST_RETIRED:ALL_BRANCHES,arm=BR_RETIRED
PAPI_BR_MSP,DERIVED_ADD,intel=BR_MISP_RETIRED:ALL_BRANCHES,arm=BR_MIS_PRED_RETIRED
PAPI_L1_DCM,DERIVED_ADD,intel=L1D:REPLACEMENT,arm=L1D_CACHE_REFILL
PAPI_L2_TCA,DERIVED_ADD,intel=L2_RQSTS:REFERENCES,arm=L2D_CACHE
PAPI_L2_TCM,DERIVED_ADD,intel=L2_RQSTS:MISS,arm=L2D_CACHE_REFILL
PAPI_L3_TCA,DERIVED_ADD,intel=LONGEST_LAT_CACHE:REFERENCE,arm=LL_CACHE_RD
PAPI_L3_TCM,DERIVED_ADD,intel=LONGEST_LAT_CACHE:MISS,arm=LL_CACHE_MISS_RD
PAPI_FP_OPS,DERIVED_ADD,intel=FP_ARITH_INST_RETIRED:ALL,arm=VFP_SPEC
PAPI_VEC_INS,DERIVED_ADD,intel=UOPS_RETIRED:VECTOR,arm=ASE_SPEC
PAPI_RES_STL,DERIVED_ADD,intel=CYCLE_ACTIVITY:STALLS_MEM_ANY,arm=STALL_BACKEND
PAPI_TLB_DM,DERIVED_ADD,intel=DTLB_LOAD_MISSES:WALK_COMPLETED,arm=DTLB_WALK
PAPI_CTX_SW,DERIVED_ADD,intel=perf_sw::CONTEXT_SWITCHES,arm=perf_sw::CONTEXT_SWITCHES
PAPI_CPU_MIG,DERIVED_ADD,intel=perf_sw::CPU_MIGRATIONS,arm=perf_sw::CPU_MIGRATIONS
PAPI_PG_FLT,DERIVED_ADD,intel=perf_sw::PAGE_FAULTS,arm=perf_sw::PAGE_FAULTS
PAPI_TSK_CLK,DERIVED_ADD,intel=perf_sw::TASK_CLOCK,arm=perf_sw::TASK_CLOCK
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_table_parses() {
        let defs = parse_preset_csv(BUILTIN_CSV).unwrap();
        assert_eq!(defs.len(), 18);
        let tot = defs.iter().find(|d| d.name == "PAPI_TOT_INS").unwrap();
        assert_eq!(tot.native_for(Vendor::Intel), Some("INST_RETIRED:ANY"));
        assert_eq!(tot.native_for(Vendor::Arm), Some("INST_RETIRED"));
        // REF_CYC has no ARM native.
        let rc = defs.iter().find(|d| d.name == "PAPI_REF_CYC").unwrap();
        assert_eq!(rc.native_for(Vendor::Arm), None);
    }

    #[test]
    fn every_preset_has_a_csv_row_with_an_intel_native() {
        let defs = parse_preset_csv(BUILTIN_CSV).unwrap();
        for &p in crate::presets::ALL_PRESETS {
            let def = defs
                .iter()
                .find(|d| d.name == p.papi_name())
                .unwrap_or_else(|| panic!("{} missing from CSV", p.papi_name()));
            assert!(def.native_for(Vendor::Intel).is_some(), "{p:?}");
        }
    }

    #[test]
    fn override_semantics() {
        let text = "\
PAPI_TOT_INS,DERIVED_ADD,intel=INST_RETIRED:ANY
PAPI_TOT_INS,DERIVED_ADD,intel=INST_RETIRED:ANY_P
";
        let defs = parse_preset_csv(text).unwrap();
        assert_eq!(defs.len(), 1);
        assert_eq!(
            defs[0].native_for(Vendor::Intel),
            Some("INST_RETIRED:ANY_P")
        );
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let defs = parse_preset_csv("# hi\n\n  \nPAPI_X,DERIVED_ADD,arm=CPU_CYCLES\n").unwrap();
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name, "PAPI_X");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_preset_csv("PAPI_OK,DERIVED_ADD,intel=A\nnot_papi,DERIVED_ADD,intel=A")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("PAPI_"));
        let e2 = parse_preset_csv("PAPI_A,BOGUS_KIND,intel=A").unwrap_err();
        assert!(e2.message.contains("BOGUS_KIND"));
        let e3 = parse_preset_csv("PAPI_A,DERIVED_ADD,vax=A").unwrap_err();
        assert!(e3.message.contains("vax"));
        let e4 = parse_preset_csv("PAPI_A,DERIVED_ADD").unwrap_err();
        assert!(e4.message.contains("no vendor natives"));
        let e5 = parse_preset_csv("PAPI_A,DERIVED_ADD,intelA").unwrap_err();
        assert!(e5.message.contains("vendor=native"));
    }

    #[test]
    fn case_insensitive_fields() {
        let defs = parse_preset_csv("papi_tot_ins,derived_add,INTEL=INST_RETIRED:ANY").unwrap();
        assert_eq!(defs[0].name, "PAPI_TOT_INS");
        assert!(defs[0].native_for(Vendor::Intel).is_some());
    }
}
