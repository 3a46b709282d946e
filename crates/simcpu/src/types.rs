//! Fundamental identifiers and unit-bearing scalar types.
//!
//! All quantities carry their unit in the type name or field name:
//! time is nanoseconds (`Nanos`), frequency is kHz (`Khz`, matching the
//! units of `cpufreq` sysfs files), energy is microjoules (matching RAPL's
//! `energy_uj`), temperature is milli-degrees Celsius (matching
//! `thermal_zone*/temp`).

use std::fmt;

/// Simulated time in nanoseconds.
pub type Nanos = u64;

/// Frequency in kHz (the unit used by `/sys/devices/system/cpu/*/cpufreq`).
pub type Khz = u64;

/// Index of a *physical core* within a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

/// Index of a *logical CPU* (hardware thread) within a machine.
///
/// This is the number the OS sees: on the Raptor Lake model, CPUs 0–15 are
/// the two SMT siblings of each P-core (0,1 = core 0; 2,3 = core 1; …) and
/// CPUs 16–23 are the single-threaded E-cores, mirroring the real topology
/// the paper's artifact pins against (`--cores 0,2,4,…,16-24`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CpuId(pub usize);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Index of a cluster (frequency/thermal domain of identical cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub usize);

/// The broad *kind* of a core in a heterogeneous system.
///
/// Vendors use different marketing names (Intel P/E, ARM big/LITTLE/mid);
/// this enum captures the role. `Uniform` is used on homogeneous machines
/// where the distinction does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreType {
    /// High-performance core (Intel P-core, ARM big).
    Performance,
    /// Power-efficient core (Intel E-core, ARM LITTLE).
    Efficiency,
    /// Middle tier on tri-cluster ARM DynamIQ designs.
    Mid,
    /// The only core type on a homogeneous machine.
    Uniform,
}

impl CoreType {
    /// Short label used in reports ("P", "E", "M", "U").
    pub fn letter(self) -> &'static str {
        match self {
            CoreType::Performance => "P",
            CoreType::Efficiency => "E",
            CoreType::Mid => "M",
            CoreType::Uniform => "U",
        }
    }
}

impl fmt::Display for CoreType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CoreType::Performance => "performance",
            CoreType::Efficiency => "efficiency",
            CoreType::Mid => "mid",
            CoreType::Uniform => "uniform",
        };
        f.write_str(s)
    }
}

/// A CPU affinity mask, the moral equivalent of `cpu_set_t` under `taskset`.
///
/// Supports machines with up to 128 logical CPUs, which covers every model
/// in this workspace.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuMask {
    bits: u128,
}

impl CpuMask {
    /// The empty mask (no CPUs allowed). Tasks with an empty mask can never
    /// be scheduled; callers should treat it as an error.
    pub const EMPTY: CpuMask = CpuMask { bits: 0 };

    /// Mask containing the first `n` CPUs.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= 128, "CpuMask supports at most 128 CPUs");
        if n == 128 {
            CpuMask { bits: u128::MAX }
        } else {
            CpuMask {
                bits: (1u128 << n) - 1,
            }
        }
    }

    /// Mask from an iterator of CPU indices.
    pub fn from_cpus<I: IntoIterator<Item = usize>>(cpus: I) -> Self {
        let mut m = CpuMask::EMPTY;
        for c in cpus {
            m.set(CpuId(c));
        }
        m
    }

    /// Set a CPU in the mask.
    pub fn set(&mut self, cpu: CpuId) {
        assert!(cpu.0 < 128);
        self.bits |= 1u128 << cpu.0;
    }

    /// Clear a CPU from the mask.
    pub fn clear(&mut self, cpu: CpuId) {
        assert!(cpu.0 < 128);
        self.bits &= !(1u128 << cpu.0);
    }

    /// Whether the mask allows `cpu`.
    #[inline]
    pub fn contains(&self, cpu: CpuId) -> bool {
        cpu.0 < 128 && (self.bits >> cpu.0) & 1 == 1
    }

    /// Number of CPUs in the mask.
    pub fn count(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether no CPU is allowed.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Iterate over the CPU ids in the mask, ascending.
    pub fn iter(&self) -> impl Iterator<Item = CpuId> + '_ {
        (0..128).filter(|i| (self.bits >> i) & 1 == 1).map(CpuId)
    }

    /// Intersection of two masks.
    pub fn and(&self, other: &CpuMask) -> CpuMask {
        CpuMask {
            bits: self.bits & other.bits,
        }
    }

    /// Union of two masks.
    pub fn or(&self, other: &CpuMask) -> CpuMask {
        CpuMask {
            bits: self.bits | other.bits,
        }
    }

    /// Parse a Linux cpulist string such as `"0,2,4-7,16-23"`.
    pub fn parse_cpulist(s: &str) -> Result<CpuMask, String> {
        let mut m = CpuMask::EMPTY;
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some((a, b)) = part.split_once('-') {
                let a: usize = a
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad cpulist '{part}': {e}"))?;
                let b: usize = b
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad cpulist '{part}': {e}"))?;
                if a > b || b >= 128 {
                    return Err(format!("bad cpulist range '{part}'"));
                }
                for c in a..=b {
                    m.set(CpuId(c));
                }
            } else {
                let c: usize = part
                    .parse()
                    .map_err(|e| format!("bad cpulist '{part}': {e}"))?;
                if c >= 128 {
                    return Err(format!("cpu {c} out of range"));
                }
                m.set(CpuId(c));
            }
        }
        Ok(m)
    }

    /// Render as a Linux cpulist string (`"0-3,8"`).
    pub fn to_cpulist(&self) -> String {
        let cpus: Vec<usize> = self.iter().map(|c| c.0).collect();
        let mut out = String::new();
        let mut i = 0;
        while i < cpus.len() {
            let start = cpus[i];
            let mut end = start;
            while i + 1 < cpus.len() && cpus[i + 1] == end + 1 {
                i += 1;
                end = cpus[i];
            }
            if !out.is_empty() {
                out.push(',');
            }
            if start == end {
                out.push_str(&start.to_string());
            } else {
                out.push_str(&format!("{start}-{end}"));
            }
            i += 1;
        }
        out
    }
}

impl fmt::Debug for CpuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CpuMask({})", self.to_cpulist())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpumask_first_n() {
        let m = CpuMask::first_n(4);
        assert_eq!(m.count(), 4);
        assert!(m.contains(CpuId(0)));
        assert!(m.contains(CpuId(3)));
        assert!(!m.contains(CpuId(4)));
    }

    #[test]
    fn cpumask_full_width() {
        let m = CpuMask::first_n(128);
        assert_eq!(m.count(), 128);
        assert!(m.contains(CpuId(127)));
    }

    #[test]
    fn cpumask_set_clear() {
        let mut m = CpuMask::EMPTY;
        m.set(CpuId(5));
        assert!(m.contains(CpuId(5)));
        m.clear(CpuId(5));
        assert!(m.is_empty());
    }

    #[test]
    fn cpumask_parse_roundtrip() {
        let m = CpuMask::parse_cpulist("0,2,4-7,16-23").unwrap();
        assert_eq!(m.count(), 14);
        assert!(m.contains(CpuId(0)));
        assert!(!m.contains(CpuId(1)));
        assert!(m.contains(CpuId(6)));
        assert!(m.contains(CpuId(23)));
        assert_eq!(m.to_cpulist(), "0,2,4-7,16-23");
    }

    #[test]
    fn cpumask_parse_paper_artifact_list() {
        // The cpulist used by the paper's mon_hpl.py artifact: one SMT
        // sibling per P-core plus all E-cores.
        let m = CpuMask::parse_cpulist("0,2,4,6,8,10,12,14,16-23").unwrap();
        assert_eq!(m.count(), 16);
    }

    #[test]
    fn cpumask_parse_rejects_garbage() {
        assert!(CpuMask::parse_cpulist("abc").is_err());
        assert!(CpuMask::parse_cpulist("5-2").is_err());
        assert!(CpuMask::parse_cpulist("200").is_err());
    }

    #[test]
    fn cpumask_and_or() {
        let a = CpuMask::from_cpus([0, 1, 2]);
        let b = CpuMask::from_cpus([2, 3]);
        assert_eq!(a.and(&b).to_cpulist(), "2");
        assert_eq!(a.or(&b).to_cpulist(), "0-3");
    }

    #[test]
    fn coretype_letters() {
        assert_eq!(CoreType::Performance.letter(), "P");
        assert_eq!(CoreType::Efficiency.letter(), "E");
    }
}
