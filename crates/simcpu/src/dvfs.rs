//! DVFS: per-cluster frequency domains and the schedutil-like governor.
//!
//! Each cluster (a set of identical cores) is one frequency domain, as on
//! real hybrid parts: Raptor Lake's P-cores share a domain, the E-cores
//! share another; the RK3399 has independent big and LITTLE domains.
//!
//! Every governor interval the target frequency is computed from the
//! domain's peak utilization (`f = 1.25·util·f_max`, the schedutil rule),
//! then clamped by the RAPL limiter's scale and the thermal governor's
//! trip caps, and finally slewed toward the target at a finite ramp rate —
//! which is what gives Figure 1/3-style traces their ramps instead of
//! square edges.

use crate::types::{Khz, Nanos};

/// Static description of one frequency domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqDomainSpec {
    pub f_min_khz: Khz,
    pub f_max_khz: Khz,
    /// Maximum frequency change per second of wall time (kHz/s).
    pub slew_khz_per_s: u64,
}

impl FreqDomainSpec {
    pub fn new(f_min_khz: Khz, f_max_khz: Khz) -> FreqDomainSpec {
        assert!(f_min_khz > 0 && f_max_khz >= f_min_khz);
        FreqDomainSpec {
            f_min_khz,
            f_max_khz,
            // Full range in ~150 ms, typical of modern turbo ramps.
            slew_khz_per_s: ((f_max_khz - f_min_khz).max(100_000)) * 7,
        }
    }
}

/// Live state of one frequency domain.
#[derive(Debug, Clone)]
pub struct FreqDomain {
    spec: FreqDomainSpec,
    cur_khz: Khz,
}

impl FreqDomain {
    /// Domains boot at minimum frequency.
    pub fn new(spec: FreqDomainSpec) -> FreqDomain {
        let f = spec.f_min_khz;
        FreqDomain { spec, cur_khz: f }
    }

    /// Current frequency.
    pub fn cur_khz(&self) -> Khz {
        self.cur_khz
    }

    /// The static spec.
    pub fn spec(&self) -> &FreqDomainSpec {
        &self.spec
    }

    /// One governor step.
    ///
    /// * `util` — peak utilization among the domain's CPUs (0..=1);
    /// * `power_scale` — RAPL limiter output (0..=1];
    /// * `thermal_cap_khz` — trip-table cap (`u64::MAX` if unthrottled).
    pub fn step(&mut self, dt_ns: Nanos, util: f64, power_scale: f64, thermal_cap_khz: Khz) {
        let s = &self.spec;
        // schedutil: next_f = 1.25 · util · f_max.
        let demand = (1.25 * util.clamp(0.0, 1.0) * s.f_max_khz as f64) as u64;
        let power_lim = (s.f_max_khz as f64 * power_scale.clamp(0.0, 1.0)) as u64;
        let target = demand
            .min(power_lim)
            .min(thermal_cap_khz)
            .clamp(s.f_min_khz, s.f_max_khz);

        // Slew toward target.
        let max_step = (s.slew_khz_per_s as f64 * dt_ns as f64 / 1e9) as u64;
        self.cur_khz = if target > self.cur_khz {
            (self.cur_khz + max_step.max(1)).min(target)
        } else {
            self.cur_khz.saturating_sub(max_step.max(1)).max(target)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    fn domain() -> FreqDomain {
        FreqDomain::new(FreqDomainSpec::new(2_100_000, 5_100_000))
    }

    #[test]
    fn boots_at_min() {
        assert_eq!(domain().cur_khz(), 2_100_000);
    }

    #[test]
    fn ramps_to_max_under_full_load() {
        let mut d = domain();
        for _ in 0..1000 {
            d.step(MS, 1.0, 1.0, u64::MAX);
        }
        assert_eq!(d.cur_khz(), 5_100_000);
    }

    #[test]
    fn ramp_is_gradual() {
        let mut d = domain();
        d.step(10 * MS, 1.0, 1.0, u64::MAX);
        let f1 = d.cur_khz();
        assert!(f1 > 2_100_000 && f1 < 5_100_000, "f after 10ms = {f1}");
    }

    #[test]
    fn power_scale_caps_frequency() {
        let mut d = domain();
        for _ in 0..1000 {
            d.step(MS, 1.0, 0.512, u64::MAX);
        }
        // 0.512 · 5.1 GHz ≈ 2.61 GHz, the paper's Intel-HPL P-core median.
        let f = d.cur_khz();
        assert!((2_550_000..2_680_000).contains(&f), "f = {f}");
    }

    #[test]
    fn thermal_cap_wins_when_lower() {
        let mut d = domain();
        for _ in 0..1000 {
            d.step(MS, 1.0, 1.0, 2_200_000);
        }
        assert_eq!(d.cur_khz(), 2_200_000);
    }

    #[test]
    fn idle_falls_to_min() {
        let mut d = domain();
        for _ in 0..1000 {
            d.step(MS, 1.0, 1.0, u64::MAX);
        }
        for _ in 0..1000 {
            d.step(MS, 0.0, 1.0, u64::MAX);
        }
        assert_eq!(d.cur_khz(), 2_100_000);
    }

    #[test]
    fn partial_util_partial_frequency() {
        let mut d = domain();
        for _ in 0..2000 {
            d.step(MS, 0.5, 1.0, u64::MAX);
        }
        // 1.25·0.5·5.1 = 3.19 GHz.
        let f = d.cur_khz();
        assert!((3_100_000..3_300_000).contains(&f), "f = {f}");
    }
}
