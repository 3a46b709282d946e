//! # perftool — a Linux `perf`-tool analogue
//!
//! §IV.A of the paper describes how the `perf` tool copes with hybrid
//! machines: it "works in this way, by setting up multiple events on
//! heterogeneous systems and reporting all of the results gathered" — one
//! event per core-type PMU per requested counter, read back with one or
//! more syscalls per group. The paper contrasts this with PAPI's caliper
//! model (perf only supports whole-program aggregate counts or statistical
//! sampling).
//!
//! This crate implements that tool against the simulated kernel:
//!
//! * [`stat`] — `perf stat`: whole-run aggregate counting, per-task or
//!   system-wide, with the hybrid expansion (`cpu_core/instructions/` +
//!   `cpu_atom/instructions/` rows) and multiplex scaling annotations;
//! * [`record`] — `perf record` + `perf report`: period sampling and a
//!   per-core-type / per-CPU sample profile.
//!
//! The table-III binary uses the same pattern; this crate packages it as
//! a reusable tool with a CLI (`simperf`). Region calipers are PAPI's,
//! not perf's: `simperf stat --regions` measures through
//! `papi::regions`.

pub mod record;
pub mod stat;

pub use record::{RecordConfig, RecordSession, Report};
pub use stat::{StatConfig, StatResult, StatRow};

use simcpu::events::ArchEvent;

/// Parse a `perf list`-style generic event name into an architectural
/// event ("instructions", "cycles", "LLC-loads", …).
pub fn parse_generic_event(name: &str) -> Option<ArchEvent> {
    simcpu::events::ALL_ARCH_EVENTS
        .iter()
        .copied()
        .find(|e| e.generic_name().eq_ignore_ascii_case(name))
}

/// The generic event names `simperf list` prints: hardware events first,
/// then the kernel software events.
pub fn list_events() -> Vec<&'static str> {
    simcpu::events::ALL_ARCH_EVENTS
        .iter()
        .map(|e| e.generic_name())
        .chain(stat::SOFTWARE_EVENTS.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_names_roundtrip() {
        for name in list_events() {
            assert!(
                parse_generic_event(name).is_some() || stat::parse_software_event(name).is_some(),
                "{name}"
            );
        }
        assert_eq!(
            parse_generic_event("Instructions"),
            Some(ArchEvent::Instructions)
        );
        assert_eq!(parse_generic_event("no-such-event"), None);
    }
}
