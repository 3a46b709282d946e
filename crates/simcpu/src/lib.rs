//! # simcpu — a heterogeneous (hybrid) CPU simulator
//!
//! This crate is the hardware substrate for the `hetero-papi` reproduction of
//! *"Performance Measurement on Heterogeneous Processors with PAPI"*
//! (Cunningham & Weaver, SC 2024).
//!
//! The paper's experiments require real hybrid silicon — an Intel Raptor Lake
//! i7-13700 (8 P-cores + 8 E-cores) and a Rockchip RK3399 big.LITTLE SoC
//! (2×Cortex-A72 + 4×Cortex-A53) — along with their RAPL power-capping
//! firmware and thermal behaviour. None of that is available here, so this
//! crate models it:
//!
//! * [`uarch`] — microarchitecture descriptors (GoldenCove, Gracemont,
//!   Cortex-A72/A53, …) with IPC, vector throughput, PMU shape and the
//!   opaque `cpu_capacity` number Linux exposes.
//! * [`events`] — the architectural event vocabulary counted by the PMUs.
//! * [`pmu`] — the 48-bit hardware counter width (the counter budgets
//!   and event constraints are part of [`uarch`]).
//! * [`cache`] — a real set-associative cache simulator (used for tests and
//!   calibration) plus the analytic working-set model used by the
//!   cycle-batch execution engine.
//! * [`phase`] + [`exec`] — the workload-phase execution model: how many
//!   instructions/cycles/misses a core produces in a time slice.
//! * [`plan`] — exec-plan memoization: per-seat caches of the derived
//!   miss profile / CPI / event plan, exact-keyed so hits are bit-identical.
//! * [`dvfs`], [`power`], [`thermal`] — frequency domains and governors,
//!   the RAPL power model with PL1/PL2 capping, and lumped-RC thermal
//!   models with trip-point throttling.
//! * [`machine`] — full machine descriptions and runtime state, with
//!   presets for the paper's two systems plus control machines.
//!
//! Everything is deterministic: no wall-clock, no unseeded randomness.

pub mod cache;
pub mod dvfs;
pub mod events;
pub mod exec;
pub mod machine;
pub mod phase;
pub mod plan;
pub mod pmu;
pub mod power;
pub mod thermal;
pub mod types;
pub mod uarch;

pub use events::{ArchEvent, EventCounts};
pub use machine::{Machine, MachineSpec};
pub use phase::Phase;
pub use types::{CoreId, CoreType, CpuId, Khz, Nanos};
pub use uarch::Microarch;
