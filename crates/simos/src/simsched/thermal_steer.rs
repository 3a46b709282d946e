//! Thermal-headroom steering — the scheduler that avoids the paper's
//! Table IV inversion.
//!
//! On the passively-cooled OrangePi, capacity-greedy placement loads the
//! A72 big cluster, walks the trip ladder (68 °C → 1.608 GHz … 88 °C →
//! 600 MHz) and ends up with big cores *slower* than the LITTLE cluster
//! (Table IV, Figs. 3–4). The trap is that reacting to the caps alone is
//! too late: an A72 capped at 1.2 GHz still out-scores an A53, so a
//! cap-proportional policy keeps feeding the hot cluster until the deep
//! trips hit. `ThermalSteer` therefore latches a *proactive derate* the
//! moment temperature approaches the first trip: the big cluster's score
//! is divided by `derate_div`, dropping it below the LITTLE cores, and
//! the `tick` hook migrates its tasks away so the package cools instead
//! of oscillating across the trip ladder.
//!
//! The latch is one-way (engaged for the rest of the run). A reversible
//! latch would migrate work back to the bigs as soon as they cool, reheat
//! them, and ping-pong across the engage threshold — reintroducing the
//! throttle cycling it exists to prevent. One-way is the conservative
//! governor: pay a bounded capacity loss to stay off the ladder.
//!
//! Determinism: the latch only mutates inside `tick`, which the kernel's
//! scheduling pass calls once per tick, so it engages at the same tick in
//! every run of the same seed.

use super::{KernelCtx, Migration, Scheduler, TaskView};
use simcpu::types::CpuId;

#[derive(Debug, Clone, Copy)]
pub struct ThermalSteer {
    /// Whether the proactive big-cluster derate is latched.
    derated: bool,
    /// Engage when `temp >= first_trip - engage_margin` (milli-°C).
    pub engage_margin_mc: i64,
    /// Score divisor applied to the biggest core type while derated; 3
    /// drops a 1024-capacity A72 (341) below a 446-capacity A53.
    pub derate_div: u64,
    /// Per-mille SMT share when the sibling is busy (as `CapacityAware`).
    pub smt_share_pm: u64,
    /// Minimum per-mille gain before migrating a running task.
    pub migrate_gain_pm: u64,
}

impl Default for ThermalSteer {
    fn default() -> ThermalSteer {
        ThermalSteer {
            derated: false,
            engage_margin_mc: 3_000,
            derate_div: 3,
            smt_share_pm: 620,
            migrate_gain_pm: 1100,
        }
    }
}

impl ThermalSteer {
    /// Thermal-aware effective throughput of `ci`: capacity scaled by the
    /// *achievable* frequency (nominal f_max clamped by latched thermal
    /// caps), SMT-derated, and — once the proactive latch engages — the
    /// biggest core type divided by `derate_div`.
    fn eff(&self, ctx: &KernelCtx, ci: usize, claimed: u128) -> u64 {
        let max = ctx.hw.max_khz[ci].max(1);
        let mut e = ctx.topo[ci].capacity as u64 * 1000 * ctx.cap_khz(ci) / max;
        let sibling_busy = ctx.topo[ci]
            .sibling
            .map(|s| ctx.current[s].is_some() || claimed & (1u128 << s) != 0)
            .unwrap_or(false);
        if sibling_busy {
            e = e * self.smt_share_pm / 1000;
        }
        if self.derated && self.is_big(ctx, ci) {
            e /= self.derate_div;
        }
        e
    }

    /// Whether `ci` belongs to the highest-capacity core type present —
    /// the cluster the trip ladder steps down first. On homogeneous
    /// machines every CPU is "big", the derate cancels out, and the
    /// policy degrades to capacity placement.
    fn is_big(&self, ctx: &KernelCtx, ci: usize) -> bool {
        let max_cap = ctx.topo.iter().map(|c| c.capacity).max().unwrap_or(0);
        ctx.topo[ci].capacity == max_cap
    }

    fn should_engage(&self, ctx: &KernelCtx) -> bool {
        ctx.hw.first_trip_mc != i64::MAX
            && ctx.hw.temp_mc >= ctx.hw.first_trip_mc - self.engage_margin_mc
    }
}

impl Scheduler for ThermalSteer {
    fn name(&self) -> &'static str {
        "thermal"
    }

    fn select_cpu(&mut self, ctx: &KernelCtx, task: &TaskView) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for ci in 0..ctx.topo.len() {
            if !ctx.is_free(ci) || !task.affinity.contains(CpuId(ci)) {
                continue;
            }
            let mut e = self.eff(ctx, ci, 0);
            if task.last_cpu == Some(ci) {
                e += 1; // cache-warmth tiebreak
            }
            if best.map(|(b, _)| e > b).unwrap_or(true) {
                best = Some((e, ci));
            }
        }
        best.map(|(_, ci)| ci)
    }

    fn tick(&mut self, ctx: &KernelCtx, out: &mut Vec<Migration>) {
        if !self.derated && self.should_engage(ctx) {
            self.derated = true;
        }
        let mut claimed: u128 = 0;
        for ci in 0..ctx.topo.len() {
            let Some(task) = ctx.running[ci] else {
                continue;
            };
            let cur_eff = self.eff(ctx, ci, claimed);
            let mut best: Option<(u64, usize)> = None;
            for ti in 0..ctx.topo.len() {
                if !ctx.is_free(ti)
                    || claimed & (1u128 << ti) != 0
                    || !task.affinity.contains(CpuId(ti))
                {
                    continue;
                }
                let e = self.eff(ctx, ti, claimed);
                if best.map(|(b, _)| e > b).unwrap_or(true) {
                    best = Some((e, ti));
                }
            }
            if let Some((e, ti)) = best {
                if e * 1000 > cur_eff * self.migrate_gain_pm {
                    claimed |= 1u128 << ti;
                    out.push(Migration {
                        pid: task.pid,
                        to: ti,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{table, topo_hybrid};
    use super::super::{HwView, SchedPass};
    use super::*;
    use crate::task::{Pid, Task};
    use simcpu::types::{CoreType, CpuMask};
    use simtrace::{TraceConfig, TraceSink};

    /// Drive a pass with an orangepi-like hw view: big cores hot.
    fn assign_thermal(
        sched: &mut ThermalSteer,
        tasks: &mut [Option<Task>],
        cur: &mut [Option<Pid>],
        temp_mc: i64,
        big_cap_khz: u64,
        now_ns: u64,
    ) {
        let topo = topo_hybrid();
        // Treat the "P pair" as the A72 cluster @1.8 GHz, "E" as A53 @1.4.
        let max = vec![1_800_000u64, 1_800_000, 1_416_000, 1_416_000];
        let freq = max.clone();
        let hw = HwView {
            freq_khz: &freq,
            max_khz: &max,
            thermal_cap_khz: [big_cap_khz, u64::MAX, u64::MAX, u64::MAX],
            temp_mc,
            first_trip_mc: 68_000,
            throttling: big_cap_khz != u64::MAX,
        };
        let core_types = vec![
            CoreType::Performance,
            CoreType::Performance,
            CoreType::Efficiency,
            CoreType::Efficiency,
        ];
        let online = vec![true; 4];
        let mut pass = SchedPass::default();
        let mut trace = TraceSink::new(&TraceConfig::default());
        pass.run(
            sched,
            &topo,
            &online,
            &core_types,
            &hw,
            tasks,
            cur,
            now_ns,
            &mut trace,
        );
    }

    #[test]
    fn cool_package_prefers_big_cores() {
        let mut sched = ThermalSteer::default();
        let mut tasks = table(1, CpuMask::first_n(4));
        let mut cur = vec![None; 4];
        assign_thermal(&mut sched, &mut tasks, &mut cur, 45_000, u64::MAX, 0);
        assert_eq!(cur[0], Some(Pid(0)), "cool: big core wins");
    }

    #[test]
    fn near_trip_latches_derate_and_steers_away() {
        let mut sched = ThermalSteer::default();
        let mut tasks = table(2, CpuMask::first_n(4));
        let mut cur = vec![None; 4];
        assign_thermal(&mut sched, &mut tasks, &mut cur, 45_000, u64::MAX, 0);
        assert_eq!(cur[0], Some(Pid(0)), "starts on a big core");
        // Package reaches 66 °C — within the 3 °C engage margin of the
        // 68 °C first trip, but not yet throttling. The latch engages and
        // the next pass pulls both tasks onto the LITTLE cluster.
        assign_thermal(
            &mut sched,
            &mut tasks,
            &mut cur,
            66_000,
            u64::MAX,
            1_000_000,
        );
        assign_thermal(
            &mut sched,
            &mut tasks,
            &mut cur,
            66_000,
            u64::MAX,
            2_000_000,
        );
        assert_eq!(cur[0], None, "big cluster drained: {cur:?}");
        assert_eq!(cur[1], None);
        assert!(cur[2].is_some() && cur[3].is_some());
    }

    #[test]
    fn derate_is_sticky_after_cooling() {
        let mut sched = ThermalSteer::default();
        let mut tasks = table(1, CpuMask::first_n(4));
        let mut cur = vec![None; 4];
        assign_thermal(&mut sched, &mut tasks, &mut cur, 66_000, u64::MAX, 0);
        assign_thermal(
            &mut sched,
            &mut tasks,
            &mut cur,
            66_000,
            u64::MAX,
            1_000_000,
        );
        assert!(cur[2].is_some() || cur[3].is_some(), "steered LITTLE");
        let snapshot = cur.clone();
        // Package cools well below the trip: no migration back (one-way
        // latch — moving back would reheat and ping-pong).
        assign_thermal(
            &mut sched,
            &mut tasks,
            &mut cur,
            50_000,
            u64::MAX,
            2_000_000,
        );
        assert_eq!(cur, snapshot);
    }

    #[test]
    fn capped_big_cores_score_by_achievable_frequency() {
        // Deep throttle without the latch (fresh policy seeded past the
        // engage check): a big core capped to 600 MHz scores 1024×0.33 ≈
        // 341 < 446 — the cap alone flips placement at the deep trips.
        let mut sched = ThermalSteer {
            engage_margin_mc: -1_000_000, // never engage; isolate cap math
            ..Default::default()
        };
        let mut tasks = table(1, CpuMask::first_n(4));
        let mut cur = vec![None; 4];
        assign_thermal(&mut sched, &mut tasks, &mut cur, 90_000, 600_000, 0);
        assert!(cur[2].is_some(), "deep-capped big loses to LITTLE: {cur:?}");
    }
}
