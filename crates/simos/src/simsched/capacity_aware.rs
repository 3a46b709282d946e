//! big.LITTLE capacity placement with SMT-share modeling and migration
//! cost — the scheduler that kills the paper's Table II E-core straggler.
//!
//! `CfsLike`'s idle-core bonus (150k, bigger than any capacity delta)
//! spills wide HPL runs onto E cores: on raptor, 16 workers become 8 on
//! whole P cores + 8 on E cores, and the statically-chunked E workers
//! finish ~10 % late while the P workers spin at the barrier (Table II).
//! `CapacityAware` instead ranks each CPU by *effective throughput* —
//! capacity derated by the SMT share when the sibling is busy — so a busy
//! P sibling (1024 × 0.62 ≈ 635) still beats a whole E core (446) and all
//! 16 workers pack onto the 16 P threads.
//!
//! The `tick` hook rebalances: a running task migrates to a free CPU when
//! the effective-throughput gain clears `migrate_gain_pm` (migration cost
//! guard — cold caches and a dispatch round-trip are only worth paying
//! for a ≥25 % speedup). Decisions are a pure function of the current
//! assignment.

use super::{KernelCtx, Migration, Scheduler, TaskView};
use simcpu::types::CpuId;

#[derive(Debug, Clone, Copy)]
pub struct CapacityAware {
    /// Per-mille throughput share a thread keeps when its SMT sibling is
    /// busy (matches the exec model's smt_share ≈ 0.62 on GoldenCove).
    pub smt_share_pm: u64,
    /// Minimum per-mille effective-throughput gain before migrating a
    /// running task (1250 = move only for a ≥25 % speedup).
    pub migrate_gain_pm: u64,
}

impl Default for CapacityAware {
    fn default() -> CapacityAware {
        CapacityAware {
            smt_share_pm: 620,
            migrate_gain_pm: 1250,
        }
    }
}

impl CapacityAware {
    /// Effective throughput of `ci` (capacity × 1000, SMT-derated), with
    /// `claimed` marking CPUs already taken by this round's migrations.
    fn eff(&self, ctx: &KernelCtx, ci: usize, claimed: u128) -> u64 {
        let mut e = ctx.topo[ci].capacity as u64 * 1000;
        let sibling_busy = ctx.topo[ci]
            .sibling
            .map(|s| ctx.current[s].is_some() || claimed & (1u128 << s) != 0)
            .unwrap_or(false);
        if sibling_busy {
            e = e * self.smt_share_pm / 1000;
        }
        e
    }
}

impl Scheduler for CapacityAware {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn select_cpu(&mut self, ctx: &KernelCtx, task: &TaskView) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for ci in 0..ctx.topo.len() {
            if !ctx.is_free(ci) || !task.affinity.contains(CpuId(ci)) {
                continue;
            }
            let mut e = self.eff(ctx, ci, 0);
            if task.last_cpu == Some(ci) {
                e += 1; // cache-warmth tiebreak, below any real delta
            }
            if best.map(|(b, _)| e > b).unwrap_or(true) {
                best = Some((e, ci));
            }
        }
        best.map(|(_, ci)| ci)
    }

    fn tick(&mut self, ctx: &KernelCtx, out: &mut Vec<Migration>) {
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
    use super::super::tests::{assign, table, topo_hybrid};
    use super::*;
    use crate::task::Pid;
    use simcpu::types::CpuMask;

    #[test]
    fn packs_smt_siblings_before_e_cores() {
        let topo = topo_hybrid(); // cpus 0,1 = P SMT pair; 2,3 = E
        let mut sched = CapacityAware::default();
        let mut tasks = table(2, CpuMask::first_n(4));
        let mut cur = vec![None; 4];
        assign(&mut sched, &topo, &mut tasks, &mut cur, 0);
        // Busy P sibling (1024×0.62 ≈ 635) beats a whole E core (446):
        // both tasks land on the P pair, E cores stay idle.
        assert_eq!(cur[0], Some(Pid(0)));
        assert_eq!(cur[1], Some(Pid(1)));
        assert_eq!(cur[2], None);
        assert_eq!(cur[3], None);
    }

    #[test]
    fn rebalances_straggler_off_e_core() {
        let topo = topo_hybrid();
        let mut sched = CapacityAware::default();
        let mut tasks = table(3, CpuMask::first_n(4));
        let mut cur = vec![None; 4];
        assign(&mut sched, &topo, &mut tasks, &mut cur, 0);
        // 3 tasks: P pair + one E core.
        assert_eq!(cur[2], Some(Pid(2)));
        // Task 0 exits; its P slot frees up. The E straggler must migrate
        // to it at the next pass (gain 1024/446 ≫ 1.25).
        tasks[0] = None;
        assign(&mut sched, &topo, &mut tasks, &mut cur, 1_000_000);
        assert_eq!(cur[2], None, "E core vacated: {cur:?}");
        assert_eq!(
            cur[0],
            Some(Pid(2)),
            "straggler moved to the freed P thread"
        );
    }

    #[test]
    fn small_gain_does_not_migrate() {
        // Free sibling thread of a busy P pair vs a task already on E:
        // 635 vs 446 is only a 1.42× gain — above the default threshold —
        // so check the guard with a tighter policy instead.
        let topo = topo_hybrid();
        let mut sched = CapacityAware {
            migrate_gain_pm: 1500,
            ..Default::default()
        };
        let mut tasks = table(3, CpuMask::first_n(4));
        let mut cur = vec![None; 4];
        assign(&mut sched, &topo, &mut tasks, &mut cur, 0);
        let snapshot = cur.clone();
        assign(&mut sched, &topo, &mut tasks, &mut cur, 1_000_000);
        assert_eq!(cur, snapshot, "no migration under the gain threshold");
    }

    #[test]
    fn steady_assignment_is_a_fixed_point() {
        let topo = topo_hybrid();
        let mut sched = CapacityAware::default();
        let mut tasks = table(4, CpuMask::first_n(4));
        let mut cur = vec![None; 4];
        // Two passes to let any rebalance settle, then the assignment must
        // be a fixed point.
        assign(&mut sched, &topo, &mut tasks, &mut cur, 0);
        assign(&mut sched, &topo, &mut tasks, &mut cur, 1_000_000);
        let snapshot = cur.clone();
        assign(&mut sched, &topo, &mut tasks, &mut cur, 2_000_000);
        assert_eq!(cur, snapshot);
    }
}
