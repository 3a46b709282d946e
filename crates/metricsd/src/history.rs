//! The time-series history store and SLO watchdog.
//!
//! `TickSnapshot`s are point-in-time; this module is the daemon's
//! memory. Every pump folds what it served (reads, stale reads, latency
//! histogram, eviction/shed counts) and the collector's per-cluster
//! counter deltas into one [`Rollup`] frame, pushed into a
//! fixed-capacity ring with **power-of-two downsampling tiers**: tier 0
//! holds one frame per pump; when [`TIER_FANOUT`] tier-N frames have
//! been pushed, they merge into one tier-N+1 frame. Long horizons stay
//! queryable at bounded memory and every [`Request::QueryRange`] reply
//! stays under [`MAX_RANGE_POINTS`] points by construction — the query
//! planner walks to a coarser tier instead of growing the frame.
//!
//! Determinism: a rollup is a pure function of the pump schedule and
//! the serving outcome. Histograms merge bucket-wise and the breach
//! exemplar is the max by `(latency, trace_id)` — order-free reductions
//! — so the history and every query reply are bit-identical from run to
//! run (asserted against pinned values in `tests/history.rs`).
//!
//! The **SLO watchdog** evaluates declarative [`SloSpec`] targets over
//! a trailing window of tier-0 frames after every push. A breached
//! window bumps the SLO's [`SloHealth`] row (served by `GetHealth`) and
//! surfaces an *exemplar trace id* — the slowest sampled request inside
//! the window — which resolves to recorded `SpanBegin`/`SpanEnd` spans
//! on the client and serving tracks, linking the aggregate regression
//! to one concrete slow request.
//!
//! [`Request::QueryRange`]: crate::wire::Request::QueryRange
//! [`MAX_RANGE_POINTS`]: crate::wire::MAX_RANGE_POINTS

use crate::wire::{agg, series, SloHealth, MAX_RANGE_POINTS};
use simtrace::metrics::Histogram;
use std::collections::VecDeque;
use std::ops::Range;

/// Downsampling tiers: 0 = per-pump, 1 = per-8-pumps, 2 = per-64-pumps.
pub const TIERS: usize = 3;

/// Frames merged into one when promoting to the next tier.
pub const TIER_FANOUT: u64 = 8;

/// One frame of rolled-up serving history covering `[first_tick,
/// last_tick]` (one pump at tier 0, [`TIER_FANOUT`]^tier pumps above).
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    /// Pump index of the newest pump folded into this frame.
    pub pump: u64,
    /// Snapshot tick range served from during this frame.
    pub first_tick: u64,
    pub last_tick: u64,
    /// Snapshot time at the frame's start/end (rate denominators).
    pub first_time_ns: u64,
    pub last_time_ns: u64,
    pub reads: u64,
    pub stale_reads: u64,
    pub evictions: u64,
    pub sheds: u64,
    /// Instructions/cycles retired per cluster over the frame (cluster
    /// 1 stays zero on homogeneous machines).
    pub cluster_instructions: [u64; 2],
    pub cluster_cycles: [u64; 2],
    /// Read-latency observations (ns) served during the frame.
    pub latency: Histogram,
    /// Worst sampled-and-traced read latency inside the frame, and the
    /// trace id that incurred it (0 = no sampled request this frame).
    pub slow_ns: u64,
    pub exemplar: u64,
}

impl Rollup {
    /// Fold one served read in. `trace_id` is nonzero only for sampled
    /// traced requests — those are exemplar candidates.
    #[inline]
    pub(crate) fn observe_read(&mut self, latency_ns: u64, stale: bool, trace_id: u64) {
        self.reads += 1;
        if stale {
            self.stale_reads += 1;
        }
        self.latency.observe(latency_ns);
        if trace_id != 0 && (latency_ns, trace_id) > (self.slow_ns, self.exemplar) {
            self.slow_ns = latency_ns;
            self.exemplar = trace_id;
        }
    }

    fn merge(&mut self, o: &Rollup) {
        self.pump = self.pump.max(o.pump);
        self.first_tick = self.first_tick.min(o.first_tick);
        self.last_tick = self.last_tick.max(o.last_tick);
        self.first_time_ns = self.first_time_ns.min(o.first_time_ns);
        self.last_time_ns = self.last_time_ns.max(o.last_time_ns);
        self.reads += o.reads;
        self.stale_reads += o.stale_reads;
        self.evictions += o.evictions;
        self.sheds += o.sheds;
        for i in 0..2 {
            self.cluster_instructions[i] += o.cluster_instructions[i];
            self.cluster_cycles[i] += o.cluster_cycles[i];
        }
        self.latency.merge(&o.latency);
        if (o.slow_ns, o.exemplar) > (self.slow_ns, self.exemplar) {
            self.slow_ns = o.slow_ns;
            self.exemplar = o.exemplar;
        }
    }

    /// The frame's value for a counter series.
    fn counter(&self, s: u8) -> u64 {
        match s {
            series::READS => self.reads,
            series::STALE_READS => self.stale_reads,
            series::EVICTIONS => self.evictions,
            series::SHEDS => self.sheds,
            series::CLUSTER0_INSTRUCTIONS => self.cluster_instructions[0],
            series::CLUSTER1_INSTRUCTIONS => self.cluster_instructions[1],
            series::CLUSTER0_CYCLES => self.cluster_cycles[0],
            series::CLUSTER1_CYCLES => self.cluster_cycles[1],
            _ => 0,
        }
    }
}

/// What an SLO targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// p99 of read latency (ns) over the window.
    P99LatencyNs,
    /// Total evictions over the window.
    EvictionsPerWindow,
    /// Stale reads as parts-per-million of reads over the window.
    StaleReadPpm,
}

impl SloKind {
    pub fn code(self) -> u8 {
        match self {
            SloKind::P99LatencyNs => 0,
            SloKind::EvictionsPerWindow => 1,
            SloKind::StaleReadPpm => 2,
        }
    }
}

/// A declarative SLO target, evaluated after every pump over the
/// trailing `window_pumps` tier-0 frames. Breach condition: observed
/// value strictly greater than `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    pub kind: SloKind,
    pub target: u64,
    pub window_pumps: u32,
}

impl SloSpec {
    pub fn p99_latency_ns(target: u64, window_pumps: u32) -> SloSpec {
        SloSpec {
            kind: SloKind::P99LatencyNs,
            target,
            window_pumps,
        }
    }

    pub fn evictions_per_window(target: u64, window_pumps: u32) -> SloSpec {
        SloSpec {
            kind: SloKind::EvictionsPerWindow,
            target,
            window_pumps,
        }
    }

    pub fn stale_read_ppm(target: u64, window_pumps: u32) -> SloSpec {
        SloSpec {
            kind: SloKind::StaleReadPpm,
            target,
            window_pumps,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct SloState {
    breaches: u64,
    last_breach_pump: u64,
    worst: u64,
    exemplar: u64,
}

/// One breach fired by a push — the caller records the `SloBreach`
/// trace event (the watchdog itself stays sink-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breach {
    /// Index into the configured SLO list.
    pub slo: usize,
    pub observed: u64,
    pub exemplar: u64,
}

/// A successfully planned range query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeResult {
    pub tier: u8,
    pub count: u64,
    pub min: u64,
    pub max: u64,
    pub points: Vec<(u64, u64)>,
}

/// The rollup ring, its downsampling tiers, and the SLO watchdog.
#[derive(Debug, Clone)]
pub struct History {
    tiers: [VecDeque<Rollup>; TIERS],
    /// Frames ever pushed per tier — the promotion trigger.
    pushed: [u64; TIERS],
    cap: usize,
    slos: Vec<SloSpec>,
    state: Vec<SloState>,
}

impl History {
    /// `cap` is the per-tier frame capacity (floored at
    /// [`TIER_FANOUT`] so promotion always has its inputs resident).
    pub fn new(cap: usize, slos: Vec<SloSpec>) -> History {
        let state = vec![SloState::default(); slos.len()];
        History {
            tiers: Default::default(),
            pushed: [0; TIERS],
            cap: cap.max(TIER_FANOUT as usize),
            slos,
            state,
        }
    }

    pub fn slos(&self) -> &[SloSpec] {
        &self.slos
    }

    /// Total frames currently resident across tiers.
    pub fn frames(&self) -> usize {
        self.tiers.iter().map(|t| t.len()).sum()
    }

    /// Push one pump's rollup, cascade tier promotions, and evaluate
    /// every SLO window. Returns the breaches fired by this pump.
    pub fn push(&mut self, r: Rollup) -> Vec<Breach> {
        self.push_tier(0, r);
        self.evaluate()
    }

    fn push_tier(&mut self, t: usize, r: Rollup) {
        // `query` binary-searches each tier, so both tick bounds must
        // ascend from frame to frame.
        debug_assert!(
            self.tiers[t]
                .back()
                .is_none_or(|p| p.first_tick <= r.first_tick && p.last_tick <= r.last_tick),
            "tier {t}: frame ticks fell below the previous frame's"
        );
        self.tiers[t].push_back(r);
        if self.tiers[t].len() > self.cap {
            self.tiers[t].pop_front();
        }
        self.pushed[t] += 1;
        if t + 1 < TIERS && self.pushed[t].is_multiple_of(TIER_FANOUT) {
            let n = self.tiers[t].len();
            let mut frames = self.tiers[t].range(n - TIER_FANOUT as usize..);
            let mut merged = frames.next().expect("cap >= fanout").clone();
            for f in frames {
                merged.merge(f);
            }
            self.push_tier(t + 1, merged);
        }
    }

    fn evaluate(&mut self) -> Vec<Breach> {
        let mut fired = Vec::new();
        let newest_pump = match self.tiers[0].back() {
            Some(r) => r.pump,
            None => return fired,
        };
        for (i, spec) in self.slos.iter().enumerate() {
            let window = (spec.window_pumps as usize).max(1);
            let n = self.tiers[0].len();
            let frames = self.tiers[0].iter().skip(n.saturating_sub(window));
            let mut reads = 0u64;
            let mut stale = 0u64;
            let mut evictions = 0u64;
            let mut hist = Histogram::new();
            let mut slow = (0u64, 0u64);
            for f in frames {
                reads += f.reads;
                stale += f.stale_reads;
                evictions += f.evictions;
                hist.merge(&f.latency);
                slow = slow.max((f.slow_ns, f.exemplar));
            }
            let observed = match spec.kind {
                SloKind::P99LatencyNs => hist.percentile(0.99),
                SloKind::EvictionsPerWindow => evictions,
                SloKind::StaleReadPpm => (stale * 1_000_000).checked_div(reads).unwrap_or(0),
            };
            if observed > spec.target {
                let st = &mut self.state[i];
                st.breaches += 1;
                st.last_breach_pump = newest_pump;
                st.worst = st.worst.max(observed);
                st.exemplar = slow.1;
                fired.push(Breach {
                    slo: i,
                    observed,
                    exemplar: slow.1,
                });
            }
        }
        fired
    }

    /// The `GetHealth` rows.
    pub fn health(&self) -> Vec<SloHealth> {
        self.slos
            .iter()
            .zip(self.state.iter())
            .map(|(spec, st)| SloHealth {
                kind: spec.kind.code(),
                target: spec.target,
                window_pumps: spec.window_pumps,
                breaches: st.breaches,
                last_breach_pump: st.last_breach_pump,
                worst: st.worst,
                exemplar_trace_id: st.exemplar,
            })
            .collect()
    }

    /// Plan and execute a ranged query. The planner picks the finest
    /// tier whose overlapping frames fit in `max_points` AND whose
    /// retained horizon still covers the range start (coarser tiers
    /// remember further back); when no tier covers, the coarsest
    /// non-empty tier serves its newest `max_points` frames.
    ///
    /// Frames are pushed in tick order, so both tick bounds ascend
    /// through a tier and the frames overlapping a range are one
    /// contiguous run, found by two binary searches: a query costs
    /// O(log cap) plus the frames it aggregates.
    pub fn query(
        &self,
        s: u8,
        a: u8,
        start_tick: u64,
        end_tick: u64,
        max_points: u32,
    ) -> Result<RangeResult, &'static str> {
        if s >= series::COUNT || a >= agg::COUNT || start_tick > end_tick || max_points == 0 {
            return Err("bad series/agg/range");
        }
        let percentile = matches!(a, agg::P50 | agg::P90 | agg::P99);
        if percentile != (s == series::LATENCY_NS) {
            return Err("aggregation does not fit series");
        }
        let max_points = (max_points as usize).min(MAX_RANGE_POINTS);
        // The oldest tick retained anywhere bounds what "covers the
        // start" can mean once the range predates all history.
        let oldest = self
            .tiers
            .iter()
            .filter_map(|t| t.front().map(|r| r.first_tick))
            .min()
            .unwrap_or(0);
        let want_start = start_tick.max(oldest);
        // Single-point aggregations (rate, percentiles) reply with one
        // point whatever they scanned, so only coverage drives their
        // tier choice; SUM replies one point per frame and must also
        // fit `max_points`.
        let single_point = a != agg::SUM;
        let mut chosen: Option<(usize, Range<usize>)> = None;
        for (t, tier) in self.tiers.iter().enumerate() {
            // The first frame ending at or after the start, and the
            // first starting after the end.
            let lo = tier.partition_point(|r| r.last_tick < start_tick);
            let hi = tier.partition_point(|r| r.first_tick <= end_tick);
            if lo >= hi {
                continue;
            }
            // A tier that does not fit is remembered as the fallback.
            chosen = Some((t, lo..hi));
            let covers = tier[lo].first_tick <= want_start;
            if covers && (single_point || hi - lo <= max_points) {
                break;
            }
        }
        let (t, mut run) = chosen.ok_or("empty range")?;
        if !single_point && run.len() > max_points {
            run.start = run.end - max_points;
        }
        let tier = &self.tiers[t];
        let (first, last) = (&tier[run.start], &tier[run.end - 1]);
        let frames = tier.range(run.clone());
        Ok(match a {
            agg::SUM => {
                let points: Vec<(u64, u64)> = frames.map(|r| (r.last_tick, r.counter(s))).collect();
                let min = points.iter().map(|p| p.1).min().unwrap_or(0);
                let max = points.iter().map(|p| p.1).max().unwrap_or(0);
                RangeResult {
                    tier: t as u8,
                    count: run.len() as u64,
                    min,
                    max,
                    points,
                }
            }
            agg::RATE => {
                let total: u64 = frames.map(|r| r.counter(s)).sum();
                let span_ns = last.last_time_ns.saturating_sub(first.first_time_ns);
                let rate = if span_ns == 0 {
                    total
                } else {
                    (total as u128 * 1_000_000_000 / span_ns as u128) as u64
                };
                RangeResult {
                    tier: t as u8,
                    count: run.len() as u64,
                    min: rate,
                    max: rate,
                    points: vec![(last.last_tick, rate)],
                }
            }
            _ => {
                let mut hist = Histogram::new();
                for r in frames {
                    hist.merge(&r.latency);
                }
                let p = match a {
                    agg::P50 => 0.50,
                    agg::P90 => 0.90,
                    _ => 0.99,
                };
                RangeResult {
                    tier: t as u8,
                    count: hist.count(),
                    min: hist.min(),
                    max: hist.max(),
                    points: vec![(last.last_tick, hist.percentile(p))],
                }
            }
        })
    }

    /// FNV-1a digest over every resident frame — the golden-digest
    /// handle for the determinism tests.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        let put = |v: u64, bytes: &mut Vec<u8>| bytes.extend_from_slice(&v.to_le_bytes());
        for tier in &self.tiers {
            for r in tier {
                for v in [
                    r.pump,
                    r.first_tick,
                    r.last_tick,
                    r.first_time_ns,
                    r.last_time_ns,
                    r.reads,
                    r.stale_reads,
                    r.evictions,
                    r.sheds,
                    r.cluster_instructions[0],
                    r.cluster_instructions[1],
                    r.cluster_cycles[0],
                    r.cluster_cycles[1],
                    r.latency.count(),
                    r.latency.min(),
                    r.latency.max(),
                    r.latency.percentile(0.5),
                    r.latency.percentile(0.99),
                    r.slow_ns,
                    r.exemplar,
                ] {
                    put(v, &mut bytes);
                }
            }
        }
        crate::wire::fnv64(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn overlaps(r: &Rollup, start_tick: u64, end_tick: u64) -> bool {
        r.first_tick <= end_tick && r.last_tick >= start_tick
    }

    /// The planner before the binary search, kept as the oracle: filter
    /// every frame of every tier for overlap, collect, then aggregate.
    fn query_by_scan(
        h: &History,
        s: u8,
        a: u8,
        start_tick: u64,
        end_tick: u64,
        max_points: u32,
    ) -> Result<RangeResult, &'static str> {
        if s >= series::COUNT || a >= agg::COUNT || start_tick > end_tick || max_points == 0 {
            return Err("bad series/agg/range");
        }
        let percentile = matches!(a, agg::P50 | agg::P90 | agg::P99);
        if percentile != (s == series::LATENCY_NS) {
            return Err("aggregation does not fit series");
        }
        let max_points = (max_points as usize).min(MAX_RANGE_POINTS);
        let oldest = h
            .tiers
            .iter()
            .filter_map(|t| t.front().map(|r| r.first_tick))
            .min()
            .unwrap_or(0);
        let want_start = start_tick.max(oldest);
        let single_point = a != agg::SUM;
        let mut chosen: Option<(usize, Vec<&Rollup>)> = None;
        for t in 0..TIERS {
            let frames: Vec<&Rollup> = h.tiers[t]
                .iter()
                .filter(|r| overlaps(r, start_tick, end_tick))
                .collect();
            if frames.is_empty() {
                continue;
            }
            let covers = frames[0].first_tick <= want_start;
            if covers && (single_point || frames.len() <= max_points) {
                chosen = Some((t, frames));
                break;
            }
            chosen = Some((t, frames));
        }
        let (tier, mut frames) = chosen.ok_or("empty range")?;
        if !single_point && frames.len() > max_points {
            frames.drain(..frames.len() - max_points);
        }
        Ok(match a {
            agg::SUM => {
                let points: Vec<(u64, u64)> =
                    frames.iter().map(|r| (r.last_tick, r.counter(s))).collect();
                let min = points.iter().map(|p| p.1).min().unwrap_or(0);
                let max = points.iter().map(|p| p.1).max().unwrap_or(0);
                RangeResult {
                    tier: tier as u8,
                    count: frames.len() as u64,
                    min,
                    max,
                    points,
                }
            }
            agg::RATE => {
                let total: u64 = frames.iter().map(|r| r.counter(s)).sum();
                let span_ns = frames[frames.len() - 1]
                    .last_time_ns
                    .saturating_sub(frames[0].first_time_ns);
                let rate = if span_ns == 0 {
                    total
                } else {
                    (total as u128 * 1_000_000_000 / span_ns as u128) as u64
                };
                RangeResult {
                    tier: tier as u8,
                    count: frames.len() as u64,
                    min: rate,
                    max: rate,
                    points: vec![(frames[frames.len() - 1].last_tick, rate)],
                }
            }
            _ => {
                let mut hist = Histogram::new();
                for r in &frames {
                    hist.merge(&r.latency);
                }
                let p = match a {
                    agg::P50 => 0.50,
                    agg::P90 => 0.90,
                    _ => 0.99,
                };
                RangeResult {
                    tier: tier as u8,
                    count: hist.count(),
                    min: hist.min(),
                    max: hist.max(),
                    points: vec![(frames[frames.len() - 1].last_tick, hist.percentile(p))],
                }
            }
        })
    }

    fn frame(pump: u64, tick: u64, reads: u64, lat: u64) -> Rollup {
        let mut latency = Histogram::new();
        for _ in 0..reads {
            latency.observe(lat);
        }
        Rollup {
            pump,
            first_tick: tick,
            last_tick: tick,
            first_time_ns: tick * 1_000,
            last_time_ns: (tick + 1) * 1_000,
            reads,
            stale_reads: 0,
            evictions: 0,
            sheds: 0,
            cluster_instructions: [reads * 10, reads],
            cluster_cycles: [reads * 20, reads * 2],
            latency,
            slow_ns: lat,
            exemplar: if reads > 0 { pump * 2 + 2 } else { 0 },
        }
    }

    #[test]
    fn tier_promotion_merges_every_fanout_frames() {
        let mut h = History::new(64, vec![]);
        for p in 0..64u64 {
            h.push(frame(p, p + 1, 1, 256));
        }
        // 64 pushes: 64 tier-0 frames, 8 tier-1, 1 tier-2.
        assert_eq!(h.tiers[0].len(), 64);
        assert_eq!(h.tiers[1].len(), 8);
        assert_eq!(h.tiers[2].len(), 1);
        let t1 = &h.tiers[1][0];
        assert_eq!(t1.reads, 8, "one tier-1 frame folds 8 pumps");
        assert_eq!((t1.first_tick, t1.last_tick), (1, 8));
        let t2 = &h.tiers[2][0];
        assert_eq!(t2.reads, 64);
        assert_eq!(t2.latency.count(), 64);
    }

    #[test]
    fn ring_is_bounded_and_coarse_tiers_remember_longer() {
        let mut h = History::new(8, vec![]);
        for p in 0..100u64 {
            h.push(frame(p, p + 1, 1, 64));
        }
        assert!(h.tiers[0].len() <= 8);
        assert!(h.frames() <= 24);
        // Tier 0 forgot tick 1; a query over the full range falls back
        // to a coarser tier that still covers it.
        let r = h.query(series::READS, agg::SUM, 0, 200, 512).unwrap();
        assert!(r.tier >= 1, "tier {} should be coarse", r.tier);
        let newest = h.tiers[0].back().unwrap().first_tick;
        assert!(h.tiers[0].front().unwrap().first_tick > 1);
        assert!(newest >= 92);
    }

    #[test]
    fn query_plans_finest_fitting_tier_and_respects_max_points() {
        let mut h = History::new(512, vec![]);
        for p in 0..64u64 {
            h.push(frame(p, p + 1, 2, 128));
        }
        let fine = h.query(series::READS, agg::SUM, 1, 64, 512).unwrap();
        assert_eq!(fine.tier, 0);
        assert_eq!(fine.points.len(), 64);
        assert!(fine.points.iter().all(|&(_, v)| v == 2));
        // Cap the frame: the planner walks to tier 1 (8 frames).
        let coarse = h.query(series::READS, agg::SUM, 1, 64, 10).unwrap();
        assert_eq!(coarse.tier, 1);
        assert_eq!(coarse.points.len(), 8);
        assert!(coarse.points.iter().all(|&(_, v)| v == 16));
        // Total reads agree between tiers.
        let s0: u64 = fine.points.iter().map(|p| p.1).sum();
        let s1: u64 = coarse.points.iter().map(|p| p.1).sum();
        assert_eq!(s0, s1);
    }

    #[test]
    fn percentile_queries_merge_histograms_exactly() {
        let mut h = History::new(64, vec![]);
        let mut local = Histogram::new();
        for p in 0..20u64 {
            let lat = 100 + p * 37;
            h.push(frame(p, p + 1, 3, lat));
            for _ in 0..3 {
                local.observe(lat);
            }
        }
        let r = h.query(series::LATENCY_NS, agg::P99, 0, 100, 16).unwrap();
        assert_eq!(r.count, local.count());
        assert_eq!(r.min, local.min());
        assert_eq!(r.max, local.max());
        assert_eq!(r.points[0].1, local.percentile(0.99));
        let p50 = h.query(series::LATENCY_NS, agg::P50, 0, 100, 16).unwrap();
        assert_eq!(p50.points[0].1, local.percentile(0.50));
    }

    #[test]
    fn rate_is_events_per_second_of_sim_time() {
        let mut h = History::new(64, vec![]);
        for p in 0..10u64 {
            h.push(frame(p, p + 1, 5, 10));
        }
        // 50 reads over (11*1000 - 1*1000) ns of sim time.
        let r = h.query(series::READS, agg::RATE, 0, 100, 512).unwrap();
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.points[0].1, 50 * 1_000_000_000 / 10_000);
    }

    #[test]
    fn invalid_queries_are_typed_errors() {
        let mut h = History::new(64, vec![]);
        h.push(frame(0, 1, 1, 10));
        assert!(h.query(series::COUNT, agg::SUM, 0, 1, 8).is_err());
        assert!(h.query(series::READS, agg::COUNT, 0, 1, 8).is_err());
        assert!(h.query(series::READS, agg::SUM, 5, 1, 8).is_err());
        assert!(h.query(series::READS, agg::SUM, 0, 1, 0).is_err());
        // Percentiles only on the histogram series, sums only off it.
        assert!(h.query(series::READS, agg::P99, 0, 1, 8).is_err());
        assert!(h.query(series::LATENCY_NS, agg::SUM, 0, 1, 8).is_err());
        // An empty overlap is an error, not an empty reply.
        assert!(h.query(series::READS, agg::SUM, 900, 999, 8).is_err());
    }

    #[test]
    fn slo_watchdog_breaches_with_exemplar() {
        let slos = vec![
            SloSpec::p99_latency_ns(1_000, 4),
            SloSpec::evictions_per_window(0, 4),
            SloSpec::stale_read_ppm(100_000, 4),
        ];
        let mut h = History::new(64, slos);
        // Quiet frames: no breach.
        for p in 0..4u64 {
            assert!(h.push(frame(p, p + 1, 2, 500)).is_empty());
        }
        // One slow, stale, evicting frame breaches all three.
        let mut bad = frame(4, 5, 2, 1_000_000);
        bad.stale_reads = 2;
        bad.evictions = 1;
        bad.exemplar = 4242;
        bad.slow_ns = 1_000_000;
        let fired = h.push(bad);
        assert_eq!(fired.len(), 3, "{fired:?}");
        assert!(fired.iter().all(|b| b.exemplar == 4242));
        let health = h.health();
        assert_eq!(health.len(), 3);
        assert!(health.iter().all(|s| s.breaches >= 1));
        assert!(health.iter().all(|s| s.exemplar_trace_id == 4242));
        assert_eq!(health[1].kind, SloKind::EvictionsPerWindow.code());
        assert!(health[0].worst >= 1_000_000);
        // The breach ages out of the window and evaluation goes quiet,
        // but the health ledger remembers.
        for p in 5..12u64 {
            h.push(frame(p, p + 1, 2, 500));
        }
        let after = h.health();
        assert_eq!(after[1].breaches, health[1].breaches + 3);
        assert_eq!(after[0].breaches, health[0].breaches + 3);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let build = |lat: u64| {
            let mut h = History::new(32, vec![]);
            for p in 0..20u64 {
                h.push(frame(p, p + 1, 2, lat));
            }
            h.digest()
        };
        assert_eq!(build(100), build(100));
        assert_ne!(build(100), build(101));
    }

    /// First tick of the generated histories, so ranges can start
    /// before them.
    const FIRST_TICK: u64 = 100;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The binary-searching planner answers every query exactly as
        /// the scan does, typed errors included.
        ///
        /// Histories: cap 8-64 and 0-600 pushes, half of them at cap 8
        /// and 576+ pushes, which wraps tier 2. The tick steps by 0-3
        /// per push; 0 is a quiescent pump's repeated tick.
        ///
        /// Queries: every series × aggregation pair, a quarter of them
        /// drawn from all pairs, so the invalid ones too. A quarter keep
        /// their ends in drawn order, so some are reversed; a quarter
        /// fall near the newest frames, where tier 0 can serve; the rest
        /// span the history and its margins, so ranges lie before,
        /// inside, across and after it. `max_points` runs 0 to one past
        /// `MAX_RANGE_POINTS`, often small enough to force a coarser
        /// tier.
        #[test]
        fn query_search_equals_scan(
            shape in (0u32..2, 8usize..65, 0usize..601).prop_map(|(wrap, cap, n)| {
                if wrap == 1 { (8, 576 + n % 25) } else { (cap, n) }
            }),
            steps in proptest::collection::vec((0u64..4, 0u64..6, 1u64..5_000), 600),
            queries in proptest::collection::vec(
                (
                    (0u32..4, 0u8..series::COUNT + 1, 0u8..agg::COUNT + 1).prop_map(
                        |(any, s, a)| match (any, s) {
                            (0, _) => (s, a),
                            (_, series::LATENCY_NS) => (s, agg::P50 + a % 3),
                            _ => (s % series::COUNT, a % 2),
                        },
                    ),
                    (0u32..4, 0u64..1_000, 0u64..1_000),
                    (0u32..2, 0u32..MAX_RANGE_POINTS as u32 + 2)
                        .prop_map(|(small, m)| if small == 1 { m % 17 } else { m }),
                ),
                64,
            ),
        ) {
            let (cap, n) = shape;
            let mut h = History::new(cap, vec![]);
            let mut tick = FIRST_TICK;
            for (p, &(step, reads, lat)) in steps[..n].iter().enumerate() {
                tick += step;
                h.push(frame(p as u64, tick, reads, lat));
            }
            let whole = (FIRST_TICK - 50, tick + 50);
            let newest = (tick.saturating_sub(cap as u64).max(whole.0), tick + 2);
            for &((s, a), (mode, x, y), max_points) in &queries {
                let (lo, hi) = if mode == 1 { newest } else { whole };
                let at = |v: u64| lo + v * (hi - lo + 1) / 1_000;
                let (x, y) = if mode == 0 { (x, y) } else { (x.min(y), x.max(y)) };
                let (start, end) = (at(x), at(y));
                prop_assert_eq!(
                    h.query(s, a, start, end, max_points),
                    query_by_scan(&h, s, a, start, end, max_points),
                    "cap {} pushes {} query ({}, {}, {}, {}, {})",
                    cap, n, s, a, start, end, max_points
                );
            }
        }
    }
}
