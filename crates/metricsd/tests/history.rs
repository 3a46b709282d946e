//! History-store determinism: the rollup ring (and therefore every
//! `QueryRange` answer and SLO verdict derived from it) must be a pure
//! function of the seeded workload — equal to values pinned below, and
//! unperturbed by turning tracing on.
//!
//! The one deliberate knob is `serve_ns: 0`: with a zero queueing term
//! a read's latency depends only on snapshot age, never on its position
//! in the pump's serve order, so the pinned latency histogram (and
//! every percentile in it) does not move with the serving layer.

use metricsd::wire::{agg, series, Request, Response};
use metricsd::{Daemon, DaemonConfig, MetricsClient, SloSpec};
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use simos::task::{Op, ScriptedProgram};
use simtrace::TraceConfig;

fn boot(traced: bool) -> KernelHandle {
    let kernel = Kernel::boot_handle(
        MachineSpec::raptor_lake_i7_13700(),
        KernelConfig {
            trace: if traced {
                TraceConfig::enabled_with_cap(1 << 14)
            } else {
                TraceConfig::default()
            },
            ..KernelConfig::default()
        },
    );
    {
        let mut k = kernel.lock();
        for cpu in [0usize, 3, 16, 20] {
            k.spawn(
                &format!("w{cpu}"),
                Box::new(ScriptedProgram::new([
                    Op::Compute(Phase::scalar(u64::MAX / 4)),
                    Op::Exit,
                ])),
                CpuMask::from_cpus([cpu]),
                0,
            );
        }
    }
    kernel
}

struct RunOutcome {
    history_digest: u64,
    /// FNV over the final Counters reply (kernel-truth cross-check).
    counters_digest: u64,
    wire_read_sum: u64,
    wire_p99: u64,
    breaches: u64,
}

/// One deterministic session: subscribe, read every pump for `pumps`
/// pumps, then interrogate the history over the wire and digest it.
fn run(traced: bool) -> RunOutcome {
    let trace_cfg = if traced {
        TraceConfig::enabled_with_cap(1 << 14)
    } else {
        TraceConfig::default()
    };
    let mut daemon = Daemon::new(
        boot(traced),
        DaemonConfig {
            serve_ns: 0,
            slos: vec![
                SloSpec::p99_latency_ns(1, 4),
                SloSpec::evictions_per_window(1_000_000, 4),
            ],
            ..DaemonConfig::default()
        },
    );
    let connector = daemon.connector();
    let mut c = MetricsClient::new(connector.connect());
    if traced {
        c.enable_tracing(&trace_cfg, 2);
    }
    c.post(&Request::Hello {
        proto: metricsd::PROTO_VERSION,
    })
    .expect("post hello");
    daemon.pump();
    while let Ok(Some(_)) = c.try_take() {}
    c.post(&Request::Subscribe {
        cpu_mask: u64::MAX,
        metrics: 0xff,
    })
    .expect("post subscribe");
    daemon.pump();
    let mut sub_id = None;
    while let Ok(Some(resp)) = c.try_take() {
        if let Response::Subscribed { sub_id: s, .. } = resp {
            sub_id = Some(s);
        }
    }
    let sub_id = sub_id.expect("subscribed");

    let mut counters_digest = 0xcbf29ce484222325u64;
    let fnv = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x100000001b3);
        }
    };
    let mut reads = 0u64;
    for _ in 0..24 {
        if traced {
            c.post_traced(&Request::Read {
                sub_id,
                submit_ns: 0,
            })
            .expect("post traced read");
        } else {
            c.post(&Request::Read {
                sub_id,
                submit_ns: 0,
            })
            .expect("post read");
        }
        daemon.pump();
        while let Ok(Some(resp)) = c.try_take() {
            if let Response::Counters { values, .. } = resp {
                reads += 1;
                counters_digest = 0xcbf29ce484222325;
                for v in &values {
                    fnv(&mut counters_digest, &[v.metric]);
                    fnv(&mut counters_digest, &v.value.to_le_bytes());
                }
            }
        }
    }
    assert_eq!(reads, 24, "every read answered");

    // One settle pump so the last rollup (and its SLO verdicts) is in
    // the ring before we interrogate it. Lockstep pumping, so queries
    // go post → pump → drain rather than through the blocking rpc().
    daemon.pump();
    c.post(&Request::QueryRange {
        series: series::READS,
        agg: agg::SUM,
        start_tick: 0,
        end_tick: u64::MAX,
        max_points: 64,
    })
    .expect("post range sum");
    c.post(&Request::QueryRange {
        series: series::LATENCY_NS,
        agg: agg::P99,
        start_tick: 0,
        end_tick: u64::MAX,
        max_points: 1,
    })
    .expect("post range p99");
    c.post(&Request::GetHealth).expect("post health");
    daemon.pump();
    let mut wire_read_sum = 0u64;
    let mut wire_p99 = 0u64;
    let mut breaches = 0u64;
    let mut replies = 0;
    while let Ok(Some(resp)) = c.try_take() {
        match resp {
            Response::RangeReply { points, .. } => {
                if replies == 0 {
                    wire_read_sum = points.iter().map(|p| p.1).sum::<u64>();
                } else {
                    wire_p99 = points.first().map(|p| p.1).unwrap_or(0);
                }
                replies += 1;
            }
            Response::Health { slos, .. } => {
                breaches = slos.iter().map(|s| s.breaches).sum();
                replies += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(replies, 3, "sum + p99 + health all answered");

    RunOutcome {
        history_digest: daemon.history().digest(),
        counters_digest,
        wire_read_sum,
        wire_p99,
        breaches,
    }
}

/// Pinned outcome of [`run`]. Recorded when the daemon still sharded its
/// sessions: 1, 4 and 8 shards all produced these values, and so did the
/// collector with and without quiescent macro-ticks.
const HISTORY_DIGEST: u64 = 0xc9fd_81b2_54b1_49ca;
const COUNTERS_DIGEST: u64 = 0x96ed_2dbf_6ef3_432a;
const P99_NS: u64 = 520_000_000;
const BREACHES: u64 = 25;

/// The run must produce the pinned history digest, counters digest, p99
/// and breach count.
#[test]
fn history_matches_pinned_values() {
    let got = run(false);
    assert_eq!(got.wire_read_sum, 24);
    assert_eq!(got.history_digest, HISTORY_DIGEST, "history digest drifted");
    assert_eq!(got.counters_digest, COUNTERS_DIGEST, "counters drifted");
    assert_eq!(got.wire_p99, P99_NS, "p99 drifted");
    assert_eq!(got.breaches, BREACHES, "breaches drifted");
}

/// Turning the flight recorder + per-RPC sampling on must not move a
/// single counter or latency bit. (The history digest itself differs —
/// breach exemplars legitimately record trace ids — so the invariant
/// is counters, read totals, p99 and breach count.)
#[test]
fn tracing_does_not_perturb_counters_or_latency() {
    let base = run(false);
    let traced = run(true);
    assert_eq!(traced.counters_digest, base.counters_digest);
    assert_eq!(traced.wire_read_sum, base.wire_read_sum);
    assert_eq!(traced.wire_p99, base.wire_p99);
    assert_eq!(traced.breaches, base.breaches);
}
