//! Flight-recorder acceptance: a traced run records events from every
//! layer of the stack (simcpu hardware, the simos kernel, the PAPI
//! facade, metricsd), and the Chrome trace-event export passes the
//! strict `jsonw` validator with one track per CPU.
//!
//! That tracing cannot perturb the simulation is covered by
//! `determinism.rs` (traced golden digest); this file checks *coverage*:
//! the right events land on the right tracks.

use metricsd::{Daemon, DaemonConfig, MetricsClient, Request, Response, PROTO_VERSION};
use papi::{Attach, Papi, Preset};
use simcpu::events::ArchEvent;
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::{CpuId, CpuMask};
use simos::faults::{FaultKind, FaultPlan, TransientErrno};
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use simos::task::{Op, Pid, ScriptedProgram};
use simtrace::{chrome_trace_json, span, EventKind, TraceConfig, Track};
use std::collections::BTreeSet;

fn traced_cfg() -> KernelConfig {
    KernelConfig {
        trace: TraceConfig::enabled_with_cap(1 << 16),
        ..Default::default()
    }
}

/// Immortal pinned workers (per-CPU replay once the DVFS ramp settles)
/// plus short free tasks (scheduler churn up front).
fn spawn_mixed(k: &mut simos::kernel::Kernel) {
    let n = k.machine().n_cpus();
    for i in 0..n {
        k.spawn(
            &format!("w{i}"),
            Box::new(move |_: &simos::task::ProgCtx| {
                Op::Compute(Phase::dgemm(1 << 44, 8 << 20, 0.35))
            }),
            CpuMask::from_cpus([i]),
            0,
        );
    }
    for j in 0..3u64 {
        k.spawn(
            &format!("free{j}"),
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(5_000_000 + j * 700_000)),
                Op::Exit,
            ])),
            CpuMask::first_n(n),
            0,
        );
    }
}

/// Every fault kind inside a 400-tick (400 ms) window, with the
/// reversible ones releasing mid-run so `fault_undo` is recorded too.
fn all_faults_plan() -> FaultPlan {
    FaultPlan::new(0x7eac_e0de)
        .at(
            10_000_000,
            FaultKind::CounterWrap {
                headroom: 5_000_000,
            },
        )
        .at(
            50_000_000,
            FaultKind::CpuOffline {
                cpu: CpuId(1),
                down_ns: Some(80_000_000),
            },
        )
        .at(
            70_000_000,
            FaultKind::NmiWatchdog {
                steal: ArchEvent::Instructions,
                hold_ns: Some(60_000_000),
            },
        )
        .at(
            120_000_000,
            FaultKind::TransientOpen {
                errno: TransientErrno::Ebusy,
                count: 1,
            },
        )
        .at(
            120_000_000,
            FaultKind::TransientRead {
                errno: TransientErrno::Eintr,
                count: 2,
            },
        )
        .at(
            160_000_000,
            FaultKind::RaplWrapBurst {
                wraps: 1,
                extra_uj: 10_000,
            },
        )
        .at(180_000_000, FaultKind::SysfsFlaky { dur_ns: 20_000_000 })
}

fn kinds_of(tracks: &[Track]) -> BTreeSet<EventKind> {
    tracks
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.kind))
        .collect()
}

fn track<'a>(tracks: &'a [Track], name: &str) -> &'a Track {
    tracks
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no track named {name}"))
}

/// The headline acceptance run: 400 traced ticks on raptor lake with a
/// full fault plan and a live PAPI eventset. Per-CPU tracks exist, every
/// layer contributed events, and the Chrome export is valid JSON.
#[test]
fn traced_raptor_run_covers_hw_kernel_and_papi() {
    let kernel: KernelHandle =
        Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), traced_cfg());
    let n = {
        let mut k = kernel.lock();
        spawn_mixed(&mut k);
        k.install_faults(&all_faults_plan());
        k.machine().n_cpus()
    };

    let mut papi = Papi::init(kernel.clone()).expect("papi init");
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(Pid(0))).unwrap();
    papi.add_preset(es, Preset::TotIns).unwrap();
    papi.start(es).unwrap();
    for _ in 0..4 {
        kernel.lock().tick_batch(100);
        papi.read_with_quality(es).unwrap();
    }
    papi.stop(es).unwrap();

    let mut tracks = kernel.lock().trace_tracks();
    tracks.push(papi.trace_track());

    // One track per CPU, plus kernel / hw / papi.
    for i in 0..n {
        assert!(
            tracks.iter().any(|t| t.name == format!("cpu{i}")),
            "missing per-CPU track cpu{i}"
        );
    }

    // Layer coverage: each domain's events land on that domain's track.
    let kernel_kinds: BTreeSet<EventKind> = track(&tracks, "kernel")
        .events
        .iter()
        .map(|e| e.kind)
        .collect();
    for k in [
        EventKind::TickBegin,
        EventKind::TickEnd,
        EventKind::FaultCpuOffline,
        EventKind::FaultNmiWatchdog,
        EventKind::FaultTransientOpen,
        EventKind::FaultTransientRead,
        EventKind::FaultCounterWrap,
        EventKind::FaultRaplWrapBurst,
        EventKind::FaultSysfsFlaky,
        EventKind::FaultUndo,
    ] {
        assert!(kernel_kinds.contains(&k), "kernel track missing {k:?}");
    }
    let hw_kinds: BTreeSet<EventKind> =
        track(&tracks, "hw").events.iter().map(|e| e.kind).collect();
    assert!(
        hw_kinds.contains(&EventKind::DvfsTransition),
        "hw track missing the DVFS ramp"
    );
    let papi_kinds: BTreeSet<EventKind> = track(&tracks, "papi")
        .events
        .iter()
        .map(|e| e.kind)
        .collect();
    for k in [
        EventKind::PapiStart,
        EventKind::PapiRead,
        EventKind::PapiStop,
    ] {
        assert!(papi_kinds.contains(&k), "papi track missing {k:?}");
    }
    assert!(
        tracks
            .iter()
            .filter(|t| t.name.starts_with("cpu"))
            .any(|t| t.events.iter().any(|e| e.kind == EventKind::PlanHit)),
        "no per-CPU track recorded a plan-cache hit"
    );

    let all = kinds_of(&tracks);
    assert!(
        all.len() >= 12,
        "expected >= 12 distinct event kinds, got {}: {all:?}",
        all.len()
    );

    // The export parses under the strict validator and names every track.
    let json = chrome_trace_json(&tracks);
    assert!(jsonw::validate(&json), "chrome trace JSON invalid");
    assert!(json.contains("\"thread_name\""));
    for i in 0..n {
        assert!(
            json.contains(&format!("\"cpu{i}\"")),
            "export missing per-CPU track cpu{i}"
        );
    }
    assert!(json.contains("\"fault_cpu_offline\""));
}

/// Timestamps within every track are sim-time monotone — the property
/// that makes the Chrome export render sanely without sorting.
#[test]
fn traced_timestamps_are_monotone_per_track() {
    let kernel = Kernel::boot_handle(MachineSpec::skylake_quad(), traced_cfg());
    {
        let mut k = kernel.lock();
        spawn_mixed(&mut k);
        k.tick_batch(200);
    }
    for t in kernel.lock().trace_tracks() {
        let mut prev = 0u64;
        for e in &t.events {
            assert!(
                e.t_ns >= prev,
                "track {} went backwards: {} after {prev}",
                t.name,
                e.t_ns
            );
            prev = e.t_ns;
        }
    }
}

/// metricsd layer: the daemon records pump/serve events on its own
/// tracks, and `GetSelfMetrics` over the wire exposes the same registry
/// the daemon holds in memory.
#[test]
fn daemon_trace_and_self_metrics_over_the_wire() {
    let kernel = Kernel::boot_handle(MachineSpec::skylake_quad(), traced_cfg());
    {
        let mut k = kernel.lock();
        spawn_mixed(&mut k);
    }
    let mut daemon = Daemon::new(kernel, DaemonConfig::default());
    let mut c = MetricsClient::new(daemon.connector().connect());

    c.post(&Request::Hello {
        proto: PROTO_VERSION,
    })
    .unwrap();
    daemon.pump();
    let Some(Response::Welcome { .. }) = c.try_take().unwrap() else {
        panic!("wanted Welcome");
    };

    c.post(&Request::Subscribe {
        cpu_mask: 0xff,
        metrics: metricsd::wire::metrics::ALL,
    })
    .unwrap();
    daemon.pump();
    let Some(Response::Subscribed { sub_id, .. }) = c.try_take().unwrap() else {
        panic!("wanted Subscribed");
    };

    let mut reads = 0u64;
    for _ in 0..5 {
        c.post(&Request::Read {
            sub_id,
            submit_ns: c.last_seen_ns,
        })
        .unwrap();
        daemon.pump();
        let Some(Response::Counters { .. }) = c.try_take().unwrap() else {
            panic!("wanted Counters");
        };
        reads += 1;
    }

    // The reply frame is frozen at pump start, so the read served in the
    // same pump as the GetSelfMetrics surfaces one pump later.
    c.post(&Request::GetSelfMetrics).unwrap();
    daemon.pump();
    let Some(Response::SelfMetrics { counters, hists }) = c.try_take().unwrap() else {
        panic!("wanted SelfMetrics");
    };
    // `reads_served` counts every served frame: hello + subscribe + reads.
    let served = reads + 2;
    let wire_reads = counters
        .iter()
        .find(|(k, _)| k == "reads_served")
        .map(|&(_, v)| v)
        .expect("reads_served gauge");
    assert_eq!(wire_reads, served, "reads_served gauge");
    let h = hists
        .iter()
        .find(|h| h.name == "read_latency_ns")
        .expect("read_latency_ns histogram");
    assert_eq!(h.count, reads, "one latency observation per read");
    assert!(h.min <= h.p50 && h.p50 <= h.p99 && h.p99 <= h.max);

    // In-memory registry agrees with the wire view.
    let reg = daemon.self_metrics();
    assert_eq!(reg.counter("reads_served"), served);
    assert_eq!(
        reg.histogram("read_latency_ns").map(|h| h.count()),
        Some(reads)
    );

    // Daemon-side tracks carry the serving events; export still validates.
    let tracks = daemon.trace_tracks();
    let daemon_track = track(&tracks, "daemon");
    assert!(
        daemon_track
            .events
            .iter()
            .any(|e| e.kind == EventKind::DaemonPump),
        "daemon track missing pump events"
    );
    let serves = track(&tracks, "serve")
        .events
        .iter()
        .filter(|e| e.kind == EventKind::DaemonServe)
        .count();
    assert_eq!(serves as u64, reads, "one serve event per read");
    assert!(jsonw::validate(&chrome_trace_json(&tracks)));
}

/// Causal tracing end to end: a client traced at `sample_every = 1`
/// against an in-process daemon. Every traced read leaves a linked span
/// on both sides of the wire, and the export renders them as
/// `rpc:client` / `rpc:serve` slices stitched by flow arrows.
#[test]
fn traced_reads_link_client_and_serve_spans() {
    let kernel = Kernel::boot_handle(MachineSpec::skylake_quad(), traced_cfg());
    spawn_mixed(&mut kernel.lock());
    let mut daemon = Daemon::new(kernel, DaemonConfig::default());
    let mut c = MetricsClient::new(daemon.connector().connect());
    c.enable_tracing(&traced_cfg().trace, 1);

    c.post(&Request::Hello {
        proto: PROTO_VERSION,
    })
    .unwrap();
    daemon.pump();
    while let Ok(Some(_)) = c.try_take() {}
    c.post(&Request::Subscribe {
        cpu_mask: u64::MAX,
        metrics: metricsd::wire::metrics::ALL,
    })
    .unwrap();
    daemon.pump();
    let Some(Response::Subscribed { sub_id, .. }) = c.try_take().unwrap() else {
        panic!("wanted Subscribed");
    };

    let mut trace_ids = Vec::new();
    for _ in 0..6 {
        let trace_id = c
            .post_traced(&Request::Read {
                sub_id,
                submit_ns: 0,
            })
            .unwrap();
        assert_ne!(trace_id, 0, "every RPC is sampled at sample_every = 1");
        trace_ids.push(trace_id);
        daemon.pump();
        while let Ok(Some(_)) = c.try_take() {}
    }

    let mut tracks = daemon.trace_tracks();
    tracks.push(c.trace_track());
    for (side, hop) in [("client", span::CLIENT), ("serve", span::SERVE)] {
        let events = &track(&tracks, side).events;
        for &id in &trace_ids {
            for kind in [EventKind::SpanBegin, EventKind::SpanEnd] {
                assert!(
                    events
                        .iter()
                        .any(|e| e.kind == kind && e.code == hop && e.a == id),
                    "{side} track has no {kind:?} for trace {id:#x}"
                );
            }
        }
    }
    let json = chrome_trace_json(&tracks);
    assert!(jsonw::validate(&json), "span export invalid");
    for needle in ["\"ph\":\"s\"", "\"ph\":\"f\"", "rpc:client", "rpc:serve"] {
        assert!(json.contains(needle), "span export missing {needle}");
    }
}

/// A disabled recorder stays invisible: no tracks carry events and the
/// export is an empty-but-valid document.
#[test]
fn disabled_tracing_records_nothing() {
    let mut k = Kernel::boot(
        MachineSpec::skylake_quad(),
        KernelConfig {
            trace: TraceConfig::default(),
            ..Default::default()
        },
    );
    spawn_mixed(&mut k);
    for _ in 0..50 {
        k.tick();
    }
    assert!(!k.trace_enabled());
    let tracks = k.trace_tracks();
    assert!(tracks.iter().all(|t| t.events.is_empty()));
    assert!(jsonw::validate(&chrome_trace_json(&tracks)));
}
