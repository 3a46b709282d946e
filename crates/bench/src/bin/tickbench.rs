//! Tick-throughput benchmark: `Kernel::tick()` per preset.
//!
//! Emits `BENCH_tick.json`, the tick baseline later changes diff against
//! (`scripts/tier1.sh` runs this in `--quick` mode). For each machine
//! preset it boots a fully loaded kernel (one immortal dgemm-ish worker
//! per CPU, phases long enough to span many ticks like the paper's HPL
//! runs), ticks past the DVFS slew ramp (~143 ticks), and measures
//! ticks/second of `tick()` in [`WINDOWS`] consecutive timed windows,
//! reporting the median with the slowest and fastest window, so one host
//! stall moves one window instead of the preset's figure. After the ramp
//! nearly every busy CPU replays its last tick (per-CPU template replay,
//! DESIGN.md §9), so this measures that path. The exec-plan cache hit
//! rate over the whole run is reported per preset, with `host_cpus`
//! recorded beside them. The windows end by tick 2,240 (0.45 s
//! simulated) because the later ticks are a different regime: timed as
//! 5 windows of 2,000 ticks, raptor's plan hit rate over the run fell
//! from 94% to 55% and its slowest window ran at a third of its fastest.
//!
//! Knobs: `--quick` (windows of 300 timed ticks instead of 400).
//!
//! `--trace-smoke` runs the observability acceptance check instead of the
//! benchmark: a 400-tick raptor run with the flight recorder on, a full
//! fault plan and a live PAPI eventset, exported as Chrome trace-event
//! JSON and validated with `jsonw::validate` (per-CPU tracks and fault
//! events present).

use metricsd::wire::{Request, Response};
use metricsd::{Daemon, DaemonConfig, MetricsClient};
use papi::{Attach, Papi, Preset};
use simcpu::events::ArchEvent;
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::{CpuId, CpuMask};
use simos::faults::{FaultKind, FaultPlan, TransientErrno};
use simos::kernel::{Kernel, KernelConfig};
use simos::task::{Op, Pid, ScriptedProgram};
use simtrace::{EventKind, TraceConfig};
use std::time::Instant;

/// Timed windows per preset.
const WINDOWS: usize = 5;

struct PresetResult {
    /// Median, slowest and fastest window.
    ticks_per_s: f64,
    ticks_per_s_min: f64,
    ticks_per_s_max: f64,
    /// Exec-plan cache hit rate over the whole run, 0.0 if never probed.
    plan_hit_rate: f64,
}

fn load_kernel(spec: MachineSpec) -> Kernel {
    let mut k = Kernel::boot(spec, KernelConfig::default());
    let n = k.machine().n_cpus();
    for i in 0..n {
        // A blocked dgemm-like phase, long enough to outlive the run: each
        // tick consumes its full cycle budget against one phase, like one
        // slice of an HPL factorization.
        k.spawn(
            &format!("w{i}"),
            Box::new(move |_: &simos::task::ProgCtx| {
                Op::Compute(Phase::dgemm(1 << 44, 8 << 20, 0.35))
            }),
            CpuMask::from_cpus([i]),
            0,
        );
    }
    k
}

fn run_preset(spec: MachineSpec, warmup: usize, ticks: usize) -> PresetResult {
    let mut k = load_kernel(spec);
    // Warm up past the DVFS slew ramp so the timed window measures the
    // steady state.
    for _ in 0..warmup + 200 {
        k.tick();
    }
    let mut rates: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ticks {
                k.tick();
            }
            ticks as f64 / start.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    let (hits, misses) = k.plan_cache_stats();
    PresetResult {
        ticks_per_s: rates[WINDOWS / 2],
        ticks_per_s_min: rates[0],
        ticks_per_s_max: rates[WINDOWS - 1],
        plan_hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    }
}

/// Every fault kind, timed inside a 400-tick (400 ms) run, on CPUs every
/// preset has. The reversible ones (offline, watchdog) release mid-run so
/// `fault_undo` events land in the recorder too.
fn smoke_fault_plan() -> FaultPlan {
    FaultPlan::new(0x0b5e_7ab1e)
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

/// The trace acceptance run: record everything, export, validate.
fn trace_smoke() {
    let kernel = Kernel::boot_handle(
        MachineSpec::raptor_lake_i7_13700(),
        KernelConfig {
            trace: TraceConfig::enabled_with_cap(1 << 16),
            ..Default::default()
        },
    );
    let n = {
        let mut k = kernel.lock();
        let n = k.machine().n_cpus();
        // Immortal pinned workers replay their ticks once the DVFS ramp
        // settles (plan hits); a few short free tasks churn the scheduler
        // early (migrations, plan misses).
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
                    Op::Compute(Phase::stream(3_000_000, 48 << 20)),
                    Op::Exit,
                ])),
                CpuMask::first_n(n),
                0,
            );
        }
        k.install_faults(&smoke_fault_plan());
        n
    };

    // A live PAPI eventset so the papi track records start/read/stop,
    // including degraded-quality reads while the watchdog holds a counter.
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
    // Arm the post-mortem dump so a failed assert below prints the tail
    // of every stream instead of just the panic message.
    simtrace::postmortem::stash(simtrace::text_dump(&tracks, 48));

    let json = simtrace::chrome_trace_json(&tracks);
    assert!(
        jsonw::validate(&json),
        "chrome trace JSON failed strict validation"
    );
    for i in 0..n {
        assert!(
            json.contains(&format!("\"cpu{i}\"")),
            "missing per-CPU track cpu{i}"
        );
    }

    let mut kinds = std::collections::BTreeSet::new();
    for t in &tracks {
        for e in &t.events {
            kinds.insert(e.kind.name());
        }
    }
    for required in [
        EventKind::TickBegin,
        EventKind::TickEnd,
        EventKind::PlanHit,
        EventKind::DvfsTransition,
        EventKind::FaultCpuOffline,
        EventKind::FaultNmiWatchdog,
        EventKind::FaultTransientOpen,
        EventKind::FaultTransientRead,
        EventKind::FaultCounterWrap,
        EventKind::FaultRaplWrapBurst,
        EventKind::FaultSysfsFlaky,
        EventKind::FaultUndo,
        EventKind::PapiStart,
        EventKind::PapiRead,
        EventKind::PapiStop,
    ] {
        assert!(
            kinds.contains(required.name()),
            "trace smoke missing event kind {:?}; recorded: {kinds:?}",
            required.name()
        );
    }
    println!(
        "trace smoke: OK — {} tracks, {} distinct event kinds, {} bytes of valid chrome JSON",
        tracks.len(),
        kinds.len(),
        json.len()
    );
    if let Ok(path) = std::env::var("TICKBENCH_TRACE_OUT") {
        std::fs::write(&path, &json).expect("write trace JSON");
        println!("wrote {path}");
    }
    daemon_span_smoke();
}

/// The causal-tracing half of the smoke: an in-process metricsd daemon
/// with a traced client, every RPC sampled, exported to Perfetto JSON.
/// Asserts the export carries linked span slices on both sides of the
/// wire AND flow arrows (`"ph":"s"` / `"ph":"f"`) stitching them into
/// one request-scoped lane.
fn daemon_span_smoke() {
    let trace_cfg = TraceConfig::enabled_with_cap(1 << 14);
    let kernel = Kernel::boot_handle(
        MachineSpec::skylake_quad(),
        KernelConfig {
            trace: trace_cfg.clone(),
            ..Default::default()
        },
    );
    kernel.lock().spawn(
        "w0",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(u64::MAX / 4)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([0]),
        0,
    );
    let mut daemon = Daemon::new(kernel, DaemonConfig::default());
    let connector = daemon.connector();
    let mut c = MetricsClient::new(connector.connect());
    c.enable_tracing(&trace_cfg, 1); // sample every RPC

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
    for _ in 0..6 {
        let trace_id = c
            .post_traced(&Request::Read {
                sub_id,
                submit_ns: 0,
            })
            .expect("post read");
        assert_ne!(trace_id, 0, "every RPC is sampled at sample_every=1");
        daemon.pump();
        while let Ok(Some(_)) = c.try_take() {}
    }

    let mut tracks = daemon.trace_tracks();
    tracks.push(c.trace_track());
    simtrace::postmortem::stash(simtrace::text_dump(&tracks, 48));
    let mut begins = 0usize;
    let mut ends = 0usize;
    for t in &tracks {
        for e in &t.events {
            match e.kind {
                EventKind::SpanBegin => begins += 1,
                EventKind::SpanEnd => ends += 1,
                _ => {}
            }
        }
    }
    assert!(begins >= 6 && ends >= 6, "spans on both ends of the wire");
    let json = simtrace::chrome_trace_json(&tracks);
    assert!(jsonw::validate(&json), "daemon span smoke: invalid JSON");
    assert!(json.contains("\"ph\":\"s\""), "missing flow start arrows");
    assert!(json.contains("\"ph\":\"f\""), "missing flow finish arrows");
    assert!(json.contains("rpc:client"), "missing client span slices");
    assert!(json.contains("rpc:serve"), "missing serve span slices");
    println!(
        "daemon span smoke: OK — {begins} span begins / {ends} ends, flow-linked, {} bytes",
        json.len()
    );
}

fn main() {
    simtrace::postmortem::install();
    if std::env::args().any(|a| a == "--trace-smoke") {
        trace_smoke();
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let ticks = if quick { 300 } else { 400 };
    let warmup = ticks / 10;
    let host_cpus = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);

    type PresetRow = (&'static str, fn() -> MachineSpec);
    let presets: [PresetRow; 4] = [
        ("raptor_lake_i7_13700", MachineSpec::raptor_lake_i7_13700),
        ("orangepi_800", MachineSpec::orangepi_800),
        ("skylake_quad", MachineSpec::skylake_quad),
        ("alder_lake_mobile", MachineSpec::alder_lake_mobile),
    ];

    let mut w = jsonw::JsonWriter::new();
    w.begin_obj();
    w.field_u64("host_cpus", host_cpus as u64);
    w.field_bool("quick", quick);
    w.field_u64("windows", WINDOWS as u64);
    w.field_u64("ticks", ticks as u64);
    w.key("presets");
    w.begin_obj();

    println!("tickbench: {WINDOWS} windows of {ticks} timed ticks/preset, host_cpus={host_cpus}");
    for (name, spec) in presets.iter() {
        let r = run_preset(spec(), warmup, ticks);
        println!(
            "  {name:<22} {:>10.1} t/s (windows {:.1}-{:.1})   plan hits {:.1}%",
            r.ticks_per_s,
            r.ticks_per_s_min,
            r.ticks_per_s_max,
            100.0 * r.plan_hit_rate
        );
        w.key(name);
        w.begin_obj();
        w.field_f64("ticks_per_s", round2(r.ticks_per_s));
        w.field_f64("ticks_per_s_min", round2(r.ticks_per_s_min));
        w.field_f64("ticks_per_s_max", round2(r.ticks_per_s_max));
        w.field_f64("plan_hit_rate", round4(r.plan_hit_rate));
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    let json = w.finish();
    assert!(jsonw::validate(&json), "BENCH_tick.json emitter bug");

    std::fs::write("BENCH_tick.json", &json).expect("write BENCH_tick.json");
    println!("wrote BENCH_tick.json");
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn round4(v: f64) -> f64 {
    (v * 10000.0).round() / 10000.0
}
