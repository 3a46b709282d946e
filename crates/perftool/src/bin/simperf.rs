//! `simperf` — the perf-tool CLI over the simulated machines.
//!
//! ```text
//! simperf list
//! simperf stat   [-m machine] [-a] [-C cpulist] [-e ev,ev] [-w workload] [-I ms] [--json]
//!                [--regions] [--trace-out FILE] [--sched name]
//! simperf record [-m machine] [-c period] [-e event] [-w workload] [--sched name]
//! ```
//!
//! `--regions` runs the workload with LIKWID-style marker regions (one
//! region per workload phase) and prints a per-region, per-core-type
//! counter table instead of whole-run totals; `-e` then takes `PAPI_*`
//! preset names (default `PAPI_TOT_INS,PAPI_TOT_CYC,PAPI_CTX_SW`).
//!
//! `--trace-out FILE` boots the kernel with the flight recorder enabled
//! and, after the stat run, writes every recorded track (kernel, shared
//! hardware, one per CPU) as Chrome trace-event JSON — load it in
//! Perfetto or `chrome://tracing`.
//!
//! Workloads: `scalar:N`, `dgemm:N`, `stream:N`, `branchy:N` (N =
//! instructions), pinned via `-C` or free-running.
//!
//! `--sched name` selects the kernel scheduler from the `simsched`
//! registry (`cfs|cfs_unaware|vtime|capacity|thermal`); unknown names
//! are rejected. Defaults to `cfs`.

use perftool::{list_events, RecordConfig, StatConfig};
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use simos::task::{Op, Pid, ScriptedProgram};
use simos::SchedName;

fn sched(name: &str) -> SchedName {
    SchedName::parse(name).unwrap_or_else(|| {
        eprintln!("unknown scheduler '{name}' (cfs|cfs_unaware|vtime|capacity|thermal)");
        std::process::exit(2);
    })
}

fn machine(name: &str) -> MachineSpec {
    match name {
        "raptor" | "raptor-lake" => MachineSpec::raptor_lake_i7_13700(),
        "orangepi" | "rk3399" => MachineSpec::orangepi_800(),
        "skylake" => MachineSpec::skylake_quad(),
        "dynamiq" => MachineSpec::dynamiq_tri(),
        "adl-mobile" => MachineSpec::alder_lake_mobile(),
        other => {
            eprintln!("unknown machine '{other}' (raptor|orangepi|skylake|dynamiq)");
            std::process::exit(2);
        }
    }
}

fn workload(spec: &str) -> Phase {
    let (kind, n) = spec.split_once(':').unwrap_or((spec, "10000000"));
    let n: u64 = n.parse().unwrap_or(10_000_000);
    match kind {
        "scalar" => Phase::scalar(n),
        "dgemm" => Phase::dgemm(n, 1 << 30, 0.3),
        "stream" => Phase::stream(n, 8 << 30),
        "branchy" => Phase::branchy(n),
        other => {
            eprintln!("unknown workload '{other}' (scalar|dgemm|stream|branchy)[:N]");
            std::process::exit(2);
        }
    }
}

struct Args {
    machine: String,
    system_wide: bool,
    cpus: Option<String>,
    events: Vec<String>,
    workload: String,
    period: u64,
    interval_ms: Option<u64>,
    json: bool,
    regions: bool,
    trace_out: Option<String>,
    sched: Option<SchedName>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        machine: "raptor".into(),
        system_wide: false,
        cpus: None,
        events: Vec::new(),
        workload: "scalar:10000000".into(),
        period: 100_000,
        interval_ms: None,
        json: false,
        regions: false,
        trace_out: None,
        sched: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "-m" => {
                i += 1;
                a.machine = argv[i].clone();
            }
            "-a" => a.system_wide = true,
            "-C" => {
                i += 1;
                a.cpus = Some(argv[i].clone());
            }
            "-e" => {
                i += 1;
                a.events
                    .extend(argv[i].split(',').map(|s| s.trim().to_string()));
            }
            "-w" => {
                i += 1;
                a.workload = argv[i].clone();
            }
            "-c" => {
                i += 1;
                a.period = argv[i].parse().unwrap_or(100_000);
            }
            "-I" => {
                i += 1;
                a.interval_ms = argv[i].parse().ok();
            }
            "--json" => a.json = true,
            "--regions" => a.regions = true,
            "--trace-out" => {
                i += 1;
                a.trace_out = Some(argv[i].clone());
            }
            "--sched" => {
                i += 1;
                a.sched = Some(sched(&argv[i]));
            }
            other => a.events.push(other.to_string()),
        }
        i += 1;
    }
    a
}

/// The kernel config the flags ask for: the flight recorder on for
/// `--trace-out`, the `--sched` policy (default `cfs`).
fn kernel_config(args: &Args) -> KernelConfig {
    KernelConfig {
        sched: args.sched.unwrap_or_default(),
        trace: if args.trace_out.is_some() {
            simtrace::TraceConfig::enabled_with_cap(1 << 16)
        } else {
            simtrace::TraceConfig::default()
        },
        ..Default::default()
    }
}

fn boot_and_spawn(args: &Args) -> (KernelHandle, Pid) {
    let kernel = Kernel::boot_handle(machine(&args.machine), kernel_config(args));
    let mask = match &args.cpus {
        Some(s) => CpuMask::parse_cpulist(s).unwrap_or_else(|e| {
            eprintln!("bad cpulist: {e}");
            std::process::exit(2);
        }),
        None => CpuMask::first_n(kernel.lock().machine().n_cpus()),
    };
    let phase = workload(&args.workload);
    let pid = kernel.lock().spawn(
        "workload",
        Box::new(ScriptedProgram::new([Op::Compute(phase), Op::Exit])),
        mask,
        0,
    );
    (kernel, pid)
}

/// `simperf stat --regions`: run the workload inside a LIKWID-style
/// marker region and print the per-region, per-core-type table.
fn run_region_stat(args: &Args) {
    use papi::regions::{begin_hook, end_hook, RegionError, RegionId, Regions};
    let kernel = Kernel::boot_handle(machine(&args.machine), kernel_config(args));
    let mask = match &args.cpus {
        Some(s) => CpuMask::parse_cpulist(s).unwrap_or_else(|e| {
            eprintln!("bad cpulist: {e}");
            std::process::exit(2);
        }),
        None => CpuMask::first_n(kernel.lock().machine().n_cpus()),
    };
    let name = args
        .workload
        .split(':')
        .next()
        .unwrap_or("workload")
        .to_string();
    let phase = workload(&args.workload);
    let r = RegionId(0);
    let pid = kernel.lock().spawn(
        "workload",
        Box::new(ScriptedProgram::new([
            Op::Call(begin_hook(r)),
            Op::Compute(phase),
            Op::Call(end_hook(r)),
            Op::Exit,
        ])),
        mask,
        0,
    );
    let events = if args.events.is_empty() {
        vec![
            "PAPI_TOT_INS".into(),
            "PAPI_TOT_CYC".into(),
            "PAPI_CTX_SW".into(),
        ]
    } else {
        args.events.clone()
    };
    let mut regions = papi::Papi::init(kernel.clone())
        .map_err(RegionError::from)
        .and_then(|papi| Regions::init(papi, pid, &events))
        .unwrap_or_else(|e| {
            eprintln!("simperf: {e}");
            std::process::exit(1);
        });
    regions.region_init(&name);
    regions.run_marked(3_600_000_000_000).unwrap_or_else(|e| {
        eprintln!("simperf: {e}");
        std::process::exit(1);
    });
    let track = regions.trace_track();
    let report = regions.finish().unwrap_or_else(|e| {
        eprintln!("simperf: {e}");
        std::process::exit(1);
    });
    if args.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    if let Some(path) = &args.trace_out {
        let mut tracks = kernel.lock().trace_tracks();
        tracks.push(track);
        let json = simtrace::chrome_trace_json(&tracks);
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("simperf: writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("simperf: wrote trace to {path} ({} bytes)", json.len());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("usage: simperf <list|stat|record> [options]");
        std::process::exit(2);
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "list" => {
            println!("List of pre-defined events:");
            for e in list_events() {
                println!("  {e}");
            }
        }
        "stat" => {
            let args = parse_args(rest);
            if args.regions {
                run_region_stat(&args);
                return;
            }
            let (kernel, pid) = boot_and_spawn(&args);
            let cfg = StatConfig {
                events: if args.events.is_empty() {
                    StatConfig::default_events().events
                } else {
                    args.events.clone()
                },
                system_wide: args.system_wide,
                cpus: args
                    .cpus
                    .as_deref()
                    .map(|s| CpuMask::parse_cpulist(s).unwrap()),
            };
            let target = if args.system_wide { None } else { Some(pid) };
            let session = perftool::stat::arm(&kernel, &cfg, target).unwrap_or_else(|e| {
                eprintln!("simperf: {e}");
                std::process::exit(1);
            });
            let mut stat_track = None;
            if let Some(ms) = args.interval_ms {
                let snaps =
                    perftool::stat::run_interval(session, ms * 1_000_000, 3_600_000_000_000)
                        .unwrap();
                if args.json {
                    println!("{}", perftool::stat::interval_json(&snaps));
                } else {
                    println!("#           time   counts event");
                    for (t, rows) in snaps {
                        for r in rows {
                            println!("{t:>16.6} {:>10} {}", r.value, r.label);
                        }
                    }
                }
            } else {
                kernel.lock().run_to_completion(3_600_000_000_000);
                let res = session.finish().unwrap();
                if args.json {
                    println!("{}", res.render_json());
                } else {
                    println!("{}", res.render());
                }
                stat_track = Some(simtrace::Track {
                    name: "simperf".into(),
                    events: res.span_events,
                });
            }
            if let Some(path) = &args.trace_out {
                let mut tracks = kernel.lock().trace_tracks();
                tracks.extend(stat_track);
                let json = simtrace::chrome_trace_json(&tracks);
                std::fs::write(path, &json).unwrap_or_else(|e| {
                    eprintln!("simperf: writing {path}: {e}");
                    std::process::exit(1);
                });
                eprintln!("simperf: wrote trace to {path} ({} bytes)", json.len());
            }
        }
        "record" => {
            let args = parse_args(rest);
            let (kernel, pid) = boot_and_spawn(&args);
            let cfg = RecordConfig {
                event: args
                    .events
                    .first()
                    .cloned()
                    .unwrap_or_else(|| "instructions".into()),
                period: args.period,
            };
            let session = perftool::record::arm(&kernel, &cfg, pid).unwrap_or_else(|e| {
                eprintln!("simperf: {e}");
                std::process::exit(1);
            });
            kernel.lock().run_to_completion(3_600_000_000_000);
            println!("{}", session.report().unwrap().render());
        }
        other => {
            eprintln!("unknown command '{other}'");
            std::process::exit(2);
        }
    }
}
