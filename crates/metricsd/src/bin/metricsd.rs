//! metricsd — serve simulated PAPI counters to many clients over TCP.
//!
//! Boots a simulated machine with a deterministic background workload,
//! starts the daemon, binds a TCP-loopback listener, and pumps.
//!
//! ```text
//! metricsd [--listen ADDR] [--pumps N] [--pump-ms MS]
//!          [--machine NAME] [--sched NAME]
//! ```
//!
//! The pump thread serves every session inline, in admission order.
//!
//! `--sched` picks the kernel scheduler from the `simsched` registry
//! (`cfs|cfs_unaware|vtime|capacity|thermal`); unknown names are
//! rejected at startup. Defaults to `cfs`.

use metricsd::{Daemon, DaemonConfig};
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelConfig};
use simos::task::{Op, ScriptedProgram};
use simos::SchedName;

fn main() {
    let mut listen = "127.0.0.1:0".to_string();
    let mut pumps = 2000u64;
    let mut pump_ms = 5u64;
    let mut machine = "raptor".to_string();
    let mut sched = SchedName::default();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => listen = args.next().expect("--listen ADDR"),
            "--pumps" => pumps = args.next().expect("--pumps N").parse().expect("pump count"),
            "--pump-ms" => {
                pump_ms = args
                    .next()
                    .expect("--pump-ms MS")
                    .parse()
                    .expect("pump period")
            }
            "--machine" => machine = args.next().expect("--machine NAME"),
            "--sched" => {
                let name = args.next().expect("--sched NAME");
                sched = SchedName::parse(&name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown scheduler '{name}' (cfs|cfs_unaware|vtime|capacity|thermal)"
                    );
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: metricsd [--listen ADDR] [--pumps N] [--pump-ms MS] \
                     [--machine raptor|skylake] [--sched NAME]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    let spec = match machine.as_str() {
        "raptor" => MachineSpec::raptor_lake_i7_13700(),
        "skylake" => MachineSpec::skylake_quad(),
        other => {
            eprintln!("unknown machine {other} (want raptor|skylake)");
            std::process::exit(2);
        }
    };
    let kernel = Kernel::boot_handle(
        spec,
        KernelConfig {
            sched,
            ..Default::default()
        },
    );
    let n_cpus = kernel.lock().machine().n_cpus();
    // A standing workload so served counters move: one long-running
    // scalar worker per fourth CPU.
    for cpu in (0..n_cpus).step_by(4) {
        kernel.lock().spawn(
            &format!("w{cpu}"),
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(u64::MAX / 4)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([cpu]),
            0,
        );
    }

    let mut daemon = Daemon::new(kernel, DaemonConfig::default());
    let listener =
        metricsd::tcp::Listener::spawn(daemon.connector(), &listen).expect("bind listener");
    println!("metricsd listening on {}", listener.addr());

    for _ in 0..pumps {
        daemon.pump();
        std::thread::sleep(std::time::Duration::from_millis(pump_ms));
    }
    let reg = daemon.self_metrics();
    println!(
        "metricsd done: pumps={} sessions={} reads_served={} evictions={}",
        reg.counter("pumps"),
        reg.counter("sessions"),
        reg.counter("reads_served"),
        reg.counter("evictions")
    );
}
