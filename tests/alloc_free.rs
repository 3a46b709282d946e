//! The steady-state tick hot loop must not allocate.
//!
//! A counting global allocator wraps `System`; after a warm-up (scratch
//! buffers and scheduler queues grow to their working capacity), windows of
//! pure compute ticks are measured. At least one window must be completely
//! allocation-free — per-tick `vec![...]`/`clone()` churn would show up in
//! *every* window. Runs single-threaded per test binary, so the count is
//! attributable to the tick loop.

use simcpu::events::ArchEvent;
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelConfig};
use simos::perf::{PerfAttr, PmuKind, Target};
use simos::task::{Op, Pid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serialises the measurement tests: the counter is global, so a
/// concurrently running sibling test would pollute the windows.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn steady_state_tick_is_allocation_free() {
    measure_steady_state(KernelConfig::default());
}

/// The flight recorder must keep the guarantee when enabled: the ring is
/// preallocated at boot and `record` overwrites in place, so a traced
/// steady-state window is still allocation-free.
#[test]
fn steady_state_tick_is_allocation_free_with_tracing() {
    measure_steady_state(KernelConfig {
        trace: simtrace::TraceConfig::enabled_with_cap(4096),
        ..Default::default()
    });
}

/// Causal-span recording with tracing off (the default) must cost
/// one branch and zero allocations: every hop in the request path calls
/// `record` unconditionally, so a disabled sink that allocated would
/// tax untraced production runs.
#[test]
fn disabled_span_recording_is_allocation_free() {
    use simtrace::{span, EventKind, TraceConfig, TraceSink};
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sink = TraceSink::new(&TraceConfig::default());
    assert!(!sink.enabled());
    // Min over several windows, like the tick-loop tests: sibling test
    // threads spinning up allocate against the same global counter, so
    // any single window can be polluted — but a `record` that allocated
    // would show in *every* window.
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..100_000u64 {
            let trace_id = span::rpc_trace_id(0xfeed, i);
            sink.record(i, EventKind::SpanBegin, span::CLIENT, trace_id, 0);
            sink.record(i, EventKind::SpanBegin, span::SERVE, trace_id, 1);
            sink.record(i + 1, EventKind::SpanEnd, span::SERVE, trace_id, 1);
            sink.record(i + 1, EventKind::SpanEnd, span::CLIENT, trace_id, 0);
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        min_window = min_window.min(after - before);
    }
    assert_eq!(
        min_window, 0,
        "disabled span recording allocated in every 400k-record window"
    );
    assert!(sink.events().is_empty(), "disabled sink recorded events");
}

/// And with the recorder on, the ring is preallocated at construction:
/// recording past the cap overwrites in place, never grows.
#[test]
fn enabled_span_recording_is_allocation_free_after_construction() {
    use simtrace::{span, EventKind, TraceConfig, TraceSink};
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sink = TraceSink::new(&TraceConfig::enabled_with_cap(1024));
    // Warm-up: fill the ring once so wrap-around is the steady state.
    for i in 0..2048u64 {
        sink.record(i, EventKind::SpanBegin, span::CLIENT, i | 2, 0);
    }
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..100_000u64 {
            sink.record(i, EventKind::SpanBegin, span::CLIENT, i | 2, 0);
            sink.record(i + 1, EventKind::SpanEnd, span::CLIENT, i | 2, 0);
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        min_window = min_window.min(after - before);
    }
    assert_eq!(
        min_window, 0,
        "ring-buffer span recording allocated in every window"
    );
}

fn measure_steady_state(cfg: KernelConfig) {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut k = Kernel::boot(MachineSpec::raptor_lake_i7_13700(), cfg);
    spawn_pinned_workers(&mut k);
    assert_steady_windows_allocation_free(&mut k, "the steady-state tick loop");
}

/// DESIGN.md §7's guarantee covers open perf events. Every worker
/// carries a hybrid EventSet's groups (Instructions + Cycles on each
/// core PMU) and every CPU a metricsd-collector-style pair of per-CPU
/// Instructions and Cycles events. Each CPU then has one candidate
/// group besides its pinned pair, every group fits, and a due mux
/// rotation has nothing to re-fit.
#[test]
fn monitored_steady_state_tick_is_allocation_free() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut k = Kernel::boot(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
    let pids = spawn_pinned_workers(&mut k);
    let core_pmus: Vec<(u32, CpuMask)> = k
        .pmus()
        .iter()
        .filter(|p| p.kind == PmuKind::CoreHw)
        .map(|p| (p.id, p.cpus))
        .collect();
    for &pid in &pids {
        for &(id, _) in &core_pmus {
            let attr = |ev| PerfAttr::counting(id, ev);
            let target = Target::Thread(pid);
            let leader = k
                .perf_event_open(attr(ArchEvent::Instructions), target, None)
                .unwrap();
            k.perf_event_open(attr(ArchEvent::Cycles), target, Some(leader))
                .unwrap();
            k.ioctl_enable(leader, true).unwrap();
        }
    }
    for &(id, cpus) in &core_pmus {
        for cpu in cpus.iter() {
            for ev in [ArchEvent::Instructions, ArchEvent::Cycles] {
                let fd = k
                    .perf_event_open(PerfAttr::counting(id, ev), Target::Cpu(cpu), None)
                    .unwrap();
                k.ioctl_enable(fd, false).unwrap();
            }
        }
    }
    assert_steady_windows_allocation_free(&mut k, "the monitored steady-state tick loop");
}

/// One immortal compute-bound worker per CPU, pinned so the scheduler
/// reaches a fixed point (no migrations, no run-queue churn).
fn spawn_pinned_workers(k: &mut Kernel) -> Vec<Pid> {
    (0..k.machine().n_cpus())
        .map(|i| {
            k.spawn(
                &format!("w{i}"),
                Box::new(move |_: &simos::task::ProgCtx| Op::Compute(Phase::scalar(50_000_000))),
                CpuMask::from_cpus([i]),
                0,
            )
        })
        .collect()
}

fn assert_steady_windows_allocation_free(k: &mut Kernel, what: &str) {
    // Warm-up: grow every scratch buffer to steady-state capacity.
    for _ in 0..100 {
        k.tick();
    }
    // Measure several windows; accept the minimum so an unlucky one-off
    // (e.g. a phase boundary pulling the next op) cannot flake the test.
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..50 {
            k.tick();
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        min_window = min_window.min(after - before);
    }
    assert_eq!(
        min_window, 0,
        "{what} allocated (min over 5×50-tick windows)"
    );
}
