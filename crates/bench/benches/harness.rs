//! Criterion microbenchmarks: host-side cost of the measurement paths and
//! simulator substrate (the §V.5 "did the indirection regress anything?"
//! questions, plus throughput of the hot simulation loops).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use papi::{Attach, Papi};
use simcpu::cache::setassoc::SetAssocCache;
use simcpu::cache::CacheGeometry;
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use simos::task::{Op, ScriptedProgram};

fn forever_task(kernel: &KernelHandle, cpus: CpuMask) -> simos::task::Pid {
    kernel.lock().spawn(
        "spin",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(u64::MAX / 2)),
            Op::Exit,
        ])),
        cpus,
        0,
    )
}

/// PAPI read cost: 1 perf group (homogeneous events) vs 2 (hybrid) vs the
/// rdpmc fast path — the multi-group indirection cost in host time.
fn bench_papi_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("papi_read");
    for (label, events) in [
        (
            "1group",
            vec![
                "adl_glc::INST_RETIRED:ANY",
                "adl_glc::CPU_CLK_UNHALTED:THREAD",
            ],
        ),
        (
            "2groups",
            vec![
                "adl_glc::INST_RETIRED:ANY",
                "adl_glc::CPU_CLK_UNHALTED:THREAD",
                "adl_grt::INST_RETIRED:ANY",
                "adl_grt::CPU_CLK_UNHALTED:THREAD",
            ],
        ),
    ] {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let pid = forever_task(&kernel, CpuMask::from_cpus([0, 16]));
        let mut papi = Papi::init(kernel.clone()).unwrap();
        let es = papi.create_eventset();
        papi.attach(es, Attach::Task(pid)).unwrap();
        for ev in &events {
            papi.add_named(es, ev).unwrap();
        }
        papi.start(es).unwrap();
        for _ in 0..10 {
            kernel.lock().tick();
        }
        group.bench_function(BenchmarkId::new("read", label), |b| {
            b.iter(|| papi.read(es).unwrap())
        });
        group.bench_function(BenchmarkId::new("read_fast", label), |b| {
            b.iter(|| papi.read_fast(es, 0).unwrap())
        });
    }
    group.finish();
}

/// Group planning (the static-array-vs-fancier-structures question the
/// paper leaves open): cost of splitting N events into per-PMU groups.
fn bench_group_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_groups");
    for n in [2usize, 8, 32, 128] {
        let pmu_types: Vec<u32> = (0..n).map(|i| 4 + (i % 3) as u32).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &pmu_types, |b, p| {
            b.iter(|| papi::eventset::plan_groups(p, false))
        });
    }
    group.finish();
}

/// Raw set-associative cache simulator throughput (accesses/second).
fn bench_cache_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_sim");
    let mut cache = SetAssocCache::new(CacheGeometry::new(32 * 1024, 8, 64));
    let mut addr: u64 = 0;
    group.bench_function("sequential", |b| {
        b.iter(|| {
            addr = addr.wrapping_add(64);
            cache.access(addr)
        })
    });
    let mut lcg: u64 = 0x12345;
    group.bench_function("random", |b| {
        b.iter(|| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            cache.access(lcg >> 20)
        })
    });
    group.finish();
}

/// The analytic miss-rate model (runs once per phase per tick per CPU).
fn bench_miss_profile(c: &mut Criterion) {
    let phase = Phase::dgemm(1_000_000, 26 << 30, 0.35);
    let ua = &simcpu::uarch::GOLDEN_COVE;
    c.bench_function("miss_profile", |b| {
        b.iter(|| simcpu::cache::analytic::miss_profile(&phase, ua, 15 << 20))
    });
}

criterion_group!(
    benches,
    bench_papi_read,
    bench_group_split,
    bench_cache_sim,
    bench_miss_profile
);
criterion_main!(benches);
