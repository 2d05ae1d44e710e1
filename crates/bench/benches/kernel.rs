//! Faulty-evaluation kernels head to head: the specialized SoA tape vs
//! the differential dirty-frontier kernel vs the `auto` hybrid of the
//! two, on a mid-size circuit and on a sampled slice of the s5378-class
//! scale fixture. Throughput is faults per second;
//! the equivalence suites (not this bench) pin the digests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use seugrade::prelude::*;
use seugrade_bench::medium_fixture;

fn grade_with(circuit: &Netlist, tb: &Testbench, faults: &FaultList, kernel: Kernel) -> u64 {
    let plan = CampaignPlan::builder(circuit, tb)
        .faults(faults.clone())
        .trace_policy(TracePolicy::Checkpoint(64))
        .kernel(kernel)
        .policy(ShardPolicy { threads: 1, serial_below: 0 })
        .build();
    let (acc, _) = Engine::new(&plan)
        .try_run_streamed_with::<StreamAccumulator>(&plan)
        .expect("streamed run");
    acc.digest()
}

fn bench_kernels_medium(c: &mut Criterion) {
    let (circuit, tb) = medium_fixture();
    let faults = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
    let mut g = c.benchmark_group("kernel_medium");
    g.throughput(Throughput::Elements(faults.len() as u64));
    for kernel in Kernel::ALL {
        g.bench_function(BenchmarkId::new(kernel.label(), faults.len()), |b| {
            b.iter(|| grade_with(&circuit, &tb, &faults, kernel));
        });
    }
    g.finish();
}

fn bench_kernels_scale(c: &mut Criterion) {
    let circuit = registry::build("s5378g").expect("registered circuit");
    let tb = Testbench::random(circuit.num_inputs(), 256, 42);
    let faults = FaultList::sampled(circuit.num_ffs(), tb.num_cycles(), 512, 7);
    let mut g = c.benchmark_group("kernel_s5378g");
    g.throughput(Throughput::Elements(faults.len() as u64));
    for kernel in Kernel::ALL {
        g.bench_function(BenchmarkId::new(kernel.label(), faults.len()), |b| {
            b.iter(|| grade_with(&circuit, &tb, &faults, kernel));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels_medium, bench_kernels_scale);
criterion_main!(benches);
