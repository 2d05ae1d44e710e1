//! Fault-simulation engines: serial vs 64-way bit-parallel vs the
//! sharded engine on four threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use seugrade::prelude::*;
use seugrade_bench::small_fixture;

fn bench_engines(c: &mut Criterion) {
    let (circuit, tb) = small_fixture();
    let grader = Grader::new(&circuit, &tb);
    let faults = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
    let mut g = c.benchmark_group("faultsim_engines");
    g.throughput(Throughput::Elements(faults.len() as u64));
    g.bench_function(BenchmarkId::new("serial", faults.len()), |b| {
        b.iter(|| grader.run_serial(faults.as_slice()));
    });
    g.bench_function(BenchmarkId::new("parallel64", faults.len()), |b| {
        b.iter(|| grader.run_parallel(faults.as_slice()));
    });
    let plan = CampaignPlan::builder(&circuit, &tb).threads(4).build();
    let engine = Engine::new(&plan);
    g.bench_function(BenchmarkId::new("engine64x4", faults.len()), |b| {
        b.iter(|| engine.run(&plan));
    });
    g.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let (circuit, tb) = small_fixture();
    let grader = Grader::new(&circuit, &tb);
    let mut g = c.benchmark_group("faultsim_sampling");
    for size in [64usize, 256, 512] {
        let sample = FaultList::sampled(circuit.num_ffs(), tb.num_cycles(), size, 7);
        g.throughput(Throughput::Elements(sample.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &sample, |b, s| {
            b.iter(|| grader.run_parallel(s.as_slice()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engines, bench_sampling);
criterion_main!(benches);
