//! The workloads' inputs, generated from the workload seed alone.
//!
//! Why each workload exists is recorded in `NOTES.md`. Every input the
//! library sees — circuit, stimuli, fault sample, job specs — is built
//! here from `(workload, seed)`, so the same seed always grades the
//! same campaigns.

use seugrade_circuits::{fixtures, registry, stimuli, viper};
use seugrade_engine::{CampaignPlan, ShardPolicy};
use seugrade_netlist::{Netlist, SourceFormat};
use seugrade_serve::{CircuitSource, JobSpec};
use seugrade_sim::{Kernel, Testbench, TracePolicy};

/// Worker threads of every workload (the host this benchmark targets
/// has two cores).
pub const WORKERS: usize = 2;

/// Golden-trace policy of the measured configuration.
pub const TRACE: TracePolicy = TracePolicy::Checkpoint(64);

/// Test-bench length of the paper's b14 experiment.
pub const PAPER_VECTORS: usize = 160;

/// Test-bench length of the sampled scale fixture.
pub const SCALE_VECTORS: usize = 1024;

/// Faults drawn per sampled `s5378g` campaign.
pub const SCALE_SAMPLE: usize = 8192;

/// Distinct `s5378g` job seeds in the daemon workload's rotation.
pub const SERVE_SCALE_SEEDS: u64 = 6;

/// Jobs the daemon workload keeps in flight.
pub const SERVE_IN_FLIGHT: usize = 4;

/// Folds a workload seed into 32 bits (seeds below 2^32 are kept as
/// they are), so the program and job seeds derived from it stay exact
/// in the protocol's JSON numbers.
#[must_use]
pub fn fold_seed(seed: u64) -> u64 {
    (seed ^ (seed >> 32)) & 0xFFFF_FFFF
}

/// Stimulus programs in `viper-paper`'s rotation. Throughput differs
/// from one Viper program to the next by up to a third, so a run grades
/// a fixed rotation of programs derived from its seed rather than one
/// program, and two seeds measure nearly the same mix of work.
pub const PAPER_PROGRAMS: usize = 32;

/// Stimulus/sample programs in `s5378g-sampled`'s rotation (random
/// stimuli vary less between seeds than Viper programs do).
pub const SCALE_PROGRAMS: usize = 4;

/// A one-shot campaign workload: one circuit and a rotation of
/// stimulus programs, each graded on its own prebuilt engine.
#[derive(Debug)]
pub struct OneShot {
    /// Workload name.
    pub name: &'static str,
    /// The circuit under test.
    pub circuit: Netlist,
    /// One test bench per program.
    pub tbs: Vec<Testbench>,
    /// The programs' seeds (stimuli, and the fault sample if any).
    pub seeds: Vec<u64>,
    /// Faults drawn per sampled campaign; `None` grades the exhaustive
    /// fault space.
    pub sample: Option<usize>,
}

impl OneShot {
    /// Builds a one-shot workload's circuit and stimuli (the
    /// `circuits` layer calls); `None` for a name that is not one.
    #[must_use]
    pub fn build(name: &str, seed: u64) -> Option<OneShot> {
        let seeds = |programs: usize| {
            (0..programs as u64)
                .map(|k| seed * 64 + k)
                .collect::<Vec<u64>>()
        };
        match name {
            "viper-paper" => {
                let seeds = seeds(PAPER_PROGRAMS);
                Some(OneShot {
                    name: "viper-paper",
                    circuit: viper::viper(),
                    tbs: seeds
                        .iter()
                        .map(|&s| stimuli::viper_program(PAPER_VECTORS, s))
                        .collect(),
                    seeds,
                    sample: None,
                })
            }
            "s5378g-sampled" => {
                let circuit = registry::build("s5378g").expect("s5378g is registered");
                let seeds = seeds(SCALE_PROGRAMS);
                let tbs = seeds
                    .iter()
                    .map(|&s| Testbench::random(circuit.num_inputs(), SCALE_VECTORS, s))
                    .collect();
                Some(OneShot {
                    name: "s5378g-sampled",
                    circuit,
                    tbs,
                    seeds,
                    sample: Some(SCALE_SAMPLE),
                })
            }
            _ => None,
        }
    }

    /// Program `k`'s fault sample `(count, seed)`, if sampled.
    #[must_use]
    pub fn sample_of(&self, k: usize) -> Option<(usize, u64)> {
        self.sample.map(|n| (n, self.seeds[k]))
    }

    /// Program `k` in the measured configuration: two workers,
    /// `checkpoint:64`, the default kernel.
    #[must_use]
    pub fn plan(&self, k: usize) -> CampaignPlan<'_> {
        self.builder(k, ShardPolicy::with_threads(WORKERS))
            .trace_policy(TRACE)
            .build()
    }

    /// Program `k` in the reference configuration: dense trace, one
    /// worker, `tape` kernel — a different path to the same verdicts.
    #[must_use]
    pub fn reference_plan(&self, k: usize) -> CampaignPlan<'_> {
        self.builder(k, ShardPolicy::serial())
            .trace_policy(TracePolicy::Dense)
            .kernel(Kernel::Tape)
            .build()
    }

    fn builder(&self, k: usize, policy: ShardPolicy) -> seugrade_engine::CampaignPlanBuilder<'_> {
        let builder = CampaignPlan::builder(&self.circuit, &self.tbs[k]).policy(policy);
        match self.sample_of(k) {
            Some((count, seed)) => builder.sampled(count, seed),
            None => builder,
        }
    }

    /// Faults one campaign grades.
    #[must_use]
    pub fn num_faults(&self) -> usize {
        self.sample
            .unwrap_or(self.circuit.num_ffs() * self.tbs[0].num_cycles())
    }
}

/// The daemon workload's job rotation: `SERVE_SCALE_SEEDS` sampled
/// `s5378g` specs, then the inline b14c VHDL spec. Job `n` of a run
/// uses [`serve_spec_index`]`(n)`.
#[must_use]
pub fn serve_specs(seed: u64) -> Vec<JobSpec> {
    let job = |circuit: CircuitSource, vectors: usize, seed: u64, sample: Option<usize>| JobSpec {
        circuit,
        vectors,
        seed,
        sample,
        trace_policy: TRACE,
        threads: 1,
        ..JobSpec::registry("")
    };
    let mut specs: Vec<JobSpec> = (0..SERVE_SCALE_SEEDS)
        .map(|i| {
            job(
                CircuitSource::Registry("s5378g".to_owned()),
                SCALE_VECTORS,
                seed * 16 + i,
                Some(SCALE_SAMPLE),
            )
        })
        .collect();
    specs.push(job(
        CircuitSource::Inline {
            format: SourceFormat::Vhdl,
            source: fixtures::B14C_VHDL.to_owned(),
        },
        PAPER_VECTORS,
        seed * 16 + SERVE_SCALE_SEEDS,
        None,
    ));
    specs
}

/// Which spec of [`serve_specs`] job `n` submits: three of every four
/// jobs are sampled `s5378g` jobs (cycling through their seeds), the
/// fourth is the b14c job.
#[must_use]
pub fn serve_spec_index(n: usize) -> usize {
    if n % 4 == 3 {
        SERVE_SCALE_SEEDS as usize
    } else {
        (n - n / 4) % SERVE_SCALE_SEEDS as usize
    }
}
