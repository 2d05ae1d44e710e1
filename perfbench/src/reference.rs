//! Reference verdicts, computed through a different configuration than
//! the measured one, in a child process.
//!
//! The child keeps the reference's memory out of the measured process's
//! peak RSS and its time out of `setup_s`. It prints one line per
//! reference; the parent parses them back.

use std::process::{Command, Stdio};

use seugrade_emulation::controller::TimingConfig;
use seugrade_emulation::AutonomousCampaign;
use seugrade_engine::{Engine, StreamAccumulator, Technique};
use seugrade_faultsim::{FaultClass, GradingSummary};
use seugrade_serve::JobSpec;
use seugrade_sim::TracePolicy;

use crate::workload::{self, OneShot};

/// The verdicts every op of a workload must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    /// Order-independent verdict digest.
    pub digest: u64,
    /// Failure / latent / silent counts.
    pub classes: [usize; 3],
}

const CLASSES: [FaultClass; 3] = [FaultClass::Failure, FaultClass::Latent, FaultClass::Silent];

impl Reference {
    /// The reference of a graded campaign.
    #[must_use]
    pub fn of(digest: u64, summary: &GradingSummary) -> Reference {
        Reference {
            digest,
            classes: CLASSES.map(|c| summary.count(c)),
        }
    }

    /// True when a graded op reproduced this reference exactly.
    #[must_use]
    pub fn matches(&self, digest: u64, summary: &GradingSummary) -> bool {
        *self == Reference::of(digest, summary)
    }
}

/// The autonomous emulator's modelled cost of one technique — simulated
/// time, which a speed-only change must leave bit-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Modelled {
    /// The technique.
    pub technique: Technique,
    /// Modelled emulation cycles.
    pub total_cycles: u64,
    /// Modelled µs per fault.
    pub us_per_fault: f64,
}

/// Everything the child computes for one `(workload, seed)`.
#[derive(Debug, Default)]
pub struct References {
    /// One reference per campaign shape: per program of a one-shot
    /// workload, per job spec of the daemon workload (in
    /// [`workload::serve_specs`] order).
    pub refs: Vec<Reference>,
    /// Modelled emulation costs of the warm-up programs (`viper-paper`
    /// only), in [`Technique::ALL`] order.
    pub modelled: Vec<Vec<Modelled>>,
}

/// Maps `f` over `items` on [`workload::WORKERS`] threads, keeping order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(workload::WORKERS).max(1))
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Grades every program of a one-shot workload through its reference
/// plan (dense, serial, `tape`), plus — for the paper circuit — the
/// autonomous emulator's modelled cost per technique.
#[must_use]
pub fn oneshot(w: &OneShot) -> References {
    let programs: Vec<usize> = (0..w.tbs.len()).collect();
    let graded = par_map(&programs, |&k| {
        let plan = w.reference_plan(k);
        let run = Engine::new(&plan).run(&plan);
        let reference = Reference::of(
            StreamAccumulator::digest_of(
                run.single().expect("single faults").as_slice(),
                run.outcomes(),
            ),
            run.summary(),
        );
        let modelled = if w.name == "viper-paper" && k < crate::WARMUP_OPS {
            let (faults, outcomes) = run.into_single().expect("single faults");
            let campaign = AutonomousCampaign::from_graded(
                &w.circuit,
                &w.tbs[k],
                faults,
                outcomes,
                TimingConfig::default(),
            );
            Technique::ALL
                .iter()
                .map(|&t| {
                    let timing = campaign.run(t).timing;
                    Modelled {
                        technique: t,
                        total_cycles: timing.total_cycles,
                        us_per_fault: timing.us_per_fault(),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        (reference, modelled)
    });
    let (refs, modelled): (Vec<_>, Vec<_>) = graded.into_iter().unzip();
    References {
        refs,
        modelled: modelled
            .into_iter()
            .filter(|m: &Vec<Modelled>| !m.is_empty())
            .collect(),
    }
}

/// Grades every job spec solo through `seugrade_serve::reference_run`,
/// with a dense golden trace instead of the jobs' checkpointed one.
///
/// # Errors
///
/// A spec the reference run rejects.
pub fn serve(specs: &[JobSpec]) -> Result<References, String> {
    let refs = par_map(specs, |spec| {
        let dense = JobSpec {
            trace_policy: TracePolicy::Dense,
            ..spec.clone()
        };
        seugrade_serve::reference_run(&dense).map(|(d, s)| Reference::of(d, &s))
    });
    Ok(References {
        refs: refs.into_iter().collect::<Result<_, _>>()?,
        modelled: Vec::new(),
    })
}

/// Computes the references of `(workload, seed)` in this process.
///
/// # Errors
///
/// An unknown workload or a rejected job spec.
pub fn compute(workload: &str, seed: u64) -> Result<References, String> {
    match OneShot::build(workload, seed) {
        Some(w) => Ok(oneshot(&w)),
        None if workload == "serve-mixed" => serve(&workload::serve_specs(seed)),
        None => Err(format!("unknown workload {workload:?}")),
    }
}

impl References {
    /// The child's output: `ref` and `model` lines.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.refs {
            let [f, l, s] = r.classes;
            out.push_str(&format!("ref {:016x} {f} {l} {s}\n", r.digest));
        }
        for (k, program) in self.modelled.iter().enumerate() {
            for m in program {
                let t = Technique::ALL
                    .iter()
                    .position(|&t| t == m.technique)
                    .expect("a known technique");
                out.push_str(&format!(
                    "model {k} {t} {} {:016x}\n",
                    m.total_cycles,
                    m.us_per_fault.to_bits()
                ));
            }
        }
        out
    }

    /// Parses [`render`](Self::render)'s output.
    ///
    /// # Errors
    ///
    /// A line that is not one the child prints.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut out = References::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed reference line {line:?}");
            match f.as_slice() {
                ["ref", digest, a, b, c] => out.refs.push(Reference {
                    digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
                    classes: [
                        a.parse().map_err(|_| bad())?,
                        b.parse().map_err(|_| bad())?,
                        c.parse().map_err(|_| bad())?,
                    ],
                }),
                ["model", k, t, cycles, bits] => {
                    let k: usize = k.parse().map_err(|_| bad())?;
                    if k != out.modelled.len() && k + 1 != out.modelled.len() {
                        return Err(bad());
                    }
                    if k == out.modelled.len() {
                        out.modelled.push(Vec::new());
                    }
                    out.modelled[k].push(Modelled {
                        technique: *t
                            .parse()
                            .ok()
                            .and_then(|i: usize| Technique::ALL.get(i))
                            .ok_or_else(bad)?,
                        total_cycles: cycles.parse().map_err(|_| bad())?,
                        us_per_fault: f64::from_bits(
                            u64::from_str_radix(bits, 16).map_err(|_| bad())?,
                        ),
                    });
                }
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }
}

/// Runs this executable as `--reference` child for `(workload, seed)`
/// and waits for it.
///
/// # Errors
///
/// The child could not start, failed, or printed something unexpected.
pub fn in_child(workload: &str, seed: u64) -> Result<References, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--reference",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("reference child: {e}"))?;
    if !out.status.success() {
        return Err(format!("reference child exited with {}", out.status));
    }
    References::parse(&String::from_utf8_lossy(&out.stdout))
}
