//! Software SEU fault simulation and fault classification.
//!
//! This crate is both the **baseline** the paper compares against (fault
//! simulation on a workstation, quoted at 1300 µs/fault in 2005) and the
//! **behavioural oracle** for the autonomous-emulation models: every
//! engine in the workspace must classify every fault identically.
//!
//! # Fault model
//!
//! A transient fault ([`Fault`]) is a bit-flip (SEU) of one flip-flop at
//! the start of one test-bench cycle: `S'_t = S_t ⊕ e_ff`. The exhaustive
//! fault list is the cross product `flip-flops × cycles` — for the paper's
//! b14 experiment, 215 × 160 = 34,400 faults.
//!
//! # Classification
//!
//! Comparing the faulty run against the golden run from the injection
//! cycle `t` onward ([`FaultClass`]):
//!
//! - **Failure** — some primary output differs at a cycle `u ≥ t`
//!   (first such `u` is the *detection cycle*);
//! - **Silent** — outputs never differ and the faulty state becomes equal
//!   to the golden state (first such cycle is the *convergence cycle*;
//!   once converged nothing can ever differ);
//! - **Latent** — outputs never differ but the state still differs at the
//!   end of the test bench.
//!
//! # Engines
//!
//! [`Grader`] bundles the compiled simulator and the golden trace and
//! offers two interchangeable execution strategies: serial (one fault
//! at a time — the readable reference) and bit-parallel (63 faulty
//! machines plus the golden companion in lane 63 per simulation pass).
//! [`Grader::grade_chunk`] exposes the shard-sized building block (one
//! chunk of up to 63 faults inside one golden span, graded through a
//! per-worker [`GradeScratch`]) that the `seugrade-engine` campaign
//! runtime schedules across worker threads, [`SpanOrder`] is the one
//! planner that cuts fault lists into such chunks, and
//! [`sampling::pool_summaries`]
//! is that runtime's order-independent merge step;
//! [`FaultList::split_into`] and [`FaultList::chunks`] give callers
//! borrowed shard views so sharding never has to clone fault vectors.
//!
//! # Example
//!
//! ```
//! use seugrade_circuits::generators;
//! use seugrade_faultsim::{FaultList, Grader, GradingSummary};
//! use seugrade_sim::Testbench;
//!
//! let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
//! let tb = Testbench::constant_low(0, 20);
//! let grader = Grader::new(&circuit, &tb);
//! let faults = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
//! let outcomes = grader.run_parallel(faults.as_slice());
//! let summary = GradingSummary::from_outcomes(&outcomes);
//! assert_eq!(summary.total(), 8 * 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod grader;
pub mod multi;
mod order;
mod outcome;
pub mod report;
pub mod sampling;

pub use fault::{Fault, FaultList, Injection};
pub use grader::{Collapse, GradeScratch, Grader, DEFAULT_WINDOW_CACHE_SPANS};
pub use multi::MultiFault;
pub use order::SpanOrder;
pub use outcome::{FaultClass, FaultOutcome, GradingSummary};
