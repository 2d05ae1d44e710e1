//! One campaign job: validated spec, releasable circuit and test
//! bench, live status, cancellation, and its event subscribers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use seugrade_circuits::registry;
use seugrade_engine::{CampaignPlan, CancelToken, ShardPolicy};
use seugrade_faultsim::GradingSummary;
use seugrade_netlist::{import, ImportOptions, Netlist};
use seugrade_sim::Testbench;

use crate::json::Value;
use crate::proto::{self, CircuitSource, JobSpec};

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker (fresh, between rounds, or respooled).
    Queued,
    /// A worker is grading a round of it right now.
    Running,
    /// Cancelled cooperatively; its spooled checkpoint survives, so
    /// `resume` can re-enqueue it.
    Cancelled,
    /// Every chunk graded; the verdict digest is final.
    Done,
    /// The engine returned an error (or a round panicked).
    Failed,
}

impl JobState {
    /// The protocol spelling of this state.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Cancelled => "cancelled",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// True for states a job never leaves on its own (`resume` can
    /// still re-enqueue `cancelled`/`failed` jobs explicitly).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Failed)
    }
}

/// Mutable progress of a job, updated at round boundaries.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// Chunks graded so far (exact queue prefix).
    pub chunks_done: usize,
    /// Total chunks; 0 until the first round computes the chunk plan.
    pub chunks_total: usize,
    /// Faults graded so far.
    pub faults_done: usize,
    /// Total faults in the job's fault space.
    pub faults_total: usize,
    /// Classification tallies folded so far.
    pub summary: GradingSummary,
    /// The order-independent verdict digest (final once `Done`).
    pub digest: Option<u64>,
    /// Failure message, for `Failed` jobs.
    pub error: Option<String>,
    /// Cumulative grading wall-clock across rounds.
    pub wall_ns: u128,
}

/// What a job grades: the circuit its spec names and the seeded test
/// bench derived from the spec.
#[derive(Debug)]
pub struct Payload {
    /// The validated circuit.
    pub circuit: Netlist,
    /// The seeded test bench.
    pub testbench: Testbench,
}

impl Payload {
    /// Builds the circuit (registry lookup or inline import) and the
    /// test bench a spec describes.
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown registry name, a
    /// netlist that fails to import, or a circuit with no flip-flops
    /// (nothing to grade).
    pub fn build(spec: &JobSpec) -> Result<Payload, String> {
        let circuit = match &spec.circuit {
            CircuitSource::Registry(name) => registry::build(name)
                .ok_or_else(|| format!("unknown registry circuit {name:?}"))?,
            CircuitSource::Inline { format, source } => {
                import::import_str_with(source, *format, ImportOptions::default())
                    .map_err(|e| format!("netlist import failed: {e}"))?
                    .netlist
            }
        };
        if circuit.num_ffs() == 0 {
            return Err(format!("circuit {:?} has no flip-flops to grade", circuit.name()));
        }
        let testbench = Testbench::random(circuit.num_inputs(), spec.vectors, spec.seed);
        Ok(Payload { circuit, testbench })
    }
}

/// One job held by the scheduler: immutable identity plus live state.
#[derive(Debug)]
pub struct Job {
    /// Job id (`j1`, `j2`, …); also its spool directory name.
    pub id: String,
    /// The spec as submitted (and spooled).
    pub spec: JobSpec,
    /// The built circuit and test bench while the job can still grade:
    /// a terminal status releases it, and [`payload`](Self::payload)
    /// rebuilds it from the spec if a resumed job needs it again.
    payload: Mutex<Option<Arc<Payload>>>,
    status: Mutex<JobStatus>,
    cancel: Mutex<CancelToken>,
    /// Faults graded inside the *current* round (per-chunk hook feed);
    /// folded into `status` and reset at every round boundary.
    live_faults: AtomicUsize,
    subscribers: Mutex<Vec<mpsc::Sender<String>>>,
}

impl Job {
    /// Validates a spec into a runnable job: builds its payload and
    /// sizes the fault space.
    ///
    /// # Errors
    ///
    /// The [`Payload::build`] message for a spec that does not build.
    pub fn build(id: String, spec: JobSpec) -> Result<Job, String> {
        let payload = Payload::build(&spec)?;
        let space = payload.circuit.num_ffs() * payload.testbench.num_cycles();
        let faults_total = spec.sample.map_or(space, |n| n.min(space));
        let job = Job::unbuilt(id, spec);
        job.update_status(|st| st.faults_total = faults_total);
        *job.payload.lock().expect("payload lock") = Some(Arc::new(payload));
        Ok(job)
    }

    /// A job whose payload is not built — a finished job restored from
    /// the spool as history, whose status comes from its `result.json`.
    #[must_use]
    pub(crate) fn unbuilt(id: String, spec: JobSpec) -> Job {
        Job {
            id,
            spec,
            payload: Mutex::new(None),
            status: Mutex::new(JobStatus {
                state: JobState::Queued,
                chunks_done: 0,
                chunks_total: 0,
                faults_done: 0,
                faults_total: 0,
                summary: GradingSummary::new(),
                digest: None,
                error: None,
                wall_ns: 0,
            }),
            cancel: Mutex::new(CancelToken::new()),
            live_faults: AtomicUsize::new(0),
            subscribers: Mutex::new(Vec::new()),
        }
    }

    /// The circuit and test bench this job grades, rebuilt from the
    /// spec if a terminal state released them.
    ///
    /// # Errors
    ///
    /// The [`Payload::build`] message if the spec no longer builds.
    pub fn payload(&self) -> Result<Arc<Payload>, String> {
        let mut slot = self.payload.lock().expect("payload lock");
        if let Some(p) = &*slot {
            return Ok(Arc::clone(p));
        }
        let p = Arc::new(Payload::build(&self.spec)?);
        *slot = Some(Arc::clone(&p));
        Ok(p)
    }

    /// True while the job holds its built payload.
    #[cfg(test)]
    pub(crate) fn holds_payload(&self) -> bool {
        self.payload.lock().expect("payload lock").is_some()
    }

    /// A copy of the round-boundary status.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        self.status.lock().expect("status lock").clone()
    }

    /// Runs `f` on the status under its lock. A transition into a
    /// terminal state (done, failed, cancelled) releases the payload:
    /// a finished job keeps its verdicts, not its circuit.
    pub fn update_status(&self, f: impl FnOnce(&mut JobStatus)) {
        let mut st = self.status.lock().expect("status lock");
        f(&mut st);
        if st.state.is_terminal() {
            *self.payload.lock().expect("payload lock") = None;
        }
    }

    /// Adds faults from the current round's per-chunk hook.
    pub fn note_live_faults(&self, n: usize) {
        self.live_faults.fetch_add(n, Ordering::Relaxed);
    }

    /// Closes a round: resets the live counter (the round's faults are
    /// folded into the durable status by the scheduler).
    pub fn reset_live_faults(&self) {
        self.live_faults.store(0, Ordering::Relaxed);
    }

    /// The protocol snapshot of this job right now — round-boundary
    /// status plus the in-flight chunks of the current round.
    #[must_use]
    pub fn snapshot_value(&self) -> Value {
        let st = self.status();
        let live = self.live_faults.load(Ordering::Relaxed);
        proto::snapshot_value(
            &self.id,
            st.state.label(),
            st.chunks_done,
            st.chunks_total,
            st.faults_done + live,
            st.faults_total,
            &st.summary,
            st.digest.filter(|_| st.state == JobState::Done),
            st.error.as_deref(),
        )
    }

    /// The cancellation token rounds of this job should poll.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.lock().expect("cancel lock").clone()
    }

    /// Trips the current token (cooperative; the in-flight round drains
    /// and checkpoints).
    pub fn cancel(&self) {
        self.cancel.lock().expect("cancel lock").cancel();
    }

    /// Installs a fresh token — `resume` after a cancellation needs an
    /// untripped flag (tokens are one-way).
    pub fn refresh_cancel_token(&self) {
        *self.cancel.lock().expect("cancel lock") = CancelToken::new();
    }

    /// Subscribes to this job's event stream. Subscribers to a job
    /// already in a terminal state immediately receive the synthesized
    /// terminal event and a closed channel.
    #[must_use]
    pub fn subscribe(&self) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        let st = self.status();
        if st.state.is_terminal() {
            let _ = tx.send(self.terminal_event_line(&st));
            return rx; // tx drops: the stream ends after the replay
        }
        self.subscribers.lock().expect("subscribers lock").push(tx);
        rx
    }

    /// Sends one pre-serialized event line to every live subscriber,
    /// dropping the ones that hung up.
    pub fn broadcast(&self, line: &str) {
        let mut subs = self.subscribers.lock().expect("subscribers lock");
        subs.retain(|tx| tx.send(line.to_owned()).is_ok());
    }

    /// Broadcasts the terminal event for `status` and closes every
    /// subscription (their streams end).
    pub fn broadcast_terminal(&self, status: &JobStatus) {
        let line = self.terminal_event_line(status);
        let mut subs = self.subscribers.lock().expect("subscribers lock");
        for tx in subs.drain(..) {
            let _ = tx.send(line.clone());
        }
    }

    /// The event line announcing a terminal `status`.
    #[must_use]
    pub fn terminal_event_line(&self, status: &JobStatus) -> String {
        match status.state {
            JobState::Done => {
                let mut fields = vec![
                    ("faults", Value::count(status.faults_total)),
                    ("digest", Value::str(proto::digest_hex(status.digest.unwrap_or(0)))),
                ];
                fields.extend(
                    [
                        seugrade_faultsim::FaultClass::Failure,
                        seugrade_faultsim::FaultClass::Latent,
                        seugrade_faultsim::FaultClass::Silent,
                    ]
                    .iter()
                    .zip(["failures", "latents", "silents"])
                    .map(|(class, key)| (key, Value::count(status.summary.count(*class)))),
                );
                proto::job_event_line("done", &self.id, fields)
            }
            JobState::Cancelled => proto::job_event_line("cancelled", &self.id, vec![]),
            JobState::Failed => proto::job_event_line(
                "failed",
                &self.id,
                vec![("error", Value::str(status.error.clone().unwrap_or_default()))],
            ),
            // Non-terminal states never reach this (scheduler contract);
            // emit a state event rather than panic if one ever does.
            other => proto::job_event_line(
                "state",
                &self.id,
                vec![("state", Value::str(other.label()))],
            ),
        }
    }
}

/// Builds the campaign plan a spec describes — the **same** plan for a
/// scheduler round, a solo reference run and a resumed round, so the
/// engine fingerprint (and therefore the verdict digest) can never
/// drift between them.
#[must_use]
pub fn build_plan<'a>(
    spec: &JobSpec,
    circuit: &'a Netlist,
    testbench: &'a Testbench,
) -> CampaignPlan<'a> {
    let mut builder = CampaignPlan::builder(circuit, testbench)
        .policy(ShardPolicy { threads: spec.threads, serial_below: 0 })
        .trace_policy(spec.trace_policy)
        .collapse(spec.collapse);
    if let Some(count) = spec.sample {
        builder = builder.sampled(count, spec.seed);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn build_validates_registry_and_inline() {
        let job = Job::build("j1".into(), JobSpec::registry("s27")).unwrap();
        let payload = job.payload().unwrap();
        assert!(payload.circuit.num_ffs() > 0);
        assert_eq!(job.status().faults_total, payload.circuit.num_ffs() * 100);

        assert!(Job::build("j2".into(), JobSpec::registry("nope")).is_err());

        let mut spec = JobSpec::registry("ignored");
        spec.circuit = CircuitSource::Inline {
            format: seugrade_netlist::SourceFormat::Bench,
            source: "garbage(".to_owned(),
        };
        let err = Job::build("j3".into(), spec).unwrap_err();
        assert!(err.contains("import failed"), "{err}");
    }

    #[test]
    fn sample_caps_the_fault_space() {
        let mut spec = JobSpec::registry("s27");
        spec.sample = Some(10);
        let job = Job::build("j1".into(), spec).unwrap();
        assert_eq!(job.status().faults_total, 10);
    }

    #[test]
    fn terminal_subscription_replays_the_terminal_event() {
        let job = Job::build("j1".into(), JobSpec::registry("s27")).unwrap();
        job.update_status(|st| {
            st.state = JobState::Done;
            st.digest = Some(0xabcd);
        });
        let rx = job.subscribe();
        let line = rx.recv().unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(json::Value::as_str), Some("done"));
        assert!(line.contains("000000000000abcd"));
        assert!(rx.recv().is_err(), "stream must end after the replay");
    }

    #[test]
    fn terminal_jobs_release_their_payload() {
        for state in [JobState::Done, JobState::Failed, JobState::Cancelled] {
            let job = Job::build("j1".into(), JobSpec::registry("s27")).unwrap();
            assert!(job.holds_payload(), "a fresh job is built");
            job.update_status(|st| st.state = JobState::Running);
            assert!(job.holds_payload(), "a running job keeps its payload");
            job.update_status(|st| st.state = state);
            assert!(!job.holds_payload(), "a {} job holds no payload", state.label());
            // A resumed job rebuilds it on demand.
            let rebuilt = job.payload().unwrap();
            assert_eq!(rebuilt.circuit.name(), "s27");
            assert!(job.holds_payload());
        }
        let history = Job::unbuilt("j2".into(), JobSpec::registry("s27"));
        assert!(!history.holds_payload(), "history jobs never build");
    }

    #[test]
    fn broadcast_drops_hung_up_subscribers() {
        let job = Job::build("j1".into(), JobSpec::registry("s27")).unwrap();
        let rx1 = job.subscribe();
        let rx2 = job.subscribe();
        drop(rx2);
        job.broadcast("hello");
        assert_eq!(rx1.recv().unwrap(), "hello");
        assert_eq!(job.subscribers.lock().unwrap().len(), 1);
    }

    #[test]
    fn cancel_token_refresh_untrips() {
        let job = Job::build("j1".into(), JobSpec::registry("s27")).unwrap();
        job.cancel();
        assert!(job.cancel_token().is_cancelled());
        job.refresh_cancel_token();
        assert!(!job.cancel_token().is_cancelled());
    }
}
