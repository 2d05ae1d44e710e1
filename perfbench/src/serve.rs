//! The daemon workload (`serve-mixed`): an in-process `seugrade-serve`
//! daemon driven over its line-JSON protocol by a closed loop.
//!
//! Two client connections keep four jobs in flight between them. A
//! job's latency runs from its submit acknowledgement to its terminal
//! `stream` event, so completion is seen when the daemon announces it
//! rather than at the next status poll. A connection can stream one job
//! at a time, so each watches the unwatched job `status` predicts will
//! finish first; a job that ended while nobody watched it is counted in
//! `serve.unwatched_finishes` (its latency is then an upper bound).

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Instant, SystemTime};

use seugrade_circuits::registry;
use seugrade_emulation::CampaignSink;
use seugrade_engine::{Checkpoint, Engine, Fingerprint};
use seugrade_netlist::import;
use seugrade_serve::json::Value;
use seugrade_serve::{proto, CircuitSource, Client, JobSpec, Server, ServerConfig, Spool};
use seugrade_sim::Testbench;

use crate::layers::{self, median_ms, ms_since, ShapeProbe};
use crate::oneshot::campaign;
use crate::reference::{self, Reference};
use crate::sink::TimingSink;
use crate::stats::{self, mean, median, percentile};
use crate::workload::{self, SERVE_IN_FLIGHT, WORKERS};
use crate::{Budget, RunOutput, Tally, SETUPS, TAIL_PCT, TRACE_MIN_OPS};

/// Client connections (no more than the host's cores).
pub const CONNECTIONS: usize = 2;

/// Index of the b14c spec in [`workload::serve_specs`].
const B14C_SPEC: usize = workload::SERVE_SCALE_SEEDS as usize;

/// Pause between `Server::bind` returning and the first client
/// connecting; not counted in `setup_s`.
const CLIENT_ARRIVAL: std::time::Duration = std::time::Duration::from_millis(2);

/// One finished (or failed) job.
#[derive(Clone, Debug)]
struct JobRecord {
    spec: usize,
    timed: bool,
    ok: bool,
    latency_ms: f64,
    submit_ms: f64,
    faults: usize,
    rounds: usize,
    queue_wait_ms: Option<f64>,
    unwatched: bool,
    done_at: Instant,
}

/// A submitted job not yet seen terminal.
struct InFlight {
    id: String,
    n: usize,
    spec: usize,
    timed: bool,
    acked: Instant,
    acked_wall: SystemTime,
    submit_ms: f64,
}

/// The state both connections of one closed loop share.
#[derive(Default)]
struct Shared {
    next: usize,
    timed: usize,
    start: Option<Instant>,
    in_flight: usize,
    /// Submitted jobs no connection is streaming yet, oldest first.
    unwatched: Vec<InFlight>,
}

/// Hands out job numbers — the first [`SERVE_IN_FLIGHT`] of a loop are
/// warm-up, the rest are timed until the budget is spent — and the
/// jobs the connections watch.
struct Dispatch {
    budget: Budget,
    shared: Mutex<Shared>,
}

impl Dispatch {
    fn new(budget: Budget) -> Self {
        Dispatch {
            budget,
            shared: Mutex::new(Shared::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shared> {
        self.shared.lock().expect("dispatch lock")
    }

    /// Reserves an in-flight slot for the next job: its number and
    /// whether it is timed. `None` while four jobs are in flight or
    /// once the budget is spent.
    fn claim(&self) -> Option<(usize, bool)> {
        let mut st = self.lock();
        if st.in_flight >= SERVE_IN_FLIGHT {
            return None;
        }
        let n = st.next;
        if n >= SERVE_IN_FLIGHT {
            let start = *st.start.get_or_insert_with(Instant::now);
            if !self.budget.more(start, st.timed) {
                return None;
            }
            st.timed += 1;
        }
        st.next += 1;
        st.in_flight += 1;
        Some((n, n >= SERVE_IN_FLIGHT))
    }

    /// Frees an in-flight slot (the job ended or was never accepted).
    fn release(&self) {
        self.lock().in_flight -= 1;
    }

    fn timed_start(&self) -> Option<Instant> {
        self.lock().start
    }
}

/// The terminal event matches the job's reference verdicts.
fn terminal_ok(ev: &Value, reference: &Reference) -> bool {
    let count = |k: &str| ev.get(k).and_then(Value::as_usize);
    ev.get("event").and_then(Value::as_str) == Some("done")
        && ev.get("digest").and_then(Value::as_str)
            == Some(proto::digest_hex(reference.digest).as_str())
        && [count("failures"), count("latents"), count("silents")] == reference.classes.map(Some)
}

/// When the daemon wrote job `id`'s result file.
fn result_written(spool: &Spool, id: &str) -> Option<SystemTime> {
    std::fs::metadata(spool.result_path(id))
        .and_then(|m| m.modified())
        .ok()
}

/// One connection's share of the closed loop: it tops the loop up to
/// four jobs in flight, then streams the oldest job nobody watches.
fn client_loop(
    addr: std::net::SocketAddr,
    spool: &Spool,
    specs: &[JobSpec],
    refs: &[Reference],
    dispatch: &Dispatch,
) -> Result<Loop, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Loop::default();
    loop {
        while let Some((n, timed)) = dispatch.claim() {
            let spec = workload::serve_spec_index(n);
            let t0 = Instant::now();
            let submitted = client.submit(&specs[spec]);
            let (acked, acked_wall) = (Instant::now(), SystemTime::now());
            let submit_ms = (acked - t0).as_secs_f64() * 1e3;
            match submitted {
                Ok(id) => dispatch.lock().unwatched.push(InFlight {
                    id,
                    n,
                    spec,
                    timed,
                    acked,
                    acked_wall,
                    submit_ms,
                }),
                Err(e) => {
                    eprintln!("serve-mixed: submit failed: {e}");
                    dispatch.release();
                    out.jobs.push(JobRecord {
                        spec,
                        timed,
                        ok: false,
                        latency_ms: f64::INFINITY,
                        submit_ms,
                        faults: 0,
                        rounds: 0,
                        queue_wait_ms: None,
                        unwatched: false,
                        done_at: acked,
                    });
                }
            }
        }
        let next = {
            let mut st = dispatch.lock();
            (!st.unwatched.is_empty()).then(|| st.unwatched.remove(0))
        };
        let Some(job) = next else {
            // Nothing to watch and no slot to fill: the budget is spent.
            return Ok(out);
        };
        let mut first_chunk = None;
        let mut watched = false;
        let terminal = client.stream(&job.id, |ev| {
            match ev.get("event").and_then(Value::as_str) {
                Some("done" | "cancelled" | "failed") | None => {}
                Some(kind) => {
                    watched = true;
                    if kind == "chunk" && ev.get("shard").and_then(Value::as_usize) == Some(0) {
                        first_chunk.get_or_insert_with(Instant::now);
                    }
                }
            }
        });
        let mut done_at = Instant::now();
        if !watched {
            // The job ended before its stream began: the daemon wrote
            // its result file just before announcing the end.
            if let Some(ended) = result_written(spool, &job.id) {
                done_at = job.acked + ended.duration_since(job.acked_wall).unwrap_or_default();
            }
        }
        dispatch.release();
        let t0 = Instant::now();
        let snap = client.status(&job.id);
        out.status_ms.push(ms_since(t0));
        let chunks = snap
            .as_ref()
            .ok()
            .and_then(|v| v.get("chunks_total").and_then(Value::as_usize));
        let ok = terminal
            .as_ref()
            .is_ok_and(|ev| terminal_ok(ev, &refs[job.spec]))
            && snap
                .as_ref()
                .is_ok_and(|v| v.get("state").and_then(Value::as_str) == Some("done"));
        if !ok {
            eprintln!(
                "serve-mixed: job {} (#{}) failed its check: {terminal:?}",
                job.id, job.n
            );
        }
        out.jobs.push(JobRecord {
            spec: job.spec,
            timed: job.timed,
            ok,
            latency_ms: (done_at - job.acked).as_secs_f64() * 1e3,
            submit_ms: job.submit_ms,
            faults: terminal
                .ok()
                .and_then(|ev| ev.get("faults").and_then(Value::as_usize))
                .unwrap_or(0),
            rounds: chunks.unwrap_or(0).div_ceil(specs[job.spec].round),
            queue_wait_ms: first_chunk.map(|t: Instant| (t - job.acked).as_secs_f64() * 1e3),
            unwatched: !watched,
            done_at,
        });
    }
}

/// The outcome of one closed loop.
#[derive(Debug, Default)]
struct Loop {
    jobs: Vec<JobRecord>,
    status_ms: Vec<f64>,
    wall_s: f64,
}

impl Loop {
    fn timed(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.timed)
    }

    /// Faults of the timed jobs per second, from the first timed submit
    /// to the last timed completion.
    fn faults_per_sec(&self) -> f64 {
        let faults: usize = self.timed().filter(|j| j.ok).map(|j| j.faults).sum();
        faults as f64 / self.wall_s
    }

    /// Timed latencies; a failed job reads `+inf`.
    fn latencies(&self) -> Vec<f64> {
        self.timed()
            .map(|j| if j.ok { j.latency_ms } else { f64::INFINITY })
            .collect()
    }
}

/// Runs one closed loop against the daemon at `addr` until `budget`
/// is spent and every submitted job has ended.
fn closed_loop(
    addr: std::net::SocketAddr,
    spool: &Spool,
    specs: &[JobSpec],
    refs: &[Reference],
    budget: Budget,
    tally: &mut Tally,
) -> Result<Loop, String> {
    let dispatch = Dispatch::new(budget);
    let parts: Vec<Result<Loop, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| scope.spawn(|| client_loop(addr, spool, specs, refs, &dispatch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Loop::default();
    for part in parts {
        let part = part?;
        out.jobs.extend(part.jobs);
        out.status_ms.extend(part.status_ms);
    }
    for job in &out.jobs {
        tally.record(job.ok);
    }
    let start = dispatch
        .timed_start()
        .ok_or("the closed loop timed no job")?;
    let end = out.timed().map(|j| j.done_at).max().unwrap_or(start);
    out.wall_s = (end - start).as_secs_f64();
    Ok(out)
}

/// Per-job layer costs of one spec, from the benchmark's own calls.
#[derive(Debug)]
struct SpecProbe {
    /// `registry::build` or `import::import_str`, plus the stimuli.
    build_ms: f64,
    shape: ShapeProbe,
    engine_build_ms: f64,
    run_ms: f64,
    gaps_us: Vec<f64>,
    fold_ms: f64,
    shards: usize,
    lanes: usize,
    checkpoint_write_ms: f64,
}

/// Probes every layer under one job spec: builds its circuit the way
/// the daemon does, grades it once solo through the engine with the
/// timing sink, and writes a job-sized checkpoint.
fn probe_spec(spec: &JobSpec, ckpt: &Path) -> Result<SpecProbe, String> {
    let (circuit, build_ms) = match &spec.circuit {
        CircuitSource::Registry(name) => median_ms(|| {
            let c = registry::build(name).expect("registry spec");
            let tb = Testbench::random(c.num_inputs(), spec.vectors, spec.seed);
            (c, tb)
        }),
        CircuitSource::Inline { format, source } => median_ms(|| {
            let c = import::import_str(source, *format)
                .expect("fixture imports")
                .netlist;
            let tb = Testbench::random(c.num_inputs(), spec.vectors, spec.seed);
            (c, tb)
        }),
    };
    let (circuit, tb) = circuit;
    let plan = seugrade_serve::build_plan(spec, &circuit, &tb);
    let (engine, engine_build_ms) = median_ms(|| Engine::new(&plan));
    let shape = layers::probe_shape(
        &circuit,
        &tb,
        &plan,
        spec.sample.map(|n| (n, spec.seed)),
        &engine,
    );
    let t0 = Instant::now();
    let (sink, stats) = campaign::<TimingSink<CampaignSink>>(&engine, &plan)?;
    let run_ms = ms_since(t0);
    let trace = sink.finish();
    let checkpoint = Checkpoint::new(
        Fingerprint::of(&plan, stats.shards, stats.faults),
        stats.shards,
        stats.faults,
        Vec::new(),
        &trace.inner,
    );
    let (written, checkpoint_write_ms) = median_ms(|| checkpoint.write_atomic(ckpt));
    written.map_err(|e| format!("checkpoint write: {e}"))?;
    Ok(SpecProbe {
        build_ms,
        shape,
        engine_build_ms,
        run_ms,
        gaps_us: trace.gaps_ns.iter().map(|&ns| ns as f64 / 1e3).collect(),
        fold_ms: trace.fold_ns as f64 / 1e6,
        shards: stats.shards,
        lanes: engine.grader().chunk_lanes(),
        checkpoint_write_ms,
    })
}

/// Where this run keeps its spools: inside the build directory of the
/// checkout, private to this process.
fn spool_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    target.join(format!("perfbench-spool-{}", std::process::id()))
}

/// Runs the daemon workload.
///
/// # Errors
///
/// Daemon, protocol or reference failures.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    let root = spool_root();
    let _ = std::fs::remove_dir_all(&root);
    let result = run_in(&root, seed, seconds, trace);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(root: &Path, seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    let specs = workload::serve_specs(seed);
    // References first, as in the one-shot workloads: set-up is timed
    // on a machine already running at its working pace.
    let refs = reference::in_child("serve-mixed", seed)?.refs;
    let mut setup_ms = Vec::new();
    let mut server: Option<Server> = None;
    for i in 0..SETUPS {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: WORKERS,
            spool: root.join(format!("spool{i}")),
        };
        let t0 = Instant::now();
        let daemon = Server::bind(&config).map_err(|e| format!("bind: {e}"))?;
        let bind_ms = ms_since(t0);
        // The first client arrives once the daemon is serving. Connecting
        // in the same instant races the accept loop's first poll, which
        // splits set-up times between two modes ~25 ms apart.
        std::thread::sleep(CLIENT_ARRIVAL);
        let t1 = Instant::now();
        Client::connect(daemon.local_addr())
            .map_err(|e| format!("connect: {e}"))?
            .ping()
            .map_err(|e| format!("ping: {e}"))?;
        setup_ms.push(bind_ms + ms_since(t1));
        if let Some(mut old) = server.replace(daemon) {
            old.shutdown();
        }
    }
    let mut server = server.expect("at least one set-up");
    let addr = server.local_addr();
    let spool = Spool::open(root.join(format!("spool{}", SETUPS - 1)))
        .map_err(|e| format!("spool: {e}"))?;

    if refs.len() != specs.len() {
        return Err(format!(
            "reference child graded {} of {} specs",
            refs.len(),
            specs.len()
        ));
    }
    let mut out = RunOutput::default();
    let mut tally = Tally::default();
    let m = &mut out.metrics;
    if trace {
        let half = Budget {
            seconds: seconds / 2.0,
            min_ops: TRACE_MIN_OPS,
        };
        let untraced = closed_loop(addr, &spool, &specs, &refs, half, &mut tally)?;
        let ckpt = root.join("probe.ckpt");
        let scale = probe_spec(&specs[0], &ckpt)?;
        let b14c = probe_spec(&specs[B14C_SPEC], &ckpt)?;
        let traced = closed_loop(addr, &spool, &specs, &refs, half, &mut tally)?;
        set_layer_metrics(m, &scale, &b14c, &traced);
        m.set("trace.faults_per_sec", traced.faults_per_sec());
        m.set("trace.untraced_faults_per_sec", untraced.faults_per_sec());
        m.set(
            "trace.overhead_frac",
            1.0 - traced.faults_per_sec() / untraced.faults_per_sec(),
        );
        out.notes.push(format!(
            "traced: {} untraced + {} traced timed jobs",
            untraced.timed().count(),
            traced.timed().count()
        ));
    } else {
        let budget = Budget {
            seconds,
            min_ops: stats::min_samples(TAIL_PCT),
        };
        let timed = closed_loop(addr, &spool, &specs, &refs, budget, &mut tally)?;
        let latencies = timed.latencies();
        m.set("faults_per_sec", timed.faults_per_sec());
        m.set("campaign_ms_p50", median(&latencies));
        m.set("campaign_ms_p90", percentile(&latencies, TAIL_PCT));
        m.set("setup_s", median(&setup_ms) / 1e3);
        m.set("peak_rss_mb", crate::peak_rss_mb());
        out.notes.push(format!(
            "{} timed jobs ({} beyond p{TAIL_PCT}, {} finished unwatched) in {:.2} s after {SERVE_IN_FLIGHT} warm-up jobs",
            latencies.len(),
            stats::beyond(latencies.len(), TAIL_PCT),
            timed.timed().filter(|j| j.unwatched).count(),
            timed.wall_s
        ));
    }
    server.shutdown();
    out.tally = tally;
    Ok(out)
}

/// Records the per-layer metrics of the daemon workload. Per-job
/// figures are averaged over one rotation of four jobs: three sampled
/// `s5378g` jobs and one b14c job.
fn set_layer_metrics(
    m: &mut crate::report::Metrics,
    scale: &SpecProbe,
    b14c: &SpecProbe,
    traced: &Loop,
) {
    let per_job = |f: &dyn Fn(&SpecProbe) -> f64| (3.0 * f(scale) + f(b14c)) / 4.0;
    let per_fault = |f: &dyn Fn(&ShapeProbe) -> f64| {
        (3.0 * scale.shape.faults * f(&scale.shape) + b14c.shape.faults * f(&b14c.shape))
            / (3.0 * scale.shape.faults + b14c.shape.faults)
    };
    let probe_of = |spec: usize| {
        if spec == B14C_SPEC {
            b14c
        } else {
            scale
        }
    };

    m.set("circuits.build_ms", scale.build_ms);
    m.set("netlist.import_ms", b14c.build_ms);
    m.set("netlist.levelize_ms", per_job(&|p| p.shape.levelize_ms));
    m.set("sim.compile_ms", per_job(&|p| p.shape.compile_ms));
    m.set("sim.golden_ms", per_job(&|p| p.shape.golden_ms));
    m.set(
        "sim.golden_stored_bits",
        per_job(&|p| p.shape.golden_stored_bits),
    );
    m.set("sim.span_replay_ms", per_job(&|p| p.shape.span_replay_ms));
    m.set(
        "sim.span_replayed_cycles",
        per_job(&|p| p.shape.span_replayed_cycles),
    );
    m.set("faultsim.sample_ms", per_job(&|p| p.shape.sample_ms));
    let grade_us = per_fault(&|s| s.grade_us_per_fault);
    m.set("faultsim.grade_us_per_fault", grade_us);
    m.set(
        "faultsim.faulty_cycles_per_fault",
        per_fault(&|s| s.faulty_cycles_per_fault),
    );
    m.set(
        "faultsim.lane_occupancy",
        per_job(&|p| p.shape.faults) / per_job(&|p| (p.shards * p.lanes) as f64),
    );
    m.set("engine.build_ms", per_job(&|p| p.engine_build_ms));
    let run_ms = per_job(&|p| p.run_ms);
    m.set("engine.run_ms", run_ms);
    let gaps: Vec<f64> = (0..3)
        .flat_map(|_| scale.gaps_us.iter())
        .chain(&b14c.gaps_us)
        .copied()
        .collect();
    m.set("engine.chunk_us_p50", percentile(&gaps, 50));
    m.set("engine.chunk_us_p90", percentile(&gaps, 90));
    // Each job's rounds run on one engine thread.
    m.set(
        "engine.idle_frac",
        1.0 - per_job(&|p| p.shape.faults) * grade_us / (run_ms * 1e3),
    );
    m.set("engine.sink_fold_ms", per_job(&|p| p.fold_ms));
    m.set(
        "engine.checkpoint_write_ms",
        per_job(&|p| p.checkpoint_write_ms),
    );

    let jobs: Vec<&JobRecord> = traced.timed().filter(|j| j.ok).collect();
    let waits: Vec<f64> = jobs.iter().filter_map(|j| j.queue_wait_ms).collect();
    m.set(
        "serve.submit_ms",
        median(&jobs.iter().map(|j| j.submit_ms).collect::<Vec<_>>()),
    );
    m.set("serve.status_ms", median(&traced.status_ms));
    m.set(
        "serve.queue_wait_ms_p50",
        if waits.is_empty() {
            0.0
        } else {
            median(&waits)
        },
    );
    m.set("serve.queue_wait_samples", waits.len() as f64);
    m.set(
        "serve.unwatched_finishes",
        jobs.iter().filter(|j| j.unwatched).count() as f64,
    );
    m.set(
        "serve.rounds_per_job",
        mean(&jobs.iter().map(|j| j.rounds as f64).collect::<Vec<_>>()),
    );
    m.set(
        "serve.rebuild_frac",
        median(
            &jobs
                .iter()
                .map(|j| j.rounds as f64 * probe_of(j.spec).engine_build_ms / j.latency_ms)
                .collect::<Vec<_>>(),
        ),
    );
    // Layer calls inside a job: the submit round trip, then per round
    // an engine rebuild and a checkpoint write, and the grading itself.
    m.set(
        "trace.unaccounted_frac",
        median(
            &jobs
                .iter()
                .map(|j| {
                    let p = probe_of(j.spec);
                    let covered = j.submit_ms
                        + j.rounds as f64 * (p.engine_build_ms + p.checkpoint_write_ms)
                        + j.faults as f64 * p.shape.grade_us_per_fault / 1e3;
                    1.0 - covered / j.latency_ms
                })
                .collect::<Vec<_>>(),
        ),
    );
}
