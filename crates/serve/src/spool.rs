//! The per-job spool: one directory per job under the daemon's spool
//! root, every file written atomically and durably through the same
//! helper as engine checkpoints (synced sibling temp file, `rename`,
//! directory sync), so a crash, SIGKILL or power loss never leaves a
//! torn file behind.
//!
//! ```text
//! <spool>/j7/job.json      the submitted spec (written once, at submit)
//! <spool>/j7/job.ckpt      the engine checkpoint (written every round)
//! <spool>/j7/result.json   the terminal verdict (written once, at the end)
//! ```
//!
//! A daemon restart [`scan`](Spool::scan)s the root: a job with a
//! `result.json` is terminal history; one with only a checkpoint (or
//! only a spec) is re-enqueued and resumes from its cursor — the
//! restart-survival contract `tests/serve_determinism.rs` enforces.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::proto::{JobSpec, SERVE_SCHEMA};

/// The daemon's spool directory.
#[derive(Clone, Debug)]
pub struct Spool {
    root: PathBuf,
}

/// One job found on disk by [`Spool::scan`].
#[derive(Debug)]
pub struct SpooledJob {
    /// Job id (`j<N>`, the directory name).
    pub id: String,
    /// Numeric part of the id.
    pub num: u64,
    /// The spec parsed back out of `job.json`.
    pub spec: JobSpec,
    /// True when an engine checkpoint exists (the job ran at least one
    /// round before the daemon stopped).
    pub has_ckpt: bool,
    /// The parsed `result.json`, for jobs that reached a terminal state.
    pub result: Option<Value>,
}

impl Spool {
    /// Opens (creating if missing) a spool rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Spool> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Spool { root })
    }

    /// The spool root.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory of one job.
    #[must_use]
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// The engine checkpoint path of one job.
    #[must_use]
    pub fn ckpt_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("job.ckpt")
    }

    /// The spec path of one job.
    #[must_use]
    pub fn spec_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("job.json")
    }

    /// The terminal-result path of one job.
    #[must_use]
    pub fn result_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("result.json")
    }

    /// Persists a freshly submitted spec (atomic; creates the job dir).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_spec(&self, id: &str, spec: &JobSpec) -> io::Result<()> {
        fs::create_dir_all(self.job_dir(id))?;
        let doc = Value::obj(vec![
            ("schema", Value::str(SERVE_SCHEMA)),
            ("id", Value::str(id)),
            ("job", spec.to_value()),
        ]);
        write_atomic(&self.spec_path(id), &doc.to_line())
    }

    /// Persists a terminal result document (atomic).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_result(&self, id: &str, result: &Value) -> io::Result<()> {
        fs::create_dir_all(self.job_dir(id))?;
        write_atomic(&self.result_path(id), &result.to_line())
    }

    /// Scans the spool for jobs left by previous daemon lives, sorted
    /// by job number, plus the highest `j<N>` number on disk (0 for an
    /// empty spool). Unreadable or malformed entries are skipped with
    /// a note on stderr rather than failing the whole restart — one
    /// corrupted spec must not strand every other spooled job — but
    /// still count toward the highest number, so new ids continue past
    /// them and never write into a directory holding another job's
    /// checkpoint or result.
    ///
    /// # Errors
    ///
    /// Propagates a failure to read the root directory itself.
    pub fn scan(&self) -> io::Result<(Vec<SpooledJob>, u64)> {
        let (mut jobs, mut max_num) = (Vec::new(), 0);
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let id = entry.file_name().to_string_lossy().into_owned();
            let Some(num) = id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) else {
                continue;
            };
            max_num = max_num.max(num);
            match self.load_one(&id, num) {
                Ok(job) => jobs.push(job),
                Err(e) => eprintln!("spool: skipping {id}: {e}"),
            }
        }
        jobs.sort_by_key(|j| j.num);
        Ok((jobs, max_num))
    }

    fn load_one(&self, id: &str, num: u64) -> Result<SpooledJob, String> {
        let text = fs::read_to_string(self.spec_path(id))
            .map_err(|e| format!("cannot read job.json: {e}"))?;
        let doc = json::parse(text.trim_end()).map_err(|e| format!("job.json: {e}"))?;
        let spec_value = doc.get("job").ok_or("job.json has no `job` object")?;
        let spec = JobSpec::from_value(spec_value).map_err(|e| format!("job.json: {e}"))?;
        let has_ckpt = self.ckpt_path(id).exists();
        let result = match fs::read_to_string(self.result_path(id)) {
            Ok(text) => {
                Some(json::parse(text.trim_end()).map_err(|e| format!("result.json: {e}"))?)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("cannot read result.json: {e}")),
        };
        Ok(SpooledJob { id: id.to_owned(), num, spec, has_ckpt, result })
    }
}

/// Writes `text` plus a trailing newline through
/// [`write_durable`](seugrade_engine::write_durable) — a reader never
/// observes a torn or empty file, even after a power loss.
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    seugrade_engine::write_durable(path, format!("{text}\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("seugrade-serve-spool-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spec_roundtrips_through_the_spool() {
        let root = temp_root("spec");
        let spool = Spool::open(&root).unwrap();
        let mut spec = JobSpec::registry("s27");
        spec.sample = Some(64);
        spool.write_spec("j3", &spec).unwrap();
        let (scanned, max_num) = spool.scan().unwrap();
        assert_eq!(max_num, 3);
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].id, "j3");
        assert_eq!(scanned[0].num, 3);
        assert_eq!(scanned[0].spec, spec);
        assert!(!scanned[0].has_ckpt);
        assert!(scanned[0].result.is_none());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scan_sorts_by_number_and_skips_foreign_dirs() {
        let root = temp_root("sort");
        let spool = Spool::open(&root).unwrap();
        for id in ["j10", "j2"] {
            spool.write_spec(id, &JobSpec::registry("s27")).unwrap();
        }
        fs::create_dir_all(root.join("not-a-job")).unwrap();
        // A torn directory (no job.json) is skipped, not fatal, but its
        // number is still taken.
        fs::create_dir_all(root.join("j99")).unwrap();
        let (jobs, max_num) = spool.scan().unwrap();
        let ids: Vec<String> = jobs.into_iter().map(|j| j.id).collect();
        assert_eq!(ids, ["j2", "j10"]);
        assert_eq!(max_num, 99);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn results_mark_jobs_terminal() {
        let root = temp_root("result");
        let spool = Spool::open(&root).unwrap();
        spool.write_spec("j1", &JobSpec::registry("s27")).unwrap();
        let result = Value::obj(vec![("state", Value::str("done"))]);
        spool.write_result("j1", &result).unwrap();
        let (scanned, _) = spool.scan().unwrap();
        assert_eq!(
            scanned[0].result.as_ref().and_then(|r| r.get("state")).and_then(Value::as_str),
            Some("done")
        );
        // Atomicity leftovers: no .tmp sibling survives a completed write.
        assert!(!spool.job_dir("j1").join("result.json.tmp").exists());
        fs::remove_dir_all(&root).unwrap();
    }
}
