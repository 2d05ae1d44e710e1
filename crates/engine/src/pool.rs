//! A home-grown chunk-queue thread pool on `std::thread::scope`.
//!
//! Work items are indices `0..items` pulled from a shared atomic counter,
//! so fast workers naturally steal the load of slow ones (long-tail
//! injection cycles cost more than late ones). Each worker owns private
//! scratch state created by `init` — for fault grading, a `SimState` —
//! and folds its items into a private accumulator; callers that need
//! submission order tag each item's result with its index, so results
//! merge **deterministically** regardless of which worker graded what
//! and in which order.
//!
//! [`run_folded_ctl`] is the only scheduler. It also provides the
//! robustness layer every campaign path builds on:
//!
//! - **Worker-panic containment.** Each item runs under
//!   [`std::panic::catch_unwind`] with a *chunk-local* accumulator that
//!   is merged into the worker's accumulator only on success, so a
//!   panicked chunk never leaks a partial fold. The panicked chunk is
//!   requeued (the worker's scratch is rebuilt first — a panic may have
//!   left it mid-update) up to a bounded retry budget; a chunk that
//!   panics on every attempt surfaces as
//!   [`EngineError::WorkerPanic`] instead of poisoning the campaign.
//! - **Cooperative cancellation.** A [`CancelToken`] is polled at chunk
//!   boundaries only: on cancellation every worker finishes the chunk it
//!   already claimed (and any requeued retries) before stopping, which
//!   keeps the set of completed chunks an exact prefix `0..completed` of
//!   the queue — the invariant that makes a checkpoint cursor
//!   meaningful at any thread count.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cancel::CancelToken;
use crate::error::EngineError;

/// Default number of times a panicked chunk is requeued before the
/// campaign gives up on it (total attempts = budget + 1).
pub(crate) const DEFAULT_RETRY_BUDGET: usize = 2;

/// Knobs of a fault-tolerant folded run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FoldControl<'a> {
    /// Polled at chunk boundaries; `None` never cancels.
    pub cancel: Option<&'a CancelToken>,
    /// Requeues per panicking chunk before [`EngineError::WorkerPanic`].
    pub retry_budget: usize,
}

impl Default for FoldControl<'_> {
    fn default() -> Self {
        FoldControl { cancel: None, retry_budget: DEFAULT_RETRY_BUDGET }
    }
}

/// Result of a cancellable folded run.
#[derive(Debug)]
pub(crate) struct FoldStatus<A> {
    /// Per-worker accumulators, in worker-index order.
    pub accs: Vec<A>,
    /// Chunks completed — always the exact prefix `0..completed` of the
    /// queue (equals `items` unless the run was cancelled).
    pub completed: usize,
}

/// Renders a caught panic payload (`&str` / `String` payloads; anything
/// else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `work` over every index in `0..items` on up to `threads` workers,
/// folding each item into a per-worker accumulator — the one scheduler
/// every engine run path shares.
///
/// `init` creates one private scratch state per worker; `work` folds
/// `(scratch, accumulator, index)`. Each item runs on a fresh `init_acc`
/// accumulator that `merge` folds into the worker's only once the item
/// succeeded (see the module docs for panic containment and
/// cancellation). Returns the worker accumulators in worker-index order
/// — a single accumulator when everything ran inline on the calling
/// thread (`threads == 1`, or at most one item). Workers race for items,
/// so the caller restores any order it needs (by tagging results with
/// their index) or uses order-insensitive accumulators.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub(crate) fn run_folded_ctl<S, A, I, F, M, W>(
    items: usize,
    threads: usize,
    init: I,
    init_acc: F,
    merge: M,
    work: W,
    ctl: &FoldControl<'_>,
) -> Result<FoldStatus<A>, EngineError>
where
    A: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn() -> A + Sync,
    M: Fn(&mut A, A) + Sync,
    W: Fn(&mut S, &mut A, usize) + Sync,
{
    assert!(threads > 0, "the pool needs at least one thread");
    let threads = threads.min(items).max(1);
    let cancelled = || ctl.cancel.is_some_and(CancelToken::is_cancelled);

    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let fatal_flag = AtomicBool::new(false);
    let fatal: Mutex<Option<EngineError>> = Mutex::new(None);
    // Requeued chunks plus their panic counts. Retries are drained with
    // priority — even after cancellation — so every *claimed* chunk
    // eventually completes and the completed set stays a queue prefix.
    let retries: Mutex<(Vec<usize>, HashMap<usize, usize>)> =
        Mutex::new((Vec::new(), HashMap::new()));

    let worker = || {
        let mut scratch = init();
        let mut acc = init_acc();
        loop {
            if fatal_flag.load(Ordering::SeqCst) {
                break;
            }
            let requeued = retries.lock().expect("retry queue lock").0.pop();
            let item = match requeued {
                Some(i) => i,
                None => {
                    if cancelled() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items {
                        break;
                    }
                    i
                }
            };
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut local = init_acc();
                work(&mut scratch, &mut local, item);
                local
            }));
            match run {
                Ok(local) => {
                    merge(&mut acc, local);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                Err(payload) => {
                    // The panic may have left the scratch mid-update.
                    scratch = init();
                    let mut r = retries.lock().expect("retry queue lock");
                    let attempts = r.1.entry(item).or_insert(0);
                    *attempts += 1;
                    if *attempts > ctl.retry_budget {
                        *fatal.lock().expect("fatal lock") = Some(EngineError::WorkerPanic {
                            chunk: item,
                            attempts: *attempts,
                            message: panic_message(payload.as_ref()),
                        });
                        fatal_flag.store(true, Ordering::SeqCst);
                    } else {
                        r.0.push(item);
                    }
                }
            }
        }
        acc
    };

    let accs: Vec<A> = if threads == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked outside the contained region"))
                .collect()
        })
    };

    if let Some(err) = fatal.into_inner().expect("fatal lock") {
        return Err(err);
    }
    Ok(FoldStatus { accs, completed: completed.into_inner() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_folded(
        items: usize,
        threads: usize,
        ctl: &FoldControl<'_>,
        work: impl Fn(usize) + Sync,
    ) -> Result<FoldStatus<Vec<usize>>, EngineError> {
        run_folded_ctl(
            items,
            threads,
            || (),
            Vec::new,
            |a: &mut Vec<usize>, b| a.extend(b),
            |(), acc: &mut Vec<usize>, i| {
                work(i);
                acc.push(i);
            },
            ctl,
        )
    }

    #[test]
    fn folded_accumulators_cover_every_item_once() {
        for threads in [1, 2, 4, 8] {
            let status = collect_folded(100, threads, &FoldControl::default(), |_| {}).unwrap();
            assert_eq!(status.completed, 100);
            assert!(status.accs.len() <= threads);
            let mut all: Vec<usize> = status.accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn folded_empty_queue_yields_one_empty_accumulator() {
        let status = collect_folded(0, 4, &FoldControl::default(), |_| {}).unwrap();
        assert_eq!(status.completed, 0);
        assert_eq!(status.accs, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn panicking_chunk_is_retried_and_contained() {
        // Item 7 panics on its first attempt at every thread count; the
        // retry must re-run it so the fold still covers the queue exactly
        // once, with no partial observation from the failed attempt.
        for threads in [1, 2, 4] {
            let first_attempt = AtomicBool::new(true);
            let status = collect_folded(20, threads, &FoldControl::default(), |i| {
                if i == 7 && first_attempt.swap(false, Ordering::SeqCst) {
                    panic!("injected chunk failure");
                }
            })
            .unwrap();
            assert_eq!(status.completed, 20, "{threads} threads");
            let mut all: Vec<usize> = status.accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..20).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn exhausted_retry_budget_surfaces_worker_panic() {
        for threads in [1, 3] {
            let err = collect_folded(10, threads, &FoldControl::default(), |i| {
                assert!(i != 3, "always-fatal chunk");
            })
            .unwrap_err();
            match err {
                EngineError::WorkerPanic { chunk, attempts, .. } => {
                    assert_eq!(chunk, 3, "{threads} threads");
                    assert_eq!(attempts, DEFAULT_RETRY_BUDGET + 1, "{threads} threads");
                }
                other => panic!("expected WorkerPanic, got {other}"),
            }
        }
    }

    #[test]
    fn cancellation_completes_an_exact_prefix() {
        for threads in [1, 2, 4] {
            let token = CancelToken::new();
            let ctl = FoldControl { cancel: Some(&token), retry_budget: 0 };
            let status = collect_folded(200, threads, &ctl, |i| {
                if i == 10 {
                    token.cancel();
                }
            })
            .unwrap();
            assert!(status.completed >= 11, "{threads} threads: in-flight chunks drain");
            assert!(status.completed < 200, "{threads} threads: cancellation stops the queue");
            let mut all: Vec<usize> = status.accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..status.completed).collect::<Vec<_>>(),
                "{threads} threads: completed chunks form the exact queue prefix"
            );
        }
    }

    #[test]
    fn pre_cancelled_run_completes_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let ctl = FoldControl { cancel: Some(&token), retry_budget: 0 };
        let status = collect_folded(50, 4, &ctl, |_| {}).unwrap();
        assert_eq!(status.completed, 0);
        assert!(status.accs.into_iter().all(|a| a.is_empty()));
    }

    #[test]
    fn scratch_state_is_per_worker() {
        // Each worker counts the items it grades in its scratch; the
        // per-worker counts must sum to the queue length whatever the
        // interleaving.
        let status = run_folded_ctl(
            64,
            3,
            || 0usize,
            || 0usize,
            |a: &mut usize, b| *a = (*a).max(b),
            |count, acc, _| {
                *count += 1;
                *acc = *count;
            },
            &FoldControl::default(),
        )
        .unwrap();
        assert_eq!(status.accs.iter().sum::<usize>(), 64);
    }

    #[test]
    fn more_threads_than_items() {
        let status = collect_folded(3, 16, &FoldControl::default(), |_| {}).unwrap();
        assert_eq!(status.accs.len(), 3, "workers are capped at the item count");
        assert_eq!(status.completed, 3);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = collect_folded(1, 0, &FoldControl::default(), |_| {});
    }
}
