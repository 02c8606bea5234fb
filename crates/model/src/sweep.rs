//! One parallel-for — the scheduling scaffolding shared by the batch
//! executor and the schedule fuzzer.
//!
//! Both face the same shape of work: an index range `0..len` whose
//! items cost wildly different amounts (one round over every in-flight
//! batch instance, a generation of genomes), to finish completely
//! before the caller moves on. [`for_each_chunk`] hands out contiguous chunks of it from
//! one shared cursor to a caller-owned slice of per-worker state, so a
//! worker that drew cheap items simply claims more.
//!
//! Items are identified by index only; what an index *means* (and where
//! its result lands) is the caller's business, which is what keeps each
//! result independent of the thread count: workers never share
//! per-item state, so the set of indices processed — and each item's
//! outcome — is the same for every `jobs` value.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count a `jobs` setting asks for: `0` means one worker per
/// available CPU (at least one); any other value is taken as is.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    }
}

/// Calls `body(worker, range)` on chunks of at most `chunk` indices
/// until every index of `0..len` has been visited exactly once.
///
/// Chunks come in ascending order from one shared cursor. The calling
/// thread drives `workers[0]`; each further worker that has a chunk to
/// claim gets its own scoped thread, so a single worker (or a single
/// chunk) runs inline and spawns nothing. Which worker sees which chunk
/// depends on timing: callers must make their result independent of it.
/// A panic in any worker reaches the caller once every worker stopped.
///
/// # Panics
///
/// Panics if `workers` is empty while `len > 0`, and re-raises a
/// worker's panic.
pub fn for_each_chunk<W: Send>(
    len: usize,
    chunk: usize,
    workers: &mut [W],
    body: impl Fn(&mut W, Range<usize>) + Sync,
) {
    let chunk = chunk.clamp(1, len.max(1));
    let used = workers.len().min(len.div_ceil(chunk));
    assert!(used > 0 || len == 0, "a non-empty sweep needs a worker");
    // `Relaxed` suffices: the cursor publishes no data, and joining the
    // scope orders every worker's writes before the caller reads them.
    let cursor = AtomicUsize::new(0);
    let drain = |worker: &mut W| loop {
        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
        if lo >= len {
            break;
        }
        body(worker, lo..(lo + chunk).min(len));
    };
    match &mut workers[..used] {
        [] => {}
        [only] => drain(only),
        [first, rest @ ..] => std::thread::scope(|s| {
            let drain = &drain;
            let handles: Vec<_> = rest.iter_mut().map(|w| s.spawn(move || drain(w))).collect();
            drain(first);
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn every_index_is_visited_exactly_once() {
        for len in [0, 1, 5, 1000] {
            for workers in [1, 2, 3, 8] {
                for chunk in [1, 7, len + 1] {
                    let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                    let mut slots = vec![0usize; workers];
                    for_each_chunk(len, chunk, &mut slots, |seen, range| {
                        assert!(range.len() <= chunk && !range.is_empty());
                        *seen += range.len();
                        for i in range {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                    let tag = format!("len={len} workers={workers} chunk={chunk}");
                    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{tag}");
                    assert_eq!(slots.iter().sum::<usize>(), len, "{tag}");
                }
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let threads = Mutex::new(Vec::new());
        for_each_chunk(100, 3, &mut [()], |(), _| {
            threads.lock().unwrap().push(std::thread::current().id());
        });
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), 34);
        assert!(threads.iter().all(|&t| t == caller));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        for workers in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                for_each_chunk(64, 1, &mut vec![(); workers], |(), range| {
                    assert!(range.start != 40, "item 40 fails");
                });
            });
            let panic = caught.expect_err("the panic propagates");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("item 40 fails"), "workers={workers}");
        }
    }

    #[test]
    fn zero_jobs_means_every_cpu() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }
}
