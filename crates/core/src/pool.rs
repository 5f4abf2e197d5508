//! The workspace's one parallel primitive: an ordered work-claiming pool.
//!
//! The Monte-Carlo runner behind Figures 1–4, the simulator's what-if sweeps
//! and the serving daemon's request batches all run independent jobs over a
//! few long-lived worker states (a warm [`ScheduleEngine`](crate::ScheduleEngine)
//! and its scratch buffers). [`run_ordered`] gives each worker state its own
//! thread; the workers claim job indices one at a time from a shared counter,
//! so a slow job delays only its own worker, and the results come back in
//! index order. When a job's result depends only on its index and its shared
//! inputs, not on the worker's scratch, the output is therefore
//! **bit-identical for any worker count**, by construction, in this one place.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `job(worker, i)` for every `i` in `0..len` and returns the results in
/// index order.
///
/// Up to `min(workers.len(), len)` workers take part. The calling thread is
/// the first of them and a scoped thread is spawned for each other one. Every
/// worker claims the next unclaimed index from an atomic counter until none
/// is left, so the jobs are spread by their cost, not by their count. With
/// one worker or at most one job, the calling thread runs every job on the
/// first worker and no thread is spawned.
///
/// # Panics
///
/// Panics if `len > 0` and `workers` is empty. A panicking job re-raises its
/// panic in the caller, once every worker has stopped.
pub fn run_ordered<S, R, F>(workers: &mut [S], len: usize, job: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let (first, others) = workers
        .split_first_mut()
        .expect("the pool needs at least one worker");
    if others.is_empty() || len == 1 {
        return (0..len).map(|i| job(first, i)).collect();
    }

    // `Relaxed` suffices: the counter publishes no data. The read-modify-write
    // alone hands each index out once, and every result reaches this thread
    // through its worker's join, which synchronises.
    let next = AtomicUsize::new(0);
    let claim = |worker: &mut S| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                return done;
            }
            done.push((i, job(worker, i)));
        }
    };
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = others
            .iter_mut()
            .take(len - 1)
            .map(|worker| scope.spawn(|| claim(worker)))
            .collect();
        let own = claim(first);
        for done in std::iter::once(Ok(own)).chain(handles.into_iter().map(|h| h.join())) {
            let done = done.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// A job whose cost varies sharply with its index, so that the workers
    /// finish out of index order; the checks hold for any interleaving.
    fn uneven(worker: &mut Vec<usize>, i: usize) -> u64 {
        worker.push(i);
        if i.is_multiple_of(5) {
            thread::sleep(Duration::from_millis(3));
        }
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        let expected: Vec<u64> = (0..23)
            .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for count in [1usize, 2, 3, 8, 40] {
            let mut workers = vec![Vec::new(); count];
            let results = run_ordered(&mut workers, expected.len(), uneven);
            assert_eq!(results, expected, "{count} workers");
            // Every index ran exactly once, on some worker.
            let mut ran: Vec<usize> = workers.concat();
            ran.sort_unstable();
            assert_eq!(ran, (0..expected.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_return_nothing_and_touch_no_worker() {
        let mut workers = vec![0u32; 3];
        let results: Vec<()> = run_ordered(&mut workers, 0, |w, _| *w += 1);
        assert!(results.is_empty());
        assert_eq!(workers, [0, 0, 0]);
        let results: Vec<()> = run_ordered(&mut Vec::<u32>::new(), 0, |_, _| ());
        assert!(results.is_empty());
    }

    #[test]
    fn one_worker_or_one_job_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let on = |_: &mut (), _: usize| thread::current().id();
        let ids: Vec<ThreadId> = run_ordered(&mut [()], 6, on);
        assert!(ids.iter().all(|&id| id == caller));
        let ids: Vec<ThreadId> = run_ordered(&mut [(), (), ()], 1, on);
        assert_eq!(ids, [caller]);
    }

    #[test]
    #[should_panic(expected = "a spawned worker's job failed")]
    fn a_panicking_job_re_raises_in_the_caller() {
        // The barrier holds each job until both workers have taken one, so a
        // spawned worker runs a job; only that job panics, and its payload
        // must reach the caller.
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let _: Vec<()> = run_ordered(&mut [(), ()], 2, |_, _| {
            barrier.wait();
            assert!(
                thread::current().id() == caller,
                "a spawned worker's job failed"
            );
        });
    }
}
