//! The setup-phase job runner: independent jobs pulled from one atomic
//! counter by scoped threads.
//!
//! [`Database::finalize`](crate::Database::finalize) (one job per full-text
//! index, one per foreign key's join statistics) and
//! [`Database::validate`](crate::Database::validate) (one job per table's
//! structure check, one per foreign key's target check) run here. The
//! runner uses at most `available_parallelism()` threads, the caller being
//! one of them, and never more threads than jobs; it keeps no pool past the
//! call. Nothing on a commit path runs here, and a job never calls the
//! runner again — callers with several databases (a shard set) finalize
//! them one after another, each on this runner, instead of nesting spawns.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `job(0)` … `job(count - 1)` and return the results in index order.
/// Each thread takes the next unclaimed index until none is left, so a
/// slow job delays only the thread that drew it. A panicking job resumes
/// its unwind on the caller.
pub(crate) fn run<T: Send>(count: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(count);
    if threads <= 1 {
        return (0..count).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices, and each result
            // travels back through `join`, which synchronizes.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        for (i, result) in done {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for count in [0, 1, 2, 3, 17] {
            let squares = run(count, |i| i * i);
            assert_eq!(squares, (0..count).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_job_unwinds_into_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            run(8, |i| {
                assert_ne!(i, 5, "job 5 fails");
                i
            })
        });
        assert!(caught.is_err());
    }
}
