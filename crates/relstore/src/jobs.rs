//! The workspace's one job runner: independent jobs pulled from one atomic
//! counter by scoped threads.
//!
//! [`Database::finalize`](crate::Database::finalize) (one job per full-text
//! index, one per foreign key's join statistics) and
//! [`Database::validate`](crate::Database::validate) (one job per table's
//! structure check, one per foreign key's target check) run here, and so
//! does quest-shard's data-proportional work: the sharded store's full
//! statistics rebuild (one job per foreign key's reference counts) and its
//! single-table `execute` (one job per shard). The runner uses at most
//! `available_parallelism()` threads, the caller being one of them, and
//! never more threads than jobs; it keeps no pool past the call.
//!
//! Two rules keep thread creation where it pays:
//! * **No commit path runs here.** A mutation, a batch apply or a sharded
//!   commit costs a few hash updates, less than one spawn.
//! * **A job never calls the runner again.** Callers with several
//!   databases (a shard set) finalize them one after another, each on this
//!   runner, instead of nesting spawns.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `job(0)` … `job(count - 1)` and return the results in index order.
/// Each thread takes the next unclaimed index until none is left, so a
/// slow job delays only the thread that drew it. With one job, or one
/// available processor, every job runs on the caller and nothing spawns.
/// A panicking job resumes its unwind on the caller with its own payload.
pub fn run<T: Send>(count: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
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
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    // Every index in 0..count was claimed exactly once, so sorting the
    // pairs by index lays the results out in job order.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_come_back_in_index_order() {
        for count in [0, 1, 2, 3, 17] {
            let squares = run(count, |i| i * i);
            assert_eq!(squares, (0..count).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// The message a panicking `job` carries out of the runner.
    fn panic_message(count: usize, job: impl Fn(usize) -> usize + Sync) -> String {
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| run(count, job)))
            .expect_err("the job's panic reaches the caller");
        *payload
            .downcast::<String>()
            .expect("a formatted panic carries a String payload")
    }

    #[test]
    fn a_panicking_job_unwinds_into_the_caller() {
        let message = panic_message(8, |i| {
            assert_ne!(i, 5, "job 5 fails");
            i
        });
        assert!(message.contains("job 5 fails"), "payload was {message:?}");
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        // Force the panic onto a helper: the caller's job waits until a
        // helper has claimed the other one, and only a helper's job panics.
        let caller = std::thread::current().id();
        let helper_claimed = AtomicBool::new(false);
        let message = panic_message(2, |i| {
            if std::thread::current().id() != caller {
                helper_claimed.store(true, Ordering::SeqCst);
                panic!("helper job {i} fails");
            }
            while !helper_claimed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            i
        });
        assert!(
            message.starts_with("helper job "),
            "payload was {message:?}"
        );
    }

    #[test]
    fn never_runs_on_more_threads_than_processors_or_jobs() {
        let me = std::thread::current().id();
        let processors = std::thread::available_parallelism().map_or(1, |n| n.get());
        for count in 0..=17 {
            let ran = run(count, |i| {
                // Long enough that every spawned thread gets to claim a job.
                std::thread::sleep(std::time::Duration::from_micros(200));
                (i, std::thread::current().id())
            });
            assert_eq!(
                ran.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                (0..count).collect::<Vec<_>>(),
                "results come back in index order"
            );
            let threads: HashSet<_> = ran.iter().map(|(_, t)| *t).collect();
            if count <= 1 {
                // Nothing to share: the caller runs it.
                assert!(threads.iter().all(|t| *t == me));
            } else {
                assert!(threads.len() <= processors.min(count), "{count} jobs");
            }
        }
    }
}
