//! Bounded job pool with in-order streaming emission.
//!
//! Runs any number of jobs on a fixed worker count (rayon is not
//! vendored — see vendor/README.md), where one OS thread per grid cell
//! would be unbounded. It is the workspace's only thread pool.
//!
//! Design:
//!
//! * one shared cursor holds the next unclaimed job index; an idle
//!   worker claims it and advances it, so jobs start in ascending order
//!   and a slow cell never strands work behind it (grids are at most a
//!   few hundred cells of 1–100 ms each: one lock per claim is noise);
//! * results land in a slot array indexed by job, and a second shared
//!   cursor drains completed results **in job order** through the
//!   caller's sink — so streaming output is byte-identical regardless
//!   of worker count or claim interleaving.
//!
//! Job *completion order* is scheduling-dependent; everything observable
//! (the returned `Vec`, the sink call order) is not. This file is the
//! one concurrency seam of the strict lint tier (`crates/clippy.toml`,
//! DESIGN.md §14): all `Mutex`/`thread::scope` use in csmt-sweep lives
//! here, under the module-level `#![expect]` below.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the one parallel seam: results drain through a locked cursor strictly in job order, so output is byte-identical at any worker count"
)]

use std::sync::Mutex;

/// Shared emission state: the result slots plus the in-order cursor.
/// Destructured under one lock so insert-and-drain is atomic.
struct Emit<T, C> {
    results: Vec<Option<T>>,
    next: usize,
    sink: C,
}

/// Run `n_jobs` jobs (`job(i)` for `i in 0..n_jobs`) on at most
/// `threads` workers, calling `sink(i, &result)` for every job **in
/// ascending job order** as results become ready, and returning all
/// results in job order.
///
/// With `threads <= 1` (or a single job) everything runs inline on the
/// calling thread — the default on single-CPU hosts — and the parallel
/// path produces byte-identical observable behavior.
pub fn run_jobs<T, F, C>(n_jobs: usize, threads: usize, job: F, mut sink: C) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, &T) + Send,
{
    if threads <= 1 || n_jobs <= 1 {
        return (0..n_jobs)
            .map(|i| {
                let r = job(i);
                sink(i, &r);
                r
            })
            .collect();
    }
    let unclaimed = Mutex::new(0..n_jobs);
    // A function, so the cursor's guard is dropped before the job runs.
    let claim = || unclaimed.lock().expect("claim lock").next();
    let emit = Mutex::new(Emit {
        results: (0..n_jobs).map(|_| None).collect(),
        next: 0,
        sink,
    });
    std::thread::scope(|s| {
        for _ in 0..threads.min(n_jobs) {
            s.spawn(|| {
                while let Some(i) = claim() {
                    let r = job(i);
                    let mut e = emit.lock().expect("emit lock");
                    let Emit {
                        results,
                        next,
                        sink,
                    } = &mut *e;
                    results[i] = Some(r);
                    // Drain every consecutive ready result in job order.
                    while let Some(Some(r)) = results.get(*next) {
                        sink(*next, r);
                        *next += 1;
                    }
                }
            });
        }
    });
    emit.into_inner()
        .expect("emit lock")
        .results
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_collecting(n_jobs: usize, threads: usize) -> (Vec<usize>, Vec<usize>) {
        let mut streamed = Vec::new();
        let results = run_jobs(
            n_jobs,
            threads,
            |i| i * 10,
            |i, &r| streamed.push(i * 1000 + r),
        );
        (results, streamed)
    }

    #[test]
    fn serial_and_pooled_agree_in_results_and_sink_order() {
        let (serial_r, serial_s) = run_collecting(23, 1);
        for threads in [2, 4, 7, 32] {
            let (r, s) = run_collecting(23, threads);
            assert_eq!(r, serial_r, "{threads} threads");
            assert_eq!(s, serial_s, "{threads} threads");
        }
    }

    #[test]
    fn sink_sees_every_job_exactly_once_in_order() {
        let (_, streamed) = run_collecting(50, 4);
        let expect: Vec<usize> = (0..50).map(|i| i * 1000 + i * 10).collect();
        assert_eq!(streamed, expect);
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        assert!(run_jobs(0, 4, |i| i, |_, _| {}).is_empty());
        assert_eq!(run_jobs(1, 4, |i| i + 7, |_, _| {}), vec![7]);
    }

    #[test]
    fn more_workers_than_jobs_is_clamped() {
        let (r, s) = run_collecting(3, 64);
        assert_eq!(r, vec![0, 10, 20]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn uneven_job_cost_still_emits_in_order() {
        // Job 0 is the slowest; its sink call must still come first.
        let mut order = Vec::new();
        run_jobs(
            8,
            4,
            |i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                i
            },
            |i, _| order.push(i),
        );
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }
}
