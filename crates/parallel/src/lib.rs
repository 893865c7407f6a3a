//! A small persistent thread pool with scoped jobs.
//!
//! Recoil decoding is embarrassingly parallel across splits (each split
//! thread owns disjoint output and only shares the read-only bitstream), but
//! benchmark loops dispatch thousands of tiny tasks per decode — e.g. the
//! paper's Large variation uses 2176 splits (§5.1). Spawning OS threads per
//! decode would dominate the measurement, so the pool keeps workers parked
//! and hands them an index-claiming job; the caller participates too and
//! blocks until every worker has finished, which is what makes borrowing
//! stack data from the job closure sound.
//!
//! `rayon` is not available in this environment; this is the minimal subset
//! the workspace needs (dynamic index claiming ≈ `par_iter` over `0..n`).

// Audited unsafe crate: every unsafe operation sits in an explicit block.
#![deny(unsafe_op_in_unsafe_fn)]

mod pool;

pub use pool::ThreadPool;

use parking_lot::Mutex;

/// Runs one fallible task per output segment — the one scheduler every
/// segment-parallel decoder shares.
///
/// `bounds` holds `k + 1` ascending offsets into `out`; task `t` gets
/// exclusive use of `out[bounds[t]..bounds[t + 1]]` (`out` outside
/// `bounds[0]..bounds[k]` is untouched). Tasks run on `pool`, or serially on
/// the caller when there is no pool or only one task. Every task runs even
/// if another fails; the first error recorded is returned.
pub fn run_segments<S: Send, E: Send>(
    pool: Option<&ThreadPool>,
    bounds: &[u64],
    out: &mut [S],
    task: impl Fn(usize, &mut [S]) -> Result<(), E> + Sync,
) -> Result<(), E> {
    let tasks = bounds.len().saturating_sub(1);
    if tasks == 0 {
        return Ok(());
    }
    let mut slices: Vec<Mutex<&mut [S]>> = Vec::with_capacity(tasks);
    let mut rest = &mut out[bounds[0] as usize..bounds[tasks] as usize];
    for w in bounds.windows(2) {
        let (seg, tail) = rest.split_at_mut((w[1] - w[0]) as usize);
        slices.push(Mutex::new(seg));
        rest = tail;
    }
    let first_error: Mutex<Option<E>> = Mutex::new(None);
    let run_task = |t: usize| {
        if let Err(e) = task(t, &mut slices[t].lock()) {
            first_error.lock().get_or_insert(e);
        }
    };
    match pool {
        Some(pool) if tasks > 1 => pool.run(tasks, run_task),
        _ => (0..tasks).for_each(run_task),
    }
    first_error.into_inner().map_or(Ok(()), Err)
}

/// Runs `f(0..tasks)` on a freshly scoped set of `threads` OS threads using
/// dynamic index claiming — the no-pool fallback, also used to cross-check
/// the pool in tests.
pub fn scoped_parallel_for<F: Fn(usize) + Sync>(threads: usize, tasks: usize, f: F) {
    if threads <= 1 || tasks <= 1 {
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    std::thread::scope(|s| {
        for _ in 0..threads.min(tasks) {
            s.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                f(i);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_for_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        scoped_parallel_for(8, 1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn scoped_for_serial_fallback() {
        let hits: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
        scoped_parallel_for(1, 10, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn scoped_for_zero_tasks() {
        scoped_parallel_for(4, 0, |_| panic!("must not run"));
    }

    #[test]
    fn run_segments_hands_out_disjoint_slices() {
        let pool = ThreadPool::new(3);
        for pool in [None, Some(&pool)] {
            let mut out = vec![0u32; 12];
            let bounds = [2u64, 2, 5, 9, 10];
            run_segments(pool, &bounds, &mut out, |t, seg| {
                seg.fill(t as u32 + 1);
                Ok::<(), ()>(())
            })
            .unwrap();
            assert_eq!(out, [0, 0, 2, 2, 2, 3, 3, 3, 3, 4, 0, 0]);
        }
    }

    #[test]
    fn run_segments_runs_every_task_and_reports_an_error() {
        let pool = ThreadPool::new(3);
        for pool in [None, Some(&pool)] {
            let ran = AtomicUsize::new(0);
            let mut out = vec![0u8; 64];
            let bounds: Vec<u64> = (0..=8).map(|i| i * 8).collect();
            let got = run_segments(pool, &bounds, &mut out, |t, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if t % 3 == 1 {
                    Err(t)
                } else {
                    Ok(())
                }
            });
            assert!(matches!(got, Err(1 | 4 | 7)));
            assert_eq!(ran.load(Ordering::Relaxed), 8);
        }
    }

    #[test]
    fn run_segments_without_tasks_is_a_no_op() {
        let mut out = [7u8; 4];
        let none: Result<(), ()> = run_segments(None, &[3], &mut out, |_, _| panic!("no task"));
        assert!(none.is_ok());
        let empty: Result<(), ()> = run_segments(None, &[], &mut out, |_, _| panic!("no task"));
        assert!(empty.is_ok());
        assert_eq!(out, [7; 4]);
    }
}
