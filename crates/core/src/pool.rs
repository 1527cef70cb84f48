//! The claim-counter worker pool shared by the engine's per-cluster
//! stage and the batch runner's jobs.
//!
//! [`run_indexed`] runs `count` indexed tasks: one shared [`AtomicUsize`]
//! hands each worker the next unclaimed index, and one result slot per
//! index is merged back in index order. Results are position-stable
//! whatever the interleaving, so any worker count gives the same output.
//!
//! # Panic containment
//!
//! Every task runs under [`catch_unwind`]; a panicking task contributes
//! the caller's `on_panic(index, payload)` instead of killing its worker
//! (or, transitively, the pool). Slot locks recover from poisoning via
//! [`PoisonError::into_inner`]: a slot is a plain `Option<T>`, valid at
//! every point a panic can unwind through.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Resolves a worker-count setting: `0` = one per available core,
/// anything else as given.
pub fn resolve_workers(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `count` indexed tasks over `workers` threads with work stealing
/// at task granularity, returning results in index order.
///
/// Each worker repeatedly claims the next unclaimed index from a shared
/// atomic counter and stores `run(index)` into that index's slot, so a
/// worker finishing early immediately picks up remaining work. A task
/// that panics contributes `on_panic(index, payload)` instead. `workers
/// <= 1` (or a single task) runs inline on the caller's thread with
/// identical semantics.
///
/// # Panics
///
/// If `on_panic` itself panics, the panic propagates to the caller after
/// the pool drains.
pub fn run_indexed<T, F, P>(workers: usize, count: usize, run: F, on_panic: P) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    P: Fn(usize, &(dyn Any + Send)) -> T + Sync,
{
    let run_caught = |index: usize| {
        catch_unwind(AssertUnwindSafe(|| run(index)))
            .unwrap_or_else(|payload| on_panic(index, &*payload))
    };
    if workers <= 1 || count <= 1 {
        return (0..count).map(run_caught).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.min(count) {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let result = run_caught(index);
                *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("the scope joins only after every slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_indexed_preserves_index_order_for_any_worker_count() {
        for workers in [1, 2, 4, 9] {
            let out = run_indexed(workers, 20, |i| i * 3, |_, _| usize::MAX);
            assert_eq!(out, (0..20).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    /// One panicking task becomes one `on_panic` record, with its
    /// payload, while every sibling task still completes — on the same
    /// worker pool, with no poisoned-lock cascade.
    #[test]
    fn panicking_task_yields_error_record_and_siblings_complete() {
        for workers in [1, 4] {
            let out = run_indexed(
                workers,
                12,
                |i| {
                    if i == 5 {
                        panic!("job 5 exploded");
                    }
                    Ok(i)
                },
                |i, payload| {
                    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("?");
                    Err(format!("{i}: {msg}"))
                },
            );
            let expect: Vec<Result<usize, String>> = (0..12)
                .map(|i| {
                    if i == 5 {
                        Err("5: job 5 exploded".to_string())
                    } else {
                        Ok(i)
                    }
                })
                .collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn many_panics_do_not_exhaust_the_pool() {
        let ran = AtomicU64::new(0);
        let out = run_indexed(
            3,
            50,
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i % 2 == 0 {
                    panic!("even index");
                }
                1u64
            },
            |_, _| 0u64,
        );
        assert_eq!(ran.load(Ordering::Relaxed), 50, "every task was attempted");
        assert_eq!(out.iter().sum::<u64>(), 25);
    }

    #[test]
    fn zero_means_every_available_core() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }
}
