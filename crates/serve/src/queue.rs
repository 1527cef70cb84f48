//! The daemon's admission-control queue.
//!
//! [`BoundedQueue`] is a blocking MPMC queue with a hard capacity: pushes
//! beyond it are refused, never blocked, so the caller can shed load with
//! a typed `busy` response; and it has explicit close semantics for
//! graceful drain (a closed queue refuses new work while pops keep
//! draining what was admitted).
//!
//! Its lock, like every daemon lock, recovers from poisoning
//! ([`lock_recovering`]): the protected data is a plain `VecDeque` whose
//! invariants hold at every point a panic can unwind through, so a panic
//! while the lock was held must degrade to "use the data as-is", not
//! abort every sibling worker.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning. Safe whenever the protected
/// data is valid at every point a panic can unwind through (true for the
/// queue and the response sequencer).
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a [`BoundedQueue::try_push`] was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity — shed load (typed "busy" response).
    Full,
    /// The queue was closed for admission (drain in progress).
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking MPMC queue with close-for-drain semantics.
///
/// Producers use [`BoundedQueue::try_push`], which never blocks: beyond
/// `capacity` (or after [`BoundedQueue::close`]) the item comes straight
/// back with a typed reason. Consumers use [`BoundedQueue::pop`], which
/// blocks until an item arrives or the queue is closed *and* empty —
/// admitted work always drains before workers see the shutdown.
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    readable: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` queued items (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `item`, or returns it with the refusal reason. Never
    /// blocks.
    pub(crate) fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut state = lock_recovering(&self.inner);
        if state.closed {
            return Err((item, PushError::Closed));
        }
        if state.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        state.items.push_back(item);
        drop(state);
        self.readable.notify_one();
        Ok(())
    }

    /// Blocks for the next admitted item; `None` once the queue is
    /// closed and fully drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = lock_recovering(&self.inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .readable
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes admission: later pushes are refused with
    /// [`PushError::Closed`], pops drain the remainder then return
    /// `None`, and all blocked consumers wake.
    pub(crate) fn close(&self) {
        lock_recovering(&self.inner).closed = true;
        self.readable.notify_all();
    }

    /// Items currently queued (admitted, not yet popped).
    pub(crate) fn len(&self) -> usize {
        lock_recovering(&self.inner).items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Directly poisons a slot-style mutex (panic while holding the
    /// guard) and asserts recovery sees the data instead of panicking —
    /// the exact failure mode of the old `.lock().unwrap()` sites.
    #[test]
    fn poisoned_slot_lock_recovers_to_inner_data() {
        let slot: Arc<Mutex<Option<u32>>> = Arc::new(Mutex::new(Some(7)));
        let poisoner = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("die while holding the slot lock");
        })
        .join();
        assert!(slot.lock().is_err(), "the lock must actually be poisoned");
        assert_eq!(*lock_recovering(&slot), Some(7));
        *lock_recovering(&slot) = Some(9);
        assert_eq!(
            Arc::try_unwrap(slot)
                .unwrap()
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
            Some(9)
        );
    }

    #[test]
    fn bounded_queue_sheds_load_beyond_capacity() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let (item, reason) = q.try_push(3).unwrap_err();
        assert_eq!((item, reason), (3, PushError::Full));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "capacity frees as items pop");
    }

    #[test]
    fn closed_queue_refuses_new_work_but_drains_admitted_work() {
        let q = BoundedQueue::new(4);
        q.try_push("in-flight").unwrap();
        q.close();
        let (_, reason) = q.try_push("late").unwrap_err();
        assert_eq!(reason, PushError::Closed);
        assert_eq!(q.pop(), Some("in-flight"), "admitted work still drains");
        assert_eq!(q.pop(), None, "then consumers see the shutdown");
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u8>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn queue_survives_concurrent_producers_and_consumers() {
        let q = BoundedQueue::new(8);
        let popped = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while q.pop().is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                let mut pushed = 0u64;
                while pushed < 100 {
                    if q.try_push(pushed).is_ok() {
                        pushed += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                q.close();
            });
        });
        assert_eq!(popped.load(Ordering::Relaxed), 100);
    }
}
