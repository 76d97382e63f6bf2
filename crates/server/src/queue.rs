//! The bounded admission queue between connection handlers and executors.
//!
//! Admission control beyond the engine's try-lock: handlers
//! [`try_push`](AdmissionQueue::try_push) (never block, never grow the queue
//! past its capacity — a full queue sheds the request immediately),
//! executors [`pop`](AdmissionQueue::pop) one job at a time, blocking while
//! the queue is empty and open.  [`close`](AdmissionQueue::close) wakes
//! every waiting executor; pops after close still hand out the remaining
//! admitted work, and return `None` once the queue is both closed and
//! empty.  The server closes the queue only after every handler has
//! exited, so no push ever meets a closed queue.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Outcome of a non-blocking push.
#[derive(Debug)]
pub enum Push<T> {
    /// Admitted; `depth` is the queue depth including this item.
    Queued {
        /// Queue depth right after the push.
        depth: usize,
    },
    /// The queue is at capacity — the item comes back to be shed.
    Full(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue with shed-on-full
/// semantics.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` items at a time.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking admission: queues the item, or returns it for shedding
    /// when the queue is full.
    pub fn try_push(&self, item: T) -> Push<T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.items.len() >= self.capacity {
            return Push::Full(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.ready.notify_one();
        Push::Queued { depth }
    }

    /// Takes the oldest item, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed **and** empty — the
    /// executor's signal to exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: waiting executors wake, and remaining items are
    /// still handed out.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Current depth (snapshot).
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn sheds_when_full() {
        let q = AdmissionQueue::new(2);
        assert!(matches!(q.try_push(1), Push::Queued { depth: 1 }));
        assert!(matches!(q.try_push(2), Push::Queued { depth: 2 }));
        match q.try_push(3) {
            Push::Full(v) => assert_eq!(v, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn pop_hands_out_jobs_in_admission_order() {
        let q = AdmissionQueue::new(8);
        for i in 0..3 {
            assert!(matches!(q.try_push(i), Push::Queued { .. }));
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_still_hands_out_the_remaining_jobs_then_none() {
        let q = AdmissionQueue::new(8);
        assert!(matches!(q.try_push(7), Push::Queued { .. }));
        assert!(matches!(q.try_push(8), Push::Queued { .. }));
        q.close();
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(8));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_push_and_on_close() {
        let q = Arc::new(AdmissionQueue::new(4));

        // Wakes on push.
        let qa = Arc::clone(&q);
        let h = thread::spawn(move || qa.pop());
        thread::sleep(Duration::from_millis(20));
        assert!(matches!(q.try_push(42), Push::Queued { .. }));
        assert_eq!(h.join().expect("pop thread"), Some(42));

        // Wakes on close.
        let qa = Arc::clone(&q);
        let h = thread::spawn(move || qa.pop());
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().expect("pop thread"), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(matches!(q.try_push(1), Push::Queued { depth: 1 }));
        assert!(matches!(q.try_push(2), Push::Full(2)));
    }
}
