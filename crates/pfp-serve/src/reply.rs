//! A one-value reply slot: the dispatcher answers each request through one,
//! the caller blocks on the other end.
//!
//! A per-request `std::sync::mpsc` channel would do the same job, but it is
//! built for streams: creating one allocates a multi-slot block (~3 KiB)
//! and every send wakes the receiver whether or not it is asleep.  A slot
//! is one `Arc` holding a mutex-guarded state and a condition variable, and
//! a send only notifies when the receiver is actually parked — std's futex
//! `Condvar` makes a wake syscall on every `notify_one`, even with no
//! waiter.
//!
//! The service sends each request's feature vector back through its slot
//! together with the answer.  The caller's thread allocated that vector, and
//! now frees it when it takes the answer; the dispatcher, the one thread
//! every request passes through, frees no request memory.  Only an answer
//! sent after its receiver was dropped (an abandoned request) is freed by
//! the sender, with the slot.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

enum State<T> {
    /// Nothing sent yet; the sender is still alive.
    Empty,
    Ready(T),
    /// The sender was dropped without sending.
    Closed,
}

struct Slot<T> {
    /// The state, and whether the receiver is parked on `ready`.
    inner: Mutex<(State<T>, bool)>,
    ready: Condvar,
}

impl<T> Slot<T> {
    /// No code panics while holding the lock, so a poisoned mutex still
    /// guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, (State<T>, bool)> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The answering end: [`send`](Self::send) once, or drop to close.
pub(crate) struct ReplySender<T> {
    /// `None` once sent, so `Drop` knows not to close the slot.
    slot: Option<Arc<Slot<T>>>,
}

/// The waiting end.
pub(crate) struct ReplyReceiver<T> {
    slot: Arc<Slot<T>>,
}

/// A fresh empty slot.
pub(crate) fn reply_slot<T>() -> (ReplySender<T>, ReplyReceiver<T>) {
    let slot = Arc::new(Slot {
        inner: Mutex::new((State::Empty, false)),
        ready: Condvar::new(),
    });
    (
        ReplySender {
            slot: Some(Arc::clone(&slot)),
        },
        ReplyReceiver { slot },
    )
}

impl<T> ReplySender<T> {
    /// Deliver the answer.  If the receiver is gone the value is simply
    /// dropped with the slot.
    pub(crate) fn send(mut self, value: T) {
        if let Some(slot) = self.slot.take() {
            fill(&slot, State::Ready(value));
        }
    }
}

impl<T> Drop for ReplySender<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            fill(&slot, State::Closed);
        }
    }
}

fn fill<T>(slot: &Slot<T>, state: State<T>) {
    let mut inner = slot.lock();
    inner.0 = state;
    if inner.1 {
        slot.ready.notify_one();
    }
}

impl<T> ReplyReceiver<T> {
    /// Block until the answer arrives; `None` if the sender was dropped
    /// without sending.
    pub(crate) fn wait(self) -> Option<T> {
        let mut inner = self.slot.lock();
        if matches!(inner.0, State::Empty) {
            inner.1 = true;
            inner = self
                .slot
                .ready
                .wait_while(inner, |(state, _)| matches!(state, State::Empty))
                .unwrap_or_else(PoisonError::into_inner);
        }
        match std::mem::replace(&mut inner.0, State::Closed) {
            State::Ready(value) => Some(value),
            State::Empty | State::Closed => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// Run `f` on its own thread and fail if it has not returned in 10 s,
    /// so a lost wakeup fails the test instead of hanging it.
    fn within_10s<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("reply slot hung")
    }

    #[test]
    fn answer_sent_before_wait_is_returned() {
        let (tx, rx) = reply_slot();
        tx.send(7u32);
        assert_eq!(rx.wait(), Some(7));
    }

    #[test]
    fn parked_receiver_is_woken_by_a_send_from_another_thread() {
        for round in 0..200u32 {
            let (tx, rx) = reply_slot();
            let waiter = thread::spawn(move || rx.wait());
            // Give the waiter time to park on some rounds, race it on others.
            if round % 2 == 0 {
                while !tx.slot.as_ref().unwrap().lock().1 {
                    thread::yield_now();
                }
            }
            tx.send(round);
            let got = within_10s(move || waiter.join().unwrap());
            assert_eq!(got, Some(round));
        }
    }

    #[test]
    fn sender_dropped_unsent_closes_the_slot() {
        let (tx, rx) = reply_slot::<u32>();
        let waiter = within_10s(move || {
            let waiter = thread::spawn(move || rx.wait());
            drop(tx);
            waiter.join().unwrap()
        });
        assert_eq!(waiter, None);

        let (tx, rx) = reply_slot::<u32>();
        drop(tx);
        assert_eq!(rx.wait(), None);
    }

    #[test]
    fn send_after_the_receiver_is_dropped_is_a_no_op() {
        let value = Arc::new(());
        let (tx, rx) = reply_slot();
        drop(rx);
        tx.send(Arc::clone(&value));
        assert_eq!(Arc::strong_count(&value), 1, "the unread answer is freed");
    }
}
