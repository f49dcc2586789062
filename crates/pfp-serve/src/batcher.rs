//! Micro-batch accumulation with flush-on-idle: gather whatever is already
//! queued (up to `max_batch`), then wait at most `max_wait` for more.
//!
//! With the default `max_wait` of zero the batcher never idles on a timer:
//! it flushes as soon as the queue runs dry.  Batching is self-clocking —
//! while the dispatcher is busy scoring one batch, arrivals queue up, and the
//! next collect drains them as one batch — so a lone request is answered
//! at once and a backlog still forms full batches.  A positive `max_wait`
//! additionally holds a partial batch open for late arrivals.
//!
//! The batcher is deliberately a pure function over a [`Receiver`] so the
//! flush policy can be unit-tested without threads: the dispatcher loop in
//! [`crate::service`] is just `while let Some(batch) = collect_batch(..)`.

use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Collect the next micro-batch from `rx`.
///
/// Blocks until at least one item arrives — the batching timer only starts
/// once the batch is non-empty, so a timer flush can never race an empty
/// queue into a zero-item batch.  After the first item, drains everything
/// already queued without blocking, up to `max_batch`.  Only once the queue
/// is empty does it wait for more, until `max_wait` has elapsed since the
/// first item; a zero `max_wait` flushes as soon as the queue runs dry.
///
/// Returns `None` only when the channel is closed and fully drained (the
/// shutdown signal).  If the sender disconnects mid-collection, the items
/// already held are flushed as a final batch.  A `max_batch` of zero is
/// treated as one: the returned batch is never empty.
pub fn collect_batch<T>(rx: &Receiver<T>, max_batch: usize, max_wait: Duration) -> Option<Vec<T>> {
    let max_batch = max_batch.max(1);
    let first = rx.recv().ok()?;
    let mut batch = Vec::with_capacity(max_batch.min(1024));
    batch.push(first);
    let deadline = Instant::now() + max_wait;
    while batch.len() < max_batch {
        match rx.try_recv() {
            Ok(item) => batch.push(item),
            // Flush what we hold; the *next* call returns None.
            Err(TryRecvError::Disconnected) => break,
            // The queue ran dry: wait out what is left of `max_wait`.
            Err(TryRecvError::Empty) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                match rx.recv_timeout(remaining) {
                    Ok(item) => batch.push(item),
                    Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
                }
            }
        }
    }
    Some(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn fills_up_to_max_batch_from_a_ready_queue() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let batch = collect_batch(&rx, 4, Duration::from_millis(50)).unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        let batch = collect_batch(&rx, 4, Duration::from_millis(50)).unwrap();
        assert_eq!(batch, vec![4, 5, 6, 7]);
    }

    #[test]
    fn zero_max_wait_drains_a_ready_queue_into_full_batches() {
        let (tx, rx) = channel();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        let batch = collect_batch(&rx, 64, Duration::ZERO).unwrap();
        assert_eq!(batch, (0..64).collect::<Vec<_>>());
        let batch = collect_batch(&rx, 64, Duration::ZERO).unwrap();
        assert_eq!(batch, (64..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_max_wait_flushes_held_items_while_the_sender_idles() {
        let (tx, rx) = channel();
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        // `tx` stays connected but sends nothing more: the batcher must not
        // wait for it.  Collect on a helper thread so a regression fails the
        // test instead of hanging it.
        let (done_tx, done_rx) = channel();
        let collector =
            std::thread::spawn(move || done_tx.send(collect_batch(&rx, 64, Duration::ZERO)));
        let batch = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a zero max_wait must flush without blocking");
        assert_eq!(batch, Some(vec![0, 1, 2]));
        collector.join().unwrap().unwrap();
        drop(tx);
    }

    #[test]
    fn positive_max_wait_drains_the_queue_before_consulting_the_timer() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        // The deadline has passed before the first item is even returned,
        // yet everything already queued still joins the batch.
        let batch = collect_batch(&rx, 64, Duration::from_nanos(1)).unwrap();
        assert_eq!(batch, (0..10).collect::<Vec<_>>());
        drop(tx);
        assert_eq!(collect_batch(&rx, 64, Duration::from_nanos(1)), None);
    }

    #[test]
    fn flushes_a_partial_batch_on_timeout() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let batch = collect_batch(&rx, 64, Duration::from_millis(5)).unwrap();
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    fn closed_and_drained_channel_returns_none_never_an_empty_batch() {
        let (tx, rx) = channel();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(
            collect_batch(&rx, 8, Duration::from_millis(5)),
            Some(vec![7])
        );
        assert_eq!(
            collect_batch(&rx, 8, Duration::from_millis(5)),
            None::<Vec<i32>>
        );
    }

    #[test]
    fn disconnect_mid_collection_flushes_held_items() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        // max_batch larger than what's queued: the Disconnected arm flushes.
        let batch = collect_batch(&rx, 64, Duration::from_secs(5)).unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(collect_batch(&rx, 64, Duration::from_millis(1)), None);
    }

    #[test]
    fn sender_dropped_while_batching_blocks_flushes_exactly_once() {
        // The stronger mid-batch variant: the collector is already *blocked*
        // in `recv_timeout` (batch non-empty, far from full) when the sender
        // thread delivers one more item and hangs up.  The `Disconnected`
        // arm must flush the partial batch immediately — well before the
        // full `max_wait` elapses — and exactly once: the next call sees the
        // closed, drained channel and returns `None`.
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(2).unwrap();
            // `tx` dropped here, mid-collection.
        });
        let started = Instant::now();
        let batch = collect_batch(&rx, 64, Duration::from_secs(10)).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(batch, vec![1, 2]);
        assert!(
            elapsed < Duration::from_secs(5),
            "disconnect must flush early, not wait out max_wait (took {elapsed:?})"
        );
        assert_eq!(collect_batch(&rx, 64, Duration::from_millis(1)), None);
        sender.join().unwrap();
    }

    #[test]
    fn zero_max_batch_is_treated_as_one() {
        let (tx, rx) = channel();
        tx.send(42).unwrap();
        tx.send(43).unwrap();
        let batch = collect_batch(&rx, 0, Duration::from_millis(5)).unwrap();
        assert_eq!(batch, vec![42]);
    }

    #[test]
    fn blocks_for_the_first_item_without_spinning() {
        let (tx, rx) = channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(99).unwrap();
        });
        // max_wait is tiny, but the timer starts at the *first* item, so the
        // late arrival is still collected rather than flushed as empty.
        let batch = collect_batch(&rx, 8, Duration::from_micros(1)).unwrap();
        assert_eq!(batch, vec![99]);
        sender.join().unwrap();
    }
}
