//! Marked events and validated event sequences.

use serde::{Deserialize, Serialize};

/// A single marked event: something of type `mark` happened at `time`.
///
/// In the patient-flow application the mark is either a destination care unit
/// (`0..C`) or a duration category (`0..D`), depending on which of the two
/// decoupled counting processes is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Event time in days since the start of the observation window.
    pub time: f64,
    /// Categorical mark.
    pub mark: usize,
}

impl Event {
    /// Convenience constructor.
    pub fn new(time: f64, mark: usize) -> Self {
        Self { time, mark }
    }
}

/// A time-ordered sequence of marked events observed on `(0, horizon]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSequence {
    events: Vec<Event>,
    horizon: f64,
    num_marks: usize,
}

impl EventSequence {
    /// Create a sequence, validating ordering and mark ranges.
    ///
    /// # Panics
    /// Panics if events are not sorted by time, a time is not finite and
    /// positive, a time exceeds the horizon, or a mark is `>= num_marks`.
    pub fn new(events: Vec<Event>, horizon: f64, num_marks: usize) -> Self {
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "horizon must be positive and finite"
        );
        let mut prev = 0.0;
        for e in &events {
            assert!(
                e.time.is_finite() && e.time > 0.0,
                "event times must be positive, got {}",
                e.time
            );
            assert!(e.time >= prev, "events must be sorted by time");
            assert!(
                e.time <= horizon,
                "event time {} exceeds horizon {horizon}",
                e.time
            );
            assert!(
                e.mark < num_marks,
                "mark {} out of range {num_marks}",
                e.mark
            );
            prev = e.time;
        }
        Self {
            events,
            horizon,
            num_marks,
        }
    }

    /// Empty sequence over `(0, horizon]`.
    pub fn empty(horizon: f64, num_marks: usize) -> Self {
        Self::new(Vec::new(), horizon, num_marks)
    }

    /// Events in chronological order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Observation horizon `T`.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Number of distinct marks the sequence may contain.
    pub fn num_marks(&self) -> usize {
        self.num_marks
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events strictly before `t` (the history `H_t` of the paper).
    pub fn history_before(&self, t: f64) -> &[Event] {
        let cut = self.events.partition_point(|e| e.time < t);
        &self.events[..cut]
    }

    /// Inter-event waiting times (first one measured from 0).
    pub fn inter_event_times(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.events
            .iter()
            .map(|e| {
                let dt = e.time - prev;
                prev = e.time;
                dt
            })
            .collect()
    }

    /// Per-mark event counts.
    pub fn mark_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_marks];
        for e in &self.events {
            counts[e.mark] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> EventSequence {
        EventSequence::new(
            vec![Event::new(1.0, 0), Event::new(2.5, 1), Event::new(4.0, 0)],
            10.0,
            2,
        )
    }

    #[test]
    fn new_accepts_sorted_events() {
        let s = seq();
        assert_eq!(s.len(), 3);
        assert_eq!(s.horizon(), 10.0);
        assert_eq!(s.num_marks(), 2);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn new_rejects_unsorted_events() {
        let _ = EventSequence::new(vec![Event::new(2.0, 0), Event::new(1.0, 0)], 10.0, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds horizon")]
    fn new_rejects_events_beyond_horizon() {
        let _ = EventSequence::new(vec![Event::new(11.0, 0)], 10.0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_invalid_mark() {
        let _ = EventSequence::new(vec![Event::new(1.0, 3)], 10.0, 2);
    }

    #[test]
    fn history_before_excludes_simultaneous_event() {
        let s = seq();
        assert_eq!(s.history_before(2.5).len(), 1);
        assert_eq!(s.history_before(2.6).len(), 2);
        assert_eq!(s.history_before(0.5).len(), 0);
    }

    #[test]
    fn inter_event_times_sum_to_last_event_time() {
        let s = seq();
        let gaps = s.inter_event_times();
        assert_eq!(gaps.len(), 3);
        assert!((gaps.iter().sum::<f64>() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mark_counts_match_events() {
        assert_eq!(seq().mark_counts(), vec![2, 1]);
    }

    #[test]
    fn empty_sequence_behaves() {
        let s = EventSequence::empty(5.0, 3);
        assert!(s.is_empty());
        assert_eq!(s.mark_counts(), vec![0, 0, 0]);
    }
}
