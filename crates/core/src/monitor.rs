//! Output waveforms and the deterministic settled view.
//!
//! A [`Waveform`] records every event arriving at one circuit output, in
//! arrival (= timestamp) order. With simultaneous events on different
//! ports of an upstream gate, the *intermediate* values at a timestamp may
//! legally differ between runs (paper §4.1: equal-timestamp events may be
//! processed in any order); the **last** value per timestamp is
//! deterministic. [`Waveform::settled`] extracts that deterministic view,
//! which the cross-engine differential tests compare.

use circuit::Logic;

use crate::event::{Event, Timestamp};

/// The sequence of events observed at one circuit output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Waveform {
    events: Vec<Event>,
}

impl Waveform {
    /// An empty waveform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observed event. Times must be nondecreasing.
    pub fn record(&mut self, event: Event) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.time <= event.time),
            "waveform times must be nondecreasing"
        );
        self.events.push(event);
    }

    /// All observed events, including same-timestamp glitches.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of observed events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The deterministic settled view: the last value at each distinct
    /// timestamp.
    pub fn settled(&self) -> Vec<(Timestamp, Logic)> {
        let mut out: Vec<(Timestamp, Logic)> = Vec::new();
        for e in &self.events {
            match out.last_mut() {
                Some((t, v)) if *t == e.time => *v = e.value,
                _ => out.push((e.time, e.value)),
            }
        }
        out
    }

    /// The final value (last event), if any event arrived.
    pub fn final_value(&self) -> Option<Logic> {
        self.events.last().map(|e| e.value)
    }

    /// Truncate to the first `len` events (used by the Galois engine's
    /// undo log to roll back observations).
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }

    /// The value as of time `t` (last event with `time <= t`).
    pub fn value_at(&self, t: Timestamp) -> Option<Logic> {
        match self.events.partition_point(|e| e.time <= t) {
            0 => None,
            k => Some(self.events[k - 1].value),
        }
    }
}

impl FromIterator<Event> for Waveform {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        let mut w = Waveform::new();
        for e in iter {
            w.record(e);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Timestamp, v: u64) -> Event {
        Event::new(t, Logic::from_bit(v))
    }

    #[test]
    fn settled_keeps_last_per_timestamp() {
        let w: Waveform = [ev(1, 0), ev(3, 1), ev(3, 0), ev(5, 1)].into_iter().collect();
        assert_eq!(
            w.settled(),
            vec![
                (1, Logic::Zero),
                (3, Logic::Zero),
                (5, Logic::One)
            ]
        );
    }

    #[test]
    fn final_value_and_emptiness() {
        let w = Waveform::new();
        assert!(w.is_empty());
        assert_eq!(w.final_value(), None);
        let w: Waveform = [ev(2, 1)].into_iter().collect();
        assert_eq!(w.final_value(), Some(Logic::One));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn value_at_interpolates() {
        let w: Waveform = [ev(10, 1), ev(20, 0)].into_iter().collect();
        assert_eq!(w.value_at(5), None);
        assert_eq!(w.value_at(10), Some(Logic::One));
        assert_eq!(w.value_at(15), Some(Logic::One));
        assert_eq!(w.value_at(20), Some(Logic::Zero));
        assert_eq!(w.value_at(100), Some(Logic::Zero));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nondecreasing")]
    fn decreasing_times_rejected_in_debug() {
        let mut w = Waveform::new();
        w.record(ev(5, 0));
        w.record(ev(4, 1));
    }
}
