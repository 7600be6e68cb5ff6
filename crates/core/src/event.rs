//! Events and timestamps (paper §1, §4.1).
//!
//! Every electric signal is an event carrying a timestamp and a logic
//! value; NULL messages (Chandy–Misra termination) are modelled as the
//! reserved timestamp [`NULL_TS`] and never enter event queues — they only
//! advance the receiving port's "last received" clock to infinity.

use circuit::Logic;

// Canonical definitions live in `circuit::time` (shared with `sim-shard`
// and `sim-net`, whose messages carry the same clocks across threads and
// sockets); re-exported here to keep the historical `des::event` paths.
pub use circuit::{Timestamp, NULL_TS};

/// A signal event: the value arrives (and is to be processed) at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    pub time: Timestamp,
    pub value: Logic,
}

impl Event {
    /// Construct an event; `time` must not be the NULL sentinel.
    #[inline]
    pub fn new(time: Timestamp, value: Logic) -> Self {
        debug_assert!(time != NULL_TS, "NULL_TS is reserved for NULL messages");
        Event { time, value }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.value, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ordering_is_time_major() {
        let a = Event::new(1, Logic::One);
        let b = Event::new(2, Logic::Zero);
        assert!(a < b);
    }

    #[test]
    fn display_format() {
        assert_eq!(Event::new(7, Logic::One).to_string(), "1@7");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reserved")]
    fn null_ts_rejected_in_debug() {
        let _ = Event::new(NULL_TS, Logic::Zero);
    }
}
