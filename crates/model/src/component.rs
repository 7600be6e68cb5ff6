//! The user-facing model vocabulary: payloads, components, and the
//! handler context.

use std::collections::BinaryHeap;

use des::{Timestamp, NULL_TS};

use crate::rng::DetRng;
use crate::runtime::{LinkOut, OutMsg, Pending, SELF_SRC};

/// An opaque event payload exchanged between components.
///
/// `encode` must write a stable byte representation: it feeds the
/// deterministic observables checksum that the engine-equivalence
/// machinery compares bit for bit, so it must depend only on the
/// payload's value (never on addresses, hashes with random state, or
/// iteration order of unordered containers).
pub trait Payload: Clone + Send + 'static {
    /// Append this payload's canonical byte encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

impl Payload for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
}

impl Payload for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Payload for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Payload for (u64, u64) {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
        out.extend_from_slice(&self.1.to_le_bytes());
    }
}

/// Where an event handled by [`Component::on_event`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSource {
    /// Delivered over an inbound link; the index counts the links
    /// *into* this component in [`crate::ModelGraph::link`] call order.
    Port(usize),
    /// Scheduled by this component on itself via
    /// [`Ctx::schedule_self`].
    SelfTimer,
}

/// A user-defined simulation entity (one logical process).
///
/// Handlers run with exclusive access to the component's state, a
/// private deterministic RNG, and a [`Ctx`] for emitting future events.
/// A handler must not touch shared mutable state — determinism across
/// engines relies on a component's trajectory being a pure function of
/// its event sequence and RNG stream.
pub trait Component<P: Payload>: Send {
    /// Called once at time 0, before any event, to seed initial
    /// activity (`ctx.now() == 0`).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, P>) {}

    /// Handle one event arriving at `ctx.now()`.
    fn on_event(&mut self, source: EventSource, payload: P, ctx: &mut Ctx<'_, P>);

    /// Deterministic end-of-run summary, appended as (key, value)
    /// pairs; these are part of the bit-identical observables.
    fn observables(&self, _out: &mut Vec<(String, u64)>) {}
}

/// The handler context: simulation time, the component's RNG, and the
/// two emission primitives.
///
/// A send leaves at once, numbered by the component's emission counter;
/// the receiver orders what it gets by `(time, port, emission)` (see the
/// crate docs' determinism contract), so handlers are free to emit with
/// non-monotone delays.
pub struct Ctx<'a, P: Payload> {
    pub(crate) now: Timestamp,
    pub(crate) horizon: Timestamp,
    pub(crate) rng: &'a mut DetRng,
    /// The component's out links.
    pub(crate) links: &'a mut [LinkOut],
    /// The component's pending heap, where self-schedules land.
    pub(crate) pending: &'a mut BinaryHeap<Pending<P>>,
    /// The running activation's messages, where sends land.
    pub(crate) out: &'a mut Vec<OutMsg<P>>,
    /// The core's emission counter, bumped by every send and
    /// self-schedule.
    pub(crate) seq: &'a mut u64,
    /// Emissions at or past the horizon, dropped and counted.
    pub(crate) dropped: &'a mut u64,
}

impl<P: Payload> Ctx<'_, P> {
    /// Current simulation time (the handled event's timestamp; 0 in
    /// [`Component::on_start`]).
    #[inline]
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The run's horizon: emissions at or past it are dropped (and
    /// counted in [`crate::ModelStats::dropped_at_horizon`]).
    #[inline]
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// This component's private deterministic random stream.
    #[inline]
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Number of outbound links this component declared.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The lookahead of outbound link `link`.
    #[inline]
    pub fn lookahead(&self, link: usize) -> u64 {
        self.links[link].lookahead
    }

    /// Emit `payload` over outbound link `link` (in
    /// [`crate::ModelGraph::link`] call order for this component),
    /// arriving `delay` ticks from now.
    ///
    /// # Panics
    /// If `delay` is below the link's declared lookahead — the contract
    /// that makes conservative parallel execution possible.
    #[inline]
    pub fn send(&mut self, link: usize, delay: u64, payload: P) {
        let l = &mut self.links[link];
        assert!(
            delay >= l.lookahead,
            "send on link {link} with delay {delay} below its lookahead {}",
            l.lookahead
        );
        let ts = self.now.saturating_add(delay);
        if ts >= self.horizon || ts == NULL_TS {
            *self.dropped += 1;
            return;
        }
        debug_assert!(
            !l.is_closed(),
            "send on link {link} after its terminal NULL"
        );
        *self.seq += 1;
        l.last = self.out.len();
        self.out.push(OutMsg::Event {
            dst: l.dst,
            port: l.dst_port,
            ts,
            seq: *self.seq,
            then: 0,
            payload,
        });
    }

    /// Schedule an event on this component itself, `delay >= 1` ticks
    /// from now. Self-events wait in the component's own heap, not on a
    /// link, so no lookahead applies — but zero delays are rejected to
    /// keep every timeline finitely terminating.
    #[inline]
    pub fn schedule_self(&mut self, delay: u64, payload: P) {
        assert!(delay >= 1, "self-schedule delay must be >= 1");
        let at = self.now.saturating_add(delay);
        if at >= self.horizon || at == NULL_TS {
            *self.dropped += 1;
            return;
        }
        *self.seq += 1;
        self.pending.push(Pending {
            ts: at,
            src: SELF_SRC,
            seq: *self.seq,
            payload,
        });
    }
}
