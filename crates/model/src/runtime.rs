//! The per-component conservative runtime: one [`CompCore`] wraps a
//! user [`Component`] with its input-port queues, self-event heap,
//! per-link staging buffers and promise clocks.
//!
//! The three determinism rules from the crate docs live here:
//!
//! * **Strict safety** — [`CompCore::activate`] handles an event only
//!   when its timestamp is strictly below the local clock (the minimum
//!   over input-port clocks, [`des::node::local_clock`]). The circuit
//!   engines use the non-strict bound, which is safe for them because a
//!   gate's output is a function of latched values, not of how a
//!   timestamp cohort was split across activations; an opaque component
//!   sees event *batches*, so the cohort boundary must be
//!   message-timing-independent. Strictness buys exactly that: every
//!   event below the clock is present (FIFO links deliver in
//!   nondecreasing order, so nothing below the clock is still in
//!   flight), and nothing at the clock is handled until the clock moves
//!   past it.
//! * **Sender-side staging** — `ctx.send` emissions park in a per-link
//!   binary heap ordered by (timestamp, emission index). After the
//!   activation's handler batch, the flush step releases exactly the
//!   staged events at or below `clock + lookahead`: any *future*
//!   emission on the link happens in a handler at time ≥ clock and so
//!   lands at ≥ clock + lookahead, meaning the released prefix can no
//!   longer be undercut — per-link nondecreasing order is restored even
//!   though handlers emit with non-monotone delays.
//! * **Promises** — after flushing, the link's receive clock is
//!   advanced to `clock + lookahead` (a NULL promise, sent only when it
//!   grew). A flush that released an event on the link hangs the
//!   promise on its last event (`then`) instead of sending a message of
//!   its own; the receiver queues the event, then advances the port
//!   clock, exactly as if the promise had followed. Once the promise
//!   reaches the horizon — or the local clock is exhausted
//!   ([`NULL_TS`]) — the link gets its terminal NULL and closes.
//!
//! A core owns no event memory of its own: the events queued on its
//! ports and its self-events live in the [`Workspace`] of the executor
//! thread that runs it, one slab per thread however many components
//! the thread holds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use des::node::{local_clock, PortQueue};
use des::{Event, EventArena, EventRef, Timestamp, NULL_TS};

use crate::component::{Component, Ctx, EventSource, Payload};
use crate::rng::DetRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One outbound link, resolved to its destination port.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutLink {
    pub(crate) dst: usize,
    pub(crate) dst_port: usize,
    pub(crate) lookahead: u64,
}

/// What an activation emits for the engine to route.
pub(crate) enum OutMsg<P> {
    /// A payload event for `dst`'s input port `port`. A nonzero `then` is
    /// a promise riding on the event: once the event is queued, the
    /// port's clock advances to `then`. Zero means none (every promise
    /// is `clock + lookahead >= 1`).
    Event {
        dst: usize,
        port: usize,
        ev: Event<P>,
        then: Timestamp,
    },
    /// A lookahead NULL promise: no event earlier than `ts` will follow
    /// on this link.
    Promise {
        dst: usize,
        port: usize,
        ts: Timestamp,
    },
    /// The terminal NULL: the link is closed.
    Null { dst: usize, port: usize },
}

impl<P> OutMsg<P> {
    /// The component this message is for.
    pub(crate) fn dst(&self) -> usize {
        match self {
            OutMsg::Event { dst, .. } | OutMsg::Promise { dst, .. } | OutMsg::Null { dst, .. } => {
                *dst
            }
        }
    }
}

/// A staged (not yet released) emission on one outbound link.
struct Staged<P> {
    ts: Timestamp,
    seq: u64,
    payload: P,
}

/// A pending self-scheduled event. The payload lives in the executor
/// thread's arena (as `Event { time: at, value }`); the heap orders
/// lightweight handles only.
struct SelfEv {
    at: Timestamp,
    seq: u64,
    ev: EventRef,
}

// BinaryHeap is a max-heap; both orderings are *reversed* so the heap
// pops the smallest (time, insertion) pair first. `seq` is unique, so
// total order needs no payload comparison.
impl<P> PartialEq for Staged<P> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<P> Eq for Staged<P> {}
impl<P> PartialOrd for Staged<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Staged<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.ts, other.seq).cmp(&(self.ts, self.seq))
    }
}

impl PartialEq for SelfEv {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for SelfEv {}
impl PartialOrd for SelfEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SelfEv {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The memory one executor thread lends every core it runs: the slab
/// holding every event queued on those cores (port events and
/// self-events alike; the queues hold handles into it) and the handler
/// scratch buffers.
pub(crate) struct Workspace<P> {
    pub(crate) arena: EventArena<P>,
    sent: Vec<(usize, Timestamp, P)>,
    selfs: Vec<(Timestamp, P)>,
    enc: Vec<u8>,
}

impl<P> Workspace<P> {
    pub(crate) fn new() -> Self {
        Workspace {
            arena: EventArena::new(),
            sent: Vec::new(),
            selfs: Vec::new(),
            enc: Vec::new(),
        }
    }
}

/// A component lowered onto the conservative machinery.
pub(crate) struct CompCore<P: Payload> {
    pub(crate) id: usize,
    comp: Box<dyn Component<P>>,
    rng: DetRng,
    horizon: Timestamp,
    /// One generic FIFO-plus-clock queue per inbound link.
    ports: Vec<PortQueue<P>>,
    out: Vec<OutLink>,
    lookaheads: Vec<u64>,
    /// Per-out-link staging heap of unreleased emissions.
    staged: Vec<BinaryHeap<Staged<P>>>,
    staged_seq: u64,
    /// Pending self-events (own heap: they are not on any FIFO link, so
    /// non-monotone self-schedules need no staging detour).
    self_heap: BinaryHeap<SelfEv>,
    self_seq: u64,
    /// Last promise sent per out link; [`NULL_TS`] once its terminal
    /// NULL went out.
    promised: Vec<Timestamp>,
    started: bool,
    done: bool,
    /// Events handled by this component.
    pub(crate) delivered: u64,
    /// Emissions dropped at the horizon.
    pub(crate) dropped: u64,
    /// FNV-1a over the handled event stream (ts, source, payload).
    pub(crate) checksum: u64,
}

impl<P: Payload> CompCore<P> {
    /// Lower component `id`: derive its RNG stream from the graph seed
    /// and wire its outbound links, `out[i]` being out link `i`.
    pub(crate) fn new(
        id: usize,
        comp: Box<dyn Component<P>>,
        seed: u64,
        horizon: Timestamp,
        in_count: usize,
        out: Vec<OutLink>,
    ) -> Self {
        let lookaheads: Vec<u64> = out.iter().map(|l| l.lookahead).collect();
        let n_out = out.len();
        CompCore {
            id,
            comp,
            rng: DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)),
            horizon,
            ports: (0..in_count).map(|_| PortQueue::new()).collect(),
            out,
            lookaheads,
            staged: (0..n_out).map(|_| BinaryHeap::new()).collect(),
            staged_seq: 0,
            self_heap: BinaryHeap::new(),
            self_seq: 0,
            promised: vec![0; n_out],
            started: false,
            done: false,
            delivered: 0,
            dropped: 0,
            checksum: FNV_OFFSET,
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Deliver one routed message to the input port it names.
    #[inline]
    pub(crate) fn deliver(&mut self, ws: &mut Workspace<P>, msg: OutMsg<P>) {
        match msg {
            OutMsg::Event { port, ev, then, .. } => {
                self.ports[port].push(&mut ws.arena, ev);
                if then != 0 {
                    self.ports[port].advance_clock(then);
                }
            }
            OutMsg::Promise { port, ts, .. } => self.ports[port].advance_clock(ts),
            OutMsg::Null { port, .. } => self.ports[port].push_null(),
        }
    }

    /// Run one activation: handle every safe event (strictly below the
    /// local clock, ports merged with self-events in timestamp order,
    /// port events winning ties), then flush staged emissions and
    /// promises into `out`. Returns the number of events handled.
    pub(crate) fn activate(&mut self, ws: &mut Workspace<P>, out: &mut Vec<OutMsg<P>>) -> u64 {
        if self.done {
            return 0;
        }
        if !self.started {
            self.started = true;
            self.run_start(ws);
        }
        let clock = local_clock(&self.ports);
        let mut handled = 0u64;
        loop {
            // Safe port event: smallest head strictly below the clock,
            // lowest port on ties (deterministic merge).
            let mut port_pick: Option<(usize, Timestamp)> = None;
            for (i, p) in self.ports.iter().enumerate() {
                let h = p.head_ts();
                if h != NULL_TS
                    && (clock == NULL_TS || h < clock)
                    && port_pick.is_none_or(|(_, bh)| h < bh)
                {
                    port_pick = Some((i, h));
                }
            }
            // Safe self event under the same strict bound. A fresh
            // self-event created by a handler in this very loop joins
            // immediately: deferring it to the next activation would
            // make the handling order depend on where activation
            // boundaries fell, which differs across engines.
            let self_pick: Option<Timestamp> = self
                .self_heap
                .peek()
                .and_then(|s| (clock == NULL_TS || s.at < clock).then_some(s.at));
            // Port wins ties: the port side orders a timestamp cohort
            // (port index, then FIFO), and self-events slot in after it.
            let take_self = match (port_pick, self_pick) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some((_, h)), Some(at)) => at < h,
            };
            if take_self {
                let s = self.self_heap.pop().expect("peeked");
                let ev = ws.arena.take(s.ev);
                self.handle(ws, EventSource::SelfTimer, s.at, ev.value);
            } else {
                let (i, h) = port_pick.expect("picked");
                let ev = self.ports[i].pop_ready(&mut ws.arena, h).expect("peeked");
                self.handle(ws, EventSource::Port(i), ev.time, ev.value);
            }
            handled += 1;
        }
        self.flush(clock, out);
        if clock == NULL_TS {
            debug_assert!(self.self_heap.is_empty(), "self-events past exhaustion");
            self.done = true;
        }
        handled
    }

    /// End-of-run observables, prefixed with nothing — the engine adds
    /// the component name.
    pub(crate) fn observables(&self, out: &mut Vec<(String, u64)>) {
        self.comp.observables(out);
    }

    fn run_start(&mut self, ws: &mut Workspace<P>) {
        self.call(ws, 0, |comp, ctx| comp.on_start(ctx));
    }

    fn handle(&mut self, ws: &mut Workspace<P>, source: EventSource, ts: Timestamp, payload: P) {
        self.fold_checksum(&mut ws.enc, source, ts, &payload);
        self.call(ws, ts, |comp, ctx| comp.on_event(source, payload, ctx));
        self.delivered += 1;
    }

    /// Run one handler at `now`, then stage its sends and queue its
    /// self-events.
    fn call(
        &mut self,
        ws: &mut Workspace<P>,
        now: Timestamp,
        f: impl FnOnce(&mut dyn Component<P>, &mut Ctx<'_, P>),
    ) {
        let mut dropped = 0u64;
        {
            let mut ctx = Ctx {
                now,
                horizon: self.horizon,
                rng: &mut self.rng,
                lookaheads: &self.lookaheads,
                sent: &mut ws.sent,
                self_sched: &mut ws.selfs,
                dropped: &mut dropped,
            };
            f(&mut *self.comp, &mut ctx);
        }
        self.dropped += dropped;
        for (link, ts, payload) in ws.sent.drain(..) {
            self.staged_seq += 1;
            self.staged[link].push(Staged {
                ts,
                seq: self.staged_seq,
                payload,
            });
        }
        for (at, payload) in ws.selfs.drain(..) {
            self.self_seq += 1;
            let ev = ws.arena.alloc(Event::new(at, payload));
            self.self_heap.push(SelfEv {
                at,
                seq: self.self_seq,
                ev,
            });
        }
    }

    /// Release staged emissions proven final and advance promises.
    fn flush(&mut self, clock: Timestamp, out: &mut Vec<OutMsg<P>>) {
        for ix in 0..self.out.len() {
            let OutLink {
                dst,
                dst_port: port,
                lookahead,
            } = self.out[ix];
            if self.promised[ix] == NULL_TS {
                debug_assert!(self.staged[ix].is_empty(), "emission after terminal NULL");
                continue;
            }
            let limit = if clock == NULL_TS {
                NULL_TS
            } else {
                clock.saturating_add(lookahead)
            };
            let mut released = false;
            loop {
                let ready = match self.staged[ix].peek() {
                    Some(top) => limit == NULL_TS || top.ts <= limit,
                    None => false,
                };
                if !ready {
                    break;
                }
                let s = self.staged[ix].pop().expect("peeked");
                out.push(OutMsg::Event {
                    dst,
                    port,
                    ev: Event::new(s.ts, s.payload),
                    then: 0,
                });
                released = true;
            }
            if limit == NULL_TS || limit >= self.horizon {
                out.push(OutMsg::Null { dst, port });
                self.promised[ix] = NULL_TS;
            } else if limit > self.promised[ix] {
                match out.last_mut() {
                    // The last message out is this link's last event:
                    // the promise rides on it.
                    Some(OutMsg::Event { then, .. }) if released => *then = limit,
                    _ => out.push(OutMsg::Promise {
                        dst,
                        port,
                        ts: limit,
                    }),
                }
                self.promised[ix] = limit;
            }
        }
    }

    fn fold_checksum(
        &mut self,
        enc: &mut Vec<u8>,
        source: EventSource,
        ts: Timestamp,
        payload: &P,
    ) {
        enc.clear();
        enc.extend_from_slice(&ts.to_le_bytes());
        match source {
            EventSource::Port(p) => {
                enc.push(0);
                enc.extend_from_slice(&(p as u64).to_le_bytes());
            }
            EventSource::SelfTimer => enc.push(1),
        }
        payload.encode(enc);
        let mut h = self.checksum;
        for &b in enc.iter() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.checksum = h;
    }
}

/// Fold per-component checksums (in component-id order) into one run
/// checksum.
pub(crate) fn fold_run_checksum(comp_checksums: impl Iterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for c in comp_checksums {
        for &b in &c.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        got: Vec<(Timestamp, u64)>,
    }
    impl Component<u64> for Echo {
        fn on_event(&mut self, _s: EventSource, p: u64, ctx: &mut Ctx<'_, u64>) {
            self.got.push((ctx.now(), p));
        }
    }

    fn core(in_count: usize) -> CompCore<u64> {
        CompCore::new(
            0,
            Box::new(Echo { got: Vec::new() }),
            7,
            100,
            in_count,
            Vec::new(),
        )
    }

    fn event(port: usize, ts: Timestamp, v: u64) -> OutMsg<u64> {
        OutMsg::Event {
            dst: 0,
            port,
            ev: Event::new(ts, v),
            then: 0,
        }
    }

    fn promise(port: usize, ts: Timestamp) -> OutMsg<u64> {
        OutMsg::Promise { dst: 0, port, ts }
    }

    fn null(port: usize) -> OutMsg<u64> {
        OutMsg::Null { dst: 0, port }
    }

    #[test]
    fn strict_safety_holds_events_at_the_clock() {
        let mut ws = Workspace::new();
        let mut c = core(1);
        let mut out = Vec::new();
        c.deliver(&mut ws, event(0, 5, 1));
        // Clock is 5: the event at 5 is NOT yet safe.
        assert_eq!(c.activate(&mut ws, &mut out), 0);
        // A promise of 6 moves the clock past it.
        c.deliver(&mut ws, promise(0, 6));
        assert_eq!(c.activate(&mut ws, &mut out), 1);
        assert_eq!(c.delivered, 1);
        assert_eq!(ws.arena.live(), 0);
    }

    #[test]
    fn exhausted_ports_drain_everything_and_finish() {
        let mut ws = Workspace::new();
        let mut c = core(2);
        let mut out = Vec::new();
        c.deliver(&mut ws, event(0, 9, 1));
        c.deliver(&mut ws, null(0));
        assert_eq!(c.activate(&mut ws, &mut out), 0); // port 1 clock still 0
        c.deliver(&mut ws, null(1));
        assert_eq!(c.activate(&mut ws, &mut out), 1);
        assert!(c.is_done());
        assert_eq!(ws.arena.live(), 0);
    }

    #[test]
    fn checksum_tracks_event_stream() {
        let run = |promise_first: bool| {
            let mut ws = Workspace::new();
            let mut c = core(1);
            let mut out = Vec::new();
            if promise_first {
                c.deliver(&mut ws, promise(0, 3));
                c.activate(&mut ws, &mut out);
            }
            c.deliver(&mut ws, event(0, 4, 7));
            c.deliver(&mut ws, null(0));
            c.activate(&mut ws, &mut out);
            c.checksum
        };
        // Activation boundaries don't change the checksum…
        assert_eq!(run(false), run(true));
        // …but a different event stream does.
        let mut ws = Workspace::new();
        let mut c = core(1);
        let mut out = Vec::new();
        c.deliver(&mut ws, event(0, 4, 8));
        c.deliver(&mut ws, null(0));
        c.activate(&mut ws, &mut out);
        assert_ne!(c.checksum, run(false));
    }

    /// Sends one event per listed delay on out link 0 at start-up.
    struct Burst(Vec<u64>);
    impl Component<u64> for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for &d in &self.0 {
                ctx.send(0, d, d);
            }
        }
        fn on_event(&mut self, _s: EventSource, _p: u64, _ctx: &mut Ctx<'_, u64>) {}
    }

    #[test]
    fn the_promise_rides_on_the_last_released_event() {
        let mut ws = Workspace::new();
        let link = OutLink {
            dst: 0,
            dst_port: 0,
            lookahead: 5,
        };
        let mut sender = CompCore::new(1, Box::new(Burst(vec![7, 5])), 7, 100, 1, vec![link]);
        let mut receiver = core(1);
        let mut out = Vec::new();
        // Clock 10, so the flush releases everything up to 15: both
        // staged events, in timestamp order, and the promise grows 0 → 15.
        sender.deliver(&mut ws, promise(0, 10));
        sender.activate(&mut ws, &mut out);
        let sent: Vec<(Timestamp, Timestamp)> = out
            .iter()
            .map(|m| match m {
                OutMsg::Event { ev, then, .. } => (ev.time, *then),
                _ => panic!("a separate promise or NULL left with the events"),
            })
            .collect();
        assert_eq!(sent, vec![(5, 0), (7, 15)]);
        for msg in out.drain(..) {
            receiver.deliver(&mut ws, msg);
        }
        assert_eq!(receiver.ports[0].last_ts(), 15);
        assert_eq!(receiver.ports[0].len(), 2);
        // Nothing staged: a grown promise still leaves on its own.
        sender.deliver(&mut ws, promise(0, 12));
        sender.activate(&mut ws, &mut out);
        assert!(matches!(out[..], [OutMsg::Promise { ts: 17, .. }]));
    }
}
