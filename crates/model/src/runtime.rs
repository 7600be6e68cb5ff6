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
//! Each event lives in one place from emission to handling: a send
//! sits in its link's staging heap ([`LinkOut`]) until the flush
//! releases it, a self-event sits inline in its core's self heap, and
//! an event queued on a port sits in the [`Workspace`] slab of the
//! executor thread that runs the core, one slab per thread however
//! many components the thread holds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use des::node::{local_clock, PortQueue};
use des::{Event, EventArena, Timestamp, NULL_TS};

use crate::component::{Component, Ctx, EventSource, Payload};
use crate::rng::DetRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

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

/// One outbound link: its destination port, its lookahead, the last
/// promise sent on it ([`NULL_TS`] once its terminal NULL went out) and
/// the heap of emissions not yet released.
pub(crate) struct LinkOut<P> {
    dst: usize,
    dst_port: usize,
    pub(crate) lookahead: u64,
    promised: Timestamp,
    pub(crate) staged: BinaryHeap<Staged<P>>,
}

impl<P> LinkOut<P> {
    pub(crate) fn new(dst: usize, dst_port: usize, lookahead: u64) -> Self {
        LinkOut {
            dst,
            dst_port,
            lookahead,
            promised: 0,
            staged: BinaryHeap::new(),
        }
    }
}

/// A staged (not yet released) emission on one outbound link.
pub(crate) struct Staged<P> {
    pub(crate) ts: Timestamp,
    pub(crate) seq: u64,
    pub(crate) payload: P,
}

/// A pending self-scheduled event.
pub(crate) struct SelfEv<P> {
    pub(crate) at: Timestamp,
    pub(crate) seq: u64,
    pub(crate) payload: P,
}

// BinaryHeap is a max-heap; both orderings are *reversed* so the heap
// pops the smallest (time, emission) pair first. `seq` is unique per
// core, so total order needs no payload comparison.
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

impl<P> PartialEq for SelfEv<P> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<P> Eq for SelfEv<P> {}
impl<P> PartialOrd for SelfEv<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for SelfEv<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The memory one executor thread lends every core it runs: the slab
/// holding the events queued on those cores' ports (the queues hold
/// handles into it) and the payload-encoding scratch of the checksum.
pub(crate) struct Workspace<P> {
    pub(crate) arena: EventArena<P>,
    enc: Vec<u8>,
}

impl<P> Workspace<P> {
    pub(crate) fn new() -> Self {
        Workspace {
            arena: EventArena::new(),
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
    links: Vec<LinkOut<P>>,
    /// Pending self-events (own heap: they are not on any FIFO link, so
    /// non-monotone self-schedules need no staging detour).
    self_heap: BinaryHeap<SelfEv<P>>,
    /// Emission counter shared by sends and self-schedules: the
    /// tie-break of both heaps.
    seq: u64,
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
    /// and wire its outbound links, `links[i]` being out link `i`.
    pub(crate) fn new(
        id: usize,
        comp: Box<dyn Component<P>>,
        seed: u64,
        horizon: Timestamp,
        in_count: usize,
        links: Vec<LinkOut<P>>,
    ) -> Self {
        CompCore {
            id,
            comp,
            rng: DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)),
            horizon,
            ports: (0..in_count).map(|_| PortQueue::new()).collect(),
            links,
            self_heap: BinaryHeap::new(),
            seq: 0,
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

    /// Self-events still queued; zero for every core of a clean run.
    pub(crate) fn pending_self_events(&self) -> usize {
        self.self_heap.len()
    }

    /// Leave the core done with `payload` still queued at `at`: the state
    /// the end-of-run leak check must catch.
    #[cfg(test)]
    pub(crate) fn strand_self_event(&mut self, at: Timestamp, payload: P) {
        self.self_heap.push(SelfEv {
            at,
            seq: 0,
            payload,
        });
        self.done = true;
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
            self.call(0, |comp, ctx| comp.on_start(ctx));
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
                self.handle(ws, EventSource::SelfTimer, s.at, s.payload);
            } else {
                let (i, h) = port_pick.expect("picked");
                let ev = self.ports[i].pop_ready(&mut ws.arena, h).expect("peeked");
                self.handle(ws, EventSource::Port(i), ev.time, ev.value);
            }
            handled += 1;
        }
        self.flush(clock, out);
        if clock == NULL_TS {
            self.done = true;
        }
        handled
    }

    /// End-of-run observables, prefixed with nothing — the engine adds
    /// the component name.
    pub(crate) fn observables(&self, out: &mut Vec<(String, u64)>) {
        self.comp.observables(out);
    }

    fn handle(&mut self, ws: &mut Workspace<P>, source: EventSource, ts: Timestamp, payload: P) {
        self.fold_checksum(&mut ws.enc, source, ts, &payload);
        self.call(ts, |comp, ctx| comp.on_event(source, payload, ctx));
        self.delivered += 1;
    }

    /// Run one handler at `now`; its sends land on the link staging
    /// heaps and its self-schedules on the self heap as it emits them.
    fn call(&mut self, now: Timestamp, f: impl FnOnce(&mut dyn Component<P>, &mut Ctx<'_, P>)) {
        let mut ctx = Ctx {
            now,
            horizon: self.horizon,
            rng: &mut self.rng,
            links: &mut self.links,
            self_heap: &mut self.self_heap,
            seq: &mut self.seq,
            dropped: &mut self.dropped,
        };
        f(&mut *self.comp, &mut ctx);
    }

    /// Release staged emissions proven final and advance promises.
    fn flush(&mut self, clock: Timestamp, out: &mut Vec<OutMsg<P>>) {
        for link in &mut self.links {
            let (dst, port) = (link.dst, link.dst_port);
            if link.promised == NULL_TS {
                debug_assert!(link.staged.is_empty(), "emission after terminal NULL");
                continue;
            }
            // `NULL_TS` is `u64::MAX`: an exhausted clock releases all.
            let limit = clock.saturating_add(link.lookahead);
            let mut released = false;
            while link.staged.peek().is_some_and(|top| top.ts <= limit) {
                let s = link.staged.pop().expect("peeked");
                out.push(OutMsg::Event {
                    dst,
                    port,
                    ev: Event::new(s.ts, s.payload),
                    then: 0,
                });
                released = true;
            }
            if limit >= self.horizon {
                out.push(OutMsg::Null { dst, port });
                link.promised = NULL_TS;
            } else if limit > link.promised {
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
                link.promised = limit;
            }
        }
    }

    /// Fold `(ts, source, payload bytes)` into the checksum: `ts`, then
    /// a source tag (0 plus the port index, or 1), then the payload.
    fn fold_checksum(
        &mut self,
        enc: &mut Vec<u8>,
        source: EventSource,
        ts: Timestamp,
        payload: &P,
    ) {
        let mut h = fnv(self.checksum, &ts.to_le_bytes());
        h = match source {
            EventSource::Port(p) => fnv(fnv(h, &[0]), &(p as u64).to_le_bytes()),
            EventSource::SelfTimer => fnv(h, &[1]),
        };
        enc.clear();
        payload.encode(enc);
        self.checksum = fnv(h, enc);
    }
}

/// FNV-1a step over `bytes`, from state `h`.
#[inline]
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold per-component checksums (in component-id order) into one run
/// checksum.
pub(crate) fn fold_run_checksum(comp_checksums: impl Iterator<Item = u64>) -> u64 {
    comp_checksums.fold(FNV_OFFSET, |h, c| fnv(h, &c.to_le_bytes()))
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
        let link = LinkOut::new(0, 0, 5);
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

    /// Answers an event carrying `n` with `n` sends on out link 0, all
    /// arriving at time 12, numbered `10 n + i`.
    struct Fan;
    impl Component<u64> for Fan {
        fn on_event(&mut self, _s: EventSource, n: u64, ctx: &mut Ctx<'_, u64>) {
            for i in 0..n {
                ctx.send(0, 12 - ctx.now(), 10 * n + i);
            }
        }
    }

    #[test]
    fn same_timestamp_sends_leave_in_emission_order() {
        let mut ws = Workspace::new();
        let mut c = CompCore::new(1, Box::new(Fan), 7, 100, 1, vec![LinkOut::new(0, 0, 5)]);
        let mut out = Vec::new();
        // Clock 3: the event at 2 stages 30, 31, 32 at 12, past the
        // release limit 3 + 5.
        c.deliver(&mut ws, event(0, 2, 3));
        c.deliver(&mut ws, promise(0, 3));
        assert_eq!(c.activate(&mut ws, &mut out), 1);
        assert!(out.iter().all(|m| !matches!(m, OutMsg::Event { .. })));
        out.clear();
        // A later activation stages 10 at the same time 12; the exhausted
        // clock then releases everything.
        c.deliver(&mut ws, event(0, 4, 1));
        c.deliver(&mut ws, null(0));
        assert_eq!(c.activate(&mut ws, &mut out), 1);
        let released: Vec<(Timestamp, u64)> = out
            .iter()
            .filter_map(|m| match m {
                OutMsg::Event { ev, .. } => Some((ev.time, ev.value)),
                _ => None,
            })
            .collect();
        assert_eq!(released, vec![(12, 30), (12, 31), (12, 32), (12, 10)]);
        assert!(matches!(out.last(), Some(OutMsg::Null { .. })));
    }

    /// Schedules `start` on itself at time 0, answers every port event
    /// with a self-event one tick later carrying `payload + 100`, and
    /// reports what it handled as observables `("time", payload)`.
    struct Log {
        start: Vec<(u64, u64)>,
        got: Vec<(Timestamp, u64)>,
    }
    impl Component<u64> for Log {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for &(delay, p) in &self.start {
                ctx.schedule_self(delay, p);
            }
        }
        fn on_event(&mut self, s: EventSource, p: u64, ctx: &mut Ctx<'_, u64>) {
            self.got.push((ctx.now(), p));
            if let EventSource::Port(_) = s {
                ctx.schedule_self(1, p + 100);
            }
        }
        fn observables(&self, out: &mut Vec<(String, u64)>) {
            out.extend(self.got.iter().map(|&(t, p)| (t.to_string(), p)));
        }
    }

    fn log_core(in_count: usize, start: Vec<(u64, u64)>) -> CompCore<u64> {
        let log = Log {
            start,
            got: Vec::new(),
        };
        CompCore::new(0, Box::new(log), 7, 100, in_count, Vec::new())
    }

    fn handled(c: &CompCore<u64>) -> Vec<(String, u64)> {
        let mut got = Vec::new();
        c.observables(&mut got);
        got
    }

    fn log(entries: &[(Timestamp, u64)]) -> Vec<(String, u64)> {
        entries.iter().map(|&(t, p)| (t.to_string(), p)).collect()
    }

    #[test]
    fn same_time_self_events_run_in_schedule_order() {
        let mut ws = Workspace::new();
        let mut c = log_core(0, vec![(5, 1), (3, 9), (5, 2), (5, 3)]);
        let mut out = Vec::new();
        assert_eq!(c.activate(&mut ws, &mut out), 4);
        assert_eq!(handled(&c), log(&[(3, 9), (5, 1), (5, 2), (5, 3)]));
        assert!(c.is_done());
        assert_eq!(c.pending_self_events(), 0);
    }

    #[test]
    fn a_due_self_event_joins_the_same_activation() {
        let mut ws = Workspace::new();
        let mut c = log_core(1, Vec::new());
        let mut out = Vec::new();
        c.deliver(&mut ws, event(0, 2, 1));
        c.deliver(&mut ws, event(0, 5, 2));
        c.deliver(&mut ws, promise(0, 6));
        // The event at 2 schedules 101 at 3, below both the clock and the
        // next port event: it runs between them in this activation. The
        // event at 5 schedules 102 at 6, which waits for the clock.
        assert_eq!(c.activate(&mut ws, &mut out), 3);
        assert_eq!(handled(&c), log(&[(2, 1), (3, 101), (5, 2)]));
        assert_eq!(c.pending_self_events(), 1);
        c.deliver(&mut ws, null(0));
        assert_eq!(c.activate(&mut ws, &mut out), 1);
        assert_eq!(c.pending_self_events(), 0);
    }

    #[test]
    fn hot_structs_keep_their_size() {
        use crate::phold::PholdToken;
        use std::mem::size_of;
        // What every event copies through the heaps and the fabric.
        assert_eq!(size_of::<OutMsg<PholdToken>>(), 56);
        assert_eq!(size_of::<SelfEv<PholdToken>>(), 32);
        assert_eq!(size_of::<Staged<PholdToken>>(), 32);
    }
}
