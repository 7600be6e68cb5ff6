//! The per-component conservative runtime: one [`CompCore`] wraps a
//! user [`Component`] with its pending-event heap, its per-port receive
//! clocks and the promises of its out links.
//!
//! The determinism rules from the crate docs live here:
//!
//! * **Strict safety** — [`CompCore::activate`] handles an event only
//!   when its timestamp is strictly below the local clock (the minimum
//!   over input-port clocks). The circuit engines use the non-strict
//!   bound, which is safe for them because a gate's output is a
//!   function of latched values, not of how a timestamp cohort was split
//!   across activations; an opaque component sees event *batches*, so
//!   the cohort boundary must be message-timing-independent. Strictness
//!   buys exactly that: every event below the clock is present (only
//!   promises raise a port clock, every event emitted after a promise
//!   lies at or past it, and links are FIFO), and nothing at the clock
//!   is handled until the clock moves past it.
//! * **Receiver-side ordering** — `ctx.send` emissions leave at once,
//!   in emission order, carrying the sender's emission counter. The
//!   receiver keeps every pending event in one heap keyed by
//!   `(timestamp, source, seq)`, the source being the input port or
//!   [`SELF_SRC`], above every port, for self-events. A timestamp
//!   cohort is therefore handled lowest port first, each port in its
//!   sender's emission order, then self-events in schedule order: an
//!   order fixed by model state alone, however handlers order their
//!   delays. Since sends leave out of timestamp order, an event's
//!   arrival says nothing about its port's clock.
//! * **Promises** — after an activation at `clock`, every later handler
//!   runs at ≥ `clock`, so each out link promises `clock + lookahead`
//!   (sent only when it grew). A grown promise rides on the link's last
//!   event of the activation (`then`) instead of a message of its own;
//!   the receiver queues the event, then raises the port clock, exactly
//!   as if the promise had followed. Once the promise reaches the
//!   horizon — or the local clock is exhausted ([`NULL_TS`]) — the link
//!   gets its terminal NULL and closes.
//!
//! Each event lives in one place from emission to handling: in the
//! activation's `out` buffer and the fabric while in flight, then
//! inline, payload and all, in its receiver's pending heap — self-events
//! from `ctx.schedule_self` on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use des::{Timestamp, NULL_TS};

use crate::component::{Component, Ctx, EventSource, Payload};
use crate::rng::DetRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The source key of a self-event: above every port, so port events win
/// timestamp ties.
pub(crate) const SELF_SRC: usize = usize::MAX;

/// What an activation emits for the engine to route.
pub(crate) enum OutMsg<P> {
    /// A payload event for `dst`'s input port `port`, the sender's
    /// `seq`-th emission. A nonzero `then` is a promise riding on the
    /// event: once the event is queued, the port's clock rises to
    /// `then`. Zero means none (every promise is `clock + lookahead >= 1`).
    Event {
        dst: usize,
        port: usize,
        ts: Timestamp,
        seq: u64,
        then: Timestamp,
        payload: P,
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
/// where in the running activation's `out` its last event sits.
pub(crate) struct LinkOut {
    pub(crate) dst: usize,
    pub(crate) dst_port: usize,
    pub(crate) lookahead: u64,
    promised: Timestamp,
    /// Index of this link's last event in `out`, `usize::MAX` if the
    /// running activation sent none.
    pub(crate) last: usize,
}

impl LinkOut {
    pub(crate) fn new(dst: usize, dst_port: usize, lookahead: u64) -> Self {
        LinkOut {
            dst,
            dst_port,
            lookahead,
            promised: 0,
            last: usize::MAX,
        }
    }

    /// True once the terminal NULL went out on this link.
    pub(crate) fn is_closed(&self) -> bool {
        self.promised == NULL_TS
    }
}

/// A pending event: from an input port (`src` the port index, `seq` the
/// sender's emission counter) or scheduled by the component itself
/// (`src` [`SELF_SRC`], `seq` its own counter).
pub(crate) struct Pending<P> {
    pub(crate) ts: Timestamp,
    pub(crate) src: usize,
    pub(crate) seq: u64,
    pub(crate) payload: P,
}

// BinaryHeap is a max-heap; the ordering is *reversed* so the heap pops
// the smallest `(ts, src, seq)` first. `(src, seq)` is unique per core
// (one sender per port), so total order needs no payload comparison.
impl<P> PartialEq for Pending<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.ts, self.src, self.seq) == (other.ts, other.src, other.seq)
    }
}
impl<P> Eq for Pending<P> {}
impl<P> PartialOrd for Pending<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Pending<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.ts, other.src, other.seq).cmp(&(self.ts, self.src, self.seq))
    }
}

/// A component lowered onto the conservative machinery.
pub(crate) struct CompCore<P: Payload> {
    pub(crate) id: usize,
    comp: Box<dyn Component<P>>,
    rng: DetRng,
    horizon: Timestamp,
    /// Receive clock per inbound link: the last promise, [`NULL_TS`]
    /// once closed.
    clocks: Vec<Timestamp>,
    links: Vec<LinkOut>,
    /// Every event not yet handled: port events and self-events alike.
    pending: BinaryHeap<Pending<P>>,
    /// Emission counter shared by sends and self-schedules.
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
        links: Vec<LinkOut>,
    ) -> Self {
        CompCore {
            id,
            comp,
            rng: DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)),
            horizon,
            clocks: vec![0; in_count],
            links,
            pending: BinaryHeap::new(),
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

    /// Events still queued; zero for every core of a clean run.
    pub(crate) fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Leave the core done with `payload` still queued at `ts` from
    /// `src`: the state the end-of-run leak check must catch.
    #[cfg(test)]
    pub(crate) fn strand_event(&mut self, ts: Timestamp, src: usize, payload: P) {
        self.pending.push(Pending {
            ts,
            src,
            seq: 0,
            payload,
        });
        self.done = true;
    }

    /// Deliver one routed message to the input port it names.
    #[inline]
    pub(crate) fn deliver(&mut self, msg: OutMsg<P>) {
        match msg {
            OutMsg::Event {
                port,
                ts,
                seq,
                then,
                payload,
                ..
            } => {
                debug_assert!(self.clocks[port] != NULL_TS, "event on closed port {port}");
                debug_assert!(
                    ts >= self.clocks[port],
                    "event at {ts} below port {port}'s clock {}",
                    self.clocks[port]
                );
                self.pending.push(Pending {
                    ts,
                    src: port,
                    seq,
                    payload,
                });
                if then != 0 {
                    self.clocks[port] = then;
                }
            }
            OutMsg::Promise { port, ts, .. } => self.clocks[port] = ts,
            OutMsg::Null { port, .. } => self.clocks[port] = NULL_TS,
        }
    }

    /// Run one activation: handle every pending event strictly below the
    /// local clock in `(ts, src, seq)` order, then send the grown
    /// promises into `out`, where the handlers' sends already are.
    /// `enc` is the checksum's payload-encoding scratch. Returns the
    /// number of events handled.
    pub(crate) fn activate(&mut self, enc: &mut Vec<u8>, out: &mut Vec<OutMsg<P>>) -> u64 {
        if self.done {
            return 0;
        }
        if !self.started {
            self.started = true;
            self.call(0, out, |comp, ctx| comp.on_start(ctx));
        }
        let clock = self.clocks.iter().copied().min().unwrap_or(NULL_TS);
        let mut handled = 0u64;
        // A self-event a handler schedules below the clock joins this
        // very loop: deferring it to the next activation would make the
        // handling order depend on where activation boundaries fell,
        // which differs across engines. Every timestamp is below
        // `NULL_TS`, so an exhausted clock drains the heap.
        while self.pending.peek().is_some_and(|top| top.ts < clock) {
            let ev = self.pending.pop().expect("peeked");
            let source = match ev.src {
                SELF_SRC => EventSource::SelfTimer,
                port => EventSource::Port(port),
            };
            self.handle(enc, out, source, ev.ts, ev.payload);
            handled += 1;
        }
        self.promise(clock, out);
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

    fn handle(
        &mut self,
        enc: &mut Vec<u8>,
        out: &mut Vec<OutMsg<P>>,
        source: EventSource,
        ts: Timestamp,
        payload: P,
    ) {
        self.fold_checksum(enc, source, ts, &payload);
        self.call(ts, out, |comp, ctx| comp.on_event(source, payload, ctx));
        self.delivered += 1;
    }

    /// Run one handler at `now`; its sends land in `out` and its
    /// self-schedules in the pending heap as it emits them.
    fn call(
        &mut self,
        now: Timestamp,
        out: &mut Vec<OutMsg<P>>,
        f: impl FnOnce(&mut dyn Component<P>, &mut Ctx<'_, P>),
    ) {
        let mut ctx = Ctx {
            now,
            horizon: self.horizon,
            rng: &mut self.rng,
            links: &mut self.links,
            pending: &mut self.pending,
            out,
            seq: &mut self.seq,
            dropped: &mut self.dropped,
        };
        f(&mut *self.comp, &mut ctx);
    }

    /// Advance every out link's promise to `clock + lookahead`.
    fn promise(&mut self, clock: Timestamp, out: &mut Vec<OutMsg<P>>) {
        for link in &mut self.links {
            let last = std::mem::replace(&mut link.last, usize::MAX);
            if link.is_closed() {
                continue;
            }
            let (dst, port) = (link.dst, link.dst_port);
            // `NULL_TS` is `u64::MAX`: an exhausted clock closes every link.
            let limit = clock.saturating_add(link.lookahead);
            if limit >= self.horizon {
                out.push(OutMsg::Null { dst, port });
                link.promised = NULL_TS;
            } else if limit > link.promised {
                match out.get_mut(last) {
                    Some(OutMsg::Event { then, .. }) => *then = limit,
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

    struct Echo;
    impl Component<u64> for Echo {
        fn on_event(&mut self, _s: EventSource, _p: u64, _ctx: &mut Ctx<'_, u64>) {}
    }

    fn core(in_count: usize) -> CompCore<u64> {
        CompCore::new(0, Box::new(Echo), 7, 100, in_count, Vec::new())
    }

    fn event(port: usize, ts: Timestamp, v: u64) -> OutMsg<u64> {
        OutMsg::Event {
            dst: 0,
            port,
            ts,
            seq: v,
            then: 0,
            payload: v,
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
        let mut enc = Vec::new();
        let mut c = core(1);
        let mut out = Vec::new();
        c.deliver(event(0, 5, 1));
        c.deliver(promise(0, 5));
        // Clock is 5: the event at 5 is NOT yet safe.
        assert_eq!(c.activate(&mut enc, &mut out), 0);
        // A promise of 6 moves the clock past it.
        c.deliver(promise(0, 6));
        assert_eq!(c.activate(&mut enc, &mut out), 1);
        assert_eq!(c.delivered, 1);
        assert_eq!(c.pending_events(), 0);
    }

    #[test]
    fn an_event_waits_for_the_promise_that_covers_it() {
        let mut enc = Vec::new();
        let mut c = core(1);
        let mut out = Vec::new();
        // Sends leave in emission order, so the event at 7 says nothing
        // about the link's clock: a send at 3 may still follow it.
        c.deliver(event(0, 7, 1));
        assert_eq!(c.clocks, vec![0]);
        assert_eq!(c.activate(&mut enc, &mut out), 0);
        c.deliver(promise(0, 7));
        assert_eq!(c.activate(&mut enc, &mut out), 0);
        c.deliver(promise(0, 8));
        assert_eq!(c.activate(&mut enc, &mut out), 1);
    }

    #[test]
    fn exhausted_ports_drain_everything_and_finish() {
        let mut enc = Vec::new();
        let mut c = core(2);
        let mut out = Vec::new();
        c.deliver(event(0, 9, 1));
        c.deliver(null(0));
        assert_eq!(c.activate(&mut enc, &mut out), 0); // port 1 clock still 0
        c.deliver(null(1));
        assert_eq!(c.activate(&mut enc, &mut out), 1);
        assert!(c.is_done());
        assert_eq!(c.pending_events(), 0);
    }

    #[test]
    fn checksum_tracks_event_stream() {
        let run = |promise_first: bool| {
            let mut enc = Vec::new();
            let mut c = core(1);
            let mut out = Vec::new();
            if promise_first {
                c.deliver(promise(0, 3));
                c.activate(&mut enc, &mut out);
            }
            c.deliver(event(0, 4, 7));
            c.deliver(null(0));
            c.activate(&mut enc, &mut out);
            c.checksum
        };
        // Activation boundaries don't change the checksum…
        assert_eq!(run(false), run(true));
        // …but a different event stream does.
        let mut enc = Vec::new();
        let mut c = core(1);
        let mut out = Vec::new();
        c.deliver(event(0, 4, 8));
        c.deliver(null(0));
        c.activate(&mut enc, &mut out);
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

    /// `(ts, then)` of every message in `out`, which must all be events.
    fn sent(out: &[OutMsg<u64>]) -> Vec<(Timestamp, Timestamp)> {
        out.iter()
            .map(|m| match m {
                OutMsg::Event { ts, then, .. } => (*ts, *then),
                _ => panic!("a separate promise or NULL left with the events"),
            })
            .collect()
    }

    #[test]
    fn the_promise_rides_on_the_last_released_event() {
        let mut enc = Vec::new();
        let links = vec![LinkOut::new(0, 0, 5), LinkOut::new(2, 0, 5)];
        let mut sender = CompCore::new(1, Box::new(Burst(vec![7, 5])), 7, 100, 1, links);
        let mut receiver = log_core(1, Vec::new());
        let mut out = Vec::new();
        // Clock 10: both sends leave in emission order, and the promise
        // grows 0 → 15 on the last of them. Link 1 sent nothing, so its
        // promise leaves on its own.
        sender.deliver(promise(0, 10));
        sender.activate(&mut enc, &mut out);
        assert_eq!(sent(&out[..2]), vec![(7, 0), (5, 15)]);
        assert!(matches!(out[2..], [OutMsg::Promise { dst: 2, ts: 15, .. }]));
        for msg in out.drain(..2) {
            receiver.deliver(msg);
        }
        assert_eq!(receiver.clocks, vec![15]);
        assert_eq!(receiver.activate(&mut enc, &mut out), 4);
        assert_eq!(
            handled(&receiver),
            log(&[(5, 5), (6, 105), (7, 7), (8, 107)])
        );
        // Nothing sent: a grown promise still leaves on its own.
        out.clear();
        sender.deliver(promise(0, 12));
        sender.activate(&mut enc, &mut out);
        assert!(matches!(
            out[..],
            [
                OutMsg::Promise { dst: 0, ts: 17, .. },
                OutMsg::Promise { dst: 2, ts: 17, .. }
            ]
        ));
    }

    /// Answers an event carrying `n` with `n` sends on out link 0, all
    /// arriving at time 12, numbered `10 n + i`, then one more arriving
    /// at 20 numbered `10 n + 9`.
    struct Fan;
    impl Component<u64> for Fan {
        fn on_event(&mut self, _s: EventSource, n: u64, ctx: &mut Ctx<'_, u64>) {
            for i in 0..n {
                ctx.send(0, 12 - ctx.now(), 10 * n + i);
            }
            ctx.send(0, 20 - ctx.now(), 10 * n + 9);
        }
    }

    fn fan_core() -> CompCore<u64> {
        CompCore::new(1, Box::new(Fan), 7, 100, 1, vec![LinkOut::new(0, 0, 5)])
    }

    /// `(ts, seq, payload)` of every event in `out`.
    fn events(out: &[OutMsg<u64>]) -> Vec<(Timestamp, u64, u64)> {
        out.iter()
            .filter_map(|m| match m {
                OutMsg::Event {
                    ts, seq, payload, ..
                } => Some((*ts, *seq, *payload)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn same_timestamp_sends_leave_in_emission_order() {
        let mut enc = Vec::new();
        let mut c = fan_core();
        let mut out = Vec::new();
        // Clock 3: the event at 2 sends 30, 31, 32 at 12 and 39 at 20,
        // all past the promise 3 + 5; they leave at once, numbered.
        c.deliver(event(0, 2, 3));
        c.deliver(promise(0, 3));
        assert_eq!(c.activate(&mut enc, &mut out), 1);
        let first = vec![(12, 1, 30), (12, 2, 31), (12, 3, 32), (20, 4, 39)];
        assert_eq!(events(&out), first);
        assert!(matches!(out.last(), Some(OutMsg::Event { then: 8, .. })));
        out.clear();
        // A later activation sends 10 at the same time 12, numbered past
        // them; the exhausted clock then closes the link.
        c.deliver(event(0, 4, 1));
        c.deliver(null(0));
        assert_eq!(c.activate(&mut enc, &mut out), 1);
        assert_eq!(events(&out), vec![(12, 5, 10), (20, 6, 19)]);
        assert!(matches!(out.last(), Some(OutMsg::Null { .. })));
    }

    #[test]
    fn equal_time_events_from_one_sender_run_in_emission_order() {
        let mut enc = Vec::new();
        let mut c = fan_core();
        let mut r = log_core(1, Vec::new());
        let mut out = Vec::new();
        // Two activations' sends, delivered as they leave: the receiver
        // handles the 12 cohort in emission order across both, then 20.
        c.deliver(event(0, 2, 3));
        c.deliver(promise(0, 3));
        c.activate(&mut enc, &mut out);
        for msg in out.drain(..) {
            r.deliver(msg);
        }
        assert_eq!(r.activate(&mut enc, &mut out), 0);
        c.deliver(event(0, 4, 1));
        c.deliver(null(0));
        c.activate(&mut enc, &mut out);
        for msg in out.drain(..) {
            r.deliver(msg);
        }
        r.activate(&mut enc, &mut out);
        let want = [(12, 30), (12, 31), (12, 32), (12, 10), (13, 130), (13, 131)];
        assert_eq!(handled(&r)[..6], log(&want)[..]);
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
        let mut enc = Vec::new();
        let mut c = log_core(0, vec![(5, 1), (3, 9), (5, 2), (5, 3)]);
        let mut out = Vec::new();
        assert_eq!(c.activate(&mut enc, &mut out), 4);
        assert_eq!(handled(&c), log(&[(3, 9), (5, 1), (5, 2), (5, 3)]));
        assert!(c.is_done());
        assert_eq!(c.pending_events(), 0);
    }

    #[test]
    fn a_three_way_tie_runs_port_0_then_port_1_then_self() {
        let mut enc = Vec::new();
        let mut c = log_core(2, vec![(4, 99)]);
        let mut out = Vec::new();
        c.deliver(event(1, 4, 11));
        c.deliver(event(0, 4, 10));
        c.deliver(null(1));
        c.deliver(null(0));
        assert_eq!(c.activate(&mut enc, &mut out), 5);
        let want = [(4, 10), (4, 11), (4, 99), (5, 110), (5, 111)];
        assert_eq!(handled(&c), log(&want));
    }

    #[test]
    fn a_due_self_event_joins_the_same_activation() {
        let mut enc = Vec::new();
        let mut c = log_core(1, Vec::new());
        let mut out = Vec::new();
        c.deliver(event(0, 2, 1));
        c.deliver(event(0, 5, 2));
        c.deliver(promise(0, 6));
        // The event at 2 schedules 101 at 3, below both the clock and the
        // next port event: it runs between them in this activation. The
        // event at 5 schedules 102 at 6, which waits for the clock.
        assert_eq!(c.activate(&mut enc, &mut out), 3);
        assert_eq!(handled(&c), log(&[(2, 1), (3, 101), (5, 2)]));
        assert_eq!(c.pending_events(), 1);
        c.deliver(null(0));
        assert_eq!(c.activate(&mut enc, &mut out), 1);
        assert_eq!(c.pending_events(), 0);
    }

    #[test]
    fn hot_structs_keep_their_size() {
        use crate::phold::PholdToken;
        use std::mem::size_of;
        // What every event copies through the fabric and the pending
        // heap: an event message carries the sender's emission counter,
        // the receiver's tie-break, so it is one word wider than a
        // message without it.
        assert_eq!(size_of::<OutMsg<PholdToken>>(), 64);
        assert_eq!(size_of::<Pending<PholdToken>>(), 40);
    }
}
