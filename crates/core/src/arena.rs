//! Arena-backed event storage for the hot path.
//!
//! Every queue-based engine used to shuffle owned `Event` values through
//! per-port `VecDeque`s: each cross-port move was a copy, and the deques
//! themselves grew and shrank on whatever thread happened to touch them.
//! [`EventArena`] replaces that with one slab per execution context (a
//! `seq-workset` run or a sharded core's thread; every node the context
//! runs shares it): events
//! live in a contiguous slot vector allocated on the owning thread
//! (first touch pins the pages to that thread's NUMA node when the
//! thread itself is pinned), queues hold 8-byte [`EventRef`] handles,
//! and freed slots are recycled through a LIFO free list so
//! steady-state simulation allocates nothing.
//!
//! Handles are *generational*: each slot carries a generation counter
//! that is bumped when the slot is freed, and a ref minted for an
//! earlier generation panics on access instead of silently reading
//! whatever event was recycled into the slot. That turns
//! use-after-free — the classic slab bug — into a deterministic,
//! testable failure.

use crate::event::Event;

/// Generational handle into an [`EventArena`].
///
/// 8 bytes, `Copy`, and meaningless without the arena that minted it.
/// A ref is invalidated by [`EventArena::take`]; any later use panics
/// with a "stale EventRef" message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventRef {
    ix: u32,
    gen: u32,
}

impl EventRef {
    /// Slot index, for diagnostics only.
    #[inline]
    pub fn index(&self) -> u32 {
        self.ix
    }
}

#[derive(Debug, Clone)]
struct Slot {
    /// Bumped every free; a handle is valid iff its generation matches.
    gen: u32,
    ev: Option<Event>,
}

/// A slab of in-flight events with free-list reuse and generational
/// handles. One arena per execution context (a sequential run or a shard
/// thread), shared by every node it runs — never
/// shared across threads, so no interior mutability and no contention.
#[derive(Debug, Clone)]
pub struct EventArena {
    slots: Vec<Slot>,
    /// Freed slot indices, reused LIFO (the hottest slot first).
    free: Vec<u32>,
    live: usize,
    high_water: usize,
}

impl EventArena {
    /// An empty arena that grows on demand.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An arena with room for `capacity` live events before any slot
    /// vector growth. Call this on the thread that will own the arena:
    /// the slots are written here, so first-touch places them locally.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.min(u32::MAX as usize);
        let mut slots = Vec::with_capacity(capacity);
        let mut free = Vec::with_capacity(capacity);
        for i in 0..capacity {
            slots.push(Slot { gen: 0, ev: None });
            // LIFO pops hand out slot 0 first: lowest addresses stay hot.
            free.push((capacity - 1 - i) as u32);
        }
        EventArena {
            slots,
            free,
            live: 0,
            high_water: 0,
        }
    }

    /// Store `ev`, returning its handle. Reuses a freed slot when one
    /// exists; grows the slab otherwise.
    #[inline]
    pub fn alloc(&mut self, ev: Event) -> EventRef {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        if let Some(ix) = self.free.pop() {
            let slot = &mut self.slots[ix as usize];
            debug_assert!(slot.ev.is_none(), "free-listed slot still occupied");
            slot.ev = Some(ev);
            EventRef { ix, gen: slot.gen }
        } else {
            let ix = self.slots.len();
            assert!(ix <= u32::MAX as usize, "event arena exceeded 2^32 slots");
            self.slots.push(Slot { gen: 0, ev: Some(ev) });
            EventRef {
                ix: ix as u32,
                gen: 0,
            }
        }
    }

    /// Move the event out, freeing its slot for reuse and invalidating
    /// every copy of `r` (the slot's generation is bumped).
    ///
    /// # Panics
    /// On a stale handle: the slot was already freed (and possibly
    /// recycled). This is the reuse-after-free detector.
    #[inline]
    pub fn take(&mut self, r: EventRef) -> Event {
        let slot = &mut self.slots[r.ix as usize];
        let ev = match slot.ev.take() {
            Some(ev) if slot.gen == r.gen => ev,
            got => {
                slot.ev = got; // put a recycled occupant back before dying
                panic!(
                    "stale EventRef: slot {} gen {} (arena gen {}) — reuse after free",
                    r.ix, r.gen, slot.gen
                );
            }
        };
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.ix);
        self.live -= 1;
        ev
    }

    /// Read the event behind a live handle.
    ///
    /// # Panics
    /// On a stale handle, like [`EventArena::take`].
    #[inline]
    pub fn get(&self, r: EventRef) -> &Event {
        let slot = &self.slots[r.ix as usize];
        match &slot.ev {
            Some(ev) if slot.gen == r.gen => ev,
            _ => panic!(
                "stale EventRef: slot {} gen {} (arena gen {}) — reuse after free",
                r.ix, r.gen, slot.gen
            ),
        }
    }

    /// Events currently stored.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Most events ever live at once — the working-set size a
    /// pre-sized arena should use.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total slots (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl Default for EventArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Timestamp;
    use circuit::Logic;

    fn ev(t: Timestamp) -> Event {
        Event::new(t, Logic::One)
    }

    #[test]
    fn alloc_take_round_trips() {
        let mut a = EventArena::new();
        let r1 = a.alloc(ev(3));
        let r2 = a.alloc(ev(7));
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(r1).time, 3);
        assert_eq!(a.take(r2).time, 7);
        assert_eq!(a.take(r1).time, 3);
        assert_eq!(a.live(), 0);
        assert_eq!(a.high_water(), 2);
    }

    #[test]
    fn free_slots_are_reused_lifo() {
        let mut a = EventArena::new();
        let r1 = a.alloc(ev(1));
        let _r2 = a.alloc(ev(2));
        a.take(r1);
        let r3 = a.alloc(ev(3));
        assert_eq!(r3.index(), r1.index(), "freed slot recycled");
        assert_eq!(a.capacity(), 2, "no growth while the free list serves");
        assert_eq!(a.get(r3).time, 3);
    }

    #[test]
    fn with_capacity_presizes_and_hands_out_low_slots_first() {
        let mut a = EventArena::with_capacity(4);
        assert_eq!(a.capacity(), 4);
        let r = a.alloc(ev(1));
        assert_eq!(r.index(), 0);
        assert_eq!(a.capacity(), 4, "no growth before capacity is exceeded");
    }

    #[test]
    #[should_panic(expected = "stale EventRef")]
    fn double_take_panics() {
        let mut a = EventArena::new();
        let r = a.alloc(ev(5));
        a.take(r);
        a.take(r);
    }

    #[test]
    #[should_panic(expected = "reuse after free")]
    fn stale_ref_into_recycled_slot_panics() {
        let mut a = EventArena::new();
        let r_old = a.alloc(ev(5));
        a.take(r_old);
        let r_new = a.alloc(ev(9)); // same slot, new generation
        assert_eq!(r_new.index(), r_old.index());
        a.get(r_old); // must not silently read the recycled event
    }

    #[test]
    fn recycled_slot_survives_failed_stale_take() {
        let mut a = EventArena::new();
        let r_old = a.alloc(ev(5));
        a.take(r_old);
        let r_new = a.alloc(ev(9));
        let died =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.take(r_old))).is_err();
        assert!(died);
        assert_eq!(a.get(r_new).time, 9, "occupant restored after stale take");
    }
}
