//! The fine-grained locking extension (paper §3.2, §4.5.2).
//!
//! The paper extends the Habanero execution model with two APIs:
//!
//! * `TRYLOCK(var)` — attempt to acquire a runtime-managed lock, returning
//!   whether the acquisition succeeded. It **never blocks**.
//! * `RELEASEALLLOCKS()` — release every lock the current task holds.
//!
//! Because acquisition never blocks and a failed attempt releases
//! everything, these APIs cannot introduce deadlock, preserving Habanero's
//! deadlock-freedom guarantee. Livelock is avoided by acquiring locks in
//! ascending ID order ([`Locker::try_lock_all`]), which guarantees that one
//! contender always wins (paper §4.3).
//!
//! The implementation matches the paper's §4.5.2 choice: each lock is a
//! plain CAS-driven `AtomicBool` (the Rust equivalent of
//! `java.util.concurrent.atomic.AtomicBoolean`), cache-padded to avoid
//! false sharing between neighbouring port locks.
//!
//! In HJlib the "current task" is ambient; in Rust we reify it as a
//! [`Locker`], a per-task handle that tracks the held set. The engine
//! creates one `Locker` per executing task; dropping it releases every held
//! lock (RAII backstop).

use std::sync::atomic::{AtomicBool, Ordering};

use crossbeam_utils::CachePadded;

/// Identifier of one lock in a [`LockRegistry`]; in the DES application
/// there is one lock per (node, input port) pair.
pub type LockId = u32;

/// A fixed-size table of never-blocking CAS locks. The CAS is the only
/// read-modify-write it does: callers count their own failures.
pub struct LockRegistry {
    locks: Box<[CachePadded<AtomicBool>]>,
}

impl LockRegistry {
    /// A registry of `n` locks, all initially free.
    pub fn new(n: usize) -> Self {
        assert!(n <= LockId::MAX as usize, "too many locks for LockId");
        LockRegistry {
            locks: (0..n).map(|_| CachePadded::new(AtomicBool::new(false))).collect(),
        }
    }

    /// Number of locks in the registry.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True if the registry has no locks.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Racy peek: is `id` currently held by *someone*?
    ///
    /// Used by the §4.5.3 spawn-avoidance optimization ("if the node has one
    /// or more locks held by others, the new task does not need to be
    /// spawned"); the protocol tolerates staleness.
    pub fn is_locked(&self, id: LockId) -> bool {
        self.locks[id as usize].load(Ordering::Relaxed)
    }

    /// Create a per-task lock handle.
    pub fn locker(&self) -> Locker<'_> {
        Locker {
            registry: self,
            held: Vec::with_capacity(8),
        }
    }

    /// Racy scan: the IDs of every lock held right now, ascending. For
    /// diagnostics — a watchdog stall report, or a leak check once every
    /// task has ended.
    pub fn held(&self) -> Vec<LockId> {
        (0..self.len() as LockId)
            .filter(|&id| self.is_locked(id))
            .collect()
    }

    #[inline]
    fn try_acquire_raw(&self, id: LockId) -> bool {
        self.locks[id as usize]
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn unlock_raw(&self, id: LockId) {
        debug_assert!(self.locks[id as usize].load(Ordering::Relaxed), "unlocking a free lock");
        self.locks[id as usize].store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for LockRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockRegistry")
            .field("len", &self.len())
            .field("held", &self.held().len())
            .finish()
    }
}

/// Per-task lock handle: the Rust rendering of HJlib's ambient
/// `TRYLOCK` / `RELEASEALLLOCKS` pair.
///
/// Dropping a `Locker` releases every lock it still holds, so a panicking
/// task cannot leak locks.
pub struct Locker<'r> {
    registry: &'r LockRegistry,
    held: Vec<LockId>,
}

impl<'r> Locker<'r> {
    /// `TRYLOCK(id)`: non-blocking acquisition attempt. On success the lock
    /// joins this task's held set.
    ///
    /// # Panics
    /// In debug builds, if this locker already holds `id` (re-entrant
    /// acquisition is a bug in the caller's lock ordering).
    #[inline]
    pub fn try_lock(&mut self, id: LockId) -> bool {
        debug_assert!(!self.holds(id), "re-entrant try_lock of {id}");
        if self.registry.try_acquire_raw(id) {
            self.held.push(id);
            true
        } else {
            false
        }
    }

    /// Acquire every lock in `ids` in the order given, which **must** be
    /// ascending (debug-asserted) — the paper's livelock-avoidance rule.
    ///
    /// On the first failure, releases everything acquired in this call *and
    /// everything else this locker held* (the paper's `RELEASEALLLOCKS()`
    /// failure path) and returns `Err(failed_id)`.
    pub fn try_lock_all(&mut self, ids: impl IntoIterator<Item = LockId>) -> Result<(), LockId> {
        let mut prev: Option<LockId> = None;
        for id in ids {
            if let Some(p) = prev {
                debug_assert!(id > p, "try_lock_all ids must be strictly ascending");
            }
            prev = Some(id);
            if !self.try_lock(id) {
                self.release_all();
                return Err(id);
            }
        }
        Ok(())
    }

    /// Release one held lock (used by §4.5.1's early release of a node's
    /// own input-port locks while fanout locks stay held).
    ///
    /// # Panics
    /// If this locker does not hold `id`.
    pub fn release(&mut self, id: LockId) {
        let pos = self
            .held
            .iter()
            .position(|&h| h == id)
            .expect("releasing a lock this task does not hold");
        self.held.swap_remove(pos);
        self.registry.unlock_raw(id);
    }

    /// `RELEASEALLLOCKS()`: release every lock this task holds.
    pub fn release_all(&mut self) {
        for id in self.held.drain(..) {
            self.registry.unlock_raw(id);
        }
    }

    /// Does this locker hold `id`?
    pub fn holds(&self, id: LockId) -> bool {
        self.held.contains(&id)
    }

    /// The currently held lock IDs (unordered).
    pub fn held(&self) -> &[LockId] {
        &self.held
    }
}

impl Drop for Locker<'_> {
    fn drop(&mut self) {
        if !self.held.is_empty() {
            self.release_all();
        }
    }
}

impl std::fmt::Debug for Locker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Locker").field("held", &self.held).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HjRuntime;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn try_lock_succeeds_then_fails() {
        let reg = LockRegistry::new(4);
        let mut a = reg.locker();
        let mut b = reg.locker();
        assert!(a.try_lock(2));
        assert!(!b.try_lock(2));
        assert!(a.holds(2));
        assert!(!b.holds(2));
        a.release_all();
        assert!(b.try_lock(2));
    }

    #[test]
    fn try_lock_all_releases_everything_on_failure() {
        let reg = LockRegistry::new(8);
        let mut a = reg.locker();
        let mut b = reg.locker();
        assert!(b.try_lock(5));
        // a grabs 1 and 3, then fails on 5 → must end up holding nothing.
        assert_eq!(a.try_lock_all([1, 3, 5]), Err(5));
        assert!(a.held().is_empty());
        assert!(!reg.is_locked(1));
        assert!(!reg.is_locked(3));
        assert!(reg.is_locked(5));
    }

    #[test]
    fn release_single_lock_keeps_others() {
        let reg = LockRegistry::new(8);
        let mut a = reg.locker();
        assert_eq!(a.try_lock_all([0, 1, 2]), Ok(()));
        a.release(1);
        assert!(a.holds(0) && !a.holds(1) && a.holds(2));
        assert!(!reg.is_locked(1));
        assert!(reg.is_locked(0) && reg.is_locked(2));
    }

    #[test]
    fn drop_releases_held_locks() {
        let reg = LockRegistry::new(4);
        {
            let mut a = reg.locker();
            assert!(a.try_lock(0));
            assert!(a.try_lock(1));
        }
        assert!(!reg.is_locked(0));
        assert!(!reg.is_locked(1));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn releasing_unheld_lock_panics() {
        let reg = LockRegistry::new(4);
        let mut a = reg.locker();
        a.release(3);
    }

    #[test]
    fn held_lists_locks_in_ascending_order() {
        let reg = LockRegistry::new(8);
        let mut a = reg.locker();
        let mut b = reg.locker();
        assert!(b.try_lock(6));
        assert_eq!(a.try_lock_all([1, 4]), Ok(()));
        assert_eq!(reg.held(), vec![1, 4, 6]);
        assert!(format!("{reg:?}").contains("held: 3"));
        a.release_all();
        drop(b);
        assert!(reg.held().is_empty());
    }

    /// Locks provide real mutual exclusion under parallel contention.
    #[test]
    fn mutual_exclusion_under_contention() {
        let rt = HjRuntime::new(4);
        let reg = LockRegistry::new(1);
        let inside = AtomicUsize::new(0);
        let max_inside = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        rt.finish(|scope| {
            for _ in 0..64 {
                scope.spawn(|| {
                    let mut locker = reg.locker();
                    // Spin with trylock (never blocks), as the DES engine does.
                    loop {
                        if locker.try_lock(0) {
                            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                            max_inside.fetch_max(now, Ordering::SeqCst);
                            inside.fetch_sub(1, Ordering::SeqCst);
                            locker.release_all();
                            done.fetch_add(1, Ordering::SeqCst);
                            break;
                        }
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 64);
        assert_eq!(max_inside.load(Ordering::SeqCst), 1);
        assert!(!reg.is_locked(0));
    }

    /// Ascending-order acquisition guarantees global progress: with several
    /// tasks contending for overlapping lock sets, all of them eventually
    /// complete (the paper's livelock-avoidance argument).
    #[test]
    fn sorted_acquisition_makes_progress() {
        let rt = HjRuntime::new(4);
        let reg = LockRegistry::new(16);
        let done = AtomicUsize::new(0);
        rt.finish(|scope| {
            for t in 0..32u32 {
                let reg = &reg;
                let done = &done;
                scope.spawn(move || {
                    // Overlapping windows of 4 locks each.
                    let base = t % 12;
                    let ids = [base, base + 1, base + 2, base + 3];
                    let mut locker = reg.locker();
                    loop {
                        if locker.try_lock_all(ids.iter().copied()).is_ok() {
                            locker.release_all();
                            done.fetch_add(1, Ordering::SeqCst);
                            break;
                        }
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 32);
        for id in 0..16 {
            assert!(!reg.is_locked(id));
        }
    }
}
