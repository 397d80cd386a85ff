use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A finite pool of identical resources (physical registers, reservation
/// station entries, queue slots, functional-unit issue slots) tracked by
/// release cycle, as a min-heap — the occupancy structure of the staged
/// reference model (test builds only; the streamed engine's `MonoRing`
/// and `SlotPool` stand in for it in production).
///
/// `acquire(cycle)` returns the earliest cycle at or after `cycle` when an
/// entry is available; the caller then registers the entry's release with
/// `release_at`. This is the standard occupancy model for dependence-driven
/// timers: allocation order is program order, so a full pool delays
/// dispatch until the oldest holder releases.
#[derive(Debug, Clone)]
pub(crate) struct ResourcePool {
    capacity: usize,
    releases: BinaryHeap<Reverse<u64>>,
}

impl ResourcePool {
    /// Creates a pool with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "resource pool capacity must be positive");
        ResourcePool { capacity, releases: BinaryHeap::with_capacity(capacity + 1) }
    }

    /// Acquires one entry at or after `cycle`, returning the actual
    /// acquisition cycle (delayed to the earliest release when the pool is
    /// full). The caller must pair this with exactly one
    /// [`ResourcePool::release_at`].
    pub(crate) fn acquire(&mut self, cycle: u64) -> u64 {
        // Drop bookkeeping for entries already free at `cycle`.
        while let Some(&Reverse(r)) = self.releases.peek() {
            if r <= cycle && self.releases.len() == self.capacity {
                self.releases.pop();
            } else {
                break;
            }
        }
        if self.releases.len() < self.capacity {
            cycle
        } else {
            let Reverse(earliest) = self.releases.pop().expect("full pool has entries");
            earliest.max(cycle)
        }
    }

    /// Registers that the most recently acquired entry frees at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if called more times than `acquire` (occupancy underflow is a
    /// program error).
    pub(crate) fn release_at(&mut self, cycle: u64) {
        assert!(self.releases.len() < self.capacity, "release_at without matching acquire");
        self.releases.push(Reverse(cycle));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_without_contention_is_immediate() {
        let mut p = ResourcePool::new(4);
        for c in [5, 6, 7, 8] {
            assert_eq!(p.acquire(c), c);
            p.release_at(c + 100);
        }
    }

    #[test]
    fn full_pool_delays_to_earliest_release() {
        let mut p = ResourcePool::new(2);
        assert_eq!(p.acquire(0), 0);
        p.release_at(10);
        assert_eq!(p.acquire(0), 0);
        p.release_at(20);
        // Both busy; earliest release is 10.
        assert_eq!(p.acquire(3), 10);
        p.release_at(30);
        // Now releases are {20, 30}; next goes at 20.
        assert_eq!(p.acquire(3), 20);
        p.release_at(40);
    }

    #[test]
    fn released_entries_are_reusable() {
        let mut p = ResourcePool::new(1);
        assert_eq!(p.acquire(0), 0);
        p.release_at(5);
        // At cycle 6 the single entry is free again.
        assert_eq!(p.acquire(6), 6);
        p.release_at(7);
        assert_eq!(p.acquire(6), 7);
        p.release_at(8);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ResourcePool::new(0);
    }

    #[test]
    #[should_panic(expected = "without matching acquire")]
    fn unbalanced_release_panics() {
        let mut p = ResourcePool::new(1);
        p.release_at(1);
        p.release_at(2);
    }
}
