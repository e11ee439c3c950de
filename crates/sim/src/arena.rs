//! Recycled buffer pools for (near-)zero-allocation steady states.
//!
//! Round-based hot loops tend to rebuild the same scratch vectors every
//! round — candidate pools, staging lists — paying a heap round-trip for
//! memory whose size distribution is stationary. [`BufPool`] is a free
//! list of cleared `Vec`s whose capacities are high-water-marked by
//! earlier use, so a steady-state round reuses yesterday's allocations
//! instead of making new ones. [`retype_empty`] carries the capacity of
//! a vector whose element type borrows round-local state from one round
//! to the next.
//!
//! Recycling is **observationally invisible**: a vector taken from the
//! pool is always empty, so the only difference from `Vec::new()` is
//! the retained capacity. The `recycle` switch turns the pool into a
//! pass-through (`take` returns fresh vectors, `put` drops) — the debug
//! knob the determinism tests use to prove no state leaks through a
//! pool between rounds.

/// A free list of cleared, capacity-retaining vectors.
#[derive(Debug, Clone)]
pub struct BufPool<T> {
    free: Vec<Vec<T>>,
    recycle: bool,
    /// Largest capacity ever returned to the pool. [`BufPool::take`]
    /// pre-grows smaller recycled buffers to this mark, so a pool whose
    /// buffers serve variable-sized fills (small repair pools, large
    /// join pools) converges — one growth per buffer — instead of
    /// re-growing a small buffer every time it draws a large fill.
    cap_mark: usize,
}

impl<T> Default for BufPool<T> {
    fn default() -> Self {
        BufPool::new()
    }
}

impl<T> BufPool<T> {
    /// An empty pool with recycling enabled.
    pub fn new() -> Self {
        BufPool {
            free: Vec::new(),
            recycle: true,
            cap_mark: 0,
        }
    }

    /// Enables or disables recycling. Disabling drops the free list, so
    /// every subsequent [`BufPool::take`] allocates fresh — the debug
    /// mode for proving recycled and fresh buffers behave identically.
    pub fn set_recycle(&mut self, on: bool) {
        self.recycle = on;
        if !on {
            self.free.clear();
            self.cap_mark = 0;
        }
    }

    /// Takes an empty vector — recycled (pre-grown to the pool's
    /// high-water capacity) when one is available, freshly allocated
    /// otherwise.
    pub fn take(&mut self) -> Vec<T> {
        match self.free.pop() {
            Some(mut v) => {
                if v.capacity() < self.cap_mark {
                    v.reserve_exact(self.cap_mark);
                }
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns a vector to the pool. It is cleared here; with recycling
    /// off it is dropped instead.
    pub fn put(&mut self, mut v: Vec<T>) {
        if self.recycle {
            v.clear();
            self.cap_mark = self.cap_mark.max(v.capacity());
            self.free.push(v);
        }
    }

    /// Vectors currently parked in the free list.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

/// Reinterprets an **empty** vector's allocation as a vector of a
/// layout-identical element type.
///
/// The intended use is recycling the backing allocation of stage-task
/// vectors whose element type is parameterised by a borrow lifetime
/// (`Vec<Task<'round>>`): the arena stores the capacity between rounds
/// under a `'static` instantiation and each round re-types it for its
/// own borrows. No element values ever cross the boundary — the vector
/// is cleared here — only the raw capacity does.
///
/// # Panics
///
/// Panics if `A` and `B` differ in size or alignment (the two
/// instantiations of one lifetime-generic type never do).
pub fn retype_empty<A, B>(mut v: Vec<A>) -> Vec<B> {
    assert!(
        core::mem::size_of::<A>() == core::mem::size_of::<B>()
            && core::mem::align_of::<A>() == core::mem::align_of::<B>(),
        "retype_empty requires layout-identical element types"
    );
    v.clear();
    let cap = v.capacity();
    let ptr = v.as_mut_ptr();
    core::mem::forget(v);
    // SAFETY: the allocation came from Vec<A> via the global allocator
    // with capacity `cap`; `A` and `B` have identical size and
    // alignment (asserted above), so the array layouts match and the
    // same (ptr, cap) pair describes a valid Vec<B> allocation. Length
    // is zero, so no value of `A` is ever read as a `B`.
    #[allow(unsafe_code)]
    unsafe {
        Vec::from_raw_parts(ptr.cast::<B>(), 0, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retype_empty_preserves_capacity_across_layout_twins() {
        struct Borrowing<'a>(#[allow(dead_code)] Option<&'a mut u64>);
        let mut v: Vec<Borrowing<'static>> = Vec::with_capacity(32);
        let mut x = 7u64;
        let mut round: Vec<Borrowing<'_>> = retype_empty(v);
        round.push(Borrowing(Some(&mut x)));
        round.clear();
        let cap = round.capacity();
        assert!(cap >= 32);
        v = retype_empty(round);
        assert_eq!(v.capacity(), cap, "capacity must survive the round trip");
        assert!(v.is_empty());
    }

    #[test]
    fn take_put_cycles_capacity() {
        let mut pool: BufPool<u32> = BufPool::new();
        let mut v = pool.take();
        v.extend(0..100);
        let cap = v.capacity();
        pool.put(v);
        assert_eq!(pool.idle(), 1);
        let v = pool.take();
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap, "capacity must survive the cycle");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn disabled_pool_hands_out_fresh_vectors() {
        let mut pool: BufPool<u32> = BufPool::new();
        let mut v = pool.take();
        v.extend(0..100);
        pool.set_recycle(false);
        pool.put(v);
        assert_eq!(pool.idle(), 0, "disabled pool must not retain buffers");
        assert_eq!(pool.take().capacity(), 0);
    }
}
