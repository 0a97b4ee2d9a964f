//! Symbolic-phase counters: distinct-column counting without values.
//!
//! The symbolic execution phase (paper Section II-B, Figure 3) only
//! needs `nnz(C_i*)` per output row so the numeric phase can be
//! allocated exactly. These counters are the value-free analogues of
//! the numeric accumulators.

use crate::hash::window_for;
use sparse::ColId;

/// Counts distinct column ids for one row at a time.
pub trait SymbolicCounter {
    /// Records a column hit.
    fn insert(&mut self, col: ColId);
    /// Distinct columns recorded since the last reset.
    fn count(&self) -> usize;
    /// Resets for the next row.
    fn reset(&mut self);
}

/// Dense marker counter with generation stamps (`O(1)` reset).
#[derive(Clone, Debug)]
pub struct DenseCounter {
    stamps: Vec<u32>,
    generation: u32,
    count: usize,
}

impl DenseCounter {
    /// Creates a counter for columns `0..width`.
    pub fn new(width: usize) -> Self {
        DenseCounter {
            stamps: vec![0; width],
            generation: 1,
            count: 0,
        }
    }

    /// Current column width.
    pub fn width(&self) -> usize {
        self.stamps.len()
    }

    /// Grows the counter to cover columns `0..width` (no-op when it
    /// already does). New slots are stamped 0, which no live generation
    /// matches, so pending counts stay correct — this is what lets one
    /// worker-scoped counter be reused across panels of different
    /// widths instead of allocating a width-sized array per panel.
    pub fn ensure_width(&mut self, width: usize) {
        if width > self.stamps.len() {
            self.stamps.resize(width, 0);
        }
    }
}

impl SymbolicCounter for DenseCounter {
    #[inline]
    fn insert(&mut self, col: ColId) {
        let i = col as usize;
        debug_assert!(i < self.stamps.len(), "column {col} out of counter width");
        if self.stamps[i] != self.generation {
            self.stamps[i] = self.generation;
            self.count += 1;
        }
    }

    fn count(&self) -> usize {
        self.count
    }

    fn reset(&mut self) {
        self.count = 0;
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }
}

const EMPTY: ColId = ColId::MAX;

/// Open-addressing hash-set counter.
///
/// Like [`crate::HashAccumulator`], probing runs inside an active
/// window of the first `mask + 1` slots, and every slot outside it is
/// `EMPTY`. [`SymbolicCounter::reset`] clears only the window and then
/// fits it to the row just counted, so after one wide row a pooled
/// counter pays that row's window once, not on every later row.
#[derive(Clone, Debug)]
pub struct HashCounter {
    keys: Vec<ColId>,
    mask: usize,
    count: usize,
    /// Live keys parked during a rehash (kept at high-water capacity).
    rehash: Vec<ColId>,
}

impl HashCounter {
    /// Creates a set sized for about `expected` distinct columns.
    pub fn with_expected(expected: usize) -> Self {
        let cap = window_for(expected);
        HashCounter {
            keys: vec![EMPTY; cap],
            mask: cap - 1,
            count: 0,
            rehash: Vec::new(),
        }
    }

    /// Slots in the active window (what reset scans).
    fn window(&self) -> usize {
        self.mask + 1
    }

    /// Makes the first `window` slots active; slots past the old window
    /// are `EMPTY` by invariant.
    fn set_window(&mut self, window: usize) {
        if window > self.keys.len() {
            self.keys.resize(window, EMPTY);
        }
        self.mask = window - 1;
    }

    fn grow(&mut self) {
        let window = self.window();
        self.rehash.clear();
        for slot in &mut self.keys[..window] {
            let k = std::mem::replace(slot, EMPTY);
            if k != EMPTY {
                self.rehash.push(k);
            }
        }
        self.set_window(window * 2);
        self.count = 0;
        let mut parked = std::mem::take(&mut self.rehash);
        for &k in &parked {
            self.insert(k);
        }
        parked.clear();
        self.rehash = parked;
    }
}

impl SymbolicCounter for HashCounter {
    fn insert(&mut self, col: ColId) {
        debug_assert_ne!(col, EMPTY, "column id u32::MAX is reserved");
        if (self.count + 1) * 2 > self.window() {
            self.grow();
        }
        let mut i = (col.wrapping_mul(2654435769) as usize) & self.mask;
        loop {
            if self.keys[i] == col {
                return;
            }
            if self.keys[i] == EMPTY {
                self.keys[i] = col;
                self.count += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn count(&self) -> usize {
        self.count
    }

    fn reset(&mut self) {
        let window = self.window();
        self.keys[..window].fill(EMPTY);
        // Consecutive rows tend to be alike: start the next one in a
        // window that fits this one.
        self.set_window(window_for(self.count).min(window));
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<C: SymbolicCounter>(mut c: C) {
        c.insert(5);
        c.insert(9);
        c.insert(5);
        c.insert(0);
        assert_eq!(c.count(), 3);
        c.reset();
        assert_eq!(c.count(), 0);
        c.insert(5);
        assert_eq!(c.count(), 1, "reset must forget previous row");
    }

    #[test]
    fn dense_counter_counts_distinct() {
        exercise(DenseCounter::new(16));
    }

    #[test]
    fn hash_counter_counts_distinct() {
        exercise(HashCounter::with_expected(2));
    }

    #[test]
    fn hash_counter_grows() {
        let mut c = HashCounter::with_expected(2);
        for i in 0..1000u32 {
            c.insert(i % 357);
        }
        assert_eq!(c.count(), 357);
    }

    #[test]
    fn hash_counter_reset_fits_window_to_the_last_row() {
        let mut c = HashCounter::with_expected(4);
        for col in 0..10_000u32 {
            c.insert(col * 5);
        }
        assert_eq!(c.count(), 10_000);
        let wide = c.window();
        c.reset();
        assert_eq!(c.window(), wide, "the wide row's window is cleared once");
        for col in [7u32, 3, 7] {
            c.insert(col);
        }
        assert_eq!(c.count(), 2);
        c.reset();
        assert_eq!(c.window(), 8, "a narrow row shrinks the window");
        assert!(c.keys.iter().all(|&k| k == EMPTY));
        c.insert(3);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn counters_agree_on_random_input() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut d = DenseCounter::new(512);
        let mut h = HashCounter::with_expected(8);
        for _ in 0..50 {
            for _ in 0..rng.gen_range(0..200) {
                let col = rng.gen_range(0..512u32);
                d.insert(col);
                h.insert(col);
            }
            assert_eq!(d.count(), h.count());
            d.reset();
            h.reset();
        }
    }
}
