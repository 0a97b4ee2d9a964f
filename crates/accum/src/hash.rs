//! Hash-map accumulation (Nagasaka et al., spECK sparse rows).
//!
//! "The hashmap method first allocates memory space based on an upper
//! bound estimation of the size of the hash table. It then inserts
//! values using the column ids of the intermediate results as the key.
//! Then, it sorts the values of each row" (paper Section II-B).

use crate::Accumulator;
use sparse::ColId;

const EMPTY: ColId = ColId::MAX;

/// Open-addressing (linear probing) hash accumulator.
///
/// Probing runs inside an *active window*: the first `mask + 1` slots
/// of the backing arrays, a power of two. The window grows (doubling)
/// when the load factor would exceed 1/2, and [`begin_row`] resizes it
/// to a row's expected output. Flush and clear touch only the window;
/// every slot outside it is always `EMPTY`. So a pooled accumulator
/// that once served a very wide row keeps that capacity for reuse, yet
/// each later row pays only for its own window. The hash is a
/// Fibonacci multiplicative mix, cheap and adequate for integer keys.
///
/// [`begin_row`]: HashAccumulator::begin_row
#[derive(Clone, Debug)]
pub struct HashAccumulator {
    keys: Vec<ColId>,
    vals: Vec<f64>,
    mask: usize,
    len: usize,
    /// Live entries parked during a rehash; kept at its high-water
    /// capacity so growth allocates nothing at steady state.
    rehash: Vec<(ColId, f64)>,
}

#[inline]
fn hash(col: ColId, mask: usize) -> usize {
    // Fibonacci hashing: multiply by 2^32 / phi, take high bits via mask.
    (col.wrapping_mul(2654435769) as usize) & mask
}

/// Window (slot count) that holds `expected` distinct columns at a load
/// factor of at most 1/2.
#[inline]
pub(crate) fn window_for(expected: usize) -> usize {
    (expected.max(4) * 2).next_power_of_two()
}

impl HashAccumulator {
    /// Creates a table sized for about `expected` distinct columns
    /// (the upper-bound estimate from the symbolic analysis).
    pub fn with_expected(expected: usize) -> Self {
        let cap = window_for(expected);
        HashAccumulator {
            keys: vec![EMPTY; cap],
            vals: vec![0.0; cap],
            mask: cap - 1,
            len: 0,
            rehash: Vec::new(),
        }
    }

    /// Slots allocated behind the table — the high-water window.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Slots in the active window (what flush and clear scan).
    fn window(&self) -> usize {
        self.mask + 1
    }

    /// Starts a row expected to hold about `expected` distinct columns:
    /// sets the active window to fit it, shrinking after a wide row or
    /// widening (within the retained capacity when possible). The
    /// accumulator must be empty.
    pub fn begin_row(&mut self, expected: usize) {
        assert_eq!(self.len, 0, "begin_row on a non-empty accumulator");
        self.set_window(window_for(expected));
    }

    /// Makes the first `window` slots active. Slots past the old window
    /// are `EMPTY` by invariant, so only the backing arrays may need to
    /// grow.
    fn set_window(&mut self, window: usize) {
        if window > self.keys.len() {
            self.keys.resize(window, EMPTY);
            self.vals.resize(window, 0.0);
        }
        self.mask = window - 1;
    }

    fn grow(&mut self) {
        let window = self.window();
        self.rehash.clear();
        for i in 0..window {
            let k = std::mem::replace(&mut self.keys[i], EMPTY);
            if k != EMPTY {
                self.rehash.push((k, self.vals[i]));
            }
        }
        self.set_window(window * 2);
        self.len = 0;
        let mut parked = std::mem::take(&mut self.rehash);
        for &(k, v) in &parked {
            self.add(k, v);
        }
        parked.clear();
        self.rehash = parked;
    }

    /// Drains the accumulated row — sorted by column — into the exact
    /// output slices `cols`/`vals` (`len()` entries each), then clears
    /// the window. The slice-writing twin of
    /// [`Accumulator::flush_into`], with no staging copy.
    pub fn flush_to_slices(&mut self, cols: &mut [ColId], vals: &mut [f64]) {
        assert_eq!(cols.len(), self.len, "output slice must fit the row");
        assert_eq!(vals.len(), self.len, "output slices must align");
        let mut n = 0usize;
        for i in 0..self.window() {
            let k = std::mem::replace(&mut self.keys[i], EMPTY);
            if k != EMPTY {
                cols[n] = k;
                vals[n] = self.vals[i];
                n += 1;
            }
        }
        self.len = 0;
        crate::sort::co_sort_pairs(cols, vals);
    }
}

impl Accumulator for HashAccumulator {
    fn add(&mut self, col: ColId, val: f64) {
        debug_assert_ne!(col, EMPTY, "column id u32::MAX is reserved");
        if (self.len + 1) * 2 > self.window() {
            self.grow();
        }
        let mut i = hash(col, self.mask);
        loop {
            if self.keys[i] == col {
                self.vals[i] += val;
                return;
            }
            if self.keys[i] == EMPTY {
                self.keys[i] = col;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn flush_into(&mut self, cols: &mut Vec<ColId>, vals: &mut Vec<f64>) {
        let start = cols.len();
        cols.resize(start + self.len, 0);
        vals.resize(start + self.len, 0.0);
        // Sorting in place, values in tandem, is bit-identical to the
        // permutation-vector sort it replaced (keys are distinct) —
        // without that path's three per-row heap allocations.
        self.flush_to_slices(&mut cols[start..], &mut vals[start..]);
    }

    fn clear(&mut self) {
        let window = self.window();
        self.keys[..window].fill(EMPTY);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_sorts() {
        let mut a = HashAccumulator::with_expected(4);
        a.add(90, 1.0);
        a.add(5, 2.0);
        a.add(90, 0.5);
        a.add(42, 3.0);
        assert_eq!(a.len(), 3);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![5, 42, 90]);
        assert_eq!(v, vec![2.0, 3.0, 1.5]);
        assert!(a.is_empty());
    }

    #[test]
    fn grows_past_initial_estimate() {
        let mut a = HashAccumulator::with_expected(2);
        let initial_cap = a.capacity();
        for col in 0..100u32 {
            a.add(col, col as f64);
        }
        assert_eq!(a.len(), 100);
        assert!(a.capacity() > initial_cap);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c.len(), 100);
        assert_eq!(c, (0..100u32).collect::<Vec<_>>());
        assert_eq!(v[7], 7.0);
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Keys that collide under the Fibonacci hash with a tiny table.
        let mut a = HashAccumulator::with_expected(4);
        let mask = a.capacity() - 1;
        let base = 3u32;
        let h = hash(base, mask);
        // Find another key with the same initial slot.
        let other = (base + 1..10_000).find(|&k| hash(k, mask) == h).unwrap();
        a.add(base, 1.0);
        a.add(other, 2.0);
        a.add(base, 1.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c.len(), 2);
        let i = c.iter().position(|&x| x == base).unwrap();
        assert_eq!(v[i], 2.0);
    }

    #[test]
    fn flush_appends_after_existing() {
        let mut a = HashAccumulator::with_expected(4);
        a.add(1, 1.0);
        let mut c = vec![99u32];
        let mut v = vec![99.0];
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![99, 1]);
        assert_eq!(v, vec![99.0, 1.0]);
    }

    /// The old flush path, preserved verbatim as the equivalence oracle
    /// for the in-place co-sort (also exercised by `benches/chunk_prep`).
    fn flush_into_reference(a: &mut HashAccumulator, cols: &mut Vec<ColId>, vals: &mut Vec<f64>) {
        let start = cols.len();
        for (i, &k) in a.keys.iter().enumerate() {
            if k != EMPTY {
                cols.push(k);
                vals.push(a.vals[i]);
            }
        }
        let slice = &mut cols[start..];
        let mut perm: Vec<u32> = (0..slice.len() as u32).collect();
        perm.sort_unstable_by_key(|&i| slice[i as usize]);
        let sorted_cols: Vec<ColId> = perm.iter().map(|&i| slice[i as usize]).collect();
        let vslice = &mut vals[start..];
        let sorted_vals: Vec<f64> = perm.iter().map(|&i| vslice[i as usize]).collect();
        cols[start..].copy_from_slice(&sorted_cols);
        vals[start..].copy_from_slice(&sorted_vals);
        a.clear();
    }

    #[test]
    fn in_place_flush_matches_old_path_on_duplicate_heavy_rows() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(71);
        for row in 0..200 {
            let mut a = HashAccumulator::with_expected(4);
            let mut b = HashAccumulator::with_expected(4);
            // Duplicate-heavy: few distinct columns, many hits each, so
            // merged sums and the sort both do real work.
            let distinct = rng.gen_range(1..40u32);
            for _ in 0..rng.gen_range(1..400) {
                let col = rng.gen_range(0..distinct) * 7;
                let val = rng.gen_range(-4.0..4.0);
                a.add(col, val);
                b.add(col, val);
            }
            let (mut c_new, mut v_new) = (vec![123u32], vec![123.0]);
            let (mut c_old, mut v_old) = (vec![123u32], vec![123.0]);
            a.flush_into(&mut c_new, &mut v_new);
            flush_into_reference(&mut b, &mut c_old, &mut v_old);
            assert_eq!(c_new, c_old, "row {row}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&v_new),
                bits(&v_old),
                "row {row}: values must be bit-identical"
            );
        }
    }

    #[test]
    fn narrow_row_after_wide_row_uses_a_small_window() {
        let mut pooled = HashAccumulator::with_expected(4);
        pooled.begin_row(10_000);
        for col in 0..10_000u32 {
            pooled.add(col * 3, f64::from(col));
        }
        let (mut c, mut v) = (Vec::new(), Vec::new());
        pooled.flush_into(&mut c, &mut v);
        assert_eq!(c.len(), 10_000);
        let high_water = pooled.capacity();
        assert!(high_water >= 20_000);

        let row = [(90u32, 1.0), (5, 2.0), (90, 0.5), (42, 3.0)];
        let mut fresh = HashAccumulator::with_expected(3);
        pooled.begin_row(3);
        for (col, val) in row {
            pooled.add(col, val);
            fresh.add(col, val);
        }
        let (mut pc, mut pv) = (Vec::new(), Vec::new());
        let (mut fc, mut fv) = (Vec::new(), Vec::new());
        pooled.flush_into(&mut pc, &mut pv);
        fresh.flush_into(&mut fc, &mut fv);
        assert_eq!(pc, fc);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pv), bits(&fv));
        // The narrow row ran in its own small window; the wide row's
        // capacity is retained for reuse, not scanned.
        assert_eq!(pooled.window(), fresh.window());
        assert_eq!(pooled.window(), 8);
        assert_eq!(pooled.capacity(), high_water);
        assert!(
            pooled.keys.iter().all(|&k| k == EMPTY),
            "flush leaves no key behind"
        );
    }

    #[test]
    fn growth_widens_the_window_within_retained_capacity() {
        let mut a = HashAccumulator::with_expected(1000);
        let cap = a.capacity();
        a.begin_row(2);
        assert_eq!(a.window(), 8);
        for col in 0..100u32 {
            a.add(col * 7, 1.0);
            a.add(col * 7, 0.5);
        }
        assert!(a.window() >= 200 && a.window() <= cap);
        assert_eq!(a.capacity(), cap, "growth reused the retained slots");
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, (0..100u32).map(|x| x * 7).collect::<Vec<_>>());
        assert!(v.iter().all(|&x| x == 1.5));
    }

    #[test]
    fn flush_to_slices_writes_sorted_row() {
        let mut a = HashAccumulator::with_expected(4);
        for (col, val) in [(9u32, 1.0), (2, 2.0), (9, 3.0)] {
            a.add(col, val);
        }
        let (mut c, mut v) = ([0u32; 2], [0.0f64; 2]);
        a.flush_to_slices(&mut c, &mut v);
        assert_eq!((c, v), ([2, 9], [2.0, 4.0]));
        assert!(a.is_empty());
    }

    #[test]
    fn reuse_after_flush_is_clean() {
        let mut a = HashAccumulator::with_expected(8);
        a.add(3, 4.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        a.add(3, 1.0);
        c.clear();
        v.clear();
        a.flush_into(&mut c, &mut v);
        assert_eq!(v, vec![1.0]);
    }
}
