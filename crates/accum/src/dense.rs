//! Dense-array accumulation (Patwary et al., spECK dense rows).

use crate::Accumulator;
use sparse::ColId;

/// Accumulates one row in a dense `f64` array indexed by column id.
///
/// Occupancy is tracked with a generation-stamped marker array, so
/// clearing between rows is `O(1)` (bump the generation) rather than
/// `O(width)` — the standard trick that makes dense accumulation
/// practical across millions of rows.
#[derive(Clone, Debug)]
pub struct DenseAccumulator {
    values: Vec<f64>,
    stamps: Vec<u32>,
    generation: u32,
    touched: Vec<ColId>,
}

impl DenseAccumulator {
    /// Creates an accumulator for rows of a matrix (panel) with `width`
    /// columns.
    pub fn new(width: usize) -> Self {
        DenseAccumulator {
            values: vec![0.0; width],
            stamps: vec![0; width],
            generation: 1,
            touched: Vec::new(),
        }
    }

    /// Column width this accumulator serves.
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Grows the accumulator to cover columns `0..width` (no-op when it
    /// already does). New slots carry stamp 0, which no live generation
    /// matches, so they read as untouched; one worker-scoped
    /// accumulator can thus serve panels of different widths without a
    /// fresh width-sized allocation per panel.
    pub fn ensure_width(&mut self, width: usize) {
        if width > self.values.len() {
            self.values.resize(width, 0.0);
            self.stamps.resize(width, 0);
        }
    }

    /// Drains the accumulated row — sorted by column — into the exact
    /// output slices `cols`/`vals` (`len()` entries each), then resets
    /// for the next row. The slice-writing twin of
    /// [`Accumulator::flush_into`], with no staging copy.
    pub fn flush_to_slices(&mut self, cols: &mut [ColId], vals: &mut [f64]) {
        assert_eq!(
            cols.len(),
            self.touched.len(),
            "output slice must fit the row"
        );
        assert_eq!(vals.len(), cols.len(), "output slices must align");
        self.touched.sort_unstable();
        for ((c, v), &t) in cols.iter_mut().zip(vals.iter_mut()).zip(&self.touched) {
            *c = t;
            *v = self.values[t as usize];
        }
        self.touched.clear();
        self.bump_generation();
    }

    fn bump_generation(&mut self) {
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                // Stamp wrap-around: reset all stamps once every 2^32
                // rows instead of clearing values every row.
                self.stamps.fill(0);
                1
            }
        };
    }
}

impl Accumulator for DenseAccumulator {
    #[inline]
    fn add(&mut self, col: ColId, val: f64) {
        let i = col as usize;
        debug_assert!(
            i < self.values.len(),
            "column {col} out of accumulator width"
        );
        if self.stamps[i] == self.generation {
            self.values[i] += val;
        } else {
            self.stamps[i] = self.generation;
            self.values[i] = val;
            self.touched.push(col);
        }
    }

    fn len(&self) -> usize {
        self.touched.len()
    }

    fn flush_into(&mut self, cols: &mut Vec<ColId>, vals: &mut Vec<f64>) {
        let start = cols.len();
        cols.resize(start + self.touched.len(), 0);
        vals.resize(start + self.touched.len(), 0.0);
        self.flush_to_slices(&mut cols[start..], &mut vals[start..]);
    }

    fn clear(&mut self) {
        self.touched.clear();
        self.bump_generation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_sorts() {
        let mut a = DenseAccumulator::new(10);
        a.add(7, 1.0);
        a.add(2, 2.0);
        a.add(7, 3.0);
        assert_eq!(a.len(), 2);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![2, 7]);
        assert_eq!(v, vec![2.0, 4.0]);
        assert!(a.is_empty());
    }

    #[test]
    fn flush_resets_for_next_row() {
        let mut a = DenseAccumulator::new(4);
        a.add(1, 5.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        // Same column again: must start from zero, not 5.0.
        a.add(1, 2.0);
        c.clear();
        v.clear();
        a.flush_into(&mut c, &mut v);
        assert_eq!(v, vec![2.0]);
    }

    #[test]
    fn clear_discards_without_output() {
        let mut a = DenseAccumulator::new(4);
        a.add(0, 1.0);
        a.clear();
        assert!(a.is_empty());
        a.add(0, 3.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(v, vec![3.0]);
    }

    #[test]
    fn flush_appends_to_existing_buffers() {
        let mut a = DenseAccumulator::new(4);
        let mut c = vec![9 as ColId];
        let mut v = vec![9.0];
        a.add(3, 1.5);
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![9, 3]);
        assert_eq!(v, vec![9.0, 1.5]);
    }

    #[test]
    fn zero_sum_entries_stay_structural() {
        let mut a = DenseAccumulator::new(4);
        a.add(2, 1.0);
        a.add(2, -1.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![2]);
        assert_eq!(v, vec![0.0]);
    }

    #[test]
    fn flush_to_slices_writes_sorted_row_and_resets() {
        let mut a = DenseAccumulator::new(16);
        for (col, val) in [(11u32, 1.0), (4, 2.0), (11, 0.25)] {
            a.add(col, val);
        }
        let (mut c, mut v) = ([0u32; 2], [0.0f64; 2]);
        a.flush_to_slices(&mut c, &mut v);
        assert_eq!((c, v), ([4, 11], [2.0, 1.25]));
        assert!(a.is_empty());
        a.add(4, 5.0);
        let (mut c, mut v) = ([0u32; 1], [0.0f64; 1]);
        a.flush_to_slices(&mut c, &mut v);
        assert_eq!((c, v), ([4], [5.0]));
    }

    #[test]
    fn generation_wraparound_is_safe() {
        let mut a = DenseAccumulator::new(2);
        a.generation = u32::MAX - 1;
        a.add(0, 1.0);
        a.clear(); // -> u32::MAX
        a.add(0, 2.0);
        a.clear(); // wraps, stamps reset
        a.add(0, 7.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(v, vec![7.0]);
    }
}
