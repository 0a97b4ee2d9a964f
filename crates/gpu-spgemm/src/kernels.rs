//! The in-core numeric engine, structured exactly like the simulated
//! kernels it is charged as.
//!
//! Figure 3 of the paper: after the symbolic phase, "we re-assign rows
//! of matrix A based on the number of non-zero elements to achieve
//! global load balance again and invoke kernels to do the actual
//! computations ... we use dense accumulation for dense rows and the
//! hashmap methods for sparse rows". This module executes that plan on
//! the host: rows are grouped by output size and each group runs as
//! one "kernel" (a rayon parallel pass), so the real computation and
//! the simulated kernel launches correspond one to one.
//!
//! The simulated per-group kernel charges come from [`NumericGroups`]
//! alone and do not depend on which host accumulator computes a row.
//! The host accumulator is picked by *panel width*, not row density:
//! [`numeric_by_groups_with`] accumulates every row of a panel at most
//! [`DENSE_WIDTH_LIMIT`] columns wide in the pooled dense array (it
//! fits in cache, and a generation-stamped array costs `O(touched)`
//! per row however sparse the row is), and falls back to the hash
//! table only above that width. Both accumulators fold each column's
//! products in the same order and flush sorted, so the choice never
//! changes a bit of the product.

use accum::{
    choose_accumulator, Accumulator, AccumulatorKind, DenseAccumulator, HashAccumulator,
    ScratchPool, DENSE_WIDTH_LIMIT,
};
use rayon::prelude::*;
use sparse::{ColId, CsrMatrix, CsrView};

/// Output-size boundaries for the numeric row groups (rows with
/// `nnz(C_i*) <= bound`), mirroring the magnitude classes the flop
/// grouping uses for the symbolic phase.
pub const NNZ_GROUP_BOUNDS: [usize; 4] = [32, 512, 8192, usize::MAX];

/// Numeric-phase row groups: rows binned by *output* size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NumericGroups {
    /// Row indices per group, small outputs first.
    pub groups: Vec<Vec<u32>>,
    /// Total flops per group (what each kernel launch is charged).
    pub group_flops: Vec<u64>,
}

impl NumericGroups {
    /// Bins rows by their exact symbolic output sizes; rows with empty
    /// output are dropped. `row_flops` supplies the per-group kernel
    /// charges.
    pub fn from_row_nnz(row_nnz: &[usize], row_flops: &[u64]) -> Self {
        assert_eq!(row_nnz.len(), row_flops.len(), "per-row arrays must align");
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); NNZ_GROUP_BOUNDS.len()];
        let mut group_flops = vec![0u64; NNZ_GROUP_BOUNDS.len()];
        for (r, (&nnz, &flops)) in row_nnz.iter().zip(row_flops).enumerate() {
            if nnz == 0 {
                continue;
            }
            let g = NNZ_GROUP_BOUNDS.iter().position(|&b| nnz <= b).unwrap();
            groups[g].push(r as u32);
            group_flops[g] += flops;
        }
        let kept: Vec<(Vec<u32>, u64)> = groups
            .into_iter()
            .zip(group_flops)
            .filter(|(g, _)| !g.is_empty())
            .collect();
        let (groups, group_flops) = kept.into_iter().unzip();
        NumericGroups {
            groups,
            group_flops,
        }
    }

    /// Number of non-empty groups (== numeric kernel launches).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if no row produces output.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Executes the numeric phase group by group with worker scratch
/// leased from `pool`.
///
/// `row_nnz` must be the exact symbolic output sizes (the allocation
/// is exact, as in the two-phase strategy). Returns the chunk product
/// with local column ids.
///
/// Every row of a panel at most [`DENSE_WIDTH_LIMIT`] wide accumulates
/// in the pooled dense array; wider panels use the pooled hash table
/// with a window sized to the row. Either way the row is flushed sorted
/// straight into its exact output slices. Per-row compute is
/// allocation-free at steady state: the accumulators come from the
/// pool at their high-water capacity, and only the output arrays
/// (exact-sized from the symbolic phase) are allocated here. Results
/// are bit-identical to [`numeric_by_groups`], whose density-based
/// accumulator choice this engine does not share: per-row product order
/// is unchanged, and both accumulators fold a column in that order and
/// flush distinct columns sorted.
pub fn numeric_by_groups_with(
    a_panel: &CsrView<'_>,
    b_panel: &CsrMatrix,
    row_nnz: &[usize],
    groups: &NumericGroups,
    pool: &ScratchPool,
) -> CsrMatrix {
    assert_eq!(
        a_panel.n_cols(),
        b_panel.n_rows(),
        "panel dimensions must agree"
    );
    assert_eq!(row_nnz.len(), a_panel.n_rows(), "one symbolic size per row");
    let n_rows = a_panel.n_rows();
    let width = b_panel.n_cols();
    let dense = width <= DENSE_WIDTH_LIMIT;

    // Exact allocation from the symbolic sizes.
    let mut offsets = Vec::with_capacity(n_rows + 1);
    offsets.push(0usize);
    for &n in row_nnz {
        offsets.push(offsets.last().unwrap() + n);
    }
    let nnz = *offsets.last().unwrap();
    let mut cols = vec![0 as ColId; nnz];
    let mut vals = vec![0.0f64; nnz];

    // Hand each row its disjoint output slice, then fill group by
    // group ("one kernel per group") with pooled worker scratch.
    type RowSlice<'s> = (&'s mut [ColId], &'s mut [f64]);
    let mut row_slices: Vec<Option<RowSlice<'_>>> = Vec::with_capacity(n_rows);
    {
        let mut rest_c: &mut [ColId] = &mut cols;
        let mut rest_v: &mut [f64] = &mut vals;
        for &len in row_nnz.iter() {
            let (head_c, tail_c) = rest_c.split_at_mut(len);
            let (head_v, tail_v) = rest_v.split_at_mut(len);
            row_slices.push(Some((head_c, head_v)));
            rest_c = tail_c;
            rest_v = tail_v;
        }
    }

    for group in &groups.groups {
        let mut work: Vec<(u32, RowSlice<'_>)> = group
            .iter()
            .map(|&r| {
                (
                    r,
                    row_slices[r as usize]
                        .take()
                        .expect("row in one group only"),
                )
            })
            .collect();
        work.par_chunks_mut(64).for_each(|rows| {
            pool.with(|scratch| {
                for (r, (out_c, out_v)) in rows {
                    let products = a_panel.row_iter(*r as usize).flat_map(|(k, a_rk)| {
                        b_panel
                            .row_iter(k as usize)
                            .map(move |(c, b_kc)| (c, a_rk * b_kc))
                    });
                    if dense {
                        scratch.dense_row_into(products, width, out_c, out_v);
                    } else {
                        scratch.hash_row_into(products, out_c, out_v);
                    }
                }
            });
        });
    }

    CsrMatrix::from_parts_unchecked(n_rows, width, offsets, cols, vals)
}

/// Executes the numeric phase group by group.
///
/// `row_nnz` must be the exact symbolic output sizes (the allocation
/// is exact, as in the two-phase strategy). Returns the chunk product
/// with local column ids.
///
/// This is the pre-pool engine — fresh accumulators per worker task,
/// picked per row by the density rule ([`choose_accumulator`]) —
/// retained unchanged as the equivalence oracle and bench baseline;
/// steady-state callers should share a [`ScratchPool`] through
/// [`numeric_by_groups_with`] instead.
pub fn numeric_by_groups(
    a_panel: &CsrView<'_>,
    b_panel: &CsrMatrix,
    row_nnz: &[usize],
    groups: &NumericGroups,
) -> CsrMatrix {
    assert_eq!(
        a_panel.n_cols(),
        b_panel.n_rows(),
        "panel dimensions must agree"
    );
    assert_eq!(row_nnz.len(), a_panel.n_rows(), "one symbolic size per row");
    let n_rows = a_panel.n_rows();
    let width = b_panel.n_cols();

    // Exact allocation from the symbolic sizes.
    let mut offsets = Vec::with_capacity(n_rows + 1);
    offsets.push(0usize);
    for &n in row_nnz {
        offsets.push(offsets.last().unwrap() + n);
    }
    let nnz = *offsets.last().unwrap();
    let mut cols = vec![0 as ColId; nnz];
    let mut vals = vec![0.0f64; nnz];

    // Hand each row its disjoint output slice, then fill group by
    // group ("one kernel per group") with per-worker accumulators.
    type RowSlice<'s> = (&'s mut [ColId], &'s mut [f64]);
    let mut row_slices: Vec<Option<RowSlice<'_>>> = Vec::with_capacity(n_rows);
    {
        let mut rest_c: &mut [ColId] = &mut cols;
        let mut rest_v: &mut [f64] = &mut vals;
        for &len in row_nnz.iter() {
            let (head_c, tail_c) = rest_c.split_at_mut(len);
            let (head_v, tail_v) = rest_v.split_at_mut(len);
            row_slices.push(Some((head_c, head_v)));
            rest_c = tail_c;
            rest_v = tail_v;
        }
    }

    for group in &groups.groups {
        // Collect this group's slices (taking them out of the shared
        // vector so the parallel pass owns them exclusively).
        let mut work: Vec<(u32, RowSlice<'_>)> = group
            .iter()
            .map(|&r| {
                (
                    r,
                    row_slices[r as usize]
                        .take()
                        .expect("row in one group only"),
                )
            })
            .collect();
        work.par_chunks_mut(64).for_each(|rows| {
            let mut dense: Option<DenseAccumulator> = None;
            let mut hash = HashAccumulator::with_expected(64);
            let mut scratch_c: Vec<ColId> = Vec::new();
            let mut scratch_v: Vec<f64> = Vec::new();
            for (r, (out_c, out_v)) in rows {
                let r = *r as usize;
                scratch_c.clear();
                scratch_v.clear();
                let kind = if width <= (1 << 17) {
                    choose_accumulator(out_c.len(), width)
                } else {
                    AccumulatorKind::Hash
                };
                match kind {
                    AccumulatorKind::Dense => {
                        let acc = dense.get_or_insert_with(|| DenseAccumulator::new(width));
                        fill_row(a_panel, b_panel, r, acc);
                        acc.flush_into(&mut scratch_c, &mut scratch_v);
                    }
                    AccumulatorKind::Hash => {
                        fill_row(a_panel, b_panel, r, &mut hash);
                        hash.flush_into(&mut scratch_c, &mut scratch_v);
                    }
                }
                debug_assert_eq!(scratch_c.len(), out_c.len(), "symbolic mismatch row {r}");
                out_c.copy_from_slice(&scratch_c);
                out_v.copy_from_slice(&scratch_v);
            }
        });
    }

    CsrMatrix::from_parts_unchecked(n_rows, width, offsets, cols, vals)
}

#[inline]
fn fill_row<A: Accumulator>(a: &CsrView<'_>, b: &CsrMatrix, r: usize, acc: &mut A) {
    for (k, a_rk) in a.row_iter(r) {
        for (c, b_kc) in b.row_iter(k as usize) {
            acc.add(c, a_rk * b_kc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{row_analysis, symbolic};
    use cpu_spgemm::reference;
    use sparse::gen::{erdos_renyi, grid2d_stencil, rmat, RmatConfig};

    fn run_engine(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        let av = CsrView::of(a);
        let row_flops = row_analysis(&av, b);
        let row_nnz = symbolic(&av, b);
        let groups = NumericGroups::from_row_nnz(&row_nnz, &row_flops);
        numeric_by_groups(&av, b, &row_nnz, &groups)
    }

    #[test]
    fn matches_reference_on_random() {
        let a = erdos_renyi(150, 130, 0.07, 1);
        let b = erdos_renyi(130, 170, 0.07, 2);
        let got = run_engine(&a, &b);
        got.validate().unwrap();
        let expect = reference::multiply(&a, &b).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn matches_reference_on_skewed_and_regular() {
        for a in [
            rmat(RmatConfig::skewed(9, 5000), 3),
            grid2d_stencil(18, 18, 2, 4),
        ] {
            let got = run_engine(&a, &a);
            let expect = reference::multiply(&a, &a).unwrap();
            assert!(got.approx_eq(&expect, 1e-9));
        }
    }

    #[test]
    fn groups_partition_productive_rows() {
        let row_nnz = vec![0usize, 5, 40, 1000, 10000, 1];
        let row_flops = vec![0u64, 10, 80, 2000, 20000, 2];
        let g = NumericGroups::from_row_nnz(&row_nnz, &row_flops);
        let total_rows: usize = g.groups.iter().map(|v| v.len()).sum();
        assert_eq!(total_rows, 5, "zero-output rows dropped");
        let total_flops: u64 = g.group_flops.iter().sum();
        assert_eq!(total_flops, 22092);
        // Rows 1 (5) and 5 (1) fall in the <=32 group.
        assert_eq!(g.groups[0], vec![1, 5]);
    }

    #[test]
    fn pooled_engine_is_bit_identical_to_unpooled() {
        let pool = ScratchPool::new();
        for (a, b) in [
            (
                erdos_renyi(150, 130, 0.07, 1),
                erdos_renyi(130, 170, 0.07, 2),
            ),
            (
                rmat(RmatConfig::skewed(8, 3000), 3),
                rmat(RmatConfig::skewed(8, 3000), 9),
            ),
        ] {
            let av = CsrView::of(&a);
            let row_flops = row_analysis(&av, &b);
            let row_nnz = symbolic(&av, &b);
            let groups = NumericGroups::from_row_nnz(&row_nnz, &row_flops);
            // Reusing one pool across products must not leak state.
            let pooled = numeric_by_groups_with(&av, &b, &row_nnz, &groups, &pool);
            let fresh = numeric_by_groups(&av, &b, &row_nnz, &groups);
            assert_eq!(pooled.row_offsets(), fresh.row_offsets());
            assert_eq!(pooled.col_ids(), fresh.col_ids());
            let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pooled), bits(&fresh), "values must be bit-identical");
        }
    }

    #[test]
    fn empty_product_is_well_formed() {
        let a = CsrMatrix::zeros(6, 5);
        let b = CsrMatrix::zeros(5, 7);
        let got = run_engine(&a, &b);
        assert_eq!(got.n_rows(), 6);
        assert_eq!(got.n_cols(), 7);
        assert_eq!(got.nnz(), 0);
    }

    #[test]
    fn every_group_density_uses_matching_accumulator_path() {
        // A matrix engineered so output rows land in all four numeric
        // groups. Rows 100.. are an identity tail, so a row with k
        // distinct entries into that tail produces exactly k outputs.
        let n = 16384usize;
        let mut coo = sparse::CooMatrix::new(n, n);
        let sizes = [20usize, 200, 2000, 10000]; // one per group bound
        for (r, &k) in sizes.iter().enumerate() {
            for i in 0..k {
                coo.push(r, 100 + i, 1.0).unwrap();
            }
        }
        for r in 100..n {
            coo.push(r, r, 2.0).unwrap();
        }
        let a = coo.to_csr();
        let got = run_engine(&a, &a);
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
        // The grouping spans all four classes.
        let av = CsrView::of(&a);
        let row_nnz = crate::phases::symbolic(&av, &a);
        let row_flops = crate::phases::row_analysis(&av, &a);
        assert_eq!(&row_nnz[..4], &sizes);
        let g = NumericGroups::from_row_nnz(&row_nnz, &row_flops);
        assert_eq!(g.len(), 4, "expected all four numeric groups");
    }
}
