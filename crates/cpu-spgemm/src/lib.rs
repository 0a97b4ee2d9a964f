#![warn(missing_docs)]

//! CPU SpGEMM executors.
//!
//! Six implementations with one signature, `C = A · B` on CSR inputs:
//!
//! * [`reference::multiply`] — sequential Gustavson (paper Algorithm 1);
//!   the ground truth every other executor in the workspace is verified
//!   against.
//! * [`parallel_hash`] — a Nagasaka-et-al.-style multicore two-phase
//!   hash SpGEMM: per-row flop analysis, symbolic count, exact
//!   allocation, numeric fill with per-worker accumulators. This is the
//!   paper's CPU baseline and the CPU side of its hybrid executor
//!   (Section III-C).
//! * [`brmerge`] — BRMerge-style chained merging of sorted rows; wins
//!   on short-row / low-compression products (PAPERS.md).
//! * [`adaptive`] — per-row dispatch between hash, dense, and merge
//!   accumulation via [`accum::choose_row_kernel`]; the default CPU
//!   path ([`CpuKernel::Adaptive`]).
//! * [`dense_blocked`] — a Patwary-et-al.-style variant that partitions
//!   `B` into column panels so a dense accumulator stays cache-resident.
//! * [`mkl_like`] — a baseline constrained to 32-bit `row_offsets` /
//!   `col_ids`, reproducing the MKL limitation that made the paper
//!   reject it ("it can not handle large matrices", Section III-C).
//!
//! All of them produce bit-identical `C`; [`multiply_with_kernel`]
//! dispatches on a [`CpuKernel`] selection.
//!
//! ```
//! use sparse::gen::erdos_renyi;
//!
//! let a = erdos_renyi(100, 100, 0.05, 1);
//! let fast = cpu_spgemm::multiply_parallel(&a, &a).unwrap();
//! let reference = cpu_spgemm::multiply_reference(&a, &a).unwrap();
//! assert!(fast.approx_eq(&reference, 1e-9));
//! ```

pub mod adaptive;
pub mod brmerge;
pub mod dense_blocked;
pub mod mkl_like;
pub mod parallel_hash;
pub mod reference;
pub mod semiring;

pub use adaptive::{multiply_with_picks, KernelPicks};
pub use brmerge::{multiply as multiply_brmerge, multiply_view as multiply_brmerge_view};
pub use parallel_hash::{multiply as multiply_parallel, multiply_view as multiply_parallel_view};
pub use reference::multiply as multiply_reference;
pub use semiring::{multiply_semiring, Semiring};

use sparse::{CsrMatrix, Result, SparseError};
use std::str::FromStr;

/// Which CPU SpGEMM kernel to run — the `spgemm --executor cpu --cpu-kernel`
/// selection. Every variant produces bit-identical `C`; they differ
/// only in speed per row shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CpuKernel {
    /// Two-phase hash SpGEMM ([`parallel_hash`]) — the paper's CPU
    /// baseline.
    Hash,
    /// Column-panelled dense accumulation ([`dense_blocked`]).
    Dense,
    /// Chained row merging ([`brmerge`]).
    Merge,
    /// Per-row dispatch between the three ([`adaptive`]) — the default.
    #[default]
    Adaptive,
}

impl CpuKernel {
    /// Stable lowercase name (CLI value / JSON column).
    pub fn name(&self) -> &'static str {
        match self {
            CpuKernel::Hash => "hash",
            CpuKernel::Dense => "dense",
            CpuKernel::Merge => "merge",
            CpuKernel::Adaptive => "adaptive",
        }
    }

    /// All selectable kernels, fixed kernels first.
    pub fn all() -> [CpuKernel; 4] {
        [
            CpuKernel::Hash,
            CpuKernel::Dense,
            CpuKernel::Merge,
            CpuKernel::Adaptive,
        ]
    }
}

impl FromStr for CpuKernel {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "hash" => Ok(CpuKernel::Hash),
            "dense" => Ok(CpuKernel::Dense),
            "merge" => Ok(CpuKernel::Merge),
            "adaptive" => Ok(CpuKernel::Adaptive),
            other => Err(format!(
                "unknown cpu kernel '{other}' (expected hash, dense, merge, or adaptive)"
            )),
        }
    }
}

impl std::fmt::Display for CpuKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Computes `C = a · b` with the selected [`CpuKernel`].
pub fn multiply_with_kernel(a: &CsrMatrix, b: &CsrMatrix, kernel: CpuKernel) -> Result<CsrMatrix> {
    match kernel {
        CpuKernel::Hash => parallel_hash::multiply(a, b),
        CpuKernel::Dense => dense_blocked::multiply(a, b),
        CpuKernel::Merge => brmerge::multiply(a, b),
        CpuKernel::Adaptive => adaptive::multiply(a, b),
    }
}

pub(crate) fn check_dims(a_rows: usize, a_cols: usize, b_rows: usize, b_cols: usize) -> Result<()> {
    if a_cols != b_rows {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            lhs: (a_rows, a_cols),
            rhs: (b_rows, b_cols),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn dim_check() {
        assert!(super::check_dims(2, 3, 3, 4).is_ok());
        assert!(super::check_dims(2, 3, 4, 4).is_err());
    }
}
