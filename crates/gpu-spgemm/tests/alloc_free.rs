//! Verifies the "zero heap allocation at steady state" claim of the
//! scratch-pooled chunk engine with a counting global allocator: after
//! one warm-up pass grows every pooled structure to its high-water
//! capacity, a second identical pass over the symbolic counting and
//! per-row numeric accumulation must allocate nothing.
//!
//! This file deliberately holds a single `#[test]` — the counter is
//! process-global, and a concurrent test in the same binary would
//! pollute the delta.

use accum::ScratchPool;
use gpu_spgemm::phases;
use sparse::{CsrMatrix, CsrView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One steady-state workload: symbolic counts into a caller slice,
/// then per-row numeric accumulation into caller slices through every
/// pooled entry point — the density-selected `accumulate_row_into`
/// (CPU kernels), the dense-first `dense_row_into` (chunk preparation
/// on panels up to `DENSE_WIDTH_LIMIT`), and the windowed
/// `hash_row_into` (its fallback above that width). Inputs stay under
/// the `ROW_BLOCK` serial threshold so no rayon task machinery
/// allocates.
fn steady_state_pass(
    a: &CsrView<'_>,
    b: &CsrMatrix,
    pool: &ScratchPool,
    row_nnz: &mut [usize],
    out_c: &mut [u32],
    out_v: &mut [f64],
) {
    phases::symbolic_into(a, b, pool, row_nnz);
    let width = b.n_cols();
    let products = |r: usize| {
        a.row_iter(r).flat_map(|(k, a_rk)| {
            b.row_iter(k as usize)
                .map(move |(c, b_kc)| (c, a_rk * b_kc))
        })
    };
    pool.with(|scratch| {
        let mut cursor = 0usize;
        for (r, &expect) in row_nnz.iter().enumerate() {
            if expect == 0 {
                continue;
            }
            let (c, v) = (
                &mut out_c[cursor..cursor + expect],
                &mut out_v[cursor..cursor + expect],
            );
            scratch.accumulate_row_into(products(r), expect, width, c, v);
            scratch.dense_row_into(products(r), width, c, v);
            scratch.hash_row_into(products(r), c, v);
            cursor += expect;
        }
    });
}

#[test]
fn steady_state_chunk_compute_is_allocation_free() {
    // Three chunks of different widths, alternated, so the pass also
    // proves `ensure_width` reuse across panels and the hash table's
    // per-row window (wide rows, then narrow ones) allocate only during
    // warm-up. All stay under ROW_BLOCK rows (serial small path).
    let a1 = sparse::gen::erdos_renyi(200, 180, 0.05, 1);
    let b1 = sparse::gen::erdos_renyi(180, 220, 0.05, 2);
    let a2 = sparse::gen::erdos_renyi(150, 120, 0.08, 3);
    let b2 = sparse::gen::erdos_renyi(120, 90, 0.08, 4);
    let a3 = sparse::gen::erdos_renyi(120, 300, 0.2, 5);
    let b3 = sparse::gen::erdos_renyi(300, 6000, 0.02, 6);
    // A panel wider than DENSE_WIDTH_LIMIT: symbolic counting and
    // density-selected accumulation both take the hash path.
    let a4 = sparse::gen::erdos_renyi(80, 100, 0.1, 7);
    let mut wide = sparse::CooMatrix::new(100, accum::DENSE_WIDTH_LIMIT + 1000);
    for row in 0..100 {
        for j in 0..40 {
            let col = (row * 7919 + j * 104_729) % wide.n_cols();
            wide.push(row, col, 1.0 + j as f64).unwrap();
        }
    }
    let b4 = wide.to_csr();
    assert!([&a1, &a2, &a3, &a4]
        .iter()
        .all(|a| a.n_rows() <= phases::ROW_BLOCK));

    let pool = ScratchPool::new();
    let jobs = [
        (CsrView::of(&a1), &b1),
        (CsrView::of(&a3), &b3),
        (CsrView::of(&a2), &b2),
        (CsrView::of(&a4), &b4),
    ];
    // Output buffers sized once, outside the measured region.
    let mut bufs: Vec<(Vec<usize>, Vec<u32>, Vec<f64>)> = jobs
        .iter()
        .map(|(a, b)| {
            let nnz: usize = phases::symbolic(a, b).iter().sum();
            (vec![0usize; a.n_rows()], vec![0u32; nnz], vec![0.0f64; nnz])
        })
        .collect();

    // Warm-up: grows counters and accumulators to their high-water
    // capacity across all widths.
    for ((a, b), (row_nnz, out_c, out_v)) in jobs.iter().zip(&mut bufs) {
        steady_state_pass(a, b, &pool, row_nnz, out_c, out_v);
    }

    let before = allocations();
    for _ in 0..3 {
        for ((a, b), (row_nnz, out_c, out_v)) in jobs.iter().zip(&mut bufs) {
            steady_state_pass(a, b, &pool, row_nnz, out_c, out_v);
        }
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state symbolic + numeric row compute must not allocate"
    );
}
