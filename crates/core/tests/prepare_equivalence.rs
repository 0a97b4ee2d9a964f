//! Pins the parallel, scratch-pooled grid preparation to the serial
//! engine it replaced: for any input and panel grid, `prepare_grid`
//! must produce **bit-identical** `PreparedChunk`s — every descriptor
//! field, the group structures, and the raw f64 bit patterns of the
//! chunk results — in the same row-major slot order as
//! `prepare_grid_serial`, however many host workers share the grid.
//!
//! Why this can hold exactly (DESIGN.md §11): chunk content is a pure
//! function of its panels; per-row product accumulation order is
//! unchanged by row-level parallelism; hash flushes sort distinct
//! columns, so pooled accumulator capacity is invisible; and dense
//! scratch is generation-stamped, so reuse across panels of different
//! widths is invisible.

use gpu_spgemm::PreparedChunk;
use oocgemm::{prepare_grid, prepare_grid_serial, OocConfig, PreparedGrid};
use proptest::prelude::*;
use sparse::gen::{erdos_renyi, grid2d_stencil, rmat, RmatConfig};
use sparse::{CooMatrix, CsrMatrix};

fn assert_chunks_identical(got: &PreparedChunk, expect: &PreparedChunk, ctx: &str) {
    assert_eq!(got.chunk_id, expect.chunk_id, "{ctx}: chunk_id");
    assert_eq!(
        got.result.row_offsets(),
        expect.result.row_offsets(),
        "{ctx}: offsets"
    );
    assert_eq!(got.result.col_ids(), expect.result.col_ids(), "{ctx}: cols");
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.result),
        bits(&expect.result),
        "{ctx}: values must be bit-identical"
    );
    assert_eq!(got.groups, expect.groups, "{ctx}: row groups");
    assert_eq!(
        got.numeric_groups, expect.numeric_groups,
        "{ctx}: numeric groups"
    );
    assert_eq!(got.flops, expect.flops, "{ctx}: flops");
    assert_eq!(got.nnz, expect.nnz, "{ctx}: nnz");
    assert_eq!(
        got.compression_ratio.to_bits(),
        expect.compression_ratio.to_bits(),
        "{ctx}: compression ratio"
    );
    assert_eq!(got.rows, expect.rows, "{ctx}: rows");
    assert_eq!(got.a_nnz, expect.a_nnz, "{ctx}: a_nnz");
    assert_eq!(got.a_bytes, expect.a_bytes, "{ctx}: a_bytes");
    assert_eq!(got.b_bytes, expect.b_bytes, "{ctx}: b_bytes");
    assert_eq!(got.row_info_bytes, expect.row_info_bytes, "{ctx}: row_info");
    assert_eq!(got.row_nnz_bytes, expect.row_nnz_bytes, "{ctx}: row_nnz");
    assert_eq!(got.out_bytes, expect.out_bytes, "{ctx}: out_bytes");
}

fn assert_grids_identical(par: &PreparedGrid, ser: &PreparedGrid) {
    assert_eq!(par.plan.row_ranges, ser.plan.row_ranges);
    assert_eq!(par.plan.col_ranges, ser.plan.col_ranges);
    assert_eq!(par.row_flops_prefix, ser.row_flops_prefix);
    assert_eq!(par.prepared.len(), ser.prepared.len());
    for (i, (p, s)) in par.prepared.iter().zip(&ser.prepared).enumerate() {
        assert_chunks_identical(p, s, &format!("chunk {i}"));
    }
}

fn check(a: &CsrMatrix, b: &CsrMatrix, row_panels: usize, col_panels: usize) {
    let cfg = OocConfig::with_device_memory(64 << 20).panels(row_panels, col_panels);
    let ser = prepare_grid_serial(a, b, &cfg).expect("serial grid");
    let par = prepare_grid(a, b, &cfg).expect("parallel grid");
    assert_grids_identical(&par, &ser);
}

#[test]
fn generators_match_serial_across_panel_grids() {
    let rm = rmat(RmatConfig::skewed(9, 6000), 11);
    let er = erdos_renyi(500, 400, 0.02, 3);
    let er_b = erdos_renyi(400, 350, 0.02, 4);
    let st = grid2d_stencil(24, 24, 2, 5);
    // Includes single-column-panel grids, which exercise the cached
    // flop-prefix fast path.
    check(&rm, &rm, 2, 3);
    check(&rm, &rm, 3, 1);
    check(&er, &er_b, 1, 2);
    check(&er, &er_b, 2, 1);
    check(&st, &st, 1, 1);
    // More than two chunks per host worker, so every worker (the
    // calling thread included) claims several chunks off the shared
    // cursor and completion order can differ from slot order.
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    check(&rm, &rm, 2 * workers + 1, 2);
}

#[test]
fn degenerate_shapes_match_serial() {
    // All-zero matrices: every chunk is empty with ratio 1.0.
    let z = CsrMatrix::zeros(40, 30);
    let zb = CsrMatrix::zeros(30, 20);
    check(&z, &zb, 2, 2);
    // Empty rows interleaved with a few dense ones.
    let mut coo = CooMatrix::new(60, 60);
    for j in 0..40 {
        coo.push(7, j, 1.5).unwrap();
        coo.push(31, j, -0.25).unwrap();
    }
    coo.push(59, 0, 2.0).unwrap();
    let sparse_rows = coo.to_csr();
    check(&sparse_rows, &sparse_rows, 3, 2);
    check(&sparse_rows, &sparse_rows, 2, 1);
}

/// `A` (`rows x k`) whose row `r` holds `len(r)` entries, times `B`
/// (`k x width`) with `per_row` entries per row; mixed-sign values that
/// do not sum exactly, so a changed fold order would show in the bits.
fn patterned(
    rows: usize,
    k: usize,
    width: usize,
    per_row: usize,
    len: impl Fn(usize) -> usize,
) -> (CsrMatrix, CsrMatrix) {
    let mut a = CooMatrix::new(rows, k);
    for r in 0..rows {
        for j in 0..len(r).min(k) {
            let v = 0.3 + ((r + 3 * j) % 11) as f64 * 0.173 - 1.1;
            a.push(r, (r * 131 + j * 37) % k, v).unwrap();
        }
    }
    let mut b = CooMatrix::new(k, width);
    for row in 0..k {
        for j in 0..per_row {
            let col = (row * 7919 + j * 104_729 + j * j * 31) % width;
            b.push(row, col, 1.0 / (1 + (row + j) % 13) as f64 - 0.21)
                .unwrap();
        }
    }
    (a.to_csr(), b.to_csr())
}

#[test]
fn narrow_panels_the_density_rule_hashed_match_serial() {
    // 2 x 4 panels of a 4096-wide B: every row of the pooled engine
    // accumulates densely, while the serial engine hashes most of them.
    let (a, b) = patterned(900, 300, 4096, 12, |r| 2 + r % 9);
    // A row with under 64 outputs in all is under 1/16 of every
    // 1024-wide panel, so the density rule hashes it everywhere.
    let hashed = sparse::stats::symbolic_row_nnz(&a, &b)
        .iter()
        .filter(|&&n| n > 0 && n < 64)
        .count();
    assert!(
        hashed > 300,
        "fixture must exercise old hash rows: {hashed}"
    );
    check(&a, &b, 2, 4);
}

#[test]
fn panels_wider_than_the_dense_limit_match_serial() {
    // One column panel wider than DENSE_WIDTH_LIMIT (hash fallback),
    // rows ordered large -> small so the pooled hash window shrinks.
    let width = accum::DENSE_WIDTH_LIMIT + 4099;
    let (a, b) = patterned(300, 400, width, 30, |r| 300 - r);
    check(&a, &b, 2, 1);
}

fn arb_matrix(max_n: usize, max_entries: usize) -> impl Strategy<Value = CsrMatrix> {
    (4..=max_n, 4..=max_n).prop_flat_map(move |(n, m)| {
        prop::collection::vec((0..n, 0..m, -4.0f64..4.0), 1..=max_entries).prop_map(
            move |entries| {
                let mut coo = CooMatrix::new(n, m);
                for (i, j, v) in entries {
                    coo.push(i, j, v).unwrap();
                }
                coo.to_csr()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_products_are_bit_identical(
        a in arb_matrix(60, 400),
        k in prop::collection::vec((0usize..60, 0usize..50, -4.0f64..4.0), 1..300),
        row_panels in 1usize..4,
        col_panels in 1usize..4,
    ) {
        let mut coo = CooMatrix::new(a.n_cols(), 50);
        for (i, j, v) in k {
            if i < a.n_cols() {
                coo.push(i, j, v).unwrap();
            }
        }
        let b = coo.to_csr();
        check(&a, &b, row_panels, col_panels);
    }
}
