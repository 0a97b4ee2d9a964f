//! Wall-clock comparison of the chunk preparation engine against the
//! serial engine it replaced, backing the `BENCH_chunk_prep.json`
//! baseline the `repro` binary emits (`repro prep`).
//!
//! Per case, two measurements over the same panel grid:
//!
//! * `serial` — `prepare_grid_serial`: the original chunk-by-chunk
//!   loop with the pre-pool per-chunk engine;
//! * `parallel` — `prepare_grid`: the calling thread plus
//!   `available_parallelism − 1` scoped workers on one chunk cursor,
//!   sharing pooled scratch.
//!
//! `host_threads` records `available_parallelism`, so baselines from
//! different machines are comparable — on a single-core host (or under
//! `taskset -c 0`) `parallel` runs on the calling thread alone and
//! isolates the allocation-free engine's gain from parallelism.

use oocgemm::{prepare_grid, prepare_grid_serial, OocConfig};
use sparse::gen::{grid2d_stencil, rmat, RmatConfig};
use sparse::CsrMatrix;
use std::time::Instant;

/// One benchmark input: a suite-analogue matrix and the panel grid to
/// prepare (`C = A·A`).
pub struct PrepCase {
    /// Case label used in tables and JSON.
    pub name: &'static str,
    /// The input matrix.
    pub matrix: CsrMatrix,
    /// Panel grid `(row_panels, col_panels)`.
    pub panels: (usize, usize),
}

/// The two chunk-preparation stress analogues: a skewed R-MAT graph
/// (uneven rows — hash-heavy accumulation, worst case for the old
/// per-row triple allocation) and a 2D stencil (uniform rows — the
/// dense-counter path). The second R-MAT case uses a single column
/// panel, exercising the cached flop-prefix fast path.
pub fn cases() -> Vec<PrepCase> {
    vec![
        PrepCase {
            name: "rmat_s11_4x4",
            matrix: rmat(RmatConfig::skewed(11, 40_000), 9),
            panels: (4, 4),
        },
        PrepCase {
            name: "rmat_s11_4x1",
            matrix: rmat(RmatConfig::skewed(11, 40_000), 9),
            panels: (4, 1),
        },
        PrepCase {
            name: "stencil_64x64_3x3",
            matrix: grid2d_stencil(64, 64, 2, 2),
            panels: (3, 3),
        },
    ]
}

/// Timing results of one case.
pub struct PrepBenchRow {
    /// Case label.
    pub name: &'static str,
    /// Matrix dimension.
    pub n: usize,
    /// Matrix nnz.
    pub nnz: usize,
    /// Chunks in the prepared grid.
    pub chunks: usize,
    /// Threads available on the measuring host
    /// (`std::thread::available_parallelism`).
    pub host_threads: usize,
    /// `prepare_grid_serial`, ns.
    pub serial_ns: u64,
    /// `prepare_grid`, ns.
    pub parallel_ns: u64,
}

impl PrepBenchRow {
    /// Serial / parallel speedup.
    pub fn speedup(&self) -> f64 {
        self.serial_ns as f64 / self.parallel_ns.max(1) as f64
    }
}

/// Best-of-`iters` wall-clock time of `f`, in ns.
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

/// Runs one case end to end.
pub fn run_case(case: &PrepCase) -> PrepBenchRow {
    let a = &case.matrix;
    let (rp, cp) = case.panels;
    let cfg = OocConfig::with_device_memory(256 << 20).panels(rp, cp);
    let chunks = prepare_grid_serial(a, a, &cfg)
        .expect("serial grid")
        .prepared
        .len();
    PrepBenchRow {
        name: case.name,
        n: a.n_rows(),
        nnz: a.nnz(),
        chunks,
        host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        serial_ns: best_of(3, || prepare_grid_serial(a, a, &cfg).unwrap()),
        parallel_ns: best_of(3, || prepare_grid(a, a, &cfg).unwrap()),
    }
}

/// Runs all [`cases`].
pub fn run_all() -> Vec<PrepBenchRow> {
    cases().iter().map(run_case).collect()
}

/// Renders rows as the stdout table.
pub fn table(rows: &[PrepBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("matrix             chunks  threads  serial(ms)  parallel(ms)  speedup\n");
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>6}  {:>7}  {:>10.2}  {:>12.2}  {:>6.2}x\n",
            r.name,
            r.chunks,
            r.host_threads,
            r.serial_ns as f64 / 1e6,
            r.parallel_ns as f64 / 1e6,
            r.speedup(),
        ));
    }
    out
}

/// Renders rows as the `BENCH_chunk_prep.json` document.
/// Hand-formatted so the baseline can be produced in fully offline
/// builds.
pub fn to_json(rows: &[PrepBenchRow]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"chunk_prep\",\n  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"n\": {},\n      \"nnz\": {},\n      \
             \"chunks\": {},\n      \"host_threads\": {},\n      \
             \"serial_ns\": {},\n      \"parallel_ns\": {},\n      \
             \"speedup\": {:.3}\n    }}{}\n",
            r.name,
            r.n,
            r.nnz,
            r.chunks,
            r.host_threads,
            r.serial_ns,
            r.parallel_ns,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_for_synthetic_rows() {
        let rows = vec![PrepBenchRow {
            name: "case",
            n: 10,
            nnz: 20,
            chunks: 16,
            host_threads: 8,
            serial_ns: 3000,
            parallel_ns: 1000,
        }];
        let json = to_json(&rows);
        assert!(json.contains("\"speedup\": 3.000"));
        assert!(json.contains("\"host_threads\": 8"));
        assert!(json.contains("\"parallel_ns\": 1000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn tiny_case_runs_end_to_end() {
        let row = run_case(&PrepCase {
            name: "tiny",
            matrix: sparse::gen::erdos_renyi(120, 120, 0.05, 1),
            panels: (2, 2),
        });
        assert_eq!(row.chunks, 4);
        assert!(row.serial_ns > 0 && row.parallel_ns > 0);
        assert!(row.host_threads >= 1);
    }
}
