//! Quickstart: multiply a sparse matrix by itself out-of-core.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a power-law graph whose product does not fit the
//! (simulated, scaled-down) GPU, runs all three executors of the paper
//! — multicore CPU baseline, out-of-core GPU, hybrid — and verifies
//! the results agree.

use oocgemm::report::cpu_baseline_ns;
use oocgemm::{Hybrid, HybridConfig, OocConfig, OutOfCoreGpu};
use sparse::gen::{rmat, RmatConfig};
use sparse::stats::ProductStats;

fn main() {
    // A skewed graph: 16 Ki vertices, ~120 K edges.
    let a = rmat(RmatConfig::skewed(14, 120_000), 42);
    let stats = ProductStats::square(&a);
    println!(
        "A: {} x {}, nnz = {}; A^2: flops = {}, nnz = {}, compression ratio = {:.2}",
        a.n_rows(),
        a.n_cols(),
        a.nnz(),
        stats.flops,
        stats.nnz_c,
        stats.compression_ratio
    );

    // Scale the simulated device so the product is genuinely
    // out-of-core (output ≈ 3.5x device memory, the paper's regime).
    let device_bytes = (stats.nnz_c * 12) / 3;
    let config = OocConfig::with_device_memory(device_bytes);
    println!(
        "simulated device memory: {:.1} MiB",
        device_bytes as f64 / (1 << 20) as f64
    );

    // 1. Out-of-core GPU (asynchronous pipeline, chunk reordering).
    let gpu = OutOfCoreGpu::new(config.clone())
        .multiply(&a, &a)
        .expect("gpu run");
    let copies = &gpu.metrics.timeline;
    println!(
        "out-of-core GPU : {:>8.3} ms simulated, {:.3} GFLOPS, {} chunks ({}x{} panels), \
         copy engines busy H2D {:.1}% / D2H {:.1}% of makespan",
        gpu.sim_ms(),
        gpu.gflops(),
        gpu.plan.num_chunks(),
        gpu.plan.row_panels(),
        gpu.plan.col_panels(),
        copies.h2d.busy_share() * 100.0,
        copies.d2h.busy_share() * 100.0
    );

    // 2. Multicore CPU baseline (Nagasaka-style), modeled time.
    let cpu_ns = cpu_baseline_ns(&config.cost, stats.flops, stats.nnz_c);
    println!(
        "multicore CPU   : {:>8.3} ms simulated, {:.3} GFLOPS",
        cpu_ns as f64 / 1e6,
        stats.flops as f64 / cpu_ns as f64
    );

    // 3. Hybrid: densest chunks on the GPU until 65% of flops.
    let hybrid_cfg = HybridConfig {
        gpu: config,
        ..HybridConfig::paper_default()
    };
    let hybrid = Hybrid::new(hybrid_cfg)
        .multiply(&a, &a)
        .expect("hybrid run");
    println!(
        "hybrid CPU+GPU  : {:>8.3} ms simulated, {:.3} GFLOPS ({} GPU / {} CPU chunks)",
        hybrid.sim_ms(),
        hybrid.gflops(),
        hybrid.num_gpu_chunks,
        hybrid.num_cpu_chunks
    );

    // All numeric results are real; check they agree.
    assert!(gpu.c.approx_eq(&hybrid.c, 1e-9), "executors disagree");
    assert_eq!(
        gpu.c.nnz() as u64,
        stats.nnz_c,
        "symbolic pass disagrees with product"
    );
    println!(
        "\nspeedups: GPU {:.2}x over CPU, hybrid {:.2}x over GPU",
        cpu_ns as f64 / gpu.sim_ns as f64,
        gpu.sim_ns as f64 / hybrid.sim_ns as f64
    );
}
