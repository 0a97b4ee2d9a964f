//! End-to-end pipeline tests on the (tiny-scale) evaluation suite:
//! every suite matrix goes through planning, partitioning, the
//! asynchronous pipeline, and assembly, with physical invariants
//! checked on the simulated timeline.

use gpu_sim::OpKind;
use oocgemm::{ExecMode, Hybrid, HybridConfig, OocConfig, OutOfCoreGpu};
use sparse::gen::{suite, SuiteScale};

/// Device size forcing genuine out-of-core execution per matrix.
fn device_for(m: &sparse::CsrMatrix) -> u64 {
    let nnz_c = sparse::stats::symbolic_nnz(m, m);
    ((nnz_c * 12) as f64 / 3.5) as u64
}

#[test]
fn tiny_suite_full_pipeline() {
    for (id, m) in suite(SuiteScale::Tiny) {
        let device = device_for(&m).max(1 << 18);
        let cfg = OocConfig::with_device_memory(device);
        let run = OutOfCoreGpu::new(cfg)
            .multiply(&m, &m)
            .unwrap_or_else(|e| panic!("{} failed: {e}", id.abbr()));

        // Real result checked against the CPU baseline.
        let expect = cpu_spgemm::parallel_hash::multiply(&m, &m).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9), "{} wrong result", id.abbr());

        // Timeline physics.
        run.timeline
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", id.abbr()));

        // The D2H engine must carry at least the whole output.
        let d2h: u64 = run
            .timeline
            .of_kind(OpKind::CopyD2H)
            .map(|r| r.payload)
            .sum();
        assert!(
            d2h >= run.nnz_c * 12,
            "{}: transferred {} bytes < output {}",
            id.abbr(),
            d2h,
            run.nnz_c * 12
        );

        // Async pipelines pre-allocate: alloc barriers come only from
        // pool setup/teardown (at most two per pipeline pass — a pass
        // mallocs its pool and frees it before a further pass, and
        // each recovery action can add one pass), never per chunk.
        let barriers = run.timeline.of_kind(OpKind::AllocBarrier).count() as u64;
        let passes = 1
            + run.recovery.estimate_overflows
            + run.recovery.resplits
            + run.recovery.retries
            + run.recovery.demotions;
        assert!(
            barriers >= 1 && barriers <= 2 * passes,
            "{}: unexpected allocation barriers ({barriers} for {passes} passes)",
            id.abbr()
        );

        // Transfers are a major share even at tiny scale (the full
        // Fig 4 regime, 77-90%, needs Small-scale payloads; tiny
        // matrices are latency-dominated).
        assert!(
            run.transfer_fraction() > 0.2,
            "{}: transfer fraction suspiciously low ({})",
            id.abbr(),
            run.transfer_fraction()
        );
    }
}

#[test]
fn tiny_suite_async_never_slower_than_sync() {
    for (id, m) in suite(SuiteScale::Tiny) {
        let device = device_for(&m).max(1 << 18);
        let asyn = OutOfCoreGpu::new(OocConfig::with_device_memory(device))
            .multiply(&m, &m)
            .unwrap();
        let plan = (asyn.plan.row_panels(), asyn.plan.col_panels());
        let sync = OutOfCoreGpu::new(
            OocConfig::with_device_memory(device)
                .panels(plan.0, plan.1)
                .mode(ExecMode::Sync),
        )
        .multiply(&m, &m)
        .unwrap();
        assert!(
            asyn.sim_ns <= sync.sim_ns,
            "{}: async {} slower than sync {}",
            id.abbr(),
            asyn.sim_ns,
            sync.sim_ns
        );
    }
}

#[test]
fn tiny_suite_hybrid_never_slower_than_gpu_only() {
    for (id, m) in suite(SuiteScale::Tiny) {
        let device = device_for(&m).max(1 << 18);
        let gpu = OutOfCoreGpu::new(OocConfig::with_device_memory(device))
            .multiply(&m, &m)
            .unwrap();
        let cfg = HybridConfig {
            gpu: OocConfig::with_device_memory(device)
                .panels(gpu.plan.row_panels(), gpu.plan.col_panels()),
            ..HybridConfig::paper_default()
        };
        let hybrid = Hybrid::new(cfg).multiply(&m, &m).unwrap();
        // The 65% split can be mildly suboptimal on tiny chunk grids,
        // but it must never lose badly to GPU-only.
        assert!(
            (hybrid.sim_ns as f64) < 1.1 * gpu.sim_ns as f64,
            "{}: hybrid {} much slower than GPU-only {}",
            id.abbr(),
            hybrid.sim_ns,
            gpu.sim_ns
        );
    }
}

#[test]
fn planner_respects_device_budget_end_to_end() {
    let (_, m) = suite(SuiteScale::Tiny).remove(6); // nlp
    for shift in [18u32, 19, 20, 21] {
        let device = 1u64 << shift;
        match OutOfCoreGpu::new(OocConfig::with_device_memory(device)).multiply(&m, &m) {
            Ok(run) => {
                // More memory must never force *more* chunks.
                assert!(run.plan.num_chunks() >= 1);
            }
            Err(oocgemm::OocError::Planning(_)) => {
                assert!(device <= 1 << 18, "planning failed at generous budget");
            }
            Err(e) => panic!("unexpected error at {device}: {e}"),
        }
    }
}
