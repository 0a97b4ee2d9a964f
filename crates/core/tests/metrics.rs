//! Metrics-layer invariant tests (DESIGN.md §9): every number the
//! observability layer reports must close against an independent
//! derivation — engine accounting against the makespan, transfer bytes
//! against the prepared chunks, figure metrics against the ad-hoc
//! expressions they replaced.

use gpu_spgemm::phases::{prepare_chunk, ChunkJob};
use oocgemm::{EstimateConfig, ExecMode, FaultPlan, OocConfig, OocRun, OutOfCoreGpu};
use proptest::prelude::*;
use sparse::gen::erdos_renyi;
use sparse::{CsrMatrix, CsrView};

fn fixture() -> CsrMatrix {
    erdos_renyi(500, 500, 0.03, 7)
}

fn base_config() -> OocConfig {
    OocConfig::with_device_memory(1 << 20)
}

/// Re-derives every per-chunk transfer size the executors see, by
/// preparing the same chunks from the run's own plan.
fn prepared_sizes(a: &CsrMatrix, b: &CsrMatrix, config: &OocConfig, run: &OocRun) -> Vec<Sizes> {
    let col_panels = config.col_partitioner.partition(b, &run.plan.col_ranges);
    let k_c = run.plan.col_panels();
    let mut out = Vec::new();
    for (r, range) in run.plan.row_ranges.iter().enumerate() {
        for (c, panel) in col_panels.iter().enumerate() {
            let p = prepare_chunk(ChunkJob {
                a_panel: CsrView::rows(a, range.start, range.end),
                b_panel: &panel.matrix,
                chunk_id: r * k_c + c,
            });
            out.push(Sizes {
                a_bytes: p.a_bytes,
                b_bytes: p.b_bytes,
                d2h_bytes: p.row_info_bytes + p.row_nnz_bytes + p.out_bytes,
                row_nnz_bytes: p.row_nnz_bytes,
            });
        }
    }
    out
}

struct Sizes {
    a_bytes: u64,
    b_bytes: u64,
    d2h_bytes: u64,
    row_nnz_bytes: u64,
}

#[test]
fn engine_accounting_closes_against_makespan() {
    let a = fixture();
    for mode in [ExecMode::Sync, ExecMode::Async] {
        let run = OutOfCoreGpu::new(base_config().mode(mode))
            .multiply(&a, &a)
            .unwrap();
        let t = &run.metrics.timeline;
        t.validate().unwrap();
        for e in [t.kernel, t.h2d, t.d2h] {
            assert_eq!(
                e.busy_ns + e.idle_ns,
                t.makespan_ns,
                "engine accounting must close in {mode:?}"
            );
        }
        assert_eq!(run.metrics.completion_ns, run.sim_ns);
        assert!(t.makespan_ns <= run.sim_ns);
    }
}

#[test]
fn transfer_bytes_conserve_against_prepared_chunks() {
    let a = fixture();
    let config = base_config();
    for mode in [ExecMode::Sync, ExecMode::Async] {
        let run = OutOfCoreGpu::new(config.clone().mode(mode))
            .multiply(&a, &a)
            .unwrap();
        let sizes = prepared_sizes(&a, &a, &config, &run);
        // The speculative default (async + non-exact estimator) skips
        // the per-row nnz readback, so its conserved D2H total is
        // smaller by exactly the row-nnz arrays.
        let speculative = mode == ExecMode::Async;
        let expect_d2h: u64 = sizes
            .iter()
            .map(|s| {
                if speculative {
                    s.d2h_bytes - s.row_nnz_bytes
                } else {
                    s.d2h_bytes
                }
            })
            .sum();
        let t = &run.metrics.timeline;
        assert_eq!(
            t.d2h_bytes, expect_d2h,
            "D2H bytes must equal the prepared chunks' outputs in {mode:?}"
        );
        // B is transferred for every chunk; A only on row-panel change,
        // so H2D lands between Σb and Σa + Σb.
        let sum_a: u64 = sizes.iter().map(|s| s.a_bytes).sum();
        let sum_b: u64 = sizes.iter().map(|s| s.b_bytes).sum();
        assert!(t.h2d_bytes >= sum_b, "{mode:?}");
        assert!(t.h2d_bytes <= sum_a + sum_b, "{mode:?}");
    }
}

#[test]
fn figure_metrics_are_bit_identical_to_ad_hoc_derivations() {
    let a = fixture();
    let sync = OutOfCoreGpu::new(base_config().mode(ExecMode::Sync))
        .multiply(&a, &a)
        .unwrap();
    let asyn = OutOfCoreGpu::new(base_config().mode(ExecMode::Async))
        .multiply(&a, &a)
        .unwrap();
    // Fig 4: transfer fraction, stored by Timeline::transfer_fraction
    // itself — the exact same f64 bits.
    assert_eq!(
        sync.metrics.timeline.transfer_fraction.to_bits(),
        sync.transfer_fraction().to_bits()
    );
    // Fig 8: the speedup computed from completion_ns is bitwise the
    // one computed from sim_ns.
    let from_metrics =
        (sync.metrics.completion_ns as f64 / asyn.metrics.completion_ns as f64 - 1.0) * 100.0;
    let ad_hoc = (sync.sim_ns as f64 / asyn.sim_ns as f64 - 1.0) * 100.0;
    assert_eq!(from_metrics.to_bits(), ad_hoc.to_bits());
}

#[test]
fn overlap_efficiency_is_a_fraction_and_async_overlaps() {
    let a = fixture();
    let sync = OutOfCoreGpu::new(base_config().mode(ExecMode::Sync))
        .multiply(&a, &a)
        .unwrap();
    let asyn = OutOfCoreGpu::new(base_config().mode(ExecMode::Async))
        .multiply(&a, &a)
        .unwrap();
    for run in [&sync, &asyn] {
        let t = &run.metrics.timeline;
        assert!((0.0..=1.0).contains(&t.overlap_efficiency));
        assert!(t.hidden_transfer_ns <= t.total_transfer_ns);
        assert_eq!(t.total_transfer_ns, t.h2d.busy_ns + t.d2h.busy_ns);
    }
    assert!(
        asyn.metrics.timeline.overlap_efficiency > 0.0,
        "the double-buffered pipeline must hide some transfer time"
    );
}

#[test]
fn async_pool_high_water_is_reported_within_device_memory() {
    let a = fixture();
    let run = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();
    assert!(run.metrics.pool_high_water_bytes > 0);
    assert!(run.metrics.pool_high_water_bytes <= run.metrics.device_high_water_bytes);
    assert!(run.metrics.device_high_water_bytes <= 1 << 20);
}

#[test]
fn kernel_classes_partition_compute_and_cover_all_phases() {
    let a = fixture();
    // The exact path launches all three kernel phases.
    let run = OutOfCoreGpu::new(base_config().estimator(EstimateConfig::exact()))
        .multiply(&a, &a)
        .unwrap();
    let t = &run.metrics.timeline;
    let by_class: u64 = t.kernel_classes.iter().map(|k| k.busy_ns).sum();
    assert_eq!(by_class, t.kernel.busy_ns);
    let names: Vec<&str> = t.kernel_classes.iter().map(|k| k.class.name()).collect();
    for phase in ["row_analysis", "symbolic", "numeric"] {
        assert!(names.contains(&phase), "missing phase {phase}: {names:?}");
    }
    // The speculative default skips the symbolic pass entirely — that
    // is where its planning speedup comes from.
    let spec = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();
    let t = &spec.metrics.timeline;
    let by_class: u64 = t.kernel_classes.iter().map(|k| k.busy_ns).sum();
    assert_eq!(by_class, t.kernel.busy_ns);
    let names: Vec<&str> = t.kernel_classes.iter().map(|k| k.class.name()).collect();
    assert!(names.contains(&"row_analysis"), "{names:?}");
    assert!(names.contains(&"numeric"), "{names:?}");
    assert!(!names.contains(&"symbolic"), "{names:?}");
}

#[test]
fn fault_run_reports_per_chunk_recovery_counters() {
    let a = fixture();
    let plan = FaultPlan::seeded(3).capacity_shrink(0, 0.1);
    let run = OutOfCoreGpu::new(base_config().fault_plan(plan))
        .multiply(&a, &a)
        .unwrap();
    assert!(run.recovery.resplits + run.recovery.demotions > 0);
    let chunks = &run.metrics.chunks;
    assert!(!chunks.is_empty());
    assert!(chunks
        .windows(2)
        .all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col)));
    assert!(chunks.iter().all(|c| c.attempts >= 1));
    assert_eq!(
        chunks.iter().map(|c| c.resplits).sum::<u64>(),
        run.recovery.resplits
    );
    assert_eq!(
        chunks.iter().map(|c| c.demotions).sum::<u64>(),
        run.recovery.demotions
    );
    assert!(chunks
        .iter()
        .all(|c| (c.demotions > 0) == c.demotion_cause.is_some()));
    // Every async run goes through the one pass-based pipeline, so a
    // fault-free exact run reports one clean attempt per chunk, and the
    // speculative default at least one.
    let clean = OutOfCoreGpu::new(base_config().estimator(EstimateConfig::exact()))
        .multiply(&a, &a)
        .unwrap();
    assert_eq!(clean.metrics.chunks.len(), clean.plan.num_chunks());
    assert!(clean
        .metrics
        .chunks
        .iter()
        .all(|c| c.attempts == 1 && c.resplits == 0));
    let spec = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();
    assert!(spec.metrics.chunks.iter().all(|c| c.attempts >= 1));
}

#[test]
fn metrics_json_has_the_documented_schema() {
    let a = fixture();
    let run = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();
    let json = run.metrics.to_json();
    for key in [
        "\"completion_ns\"",
        "\"timeline\"",
        "\"makespan_ns\"",
        "\"kernel\"",
        "\"h2d\"",
        "\"d2h\"",
        "\"busy_ns\"",
        "\"idle_ns\"",
        "\"h2d_bytes\"",
        "\"d2h_bytes\"",
        "\"kernel_classes\"",
        "\"transfer_fraction\"",
        "\"overlap_efficiency\"",
        "\"streams\"",
        "\"device_high_water_bytes\"",
        "\"pool_high_water_bytes\"",
        "\"scheduler\"",
        "\"estimator\"",
        "\"chunks\"",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite: `split_output_bytes` partitions `out_bytes` exactly
    /// for every in-range fraction (and clamps the rest).
    #[test]
    fn split_output_bytes_partitions_exactly(fraction in 0.0f64..=1.0, wild in -10.0f64..10.0) {
        let a = erdos_renyi(60, 50, 0.1, 1);
        let b = erdos_renyi(50, 80, 0.1, 2);
        let p = prepare_chunk(ChunkJob {
            a_panel: CsrView::of(&a),
            b_panel: &b,
            chunk_id: 0,
        });
        let (first, second) = p.split_output_bytes(fraction);
        prop_assert_eq!(first + second, p.out_bytes);
        let (wf, ws) = p.split_output_bytes(wild);
        prop_assert_eq!(wf + ws, p.out_bytes);
    }
}
