//! The Figure 6 schedule, pinned to the nanosecond.
//!
//! Exact-planned, fault-free async runs on small fixtures must keep
//! these makespans, pool high-water marks and timeline fingerprints.
//! The goldens were recorded with the dedicated fault-free pipeline
//! engine that preceded the single push-based session, so they also
//! pin that consolidating the two engines moved no operation.

use oocgemm::{EstimateConfig, FaultPlan, OocConfig, OocRun, OutOfCoreGpu};
use sparse::gen::{erdos_renyi, grid2d_stencil};
use sparse::CsrMatrix;

/// FNV-1a over every record's kind, stream, start, end and payload.
fn fingerprint(run: &OocRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in &run.timeline.records {
        eat(r.kind as u64);
        eat(r.stream as u64);
        eat(r.start);
        eat(r.end);
        eat(r.payload);
    }
    h
}

fn exact(config: OocConfig) -> OocConfig {
    config.estimator(EstimateConfig::exact())
}

fn depth(mut config: OocConfig, depth: usize) -> OocConfig {
    config.pipeline_depth = depth;
    config
}

fn pageable_half_split(mut config: OocConfig) -> OocConfig {
    config.pinned = false;
    config.split_fraction = 0.5;
    config
}

/// `(name, operand, config)` for every pinned case.
fn cases() -> Vec<(&'static str, CsrMatrix, OocConfig)> {
    let er = erdos_renyi(600, 600, 0.03, 7);
    let stencil = grid2d_stencil(36, 36, 2, 3);
    vec![
        (
            "er-auto",
            er.clone(),
            exact(OocConfig::with_device_memory(3 << 19)),
        ),
        (
            "er-2x3",
            er.clone(),
            exact(OocConfig::with_device_memory(3 << 19).panels(2, 3)),
        ),
        (
            "er-depth3",
            er.clone(),
            exact(depth(
                OocConfig::with_device_memory(3 << 20).panels(2, 3),
                3,
            )),
        ),
        (
            "er-pageable",
            er,
            exact(pageable_half_split(
                OocConfig::with_device_memory(3 << 19).panels(3, 2),
            )),
        ),
        (
            "stencil-3x3",
            stencil,
            exact(OocConfig::with_device_memory(2 << 20).panels(3, 3)),
        ),
    ]
}

/// `(name, sim_ns, pool_high_water_bytes, records, fingerprint)`.
const GOLDENS: [(&str, u64, u64, usize, u64); 5] = [
    (
        "er-auto",
        1_065_452,
        1_123_584,
        43,
        14_359_873_943_035_188_138,
    ),
    ("er-2x3", 1_312_370, 779_776, 65, 17_010_658_893_081_267_681),
    (
        "er-depth3",
        1_267_433,
        1_134_336,
        65,
        11_030_709_704_177_856_869,
    ),
    (
        "er-pageable",
        1_764_015,
        795_392,
        64,
        8_470_343_625_591_044_539,
    ),
    (
        "stencil-3x3",
        1_672_167,
        1_070_080,
        104,
        6_785_425_258_723_442_914,
    ),
];

#[test]
fn exact_schedule_matches_goldens() {
    let mut got = Vec::new();
    for (name, a, config) in cases() {
        let run = OutOfCoreGpu::new(config).multiply(&a, &a).unwrap();
        got.push((
            name,
            run.sim_ns,
            run.metrics.pool_high_water_bytes,
            run.timeline.records.len(),
            fingerprint(&run),
        ));
    }
    assert_eq!(got, GOLDENS.to_vec(), "Figure 6 schedule moved");
}

#[test]
fn zero_rate_fault_plan_reproduces_the_clean_schedule() {
    for (name, a, config) in cases() {
        let clean = OutOfCoreGpu::new(config.clone()).multiply(&a, &a).unwrap();
        let armed = OutOfCoreGpu::new(config.fault_plan(FaultPlan::seeded(5).all_rates(0.0)))
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(armed.sim_ns, clean.sim_ns, "{name}: makespan");
        assert_eq!(
            armed.metrics.pool_high_water_bytes, clean.metrics.pool_high_water_bytes,
            "{name}: pool high-water"
        );
        assert_eq!(fingerprint(&armed), fingerprint(&clean), "{name}: timeline");
    }
}
