//! Structured per-run metrics: the machine-readable observability
//! layer (DESIGN.md §9).
//!
//! A [`Metrics`] value combines three sources:
//!
//! * the simulator timeline aggregation ([`TimelineMetrics`]) — engine
//!   busy/idle, transfer bytes and bandwidth, per-kernel-phase compute
//!   time, overlap efficiency;
//! * device-memory accounting captured from the simulator before it is
//!   consumed (allocation and bump-pool high-water marks);
//! * host-side counters from the pass-based pipeline orchestration —
//!   per-chunk attempt counts, re-splits, and demotion causes
//!   ([`ChunkMetrics`]).
//!
//! The figure-facing numbers are **bit-identical** to the ad-hoc
//! derivations they replace: `timeline.transfer_fraction` is computed
//! by [`gpu_sim::Timeline::transfer_fraction`] itself (Fig 4), and
//! `completion_ns` is the exact `sim_ns` the run returns (Fig 8).

use crate::chunks::ChunkId;
use crate::config::SchedulerKind;
use gpu_sim::{GpuSim, SimTime, TimelineMetrics};
use serde::{Deserialize, Serialize};

/// Work-distribution accounting of the hybrid (and multi-GPU)
/// scheduler: how many chunks each side ended up with, how long each
/// worker idled waiting for the slower side, and the flop split the
/// run actually realized (vs the configured ratio hint).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Which scheduler produced the assignment.
    pub kind: SchedulerKind,
    /// Chunks the GPU side claimed from the dense head of the queue
    /// (under the static scheduler: the size of the up-front GPU half).
    pub gpu_claims: u64,
    /// Chunks the CPU stole from the sparse tail of the queue (always
    /// the full CPU half; 0 when everything ran on the GPU).
    pub cpu_steals: u64,
    /// GPU worker idle time at the end of the run, ns: `sim_ns -
    /// gpu_ns` (summed over devices in a multi-GPU run).
    pub gpu_idle_ns: SimTime,
    /// CPU worker idle time at the end of the run, ns: `sim_ns -
    /// cpu_ns`.
    pub cpu_idle_ns: SimTime,
    /// Fraction of total flops the GPU side actually executed.
    pub realized_gpu_ratio: f64,
}

/// Why a chunk left the GPU for the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DemotionCause {
    /// The chunk's working set did not fit the device pool and could
    /// not be split further.
    DeviceMemory,
    /// Transient faults exhausted the retry budget.
    Faults,
    /// The run budget's final degradation rung moved the chunk to the
    /// CPU — the only executor whose time is exactly predictable.
    Deadline,
}

/// Why a run degraded below its configured quality of service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationCause {
    /// The unified-memory working set exceeded device capacity and the
    /// run paged against the migration engine instead of running
    /// resident.
    UnifiedThrash,
    /// Budget rung 1: pending speculative chunks were re-sized to
    /// their exact output (no headroom, no overflow risk).
    HeadroomShrink,
    /// Budget rung 2: speculation stripped from the remaining chunks —
    /// full exact symbolic schedule.
    ForcedExact,
    /// Budget rung 3: remaining chunks demoted to the CPU at calibrated
    /// cost.
    DeadlineDemotion,
    /// Sustained pressure (capacity shrink or repeated estimate
    /// overflows) re-planned the remaining grid in one batch.
    Replan,
}

impl DegradationCause {
    /// Stable JSON/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            DegradationCause::UnifiedThrash => "unified_thrash",
            DegradationCause::HeadroomShrink => "headroom_shrink",
            DegradationCause::ForcedExact => "forced_exact",
            DegradationCause::DeadlineDemotion => "deadline_demotion",
            DegradationCause::Replan => "replan",
        }
    }
}

/// One supervised degradation: what happened, when (simulated time),
/// and what it cost (extra simulated time attributable to the degraded
/// mode; 0 when the cost cannot be isolated).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationEvent {
    /// Why the run degraded.
    pub cause: DegradationCause,
    /// Simulated time at which the degradation took effect, ns.
    pub at_ns: SimTime,
    /// Extra simulated time attributed to the degradation, ns.
    pub cost_ns: SimTime,
}

/// Host-side recovery counters for one planned chunk (and all the
/// sub-chunks it was re-split into).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkMetrics {
    /// Row-panel index of the planned chunk.
    pub row: usize,
    /// Column-panel index of the planned chunk.
    pub col: usize,
    /// Device attempts made on this chunk or its sub-chunks.
    pub attempts: u64,
    /// Times a piece of this chunk was re-split after an OOM failure.
    pub resplits: u64,
    /// Pieces of this chunk demoted to the CPU.
    pub demotions: u64,
    /// Cause of the first demotion, if any piece was demoted.
    pub demotion_cause: Option<DemotionCause>,
}

impl ChunkMetrics {
    /// A zeroed counter row for the chunk.
    pub fn new(id: ChunkId) -> Self {
        ChunkMetrics {
            row: id.row,
            col: id.col,
            attempts: 0,
            resplits: 0,
            demotions: 0,
            demotion_cause: None,
        }
    }
}

/// Accuracy and recovery accounting of the nnz(C) estimator behind a
/// speculative run: how close the estimate landed, how many chunks
/// fit their estimated allocation on the first try, how many had to be
/// grown and retried, and the headroom the run actually applied
/// (chained runs adapt it per iteration, so it can differ from the
/// configured `--headroom`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EstimatorStats {
    /// Estimator kind name (`row-sample`, `hash-sketch`, `upper-bound`).
    pub kind: String,
    /// Rows the model sampled while calibrating.
    pub sampled_rows: u64,
    /// Estimated total output nonzeros, summed over chunk estimates.
    pub est_nnz: u64,
    /// Actual total output nonzeros.
    pub actual_nnz: u64,
    /// Chunks whose actual output fit the estimated allocation.
    pub chunk_hits: u64,
    /// Chunks whose actual output outgrew the estimated allocation.
    pub chunk_misses: u64,
    /// Rows whose individual estimate undershot their actual nnz (the
    /// per-row view of estimator error; a chunk absorbs row misses as
    /// long as its total estimate holds).
    pub overflow_rows: u64,
    /// Grow-and-retry passes the executor ran to recover overflows.
    pub retries: u64,
    /// Safety margin actually multiplied into every row estimate for
    /// this run. Equals the configured headroom for one-shot runs;
    /// chained runs (`power`, `triple_product`) shrink it per
    /// iteration from the previous iteration's observed hit-rate.
    pub headroom: f64,
}

/// Per-tenant aggregates of a service-frontend trace: how much work a
/// tenant submitted, what the admission controller and quota did with
/// it, and what the completed requests cost.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant identifier.
    pub tenant: String,
    /// Requests the tenant submitted.
    pub submitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests shed by the admission controller (queue full or
    /// device-pool pressure).
    pub shed: u64,
    /// Requests that had to wait for the tenant's flop token bucket to
    /// refill before dispatch. Batch members admitted by the operand
    /// batcher count here too, when the bucket state at their arrival
    /// instant could not have covered their share and only the refill
    /// accrued while they queued let them join.
    pub quota_queued: u64,
    /// Requests that terminated as deadline misses: either dispatch
    /// could no longer begin before `arrival + sim_deadline_ns`, or the
    /// executor's own run budget aborted with a clean
    /// `DeadlineExceeded`.
    pub deadline_missed: u64,
    /// Requests that reused another request's resident prepared grid
    /// (operand-sharing batcher hits).
    pub batch_hits: u64,
    /// Total flops of the tenant's completed requests.
    pub flops: u64,
    /// Summed simulated execution time of the tenant's completed
    /// requests, ns.
    pub busy_ns: u64,
    /// Summed simulated time the tenant's requests waited between
    /// admission and dispatch, ns.
    pub queued_ns: u64,
}

/// Residency accounting of the service frontend's bounded caches: how
/// much the resident grid cache and the interned-matrix store hold
/// right now, the high-water marks, and how often the eviction policy
/// and the deadline supervisor fired. Only the service frontend
/// populates this (`None` for one-shot executor runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Configured grid-cache byte cap; `None` means unbounded.
    pub grid_cache_bytes: Option<u64>,
    /// Bytes currently held by resident prepared grids.
    pub resident_grid_bytes: u64,
    /// High-water mark of `resident_grid_bytes` over the service's
    /// lifetime. Never exceeds the configured cap.
    pub resident_grid_high_water_bytes: u64,
    /// Prepared grids currently resident.
    pub resident_grids: u64,
    /// Grids inserted into the cache (first preparations and rebuilds).
    pub grid_inserts: u64,
    /// Grids evicted — by LRU pressure on insert, or because an operand
    /// they reference was released.
    pub grid_evictions: u64,
    /// Cache misses for a key that had been resident before: the cost
    /// of the eviction policy, paid as a re-preparation.
    pub grid_rebuilds: u64,
    /// Interned matrices currently resident (live slots).
    pub matrices_resident: u64,
    /// Bytes held by resident interned matrices.
    pub matrix_bytes: u64,
    /// Interned matrices fully released and freed.
    pub matrices_released: u64,
    /// Requests that terminated as deadline misses, summed over
    /// tenants.
    pub deadline_missed: u64,
}

/// Structured metrics for one executor run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// The run's completion time — the exact `sim_ns` the executor
    /// returns (Fig 8 reads speedups from this field).
    pub completion_ns: SimTime,
    /// Timeline aggregation (engines, bytes, overlap, phases).
    pub timeline: TimelineMetrics,
    /// Device-memory allocation high-water mark, bytes.
    pub device_high_water_bytes: u64,
    /// Bump-pool usage high-water mark, bytes (0 when the executor
    /// never carved a pool, e.g. pure-CPU demotion runs).
    pub pool_high_water_bytes: u64,
    /// Per-chunk recovery counters, one entry per planned chunk of
    /// every async run (a clean chunk reports one attempt and no
    /// re-splits); empty for the sync baseline without faults, which
    /// has no recovery passes.
    pub chunks: Vec<ChunkMetrics>,
    /// Scheduler accounting; `None` for single-device runs that have
    /// no CPU/GPU work distribution to report.
    pub scheduler: Option<SchedulerStats>,
    /// Estimator accuracy accounting; `None` for exact (non-speculative)
    /// runs.
    pub estimator: Option<EstimatorStats>,
    /// Supervised degradations, in the order they took effect; empty
    /// for runs that never degraded.
    pub degradations: Vec<DegradationEvent>,
    /// Per-tenant aggregates; only populated by the service frontend
    /// (empty for one-shot executor runs).
    pub tenants: Vec<TenantStats>,
    /// Service residency accounting; only populated by the service
    /// frontend (`None` for one-shot executor runs).
    pub service: Option<ServiceStats>,
}

impl Metrics {
    /// Captures every simulator-side metric. Must be called before the
    /// simulator is consumed into its timeline.
    pub fn collect(sim: &GpuSim, completion_ns: SimTime) -> Self {
        Metrics {
            completion_ns,
            timeline: sim.timeline().metrics(),
            device_high_water_bytes: sim.memory().high_water(),
            pool_high_water_bytes: sim.pool_high_water(),
            chunks: Vec::new(),
            scheduler: None,
            estimator: None,
            degradations: Vec::new(),
            tenants: Vec::new(),
            service: None,
        }
    }

    /// Attaches host-side per-chunk recovery counters.
    pub fn with_chunks(mut self, chunks: Vec<ChunkMetrics>) -> Self {
        self.chunks = chunks;
        self
    }

    /// Attaches scheduler work-distribution accounting.
    pub fn with_scheduler(mut self, stats: SchedulerStats) -> Self {
        self.scheduler = Some(stats);
        self
    }

    /// Attaches estimator accuracy accounting.
    pub fn with_estimator(mut self, stats: EstimatorStats) -> Self {
        self.estimator = Some(stats);
        self
    }

    /// Attaches supervised degradation events.
    pub fn with_degradations(mut self, events: Vec<DegradationEvent>) -> Self {
        self.degradations = events;
        self
    }

    /// Attaches per-tenant service aggregates.
    pub fn with_tenants(mut self, tenants: Vec<TenantStats>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Attaches service residency accounting.
    pub fn with_service(mut self, stats: ServiceStats) -> Self {
        self.service = Some(stats);
        self
    }

    /// Serializes to pretty-printed JSON.
    ///
    /// Hand-rolled (field names pinned by the schema tests) so the
    /// `--metrics-out` CLI path has no serde-runtime dependency; the
    /// derived `Serialize` impl emits the same shape for embedders.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        push_u64(&mut s, 1, "completion_ns", self.completion_ns, true);
        s.push_str("  \"timeline\": {\n");
        let t = &self.timeline;
        push_u64(&mut s, 2, "makespan_ns", t.makespan_ns, true);
        for (name, e) in [("kernel", t.kernel), ("h2d", t.h2d), ("d2h", t.d2h)] {
            s.push_str(&format!(
                "    \"{name}\": {{ \"busy_ns\": {}, \"idle_ns\": {}, \"ops\": {} }},\n",
                e.busy_ns, e.idle_ns, e.ops
            ));
        }
        push_u64(&mut s, 2, "h2d_bytes", t.h2d_bytes, true);
        push_u64(&mut s, 2, "d2h_bytes", t.d2h_bytes, true);
        push_f64(&mut s, 2, "h2d_bandwidth", t.h2d_bandwidth, true);
        push_f64(&mut s, 2, "d2h_bandwidth", t.d2h_bandwidth, true);
        s.push_str("    \"kernel_classes\": [");
        for (i, k) in t.kernel_classes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{ \"class\": \"{}\", \"busy_ns\": {}, \"launches\": {}, \"payload\": {} }}",
                k.class.name(),
                k.busy_ns,
                k.launches,
                k.payload
            ));
        }
        if !t.kernel_classes.is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("],\n");
        push_u64(&mut s, 2, "host_compute_ns", t.host_compute_ns, true);
        push_f64(&mut s, 2, "transfer_fraction", t.transfer_fraction, true);
        push_u64(&mut s, 2, "hidden_transfer_ns", t.hidden_transfer_ns, true);
        push_u64(&mut s, 2, "total_transfer_ns", t.total_transfer_ns, true);
        push_f64(&mut s, 2, "overlap_efficiency", t.overlap_efficiency, true);
        s.push_str("    \"streams\": [");
        for (i, m) in t.streams.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{ \"stream\": {}, \"ops\": {}, \"busy_ns\": {}, \"span_ns\": {} }}",
                m.stream, m.ops, m.busy_ns, m.span_ns
            ));
        }
        if !t.streams.is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("]\n");
        s.push_str("  },\n");
        push_u64(
            &mut s,
            1,
            "device_high_water_bytes",
            self.device_high_water_bytes,
            true,
        );
        push_u64(
            &mut s,
            1,
            "pool_high_water_bytes",
            self.pool_high_water_bytes,
            true,
        );
        match &self.scheduler {
            Some(st) => {
                s.push_str(&format!(
                    "  \"scheduler\": {{ \"kind\": \"{}\", \"gpu_claims\": {}, \
                     \"cpu_steals\": {}, \"gpu_idle_ns\": {}, \"cpu_idle_ns\": {}, ",
                    st.kind.name(),
                    st.gpu_claims,
                    st.cpu_steals,
                    st.gpu_idle_ns,
                    st.cpu_idle_ns,
                ));
                if st.realized_gpu_ratio.is_finite() {
                    s.push_str(&format!(
                        "\"realized_gpu_ratio\": {} }},\n",
                        st.realized_gpu_ratio
                    ));
                } else {
                    s.push_str("\"realized_gpu_ratio\": null },\n");
                }
            }
            None => s.push_str("  \"scheduler\": null,\n"),
        }
        match &self.estimator {
            Some(e) => {
                s.push_str(&format!(
                    "  \"estimator\": {{ \"kind\": \"{}\", \"sampled_rows\": {}, \
                     \"est_nnz\": {}, \"actual_nnz\": {}, \"chunk_hits\": {}, \
                     \"chunk_misses\": {}, \"overflow_rows\": {}, \"retries\": {}, ",
                    e.kind,
                    e.sampled_rows,
                    e.est_nnz,
                    e.actual_nnz,
                    e.chunk_hits,
                    e.chunk_misses,
                    e.overflow_rows,
                    e.retries,
                ));
                if e.headroom.is_finite() {
                    s.push_str(&format!("\"headroom\": {} }},\n", e.headroom));
                } else {
                    s.push_str("\"headroom\": null },\n");
                }
            }
            None => s.push_str("  \"estimator\": null,\n"),
        }
        s.push_str("  \"tenants\": [");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{ \"tenant\": \"{}\", \"submitted\": {}, \"completed\": {}, \
                 \"shed\": {}, \"quota_queued\": {}, \"deadline_missed\": {}, \
                 \"batch_hits\": {}, \"flops\": {}, \
                 \"busy_ns\": {}, \"queued_ns\": {} }}",
                t.tenant,
                t.submitted,
                t.completed,
                t.shed,
                t.quota_queued,
                t.deadline_missed,
                t.batch_hits,
                t.flops,
                t.busy_ns,
                t.queued_ns
            ));
        }
        if !self.tenants.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        match &self.service {
            Some(sv) => {
                let cap = match sv.grid_cache_bytes {
                    Some(c) => c.to_string(),
                    None => "null".to_string(),
                };
                s.push_str(&format!(
                    "  \"service\": {{ \"grid_cache_bytes\": {cap}, \
                     \"resident_grid_bytes\": {}, \
                     \"resident_grid_high_water_bytes\": {}, \"resident_grids\": {}, \
                     \"grid_inserts\": {}, \"grid_evictions\": {}, \"grid_rebuilds\": {}, \
                     \"matrices_resident\": {}, \"matrix_bytes\": {}, \
                     \"matrices_released\": {}, \"deadline_missed\": {} }},\n",
                    sv.resident_grid_bytes,
                    sv.resident_grid_high_water_bytes,
                    sv.resident_grids,
                    sv.grid_inserts,
                    sv.grid_evictions,
                    sv.grid_rebuilds,
                    sv.matrices_resident,
                    sv.matrix_bytes,
                    sv.matrices_released,
                    sv.deadline_missed,
                ));
            }
            None => s.push_str("  \"service\": null,\n"),
        }
        s.push_str("  \"degradations\": [");
        for (i, d) in self.degradations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{ \"cause\": \"{}\", \"at_ns\": {}, \"cost_ns\": {} }}",
                d.cause.name(),
                d.at_ns,
                d.cost_ns
            ));
        }
        if !self.degradations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str("  \"chunks\": [");
        for (i, c) in self.chunks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let cause = match c.demotion_cause {
                Some(DemotionCause::DeviceMemory) => "\"device_memory\"".to_string(),
                Some(DemotionCause::Faults) => "\"faults\"".to_string(),
                Some(DemotionCause::Deadline) => "\"deadline\"".to_string(),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "\n    {{ \"row\": {}, \"col\": {}, \"attempts\": {}, \"resplits\": {}, \
                 \"demotions\": {}, \"demotion_cause\": {cause} }}",
                c.row, c.col, c.attempts, c.resplits, c.demotions
            ));
        }
        if !self.chunks.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn push_u64(s: &mut String, indent: usize, key: &str, v: u64, comma: bool) {
    s.push_str(&"  ".repeat(indent));
    s.push_str(&format!("\"{key}\": {v}"));
    s.push_str(if comma { ",\n" } else { "\n" });
}

fn push_f64(s: &mut String, indent: usize, key: &str, v: f64, comma: bool) {
    s.push_str(&"  ".repeat(indent));
    // Non-finite values have no JSON literal; they cannot occur here
    // (all divisors are guarded) but null beats invalid output.
    if v.is_finite() {
        s.push_str(&format!("\"{key}\": {v}"));
    } else {
        s.push_str(&format!("\"{key}\": null"));
    }
    s.push_str(if comma { ",\n" } else { "\n" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_serialize_to_balanced_json() {
        let json = Metrics::default().to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"completion_ns\": 0"));
        assert!(json.contains("\"kernel_classes\": []"));
        assert!(json.contains("\"chunks\": []"));
    }

    #[test]
    fn chunk_counters_serialize_with_causes() {
        let mut c = ChunkMetrics::new(ChunkId { row: 1, col: 2 });
        c.attempts = 3;
        c.demotions = 1;
        c.demotion_cause = Some(DemotionCause::DeviceMemory);
        let m = Metrics {
            chunks: vec![c],
            ..Metrics::default()
        };
        let json = m.to_json();
        assert!(json.contains("\"row\": 1, \"col\": 2, \"attempts\": 3"));
        assert!(json.contains("\"demotion_cause\": \"device_memory\""));
    }

    #[test]
    fn degradation_events_serialize_with_cause_names() {
        let json = Metrics::default().to_json();
        assert!(json.contains("\"degradations\": []"), "{json}");
        let m = Metrics::default().with_degradations(vec![
            DegradationEvent {
                cause: DegradationCause::HeadroomShrink,
                at_ns: 10,
                cost_ns: 0,
            },
            DegradationEvent {
                cause: DegradationCause::DeadlineDemotion,
                at_ns: 20,
                cost_ns: 5,
            },
        ]);
        let json = m.to_json();
        assert!(json.contains("\"cause\": \"headroom_shrink\""), "{json}");
        assert!(json.contains("\"cause\": \"deadline_demotion\""));
        assert!(json.contains("\"cost_ns\": 5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn deadline_demotion_cause_serializes() {
        let mut c = ChunkMetrics::new(ChunkId { row: 0, col: 0 });
        c.demotions = 1;
        c.demotion_cause = Some(DemotionCause::Deadline);
        let m = Metrics {
            chunks: vec![c],
            ..Metrics::default()
        };
        assert!(m.to_json().contains("\"demotion_cause\": \"deadline\""));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut m = Metrics::default();
        m.timeline.overlap_efficiency = f64::NAN;
        assert!(m.to_json().contains("\"overlap_efficiency\": null"));
    }

    #[test]
    fn estimator_stats_serialize_and_default_to_null() {
        let json = Metrics::default().to_json();
        assert!(json.contains("\"estimator\": null"), "{json}");
        let m = Metrics::default().with_estimator(EstimatorStats {
            kind: "row-sample".into(),
            sampled_rows: 30,
            est_nnz: 900,
            actual_nnz: 1000,
            chunk_hits: 5,
            chunk_misses: 1,
            overflow_rows: 12,
            retries: 1,
            headroom: 1.5,
        });
        let json = m.to_json();
        assert!(json.contains("\"kind\": \"row-sample\""), "{json}");
        assert!(json.contains("\"est_nnz\": 900"));
        assert!(json.contains("\"actual_nnz\": 1000"));
        assert!(json.contains("\"chunk_misses\": 1"));
        assert!(json.contains("\"overflow_rows\": 12"));
        assert!(json.contains("\"headroom\": 1.5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn tenant_stats_serialize_and_default_to_empty() {
        let json = Metrics::default().to_json();
        assert!(json.contains("\"tenants\": []"), "{json}");
        let m = Metrics::default().with_tenants(vec![TenantStats {
            tenant: "acme".into(),
            submitted: 10,
            completed: 8,
            shed: 1,
            quota_queued: 2,
            deadline_missed: 1,
            batch_hits: 3,
            flops: 1_000_000,
            busy_ns: 50_000,
            queued_ns: 7_000,
        }]);
        let json = m.to_json();
        assert!(json.contains("\"tenant\": \"acme\""), "{json}");
        assert!(json.contains("\"submitted\": 10"));
        assert!(json.contains("\"shed\": 1"));
        assert!(json.contains("\"quota_queued\": 2"));
        assert!(json.contains("\"deadline_missed\": 1"));
        assert!(json.contains("\"batch_hits\": 3"));
        assert!(json.contains("\"queued_ns\": 7000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn service_stats_serialize_and_default_to_null() {
        let json = Metrics::default().to_json();
        assert!(json.contains("\"service\": null"), "{json}");
        let m = Metrics::default().with_service(ServiceStats {
            grid_cache_bytes: Some(1 << 20),
            resident_grid_bytes: 700_000,
            resident_grid_high_water_bytes: 1_000_000,
            resident_grids: 2,
            grid_inserts: 9,
            grid_evictions: 7,
            grid_rebuilds: 4,
            matrices_resident: 3,
            matrix_bytes: 120_000,
            matrices_released: 1,
            deadline_missed: 2,
        });
        let json = m.to_json();
        assert!(json.contains("\"grid_cache_bytes\": 1048576"), "{json}");
        assert!(json.contains("\"resident_grid_bytes\": 700000"));
        assert!(json.contains("\"resident_grid_high_water_bytes\": 1000000"));
        assert!(json.contains("\"grid_evictions\": 7"));
        assert!(json.contains("\"grid_rebuilds\": 4"));
        assert!(json.contains("\"matrices_released\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // An unbounded cache serializes its cap as null.
        let m = Metrics::default().with_service(ServiceStats::default());
        assert!(m.to_json().contains("\"grid_cache_bytes\": null"));
    }

    #[test]
    fn scheduler_stats_serialize_and_default_to_null() {
        let json = Metrics::default().to_json();
        assert!(json.contains("\"scheduler\": null"), "{json}");
        let m = Metrics::default().with_scheduler(SchedulerStats {
            kind: SchedulerKind::WorkStealing,
            gpu_claims: 8,
            cpu_steals: 4,
            gpu_idle_ns: 0,
            cpu_idle_ns: 1234,
            realized_gpu_ratio: 0.71,
        });
        let json = m.to_json();
        assert!(json.contains("\"kind\": \"work-stealing\""), "{json}");
        assert!(json.contains("\"gpu_claims\": 8"));
        assert!(json.contains("\"cpu_steals\": 4"));
        assert!(json.contains("\"cpu_idle_ns\": 1234"));
        assert!(json.contains("\"realized_gpu_ratio\": 0.71"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
