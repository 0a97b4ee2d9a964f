//! The out-of-core GPU executor (Algorithm 3 + Section IV).

use crate::assemble::assemble;
use crate::chunks::{ChunkGrid, ChunkId, ChunkInfo};
use crate::config::{ExecMode, OocConfig};
use crate::faults::{self, HostFaultKind, HostFaultState};
use crate::metrics::{
    ChunkMetrics, DegradationCause, DegradationEvent, DemotionCause, EstimatorStats, Metrics,
};
use crate::pipeline::{ChunkFailure, Footprint, PipelineSession};
use crate::plan::{split_range_by_flops, PanelPlan, Planner};
use crate::recovery::{backoff_ns, RecoveryReport};
use crate::{OocError, Result};
use accum::estimate::{EstModel, EstimatorKind};
use gpu_sim::{GpuSim, SimTime, Timeline};
use gpu_spgemm::{phases, ChunkJob, PreparedChunk};
use sparse::partition::{ColPanel, ColPartitioner};
use sparse::{CsrMatrix, CsrView};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// All chunks of a plan, prepared (real results + descriptors), in
/// row-major grid order. Shared by the GPU-only and hybrid executors.
pub struct PreparedGrid {
    /// The panel plan the grid was prepared under.
    pub plan: PanelPlan,
    /// Per-chunk flop/nnz descriptors for ordering decisions.
    pub grid: ChunkGrid,
    /// Row-major; `prepared[r * col_panels + c]`.
    pub prepared: Vec<PreparedChunk>,
    /// The partitioned B panels, retained so recovery can re-prepare
    /// sub-chunks against the same panels.
    pub col_panels: Vec<ColPanel>,
    /// Global per-row flop prefix sums from the planner, retained for
    /// recovery re-splitting.
    pub row_flops_prefix: Vec<u64>,
    /// The calibrated estimator model when the grid was planned from
    /// nnz(C) estimates instead of the exact symbolic pass; `None` for
    /// exact plans. A `Some` here means every prepared chunk carries a
    /// speculative descriptor and the executor runs the speculative
    /// schedule.
    pub est_model: Option<EstModel>,
}

impl PreparedGrid {
    /// The prepared chunk at grid position `id`.
    pub fn chunk(&self, id: ChunkId) -> &PreparedChunk {
        &self.prepared[id.row * self.plan.col_panels() + id.col]
    }

    /// Total flops of the multiplication.
    pub fn total_flops(&self) -> u64 {
        self.grid.total_flops()
    }

    /// Total output nonzeros across all chunks.
    pub fn total_nnz(&self) -> u64 {
        self.prepared.iter().map(|p| p.nnz).sum()
    }

    /// Approximate resident host-heap footprint of the grid, in bytes:
    /// the per-chunk output CSR arrays, the retained B column panels,
    /// the row-group index vectors, and the planner prefix sums. The
    /// service frontend's grid cache charges this number against
    /// `ServiceConfig::grid_cache_bytes`, so it deliberately counts the
    /// arrays that dominate residency (everything `Vec`-shaped) and
    /// ignores fixed-size struct overhead.
    pub fn resident_bytes(&self) -> u64 {
        fn csr_bytes(m: &CsrMatrix) -> u64 {
            // row_offsets: usize per row + 1; col ids: u32; values: f64.
            ((m.n_rows() + 1) * 8 + m.nnz() * 12) as u64
        }
        let chunks: u64 = self
            .prepared
            .iter()
            .map(|p| {
                // Symbolic and numeric row groups each hold one u32 per
                // panel row (plus per-group flop totals, negligible).
                csr_bytes(&p.result) + p.rows as u64 * 8
            })
            .sum();
        let panels: u64 = self.col_panels.iter().map(|cp| csr_bytes(&cp.matrix)).sum();
        let prefix = (self.row_flops_prefix.len() * 8) as u64;
        chunks + panels + prefix
    }
}

pub(crate) type PlannedGrid = (
    PanelPlan,
    ChunkGrid,
    Vec<ColPanel>,
    Vec<u64>,
    Option<EstModel>,
);

/// The planning prologue shared by the parallel and serial grid
/// preparation and by spill resume: validate, plan panels, partition
/// B, and size the grid.
///
/// With a non-exact estimator and async mode, the panel plan is sized
/// from the sampled nnz(C) model ([`Planner::estimated`]) — the exact
/// symbolic planning pass is skipped entirely and the returned model
/// drives speculative execution. Sync mode always plans exactly: its
/// schedule has no overlap to win back, so speculation would only risk
/// overflows.
pub(crate) fn plan_grid(a: &CsrMatrix, b: &CsrMatrix, config: &OocConfig) -> Result<PlannedGrid> {
    config.validate()?;
    let speculative =
        config.mode == ExecMode::Async && config.estimator.kind != EstimatorKind::Exact;
    let planner = if speculative {
        Planner::estimated(a, b, &config.estimator)?
    } else {
        Planner::new(a, b)?
    };
    let plan = match config.panels {
        Some((r, c)) => planner.fixed(r, c)?,
        None => planner.auto(config.device.device_memory_bytes)?,
    };
    let row_flops_prefix = planner.row_flops_prefix().to_vec();
    let est_model = planner.est_model().copied();
    let col_panels = ColPartitioner::ParallelPrefixSum.partition(b, &plan.col_ranges);
    let grid = ChunkGrid::compute(a, &plan, &col_panels);
    Ok((plan, grid, col_panels, row_flops_prefix, est_model))
}

/// Attaches the speculative descriptor to every chunk of a grid that
/// was planned from estimates. One shared post-pass for both
/// preparation engines, so the parallel and serial grids stay
/// field-identical (the `prepare_equivalence` suite covers `spec`
/// too). The chunks' exact results are untouched — speculation only
/// changes how the simulation sizes and schedules them.
fn attach_speculation_all(
    a: &CsrMatrix,
    plan: &PanelPlan,
    col_panels: &[ColPanel],
    prepared: &mut [PreparedChunk],
    model: &EstModel,
) {
    let k_c = plan.col_panels();
    for (idx, chunk) in prepared.iter_mut().enumerate() {
        let range = &plan.row_ranges[idx / k_c];
        let a_panel = CsrView::rows(a, range.start, range.end);
        phases::attach_speculation(chunk, &a_panel, &col_panels[idx % k_c].matrix, model);
    }
}

/// Plans, partitions and prepares every chunk of `C = a · b`.
///
/// Chunk preparation — the host-side hot path — runs on the calling
/// thread plus up to `available_parallelism − 1` scoped workers, all
/// draining one atomic cursor over the row-major grid. Every chunk is
/// a pure function of its A row panel and B column panel, so each
/// worker writes its finished [`PreparedChunk`] into a pre-sized slot
/// and the assembled vector is bit-identical to
/// [`prepare_grid_serial`]'s, in the same row-major order, on any core
/// count (the `prepare_equivalence` suite asserts this field by
/// field). Workers share one [`accum::ScratchPool`], and chunks whose
/// B panel spans all of B reuse the planner's cached flop prefix
/// instead of re-running row analysis.
pub fn prepare_grid(a: &CsrMatrix, b: &CsrMatrix, config: &OocConfig) -> Result<PreparedGrid> {
    prepare_grid_pooled(a, b, config, &accum::ScratchPool::new())
}

/// [`prepare_grid`] against a caller-owned [`accum::ScratchPool`], so a
/// long-lived frontend (the service layer) keeps its workers' scratch
/// warm across requests instead of re-growing it per multiplication.
/// Pooling only changes allocation reuse, never results — the prepared
/// grid is bit-identical to a cold-pool preparation.
pub fn prepare_grid_pooled(
    a: &CsrMatrix,
    b: &CsrMatrix,
    config: &OocConfig,
    pool: &accum::ScratchPool,
) -> Result<PreparedGrid> {
    prepare_grid_workers(a, b, config, pool, None).map(|(pg, _)| pg)
}

/// Extracts a readable message from a captured panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The chunk-preparation engine behind [`prepare_grid_pooled`] and the
/// hybrid executor. Worker 0 is the calling thread — the hybrid's GPU
/// host thread — and the rest are scoped CPU workers; there are
/// `min(available_parallelism, chunks)` in all.
///
/// Each worker runs under `catch_unwind`. Once all are joined, the
/// calling thread re-prepares whatever a panicked worker claimed but
/// did not finish, and the indices of the panicked workers are
/// returned in ascending order; with
/// [`crate::RecoveryPolicy::drain_worker_panics`] off, the first panic
/// is an [`OocError::Worker`] instead. `panic_after` arms worker 0 to
/// panic after preparing that many chunks
/// ([`gpu_sim::FaultPlan::worker_panic_after`]).
pub(crate) fn prepare_grid_workers(
    a: &CsrMatrix,
    b: &CsrMatrix,
    config: &OocConfig,
    pool: &accum::ScratchPool,
    panic_after: Option<u64>,
) -> Result<(PreparedGrid, Vec<usize>)> {
    let (plan, grid, col_panels, row_flops_prefix, est_model) = plan_grid(a, b, config)?;
    let k_c = plan.col_panels();
    let n = plan.num_chunks();
    let prepare = |idx: usize| {
        let range = &plan.row_ranges[idx / k_c];
        // With a single column panel, the panel's per-row flops equal
        // the planner's global ones, so the cached prefix replaces the
        // chunk's row analysis.
        let prefix = (k_c == 1).then(|| &row_flops_prefix[range.start..=range.end]);
        phases::prepare_chunk_with(
            ChunkJob {
                a_panel: CsrView::rows(a, range.start, range.end),
                b_panel: &col_panels[idx % k_c].matrix,
                chunk_id: idx,
            },
            pool,
            prefix,
        )
    };
    let slots: Vec<OnceLock<PreparedChunk>> = (0..n).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let work = |w: usize| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut done = 0u64;
            loop {
                if w == 0 && panic_after == Some(done) {
                    panic!("injected gpu worker fault after {done} prepared chunks");
                }
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                // The cursor hands out every index once, so no slot is
                // ever set twice.
                let _ = slots[idx].set(prepare(idx));
                done += 1;
            }
        }))
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n)
        .max(1);
    let outcomes = crossbeam::thread::scope(|s| {
        let work = &work;
        let helpers: Vec<_> = (1..workers).map(|w| s.spawn(move |_| work(w))).collect();
        let mut outcomes = vec![work(0)];
        outcomes.extend(
            helpers
                .into_iter()
                .map(|h| h.join().and_then(|caught| caught)),
        );
        outcomes
    })
    .map_err(|payload| OocError::Worker {
        worker: "prepare scope".to_string(),
        message: panic_message(payload.as_ref()),
    })?;
    let mut dead = Vec::new();
    for (w, outcome) in outcomes.into_iter().enumerate() {
        if let Err(payload) = outcome {
            if !config.recovery.drain_worker_panics {
                return Err(OocError::Worker {
                    worker: if w == 0 {
                        "gpu".to_string()
                    } else {
                        format!("cpu {w}")
                    },
                    message: panic_message(payload.as_ref()),
                });
            }
            dead.push(w);
        }
    }
    let mut prepared: Vec<PreparedChunk> = slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| slot.into_inner().unwrap_or_else(|| prepare(idx)))
        .collect();
    if let Some(model) = &est_model {
        attach_speculation_all(a, &plan, &col_panels, &mut prepared, model);
    }
    let pg = PreparedGrid {
        plan,
        grid,
        prepared,
        col_panels,
        row_flops_prefix,
        est_model,
    };
    Ok((pg, dead))
}

/// [`prepare_grid`] with the original serial chunk loop and the
/// pre-parallel per-chunk engine, retained as the equivalence oracle
/// and the bench baseline.
pub fn prepare_grid_serial(
    a: &CsrMatrix,
    b: &CsrMatrix,
    config: &OocConfig,
) -> Result<PreparedGrid> {
    let (plan, grid, col_panels, row_flops_prefix, est_model) = plan_grid(a, b, config)?;
    let k_c = plan.col_panels();
    let mut prepared = Vec::with_capacity(plan.num_chunks());
    for (r, range) in plan.row_ranges.iter().enumerate() {
        let a_view = CsrView::rows(a, range.start, range.end);
        for (c, panel) in col_panels.iter().enumerate() {
            prepared.push(phases::prepare_chunk_serial(ChunkJob {
                a_panel: a_view,
                b_panel: &panel.matrix,
                chunk_id: r * k_c + c,
            }));
        }
    }
    if let Some(model) = &est_model {
        attach_speculation_all(a, &plan, &col_panels, &mut prepared, model);
    }
    Ok(PreparedGrid {
        plan,
        grid,
        prepared,
        col_panels,
        row_flops_prefix,
        est_model,
    })
}

/// One device's simulated run over an ordered chunk list.
pub(crate) struct DeviceRun {
    /// Simulated completion time.
    pub sim_ns: SimTime,
    /// The device timeline.
    pub timeline: Timeline,
    /// Device metrics, with per-chunk counters and degradations.
    pub metrics: Metrics,
    /// What recovery did (all-zero for a fault-free run).
    pub report: RecoveryReport,
    /// Results of re-split chunks (see [`RecoveredOutcome`]).
    pub overrides: HashMap<ChunkId, CsrMatrix>,
}

/// Builds the device simulator (faulted when `config` carries a fault
/// plan), runs `order` on it and collects its metrics. Every async run
/// goes through the pass-based Figure 6 pipeline
/// ([`simulate_order_recovering`]). Sync mode runs the paper's
/// Algorithm 3 baseline loop unless faults, host faults or a budget
/// are installed: recovery needs the pool geometry to reason about what
/// fits, so supervised sync runs take the pipeline too.
pub(crate) fn run_device(
    a: &CsrMatrix,
    pg: &PreparedGrid,
    order: &[ChunkInfo],
    config: &OocConfig,
) -> Result<DeviceRun> {
    let mut sim = match &config.fault_plan {
        Some(plan) => GpuSim::with_faults(config.device.clone(), config.cost.clone(), plan.clone()),
        None => GpuSim::new(config.device.clone(), config.cost.clone()),
    };
    let baseline = config.mode == ExecMode::Sync
        && config.fault_plan.is_none()
        && config.host_faults.is_none()
        && config.budget.is_none();
    if baseline {
        let sim_ns = simulate_sync(&mut sim, pg, order)?;
        return Ok(DeviceRun {
            sim_ns,
            metrics: Metrics::collect(&sim, sim_ns),
            timeline: sim.into_timeline(),
            report: RecoveryReport::default(),
            overrides: HashMap::new(),
        });
    }
    let rec = simulate_order_recovering(&mut sim, a, pg, order, config)?;
    Ok(DeviceRun {
        sim_ns: rec.sim_ns,
        metrics: Metrics::collect(&sim, rec.sim_ns)
            .with_chunks(rec.chunk_stats)
            .with_degradations(rec.degradations),
        timeline: sim.into_timeline(),
        report: rec.report,
        overrides: rec.overrides,
    })
}

/// The synchronous baseline (Algorithm 3): one stream, per-chunk
/// device allocations, no overlap. The A panel stays resident while
/// consecutive chunks share it.
fn simulate_sync(sim: &mut GpuSim, pg: &PreparedGrid, order: &[ChunkInfo]) -> Result<SimTime> {
    let stream = sim.create_stream();
    let mut done = sim.now();
    for (i, info) in order.iter().enumerate() {
        let xfer_a = i == 0 || order[i - 1].id.row != info.id.row;
        done = gpu_spgemm::simulate_sync_chunk(sim, stream, pg.chunk(info.id), xfer_a)?;
    }
    Ok(done)
}

/// What the self-healing orchestration produced: the final simulated
/// time, recovery accounting, and result overrides for re-split chunks
/// (vstacked from their sub-chunk results — bit-identical to the
/// original chunk result because SpGEMM rows are independent).
pub(crate) struct RecoveredOutcome {
    pub sim_ns: SimTime,
    pub report: RecoveryReport,
    pub overrides: HashMap<ChunkId, CsrMatrix>,
    /// Per-planned-chunk attempt/re-split/demotion counters, ordered
    /// by (row, col).
    pub chunk_stats: Vec<ChunkMetrics>,
    /// Supervised degradation events, in the order they took effect.
    pub degradations: Vec<DegradationEvent>,
}

enum WorkSource {
    Orig(ChunkId),
    Sub(usize),
}

struct WorkItem {
    parent: ChunkId,
    rows: Range<usize>,
    depth: u32,
    source: WorkSource,
}

impl WorkItem {
    /// The prepared chunk this item runs: a planned grid chunk or a
    /// re-split/grown piece in `sub_store`.
    fn chunk<'a>(&self, pg: &'a PreparedGrid, sub_store: &'a [PreparedChunk]) -> &'a PreparedChunk {
        match self.source {
            WorkSource::Orig(id) => pg.chunk(id),
            WorkSource::Sub(si) => &sub_store[si],
        }
    }
}

/// Self-healing pass-based orchestration: the one schedule of every
/// async run, and of sync runs with a fault plan, host-fault plan or
/// run budget (recovery needs the pool geometry to reason about what
/// fits). Each pass pushes the surviving work list through one
/// [`PipelineSession`] on one persistent simulator (time accumulates
/// across passes); failed chunks are re-split along the planner's
/// row-flop prefix sums (OOM), grown (estimate overflow) or demoted to
/// the CPU executor (fault budget exhausted), until the list is empty.
/// A fault-free exact plan completes in one pass, which is exactly the
/// paper's Figure 6 schedule.
///
/// When a [`crate::recovery::RunBudget`] is installed the pass loop is
/// supervised: at every pass boundary the budget's degradation rung is
/// recomputed from elapsed simulated time (plus a recovery-spiral
/// guard on `time_lost_ns`), and the remaining work is degraded
/// monotonically — shrink speculation headroom, then force exact
/// planning, then demote everything to the CPU; if even CPU demotion
/// cannot meet the deadline the run fails with
/// [`crate::OocError::DeadlineExceeded`] carrying partial accounting.
/// Sustained pressure (cumulative capacity shrink, repeated estimate
/// overflows) re-plans the remaining grid in one batch instead of
/// walking every chunk down the per-chunk re-split ladder.
pub(crate) fn simulate_order_recovering(
    sim: &mut GpuSim,
    a: &CsrMatrix,
    pg: &PreparedGrid,
    order: &[ChunkInfo],
    config: &OocConfig,
) -> Result<RecoveredOutcome> {
    let policy = config.recovery;
    let budget = config.budget;
    let mut host = config
        .host_faults
        .as_ref()
        .map(|p| HostFaultState::new(p.derive(faults::streams::EXECUTOR)));
    let mut degradations: Vec<DegradationEvent> = Vec::new();
    let mut rung: u8 = 0;
    let mut deadline_hit = false;
    let planning_capacity = sim.memory().capacity();
    let mut replanned_capacity = false;
    let mut replanned_overflow = false;
    let total_chunks = order.len();
    let mut report = RecoveryReport::default();
    let mut pending: Vec<WorkItem> = order
        .iter()
        .map(|info| WorkItem {
            parent: info.id,
            rows: pg.plan.row_ranges[info.id.row].clone(),
            depth: 0,
            source: WorkSource::Orig(info.id),
        })
        .collect();
    let mut sub_store: Vec<PreparedChunk> = Vec::new();
    // Completed/demoted sub-chunk results per re-split parent, keyed
    // by global start row for the final ordered vstack.
    let mut pieces: HashMap<ChunkId, Vec<(usize, CsrMatrix)>> = HashMap::new();
    let mut next_sub_id = pg.plan.num_chunks();
    let mut stats: HashMap<ChunkId, ChunkMetrics> = HashMap::new();

    while !pending.is_empty() {
        // --- Supervision: walk the budget's degradation ladder. The
        // rung is monotonic; a recovery spiral (time lost above the
        // tolerated fraction) escalates one extra rung.
        if let Some(b) = budget {
            let elapsed = sim.now();
            let mut target = b.rung_at(elapsed);
            if deadline_hit {
                target = 3;
            }
            if elapsed > 0 && report.time_lost_ns as f64 > b.max_recovery_fraction * elapsed as f64
            {
                target = target.max(rung.saturating_add(1)).min(3);
            }
            while rung < target {
                rung += 1;
                match rung {
                    1 => {
                        // Shrink speculation headroom: re-size pending
                        // speculative chunks to their exact output, so
                        // estimate overflows can no longer occur.
                        for w in pending.iter_mut() {
                            let grown = {
                                let p = w.chunk(pg, &sub_store);
                                if p.spec.is_none() {
                                    continue;
                                }
                                p.grown()
                            };
                            sub_store.push(grown);
                            w.source = WorkSource::Sub(sub_store.len() - 1);
                        }
                        sim.note_recovery("budget rung 1: shrink speculation headroom");
                        degradations.push(DegradationEvent {
                            cause: DegradationCause::HeadroomShrink,
                            at_ns: elapsed,
                            cost_ns: 0,
                        });
                    }
                    2 => {
                        // Force exact planning: strip speculation from
                        // the remaining chunks (full symbolic schedule).
                        for w in pending.iter_mut() {
                            let exact = {
                                let p = w.chunk(pg, &sub_store);
                                if p.spec.is_none() {
                                    continue;
                                }
                                let mut e = p.clone();
                                e.spec = None;
                                e
                            };
                            sub_store.push(exact);
                            w.source = WorkSource::Sub(sub_store.len() - 1);
                        }
                        sim.note_recovery("budget rung 2: force exact planning");
                        degradations.push(DegradationEvent {
                            cause: DegradationCause::ForcedExact,
                            at_ns: elapsed,
                            cost_ns: 0,
                        });
                    }
                    _ => {}
                }
            }
            if rung >= 3 {
                // Final rung: demote everything that remains to the CPU
                // at its calibrated (exactly predictable) cost. If even
                // that misses the deadline, fail cleanly with partial
                // accounting instead of burning more simulated time.
                let mut cpu_total: SimTime = 0;
                for w in &pending {
                    let p = w.chunk(pg, &sub_store);
                    cpu_total =
                        cpu_total.saturating_add(config.cost.cpu_chunk_duration(p.flops, p.nnz));
                }
                if elapsed.saturating_add(cpu_total) > b.sim_deadline_ns {
                    let pending_parents: std::collections::HashSet<ChunkId> =
                        pending.iter().map(|w| w.parent).collect();
                    let partial = crate::report::RunReport::new(
                        "partial",
                        "supervised",
                        pg.total_flops(),
                        pg.total_nnz(),
                        elapsed,
                    )
                    .with_recovery(&report)
                    .with_degradations(&degradations);
                    return Err(crate::OocError::DeadlineExceeded {
                        deadline_ns: b.sim_deadline_ns,
                        elapsed_ns: elapsed,
                        completed_chunks: total_chunks - pending_parents.len(),
                        total_chunks,
                        partial: Box::new(partial),
                    });
                }
                sim.note_recovery(format!(
                    "budget rung 3: demote {} remaining work items to CPU",
                    pending.len()
                ));
                degradations.push(DegradationEvent {
                    cause: DegradationCause::DeadlineDemotion,
                    at_ns: elapsed,
                    cost_ns: cpu_total,
                });
                for w in &pending {
                    report.demotions += 1;
                    let s = stats
                        .entry(w.parent)
                        .or_insert_with(|| ChunkMetrics::new(w.parent));
                    s.demotions += 1;
                    s.demotion_cause.get_or_insert(DemotionCause::Deadline);
                    let p = w.chunk(pg, &sub_store);
                    let cpu_ns = config.cost.cpu_chunk_duration(p.flops, p.nnz);
                    report.retry_cpu_chunk(host.as_mut(), &config.cost, cpu_ns, |lost| {
                        sim.host_compute(
                            lost,
                            format!("CPU retry chunk ({},{})", w.parent.row, w.parent.col),
                        )
                    });
                    sim.host_compute(
                        cpu_ns,
                        format!("CPU fallback chunk ({},{})", w.parent.row, w.parent.col),
                    );
                    if let WorkSource::Sub(si) = w.source {
                        pieces
                            .entry(w.parent)
                            .or_default()
                            .push((w.rows.start, sub_store[si].result.clone()));
                    }
                }
                pending.clear();
                continue;
            }
        }

        for w in &pending {
            stats
                .entry(w.parent)
                .or_insert_with(|| ChunkMetrics::new(w.parent))
                .attempts += 1;
        }
        let max_a_bytes = pending
            .iter()
            .map(|w| w.chunk(pg, &sub_store).a_bytes)
            .max()
            .unwrap_or(0);
        let mut session = PipelineSession::new(
            sim,
            config,
            max_a_bytes,
            budget.map(|b| b.demote_after_ns()),
            &mut report,
        )?;
        let mut failed: HashMap<usize, ChunkFailure> = HashMap::new();
        for (i, w) in pending.iter().enumerate() {
            if let Err(f) = session.push(w.chunk(pg, &sub_store), w.parent.row, Footprint::Planned)
            {
                failed.insert(i, f);
            }
        }
        let pass = session.finish();
        failed.extend(pass.failed);

        let mut next: Vec<WorkItem> = Vec::new();
        for (i, w) in pending.iter().enumerate() {
            match failed.get(&i) {
                None => {
                    if let WorkSource::Sub(si) = w.source {
                        pieces
                            .entry(w.parent)
                            .or_default()
                            .push((w.rows.start, sub_store[si].result.clone()));
                    }
                }
                Some(ChunkFailure::Oom(_))
                    if w.rows.len() > 1 && w.depth < policy.max_resplit_depth =>
                {
                    report.resplits += 1;
                    if let Some(s) = stats.get_mut(&w.parent) {
                        s.resplits += 1;
                    }
                    sim.note_recovery(format!(
                        "re-split chunk ({},{}) rows {}..{}",
                        w.parent.row, w.parent.col, w.rows.start, w.rows.end
                    ));
                    for sub in split_range_by_flops(&pg.row_flops_prefix, &w.rows, 2) {
                        if sub.is_empty() {
                            continue;
                        }
                        // Host-allocation pressure: re-preparing a
                        // sub-chunk allocates host buffers, which can
                        // stall under memory pressure.
                        if let Some(h) = host.as_mut() {
                            while h.roll(HostFaultKind::HostAlloc) {
                                let wait = backoff_ns(sim.cost(), 1);
                                report.host_alloc_faults += 1;
                                report.time_lost_ns += wait;
                                sim.host_compute(wait, "host-allocation stall (re-split)");
                            }
                        }
                        let p = phases::prepare_chunk(ChunkJob {
                            a_panel: CsrView::rows(a, sub.start, sub.end),
                            b_panel: &pg.col_panels[w.parent.col].matrix,
                            chunk_id: next_sub_id,
                        });
                        next_sub_id += 1;
                        sub_store.push(p);
                        next.push(WorkItem {
                            parent: w.parent,
                            rows: sub,
                            depth: w.depth + 1,
                            source: WorkSource::Sub(sub_store.len() - 1),
                        });
                    }
                }
                Some(ChunkFailure::Deadline) => {
                    // The budget's demotion point passed mid-pass: keep
                    // the item queued; the supervisor demotes everything
                    // at the next pass boundary (or fails with
                    // `DeadlineExceeded` if even CPU demotion is late).
                    deadline_hit = true;
                    next.push(WorkItem {
                        parent: w.parent,
                        rows: w.rows.clone(),
                        depth: w.depth,
                        source: match w.source {
                            WorkSource::Orig(id) => WorkSource::Orig(id),
                            WorkSource::Sub(si) => WorkSource::Sub(si),
                        },
                    });
                }
                Some(ChunkFailure::EstimateOverflow { needed }) => {
                    // Grow-and-retry: re-run the same rows with the
                    // speculative allocation grown to the actual output
                    // size. The grown chunk's estimate equals its real
                    // output, so it cannot overflow again; if it no
                    // longer fits the epoch it fails as OOM and takes
                    // the ordinary re-split/demote ladder.
                    sim.note_recovery(format!(
                        "grow chunk ({},{}) rows {}..{} to {} output bytes and retry",
                        w.parent.row, w.parent.col, w.rows.start, w.rows.end, needed
                    ));
                    let grown = w.chunk(pg, &sub_store).grown();
                    sub_store.push(grown);
                    next.push(WorkItem {
                        parent: w.parent,
                        rows: w.rows.clone(),
                        depth: w.depth,
                        source: WorkSource::Sub(sub_store.len() - 1),
                    });
                }
                Some(f) => {
                    if !policy.demote_to_cpu {
                        return Err(match f {
                            ChunkFailure::Oom(e) => crate::OocError::DeviceMemory(*e),
                            ChunkFailure::Faults => crate::OocError::Worker {
                                worker: "gpu".into(),
                                message: format!(
                                    "chunk ({},{}) exhausted its retry budget",
                                    w.parent.row, w.parent.col
                                ),
                            },
                            ChunkFailure::EstimateOverflow { .. } => {
                                unreachable!("estimate overflows are always grown and retried")
                            }
                            ChunkFailure::Deadline => {
                                unreachable!("deadline failures are re-queued for supervision")
                            }
                        });
                    }
                    report.demotions += 1;
                    if let Some(s) = stats.get_mut(&w.parent) {
                        s.demotions += 1;
                        s.demotion_cause.get_or_insert(match f {
                            ChunkFailure::Oom(_) => DemotionCause::DeviceMemory,
                            ChunkFailure::Faults => DemotionCause::Faults,
                            ChunkFailure::EstimateOverflow { .. } => {
                                unreachable!("estimate overflows are always grown and retried")
                            }
                            ChunkFailure::Deadline => {
                                unreachable!("deadline failures are re-queued for supervision")
                            }
                        });
                    }
                    let p = w.chunk(pg, &sub_store);
                    let cpu_ns = config.cost.cpu_chunk_duration(p.flops, p.nnz);
                    sim.note_recovery(format!(
                        "demote chunk ({},{}) rows {}..{} to CPU",
                        w.parent.row, w.parent.col, w.rows.start, w.rows.end
                    ));
                    // Demoted chunks run in the CPU fault domain:
                    // transient CPU-kernel faults cost a recompute plus
                    // backoff before the clean pass lands.
                    report.retry_cpu_chunk(host.as_mut(), &config.cost, cpu_ns, |lost| {
                        sim.host_compute(
                            lost,
                            format!("CPU retry chunk ({},{})", w.parent.row, w.parent.col),
                        )
                    });
                    sim.host_compute(
                        cpu_ns,
                        format!("CPU fallback chunk ({},{})", w.parent.row, w.parent.col),
                    );
                    if let WorkSource::Sub(si) = w.source {
                        pieces
                            .entry(w.parent)
                            .or_default()
                            .push((w.rows.start, sub_store[si].result.clone()));
                    }
                }
            }
        }

        // --- Pressure-driven re-planning: cumulative capacity shrink
        // or repeated estimate overflows signal *sustained* pressure;
        // re-split every remaining multi-row item in one batch via the
        // cached planner prefix sums instead of letting each chunk walk
        // the per-chunk re-split ladder alone. Each trigger fires once.
        let capacity_pressure = sim.memory().capacity() * 4 < planning_capacity * 3;
        let overflow_pressure = report.estimate_overflows >= 3;
        let fire = (capacity_pressure && !replanned_capacity)
            || (overflow_pressure && !replanned_overflow);
        if fire
            && next
                .iter()
                .any(|w| w.rows.len() > 1 && w.depth < policy.max_resplit_depth)
        {
            if capacity_pressure {
                replanned_capacity = true;
            }
            if overflow_pressure {
                replanned_overflow = true;
            }
            report.replans += 1;
            degradations.push(DegradationEvent {
                cause: DegradationCause::Replan,
                at_ns: sim.now(),
                cost_ns: 0,
            });
            sim.note_recovery(format!(
                "re-plan {} remaining work items under sustained pressure",
                next.len()
            ));
            let items = std::mem::take(&mut next);
            for w in items {
                if w.rows.len() <= 1 || w.depth >= policy.max_resplit_depth {
                    next.push(w);
                    continue;
                }
                for sub in split_range_by_flops(&pg.row_flops_prefix, &w.rows, 2) {
                    if sub.is_empty() {
                        continue;
                    }
                    if let Some(h) = host.as_mut() {
                        while h.roll(HostFaultKind::HostAlloc) {
                            let wait = backoff_ns(sim.cost(), 1);
                            report.host_alloc_faults += 1;
                            report.time_lost_ns += wait;
                            sim.host_compute(wait, "host-allocation stall (re-plan)");
                        }
                    }
                    let p = phases::prepare_chunk(ChunkJob {
                        a_panel: CsrView::rows(a, sub.start, sub.end),
                        b_panel: &pg.col_panels[w.parent.col].matrix,
                        chunk_id: next_sub_id,
                    });
                    next_sub_id += 1;
                    sub_store.push(p);
                    next.push(WorkItem {
                        parent: w.parent,
                        rows: sub,
                        depth: w.depth + 1,
                        source: WorkSource::Sub(sub_store.len() - 1),
                    });
                }
            }
        }
        if !next.is_empty() {
            // Release the pool so the next pass sizes its own pool
            // against the then-current device capacity.
            sim.free(pass.pool, "pre-allocated pool");
        }
        pending = next;
    }

    let mut overrides = HashMap::new();
    for (parent, mut parts) in pieces {
        parts.sort_by_key(|&(start, _)| start);
        let refs: Vec<&CsrMatrix> = parts.iter().map(|(_, m)| m).collect();
        debug_assert_eq!(
            refs.iter().map(|m| m.n_rows()).sum::<usize>(),
            pg.plan.row_ranges[parent.row].len(),
            "sub-chunk results must tile the parent chunk exactly"
        );
        overrides.insert(parent, sparse::ops::vstack(&refs)?);
    }
    let mut chunk_stats: Vec<ChunkMetrics> = stats.into_values().collect();
    chunk_stats.sort_unstable_by_key(|s| (s.row, s.col));
    Ok(RecoveredOutcome {
        sim_ns: sim.finish(),
        report,
        overrides,
        chunk_stats,
        degradations,
    })
}

/// Estimator accuracy accounting for a speculative run: per-chunk
/// hit/miss against the estimated allocations, summed estimated vs
/// actual output nonzeros, the applied headroom, and the
/// grow-and-retry count from the recovery report. Shared by every
/// executor that honors the estimator (async, hybrid, multi-GPU).
pub(crate) fn estimator_stats(
    config: &OocConfig,
    pg: &PreparedGrid,
    model: &EstModel,
    recovery: &RecoveryReport,
) -> EstimatorStats {
    let mut est_nnz = 0u64;
    let mut chunk_hits = 0u64;
    let mut chunk_misses = 0u64;
    let mut overflow_rows = 0u64;
    for p in &pg.prepared {
        if let Some(spec) = &p.spec {
            est_nnz += spec.est_nnz;
            overflow_rows += spec.row_overflows;
            if spec.overflowed(p.out_bytes) {
                chunk_misses += 1;
            } else {
                chunk_hits += 1;
            }
        }
    }
    EstimatorStats {
        kind: config.estimator.kind.name().to_string(),
        sampled_rows: model.sampled_rows as u64,
        est_nnz,
        actual_nnz: pg.total_nnz(),
        chunk_hits,
        chunk_misses,
        overflow_rows,
        retries: recovery.estimate_overflows,
        headroom: config.estimator.headroom,
    }
}

/// Target over-allocation for an adapted headroom: aim to allocate
/// ~10% above the actual output.
const ADAPT_TARGET_OVER: f64 = 1.10;
/// Never adapt below this headroom — a hair of margin keeps ordinary
/// model jitter from turning every chunk into a grow-and-retry.
const ADAPT_MIN_HEADROOM: f64 = 1.05;

/// Adapts the speculative headroom for the next link of a chained run
/// (`power`, `triple_product`) from the previous link's estimator
/// accuracy. The previous iteration's actual nnz(C) is in hand, so
/// re-estimating with the same fixed headroom wastes allocation:
///
/// * all chunks hit → shrink toward `est/actual ≈ ADAPT_TARGET_OVER`,
///   floored at `ADAPT_MIN_HEADROOM` and capped at the configured base;
/// * any chunk missed → fall back to the configured base headroom.
///
/// Only allocation-sizing inputs (chunk hits/misses, estimated vs
/// actual nnz) feed the adaptation — they are pure grid properties, so
/// faulted and clean chains adapt identically and chained results stay
/// bit-identical under fault injection. The applied value is recorded
/// in [`EstimatorStats::headroom`] per iteration.
pub(crate) fn adapt_headroom(
    base: accum::estimate::EstimateConfig,
    prev: Option<&EstimatorStats>,
) -> accum::estimate::EstimateConfig {
    if base.kind == EstimatorKind::Exact {
        return base;
    }
    let Some(prev) = prev else { return base };
    if prev.chunk_misses > 0 || prev.actual_nnz == 0 {
        return base;
    }
    // est/actual is (model error) x (applied headroom); divide the
    // target through it to land the next allocation near the target.
    let over = prev.est_nnz as f64 / prev.actual_nnz as f64;
    if !(over.is_finite() && over > 0.0) {
        return base;
    }
    let next = (prev.headroom * ADAPT_TARGET_OVER / over)
        .max(ADAPT_MIN_HEADROOM)
        .min(base.headroom);
    accum::estimate::EstimateConfig {
        headroom: next,
        ..base
    }
}

/// The out-of-core GPU SpGEMM executor.
pub struct OutOfCoreGpu {
    config: OocConfig,
}

/// A completed out-of-core run.
#[derive(Debug)]
pub struct OocRun {
    /// The full product matrix.
    pub c: CsrMatrix,
    /// Simulated end-to-end time, ns (includes all output transfers).
    pub sim_ns: SimTime,
    /// Total flops of the multiplication.
    pub flops: u64,
    /// Output nonzeros.
    pub nnz_c: u64,
    /// The device timeline.
    pub timeline: Timeline,
    /// The panel plan used.
    pub plan: PanelPlan,
    /// Chunk execution order.
    pub order: Vec<ChunkId>,
    /// What recovery did (all-zero for a fault-free run).
    pub recovery: RecoveryReport,
    /// Structured run metrics (DESIGN.md §9).
    pub metrics: Metrics,
}

impl OocRun {
    /// GFLOPS over simulated time — the paper's Figure 7 metric ("the
    /// execution times measured for GFLOPS calculation include the time
    /// for transferring all chunks of the output matrix").
    pub fn gflops(&self) -> f64 {
        if self.sim_ns == 0 {
            return 0.0;
        }
        self.flops as f64 / self.sim_ns as f64
    }

    /// Simulated milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }

    /// Fraction of the makespan spent on transfers (Figure 4 metric).
    pub fn transfer_fraction(&self) -> f64 {
        self.timeline.transfer_fraction()
    }
}

impl OutOfCoreGpu {
    /// Creates an executor with the given configuration.
    pub fn new(config: OocConfig) -> Self {
        OutOfCoreGpu { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &OocConfig {
        &self.config
    }

    /// Computes `C = a · b` out-of-core.
    pub fn multiply(&self, a: &CsrMatrix, b: &CsrMatrix) -> Result<OocRun> {
        let pg = prepare_grid(a, b, &self.config)?;
        self.multiply_prepared(a, &pg)
    }

    /// Runs the simulation/recovery/assembly epilogue of [`multiply`]
    /// against an already-prepared grid. The grid is borrowed, so a
    /// long-lived frontend can cache one [`PreparedGrid`] per operand
    /// pair and serve many requests from it — the run is bit-identical
    /// to a one-shot [`multiply`] with the same configuration because
    /// preparation is deterministic and the epilogue never mutates the
    /// grid. The caller must have prepared the grid under a
    /// configuration whose planning-relevant fields (panels, estimator,
    /// column partitioner, device geometry) match `self.config()`.
    pub fn multiply_prepared(&self, a: &CsrMatrix, pg: &PreparedGrid) -> Result<OocRun> {
        // Sync mode follows Algorithm 3's natural loop; async mode
        // reorders by decreasing flops when configured (Section IV-C),
        // grouped by row panel to keep the A panel resident.
        let order = match (self.config.mode, self.config.reorder_chunks) {
            (ExecMode::Async, true) => ChunkGrid::grouped_desc(&pg.grid.sorted_desc()),
            _ => pg.grid.natural_order(),
        };
        let DeviceRun {
            sim_ns,
            timeline,
            metrics,
            report: recovery,
            overrides,
        } = run_device(a, pg, &order, &self.config)?;
        let metrics = match &pg.est_model {
            Some(model) => {
                metrics.with_estimator(estimator_stats(&self.config, pg, model, &recovery))
            }
            None => metrics,
        };
        debug_assert!(timeline.validate().is_ok(), "timeline invariants violated");

        let chunk_refs: Vec<(ChunkId, &CsrMatrix)> = order
            .iter()
            .map(|info| {
                let result = overrides.get(&info.id).unwrap_or(&pg.chunk(info.id).result);
                (info.id, result)
            })
            .collect();
        let c = assemble(&pg.plan, &chunk_refs);
        Ok(OocRun {
            flops: pg.total_flops(),
            nnz_c: pg.total_nnz(),
            sim_ns,
            timeline,
            order: order.iter().map(|i| i.id).collect(),
            plan: pg.plan.clone(),
            recovery,
            metrics,
            c,
        })
    }
}

/// A completed chained computation (triple product, matrix power):
/// the final matrix plus the *aggregated* accounting of every
/// constituent multiplication. Earlier versions returned only
/// `(matrix, time)` and silently dropped the per-iteration metrics and
/// recovery reports, so a faulted k-hop run looked clean.
#[derive(Debug)]
pub struct ChainedRun {
    /// The final product matrix.
    pub c: CsrMatrix,
    /// Sum of the simulated times of all constituent multiplications
    /// (the products are data-dependent and cannot overlap).
    pub sim_ns: SimTime,
    /// All constituent recovery reports merged; non-zero counters mean
    /// faults were injected *somewhere* in the chain.
    pub recovery: RecoveryReport,
    /// Per-multiplication metrics, in execution order.
    pub metrics: Vec<Metrics>,
}

impl OutOfCoreGpu {
    /// Galerkin triple product `R · A · P` — the algebraic-multigrid
    /// kernel the paper's introduction motivates ("preconditioners such
    /// as algebraic multigrid"). Two chained out-of-core
    /// multiplications; the returned time is their sum.
    pub fn triple_product(
        &self,
        r: &CsrMatrix,
        a: &CsrMatrix,
        p: &CsrMatrix,
    ) -> Result<ChainedRun> {
        let ra = self.multiply(r, a)?;
        // The first product's estimator accuracy is in hand — adapt
        // the second product's headroom instead of re-applying the
        // fixed configured margin (see `adapt_headroom`).
        let est = adapt_headroom(self.config.estimator, ra.metrics.estimator.as_ref());
        let rap = self.with_estimator(est).multiply(&ra.c, p)?;
        let mut recovery = ra.recovery;
        recovery.merge(&rap.recovery);
        Ok(ChainedRun {
            c: rap.c,
            sim_ns: ra.sim_ns + rap.sim_ns,
            recovery,
            metrics: vec![ra.metrics, rap.metrics],
        })
    }

    /// A clone of this executor with a different estimate
    /// configuration — the chained runs use it to apply per-iteration
    /// adapted headrooms.
    fn with_estimator(&self, est: accum::estimate::EstimateConfig) -> OutOfCoreGpu {
        if est == self.config.estimator {
            return OutOfCoreGpu {
                config: self.config.clone(),
            };
        }
        OutOfCoreGpu {
            config: self.config.clone().estimator(est),
        }
    }

    /// Matrix power `A^k` (`k >= 1`) by repeated out-of-core
    /// multiplication — the expansion step of Markov clustering run
    /// `k - 1` times.
    pub fn power(&self, a: &CsrMatrix, k: u32) -> Result<ChainedRun> {
        if k == 0 {
            return Err(crate::OocError::Config("power requires k >= 1".into()));
        }
        let mut acc = a.clone();
        let mut total: SimTime = 0;
        let mut recovery = RecoveryReport::default();
        let mut metrics = Vec::new();
        let mut est = self.config.estimator;
        for _ in 1..k {
            // Each hop re-estimates with a headroom adapted from the
            // previous hop's observed hit-rate instead of the fixed
            // configured margin (see `adapt_headroom`).
            let run = self.with_estimator(est).multiply(&acc, a)?;
            est = adapt_headroom(self.config.estimator, run.metrics.estimator.as_ref());
            acc = run.c;
            total += run.sim_ns;
            recovery.merge(&run.recovery);
            metrics.push(run.metrics);
        }
        Ok(ChainedRun {
            c: acc,
            sim_ns: total,
            recovery,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_spgemm::reference;
    use sparse::gen::{erdos_renyi, grid2d_stencil};

    #[test]
    fn triple_product_matches_chained_reference() {
        let r = erdos_renyi(40, 80, 0.05, 1);
        let a = erdos_renyi(80, 80, 0.05, 2);
        let p = erdos_renyi(80, 40, 0.05, 3);
        let exec = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19));
        let run = exec.triple_product(&r, &a, &p).unwrap();
        assert!(run.sim_ns > 0);
        let expect = reference::multiply(&reference::multiply(&r, &a).unwrap(), &p).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
        assert_eq!(run.metrics.len(), 2, "one metrics record per product");
        assert_eq!(run.recovery, RecoveryReport::default());
    }

    #[test]
    fn power_matches_repeated_reference() {
        let a = erdos_renyi(60, 60, 0.05, 4);
        let exec = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19));
        let p1 = exec.power(&a, 1).unwrap();
        assert_eq!(p1.c, a);
        assert_eq!(p1.sim_ns, 0);
        assert!(p1.metrics.is_empty());
        let p3 = exec.power(&a, 3).unwrap();
        assert!(p3.sim_ns > 0);
        assert_eq!(p3.metrics.len(), 2);
        let expect = reference::multiply(&reference::multiply(&a, &a).unwrap(), &a).unwrap();
        assert!(p3.c.approx_eq(&expect, 1e-9));
        assert!(exec.power(&a, 0).is_err());
    }

    #[test]
    fn faulted_power_is_not_reported_clean() {
        // Regression: chained runs used to drop per-iteration recovery
        // reports and metrics, so a faulted k-hop run looked clean.
        let a = erdos_renyi(120, 120, 0.05, 5);
        let plan = gpu_sim::FaultPlan::seeded(42).all_rates(0.25);
        let exec = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19).fault_plan(plan));
        let run = exec.power(&a, 3).unwrap();
        let clean = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19))
            .power(&a, 3)
            .unwrap();
        assert!(
            run.recovery.kernel_faults
                + run.recovery.copy_faults
                + run.recovery.alloc_faults
                + run.recovery.pool_faults
                > 0,
            "the fault plan must actually fire"
        );
        assert!(run.recovery.retries > 0 || run.recovery.demotions > 0);
        assert_eq!(run.metrics.len(), 2);
        assert!(run.c.approx_eq(&clean.c, 0.0), "faults must not change C");
    }

    fn fixture() -> CsrMatrix {
        erdos_renyi(600, 600, 0.03, 7)
    }

    fn small_config() -> OocConfig {
        // ~1.5 MiB device; the fixture's product is a few MiB, so the
        // run is genuinely out-of-core.
        OocConfig::with_device_memory(3 << 19)
    }

    #[test]
    fn async_result_matches_reference() {
        let a = fixture();
        let run = OutOfCoreGpu::new(small_config()).multiply(&a, &a).unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
        assert!(run.plan.num_chunks() > 1, "must be partitioned");
        assert!(run.sim_ns > 0);
        run.timeline.validate().unwrap();
    }

    #[test]
    fn sync_result_matches_reference() {
        let a = fixture();
        let run = OutOfCoreGpu::new(small_config().mode(ExecMode::Sync))
            .multiply(&a, &a)
            .unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn async_beats_sync() {
        // The headline claim of Section IV: overlap + pre-allocation
        // beat the synchronous baseline.
        let a = grid2d_stencil(36, 36, 2, 3);
        let cfg = OocConfig::with_device_memory(2 << 20).panels(3, 3);
        let sync = OutOfCoreGpu::new(cfg.clone().mode(ExecMode::Sync))
            .multiply(&a, &a)
            .unwrap();
        let asyn = OutOfCoreGpu::new(cfg.mode(ExecMode::Async))
            .multiply(&a, &a)
            .unwrap();
        assert!(
            asyn.sim_ns < sync.sim_ns,
            "async {} !< sync {}",
            asyn.sim_ns,
            sync.sim_ns
        );
        assert!(
            asyn.c.approx_eq(&sync.c, 1e-9),
            "both modes must agree numerically"
        );
    }

    #[test]
    fn reordering_executes_descending_flops() {
        let a = fixture();
        let run = OutOfCoreGpu::new(small_config().panels(2, 3))
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(run.order.len(), 6);
        // Order must be a permutation of the grid.
        let mut seen = run.order.clone();
        seen.sort_by_key(|id| (id.row, id.col));
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn explicit_panels_are_respected() {
        let a = fixture();
        let run = OutOfCoreGpu::new(OocConfig::with_device_memory(64 << 20).panels(2, 2))
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(run.plan.row_panels(), 2);
        assert_eq!(run.plan.col_panels(), 2);
    }

    #[test]
    fn gflops_is_flops_over_time() {
        let a = fixture();
        let run = OutOfCoreGpu::new(small_config()).multiply(&a, &a).unwrap();
        let expect = run.flops as f64 / run.sim_ns as f64;
        assert!((run.gflops() - expect).abs() < 1e-12);
        assert!(run.transfer_fraction() > 0.0);
    }

    #[test]
    fn rectangular_product_works() {
        let a = erdos_renyi(300, 200, 0.05, 1);
        let b = erdos_renyi(200, 400, 0.05, 2);
        let run = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19))
            .multiply(&a, &b)
            .unwrap();
        let expect = reference::multiply(&a, &b).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
        assert_eq!(run.c.n_rows(), 300);
        assert_eq!(run.c.n_cols(), 400);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let a = CsrMatrix::zeros(10, 20);
        let b = CsrMatrix::zeros(30, 10);
        assert!(OutOfCoreGpu::new(small_config()).multiply(&a, &b).is_err());
    }
}
