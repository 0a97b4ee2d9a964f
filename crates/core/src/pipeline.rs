//! The asynchronous double-buffered pipeline — Section IV and Figure 6.
//!
//! Two streams and two pool epochs alternate across chunks. Per chunk:
//!
//! 1. panels are copied host→device on the chunk's stream;
//! 2. the row-analysis kernel runs and its (small) result goes
//!    device→host *first* — "we first finish the row analysis stage of
//!    the chunk i and transfer the collected data back to the host";
//! 3. only then is the *previous* chunk's output transfer issued, in
//!    two portions: the first (33 % of rows) overlaps this chunk's
//!    symbolic execution, the second overlaps its numeric execution;
//! 4. all device structures come from a pre-allocated pool, so no
//!    `cudaMalloc` barrier ever splits the streams.
//!
//! Buffer-reuse safety falls out of stream FIFO order: chunk `i`
//! recycles the pool epoch of chunk `i−2`, whose output portions were
//! issued on the same stream, so new writes are ordered after the old
//! transfer by construction.
//!
//! [`PipelineSession`] is the one implementation of this schedule. It
//! is push-based — `new`, one `push` per chunk, then `finish` — so the
//! same code serves both of its callers:
//!
//! * every async executor run (`executor::simulate_order_recovering`)
//!   opens one session per recovery pass and pushes the surviving work
//!   list through it;
//! * the hybrid work-stealing auction (`scheduler`) pushes a claimed
//!   prefix into a session on a clean scratch simulator and reads
//!   [`PipelineSession::projected_finish`] as the GPU's clock.
//!
//! Every submission goes through the simulator's fallible `try_*` API
//! and is retried with deterministic simulated backoff. A fault-free
//! simulator never fails a submission, so a clean run is exactly the
//! paper's schedule. A chunk that cannot complete is reported as a
//! [`ChunkFailure`] for the caller to re-split, grow or demote; numeric
//! results are host-side and never change.

use crate::config::OocConfig;
use crate::recovery::{backoff_ns, RecoveryPolicy, RecoveryReport};
use gpu_sim::{
    CopyDir, DeviceAlloc, GpuSim, HostMem, KernelKind, OutOfDeviceMemory, SimTime, Stream,
};
use gpu_spgemm::PreparedChunk;

/// Host-side per-row cost of the grouping pass, ns.
const GROUPING_NS_PER_ROW: u64 = 2;
/// Host-side per-row cost of the allocation prefix sum, ns.
const PREFIX_NS_PER_ROW: u64 = 1;

fn align256(bytes: u64) -> u64 {
    bytes.div_ceil(256) * 256
}

/// Which device footprint a chunk is admitted with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Footprint {
    /// What the executor allocates: a speculative chunk reserves its
    /// estimated output and no row-nnz array (its symbolic phase never
    /// runs), and may overflow that estimate.
    Planned,
    /// The chunk's exact geometry, for pricing: the output buffer holds
    /// the real output, so an estimate overflow cannot occur.
    /// Feasibility then reasons from actual sizes, which also bound
    /// every re-split piece of the chunk.
    Exact,
}

/// Pool bytes a chunk reserves from its epoch: the B panel, the
/// row-analysis result, the symbolic row-nnz array and the output
/// buffer, each 256-aligned as CUDA would align them.
pub(crate) fn chunk_need(chunk: &PreparedChunk, footprint: Footprint) -> u64 {
    let (row_nnz_bytes, out_bytes) = match (&chunk.spec, footprint) {
        (Some(spec), Footprint::Planned) => (0, spec.est_out_bytes),
        _ => (chunk.row_nnz_bytes, chunk.out_bytes),
    };
    align256(chunk.b_bytes)
        + align256(chunk.row_info_bytes)
        + align256(row_nnz_bytes)
        + align256(out_bytes)
}

/// Why a chunk could not complete on the device this pass.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ChunkFailure {
    /// The chunk's working set does not fit the pool (re-splittable).
    Oom(OutOfDeviceMemory),
    /// Transient faults exhausted the retry budget (demotable).
    Faults,
    /// A speculative chunk's actual output outgrew its estimated
    /// allocation (recoverable: grow the buffer to `needed` and
    /// retry).
    EstimateOverflow {
        /// Exact output bytes the retry must allocate.
        needed: u64,
    },
    /// The run budget's demotion point passed before the chunk was
    /// admitted: fail fast so the supervisor can demote it to the CPU
    /// instead of sinking more device time.
    Deadline,
}

/// What a finished session leaves for its caller.
pub(crate) struct PassOutcome {
    /// Chunks (by push index) that were admitted but whose output
    /// transfer failed permanently after their `push` returned.
    pub failed: Vec<(usize, ChunkFailure)>,
    /// The session's device pool, still allocated. A caller that hands
    /// failed chunks to a further pass frees it first, so the next pool
    /// sizes against the then-current device capacity; the final pass
    /// keeps it, as freeing would only add an allocation barrier.
    pub pool: DeviceAlloc,
}

/// A pushed chunk whose output has not fully left the device yet.
struct PendingOutput {
    stream: Stream,
    chunk_id: usize,
    index: usize,
    first_bytes: u64,
    second_bytes: u64,
    first_issued: bool,
}

/// One fallible device submission.
#[derive(Clone, Copy)]
enum Op {
    Kernel(KernelKind),
    Copy(CopyDir, u64),
}

/// Charges one retry's deterministic backoff to the host clock.
fn back_off(sim: &mut GpuSim, report: &mut RecoveryReport, attempt: u32, label: &str) {
    let wait = backoff_ns(sim.cost(), attempt);
    report.retries += 1;
    report.backoff_ns += wait;
    report.time_lost_ns += wait;
    sim.note_recovery(format!("retry {attempt}: {label}"));
    sim.host_compute(wait, format!("backoff {attempt}: {label}"));
}

/// The Figure 6 schedule over chunks pushed one at a time (see the
/// module docs). The A panel lives in its own slot outside the rotating
/// epochs and stays resident while consecutive chunks share a row
/// panel; otherwise epoch recycling two chunks later would reclaim
/// bytes the pipeline still reads.
pub(crate) struct PipelineSession<'s> {
    sim: &'s mut GpuSim,
    report: &'s mut RecoveryReport,
    policy: RecoveryPolicy,
    deadline_demote_ns: Option<SimTime>,
    mem: HostMem,
    split_fraction: f64,
    streams: Vec<Stream>,
    pool: DeviceAlloc,
    a_slot_bytes: u64,
    /// Admission bound: the pool bytes left after the A slot, split
    /// evenly across the `depth` rotating epochs.
    epoch_bytes: u64,
    a_high_water: u64,
    epoch_high_water: Vec<u64>,
    a_resident: Option<usize>,
    prev: Option<PendingOutput>,
    pushed: usize,
    late_failures: Vec<(usize, ChunkFailure)>,
    /// Running max of every enqueued operation's completion time.
    last_done: SimTime,
}

impl<'s> PipelineSession<'s> {
    /// Allocates the device pool and the stream set from `config`'s
    /// split fraction, pinning, depth and retry policy. The resident-A
    /// slot holds `max_a_bytes`, the largest A panel the caller will
    /// push; it is clamped to the pool, so an oversized A panel fails
    /// its own chunks rather than the session. Past
    /// `deadline_demote_ns` every push fails with
    /// [`ChunkFailure::Deadline`]. Recovery work is counted in
    /// `report`.
    pub(crate) fn new(
        sim: &'s mut GpuSim,
        config: &OocConfig,
        max_a_bytes: u64,
        deadline_demote_ns: Option<SimTime>,
        report: &'s mut RecoveryReport,
    ) -> crate::Result<Self> {
        let depth = config.pipeline_depth;
        if depth < 2 {
            return Err(crate::OocError::Config(format!(
                "pipeline depth must be at least 2, got {depth}"
            )));
        }
        if !(0.0..=1.0).contains(&config.split_fraction) {
            return Err(crate::OocError::Config(format!(
                "split fraction must be in [0, 1], got {}",
                config.split_fraction
            )));
        }
        let policy = config.recovery;
        // One up-front allocation covering the whole working set: "a
        // large chunk of memory is pre-allocated on device memory and
        // shared by all dynamic data structures". Retried on injected
        // malloc faults; the request is recomputed each attempt so a
        // capacity shrink landing on this very malloc is absorbed.
        let mut attempt = 0u32;
        let (pool, pool_bytes) = loop {
            let want = sim.memory().free_bytes();
            match sim.malloc(want, "pre-allocated pool") {
                Ok(h) => break (h, want),
                Err(e) => {
                    report.alloc_faults += 1;
                    if attempt >= policy.max_retries {
                        return Err(crate::OocError::DeviceMemory(e));
                    }
                    attempt += 1;
                    back_off(sim, report, attempt, "pre-allocated pool");
                }
            }
        };
        let a_slot_bytes = align256(max_a_bytes).min(pool_bytes);
        let epoch_bytes = (pool_bytes - a_slot_bytes) / depth as u64;
        let streams = (0..depth).map(|_| sim.create_stream()).collect();
        Ok(PipelineSession {
            sim,
            report,
            policy,
            deadline_demote_ns,
            mem: if config.pinned {
                HostMem::Pinned
            } else {
                HostMem::Pageable
            },
            split_fraction: config.split_fraction,
            streams,
            pool,
            a_slot_bytes,
            epoch_bytes,
            a_high_water: 0,
            epoch_high_water: vec![0; depth],
            a_resident: None,
            prev: None,
            pushed: 0,
            late_failures: Vec::new(),
            last_done: 0,
        })
    }

    /// Simulated time at which the pipeline would finish if no more
    /// chunks were pushed: the last enqueued operation's completion
    /// plus the drain of the still-pending previous output. This is
    /// the GPU worker's clock in the work-stealing claim loop.
    pub(crate) fn projected_finish(&self) -> SimTime {
        let cost = self.sim.cost();
        let pinned = self.mem == HostMem::Pinned;
        let drain = self.prev.as_ref().map_or(0, |p| {
            let first = if p.first_issued {
                0
            } else {
                cost.copy_duration(p.first_bytes, true, pinned)
            };
            first + cost.copy_duration(p.second_bytes, true, pinned)
        });
        self.last_done.max(self.sim.now()) + drain
    }

    /// Feeds one chunk through the Figure 6 schedule. `row` is the
    /// chunk's row panel: its A panel is copied only when the previous
    /// admitted chunk left a different panel resident. The chunk is
    /// admitted against `chunk_need(chunk, footprint)`. An `Err` names
    /// why the chunk did not complete; the session stays usable.
    pub(crate) fn push(
        &mut self,
        chunk: &PreparedChunk,
        row: usize,
        footprint: Footprint,
    ) -> Result<(), ChunkFailure> {
        let index = self.pushed;
        self.pushed += 1;
        let epoch = index % self.streams.len();
        let stream = self.streams[epoch];
        let id = chunk.chunk_id;

        // Deadline admission: past the budget's demotion point a chunk
        // fails fast (the supervisor demotes it to the CPU, whose time
        // is exactly predictable) instead of sinking device time.
        if self.deadline_demote_ns.is_some_and(|d| self.sim.now() >= d) {
            self.sim
                .note_recovery(format!("skip chunk {id}: past deadline demotion point"));
            return Err(ChunkFailure::Deadline);
        }

        // Hard capacity check against the pool geometry.
        let a_need = align256(chunk.a_bytes);
        let need = chunk_need(chunk, footprint);
        if a_need > self.a_slot_bytes || need > self.epoch_bytes {
            self.sim.note_recovery(format!(
                "skip chunk {id}: needs {need} + {a_need} A bytes, epoch holds {}",
                self.epoch_bytes
            ));
            return Err(ChunkFailure::Oom(OutOfDeviceMemory {
                requested: need.max(a_need),
                free: self.epoch_bytes,
                capacity: self.sim.memory().capacity(),
            }));
        }

        // Transient pool-reservation faults: retry, then give the
        // chunk up to demotion.
        let label = format!("pool reserve (chunk {id})");
        let mut attempt = 0u32;
        while self.sim.check_pool_reserve(need, label.as_str()).is_err() {
            self.report.pool_faults += 1;
            if attempt >= self.policy.max_retries {
                return Err(ChunkFailure::Faults);
            }
            attempt += 1;
            back_off(self.sim, self.report, attempt, &label);
        }
        self.epoch_high_water[epoch] = self.epoch_high_water[epoch].max(need);
        let xfer_a = self.a_resident != Some(row);
        if xfer_a {
            self.a_high_water = self.a_high_water.max(a_need);
        }

        self.run_chunk(chunk, stream, row, xfer_a, footprint)?;
        let (first_bytes, second_bytes) = chunk.split_output_bytes(self.split_fraction);
        self.prev = Some(PendingOutput {
            stream,
            chunk_id: id,
            index,
            first_bytes,
            second_bytes,
            first_issued: false,
        });
        Ok(())
    }

    /// Drains the last chunk's output, records the pool high-water mark
    /// (the A slot plus every epoch's peak: all epochs are resident at
    /// once) and synchronizes, so the session's completion is visible
    /// on the simulator's clock.
    pub(crate) fn finish(mut self) -> PassOutcome {
        self.flush_prev_rest();
        let pool_used = self.a_high_water + self.epoch_high_water.iter().sum::<u64>();
        self.sim.note_pool_high_water(pool_used);
        self.sim.finish();
        PassOutcome {
            failed: self.late_failures,
            pool: self.pool,
        }
    }

    /// Enqueues one admitted chunk's transfers, kernels and host steps.
    fn run_chunk(
        &mut self,
        chunk: &PreparedChunk,
        s: Stream,
        row: usize,
        xfer_a: bool,
        footprint: Footprint,
    ) -> Result<(), ChunkFailure> {
        let id = chunk.chunk_id;
        // Input panels. A failed A copy leaves no panel resident.
        if xfer_a {
            self.a_resident = None;
            self.submit(
                s,
                Op::Copy(CopyDir::H2D, chunk.a_bytes),
                format!("H2D A (chunk {id})"),
            )?;
            self.a_resident = Some(row);
        }
        self.submit(
            s,
            Op::Copy(CopyDir::H2D, chunk.b_bytes),
            format!("H2D B (chunk {id})"),
        )?;

        // Stage 1: row analysis; its D2H result goes ahead of the
        // previous chunk's bulk output (Figure 6 transfer order).
        self.submit(
            s,
            Op::Kernel(KernelKind::RowAnalysis { ops: chunk.a_nnz }),
            format!("row analysis (chunk {id})"),
        )?;
        self.submit(
            s,
            Op::Copy(CopyDir::D2H, chunk.row_info_bytes),
            format!("D2H row info (chunk {id})"),
        )?;
        let row_info_done = self.sim.record_event(s);

        // Previous chunk, first portion: overlaps this chunk's
        // symbolic phase.
        self.flush_prev_first();

        // Host grouping needs the row-analysis results — "we give up
        // concurrency opportunities during the row analysis stage".
        self.sim.event_synchronize(row_info_done);
        self.sim.host_compute(
            chunk.rows as u64 * GROUPING_NS_PER_ROW,
            format!("host grouping (chunk {id})"),
        );

        let numeric = |flops| KernelKind::Numeric {
            flops,
            compression_ratio: chunk.compression_ratio,
        };
        if let Some(spec) = &chunk.spec {
            // Speculative schedule: the output buffer was sized from
            // the estimation model at planning time, so the symbolic
            // kernels, the row-nnz D2H and the host prefix sum all
            // disappear — numeric kernels launch straight after
            // grouping, into the estimated allocation.
            self.flush_prev_rest();
            for (g, &flops) in spec.est_group_flops.iter().enumerate() {
                self.submit(
                    s,
                    Op::Kernel(numeric(flops)),
                    format!("numeric g{g} (chunk {id}, speculative)"),
                )?;
            }
            // The kernels' bounds check fires only now — the work
            // above is charged (and lost) exactly as on real hardware,
            // where overflow is detected in flight.
            if footprint == Footprint::Planned && spec.overflowed(chunk.out_bytes) {
                self.report.estimate_overflows += 1;
                self.sim.note_recovery(format!(
                    "estimate overflow chunk {id}: allocated {} bytes, needs {}",
                    spec.est_out_bytes, chunk.out_bytes
                ));
                return Err(ChunkFailure::EstimateOverflow {
                    needed: chunk.out_bytes,
                });
            }
            return Ok(());
        }

        // Stage 2: symbolic kernels per row group.
        for (g, &flops) in chunk.groups.group_flops.iter().enumerate() {
            self.submit(
                s,
                Op::Kernel(KernelKind::Symbolic {
                    flops,
                    compression_ratio: chunk.compression_ratio,
                }),
                format!("symbolic g{g} (chunk {id})"),
            )?;
        }
        self.submit(
            s,
            Op::Copy(CopyDir::D2H, chunk.row_nnz_bytes),
            format!("D2H row nnz (chunk {id})"),
        )?;
        let row_nnz_done = self.sim.record_event(s);

        // Previous chunk, second portion: overlaps this chunk's
        // numeric phase.
        self.flush_prev_rest();

        // Host sizes the output from the symbolic results; the space
        // was already reserved from the pool — no device barrier.
        self.sim.event_synchronize(row_nnz_done);
        self.sim.host_compute(
            chunk.rows as u64 * PREFIX_NS_PER_ROW,
            format!("host prefix sum (chunk {id})"),
        );

        // Stage 3: numeric kernels per output-size row group.
        for (g, &flops) in chunk.numeric_groups.group_flops.iter().enumerate() {
            self.submit(
                s,
                Op::Kernel(numeric(flops)),
                format!("numeric g{g} (chunk {id})"),
            )?;
        }
        Ok(())
    }

    /// Submits one operation, retrying injected faults up to
    /// `policy.max_retries` times with deterministic simulated backoff.
    fn submit(&mut self, stream: Stream, op: Op, label: String) -> Result<(), ChunkFailure> {
        let mut attempt = 0u32;
        loop {
            let result = match op {
                Op::Kernel(kind) => self.sim.try_enqueue_kernel(stream, kind, label.as_str()),
                Op::Copy(dir, bytes) => {
                    self.sim
                        .try_enqueue_copy(stream, dir, bytes, self.mem, label.as_str())
                }
            };
            let fault = match result {
                Ok(done) => {
                    self.last_done = self.last_done.max(done);
                    return Ok(());
                }
                Err(fault) => fault,
            };
            let what = match op {
                Op::Kernel(_) => {
                    self.report.kernel_faults += 1;
                    "kernel"
                }
                Op::Copy(..) => {
                    self.report.copy_faults += 1;
                    "copy"
                }
            };
            self.report.time_lost_ns += fault.lost_ns;
            if attempt >= self.policy.max_retries {
                self.sim.note_recovery(format!(
                    "abandon after {} {what} faults: {label}",
                    attempt + 1
                ));
                return Err(ChunkFailure::Faults);
            }
            attempt += 1;
            back_off(self.sim, self.report, attempt, &label);
        }
    }

    /// Issues the pending output's first portion if still unissued. A
    /// permanent transfer failure fails that chunk.
    fn flush_prev_first(&mut self) {
        let Some(mut p) = self.prev.take() else {
            return;
        };
        if !p.first_issued {
            let label = format!("D2H output 1/2 (chunk {})", p.chunk_id);
            if self
                .submit(p.stream, Op::Copy(CopyDir::D2H, p.first_bytes), label)
                .is_err()
            {
                self.late_failures.push((p.index, ChunkFailure::Faults));
                return;
            }
            p.first_issued = true;
        }
        self.prev = Some(p);
    }

    /// Issues the pending output's remaining portions (both, if the
    /// first never made it out) and clears it.
    fn flush_prev_rest(&mut self) {
        self.flush_prev_first();
        if let Some(p) = self.prev.take() {
            let label = format!("D2H output 2/2 (chunk {})", p.chunk_id);
            if self
                .submit(p.stream, Op::Copy(CopyDir::D2H, p.second_bytes), label)
                .is_err()
            {
                self.late_failures.push((p.index, ChunkFailure::Faults));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CostModel, DeviceProps, OpKind};
    use gpu_spgemm::phases::prepare_chunk;
    use gpu_spgemm::ChunkJob;
    use sparse::gen::erdos_renyi;
    use sparse::CsrView;

    /// `n_chunks` chunks of one 1200-row A panel against column panels
    /// of B; all share row panel 0, so A is copied once.
    fn prepared_fixture(n_chunks: usize) -> Vec<PreparedChunk> {
        let a = erdos_renyi(1200, 1200, 0.02, 1);
        let b = erdos_renyi(1200, 1200, 0.02, 2);
        let ranges = sparse::partition::col::even_col_ranges(&b, n_chunks);
        let panels = sparse::partition::col::ColPartitioner::Cursor.partition(&b, &ranges);
        panels
            .iter()
            .enumerate()
            .map(|(i, p)| {
                prepare_chunk(ChunkJob {
                    a_panel: CsrView::of(&a),
                    b_panel: &p.matrix,
                    chunk_id: i,
                })
            })
            .collect()
    }

    fn new_sim() -> GpuSim {
        GpuSim::new(DeviceProps::v100_scaled(96 << 20), CostModel::calibrated())
    }

    fn config(depth: usize) -> OocConfig {
        let mut config = OocConfig::paper_default();
        config.pipeline_depth = depth;
        config
    }

    fn a_slot(chunks: &[PreparedChunk]) -> u64 {
        chunks
            .iter()
            .map(|c| align256(c.a_bytes))
            .max()
            .unwrap_or(0)
    }

    /// Pushes every chunk through one session and returns the makespan.
    fn run(sim: &mut GpuSim, chunks: &[PreparedChunk], depth: usize) -> SimTime {
        let mut report = RecoveryReport::default();
        let mut session =
            PipelineSession::new(sim, &config(depth), a_slot(chunks), None, &mut report).unwrap();
        for c in chunks {
            session.push(c, 0, Footprint::Planned).unwrap();
        }
        assert!(session.finish().failed.is_empty());
        assert_eq!(
            report,
            RecoveryReport::default(),
            "a clean run recovers nothing"
        );
        sim.now()
    }

    #[test]
    fn pipeline_overlaps_transfers_with_compute() {
        let prepared = prepared_fixture(4);
        let mut sim = new_sim();
        let async_time = run(&mut sim, &prepared, 2);
        sim.timeline().validate().unwrap();

        // Serial lower bound: sum of all busy times must exceed the
        // makespan if any overlap happened.
        let t = sim.timeline();
        let busy: u64 = t.busy_time(OpKind::Kernel)
            + t.busy_time(OpKind::CopyD2H)
            + t.busy_time(OpKind::CopyH2D);
        assert!(
            async_time < busy,
            "no overlap: makespan {async_time} >= total busy {busy}"
        );
        // The D2H engine must carry the full output volume (split in 2).
        let out_total: u64 = prepared.iter().map(|p| p.out_bytes).sum();
        let d2h_bytes: u64 = t.of_kind(OpKind::CopyD2H).map(|r| r.payload).sum();
        let row_info: u64 = prepared
            .iter()
            .map(|p| p.row_info_bytes + p.row_nnz_bytes)
            .sum();
        assert_eq!(d2h_bytes, out_total + row_info);
    }

    #[test]
    fn pipeline_has_no_alloc_barriers_after_setup() {
        let prepared = prepared_fixture(3);
        let mut sim = new_sim();
        run(&mut sim, &prepared, 2);
        let barriers = sim.timeline().of_kind(OpKind::AllocBarrier).count();
        assert_eq!(barriers, 1, "only the up-front pool allocation may exist");
    }

    #[test]
    fn deeper_pipelines_are_valid_and_complete() {
        let prepared = prepared_fixture(6);
        let mut times = Vec::new();
        for depth in [2usize, 3, 4] {
            let mut sim = new_sim();
            let t = run(&mut sim, &prepared, depth);
            sim.timeline().validate().unwrap();
            // All output bytes still cross the D2H engine exactly once.
            let d2h: u64 = sim
                .timeline()
                .of_kind(OpKind::CopyD2H)
                .map(|r| r.payload)
                .sum();
            let expect: u64 = prepared
                .iter()
                .map(|p| p.out_bytes + p.row_info_bytes + p.row_nnz_bytes)
                .sum();
            assert_eq!(d2h, expect, "depth {depth} lost transfers");
            times.push(t);
        }
        // Depth changes scheduling but not the total transferred work;
        // times must stay within a tight band of each other.
        let min = *times.iter().min().unwrap() as f64;
        let max = *times.iter().max().unwrap() as f64;
        assert!(max / min < 1.25, "depth instability: {times:?}");
    }

    #[test]
    fn empty_chunk_list_is_noop() {
        // An empty work list opens no session: no pool allocation, no
        // time. `ratio_search` relies on this for its all-CPU split.
        let a = erdos_renyi(200, 200, 0.02, 3);
        let cfg = OocConfig::with_device_memory(1 << 20);
        let pg = crate::executor::prepare_grid(&a, &a, &cfg).unwrap();
        let device = crate::executor::run_device(&a, &pg, &[], &cfg).unwrap();
        assert_eq!(device.sim_ns, 0);
        assert!(device.timeline.records.is_empty(), "{:?}", device.timeline);
        assert_eq!(device.metrics.pool_high_water_bytes, 0);

        // A session itself costs only its up-front pool allocation.
        let mut sim = new_sim();
        run(&mut sim, &[], 2);
        let t = sim.timeline();
        assert_eq!(t.records.len(), 1);
        assert_eq!(t.of_kind(OpKind::AllocBarrier).count(), 1);
        assert_eq!(sim.pool_high_water(), 0);
    }

    #[test]
    fn shallow_depth_is_a_config_error_not_a_panic() {
        let mut sim = new_sim();
        let mut report = RecoveryReport::default();
        let err = PipelineSession::new(&mut sim, &config(1), 0, None, &mut report)
            .err()
            .expect("depth 1 must be rejected");
        match err {
            crate::OocError::Config(msg) => assert!(msg.contains("depth"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_split_fraction_is_a_config_error() {
        let mut sim = new_sim();
        let mut report = RecoveryReport::default();
        for bad in [-0.1, 1.5, f64::NAN] {
            let mut cfg = config(2);
            cfg.split_fraction = bad;
            let err = PipelineSession::new(&mut sim, &cfg, 0, None, &mut report)
                .err()
                .expect("bad split fraction must be rejected");
            assert!(matches!(err, crate::OocError::Config(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn epoch_split_fits_the_pool() {
        // The A slot plus `depth` equal epochs fill the pool, short of
        // at most the `depth - 1` bytes integer division drops.
        for (device, a_slot, depth) in [
            (1_000_003u64, 256u64, 2usize),
            (96 << 20, 0, 3),
            (7_777_777, 4_096, 4),
        ] {
            let mut sim = GpuSim::new(DeviceProps::v100_scaled(device), CostModel::calibrated());
            let mut report = RecoveryReport::default();
            let session =
                PipelineSession::new(&mut sim, &config(depth), a_slot, None, &mut report).unwrap();
            let (slot, epoch) = (session.a_slot_bytes, session.epoch_bytes);
            session.finish();
            let pool = sim.memory().in_use();
            assert_eq!(slot, a_slot);
            let used = slot + epoch * depth as u64;
            assert!(
                used <= pool && pool - used < depth as u64,
                "pool {pool} a_slot {a_slot} depth {depth}: epochs of {epoch}"
            );
        }
    }

    #[test]
    fn pipeline_reports_pool_high_water() {
        // Chunks 0 and 2 share epoch 0, chunk 1 owns epoch 1; both
        // epochs and the A slot are resident at once.
        let prepared = prepared_fixture(3);
        let mut sim = new_sim();
        run(&mut sim, &prepared, 2);
        let need = |i: usize| chunk_need(&prepared[i], Footprint::Planned);
        let expect = a_slot(&prepared) + need(0).max(need(2)) + need(1);
        assert_eq!(sim.pool_high_water(), expect);
        assert!(expect <= sim.memory().capacity());
    }

    #[test]
    fn pool_exhaustion_is_reported() {
        let prepared = prepared_fixture(2);
        let mut sim = GpuSim::new(DeviceProps::v100_scaled(1 << 16), CostModel::calibrated());
        let mut report = RecoveryReport::default();
        let mut session =
            PipelineSession::new(&mut sim, &config(2), a_slot(&prepared), None, &mut report)
                .unwrap();
        let err = session.push(&prepared[0], 0, Footprint::Planned);
        assert!(matches!(err, Err(ChunkFailure::Oom(_))), "{err:?}");
    }

    #[test]
    fn exact_footprint_never_overflows_an_estimate() {
        // An under-sized speculative allocation overflows when admitted
        // as planned; priced with its exact geometry it cannot.
        let a = erdos_renyi(1200, 1200, 0.02, 1);
        let b = erdos_renyi(1200, 1200, 0.02, 2);
        let a_view = CsrView::of(&a);
        let mut chunk = prepare_chunk(ChunkJob {
            a_panel: a_view,
            b_panel: &b,
            chunk_id: 0,
        });
        let mut model =
            accum::estimate::build_model(&a_view, &b, &accum::estimate::EstimateConfig::default());
        model.headroom = 0.01;
        gpu_spgemm::phases::attach_speculation(&mut chunk, &a_view, &b, &model);
        assert!(chunk_need(&chunk, Footprint::Planned) < chunk_need(&chunk, Footprint::Exact));

        let mut sim = new_sim();
        let mut report = RecoveryReport::default();
        let slot = align256(chunk.a_bytes);
        let mut session =
            PipelineSession::new(&mut sim, &config(2), slot, None, &mut report).unwrap();
        assert!(matches!(
            session.push(&chunk, 0, Footprint::Planned),
            Err(ChunkFailure::EstimateOverflow { .. })
        ));
        assert!(session.push(&chunk, 0, Footprint::Exact).is_ok());
        session.finish();
        assert_eq!(report.estimate_overflows, 1);
    }
}
