//! Timeline aggregation: structured per-run metrics derived from a
//! [`Timeline`].
//!
//! Everything here is a pure fold over the trace records, so the same
//! timeline always yields the same metrics, and every number is pinned
//! by invariants (see [`TimelineMetrics::validate`]):
//!
//! * per engine, `busy_ns + idle_ns == makespan_ns`;
//! * `hidden_transfer_ns <= total_transfer_ns`, so
//!   `overlap_efficiency` ∈ \[0, 1\];
//! * [`TimelineMetrics::transfer_fraction`] is computed by
//!   [`Timeline::transfer_fraction`] itself, so it is bit-identical to
//!   the Figure 4 ad-hoc derivation it replaces.

use crate::cost::KernelClass;
use crate::trace::{OpKind, Timeline};
use crate::SimTime;
use serde::{Deserialize, Serialize};

/// Busy/idle accounting for one exclusive engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Total time the engine executed operations, ns.
    pub busy_ns: SimTime,
    /// `makespan - busy`: time the engine sat idle, ns.
    pub idle_ns: SimTime,
    /// Number of operations executed (including faulted attempts).
    pub ops: u64,
}

impl EngineMetrics {
    /// Share of the makespan (`busy + idle`) this engine was busy, in
    /// \[0, 1\]; 0 for an empty run. Per engine, so unlike
    /// [`TimelineMetrics::transfer_fraction`] (both copy engines
    /// summed) it never exceeds 1 when the two directions overlap.
    pub fn busy_share(&self) -> f64 {
        let span = self.busy_ns + self.idle_ns;
        if span == 0 {
            0.0
        } else {
            self.busy_ns as f64 / span as f64
        }
    }
}

/// Compute time attributed to one kernel phase family.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelClassMetrics {
    /// The phase family.
    pub class: KernelClass,
    /// Total compute-engine time spent in this family, ns.
    pub busy_ns: SimTime,
    /// Number of launches.
    pub launches: u64,
    /// Summed payload (flops or ops, per [`KernelClass`]).
    pub payload: u64,
}

/// Occupancy summary of one stream.
///
/// Streams are FIFO and the simulator is eager, so an op is "queued"
/// only for the instant it is issued — the instantaneous queue depth
/// never exceeds one. The meaningful per-stream depth-over-time signal
/// is therefore occupancy: how many ops ran, how long the stream was
/// busy, and over what span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamMetrics {
    /// Stream id (host-side ops, `stream == u32::MAX`, are excluded).
    pub stream: u32,
    /// Operations issued to this stream.
    pub ops: u64,
    /// Total time the stream had an op executing, ns.
    pub busy_ns: SimTime,
    /// `last_end - first_start`: the stream's active window, ns.
    pub span_ns: SimTime,
}

/// Aggregated, serializable metrics for one simulated run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineMetrics {
    /// Latest end time across all records, ns.
    pub makespan_ns: SimTime,
    /// Compute engine accounting.
    pub kernel: EngineMetrics,
    /// Host→device copy engine accounting.
    pub h2d: EngineMetrics,
    /// Device→host copy engine accounting.
    pub d2h: EngineMetrics,
    /// Total bytes moved host→device.
    pub h2d_bytes: u64,
    /// Total bytes moved device→host.
    pub d2h_bytes: u64,
    /// Achieved H2D bandwidth over the engine's busy time, bytes/s.
    pub h2d_bandwidth: f64,
    /// Achieved D2H bandwidth over the engine's busy time, bytes/s.
    pub d2h_bandwidth: f64,
    /// Compute time per kernel phase family (families with zero
    /// launches are omitted).
    pub kernel_classes: Vec<KernelClassMetrics>,
    /// Host-side compute time (grouping, prefix sums, assembly, CPU
    /// chunk work), ns.
    pub host_compute_ns: SimTime,
    /// Fraction of the makespan spent on copies — computed by
    /// [`Timeline::transfer_fraction`], bit-identical to Figure 4.
    pub transfer_fraction: f64,
    /// Copy-engine time that overlapped compute-engine time, ns.
    pub hidden_transfer_ns: SimTime,
    /// Total copy-engine time (both directions), ns.
    pub total_transfer_ns: SimTime,
    /// `hidden / total` transfer time, in \[0, 1\] (0 when no
    /// transfers happened) — the Figure 8 overlap signal.
    pub overlap_efficiency: f64,
    /// Per-stream occupancy, ordered by stream id.
    pub streams: Vec<StreamMetrics>,
}

impl TimelineMetrics {
    /// Checks the arithmetic invariants that pin the schema:
    /// per-engine `busy + idle == makespan`, `hidden <= total`
    /// transfer time, and all derived fractions in \[0, 1\].
    pub fn validate(&self) -> Result<(), String> {
        for (name, e) in [
            ("kernel", self.kernel),
            ("h2d", self.h2d),
            ("d2h", self.d2h),
        ] {
            if e.busy_ns + e.idle_ns != self.makespan_ns {
                return Err(format!(
                    "engine {name}: busy {} + idle {} != makespan {}",
                    e.busy_ns, e.idle_ns, self.makespan_ns
                ));
            }
        }
        if self.hidden_transfer_ns > self.total_transfer_ns {
            return Err(format!(
                "hidden transfer {} exceeds total {}",
                self.hidden_transfer_ns, self.total_transfer_ns
            ));
        }
        if self.total_transfer_ns != self.h2d.busy_ns + self.d2h.busy_ns {
            return Err("total transfer time != h2d busy + d2h busy".into());
        }
        for (name, f) in [
            ("overlap_efficiency", self.overlap_efficiency),
            ("transfer_fraction", self.transfer_fraction),
        ] {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("{name} {f} outside [0, 1]"));
            }
        }
        Ok(())
    }
}

/// Merges sorted `(start, end)` spans into a disjoint union.
fn merge_spans(mut spans: Vec<(SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    spans.sort_unstable();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        if s >= e {
            continue;
        }
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Length of the intersection of `[s, e)` with a disjoint sorted union.
fn overlap_with(union: &[(SimTime, SimTime)], s: SimTime, e: SimTime) -> SimTime {
    let first = union.partition_point(|&(_, ue)| ue <= s);
    union[first..]
        .iter()
        .take_while(|&&(us, _)| us < e)
        .map(|&(us, ue)| ue.min(e) - us.max(s))
        .sum()
}

impl Timeline {
    /// Aggregates this timeline into [`TimelineMetrics`].
    pub fn metrics(&self) -> TimelineMetrics {
        let makespan = self.makespan();
        let engine = |kind: OpKind| {
            let busy = self.busy_time(kind);
            EngineMetrics {
                busy_ns: busy,
                idle_ns: makespan.saturating_sub(busy),
                ops: self.of_kind(kind).count() as u64,
            }
        };
        let kernel = engine(OpKind::Kernel);
        let h2d = engine(OpKind::CopyH2D);
        let d2h = engine(OpKind::CopyD2H);
        let h2d_bytes: u64 = self.of_kind(OpKind::CopyH2D).map(|r| r.payload).sum();
        let d2h_bytes: u64 = self.of_kind(OpKind::CopyD2H).map(|r| r.payload).sum();
        let bandwidth = |bytes: u64, busy: SimTime| {
            if busy == 0 {
                0.0
            } else {
                bytes as f64 / busy as f64 * 1e9
            }
        };

        let mut per_class: Vec<KernelClassMetrics> = Vec::new();
        for class in KernelClass::ALL {
            let mut m = KernelClassMetrics {
                class,
                busy_ns: 0,
                launches: 0,
                payload: 0,
            };
            for r in self.of_kind(OpKind::Kernel) {
                if r.kernel_class == Some(class) {
                    m.busy_ns += r.end - r.start;
                    m.launches += 1;
                    m.payload += r.payload;
                }
            }
            if m.launches > 0 {
                per_class.push(m);
            }
        }

        // Hidden transfer time: copy-engine intervals intersected with
        // the union of compute-engine intervals. Each engine is
        // exclusive, so per-direction copy spans are disjoint and
        // `hidden <= total` holds by construction.
        let kernel_union = merge_spans(
            self.of_kind(OpKind::Kernel)
                .map(|r| (r.start, r.end))
                .collect(),
        );
        let hidden: SimTime = self
            .records
            .iter()
            .filter(|r| matches!(r.kind, OpKind::CopyH2D | OpKind::CopyD2H))
            .map(|r| overlap_with(&kernel_union, r.start, r.end))
            .sum();
        let total_transfer = h2d.busy_ns + d2h.busy_ns;

        let mut streams: Vec<StreamMetrics> = Vec::new();
        for r in &self.records {
            if r.stream == u32::MAX {
                continue;
            }
            let idx = match streams.iter().position(|m| m.stream == r.stream) {
                Some(i) => i,
                None => {
                    streams.push(StreamMetrics {
                        stream: r.stream,
                        ops: 0,
                        busy_ns: 0,
                        span_ns: 0,
                    });
                    streams.len() - 1
                }
            };
            let m = &mut streams[idx];
            m.ops += 1;
            m.busy_ns += r.end - r.start;
        }
        // Span: first start → last end per stream (FIFO order).
        for m in &mut streams {
            let mine = self.records.iter().filter(|r| r.stream == m.stream);
            let first = mine.clone().map(|r| r.start).min().unwrap_or(0);
            let last = mine.map(|r| r.end).max().unwrap_or(0);
            m.span_ns = last - first;
        }
        streams.sort_unstable_by_key(|m| m.stream);

        TimelineMetrics {
            makespan_ns: makespan,
            kernel,
            h2d,
            d2h,
            h2d_bytes,
            d2h_bytes,
            h2d_bandwidth: bandwidth(h2d_bytes, h2d.busy_ns),
            d2h_bandwidth: bandwidth(d2h_bytes, d2h.busy_ns),
            kernel_classes: per_class,
            host_compute_ns: self.busy_time(OpKind::HostCompute),
            transfer_fraction: self.transfer_fraction(),
            hidden_transfer_ns: hidden,
            total_transfer_ns: total_transfer,
            overlap_efficiency: if total_transfer == 0 {
                0.0
            } else {
                hidden as f64 / total_transfer as f64
            },
            streams,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;

    fn rec(kind: OpKind, stream: u32, start: SimTime, end: SimTime, payload: u64) -> TraceRecord {
        TraceRecord {
            kind,
            label: format!("{kind:?}@{start}"),
            stream,
            start,
            end,
            payload,
            kernel_class: match kind {
                OpKind::Kernel => Some(KernelClass::Generic),
                _ => None,
            },
        }
    }

    #[test]
    fn engine_accounting_closes() {
        let t = Timeline {
            records: vec![
                rec(OpKind::Kernel, 0, 0, 10, 100),
                rec(OpKind::CopyH2D, 1, 0, 4, 4000),
                rec(OpKind::CopyD2H, 0, 10, 40, 30_000),
            ],
        };
        let m = t.metrics();
        assert_eq!(m.makespan_ns, 40);
        assert_eq!(m.kernel.busy_ns, 10);
        assert_eq!(m.kernel.idle_ns, 30);
        assert_eq!(m.h2d_bytes, 4000);
        assert_eq!(m.d2h_bytes, 30_000);
        assert_eq!(m.d2h.ops, 1);
        m.validate().unwrap();
    }

    #[test]
    fn busy_shares_stay_per_engine_when_copies_overlap() {
        // H2D and D2H each busy 30 of 40 ns: the summed transfer
        // fraction reads 150%, each engine's own share 75%.
        let t = Timeline {
            records: vec![
                rec(OpKind::Kernel, 0, 0, 40, 1),
                rec(OpKind::CopyH2D, 1, 0, 30, 10),
                rec(OpKind::CopyD2H, 2, 10, 40, 10),
            ],
        };
        let m = t.metrics();
        assert_eq!(m.transfer_fraction, 1.5);
        assert_eq!(m.h2d.busy_share(), 0.75);
        assert_eq!(m.d2h.busy_share(), 0.75);
        assert_eq!(m.kernel.busy_share(), 1.0);
        assert_eq!(EngineMetrics::default().busy_share(), 0.0);
    }

    #[test]
    fn transfer_fraction_matches_timeline_bitwise() {
        let t = Timeline {
            records: vec![
                rec(OpKind::Kernel, 0, 0, 7, 1),
                rec(OpKind::CopyD2H, 0, 7, 30, 99),
            ],
        };
        assert_eq!(
            t.metrics().transfer_fraction.to_bits(),
            t.transfer_fraction().to_bits()
        );
    }

    #[test]
    fn overlap_efficiency_counts_hidden_time() {
        // Kernel [0, 20); H2D [10, 30): 10 ns hidden of 20 ns total.
        let t = Timeline {
            records: vec![
                rec(OpKind::Kernel, 0, 0, 20, 1),
                rec(OpKind::CopyH2D, 1, 10, 30, 1),
            ],
        };
        let m = t.metrics();
        assert_eq!(m.hidden_transfer_ns, 10);
        assert_eq!(m.total_transfer_ns, 20);
        assert!((m.overlap_efficiency - 0.5).abs() < 1e-12);
        m.validate().unwrap();
    }

    #[test]
    fn fully_serial_run_has_zero_overlap() {
        let t = Timeline {
            records: vec![
                rec(OpKind::CopyH2D, 0, 0, 10, 1),
                rec(OpKind::Kernel, 0, 10, 20, 1),
                rec(OpKind::CopyD2H, 0, 20, 30, 1),
            ],
        };
        let m = t.metrics();
        assert_eq!(m.hidden_transfer_ns, 0);
        assert_eq!(m.overlap_efficiency, 0.0);
        m.validate().unwrap();
    }

    #[test]
    fn kernel_classes_partition_compute_time() {
        let mut a = rec(OpKind::Kernel, 0, 0, 10, 5);
        a.kernel_class = Some(KernelClass::Symbolic);
        let mut b = rec(OpKind::Kernel, 0, 10, 25, 7);
        b.kernel_class = Some(KernelClass::Numeric);
        let t = Timeline {
            records: vec![a, b],
        };
        let m = t.metrics();
        let class_total: SimTime = m.kernel_classes.iter().map(|c| c.busy_ns).sum();
        assert_eq!(class_total, m.kernel.busy_ns);
        assert_eq!(m.kernel_classes.len(), 2);
        assert_eq!(m.kernel_classes[0].class, KernelClass::Symbolic);
        assert_eq!(m.kernel_classes[0].payload, 5);
    }

    #[test]
    fn stream_occupancy_excludes_host_ops() {
        let t = Timeline {
            records: vec![
                rec(OpKind::Kernel, 2, 5, 10, 1),
                rec(OpKind::CopyD2H, 2, 10, 30, 1),
                rec(OpKind::HostCompute, u32::MAX, 0, 4, 4),
            ],
        };
        let m = t.metrics();
        assert_eq!(m.streams.len(), 1);
        assert_eq!(m.streams[0].stream, 2);
        assert_eq!(m.streams[0].ops, 2);
        assert_eq!(m.streams[0].busy_ns, 25);
        assert_eq!(m.streams[0].span_ns, 25);
        assert_eq!(m.host_compute_ns, 4);
    }

    #[test]
    fn empty_timeline_yields_zeroed_metrics() {
        let m = Timeline::default().metrics();
        assert_eq!(m.makespan_ns, 0);
        assert_eq!(m.overlap_efficiency, 0.0);
        assert!(m.kernel_classes.is_empty());
        assert!(m.streams.is_empty());
        m.validate().unwrap();
    }

    #[test]
    fn merge_spans_coalesces_touching_intervals() {
        let u = merge_spans(vec![(5, 10), (0, 5), (12, 20), (13, 15)]);
        assert_eq!(u, vec![(0, 10), (12, 20)]);
        assert_eq!(overlap_with(&u, 8, 14), 2 + 2);
        assert_eq!(overlap_with(&u, 10, 12), 0);
    }
}
