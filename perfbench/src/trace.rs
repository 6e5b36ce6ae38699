//! Spans recorded around the library calls the drivers make.
//!
//! Every public layer call a driver makes goes through [`Tracer::span`].
//! With tracing off that is a single predictable branch; with tracing on
//! it records one [`Span`] (layer, start, end, parent span, request id)
//! in memory. Per-layer busy and self times are computed from the spans
//! after the run, never while it runs.

use std::io::Write;
use std::time::Instant;

/// The layer a span belongs to, named `<crate>.<call>` after the
/// workspace crate whose public call it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The driver's event loop over an `acp_simcore` event queue (root span).
    Dispatch,
    /// `RequestGenerator::next` + `RateSchedule::next_arrival`, or
    /// `StreamingArrivals::fill_epoch`.
    Arrivals,
    /// `GlobalStateBoard::congestion_estimate` + `AdmissionController::admit`.
    Admission,
    /// `Composer::compose` — the paper's `Find`.
    Compose,
    /// `select_candidates_with` (timed directly only by `scale_churn`).
    Selection,
    /// `RepairPlanner::repair_session`.
    Repair,
    /// `Preemptor::preempt_round` under the tenant pressure controller.
    Preempt,
    /// IP graph generation and overlay construction.
    TopologyBuild,
    /// Function registry, templates and `StreamSystem::generate`.
    Deploy,
    /// `GlobalStateBoard::new`.
    BoardBuild,
    /// `StreamSystem::commit_session` (timed directly only by `scale_churn`).
    Commit,
    /// `StreamSystem::close_session`.
    Close,
    /// `StreamSystem::fail_*`, `recover_node`, `restore_link`,
    /// `crash_component*`, `terminate_for_restart`.
    Faults,
    /// `StreamSystem::expire_transients`.
    Leases,
    /// `SystemAuditor::audit_at` + `GlobalStateBoard::audit_against`.
    Audit,
    /// `GlobalStateBoard::refresh_nodes`.
    Refresh,
    /// `GlobalStateBoard::aggregate_links`.
    Aggregate,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 17] = [
        Layer::Dispatch,
        Layer::Arrivals,
        Layer::Admission,
        Layer::Compose,
        Layer::Selection,
        Layer::Repair,
        Layer::Preempt,
        Layer::TopologyBuild,
        Layer::Deploy,
        Layer::BoardBuild,
        Layer::Commit,
        Layer::Close,
        Layer::Faults,
        Layer::Leases,
        Layer::Audit,
        Layer::Refresh,
        Layer::Aggregate,
    ];

    /// The span name, `<crate>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Dispatch => "simcore.dispatch",
            Layer::Arrivals => "workload.arrivals",
            Layer::Admission => "core.admission",
            Layer::Compose => "core.compose",
            Layer::Selection => "core.selection",
            Layer::Repair => "core.repair",
            Layer::Preempt => "core.preempt",
            Layer::TopologyBuild => "topology.build",
            Layer::Deploy => "model.deploy",
            Layer::BoardBuild => "state.build",
            Layer::Commit => "model.commit",
            Layer::Close => "model.close",
            Layer::Faults => "model.faults",
            Layer::Leases => "model.leases",
            Layer::Audit => "model.audit",
            Layer::Refresh => "state.refresh",
            Layer::Aggregate => "state.aggregate",
        }
    }

    /// True for the set-up layers, which run before the timed loop.
    pub fn is_setup(self) -> bool {
        matches!(
            self,
            Layer::TopologyBuild | Layer::Deploy | Layer::BoardBuild
        )
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One wrapped call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer whose call the span wraps.
    pub layer: Layer,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the call served (0 for maintenance calls).
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time inside the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; a no-op when created off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span of `layer` for `request`.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.begin(layer, request);
        let out = f();
        self.end(idx);
        out
    }

    /// Opens a span explicitly (for the loop's root span); returns its
    /// index for [`Self::end`]. Does nothing when tracing is off.
    pub fn begin(&mut self, layer: Layer, request: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: u32) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close in nesting order");
        self.spans[idx as usize].end_ns = end_ns;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals computed from the spans.
    pub fn layer_times(&self) -> LayerTimes {
        assert!(self.open.is_empty(), "every span closed before the report");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        let mut times = LayerTimes::default();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let t = times.get_mut(s.layer);
            t.calls += 1;
            t.busy_ns += s.duration_ns();
            // A child that outlives its parent would make this negative:
            // saturate and let the coverage check report the gap.
            t.self_ns += s.duration_ns().saturating_sub(children);
        }
        times
    }

    /// Writes the spans as CSV (`name,parent,request,start_ns,end_ns`).
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name,parent,request,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{},{},{},{},{}",
                s.layer.name(),
                parent,
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Totals of one layer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Total wall time inside the spans.
    pub busy_ns: u64,
    /// Busy time minus the time covered by child spans.
    pub self_ns: u64,
}

/// [`LayerTime`] for every [`Layer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTimes {
    times: [LayerTime; Layer::ALL.len()],
}

impl LayerTimes {
    /// The totals of `layer`.
    pub fn get(&self, layer: Layer) -> LayerTime {
        self.times[layer as usize]
    }

    fn get_mut(&mut self, layer: Layer) -> &mut LayerTime {
        &mut self.times[layer as usize]
    }

    /// Sum of self times over the layers that run inside the timed loop.
    pub fn loop_self_ns(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| !l.is_setup())
            .map(|&l| self.get(l).self_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin(Layer::Dispatch, 0);
        t.span(Layer::Compose, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span(Layer::Close, 7, || ());
        t.end(root);
        let times = t.layer_times();
        assert_eq!(times.get(Layer::Compose).calls, 1);
        assert_eq!(times.get(Layer::Close).calls, 1);
        let root_span = t.spans()[0];
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].request, 7);
        assert_eq!(times.loop_self_ns(), root_span.duration_ns());
        assert!(times.get(Layer::Compose).busy_ns >= 2_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin(Layer::Dispatch, 0);
        assert_eq!(t.span(Layer::Compose, 1, || 5), 5);
        t.end(root);
        assert!(t.spans().is_empty());
        assert_eq!(t.layer_times(), LayerTimes::default());
    }
}
