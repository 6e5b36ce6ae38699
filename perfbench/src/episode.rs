//! What one episode (one set-up plus one timed loop) of a workload
//! produces, and the correctness checks every episode must pass.

use std::time::Instant;

use acp_core::OverheadStats;
use acp_model::LeaseStats;
use acp_state::ScanStats;
use acp_topology::PathCacheStats;

use crate::trace::Tracer;

/// Work counters of one episode. They depend only on the workload and
/// its seed, never on the machine or on tracing, so two episodes of the
/// same seed must produce equal `Counters`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests offered by the arrival process.
    pub offered: u64,
    /// Offered requests the admission controller shed.
    pub shed: u64,
    /// Offered requests that were admitted but found no composition.
    pub failed: u64,
    /// Offered requests that became a session.
    pub established: u64,
    /// Probing rounds over every arrival `Find` (retries included).
    pub compose_attempts: u64,
    /// Sessions re-established by the failover sweep after a kill.
    pub restored: u64,
    /// Killed sessions the failover sweep could not re-establish.
    pub restore_lost: u64,
    /// Sessions closed at the end of their lifetime.
    pub closed: u64,
    /// Sessions killed by faults (or terminated for restart).
    pub killed: u64,
    /// Sessions preempted by the tenant pressure controller.
    pub preempted: u64,
    /// Sessions still live when the loop ended.
    pub live_end: u64,
    /// Events the loop dispatched (epochs for `scale_churn`).
    pub events: u64,
    /// Sessions a fault degraded or killed.
    pub sessions_struck: u64,
    /// Message and selection counters summed over every call.
    pub overhead: OverheadStats,
    /// Virtual-path memo counters at the end of the loop.
    pub path_cache: PathCacheStats,
    /// Board scan counters at the end of the loop.
    pub scans: ScanStats,
    /// Lease ledger after the post-horizon reclamation sweep.
    pub leases: LeaseStats,
    /// Leases alive after that sweep, plus one if the ledger does not
    /// reconcile.
    pub leases_leaked: u64,
    /// Repair tickets opened.
    pub repair_opened: u64,
    /// Tickets settled by an in-place splice.
    pub repaired: u64,
    /// Tickets settled by a full restart.
    pub repair_restored: u64,
    /// Degraded sessions the repair sweep escalated to terminate-and-restart.
    pub restarts: u64,
    /// `scale_churn`: commits the system rejected after selection.
    pub commit_failed: u64,
    /// Audit passes run in the loop (plus the closing one).
    pub audits: u64,
    /// Violations over every audit pass.
    pub audit_violations: u64,
    /// Digest folded over every audit report.
    pub audit_digest: u64,
    /// Digest of the final session table.
    pub session_digest: u64,
}

impl Counters {
    /// Share of offered requests that became sessions.
    pub fn success_rate(&self) -> f64 {
        self.established as f64 / self.offered.max(1) as f64
    }

    /// Probe messages per offered request.
    pub fn probes_per_request(&self) -> f64 {
        self.overhead.probe_messages as f64 / self.offered.max(1) as f64
    }

    /// Share of fault-struck sessions that ended repaired or restored
    /// (1.0 when no session was struck).
    pub fn session_survival(&self) -> f64 {
        if self.repair_opened == 0 {
            return 1.0;
        }
        (self.repaired + self.repair_restored) as f64 / self.repair_opened as f64
    }

    /// Names every conservation identity or invariant this episode broke.
    pub fn breaches(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.offered != self.shed + self.failed + self.established {
            out.push(format!(
                "offered {} != shed {} + failed {} + established {}",
                self.offered, self.shed, self.failed, self.established
            ));
        }
        let ended = self.closed + self.killed + self.preempted + self.live_end;
        if self.established + self.restored != ended {
            out.push(format!(
                "established {} + restored {} != closed {} + killed {} + preempted {} + live {}",
                self.established,
                self.restored,
                self.closed,
                self.killed,
                self.preempted,
                self.live_end
            ));
        }
        if self.audit_violations != 0 {
            out.push(format!("{} audit violations", self.audit_violations));
        }
        if self.leases_leaked != 0 {
            out.push(format!("{} leases leaked", self.leases_leaked));
        }
        if self.offered == 0 {
            out.push("no request offered".to_string());
        }
        out
    }
}

/// One episode of a workload.
#[derive(Debug)]
pub struct Episode {
    /// Deterministic work counters.
    pub counters: Counters,
    /// Requests offered in the timed loop.
    pub loop_offered: u64,
    /// Wall time from the first set-up call to the first event, when
    /// the episode set up its own system.
    pub setup_s: Option<f64>,
    /// Wall time of the timed loop.
    pub loop_s: f64,
    /// Wall time of every arrival `Find`, in nanoseconds.
    pub find_ns: Vec<u64>,
    /// Wall time of every step of the timed loop, in order, in
    /// nanoseconds; they add up to `loop_s`.
    pub step_ns: Vec<u64>,
    /// The spans, when the episode was traced.
    pub tracer: Tracer,
}

/// Times the steps of a timed loop back to back: each [`Steps::mark`]
/// closes the step that began at the previous mark (or at the start).
#[derive(Debug)]
pub struct Steps {
    start: Instant,
    last: Instant,
    ns: Vec<u64>,
}

impl Steps {
    /// Starts the loop's clock.
    pub fn start() -> Self {
        let now = Instant::now();
        Steps {
            start: now,
            last: now,
            ns: Vec::new(),
        }
    }

    /// Ends the current step.
    pub fn mark(&mut self) {
        let now = Instant::now();
        self.ns
            .push(u64::try_from((now - self.last).as_nanos()).expect("short step"));
        self.last = now;
    }

    /// Wall time from the start to the last mark.
    pub fn loop_s(&self) -> f64 {
        (self.last - self.start).as_secs_f64()
    }

    /// Every step's wall time, in order.
    pub fn into_ns(self) -> Vec<u64> {
        self.ns
    }
}
