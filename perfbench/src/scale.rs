//! The driver of `scale_churn`: `fig_scale`'s ramp-then-churn loop,
//! with selection and commit timed as separate calls.
//!
//! It makes the calls `acp_bench::run_scale_point` makes, in the same
//! order and on the same random stream; `tests/selftest.rs` holds the
//! two to the same counters. The ramp to the live-session target runs
//! once per run, as warm-up; every episode then times the churn on its
//! own copy of the ramped point, so all episodes of a run do the same
//! work.

use std::collections::VecDeque;
use std::time::Instant;

use acp_bench::ScaleConfig;
use acp_core::prelude::*;
use acp_core::selection::HopContext;
use acp_model::prelude::*;
use acp_simcore::{SimDuration, SimTime};
use acp_state::{GlobalStateBoard, GlobalStateConfig};
use acp_topology::Overlay;
use acp_workload::{
    session_digest, RateSchedule, RequestConfig, RequestGenerator, StreamingArrivals,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::episode::{Counters, Episode, Steps};
use crate::trace::{Layer, Tracer};

/// `fig_scale`'s request distributions: tiny demands so the session
/// target fits the deployed capacity, a binding delay requirement so
/// the candidate index's early exit engages.
fn request_config() -> RequestConfig {
    RequestConfig {
        per_hop_delay_ms: (150.0, 300.0),
        max_loss: (0.5, 0.9),
        base_cpu: (0.01, 0.05),
        base_memory_mb: (0.05, 0.20),
        bandwidth_kbps: (1.0, 5.0),
        stream_rate_kbps: (50.0, 400.0),
        session_minutes: (5.0, 15.0),
        ..RequestConfig::default()
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).expect("short call")
}

/// A scale point built and ramped to its live-session target: the state
/// every timed episode of `scale_churn` starts from.
#[derive(Clone)]
pub struct Warm {
    sessions: usize,
    target: u64,
    alpha: f64,
    system: StreamSystem,
    board: GlobalStateBoard,
    arrivals: StreamingArrivals,
    rng: StdRng,
    live: VecDeque<SessionId>,
    epoch_end: SimTime,
    c: Counters,
    setup_s: f64,
}

/// Sets up `cfg`'s point: builds the synthetic overlay, deployment and
/// board, then ramps the point to `cfg.sessions` live sessions (whole
/// one-minute epochs until that many requests have arrived). The ramp
/// counts as set-up, so work moved out of the timed churn into it shows
/// in [`Warm::setup_s`].
pub fn warm_up(cfg: &ScaleConfig) -> Warm {
    let setup_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let overlay = Overlay::synthetic(cfg.nodes, 2, &mut rng);
    let system_config = SystemConfig {
        components_per_node: (3, 5),
        ..SystemConfig::default()
    };
    let system = StreamSystem::generate(
        overlay,
        FunctionRegistry::standard(),
        &system_config,
        &mut rng,
    );
    let board = GlobalStateBoard::new(&system, GlobalStateConfig::default());

    let mean_k = system.dense_component_count() as f64 / system.registry().len() as f64;
    let generator = RequestGenerator::new(
        TemplateLibrary::singletons(system.registry()),
        request_config(),
    );
    let target = (cfg.sessions + cfg.churn) as u64;
    // Sized so the run spans ~50 one-minute epochs of simulated time.
    let rate_per_min = (target as f64 / 50.0).max(100.0);
    let mut warm = Warm {
        sessions: cfg.sessions,
        target,
        alpha: (cfg.quota_target as f64 / mean_k.max(1.0)).min(1.0),
        system,
        board,
        arrivals: StreamingArrivals::new(RateSchedule::constant(rate_per_min), generator),
        rng,
        live: VecDeque::with_capacity(cfg.sessions),
        epoch_end: SimTime::ZERO + SimDuration::from_minutes(1),
        c: Counters::default(),
        setup_s: 0.0,
    };
    let mut ramp = Loop {
        tracer: Tracer::new(false),
        steps: Steps::start(),
        find_ns: Vec::new(),
    };
    warm.run_epochs(cfg.sessions as u64, &mut ramp);
    warm.setup_s = setup_start.elapsed().as_secs_f64();
    warm
}

/// What the timed part of an episode records.
struct Loop {
    tracer: Tracer,
    steps: Steps,
    find_ns: Vec<u64>,
}

impl Warm {
    /// Wall time of the set-up, ramp included.
    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }

    /// Runs one-minute epochs while fewer than `until` requests have
    /// arrived, stopping at the point's last request. Each epoch draws
    /// its arrivals, runs select + close-oldest + commit per arrival,
    /// and ends with one `refresh_nodes`.
    fn run_epochs(&mut self, until: u64, l: &mut Loop) {
        let epoch = SimDuration::from_minutes(1);
        let mut scratch = SelectionScratch::default();
        let mut buf = Vec::new();
        let (tracer, c) = (&mut l.tracer, &mut self.c);
        while c.offered < until {
            c.events += 1;
            let (arrivals, rng, epoch_end) = (&mut self.arrivals, &mut self.rng, self.epoch_end);
            let drained = tracer.span(Layer::Arrivals, 0, || {
                arrivals.fill_epoch(epoch_end, rng, &mut buf)
            });
            self.epoch_end += epoch;
            if drained == 0 {
                continue;
            }
            for arrival in buf.drain(..) {
                // Closes the epoch's fill or the previous `Find`.
                l.steps.mark();
                if c.offered >= self.target {
                    break;
                }
                c.offered += 1;
                let request = arrival.request;
                let id = request.id.0;
                let ctx = HopContext {
                    request: &request,
                    vertex: 0,
                    predecessors: &[],
                };
                let selected = Instant::now();
                let (system, board, rng) = (&mut self.system, &self.board, &mut self.rng);
                let plans = tracer.span(Layer::Selection, id, || {
                    select_candidates_with(
                        system,
                        board,
                        &ctx,
                        HopSelection::Ranked,
                        self.alpha,
                        RISK_EPSILON,
                        rng,
                        &mut c.overhead,
                        &mut scratch,
                    )
                });
                let select_ns = nanos(selected, Instant::now());
                let Some(plan) = plans.into_iter().next() else {
                    l.find_ns.push(select_ns);
                    c.failed += 1;
                    continue;
                };
                if self.live.len() >= self.sessions {
                    let oldest = self.live.pop_front().expect("non-empty at target");
                    if tracer.span(Layer::Close, 0, || system.close_session(oldest)) {
                        c.closed += 1;
                    }
                }
                let composition = Composition {
                    assignment: vec![plan.component],
                    links: Vec::new(),
                };
                let committing = Instant::now();
                let committed = tracer.span(Layer::Commit, id, || {
                    system.commit_session(&request, composition)
                });
                l.find_ns
                    .push(select_ns + nanos(committing, Instant::now()));
                match committed {
                    Ok(sid) => {
                        self.live.push_back(sid);
                        c.established += 1;
                    }
                    Err(_) => {
                        c.failed += 1;
                        c.commit_failed += 1;
                    }
                }
            }
            let (board, system) = (&mut self.board, &self.system);
            c.overhead.state_update_messages +=
                tracer.span(Layer::Refresh, 0, || board.refresh_nodes(system));
            l.steps.mark();
        }
    }
}

/// Selection's risk bound, as in `fig_scale`.
const RISK_EPSILON: f64 = 0.01;

/// Runs one episode on a copy of `warm`: the churn from the ramp's end
/// to the point's last request (`cfg.churn` close-oldest/commit-new
/// pairs, less the part of the ramp's last epoch past the target), at
/// the target concurrency. One `Find` is the select + commit pair. The
/// counters cover the ramp and the churn, so they equal
/// `run_scale_point`'s.
pub fn run_episode(warm: &Warm, trace: bool) -> Episode {
    let mut w = warm.clone();
    let ramp_offered = w.c.offered;
    let mut l = Loop {
        tracer: Tracer::new(trace),
        steps: Steps::start(),
        find_ns: Vec::new(),
    };
    let root = l.tracer.begin(Layer::Dispatch, 0);
    w.run_epochs(w.target, &mut l);
    l.tracer.end(root);

    let (system, board, mut c) = (&w.system, &w.board, w.c);
    let mut report = SystemAuditor::default().audit(system);
    report.merge(AuditReport::from_violations(board.audit_against(system)));
    c.audits = 1;
    c.audit_violations = report.len() as u64;
    c.audit_digest = report.digest();
    c.live_end = system.session_count() as u64;
    c.scans = board.scan_stats();
    c.path_cache = system.path_cache_stats();
    c.leases = system.lease_stats();
    let live_leases = system.live_lease_count() as u64;
    c.leases_leaked = live_leases + u64::from(!c.leases.reconciles(live_leases));
    c.session_digest = session_digest(system);
    Episode {
        loop_offered: c.offered - ramp_offered,
        counters: c,
        setup_s: None,
        loop_s: l.steps.loop_s(),
        find_ns: l.find_ns,
        step_ns: l.steps.into_ns(),
        tracer: l.tracer,
    }
}
