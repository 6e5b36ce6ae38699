//! The discrete-event driver of `paper_steady` and `chaos_lossy`.
//!
//! It makes the same public layer calls, in the same order and on the
//! same random streams, as `acp_workload::run_scenario` does for the
//! configurations it accepts (no tuner, no rebalancer, no partitions,
//! one shard), but it owns the loop, so each call can be timed from
//! outside. `tests/selftest.rs` holds the driver to `run_scenario`'s
//! counters and session digest.

use std::time::Instant;

use acp_core::prelude::*;
use acp_model::prelude::*;
use acp_simcore::{
    DeterministicRng, EventQueue, FaultKind, FaultPlan, FaultScheduler, SimDuration, SimTime,
};
use acp_state::GlobalStateBoard;
use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayLinkId, OverlayNodeId};
use acp_workload::{
    session_digest, RepairPolicy, RepairScenarioConfig, RequestGenerator, ScenarioConfig,
    TenantPreemptionConfig,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::episode::{Counters, Episode, Steps};
use crate::trace::{Layer, Tracer};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival,
    SessionEnd(SessionId),
    Sample,
    LocalRefresh,
    Aggregate,
    Fault,
    FailoverSweep,
    RepairSweep,
    TenantControl,
}

struct Churn {
    scheduler: FaultScheduler,
    failover_delay: SimDuration,
    /// Session-duration stream for restored sessions.
    rng: StdRng,
    /// Killed sessions awaiting recomposition: `(due, failed_at, request)`.
    pending: Vec<(SimTime, SimTime, Request)>,
}

enum RepairMode {
    Single(SinglePhase),
    Two(Box<SetupState>),
}

struct Repair {
    config: RepairScenarioConfig,
    planner: RepairPlanner,
    detect_rng: StdRng,
    compose_rng: StdRng,
    mode: RepairMode,
    /// Degraded sessions awaiting a repair sweep: `(due, session)`.
    pending: Vec<(SimTime, SessionId)>,
}

struct Tenants {
    bindings: Vec<TenantBinding>,
    cumulative_weights: Vec<f64>,
    rng: StdRng,
    admission: AdmissionController,
    preemptor: Preemptor,
    preemption: Option<TenantPreemptionConfig>,
}

impl Tenants {
    fn draw(&mut self) -> TenantBinding {
        let total = *self.cumulative_weights.last().expect("at least one tenant");
        let x = self.rng.gen_range(0.0..total);
        let idx = self
            .cumulative_weights
            .iter()
            .position(|&w| x < w)
            .unwrap_or(self.bindings.len() - 1);
        self.bindings[idx]
    }
}

struct World<'c> {
    config: &'c ScenarioConfig,
    end: SimTime,
    system: StreamSystem,
    board: GlobalStateBoard,
    composer: Box<dyn Composer>,
    generator: RequestGenerator,
    workload_rng: StdRng,
    auditor: SystemAuditor,
    churn: Option<Churn>,
    repair: Option<Repair>,
    tenants: Option<Tenants>,
    /// Transients can outlive an event only under two-phase set-up or
    /// repair; otherwise the expiry sweep is skipped, as in `run_scenario`.
    leases_on: bool,
    tracer: Tracer,
    c: Counters,
    find_ns: Vec<u64>,
}

/// Rejects the scenario features this driver does not reproduce.
fn check_supported(config: &ScenarioConfig) {
    assert!(
        config.tuner.is_none() && config.controller.is_none(),
        "no ratio tuning"
    );
    assert_eq!(config.shards, 1, "sequential runtime only");
    if let Some(churn) = &config.churn {
        assert!(churn.rebalance_interval.is_none(), "no rebalancer");
        assert_eq!(churn.faults.partition_per_min, 0.0, "no partitions");
    }
    if let Some(tenants) = &config.tenants {
        assert!(!tenants.tenants.is_empty(), "a tenanted run needs a tenant");
    }
}

/// Runs one episode of `config`: set up the system, then run the
/// event loop to `config.duration`, timing `Find` and, when `trace`,
/// every wrapped call.
///
/// The topology, overlay, templates, deployment and fault plan come
/// from `system_seed`; every other stream (arrivals, probing, transport,
/// repair, tenants) from `config.seed`. With
/// `system_seed == config.seed` the episode is `run_scenario(config)`.
pub fn run_episode(config: &ScenarioConfig, system_seed: u64, trace: bool) -> Episode {
    check_supported(config);
    let setup_start = Instant::now();
    let mut tracer = Tracer::new(trace);
    let system_streams = DeterministicRng::new(system_seed);
    let streams = DeterministicRng::new(config.seed);
    let overlay = tracer.span(Layer::TopologyBuild, 0, || {
        let mut topo_rng = system_streams.stream("topology");
        let ip = InetConfig {
            nodes: config.ip_nodes,
            ..InetConfig::default()
        }
        .generate(&mut topo_rng);
        let overlay_config = OverlayConfig {
            stream_nodes: config.stream_nodes,
            neighbors: config.overlay_neighbors,
        };
        Overlay::build(&ip, &overlay_config, &mut system_streams.stream("overlay"))
    });
    let (mut system, library) = tracer.span(Layer::Deploy, 0, || {
        let registry = FunctionRegistry::with_size(config.functions);
        let library = TemplateLibrary::standard(&registry, &mut system_streams.stream("templates"));
        let system = StreamSystem::generate(
            overlay,
            registry,
            &config.system,
            &mut system_streams.stream("system"),
        );
        (system, library)
    });
    let board = tracer.span(Layer::BoardBuild, 0, || {
        GlobalStateBoard::new(&system, config.global_state)
    });

    let leases_on = config.setup.is_some() || config.repair.is_some();
    system.set_lease_accounting(leases_on);
    system.set_tenant_accounting(config.tenants.is_some());
    system.set_repair_accounting(config.repair.is_some());
    let composer = config.algorithm.build_composer(
        config.probing.clone(),
        config.optimal,
        streams.seed_for("composer"),
        config
            .setup
            .clone()
            .map(|setup| (streams.seed_for("setup"), setup)),
    );
    let churn = config.churn.as_ref().map(|churn| Churn {
        scheduler: FaultPlan::generate(
            system_streams.seed_for("faults"),
            &churn.faults,
            system.node_count(),
            system.overlay().link_count(),
            config.duration,
        )
        .into_scheduler(),
        failover_delay: churn.failover_delay,
        rng: streams.stream("churn"),
        pending: Vec::new(),
    });
    let repair = config.repair.clone().map(|repair| Repair {
        mode: match &config.setup {
            Some(setup) => RepairMode::Two(Box::new(SetupState::new(
                streams.seed_for("repair-setup"),
                setup.clone(),
            ))),
            None => RepairMode::Single(SinglePhase),
        },
        planner: RepairPlanner::new(),
        detect_rng: streams.stream("repair"),
        compose_rng: streams.stream("repair-compose"),
        pending: Vec::new(),
        config: repair,
    });
    let tenants = config.tenants.as_ref().map(|tc| {
        let mut admission = AdmissionController::new(tc.admission);
        let mut bindings = Vec::new();
        let mut cumulative_weights = Vec::new();
        let mut acc = 0.0;
        for (i, spec) in tc.tenants.iter().enumerate() {
            let id = TenantId(u32::try_from(i).expect("few tenants"));
            system.register_tenant(id, spec.tier);
            bindings.push(TenantBinding {
                tenant: id,
                tier: spec.tier,
            });
            acc += spec.weight;
            cumulative_weights.push(acc);
            if let Some((rate, burst)) = spec.rate_limit {
                admission.set_rate_limit(id, rate, burst);
            }
        }
        Tenants {
            bindings,
            cumulative_weights,
            rng: streams.stream("tenants"),
            admission,
            preemptor: Preemptor::new(tc.preemption.map(|p| p.policy).unwrap_or_default()),
            preemption: tc.preemption,
        }
    });

    let mut world = World {
        config,
        end: SimTime::ZERO + config.duration,
        system,
        board,
        composer,
        generator: RequestGenerator::new(library, config.requests.clone()),
        workload_rng: streams.stream("workload"),
        auditor: SystemAuditor::default(),
        churn,
        repair,
        tenants,
        leases_on,
        tracer,
        c: Counters::default(),
        find_ns: Vec::new(),
    };
    let mut queue = EventQueue::new();
    queue.schedule(SimTime::ZERO + SimDuration::from_micros(1), Event::Arrival);
    queue.schedule(SimTime::ZERO + config.sampling_period, Event::Sample);
    queue.schedule(SimTime::ZERO + config.local_refresh, Event::LocalRefresh);
    queue.schedule(
        SimTime::ZERO + config.aggregation_interval,
        Event::Aggregate,
    );
    if let Some(t) = world.churn.as_ref().and_then(|c| c.scheduler.next_time()) {
        queue.schedule(t, Event::Fault);
    }
    if let Some(p) = world.tenants.as_ref().and_then(|t| t.preemption) {
        queue.schedule(SimTime::ZERO + p.interval, Event::TenantControl);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut steps = Steps::start();
    let root = world.tracer.begin(Layer::Dispatch, 0);
    while let Some(t) = queue.peek_time() {
        if t > world.end {
            break;
        }
        let event = queue.pop().expect("peeked");
        world.c.events += 1;
        world.handle(event.time, event.event, &mut queue);
        steps.mark();
    }
    // The closing audit is part of the run, as in `run_scenario`.
    world.audit(world.end);
    world.tracer.end(root);
    steps.mark();
    world.finish(setup_s, steps)
}

impl World<'_> {
    fn sweep_transients(&mut self, now: SimTime) {
        if self.leases_on {
            let system = &mut self.system;
            self.tracer
                .span(Layer::Leases, 0, || system.expire_transients(now));
        }
    }

    fn refresh(&mut self) {
        let (board, system) = (&mut self.board, &self.system);
        self.c.overhead.state_update_messages += self
            .tracer
            .span(Layer::Refresh, 0, || board.refresh_nodes(system));
    }

    fn aggregate(&mut self) {
        let (board, system) = (&mut self.board, &self.system);
        self.c.overhead.state_update_messages += self
            .tracer
            .span(Layer::Aggregate, 0, || board.aggregate_links(system));
    }

    /// Lease sweep, then the system auditor and the board coherence
    /// audit; violations and the report digest accumulate.
    fn audit(&mut self, now: SimTime) {
        self.sweep_transients(now);
        let (auditor, system, board) = (&self.auditor, &self.system, &self.board);
        let report = self.tracer.span(Layer::Audit, 0, || {
            let mut report = auditor.audit_at(system, Some(now));
            report.merge(AuditReport::from_violations(board.audit_against(system)));
            report
        });
        self.c.audits += 1;
        self.c.audit_violations += report.len() as u64;
        self.c.audit_digest ^= report.digest();
        self.c.audit_digest = self.c.audit_digest.wrapping_mul(0x1_0000_0000_01b3);
    }

    fn compose(&mut self, request: &Request, now: SimTime) -> ComposeOutcome {
        let (composer, system, board) = (&mut self.composer, &mut self.system, &self.board);
        let outcome = self.tracer.span(Layer::Compose, request.id.0, || {
            composer.compose(system, board, request, now)
        });
        self.c.overhead += outcome.stats;
        outcome
    }

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::Arrival => self.arrival(now, queue),
            Event::SessionEnd(sid) => {
                let system = &mut self.system;
                if self
                    .tracer
                    .span(Layer::Close, 0, || system.close_session(sid))
                {
                    self.c.closed += 1;
                }
            }
            Event::Sample => {
                self.audit(now);
                self.reschedule(queue, now, self.config.sampling_period, Event::Sample);
            }
            Event::LocalRefresh => {
                self.sweep_transients(now);
                self.refresh();
                self.reschedule(queue, now, self.config.local_refresh, Event::LocalRefresh);
            }
            Event::Aggregate => {
                self.aggregate();
                self.reschedule(
                    queue,
                    now,
                    self.config.aggregation_interval,
                    Event::Aggregate,
                );
            }
            Event::Fault => {
                let churn = self.churn.as_mut().expect("faults imply churn");
                for fault in churn.scheduler.pop_due(now) {
                    self.apply_fault(now, fault.kind, queue);
                }
                if let Some(next) = self.churn.as_ref().and_then(|c| c.scheduler.next_time()) {
                    queue.schedule(next, Event::Fault);
                }
            }
            Event::FailoverSweep => self.failover_sweep(now, queue),
            Event::RepairSweep => self.repair_sweep(now, queue),
            Event::TenantControl => self.tenant_control(now, queue),
        }
    }

    fn reschedule(
        &self,
        queue: &mut EventQueue<Event>,
        now: SimTime,
        period: SimDuration,
        event: Event,
    ) {
        if now + period <= self.end {
            queue.schedule(now + period, event);
        }
    }

    fn arrival(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        self.sweep_transients(now);
        // The composer, the admission controller and the tenant draw use
        // streams of their own, so drawing the next arrival time right
        // after the request consumes the workload stream in the order
        // `run_scenario` does.
        let (generator, rng, schedule) = (
            &mut self.generator,
            &mut self.workload_rng,
            &self.config.schedule,
        );
        let request_id = generator.generated();
        let ((mut request, session_duration), next) =
            self.tracer.span(Layer::Arrivals, request_id, || {
                let drawn = generator.next(rng);
                (drawn, schedule.next_arrival(now, rng))
            });
        self.c.offered += 1;
        let mut admitted = true;
        if let Some(tenants) = self.tenants.as_mut() {
            let binding = tenants.draw();
            request.tenant = Some(binding);
            let (admission, board, system) =
                (&mut tenants.admission, &self.board, &mut self.system);
            admitted = self.tracer.span(Layer::Admission, request_id, || {
                let decision = admission.admit(binding, now, board.congestion_estimate());
                if !decision.admitted() {
                    system.record_tenant_shed(binding);
                    if decision == AdmissionDecision::ShedCongestion
                        && binding.tier == TenantTier::Gold
                        && system.tenant_ledger().lower_tier_live(binding.tier)
                    {
                        system.record_tenant_starved(binding);
                    }
                }
                decision.admitted()
            });
        }
        if admitted {
            let started = Instant::now();
            let outcome = self.compose(&request, now);
            self.find_ns
                .push(u64::try_from(started.elapsed().as_nanos()).expect("short find"));
            self.c.compose_attempts += u64::from(outcome.attempts);
            match outcome.session {
                Some(sid) => {
                    self.c.established += 1;
                    queue.schedule(now + session_duration, Event::SessionEnd(sid));
                }
                None => self.c.failed += 1,
            }
        } else {
            self.c.shed += 1;
        }
        if let Some(next) = next.filter(|&t| t <= self.end) {
            queue.schedule(next, Event::Arrival);
        }
    }

    /// Applies one fault-plan event. Victim indices wrap modulo the live
    /// entity counts, as in `run_scenario`.
    fn apply_fault(&mut self, now: SimTime, kind: FaultKind, queue: &mut EventQueue<Event>) {
        let node_count = self.system.node_count() as u32;
        let link_count = self.system.overlay().link_count() as u32;
        let in_place = self
            .repair
            .as_ref()
            .is_some_and(|r| r.config.policy == RepairPolicy::Repair);
        let system = &mut self.system;
        let (degraded, orphaned): (Vec<SessionId>, Vec<Request>) = match kind {
            FaultKind::NodeFail { node } => {
                let v = OverlayNodeId(node % node_count);
                if system.is_node_failed(v) {
                    return;
                }
                let struck = self.tracer.span(Layer::Faults, 0, || {
                    if in_place {
                        let o = system.fail_node_degrading(v, now).1;
                        (o.degraded, o.orphaned)
                    } else {
                        (Vec::new(), system.fail_node(v).1)
                    }
                });
                self.refresh();
                struck
            }
            FaultKind::NodeRecover { node } => {
                let v = OverlayNodeId(node % node_count);
                if system.is_node_failed(v) {
                    self.tracer
                        .span(Layer::Faults, 0, || system.recover_node(v));
                    self.refresh();
                }
                return;
            }
            FaultKind::LinkFail { link } => {
                let Some(l) = (link_count > 0).then(|| OverlayLinkId(link % link_count)) else {
                    return;
                };
                if system.is_link_failed(l) {
                    return;
                }
                let struck = self.tracer.span(Layer::Faults, 0, || {
                    if in_place {
                        let o = system.fail_link_degrading(l, now);
                        (o.degraded, o.orphaned)
                    } else {
                        (Vec::new(), system.fail_link(l))
                    }
                });
                self.aggregate();
                struck
            }
            FaultKind::LinkDegrade { link, factor } => {
                let Some(l) = (link_count > 0).then(|| OverlayLinkId(link % link_count)) else {
                    return;
                };
                let struck = self.tracer.span(Layer::Faults, 0, || {
                    if in_place {
                        let o = system.degrade_link_degrading(l, factor, now);
                        (o.degraded, o.orphaned)
                    } else {
                        (Vec::new(), system.degrade_link(l, factor))
                    }
                });
                self.aggregate();
                struck
            }
            FaultKind::LinkRestore { link } => {
                if link_count > 0 {
                    let l = OverlayLinkId(link % link_count);
                    self.tracer
                        .span(Layer::Faults, 0, || system.restore_link(l));
                    self.aggregate();
                }
                return;
            }
            FaultKind::ComponentCrash { node, ordinal } => {
                let v = OverlayNodeId(node % node_count);
                let live: Vec<ComponentId> = system.node(v).components().map(|c| c.id).collect();
                if live.is_empty() {
                    return;
                }
                let id = live[(ordinal % live.len() as u64) as usize];
                let struck = self.tracer.span(Layer::Faults, 0, || {
                    if in_place {
                        let o = system.crash_component_degrading(id, now);
                        (o.degraded, o.orphaned)
                    } else {
                        (Vec::new(), system.crash_component(id))
                    }
                });
                self.refresh();
                struck
            }
            FaultKind::Partition { .. } | FaultKind::PartitionHeal { .. } => {
                unreachable!("check_supported admits no partition faults")
            }
        };
        if orphaned.is_empty() && degraded.is_empty() {
            return;
        }
        self.c.sessions_struck += (orphaned.len() + degraded.len()) as u64;
        self.c.killed += orphaned.len() as u64;
        let churn = self.churn.as_mut().expect("faults imply churn");
        // One detection draw per fault incident.
        let due = now
            + match self.repair.as_mut() {
                Some(repair) => repair.config.detection.sample(&mut repair.detect_rng),
                None => churn.failover_delay,
            };
        if let Some(repair) = self.repair.as_mut() {
            for request in &orphaned {
                self.system.repair_ledger_mut().open_ticket(request.id, now);
            }
            if !degraded.is_empty() {
                repair
                    .pending
                    .extend(degraded.into_iter().map(|sid| (due, sid)));
                queue.schedule(due, Event::RepairSweep);
            }
        }
        if !orphaned.is_empty() {
            churn
                .pending
                .extend(orphaned.into_iter().map(|r| (due, now, r)));
            queue.schedule(due, Event::FailoverSweep);
        }
    }

    /// Recomposes the killed sessions whose detection delay has passed.
    fn failover_sweep(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let Some(mut churn) = self.churn.take() else {
            return;
        };
        self.sweep_transients(now);
        let mut due = Vec::new();
        churn.pending.retain(|&(due_at, failed_at, ref request)| {
            let ready = due_at <= now;
            if ready {
                due.push((failed_at, request.clone()));
            }
            !ready
        });
        for (failed_at, request) in due {
            let outcome = self.compose(&request, now);
            match outcome.session {
                Some(sid) => {
                    self.c.restored += 1;
                    if self.repair.is_some() {
                        self.system
                            .repair_ledger_mut()
                            .record_restored(request.id, now);
                    }
                    let (lo, hi) = self.config.requests.session_minutes;
                    let minutes = churn.rng.gen_range(lo..hi);
                    queue.schedule(
                        now + SimDuration::from_secs_f64(minutes * 60.0),
                        Event::SessionEnd(sid),
                    );
                }
                None => {
                    let retry = self.repair.as_ref().and_then(|r| {
                        (r.config.policy == RepairPolicy::Repair)
                            .then_some((r.config.retry_budget, r.config.retry_delay))
                    });
                    match retry {
                        Some((budget, delay))
                            if self
                                .system
                                .repair_ledger()
                                .ticket(request.id)
                                .is_some_and(|t| t.attempts < budget) =>
                        {
                            let ledger = self.system.repair_ledger_mut();
                            ledger.begin_attempt(request.id);
                            ledger.attempt_failed(request.id);
                            churn.pending.push((now + delay, failed_at, request));
                            queue.schedule(now + delay, Event::FailoverSweep);
                        }
                        _ => {
                            self.c.restore_lost += 1;
                            if self.repair.is_some() {
                                self.system.repair_ledger_mut().record_abandoned(request.id);
                            }
                        }
                    }
                }
            }
        }
        self.churn = Some(churn);
        self.audit(now);
    }

    /// Repairs the degraded sessions whose detection delay (or retry
    /// delay) has passed, in ascending session order; structural
    /// failures escalate to terminate-and-restart.
    fn repair_sweep(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let Some(mut repair) = self.repair.take() else {
            return;
        };
        self.sweep_transients(now);
        let mut due = Vec::new();
        repair.pending.retain(|&(due_at, sid)| {
            let ready = due_at <= now;
            if ready {
                due.push(sid);
            }
            !ready
        });
        due.sort_unstable();
        due.dedup();
        let Repair {
            config,
            planner,
            compose_rng,
            mode,
            pending,
            ..
        } = &mut repair;
        for sid in due {
            let (system, board, probing) = (&mut self.system, &self.board, &self.config.probing);
            let attempt = self.tracer.span(Layer::Repair, 0, || match mode {
                RepairMode::Single(m) => {
                    planner.repair_session(system, board, sid, now, probing, m, compose_rng, None)
                }
                RepairMode::Two(m) => planner.repair_session(
                    system,
                    board,
                    sid,
                    now,
                    probing,
                    m.as_mut(),
                    compose_rng,
                    None,
                ),
            });
            if let Some(probing) = attempt.probing {
                self.c.overhead += probing.stats;
            }
            let RepairVerdict::Failed(failure) = attempt.verdict else {
                continue;
            };
            let attempts = self
                .system
                .session(sid)
                .and_then(|s| self.system.repair_ledger().ticket(s.request))
                .map_or(u32::MAX, |t| t.attempts);
            if failure.is_transient() && attempts < config.retry_budget {
                pending.push((now + config.retry_delay, sid));
                queue.schedule(now + config.retry_delay, Event::RepairSweep);
                continue;
            }
            let system = &mut self.system;
            let Some(request) = self
                .tracer
                .span(Layer::Faults, 0, || system.terminate_for_restart(sid))
            else {
                continue;
            };
            self.c.killed += 1;
            self.c.restarts += 1;
            let failed_at = self
                .system
                .repair_ledger()
                .ticket(request.id)
                .map_or(now, |t| t.failed_at);
            let churn = self.churn.as_mut().expect("repair runs under churn");
            churn.pending.push((now, failed_at, request));
            queue.schedule(now, Event::FailoverSweep);
        }
        self.repair = Some(repair);
        self.audit(now);
    }

    /// One pressure-controller round: preempt best-effort sessions while
    /// the board reads congested.
    fn tenant_control(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let Some(mut tenants) = self.tenants.take() else {
            return;
        };
        if let Some(preemption) = tenants.preemption {
            let (board, system, preemptor) =
                (&self.board, &mut self.system, &mut tenants.preemptor);
            let reclaimed = self.tracer.span(Layer::Preempt, 0, || {
                if board.congestion_estimate() >= preemption.congestion_threshold {
                    preemptor.preempt_round(system).len()
                } else {
                    0
                }
            });
            if reclaimed > 0 {
                self.c.preempted += reclaimed as u64;
                self.refresh();
            }
            self.reschedule(queue, now, preemption.interval, Event::TenantControl);
        }
        self.tenants = Some(tenants);
    }

    /// Post-horizon lease sweep and the final counters.
    fn finish(mut self, setup_s: f64, steps: Steps) -> Episode {
        let horizon = self.end + self.config.probing.transient_timeout;
        self.system.expire_transients(horizon);
        let live_leases = self.system.live_lease_count() as u64;
        let c = &mut self.c;
        c.leases = self.system.lease_stats();
        c.leases_leaked = live_leases + u64::from(!c.leases.reconciles(live_leases));
        c.live_end = self.system.session_count() as u64;
        c.path_cache = self.system.path_cache_stats();
        c.scans = self.board.scan_stats();
        let ledger = self.system.repair_ledger();
        c.repair_opened = ledger.opened;
        c.repaired = ledger.repaired;
        c.repair_restored = ledger.restored;
        c.session_digest = session_digest(&self.system);
        Episode {
            loop_offered: self.c.offered,
            counters: self.c,
            setup_s: Some(setup_s),
            loop_s: steps.loop_s(),
            find_ns: self.find_ns,
            step_ns: steps.into_ns(),
            tracer: self.tracer,
        }
    }
}
