//! Property-based tests for the system model.

use acp_model::prelude::*;
use acp_simcore::SimDuration;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loss-rate probability ↔ log-survival round trip.
    #[test]
    fn loss_rate_round_trip(p in 0.0f64..0.999) {
        let l = LossRate::from_probability(p);
        prop_assert!((l.probability() - p).abs() < 1e-9);
    }

    /// Loss composition is commutative and matches probability algebra.
    #[test]
    fn loss_composition(p1 in 0.0f64..0.9, p2 in 0.0f64..0.9) {
        let a = LossRate::from_probability(p1);
        let b = LossRate::from_probability(p2);
        let ab = a + b;
        let ba = b + a;
        prop_assert!((ab.probability() - ba.probability()).abs() < 1e-12);
        let expected = 1.0 - (1.0 - p1) * (1.0 - p2);
        prop_assert!((ab.probability() - expected).abs() < 1e-9);
    }

    /// QoS aggregation is monotone: adding a stage never improves QoS.
    #[test]
    fn qos_aggregation_monotone(
        d1 in 0u64..10_000_000, p1 in 0.0f64..0.5,
        d2 in 0u64..10_000_000, p2 in 0.0f64..0.5,
    ) {
        let a = Qos::new(SimDuration::from_micros(d1), LossRate::from_probability(p1));
        let b = Qos::new(SimDuration::from_micros(d2), LossRate::from_probability(p2));
        let sum = a + b;
        prop_assert!(sum.delay >= a.delay && sum.delay >= b.delay);
        prop_assert!(sum.loss >= a.loss && sum.loss >= b.loss);
    }

    /// satisfies() ⇔ risk_ratio ≤ 1 for positive requirements.
    #[test]
    fn satisfies_iff_risk_le_one(
        d in 1u64..10_000_000, p in 0.0001f64..0.5,
        rd in 1u64..10_000_000, rp in 0.0001f64..0.5,
    ) {
        let q = Qos::new(SimDuration::from_micros(d), LossRate::from_probability(p));
        let req = QosRequirement::new(SimDuration::from_micros(rd), LossRate::from_probability(rp));
        let risk = q.risk_ratio(&req);
        prop_assert_eq!(q.satisfies(&req), risk <= 1.0 + 1e-12);
    }

    /// Resource checked_sub succeeds iff dominance holds, and
    /// (a - b) + b == a when it does.
    #[test]
    fn resource_sub_roundtrip(
        ac in 0.0f64..1e6, am in 0.0f64..1e6,
        bc in 0.0f64..1e6, bm in 0.0f64..1e6,
    ) {
        let a = ResourceVector::new(ac, am);
        let b = ResourceVector::new(bc, bm);
        match a.checked_sub(&b) {
            Some(diff) => {
                prop_assert!(a.dominates(&b));
                let back = diff + b;
                prop_assert!((back.cpu - a.cpu).abs() < 1e-9);
                prop_assert!((back.memory_mb - a.memory_mb).abs() < 1e-9);
            }
            None => prop_assert!(!a.dominates(&b)),
        }
    }

    /// Congestion function decreases when availability grows.
    #[test]
    fn congestion_monotone_in_availability(
        cpu in 1.0f64..100.0, mem in 1.0f64..100.0,
        extra in 0.1f64..100.0,
        bw_avail in 1.0f64..10_000.0, bw in 0.0f64..1_000.0,
    ) {
        let demand = ResourceVector::new(cpu / 2.0, mem / 2.0);
        let small = ResourceVector::new(cpu, mem);
        let large = ResourceVector::new(cpu + extra, mem + extra);
        let v_small = congestion_function(&small, &demand, bw_avail, bw);
        let v_large = congestion_function(&large, &demand, bw_avail, bw);
        prop_assert!(v_large <= v_small + 1e-12);
        // more link availability also helps
        let v_more_bw = congestion_function(&small, &demand, bw_avail * 2.0, bw);
        prop_assert!(v_more_bw <= v_small + 1e-12);
    }

    /// Risk function is monotone in the accumulated QoS.
    #[test]
    fn risk_monotone_in_accumulation(
        base in 0u64..1_000_000, inc in 1u64..1_000_000,
    ) {
        let req = QosRequirement::new(SimDuration::from_micros(2_000_000), LossRate::from_probability(0.1));
        let cand = Qos::from_delay(SimDuration::from_micros(10));
        let link = Qos::from_delay(SimDuration::from_micros(10));
        let d1 = risk_function(Qos::from_delay(SimDuration::from_micros(base)), cand, link, &req);
        let d2 = risk_function(Qos::from_delay(SimDuration::from_micros(base + inc)), cand, link, &req);
        prop_assert!(d2 >= d1);
    }

    /// Tightening a requirement never turns an unsatisfied QoS satisfied.
    #[test]
    fn tightening_preserves_failures(
        d in 0u64..1_000_000, p in 0.0f64..0.5, factor in 0.01f64..1.0,
    ) {
        let q = Qos::new(SimDuration::from_micros(d), LossRate::from_probability(p));
        let req = QosRequirement::new(SimDuration::from_micros(500_000), LossRate::from_probability(0.25));
        let tight = req.tightened(factor);
        if !q.satisfies(&req) {
            prop_assert!(!q.satisfies(&tight));
        }
    }
}

mod lease_reconciliation {
    use super::*;
    use acp_model::audit::SystemAuditor;
    use acp_simcore::SimTime;
    use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayLinkId, OverlayNodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(seed: u64) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 120, ..InetConfig::default() }.generate(&mut rng);
        let overlay =
            Overlay::build(&ip, &OverlayConfig { stream_nodes: 15, neighbors: 4 }, &mut rng);
        StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig::default(),
            &mut rng,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any interleaving of reserve / confirm / release / expire /
        /// fault / crash / clone events keeps the lease ledger reconciled
        /// and the lease-holder index covering every live lease at every
        /// step, and leaves zero orphans after the final reclamation
        /// sweep. A request-wide release leaves nothing of the request
        /// behind; a sweep leaves no index entry without a live lease.
        #[test]
        fn lease_interleavings_reconcile_to_zero_orphans(
            seed in 0u64..6,
            ops in prop::collection::vec((0u8..10, 0usize..64, 1u64..9), 1..48),
        ) {
            let mut sys = build(seed);
            let auditor = SystemAuditor::default();
            let mut now = SimTime::ZERO;
            let lease = SimDuration::from_secs(30);
            let fns: Vec<FunctionId> =
                sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).collect();
            for (kind, pick, req) in ops {
                let r = RequestId(req);
                match kind {
                    // Reserve end-system resources on a candidate.
                    0 => {
                        let f = fns[pick % fns.len()];
                        let cands = sys.candidates(f);
                        if !cands.is_empty() {
                            let c = cands[pick % cands.len()];
                            let _ = sys.reserve_component_transient(
                                r, c, ResourceVector::new(0.2, 0.8), now + lease,
                            );
                        }
                    }
                    // Reserve bandwidth along a virtual path.
                    1 => {
                        let n = sys.node_count() as u32;
                        let a = OverlayNodeId(pick as u32 % n);
                        let b = OverlayNodeId((pick as u32 / 7 + 1) % n);
                        if a != b {
                            if let Some(path) = sys.virtual_path(a, b) {
                                let _ = sys.reserve_path_transient(r, pick % 4, &path, 1.0, now + lease);
                            }
                        }
                    }
                    // Explicit release (failed composition / lost probe).
                    2 => {
                        let live = sys.live_lease_count();
                        let released = sys.release_request_transients(r);
                        prop_assert!(!sys.leased_requests().contains(&r.0), "r{} kept a lease", r.0);
                        prop_assert_eq!(released, live - sys.live_lease_count());
                        prop_assert!(
                            sys.lease_stats().reconciles(sys.live_lease_count() as u64),
                            "ledger broken by release: {:?}", sys.lease_stats()
                        );
                    }
                    // Time passes; the reclamation sweep runs.
                    3 => {
                        now += SimDuration::from_secs((pick % 40) as u64);
                        sys.expire_transients(now);
                        prop_assert_eq!(
                            sys.lease_indexed_requests(),
                            sys.leased_requests(),
                            "the sweep left index entries without a live lease"
                        );
                    }
                    // Confirm: commit a session under this request,
                    // promoting whatever leases it holds.
                    4 => {
                        if fns.len() >= 2 && !sys.has_session_for(r) {
                            let f0 = fns[pick % fns.len()];
                            let f1 = fns[(pick + 1) % fns.len()];
                            let (c0s, c1s) = (sys.candidates(f0).to_vec(), sys.candidates(f1).to_vec());
                            if !c0s.is_empty() && !c1s.is_empty() {
                                let c0 = c0s[pick % c0s.len()];
                                let c1 = c1s[pick % c1s.len()];
                                if c0 != c1 {
                                    if let Some(path) = sys.virtual_path(c0.node, c1.node) {
                                        let request = Request {
                                            id: r,
                                            graph: FunctionGraph::path(vec![f0, f1]),
                                            qos: QosRequirement::unconstrained(),
                                            base_resources: ResourceVector::new(0.2, 1.0),
                                            bandwidth_kbps: 2.0,
                                            stream_rate_kbps: 50.0,
                                            constraints: PlacementConstraints::none(),
                                            tenant: None,
                                        };
                                        let comp = Composition { assignment: vec![c0, c1], links: vec![path] };
                                        let _ = sys.commit_session(&request, comp);
                                        prop_assert_eq!(sys.request_lease_count(r), 0);
                                    }
                                }
                            }
                        }
                    }
                    // Fault: fail-stop and immediate recovery.
                    5 => {
                        if pick % 2 == 0 {
                            let v = OverlayNodeId(pick as u32 % sys.node_count() as u32);
                            if !sys.is_node_failed(v) {
                                sys.fail_node(v);
                                sys.recover_node(v);
                            }
                        } else {
                            let l = OverlayLinkId(pick as u32 % sys.overlay().link_count() as u32);
                            sys.fail_link(l);
                            sys.restore_link(l);
                        }
                    }
                    // A component crashes, taking the leases held for it.
                    6 => {
                        let f = fns[pick % fns.len()];
                        let cands = sys.candidates(f);
                        if cands.len() > 1 {
                            let c = cands[pick % cands.len()];
                            sys.crash_component(c);
                        }
                    }
                    // One lease released on its own: the first of r's
                    // leases on the picked node that holds any.
                    7 => {
                        let holders: Vec<OverlayNodeId> = (0..sys.node_count() as u32)
                            .map(OverlayNodeId)
                            .filter(|&v| sys.node(v).transient_requests().any(|q| q == r.0))
                            .collect();
                        if !holders.is_empty() {
                            let v = holders[pick % holders.len()];
                            let ids: Vec<ComponentId> = sys.node(v).components().map(|c| c.id).collect();
                            let before = sys.request_lease_count(r);
                            for c in ids {
                                sys.release_component_transient(r, c);
                                if sys.request_lease_count(r) < before {
                                    break;
                                }
                            }
                            prop_assert_eq!(sys.request_lease_count(r), before - 1);
                        }
                    }
                    // One edge's bandwidth released; other edges keep theirs.
                    8 => {
                        sys.release_path_transient(r, pick % 4);
                    }
                    // The system is cloned and the run goes on with the copy.
                    9 => {
                        sys = sys.clone();
                    }
                    _ => unreachable!(),
                }
                let unindexed: Vec<AuditViolation> = auditor
                    .audit(&sys)
                    .violations()
                    .iter()
                    .filter(|v| matches!(v, AuditViolation::LeaseHolderUnindexed { .. }))
                    .cloned()
                    .collect();
                prop_assert!(unindexed.is_empty(), "{:?}", unindexed);
                let stats = sys.lease_stats();
                prop_assert!(
                    stats.reconciles(sys.live_lease_count() as u64),
                    "mid-run ledger broken: {:?}", stats
                );
            }
            // Final reclamation sweep one lease horizon later: every
            // outstanding lease is past its expiry, so nothing survives.
            now += lease;
            sys.expire_transients(now);
            prop_assert_eq!(sys.live_lease_count(), 0, "orphans survived the sweep");
            prop_assert!(sys.lease_stats().reconciles(0), "{:?}", sys.lease_stats());
            let report = auditor.audit_at(&sys, Some(now));
            prop_assert!(report.is_clean(), "{}", report);
        }
    }
}

mod allocation_conservation {
    use super::*;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Committing then closing arbitrary batches of sessions restores
    /// every node and link to its initial availability.
    #[test]
    fn sessions_conserve_resources() {
        let mut rng = StdRng::seed_from_u64(42);
        let ip = InetConfig { nodes: 150, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 25, neighbors: 4 }, &mut rng);
        let mut sys = StreamSystem::generate(overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng);

        let initial: Vec<ResourceVector> =
            (0..sys.node_count()).map(|i| sys.node_available(acp_topology::OverlayNodeId(i as u32))).collect();
        let initial_links: Vec<f64> = sys.overlay().links().map(|l| sys.link_available(l)).collect();

        // Build several single-edge requests between existing components.
        let mut sessions = Vec::new();
        let fns: Vec<FunctionId> = sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).collect();
        for i in 0..10 {
            let f0 = fns[i % fns.len()];
            let f1 = fns[(i + 1) % fns.len()];
            let graph = FunctionGraph::path(vec![f0, f1]);
            let req = Request {
                id: RequestId(i as u64),
                graph,
                qos: QosRequirement::unconstrained(),
                base_resources: ResourceVector::new(0.5, 2.0),
                bandwidth_kbps: 5.0,
                stream_rate_kbps: 50.0,
                constraints: PlacementConstraints::none(),
                tenant: None,
            };
            let c0 = sys.candidates(f0)[i % sys.candidates(f0).len()];
            let c1 = sys.candidates(f1)[i % sys.candidates(f1).len()];
            let path = sys.virtual_path(c0.node, c1.node).unwrap();
            let comp = Composition { assignment: vec![c0, c1], links: vec![path] };
            if let Ok(sid) = sys.commit_session(&req, comp) {
                sessions.push(sid);
            }
        }
        assert!(!sessions.is_empty(), "at least some sessions should commit");
        for sid in sessions {
            assert!(sys.close_session(sid));
        }
        for (i, &before) in initial.iter().enumerate() {
            let after = sys.node_available(acp_topology::OverlayNodeId(i as u32));
            assert!((after.cpu - before.cpu).abs() < 1e-9, "node {i} cpu leaked");
            assert!((after.memory_mb - before.memory_mb).abs() < 1e-9, "node {i} mem leaked");
        }
        for (i, l) in sys.overlay().links().enumerate() {
            assert!((sys.link_available(l) - initial_links[i]).abs() < 1e-9, "link {i} bw leaked");
        }
    }
}

mod tenant_isolation {
    use super::*;
    use acp_model::audit::SystemAuditor;
    use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayNodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TIERS: [TenantTier; 3] = [TenantTier::Gold, TenantTier::Silver, TenantTier::BestEffort];

    fn build(seed: u64) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 120, ..InetConfig::default() }.generate(&mut rng);
        let overlay =
            Overlay::build(&ip, &OverlayConfig { stream_nodes: 15, neighbors: 4 }, &mut rng);
        let mut sys = StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig::default(),
            &mut rng,
        );
        sys.set_tenant_accounting(true);
        for (i, &tier) in TIERS.iter().enumerate() {
            sys.register_tenant(TenantId(i as u32), tier);
        }
        sys
    }

    fn binding(i: usize) -> TenantBinding {
        TenantBinding { tenant: TenantId((i % 3) as u32), tier: TIERS[i % 3] }
    }

    /// Commits a two-component session for tenant `binding(pick)`;
    /// returns its id when the system accepts it.
    fn commit(sys: &mut StreamSystem, pick: usize, req: u64) -> Option<SessionId> {
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).collect();
        if fns.len() < 2 || sys.has_session_for(RequestId(req)) {
            return None;
        }
        let f0 = fns[pick % fns.len()];
        let f1 = fns[(pick + 1) % fns.len()];
        let (c0s, c1s) = (sys.candidates(f0).to_vec(), sys.candidates(f1).to_vec());
        if c0s.is_empty() || c1s.is_empty() {
            return None;
        }
        let c0 = c0s[pick % c0s.len()];
        let c1 = c1s[pick % c1s.len()];
        if c0 == c1 {
            return None;
        }
        let path = sys.virtual_path(c0.node, c1.node)?;
        let request = Request {
            id: RequestId(req),
            graph: FunctionGraph::path(vec![f0, f1]),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.2, 1.0),
            bandwidth_kbps: 2.0,
            stream_rate_kbps: 50.0,
            constraints: PlacementConstraints::none(),
            tenant: Some(binding(pick)),
        };
        let comp = Composition { assignment: vec![c0, c1], links: vec![path] };
        sys.commit_session(&request, comp).ok()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Under arbitrary commit / close / crash / migrate / preempt
        /// churn, every per-tenant ledger entry reconciles at every
        /// step, derived per-tenant sums agree with the session table
        /// (the auditor's tenant pass stays clean alongside the global
        /// conservation passes), and preemption victims are exclusively
        /// best-effort.
        #[test]
        fn tenant_ledgers_reconcile_under_churn(
            seed in 0u64..6,
            ops in prop::collection::vec((0u8..6, 0usize..64, 1u64..64), 1..48),
        ) {
            let mut sys = build(seed);
            let auditor = SystemAuditor::default();
            let mut live: Vec<SessionId> = Vec::new();
            for (kind, pick, req) in ops {
                match kind {
                    // Admit: commit a session for a cycling tenant.
                    0 | 1 => {
                        if let Some(sid) = commit(&mut sys, pick, req) {
                            live.push(sid);
                        }
                    }
                    // Graceful close.
                    2 => {
                        if !live.is_empty() {
                            let sid = live.swap_remove(pick % live.len());
                            sys.close_session(sid);
                        }
                    }
                    // Fail-stop node fault (kills its sessions) and
                    // immediate recovery.
                    3 => {
                        let v = OverlayNodeId(pick as u32 % sys.node_count() as u32);
                        if !sys.is_node_failed(v) {
                            sys.fail_node(v);
                            sys.recover_node(v);
                        }
                    }
                    // Component crash (kills its sessions).
                    4 => {
                        let v = OverlayNodeId(pick as u32 % sys.node_count() as u32);
                        let cands: Vec<ComponentId> =
                            sys.node(v).components().map(|c| c.id).collect();
                        if !cands.is_empty() {
                            sys.crash_component(cands[pick % cands.len()]);
                        }
                    }
                    // Preempt: reclaim a best-effort session the way
                    // the pressure controller does.
                    5 => {
                        let v = OverlayNodeId(pick as u32 % sys.node_count() as u32);
                        if let Some(&sid) = sys.best_effort_sessions_on(v).first() {
                            prop_assert!(sys.preempt_session(sid).is_some());
                        }
                    }
                    _ => unreachable!(),
                }
                live.retain(|&sid| sys.sessions().any(|s| s.id == sid));
                for (id, stats) in sys.tenant_ledger().iter() {
                    prop_assert!(
                        stats.reconciles(),
                        "tenant {id} ledger broken mid-run: {stats:?}"
                    );
                    if stats.tier != TenantTier::BestEffort {
                        prop_assert_eq!(
                            stats.preempted, 0,
                            "preemption must only touch best-effort, hit {:?}", stats.tier
                        );
                    }
                }
                let report = auditor.audit_at(&sys, None);
                prop_assert!(report.is_clean(), "{}", report);
            }
            // Drain everything; the ledgers must return to zero live.
            for sid in live {
                sys.close_session(sid);
            }
            for (id, stats) in sys.tenant_ledger().iter() {
                prop_assert_eq!(stats.live, 0, "tenant {} still live: {:?}", id, stats);
                prop_assert!(stats.reconciles(), "final ledger broken: {stats:?}");
                prop_assert!(
                    stats.committed.iter().all(|(_, v)| v.abs() < 1e-6),
                    "tenant {} resources leaked: {:?}", id, stats
                );
            }
            let report = auditor.audit_at(&sys, None);
            prop_assert!(report.is_clean(), "{}", report);
        }

        /// `migrate_component` relocates deployments, never sessions:
        /// tenant ledgers are untouched by migration rounds.
        #[test]
        fn migration_preserves_tenant_ledgers(
            seed in 0u64..4,
            moves in prop::collection::vec((0usize..64, 0u32..15), 1..12),
        ) {
            let mut sys = build(seed);
            for i in 0..8u64 {
                commit(&mut sys, i as usize * 7 + 1, i + 1);
            }
            let before: Vec<_> =
                sys.tenant_ledger().iter().map(|(id, s)| (id, *s)).collect();
            for (pick, node) in moves {
                let v = OverlayNodeId(node % sys.node_count() as u32);
                let cands: Vec<ComponentId> =
                    sys.node(v).components().map(|c| c.id).collect();
                if let Some(&c) = cands.get(pick % cands.len().max(1)) {
                    let to = OverlayNodeId((node + 1) % sys.node_count() as u32);
                    let _ = sys.migrate_component(c, to);
                }
            }
            let after: Vec<_> = sys.tenant_ledger().iter().map(|(id, s)| (id, *s)).collect();
            prop_assert_eq!(before, after, "migration must not move tenant accounting");
        }
    }
}
