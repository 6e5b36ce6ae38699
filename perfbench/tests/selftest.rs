//! The benchmark's own checks. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! Every check runs on the default seed and on a hold-out seed, so no
//! check is tuned to one seed.

use acp_perfbench::episode::Counters;
use acp_perfbench::runner;
use acp_perfbench::workloads::{self, Workload, CHAOS_MINUTES, PAPER_MINUTES};
use acp_perfbench::{events, scale};
use acp_workload::run_scenario;

const SEEDS: [u64; 2] = [42, 7];

/// The driver reproduces `run_scenario` on `config` when the system and
/// the traffic share the seed.
fn assert_matches_run_scenario(config: acp_workload::ScenarioConfig) {
    let c: Counters = events::run_episode(&config, config.seed, false).counters;
    let r = run_scenario(config);
    assert_eq!(c.offered, r.total_requests, "requests");
    assert_eq!(c.established, r.total_successes, "successes");
    assert_eq!(c.overhead, r.overhead, "overhead stats");
    assert_eq!(c.path_cache, r.path_cache, "path-memo counters");
    assert_eq!(c.scans, r.state_scans, "board scans");
    assert_eq!(c.session_digest, r.session_digest, "session digest");
    assert_eq!(c.audit_digest, r.audit_digest, "audit digest");
    assert_eq!(c.audit_violations, r.audit_violations, "audit violations");
    assert_eq!(c.leases, r.lease_stats, "lease ledger");
    assert_eq!(c.leases_leaked, r.leases_leaked, "leaked leases");
    assert_eq!(c.live_end, r.final_sessions as u64, "live sessions");
    assert_eq!(c.killed, r.sessions_killed, "killed sessions");
    assert_eq!(c.restored, r.sessions_recovered, "restored sessions");
    assert_eq!(c.restore_lost, r.sessions_lost, "lost sessions");
    assert_eq!(c.repair_opened, r.repair_opened, "repair tickets");
    assert_eq!(c.repaired, r.sessions_repaired, "repaired sessions");
    assert_eq!(c.preempted, r.tenant_preemptions, "preemptions");
    let shed: u64 = r.tenant_tiers.iter().map(|t| t.shed).sum();
    assert_eq!(c.shed, shed, "shed requests");
}

#[test]
fn paper_steady_driver_matches_run_scenario() {
    for seed in SEEDS {
        assert_matches_run_scenario(workloads::paper_steady(seed, PAPER_MINUTES));
    }
}

#[test]
fn chaos_lossy_driver_matches_run_scenario() {
    for seed in SEEDS {
        assert_matches_run_scenario(workloads::chaos_lossy(seed, CHAOS_MINUTES));
    }
}

#[test]
fn scale_driver_matches_run_scale_point() {
    for seed in SEEDS {
        let cfg = acp_bench::ScaleConfig {
            nodes: 500,
            sessions: 2_000,
            churn: 500,
            quota_target: 8,
            seed,
        };
        let c = scale::run_episode(&scale::warm_up(&cfg), false).counters;
        let p = acp_bench::run_scale_point(&cfg);
        assert_eq!(c.established, p.committed, "commits");
        assert_eq!(c.closed, p.closed, "closes");
        assert_eq!(c.failed, p.rejected, "rejections");
        assert_eq!(c.live_end, p.live_at_end as u64, "live sessions");
        let mut expected = p.overhead;
        expected.state_update_messages += p.update_messages;
        assert_eq!(c.overhead, expected, "selection and board counters");
    }
}

/// One untraced and one traced episode of `workload` on `seed` pass
/// every correctness check: audits, lease leaks, conservation
/// identities, repeatability, tracing inertness and span coverage.
fn assert_run_clean(workload: Workload, seed: u64) {
    let report = runner::run(workload, seed, 0.0, true);
    assert!(
        report.breaches.is_empty(),
        "{} seed {seed}: {:?}",
        workload.name(),
        report.breaches
    );
    assert!(report.traced.iter().any(|&t| t) && report.traced.iter().any(|&t| !t));
    assert!(report.attempted > 1_000, "well over 1000 requests per run");
}

#[test]
fn paper_steady_runs_clean_on_both_seeds() {
    for seed in SEEDS {
        assert_run_clean(Workload::PaperSteady, seed);
    }
}

#[test]
fn chaos_lossy_runs_clean_on_both_seeds() {
    for seed in SEEDS {
        assert_run_clean(Workload::ChaosLossy, seed);
        let c = Workload::ChaosLossy.prepare(seed).episode(false).counters;
        assert!(
            c.sessions_struck > 0 && c.repaired > 0 && c.shed > 0,
            "faults, repair and shedding all happen"
        );
        assert!(
            c.leases.created > 0 && c.leases_leaked == 0,
            "leases are used and none leak"
        );
    }
}

#[test]
fn scale_churn_runs_clean_on_both_seeds() {
    for seed in SEEDS {
        assert_run_clean(Workload::ScaleChurn, seed);
    }
}

#[test]
fn scale_churn_times_selection_and_commit_apart() {
    let report = runner::run(Workload::ScaleChurn, 42, 0.0, true);
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    // One selection and one commit per churn request: every request of
    // the point succeeds.
    let churn = report.episodes[1].loop_offered as f64;
    assert!(churn > 1_000.0, "well over 1000 timed requests");
    assert_eq!(value("core.selection.calls"), Some(churn));
    assert_eq!(value("model.commit.calls"), Some(churn));
    assert!(value("core.selection.busy_ms").is_some_and(|ms| ms > 0.0));
    assert!(value("model.commit.busy_ms").is_some_and(|ms| ms > 0.0));
}

#[test]
fn a_broken_identity_is_reported() {
    let mut c = Counters {
        offered: 10,
        established: 9,
        live_end: 9,
        ..Counters::default()
    };
    assert!(
        !c.breaches().is_empty(),
        "offered != shed + failed + established"
    );
    c.failed = 1;
    assert!(c.breaches().is_empty());
    c.closed = 1;
    assert!(
        !c.breaches().is_empty(),
        "established != closed + killed + preempted + live"
    );
}

/// The `(name, unit)` pairs listed under `key` in `BENCHMARK.json`
/// (the unit is empty for workloads).
fn listed(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("array closes")];
    let field = |entry: &str, name: &str| {
        entry
            .split(&format!("\"{name}\""))
            .nth(1)
            .map_or(String::new(), |s| {
                s.split('"').nth(1).expect("quoted").to_string()
            })
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn reported(report: &runner::Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let untraced = runner::run(Workload::ChaosLossy, 42, 0.0, false);
    assert_eq!(reported(&untraced), listed("end_to_end"));
    let traced = runner::run(Workload::ChaosLossy, 42, 0.0, true);
    assert_eq!(reported(&traced), listed("per_layer"));
    // `paper_steady` runs from the command line but is left out of
    // `BENCHMARK.json`: every workload there adds 22 timed runs to one
    // check of the benchmark, and `chaos_lossy` covers its layers.
    let workloads: Vec<(String, String)> = Workload::ALL
        .iter()
        .filter(|&&w| w != Workload::PaperSteady)
        .map(|w| (w.name().to_string(), String::new()))
        .collect();
    assert_eq!(workloads, listed("workloads"));
}
