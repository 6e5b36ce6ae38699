//! The three named workloads. Each is a pure function of its seed.

use acp_bench::{churn_for, sweep_mix, Scale, ScaleConfig};
use acp_core::SetupConfig;
use acp_simcore::{MessageFaultConfig, SimDuration};
use acp_workload::{ChurnConfig, RateSchedule, RepairScenarioConfig, ScenarioConfig};

use crate::episode::Episode;
use crate::{events, scale};

/// Seed of the topology, overlay, templates, deployment and fault plan
/// that `paper_steady` and `chaos_lossy` run on. They stay fixed so that
/// `--seed` varies the traffic (arrivals, probing, transport, tenants):
/// the system's own draw moves throughput by a quarter between seeds,
/// and the fault plan's moves the path-memo misses by a fifth.
pub const PAPER_SYSTEM_SEED: u64 = 42;
/// Simulated horizon of one `paper_steady` episode.
pub const PAPER_MINUTES: u64 = 100;
/// Simulated horizon of one `chaos_lossy` episode.
pub const CHAOS_MINUTES: u64 = 120;
/// Live-session target of `scale_churn`.
pub const SCALE_SESSIONS: usize = 50_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §4.1 system under constant Poisson arrivals.
    PaperSteady,
    /// `fig_scale`'s 10k-node × 50k-session point with churn.
    ScaleChurn,
    /// `paper_steady` under faults, a lossy two-phase transport, live
    /// repair and tenant admission.
    ChaosLossy,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSteady,
        Workload::ScaleChurn,
        Workload::ChaosLossy,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSteady => "paper_steady",
            Workload::ScaleChurn => "scale_churn",
            Workload::ChaosLossy => "chaos_lossy",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Everything an episode on `seed` starts from: the scenario for
    /// `paper_steady` and `chaos_lossy`, whose episodes set up their own
    /// system; the point ramped to its live-session target (the warm-up)
    /// for `scale_churn`.
    pub fn prepare(self, seed: u64) -> Prepared {
        match self {
            Workload::PaperSteady => {
                Prepared::Scenario(Box::new(paper_steady(seed, PAPER_MINUTES)))
            }
            Workload::ChaosLossy => Prepared::Scenario(Box::new(chaos_lossy(seed, CHAOS_MINUTES))),
            Workload::ScaleChurn => {
                Prepared::Scale(Box::new(scale::warm_up(&scale_churn(seed, SCALE_SESSIONS))))
            }
        }
    }

    /// Wall time of one set-up on `seed` with no timed work after it:
    /// topology, overlay, deployment and board, plus `scale_churn`'s
    /// ramp.
    pub fn setup_s(self, seed: u64) -> f64 {
        match self {
            Workload::PaperSteady => {
                events::run_episode(&paper_steady(seed, 0), PAPER_SYSTEM_SEED, false).setup_s
            }
            Workload::ChaosLossy => {
                events::run_episode(&chaos_lossy(seed, 0), PAPER_SYSTEM_SEED, false).setup_s
            }
            Workload::ScaleChurn => {
                Some(scale::warm_up(&scale_churn(seed, SCALE_SESSIONS)).setup_s())
            }
        }
        .expect("a scenario episode sets up its own system")
    }

    /// Set-ups every run times, counting the episodes' own: fewer for
    /// `scale_churn`, whose ramp takes seconds.
    pub fn min_setups(self) -> usize {
        match self {
            Workload::ScaleChurn => 3,
            _ => 7,
        }
    }
}

/// A workload ready to run episodes on one seed; every episode does the
/// same work.
pub enum Prepared {
    /// A scenario whose episodes each set up their own system.
    Scenario(Box<ScenarioConfig>),
    /// A ramped scale point whose episodes each run on a copy of it.
    Scale(Box<scale::Warm>),
}

impl Prepared {
    /// Wall time of the preparation's own set-up, if it did one.
    pub fn setup_s(&self) -> Option<f64> {
        match self {
            Prepared::Scenario(_) => None,
            Prepared::Scale(warm) => Some(warm.setup_s()),
        }
    }

    /// One timed episode.
    pub fn episode(&self, trace: bool) -> Episode {
        match self {
            Prepared::Scenario(config) => events::run_episode(config, PAPER_SYSTEM_SEED, trace),
            Prepared::Scale(warm) => scale::run_episode(warm, trace),
        }
    }
}

/// The paper's §4.1 system (3 200-node Inet graph, 400-node overlay,
/// 80 functions, 2–3 components per node) running ACP at α = 0.3 under
/// 80 requests/minute over the standard path and DAG templates.
pub fn paper_steady(seed: u64, minutes: u64) -> ScenarioConfig {
    let mut config = Scale::paper().base_config(seed);
    config.schedule = RateSchedule::constant(80.0);
    config.duration = SimDuration::from_minutes(minutes);
    config
}

/// `paper_steady` under the default fault plan (rebalancing off), with
/// two-phase set-up over a lossy transport, in-place repair with the
/// default detection latency and budget, and the `sweep_mix` tenants
/// behind admission control.
pub fn chaos_lossy(seed: u64, minutes: u64) -> ScenarioConfig {
    let mut config = paper_steady(seed, minutes);
    config.churn = Some(ChurnConfig {
        rebalance_interval: None,
        ..ChurnConfig::default()
    });
    config.setup = Some(SetupConfig {
        faults: MessageFaultConfig {
            probe_drop: 0.10,
            confirm_loss: 0.05,
            stale_ack: 0.5,
            ..MessageFaultConfig::default()
        },
        ..SetupConfig::default()
    });
    config.repair = Some(RepairScenarioConfig::default());
    config.tenants = Some(sweep_mix());
    config
}

/// `fig_scale`'s point at 10k synthetic overlay nodes holding
/// `sessions` live sessions, plus its standard churn.
pub fn scale_churn(seed: u64, sessions: usize) -> ScaleConfig {
    let churn = if sessions == 0 {
        0
    } else {
        churn_for(sessions)
    };
    ScaleConfig {
        nodes: 10_000,
        sessions,
        churn,
        quota_target: 8,
        seed,
    }
}
