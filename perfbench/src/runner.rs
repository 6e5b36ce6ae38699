//! Runs a workload for a wall-clock budget and turns its episodes into
//! the metrics and checks the benchmark reports.
//!
//! Every episode of a run replays the same seed, so every episode must
//! produce the same [`Counters`]; in a traced run, untraced and traced
//! episodes alternate and must agree too.

use std::time::Instant;

use crate::episode::{Counters, Episode};
use crate::trace::{Layer, LayerTimes};
use crate::workloads::{Prepared, Workload};

/// Bound on the share of a traced loop's wall time that no span's self
/// time covers.
pub const MAX_UNATTRIBUTED: f64 = 0.02;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Requests offered over the timed episodes.
    pub attempted: u64,
    /// Every correctness check that failed.
    pub breaches: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// End-to-end figures outside the JSON contract, and the exact counters.
    pub notes: Vec<String>,
    /// The episodes, last one last.
    pub episodes: Vec<Episode>,
    /// Whether each episode was traced.
    pub traced: Vec<bool>,
}

/// Runs `workload` on `seed` for at least `seconds` of episodes (at least
/// one; in a traced run at least one untraced and one traced, alternating).
/// `scale_churn`'s set-up, ramp included, runs first, outside those
/// seconds.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let prepared = workload.prepare(seed);
    // `scale_churn`'s episodes run on copies of the ramped point: its
    // peak is the ramp's, taken before the first copy.
    let mut peak_rss_mib = acp_bench::peak_rss_mib();
    let start = Instant::now();
    let mut episodes = Vec::new();
    let mut traced = Vec::new();
    loop {
        let on = trace && episodes.len() % 2 == 1;
        episodes.push(prepared.episode(on));
        traced.push(on);
        if episodes.len() == 1 && matches!(prepared, Prepared::Scenario(_)) {
            // The peak of one episode: later episodes reuse freed memory
            // unevenly, so the process peak would depend on how many ran.
            peak_rss_mib = acp_bench::peak_rss_mib();
        }
        let enough = !trace || episodes.len() >= 2;
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut setup_s: Vec<f64> = prepared
        .setup_s()
        .into_iter()
        .chain(episodes.iter().filter_map(|e| e.setup_s))
        .collect();
    while setup_s.len() < workload.min_setups() {
        setup_s.push(workload.setup_s(seed));
    }
    report(workload, episodes, traced, &setup_s, peak_rss_mib)
}

fn report(
    workload: Workload,
    episodes: Vec<Episode>,
    traced: Vec<bool>,
    setup_s: &[f64],
    peak_rss_mib: f64,
) -> Report {
    let first = &episodes[0].counters;
    let mut breaches: Vec<String> = first
        .breaches()
        .into_iter()
        .map(|b| format!("episode 0: {b}"))
        .collect();
    for (i, e) in episodes.iter().enumerate().skip(1) {
        if e.counters != *first {
            let what = if traced[i] { "traced" } else { "untraced" };
            breaches.push(format!(
                "{what} episode {i} counters differ from episode 0: {:?}",
                e.counters
            ));
        }
    }
    let pick = |want: bool| -> Vec<&Episode> {
        episodes
            .iter()
            .zip(&traced)
            .filter(|(_, &t)| t == want)
            .map(|(e, _)| e)
            .collect()
    };
    let untraced = pick(false);
    let mut notes = counter_notes(workload, first);
    let loops: Vec<String> = episodes
        .iter()
        .map(|e| format!("{:.4}", e.loop_s))
        .collect();
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    notes.push(format!(
        "episodes loop_s [{}] setup_s [{}]",
        loops.join(" "),
        setups.join(" ")
    ));
    let e2e = end_to_end(
        first,
        &untraced,
        setup_s,
        peak_rss_mib,
        &mut breaches,
        &mut notes,
    );
    let traced_eps = pick(true);
    let metrics = if traced_eps.is_empty() {
        e2e
    } else {
        // A traced run reports the per-layer metrics; its untraced
        // episodes still give the end-to-end figures, printed as notes.
        for m in &e2e {
            notes.push(format!(
                "metric {} = {} {} (untraced episodes)",
                m.name, m.value, m.unit
            ));
        }
        per_layer(
            workload,
            first,
            &untraced,
            &traced_eps,
            &mut breaches,
            &mut notes,
        )
    };
    for m in &metrics {
        if !m.value.is_finite() {
            breaches.push(format!("metric {} is not finite", m.name));
        }
    }
    let attempted = episodes.iter().map(|e| e.loop_offered).sum();
    Report {
        workload,
        attempted,
        breaches,
        metrics,
        notes,
        episodes,
        traced,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–1) of sorted `xs`.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The fastest time of each step over `rows`, one row per episode.
/// Every episode of a run does the same work step for step, so the
/// fastest of a step's repeats is its time when the rest of the machine
/// slowed it least. `None` when the rows differ in length.
fn fastest<'a>(mut rows: impl Iterator<Item = &'a [u64]>) -> Option<Vec<u64>> {
    let mut min = rows.next()?.to_vec();
    for row in rows {
        if row.len() != min.len() {
            return None;
        }
        for (m, &x) in min.iter_mut().zip(row) {
            *m = (*m).min(x);
        }
    }
    Some(min)
}

/// Sum of the fastest step times of `episodes`, in seconds.
fn fastest_loop_s(episodes: &[&Episode]) -> Option<f64> {
    fastest(episodes.iter().map(|e| e.step_ns.as_slice()))
        .map(|steps| steps.iter().sum::<u64>() as f64 / 1e9)
}

fn end_to_end(
    c: &Counters,
    untraced: &[&Episode],
    setup_s: &[f64],
    peak_rss_mib: f64,
    breaches: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let loop_s = fastest_loop_s(untraced);
    let finds = fastest(untraced.iter().map(|e| e.find_ns.as_slice()));
    let (Some(loop_s), Some(mut finds)) = (loop_s, finds) else {
        breaches.push("the episodes differ in their steps or their finds".to_string());
        return Vec::new();
    };
    finds.sort_unstable();
    let offered = untraced[0].loop_offered;

    let wall_loop_s = untraced.iter().map(|e| e.loop_s).sum::<f64>() / untraced.len() as f64;
    let mut every: Vec<u64> = untraced
        .iter()
        .flat_map(|e| e.find_ns.iter().copied())
        .collect();
    every.sort_unstable();
    notes.push(format!(
        "wall clock, every repeat of {} episodes: requests_per_s {:.1}, find_p50_us {:.3}, find_p99_us {:.3} over {} finds",
        untraced.len(),
        offered as f64 / wall_loop_s,
        percentile(&every, 0.50) as f64 / 1e3,
        percentile(&every, 0.99) as f64 / 1e3,
        every.len()
    ));
    notes.push(format!(
        "fastest repeat of each step: {} steps, {} finds, loop {loop_s:.4} s",
        untraced[0].step_ns.len(),
        finds.len()
    ));
    vec![
        metric("requests_per_s", offered as f64 / loop_s, "1/s"),
        metric("find_p50_us", percentile(&finds, 0.50) as f64 / 1e3, "us"),
        metric("find_p99_us", percentile(&finds, 0.99) as f64 / 1e3, "us"),
        metric("success_rate", c.success_rate(), "ratio"),
        metric("setup_s", median(setup_s), "s"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// Exact counters and the end-to-end figures the JSON contract has no
/// slot for, printed next to the timings.
fn counter_notes(workload: Workload, c: &Counters) -> Vec<String> {
    let mut notes = vec![
        format!(
            "counters offered={} shed={} failed={} established={} restored={} closed={} killed={} preempted={} live={}",
            c.offered, c.shed, c.failed, c.established, c.restored, c.closed, c.killed, c.preempted, c.live_end
        ),
        format!(
            "counters probes={} selection_examined={} selection_candidates={} memo_hits={} memo_misses={} nodes_scanned={} links_scanned={}",
            c.overhead.probe_messages,
            c.overhead.selection_examined,
            c.overhead.selection_candidates,
            c.path_cache.hits,
            c.path_cache.misses,
            c.scans.nodes_scanned,
            c.scans.links_scanned
        ),
        format!(
            "counters leases_created={} leases_expired={} leases_promoted={} leases_reused={} leases_leaked={} audits={} violations={} session_digest={:016x}",
            c.leases.created,
            c.leases.expired,
            c.leases.promoted,
            c.leases.reused,
            c.leases_leaked,
            c.audits,
            c.audit_violations,
            c.session_digest
        ),
    ];
    if workload != Workload::ScaleChurn {
        notes.push(format!(
            "metric probes_per_request = {} count",
            c.probes_per_request()
        ));
    }
    if workload == Workload::ChaosLossy {
        notes.push(format!(
            "metric session_survival = {} ratio",
            c.session_survival()
        ));
    }
    notes
}

fn per_layer(
    workload: Workload,
    c: &Counters,
    untraced: &[&Episode],
    traced: &[&Episode],
    breaches: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let times: Vec<LayerTimes> = traced.iter().map(|e| e.tracer.layer_times()).collect();
    let calls = |l: Layer| times[0].get(l).calls as f64;
    let busy_ms = |l: Layer| {
        median(
            &times
                .iter()
                .map(|t| t.get(l).busy_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let self_ms = |l: Layer| {
        median(
            &times
                .iter()
                .map(|t| t.get(l).self_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    // Both from the fastest repeat of each step, so machine noise
    // cancels as it does in the end-to-end figures.
    let untraced_loop = fastest_loop_s(untraced).unwrap_or(f64::NAN);
    let traced_loop = fastest_loop_s(traced).unwrap_or(f64::NAN);
    let overhead_pct = 100.0 * (traced_loop / untraced_loop - 1.0);
    let mut unattributed = 0.0f64;
    for (e, t) in traced.iter().zip(&times) {
        let share = (1.0 - t.loop_self_ns() as f64 / 1e9 / e.loop_s).abs();
        unattributed = unattributed.max(share);
    }
    if unattributed > MAX_UNATTRIBUTED {
        breaches.push(format!(
            "unattributed share {:.4} of the loop exceeds the bound {MAX_UNATTRIBUTED}",
            unattributed
        ));
    }
    notes.push(format!(
        "trace overhead {overhead_pct:.2}% (untraced loop {untraced_loop:.4} s, traced loop {traced_loop:.4} s)"
    ));
    notes.push(format!(
        "trace unattributed share {:.4}% of the loop (bound {}%)",
        100.0 * unattributed,
        100.0 * MAX_UNATTRIBUTED
    ));
    for l in Layer::ALL {
        let t = times[0].get(l);
        if t.calls > 0 {
            notes.push(format!(
                "layer {:<18} calls {:>8} busy_ms {:>10.3} self_ms {:>10.3}",
                l.name(),
                t.calls,
                busy_ms(l),
                self_ms(l)
            ));
        }
    }

    let o = &c.overhead;
    // `scale_churn` selects and commits without `Composer::compose`.
    let compose_failed = if workload == Workload::ScaleChurn {
        0
    } else {
        c.failed
    };
    vec![
        metric("simcore.dispatch.events", c.events as f64, "count"),
        metric("simcore.dispatch.self_ms", self_ms(Layer::Dispatch), "ms"),
        metric("workload.arrivals.calls", calls(Layer::Arrivals), "count"),
        metric("workload.arrivals.busy_ms", busy_ms(Layer::Arrivals), "ms"),
        metric("core.admission.calls", calls(Layer::Admission), "count"),
        metric("core.admission.busy_ms", busy_ms(Layer::Admission), "ms"),
        metric("core.admission.shed", c.shed as f64, "count"),
        metric("core.compose.calls", calls(Layer::Compose), "count"),
        metric("core.compose.busy_ms", busy_ms(Layer::Compose), "ms"),
        metric("core.compose.attempts", c.compose_attempts as f64, "count"),
        metric("core.compose.failed", compose_failed as f64, "count"),
        metric(
            "core.compose.success_per_attempt",
            ratio(c.established, c.compose_attempts),
            "ratio",
        ),
        metric("core.selection.calls", calls(Layer::Selection), "count"),
        metric("core.selection.busy_ms", busy_ms(Layer::Selection), "ms"),
        metric(
            "core.selection.examined",
            o.selection_examined as f64,
            "count",
        ),
        metric(
            "core.selection.candidates",
            o.selection_candidates as f64,
            "count",
        ),
        metric(
            "core.selection.examined_per_query",
            ratio(o.selection_examined, o.global_state_queries),
            "ratio",
        ),
        metric("core.probe.messages", o.probe_messages as f64, "count"),
        metric("core.probe.per_request", c.probes_per_request(), "count"),
        metric("core.repair.calls", calls(Layer::Repair), "count"),
        metric("core.repair.busy_ms", busy_ms(Layer::Repair), "ms"),
        metric("core.repair.repaired", c.repaired as f64, "count"),
        metric("core.repair.restarts", c.restarts as f64, "count"),
        metric(
            "core.repair.repaired_per_attempt",
            ratio(c.repaired, times[0].get(Layer::Repair).calls),
            "ratio",
        ),
        metric(
            "core.repair.session_survival",
            c.session_survival(),
            "ratio",
        ),
        metric("core.preempt.calls", calls(Layer::Preempt), "count"),
        metric("core.preempt.busy_ms", busy_ms(Layer::Preempt), "ms"),
        metric("topology.path_memo.hits", c.path_cache.hits as f64, "count"),
        metric(
            "topology.path_memo.misses",
            c.path_cache.misses as f64,
            "count",
        ),
        metric(
            "topology.path_memo.hit_rate",
            c.path_cache.hit_rate(),
            "ratio",
        ),
        metric(
            "topology.build.busy_ms",
            busy_ms(Layer::TopologyBuild),
            "ms",
        ),
        metric("model.deploy.busy_ms", busy_ms(Layer::Deploy), "ms"),
        metric("state.build.busy_ms", busy_ms(Layer::BoardBuild), "ms"),
        metric("model.commit.calls", calls(Layer::Commit), "count"),
        metric("model.commit.busy_ms", busy_ms(Layer::Commit), "ms"),
        metric("model.commit.failed", c.commit_failed as f64, "count"),
        metric("model.close.calls", calls(Layer::Close), "count"),
        metric("model.close.busy_ms", busy_ms(Layer::Close), "ms"),
        metric("model.faults.calls", calls(Layer::Faults), "count"),
        metric("model.faults.busy_ms", busy_ms(Layer::Faults), "ms"),
        metric(
            "model.faults.sessions_struck",
            c.sessions_struck as f64,
            "count",
        ),
        metric("model.leases.calls", calls(Layer::Leases), "count"),
        metric("model.leases.busy_ms", busy_ms(Layer::Leases), "ms"),
        metric("model.leases.created", c.leases.created as f64, "count"),
        metric("model.leases.expired", c.leases.expired as f64, "count"),
        metric("model.leases.promoted", c.leases.promoted as f64, "count"),
        metric("model.leases.reused", c.leases.reused as f64, "count"),
        metric("model.leases.leaked", c.leases_leaked as f64, "count"),
        metric("model.audit.calls", calls(Layer::Audit), "count"),
        metric("model.audit.busy_ms", busy_ms(Layer::Audit), "ms"),
        metric("model.audit.violations", c.audit_violations as f64, "count"),
        metric("state.refresh.calls", calls(Layer::Refresh), "count"),
        metric("state.refresh.busy_ms", busy_ms(Layer::Refresh), "ms"),
        metric(
            "state.refresh.nodes_scanned",
            c.scans.nodes_scanned as f64,
            "count",
        ),
        metric("state.refresh.skip_rate", c.scans.node_skip_rate(), "ratio"),
        metric(
            "state.refresh.messages",
            o.state_update_messages as f64,
            "count",
        ),
        metric("state.aggregate.calls", calls(Layer::Aggregate), "count"),
        metric("state.aggregate.busy_ms", busy_ms(Layer::Aggregate), "ms"),
        metric(
            "state.aggregate.links_scanned",
            c.scans.links_scanned as f64,
            "count",
        ),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("trace.unattributed_pct", 100.0 * unattributed, "%"),
    ]
}

/// The final result line: one JSON object.
pub fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.breaches.is_empty(),
        report.attempted,
        report.breaches.len(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_takes_each_steps_minimum() {
        let a = [5, 1, 7];
        let b = [3, 4, 7];
        let rows = [&a[..], &b[..]];
        assert_eq!(fastest(rows.into_iter()), Some(vec![3, 1, 7]));
        let short = [1, 1];
        let rows = [&a[..], &short[..]];
        assert_eq!(fastest(rows.into_iter()), None, "step counts differ");
        assert_eq!(fastest(std::iter::empty()), None);
    }
}
