//! Supervised grid execution: wall-clock deadlines, deterministic
//! retry/backoff and per-app circuit breaking layered over the
//! (workload × design) grids of [`crate::sweeps`] (DESIGN.md §10).
//!
//! The layer splits cleanly along the decision/edge boundary of the
//! [`supervise`] crate: *which* cells to retry, in *what* order, with *how
//! much* backoff, and *when* to stop trying an app are all pure functions
//! of cell indices, attempt counters and the configured seed — no
//! wall-clock reads — so a supervised grid's recovery schedule is
//! bit-identical across thread counts. Wall time enters only at the
//! edges: the [`exec`] watchdog that cancels a lane past its deadline,
//! and the in-lane parks that realize backoff delays and injected chaos.
//!
//! Chaos ([`faults::ChaosPlan`]) is decided by the plan and *executed*
//! here: a planned hang parks the lane on its [`exec::CancelToken`] until
//! the watchdog reclaims it, a slow lane parks for the plan's delay, and
//! a livelock burns the lane without progress — exercising exactly the
//! recovery machinery a real stuck simulation would.

use crate::runner::{run_preemptible, Preemption, RunConfig};
use crate::sweeps::SuiteCell;
use exec::{global_pool, CancelToken};
use faults::{ChaosEvent, ChaosPlan};
use gpu_sim::kernel::App;
use pcstall::policy::PolicyKind;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;
use supervise::{edge, Backoff, CircuitBreaker, SupervisionReport};

/// Supervision parameters for one grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseConfig {
    /// Wall-clock deadline per cell attempt; `None` disables the watchdog
    /// (cells then only fail through panics or injected chaos).
    pub deadline: Option<Duration>,
    /// Harness-level retry rounds after the first pass (the pool's own
    /// in-pass resubmission of panicked/timed-out lanes is not counted).
    pub max_retries: u32,
    /// Consecutive per-app failures that trip the circuit breaker.
    pub breaker_k: u32,
    /// Deterministic backoff schedule for retry rounds.
    pub backoff: Backoff,
    /// Seed for backoff jitter (counter-based; no wall-clock in the
    /// decision path).
    pub seed: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            deadline: None,
            max_retries: 2,
            breaker_k: 3,
            backoff: Backoff::default(),
            seed: 0,
        }
    }
}

/// The outcome of a supervised grid: per-cell results (grid order, apps
/// outer / policies inner; `None` = unrecovered), attempt counts, the
/// aggregate [`SupervisionReport`], and any preemption snapshots captured
/// from deadline-cancelled runs.
///
/// The report rides *alongside* the cells rather than inside them:
/// surviving cells stay bit-identical to an unsupervised, fault-free
/// [`crate::sweeps::run_grid`], which is what the chaos tests pin.
#[derive(Debug)]
pub struct SupervisedGrid {
    /// One slot per `(app, policy)` cell; `None` when every attempt was
    /// lost and the cell is reported unrecovered.
    pub cells: Vec<Option<SuiteCell>>,
    /// Attempts consumed per cell (1 = clean first pass).
    pub attempts: Vec<u32>,
    /// Aggregate supervision counters.
    pub report: SupervisionReport,
    /// Latest preemption snapshot per cell, for cells whose attempt was
    /// cancelled at an epoch boundary (deadline hit mid-simulation).
    pub preemptions: Vec<Option<Preemption>>,
}

impl SupervisedGrid {
    /// The recovered cells in grid order, dropping unrecovered slots.
    pub fn completed(&self) -> Vec<SuiteCell> {
        self.cells.iter().flatten().cloned().collect()
    }
}

/// How long an injected hang may occupy a lane before giving up on its
/// own: well past the watchdog deadline (so the watchdog, not the cap, is
/// what normally reclaims the lane), but bounded so a deadline-free
/// configuration still terminates.
fn hang_cap(deadline: Option<Duration>) -> Duration {
    match deadline {
        Some(d) => (d * 4).max(Duration::from_millis(100)),
        None => Duration::from_secs(5),
    }
}

/// Acts out a planned chaos event on this lane. Returns `true` when the
/// attempt is lost (hang/livelock always; slow only if cancelled
/// mid-delay) — the caller then reports the item as timed out.
fn execute_chaos(ev: ChaosEvent, plan: &ChaosPlan, token: &CancelToken, cap: Duration) -> bool {
    match ev {
        ChaosEvent::Hang => {
            token.park(cap);
            true
        }
        ChaosEvent::Slow => token.park(Duration::from_millis(plan.slow_ms())),
        ChaosEvent::Livelock => {
            // Burn the lane without progress instead of sleeping: the
            // watchdog must reclaim a *busy* lane, not just a parked one.
            let t0 = edge::now_ms();
            let cap_ms = cap.as_millis() as u64;
            while !token.is_cancelled() && edge::now_ms().saturating_sub(t0) < cap_ms {
                std::thread::yield_now();
            }
            true
        }
    }
}

/// Runs every `(app, policy)` cell under supervision: each attempt is
/// watchdogged against `scfg.deadline`, failed or timed-out cells are
/// retried for up to `scfg.max_retries` rounds with deterministic
/// seeded backoff, and an app that keeps failing trips a circuit breaker
/// that throttles (but never permanently abandons — one probe per round)
/// further retries. `chaos`, when set, injects planned hang/slow/livelock
/// events by cell index.
///
/// Cells that complete are bit-identical to the same cells from a plain
/// [`crate::sweeps::run_grid`]: supervision never alters a simulation, it
/// only decides when to re-run one.
pub fn run_grid_supervised(
    apps: &[App],
    policies: &[PolicyKind],
    base: &RunConfig,
    threads: usize,
    scfg: &SuperviseConfig,
    chaos: Option<&ChaosPlan>,
) -> SupervisedGrid {
    let jobs: Vec<(usize, &App, PolicyKind)> = apps
        .iter()
        .flat_map(|app| policies.iter().map(move |&p| (app, p)))
        .enumerate()
        .map(|(i, (app, p))| (i, app, p))
        .collect();
    let n = jobs.len();
    let cap = hang_cap(scfg.deadline);
    let preempt_slots: Vec<Mutex<Option<Preemption>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let mut report = SupervisionReport::default();

    // One attempt of one cell. `None` = attempt lost (chaos swallowed it,
    // or the watchdog cancelled the run and it preempted into a snapshot).
    let run_one = |i: usize, app: &App, policy: PolicyKind, token: &CancelToken| {
        if let Some(plan) = chaos {
            if let Some(ev) = plan.take(i) {
                if execute_chaos(ev, plan, token, cap) {
                    return None;
                }
            }
        }
        let cfg = RunConfig { policy, ..base.clone() };
        match run_preemptible(app, &cfg, &|| token.is_cancelled()) {
            Ok(result) => Some(SuiteCell { app: app.name.clone(), policy: policy.name(), result }),
            Err(p) => {
                *preempt_slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                    Some(*p);
                None
            }
        }
    };

    // First pass: the whole grid through the watchdogged pool. The pool's
    // own quarantine path already resubmits panicked/timed-out lanes once,
    // serially and in deterministic order.
    let (out, wd) = global_pool()
        .map_watchdog(&jobs, threads, scfg.deadline, |j, token| run_one(j.0, j.1, j.2, token));
    let mut cells: Vec<Option<SuiteCell>> = out;
    let mut attempts: Vec<u32> = vec![1; n];
    for &i in &wd.retried {
        attempts[jobs[i].0] = 2;
        report.retries += 1;
    }
    report.timeouts += wd.timeout_events as u64;

    // Seed the breaker from the first pass, in cell-index order (apps are
    // contiguous in grid order, so consecutive failures aggregate
    // per-app exactly as they would in a streaming run).
    let mut breaker = CircuitBreaker::new(scfg.breaker_k);
    for (i, cell) in cells.iter().enumerate() {
        let app = &jobs[i].1.name;
        match cell {
            Some(_) => breaker.record_success(app),
            None => {
                breaker.record_failure(app);
            }
        }
    }

    // Retry rounds: pure decisions (which cells, what delay) up front;
    // wall-clock only inside the lanes that realize them.
    for round in 1..=scfg.max_retries {
        let pending: Vec<usize> = (0..n).filter(|&i| cells[i].is_none()).collect();
        if pending.is_empty() {
            break;
        }
        let mut probed: BTreeSet<String> = BTreeSet::new();
        let mut admitted: Vec<(usize, u64, &App, PolicyKind)> = Vec::new();
        for &i in &pending {
            let (_, app, policy) = jobs[i];
            if breaker.is_open(&app.name) && !probed.insert(app.name.clone()) {
                // Open breaker: one probe per app per round keeps the
                // grid live without hammering a consistently sick app.
                report.breaker_skips += 1;
                continue;
            }
            let delay = scfg.backoff.delay_ms(scfg.seed, i as u64, round);
            report.backoff_ms += delay;
            admitted.push((i, delay, app, policy));
        }
        if admitted.is_empty() {
            continue;
        }
        // Backoff is realized in-lane so independent retries overlap; the
        // park is capped well inside the watchdog deadline so backing off
        // is never itself mistaken for a hang.
        let park_cap = scfg.deadline.map(|d| d / 4);
        let (out, wd) =
            global_pool().map_watchdog(&admitted, threads, scfg.deadline, |j, token| {
                let &(i, delay, app, policy) = j;
                let delay = match park_cap {
                    Some(cap) => delay.min(cap.as_millis() as u64),
                    None => delay,
                };
                if delay > 0 && token.park(Duration::from_millis(delay)) {
                    return None;
                }
                run_one(i, app, policy, token)
            });
        report.timeouts += wd.timeout_events as u64;
        for (slot, result) in admitted.iter().zip(out) {
            let (i, _, app, _) = *slot;
            attempts[i] += 1;
            report.retries += 1;
            match result {
                Some(cell) => {
                    breaker.record_success(&app.name);
                    cells[i] = Some(cell);
                }
                None => {
                    breaker.record_failure(&app.name);
                }
            }
        }
        for &ri in &wd.retried {
            // The pool resubmitted this retry attempt once more after a
            // panic/timeout; count the extra attempt against its cell.
            attempts[admitted[ri].0] += 1;
            report.retries += 1;
        }
    }

    let preemptions: Vec<Option<Preemption>> = preempt_slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
        .collect();
    report.preemptions = preemptions.iter().flatten().count() as u64;
    report.recovered = (0..n).filter(|&i| cells[i].is_some() && attempts[i] > 1).count() as u64;
    report.unrecovered = cells.iter().filter(|c| c.is_none()).count() as u64;
    report.breaker_trips = breaker.trips();
    SupervisedGrid { cells, attempts, report, preemptions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::run_grid;
    use gpu_sim::config::GpuConfig;
    use workloads::{by_name, Scale};

    fn tiny_base(max_epochs: usize) -> RunConfig {
        let mut base = RunConfig::paper(PolicyKind::Static(1700));
        base.gpu = GpuConfig::tiny();
        base.max_epochs = max_epochs;
        base
    }

    #[test]
    fn clean_supervised_grid_matches_plain_grid() {
        let apps =
            vec![by_name("comd", Scale::Quick).unwrap(), by_name("dgemm", Scale::Quick).unwrap()];
        let policies = vec![PolicyKind::Static(1700), PolicyKind::Static(2200)];
        let base = tiny_base(8);
        let plain = run_grid(&apps, &policies, &base, 2);
        let sup =
            run_grid_supervised(&apps, &policies, &base, 2, &SuperviseConfig::default(), None);
        assert_eq!(sup.completed(), plain);
        assert_eq!(sup.report, SupervisionReport::default());
        assert!(sup.attempts.iter().all(|&a| a == 1));
        assert!(sup.preemptions.iter().all(Option::is_none));
    }
}
