//! End-to-end properties of the fault-injection layer and the degradation
//! ladder: no-op injection is invisible, fault decisions are deterministic
//! across worker counts, the STALL-fallback ladder engages under heavy
//! telemetry loss, savings degrade gracefully rather than cliff, and a
//! panicking grid lane is quarantined and resubmitted.

use faults::{FaultConfig, PanicPlan};
use gpu_sim::config::GpuConfig;
use harness::runner::{run, FaultSetup, RunConfig};
use harness::studies::resilience_sweep;
use harness::sweeps::{run_grid, run_grid_chaos};
use pcstall::estimators::CuEstimator;
use pcstall::policy::{PcStallConfig, PolicyKind};
use workloads::{by_name, suite, Scale};

fn tiny_cfg(policy: PolicyKind, max_epochs: usize) -> RunConfig {
    let mut cfg = RunConfig::paper(policy);
    cfg.gpu = GpuConfig::tiny();
    cfg.max_epochs = max_epochs;
    cfg
}

fn heavy_faults(seed: u64) -> FaultSetup {
    FaultSetup::with_default_ladder(FaultConfig::profile(0.20, seed))
}

#[test]
fn noop_injection_is_bit_identical_to_ideal() {
    // The regression pin for "faults disabled changes nothing": an armed
    // injector whose every rate is zero must reproduce the ideal-GPU run
    // bit for bit, ladder wrapper and all.
    let app = by_name("comd", Scale::Quick).unwrap();
    for policy in [
        PolicyKind::Static(1700),
        PolicyKind::Reactive(CuEstimator::Crisp),
        PolicyKind::PcStall(PcStallConfig::default()),
    ] {
        let ideal = run(&app, &tiny_cfg(policy, 30));
        let mut cfg = tiny_cfg(policy, 30);
        cfg.faults = Some(FaultSetup::with_default_ladder(FaultConfig::default()));
        let mut faulted = run(&app, &cfg);
        let report = faulted.fault_report.take().expect("armed injector reports");
        assert_eq!(report.counts.total(), 0, "{}: noop config injected faults", ideal.policy);
        assert_eq!(
            report.ladder.map_or(0, |l| l.engaged()),
            0,
            "{}: ladder engaged without faults",
            ideal.policy
        );
        assert_eq!(ideal, faulted, "{}: noop injection perturbed the run", ideal.policy);
    }
}

#[test]
fn fault_decisions_do_not_depend_on_worker_count() {
    // The injector hashes (seed, epoch, channel, lane) — never thread or
    // scheduling state — so a faulted grid is bit-identical whether cells
    // run serially or across 8 lanes.
    let apps =
        vec![by_name("comd", Scale::Quick).unwrap(), by_name("xsbench", Scale::Quick).unwrap()];
    let policies = vec![
        PolicyKind::Reactive(CuEstimator::Stall),
        PolicyKind::PcStall(PcStallConfig::default()),
    ];
    let mut base = tiny_cfg(PolicyKind::Static(1700), 30);
    base.faults = Some(heavy_faults(7));
    let serial = run_grid(&apps, &policies, &base, 1);
    let parallel = run_grid(&apps, &policies, &base, 8);
    assert_eq!(serial, parallel, "fault injection must be deterministic across thread counts");
}

#[test]
fn same_seed_reproduces_and_seeds_differ() {
    let app = by_name("dgemm", Scale::Quick).unwrap();
    let mut cfg = tiny_cfg(PolicyKind::PcStall(PcStallConfig::default()), 40);
    cfg.faults = Some(heavy_faults(1));
    let a = run(&app, &cfg);
    let b = run(&app, &cfg);
    assert_eq!(a, b, "same fault seed must reproduce bit-identically");
    cfg.faults = Some(heavy_faults(2));
    let c = run(&app, &cfg);
    assert_ne!(
        a.fault_report, c.fault_report,
        "different seeds should draw different fault patterns"
    );
}

#[test]
fn ladder_engages_under_heavy_telemetry_loss() {
    // At a 20% fault rate the policy goes blind often enough that the
    // hold → STALL-fallback → safe-max ladder must demonstrably engage.
    let app = by_name("comd", Scale::Quick).unwrap();
    let mut cfg = tiny_cfg(PolicyKind::PcStall(PcStallConfig::default()), 60);
    cfg.faults = Some(heavy_faults(42));
    let r = run(&app, &cfg);
    let report = r.fault_report.expect("fault report present");
    assert!(report.counts.telemetry_dropped > 0, "no telemetry faults at 20%: {report:?}");
    let ladder = report.ladder.expect("ladder wrapped the policy");
    assert!(ladder.engaged() > 0, "fallback ladder never engaged: {ladder:?}");
    assert!(ladder.normal > 0, "policy never ran normally: {ladder:?}");
}

#[test]
fn savings_degrade_gracefully_not_cliff() {
    // Endpoint monotonicity of the resilience curves: the ideal-GPU point
    // must not be (meaningfully) worse than the 20%-fault point, and heavy
    // faults must show the ladder working.
    let apps =
        vec![by_name("comd", Scale::Quick).unwrap(), by_name("xsbench", Scale::Quick).unwrap()];
    let policies = vec![
        PolicyKind::Reactive(CuEstimator::Stall),
        PolicyKind::PcStall(PcStallConfig::default()),
    ];
    let base = tiny_cfg(PolicyKind::Static(1700), 60);
    let curves = resilience_sweep(
        &apps,
        &policies,
        &base,
        &[0.0, 0.20],
        42,
        faults::FaultProfile::Proportional,
        4,
    );
    assert_eq!(curves.rates, vec![0.0, 0.20]);
    for c in &curves.curves {
        assert_eq!(c.savings.len(), 2, "{}", c.policy);
        assert!(
            c.savings[0] + 0.05 >= c.savings[1],
            "{}: savings improved under faults? ideal {} vs 20% {}",
            c.policy,
            c.savings[0],
            c.savings[1]
        );
        assert_eq!(c.faults_injected[0], 0, "{}: rate 0 injected faults", c.policy);
        assert!(c.faults_injected[1] > 0, "{}: rate 0.2 injected nothing", c.policy);
        assert!(c.fallback_epochs[1] > 0, "{}: ladder never engaged at 20%", c.policy);
    }
}

#[test]
fn storm_profile_sweeps_deterministically_and_differs_from_proportional() {
    // The storm profile concentrates the same base rates into bursty,
    // cross-channel-correlated windows. The sweep must stay reproducible
    // (same seed → bit-identical curves) and must actually draw a
    // different fault pattern than the independent proportional profile.
    let apps = vec![by_name("comd", Scale::Quick).unwrap()];
    let policies = vec![PolicyKind::PcStall(PcStallConfig::default())];
    let base = tiny_cfg(PolicyKind::Static(1700), 60);
    let rates = &[0.0, 0.20];
    let storm_a =
        resilience_sweep(&apps, &policies, &base, rates, 42, faults::FaultProfile::Storm, 4);
    let storm_b =
        resilience_sweep(&apps, &policies, &base, rates, 42, faults::FaultProfile::Storm, 4);
    assert_eq!(storm_a, storm_b, "storm sweep must reproduce bit-identically");
    let prop =
        resilience_sweep(&apps, &policies, &base, rates, 42, faults::FaultProfile::Proportional, 4);
    assert_eq!(storm_a.curves[0].faults_injected[0], 0, "rate 0 stays a noop under storms");
    assert!(storm_a.curves[0].faults_injected[1] > 0, "storm at 20% injected nothing");
    assert_ne!(
        storm_a.curves[0].faults_injected, prop.curves[0].faults_injected,
        "storm and proportional profiles should draw different fault patterns"
    );
}

#[test]
fn panicking_lane_is_quarantined_and_grid_completes_identically() {
    // A lane dying mid-sweep must not abort the grid: the poisoned cells
    // are resubmitted and the final grid is bit-identical to a clean run.
    let apps = vec![by_name("comd", Scale::Quick).unwrap(), by_name("hacc", Scale::Quick).unwrap()];
    let policies = vec![PolicyKind::Static(1700), PolicyKind::Reactive(CuEstimator::Crisp)];
    let base = tiny_cfg(PolicyKind::Static(1700), 15);
    let clean = run_grid(&apps, &policies, &base, 4);
    let plan = PanicPlan::for_indices([0, 3]);
    let (chaos, resubmitted) = run_grid_chaos(&apps, &policies, &base, 4, Some(&plan));
    assert_eq!(resubmitted, 2, "both armed cells should have been resubmitted");
    assert_eq!(plan.remaining(), 0, "every armed panic should have fired");
    assert_eq!(chaos, clean, "recovered grid must match the panic-free run");
}

#[test]
fn whole_suite_survives_heavy_faults() {
    // Robustness smoke: every Table II app completes a faulted session
    // without panicking, and residency still normalizes.
    let mut cfg = tiny_cfg(PolicyKind::PcStall(PcStallConfig::default()), 12);
    cfg.faults = Some(heavy_faults(3));
    for app in suite(Scale::Quick) {
        let r = run(&app, &cfg);
        assert!(r.epochs > 0, "{}: no epochs ran", app.name);
        let res_sum: f64 = r.freq_residency.iter().sum();
        assert!((res_sum - 1.0).abs() < 1e-9, "{}: residency {res_sum}", app.name);
    }
}

#[test]
fn accpc_survives_thermal_clamps() {
    // A clamp shrinks the legal states for one epoch, so ACCPC's next
    // table update sees samples over fewer states than it decides over.
    let mut cfg = tiny_cfg(PolicyKind::AccPc(PcStallConfig::default()), 40);
    let clamps = FaultConfig::parse("clamp=0.3,seed=5").expect("valid spec");
    cfg.faults = Some(FaultSetup::with_default_ladder(clamps));
    let r = run(&by_name("comd", Scale::Quick).unwrap(), &cfg);
    let clamped = r.fault_report.expect("faulted run reports").counts.clamped_epochs;
    assert!(clamped > 0, "no clamp fired; the run proves nothing");
    assert!(r.epochs > 0);
}
