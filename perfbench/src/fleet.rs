//! `serve-fleet`, and the closed-loop tenant fleet both policy-server
//! workloads drive: each tenant's next telemetry record is
//! `serve::synth_record` at the frequency the server last chose for it.

use std::sync::Arc;
use std::time::Instant;

use dvfs::states::FreqStates;
use exec::WorkerPool;
use gpu_sim::time::Frequency;
use pcstall::resilience::FallbackConfig;
use power::energy::geomean;
use power::model::{PowerConfig, PowerModel};
use serve::{
    server_config_for, synth_record, Decision, PolicyServer, ServerConfig, ServerStats, SoakConfig,
    TelemetryBatch, TenantRecord, TenantSession,
};
use snapshot::{ContainerReader, ContainerWriter, Snapshot};

use crate::stats::{self, median};
use crate::trace::SpanLog;
use crate::{ms, overhead_pct, pass_count, Args, Passes, Report};

/// A fleet's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Tenants in the fleet.
    pub tenants: u64,
    /// Live slots on the server; the rest of the fleet waits evicted in
    /// the server's snapshot store.
    pub max_live: usize,
    /// Tenant `t` is silent in epoch `e` when `(t + e) % silent_every == 0`
    /// (0: never).
    pub silent_every: u64,
}

/// `serve-fleet`: 512 tenants over 384 live slots. A rotating quarter is
/// silent each epoch, so every epoch the server evicts the coldest
/// tenants to its snapshot store and restores the returning ones.
const FLEET: Spec = Spec { tenants: 512, max_live: 384, silent_every: 4 };
/// Priority tiers.
const TIERS: u8 = 3;
/// Warm-up epochs: every tenant admitted and the eviction churn running.
const WARMUP_EPOCHS: u64 = 32;
/// Set-ups per pass, the last of which the pass drives. One takes about
/// 0.1 s, short enough that the host's speed within it swings its time,
/// so `setup_s` is the best of many spread over the run.
const SETUPS_PER_PASS: usize = 5;
/// Measured epochs per pass, after the warm-up.
const PASS_EPOCHS: usize = 1200;
/// Nominal seconds of one measured pass, which with `--seconds` sets the
/// pass count.
const PASS_S: f64 = 5.0;
/// Round trips timed for `snapshot.session_roundtrip_us`.
const ROUNDTRIPS: usize = 2000;
/// The static frequency the fleet's ED²P is normalised to, in MHz.
const BASELINE_MHZ: u32 = 1700;

/// The tier tenant `t` submits at.
pub fn tier_of(t: u64) -> u8 {
    (t % u64::from(TIERS)) as u8
}

/// The soak parameters the fleet's server configuration comes from.
pub fn soak_config(spec: &Spec, seed: u64) -> SoakConfig {
    SoakConfig {
        tenants: spec.tenants,
        max_live: spec.max_live,
        tiers: TIERS,
        seed,
        ..SoakConfig::default()
    }
}

/// The soak's server for this fleet, with the soak's 70% power cap taken
/// over the live slots, so the arbiter demotes whenever the live tenants
/// ask for more.
pub fn server_config(spec: &Spec, seed: u64) -> ServerConfig {
    let soak = soak_config(spec, seed);
    let mut cfg = server_config_for(&soak);
    cfg.power_cap_w = SoakConfig { tenants: spec.max_live as u64, ..soak }.resolve_cap(&cfg.states);
    cfg
}

/// The fleet's ED²P per unit of work under the served decisions, against
/// the same tenants pinned at the static baseline. For each tenant, over
/// the epochs it reported, `E` is the energy the server's power model
/// gives the reported instruction rate and `W` the committed
/// instructions. Energy per instruction scales as `E/W` and time per
/// instruction as `1/W`, so `(E/E₀)·(W₀/W)³` is the ED²P ratio of a fixed
/// amount of that tenant's work; the score is the geomean over tenants.
#[derive(Debug)]
pub struct Ed2pScore {
    model: PowerModel,
    epoch_s: f64,
    /// Per tenant: energy and work as served.
    served: Vec<[f64; 2]>,
    /// Per tenant: energy and work at the baseline.
    baseline: Vec<[f64; 2]>,
}

impl Ed2pScore {
    fn new(tenants: usize, epoch_us: u64) -> Self {
        Ed2pScore {
            model: PowerModel::new(PowerConfig::scaled_to(1)),
            epoch_s: epoch_us as f64 * 1e-6,
            served: vec![[0.0; 2]; tenants],
            baseline: vec![[0.0; 2]; tenants],
        }
    }

    fn add(&mut self, seed: u64, tenant: u64, rec: &TenantRecord) {
        let base = synth_record(seed, tenant, rec.epoch, Frequency::from_mhz(BASELINE_MHZ));
        let (model, epoch_s) = (&self.model, self.epoch_s);
        let energy = |r: &TenantRecord| {
            model.cu_power_w(Frequency::from_mhz(r.f_obs_mhz), r.committed / epoch_s) * epoch_s
        };
        let t = tenant as usize;
        for (acc, r) in [(&mut self.served[t], rec), (&mut self.baseline[t], &base)] {
            acc[0] += energy(r);
            acc[1] += r.committed;
        }
    }

    /// The geomean over tenants that did work of `(E/E₀)·(W₀/W)³`.
    pub fn ratio(&self) -> f64 {
        let per_tenant: Vec<f64> = self
            .served
            .iter()
            .zip(&self.baseline)
            .filter(|(s, b)| s[1] > 0.0 && b[1] > 0.0)
            .map(|(s, b)| (s[0] / b[0]) * (b[1] / s[1]).powi(3))
            .collect();
        geomean(&per_tenant)
    }
}

/// The fleet's side of the closed loop.
#[derive(Debug)]
pub struct Tenants {
    spec: Spec,
    seed: u64,
    /// The frequency each tenant runs at: the server's last decision.
    cur: Vec<Frequency>,
    epoch: u64,
    /// ED²P of the served decisions.
    pub score: Ed2pScore,
}

impl Tenants {
    /// A fleet of `spec`'s shape whose workloads come from `seed`.
    pub fn new(spec: Spec, seed: u64, epoch_us: u64) -> Self {
        let n = spec.tenants as usize;
        Tenants {
            spec,
            seed,
            cur: vec![FreqStates::paper().min(); n],
            epoch: 0,
            score: Ed2pScore::new(n, epoch_us),
        }
    }

    /// The epoch the next batches are for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// This epoch's telemetry from every tenant that is not silent.
    pub fn batches(&mut self) -> Vec<TelemetryBatch> {
        let e = self.epoch;
        let mut out = Vec::with_capacity(self.cur.len());
        for t in 0..self.spec.tenants {
            if self.spec.silent_every > 0 && (t + e).is_multiple_of(self.spec.silent_every) {
                continue;
            }
            let rec = synth_record(self.seed, t, e, self.cur[t as usize]);
            self.score.add(self.seed, t, &rec);
            out.push(TelemetryBatch { tenant: t, tier: tier_of(t), records: vec![rec] });
        }
        out
    }

    /// Takes this epoch's decisions back and moves on to the next epoch;
    /// returns how many decisions were for this epoch.
    pub fn absorb<'a>(&mut self, decisions: impl IntoIterator<Item = &'a Decision>) -> usize {
        let e = self.epoch;
        let mut n = 0;
        for d in decisions.into_iter().filter(|d| d.epoch == e) {
            if let Some(f) = self.cur.get_mut(d.tenant as usize) {
                *f = Frequency::from_mhz(d.freq_mhz);
                n += 1;
            }
        }
        self.epoch += 1;
        n
    }
}

/// An in-process policy server with its fleet.
#[derive(Debug)]
pub struct Fleet {
    /// The server: one shard on a one-thread pool.
    pub server: PolicyServer,
    /// The fleet driving it.
    pub tenants: Tenants,
}

impl Fleet {
    /// A fresh server and fleet of `spec`'s shape.
    pub fn new(spec: Spec, seed: u64) -> Self {
        let cfg = server_config(&spec, seed);
        let tenants = Tenants::new(spec, seed, cfg.epoch_us);
        Fleet { server: PolicyServer::new(cfg, Arc::new(WorkerPool::new(1))), tenants }
    }

    /// One closed-loop epoch. Returns the batches submitted, the
    /// decisions delivered, and the host ms from the first submit to the
    /// last decision. With `spans`, records a `fleet.epoch` span with
    /// `serve.submit` and `serve.run_epoch` children.
    pub fn step(&mut self, spans: Option<&mut SpanLog>) -> (usize, usize, f64) {
        let batches = self.tenants.batches();
        let submits = batches.len();
        let t0 = Instant::now();
        for batch in batches {
            self.server.submit(batch);
        }
        let t1 = Instant::now();
        let decisions = self.server.run_epoch();
        let t2 = Instant::now();
        if let Some(log) = spans {
            let parent = log.push("fleet.epoch", t0, t2, None);
            log.push("serve.submit", t0, t1, Some(parent));
            log.push("serve.run_epoch", t1, t2, Some(parent));
        }
        (submits, self.tenants.absorb(&decisions), ms(t0, t2))
    }
}

/// Median host µs of one tenant session's evict-and-restore round trip:
/// its public `Snapshot` impl inside the container the server stores it
/// in. The session is first trained on a few hundred epochs of telemetry
/// so its PC table is as full as a served tenant's.
fn session_roundtrip_us(seed: u64) -> Result<f64, String> {
    let states = FreqStates::paper();
    let mut sess = TenantSession::new(0, 0, 0, FallbackConfig::default());
    let mut f = states.min();
    for e in 0..256 {
        let rec = synth_record(seed, 0, e, f);
        let req = sess.observe(e, Some(&rec), &states);
        sess.commit(req.desired, req.curve[req.desired]);
        f = states.as_slice()[req.desired];
    }
    let mut times = Vec::with_capacity(ROUNDTRIPS);
    for _ in 0..ROUNDTRIPS {
        let t = Instant::now();
        let mut cw = ContainerWriter::new();
        cw.section("tenant", |w| sess.encode(w));
        let bytes = cw.finish();
        let reader = ContainerReader::parse(&bytes).map_err(|e| format!("{e:?}"))?;
        let mut dec = reader.section("tenant").map_err(|e| format!("{e:?}"))?;
        let back = TenantSession::decode(&mut dec).map_err(|e| format!("{e:?}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
        if back != sess {
            return Err("a tenant session changed across a snapshot round trip".into());
        }
    }
    Ok(median(&times))
}

/// Runs `serve-fleet`.
pub fn run(args: &Args) -> Result<Report, String> {
    let w = &args.workload;
    let spec = FLEET;
    eprintln!(
        "[{w}] {} tenants in {TIERS} tiers over {} live slots, 1 in {} silent per epoch; \
         1 shard, pool threads=1",
        spec.tenants, spec.max_live, spec.silent_every
    );
    let mut report = Report::default();
    let mut spans = args.trace.then(SpanLog::new);
    let mut steps = Passes::default();
    let (mut setup_s, mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_submits = 0usize;
    let mut first_log = None;
    let mut last = None;
    // Whole passes, each a fresh server driven through the same epochs.
    let passes = pass_count(args.seconds, PASS_S);
    for _ in 0..passes {
        let mut set_up = None;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let mut fleet = Fleet::new(spec, args.seed);
            for _ in 0..WARMUP_EPOCHS {
                fleet.step(None);
            }
            setup_s.push(t.elapsed().as_secs_f64());
            set_up = Some(fleet);
        }
        let mut fleet = set_up.expect("SETUPS_PER_PASS is positive");
        let before = fleet.server.stats();
        let mut steps_ms = Vec::with_capacity(PASS_EPOCHS);
        let mut decisions = 0usize;
        for i in 0..PASS_EPOCHS {
            let traced = spans.is_some() && i % 2 == 1;
            let (submits, delivered, epoch_ms) =
                fleet.step(if traced { spans.as_mut() } else { None });
            let live = fleet.server.live_tenants();
            report.op(delivered == live, || {
                format!(
                    "epoch {}: {delivered} decisions for {live} live tenants",
                    fleet.tenants.epoch() - 1
                )
            });
            decisions += delivered;
            if traced {
                traced_ms.push(epoch_ms);
                traced_submits += submits;
            } else {
                steps_ms.push(epoch_ms);
            }
        }
        if args.trace {
            untraced_ms.extend_from_slice(&steps_ms);
        }
        steps.add(steps_ms);
        let log = fleet.server.decision_log();
        match &first_log {
            None => first_log = Some(log),
            Some(first) => {
                report.op(&log == first, || "a pass reached another decision log".into())
            }
        }
        last = Some((fleet, before, decisions));
    }
    let (fleet, before, decisions) = last.expect("every run makes at least three passes");
    report.set(
        "setup_s",
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        format!(
            "best of n={} set-ups: server start + {WARMUP_EPOCHS} warm-up epochs",
            setup_s.len()
        ),
    );
    steps.report(&mut report, decisions as f64 / PASS_EPOCHS as f64, !args.trace);
    report.set(
        "ed2p_vs_static",
        fleet.tenants.score.ratio(),
        format!("geomean over n={} tenants, synthetic ground truth", spec.tenants),
    );
    let log = first_log.expect("at least one pass ran");
    eprintln!(
        "[{w}] seed {}: decision digest {:016x} over {} decisions",
        args.seed,
        log.digest(),
        log.count()
    );

    // No tenant lost, every admitted tenant live or stored, the whole
    // fleet admitted, no epoch over the power cap.
    let after = fleet.server.stats();
    let (live, evicted) = (fleet.server.live_tenants(), fleet.server.evicted_tenants());
    report.op(after.lost_tenants == 0, || format!("{} tenants lost", after.lost_tenants));
    report.op(live + evicted == after.admitted as usize, || {
        format!("live {live} + evicted {evicted} != admitted {}", after.admitted)
    });
    report.op(after.admitted == spec.tenants, || {
        format!("{} of {} tenants admitted", after.admitted, spec.tenants)
    });
    report.op(after.cap_epochs_missed == 0, || {
        format!("{} epochs over the power cap", after.cap_epochs_missed)
    });

    if let Some(log) = &spans {
        let delta = |f: fn(&ServerStats) -> u64| (f(&after) - f(&before)) as f64;
        report.set(
            "serve.submit_us",
            log.total_ns("serve.submit") as f64 / 1e3 / traced_submits.max(1) as f64,
            format!("mean per submit over n={traced_submits}"),
        );
        let mut run_epoch = log.durations_ms("serve.run_epoch");
        if let (Some(p50), Some(p99)) =
            (stats::percentile(&mut run_epoch, 50), stats::percentile(&mut run_epoch, 99))
        {
            report.set("serve.run_epoch_ms_p50", p50.value, p50.note());
            report.set("serve.run_epoch_ms_p99", p99.value, p99.note());
        }
        report.set("serve.evictions_per_epoch", delta(|s| s.evictions) / PASS_EPOCHS as f64, "");
        report.set("serve.restores_per_epoch", delta(|s| s.restores) / PASS_EPOCHS as f64, "");
        report.set(
            "snapshot.session_roundtrip_us",
            session_roundtrip_us(args.seed)?,
            format!("median of n={ROUNDTRIPS} encode+decode round trips"),
        );
        report.set(
            "serve.fresh_ratio",
            delta(|s| s.rung_normal) / delta(|s| s.decisions),
            "rung_normal / decisions",
        );
        let shed = fleet.server.shed_stats();
        report.set(
            "serve.shed_ratio",
            shed.total() as f64 / (shed.accepted + shed.total()).max(1) as f64,
            "batches shed / submitted",
        );
        report.set(
            "serve.cap_met_ratio",
            delta(|s| s.cap_epochs_met) / delta(|s| s.epochs),
            "epochs under the cap",
        );
        report.set(
            "trace_overhead_pct",
            overhead_pct(&traced_ms, &untraced_ms),
            format!(
                "median of n={} traced vs n={} untraced epochs",
                traced_ms.len(),
                untraced_ms.len()
            ),
        );
    }
    report.spans = spans;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reproduces_the_fleet_digest() {
        let run = |seed| {
            let mut f = Fleet::new(FLEET, seed);
            for _ in 0..24 {
                f.step(None);
            }
            (f.server.decision_log(), f.tenants.score.ratio().to_bits())
        };
        let held_out = run(1009);
        assert_eq!(held_out, run(1009));
        assert_ne!(held_out.0, run(1010).0, "the seed must reach the inputs");
    }

    #[test]
    fn the_fleet_churns_through_the_snapshot_store_and_loses_no_one() {
        let mut f = Fleet::new(FLEET, 3);
        for _ in 0..16 {
            let (_, delivered, _) = f.step(None);
            assert_eq!(delivered, f.server.live_tenants());
        }
        let s = f.server.stats();
        assert!(s.evictions > 0 && s.restores > 0, "{s:?}");
        assert_eq!(s.lost_tenants, 0);
        assert_eq!(s.admitted, FLEET.tenants);
        assert_eq!(f.server.live_tenants() + f.server.evicted_tenants(), s.admitted as usize);
    }
}
