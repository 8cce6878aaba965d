//! Parallel suite execution: (workload × design) grids, the keyed
//! static-baseline cache that keeps multi-figure sweeps from re-simulating
//! the same normalization run, and the resume journal that lets a killed
//! sweep restart without redoing completed cells.

use crate::error::{io_at, HarnessError};
use crate::report::write_atomic_bytes;
use crate::runner::{run, RunConfig, RunResult};
use exec::global_pool;
use gpu_sim::kernel::App;
use pcstall::policy::PolicyKind;
use snapshot::{ContainerReader, ContainerWriter, SnapError, Snapshot};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// One cell of a suite grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteCell {
    /// Application name.
    pub app: String,
    /// Design name.
    pub policy: String,
    /// The run outcome.
    pub result: RunResult,
}

/// Cells are what a sweep resume journal persists: index + payload, where
/// the payload floats are exact bit patterns, so a journaled cell is
/// bit-identical to the freshly computed one.
impl Snapshot for SuiteCell {
    fn encode(&self, w: &mut snapshot::Encoder) {
        let SuiteCell { app, policy, result } = self;
        app.encode(w);
        policy.encode(w);
        result.encode(w);
    }
    fn decode(r: &mut snapshot::Decoder) -> Result<Self, SnapError> {
        Ok(SuiteCell {
            app: String::decode(r)?,
            policy: String::decode(r)?,
            result: RunResult::decode(r)?,
        })
    }
}

/// Runs every `(app, policy)` pair on the process-global
/// [`exec::WorkerPool`], load-balanced across at most `threads` lanes.
/// Results preserve grid order (apps outer, policies inner).
///
/// Each cell runs a whole policy-in-the-loop session whose oracle sampling
/// would itself map onto the same pool; the pool inlines nested maps, so
/// grid-level parallelism wins and total concurrency never exceeds the
/// pool size — no oversubscription however deep the nesting.
///
/// When a process-wide resume directory is installed
/// ([`set_resume_dir`]), the grid runs through [`run_grid_resumable`]
/// with a journal named after the grid's content key; a journal failure
/// degrades to a plain (journal-free) sweep rather than failing the
/// experiment.
pub fn run_grid(
    apps: &[App],
    policies: &[PolicyKind],
    base: &RunConfig,
    threads: usize,
) -> Vec<SuiteCell> {
    if let Some(dir) = resume_dir() {
        let journal = dir.join(format!("grid-{}.journal", grid_key(apps, policies, base)));
        match run_grid_resumable(apps, policies, base, threads, &journal) {
            Ok((cells, _)) => return cells,
            Err(e) => eprintln!("warning: resume journal disabled for this grid: {e}"),
        }
    }
    run_grid_chaos(apps, policies, base, threads, None).0
}

/// [`run_grid`] with an optional panicking-lane hook: when `plan` is set,
/// each grid cell fires [`faults::PanicPlan::fire`] with its cell index
/// before running, and the pool's quarantine-and-resubmit path
/// ([`exec::WorkerPool::map_quarantine`]) recovers the lost cells. Returns
/// the (order-preserved) cells plus how many were resubmitted. With a
/// deterministic simulator the cells are bit-identical to a panic-free
/// [`run_grid`] regardless of which lanes die.
pub fn run_grid_chaos(
    apps: &[App],
    policies: &[PolicyKind],
    base: &RunConfig,
    threads: usize,
    plan: Option<&faults::PanicPlan>,
) -> (Vec<SuiteCell>, usize) {
    let jobs: Vec<(usize, &App, PolicyKind)> = apps
        .iter()
        .flat_map(|app| policies.iter().map(move |&p| (app, p)))
        .enumerate()
        .map(|(i, (app, p))| (i, app, p))
        .collect();
    global_pool().map_quarantine(&jobs, threads, |&(i, app, policy)| {
        if let Some(plan) = plan {
            plan.fire(i);
        }
        let cfg = RunConfig { policy, ..base.clone() };
        let result = run(app, &cfg);
        SuiteCell { app: app.name.clone(), policy: policy.name(), result }
    })
}

/// Content key identifying one (apps × policies, config) grid: workload
/// identities (name plus shape), full policy configurations and the entire
/// base run configuration. A journal keyed for one grid can never be
/// replayed into another — change anything and the key (hence the journal
/// file) changes.
pub fn grid_key(apps: &[App], policies: &[PolicyKind], base: &RunConfig) -> String {
    let mut parts: Vec<String> = Vec::new();
    for app in apps {
        let code: usize = app.kernels.iter().map(|k| k.len()).sum();
        parts.push(format!("{}#{}#{}", app.name, app.kernels.len(), code));
    }
    for p in policies {
        parts.push(format!("{p:?}"));
    }
    parts.push(format!("{base:?}"));
    parts.push(snapshot::FORMAT_VERSION.to_string());
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    snapshot::content_key(&refs)
}

/// Serializes a journal: the grid key (meta) plus every completed cell,
/// index-tagged so grid order survives out-of-order completion.
fn journal_bytes(key: &str, cells: &[(u64, SuiteCell)]) -> Vec<u8> {
    let mut w = ContainerWriter::new();
    w.section("meta", |e| e.put_str(key));
    w.section("cells", |e| {
        e.put_usize(cells.len());
        for (i, cell) in cells {
            e.put_u64(*i);
            cell.encode(e);
        }
    });
    w.finish()
}

/// Parses a journal, rejecting one written for a different grid or holding
/// an out-of-range cell index.
fn parse_journal(
    bytes: &[u8],
    key: &str,
    n_cells: usize,
) -> Result<Vec<(u64, SuiteCell)>, SnapError> {
    let c = ContainerReader::parse(bytes)?;
    let mut m = c.section("meta")?;
    let found = String::decode(&mut m)?;
    m.finish()?;
    if found != key {
        return Err(SnapError::invalid("resume journal belongs to a different grid"));
    }
    let mut d = c.section("cells")?;
    let cells = Vec::<(u64, SuiteCell)>::decode(&mut d)?;
    d.finish()?;
    if cells.iter().any(|(i, _)| *i as usize >= n_cells) {
        return Err(SnapError::invalid("resume journal cell index out of range"));
    }
    Ok(cells)
}

/// Loads whatever usable state `path` holds for the grid identified by
/// `key`. Anything short of a valid, matching journal — absent file,
/// truncation, corruption, a different grid's key — degrades to a cold
/// start: the journal is an accelerator, never a correctness input.
fn load_journal(path: &Path, key: &str, n_cells: usize) -> HashMap<usize, SuiteCell> {
    // A transient read hiccup should not silently cost a whole grid of
    // completed cells; retry briefly, then degrade to a cold start.
    let read = supervise::edge::retry_transient(
        3,
        &supervise::Backoff { base_ms: 1, cap_ms: 8 },
        0,
        || std::fs::read(path),
    );
    let Ok(bytes) = read else { return HashMap::new() };
    match parse_journal(&bytes, key, n_cells) {
        Ok(cells) => cells.into_iter().map(|(i, c)| (i as usize, c)).collect(),
        Err(_) => HashMap::new(),
    }
}

/// [`run_grid`] with a resume journal: every completed cell is persisted
/// to `journal` (atomically, under the grid's content key), and a restart
/// pointed at the same journal skips the finished cells and recomputes
/// only the rest. Because journaled cells are bit-identical to freshly
/// computed ones and the simulator is deterministic, the resumed output is
/// bit-identical to an uninterrupted run. Returns the (order-preserved)
/// cells plus how many were restored from the journal.
///
/// # Errors
///
/// [`HarnessError::Io`] when the journal cannot be written; cells computed
/// before the failure are lost to the journal but the error surfaces
/// immediately rather than silently running without resume protection.
pub fn run_grid_resumable(
    apps: &[App],
    policies: &[PolicyKind],
    base: &RunConfig,
    threads: usize,
    journal: &Path,
) -> Result<(Vec<SuiteCell>, usize), HarnessError> {
    run_grid_resumable_chaos(apps, policies, base, threads, journal, None)
}

/// [`run_grid_resumable`] with a panicking-lane hook for kill testing:
/// when `plan` is set, each *recomputed* cell fires
/// [`faults::PanicPlan::fire`] with its grid index before running, and —
/// unlike [`run_grid_chaos`], which quarantines and resubmits — the panic
/// propagates to the caller, genuinely killing the sweep mid-grid. Cells
/// journaled before the kill survive; calling again without a plan resumes
/// from them. Restored cells never fire the hook (they are not re-run).
///
/// # Errors
///
/// [`HarnessError::Io`] when the journal cannot be written.
///
/// # Panics
///
/// Resumes the first injected lane panic when `plan` fires.
pub fn run_grid_resumable_chaos(
    apps: &[App],
    policies: &[PolicyKind],
    base: &RunConfig,
    threads: usize,
    journal: &Path,
    plan: Option<&faults::PanicPlan>,
) -> Result<(Vec<SuiteCell>, usize), HarnessError> {
    let key = grid_key(apps, policies, base);
    let n_cells = apps.len() * policies.len();
    let restored = load_journal(journal, &key, n_cells);
    let n_restored = restored.len();
    let jobs: Vec<(usize, &App, PolicyKind)> = apps
        .iter()
        .flat_map(|app| policies.iter().map(move |&p| (app, p)))
        .enumerate()
        .filter(|(i, _)| !restored.contains_key(i))
        .map(|(i, (app, p))| (i, app, p))
        .collect();
    struct JournalState {
        cells: Vec<(u64, SuiteCell)>,
        err: Option<HarnessError>,
    }
    let mut seed: Vec<(u64, SuiteCell)> =
        restored.into_iter().map(|(i, c)| (i as u64, c)).collect();
    seed.sort_by_key(|(i, _)| *i);
    let state = Mutex::new(JournalState { cells: seed, err: None });
    let _ = global_pool().map_capped(&jobs, threads, |&(i, app, policy)| {
        if let Some(plan) = plan {
            plan.fire(i);
        }
        let cfg = RunConfig { policy, ..base.clone() };
        let result = run(app, &cfg);
        let cell = SuiteCell { app: app.name.clone(), policy: policy.name(), result };
        // Persist under the lock: the journal is rewritten whole (grids
        // are small) through the atomic writer, so a kill at any instant
        // leaves the previous complete journal, never a torn one.
        let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
        st.cells.push((i as u64, cell.clone()));
        st.cells.sort_by_key(|(idx, _)| *idx);
        if st.err.is_none() {
            if let Err(e) = write_atomic_bytes(journal, &journal_bytes(&key, &st.cells)) {
                st.err = Some(io_at(journal, e));
            }
        }
        cell
    });
    let mut st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = st.err.take() {
        return Err(e);
    }
    debug_assert!(st.cells.windows(2).all(|w| w[0].0 < w[1].0), "duplicate journal indices");
    Ok((st.cells.into_iter().map(|(_, c)| c).collect(), n_restored))
}

static RESUME_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Installs a process-wide resume directory: every subsequent
/// [`run_grid`] journals its cells under `dir` (one
/// `grid-<content-key>.journal` per grid) and a restarted process skips
/// the journaled cells. Latched by the first caller; returns `false` if a
/// directory was already installed.
pub fn set_resume_dir(dir: PathBuf) -> bool {
    RESUME_DIR.set(dir).is_ok()
}

/// The installed resume directory, if any.
pub fn resume_dir() -> Option<&'static Path> {
    RESUME_DIR.get().map(PathBuf::as_path)
}

/// Default worker count (delegates to [`exec::default_threads`]: the
/// `PCSTALL_THREADS` override, else physical parallelism capped at 8 —
/// each worker simulates a whole GPU, so memory stays modest).
pub fn default_threads() -> usize {
    exec::default_threads()
}

/// A keyed cache of static-baseline runs.
///
/// Every paper figure normalizes against a static run of the same
/// application on the same platform, and multi-figure sweeps used to
/// re-simulate that baseline once per figure (and once per epoch-sweep
/// point). The cache keys on everything the result depends on — app
/// identity, GPU config, epoch timing, domain grouping, state set, power
/// model, static frequency, epoch cap and power cap — and deliberately
/// excludes the objective: a static policy never consults it, so figures
/// with different objectives share baselines.
#[derive(Debug, Default)]
pub struct BaselineCache {
    inner: Mutex<HashMap<String, RunResult>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl BaselineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the map ignoring poison: entries are only ever inserted whole,
    /// so a panicked writer cannot leave a half-updated value behind.
    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<String, RunResult>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn key(app: &App, cfg: &RunConfig) -> String {
        // The app signature captures name plus workload shape so reduced
        // and full variants of the same benchmark never collide.
        let code: usize = app.kernels.iter().map(|k| k.len()).sum();
        format!(
            "{}#{}#{}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}|{:?}|{:?}",
            app.name,
            app.kernels.len(),
            code,
            cfg.gpu,
            cfg.epoch,
            cfg.group,
            cfg.states,
            cfg.power,
            cfg.policy,
            cfg.max_epochs,
            cfg.power_cap,
            cfg.faults,
        )
    }

    /// Returns the cached baseline for `(app, cfg)`, simulating it on the
    /// first request.
    ///
    /// Concurrent misses on the *same* key may each simulate (the first
    /// finisher's result is kept; the simulator is deterministic, so all
    /// copies are identical) — [`BaselineCache::baselines`] avoids this by
    /// parallelizing over distinct apps.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.policy` is not [`PolicyKind::Static`]: only static
    /// runs are objective-independent, which the key relies on.
    pub fn get_or_run(&self, app: &App, cfg: &RunConfig) -> RunResult {
        assert!(
            matches!(cfg.policy, PolicyKind::Static(_)),
            "baseline cache only holds static-policy runs"
        );
        let key = Self::key(app, cfg);
        if let Some(hit) = self.map().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = run(app, cfg);
        self.map().entry(key).or_insert_with(|| result.clone());
        result
    }

    /// Static baselines at `static_mhz` for every app under `base`'s
    /// platform, as grid cells (cache-served where possible, simulated in
    /// parallel otherwise).
    pub fn baselines(
        &self,
        apps: &[App],
        base: &RunConfig,
        static_mhz: u32,
        threads: usize,
    ) -> Vec<SuiteCell> {
        // Baselines are the normalization denominator: they always run on
        // the ideal GPU, even when the numerator runs are faulted.
        let cfg =
            RunConfig { policy: PolicyKind::Static(static_mhz), faults: None, ..base.clone() };
        global_pool().map_capped(apps, threads, |app| {
            let result = self.get_or_run(app, &cfg);
            SuiteCell { app: app.name.clone(), policy: result.policy.clone(), result }
        })
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (actual simulator runs) so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct baselines held.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide baseline cache shared by every figure entry point.
pub fn global_baseline_cache() -> &'static BaselineCache {
    static CACHE: OnceLock<BaselineCache> = OnceLock::new();
    CACHE.get_or_init(BaselineCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use pcstall::estimators::CuEstimator;
    use workloads::{by_name, Scale};

    fn tiny_base(max_epochs: usize) -> RunConfig {
        let mut base = RunConfig::paper(PolicyKind::Static(1700));
        base.gpu = GpuConfig::tiny();
        base.max_epochs = max_epochs;
        base
    }

    #[test]
    fn grid_preserves_order_and_runs_all_cells() {
        let apps =
            vec![by_name("comd", Scale::Quick).unwrap(), by_name("dgemm", Scale::Quick).unwrap()];
        let policies = vec![PolicyKind::Static(1700), PolicyKind::Reactive(CuEstimator::Stall)];
        let base = tiny_base(10);
        let grid = run_grid(&apps, &policies, &base, 4);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].app, "comd");
        assert_eq!(grid[0].policy, "STATIC-1700");
        assert_eq!(grid[1].policy, "STALL");
        assert_eq!(grid[2].app, "dgemm");
        for cell in &grid {
            assert!(cell.result.epochs > 0);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let apps = vec![by_name("comd", Scale::Quick).unwrap()];
        let policies = vec![PolicyKind::Reactive(CuEstimator::Crisp)];
        let base = tiny_base(8);
        let a = run_grid(&apps, &policies, &base, 1);
        let b = run_grid(&apps, &policies, &base, 4);
        assert_eq!(a, b, "simulation must be deterministic across thread counts");
    }

    #[test]
    fn grid_is_bit_identical_across_thread_counts() {
        let apps = vec![
            by_name("comd", Scale::Quick).unwrap(),
            by_name("dgemm", Scale::Quick).unwrap(),
            by_name("xsbench", Scale::Quick).unwrap(),
        ];
        let policies = vec![
            PolicyKind::Static(1700),
            PolicyKind::Oracle,
            PolicyKind::Reactive(CuEstimator::Stall),
        ];
        let base = tiny_base(6);
        let one = run_grid(&apps, &policies, &base, 1);
        let eight = run_grid(&apps, &policies, &base, 8);
        assert_eq!(one, eight, "grid results must not depend on worker count");
    }

    #[test]
    fn baseline_cache_runs_each_key_once() {
        let apps =
            vec![by_name("comd", Scale::Quick).unwrap(), by_name("hacc", Scale::Quick).unwrap()];
        let base = tiny_base(6);
        let cache = BaselineCache::new();
        let first = cache.baselines(&apps, &base, 1700, 2);
        // A second figure over the same apps — and one with a different
        // objective — must be served entirely from cache.
        let mut other_objective = base.clone();
        other_objective.objective = dvfs::objective::Objective::MinEdp;
        let second = cache.baselines(&apps, &base, 1700, 2);
        let third = cache.baselines(&apps, &other_objective, 1700, 2);
        assert_eq!(first, second);
        assert_eq!(first, third);
        assert_eq!(cache.misses(), apps.len(), "each (app, cfg) simulated exactly once");
        assert_eq!(cache.hits(), 2 * apps.len());
        assert_eq!(cache.len(), apps.len());
        // A different static frequency is a different baseline.
        let _ = cache.baselines(&apps, &base, 2200, 2);
        assert_eq!(cache.misses(), 2 * apps.len());
    }

    #[test]
    fn cached_baseline_matches_direct_run() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let base = tiny_base(6);
        let cache = BaselineCache::new();
        let cached = cache.baselines(std::slice::from_ref(&app), &base, 1700, 1);
        let direct = run(&app, &base);
        assert_eq!(cached[0].result, direct);
    }
}
