//! Content-addressed warmup snapshot cache.
//!
//! A warmup prefix — the first epochs of an application at the platform's
//! initial frequency, before any policy engages — depends only on the
//! application, the GPU platform, the epoch clock and the epoch count.
//! Grids and benches re-simulate exactly that prefix once per (policy ×
//! repetition); this module caches it instead: the warmed [`Gpu`] is
//! serialized with the versioned `snapshot` codec and stored under a
//! [`content_key`] of everything the state depends on, in an in-memory LRU
//! backed by an on-disk directory (`results/.snapcache/` by default).
//! Because restoration is bit-exact, a session built on a cache hit is
//! bit-identical to one that warmed up in-line — pinned by
//! `tests/snapshot_resume.rs`.
//!
//! Keys *are* the invalidation mechanism: change any ingredient (workload
//! shape, GPU config, epoch duration, warmup depth, snapshot format
//! version) and the key changes, so a stale entry is simply never
//! addressed again.

use crate::error::{io_at, HarnessError};
use crate::report::write_atomic_bytes;
use crate::runner::RunConfig;
use gpu_sim::gpu::Gpu;
use gpu_sim::kernel::App;
use gpu_sim::stats::EpochStats;
use snapshot::{content_key, SnapshotStore};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Warmup snapshots resident in memory at once (each is one serialized
/// GPU; the disk layer below holds everything ever written).
const LRU_CAPACITY: usize = 16;

static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
static STORE: OnceLock<Mutex<SnapshotStore>> = OnceLock::new();

/// The default on-disk cache directory: `results/.snapcache/` at the repo
/// root (anchored to the crate manifest, not the working directory, so
/// tests, benches and the CLI all share one cache).
pub fn default_dir() -> PathBuf {
    crate::report::results_dir().join(".snapcache")
}

/// Points the process-global warmup store at `dir` (`None` = memory-only,
/// nothing persisted). Latched: returns `false` — and changes nothing —
/// once the store has been touched, so `--snapshot-dir` must be applied
/// before the first warmup lookup.
pub fn set_dir(dir: Option<PathBuf>) -> bool {
    DIR.set(dir).is_ok()
}

/// The directory the global store persists to (`None` when memory-only).
pub fn dir() -> Option<PathBuf> {
    store().dir().map(PathBuf::from)
}

fn store() -> MutexGuard<'static, SnapshotStore> {
    STORE
        .get_or_init(|| {
            let store = match DIR.get_or_init(|| Some(default_dir())) {
                Some(d) => SnapshotStore::new(d, LRU_CAPACITY)
                    .with_writer(write_atomic_bytes)
                    // Transient read hiccups retry briefly; anything
                    // permanent still degrades to a cold start (the
                    // store treats read errors as misses).
                    .with_reader(|p| {
                        supervise::edge::retry_transient(
                            3,
                            &supervise::Backoff { base_ms: 1, cap_ms: 8 },
                            0,
                            || std::fs::read(p),
                        )
                    }),
                None => SnapshotStore::in_memory(LRU_CAPACITY),
            };
            Mutex::new(store)
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The content key addressing `app`'s warmup state: application identity
/// (name plus workload shape, so reduced and full variants never collide),
/// GPU platform, epoch clock, warmup depth and the snapshot format
/// version.
pub fn warmup_key(app: &App, cfg: &RunConfig, warmup_epochs: usize) -> String {
    let code: usize = app.kernels.iter().map(|k| k.len()).sum();
    content_key(&[
        &app.name,
        &app.kernels.len().to_string(),
        &code.to_string(),
        &format!("{:?}", cfg.gpu),
        &format!("{:?}", cfg.epoch),
        &warmup_epochs.to_string(),
        &snapshot::FORMAT_VERSION.to_string(),
    ])
}

/// Simulates the warmup prefix from scratch: `warmup_epochs` epochs at the
/// platform's initial frequency, no policy in the loop (stops early if the
/// application completes). This is the ground truth the cache must be
/// bit-identical to.
pub fn cold_warmup_gpu(app: &App, cfg: &RunConfig, warmup_epochs: usize) -> Gpu {
    let mut gpu = Gpu::new(cfg.gpu, app.clone());
    let mut scratch = EpochStats::empty();
    for _ in 0..warmup_epochs {
        if gpu.is_done() {
            break;
        }
        gpu.run_epoch_into(cfg.epoch.duration, &mut scratch);
    }
    gpu
}

/// [`warmed_gpu`] against an explicit store (tests, private caches).
///
/// A hit restores the warmed GPU from its snapshot; a miss simulates the
/// warmup, snapshots it and writes through. An entry that fails to decode
/// (corrupted or written by an incompatible build) degrades to
/// recomputation and is overwritten with a fresh snapshot.
///
/// # Errors
///
/// [`HarnessError::Io`] when the store's disk write-through fails; the
/// warmed state itself is always produced.
pub fn warmed_gpu_in(
    store: &mut SnapshotStore,
    app: &App,
    cfg: &RunConfig,
    warmup_epochs: usize,
) -> Result<Gpu, HarnessError> {
    let key = warmup_key(app, cfg, warmup_epochs);
    if let Some(bytes) = store.get(&key) {
        if let Ok(gpu) = Gpu::load_snapshot(&bytes) {
            return Ok(gpu);
        }
    }
    let gpu = cold_warmup_gpu(app, cfg, warmup_epochs);
    let path = store.path_for(&key).unwrap_or_else(|| PathBuf::from(&key));
    store.put(&key, gpu.save_snapshot()).map_err(|e| io_at(&path, e))?;
    Ok(gpu)
}

/// Returns `app`'s warmed GPU from the process-global store, simulating
/// and caching it on the first request (see [`warmed_gpu_in`]).
///
/// # Errors
///
/// [`HarnessError::Io`] when the cache directory cannot be written.
pub fn warmed_gpu(app: &App, cfg: &RunConfig, warmup_epochs: usize) -> Result<Gpu, HarnessError> {
    warmed_gpu_in(&mut store(), app, cfg, warmup_epochs)
}

/// `(hits, misses)` of the process-global warmup store.
pub fn stats() -> (u64, u64) {
    let s = store();
    (s.hits(), s.misses())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use pcstall::policy::PolicyKind;
    use workloads::{by_name, Scale};

    fn tiny_cfg() -> RunConfig {
        let mut cfg = RunConfig::paper(PolicyKind::Static(1700));
        cfg.gpu = GpuConfig::tiny();
        cfg
    }

    #[test]
    fn key_distinguishes_every_ingredient() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let other = by_name("dgemm", Scale::Quick).unwrap();
        let cfg = tiny_cfg();
        let mut small = cfg.clone();
        small.gpu = GpuConfig::small();
        let k = warmup_key(&app, &cfg, 8);
        assert_eq!(k, warmup_key(&app, &cfg, 8), "key must be stable");
        assert_ne!(k, warmup_key(&other, &cfg, 8));
        assert_ne!(k, warmup_key(&app, &small, 8));
        assert_ne!(k, warmup_key(&app, &cfg, 9));
    }

    #[test]
    fn store_hit_restores_bit_identical_warmup() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let cfg = tiny_cfg();
        let mut store = SnapshotStore::in_memory(4);
        let first = warmed_gpu_in(&mut store, &app, &cfg, 6).unwrap();
        assert_eq!(store.misses(), 1);
        let second = warmed_gpu_in(&mut store, &app, &cfg, 6).unwrap();
        assert_eq!(store.hits(), 1, "second lookup must be served from the store");
        assert_eq!(
            first.save_snapshot(),
            second.save_snapshot(),
            "restored warmup must be bit-identical to the simulated one"
        );
    }

    #[test]
    fn corrupt_entry_degrades_to_recomputation() {
        let app = by_name("comd", Scale::Quick).unwrap();
        let cfg = tiny_cfg();
        let mut store = SnapshotStore::in_memory(4);
        store.put(&warmup_key(&app, &cfg, 5), vec![0xFF; 32]).unwrap();
        let gpu = warmed_gpu_in(&mut store, &app, &cfg, 5).unwrap();
        assert_eq!(
            gpu.save_snapshot(),
            cold_warmup_gpu(&app, &cfg, 5).save_snapshot(),
            "a corrupt cache entry must fall back to the cold path"
        );
        // The poisoned entry was overwritten; the next lookup decodes.
        let again = warmed_gpu_in(&mut store, &app, &cfg, 5).unwrap();
        assert_eq!(gpu.save_snapshot(), again.save_snapshot());
    }
}
