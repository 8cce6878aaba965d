//! Snapshot round-trip equivalence and rejection tests.
//!
//! The contract pinned here is the one the warmup store and resumable
//! sweeps are built on: a GPU restored from `save_snapshot` bytes is
//! *bit-exact* — stepping it produces the same per-epoch telemetry, event
//! stream and completion time as the uninterrupted original — and any
//! damaged or version-skewed snapshot is rejected with a typed error, never
//! a panic.

use gpu_sim::kernel::{AddressPattern, App, KernelBuilder};
use gpu_sim::prelude::*;
use snapshot::{ContainerReader, SnapError, Snapshot, FORMAT_VERSION};

fn compute_app(wgs: u32) -> App {
    let mut b = KernelBuilder::new("k", wgs, 4, 1);
    b.begin_loop(64, 0);
    b.valu(2, 8);
    b.end_loop();
    App::new("compute", vec![b.finish()]).unwrap()
}

fn memory_app(wgs: u32) -> App {
    let mut b = KernelBuilder::new("m", wgs, 4, 2);
    let p = b.pattern(AddressPattern::Random { base: 0, region: 1 << 28 });
    b.begin_loop(32, 0);
    b.load(p);
    b.wait_all_loads();
    b.valu(1, 2);
    b.end_loop();
    App::new("memory", vec![b.finish()]).unwrap()
}

/// Runs `warm` epochs, snapshots, then steps original and restored GPUs in
/// lockstep for `tail` epochs, requiring identical telemetry throughout.
fn assert_restored_equals_original(app: App, mhz: u32, warm: usize, tail: usize) {
    let mut gpu = Gpu::new(GpuConfig::tiny(), app);
    let all: Vec<usize> = (0..gpu.n_cus()).collect();
    gpu.set_frequency_of(&all, Frequency::from_mhz(mhz), Femtos::ZERO);
    for _ in 0..warm {
        gpu.run_epoch(Femtos::from_micros(1));
    }
    let bytes = gpu.save_snapshot();
    let mut restored = Gpu::load_snapshot(&bytes).expect("snapshot must decode");
    assert_eq!(restored.now(), gpu.now());
    assert_eq!(restored.event_queue_len(), gpu.event_queue_len());
    for epoch in 0..tail {
        let a = gpu.run_epoch(Femtos::from_micros(1));
        let b = restored.run_epoch(Femtos::from_micros(1));
        assert_eq!(a, b, "restored GPU diverged at epoch {epoch} (mhz {mhz})");
    }
    assert_eq!(restored.completion_time(), gpu.completion_time());
    // The restored GPU must itself re-snapshot to the same bytes as the
    // original at the same point in time.
    assert_eq!(gpu.save_snapshot(), restored.save_snapshot());
}

#[test]
fn roundtrip_compute_app_low_freq() {
    assert_restored_equals_original(compute_app(16), 1300, 3, 8);
}

#[test]
fn roundtrip_compute_app_high_freq() {
    assert_restored_equals_original(compute_app(16), 2200, 3, 8);
}

#[test]
fn roundtrip_memory_app_low_freq() {
    assert_restored_equals_original(memory_app(16), 1300, 3, 8);
}

#[test]
fn roundtrip_memory_app_high_freq() {
    assert_restored_equals_original(memory_app(16), 2200, 3, 8);
}

#[test]
fn roundtrip_at_time_zero_and_after_completion() {
    // Fresh GPU (nothing simulated yet).
    let gpu = Gpu::new(GpuConfig::tiny(), compute_app(8));
    let restored = Gpu::load_snapshot(&gpu.save_snapshot()).unwrap();
    assert_eq!(restored.save_snapshot(), gpu.save_snapshot());
    // Completed GPU (event queue drained, completion recorded).
    let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app(8));
    assert!(gpu.run_to_outcome(Femtos::from_micros(1000)).is_completed());
    let restored = Gpu::load_snapshot(&gpu.save_snapshot()).unwrap();
    assert_eq!(restored.completion_time(), gpu.completion_time());
    assert!(restored.is_done());
}

#[test]
fn truncated_snapshot_rejected() {
    let mut gpu = Gpu::new(GpuConfig::tiny(), compute_app(8));
    gpu.run_epoch(Femtos::from_micros(1));
    let bytes = gpu.save_snapshot();
    // Every strict prefix must fail cleanly (no panic), and short prefixes
    // must report truncation rather than corruption.
    for cut in [0, 3, 4, 10, bytes.len() / 2, bytes.len() - 1] {
        let err = Gpu::load_snapshot(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapError::Truncated | SnapError::BadMagic | SnapError::Corrupt { .. }),
            "cut at {cut}: unexpected error {err}"
        );
    }
}

#[test]
fn corrupted_payload_rejected_by_checksum() {
    let mut gpu = Gpu::new(GpuConfig::tiny(), memory_app(8));
    gpu.run_epoch(Femtos::from_micros(1));
    let bytes = gpu.save_snapshot();
    // Flip one bit in the back half (payload region, past the section
    // table): the per-section CRC must catch it.
    let mut bad = bytes.clone();
    let idx = bad.len() - bad.len() / 4;
    bad[idx] ^= 0x40;
    let err = Gpu::load_snapshot(&bad).unwrap_err();
    assert!(matches!(err, SnapError::Corrupt { .. }), "expected Corrupt, got {err}");
}

#[test]
fn version_mismatch_rejected() {
    let gpu = Gpu::new(GpuConfig::tiny(), compute_app(8));
    let mut bytes = gpu.save_snapshot();
    // Format version lives right after the 4-byte magic, little-endian.
    let future = FORMAT_VERSION + 1;
    bytes[4..6].copy_from_slice(&future.to_le_bytes());
    match Gpu::load_snapshot(&bytes).unwrap_err() {
        SnapError::Version { found, supported } => {
            assert_eq!(found, future);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected Version error, got {other}"),
    }
}

#[test]
fn bad_magic_rejected() {
    let gpu = Gpu::new(GpuConfig::tiny(), compute_app(8));
    let mut bytes = gpu.save_snapshot();
    bytes[0] = b'X';
    assert!(matches!(Gpu::load_snapshot(&bytes).unwrap_err(), SnapError::BadMagic));
}

#[test]
fn missing_section_rejected() {
    // A structurally valid container that simply isn't a GPU snapshot.
    let mut w = snapshot::ContainerWriter::new();
    w.section("config", |e| e.put_u8(1));
    let bytes = w.finish();
    assert!(ContainerReader::parse(&bytes).is_ok());
    let err = Gpu::load_snapshot(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            SnapError::MissingSection { .. } | SnapError::Invalid(_) | SnapError::Truncated
        ),
        "got {err}"
    );
}

#[test]
fn cross_config_tamper_rejected() {
    // Splice the "cus" section of a tiny GPU into a container whose config
    // says something else: the cross-structure validation must refuse it.
    let small = Gpu::new(GpuConfig::tiny(), compute_app(8)).save_snapshot();
    let reader = ContainerReader::parse(&small).unwrap();
    let mut w = snapshot::ContainerWriter::new();
    for name in ["config", "app", "cus", "mem", "sched"] {
        let mut d = reader.section(name).unwrap();
        let payload = d.take_raw(d.remaining()).unwrap().to_vec();
        if name == "cus" {
            // Drop the last CU by rewriting the leading count varint: tiny
            // has 4 CUs, so the count byte is a single varint byte.
            let mut e = snapshot::Encoder::new();
            e.put_usize(3);
            let mut spliced = e.into_bytes();
            // Skip the original count varint (one byte for small counts).
            spliced.extend_from_slice(&payload[1..]);
            w.section(name, |enc| enc.put_raw(&spliced));
        } else {
            w.section(name, |enc| enc.put_raw(&payload));
        }
    }
    let err = Gpu::load_snapshot(&w.finish()).unwrap_err();
    assert!(matches!(err, SnapError::Invalid(_) | SnapError::Truncated), "got {err}");
}

/// The editable fields of a snapshot's "sched" section.
struct Sched {
    wgs_remaining: u32,
    events: Vec<(Femtos, usize)>,
}

/// Re-encodes `bytes` with the "sched" section's workgroup count and event
/// list passed through `edit`; every other byte is copied as is, so the
/// result is CRC-valid.
fn with_sched(bytes: &[u8], mut edit: impl FnMut(&mut Sched)) -> Vec<u8> {
    let reader = ContainerReader::parse(bytes).unwrap();
    let mut w = snapshot::ContainerWriter::new();
    for name in reader.section_names() {
        let mut d = reader.section(name).unwrap();
        if name != "sched" {
            let payload = d.take_raw(d.remaining()).unwrap().to_vec();
            w.section(name, |enc| enc.put_raw(&payload));
            continue;
        }
        let (kernel_idx, next_wg, wgs_remaining) =
            (d.take_usize().unwrap(), d.take_u32().unwrap(), d.take_u32().unwrap());
        let (next_uid, next_age, cursor) =
            (d.take_u64().unwrap(), d.take_u64().unwrap(), d.take_usize().unwrap());
        let now = Femtos::decode(&mut d).unwrap();
        let completion = Option::<Femtos>::decode(&mut d).unwrap();
        let events = Vec::<(Femtos, usize)>::decode(&mut d).unwrap();
        d.finish().unwrap();
        let mut sched = Sched { wgs_remaining, events };
        edit(&mut sched);
        w.section(name, |enc| {
            enc.put_usize(kernel_idx);
            enc.put_u32(next_wg);
            enc.put_u32(sched.wgs_remaining);
            enc.put_u64(next_uid);
            enc.put_u64(next_age);
            enc.put_usize(cursor);
            now.encode(enc);
            completion.encode(enc);
            sched.events.encode(enc);
        });
    }
    w.finish()
}

#[test]
fn event_list_missing_a_scheduled_cu_rejected() {
    let mut gpu = Gpu::new(GpuConfig::tiny(), memory_app(16));
    gpu.run_epoch(Femtos::from_micros(2));
    let bytes = gpu.save_snapshot();
    // The re-encoder itself is faithful: an unedited list is the same bytes.
    assert_eq!(with_sched(&bytes, |_| {}), bytes);
    let dropped = with_sched(&bytes, |s| {
        assert!(s.events.len() > 1, "every tiny-GPU CU is busy after 2 µs");
        s.events.remove(1);
    });
    match Gpu::load_snapshot(&dropped).unwrap_err() {
        SnapError::Invalid(msg) => assert!(msg.contains("no entry"), "got {msg}"),
        other => panic!("expected Invalid, got {other}"),
    }
}

#[test]
fn legacy_stale_event_duplicates_accepted() {
    let mut gpu = Gpu::new(GpuConfig::tiny(), memory_app(16));
    gpu.run_epoch(Femtos::from_micros(2));
    let bytes = gpu.save_snapshot();
    // Older writers could leave superseded entries behind: an earlier time
    // for a scheduled CU and an exact duplicate. Both are ignored on load.
    let stale = with_sched(&bytes, |s| {
        let (t, cu) = s.events[0];
        s.events.insert(0, (Femtos(t.0 - 1), cu));
        s.events.push((t, cu));
    });
    let mut restored = Gpu::load_snapshot(&stale).expect("stale duplicates load");
    assert_eq!(restored.event_queue_len(), gpu.event_queue_len());
    for epoch in 0..4 {
        let a = gpu.run_epoch(Femtos::from_micros(1));
        let b = restored.run_epoch(Femtos::from_micros(1));
        assert_eq!(a, b, "restored GPU diverged at epoch {epoch}");
    }
    assert_eq!(gpu.save_snapshot(), restored.save_snapshot());
}

#[test]
fn workgroup_count_disagreeing_with_cus_rejected() {
    let mut mid_run = Gpu::new(GpuConfig::tiny(), memory_app(16));
    mid_run.run_epoch(Femtos::from_micros(2));
    assert!(!mid_run.is_done());
    let mut completed = Gpu::new(GpuConfig::tiny(), compute_app(8));
    assert!(completed.run_to_outcome(Femtos::from_micros(1000)).is_completed());
    for gpu in [mid_run, completed] {
        let bytes = gpu.save_snapshot();
        let mut count = 0;
        assert_eq!(with_sched(&bytes, |s| count = s.wgs_remaining), bytes);
        // The true count is the undispatched plus the live workgroups
        // (zero once complete); any other count disagrees with the CUs.
        for bad in [0, 1, count + 1].into_iter().filter(|&b| b != count) {
            let edited = with_sched(&bytes, |s| s.wgs_remaining = bad);
            match Gpu::load_snapshot(&edited).unwrap_err() {
                SnapError::Invalid(msg) => assert!(msg.contains("wgs_remaining"), "got {msg}"),
                other => panic!("wgs_remaining {bad} of {count}: expected Invalid, got {other}"),
            }
        }
    }
}

#[test]
fn roundtrip_table_ii_apps_mid_run() {
    for name in ["lulesh", "dgemm", "hacc"] {
        let app = workloads::registry::by_name(name, workloads::registry::Scale::Quick).unwrap();
        let mut probe = Gpu::new(GpuConfig::tiny(), app.clone());
        for _ in 0..3 {
            probe.run_epoch(Femtos::from_micros(1));
        }
        assert!(!probe.is_done(), "{name}: must still be mid-run at the snapshot point");
        assert_restored_equals_original(app, 1700, 3, 3);
    }
}
