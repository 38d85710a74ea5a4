//! A poisoned length prefix in the run cache's pack file neither panics
//! nor allocates: every length is checked against the bytes left before
//! it is used. This test binary installs an allocator that records the
//! largest single request, so "nor allocates" is measured, not assumed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use busbw_experiments::{RunCache, RunCompletion, RunKey, RunResult};

/// The system allocator, recording the largest request it has served.
struct PeakRequest;

static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakRequest = PeakRequest;

fn result() -> RunResult {
    RunResult {
        turnarounds_us: vec![1.5, 2.5],
        mean_turnaround_us: 2.0,
        workload_rate: 1.0,
        measured_apps_rate: 1.0,
        saturated_fraction: 0.5,
        ticks: 10,
        sim_elapsed_us: 100,
        completion: RunCompletion::Finished,
        events: Vec::new(),
        tick_dt_hist: Default::default(),
        memo_hits: 0,
        memo_misses: 0,
        stage_timings: None,
        open: None,
        oracle: None,
        n_levels: 0,
        level_utilization: [0.0; busbw_sim::MAX_BUS_LEVELS],
        level_saturated: [0.0; busbw_sim::MAX_BUS_LEVELS],
    }
}

#[test]
fn poisoned_length_prefix_neither_panics_nor_allocates() {
    let dir = std::env::temp_dir().join(format!("busbw-cache-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("runs.pack");
    let key = RunKey::from_encoded(vec![5; 40]);
    let mut writer = RunCache::new(Some(dir.clone()), true);
    writer.put(key.clone(), Arc::new(result()));
    writer.flush();
    let pristine = std::fs::read(&path).unwrap();

    // Pack layout: 12-byte header, then the record's u64 hash, u32 key
    // length, key, u32 payload length, payload — whose first field is the
    // u64 turnaround count.
    let key_len_at = 12 + 8;
    let payload_len_at = key_len_at + 4 + key.encoded().len();
    let count_at = payload_len_at + 4;
    let poisons: [(usize, &[u8]); 5] = [
        (key_len_at, &u32::MAX.to_le_bytes()),
        (key_len_at, &(u32::MAX - 7).to_le_bytes()),
        (payload_len_at, &u32::MAX.to_le_bytes()),
        (payload_len_at, &(u32::MAX - 1).to_le_bytes()),
        (count_at, &u64::from(u32::MAX).to_le_bytes()),
    ];
    for (at, bytes) in poisons {
        let mut poisoned = pristine.clone();
        poisoned[at..at + bytes.len()].copy_from_slice(bytes);
        std::fs::write(&path, &poisoned).unwrap();
        PEAK.store(0, Ordering::Relaxed);
        let mut c = RunCache::new(Some(dir.clone()), true);
        assert!(c.get(&key).is_none(), "poison at byte {at} misses");
        assert_eq!(c.corrupt_count(), 1, "poison at byte {at} is counted");
        let peak = PEAK.load(Ordering::Relaxed);
        // A poisoned prefix would ask for up to 4 GiB; the largest honest
        // allocation is the pack's image, the size of the file (a few
        // hundred bytes here).
        assert!(
            peak <= 64 * 1024,
            "poison at byte {at}: a {peak}-byte allocation"
        );
    }

    std::fs::write(&path, &pristine).unwrap();
    assert!(RunCache::new(Some(dir.clone()), true).get(&key).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
