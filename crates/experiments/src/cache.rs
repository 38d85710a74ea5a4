//! Content-addressed run cache.
//!
//! Every simulator run is identified by a **run key**: a canonical byte
//! encoding of the fully-resolved run tuple — workload spec, policy,
//! machine config, seed, scale, hard-cap factor, and trace wiring —
//! salted with [`RUN_SCHEMA_VERSION`], plus a word-at-a-time 64-bit hash
//! of it. Key equality compares the encoded bytes, not just the digest,
//! so a hash collision degrades to a cache miss, never to a wrong result.
//!
//! Cached [`RunResult`]s round-trip through the [`busbw_trace::wire`]
//! codec, which stores every `f64` as its IEEE-754 bit pattern, so a
//! cache-served result is **bit-identical** to the fresh run that produced
//! it — including the structured trace events. The cache itself is an
//! in-memory map plus an optional on-disk store (`--cache-dir`): one
//! **pack file** per directory, read once on the first disk probe and
//! rewritten whole by [`RunCache::flush`] through a temp-file rename, so
//! concurrent processes never observe a torn pack.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use busbw_sim::MachineConfig;
use busbw_trace::wire::{Dec, Enc, Wire};
use busbw_workloads::app::{AppSpec, Behavior};
use busbw_workloads::mix::WorkloadSpec;

use crate::policy::{AdmissionKind, EstimatorKind, PlacerKind, SelectorKind, StackSpec};
use crate::runner::{PolicyKind, RunResult, TraceMode};

/// Schema-version salt mixed into every run key and stamped on the pack
/// file. Bump it whenever the [`RunResult`] layout, the canonical key
/// encoding, the run-key hash, or anything that feeds a run's numbers
/// changes: a pack stamped with another version reads as empty, and the
/// next flush replaces it (cache invalidation by content).
///
/// v2: `PolicyKind::Stack` joined the policy encoding, `StageDecision`
/// joined the event codec, and [`RunResult`] grew stage timings.
///
/// v3: the open-system manager runs joined — `RunShape::Open` in the key
/// encoding, `ClientArrived`/`ClientShed`/`ClientDeparted` in the event
/// codec, and [`RunResult`] grew optional [`OpenStats`].
///
/// v4: hierarchical bus topologies joined — [`MachineConfig::topology`]
/// in the machine encoding, the three socket-aware placer kinds in the
/// stack encoding, and `LevelSaturated` in the event codec.
///
/// v5: the offline-optimal oracle joined — `PolicyKind::OfflineOptimal`
/// in the policy encoding and `RunShape::Oracle` in the key encoding
/// (`experiments regret`).
///
/// v6: [`crate::runner::OpenStats`] grew `quanta` and `queue_peak`.
///
/// v7: [`RunResult`] grew optional [`crate::runner::OracleStats`].
///
/// v8: an open cell stores its turnaround histogram
/// ([`crate::runner::OpenStats::turnarounds`]) instead of one turnaround
/// per served client in [`RunResult::turnarounds_us`].
pub const RUN_SCHEMA_VERSION: u32 = 8;

/// Magic bytes opening the pack file.
const PACK_MAGIC: &[u8; 8] = b"BBWPACK\x01";

/// The pack file's name inside the cache directory.
const PACK_FILE: &str = "runs.pack";

// ---------------------------------------------------------------------
// Run keys
// ---------------------------------------------------------------------

/// A content-addressed run identity: the canonical encoding, for
/// collision-proof equality, plus its 64-bit [`key_hash`].
#[derive(Debug, Clone)]
pub struct RunKey {
    hash: u64,
    encoded: Arc<[u8]>,
}

impl RunKey {
    /// Wrap a finished canonical encoding.
    pub fn from_encoded(encoded: Vec<u8>) -> Self {
        Self::from_bytes(&encoded)
    }

    /// Copy a finished canonical encoding into a key of exactly its size:
    /// one allocation, shared by every clone.
    pub(crate) fn from_bytes(encoded: &[u8]) -> Self {
        Self::hashed(key_hash(encoded), encoded)
    }

    /// [`RunKey::from_bytes`] for bytes whose [`key_hash`] is known.
    pub(crate) fn hashed(hash: u64, encoded: &[u8]) -> Self {
        debug_assert_eq!(hash, key_hash(encoded));
        Self {
            hash,
            encoded: Arc::from(encoded),
        }
    }

    /// The 64-bit digest: the memory tier's map hash and the pack index.
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// The canonical encoding the digest was computed over.
    pub fn encoded(&self) -> &[u8] {
        &self.encoded
    }
}

/// The hasher of maps keyed by [`RunKey`]: a key hashes as its
/// [`RunKey::hash64`], which is already mixed over all 64 bits, so the map
/// takes it as is instead of hashing it again.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Builds [`KeyHasher`]s.
pub(crate) type KeyHash = BuildHasherDefault<KeyHasher>;

/// The run-key hash: a word-at-a-time 64-bit mix over the canonical
/// encoding. The byte length seeds the state, so zero-padding the tail
/// word cannot alias keys of different lengths; each little-endian word
/// goes through a multiply and a shift-xor (a bijection of the state for
/// a fixed word, so keys differing in one word never collide), and the
/// murmur3 finalizer spreads the result over all 64 bits. Stored in the
/// pack, so changing it bumps [`RUN_SCHEMA_VERSION`].
pub(crate) fn key_hash(bytes: &[u8]) -> u64 {
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, w: u64| {
        let h = (h ^ w).wrapping_mul(M);
        h ^ (h >> 32)
    };
    let mut words = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = mix(h, u64::from_le_bytes(tail));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

impl PartialEq for RunKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.encoded == other.encoded
    }
}

impl Eq for RunKey {}

impl Hash for RunKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

fn encode_behavior(e: &mut Enc, b: &Behavior) {
    match b {
        Behavior::Constant => e.u8(0),
        Behavior::Oscillating {
            amplitude,
            period_us,
        } => {
            e.u8(1);
            amplitude.put(e);
            period_us.put(e);
        }
        Behavior::Bursty => e.u8(2),
    }
}

fn encode_app_spec(e: &mut Enc, a: &AppSpec) {
    e.str(&a.name);
    a.nthreads.put(e);
    a.work_us_per_thread.put(e);
    a.rate_per_thread.put(e);
    a.mu.put(e);
    a.cache_sensitivity.put(e);
    encode_behavior(e, &a.behavior);
    a.barrier_interval_us.put(e);
}

/// Encode a [`WorkloadSpec`] canonically (names included — they are part
/// of the figure output via unfinished-app reports).
pub(crate) fn encode_workload(e: &mut Enc, w: &WorkloadSpec) {
    e.str(&w.name);
    w.apps.len().put(e);
    for a in &w.apps {
        encode_app_spec(e, a);
    }
    w.measured.put(e);
}

/// Encode a [`PolicyKind`] including every variant payload (window
/// widths, quantum lengths, gang-fill seeds).
pub(crate) fn encode_policy(e: &mut Enc, p: &PolicyKind) {
    match *p {
        PolicyKind::Linux => e.u8(0),
        PolicyKind::Latest => e.u8(1),
        PolicyKind::Window => e.u8(2),
        PolicyKind::WindowN(n) => {
            e.u8(3);
            n.put(e);
        }
        PolicyKind::LatestWithQuantum(q) => {
            e.u8(4);
            q.put(e);
        }
        PolicyKind::RoundRobinGang => e.u8(5),
        PolicyKind::RandomGang(seed) => {
            e.u8(6);
            seed.put(e);
        }
        PolicyKind::GreedyPack => e.u8(7),
        PolicyKind::LinuxO1 => e.u8(8),
        PolicyKind::ModelDriven => e.u8(9),
        PolicyKind::Stack(spec) => {
            e.u8(10);
            encode_stack_spec(e, &spec);
        }
        PolicyKind::OfflineOptimal => e.u8(11),
    }
}

/// Encode a composed stack: every stage choice with its payload, plus the
/// quantum — substituting any single stage must change the run key.
pub(crate) fn encode_stack_spec(e: &mut Enc, s: &StackSpec) {
    match s.estimator {
        EstimatorKind::Latest => e.u8(0),
        EstimatorKind::Window(n) => {
            e.u8(1);
            n.put(e);
        }
        EstimatorKind::Ewma(n) => {
            e.u8(2);
            n.put(e);
        }
        EstimatorKind::Raw => e.u8(3),
        EstimatorKind::Null => e.u8(4),
    }
    e.u8(match s.admission {
        AdmissionKind::Head => 0,
        AdmissionKind::StrictHead => 1,
        AdmissionKind::Fcfs => 2,
        AdmissionKind::Widest => 3,
        AdmissionKind::Open => 4,
    });
    match s.selector {
        SelectorKind::Fitness => e.u8(0),
        SelectorKind::Random(seed) => {
            e.u8(1);
            seed.put(e);
        }
        SelectorKind::Greedy => e.u8(2),
        SelectorKind::Lookahead => e.u8(3),
        SelectorKind::None => e.u8(4),
    }
    e.u8(match s.placer {
        PlacerKind::Packed => 0,
        PlacerKind::Scatter => 1,
        PlacerKind::Smt => 2,
        PlacerKind::PackLocal => 3,
        PlacerKind::SpreadSockets => 4,
        PlacerKind::Migrate => 5,
    });
    s.quantum_us.put(e);
}

/// Encode a [`MachineConfig`]: every field that can change a run's
/// numbers, the bus before the cache before the topology.
pub(crate) fn encode_machine(e: &mut Enc, m: &MachineConfig) {
    m.num_cpus.put(e);
    m.tick_us.put(e);
    m.smt_threads_per_core.put(e);
    m.smt_core_speedup.put(e);
    m.bus.capacity_tx_per_us.put(e);
    m.bus.bytes_per_tx.put(e);
    m.bus.arbitration_per_master.put(e);
    m.bus.active_master_threshold.put(e);
    m.bus.queueing_coeff.put(e);
    m.bus.queueing_exponent.put(e);
    m.cache.warmup_tau_us.put(e);
    m.cache.decay_tau_us.put(e);
    m.cache.cold_demand_boost.put(e);
    m.cache.min_tracked_warmth.put(e);
    m.topology.sockets.put(e);
    m.topology.interconnect_tx_per_us.put(e);
    m.topology.remote_fraction.put(e);
}

/// Encode the trace wiring — collected traces are part of the result, so
/// runs with different wiring must never share a cache entry.
pub(crate) fn encode_trace_mode(e: &mut Enc, t: TraceMode) {
    e.u8(match t {
        TraceMode::Off => 0,
        TraceMode::Null => 1,
        TraceMode::Collect => 2,
    });
}

// ---------------------------------------------------------------------
// RunResult codec
// ---------------------------------------------------------------------

/// Serialize a [`RunResult`] to the bit-exact binary cache payload: its
/// fields in declaration order, each in its [`Wire`] layout. Stage timings
/// are wall-clock observations, not simulation outputs: a cache-served
/// result replays the producing run's readings, which is as meaningful as
/// any other run's (they never feed figure data).
pub fn encode_result(r: &RunResult) -> Vec<u8> {
    let mut e = Enc::new();
    r.put(&mut e);
    e.into_bytes()
}

/// Deserialize a cache payload produced by [`encode_result`], rejecting
/// trailing bytes and a level count past [`busbw_sim::MAX_BUS_LEVELS`].
pub fn decode_result(bytes: &[u8]) -> Result<RunResult, String> {
    let mut d = Dec::new(bytes);
    let r = RunResult::get(&mut d)?;
    d.done()?;
    if r.n_levels > busbw_sim::MAX_BUS_LEVELS {
        return Err(format!("level count {} out of range", r.n_levels));
    }
    Ok(r)
}

// ---------------------------------------------------------------------
// The cache proper
// ---------------------------------------------------------------------

/// Which tier served a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Served from the in-process map.
    Memory,
    /// Loaded (and verified) from the pack file.
    Disk,
}

/// What serving a pack record produced.
#[derive(Debug, Default)]
enum Served {
    /// Not looked up yet: the payload is still only bytes in the image.
    #[default]
    No,
    /// Decoded on its first hit; later hits share it.
    Result(Arc<RunResult>),
    /// The payload failed to decode: it misses, and counted its damage.
    Damaged,
}

/// One record of a pack: its key hash, where its key and payload sit in
/// the pack's image, and what serving it produced.
#[derive(Debug)]
struct Record {
    hash: u64,
    key: Range<usize>,
    payload: Range<usize>,
    served: Served,
}

/// A pack file read into memory as one image and indexed by key hash.
///
/// The file is a header — [`PACK_MAGIC`], then [`RUN_SCHEMA_VERSION`] as a
/// little-endian `u32` — followed by records of `[key hash u64, key len
/// u32, key bytes, payload len u32, payload]`, where the payload is the
/// [`encode_result`] bytes. The index holds each record as ranges into the
/// image, so reading a pack allocates no buffer per record.
#[derive(Debug, Default)]
struct Pack {
    /// The whole file.
    image: Vec<u8>,
    /// Every well-framed record, sorted by hash (stably, so file order
    /// breaks ties).
    index: Vec<Record>,
}

/// A cursor over a pack image. Every length is checked against the bytes
/// left before a range is made from it, so a poisoned prefix fails at
/// once and sizes nothing.
struct Frames<'a> {
    image: &'a [u8],
    at: usize,
}

impl Frames<'_> {
    fn take(&mut self, n: usize) -> Option<Range<usize>> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.image.len())?;
        let span = self.at..end;
        self.at = end;
        Some(span)
    }

    fn word<const N: usize>(&mut self) -> Option<[u8; N]> {
        let span = self.take(N)?;
        self.image[span].try_into().ok()
    }

    /// A `u32`-length-prefixed span.
    fn span(&mut self) -> Option<Range<usize>> {
        let n = u32::from_le_bytes(self.word()?);
        self.take(n as usize)
    }

    /// The next record: `None` at the end of the image, `Some(None)` on a
    /// framing error.
    fn record(&mut self) -> Option<Option<Record>> {
        if self.at == self.image.len() {
            return None;
        }
        let mut frame = || {
            let hash = u64::from_le_bytes(self.word()?);
            let key = self.span()?;
            let payload = self.span()?;
            Some(Record {
                hash,
                key,
                payload,
                served: Served::No,
            })
        };
        Some(frame())
    }
}

impl Pack {
    /// Read and index the pack at `path`, returning it with the number of
    /// damaged spans found. A pack that is missing or cannot be read, or
    /// one stamped with another schema version, is empty and undamaged. A
    /// bad header empties the pack and a framing error drops the records
    /// from it on; each counts one.
    fn read(path: &Path) -> (Self, u64) {
        std::fs::read(path).map_or((Self::default(), 0), Self::index)
    }

    /// Index a pack image (see [`Pack::read`]).
    fn index(image: Vec<u8>) -> (Self, u64) {
        let mut frames = Frames {
            image: &image,
            at: 0,
        };
        let magic = frames.word::<8>().filter(|m| m == PACK_MAGIC);
        let version = magic.and_then(|_| frames.word::<4>());
        match version.map(u32::from_le_bytes) {
            None => return (Self::default(), 1),
            Some(v) if v != RUN_SCHEMA_VERSION => return (Self::default(), 0),
            Some(_) => {}
        }
        let mut index = Vec::new();
        let corrupt = loop {
            match frames.record() {
                None => break 0,
                Some(None) => break 1,
                Some(Some(record)) => index.push(record),
            }
        };
        index.sort_by_key(|r| r.hash);
        (Self { image, index }, corrupt)
    }

    /// The key and payload bytes of `r`.
    fn parts(&self, r: &Record) -> (&[u8], &[u8]) {
        (&self.image[r.key.clone()], &self.image[r.payload.clone()])
    }

    /// The undamaged record stored under `key`, with the image: found by
    /// hash, confirmed by the full key bytes.
    fn find(&mut self, key: &RunKey) -> Option<(&[u8], &mut Record)> {
        let from = self.index.partition_point(|r| r.hash < key.hash64());
        let image = &self.image;
        let record = self.index[from..]
            .iter_mut()
            .take_while(|r| r.hash == key.hash64())
            .filter(|r| !matches!(r.served, Served::Damaged))
            .find(|r| image[r.key.clone()] == *key.encoded())?;
        Some((image, record))
    }
}

/// Frame one pack record. Both spans are checked before anything is
/// written, so an unframeable record fails the flush, never the pack.
fn write_record(w: &mut impl Write, hash: u64, key: &[u8], payload: &[u8]) -> std::io::Result<()> {
    let len = |b: &[u8]| u32::try_from(b.len()).map_err(std::io::Error::other);
    let (key_len, payload_len) = (len(key)?, len(payload)?);
    w.write_all(&hash.to_le_bytes())?;
    w.write_all(&key_len.to_le_bytes())?;
    w.write_all(key)?;
    w.write_all(&payload_len.to_le_bytes())?;
    w.write_all(payload)
}

/// Stream `old`'s intact records, less those a `new` entry replaces,
/// then the `new` entries into a temp file in `dir`, and rename it over
/// `path`. Payloads are encoded one at a
/// time, so the write holds no more than one of them beyond the write
/// buffer.
fn write_pack(
    dir: &Path,
    path: &Path,
    old: &Pack,
    new: &[(RunKey, Arc<RunResult>)],
) -> std::io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".{PACK_FILE}.{}-{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let replaced: HashSet<(u64, &[u8])> =
        new.iter().map(|(k, _)| (k.hash64(), k.encoded())).collect();
    let written = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        w.write_all(PACK_MAGIC)?;
        w.write_all(&RUN_SCHEMA_VERSION.to_le_bytes())?;
        for r in &old.index {
            let (key, payload) = old.parts(r);
            // A record whose key no longer hashes to its stored hash is
            // damaged (it can never hit): drop it rather than carry it.
            if key_hash(key) == r.hash && !replaced.contains(&(r.hash, key)) {
                write_record(&mut w, r.hash, key, payload)?;
            }
        }
        for (key, result) in new {
            write_record(&mut w, key.hash64(), key.encoded(), &encode_result(result))?;
        }
        w.into_inner().map_err(|e| e.into_error())?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// In-memory + optional on-disk store of [`RunResult`]s keyed by
/// [`RunKey`].
///
/// The disk tier is one pack file, `runs.pack`, in the cache directory.
/// The first lookup that misses memory reads the whole pack into one
/// image and indexes it; later lookups never touch the file system, and a
/// record decoded on its first hit keeps its result for the next. The
/// memory tier holds only what [`RunCache::put`] stored. A put only
/// buffers for the disk; [`RunCache::flush`] (which
/// [`crate::Engine::execute`] calls once after its puts, and `Drop` calls
/// as a fallback) writes the buffered results to the pack.
#[derive(Debug, Default)]
pub struct RunCache {
    mem: HashMap<RunKey, Arc<RunResult>, KeyHash>,
    dir: Option<PathBuf>,
    enabled: bool,
    /// The pack, read on the first disk probe.
    pack: Option<Pack>,
    /// Results put since the last flush, in put order.
    pending: Vec<(RunKey, Arc<RunResult>)>,
    /// Damaged pack spans and payloads seen. Every corrupt read degrades
    /// to a miss; this counter makes the degradation observable as the
    /// `cache.corrupt` metric.
    corrupt: u64,
}

impl RunCache {
    /// A cache with an optional disk directory. `enabled = false` turns
    /// every lookup into a miss and every store into a no-op
    /// (`--no-cache`).
    pub fn new(dir: Option<PathBuf>, enabled: bool) -> Self {
        Self {
            mem: HashMap::default(),
            dir,
            enabled,
            pack: None,
            pending: Vec::new(),
            corrupt: 0,
        }
    }

    /// Check that the disk tier can store entries: create its directory,
    /// then write and remove a probe file. On failure the disk tier is
    /// dropped, so the cache keeps working in memory only, and the error
    /// is returned for the caller to report.
    pub fn check_disk(&mut self) -> std::io::Result<()> {
        let Some(dir) = self.dir.clone().filter(|_| self.enabled) else {
            return Ok(());
        };
        let probe = dir.join(format!(".probe{}", std::process::id()));
        let checked = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&probe, b""))
            .and_then(|()| std::fs::remove_file(&probe));
        if checked.is_err() {
            self.dir = None;
        }
        checked
    }

    /// True when lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Damaged pack spans and payloads seen since this cache was created.
    pub fn corrupt_count(&self) -> u64 {
        self.corrupt
    }

    /// Look `key` up, memory first, then the pack (read on the first such
    /// probe). A pack hit is confirmed against the full encoded key and
    /// decoded on its first lookup; the record keeps the result, so later
    /// lookups share it from memory. A payload that fails to decode is
    /// counted corrupt, once, and misses.
    pub fn get(&mut self, key: &RunKey) -> Option<(Arc<RunResult>, CacheTier)> {
        if !self.enabled {
            return None;
        }
        if let Some(r) = self.mem.get(key) {
            return Some((Arc::clone(r), CacheTier::Memory));
        }
        let dir = self.dir.as_ref()?;
        let pack = self.pack.get_or_insert_with(|| {
            let (pack, corrupt) = Pack::read(&dir.join(PACK_FILE));
            self.corrupt += corrupt;
            pack
        });
        let (image, record) = pack.find(key)?;
        if let Served::Result(r) = &record.served {
            return Some((Arc::clone(r), CacheTier::Memory));
        }
        match decode_result(&image[record.payload.clone()]).map(Arc::new) {
            Ok(result) => {
                record.served = Served::Result(Arc::clone(&result));
                Some((result, CacheTier::Disk))
            }
            Err(_) => {
                record.served = Served::Damaged;
                self.corrupt += 1;
                None
            }
        }
    }

    /// Store a result under `key` in memory and, when a directory is
    /// configured, buffer it for the next [`RunCache::flush`].
    pub fn put(&mut self, key: RunKey, result: Arc<RunResult>) {
        if !self.enabled {
            return;
        }
        if self.dir.is_some() {
            self.pending.push((key.clone(), Arc::clone(&result)));
        }
        self.mem.insert(key, result);
    }

    /// Write the results put since the last flush to the pack: re-read
    /// the pack on disk, merge the new results in, stream the merge to a
    /// temp file and rename it into place. The rename is atomic, so
    /// concurrent writers never tear the pack; the last rename wins, and a
    /// result it drops is just a later miss. A pack of another schema
    /// version merges as empty, so the flush replaces it. Write failures
    /// are silent — the cache is an accelerator, never a correctness
    /// dependency.
    pub fn flush(&mut self) {
        let Some(dir) = self.dir.as_ref().filter(|_| !self.pending.is_empty()) else {
            return;
        };
        let path = dir.join(PACK_FILE);
        // Damage on disk was counted by the read that served lookups.
        let (on_disk, _) = Pack::read(&path);
        let _ = write_pack(dir, &path, &on_disk, &self.pending);
        self.pending.clear();
    }

    /// Number of results put in memory.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }
}

impl Drop for RunCache {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunCompletion, UnfinishedApp};
    use busbw_sim::TickDtHist;
    use busbw_trace::{fnv1a64, TraceEvent};

    fn sample_result() -> RunResult {
        let mut hist = TickDtHist::default();
        hist.record(1);
        hist.record(130);
        RunResult {
            turnarounds_us: vec![1.5, f64::consts_hack(), 3.25e-300],
            mean_turnaround_us: 2.0,
            workload_rate: 28.34,
            measured_apps_rate: 10.65,
            saturated_fraction: 0.97,
            ticks: 12345,
            sim_elapsed_us: 678_900,
            completion: RunCompletion::HardCap {
                unfinished: vec![UnfinishedApp {
                    name: "CG \"x\"".into(),
                    progress_frac: 0.42,
                }],
            },
            // Every event variant, so the pins below cover the whole
            // taxonomy's binary and JSON layouts.
            events: vec![
                TraceEvent::Placement {
                    at_us: 0,
                    cpu: 3,
                    thread: 9,
                    app: 2,
                    cold: true,
                },
                TraceEvent::PhaseEdge {
                    at_us: 40,
                    thread: 9,
                    rate: 23.6,
                    mu: f64::consts_hack(),
                },
                TraceEvent::CoarseJump {
                    at_us: 50,
                    dt_us: 1900,
                    ticks_covered: 19,
                },
                TraceEvent::BusSolve {
                    at_us: 100,
                    lambda: 1.65,
                    utilization: 1.0,
                    saturated: true,
                    requesters: 4,
                },
                TraceEvent::AppFinished {
                    at_us: 200,
                    app: 1,
                    turnaround_us: 199,
                },
                TraceEvent::HeadAdmission {
                    at_us: 300,
                    app: 2,
                    width: 4,
                },
                TraceEvent::GangSelected {
                    at_us: 300,
                    app: 3,
                    width: 2,
                    fitness: 0.75,
                    available_per_proc: f64::INFINITY,
                },
                TraceEvent::Reconstruct {
                    at_us: 400,
                    app: 3,
                    measured_per_thread: 4.2,
                    dilation: 1.3,
                    demand_per_thread: 5.46,
                },
                TraceEvent::RunUnfinished {
                    at_us: 500,
                    app: 2,
                    name: "CG \"x\"".into(),
                    progress_frac: 0.42,
                },
                TraceEvent::MgrConnect {
                    client: 11,
                    threads: 4,
                },
                TraceEvent::MgrGate {
                    client: 11,
                    thread: 3,
                    resumed: false,
                    blocks: 2,
                    unblocks: 1,
                },
                TraceEvent::MgrSignalReorder {
                    client: 11,
                    thread: 3,
                },
                TraceEvent::MgrDisconnect { client: 11 },
                TraceEvent::StageDecision {
                    at_us: 600,
                    stage: busbw_trace::PipelineStage::Select,
                    items: 2,
                },
                TraceEvent::ClientArrived {
                    at_us: 700,
                    client: 4,
                    width: 2,
                },
                TraceEvent::ClientShed {
                    at_us: 710,
                    arrival: 5,
                    live: 8,
                },
                TraceEvent::ClientDeparted {
                    at_us: 720,
                    client: 4,
                    turnaround_us: 20,
                },
                TraceEvent::LevelSaturated {
                    at_us: 730,
                    level: 2,
                    utilization: 1.0,
                    dilation: 1.4,
                },
            ],
            tick_dt_hist: hist,
            memo_hits: 7,
            memo_misses: 3,
            stage_timings: {
                let mut t = busbw_sim::StageTimings::default();
                t.stages[0].record_ns(120);
                t.stages[2].record_ns(9_999);
                Some(t)
            },
            open: Some(crate::runner::OpenStats {
                arrived: 120,
                shed: 7,
                served: 110,
                duration_us: 5_000_000,
                overhead_us: 31_415,
                quanta: 25,
                queue_peak: 8,
                mean_slowdown: f64::consts_hack(),
                turnarounds: {
                    let mut h = busbw_metrics::Histogram::new(busbw_managerd::turnaround_bounds());
                    for t in [20.0, 1_500.0, 1_500.0, 2e9] {
                        h.record(t);
                    }
                    crate::runner::Turnarounds(h)
                },
            }),
            oracle: Some(crate::runner::OracleStats {
                nodes: 2000,
                leaves: 29,
                bound_prunes: 1468,
                presim_prunes: 1081,
                complete: false,
                best_cost_us: 2_499_597,
                root_lower_bound_us: 1_259_997,
            }),
            n_levels: 3,
            level_utilization: {
                let mut u = [0.0; busbw_sim::MAX_BUS_LEVELS];
                u[0] = 1.0;
                u[1] = 0.42;
                u[2] = f64::consts_hack();
                u
            },
            level_saturated: {
                let mut s = [0.0; busbw_sim::MAX_BUS_LEVELS];
                s[0] = 0.97;
                s
            },
        }
    }

    // A denormal-ish odd value exercising bit-exactness.
    trait F64Hack {
        fn consts_hack() -> f64;
    }
    impl F64Hack for f64 {
        fn consts_hack() -> f64 {
            f64::from_bits(0x3FF0_0000_0000_0001) // 1.0 + 1 ulp
        }
    }

    #[test]
    fn result_codec_round_trips_bit_exactly() {
        let r = sample_result();
        let bytes = encode_result(&r);
        let back = decode_result(&bytes).expect("decodes");
        assert_eq!(back.turnarounds_us.len(), r.turnarounds_us.len());
        for (a, b) in r.turnarounds_us.iter().zip(&back.turnarounds_us) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            back.mean_turnaround_us.to_bits(),
            r.mean_turnaround_us.to_bits()
        );
        assert_eq!(back.workload_rate.to_bits(), r.workload_rate.to_bits());
        assert_eq!(back.completion, r.completion);
        assert_eq!(back.events, r.events);
        assert_eq!(back.tick_dt_hist, r.tick_dt_hist);
        assert_eq!(back.memo_hits, 7);
        assert_eq!(back.memo_misses, 3);
        assert_eq!(back.stage_timings, r.stage_timings);
        assert_eq!(back.open, r.open);
        assert_eq!(back.oracle, r.oracle);
        assert_eq!(
            back.open.unwrap().mean_slowdown.to_bits(),
            r.open.unwrap().mean_slowdown.to_bits()
        );
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let bytes = encode_result(&sample_result());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_result(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is also rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_result(&long).is_err());
    }

    /// FNV-1a digests of [`sample_result`]'s payload and of its trace as
    /// JSONL. Either moving means the wire or the trace format changed:
    /// the payload needs a [`RUN_SCHEMA_VERSION`] bump, the JSONL a note
    /// for every trace consumer.
    const SAMPLE_PAYLOAD_FNV: u64 = 0x2ce2_e76b_8628_d367;
    const SAMPLE_JSONL_FNV: u64 = 0x80a9_6943_9ef7_8c37;

    #[test]
    fn sample_result_payload_and_jsonl_are_pinned() {
        let r = sample_result();
        let kinds: HashSet<&str> = r.events.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds.len(), 18, "the fixture holds every event variant");
        let bytes = encode_result(&r);
        let jsonl: Vec<String> = r.events.iter().map(TraceEvent::to_json).collect();
        let jsonl = jsonl.join("\n");
        assert_eq!(
            (fnv1a64(&bytes), fnv1a64(jsonl.as_bytes())),
            (SAMPLE_PAYLOAD_FNV, SAMPLE_JSONL_FNV),
            "payload {:#018x}, jsonl {:#018x}",
            fnv1a64(&bytes),
            fnv1a64(jsonl.as_bytes())
        );
        let back = decode_result(&bytes).expect("decodes");
        assert_eq!(encode_result(&back), bytes);
    }

    /// The offset of the only occurrence of `word`'s little-endian bytes.
    fn offset_of(bytes: &[u8], word: u64) -> usize {
        let needle = word.to_le_bytes();
        let hits: Vec<usize> = bytes
            .windows(8)
            .enumerate()
            .filter(|(_, w)| *w == needle)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 1, "marker {word:#x} occurs once");
        hits[0]
    }

    #[test]
    fn decode_rejects_bad_tags_and_lengths() {
        // Marker values place each field in the payload without
        // hard-coding the layout.
        const ELAPSED: u64 = 0x5EED_0000_0000_0001;
        const MISSES: u64 = 0x5EED_0000_0000_0002;
        const CLIENT: u64 = 0x5EED_0000_0000_0003;
        const STAGE_AT: u64 = 0x5EED_0000_0000_0004;
        const ARRIVED: u64 = 0x5EED_0000_0000_0005;
        const NODES: u64 = 0x5EED_0000_0000_0006;
        const LEVEL0: u64 = 0x5EED_0000_0000_0007;
        let mut r = sample_result();
        r.sim_elapsed_us = ELAPSED;
        r.memo_misses = MISSES;
        r.events
            .insert(0, TraceEvent::MgrDisconnect { client: CLIENT });
        r.events.push(TraceEvent::StageDecision {
            at_us: STAGE_AT,
            stage: busbw_trace::PipelineStage::Place,
            items: 1,
        });
        r.open.as_mut().unwrap().arrived = ARRIVED;
        r.oracle.as_mut().unwrap().nodes = NODES;
        r.level_utilization[0] = f64::from_bits(LEVEL0);
        let good = encode_result(&r);
        assert!(decode_result(&good).is_ok());

        let first_event = offset_of(&good, CLIENT) - 1;
        let n_levels = offset_of(&good, LEVEL0) - 8;
        let mut cases: Vec<(&str, usize, Vec<u8>)> = vec![
            ("unknown event tag", first_event, vec![18]),
            ("stage index 4", offset_of(&good, STAGE_AT) + 8, vec![4]),
            (
                "n_levels past MAX_BUS_LEVELS",
                n_levels,
                (busbw_sim::MAX_BUS_LEVELS as u64 + 1)
                    .to_le_bytes()
                    .to_vec(),
            ),
            ("completion tag 2", offset_of(&good, ELAPSED) + 8, vec![2]),
            ("stage_timings tag 2", offset_of(&good, MISSES) + 8, vec![2]),
            ("open tag 2", offset_of(&good, ARRIVED) - 1, vec![2]),
            ("oracle tag 2", offset_of(&good, NODES) - 1, vec![2]),
        ];
        // Sequence lengths one element past what the bytes left can hold:
        // the turnarounds (8-byte elements) lead the payload, and the event
        // count precedes the first event.
        let turnarounds = (good.len() as u64 - 8) / 8 + 1;
        cases.push(("turnaround count", 0, turnarounds.to_le_bytes().to_vec()));
        let events = (good.len() - first_event) as u64;
        cases.push((
            "event count",
            first_event - 8,
            events.to_le_bytes().to_vec(),
        ));
        for (what, at, patch) in cases {
            let mut bad = good.clone();
            bad[at..at + patch.len()].copy_from_slice(&patch);
            assert!(decode_result(&bad).is_err(), "{what} must be rejected");
        }

        // Two turnaround histograms no serve records, each otherwise well
        // framed. The histogram follows `OpenStats`' seven counters and
        // mean slowdown: a bucket-count prefix, the counts, then the count.
        let hist = offset_of(&good, ARRIVED) + 8 * 8;
        let buckets = busbw_managerd::turnaround_bounds().len() + 1;
        let word = |at: usize| u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
        assert_eq!(word(hist), buckets as u64);
        let count_at = hist + 8 + 8 * buckets;
        let empty = (1..buckets)
            .map(|i| hist + 8 * (i + 1))
            .find(|&at| word(at) == 0)
            .expect("an empty bucket");
        let mut short = good.clone();
        short.drain(empty..empty + 8);
        short[hist..hist + 8].copy_from_slice(&(buckets as u64 - 1).to_le_bytes());
        let mut miscounted = good.clone();
        miscounted[count_at..count_at + 8].copy_from_slice(&(word(count_at) + 1).to_le_bytes());
        for (what, bad) in [
            ("a bucket short of bounds + 1", short),
            ("counts off the count", miscounted),
        ] {
            let err = decode_result(&bad).expect_err(what);
            assert!(err.contains("bucket counts"), "{what}: {err}");
        }
    }

    #[test]
    fn run_keys_compare_by_content_not_digest() {
        let a = RunKey::from_encoded(vec![1, 2, 3]);
        let b = RunKey::from_encoded(vec![1, 2, 3]);
        let c = RunKey::from_encoded(vec![1, 2, 4]);
        assert_eq!(a, b);
        assert_eq!(a.hash64(), b.hash64());
        assert_ne!(a, c);
    }

    #[test]
    fn key_hash_separates_padded_lengths_and_single_bit_flips() {
        let h = |bytes: &[u8]| key_hash(bytes);
        // The zero-padded tail word cannot alias a shorter key.
        assert_ne!(h(&[]), h(&[0]));
        assert_ne!(h(&[1, 2, 3]), h(&[1, 2, 3, 0]));
        assert_ne!(h(&[0; 8]), h(&[0; 16]));
        // Every single-bit flip of a multi-word key gives a new hash.
        let base: Vec<u8> = (0..27).collect();
        let mut seen = std::collections::HashSet::from([h(&base)]);
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(h(&flipped)), "flip of bit {bit} collides");
        }
    }

    /// An empty scratch cache directory unique to this process and label.
    fn scratch_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("busbw-cache-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `n` distinct keys of assorted lengths, each with its own result.
    fn entries(n: u8) -> Vec<(RunKey, Arc<RunResult>)> {
        (0..n)
            .map(|i| {
                let mut r = sample_result();
                r.ticks += u64::from(i);
                let key = RunKey::from_encoded(vec![i; 3 + 5 * usize::from(i)]);
                (key, Arc::new(r))
            })
            .collect()
    }

    /// Put `entries` through one cache over `dir`, then flush.
    fn fill(dir: &Path, entries: &[(RunKey, Arc<RunResult>)]) {
        let mut c = RunCache::new(Some(dir.to_path_buf()), true);
        for (k, r) in entries {
            c.put(k.clone(), Arc::clone(r));
        }
        c.flush();
    }

    /// The names of the files in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn disk_cache_round_trips_and_survives_corruption() {
        let dir = scratch_dir("round-trip");
        let path = dir.join(PACK_FILE);
        let key = RunKey::from_encoded(vec![9, 9, 9]);
        let r = Arc::new(sample_result());

        let mut c1 = RunCache::new(Some(dir.clone()), true);
        assert!(c1.get(&key).is_none());
        c1.put(key.clone(), Arc::clone(&r));
        assert!(!path.exists(), "put only buffers");
        c1.flush();
        assert_eq!(listing(&dir), [PACK_FILE]);
        // Fresh cache (cold memory): must come back from the pack.
        let mut c2 = RunCache::new(Some(dir.clone()), true);
        let (got, tier) = c2.get(&key).expect("disk hit");
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(encode_result(&got), encode_result(&r));
        // Second get is served from memory.
        let (_, tier) = c2.get(&key).expect("mem hit");
        assert_eq!(tier, CacheTier::Memory);

        // Dropping a cache flushes what it buffered, merged with the pack.
        let other = RunKey::from_encoded(vec![8]);
        RunCache::new(Some(dir.clone()), true).put(other.clone(), Arc::clone(&r));
        let mut c3 = RunCache::new(Some(dir.clone()), true);
        assert!(c3.get(&key).is_some() && c3.get(&other).is_some());

        // Corrupt the pack: every entry degrades to a miss, and the damage
        // is counted.
        let pristine = std::fs::read(&path).unwrap();
        std::fs::write(&path, b"garbage").unwrap();
        let mut c4 = RunCache::new(Some(dir.clone()), true);
        assert!(c4.get(&key).is_none() && c4.get(&other).is_none());
        assert_eq!(c4.corrupt_count(), 1);

        // The pristine bytes hit again.
        std::fs::write(&path, &pristine).unwrap();
        let mut c5 = RunCache::new(Some(dir.clone()), true);
        assert!(c5.get(&key).is_some() && c5.get(&other).is_some());
        assert_eq!(c5.corrupt_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_flip_fuzz_never_panics_and_counts_damage() {
        // Write a three-record pack, then re-read it under systematic
        // single-byte flips and truncations. Every lookup must either miss
        // cleanly or produce *some* decoded result — never panic, never
        // over-allocate on a poisoned length prefix. (A flip in a payload
        // f64 can still decode; the key bytes are identity-checked.)
        let dir = scratch_dir("fuzz");
        let entries = entries(3);
        fill(&dir, &entries);
        let path = dir.join(PACK_FILE);
        let pristine = std::fs::read(&path).unwrap();
        let read = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let mut c = RunCache::new(Some(dir.clone()), true);
            let hits: Vec<bool> = entries.iter().map(|(k, _)| c.get(k).is_some()).collect();
            (hits, c.corrupt_count())
        };

        let mut rejected = 0;
        let mut corrupt_total = 0;
        // Flip one byte at a time across the whole pack (stride 3 keeps the
        // loop fast while still covering header, hashes, lengths, keys and
        // payloads), plus a sweep of truncation lengths.
        for pos in (0..pristine.len()).step_by(3) {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutated = pristine.clone();
                mutated[pos] ^= mask;
                let (hits, corrupt) = read(&mutated);
                rejected += hits.iter().filter(|&&h| !h).count();
                corrupt_total += corrupt;
            }
        }
        for cut in (0..pristine.len()).step_by(7) {
            let (hits, corrupt) = read(&pristine[..cut]);
            // Records are written in put order, so the last one is cut.
            assert!(!hits[2], "truncation at {cut} cannot serve the last record");
            corrupt_total += corrupt;
        }
        assert!(rejected > 0, "some flips must be rejected");
        assert!(corrupt_total > 0, "damaged packs must tick the counter");

        // The pristine bytes still hit afterwards: rejection is per-read,
        // not sticky.
        assert_eq!(read(&pristine), (vec![true; 3], 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_schema_pack_reads_as_empty_and_the_next_flush_replaces_it() {
        let dir = scratch_dir("stale");
        let path = dir.join(PACK_FILE);
        let entries = entries(2);
        fill(&dir, &entries[..1]);
        let version = PACK_MAGIC.len()..PACK_MAGIC.len() + 4;
        let mut stale = std::fs::read(&path).unwrap();
        stale[version.clone()].copy_from_slice(&(RUN_SCHEMA_VERSION - 1).to_le_bytes());
        std::fs::write(&path, &stale).unwrap();

        let mut c = RunCache::new(Some(dir.clone()), true);
        assert!(c.get(&entries[0].0).is_none());
        assert_eq!(c.corrupt_count(), 0, "a stale pack is not damage");
        c.put(entries[1].0.clone(), Arc::clone(&entries[1].1));
        c.flush();

        assert_eq!(
            std::fs::read(&path).unwrap()[version],
            RUN_SCHEMA_VERSION.to_le_bytes()
        );
        let mut fresh = RunCache::new(Some(dir.clone()), true);
        assert!(
            fresh.get(&entries[0].0).is_none(),
            "stale records are not carried over"
        );
        assert!(fresh.get(&entries[1].0).is_some());
        assert_eq!(fresh.corrupt_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_run_files_are_ignored() {
        let dir = scratch_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let (key, r) = &entries(1)[0];
        // A per-cell entry in the old layout — magic, version, key length,
        // key, payload — under its old name, plus a damaged one.
        let mut legacy = b"BBWRUN\x00\x01".to_vec();
        legacy.extend(RUN_SCHEMA_VERSION.to_le_bytes());
        legacy.extend((key.encoded().len() as u32).to_le_bytes());
        legacy.extend(key.encoded());
        legacy.extend(encode_result(r));
        let old_name = format!("{:016x}.run", fnv1a64(key.encoded()));
        std::fs::write(dir.join(&old_name), &legacy).unwrap();
        std::fs::write(dir.join("0123456789abcdef.run"), b"garbage").unwrap();

        let mut c = RunCache::new(Some(dir.clone()), true);
        assert!(c.get(key).is_none(), "per-cell files are not read");
        assert_eq!(c.corrupt_count(), 0);
        c.put(key.clone(), Arc::clone(r));
        c.flush();
        let mut want = vec![
            "0123456789abcdef.run".to_string(),
            old_name,
            PACK_FILE.to_string(),
        ];
        want.sort();
        assert_eq!(listing(&dir), want);
        let mut warm = RunCache::new(Some(dir.clone()), true);
        assert_eq!(warm.get(key).map(|(_, t)| t), Some(CacheTier::Disk));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flush_drops_records_whose_key_was_damaged() {
        let dir = scratch_dir("damaged-key");
        let path = dir.join(PACK_FILE);
        let entries = entries(2);
        fill(&dir, &entries[..1]);
        // Flip the first key byte: after the header, the hash and the key
        // length.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PACK_MAGIC.len() + 4 + 8 + 4] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut c = RunCache::new(Some(dir.clone()), true);
        assert!(c.get(&entries[0].0).is_none(), "a damaged key cannot hit");

        fill(&dir, &entries[1..]);
        let (mut pack, corrupt) = Pack::read(&path);
        assert_eq!(corrupt, 0);
        assert_eq!(pack.index.len(), 1, "only the intact record is carried");
        assert!(pack.find(&entries[1].0).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_writers_over_one_directory_keep_every_flushed_entry() {
        // Two caches over one directory put and flush in interleaved order.
        // Each flush merges with the pack on disk, so after every flush the
        // pack parses cleanly and serves every entry flushed so far, bit
        // for bit.
        let dir = scratch_dir("interleaved");
        let path = dir.join(PACK_FILE);
        let entries = entries(6);
        let mut writers = [
            RunCache::new(Some(dir.clone()), true),
            RunCache::new(Some(dir.clone()), true),
        ];
        let mut pending: [Vec<usize>; 2] = Default::default();
        let mut flushed = Vec::new();
        // (writer, Some(entry) to put it, None to flush)
        let schedule = [
            (0, Some(0)),
            (1, Some(1)),
            (1, None),
            (0, Some(2)),
            (0, None),
            (1, Some(3)),
            (0, Some(4)),
            (1, None),
            (0, None),
            (1, Some(5)),
            (1, None),
        ];
        for (w, step) in schedule {
            if let Some(i) = step {
                writers[w].put(entries[i].0.clone(), Arc::clone(&entries[i].1));
                pending[w].push(i);
                continue;
            }
            writers[w].flush();
            flushed.append(&mut pending[w]);
            assert_eq!(Pack::read(&path).1, 0, "the pack parses cleanly");
            let mut fresh = RunCache::new(Some(dir.clone()), true);
            for &i in &flushed {
                let (got, tier) = fresh.get(&entries[i].0).expect("a flushed entry survives");
                assert_eq!(tier, CacheTier::Disk);
                assert_eq!(encode_result(&got), encode_result(&entries[i].1));
            }
        }
        assert_eq!(flushed.len(), entries.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_flushes_never_tear_the_pack() {
        // Two threads flush over one directory at once. The last rename
        // wins, so an entry may be lost to a later miss, but the pack
        // always parses and every hit is bit-identical.
        let dir = scratch_dir("concurrent");
        let entries = entries(40);
        std::thread::scope(|s| {
            for t in 0..2 {
                let (dir, entries) = (&dir, &entries);
                s.spawn(move || {
                    for (k, r) in entries.iter().skip(t).step_by(2) {
                        let mut c = RunCache::new(Some(dir.clone()), true);
                        c.put(k.clone(), Arc::clone(r));
                        c.flush();
                        assert_eq!(Pack::read(&dir.join(PACK_FILE)).1, 0);
                    }
                });
            }
        });
        let mut fresh = RunCache::new(Some(dir.clone()), true);
        let mut hits = 0;
        for (k, r) in &entries {
            if let Some((got, _)) = fresh.get(k) {
                assert_eq!(encode_result(&got), encode_result(r));
                hits += 1;
            }
        }
        assert!(hits > 0);
        assert_eq!(fresh.corrupt_count(), 0);
        assert_eq!(listing(&dir), [PACK_FILE], "no temp file is left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pack record as the oracle reads it: hash, key, payload.
    type Framed = (u64, Vec<u8>, Vec<u8>);

    /// The streamed pack reader the one-image [`Pack`] replaced, kept as
    /// its oracle: it reads the file through a 64 KiB buffer, checks each
    /// length against the bytes left in the file, and copies every record
    /// into vectors of its own.
    struct PackReader {
        file: std::io::BufReader<File>,
        left: u64,
    }

    impl PackReader {
        fn claim(&mut self, n: u64) -> std::io::Result<()> {
            self.left = self
                .left
                .checked_sub(n)
                .ok_or(std::io::ErrorKind::UnexpectedEof)?;
            Ok(())
        }

        fn word<const N: usize>(&mut self) -> std::io::Result<[u8; N]> {
            use std::io::Read;
            self.claim(N as u64)?;
            let mut w = [0; N];
            self.file.read_exact(&mut w)?;
            Ok(w)
        }

        fn span(&mut self) -> std::io::Result<Vec<u8>> {
            use std::io::Read;
            let n = u32::from_le_bytes(self.word()?);
            self.claim(n.into())?;
            let mut bytes = vec![0; n as usize];
            self.file.read_exact(&mut bytes)?;
            Ok(bytes)
        }

        /// Every well-framed `(hash, key, payload)` record of the pack at
        /// `path`, sorted stably by hash, and the damage counted.
        fn read(path: &Path) -> (Vec<Framed>, u64) {
            let Ok(file) = File::open(path) else {
                return (Vec::new(), 0);
            };
            let mut r = PackReader {
                left: file.metadata().map_or(0, |m| m.len()),
                file: std::io::BufReader::with_capacity(64 << 10, file),
            };
            let magic = r.word::<8>().ok().filter(|m| m == PACK_MAGIC);
            let version = magic.and_then(|_| r.word::<4>().ok());
            match version.map(u32::from_le_bytes) {
                None => return (Vec::new(), 1),
                Some(v) if v != RUN_SCHEMA_VERSION => return (Vec::new(), 0),
                Some(_) => {}
            }
            let mut records = Vec::new();
            let mut corrupt = 0;
            while r.left > 0 {
                let record = (|| {
                    Ok::<_, std::io::Error>((u64::from_le_bytes(r.word()?), r.span()?, r.span()?))
                })();
                match record {
                    Ok(record) => records.push(record),
                    Err(_) => {
                        corrupt = 1;
                        break;
                    }
                }
            }
            records.sort_by_key(|r| r.0);
            (records, corrupt)
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// How one generated pack is damaged before it is read.
        #[derive(Debug, Clone)]
        enum Damage {
            None,
            /// XOR the byte at this fraction of the file with a mask.
            Flip(f64, u8),
            /// Keep this fraction of the file.
            Truncate(f64),
            /// Overwrite the key (or payload) length of one record.
            Poison {
                record: usize,
                payload: bool,
                len: u32,
            },
            /// Stamp the header with another schema version.
            Stale,
        }

        fn damage() -> impl Strategy<Value = Damage> {
            (
                0u8..5,
                (0.0..1.0, 1u8..=255),
                (
                    0usize..8,
                    any::<bool>(),
                    any::<u32>(),
                    0u32..64,
                    any::<bool>(),
                ),
            )
                .prop_map(|(kind, (at, mask), (record, payload, huge, small, big))| {
                    match kind {
                        0 => Damage::None,
                        1 => Damage::Flip(at, mask),
                        2 => Damage::Truncate(at),
                        3 => Damage::Poison {
                            record,
                            payload,
                            len: if big { huge } else { small },
                        },
                        _ => Damage::Stale,
                    }
                })
        }

        /// Records of random hashes (few distinct, so hashes tie), keys and
        /// payloads.
        fn records() -> impl Strategy<Value = Vec<Framed>> {
            prop::collection::vec(
                (
                    0u64..4,
                    prop::collection::vec(any::<u8>(), 0..24),
                    prop::collection::vec(any::<u8>(), 0..48),
                ),
                0..8,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            /// The one-image reader indexes the same records as the
            /// streamed reader and counts the same damage, on intact and
            /// damaged packs alike.
            #[test]
            fn the_image_reader_indexes_what_the_streamed_reader_read(
                records in records(),
                damage in damage(),
            ) {
                let mut bytes = PACK_MAGIC.to_vec();
                bytes.extend(RUN_SCHEMA_VERSION.to_le_bytes());
                let mut lengths = Vec::new();
                for (hash, key, payload) in &records {
                    lengths.push((bytes.len() + 8, bytes.len() + 8 + 4 + key.len()));
                    write_record(&mut bytes, *hash, key, payload).unwrap();
                }
                let at = |f: f64| ((bytes.len() as f64 * f) as usize).min(bytes.len() - 1);
                match damage {
                    Damage::None => {}
                    Damage::Flip(f, mask) => {
                        let i = at(f);
                        bytes[i] ^= mask;
                    }
                    Damage::Truncate(f) => bytes.truncate(at(f)),
                    Damage::Poison { record, payload, len } => {
                        if let Some(&(key_at, payload_at)) = lengths.get(record) {
                            let i = if payload { payload_at } else { key_at };
                            bytes[i..i + 4].copy_from_slice(&len.to_le_bytes());
                        }
                    }
                    Damage::Stale => {
                        bytes[8..12].copy_from_slice(&(RUN_SCHEMA_VERSION + 1).to_le_bytes());
                    }
                }
                let dir = scratch_dir("oracle");
                std::fs::create_dir_all(&dir).unwrap();
                let path = dir.join(PACK_FILE);
                std::fs::write(&path, &bytes).unwrap();
                let (pack, corrupt) = Pack::read(&path);
                let indexed: Vec<Framed> = pack
                    .index
                    .iter()
                    .map(|r| {
                        let (key, payload) = pack.parts(r);
                        (r.hash, key.to_vec(), payload.to_vec())
                    })
                    .collect();
                let (want, want_corrupt) = PackReader::read(&path);
                let _ = std::fs::remove_dir_all(&dir);
                prop_assert_eq!(indexed, want, "{:?}", damage);
                prop_assert_eq!(corrupt, want_corrupt, "{:?}", damage);
            }
        }
    }

    #[test]
    fn disabled_cache_never_hits() {
        let key = RunKey::from_encoded(vec![1]);
        let mut c = RunCache::new(None, false);
        c.put(key.clone(), Arc::new(sample_result()));
        assert!(c.get(&key).is_none());
        assert_eq!(c.mem_len(), 0);
    }
}
