//! The crash-safe persistent result store behind the [`EvalEngine`].
//!
//! The engine's in-memory memo cache (engine.rs) makes re-evaluating
//! an operating point free *within* a process; this module extends the
//! same content-addressed contract *across* processes: simulation
//! results, keyed by the engine's 128-bit structural hash, are written
//! to disk and reloaded on the next run, so a warm restart replays an
//! entire sweep from records instead of simulations — bit-identically,
//! because the key is injective over everything the simulator reads.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   <xx>/                     256 shard directories, first hex byte
//!     <32-hex-digits>.rec     one record per operating point
//!   quarantine/               records that failed validation
//!   .lock                     advisory lock for maintenance sweeps
//! ```
//!
//! # Record format
//!
//! Every record is a 24-byte header followed by a compact-JSON payload
//! produced by the workspace's hand-rolled codec ([`crate::metrics`]):
//!
//! ```text
//! [0..4)   magic  b"CRST"
//! [4..8)   format version, u32 LE (currently 1)
//! [8..16)  payload length,  u64 LE
//! [16..24) payload checksum, u64 LE (FNV-1a-64)
//! [24..]   payload: {"ok": <stats>} | {"err": {"code": ..., ...}}
//! ```
//!
//! Every header field is validated on load, and FNV-1a's per-byte step
//! `h' = (h ^ b) * P` is a bijection in `h` (odd `P`) and injective in
//! `b` — so **any** single-byte change to the payload changes the
//! digest and is rejected (proven property-style in
//! `crat-core/tests/store_codec_props.rs`).
//!
//! # Crash safety and corruption tolerance
//!
//! Writes are atomic: a uniquely named temp file in the target shard
//! is written, fsynced, then renamed over the record — readers observe
//! either the old record, the new record, or nothing, never a torn
//! one. A record that fails validation anyway (bit rot, a mutilated
//! filesystem) is *quarantined* — renamed into `quarantine/`, counted,
//! and its result recomputed and rewritten on demand. A damaged cache
//! can therefore never produce a wrong result or crash the process;
//! the disk-fault tier (`store_faults.rs`) drives every mutator in
//! [`crat_sim::fault::FaultPlan::mutate_record`] through this promise.
//!
//! # Concurrency
//!
//! The read path takes no file lock (atomic renames + checksums make
//! stale or vanished files indistinguishable from misses). Writers of the
//! same key race benignly: the payload is deterministic, so last
//! rename wins with identical bytes. Only maintenance (the eviction
//! sweep) takes the advisory `.lock` file — acquired with
//! `O_EXCL`-style `create_new`, bounded retry with exponential
//! backoff, and stale-lock takeover so a crashed process can never
//! wedge the store.
//!
//! # Capacity
//!
//! A configurable byte budget ([`StoreConfig::with_byte_limit`],
//! `--cache-limit`, `CRAT_CACHE_LIMIT`) bounds the store. When a write
//! pushes the total over budget, the oldest records by modification
//! time are evicted first; hits refresh a record's mtime (best
//! effort), making the policy LRU-by-mtime.
//!
//! # Persistence policy
//!
//! Only deterministic, self-contained outcomes are persisted: every
//! `Ok(SimStats)` plus the simulator errors that round-trip exactly
//! (`MissingParam`, `BadLaunch`, `Deadlock`, `CycleLimit`). Panics
//! (`CratError::Internal`), wall-clock expiries (`DeadlineExceeded`),
//! validation errors (cheap to recompute, structured payload), and the
//! remaining rare diagnostic variants are recomputed instead — the
//! same conservative stance the in-memory cache takes, extended to
//! anything whose serialization could drift.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use crat_sim::SimStats;

use crate::engine::lock;
use crate::CratError;

/// The 128-bit content address of one record: the engine's two
/// independent FNV-1a-64 digests of (kernel, gpu, launch, regs, tlp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordKey(pub u64, pub u64);

impl RecordKey {
    /// The shard directory name: the key's leading hex byte, giving
    /// 256 shards with a uniform spread (FNV output is well mixed).
    pub fn shard(&self) -> String {
        format!("{:02x}", (self.0 >> 56) as u8)
    }

    /// The record file name: all 32 hex digits plus the `.rec` suffix.
    pub fn file_name(&self) -> String {
        format!("{:016x}{:016x}.rec", self.0, self.1)
    }
}

/// Parse a byte-budget spelling: a plain byte count, or a count with a
/// binary suffix `K`, `M`, or `G` (case-insensitive). `None` when
/// malformed or when the multiplication would overflow.
pub fn parse_byte_limit(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, multiplier) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(multiplier))
}

/// Where and how large a [`ResultStore`] should be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Root directory of the store (created on open).
    pub dir: PathBuf,
    /// Byte budget; `None` is unbounded.
    pub byte_limit: Option<u64>,
}

impl StoreConfig {
    /// An unbounded store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            byte_limit: None,
        }
    }

    /// Bound the store to `bytes` (builder style).
    pub fn with_byte_limit(mut self, bytes: u64) -> StoreConfig {
        self.byte_limit = Some(bytes);
        self
    }

    /// The configuration requested by the environment: `CRAT_CACHE_DIR`
    /// names the directory (absent or empty → no store), and
    /// `CRAT_CACHE_LIMIT` optionally bounds it ([`parse_byte_limit`]
    /// spellings; malformed values are ignored, leaving the store
    /// unbounded).
    pub fn from_env() -> Option<StoreConfig> {
        let dir = std::env::var("CRAT_CACHE_DIR").ok()?;
        if dir.trim().is_empty() {
            return None;
        }
        let mut config = StoreConfig::new(dir);
        if let Ok(limit) = std::env::var("CRAT_CACHE_LIMIT") {
            config.byte_limit = parse_byte_limit(&limit);
        }
        Some(config)
    }
}

/// A snapshot of a store's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served from a valid on-disk record.
    pub hits: u64,
    /// Lookups that found no usable record (absent, unreadable, or
    /// quarantined this lookup).
    pub misses: u64,
    /// Records written successfully.
    pub writes: u64,
    /// Records evicted by the byte budget.
    pub evictions: u64,
    /// Records that failed validation and were renamed aside.
    pub quarantined: u64,
    /// Writes that failed at the filesystem (e.g. out of space); the
    /// run continues, only persistence is lost.
    pub write_errors: u64,
}

impl StoreStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from disk; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Record framing and result serialization. Public so the property
/// tests can drive the codec directly; the store is the only
/// production caller.
pub mod codec {
    use super::*;
    use crate::metrics::{stats_from_json, stats_to_json, Json};
    use crat_sim::SimError;

    /// Record magic.
    pub const MAGIC: [u8; 4] = *b"CRST";
    /// Current format version.
    pub const FORMAT_VERSION: u32 = 1;
    /// Byte offset of the version field (after the magic) — the
    /// contract [`crat_sim::fault::FaultPlan::mutate_record`]'s
    /// stale-version mutator patches.
    pub const VERSION_OFFSET: usize = 4;
    /// Total header length.
    pub const HEADER_LEN: usize = 24;

    /// FNV-1a-64 over `bytes` (standard offset basis). Each step
    /// `h' = (h ^ b) * P` with odd `P` is a bijection in `h` and
    /// injective in `b`, so a single-byte change anywhere always
    /// changes the digest.
    pub fn checksum(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Whether `result` is eligible for persistence (module docs:
    /// deterministic, self-contained outcomes only).
    pub fn persistable(result: &Result<SimStats, CratError>) -> bool {
        match result {
            Ok(_) => true,
            Err(CratError::Sim(e)) => matches!(
                e,
                SimError::MissingParam(_)
                    | SimError::BadLaunch(_)
                    | SimError::Deadlock
                    | SimError::CycleLimit { .. }
            ),
            Err(_) => false,
        }
    }

    /// Serialize a result to its JSON payload; `None` when the result
    /// is not [`persistable`].
    pub fn encode_payload(result: &Result<SimStats, CratError>) -> Option<Vec<u8>> {
        let json = match result {
            Ok(stats) => Json::Obj(vec![("ok".to_string(), stats_to_json(stats))]),
            Err(CratError::Sim(e)) => {
                let mut fields = vec![("code".to_string(), Json::Str(e.stable_code().to_string()))];
                match e {
                    SimError::MissingParam(p) => {
                        fields.push(("param".to_string(), Json::Str(p.clone())));
                    }
                    SimError::BadLaunch(m) => {
                        fields.push(("message".to_string(), Json::Str(m.clone())));
                    }
                    SimError::Deadlock => {}
                    SimError::CycleLimit { cycles } => {
                        fields.push(("cycles".to_string(), Json::Int(*cycles)));
                    }
                    _ => return None,
                }
                Json::Obj(vec![("err".to_string(), Json::Obj(fields))])
            }
            Err(_) => return None,
        };
        Some(json.compact().into_bytes())
    }

    /// Deserialize a JSON payload back into a result.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem.
    pub fn decode_payload(payload: &[u8]) -> Result<Result<SimStats, CratError>, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
        let json = Json::parse(text)?;
        if let Some(stats) = json.get("ok") {
            return Ok(Ok(stats_from_json(stats)?));
        }
        let err = json
            .get("err")
            .ok_or("payload has neither 'ok' nor 'err'")?;
        let code = match err.get("code") {
            Some(Json::Str(code)) => code.as_str(),
            _ => return Err("error payload missing 'code'".to_string()),
        };
        let str_field = |name: &str| match err.get(name) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("error payload missing string '{name}'")),
        };
        let sim = match code {
            "missing_param" => SimError::MissingParam(str_field("param")?),
            "bad_launch" => SimError::BadLaunch(str_field("message")?),
            "deadlock" => SimError::Deadlock,
            "cycle_limit" => SimError::CycleLimit {
                cycles: err
                    .get("cycles")
                    .and_then(Json::as_u64)
                    .ok_or("error payload missing integer 'cycles'")?,
            },
            other => return Err(format!("unknown error code '{other}'")),
        };
        Ok(Err(CratError::Sim(sim)))
    }

    /// Wrap a payload in the record header.
    pub fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Serialize a result to a complete record; `None` when not
    /// [`persistable`].
    pub fn encode_record(result: &Result<SimStats, CratError>) -> Option<Vec<u8>> {
        encode_payload(result).map(|p| frame(&p))
    }

    /// Validate and deserialize a complete record.
    ///
    /// # Errors
    ///
    /// A description of the first validation failure: short header,
    /// wrong magic, unknown version, length mismatch, checksum
    /// mismatch, or a malformed payload.
    pub fn decode_record(bytes: &[u8]) -> Result<Result<SimStats, CratError>, String> {
        if bytes.len() < HEADER_LEN {
            return Err(format!("record too short: {} bytes", bytes.len()));
        }
        if bytes[0..4] != MAGIC {
            return Err("bad magic".to_string());
        }
        let take_u32 = |at: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[at..at + 4]);
            u32::from_le_bytes(b)
        };
        let take_u64 = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let version = take_u32(VERSION_OFFSET);
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported format version {version} (expected {FORMAT_VERSION})"
            ));
        }
        let payload_len = take_u64(8);
        let payload = &bytes[HEADER_LEN..];
        if payload_len != payload.len() as u64 {
            return Err(format!(
                "length mismatch: header says {payload_len}, file holds {}",
                payload.len()
            ));
        }
        let expected = take_u64(16);
        let actual = checksum(payload);
        if expected != actual {
            return Err(format!(
                "checksum mismatch: header {expected:#018x}, payload {actual:#018x}"
            ));
        }
        decode_payload(payload)
    }
}

/// Test-only disk-fault injection for the store, mirroring
/// [`crat_sim::fault`]: nothing fires unless armed, and the disarmed
/// fast path is one relaxed atomic load.
pub mod fault {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Message of an injected write failure (recognizable in logs).
    pub const INJECTED_WRITE_ERROR: &str = "injected fault: store write failed (disk full)";

    static WRITE_ERRORS: AtomicU64 = AtomicU64::new(0);

    /// Arm the next `n` store writes (process-wide) to fail with an
    /// out-of-space error. Test-only: callers must serialize tests
    /// that arm faults.
    pub fn arm_write_errors(n: u64) {
        WRITE_ERRORS.store(n, Ordering::SeqCst);
    }

    /// Disarm pending store faults.
    pub fn disarm() {
        WRITE_ERRORS.store(0, Ordering::SeqCst);
    }

    /// Consume one pending write failure; false when disarmed.
    pub(crate) fn take_write_error() -> bool {
        if WRITE_ERRORS.load(Ordering::Relaxed) == 0 {
            return false;
        }
        WRITE_ERRORS
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }
}

/// Advisory-lock acquisition bounds: `create_new` attempts with
/// exponential backoff (1, 2, 4, 8, 16 ms), and takeover of locks
/// older than [`LOCK_STALE`] (a crashed holder).
const LOCK_RETRIES: u32 = 5;
const LOCK_STALE: Duration = Duration::from_secs(30);

/// Removes the lock file when the guard drops.
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// The persistent, sharded, content-addressed result store. See the
/// module docs for format and guarantees; see
/// [`EvalEngine::attach_store`](crate::EvalEngine::attach_store) for
/// how the engine consults it.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    byte_limit: Option<u64>,
    /// Running estimate of stored bytes; re-measured by each sweep.
    approx_bytes: AtomicU64,
    /// Temp-file uniquifier within this process.
    tmp_seq: AtomicU64,
    /// Held only to bump or copy.
    counters: Mutex<StoreStats>,
}

impl ResultStore {
    /// Open (creating if necessary) the store at `config.dir`.
    /// Corrupt records are *not* scanned eagerly — validation is
    /// per-lookup, so open cost is one directory walk for the byte
    /// estimate (skipped entirely for unbounded stores).
    ///
    /// # Errors
    ///
    /// Only from creating the root directory; everything below it is
    /// tolerated lazily.
    pub fn open(config: StoreConfig) -> io::Result<ResultStore> {
        fs::create_dir_all(&config.dir)?;
        let store = ResultStore {
            dir: config.dir,
            byte_limit: config.byte_limit,
            approx_bytes: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            counters: Mutex::default(),
        };
        if store.byte_limit.is_some() {
            let total = store.entries().iter().map(|e| e.2).sum();
            store.approx_bytes.store(total, Ordering::Relaxed);
            store.enforce_limit();
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget.
    pub fn byte_limit(&self) -> Option<u64> {
        self.byte_limit
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        *lock(&self.counters)
    }

    /// Zero the counters (records on disk are untouched).
    pub fn reset_counters(&self) {
        *lock(&self.counters) = StoreStats::default();
    }

    fn bump(&self, f: impl FnOnce(&mut StoreStats)) {
        f(&mut lock(&self.counters));
    }

    fn record_path(&self, key: RecordKey) -> PathBuf {
        self.dir.join(key.shard()).join(key.file_name())
    }

    /// Look up a record. Takes no file lock: a missing, unreadable, or
    /// invalid record is a miss (invalid ones are quarantined first),
    /// and the caller recomputes.
    pub fn load(&self, key: RecordKey) -> Option<Result<SimStats, CratError>> {
        let path = self.record_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.bump(|c| c.misses += 1);
                return None;
            }
        };
        match codec::decode_record(&bytes) {
            Ok(result) => {
                self.bump(|c| c.hits += 1);
                if self.byte_limit.is_some() {
                    // LRU touch (best effort): refresh the mtime so
                    // the eviction sweep sees this record as recent.
                    let _ = File::options()
                        .write(true)
                        .open(&path)
                        .and_then(|f| f.set_modified(SystemTime::now()));
                }
                Some(result)
            }
            Err(_) => {
                self.quarantine(&path);
                self.bump(|c| c.misses += 1);
                None
            }
        }
    }

    /// Persist a result (best effort). Non-persistable outcomes are
    /// skipped silently; filesystem failures are counted in
    /// [`StoreStats::write_errors`] and the caller proceeds unharmed.
    pub fn save(&self, key: RecordKey, result: &Result<SimStats, CratError>) {
        let Some(record) = codec::encode_record(result) else {
            return;
        };
        match self.write_atomic(key, &record) {
            Ok(()) => {
                self.bump(|c| c.writes += 1);
                self.approx_bytes
                    .fetch_add(record.len() as u64, Ordering::Relaxed);
                self.enforce_limit();
            }
            Err(_) => self.bump(|c| c.write_errors += 1),
        }
    }

    /// Temp file + write + fsync + rename, all within the shard
    /// directory (same filesystem, so the rename is atomic).
    fn write_atomic(&self, key: RecordKey, record: &[u8]) -> io::Result<()> {
        if fault::take_write_error() {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                fault::INJECTED_WRITE_ERROR,
            ));
        }
        let shard = self.dir.join(key.shard());
        fs::create_dir_all(&shard)?;
        let tmp = shard.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let written = (|| {
            let mut f = File::create(&tmp)?;
            f.write_all(record)?;
            f.sync_all()?;
            fs::rename(&tmp, shard.join(key.file_name()))
        })();
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        written
    }

    /// Rename an invalid record into `quarantine/` (fall back to
    /// deletion if even the rename fails — the bad bytes must not be
    /// served again either way) and count it.
    fn quarantine(&self, path: &Path) {
        let qdir = self.dir.join("quarantine");
        let moved = fs::create_dir_all(&qdir).and_then(|()| {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("record");
            let dest = qdir.join(format!(
                "{name}.{}-{}.bad",
                std::process::id(),
                self.tmp_seq.fetch_add(1, Ordering::Relaxed)
            ));
            fs::rename(path, dest)
        });
        if moved.is_err() {
            let _ = fs::remove_file(path);
        }
        self.bump(|c| c.quarantined += 1);
    }

    /// Number of records currently on disk (test/diagnostic helper;
    /// walks the shards).
    pub fn record_count(&self) -> usize {
        self.entries().len()
    }

    /// Total record bytes currently on disk (walks the shards).
    pub fn record_bytes(&self) -> u64 {
        self.entries().iter().map(|e| e.2).sum()
    }

    /// Every record on disk: (mtime, path, len). I/O errors skip the
    /// entry — a file that vanished mid-walk was someone else's
    /// eviction or rename.
    fn entries(&self) -> Vec<(SystemTime, PathBuf, u64)> {
        let mut out = Vec::new();
        let Ok(shards) = fs::read_dir(&self.dir) else {
            return out;
        };
        for shard in shards.flatten() {
            let name = shard.file_name();
            let Some(name) = name.to_str() else { continue };
            // Only the 256 two-hex-digit shard directories hold
            // records; `quarantine/` and `.lock` are not scanned.
            if name.len() != 2 || !name.bytes().all(|b| b.is_ascii_hexdigit()) {
                continue;
            }
            let Ok(files) = fs::read_dir(shard.path()) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                if path.extension().and_then(|e| e.to_str()) != Some("rec") {
                    continue;
                }
                let Ok(meta) = file.metadata() else { continue };
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((mtime, path, meta.len()));
            }
        }
        out
    }

    /// Evict oldest-first until the store fits its byte budget. Only
    /// one process sweeps at a time (advisory lock); losing the lock
    /// race just skips the sweep — the holder is already evicting.
    fn enforce_limit(&self) {
        let Some(limit) = self.byte_limit else { return };
        if self.approx_bytes.load(Ordering::Relaxed) <= limit {
            return;
        }
        let Some(_guard) = self.try_lock() else {
            return;
        };
        let mut entries = self.entries();
        // Oldest mtime first; path breaks ties deterministically.
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut total: u64 = entries.iter().map(|e| e.2).sum();
        for (_, path, len) in entries {
            if total <= limit {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.bump(|c| c.evictions += 1);
            }
        }
        self.approx_bytes.store(total, Ordering::Relaxed);
    }

    /// Acquire the maintenance lock: bounded `create_new` retries with
    /// exponential backoff, taking over locks older than
    /// [`LOCK_STALE`]. `None` when contended past the bound — callers
    /// treat that as "someone else is maintaining".
    fn try_lock(&self) -> Option<LockGuard> {
        let path = self.dir.join(".lock");
        for attempt in 0..LOCK_RETRIES {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Some(LockGuard { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > LOCK_STALE);
                    if stale {
                        // Crashed holder: break its lock and retry
                        // immediately.
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    std::thread::sleep(Duration::from_millis(1 << attempt));
                }
                Err(_) => return None,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_sim::SimError;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_store_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "crat-store-unit-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_stats() -> SimStats {
        let mut stats = SimStats {
            cycles: 1234,
            warp_insts: 567,
            thread_insts: 8899,
            blocks: 30,
            resident_blocks: 4,
            l1_accesses: 100,
            l1_hits: 60,
            ..SimStats::default()
        };
        stats.attribution.per_scheduler = vec![[1, 2, 3, 4, 5, 6, 7, 8]];
        stats.attribution.warp_issued = vec![9, 10];
        stats.attribution.warp_head_stalls = vec![11];
        stats.attribution.block_issued = vec![12, 13, 14];
        stats
    }

    #[test]
    fn codec_round_trips_every_persistable_form() {
        let cases: Vec<Result<SimStats, CratError>> = vec![
            Ok(sample_stats()),
            Ok(SimStats::default()),
            Err(CratError::Sim(SimError::MissingParam("out".into()))),
            Err(CratError::Sim(SimError::BadLaunch("zero grid".into()))),
            Err(CratError::Sim(SimError::Deadlock)),
            Err(CratError::Sim(SimError::CycleLimit { cycles: 99 })),
        ];
        for case in cases {
            let record = codec::encode_record(&case).expect("persistable");
            let back = codec::decode_record(&record).expect("valid record");
            match (&case, &back) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
                _ => panic!("variant changed in round trip"),
            }
        }
    }

    #[test]
    fn non_deterministic_outcomes_are_not_persisted() {
        let cases: Vec<Result<SimStats, CratError>> = vec![
            Err(CratError::Sim(SimError::DeadlineExceeded { cycles: 5 })),
            Err(CratError::Internal {
                job: "j".into(),
                payload: "p".into(),
            }),
            Err(CratError::NoCandidates),
        ];
        for case in cases {
            assert!(!codec::persistable(&case));
            assert!(codec::encode_record(&case).is_none());
        }
    }

    #[test]
    fn decode_rejects_every_header_violation() {
        let record = codec::encode_record(&Ok(sample_stats())).unwrap();
        assert!(codec::decode_record(&record).is_ok());

        // Too short.
        assert!(codec::decode_record(&record[..10]).is_err());
        assert!(codec::decode_record(&[]).is_err());
        // Bad magic.
        let mut bad = record.clone();
        bad[0] = b'X';
        assert!(codec::decode_record(&bad).unwrap_err().contains("magic"));
        // Stale version.
        let mut bad = record.clone();
        bad[codec::VERSION_OFFSET] = 2;
        assert!(codec::decode_record(&bad).unwrap_err().contains("version"));
        // Truncated payload (length mismatch).
        assert!(codec::decode_record(&record[..record.len() - 1])
            .unwrap_err()
            .contains("length"));
        // Trailing garbage (length mismatch the other way).
        let mut bad = record.clone();
        bad.push(0);
        assert!(codec::decode_record(&bad).unwrap_err().contains("length"));
        // Flipped payload byte (checksum mismatch).
        let mut bad = record.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(codec::decode_record(&bad).unwrap_err().contains("checksum"));
        // Flipped checksum byte.
        let mut bad = record;
        bad[16] ^= 0x80;
        assert!(codec::decode_record(&bad).unwrap_err().contains("checksum"));
    }

    #[test]
    fn store_round_trips_records_across_reopens() {
        let dir = temp_store_dir("roundtrip");
        let key = RecordKey(0xdead_beef_0102_0304, 0x0506_0708_090a_0b0c);
        let value: Result<SimStats, CratError> = Ok(sample_stats());
        {
            let store = ResultStore::open(StoreConfig::new(&dir)).unwrap();
            assert!(store.load(key).is_none(), "cold store must miss");
            store.save(key, &value);
            assert_eq!(store.stats().writes, 1);
            assert_eq!(store.record_count(), 1);
        }
        // A second process (modeled by a reopen) sees the record.
        let store = ResultStore::open(StoreConfig::new(&dir)).unwrap();
        let loaded = store.load(key).expect("warm store must hit");
        assert_eq!(loaded.unwrap(), sample_stats());
        let s = store.stats();
        // Fresh counters on the reopened store: one hit, no misses.
        assert_eq!((s.hits, s.misses, s.quarantined), (1, 0, 0));
        assert!(s.hit_rate() > 0.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_land_in_hash_prefix_shards() {
        let key = RecordKey(0xab00_0000_0000_0001, 2);
        assert_eq!(key.shard(), "ab");
        assert_eq!(key.file_name(), "ab000000000000010000000000000002.rec");
        let dir = temp_store_dir("shards");
        let store = ResultStore::open(StoreConfig::new(&dir)).unwrap();
        store.save(key, &Ok(SimStats::default()));
        assert!(dir.join("ab").join(key.file_name()).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_records_are_quarantined_not_served() {
        let dir = temp_store_dir("quarantine");
        let store = ResultStore::open(StoreConfig::new(&dir)).unwrap();
        let key = RecordKey(7, 7);
        store.save(key, &Ok(sample_stats()));
        let path = store.record_path(key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert!(store.load(key).is_none(), "corrupt record must miss");
        assert_eq!(store.stats().quarantined, 1);
        assert!(!path.exists(), "bad record must be renamed aside");
        let quarantined = fs::read_dir(dir.join("quarantine")).unwrap().count();
        assert_eq!(quarantined, 1);
        // The slot is reusable: recompute-and-rewrite then hit.
        store.save(key, &Ok(sample_stats()));
        assert!(store.load(key).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_drops_oldest_records_first() {
        let dir = temp_store_dir("evict");
        // Budget fits roughly two minimal records.
        let one_record = codec::encode_record(&Ok(SimStats::default()))
            .unwrap()
            .len() as u64;
        let store =
            ResultStore::open(StoreConfig::new(&dir).with_byte_limit(2 * one_record)).unwrap();
        let keys = [RecordKey(1, 1), RecordKey(2, 2), RecordKey(3, 3)];
        let base = SystemTime::now() - Duration::from_secs(600);
        for (i, &key) in keys.iter().enumerate() {
            store.save(key, &Ok(SimStats::default()));
            // Pin distinct mtimes (coarse-grained filesystems would
            // otherwise tie): key 1 oldest, key 3 newest.
            let f = File::options()
                .write(true)
                .open(store.record_path(key))
                .unwrap();
            f.set_modified(base + Duration::from_secs(60 * i as u64))
                .unwrap();
        }
        // Force a sweep with the pinned mtimes in place.
        store
            .approx_bytes
            .store(store.record_bytes(), Ordering::Relaxed);
        store.enforce_limit();
        assert!(store.stats().evictions >= 1);
        assert!(
            !store.record_path(keys[0]).exists(),
            "oldest record must go first"
        );
        assert!(store.record_path(keys[2]).exists());
        assert!(store.record_bytes() <= 2 * one_record);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_enforces_the_budget_on_preexisting_records() {
        let dir = temp_store_dir("open-evict");
        {
            let store = ResultStore::open(StoreConfig::new(&dir)).unwrap();
            for i in 0..6 {
                store.save(RecordKey(i, i), &Ok(SimStats::default()));
            }
        }
        let one_record = codec::encode_record(&Ok(SimStats::default()))
            .unwrap()
            .len() as u64;
        let store =
            ResultStore::open(StoreConfig::new(&dir).with_byte_limit(3 * one_record)).unwrap();
        assert!(store.record_bytes() <= 3 * one_record);
        assert!(store.stats().evictions >= 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_locks_are_taken_over() {
        let dir = temp_store_dir("stale-lock");
        let store = ResultStore::open(StoreConfig::new(&dir)).unwrap();
        let lock_path = dir.join(".lock");
        let f = File::create(&lock_path).unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(3600))
            .unwrap();
        drop(f);
        let guard = store.try_lock();
        assert!(guard.is_some(), "an hour-old lock is a crashed holder");
        drop(guard);
        assert!(!lock_path.exists(), "guard drop must release the lock");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_locks_block_until_released() {
        let dir = temp_store_dir("fresh-lock");
        let store = ResultStore::open(StoreConfig::new(&dir)).unwrap();
        let held = store.try_lock().expect("uncontended lock");
        // A second acquisition must give up within its bounded
        // retries, not spin forever.
        assert!(store.try_lock().is_none(), "held lock must stay held");
        drop(held);
        assert!(store.try_lock().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_limit_spellings() {
        assert_eq!(parse_byte_limit("1048576"), Some(1 << 20));
        assert_eq!(parse_byte_limit("64K"), Some(64 << 10));
        assert_eq!(parse_byte_limit("64k"), Some(64 << 10));
        assert_eq!(parse_byte_limit("8M"), Some(8 << 20));
        assert_eq!(parse_byte_limit("2G"), Some(2 << 30));
        assert_eq!(parse_byte_limit(" 16M "), Some(16 << 20));
        assert_eq!(parse_byte_limit(""), None);
        assert_eq!(parse_byte_limit("M"), None);
        assert_eq!(parse_byte_limit("-1"), None);
        assert_eq!(parse_byte_limit("1.5G"), None);
        assert_eq!(parse_byte_limit("99999999999999999999G"), None);
    }

    #[test]
    fn store_hit_rate_is_guarded_when_idle() {
        assert_eq!(StoreStats::default().hit_rate(), 0.0);
        assert_eq!(StoreStats::default().lookups(), 0);
    }
}
