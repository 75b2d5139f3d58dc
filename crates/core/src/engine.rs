//! The memoizing, parallel, panic-isolated evaluation engine.
//!
//! Every simulation the optimizer, the techniques, and the experiment
//! binaries request goes through one [`EvalEngine`], which
//!
//! * **memoizes** results in a cache keyed by a stable structural hash
//!   of the allocated kernel IR together with the GPU configuration,
//!   the launch, the register count, and the resident blocks the TLP
//!   cap leaves ([`crat_sim::resident_blocks`]) — re-evaluating the
//!   same binary at the same operating point is free, and two caps
//!   that leave the same resident blocks share one result;
//! * **parallelizes** batches of independent simulations over a
//!   bounded pool of scoped worker threads (width from
//!   [`std::thread::available_parallelism`], overridable via
//!   [`EvalEngine::new`], the `CRAT_THREADS` environment variable, or
//!   the experiment binaries' `--threads` flag);
//! * **decodes once**: kernels are lowered to [`DecodedKernel`]s in a
//!   second cache keyed by the kernel-only structural hash, so a TLP
//!   or register sweep over one binary pays validation and lowering a
//!   single time and every simulation runs on the pre-decoded IR;
//! * **allocates the default binary once**: the tool chain's default
//!   allocation, which every technique starts from, is memoized by
//!   kernel and register budget (healthy Briggs results only, never a
//!   fallback);
//! * **isolates faults**: each simulation runs under
//!   [`catch_unwind`](std::panic::catch_unwind), so a panicking job
//!   becomes a structured [`CratError::Internal`] result instead of
//!   tearing down the process, and the engine (including its memo
//!   cache) stays usable for subsequent jobs;
//! * **enforces budgets** ([`EvalBudget`]): a per-job cycle-count
//!   override degrades a runaway simulation to a deterministic
//!   [`SimError::CycleLimit`], and a wall-clock deadline cancels it
//!   cooperatively with [`SimError::DeadlineExceeded`];
//! * **counts** what it did ([`EngineStats`]): simulations executed,
//!   cache hits, kernels decoded, simulated cycles and warp
//!   instructions, panics caught, and budgets exceeded;
//! * **persists** (optionally): with a [`ResultStore`] attached
//!   ([`attach_store`](EvalEngine::attach_store), the CLI's
//!   `--cache-dir`, or `CRAT_CACHE_DIR`), memoizable results are also
//!   written to a crash-safe on-disk store keyed by the same
//!   structural hash, and owner-path misses consult the store before
//!   simulating — a warm restart replays a sweep from disk,
//!   bit-identically (see [`crate::store`]).
//!
//! Determinism: the simulator itself is deterministic, the cache key
//! is injective over everything the simulator reads, and batch results
//! are returned in submission order — so results obtained through the
//! engine are bit-identical to calling [`crat_sim::simulate`]
//! directly, at any thread count, cold or warm.
//!
//! Caching policy for failures: simulator errors are memoized like
//! successes (retrying a deterministic simulation cannot change the
//! outcome), but two result classes are *never* left in the cache —
//! panics (a caught panic says nothing reliable about the operating
//! point) and deadline expiries (wall-clock dependent, so a retry with
//! a fresh deadline may legitimately succeed). Both fill their slot so
//! concurrent waiters unblock, then the entry is removed. The
//! persistent store inherits the same policy (it refuses to serialize
//! anything else), with one wrinkle: a [`SimError::CycleLimit`] served
//! from disk does not count in [`EngineStats::budget_exceeded`] — that
//! counter tallies jobs *this process* stopped.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crat_ptx::Kernel;
use crat_regalloc::{AllocContext, AllocError, Allocation, StrategyKind};
use crat_sim::{DecodedKernel, GpuConfig, LaunchConfig, SimError, SimStats};

use crate::store::{RecordKey, ResultStore, StoreConfig};
use crate::CratError;

/// 64-bit FNV-1a with a caller-chosen offset basis. The standard
/// library's default hasher is randomly seeded per process; the memo
/// cache instead needs a hash that is stable across runs so cached
/// sim counts (and therefore reported engine stats) are reproducible.
struct Fnv1a(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The standard FNV-1a offset basis.
const FNV_BASIS_LO: u64 = 0xcbf2_9ce4_8422_2325;
/// A second, independent basis for the high half of the 128-bit key.
const FNV_BASIS_HI: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The cache key: two independent 64-bit FNV-1a digests of the same
/// structural content, giving an effectively 128-bit fingerprint so
/// accidental collisions between distinct operating points are not a
/// practical concern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SimKey(u64, u64);

fn sim_key(
    kernel: &Kernel,
    gpu: &GpuConfig,
    launch: &LaunchConfig,
    regs_per_thread: u32,
    tlp_cap: Option<u32>,
) -> SimKey {
    // The simulator reads the cap only through `resident_blocks`, and
    // only once the launch checks pass and every parameter is bound;
    // before that it fails whatever the cap, so the raw cap is keyed.
    let runs = crat_sim::check_launch(gpu, launch).is_ok()
        && kernel
            .params()
            .iter()
            .all(|p| launch.params.contains_key(&p.name));
    let cap: Result<u32, Option<u32>> = if runs {
        Ok(crat_sim::resident_blocks(
            gpu,
            launch,
            regs_per_thread,
            kernel.shared_bytes(),
            tlp_cap,
        ))
    } else {
        Err(tlp_cap)
    };
    let digest = |basis: u64| {
        let mut h = Fnv1a(basis);
        kernel.hash(&mut h);
        gpu.hash(&mut h);
        launch.hash(&mut h);
        regs_per_thread.hash(&mut h);
        cap.hash(&mut h);
        h.finish()
    };
    SimKey(digest(FNV_BASIS_LO), digest(FNV_BASIS_HI))
}

/// The decoded-kernel cache key: the kernel-only prefix of [`sim_key`],
/// so every operating point of one binary shares a single decode.
fn kernel_key(kernel: &Kernel) -> SimKey {
    let digest = |basis: u64| {
        let mut h = Fnv1a(basis);
        kernel.hash(&mut h);
        h.finish()
    };
    SimKey(digest(FNV_BASIS_LO), digest(FNV_BASIS_HI))
}

/// Lock a mutex, recovering from poisoning. The maps the engine guards
/// are only mutated by single, non-panicking `HashMap` operations, and
/// the counters only by additions, so a poisoned lock (a worker
/// panicked elsewhere while the OS preempted it mid-critical-section)
/// still protects sound data — recovering is how the engine stays
/// usable after a caught panic.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a panic payload for [`CratError::Internal`]: the common
/// `&str` / `String` payloads verbatim, anything else a placeholder.
fn payload_string(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One simulation request, by reference: the engine never clones a
/// kernel to queue it.
#[derive(Debug, Clone, Copy)]
pub struct SimJob<'a> {
    /// The (allocated) kernel to run.
    pub kernel: &'a Kernel,
    /// The GPU configuration.
    pub gpu: &'a GpuConfig,
    /// The launch.
    pub launch: &'a LaunchConfig,
    /// Registers per thread of the binary being simulated.
    pub regs_per_thread: u32,
    /// Optional cap on resident blocks (thread throttling).
    pub tlp_cap: Option<u32>,
}

/// Per-job evaluation limits. The default ([`EvalBudget::none`]) is
/// unlimited; see the module docs for which budget outcomes are
/// memoized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalBudget {
    /// Cap the simulated cycle count below the GPU configuration's
    /// `max_cycles`. Exceeding it yields [`SimError::CycleLimit`] —
    /// deterministic, so the degraded result is memoized (under a key
    /// that reflects the tightened limit).
    pub max_cycles_override: Option<u64>,
    /// Cancel the simulation cooperatively once this wall-clock
    /// instant passes, yielding [`SimError::DeadlineExceeded`]. Wall
    /// time is not deterministic, so this outcome is never memoized.
    pub deadline: Option<Instant>,
}

impl EvalBudget {
    /// No limits: the job runs to the GPU configuration's own
    /// `max_cycles`.
    pub fn none() -> EvalBudget {
        EvalBudget::default()
    }

    /// Cap the simulated cycle count.
    pub fn with_max_cycles(mut self, cycles: u64) -> EvalBudget {
        self.max_cycles_override = Some(cycles);
        self
    }

    /// Set a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> EvalBudget {
        self.deadline = Some(deadline);
        self
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_cycles_override.is_none() && self.deadline.is_none()
    }
}

/// Declare a counter struct from one table. Each row, a doc comment
/// and a name, becomes a pub `u64` field and an entry of
/// `counters()`, in table order. The JSON and CSV exporters iterate
/// that list, so a new counter is one row here plus the site that
/// bumps it. Typed fields after the braces stay out of `counters()`.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* $field:ident,)*
        }
        $($(#[$xdoc:meta])* $xfield:ident: $xty:ty,)*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
            $($(#[$xdoc])* pub $xfield: $xty,)*
        }

        impl $name {
            /// Every counter as `(name, value)`, in declaration order.
            pub fn counters(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$((stringify!($field), self.$field)),*]
            }
        }
    };
}

counters! {
    /// Per-strategy allocation counters, indexed by
    /// [`StrategyKind::index`](crat_regalloc::StrategyKind::index) in
    /// [`EngineStats::strategies`]. These track the design-point roster
    /// sweep only — the default-allocation ladder (OptTLP profiling and
    /// the MaxTlp/OptTlp baselines) does not attribute its allocations to
    /// a strategy.
    pub struct StrategyStats {
        /// Design points at which this strategy was attempted.
        attempts,
        /// Design points this strategy's allocation won.
        wins,
        /// Spill bytes (local per thread + shared per block) summed over
        /// winning allocations.
        spill_bytes,
        /// Allocation-context cache hits attributed to this strategy.
        ctx_reuse,
    }
}

counters! {
    /// A snapshot of the engine's counters. None reads a clock, so the
    /// same calls give the same snapshot at any thread count.
    pub struct EngineStats {
        /// Simulations actually executed (cache misses).
        sims_executed,
        /// Requests served from the memo cache, including requests that
        /// waited for an in-flight simulation of the same key.
        cache_hits,
        /// Kernels lowered to decoded form (decoded-cache misses).
        decodes,
        /// Cycles simulated, summed over executed simulations.
        sim_cycles,
        /// Warp instructions executed, summed over executed simulations.
        sim_insts,
        /// Worker panics caught and converted to [`CratError::Internal`].
        panics_caught,
        /// Jobs stopped by an [`EvalBudget`] limit: a cycle override that
        /// tightened the GPU's own limit was hit, or a deadline expired.
        budget_exceeded,
        /// Shared allocation contexts built (allocation-analysis cache
        /// misses).
        alloc_ctx_builds,
        /// Allocation-context requests served from the cache.
        alloc_ctx_hits,
        /// Register allocations run through the pipeline (every budget-
        /// escalation attempt of every design point counts one).
        allocs_run,
        /// Spill sub-stacks re-homed to shared memory with the
        /// warp-interleaved layout, summed over winning allocations.
        shm_warp_interleaved,
        /// Spill sub-stacks re-homed with the per-thread contiguous
        /// layout, summed over winning allocations.
        shm_per_thread,
        /// Requests served from the attached persistent store (disk
        /// records written by an earlier process or run); 0 when no store
        /// is attached.
        store_hits,
        /// Store lookups that found no usable record.
        store_misses,
        /// Records written to the persistent store.
        store_writes,
        /// Records evicted by the store's byte budget.
        store_evictions,
        /// On-disk records that failed validation and were quarantined
        /// (then recomputed on demand).
        store_quarantined,
        /// Store writes that failed at the filesystem (persistence lost,
        /// run unaffected).
        store_write_errors,
    }
    /// Per-strategy roster counters, indexed by
    /// [`StrategyKind::index`](crat_regalloc::StrategyKind::index).
    strategies: [StrategyStats; 4],
}

impl EngineStats {
    /// Total simulation requests (executed + served from the memo
    /// cache + served from the persistent store).
    pub fn requests(&self) -> u64 {
        self.sims_executed + self.cache_hits + self.store_hits
    }

    /// Fraction of requests served without executing a simulation
    /// (memo cache or persistent store); 0 when idle — guarded against
    /// divide-by-zero on a freshly-reset engine.
    pub fn hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            (self.cache_hits + self.store_hits) as f64 / total as f64
        }
    }

    /// Persistent-store lookups (disk hits + misses); 0 when no store
    /// is attached.
    pub fn store_lookups(&self) -> u64 {
        self.store_hits + self.store_misses
    }

    /// Fraction of store lookups served from disk; 0 when idle or
    /// when no store is attached (guarded against divide-by-zero).
    pub fn store_hit_rate(&self) -> f64 {
        let total = self.store_lookups();
        if total == 0 {
            0.0
        } else {
            self.store_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for EngineStats {
    /// The one-line text summary the `crat` CLI and the experiment
    /// binaries print. Segments past the decode count appear only when
    /// their counters are non-zero.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sims, {} cache hits ({:.0}%), {} decodes",
            self.sims_executed,
            self.cache_hits,
            self.hit_rate() * 100.0,
            self.decodes
        )?;
        if self.allocs_run > 0 {
            write!(
                f,
                ", {} allocs off {} shared ctx ({} ctx hits)",
                self.allocs_run, self.alloc_ctx_builds, self.alloc_ctx_hits
            )?;
        }
        let mut sep = ", strategy wins/attempts:";
        for kind in StrategyKind::ALL {
            let s = self.strategies[kind.index()];
            if s.attempts > 0 {
                write!(f, "{sep} {} {}/{}", kind.label(), s.wins, s.attempts)?;
                sep = "";
            }
        }
        if self.shm_warp_interleaved + self.shm_per_thread > 0 {
            write!(
                f,
                ", shm layouts: {} warp-interleaved / {} per-thread",
                self.shm_warp_interleaved, self.shm_per_thread
            )?;
        }
        // Present only when a store is in play (a lookup, write, or
        // failure actually happened).
        if self.store_lookups() + self.store_writes + self.store_write_errors > 0 {
            write!(
                f,
                ", store: {} hits ({:.0}%) / {} misses, {} writes",
                self.store_hits,
                self.store_hit_rate() * 100.0,
                self.store_misses,
                self.store_writes
            )?;
            write_nonzero(
                f,
                &[
                    (self.store_evictions, "evicted"),
                    (self.store_quarantined, "quarantined"),
                    (self.store_write_errors, "write errors"),
                ],
            )?;
        }
        write_nonzero(
            f,
            &[
                (self.panics_caught, "panics caught"),
                (self.budget_exceeded, "budgets exceeded"),
            ],
        )
    }
}

/// Write `, <n> <what>` for each non-zero count.
fn write_nonzero(f: &mut std::fmt::Formatter<'_>, counts: &[(u64, &str)]) -> std::fmt::Result {
    for &(n, what) in counts {
        if n > 0 {
            write!(f, ", {n} {what}")?;
        }
    }
    Ok(())
}

/// Cache slot: filled exactly once by whichever request arrives first;
/// concurrent requests for the same key block on it instead of running
/// a duplicate simulation.
type Slot = Arc<OnceLock<Result<SimStats, CratError>>>;

/// The memoizing, parallel evaluation engine. See the module docs.
#[derive(Debug)]
pub struct EvalEngine {
    threads: usize,
    cache: Mutex<HashMap<SimKey, Slot>>,
    decoded: Mutex<HashMap<SimKey, Arc<DecodedKernel>>>,
    alloc_ctx: Mutex<HashMap<SimKey, Arc<AllocContext>>>,
    default_alloc: Mutex<HashMap<(SimKey, u32), Arc<Allocation>>>,
    store: Mutex<Option<Arc<ResultStore>>>,
    /// The engine's own counters ([`stats`](EvalEngine::stats) lays the
    /// store's over them). Bumped per request, allocation or decode,
    /// never per cycle; always the last lock taken, and held only for
    /// the bump.
    counters: Mutex<EngineStats>,
}

impl EvalEngine {
    /// An engine with `threads` workers; `0` means
    /// [`available_parallelism`](std::thread::available_parallelism).
    pub fn new(threads: usize) -> EvalEngine {
        let threads = if threads == 0 {
            hardware_threads()
        } else {
            threads
        };
        EvalEngine {
            threads,
            cache: Mutex::new(HashMap::new()),
            decoded: Mutex::new(HashMap::new()),
            alloc_ctx: Mutex::new(HashMap::new()),
            default_alloc: Mutex::new(HashMap::new()),
            store: Mutex::new(None),
            counters: Mutex::default(),
        }
    }

    /// A strictly serial engine (useful as a determinism reference).
    pub fn serial() -> EvalEngine {
        EvalEngine::new(1)
    }

    /// The worker-pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attach a persistent result store: memoizable outcomes are now
    /// also written to disk, and owner-path misses consult the store
    /// before simulating. Returns the previously attached store, if
    /// any — the new one replaces it (records on disk are untouched),
    /// which is how an explicit `--cache-dir` flag overrides a
    /// `CRAT_CACHE_DIR` environment attachment.
    pub fn attach_store(&self, store: Arc<ResultStore>) -> Option<Arc<ResultStore>> {
        lock(&self.store).replace(store)
    }

    /// Detach the persistent store (records stay on disk), returning
    /// it.
    pub fn detach_store(&self) -> Option<Arc<ResultStore>> {
        lock(&self.store).take()
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<Arc<ResultStore>> {
        lock(&self.store).clone()
    }

    /// Whether a persistent store is attached.
    pub fn has_store(&self) -> bool {
        lock(&self.store).is_some()
    }

    /// A snapshot of the engine's counters, with the attached store's
    /// counters laid over the `store_*` fields.
    pub fn stats(&self) -> EngineStats {
        let store = self.store().map(|s| s.stats()).unwrap_or_default();
        EngineStats {
            store_hits: store.hits,
            store_misses: store.misses,
            store_writes: store.writes,
            store_evictions: store.evictions,
            store_quarantined: store.quarantined,
            store_write_errors: store.write_errors,
            ..*lock(&self.counters)
        }
    }

    /// Add to the counters under their lock. `f` only adds to fields:
    /// it takes no other lock and makes no call.
    pub(crate) fn bump(&self, f: impl FnOnce(&mut EngineStats)) {
        f(&mut lock(&self.counters));
    }

    /// Number of distinct operating points cached so far.
    pub fn cache_len(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Number of distinct kernels in the decoded-kernel cache.
    pub fn decoded_len(&self) -> usize {
        lock(&self.decoded).len()
    }

    /// Number of distinct kernels in the allocation-context cache.
    pub fn alloc_ctx_len(&self) -> usize {
        lock(&self.alloc_ctx).len()
    }

    /// Drop all cached results, decoded kernels, allocation contexts
    /// and default allocations, and zero the counters — including the
    /// attached store's counters, though the store stays attached and
    /// its records stay on disk.
    pub fn reset(&self) {
        if let Some(store) = self.store() {
            store.reset_counters();
        }
        lock(&self.cache).clear();
        lock(&self.decoded).clear();
        lock(&self.alloc_ctx).clear();
        lock(&self.default_alloc).clear();
        *lock(&self.counters) = EngineStats::default();
    }

    /// Fetch (or build) the shared allocation analysis for `kernel`,
    /// keyed by the same kernel-only structural hash as the decoded-
    /// kernel cache: liveness, live ranges, def/use counts, spill
    /// weights, and the interference graph are computed once per
    /// kernel per process, and every design point of a sweep borrows
    /// the one [`AllocContext`]. Concurrent first requests may build
    /// duplicate contexts; the first insert wins and only it is
    /// counted as a build.
    pub fn alloc_context(&self, kernel: &Kernel) -> Arc<AllocContext> {
        self.alloc_context_tracked(kernel).0
    }

    /// [`alloc_context`](Self::alloc_context), also reporting whether
    /// the context came from the cache (`true`) or was freshly built
    /// (`false`) — the pipeline attributes hits to the requesting
    /// strategy.
    pub fn alloc_context_tracked(&self, kernel: &Kernel) -> (Arc<AllocContext>, bool) {
        let key = kernel_key(kernel);
        if let Some(ctx) = lock(&self.alloc_ctx).get(&key) {
            self.bump(|c| c.alloc_ctx_hits += 1);
            return (ctx.clone(), true);
        }
        // Build outside the lock: analyses can take milliseconds on
        // large kernels and must not serialize the whole pool.
        let ctx = Arc::new(AllocContext::build(kernel));
        let mut cache = lock(&self.alloc_ctx);
        match cache.entry(key) {
            Entry::Occupied(e) => {
                self.bump(|c| c.alloc_ctx_hits += 1);
                (e.get().clone(), true)
            }
            Entry::Vacant(v) => {
                self.bump(|c| c.alloc_ctx_builds += 1);
                (v.insert(ctx).clone(), false)
            }
        }
    }

    /// Fetch (or build with `briggs`) the default allocation of
    /// `kernel` at register `budget`, keyed by the kernel-only
    /// structural hash and the budget. Only successes are kept, and
    /// callers pass only the healthy Briggs ladder here — never a
    /// fallback — so a degraded allocation never reaches a later
    /// caller. Built outside the lock; the first insert wins.
    ///
    /// # Errors
    ///
    /// Whatever `briggs` returns; errors are not cached.
    pub(crate) fn default_allocation(
        &self,
        kernel: &Kernel,
        budget: u32,
        briggs: impl FnOnce() -> Result<Allocation, AllocError>,
    ) -> Result<Arc<Allocation>, AllocError> {
        let key = (kernel_key(kernel), budget);
        if let Some(a) = lock(&self.default_alloc).get(&key) {
            return Ok(a.clone());
        }
        let built = Arc::new(briggs()?);
        Ok(lock(&self.default_alloc)
            .entry(key)
            .or_insert(built)
            .clone())
    }

    /// Lower `kernel` through the decoded-kernel cache: the first call
    /// for a given structural hash validates and decodes; later calls
    /// (any operating point of the same binary) share the result.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidKernel`] from validation; errors are not
    /// cached (they are cheap to recompute and rare).
    pub fn decode_cached(&self, kernel: &Kernel) -> Result<Arc<DecodedKernel>, SimError> {
        let key = kernel_key(kernel);
        if let Some(dk) = lock(&self.decoded).get(&key) {
            return Ok(dk.clone());
        }
        // Decode outside the lock; a concurrent decode of the same
        // kernel is harmless (first insert wins, duplicates are
        // dropped and not counted).
        let dk = Arc::new(crat_sim::decode(kernel)?);
        let mut cache = lock(&self.decoded);
        match cache.entry(key) {
            Entry::Occupied(e) => Ok(e.get().clone()),
            Entry::Vacant(v) => {
                self.bump(|c| c.decodes += 1);
                Ok(v.insert(dk).clone())
            }
        }
    }

    /// Simulate through the memo cache. Drop-in for
    /// [`crat_sim::simulate`]: the result (including errors) is
    /// bit-identical to a direct call, with the simulator's error
    /// wrapped as [`CratError::Sim`].
    ///
    /// # Errors
    ///
    /// Whatever the underlying simulation returns, as
    /// [`CratError::Sim`]; a panicking simulation is caught and
    /// surfaced as [`CratError::Internal`]. Simulator errors are
    /// cached like successes (the simulator is deterministic, so
    /// retrying cannot change the outcome); panics never are.
    pub fn simulate(
        &self,
        kernel: &Kernel,
        gpu: &GpuConfig,
        launch: &LaunchConfig,
        regs_per_thread: u32,
        tlp_cap: Option<u32>,
    ) -> Result<SimStats, CratError> {
        self.simulate_budgeted(
            kernel,
            gpu,
            launch,
            regs_per_thread,
            tlp_cap,
            EvalBudget::none(),
        )
    }

    /// [`simulate`](EvalEngine::simulate) under a per-job
    /// [`EvalBudget`].
    ///
    /// A cycle override is applied by tightening the GPU
    /// configuration's `max_cycles`, which also changes the cache key
    /// — so a budgeted result and an unlimited result of the same
    /// operating point never alias. A deadline does *not* change the
    /// key: a job that finishes under its deadline is bit-identical to
    /// an unlimited run, and a [`SimError::DeadlineExceeded`] outcome
    /// is never memoized.
    ///
    /// # Errors
    ///
    /// As [`simulate`](EvalEngine::simulate), plus
    /// [`SimError::CycleLimit`] / [`SimError::DeadlineExceeded`]
    /// (wrapped in [`CratError::Sim`]) when a budget limit is hit.
    pub fn simulate_budgeted(
        &self,
        kernel: &Kernel,
        gpu: &GpuConfig,
        launch: &LaunchConfig,
        regs_per_thread: u32,
        tlp_cap: Option<u32>,
        budget: EvalBudget,
    ) -> Result<SimStats, CratError> {
        // Apply the cycle override by tightening the config, so the
        // cache key naturally reflects the effective limit. An override
        // at or above the GPU's own limit changes nothing.
        let tightened = budget
            .max_cycles_override
            .filter(|&cap| cap < gpu.max_cycles)
            .map(|cap| GpuConfig {
                max_cycles: cap,
                ..gpu.clone()
            });
        let gpu = tightened.as_ref().unwrap_or(gpu);
        let key = sim_key(kernel, gpu, launch, regs_per_thread, tlp_cap);
        let (slot, owner) = {
            let mut cache = lock(&self.cache);
            match cache.entry(key) {
                Entry::Occupied(e) => (e.get().clone(), false),
                Entry::Vacant(v) => (v.insert(Arc::new(OnceLock::new())).clone(), true),
            }
        };
        if !owner {
            self.bump(|c| c.cache_hits += 1);
            return slot.wait().clone();
        }
        // Owner path: consult the persistent store before simulating.
        // Only memoizable, deterministic outcomes are ever persisted,
        // so a disk hit is bit-identical to a fresh simulation and
        // fills the slot exactly as a computed result would.
        let store = self.store();
        if let Some(store) = &store {
            if let Some(result) = store.load(RecordKey(key.0, key.1)) {
                let _ = slot.set(result.clone());
                return result;
            }
        }
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.decode_cached(kernel).and_then(|dk| {
                crat_sim::simulate_decoded(
                    &dk,
                    gpu,
                    launch,
                    regs_per_thread,
                    tlp_cap,
                    budget.deadline,
                )
            })
        }));
        let panicked = caught.is_err();
        let result: Result<SimStats, CratError> = match caught {
            Ok(r) => r.map_err(CratError::Sim),
            Err(payload) => Err(CratError::Internal {
                job: format!(
                    "sim job (kernel `{}`, gpu `{}`, grid {}, block {}, regs {}, tlp {:?})",
                    kernel.name(),
                    gpu.name,
                    launch.grid_blocks,
                    launch.block_size,
                    regs_per_thread,
                    tlp_cap,
                ),
                payload: payload_string(payload.as_ref()),
            }),
        };
        // Decide whether this outcome may stay memoized (module docs),
        // and whether it counts against the budget.
        let (evict, over_budget) = match &result {
            Err(CratError::Internal { .. }) => (true, false),
            Err(CratError::Sim(SimError::DeadlineExceeded { .. })) => (true, true),
            // Only a limit the budget set counts as the budget's.
            Err(CratError::Sim(SimError::CycleLimit { .. })) => (false, tightened.is_some()),
            _ => (false, false),
        };
        let (cycles, insts) = result.as_ref().map_or((0, 0), |s| (s.cycles, s.warp_insts));
        self.bump(|c| {
            c.sims_executed += 1;
            c.panics_caught += u64::from(panicked);
            c.budget_exceeded += u64::from(over_budget);
            c.sim_cycles += cycles;
            c.sim_insts += insts;
        });
        // Fill the slot first so concurrent waiters always unblock,
        // then drop the entry for non-memoizable outcomes. New
        // requesters arriving before the removal wait on this slot and
        // observe the structured error; requesters after it re-own.
        let _ = slot.set(result.clone());
        if evict {
            let mut cache = lock(&self.cache);
            if cache.get(&key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                cache.remove(&key);
            }
        } else if let Some(store) = &store {
            // Memoizable outcome: persist it (best effort) under the
            // same key the in-memory cache uses.
            store.save(RecordKey(key.0, key.1), &result);
        }
        result
    }

    /// Run a batch of simulations across the worker pool, returning
    /// results **in submission order** (batch `i` → result `i`), so
    /// callers that scan for the first error or the earliest minimum
    /// behave exactly as a serial loop would. Each job is panic
    /// isolated: a panicking job yields [`CratError::Internal`] in its
    /// result position and the other jobs are unaffected.
    pub fn simulate_batch(&self, jobs: &[SimJob<'_>]) -> Vec<Result<SimStats, CratError>> {
        let nested = self.try_par_map(jobs, |j| {
            self.simulate(j.kernel, j.gpu, j.launch, j.regs_per_thread, j.tlp_cap)
        });
        nested.into_iter().map(|r| r.and_then(|x| x)).collect()
    }

    /// Apply `f` to every item across the worker pool and collect the
    /// results in item order. Falls back to a plain serial map when
    /// the pool width is 1 or the batch has a single item.
    ///
    /// # Panics
    ///
    /// If `f` itself panics the panic is recorded in
    /// [`EngineStats::panics_caught`], **all** remaining workers are
    /// drained (no thread is left detached), and the first payload is
    /// then re-raised on the calling thread. Use
    /// [`try_par_map`](EvalEngine::try_par_map) for the non-panicking
    /// variant.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let width = self.threads.min(n);
        if width <= 1 {
            let serial =
                std::panic::catch_unwind(AssertUnwindSafe(|| items.iter().map(&f).collect()));
            return serial.unwrap_or_else(|payload| {
                self.bump(|c| c.panics_caught += 1);
                std::panic::resume_unwind(payload)
            });
        }
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..width)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(&items[i])));
                        }
                        local
                    })
                })
                .collect();
            // Join every worker before reacting to a failure: a panic
            // in one worker must not leave the others running (or the
            // scope would re-panic on drop with a second payload).
            for w in workers {
                match w.join() {
                    Ok(part) => indexed.extend(part),
                    Err(payload) => {
                        self.bump(|c| c.panics_caught += 1);
                        first_panic.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    /// Panic-isolated [`par_map`](EvalEngine::par_map): apply `f` to
    /// every item across the worker pool, catching panics per item —
    /// a panicking item yields `Err(CratError::Internal)` in its
    /// result position while every other item completes normally.
    /// Results are in item order.
    pub fn try_par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, CratError>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let indices: Vec<usize> = (0..items.len()).collect();
        self.par_map(&indices, |&i| {
            match std::panic::catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                Ok(r) => Ok(r),
                Err(payload) => {
                    self.bump(|c| c.panics_caught += 1);
                    Err(CratError::Internal {
                        job: format!("batch item {i}"),
                        payload: payload_string(payload.as_ref()),
                    })
                }
            }
        })
    }
}

impl Default for EvalEngine {
    fn default() -> EvalEngine {
        EvalEngine::new(0)
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker-pool width requested by the environment: `CRAT_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism.
pub fn threads_from_env() -> usize {
    std::env::var("CRAT_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(hardware_threads)
}

static GLOBAL: OnceLock<EvalEngine> = OnceLock::new();

/// Build an engine and attach the persistent store requested by the
/// environment (`CRAT_CACHE_DIR` / `CRAT_CACHE_LIMIT`), if any. A
/// store that fails to open is skipped silently — persistence is an
/// optimization and an env var must not break an unrelated run; the
/// CLI layer surfaces open errors when a store is requested
/// explicitly via `--cache-dir`.
fn engine_from_env(threads: usize) -> EvalEngine {
    let engine = EvalEngine::new(threads);
    if let Some(config) = StoreConfig::from_env() {
        if let Ok(store) = ResultStore::open(config) {
            let _ = engine.attach_store(Arc::new(store));
        }
    }
    engine
}

/// The process-wide shared engine (one memo cache per process). The
/// first caller fixes the pool width — either [`configure_global`] or,
/// lazily, [`threads_from_env`] — and the environment's persistent
/// store, if `CRAT_CACHE_DIR` is set.
pub fn global() -> &'static EvalEngine {
    GLOBAL.get_or_init(|| engine_from_env(threads_from_env()))
}

/// Fix the global engine's pool width (`0` = available parallelism)
/// before anything else uses it. Returns the engine; if the global
/// engine already exists its width is left unchanged.
pub fn configure_global(threads: usize) -> &'static EvalEngine {
    GLOBAL.get_or_init(|| engine_from_env(threads))
}

/// Simulate through the process-wide engine. Argument-compatible with
/// [`crat_sim::simulate`] so call sites can switch by changing one
/// import; the simulator's error arrives wrapped in
/// [`CratError::Sim`].
///
/// # Errors
///
/// Whatever the underlying simulation returns; see
/// [`EvalEngine::simulate`].
pub fn simulate(
    kernel: &Kernel,
    gpu: &GpuConfig,
    launch: &LaunchConfig,
    regs_per_thread: u32,
    tlp_cap: Option<u32>,
) -> Result<SimStats, CratError> {
    global().simulate(kernel, gpu, launch, regs_per_thread, tlp_cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_workloads::{build_kernel, launch_sized, suite};
    use std::time::Duration;

    fn setup() -> (Kernel, GpuConfig, LaunchConfig) {
        let app = suite::spec("BAK");
        (build_kernel(app), GpuConfig::fermi(), launch_sized(app, 30))
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let (k, gpu, _) = setup();
        // Grid 120 leaves 8 blocks per SM, so caps 2 and 3 and no cap
        // are three distinct operating points.
        let launch = launch_sized(suite::spec("BAK"), 120);
        assert!(crat_sim::resident_blocks(&gpu, &launch, 16, k.shared_bytes(), None) > 3);
        let a = sim_key(&k, &gpu, &launch, 16, Some(2));
        let b = sim_key(&k, &gpu, &launch, 16, Some(2));
        assert_eq!(a, b, "same inputs must produce the same key");
        assert_ne!(
            a,
            sim_key(&k, &gpu, &launch, 17, Some(2)),
            "regs must be keyed"
        );
        assert_ne!(
            a,
            sim_key(&k, &gpu, &launch, 16, Some(3)),
            "tlp cap must be keyed"
        );
        assert_ne!(
            a,
            sim_key(&k, &gpu, &launch, 16, None),
            "capped vs uncapped must differ"
        );
        let kepler = GpuConfig::kepler();
        assert_ne!(
            a,
            sim_key(&k, &kepler, &launch, 16, Some(2)),
            "gpu must be keyed"
        );

        // Caps that leave the same resident blocks are one simulation:
        // the top of the occupancy limit and no cap...
        let top = crat_sim::resident_blocks(&gpu, &launch, 16, k.shared_bytes(), None);
        assert_eq!(
            sim_key(&k, &gpu, &launch, 16, None),
            sim_key(&k, &gpu, &launch, 16, Some(top))
        );
        // ...and, at grid 30 (2 blocks per SM), caps 2, 3 and none.
        let (_, _, small) = setup();
        let uncapped = sim_key(&k, &gpu, &small, 16, None);
        assert_eq!(uncapped, sim_key(&k, &gpu, &small, 16, Some(2)));
        assert_eq!(uncapped, sim_key(&k, &gpu, &small, 16, Some(3)));
        assert_ne!(uncapped, sim_key(&k, &gpu, &small, 16, Some(1)));
        // A job the simulator rejects before it reads the cap keys the
        // raw cap: a bad block size, or an unbound parameter.
        let bad = LaunchConfig {
            block_size: 63,
            ..launch.clone()
        };
        assert_ne!(
            sim_key(&k, &gpu, &bad, 16, Some(2)),
            sim_key(&k, &gpu, &bad, 16, Some(3))
        );
        let unbound = LaunchConfig::new(120, launch.block_size);
        assert_ne!(
            sim_key(&k, &gpu, &unbound, 16, Some(2)),
            sim_key(&k, &gpu, &unbound, 16, Some(3))
        );
    }

    #[test]
    fn key_ignores_param_insertion_order() {
        let (k, gpu, _) = setup();
        let l1 = LaunchConfig::new(30, 128)
            .with_param("a", 1)
            .with_param("b", 2);
        let l2 = LaunchConfig::new(30, 128)
            .with_param("b", 2)
            .with_param("a", 1);
        assert_eq!(
            sim_key(&k, &gpu, &l1, 16, None),
            sim_key(&k, &gpu, &l2, 16, None)
        );
    }

    #[test]
    fn cache_hit_returns_identical_stats() {
        let (k, gpu, launch) = setup();
        let engine = EvalEngine::serial();
        let cold = engine.simulate(&k, &gpu, &launch, 16, Some(2)).unwrap();
        let warm = engine.simulate(&k, &gpu, &launch, 16, Some(2)).unwrap();
        assert_eq!(cold, warm);
        let direct = crat_sim::simulate(&k, &gpu, &launch, 16, Some(2)).unwrap();
        assert_eq!(cold, direct, "engine result must match a direct simulation");
        let stats = engine.stats();
        assert_eq!(stats.sims_executed, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.requests(), 2);
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn batch_preserves_submission_order() {
        let (k, gpu, launch) = setup();
        let engine = EvalEngine::new(4);
        let jobs: Vec<SimJob<'_>> = (1..=4)
            .map(|tlp| SimJob {
                kernel: &k,
                gpu: &gpu,
                launch: &launch,
                regs_per_thread: 16,
                tlp_cap: Some(tlp),
            })
            .collect();
        let parallel = engine.simulate_batch(&jobs);
        let serial: Vec<_> = jobs
            .iter()
            .map(|j| {
                crat_sim::simulate(j.kernel, j.gpu, j.launch, j.regs_per_thread, j.tlp_cap)
                    .map_err(CratError::Sim)
            })
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn par_map_matches_serial_map() {
        let engine = EvalEngine::new(8);
        let items: Vec<u64> = (0..100).collect();
        let parallel = engine.par_map(&items, |&x| x * x + 1);
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn try_par_map_isolates_a_panicking_item() {
        let engine = EvalEngine::new(4);
        let items: Vec<u64> = (0..16).collect();
        let results = engine.try_par_map(&items, |&x| {
            assert!(x != 7, "injected item panic");
            x * 2
        });
        assert_eq!(results.len(), 16);
        for (i, r) in results.iter().enumerate() {
            if i == 7 {
                match r {
                    Err(CratError::Internal { job, payload }) => {
                        assert!(job.contains("item 7"), "job was: {job}");
                        assert!(payload.contains("injected item panic"));
                    }
                    other => panic!("expected Internal, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i as u64 * 2));
            }
        }
        assert_eq!(engine.stats().panics_caught, 1);
    }

    #[test]
    fn par_map_drains_workers_on_panic_and_reraises() {
        // The serial path (width 1, or a single item) counts the panic
        // exactly as the worker pool does.
        for (threads, n) in [(1, 32), (4, 32), (4, 1)] {
            let engine = EvalEngine::new(threads);
            let items: Vec<u64> = (0..n).collect();
            let bad = n.min(4) - 1;
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                engine.par_map(&items, |&x| {
                    assert!(x != bad, "worker blew up");
                    x
                })
            }));
            let payload = caught.expect_err("panic must propagate");
            assert!(payload_string(payload.as_ref()).contains("worker blew up"));
            assert_eq!(
                engine.stats().panics_caught,
                1,
                "{threads} threads, {n} items"
            );
            // The engine is still usable after the propagated panic.
            let ok = engine.par_map(&items, |&x| x + 1);
            assert_eq!(ok[n as usize - 1], n);
        }
    }

    #[test]
    fn budget_cycle_override_degrades_to_cycle_limit() {
        let (k, gpu, launch) = setup();
        let engine = EvalEngine::serial();
        let budget = EvalBudget::none().with_max_cycles(10);
        let r = engine.simulate_budgeted(&k, &gpu, &launch, 16, Some(2), budget);
        match r {
            Err(CratError::Sim(SimError::CycleLimit { cycles })) => assert!(cycles >= 10),
            other => panic!("expected CycleLimit, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.budget_exceeded, 1);
        assert_eq!(stats.panics_caught, 0);
        // Deterministic outcome: memoized under the tightened key, and
        // the unlimited run is unaffected by it.
        assert_eq!(engine.cache_len(), 1);
        let full = engine.simulate(&k, &gpu, &launch, 16, Some(2));
        assert!(full.is_ok());
        assert_eq!(engine.cache_len(), 2);

        // An override at or above the GPU's own limit leaves the config
        // as it is: the GPU's limit stops the run, and the budget is not
        // charged, whichever of the two requests comes first.
        let short = GpuConfig {
            max_cycles: 500,
            ..gpu.clone()
        };
        let loose = EvalBudget::none().with_max_cycles(1_000_000);
        for loose_first in [true, false] {
            let engine = EvalEngine::serial();
            let mut results = Vec::new();
            for loose_now in [loose_first, !loose_first] {
                let budget = if loose_now { loose } else { EvalBudget::none() };
                results.push(engine.simulate_budgeted(&k, &short, &launch, 16, Some(2), budget));
            }
            for r in &results {
                assert!(
                    matches!(r, Err(CratError::Sim(SimError::CycleLimit { .. }))),
                    "{r:?}"
                );
            }
            let stats = engine.stats();
            assert_eq!(stats.budget_exceeded, 0);
            assert_eq!((stats.sims_executed, stats.cache_hits), (1, 1));
        }
    }

    #[test]
    fn budget_expired_deadline_is_not_cached() {
        let (k, gpu, launch) = setup();
        let engine = EvalEngine::serial();
        let budget = EvalBudget::none().with_deadline(Instant::now() - Duration::from_secs(1));
        let r = engine.simulate_budgeted(&k, &gpu, &launch, 16, Some(2), budget);
        match r {
            Err(CratError::Sim(SimError::DeadlineExceeded { .. })) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(engine.stats().budget_exceeded, 1);
        assert_eq!(
            engine.cache_len(),
            0,
            "deadline outcomes must not be memoized"
        );
        // A retry with a generous deadline succeeds under the same key.
        let budget = EvalBudget::none().with_deadline(Instant::now() + Duration::from_secs(600));
        let r = engine.simulate_budgeted(&k, &gpu, &launch, 16, Some(2), budget);
        assert!(r.is_ok());
        let direct = crat_sim::simulate(&k, &gpu, &launch, 16, Some(2)).unwrap();
        assert_eq!(
            r.unwrap(),
            direct,
            "under-deadline result matches unlimited"
        );
    }

    #[test]
    fn decoded_cache_is_shared_across_operating_points() {
        let (k, gpu, _) = setup();
        // Grid 120: caps 1-3 are three distinct resident-block counts.
        let launch = launch_sized(suite::spec("BAK"), 120);
        let engine = EvalEngine::serial();
        for tlp in 1..=3 {
            engine.simulate(&k, &gpu, &launch, 16, Some(tlp)).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.sims_executed, 3);
        assert_eq!(stats.decodes, 1, "a TLP sweep decodes the binary once");
        assert_eq!(engine.decoded_len(), 1);
        assert!(stats.sim_cycles > 0);
        assert!(stats.sim_insts > 0);
        engine.reset();
        assert_eq!(engine.decoded_len(), 0);
    }

    #[test]
    fn throughput_counters_sum_executed_sims_only() {
        let (k, gpu, launch) = setup();
        let engine = EvalEngine::serial();
        let s = engine.simulate(&k, &gpu, &launch, 16, Some(2)).unwrap();
        // A cache hit adds nothing.
        engine.simulate(&k, &gpu, &launch, 16, Some(2)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.sim_cycles, s.cycles);
        assert_eq!(stats.sim_insts, s.warp_insts);
    }

    #[test]
    fn alloc_context_cache_is_shared_per_kernel() {
        let (k, _, _) = setup();
        let engine = EvalEngine::serial();
        let a = engine.alloc_context(&k);
        let b = engine.alloc_context(&k);
        assert!(Arc::ptr_eq(&a, &b), "both requests must borrow one context");
        let stats = engine.stats();
        assert_eq!(stats.alloc_ctx_builds, 1);
        assert_eq!(stats.alloc_ctx_hits, 1);
        assert_eq!(engine.alloc_ctx_len(), 1);
        engine.bump(|c| c.allocs_run += 3);
        assert_eq!(engine.stats().allocs_run, 3);
        // A different kernel gets its own context.
        let other = build_kernel(suite::spec("CFD"));
        let c = engine.alloc_context(&other);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(engine.alloc_ctx_len(), 2);
        engine.reset();
        assert_eq!(engine.alloc_ctx_len(), 0);
        assert_eq!(engine.stats(), EngineStats::default());
    }

    #[test]
    fn default_allocations_are_memoized_by_kernel_and_budget() {
        let (k, _, _) = setup();
        let engine = EvalEngine::serial();
        let briggs =
            |budget| crat_regalloc::allocate(&k, &crat_regalloc::AllocOptions::new(budget));
        // Errors are returned, not cached.
        let failed = AllocError::IterationLimit;
        let r = engine.default_allocation(&k, 21, || Err(failed.clone()));
        assert_eq!(r, Err(failed));
        let a = engine.default_allocation(&k, 21, || briggs(21)).unwrap();
        let b = engine
            .default_allocation(&k, 21, || panic!("a memo hit must not allocate"))
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "both requests must share one allocation"
        );
        let c = engine.default_allocation(&k, 24, || briggs(24)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "the budget is keyed");
        engine.reset();
        let mut rebuilt = false;
        let _ = engine.default_allocation(&k, 21, || {
            rebuilt = true;
            briggs(21)
        });
        assert!(rebuilt, "reset drops the memo");
    }

    #[test]
    fn reset_clears_cache_and_counters() {
        let (k, gpu, launch) = setup();
        let engine = EvalEngine::serial();
        engine.simulate(&k, &gpu, &launch, 16, Some(1)).unwrap();
        engine.reset();
        assert_eq!(engine.stats(), EngineStats::default());
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn hit_rates_are_guarded_on_fresh_and_reset_engines() {
        // Satellite 1: a freshly-reset engine has zero requests, and
        // both rates must read 0 instead of dividing by zero.
        let fresh = EngineStats::default();
        assert_eq!(fresh.requests(), 0);
        assert_eq!(fresh.hit_rate(), 0.0);
        assert_eq!(fresh.store_lookups(), 0);
        assert_eq!(fresh.store_hit_rate(), 0.0);
        let engine = EvalEngine::serial();
        engine.reset();
        let stats = engine.stats();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.store_hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
    }

    #[test]
    fn warm_restart_replays_from_the_store() {
        use crate::store::{ResultStore, StoreConfig};

        let (k, gpu, launch) = setup();
        let dir =
            std::env::temp_dir().join(format!("crat-engine-store-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cold_engine = EvalEngine::serial();
        assert!(!cold_engine.has_store());
        let store = Arc::new(ResultStore::open(StoreConfig::new(&dir)).unwrap());
        assert!(cold_engine.attach_store(store).is_none());
        assert!(cold_engine.has_store());
        let cold = cold_engine
            .simulate(&k, &gpu, &launch, 16, Some(2))
            .unwrap();
        let s = cold_engine.stats();
        assert_eq!((s.sims_executed, s.store_hits, s.store_writes), (1, 0, 1));
        assert_eq!(s.store_misses, 1, "the cold lookup is a disk miss");

        // A new process (modeled by a fresh engine over the same
        // directory) replays the result from disk without simulating.
        let warm_engine = EvalEngine::serial();
        let store = Arc::new(ResultStore::open(StoreConfig::new(&dir)).unwrap());
        let _ = warm_engine.attach_store(store);
        let warm = warm_engine
            .simulate(&k, &gpu, &launch, 16, Some(2))
            .unwrap();
        assert_eq!(cold, warm, "warm restart must be bit-identical");
        let s = warm_engine.stats();
        assert_eq!((s.sims_executed, s.store_hits), (0, 1));
        assert_eq!(s.requests(), 1);
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.store_hit_rate(), 1.0);

        // reset() zeroes the store counters but keeps the store
        // attached and its records on disk.
        warm_engine.reset();
        assert_eq!(warm_engine.stats(), EngineStats::default());
        assert!(warm_engine.has_store());
        let again = warm_engine
            .simulate(&k, &gpu, &launch, 16, Some(2))
            .unwrap();
        assert_eq!(again, cold);
        assert_eq!(warm_engine.stats().store_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
