//! Simulated GPU configurations.
//!
//! The default [`GpuConfig::fermi`] matches Table 2 of the CRAT paper
//! (a Fermi-like GPGPU-Sim configuration); [`GpuConfig::kepler`] is
//! the scaled configuration of §7.3 (twice the register file, 2048
//! threads, more resident blocks).

use std::collections::HashMap;

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Greedy-then-oldest: keep issuing the same warp until it stalls,
    /// then pick the oldest ready warp. The policy the paper assumes
    /// (and the basis of its static `OptTLP` estimation).
    Gto,
    /// Loose round-robin.
    Lrr,
}

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Number of MSHR entries (outstanding misses); when exhausted the
    /// pipeline suffers reservation failures — the "stall caused by
    /// cache resource congestion" of the paper's Figure 5(b).
    pub mshrs: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.bytes / (self.ways * self.line_bytes)
    }
}

/// Instruction and memory latencies, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyConfig {
    /// Simple ALU operations (int/float add, mul, mad, logic, moves).
    pub alu: u32,
    /// Special-function-unit operations (sqrt, sin, div, ...).
    pub sfu: u32,
    /// Shared-memory access.
    pub shared: u32,
    /// Parameter/constant-cache access.
    pub param: u32,
    /// L1 hit.
    pub l1_hit: u32,
    /// Additional latency for an L2 hit (on top of the L1 path).
    pub l2: u32,
    /// Additional latency for a DRAM access (on top of the L2 path).
    pub dram: u32,
}

/// Shared-memory bank model: when set on [`GpuConfig::shm_banks`],
/// every shared-memory access partitions its active lanes' addresses
/// into word-granularity banks; an access touching `d` distinct words
/// in one bank serializes into `d` passes, each extra pass costing
/// `conflict_penalty` cycles on the issuing scheduler (attributed to
/// [`crate::StallCause::ShmBankConflict`]). Lanes reading the *same*
/// word broadcast for free, as on real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShmBankConfig {
    /// Number of banks (32 on every generation this repo models).
    pub banks: u32,
    /// Bank word width in bytes (4 on Fermi-class hardware).
    pub word_bytes: u32,
    /// Extra cycles per serialized pass beyond the first.
    pub conflict_penalty: u32,
}

impl Default for ShmBankConfig {
    fn default() -> ShmBankConfig {
        ShmBankConfig {
            banks: 32,
            word_bytes: 4,
            conflict_penalty: 1,
        }
    }
}

/// A simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name of the configuration.
    pub name: String,
    /// Number of streaming multiprocessors. One SM is simulated in
    /// detail; the grid is divided evenly across SMs, and L2/DRAM
    /// bandwidth are scaled to one SM's share.
    pub num_sms: u32,
    /// Core clock in MHz (used by the energy model).
    pub clock_mhz: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum registers per thread the ISA encoding allows (63 on
    /// Fermi, 255 on Kepler).
    pub max_regs_per_thread: u32,
    /// Shared-memory bytes per SM.
    pub shmem_per_sm: u32,
    /// Warp schedulers per SM (each issues one instruction per cycle).
    pub num_schedulers: u32,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 slice serving this SM (total L2 divided by `num_sms`).
    pub l2: CacheConfig,
    /// Latencies.
    pub lat: LatencyConfig,
    /// Bypass the L1 for *global* loads (static cache bypassing, as in
    /// Xie et al. ICCAD'13 — the companion technique the paper's
    /// related-work section says CRAT composes with). Local-memory
    /// spill traffic still uses the L1.
    pub l1_bypass_global: bool,
    /// DRAM bytes per core cycle available to one SM.
    pub dram_bytes_per_cycle: f64,
    /// Upper bound on simulated cycles (safety stop).
    pub max_cycles: u64,
    /// Shared-memory bank model; `None` (the default on every stock
    /// configuration) keeps shared memory conflict-free and the
    /// simulated timing bit-identical to the pre-bank-model baselines.
    pub shm_banks: Option<ShmBankConfig>,
}

/// Structural hashing for the simulation memo cache: the DRAM
/// bandwidth float hashes by bit pattern, so two `==` configurations
/// always hash identically.
impl std::hash::Hash for GpuConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let GpuConfig {
            name,
            num_sms,
            clock_mhz,
            warp_size,
            max_threads_per_sm,
            max_blocks_per_sm,
            registers_per_sm,
            max_regs_per_thread,
            shmem_per_sm,
            num_schedulers,
            scheduler,
            l1,
            l2,
            lat,
            l1_bypass_global,
            dram_bytes_per_cycle,
            max_cycles,
            shm_banks,
        } = self;
        name.hash(state);
        num_sms.hash(state);
        clock_mhz.hash(state);
        warp_size.hash(state);
        max_threads_per_sm.hash(state);
        max_blocks_per_sm.hash(state);
        registers_per_sm.hash(state);
        max_regs_per_thread.hash(state);
        shmem_per_sm.hash(state);
        num_schedulers.hash(state);
        scheduler.hash(state);
        l1.hash(state);
        l2.hash(state);
        lat.hash(state);
        l1_bypass_global.hash(state);
        dram_bytes_per_cycle.to_bits().hash(state);
        max_cycles.hash(state);
        shm_banks.hash(state);
    }
}

impl GpuConfig {
    /// The Fermi-like configuration of the paper's Table 2.
    pub fn fermi() -> GpuConfig {
        GpuConfig {
            name: "fermi".to_string(),
            num_sms: 15,
            clock_mhz: 700,
            warp_size: 32,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            registers_per_sm: 32 * 1024, // 128 KB
            max_regs_per_thread: 63,
            shmem_per_sm: 48 * 1024,
            num_schedulers: 2,
            scheduler: SchedulerKind::Gto,
            l1: CacheConfig {
                bytes: 32 * 1024,
                ways: 4,
                line_bytes: 128,
                mshrs: 32,
            },
            // 768 KB unified L2 divided across 15 SMs.
            l2: CacheConfig {
                bytes: 768 * 1024 / 15,
                ways: 8,
                line_bytes: 128,
                mshrs: 64,
            },
            lat: LatencyConfig {
                alu: 18,
                sfu: 36,
                shared: 30,
                param: 20,
                l1_hit: 36,
                l2: 180,
                dram: 280,
            },
            l1_bypass_global: false,
            dram_bytes_per_cycle: 16.0,
            max_cycles: 200_000_000,
            shm_banks: None,
        }
    }

    /// The Kepler-like scaling of §7.3: double register file, 2048
    /// threads, 16 resident blocks, 255 registers per thread.
    pub fn kepler() -> GpuConfig {
        GpuConfig {
            name: "kepler".to_string(),
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            registers_per_sm: 64 * 1024, // 256 KB
            max_regs_per_thread: 255,
            ..GpuConfig::fermi()
        }
    }

    /// The paper's `MinReg`: registers per thread below which the TLP
    /// is no longer limited by registers (`NumRegister / MaxThreads`).
    pub fn min_reg(&self) -> u32 {
        self.registers_per_sm / self.max_threads_per_sm
    }

    /// Warps per thread block of `block_size` threads.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a positive multiple of the warp
    /// size (the simulator executes whole warps).
    pub fn warps_per_block(&self, block_size: u32) -> u32 {
        assert!(
            block_size > 0 && block_size.is_multiple_of(self.warp_size),
            "block size {block_size} must be a positive multiple of {}",
            self.warp_size
        );
        block_size / self.warp_size
    }
}

/// A kernel launch: grid geometry plus parameter bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchConfig {
    /// Thread blocks in the grid (across the whole GPU).
    pub grid_blocks: u32,
    /// Threads per block (multiple of the warp size).
    pub block_size: u32,
    /// Parameter values by name; pointers are synthetic global
    /// addresses.
    pub params: HashMap<String, u64>,
}

/// Structural hashing for the simulation memo cache: parameters are
/// folded in sorted-name order, independent of `HashMap` iteration
/// order, so two `==` launches always hash identically.
impl std::hash::Hash for LaunchConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.grid_blocks.hash(state);
        self.block_size.hash(state);
        let mut params: Vec<(&str, u64)> =
            self.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        params.sort_unstable();
        params.hash(state);
    }
}

impl LaunchConfig {
    /// A launch with no parameters bound.
    pub fn new(grid_blocks: u32, block_size: u32) -> LaunchConfig {
        LaunchConfig {
            grid_blocks,
            block_size,
            params: HashMap::new(),
        }
    }

    /// Bind a parameter value (builder style).
    pub fn with_param(mut self, name: &str, value: u64) -> LaunchConfig {
        self.params.insert(name.to_string(), value);
        self
    }
}

/// Test-only fault injection.
///
/// The fault-injection harness (`crat-core/tests/fault_injection.rs`)
/// needs two things from the simulator: a way to make a worker's
/// simulation *panic* on demand (to prove the engine's panic
/// isolation), and a deterministic, seed-driven source of adversarial
/// inputs. Both live here so every layer shares one definition.
///
/// Nothing in this module runs in production paths unless explicitly
/// armed; the disarmed fast path is a single relaxed atomic load.
pub mod fault {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::{GpuConfig, LaunchConfig};

    /// Panic payload of an injected simulator panic (recognizable in
    /// `CratError::Internal` results).
    pub const INJECTED_SIM_PANIC: &str = "injected fault: simulated worker panic";

    /// Pending injected simulator panics.
    static SIM_PANICS: AtomicU64 = AtomicU64::new(0);
    /// Pending injected Briggs-coloring failures (consumed by the
    /// optimizer's allocation ladder to force its linear-scan
    /// fallback).
    static BRIGGS_FAILURES: AtomicU64 = AtomicU64::new(0);
    /// Pending injected SSA-allocator failures (the roster's
    /// spill-minimizing strategy; consumed like Briggs failures).
    static SSA_FAILURES: AtomicU64 = AtomicU64::new(0);

    /// Arm the next `n` simulations (process-wide) to panic with
    /// [`INJECTED_SIM_PANIC`]. Test-only: callers must serialize tests
    /// that arm faults (arming is global).
    pub fn arm_sim_panics(n: u64) {
        SIM_PANICS.store(n, Ordering::SeqCst);
    }

    /// Arm the next `n` Briggs allocations (process-wide) to report
    /// failure, forcing the optimizer's degradation ladder onto its
    /// linear-scan fallback. Test-only.
    pub fn arm_briggs_failures(n: u64) {
        BRIGGS_FAILURES.store(n, Ordering::SeqCst);
    }

    /// Arm the next `n` SSA allocations (process-wide) to report
    /// failure, exercising the roster's degradation behaviour.
    /// Test-only.
    pub fn arm_ssa_failures(n: u64) {
        SSA_FAILURES.store(n, Ordering::SeqCst);
    }

    /// Disarm every pending fault.
    pub fn disarm_all() {
        SIM_PANICS.store(0, Ordering::SeqCst);
        BRIGGS_FAILURES.store(0, Ordering::SeqCst);
        SSA_FAILURES.store(0, Ordering::SeqCst);
    }

    /// Consume one pending fault from `counter`; false when disarmed.
    fn take(counter: &AtomicU64) -> bool {
        // Fast path: nothing armed (the only cost healthy runs pay).
        if counter.load(Ordering::Relaxed) == 0 {
            return false;
        }
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    /// Consume one pending Briggs failure (polled by `crat-core`).
    pub fn take_briggs_failure() -> bool {
        take(&BRIGGS_FAILURES)
    }

    /// Consume one pending SSA-allocator failure (polled by
    /// `crat-core`).
    pub fn take_ssa_failure() -> bool {
        take(&SSA_FAILURES)
    }

    /// Panic if a simulator panic is armed (polled at simulation
    /// entry).
    pub(crate) fn fire_sim_panic() {
        if take(&SIM_PANICS) {
            panic!("{INJECTED_SIM_PANIC}");
        }
    }

    /// A deterministic, seed-driven plan of adversarial inputs: PTX
    /// mutations, hostile launch geometry, and shrunken GPU
    /// configurations. Same seed → same faults, so every harness
    /// failure is reproducible from its seed alone.
    #[derive(Debug, Clone)]
    pub struct FaultPlan {
        state: u64,
    }

    impl FaultPlan {
        /// A plan seeded with `seed` (any value, including 0).
        pub fn new(seed: u64) -> FaultPlan {
            FaultPlan {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }

        /// Next raw 64-bit value (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `0..bound` (`bound` must be positive).
        pub fn next_range(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound.max(1)
        }

        /// True with probability `num`/`den`.
        pub fn chance(&mut self, num: u64, den: u64) -> bool {
            self.next_range(den.max(1)) < num
        }

        /// Mutate PTX source: truncation, line shuffling/duplication,
        /// operand-character swaps, and out-of-range immediates. The
        /// result is adversarial but deterministic for the plan state.
        pub fn mutate_ptx(&mut self, src: &str) -> String {
            match self.next_range(5) {
                // Truncate mid-stream (possibly mid-token).
                0 => {
                    let mut cut = self.next_range(src.len().max(1) as u64) as usize;
                    while cut > 0 && !src.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    src[..cut].to_string()
                }
                // Drop a random line.
                1 => {
                    let lines: Vec<&str> = src.lines().collect();
                    if lines.is_empty() {
                        return String::new();
                    }
                    let drop = self.next_range(lines.len() as u64) as usize;
                    let mut out = String::new();
                    for (i, l) in lines.iter().enumerate() {
                        if i != drop {
                            out.push_str(l);
                            out.push('\n');
                        }
                    }
                    out
                }
                // Duplicate a random line (redefinitions, double rets).
                2 => {
                    let lines: Vec<&str> = src.lines().collect();
                    if lines.is_empty() {
                        return String::new();
                    }
                    let dup = self.next_range(lines.len() as u64) as usize;
                    let mut out = String::new();
                    for (i, l) in lines.iter().enumerate() {
                        out.push_str(l);
                        out.push('\n');
                        if i == dup {
                            out.push_str(l);
                            out.push('\n');
                        }
                    }
                    out
                }
                // Swap two characters (shuffled operands, broken
                // mnemonics).
                3 => {
                    let mut chars: Vec<char> = src.chars().collect();
                    if chars.len() >= 2 {
                        let a = self.next_range(chars.len() as u64) as usize;
                        let b = self.next_range(chars.len() as u64) as usize;
                        chars.swap(a, b);
                    }
                    chars.into_iter().collect()
                }
                // Blow up every immediate on a random line to an
                // out-of-range value.
                _ => {
                    let huge = format!("{}", self.next_u64());
                    let lines: Vec<&str> = src.lines().collect();
                    if lines.is_empty() {
                        return String::new();
                    }
                    let target = self.next_range(lines.len() as u64) as usize;
                    let mut out = String::new();
                    for (i, l) in lines.iter().enumerate() {
                        if i == target {
                            let mut mutated = String::new();
                            let mut in_num = false;
                            for c in l.chars() {
                                if c.is_ascii_digit() {
                                    if !in_num {
                                        mutated.push_str(&huge);
                                        in_num = true;
                                    }
                                } else {
                                    in_num = false;
                                    mutated.push(c);
                                }
                            }
                            out.push_str(&mutated);
                        } else {
                            out.push_str(l);
                        }
                        out.push('\n');
                    }
                    out
                }
            }
        }

        /// An adversarial launch: zero/huge grids, non-warp-multiple or
        /// zero block sizes, unbound or hostile parameter values.
        pub fn adversarial_launch(&mut self, warp_size: u32) -> LaunchConfig {
            let grid = match self.next_range(4) {
                0 => 0,
                1 => 1,
                2 => self.next_range(1 << 20) as u32,
                _ => u32::MAX,
            };
            let block = match self.next_range(4) {
                0 => 0,
                1 => self.next_range(5 * u64::from(warp_size)) as u32, // often misaligned
                2 => warp_size * (1 + self.next_range(64) as u32),     // possibly oversized
                _ => u32::MAX - self.next_range(100) as u32,
            };
            let mut launch = LaunchConfig::new(grid, block);
            for p in 0..self.next_range(4) {
                let value = match self.next_range(3) {
                    0 => 0,
                    1 => u64::MAX - self.next_range(1 << 12),
                    _ => self.next_u64(),
                };
                launch = launch.with_param(&format!("p{p}"), value);
            }
            launch
        }

        /// Corrupt one serialized store record: the disk-failure modes
        /// the persistent result cache must survive. The five shapes —
        /// torn write (the tail never hit the disk), hard truncation
        /// (at most a header survives), a single flipped bit, a stale
        /// format-version stamp, and appended garbage (a crashed
        /// writer followed by a recycled block) — are chosen by the
        /// plan state, so a seed fully determines the damage.
        ///
        /// `version_offset` is the byte offset of the record's
        /// little-endian `u32` format version (4 for crat-core's
        /// `CRST` framing, after the magic).
        pub fn mutate_record(&mut self, bytes: &[u8], version_offset: usize) -> Vec<u8> {
            match self.next_range(5) {
                // Torn write: a strict prefix, cut anywhere.
                0 => {
                    let cut = self.next_range(bytes.len().max(1) as u64) as usize;
                    bytes[..cut.min(bytes.len())].to_vec()
                }
                // Hard truncation: empty, or a sliver of header.
                1 => {
                    let keep = self.next_range(version_offset.max(1) as u64 + 4) as usize;
                    bytes[..keep.min(bytes.len())].to_vec()
                }
                // Single bit flip anywhere in the record.
                2 => {
                    let mut out = bytes.to_vec();
                    if !out.is_empty() {
                        let at = self.next_range(out.len() as u64) as usize;
                        out[at] ^= 1 << self.next_range(8);
                    }
                    out
                }
                // Stale version: stamp a different format version.
                3 => {
                    let mut out = bytes.to_vec();
                    if out.len() >= version_offset + 4 {
                        let bogus =
                            (1 + self.next_range(u64::from(u32::MAX) - 1) as u32).to_le_bytes();
                        let current = &out[version_offset..version_offset + 4];
                        let bogus = if current == bogus {
                            (u32::from_le_bytes(bogus).wrapping_add(1)).to_le_bytes()
                        } else {
                            bogus
                        };
                        out[version_offset..version_offset + 4].copy_from_slice(&bogus);
                    } else if !out.is_empty() {
                        // Record too short to hold a version: flip a
                        // byte instead so the damage is still real.
                        out[0] ^= 0xff;
                    }
                    out
                }
                // Trailing garbage after a complete record.
                _ => {
                    let mut out = bytes.to_vec();
                    for _ in 0..=self.next_range(64) {
                        out.push(self.next_u64() as u8);
                    }
                    out
                }
            }
        }

        /// A hostile GPU configuration derived from `base`: shrunken
        /// register files / caches / shared memory and a tight cycle
        /// limit, to force occupancy failures, reservation storms, and
        /// cycle-limit exits.
        pub fn adversarial_gpu(&mut self, base: &GpuConfig) -> GpuConfig {
            let mut gpu = base.clone();
            gpu.name = format!("fault-{}", self.next_u64());
            if self.chance(1, 2) {
                gpu.registers_per_sm = 1 + self.next_range(2048) as u32;
            }
            if self.chance(1, 2) {
                gpu.shmem_per_sm = self.next_range(4096) as u32;
            }
            if self.chance(1, 2) {
                gpu.max_threads_per_sm = 32 * (1 + self.next_range(8) as u32);
            }
            if self.chance(1, 2) {
                gpu.max_cycles = 1 + self.next_range(10_000);
            }
            if self.chance(1, 2) {
                // Arm the bank model with degenerate geometries: a
                // single bank makes every multi-lane access conflict,
                // wide penalties inflate the serialization windows.
                gpu.shm_banks = Some(super::ShmBankConfig {
                    banks: 1 + self.next_range(64) as u32,
                    word_bytes: 4 << self.next_range(2),
                    conflict_penalty: 1 + self.next_range(8) as u32,
                });
            }
            gpu
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_matches_table2() {
        let c = GpuConfig::fermi();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.registers_per_sm, 32768);
        assert_eq!(c.shmem_per_sm, 48 * 1024);
        assert_eq!(c.max_threads_per_sm, 1536);
        assert_eq!(c.max_blocks_per_sm, 8);
        assert_eq!(c.num_schedulers, 2);
        assert_eq!(c.scheduler, SchedulerKind::Gto);
        assert_eq!(c.l1.bytes, 32 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.line_bytes, 128);
        assert_eq!(c.l1.mshrs, 32);
    }

    #[test]
    fn fermi_min_reg_is_21() {
        // 32768 registers / 1536 threads = 21 (the paper's §4.1 example
        // for GTX680 uses the same formula).
        assert_eq!(GpuConfig::fermi().min_reg(), 21);
    }

    #[test]
    fn kepler_scales_fermi() {
        let k = GpuConfig::kepler();
        assert_eq!(k.registers_per_sm, 65536);
        assert_eq!(k.max_threads_per_sm, 2048);
        assert_eq!(k.max_blocks_per_sm, 16);
        assert_eq!(k.min_reg(), 32);
        // Unchanged parts inherit from Fermi.
        assert_eq!(k.l1, GpuConfig::fermi().l1);
    }

    #[test]
    fn cache_sets() {
        let c = CacheConfig {
            bytes: 32 * 1024,
            ways: 4,
            line_bytes: 128,
            mshrs: 32,
        };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn warps_per_block() {
        let c = GpuConfig::fermi();
        assert_eq!(c.warps_per_block(256), 8);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn non_warp_multiple_block_panics() {
        GpuConfig::fermi().warps_per_block(100);
    }

    #[test]
    fn launch_builder() {
        let l = LaunchConfig::new(64, 128).with_param("out", 0x1000);
        assert_eq!(l.grid_blocks, 64);
        assert_eq!(l.params["out"], 0x1000);
    }
}
