//! Occupancy: how many thread blocks can reside on an SM at once.
//!
//! The GPU "will launch as many thread blocks concurrently as possible
//! until one or more dimension of resources are exhausted" (paper
//! §2.1). Four dimensions are modeled: threads, blocks, registers, and
//! shared memory.

use crate::config::{GpuConfig, LaunchConfig};
use crate::error::SimError;

/// Which resource limits the TLP at a given design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitingResource {
    /// The per-SM thread limit.
    Threads,
    /// The per-SM resident-block limit.
    Blocks,
    /// The register file.
    Registers,
    /// Shared memory.
    SharedMemory,
}

/// The occupancy result for one design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Resident thread blocks per SM (the paper's TLP).
    pub blocks: u32,
    /// The binding resource (the first one hit, in the order threads /
    /// blocks / registers / shared memory).
    pub limiter: LimitingResource,
}

/// Compute the maximum resident blocks per SM for a kernel using
/// `regs_per_thread` registers, `shmem_per_block` bytes of shared
/// memory, and `block_size` threads per block.
///
/// Register allocation is rounded to warp granularity (a warp's
/// registers are allocated together), and shared memory to 128-byte
/// granularity, matching real allocation hardware.
///
/// Returns an occupancy of 0 blocks (limited by the binding resource)
/// when even a single block does not fit.
///
/// # Examples
///
/// ```
/// use crat_sim::{occupancy, GpuConfig, LimitingResource};
///
/// let fermi = GpuConfig::fermi();
/// // 48 registers x 256 threads: the register file allows 2 blocks.
/// let occ = occupancy(&fermi, 48, 0, 256);
/// assert_eq!(occ.blocks, 2);
/// assert_eq!(occ.limiter, LimitingResource::Registers);
/// ```
pub fn occupancy(
    cfg: &GpuConfig,
    regs_per_thread: u32,
    shmem_per_block: u32,
    block_size: u32,
) -> Occupancy {
    let warps = cfg.warps_per_block(block_size);
    let by_threads = cfg.max_threads_per_sm / block_size;
    let by_blocks = cfg.max_blocks_per_sm;

    // A product past `u32::MAX` exceeds any register file or shared
    // memory, so an overflowing demand fits zero blocks.
    let by_registers = regs_per_thread
        .max(1)
        .checked_mul(cfg.warp_size)
        .and_then(|per_warp| per_warp.checked_mul(warps))
        .map_or(0, |per_block| cfg.registers_per_sm / per_block.max(1));

    let by_shmem = match shmem_per_block.div_ceil(128).checked_mul(128) {
        Some(0) => u32::MAX,
        Some(rounded) => cfg.shmem_per_sm / rounded,
        None => 0,
    };

    let candidates = [
        (by_threads, LimitingResource::Threads),
        (by_blocks, LimitingResource::Blocks),
        (by_registers, LimitingResource::Registers),
        (by_shmem, LimitingResource::SharedMemory),
    ];
    let (blocks, limiter) = candidates
        .into_iter()
        .min_by_key(|&(b, _)| b)
        .expect("candidate list is non-empty");
    Occupancy { blocks, limiter }
}

/// The launch checks the simulator applies before anything else: a
/// non-empty grid and a block size that is a positive multiple of the
/// warp size. Every other crat-sim function that takes a launch
/// assumes they hold.
///
/// # Errors
///
/// [`SimError::BadLaunch`] naming the first check that fails.
pub fn check_launch(cfg: &GpuConfig, launch: &LaunchConfig) -> Result<(), SimError> {
    if launch.grid_blocks == 0 {
        return Err(SimError::BadLaunch("grid has zero blocks".to_string()));
    }
    if launch.block_size == 0 || !launch.block_size.is_multiple_of(cfg.warp_size) {
        return Err(SimError::BadLaunch(format!(
            "block size {} is not a positive multiple of {}",
            launch.block_size, cfg.warp_size
        )));
    }
    Ok(())
}

/// The resident blocks a simulation of `launch` runs with: the
/// occupancy limit, capped at `tlp_cap` and at this SM's share of the
/// grid (`ceil(grid_blocks / num_sms)`). This is the only way the
/// simulator reads the TLP cap, so two caps that give the same count
/// give the same simulation. 0 means the kernel does not fit.
///
/// Requires a launch that passes [`check_launch`]; never panics on
/// one, whatever the configuration.
pub fn resident_blocks(
    cfg: &GpuConfig,
    launch: &LaunchConfig,
    regs_per_thread: u32,
    shmem_per_block: u32,
    tlp_cap: Option<u32>,
) -> u32 {
    let fit = occupancy(cfg, regs_per_thread, shmem_per_block, launch.block_size)
        .blocks
        .min(tlp_cap.unwrap_or(u32::MAX));
    // A configuration without SMs has no per-SM share.
    match cfg.num_sms {
        0 => fit,
        sms => fit.min(launch.grid_blocks.div_ceil(sms)),
    }
}

/// The largest register-per-thread budget that still allows `tlp`
/// resident blocks — the "rightmost point of the stair" in the paper's
/// design-space pruning (§4.2). Returns `None` if no budget in
/// `[1, max_regs_per_thread]` achieves the TLP.
pub fn max_regs_for_tlp(
    cfg: &GpuConfig,
    tlp: u32,
    shmem_per_block: u32,
    block_size: u32,
) -> Option<u32> {
    (1..=cfg.max_regs_per_thread)
        .rev()
        .find(|&r| occupancy(cfg, r, shmem_per_block, block_size).blocks >= tlp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fermi() -> GpuConfig {
        GpuConfig::fermi()
    }

    #[test]
    fn small_kernel_hits_block_limit() {
        let o = occupancy(&fermi(), 16, 0, 128);
        // 1536/128 = 12 by threads, 8 by blocks, registers plentiful.
        assert_eq!(o.blocks, 8);
        assert_eq!(o.limiter, LimitingResource::Blocks);
    }

    #[test]
    fn thread_limit_binds_for_large_blocks() {
        let o = occupancy(&fermi(), 16, 0, 512);
        assert_eq!(o.blocks, 3);
        assert_eq!(o.limiter, LimitingResource::Threads);
    }

    #[test]
    fn register_limit_binds_for_fat_threads() {
        // 48 regs * 256 threads = 12288 regs per block; 32768/12288 = 2.
        let o = occupancy(&fermi(), 48, 0, 256);
        assert_eq!(o.blocks, 2);
        assert_eq!(o.limiter, LimitingResource::Registers);
    }

    #[test]
    fn shmem_limit_binds_when_large() {
        let o = occupancy(&fermi(), 16, 24 * 1024, 128);
        assert_eq!(o.blocks, 2);
        assert_eq!(o.limiter, LimitingResource::SharedMemory);
    }

    #[test]
    fn occupancy_is_monotone_in_registers() {
        let cfg = fermi();
        let mut last = u32::MAX;
        for r in 1..=63 {
            let b = occupancy(&cfg, r, 0, 256).blocks;
            assert!(b <= last, "occupancy must not increase with more registers");
            last = b;
        }
    }

    /// The staircase of the paper's Figure 11: occupancy is a step
    /// function of registers per thread.
    #[test]
    fn staircase_shape() {
        let cfg = fermi();
        let blocks: Vec<u32> = (16..=63)
            .map(|r| occupancy(&cfg, r, 0, 256).blocks)
            .collect();
        // At 256 threads/block the thread limit caps the low-register
        // end at 6 blocks (1536/256); at 63 registers the register
        // file allows only 2.
        assert_eq!(blocks.first(), Some(&6));
        assert_eq!(*blocks.last().unwrap(), 2);
        // Monotone non-increasing steps (the staircase).
        assert!(blocks.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn max_regs_for_tlp_is_rightmost_stair_point() {
        let cfg = fermi();
        let r = max_regs_for_tlp(&cfg, 4, 0, 256).unwrap();
        assert_eq!(occupancy(&cfg, r, 0, 256).blocks, 4);
        // One more register drops below 4 blocks.
        assert!(occupancy(&cfg, r + 1, 0, 256).blocks < 4);
    }

    #[test]
    fn max_regs_for_impossible_tlp_is_none() {
        let cfg = fermi();
        assert_eq!(max_regs_for_tlp(&cfg, 100, 0, 256), None);
    }

    #[test]
    fn zero_blocks_when_shmem_oversized() {
        let o = occupancy(&fermi(), 16, 64 * 1024, 128);
        assert_eq!(o.blocks, 0);
        assert_eq!(o.limiter, LimitingResource::SharedMemory);
    }

    #[test]
    fn resident_blocks_is_the_least_of_occupancy_cap_and_share() {
        let cfg = fermi();
        // 48 regs x 256 threads fit 2 blocks; grid 150 gives 10 per SM.
        let launch = LaunchConfig::new(150, 256);
        assert_eq!(resident_blocks(&cfg, &launch, 48, 0, None), 2);
        assert_eq!(resident_blocks(&cfg, &launch, 48, 0, Some(5)), 2);
        assert_eq!(resident_blocks(&cfg, &launch, 48, 0, Some(1)), 1);
        assert_eq!(resident_blocks(&cfg, &launch, 48, 0, Some(0)), 0);
        // Grid 15 leaves one block per SM, whatever the cap.
        let launch = LaunchConfig::new(15, 256);
        assert_eq!(resident_blocks(&cfg, &launch, 16, 0, None), 1);
        assert_eq!(resident_blocks(&cfg, &launch, 16, 0, Some(4)), 1);
    }

    #[test]
    fn overflowing_demands_fit_zero_blocks() {
        let cfg = fermi();
        let o = occupancy(&cfg, u32::MAX, 0, 128);
        assert_eq!((o.blocks, o.limiter), (0, LimitingResource::Registers));
        let o = occupancy(&cfg, 16, u32::MAX, 128);
        assert_eq!((o.blocks, o.limiter), (0, LimitingResource::SharedMemory));
        let huge = LaunchConfig::new(u32::MAX, u32::MAX - 31);
        assert_eq!(resident_blocks(&cfg, &huge, 64, 0, None), 0);
        let no_sms = GpuConfig {
            num_sms: 0,
            ..fermi()
        };
        assert_eq!(
            resident_blocks(&no_sms, &LaunchConfig::new(1, 128), 16, 0, None),
            8
        );
    }

    /// The paper's §2.2 example: "given 2048 threads, each thread is
    /// allocated 32 registers at most" (Kepler-like numbers).
    #[test]
    fn kepler_min_reg_example() {
        let k = GpuConfig::kepler();
        // With 2048 threads resident and 65536 registers, 32 regs each.
        assert_eq!(k.registers_per_sm / k.max_threads_per_sm, 32);
    }
}
