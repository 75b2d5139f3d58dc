//! Memory-hierarchy timing: L1 → L2 slice → bandwidth-limited DRAM.
//!
//! The hierarchy tracks *when* data arrives; values live in the
//! functional memory. Loads allocate in L1 (write-back, LRU); stores
//! are write-through without allocation (they update a present line
//! and mark it dirty, otherwise stream to DRAM), so repeated spill
//! reloads hit in L1 as long as the spill working set of the resident
//! blocks fits — exactly the contention-vs-TLP effect the paper
//! exploits.

use crate::cache::{Cache, CacheDecision, Divisor};
use crate::config::{GpuConfig, LatencyConfig, ShmBankConfig};
use crate::stats::SimStats;

/// Maximum bank words one access can span before the degree scan stops
/// tracking additional words per lane (32 lanes × 8 words covers every
/// type this subset models even under 1-byte bank words).
const MAX_BANK_WORDS: usize = 256;

/// Number of serialized passes a warp's shared-memory access needs
/// under the bank model: the maximum over banks of the count of
/// *distinct* bank words the access touches in that bank. Lanes
/// reading the same word broadcast in a single pass (degree 1), and an
/// access wider than the bank word (e.g. an 8-byte load over 4-byte
/// banks) touches every word it spans. Returns 0 when no lane is
/// active; a conflict-free access returns 1.
pub fn shm_conflict_degree(cfg: &ShmBankConfig, accesses: impl Iterator<Item = (u64, u32)>) -> u32 {
    let word_bytes = cfg.word_bytes.max(1) as u64;
    let banks = cfg.banks.max(1) as u64;
    // Distinct (bank, word) pairs; a warp of 32 lanes touching ≤ 8
    // words each bounds the population, so a fixed scratch suffices.
    let mut seen = [(0u64, 0u64); MAX_BANK_WORDS];
    let mut n = 0usize;
    for (addr, size) in accesses {
        let first = addr / word_bytes;
        let last = addr.saturating_add(size.max(1) as u64 - 1) / word_bytes;
        for word in first..=last {
            let pair = (word % banks, word);
            if !seen[..n].contains(&pair) && n < seen.len() {
                seen[n] = pair;
                n += 1;
            }
        }
    }
    let mut degree = 0u32;
    for i in 0..n {
        let mut ways = 0u32;
        for j in 0..n {
            ways += u32::from(seen[j].0 == seen[i].0);
        }
        degree = degree.max(ways);
    }
    degree
}

/// The timing side of the SM's memory path.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l1: Cache,
    l2: Cache,
    lat: LatencyConfig,
    line: Divisor,
    dram_next_free: u64,
    dram_cycles_per_line: f64,
    dram_fraction: f64,
}

impl MemorySystem {
    /// Build from a GPU configuration.
    pub fn new(cfg: &GpuConfig) -> MemorySystem {
        MemorySystem {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            lat: cfg.lat,
            line: Divisor::new(cfg.l1.line_bytes as u64),
            dram_next_free: 0,
            dram_cycles_per_line: cfg.l1.line_bytes as f64 / cfg.dram_bytes_per_cycle,
            dram_fraction: 0.0,
        }
    }

    /// Advance the DRAM bandwidth queue by one line transfer starting
    /// no earlier than `now`; returns the cycle the transfer begins.
    fn dram_slot(&mut self, now: u64) -> u64 {
        let start = self.dram_next_free.max(now);
        // Accumulate fractional cycles so bandwidth is exact over time.
        self.dram_fraction += self.dram_cycles_per_line;
        let whole = self.dram_fraction.floor();
        self.dram_fraction -= whole;
        self.dram_next_free = start + whole as u64;
        start
    }

    /// Charge any L1 dirty-eviction write-backs to DRAM bandwidth.
    fn charge_writebacks(&mut self, now: u64, stats: &mut SimStats) {
        let n = self.l1.take_writebacks() + self.l2.take_writebacks();
        for _ in 0..n {
            let _ = self.dram_slot(now);
        }
        stats.dram_transactions += n;
    }

    /// Service a miss in L2/DRAM; returns the cycle the line reaches L1.
    fn l2_path(&mut self, addr: u64, now: u64, stats: &mut SimStats) -> Option<u64> {
        stats.l2_accesses += 1;
        match self.l2.access(addr, now) {
            CacheDecision::Hit => {
                stats.l2_hits += 1;
                Some(now + self.lat.l1_hit as u64 + self.lat.l2 as u64)
            }
            CacheDecision::MissPending { ready_at } => Some(ready_at.max(now) + self.lat.l2 as u64),
            CacheDecision::ReservationFail => None,
            CacheDecision::MissNew => {
                stats.dram_transactions += 1;
                let start = self.dram_slot(now);
                let done = start + (self.lat.l1_hit + self.lat.l2 + self.lat.dram) as u64;
                self.l2.complete_miss(addr, done);
                Some(done)
            }
        }
    }

    /// Issue a warp's coalesced load transactions straight to the L2,
    /// bypassing the L1 (static cache bypassing). Never reservation-
    /// fails at L1; returns `None` only when the L2 is saturated.
    pub fn load_warp_bypass(
        &mut self,
        addrs: &[u64],
        now: u64,
        stats: &mut SimStats,
    ) -> Option<u64> {
        self.charge_writebacks(now, stats);
        let mut ready = now + self.lat.l1_hit as u64;
        for &a in addrs {
            match self.l2_path(a, now, stats) {
                Some(r) => ready = ready.max(r),
                None => {
                    stats.l1_reservation_fails += 1;
                    return None;
                }
            }
        }
        Some(ready)
    }

    /// Issue a warp's coalesced load transactions (`addrs` are unique
    /// line-aligned addresses). All transactions must be accepted
    /// atomically: if the miss path is saturated, nothing is issued
    /// and `None` is returned (one reservation failure is recorded).
    ///
    /// On success returns the cycle at which the last transaction's
    /// data is available.
    pub fn load_warp(&mut self, addrs: &[u64], now: u64, stats: &mut SimStats) -> Option<u64> {
        self.l1.drain_completed(now);
        self.charge_writebacks(now, stats);

        // Capacity pre-check so a failed issue leaves no MSHR side
        // effects behind (the instruction replays in full).
        let mut new_lines = 0usize;
        for &a in addrs {
            match self.l1.access(a, now) {
                CacheDecision::MissNew => new_lines += 1,
                CacheDecision::ReservationFail => {
                    stats.l1_reservation_fails += 1;
                    return None;
                }
                _ => {}
            }
        }
        if self.l1.mshrs_in_flight() + new_lines > self.l1.config().mshrs as usize {
            stats.l1_reservation_fails += 1;
            return None;
        }

        let mut ready = now + self.lat.l1_hit as u64;
        for &a in addrs {
            stats.l1_accesses += 1;
            match self.l1.access(a, now) {
                CacheDecision::Hit => {
                    stats.l1_hits += 1;
                }
                CacheDecision::MissPending { ready_at } => {
                    ready = ready.max(ready_at);
                }
                CacheDecision::MissNew => match self.l2_path(a, now, stats) {
                    Some(fill) => {
                        self.l1.complete_miss(a, fill);
                        ready = ready.max(fill);
                    }
                    None => {
                        // L2 saturated: stall the instruction; the L1
                        // MSHRs allocated for earlier lines of this
                        // warp remain (they are real in-flight fills).
                        stats.l1_reservation_fails += 1;
                        return None;
                    }
                },
                CacheDecision::ReservationFail => {
                    stats.l1_reservation_fails += 1;
                    return None;
                }
            }
        }
        Some(ready)
    }

    /// Issue a warp's coalesced store transactions. Stores are
    /// fire-and-forget: they update a present L1 line (marking it
    /// dirty) or stream one DRAM transaction per missing line.
    pub fn store_warp(&mut self, addrs: &[u64], now: u64, stats: &mut SimStats) {
        self.l1.drain_completed(now);
        self.charge_writebacks(now, stats);
        for &a in addrs {
            stats.l1_accesses += 1;
            if self.l1.write_hit(a, now) {
                stats.l1_hits += 1;
            } else {
                let _ = self.dram_slot(now);
                stats.dram_transactions += 1;
            }
        }
    }

    /// The cache-line size, for callers coalescing into their own
    /// (stack-allocated) storage.
    pub(crate) fn line(&self) -> Divisor {
        self.line
    }

    /// Coalesce per-lane byte addresses into unique line addresses.
    pub fn coalesce(&self, lane_addrs: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut lines: Vec<u64> = lane_addrs.map(|a| self.line.round_down(a)).collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }
}

#[cfg(test)]
mod bank_tests {
    use super::*;

    fn banks() -> ShmBankConfig {
        ShmBankConfig::default()
    }

    fn degree(addrs: impl IntoIterator<Item = u64>, size: u32) -> u32 {
        shm_conflict_degree(&banks(), addrs.into_iter().map(|a| (a, size)))
    }

    #[test]
    fn no_active_lanes_is_degree_zero() {
        assert_eq!(degree([], 4), 0);
    }

    #[test]
    fn unit_stride_words_are_conflict_free() {
        // 32 consecutive 4-byte words hit 32 distinct banks.
        assert_eq!(degree((0..32).map(|i| i * 4), 4), 1);
    }

    #[test]
    fn broadcast_of_one_word_is_free() {
        assert_eq!(degree(std::iter::repeat_n(0x40, 32), 4), 1);
    }

    #[test]
    fn stride_two_words_is_two_way() {
        // Even words only: banks 0,2,..,30 each get 2 distinct words.
        assert_eq!(degree((0..32).map(|i| i * 8), 4), 2);
    }

    #[test]
    fn stride_32_words_fully_serializes() {
        // All 32 lanes in bank 0 with distinct words: 32-way conflict.
        assert_eq!(degree((0..32).map(|i| i * 128), 4), 32);
    }

    #[test]
    fn wide_access_spans_two_words() {
        // Warp-interleaved f64: lane i at 8i touches words 2i and
        // 2i+1, so every bank carries exactly 2 distinct words.
        assert_eq!(degree((0..32).map(|i| i * 8), 8), 2);
    }

    #[test]
    fn per_thread_f64_stacks_conflict_harder() {
        // Per-thread contiguous f64, 4 slots: lane stride 32 bytes =
        // 8 words, so lanes {0,4,8,...} collide in bank 0 with
        // distinct words — 8 lanes × 2 words/access ÷ shared span.
        let d = degree((0..32).map(|i| i * 32), 8);
        assert!(d >= 8, "expected a high-degree conflict, got {d}");
    }

    #[test]
    fn mixed_broadcast_and_conflict() {
        // 16 lanes broadcast word 0; 16 lanes spread over distinct
        // banks 1..17: the broadcast is one pass, so degree stays 1.
        let addrs = std::iter::repeat_n(0u64, 16).chain((1..17).map(|i| i * 4));
        assert_eq!(degree(addrs, 4), 1);
    }

    #[test]
    fn single_bank_geometry_serializes_everything() {
        let cfg = ShmBankConfig {
            banks: 1,
            word_bytes: 4,
            conflict_penalty: 1,
        };
        let d = shm_conflict_degree(&cfg, (0..32u64).map(|i| (i * 4, 4)));
        assert_eq!(d, 32);
    }

    #[test]
    fn degenerate_zero_geometry_is_clamped() {
        let cfg = ShmBankConfig {
            banks: 0,
            word_bytes: 0,
            conflict_penalty: 1,
        };
        // Clamped to 1 bank / 1-byte words: defined, not a panic.
        let d = shm_conflict_degree(&cfg, (0..4u64).map(|i| (i, 1)));
        assert_eq!(d, 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memsys() -> (MemorySystem, SimStats) {
        (MemorySystem::new(&GpuConfig::fermi()), SimStats::default())
    }

    #[test]
    fn coalescing_merges_a_warp_row() {
        let (m, _) = memsys();
        // 32 consecutive 4-byte words: one 128-byte line.
        let lines = m.coalesce((0..32u64).map(|i| 0x1000 + i * 4));
        assert_eq!(lines, vec![0x1000]);
        // Stride-128: 32 distinct lines.
        let lines = m.coalesce((0..32u64).map(|i| 0x1000 + i * 128));
        assert_eq!(lines.len(), 32);
    }

    #[test]
    fn load_miss_then_hit() {
        let (mut m, mut s) = memsys();
        let t1 = m.load_warp(&[0x1000], 0, &mut s).unwrap();
        assert!(t1 > 100, "cold miss goes to DRAM: {t1}");
        assert_eq!(s.dram_transactions, 1);
        // After the fill, the same line hits.
        let t2 = m.load_warp(&[0x1000], t1, &mut s).unwrap();
        assert_eq!(t2, t1 + GpuConfig::fermi().lat.l1_hit as u64);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l1_accesses, 2);
    }

    #[test]
    fn mshr_saturation_fails_reservation() {
        let (mut m, mut s) = memsys();
        // 32 MSHRs: the 33rd distinct line cannot be accepted.
        for i in 0..32u64 {
            assert!(m.load_warp(&[i * 128], 0, &mut s).is_some());
        }
        assert!(m.load_warp(&[33 * 128], 0, &mut s).is_none());
        assert_eq!(s.l1_reservation_fails, 1);
        // After fills complete, capacity returns.
        assert!(m.load_warp(&[33 * 128], 1_000_000, &mut s).is_some());
    }

    #[test]
    fn atomic_issue_leaves_no_partial_mshrs() {
        let (mut m, mut s) = memsys();
        for i in 0..30u64 {
            assert!(m.load_warp(&[i * 128], 0, &mut s).is_some());
        }
        // A 4-line warp load needs 4 MSHRs but only 2 remain.
        let addrs: Vec<u64> = (100..104u64).map(|i| i * 128).collect();
        assert!(m.load_warp(&addrs, 0, &mut s).is_none());
        // The two free MSHRs must still be usable.
        assert!(m.load_warp(&[200 * 128], 0, &mut s).is_some());
        assert!(m.load_warp(&[201 * 128], 0, &mut s).is_some());
    }

    #[test]
    fn dram_bandwidth_serializes_misses() {
        let (mut m, mut s) = memsys();
        let a = m.load_warp(&[0x0000], 0, &mut s).unwrap();
        let b = m.load_warp(&[0x8000], 0, &mut s).unwrap();
        assert!(b > a, "second DRAM transaction queues behind the first");
    }

    #[test]
    fn store_hit_updates_line_store_miss_streams() {
        let (mut m, mut s) = memsys();
        m.store_warp(&[0x1000], 0, &mut s);
        assert_eq!(s.dram_transactions, 1, "store miss streams to DRAM");
        let fill = m.load_warp(&[0x1000], 10, &mut s).unwrap();
        m.store_warp(&[0x1000], fill, &mut s);
        assert_eq!(s.l1_hits, 1, "store after load-allocate hits");
    }

    #[test]
    fn l2_absorbs_l1_capacity_misses() {
        let (mut m, mut s) = memsys();
        // Touch 512 lines (64 KB) — fits in the 51 KB L2 slice only
        // partially, but re-touching the first lines after L1 eviction
        // should find some in L2.
        let mut t = 0;
        for i in 0..512u64 {
            if let Some(r) = m.load_warp(&[i * 128], t, &mut s) {
                t = t.max(r);
            }
        }
        let dram_before = s.dram_transactions;
        for i in 0..64u64 {
            if let Some(r) = m.load_warp(&[i * 128], t, &mut s) {
                t = t.max(r);
            }
        }
        let serviced_by_l2 = s.l2_hits > 0;
        let dram_delta = s.dram_transactions - dram_before;
        assert!(
            serviced_by_l2 || dram_delta == 64,
            "L2 should catch re-references"
        );
    }
}
