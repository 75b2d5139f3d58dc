//! Property tests for the cache model against a reference
//! implementation, and for occupancy arithmetic.

use std::collections::HashMap;

use proptest::prelude::*;

use crat_sim::{occupancy, Cache, CacheConfig, CacheDecision, GpuConfig};

/// A trivially correct reference: fully explicit set-associative LRU
/// with instant fills (no MSHR modeling).
#[derive(Default)]
struct RefCache {
    sets: HashMap<u64, Vec<(u64, u64)>>, // set -> [(line, last_used)]
    ways: usize,
    num_sets: u64,
    time: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            sets: HashMap::new(),
            ways: cfg.ways as usize,
            num_sets: cfg.sets() as u64,
            ..Default::default()
        }
    }

    /// Returns whether `line` hit; installs it either way.
    fn access(&mut self, line: u64) -> bool {
        self.time += 1;
        let set = self.sets.entry(line % self.num_sets).or_default();
        if let Some(e) = set.iter_mut().find(|(l, _)| *l == line) {
            e.1 = self.time;
            return true;
        }
        if set.len() == self.ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("set non-empty");
            set.remove(lru);
        }
        set.push((line, self.time));
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// With instant fills, our cache's hit/miss decisions must agree
    /// with the reference LRU on any access trace.
    #[test]
    fn cache_matches_reference_lru(lines in prop::collection::vec(0u64..64, 1..300)) {
        let cfg = CacheConfig { bytes: 2048, ways: 4, line_bytes: 64, mshrs: 64 };
        let mut ours = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        let mut now = 0u64;
        for line in lines {
            let addr = line * 64;
            now += 1;
            let expect_hit = reference.access(line);
            match ours.access(addr, now) {
                CacheDecision::Hit => prop_assert!(expect_hit, "false hit on line {line}"),
                CacheDecision::MissNew => {
                    prop_assert!(!expect_hit, "false miss on line {line}");
                    // Instant fill.
                    ours.complete_miss(addr, now);
                    ours.drain_completed(now);
                }
                other => prop_assert!(false, "unexpected decision {other:?}"),
            }
        }
    }

    /// Occupancy is monotone: more registers, more shared memory, or
    /// bigger blocks never increase the resident-block count.
    #[test]
    fn occupancy_is_monotone(
        regs in 1u32..64,
        shmem in 0u32..48*1024,
        warps in 1u32..16,
    ) {
        let cfg = GpuConfig::fermi();
        let block = warps * 32;
        let base = occupancy(&cfg, regs, shmem, block).blocks;
        prop_assert!(occupancy(&cfg, regs + 1, shmem, block).blocks <= base);
        prop_assert!(occupancy(&cfg, regs, shmem + 256, block).blocks <= base);
        if block + 32 <= cfg.max_threads_per_sm {
            prop_assert!(occupancy(&cfg, regs, shmem, block + 32).blocks <= base + base);
        }
    }

    /// The occupancy result never violates any hardware limit.
    #[test]
    fn occupancy_respects_all_limits(
        regs in 1u32..64,
        shmem in 0u32..48*1024,
        warps in 1u32..16,
    ) {
        let cfg = GpuConfig::fermi();
        let block = warps * 32;
        let blocks = occupancy(&cfg, regs, shmem, block).blocks;
        prop_assert!(blocks <= cfg.max_blocks_per_sm);
        prop_assert!(blocks * block <= cfg.max_threads_per_sm);
        prop_assert!(blocks * regs * block <= cfg.registers_per_sm);
        if shmem > 0 {
            prop_assert!(blocks * (shmem.div_ceil(128) * 128) <= cfg.shmem_per_sm);
        }
    }
}

/// A model of the cache with timed fills, written as the plainest
/// statement of its semantics: MSHRs in a hash map, a drain that
/// installs every due line in ascending line order at its fill time,
/// LRU victims chosen first-invalid-then-oldest in way order, and a
/// count of dirty evictions.
struct TimedRefCache {
    cfg: CacheConfig,
    /// set -> ways of (line, last_used, dirty); `None` is an invalid way.
    sets: Vec<Vec<Option<(u64, u64, bool)>>>,
    mshrs: HashMap<u64, u64>,
    writebacks: u64,
}

impl TimedRefCache {
    fn new(cfg: CacheConfig) -> TimedRefCache {
        TimedRefCache {
            cfg,
            sets: vec![vec![None; cfg.ways as usize]; cfg.sets().max(1) as usize],
            mshrs: HashMap::new(),
            writebacks: 0,
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / u64::from(self.cfg.line_bytes)
    }

    fn ways(&mut self, line: u64) -> &mut Vec<Option<(u64, u64, bool)>> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn drain(&mut self, now: u64) {
        let mut due: Vec<(u64, u64)> = self
            .mshrs
            .iter()
            .filter(|&(_, &fill)| fill <= now)
            .map(|(&l, &f)| (l, f))
            .collect();
        due.sort();
        for (line, fill) in due {
            self.mshrs.remove(&line);
            let ways = self.ways(line);
            if let Some((_, used, _)) = ways.iter_mut().flatten().find(|(l, _, _)| *l == line) {
                *used = fill;
                continue;
            }
            let victim = match ways.iter().position(Option::is_none) {
                Some(k) => k,
                None => {
                    let oldest = ways
                        .iter()
                        .flatten()
                        .map(|&(_, used, _)| used)
                        .min()
                        .expect("a way");
                    ways.iter()
                        .position(|w| matches!(w, Some((_, used, _)) if *used == oldest))
                        .expect("oldest way")
                }
            };
            let evicted_dirty = matches!(ways[victim], Some((_, _, true)));
            ways[victim] = Some((line, fill, false));
            self.writebacks += u64::from(evicted_dirty);
        }
    }

    fn access(&mut self, addr: u64, now: u64) -> CacheDecision {
        self.drain(now);
        let line = self.line_of(addr);
        if let Some((_, used, _)) = self
            .ways(line)
            .iter_mut()
            .flatten()
            .find(|(l, _, _)| *l == line)
        {
            *used = now;
            return CacheDecision::Hit;
        }
        if let Some(&ready_at) = self.mshrs.get(&line) {
            return CacheDecision::MissPending { ready_at };
        }
        if self.mshrs.len() >= self.cfg.mshrs as usize {
            return CacheDecision::ReservationFail;
        }
        CacheDecision::MissNew
    }

    fn complete_miss(&mut self, addr: u64, ready_at: u64) {
        let line = self.line_of(addr);
        self.mshrs.insert(line, ready_at);
    }

    fn write_hit(&mut self, addr: u64, now: u64) -> bool {
        self.drain(now);
        let line = self.line_of(addr);
        match self
            .ways(line)
            .iter_mut()
            .flatten()
            .find(|(l, _, _)| *l == line)
        {
            Some((_, used, dirty)) => {
                *used = now;
                *dirty = true;
                true
            }
            None => false,
        }
    }
}

/// Geometries for the timed-fill differential: power-of-two and
/// non-power-of-two set counts and line sizes (the `/` and `%` path),
/// including 50 sets of 96-byte lines and a one-line cache.
const TIMED_GEOMETRIES: [(u32, u32, u32); 5] = [
    // (sets, ways, line_bytes)
    (50, 2, 96),
    (50, 4, 128),
    (4, 4, 64),
    (51, 8, 128),
    (1, 1, 32),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With timed fills, finite MSHRs and write hits, the cache makes
    /// every decision the model makes, holds as many MSHRs, and
    /// evicts as many dirty lines, on any trace with non-decreasing
    /// time. MSHR tables range from 1 to 64 entries and past 128.
    #[test]
    fn cache_matches_timed_fill_model(
        geometry in 0usize..TIMED_GEOMETRIES.len(),
        mshrs in prop_oneof![1u32..65, 129u32..161],
        max_latency in prop_oneof![1u64..16, 1u64..2000],
        trace in prop::collection::vec((0u8..8, 0u64..1024, 0u64..4, 0u64..u64::MAX), 1..600),
    ) {
        let (sets, ways, line_bytes) = TIMED_GEOMETRIES[geometry];
        let cfg = CacheConfig { bytes: sets * ways * line_bytes, ways, line_bytes, mshrs };
        prop_assert_eq!(cfg.sets(), sets);
        let mut ours = Cache::new(cfg);
        let mut model = TimedRefCache::new(cfg);
        let mut now = 0u64;
        for (step, &(kind, pick, dt, noise)) in trace.iter().enumerate() {
            now += dt;
            // Half the accesses go to a hot set of 8 lines, so hits,
            // pending misses and evictions all occur.
            let line = if kind % 2 == 0 { pick % 8 } else { pick };
            let addr = line * u64::from(line_bytes) + noise % u64::from(line_bytes);
            match kind {
                0..=5 => {
                    let got = ours.access(addr, now);
                    let want = model.access(addr, now);
                    prop_assert_eq!(got, want, "step {}: access {:#x} at {}", step, addr, now);
                    if got == CacheDecision::MissNew {
                        let fill = now + 1 + (noise >> 32) % max_latency;
                        ours.complete_miss(addr, fill);
                        model.complete_miss(addr, fill);
                    }
                }
                6 => {
                    let got = ours.write_hit(addr, now);
                    prop_assert_eq!(got, model.write_hit(addr, now), "step {}: write {:#x}", step, addr);
                }
                _ => {
                    ours.drain_completed(now);
                    model.drain(now);
                }
            }
            prop_assert_eq!(ours.mshrs_in_flight(), model.mshrs.len(), "step {}", step);
            prop_assert_eq!(ours.take_writebacks(), std::mem::take(&mut model.writebacks), "step {}", step);
        }
    }
}
