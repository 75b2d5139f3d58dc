//! A set-associative, LRU, write-back cache with a finite MSHR table.
//!
//! The cache tracks tags and timing only — data values live in the
//! functional memory. Misses allocate an MSHR entry until their fill
//! time; when the table is full the access suffers a *reservation
//! failure*, which the SM reports as a pipeline stall (the congestion
//! the paper measures in Figure 5b and that thread throttling
//! relieves).
//!
//! Every access first retires the fills that are due, so the MSHR
//! table is on the path of every memory transaction. It is a short
//! vector (at most `mshrs` entries: 32 for the stock L1, 64 for the
//! L2) behind a watermark, the earliest pending fill: an access before
//! the watermark retires nothing and costs one compare.

use crate::config::CacheConfig;

/// A cache line.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    last_used: u64,
    dirty: bool,
    valid: bool,
}

/// Division by a fixed divisor: a shift and a mask when it is a power
/// of two (every stock line size and L1 set count), `/` and `%`
/// otherwise (the Fermi L2 slice has 51 sets).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    pub(crate) fn new(d: u64) -> Divisor {
        Divisor {
            d,
            shift: d.is_power_of_two().then(|| d.trailing_zeros()),
        }
    }

    #[inline]
    pub(crate) fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.d,
        }
    }

    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.d - 1),
            None => x % self.d,
        }
    }

    /// `x` rounded down to a multiple of the divisor.
    #[inline]
    pub(crate) fn round_down(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & !(self.d - 1),
            None => x / self.d * self.d,
        }
    }
}

/// The outcome of probing the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// Present in the cache.
    Hit,
    /// Outstanding miss to the same line; data arrives at `ready_at`.
    MissPending {
        /// Cycle at which the in-flight fill completes.
        ready_at: u64,
    },
    /// A new miss: the caller must fetch from the next level and call
    /// [`Cache::complete_miss`] with the fill time.
    MissNew,
    /// No MSHR available: the access cannot even be accepted.
    ReservationFail,
}

/// Set-associative cache state.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    line: Divisor,
    set: Divisor,
    /// Outstanding misses as (line address, fill cycle), one entry per
    /// line, in no particular order.
    mshrs: Vec<(u64, u64)>,
    /// The earliest fill cycle in `mshrs`; `u64::MAX` when it is empty.
    next_fill: u64,
    /// Dirty lines evicted since the last [`Cache::take_writebacks`].
    writebacks: u64,
}

impl Cache {
    /// An empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets().max(1) as usize;
        Cache {
            cfg,
            sets: vec![
                vec![
                    Line {
                        tag: 0,
                        last_used: 0,
                        dirty: false,
                        valid: false
                    };
                    cfg.ways as usize
                ];
                sets
            ],
            line: Divisor::new(cfg.line_bytes as u64),
            set: Divisor::new(sets as u64),
            mshrs: Vec::new(),
            next_fill: u64::MAX,
            writebacks: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn line_addr(&self, addr: u64) -> u64 {
        self.line.div(addr)
    }

    fn set_of(&self, line: u64) -> usize {
        self.set.rem(line) as usize
    }

    /// Retire MSHR entries whose fills completed by `now`, installing
    /// their lines in ascending line order (the order fixes LRU
    /// victims and so which dirty lines are evicted).
    pub fn drain_completed(&mut self, now: u64) {
        if now < self.next_fill {
            return;
        }
        // Move the due entries behind the pending ones, sort that tail
        // by line, install it, and cut it off: no allocation per call.
        let mut pending = 0;
        for k in 0..self.mshrs.len() {
            if self.mshrs[k].1 > now {
                self.mshrs.swap(pending, k);
                pending += 1;
            }
        }
        self.mshrs[pending..].sort_unstable_by_key(|&(line, _)| line);
        for k in pending..self.mshrs.len() {
            let (line, ready) = self.mshrs[k];
            self.install(line, ready, false);
        }
        self.mshrs.truncate(pending);
        self.next_fill = self
            .mshrs
            .iter()
            .map(|&(_, ready)| ready)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Probe for a read (or write-allocate) access at cycle `now`.
    ///
    /// On [`CacheDecision::MissNew`] the caller is responsible for
    /// fetching the line and recording the fill via
    /// [`Cache::complete_miss`].
    pub fn access(&mut self, addr: u64, now: u64) -> CacheDecision {
        self.drain_completed(now);
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == line) {
            l.last_used = now;
            return CacheDecision::Hit;
        }
        if let Some(&(_, ready)) = self.mshrs.iter().find(|&&(l, _)| l == line) {
            return CacheDecision::MissPending { ready_at: ready };
        }
        if self.mshrs.len() >= self.cfg.mshrs as usize {
            return CacheDecision::ReservationFail;
        }
        CacheDecision::MissNew
    }

    /// Record that the miss on `addr` (returned as
    /// [`CacheDecision::MissNew`], so its line has no entry yet) fills
    /// at `ready_at`.
    pub fn complete_miss(&mut self, addr: u64, ready_at: u64) {
        let line = self.line_addr(addr);
        debug_assert!(
            self.mshrs.iter().all(|&(l, _)| l != line),
            "line {line:#x} already has an MSHR"
        );
        self.mshrs.push((line, ready_at));
        self.next_fill = self.next_fill.min(ready_at);
    }

    /// Write `addr` if present; returns `true` on hit (line marked
    /// dirty). A miss performs no allocation — callers choose between
    /// write-allocate (issue a read access) and write-through.
    pub fn write_hit(&mut self, addr: u64, now: u64) -> bool {
        self.drain_completed(now);
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == line) {
            l.last_used = now;
            l.dirty = true;
            return true;
        }
        false
    }

    /// Install a line, evicting LRU. Dirty victims are counted for
    /// write-back accounting.
    fn install(&mut self, line: u64, now: u64, dirty: bool) {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == line) {
            l.last_used = now;
            l.dirty |= dirty;
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_used + 1 } else { 0 })
            .expect("cache has at least one way");
        if victim.valid && victim.dirty {
            self.writebacks += 1;
        }
        *victim = Line {
            tag: line,
            last_used: now,
            dirty,
            valid: true,
        };
    }

    /// The number of dirty lines evicted since the last call (for
    /// bandwidth accounting).
    pub fn take_writebacks(&mut self) -> u64 {
        std::mem::take(&mut self.writebacks)
    }

    /// Number of MSHRs currently in flight.
    pub fn mshrs_in_flight(&self) -> usize {
        self.mshrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines, 2 MSHRs.
        Cache::new(CacheConfig {
            bytes: 256,
            ways: 2,
            line_bytes: 64,
            mshrs: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x100, 0), CacheDecision::MissNew);
        c.complete_miss(0x100, 10);
        // Before the fill: pending.
        assert_eq!(
            c.access(0x100, 5),
            CacheDecision::MissPending { ready_at: 10 }
        );
        // Same line, different word: still pending.
        assert_eq!(
            c.access(0x120, 5),
            CacheDecision::MissPending { ready_at: 10 }
        );
        // After the fill: hit.
        assert_eq!(c.access(0x100, 10), CacheDecision::Hit);
    }

    #[test]
    fn mshr_exhaustion_causes_reservation_fail() {
        let mut c = tiny();
        assert_eq!(c.access(0x000, 0), CacheDecision::MissNew);
        c.complete_miss(0x000, 100);
        assert_eq!(c.access(0x040, 0), CacheDecision::MissNew);
        c.complete_miss(0x040, 100);
        assert_eq!(c.access(0x080, 0), CacheDecision::ReservationFail);
        // Once fills retire, capacity returns.
        assert_eq!(c.access(0x080, 100), CacheDecision::MissNew);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with even line index (2 sets, 64B lines).
        for (t, addr) in [(0u64, 0x000u64), (1, 0x080)] {
            assert_eq!(c.access(addr, t), CacheDecision::MissNew);
            c.complete_miss(addr, t);
        }
        // Touch 0x000 so 0x080 becomes LRU.
        assert_eq!(c.access(0x000, 10), CacheDecision::Hit);
        // New line in the same set evicts 0x080.
        assert_eq!(c.access(0x100, 11), CacheDecision::MissNew);
        c.complete_miss(0x100, 12);
        assert_eq!(c.access(0x100, 20), CacheDecision::Hit);
        assert_eq!(c.access(0x000, 20), CacheDecision::Hit);
        assert_eq!(c.access(0x080, 20), CacheDecision::MissNew);
    }

    #[test]
    fn write_hit_marks_dirty_and_eviction_writes_back() {
        let mut c = tiny();
        assert_eq!(c.access(0x000, 0), CacheDecision::MissNew);
        c.complete_miss(0x000, 1);
        c.drain_completed(1);
        assert!(c.write_hit(0x000, 2));
        // Fill the set: 0x080 then 0x100 evicts LRU (0x000, dirty).
        assert_eq!(c.access(0x080, 3), CacheDecision::MissNew);
        c.complete_miss(0x080, 4);
        assert_eq!(c.access(0x100, 5), CacheDecision::MissNew);
        c.complete_miss(0x100, 6);
        c.drain_completed(10);
        assert_eq!(c.take_writebacks(), 1);
        assert_eq!(c.take_writebacks(), 0);
        // The dirty victim was 0x000; the two younger lines remain.
        assert_eq!(c.access(0x080, 11), CacheDecision::Hit);
        assert_eq!(c.access(0x100, 11), CacheDecision::Hit);
        assert_eq!(c.access(0x000, 11), CacheDecision::MissNew);
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.write_hit(0x200, 0));
        assert_eq!(c.access(0x200, 1), CacheDecision::MissNew);
    }

    #[test]
    fn thrashing_working_set_misses() {
        let mut c = tiny();
        let mut time = 0u64;
        // 8 distinct lines in a 4-line cache, streamed repeatedly.
        for round in 0..3 {
            for i in 0..8u64 {
                let addr = i * 64;
                match c.access(addr, time) {
                    CacheDecision::Hit => {
                        panic!("round {round}: unexpected hit on streaming pattern")
                    }
                    CacheDecision::MissNew => c.complete_miss(addr, time + 1),
                    CacheDecision::MissPending { .. } | CacheDecision::ReservationFail => {}
                }
                time += 10;
            }
        }
    }
}
