//! Simulation statistics and the scheduler-slot cycle attribution.

/// Exclusive cause of one scheduler-slot cycle: what each scheduler
/// did (or why it did nothing) in one cycle. Every `(scheduler, cycle)`
/// slot is attributed to exactly one cause, so for every scheduler the
/// cause counts sum exactly to [`SimStats::cycles`] — the invariant
/// [`CycleAttribution::check`] verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum StallCause {
    /// An instruction was issued.
    Issued = 0,
    /// Candidate warps existed but every one was blocked on the
    /// scoreboard — memory or ALU latency the scheduler could not hide.
    Scoreboard = 1,
    /// A candidate warp's load/store could not reserve L1/MSHR
    /// resources (the paper's Figure 5b reservation-failure stall),
    /// blocking the scheduler's load/store unit for the cycle.
    MemStall = 2,
    /// Live warps existed but all were waiting at a barrier.
    Barrier = 3,
    /// Every candidate was scoreboard-blocked while mid-divergence
    /// (SIMT stack deeper than the base frame): latency exposed while
    /// serializing divergent paths.
    Reconverge = 4,
    /// The scheduler had no live warps, with blocks still left to
    /// launch (slots temporarily empty during block turnover).
    Empty = 5,
    /// The scheduler had no live warps and no blocks remain to launch:
    /// the kernel tail, where this scheduler's work is exhausted.
    Drained = 6,
    /// The scheduler's shared-memory unit was serializing a
    /// bank-conflicted access: a prior shared-memory instruction hit N
    /// distinct words in one bank and replays for N-1 extra cycles,
    /// blocking the scheduler for each replay. Only produced when the
    /// bank model ([`crate::ShmBankConfig`]) is enabled.
    ShmBankConflict = 7,
}

/// Number of attribution causes.
pub const NUM_CAUSES: usize = 8;

impl StallCause {
    /// All causes, in counter order.
    pub const ALL: [StallCause; NUM_CAUSES] = [
        StallCause::Issued,
        StallCause::Scoreboard,
        StallCause::MemStall,
        StallCause::Barrier,
        StallCause::Reconverge,
        StallCause::Empty,
        StallCause::Drained,
        StallCause::ShmBankConflict,
    ];

    /// Stable snake_case name, used in CSV and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Issued => "issued",
            StallCause::Scoreboard => "scoreboard",
            StallCause::MemStall => "mem_stall",
            StallCause::Barrier => "barrier",
            StallCause::Reconverge => "reconverge",
            StallCause::Empty => "empty",
            StallCause::Drained => "drained",
            StallCause::ShmBankConflict => "shm_bank_conflict",
        }
    }

    /// The cause with counter index `i`, if in range.
    pub fn from_index(i: usize) -> Option<StallCause> {
        StallCause::ALL.get(i).copied()
    }
}

/// Scheduler-slot cycle attribution: for each scheduler, how many
/// cycles went to each [`StallCause`], plus per-warp-slot and
/// per-block-context issue/stall aggregation.
///
/// Cycles that the cycle loop fast-forwards over (whole-SM stall
/// windows, skipped to the next writeback event) are attributed to the
/// cause each scheduler exhibited when the window began — the machine
/// state cannot change until that event, so the cause holds for the
/// whole window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// `[scheduler][cause]` scheduler-slot cycle counts.
    pub per_scheduler: Vec<[u64; NUM_CAUSES]>,
    /// Warp instructions issued per warp slot (sums to
    /// [`SimStats::warp_insts`]).
    pub warp_issued: Vec<u64>,
    /// Scheduler-slot cycles each warp slot spent as the
    /// highest-priority candidate without issuing (who is starving).
    pub warp_head_stalls: Vec<u64>,
    /// Warp instructions issued per resident block context (block
    /// slot; successive blocks reusing a slot share its counter).
    pub block_issued: Vec<u64>,
}

impl CycleAttribution {
    /// Prepare per-scheduler counters (called once at machine setup).
    pub fn init_schedulers(&mut self, num_schedulers: u32) {
        self.per_scheduler = vec![[0; NUM_CAUSES]; num_schedulers as usize];
    }

    /// Fold `n` scheduler-slot cycles of `cause` (head warp slot
    /// `head`, `u32::MAX` for none) into scheduler `s` — the bulk
    /// commit behind both single cycles and idle fast-forward windows,
    /// so a skipped window costs O(1) bookkeeping per scheduler.
    #[inline]
    pub fn charge(&mut self, s: usize, cause: StallCause, head: u32, n: u64) {
        self.per_scheduler[s][cause as usize] += n;
        if head != u32::MAX && cause != StallCause::Issued {
            self.warp_head_stalls[head as usize] += n;
        }
    }

    /// Grow the per-warp and per-block aggregation to cover `nwarps`
    /// warp slots and `nblocks` block slots (called at block launch,
    /// never from the cycle loop).
    pub fn ensure_slots(&mut self, nwarps: usize, nblocks: usize) {
        if self.warp_issued.len() < nwarps {
            self.warp_issued.resize(nwarps, 0);
            self.warp_head_stalls.resize(nwarps, 0);
        }
        if self.block_issued.len() < nblocks {
            self.block_issued.resize(nblocks, 0);
        }
    }

    /// Total scheduler-slot cycles attributed to `cause`, summed over
    /// schedulers.
    pub fn cause(&self, cause: StallCause) -> u64 {
        self.per_scheduler
            .iter()
            .map(|row| row[cause as usize])
            .sum()
    }

    /// Total scheduler-slot cycles (= schedulers × cycles).
    pub fn total_slots(&self) -> u64 {
        self.per_scheduler.iter().flat_map(|row| row.iter()).sum()
    }

    /// Fraction of scheduler slots attributed to `cause`; 0 when
    /// nothing was simulated.
    pub fn fraction(&self, cause: StallCause) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            self.cause(cause) as f64 / total as f64
        }
    }

    /// Verify the attribution invariant: for every scheduler the cause
    /// counts are exclusive and sum exactly to `cycles`.
    ///
    /// # Errors
    ///
    /// A description of the first violated scheduler.
    pub fn check(&self, cycles: u64) -> Result<(), String> {
        for (s, row) in self.per_scheduler.iter().enumerate() {
            let sum: u64 = row.iter().sum();
            if sum != cycles {
                return Err(format!(
                    "scheduler {s}: cause counts sum to {sum}, expected cycles = {cycles} \
                     (row: {row:?})"
                ));
            }
        }
        Ok(())
    }
}

/// Counters collected over one simulated kernel launch (one SM's share
/// of the grid).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated cycles until the last block finished.
    pub cycles: u64,
    /// Warp instructions issued (terminator branches included).
    pub warp_insts: u64,
    /// Thread instructions (warp instructions × active lanes).
    pub thread_insts: u64,
    /// Thread blocks completed.
    pub blocks: u32,
    /// Resident blocks the SM actually ran with (the achieved TLP).
    pub resident_blocks: u32,

    /// L1 data-cache accesses (one per memory transaction).
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Issue attempts aborted because the L1's MSHRs or miss path were
    /// saturated — the paper's "pipeline stall caused by the congestion
    /// of cache requests" (Figure 5b).
    pub l1_reservation_fails: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// DRAM transactions.
    pub dram_transactions: u64,

    /// Warp-level global-memory instructions executed.
    pub global_insts: u64,
    /// Warp-level local-memory instructions executed (spill traffic).
    pub local_insts: u64,
    /// Warp-level shared-memory instructions executed.
    pub shared_insts: u64,
    /// Extra shared-memory passes forced by bank conflicts: the sum
    /// over conflicted accesses of `degree - 1` (0 when the bank model
    /// is disabled or every access was conflict-free).
    pub shm_bank_conflicts: u64,
    /// Bytes moved to/from local memory (thread granularity).
    pub local_bytes: u64,
    /// SFU instructions executed (warp level).
    pub sfu_insts: u64,
    /// Barrier instructions executed (warp level).
    pub barrier_insts: u64,
    /// Conditional branches that diverged (pushed SIMT frames).
    pub divergent_branches: u64,

    /// Where every scheduler-slot cycle went, by exclusive cause.
    pub attribution: CycleAttribution,
}

impl SimStats {
    /// Instructions per cycle (warp instructions).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_insts as f64 / self.cycles as f64
        }
    }

    /// L1 hit rate in `[0, 1]`; 0 when the cache was never accessed.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// L2 hit rate in `[0, 1]`.
    pub fn l2_hit_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.l2_accesses as f64
        }
    }

    /// Performance relative to a baseline run of the same work:
    /// `baseline.cycles / self.cycles`.
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Readable field-by-field differences against `other` (empty when
    /// equal). Each line is `field: self_value != other_value`; used by
    /// the golden-snapshot harness to explain drift.
    pub fn diff(&self, other: &SimStats) -> Vec<String> {
        let mut out = Vec::new();
        macro_rules! cmp {
            ($field:ident) => {
                if self.$field != other.$field {
                    out.push(format!(
                        "{}: {} != {}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        cmp!(cycles);
        cmp!(warp_insts);
        cmp!(thread_insts);
        cmp!(blocks);
        cmp!(resident_blocks);
        cmp!(l1_accesses);
        cmp!(l1_hits);
        cmp!(l1_reservation_fails);
        cmp!(l2_accesses);
        cmp!(l2_hits);
        cmp!(dram_transactions);
        cmp!(global_insts);
        cmp!(local_insts);
        cmp!(shared_insts);
        cmp!(shm_bank_conflicts);
        cmp!(local_bytes);
        cmp!(sfu_insts);
        cmp!(barrier_insts);
        cmp!(divergent_branches);

        let (a, b) = (&self.attribution, &other.attribution);
        if a.per_scheduler.len() != b.per_scheduler.len() {
            out.push(format!(
                "attribution.per_scheduler.len: {} != {}",
                a.per_scheduler.len(),
                b.per_scheduler.len()
            ));
        }
        for (s, (ra, rb)) in a.per_scheduler.iter().zip(&b.per_scheduler).enumerate() {
            for cause in StallCause::ALL {
                let (va, vb) = (ra[cause as usize], rb[cause as usize]);
                if va != vb {
                    out.push(format!(
                        "attribution.sched{s}.{}: {va} != {vb}",
                        cause.name()
                    ));
                }
            }
        }
        for (name, va, vb) in [
            ("warp_issued", &a.warp_issued, &b.warp_issued),
            ("warp_head_stalls", &a.warp_head_stalls, &b.warp_head_stalls),
            ("block_issued", &a.block_issued, &b.block_issued),
        ] {
            if va != vb {
                out.push(format!("attribution.{name}: {va:?} != {vb:?}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = SimStats {
            cycles: 100,
            warp_insts: 250,
            l1_accesses: 10,
            l1_hits: 7,
            l2_accesses: 4,
            l2_hits: 1,
            ..Default::default()
        };
        assert_eq!(s.ipc(), 2.5);
        assert_eq!(s.l1_hit_rate(), 0.7);
        assert_eq!(s.l2_hit_rate(), 0.25);
    }

    #[test]
    fn rates_are_zero_without_activity() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.l2_hit_rate(), 0.0);
    }

    #[test]
    fn speedup() {
        let fast = SimStats {
            cycles: 50,
            ..Default::default()
        };
        let slow = SimStats {
            cycles: 100,
            ..Default::default()
        };
        assert_eq!(fast.speedup_over(&slow), 2.0);
        assert_eq!(slow.speedup_over(&fast), 0.5);
    }

    #[test]
    fn cause_names_and_indices_round_trip() {
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            assert_eq!(*cause as usize, i);
            assert_eq!(StallCause::from_index(i), Some(*cause));
        }
        assert_eq!(StallCause::from_index(NUM_CAUSES), None);
        // Names are distinct (they key JSON/CSV columns).
        let names: std::collections::HashSet<_> =
            StallCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), NUM_CAUSES);
    }

    #[test]
    fn attribution_totals_and_invariant() {
        let mut a = CycleAttribution::default();
        a.init_schedulers(2);
        a.per_scheduler[0][StallCause::Issued as usize] = 6;
        a.per_scheduler[0][StallCause::Scoreboard as usize] = 4;
        a.per_scheduler[1][StallCause::Empty as usize] = 10;
        assert_eq!(a.cause(StallCause::Issued), 6);
        assert_eq!(a.total_slots(), 20);
        assert_eq!(a.fraction(StallCause::Issued), 0.3);
        assert!(a.check(10).is_ok());
        let err = a.check(11).unwrap_err();
        assert!(err.contains("scheduler 0"), "{err}");
    }

    #[test]
    fn ensure_slots_grows_monotonically() {
        let mut a = CycleAttribution::default();
        a.ensure_slots(4, 2);
        a.warp_issued[3] = 7;
        a.ensure_slots(2, 1); // shrinking requests are ignored
        assert_eq!(a.warp_issued.len(), 4);
        assert_eq!(a.warp_issued[3], 7);
        a.ensure_slots(6, 3);
        assert_eq!(a.warp_issued.len(), 6);
        assert_eq!(a.warp_head_stalls.len(), 6);
        assert_eq!(a.block_issued.len(), 3);
    }

    #[test]
    fn diff_reports_each_divergent_field() {
        let mut a = SimStats {
            cycles: 10,
            warp_insts: 5,
            ..Default::default()
        };
        a.attribution.init_schedulers(1);
        a.attribution.per_scheduler[0][StallCause::Issued as usize] = 10;
        let mut b = a.clone();
        assert!(a.diff(&b).is_empty());
        b.cycles = 11;
        b.attribution.per_scheduler[0][StallCause::Issued as usize] = 9;
        b.attribution.per_scheduler[0][StallCause::Drained as usize] = 2;
        let d = a.diff(&b);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d[0].contains("cycles: 10 != 11"), "{d:?}");
        assert!(
            d.iter().any(|l| l.contains("sched0.issued: 10 != 9")),
            "{d:?}"
        );
        assert!(
            d.iter().any(|l| l.contains("sched0.drained: 0 != 2")),
            "{d:?}"
        );
    }

    #[test]
    fn diff_reports_aggregation_vectors() {
        let a = SimStats::default();
        let mut b = SimStats::default();
        b.attribution.ensure_slots(2, 1);
        b.attribution.warp_issued[1] = 3;
        let d = a.diff(&b);
        assert!(
            d.iter().any(|l| l.starts_with("attribution.warp_issued")),
            "{d:?}"
        );
    }
}
