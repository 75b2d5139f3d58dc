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
}

/// Scheduler-slot cycle attribution: for each scheduler, how many
/// cycles went to each [`StallCause`].
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
}

impl CycleAttribution {
    /// Prepare per-scheduler counters (called once at machine setup).
    pub fn init_schedulers(&mut self, num_schedulers: u32) {
        self.per_scheduler = vec![[0; NUM_CAUSES]; num_schedulers as usize];
    }

    /// Fold `n` scheduler-slot cycles of `cause` into scheduler `s` —
    /// the bulk commit behind both single cycles and idle fast-forward
    /// windows, so a skipped window costs O(1) bookkeeping per
    /// scheduler.
    #[inline]
    pub fn charge(&mut self, s: usize, cause: StallCause, n: u64) {
        self.per_scheduler[s][cause as usize] += n;
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

/// Declare a counter struct from one table. Each row, a doc comment
/// and a name, becomes a pub `u64` field and an entry of `counters()`
/// and `counters_mut()`, in table order. Exporters, decoders and diffs
/// iterate those lists, so a new counter is one row here plus the site
/// that bumps it. Typed fields after the braces stay out of the lists.
/// The call site writes the struct's attributes, derives included.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* $field:ident,)*
        }
        $($(#[$xdoc:meta])* $xfield:ident: $xty:ty,)*
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
            $($(#[$xdoc])* pub $xfield: $xty,)*
        }

        impl $name {
            /// Every counter as `(name, value)`, in declaration order.
            pub fn counters(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$((stringify!($field), self.$field)),*]
            }

            /// Every counter as `(name, &mut value)`, in declaration
            /// order.
            pub fn counters_mut(
                &mut self,
            ) -> [(&'static str, &mut u64); [$(stringify!($field)),*].len()] {
                [$((stringify!($field), &mut self.$field)),*]
            }
        }
    };
}

counters! {
    /// Counters collected over one simulated kernel launch (one SM's
    /// share of the grid).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SimStats {
        /// Total simulated cycles until the last block finished.
        cycles,
        /// Warp instructions issued (terminator branches included).
        warp_insts,
        /// Thread instructions (warp instructions × active lanes).
        thread_insts,
        /// Thread blocks completed.
        blocks,
        /// Resident blocks the SM actually ran with (the achieved TLP).
        resident_blocks,

        /// L1 data-cache accesses (one per memory transaction).
        l1_accesses,
        /// L1 hits.
        l1_hits,
        /// Issue attempts aborted because the L1's MSHRs or miss path
        /// were saturated — the paper's "pipeline stall caused by the
        /// congestion of cache requests" (Figure 5b).
        l1_reservation_fails,
        /// L2 accesses.
        l2_accesses,
        /// L2 hits.
        l2_hits,
        /// DRAM transactions.
        dram_transactions,

        /// Warp-level global-memory instructions executed.
        global_insts,
        /// Warp-level local-memory instructions executed (spill traffic).
        local_insts,
        /// Warp-level shared-memory instructions executed.
        shared_insts,
        /// Extra shared-memory passes forced by bank conflicts: the sum
        /// over conflicted accesses of `degree - 1` (0 when the bank
        /// model is disabled or every access was conflict-free).
        shm_bank_conflicts,
        /// Bytes moved to/from local memory (thread granularity).
        local_bytes,
        /// SFU instructions executed (warp level).
        sfu_insts,
        /// Barrier instructions executed (warp level).
        barrier_insts,
        /// Conditional branches that diverged (pushed SIMT frames).
        divergent_branches,
    }
    /// Where every scheduler-slot cycle went, by exclusive cause.
    attribution: CycleAttribution,
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
        let mut out: Vec<String> = self
            .counters()
            .into_iter()
            .zip(other.counters())
            .filter(|((_, va), (_, vb))| va != vb)
            .map(|((name, va), (_, vb))| format!("{name}: {va} != {vb}"))
            .collect();
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
    fn causes_are_in_counter_order_with_distinct_names() {
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            assert_eq!(*cause as usize, i);
        }
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

        // Every counter of the table is compared, under its own name.
        let mut c = SimStats::default();
        for (_, v) in c.counters_mut() {
            *v = 1;
        }
        let d = SimStats::default().diff(&c);
        let names = c.counters().map(|(name, _)| format!("{name}: 0 != 1"));
        assert_eq!(d, names, "{d:?}");
    }
}
