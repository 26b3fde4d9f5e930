//! Execution instrumentation.
//!
//! Every quantity in the paper's Tables 2 and 5 appears here: core and
//! halo iteration counts (`ΣS^c`, `ΣS^1`, `ΣS^h`), message counts and
//! sizes (the `2dpm^1` vs `pm^r` comparison), neighbour counts, and the
//! packed-element counts behind the packing cost `c` of Eq 3.

/// Communication performed for one loop or one chain on one rank.
///
/// Equality ignores the wall-clock fields (`pack_ns`, `unpack_ns`,
/// `wait_ns` — they vary run to run) so whole-trace comparisons in the
/// replay-determinism tests stay meaningful; [`ExchangeRec::add`] still
/// accumulates them for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeRec {
    /// Messages sent by this rank.
    pub n_msgs: usize,
    /// Total payload bytes sent.
    pub bytes: usize,
    /// Largest single message sent (the model's `m`).
    pub max_msg_bytes: usize,
    /// Neighbours communicated with.
    pub n_neighbors: usize,
    /// Elements packed (sender side) — proxy for packing cost `c`.
    pub packed_elems: usize,
    /// Bitmask of neighbour ranks actually sent to, indexed by
    /// `min(rank, 127)`. Lets [`ExchangeRec::add`] count *distinct*
    /// messaged neighbours across loops with alternating stencils
    /// instead of taking a lossy max. Beyond 128 ranks the top bit
    /// saturates and the count degrades to the documented
    /// max-approximation (exact for every configuration this repo
    /// reproduces — the paper's Tables 2/5 use ≤ 128 ranks per trace).
    pub nbr_bits: u128,
    /// Wall time spent packing send payloads, nanoseconds (the measured
    /// side of Eq 3's per-byte pack cost `c`). Not compared by `==`.
    pub pack_ns: u64,
    /// Wall time spent unpacking received payloads, nanoseconds. Not
    /// compared by `==`.
    pub unpack_ns: u64,
    /// Wall time blocked waiting for neighbour messages (excluding
    /// unpack), nanoseconds. Not compared by `==`.
    pub wait_ns: u64,
}

impl PartialEq for ExchangeRec {
    fn eq(&self, other: &Self) -> bool {
        self.n_msgs == other.n_msgs
            && self.bytes == other.bytes
            && self.max_msg_bytes == other.max_msg_bytes
            && self.n_neighbors == other.n_neighbors
            && self.packed_elems == other.packed_elems
            && self.nbr_bits == other.nbr_bits
    }
}

impl Eq for ExchangeRec {}

impl ExchangeRec {
    /// Distinct neighbour ranks this record actually messaged.
    pub fn distinct_neighbors(&self) -> usize {
        self.nbr_bits.count_ones() as usize
    }

    /// Accumulate another record. `n_neighbors` becomes the larger of
    /// the per-record maxima and the union's distinct messaged-peer
    /// count — chains alternating between stencils with disjoint
    /// neighbour sets are no longer under-reported.
    pub fn add(&mut self, other: &ExchangeRec) {
        self.n_msgs += other.n_msgs;
        self.bytes += other.bytes;
        self.max_msg_bytes = self.max_msg_bytes.max(other.max_msg_bytes);
        self.nbr_bits |= other.nbr_bits;
        self.n_neighbors = self
            .n_neighbors
            .max(other.n_neighbors)
            .max(self.distinct_neighbors());
        self.packed_elems += other.packed_elems;
        self.pack_ns += other.pack_ns;
        self.unpack_ns += other.unpack_ns;
        self.wait_ns += other.wait_ns;
    }
}

/// One standard (Alg 1) loop execution.
///
/// Equality ignores `wall_ns` (wall clock varies run to run), matching
/// the [`ExchangeRec`] convention, so whole-trace comparisons in the
/// replay-determinism tests stay meaningful.
#[derive(Debug, Clone, Default)]
pub struct LoopRec {
    /// Loop name.
    pub name: String,
    /// Iterations overlapped with communication (`S^c`).
    pub core_iters: usize,
    /// Iterations after the exchange completed (`S^1` for Alg 1).
    pub halo_iters: usize,
    /// Number of dats whose halos were exchanged (`d` in Eq 1).
    pub d_exchanged: usize,
    /// Communication record.
    pub exch: ExchangeRec,
    /// Wall time of the whole loop execution (exchange + compute),
    /// nanoseconds — the per-loop, per-rank load measurement the
    /// rebalance detector aggregates. Not compared by `==`.
    pub wall_ns: u64,
}

impl PartialEq for LoopRec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.core_iters == other.core_iters
            && self.halo_iters == other.halo_iters
            && self.d_exchanged == other.d_exchanged
            && self.exch == other.exch
    }
}

impl Eq for LoopRec {}

/// One CA (Alg 2) chain execution.
///
/// Equality ignores `wall_ns` (wall clock varies run to run), matching
/// the [`ExchangeRec`] convention.
#[derive(Debug, Clone, Default)]
pub struct ChainRec {
    /// Chain name.
    pub name: String,
    /// Per constituent loop: (core iterations, halo iterations).
    pub per_loop: Vec<(usize, usize)>,
    /// Number of dats in the grouped exchange.
    pub d_exchanged: usize,
    /// Maximum halo depth imported (`r` of Eq 3/4).
    pub depth: usize,
    /// Communication record (the single grouped exchange).
    pub exch: ExchangeRec,
    /// Relaxed-mode only: reads whose validity requirement was met by
    /// pre-chain (potentially stale) imported values rather than
    /// in-chain computation. Always 0 in strict mode.
    pub stale_reads: usize,
    /// Wall time of the whole chain execution, nanoseconds — the
    /// per-chain, per-rank load measurement the rebalance detector
    /// aggregates. Not compared by `==`.
    pub wall_ns: u64,
}

impl PartialEq for ChainRec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.per_loop == other.per_loop
            && self.d_exchanged == other.d_exchanged
            && self.depth == other.depth
            && self.exch == other.exch
            && self.stale_reads == other.stale_reads
    }
}

impl Eq for ChainRec {}

impl ChainRec {
    /// Total core iterations (`Σ g_l S_l^c` numerator side).
    pub fn core_iters(&self) -> usize {
        self.per_loop.iter().map(|&(c, _)| c).sum()
    }

    /// Total halo iterations (`Σ S_l^h`).
    pub fn halo_iters(&self) -> usize {
        self.per_loop.iter().map(|&(_, h)| h).sum()
    }
}

/// One adaptive-dispatch decision made by [`crate::tuner::Tuner`].
///
/// The decision inputs are rank-agreed (allreduce-max) and the
/// predictions come from §3.2's closed-form equations, so `backend`,
/// `class` and the predicted times are identical on every rank.
/// `t_measured_ns` is this rank's wall clock for the calibration run —
/// the predicted-vs-measured comparison — and, with `sync_ns` (the
/// agreed measured pool-barrier cost), the only wall-clock-derived
/// fields; both may vary between runs, but `sync_ns` is allreduced so
/// it never varies between ranks. Loop/chain trace records never carry
/// wall-clock values, keeping the replay-determinism tests meaningful.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TunerRec {
    /// Service job this decision was made for (0 outside the resident
    /// service) — per-job trace isolation when many jobs share a world.
    pub job: u64,
    /// Chain name.
    pub chain: String,
    /// Backend the tuner dispatched to.
    pub backend: crate::tuner::Backend,
    /// Model classification (Table 2's Reducing/GroupingOnly/Increasing).
    pub class: ClassRec,
    /// Predicted standard (Alg 1) chain time, nanoseconds.
    pub t_op2_pred_ns: u64,
    /// Predicted CA (Alg 2) chain time, nanoseconds.
    pub t_ca_pred_ns: u64,
    /// Measured wall clock of the flattened calibration run, nanoseconds.
    pub t_measured_ns: u64,
    /// Threads the decision was made for (1 = sequential model). The
    /// calibration itself always measures sequentially — the tuner
    /// derives the threaded `g` via [`op2_model::threaded_g`].
    pub n_threads: usize,
    /// Agreed (allreduce-max) per-barrier synchronisation cost the
    /// threaded model priced pool rounds with, nanoseconds — measured on
    /// each rank's own pool, replacing [`op2_model::COLOR_SYNC_S`]. Zero
    /// for sequential decisions.
    pub sync_ns: u64,
    /// Predicted gain `(t_op2 - t_ca)/t_op2`, in thousandths of a percent
    /// (milli-percent) so the record stays integer and `Eq`.
    pub gain_milli_pct: i64,
}

/// Which lowering produced a pooled [`op2_core::Schedule`] execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedKind {
    /// A single loop range lowered through the levelized block coloring.
    #[default]
    Colored,
    /// A whole chain lowered through the leveled tile plan.
    Tiled,
    /// A single increment-loop range lowered by the owner-compute
    /// inspector ([`op2_core::owner`]): one level, one chunk per thread.
    Owner,
}

/// One pooled [`op2_core::Schedule`] execution — a colored or
/// owner-compute loop range, or a tiled chain (see [`crate::threads`]):
/// the schedule shape plus per-level wall time.
///
/// Equality ignores the *values* in `level_ns` (wall clock varies run to
/// run) but keeps its *length* — two equal records executed the same
/// schedule. This keeps whole-[`RankTrace`] comparisons in the replay
/// determinism tests meaningful with threading on.
#[derive(Debug, Clone, Default)]
pub struct ThreadRec {
    /// Loop or chain name.
    pub name: String,
    /// Total iterations executed (summed over the chain's loops for
    /// tiled schedules; seam iterations count once per executing
    /// thread).
    pub iters: usize,
    /// Executions beyond one per iteration: the owner-compute seam
    /// iterations threads run redundantly (0 for colored and tiled
    /// schedules) — the in-rank counterpart of CA's redundant halo
    /// iterations.
    pub redundant_iters: usize,
    /// Threads that executed it.
    pub n_threads: usize,
    /// Iterations per coloring block (0 for tiled schedules, which
    /// chunk by tile, not by block).
    pub block_size: usize,
    /// Conflict-free chunks across all levels (blocks or tiles).
    pub n_chunks: usize,
    /// Levels in the schedule (inter-thread synchronisation points).
    pub n_levels: usize,
    /// Which lowering produced the schedule.
    pub kind: SchedKind,
    /// Wall time per level, nanoseconds (not compared by `==`). Under
    /// the dataflow drain there are no level barriers, so this is a
    /// single entry holding the whole drain's wall time.
    pub level_ns: Vec<u64>,
    /// Critical-path depth of the drain: the longest chunk dependency
    /// chain under dataflow, the level count under level-synchronous
    /// draining. The lower bound on parallel drain time.
    pub crit_path: usize,
    /// True when the dataflow executor drained this schedule (chunks
    /// fired on dependency counters instead of level barriers).
    pub dataflow: bool,
    /// Per-worker idle time, nanoseconds: drain wall clock minus the
    /// worker's summed chunk execution time — the same ruler for barrier
    /// wait and steal/spin wait (not compared by `==`).
    pub idle_ns: Vec<u64>,
    /// Per-worker chunks stolen from other workers' queues (dataflow
    /// only; not compared by `==` — steal counts vary run to run).
    pub steals: Vec<u64>,
    /// Per-worker chunks executed (not compared by `==` — placement
    /// varies run to run under stealing).
    pub fires: Vec<u64>,
}

impl PartialEq for ThreadRec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.iters == other.iters
            && self.redundant_iters == other.redundant_iters
            && self.n_threads == other.n_threads
            && self.block_size == other.block_size
            && self.n_chunks == other.n_chunks
            && self.n_levels == other.n_levels
            && self.kind == other.kind
            && self.level_ns.len() == other.level_ns.len()
            && self.crit_path == other.crit_path
            && self.dataflow == other.dataflow
            && self.idle_ns.len() == other.idle_ns.len()
            && self.steals.len() == other.steals.len()
            && self.fires.len() == other.fires.len()
    }
}

impl Eq for ThreadRec {}

/// Trace-friendly mirror of [`op2_model::ChainClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ClassRec {
    /// CA reduces communication volume.
    #[default]
    Reducing,
    /// CA only groups messages; volume roughly unchanged.
    GroupingOnly,
    /// CA increases communication volume.
    Increasing,
}

impl From<op2_model::ChainClass> for ClassRec {
    fn from(c: op2_model::ChainClass) -> Self {
        match c {
            op2_model::ChainClass::CommunicationReducing => ClassRec::Reducing,
            op2_model::ChainClass::GroupingOnly => ClassRec::GroupingOnly,
            op2_model::ChainClass::CommunicationIncreasing => ClassRec::Increasing,
        }
    }
}

/// Self-healing counters for one rank: checkpoints taken, bytes
/// snapshotted, rollbacks driven by the supervisor, and the replay work
/// done to catch back up after a restore.
///
/// All counters are deterministic given the same program and the same
/// seeded fault plan, so they participate in trace equality: two
/// supervised runs of the same faulted program must agree on how they
/// healed, not just on the numerics. All zero when the run is
/// unsupervised (or fault-free with checkpointing disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryRec {
    /// Service job these counters belong to (0 outside the resident
    /// service). Deterministic: the service assigns ids in admission
    /// order, so per-world serialized replays agree.
    pub job: u64,
    /// Restart attempts this rank participated in (1 = fault-free run).
    pub attempts: u32,
    /// Checkpoints taken (including the attempt-start baseline).
    pub checkpoints: u64,
    /// Payload bytes actually copied into checkpoints (incremental:
    /// clean dats are shared, not re-copied, and not counted here).
    pub ckpt_bytes: u64,
    /// Dats freshly snapshotted across all checkpoints.
    pub dats_snapshotted: u64,
    /// Dats skipped because they were unchanged since the previous
    /// checkpoint (shared by reference instead of copied).
    pub dats_skipped: u64,
    /// Coordinated rollbacks this rank was rewound by.
    pub rollbacks: u64,
    /// Payload bytes restored into the live dats by rollbacks.
    pub restored_bytes: u64,
    /// Loop executions replayed from the journal (skipped re-execution)
    /// while catching up to the restored checkpoint.
    pub replayed_loops: u64,
    /// Chain executions replayed from the journal while catching up.
    pub replayed_chains: u64,
    /// Deadline escalations: times the supervisor classified a failure
    /// as a straggler and doubled the receive deadline before retrying.
    pub escalations: u64,
}

/// Online-rebalancing counters for one rank: migrations participated
/// in, elements and payload bytes this rank shipped to new owners, and
/// the replan cost paid after the layout epoch bump.
///
/// The structural counters (`migrations`, `elements_out`, `bytes_out`,
/// `replans`) are deterministic given the same migration plan and
/// participate in equality; the wall-clock and load-ratio fields
/// (`imbalance_before_milli`, `imbalance_after_milli`, `replan_ns`)
/// vary run to run and are excluded, following the [`ExchangeRec`]
/// convention.
#[derive(Debug, Clone, Copy, Default)]
pub struct RebalanceRec {
    /// Migrations this rank participated in.
    pub migrations: u64,
    /// Elements this rank shipped to new owners (sender side, summed
    /// over all sets).
    pub elements_out: u64,
    /// Payload bytes this rank shipped (dat slices + renumbering
    /// tables).
    pub bytes_out: u64,
    /// Plans invalidated by layout-epoch bumps on this rank.
    pub replans: u64,
    /// Measured max/mean load ratio that triggered the migration, in
    /// thousandths (1250 = 1.25×). Not compared by `==`.
    pub imbalance_before_milli: u64,
    /// Load ratio of the re-sharded layout predicted from the applied
    /// element weights, in thousandths. Not compared by `==`.
    pub imbalance_after_milli: u64,
    /// Wall time spent re-planning (re-shard + diff + layout rebuild +
    /// migration traffic), nanoseconds. Not compared by `==`.
    pub replan_ns: u64,
}

impl PartialEq for RebalanceRec {
    fn eq(&self, other: &Self) -> bool {
        self.migrations == other.migrations
            && self.elements_out == other.elements_out
            && self.bytes_out == other.bytes_out
            && self.replans == other.replans
    }
}

impl Eq for RebalanceRec {}

impl RebalanceRec {
    /// Accumulate another record (per-segment records fold into the
    /// run-wide aggregate the bench report surfaces).
    pub fn add(&mut self, other: &RebalanceRec) {
        self.migrations += other.migrations;
        self.elements_out += other.elements_out;
        self.bytes_out += other.bytes_out;
        self.replans += other.replans;
        self.imbalance_before_milli = self.imbalance_before_milli.max(other.imbalance_before_milli);
        self.imbalance_after_milli = self.imbalance_after_milli.max(other.imbalance_after_milli);
        self.replan_ns += other.replan_ns;
    }
}

/// Everything one rank recorded during a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankTrace {
    /// This rank.
    pub rank: u32,
    /// Standard loop executions, in program order.
    pub loops: Vec<LoopRec>,
    /// CA chain executions, in program order.
    pub chains: Vec<ChainRec>,
    /// Transport recovery counters (retries, timeouts, discarded
    /// corrupt/duplicate copies, injected faults observed). All zero on
    /// a healthy network; the harness copies them out of the comm layer
    /// when the rank finishes — including when it fails.
    pub comm: crate::comm::CommCounters,
    /// Plan-cache counters (hits, misses, invalidations, tile plans).
    /// The harness copies them out of [`crate::plan::PlanCache`] when the
    /// rank finishes.
    pub plan: crate::plan::PlanStats,
    /// Adaptive-dispatch decisions, in program order. Empty unless the
    /// program ran chains through [`crate::tuner::Tuner`].
    pub tuner: Vec<TunerRec>,
    /// Pooled schedule executions (colored loops and tiled chains), in
    /// program order. Empty when the rank ran single-threaded.
    pub threads: Vec<ThreadRec>,
    /// Self-healing counters (checkpoints, rollbacks, replays). All
    /// zero unless the program ran under [`crate::supervise`] or with
    /// checkpointing enabled.
    pub recovery: RecoveryRec,
    /// Online-rebalancing counters (migrations, moved elements/bytes,
    /// replan cost). All zero unless the program ran under
    /// [`crate::rebalance`].
    pub rebalance: RebalanceRec,
}

impl RankTrace {
    /// Total messages sent (loops + chains + reductions are counted by
    /// the comm layer; this sums the loop/chain records).
    pub fn total_msgs(&self) -> usize {
        self.loops.iter().map(|l| l.exch.n_msgs).sum::<usize>()
            + self.chains.iter().map(|c| c.exch.n_msgs).sum::<usize>()
    }

    /// Total exchanged payload bytes.
    pub fn total_bytes(&self) -> usize {
        self.loops.iter().map(|l| l.exch.bytes).sum::<usize>()
            + self.chains.iter().map(|c| c.exch.bytes).sum::<usize>()
    }

    /// Aggregated exchange record across every loop and chain — the
    /// per-rank `comm` summary (distinct neighbours, byte totals, and
    /// the pack/unpack/wait wall-clock breakdown) the bench report
    /// surfaces.
    pub fn exch_total(&self) -> ExchangeRec {
        let mut total = ExchangeRec::default();
        for l in &self.loops {
            total.add(&l.exch);
        }
        for c in &self.chains {
            total.add(&c.exch);
        }
        total
    }

    /// Measured wall time of every recorded execution unit (loops and
    /// chains), nanoseconds — the rank's total compute+exchange load.
    pub fn wall_ns(&self) -> u64 {
        self.loops.iter().map(|l| l.wall_ns).sum::<u64>()
            + self.chains.iter().map(|c| c.wall_ns).sum::<u64>()
    }

    /// Windowed load: wall time of the trailing `window` loop records
    /// plus the trailing `window` chain records, nanoseconds. The
    /// rebalance detector aggregates this per rank so old history stops
    /// influencing the trigger.
    pub fn recent_wall_ns(&self, window: usize) -> u64 {
        let tail = |v: &[u64]| -> u64 { v[v.len().saturating_sub(window)..].iter().sum() };
        let loops: Vec<u64> = self.loops.iter().map(|l| l.wall_ns).collect();
        let chains: Vec<u64> = self.chains.iter().map(|c| c.wall_ns).collect();
        tail(&loops) + tail(&chains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_accumulation() {
        let mut a = ExchangeRec {
            n_msgs: 2,
            bytes: 100,
            max_msg_bytes: 60,
            n_neighbors: 2,
            packed_elems: 10,
            nbr_bits: 0b011,
            pack_ns: 40,
            unpack_ns: 20,
            wait_ns: 500,
        };
        let b = ExchangeRec {
            n_msgs: 1,
            bytes: 80,
            max_msg_bytes: 80,
            n_neighbors: 1,
            packed_elems: 5,
            nbr_bits: 0b010,
            pack_ns: 10,
            unpack_ns: 5,
            wait_ns: 100,
        };
        a.add(&b);
        assert_eq!(a.n_msgs, 3);
        assert_eq!(a.bytes, 180);
        assert_eq!(a.max_msg_bytes, 80);
        assert_eq!(a.n_neighbors, 2);
        assert_eq!(a.packed_elems, 15);
        assert_eq!(a.distinct_neighbors(), 2);
        assert_eq!((a.pack_ns, a.unpack_ns, a.wait_ns), (50, 25, 600));
    }

    /// The wall-clock fields accumulate but are excluded from equality —
    /// two records of the same exchange with different timings compare
    /// equal (the replay-determinism contract).
    #[test]
    fn exchange_equality_ignores_timings() {
        let a = ExchangeRec {
            n_msgs: 2,
            bytes: 100,
            pack_ns: 40,
            wait_ns: 999,
            ..Default::default()
        };
        let b = ExchangeRec {
            n_msgs: 2,
            bytes: 100,
            pack_ns: 7,
            unpack_ns: 3,
            ..Default::default()
        };
        assert_eq!(a, b);
        let c = ExchangeRec {
            n_msgs: 3,
            bytes: 100,
            ..Default::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn distinct_neighbors_across_alternating_stencils() {
        // Two loops in a chain, each messaging 2 peers — but *different*
        // peers (disjoint stencils). The old max-based accumulation
        // reported 2 neighbours; the union of messaged peers is 4.
        let mut a = ExchangeRec {
            n_msgs: 2,
            n_neighbors: 2,
            nbr_bits: 0b0011, // ranks 0, 1
            ..Default::default()
        };
        let b = ExchangeRec {
            n_msgs: 2,
            n_neighbors: 2,
            nbr_bits: 0b1100, // ranks 2, 3
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.n_neighbors, 4);
        assert_eq!(a.distinct_neighbors(), 4);
    }

    #[test]
    fn chain_iteration_sums() {
        let c = ChainRec {
            per_loop: vec![(10, 4), (8, 6)],
            ..Default::default()
        };
        assert_eq!(c.core_iters(), 18);
        assert_eq!(c.halo_iters(), 10);
    }

    #[test]
    fn trace_totals() {
        let mut t = RankTrace::default();
        t.loops.push(LoopRec {
            exch: ExchangeRec {
                n_msgs: 4,
                bytes: 32,
                ..Default::default()
            },
            ..Default::default()
        });
        t.chains.push(ChainRec {
            exch: ExchangeRec {
                n_msgs: 1,
                bytes: 64,
                ..Default::default()
            },
            ..Default::default()
        });
        assert_eq!(t.total_msgs(), 5);
        assert_eq!(t.total_bytes(), 96);
    }
}
