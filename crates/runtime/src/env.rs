//! Per-rank execution state.
//!
//! A [`RankEnv`] owns everything one MPI-rank-equivalent needs: its local
//! dat buffers (in layout order: owned, then import rings level by
//! level), the transport endpoint, instrumentation, and — the key piece —
//! per-dat **halo validity depths**.
//!
//! ## Validity depths (multi-level dirty bits)
//!
//! OP2 keeps one *dirty bit* per dat: set when any loop modifies the dat,
//! cleared by a halo exchange. With multi-layered halos this generalises
//! to an integer `valid[d] = v`: our copies of rings `1..=v` agree with
//! their owners. The transitions implemented by the executors:
//!
//! * a halo exchange to depth `t` raises validity to `t`;
//! * a loop executed to halo extent `e` that modifies `d` *indirectly*
//!   (INC / indirect RW / indirect WRITE) leaves `valid[d] = e − 1`: the
//!   outermost executed ring received only the increments of executed
//!   iterations, so it holds partial sums;
//! * a loop that *directly writes* `d` over extent `e` leaves
//!   `valid[d] = e` — each written element is recomputed from inputs the
//!   executor has verified valid, so our copies equal the owner's. (For
//!   the OP2-baseline executor we deliberately degrade this to 0,
//!   matching OP2's conservative single dirty bit, so baseline message
//!   counts reproduce the paper's.)
//!
//! Executors *assert* their read requirements against `valid` before
//! touching data: an analysis bug becomes a loud panic, never silent
//! numerical corruption.

use crate::comm::{CommError, RankComm};
use crate::fault::{BoundaryAction, BoundaryKind};
use crate::plan::{ChainPlan, NeighborPack, PlanCache};
use crate::threads::{
    run_schedule_dataflow, run_schedule_pooled_ctx, ExecStats, ThreadCtx, Threading,
};
use crate::trace::{ExchangeRec, RankTrace, SchedKind, ThreadRec};
use op2_core::dag::{dag_accesses, ChunkDag};
use op2_core::owner;
use op2_core::par::{adaptive_block_size, color_blocks_raw, conflict_accesses};
use op2_core::schedule::{
    run_schedule_ctx, BoundArg, BoundLoop, SchedCtx, Schedule, ScheduleKind,
};
use op2_core::{Arg, ChainSpec, DatId, Domain, LoopSig, LoopSpec};
use op2_partition::layout::{NeighborPlan, RankLayout};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

enum ExecIters<'a> {
    Range(usize, usize),
    List(&'a [u32]),
}

/// Parse one `OP2_*` environment knob's raw value (`None` = variable
/// unset). The pure half of [`env_knob`]: no environment access, so the
/// harness validates configuration once at startup and tests cover every
/// malformed shape without mutating process state. `parse` returning
/// `None` means the value is malformed and becomes `err(value)` — a
/// typed [`ConfigError`] instead of a silent fallback or a panic inside
/// a rank thread.
pub fn parse_knob<T>(
    raw: Option<&str>,
    parse: impl FnOnce(&str) -> Option<T>,
    err: impl FnOnce(String) -> crate::error::ConfigError,
) -> Result<Option<T>, crate::error::ConfigError> {
    match raw {
        None => Ok(None),
        Some(v) => parse(v).map(Some).ok_or_else(|| err(v.to_string())),
    }
}

/// Read and parse one `OP2_*` environment knob through [`parse_knob`] —
/// the single environment-access point for runtime configuration
/// (`OP2_CKPT_EVERY`, `OP2_SERVE_*`; `OP2_THREADS`/`OP2_BLOCK_SIZE` are
/// a coupled pair parsed by [`Threading::parse`] but follow the same
/// typed-error discipline). `Ok(None)` = unset, caller applies its
/// default.
pub fn env_knob<T>(
    name: &str,
    parse: impl FnOnce(&str) -> Option<T>,
    err: impl FnOnce(String) -> crate::error::ConfigError,
) -> Result<Option<T>, crate::error::ConfigError> {
    parse_knob(std::env::var(name).ok().as_deref(), parse, err)
}

/// Cross-loop fusion policy (`OP2_FUSE`): whether chain executors may
/// replace the per-loop walk with a fused whole-chain schedule that runs
/// every fusable kernel back-to-back per element, keeping elidable
/// intermediates in per-worker scratch instead of memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FuseMode {
    /// Always run fused when the chain has at least one fusable group.
    On,
    /// Never fuse — the per-loop executors run unchanged (the default:
    /// fusion trades away exchange/compute overlap, so it must be asked
    /// for or predicted profitable).
    #[default]
    Off,
    /// Let the calibrated cost model decide per chain
    /// ([`op2_model::classify_fused`]): fuse only when the elided
    /// memory traffic is predicted to outweigh the lost overlap.
    Auto,
}

impl FuseMode {
    /// Parse an `OP2_FUSE`-style value: `on` / `off` / `auto`
    /// (case-insensitive; `None` = unset → `Off`).
    pub fn parse(raw: Option<&str>) -> Result<FuseMode, crate::error::ConfigError> {
        let parsed = parse_knob(
            raw,
            |v| match v.to_ascii_lowercase().as_str() {
                "on" | "1" | "true" => Some(FuseMode::On),
                "off" | "0" | "false" => Some(FuseMode::Off),
                "auto" => Some(FuseMode::Auto),
                _ => None,
            },
            |value| crate::error::ConfigError::Fuse { value },
        )?;
        Ok(parsed.unwrap_or_default())
    }

    /// [`FuseMode::parse`] on the `OP2_FUSE` environment variable.
    pub fn try_from_env() -> Result<FuseMode, crate::error::ConfigError> {
        let raw = std::env::var("OP2_FUSE").ok();
        FuseMode::parse(raw.as_deref())
    }
}

/// Schedule drain policy (`OP2_EXEC`): how pooled executors drain a
/// lowered [`Schedule`] — one barriered pool round per level, or the
/// dataflow executor ([`crate::threads::run_dag`]) where each chunk
/// fires the moment its dependency counter reaches zero. Results are
/// bitwise identical either way (the chunk DAG orders every conflicting
/// pair in sequential order), only the synchronisation shape differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Level-synchronous draining — one pool barrier per level (the
    /// default: matches the paper's executor, and wide shallow
    /// schedules lose nothing to barriers).
    #[default]
    Levels,
    /// Always drain through the dataflow executor: per-chunk dependency
    /// counters, owner-first deques, LIFO steal-from-richest stealing.
    Dataflow,
    /// Let the calibrated cost model decide per schedule
    /// ([`op2_model::classify_exec`]): critical-path depth priced
    /// against barrier count × the rank's measured sync cost.
    Auto,
}

impl ExecMode {
    /// Parse an `OP2_EXEC`-style value: `levels` / `dataflow` / `auto`
    /// (case-insensitive; `None` = unset → `Levels`).
    pub fn parse(raw: Option<&str>) -> Result<ExecMode, crate::error::ConfigError> {
        let parsed = parse_knob(
            raw,
            |v| match v.to_ascii_lowercase().as_str() {
                "levels" => Some(ExecMode::Levels),
                "dataflow" => Some(ExecMode::Dataflow),
                "auto" => Some(ExecMode::Auto),
                _ => None,
            },
            |value| crate::error::ConfigError::Exec { value },
        )?;
        Ok(parsed.unwrap_or_default())
    }

    /// [`ExecMode::parse`] on the `OP2_EXEC` environment variable.
    pub fn try_from_env() -> Result<ExecMode, crate::error::ConfigError> {
        let raw = std::env::var("OP2_EXEC").ok();
        ExecMode::parse(raw.as_deref())
    }
}

/// Parse an `OP2_THREAD_PIN`-style value: a boolean (`1`/`0`/`true`/
/// `false`/`on`/`off`, case-insensitive; `None` = unset → `false`).
/// When set, the dataflow executor pins chunk ownership to workers in
/// first-touch (contiguous level-major range) order, so the pages a
/// worker's chunks touch stay hot in that worker's cache across drains.
pub fn parse_thread_pin(raw: Option<&str>) -> Result<bool, crate::error::ConfigError> {
    let parsed = parse_knob(
        raw,
        |v| match v.to_ascii_lowercase().as_str() {
            "1" | "true" | "on" => Some(true),
            "0" | "false" | "off" => Some(false),
            _ => None,
        },
        |value| crate::error::ConfigError::ThreadPin { value },
    )?;
    Ok(parsed.unwrap_or(false))
}

/// [`parse_thread_pin`] on the `OP2_THREAD_PIN` environment variable.
pub fn thread_pin_from_env() -> Result<bool, crate::error::ConfigError> {
    let raw = std::env::var("OP2_THREAD_PIN").ok();
    parse_thread_pin(raw.as_deref())
}

/// Payload size above which planned pack/unpack splits a neighbour's
/// index lists across the rank's thread pool. Tuned so the fork/join
/// cost (two pool barriers, ~µs) stays well under the memory traffic it
/// parallelises; below it the sequential copy wins.
pub const PACK_THREAD_BYTES: usize = 32 << 10;

/// Block-size slot of a threaded loop's schedule-cache key under the
/// owner-compute lowering, which has no blocks (colorings always have
/// block size ≥ 1).
const OWNER_BLOCK: usize = 0;

/// The `MPI_Send_init` moment of the persistent-exchange engine: tracks
/// which plans have had their message buffers pre-sized into the
/// transport's per-peer pool. Warming happens once per (chain signature,
/// dirty class) — the same key that selects a [`ChainPlan`] — and sizes
/// each peer's slot to the *larger* of the pair's send/recv payloads.
/// Buffers travel with messages and return with the peer's replies, so a
/// buffer warmed to `max(send, recv)` keeps circulating on its pair
/// without ever needing to grow: steady-state planned exchanges perform
/// zero payload allocations (asserted via
/// [`crate::comm::CommCounters::payload_allocs`]).
#[derive(Debug, Default)]
pub struct ExchangeBuffers {
    warmed: HashSet<(u64, u64)>,
}

impl ExchangeBuffers {
    /// Pre-size `comm`'s per-peer buffer pool for `plan`'s grouped
    /// messages. Idempotent per plan identity; repeat calls are a hash
    /// lookup.
    pub fn warm(&mut self, comm: &mut RankComm, plan: &ChainPlan) {
        if !self.warmed.insert((plan.sig, plan.dirty)) {
            return;
        }
        for pack in &plan.packs {
            comm.ensure_buf(pack.rank, pack.send_f64s.max(pack.recv_f64s));
        }
    }

    /// Number of plans warmed so far (introspection).
    pub fn warmed_plans(&self) -> usize {
        self.warmed.len()
    }

    /// Forget every warmed plan. Required after a layout epoch bump:
    /// the (signature, dirty-class) keys may collide with plans built
    /// for the old layout, whose per-peer payload sizes no longer
    /// describe the new layout's grouped messages.
    pub fn reset(&mut self) {
        self.warmed.clear();
    }
}

/// Raw-pointer wrapper so pack/unpack closures can fan copies out over
/// the pool; safety rests on the disjointness of the copied ranges (pack
/// entries partition the payload; receive ranges are disjoint local
/// windows).
struct PackPtr(*mut f64);
unsafe impl Send for PackPtr {}
unsafe impl Sync for PackPtr {}

impl PackPtr {
    /// The raw pointer. Going through a method (rather than `.0`) keeps
    /// closures capturing the `Sync` wrapper, not the bare pointer.
    #[inline]
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// Per-rank state: local data, validity, transport, trace.
pub struct RankEnv<'a> {
    /// This rank.
    pub rank: u32,
    /// The rank's layout (local index spaces, maps, exchange plans).
    pub layout: &'a RankLayout,
    /// The global domain (metadata only: dims, sets; payload is local).
    pub dom: &'a Domain,
    /// Transport endpoint.
    pub comm: RankComm,
    /// Local dat buffers, indexed by `DatId`.
    pub dats: Vec<Vec<f64>>,
    /// Halo validity depth per dat.
    pub valid: Vec<u8>,
    /// Instrumentation.
    pub trace: RankTrace,
    /// Inspector–executor plan cache: one [`ChainPlan`] per (chain
    /// signature, dirty-state class), invalidated by layout-epoch bumps.
    pub plans: PlanCache,
    /// Monotone tag sequence (identical across ranks by construction).
    pub tag_seq: u64,
    /// Intra-rank threading: configuration plus the standalone-loop
    /// block-coloring cache (chain loops cache theirs in the
    /// [`ChainPlan`]).
    pub threads: ThreadCtx,
    /// Cross-loop fusion policy for chain executors (see [`FuseMode`]).
    pub fuse: FuseMode,
    /// Schedule drain policy for pooled executions (see [`ExecMode`]).
    pub exec: ExecMode,
    /// Pin chunk ownership to workers in first-touch order under the
    /// dataflow drain (`OP2_THREAD_PIN`).
    pub pin: bool,
    /// Persistent-exchange warm-up state (see [`ExchangeBuffers`]).
    pub exch_bufs: ExchangeBuffers,
    /// Checkpoint/replay state (see [`crate::checkpoint`]); inert — all
    /// hooks are no-ops — unless [`RankEnv::ckpt_attach`] was called.
    pub ckpt: crate::checkpoint::CheckpointCtx,
    /// Boundaries crossed so far, per [`BoundaryKind`] — the coordinates
    /// fault plans name crash/stall points by. Restored by checkpoint
    /// rollback so those coordinates keep their meaning across restarts.
    pub(crate) boundaries: [u64; 3],
    /// Service job id this env executes for (0 outside the resident
    /// service). Stamped into [`crate::trace::TunerRec`] and
    /// [`crate::trace::RecoveryRec`] so per-job traces stay attributable
    /// when many jobs share one world.
    pub job: u64,
}

impl<'a> RankEnv<'a> {
    /// Gather this rank's view of every dat and start fully valid (the
    /// initial gather replicates owner data into every ring).
    pub fn new(layout: &'a RankLayout, dom: &'a Domain, comm: RankComm) -> Self {
        let dats: Vec<Vec<f64>> = (0..dom.n_dats())
            .map(|d| layout.gather_dat(dom, DatId(d as u32)))
            .collect();
        let valid = vec![layout.depth as u8; dom.n_dats()];
        RankEnv {
            rank: layout.rank,
            layout,
            dom,
            comm,
            dats,
            valid,
            trace: RankTrace {
                rank: layout.rank,
                ..Default::default()
            },
            plans: PlanCache::new(),
            tag_seq: 0,
            // Sequential until configured: the harness resolves the
            // OP2_THREADS environment once (with typed errors) and sets
            // `threads.opts` before the program runs, so env creation
            // itself can never panic on a malformed variable.
            threads: ThreadCtx::new(Threading::single()),
            fuse: FuseMode::default(),
            exec: ExecMode::default(),
            pin: false,
            exch_bufs: ExchangeBuffers::default(),
            ckpt: crate::checkpoint::CheckpointCtx::inert(),
            boundaries: [0; 3],
            job: 0,
        }
    }

    /// Heap allocations the persistent schedule contexts (scratch pools,
    /// slot tables) have performed so far — flat across repeat fused
    /// executions of the same chains, which tests and the bench assert
    /// (zero steady-state scratch allocations).
    pub fn sched_allocs(&self) -> u64 {
        self.threads.sched_ctxs.iter().map(|c| c.allocs()).sum()
    }

    /// Fresh tag for the next collective/exchange round.
    pub fn next_tag(&mut self) -> u64 {
        self.tag_seq += 64;
        self.tag_seq
    }

    /// Executor hook: this rank crossed a loop/chain boundary. If the
    /// attached fault plan names this boundary, act on it: a stall is a
    /// plain sleep (long enough to trip peers' deadlines when configured
    /// so); a crash hangs up the transport — so peers unwind promptly
    /// with [`CommError::PeerHangup`] — and panics, which the harness
    /// contains via `catch_unwind` and reports as a per-rank failure.
    pub fn boundary(&mut self, kind: BoundaryKind) {
        let slot = match kind {
            BoundaryKind::Loop => 0,
            BoundaryKind::Chain => 1,
            BoundaryKind::ChainLoop => 2,
        };
        let index = self.boundaries[slot];
        self.boundaries[slot] += 1;
        let Some(plan) = self.comm.fault_plan() else {
            return;
        };
        match plan.boundary_action(self.rank, kind, index) {
            None => {}
            Some(BoundaryAction::Stall(dur)) => std::thread::sleep(dur),
            Some(BoundaryAction::Crash) => {
                self.comm.hangup_all();
                panic!(
                    "fault injection: rank {} crashed at {kind:?} boundary {index}",
                    self.rank
                );
            }
        }
    }

    /// Execute `spec`'s kernel over local iterations `[start, end)`.
    /// `gbl_bufs` supplies the global-argument buffers (constants or
    /// reduction accumulators), one per [`op2_core::GblDecl`].
    ///
    /// With threading active ([`Threading::active`]) and a range worth
    /// splitting, the range is lowered to a [`Schedule`] — owner-compute
    /// for increment loops ([`op2_core::owner`]), levelized block
    /// coloring otherwise — cached per (loop, range, block size) in the
    /// rank's [`ThreadCtx`], and executed on the rank's pool. Results
    /// are bitwise identical either way.
    pub fn exec_range(
        &mut self,
        spec: &LoopSpec,
        start: usize,
        end: usize,
        gbl_bufs: &mut [Vec<f64>],
    ) {
        let Some(block_size) = self.threaded_lowering(spec, start, end) else {
            return self.exec_impl(spec, ExecIters::Range(start, end), gbl_bufs);
        };
        let key = (crate::plan::loop_signature(spec), start, end, block_size);
        let sched = match self.threads.cached(key) {
            Some(s) => {
                self.plans.stats.color_hits += 1;
                s
            }
            None => {
                self.plans.stats.color_misses += 1;
                let s = Arc::new(self.build_loop_schedule(spec, start, end, block_size));
                self.threads.store(key, Arc::clone(&s));
                s
            }
        };
        self.exec_schedule_threaded(spec, gbl_bufs, &sched, None);
    }

    /// [`RankEnv::exec_range`] for a chain loop with a cached plan: the
    /// lowered schedule is cached *in the plan* (keyed by loop position,
    /// range and block size), alongside the other inspector products —
    /// repeat chain invocations re-lower nothing.
    pub fn exec_range_planned(
        &mut self,
        spec: &LoopSpec,
        start: usize,
        end: usize,
        gbl_bufs: &mut [Vec<f64>],
        plan: &ChainPlan,
        pos: usize,
    ) {
        let Some(block_size) = self.threaded_lowering(spec, start, end) else {
            return self.exec_impl(spec, ExecIters::Range(start, end), gbl_bufs);
        };
        let key = (pos, start, end, block_size);
        let sched = match plan.cached_schedule(key) {
            Some(s) => {
                self.plans.stats.color_hits += 1;
                s
            }
            None => {
                self.plans.stats.color_misses += 1;
                let s = Arc::new(self.build_loop_schedule(spec, start, end, block_size));
                plan.store_schedule(key, Arc::clone(&s));
                s
            }
        };
        self.exec_schedule_threaded(spec, gbl_bufs, &sched, Some(plan));
    }

    /// Should `[start, end)` of `spec` run on the thread pool, and
    /// lowered how? `None` means run sequentially; [`OWNER_BLOCK`] the
    /// owner-compute lowering ([`op2_core::owner::eligible`] loops); any
    /// other value the block coloring with that block size. Threading
    /// requires an active configuration, no global reduction
    /// (order-sensitive float sums must accumulate in sequential order),
    /// and more than one block's worth of iterations (below that there
    /// is too little work to split). Under `OP2_BLOCK_SIZE=auto` the
    /// block size is picked per-loop from the measured conflict degree.
    fn threaded_lowering(&self, spec: &LoopSpec, start: usize, end: usize) -> Option<usize> {
        if !self.threads.opts.active() || spec.has_reduction() {
            return None;
        }
        let block_size = self.chosen_block_size(spec, start, end);
        if end.saturating_sub(start) <= block_size {
            return None;
        }
        Some(if owner::eligible(&spec.sig()) {
            OWNER_BLOCK
        } else {
            block_size
        })
    }

    /// The block size for `[start, end)` of `spec`: the configured value,
    /// or — under `OP2_BLOCK_SIZE=auto` — the adaptive per-loop pick from
    /// the measured conflict degree over this rank's localized maps.
    pub fn chosen_block_size(&self, spec: &LoopSpec, start: usize, end: usize) -> usize {
        if !self.threads.opts.auto_block {
            return self.threads.opts.block_size;
        }
        let sig = spec.sig();
        let set_sizes: Vec<usize> = self.layout.sets.iter().map(|s| s.n_local()).collect();
        let accesses = conflict_accesses(&self.layout.maps, &sig);
        adaptive_block_size(start, end, &set_sizes, &accesses)
    }

    /// Pool barriers a threaded run of `[start, end)` of `spec` pays —
    /// the count the tuner's threaded cost model prices: one level for
    /// an owner-compute loop, else the color count of the levelized
    /// block coloring over this rank's localized maps. Only executable
    /// iterations are colored, so every dereferenced map target is a
    /// valid local index (the layout invariant the executor relies on).
    pub fn threaded_levels(&self, spec: &LoopSpec, start: usize, end: usize) -> usize {
        let sig = spec.sig();
        if owner::eligible(&sig) {
            return 1;
        }
        let set_sizes: Vec<usize> = self.layout.sets.iter().map(|s| s.n_local()).collect();
        let accesses = conflict_accesses(&self.layout.maps, &sig);
        let block_size = self.chosen_block_size(spec, start, end);
        color_blocks_raw(start, end, block_size, &set_sizes, &accesses).n_colors
    }

    /// Inspector: lower `[start, end)` of `spec` per
    /// [`RankEnv::threaded_lowering`] — owner-compute across the pool's
    /// threads for [`OWNER_BLOCK`], a block coloring with the given
    /// block size otherwise.
    fn build_loop_schedule(
        &self,
        spec: &LoopSpec,
        start: usize,
        end: usize,
        block_size: usize,
    ) -> Schedule {
        let sig = spec.sig();
        let set_sizes: Vec<usize> = self.layout.sets.iter().map(|s| s.n_local()).collect();
        let accesses = conflict_accesses(&self.layout.maps, &sig);
        if block_size == OWNER_BLOCK {
            let threads = self.threads.opts.n_threads;
            return owner::owner_schedule(start, end, threads, &set_sizes, &accesses);
        }
        let bc = color_blocks_raw(start, end, block_size, &set_sizes, &accesses);
        Schedule::from_block_coloring(&bc)
    }

    /// Resolve one loop's arguments against this rank's local buffers
    /// and localized maps — the runtime-side constructor of the shared
    /// [`BoundLoop`] execution path.
    fn bind_loop(&mut self, spec: &LoopSpec, gbl_bufs: &mut [Vec<f64>]) -> BoundLoop {
        let mut args = Vec::with_capacity(spec.args.len());
        for arg in &spec.args {
            match arg {
                Arg::Dat { dat, map, mode } => {
                    let dim = self.dom.dat(*dat).dim as u32;
                    let base = self.dats[dat.idx()].as_mut_ptr();
                    let map_info = map.map(|(m, idx)| {
                        let lm = &self.layout.maps[m.idx()];
                        (lm.values.as_ptr(), lm.arity, idx as usize)
                    });
                    args.push(BoundArg {
                        base,
                        dim,
                        mode: *mode,
                        map: map_info,
                        direct: map.is_none(),
                    });
                }
                Arg::Gbl { idx, mode } => {
                    let buf = &mut gbl_bufs[*idx as usize];
                    args.push(BoundArg {
                        base: buf.as_mut_ptr(),
                        dim: buf.len() as u32,
                        mode: *mode,
                        map: None,
                        direct: false,
                    });
                }
            }
        }
        BoundLoop::from_parts(spec.kernel, args)
    }

    /// The chunk dependency DAG for `sched`, derived from the
    /// chain-wide conflict accesses of `sigs` ([`dag_accesses`]) over
    /// this rank's localized maps, and cached: in `plan` when given
    /// (dropped with the plan on epoch invalidation), else in the
    /// rank's [`ThreadCtx`].
    fn resolve_dag(
        &mut self,
        sigs: &[LoopSig],
        sched: &Arc<Schedule>,
        plan: Option<&ChainPlan>,
    ) -> Arc<ChunkDag> {
        let cached = match plan {
            Some(p) => p.cached_dag(sched),
            None => self.threads.dag_cached(sched),
        };
        if let Some(d) = cached {
            return d;
        }
        let set_sizes: Vec<usize> = self.layout.sets.iter().map(|s| s.n_local()).collect();
        let accesses = dag_accesses(&self.layout.maps, sigs);
        let dag = Arc::new(ChunkDag::build(sched, &set_sizes, &accesses));
        match plan {
            Some(p) => p.store_dag(sched, Arc::clone(&dag)),
            None => self.threads.store_dag(sched, Arc::clone(&dag)),
        }
        dag
    }

    /// Should this schedule drain through the dataflow executor?
    /// `OP2_EXEC=levels`/`dataflow` decide directly; `auto` asks the
    /// profit arm — critical-path hand-offs against barrier count times
    /// this rank's measured pool sync cost.
    fn dataflow_chosen(&mut self, sched: &Schedule, dag: &ChunkDag) -> bool {
        match self.exec {
            ExecMode::Levels => false,
            ExecMode::Dataflow => true,
            ExecMode::Auto => {
                let threads = self.threads.opts.n_threads;
                let sync_s = self.threads.sync_cost();
                op2_model::classify_exec(threads, sched.n_levels(), dag.crit_path as usize, sync_s)
                    .dataflow
            }
        }
    }

    /// Drain `bound` over `sched` on the rank's pool, through whichever
    /// executor [`RankEnv::dataflow_chosen`] picks — dataflow needs the
    /// chunk DAG ([`RankEnv::resolve_dag`]), levels pays one barrier per
    /// level. Bitwise identical either way.
    fn drain_schedule(
        &mut self,
        sigs: &[LoopSig],
        bound: &[BoundLoop],
        sched: &Arc<Schedule>,
        plan: Option<&ChainPlan>,
    ) -> ExecStats {
        let pool = self.threads.pool();
        if self.exec != ExecMode::Levels && sched.has_parallelism() {
            let dag = self.resolve_dag(sigs, sched, plan);
            if self.dataflow_chosen(sched, &dag) {
                return run_schedule_dataflow(
                    &pool,
                    bound,
                    sched,
                    &dag,
                    self.pin,
                    &mut self.threads.sched_ctxs,
                    &mut self.threads.dataflow,
                );
            }
        }
        run_schedule_pooled_ctx(&pool, bound, sched, &mut self.threads.sched_ctxs)
    }

    /// Executor: run one loop's owner-compute or colored schedule on the
    /// rank's own pool. Owner chunks write disjoint elements, each in
    /// ascending iteration order; colored same-level chunks touch
    /// disjoint modified elements and conflicting chunks are ordered by
    /// ascending level = ascending block index — and the dataflow drain
    /// preserves exactly the conflicting-pair order through the chunk
    /// DAG — so per-element update order equals the sequential
    /// executor's: results are bitwise identical for any thread count
    /// and either drain. Appends
    /// a [`ThreadRec`] with per-level wall times and per-worker
    /// idle/steal/fire counters to the trace.
    fn exec_schedule_threaded(
        &mut self,
        spec: &LoopSpec,
        gbl_bufs: &mut [Vec<f64>],
        sched: &Arc<Schedule>,
        plan: Option<&ChainPlan>,
    ) {
        let bound = self.bind_loop(spec, gbl_bufs);
        let sigs = [spec.sig()];
        let stats = self.drain_schedule(&sigs, std::slice::from_ref(&bound), sched, plan);
        let (kind, block_size, redundant_iters) = match sched.kind {
            ScheduleKind::Owner { redundant_iters } => (SchedKind::Owner, 0, redundant_iters),
            ScheduleKind::Colored { block_size } => (SchedKind::Colored, block_size, 0),
            _ => (SchedKind::Colored, 0, 0),
        };
        self.trace.threads.push(ThreadRec {
            name: spec.name.clone(),
            iters: sched.loop_iters(0),
            redundant_iters,
            n_threads: self.threads.pool().n_threads(),
            block_size,
            n_chunks: sched.n_chunks(),
            n_levels: sched.n_levels(),
            kind,
            level_ns: stats.level_ns,
            crit_path: stats.crit_path,
            dataflow: stats.dataflow,
            idle_ns: stats.idle_ns,
            steals: stats.steals,
            fires: stats.fires,
        });
    }

    /// Executor: run a whole chain's leveled tile schedule — same-level
    /// tiles concurrently on the rank's pool when threading is active
    /// and the schedule has parallelism to expose, sequentially (level
    /// order, which is bitwise identical to tile-id order) otherwise.
    /// Under `OP2_EXEC=dataflow`/`auto` the pooled drain goes through
    /// the dataflow executor with the chain's chunk DAG (cached in
    /// `plan` when given). Appends a [`ThreadRec`] (kind
    /// [`SchedKind::Tiled`]) with per-level wall times when the pool
    /// ran.
    pub fn exec_chain_schedule(
        &mut self,
        chain: &ChainSpec,
        sched: &Arc<Schedule>,
        plan: Option<&ChainPlan>,
    ) {
        debug_assert_eq!(sched.n_loops, chain.len());
        let mut gbls: Vec<Vec<f64>> = Vec::new();
        let mut bound = Vec::with_capacity(chain.len());
        // Flatten per-loop gbl buffers into one arena so every bind's
        // pointers stay valid (chain loops carry constants only — the
        // chain analysis rejects reductions).
        let mut gbl_ranges = Vec::with_capacity(chain.len());
        for spec in &chain.loops {
            debug_assert!(!spec.has_reduction());
            let s = gbls.len();
            gbls.extend(spec.gbls.iter().map(|g| g.init.clone()));
            gbl_ranges.push(s);
        }
        for (spec, &s) in chain.loops.iter().zip(gbl_ranges.iter()) {
            let bufs = &mut gbls[s..s + spec.gbls.len()];
            bound.push(self.bind_loop(spec, bufs));
        }
        if self.threads.opts.active() && sched.has_parallelism() {
            // Per-worker contexts persist in ThreadCtx across chain
            // invocations, so steady-state fused execution performs zero
            // scratch-pool or slot-table heap allocations (asserted via
            // `SchedCtx::allocs`).
            let sigs = chain.sigs();
            let stats = self.drain_schedule(&sigs, &bound, sched, plan);
            let iters: usize = (0..sched.n_loops).map(|j| sched.loop_iters(j)).sum();
            self.trace.threads.push(ThreadRec {
                name: chain.name.clone(),
                iters,
                redundant_iters: 0,
                n_threads: self.threads.pool().n_threads(),
                block_size: 0,
                n_chunks: sched.n_chunks(),
                n_levels: sched.n_levels(),
                kind: SchedKind::Tiled,
                level_ns: stats.level_ns,
                crit_path: stats.crit_path,
                dataflow: stats.dataflow,
                idle_ns: stats.idle_ns,
                steals: stats.steals,
                fires: stats.fires,
            });
        } else {
            if self.threads.sched_ctxs.is_empty() {
                self.threads.sched_ctxs.push(SchedCtx::new());
            }
            run_schedule_ctx(&bound, sched, &mut self.threads.sched_ctxs[0]);
        }
    }

    /// Execute `spec`'s kernel over an explicit local iteration list —
    /// the tile-by-tile building block of the distributed sparse-tiled
    /// chain executor.
    pub fn exec_indexed(&mut self, spec: &LoopSpec, iters: &[u32], gbl_bufs: &mut [Vec<f64>]) {
        self.exec_impl(spec, ExecIters::List(iters), gbl_bufs)
    }

    /// Sequential execution through the shared [`BoundLoop`] path (a
    /// degenerate one-chunk schedule — there is no second execution loop
    /// in the runtime either).
    fn exec_impl(&mut self, spec: &LoopSpec, iters: ExecIters<'_>, gbl_bufs: &mut [Vec<f64>]) {
        let empty = match &iters {
            ExecIters::Range(s, e) => s >= e,
            ExecIters::List(l) => l.is_empty(),
        };
        if empty {
            return;
        }
        let bound = self.bind_loop(spec, gbl_bufs);
        match iters {
            ExecIters::Range(start, end) => bound.run_range(start, end),
            ExecIters::List(list) => bound.run_list(list),
        }
    }

    /// Exchange halos for `dats`, each to its required depth.
    ///
    /// `grouped = false` → Alg 1 style: one message per (dat, neighbour).
    /// `grouped = true` → Alg 2 style: a single message per neighbour
    /// carrying every dat's segments back-to-back (Figure 8).
    ///
    /// Both sides derive the identical wire layout from (plan order ×
    /// given dat order), so no headers are exchanged. Raises validity.
    pub fn exchange(&mut self, dats: &[(DatId, u8)], grouped: bool) -> ExchangeRec {
        let tag = self.next_tag();
        let mut rec = ExchangeRec::default();
        if dats.is_empty() {
            return rec;
        }
        let layout = self.layout;
        rec.n_neighbors = layout.neighbors.len();

        // --- Post sends (payloads staged in the per-peer buffer pool,
        // never freshly allocated once the pool is warm). ---
        for nbr in &layout.neighbors {
            if grouped {
                let cap: usize = dats
                    .iter()
                    .map(|&(dat, depth)| self.send_len(nbr, dat, depth))
                    .sum();
                if cap == 0 {
                    continue;
                }
                let mut payload = self.comm.take_buf(nbr.rank, cap);
                let t0 = Instant::now();
                for &(dat, depth) in dats {
                    self.pack_dat(nbr, dat, depth, &mut payload);
                }
                rec.pack_ns += t0.elapsed().as_nanos() as u64;
                rec.n_msgs += 1;
                let bytes = payload.len() * 8;
                rec.bytes += bytes;
                rec.max_msg_bytes = rec.max_msg_bytes.max(bytes);
                rec.packed_elems += payload.len();
                rec.nbr_bits |= 1u128 << nbr.rank.min(127);
                self.comm.isend(nbr.rank, tag, payload);
            } else {
                for &(dat, depth) in dats {
                    let cap = self.send_len(nbr, dat, depth);
                    if cap == 0 {
                        continue;
                    }
                    let mut payload = self.comm.take_buf(nbr.rank, cap);
                    let t0 = Instant::now();
                    self.pack_dat(nbr, dat, depth, &mut payload);
                    rec.pack_ns += t0.elapsed().as_nanos() as u64;
                    rec.n_msgs += 1;
                    let bytes = payload.len() * 8;
                    rec.bytes += bytes;
                    rec.max_msg_bytes = rec.max_msg_bytes.max(bytes);
                    rec.packed_elems += payload.len();
                    rec.nbr_bits |= 1u128 << nbr.rank.min(127);
                    self.comm.isend(nbr.rank, tag, payload);
                }
            }
        }
        rec
    }

    /// Outgoing f64 count for one (dat, neighbour) at `depth` — the
    /// exact capacity [`RankEnv::exchange`] borrows from the pool, so a
    /// pack never reallocates mid-copy.
    fn send_len(&self, nbr: &NeighborPlan, dat: DatId, depth: u8) -> usize {
        let d = self.dom.dat(dat);
        nbr.send
            .iter()
            .filter(|seg| seg.set == d.set && seg.level <= depth)
            .map(|seg| seg.elems.len() * d.dim)
            .sum()
    }

    /// Complete the exchange posted by [`RankEnv::exchange`] (the
    /// `MPI_Wait` of Algs 1–2): receive and unpack from every neighbour.
    ///
    /// Grouped messages complete in **arrival order** (`recv_any`):
    /// whichever neighbour's payload lands first is unpacked first, so
    /// the tail is one slowest neighbour, not the sum of in-order stalls.
    /// Receive segments of different neighbours are disjoint local
    /// ranges, so unpack order cannot change results. Wait/unpack wall
    /// time accumulates into `rec`; payload buffers return to the
    /// per-peer pool.
    ///
    /// Transport failures (timeout, hangup, corruption past the retry
    /// budget) surface as [`CommError`]; validity is only raised after
    /// *every* neighbour delivered, so a failed wait never leaves rings
    /// marked valid that were not actually filled.
    pub fn exchange_wait(
        &mut self,
        dats: &[(DatId, u8)],
        grouped: bool,
        rec: &mut ExchangeRec,
    ) -> Result<(), CommError> {
        if dats.is_empty() {
            return Ok(());
        }
        let tag = self.tag_seq;
        // Collect neighbor ranks first (borrow discipline).
        let nbr_ranks: Vec<u32> = self.layout.neighbors.iter().map(|n| n.rank).collect();
        if grouped {
            let mut pending: Vec<usize> = Vec::new();
            let mut peers: Vec<u32> = Vec::new();
            for (ni, &peer) in nbr_ranks.iter().enumerate() {
                if self.expected_len(ni, dats) > 0 {
                    pending.push(ni);
                    peers.push(peer);
                }
            }
            while !pending.is_empty() {
                let t0 = Instant::now();
                let (i, payload) = self.comm.recv_any(&peers, tag)?;
                rec.wait_ns += t0.elapsed().as_nanos() as u64;
                let ni = pending.remove(i);
                let peer = peers.remove(i);
                assert_eq!(
                    payload.len(),
                    self.expected_len(ni, dats),
                    "grouped message length mismatch"
                );
                let t1 = Instant::now();
                let mut off = 0;
                for &(dat, depth) in dats {
                    off = self.unpack_dat(ni, dat, depth, &payload, off);
                }
                debug_assert_eq!(off, payload.len());
                rec.unpack_ns += t1.elapsed().as_nanos() as u64;
                self.comm.recycle(peer, payload);
            }
        } else {
            for (ni, &peer) in nbr_ranks.iter().enumerate() {
                for &(dat, depth) in dats {
                    let expect = self.expected_len(ni, &[(dat, depth)]);
                    if expect == 0 {
                        continue;
                    }
                    let t0 = Instant::now();
                    let payload = self.comm.recv(peer, tag)?;
                    rec.wait_ns += t0.elapsed().as_nanos() as u64;
                    assert_eq!(payload.len(), expect, "per-dat message length mismatch");
                    let t1 = Instant::now();
                    let off = self.unpack_dat(ni, dat, depth, &payload, 0);
                    debug_assert_eq!(off, payload.len());
                    rec.unpack_ns += t1.elapsed().as_nanos() as u64;
                    self.comm.recycle(peer, payload);
                }
            }
        }
        for &(dat, depth) in dats {
            self.valid[dat.idx()] = self.valid[dat.idx()].max(depth);
            // Unpack mutated the import rings: the dat is dirty for
            // incremental checkpointing even if no loop touches it.
            self.ckpt.note_write(dat.idx());
        }
        Ok(())
    }

    /// Grouped (Alg 2 style) exchange driven by a cached [`ChainPlan`]:
    /// the executor-side fast path. Pack index lists and per-neighbour
    /// message sizes come straight from the plan — no per-call segment
    /// filtering — and the wire layout is identical to
    /// [`RankEnv::exchange`] with `grouped = true` over `plan.import`,
    /// so planned and unplanned ranks interoperate. Consumes no tag when
    /// the plan imports nothing, matching the unplanned path exactly.
    pub fn exchange_planned(&mut self, plan: &ChainPlan) -> ExchangeRec {
        let mut rec = ExchangeRec::default();
        if plan.import.is_empty() {
            return rec;
        }
        // Send_init: size the per-peer pool once per plan, so the takes
        // below never allocate in steady state.
        self.exch_bufs.warm(&mut self.comm, plan);
        let tag = self.next_tag();
        rec.n_neighbors = self.layout.neighbors.len();
        for pack in &plan.packs {
            if pack.send_f64s == 0 {
                continue;
            }
            let mut payload = self.comm.take_buf(pack.rank, pack.send_f64s);
            let t0 = Instant::now();
            if !self.threaded_pack(plan, pack, &mut payload) {
                for (di, &(dat, _)) in plan.import.iter().enumerate() {
                    let dim = self.dom.dat(dat).dim;
                    let buf = &self.dats[dat.idx()];
                    for &e in &pack.send[di] {
                        let e = e as usize;
                        payload.extend_from_slice(&buf[e * dim..(e + 1) * dim]);
                    }
                }
            }
            rec.pack_ns += t0.elapsed().as_nanos() as u64;
            debug_assert_eq!(payload.len(), pack.send_f64s);
            rec.n_msgs += 1;
            let bytes = payload.len() * 8;
            rec.bytes += bytes;
            rec.max_msg_bytes = rec.max_msg_bytes.max(bytes);
            rec.packed_elems += payload.len();
            rec.nbr_bits |= 1u128 << pack.rank.min(127);
            self.comm.isend(pack.rank, tag, payload);
        }
        rec
    }

    /// Pack one neighbour's grouped payload on the thread pool when the
    /// message is big enough to amortize the fork/join
    /// ([`PACK_THREAD_BYTES`]). The pack's flattened index entries are
    /// split into even contiguous spans, one per thread; every entry
    /// writes a disjoint `dim`-sized window of the payload, so the copy
    /// is race-free and the payload is byte-identical to the sequential
    /// pack. Returns false (caller packs sequentially) when threading is
    /// off or the message is small.
    fn threaded_pack(&mut self, plan: &ChainPlan, pack: &NeighborPack, payload: &mut Vec<f64>) -> bool {
        if !self.threads.opts.active() || pack.send_f64s * 8 < PACK_THREAD_BYTES {
            return false;
        }
        let pool = self.threads.pool();
        let n_tasks = pool.n_threads();
        if n_tasks <= 1 {
            return false;
        }
        payload.resize(pack.send_f64s, 0.0);
        let n_dats = plan.import.len();
        // Entry e = one element copy; entry_start maps dat → first entry.
        let mut entry_start = Vec::with_capacity(n_dats + 1);
        let mut f64_off = Vec::with_capacity(n_dats);
        let mut dims = Vec::with_capacity(n_dats);
        let mut srcs: Vec<PackPtr> = Vec::with_capacity(n_dats);
        let mut entries = 0usize;
        let mut off = 0usize;
        for (di, &(dat, _)) in plan.import.iter().enumerate() {
            let dim = self.dom.dat(dat).dim;
            entry_start.push(entries);
            f64_off.push(off);
            dims.push(dim);
            srcs.push(PackPtr(self.dats[dat.idx()].as_ptr() as *mut f64));
            entries += pack.send[di].len();
            off += pack.send[di].len() * dim;
        }
        entry_start.push(entries);
        debug_assert_eq!(off, pack.send_f64s);
        let dst = PackPtr(payload.as_mut_ptr());
        pool.run_spans(entries, &|lo, hi| {
            let mut di = entry_start.partition_point(|&s| s <= lo) - 1;
            for e in lo..hi {
                while entry_start[di + 1] <= e {
                    di += 1;
                }
                let j = e - entry_start[di];
                let dim = dims[di];
                let el = pack.send[di][j] as usize;
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        srcs[di].get().add(el * dim) as *const f64,
                        dst.get().add(f64_off[di] + j * dim),
                        dim,
                    );
                }
            }
        });
        true
    }

    /// Scatter one neighbour's grouped payload on the thread pool (the
    /// unpack mirror of [`RankEnv::threaded_pack`]): the payload is
    /// split into even f64 spans, one per thread, and each thread copies
    /// the intersection of its span with the plan's contiguous receive
    /// ranges. Destination ranges are disjoint, so the scatter is
    /// race-free and bitwise identical to the sequential unpack.
    fn threaded_unpack(&mut self, plan: &ChainPlan, pack: &NeighborPack, payload: &[f64]) -> bool {
        if !self.threads.opts.active() || pack.recv_f64s * 8 < PACK_THREAD_BYTES {
            return false;
        }
        let pool = self.threads.pool();
        let n_tasks = pool.n_threads();
        if n_tasks <= 1 {
            return false;
        }
        let n_dats = plan.import.len();
        let mut dims = Vec::with_capacity(n_dats);
        let mut bases: Vec<PackPtr> = Vec::with_capacity(n_dats);
        for &(dat, _) in plan.import.iter() {
            dims.push(self.dom.dat(dat).dim);
            bases.push(PackPtr(self.dats[dat.idx()].as_mut_ptr()));
        }
        let total = pack.recv_f64s;
        let src = PackPtr(payload.as_ptr() as *mut f64);
        pool.run_spans(total, &|lo, hi| {
            let mut off = 0usize;
            'outer: for di in 0..n_dats {
                let dim = dims[di];
                for &(start, len) in &pack.recv[di] {
                    let n = len as usize * dim;
                    let a = off.max(lo);
                    let b = (off + n).min(hi);
                    if a < b {
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                src.get().add(a) as *const f64,
                                bases[di].get().add(start as usize * dim + (a - off)),
                                b - a,
                            );
                        }
                    }
                    off += n;
                    if off >= hi {
                        break 'outer;
                    }
                }
            }
        });
        true
    }

    /// Complete a planned exchange: receive each neighbour's grouped
    /// message (size known from the plan) and scatter it through the
    /// plan's contiguous copy ranges. Completion is in **arrival
    /// order** — whichever neighbour's message lands first is unpacked
    /// first (receive ranges of different neighbours are disjoint, so
    /// order cannot change results). Wait/unpack wall time accumulates
    /// into `rec`; payload buffers return to the per-peer pool. Raises
    /// validity to each dat's planned import depth only after every
    /// neighbour delivered.
    pub fn exchange_wait_planned(
        &mut self,
        plan: &ChainPlan,
        rec: &mut ExchangeRec,
    ) -> Result<(), CommError> {
        if plan.import.is_empty() {
            return Ok(());
        }
        let tag = self.tag_seq;
        let mut pending: Vec<usize> = Vec::new();
        let mut peers: Vec<u32> = Vec::new();
        for (pi, pack) in plan.packs.iter().enumerate() {
            if pack.recv_f64s > 0 {
                pending.push(pi);
                peers.push(pack.rank);
            }
        }
        while !pending.is_empty() {
            let t0 = Instant::now();
            let (i, payload) = self.comm.recv_any(&peers, tag)?;
            rec.wait_ns += t0.elapsed().as_nanos() as u64;
            let pi = pending.remove(i);
            let peer = peers.remove(i);
            let pack = &plan.packs[pi];
            assert_eq!(
                payload.len(),
                pack.recv_f64s,
                "planned grouped message length mismatch"
            );
            let t1 = Instant::now();
            if !self.threaded_unpack(plan, pack, &payload) {
                let mut off = 0;
                for (di, &(dat, _)) in plan.import.iter().enumerate() {
                    let dim = self.dom.dat(dat).dim;
                    let buf = &mut self.dats[dat.idx()];
                    for &(start, len) in &pack.recv[di] {
                        let n = len as usize * dim;
                        let s = start as usize * dim;
                        buf[s..s + n].copy_from_slice(&payload[off..off + n]);
                        off += n;
                    }
                }
                debug_assert_eq!(off, payload.len());
            }
            rec.unpack_ns += t1.elapsed().as_nanos() as u64;
            self.comm.recycle(peer, payload);
        }
        for &(dat, depth) in &plan.import {
            self.valid[dat.idx()] = self.valid[dat.idx()].max(depth);
            self.ckpt.note_write(dat.idx());
        }
        Ok(())
    }

    /// Bytes-in-f64s this rank will receive from neighbour index `ni`
    /// for the given (dat, depth) list.
    fn expected_len(&self, ni: usize, dats: &[(DatId, u8)]) -> usize {
        let nbr = &self.layout.neighbors[ni];
        let mut len = 0usize;
        for &(dat, depth) in dats {
            let d = self.dom.dat(dat);
            for seg in &nbr.recv {
                if seg.set == d.set && seg.level <= depth {
                    len += seg.len as usize * d.dim;
                }
            }
        }
        len
    }

    /// Append one dat's outgoing segments for one neighbour to `payload`.
    fn pack_dat(
        &self,
        nbr: &op2_partition::layout::NeighborPlan,
        dat: DatId,
        depth: u8,
        payload: &mut Vec<f64>,
    ) {
        let d = self.dom.dat(dat);
        let buf = &self.dats[dat.idx()];
        for seg in &nbr.send {
            if seg.set == d.set && seg.level <= depth {
                for &e in &seg.elems {
                    let e = e as usize;
                    payload.extend_from_slice(&buf[e * d.dim..(e + 1) * d.dim]);
                }
            }
        }
    }

    /// Unpack one dat's incoming segments from neighbour index `ni`,
    /// starting at `off`; returns the new offset. Receive segments are
    /// contiguous local ranges — plain copies.
    fn unpack_dat(
        &mut self,
        ni: usize,
        dat: DatId,
        depth: u8,
        payload: &[f64],
        mut off: usize,
    ) -> usize {
        let d = self.dom.dat(dat);
        let dim = d.dim;
        let set = d.set;
        let nbr = &self.layout.neighbors[ni];
        let buf = &mut self.dats[dat.idx()];
        for seg in &nbr.recv {
            if seg.set == set && seg.level <= depth {
                let n = seg.len as usize * dim;
                let start = seg.start as usize * dim;
                buf[start..start + n].copy_from_slice(&payload[off..off + n]);
                off += n;
            }
        }
        off
    }

    /// Total bytes this rank will receive for a (dat, depth) list —
    /// the staged-in volume a GPU pipeline copies host→device.
    pub fn expected_recv_bytes(&self, dats: &[(DatId, u8)]) -> usize {
        (0..self.layout.neighbors.len())
            .map(|ni| self.expected_len(ni, dats) * std::mem::size_of::<f64>())
            .sum()
    }

    /// Local owned slice of a dat (post-run inspection in tests).
    pub fn owned_slice(&self, dat: DatId) -> &[f64] {
        let d = self.dom.dat(dat);
        let n = self.layout.sets[d.set.idx()].n_owned;
        &self.dats[dat.idx()][..n * d.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use op2_core::{AccessMode, Arg, Args, LoopSpec};
    use op2_mesh::Quad2D;
    use op2_partition::{build_layouts, derive_ownership, rcb_partition};

    fn noop(_: &Args<'_>) {}

    /// Pack → send → recv → unpack round-trips every ring value for a
    /// 2-rank split, checked against the global dat directly.
    #[test]
    fn exchange_roundtrip_restores_rings() {
        let mut mesh = Quad2D::generate(6, 6);
        let n = mesh.dom.set(mesh.nodes).size;
        let vals: Vec<f64> = (0..n * 2).map(|i| i as f64).collect();
        let _ = mesh.dom.decl_dat("v", mesh.nodes, 2, vals);
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 2);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 2);
        let layouts = build_layouts(&mesh.dom, &own, 2);

        let comms = CommWorld::new(2).into_ranks();
        let dom = &mesh.dom;
        let handles: Vec<_> = std::thread::scope(|scope| {
            comms
                .into_iter()
                .zip(layouts.iter())
                .map(|(comm, layout)| {
                    scope.spawn(move || {
                        let mut env = RankEnv::new(layout, dom, comm);
                        // Corrupt every import ring, then exchange to
                        // depth 2 and verify restoration against the
                        // global truth.
                        let dat = dom.dat_by_name("v").unwrap();
                        let set_layout = &layout.sets[dom.dat(dat).set.idx()];
                        let n_owned = set_layout.n_owned;
                        for x in &mut env.dats[dat.idx()][n_owned * 2..] {
                            *x = -1.0;
                        }
                        env.valid[dat.idx()] = 0;
                        let spec = [(dat, 2u8)];
                        let mut rec = env.exchange(&spec, true);
                        env.exchange_wait(&spec, true, &mut rec).unwrap();
                        assert_eq!(env.valid[dat.idx()], 2);
                        // Every local copy must now equal the owner's
                        // global values.
                        for (l, &g) in set_layout.locals.iter().enumerate() {
                            for c in 0..2 {
                                assert_eq!(
                                    env.dats[dat.idx()][l * 2 + c],
                                    dom.dat(dat).data[g as usize * 2 + c],
                                    "rank {} local {l}",
                                    layout.rank
                                );
                            }
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join())
                .collect()
        });
        for h in handles {
            h.expect("rank ok");
        }
    }

    /// Empty exchange lists are free: no messages, no validity change.
    #[test]
    fn empty_exchange_is_noop() {
        let mut mesh = Quad2D::generate(4, 4);
        let d = mesh.dom.decl_dat_zeros("v", mesh.nodes, 1);
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 2);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 2);
        let layouts = build_layouts(&mesh.dom, &own, 1);
        let comms = CommWorld::new(2).into_ranks();
        let dom = &mesh.dom;
        std::thread::scope(|scope| {
            for (comm, layout) in comms.into_iter().zip(layouts.iter()) {
                scope.spawn(move || {
                    let mut env = RankEnv::new(layout, dom, comm);
                    env.valid[d.idx()] = 0;
                    let mut rec = env.exchange(&[], true);
                    env.exchange_wait(&[], true, &mut rec).unwrap();
                    assert_eq!(rec.n_msgs, 0);
                    assert_eq!(env.valid[d.idx()], 0);
                    assert_eq!(env.comm.sent_msgs, 0);
                });
            }
        });
    }

    /// exec_range over an empty range calls nothing.
    #[test]
    fn empty_range_is_noop() {
        let mut mesh = Quad2D::generate(3, 3);
        let d = mesh.dom.decl_dat_zeros("v", mesh.nodes, 1);
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 1);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 1);
        let layouts = build_layouts(&mesh.dom, &own, 1);
        let comm = CommWorld::new(1).into_ranks().remove(0);
        let mut env = RankEnv::new(&layouts[0], &mesh.dom, comm);
        let spec = LoopSpec::new(
            "noop",
            mesh.nodes,
            vec![Arg::dat_direct(d, AccessMode::Rw)],
            noop,
        );
        env.exec_range(&spec, 5, 5, &mut []);
        env.exec_indexed(&spec, &[], &mut []);
    }

    /// `OP2_FUSE` knob grammar: on/off/auto (case-insensitive, with the
    /// usual boolean spellings), unset defaults to Off, anything else is
    /// a typed [`ConfigError::Fuse`].
    #[test]
    fn fuse_mode_knob_grammar() {
        use crate::error::ConfigError;

        assert_eq!(FuseMode::parse(None).unwrap(), FuseMode::Off);
        for v in ["on", "1", "true", "ON", "True"] {
            assert_eq!(FuseMode::parse(Some(v)).unwrap(), FuseMode::On, "{v}");
        }
        for v in ["off", "0", "false", "OFF"] {
            assert_eq!(FuseMode::parse(Some(v)).unwrap(), FuseMode::Off, "{v}");
        }
        for v in ["auto", "AUTO", "Auto"] {
            assert_eq!(FuseMode::parse(Some(v)).unwrap(), FuseMode::Auto, "{v}");
        }

        let err = FuseMode::parse(Some("maybe")).unwrap_err();
        assert!(matches!(&err, ConfigError::Fuse { value } if value == "maybe"));
        let msg = err.to_string();
        assert!(msg.contains("OP2_FUSE") && msg.contains("maybe"), "{msg}");
    }

    /// `OP2_EXEC` knob grammar: levels/dataflow/auto (case-insensitive),
    /// unset defaults to Levels, anything else is a typed
    /// [`ConfigError::Exec`].
    #[test]
    fn exec_mode_knob_grammar() {
        use crate::error::ConfigError;

        assert_eq!(ExecMode::parse(None).unwrap(), ExecMode::Levels);
        for v in ["levels", "LEVELS", "Levels"] {
            assert_eq!(ExecMode::parse(Some(v)).unwrap(), ExecMode::Levels, "{v}");
        }
        for v in ["dataflow", "DATAFLOW", "DataFlow"] {
            assert_eq!(ExecMode::parse(Some(v)).unwrap(), ExecMode::Dataflow, "{v}");
        }
        for v in ["auto", "AUTO"] {
            assert_eq!(ExecMode::parse(Some(v)).unwrap(), ExecMode::Auto, "{v}");
        }

        let err = ExecMode::parse(Some("async")).unwrap_err();
        assert!(matches!(&err, ConfigError::Exec { value } if value == "async"));
        let msg = err.to_string();
        assert!(msg.contains("OP2_EXEC") && msg.contains("async"), "{msg}");
    }

    /// `OP2_THREAD_PIN` knob grammar: the boolean spellings
    /// (case-insensitive), unset defaults to off, anything else is a
    /// typed [`ConfigError::ThreadPin`].
    #[test]
    fn thread_pin_knob_grammar() {
        use crate::error::ConfigError;

        assert!(!parse_thread_pin(None).unwrap());
        for v in ["1", "true", "on", "TRUE", "On"] {
            assert!(parse_thread_pin(Some(v)).unwrap(), "{v}");
        }
        for v in ["0", "false", "off", "FALSE", "Off"] {
            assert!(!parse_thread_pin(Some(v)).unwrap(), "{v}");
        }

        let err = parse_thread_pin(Some("yes-please")).unwrap_err();
        assert!(matches!(&err, ConfigError::ThreadPin { value } if value == "yes-please"));
        let msg = err.to_string();
        assert!(msg.contains("OP2_THREAD_PIN") && msg.contains("yes-please"), "{msg}");
    }
}
