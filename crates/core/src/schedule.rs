//! The unified `Schedule` execution IR.
//!
//! Every way this crate runs a loop or a loop-chain — a plain sequential
//! range, a colored-blocked or owner-compute threaded loop, a
//! sparse-tiled chain — is the same thing at heart: an ordered list of
//! *levels* separated by synchronization barriers, each level holding
//! iteration *chunks* that are conflict-free against one another. This
//! module makes that shape a first-class value:
//!
//! * [`Piece`] — a contiguous iteration range or an explicit index list
//!   of one loop of the chain (optionally with per-iteration write masks,
//!   [`Piece::Masked`]);
//! * [`Chunk`] — an ordered list of pieces executed sequentially by one
//!   worker (a colored block; a thread's owner-compute share; a tile's
//!   slice of every loop);
//! * [`Schedule`] — levels of chunks. Chunks within a level may run
//!   concurrently; levels execute in order with a barrier between them.
//!
//! Lowerings build schedules from each scheduling strategy
//! ([`Schedule::range`], [`Schedule::from_coloring`],
//! [`Schedule::from_block_coloring`], [`Schedule::from_tile_plan`],
//! [`crate::owner::owner_schedule`]), and a single pair of executors
//! runs them: [`run_schedule`] (sequential, one thread, level and chunk
//! order) and [`run_schedule_threads`] (scoped OS threads per level —
//! the reference threaded executor; the runtime crate's pool executes
//! the same schedules per rank).
//!
//! **Determinism contract.** When the lowering guarantees that (a)
//! same-level chunks touch disjoint modified elements and (b) every
//! conflicting chunk pair is ordered by level in ascending iteration
//! order — as the levelized block coloring and the leveled tile plan do,
//! and the owner-compute lowering does trivially by giving every
//! modified element a single writer chunk that runs its updates in
//! ascending order — the per-element update sequence under any thread
//! count equals the sequential one, so results are **bitwise identical**
//! to [`crate::seq::run_loop`] / the sequential tiled walk.
//!
//! [`BoundLoop`] is the one argument-resolution and kernel-invocation
//! path shared by every executor: base pointers resolved once per loop,
//! value-based slot access per iteration. The distributed runtime binds
//! its rank-local buffers through [`BoundLoop::from_parts`] and reuses
//! the same chunk walker, so there is exactly one execution loop in the
//! codebase regardless of back-end.

use crate::access::{AccessMode, Arg};
use crate::coloring::Coloring;
use crate::domain::Domain;
use crate::kernel::{Args, ArgSlot, KernelFn};
use crate::loops::LoopSpec;
use crate::par::BlockColoring;
use crate::tiling::TilePlan;

/// One contiguous or listed slice of one loop's iteration space, or a
/// fused slice interleaving every loop of one fusion group per element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piece {
    /// Iterations `[start, end)` of chain loop `loop_idx`.
    Range {
        loop_idx: u32,
        start: u32,
        end: u32,
    },
    /// An explicit ascending iteration list of chain loop `loop_idx`.
    List { loop_idx: u32, iters: Vec<u32> },
    /// Iterations `[start, end)` running *every* loop of fusion group
    /// `group` (see [`Schedule::fused`]) back to back per element:
    /// `L_a(e); L_b(e); …` — intermediates stay register/scratch-resident
    /// instead of round-tripping through the dat between loops.
    Fused { group: u32, start: u32, end: u32 },
    /// The list form of [`Piece::Fused`].
    FusedList { group: u32, iters: Vec<u32> },
    /// Seam iterations of an owner-compute chunk (see [`crate::owner`]),
    /// ascending: `iters[k]` runs with argument mask `masks[k]`. Bit `a`
    /// set writes argument `a` through to its dat; clear redirects a
    /// modifying argument to a per-worker sink slot. An all-zero mask
    /// skips the iteration.
    Masked {
        loop_idx: u32,
        iters: Vec<u32>,
        masks: Vec<u64>,
    },
}

impl Piece {
    /// Number of elements the piece covers (fused pieces count each
    /// element once even though every group loop runs on it).
    pub fn len(&self) -> usize {
        match self {
            Piece::Range { start, end, .. } | Piece::Fused { start, end, .. } => {
                (*end as usize).saturating_sub(*start as usize)
            }
            Piece::List { iters, .. }
            | Piece::FusedList { iters, .. }
            | Piece::Masked { iters, .. } => iters.len(),
        }
    }

    /// Whether the piece covers no iterations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which single chain loop the piece belongs to (`None` for fused
    /// pieces, which belong to every loop of their group).
    pub fn loop_idx(&self) -> Option<usize> {
        match self {
            Piece::Range { loop_idx, .. }
            | Piece::List { loop_idx, .. }
            | Piece::Masked { loop_idx, .. } => Some(*loop_idx as usize),
            Piece::Fused { .. } | Piece::FusedList { .. } => None,
        }
    }

    /// Which fusion group a fused piece executes (`None` for plain
    /// single-loop pieces).
    pub fn group_idx(&self) -> Option<usize> {
        match self {
            Piece::Fused { group, .. } | Piece::FusedList { group, .. } => Some(*group as usize),
            Piece::Range { .. } | Piece::List { .. } | Piece::Masked { .. } => None,
        }
    }
}

/// The unit of work one worker executes without interruption: pieces in
/// order (for tiles, the tile's slice of `L_0`, then of `L_1`, …).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Chunk {
    pub pieces: Vec<Piece>,
}

impl Chunk {
    /// Total iterations across all pieces.
    pub fn iters(&self) -> usize {
        self.pieces.iter().map(Piece::len).sum()
    }
}

/// One barrier-delimited group of mutually conflict-free chunks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Level {
    pub chunks: Vec<Chunk>,
}

/// Which lowering produced a schedule — carried for tracing/diagnostics,
/// never consulted by the executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// A plain range or index list: one level, one chunk.
    Direct,
    /// Lowered from a (block) coloring: level per color.
    Colored { block_size: usize },
    /// Lowered from a leveled tile plan: level per tile-conflict level.
    Tiled { n_tiles: usize },
    /// Lowered by the owner-compute inspector ([`crate::owner`]): one
    /// level, one chunk per thread; `redundant_iters` counts iteration
    /// executions beyond one per iteration (the seam).
    Owner { redundant_iters: usize },
}

/// One elided (scratch-resident) intermediate of a fusion group: inside
/// fused pieces the bound arguments listed in `binds` are repointed at a
/// fixed per-worker scratch slot instead of the dat's memory, so the
/// produce→consume round-trip through the dat never happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScratchBind {
    /// Components per element of the elided dat.
    pub dim: u32,
    /// `f64` offset of this dat's slot in the worker scratch pool.
    pub offset: u32,
    /// Group-member position of the producing (direct-Write) loop.
    pub producer: u32,
    /// `(group-member position, arg index)` pairs to repoint at the
    /// scratch slot — the producer's write args and every consumer's
    /// read args.
    pub binds: Vec<(u32, u32)>,
}

impl ScratchBind {
    /// Group-member positions that consume (read) the scratch slot.
    pub fn consumers(&self) -> impl Iterator<Item = u32> + '_ {
        let p = self.producer;
        self.binds
            .iter()
            .map(|&(m, _)| m)
            .filter(move |&m| m != p)
    }
}

/// Metadata for one fused group of a schedule: which chain loops a
/// [`Piece::Fused`] interleaves, and which intermediates it elides into
/// the per-worker scratch pool.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FusedGroup {
    /// Chain-loop indices executed per element, in program order.
    pub loops: Vec<u32>,
    /// Elided intermediates (empty = fuse without elision: every dat is
    /// still written through to memory).
    pub scratch: Vec<ScratchBind>,
}

/// An executable schedule over an `n_loops`-long chain (1 for a single
/// loop). See the module docs for the level/chunk semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Number of chain loops the pieces index into.
    pub n_loops: usize,
    /// Provenance tag for traces.
    pub kind: ScheduleKind,
    /// Barrier-ordered levels.
    pub levels: Vec<Level>,
    /// Fusion groups referenced by [`Piece::Fused`] / [`Piece::FusedList`]
    /// (empty for unfused schedules).
    pub fused: Vec<FusedGroup>,
}

impl Schedule {
    /// A single loop over `[start, end)`: one level, one chunk.
    pub fn range(start: usize, end: usize) -> Schedule {
        Schedule {
            n_loops: 1,
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![Chunk {
                    pieces: vec![Piece::Range {
                        loop_idx: 0,
                        start: start as u32,
                        end: end.max(start) as u32,
                    }],
                }],
            }],
            fused: Vec::new(),
        }
    }

    /// A single loop over an explicit iteration list: one level, one
    /// chunk.
    pub fn list(iters: Vec<u32>) -> Schedule {
        Schedule {
            n_loops: 1,
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![Chunk {
                    pieces: vec![Piece::List {
                        loop_idx: 0,
                        iters,
                    }],
                }],
            }],
            fused: Vec::new(),
        }
    }

    /// Lower a greedy per-iteration [`Coloring`]: one level per color,
    /// each color's iterations split into list chunks of at most
    /// `chunk_size`. Greedy colorings reorder conflicting iterations
    /// across colors, so this lowering is race-free but **not** bitwise
    /// order-preserving (see [`Schedule::from_block_coloring`] for the
    /// lowering that is).
    pub fn from_coloring(coloring: &Coloring, chunk_size: usize) -> Schedule {
        let chunk_size = chunk_size.max(1);
        let levels = coloring
            .by_color
            .iter()
            .map(|bucket| Level {
                chunks: bucket
                    .chunks(chunk_size)
                    .map(|piece| Chunk {
                        pieces: vec![Piece::List {
                            loop_idx: 0,
                            iters: piece.to_vec(),
                        }],
                    })
                    .collect(),
            })
            .collect();
        Schedule {
            n_loops: 1,
            kind: ScheduleKind::Colored { block_size: 1 },
            levels,
            fused: Vec::new(),
        }
    }

    /// Lower a levelized order-preserving [`BlockColoring`]: one level
    /// per color, one chunk per block (a single range piece). Inherits
    /// the coloring's bitwise-identity contract.
    pub fn from_block_coloring(bc: &BlockColoring) -> Schedule {
        let levels = bc
            .by_color
            .iter()
            .map(|bucket| Level {
                chunks: bucket
                    .iter()
                    .map(|&b| {
                        let (s, e) = bc.block_range(b as usize);
                        Chunk {
                            pieces: vec![Piece::Range {
                                loop_idx: 0,
                                start: s as u32,
                                end: e as u32,
                            }],
                        }
                    })
                    .collect(),
            })
            .collect();
        Schedule {
            n_loops: 1,
            kind: ScheduleKind::Colored {
                block_size: bc.block_size,
            },
            levels,
            fused: Vec::new(),
        }
    }

    /// Lower a leveled [`TilePlan`] over an `n_loops`-long chain: one
    /// level per tile-conflict level, one chunk per tile holding the
    /// tile's slice of every loop in program order (empty slices are
    /// skipped). Within a level, tile ids ascend; conflicting tiles sit
    /// on strictly ascending levels in tile order, so level-order
    /// execution is bitwise identical to the ascending-tile sequential
    /// walk.
    pub fn from_tile_plan(plan: &TilePlan) -> Schedule {
        let n_loops = plan.iters.len();
        let levels = plan
            .by_level
            .iter()
            .map(|tiles| Level {
                chunks: tiles.iter().map(|&t| Self::tile_chunk(plan, t)).collect(),
            })
            .collect();
        Schedule {
            n_loops,
            kind: ScheduleKind::Tiled {
                n_tiles: plan.n_tiles,
            },
            levels,
            fused: Vec::new(),
        }
    }

    /// Lower only the tiles with `keep[t] == true` from a leveled
    /// [`TilePlan`], preserving the plan's level structure (levels left
    /// with no kept tiles are dropped). Used by the overlap executor to
    /// split one plan into a core schedule (runs while the exchange is
    /// in flight) and a post schedule (runs after the wait); level order
    /// within each half is exactly the full plan's, so running one half
    /// and then the other replays the full plan whenever the split
    /// itself is order-safe (see `tiling::overlap_core_tiles`).
    pub fn from_tile_plan_subset(plan: &TilePlan, keep: &[bool]) -> Schedule {
        let n_loops = plan.iters.len();
        let levels: Vec<Level> = plan
            .by_level
            .iter()
            .map(|tiles| Level {
                chunks: tiles
                    .iter()
                    .filter(|&&t| keep[t as usize])
                    .map(|&t| Self::tile_chunk(plan, t))
                    .collect(),
            })
            .filter(|l| !l.chunks.is_empty())
            .collect();
        Schedule {
            n_loops,
            kind: ScheduleKind::Tiled {
                n_tiles: plan.n_tiles,
            },
            levels,
            fused: Vec::new(),
        }
    }

    /// One tile as an executable chunk: its slice of every loop in
    /// program order, empty slices skipped.
    fn tile_chunk(plan: &TilePlan, t: u32) -> Chunk {
        Chunk {
            pieces: (0..plan.iters.len())
                .filter(|&j| !plan.iters[j][t as usize].is_empty())
                .map(|j| Piece::List {
                    loop_idx: j as u32,
                    iters: plan.iters[j][t as usize].clone(),
                })
                .collect(),
        }
    }

    /// Number of barrier-delimited levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total chunk count across all levels.
    pub fn n_chunks(&self) -> usize {
        self.levels.iter().map(|l| l.chunks.len()).sum()
    }

    /// Widest level (the available parallelism).
    pub fn max_level_chunks(&self) -> usize {
        self.levels.iter().map(|l| l.chunks.len()).max().unwrap_or(0)
    }

    /// Total iterations scheduled for chain loop `loop_idx` (fused
    /// pieces count for every member loop they interleave).
    pub fn loop_iters(&self, loop_idx: usize) -> usize {
        self.levels
            .iter()
            .flat_map(|l| &l.chunks)
            .flat_map(|c| &c.pieces)
            .filter(|p| match p.loop_idx() {
                Some(j) => j == loop_idx,
                None => self.fused[p.group_idx().expect("fused piece")]
                    .loops
                    .contains(&(loop_idx as u32)),
            })
            .map(Piece::len)
            .sum()
    }

    /// Whether running the schedule on threads can use more than one
    /// worker at a time.
    pub fn has_parallelism(&self) -> bool {
        self.max_level_chunks() > 1
    }

    /// Total fused pieces across all levels.
    pub fn n_fused_pieces(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|l| &l.chunks)
            .flat_map(|c| &c.pieces)
            .filter(|p| p.group_idx().is_some())
            .count()
    }

    /// Length (in `f64`s) of the per-worker scratch pool the fused
    /// groups' elided intermediates require.
    pub fn scratch_pool_len(&self) -> usize {
        self.fused
            .iter()
            .flat_map(|g| &g.scratch)
            .map(|s| (s.offset + s.dim) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Fusion post-pass: within every chunk, replace each window of
    /// adjacent pieces that covers *all* loops of one fusion group — in
    /// member order, with identical element coverage — by a single
    /// [`Piece::Fused`] / [`Piece::FusedList`]. Applies unchanged to any
    /// lowering (range, coloring, tiling); windows that don't line up
    /// (e.g. a tile whose per-loop slices differ) are left unfused, which
    /// stays correct because fused pieces preserve the per-location
    /// update order of the unfused walk.
    ///
    /// `group_of[j]` names loop `j`'s fusion group, if any.
    pub fn fuse(mut self, groups: Vec<FusedGroup>, group_of: &[Option<usize>]) -> Schedule {
        debug_assert_eq!(group_of.len(), self.n_loops);
        for level in &mut self.levels {
            for chunk in &mut level.chunks {
                chunk.pieces = fuse_pieces(std::mem::take(&mut chunk.pieces), &groups, group_of);
            }
        }
        self.fused = groups;
        self
    }

    /// Direct (single-chunk) lowering of a whole chain with fusion: for
    /// each fusion group one fused range over the members' common prefix
    /// `[0, min end)` followed by per-member tail ranges (members whose
    /// extent-driven end exceeds the common prefix), in member order;
    /// unfused loops as plain ranges. One level, one chunk — the
    /// sequential reference shape of a fused chain.
    pub fn chain_ranges_fused(
        ends: &[usize],
        groups: Vec<FusedGroup>,
        group_of: &[Option<usize>],
    ) -> Schedule {
        let mut pieces = Vec::new();
        let mut j = 0usize;
        while j < ends.len() {
            match group_of[j] {
                Some(g) if groups[g].loops.first() == Some(&(j as u32)) => {
                    let members = &groups[g].loops;
                    let common = members
                        .iter()
                        .map(|&m| ends[m as usize])
                        .min()
                        .unwrap_or(0);
                    pieces.push(Piece::Fused {
                        group: g as u32,
                        start: 0,
                        end: common as u32,
                    });
                    for &m in members {
                        if ends[m as usize] > common {
                            pieces.push(Piece::Range {
                                loop_idx: m,
                                start: common as u32,
                                end: ends[m as usize] as u32,
                            });
                        }
                    }
                    j += members.len();
                }
                _ => {
                    pieces.push(Piece::Range {
                        loop_idx: j as u32,
                        start: 0,
                        end: ends[j] as u32,
                    });
                    j += 1;
                }
            }
        }
        Schedule {
            n_loops: ends.len(),
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![Chunk { pieces }],
            }],
            fused: groups,
        }
    }
}

/// The chunk-local fusion window matcher behind [`Schedule::fuse`].
fn fuse_pieces(
    pieces: Vec<Piece>,
    groups: &[FusedGroup],
    group_of: &[Option<usize>],
) -> Vec<Piece> {
    let mut out = Vec::with_capacity(pieces.len());
    let mut i = 0usize;
    'outer: while i < pieces.len() {
        if let Some(j) = pieces[i].loop_idx() {
            if let Some(g) = group_of.get(j).copied().flatten() {
                let members = &groups[g].loops;
                // The window must start at the group's first member and
                // cover every member with identical coverage.
                if members.first() == Some(&(j as u32)) && i + members.len() <= pieces.len() {
                    let window = &pieces[i..i + members.len()];
                    let aligned = window.iter().zip(members.iter()).all(|(p, &m)| {
                        p.loop_idx() == Some(m as usize) && same_coverage(&window[0], p)
                    });
                    if aligned {
                        out.push(match &window[0] {
                            Piece::Range { start, end, .. } => Piece::Fused {
                                group: g as u32,
                                start: *start,
                                end: *end,
                            },
                            Piece::List { iters, .. } => Piece::FusedList {
                                group: g as u32,
                                iters: iters.clone(),
                            },
                            _ => unreachable!("window starts at a plain piece"),
                        });
                        i += members.len();
                        continue 'outer;
                    }
                }
            }
        }
        out.push(pieces[i].clone());
        i += 1;
    }
    out
}

/// Identical element coverage between two plain pieces.
fn same_coverage(a: &Piece, b: &Piece) -> bool {
    match (a, b) {
        (
            Piece::Range { start: s1, end: e1, .. },
            Piece::Range { start: s2, end: e2, .. },
        ) => s1 == s2 && e1 == e2,
        (Piece::List { iters: i1, .. }, Piece::List { iters: i2, .. }) => i1 == i2,
        _ => false,
    }
}

/// Whether the schedules keep every *consumer* access of each elided
/// intermediate inside a fused piece of its group — the structural
/// precondition for scratch elision. A standalone (unfused) piece of a
/// consumer loop would read the scratch slot without its producer having
/// filled it for that element, so elision must be dropped (write-through)
/// whenever any lowering leaves one behind. Standalone *producer* pieces
/// (extent tails) are harmless: their scratch writes are dead by the
/// chain-local-intermediate contract.
pub fn elision_valid(scheds: &[&Schedule], groups: &[FusedGroup], group_of: &[Option<usize>]) -> bool {
    // Loops that consume some scratch slot of their group.
    let mut consumer_loops: Vec<usize> = Vec::new();
    for g in groups {
        for s in &g.scratch {
            for m in s.consumers() {
                let j = g.loops[m as usize] as usize;
                if !consumer_loops.contains(&j) {
                    consumer_loops.push(j);
                }
            }
        }
    }
    if consumer_loops.is_empty() {
        return true;
    }
    for sched in scheds {
        for piece in sched
            .levels
            .iter()
            .flat_map(|l| &l.chunks)
            .flat_map(|c| &c.pieces)
        {
            if let Some(j) = piece.loop_idx() {
                if !piece.is_empty() && consumer_loops.contains(&j) && group_of[j].is_some() {
                    return false;
                }
            }
        }
    }
    true
}

/// One resolved kernel argument: base pointer, element stride, access
/// mode, and how iteration index maps to element index.
#[derive(Debug, Clone, Copy)]
pub struct BoundArg {
    /// Base of the dat / gbl buffer.
    pub base: *mut f64,
    /// Components per element (gbl: buffer length).
    pub dim: u32,
    pub mode: AccessMode,
    /// `Some((map base, arity, idx))` for indirect args.
    pub map: Option<(*const u32, usize, usize)>,
    /// Direct args index by iteration; gbl args by zero.
    pub direct: bool,
}

/// A loop with every argument resolved to raw pointers — the single
/// kernel-invocation path all executors share.
///
/// # Safety contract
/// The pointers must reference buffers that outlive the `BoundLoop` and
/// are not reallocated while it is used. Concurrent execution is sound
/// only under a schedule whose same-level chunks modify disjoint
/// elements; all data access is value-based through [`Args`], so no
/// references are formed.
pub struct BoundLoop {
    pub kernel: KernelFn,
    pub args: Vec<BoundArg>,
}

// SAFETY: see the struct-level contract — callers only share a BoundLoop
// across threads under a conflict-free-by-construction schedule.
unsafe impl Sync for BoundLoop {}
unsafe impl Send for BoundLoop {}

impl BoundLoop {
    /// Resolve `spec` against a global domain. `gbl_bufs` (one buffer
    /// per [`crate::access::GblDecl`], preallocated by the caller) backs
    /// the loop's global arguments; it must not be moved or resized
    /// while the returned `BoundLoop` is live.
    pub fn bind(dom: &mut Domain, spec: &LoopSpec, gbl_bufs: &mut [Vec<f64>]) -> BoundLoop {
        let mut args = Vec::with_capacity(spec.args.len());
        for arg in &spec.args {
            match arg {
                Arg::Dat { dat, map, mode } => {
                    let dim = dom.dat(*dat).dim as u32;
                    let base = dom.dat_mut(*dat).data.as_mut_ptr();
                    let map_info = map.map(|(m, idx)| {
                        let md = dom.map(m);
                        (md.values.as_ptr(), md.arity, idx as usize)
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
        BoundLoop {
            kernel: spec.kernel,
            args,
        }
    }

    /// Assemble from already-resolved parts — the distributed runtime
    /// resolves against its rank-local dat buffers and localized maps.
    pub fn from_parts(kernel: KernelFn, args: Vec<BoundArg>) -> BoundLoop {
        BoundLoop { kernel, args }
    }

    /// Fresh slot buffer for one worker.
    pub fn slots(&self) -> Vec<ArgSlot> {
        slots_for(&self.args)
    }

    /// Run one iteration: point every slot at its element, call the
    /// kernel.
    #[inline]
    pub fn run_iter(&self, slots: &mut [ArgSlot], e: usize) {
        run_elem(self.kernel, &self.args, slots, e);
    }

    /// Run iterations `[start, end)` on the calling thread.
    pub fn run_range(&self, start: usize, end: usize) {
        let mut slots = self.slots();
        for e in start..end {
            run_elem(self.kernel, &self.args, &mut slots, e);
        }
    }

    /// Run an explicit iteration list on the calling thread.
    pub fn run_list(&self, iters: &[u32]) {
        let mut slots = self.slots();
        for &e in iters {
            run_elem(self.kernel, &self.args, &mut slots, e as usize);
        }
    }
}

/// Materialize a fresh slot buffer from resolved args — the single
/// slot-materialization point every execution path shares (plain range,
/// list, fused pieces, and the reusable [`SchedCtx`] buffers).
pub fn slots_for(args: &[BoundArg]) -> Vec<ArgSlot> {
    args.iter()
        .map(|r| ArgSlot {
            ptr: r.base,
            dim: r.dim,
            mode: r.mode,
        })
        .collect()
}

/// Data pointer of bound argument `r` at iteration `e`. The only place
/// iteration indices are resolved to data pointers.
#[inline]
fn elem_ptr(r: &BoundArg, e: usize) -> *mut f64 {
    let elem = match (&r.map, r.direct) {
        (Some((mbase, arity, idx)), _) => {
            // SAFETY: map values validated at declaration; the
            // schedule only covers iterations whose entries are
            // within the built halo depth.
            let v = unsafe { *mbase.add(e * arity + idx) };
            debug_assert_ne!(v, u32::MAX, "map entry beyond built halo depth dereferenced");
            v as usize
        }
        (None, true) => e,
        (None, false) => 0, // gbl / scratch slot
    };
    // SAFETY: in-bounds per dat declaration; concurrent writers
    // are excluded by the schedule's conflict-freedom.
    unsafe { r.base.add(elem * r.dim as usize) }
}

/// One kernel invocation at element `e`: point every slot at its
/// element per the bound args, call the kernel.
#[inline]
pub fn run_elem(kernel: KernelFn, args: &[BoundArg], slots: &mut [ArgSlot], e: usize) {
    for (slot, r) in slots.iter_mut().zip(args.iter()) {
        slot.ptr = elem_ptr(r, e);
    }
    (kernel)(&Args::new(slots));
}

/// [`run_elem`] under an owner-compute mask ([`Piece::Masked`]): every
/// modifying argument whose bit in `mask` is clear points at `sink` (a
/// per-worker slot at least as long as the widest argument) instead of
/// its element. Sound because masked arguments are `Inc`, which kernels
/// never read: the kernel's unmasked writes are the same values
/// sequential execution produces. An all-zero mask skips the iteration.
#[inline]
fn run_elem_masked(
    kernel: KernelFn,
    args: &[BoundArg],
    slots: &mut [ArgSlot],
    e: usize,
    mask: u64,
    sink: *mut f64,
) {
    if mask == 0 {
        return;
    }
    for (a, (slot, r)) in slots.iter_mut().zip(args.iter()).enumerate() {
        slot.ptr = if r.mode.modifies() && (mask >> a) & 1 == 0 {
            sink
        } else {
            elem_ptr(r, e)
        };
    }
    (kernel)(&Args::new(slots));
}

/// Reusable per-worker execution state: one slot buffer per chain loop,
/// the scratch pool backing elided intermediates, and per-loop bound-arg
/// overrides that point scratch-bound arguments into that pool. Prepared
/// once per schedule execution and reused across invocations — at steady
/// state (same chain, same shapes) [`SchedCtx::prepare`] performs **zero
/// heap allocations** (the `*_into` reuse pattern); [`SchedCtx::allocs`]
/// counts the growths that did happen.
#[derive(Default)]
pub struct SchedCtx {
    /// Per chain loop: reusable slot buffer.
    slots: Vec<Vec<ArgSlot>>,
    /// Scratch pool backing elided per-element intermediates.
    pool: Vec<f64>,
    /// Per chain loop: bound args with scratch rebinds applied (empty =
    /// the loop has no elided args; use the `BoundLoop`'s own).
    overrides: Vec<Vec<BoundArg>>,
    /// Sink slot masked-off owner-compute writes land in
    /// ([`Piece::Masked`]); as long as the widest modifying argument.
    sink: Vec<f64>,
    /// Heap (re)allocations performed by `prepare` so far.
    allocs: u64,
}

// SAFETY: the raw pointers inside `overrides` reference either the
// caller's bound buffers (same contract as `BoundLoop`) or this ctx's
// own `pool`; a ctx is only ever used by one worker at a time.
unsafe impl Send for SchedCtx {}

impl SchedCtx {
    /// An empty context; buffers grow on first `prepare`.
    pub fn new() -> SchedCtx {
        SchedCtx::default()
    }

    /// Heap allocations `prepare` has performed over this ctx's lifetime
    /// — constant once warm.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Size the context for `sched` over `bound`, rebuilding the scratch
    /// pool and the per-loop arg overrides. Buffer capacities are kept
    /// across calls, so repeat preparations for same-shaped schedules
    /// allocate nothing.
    pub fn prepare(&mut self, bound: &[BoundLoop], sched: &Schedule) {
        let track = |allocs: &mut u64, grew: bool| {
            if grew {
                *allocs += 1;
            }
        };

        // Per-loop slot buffers.
        let cap0 = self.slots.capacity();
        self.slots.resize_with(bound.len(), Vec::new);
        self.slots.truncate(bound.len());
        track(&mut self.allocs, self.slots.capacity() != cap0);
        for (buf, bl) in self.slots.iter_mut().zip(bound.iter()) {
            let cap = buf.capacity();
            buf.clear();
            buf.extend(slots_for(&bl.args));
            track(&mut self.allocs, buf.capacity() != cap);
        }

        // Sink for masked-off writes.
        let sink_len = bound
            .iter()
            .flat_map(|bl| &bl.args)
            .filter(|r| r.mode.modifies())
            .map(|r| r.dim as usize)
            .max()
            .unwrap_or(0);
        let cap0 = self.sink.capacity();
        self.sink.resize(sink_len.max(self.sink.len()), 0.0);
        track(&mut self.allocs, self.sink.capacity() != cap0);

        // Scratch pool.
        let cap0 = self.pool.capacity();
        self.pool.clear();
        self.pool.resize(sched.scratch_pool_len(), 0.0);
        track(&mut self.allocs, self.pool.capacity() != cap0);

        // Arg overrides: loops whose args are rebound into the pool.
        let cap0 = self.overrides.capacity();
        self.overrides.resize_with(bound.len(), Vec::new);
        self.overrides.truncate(bound.len());
        track(&mut self.allocs, self.overrides.capacity() != cap0);
        for o in &mut self.overrides {
            o.clear();
        }
        let pool_base = self.pool.as_mut_ptr();
        for group in &sched.fused {
            for s in &group.scratch {
                // SAFETY: offset + dim ≤ pool len by `scratch_pool_len`.
                let slot_ptr = unsafe { pool_base.add(s.offset as usize) };
                for &(member, arg) in &s.binds {
                    let j = group.loops[member as usize] as usize;
                    let ov = &mut self.overrides[j];
                    if ov.is_empty() {
                        let cap = ov.capacity();
                        ov.extend(bound[j].args.iter().copied());
                        track(&mut self.allocs, ov.capacity() != cap);
                    }
                    let mode = ov[arg as usize].mode;
                    ov[arg as usize] = BoundArg {
                        base: slot_ptr,
                        dim: s.dim,
                        mode,
                        map: None,
                        direct: false,
                    };
                }
            }
        }
        // Slot buffers of overridden loops must reflect the override
        // (dim of the scratch slot).
        for (j, ov) in self.overrides.iter().enumerate() {
            if !ov.is_empty() {
                let buf = &mut self.slots[j];
                buf.clear();
                buf.extend(slots_for(ov));
            }
        }
    }
}

/// Execute one chunk: its pieces in order, on the calling thread.
/// `bound[j]` must be the resolution of chain loop `j`; `ctx` carries
/// this worker's slot buffers, scratch pool and arg overrides (prepared
/// for `sched`).
pub fn run_chunk(bound: &[BoundLoop], sched: &Schedule, chunk: &Chunk, ctx: &mut SchedCtx) {
    let SchedCtx {
        slots,
        overrides,
        sink,
        ..
    } = ctx;
    let sink = sink.as_mut_ptr();
    let args_of = |j: usize| -> &[BoundArg] {
        if overrides[j].is_empty() {
            &bound[j].args
        } else {
            &overrides[j]
        }
    };
    for piece in &chunk.pieces {
        match piece {
            Piece::Range {
                loop_idx,
                start,
                end,
            } => {
                let j = *loop_idx as usize;
                let args = args_of(j);
                let slots = &mut slots[j];
                for e in *start as usize..*end as usize {
                    run_elem(bound[j].kernel, args, slots, e);
                }
            }
            Piece::List { loop_idx, iters } => {
                let j = *loop_idx as usize;
                let args = args_of(j);
                let slots = &mut slots[j];
                for &e in iters {
                    run_elem(bound[j].kernel, args, slots, e as usize);
                }
            }
            Piece::Masked {
                loop_idx,
                iters,
                masks,
            } => {
                let j = *loop_idx as usize;
                let args = args_of(j);
                let slots = &mut slots[j];
                for (&e, &m) in iters.iter().zip(masks) {
                    run_elem_masked(bound[j].kernel, args, slots, e as usize, m, sink);
                }
            }
            Piece::Fused { group, start, end } => {
                let members = &sched.fused[*group as usize].loops;
                for e in *start as usize..*end as usize {
                    for &m in members {
                        let j = m as usize;
                        run_elem(bound[j].kernel, args_of(j), &mut slots[j], e);
                    }
                }
            }
            Piece::FusedList { group, iters } => {
                let members = &sched.fused[*group as usize].loops;
                for &e in iters {
                    for &m in members {
                        let j = m as usize;
                        run_elem(bound[j].kernel, args_of(j), &mut slots[j], e as usize);
                    }
                }
            }
        }
    }
}

/// Execute a schedule sequentially: levels in order, chunks in order.
/// This is the reference semantics every threaded execution must match.
pub fn run_schedule(bound: &[BoundLoop], sched: &Schedule) {
    let mut ctx = SchedCtx::new();
    run_schedule_ctx(bound, sched, &mut ctx);
}

/// [`run_schedule`] with a caller-provided (reusable) worker context —
/// the zero-allocation steady-state entry point.
pub fn run_schedule_ctx(bound: &[BoundLoop], sched: &Schedule, ctx: &mut SchedCtx) {
    debug_assert_eq!(bound.len(), sched.n_loops);
    ctx.prepare(bound, sched);
    for level in &sched.levels {
        for chunk in &level.chunks {
            run_chunk(bound, sched, chunk, ctx);
        }
    }
}

/// Execute a schedule with `n_threads` scoped OS threads per level
/// (barrier between levels). The reference threaded executor for
/// core-level tests and single-domain callers; the runtime crate runs
/// the same schedules on its per-rank pool.
pub fn run_schedule_threads(bound: &[BoundLoop], sched: &Schedule, n_threads: usize) {
    assert!(n_threads >= 1);
    debug_assert_eq!(bound.len(), sched.n_loops);
    if n_threads == 1 {
        return run_schedule(bound, sched);
    }
    for level in &sched.levels {
        let per = level.chunks.len().div_ceil(n_threads).max(1);
        std::thread::scope(|scope| {
            for group in level.chunks.chunks(per) {
                scope.spawn(move || {
                    let mut ctx = SchedCtx::new();
                    ctx.prepare(bound, sched);
                    for chunk in group {
                        run_chunk(bound, sched, chunk, &mut ctx);
                    }
                });
            }
        });
    }
}

/// Execute `spec` under `sched` on the global domain, sequentially.
pub fn run_loop_schedule(dom: &mut Domain, spec: &LoopSpec, sched: &Schedule) -> crate::seq::LoopResult {
    let mut gbl_bufs: Vec<Vec<f64>> = spec.gbls.iter().map(|g| g.init.clone()).collect();
    let bound = BoundLoop::bind(dom, spec, &mut gbl_bufs);
    run_schedule(std::slice::from_ref(&bound), sched);
    crate::seq::LoopResult { gbls: gbl_bufs }
}

/// Execute `spec` under `sched` on the global domain with `n_threads`
/// workers.
///
/// # Panics
/// Panics if the loop carries global reduction arguments — a reduction's
/// accumulation order is thread-schedule dependent, so such loops stay
/// sequential.
pub fn run_loop_schedule_threads(
    dom: &mut Domain,
    spec: &LoopSpec,
    sched: &Schedule,
    n_threads: usize,
) {
    assert!(
        !spec.has_reduction(),
        "threaded execution does not support global reductions"
    );
    let mut gbl_bufs: Vec<Vec<f64>> = spec.gbls.iter().map(|g| g.init.clone()).collect();
    let bound = BoundLoop::bind(dom, spec, &mut gbl_bufs);
    run_schedule_threads(std::slice::from_ref(&bound), sched, n_threads);
}

/// Bind every loop of `chain` against the global domain. Returns the
/// bound loops plus the per-loop global buffers backing them (which must
/// stay alive and unmoved while the bounds are used).
pub fn bind_chain(
    dom: &mut Domain,
    chain: &crate::ChainSpec,
) -> (Vec<BoundLoop>, Vec<Vec<Vec<f64>>>) {
    let mut gbls: Vec<Vec<Vec<f64>>> = chain
        .loops
        .iter()
        .map(|s| s.gbls.iter().map(|g| g.init.clone()).collect())
        .collect();
    let mut bound = Vec::with_capacity(chain.len());
    for (spec, bufs) in chain.loops.iter().zip(gbls.iter_mut()) {
        bound.push(BoundLoop::bind(dom, spec, bufs));
    }
    (bound, gbls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessMode, Arg};
    use crate::loops::LoopSpec;

    fn bump(args: &Args<'_>) {
        args.set(0, 0, args.get(0, 0) + 1.0);
    }

    fn fixture(n: usize) -> (Domain, LoopSpec, crate::DatId) {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", n);
        let x = dom.decl_dat_zeros("x", nodes, 1);
        let spec = LoopSpec::new("bump", nodes, vec![Arg::dat_direct(x, AccessMode::Rw)], bump);
        (dom, spec, x)
    }

    #[test]
    fn range_schedule_shape() {
        let s = Schedule::range(3, 11);
        assert_eq!(s.n_levels(), 1);
        assert_eq!(s.n_chunks(), 1);
        assert_eq!(s.loop_iters(0), 8);
        assert!(!s.has_parallelism());
    }

    #[test]
    fn range_and_list_lowerings_execute() {
        let (mut dom, spec, x) = fixture(6);
        run_loop_schedule(&mut dom, &spec, &Schedule::range(1, 4));
        run_loop_schedule(&mut dom, &spec, &Schedule::list(vec![0, 3, 5]));
        assert_eq!(dom.dat(x).data, vec![1.0, 1.0, 1.0, 2.0, 0.0, 1.0]);
    }

    #[test]
    fn threaded_schedule_matches_sequential() {
        // Two disjoint chunks on one level: safe to run concurrently.
        let sched = Schedule {
            n_loops: 1,
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![
                    Chunk {
                        pieces: vec![Piece::Range {
                            loop_idx: 0,
                            start: 0,
                            end: 50,
                        }],
                    },
                    Chunk {
                        pieces: vec![Piece::Range {
                            loop_idx: 0,
                            start: 50,
                            end: 100,
                        }],
                    },
                ],
            }],
            fused: Vec::new(),
        };
        let (mut a, spec, x) = fixture(100);
        let (mut b, _, _) = fixture(100);
        run_loop_schedule(&mut a, &spec, &sched);
        run_loop_schedule_threads(&mut b, &spec, &sched, 4);
        assert_eq!(a.dat(x).data, b.dat(x).data);
    }

    fn pair_group(scratch: Vec<ScratchBind>) -> (Vec<FusedGroup>, Vec<Option<usize>>) {
        (
            vec![FusedGroup {
                loops: vec![1, 2],
                scratch,
            }],
            vec![None, Some(0), Some(0)],
        )
    }

    /// The direct fused lowering: solo loops as plain ranges, one fused
    /// range over the group's common prefix, extent tails per member.
    #[test]
    fn chain_ranges_fused_shape_and_iters() {
        let (groups, group_of) = pair_group(Vec::new());
        let s = Schedule::chain_ranges_fused(&[7, 5, 9], groups, &group_of);
        let pieces = &s.levels[0].chunks[0].pieces;
        assert_eq!(pieces.len(), 3);
        assert!(matches!(
            pieces[0],
            Piece::Range { loop_idx: 0, start: 0, end: 7 }
        ));
        assert!(matches!(
            pieces[1],
            Piece::Fused { group: 0, start: 0, end: 5 }
        ));
        assert!(matches!(
            pieces[2],
            Piece::Range { loop_idx: 2, start: 5, end: 9 }
        ));
        assert_eq!(s.n_fused_pieces(), 1);
        // Fused pieces count for every member loop they interleave.
        assert_eq!(s.loop_iters(1), 5);
        assert_eq!(s.loop_iters(2), 9);
    }

    /// The post-pass window matcher fuses only aligned windows: chunks
    /// whose member pieces differ in coverage are left unfused (and stay
    /// correct via the per-location order argument).
    #[test]
    fn fuse_post_pass_requires_aligned_windows() {
        let raw = |l: u32, s: u32, e: u32| Piece::Range {
            loop_idx: l,
            start: s,
            end: e,
        };
        let sched = Schedule {
            n_loops: 2,
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![
                    Chunk {
                        pieces: vec![raw(0, 0, 4), raw(1, 0, 4)],
                    },
                    Chunk {
                        pieces: vec![raw(0, 4, 8), raw(1, 4, 6)],
                    },
                ],
            }],
            fused: Vec::new(),
        };
        let groups = vec![FusedGroup {
            loops: vec![0, 1],
            scratch: Vec::new(),
        }];
        let s = sched.fuse(groups, &[Some(0), Some(0)]);
        assert_eq!(s.n_fused_pieces(), 1);
        assert!(matches!(
            s.levels[0].chunks[0].pieces[0],
            Piece::Fused { group: 0, start: 0, end: 4 }
        ));
        // Misaligned window untouched.
        assert_eq!(s.levels[0].chunks[1].pieces.len(), 2);
    }

    /// Elision survives standalone *producer* tails (dead scratch
    /// writes) but not standalone *consumer* pieces, which would read a
    /// slot their element's producer never filled.
    #[test]
    fn elision_validity_rejects_standalone_consumers() {
        let bind = ScratchBind {
            dim: 2,
            offset: 0,
            producer: 0,
            binds: vec![(0, 1), (1, 0)],
        };
        assert_eq!(bind.consumers().collect::<Vec<_>>(), vec![1]);

        let (groups, group_of) = pair_group(vec![bind]);
        let aligned = Schedule::chain_ranges_fused(&[4, 4, 4], groups.clone(), &group_of);
        assert!(elision_valid(&[&aligned], &aligned.fused, &group_of));
        assert_eq!(aligned.scratch_pool_len(), 2);

        // Consumer extent tail: loop 2 runs [4, 6) standalone.
        let ctail = Schedule::chain_ranges_fused(&[4, 4, 6], groups.clone(), &group_of);
        assert!(!elision_valid(&[&ctail], &ctail.fused, &group_of));

        // Producer extent tail: loop 1 runs [4, 6) standalone — harmless.
        let ptail = Schedule::chain_ranges_fused(&[4, 6, 4], groups, &group_of);
        assert!(elision_valid(&[&ptail], &ptail.fused, &group_of));
    }
}
