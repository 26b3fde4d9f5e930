//! Block-level coloring for shared-memory parallel execution.
//!
//! [`crate::coloring`] colors *individual iterations*; executing color by
//! color the per-element update order follows the color sequence, not the
//! iteration order, so floating-point increments reassociate and results
//! drift from [`crate::seq`]. This module colors **blocks** of contiguous
//! iterations instead, with a *levelized, order-preserving* rule:
//!
//! > `color(b) = 1 + max{ color(b') : b' < b and b' conflicts with b }`
//!
//! Two blocks conflict when they touch a common element of any dat the
//! loop modifies through a map (with at least one of the two accesses
//! modifying). Consequences:
//!
//! * **race freedom** — same-color blocks touch disjoint modified
//!   elements, so they can run on different threads without atomics;
//! * **order preservation** — a conflicting pair `b' < b` always has
//!   `color(b') < color(b)`, and colors execute in ascending order, so
//!   every element receives its updates in ascending block order. Blocks
//!   are contiguous ascending ranges, so the per-element update sequence
//!   is *identical* to plain sequential execution: results are **bitwise
//!   equal** to [`crate::seq::run_loop`], independent of thread count and
//!   block schedule within a color. (Plain greedy coloring cannot promise
//!   this — it reorders conflicting iterations across colors.)
//!
//! The price is more colors than a greedy minimum, and every color is a
//! pool barrier. That price is not negligible: on mesh-ordered edge loops
//! consecutive blocks share nodes, so the colors climb like a ladder.
//! MG-CFD at 40³ nodes needed 3612 levels per iteration with 1.41
//! chunks per level on two threads. Loops whose writes are all indirect
//! `Inc` therefore use the owner-compute lowering ([`crate::owner`])
//! instead — one level per loop range, 14 per MG-CFD iteration — and
//! this coloring remains for the rest (indirect `Rw`/`Write` loops and
//! direct loops).

use crate::access::Arg;
use crate::coloring::Coloring;
use crate::domain::{Domain, MapData};
use crate::loops::LoopSig;

/// A coloring of contiguous iteration blocks over `[start, end)`.
#[derive(Debug, Clone)]
pub struct BlockColoring {
    /// First iteration covered.
    pub start: usize,
    /// One-past-last iteration covered.
    pub end: usize,
    /// Iterations per block (last block may be short).
    pub block_size: usize,
    /// Number of colors.
    pub n_colors: usize,
    /// Color of every block.
    pub color: Vec<u32>,
    /// Block ids per color, ascending.
    pub by_color: Vec<Vec<u32>>,
}

impl BlockColoring {
    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.color.len()
    }

    /// Iteration range `[s, e)` of block `b`.
    pub fn block_range(&self, b: usize) -> (usize, usize) {
        let s = self.start + b * self.block_size;
        (s, (s + self.block_size).min(self.end))
    }

    /// Expand to a per-iteration [`Coloring`] (each iteration inherits
    /// its block's color) — the bridge to
    /// [`crate::coloring::is_valid_coloring`]. Only defined for
    /// `block_size == 1` colorings covering a whole set from iteration 0:
    /// with larger blocks, two same-block (hence same-color) iterations
    /// may legitimately conflict — they run sequentially on one thread —
    /// which the per-element validity check would reject.
    pub fn element_coloring(&self) -> Coloring {
        assert_eq!(self.start, 0, "element_coloring needs a full-set coloring");
        assert_eq!(
            self.block_size, 1,
            "element_coloring is the block_size=1 bridge to `coloring`"
        );
        let mut color = vec![0u32; self.end];
        let mut by_color: Vec<Vec<u32>> = vec![Vec::new(); self.n_colors];
        for b in 0..self.n_blocks() {
            let c = self.color[b];
            let (s, e) = self.block_range(b);
            for i in s..e {
                color[i] = c;
                by_color[c as usize].push(i as u32);
            }
        }
        Coloring {
            n_colors: self.n_colors,
            color,
            by_color,
        }
    }
}

/// One access that can induce a cross-iteration conflict: which set it
/// lands on, through which map (or directly), and whether it modifies.
#[derive(Debug, Clone, Copy)]
pub struct ConflictAccess<'a> {
    /// `Some((map values, arity, index))` for indirect accesses, `None`
    /// for direct ones (target element = iteration index).
    pub map: Option<(&'a [u32], usize, usize)>,
    /// Target set index.
    pub set: usize,
    /// Whether this access modifies the target element.
    pub writes: bool,
    /// Position of the access among the loop's arguments (the bit an
    /// owner-compute mask uses for it, see [`crate::owner`]).
    pub arg: usize,
}

impl ConflictAccess<'_> {
    /// Target element of iteration `e` in the access's target set.
    #[inline]
    pub(crate) fn target(&self, e: usize) -> usize {
        match self.map {
            Some((values, arity, idx)) => values[e * arity + idx] as usize,
            None => e,
        }
    }
}

/// The accesses of `sig` that can conflict across iterations: every
/// access (direct or indirect, read or write) of a dat the loop modifies
/// *through a map*. Dats modified only directly are excluded — each
/// iteration owns its element, so no two iterations collide on them.
pub fn conflict_accesses<'a>(maps: &'a [MapData], sig: &LoopSig) -> Vec<ConflictAccess<'a>> {
    let mut out = Vec::new();
    for d in sig.dats() {
        let Some((mode, indirect)) = sig.access_of(d) else {
            continue;
        };
        if !(mode.modifies() && indirect) {
            continue;
        }
        for (arg, a) in sig.args.iter().enumerate() {
            if let Arg::Dat { dat, map, mode } = a {
                if *dat != d {
                    continue;
                }
                match map {
                    Some((m, idx)) => {
                        let md = &maps[m.idx()];
                        out.push(ConflictAccess {
                            map: Some((md.values.as_slice(), md.arity, *idx as usize)),
                            set: md.to.idx(),
                            writes: mode.modifies(),
                            arg,
                        });
                    }
                    None => out.push(ConflictAccess {
                        map: None,
                        set: sig.set.idx(),
                        writes: mode.modifies(),
                        arg,
                    }),
                }
            }
        }
    }
    out
}

/// Levelized order-preserving block coloring of `[start, end)` (see the
/// module docs for the rule and its guarantees). `set_sizes` bounds the
/// target index space per set; `accesses` comes from
/// [`conflict_accesses`]. Works on global domains and on localized rank
/// layouts alike — callers pass whichever maps the iteration range
/// dereferences.
pub fn color_blocks_raw(
    start: usize,
    end: usize,
    block_size: usize,
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
) -> BlockColoring {
    assert!(block_size >= 1, "block_size must be at least 1");
    let n_iter = end.saturating_sub(start);
    let n_blocks = n_iter.div_ceil(block_size);
    if accesses.is_empty() || n_blocks <= 1 {
        return BlockColoring {
            start,
            end,
            block_size,
            n_colors: usize::from(n_blocks > 0),
            color: vec![0; n_blocks],
            by_color: if n_blocks > 0 {
                vec![(0..n_blocks as u32).collect()]
            } else {
                Vec::new()
            },
        };
    }

    // Highest 1-based color of an earlier write / read touching each
    // element (0 = untouched). A writer must come strictly after every
    // earlier toucher; a reader only after earlier writers.
    let mut last_w: Vec<Vec<u32>> = set_sizes.iter().map(|&s| vec![0u32; s]).collect();
    let mut last_r: Vec<Vec<u32>> = set_sizes.iter().map(|&s| vec![0u32; s]).collect();
    let mut color = vec![0u32; n_blocks];
    let mut n_colors = 1usize;
    for b in 0..n_blocks {
        let s = start + b * block_size;
        let e = (s + block_size).min(end);
        let mut need = 0u32;
        for i in s..e {
            for a in accesses {
                let t = a.target(i);
                need = need.max(last_w[a.set][t]);
                if a.writes {
                    need = need.max(last_r[a.set][t]);
                }
            }
        }
        let c1 = need + 1; // this block's 1-based color
        color[b] = c1 - 1;
        n_colors = n_colors.max(c1 as usize);
        for i in s..e {
            for a in accesses {
                let t = a.target(i);
                let slot = if a.writes {
                    &mut last_w[a.set][t]
                } else {
                    &mut last_r[a.set][t]
                };
                *slot = (*slot).max(c1);
            }
        }
    }

    let mut by_color: Vec<Vec<u32>> = vec![Vec::new(); n_colors];
    for (b, &c) in color.iter().enumerate() {
        by_color[c as usize].push(b as u32);
    }
    BlockColoring {
        start,
        end,
        block_size,
        n_colors,
        color,
        by_color,
    }
}

/// Color the whole iteration set of `sig` over the global domain.
pub fn color_blocks(dom: &Domain, sig: &LoopSig, block_size: usize) -> BlockColoring {
    let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
    let accesses = conflict_accesses(dom.maps(), sig);
    color_blocks_raw(0, dom.set(sig.set).size, block_size, &set_sizes, &accesses)
}

/// Verify a block coloring against the raw conflict structure:
/// completeness (every block colored exactly once), race freedom (no two
/// same-color blocks conflict) and order preservation (conflicting
/// blocks are colored in ascending block order — the bitwise-identity
/// contract). Used by tests and debug assertions.
pub fn is_valid_block_coloring_raw(
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
    bc: &BlockColoring,
) -> bool {
    let n_blocks = bc.n_blocks();
    if n_blocks != bc.end.saturating_sub(bc.start).div_ceil(bc.block_size.max(1)) {
        return false;
    }
    // Partition check.
    let mut seen = vec![false; n_blocks];
    for (c, bucket) in bc.by_color.iter().enumerate() {
        for &b in bucket {
            let b = b as usize;
            if b >= n_blocks || seen[b] || bc.color[b] as usize != c {
                return false;
            }
            seen[b] = true;
        }
    }
    if !seen.iter().all(|&s| s) {
        return false;
    }
    // Per-element touch lists: (block, writes).
    let mut touches: Vec<Vec<Vec<(u32, bool)>>> = set_sizes
        .iter()
        .map(|&s| vec![Vec::new(); s])
        .collect();
    for b in 0..n_blocks {
        let (s, e) = bc.block_range(b);
        for i in s..e {
            for a in accesses {
                touches[a.set][a.target(i)].push((b as u32, a.writes));
            }
        }
    }
    for per_set in &touches {
        for list in per_set {
            for (i, &(b1, w1)) in list.iter().enumerate() {
                for &(b2, w2) in &list[i + 1..] {
                    if b1 == b2 || !(w1 || w2) {
                        continue; // intra-block or read-read: no conflict
                    }
                    let (lo, hi) = if b1 < b2 { (b1, b2) } else { (b2, b1) };
                    if bc.color[lo as usize] >= bc.color[hi as usize] {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// [`is_valid_block_coloring_raw`] over the global domain.
pub fn is_valid_block_coloring(dom: &Domain, sig: &LoopSig, bc: &BlockColoring) -> bool {
    let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
    let accesses = conflict_accesses(dom.maps(), sig);
    is_valid_block_coloring_raw(&set_sizes, &accesses, bc)
}

/// Average number of conflict-inducing touches per distinct element over
/// `[start, end)` — the mesh's measured *conflict degree* for one loop.
/// Sampled over at most the first 4096 iterations (enough to
/// characterise a mesh; keeps the probe O(1) for huge ranges). Returns
/// `0.0` when the loop has no conflict accesses (direct-only loops).
pub fn conflict_degree(
    start: usize,
    end: usize,
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
) -> f64 {
    if accesses.is_empty() || end <= start {
        return 0.0;
    }
    let sample_end = end.min(start + 4096);
    let mut touched: Vec<Vec<bool>> = set_sizes.iter().map(|&s| vec![false; s]).collect();
    let mut touches = 0usize;
    let mut distinct = 0usize;
    for i in start..sample_end {
        for a in accesses {
            let t = a.target(i);
            touches += 1;
            if !touched[a.set][t] {
                touched[a.set][t] = true;
                distinct += 1;
            }
        }
    }
    if distinct == 0 {
        0.0
    } else {
        touches as f64 / distinct as f64
    }
}

/// Smallest block size `OP2_BLOCK_SIZE=auto` will pick.
pub const AUTO_BLOCK_MIN: usize = 32;
/// Largest block size `OP2_BLOCK_SIZE=auto` will pick (also used for
/// conflict-free loops, where blocks only bound scheduling granularity).
pub const AUTO_BLOCK_MAX: usize = 2048;

/// Pick a per-loop block size from the measured [`conflict_degree`]:
/// high-degree meshes (many iterations sharing each element) get smaller
/// blocks so the levelized coloring keeps its color count down, while
/// direct or conflict-free loops get large streaming blocks. The choice
/// is deterministic in the mesh structure, so repeated runs (and all
/// threads of one rank) agree.
pub fn adaptive_block_size(
    start: usize,
    end: usize,
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
) -> usize {
    let degree = conflict_degree(start, end, set_sizes, accesses);
    if degree <= 1.0 {
        return AUTO_BLOCK_MAX; // direct or disjoint: stream freely
    }
    ((1024.0 / degree) as usize).clamp(AUTO_BLOCK_MIN, AUTO_BLOCK_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode;
    use crate::kernel::Args;
    use crate::loops::LoopSpec;
    use crate::schedule::{run_loop_schedule_threads, Schedule};

    fn noop(_: &Args<'_>) {}

    /// Edge→node FP increment kernel whose result is order-sensitive:
    /// res[n] += pres[other] * scale, with irrational-ish values so any
    /// reassociation shows up bitwise.
    fn flux_kernel(args: &Args<'_>) {
        let a = args.get(2, 0);
        let b = args.get(3, 0);
        args.inc(0, 0, (b - a) * 0.123456789);
        args.inc(1, 0, (a - b) * 0.987654321);
    }

    fn path_fixture(n_nodes: usize) -> (Domain, LoopSpec) {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", n_nodes);
        let edges = dom.decl_set("edges", n_nodes - 1);
        let vals: Vec<u32> = (0..n_nodes as u32 - 1).flat_map(|i| [i, i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let pres: Vec<f64> = (0..n_nodes).map(|i| (i as f64 * 0.7).sin()).collect();
        let p = dom.decl_dat("pres", nodes, 1, pres);
        let r = dom.decl_dat_zeros("res", nodes, 1);
        let spec = LoopSpec::new(
            "flux",
            edges,
            vec![
                Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(r, e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(p, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(p, e2n, 1, AccessMode::Read),
            ],
            flux_kernel,
        );
        (dom, spec)
    }

    /// On a path graph, consecutive blocks share one node: the levelized
    /// rule must give strictly increasing colors along the path.
    #[test]
    fn path_blocks_level_like_a_ladder() {
        let (dom, spec) = path_fixture(65);
        let bc = color_blocks(&dom, &spec.sig(), 16);
        assert_eq!(bc.n_blocks(), 4);
        assert!(is_valid_block_coloring(&dom, &spec.sig(), &bc));
        // Every adjacent block pair conflicts, so colors strictly climb.
        assert_eq!(bc.color, vec![0, 1, 2, 3]);
    }

    /// Blocks that touch disjoint elements share color 0.
    #[test]
    fn disjoint_blocks_share_a_color() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 8);
        let edges = dom.decl_set("edges", 4);
        // Edges 2i -- 2i+1: no two edges share a node.
        let vals: Vec<u32> = (0..4u32).flat_map(|i| [2 * i, 2 * i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let r = dom.decl_dat_zeros("res", nodes, 1);
        let spec = LoopSpec::new(
            "inc",
            edges,
            vec![
                Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(r, e2n, 1, AccessMode::Inc),
            ],
            noop,
        );
        let bc = color_blocks(&dom, &spec.sig(), 1);
        assert_eq!(bc.n_colors, 1);
        assert!(is_valid_block_coloring(&dom, &spec.sig(), &bc));
    }

    /// Direct-only loops need one color regardless of block size.
    #[test]
    fn direct_loop_single_color() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 100);
        let a = dom.decl_dat_zeros("a", nodes, 1);
        let spec = LoopSpec::new("w", nodes, vec![Arg::dat_direct(a, AccessMode::Write)], noop);
        let bc = color_blocks(&dom, &spec.sig(), 8);
        assert_eq!(bc.n_colors, 1);
        assert!(is_valid_block_coloring(&dom, &spec.sig(), &bc));
    }

    /// Bitwise identity against the sequential reference for 1..4
    /// threads on an order-sensitive FP kernel, going through the
    /// `Schedule` lowering of the block coloring.
    #[test]
    fn blocked_execution_bitwise_equals_seq() {
        let (mut seq_dom, spec) = path_fixture(257);
        crate::seq::run_loop(&mut seq_dom, &spec);
        let reference = seq_dom.dat(seq_dom.dat_by_name("res").unwrap()).data.clone();

        for threads in 1..=4usize {
            for block_size in [1usize, 7, 32, 1024] {
                let (mut dom, spec) = path_fixture(257);
                let bc = color_blocks(&dom, &spec.sig(), block_size);
                debug_assert!(is_valid_block_coloring(&dom, &spec.sig(), &bc));
                let sched = Schedule::from_block_coloring(&bc);
                assert_eq!(sched.n_levels(), bc.n_colors);
                assert_eq!(sched.n_chunks(), bc.n_blocks());
                run_loop_schedule_threads(&mut dom, &spec, &sched, threads);
                let got = &dom.dat(dom.dat_by_name("res").unwrap()).data;
                assert_eq!(
                    got, &reference,
                    "threads={threads} block_size={block_size}"
                );
            }
        }
    }

    /// The adaptive pick shrinks blocks as the measured conflict degree
    /// grows and streams direct loops with the maximum size.
    #[test]
    fn adaptive_block_size_tracks_degree() {
        // Indirect edge loop on a path: every interior node is touched
        // by ~2 edges × 2 accesses → degree ≈ 2 → mid-range blocks.
        let (dom, spec) = path_fixture(257);
        let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
        let accesses = conflict_accesses(dom.maps(), &spec.sig());
        let n = dom.set(spec.sig().set).size;
        let degree = conflict_degree(0, n, &set_sizes, &accesses);
        assert!(degree > 1.5, "path degree {degree}");
        let picked = adaptive_block_size(0, n, &set_sizes, &accesses);
        assert!(
            (AUTO_BLOCK_MIN..AUTO_BLOCK_MAX).contains(&picked),
            "picked {picked}"
        );

        // Direct loop: no conflict accesses → max streaming block.
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 64);
        let a = dom.decl_dat_zeros("a", nodes, 1);
        let direct = LoopSpec::new("w", nodes, vec![Arg::dat_direct(a, AccessMode::Write)], noop);
        let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
        let accesses = conflict_accesses(dom.maps(), &direct.sig());
        assert_eq!(
            adaptive_block_size(0, 64, &set_sizes, &accesses),
            AUTO_BLOCK_MAX
        );
    }

    /// The block_size=1 element expansion passes the per-element
    /// validity check (wiring for `coloring::is_valid_coloring`), and
    /// the order-preserving coloring never beats the greedy minimum.
    #[test]
    fn element_expansion_is_valid() {
        let (dom, spec) = path_fixture(48);
        let bc = color_blocks(&dom, &spec.sig(), 1);
        let ec = bc.element_coloring();
        assert!(crate::coloring::is_valid_coloring(&dom, &spec.sig(), &ec));
        let total: usize = ec.by_color.iter().map(Vec::len).sum();
        assert_eq!(total, 47);
        let greedy = crate::coloring::color_loop(&dom, &spec.sig());
        assert!(ec.n_colors >= greedy.n_colors);
    }

    /// A read-only indirect loop (no modifies) gets one color even when
    /// every block shares elements.
    #[test]
    fn read_only_loop_single_color() {
        let (dom, _) = path_fixture(33);
        let e2n = dom.map_by_name("e2n").unwrap();
        let p = dom.dat_by_name("pres").unwrap();
        let edges = dom.map(e2n).from;
        let spec = LoopSpec::new(
            "rd",
            edges,
            vec![Arg::dat_indirect(p, e2n, 0, AccessMode::Read)],
            noop,
        );
        let bc = color_blocks(&dom, &spec.sig(), 4);
        assert_eq!(bc.n_colors, 1);
    }
}
