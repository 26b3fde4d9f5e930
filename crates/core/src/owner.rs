//! Owner-compute lowering of increment loops for shared-memory threads.
//!
//! The source paper's communication-avoiding back-end runs halo
//! iterations *redundantly* so that ranks need not synchronise between
//! loops. This module applies the same idea inside a rank: threads run
//! *seam* iterations redundantly so that an increment loop needs no
//! colour levels at all.
//!
//! **Eligibility** ([`eligible`]). Every modifying argument is an
//! indirect `Inc`, no argument reads a dat the loop modifies, and there
//! is no global reduction. Such a kernel's writes are pure functions of
//! data nobody in the loop modifies, and kernels never read `Inc`
//! arguments (the OP2 contract, checked by [`crate::kernel::Args`] in
//! debug builds) — so running an iteration twice produces the same
//! increments twice.
//!
//! **Inspector** ([`owner_schedule`]). `[start, end)` is split into `T`
//! equal contiguous spans, one per thread. Each modified target element
//! is *owned* by the thread whose span holds the lowest iteration that
//! modifies it. Thread `t`'s chunk is its own span, in order, followed by
//! the later "extra" iterations that touch elements it owns. An
//! iteration touching elements of several owners carries a per-argument
//! mask in every chunk that runs it ([`Piece::Masked`]): writes to
//! elements the chunk's thread owns go through, the others land in a
//! per-worker sink. Clean stretches stay [`Piece::Range`] runs, so
//! per-thread kernel speed equals sequential; memory is O(seam).
//!
//! **Determinism.** Every modified element is written by exactly one
//! thread (its owner), and the owner runs every iteration that modifies
//! it in ascending order: its own span first, then extras from later
//! spans, ascending. The per-element update sequence is therefore the
//! sequential one — results are **bitwise equal** to [`crate::seq`] at
//! any thread count, by construction. [`is_valid_owner_schedule`]
//! re-checks this by brute force without the inspector's ownership
//! logic.
//!
//! The lowering is one level with `T` chunks where the levelized block
//! coloring ([`crate::par`]) needs one level per colour — thousands per
//! iteration on MG-CFD's edge loops, each a pool barrier.

use crate::access::{AccessMode, Arg};
use crate::loops::LoopSig;
use crate::par::ConflictAccess;
use crate::schedule::{Chunk, Level, Piece, Schedule, ScheduleKind};

/// Most arguments an owner mask (one `u64` bit per argument) can cover.
const MAX_MASKED_ARGS: usize = 64;

/// Whether `sig` may be lowered by [`owner_schedule`]: at least one
/// indirect `Inc`, every modifying argument an indirect `Inc`, no
/// argument reading a modified dat, no global reduction, and at most 64
/// arguments (one mask bit each).
pub fn eligible(sig: &LoopSig) -> bool {
    if sig.args.len() > MAX_MASKED_ARGS {
        return false;
    }
    let mut modified = Vec::new();
    for a in &sig.args {
        match *a {
            Arg::Gbl { mode, .. } if mode.modifies() => return false,
            Arg::Dat { dat, map, mode } if mode.modifies() => {
                if mode != AccessMode::Inc || map.is_none() {
                    return false;
                }
                modified.push(dat);
            }
            _ => {}
        }
    }
    !modified.is_empty()
        && sig.args.iter().all(|a| match *a {
            Arg::Dat { dat, mode, .. } => mode.modifies() || !modified.contains(&dat),
            Arg::Gbl { .. } => true,
        })
}

/// Owner-compute lowering of `[start, end)` for `n_threads` threads (see
/// the module docs). `accesses` are the loop's conflict accesses
/// ([`crate::par::conflict_accesses`]); only the writing ones are used,
/// and the loop must be [`eligible`]. `set_sizes` bounds the target
/// index space per set. Chunks that would run nothing are dropped.
pub fn owner_schedule(
    start: usize,
    end: usize,
    n_threads: usize,
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
) -> Schedule {
    assert!(n_threads >= 1, "n_threads must be at least 1");
    let writes: Vec<&ConflictAccess<'_>> = accesses.iter().filter(|a| a.writes).collect();
    debug_assert!(writes.iter().all(|a| a.arg < MAX_MASKED_ARGS));
    let n = end.saturating_sub(start);
    let n_spans = n_threads.min(n).max(1);
    let span = |t: usize| (start + n * t / n_spans, start + n * (t + 1) / n_spans);

    // Owner of every modified element: the thread of its first writer.
    const NONE: u32 = u32::MAX;
    let mut owner: Vec<Vec<u32>> = vec![Vec::new(); set_sizes.len()];
    for a in &writes {
        if owner[a.set].is_empty() {
            owner[a.set] = vec![NONE; set_sizes[a.set]];
        }
    }
    for t in 0..n_spans {
        let (s, e) = span(t);
        for i in s..e {
            for a in &writes {
                let o = &mut owner[a.set][a.target(i)];
                if *o == NONE {
                    *o = t as u32;
                }
            }
        }
    }

    let mut own: Vec<Vec<Piece>> = Vec::with_capacity(n_spans);
    let mut extras: Vec<(Vec<u32>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); n_spans];
    // (owner, mask) of the current iteration's writes, per distinct owner.
    let mut by_owner: Vec<(u32, u64)> = Vec::with_capacity(writes.len());
    for t in 0..n_spans {
        let (s, e) = span(t);
        let mut pieces = Vec::new();
        let mut run: Option<usize> = None;
        let (mut seam_iters, mut seam_masks) = (Vec::new(), Vec::new());
        for i in s..e {
            by_owner.clear();
            for a in &writes {
                let o = owner[a.set][a.target(i)];
                let bit = 1u64 << a.arg;
                match by_owner.iter_mut().find(|(p, _)| *p == o) {
                    Some((_, m)) => *m |= bit,
                    None => by_owner.push((o, bit)),
                }
            }
            if by_owner.iter().all(|&(o, _)| o == t as u32) {
                if !seam_iters.is_empty() {
                    pieces.push(masked(&mut seam_iters, &mut seam_masks));
                }
                run.get_or_insert(i);
            } else {
                if let Some(r) = run.take() {
                    pieces.push(range(r, i));
                }
                for &(o, m) in &by_owner {
                    if o == t as u32 {
                        seam_iters.push(i as u32);
                        seam_masks.push(m);
                    } else {
                        // Owners of elements first touched earlier sit
                        // on earlier spans: their extras stay ascending.
                        let (xi, xm) = &mut extras[o as usize];
                        xi.push(i as u32);
                        xm.push(m);
                    }
                }
            }
        }
        if let Some(r) = run {
            pieces.push(range(r, e));
        }
        if !seam_iters.is_empty() {
            pieces.push(masked(&mut seam_iters, &mut seam_masks));
        }
        own.push(pieces);
    }

    let mut executions = 0usize;
    let chunks: Vec<Chunk> = own
        .into_iter()
        .zip(extras)
        .filter_map(|(mut pieces, (mut xi, mut xm))| {
            if !xi.is_empty() {
                pieces.push(masked(&mut xi, &mut xm));
            }
            let chunk = Chunk { pieces };
            executions += chunk.iters();
            (!chunk.pieces.is_empty()).then_some(chunk)
        })
        .collect();
    Schedule {
        n_loops: 1,
        kind: ScheduleKind::Owner {
            redundant_iters: executions.saturating_sub(n),
        },
        levels: vec![Level { chunks }],
        fused: Vec::new(),
    }
}

fn range(start: usize, end: usize) -> Piece {
    Piece::Range {
        loop_idx: 0,
        start: start as u32,
        end: end as u32,
    }
}

fn masked(iters: &mut Vec<u32>, masks: &mut Vec<u64>) -> Piece {
    Piece::Masked {
        loop_idx: 0,
        iters: std::mem::take(iters),
        masks: std::mem::take(masks),
    }
}

/// Independent check of an owner-compute schedule of `[start, end)`:
/// rebuilds by brute force, per modified element, the sequence of
/// `(iteration, argument)` writes that reach it unmasked and compares it
/// with the sequential ascending sequence; and checks that each element
/// has exactly one unmasked writer chunk. Shares no ownership logic with
/// [`owner_schedule`]. `accesses` as for the inspector.
pub fn is_valid_owner_schedule(
    sched: &Schedule,
    start: usize,
    end: usize,
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
) -> bool {
    let writes: Vec<&ConflictAccess<'_>> = accesses.iter().filter(|a| a.writes).collect();
    let empty = || -> Vec<Vec<Vec<(u32, usize)>>> {
        set_sizes.iter().map(|&s| vec![Vec::new(); s]).collect()
    };
    let mut expected = empty();
    for i in start..end {
        for a in &writes {
            expected[a.set][a.target(i)].push((i as u32, a.arg));
        }
    }
    let mut actual = empty();
    let mut writer: Vec<Vec<Option<usize>>> = set_sizes.iter().map(|&s| vec![None; s]).collect();
    let chunks = sched.levels.iter().flat_map(|l| &l.chunks);
    for (c, chunk) in chunks.enumerate() {
        for piece in &chunk.pieces {
            let runs: Vec<(u32, u64)> = match piece {
                Piece::Range {
                    loop_idx: 0,
                    start: s,
                    end: e,
                } => (*s..*e).map(|i| (i, u64::MAX)).collect(),
                Piece::Masked {
                    loop_idx: 0,
                    iters,
                    masks,
                } => iters.iter().copied().zip(masks.iter().copied()).collect(),
                _ => return false,
            };
            for (i, m) in runs {
                for a in &writes {
                    if (m >> a.arg) & 1 == 0 {
                        continue;
                    }
                    let t = a.target(i as usize);
                    match writer[a.set][t] {
                        Some(w) if w != c => return false,
                        _ => writer[a.set][t] = Some(c),
                    }
                    actual[a.set][t].push((i, a.arg));
                }
            }
        }
    }
    actual == expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode;
    use crate::domain::Domain;
    use crate::kernel::Args;
    use crate::loops::LoopSpec;
    use crate::par::conflict_accesses;
    use crate::schedule::run_loop_schedule_threads;

    fn flux(args: &Args<'_>) {
        let a = args.get(2, 0);
        let b = args.get(3, 0);
        args.inc(0, 0, (b - a) * 0.123456789);
        args.inc(1, 0, (a - b) * 0.987654321);
    }

    /// A path graph `0-1-2-…` with edges in `order`.
    fn path(n_nodes: usize, order: &[u32]) -> (Domain, LoopSpec) {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", n_nodes);
        let edges = dom.decl_set("edges", order.len());
        let vals: Vec<u32> = order.iter().flat_map(|&i| [i, i + 1]).collect();
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
            flux,
        );
        (dom, spec)
    }

    fn lower(dom: &Domain, spec: &LoopSpec, threads: usize) -> (Schedule, bool) {
        let sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
        let acc = conflict_accesses(dom.maps(), &spec.sig());
        let n = dom.set(spec.set).size;
        let sched = owner_schedule(0, n, threads, &sizes, &acc);
        let valid = is_valid_owner_schedule(&sched, 0, n, &sizes, &acc);
        (sched, valid)
    }

    /// On an ordered path two spans share one node: thread 0 owns it and
    /// reruns the one seam edge, thread 1 masks that edge's write to it.
    #[test]
    fn ordered_path_has_a_one_edge_seam() {
        let order: Vec<u32> = (0..8).collect();
        let (dom, spec) = path(9, &order);
        let (sched, valid) = lower(&dom, &spec, 2);
        assert!(valid);
        assert_eq!(sched.n_levels(), 1);
        assert_eq!(sched.n_chunks(), 2);
        assert_eq!(sched.kind, ScheduleKind::Owner { redundant_iters: 1 });
        let c0 = &sched.levels[0].chunks[0].pieces;
        assert_eq!(c0[0], range(0, 4));
        assert_eq!(
            c0[1],
            Piece::Masked {
                loop_idx: 0,
                iters: vec![4],
                masks: vec![0b01]
            }
        );
        let c1 = &sched.levels[0].chunks[1].pieces;
        assert_eq!(
            c1[0],
            Piece::Masked {
                loop_idx: 0,
                iters: vec![4],
                masks: vec![0b10]
            }
        );
        assert_eq!(c1[1], range(5, 8));
    }

    /// Results equal the sequential reference bitwise for ordered and
    /// scrambled edge orders at 1–4 threads, and the validator accepts
    /// every schedule.
    #[test]
    fn owner_execution_bitwise_equals_seq() {
        let orders: [Vec<u32>; 2] = [(0..64).collect(), (0..64).map(|i| (i * 37) % 64).collect()];
        for order in &orders {
            let (mut seq_dom, spec) = path(65, order);
            crate::seq::run_loop(&mut seq_dom, &spec);
            let want = seq_dom
                .dat(seq_dom.dat_by_name("res").unwrap())
                .data
                .clone();
            for threads in 1..=4 {
                let (mut dom, spec) = path(65, order);
                let (sched, valid) = lower(&dom, &spec, threads);
                assert!(valid, "threads {threads}");
                run_loop_schedule_threads(&mut dom, &spec, &sched, threads);
                let got = &dom.dat(dom.dat_by_name("res").unwrap()).data;
                assert_eq!(got, &want, "threads {threads}");
            }
        }
    }

    /// The validator rejects a schedule where an element has two
    /// unmasked writers, and one that reorders an element's writes.
    #[test]
    fn validator_rejects_double_writers_and_reordering() {
        let order: Vec<u32> = (0..8).collect();
        let (dom, spec) = path(9, &order);
        let sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
        let acc = conflict_accesses(dom.maps(), &spec.sig());
        let (mut sched, _) = lower(&dom, &spec, 2);
        // Unmask thread 1's seam write: node 4 gets two writer chunks.
        if let Piece::Masked { masks, .. } = &mut sched.levels[0].chunks[1].pieces[0] {
            masks[0] = 0b11;
        }
        assert!(!is_valid_owner_schedule(&sched, 0, 8, &sizes, &acc));
        // One chunk running the edges backwards.
        let backwards = Schedule {
            n_loops: 1,
            kind: ScheduleKind::Owner { redundant_iters: 0 },
            levels: vec![Level {
                chunks: vec![Chunk {
                    pieces: (0..8).rev().map(|i| range(i, i + 1)).collect(),
                }],
            }],
            fused: Vec::new(),
        };
        assert!(!is_valid_owner_schedule(&backwards, 0, 8, &sizes, &acc));
    }

    /// The eligibility rule: indirect-`Inc`-only writers, no reads of a
    /// modified dat, no reductions.
    #[test]
    fn eligibility_rule() {
        let order: Vec<u32> = (0..4).collect();
        let (dom, spec) = path(5, &order);
        assert!(eligible(&spec.sig()));
        let e2n = dom.map_by_name("e2n").unwrap();
        let r = dom.dat_by_name("res").unwrap();
        let p = dom.dat_by_name("pres").unwrap();
        let edges = spec.set;
        let sig = |args: Vec<Arg>| LoopSpec::new("x", edges, args, flux).sig();
        // Rw through a map.
        assert!(!eligible(&sig(vec![Arg::dat_indirect(
            r,
            e2n,
            0,
            AccessMode::Rw
        )])));
        // Reads the dat it increments.
        assert!(!eligible(&sig(vec![
            Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(r, e2n, 1, AccessMode::Read),
        ])));
        // Direct write alongside the increment.
        assert!(!eligible(&sig(vec![
            Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
            Arg::dat_direct(p, AccessMode::Write),
        ])));
        // Global reduction.
        assert!(!eligible(&sig(vec![
            Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
            Arg::gbl(0, AccessMode::Inc),
        ])));
        // Read-only: nothing to own.
        assert!(!eligible(&sig(vec![Arg::dat_indirect(
            p,
            e2n,
            0,
            AccessMode::Read
        )])));
    }
}
