//! Threaded-executor equivalence properties.
//!
//! The colored-threaded executor's contract is *bitwise identity*: the
//! levelized block coloring preserves ascending per-element update
//! order, so thread count and block size are invisible in the results —
//! not "equal up to reassociation tolerance", equal to the bit. These
//! properties pin that contract on randomly generated 2-D quad and 3-D
//! tet meshes, for chains with `OP_INC` through maps, against both the
//! sequential reference and the unplanned distributed path, at 1, 2 and
//! 4 threads.
//!
//! The kernels keep all values dyadic rationals of small magnitude, so
//! floating-point addition is exact and the sequential reference is
//! bit-comparable even across the distributed runs' local renumbering.
//!
//! The owner-compute properties at the end use order-sensitive
//! (non-dyadic) increments instead: there, bitwise equality pins the
//! per-element update order itself.

use op2::core::owner::{eligible, is_valid_owner_schedule, owner_schedule};
use op2::core::par::conflict_accesses;
use op2::core::schedule::run_loop_schedule_threads;
use op2::core::{seq, AccessMode, Arg, Args, ChainSpec, DatId, Domain, LoopSpec, SetId};
use op2::mesh::{Quad2D, Tet3D};
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::exec::{run_chain, run_chain_unplanned, run_loop};
use op2::runtime::{run_distributed_with, RankTrace, RunOptions, SchedKind, Threading};
use proptest::prelude::*;

#[path = "support/owner_case.rs"]
mod owner_case;
use owner_case::OwnerCase;

fn bump(args: &Args<'_>) {
    args.set(0, 0, args.get(0, 0) + 1.0);
}
fn produce(args: &Args<'_>) {
    args.inc(2, 0, args.get(0, 0) + 1.0);
    args.inc(3, 0, args.get(1, 0) + 1.0);
}
fn consume(args: &Args<'_>) {
    args.inc(2, 0, args.get(0, 0) - args.get(1, 0));
    args.inc(3, 0, args.get(1, 0) * 0.5);
}

struct Case {
    dom: Domain,
    nodes: SetId,
    coords: DatId,
    cdim: usize,
    dats: [DatId; 2],
    bump_loop: LoopSpec,
    chain: ChainSpec,
}

fn build_case(nx: usize, ny: usize, nz: usize, tet: bool) -> Case {
    let (mut dom, nodes, edges, e2n, coords, cdim) = if tet {
        let m = Tet3D::generate(nx.min(6), ny.min(6), nz);
        (m.dom, m.nodes, m.edges, m.e2n, m.coords, 3)
    } else {
        let m = Quad2D::generate(nx, ny);
        (m.dom, m.nodes, m.edges, m.e2n, m.coords, 2)
    };
    let n = dom.set(nodes).size;
    let s0: Vec<f64> = (0..n).map(|i| ((i * 11 + 5) % 19) as f64).collect();
    let d0 = dom.decl_dat("d0", nodes, 1, s0);
    let d1 = dom.decl_dat_zeros("d1", nodes, 1);
    let bump_loop = LoopSpec::new(
        "bump",
        nodes,
        vec![Arg::dat_direct(d0, AccessMode::Rw)],
        bump,
    );
    let chain = ChainSpec::new(
        "th",
        vec![
            LoopSpec::new(
                "produce",
                edges,
                vec![
                    Arg::dat_indirect(d0, e2n, 0, AccessMode::Read),
                    Arg::dat_indirect(d0, e2n, 1, AccessMode::Read),
                    Arg::dat_indirect(d1, e2n, 0, AccessMode::Inc),
                    Arg::dat_indirect(d1, e2n, 1, AccessMode::Inc),
                ],
                produce,
            ),
            LoopSpec::new(
                "consume",
                edges,
                vec![
                    Arg::dat_indirect(d1, e2n, 0, AccessMode::Read),
                    Arg::dat_indirect(d1, e2n, 1, AccessMode::Read),
                    Arg::dat_indirect(d0, e2n, 0, AccessMode::Inc),
                    Arg::dat_indirect(d0, e2n, 1, AccessMode::Inc),
                ],
                consume,
            ),
        ],
        None,
        &[],
    )
    .unwrap();
    Case {
        dom,
        nodes,
        coords,
        cdim,
        dats: [d0, d1],
        bump_loop,
        chain,
    }
}

fn layouts_for(case: &Case, nparts: usize) -> Vec<RankLayout> {
    let base = rcb_partition(&case.dom.dat(case.coords).data, case.cdim, nparts);
    let own = derive_ownership(&case.dom, case.nodes, base, nparts);
    build_layouts(&case.dom, &own, 2)
}

/// Two distributed iterations of bump + chain under `threading`, through
/// the planned or unplanned chain executor. Returns bit patterns of the
/// dats plus the per-rank traces.
fn run_dist(
    case: &Case,
    dom: &mut Domain,
    layouts: &[RankLayout],
    threading: Threading,
    planned: bool,
) -> (Vec<RankTrace>, Vec<Vec<u64>>) {
    let opts = RunOptions::default().threading(threading);
    let out = run_distributed_with(dom, layouts, &opts, |env| {
        for _ in 0..2 {
            run_loop(env, &case.bump_loop)?;
            if planned {
                run_chain(env, &case.chain)?;
            } else {
                run_chain_unplanned(env, &case.chain)?;
            }
        }
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    let data = case
        .dats
        .iter()
        .map(|&d| dom.dat(d).data.iter().map(|x| x.to_bits()).collect())
        .collect();
    (out.traces, data)
}

/// The sequential reference of the same program: dat bit patterns.
fn run_seq(case: &Case) -> Vec<Vec<u64>> {
    let mut dom = case.dom.clone();
    for _ in 0..2 {
        seq::run_loop(&mut dom, &case.bump_loop);
        for l in &case.chain.loops {
            seq::run_loop(&mut dom, l);
        }
    }
    case.dats
        .iter()
        .map(|&d| dom.dat(d).data.iter().map(|x| x.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Planned chains under 1/2/4 pool threads are bitwise identical to
    /// the sequential reference AND trace-equivalent (same loop records,
    /// same chain records, same exchange totals) to the single-threaded
    /// planned run. Thread count only ever adds `threads` records.
    #[test]
    fn threaded_planned_chain_bitwise_and_trace_equal(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 2usize..4,
        nparts in 2usize..5,
        tet in proptest::bool::ANY,
    ) {
        let case = build_case(nx, ny, nz, tet);
        let seq_bits = run_seq(&case);

        let mut dom_ref = case.dom.clone();
        let layouts = layouts_for(&case, nparts);
        let (traces_ref, bits_ref) =
            run_dist(&case, &mut dom_ref, &layouts, Threading::single(), true);
        prop_assert_eq!(&bits_ref, &seq_bits, "single-threaded planned != seq");
        for t in &traces_ref {
            prop_assert!(t.threads.is_empty(), "rank {}: unexpected ThreadRec", t.rank);
        }

        for n_threads in [1usize, 2, 4] {
            let threading = Threading { n_threads, block_size: 4, auto_block: false };
            let mut dom = case.dom.clone();
            let (traces, bits) = run_dist(&case, &mut dom, &layouts, threading, true);
            prop_assert_eq!(&bits, &seq_bits, "{} threads: data != seq", n_threads);
            for (t, tr) in traces.iter().zip(&traces_ref) {
                prop_assert_eq!(&t.loops, &tr.loops, "rank {} loop records", t.rank);
                prop_assert_eq!(&t.chains, &tr.chains, "rank {} chain records", t.rank);
                prop_assert_eq!(t.total_msgs(), tr.total_msgs());
                prop_assert_eq!(t.total_bytes(), tr.total_bytes());
                if n_threads == 1 {
                    prop_assert!(t.threads.is_empty());
                } else {
                    // Repeat invocations re-color nothing: at most one
                    // coloring build per (plan, loop, phase range) plus
                    // one per standalone loop signature — every further
                    // colored execution is a cache hit.
                    let bound = t.plan.misses * 2 * case.chain.len() as u64 + 2;
                    prop_assert!(
                        t.plan.color_misses <= bound,
                        "rank {}: {:?} exceeds {}", t.rank, t.plan, bound
                    );
                }
            }
        }
    }

    /// The unplanned distributed path (standalone per-rank coloring
    /// cache, no chain plan) obeys the same contract: 2- and 4-thread
    /// runs are bitwise identical to its single-threaded run and to the
    /// sequential reference.
    #[test]
    fn threaded_unplanned_chain_bitwise_equal(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 2usize..4,
        nparts in 2usize..4,
        tet in proptest::bool::ANY,
    ) {
        let case = build_case(nx, ny, nz, tet);
        let seq_bits = run_seq(&case);

        let layouts = layouts_for(&case, nparts);
        let mut dom_ref = case.dom.clone();
        let (_, bits_ref) =
            run_dist(&case, &mut dom_ref, &layouts, Threading::single(), false);
        prop_assert_eq!(&bits_ref, &seq_bits, "single-threaded unplanned != seq");

        for n_threads in [2usize, 4] {
            let threading = Threading { n_threads, block_size: 4, auto_block: false };
            let mut dom = case.dom.clone();
            let (_, bits) = run_dist(&case, &mut dom, &layouts, threading, false);
            prop_assert_eq!(&bits, &seq_bits, "{} threads: data != seq", n_threads);
        }
    }
}

// Deterministic (non-property) check that the threaded path actually
// engages on a mesh big enough to exceed the block size, so the
// properties above aren't vacuously comparing sequential fallbacks.
#[test]
fn threaded_path_engages_on_large_mesh() {
    let case = build_case(12, 12, 2, false);
    let layouts = layouts_for(&case, 2);
    let mut dom = case.dom.clone();
    let threading = Threading {
        n_threads: 4,
        block_size: 8,
        auto_block: false,
    };
    let (traces, bits) = run_dist(&case, &mut dom, &layouts, threading, true);
    assert_eq!(bits, run_seq(&case));
    assert!(
        traces.iter().any(|t| !t.threads.is_empty()),
        "no rank recorded a threaded execution"
    );
    for t in &traces {
        for rec in &t.threads {
            assert_eq!(rec.n_threads, 4);
            assert_eq!(rec.level_ns.len(), rec.n_levels);
            assert!(rec.n_chunks > 0 && rec.n_levels > 0);
        }
    }
}

/// Owner-compute lowering on one domain, checked three ways at 1–4
/// threads: the independent validator accepts the schedule, the
/// schedule is one level of at most one chunk per thread, and running
/// it on scoped threads is bitwise equal to `core::seq` — on ordered
/// and shuffled meshes, with an edge whose two map entries coincide,
/// and for a loop incrementing two target sets.
fn check_owner_lowering(dom: &Domain, spec: &LoopSpec, bits: &dyn Fn(&Domain) -> Vec<Vec<u64>>) {
    assert!(
        eligible(&spec.sig()),
        "`{}` should be owner-eligible",
        spec.name
    );
    let mut want = dom.clone();
    seq::run_loop(&mut want, spec);
    let sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
    let acc = conflict_accesses(dom.maps(), &spec.sig());
    let n = dom.set(spec.set).size;
    for threads in 1..=4 {
        let sched = owner_schedule(0, n, threads, &sizes, &acc);
        assert!(
            is_valid_owner_schedule(&sched, 0, n, &sizes, &acc),
            "`{}` @{threads}: invalid owner schedule",
            spec.name
        );
        assert_eq!(sched.n_levels(), 1);
        assert!(sched.n_chunks() <= threads);
        let mut got = dom.clone();
        run_loop_schedule_threads(&mut got, spec, &sched, threads);
        assert_eq!(bits(&got), bits(&want), "`{}` @{threads} != seq", spec.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn owner_lowering_bitwise_equals_seq(
        nx in 3usize..12,
        ny in 3usize..12,
        shuffle in proptest::option::of(0u64..1 << 32),
        coincident in proptest::bool::ANY,
    ) {
        let case = OwnerCase::build(nx, ny, shuffle, coincident);
        for spec in [&case.flux, &case.two_set] {
            check_owner_lowering(&case.dom, spec, &|d| case.bits(d));
        }
        prop_assert!(!eligible(&case.relax.sig()));
    }

    /// MG-CFD's `restrict`: iterates fine nodes, reads them directly and
    /// increments coarse nodes through the multigrid map — a loop whose
    /// arguments span two sets — with the fine nodes shuffled.
    #[test]
    fn owner_lowering_bitwise_on_mgcfd_restrict(n in 3usize..7, seed in 0u64..1 << 32) {
        let mut app = op2::mgcfd::MgCfd::new(op2::mgcfd::MgCfdParams::small(n));
        let fine = app.levels[0];
        op2::mesh::shuffle::shuffle_set(&mut app.dom, fine.ids.nodes, seed);
        for (i, v) in app.dom.dat_mut(fine.flux).data.iter_mut().enumerate() {
            *v = (i as f64 * 0.713).cos();
        }
        let coarse = app.levels[1].flux;
        let spec = app.restrict_loop(0);
        check_owner_lowering(&app.dom, &spec, &|d| {
            vec![d.dat(coarse).data.iter().map(|x| x.to_bits()).collect()]
        });
    }

    /// Through the distributed runtime at 1–4 pool threads: increment
    /// loops take the owner-compute path (one level, at most one chunk
    /// per thread), the indirect-`Rw` loop keeps the colored path, the
    /// results are bitwise equal to the single-threaded run — and to
    /// `core::seq` on one rank, where local numbering keeps the global
    /// order — and a rerun reproduces every `ThreadRec`,
    /// `redundant_iters` included, under `==`.
    #[test]
    fn runtime_owner_and_colored_paths_bitwise(
        nx in 8usize..14,
        ny in 8usize..14,
        nparts in 1usize..3,
        shuffle in proptest::option::of(0u64..1 << 32),
        coincident in proptest::bool::ANY,
    ) {
        let iters = 2;
        let case = OwnerCase::build(nx, ny, shuffle, coincident);
        let want = case.run_seq(iters);
        let layouts = case.layouts(nparts);
        let run = |n_threads: usize| {
            let mut dom = case.dom.clone();
            let threading = Threading { n_threads, block_size: 8, auto_block: false };
            let opts = RunOptions::default().threading(threading);
            let out = run_distributed_with(&mut dom, &layouts, &opts, |env| {
                for _ in 0..iters {
                    for spec in case.program() {
                        run_loop(env, spec)?;
                    }
                }
                Ok(())
            });
            assert!(out.all_ok(), "failures: {:?}", out.failures());
            (out.traces, case.bits(&dom))
        };
        let (traces, single) = run(1);
        prop_assert!(traces.iter().all(|t| t.threads.is_empty()));
        if nparts == 1 {
            prop_assert_eq!(&single, &want, "single-threaded run != seq");
        }
        for n_threads in 2..=4 {
            let (traces, bits) = run(n_threads);
            prop_assert_eq!(&bits, &single, "{} threads: data != 1 thread", n_threads);
            let recs: Vec<_> = traces.iter().flat_map(|t| &t.threads).collect();
            for r in &recs {
                if r.name == "relax" {
                    prop_assert_eq!(r.kind, SchedKind::Colored);
                    prop_assert_eq!(r.redundant_iters, 0);
                } else {
                    prop_assert_eq!(r.kind, SchedKind::Owner, "`{}`", &r.name);
                    prop_assert_eq!(r.n_levels, 1);
                    prop_assert!(r.n_chunks <= n_threads);
                    prop_assert_eq!(r.block_size, 0);
                }
            }
            prop_assert!(recs.iter().any(|r| r.kind == SchedKind::Owner), "owner path never engaged");
            prop_assert!(recs.iter().any(|r| r.kind == SchedKind::Colored), "colored path never engaged");
            let (again, _) = run(n_threads);
            for (a, b) in traces.iter().zip(&again) {
                prop_assert_eq!(&a.threads, &b.threads, "rank {}: ThreadRecs differ on replay", a.rank);
            }
        }
    }
}
