//! Workloads: seeded inputs built through the apps' public constructors,
//! plus the timed set-up (mesh generation, partition, ownership, layouts).

use hydra_sim::{ExtentMode, Hydra, HydraParams};
use mg_cfd::{MgCfd, MgCfdParams};
use op2_core::{ChainSpec, DatId, Domain, LoopSpec, SetId};
use op2_mesh::shuffle::apply_permutation;
use op2_partition::{build_layouts, derive_ownership, rcb_partition, rib_partition, RankLayout};
use std::time::Instant;

/// Width of the windows the seed shuffles edge numbers within: small
/// enough that locality (and so each workload's character) is the same on
/// every seed, large enough that colour conflicts and increment order
/// differ.
const SHUFFLE_WINDOW: usize = 32;

/// One step of an app's program, in the apps' CA form (chains kept whole;
/// configurations that do not run chains flatten them to loops).
pub enum Step {
    Loop(LoopSpec),
    Chain(ChainSpec),
}

impl Step {
    /// The loops this step executes, in order.
    pub fn loops(&self) -> &[LoopSpec] {
        match self {
            Step::Loop(l) => std::slice::from_ref(l),
            Step::Chain(c) => &c.loops,
        }
    }
}

#[derive(Clone, Copy)]
enum App {
    MgCfd { n: usize, nchains: usize },
    Hydra { n: usize, stages: usize },
}

/// A named workload: which app, at which size, and how many iterations
/// one configuration run executes.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    app: App,
    /// Iterations per configuration run (the first is warm-up).
    pub iters: usize,
    /// Set-up repetitions per benchmark run, spread over the measurement
    /// (`setup_s` is their median).
    pub setup_reps: usize,
}

/// The benchmark's workloads. Full size for measurement, tiny size for
/// the smoke mode the benchmark's own tests use.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let (app, iters, setup_reps) = match (name, smoke) {
        ("mgcfd-large", false) => (App::MgCfd { n: 40, nchains: 2 }, 6, 15),
        ("hydra-small", false) => (App::Hydra { n: 12, stages: 5 }, 8, 61),
        ("mgcfd-chain16", false) => (App::MgCfd { n: 24, nchains: 8 }, 6, 31),
        ("mgcfd-large", true) => (App::MgCfd { n: 8, nchains: 2 }, 3, 2),
        ("hydra-small", true) => (App::Hydra { n: 5, stages: 2 }, 3, 2),
        ("mgcfd-chain16", true) => (App::MgCfd { n: 7, nchains: 8 }, 3, 2),
        _ => return None,
    };
    let name = WORKLOADS.iter().copied().find(|w| *w == name)?;
    Some(Workload {
        name,
        app,
        iters,
        setup_reps,
    })
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["mgcfd-large", "hydra-small", "mgcfd-chain16"];

/// A seeded, set-up program ready to run under any configuration.
pub struct Program {
    /// The seeded input; every configuration run starts from a clone.
    pub dom: Domain,
    /// Steps run once before the first iteration.
    pub init: Vec<Step>,
    /// One time-marching iteration.
    pub iteration: Vec<Step>,
    /// The convergence monitor closing every iteration (a global
    /// reduction).
    pub monitor: LoopSpec,
    /// Divisor of the monitor's sum: the monitored value is
    /// `sqrt(sum / monitor_n)`.
    pub monitor_n: f64,
    /// The final flow field compared against the sequential reference.
    pub check: Vec<DatId>,
    /// Two-rank layouts.
    pub layouts2: Vec<RankLayout>,
    /// One-rank layout.
    pub layouts1: Vec<RankLayout>,
    /// The set the partitioner divides, and the halo depth layouts are
    /// built with.
    base_set: SetId,
    depth: usize,
}

/// Median set-up phase times over the repetitions of one benchmark run.
#[derive(Default, Clone)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub gen_s: Vec<f64>,
    pub partition_s: Vec<f64>,
    pub ownership_s: Vec<f64>,
    pub layouts_s: Vec<f64>,
}

/// Build `w`'s program from `seed`, timing the set-up as the first entry
/// of the returned [`SetupTimes`]. The 1-rank layout `ca_r1t2` needs is
/// built afterwards and is not timed.
pub fn set_up(w: &Workload, seed: u64) -> (Program, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut program = time_set_up(w, seed, &mut times);
    let own = derive_ownership(
        &program.dom,
        program.base_set,
        vec![0; program.dom.set(program.base_set).size],
        1,
    );
    program.layouts1 = build_layouts(&program.dom, &own, program.depth);
    (program, times)
}

/// One timed set-up repetition: builds the same program [`set_up`] does
/// (without the 1-rank layout) and appends its phase times to `times`.
pub fn time_set_up(w: &Workload, seed: u64, times: &mut SetupTimes) -> Program {
    let t0 = Instant::now();
    let (program, gen, part, own, lay) = build(w.app, seed);
    times.total_s.push(t0.elapsed().as_secs_f64());
    times.gen_s.push(gen);
    times.partition_s.push(part);
    times.ownership_s.push(own);
    times.layouts_s.push(lay);
    program
}

/// Seeded renumbering of `set` within fixed windows (Fisher–Yates per
/// window, splitmix64 stream).
fn windowed_shuffle(dom: &mut Domain, set: SetId, seed: u64) {
    let n = dom.set(set).size;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for window in perm.chunks_mut(SHUFFLE_WINDOW) {
        for i in (1..window.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            window.swap(i, j);
        }
    }
    apply_permutation(dom, set, &perm);
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One timed set-up: returns the program and the generation, partition,
/// ownership and two-rank layout times.
fn build(app: App, seed: u64) -> (Program, f64, f64, f64, f64) {
    match app {
        App::MgCfd { n, nchains } => {
            let t = Instant::now();
            let mut params = MgCfdParams::small(n);
            params.nchains = nchains;
            let mut app = MgCfd::new(params);
            windowed_shuffle(&mut app.dom, app.levels[0].ids.edges, seed);
            let gen = secs(t);

            let fine = app.levels[0].ids;
            let t = Instant::now();
            let base = rcb_partition(&app.dom.dat(fine.coords).data, 3, 2);
            let part = secs(t);
            let t = Instant::now();
            let own = derive_ownership(&app.dom, fine.nodes, base, 2);
            let ownership = secs(t);
            let t = Instant::now();
            let layouts2 = build_layouts(&app.dom, &own, 2);
            let lay = secs(t);

            let init = (0..params.levels)
                .map(|l| Step::Loop(app.init_loop(l)))
                .collect();
            let iteration = app
                .iteration(true)
                .into_iter()
                .map(|s| match s {
                    mg_cfd::Step::Loop(l) => Step::Loop(l),
                    mg_cfd::Step::Chain(c) => Step::Chain(c),
                })
                .collect();
            let monitor = app.rms_loop();
            let monitor_n = app.dom.set(fine.nodes).size as f64;
            let check = vec![app.levels[0].q, app.dres, app.dflux];
            let program = Program {
                dom: app.dom,
                init,
                iteration,
                monitor,
                monitor_n,
                check,
                layouts2,
                layouts1: Vec::new(),
                base_set: fine.nodes,
                depth: 2,
            };
            (program, gen, part, ownership, lay)
        }
        App::Hydra { n, stages } => {
            let t = Instant::now();
            let mut app = Hydra::new(HydraParams::small(n));
            windowed_shuffle(&mut app.mesh.dom, app.mesh.edges, seed);
            let gen = secs(t);

            let depth = app.required_depth(ExtentMode::Safe);
            let t = Instant::now();
            let base = rib_partition(app.mesh.node_coords(), 3, 2);
            let part = secs(t);
            let t = Instant::now();
            let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, 2);
            let ownership = secs(t);
            let t = Instant::now();
            let layouts2 = build_layouts(&app.mesh.dom, &own, depth);
            let lay = secs(t);

            let convert = |steps: Vec<hydra_sim::app::Step>| -> Vec<Step> {
                steps
                    .into_iter()
                    .map(|s| match s {
                        hydra_sim::app::Step::Loop(l) => Step::Loop(l),
                        // Safe extents: every chain is strict.
                        hydra_sim::app::Step::Chain(c, _relaxed) => Step::Chain(c),
                    })
                    .collect()
            };
            let init = convert(app.setup(true, ExtentMode::Safe));
            let iteration = convert(app.rk_iteration(true, ExtentMode::Safe, stages));
            let monitor = app.norm_loop();
            let monitor_n = app.mesh.dom.set(app.mesh.nodes).size as f64;
            let check = vec![app.qp, app.qo, app.vres, app.jac];
            let base_set = app.mesh.nodes;
            let program = Program {
                dom: app.mesh.dom,
                init,
                iteration,
                monitor,
                monitor_n,
                check,
                layouts2,
                layouts1: Vec::new(),
                base_set,
                depth,
            };
            (program, gen, part, ownership, lay)
        }
    }
}
