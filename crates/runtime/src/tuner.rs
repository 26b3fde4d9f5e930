//! Model-driven adaptive backend dispatch — §3.2 as a live control loop.
//!
//! The paper closes (§5) observing that deciding *when* to enable the CA
//! back-end "would be the challenge in real-world applications". The
//! [`Tuner`] answers it online: the first time a chain is seen it runs
//! the chain *flattened* as standard Alg 1 loops, timing each to measure
//! the per-iteration cost `g`, assembles the chain's Table 2 components
//! from this rank's layout, agrees on the critical-path values across
//! ranks with a max-allreduce (the same max-over-ranks the offline
//! [`op2_model::chain_components`] takes), classifies the chain with
//! [`op2_model::classify`], and dispatches every later invocation to the
//! winning backend — standard per-loop OP2, the CA chain executor, or
//! the sparse-tiled CA executor.
//!
//! Determinism: every scalar entering the decision is allreduced, so all
//! ranks pick the same backend — no rank can diverge into a different
//! communication pattern (which would deadlock the rendezvous). Measured
//! wall-clock stays inside the tuner and its [`TunerRec`]; the
//! loop/chain trace records remain replay-deterministic.
//!
//! The override env var `OP2_TUNER=auto|op2|ca|tiled` (see
//! [`TunerMode::from_env`]) forces a backend, bypassing calibration.

use crate::env::RankEnv;
use crate::error::RuntimeError;
use crate::exec::{run_chain, run_chain_tiled, run_loop};
use crate::plan::chain_signature;
use crate::trace::TunerRec;
use op2_core::access::GblOp;
use op2_core::ChainSpec;
use op2_model::components::ChainShape;
use op2_model::{
    classify, shape_from_sigs, t_ca_chain, t_op2_chain, CaChainInput, ChainComponents, LoopInput,
    Machine,
};
use std::collections::HashMap;
use std::time::Instant;

/// Minimum traced exchange traffic before the measured per-byte pack
/// cost replaces the model constant. Below this, the per-byte figure is
/// mostly fixed per-exchange overhead and would mis-price Eq 3.
pub const PACK_CAL_MIN_BYTES: usize = 64 << 10;

/// Which executor a chain is dispatched to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Flattened: each loop as standard Alg 1 with per-loop exchanges.
    Op2,
    /// The CA chain executor (Alg 2, grouped multi-level exchange).
    #[default]
    Ca,
    /// CA plus §2.2 sparse tiling within the rank.
    Tiled,
}

/// Dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TunerMode {
    /// Calibrate per chain, decide from the model (the default).
    #[default]
    Auto,
    /// Always flatten to standard Alg 1 loops.
    ForceOp2,
    /// Always run the CA chain executor.
    ForceCa,
    /// Always run the tiled CA executor.
    ForceTiled,
}

impl TunerMode {
    /// Parse an `OP2_TUNER`-style override: `auto` (or empty/absent) /
    /// `op2` / `ca` / `tiled`. Anything else is a typed
    /// [`ConfigError::Tuner`] — a silent fallback would mask a typo'd
    /// override.
    pub fn parse(raw: Option<&str>) -> Result<TunerMode, crate::error::ConfigError> {
        crate::env::parse_knob(
            raw,
            |v| match v {
                "" | "auto" => Some(TunerMode::Auto),
                "op2" => Some(TunerMode::ForceOp2),
                "ca" => Some(TunerMode::ForceCa),
                "tiled" => Some(TunerMode::ForceTiled),
                _ => None,
            },
            |value| crate::error::ConfigError::Tuner { value },
        )
        .map(|m| m.unwrap_or_default())
    }

    /// [`TunerMode::parse`] on the `OP2_TUNER` environment variable.
    pub fn try_from_env() -> Result<TunerMode, crate::error::ConfigError> {
        let raw = std::env::var("OP2_TUNER").ok();
        TunerMode::parse(raw.as_deref())
    }

    /// [`TunerMode::try_from_env`], panicking with the typed error's
    /// message on a malformed value (the non-`Result` entry point the
    /// drivers use, mirroring [`crate::threads::Threading::from_env`]).
    pub fn from_env() -> TunerMode {
        TunerMode::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Per-rank adaptive dispatcher. Each rank owns one (decisions are
/// rank-agreed by construction, so the per-rank maps stay identical).
pub struct Tuner {
    mach: Machine,
    mode: TunerMode,
    /// Tile count for the tiled backend (forced or chosen).
    n_tiles: usize,
    /// When set, auto mode may promote a model-approved CA chain to the
    /// tiled executor. The §3.2 model carries no cache-locality term, so
    /// tiling is an explicit opt-in rather than a modelled choice.
    tile_auto: bool,
    /// Test hook: pin the per-iteration cost `g` instead of measuring
    /// it, making the calibration decision a pure function of the mesh,
    /// partition and machine (comparable against `profit::classify`).
    fixed_g: Option<f64>,
    /// Decided backend per chain signature.
    decisions: HashMap<u64, Backend>,
}

impl Tuner {
    /// A tuner for `mach` with the given dispatch policy.
    pub fn new(mach: Machine, mode: TunerMode) -> Tuner {
        Tuner {
            mach,
            mode,
            n_tiles: 4,
            tile_auto: false,
            fixed_g: None,
            decisions: HashMap::new(),
        }
    }

    /// Use `n_tiles` intra-rank tiles and let auto mode promote
    /// model-approved CA chains to the tiled executor.
    pub fn with_tiles(mut self, n_tiles: usize) -> Tuner {
        self.n_tiles = n_tiles;
        self.tile_auto = true;
        self
    }

    /// Pin the per-iteration compute cost (seconds) instead of measuring
    /// it — test hook for deterministic decisions.
    pub fn with_fixed_g(mut self, g: f64) -> Tuner {
        self.fixed_g = Some(g);
        self
    }

    /// The decided backend for `chain`, if calibration has run.
    pub fn decision(&self, chain: &ChainSpec) -> Option<Backend> {
        self.decisions
            .get(&chain_signature(chain, false))
            .copied()
    }

    /// Execute `chain` through the adaptive dispatcher: forced modes go
    /// straight to their backend; auto mode calibrates on first sight
    /// (measuring the chain as flattened Alg 1 loops) and dispatches
    /// every repeat to the decided backend.
    pub fn run_chain(
        &mut self,
        env: &mut RankEnv<'_>,
        chain: &ChainSpec,
    ) -> Result<(), RuntimeError> {
        match self.mode {
            TunerMode::ForceOp2 => run_flattened(env, chain),
            TunerMode::ForceCa => run_chain(env, chain),
            TunerMode::ForceTiled => run_chain_tiled(env, chain, self.n_tiles),
            TunerMode::Auto => {
                let sig = chain_signature(chain, false);
                match self.decisions.get(&sig) {
                    Some(&b) => self.dispatch(env, chain, b),
                    None => self.calibrate(env, chain, sig),
                }
            }
        }
    }

    fn dispatch(
        &mut self,
        env: &mut RankEnv<'_>,
        chain: &ChainSpec,
        backend: Backend,
    ) -> Result<(), RuntimeError> {
        match backend {
            Backend::Op2 => run_flattened(env, chain),
            Backend::Ca => run_chain(env, chain),
            Backend::Tiled => run_chain_tiled(env, chain, self.n_tiles),
        }
    }

    /// First sight of a chain: execute it flattened (the measurement is
    /// also a real execution — no iteration is wasted), time each loop
    /// for `g`, agree on critical-path components across ranks, classify
    /// with the §3.2 model and record the decision.
    fn calibrate(
        &mut self,
        env: &mut RankEnv<'_>,
        chain: &ChainSpec,
        sig: u64,
    ) -> Result<(), RuntimeError> {
        // Entry validity *before* any loop runs: the CA import plan the
        // model prices is the one this state would produce.
        let entry_valid: Vec<u8> = env.valid.clone();

        // Measure `g` with threading *suspended*: the model's threaded
        // extension derives the `t`-way cost as `g/t + coloring
        // overhead` from the sequential `g` — measuring with the
        // threaded executor live would count the speedup twice.
        let threading = env.threads.opts;
        env.threads.opts = crate::threads::Threading::single();
        let t0 = Instant::now();
        let mut g = Vec::with_capacity(chain.len());
        let mut failed = None;
        for spec in &chain.loops {
            let l0 = Instant::now();
            if let Err(e) = run_loop(env, spec) {
                failed = Some(e);
                break;
            }
            let dt = l0.elapsed().as_secs_f64();
            let rec = env.trace.loops.last().expect("run_loop pushed a record");
            let iters = (rec.core_iters + rec.halo_iters).max(1);
            g.push(match self.fixed_g {
                Some(fg) => fg,
                None => (dt / iters as f64).max(1e-12),
            });
        }
        let measured = t0.elapsed();
        env.threads.opts = threading;
        if let Some(e) = failed {
            return Err(e);
        }

        // Barrier cost estimate for the thread-aware model: the widest
        // schedule any loop of the chain would execute (levels = pool
        // barriers per loop). Rank-local here, allreduced below.
        let threads = threading.n_threads;
        let n_colors_local = if threads > 1 {
            chain
                .loops
                .iter()
                .zip(&chain.halo_ext)
                .map(|(spec, &ext)| {
                    let end = env.layout.sets[spec.set.idx()].exec_end(ext);
                    env.threaded_levels(spec, 0, end)
                })
                .max()
                .unwrap_or(1)
        } else {
            1
        };

        // Measured per-barrier cost of *this rank's own pool* — an empty
        // dispatch/drain/latch round — replacing the model's baked-in
        // [`op2_model::COLOR_SYNC_S`] constant. Zero when sequential (no
        // pool, no barriers).
        let sync_local = if threads > 1 {
            crate::threads::measure_sync_s(&env.threads.pool(), 32)
        } else {
            0.0
        };

        // Tile conflict levels of the chain under the configured tile
        // count — the barrier count of the threaded-tiled executor. Only
        // priced when tiling may be chosen; building it here warms the
        // plan's tile-schedule cache for the dispatches that follow.
        let tile_levels_local = if self.tile_auto && threads > 1 {
            let plan = crate::plan::plan_for(env, chain, false);
            let (tc, _) = plan.tile_schedule(env.layout, chain, self.n_tiles);
            tc.sched.n_levels()
        } else {
            0
        };

        // Measured per-byte pack cost of this rank's traced exchanges so
        // far (the calibration run included) — replaces Eq 3's constant
        // `c` when non-degenerate. A per-byte figure extrapolated from a
        // few KiB of traffic is dominated by fixed per-exchange overhead
        // (timer reads, gather setup), so the measurement only counts
        // once enough bytes have moved. Rank-local here, allreduced
        // below.
        let (pack_ns_total, pack_bytes_total) = env
            .trace
            .loops
            .iter()
            .map(|l| &l.exch)
            .chain(env.trace.chains.iter().map(|c| &c.exch))
            .fold((0u64, 0usize), |(ns, by), e| {
                (ns + e.pack_ns, by + e.bytes)
            });
        let pack_local = if pack_bytes_total >= PACK_CAL_MIN_BYTES {
            pack_ns_total as f64 / 1e9 / pack_bytes_total as f64
        } else {
            0.0
        };

        let sigs = chain.sigs();
        // Agree on g (critical path), the color count, the measured sync
        // cost, the tile level count and the pack cost across ranks
        // before shaping, so shape and decision are rank-identical.
        let tag = env.next_tag();
        g.push(n_colors_local as f64);
        g.push(sync_local);
        g.push(tile_levels_local as f64);
        g.push(pack_local);
        env.comm.allreduce(&mut g, tag, GblOp::Max)?;
        let pack_s = g.pop().expect("pack cost appended above");
        let n_tile_levels = g.pop().expect("tile levels appended above") as usize;
        let sync_s = g.pop().expect("sync cost appended above");
        let n_colors = g.pop().expect("color count appended above") as usize;
        // A degenerate measurement (clock too coarse) falls back to the
        // model constant rather than pricing barriers as free.
        let sync_s = if sync_s > 0.0 {
            sync_s
        } else {
            op2_model::COLOR_SYNC_S
        };
        let shape = shape_from_sigs(env.dom, &chain.name, &sigs, &chain.halo_ext, &g, &|d| {
            entry_valid[d.idx()] as usize
        });
        let comp = agreed_components(env, &shape)?;
        // `g → g/t + coloring overhead`: compute shrinks with threads,
        // communication doesn't — CA turns profitable earlier on
        // threaded ranks.
        let comp = if threads > 1 {
            comp.with_threads(threads, n_colors, sync_s)
        } else {
            comp
        };
        // A degenerate measurement (no exchange traffic yet, clock too
        // coarse) keeps the model's constant `c` instead.
        let comp = if pack_s > 0.0 {
            comp.with_pack_cost(pack_s)
        } else {
            comp
        };

        let prof = classify(&self.mach, &comp);
        let backend = if !prof.enable_ca {
            Backend::Op2
        } else if self.tile_auto {
            if threads > 1 {
                // Model-driven colored-vs-tiled arm: the tiled executor
                // pays one barrier per conflict level per chain, the
                // colored one `n_colors` per loop — fewer total barriers
                // wins (tiling's locality benefit is unmodelled, so ties
                // go to tiled).
                match op2_model::choose_threaded_backend(
                    threads,
                    chain.len(),
                    n_colors,
                    n_tile_levels,
                ) {
                    op2_model::ThreadedBackend::Tiled => Backend::Tiled,
                    op2_model::ThreadedBackend::Colored => Backend::Ca,
                }
            } else {
                // Sequential ranks: tiling is a pure cache-locality
                // opt-in, exactly as before the threaded arm existed.
                Backend::Tiled
            }
        } else {
            Backend::Ca
        };
        self.decisions.insert(sig, backend);

        let t_op2 = t_op2_chain(&self.mach, &comp.op2_loops);
        let t_ca = t_ca_chain(&self.mach, &comp.ca);
        env.trace.tuner.push(TunerRec {
            job: env.job,
            chain: chain.name.clone(),
            backend,
            class: prof.class.into(),
            t_op2_pred_ns: (t_op2 * 1e9).round() as u64,
            t_ca_pred_ns: (t_ca * 1e9).round() as u64,
            t_measured_ns: measured.as_nanos() as u64,
            n_threads: threads,
            sync_ns: (sync_s * 1e9).round() as u64 * u64::from(threads > 1),
            gain_milli_pct: (prof.gain_pct * 1000.0).round() as i64,
        });
        Ok(())
    }
}

/// Standard-OP2 fallback: the chain as individual Alg 1 loops.
fn run_flattened(env: &mut RankEnv<'_>, chain: &ChainSpec) -> Result<(), RuntimeError> {
    for spec in &chain.loops {
        run_loop(env, spec)?;
    }
    Ok(())
}

/// Assemble this chain's [`ChainComponents`] with every scalar agreed
/// across ranks by max-allreduce — exactly the per-component
/// max-over-ranks that [`op2_model::chain_components`] takes over
/// [`op2_partition::HaloStats`], computed from the live [`RankLayout`]
/// instead of a pre-collected stats table.
///
/// [`RankLayout`]: op2_partition::layout::RankLayout
fn agreed_components(
    env: &mut RankEnv<'_>,
    shape: &ChainShape,
) -> Result<ChainComponents, RuntimeError> {
    let layout = env.layout;

    // Local contribution to each component, flattened in a fixed order:
    // [p, m_r, then per loop: op2_core, op2_halo, loop_bytes, ca_core,
    // ca_halo].
    let mut vals: Vec<f64> = Vec::with_capacity(2 + shape.loops.len() * 5);
    vals.push(layout.neighbors.len() as f64);

    let recv_bytes_to = |nbr: &op2_partition::layout::NeighborPlan,
                         set: usize,
                         bytes: usize,
                         depth: usize| {
        nbr.recv
            .iter()
            .filter(|seg| seg.set.idx() == set && (seg.level as usize) <= depth)
            .map(|seg| seg.len as usize * bytes)
            .sum::<usize>()
    };
    let m_r = layout
        .neighbors
        .iter()
        .map(|nbr| {
            shape
                .ca_imports
                .iter()
                .map(|&(set, bytes, depth)| recv_bytes_to(nbr, set, bytes, depth))
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    vals.push(m_r as f64);

    for l in &shape.loops {
        let sl = &layout.sets[l.set];
        let core = sl.core_end(0);
        let ring1 = sl.import_level_counts.first().copied().unwrap_or(0);
        let s_halo = sl.n_owned - core + if l.op2_extent >= 1 { ring1 } else { 0 };
        let loop_bytes = layout
            .neighbors
            .iter()
            .map(|nbr| {
                l.op2_exch
                    .iter()
                    .map(|&(set, bytes)| recv_bytes_to(nbr, set, bytes, 1))
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0);

        let k = l.core_depth.min(sl.core_prefix.len() - 1);
        let ca_core = sl.core_prefix[k];
        let rings: usize = sl.import_level_counts.iter().take(l.extent).sum();
        let ca_halo = sl.n_owned - ca_core + rings;

        vals.push(core as f64);
        vals.push(s_halo as f64);
        vals.push(loop_bytes as f64);
        vals.push(ca_core as f64);
        vals.push(ca_halo as f64);
    }

    let tag = env.next_tag();
    env.comm.allreduce(&mut vals, tag, GblOp::Max)?;

    // Reassemble with chain_components' arithmetic over the agreed
    // maxima.
    let p = vals[0] as usize;
    let m_r = vals[1] as usize;
    let mut op2_loops = Vec::with_capacity(shape.loops.len());
    let mut ca_loops = Vec::with_capacity(shape.loops.len());
    let mut op2_comm_bytes = 0.0;
    let (mut op2_core, mut op2_halo) = (0usize, 0usize);
    let (mut ca_core, mut ca_halo) = (0usize, 0usize);
    for (i, l) in shape.loops.iter().enumerate() {
        let base = 2 + i * 5;
        let s_core = vals[base] as usize;
        let s_halo = vals[base + 1] as usize;
        let loop_bytes = vals[base + 2] as usize;
        let c_core = vals[base + 3] as usize;
        let c_halo = vals[base + 4] as usize;
        let d = l.op2_exch.len();
        let m1 = if d == 0 { 0 } else { loop_bytes.div_ceil(2 * d) };
        op2_comm_bytes += p as f64 * loop_bytes as f64;
        op2_core += s_core;
        op2_halo += s_halo;
        op2_loops.push(LoopInput {
            g: l.g,
            s_core,
            s_halo,
            d,
            p,
            m1_bytes: m1,
        });
        ca_core += c_core;
        ca_halo += c_halo;
        ca_loops.push((l.g, c_core, c_halo));
    }
    Ok(ChainComponents {
        op2_loops,
        ca: CaChainInput {
            loops: ca_loops,
            p,
            m_r_bytes: m_r,
            pack_s_per_byte: None,
        },
        op2_comm_bytes,
        op2_core,
        op2_halo,
        ca_comm_bytes: p as f64 * m_r as f64,
        ca_core,
        ca_halo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_default_is_auto() {
        assert_eq!(TunerMode::default(), TunerMode::Auto);
    }
}
