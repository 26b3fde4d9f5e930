//! The six configurations, each driven only through the runtime's stable
//! entry points: `seq::run_loop`, `run_distributed_with`,
//! `exec::{run_loop, run_chain, run_chain_tiled}` and `Tuner::run_chain`.

use crate::spans::{RunSpans, Span, SpanLog};
use crate::workload::{Program, Step};
use op2_core::{ChainSpec, Domain, LoopSpec};
use op2_model::Machine;
use op2_runtime::exec::{run_chain, run_chain_tiled, run_loop};
use op2_runtime::{
    run_distributed_with, RankEnv, RankTrace, RunOptions, RuntimeError, Threading, Tuner, TunerMode,
};
use std::sync::Mutex;
use std::time::Instant;

/// Intra-rank sparse tiles for `tiled_r2`.
pub const TILES_PER_RANK: usize = 8;

/// Relative tolerance for multi-rank configurations, the one
/// `tests/apps_end_to_end.rs` uses.
pub const REL_TOL: f64 = 1e-10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    Seq,
    Op2R2,
    CaR2,
    CaR1T2,
    TiledR2,
    AutoR2,
}

pub const CONFIGS: [Config; 6] = [
    Config::Seq,
    Config::Op2R2,
    Config::CaR2,
    Config::CaR1T2,
    Config::TiledR2,
    Config::AutoR2,
];

impl Config {
    pub fn name(self) -> &'static str {
        match self {
            Config::Seq => "seq",
            Config::Op2R2 => "op2_r2",
            Config::CaR2 => "ca_r2",
            Config::CaR1T2 => "ca_r1t2",
            Config::TiledR2 => "tiled_r2",
            Config::AutoR2 => "auto_r2",
        }
    }

    pub fn parse(s: &str) -> Option<Config> {
        CONFIGS.into_iter().find(|c| c.name() == s)
    }

    /// One-rank configurations must match `core::seq` bitwise.
    pub fn bitwise(self) -> bool {
        matches!(self, Config::Seq | Config::CaR1T2)
    }
}

/// Where each rank's trace stood when iteration 1 ended: records past
/// these positions belong to steady iterations.
#[derive(Default, Clone, Copy, Debug)]
pub struct Mark {
    pub loops: usize,
    pub chains: usize,
    pub threads: usize,
    pub payload_allocs: u64,
}

/// Everything one configuration run produced.
pub struct RunRecord<'p> {
    pub config: Config,
    pub traced: bool,
    /// Run in the first round, which warms the allocator and is left
    /// out of every timing (its output is still checked).
    pub warmup: bool,
    /// Failure reason: a rank failure, a panic, or an output check miss.
    pub error: Option<String>,
    /// Wall time of each iteration on rank 0, iteration 1 first.
    pub iter_s: Vec<f64>,
    /// From the call into the run to the end of iteration 1 on rank 0.
    pub first_iter_s: f64,
    /// `run_distributed_with` call → rank-0 closure entry.
    pub spawn_gather_s: f64,
    /// Rank-0 closure exit → `run_distributed_with` return.
    pub scatter_s: f64,
    /// Final convergence-monitor value.
    pub monitor: f64,
    /// Final values of the program's check dats.
    pub out: Vec<Vec<f64>>,
    /// Per-rank runtime traces (empty for `seq`).
    pub traces: Vec<RankTrace>,
    pub marks: Vec<Mark>,
    pub spans: Option<RunSpans<'p>>,
}

impl RunRecord<'_> {
    /// A run that panicked outside the ranks (no output, no traces).
    pub fn failed(config: Config, traced: bool, error: String) -> Self {
        RunRecord {
            config,
            traced,
            warmup: false,
            error: Some(error),
            iter_s: Vec::new(),
            first_iter_s: 0.0,
            spawn_gather_s: 0.0,
            scatter_s: 0.0,
            monitor: 0.0,
            out: Vec::new(),
            traces: Vec::new(),
            marks: Vec::new(),
            spans: None,
        }
    }

    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Steady iteration times (every iteration after the first).
    pub fn steady(&self) -> &[f64] {
        self.iter_s.get(1..).unwrap_or(&[])
    }
}

fn timed<'p, T>(
    log: &mut Option<SpanLog<'p>>,
    kind: &'static str,
    label: &'p str,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        None => f(),
        Some(l) => {
            l.open(kind, label);
            let r = f();
            l.close();
            r
        }
    }
}

fn first_gbl(gbls: &[Vec<f64>]) -> f64 {
    gbls.first().and_then(|g| g.first()).copied().unwrap_or(0.0)
}

/// How one configuration executes loops and chains.
trait Exec<'p> {
    fn run_loop(
        &mut self,
        l: &'p LoopSpec,
        log: &mut Option<SpanLog<'p>>,
    ) -> Result<f64, RuntimeError>;
    fn run_chain(
        &mut self,
        c: &'p ChainSpec,
        log: &mut Option<SpanLog<'p>>,
    ) -> Result<(), RuntimeError>;
    fn mark(&self) -> Mark;
}

struct SeqExec<'d> {
    dom: &'d mut Domain,
}

impl<'p> Exec<'p> for SeqExec<'_> {
    fn run_loop(
        &mut self,
        l: &'p LoopSpec,
        log: &mut Option<SpanLog<'p>>,
    ) -> Result<f64, RuntimeError> {
        let r = timed(log, "seq::run_loop", &l.name, || {
            op2_core::seq::run_loop(self.dom, l)
        });
        Ok(first_gbl(&r.gbls))
    }

    fn run_chain(
        &mut self,
        c: &'p ChainSpec,
        log: &mut Option<SpanLog<'p>>,
    ) -> Result<(), RuntimeError> {
        for l in &c.loops {
            self.run_loop(l, log)?;
        }
        Ok(())
    }

    fn mark(&self) -> Mark {
        Mark::default()
    }
}

struct DistExec<'e, 'd> {
    env: &'e mut RankEnv<'d>,
    config: Config,
    tuner: Option<Tuner>,
}

impl<'p> Exec<'p> for DistExec<'_, '_> {
    fn run_loop(
        &mut self,
        l: &'p LoopSpec,
        log: &mut Option<SpanLog<'p>>,
    ) -> Result<f64, RuntimeError> {
        let kind = if l.has_reduction() {
            "exec::run_loop(reduce)"
        } else {
            "exec::run_loop"
        };
        let r = timed(log, kind, &l.name, || run_loop(self.env, l))?;
        Ok(first_gbl(&r.gbls))
    }

    fn run_chain(
        &mut self,
        c: &'p ChainSpec,
        log: &mut Option<SpanLog<'p>>,
    ) -> Result<(), RuntimeError> {
        let env = &mut *self.env;
        match self.config {
            Config::Op2R2 => {
                if let Some(l) = log.as_mut() {
                    l.open("flattened_chain", &c.name);
                }
                for spec in &c.loops {
                    timed(log, "exec::run_loop", &spec.name, || run_loop(env, spec))?;
                }
                if let Some(l) = log.as_mut() {
                    l.close();
                }
                Ok(())
            }
            Config::TiledR2 => timed(log, "exec::run_chain_tiled", &c.name, || {
                run_chain_tiled(env, c, TILES_PER_RANK)
            }),
            Config::AutoR2 => {
                let tuner = self.tuner.as_mut().expect("auto_r2 carries a tuner");
                timed(log, "Tuner::run_chain", &c.name, || tuner.run_chain(env, c))
            }
            Config::Seq | Config::CaR2 | Config::CaR1T2 => {
                timed(log, "exec::run_chain", &c.name, || run_chain(env, c))
            }
        }
    }

    fn mark(&self) -> Mark {
        let t = &self.env.trace;
        Mark {
            loops: t.loops.len(),
            chains: t.chains.len(),
            threads: t.threads.len(),
            payload_allocs: self.env.comm.counters.payload_allocs,
        }
    }
}

/// What the program body returns on one rank (or the sequential run).
struct BodyOut {
    init_end: Instant,
    marks: Vec<Instant>,
    monitor: f64,
    steady: Mark,
}

/// The program every configuration runs: the init steps, then `iters`
/// iterations each closed by the convergence monitor.
fn body<'p>(
    ex: &mut impl Exec<'p>,
    prog: &'p Program,
    iters: usize,
    log: &mut Option<SpanLog<'p>>,
) -> Result<BodyOut, RuntimeError> {
    let run_steps = |ex: &mut _, steps: &'p [Step], log: &mut Option<SpanLog<'p>>| {
        for step in steps {
            match step {
                Step::Loop(l) => {
                    Exec::run_loop(ex, l, log)?;
                }
                Step::Chain(c) => Exec::run_chain(ex, c, log)?,
            }
        }
        Ok::<(), RuntimeError>(())
    };
    // Init runs once per run and feeds no per-iteration metric: one span.
    timed(log, "init", "", || {
        run_steps(&mut *ex, &prog.init, &mut None)
    })?;
    let init_end = Instant::now();
    let mut marks = Vec::with_capacity(iters);
    let mut monitor = 0.0;
    let mut steady = Mark::default();
    for it in 0..iters {
        if let Some(l) = log.as_mut() {
            l.open("iteration", "");
        }
        run_steps(&mut *ex, &prog.iteration, log)?;
        let sum = ex.run_loop(&prog.monitor, log)?;
        monitor = (sum / prog.monitor_n).sqrt();
        if let Some(l) = log.as_mut() {
            l.close();
        }
        marks.push(Instant::now());
        if it == 0 {
            steady = ex.mark();
        }
    }
    Ok(BodyOut {
        init_end,
        marks,
        monitor,
        steady,
    })
}

fn iter_times(b: &BodyOut) -> Vec<f64> {
    let mut prev = b.init_end;
    b.marks
        .iter()
        .map(|&m| {
            let d = m.saturating_duration_since(prev).as_secs_f64();
            prev = m;
            d
        })
        .collect()
}

/// Execute one configuration run of `iters` iterations from a fresh copy
/// of the program's input.
pub fn run_config<'p>(
    prog: &'p Program,
    config: Config,
    iters: usize,
    traced: bool,
) -> RunRecord<'p> {
    let mut dom = prog.dom.clone();
    let mut log = traced.then(|| SpanLog::new(0));
    if let Some(l) = log.as_mut() {
        l.open("config_run", config.name());
    }
    let mut rec = RunRecord::failed(config, traced, String::new());
    rec.error = None;
    if config == Config::Seq {
        let t_call = Instant::now();
        let res = body(&mut SeqExec { dom: &mut dom }, prog, iters, &mut log);
        match res {
            Ok(b) => {
                rec.iter_s = iter_times(&b);
                rec.first_iter_s = b.marks[0].saturating_duration_since(t_call).as_secs_f64();
                rec.monitor = b.monitor;
            }
            Err(e) => rec.error = Some(e.to_string()),
        }
    } else {
        let (layouts, threading) = match config {
            Config::CaR1T2 => (&prog.layouts1, Threading::with_threads(2)),
            _ => (&prog.layouts2, Threading::single()),
        };
        let opts = RunOptions::default().threading(threading);
        let rank0_spans: Mutex<Vec<Span<'p>>> = Mutex::new(Vec::new());
        let call_span = log.as_mut().map(|l| l.open("run_distributed_with", ""));
        let t_call = Instant::now();
        let out = run_distributed_with(&mut dom, layouts, &opts, |env| {
            let entry = Instant::now();
            let mut rlog = (traced && env.rank == 0).then(|| SpanLog::new(1));
            if let Some(l) = rlog.as_mut() {
                l.open("closure", "");
            }
            let tuner =
                (config == Config::AutoR2).then(|| Tuner::new(Machine::archer2(), TunerMode::Auto));
            let mut ex = DistExec { env, config, tuner };
            let res = body(&mut ex, prog, iters, &mut rlog);
            if let Some(mut l) = rlog {
                l.close();
                *rank0_spans.lock().expect("span sink is never poisoned") = l.spans;
            }
            let exit = Instant::now();
            res.map(|b| (entry, exit, b))
        });
        let t_ret = Instant::now();
        if let Some(l) = log.as_mut() {
            l.close();
            let spans = rank0_spans
                .into_inner()
                .expect("span sink is never poisoned");
            l.adopt(spans, call_span.expect("opened with the log"));
        }
        let op2_runtime::DistOutcome { traces, results } = out;
        rec.traces = traces;
        let mut failures = Vec::new();
        for r in results {
            match r {
                Ok((entry, exit, b)) => {
                    if rec.marks.is_empty() {
                        // Rank 0 comes first.
                        rec.iter_s = iter_times(&b);
                        rec.first_iter_s =
                            b.marks[0].saturating_duration_since(t_call).as_secs_f64();
                        rec.spawn_gather_s = entry.saturating_duration_since(t_call).as_secs_f64();
                        rec.scatter_s = t_ret.saturating_duration_since(exit).as_secs_f64();
                        rec.monitor = b.monitor;
                    }
                    rec.marks.push(b.steady);
                }
                Err(f) => failures.push(f.to_string()),
            }
        }
        if !failures.is_empty() {
            rec.error = Some(failures.join("; "));
        }
    }
    if let Some(mut l) = log {
        l.close();
        rec.spans = Some(RunSpans {
            run: 0,
            config: config.name(),
            spans: l.spans,
        });
    }
    rec.out = prog
        .check
        .iter()
        .map(|&d| dom.dat(d).data.clone())
        .collect();
    rec
}

/// Compare a run's final flow field with the sequential reference:
/// bitwise for one-rank configurations, within [`REL_TOL`] of each dat's
/// largest magnitude otherwise.
pub fn check(
    config: Config,
    reference: &[Vec<f64>],
    ref_monitor: f64,
    out: &[Vec<f64>],
    monitor: f64,
) -> Result<(), String> {
    if reference.len() != out.len() {
        return Err("missing output dats".into());
    }
    if config.bitwise() {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        for (i, (r, o)) in reference.iter().zip(out).enumerate() {
            if !same(r, o) {
                return Err(format!("check dat {i} differs bitwise from seq"));
            }
        }
        if ref_monitor.to_bits() != monitor.to_bits() {
            return Err(format!(
                "monitor {monitor} differs bitwise from seq {ref_monitor}"
            ));
        }
        return Ok(());
    }
    for (i, (r, o)) in reference.iter().zip(out).enumerate() {
        if r.len() != o.len() {
            return Err(format!("check dat {i} has the wrong length"));
        }
        let scale = r.iter().fold(0.0f64, |m, x| m.max(x.abs())).max(1e-30);
        let err = r.iter().zip(o).fold(0.0f64, |m, (x, y)| {
            let d = (x - y).abs();
            if d.is_nan() {
                f64::INFINITY
            } else {
                m.max(d)
            }
        });
        if err > REL_TOL * scale {
            return Err(format!(
                "check dat {i}: max error {err:e} exceeds {REL_TOL:e} x {scale:e}"
            ));
        }
    }
    let tol = REL_TOL * ref_monitor.abs().max(monitor.abs()).max(1e-30);
    let diff = (ref_monitor - monitor).abs();
    if diff.is_nan() || diff > tol {
        return Err(format!("monitor {monitor} vs seq {ref_monitor}"));
    }
    Ok(())
}
