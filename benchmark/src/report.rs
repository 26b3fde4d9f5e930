//! Metric assembly: end-to-end metrics from untraced runs, per-layer
//! metrics from traced runs, the OP2-style per-loop table and the tuner
//! report.

use crate::run::{Config, RunRecord, CONFIGS};
use crate::spans::RunSpans;
use crate::workload::{Program, SetupTimes};
use op2_core::{Arg, Domain, LoopSpec};
use op2_runtime::{Backend, ExchangeRec};
use std::collections::BTreeMap;
use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// The loops whose per-iteration `seq` time is reported as
/// `loop.<name>.s_per_iter` on every workload (zero where a workload's
/// program has no such loop): together they cover at least 90% of `seq`
/// time on each workload at baseline.
pub const REPORTED_LOOPS: [&str; 15] = [
    "compute_flux_edge_l0",
    "compute_flux_edge_l1",
    "edge_flux",
    "update",
    "compute_step_factor_l0",
    "time_step_l0",
    "restrict_l0",
    "prolong_l0",
    "vflux_edge",
    "edgecon",
    "iflux_edge",
    "update_state",
    "rk_accumulate",
    "jac_assemble",
    "smooth_rg",
];

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of p99.9/p99/p90/p50 with at least ten samples beyond it.
fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}

fn runs<'a, 'p>(
    records: &'a [RunRecord<'p>],
    config: Config,
    traced: bool,
) -> impl Iterator<Item = &'a RunRecord<'p>> {
    records
        .iter()
        .filter(move |r| r.config == config && r.traced == traced && !r.warmup && r.ok())
}

fn steady_samples(records: &[RunRecord<'_>], config: Config, traced: bool) -> Vec<f64> {
    runs(records, config, traced)
        .flat_map(|r| r.steady().iter().copied())
        .collect()
}

/// Percentile of a configuration's timings that the gated metrics report.
/// Other tenants' load on the shared host comes in episodes of seconds
/// that slow every configuration by up to half, and can cover most of a
/// run; it only ever adds time. The lower decile is the time in the
/// run's quietest tenth, so it stays put while the median follows the
/// episodes.
const QUIET_PCT: f64 = 10.0;

/// The [`QUIET_PCT`] percentile of `v`, 0 when `v` is empty.
fn quiet(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, QUIET_PCT)
    }
}

/// Iterations per second at the [`QUIET_PCT`] iteration time.
fn iters_per_s(samples: &[f64]) -> f64 {
    let t = quiet(samples);
    if t > 0.0 {
        1.0 / t
    } else {
        0.0
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks from `/proc/stat`. Steal is
/// time the hypervisor ran something else while a vCPU was ready; the
/// multi-threaded configurations slow down most when it rises.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// End-to-end metrics (untraced runs) plus the table lines printed
/// before the JSON result.
pub fn end_to_end(
    records: &[RunRecord<'_>],
    setup: &SetupTimes,
    attempted: usize,
    failed: usize,
) -> (Vec<Metric>, Vec<String>) {
    let mut m = Vec::new();
    let mut lines = Vec::new();
    metric(&mut m, "setup_s", median(&setup.total_s), "s");
    lines.push(format!(
        "{:<22} {:>12.6} s      (median of {} set-ups)",
        "setup_s",
        median(&setup.total_s),
        setup.total_s.len()
    ));
    let mut ips = BTreeMap::new();
    for c in CONFIGS {
        let samples = steady_samples(records, c, false);
        let v = iters_per_s(&samples);
        ips.insert(c.name(), v);
        let name = format!("{}.iters_per_s", c.name());
        let tail = match (samples.is_empty(), tail_percentile(samples.len())) {
            (false, Some(p)) => format!("p{p} iter {:.3} ms", percentile(&samples, p) * 1e3),
            _ => "no percentile with 10 samples beyond it".to_string(),
        };
        lines.push(format!(
            "{name:<22} {v:>12.4} 1/s    (p{QUIET_PCT} iter {:.3} ms, median iter {:.3} ms, {tail}, n={})",
            quiet(&samples) * 1e3,
            median(&samples) * 1e3,
            samples.len(),
        ));
        metric(&mut m, &name, v, "1/s");
    }
    let seq = ips["seq"];
    let best = CONFIGS[1..]
        .iter()
        .map(|c| (ips[c.name()], c.name()))
        .fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
    let speedup = if seq > 0.0 { best.0 / seq } else { 0.0 };
    metric(&mut m, "best_speedup", speedup, "x");
    lines.push(format!(
        "{:<22} {speedup:>12.4} x      ({} / seq)",
        "best_speedup", best.1
    ));
    let first: Vec<f64> = runs(records, Config::CaR2, false)
        .map(|r| r.first_iter_s)
        .collect();
    metric(&mut m, "ca_r2.first_iter_s", quiet(&first), "s");
    lines.push(format!(
        "{:<22} {:>12.6} s      (p{QUIET_PCT} of {} runs, median {:.6} s)",
        "ca_r2.first_iter_s",
        quiet(&first),
        first.len(),
        median(&first)
    ));
    let rss = peak_rss_mb();
    metric(&mut m, "peak_rss_mb", rss, "MiB");
    lines.push(format!("{:<22} {rss:>12.1} MiB", "peak_rss_mb"));
    let frac = failed as f64 / attempted.max(1) as f64;
    lines.push(format!(
        "{:<22} {frac:>12.4} ratio  ({failed} of {attempted} configuration runs failed)",
        "fail_frac"
    ));
    (m, lines)
}

/// Bytes one execution of `l` moves by its access descriptors: each
/// dat's set once (read or write) or twice (read and write), plus each
/// map once. Computed, not measured: caches are not modelled.
pub fn computed_bytes(dom: &Domain, l: &LoopSpec) -> f64 {
    let n_iter = dom.set(l.set).size as f64;
    let mut dats: BTreeMap<u32, f64> = BTreeMap::new();
    let mut maps: BTreeMap<u32, f64> = BTreeMap::new();
    for a in &l.args {
        if let Arg::Dat { dat, map, mode } = *a {
            let d = dom.dat(dat);
            let passes = (mode.reads() as u32 + mode.modifies() as u32) as f64;
            let elems = match map {
                None => n_iter,
                Some((m, _)) => {
                    let md = dom.map(m);
                    maps.insert(m.0, n_iter * md.arity as f64 * 4.0);
                    dom.set(d.set).size as f64
                }
            };
            let bytes = elems * d.dim as f64 * 8.0 * passes;
            let e = dats.entry(dat.0).or_insert(0.0);
            *e = e.max(bytes);
        }
    }
    dats.values().sum::<f64>() + maps.values().sum::<f64>()
}

/// Index of the iteration each span belongs to (`None` outside
/// iterations), counting the run's `iteration` spans in order.
fn iteration_of(run: &RunSpans<'_>) -> Vec<Option<usize>> {
    let mut out: Vec<Option<usize>> = Vec::with_capacity(run.spans.len());
    let mut count = 0;
    for s in &run.spans {
        let v = if s.kind == "iteration" {
            count += 1;
            Some(count - 1)
        } else {
            s.parent.and_then(|p| out[p])
        };
        out.push(v);
    }
    out
}

/// Per-kind and per-(kind, label) totals of spans in steady iterations,
/// over every traced run of `config`.
#[derive(Default)]
struct SpanTotals {
    steady_iters: usize,
    by_kind: BTreeMap<&'static str, (Duration, usize)>,
    by_label: BTreeMap<(&'static str, String), (Duration, usize)>,
    closure_wall: Duration,
    closure_covered: Duration,
}

fn span_totals(records: &[RunRecord<'_>], config: Config) -> SpanTotals {
    let mut t = SpanTotals::default();
    for r in runs(records, config, true) {
        let Some(run) = &r.spans else { continue };
        t.steady_iters += r.steady().len();
        let iters = iteration_of(run);
        let cover = run.child_coverage();
        for (i, s) in run.spans.iter().enumerate() {
            if s.kind == "closure" {
                t.closure_wall += s.dur();
                t.closure_covered += cover[i];
            }
            if iters[i].is_some_and(|k| k >= 1) {
                let e = t.by_kind.entry(s.kind).or_default();
                e.0 += s.dur();
                e.1 += 1;
                let e = t.by_label.entry((s.kind, s.label.to_string())).or_default();
                e.0 += s.dur();
                e.1 += 1;
            }
        }
    }
    t
}

impl SpanTotals {
    fn per_iter(&self, kind: &str) -> f64 {
        self.by_kind
            .get(kind)
            .map_or(0.0, |e| e.0.as_secs_f64() / self.steady_iters.max(1) as f64)
    }

    fn calls_per_iter(&self, kinds: &[&str]) -> f64 {
        kinds
            .iter()
            .filter_map(|k| self.by_kind.get(k))
            .map(|e| e.1 as f64)
            .sum::<f64>()
            / self.steady_iters.max(1) as f64
    }

    fn per_call(&self, kind: &str, label: &str) -> Option<f64> {
        self.by_label
            .get(&(kind, label.to_string()))
            .map(|e| e.0.as_secs_f64() / e.1.max(1) as f64)
    }
}

/// Steady-iteration exchange records of one rank.
fn steady_exch(r: &RunRecord<'_>, rank: usize) -> ExchangeRec {
    let (t, m) = (&r.traces[rank], r.marks[rank]);
    let mut e = ExchangeRec::default();
    for l in &t.loops[m.loops.min(t.loops.len())..] {
        e.add(&l.exch);
    }
    for c in &t.chains[m.chains.min(t.chains.len())..] {
        e.add(&c.exch);
    }
    e
}

/// Per-layer metrics (traced runs) plus the report lines: the per-loop
/// table, the tuner report and the span self-time summary.
pub fn per_layer(
    prog: &Program,
    records: &[RunRecord<'_>],
    setup: &SetupTimes,
) -> (Vec<Metric>, Vec<String>) {
    let mut m = Vec::new();
    let mut lines = Vec::new();
    let dom = &prog.dom;

    // op2-mesh, op2-partition.
    metric(&mut m, "mesh.gen_s", median(&setup.gen_s), "s");
    metric(
        &mut m,
        "partition.partition_s",
        median(&setup.partition_s),
        "s",
    );
    metric(
        &mut m,
        "partition.ownership_s",
        median(&setup.ownership_s),
        "s",
    );
    metric(&mut m, "partition.layouts_s", median(&setup.layouts_s), "s");
    let (mut imported, mut owned) = (0usize, 0usize);
    for l in &prog.layouts2 {
        for s in &l.sets {
            owned += s.n_owned;
            imported += s.n_local() - s.n_owned;
        }
    }
    metric(
        &mut m,
        "partition.halo_frac",
        imported as f64 / owned.max(1) as f64,
        "ratio",
    );

    // runtime::harness and runtime::plan, on ca_r2.
    let ca: Vec<&RunRecord<'_>> = runs(records, Config::CaR2, true).collect();
    let med =
        |f: &dyn Fn(&RunRecord<'_>) -> f64| median(&ca.iter().map(|r| f(r)).collect::<Vec<_>>());
    metric(
        &mut m,
        "harness.spawn_gather_s",
        med(&|r| r.spawn_gather_s),
        "s",
    );
    metric(&mut m, "harness.scatter_s", med(&|r| r.scatter_s), "s");
    let plan = |r: &RunRecord<'_>| {
        r.traces.iter().fold((0u64, 0u64), |a, t| {
            (a.0 + t.plan.hits, a.1 + t.plan.misses)
        })
    };
    metric(&mut m, "plan.misses", med(&|r| plan(r).1 as f64), "count");
    let (hits, misses) = ca.iter().fold((0, 0), |a, r| {
        let p = plan(r);
        (a.0 + p.0, a.1 + p.1)
    });
    metric(
        &mut m,
        "plan.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let first = med(&|r| r.iter_s.first().copied().unwrap_or(0.0));
    let steady = median(&steady_samples(records, Config::CaR2, true));
    metric(&mut m, "plan.inspect_s", first - steady, "s");

    // runtime::exec, on ca_r2 rank 0.
    let st = span_totals(records, Config::CaR2);
    let loop_s = st.per_iter("exec::run_loop");
    let chain_s = st.per_iter("exec::run_chain");
    let reduce_s = st.per_iter("exec::run_loop(reduce)");
    metric(&mut m, "exec.loop_s_per_iter", loop_s, "s");
    metric(&mut m, "exec.chain_s_per_iter", chain_s, "s");
    metric(&mut m, "exec.reduce_s_per_iter", reduce_s, "s");
    let calls = st.calls_per_iter(&[
        "exec::run_loop",
        "exec::run_chain",
        "exec::run_loop(reduce)",
    ]);
    metric(&mut m, "exec.calls_per_iter", calls, "count");

    // runtime::comm, on ca_r2: counts over every rank, times on rank 0.
    let steady_iters: usize = ca.iter().map(|r| r.steady().len()).sum::<usize>().max(1);
    let (mut msgs, mut bytes, mut pack, mut unpack, mut wait) = (0usize, 0usize, 0u64, 0u64, 0u64);
    let (mut allocs, mut retries) = (0u64, 0u64);
    for r in &ca {
        for rank in 0..r.traces.len() {
            let e = steady_exch(r, rank);
            msgs += e.n_msgs;
            bytes += e.bytes;
            if rank == 0 {
                pack += e.pack_ns;
                unpack += e.unpack_ns;
                wait += e.wait_ns;
            }
            let c = &r.traces[rank].comm;
            allocs += c
                .payload_allocs
                .saturating_sub(r.marks[rank].payload_allocs);
            retries += c.retries;
        }
    }
    let per_iter = |x: f64| x / steady_iters as f64;
    let nruns = ca.len().max(1) as f64;
    metric(&mut m, "comm.msgs_per_iter", per_iter(msgs as f64), "count");
    metric(&mut m, "comm.bytes_per_iter", per_iter(bytes as f64), "B");
    let (pack_s, unpack_s, wait_s) = (
        per_iter(pack as f64 * 1e-9),
        per_iter(unpack as f64 * 1e-9),
        per_iter(wait as f64 * 1e-9),
    );
    metric(&mut m, "comm.pack_s_per_iter", pack_s, "s");
    metric(&mut m, "comm.unpack_s_per_iter", unpack_s, "s");
    metric(&mut m, "comm.wait_s_per_iter", wait_s, "s");
    metric(
        &mut m,
        "comm.payload_allocs_steady",
        allocs as f64 / nruns,
        "count",
    );
    metric(&mut m, "comm.retries", retries as f64 / nruns, "count");

    // op2-core kernels.
    let kernel_self = loop_s + chain_s + reduce_s - pack_s - unpack_s - wait_s;
    metric(&mut m, "kernel.self_s_per_iter", kernel_self, "s");
    let loops_of_iter: Vec<&LoopSpec> = prog
        .iteration
        .iter()
        .flat_map(|s| s.loops())
        .chain(std::iter::once(&prog.monitor))
        .collect();
    let bytes_per_iter: f64 = loops_of_iter.iter().map(|l| computed_bytes(dom, l)).sum();
    let seq_iter_s = median(&steady_samples(records, Config::Seq, true));
    let gbs = if seq_iter_s > 0.0 {
        bytes_per_iter / seq_iter_s * 1e-9
    } else {
        0.0
    };
    metric(&mut m, "kernel.gbytes_per_s_computed", gbs, "GB/s");
    let seq_spans = span_totals(records, Config::Seq);
    for name in REPORTED_LOOPS {
        let v = seq_spans
            .by_label
            .get(&("seq::run_loop", name.to_string()))
            .map_or(0.0, |e| {
                e.0.as_secs_f64() / seq_spans.steady_iters.max(1) as f64
            });
        metric(&mut m, &format!("loop.{name}.s_per_iter"), v, "s");
    }
    lines.extend(loop_table(dom, &seq_spans, seq_iter_s, &loops_of_iter));

    // op2-core CA redundancy, on ca_r2.
    let mut executed = 0usize;
    for r in &ca {
        for (t, mk) in r.traces.iter().zip(&r.marks) {
            executed += t.loops[mk.loops.min(t.loops.len())..]
                .iter()
                .map(|l| l.core_iters + l.halo_iters)
                .sum::<usize>();
            executed += t.chains[mk.chains.min(t.chains.len())..]
                .iter()
                .map(|c| c.core_iters() + c.halo_iters())
                .sum::<usize>();
        }
    }
    let exec_per_iter = per_iter(executed as f64);
    let seq_per_iter: f64 = loops_of_iter
        .iter()
        .map(|l| dom.set(l.set).size as f64)
        .sum();
    metric(&mut m, "core.exec_iters_per_iter", exec_per_iter, "count");
    metric(
        &mut m,
        "core.redundant_frac",
        (exec_per_iter - seq_per_iter) / seq_per_iter.max(1.0),
        "ratio",
    );

    // runtime::threads, on ca_r1t2.
    let (mut levels, mut chunks, mut idle, mut cap) = (0usize, 0usize, 0u64, 0u64);
    let mut t_iters = 0usize;
    for r in runs(records, Config::CaR1T2, true) {
        t_iters += r.steady().len();
        let (t, mk) = (&r.traces[0], r.marks[0]);
        for rec in &t.threads[mk.threads.min(t.threads.len())..] {
            levels += rec.n_levels;
            chunks += rec.n_chunks;
            idle += rec.idle_ns.iter().sum::<u64>();
            cap += rec.level_ns.iter().sum::<u64>() * rec.n_threads as u64;
        }
    }
    let t_iters = t_iters.max(1) as f64;
    metric(
        &mut m,
        "threads.levels_per_iter",
        levels as f64 / t_iters,
        "count",
    );
    metric(
        &mut m,
        "threads.chunks_per_level",
        chunks as f64 / levels.max(1) as f64,
        "count",
    );
    metric(
        &mut m,
        "threads.idle_s_per_iter",
        idle as f64 * 1e-9 / t_iters,
        "s",
    );
    metric(
        &mut m,
        "threads.busy_frac",
        1.0 - idle as f64 / cap.max(1) as f64,
        "ratio",
    );

    // runtime::tuner.
    let ips = |c: Config| iters_per_s(&steady_samples(records, c, true));
    let best_fixed = [Config::Op2R2, Config::CaR2, Config::TiledR2]
        .into_iter()
        .map(ips)
        .fold(0.0, f64::max);
    let auto = ips(Config::AutoR2);
    metric(
        &mut m,
        "tuner.regret",
        if auto > 0.0 {
            best_fixed / auto - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    let last_auto = runs(records, Config::AutoR2, true).last();
    let decisions = last_auto
        .map(|r| r.traces[0].tuner.clone())
        .unwrap_or_default();
    for (b, name) in [
        (Backend::Op2, "op2"),
        (Backend::Ca, "ca"),
        (Backend::Tiled, "tiled"),
    ] {
        let n = decisions.iter().filter(|d| d.backend == b).count();
        metric(&mut m, &format!("tuner.backend.{name}"), n as f64, "count");
    }
    lines.extend(tuner_report(records, &decisions));

    // Tracing itself.
    let untraced = iters_per_s(&steady_samples(records, Config::CaR2, false));
    let traced = ips(Config::CaR2);
    metric(
        &mut m,
        "trace.overhead",
        if traced > 0.0 {
            untraced / traced - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    let closure = st.closure_covered.as_secs_f64() / st.closure_wall.as_secs_f64().max(1e-12);
    metric(&mut m, "trace.closure", closure, "ratio");
    lines.extend(self_time_summary(records));
    (m, lines)
}

/// OP2-style per-loop timing table from the `seq` configuration.
fn loop_table(dom: &Domain, seq: &SpanTotals, seq_iter_s: f64, loops: &[&LoopSpec]) -> Vec<String> {
    let mut lines = vec![
        String::new(),
        "per-loop table (seq configuration, steady iterations; GB/s is computed from access descriptors, not measured)".into(),
        format!(
            "  {:<26} {:>8} {:>12} {:>10} {:>14} {:>12} {:>7}",
            "loop", "calls", "time_s", "share", "bytes/call", "GB/s(comp)", "cum"
        ),
    ];
    let mut bytes_of: BTreeMap<&str, f64> = BTreeMap::new();
    for l in loops {
        bytes_of.insert(&l.name, computed_bytes(dom, l));
    }
    let mut rows: Vec<(&String, Duration, usize)> = seq
        .by_label
        .iter()
        .filter(|((k, _), _)| *k == "seq::run_loop")
        .map(|((_, label), e)| (label, e.0, e.1))
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    let total: f64 = rows
        .iter()
        .map(|r| r.1.as_secs_f64())
        .sum::<f64>()
        .max(1e-12);
    let mut cum = 0.0;
    for (label, time, calls) in rows {
        let t = time.as_secs_f64();
        cum += t / total;
        let b = bytes_of.get(label.as_str()).copied().unwrap_or(0.0);
        lines.push(format!(
            "  {:<26} {:>8} {:>12.6} {:>9.1}% {:>14.0} {:>12.3} {:>6.1}%",
            label,
            calls,
            t,
            100.0 * t / total,
            b,
            b * calls as f64 / t.max(1e-12) * 1e-9,
            100.0 * cum
        ));
    }
    let arrays: f64 = dom
        .dats()
        .iter()
        .map(|d| (d.data.len() * 8) as f64)
        .sum::<f64>()
        + dom
            .maps()
            .iter()
            .map(|mp| (mp.values.len() * 4) as f64)
            .sum::<f64>();
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    lines.push(format!(
        "  arrays total {:.1} MiB; host L3 {l3}; seq steady iteration {:.3} ms. The arrays fit in cache, so no roofline ratio is claimed.",
        arrays / (1024.0 * 1024.0),
        seq_iter_s * 1e3
    ));
    lines
}

/// Each chain's tuner decision next to its measured per-call time under
/// the fixed back-ends.
fn tuner_report(records: &[RunRecord<'_>], decisions: &[op2_runtime::TunerRec]) -> Vec<String> {
    let op2 = span_totals(records, Config::Op2R2);
    let ca = span_totals(records, Config::CaR2);
    let tiled = span_totals(records, Config::TiledR2);
    let auto = span_totals(records, Config::AutoR2);
    let mut lines = vec![
        String::new(),
        "tuner report (auto_r2 decisions, rank 0; measured ms per chain call in steady iterations)"
            .into(),
        format!(
            "  {:<10} {:>7} {:>13} {:>12} {:>11} {:>10} {:>10} {:>10} {:>10}",
            "chain",
            "chosen",
            "class",
            "pred_op2_ms",
            "pred_ca_ms",
            "op2_r2",
            "ca_r2",
            "tiled_r2",
            "auto_r2"
        ),
    ];
    let ms = |v: Option<f64>| v.map_or("-".to_string(), |s| format!("{:.4}", s * 1e3));
    let mut seen = std::collections::BTreeSet::new();
    for d in decisions {
        if !seen.insert(d.chain.clone()) {
            continue;
        }
        lines.push(format!(
            "  {:<10} {:>7} {:>13} {:>12.4} {:>11.4} {:>10} {:>10} {:>10} {:>10}",
            d.chain,
            format!("{:?}", d.backend),
            format!("{:?}", d.class),
            d.t_op2_pred_ns as f64 * 1e-6,
            d.t_ca_pred_ns as f64 * 1e-6,
            ms(op2.per_call("flattened_chain", &d.chain)),
            ms(ca.per_call("exec::run_chain", &d.chain)),
            ms(tiled.per_call("exec::run_chain_tiled", &d.chain)),
            ms(auto.per_call("Tuner::run_chain", &d.chain)),
        ));
    }
    lines
}

/// Self time per span kind and configuration, over every traced run.
fn self_time_summary(records: &[RunRecord<'_>]) -> Vec<String> {
    let mut lines = vec![
        String::new(),
        "span self time per configuration (s, summed over traced runs; rank 0 and the main thread)"
            .into(),
    ];
    for c in CONFIGS {
        let mut by_kind: BTreeMap<&str, (Duration, Duration)> = BTreeMap::new();
        for r in runs(records, c, true) {
            let Some(run) = &r.spans else { continue };
            for (s, self_t) in run.spans.iter().zip(run.self_times()) {
                let e = by_kind.entry(s.kind).or_default();
                e.0 += s.dur();
                e.1 += self_t;
            }
        }
        let parts: Vec<String> = by_kind
            .iter()
            .map(|(k, (d, s))| format!("{k} {:.4}/{:.4}", d.as_secs_f64(), s.as_secs_f64()))
            .collect();
        lines.push(format!(
            "  {:<9} total/self: {}",
            c.name(),
            parts.join(", ")
        ));
    }
    lines
}
