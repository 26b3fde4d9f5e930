//! End-to-end and per-layer benchmark of MG-CFD and Hydra.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload mgcfd-large --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload runs six configurations (`seq`, `op2_r2`, `ca_r2`,
//! `ca_r1t2`, `tiled_r2`, `auto_r2`) on the same seeded input,
//! interleaved round by round until `--seconds` have passed, and checks
//! each run's final flow field against the sequential reference. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! records spans around every call into the runtime, prints the
//! per-layer metrics, the per-loop table and the tuner report, and
//! writes a Chrome trace-event timeline to `.bench_trace/`. The last
//! line of standard output is one JSON object with the result.
//! See `benchmark/README.md`.

mod report;
mod run;
mod spans;
mod workload;

use report::Metric;
use run::{check, run_config, Config, RunRecord, CONFIGS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    perturb: Option<Config>,
}

const USAGE: &str = "usage: op2-benchmark --workload <mgcfd-large|hydra-small|mgcfd-chain16> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--perturb <config>]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut perturb) = (false, None);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            // Tiny meshes, for the benchmark's own tests.
            "--smoke" => smoke = true,
            // Corrupt one configuration's output on purpose, so tests can
            // show the output check counts it as failed.
            "--perturb" => {
                let v = value()?;
                perturb = Some(Config::parse(&v).ok_or_else(|| format!("unknown config {v}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        perturb,
    })
}

/// Perturb the largest-magnitude value of the first check dat by one part
/// in a million: far outside the multi-rank tolerance and not bitwise.
fn perturb(out: &mut [Vec<f64>]) {
    if let Some(d) = out.first_mut() {
        if let Some(x) = d.iter_mut().max_by(|a, b| a.abs().total_cmp(&b.abs())) {
            *x += 1e-6 * x.abs().max(1.0);
        }
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The defaults users get are what is measured: no runtime knob may
    // be set from the environment.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("OP2_"))
        .collect();
    if !set.is_empty() {
        eprintln!("refusing to run with runtime knobs set: {}", set.join(", "));
        return ExitCode::from(2);
    }
    let Some(w) = workload::workload(&args.workload, args.smoke) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} (available_parallelism {threads}, at most 2 compute threads per configuration)",
        w.name, args.seed, args.seconds, args.trace as u8
    );

    let epoch = Instant::now();
    let (prog, mut setup) = workload::set_up(&w, args.seed);

    // One round runs every configuration once; with tracing on, ca_r2 also
    // runs untraced so the tracing overhead is measured in the same run.
    let round: Vec<(Config, bool)> = if args.trace {
        let mut r: Vec<(Config, bool)> = CONFIGS.iter().map(|&c| (c, true)).collect();
        r.insert(3, (Config::CaR2, false));
        r
    } else {
        CONFIGS.iter().map(|&c| (c, false)).collect()
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut records: Vec<RunRecord<'_>> = Vec::new();
    let mut reference: Option<(Vec<Vec<f64>>, f64)> = None;
    let mut run_id = 0u32;
    let mut rounds = 0;
    let steal_start = report::cpu_steal_ticks();
    // Round 0 warms up; at least two rounds are measured.
    while rounds < 3 || start.elapsed() < budget {
        for &(config, traced) in &round {
            let res = catch_unwind(AssertUnwindSafe(|| {
                run_config(&prog, config, w.iters, traced)
            }));
            let mut rec = match res {
                Ok(r) => r,
                Err(p) => {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "panic".into());
                    eprintln!("{} panicked: {msg}", config.name());
                    records.push(RunRecord::failed(config, traced, msg));
                    continue;
                }
            };
            if let Some(s) = rec.spans.as_mut() {
                s.run = run_id;
            }
            run_id += 1;
            if config == Config::Seq && reference.is_none() && rec.ok() {
                reference = Some((rec.out.clone(), rec.monitor));
            }
            if args.perturb == Some(config) {
                perturb(&mut rec.out);
            }
            if rec.ok() {
                rec.error = match &reference {
                    None => Some("no sequential reference".into()),
                    Some((r, mon)) => check(config, r, *mon, &rec.out, rec.monitor).err(),
                };
            }
            if let Some(e) = &rec.error {
                eprintln!("{} run failed: {e}", config.name());
            }
            rec.warmup = rounds == 0;
            rec.out = Vec::new();
            if !traced {
                rec.traces = Vec::new();
            }
            records.push(rec);
        }
        rounds += 1;
        // The remaining set-ups are spread evenly over the measurement,
        // so that a burst of load on the shared host moves few of them.
        let share = (start.elapsed().as_secs_f64() / args.seconds).min(1.0);
        if (setup.total_s.len() as f64) < 1.0 + (w.setup_reps - 1) as f64 * share {
            workload::time_set_up(&w, args.seed, &mut setup);
        }
    }
    while setup.total_s.len() < w.setup_reps {
        workload::time_set_up(&w, args.seed, &mut setup);
    }
    let attempted = records.len();
    let failed = records.iter().filter(|r| !r.ok()).count();
    println!(
        "{} configuration runs in {rounds} rounds over {:.1} s, {failed} failed; {} iterations per run",
        attempted,
        start.elapsed().as_secs_f64(),
        w.iters
    );
    if let (Some(a), Some(b)) = (steal_start, report::cpu_steal_ticks()) {
        println!(
            "host steal time during the measurement: {:.1}% of CPU time",
            100.0 * b.0.saturating_sub(a.0) as f64 / b.1.saturating_sub(a.1).max(1) as f64
        );
    }

    let (metrics, lines) = if args.trace {
        let (m, lines) = report::per_layer(&prog, &records, &setup);
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.json", w.name, args.seed));
        // The timeline keeps the last traced run of each configuration.
        let last: Vec<_> = CONFIGS
            .iter()
            .filter_map(|&c| {
                records
                    .iter()
                    .rev()
                    .find(|r| r.config == c && r.traced && r.ok())
                    .and_then(|r| r.spans.as_ref())
            })
            .collect();
        match spans::write_chrome_trace(&path, epoch, &last) {
            Ok(()) => println!("timeline written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        (m, lines)
    } else {
        report::end_to_end(&records, &setup, attempted, failed)
    };
    for l in &lines {
        println!("{l}");
    }
    if args.trace {
        println!();
        for m in &metrics {
            println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    let correct = failed == 0 && reference.is_some();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
