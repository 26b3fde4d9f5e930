//! Smoke tests of the benchmark itself, on tiny meshes (`--smoke`): every
//! metric `BENCHMARK.json` names prints with its unit, and an output
//! perturbed on purpose is counted as a failed run.

use std::process::{Command, Output};

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("section is a list")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closed string") + open;
        rest[open..close].to_string()
    };
    section
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn bench(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_op2-benchmark"));
    cmd.args(["--smoke", "--seed", "7", "--seconds", "0.2"])
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"));
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("OP2_")) {
        cmd.env_remove(k);
    }
    let out = cmd.output().expect("benchmark runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

/// The integer after `"key": ` in the result line.
fn count(line: &str, key: &str) -> usize {
    let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    line[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|d| d.parse().ok())
        .expect("an integer")
}

#[test]
fn every_metric_prints_with_its_unit() {
    for workload in ["mgcfd-large", "hydra-small", "mgcfd-chain16"] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench(&["--workload", workload, "--trace", trace]);
            let line = last_line(&out);
            assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
            assert_eq!(count(&line, "failed"), 0, "{workload}");
            let declared = declared(key);
            assert_eq!(
                line.matches("\"unit\": ").count(),
                declared.len(),
                "{workload} trace {trace}: metrics other than those BENCHMARK.json lists"
            );
            for (name, unit) in declared {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                let rest = &line[at + entry.len()..];
                let value_end = rest.find(',').expect("unit follows the value");
                let value: f64 = rest[..value_end].parse().expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(
                    rest[value_end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} unit is not {unit}"
                );
            }
            if trace == "0" {
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(stdout
                    .lines()
                    .any(|l| l.starts_with("fail_frac") && l.contains("ratio")));
            }
        }
    }
}

#[test]
fn perturbed_output_counts_as_failed() {
    // One multi-rank configuration (tolerance check) and one one-rank
    // configuration (bitwise check).
    for config in ["ca_r2", "ca_r1t2"] {
        let out = bench(&[
            "--workload",
            "mgcfd-chain16",
            "--trace",
            "0",
            "--perturb",
            config,
        ]);
        let line = last_line(&out);
        assert!(line.starts_with("{\"correct\": false"), "{config}: {line}");
        let (attempted, failed) = (count(&line, "attempted"), count(&line, "failed"));
        // Every run of the perturbed configuration, and nothing else.
        assert_eq!(failed * 6, attempted, "{config}: {failed} of {attempted}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let frac = stdout
            .lines()
            .find(|l| l.starts_with("fail_frac"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<f64>().ok())
            .expect("fail_frac printed");
        assert!(frac > 0.0, "{config}: fail_frac {frac}");
    }
}

#[test]
fn refuses_runtime_knobs_from_the_environment() {
    let out = Command::new(env!("CARGO_BIN_EXE_op2-benchmark"))
        .args([
            "--smoke",
            "--workload",
            "hydra-small",
            "--seed",
            "1",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ])
        .env("OP2_THREADS", "2")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
