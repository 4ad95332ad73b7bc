//! The benchmark at tiny sizes: every workload runs, prints every metric
//! BENCHMARK.json names with the unit named there, reports no failed op,
//! and produces the same output digest at widths 1 and 2.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["validate", "bsp_apps", "analyze", "faults"];

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn spec(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text: String = std::fs::read_to_string(path)
        .expect("BENCHMARK.json at the repository root")
        .split_whitespace()
        .collect();
    let start = text
        .find(&format!("\"{section}\":["))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\":\"")).expect("key present") + key.len() + 4;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke", "--width", "2"])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The value and unit the result line gives `name`.
fn metric(result: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result.find(&key)? + key.len();
    let rest = &result[at..];
    let comma = rest.find(',')?;
    let value = rest[..comma].parse().ok()?;
    let unit_at = rest.find("\"unit\": \"")? + 9;
    let unit = &rest[unit_at..unit_at + rest[unit_at..].find('"')?];
    Some((value, unit.to_string()))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_no_failures() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let wanted = spec(section);
        assert!(!wanted.is_empty(), "{section} is empty");
        for w in WORKLOADS {
            let out = run(w, trace);
            let result = out.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, ") && result.contains("\"failed\": 0,"),
                "{w} --trace {trace}: {result}\n{out}"
            );
            for (name, unit) in &wanted {
                let (value, got) = metric(result, name)
                    .unwrap_or_else(|| panic!("{w} --trace {trace}: no metric {name}"));
                assert_eq!(&got, unit, "{w}: {name} unit");
                assert!(value.is_finite(), "{w}: {name} = {value}");
            }
            assert!(out.contains("error_rate 0.000000 1"), "{w}: {out}");
            if trace == "1" {
                assert!(
                    out.contains("at width 2 and at width 1: equal"),
                    "{w}: digests at widths 1 and 2 differ\n{out}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
