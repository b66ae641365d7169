//! What `BENCHMARK.json` declares, and the two commands that hold the
//! benchmark to it: `smoke` (names and units agree both ways) and `aa` (two
//! runs of the same build agree within every bound).

use crate::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sizes::Sizes;
use crate::{run_workload, Args};
use serde::{get_field, Value};
use std::process::Command;

pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the reference median the metric may worsen by.
    pub bound: Option<f64>,
}

pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
}

fn str_field(fields: &[(String, Value)], key: &str) -> Result<String, String> {
    get_field(fields, key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string {key}"))
}

fn array_field<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a [Value], String> {
    get_field(fields, key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array {key}"))
}

fn metrics_field(fields: &[(String, Value)], key: &str) -> Result<Vec<DeclaredMetric>, String> {
    array_field(fields, key)?
        .iter()
        .map(|v| {
            let f = v
                .as_object()
                .ok_or_else(|| format!("BENCHMARK.json: {key} entry is not an object"))?;
            let better = str_field(f, "better")?;
            Ok(DeclaredMetric {
                name: str_field(f, "name")?,
                unit: str_field(f, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other}")),
                },
                bound: get_field(f, "bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Declared {
    /// Read `BENCHMARK.json` from the root of the checkout this was built in.
    pub fn load() -> Result<Declared, String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let value =
            serde_json::parse_value_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let fields = value.as_object().ok_or("BENCHMARK.json is not an object")?;
        Ok(Declared {
            run_seconds: get_field(fields, "run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads: array_field(fields, "workloads")?
                .iter()
                .map(|w| {
                    w.as_object()
                        .ok_or("workload is not an object".to_string())
                        .and_then(|f| str_field(f, "name"))
                })
                .collect::<Result<_, _>>()?,
            end_to_end: metrics_field(fields, "end_to_end")?,
            per_layer: metrics_field(fields, "per_layer")?,
        })
    }
}

/// Names and units of `declared` and `catalogue` agree both ways.
fn compare(kind: &str, declared: &[DeclaredMetric], catalogue: &[Metric]) -> Vec<String> {
    let mut problems = Vec::new();
    for d in declared {
        match catalogue.iter().find(|m| m.name == d.name) {
            None => problems.push(format!("{kind} {} is declared but never printed", d.name)),
            Some(m) if m.unit != d.unit => problems.push(format!(
                "{kind} {}: declared unit {} but printed {}",
                d.name, d.unit, m.unit
            )),
            Some(_) => {}
        }
    }
    for m in catalogue {
        if !declared.iter().any(|d| d.name == m.name) {
            problems.push(format!("{kind} {} is printed but not declared", m.name));
        }
    }
    problems
}

/// All four workloads at 1/50 size, one round, untraced and traced: every
/// declared metric x workload is printed, nothing undeclared is, and every
/// value is a number.
pub fn cmd_smoke() -> Result<bool, String> {
    let declared = Declared::load()?;
    let mut problems = compare("end-to-end metric", &declared.end_to_end, END_TO_END);
    problems.extend(compare("per-layer metric", &declared.per_layer, PER_LAYER));
    if declared.workloads != WORKLOADS {
        problems.push(format!(
            "workloads declared {:?} but implemented {WORKLOADS:?}",
            declared.workloads
        ));
    }
    let sizes = Sizes::smoke();
    crate::one_cpu_one_thread();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: Some(workload.to_string()),
                seed: 1,
                seconds: 0.0,
                trace,
            };
            let (out, values) = run_workload(workload, &sizes, &args)?;
            let want = if trace {
                &declared.per_layer
            } else {
                &declared.end_to_end
            };
            let printed: Vec<&str> = values.iter().map(|(m, _)| m.name).collect();
            let wanted: Vec<&str> = want.iter().map(|d| d.name.as_str()).collect();
            if printed != wanted {
                problems.push(format!(
                    "{workload} trace={trace}: printed {printed:?}, declared {wanted:?}"
                ));
            }
            for (m, v) in &values {
                if !v.is_finite() || (!trace && *v == 0.0) {
                    problems.push(format!("{workload} trace={trace}: {} = {v}", m.name));
                }
            }
            for msg in &out.check.messages {
                problems.push(format!("{workload} trace={trace}: {msg}"));
            }
            println!(
                "smoke {workload} trace={}: {} metrics, attempted {} failed {}",
                u8::from(trace),
                values.len(),
                out.check.attempted,
                out.check.failed
            );
        }
    }
    for p in &problems {
        println!("FAILED: {p}");
    }
    println!("smoke: {} problems", problems.len());
    Ok(problems.is_empty())
}

/// Run one workload in a child process and read the driver's line back.
fn child_metrics(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("the {workload} run failed:\n{stdout}"));
    }
    let last = stdout.lines().last().unwrap_or("");
    let value =
        serde_json::parse_value_str(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let metrics = value
        .as_object()
        .and_then(|f| get_field(f, "metrics"))
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{workload} result line has no metrics"))?;
    metrics
        .iter()
        .map(|(name, m)| {
            m.as_object()
                .and_then(|f| get_field(f, "value"))
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: metric {name} has no value"))
        })
        .collect()
}

/// Every workload twice, back to back: per end-to-end metric x workload both
/// values, how much worse the second is than the first as a share of the
/// first, and the bound. Fails when a difference exceeds its bound.
pub fn cmd_aa(args: &Args) -> Result<bool, String> {
    let declared = Declared::load()?;
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse_by", "bound"
    );
    for workload in WORKLOADS {
        let first = child_metrics(workload, args.seed, declared.run_seconds)?;
        let second = child_metrics(workload, args.seed, declared.run_seconds)?;
        for d in &declared.end_to_end {
            let get = |run: &[(String, f64)]| {
                run.iter()
                    .find(|(n, _)| *n == d.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{workload} did not print {}", d.name))
            };
            let (a, b) = (get(&first)?, get(&second)?);
            let worse_by = if d.higher_is_better {
                (a - b) / a.abs()
            } else {
                (b - a) / a.abs()
            };
            let bound = d.bound.unwrap_or(0.0);
            let verdict = if worse_by > bound {
                ok = false;
                "EXCEEDED"
            } else {
                ""
            };
            println!(
                "{workload:<14} {:<16} {a:>16.6} {b:>16.6} {worse_by:>+9.4} {bound:>7.3} {verdict}",
                d.name
            );
        }
    }
    println!(
        "aa: {}",
        if ok {
            "every difference is within its bound"
        } else {
            "a difference exceeds its bound"
        }
    );
    Ok(ok)
}
