//! `--compare`: two sets of result lines against the bounds of
//! `BENCHMARK.json`. `repeat.sh` runs it on two back-to-back sets of the
//! same code, which must agree within every bound.

use crate::workloads::SPECS;
use routebricks::telemetry::json::{self, Value};
use std::path::Path;
use std::process::ExitCode;

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn parse_rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let doc = json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end array")?
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks `{k}`"))
            };
            Ok(Rule {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// A parsed result line: `(failed, attempted, metric values)`.
type ResultLine = (f64, f64, Value);

fn read_result(path: &Path) -> Result<ResultLine, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{}: empty", path.display()))?;
    let doc = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{}: no `{k}`", path.display()))
    };
    let metrics = doc.get("metrics").cloned().ok_or("no metrics")?;
    Ok((num("failed")?, num("attempted")?, metrics))
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worse_by(rule: &Rule, a: f64, b: f64) -> f64 {
    if rule.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn run(benchmark_json: &Path, dir_a: &Path, dir_b: &Path) -> ExitCode {
    let rules = match std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))
        .and_then(|text| parse_rules(&text))
    {
        Ok(rules) => rules,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut disagreements = 0;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "set2/set1", "bound"
    );
    for spec in &SPECS {
        let file = format!("{}.json", spec.name);
        let (a, b) = match (
            read_result(&dir_a.join(&file)),
            read_result(&dir_b.join(&file)),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("{e}");
                }
                disagreements += 1;
                continue;
            }
        };
        for (set, (failed, attempted, _)) in [(1, &a), (2, &b)] {
            if *failed != 0.0 {
                println!(
                    "{:<20} set {set}: {failed} of {attempted} FAILED",
                    spec.name
                );
                disagreements += 1;
            }
        }
        for rule in &rules {
            let value = |m: &Value| {
                m.get(&rule.name)
                    .and_then(|e| e.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (value(&a.2), value(&b.2)) else {
                println!("{:<20} {:<16} missing", spec.name, rule.name);
                disagreements += 1;
                continue;
            };
            // Same code on both sides: a gap beyond the bound in either
            // direction means the metric cannot resolve the bound.
            let gap = worse_by(rule, va, vb)
                .abs()
                .max(worse_by(rule, vb, va).abs());
            let verdict = if gap > rule.bound {
                disagreements += 1;
                "DISAGREE"
            } else {
                "ok"
            };
            println!(
                "{:<20} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>7.2}  {verdict}",
                spec.name,
                rule.name,
                va,
                vb,
                vb / va,
                rule.bound
            );
        }
    }
    if disagreements == 0 {
        println!("both sets agree within every bound, 0 failed");
        ExitCode::SUCCESS
    } else {
        println!("{disagreements} disagreement(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_come_from_benchmark_json() {
        let rules = parse_rules(
            r#"{"end_to_end": [
                {"name": "fwd_mpps", "unit": "Mpps", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert!(rules[0].higher_is_better);
        assert_eq!(rules[1].bound, 0.25);
        assert!(parse_rules("{}").is_err());
    }

    #[test]
    fn worse_follows_the_metric_direction() {
        let up = Rule {
            name: "fwd_mpps".into(),
            higher_is_better: true,
            bound: 0.1,
        };
        let down = Rule {
            name: "setup_s".into(),
            higher_is_better: false,
            bound: 0.1,
        };
        assert!((worse_by(&up, 2.0, 1.8) - 0.1).abs() < 1e-12);
        assert!(worse_by(&up, 2.0, 2.2) < 0.0);
        assert!((worse_by(&down, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!(worse_by(&down, 1.0, 0.9) < 0.0);
    }
}
