//! The repo benchmark: five router workloads driven through the public API
//! (`RouterBuilder`, `BuiltRouter`, `MtRouter` and the layer crates' public
//! functions), measured end to end and layer by layer.
//!
//! One process measures one workload in one mode and prints, as the last
//! line of its standard output, the result object `BENCHMARK.json`
//! describes. `benchmark/run.sh` builds and calls this; see
//! `benchmark/README.md`.

mod compare;
mod multi;
mod probes;
mod report;
mod runs;
mod single;
mod stats;
mod trace;
mod verify;
mod workloads;

use runs::Options;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{spec_by_name, Scale, SPECS};

const USAGE: &str = "\
usage: rb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                    [--smoke] [--trace-dir DIR] [--break-verify]
       rb-benchmark --list
       rb-benchmark --compare BENCHMARK.json DIR_A DIR_B

  --workload      one of the names --list prints
  --seed          every traffic, RIB and churn seed derives from it (default 1)
  --seconds       run length; fixes the packet count of the run (default 15,
                  BENCHMARK.json's run_seconds)
  --trace 0       untraced run: the end-to-end metrics (default)
  --trace 1       traced run: the per-layer metrics, and trace-NAME.json
  --smoke         about 1 % of the packets and a 10K-route RIB
  --trace-dir     where trace-NAME.json goes (default target/benchmark)
  --break-verify  corrupt one expected frame of the verify pass: must fail
  --compare       compare the result lines DIR_A/NAME.json and DIR_B/NAME.json
                  against the bounds of BENCHMARK.json";

struct Cli {
    workload: String,
    trace: bool,
    opts: Options,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        trace: false,
        opts: Options {
            seed: 1,
            scale: Scale {
                seconds: 15.0,
                smoke: false,
            },
            break_verify: false,
            trace_dir: PathBuf::from("target/benchmark"),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => cli.workload = value()?.to_string(),
            "--seed" => {
                cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&secs) {
                    return Err(format!("--seconds {secs} is outside 1..=60"));
                }
                cli.opts.scale.seconds = secs;
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--trace-dir" => cli.opts.trace_dir = PathBuf::from(value()?),
            "--smoke" => cli.opts.scale.smoke = true,
            "--break-verify" => cli.opts.break_verify = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            for spec in &SPECS {
                println!("{}", spec.name);
            }
            return ExitCode::SUCCESS;
        }
        Some("--compare") => {
            return match args.as_slice() {
                [_, bench, a, b] => compare::run(bench.as_ref(), a.as_ref(), b.as_ref()),
                _ => {
                    eprintln!("{USAGE}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec_by_name(&cli.workload) else {
        eprintln!(
            "unknown workload `{}`; --list prints the names",
            cli.workload
        );
        return ExitCode::from(2);
    };
    let result = if cli.trace {
        runs::traced(spec, &cli.opts)
    } else {
        runs::end_to_end(spec, &cli.opts)
    };
    match result {
        Ok(outcome) => {
            print!("{}", outcome.listing(spec.name));
            println!("{}", outcome.to_json_line());
            ExitCode::SUCCESS
        }
        // An output check failed: no result line, non-zero exit.
        Err(e) => {
            eprintln!("{}: FAILED: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};
    use routebricks::telemetry::json::{self, Value};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(&args(
            "--workload fwd64_tuned --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, "fwd64_tuned");
        assert_eq!(cli.opts.seed, 7);
        assert!(cli.trace);
        assert!(!cli.opts.scale.smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_cli(&args("--seed 7")).is_err());
        assert!(parse_cli(&args("--workload x --trace 2")).is_err());
        assert!(parse_cli(&args("--workload x --seconds 0")).is_err());
        assert!(parse_cli(&args("--workload x --seed")).is_err());
        assert!(parse_cli(&args("--workload x --frobnicate")).is_err());
    }

    /// `--smoke` end to end: every workload, both modes, the whole output
    /// schema, nothing failed.
    #[test]
    fn smoke_runs_cover_every_workload_and_the_output_schema() {
        // Beside the test binary, i.e. inside the ignored target tree.
        let dir = std::env::current_exe()
            .unwrap()
            .with_file_name(format!("smoke-traces-{}", std::process::id()));
        for spec in &SPECS {
            let opts = Options {
                seed: 5,
                scale: Scale {
                    seconds: 10.0,
                    smoke: true,
                },
                break_verify: false,
                trace_dir: dir.clone(),
            };
            for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
                let outcome = if trace {
                    runs::traced(spec, &opts)
                } else {
                    runs::end_to_end(spec, &opts)
                }
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", spec.name));
                assert!(outcome.correct);
                assert!(outcome.attempted >= 1);
                assert_eq!(outcome.failed, 0, "{}", spec.name);
                let doc = json::parse(&outcome.to_json_line()).expect("result line parses");
                let metrics = doc.get("metrics").unwrap();
                for &(name, _) in table {
                    let v = metrics
                        .get(name)
                        .and_then(|e| e.get("value"))
                        .and_then(Value::as_f64);
                    assert!(v.is_some(), "{}: {name} missing", spec.name);
                    if !trace {
                        assert!(v.unwrap() > 0.0, "{}: {name} is 0", spec.name);
                    }
                }
            }
            let trace_file = dir.join(format!("trace-{}.json", spec.name));
            let doc = json::parse(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
            let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
            assert!(!events.is_empty(), "{}: empty trace", spec.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
