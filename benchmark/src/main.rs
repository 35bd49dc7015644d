//! The repo benchmark: four lock-step client workloads against the
//! default single-server cell, end-to-end and per-layer metrics, and an
//! outside-in traced run. See `README.md` beside this package.

mod compare;
mod hist;
mod json;
mod metrics;
mod probes;
mod run;
mod trace;
mod workloads;
mod world;

use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark run [--workload NAME] --seed N [--seconds N] [--trace [0|1]]
                     [--smoke] [--strict] [--flusher] [--out FILE]
       benchmark compare A.json B.json

run      without --workload: all four workloads, one child process each,
         and a combined report under benchmark/out/ (or --out) for `compare`;
         with --workload: that workload in this process, ending in the
         result line BENCHMARK.json describes
         --seconds  measured time per workload (default 20), in 40 rounds
         --trace    per-layer metrics from a second, span-wrapped world
         --smoke    1 round at 1/50 size; any failed op fails the run
         --strict   exit non-zero when any op failed
         --flusher  diagnostic, not a benchmark configuration: run the clients'
                    2 ms background flusher (reproduces the stale handoff read)
compare  applies each end-to-end metric's bound to two combined reports;
         exits non-zero on a regression
workloads: hot_read shared_handoff write_fsync meta_churn";

fn parse_run(args: &[String]) -> Result<run::Options, String> {
    let mut opts = run::Options {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        strict: false,
        flusher: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&opts.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--out" => opts.out = Some(value("a path")?.into()),
            // `--trace`, `--trace 1` and `--trace 0`.
            "--trace" => {
                opts.trace =
                    it.next_if(|v| matches!(v.as_str(), "0" | "1")).is_none_or(|v| v == "1")
            }
            "--smoke" => opts.smoke = true,
            "--strict" => opts.strict = true,
            "--flusher" => opts.flusher = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // A smoke run exists to fail loudly.
    opts.strict |= opts.smoke;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|opts| {
            run::guard()?;
            let failed = match &opts.workload {
                Some(name) => {
                    let def = workloads::workload(name).ok_or(format!("no workload {name}"))?;
                    run::run_one(def, &opts)?
                }
                None => run::run_all(&opts)?,
            };
            Ok(failed && opts.strict)
        }),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare::compare(a, b),
            _ => Err("compare takes two report files".into()),
        },
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
