//! `psf-bench`: see `README.md`.
//!
//! ```text
//! psf-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     object `BENCHMARK.json`'s contract asks for
//! psf-bench [--smoke] [--sets <n>] [--pause <s>] [--check-agreement]
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!     sets of all four workloads, interleaved, `--pause` seconds apart;
//!     with --check-agreement the spread of every end-to-end metric is
//!     held against its bound
//! psf-bench serve --dir <wal dir> --seed <n>
//!     server mode (spawned by the load generator, never by hand)
//! psf-bench benchmark-json
//!     print the text of `BENCHMARK.json`
//! ```

use psf_bench::json::Value;
use psf_bench::metrics::{self, END_TO_END};
use psf_bench::run::{self, Outcome, RunConfig};
use psf_bench::stream::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// `--seconds` of a `--smoke` set.
const SMOKE_SECONDS: f64 = 1.5;

fn usage() -> ExitCode {
    eprintln!(
        "usage: psf-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         psf-bench [--smoke] [--sets <n>] [--pause <s>] [--check-agreement] [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       \
         psf-bench serve --dir <wal dir> --seed <n>\n       \
         psf-bench benchmark-json",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// Where runs keep their WAL directory, trace and report: beside the
/// executable, which is inside the checkout's (git-ignored) build
/// directory wherever `CARGO_TARGET_DIR` points.
fn data_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("executable has no directory")?
        .join("psf-bench-data"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["benchmark-json"] {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let serve = args.first().is_some_and(|a| a == "serve");
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut rest = args.iter().skip(usize::from(serve)).map(String::as_str);
    while let Some(flag) = rest.next() {
        let value = match flag {
            "--smoke" | "--check-agreement" => "1",
            "--workload" | "--seed" | "--seconds" | "--trace" | "--sets" | "--pause" | "--dir" => {
                match rest.next() {
                    Some(v) => v,
                    None => return usage(),
                }
            }
            _ => return usage(),
        };
        flags.insert(flag, value);
    }
    match dispatch(serve, &flags) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("psf-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(serve: bool, flags: &HashMap<&str, &str>) -> Result<ExitCode, String> {
    let number = |flag: &str, default: f64| -> Result<f64, String> {
        flags.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag}: '{v}' is not a number"))
        })
    };
    let seed = number("--seed", 1.0)? as u64;
    if serve {
        let dir = flags.get("--dir").ok_or("serve: --dir is required")?;
        psf_bench::server::serve(PathBuf::from(dir), seed)?;
        return Ok(ExitCode::SUCCESS);
    }
    let smoke = flags.contains_key("--smoke");
    let trace = match flags.get("--trace").copied() {
        None => smoke,
        Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: '{other}' is neither 0 nor 1")),
    };
    let seconds = number(
        "--seconds",
        if smoke {
            SMOKE_SECONDS
        } else {
            f64::from(metrics::RUN_SECONDS)
        },
    )?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is out of range"));
    }
    let config = |workload: Workload, seed: u64| -> Result<RunConfig, String> {
        Ok(RunConfig {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            scratch: data_root()?.join(workload.name()),
        })
    };

    // One run of one workload: the driver's contract.
    if let Some(name) = flags.get("--workload") {
        let workload = Workload::parse(name)
            .ok_or_else(|| format!("--workload: unknown workload '{name}'"))?;
        let cfg = config(workload, seed)?;
        let outcome = run::run(&cfg)?;
        outcome.print();
        write_report(
            &cfg.scratch.join("report.json"),
            seed,
            &[(seed, vec![outcome.clone()])],
        )?;
        println!("{}", outcome.result_line(trace));
        return Ok(if outcome.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    // Sets of all four workloads, interleaved so that a slow minute costs
    // every workload one run, not one workload all of its runs.
    let sets = number("--sets", 1.0)? as usize;
    let pause = std::time::Duration::from_secs_f64(number("--pause", 0.0)?);
    let mut done: Vec<(u64, Vec<Outcome>)> = Vec::with_capacity(sets);
    for set in 0..sets.max(1) {
        if set > 0 {
            std::thread::sleep(pause);
        }
        let set_seed = seed + set as u64;
        let mut outcomes = Vec::with_capacity(Workload::ALL.len());
        for workload in Workload::ALL {
            println!(
                "== set {} of {sets}, seed {set_seed}, {}",
                set + 1,
                workload.name()
            );
            let outcome = run::run(&config(workload, set_seed)?)?;
            outcome.print();
            outcomes.push(outcome);
        }
        done.push((set_seed, outcomes));
        write_report(&data_root()?.join("report.json"), seed, &done)?;
    }
    let all_correct = done.iter().all(|(_, set)| set.iter().all(|o| o.correct));
    let agree = !flags.contains_key("--check-agreement") || check_agreement(&done);
    Ok(if all_correct && agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_report(
    path: &std::path::Path,
    seed: u64,
    sets: &[(u64, Vec<Outcome>)],
) -> Result<(), String> {
    let report = Value::obj([
        ("benchmark", Value::str("psf-bench")),
        ("seed", Value::Num(seed as f64)),
        (
            "sets",
            Value::Arr(
                sets.iter()
                    .map(|(seed, outcomes)| {
                        Value::obj([
                            ("seed", Value::Num(*seed as f64)),
                            (
                                "workloads",
                                Value::Arr(outcomes.iter().map(Outcome::report).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, report.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("report: {}", path.display());
    Ok(())
}

/// Print, per workload × end-to-end metric, how far the sets disagree
/// (range ÷ median, and the interquartile range ÷ median the driver
/// gates on) beside the metric's bound. False if any range of a workload
/// `BENCHMARK.json` lists is out.
fn check_agreement(sets: &[(u64, Vec<Outcome>)]) -> bool {
    let mut agree = true;
    println!("| workload | metric | median | range/median | iqr/median | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (w, workload) in Workload::ALL.iter().enumerate() {
        let gated = Workload::GATED.contains(workload);
        for (name, unit, _, bound) in END_TO_END {
            let mut values: Vec<f64> = sets
                .iter()
                .map(|(_, set)| set[w].end_to_end[name])
                .collect();
            values.sort_by(f64::total_cmp);
            let n = values.len();
            let median = psf_bench::median(values.clone());
            let range = (values[n - 1] - values[0]) / median;
            let iqr = (quartile(&values, 3) - quartile(&values, 1)) / median;
            let verdict = match (gated, range <= bound) {
                (false, _) => "not gated",
                (true, true) => "ok",
                (true, false) => "OUT",
            };
            agree &= verdict != "OUT";
            println!(
                "| {} | {name} | {median:.4} {unit} | {range:.3} | {iqr:.3} | {bound} | {verdict} |",
                workload.name(),
            );
        }
    }
    agree
}

/// Quartile `k` of sorted `values` as Python's
/// `statistics.quantiles(values, n=4)` computes it (exclusive method).
fn quartile(values: &[f64], k: usize) -> f64 {
    let n = values.len();
    if n < 2 {
        return values[0];
    }
    let j = (k * (n + 1) / 4).clamp(1, n - 1);
    let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
    values[j - 1] + (values[j] - values[j - 1]) * delta
}
