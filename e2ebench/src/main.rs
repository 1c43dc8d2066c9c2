//! Command line of the end-to-end benchmark; see the library docs.

use std::process::{Command, ExitCode};

use e2ebench::report;
use e2ebench::{Host, RunConfig, Workload};

const USAGE: &str = "usage: e2ebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
       e2ebench compare OLD_OUTPUT NEW_OUTPUT
workloads: elect-blind-expander elect-bitconv-expander elect-event-expander serve-churn-expander";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: None, seed: 1, seconds: 10.0, trace: false };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".to_string()),
        Some("all") => {}
        Some(name) => {
            out.workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?)
        }
    }
    Ok(out)
}

fn bench(args: &Args, workload: Workload) -> ExitCode {
    let cfg = RunConfig {
        workload,
        n: workload.default_n(),
        seed: args.seed,
        inputs: workload.default_inputs(),
        seconds: args.seconds,
        trace: args.trace,
    };
    let run = e2ebench::workload::run(&cfg);
    let trials = &run.trials;
    let metrics = if cfg.trace {
        report::per_layer(trials)
    } else {
        let Some(peak) = run.peak_rss_mb else {
            eprintln!("e2ebench: cannot read VmHWM from /proc/self/status");
            return ExitCode::FAILURE;
        };
        report::end_to_end(trials, peak)
    };
    let host = Host::detect();
    eprint!("{}", report::human(&cfg, &host, trials, &metrics));
    println!("{}", report::record_line(&cfg, &host, trials, &metrics));
    println!("{}", report::result_line(trials, &metrics));
    ExitCode::SUCCESS
}

/// Run every workload in a child process of its own.
fn bench_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2ebench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" { w.name().to_string() } else { value });
        }
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("e2ebench: {} exited with {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("e2ebench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(paths: &[String]) -> ExitCode {
    let [old, new] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match read(old).and_then(|o| read(new).and_then(|n| report::compare(&o, &n))) {
        Ok((table, mismatch)) => {
            print!("{table}");
            if mismatch {
                eprintln!("e2ebench: host blocks differ; flagged rows compare different machines");
                return ExitCode::from(3);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return compare(&raw[1..]);
    }
    match parse(&raw) {
        Ok(args) => match args.workload {
            Some(w) => bench(&args, w),
            None => bench_all(&raw),
        },
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
