//! Engine throughput harness: measures node-rounds/sec per topology ×
//! protocol workload and maintains labeled series in `BENCH_engine.json`.
//!
//! ```text
//! engine_throughput [--quick] [--label NAME] [--output PATH]
//! engine_throughput --check PATH [--require a,b,c]
//! ```
//!
//! The measure mode merges its series into the output file (other labels
//! are preserved), prints the table, and — when both `before` and `after`
//! series exist — reports the speedup on the headline expander workload.
//! The check mode validates that the file parses and that each required
//! series contains every expected bench with positive throughput.

use mtm_bench::throughput::{
    check, load_or_new, run_workloads, set_series, speedup, EXPECTED_BENCHES,
};

struct Args {
    quick: bool,
    label: String,
    output: String,
    check_path: Option<String>,
    require: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        label: "after".to_string(),
        output: "BENCH_engine.json".to_string(),
        check_path: None,
        require: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |argv: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--label" => args.label = take(&argv, &mut i, "--label")?,
            "--output" => args.output = take(&argv, &mut i, "--output")?,
            "--check" => args.check_path = Some(take(&argv, &mut i, "--check")?),
            "--require" => {
                args.require =
                    take(&argv, &mut i, "--require")?.split(',').map(str::to_string).collect();
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: engine_throughput [--quick] [--label NAME] [--output PATH]\n       \
                 engine_throughput --check PATH [--require a,b,c]"
            );
            std::process::exit(2);
        }
    };

    if let Some(path) = &args.check_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        });
        match mtm_bench::json::parse(&text)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|doc| check(&doc, &args.require).map_err(|e| format!("{path}: {e}")))
        {
            Ok(labels) => {
                println!("{path}: ok ({} series: {})", labels.len(), labels.join(", "));
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let entries = run_workloads(args.quick);
    println!("{:<48} {:>10} {:>16}", "bench", "ns/nr", "node-rounds/s");
    for e in &entries {
        println!(
            "{:<48} {:>10.2} {:>16.0}",
            e.bench,
            e.ns_per_node_round(),
            e.node_rounds_per_sec()
        );
    }

    let mut doc = load_or_new(&args.output).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    set_series(&mut doc, &args.label, args.quick, &entries);
    std::fs::write(&args.output, doc.render()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {}: {e}", args.output);
        std::process::exit(1);
    });
    println!("\nseries '{}' written to {}", args.label, args.output);

    let headline = EXPECTED_BENCHES[1]; // blind_gossip/expander8-1024
    if let Some(s) = speedup(&doc, headline) {
        println!("speedup after/before on {headline}: {s:.2}x");
    }
}
