//! Tiny-n smoke of every workload: each emits every metric with its unit,
//! the result line keeps its contract, a wrong expected winner is counted
//! as a failure instead of aborting, and host mismatches are flagged.

use std::process::Command;

use e2ebench::report::{self, Metric};
use e2ebench::workload::{self, plain_trial};
use e2ebench::{Host, RunConfig, Workload};
use mtm_analysis::json::{self, Value};

const N: usize = 64;

const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("mnode_rounds_per_s", "Mnode-rounds/s"),
    ("peak_rss_mb", "MB"),
];

const PER_LAYER: [(&str, &str); 30] = [
    ("graph.gen_s", "s"),
    ("graph.gen_peak_rss_mb", "MB"),
    ("graph.csr_bytes_per_node", "B/node"),
    ("graph.faults.graph_at_s", "s"),
    ("core.spawn_s", "s"),
    ("engine.new_s", "s"),
    ("engine.step_s", "s"),
    ("engine.step_ns_per_node_round", "ns"),
    ("engine.predicate_s", "s"),
    ("engine.predicate_calls", "count"),
    ("engine.rounds", "count"),
    ("engine.proposals", "count"),
    ("engine.connections", "count"),
    ("engine.rejected", "count"),
    ("engine.dropped", "count"),
    ("engine.connect_ratio", "ratio"),
    ("event.run_self_s", "s"),
    ("event.events", "count"),
    ("event.events_per_s", "1/s"),
    ("event.predicate_s", "s"),
    ("event.predicate_calls", "count"),
    ("event.mean_local_rounds", "rounds"),
    ("service.run_s", "s"),
    ("service.step_only_s", "s"),
    ("service.survey_s", "s"),
    ("service.re_elections", "count"),
    ("service.stable_rounds", "count"),
    ("service.leaderless_rounds", "count"),
    ("service.epochs", "count"),
    ("bench.trace_overhead_frac", "frac"),
];

fn tiny(workload: Workload, trace: bool) -> e2ebench::Run {
    let cfg = RunConfig { workload, n: N, seed: 7, inputs: 2, seconds: 0.0, trace };
    workload::run(&cfg)
}

fn names_and_units(metrics: &[Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in Workload::ALL {
        let plain = tiny(w, false);
        assert_eq!(
            report::failed(&plain.trials),
            0,
            "{}: {:?}",
            w.name(),
            plain.trials[0].failure()
        );
        let peak = plain.peak_rss_mb.expect("VmHWM is readable on Linux");
        let e2e = report::end_to_end(&plain.trials, peak);
        assert_eq!(names_and_units(&e2e), END_TO_END, "{}", w.name());
        assert!(e2e.iter().all(|m| m.value.is_finite() && m.value > 0.0), "{}: {e2e:?}", w.name());

        let cfg = RunConfig { workload: w, n: N, seed: 7, inputs: 2, seconds: 0.0, trace: false };
        let human = report::human(&cfg, &Host::detect(), &plain.trials, &e2e);
        assert!(human.contains("failed_frac") && human.contains(" frac ("), "{human}");

        let traced = tiny(w, true);
        assert_eq!(
            report::failed(&traced.trials),
            0,
            "{}: {:?}",
            w.name(),
            traced.trials[0].failure()
        );
        let layers = report::per_layer(&traced.trials);
        assert_eq!(names_and_units(&layers), PER_LAYER, "{}", w.name());
        assert!(layers.iter().all(|m| m.value.is_finite()), "{}: {layers:?}", w.name());
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let doc = benchmark_json();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn traced_split_accounts_for_setup() {
    let run = tiny(Workload::BlindExpander, true);
    for t in &run.trials {
        let traced = t.traced.as_ref().unwrap();
        let layers = traced.layers;
        assert!(layers.setup.total() <= layers.total_s);
        assert!(layers.step_s + layers.predicate_s <= layers.total_s);
        assert_eq!(layers.predicate_calls, traced.observed.metrics.rounds + 1);
    }
}

#[test]
fn repeats_cycle_a_fixed_input_set_and_timings_take_each_inputs_fastest() {
    let cfg = RunConfig {
        workload: Workload::EventExpander,
        n: N,
        seed: 7,
        inputs: 3,
        seconds: 0.2,
        trace: false,
    };
    let run = workload::run(&cfg);
    let trials = &run.trials;
    assert!(trials.len() > 3, "only {} trials in 0.2 s at n={N}", trials.len());
    assert_eq!(report::inputs(trials), 3);
    for (i, t) in trials.iter().enumerate() {
        assert_eq!(t.input, i % 3);
        assert_eq!((t.seed, &t.observed), (trials[i % 3].seed, &trials[i % 3].observed));
    }
    assert_eq!(report::failed(trials), 0);

    let fastest = |input| {
        trials.iter().filter(|t| t.input == input).map(|t| t.solve_s).fold(f64::INFINITY, f64::min)
    };
    let solve = report::end_to_end(trials, 1.0)[1];
    assert_eq!(solve.name, "solve_s");
    assert_eq!(solve.value, report::median((0..3).map(fastest).collect()));

    let mut tampered = trials.clone();
    tampered[3].differs_from_first = true;
    assert_eq!(report::failed(&tampered), 1);
    assert!(tampered[3].failure().unwrap().contains("repeat"));
}

#[test]
fn wrong_expected_winner_is_counted_not_panicked_on() {
    let mut trial = plain_trial(Workload::BlindExpander, N, 3);
    assert_eq!(trial.failure(), None);
    let winner = trial.observed.winner.unwrap();
    trial.expected_winner = Some(winner + 1);
    let trials = vec![trial, plain_trial(Workload::BlindExpander, N, 4)];
    assert_eq!(report::failed(&trials), 1);
    assert_eq!(report::failed_frac(&trials), 0.5);
    assert!(trials[0].failure().unwrap().contains("expected"));
    let line = report::result_line(&trials, &report::end_to_end(&trials, 1.0));
    assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"), "{line}");
}

#[test]
fn compare_flags_a_host_mismatch() {
    let run = tiny(Workload::BlindExpander, false);
    let cfg = RunConfig {
        workload: Workload::BlindExpander,
        n: N,
        seed: 7,
        inputs: 2,
        seconds: 0.0,
        trace: false,
    };
    let metrics = report::end_to_end(&run.trials, 1.0);
    let here = Host { cores: 2, cpu: "A".into(), rustc: "r".into(), commit: "c1".into() };
    let record = |h: &Host| report::record_line(&cfg, h, &run.trials, &metrics);
    let same = Host { commit: "c2".into(), ..here.clone() };
    let (table, mismatch) = report::compare(&record(&here), &record(&same)).unwrap();
    assert!(!mismatch, "a commit change is what a comparison compares");
    assert!(table.contains("setup_s") && !table.contains('!'));
    let other = Host { cpu: "B".into(), ..here.clone() };
    let (table, mismatch) = report::compare(&record(&here), &record(&other)).unwrap();
    assert!(mismatch);
    assert!(table.lines().skip(1).all(|l| l.starts_with('!')), "{table}");
}

#[test]
fn binary_ends_with_the_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", "elect-event-expander", "--seed", "5"])
        .args(["--seconds", "0", "--trace", "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let result = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = result.members().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    let metrics = result.get("metrics").unwrap().members().unwrap();
    let emitted: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(k, m)| (k.as_str(), m.get("unit").and_then(Value::as_str).unwrap()))
        .collect();
    assert_eq!(emitted, END_TO_END);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2", "--workload", "all"][..], &[][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
