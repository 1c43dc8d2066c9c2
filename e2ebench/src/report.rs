//! From trials to metrics, and from metrics to the lines a run prints.
//!
//! A run repeats each of its inputs. Every timing is the median over the
//! inputs of each input's fastest repeat: on a shared host, interference
//! only ever adds time, and it comes and goes within seconds, so the
//! fastest of identical runs is the steadiest estimate of the program's
//! own cost, and the median over inputs is that of a typical input. A
//! count is the median over inputs too (counts repeat exactly for a fixed
//! seed). Rates and shares of a whole run are ratios of sums over inputs.

use std::fmt::Write as _;

use mtm_analysis::json::{self, Value};

use crate::host::Host;
use crate::workload::{RunConfig, Traced, Trial};

/// One named measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `xs` (0 when empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Trials that failed a correctness check.
pub fn failed(trials: &[Trial]) -> usize {
    trials.iter().filter(|t| t.failure().is_some()).count()
}

/// Failed trials over attempted trials.
pub fn failed_frac(trials: &[Trial]) -> f64 {
    ratio(failed(trials) as f64, trials.len() as f64)
}

/// The fastest repeats of one input.
struct Best<'a> {
    /// Any trial of the input (node count, CSR size and outcome repeat).
    trial: &'a Trial,
    /// Fastest setup.
    setup_s: f64,
    /// Fastest solve.
    solve_s: f64,
    /// Fastest setup plus solve of one repeat.
    total_s: f64,
    /// The traced copy with the fastest traced total.
    traced: Option<&'a Traced>,
}

/// Each input's fastest repeats, in input order.
fn best_per_input(trials: &[Trial]) -> Vec<Best<'_>> {
    let mut best: Vec<Best<'_>> = Vec::new();
    for t in trials {
        let total_s = t.setup.total() + t.solve_s;
        let Some(b) = best.iter_mut().find(|b| b.trial.input == t.input) else {
            best.push(Best {
                trial: t,
                setup_s: t.setup.total(),
                solve_s: t.solve_s,
                total_s,
                traced: t.traced.as_ref(),
            });
            continue;
        };
        b.setup_s = b.setup_s.min(t.setup.total());
        b.solve_s = b.solve_s.min(t.solve_s);
        b.total_s = b.total_s.min(total_s);
        if let Some(tr) = &t.traced {
            if b.traced.is_none_or(|old| tr.layers.total_s < old.layers.total_s) {
                b.traced = Some(tr);
            }
        }
    }
    best.sort_by_key(|b| b.trial.input);
    best
}

/// Distinct inputs among `trials`.
pub fn inputs(trials: &[Trial]) -> usize {
    best_per_input(trials).len()
}

/// The end-to-end metrics of an untraced run (`BENCHMARK.json`'s
/// `end_to_end`, in its order). `failed_frac` travels as the result's
/// `failed` / `attempted` pair instead: it is 0 on a correct tree, and a
/// reported metric must never be.
pub fn end_to_end(trials: &[Trial], peak_rss_mb: f64) -> Vec<Metric> {
    let best = best_per_input(trials);
    let busy: f64 = best.iter().map(|b| b.setup_s + b.solve_s).sum();
    let node_rounds: f64 = best.iter().map(|b| b.trial.observed.node_rounds).sum();
    vec![
        metric("setup_s", "s", median(best.iter().map(|b| b.setup_s).collect())),
        metric("solve_s", "s", median(best.iter().map(|b| b.solve_s).collect())),
        metric("mnode_rounds_per_s", "Mnode-rounds/s", ratio(node_rounds, busy) / 1e6),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// The per-layer metrics of a traced run (`BENCHMARK.json`'s
/// `per_layer`, in its order), from each input's fastest traced copy.
/// Inputs without a traced copy are ignored.
pub fn per_layer(trials: &[Trial]) -> Vec<Metric> {
    let best = best_per_input(trials);
    let traced: Vec<_> =
        best.iter().filter_map(|b| b.traced.map(|tr| (b.trial, b.total_s, tr))).collect();
    let med = |f: &dyn Fn(&Trial, &Traced) -> f64| {
        median(traced.iter().map(|(t, _, tr)| f(t, tr)).collect())
    };
    let untraced_total: f64 = traced.iter().map(|(_, total_s, _)| total_s).sum();
    let traced_total: f64 = traced.iter().map(|(_, _, tr)| tr.layers.total_s).sum();
    let gen_peak =
        traced.iter().map(|(_, _, tr)| tr.layers.gen_hwm_mb).fold(f64::INFINITY, f64::min);
    vec![
        metric("graph.gen_s", "s", med(&|_, tr| tr.layers.setup.gen_s)),
        metric("graph.gen_peak_rss_mb", "MB", if gen_peak.is_finite() { gen_peak } else { 0.0 }),
        metric("graph.csr_bytes_per_node", "B/node", med(&|t, _| t.csr_bytes_per_node)),
        metric("graph.faults.graph_at_s", "s", med(&|_, tr| tr.layers.graph_at_s)),
        metric("core.spawn_s", "s", med(&|_, tr| tr.layers.setup.spawn_s)),
        metric("engine.new_s", "s", med(&|_, tr| tr.layers.setup.new_s)),
        metric("engine.step_s", "s", med(&|_, tr| tr.layers.step_s)),
        metric(
            "engine.step_ns_per_node_round",
            "ns",
            med(&|t, tr| {
                let node_rounds = t.n as f64 * tr.observed.metrics.rounds as f64;
                ratio(tr.layers.step_s * 1e9, node_rounds)
            }),
        ),
        metric("engine.predicate_s", "s", med(&|_, tr| tr.layers.predicate_s)),
        metric("engine.predicate_calls", "count", med(&|_, tr| tr.layers.predicate_calls as f64)),
        metric("engine.rounds", "count", med(&|_, tr| tr.observed.metrics.rounds as f64)),
        metric("engine.proposals", "count", med(&|_, tr| tr.observed.metrics.proposals as f64)),
        metric("engine.connections", "count", med(&|_, tr| tr.observed.metrics.connections as f64)),
        metric(
            "engine.rejected",
            "count",
            med(&|_, tr| tr.observed.metrics.rejected_proposals as f64),
        ),
        metric(
            "engine.dropped",
            "count",
            med(&|_, tr| tr.observed.metrics.dropped_proposals as f64),
        ),
        metric(
            "engine.connect_ratio",
            "ratio",
            med(&|_, tr| tr.observed.metrics.proposal_success_rate()),
        ),
        metric(
            "event.run_self_s",
            "s",
            med(&|_, tr| tr.layers.event_run_s - tr.layers.event_predicate_s),
        ),
        metric("event.events", "count", med(&|_, tr| tr.observed.events as f64)),
        metric(
            "event.events_per_s",
            "1/s",
            med(&|_, tr| {
                let run_self = tr.layers.event_run_s - tr.layers.event_predicate_s;
                ratio(tr.observed.events as f64, run_self)
            }),
        ),
        metric("event.predicate_s", "s", med(&|_, tr| tr.layers.event_predicate_s)),
        metric(
            "event.predicate_calls",
            "count",
            med(&|_, tr| tr.layers.event_predicate_calls as f64),
        ),
        metric(
            "event.mean_local_rounds",
            "rounds",
            med(&|t, tr| {
                if tr.observed.events == 0 {
                    0.0
                } else {
                    tr.observed.node_rounds / t.n as f64
                }
            }),
        ),
        metric("service.run_s", "s", med(&|_, tr| tr.layers.service_run_s)),
        metric("service.step_only_s", "s", med(&|_, tr| tr.layers.step_only_s)),
        metric(
            "service.survey_s",
            "s",
            med(&|_, tr| tr.layers.service_run_s - tr.layers.step_only_s),
        ),
        metric(
            "service.re_elections",
            "count",
            med(&|_, tr| service_count(tr, |s| s.service.re_elections)),
        ),
        metric(
            "service.stable_rounds",
            "count",
            med(&|_, tr| service_count(tr, |s| s.service.stable_rounds)),
        ),
        metric(
            "service.leaderless_rounds",
            "count",
            med(&|_, tr| service_count(tr, |s| s.service.leaderless_rounds)),
        ),
        metric(
            "service.epochs",
            "count",
            med(&|_, tr| service_count(tr, |s| s.epochs.len() as u64)),
        ),
        metric("bench.trace_overhead_frac", "frac", ratio(traced_total, untraced_total) - 1.0),
    ]
}

fn service_count(tr: &Traced, f: impl Fn(&mtm_engine::ServiceOutcome) -> u64) -> f64 {
    tr.observed.service.as_ref().map_or(0.0, |s| f(s) as f64)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with every digit Rust's shortest round-trip rendering
/// gives it.
fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric values are finite by construction, got {x}");
    format!("{x}")
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: the last line a run prints.
pub fn result_line(trials: &[Trial], metrics: &[Metric]) -> String {
    let failed = failed(trials);
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        failed == 0,
        trials.len(),
        failed,
        metrics_json(metrics)
    )
}

/// Tag of a record line; `compare` reads these back.
pub const RECORD: &str = "e2ebench/v1";

/// The record line printed before the result: the run's settings, its
/// host block, every failure, `failed_frac`, the per-trial setup and solve
/// samples, each input's fastest ones (the medians are over these), and
/// the same metrics.
pub fn record_line(cfg: &RunConfig, host: &Host, trials: &[Trial], metrics: &[Metric]) -> String {
    let failures: Vec<String> = trials
        .iter()
        .filter_map(|t| t.failure().map(|why| json_str(&format!("seed {:#x}: {why}", t.seed))))
        .collect();
    let join = |xs: Vec<f64>| xs.into_iter().map(json_num).collect::<Vec<_>>().join(",");
    let best = best_per_input(trials);
    format!(
        "{{\"record\":{},\"workload\":{},\"n\":{},\"seed\":{},\"trace\":{},\"inputs\":{},\"trials\":{},\"failed_frac\":{},\"failures\":[{}],\"host\":{},\"samples\":{{\"setup_s\":[{}],\"solve_s\":[{}]}},\"best\":{{\"setup_s\":[{}],\"solve_s\":[{}]}},\"metrics\":{}}}",
        json_str(RECORD),
        json_str(cfg.workload.name()),
        trials.first().map_or(cfg.n, |t| t.n),
        cfg.seed,
        u8::from(cfg.trace),
        best.len(),
        trials.len(),
        json_num(failed_frac(trials)),
        failures.join(","),
        host.to_json(),
        join(trials.iter().map(|t| t.setup.total()).collect()),
        join(trials.iter().map(|t| t.solve_s).collect()),
        join(best.iter().map(|b| b.setup_s).collect()),
        join(best.iter().map(|b| b.solve_s).collect()),
        metrics_json(metrics)
    )
}

/// The human-readable report (printed on stderr).
pub fn human(cfg: &RunConfig, host: &Host, trials: &[Trial], metrics: &[Metric]) -> String {
    let mut out = String::new();
    let n = trials.first().map_or(cfg.n, |t| t.n);
    let _ = writeln!(
        out,
        "{}: n={n} seed={} trace={}, {} trials of {} inputs (timings are medians over the \
         inputs of each one's fastest repeat)",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        trials.len(),
        inputs(trials)
    );
    for m in metrics {
        let _ = writeln!(out, "  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed = failed(trials);
    let _ = writeln!(
        out,
        "  {:<30} {:>16.6} frac ({failed} of {} trials failed)",
        "failed_frac",
        failed_frac(trials),
        trials.len()
    );
    for t in trials {
        if let Some(why) = t.failure() {
            let _ = writeln!(out, "  FAILED seed {:#x}: {why}", t.seed);
        }
    }
    let _ = writeln!(
        out,
        "  host: cores={} cpu={:?} rustc={:?} commit={}",
        host.cores, host.cpu, host.rustc, host.commit
    );
    out
}

/// One record read back from a run's output.
struct Record {
    workload: String,
    trace: bool,
    host: Host,
    metrics: Vec<(String, String, f64)>,
}

fn read_records(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for line in text.lines().filter(|l| l.starts_with("{\"record\"")) {
        let v = json::parse(line)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record without {k}"));
        let metrics = field("metrics")?
            .members()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                (name.clone(), unit, value)
            })
            .collect();
        records.push(Record {
            workload: field("workload")?.as_str().ok_or("workload is not a string")?.to_string(),
            trace: field("trace")?.as_f64() == Some(1.0),
            host: Host::from_json(field("host")?).ok_or("malformed host block")?,
            metrics,
        });
    }
    Ok(records)
}

/// Compare the records in two runs' saved outputs, workload by workload.
/// Returns the report and whether any compared pair came from different
/// machines; such rows are flagged with `!`, never silently compared.
pub fn compare(old: &str, new: &str) -> Result<(String, bool), String> {
    let (old, new) = (read_records(old)?, read_records(new)?);
    let mut out = String::new();
    let mut mismatch = false;
    let _ = writeln!(
        out,
        "  {:<24} {:<32} {:>14} {:>14} {:>9}  unit",
        "workload", "metric", "old", "new", "change"
    );
    for o in &old {
        let Some(n) = new.iter().find(|n| n.workload == o.workload && n.trace == o.trace) else {
            continue;
        };
        let diffs = o.host.machine_differences(&n.host);
        let flag = if diffs.is_empty() { ' ' } else { '!' };
        if !diffs.is_empty() {
            mismatch = true;
            let _ = writeln!(
                out,
                "! {}: host blocks differ ({}); these rows compare different machines",
                o.workload,
                diffs.join("; ")
            );
        }
        for (name, unit, before) in &o.metrics {
            let Some((_, _, after)) = n.metrics.iter().find(|(m, _, _)| m == name) else {
                continue;
            };
            let change = if *before == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (after / before - 1.0) * 100.0)
            };
            let _ = writeln!(
                out,
                "{flag} {:<24} {:<32} {:>14.6} {:>14.6} {:>9}  {unit}",
                o.workload, name, before, after, change
            );
        }
    }
    Ok((out, mismatch))
}
