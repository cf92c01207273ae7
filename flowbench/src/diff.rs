//! Diff mode: compares two result sets (JSON lines written with
//! `--record`) metric by metric, against the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    /// Worse by more than the bound.
    Worse,
    Unchanged,
    /// The run-to-run spread exceeds the bound and the two sides overlap.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse beyond bound",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let [q1, m, q3] = quartiles(values);
    if m == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / m.abs()
    }
}

/// How much worse `new` is than `old`, as a share of `old` (negative
/// when better).
fn worsening(spec: &MetricSpec, old: f64, new: f64) -> f64 {
    let delta = if spec.lower_is_better { new - old } else { old - new };
    if old == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / old.abs()
    }
}

fn beats(spec: &MetricSpec, new: f64, old: f64) -> bool {
    if spec.lower_is_better {
        new < old
    } else {
        new > old
    }
}

/// The verdict for one metric on one workload: worse when the median
/// worsens by more than the bound; better when it improves by more than
/// the parent's own spread; unresolved when either side's spread exceeds
/// the bound, unless every new run beats every old run.
pub fn verdict(spec: &MetricSpec, old: &[f64], new: &[f64]) -> Verdict {
    let all_better = new.iter().all(|&n| old.iter().all(|&o| beats(spec, n, o)));
    if spread(old).max(spread(new)) > spec.bound {
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    let change = worsening(spec, quartiles(old)[1], quartiles(new)[1]);
    if change > spec.bound {
        Verdict::Worse
    } else if change < 0.0 && -change > spread(old) {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The outcome of testing one named claim on seed-paired runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    pub pairs: usize,
    pub wins: usize,
    pub ties: usize,
    pub met: bool,
}

/// A gain is claimed only when at least ten pairs ran, the change wins at
/// least nine tenths of them (ties count for neither side), and the
/// medians differ by more than the parent's own spread.
pub fn claim(spec: &MetricSpec, pairs: &[(f64, f64)]) -> Claim {
    let wins = pairs.iter().filter(|&&(old, new)| beats(spec, new, old)).count();
    let ties = pairs.iter().filter(|&&(old, new)| old == new).count();
    let old: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let new: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let gain = -worsening(spec, quartiles(&old)[1], quartiles(&new)[1]);
    let met = pairs.len() >= 10 && wins * 10 >= pairs.len() * 9 && gain > spread(&old);
    Claim { pairs: pairs.len(), wins, ties, met }
}

/// Reads the end-to-end metric specs from a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a message when the document lacks a well-formed `end_to_end`.
pub fn specs(benchmark: &Json) -> Result<Vec<MetricSpec>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = e.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            let bound = e.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok(MetricSpec { name: name.to_owned(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// One untraced result of a result set.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a result set: one JSON record per line, as `--record` appends
/// them. Traced records are skipped: end-to-end metrics come from
/// untraced runs only.
///
/// # Errors
///
/// Returns the first malformed line.
pub fn records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let v = Json::parse(line).map_err(|e| bad(&e))?;
        if v.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload =
            v.get("workload").and_then(Json::as_str).ok_or_else(|| bad("no workload"))?;
        let seed = v.get("seed").and_then(Json::as_f64).ok_or_else(|| bad("no seed"))?;
        let digest = v.get("outcome_digest").and_then(Json::as_str).unwrap_or("").to_owned();
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no result metrics"))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(Record { workload: workload.to_owned(), seed: seed as u64, digest, metrics });
    }
    Ok(out)
}

/// Six significant digits, in scientific notation below 0.01.
fn num(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

fn fmt_quartiles(values: &[f64]) -> String {
    let [q1, m, q3] = quartiles(values);
    format!("{} [{}, {}] n={}", num(m), num(q1), num(q3), values.len())
}

/// Renders the comparison report. `claim` names one `workload:metric`
/// to test with the pair-win rule.
pub fn report(
    specs: &[MetricSpec],
    old: &[Record],
    new: &[Record],
    claim_name: Option<&str>,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let workloads: Vec<&str> = {
        let mut w: Vec<&str> = old.iter().map(|r| r.workload.as_str()).collect();
        w.sort_unstable();
        w.dedup();
        w.retain(|name| new.iter().any(|r| r.workload == *name));
        w
    };
    let values = |set: &[Record], workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    };
    for workload in &workloads {
        let _ = writeln!(out, "{workload}");
        for spec in specs {
            let (o, n) = (values(old, workload, &spec.name), values(new, workload, &spec.name));
            if o.is_empty() || n.is_empty() {
                continue;
            }
            // `+ 0.0` turns a negated zero into a plain one for printing.
            let gain = -worsening(spec, quartiles(&o)[1], quartiles(&n)[1]) * 100.0 + 0.0;
            let _ = writeln!(
                out,
                "  {:<18} old {}  new {}  gain {gain:+.2}% (bound {:.0}%): {}",
                spec.name,
                fmt_quartiles(&o),
                fmt_quartiles(&n),
                spec.bound * 100.0,
                verdict(spec, &o, &n)
            );
        }
        for r in new.iter().filter(|r| r.workload == *workload) {
            let same_seed = old.iter().find(|o| o.workload == r.workload && o.seed == r.seed);
            if let Some(o) = same_seed.filter(|o| o.digest != r.digest) {
                let _ = writeln!(
                    out,
                    "  outcome_digest differs at seed {}: {} -> {}",
                    r.seed, o.digest, r.digest
                );
            }
        }
    }
    if let Some(name) = claim_name {
        let (workload, metric) = name.split_once(':').ok_or("--claim takes <workload>:<metric>")?;
        let spec = specs
            .iter()
            .find(|s| s.name == metric)
            .ok_or_else(|| format!("unknown metric `{metric}`"))?;
        let pairs = pair_by_seed(old, new, workload, metric);
        let c = claim(spec, &pairs);
        let _ = writeln!(
            out,
            "claim {name}: {} of {} pairs won, {} tied: {}",
            c.wins,
            c.pairs,
            c.ties,
            if c.met { "met" } else { "not met" }
        );
    }
    Ok(out)
}

/// Pairs old and new runs of `workload` that share a seed, in seed order
/// (repeated seeds pair in recording order).
fn pair_by_seed(old: &[Record], new: &[Record], workload: &str, metric: &str) -> Vec<(f64, f64)> {
    let by_seed = |set: &[Record]| {
        let mut map: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for r in set.iter().filter(|r| r.workload == workload) {
            if let Some(&v) = r.metrics.get(metric) {
                map.entry(r.seed).or_default().push(v);
            }
        }
        map
    };
    let (o, n) = (by_seed(old), by_seed(new));
    o.iter()
        .filter_map(|(seed, ov)| Some(ov.iter().copied().zip(n.get(seed)?.iter().copied())))
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec { name: "wall_s".into(), lower_is_better: true, bound }
    }

    fn higher(bound: f64) -> MetricSpec {
        MetricSpec { name: "sim_events_per_s".into(), lower_is_better: false, bound }
    }

    /// Ten values around `center` with a ±1% spread.
    fn around(center: f64) -> Vec<f64> {
        (0..10).map(|i| center * (0.99 + 0.002 * f64::from(i))).collect()
    }

    #[test]
    fn a_clear_gain_is_better() {
        assert_eq!(verdict(&lower(0.1), &around(1.0), &around(0.8)), Verdict::Better);
        assert_eq!(verdict(&higher(0.1), &around(1.0), &around(1.3)), Verdict::Better);
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse() {
        assert_eq!(verdict(&lower(0.1), &around(1.0), &around(1.2)), Verdict::Worse);
        assert_eq!(verdict(&higher(0.1), &around(1.0), &around(0.85)), Verdict::Worse);
    }

    #[test]
    fn a_loss_within_the_bound_is_unchanged() {
        assert_eq!(verdict(&lower(0.1), &around(1.0), &around(1.05)), Verdict::Unchanged);
        assert_eq!(verdict(&lower(0.1), &around(1.0), &around(1.0)), Verdict::Unchanged);
    }

    #[test]
    fn a_gain_inside_the_parents_spread_is_unchanged() {
        let old: Vec<f64> = (0..10).map(|i| 1.0 + 0.01 * f64::from(i)).collect();
        let new: Vec<f64> = old.iter().map(|v| v - 0.005).collect();
        assert_eq!(verdict(&lower(0.1), &old, &new), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<f64> = (0..10).map(|i| 0.5 + 0.1 * f64::from(i)).collect();
        assert_eq!(verdict(&lower(0.1), &around(1.0), &noisy), Verdict::Unresolved);
        // ...unless every new run beats every old run.
        let fast: Vec<f64> = noisy.iter().map(|v| v * 0.3).collect();
        assert_eq!(verdict(&lower(0.1), &noisy, &fast), Verdict::Better);
    }

    #[test]
    fn the_claim_needs_nine_of_ten_pair_wins() {
        let spec = lower(0.1);
        let old = around(1.0);
        let nine: Vec<(f64, f64)> =
            old.iter().enumerate().map(|(i, &o)| (o, if i == 0 { o } else { o * 0.8 })).collect();
        let c = claim(&spec, &nine);
        assert_eq!((c.pairs, c.wins, c.ties, c.met), (10, 9, 1, true));
        let eight: Vec<(f64, f64)> = old
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, if i < 2 { o * 1.1 } else { o * 0.8 }))
            .collect();
        assert!(!claim(&spec, &eight).met);
        // Nine pairs are too few even if all win.
        assert!(!claim(&spec, &nine[1..]).met);
    }

    #[test]
    fn the_claim_needs_a_gain_beyond_the_parents_spread() {
        let old: Vec<f64> = (0..10).map(|i| 1.0 + 0.02 * f64::from(i)).collect();
        let pairs: Vec<(f64, f64)> = old.iter().map(|&o| (o, o - 0.001)).collect();
        let c = claim(&lower(0.1), &pairs);
        assert_eq!(c.wins, 10);
        assert!(!c.met);
    }

    #[test]
    fn records_skip_traced_runs_and_pair_by_seed() {
        let text = concat!(
            r#"{"workload": "w", "seed": 2, "trace": 0, "outcome_digest": "a", "result": {"metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}}"#,
            "\n",
            r#"{"workload": "w", "seed": 1, "trace": 1, "result": {"metrics": {}}}"#,
            "\n",
            r#"{"workload": "w", "seed": 1, "trace": 0, "outcome_digest": "b", "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}"#,
        );
        let old = records(text).unwrap();
        assert_eq!(old.len(), 2);
        let new: Vec<Record> = old
            .iter()
            .map(|r| Record {
                metrics: [("wall_s".into(), r.metrics["wall_s"] / 2.0)].into(),
                ..r.clone()
            })
            .collect();
        assert_eq!(pair_by_seed(&old, &new, "w", "wall_s"), vec![(1.0, 0.5), (2.0, 1.0)]);
    }
}
