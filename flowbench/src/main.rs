//! flowbench: the end-to-end and per-layer benchmark of flowmig.
//!
//! ```text
//! flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
//! flowbench diff <old.jsonl> <new.jsonl> [--claim <workload>:<metric>] [--benchmark <file>]
//! ```
//!
//! Run mode builds the workload's inputs from the seed, then runs the
//! workload's pass back to back (a closed loop: one caller, one thread)
//! for the given number of seconds. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced passes
//! with traced ones, which time every call into a flowmig crate from the
//! outside, and reports the per-layer metrics. Every run is checked, and
//! every pass must reproduce the first pass's outcome digest. The last
//! line of standard output is the JSON result. See `README.md`.

mod check;
mod diff;
mod json;
mod machine;
mod stats;
mod workload;

use check::Digest;
use json::Json;
use machine::Machine;
use stats::median;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{LayerTimes, RunResult, Workload};

/// A set-up batch repeats set-up until this many seconds have passed, so
/// that set-ups of a few microseconds are timed over many repetitions.
/// One batch runs before every pass; `setup_s` is the median over batches
/// of the mean set-up time within a batch.
const SETUP_BATCH_SECONDS: f64 = 0.02;

const USAGE: &str = "usage: flowbench --workload <paper_suite|wave_10k|drain_flood> --seed <n> \
                     --seconds <s> --trace <0|1> [--record <file>]\n       \
                     flowbench diff <old.jsonl> <new.jsonl> [--claim <workload>:<metric>] \
                     [--benchmark <BENCHMARK.json>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("diff") => diff_main(&args[1..]),
        _ => run_main(&args),
    };
    result.unwrap_or_else(|err| {
        eprintln!("flowbench: {err}");
        ExitCode::from(2)
    })
}

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a whole number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--record" => record = Some(value.clone()),
            _ => return Err(format!("unknown option `{flag}`\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Options {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        record,
    })
}

/// One pass over every run of the workload.
struct Pass {
    /// Host seconds spent in the runs (checks and digests excluded).
    wall: f64,
    results: Vec<RunResult>,
}

impl Pass {
    fn events(&self) -> u64 {
        self.results.iter().map(|r| r.stats.sim_events).sum()
    }

    fn digests(&self) -> Vec<u64> {
        self.results.iter().map(|r| r.digest).collect()
    }
}

/// Runs every case once; traced when `layers` is given.
fn run_pass(w: &Workload, mut layers: Option<&mut LayerTimes>) -> Pass {
    let mut pass = Pass { wall: 0.0, results: Vec::new() };
    for case in &w.cases {
        let (result, secs) = match layers.as_deref_mut() {
            Some(l) => workload::run_traced(w, case, l),
            None => workload::run_untraced(w, case),
        };
        pass.wall += secs;
        pass.results.push(result);
    }
    pass
}

/// Counts attempted and failed runs of `pass` against the reference
/// digests, printing each failure to standard error.
fn check_pass(w: &Workload, pass: &Pass, reference: &[u64], kind: &str, tally: &mut (u64, u64)) {
    for ((case, result), &expected) in w.cases.iter().zip(&pass.results).zip(reference) {
        tally.0 += 1;
        let mismatch = (result.digest != expected).then(|| {
            format!(
                "outcome digest {:016x} differs from the first pass's {expected:016x}",
                result.digest
            )
        });
        if let Some(why) = result.failure.clone().or(mismatch) {
            tally.1 += 1;
            eprintln!("flowbench: {kind} run {} failed: {why}", case.label(&w.dags));
        }
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    let value = Json::Num(value);
    (
        name.to_owned(),
        Json::Obj(vec![("value".into(), value), ("unit".into(), Json::Str(unit.into()))]),
    )
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// Mean of a simulated span over the runs where it occurred.
fn mean_span(results: &[RunResult], f: impl Fn(&RunResult) -> Option<f64>) -> f64 {
    mean(results.iter().filter(|r| r.completed).filter_map(f))
}

fn end_to_end(untraced: &[Pass], setup: &[f64]) -> Vec<(String, Json)> {
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall).collect();
    let rates: Vec<f64> = untraced.iter().map(|p| p.events() as f64 / p.wall).collect();
    let first = &untraced[0].results;
    vec![
        metric("wall_s", median(&walls), "s"),
        metric("sim_events_per_s", median(&rates), "1/s"),
        metric("setup_s", median(setup), "s"),
        metric("peak_rss_mb", machine::peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
        metric(
            "sim_restore_s",
            mean_span(first, |r| r.metrics.restore.map(|d| d.as_secs_f64())),
            "sim_s",
        ),
        metric("sim_migration_s", mean_span(first, |r| r.migration), "sim_s"),
    ]
}

fn per_layer(untraced: &[Pass], traced: &[Pass], layers: &[LayerTimes]) -> Vec<(String, Json)> {
    let l = LayerTimes::median_of(layers);
    let runs = &traced[0].results;
    let sum = |f: fn(&RunResult) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&RunResult) -> u64| runs.iter().map(f).max().unwrap_or(0) as f64;
    let ns_per =
        |secs: f64, events: u64| if events == 0 { 0.0 } else { secs * 1e9 / events as f64 };
    let span = |f: fn(&RunResult) -> Option<flowmig_sim::SimDuration>| {
        mean_span(runs, |r| f(r).map(|d| d.as_secs_f64()))
    };
    let trace_events = sum(|r| r.trace_events);
    let processed = sum(|r| r.stats.events_processed);
    let untraced_wall = median(&untraced.iter().map(|p| p.wall).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|p| p.wall).collect::<Vec<_>>());
    vec![
        metric("topology.build_ms", l.topology_build * 1e3, "ms"),
        metric("cluster.plan_ms", l.cluster_plan * 1e3, "ms"),
        metric("core.coordinator_ms", l.core_coordinator * 1e3, "ms"),
        metric("engine.new_ms", l.engine_new * 1e3, "ms"),
        metric("engine.steady_ms", l.engine_steady * 1e3, "ms"),
        metric("engine.steady_ns_per_event", ns_per(l.engine_steady, l.events_steady), "ns"),
        metric("engine.migrate_ms", l.engine_migrate * 1e3, "ms"),
        metric("engine.migrate_ns_per_event", ns_per(l.engine_migrate, l.events_migrate), "ns"),
        metric("engine.post_ms", l.engine_post * 1e3, "ms"),
        metric("engine.post_ns_per_event", ns_per(l.engine_post, l.events_post), "ns"),
        metric("metrics.from_trace_ms", l.metrics_from_trace * 1e3, "ms"),
        metric("metrics.trace_events", trace_events, "count"),
        metric(
            "metrics.ns_per_trace_event",
            ns_per(l.metrics_from_trace, trace_events as u64),
            "ns",
        ),
        metric("workloads.export_ms", l.workloads_export * 1e3, "ms"),
        metric("bench.traced_wall_s", traced_wall, "s"),
        metric("bench.trace_overhead", traced_wall / untraced_wall - 1.0, "ratio"),
        metric("sim.events", sum(|r| r.stats.sim_events), "count"),
        metric("sim.events_steady", l.events_steady as f64, "count"),
        metric("sim.events_migrate", l.events_migrate as f64, "count"),
        metric("sim.events_post", l.events_post as f64, "count"),
        metric("sim.queue_peak_pending", max(|r| r.stats.queue_peak_pending), "count"),
        metric("sim.queue_rotations", sum(|r| r.stats.queue_rotations), "count"),
        metric("engine.events_processed", processed, "count"),
        metric("engine.control_processed", sum(|r| r.stats.control_processed), "count"),
        metric("engine.roots_acked", sum(|r| r.stats.roots_acked), "count"),
        metric("engine.roots_failed", sum(|r| r.stats.roots_failed), "count"),
        metric("engine.events_dropped", sum(|r| r.stats.events_dropped), "count"),
        metric("engine.events_captured", sum(|r| r.stats.events_captured), "count"),
        metric("engine.state_persists", sum(|r| r.stats.state_persists), "count"),
        metric("engine.state_fetches", sum(|r| r.stats.state_fetches), "count"),
        metric("engine.store_ops_queued", sum(|r| r.stats.store_ops_queued), "count"),
        metric("engine.store_wait_s", sum(|r| r.stats.store_wait_us) / 1e6, "sim_s"),
        metric("engine.store_max_queue_depth", max(|r| r.store_max_queue_depth), "count"),
        metric("engine.dispatch_rebuilds", sum(|r| r.stats.dispatch_rebuilds), "count"),
        metric(
            "engine.replay_share",
            if processed == 0.0 {
                0.0
            } else {
                sum(|r| r.stats.replayed_event_messages) / processed
            },
            "ratio",
        ),
        metric("core.drain_capture_s", span(|r| r.metrics.drain_capture), "sim_s"),
        metric("core.rebalance_s", span(|r| r.metrics.rebalance), "sim_s"),
        metric("core.commit_wave_s", span(|r| r.metrics.commit_wave), "sim_s"),
        metric("core.restore_wave_s", span(|r| r.metrics.restore_wave), "sim_s"),
        metric("core.catchup_s", span(|r| r.metrics.catchup), "sim_s"),
        metric("core.stabilize_s", span(|r| r.metrics.stabilization), "sim_s"),
        metric(
            "core.replayed_msgs",
            sum(|r| r.metrics.replayed_messages) / runs.len() as f64,
            "count",
        ),
    ]
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    for var in machine::OVERRIDES {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; the benchmark measures the engine's defaults only"));
        }
    }
    let opts = parse_options(args)?;
    if !workload::NAMES.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", opts.workload));
    }
    let machine = Machine::detect();

    // Set-up batches run between passes, so that `setup_s` samples the
    // machine over the whole run, as `wall_s` does. Every pass runs on
    // freshly built inputs; the digest check holds them to the first.
    let mut setup = Vec::new();
    let mut build = || {
        let started = Instant::now();
        let mut count = 0;
        let mut built = None;
        while count == 0 || started.elapsed().as_secs_f64() < SETUP_BATCH_SECONDS {
            built = workload::setup(&opts.workload, opts.seed);
            count += 1;
        }
        setup.push(started.elapsed().as_secs_f64() / f64::from(count));
        built.expect("workload name checked")
    };

    // Closed loop: the next pass starts when the previous one ends.
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let (mut untraced, mut traced, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = (0, 0);
    let mut w;
    loop {
        w = build();
        let pass = run_pass(&w, None);
        let reference = untraced.first().unwrap_or(&pass).digests();
        check_pass(&w, &pass, &reference, "untraced", &mut tally);
        untraced.push(pass);
        if opts.trace {
            let mut l = LayerTimes::default();
            let pass = run_pass(&w, Some(&mut l));
            check_pass(&w, &pass, &reference, "traced", &mut tally);
            traced.push(pass);
            layers.push(l);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let mut outcome = Digest::new();
    for d in untraced[0].digests() {
        outcome.u64(d);
    }
    let outcome_digest = format!("{:016x}", outcome.finish());
    let metrics = if opts.trace {
        per_layer(&untraced, &traced, &layers)
    } else {
        end_to_end(&untraced, &setup)
    };
    let (attempted, failed) = tally;
    let correct = failed == 0;

    println!(
        "flowbench {} seed {} ({} runs per pass; {} untraced and {} traced passes in {} s)",
        w.name,
        opts.seed,
        w.cases.len(),
        untraced.len(),
        traced.len(),
        opts.seconds
    );
    println!(
        "machine: nproc {} commit {} source {} {} backend {} executor {}",
        machine.nproc,
        machine.commit,
        machine.source_digest,
        machine.rustc,
        machine.backend,
        machine.executor
    );
    for (name, m) in &metrics {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {:<30} {value:>16.6} {unit}", name);
    }
    // Reported by name but kept out of the JSON metrics, which must never
    // read 0: no `wave_10k`/`drain_flood` run stabilizes within its 90 s
    // horizon, and reliable strategies replay nothing.
    let first = &untraced[0].results;
    let stabilized: Vec<f64> =
        first.iter().filter_map(|r| Some(r.metrics.stabilization?.as_secs_f64())).collect();
    let replayed = first.iter().map(|r| r.metrics.replayed_messages as f64);
    println!(
        "  {:<30} {:>16.6} sim_s ({} of {} runs stabilized)",
        "sim_stabilize_s",
        mean(stabilized.iter().copied()),
        stabilized.len(),
        first.len()
    );
    println!("  {:<30} {:>16.6} count", "replayed_msgs", mean(replayed));
    println!(
        "  {:<30} {:>16.6} ({failed} of {attempted} runs)",
        "run_failure_ratio",
        failed as f64 / attempted as f64
    );
    println!("outcome_digest {outcome_digest}");

    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    if let Some(path) = &opts.record {
        let record = Json::Obj(vec![
            ("workload".into(), Json::Str(w.name.into())),
            ("seed".into(), Json::Num(opts.seed as f64)),
            ("seconds".into(), Json::Num(opts.seconds as f64)),
            ("trace".into(), Json::Num(u8::from(opts.trace).into())),
            ("machine".into(), machine.to_json()),
            ("outcome_digest".into(), Json::Str(outcome_digest.clone())),
            ("result".into(), result.clone()),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(file, "{}", record.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn diff_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut files, mut claim, mut benchmark) = (Vec::new(), None, "BENCHMARK.json".to_owned());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--claim" => {
                claim = Some(it.next().ok_or("--claim needs <workload>:<metric>")?.clone())
            }
            "--benchmark" => benchmark = it.next().ok_or("--benchmark needs a file")?.clone(),
            _ => files.push(arg.clone()),
        }
    }
    let [old, new] = files.as_slice() else {
        return Err(format!("diff takes two result files\n{USAGE}"));
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let specs =
        diff::specs(&Json::parse(&read(&benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?)?;
    let old = diff::records(&read(old)?).map_err(|e| format!("{old}: {e}"))?;
    let new = diff::records(&read(new)?).map_err(|e| format!("{new}: {e}"))?;
    print!("{}", diff::report(&specs, &old, &new, claim.as_deref())?);
    Ok(ExitCode::SUCCESS)
}
