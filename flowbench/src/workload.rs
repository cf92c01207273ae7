//! The three workloads, their set-up from a seed, and the two ways of
//! running one pass: through `MigrationController::run` (untraced), or
//! step by step through the same public calls with a timer around each
//! crate boundary (traced).

use crate::check::{self, Digest};
use crate::stats::median;
use flowmig_cluster::{ScaleDirection, ScalePlan};
use flowmig_core::{
    default_strategy, CcrPipelined, MigrationController, MigrationOutcome, MigrationStrategy,
    StrategyKind,
};
use flowmig_engine::{Engine, EngineConfig, EngineStats, StoreServiceModel};
use flowmig_metrics::{MigrationMetrics, StabilityCriteria, TraceEvent, TraceLog};
use flowmig_sim::{SimDuration, SimTime};
use flowmig_topology::{library, Dataflow, InstanceSet, RatePlan};
use flowmig_workloads::{latency_csv, throughput_csv};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_suite", "wave_10k", "drain_flood"];

/// Throughput/latency bucket of the Fig. 7/9 series and of the §4
/// stability criterion (the controller's default).
const BUCKET: SimDuration = SimDuration::from_secs(10);

/// Granularity at which the traced pass steps through the migration
/// window to find the completion instant.
const STEP: SimDuration = SimDuration::from_millis(100);

/// One migration run of a workload: every input the library receives.
pub struct Case {
    dag: usize,
    strategy: Box<dyn MigrationStrategy>,
    direction: ScaleDirection,
    controller: MigrationController,
    /// The controller's engine configuration, kept for the traced pass,
    /// which builds the engine itself.
    config: EngineConfig,
    seed: u64,
}

impl Case {
    /// Label for failure messages.
    pub fn label(&self, dags: &[Dataflow]) -> String {
        let dir = match self.direction {
            ScaleDirection::In => "in",
            ScaleDirection::Out => "out",
        };
        format!("{} {} {dir} seed {}", self.strategy.name(), dags[self.dag].name(), self.seed)
    }
}

/// A workload's inputs, generated from its seed.
pub struct Workload {
    pub name: &'static str,
    pub dags: Vec<Dataflow>,
    pub cases: Vec<Case>,
}

/// SplitMix64: derives independent engine seeds from the workload seed.
fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The controller settings `wave_10k` and `drain_flood` share: a
/// 32-shard FIFO store, no worker-ready delay, request at 30 s, horizon
/// 90 s.
fn wave_controller(seed: u64) -> (MigrationController, EngineConfig) {
    let config = EngineConfig {
        worker_ready_min: SimDuration::ZERO,
        worker_ready_max: SimDuration::ZERO,
        store_shards: 32,
        store_service: StoreServiceModel::FifoPerShard,
        ..EngineConfig::default()
    };
    let controller = MigrationController::new()
        .with_engine_config(config)
        .with_request_at(SimTime::from_secs(30))
        .with_horizon(SimTime::from_secs(90))
        .with_seed(seed);
    (controller, config)
}

/// Engine seeds per (dataflow, strategy, direction) cell of
/// `paper_suite`: the simulated means average over this many runs each.
const PAPER_SEEDS: usize = 4;
/// Runs per `wave_10k` pass (one engine seed each).
const WAVE_RUNS: u64 = 16;
/// Runs per `drain_flood` pass.
const DRAIN_RUNS: u64 = 2;

/// Builds workload `name`'s inputs from `seed`. Returns `None` for an
/// unknown name.
pub fn setup(name: &str, seed: u64) -> Option<Workload> {
    let (name, dags, cases) = match name {
        "paper_suite" => {
            let dags = library::paper_dataflows();
            let mut cases = Vec::new();
            for _ in 0..PAPER_SEEDS {
                for dag in 0..dags.len() {
                    for kind in StrategyKind::ALL {
                        for direction in [ScaleDirection::In, ScaleDirection::Out] {
                            let run_seed = derive_seed(seed, cases.len() as u64);
                            let controller = MigrationController::new().with_seed(run_seed);
                            cases.push(Case {
                                dag,
                                strategy: default_strategy(kind),
                                direction,
                                controller,
                                config: EngineConfig::default(),
                                seed: run_seed,
                            });
                        }
                    }
                }
            }
            ("paper_suite", dags, cases)
        }
        "wave_10k" => {
            let dags = vec![library::grid_scaled(625)];
            let cases = (0..WAVE_RUNS)
                .map(|i| {
                    let run_seed = derive_seed(seed, i);
                    let (controller, config) = wave_controller(run_seed);
                    Case {
                        dag: 0,
                        strategy: Box::new(CcrPipelined::new()),
                        direction: ScaleDirection::In,
                        controller,
                        config,
                        seed: run_seed,
                    }
                })
                .collect();
            ("wave_10k", dags, cases)
        }
        "drain_flood" => {
            let dags = vec![library::grid_scaled(250)];
            let cases = (0..DRAIN_RUNS)
                .map(|i| {
                    let run_seed = derive_seed(seed, i);
                    let (controller, config) = wave_controller(run_seed);
                    Case {
                        dag: 0,
                        strategy: default_strategy(StrategyKind::Dcr),
                        direction: ScaleDirection::In,
                        controller,
                        config,
                        seed: run_seed,
                    }
                })
                .collect();
            ("drain_flood", dags, cases)
        }
        _ => return None,
    };
    Some(Workload { name, dags, cases })
}

/// What one run produced, reduced to what the benchmark reports.
pub struct RunResult {
    pub completed: bool,
    /// Simulated seconds from the migration request to its completion.
    pub migration: Option<f64>,
    pub stats: EngineStats,
    pub metrics: MigrationMetrics,
    pub digest: u64,
    pub trace_events: u64,
    pub store_max_queue_depth: u64,
    /// Why the run failed its check, if it did.
    pub failure: Option<String>,
}

fn finish(case: &Case, outcome: &MigrationOutcome, series: (&str, &str)) -> RunResult {
    let mut digest = Digest::new();
    check::digest_outcome(&mut digest, &outcome.stats, &outcome.metrics, &outcome.trace);
    digest.bytes(series.0.as_bytes());
    digest.bytes(series.1.as_bytes());
    let requested = outcome.trace.migration_requested_at();
    let migration = requested
        .zip(outcome.trace.migration_completed_at())
        .map(|(req, done)| done.saturating_since(req).as_secs_f64());
    RunResult {
        completed: outcome.completed,
        migration,
        stats: outcome.stats,
        metrics: outcome.metrics,
        digest: digest.finish(),
        trace_events: outcome.trace.len() as u64,
        store_max_queue_depth: outcome
            .shard_stats
            .iter()
            .map(|s| s.max_queue_depth as u64)
            .max()
            .unwrap_or(0),
        failure: check::check_run(case.strategy.kind(), outcome.completed, &outcome.stats).err(),
    }
}

/// The Fig. 7/9 series of one run, on the paper's request-relative axis.
fn export(trace: &TraceLog) -> (String, String) {
    let origin = trace.migration_requested_at().unwrap_or(SimTime::ZERO);
    (throughput_csv(trace, BUCKET, origin), latency_csv(trace, BUCKET, origin))
}

/// One untraced run: the controller call users make, then the series.
/// Returns the result and the host seconds the two calls took.
pub fn run_untraced(w: &Workload, case: &Case) -> (RunResult, f64) {
    let started = Instant::now();
    let outcome = case
        .controller
        .run(&w.dags[case.dag], case.strategy.as_ref(), case.direction)
        .expect("the workload's scenarios are placeable");
    let (tput, lat) = export(&outcome.trace);
    let secs = started.elapsed().as_secs_f64();
    (finish(case, &outcome, (&tput, &lat)), secs)
}

/// Host seconds and event counts of one traced pass, per layer, summed
/// over the pass's runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    /// `InstanceSet::plan` and `RatePlan::for_dataflow`.
    pub topology_build: f64,
    /// `ScalePlan::paper_scenario`.
    pub cluster_plan: f64,
    /// `MigrationStrategy::protocol` and `coordinator`.
    pub core_coordinator: f64,
    /// `Engine::new` (with the clones it takes by value).
    pub engine_new: f64,
    /// `Engine::run_until` up to the request.
    pub engine_steady: f64,
    /// `Engine::run_until` from the request to the completion.
    pub engine_migrate: f64,
    /// `Engine::run_until` from the completion to the horizon.
    pub engine_post: f64,
    /// `MigrationMetrics::from_trace`.
    pub metrics_from_trace: f64,
    /// `throughput_csv` and `latency_csv`.
    pub workloads_export: f64,
    pub events_steady: u64,
    pub events_migrate: u64,
    pub events_post: u64,
}

impl LayerTimes {
    /// Per-field medians over passes (host times only; event counts are
    /// identical across passes of one workload).
    pub fn median_of(passes: &[LayerTimes]) -> LayerTimes {
        let m = |f: fn(&LayerTimes) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let first = passes.first().copied().unwrap_or_default();
        LayerTimes {
            topology_build: m(|l| l.topology_build),
            cluster_plan: m(|l| l.cluster_plan),
            core_coordinator: m(|l| l.core_coordinator),
            engine_new: m(|l| l.engine_new),
            engine_steady: m(|l| l.engine_steady),
            engine_migrate: m(|l| l.engine_migrate),
            engine_post: m(|l| l.engine_post),
            metrics_from_trace: m(|l| l.metrics_from_trace),
            workloads_export: m(|l| l.workloads_export),
            ..first
        }
    }
}

/// Times `f` into `slot` (seconds).
fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed().as_secs_f64();
    out
}

/// One traced run: the body of `MigrationController::run`, call by call
/// through the crates' public functions, with `Engine::run_until` sliced
/// at the request and at the completion. Produces the same outcome (and
/// digest) as [`run_untraced`]; the check in `main` holds it to that.
/// Returns the result and the host seconds the run took, timers included.
pub fn run_traced(w: &Workload, case: &Case, layers: &mut LayerTimes) -> (RunResult, f64) {
    let started = Instant::now();
    let dag = &w.dags[case.dag];
    let strategy = case.strategy.as_ref();
    let ctl = &case.controller;
    let (instances, expected) = timed(&mut layers.topology_build, || {
        let instances = InstanceSet::plan(dag);
        let expected = RatePlan::for_dataflow(dag).expected_sink_rate_hz(dag);
        (instances, expected)
    });
    let plan = timed(&mut layers.cluster_plan, || {
        ScalePlan::paper_scenario(dag, &instances, case.direction)
            .expect("the workload's scenarios are placeable")
    });
    let (protocol, coordinator) =
        timed(&mut layers.core_coordinator, || (strategy.protocol(), strategy.coordinator()));
    let mut engine = timed(&mut layers.engine_new, || {
        Engine::new(
            dag.clone(),
            instances.clone(),
            &plan,
            case.config,
            protocol,
            coordinator,
            case.seed,
        )
    });
    engine.schedule_migration(ctl.request_at());

    timed(&mut layers.engine_steady, || engine.run_until(ctl.request_at()));
    let steady = engine.stats().sim_events;
    // Step through the migration window; only `run_until` is charged to
    // the engine, the scan of the newly recorded trace events is not.
    let mut scanned = 0;
    while engine.now() < ctl.horizon() {
        let trace = engine.trace();
        let done =
            trace.iter().skip(scanned).any(|e| matches!(e, TraceEvent::MigrationCompleted { .. }));
        scanned = trace.len();
        if done {
            break;
        }
        let next = (engine.now() + STEP).min(ctl.horizon());
        timed(&mut layers.engine_migrate, || engine.run_until(next));
    }
    let migrated = engine.stats().sim_events;
    timed(&mut layers.engine_post, || engine.run_until(ctl.horizon()));
    layers.events_steady += steady;
    layers.events_migrate += migrated - steady;
    layers.events_post += engine.stats().sim_events - migrated;

    let stats = *engine.stats();
    let shard_stats = engine.store().all_shard_stats();
    let trace = engine.into_trace();
    let metrics = timed(&mut layers.metrics_from_trace, || {
        MigrationMetrics::from_trace(&trace, &StabilityCriteria::paper(expected), BUCKET)
    });
    let completed = trace.migration_completed_at().is_some();
    let outcome = MigrationOutcome {
        strategy: strategy.name(),
        metrics,
        stats,
        completed,
        trace,
        shard_stats,
    };
    let (tput, lat) = timed(&mut layers.workloads_export, || export(&outcome.trace));
    let secs = started.elapsed().as_secs_f64();
    (finish(case, &outcome, (&tput, &lat)), secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short DCR and DSM run on the linear dataflow: small enough for a
    /// unit test, long enough to cross every migration phase.
    fn linear_workload() -> Workload {
        let case = |kind| Case {
            dag: 0,
            strategy: default_strategy(kind),
            direction: ScaleDirection::In,
            controller: MigrationController::new()
                .with_request_at(SimTime::from_secs(60))
                .with_horizon(SimTime::from_secs(240))
                .with_seed(5),
            config: EngineConfig::default(),
            seed: 5,
        };
        Workload {
            name: "linear",
            dags: vec![library::linear()],
            cases: vec![case(StrategyKind::Dcr), case(StrategyKind::Dsm)],
        }
    }

    #[test]
    fn the_traced_run_reproduces_the_controller_run() {
        let w = linear_workload();
        let mut layers = LayerTimes::default();
        for case in &w.cases {
            let (plain, _) = run_untraced(&w, case);
            let (traced, _) = run_traced(&w, case, &mut layers);
            assert!(plain.completed && plain.failure.is_none(), "{}", case.label(&w.dags));
            assert_eq!(plain.digest, traced.digest, "{}", case.label(&w.dags));
        }
        assert_eq!(
            layers.events_steady + layers.events_migrate + layers.events_post,
            w.cases.iter().map(|c| run_untraced(&w, c).0.stats.sim_events).sum::<u64>()
        );
        assert!(layers.events_migrate > 0 && layers.events_post > 0);
    }

    #[test]
    fn the_same_seed_builds_the_same_inputs() {
        for name in NAMES {
            let (a, b) = (setup(name, 9).unwrap(), setup(name, 9).unwrap());
            let seeds = |w: &Workload| w.cases.iter().map(|c| c.seed).collect::<Vec<_>>();
            assert_eq!(seeds(&a), seeds(&b), "{name}");
            assert_ne!(seeds(&a), seeds(&setup(name, 10).unwrap()), "{name}");
        }
        assert!(setup("no_such_workload", 1).is_none());
    }
}
