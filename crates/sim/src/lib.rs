//! # flowmig-sim
//!
//! Deterministic discrete-event simulation (DES) kernel underpinning the
//! `flowmig` reproduction of *"Toward Reliable and Rapid Elasticity for
//! Streaming Dataflows on Clouds"* (Shukla & Simmhan, ICDCS 2018).
//!
//! The kernel provides three things:
//!
//! * virtual time — [`SimTime`] / [`SimDuration`], microsecond resolution;
//! * a future-event list — [`EventQueue`], with deterministic FIFO
//!   tie-breaking for same-instant events;
//! * a driver — [`Simulation`] running any [`Process`] model to a horizon,
//!   quiescence, or an event budget.
//!
//! Randomness is confined to [`SimRng`], a seeded generator, so every run is
//! a pure function of its seed: re-running an experiment with the same seed
//! reproduces every queue length, timeout and replay decision exactly.
//!
//! # Backend selection
//!
//! The future-event list has two interchangeable backends, chosen with
//! [`QueueBackend`] via [`EventQueue::with_backend`] /
//! [`Simulation::with_backend`]:
//!
//! * **`Heap`** (default) — a binary heap fronted by up to
//!   [`DELAY_LANES`] per-delay FIFO lanes. Relative schedules
//!   ([`Scheduler::after`], [`Scheduler::after_batch`],
//!   [`Scheduler::now_event`], all through
//!   [`EventQueue::schedule_after`]) land at `now + delay`; since `now`
//!   never decreases inside a run, entries with the same delay arrive in
//!   `(due, seq)` order and are appended to that delay's lane in `O(1)`.
//!   Popping takes the least of the heap top and the non-empty lanes'
//!   heads. Absolute schedules ([`Scheduler::at`], [`Simulation::schedule`]),
//!   delays past the first [`DELAY_LANES`] distinct ones and any push that
//!   would land behind its lane's tail go to the heap, which is
//!   `O(log n)` and robust to any timestamp distribution.
//! * **`Calendar`** — a two-tier calendar queue (near-term bucket ring +
//!   sorted far-future overflow tier); `O(1)` amortized for dense
//!   near-term traffic whatever way it was scheduled.
//!
//! **Semantics guarantee:** both backends pop in identical `(due, seq)`
//! order for *any* interleaving of schedules and pops, so traces, stats and
//! seeds are backend-independent — switching backends can never change a
//! result, only how fast it arrives. The engine schedules almost all of
//! its events relative to `now` with a handful of fixed delays (transport
//! latencies, zero-delay wake-ups, control service time), which the lanes
//! serve faster than the calendar. The calendar's remaining case is large
//! volumes of absolute, far-flung schedules, where the heap pays
//! `O(log n)` per event (each calendar window rotation pays a sort of the
//! overflow tier instead).
//!
//! # Execution model
//!
//! Orthogonal to the backend, [`SimExecutor`] picks *who walks* the
//! future-event list ([`Simulation::set_executor`] /
//! `FLOWMIG_SIM_WORKERS`):
//!
//! * **`SingleThread`** (default) — the classic DES loop: pop the
//!   earliest event, execute, repeat.
//! * **`Workers(n)`** — the event list is sharded by
//!   [`Process::shard_of`] across `n` worker threads, each owning a
//!   private [`EventQueue`]; the driver thread synchronizes them with a
//!   conservative-lookahead barrier and executes events in global
//!   `(due, seq)` order.
//!
//! The **frontier invariant** is what makes `Workers(n)` exact rather
//! than approximate: each barrier window, every worker pops a bounded run
//! of due entries and reports its *frontier* — the `(due, seq)` key of
//! the earliest entry it still holds. The minimum frontier across shards
//! is a *safe bound*: no unexecuted event anywhere has a smaller key, so
//! the k-way merge of the runs below that bound **is** the global
//! execution order, and the driver executes exactly that prefix. Model
//! execution (state updates, RNG draws, trace appends) stays on the
//! driver thread in that order, which is why traces, stats, seeds and
//! clocks are byte-identical to the single-threaded loop — the workers
//! parallelize the queue plane (inserts, settles, window rotations,
//! ordered pops), which dominates at large pending-set sizes.
//!
//! The **lookahead** ([`Simulation::set_lookahead`]) derives from the
//! model's minimum cross-shard delivery latency — for the flowmig engine,
//! `min(net_latency_remote, control_latency)` = 1 ms. Because models may
//! also self-schedule at zero delay (`Scheduler::now_event`), lookahead
//! is used only to extend a worker's pop run past its cap without
//! splitting a dense same-instant cluster — it is a batching knob, and
//! correctness never depends on its value.
//!
//! The **merge order is pinned** to ascending `(due, seq)` with ties (in
//! the unreachable case of key collisions) broken by shard index:
//! same-instant events must fire in schedule order no matter which shard
//! held them, follow-up events get the same sequence numbers the
//! single-threaded loop would assign, and re-running any configuration —
//! across executors, worker counts and backends — reproduces every trace
//! hash. See `workers.rs` module docs for the barrier protocol details.
//!
//! # Examples
//!
//! ```
//! use flowmig_sim::{Process, Scheduler, SimDuration, SimTime, Simulation};
//!
//! struct Pinger { pongs: u32 }
//! impl Process<&'static str> for Pinger {
//!     fn handle(&mut self, ev: &'static str, sched: &mut Scheduler<'_, &'static str>) {
//!         if ev == "ping" {
//!             sched.after(SimDuration::from_millis(100), "pong");
//!         } else {
//!             self.pongs += 1;
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! sim.schedule(SimTime::ZERO, "ping");
//! let mut model = Pinger { pongs: 0 };
//! sim.run_until(&mut model, SimTime::from_secs(1));
//! assert_eq!(model.pongs, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod queue;
mod rng;
mod time;
mod workers;

pub use executor::{Process, RunOutcome, Scheduler, SimExecutor, Simulation};
pub use queue::{EventQueue, QueueBackend, CALENDAR_BUCKETS, CALENDAR_BUCKET_MICROS, DELAY_LANES};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
