//! Per-instance runtime state: the single-threaded input queue, protocol
//! flags, and user state of one executor.

use crate::dispatch::InstanceBitset;
use crate::event::{ControlSender, DataEvent, QueueItem};
use flowmig_metrics::ControlKind;
use flowmig_topology::{Dataflow, InstanceSet, TaskId, TaskKind};
use std::collections::VecDeque;

/// Lifecycle status of an instance's hosting worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStatus {
    /// Worker up; the instance receives and processes items.
    Running,
    /// Killed (rebalance) or crashed: deliveries are dropped.
    Dead,
    /// Respawned but not yet ready (JVM/executor starting): deliveries are
    /// dropped, as with a connecting Netty client in Storm.
    Starting,
}

/// What an instance is currently busy with.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// Executing user logic on a data event.
    Data(DataEvent),
    /// Platform handling of a control event (alignment, forwarding).
    Control(crate::event::ControlEvent),
    /// Persisting state to the store (second half of a COMMIT).
    Persist(crate::event::ControlEvent),
    /// Fetching + restoring state (second half of an INIT).
    Restore(crate::event::ControlEvent),
}

/// Runtime state of one task instance.
#[derive(Debug, Clone)]
pub(crate) struct InstanceRuntime {
    /// Worker lifecycle.
    pub status: WorkerStatus,
    /// Single-threaded FIFO input queue (data + control interleaved).
    pub queue: VecDeque<QueueItem>,
    /// Current work item, if mid-execution.
    pub current: Option<Work>,
    /// Whether user state has been initialized (stateful executors buffer
    /// user events until their INIT, per Storm's `StatefulBoltExecutor`).
    pub initialized: bool,
    /// CCR capture flag: user events are diverted to `pending` unprocessed.
    pub capture: bool,
    /// Captured in-flight events awaiting checkpoint + resume (CCR).
    pub pending: Vec<DataEvent>,
    /// State snapshot taken at PREPARE (DCR), persisted at COMMIT.
    pub prepared: Option<u64>,
    /// User events received while uninitialized, replayed after INIT.
    pub pre_init: VecDeque<DataEvent>,
    /// The user state: processed-event count (the paper's dummy stateful
    /// logic; enough to verify continuity across migration).
    pub processed: u64,
    /// Per-key-partition processed counters (empty for unkeyed tasks).
    /// Retained across [`kill`](Self::kill): state not migrated through the
    /// store survives in place, so a key-range restore only has to merge the
    /// hot ranges it fetched.
    pub key_processed: Vec<u64>,
    /// CCR key-range capture filter: when set, only events whose key falls
    /// in one of these ranges are diverted to `pending`; others process
    /// normally. `None` means capture everything (whole-instance CCR).
    pub capture_ranges: Option<Vec<flowmig_topology::KeyRange>>,
    /// Alignment bookkeeping: the sender slots seen for the current
    /// sequential PREPARE and COMMIT waves (see [`AlignmentState`]).
    pub seen: AlignmentState,
    /// Waves already forwarded downstream, kind-indexed
    /// ([`ControlKind::index`]); dedup for resends. The per-kind lists stay
    /// tiny (one entry per wave cycle), so a linear scan beats hashing.
    pub forwarded: [Vec<u32>; ControlKind::COUNT],
    /// Round-robin cursors, one per out-edge, for shuffle routing.
    pub rr: Vec<usize>,
}

impl InstanceRuntime {
    pub fn new(out_degree: usize) -> Self {
        InstanceRuntime {
            status: WorkerStatus::Running,
            queue: VecDeque::new(),
            current: None,
            initialized: true,
            capture: false,
            pending: Vec::new(),
            prepared: None,
            pre_init: VecDeque::new(),
            processed: 0,
            key_processed: Vec::new(),
            capture_ranges: None,
            seen: AlignmentState::default(),
            forwarded: [const { Vec::new() }; ControlKind::COUNT],
            rr: vec![0; out_degree],
        }
    }

    /// Whether the instance is mid-work.
    pub fn busy(&self) -> bool {
        self.current.is_some()
    }

    /// Records that `wave` of `kind` has been forwarded; returns `true` on
    /// first sight (same semantics as `HashSet::insert` on `(kind, wave)`).
    pub fn mark_forwarded(&mut self, kind: ControlKind, wave: u32) -> bool {
        let seen = &mut self.forwarded[kind.index()];
        if seen.contains(&wave) {
            return false;
        }
        seen.push(wave);
        true
    }

    /// Drops all queued work (worker killed); returns the data events that
    /// were lost, for loss accounting.
    pub fn kill(&mut self) -> Vec<DataEvent> {
        self.status = WorkerStatus::Dead;
        let mut lost: Vec<DataEvent> = Vec::new();
        for item in self.queue.drain(..) {
            if let QueueItem::Data(d) = item {
                lost.push(d);
            }
        }
        if let Some(Work::Data(d)) = self.current.take() {
            lost.push(d);
        }
        lost.extend(self.pre_init.drain(..));
        self.current = None;
        self.initialized = false;
        self.capture = false;
        self.capture_ranges = None;
        self.pending.clear();
        self.prepared = None;
        self.seen.clear(ControlKind::Prepare);
        self.seen.clear(ControlKind::Commit);
        lost
    }
}

/// The sender-slot layout of barrier alignment, built once per engine.
///
/// A sequential wave aligns an instance on every upstream *connection*:
/// its task's upstream tasks, in `dag.upstream(task)` order, own
/// consecutive slot ranges. A source upstream owns 1 slot (the checkpoint
/// source enters the wave on its behalf as
/// [`ControlSender::CheckpointSource`]); an operator upstream owns one
/// slot per instance, indexed by [`InstanceSet::replica_of`]. A task's
/// [`width`](Self::width) is the number of distinct senders its barrier
/// waits for.
#[derive(Debug, Clone)]
pub(crate) struct SenderSlots {
    /// Per receiving task, its upstream connections: `ranges[bounds[t]..
    /// bounds[t + 1]]`.
    bounds: Vec<u32>,
    ranges: Vec<UpstreamRange>,
    /// Per receiving task: total slots (the barrier's sender count).
    width: Vec<u32>,
}

/// One upstream task's slot range within a receiver's barrier.
#[derive(Debug, Clone, Copy)]
struct UpstreamRange {
    task: TaskId,
    /// Whether the upstream is a source (one slot, checkpoint-source
    /// sender) rather than an operator (one slot per instance).
    source: bool,
    first: u32,
}

impl SenderSlots {
    /// Lays out every task's barrier. O(tasks + edges).
    pub fn build(dag: &Dataflow, instances: &InstanceSet) -> Self {
        let mut bounds = Vec::with_capacity(dag.len() + 1);
        let mut ranges = Vec::new();
        let mut width = Vec::with_capacity(dag.len());
        bounds.push(0);
        for task in dag.task_ids() {
            let mut next = 0u32;
            for &up in dag.upstream(task) {
                let source = dag.spec(up).kind() == TaskKind::Source;
                ranges.push(UpstreamRange { task: up, source, first: next });
                next += if source { 1 } else { instances.of_task(up).len() as u32 };
            }
            bounds.push(ranges.len() as u32);
            width.push(next);
        }
        SenderSlots { bounds, ranges, width }
    }

    /// Distinct senders a `task` instance's barrier waits for.
    #[inline]
    pub fn width(&self, task: TaskId) -> usize {
        self.width[task.index()] as usize
    }

    /// The slot `from` occupies in a `task` instance's barrier, or `None`
    /// for a sender outside the layout — possible only when a plan
    /// switches a kind's routing between waves, so a hub-and-spoke
    /// marker reaches a barrier it was never part of.
    #[inline]
    pub fn slot(
        &self,
        task: TaskId,
        from: ControlSender,
        instances: &InstanceSet,
    ) -> Option<usize> {
        let t = task.index();
        let ranges = &self.ranges[self.bounds[t] as usize..self.bounds[t + 1] as usize];
        let (up, source, replica) = match from {
            ControlSender::CheckpointSource(src) => (src, true, 0),
            ControlSender::Upstream(i) => (instances.task_of(i), false, instances.replica_of(i)),
        };
        ranges
            .iter()
            .find(|r| r.task == up && r.source == source)
            .map(|r| r.first as usize + usize::from(replica))
    }
}

/// Barrier-alignment bookkeeping for sequential waves: which sender slots
/// have been seen for the current `(kind, wave-cycle)`, one dense bitset
/// per kind over the receiving instance's [`SenderSlots`]. Senders outside
/// the layout land in a small deduplicated overflow list, so the count
/// always equals the number of distinct senders seen. A resent wave's
/// duplicate markers therefore count once, exactly as in a `HashSet`.
#[derive(Debug, Clone, Default)]
pub(crate) struct AlignmentState {
    prepare: Barrier,
    commit: Barrier,
}

/// The senders one kind's barrier has seen.
#[derive(Debug, Clone, Default)]
struct Barrier {
    slots: InstanceBitset,
    overflow: Vec<ControlSender>,
    count: usize,
}

impl AlignmentState {
    /// Records a sender (`slot` from [`SenderSlots::slot`]); returns the
    /// number of distinct senders seen so far.
    #[inline]
    pub fn record(&mut self, kind: ControlKind, slot: Option<usize>, from: ControlSender) -> usize {
        let b = self.barrier_mut(kind);
        let fresh = match slot {
            Some(s) => b.slots.insert(s),
            None if b.overflow.contains(&from) => false,
            None => {
                b.overflow.push(from);
                true
            }
        };
        b.count += usize::from(fresh);
        b.count
    }

    /// Clears the barrier for `kind` (wave completed or aborted, worker
    /// killed); the bitset keeps its capacity, grown on first use to the
    /// highest slot seen.
    pub fn clear(&mut self, kind: ControlKind) {
        let b = self.barrier_mut(kind);
        if b.count > 0 {
            b.slots.clear();
            b.overflow.clear();
            b.count = 0;
        }
    }

    fn barrier_mut(&mut self, kind: ControlKind) -> &mut Barrier {
        match kind {
            ControlKind::Prepare => &mut self.prepare,
            ControlKind::Commit => &mut self.commit,
            // INIT/ROLLBACK act on first receipt; alignment is unused but
            // mapping them keeps the call sites uniform.
            ControlKind::Init | ControlKind::Rollback => &mut self.prepare,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmig_metrics::RootId;
    use flowmig_sim::SimTime;
    use flowmig_topology::{DataflowBuilder, InstanceId, TaskSpec};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn data(id: u64) -> DataEvent {
        DataEvent { id, root: RootId(id), generated_at: SimTime::ZERO, replayed: false }
    }

    fn upstream(i: InstanceId) -> ControlSender {
        ControlSender::Upstream(i)
    }

    #[test]
    fn new_instance_is_idle_running_initialized() {
        let r = InstanceRuntime::new(2);
        assert_eq!(r.status, WorkerStatus::Running);
        assert!(!r.busy());
        assert!(r.initialized);
        assert_eq!(r.rr, vec![0, 0]);
    }

    #[test]
    fn kill_drops_queue_and_reports_losses() {
        let mut r = InstanceRuntime::new(1);
        r.queue.push_back(QueueItem::Data(data(1)));
        r.queue.push_back(QueueItem::Control(crate::event::ControlEvent {
            kind: ControlKind::Prepare,
            wave: 0,
            from: ControlSender::CheckpointSource(TaskId::from_index(0)),
        }));
        r.queue.push_back(QueueItem::Data(data(2)));
        r.current = Some(Work::Data(data(3)));
        r.pre_init.push_back(data(4));
        let lost = r.kill();
        assert_eq!(lost.len(), 4); // 2 queued + 1 in-flight + 1 pre-init
        assert_eq!(r.status, WorkerStatus::Dead);
        assert!(r.queue.is_empty());
        assert!(!r.initialized);
        assert!(!r.busy());
    }

    #[test]
    fn mark_forwarded_dedups_per_kind_and_survives_kill() {
        let mut r = InstanceRuntime::new(1);
        assert!(r.mark_forwarded(ControlKind::Prepare, 1));
        assert!(!r.mark_forwarded(ControlKind::Prepare, 1));
        // Other kinds and waves are independent.
        assert!(r.mark_forwarded(ControlKind::Commit, 1));
        assert!(r.mark_forwarded(ControlKind::Prepare, 2));
        // A late lower wave is still deduped only against itself.
        assert!(r.mark_forwarded(ControlKind::Init, 3));
        assert!(r.mark_forwarded(ControlKind::Init, 2));
        assert!(!r.mark_forwarded(ControlKind::Init, 3));
        // kill() must not forget forwarded waves (resend dedup spans respawn).
        r.kill();
        assert!(!r.mark_forwarded(ControlKind::Prepare, 1));
    }

    #[test]
    fn alignment_counts_distinct_senders() {
        let mut a = AlignmentState::default();
        let s1 = upstream(InstanceId::from_index(1));
        let s2 = upstream(InstanceId::from_index(2));
        let stray = ControlSender::CheckpointSource(TaskId::from_index(9));
        assert_eq!(a.record(ControlKind::Prepare, Some(1), s1), 1);
        assert_eq!(a.record(ControlKind::Prepare, Some(1), s1), 1); // duplicate
        assert_eq!(a.record(ControlKind::Prepare, Some(2), s2), 2);
        // A sender outside the layout counts once, like any other.
        assert_eq!(a.record(ControlKind::Prepare, None, stray), 3);
        assert_eq!(a.record(ControlKind::Prepare, None, stray), 3);
        // Commit alignment is independent.
        assert_eq!(a.record(ControlKind::Commit, Some(1), s1), 1);
        a.clear(ControlKind::Prepare);
        assert_eq!(a.record(ControlKind::Prepare, Some(2), s2), 1);
        assert_eq!(a.record(ControlKind::Prepare, None, stray), 2);
        assert_eq!(a.record(ControlKind::Commit, Some(2), s2), 2);
    }

    #[test]
    fn kill_clears_alignment_and_keeps_capacity() {
        let mut r = InstanceRuntime::new(1);
        let s = upstream(InstanceId::from_index(7));
        r.seen.record(ControlKind::Prepare, Some(129), s);
        r.seen.record(ControlKind::Commit, Some(0), s);
        r.seen.record(
            ControlKind::Commit,
            None,
            ControlSender::CheckpointSource(TaskId::from_index(3)),
        );
        r.kill();
        for b in [&r.seen.prepare, &r.seen.commit] {
            assert_eq!(b.count, 0);
            assert!(b.slots.is_empty());
            assert!(b.overflow.is_empty());
        }
        assert!(r.seen.prepare.slots.capacity() > 129, "kill keeps the grown capacity");
        assert_eq!(r.seen.record(ControlKind::Prepare, Some(129), s), 1);
        assert_eq!(r.seen.record(ControlKind::Commit, Some(129), s), 1);
    }

    #[test]
    fn root_operator_fed_by_two_sources_gets_one_slot_per_source() {
        let mut b = DataflowBuilder::new("two-sources");
        let s1 = b.add(TaskSpec::source("s1", 8.0).with_parallelism(2));
        let s2 = b.add(TaskSpec::source("s2", 8.0));
        let op = b.add(TaskSpec::operator("op").with_parallelism(3));
        let k = b.add(TaskSpec::sink("sink"));
        b.edge(s1, op).edge(s2, op).edge(op, k);
        let dag = b.finish().unwrap();
        let inst = InstanceSet::plan(&dag);
        let slots = SenderSlots::build(&dag, &inst);

        assert_eq!(slots.width(op), 2, "the checkpoint source stands in for each source");
        assert_eq!(slots.slot(op, ControlSender::CheckpointSource(s1), &inst), Some(0));
        assert_eq!(slots.slot(op, ControlSender::CheckpointSource(s2), &inst), Some(1));
        // Source instances never forward markers themselves: outside the layout.
        for &i in inst.of_task(s1) {
            assert_eq!(slots.slot(op, upstream(i), &inst), None);
        }
        assert_eq!(slots.slot(op, ControlSender::CheckpointSource(op), &inst), None);
        // The sink waits on every `op` instance, by replica.
        assert_eq!(slots.width(k), 3);
        for (r, &i) in inst.of_task(op).iter().enumerate() {
            assert_eq!(slots.slot(k, upstream(i), &inst), Some(r));
        }
        assert_eq!(slots.width(s1), 0);
    }

    #[test]
    fn several_upstream_tasks_get_consecutive_offsets() {
        let mut b = DataflowBuilder::new("fan-in");
        let s = b.add(TaskSpec::source("src", 8.0));
        let a = b.add(TaskSpec::operator("a").with_parallelism(2));
        let c = b.add(TaskSpec::operator("c").with_parallelism(3));
        let m = b.add(TaskSpec::operator("m").with_parallelism(2));
        let k = b.add(TaskSpec::sink("sink"));
        b.edge(s, a).edge(s, c).edge(a, m).edge(s, m).edge(c, m).edge(m, k);
        let dag = b.finish().unwrap();
        let inst = InstanceSet::plan(&dag);
        let slots = SenderSlots::build(&dag, &inst);

        assert_eq!(slots.width(m), 2 + 1 + 3);
        // Offsets follow `dag.upstream(m)` order, whatever it is.
        let mut offset = 0;
        for &up in dag.upstream(m) {
            if up == s {
                assert_eq!(slots.slot(m, ControlSender::CheckpointSource(s), &inst), Some(offset));
                offset += 1;
            } else {
                for (r, &i) in inst.of_task(up).iter().enumerate() {
                    assert_eq!(slots.slot(m, upstream(i), &inst), Some(offset + r));
                }
                offset += inst.of_task(up).len();
            }
        }
        assert_eq!(offset, slots.width(m));
        // A sibling's instances are not `a`'s upstream.
        for &i in inst.of_task(c) {
            assert_eq!(slots.slot(a, upstream(i), &inst), None);
        }
    }

    /// SplitMix64: a tiny deterministic stream for building random cases
    /// from one proptest seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random layered DAG: 1–2 sources, 1–4 operator layers of 1–3
    /// tasks with 1–4 instances each, one sink. Every task takes 1–3
    /// edges from earlier layers (sources included), and every task feeds
    /// some later one.
    fn layered_dag(rng: &mut Mix) -> Dataflow {
        let mut b = DataflowBuilder::new("layered");
        let mut layers: Vec<Vec<TaskId>> = Vec::new();
        let sources = 1 + rng.below(2);
        layers.push(
            (0..sources)
                .map(|s| {
                    let par = 1 + rng.below(3);
                    b.add(TaskSpec::source(format!("s{s}"), 8.0).with_parallelism(par))
                })
                .collect(),
        );
        for l in 0..1 + rng.below(4) {
            let width = 1 + rng.below(3);
            layers.push(
                (0..width)
                    .map(|t| {
                        let par = 1 + rng.below(4);
                        b.add(TaskSpec::operator(format!("o{l}_{t}")).with_parallelism(par))
                    })
                    .collect(),
            );
        }
        layers.push(vec![b.add(TaskSpec::sink("sink"))]);
        let mut edges: HashSet<(TaskId, TaskId)> = HashSet::new();
        for l in 1..layers.len() {
            let earlier: Vec<TaskId> = layers[..l].iter().flatten().copied().collect();
            for &t in &layers[l] {
                // The previous layer always feeds this one, so no task is
                // orphaned.
                edges.insert((layers[l - 1][rng.below(layers[l - 1].len())], t));
                for _ in 0..rng.below(3) {
                    edges.insert((earlier[rng.below(earlier.len())], t));
                }
            }
            for &u in &layers[l - 1] {
                if !edges.iter().any(|&(from, _)| from == u) {
                    edges.insert((u, layers[l][rng.below(layers[l].len())]));
                }
            }
        }
        let mut edges: Vec<_> = edges.into_iter().collect();
        edges.sort_unstable();
        for (u, v) in edges {
            b.edge(u, v);
        }
        b.finish().expect("layered DAGs are valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Dense alignment counts exactly what a `HashSet<ControlSender>`
        /// per kind counts, under random senders (in and out of the
        /// layout), duplicates from resent waves, barrier clears and kills;
        /// and the layout's width is the old per-instance expected count.
        #[test]
        fn dense_alignment_matches_hashset_reference(seed in 0u64..u64::MAX, steps in 1usize..300) {
            let mut rng = Mix(seed);
            let dag = layered_dag(&mut rng);
            let inst = InstanceSet::plan(&dag);
            let slots = SenderSlots::build(&dag, &inst);
            let all: Vec<ControlSender> = dag
                .task_ids()
                .map(ControlSender::CheckpointSource)
                .chain(inst.iter().map(ControlSender::Upstream))
                .collect();
            for task in dag.task_ids() {
                let expected: usize = dag
                    .upstream(task)
                    .iter()
                    .map(|&u| match dag.spec(u).kind() {
                        TaskKind::Source => 1,
                        _ => inst.of_task(u).len(),
                    })
                    .sum();
                prop_assert_eq!(slots.width(task), expected);
            }
            let receivers: Vec<TaskId> =
                dag.task_ids().filter(|&t| dag.spec(t).kind() != TaskKind::Source).collect();
            let task = receivers[rng.below(receivers.len())];
            let connections: Vec<ControlSender> =
                all.iter().copied().filter(|&f| slots.slot(task, f, &inst).is_some()).collect();
            prop_assert_eq!(connections.len(), slots.width(task));
            let mut owner: Vec<Option<ControlSender>> = vec![None; slots.width(task)];
            for &from in &connections {
                let slot = slots.slot(task, from, &inst).unwrap();
                prop_assert!(owner[slot].replace(from).is_none(), "slot {} shared", slot);
            }

            let kinds = [ControlKind::Prepare, ControlKind::Commit];
            let mut dense = InstanceRuntime::new(1);
            let mut reference: [HashSet<ControlSender>; 2] = [HashSet::new(), HashSet::new()];
            for _ in 0..steps {
                let k = rng.below(2);
                match rng.below(40) {
                    0 => {
                        dense.seen.clear(kinds[k]);
                        reference[k].clear();
                    }
                    1 => {
                        dense.kill();
                        reference = [HashSet::new(), HashSet::new()];
                    }
                    // Mostly real connections (resends repeat them); some
                    // strays from anywhere in the DAG.
                    r => {
                        let from = if r < 32 {
                            connections[rng.below(connections.len())]
                        } else {
                            all[rng.below(all.len())]
                        };
                        let slot = slots.slot(task, from, &inst);
                        reference[k].insert(from);
                        prop_assert_eq!(dense.seen.record(kinds[k], slot, from), reference[k].len());
                    }
                }
            }
        }
    }
}
