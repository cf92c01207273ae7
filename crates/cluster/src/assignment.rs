//! Instance→slot assignments and migration diffs.

use crate::vm::{SlotId, VmId};
use flowmig_topology::InstanceId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A complete mapping of every task instance to a slot.
///
/// Stored densely: a slot per instance index, plus a per-VM occupancy
/// bitmask for the slot-exclusivity check, so placing, looking up, and
/// diffing assignments never hash.
///
/// # Examples
///
/// ```
/// use flowmig_cluster::{Assignment, SlotId, VmId};
/// use flowmig_topology::InstanceId;
///
/// let mut a = Assignment::new();
/// let i0 = InstanceId::from_index(0);
/// a.place(i0, SlotId { vm: VmId::from_index(1), slot: 0 });
/// assert_eq!(a.slot_of(i0).unwrap().vm, VmId::from_index(1));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "AssignmentSerde", into = "AssignmentSerde")]
pub struct Assignment {
    /// Slot of each instance, indexed by [`InstanceId::index`].
    slots: Vec<Option<SlotId>>,
    /// Per VM index, which of its slots hold an instance (bit `s` of the
    /// 256-bit mask = slot `s`) — kept in lockstep with `slots`.
    occupied: Vec<[u64; 4]>,
    /// Number of assigned instances.
    len: usize,
}

impl PartialEq for Assignment {
    fn eq(&self, other: &Self) -> bool {
        // `occupied` is derived, and its length depends on which VMs were
        // ever used; `slots` only grows, so equal maps have equal vectors.
        self.slots == other.slots
    }
}

/// Serde shadow of [`Assignment`]: only the instance→slot map is
/// persisted (the occupancy masks are derived), keeping the serialized
/// form identical to the original map layout.
#[derive(Serialize, Deserialize)]
#[serde(rename = "Assignment")]
struct AssignmentSerde {
    slots: HashMap<InstanceId, SlotId>,
}

impl From<AssignmentSerde> for Assignment {
    fn from(s: AssignmentSerde) -> Self {
        s.slots.into_iter().collect()
    }
}

impl From<Assignment> for AssignmentSerde {
    fn from(a: Assignment) -> Self {
        AssignmentSerde { slots: a.iter().collect() }
    }
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether an instance holds `slot`.
    fn is_occupied(&self, slot: SlotId) -> bool {
        self.occupied
            .get(slot.vm.index())
            .is_some_and(|m| (m[usize::from(slot.slot) / 64] >> (slot.slot % 64)) & 1 != 0)
    }

    /// Sets or clears `slot`'s occupancy bit.
    fn mark(&mut self, slot: SlotId, occupied: bool) {
        let vm = slot.vm.index();
        if vm >= self.occupied.len() {
            self.occupied.resize(vm + 1, [0; 4]);
        }
        let (word, bit) = (usize::from(slot.slot) / 64, 1u64 << (slot.slot % 64));
        let mask = &mut self.occupied[vm][word];
        *mask = if occupied { *mask | bit } else { *mask & !bit };
    }

    /// Places `instance` on `slot`, returning the previous slot if any.
    ///
    /// # Panics
    ///
    /// Panics if another instance already occupies `slot` (slots are
    /// exclusive: one instance per 1-core slot).
    pub fn place(&mut self, instance: InstanceId, slot: SlotId) -> Option<SlotId> {
        let prev = self.slot_of(instance);
        if prev == Some(slot) {
            return prev;
        }
        assert!(!self.is_occupied(slot), "slot {slot} is already occupied");
        match prev {
            Some(p) => self.mark(p, false),
            None => self.len += 1,
        }
        self.mark(slot, true);
        let i = instance.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(slot);
        prev
    }

    /// The slot hosting `instance`, if assigned.
    pub fn slot_of(&self, instance: InstanceId) -> Option<SlotId> {
        self.slots.get(instance.index()).copied().flatten()
    }

    /// The VM hosting `instance`, if assigned.
    pub fn vm_of(&self, instance: InstanceId) -> Option<VmId> {
        self.slot_of(instance).map(|s| s.vm)
    }

    /// Number of assigned instances.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(instance, slot)` pairs in instance order
    /// (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, SlotId)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.map(|s| (InstanceId::from_index(i), s)))
    }

    /// The set of distinct VMs used by this assignment.
    pub fn vms_used(&self) -> HashSet<VmId> {
        (0..self.occupied.len())
            .filter(|&vm| self.occupied[vm] != [0; 4])
            .map(VmId::from_index)
            .collect()
    }

    /// Instances whose slot differs between `self` (old) and `new` — the
    /// set that must be killed and respawned by a rebalance — in instance
    /// order.
    ///
    /// Instances present in only one assignment are counted as moved.
    pub fn moved_instances(&self, new: &Assignment) -> Vec<InstanceId> {
        (0..self.slots.len().max(new.slots.len()))
            .map(InstanceId::from_index)
            .filter(|&i| self.slot_of(i) != new.slot_of(i))
            .collect()
    }
}

impl FromIterator<(InstanceId, SlotId)> for Assignment {
    fn from_iter<T: IntoIterator<Item = (InstanceId, SlotId)>>(iter: T) -> Self {
        let mut a = Assignment::new();
        for (i, s) in iter {
            a.place(i, s);
        }
        a
    }
}

impl Extend<(InstanceId, SlotId)> for Assignment {
    fn extend<T: IntoIterator<Item = (InstanceId, SlotId)>>(&mut self, iter: T) {
        for (i, s) in iter {
            self.place(i, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn slot(vm: usize, s: u8) -> SlotId {
        SlotId { vm: VmId::from_index(vm), slot: s }
    }

    #[test]
    fn place_and_lookup() {
        let mut a = Assignment::new();
        let i = InstanceId::from_index(3);
        assert_eq!(a.place(i, slot(0, 1)), None);
        assert_eq!(a.slot_of(i), Some(slot(0, 1)));
        assert_eq!(a.vm_of(i), Some(VmId::from_index(0)));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn replace_returns_previous() {
        let mut a = Assignment::new();
        let i = InstanceId::from_index(0);
        a.place(i, slot(0, 0));
        assert_eq!(a.place(i, slot(1, 0)), Some(slot(0, 0)));
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn exclusive_slots() {
        let mut a = Assignment::new();
        a.place(InstanceId::from_index(0), slot(0, 0));
        a.place(InstanceId::from_index(1), slot(0, 0));
    }

    #[test]
    fn moved_instances_detects_changes() {
        let old: Assignment = [
            (InstanceId::from_index(0), slot(0, 0)),
            (InstanceId::from_index(1), slot(0, 1)),
            (InstanceId::from_index(2), slot(1, 0)),
        ]
        .into_iter()
        .collect();
        let new: Assignment = [
            (InstanceId::from_index(0), slot(0, 0)), // unchanged (pinned)
            (InstanceId::from_index(1), slot(2, 0)), // moved
            (InstanceId::from_index(2), slot(2, 1)), // moved
        ]
        .into_iter()
        .collect();
        assert_eq!(
            old.moved_instances(&new),
            vec![InstanceId::from_index(1), InstanceId::from_index(2)]
        );
    }

    #[test]
    fn moved_instances_handles_asymmetric_sets() {
        let old: Assignment = [(InstanceId::from_index(0), slot(0, 0))].into_iter().collect();
        let new = Assignment::new();
        assert_eq!(old.moved_instances(&new), vec![InstanceId::from_index(0)]);
    }

    #[test]
    fn vms_used_deduplicates() {
        let a: Assignment = [
            (InstanceId::from_index(0), slot(0, 0)),
            (InstanceId::from_index(1), slot(0, 1)),
            (InstanceId::from_index(2), slot(3, 0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(a.vms_used().len(), 2);
    }

    #[test]
    fn iter_is_sorted_by_instance() {
        let a: Assignment = [
            (InstanceId::from_index(2), slot(0, 0)),
            (InstanceId::from_index(0), slot(0, 1)),
            (InstanceId::from_index(1), slot(1, 0)),
        ]
        .into_iter()
        .collect();
        let ids: Vec<usize> = a.iter().map(|(i, _)| i.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn replace_frees_the_old_slot() {
        let mut a = Assignment::new();
        a.place(InstanceId::from_index(0), slot(0, 0));
        a.place(InstanceId::from_index(0), slot(0, 200));
        a.place(InstanceId::from_index(1), slot(0, 0));
        assert_eq!(a.len(), 2);
        assert_eq!(a.slot_of(InstanceId::from_index(0)), Some(slot(0, 200)));
    }

    /// Applies `ops` (instance, vm, slot) to both an [`Assignment`] and a
    /// `BTreeMap` reference, skipping placements onto a slot another
    /// instance holds (that panics; see `exclusive_slots`).
    fn build(ops: &[(usize, usize, u8)]) -> (Assignment, BTreeMap<InstanceId, SlotId>) {
        let mut a = Assignment::new();
        let mut reference = BTreeMap::new();
        for &(i, vm, s) in ops {
            let (i, s) = (InstanceId::from_index(i), slot(vm, s));
            if reference.iter().any(|(&j, &t)| j != i && t == s) {
                continue;
            }
            assert_eq!(a.place(i, s), reference.insert(i, s));
        }
        (a, reference)
    }

    fn op() -> impl Strategy<Value = (usize, usize, u8)> {
        // Few VMs and slots so placements collide and replace; slot 0..=255
        // now and then to cover every word of the occupancy mask.
        let slot = (0u8..4, 0u8..=255, 0u8..3).prop_map(|(low, any, pick)| match pick {
            0 => any,
            _ => low,
        });
        (0usize..40, 0usize..12, slot)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Dense assignments agree with an ordered-map reference on
        /// lookups, ordered iteration, VM usage, diffs and the serde
        /// shadow round trip.
        #[test]
        fn dense_assignment_matches_btreemap_reference(
            old_ops in proptest::collection::vec(op(), 0..80),
            new_ops in proptest::collection::vec(op(), 0..80),
        ) {
            let (old, old_ref) = build(&old_ops);
            let (new, new_ref) = build(&new_ops);
            for (a, reference) in [(&old, &old_ref), (&new, &new_ref)] {
                prop_assert_eq!(a.len(), reference.len());
                prop_assert_eq!(a.is_empty(), reference.is_empty());
                let pairs: Vec<_> = reference.iter().map(|(&i, &s)| (i, s)).collect();
                prop_assert_eq!(a.iter().collect::<Vec<_>>(), pairs);
                for i in (0..45).map(InstanceId::from_index) {
                    prop_assert_eq!(a.slot_of(i), reference.get(&i).copied());
                    prop_assert_eq!(a.vm_of(i), reference.get(&i).map(|s| s.vm));
                }
                let vms: HashSet<VmId> = reference.values().map(|s| s.vm).collect();
                prop_assert_eq!(a.vms_used(), vms);
                let round_trip = Assignment::from(AssignmentSerde::from(a.clone()));
                prop_assert_eq!(&round_trip, a);
                prop_assert_eq!(round_trip.vms_used(), a.vms_used());
            }
            let mut moved: Vec<InstanceId> = old_ref
                .keys()
                .chain(new_ref.keys())
                .copied()
                .filter(|i| old_ref.get(i) != new_ref.get(i))
                .collect();
            moved.sort_unstable();
            moved.dedup();
            prop_assert_eq!(old.moved_instances(&new), moved);
            prop_assert_eq!(old == new, old_ref == new_ref);
        }
    }
}
