//! Differential property test of [`InflightRing`] against a
//! `BTreeMap<u64, T>`: whatever sequence of inserts (appended at the
//! ring's next slot or anywhere else), updates and removals a probe
//! performs, the ring must answer like an ordered map — and must hold no
//! slot behind its oldest live uid.

use csmt_trace::InflightRing;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Insert above every uid inserted so far, skipping `gap` uids — the
    /// way a cluster's fetch stream arrives.
    Push { gap: u64 },
    /// Insert at the slot one past the newest the ring holds (any uid
    /// when it is empty): the append path a dense fetch stream takes.
    Append,
    /// Insert at an arbitrary uid: below the base, inside the span (live
    /// or retired slot), or past the end.
    Insert { uid: u64 },
    /// Overwrite through `get_mut`, if present.
    Update { uid: u64 },
    /// Remove an arbitrary uid (out of order, absent, below the base,
    /// past the end).
    Remove { uid: u64 },
    /// Remove the oldest live uid — in-order retirement.
    RemoveFront,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..3).prop_map(|gap| Op::Push { gap }),
        3 => Just(Op::Append),
        1 => (0u64..96).prop_map(|uid| Op::Insert { uid }),
        2 => (0u64..96).prop_map(|uid| Op::Update { uid }),
        3 => (0u64..96).prop_map(|uid| Op::Remove { uid }),
        3 => Just(Op::RemoveFront),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn ring_matches_an_ordered_map(ops in prop::collection::vec(op(), 1..200)) {
        let mut ring = InflightRing::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        // Highest uid inserted so far; the value stored is the op index.
        let mut newest = 0u64;
        // Highest uid inserted since the ring was last empty: with the
        // oldest live uid it bounds the slots the ring may hold.
        let mut newest_since_empty = 0u64;
        for (value, op) in (0u32..).zip(ops) {
            let inserted = match op {
                Op::Push { gap } => Some(newest + 1 + gap),
                Op::Append if model.is_empty() => Some(newest + 1),
                Op::Append => Some(newest_since_empty + 1),
                Op::Insert { uid } => Some(uid),
                Op::Update { uid } => {
                    let (got, want) = (ring.get_mut(uid), model.get_mut(&uid));
                    prop_assert_eq!(got.as_deref(), want.as_deref());
                    if let (Some(got), Some(want)) = (got, want) {
                        *got = value;
                        *want = value;
                    }
                    None
                }
                Op::Remove { uid } => {
                    prop_assert_eq!(ring.remove(uid), model.remove(&uid));
                    None
                }
                Op::RemoveFront => {
                    if let Some((&uid, _)) = model.iter().next() {
                        prop_assert_eq!(ring.remove(uid), model.remove(&uid));
                    }
                    None
                }
            };
            if let Some(uid) = inserted {
                if model.is_empty() {
                    newest_since_empty = uid;
                }
                prop_assert_eq!(ring.insert(uid, value), model.insert(uid, value));
                newest = newest.max(uid);
                newest_since_empty = newest_since_empty.max(uid);
            }

            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            let pairs: Vec<(u64, u32)> = ring.iter().map(|(uid, &v)| (uid, v)).collect();
            let want: Vec<(u64, u32)> = model.iter().map(|(&uid, &v)| (uid, v)).collect();
            prop_assert_eq!(pairs, want, "iteration must be the map's, in ascending uid order");
            // Lookups around both edges: one below the oldest live uid,
            // every uid in the tested range, and one past the newest.
            for uid in 0..=newest + 1 {
                prop_assert_eq!(ring.get(uid), model.get(&uid));
            }
            // Retired uids at the front are reclaimed at once.
            let span = match model.keys().next() {
                Some(&oldest) => newest_since_empty - oldest + 1,
                None => 0,
            };
            prop_assert_eq!(ring.span() as u64, span);
        }
    }
}
