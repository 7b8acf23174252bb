//! Property-based tests of the hazard taxonomy and the §4.1 proportional
//! wasted-slot division: for *any* sequence of recorded cycles — any
//! width, any useful/wrong-path split, any hazard weight vector — slot
//! accounting must conserve (useful + Σ wasted == width × cycles), stay
//! non-negative, survive merging, and keep the legend/index/label
//! contract the trace layer depends on.

use csmt_cpu::{Hazard, SlotStats};
use proptest::prelude::*;

/// One recorded cycle: issue width, issued counts, hazard weights.
#[derive(Debug, Clone)]
struct Cycle {
    width: usize,
    useful: usize,
    other: usize,
    weights: [f64; 7],
}

fn arb_cycle() -> impl Strategy<Value = Cycle> {
    let weight = prop_oneof![
        3 => Just(0.0f64),
        5 => 0.0f64..10.0,
    ];
    (
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        0usize..9,
        0usize..9,
        prop::collection::vec(weight, 7..8),
    )
        .prop_map(|(width, a, b, w)| {
            // Clamp the issued counts into the width so the record_cycle
            // precondition (useful + other <= width) always holds.
            let useful = a.min(width);
            let other = b.min(width - useful);
            let mut weights = [0.0; 7];
            weights.copy_from_slice(&w);
            Cycle {
                width,
                useful,
                other,
                weights,
            }
        })
}

fn record_all(cycles: &[Cycle]) -> SlotStats {
    let mut s = SlotStats::default();
    for c in cycles {
        s.record_cycle(c.width, c.useful, c.other, &c.weights);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// §4.1 conservation: the proportional division hands out *exactly*
    /// the wasted slots — useful + Σ wasted == issue_width × cycles for
    /// any weight vectors, including all-zero ones (fetch fallback).
    #[test]
    fn proportional_division_conserves_slots(
        cycles in prop::collection::vec(arb_cycle(), 1..200),
    ) {
        let s = record_all(&cycles);
        let expected: u64 = cycles.iter().map(|c| c.width as u64).sum();
        prop_assert_eq!(s.slots, expected);
        prop_assert_eq!(s.cycles, cycles.len() as u64);
        let accounted = s.useful + s.wasted.iter().sum::<f64>();
        // 1e-9 relative: f64 division residue only, no lost slots.
        prop_assert!(
            (accounted - expected as f64).abs() <= 1e-9 * expected.max(1) as f64,
            "accounted {} vs slots {}", accounted, expected
        );
    }

    /// Every accumulator stays non-negative, and the breakdown fractions
    /// sum to 1 whenever any slot was recorded.
    #[test]
    fn breakdown_is_a_distribution(
        cycles in prop::collection::vec(arb_cycle(), 1..100),
    ) {
        let s = record_all(&cycles);
        prop_assert!(s.useful >= 0.0);
        for (i, w) in s.wasted.iter().enumerate() {
            prop_assert!(*w >= 0.0, "wasted[{}] = {}", i, w);
        }
        let b = s.breakdown();
        prop_assert!(b.iter().all(|f| (0.0..=1.0 + 1e-12).contains(f)));
        prop_assert!((b.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// Merging per-cluster accumulators equals recording everything into
    /// one (slots, useful, wasted; cycles is the lockstep max).
    #[test]
    fn merge_matches_single_accumulator(
        a in prop::collection::vec(arb_cycle(), 1..60),
        b in prop::collection::vec(arb_cycle(), 1..60),
    ) {
        let mut merged = record_all(&a);
        merged.merge(&record_all(&b));
        let mut joint = record_all(&a);
        for c in &b {
            joint.record_cycle(c.width, c.useful, c.other, &c.weights);
        }
        prop_assert_eq!(merged.slots, joint.slots);
        prop_assert!((merged.useful - joint.useful).abs() < 1e-9);
        for i in 0..7 {
            prop_assert!((merged.wasted[i] - joint.wasted[i]).abs() < 1e-9);
        }
        prop_assert_eq!(merged.cycles, a.len().max(b.len()) as u64);
    }

    /// `record_cycle` skips zero weights; that must be bit-for-bit the
    /// division written out in full, `acc += wasted * w / total` for all
    /// seven hazards, over any sequence of cycles.
    #[test]
    fn skipping_zero_weights_is_bit_exact(
        cycles in prop::collection::vec(arb_cycle(), 1..200),
    ) {
        let s = record_all(&cycles);
        let mut useful = 0.0f64;
        let mut wasted = [0.0f64; 7];
        for c in &cycles {
            useful += c.useful as f64;
            wasted[Hazard::Other.index()] += c.other as f64;
            let left = (c.width - c.useful - c.other) as f64;
            let total: f64 = c.weights.iter().sum();
            if left <= 0.0 {
                continue;
            }
            if total > 0.0 {
                for (acc, w) in wasted.iter_mut().zip(&c.weights) {
                    *acc += left * w / total;
                }
            } else {
                wasted[Hazard::Fetch.index()] += left;
            }
        }
        prop_assert_eq!(s.useful.to_bits(), useful.to_bits());
        prop_assert_eq!(s.wasted.map(f64::to_bits), wasted.map(f64::to_bits));
    }

    /// An unissued slot lands on exactly the hazards with nonzero weight,
    /// proportionally — never on a zero-weight hazard (except the fetch
    /// fallback when *all* weights are zero).
    #[test]
    fn zero_weight_hazards_get_nothing(
        c in arb_cycle(),
    ) {
        let s = record_all(std::slice::from_ref(&c));
        let any_weight = c.weights.iter().sum::<f64>() > 0.0;
        for h in Hazard::ALL {
            let i = h.index();
            let charged = s.wasted[i]
                - if h == Hazard::Other { c.other as f64 } else { 0.0 };
            if c.weights[i] == 0.0 && (any_weight || h != Hazard::Fetch) {
                prop_assert!(charged.abs() < 1e-12, "{}: {}", h.label(), charged);
            }
        }
    }
}

/// The legend order is the dense index order (0..7), and labels are unique.
#[test]
fn legend_order_is_dense_and_labels_unique() {
    assert_eq!(Hazard::ALL.len(), 7);
    let mut labels = Vec::new();
    for (i, h) in Hazard::ALL.iter().enumerate() {
        assert_eq!(h.index(), i, "{h:?} out of legend order");
        labels.push(h.label());
    }
    let mut dedup = labels.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), labels.len(), "duplicate hazard labels");
}
