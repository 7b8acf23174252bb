//! Top-down cycle accounting: a stall-attribution tree over the §4.1
//! issue-slot statistics.
//!
//! The paper's Figures 4–8 print one stacked bar per (app × arch) cell:
//! the fraction of issue slots that were useful, plus seven flat hazard
//! classes. This module arranges those same numbers as a two-level
//! hierarchy in the style of Intel's top-down methodology, so a reader
//! can answer "what kind of bound is this run" before drilling into the
//! individual hazards:
//!
//! ```text
//! total slots
//! ├── useful
//! └── stalled
//!     ├── frontend_bound      = fetch + control
//!     │   ├── fetch_starved     (empty in-flight FIFO, no redirect)
//!     │   └── bad_speculation   (redirect bubbles + wrong-path work)
//!     ├── backend_bound       = memory + data + structural
//!     │   ├── memory_bound      (operands waiting on in-flight loads)
//!     │   ├── data_dependence   (register deps on non-load producers)
//!     │   └── issue_retire_bound(ready-but-unissued: FU/issue bandwidth,
//!     │                          or a window full of done work: retire)
//!     ├── sync_bound          = sync  (parked at barriers/locks or done)
//!     └── rename_squash       = other (rename-register stalls + squashes)
//! ```
//!
//! Every leaf is an *exact copy* of one hazard accumulator — no slot is
//! re-attributed — so the tree reconciles bit-for-bit with the run's
//! `SlotStats` (`tests/metrics_reconcile.rs` enforces this for every
//! Table 2 architecture).

use csmt_isa::Hazard;
use serde::Value;

/// One node of the attribution tree: a label, a slot count, and children
/// whose `slots` sum exactly to this node's (for interior nodes).
#[derive(Debug, Clone)]
pub struct AttributionNode {
    /// Snake-case node name (stable: keys report tables and JSON).
    pub name: &'static str,
    /// Issue slots attributed to this node.
    pub slots: f64,
    /// Sub-attributions; empty for leaves.
    pub children: Vec<AttributionNode>,
}

impl AttributionNode {
    fn leaf(name: &'static str, slots: f64) -> Self {
        AttributionNode {
            name,
            slots,
            children: Vec::new(),
        }
    }

    fn interior(name: &'static str, children: Vec<AttributionNode>) -> Self {
        let slots = children.iter().map(|c| c.slots).sum();
        AttributionNode {
            name,
            slots,
            children,
        }
    }
}

/// The full top-down tree for one run, plus the totals it must reconcile
/// against.
#[derive(Debug, Clone)]
pub struct AttributionTree {
    /// Root node (`total`), whose direct children are `useful` and
    /// `stalled`.
    pub root: AttributionNode,
    /// Total issue slots offered (`issue_width × cycles` over clusters).
    pub total_slots: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
}

impl AttributionTree {
    /// Build the tree from the run's slot accounting: `useful` slots, the
    /// seven hazard accumulators in [`Hazard::ALL`] order,
    /// and the totals. This is exactly the data carried by the final
    /// `CycleStats` snapshot or a `RunResult`'s `SlotStats`.
    pub fn from_slots(
        useful: f64,
        wasted: &[f64; 7],
        total_slots: u64,
        cycles: u64,
        committed: u64,
    ) -> Self {
        let hz = |h: Hazard| wasted[h.index()];
        let frontend = AttributionNode::interior(
            "frontend_bound",
            vec![
                AttributionNode::leaf("fetch_starved", hz(Hazard::Fetch)),
                AttributionNode::leaf("bad_speculation", hz(Hazard::Control)),
            ],
        );
        let backend = AttributionNode::interior(
            "backend_bound",
            vec![
                AttributionNode::leaf("memory_bound", hz(Hazard::Memory)),
                AttributionNode::leaf("data_dependence", hz(Hazard::Data)),
                AttributionNode::leaf("issue_retire_bound", hz(Hazard::Structural)),
            ],
        );
        let stalled = AttributionNode::interior(
            "stalled",
            vec![
                frontend,
                backend,
                AttributionNode::leaf("sync_bound", hz(Hazard::Sync)),
                AttributionNode::leaf("rename_squash", hz(Hazard::Other)),
            ],
        );
        let root = AttributionNode::interior(
            "total",
            vec![AttributionNode::leaf("useful", useful), stalled],
        );
        AttributionTree {
            root,
            total_slots,
            cycles,
            committed,
        }
    }

    /// Sum of all leaf slots (== `useful + Σ wasted`; conservation makes
    /// this equal `total_slots` up to float rounding).
    pub fn leaf_total(&self) -> f64 {
        fn walk(n: &AttributionNode) -> f64 {
            if n.children.is_empty() {
                n.slots
            } else {
                n.children.iter().map(walk).sum()
            }
        }
        walk(&self.root)
    }

    /// The named node, searched depth-first.
    pub fn node(&self, name: &str) -> Option<&AttributionNode> {
        fn find<'a>(n: &'a AttributionNode, name: &str) -> Option<&'a AttributionNode> {
            if n.name == name {
                return Some(n);
            }
            n.children.iter().find_map(|c| find(c, name))
        }
        find(&self.root, name)
    }

    /// Render as an indented text tree with slot counts and percentages
    /// of total, e.g. for `csmt-report`.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let total = self.total_slots as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "top-down slot accounting ({} slots over {} cycles, {} committed, ipc {:.2}):",
            self.total_slots,
            self.cycles,
            self.committed,
            if self.cycles == 0 {
                0.0
            } else {
                self.committed as f64 / self.cycles as f64
            }
        );
        fn walk(n: &AttributionNode, depth: usize, total: f64, out: &mut String) {
            use std::fmt::Write as _;
            let pct = if total > 0.0 {
                100.0 * n.slots / total
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:indent$}{:<20} {:>12.1}  {:>5.1}%",
                "",
                n.name,
                n.slots,
                pct,
                indent = depth * 2
            );
            for c in &n.children {
                walk(c, depth + 1, total, out);
            }
        }
        walk(&self.root, 0, total, &mut out);
        out
    }

    /// The tree as JSON: nested `{name, slots, pct, children}` objects.
    pub fn to_value(&self) -> Value {
        fn node_value(n: &AttributionNode, total: f64) -> Value {
            let mut fields = vec![
                ("name".into(), Value::Str(n.name.to_string())),
                ("slots".into(), Value::F64(n.slots)),
                (
                    "pct".into(),
                    Value::F64(if total > 0.0 {
                        100.0 * n.slots / total
                    } else {
                        0.0
                    }),
                ),
            ];
            if !n.children.is_empty() {
                fields.push((
                    "children".into(),
                    Value::Array(n.children.iter().map(|c| node_value(c, total)).collect()),
                ));
            }
            Value::Object(fields)
        }
        Value::Object(vec![
            ("total_slots".into(), Value::U64(self.total_slots)),
            ("cycles".into(), Value::U64(self.cycles)),
            ("committed".into(), Value::U64(self.committed)),
            (
                "tree".into(),
                node_value(&self.root, self.total_slots as f64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttributionTree {
        // useful 40, other 1, structural 2, memory 20, data 10,
        // control 3, sync 16, fetch 8  → total 100.
        AttributionTree::from_slots(40.0, &[1.0, 2.0, 20.0, 10.0, 3.0, 16.0, 8.0], 100, 25, 50)
    }

    #[test]
    fn interior_nodes_sum_their_children_exactly() {
        let t = sample();
        assert_eq!(t.node("frontend_bound").unwrap().slots, 8.0 + 3.0);
        assert_eq!(t.node("backend_bound").unwrap().slots, 20.0 + 10.0 + 2.0);
        assert_eq!(t.node("stalled").unwrap().slots, 60.0);
        assert_eq!(t.root.slots, 100.0);
    }

    #[test]
    fn every_hazard_class_appears_exactly_once_as_a_leaf() {
        let t = sample();
        assert_eq!(t.node("memory_bound").unwrap().slots, 20.0);
        assert_eq!(t.node("data_dependence").unwrap().slots, 10.0);
        assert_eq!(t.node("issue_retire_bound").unwrap().slots, 2.0);
        assert_eq!(t.node("fetch_starved").unwrap().slots, 8.0);
        assert_eq!(t.node("bad_speculation").unwrap().slots, 3.0);
        assert_eq!(t.node("sync_bound").unwrap().slots, 16.0);
        assert_eq!(t.node("rename_squash").unwrap().slots, 1.0);
        assert_eq!(t.leaf_total(), 100.0);
    }

    #[test]
    fn text_render_mentions_every_node_with_percentages() {
        let t = sample();
        let text = t.render_text();
        for name in [
            "total",
            "useful",
            "stalled",
            "frontend_bound",
            "memory_bound",
            "sync_bound",
            "rename_squash",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("40.0%"), "useful pct missing:\n{text}");
        assert!(text.contains("ipc 2.00"), "ipc missing:\n{text}");
    }

    #[test]
    fn json_tree_nests_and_keeps_totals() {
        let t = sample();
        let v = t.to_value();
        assert_eq!(v.get("total_slots").and_then(Value::as_u64), Some(100));
        let tree = v.get("tree").unwrap();
        assert_eq!(tree.get("name").and_then(Value::as_str), Some("total"));
        let children = tree.get("children").and_then(Value::as_array).unwrap();
        assert_eq!(children.len(), 2);
        assert_eq!(
            children[0].get("name").and_then(Value::as_str),
            Some("useful")
        );
        assert_eq!(children[0].get("pct").and_then(Value::as_f64), Some(40.0));
    }

    #[test]
    fn zero_slot_run_renders_without_dividing_by_zero() {
        let t = AttributionTree::from_slots(0.0, &[0.0; 7], 0, 0, 0);
        assert_eq!(t.leaf_total(), 0.0);
        let text = t.render_text();
        assert!(text.contains("0.0%"));
        assert!(t.to_value().get("tree").is_some());
    }
}
