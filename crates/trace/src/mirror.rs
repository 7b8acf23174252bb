//! The instruction mirror: every in-flight instruction's place in the
//! fetch → issue → writeback → commit/squash lifecycle, rebuilt from the
//! `INST` channel. Fetch renames too (the front end is single-cycle).

use crate::probe::{Event, FetchEvent, StageEvent};
use crate::ring::InflightRing;

/// How far an in-flight instruction has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Fetched (and renamed) into the window, waiting to issue.
    Fetched,
    /// Issued to a functional unit.
    Issued,
    /// Written back, waiting to commit.
    Done,
}

impl Stage {
    /// How a diagnosis names the stage.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Fetched => "fetched",
            Stage::Issued => "issued",
            Stage::Done => "written back",
        }
    }
}

/// What a probe keeps for each in-flight instruction beside its stage and
/// context; `()` for a probe that needs only those. The checker's slot
/// then stays 8 bytes, where the pipeview writer's carries its stage
/// cycles.
pub trait InstRecord: Copy {
    /// The record of a just-fetched instruction.
    fn fetched(e: &FetchEvent) -> Self;

    /// The instruction reached `stage` (issued or written back) at
    /// `cycle`.
    #[inline]
    fn reached(&mut self, _stage: Stage, _cycle: u64) {}
}

impl InstRecord for () {
    #[inline]
    fn fetched(_: &FetchEvent) {}
}

/// One instruction between fetch and retirement.
#[derive(Debug, Clone, Copy)]
pub struct Inst<T> {
    /// Hardware context within the cluster.
    pub thread: u32,
    /// The stage it has reached.
    pub stage: Stage,
    /// The probe's own record.
    pub record: T,
}

/// An instruction event the mirror found its instruction for.
#[derive(Debug, Clone, Copy)]
pub struct Step<T> {
    /// The instruction as the event found it: for a commit or squash,
    /// its record at retirement.
    pub inst: Inst<T>,
    /// Whether the event is the instruction's next stage. Issue and
    /// writeback out of order are not applied; a commit or squash
    /// retires the instruction either way (a squash is in order at any
    /// stage).
    pub in_order: bool,
}

/// An instruction event the mirror has no instruction for. With
/// [`Step::in_order`] these are `csmt-verify`'s `LifecycleOrder` and
/// `CrossCluster` verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misstep {
    /// A fetch whose uid is not above the cluster's previous fetch
    /// (`last`); it is not mirrored.
    Refetch {
        /// The cluster's highest uid fetched so far.
        last: u64,
    },
    /// A stage event for a uid its cluster never fetched: 0 (uids start
    /// at 1) or above the fetch horizon — the signature of a wakeup
    /// crossing a cluster boundary.
    NeverFetched {
        /// The cluster's highest uid fetched so far.
        horizon: u64,
    },
    /// A stage event for an instruction that already retired.
    Retired,
}

/// One cluster's in-flight instructions and its fetch horizon.
#[derive(Debug)]
struct ClusterMirror<T> {
    /// uid → instruction (§8: a cluster's uids are dense).
    ring: InflightRing<Inst<T>>,
    /// Highest uid fetched so far.
    horizon: u64,
}

/// The in-flight instructions of every cluster, kept by one typed
/// transition per instruction event ([`fetch`](InstMirror::fetch) …
/// [`squash`](InstMirror::squash)), which [`on`](InstMirror::on)
/// dispatches to. Clusters are added on first fetch, so the mirror needs
/// no machine description.
#[derive(Debug)]
pub struct InstMirror<T = ()> {
    clusters: Vec<ClusterMirror<T>>,
}

impl<T> Default for InstMirror<T> {
    fn default() -> Self {
        InstMirror {
            clusters: Vec::new(),
        }
    }
}

impl<T: InstRecord> InstMirror<T> {
    /// An empty mirror.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one event: the dispatcher over the typed transitions below.
    /// Instruction events give the [`Step`] (or the [`Misstep`]) they
    /// made; every other event is `Ok(None)`.
    ///
    /// # Errors
    /// The [`Misstep`] of an event that has no instruction to apply to.
    #[inline]
    pub fn on(&mut self, ev: &Event<'_>) -> Result<Option<Step<T>>, Misstep> {
        match *ev {
            Event::Fetch(e) => self.fetch(&e),
            Event::Issue(e) => self.issue(e),
            Event::Writeback(e) => self.writeback(e),
            Event::Commit(e) => self.commit(e),
            Event::Squash(e) => self.squash(e),
            _ => return Ok(None),
        }
        .map(Some)
    }

    /// A fetch enters the instruction at [`Stage::Fetched`], adding its
    /// cluster on first sight; [`Misstep::Refetch`] when the uid is not
    /// above the cluster's last.
    #[inline]
    pub fn fetch(&mut self, e: &FetchEvent) -> Result<Step<T>, Misstep> {
        let i = e.cluster as usize;
        if self.clusters.len() <= i {
            self.add_clusters(i + 1);
        }
        let c = &mut self.clusters[i];
        if e.uid <= c.horizon {
            return Err(Misstep::Refetch { last: c.horizon });
        }
        c.horizon = e.uid;
        let inst = Inst {
            thread: e.thread,
            stage: Stage::Fetched,
            record: T::fetched(e),
        };
        c.ring.insert(e.uid, inst);
        Ok(Step {
            inst,
            in_order: true,
        })
    }

    /// Grow to `n` clusters: once per cluster, on its first fetch.
    #[cold]
    fn add_clusters(&mut self, n: usize) {
        self.clusters.resize_with(n, || ClusterMirror {
            ring: InflightRing::new(),
            horizon: 0,
        });
    }

    // The lifecycle table: each stage event, the stage it needs (`None`:
    // any) and the stage it moves to (`None`: it retires). Each returns
    // the `Misstep` of an instruction its cluster does not hold.

    /// Fetched → issued.
    #[inline]
    pub fn issue(&mut self, e: StageEvent) -> Result<Step<T>, Misstep> {
        self.advance(e, Some(Stage::Fetched), Some(Stage::Issued))
    }

    /// Issued → written back.
    #[inline]
    pub fn writeback(&mut self, e: StageEvent) -> Result<Step<T>, Misstep> {
        self.advance(e, Some(Stage::Issued), Some(Stage::Done))
    }

    /// Written back → retired.
    #[inline]
    pub fn commit(&mut self, e: StageEvent) -> Result<Step<T>, Misstep> {
        self.advance(e, Some(Stage::Done), None)
    }

    /// Any stage → retired.
    #[inline]
    pub fn squash(&mut self, e: StageEvent) -> Result<Step<T>, Misstep> {
        self.advance(e, None, None)
    }

    /// Move `e`'s instruction from `needs` to `to`, or report it out of
    /// order (and leave it where it is, unless `to` retires it). A
    /// cluster the mirror has not seen fetch has fetched nothing.
    #[inline(always)]
    fn advance(
        &mut self,
        e: StageEvent,
        needs: Option<Stage>,
        to: Option<Stage>,
    ) -> Result<Step<T>, Misstep> {
        let Some(c) = self.clusters.get_mut(e.cluster as usize) else {
            return Err(Misstep::NeverFetched { horizon: 0 });
        };
        let in_order = |inst: &Inst<T>| needs.is_none_or(|s| s == inst.stage);
        let step = match to {
            // Retiring: one lookup takes the instruction out.
            None => c.ring.remove(e.uid).map(|inst| Step {
                inst,
                in_order: in_order(&inst),
            }),
            Some(next) => c.ring.get_mut(e.uid).map(|inst| {
                let step = Step {
                    inst: *inst,
                    in_order: in_order(inst),
                };
                if step.in_order {
                    inst.stage = next;
                    inst.record.reached(next, e.cycle);
                }
                step
            }),
        };
        let Some(step) = step else {
            return Err(if e.uid == 0 || e.uid > c.horizon {
                Misstep::NeverFetched { horizon: c.horizon }
            } else {
                Misstep::Retired
            });
        };
        Ok(step)
    }

    /// The instructions `cluster` has in flight, in ascending uid order.
    pub fn in_flight(&self, cluster: usize) -> impl Iterator<Item = (u64, &Inst<T>)> {
        self.clusters
            .get(cluster)
            .into_iter()
            .flat_map(|c| c.ring.iter())
    }

    /// How many instructions `cluster` has in flight.
    #[inline]
    #[must_use]
    pub fn len(&self, cluster: usize) -> usize {
        self.clusters.get(cluster).map_or(0, |c| c.ring.len())
    }

    /// True when no cluster has an instruction in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clusters.iter().all(|c| c.ring.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::CycleStats;
    use csmt_isa::OpClass;

    /// Every stage an instruction reached, with its cycle.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Reached([Option<u64>; 2]);

    impl InstRecord for Reached {
        fn fetched(_: &FetchEvent) -> Self {
            Reached::default()
        }
        fn reached(&mut self, stage: Stage, cycle: u64) {
            match stage {
                Stage::Issued => self.0[0] = Some(cycle),
                Stage::Done => self.0[1] = Some(cycle),
                Stage::Fetched => {}
            }
        }
    }

    fn fetch(cluster: u32, uid: u64, cycle: u64) -> Event<'static> {
        Event::Fetch(FetchEvent {
            cycle,
            cluster,
            thread: 2,
            uid,
            pc: 0x40,
            op: OpClass::Load,
            wrong_path: false,
        })
    }

    fn stage(cluster: u32, uid: u64, cycle: u64) -> StageEvent {
        StageEvent {
            cycle,
            cluster,
            uid,
        }
    }

    fn step<T: InstRecord>(m: &mut InstMirror<T>, ev: &Event<'_>) -> Step<T> {
        m.on(ev).expect("found").expect("an instruction event")
    }

    #[test]
    fn a_legal_lifecycle_reports_each_stage_to_the_record() {
        let mut m = InstMirror::<Reached>::new();
        step(&mut m, &fetch(1, 1, 10));
        for ev in [
            Event::Issue(stage(1, 1, 12)),
            Event::Writeback(stage(1, 1, 15)),
        ] {
            assert!(step(&mut m, &ev).in_order, "{ev:?}");
        }
        assert_eq!(m.len(1), 1);
        let s = step(&mut m, &Event::Commit(stage(1, 1, 16)));
        assert!(s.in_order);
        assert_eq!((s.inst.thread, s.inst.stage), (2, Stage::Done));
        assert_eq!(s.inst.record, Reached([Some(12), Some(15)]));
        assert!(m.is_empty());
        // Not an instruction event.
        assert_eq!(
            m.on(&Event::CycleEnd(&CycleStats::default()))
                .map(|s| s.is_none()),
            Ok(true)
        );
    }

    #[test]
    fn out_of_order_stages_are_not_applied_but_commit_retires() {
        let mut m = InstMirror::<Reached>::new();
        step(&mut m, &fetch(0, 1, 1));
        let s = step(&mut m, &Event::Writeback(stage(0, 1, 2)));
        assert!(!s.in_order);
        assert_eq!(s.inst.stage, Stage::Fetched);
        let s = step(&mut m, &Event::Commit(stage(0, 1, 3)));
        assert!(!s.in_order);
        assert_eq!(s.inst.stage, Stage::Fetched, "never issued");
        assert_eq!(s.inst.record, Reached::default());
        assert!(m.is_empty());
        step(&mut m, &fetch(0, 2, 4));
        assert!(
            step(&mut m, &Event::Squash(stage(0, 2, 5))).in_order,
            "a squash is in order at any stage"
        );
    }

    #[test]
    fn missteps_tell_never_fetched_from_retired() {
        // The checker's slot: stage and context only.
        assert_eq!(std::mem::size_of::<Option<Inst<()>>>(), 8);
        let mut m = InstMirror::<()>::new();
        assert_eq!(
            m.on(&Event::Issue(stage(3, 1, 1))).unwrap_err(),
            Misstep::NeverFetched { horizon: 0 },
            "a cluster that never fetched"
        );
        step(&mut m, &fetch(0, 1, 1));
        step(&mut m, &fetch(0, 2, 1));
        step(&mut m, &Event::Squash(stage(0, 1, 2)));
        assert_eq!(
            m.on(&Event::Issue(stage(0, 1, 3))).unwrap_err(),
            Misstep::Retired
        );
        for uid in [0, 3] {
            assert_eq!(
                m.on(&Event::Issue(stage(0, uid, 3))).unwrap_err(),
                Misstep::NeverFetched { horizon: 2 }
            );
        }
        assert_eq!(
            m.on(&fetch(0, 2, 4)).unwrap_err(),
            Misstep::Refetch { last: 2 }
        );
        let uids: Vec<u64> = m.in_flight(0).map(|(uid, _)| uid).collect();
        assert_eq!(uids, [2]);
        assert_eq!(m.in_flight(7).count(), 0);
    }
}
