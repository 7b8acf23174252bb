//! Per-instruction pipeline traces in gem5's O3PipeView format.

use std::fs::File;
use std::io::{self, BufWriter, Write};

use csmt_isa::OpClass;

use crate::mirror::{Inst, InstMirror, InstRecord, Stage};
use crate::probe::{Event, FetchEvent, Probe, StageEvent, Wants};

/// Simulated ticks per machine cycle in the emitted trace. gem5 runs its
/// O3 model at 500 ticks/cycle (1 ps ticks, 2 GHz), and Konata's format
/// detection is happiest with the same granularity.
pub const TICKS_PER_CYCLE: u64 = 500;

/// What a trace record needs beyond stage and context. A stage not
/// reached yet reads as the last one that was: `issue` is the fetch cycle
/// until the instruction issues, and `writeback` is `issue` until it
/// writes back.
#[derive(Debug, Clone, Copy)]
struct Lifetime {
    fetch: u64,
    issue: u64,
    writeback: u64,
    pc: u64,
    op: OpClass,
    wrong_path: bool,
}

impl InstRecord for Lifetime {
    #[inline]
    fn fetched(e: &FetchEvent) -> Self {
        Lifetime {
            fetch: e.cycle,
            issue: e.cycle,
            writeback: e.cycle,
            pc: e.pc,
            op: e.op,
            wrong_path: e.wrong_path,
        }
    }

    #[inline]
    fn reached(&mut self, stage: Stage, cycle: u64) {
        match stage {
            Stage::Issued => (self.issue, self.writeback) = (cycle, cycle),
            Stage::Done => self.writeback = cycle,
            Stage::Fetched | Stage::Renamed => {}
        }
    }
}

/// Streams instruction lifetimes in gem5's `O3PipeView` trace format,
/// loadable by Konata and gem5's `util/o3-pipeview.py`:
///
/// ```text
/// O3PipeView:fetch:42000:0x00001234:0:7:IntAlu t0 c0
/// O3PipeView:decode:42000
/// O3PipeView:rename:42000
/// O3PipeView:dispatch:42000
/// O3PipeView:issue:42500
/// O3PipeView:complete:43500
/// O3PipeView:retire:44000:store:0
/// ```
///
/// The front end is single-cycle, so decode/rename/dispatch share the
/// fetch tick. A squashed instruction is emitted with retire tick 0
/// (gem5's convention for "never retired"); its missing stage ticks are
/// clamped to the last stage it reached, keeping timestamps
/// monotonically non-decreasing in every record. Records are written
/// when the instruction leaves the pipeline (commit or squash), so
/// memory stays bounded by the number of instructions in flight.
///
/// `max_records` (see [`with_limit`](PipeviewProbe::with_limit)) caps
/// the number of records written — traces grow by roughly 200 bytes per
/// instruction, so an uncapped billion-instruction run is a 200 GB file.
pub struct PipeviewProbe<W: Write = BufWriter<File>> {
    out: W,
    /// Each in-flight instruction's stage cycles so far.
    mirror: InstMirror<Lifetime>,
    written: u64,
    max_records: u64,
    error: Option<io::Error>,
}

impl<W: Write> PipeviewProbe<W> {
    /// Create a probe over any writer, with no record limit.
    pub fn new(out: W) -> Self {
        Self::with_limit(out, u64::MAX)
    }

    /// Create a probe that stops writing after `max_records` instruction
    /// records (instructions beyond the cap are still tracked and
    /// dropped silently, keeping memory bounded).
    pub fn with_limit(out: W, max_records: u64) -> Self {
        PipeviewProbe {
            out,
            mirror: InstMirror::new(),
            written: 0,
            max_records,
            error: None,
        }
    }

    /// Flush buffered output, returning the first I/O error seen.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }

    fn retire(&mut self, e: StageEvent, inst: Inst<Lifetime>, committed: bool) {
        if self.written >= self.max_records || self.error.is_some() {
            return;
        }
        self.written += 1;

        // The clamps keep ticks non-decreasing whatever cycles the events
        // carried.
        let life = inst.record;
        let issue_c = life.issue.max(life.fetch);
        let complete_c = life.writeback.max(issue_c);
        let retire_c = e.cycle.max(complete_c);

        let t = TICKS_PER_CYCLE;
        // A machine-unique display sequence number: cluster in the high
        // bits, cluster-local uid in the low 40.
        let sn = (u64::from(e.cluster) << 40) | (e.uid & ((1 << 40) - 1));
        let wp = if life.wrong_path { " WP" } else { "" };
        let written = write!(
            self.out,
            "O3PipeView:fetch:{ft}:{pc:#010x}:0:{sn}:{op:?} t{tid} c{cl}{wp}\n\
             O3PipeView:decode:{ft}\n\
             O3PipeView:rename:{ft}\n\
             O3PipeView:dispatch:{ft}\n\
             O3PipeView:issue:{it}\n\
             O3PipeView:complete:{ct}\n\
             O3PipeView:retire:{rt}:store:0\n",
            ft = life.fetch * t,
            pc = life.pc,
            op = life.op,
            tid = inst.thread,
            cl = e.cluster,
            it = issue_c * t,
            ct = complete_c * t,
            rt = if committed { retire_c * t } else { 0 },
        );
        if let Err(err) = written {
            self.error = Some(err);
        }
    }
}

impl<W: Write> Probe for PipeviewProbe<W> {
    const WANTS: Wants = Wants::INST;

    #[inline]
    fn on(&mut self, ev: &Event<'_>) {
        let Ok(Some(step)) = self.mirror.on(ev) else {
            return;
        };
        match *ev {
            Event::Commit(e) => self.retire(e, step.inst, true),
            Event::Squash(e) => self.retire(e, step.inst, false),
            _ => {}
        }
    }
}

impl<W: Write> Drop for PipeviewProbe<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(cluster: u32, uid: u64, cycle: u64) -> FetchEvent {
        FetchEvent {
            cycle,
            cluster,
            thread: 1,
            uid,
            pc: 0x400 + uid * 4,
            op: OpClass::IntAlu,
            wrong_path: false,
        }
    }

    fn stage(cluster: u32, uid: u64, cycle: u64) -> StageEvent {
        StageEvent {
            cycle,
            cluster,
            uid,
        }
    }

    fn lines(buf: Vec<u8>) -> Vec<String> {
        String::from_utf8(buf)
            .expect("trace output is UTF-8")
            .lines()
            .map(String::from)
            .collect()
    }

    #[test]
    fn committed_instruction_emits_full_record() {
        let mut buf = Vec::new();
        {
            let mut p = PipeviewProbe::new(&mut buf);
            p.on(&Event::Fetch(fetch(0, 7, 10)));
            p.on(&Event::Rename(stage(0, 7, 10)));
            p.on(&Event::Issue(stage(0, 7, 12)));
            p.on(&Event::Writeback(stage(0, 7, 14)));
            p.on(&Event::Commit(stage(0, 7, 15)));
            p.finish().expect("in-memory trace cannot hit I/O errors");
        }
        let ls = lines(buf);
        assert_eq!(ls.len(), 7);
        assert_eq!(ls[0], "O3PipeView:fetch:5000:0x0000041c:0:7:IntAlu t1 c0");
        assert_eq!(ls[1], "O3PipeView:decode:5000");
        assert_eq!(ls[4], "O3PipeView:issue:6000");
        assert_eq!(ls[5], "O3PipeView:complete:7000");
        assert_eq!(ls[6], "O3PipeView:retire:7500:store:0");
    }

    #[test]
    fn squashed_instruction_retires_at_tick_zero_with_clamped_stages() {
        let mut buf = Vec::new();
        {
            let mut p = PipeviewProbe::new(&mut buf);
            p.on(&Event::Fetch(fetch(2, 3, 5)));
            p.on(&Event::Squash(stage(2, 3, 6))); // never issued
            p.finish().expect("in-memory trace cannot hit I/O errors");
        }
        let ls = lines(buf);
        // issue/complete clamp to the fetch tick; retire tick 0 marks
        // the squash.
        assert_eq!(ls[4], "O3PipeView:issue:2500");
        assert_eq!(ls[5], "O3PipeView:complete:2500");
        assert_eq!(ls[6], "O3PipeView:retire:0:store:0");
    }

    #[test]
    fn stage_ticks_never_decrease_within_a_record() {
        let mut buf = Vec::new();
        {
            let mut p = PipeviewProbe::new(&mut buf);
            for uid in 0..20u64 {
                p.on(&Event::Fetch(fetch(0, uid, uid)));
                p.on(&Event::Rename(stage(0, uid, uid)));
                if uid % 3 != 0 {
                    p.on(&Event::Issue(stage(0, uid, uid + 2)));
                }
                if uid % 4 != 0 {
                    p.on(&Event::Writeback(stage(0, uid, uid + 5)));
                }
                if uid % 5 == 0 {
                    p.on(&Event::Squash(stage(0, uid, uid + 6)));
                } else {
                    p.on(&Event::Commit(stage(0, uid, uid + 6)));
                }
            }
            p.finish().expect("in-memory trace cannot hit I/O errors");
        }
        let ls = lines(buf);
        for rec in ls.chunks(7) {
            let tick = |l: &str| {
                let field = l.split(':').nth(2).expect("records have a tick field");
                field.parse::<u64>().expect("tick fields are integers")
            };
            let seq = [tick(&rec[0]), tick(&rec[2]), tick(&rec[4]), tick(&rec[5])];
            assert!(
                seq.windows(2).all(|w| w[0] <= w[1]),
                "non-monotonic: {seq:?}"
            );
            let retire = tick(&rec[6]);
            assert!(retire == 0 || retire >= seq[3]);
        }
    }

    /// Golden output: a scripted three-instruction sequence (a committed
    /// load, a wrong-path squash, and a second-cluster ALU op) must
    /// reproduce this exact trace, byte for byte. Guards the whole
    /// format — field order, tick scaling, WP marker, sequence-number
    /// packing — against accidental drift that Konata would reject.
    #[test]
    fn golden_trace_for_a_scripted_sequence() {
        let mut buf = Vec::new();
        {
            let mut p = PipeviewProbe::new(&mut buf);
            // Committed load on cluster 0, thread 1.
            p.on(&Event::Fetch(FetchEvent {
                cycle: 10,
                cluster: 0,
                thread: 1,
                uid: 7,
                pc: 0x41c,
                op: OpClass::Load,
                wrong_path: true,
            }));
            p.on(&Event::Rename(stage(0, 7, 10)));
            p.on(&Event::Issue(stage(0, 7, 12)));
            p.on(&Event::Writeback(stage(0, 7, 20)));
            // Wrong-path instruction fetched and squashed before issue.
            p.on(&Event::Fetch(FetchEvent {
                cycle: 11,
                cluster: 0,
                thread: 0,
                uid: 8,
                pc: 0x1000,
                op: OpClass::Branch,
                wrong_path: true,
            }));
            p.on(&Event::Squash(stage(0, 8, 13)));
            p.on(&Event::Commit(stage(0, 7, 21)));
            // A second cluster exercises the sequence-number packing.
            p.on(&Event::Fetch(fetch(3, 2, 30)));
            p.on(&Event::Rename(stage(3, 2, 30)));
            p.on(&Event::Issue(stage(3, 2, 31)));
            p.on(&Event::Writeback(stage(3, 2, 32)));
            p.on(&Event::Commit(stage(3, 2, 33)));
            p.finish().expect("in-memory trace cannot hit I/O errors");
        }
        let golden = "\
O3PipeView:fetch:5500:0x00001000:0:8:Branch t0 c0 WP\n\
O3PipeView:decode:5500\n\
O3PipeView:rename:5500\n\
O3PipeView:dispatch:5500\n\
O3PipeView:issue:5500\n\
O3PipeView:complete:5500\n\
O3PipeView:retire:0:store:0\n\
O3PipeView:fetch:5000:0x0000041c:0:7:Load t1 c0 WP\n\
O3PipeView:decode:5000\n\
O3PipeView:rename:5000\n\
O3PipeView:dispatch:5000\n\
O3PipeView:issue:6000\n\
O3PipeView:complete:10000\n\
O3PipeView:retire:10500:store:0\n\
O3PipeView:fetch:15000:0x00000408:0:3298534883330:IntAlu t1 c3\n\
O3PipeView:decode:15000\n\
O3PipeView:rename:15000\n\
O3PipeView:dispatch:15000\n\
O3PipeView:issue:15500\n\
O3PipeView:complete:16000\n\
O3PipeView:retire:16500:store:0\n";
        assert_eq!(String::from_utf8(buf).unwrap(), golden);
    }

    #[test]
    fn record_limit_caps_output_but_keeps_draining() {
        let mut buf = Vec::new();
        {
            let mut p = PipeviewProbe::with_limit(&mut buf, 2);
            for uid in 0..5u64 {
                p.on(&Event::Fetch(fetch(0, uid, uid)));
                p.on(&Event::Commit(stage(0, uid, uid + 3)));
            }
            assert!(p.mirror.is_empty());
            p.finish().expect("in-memory trace cannot hit I/O errors");
        }
        assert_eq!(lines(buf).len(), 14);
    }

    #[test]
    fn clusters_do_not_collide_on_uid() {
        let mut buf = Vec::new();
        {
            let mut p = PipeviewProbe::new(&mut buf);
            p.on(&Event::Fetch(fetch(0, 9, 1)));
            p.on(&Event::Fetch(fetch(1, 9, 2)));
            p.on(&Event::Commit(stage(1, 9, 4)));
            p.on(&Event::Commit(stage(0, 9, 5)));
            p.finish().expect("in-memory trace cannot hit I/O errors");
        }
        let ls = lines(buf);
        assert_eq!(ls.len(), 14);
        // First record out is cluster 1's instruction (fetched cycle 2).
        assert!(ls[0].contains(":1000:"));
        assert!(ls[0].ends_with("c1"));
        assert!(ls[7].ends_with("c0"));
    }
}
