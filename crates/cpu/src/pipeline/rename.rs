//! Register renaming: the int/fp free-register pools instructions allocate
//! from at dispatch and return to at commit or squash, plus the map-table
//! rebuild used on a misprediction recovery.

use csmt_isa::ArchReg;

use super::regs::ThreadCtx;
use super::window::Window;

/// The two renaming-register free pools (Table 2 budgets).
pub(crate) struct RenamePools {
    pub int_free: usize,
    pub fp_free: usize,
}

impl RenamePools {
    pub fn new(int_free: usize, fp_free: usize) -> Self {
        RenamePools { int_free, fp_free }
    }

    /// Try to allocate a register of `dest`'s kind. Returns false (and
    /// allocates nothing) when the pool is empty — a rename stall.
    pub fn try_alloc(&mut self, dest: ArchReg) -> bool {
        let pool = if dest.is_fp() {
            &mut self.fp_free
        } else {
            &mut self.int_free
        };
        if *pool == 0 {
            return false;
        }
        *pool -= 1;
        true
    }

    /// Return `dest`'s register to its pool.
    pub fn release(&mut self, dest: ArchReg) {
        if dest.is_fp() {
            self.fp_free += 1;
        } else {
            self.int_free += 1;
        }
    }
}

/// Rebuild a thread's map table from its surviving in-flight producers
/// (after wrong-path instructions were squashed), reading each one's
/// register from the window.
pub(crate) fn rebuild_map(t: &mut ThreadCtx, win: &Window) {
    t.map = [None; ArchReg::COUNT];
    for &s in &t.fifo {
        if let Some(d) = win.dest(s) {
            t.map[d.flat_index()] = Some(s);
        }
    }
}
