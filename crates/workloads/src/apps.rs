//! The six applications of the paper's evaluation (§4).
//!
//! Three SPEC95 Fortran codes (swim, tomcatv, mgrid) and the NASA7 vpenta
//! kernel, parallelized in the paper by Polaris; two SPLASH-2 C codes (fmm,
//! ocean) using ANL macros. We model each as an [`AppSpec`] — a fork-join
//! phase structure plus kernel parameters — calibrated so that, measured on
//! our simulator exactly as the paper measures (average runnable threads on
//! FA8, average ILP on FA1), each application lands in its Figure 6
//! neighbourhood:
//!
//! | app     | character                                            | Fig 6 (low-end) |
//! |---------|------------------------------------------------------|-----------------|
//! | swim    | shallow-water stencil; parallel, mid ILP             | ~(4, 4)         |
//! | tomcatv | mesh generator; heavy serial sections, decent ILP    | ~(2, 4)         |
//! | mgrid   | multigrid; parallelism shrinks at coarse levels      | ~(4, 3)         |
//! | vpenta  | pentadiagonal solver; very parallel, recurrences     | ~(6, 2)         |
//! | fmm     | N-body; irregular, locks, imbalance, high ILP        | ~(4, 5)         |
//! | ocean   | regular grids + boundary exchange; very parallel     | ~(7, 1.5)       |

use crate::addr::{AddrCursor, AddrMode, Layout};
use crate::kernel::{KernelInstance, KernelSpec, LockUse, OpMix};
use crate::program::{Phase, ProgramStream};
use csmt_isa::{InstStream, SplitMix64};

/// Machine-facing parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct AppParams {
    /// Software threads to create (the machine's hardware context count).
    pub n_threads: usize,
    /// Chips in the machine (for NUMA-aware data placement).
    pub n_chips: usize,
    /// Work scaling: 1.0 = full figure-sized run, smaller for tests.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl AppParams {
    /// Convenience constructor.
    pub fn new(n_threads: usize, n_chips: usize, scale: f64, seed: u64) -> Self {
        assert!(n_threads >= 1 && n_chips >= 1 && scale > 0.0);
        AppParams {
            n_threads,
            n_chips,
            scale,
            seed,
        }
    }
}

/// How a loop's memory operands walk memory.
///
/// Footprints are the *whole application's* array sizes; each thread works
/// a `footprint / n_threads` slice (domain decomposition — the dataset does
/// not grow with the thread count).
#[derive(Debug, Clone, Copy)]
pub enum MemStyle {
    /// Dense stride over the thread's private slice.
    PrivateStride {
        /// Bytes between accesses.
        stride: u64,
        /// Whole-array bytes (divided among threads).
        footprint: u64,
    },
    /// Random accesses into the shared region (pages interleave nodes).
    SharedIrregular {
        /// Shared bytes addressable.
        footprint: u64,
    },
    /// Stride over own slice with a fraction going to the ring neighbor's
    /// slice (boundary exchange).
    NeighborStride {
        /// Bytes between accesses.
        stride: u64,
        /// Slice bytes before wrapping.
        footprint: u64,
        /// Fraction of accesses touching the neighbor.
        neighbor_frac: f64,
    },
}

/// One parallel loop (executed each timestep, split across threads).
#[derive(Debug, Clone)]
pub struct LoopDef {
    /// Total iterations across all threads.
    pub total_iters: u64,
    /// The loop body.
    pub kernel: KernelSpec,
    /// Load address behaviour, one entry per load operand (cycled if
    /// shorter than `kernel.loads`).
    pub load_styles: Vec<MemStyle>,
    /// Store address behaviour.
    pub store_style: MemStyle,
    /// Load imbalance: thread weights are `1 + imbalance·u(t)` with
    /// `u(t) ∈ [0,1)` a per-thread hash. 0 = perfectly balanced.
    pub imbalance: f64,
    /// Whether iterations may enter lock-protected critical sections.
    pub use_locks: bool,
}

/// A whole application.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name as in the paper.
    pub name: &'static str,
    /// Outer timesteps.
    pub steps: u64,
    /// Serial-section iterations per timestep (thread 0 only; the
    /// convergence checks / reductions Polaris could not parallelize).
    pub serial_iters: u64,
    /// Serial-section kernel (typically high-ILP).
    pub serial_kernel: KernelSpec,
    /// Parallel loops per timestep.
    pub loops: Vec<LoopDef>,
    /// Lock behaviour for loops with `use_locks`.
    pub lock: Option<LockUse>,
}

impl AppSpec {
    /// Approximate total dynamic instructions at `scale` (for sizing runs).
    pub fn approx_insts(&self, scale: f64) -> u64 {
        let serial = self.serial_iters as f64 * self.serial_kernel.insts_per_iter() as f64;
        let par: f64 = self
            .loops
            .iter()
            .map(|l| l.total_iters as f64 * l.kernel.insts_per_iter() as f64)
            .sum();
        (self.steps as f64 * (serial + par) * scale) as u64
    }
}

fn scaled(iters: u64, scale: f64) -> u64 {
    ((iters as f64 * scale) as u64).max(1)
}

/// Per-thread iteration share with imbalance.
///
/// Largest-remainder allocation: the shares sum to exactly `total`, so the
/// application's work is invariant in the thread count (flooring would
/// silently shrink the work for high thread counts).
fn share(total: u64, t: usize, n: usize, imbalance: f64, seed: u64) -> u64 {
    if n == 1 {
        return total;
    }
    let u = |k: usize| SplitMix64::new(seed ^ (k as u64 * 0x9E37)).next_f64();
    let w: Vec<f64> = (0..n).map(|k| 1.0 + imbalance * u(k)).collect();
    let sum: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|wk| total as f64 * wk / sum).collect();
    let mut shares: Vec<u64> = exact.iter().map(|&e| e as u64).collect();
    let mut left = total.saturating_sub(shares.iter().sum::<u64>());
    // Hand the leftover iterations to the largest fractional parts.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - shares[a] as f64;
        let fb = exact[b] - shares[b] as f64;
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    for &k in order.iter().cycle().take(n * 2) {
        if left == 0 {
            break;
        }
        shares[k] += 1;
        left -= 1;
    }
    shares[t]
}

fn cursors_for(
    styles: &[MemStyle],
    count: usize,
    t: usize,
    p: &AppParams,
    iters_before: u64,
    seed: u64,
) -> Vec<AddrCursor> {
    let threads_per_node = p.n_threads.div_ceil(p.n_chips);
    let own = Layout::private_slice(t, p.n_chips, threads_per_node);
    let neighbor = Layout::private_slice((t + 1) % p.n_threads, p.n_chips, threads_per_node);
    // Domain decomposition: each thread sweeps its share of the arrays.
    let slice = |footprint: u64| (footprint / p.n_threads as u64).max(4096);
    (0..count)
        .map(|k| {
            let style = styles[k % styles.len()];
            // Distinct arrays per operand. The offset staggers page, cache
            // set and bank (a pure power-of-two spacing would alias every
            // operand stream into the same L1/L2 set).
            let array_off = k as u64 * ((1 << 22) + (1 << 12) + 3 * 64);
            let mode = match style {
                MemStyle::PrivateStride { stride, footprint } => AddrMode::Stride {
                    layout: Layout {
                        base: own.base + array_off,
                        ..own
                    },
                    stride,
                    footprint: slice(footprint),
                },
                MemStyle::SharedIrregular { footprint } => AddrMode::Irregular {
                    layout: Layout::shared(array_off),
                    footprint,
                },
                MemStyle::NeighborStride {
                    stride,
                    footprint,
                    neighbor_frac,
                } => AddrMode::NeighborMix {
                    own: Layout {
                        base: own.base + array_off,
                        ..own
                    },
                    neighbor: Layout {
                        base: neighbor.base + array_off,
                        ..neighbor
                    },
                    stride,
                    footprint: slice(footprint),
                    neighbor_frac,
                },
            };
            AddrCursor::resumed(mode, seed ^ (k as u64) << 32, iters_before)
        })
        .collect()
}

/// Build the per-thread instruction streams for `app` under `params`.
///
/// Thread 0 carries the serial sections; every live thread participates in
/// every barrier; total parallel work is invariant in the thread count
/// (so FA1's single thread executes the whole application serially, as the
/// paper specifies).
pub fn build_streams(app: &AppSpec, params: &AppParams) -> Vec<Box<dyn InstStream + Send>> {
    let n = params.n_threads;
    let mut out: Vec<Box<dyn InstStream + Send>> = Vec::with_capacity(n);
    for t in 0..n {
        let mut phases = Vec::new();
        let mut barrier_id = 0u32;
        for step in 0..app.steps {
            let seed_base = params.seed ^ (step << 40);
            if app.serial_iters > 0 {
                if t == 0 {
                    let iters = scaled(app.serial_iters, params.scale);
                    let serial_style = [MemStyle::PrivateStride {
                        stride: 8,
                        footprint: 1 << 19,
                    }];
                    let loads = cursors_for(
                        &serial_style,
                        app.serial_kernel.loads as usize,
                        0,
                        params,
                        step * iters,
                        seed_base ^ 0x5E41A,
                    );
                    let stores = cursors_for(
                        &serial_style,
                        app.serial_kernel.stores as usize,
                        0,
                        params,
                        step * iters,
                        seed_base ^ 0x5E41B,
                    );
                    phases.push(Phase::Kernel(KernelInstance::new(
                        app.serial_kernel,
                        0x1_0000,
                        iters,
                        loads,
                        stores,
                        seed_base ^ 0x5E41C,
                        None,
                    )));
                }
                phases.push(Phase::Sync(csmt_isa::SyncOp::Barrier(barrier_id)));
                barrier_id += 1;
            }
            for (li, l) in app.loops.iter().enumerate() {
                let total = scaled(l.total_iters, params.scale);
                let iters = share(total, t, n, l.imbalance, params.seed ^ (li as u64) << 16);
                if iters > 0 {
                    let base_pc = 0x2_0000 + li as u64 * 0x1000;
                    let loads = cursors_for(
                        &l.load_styles,
                        l.kernel.loads as usize,
                        t,
                        params,
                        step * iters,
                        seed_base ^ ((li as u64) << 8) ^ (t as u64),
                    );
                    let stores = cursors_for(
                        std::slice::from_ref(&l.store_style),
                        l.kernel.stores as usize,
                        t,
                        params,
                        step * iters,
                        seed_base ^ ((li as u64) << 8) ^ (t as u64) ^ 0xDEAD,
                    );
                    let lock = if l.use_locks { app.lock } else { None };
                    phases.push(Phase::Kernel(KernelInstance::new(
                        l.kernel,
                        base_pc,
                        iters,
                        loads,
                        stores,
                        seed_base ^ ((li as u64) << 24) ^ ((t as u64) << 4),
                        lock,
                    )));
                }
                phases.push(Phase::Sync(csmt_isa::SyncOp::Barrier(barrier_id)));
                barrier_id += 1;
            }
        }
        out.push(Box::new(ProgramStream::new(phases)));
    }
    out
}

// ---------------------------------------------------------------------
// The six applications.
// ---------------------------------------------------------------------

/// swim — SPEC95 shallow-water model. Wide parallel stencil loops over
/// large arrays with moderate ILP, a modest serial section per timestep.
pub fn swim() -> AppSpec {
    let stencil = KernelSpec {
        chains: 4,
        depth: 3,
        mix: OpMix::Float,
        loads: 3,
        stores: 1,
        carried: false,
        // Boundary tests inside the sweeps: occasional data-dependent
        // branches that real codes have and perfect loop prediction hides.
        noise_branch: 0.05,
    };
    let dense = MemStyle::PrivateStride {
        stride: 8,
        footprint: 1 << 21,
    };
    AppSpec {
        name: "swim",
        steps: 5,
        serial_iters: 250,
        serial_kernel: KernelSpec {
            chains: 1,
            depth: 8,
            mix: OpMix::Float,
            loads: 2,
            stores: 1,
            carried: true,
            noise_branch: 0.02,
        },
        loops: vec![
            LoopDef {
                total_iters: 1200,
                kernel: stencil,
                load_styles: vec![
                    dense,
                    MemStyle::PrivateStride {
                        stride: 16,
                        footprint: 1 << 21,
                    },
                ],
                store_style: dense,
                imbalance: 0.45,
                use_locks: false,
            },
            LoopDef {
                total_iters: 1200,
                kernel: stencil,
                load_styles: vec![dense],
                store_style: dense,
                imbalance: 0.0,
                use_locks: false,
            },
        ],
        lock: None,
    }
}

/// tomcatv — SPEC95 mesh generator. The least parallel application: long
/// serial solver sections dominate; the parallel loops have good ILP.
pub fn tomcatv() -> AppSpec {
    let body = KernelSpec {
        chains: 2,
        depth: 4,
        mix: OpMix::Float,
        loads: 2,
        stores: 1,
        carried: true,
        noise_branch: 0.04,
    };
    let dense = MemStyle::PrivateStride {
        stride: 8,
        footprint: 1 << 20,
    };
    AppSpec {
        name: "tomcatv",
        steps: 5,
        serial_iters: 520,
        serial_kernel: KernelSpec {
            chains: 1,
            depth: 8,
            mix: OpMix::Float,
            loads: 2,
            stores: 1,
            carried: true,
            noise_branch: 0.02,
        },
        loops: vec![LoopDef {
            total_iters: 1300,
            kernel: body,
            load_styles: vec![dense],
            store_style: dense,
            // The mesh solver's triangular loops leave threads unevenly
            // loaded, which (with the serial sections) holds tomcatv's
            // thread parallelism near 2.
            imbalance: 1.4,
            use_locks: false,
        }],
        lock: None,
    }
}

/// mgrid — SPEC95 multigrid solver. Alternating fine (parallel) and coarse
/// (short, barrier-heavy) grid sweeps; the inter-level smoother recurrences
/// hold per-thread ILP at about 3.
pub fn mgrid() -> AppSpec {
    let relax = KernelSpec {
        chains: 2,
        depth: 4,
        mix: OpMix::Float,
        loads: 3,
        stores: 1,
        carried: true,
        noise_branch: 0.04,
    };
    let coarse = KernelSpec { depth: 3, ..relax };
    let dense = MemStyle::PrivateStride {
        stride: 8,
        footprint: 1 << 21,
    };
    AppSpec {
        name: "mgrid",
        steps: 4,
        serial_iters: 180,
        serial_kernel: KernelSpec {
            chains: 1,
            depth: 8,
            mix: OpMix::Float,
            loads: 2,
            stores: 1,
            carried: true,
            noise_branch: 0.02,
        },
        loops: vec![
            LoopDef {
                total_iters: 1100,
                kernel: relax,
                load_styles: vec![dense],
                store_style: dense,
                imbalance: 0.0,
                use_locks: false,
            },
            LoopDef {
                total_iters: 300,
                kernel: coarse,
                load_styles: vec![MemStyle::PrivateStride {
                    stride: 8,
                    footprint: 1 << 19,
                }],
                store_style: MemStyle::PrivateStride {
                    stride: 8,
                    footprint: 1 << 19,
                },
                imbalance: 0.0,
                use_locks: false,
            },
            LoopDef {
                total_iters: 120,
                kernel: coarse,
                load_styles: vec![MemStyle::PrivateStride {
                    stride: 8,
                    footprint: 1 << 17,
                }],
                store_style: MemStyle::PrivateStride {
                    stride: 8,
                    footprint: 1 << 17,
                },
                imbalance: 0.0,
                use_locks: false,
            },
        ],
        lock: None,
    }
}

/// vpenta — NASA7 pentadiagonal inversion. Almost embarrassingly parallel
/// (tiny serial sections) but recurrence-bound: a single deep loop-carried
/// chain pins the per-thread ILP near 2.
pub fn vpenta() -> AppSpec {
    let recur = KernelSpec {
        chains: 1,
        depth: 6,
        mix: OpMix::Float,
        loads: 3,
        stores: 2,
        carried: true,
        noise_branch: 0.02,
    };
    let dense = MemStyle::PrivateStride {
        stride: 8,
        footprint: 1 << 21,
    };
    AppSpec {
        name: "vpenta",
        steps: 4,
        serial_iters: 60,
        serial_kernel: KernelSpec {
            chains: 1,
            depth: 8,
            mix: OpMix::Float,
            loads: 2,
            stores: 1,
            carried: true,
            noise_branch: 0.02,
        },
        loops: vec![
            LoopDef {
                total_iters: 1500,
                kernel: recur,
                load_styles: vec![dense],
                store_style: dense,
                imbalance: 0.0,
                use_locks: false,
            },
            LoopDef {
                total_iters: 1500,
                kernel: recur,
                load_styles: vec![dense],
                store_style: dense,
                imbalance: 0.0,
                use_locks: false,
            },
        ],
        lock: None,
    }
}

/// fmm — SPLASH-2 fast multipole N-body. Irregular tree accesses, lock-
/// protected cell updates, load imbalance across threads, high-ILP force
/// kernels with data-dependent branches.
pub fn fmm() -> AppSpec {
    let force = KernelSpec {
        chains: 5,
        depth: 2,
        mix: OpMix::Mixed,
        loads: 2,
        stores: 1,
        carried: false,
        noise_branch: 0.05,
    };
    AppSpec {
        name: "fmm",
        steps: 4,
        serial_iters: 260,
        serial_kernel: KernelSpec {
            chains: 1,
            depth: 8,
            mix: OpMix::Mixed,
            loads: 2,
            stores: 1,
            carried: true,
            noise_branch: 0.03,
        },
        loops: vec![
            LoopDef {
                total_iters: 900,
                kernel: force,
                load_styles: vec![
                    MemStyle::SharedIrregular { footprint: 1 << 15 },
                    MemStyle::PrivateStride {
                        stride: 8,
                        footprint: 1 << 19,
                    },
                ],
                store_style: MemStyle::PrivateStride {
                    stride: 16,
                    footprint: 1 << 19,
                },
                imbalance: 0.5,
                use_locks: true,
            },
            LoopDef {
                total_iters: 500,
                kernel: KernelSpec {
                    chains: 4,
                    noise_branch: 0.04,
                    ..force
                },
                load_styles: vec![MemStyle::PrivateStride {
                    stride: 8,
                    footprint: 1 << 20,
                }],
                store_style: MemStyle::PrivateStride {
                    stride: 8,
                    footprint: 1 << 20,
                },
                imbalance: 0.4,
                use_locks: false,
            },
        ],
        lock: Some(LockUse {
            n_locks: 16,
            frac: 0.04,
            body_ops: 4,
        }),
    }
}

/// ocean — SPLASH-2 ocean-current simulation. Very parallel grid sweeps
/// with boundary exchange between neighbor threads and recurrence-bound
/// red-black relaxation: many threads, low per-thread ILP.
pub fn ocean() -> AppSpec {
    let relax = KernelSpec {
        chains: 1,
        depth: 6,
        mix: OpMix::Float,
        loads: 3,
        stores: 1,
        carried: true,
        noise_branch: 0.03,
    };
    AppSpec {
        name: "ocean",
        steps: 5,
        serial_iters: 80,
        serial_kernel: KernelSpec {
            chains: 1,
            depth: 8,
            mix: OpMix::Float,
            loads: 2,
            stores: 1,
            carried: true,
            noise_branch: 0.02,
        },
        loops: vec![
            LoopDef {
                total_iters: 1400,
                kernel: relax,
                load_styles: vec![
                    MemStyle::NeighborStride {
                        stride: 8,
                        footprint: 1 << 21,
                        neighbor_frac: 0.10,
                    },
                    MemStyle::PrivateStride {
                        stride: 8,
                        footprint: 1 << 21,
                    },
                    MemStyle::PrivateStride {
                        stride: 16,
                        footprint: 1 << 21,
                    },
                ],
                store_style: MemStyle::PrivateStride {
                    stride: 8,
                    footprint: 1 << 21,
                },
                imbalance: 0.0,
                use_locks: false,
            },
            LoopDef {
                total_iters: 1100,
                kernel: relax,
                load_styles: vec![
                    MemStyle::NeighborStride {
                        stride: 8,
                        footprint: 1 << 20,
                        neighbor_frac: 0.08,
                    },
                    MemStyle::PrivateStride {
                        stride: 8,
                        footprint: 1 << 20,
                    },
                ],
                store_style: MemStyle::NeighborStride {
                    stride: 8,
                    footprint: 1 << 20,
                    neighbor_frac: 0.05,
                },
                imbalance: 0.0,
                use_locks: false,
            },
        ],
        lock: None,
    }
}

/// All six applications in the paper's figure order.
pub fn all_apps() -> Vec<AppSpec> {
    vec![swim(), tomcatv(), mgrid(), vpenta(), fmm(), ocean()]
}

/// Look an application up by name.
pub fn by_name(name: &str) -> Option<AppSpec> {
    all_apps().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_papers_six_apps() {
        let names: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            vec!["swim", "tomcatv", "mgrid", "vpenta", "fmm", "ocean"]
        );
        assert!(by_name("ocean").is_some());
        assert!(by_name("gcc").is_none());
    }

    #[test]
    fn total_parallel_work_is_thread_count_invariant() {
        for app in all_apps() {
            for l in 0..app.loops.len() {
                let total = scaled(app.loops[l].total_iters, 1.0);
                for n in [1usize, 2, 4, 8, 16, 32] {
                    let sum: u64 = (0..n)
                        .map(|t| share(total, t, n, app.loops[l].imbalance, 1))
                        .sum();
                    // Integer truncation loses at most n iterations.
                    assert!(
                        sum <= total && sum + n as u64 >= total,
                        "{} loop {l}: {sum} vs {total} at n={n}",
                        app.name
                    );
                }
            }
        }
    }

    #[test]
    fn imbalance_spreads_work_unevenly() {
        let even: Vec<u64> = (0..8).map(|t| share(800, t, 8, 0.0, 1)).collect();
        let uneven: Vec<u64> = (0..8).map(|t| share(800, t, 8, 0.8, 1)).collect();
        assert!(even.iter().all(|&x| x == even[0]));
        assert!(uneven.iter().any(|&x| x != uneven[0]));
    }

    #[test]
    fn streams_build_for_every_app_and_thread_count() {
        let p1 = AppParams::new(1, 1, 0.02, 7);
        let p8 = AppParams::new(8, 1, 0.02, 7);
        let p32 = AppParams::new(32, 4, 0.02, 7);
        for app in all_apps() {
            for p in [&p1, &p8, &p32] {
                let streams = build_streams(&app, p);
                assert_eq!(streams.len(), p.n_threads, "{}", app.name);
            }
        }
    }

    #[test]
    fn single_thread_stream_contains_all_the_work() {
        // FA1 runs the program sequentially: one stream with all iterations.
        let app = swim();
        let p = AppParams::new(1, 1, 0.05, 7);
        let mut streams = build_streams(&app, &p);
        let n = std::iter::from_fn(|| streams[0].next_inst()).count();
        let approx = app.approx_insts(0.05);
        let ratio = n as f64 / approx as f64;
        assert!((0.7..1.4).contains(&ratio), "{n} insts vs approx {approx}");
    }

    #[test]
    fn all_threads_emit_identical_barrier_sequences() {
        let app = mgrid();
        let p = AppParams::new(4, 1, 0.02, 7);
        let mut streams = build_streams(&app, &p);
        let barrier_seq = |s: &mut Box<dyn InstStream + Send>| {
            let mut ids = Vec::new();
            while let Some(i) = s.next_inst() {
                if let Some(csmt_isa::SyncOp::Barrier(id)) = i.sync {
                    ids.push(id);
                }
            }
            ids
        };
        let first = barrier_seq(&mut streams[0]);
        assert!(!first.is_empty());
        for s in streams.iter_mut().skip(1) {
            assert_eq!(barrier_seq(s), first);
        }
    }

    #[test]
    fn scale_shrinks_work_proportionally() {
        let app = ocean();
        let big = app.approx_insts(1.0);
        let small = app.approx_insts(0.1);
        let ratio = big as f64 / small as f64;
        assert!((8.0..12.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn apps_are_figure_sized() {
        // Keep full-scale runs in the low hundreds of thousands of
        // instructions so a whole figure sweeps in seconds.
        for app in all_apps() {
            let insts = app.approx_insts(1.0);
            assert!(
                (50_000..2_000_000).contains(&insts),
                "{}: {insts}",
                app.name
            );
        }
    }
}
