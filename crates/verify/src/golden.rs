//! The pinned golden digests: what "the same behaviour" means.
//!
//! `tests/golden_determinism.rs` (root package; mgrid, scale 0.2, seed
//! `0xC5317`) requires these tables bit for bit and says how to re-capture
//! them. They live here because `csmt_sweep::key` absorbs them too: a
//! re-capture changes every cache key, so no result simulated by the old
//! behaviour can be served again.

/// Per Table 2 architecture on one chip: (arch name, cycles, committed,
/// run-result digest, event-stream digest).
pub const EXPECTED: [(&str, u64, u64, u64, u64); 7] = [
    ("FA8", 6058, 22160, 0x0d891347a8914ae8, 0x656c89d5235c2afd),
    ("FA4", 5340, 22160, 0xa6c7284c45fae13a, 0x120697d0b4231f2e),
    ("FA2", 6149, 22160, 0x4c99a2de9ddf9f43, 0xf2ebe0834ebe552f),
    ("FA1", 8665, 22160, 0x144a8c1fa702cfc3, 0xf8f180d6999a2e17),
    ("SMT4", 4888, 22160, 0x825206c50b75ecef, 0xd366a456ae9b3b7e),
    ("SMT2", 4875, 22160, 0xc6eb617c0c8ad226, 0x6eb0a38eb0955692),
    ("SMT1", 5195, 22160, 0xd9530d8cd531ffe1, 0xa912b83cb94c7ebf),
];

/// (cycles, committed, run-result digest, event-stream digest) for the
/// high-end 4-chip FA4 machine — the configuration with the longest
/// stalls (remote misses stretch every one).
pub const EXPECTED_FA4_4CHIP: (u64, u64, u64, u64) =
    (3293, 22160, 0xe72e0421d0136629, 0xa67e4cf7854176b1);
