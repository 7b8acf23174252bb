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
    ("FA8", 6058, 22160, 0x0d891347a8914ae8, 0x97a5aa16fd3f51fa),
    ("FA4", 5340, 22160, 0xa6c7284c45fae13a, 0xc9636231898ad87f),
    ("FA2", 6149, 22160, 0x4c99a2de9ddf9f43, 0x11cfddd9ae1d827d),
    ("FA1", 8665, 22160, 0x144a8c1fa702cfc3, 0xf306d077816029ff),
    ("SMT4", 4888, 22160, 0x825206c50b75ecef, 0x89a9fea57fa2a324),
    ("SMT2", 4875, 22160, 0xc6eb617c0c8ad226, 0x0d08b57d9acc3f0b),
    ("SMT1", 5195, 22160, 0xd9530d8cd531ffe1, 0x4077aba5fbf8a533),
];

/// (cycles, committed, run-result digest, event-stream digest) for the
/// high-end 4-chip FA4 machine — the configuration with the longest
/// stalls (remote misses stretch every one).
pub const EXPECTED_FA4_4CHIP: (u64, u64, u64, u64) =
    (3293, 22160, 0xe72e0421d0136629, 0xd9c696c3649d8468);
