//! Placeholder: the `csmt-audit` analyzer is gone (DESIGN.md §14 — the
//! determinism contract is clippy configuration now). The empty package
//! stays only because the frozen `benchmark/Cargo.lock` names it; ROADMAP
//! item 1 deletes it.
