//! The repository's performance harness: four workloads, five end-to-end
//! metrics and a per-layer time budget, all measured from outside the
//! program. See `README.md` beside this crate for the glossary.

pub mod alloc;
pub mod check;
pub mod compare;
pub mod digest;
pub mod fleet;
pub mod host;
pub mod json;
pub mod procstat;
pub mod rng;
pub mod run;
pub mod spec;
pub mod stats;
pub mod twin;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;
