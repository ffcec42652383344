//! The μSuite-rs benchmark: four service workloads, four gated end-to-end
//! metrics, a per-layer cost ledger and a replay trace. README.md has the
//! method; `main.rs` is the command line.

pub mod alloc;
pub mod compare;
pub mod host;
pub mod json;
pub mod ledger;
pub mod loadgen;
pub mod metrics;
pub mod reference;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// Every binary that links the benchmark counts its allocator calls:
/// `sat_allocs_per_req` and `rpc.echo_allocs` read this counter.
#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
