//! `musuite-check`: a from-scratch deterministic concurrency model
//! checker for the μSuite RPC core.
//!
//! The paper's mid-tier architecture (Fig. 8) is hand-rolled threaded
//! machinery — network pollers feeding a dispatch queue, a worker pool
//! parked on a condition variable, response pick-up threads racing a
//! deadline reaper for in-flight table entries. Lost wakeups,
//! double-completions, and shutdown races in exactly this kind of code
//! are schedule-dependent: they survive stress tests and surface in
//! production. This crate makes them *enumerable* instead, in the spirit
//! of loom-style exhaustive interleaving exploration, built from scratch
//! (no model-checking dependency is vendored).
//!
//! # Two build modes
//!
//! * **Normal builds** (no extra cfg): [`sync::Mutex`],
//!   [`sync::Condvar`], [`sync::RwLock`], [`atomic`] types, and
//!   [`thread::spawn`] are `#[inline]` passthroughs over `parking_lot`
//!   and `std` — zero overhead, no behavioral change. The whole workspace
//!   uses these shims in place of the raw primitives.
//! * **`RUSTFLAGS='--cfg musuite_check'`**: the same types route every
//!   acquire, release, wait, notify, non-relaxed atomic access, spawn,
//!   and join through a cooperative scheduler (`Checker`) that runs
//!   model threads one at a time and explores interleavings by DFS over
//!   schedule prefixes with a bounded preemption budget.
//!
//! # What the checker finds
//!
//! * **Assertion failures** in any explored interleaving (panics in model
//!   threads become failures with a schedule attached);
//! * **Deadlocks** — no live thread can make progress;
//! * **Lost wakeups** — a condvar waiter that no remaining thread will
//!   ever notify (a special case of deadlock, called out in the report);
//! * **Livelocks** — schedules exceeding the depth cap (unbounded spins).
//!
//! Every failure carries a **seed**: the dot-separated choice sequence of
//! the failing schedule. `MUSUITE_CHECK_SEED=<seed>` (or
//! `Checker::replay`) deterministically reruns that interleaving.
//!
//! # Running the model-check suite
//!
//! ```text
//! RUSTFLAGS='--cfg musuite_check' cargo test -p musuite-check -p musuite-rpc
//! ```
//!
//! # Example
//!
//! ```
//! use musuite_check::sync::Mutex;
//!
//! // In a normal build this is parking_lot; under the check cfg inside a
//! // model run, every lock/unlock is a preemption point.
//! let m = Mutex::new(1);
//! assert_eq!(*m.lock(), 1);
//! ```

pub mod atomic;
pub mod sync;
pub mod thread;

#[cfg(musuite_check)]
mod explore;
#[cfg(musuite_check)]
mod sched;

#[cfg(musuite_check)]
pub use explore::{decode_seed, model, Checker, Failure, Report};

/// `true` when this build was compiled with `--cfg musuite_check` and the
/// shims carry model-checking instrumentation. Lets test harnesses assert
/// they are running the mode they think they are.
pub const fn instrumented() -> bool {
    cfg!(musuite_check)
}
