//! Marker attributes read by the `musuite-analyze` static passes.
//!
//! The attributes expand to exactly their input — they exist so that
//! invariants live *in the code they protect* and survive refactors,
//! instead of in an out-of-band list inside the analyzer. The
//! blocking-call reachability pass (`musuite-analyze`, rule
//! `nonblocking`) treats every `#[nonblocking]`-marked function as a
//! root and walks the static call graph from it, failing the build if
//! any reachable call is a blocking API (`Condvar::wait`,
//! `thread::sleep`, `mpsc` `recv`, blocking `TcpStream` reads, thread
//! `join`, listener `accept`).
//!
//! Typical marks: the reactor's sweep-thread body and every
//! `ConnDriver` implementation, since those run *on* the shared
//! network pollers where one blocked thread stalls every connection in
//! the shard.
//!
//! `ConnDriver`: see `musuite_rpc::reactor::ConnDriver`.

use proc_macro::TokenStream;

/// Declares that a function (and everything it calls) must never block.
///
/// Expands to the unmodified item; the contract is enforced statically
/// by `musuite-analyze`'s reachability pass, not at runtime. Apply to
/// functions that execute on reactor sweep threads:
///
/// ```ignore
/// #[musuite_marker::nonblocking]
/// fn run_sweeper(params: SweepParams) { /* ... */ }
/// ```
#[proc_macro_attribute]
pub fn nonblocking(attr: TokenStream, item: TokenStream) -> TokenStream {
    assert!(attr.is_empty(), "#[nonblocking] takes no arguments");
    item
}

/// Declares that a function intentionally blocks the calling thread.
///
/// Documentation-grade counterpart to [`macro@nonblocking`]: the
/// analyzer treats a *direct* call to a `#[blocking]`-marked workspace
/// function from nonblocking-reachable code as a violation, even when
/// the blocking primitive is buried several layers down or behind
/// dispatch the call-graph walk cannot see.
#[proc_macro_attribute]
pub fn blocking(attr: TokenStream, item: TokenStream) -> TokenStream {
    assert!(attr.is_empty(), "#[blocking] takes no arguments");
    item
}
