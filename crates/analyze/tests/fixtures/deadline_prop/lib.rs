//! Fixture: deadline propagation — a public entry point that accepts a
//! budget must thread it (or a value derived from it) into each nested
//! RPC-shaped call.

pub struct Midtier;

impl Midtier {
    pub fn handle(&self, payload: &[u8], opts: CallOptions) -> u64 {
        let remaining = budget_from(opts.timeout);
        self.call_leaf(payload, remaining);
        self.scatter_all(payload)
    }

    pub fn fire_and_forget(&self, payload: &[u8], timeout: u64) {
        let _ = timeout;
        self.call_background(payload); // lint: allow(deadline): intentionally unbounded
    }

    fn call_leaf(&self, _p: &[u8], _budget: u64) {}

    fn call_background(&self, _p: &[u8]) {}

    fn scatter_all(&self, _p: &[u8]) -> u64 {
        0
    }
}

fn budget_from(deadline: u64) -> u64 {
    deadline
}

/// Budget forwarding through the wire header: `remaining_budget()`,
/// `budget_for(..)`, and `with_budget(..)` carry the caller's deadline
/// onto the frame, so values derived from them satisfy the rule even
/// though the deadline parameter's name never reappears.
pub struct WireMid {
    ctx: Ctx,
}

impl WireMid {
    pub fn relay(&self, payload: &[u8], opts: &CallOptions) {
        let _ = opts;
        let remaining = self.ctx.remaining_budget();
        self.call_leaf(payload, remaining);
        self.scatter_direct(payload, self.ctx.remaining_budget());
        self.scatter_all(payload);
    }

    pub fn relay_header(&self, payload: &[u8], timeout: u64) {
        let _ = timeout;
        let framed = encode(payload).with_budget(shed_class());
        self.call_send(framed);
    }

    fn call_leaf(&self, _p: &[u8], _budget: u32) {}

    fn scatter_direct(&self, _p: &[u8], _budget: u32) {}

    fn scatter_all(&self, _p: &[u8]) {}

    fn call_send(&self, _f: u64) {}
}

pub struct Ctx;

impl Ctx {
    fn remaining_budget(&self) -> u32 {
        10
    }
}

fn encode(_p: &[u8]) -> u64 {
    0
}

fn shed_class() -> u32 {
    1
}

/// Batch-path budget forwarding: a batch drained via `pop_batch(..)`
/// arrives with every member's budget intact, so handing it on through
/// `handle_batch(..)` or the merged-scatter `issue(..)` entry point is
/// bounded. The same handoffs fed with freshly built members are not.
pub struct BatchMid;

impl BatchMid {
    pub fn drain(&self, payload: &[u8], call: rpc::CallOptions) {
        let _ = call;
        let members = self.pop_batch(payload.len());
        self.handle_batch(members);
        self.issue(payload, fresh_members());
    }

    pub fn merge(&self, payload: &[u8], opts: CallOptions) {
        let remaining = budget_from(opts.timeout);
        self.issue(payload, remaining);
        self.handle_batch(fresh_members());
    }

    fn pop_batch(&self, _limit: usize) -> u64 {
        0
    }

    fn handle_batch(&self, _members: u64) {}

    fn issue(&self, _p: &[u8], _members: u64) {}
}

fn fresh_members() -> u64 {
    0
}

/// The RPC surface's per-call options; `timeout` is the budget. Entry
/// points above take it by value, by reference and path-qualified, and
/// two keep the older `timeout: u64` spelling: the rule sees all four.
pub struct CallOptions {
    pub timeout: u64,
}

mod rpc {
    pub use super::CallOptions;
}
