//! Deterministic, seeded fault injection for the RPC transport.
//!
//! Chaos experiments need faults that are *replayable*: a failing run must
//! be reproducible from a printed seed, the same discipline `musuite_check`
//! applies to thread schedules. A [`FaultPlan`] is built once per
//! experiment from a seed and a set of per-leaf rules. A fault is what a
//! connection does to a frame: a client with a plan attached hands every
//! request frame it sends to `ClientFaults::write`, which writes it as
//! the plan decides — intact, late, never, corrupted (caught by the codec
//! checksum at the receiver), or not at all because the connection is
//! cut. Connect-refusal is decided at connect. All of it lives here; the
//! client's send path holds one `Option` check.
//!
//! What follows from faults acting on frames:
//!
//! * A delayed frame is serialized when it is sent, so it carries the
//!   deadline budget it was encoded with, as a frame delayed in the
//!   network would. The plan's own timer writes it when due, even if its
//!   call has timed out by then (the reply then finds no entry); a
//!   connection that broke in the meantime refuses it.
//! * A disconnect cuts the connection ([`ConnWriter`]'s failed-flush
//!   path), and the connection's close path fails every call in flight on
//!   it with `ConnectionClosed`, the one that drew the fault included.
//! * The per-leaf call index counts frames offered on a connection not yet
//!   seen closed: every request is one frame and one decision, inside a
//!   [`burst`](crate::burst) too.
//!
//! [`ConnWriter`]: crate::buf::ConnWriter
//!
//! Every injection decision is a pure function of `(seed, leaf, call
//! index)` — no wall-clock or thread-identity input — so two plans built
//! from the same seed and driven through the same per-leaf call sequence
//! produce byte-for-byte identical decision logs ([`FaultPlan::events`]).
//! Tests replay a failure by reusing its seed and asserting log equality.
//!
//! The plan starts **disarmed**: clients connect and run normally until
//! [`FaultPlan::arm`] flips one atomic. Disarmed cost on the send path is
//! a single `Acquire` load; a client with no plan attached pays only an
//! `Option` check, keeping the production path at zero overhead.

use crate::buf::SharedWriter;
use crate::timer::{Fate, Timer};
use bytes::{Bytes, BytesMut};
use musuite_check::atomic::{AtomicBool, AtomicU64, Ordering};
use musuite_check::sync::Mutex;
use musuite_codec::frame::FrameHeader;
use std::sync::Arc;
use std::time::{Duration, Instant};
use std::{fmt, io};

/// What a connection does to one outbound frame (or connect attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Hold the frame back for the given duration, then send it.
    Delay(Duration),
    /// Swallow the frame: its calls are registered in flight but never
    /// sent, so only a deadline can complete them — a silently wedged leaf.
    Stall,
    /// Cut the connection instead of sending; in-flight calls fail with
    /// `ConnectionClosed`.
    Disconnect,
    /// Send the frame with one payload bit flipped after the checksum was
    /// computed; the receiver detects the mismatch and drops the
    /// connection, so corrupted data is never delivered as a response.
    Corrupt,
    /// Refuse a connection attempt (reconnects to a dead leaf).
    ConnectRefused,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Delay(d) => write!(f, "delay({d:?})"),
            FaultKind::Stall => f.write_str("stall"),
            FaultKind::Disconnect => f.write_str("disconnect"),
            FaultKind::Corrupt => f.write_str("corrupt"),
            FaultKind::ConnectRefused => f.write_str("connect-refused"),
        }
    }
}

/// One injection decision, recorded in the plan's replay log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Leaf the faulted request targeted.
    pub leaf: usize,
    /// Per-leaf call index (send faults) or connect-attempt index
    /// (connect faults) at which the fault fired.
    pub call: u64,
    /// The injected fault.
    pub kind: FaultKind,
}

/// A per-leaf injection rule, matched against the leaf's call index.
///
/// A rule fires for call index `n` when `n` lies in `[from, until]`,
/// `(n - from)` is a multiple of `every`, and the seeded probability gate
/// passes. Rules are evaluated in insertion order; the first match wins.
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// The fault to inject when the rule matches.
    pub kind: FaultKind,
    /// First affected call index (0-based).
    pub from: u64,
    /// Last affected call index, inclusive (`u64::MAX` = forever).
    pub until: u64,
    /// Stride within the window; 1 = every call.
    pub every: u64,
    /// Probability in `[0, 1]` that a matching index actually fires,
    /// derived deterministically from the plan seed. 1.0 = always.
    pub probability: f64,
}

impl FaultRule {
    /// A rule that fires on every call, forever.
    pub fn always(kind: FaultKind) -> FaultRule {
        FaultRule { kind, from: 0, until: u64::MAX, every: 1, probability: 1.0 }
    }

    /// A rule that fires on every `every`-th call, forever.
    pub fn periodic(kind: FaultKind, every: u64) -> FaultRule {
        FaultRule { kind, from: 0, until: u64::MAX, every: every.max(1), probability: 1.0 }
    }

    fn matches(&self, seed: u64, leaf: usize, call: u64, rule_index: usize) -> bool {
        if call < self.from || call > self.until {
            return false;
        }
        if !(call - self.from).is_multiple_of(self.every) {
            return false;
        }
        if self.probability >= 1.0 {
            return true;
        }
        if self.probability <= 0.0 {
            return false;
        }
        // Deterministic gate: a hash of (seed, leaf, call, rule) mapped to
        // [0, 1). No RNG state, so concurrency cannot perturb replay.
        let h = splitmix64(
            seed ^ (leaf as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ call.wrapping_mul(0xD1B54A32D192ED03)
                ^ (rule_index as u64).wrapping_mul(0x2545F4914F6CDD1D),
        );
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.probability
    }
}

/// SplitMix64: the standard 64-bit finalizer-style mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

struct LeafFaultState {
    rules: Vec<FaultRule>,
    refuse_connects: bool,
    calls: AtomicU64,
    connects: AtomicU64,
}

/// A seeded, replayable schedule of transport faults (see module docs).
pub struct FaultPlan {
    seed: u64,
    armed: AtomicBool,
    leaves: Vec<LeafFaultState>,
    log: Mutex<Vec<FaultEvent>>,
    /// Frames held back by a [`FaultKind::Delay`], each with the connection
    /// it is written to when due.
    delayed: Timer<(SharedWriter, Bytes)>,
}

impl FaultPlan {
    /// Starts building a plan for `leaves` leaf endpoints from `seed`.
    pub fn builder(seed: u64, leaves: usize) -> FaultPlanBuilder {
        FaultPlanBuilder { seed, leaves: (0..leaves).map(|_| (Vec::new(), false)).collect() }
    }

    /// The seed this plan was built from; print it so a failing chaos run
    /// can be replayed exactly.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Starts injecting faults. Call after the cluster has connected so
    /// topology setup is fault-free.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Stops injecting faults (the decision log is kept).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Whether the plan is currently injecting.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Number of leaves the plan covers.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Returns `true` if the plan covers no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// A per-leaf view handed to that leaf's [`RpcClient`]s.
    ///
    /// [`RpcClient`]: crate::client::RpcClient
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of bounds.
    pub fn client_faults(self: &Arc<Self>, leaf: usize) -> ClientFaults {
        assert!(leaf < self.leaves.len(), "leaf index {leaf} out of bounds");
        ClientFaults { plan: self.clone(), leaf }
    }

    /// The ordered decision log: every fault injected so far. Two plans
    /// with the same seed and rules, driven through the same per-leaf call
    /// sequence, produce identical logs — the replay fingerprint.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut events = self.log.lock().clone();
        // Concurrent senders may append out of (leaf, call) order; the
        // canonical fingerprint is order-independent.
        events.sort_by_key(|e| (e.leaf, e.call));
        events
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.log.lock().len() as u64
    }

    /// Faults of `kind` injected so far (delay matches any duration).
    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        let kind = std::mem::discriminant(&kind);
        self.log.lock().iter().filter(|e| std::mem::discriminant(&e.kind) == kind).count() as u64
    }

    fn record(&self, leaf: usize, call: u64, kind: FaultKind) {
        self.log.lock().push(FaultEvent { leaf, call, kind });
    }

    /// Decides the fault (if any) for the next request to `leaf`. The
    /// per-leaf call counter advances only while armed, so indices are
    /// stable relative to the moment of arming.
    fn next_send_fault(&self, leaf: usize) -> Option<FaultKind> {
        if !self.is_armed() {
            return None;
        }
        let state = &self.leaves[leaf];
        let call = state.calls.fetch_add(1, Ordering::Relaxed);
        for (i, rule) in state.rules.iter().enumerate() {
            if rule.matches(self.seed, leaf, call, i) {
                self.record(leaf, call, rule.kind);
                return Some(rule.kind);
            }
        }
        None
    }

    /// Decides whether a connect attempt to `leaf` is refused.
    fn refuse_connect(&self, leaf: usize) -> bool {
        if !self.is_armed() || !self.leaves[leaf].refuse_connects {
            return false;
        }
        let attempt = self.leaves[leaf].connects.fetch_add(1, Ordering::Relaxed);
        self.record(leaf, attempt, FaultKind::ConnectRefused);
        true
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("armed", &self.is_armed())
            .field("leaves", &self.leaves.len())
            .field("injected", &self.injected())
            .finish()
    }
}

/// Builder for [`FaultPlan`]; scenario helpers compose freely.
pub struct FaultPlanBuilder {
    seed: u64,
    leaves: Vec<(Vec<FaultRule>, bool)>,
}

impl FaultPlanBuilder {
    /// Adds an explicit rule for `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of bounds.
    pub fn rule(mut self, leaf: usize, rule: FaultRule) -> FaultPlanBuilder {
        self.leaves[leaf].0.push(rule);
        self
    }

    /// Refuses every (re)connect attempt to `leaf` while armed.
    pub fn refuse_connects(mut self, leaf: usize) -> FaultPlanBuilder {
        self.leaves[leaf].1 = true;
        self
    }

    /// Scenario: `leaf` is dead — every request tears the connection down
    /// and every reconnect attempt is refused.
    pub fn dead_leaf(self, leaf: usize) -> FaultPlanBuilder {
        self.rule(leaf, FaultRule::always(FaultKind::Disconnect)).refuse_connects(leaf)
    }

    /// Scenario: `leaf` is slow — every request is delayed by `delay`.
    pub fn slow_leaf(self, leaf: usize, delay: Duration) -> FaultPlanBuilder {
        self.rule(leaf, FaultRule::always(FaultKind::Delay(delay)))
    }

    /// Scenario: `leaf` flaps — every `period`-th request tears the
    /// connection down, but reconnects succeed.
    pub fn flapping_leaf(self, leaf: usize, period: u64) -> FaultPlanBuilder {
        self.rule(leaf, FaultRule::periodic(FaultKind::Disconnect, period))
    }

    /// Scenario: `leaf` corrupts every `every`-th request frame on the
    /// wire; the receiving server's checksum rejects it.
    pub fn corrupting_leaf(self, leaf: usize, every: u64) -> FaultPlanBuilder {
        self.rule(leaf, FaultRule::periodic(FaultKind::Corrupt, every))
    }

    /// Finalizes the plan (disarmed; call [`FaultPlan::arm`] once the
    /// cluster is connected).
    pub fn build(self) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            seed: self.seed,
            armed: AtomicBool::new(false),
            leaves: self
                .leaves
                .into_iter()
                .map(|(rules, refuse_connects)| LeafFaultState {
                    rules,
                    refuse_connects,
                    calls: AtomicU64::new(0),
                    connects: AtomicU64::new(0),
                })
                .collect(),
            log: Mutex::new(Vec::new()),
            delayed: Timer::new("musuite-fault-delay", release),
        })
    }
}

/// Writes a delayed frame once it is due; a connection that broke in the
/// meantime refuses it.
fn release((writer, frame): (SharedWriter, Bytes), fate: Fate) {
    if fate == Fate::Due {
        let _ = writer.write_frame(&frame);
    }
}

/// One leaf's view of a [`FaultPlan`], carried by that leaf's clients.
#[derive(Clone)]
pub struct ClientFaults {
    plan: Arc<FaultPlan>,
    leaf: usize,
}

impl ClientFaults {
    /// The leaf index this view injects for.
    pub fn leaf(&self) -> usize {
        self.leaf
    }

    pub(crate) fn next_send_fault(&self) -> Option<FaultKind> {
        self.plan.next_send_fault(self.leaf)
    }

    pub(crate) fn refuse_connect(&self) -> bool {
        self.plan.refuse_connect(self.leaf)
    }

    /// Writes one frame a client sends on `writer`, its payload appended
    /// by `body`, as the plan decides for the leaf's next call index:
    /// intact, corrupted, never, late (held by the plan's timer), or not
    /// at all because the connection is cut (see the module docs).
    ///
    /// # Errors
    ///
    /// As [`ConnWriter::write_with`](crate::buf::ConnWriter::write_with)
    /// for the frames written now; a delayed frame's later write reports
    /// nothing.
    pub(crate) fn write(
        &self,
        writer: &SharedWriter,
        header: &FrameHeader,
        body: impl FnOnce(&mut BytesMut),
    ) -> io::Result<()> {
        let serialized = |body| -> io::Result<BytesMut> {
            let mut frame = BytesMut::new();
            header.encode_in_place(&mut frame, body)?;
            Ok(frame)
        };
        match self.next_send_fault() {
            None | Some(FaultKind::ConnectRefused) => writer.write_with(header, body),
            Some(FaultKind::Corrupt) => {
                // After the checksum: the receiver must reject the frame.
                let mut frame = serialized(body)?;
                let last = frame.len() - 1;
                frame[last] ^= 0x40;
                writer.write_frame(&frame)
            }
            Some(FaultKind::Stall) => Ok(()),
            Some(FaultKind::Disconnect) => {
                writer.cut();
                Ok(())
            }
            Some(FaultKind::Delay(delay)) => {
                let frame = serialized(body)?.freeze();
                self.plan.delayed.schedule(Instant::now() + delay, (writer.clone(), frame));
                Ok(())
            }
        }
    }
}

impl fmt::Debug for ClientFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientFaults").field("leaf", &self.leaf).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(plan: &Arc<FaultPlan>, leaf: usize, calls: u64) -> Vec<Option<FaultKind>> {
        (0..calls).map(|_| plan.next_send_fault(leaf)).collect()
    }

    #[test]
    fn disarmed_plan_injects_nothing() {
        let plan = FaultPlan::builder(1, 2).dead_leaf(0).build();
        assert_eq!(drive(&plan, 0, 10), vec![None; 10]);
        assert_eq!(plan.injected(), 0);
        assert!(!plan.refuse_connect(0));
    }

    #[test]
    fn dead_leaf_disconnects_and_refuses() {
        let plan = FaultPlan::builder(2, 3).dead_leaf(1).build();
        plan.arm();
        assert_eq!(drive(&plan, 1, 3), vec![Some(FaultKind::Disconnect); 3]);
        assert_eq!(drive(&plan, 0, 3), vec![None; 3], "other leaves unaffected");
        assert!(plan.refuse_connect(1));
        assert!(!plan.refuse_connect(0));
        assert_eq!(plan.injected_of(FaultKind::Disconnect), 3);
        assert_eq!(plan.injected_of(FaultKind::ConnectRefused), 1);
    }

    #[test]
    fn periodic_rule_strides() {
        let plan = FaultPlan::builder(3, 1).flapping_leaf(0, 3).build();
        plan.arm();
        let hits = drive(&plan, 0, 9);
        assert_eq!(
            hits,
            vec![
                Some(FaultKind::Disconnect),
                None,
                None,
                Some(FaultKind::Disconnect),
                None,
                None,
                Some(FaultKind::Disconnect),
                None,
                None,
            ]
        );
    }

    #[test]
    fn windowed_rule_respects_bounds() {
        let rule =
            FaultRule { kind: FaultKind::Stall, from: 2, until: 4, every: 1, probability: 1.0 };
        let plan = FaultPlan::builder(0, 1).rule(0, rule).build();
        plan.arm();
        let hits = drive(&plan, 0, 6);
        assert_eq!(hits[0], None);
        assert_eq!(hits[1], None);
        assert_eq!(hits[2], Some(FaultKind::Stall));
        assert_eq!(hits[4], Some(FaultKind::Stall));
        assert_eq!(hits[5], None);
    }

    #[test]
    fn same_seed_same_decision_log() {
        let build = || {
            let plan = FaultPlan::builder(0xC0FFEE, 2)
                .rule(
                    0,
                    FaultRule {
                        kind: FaultKind::Corrupt,
                        from: 0,
                        until: u64::MAX,
                        every: 1,
                        probability: 0.5,
                    },
                )
                .build();
            plan.arm();
            drive(&plan, 0, 200);
            plan
        };
        let a = build();
        let b = build();
        assert_eq!(a.events(), b.events(), "same seed must replay byte-for-byte");
        let fired = a.injected();
        assert!(fired > 40 && fired < 160, "p=0.5 over 200 calls, got {fired}");
    }

    #[test]
    fn different_seeds_diverge() {
        let build = |seed| {
            let plan = FaultPlan::builder(seed, 1)
                .rule(
                    0,
                    FaultRule {
                        kind: FaultKind::Stall,
                        from: 0,
                        until: u64::MAX,
                        every: 1,
                        probability: 0.5,
                    },
                )
                .build();
            plan.arm();
            drive(&plan, 0, 64)
        };
        assert_ne!(build(1), build(2), "seeds must actually steer decisions");
    }

    #[test]
    fn arming_window_controls_indices() {
        let plan = FaultPlan::builder(7, 1).flapping_leaf(0, 2).build();
        // Calls before arming do not advance the index.
        assert_eq!(drive(&plan, 0, 5), vec![None; 5]);
        plan.arm();
        assert_eq!(plan.next_send_fault(0), Some(FaultKind::Disconnect), "index 0 fires");
        plan.disarm();
        assert_eq!(plan.next_send_fault(0), None);
    }

    #[test]
    fn client_faults_view_routes_to_its_leaf() {
        let plan = FaultPlan::builder(9, 2).dead_leaf(0).build();
        plan.arm();
        let sick = plan.client_faults(0);
        let healthy = plan.client_faults(1);
        assert_eq!(sick.leaf(), 0);
        assert_eq!(sick.next_send_fault(), Some(FaultKind::Disconnect));
        assert_eq!(healthy.next_send_fault(), None);
        assert!(format!("{sick:?}").contains("leaf"));
        assert!(format!("{plan:?}").contains("seed"));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn client_faults_bounds_checked() {
        let plan = FaultPlan::builder(0, 1).build();
        let _ = plan.client_faults(5);
    }
}
