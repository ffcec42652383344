//! Rule `deadline`: public RPC entry points that take a deadline or
//! timeout must thread it into their nested calls.
//!
//! A fan-out service that accepts a budget but issues unbounded nested
//! RPCs silently converts tail-latency hedging into head-of-line
//! blocking — the classic deadline-propagation bug from the μ Suite
//! midtier. For every public function with a budget parameter — one
//! typed `CallOptions` (whose `.timeout` is the budget, whatever the
//! binding is called), or one named `deadline`/`timeout` (exactly, or
//! with a `_deadline`/`_timeout` suffix) — each nested RPC-shaped call (`call`, `scatter`, `call_*`, `scatter_*`,
//! and the batch-path entry points `issue` and `handle_batch`) must
//! mention the parameter — or a value derived from it, such as
//! `opts.timeout` or a `let` bound from it — in its arguments.
//!
//! "Derived from" is a forward taint fixpoint over `let` bindings: in
//! `let remaining = deadline.saturating_duration_since(now);`,
//! `remaining` becomes as good as `deadline`. That keeps the common
//! deadline→remaining-budget conversion idiom clean without real
//! dataflow analysis.
//!
//! Wire-level budget forwarding counts too: the helpers that move a
//! deadline through the frame header — `RequestContext::
//! remaining_budget()`, the client's `budget_for(..)` conversion, and
//! the `with_budget(..)` header constructors — are taint *sources*.
//! A nested call that passes `ctx.remaining_budget()` (or a value
//! bound from one of these helpers) is threading the caller's budget
//! even though the deadline parameter's name never reappears.

use std::collections::HashSet;

use crate::calls::calls_in;
use crate::findings::{suppressed, Finding, Rule};
use crate::lex::TokKind;
use crate::parse::{FnItem, Param, SourceFile};

/// `true` for parameters that carry a time budget: by type
/// (`CallOptions`, possibly borrowed or path-qualified) or by name.
fn is_deadline_param(param: &Param) -> bool {
    let name = param.name.as_str();
    param.ty.split(' ').any(|tok| tok == "CallOptions")
        || name == "deadline"
        || name == "timeout"
        || name.ends_with("_deadline")
        || name.ends_with("_timeout")
}

/// `true` for callee names that issue a nested RPC. The batch request
/// path adds two shapes: `issue` (the merged-scatter entry point that
/// buffers a sub-call into a per-leaf envelope) and `handle_batch` (the
/// handoff of a whole batch to a leaf kernel). Both carry many requests
/// per call, so an unbounded one loses *every* member's budget at once.
fn is_rpc_call(name: &str) -> bool {
    name == "call"
        || name == "scatter"
        || name == "issue"
        || name == "handle_batch"
        || name.starts_with("call_")
        || name.starts_with("scatter_")
}

/// `true` for helper names whose result carries the caller's wire
/// budget: reading the decayed budget off a request context, converting
/// a deadline into a header budget, or stamping a budget into a frame
/// header. `pop_batch` joins them on the batch path: members drained
/// from the dispatch queue arrive with their per-member deadlines
/// intact (expired ones are dropped from the batch, not the batch from
/// the queue), so a batch bound from it is as budgeted as the deadline
/// itself. Values produced by these are as good as the deadline.
fn is_budget_source(name: &str) -> bool {
    matches!(name, "remaining_budget" | "budget_for" | "with_budget" | "pop_batch")
}

/// Runs the pass over `files`.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        for f in &file.fns {
            if f.in_test || !f.is_pub {
                continue;
            }
            let Some((s, e)) = f.body else { continue };
            let params: Vec<&str> =
                f.params.iter().filter(|p| is_deadline_param(p)).map(|p| p.name.as_str()).collect();
            if params.is_empty() {
                continue;
            }
            let tainted = taint(file, s, e, &params);
            for call in calls_in(file, s, e) {
                if !is_rpc_call(call.name()) || call.name() == f.name {
                    continue;
                }
                if call
                    .arg_idents
                    .iter()
                    .any(|a| tainted.contains(a.as_str()) || is_budget_source(a))
                {
                    continue;
                }
                if suppressed(file, call.line, Rule::Deadline) {
                    continue;
                }
                out.push(Finding {
                    rule: Rule::Deadline,
                    file: file.rel.clone(),
                    line: call.line,
                    message: format!(
                        "`{}(..)` inside `{}` does not receive the `{}` budget — nested RPCs \
                         must inherit the caller's deadline",
                        call.name(),
                        fn_display(f),
                        params.join("`/`"),
                    ),
                });
            }
        }
    }
    out
}

fn fn_display(f: &FnItem) -> String {
    match &f.self_ty {
        Some(t) => format!("{t}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Forward taint fixpoint: which identifiers carry the deadline value.
fn taint(file: &SourceFile, start: usize, end: usize, params: &[&str]) -> HashSet<String> {
    let toks = &file.tokens;
    let mut tainted: HashSet<String> = params.iter().map(|s| s.to_string()).collect();
    loop {
        let mut changed = false;
        let mut i = start;
        while i < end {
            if !toks[i].is_ident("let") {
                i += 1;
                continue;
            }
            // Pattern idents up to the top-level `=`; RHS idents up to
            // `;` (or `{` for `if let ... {`), both at paren depth 0.
            let mut j = i + 1;
            let mut pat: Vec<String> = Vec::new();
            let mut depth = 0usize;
            while j < end {
                let t = &toks[j];
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "=" if depth == 0
                        && !toks.get(j + 1).map(|n| n.is_punct('=')).unwrap_or(false) =>
                    {
                        break
                    }
                    ";" | "{" if depth == 0 => break,
                    _ => {
                        if t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref" {
                            pat.push(t.text.clone());
                        }
                    }
                }
                j += 1;
            }
            let mut rhs_tainted = false;
            if toks.get(j).map(|t| t.is_punct('=')).unwrap_or(false) {
                let mut k = j + 1;
                depth = 0;
                while k < end {
                    let t = &toks[k];
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth = depth.saturating_sub(1),
                        ";" if depth == 0 => break,
                        "{" if depth == 0 => break,
                        _ => {
                            if t.kind == TokKind::Ident
                                && (tainted.contains(&t.text) || is_budget_source(&t.text))
                            {
                                rhs_tainted = true;
                            }
                        }
                    }
                    k += 1;
                }
            }
            if rhs_tainted {
                for p in &pat {
                    if tainted.insert(p.clone()) {
                        changed = true;
                    }
                }
            }
            i = j.max(i + 1);
        }
        if !changed {
            return tainted;
        }
    }
}
