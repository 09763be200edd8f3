//! Data-flow analyses over s-graphs.
//!
//! The shock-absorber experiment (Section V-B) attributes most of the
//! synthesized ROM/RAM overhead to the blanket copy of "all variables used
//! by an s-graph upon entry", and announces "a data flow analysis step that
//! will allow us to detect write-before-read cases that require such
//! buffering" as future work. [`vars_needing_buffer`] is that analysis: a
//! state variable needs an entry copy only if some execution path may
//! *read* it (in a test, an emission value, or an assignment right-hand
//! side) after an assignment to it has already executed.

use crate::graph::{AssignLabel, SGraph, SNode, TestLabel};
use polis_cfsm::{Action, Cfsm};
use std::collections::{BTreeSet, HashMap, HashSet};

/// How aggressively code generators buffer state variables on reaction
/// entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferPolicy {
    /// Copy every referenced variable (the paper's implementation, whose
    /// ROM/RAM cost Section V-B discusses).
    All,
    /// Copy only variables with a write-before-read hazard (the paper's
    /// announced future-work data-flow optimization).
    Minimal,
}

/// Returns the names of state variables that must be copied on reaction
/// entry to preserve the read-pre-state semantics.
///
/// The analysis is a conservative forward data-flow pass: for each vertex
/// it accumulates the set of variables possibly written on *some* path to
/// it; any vertex reading such a variable marks it as needing a buffer.
pub fn vars_needing_buffer(cfsm: &Cfsm, g: &SGraph) -> BTreeSet<String> {
    // Reads/writes per vertex, by state-variable name.
    let test_reads =
        |test: usize| -> Vec<String> { expr_state_reads(cfsm, &cfsm.tests()[test].expr) };
    let action_rw = |action: usize| -> (Vec<String>, Option<String>) {
        match &cfsm.actions()[action] {
            Action::Emit { value, .. } => (
                value
                    .as_ref()
                    .map(|e| expr_state_reads(cfsm, e))
                    .unwrap_or_default(),
                None,
            ),
            Action::Assign { var, value } => (
                expr_state_reads(cfsm, value),
                Some(cfsm.state_vars()[*var].name.clone()),
            ),
        }
    };

    let mut written_before: HashMap<crate::NodeId, HashSet<String>> = HashMap::new();
    let mut need = BTreeSet::new();
    let order = g.topo_order();
    for &id in &order {
        let before = written_before.entry(id).or_default().clone();
        let mut after = before.clone();
        let mut reads: Vec<String> = Vec::new();
        match g.node(id) {
            SNode::Begin { .. } | SNode::End => {}
            SNode::Test { label, .. } => match label {
                TestLabel::TestExpr { test } => reads = test_reads(*test),
                TestLabel::Compound { cond } => {
                    collect_cond_tests(cond, &mut |t| reads.extend(test_reads(t)));
                }
                _ => {}
            },
            SNode::Assign { label, .. } => match label {
                AssignLabel::Action { action } => {
                    let (r, w) = action_rw(*action);
                    reads = r;
                    if let Some(w) = w {
                        after.insert(w);
                    }
                }
                AssignLabel::Computed { target, cond } => {
                    collect_cond_tests(cond, &mut |t| reads.extend(test_reads(t)));
                    if let crate::ComputedTarget::Action { action } = target {
                        let (r, w) = action_rw(*action);
                        reads.extend(r);
                        if let Some(w) = w {
                            after.insert(w);
                        }
                    }
                }
                AssignLabel::Consume | AssignLabel::NextCtrlBits { .. } => {}
            },
        }
        for r in reads {
            if before.contains(&r) {
                need.insert(r);
            }
        }
        // Propagate to successors (union over predecessors).
        for &s in g.node(id).successors() {
            written_before
                .entry(s)
                .or_default()
                .extend(after.iter().cloned());
        }
    }
    need
}

/// All state variables an s-graph can read or write (used to size the
/// local-copy frame when buffering everything, the paper's default).
pub fn vars_referenced(cfsm: &Cfsm, g: &SGraph) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for id in g.reachable() {
        match g.node(id) {
            SNode::Test {
                label: TestLabel::TestExpr { test },
                ..
            } => out.extend(expr_state_reads(cfsm, &cfsm.tests()[*test].expr)),
            SNode::Test {
                label: TestLabel::Compound { cond },
                ..
            } => collect_cond_tests(cond, &mut |t| {
                out.extend(expr_state_reads(cfsm, &cfsm.tests()[t].expr))
            }),
            SNode::Assign { label, .. } => match label {
                AssignLabel::Action { action } => collect_action_vars(cfsm, *action, &mut out),
                AssignLabel::Computed { target, cond } => {
                    collect_cond_tests(cond, &mut |t| {
                        out.extend(expr_state_reads(cfsm, &cfsm.tests()[t].expr))
                    });
                    if let crate::ComputedTarget::Action { action } = target {
                        collect_action_vars(cfsm, *action, &mut out);
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
    out
}

fn collect_action_vars(cfsm: &Cfsm, action: usize, out: &mut BTreeSet<String>) {
    match &cfsm.actions()[action] {
        Action::Emit { value, .. } => {
            if let Some(e) = value {
                out.extend(expr_state_reads(cfsm, e));
            }
        }
        Action::Assign { var, value } => {
            out.insert(cfsm.state_vars()[*var].name.clone());
            out.extend(expr_state_reads(cfsm, value));
        }
    }
}

fn expr_state_reads(cfsm: &Cfsm, e: &polis_expr::Expr) -> Vec<String> {
    e.support()
        .into_iter()
        .filter(|n| cfsm.state_var_index(n).is_some())
        .collect()
}

fn collect_cond_tests(cond: &crate::Cond, f: &mut impl FnMut(usize)) {
    use crate::Cond;
    match cond {
        Cond::Test(t) => f(*t),
        Cond::Not(a) => collect_cond_tests(a, f),
        Cond::And(a, b) | Cond::Or(a, b) => {
            collect_cond_tests(a, f);
            collect_cond_tests(b, f);
        }
        Cond::Const(_) | Cond::Present(_) | Cond::CtrlBit { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use polis_cfsm::{Cfsm, ReactiveFn};
    use polis_expr::{Expr, Type, Value};

    /// simple: both transitions assign `a`, and the test reads `a`, but the
    /// test is evaluated *before* any assignment on every path, so no
    /// buffering is needed.
    #[test]
    fn simple_needs_no_buffering() {
        let mut b = Cfsm::builder("simple");
        b.input_valued("c", Type::uint(8));
        b.output_pure("y");
        b.state_var("a", Type::uint(8), Value::Int(0));
        let s0 = b.ctrl_state("awaiting");
        let eq = b.test("a_eq_c", Expr::var("a").eq(Expr::var("c_value")));
        b.transition(s0, s0)
            .when_present("c")
            .when_test(eq)
            .assign("a", Expr::int(0))
            .emit("y")
            .done();
        b.transition(s0, s0)
            .when_present("c")
            .when_not_test(eq)
            .assign("a", Expr::var("a").add(Expr::int(1)))
            .done();
        let m = b.build().unwrap();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        assert!(vars_needing_buffer(&m, &g).is_empty());
        assert_eq!(
            vars_referenced(&m, &g),
            ["a".to_string()].into_iter().collect()
        );
    }

    /// Swap via two assignments: y := x runs after x := y on some path
    /// order, so at least one variable needs buffering.
    #[test]
    fn swap_needs_buffering() {
        let mut b = Cfsm::builder("swap");
        b.input_pure("go");
        b.state_var("x", Type::uint(8), Value::Int(1));
        b.state_var("y", Type::uint(8), Value::Int(2));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .assign("x", Expr::var("y"))
            .assign("y", Expr::var("x"))
            .done();
        let m = b.build().unwrap();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let need = vars_needing_buffer(&m, &g);
        assert!(!need.is_empty(), "swap requires at least one buffer");
    }

    /// An emission whose value reads a variable assigned earlier on the
    /// path must also trigger buffering.
    #[test]
    fn emit_after_write_needs_buffering() {
        let mut b = Cfsm::builder("ew");
        b.input_pure("go");
        b.output_valued("out", Type::uint(8));
        b.state_var("n", Type::uint(8), Value::Int(0));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .assign("n", Expr::var("n").add(Expr::int(1)))
            .emit_value("out", Expr::var("n"))
            .done();
        let m = b.build().unwrap();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        // Whether `n` needs buffering depends on the action order on the
        // path; the analysis must be conservative over the actual graph.
        let need = vars_needing_buffer(&m, &g);
        // The assignment and the emission both appear; if the assignment
        // precedes the emission in the BDD order, n must be buffered.
        let order_has_write_first = {
            let mut saw_write = false;
            let mut read_after = false;
            for id in g.topo_order() {
                if let SNode::Assign {
                    label: AssignLabel::Action { action },
                    ..
                } = g.node(id)
                {
                    match &m.actions()[*action] {
                        Action::Assign { .. } => saw_write = true,
                        Action::Emit { .. } if saw_write => read_after = true,
                        Action::Emit { .. } => {}
                    }
                }
            }
            read_after
        };
        assert_eq!(need.contains("n"), order_has_write_first);
    }
}
