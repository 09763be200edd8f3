//! Chained symbolic reachability to a fixpoint.
//!
//! `Reached₀ = Frontier₀ = Init`. Each iteration walks the disjunctive
//! partitions in their fixed order — every environment delivery, then
//! every machine reaction — and *chains* them (Roig/Cortadella/Pastor
//! 1995): partition *j* images `From = Frontier ∪ Found`, where `Found`
//! holds the states partitions *0..j* discovered earlier in this same
//! iteration. Each step's `Raw = Image(step, From) ∖ Reached` joins
//! `Reached`, `From` and `Found` at once, so a state one machine produces
//! is consumed by the next machine without waiting a whole iteration.
//! GALS composition is pure interleaving, so an event that plain BFS
//! needs one iteration per hop to ripple down a pipeline crosses every
//! stage the partition order visits downstream of it in one iteration.
//! The iteration ends when the last partition has run; the fixpoint is
//! the first iteration that finds nothing.
//!
//! Chained reached sets contain the breadth-first ones after every
//! iteration: by the end of iteration *i* every state reached before it
//! has been imaged by every partition, so every state within *i* steps
//! of `Init` is reached. Chaining therefore never needs more iterations
//! than BFS, and the final reachable set is the same.
//!
//! Each image applies the early-quantification schedule pre-computed in
//! the step (tests right after `χ`, actions right after the buffer
//! updates, the consumed current-state block last) as fused relational
//! products ([`Bdd::and_exists`]): the conjunct of the frontier with a
//! relation part is quantified on the fly and never materialized.
//!
//! Two further reductions keep the working set small:
//!
//! * the frontier handed to the next iteration is `Found` minimized
//!   against the iteration-start reached set with [`Bdd::constrain`].
//!   Every state of that don't-care space has already been imaged by
//!   every partition, and its images lie inside `Reached`, so the
//!   generalized cofactor picks a smaller representative without
//!   changing any step's new-state set;
//! * when live nodes outgrow [`VerifyOptions::reorder_threshold`], the
//!   manager is sifted between iterations under the model's group
//!   constraints (flag cur/next rails and ctrl cur+next blocks stay
//!   contiguous).
//!
//! The arena is bounded by [`VerifyOptions::node_budget`]: after every
//! image the allocation level is checked, dead nodes are reclaimed
//! against the persistent roots, and if the live set alone exceeds the
//! budget the traversal aborts with
//! [`VerifyError::NodeBudgetExceeded`] instead of growing without bound.

use crate::model::{EnvStep, NetworkModel, ReactStep};
use crate::trace::TraceRings;
use crate::{VerifyError, VerifyOptions, VerifyStats};
use polis_bdd::{Bdd, NodeRef};

/// One environment-delivery image: quantify the consumer flags, then set
/// them with the same precomputed cube. Pure current-variable
/// substitution — no renaming needed.
fn env_image(bdd: &mut Bdd, step: &EnvStep, from: NodeRef) -> NodeRef {
    let a = bdd.exists_cube(from, step.cube);
    bdd.and(a, step.cube)
}

/// One machine-reaction image as a chain of two relational products
/// following the early-quantification schedule: tests fall right after
/// `χ`, actions and the consumed current-state block with the fused
/// `update_clear` part, then the next-state rail renamed back onto the
/// current one. (Renaming once per iteration after the union was tried
/// and discarded: the mixed-rail intermediate unions blow up.)
fn react_image(bdd: &mut Bdd, step: &ReactStep, from: NodeRef) -> NodeRef {
    let a = bdd.and_exists(from, step.chi_fire, step.tests_cube);
    let a = bdd.and_exists(a, step.update_clear, step.acts_cur_cube);
    bdd.rename(a, &step.rename)
}

/// Image of `from` under partition `p` of the traversal order (see
/// [`NetworkModel::partitions`]).
pub(crate) fn image(model: &mut NetworkModel, p: usize, from: NodeRef) -> NodeRef {
    match p.checked_sub(model.env_steps.len()) {
        None => env_image(&mut model.bdd, &model.env_steps[p], from),
        Some(mi) => react_image(&mut model.bdd, &model.react_steps[mi], from),
    }
}

/// Collections never fire while the arena is below this level, so small
/// and mid-size models keep their op caches warm for the whole traversal
/// (every seed example and the relay chains up to width 8 stay under it).
const GC_FLOOR: usize = 1 << 18;

/// After a collection the next one is armed at `GC_REGROW ×` the live
/// size (but never below [`GC_FLOOR`]), so a traversal whose live set
/// genuinely approaches the trigger does not thrash collections that
/// can reclaim almost nothing.
const GC_REGROW: usize = 4;

/// Reclaims dead nodes and errors out if the live set still exceeds the
/// budget. `persistent` are the model's fixed roots (relation, init,
/// cubes, enabling conditions); `live` are the traversal's working roots.
///
/// Besides the hard budget, a garbage-pressure policy bounds the peak
/// arena: once allocation crosses the current trigger ([`GC_FLOOR`] to
/// start, re-armed by [`GC_REGROW`] after each collection), the dead
/// majority is collected immediately instead of lingering until the
/// budget (or the reorder threshold) is hit. Collection never changes any
/// function a handle denotes, so reached sets and verdicts are untouched.
///
/// `rings` are the stored trace onion (shed first when the live set alone
/// busts the budget — traces degrade before the traversal aborts).
fn enforce_budget(
    bdd: &mut Bdd,
    opts: &VerifyOptions,
    stats: &mut VerifyStats,
    gc_trigger: &mut usize,
    persistent: &[NodeRef],
    live: &[NodeRef],
    rings: &mut Option<TraceRings>,
) -> Result<(), VerifyError> {
    let allocated = bdd.allocated_nodes();
    if allocated <= *gc_trigger && allocated <= opts.node_budget {
        return Ok(());
    }
    let mut roots = persistent.to_vec();
    roots.extend_from_slice(live);
    if let Some(r) = rings {
        roots.extend_from_slice(r.roots());
    }
    bdd.gc(&roots);
    stats.mid_reach_collections += 1;
    let mut live_now = bdd.allocated_nodes();
    if live_now > opts.node_budget && rings.is_some() {
        // Graceful degradation: the onion rings are diagnostic-only
        // state, so shed them (later property checks fall back to
        // cube-only witnesses) before giving up on the traversal.
        *rings = None;
        let mut roots = persistent.to_vec();
        roots.extend_from_slice(live);
        bdd.gc(&roots);
        stats.mid_reach_collections += 1;
        live_now = bdd.allocated_nodes();
    }
    if live_now > opts.node_budget {
        return Err(VerifyError::NodeBudgetExceeded {
            budget: opts.node_budget,
            allocated: live_now,
            image_steps: stats.image_steps,
        });
    }
    *gc_trigger = (live_now * GC_REGROW).max(GC_FLOOR);
    Ok(())
}

/// Runs the chained traversal to a fixpoint, filling `stats`, and returns
/// the reachable set over the model's current-state variables plus —
/// when [`VerifyOptions::trace_rings`] is on — the onion rings the trace
/// walker consumes: one ring per image step that found new states.
/// Ring storage never changes the reached sets, iteration counts, or
/// verdicts: rings are the `raw` new-state sets the loop computes anyway,
/// merely kept as extra GC/sift roots.
pub(crate) fn fixpoint(
    model: &mut NetworkModel,
    opts: &VerifyOptions,
    stats: &mut VerifyStats,
) -> Result<(NodeRef, Option<TraceRings>), VerifyError> {
    // The partitioned relation never changes during traversal; snapshot
    // its roots once so every reclamation keeps the step BDDs alive.
    let persistent = model.persistent_roots();
    let sift_cfg = model.sift_config();
    let base = model.bdd.stats();
    let mut reached = model.init;
    let mut frontier = model.init;
    let mut rings = opts.trace_rings.then(|| TraceRings {
        rings: vec![model.init],
        complete: true,
    });
    // Re-armed after every sift: the next reorder fires only once the
    // arena doubles past the post-sift level, so a traversal that simply
    // *stays* large after one reorder does not sift again on every
    // iteration.
    let mut next_reorder = opts.reorder_threshold;
    let mut gc_trigger = GC_FLOOR;
    while !frontier.is_false() {
        stats.iterations += 1;
        let start = reached;
        let mut from = frontier;
        let mut found = NodeRef::FALSE;
        for p in 0..model.partitions() {
            let img = image(model, p, from);
            stats.image_steps += 1;
            let raw = model.bdd.and_not(img, reached);
            if !raw.is_false() {
                reached = model.bdd.or(reached, raw);
                from = model.bdd.or(from, raw);
                found = model.bdd.or(found, raw);
                if let Some(r) = &mut rings {
                    // `raw` is exactly the states this step reached first;
                    // `from` lies inside the earlier rings, so each ring
                    // has its predecessors strictly below it. Past the cap
                    // the prefix stays valid (the walker just cannot serve
                    // targets beyond it).
                    if r.rings.len() < opts.max_trace_rings {
                        r.rings.push(raw);
                    } else {
                        r.complete = false;
                    }
                }
            }
            enforce_budget(
                &mut model.bdd,
                opts,
                stats,
                &mut gc_trigger,
                &persistent,
                &[reached, from, found, start],
                &mut rings,
            )?;
        }
        // Every state of `start` has now been imaged by every partition
        // and its images lie in `reached`, so `start` is don't-care space
        // for the next frontier: constrain `found` into it.
        let unseen = model.bdd.not(start);
        frontier = model.bdd.constrain(found, unseen);
        stats.constrain_calls += 1;
        let found_size = model.bdd.size(&[found]) as u64;
        let fsize = model.bdd.size(&[frontier]) as u64;
        stats.constrain_reduced_nodes += found_size.saturating_sub(fsize);
        stats.frontier_sizes.push(fsize);
        stats.peak_frontier_nodes = stats.peak_frontier_nodes.max(fsize);
        enforce_budget(
            &mut model.bdd,
            opts,
            stats,
            &mut gc_trigger,
            &persistent,
            &[reached, frontier],
            &mut rings,
        )?;
        if model.bdd.allocated_nodes() > next_reorder {
            let mut roots = persistent.clone();
            roots.push(reached);
            roots.push(frontier);
            if let Some(r) = &rings {
                roots.extend_from_slice(r.roots());
            }
            model.bdd.sift(&roots, &sift_cfg);
            stats.mid_reach_reorders += 1;
            next_reorder = (model.bdd.allocated_nodes() * 2).max(opts.reorder_threshold);
        }
    }
    let delta = diff_stats(&base, &model.bdd.stats());
    stats.andex_lookups = delta.0;
    stats.andex_hits = delta.1;
    stats.cube_quant_calls = delta.2;
    stats.reached_nodes = model.bdd.size(&[reached]) as u64;
    stats.peak_live_nodes = model.bdd.stats().peak_live_nodes;
    stats.reached_states = count_states(model, reached);
    Ok((reached, rings))
}

/// Kernel-counter deltas attributable to this traversal:
/// `(andex_lookups, andex_hits, cube_quant_calls)`.
fn diff_stats(base: &polis_bdd::BddStats, now: &polis_bdd::BddStats) -> (u64, u64, u64) {
    (
        now.andex_lookups - base.andex_lookups,
        now.andex_hits - base.andex_hits,
        now.cube_quant_calls - base.cube_quant_calls,
    )
}

/// Number of distinct product states in `set`, counted over the model's
/// current-state variables (which contain the support of every reached
/// or frontier set).
fn count_states(model: &NetworkModel, set: NodeRef) -> Option<u128> {
    model.bdd.checked_sat_count_over(set, &model.state_vars)
}
