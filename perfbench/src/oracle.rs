//! The correctness oracle behind `failed`.
//!
//! Every reference here is independent of the code under test: closed
//! forms, verdicts committed in the repository (`BENCH_verify.json`,
//! `scripts/ci.sh`), the reference CFSM semantics (`Cfsm::react`, which
//! the synthesized code is compiled away from), and soundness relations
//! between layers. The judging functions take plain data so tests can
//! plant wrong answers.

use crate::inputs::Expect;
use polis::cfsm::{value_var_name, Cfsm};
use polis::core::random::Rng;
use polis::expr::{Env, MapEnv, Value};
use polis::vm::{run_reaction, CollectingHost, ObjectCode, VmMemory, VmProgram};
use std::collections::BTreeSet;

/// The verdicts of one verification, as the oracle judges them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Verdicts {
    /// Reachable state count; `None` when the program could not count.
    pub reached_states: Option<u128>,
    /// Consumers with a possible lost event.
    pub lost_consumers: BTreeSet<String>,
    /// Buffers (consumer, signal) that can lose an event.
    pub lost_possible: usize,
    /// Dead transitions found.
    pub dead_transitions: usize,
    /// Whether a deadlock was reported.
    pub deadlock: bool,
    /// Per property, in suite order: whether it holds.
    pub props: Vec<bool>,
    /// Per violated property: decoded counterexample length in steps
    /// (0 when none was decoded).
    pub trace_lens: Vec<usize>,
}

/// Committed verdicts of one example network.
struct Pinned {
    name: &'static str,
    reached_states: u128,
    lost_possible: usize,
    props: &'static [bool],
}

/// From `BENCH_verify.json` (states, lost buffers) and the property
/// verdict lines `scripts/ci.sh` gates on. No example has a dead
/// transition or a deadlock. `simple` has one state and one input, so
/// its two states are the input's buffer empty and full.
const PINNED: [Pinned; 4] = [
    Pinned {
        name: "simple",
        reached_states: 2,
        lost_possible: 1,
        props: &[true, false],
    },
    Pinned {
        name: "seat_belt",
        reached_states: 48,
        lost_possible: 4,
        props: &[true, true, false],
    },
    Pinned {
        name: "shock_absorber",
        reached_states: 6144,
        lost_possible: 10,
        props: &[true, true, false],
    },
    Pinned {
        name: "dashboard",
        reached_states: 4096,
        lost_possible: 10,
        props: &[true, true, false],
    },
];

/// Judges the verdicts of one network against what is known of it.
///
/// A relay chain of `n` stages has a two-state control per stage, an
/// `ext` buffer per stage and a `link` buffer per stage but the first,
/// and every combination is reachable: 2^(3n−1) states. Every one of its
/// 2n−1 buffers can be overwritten, nothing is dead, nothing deadlocks,
/// and its suite (see [`crate::inputs::relay_suite`]) has one holding
/// and one violated property.
///
/// # Errors
///
/// The first disagreement, described.
pub fn check_verdicts(expect: &Expect, v: &Verdicts) -> Result<(), String> {
    let (states, lost, props): (u128, usize, &[bool]) = match expect {
        Expect::Relay(n) => (1u128 << (3 * n - 1), 2 * n - 1, &[true, false]),
        Expect::Example(name) => {
            let p = PINNED
                .iter()
                .find(|p| p.name == *name)
                .ok_or_else(|| format!("no pinned verdicts for `{name}`"))?;
            (p.reached_states, p.lost_possible, p.props)
        }
    };
    match v.reached_states {
        None => return Err(format!("state count missing (expected {states})")),
        Some(got) if got != states => {
            return Err(format!("reached {got} states, expected {states}"))
        }
        Some(_) => {}
    }
    if v.lost_possible != lost {
        return Err(format!(
            "{} lossy buffers, expected {lost}",
            v.lost_possible
        ));
    }
    if v.dead_transitions != 0 || v.deadlock {
        return Err(format!(
            "{} dead transitions, deadlock {}; expected none",
            v.dead_transitions, v.deadlock
        ));
    }
    if v.props != props {
        return Err(format!(
            "property verdicts {:?}, expected {props:?}",
            v.props
        ));
    }
    let violated = props.iter().filter(|h| !**h).count();
    if v.trace_lens.len() != violated || v.trace_lens.contains(&0) {
        return Err(format!(
            "counterexample lengths {:?} for {violated} violated properties",
            v.trace_lens
        ));
    }
    Ok(())
}

/// Co-simulation against verification: the verifier over-approximates
/// every schedule, so a consumer the simulator saw lose an event must
/// have a `lost_possible` verdict.
///
/// # Errors
///
/// The first consumer that lost events without such a verdict.
pub fn check_cosim(
    machines: &[String],
    overwritten: &[u64],
    lost_consumers: &BTreeSet<String>,
) -> Result<(), String> {
    if machines.len() != overwritten.len() {
        return Err(format!(
            "{} overwrite counters for {} machines",
            overwritten.len(),
            machines.len()
        ));
    }
    for (m, &n) in machines.iter().zip(overwritten) {
        if n > 0 && !lost_consumers.contains(m) {
            return Err(format!(
                "`{m}` lost {n} events in co-simulation but has no lost_possible verdict"
            ));
        }
    }
    Ok(())
}

/// The observable outcome of one reaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Whether a transition fired (the inputs were consumed).
    pub fired: bool,
    /// Emissions as (output index, value), sorted.
    pub emissions: Vec<(usize, Option<i64>)>,
    /// Next control state, where the routine keeps one.
    pub ctrl: Option<usize>,
    /// Next value of each state variable the routine keeps, by name.
    pub vars: Vec<(String, i64)>,
}

/// Compares a compiled reaction with the reference one.
///
/// # Errors
///
/// What differs, at which step.
pub fn check_outcome(step: usize, want: &Outcome, got: &Outcome) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "reaction {step}: routine gave {got:?}, reference gave {want:?}"
        ))
    }
}

/// Runs the compiled routine of `m` and the reference semantics in lock
/// step on `steps` seeded input valuations, as `crates/vm/tests/equiv.rs`
/// does, and checks that every dynamic cycle count lies inside the
/// measured static bounds.
///
/// # Errors
///
/// The first divergence or out-of-bounds cycle count.
pub fn lockstep(
    m: &Cfsm,
    program: &VmProgram,
    object: &ObjectCode,
    bounds: (u64, u64),
    seed: u64,
    steps: usize,
) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let mut mem = VmMemory::new(program);
    let mut state = m.initial_state();
    for step in 0..steps {
        let mut present_names = BTreeSet::new();
        let mut present = Vec::with_capacity(m.inputs().len());
        let mut values = MapEnv::new();
        for (i, sig) in m.inputs().iter().enumerate() {
            let p = rng.bool();
            present.push(p);
            if p {
                present_names.insert(sig.name().to_owned());
            }
            if let Some(ty) = sig.value_type() {
                let v = rng.i64(ty.min_value()..ty.max_value() + 1);
                values.set(value_var_name(sig.name()), Value::Int(v));
                // The RTOS rewrites the one-place value buffer on every
                // emission; model it by always updating it.
                if let Some(slot) = program.input_value_slot(i) {
                    mem.set(slot, v);
                }
            }
        }
        let reaction = m
            .react(&present_names, &values, &state)
            .map_err(|e| format!("reference reaction {step} failed: {e:?}"))?;
        let mut host = CollectingHost::new(present);
        let stats = run_reaction(program, object, &mut mem, &mut host)
            .map_err(|e| format!("routine reaction {step} failed: {e:?}"))?;

        let mut want_emissions = Vec::new();
        for e in &reaction.emissions {
            let oi = m
                .output_index(&e.signal)
                .ok_or_else(|| format!("reference emitted unknown `{}`", e.signal))?;
            let v = match e.value {
                Some(v) => Some(v.as_int().map_err(|e| format!("{e:?}"))?),
                None => None,
            };
            want_emissions.push((oi, v));
        }
        want_emissions.sort_unstable();
        let mut got_emissions = host.emissions.clone();
        got_emissions.sort_unstable();
        let ctrl_slot = program.ctrl_slot();
        let mut want_vars = Vec::new();
        let mut got_vars = Vec::new();
        for v in m.state_vars() {
            if let Some(slot) = program.state_slot(&v.name) {
                let want = reaction
                    .next
                    .data
                    .get(&v.name)
                    .and_then(|x| x.as_int().ok())
                    .ok_or_else(|| format!("reference lost state variable `{}`", v.name))?;
                want_vars.push((v.name.clone(), want));
                got_vars.push((v.name.clone(), mem.get(slot)));
            }
        }
        check_outcome(
            step,
            &Outcome {
                fired: reaction.fired,
                emissions: want_emissions,
                ctrl: ctrl_slot.map(|_| reaction.next.ctrl),
                vars: want_vars,
            },
            &Outcome {
                fired: host.consumed,
                emissions: got_emissions,
                ctrl: ctrl_slot.map(|s| mem.get(s) as usize),
                vars: got_vars,
            },
        )?;
        if !(bounds.0..=bounds.1).contains(&stats.cycles) {
            return Err(format!(
                "reaction {step}: {} cycles outside the measured [{}, {}]",
                stats.cycles, bounds.0, bounds.1
            ));
        }
        state = reaction.next;
    }
    Ok(())
}
