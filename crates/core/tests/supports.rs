//! Differential test of the output supports `ReactiveFn::build` reads off
//! the transition conditions: they must equal the supports obtained by
//! existentially quantifying every other output out of χ, on the example
//! specs and on seeded random machines with one control state, a
//! non-power-of-two number of states (unused `next_ctrl` codes) and eight.

use polis_bdd::Var;
use polis_cfsm::{Cfsm, ReactiveFn, Side};
use polis_core::random::{random_cfsm, RandomSpec};
use polis_core::workloads::{spec, SOURCES};

/// For each output, the input variables of `∃(other outputs). χ`.
fn quantified_supports(rf: &mut ReactiveFn) -> Vec<Vec<Var>> {
    let all_output_bits: Vec<Var> = rf
        .outputs()
        .iter()
        .flat_map(|o| o.bits.iter().copied())
        .collect();
    let chi = rf.chi();
    let mut out = Vec::with_capacity(rf.outputs().len());
    for oi in 0..rf.outputs().len() {
        let own = rf.outputs()[oi].bits.clone();
        let others = all_output_bits.iter().copied().filter(|b| !own.contains(b));
        let bdd = rf.bdd_mut();
        let others_cube = bdd.cube(others);
        let h = bdd.exists_cube(chi, others_cube);
        let sup: Vec<Var> = bdd
            .support(h)
            .into_iter()
            .filter(|&v| rf.locate(v).is_some_and(|l| l.side == Side::Input))
            .collect();
        out.push(sup);
    }
    out
}

fn check(m: &Cfsm) {
    let mut rf = ReactiveFn::build(m);
    let stored = rf.output_supports().to_vec();
    let quantified = quantified_supports(&mut rf);
    assert_eq!(stored, quantified, "{}: output supports differ", m.name());
}

#[test]
fn stored_supports_equal_quantified_ones_on_the_example_specs() {
    for (name, _) in SOURCES {
        for m in spec(name).network.cfsms() {
            check(m);
        }
    }
}

#[test]
fn stored_supports_equal_quantified_ones_on_random_machines() {
    for states in [1, 5, 8] {
        for seed in 0..40 {
            let shape = RandomSpec {
                states,
                pure_inputs: 1 + (seed % 5) as usize,
                valued_inputs: (seed % 4) as usize,
                outputs: 1 + (seed % 3) as usize,
                vars: (seed % 3) as usize,
                transitions: 4 + (seed * 7 % 37) as usize,
            };
            let m = random_cfsm(&format!("r{states}_{seed}"), &shape, seed ^ 0x5eed);
            check(&m);
        }
    }
}
