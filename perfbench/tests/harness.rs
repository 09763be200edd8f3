//! Tests of the benchmark itself: seeded inputs, the oracle, and span
//! reconciliation.

use perfbench::flow::{machine_job, Config};
use perfbench::inputs::{generate, network_input, relay_suite, Expect, Kind, Workload};
use perfbench::oracle::{check_cosim, check_outcome, check_verdicts, lockstep, Outcome, Verdicts};
use perfbench::runner::{pass, Tally};
use perfbench::spans::{breakdown, Recorder, Span};
use polis::core::random::{random_network, RandomSpec, Rng};
use polis::lang::emit_network_source;
use polis::vm::Profile;
use std::collections::BTreeSet;

#[test]
fn equal_seeds_give_equal_inputs_and_other_seeds_other_inputs() {
    for kind in Kind::ALL {
        let a = generate(kind, 7);
        assert_eq!(a, generate(kind, 7), "{}", kind.name());
        let b = generate(kind, 8);
        assert_ne!(
            (&a.machines, &a.networks),
            (&b.machines, &b.networks),
            "{}",
            kind.name()
        );
    }
}

fn relay_verdicts(n: usize) -> Verdicts {
    Verdicts {
        reached_states: Some(1u128 << (3 * n - 1)),
        lost_consumers: (0..n).map(|k| format!("m{k}")).collect(),
        lost_possible: 2 * n - 1,
        dead_transitions: 0,
        deadlock: false,
        props: vec![true, false],
        trace_lens: vec![n],
    }
}

#[test]
fn relay_closed_form_accepts_the_right_count_and_flags_an_off_by_one() {
    assert_eq!(
        check_verdicts(&Expect::Relay(8), &relay_verdicts(8)),
        Ok(())
    );
    let mut v = relay_verdicts(8);
    v.reached_states = v.reached_states.map(|s| s + 1);
    assert!(check_verdicts(&Expect::Relay(8), &v).is_err());
    let mut v = relay_verdicts(8);
    v.lost_possible -= 1;
    assert!(check_verdicts(&Expect::Relay(8), &v).is_err());
    let mut v = relay_verdicts(8);
    v.props = vec![true, true];
    assert!(check_verdicts(&Expect::Relay(8), &v).is_err());
}

/// `reach::count_states` overflows u128 at relay_chain_20 and beyond and
/// reports no count; that must fail the run, not skip the check.
#[test]
fn a_missing_state_count_is_a_failure() {
    let mut v = relay_verdicts(20);
    v.reached_states = None;
    let err = check_verdicts(&Expect::Relay(20), &v).unwrap_err();
    assert!(err.contains("missing"), "{err}");
}

#[test]
fn example_verdicts_are_pinned() {
    let v = Verdicts {
        reached_states: Some(4096),
        lost_consumers: BTreeSet::new(),
        lost_possible: 10,
        dead_transitions: 0,
        deadlock: false,
        props: vec![true, true, false],
        trace_lens: vec![3],
    };
    assert_eq!(check_verdicts(&Expect::Example("dashboard"), &v), Ok(()));
    let mut flipped = v.clone();
    flipped.props[2] = true;
    assert!(check_verdicts(&Expect::Example("dashboard"), &flipped).is_err());
    let mut undecoded = v;
    undecoded.trace_lens = vec![0];
    assert!(check_verdicts(&Expect::Example("dashboard"), &undecoded).is_err());
}

#[test]
fn an_overwrite_without_a_lost_verdict_is_flagged() {
    let names = vec!["a".to_owned(), "b".to_owned()];
    let lost: BTreeSet<String> = ["a".to_owned()].into();
    assert_eq!(check_cosim(&names, &[3, 0], &lost), Ok(()));
    assert!(check_cosim(&names, &[3, 1], &lost).is_err());
}

#[test]
fn a_flipped_routine_output_is_flagged() {
    let want = Outcome {
        fired: true,
        emissions: vec![(0, None), (1, Some(4))],
        ctrl: Some(1),
        vars: vec![("x0".to_owned(), 3)],
    };
    assert_eq!(check_outcome(0, &want, &want.clone()), Ok(()));
    let mut got = want.clone();
    got.emissions[1].1 = Some(5);
    assert!(check_outcome(0, &want, &got).is_err());
    let mut got = want.clone();
    got.fired = false;
    assert!(check_outcome(0, &want, &got).is_err());
}

#[test]
fn lockstep_accepts_a_machines_own_routine_and_rejects_anothers() {
    let w = generate(Kind::SynthFleet, 3);
    let cfg = Config::new(Profile::Mcu8);
    let mut rec = Recorder::new(false);
    let a = machine_job(&cfg, &w.machines[0], &mut rec).expect("parses");
    let b = machine_job(&cfg, &w.machines[1], &mut rec).expect("parses");
    let bounds = |s: &perfbench::flow::Synth| (s.measured.min_cycles, s.measured.max_cycles);
    assert_eq!(
        lockstep(&a.cfsm, &a.program, &a.object, bounds(&a), 1, 32),
        Ok(())
    );
    assert!(lockstep(&a.cfsm, &b.program, &b.object, bounds(&b), 1, 32).is_err());
}

fn relay_workload(n: usize) -> Workload {
    let net = random_network(n, &RandomSpec::default(), 11);
    let text = format!("{}\n{}", emit_network_source(&net), relay_suite(n));
    let input = network_input("relay_chain", text, Expect::Relay(n), 200, &mut Rng::new(1));
    Workload {
        kind: Kind::VerifyRelay,
        seed: 1,
        profile: Profile::Mcu8,
        machines: Vec::new(),
        networks: vec![input],
    }
}

#[test]
fn checked_traced_and_untraced_passes_agree_on_a_small_chain() {
    let w = relay_workload(4);
    let cfg = Config::new(w.profile);
    let mut tally = Tally::default();
    let checked = pass(&w, &cfg, &mut Recorder::new(false), None, &mut tally);
    assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    let mut rec = Recorder::new(true);
    pass(&w, &cfg, &mut rec, Some(&checked.digests), &mut tally);
    assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    let (spans, counters) = rec.take();
    let b = breakdown(&spans).expect("spans reconcile");
    assert!(b.self_ns.contains_key("verify.run"));
    assert!(counters
        .get("verify.max_trace_len")
        .is_some_and(|&n| n > 0.0));
}

#[test]
fn a_planted_wrong_chain_length_fails_the_pass() {
    let mut w = relay_workload(4);
    w.networks[0].expect = Expect::Relay(5);
    let cfg = Config::new(w.profile);
    let mut tally = Tally::default();
    pass(&w, &cfg, &mut Recorder::new(false), None, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (1, 1));
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        item: 1,
    }
}

#[test]
fn self_times_add_up_to_the_traced_total() {
    let spans = [
        span("core.unattributed", 0, 100, None),
        span("cfsm.chi", 10, 40, Some(0)),
        span("bdd.sift", 40, 90, Some(0)),
        span("bdd.inner", 50, 60, Some(2)),
    ];
    let b = breakdown(&spans).expect("well nested");
    assert_eq!(b.total_ns, 100);
    assert_eq!(b.self_ns["core.unattributed"], 20);
    assert_eq!(b.self_ns["bdd.sift"], 40);
    assert_eq!(b.self_ns.values().sum::<u64>(), 100);

    let escaping = [
        span("core.unattributed", 0, 100, None),
        span("cfsm.chi", 90, 120, Some(0)),
    ];
    assert!(breakdown(&escaping).is_err());
    let overlapping = [
        span("core.unattributed", 0, 100, None),
        span("cfsm.chi", 10, 50, Some(0)),
        span("bdd.sift", 40, 60, Some(0)),
    ];
    assert!(breakdown(&overlapping).is_err());
}
