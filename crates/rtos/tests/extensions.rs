//! Behavioural tests for the RTOS extensions: task chaining (IV-A),
//! hardware CFSMs (IV-C), and preemptive static-priority scheduling.

use polis_cfsm::{Cfsm, Network};
use polis_expr::{Expr, Type};
use polis_rtos::{RtosConfig, SchedulingPolicy, Simulator, Stimulus};
use std::collections::BTreeSet;

fn relay(name: &str, input: &str, output: &str) -> Cfsm {
    let mut b = Cfsm::builder(name);
    b.input_pure(input);
    b.output_pure(output);
    let s = b.ctrl_state("s");
    b.transition(s, s).when_present(input).emit(output).done();
    b.build().unwrap()
}

fn chain3() -> Network {
    Network::new(
        "chain",
        vec![
            relay("a", "in", "m1"),
            relay("b", "m1", "m2"),
            relay("c", "m2", "out"),
        ],
    )
    .unwrap()
}

#[test]
fn chaining_preserves_behaviour_and_saves_cycles() {
    let stim = vec![Stimulus::pure(0, "in"), Stimulus::pure(100_000, "in")];

    let mut plain = Simulator::build(&chain3(), RtosConfig::default());
    plain.run(&stim);

    let config = RtosConfig {
        chains: [
            ("a".to_string(), "b".to_string()),
            ("b".to_string(), "c".to_string()),
        ]
        .into(),
        ..RtosConfig::default()
    };
    let mut chained = Simulator::build(&chain3(), config);
    chained.run(&stim);

    // Same observable emissions.
    let sigs = |sim: &Simulator| -> Vec<String> {
        sim.trace().iter().map(|t| t.signal.to_string()).collect()
    };
    assert_eq!(sigs(&plain), sigs(&chained));

    // Chained execution removes dispatch overhead: fewer busy cycles.
    assert!(
        chained.stats().busy_cycles < plain.stats().busy_cycles,
        "chained {} !< plain {}",
        chained.stats().busy_cycles,
        plain.stats().busy_cycles
    );
    assert_eq!(chained.stats().chained_reactions, 4); // b and c, twice
    assert_eq!(plain.stats().chained_reactions, 0);

    // And better input-to-output latency.
    let lp = plain.worst_latency(&stim, "in", "out").unwrap();
    let lc = chained.worst_latency(&stim, "in", "out").unwrap();
    assert!(lc < lp, "chained latency {lc} !< plain {lp}");
}

#[test]
fn hardware_cfsm_reacts_instantly_off_cpu() {
    // The front stage is "partitioned to hardware": its reaction costs no
    // CPU cycles and completes one cycle after the event.
    let net = chain3();
    let config = RtosConfig {
        hardware: ["a".to_string()].into(),
        ..RtosConfig::default()
    };
    let mut sim = Simulator::build(&net, config);
    let stim = vec![Stimulus::pure(0, "in")];
    sim.run(&stim);

    let m1 = sim
        .trace()
        .iter()
        .find(|t| t.signal == "m1")
        .expect("hw emission");
    assert_eq!(m1.by, "a");
    // ISR (20 cycles) + 1 hardware cycle: long before any software
    // reaction could have finished.
    assert!(m1.time <= 25, "hw emission at {}", m1.time);
    // The chain still completes through the software stages.
    assert!(sim.trace().iter().any(|t| t.signal == "out"));
    // Only software reactions consume CPU: two tasks ran.
    assert_eq!(sim.stats().reactions, vec![1, 1, 1]);
}

#[test]
fn hardware_cfsm_carries_values() {
    let mut b = Cfsm::builder("hwdouble");
    b.input_valued("x", Type::uint(8));
    b.output_valued("y", Type::uint(8));
    let s = b.ctrl_state("s");
    b.transition(s, s)
        .when_present("x")
        .emit_value("y", Expr::var("x_value").mul(Expr::int(2)))
        .done();
    let hw = b.build().unwrap();

    let mut b = Cfsm::builder("swsink");
    b.input_valued("y", Type::uint(8));
    b.output_pure("big");
    let s = b.ctrl_state("s");
    let t = b.test("t", Expr::var("y_value").gt(Expr::int(10)));
    b.transition(s, s)
        .when_present("y")
        .when_test(t)
        .emit("big")
        .done();
    let sw = b.build().unwrap();

    let net = Network::new("hwsw", vec![hw, sw]).unwrap();
    let config = RtosConfig {
        hardware: ["hwdouble".to_string()].into(),
        ..RtosConfig::default()
    };
    let mut sim = Simulator::build(&net, config);
    sim.run(&[
        Stimulus::valued(0, "x", 3),
        Stimulus::valued(50_000, "x", 9),
    ]);
    let ys: Vec<Option<i64>> = sim
        .trace()
        .iter()
        .filter(|t| t.signal == "y")
        .map(|t| t.value)
        .collect();
    assert_eq!(ys, vec![Some(6), Some(18)]);
    assert_eq!(sim.trace().iter().filter(|t| t.signal == "big").count(), 1);
}

#[test]
fn preemption_runs_urgent_task_inside_the_window() {
    // A slow low-priority task and an urgent one. The urgent event
    // arrives while the slow task runs; with preemption the urgent
    // response is traced before the slow task's emissions.
    let mut b = Cfsm::builder("slow");
    b.input_pure("go_slow");
    b.output_pure("slow_done");
    b.state_var("x", Type::uint(8), polis_expr::Value::Int(1));
    let s = b.ctrl_state("s");
    // Heavy arithmetic: divisions cost ~44 cycles each on Mcu8.
    b.transition(s, s)
        .when_present("go_slow")
        .assign(
            "x",
            Expr::var("x")
                .div(Expr::int(3))
                .add(Expr::var("x").div(Expr::int(5)))
                .add(Expr::var("x").div(Expr::int(7)))
                .add(Expr::int(1)),
        )
        .emit("slow_done")
        .done();
    let slow = b.build().unwrap();
    let urgent = relay("urgent", "go_fast", "fast_done");
    let net = Network::new("pair", vec![slow, urgent]).unwrap();

    let mk = |preemptive: bool| RtosConfig {
        policy: SchedulingPolicy::StaticPriority {
            priorities: vec![9, 1],
        },
        preemptive,
        ..RtosConfig::default()
    };
    // The urgent event lands inside the slow reaction's window.
    let stim = vec![Stimulus::pure(0, "go_slow"), Stimulus::pure(60, "go_fast")];

    let mut pre = Simulator::build(&net, mk(true));
    pre.run(&stim);
    assert!(pre.stats().preempting_reactions >= 1, "{:?}", pre.stats());
    let lat_pre = pre.worst_latency(&stim, "go_fast", "fast_done").unwrap();

    let mut nopre = Simulator::build(&net, mk(false));
    nopre.run(&stim);
    assert_eq!(nopre.stats().preempting_reactions, 0);
    let lat_no = nopre.worst_latency(&stim, "go_fast", "fast_done").unwrap();

    assert!(
        lat_pre <= lat_no,
        "preemptive latency {lat_pre} > non-preemptive {lat_no}"
    );
    // Behaviour is identical either way.
    let count = |sim: &Simulator, sig: &str| sim.trace().iter().filter(|t| t.signal == sig).count();
    for sig in ["slow_done", "fast_done"] {
        assert_eq!(count(&pre, sig), count(&nopre, sig), "{sig}");
    }
}

#[test]
fn hw_sw_snapshot_consistency_is_preserved() {
    // A hardware emission arriving while a software task runs must land
    // in its pending set like any other mid-reaction arrival.
    let mut b = Cfsm::builder("gate");
    b.input_pure("x");
    b.input_pure("hw_out");
    b.output_pure("seen_x");
    b.output_pure("both");
    let s = b.ctrl_state("s");
    b.transition(s, s)
        .when_present("x")
        .when_present("hw_out")
        .emit("both")
        .done();
    b.transition(s, s).when_present("x").emit("seen_x").done();
    let gate = b.build().unwrap();
    let hw = relay("hwrelay", "trigger", "hw_out");
    let net = Network::new("mix", vec![gate, hw]).unwrap();

    let config = RtosConfig {
        hardware: ["hwrelay".to_string()].into(),
        ..RtosConfig::default()
    };
    let mut sim = Simulator::build(&net, config);
    // x starts the software reaction; the hardware relay fires mid-window.
    sim.run(&[Stimulus::pure(0, "x"), Stimulus::pure(50, "trigger")]);
    let sigs: Vec<&str> = sim
        .trace()
        .iter()
        .filter(|t| t.by == "gate")
        .map(|t| t.signal)
        .collect();
    assert_eq!(sigs, vec!["seen_x"], "trace: {:?}", sim.trace());
}

#[test]
fn chained_tasks_count_toward_totals() {
    let present: BTreeSet<(String, String)> = [("a".to_string(), "b".to_string())].into();
    let config = RtosConfig {
        chains: present,
        ..RtosConfig::default()
    };
    let mut sim = Simulator::build(&chain3(), config);
    sim.run(&[Stimulus::pure(0, "in")]);
    // b ran chained; c ran scheduled.
    assert_eq!(sim.stats().chained_reactions, 1);
    let total: u64 = sim.stats().reactions.iter().sum();
    assert_eq!(total, 3);
}
