//! Behavioural tests of the generated RTOS semantics (Section IV):
//! propagation, one-place-buffer overwrites, event preservation, the
//! snapshot-consistency race, scheduling policies, and delivery modes.

use polis_cfsm::{Cfsm, Network};
use polis_expr::{Expr, Type, Value};
use polis_rtos::{DeliveryMode, RtosConfig, SchedulingPolicy, Simulator, Stimulus};

fn relay(name: &str, input: &str, output: &str) -> Cfsm {
    let mut b = Cfsm::builder(name);
    b.input_pure(input);
    b.output_pure(output);
    let s = b.ctrl_state("s");
    b.transition(s, s).when_present(input).emit(output).done();
    b.build().unwrap()
}

#[test]
fn pipeline_propagates_events_in_order() {
    let net = Network::new(
        "chain",
        vec![
            relay("a", "in", "m1"),
            relay("b", "m1", "m2"),
            relay("c", "m2", "out"),
        ],
    )
    .unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    let stim = vec![Stimulus::pure(0, "in"), Stimulus::pure(10_000, "in")];
    sim.run(&stim);
    let outs: Vec<&str> = sim
        .trace()
        .iter()
        .filter(|t| t.signal == "out")
        .map(|t| t.by)
        .collect();
    assert_eq!(outs, vec!["c", "c"], "trace: {:?}", sim.trace());
    // m1 is emitted before m2 before out each round.
    let times: Vec<(&str, u64)> = sim.trace().iter().map(|t| (t.signal, t.time)).collect();
    let first = |sig: &str| times.iter().find(|(s, _)| *s == sig).unwrap().1;
    assert!(first("m1") <= first("m2"));
    assert!(first("m2") <= first("out"));
    assert_eq!(sim.stats().fired, vec![2, 2, 2]);
}

#[test]
fn one_place_buffer_overwrites_fast_events() {
    // A counter that increments per detected event: two events close
    // together (before the consumer can run) collapse into one.
    let mut b = Cfsm::builder("counter");
    b.input_pure("e");
    b.output_pure("seen");
    let s = b.ctrl_state("s");
    b.transition(s, s).when_present("e").emit("seen").done();
    let m = b.build().unwrap();
    let net = Network::new("n", vec![m]).unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    // Both events at t=0: the second lands before the task runs.
    sim.run(&[Stimulus::pure(0, "e"), Stimulus::pure(0, "e")]);
    let seen = sim.trace().iter().filter(|t| t.signal == "seen").count();
    assert_eq!(seen, 1, "overwritten event must be lost");
    assert_eq!(sim.stats().overwritten, vec![1]);
}

#[test]
fn events_preserved_when_no_transition_fires() {
    // Fires only when BOTH a and b are present in the snapshot.
    let mut bld = Cfsm::builder("both");
    bld.input_pure("a");
    bld.input_pure("b");
    bld.output_pure("go");
    let s = bld.ctrl_state("s");
    bld.transition(s, s)
        .when_present("a")
        .when_present("b")
        .emit("go")
        .done();
    let m = bld.build().unwrap();
    let net = Network::new("n", vec![m]).unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    // a arrives long before b: the first execution fires nothing and must
    // NOT consume a.
    sim.run(&[Stimulus::pure(0, "a"), Stimulus::pure(50_000, "b")]);
    let fired: Vec<&str> = sim
        .trace()
        .iter()
        .filter(|t| t.signal == "go")
        .map(|t| t.by)
        .collect();
    assert_eq!(fired, vec!["both"], "a must survive the empty reaction");
    // The task ran at least twice (once unfired, once fired).
    assert!(sim.stats().reactions[0] >= 2);
    assert_eq!(sim.stats().fired[0], 1);
}

#[test]
fn snapshot_race_of_section_iv_d() {
    // A machine with "y and not x" behaviour: if it could observe y
    // arriving mid-reaction while having tested x=absent earlier, it would
    // execute a transition enabled at no point in time. The RTOS holds
    // back mid-reaction arrivals, so the y-only transition runs in the
    // *next* execution instead.
    let mut bld = Cfsm::builder("race");
    bld.input_pure("x");
    bld.input_pure("y");
    bld.output_pure("y_only");
    bld.output_pure("seen_x");
    let s = bld.ctrl_state("s");
    bld.transition(s, s)
        .when_present("y")
        .when_absent("x")
        .emit("y_only")
        .done();
    bld.transition(s, s).when_present("x").emit("seen_x").done();
    let m = bld.build().unwrap();
    let net = Network::new("n", vec![m]).unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    // x arrives; while the task reacts to x, y arrives (within the
    // reaction's cycle window). The snapshot shows x only; y is pending.
    sim.run(&[Stimulus::pure(0, "x"), Stimulus::pure(60, "y")]);
    let sigs: Vec<&str> = sim.trace().iter().map(|t| t.signal).collect();
    assert_eq!(
        sigs,
        vec!["seen_x", "y_only"],
        "y must be deferred to the next execution: {:?}",
        sim.trace()
    );
}

#[test]
fn static_priority_dispatches_urgent_task_first() {
    let net = Network::new(
        "two",
        vec![
            relay("low", "e_low", "out_low"),
            relay("high", "e_high", "out_high"),
        ],
    )
    .unwrap();
    let config = RtosConfig {
        policy: SchedulingPolicy::StaticPriority {
            priorities: vec![9, 1],
        },
        ..RtosConfig::default()
    };
    let mut sim = Simulator::build(&net, config);
    // Both enabled at the same instant.
    sim.run(&[Stimulus::pure(0, "e_low"), Stimulus::pure(0, "e_high")]);
    let first = sim.trace().get(0).unwrap();
    assert_eq!(first.by, "high", "trace: {:?}", sim.trace());
}

#[test]
fn round_robin_alternates() {
    let net = Network::new(
        "two",
        vec![relay("t1", "e1", "o1"), relay("t2", "e2", "o2")],
    )
    .unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    sim.run(&[
        Stimulus::pure(0, "e1"),
        Stimulus::pure(0, "e2"),
        Stimulus::pure(100_000, "e1"),
        Stimulus::pure(100_000, "e2"),
    ]);
    assert_eq!(sim.stats().fired, vec![2, 2]);
}

#[test]
fn polling_defers_delivery() {
    let net = Network::new("n", vec![relay("t", "e", "o")]).unwrap();
    // Interrupt-driven run.
    let mut fast = Simulator::build(&net, RtosConfig::default());
    fast.run(&[Stimulus::pure(10, "e")]);
    let t_int = fast.trace().get(0).unwrap().time;
    // Polled at a coarse period.
    let mut config = RtosConfig::default();
    config
        .delivery
        .insert("e".to_owned(), DeliveryMode::Polled { period: 5_000 });
    let mut slow = Simulator::build(&net, config);
    slow.run(&[Stimulus::pure(10, "e")]);
    let t_poll = slow.trace().get(0).unwrap().time;
    assert!(
        t_poll >= 5_000 && t_poll > t_int,
        "polled {t_poll} vs interrupt {t_int}"
    );
}

#[test]
fn valued_events_carry_data_through_the_network() {
    // doubler -> thresholder pipeline with values.
    let mut b = Cfsm::builder("doubler");
    b.input_valued("x", Type::uint(8));
    b.output_valued("y", Type::uint(8));
    let s = b.ctrl_state("s");
    b.transition(s, s)
        .when_present("x")
        .emit_value("y", Expr::var("x_value").mul(Expr::int(2)))
        .done();
    let doubler = b.build().unwrap();

    let mut b = Cfsm::builder("thresh");
    b.input_valued("y", Type::uint(8));
    b.output_pure("high");
    let s = b.ctrl_state("s");
    let big = b.test("big", Expr::var("y_value").gt(Expr::int(10)));
    b.transition(s, s)
        .when_present("y")
        .when_test(big)
        .emit("high")
        .done();
    let thresh = b.build().unwrap();

    let net = Network::new("vp", vec![doubler, thresh]).unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    sim.run(&[
        Stimulus::valued(0, "x", 3),      // 6: below threshold
        Stimulus::valued(50_000, "x", 9), // 18: above
    ]);
    let ys: Vec<Option<i64>> = sim
        .trace()
        .iter()
        .filter(|t| t.signal == "y")
        .map(|t| t.value)
        .collect();
    assert_eq!(ys, vec![Some(6), Some(18)]);
    let highs = sim.trace().iter().filter(|t| t.signal == "high").count();
    assert_eq!(highs, 1);
}

#[test]
fn latency_probe_reports_worst_case() {
    let net = Network::new("n", vec![relay("t", "e", "o")]).unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    let stim = vec![Stimulus::pure(0, "e"), Stimulus::pure(10_000, "e")];
    sim.run(&stim);
    let lat = sim.worst_latency(&stim, "e", "o").expect("responses seen");
    assert!(lat > 0);
    assert!(lat < 5_000, "relay latency should be small: {lat}");
}

#[test]
fn state_persists_across_reactions() {
    // A counter that emits every 3rd event.
    let mut b = Cfsm::builder("div3");
    b.input_pure("e");
    b.output_pure("third");
    b.state_var("n", Type::uint(4), Value::Int(0));
    let s = b.ctrl_state("s");
    let full = b.test("full", Expr::var("n").ge(Expr::int(2)));
    b.transition(s, s)
        .when_present("e")
        .when_test(full)
        .assign("n", Expr::int(0))
        .emit("third")
        .done();
    b.transition(s, s)
        .when_present("e")
        .assign("n", Expr::var("n").add(Expr::int(1)))
        .done();
    let m = b.build().unwrap();
    let net = Network::new("n", vec![m]).unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    let stim: Vec<Stimulus> = (0..9).map(|i| Stimulus::pure(i * 100_000, "e")).collect();
    sim.run(&stim);
    let thirds = sim.trace().iter().filter(|t| t.signal == "third").count();
    assert_eq!(thirds, 3);
}

#[test]
fn stimulus_on_an_unread_signal_costs_only_its_delivery_routine() {
    let net = Network::new("n", vec![relay("a", "in", "out")]).unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    sim.run(&[Stimulus::pure(0, "nobody_reads")]);
    let isr = RtosConfig::default().overhead.isr;
    assert!(sim.trace().is_empty());
    assert_eq!(sim.stats().reactions, vec![0]);
    assert_eq!(sim.stats().rtos_cycles, isr);
    assert_eq!(sim.stats().busy_cycles, isr);
    assert_eq!(sim.stats().total_cycles, isr);

    // A configured delivery mode applies even to a signal no machine
    // reads: the event waits for the polling instant and costs a poll.
    let config = RtosConfig {
        delivery: [(
            "nobody_reads".to_string(),
            DeliveryMode::Polled { period: 500 },
        )]
        .into_iter()
        .collect(),
        ..RtosConfig::default()
    };
    let poll = config.overhead.poll;
    let mut sim = Simulator::build(&net, config);
    sim.run(&[Stimulus::pure(1, "nobody_reads")]);
    assert!(sim.trace().is_empty());
    assert_eq!(sim.stats().reactions, vec![0]);
    assert_eq!(sim.stats().rtos_cycles, poll);
    assert_eq!(sim.stats().total_cycles, 500 + poll);
}

#[test]
fn output_no_machine_reads_is_traced_but_delivered_nowhere() {
    let net = Network::new(
        "n",
        vec![relay("a", "in", "dangling"), relay("b", "other", "out")],
    )
    .unwrap();
    let mut sim = Simulator::build(&net, RtosConfig::default());
    sim.run(&[Stimulus::pure(0, "in")]);
    let trace: Vec<(&str, &str)> = sim.trace().iter().map(|t| (t.signal, t.by)).collect();
    assert_eq!(trace, vec![("dangling", "a")]);
    assert_eq!(sim.stats().reactions, vec![1, 0]);
    assert_eq!(sim.stats().overwritten, vec![0, 0]);
}

#[test]
fn signal_read_by_two_machines_is_delivered_in_network_order() {
    // Hardware consumers react at delivery, so their emissions show the
    // delivery order directly.
    let hw = |names: &[&str]| RtosConfig {
        hardware: names.iter().map(|n| n.to_string()).collect(),
        ..RtosConfig::default()
    };
    let order = |machines: Vec<Cfsm>| -> Vec<String> {
        let net = Network::new("n", machines).unwrap();
        let mut sim = Simulator::build(&net, hw(&["a", "b"]));
        sim.run(&[Stimulus::pure(0, "x")]);
        sim.trace().iter().map(|t| t.by.to_string()).collect()
    };
    assert_eq!(
        order(vec![relay("a", "x", "ya"), relay("b", "x", "yb")]),
        vec!["a", "b"]
    );
    assert_eq!(
        order(vec![relay("b", "x", "yb"), relay("a", "x", "ya")]),
        vec!["b", "a"]
    );
}
