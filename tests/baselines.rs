//! Cross-baseline integration tests: all implementation styles of a
//! machine agree behaviourally, and composition (the single-FSM baseline)
//! agrees with the synchronous interpretation of the network.

use polis::cfsm::{compose, Network};
use polis::core::{synthesize, workloads, ImplStyle, SynthesisOptions};
use polis::expr::MapEnv;
use polis::rtos::{RtosConfig, Simulator, Stimulus};
use polis::sgraph::execute;
use std::collections::BTreeSet;

/// Drives every style of every dashboard machine against the reference
/// semantics on a pseudo-random stimulus.
#[test]
fn styles_agree_behaviourally_on_dashboard_machines() {
    let net = workloads::dashboard();
    for m in net.cfsms() {
        let styles = [
            ImplStyle::DecisionGraph,
            ImplStyle::IteChain,
            ImplStyle::TwoLevel,
        ];
        let graphs: Vec<_> = styles
            .iter()
            .map(|&style| {
                synthesize(
                    m,
                    &SynthesisOptions {
                        style,
                        ..SynthesisOptions::default()
                    },
                )
                .graph
            })
            .collect();

        let mut st_ref = m.initial_state();
        let mut st_g: Vec<_> = graphs.iter().map(|_| m.initial_state()).collect();
        // A deterministic pseudo-random input walk.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for step in 0..24 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut present = BTreeSet::new();
            let mut vals = MapEnv::new();
            for (i, sig) in m.inputs().iter().enumerate() {
                if (x >> (i * 7)) & 1 == 1 {
                    present.insert(sig.name().to_owned());
                }
                if let Some(ty) = sig.value_type() {
                    let v = ((x >> (i * 11)) & 0x7f) as i64;
                    vals.set(
                        polis::cfsm::value_var_name(sig.name()),
                        polis::expr::Value::Int(v).coerce(ty),
                    );
                }
            }
            let want = m.react(&present, &vals, &st_ref).unwrap();
            for (k, g) in graphs.iter().enumerate() {
                let got = execute(m, g, &present, &vals, &st_g[k]).unwrap();
                assert_eq!(
                    got.fired,
                    want.fired,
                    "{} style {:?} step {step}",
                    m.name(),
                    styles[k]
                );
                assert_eq!(got.next, want.next, "{} style {:?}", m.name(), styles[k]);
                assert_eq!(
                    got.emissions.len(),
                    want.emissions.len(),
                    "{} style {:?}",
                    m.name(),
                    styles[k]
                );
                st_g[k] = got.next;
            }
            st_ref = want.next;
        }
    }
}

/// The composed single FSM reacts like the synchronous network and like a
/// POLIS RTOS run when events are spaced far enough apart.
#[test]
fn composition_agrees_with_distributed_execution_when_slow() {
    let net = workloads::dashboard();
    let product = compose::compose(&net).expect("dashboard composes");
    let product_net = Network::new("dash1", vec![product]).unwrap();

    // Widely spaced stimuli: the asynchronous network quiesces between
    // events, so its observable emissions match the synchronous product.
    let stim = vec![
        Stimulus::pure(0, "wheel_pulse"),
        Stimulus::pure(1_000_000, "wheel_pulse"),
        Stimulus::pure(2_000_000, "timebase"),
        Stimulus::valued(3_000_000, "fuel_sample", 60),
    ];

    let mut multi = Simulator::build(&net, RtosConfig::default());
    multi.run(&stim);
    let mut single = Simulator::build(&product_net, RtosConfig::default());
    single.run(&stim);

    let observable = |sim: &Simulator| -> Vec<(String, Option<i64>)> {
        let mut v: Vec<(String, Option<i64>)> = sim
            .trace()
            .iter()
            .map(|t| (t.signal.to_string(), t.value))
            .collect();
        v.sort();
        v
    };
    assert_eq!(observable(&multi), observable(&single));
}

/// Table III's headline: the composed machine reacts in fewer cycles per
/// external event (no internal communication) but costs more ROM than the
/// sum of the parts.
#[test]
fn composition_trades_size_for_speed() {
    let net = workloads::dashboard();
    let product = compose::compose(&net).expect("composes");

    let opts = SynthesisOptions::default();
    let product_synth = synthesize(&product, &opts);
    let parts: Vec<_> = net.cfsms().iter().map(|m| synthesize(m, &opts)).collect();
    let parts_rom: u64 = parts.iter().map(|p| p.measured.size_bytes).sum();

    assert!(
        product_synth.measured.size_bytes > parts_rom,
        "single FSM {} B should exceed the sum of parts {} B",
        product_synth.measured.size_bytes,
        parts_rom
    );
}

/// Granularity sweep (Section I-H): merging a subnetwork grows code but
/// removes communication overhead for events inside the island.
#[test]
fn granularity_merge_keeps_behaviour() {
    let net = workloads::dashboard();
    let merged = compose::compose_subset(&net, &["frc", "speedo"]).expect("merge");
    assert_eq!(merged.cfsms().len(), net.cfsms().len() - 1);

    let stim = vec![
        Stimulus::pure(0, "wheel_pulse"),
        Stimulus::pure(500_000, "wheel_pulse"),
        Stimulus::pure(1_000_000, "timebase"),
    ];
    let mut a = Simulator::build(&net, RtosConfig::default());
    a.run(&stim);
    let mut b = Simulator::build(&merged, RtosConfig::default());
    b.run(&stim);
    let speeds = |sim: &Simulator| -> Vec<Option<i64>> {
        sim.trace()
            .iter()
            .filter(|t| t.signal == "speed")
            .map(|t| t.value)
            .collect()
    };
    assert_eq!(speeds(&a), speeds(&b));
}
