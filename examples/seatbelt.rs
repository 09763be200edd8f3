//! The seat-belt alarm walk-through: specification text, synthesized C,
//! both scenario outcomes, and the effect of implementation style on the
//! measured costs.
//!
//! Run with `cargo run --example seatbelt`.

use polis::core::{synthesize, workloads, ImplStyle, SynthesisOptions};
use polis::rtos::{RtosConfig, Simulator, Stimulus};

fn main() {
    let net = workloads::seat_belt();
    let belt = &net.cfsms()[0];
    println!(
        "seat belt controller: {} states, {} transitions, {} tests",
        belt.states().len(),
        belt.num_transitions(),
        belt.tests().len()
    );

    // Compare the three implementation styles on the same machine.
    println!(
        "\n{:<18} {:>8} {:>10} {:>10}",
        "style", "ROM[B]", "min[cyc]", "max[cyc]"
    );
    for (label, style) in [
        ("decision graph", ImplStyle::DecisionGraph),
        ("ITE chain", ImplStyle::IteChain),
        ("two-level jump", ImplStyle::TwoLevel),
    ] {
        let r = synthesize(
            belt,
            &SynthesisOptions {
                style,
                ..SynthesisOptions::default()
            },
        );
        println!(
            "{label:<18} {:>8} {:>10} {:>10}",
            r.measured.size_bytes, r.measured.min_cycles, r.measured.max_cycles
        );
    }

    // Scenario 1: driver ignores the belt for five timer ticks.
    let mut sim = Simulator::build(&net, RtosConfig::default());
    let mut stim = vec![Stimulus::pure(0, "key_on")];
    for i in 0..5u64 {
        stim.push(Stimulus::pure(100_000 * (i + 1), "tick"));
    }
    stim.push(Stimulus::pure(800_000, "belt_on"));
    sim.run(&stim);
    println!("\nscenario 1 (belt ignored):");
    for t in sim.trace() {
        println!("  t={:>7}  {}", t.time, t.signal);
    }

    // Scenario 2: belt fastened promptly, no alarm.
    let mut sim = Simulator::build(&net, RtosConfig::default());
    let stim = vec![
        Stimulus::pure(0, "key_on"),
        Stimulus::pure(100_000, "tick"),
        Stimulus::pure(150_000, "belt_on"),
        Stimulus::pure(200_000, "tick"),
        Stimulus::pure(300_000, "tick"),
    ];
    sim.run(&stim);
    println!(
        "scenario 2 (fastened promptly): {} alarms",
        sim.trace()
            .iter()
            .filter(|t| t.signal == "alarm_on")
            .count()
    );
}
