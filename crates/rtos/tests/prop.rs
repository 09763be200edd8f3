//! Property-style tests over random pipelines and stimuli: RTOS invariants
//! that must hold for every schedule. Deterministically seeded, offline.

use polis_core::random::{random_network, RandomSpec, Rng};
use polis_rtos::{RtosConfig, SchedulingPolicy, Simulator, Stimulus};

fn configs() -> Vec<RtosConfig> {
    vec![
        RtosConfig::default(),
        RtosConfig {
            policy: SchedulingPolicy::StaticPriority {
                priorities: vec![3, 1, 2, 0],
            },
            ..RtosConfig::default()
        },
        RtosConfig {
            policy: SchedulingPolicy::StaticPriority {
                priorities: vec![3, 1, 2, 0],
            },
            preemptive: true,
            ..RtosConfig::default()
        },
    ]
}

#[test]
fn rtos_invariants_hold_for_every_schedule() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0x17_05 ^ case.wrapping_mul(0xabcdef));
        let seed = rng.u64(0..500);
        let net = random_network(4, &RandomSpec::default(), seed);
        let stim: Vec<Stimulus> = (0..rng.usize(1..20))
            .map(|_| Stimulus::pure(rng.u64(0..500_000), format!("ext{}", rng.usize(0..4))))
            .collect();
        for config in configs() {
            let mut sim = Simulator::build(&net, config);
            sim.run(&stim);
            let stats = sim.stats();

            // 1. Fired reactions never exceed executed reactions.
            for (f, r) in stats.fired.iter().zip(&stats.reactions) {
                assert!(f <= r, "case={case}");
            }
            // 2. Trace times are monotone non-decreasing.
            let mut last = 0;
            for t in sim.trace() {
                assert!(t.time >= last, "case={case}: trace went backwards");
                last = t.time;
            }
            // 3. Every trace entry is attributed to a network machine.
            for t in sim.trace() {
                assert!(net.machine_index(t.by).is_some(), "case={case}");
            }
            // 4. Conservation: each relay's firings equal its emissions.
            for (mi, m) in net.cfsms().iter().enumerate() {
                let emitted = sim.trace().iter().filter(|t| t.by == m.name()).count() as u64;
                assert_eq!(
                    emitted,
                    stats.fired[mi],
                    "case={case}: machine {} fired {} but emitted {}",
                    m.name(),
                    stats.fired[mi],
                    emitted
                );
            }
            // 5. Busy cycles never exceed wall-clock time.
            assert!(
                stats.busy_cycles <= stats.total_cycles.max(stats.busy_cycles),
                "case={case}"
            );
            // 6. The simulation terminated with no task still enabled:
            //    re-running with no stimuli adds nothing.
            let before = sim.trace().len();
            sim.run(&[]);
            assert_eq!(sim.trace().len(), before, "case={case}");
        }
    }
}

#[test]
fn chaining_never_changes_observable_emissions() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0xc8a1 ^ case.wrapping_mul(0x777));
        let seed = rng.u64(0..200);
        let net = random_network(3, &RandomSpec::default(), seed);
        let stim: Vec<Stimulus> = (0..rng.usize(1..12))
            .map(|_| Stimulus::pure(rng.u64(0..400_000), format!("ext{}", rng.usize(0..3))))
            .collect();

        let mut plain = Simulator::build(&net, RtosConfig::default());
        plain.run(&stim);

        let chains = net
            .cfsms()
            .iter()
            .zip(net.cfsms().iter().skip(1))
            .map(|(a, b)| (a.name().to_owned(), b.name().to_owned()))
            .collect();
        let mut chained = Simulator::build(
            &net,
            RtosConfig {
                chains,
                ..RtosConfig::default()
            },
        );
        chained.run(&stim);

        let sigs = |sim: &Simulator| -> Vec<(String, String)> {
            let mut v: Vec<(String, String)> = sim
                .trace()
                .iter()
                .map(|t| (t.signal.to_string(), t.by.to_string()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(sigs(&plain), sigs(&chained), "case={case}");
        assert!(
            chained.stats().busy_cycles <= plain.stats().busy_cycles,
            "case={case}"
        );
    }
}

/// The definition `Simulator::worst_latency` must agree with: for each
/// `input` stimulus, the first `output` entry in trace order at or after
/// it; `None` as soon as one stimulus has no such entry.
fn naive_worst_latency(
    sim: &Simulator,
    stim: &[Stimulus],
    input: &str,
    output: &str,
) -> Option<u64> {
    let mut worst = None;
    for s in stim.iter().filter(|s| s.signal == input) {
        let response = sim
            .trace()
            .iter()
            .find(|t| t.signal == output && t.time >= s.time)?;
        let lat = response.time - s.time;
        worst = Some(worst.map_or(lat, |w: u64| w.max(lat)));
    }
    worst
}

#[test]
fn worst_latency_matches_its_naive_definition() {
    let mut answered = 0;
    for case in 0..32u64 {
        let mut rng = Rng::new(0x1a7e ^ case.wrapping_mul(0x9e37));
        let net = random_network(4, &RandomSpec::default(), rng.u64(0..300));
        let stim: Vec<Stimulus> = (0..rng.usize(1..60))
            .map(|_| Stimulus::pure(rng.u64(0..200_000), format!("ext{}", rng.usize(0..4))))
            .collect();
        // Hardware stages emit ahead of the CPU clock, so these traces are
        // not sorted by time.
        let hardware = RtosConfig {
            hardware: ["m0".to_string(), "m2".to_string()].into_iter().collect(),
            ..RtosConfig::default()
        };
        for config in [RtosConfig::default(), hardware] {
            let mut sim = Simulator::build(&net, config);
            sim.run(&stim);
            for input in (0..4).map(|k| format!("ext{k}")) {
                for output in (1..=4).map(|k| format!("link{k}")) {
                    let want = naive_worst_latency(&sim, &stim, &input, &output);
                    answered += usize::from(want.is_some());
                    assert_eq!(
                        sim.worst_latency(&stim, &input, &output),
                        want,
                        "case={case} {input}->{output}"
                    );
                }
            }
        }
    }
    assert!(answered > 100, "only {answered} pairings had responses");
}
