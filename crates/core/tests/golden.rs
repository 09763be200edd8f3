//! Golden test of per-machine synthesis: every machine of every example
//! spec, and a seeded fleet of mid-size random machines, synthesized under
//! both constrained sifting schemes. The generated C, object size and
//! exact min/max cycles of each group must equal constants recorded before
//! χ construction, output supports and the sifting walk were reworked, so
//! any change to what synthesis produces shows up here as a mismatch.

use polis_cfsm::{Cfsm, OrderScheme};
use polis_core::random::{random_cfsm, RandomSpec, Rng};
use polis_core::workloads::{spec, SOURCES};
use polis_core::{synthesize, SynthesisOptions};

/// The shape of a `synth_fleet` benchmark machine.
const FLEET_SPEC: RandomSpec = RandomSpec {
    states: 8,
    pure_inputs: 5,
    valued_inputs: 3,
    outputs: 2,
    vars: 1,
    transitions: 40,
};
const FLEET_SIZE: usize = 100;

/// `(group, scheme, machines, total object bytes, total max cycles,
/// FNV-1a digest of every machine's C, size and min/max cycles)`.
const GOLDEN: &[(&str, &str, usize, u64, u64, u64)] = &[
    ("simple", "support", 1, 43, 77, 0x1a2893553d1be2bf),
    ("simple", "inputs", 1, 46, 77, 0xaab1dcb9ba9f837f),
    ("seat_belt", "support", 1, 112, 133, 0x447408e4b81bccc3),
    ("seat_belt", "inputs", 1, 112, 133, 0x447408e4b81bccc3),
    ("shock_absorber", "support", 6, 413, 658, 0x6bd43e9778a28f7b),
    ("shock_absorber", "inputs", 6, 441, 658, 0xbfa14a8443bdb66c),
    ("dashboard", "support", 8, 381, 988, 0x8878f84e948695df),
    ("dashboard", "inputs", 8, 384, 991, 0x2f5308cabde7f47e),
    ("fleet", "support", 100, 76491, 20275, 0xc2f8018ec8f8a045),
    ("fleet", "inputs", 100, 76400, 20265, 0x0b82fe2162dba79d),
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn fleet() -> Vec<Cfsm> {
    let mut rng = Rng::new(0xf1ee7);
    (0..FLEET_SIZE)
        .map(|i| random_cfsm(&format!("f{i}"), &FLEET_SPEC, rng.next_u64()))
        .collect()
}

/// Synthesizes `machines` under `scheme` and summarizes the outputs.
fn record(machines: &[Cfsm], scheme: OrderScheme) -> (usize, u64, u64, u64) {
    let opts = SynthesisOptions {
        scheme,
        ..SynthesisOptions::default()
    };
    let (mut bytes, mut cycles, mut h) = (0, 0, 0xcbf2_9ce4_8422_2325);
    for m in machines {
        let s = synthesize(m, &opts);
        fnv(&mut h, m.name().as_bytes());
        fnv(&mut h, &[0]);
        fnv(&mut h, s.c_code.as_bytes());
        fnv(&mut h, &[0]);
        let me = &s.measured;
        for v in [me.size_bytes, me.min_cycles, me.max_cycles] {
            fnv(&mut h, &v.to_le_bytes());
        }
        bytes += me.size_bytes;
        cycles += me.max_cycles;
    }
    (machines.len(), bytes, cycles, h)
}

#[test]
fn synthesis_matches_the_recorded_goldens() {
    let mut groups: Vec<(&str, Vec<Cfsm>)> = SOURCES
        .iter()
        .map(|(name, _)| (*name, spec(name).network.cfsms().to_vec()))
        .collect();
    groups.push(("fleet", fleet()));
    let mut actual = Vec::new();
    for (group, machines) in &groups {
        for (sname, scheme) in [
            ("support", OrderScheme::OutputsAfterSupport),
            ("inputs", OrderScheme::OutputsAfterAllInputs),
        ] {
            let (n, bytes, cycles, digest) = record(machines, scheme);
            actual.push((*group, sname, n, bytes, cycles, digest));
        }
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(g, s, n, b, c, d)| format!("    ({g:?}, {s:?}, {n}, {b}, {c}, {d:#018x}),"))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "recorded syntheses:\n{}",
        rendered.join("\n")
    );
    for (got, want) in actual.iter().zip(GOLDEN) {
        assert_eq!(got, want, "recorded syntheses:\n{}", rendered.join("\n"));
    }
}
