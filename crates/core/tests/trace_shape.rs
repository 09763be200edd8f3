//! Golden test of the synthesis trace's shape: for every example spec
//! under five pipeline configurations, the sequence of stage records
//! that `synthesize_network_staged` writes — stage name, machine, and
//! every counter name and value in report order — must hash to a
//! constant recorded before the pipeline driver was restructured. Wall
//! times are left out; everything else a trace consumer reads is pinned.

use polis_core::workloads::{spec, SOURCES};
use polis_core::{synthesize_network_staged, ImplStyle, MetricValue, SynthTrace, SynthesisOptions};
use polis_rtos::RtosConfig;

/// `(spec, configuration, stage records, FNV-1a digest of the shape)`.
const GOLDEN: &[(&str, &str, usize, u64)] = &[
    ("simple", "default", 8, 0x47c34334c116787e),
    ("simple", "collapse", 9, 0xae7be3a07ef2e629),
    ("simple", "ite_chain", 7, 0x897bdf09fca821be),
    ("simple", "two_level", 6, 0x5ec1d66909ec5783),
    ("simple", "verify_refine", 10, 0xc18599e95d933f1b),
    ("seat_belt", "default", 8, 0x54a518750e617d81),
    ("seat_belt", "collapse", 9, 0x20a5a3090c2e08f5),
    ("seat_belt", "ite_chain", 7, 0x07dce5a844de93a1),
    ("seat_belt", "two_level", 6, 0xd1e680134abb9f2f),
    ("seat_belt", "verify_refine", 10, 0x7ddf83e5d1615244),
    ("shock_absorber", "default", 43, 0x2daca28975ddb391),
    ("shock_absorber", "collapse", 49, 0x8da1268419048eb0),
    ("shock_absorber", "ite_chain", 37, 0x6af17c7fdeedd458),
    ("shock_absorber", "two_level", 31, 0x730777b127c6c158),
    ("shock_absorber", "verify_refine", 45, 0xfd30400f39141c4e),
    ("dashboard", "default", 57, 0x9fbd11458d9402bf),
    ("dashboard", "collapse", 65, 0xaf70c5c883f1036d),
    ("dashboard", "ite_chain", 49, 0x9b38708545b9c99b),
    ("dashboard", "two_level", 41, 0x213656520362e486),
    ("dashboard", "verify_refine", 59, 0x18ca9586a8a74c52),
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Digests every record of `trace` except its wall time.
fn digest(trace: &SynthTrace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in trace.records() {
        fnv(&mut h, r.stage.as_bytes());
        fnv(&mut h, &[0]);
        match &r.machine {
            Some(m) => {
                fnv(&mut h, &[1]);
                fnv(&mut h, m.as_bytes());
            }
            None => fnv(&mut h, &[2]),
        }
        fnv(&mut h, &[0]);
        for (name, value) in &r.counters {
            fnv(&mut h, name.as_bytes());
            fnv(&mut h, &[0]);
            match *value {
                MetricValue::Int(v) => {
                    fnv(&mut h, &[1]);
                    fnv(&mut h, &v.to_le_bytes());
                }
                MetricValue::Float(f) => {
                    fnv(&mut h, &[2]);
                    fnv(&mut h, &f.to_bits().to_le_bytes());
                }
            }
        }
        fnv(&mut h, &[0xff]);
    }
    h
}

fn configurations() -> Vec<(&'static str, SynthesisOptions)> {
    let d = SynthesisOptions::default();
    vec![
        ("default", d),
        (
            "collapse",
            SynthesisOptions {
                collapse: true,
                ..d
            },
        ),
        (
            "ite_chain",
            SynthesisOptions {
                style: ImplStyle::IteChain,
                ..d
            },
        ),
        (
            "two_level",
            SynthesisOptions {
                style: ImplStyle::TwoLevel,
                ..d
            },
        ),
        (
            "verify_refine",
            SynthesisOptions {
                verify: true,
                verify_refine_estimates: true,
                ..d
            },
        ),
    ]
}

#[test]
fn trace_shape_matches_the_recorded_goldens() {
    let mut actual = Vec::new();
    for &(name, _) in SOURCES.iter() {
        let net = spec(name).network;
        for (config, opts) in configurations() {
            let (_, trace) = synthesize_network_staged(&net, &opts, &RtosConfig::default(), 1)
                .unwrap_or_else(|f| panic!("{name} under {config}: {f}"));
            actual.push((name, config, trace.records().len(), digest(&trace)));
        }
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(s, c, n, d)| format!("    ({s:?}, {c:?}, {n}, {d:#018x}),"))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "recorded trace shapes:\n{}",
        rendered.join("\n")
    );
    for (got, want) in actual.iter().zip(GOLDEN) {
        assert_eq!(got, want, "recorded trace shapes:\n{}", rendered.join("\n"));
    }
}
