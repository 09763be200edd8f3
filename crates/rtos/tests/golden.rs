//! Golden differential test of the co-simulator: every example network
//! under every RTOS configuration it supports, on a seeded 20,000-event
//! stream fed in uneven chunks. The full `SimStats` and a digest of every
//! trace entry must equal constants recorded before the simulator routed
//! events by signal id, so any change to its routing, scheduling or cost
//! accounting shows up here as a mismatch.

use polis_cfsm::Network;
use polis_core::random::Rng;
use polis_core::workloads::{spec, SOURCES};
use polis_rtos::{DeliveryMode, RtosConfig, SchedulingPolicy, Simulator, Stimulus};
use polis_vm::Profile;

const EVENTS: usize = 20_000;
const CHUNK: usize = 777;

/// `(spec, configuration, Debug of the final SimStats, trace length,
/// FNV-1a digest of the trace)`.
const GOLDEN: &[(&str, &str, &str, usize, u64)] = &[
    ("simple", "mcu8", "SimStats { total_cycles: 4501767, busy_cycles: 2401250, reactions: [19810], fired: [19810], overwritten: [190], rtos_cycles: 994320, chained_reactions: 0, preempting_reactions: 0 }", 70, 0x02c3f0a999dff318),
    ("simple", "risc32", "SimStats { total_cycles: 4501737, busy_cycles: 1819483, reactions: [19983], fired: [19983], overwritten: [17], rtos_cycles: 999510, chained_reactions: 0, preempting_reactions: 0 }", 67, 0x604b6a7907db13e7),
    ("simple", "prio_preemptive", "SimStats { total_cycles: 4501767, busy_cycles: 2401250, reactions: [19810], fired: [19810], overwritten: [190], rtos_cycles: 994320, chained_reactions: 0, preempting_reactions: 0 }", 70, 0x02c3f0a999dff318),
    ("simple", "polled", "SimStats { total_cycles: 4502116, busy_cycles: 1211191, reactions: [9019], fired: [9019], overwritten: [10981], rtos_cycles: 570590, chained_reactions: 0, preempting_reactions: 0 }", 42, 0x3b74f05ec57912d8),
    ("simple", "hardware", "SimStats { total_cycles: 4501666, busy_cycles: 400020, reactions: [20000], fired: [20000], overwritten: [0], rtos_cycles: 400020, chained_reactions: 0, preempting_reactions: 0 }", 71, 0x9049d0ef200ca55e),
    ("seat_belt", "mcu8", "SimStats { total_cycles: 4485786, busy_cycles: 2328167, reactions: [19776], fired: [8039], overwritten: [5735], rtos_cycles: 993300, chained_reactions: 0, preempting_reactions: 0 }", 28, 0x36130028c2caf72d),
    ("seat_belt", "risc32", "SimStats { total_cycles: 4485766, busy_cycles: 1804912, reactions: [19965], fired: [8092], overwritten: [5724], rtos_cycles: 998970, chained_reactions: 0, preempting_reactions: 0 }", 30, 0x27ef4e724d2b3009),
    ("seat_belt", "prio_preemptive", "SimStats { total_cycles: 4485786, busy_cycles: 2328167, reactions: [19776], fired: [8039], overwritten: [5735], rtos_cycles: 993300, chained_reactions: 0, preempting_reactions: 0 }", 28, 0x36130028c2caf72d),
    ("seat_belt", "polled", "SimStats { total_cycles: 4485786, busy_cycles: 2172827, reactions: [18256], fired: [7893], overwritten: [5882], rtos_cycles: 922260, chained_reactions: 0, preempting_reactions: 0 }", 28, 0xf4f6858dac10904b),
    ("seat_belt", "hardware", "SimStats { total_cycles: 4485707, busy_cycles: 400020, reactions: [20000], fired: [8098], overwritten: [5724], rtos_cycles: 400020, chained_reactions: 0, preempting_reactions: 0 }", 30, 0x87d932a463c5f1d3),
    ("shock_absorber", "mcu8", "SimStats { total_cycles: 4484685, busy_cycles: 4095002, reactions: [3630, 6472, 3701, 6781, 5141, 6342], fired: [3630, 5552, 3701, 2779, 5141, 6342], overwritten: [304, 832, 292, 3582, 296, 320], rtos_cycles: 1362030, chained_reactions: 0, preempting_reactions: 0 }", 17344, 0x3690c8eed8784a7c),
    ("shock_absorber", "risc32", "SimStats { total_cycles: 4484612, busy_cycles: 3334363, reactions: [3871, 7476, 3923, 7625, 5821, 7357], fired: [3871, 6313, 3923, 3075, 5821, 7357], overwritten: [63, 686, 70, 3793, 57, 76], rtos_cycles: 1482210, chained_reactions: 0, preempting_reactions: 0 }", 18871, 0x768ca94b6c5a3ff8),
    ("shock_absorber", "prio_preemptive", "SimStats { total_cycles: 4485106, busy_cycles: 4231998, reactions: [2987, 6069, 3765, 7345, 5999, 7776], fired: [2987, 5216, 3765, 2907, 5999, 7776], overwritten: [947, 859, 228, 3558, 107, 114], rtos_cycles: 1418250, chained_reactions: 0, preempting_reactions: 10066 }", 17640, 0x6e8a739d29cdde30),
    ("shock_absorber", "polled", "SimStats { total_cycles: 4484990, busy_cycles: 3943583, reactions: [3380, 6030, 3665, 6691, 5065, 6178], fired: [3380, 5247, 3665, 2768, 5065, 6178], overwritten: [554, 780, 328, 3510, 335, 353], rtos_cycles: 1310620, chained_reactions: 0, preempting_reactions: 0 }", 16915, 0x9b852a6aaa69c387),
    ("shock_absorber", "chains", "SimStats { total_cycles: 4484684, busy_cycles: 3852818, reactions: [3715, 6859, 3794, 7650, 5679, 6848], fired: [3715, 5850, 3794, 3050, 5679, 6848], overwritten: [219, 745, 199, 3648, 169, 229], rtos_cycles: 925050, chained_reactions: 17044, preempting_reactions: 0 }", 18153, 0x52a148c056652403),
    ("shock_absorber", "hardware", "SimStats { total_cycles: 4484690, busy_cycles: 3733052, reactions: [3934, 7299, 3838, 7188, 5464, 6901], fired: [3934, 6147, 3838, 2924, 5464, 6901], overwritten: [0, 951, 155, 3674, 162, 157], rtos_cycles: 1320720, chained_reactions: 0, preempting_reactions: 0 }", 18320, 0x2ed10f91406bc1e2),
    ("dashboard", "mcu8", "SimStats { total_cycles: 4507061, busy_cycles: 4464381, reactions: [4559, 4529, 3258, 3242, 3258, 3233, 3258, 3233], fired: [4559, 4529, 3258, 3242, 3258, 3233, 3258, 3233], overwritten: [3468, 3445, 0, 0, 0, 1762, 0, 0], rtos_cycles: 1257120, chained_reactions: 0, preempting_reactions: 0 }", 22737, 0x7e7dbf7c5a5958eb),
    ("dashboard", "risc32", "SimStats { total_cycles: 4506819, busy_cycles: 4068483, reactions: [7306, 7330, 4196, 4178, 4196, 4314, 4196, 4314], fired: [7306, 7330, 4196, 4178, 4196, 4314, 4196, 4314], overwritten: [1526, 1505, 0, 0, 0, 681, 0, 0], rtos_cycles: 1600920, chained_reactions: 0, preempting_reactions: 0 }", 29603, 0xd046efd70047e499),
    ("dashboard", "prio_preemptive", "SimStats { total_cycles: 4507140, busy_cycles: 4463119, reactions: [2564, 5492, 1876, 3457, 1876, 4472, 1876, 4472], fired: [2564, 5492, 1876, 3457, 1876, 4472, 1876, 4472], overwritten: [5931, 3020, 0, 0, 0, 523, 0, 0], rtos_cycles: 1182570, chained_reactions: 0, preempting_reactions: 5062 }", 21492, 0xf3ef37a146e981de),
    ("dashboard", "polled", "SimStats { total_cycles: 4507144, busy_cycles: 4448983, reactions: [4579, 4496, 3264, 3259, 3264, 3250, 3264, 3250], fired: [4579, 4496, 3264, 3259, 3264, 3250, 3264, 3250], overwritten: [3452, 3494, 0, 0, 0, 1745, 0, 0], rtos_cycles: 1233965, chained_reactions: 0, preempting_reactions: 0 }", 22823, 0x6ecfe2cecb214b06),
    ("dashboard", "chains", "SimStats { total_cycles: 4506752, busy_cycles: 4406283, reactions: [5454, 5181, 3553, 3309, 3553, 3566, 3553, 3566], fired: [5454, 5181, 3553, 3309, 3553, 3566, 3553, 3566], overwritten: [2817, 2991, 0, 0, 0, 1429, 0, 0], rtos_cycles: 826050, chained_reactions: 17534, preempting_reactions: 0 }", 24428, 0x4dcce0213eb5c950),
    ("dashboard", "hardware", "SimStats { total_cycles: 4507235, busy_cycles: 4297267, reactions: [10038, 5312, 3564, 3437, 3353, 3601, 3564, 3601], fired: [10038, 5312, 3564, 3437, 3353, 3601, 3564, 3601], overwritten: [0, 2877, 1450, 0, 1661, 1394, 0, 0], rtos_cycles: 1192980, chained_reactions: 0, preempting_reactions: 0 }", 26252, 0xc4b277ade86cee82),
];

/// The configurations that apply to `net`; chaining needs two machines.
fn configs(net: &Network) -> Vec<(&'static str, RtosConfig)> {
    let names: Vec<String> = net.cfsms().iter().map(|m| m.name().to_owned()).collect();
    let n = names.len() as u32;
    let mut out = vec![
        ("mcu8", RtosConfig::default()),
        (
            "risc32",
            RtosConfig {
                profile: Profile::Risc32,
                ..RtosConfig::default()
            },
        ),
        (
            "prio_preemptive",
            RtosConfig {
                policy: SchedulingPolicy::StaticPriority {
                    priorities: (0..n).rev().collect(),
                },
                preemptive: true,
                ..RtosConfig::default()
            },
        ),
        (
            "polled",
            RtosConfig {
                delivery: [(
                    net.primary_inputs()[0].clone(),
                    DeliveryMode::Polled { period: 500 },
                )]
                .into_iter()
                .collect(),
                ..RtosConfig::default()
            },
        ),
    ];
    if names.len() > 1 {
        let chains = names
            .iter()
            .flat_map(|a| names.iter().map(move |b| (a.clone(), b.clone())))
            .filter(|(a, b)| a != b)
            .collect();
        out.push((
            "chains",
            RtosConfig {
                chains,
                ..RtosConfig::default()
            },
        ));
    }
    out.push((
        "hardware",
        RtosConfig {
            hardware: [names[0].clone()].into_iter().collect(),
            ..RtosConfig::default()
        },
    ));
    out
}

/// A seeded stream of primary-input events 50–400 cycles apart, plus one
/// event on a signal no machine reads.
fn stream(net: &Network, seed: u64) -> Vec<Stimulus> {
    let inputs: Vec<(String, Option<(i64, i64)>)> = net
        .primary_inputs()
        .into_iter()
        .map(|name| {
            let range = net
                .cfsms()
                .iter()
                .flat_map(|m| m.inputs())
                .find(|s| s.name() == name)
                .and_then(|s| s.value_type())
                .map(|ty| (ty.min_value(), ty.max_value() + 1));
            (name, range)
        })
        .collect();
    let mut rng = Rng::new(seed);
    let mut time = 0;
    let mut out: Vec<Stimulus> = (0..EVENTS)
        .map(|_| {
            time += rng.u64(50..400);
            let (name, range) = rng.pick(&inputs);
            match range {
                Some((lo, hi)) => Stimulus::valued(time, name, rng.i64(*lo..*hi)),
                None => Stimulus::pure(time, name),
            }
        })
        .collect();
    out.insert(
        EVENTS / 2,
        Stimulus::pure(out[EVENTS / 2].time, "nobody_reads"),
    );
    out
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn trace_digest(sim: &Simulator) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for t in sim.trace() {
        fnv(&mut h, &t.time.to_le_bytes());
        fnv(&mut h, t.signal.as_bytes());
        fnv(&mut h, &[0]);
        match t.value {
            Some(v) => fnv(&mut h, &[&[1u8][..], &v.to_le_bytes()].concat()),
            None => fnv(&mut h, &[0]),
        }
        fnv(&mut h, t.by.as_bytes());
        fnv(&mut h, &[0]);
    }
    h
}

#[test]
fn simulations_match_the_recorded_goldens() {
    let mut actual = Vec::new();
    for (si, (name, _)) in SOURCES.iter().enumerate() {
        let net = spec(name).network;
        let stim = stream(&net, 0x601d ^ si as u64);
        for (cname, config) in configs(&net) {
            let mut sim = Simulator::build(&net, config);
            for chunk in stim.chunks(CHUNK) {
                sim.run(chunk);
            }
            actual.push((
                *name,
                cname,
                format!("{:?}", sim.stats()),
                sim.trace().len(),
                trace_digest(&sim),
            ));
        }
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(s, c, st, len, d)| format!("    ({s:?}, {c:?}, {st:?}, {len}, {d:#018x}),"))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "recorded runs:\n{}",
        rendered.join("\n")
    );
    for (got, want) in actual.iter().zip(GOLDEN) {
        let (s, c, st, len, d) = got;
        assert_eq!(
            (*s, *c, st.as_str(), *len, *d),
            *want,
            "recorded runs:\n{}",
            rendered.join("\n")
        );
    }
}
