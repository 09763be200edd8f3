//! Seeded workload inputs.
//!
//! Everything a run feeds the program is generated here from `--seed`
//! before any measurement starts: specification text for every machine
//! and network (so the `lang` parser is on the measured path, as it is
//! for `polis synth`), the property suites, and the co-simulation
//! stimulus streams. Equal seeds give equal inputs.

use polis::cfsm::Network;
use polis::core::random::{random_cfsm, random_network, RandomSpec, Rng};
use polis::expr::Type;
use polis::lang::{emit_network_source, emit_source, parse_network};
use polis::rtos::Stimulus;
use polis::vm::Profile;

/// The repository's example specifications, with their property suites.
const EXAMPLES: [(&str, &str); 4] = [
    ("simple", include_str!("../../examples/specs/simple.pol")),
    (
        "seat_belt",
        include_str!("../../examples/specs/seat_belt.pol"),
    ),
    (
        "shock_absorber",
        include_str!("../../examples/specs/shock_absorber.pol"),
    ),
    (
        "dashboard",
        include_str!("../../examples/specs/dashboard.pol"),
    ),
];

/// Shape of every `synth_fleet` machine: mid-size, so χ construction and
/// sifting dominate the per-machine time.
const FLEET_SPEC: RandomSpec = RandomSpec {
    states: 8,
    pure_inputs: 5,
    valued_inputs: 3,
    outputs: 2,
    vars: 1,
    transitions: 40,
};
/// Machines per `synth_fleet` pass: enough that p95 has ten samples
/// beyond it within a single pass.
const FLEET_SIZE: usize = 200;
/// `(stages, chains)` per `verify_relay` pass, each chain with its own
/// seeded wiring.
const RELAY_CHAINS: &[(usize, usize)] = &[(8, 6)];
/// `(stages, wiring seed)` of the larger chains every `verify_relay` pass
/// also verifies; with these wirings the verifier garbage-collects
/// mid-reach. Their wiring is fixed because the cost of a chain this size
/// swings with its wiring, and they set the p95. Short passes of items
/// this cheap give the per-pass statistics many samples.
const LARGE_CHAINS: &[(usize, u64)] = &[(10, 10), (10, 0x9e37_79b9_7f4a_7c15 ^ 10)];
/// Stimuli per co-simulated network in `synth_fleet` / `verify_relay`.
const SHORT_STREAM: usize = 2_000;
/// Stimuli in the `cosim_dashboard` stream (Table III's "large
/// simulation file", scaled up).
const LONG_STREAM: usize = 200_000;
/// Stimuli per `Simulator::run` call; one chunk is one `cosim_dashboard`
/// item.
pub const CHUNK: usize = 1_000;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Many mid-size random machines plus the example specs.
    SynthFleet,
    /// Relay chains and the example networks, verified with properties.
    VerifyRelay,
    /// The dashboard co-simulated on a long sensor stream.
    CosimDashboard,
}

impl Kind {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::SynthFleet, Kind::VerifyRelay, Kind::CosimDashboard];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SynthFleet => "synth_fleet",
            Kind::VerifyRelay => "verify_relay",
            Kind::CosimDashboard => "cosim_dashboard",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one latency sample of this workload covers.
    pub fn item(self) -> &'static str {
        match self {
            Kind::SynthFleet => "machine (parse + synthesize_cfsm)",
            Kind::VerifyRelay => "network (parse, synthesize, verify, properties, co-simulate)",
            Kind::CosimDashboard => "chunk of 1000 stimuli (Simulator::run)",
        }
    }
}

/// What the oracle knows about a network without running the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// An example spec, judged against its committed verdicts.
    Example(&'static str),
    /// A relay chain with this many stages, judged by closed form.
    Relay(usize),
}

/// One random machine as specification text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInput {
    /// Module (and network) name.
    pub name: String,
    /// `.pol` source of the single module.
    pub text: String,
}

/// One network with its property suite and stimulus stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkInput {
    /// Network name.
    pub name: String,
    /// `.pol` source: modules plus a `properties` block.
    pub text: String,
    /// What the oracle expects of its verdicts.
    pub expect: Expect,
    /// Environment events for co-simulation, in time order.
    pub stream: Vec<Stimulus>,
}

/// Everything one workload run feeds the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// Target profile for synthesis and co-simulation.
    pub profile: Profile,
    /// Single machines, synthesized one by one.
    pub machines: Vec<MachineInput>,
    /// Networks run through the whole flow.
    pub networks: Vec<NetworkInput>,
}

/// Generates the inputs of `kind` from `seed`.
pub fn generate(kind: Kind, seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let example = |name: &'static str, events: usize, rng: &mut Rng| {
        let text = EXAMPLES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| (*t).to_owned())
            .expect("example spec is embedded");
        network_input(name, text, Expect::Example(name), events, rng)
    };
    match kind {
        Kind::SynthFleet => {
            let machines = (0..FLEET_SIZE)
                .map(|i| {
                    let name = format!("f{i}");
                    let m = random_cfsm(&name, &FLEET_SPEC, rng.next_u64());
                    MachineInput {
                        text: emit_source(&m),
                        name,
                    }
                })
                .collect();
            let networks = EXAMPLES
                .iter()
                .map(|(name, _)| example(name, SHORT_STREAM, &mut rng))
                .collect();
            Workload {
                kind,
                seed,
                profile: Profile::Mcu8,
                machines,
                networks,
            }
        }
        Kind::VerifyRelay => {
            let mut networks: Vec<NetworkInput> = ["seat_belt", "shock_absorber", "dashboard"]
                .into_iter()
                .map(|name| example(name, SHORT_STREAM, &mut rng))
                .collect();
            let chains = RELAY_CHAINS
                .iter()
                .flat_map(|&(n, count)| (0..count).map(move |_| (n, None)))
                .chain(LARGE_CHAINS.iter().map(|&(n, wiring)| (n, Some(wiring))));
            for (c, (n, wiring)) in chains.enumerate() {
                let wiring = wiring.unwrap_or_else(|| rng.next_u64());
                let net = random_network(n, &RandomSpec::default(), wiring);
                let text = format!("{}\n{}", emit_network_source(&net), relay_suite(n));
                let name = format!("relay_chain_{n}_{c}");
                networks.push(network_input(
                    &name,
                    text,
                    Expect::Relay(n),
                    SHORT_STREAM,
                    &mut rng,
                ));
            }
            Workload {
                kind,
                seed,
                profile: Profile::Mcu8,
                machines: Vec::new(),
                networks,
            }
        }
        Kind::CosimDashboard => Workload {
            kind,
            seed,
            profile: Profile::Risc32,
            machines: Vec::new(),
            networks: vec![example("dashboard", LONG_STREAM, &mut rng)],
        },
    }
}

/// The suite every relay chain carries: its last stage's `b` state is
/// reachable, and it is reachable with the incoming link pending, so the
/// `never` assertion is violated and its counterexample trace decoded.
pub fn relay_suite(n: usize) -> String {
    let last = n - 1;
    format!(
        "properties {{\n    assert reachable m{last}@b;\n    \
         assert never m{last}@b && m{last}.link{last};\n}}\n"
    )
}

/// A network input: `text` parsed once to find its primary inputs, and
/// a stream of `events` stimuli on them.
pub fn network_input(
    name: &str,
    text: String,
    expect: Expect,
    events: usize,
    rng: &mut Rng,
) -> NetworkInput {
    let net = parse_network(name, &text).expect("generated specification parses");
    NetworkInput {
        name: name.to_owned(),
        stream: stream(&net, events, rng),
        text,
        expect,
    }
}

/// A seeded stream of `events` primary-input events, 50–400 cycles
/// apart: dense enough that one-place buffers are overwritten.
fn stream(net: &Network, events: usize, rng: &mut Rng) -> Vec<Stimulus> {
    let inputs: Vec<(String, Option<Type>)> = net
        .primary_inputs()
        .into_iter()
        .map(|name| {
            let ty = net
                .cfsms()
                .iter()
                .flat_map(|m| m.inputs())
                .find(|s| s.name() == name)
                .and_then(|s| s.value_type());
            (name, ty)
        })
        .collect();
    let mut time = 0;
    (0..events)
        .map(|_| {
            time += rng.u64(50..400);
            let (name, ty) = rng.pick(&inputs);
            match ty {
                Some(ty) => {
                    Stimulus::valued(time, name, rng.i64(ty.min_value()..ty.max_value() + 1))
                }
                None => Stimulus::pure(time, name),
            }
        })
        .collect()
}
