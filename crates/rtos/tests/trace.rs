//! The segmented trace read back: a dashboard co-simulation long enough to
//! fill several 2,048-record trace segments. A reference copy of the trace
//! is rebuilt entry by entry as each `run` appends its emissions; at the
//! end `len`, `get` (at and around every segment boundary), iteration
//! order and `worst_latency` must all agree with it.

use polis_core::random::Rng;
use polis_core::workloads::spec;
use polis_rtos::{RtosConfig, Simulator, Stimulus, TraceEntry};
use polis_vm::Profile;

const SEGMENT: usize = 2048;

type Owned = (u64, String, Option<i64>, String);

fn owned(e: TraceEntry<'_>) -> Owned {
    (e.time, e.signal.to_owned(), e.value, e.by.to_owned())
}

#[test]
fn long_trace_reads_back_like_its_reference() {
    let net = spec("dashboard").network;
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
    let mut rng = Rng::new(0x7ace);
    let mut time = 0;
    let stim: Vec<Stimulus> = (0..6_000)
        .map(|_| {
            time += rng.u64(50..400);
            let (name, range) = rng.pick(&inputs);
            match range {
                Some((lo, hi)) => Stimulus::valued(time, name, rng.i64(*lo..*hi)),
                None => Stimulus::pure(time, name),
            }
        })
        .collect();

    let config = RtosConfig {
        profile: Profile::Risc32,
        ..RtosConfig::default()
    };
    let mut sim = Simulator::build(&net, config);
    let mut reference: Vec<Owned> = Vec::new();
    for chunk in stim.chunks(97) {
        sim.run(chunk);
        let trace = sim.trace();
        for i in reference.len()..trace.len() {
            reference.push(owned(trace.get(i).expect("appended entry")));
        }
    }
    let trace = sim.trace();
    assert!(
        reference.len() > 3 * SEGMENT,
        "only {} entries",
        reference.len()
    );
    assert_eq!(trace.len(), reference.len());
    assert!(!trace.is_empty());
    for k in 1..=reference.len() / SEGMENT {
        for i in k * SEGMENT - 1..=k * SEGMENT + 1 {
            assert_eq!(trace.get(i).map(owned).as_ref(), reference.get(i), "i={i}");
        }
    }
    assert!(trace.get(reference.len()).is_none());
    let iterated: Vec<Owned> = trace.iter().map(owned).collect();
    assert_eq!(iterated, reference);
    let mut looped = 0;
    for (e, want) in sim.trace().into_iter().zip(&reference) {
        assert_eq!(&owned(e), want);
        looped += 1;
    }
    assert_eq!(looped, reference.len());

    // `worst_latency` against its definition over the reference: for each
    // input stimulus, the first output entry in trace order at or after it.
    let outputs: Vec<String> = net
        .cfsms()
        .iter()
        .flat_map(|m| m.outputs())
        .map(|s| s.name().to_owned())
        .collect();
    let mut answered = 0;
    for (input, _) in &inputs {
        for output in &outputs {
            let times: Vec<u64> = reference
                .iter()
                .filter(|e| e.1 == *output)
                .map(|e| e.0)
                .collect();
            let mut want = None;
            for s in stim.iter().filter(|s| s.signal == *input) {
                match times.iter().find(|&&t| t >= s.time) {
                    Some(t) => want = Some(want.map_or(t - s.time, |w: u64| w.max(t - s.time))),
                    None => {
                        want = None;
                        break;
                    }
                }
            }
            answered += usize::from(want.is_some());
            assert_eq!(
                sim.worst_latency(&stim, input, output),
                want,
                "{input}->{output}"
            );
        }
    }
    assert!(answered > 0);
}
