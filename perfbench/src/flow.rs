//! One job per item, through the public API of each layer.
//!
//! A machine job parses one module and synthesizes it. A network job
//! parses a network with its properties, synthesizes every machine and
//! the RTOS, verifies the network, checks its properties, and
//! co-simulates it on the job's stimulus stream.
//!
//! Untraced, synthesis goes through `polis-core`'s own entry points
//! (`synthesize_with_params`, `synthesize_network`). Traced, the same
//! per-machine pipeline is composed here from the layers' public calls,
//! each wrapped in a span. The runner checks that both give the same
//! artifacts, so the traced composition cannot drift from the core one.

use crate::inputs::{MachineInput, NetworkInput, CHUNK};
use crate::oracle::Verdicts;
use crate::spans::Recorder;
use polis::cfsm::{Cfsm, Network, ReactiveFn};
use polis::codegen::{emit_c, measure_c, CodegenOptions};
use polis::core::{synthesize_network, synthesize_with_params, Measured, SynthesisOptions};
use polis::estimate::{
    calibrate, derive_incompatibilities, estimate, max_cycles_false_path_aware, CostParams,
    Estimate,
};
use polis::lang::{parse_network, parse_spec};
use polis::rtos::{emit_rtos_c, RtosConfig, SimStats, Simulator};
use polis::sgraph::build;
use polis::verify::{CexTrace, Verifier, VerifyOptions};
use polis::vm::{analyze, assemble, compile, ObjectCode, Profile, VmProgram};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Options every job of a run shares.
pub struct Config {
    /// Synthesis options: the defaults, on the workload's target.
    pub opts: SynthesisOptions,
    /// Cost parameters calibrated for the target.
    pub params: CostParams,
    /// RTOS: default round-robin with interrupt delivery.
    pub rtos: RtosConfig,
    /// Verification with ring storage, so counterexamples are decoded.
    pub vopts: VerifyOptions,
}

impl Config {
    /// The configuration for `profile`.
    pub fn new(profile: Profile) -> Config {
        let opts = SynthesisOptions {
            profile,
            ..SynthesisOptions::default()
        };
        Config {
            params: calibrate(profile),
            rtos: RtosConfig {
                profile,
                buffering: opts.buffering,
                ..RtosConfig::default()
            },
            vopts: VerifyOptions {
                trace_rings: true,
                ..VerifyOptions::default()
            },
            opts,
        }
    }
}

/// What synthesis produced for one machine.
pub struct Synth {
    /// The machine.
    pub cfsm: Cfsm,
    /// Generated C.
    pub c_code: String,
    /// Compiled routine.
    pub program: VmProgram,
    /// Assembled object code.
    pub object: ObjectCode,
    /// Exact size and cycle bounds of the object code.
    pub measured: Measured,
    /// Parameter-based estimate.
    pub estimate: Estimate,
    /// The false-path-aware bound, if incompatibilities exist.
    pub false_path: Option<u64>,
}

impl Synth {
    fn digest(&self, h: &mut DefaultHasher) {
        self.cfsm.name().hash(h);
        self.c_code.hash(h);
        (self.program.ram_bytes(), self.object.size_bytes()).hash(h);
        let m = &self.measured;
        (m.size_bytes, m.min_cycles, m.max_cycles, m.ram_bytes).hash(h);
        let e = &self.estimate;
        (e.size_bytes, e.min_cycles, e.max_cycles, e.ram_bytes).hash(h);
        self.false_path.hash(h);
    }
}

fn untraced_synth(cfg: &Config, cfsm: Cfsm) -> Synth {
    let s = synthesize_with_params(&cfsm, &cfg.opts, &cfg.params);
    from_core(cfsm, s)
}

fn from_core(cfsm: Cfsm, s: polis::core::CfsmSynthesis) -> Synth {
    Synth {
        cfsm,
        c_code: s.c_code,
        program: s.program,
        object: s.object,
        measured: s.measured,
        estimate: s.estimate,
        false_path: s.max_cycles_false_path_aware,
    }
}

/// `synthesize_cfsm`'s decision-graph pipeline, one span per layer call.
fn traced_synth(cfg: &Config, params: &CostParams, cfsm: Cfsm, rec: &mut Recorder) -> Synth {
    let opts = &cfg.opts;
    let mut rf = rec.span("cfsm.chi", || ReactiveFn::build(&cfsm));
    let nodes_before = rf.size() as f64;
    rec.add("cfsm.chi_nodes", nodes_before);
    rec.span("bdd.sift", || {
        rf.sift_with_passes(opts.scheme, opts.sift_passes)
    });
    let st = rf.bdd().stats();
    rec.add("bdd.nodes_before_sift", nodes_before);
    rec.add("bdd.nodes_after_sift", rf.size() as f64);
    rec.add("bdd.swaps", st.swap_count as f64);
    rec.add("bdd.mk_calls", st.mk_calls as f64);
    rec.add("bdd.cache_lookups", st.cache_lookups as f64);
    rec.add("bdd.cache_hits", st.cache_hits as f64);
    rec.add("bdd.reclaimed_nodes", st.reclaimed_nodes as f64);
    rec.max("bdd.peak_live_nodes", st.peak_live_nodes as f64);
    let graph = rec
        .span("sgraph.build", || build(&rf))
        .expect("validated CFSMs synthesize");
    let gs = graph.stats();
    rec.add("sgraph.nodes", gs.nodes as f64);
    rec.add("sgraph.tests", gs.tests as f64);
    let (program, object) = rec.span("vm.compile", || {
        let program = compile(&cfsm, &graph, opts.buffering);
        let object = assemble(&program, opts.profile);
        (program, object)
    });
    let c_code = rec.span("codegen.emit", || {
        let copts = CodegenOptions {
            buffering: opts.buffering,
            ..CodegenOptions::default()
        };
        emit_c(&cfsm, &graph, &copts)
    });
    rec.add("codegen.c_bytes", measure_c(&c_code).bytes as f64);
    let est = rec.span("estimate.estimate", || {
        estimate(&cfsm, &graph, params, opts.buffering)
    });
    let false_path = rec.span("estimate.falsepath", || {
        let incompats = derive_incompatibilities(&cfsm);
        (!incompats.is_empty())
            .then(|| max_cycles_false_path_aware(&cfsm, &graph, params, &incompats))
    });
    let bounds = rec.span("vm.analyze", || analyze(&program, &object));
    let measured = Measured {
        size_bytes: u64::from(object.size_bytes()),
        min_cycles: bounds.min_cycles,
        max_cycles: bounds.max_cycles,
        ram_bytes: u64::from(program.ram_bytes()),
    };
    Synth {
        cfsm,
        c_code,
        program,
        object,
        measured,
        estimate: est,
        false_path,
    }
}

/// Parses and synthesizes one machine.
///
/// # Errors
///
/// A parse error. Synthesis failures panic inside the program and are
/// caught by the runner.
pub fn machine_job(
    cfg: &Config,
    input: &MachineInput,
    rec: &mut Recorder,
) -> Result<Synth, String> {
    let net = rec
        .span("lang.parse", || parse_network(&input.name, &input.text))
        .map_err(|e| format!("{}: {e}", input.name))?;
    let cfsm = net.cfsms()[0].clone();
    Ok(if rec.enabled() {
        traced_synth(cfg, &cfg.params, cfsm, rec)
    } else {
        untraced_synth(cfg, cfsm)
    })
}

/// Digest of a machine job's artifacts.
pub fn machine_digest(s: &Synth) -> u64 {
    let mut h = DefaultHasher::new();
    s.digest(&mut h);
    h.finish()
}

/// What a network job produced.
pub struct NetOut {
    /// The parsed network.
    pub net: Network,
    /// Per machine, in network order.
    pub machines: Vec<Synth>,
    /// Generated RTOS source.
    pub rtos_c: String,
    /// Verification and property verdicts.
    pub verdicts: Verdicts,
    /// Decoded traces: counterexamples and reachability witnesses.
    pub traces: Vec<CexTrace>,
    /// Co-simulation statistics.
    pub sim: SimStats,
    /// Emissions the co-simulation observed.
    pub sim_emissions: usize,
    /// Wall time of each `Simulator::run` chunk, in milliseconds.
    pub chunk_ms: Vec<f64>,
}

/// Runs one network through the whole flow.
///
/// # Errors
///
/// A parse or verification error.
pub fn network_job(
    cfg: &Config,
    input: &NetworkInput,
    rec: &mut Recorder,
) -> Result<NetOut, String> {
    let spec = rec
        .span("lang.parse", || parse_spec(&input.name, &input.text))
        .map_err(|e| format!("{}: {e}", input.name))?;
    let net = spec.network;
    let (machines, rtos_c) = if rec.enabled() {
        let params = rec.span("estimate.calibrate", || calibrate(cfg.opts.profile));
        let machines = net
            .cfsms()
            .iter()
            .map(|m| traced_synth(cfg, &params, m.clone(), rec))
            .collect();
        let rtos_c = rec.span("rtos.emit", || emit_rtos_c(&net, &cfg.rtos));
        (machines, rtos_c)
    } else {
        let ns = synthesize_network(&net, &cfg.opts, &cfg.rtos);
        let machines = net
            .cfsms()
            .iter()
            .cloned()
            .zip(ns.machines)
            .map(|(m, s)| from_core(m, s))
            .collect();
        (machines, ns.rtos_c)
    };

    let mut v = rec
        .span("verify.run", || Verifier::run(&net, &cfg.vopts))
        .map_err(|e| format!("{}: {e}", input.name))?;
    let report = rec.span("verify.checks", || v.report());
    let props = rec.span("verify.props", || v.check_properties(&spec.properties));
    let vs = &report.stats;
    rec.add("verify.iterations", vs.iterations as f64);
    rec.add("verify.image_steps", vs.image_steps as f64);
    rec.max("verify.peak_frontier_nodes", vs.peak_frontier_nodes as f64);
    rec.add("bdd.andex_lookups", vs.andex_lookups as f64);
    rec.add("bdd.andex_hits", vs.andex_hits as f64);
    rec.add("bdd.cube_quant_calls", vs.cube_quant_calls as f64);
    rec.add(
        "bdd.constrain_reduced_nodes",
        vs.constrain_reduced_nodes as f64,
    );
    rec.add("bdd.gcs", vs.mid_reach_collections as f64);
    rec.max("bdd.peak_live_nodes", vs.peak_live_nodes as f64);
    rec.add("verify.preimage_nodes", props.preimage_nodes as f64);
    rec.add("verify.rings_stored", props.rings_stored as f64);
    rec.max("verify.max_trace_len", props.max_trace_len as f64);
    let traces: Vec<CexTrace> = props
        .results
        .iter()
        .filter_map(|r| r.trace.clone())
        .collect();
    let verdicts = Verdicts {
        reached_states: vs.reached_states,
        lost_consumers: report
            .lost_events
            .iter()
            .filter(|e| e.possible)
            .map(|e| e.consumer.clone())
            .collect(),
        lost_possible: report.lost_events.iter().filter(|e| e.possible).count(),
        dead_transitions: report.dead_transitions.len(),
        deadlock: report.deadlock.is_some(),
        props: props.results.iter().map(|r| r.holds).collect(),
        trace_lens: props
            .results
            .iter()
            .filter(|r| !r.holds)
            .map(|r| r.trace.as_ref().map_or(0, |t| t.steps.len()))
            .collect(),
    };

    let mut sim = rec.span("rtos.build", || Simulator::build(&net, cfg.rtos.clone()));
    let mut chunk_ms = Vec::with_capacity(input.stream.len() / CHUNK + 1);
    for chunk in input.stream.chunks(CHUNK) {
        let t = Instant::now();
        rec.span("rtos.run", || sim.run(chunk));
        chunk_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let stats = sim.stats().clone();
    rec.add("rtos.reactions", stats.reactions.iter().sum::<u64>() as f64);
    rec.add("rtos.rtos_cycles", stats.rtos_cycles as f64);
    rec.add(
        "rtos.overwritten",
        stats.overwritten.iter().sum::<u64>() as f64,
    );
    Ok(NetOut {
        machines,
        rtos_c,
        verdicts,
        traces,
        sim: stats,
        sim_emissions: sim.trace().len(),
        chunk_ms,
        net,
    })
}

/// Digest of a network job's artifacts: generated code, verdicts and
/// co-simulation results.
pub fn network_digest(out: &NetOut) -> u64 {
    let mut h = DefaultHasher::new();
    for m in &out.machines {
        m.digest(&mut h);
    }
    out.rtos_c.hash(&mut h);
    out.verdicts.hash(&mut h);
    let s = &out.sim;
    (s.total_cycles, s.busy_cycles, s.rtos_cycles).hash(&mut h);
    (&s.reactions, &s.fired, &s.overwritten, out.sim_emissions).hash(&mut h);
    h.finish()
}
