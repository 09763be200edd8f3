//! The synthesis pipeline as explicit, uniformly instrumented stages.
//!
//! Each step of the five-step procedure (χ/BDD construction, constrained
//! sifting, s-graph build, TEST collapsing, instruction selection +
//! assembly, C emission, cost estimation, exact measurement, RTOS
//! generation) is a plain function that reports its layer's native
//! counters through a [`SynthCtx`]; the context times each call and
//! appends one record per stage to a [`SynthTrace`].
//!
//! [`synthesize_cfsm`] chains the per-machine stages for the selected
//! [`ImplStyle`]; [`synthesize_network_staged`] fans the per-machine
//! pipeline out across `jobs` scoped worker threads — each worker owns
//! its own BDD manager (one per [`ReactiveFn`]), and results are merged
//! in network (input) order, so parallel output is byte-identical to the
//! sequential run.

use crate::trace::{MetricValue, StageRecord, SynthTrace};
use crate::{
    CfsmSynthesis, ImplStyle, Measured, NetworkSynthesis, SynthesisOptions, RTOS_RAM_PER_TASK,
    RTOS_ROM_BYTES,
};
use polis_cfsm::{Cfsm, Network, ReactiveFn};
use polis_codegen::{emit_c, measure_c, two_level_sgraph, CodegenOptions};
use polis_estimate::{
    calibrate, derive_incompatibilities, estimate, max_cycles_false_path_aware, CostParams,
    Estimate, Incompat,
};
use polis_rtos::{emit_rtos_c, RtosConfig};
use polis_sgraph::{build, collapse, ite_chain, BuildError, CollapseOptions, SGraph};
use polis_verify::{Verifier, VerifyError, VerifyOptions, VerifyReport};
use polis_vm::{analyze, assemble, compile, ObjectCode, VmProgram};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A failure inside the staged pipeline.
#[derive(Debug)]
pub enum SynthError {
    /// The s-graph builder rejected the reactive function.
    SgraphBuild(BuildError),
    /// Symbolic network verification aborted (node-budget overflow).
    Verify(VerifyError),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::SgraphBuild(e) => write!(f, "s-graph build failed: {e:?}"),
            SynthError::Verify(e) => write!(f, "network verification failed: {e}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// A staged-pipeline failure carrying everything recorded before the
/// abort, so callers can flush a partial trace instead of losing the
/// run's instrumentation.
#[derive(Debug)]
pub struct SynthFailure {
    /// What went wrong.
    pub error: SynthError,
    /// Every stage record completed before (and including) the failing
    /// stage.
    pub trace: SynthTrace,
}

impl std::fmt::Display for SynthFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for SynthFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Per-run synthesis context: configuration plus the growing trace.
///
/// One `SynthCtx` is threaded through every stage of one machine's
/// synthesis, and one more through the network-level stages. Under
/// `--jobs N` each worker thread owns its own context; traces are merged
/// in network order afterwards.
pub struct SynthCtx<'a> {
    /// Pipeline configuration.
    pub opts: &'a SynthesisOptions,
    /// Pre-calibrated target cost parameters.
    pub params: &'a CostParams,
    machine: Option<String>,
    trace: SynthTrace,
    open: Vec<(&'static str, MetricValue)>,
}

impl<'a> SynthCtx<'a> {
    /// Creates a context with an empty trace.
    pub fn new(opts: &'a SynthesisOptions, params: &'a CostParams) -> SynthCtx<'a> {
        SynthCtx {
            opts,
            params,
            machine: None,
            trace: SynthTrace::new(),
            open: Vec::new(),
        }
    }

    /// Consumes the context, yielding its trace.
    pub fn into_trace(self) -> SynthTrace {
        self.trace
    }

    /// Reports an integral counter for the stage currently running.
    fn count(&mut self, name: &'static str, value: u64) {
        self.open.push((name, MetricValue::Int(value)));
    }

    /// Reports a ratio/rate counter for the stage currently running.
    fn ratio(&mut self, name: &'static str, value: f64) {
        self.open.push((name, MetricValue::Float(value)));
    }

    /// Runs `body` as the stage `name`: times it, attributes the counters
    /// it reports to one appended record, and returns its output.
    fn stage<O>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> O) -> O {
        let start = Instant::now();
        let out = body(self);
        self.trace.push(StageRecord {
            stage: name,
            machine: self.machine.clone(),
            wall: start.elapsed(),
            counters: std::mem::take(&mut self.open),
        });
        out
    }
}

// ---------------------------------------------------------------------
// Stages: each reports its layer's counters through `ctx`.
// ---------------------------------------------------------------------

fn stage_chi(ctx: &mut SynthCtx<'_>, cfsm: &Cfsm) -> ReactiveFn {
    let rf = ReactiveFn::build(cfsm);
    let st = rf.bdd().stats();
    ctx.count("bdd_nodes", rf.size() as u64);
    ctx.count("mk_calls", st.mk_calls);
    ctx.count("unique_entries", st.unique_entries);
    ctx.count("cache_lookups", st.cache_lookups);
    ctx.count("cache_hits", st.cache_hits);
    ctx.ratio("cache_hit_rate", st.hit_rate());
    ctx.count("cache_evictions", st.cache_evictions);
    ctx.count("peak_live_nodes", st.peak_live_nodes);
    ctx.ratio("unique_probe_len", st.avg_probe_len());
    rf
}

fn stage_sift(ctx: &mut SynthCtx<'_>, mut rf: ReactiveFn) -> ReactiveFn {
    let nodes_before = rf.size() as u64;
    let swaps_before = rf.bdd().stats().swap_count;
    rf.sift_with_passes(ctx.opts.scheme, ctx.opts.sift_passes);
    let st = rf.bdd().stats();
    ctx.count("bdd_nodes_before", nodes_before);
    ctx.count("bdd_nodes_after", rf.size() as u64);
    ctx.count("swaps", st.swap_count - swaps_before);
    ctx.count("cache_lookups", st.cache_lookups);
    ctx.ratio("cache_hit_rate", st.hit_rate());
    ctx.count("reclaimed_nodes", st.reclaimed_nodes);
    ctx.count("peak_live_nodes", st.peak_live_nodes);
    ctx.count("memo_hits", st.memo_hits);
    rf
}

/// The `sgraph` stage's counters, common to every style's builder.
fn record_sgraph(ctx: &mut SynthCtx<'_>, g: SGraph) -> SGraph {
    let st = g.stats();
    ctx.count("nodes", st.nodes as u64);
    ctx.count("reachable", st.reachable as u64);
    ctx.count("tests", st.tests as u64);
    ctx.count("assigns", st.assigns as u64);
    ctx.count("depth", st.depth as u64);
    g
}

fn stage_collapse(ctx: &mut SynthCtx<'_>, g: SGraph) -> SGraph {
    let before = g.stats();
    let c = collapse(&g, CollapseOptions::default());
    let after = c.stats();
    ctx.count("nodes_before", before.reachable as u64);
    ctx.count("nodes_after", after.reachable as u64);
    ctx.count("tests_before", before.tests as u64);
    ctx.count("tests_after", after.tests as u64);
    c
}

fn stage_compile(ctx: &mut SynthCtx<'_>, cfsm: &Cfsm, graph: &SGraph) -> (VmProgram, ObjectCode) {
    let program = compile(cfsm, graph, ctx.opts.buffering);
    let object = assemble(&program, ctx.opts.profile);
    ctx.count("code_bytes", u64::from(object.size_bytes()));
    ctx.count("ram_bytes", u64::from(program.ram_bytes()));
    (program, object)
}

fn stage_emit(ctx: &mut SynthCtx<'_>, cfsm: &Cfsm, graph: &SGraph) -> String {
    let c_code = emit_c(
        cfsm,
        graph,
        &CodegenOptions {
            buffering: ctx.opts.buffering,
            ..CodegenOptions::default()
        },
    );
    let st = measure_c(&c_code);
    ctx.count("lines", st.lines);
    ctx.count("bytes", st.bytes);
    ctx.count("gotos", st.gotos);
    c_code
}

fn stage_estimate(ctx: &mut SynthCtx<'_>, cfsm: &Cfsm, graph: &SGraph) -> (Estimate, Option<u64>) {
    let est = estimate(cfsm, graph, ctx.params, ctx.opts.buffering);
    let incompats = derive_incompatibilities(cfsm);
    let false_path_aware = (!incompats.is_empty())
        .then(|| max_cycles_false_path_aware(cfsm, graph, ctx.params, &incompats));
    ctx.count("est_size_bytes", est.size_bytes);
    ctx.count("est_min_cycles", est.min_cycles);
    ctx.count("est_max_cycles", est.max_cycles);
    ctx.count("est_ram_bytes", est.ram_bytes);
    ctx.count("incompatibilities", incompats.len() as u64);
    if let Some(fp) = false_path_aware {
        ctx.count("est_max_cycles_false_path_aware", fp);
    }
    (est, false_path_aware)
}

fn stage_measure(ctx: &mut SynthCtx<'_>, program: &VmProgram, object: &ObjectCode) -> Measured {
    let bounds = analyze(program, object);
    let measured = Measured {
        size_bytes: u64::from(object.size_bytes()),
        min_cycles: bounds.min_cycles,
        max_cycles: bounds.max_cycles,
        ram_bytes: u64::from(program.ram_bytes()),
    };
    ctx.count("min_cycles", measured.min_cycles);
    ctx.count("max_cycles", measured.max_cycles);
    measured
}

/// The verify stage: the network's verdicts, plus each machine's
/// reachability-derived incompatibilities when estimates are refined.
fn stage_verify(
    ctx: &mut SynthCtx<'_>,
    net: &Network,
) -> Result<(VerifyReport, Vec<Vec<Incompat>>), SynthError> {
    let vopts = VerifyOptions {
        node_budget: ctx.opts.verify_node_budget,
        reorder_threshold: ctx.opts.verify_reorder_threshold,
        ..VerifyOptions::default()
    };
    let mut v = Verifier::run(net, &vopts).map_err(SynthError::Verify)?;
    let stats = v.stats();
    ctx.count("iterations", stats.iterations);
    ctx.count("image_steps", stats.image_steps);
    ctx.count("peak_frontier_nodes", stats.peak_frontier_nodes);
    ctx.count("reached_nodes", stats.reached_nodes);
    if let Some(states) = stats.reached_states {
        ctx.count("reached_states", states.min(u128::from(u64::MAX)) as u64);
    }
    ctx.count("peak_live_nodes", stats.peak_live_nodes);
    ctx.count("andex_lookups", stats.andex_lookups);
    ctx.count("andex_hits", stats.andex_hits);
    ctx.count("cube_quant_calls", stats.cube_quant_calls);
    ctx.count("constrain_calls", stats.constrain_calls);
    ctx.count("constrain_reduced_nodes", stats.constrain_reduced_nodes);
    ctx.count("mid_reach_reorders", stats.mid_reach_reorders);
    let incompats = if ctx.opts.verify_refine_estimates {
        (0..net.cfsms().len())
            .map(|i| v.presence_incompats(i))
            .collect()
    } else {
        Vec::new()
    };
    let report = v.report();
    ctx.count(
        "lost_possible",
        report.lost_events.iter().filter(|e| e.possible).count() as u64,
    );
    ctx.count("dead_transitions", report.dead_transitions.len() as u64);
    ctx.count("deadlock", u64::from(report.deadlock.is_some()));
    Ok((report, incompats))
}

fn stage_refine(
    ctx: &mut SynthCtx<'_>,
    net: &Network,
    machines: &mut [CfsmSynthesis],
    reach_incompats: &[Vec<Incompat>],
) {
    let mut refined = 0u64;
    let mut tightened = 0u64;
    for (i, m) in net.cfsms().iter().enumerate() {
        let mut merged = derive_incompatibilities(m);
        for inc in &reach_incompats[i] {
            if !merged.contains(inc) {
                merged.push(*inc);
            }
        }
        if merged.is_empty() {
            continue;
        }
        let bound = max_cycles_false_path_aware(m, &machines[i].graph, ctx.params, &merged);
        // Never looser than the derived-only bound (or the plain
        // estimate when no derived bound exists).
        let baseline = machines[i]
            .max_cycles_false_path_aware
            .unwrap_or(machines[i].estimate.max_cycles);
        let reach_aware = bound.min(baseline);
        machines[i].max_cycles_reach_aware = Some(reach_aware);
        refined += 1;
        if reach_aware < baseline {
            tightened += 1;
        }
    }
    ctx.count("machines_refined", refined);
    ctx.count("bounds_tightened", tightened);
}

fn stage_rtos(ctx: &mut SynthCtx<'_>, net: &Network, config: &RtosConfig) -> String {
    let rtos_c = emit_rtos_c(net, config);
    let st = measure_c(&rtos_c);
    ctx.count("tasks", net.cfsms().len() as u64);
    ctx.count("lines", st.lines);
    ctx.count("bytes", st.bytes);
    rtos_c
}

// ---------------------------------------------------------------------
// Staged drivers.
// ---------------------------------------------------------------------

/// Runs the full per-CFSM pipeline for the style selected in
/// `ctx.opts`, recording every stage into the context's trace.
pub fn synthesize_cfsm(ctx: &mut SynthCtx<'_>, cfsm: &Cfsm) -> Result<CfsmSynthesis, SynthError> {
    ctx.machine = Some(cfsm.name().to_owned());
    let graph = match ctx.opts.style {
        ImplStyle::DecisionGraph => {
            let rf = ctx.stage("chi", |ctx| stage_chi(ctx, cfsm));
            let rf = ctx.stage("sift", |ctx| stage_sift(ctx, rf));
            let g = ctx.stage("sgraph", move |ctx| {
                let g = build(&rf).map_err(SynthError::SgraphBuild)?;
                Ok(record_sgraph(ctx, g))
            })?;
            if ctx.opts.collapse {
                ctx.stage("collapse", |ctx| stage_collapse(ctx, g))
            } else {
                g
            }
        }
        ImplStyle::IteChain => {
            let mut rf = ctx.stage("chi", |ctx| stage_chi(ctx, cfsm));
            ctx.stage("sgraph", move |ctx| record_sgraph(ctx, ite_chain(&mut rf)))
        }
        ImplStyle::TwoLevel => {
            ctx.stage("sgraph", |ctx| record_sgraph(ctx, two_level_sgraph(cfsm)))
        }
    };
    let (program, object) = ctx.stage("compile", |ctx| stage_compile(ctx, cfsm, &graph));
    let c_code = ctx.stage("emit_c", |ctx| stage_emit(ctx, cfsm, &graph));
    let (estimate, max_cycles_false_path_aware) =
        ctx.stage("estimate", |ctx| stage_estimate(ctx, cfsm, &graph));
    let measured = ctx.stage("measure", |ctx| stage_measure(ctx, &program, &object));
    Ok(CfsmSynthesis {
        graph,
        c_code,
        program,
        object,
        estimate,
        max_cycles_false_path_aware,
        max_cycles_reach_aware: None,
        measured,
    })
}

/// The network-level stages after every machine is synthesized:
/// `verify` and `refine` when requested, then `rtos`.
fn network_stages(
    ctx: &mut SynthCtx<'_>,
    net: &Network,
    rtos: &RtosConfig,
    machines: &mut [CfsmSynthesis],
) -> Result<(Option<VerifyReport>, String), SynthError> {
    let mut report = None;
    if ctx.opts.verify {
        let (verified, reach_incompats) = ctx.stage("verify", |ctx| stage_verify(ctx, net))?;
        if ctx.opts.verify_refine_estimates {
            ctx.stage("refine", |ctx| {
                stage_refine(ctx, net, machines, &reach_incompats)
            });
        }
        report = Some(verified);
    }
    let rtos_c = ctx.stage("rtos", |ctx| stage_rtos(ctx, net, rtos));
    Ok((report, rtos_c))
}

/// Runs the per-CFSM pipeline over every machine of `net` on up to
/// `jobs` scoped worker threads, then the network-level stages.
///
/// Each worker owns the BDD managers of the machines it claims (one
/// manager per [`ReactiveFn`]); nothing is shared between workers except
/// the read-only network, options, and cost parameters. Results and
/// per-machine traces are merged in network order, so the returned
/// [`NetworkSynthesis`] — including every byte of generated C — is
/// identical for every `jobs` value. Only wall-clock timings vary.
///
/// When `opts.verify` is set, a network-level `verify` stage runs the
/// symbolic reachability engine after the machines are synthesized (and
/// a `refine` stage feeds the reachability invariant back into the
/// false-path estimates when `opts.verify_refine_estimates` is also
/// set). On any failure the [`SynthFailure`] carries every stage record
/// completed up to the abort, so callers can still flush the trace.
pub fn synthesize_network_staged(
    net: &Network,
    opts: &SynthesisOptions,
    rtos: &RtosConfig,
    jobs: usize,
) -> Result<(NetworkSynthesis, SynthTrace), SynthFailure> {
    let params = calibrate(opts.profile);
    let cfsms = net.cfsms();
    let n = cfsms.len();
    let jobs = jobs.clamp(1, n.max(1));
    let start = Instant::now();

    let run_one = |i: usize| {
        let mut ctx = SynthCtx::new(opts, &params);
        let result = synthesize_cfsm(&mut ctx, &cfsms[i]);
        (result, ctx.into_trace())
    };
    let slots: Vec<(Result<CfsmSynthesis, SynthError>, SynthTrace)> = if jobs <= 1 {
        (0..n).map(run_one).collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut done: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|| {
                        let mut claimed = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            claimed.push((i, run_one(i)));
                        }
                        claimed
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("synthesis worker panicked"))
                .collect()
        });
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, slot)| slot).collect()
    };

    let mut machines = Vec::with_capacity(n);
    let mut trace = SynthTrace::new();
    for (result, t) in slots {
        trace.extend(t);
        match result {
            Ok(synth) => machines.push(synth),
            Err(error) => return Err(SynthFailure { error, trace }),
        }
    }
    let synthesis_time = start.elapsed();

    let mut ctx = SynthCtx::new(opts, &params);
    let network = network_stages(&mut ctx, net, rtos, &mut machines);
    trace.extend(ctx.into_trace());
    let (verify, rtos_c) = match network {
        Ok(done) => done,
        Err(error) => return Err(SynthFailure { error, trace }),
    };

    let total_rom = machines.iter().map(|m| m.measured.size_bytes).sum::<u64>() + RTOS_ROM_BYTES;
    let total_ram =
        machines.iter().map(|m| m.measured.ram_bytes).sum::<u64>() + RTOS_RAM_PER_TASK * n as u64;
    Ok((
        NetworkSynthesis {
            machines,
            verify,
            rtos_c,
            total_rom,
            total_ram,
            synthesis_time,
        },
        trace,
    ))
}
