//! The `polis` command-line tool: synthesize, estimate, simulate, and
//! inspect CFSM networks written in the textual specification language.
//!
//! ```text
//! polis synth <spec> [-o DIR] [--style dg|chain|2lvl] [--target mcu8|risc32]
//!                    [--scheme natural|after-inputs|after-support]
//!                    [--buffering all|minimal] [--collapse]
//! polis estimate <spec> [same options]
//! polis sim <spec> --stim <file> [--policy rr|prio] [--target ...]
//! polis verify <spec> [--props] [--node-budget N] [--reorder-threshold N|off]
//! polis prop <spec> [--max-rings N] [--node-budget N] [--reorder-threshold N|off]
//! polis dot <spec> [--module NAME]
//! ```
//!
//! Stimulus files contain one event per line: `<time> <signal> [value]`;
//! `#` starts a comment.

use polis::cfsm::Network;
use polis::codegen::emit_network_header;
use polis::core::{
    synthesize_network, synthesize_network_staged, ImplStyle, MetricValue, StageRecord, SynthTrace,
    SynthesisOptions,
};
use polis::lang::{emit_spec_source, parse_spec, Spec};
use polis::rtos::{RtosConfig, SchedulingPolicy, Simulator, Stimulus};
use polis::sgraph::BufferPolicy;
use polis::verify::{Verifier, VerifyOptions};
use polis::vm::Profile;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("polis: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if it
                    .peek()
                    .map(|n| !n.starts_with("--") && !n.starts_with('-'))
                    .unwrap_or(false)
                    && takes_value(name)
                {
                    it.next()
                } else {
                    None
                };
                flags.push((name.to_owned(), value));
            } else if let Some(name) = a.strip_prefix('-') {
                let value = if takes_value(name) { it.next() } else { None };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn takes_value(name: &str) -> bool {
    matches!(
        name,
        "o" | "style"
            | "target"
            | "scheme"
            | "buffering"
            | "stim"
            | "policy"
            | "module"
            | "jobs"
            | "trace"
            | "node-budget"
            | "reorder-threshold"
            | "max-rings"
    )
}

fn run(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw);
    let Some(command) = args.positional.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "synth" => synth(&args),
        "estimate" => estimate_cmd(&args),
        "sim" => sim(&args),
        "verify" => verify_cmd(&args),
        "prop" => prop_cmd(&args),
        "dot" => dot(&args),
        "fmt" => fmt(&args),
        "help" | "--help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     polis synth <spec> [-o DIR] [--style dg|chain|2lvl] [--target mcu8|risc32]\n    \
       [--scheme natural|after-inputs|after-support] [--buffering all|minimal] [--collapse]\n    \
       [--jobs N] [--trace FILE] [--verify] [--refine] [--node-budget N]\n    \
       [--reorder-threshold N|off]\n  \
     polis estimate <spec> [same options]\n  \
     polis sim <spec> --stim <file> [--policy rr|prio] [--target mcu8|risc32]\n  \
     polis verify <spec> [--props] [--node-budget N] [--reorder-threshold N|off]\n    \
       [--max-rings N]\n  \
     polis prop <spec> [--max-rings N] [--node-budget N] [--reorder-threshold N|off]\n  \
     polis dot <spec> [--module NAME]\n  \
     polis fmt <spec>"
        .to_owned()
}

/// Reads and parses the `<spec>` argument: the network plus its
/// resolved property suite.
fn load_spec(args: &Args) -> Result<Spec, String> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| format!("missing <spec> argument\n{}", usage()))?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let name = PathBuf::from(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "network".to_owned());
    parse_spec(&name, &src).map_err(|e| format!("{path}:{e}"))
}

/// The verification flags shared by `verify`, `prop` and [`options`].
fn verify_options(args: &Args) -> Result<VerifyOptions, String> {
    let mut vopts = VerifyOptions::default();
    if let Some(budget) = args.flag("node-budget") {
        vopts.node_budget = parse_positive("node-budget", budget)?;
    }
    if let Some(threshold) = args.flag("reorder-threshold") {
        vopts.reorder_threshold = parse_reorder_threshold(threshold)?;
    }
    if let Some(cap) = args.flag("max-rings") {
        vopts.max_trace_rings = parse_positive("max-rings", cap)?;
    }
    Ok(vopts)
}

fn options(args: &Args) -> Result<SynthesisOptions, String> {
    let mut opts = SynthesisOptions::default();
    if let Some(style) = args.flag("style") {
        opts.style = match style {
            "dg" | "decision-graph" => ImplStyle::DecisionGraph,
            "chain" | "ite" => ImplStyle::IteChain,
            "2lvl" | "two-level" => ImplStyle::TwoLevel,
            other => return Err(format!("unknown style `{other}`")),
        };
    }
    if let Some(scheme) = args.flag("scheme") {
        opts.scheme = match scheme {
            "natural" => polis::cfsm::OrderScheme::Natural,
            "after-inputs" => polis::cfsm::OrderScheme::OutputsAfterAllInputs,
            "after-support" => polis::cfsm::OrderScheme::OutputsAfterSupport,
            other => return Err(format!("unknown scheme `{other}`")),
        };
    }
    if let Some(target) = args.flag("target") {
        opts.profile = parse_target(target)?;
    }
    if let Some(buffering) = args.flag("buffering") {
        opts.buffering = match buffering {
            "all" => BufferPolicy::All,
            "minimal" | "wbr" => BufferPolicy::Minimal,
            other => return Err(format!("unknown buffering policy `{other}`")),
        };
    }
    opts.collapse = args.has("collapse");
    opts.verify = args.has("verify") || args.has("refine");
    opts.verify_refine_estimates = args.has("refine");
    let vopts = verify_options(args)?;
    opts.verify_node_budget = vopts.node_budget;
    opts.verify_reorder_threshold = vopts.reorder_threshold;
    Ok(opts)
}

/// The value of `--<flag> N`, which must be a positive integer.
fn parse_positive(flag: &str, raw: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("--{flag} takes a positive integer, got `{raw}`"))
}

/// `--reorder-threshold N` (positive node count) or `off` to disable
/// mid-reachability sifting.
fn parse_reorder_threshold(raw: &str) -> Result<usize, String> {
    if raw == "off" {
        return Ok(usize::MAX);
    }
    raw.parse::<usize>()
        .ok()
        .filter(|&t| t >= 1)
        .ok_or_else(|| {
            format!("--reorder-threshold takes a positive integer or `off`, got `{raw}`")
        })
}

fn parse_target(target: &str) -> Result<Profile, String> {
    match target {
        "mcu8" => Ok(Profile::Mcu8),
        "risc32" => Ok(Profile::Risc32),
        other => Err(format!("unknown target `{other}`")),
    }
}

fn cost_table(net: &Network, result: &polis::core::NetworkSynthesis) {
    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>10}",
        "module", "ROM[B]", "RAM[B]", "min[cyc]", "max[cyc]"
    );
    for (m, r) in net.cfsms().iter().zip(&result.machines) {
        println!(
            "{:<14} {:>8} {:>8} {:>10} {:>10}",
            m.name(),
            r.measured.size_bytes,
            r.measured.ram_bytes,
            r.measured.min_cycles,
            r.measured.max_cycles
        );
    }
    println!(
        "total ROM {} B (incl. RTOS allowance), RAM {} B, synthesis {:?}",
        result.total_rom, result.total_ram, result.synthesis_time
    );
}

fn synth(args: &Args) -> Result<(), String> {
    let parse_start = std::time::Instant::now();
    let net = load_spec(args)?.network;
    let parse_wall = parse_start.elapsed();
    let opts = options(args)?;
    let jobs = match args.flag("jobs") {
        Some(j) => parse_positive("jobs", j)?,
        None => 1,
    };

    let mut trace = SynthTrace::new();
    trace.push(StageRecord {
        stage: "parse",
        machine: None,
        wall: parse_wall,
        counters: vec![("modules", MetricValue::Int(net.cfsms().len() as u64))],
    });
    let (result, synth_trace) =
        match synthesize_network_staged(&net, &opts, &RtosConfig::default(), jobs) {
            Ok(r) => r,
            Err(failure) => {
                // Flush the partial trace before reporting the abort, so
                // an interrupted run still leaves its instrumentation.
                trace.extend(failure.trace);
                if let Some(trace_path) = args.flag("trace") {
                    std::fs::write(trace_path, trace.to_json())
                        .map_err(|e| format!("cannot write `{trace_path}`: {e}"))?;
                    eprintln!("polis: wrote partial trace to {trace_path}");
                }
                return Err(failure.error.to_string());
            }
        };
    trace.extend(synth_trace);

    let out_dir = PathBuf::from(args.flag("o").unwrap_or("."));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", out_dir.display()))?;
    let write = |name: &str, content: &str| -> Result<(), String> {
        let p = out_dir.join(name);
        std::fs::write(&p, content).map_err(|e| format!("cannot write `{}`: {e}", p.display()))?;
        println!("wrote {}", p.display());
        Ok(())
    };
    write("polis_rtos.h", &emit_network_header(&net))?;
    write("rtos.c", &result.rtos_c)?;
    for (m, r) in net.cfsms().iter().zip(&result.machines) {
        write(&format!("{}.c", m.name()), &r.c_code)?;
    }
    if let Some(trace_path) = args.flag("trace") {
        std::fs::write(trace_path, trace.to_json())
            .map_err(|e| format!("cannot write `{trace_path}`: {e}"))?;
        println!("wrote {trace_path}");
    }
    println!();
    cost_table(&net, &result);
    if let Some(report) = &result.verify {
        println!();
        print!("{}", report.render());
        if opts.verify_refine_estimates {
            for (m, r) in net.cfsms().iter().zip(&result.machines) {
                if let Some(reach) = r.max_cycles_reach_aware {
                    println!(
                        "{}: max cycles {} (reach-aware {})",
                        m.name(),
                        r.estimate.max_cycles,
                        reach
                    );
                }
            }
        }
    }
    Ok(())
}

fn verify_cmd(args: &Args) -> Result<(), String> {
    let spec = load_spec(args)?;
    let net = &spec.network;
    let props = args.has("props");
    let vopts = VerifyOptions {
        // Ring storage gives property violations decoded traces.
        trace_rings: props,
        ..verify_options(args)?
    };
    let mut v = Verifier::run(net, &vopts).map_err(|e| e.to_string())?;
    let report = v.report();
    print!("{}", report.render());
    // Deadlock witnesses carry a decoded trace only when rings are stored.
    if let Some(trace) = report.deadlock.as_ref().and_then(|w| w.trace.as_ref()) {
        println!("deadlock trace ({} steps):", trace.len());
        for line in trace.render(net).lines() {
            println!("  {line}");
        }
    }
    println!(
        "verification took {:?} ({} iterations)",
        report.stats.wall, report.stats.iterations
    );
    if props {
        print!("{}", v.check_properties(&spec.properties).render(net));
    }
    Ok(())
}

fn prop_cmd(args: &Args) -> Result<(), String> {
    let spec = load_spec(args)?;
    let net = &spec.network;
    if spec.properties.is_empty() {
        // `load_spec` succeeded, so the path argument is present.
        let path = &args.positional[1];
        return Err(format!("`{path}` declares no properties block"));
    }
    let vopts = VerifyOptions {
        trace_rings: true,
        ..verify_options(args)?
    };
    let mut v = Verifier::run(net, &vopts).map_err(|e| e.to_string())?;
    let props = v.check_properties(&spec.properties);
    print!("{}", props.render(net));
    println!(
        "checked {} properties in {:?} ({} reachable-set iterations, {} rings, {} preimage nodes)",
        props.checked,
        v.stats().wall + props.wall,
        v.stats().iterations,
        props.rings_stored,
        props.preimage_nodes
    );
    Ok(())
}

fn estimate_cmd(args: &Args) -> Result<(), String> {
    let net = load_spec(args)?.network;
    let opts = options(args)?;
    let result = synthesize_network(&net, &opts, &RtosConfig::default());
    println!(
        "{:<14} {:>8} {:>8} {:>7} | {:>9} {:>9} {:>7}",
        "module", "est[B]", "meas[B]", "err%", "est[cyc]", "meas[cyc]", "err%"
    );
    for (m, r) in net.cfsms().iter().zip(&result.machines) {
        let err = |a: u64, b: u64| (a as f64 - b as f64) / (b as f64).max(1.0) * 100.0;
        println!(
            "{:<14} {:>8} {:>8} {:>+6.1}% | {:>9} {:>9} {:>+6.1}%",
            m.name(),
            r.estimate.size_bytes,
            r.measured.size_bytes,
            err(r.estimate.size_bytes, r.measured.size_bytes),
            r.estimate.max_cycles,
            r.measured.max_cycles,
            err(r.estimate.max_cycles, r.measured.max_cycles),
        );
    }
    Ok(())
}

fn parse_stimuli(path: &str) -> Result<Vec<Stimulus>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |what: &str| format!("{path}:{}: {what}", lineno + 1);
        let time: u64 = parts
            .next()
            .ok_or_else(|| err("missing time"))?
            .parse()
            .map_err(|_| err("bad time"))?;
        let signal = parts.next().ok_or_else(|| err("missing signal"))?;
        match parts.next() {
            Some(v) => out.push(Stimulus::valued(
                time,
                signal,
                v.parse().map_err(|_| err("bad value"))?,
            )),
            None => out.push(Stimulus::pure(time, signal)),
        }
    }
    Ok(out)
}

fn sim(args: &Args) -> Result<(), String> {
    let net = load_spec(args)?.network;
    let stim_path = args.flag("stim").ok_or("sim requires --stim <file>")?;
    let stim = parse_stimuli(stim_path)?;
    let mut config = RtosConfig::default();
    if let Some(target) = args.flag("target") {
        config.profile = parse_target(target)?;
    }
    if let Some(policy) = args.flag("policy") {
        config.policy = match policy {
            "rr" => SchedulingPolicy::RoundRobin,
            "prio" => SchedulingPolicy::StaticPriority {
                priorities: (0..net.cfsms().len() as u32).collect(),
            },
            other => return Err(format!("unknown policy `{other}`")),
        };
    }
    let mut sim = Simulator::build(&net, config);
    sim.run(&stim);
    for t in sim.trace() {
        match t.value {
            Some(v) => println!("{:>10}  {:<16} = {:<6} (by {})", t.time, t.signal, v, t.by),
            None => println!("{:>10}  {:<16}          (by {})", t.time, t.signal, t.by),
        }
    }
    let s = sim.stats();
    println!(
        "-- {} wall cycles, {} busy ({} in RTOS); reactions {:?}, overwritten {:?}",
        s.total_cycles, s.busy_cycles, s.rtos_cycles, s.reactions, s.overwritten
    );
    Ok(())
}

fn fmt(args: &Args) -> Result<(), String> {
    let spec = load_spec(args)?;
    print!("{}", emit_spec_source(&spec.network, &spec.properties));
    Ok(())
}

fn dot(args: &Args) -> Result<(), String> {
    let net = load_spec(args)?.network;
    let opts = options(args)?;
    for m in net.cfsms() {
        if let Some(only) = args.flag("module") {
            if m.name() != only {
                continue;
            }
        }
        let r = polis::core::synthesize(m, &opts);
        println!("{}", r.graph.to_dot());
    }
    Ok(())
}
