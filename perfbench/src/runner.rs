//! The measurement loop of one run.
//!
//! 1. Set up (generate the inputs, calibrate the target). The run sets
//!    up again before every timed pass, at least `MIN_SETUPS` times in
//!    all, and reports the median as `setup_s`.
//! 2. One checked pass: every job's outputs go through the oracle, and
//!    each job's artifact digest becomes the reference.
//! 3. Untraced passes for the measurement time. Each job's digest must
//!    match the reference.
//! 4. With tracing on, untraced passes for half the time, then traced
//!    passes for the other half; the traced passes must reproduce the
//!    reference digests too, and their spans must reconcile.
//!
//! Every job execution counts as one attempted output; a panic, an
//! error, an oracle disagreement or a digest mismatch counts it failed.

use crate::flow::{
    machine_digest, machine_job, network_digest, network_job, Config, NetOut, Synth,
};
use crate::inputs::{generate, Expect, Kind, Workload};
use crate::oracle::{check_cosim, check_verdicts, lockstep};
use crate::spans::{breakdown, Recorder, ROOT};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 15;
/// Reactions per machine in the lock-step oracle.
const LOCKSTEP_STEPS: usize = 32;

/// Span names whose self times are reported, with `_ms` appended.
const LAYER_SPANS: [&str; 17] = [
    "lang.parse",
    "cfsm.chi",
    "bdd.sift",
    "sgraph.build",
    "vm.compile",
    "vm.analyze",
    "codegen.emit",
    "estimate.calibrate",
    "estimate.estimate",
    "estimate.falsepath",
    "rtos.emit",
    "verify.run",
    "verify.checks",
    "verify.props",
    "rtos.build",
    "rtos.run",
    ROOT,
];

/// Layer counters, per pass, with their units. `bdd.cache_hit_rate` and
/// `bdd.andex_hit_rate` are derived from hit and lookup counts.
const LAYER_COUNTERS: [(&str, &str); 27] = [
    ("cfsm.chi_nodes", "count"),
    ("bdd.nodes_before_sift", "count"),
    ("bdd.nodes_after_sift", "count"),
    ("bdd.swaps", "count"),
    ("bdd.mk_calls", "count"),
    ("bdd.cache_hit_rate", "%"),
    ("bdd.reclaimed_nodes", "count"),
    ("bdd.peak_live_nodes", "count"),
    ("sgraph.nodes", "count"),
    ("sgraph.tests", "count"),
    ("codegen.c_bytes", "bytes"),
    ("verify.iterations", "count"),
    ("verify.image_steps", "count"),
    ("verify.peak_frontier_nodes", "count"),
    ("verify.preimage_nodes", "count"),
    ("verify.rings_stored", "count"),
    ("verify.max_trace_len", "count"),
    ("bdd.andex_lookups", "count"),
    ("bdd.andex_hit_rate", "%"),
    ("bdd.cube_quant_calls", "count"),
    ("bdd.constrain_reduced_nodes", "count"),
    ("bdd.gcs", "count"),
    ("rtos.reactions", "count"),
    ("rtos.rtos_cycles", "cycles"),
    ("rtos.overwritten", "count"),
    ("trace.total_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Attempted and failed outputs, with the first failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Job executions.
    pub attempted: u64,
    /// Job executions whose output was wrong or missing.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// Deterministic properties of the generated code and the simulation,
/// summed over one checked pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Object-code ROM of every synthesized routine.
    pub code_bytes: u64,
    /// Exact worst-case cycles per reaction, summed over routines.
    pub max_cycles: u64,
    /// Sum of |estimated − measured| / measured worst-case cycles, in %.
    pub est_err_sum: f64,
    /// Routines the error sum covers.
    pub routines: u64,
    /// `SimStats::busy_cycles`, summed over co-simulations.
    pub busy_cycles: u64,
    /// Stimuli co-simulated.
    pub events: u64,
}

impl Totals {
    fn add_synth(&mut self, s: &Synth) {
        let m = &s.measured;
        self.code_bytes += m.size_bytes;
        self.max_cycles += m.max_cycles;
        self.est_err_sum += (s.estimate.max_cycles as f64 - m.max_cycles as f64).abs()
            / m.max_cycles as f64
            * 100.0;
        self.routines += 1;
    }
}

/// One pass over every job of the workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per job: artifact digest, `None` if the job failed.
    pub digests: Vec<Option<u64>>,
    /// Summed job wall time, in milliseconds.
    pub job_ms: f64,
    /// Item latencies, in milliseconds.
    pub samples: Vec<f64>,
    /// Summed `Simulator::run` time, in milliseconds.
    pub sim_ms: f64,
    /// Output totals (checked pass only).
    pub totals: Totals,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_owned())
}

/// Runs one job under a root span, catching panics; returns its result
/// and wall time in milliseconds.
fn run_job<T>(
    rec: &mut Recorder,
    name: &str,
    f: impl FnOnce(&mut Recorder) -> Result<T, String>,
) -> (Result<T, String>, f64) {
    let t = Instant::now();
    rec.begin(ROOT);
    let r = catch_unwind(AssertUnwindSafe(|| f(&mut *rec)));
    rec.unwind();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let r = match r {
        Ok(r) => r,
        Err(p) => Err(format!("{name}: panicked: {}", panic_message(p))),
    };
    (r, ms)
}

fn check_network(w: &Workload, job: usize, out: &NetOut, expect: &Expect) -> Result<(), String> {
    for (i, s) in out.machines.iter().enumerate() {
        let b = (s.measured.min_cycles, s.measured.max_cycles);
        let seed = w.seed ^ ((job as u64) << 32 | i as u64);
        lockstep(&s.cfsm, &s.program, &s.object, b, seed, LOCKSTEP_STEPS)
            .map_err(|e| format!("{}: {e}", s.cfsm.name()))?;
    }
    check_verdicts(expect, &out.verdicts)?;
    for t in &out.traces {
        t.replay(&out.net)
            .map_err(|e| format!("counterexample does not replay: {e}"))?;
    }
    let names: Vec<String> = out
        .net
        .cfsms()
        .iter()
        .map(|m| m.name().to_owned())
        .collect();
    check_cosim(&names, &out.sim.overwritten, &out.verdicts.lost_consumers)
}

/// One pass. With `reference` unset this is the checked pass: outputs go
/// through the oracle. Otherwise each digest must equal the reference.
pub fn pass(
    w: &Workload,
    cfg: &Config,
    rec: &mut Recorder,
    reference: Option<&[Option<u64>]>,
    tally: &mut Tally,
) -> Pass {
    let mut out = Pass::default();
    let mut judge = |out: &mut Pass, job: usize, r: Result<u64, String>| {
        tally.attempted += 1;
        let digest = r.map_err(|e| tally.fail(e)).ok();
        if let (Some(d), Some(reference)) = (digest, reference) {
            match reference[job] {
                None => tally.fail(format!("job {job}: its checked output was wrong")),
                Some(r) if r != d => {
                    tally.fail(format!("job {job}: artifacts differ from the checked pass"))
                }
                Some(_) => {}
            }
        }
        out.digests.push(digest);
    };
    let check = reference.is_none();
    for (i, input) in w.machines.iter().enumerate() {
        let (r, ms) = run_job(rec, &input.name, |rec| machine_job(cfg, input, rec));
        out.job_ms += ms;
        if w.kind == Kind::SynthFleet {
            out.samples.push(ms);
        }
        let r = r.and_then(|s| {
            if check {
                out.totals.add_synth(&s);
                let b = (s.measured.min_cycles, s.measured.max_cycles);
                lockstep(
                    &s.cfsm,
                    &s.program,
                    &s.object,
                    b,
                    w.seed ^ i as u64,
                    LOCKSTEP_STEPS,
                )
                .map_err(|e| format!("{}: {e}", input.name))?;
            }
            Ok(machine_digest(&s))
        });
        judge(&mut out, i, r);
    }
    for (j, input) in w.networks.iter().enumerate() {
        let job = w.machines.len() + j;
        let (r, ms) = run_job(rec, &input.name, |rec| network_job(cfg, input, rec));
        out.job_ms += ms;
        match w.kind {
            Kind::VerifyRelay => out.samples.push(ms),
            Kind::CosimDashboard => {
                if let Ok(n) = &r {
                    out.samples.extend(&n.chunk_ms);
                }
            }
            Kind::SynthFleet => {}
        }
        let r = r.and_then(|n| {
            out.sim_ms += n.chunk_ms.iter().sum::<f64>();
            if check {
                for s in &n.machines {
                    out.totals.add_synth(s);
                }
                out.totals.busy_cycles += n.sim.busy_cycles;
                out.totals.events += input.stream.len() as u64;
                check_network(w, job, &n, &input.expect)
                    .map_err(|e| format!("{}: {e}", input.name))?;
            }
            Ok(network_digest(&n))
        });
        judge(&mut out, job, r);
    }
    out
}

/// Nearest-rank quantile of `sorted` (ascending, non-empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest of the usual percentiles with at least ten samples
/// beyond it, as (percentile, value).
fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let q = [0.999, 0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0)
        .unwrap_or(0.5);
    (q * 100.0, quantile(sorted, q))
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A measured metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Everything one run reports.
pub struct Outcome {
    /// Human-readable lines, printed before the result.
    pub lines: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Attempted and failed outputs.
    pub tally: Tally,
}

/// One set-up: generate the inputs and calibrate the target, timed into
/// `times`.
fn set_up(kind: Kind, seed: u64, times: &mut Vec<f64>) -> (Workload, Config) {
    let t = Instant::now();
    let w = generate(kind, seed);
    let cfg = Config::new(w.profile);
    times.push(t.elapsed().as_secs_f64());
    (w, cfg)
}

/// Runs `kind` on `seed`, measuring for `seconds`.
///
/// The host this was tuned on switches between a fast and a slow speed
/// (the same CPU loop varies by up to 1.8x from one second to the next),
/// and runs differ in how much of their time falls in each. So the
/// set-ups are spread over the whole run (one before each timed pass),
/// and throughput is the rate 90% of passes reach, which the slow phase
/// present in every run sets.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut lines = Vec::new();
    let mut setup = Vec::new();
    let (w, cfg) = set_up(kind, seed, &mut setup);
    let mut tally = Tally::default();
    let mut off = Recorder::new(false);
    let checked = pass(&w, &cfg, &mut off, None, &mut tally);
    let reference = checked.digests.clone();

    let untraced_for = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let mut timed = Vec::new();
    let start = Instant::now();
    while timed.is_empty() || start.elapsed() < untraced_for {
        set_up(kind, seed, &mut setup);
        timed.push(pass(&w, &cfg, &mut off, Some(&reference), &mut tally));
    }
    while setup.len() < MIN_SETUPS {
        set_up(kind, seed, &mut setup);
    }

    let t = &checked.totals;
    lines.push(format!(
        "inputs: {} machines, {} networks, {} stimuli; item = {}",
        w.machines.len(),
        w.networks.len(),
        t.events,
        kind.item()
    ));
    let mut metrics: Vec<Metric> = Vec::new();
    if trace {
        metrics = traced(
            &w,
            &cfg,
            &reference,
            &timed,
            seconds / 2.0,
            &mut tally,
            &mut lines,
        );
    } else {
        let mut samples: Vec<f64> = timed
            .iter()
            .flat_map(|p| p.samples.iter().copied())
            .collect();
        samples.sort_by(f64::total_cmp);
        let mut rates: Vec<f64> = timed
            .iter()
            .map(|p| p.samples.len() as f64 / p.job_ms * 1e3)
            .collect();
        rates.sort_by(f64::total_cmp);
        let items_per_s = quantile(&rates, 0.1);
        lines.push(format!(
            "items_per_s per pass: n={}, min {:.3}, p10 {:.3}, p50 {:.3}, p90 {:.3}, max {:.3}",
            rates.len(),
            rates[0],
            items_per_s,
            quantile(&rates, 0.5),
            quantile(&rates, 0.9),
            rates[rates.len() - 1]
        ));
        let (tq, tv) = tail(&samples);
        let setup_s = median(&setup);
        let rss = peak_rss_mb().unwrap_or(f64::NAN);
        lines.push(format!(
            "setup_s: median {setup_s:.6} s of {} set-ups (min {:.6}, max {:.6})",
            setup.len(),
            setup.iter().copied().fold(f64::INFINITY, f64::min),
            setup.iter().copied().fold(0.0, f64::max)
        ));
        lines.push(format!(
            "item latency: n={} over {} passes, p50 {:.4} ms, p95 {:.4} ms, p{tq} {tv:.4} ms \
             (highest percentile with >=10 samples beyond it)",
            samples.len(),
            timed.len(),
            quantile(&samples, 0.5),
            quantile(&samples, 0.95)
        ));
        let pass_s: Vec<f64> = timed.iter().map(|p| p.job_ms / 1e3).collect();
        match kind {
            Kind::SynthFleet => lines.push(format!(
                "synth_per_s {items_per_s:.3} 1/s; synth_ms_p50 {:.4} ms; synth_ms_p95 {:.4} ms",
                quantile(&samples, 0.5),
                quantile(&samples, 0.95)
            )),
            Kind::VerifyRelay => lines.push(format!(
                "verify_s {:.4} s (median of {} passes, max {:.4} s)",
                median(&pass_s),
                pass_s.len(),
                pass_s.iter().copied().fold(0.0, f64::max)
            )),
            Kind::CosimDashboard => {
                let sim_s: f64 = timed.iter().map(|p| p.sim_ms).sum::<f64>() / 1e3;
                lines.push(format!(
                    "sim_events_per_s {:.1} 1/s; sim_busy_cycles {} cycles",
                    (timed.len() as u64 * t.events) as f64 / sim_s,
                    t.busy_cycles
                ));
            }
        }
        metrics.extend([
            ("setup_s".to_owned(), setup_s, "s"),
            ("items_per_s".to_owned(), items_per_s, "1/s"),
            ("item_ms_p95".to_owned(), quantile(&samples, 0.95), "ms"),
            ("peak_rss_mb".to_owned(), rss, "MB"),
            ("code_bytes".to_owned(), t.code_bytes as f64, "bytes"),
            ("max_cycles".to_owned(), t.max_cycles as f64, "cycles"),
            (
                "est_err_pct".to_owned(),
                t.est_err_sum / t.routines as f64,
                "%",
            ),
            ("sim_busy_cycles".to_owned(), t.busy_cycles as f64, "cycles"),
        ]);
    }
    lines.push(format!(
        "fail_ratio {}/{} = {}",
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    ));
    for f in &tally.failures {
        lines.push(format!("FAILED: {f}"));
    }
    Outcome {
        lines,
        metrics,
        tally,
    }
}

/// Traced passes for `seconds`: per-layer self times (median per pass),
/// layer counters (per pass), and the overhead against `untraced`.
fn traced(
    w: &Workload,
    cfg: &Config,
    reference: &[Option<u64>],
    untraced: &[Pass],
    seconds: f64,
    tally: &mut Tally,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let mut rec = Recorder::new(true);
    let mut self_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut totals = Vec::new();
    let mut counters = None;
    let start = Instant::now();
    while totals.is_empty() || start.elapsed().as_secs_f64() < seconds {
        pass(w, cfg, &mut rec, Some(reference), tally);
        let (spans, c) = rec.take();
        counters.get_or_insert(c);
        match breakdown(&spans) {
            Ok(b) => {
                for name in LAYER_SPANS {
                    let ns = b.self_ns.get(name).copied().unwrap_or(0);
                    self_ms.entry(name).or_default().push(ns as f64 / 1e6);
                }
                totals.push(b.total_ns as f64 / 1e6);
            }
            Err(e) => {
                tally.attempted += 1;
                tally.fail(format!("traced pass does not reconcile: {e}"));
                totals.push(f64::NAN);
            }
        }
    }
    let counters = counters.unwrap_or_default();
    let untraced_ms = median(&untraced.iter().map(|p| p.job_ms).collect::<Vec<_>>());
    let total_ms = median(&totals);
    let mut metrics = Vec::new();
    let mut attributed = 0.0;
    lines.push(format!(
        "traced: {} passes; per-pass self time (median), ms:",
        totals.len()
    ));
    for name in LAYER_SPANS {
        let v = self_ms.get(name).map_or(f64::NAN, |v| median(v));
        attributed += v;
        lines.push(format!("  {name:<22} {v:>12.4}"));
        metrics.push((format!("{name}_ms"), v, "ms"));
    }
    lines.push(format!(
        "  sum of medians {attributed:.4} ms; traced total (median) {total_ms:.4} ms; \
         untraced {untraced_ms:.4} ms"
    ));
    let get = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    let rate = |hits: &str, lookups: &str| {
        let l = get(lookups);
        if l == 0.0 {
            0.0
        } else {
            get(hits) / l * 100.0
        }
    };
    for (name, unit) in LAYER_COUNTERS {
        let v = match name {
            "bdd.cache_hit_rate" => rate("bdd.cache_hits", "bdd.cache_lookups"),
            "bdd.andex_hit_rate" => rate("bdd.andex_hits", "bdd.andex_lookups"),
            "trace.total_ms" => total_ms,
            "trace.overhead_pct" => (total_ms / untraced_ms - 1.0) * 100.0,
            _ => get(name),
        };
        metrics.push((name.to_owned(), v, unit));
    }
    metrics
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
