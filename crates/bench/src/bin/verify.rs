//! Symbolic-verification benchmark: runs the reachability engine over
//! the seed example networks and synthetic relay chains of growing
//! width, and writes `BENCH_verify.json` in the same two-section
//! baseline/current format as `BENCH_bdd_kernel.json`.
//!
//! ```text
//! cargo run --release -p polis-bench --bin verify [-- --smoke] [--check] [--gate FILE] [--out FILE]
//! ```
//!
//! `--smoke` shrinks the synthetic chains so the bench finishes in well
//! under a second (the CI gate). `--check` asserts sanity thresholds —
//! every case reaches its fixpoint, counts a non-trivial reachable set,
//! stays inside the default node budget, and records the
//! relational-product kernel counters — and exits non-zero on violation.
//! `--gate FILE` additionally compares this run against the committed
//! `BENCH_verify.json`: for every case present in both, the verdict
//! fields (`reached_states`, `lost_possible`, `dead_transitions`,
//! `deadlock`) must match exactly and `peak_live_nodes` must not regress
//! by more than 5%.

use polis_cfsm::Network;
use polis_core::random::{random_network, RandomSpec};
use polis_core::trace::escape_json;
use polis_core::workloads;
use polis_lang::Property;
use polis_verify::{PropReport, Verifier, VerifyOptions, VerifyReport};
use std::time::Instant;

/// One measured verification case.
struct CaseResult {
    name: String,
    wall_ms: f64,
    report: VerifyReport,
    /// Property-suite pass (workload cases only; the relay chains ship
    /// no suite and report zero columns).
    prop: Option<PropReport>,
}

impl CaseResult {
    fn lost_possible(&self) -> usize {
        self.report
            .lost_events
            .iter()
            .filter(|e| e.possible)
            .count()
    }

    fn to_json(&self) -> String {
        let s = &self.report.stats;
        format!(
            "{{\n      \"name\": \"{}\",\n      \"wall_ms\": {:.3},\n      \
             \"machines\": {},\n      \"buffers\": {},\n      \
             \"iterations\": {},\n      \"image_steps\": {},\n      \
             \"reached_states\": {},\n      \"reached_nodes\": {},\n      \
             \"peak_frontier_nodes\": {},\n      \"peak_live_nodes\": {},\n      \
             \"lost_possible\": {},\n      \"dead_transitions\": {},\n      \
             \"deadlock\": {},\n      \
             \"andex_lookups\": {},\n      \"andex_hits\": {},\n      \
             \"cube_quant_calls\": {},\n      \"constrain_reduced_nodes\": {},\n      \
             \"mid_reach_reorders\": {},\n      \"mid_reach_collections\": {},\n      \
             \"props_checked\": {},\n      \"prop_violations\": {},\n      \
             \"prop_wall_ms\": {:.3},\n      \"max_trace_len\": {},\n      \
             \"preimage_nodes\": {}\n    }}",
            escape_json(&self.name),
            self.wall_ms,
            self.report.machines,
            self.report.buffers,
            s.iterations,
            s.image_steps,
            s.reached_states
                .map_or("null".to_owned(), |n| n.to_string()),
            s.reached_nodes,
            s.peak_frontier_nodes,
            s.peak_live_nodes,
            self.lost_possible(),
            self.report.dead_transitions.len(),
            self.report.deadlock.is_some(),
            s.andex_lookups,
            s.andex_hits,
            s.cube_quant_calls,
            s.constrain_reduced_nodes,
            s.mid_reach_reorders,
            s.mid_reach_collections,
            self.prop.as_ref().map_or(0, |p| p.checked),
            self.prop.as_ref().map_or(0, |p| p.violations),
            self.prop
                .as_ref()
                .map_or(0.0, |p| p.wall.as_secs_f64() * 1e3),
            self.prop.as_ref().map_or(0, |p| p.max_trace_len),
            self.prop.as_ref().map_or(0, |p| p.preimage_nodes),
        )
    }
}

/// One pinned pre-kernel measurement.
struct Baseline {
    name: &'static str,
    wall_ms: f64,
    iterations: u64,
    image_steps: u64,
    reached_states: u128,
    peak_live_nodes: u64,
    lost_possible: usize,
    dead_transitions: usize,
    deadlock: bool,
}

const BASELINE_COMMIT: &str = "24c7d1e";

/// `peak_live_nodes` recorded for the large relay chains by the PR5
/// kernel (commit `5a9477d`: plain edges, 12-byte AoS nodes, no
/// garbage-pressure collection). The complement-edge kernel plus the
/// mid-reach collector must hold at least a 30% reduction on both.
const COMPLEMENT_PEAK_CEILING: &[(&str, u64)] =
    &[("relay_chain_12", 451_307), ("relay_chain_16", 1_445_044)];

/// The pre-relational-product numbers for the full-size cases, measured
/// at commit `24c7d1e` with this same harness (per-variable existential
/// quantification loops — since replaced by `exists_cube` over precomputed
/// cubes — flag-at-a-time environment conjunction, raw `new ∧ ¬reached`
/// frontier, no mid-reach reordering). Wall times are from the same
/// container the current numbers are recorded on. `relay_chain_16` has
/// no row: the old traversal blew through the 2^22 node budget before
/// reaching its fixpoint.
const BASELINE: &[Baseline] = &[
    Baseline {
        name: "seatbelt",
        wall_ms: 0.386,
        iterations: 9,
        image_steps: 45,
        reached_states: 48,
        peak_live_nodes: 908,
        lost_possible: 4,
        dead_transitions: 0,
        deadlock: false,
    },
    Baseline {
        name: "shock_absorber",
        wall_ms: 6.514,
        iterations: 22,
        image_steps: 242,
        reached_states: 6144,
        peak_live_nodes: 22928,
        lost_possible: 10,
        dead_transitions: 0,
        deadlock: false,
    },
    Baseline {
        name: "dashboard",
        wall_ms: 8.533,
        iterations: 19,
        image_steps: 228,
        reached_states: 4096,
        peak_live_nodes: 24384,
        lost_possible: 10,
        dead_transitions: 0,
        deadlock: false,
    },
    Baseline {
        name: "relay_chain_4",
        wall_ms: 2.78,
        iterations: 21,
        image_steps: 168,
        reached_states: 2048,
        peak_live_nodes: 11202,
        lost_possible: 7,
        dead_transitions: 0,
        deadlock: false,
    },
    Baseline {
        name: "relay_chain_8",
        wall_ms: 93.411,
        iterations: 61,
        image_steps: 976,
        reached_states: 8388608,
        peak_live_nodes: 221217,
        lost_possible: 15,
        dead_transitions: 0,
        deadlock: false,
    },
    Baseline {
        name: "relay_chain_12",
        wall_ms: 874.913,
        iterations: 125,
        image_steps: 3000,
        reached_states: 34359738368,
        peak_live_nodes: 1347786,
        lost_possible: 23,
        dead_transitions: 0,
        deadlock: false,
    },
];

fn run_case(name: &str, net: &Network, props: &[Property]) -> CaseResult {
    let start = Instant::now();
    let mut v = Verifier::run(net, &VerifyOptions::default())
        .unwrap_or_else(|e| panic!("{name}: verification failed: {e}"));
    let report = v.report();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // The property pass is a separate run with ring storage on, so the
    // measurement above keeps the exact PR6 memory/timing profile.
    let prop = (!props.is_empty()).then(|| {
        let opts = VerifyOptions {
            trace_rings: true,
            ..VerifyOptions::default()
        };
        Verifier::run(net, &opts)
            .unwrap_or_else(|e| panic!("{name}: property pass failed: {e}"))
            .check_properties(props)
    });
    CaseResult {
        name: name.to_owned(),
        wall_ms,
        report,
        prop,
    }
}

/// The committed per-case fields the CI gate compares against.
struct GateCase {
    name: String,
    reached_states: Option<u128>,
    peak_live_nodes: u64,
    lost_possible: u64,
    dead_transitions: u64,
    deadlock: bool,
}

/// `"key": value` → `value` (trailing comma stripped), or `None` if the
/// trimmed line is not that field.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.strip_prefix('"')?
        .strip_prefix(key)?
        .strip_prefix("\": ")
        .map(|v| v.trim_end_matches(','))
}

/// Line-based extraction of the `"current"` section of a committed
/// `BENCH_verify.json` (the workspace deliberately has no JSON parser;
/// the bench emits this exact shape itself).
fn parse_gate_file(text: &str) -> Vec<GateCase> {
    let mut cases: Vec<GateCase> = Vec::new();
    let mut in_current = false;
    for raw in text.lines() {
        let t = raw.trim();
        if t.starts_with("\"current\"") {
            in_current = true;
            continue;
        }
        if !in_current {
            continue;
        }
        if t.starts_with(']') {
            break;
        }
        if let Some(v) = field(t, "name") {
            cases.push(GateCase {
                name: v.trim_matches('"').to_owned(),
                reached_states: None,
                peak_live_nodes: 0,
                lost_possible: 0,
                dead_transitions: 0,
                deadlock: false,
            });
        } else if let Some(c) = cases.last_mut() {
            if let Some(v) = field(t, "reached_states") {
                c.reached_states = v.parse::<u128>().ok();
            } else if let Some(v) = field(t, "peak_live_nodes") {
                c.peak_live_nodes = v.parse().unwrap_or(0);
            } else if let Some(v) = field(t, "lost_possible") {
                c.lost_possible = v.parse().unwrap_or(0);
            } else if let Some(v) = field(t, "dead_transitions") {
                c.dead_transitions = v.parse().unwrap_or(0);
            } else if let Some(v) = field(t, "deadlock") {
                c.deadlock = v == "true";
            }
        }
    }
    cases
}

/// Deterministic regression gate: every case of this run that is also in
/// the committed file must agree exactly on the verdict fields, and may
/// not regress `peak_live_nodes` by more than 10%.
fn gate_failures(results: &[CaseResult], committed: &[GateCase]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for r in results {
        let Some(c) = committed.iter().find(|c| c.name == r.name) else {
            continue;
        };
        matched += 1;
        let s = &r.report.stats;
        if s.reached_states != c.reached_states {
            failures.push(format!(
                "{}: reached_states {:?} differs from committed {:?}",
                r.name, s.reached_states, c.reached_states
            ));
        }
        if r.lost_possible() as u64 != c.lost_possible {
            failures.push(format!(
                "{}: lost_possible {} differs from committed {}",
                r.name,
                r.lost_possible(),
                c.lost_possible
            ));
        }
        if r.report.dead_transitions.len() as u64 != c.dead_transitions {
            failures.push(format!(
                "{}: dead_transitions {} differs from committed {}",
                r.name,
                r.report.dead_transitions.len(),
                c.dead_transitions
            ));
        }
        if r.report.deadlock.is_some() != c.deadlock {
            failures.push(format!(
                "{}: deadlock {} differs from committed {}",
                r.name,
                r.report.deadlock.is_some(),
                c.deadlock
            ));
        }
        // 5% headroom: peaks are deterministic for a given kernel, so
        // this only trips when a code change genuinely inflates memory.
        // (Tightened from 10% with the complement-edge kernel: the
        // garbage-pressure collector makes peaks far more stable.)
        if s.peak_live_nodes * 20 > c.peak_live_nodes * 21 {
            failures.push(format!(
                "{}: peak_live_nodes {} regresses >5% over committed {}",
                r.name, s.peak_live_nodes, c.peak_live_nodes
            ));
        }
    }
    if matched == 0 {
        failures.push("gate: no case of this run matched the committed baseline".to_owned());
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let gate = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_verify.json".to_owned());

    // Chained traversal keeps even the n=32 chain near the 2^18
    // collection floor, far inside the default 2^22 node budget.
    let chain_sizes: &[usize] = if smoke {
        &[4, 8]
    } else {
        &[4, 8, 12, 16, 20, 24, 32]
    };

    let mut results = Vec::new();
    for (case, name) in [
        ("seatbelt", "seat_belt"),
        ("shock_absorber", "shock_absorber"),
        ("dashboard", "dashboard"),
    ] {
        let spec = workloads::spec(name);
        results.push(run_case(case, &spec.network, &spec.properties));
    }
    let spec = RandomSpec::default();
    for &n in chain_sizes {
        let net = random_network(n, &spec, 0x9e3779b97f4a7c15 ^ n as u64);
        results.push(run_case(&format!("relay_chain_{n}"), &net, &[]));
    }

    for r in &results {
        let s = &r.report.stats;
        let andex_pct = if s.andex_lookups == 0 {
            0.0
        } else {
            s.andex_hits as f64 / s.andex_lookups as f64 * 100.0
        };
        println!(
            "{:<18} {:>9.2} ms  iters {:>3}  images {:>5}  states {:>12}  peak live {:>8}  \
             andex hit {:>5.1}%  shed {:>7}  reorders {}  gcs {}",
            r.name,
            r.wall_ms,
            s.iterations,
            s.image_steps,
            s.reached_states
                .map_or("overflow".to_owned(), |n| n.to_string()),
            s.peak_live_nodes,
            andex_pct,
            s.constrain_reduced_nodes,
            s.mid_reach_reorders,
            s.mid_reach_collections,
        );
        if let Some(p) = &r.prop {
            println!(
                "{:<18} {:>9.2} ms  props {:>3}  violated {:>3}  max trace {:>3}  \
                 rings {:>4}{}  preimage nodes {}",
                format!("  {} props", r.name),
                p.wall.as_secs_f64() * 1e3,
                p.checked,
                p.violations,
                p.max_trace_len,
                p.rings_stored,
                if p.rings_complete { "" } else { " (capped)" },
                p.preimage_nodes,
            );
        }
    }

    let mut json = String::from("{\n  \"bench\": \"verify\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"baseline_commit\": \"{BASELINE_COMMIT}\",\n  \"baseline\": ["
    ));
    for (i, b) in BASELINE.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n    {{ \"name\": \"{}\", \"wall_ms\": {:.3}, \"iterations\": {}, \
             \"image_steps\": {}, \"reached_states\": {}, \"peak_live_nodes\": {}, \
             \"lost_possible\": {}, \"dead_transitions\": {}, \"deadlock\": {} }}",
            b.name,
            b.wall_ms,
            b.iterations,
            b.image_steps,
            b.reached_states,
            b.peak_live_nodes,
            b.lost_possible,
            b.dead_transitions,
            b.deadlock,
        ));
    }
    json.push_str("\n  ],\n  \"current\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str("\n    ");
        json.push_str(&r.to_json());
    }
    json.push_str("\n  ],\n  \"speedups\": {");
    let mut first = true;
    for r in &results {
        if let Some(b) = BASELINE.iter().find(|b| b.name == r.name) {
            if !first {
                json.push(',');
            }
            first = false;
            json.push_str(&format!(
                "\n    \"{}\": {:.2}",
                escape_json(&r.name),
                b.wall_ms / r.wall_ms.max(1e-9)
            ));
        }
    }
    json.push_str("\n  }\n}\n");
    std::fs::write(&out, &json).expect("write bench json");
    println!("wrote {out}");

    let mut failures = Vec::new();
    if check {
        let budget = VerifyOptions::default().node_budget as u64;
        for r in &results {
            let s = &r.report.stats;
            if s.iterations == 0 || s.image_steps == 0 {
                failures.push(format!("{}: traversal did no work", r.name));
            }
            match s.reached_states {
                Some(n) if n >= 2 => {}
                other => failures.push(format!(
                    "{}: implausible reachable-state count {other:?}",
                    r.name
                )),
            }
            if s.peak_live_nodes == 0 {
                failures.push(format!("{}: peak live nodes not recorded", r.name));
            }
            // Every case must finish inside the default node budget;
            // relay_chain_16 is the largest and only fits because the
            // relational-product kernel keeps the traversal compact.
            if s.peak_live_nodes >= budget {
                failures.push(format!(
                    "{}: peak live nodes {} at or above the {} node budget",
                    r.name, s.peak_live_nodes, budget
                ));
            }
            if s.andex_lookups == 0 || s.cube_quant_calls == 0 {
                failures.push(format!(
                    "{}: relational-product kernel counters not recorded \
                     (andex_lookups {}, cube_quant_calls {})",
                    r.name, s.andex_lookups, s.cube_quant_calls
                ));
            }
            // The complement-edge kernel must keep at least a 30% peak
            // reduction over the plain-edge kernel on the large chains.
            if let Some(&(_, pr5)) = COMPLEMENT_PEAK_CEILING.iter().find(|(n, _)| *n == r.name) {
                if s.peak_live_nodes * 10 > pr5 * 7 {
                    failures.push(format!(
                        "{}: peak live nodes {} above the 30%-reduction \
                         ceiling {} (plain-edge peak {})",
                        r.name,
                        s.peak_live_nodes,
                        pr5 * 7 / 10,
                        pr5
                    ));
                }
            }
            // Property passes must check the whole suite and decode a
            // trace for every violation (the example fixpoints are far
            // below the ring cap, so cube-only degradation here is a bug).
            if let Some(p) = &r.prop {
                if p.checked == 0 {
                    failures.push(format!("{}: empty property suite ran", r.name));
                }
                if !p.rings_complete {
                    failures.push(format!("{}: trace rings unexpectedly capped", r.name));
                }
                if p.violations > 0 && p.max_trace_len == 0 {
                    failures.push(format!(
                        "{}: {} violations but no decoded trace",
                        r.name, p.violations
                    ));
                }
            }
            // Every relay chain of n stages reaches all 2^(3n-1)
            // combinations of control states and buffer fills.
            if let Some(n) = r
                .name
                .strip_prefix("relay_chain_")
                .and_then(|n| n.parse::<u32>().ok())
            {
                if s.reached_states != Some(1u128 << (3 * n - 1)) {
                    failures.push(format!(
                        "{}: reached {:?} states, closed form is 2^{}",
                        r.name,
                        s.reached_states,
                        3 * n - 1
                    ));
                }
            }
            // Deterministic cross-check against the verdicts pinned in
            // the embedded baseline: the kernel rewrite must never move
            // them. Chained reached sets contain the breadth-first ones
            // after every iteration, so the iteration count may only
            // drop below the baseline's.
            if let Some(b) = BASELINE.iter().find(|b| b.name == r.name) {
                if s.reached_states != Some(b.reached_states)
                    || s.iterations > b.iterations
                    || r.lost_possible() != b.lost_possible
                    || r.report.dead_transitions.len() != b.dead_transitions
                    || r.report.deadlock.is_some() != b.deadlock
                {
                    failures.push(format!(
                        "{}: verdicts drifted from the {BASELINE_COMMIT} baseline",
                        r.name
                    ));
                }
            }
        }
    }
    if let Some(path) = gate {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("gate: cannot read {path}: {e}"));
        failures.extend(gate_failures(&results, &parse_gate_file(&text)));
    }
    if check || !failures.is_empty() {
        if failures.is_empty() {
            println!("bench check OK");
        } else {
            for f in &failures {
                eprintln!("bench check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
