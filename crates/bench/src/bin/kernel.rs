//! BDD-kernel benchmark: synthesizes the seed examples (seat belt, shock
//! absorber, dashboard) with and without sifting, plus two synthetic
//! kernel-bound stress cases, and writes `BENCH_bdd_kernel.json` with wall
//! times, peak live nodes, and cache statistics.
//!
//! ```text
//! cargo run --release -p polis-bench --bin kernel [-- --smoke] [--check] [--out FILE]
//! ```
//!
//! `--smoke` shrinks the synthetic cases so the bench finishes in well
//! under a second (the CI gate). `--check` asserts the `BddStats`-based
//! regression thresholds and exits non-zero on violation. The recorded
//! `baseline` section holds the same cases measured at the pre-overhaul
//! commit (`c7fb732`, HashMap unique tables + unbounded ITE cache), so the
//! file carries its own before/after trajectory.

use polis_bdd::reorder::SiftConfig;
use polis_bdd::{Bdd, BddStats, NodeRef};
use polis_cfsm::{Network, OrderScheme, ReactiveFn};
use polis_core::trace::escape_json;
use polis_core::workloads;
use std::time::Instant;

/// One measured bench case.
struct CaseResult {
    name: String,
    wall_ms: f64,
    stats: BddStats,
    peak_live_nodes: u64,
    final_nodes: u64,
}

impl CaseResult {
    fn to_json(&self) -> String {
        let s = &self.stats;
        format!(
            "{{\n      \"name\": \"{}\",\n      \"wall_ms\": {:.3},\n      \
             \"mk_calls\": {},\n      \"ite_lookups\": {},\n      \"ite_hits\": {},\n      \
             \"ite_hit_rate\": {:.4},\n      \"ite_evictions\": {},\n      \
             \"memo_lookups\": {},\n      \"memo_hits\": {},\n      \
             \"unique_probes_per_lookup\": {:.3},\n      \"swaps\": {},\n      \
             \"reclaimed_nodes\": {},\n      \"peak_live_nodes\": {},\n      \
             \"final_nodes\": {}\n    }}",
            escape_json(&self.name),
            self.wall_ms,
            s.mk_calls,
            s.cache_lookups,
            s.cache_hits,
            s.hit_rate(),
            s.cache_evictions,
            s.memo_lookups,
            s.memo_hits,
            s.avg_probe_len(),
            s.swap_count,
            s.reclaimed_nodes,
            self.peak_live_nodes,
            self.final_nodes,
        )
    }
}

/// Builds every machine's χ-function, optionally sifting to convergence.
fn example_case(name: &str, net: &Network, sift: bool) -> CaseResult {
    let start = Instant::now();
    let mut stats = BddStats::default();
    let mut peak = 0u64;
    let mut final_nodes = 0u64;
    for m in net.cfsms() {
        let mut rf = ReactiveFn::build(m);
        if sift {
            rf.sift_with_passes(OrderScheme::OutputsAfterSupport, usize::MAX);
        }
        let st = rf.bdd().stats();
        stats = stats.merged(&st);
        peak += st.peak_live_nodes;
        final_nodes += rf.size() as u64;
    }
    CaseResult {
        name: name.to_owned(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        stats,
        peak_live_nodes: peak,
        final_nodes,
    }
}

/// The classic interleaved-pairs function `x0·x1 + x2·x3 + …` declared in
/// the worst order `x0,x2,…,x1,x3,…` — exponentially large before sifting,
/// linear after. Sifting to convergence is swap-dominated, which is
/// exactly the path the reclamation + O(1) size tracking accelerates.
fn sift_stress(pairs: usize) -> CaseResult {
    let start = Instant::now();
    let mut b = Bdd::new();
    let evens: Vec<_> = (0..pairs)
        .map(|i| b.new_var(format!("x{}", 2 * i)))
        .collect();
    let odds: Vec<_> = (0..pairs)
        .map(|i| b.new_var(format!("x{}", 2 * i + 1)))
        .collect();
    let mut f = NodeRef::FALSE;
    for i in 0..pairs {
        let a = b.var(evens[i]);
        let c = b.var(odds[i]);
        let t = b.and(a, c);
        f = b.or(f, t);
    }
    let before = b.size(&[f]);
    let after = b.sift(&[f], &SiftConfig::to_convergence());
    assert!(after <= before, "sifting must not grow the interleaved BDD");
    let stats = b.stats();
    CaseResult {
        name: format!("sift_stress_{pairs}pairs"),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        stats,
        peak_live_nodes: stats.peak_live_nodes,
        final_nodes: after as u64,
    }
}

/// Repeated cofactoring/quantification over one shared function — the
/// s-graph-extraction access pattern the persistent memo caches serve.
fn quant_stress(nvars: usize, rounds: usize) -> CaseResult {
    let start = Instant::now();
    let mut b = Bdd::new();
    let vars: Vec<_> = (0..nvars).map(|i| b.new_var(format!("v{i}"))).collect();
    // A layered majority-ish function with plenty of shared subgraphs.
    let mut f = NodeRef::FALSE;
    for w in vars.windows(3) {
        let a = b.var(w[0]);
        let c = b.var(w[1]);
        let d = b.var(w[2]);
        let ac = b.and(a, c);
        let cd = b.xor(c, d);
        let t = b.or(ac, cd);
        f = b.xor(f, t);
    }
    let nf = b.not(f);
    let cubes: Vec<_> = vars.iter().map(|&v| b.cube([v])).collect();
    let mut acc = NodeRef::FALSE;
    for _ in 0..rounds {
        for (&v, &c) in vars.iter().zip(&cubes) {
            let e = b.exists_cube(f, c);
            let r0 = b.restrict(f, v, false);
            // ∀v. f = ¬∃v. ¬f
            let ne = b.exists_cube(nf, c);
            let u = b.not(ne);
            let x = b.xor(e, r0);
            let y = b.xor(x, u);
            acc = b.xor(acc, y);
        }
    }
    std::hint::black_box(acc);
    let stats = b.stats();
    CaseResult {
        name: format!("quant_stress_{nvars}v_{rounds}r"),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        stats,
        peak_live_nodes: stats.peak_live_nodes,
        final_nodes: b.size(&[f, acc]) as u64,
    }
}

/// The pre-overhaul numbers for the full-size cases, measured at commit
/// `c7fb732` with this same harness (HashMap unique tables, unbounded
/// HashMap ITE cache, per-call memo allocation, no reclamation). Wall
/// times (median of 3) are from the same container the current numbers
/// are recorded on. The old kernel's "peak live nodes" column is its
/// final allocated-node count — it never reclaimed, so that IS the peak.
const BASELINE: &[(&str, f64, u64, f64)] = &[
    // (name, wall_ms, peak_live_nodes, ite_hit_rate)
    ("seatbelt_nosift", 0.134, 53, 0.1937),
    ("seatbelt_sift", 1.422, 494, 0.1889),
    ("shock_absorber_nosift", 0.241, 131, 0.1056),
    ("shock_absorber_sift", 2.362, 974, 0.1142),
    ("dashboard_nosift", 0.159, 92, 0.0734),
    ("dashboard_sift", 1.211, 347, 0.0826),
    ("sift_stress_10pairs", 14134.720, 1_048_575, 0.2410),
    ("quant_stress_24v_40r", 29.232, 11_423, 0.5711),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_bdd_kernel.json".to_owned());

    let (stress_pairs, quant_vars, quant_rounds) = if smoke { (8, 12, 4) } else { (10, 24, 40) };

    let mut results = Vec::new();
    for (name, net) in [
        ("seatbelt", workloads::seat_belt()),
        ("shock_absorber", workloads::shock_absorber()),
        ("dashboard", workloads::dashboard()),
    ] {
        results.push(example_case(&format!("{name}_nosift"), &net, false));
        results.push(example_case(&format!("{name}_sift"), &net, true));
    }
    results.push(sift_stress(stress_pairs));
    results.push(quant_stress(quant_vars, quant_rounds));

    for r in &results {
        println!(
            "{:<26} {:>9.2} ms  hit {:>5.1}%  probes/lookup {:>5.2}  peak {:>7}  reclaimed {:>7}",
            r.name,
            r.wall_ms,
            r.stats.hit_rate() * 100.0,
            r.stats.avg_probe_len(),
            r.peak_live_nodes,
            r.stats.reclaimed_nodes,
        );
    }

    let mut json = String::from("{\n  \"bench\": \"bdd_kernel\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"node_bytes\": {},\n  \"node_ref_bytes\": {},\n",
        polis_bdd::NODE_BYTES,
        std::mem::size_of::<NodeRef>()
    ));
    json.push_str("  \"baseline_commit\": \"c7fb732\",\n  \"baseline\": [");
    for (i, (name, wall_ms, peak, hit)) in BASELINE.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n    {{ \"name\": \"{name}\", \"wall_ms\": {wall_ms:.3}, \
             \"peak_live_nodes\": {peak}, \"ite_hit_rate\": {hit:.4} }}"
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
        if let Some((_, base_ms, _, _)) = BASELINE
            .iter()
            .find(|(n, base_ms, _, _)| *n == r.name && *base_ms > 0.0)
        {
            if !first {
                json.push(',');
            }
            first = false;
            json.push_str(&format!(
                "\n    \"{}\": {:.2}",
                escape_json(&r.name),
                base_ms / r.wall_ms.max(1e-9)
            ));
        }
    }
    json.push_str("\n  }\n}\n");
    std::fs::write(&out, &json).expect("write bench json");
    println!("wrote {out}");

    if check {
        let mut failures = Vec::new();
        // Layout gate: the complement-edge handle must stay one machine
        // word half (the packed index + parity bit), and a stored node
        // must stay three 4-byte columns.
        if std::mem::size_of::<NodeRef>() != 4 {
            failures.push(format!(
                "NodeRef is {} bytes, expected 4",
                std::mem::size_of::<NodeRef>()
            ));
        }
        if polis_bdd::NODE_BYTES != 12 {
            failures.push(format!(
                "per-node storage is {} bytes, expected 12",
                polis_bdd::NODE_BYTES
            ));
        }
        for r in &results {
            // The seed examples' BDDs are small, so hit rates sit in the
            // 0.05..0.25 band (baseline kernel included); the floor exists
            // to catch the cache breaking outright, not workload drift.
            if r.stats.cache_lookups > 100 && r.stats.hit_rate() < 0.04 {
                failures.push(format!(
                    "{}: ITE hit rate {:.3} below 0.04 floor",
                    r.name,
                    r.stats.hit_rate()
                ));
            }
            if r.stats.unique_lookups > 100 && r.stats.avg_probe_len() > 4.0 {
                failures.push(format!(
                    "{}: average unique-table probe length {:.2} above 4.0 ceiling",
                    r.name,
                    r.stats.avg_probe_len()
                ));
            }
        }
        if let Some(stress) = results.iter().find(|r| r.name.starts_with("sift_stress")) {
            if stress.stats.reclaimed_nodes == 0 {
                failures.push("sift_stress: no nodes reclaimed during sifting".to_owned());
            }
            // The unsifted interleaved-pairs BDD is Θ(2^pairs); with swap
            // reclamation the arena must never grow far beyond that. The
            // old kernel peaked ~500x over this bound.
            let peak_bound = 1u64 << (stress_pairs + 3);
            if stress.peak_live_nodes >= peak_bound {
                failures.push(format!(
                    "sift_stress: peak live nodes {} above the {} reclamation bound",
                    stress.peak_live_nodes, peak_bound
                ));
            }
        }
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
