//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}`.

use perfbench::inputs::Kind;
use perfbench::runner::{result_json, run};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <synth_fleet|verify_relay|cosim_dashboard> \
                     --seed <u64> --seconds <1..=60> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Kind, u64, u64, bool), String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be within 1..=60".to_owned());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok((kind, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (kind, seed, seconds, trace) = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={seed} seconds={seconds} trace={} profile={} nproc={} jobs=1",
        kind.name(),
        u8::from(trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let out = run(kind, seed, seconds as f64, trace);
    for line in &out.lines {
        println!("{line}");
    }
    if let Some((name, v, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is {v}; no result");
        return ExitCode::from(1);
    }
    println!(
        "{}",
        result_json(out.tally.failed == 0, &out.tally, &out.metrics)
    );
    ExitCode::SUCCESS
}
