//! End-to-end and per-layer benchmark of the POLIS flow.
//!
//! Three seeded, single-threaded workloads drive the public APIs of the
//! repository's crates: `synth_fleet` (synthesis of many mid-size
//! machines), `verify_relay` (symbolic verification of relay chains and
//! the example networks) and `cosim_dashboard` (RTOS co-simulation of
//! the dashboard on a long sensor stream). Every output is checked by
//! [`oracle`]; see `README.md` for the metrics and what moves them.

pub mod flow;
pub mod inputs;
pub mod oracle;
pub mod runner;
pub mod spans;
