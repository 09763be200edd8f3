//! The automatically generated real-time operating system (Section IV) and
//! a hardware/software co-simulator.
//!
//! To implement a valid behaviour of a CFSM network, the synthesized
//! per-CFSM routines need glue that:
//!
//! * schedules enabled software CFSMs (round-robin or static priorities,
//!   with or without preemption of lower-priority work by
//!   interrupt-serviced events);
//! * implements event emission and detection through per-(receiver, event)
//!   presence flags and one-place value buffers (an event re-emitted before
//!   detection is **overwritten and lost**, Section II-D);
//! * transfers events between hardware CFSMs and software (interrupts or a
//!   periodic polling routine, Section IV-C);
//! * guarantees the input snapshot is *consistent*: once a routine starts
//!   reading its flags, later arrivals are remembered for the next
//!   execution instead of becoming visible mid-reaction (the two-event
//!   race of Section IV-D);
//! * preserves unconsumed events when a reaction fires no transition.
//!
//! [`Simulator`] executes a whole network on one virtual CPU with these
//! rules, charging per-reaction cycle costs measured by the
//! [`polis_vm`] executor plus configurable scheduling overheads — the
//! substitute for the co-simulation environment of \[30\] that the paper
//! uses for dynamic performance calculation. [`emit_rtos_c`] prints the
//! C skeleton of the same RTOS for inspection.

mod gen_c;
mod sched;
mod sim;
mod trace;

pub use gen_c::emit_rtos_c;
pub use sched::{rate_monotonic, rate_monotonic_nonpreemptive, SchedAnalysis, TaskModel};
pub use sim::{
    DeliveryMode, RtosConfig, RtosOverhead, SchedulingPolicy, SimStats, Simulator, Stimulus,
};
pub use trace::{Trace, TraceEntry, TraceIter};
