//! Cycle-accurate execution of assembled routines.

use crate::inst::{Inst, VmProgram};
use crate::profile::ObjectCode;
use polis_expr::{BinOp, UnOp};
use std::error::Error;
use std::fmt;

/// Host interface for RTOS interactions during a reaction.
pub trait ReactionHost {
    /// Presence flag of the input event (the RTOS event-detection call).
    fn detect(&mut self, input: usize) -> bool;
    /// Pure event emission.
    fn emit_pure(&mut self, output: usize);
    /// Valued event emission (value already coerced to the signal type).
    fn emit_valued(&mut self, output: usize, value: i64);
    /// A transition fired: the input snapshot must be consumed.
    fn consume(&mut self);
}

/// A [`ReactionHost`] that records everything, for tests and simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectingHost {
    /// Presence flags indexed by CFSM input index.
    pub present: Vec<bool>,
    /// Emissions in order: `(output index, value)`.
    pub emissions: Vec<(usize, Option<i64>)>,
    /// Whether the reaction consumed its inputs.
    pub consumed: bool,
}

impl CollectingHost {
    /// A host with the given presence flags.
    pub fn new(present: Vec<bool>) -> CollectingHost {
        CollectingHost {
            present,
            emissions: Vec::new(),
            consumed: false,
        }
    }
}

impl ReactionHost for CollectingHost {
    fn detect(&mut self, input: usize) -> bool {
        self.present.get(input).copied().unwrap_or(false)
    }
    fn emit_pure(&mut self, output: usize) {
        self.emissions.push((output, None));
    }
    fn emit_valued(&mut self, output: usize, value: i64) {
        self.emissions.push((output, Some(value)));
    }
    fn consume(&mut self) {
        self.consumed = true;
    }
}

/// The routine's data memory: one value per slot.
///
/// It also keeps the operand stack, so that reactions of one routine reuse
/// its allocation; the stack is cleared on entry to every reaction and is
/// not part of equality.
#[derive(Debug, Clone)]
pub struct VmMemory {
    values: Vec<i64>,
    stack: Vec<i64>,
}

impl PartialEq for VmMemory {
    fn eq(&self, other: &VmMemory) -> bool {
        self.values == other.values
    }
}

impl Eq for VmMemory {}

impl VmMemory {
    /// Memory initialized to the program's slot reset values.
    pub fn new(prog: &VmProgram) -> VmMemory {
        VmMemory {
            values: prog.slots().iter().map(|s| s.init).collect(),
            stack: Vec::with_capacity(16),
        }
    }

    /// Reads a slot.
    pub fn get(&self, slot: u16) -> i64 {
        self.values[slot as usize]
    }

    /// Writes a slot (no coercion; used by the RTOS to deliver event
    /// values, which are coerced at the emitter).
    pub fn set(&mut self, slot: u16, value: i64) {
        self.values[slot as usize] = value;
    }
}

/// Execution metrics for one reaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Clock cycles consumed (per the object code's cost profile).
    pub cycles: u64,
    /// Instructions executed.
    pub executed: u64,
}

/// A runtime failure (all indicate compiler bugs, not specification
/// errors — compiled programs are type- and range-checked upstream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Operand stack underflow.
    StackUnderflow {
        /// Faulting instruction index.
        at: usize,
    },
    /// A jump-table index outside the table.
    BadTableIndex {
        /// Faulting instruction index.
        at: usize,
        /// The popped index.
        index: i64,
    },
    /// The instruction pointer ran past the routine without `Return`.
    MissingReturn,
    /// Executed-instruction budget exhausted (guards against accidental
    /// loops; compiled s-graphs are acyclic).
    StepLimit,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::StackUnderflow { at } => write!(f, "stack underflow at instruction {at}"),
            RunError::BadTableIndex { at, index } => {
                write!(
                    f,
                    "jump-table index {index} out of range at instruction {at}"
                )
            }
            RunError::MissingReturn => write!(f, "control ran past the end of the routine"),
            RunError::StepLimit => write!(f, "execution step limit exceeded"),
        }
    }
}

impl Error for RunError {}

const STEP_LIMIT: u64 = 1_000_000;

/// Runs one reaction, charging cycles per the assembled `obj` costs.
///
/// Cycles and executed instructions are charged one straight-line run at
/// a time, on entry to it: the span from the entered instruction through
/// the next control transfer, recorded by [`crate::assemble`]. A branch's
/// `taken_extra` is added when it is taken, so the totals equal charging
/// each instruction as it executes. [`RunError::StepLimit`] is reported on
/// entry to the run that would take the executed count past the limit.
///
/// # Errors
///
/// See [`RunError`]; none occur for programs produced by
/// [`crate::compile`] from valid s-graphs.
pub fn run_reaction<H: ReactionHost + ?Sized>(
    prog: &VmProgram,
    obj: &ObjectCode,
    mem: &mut VmMemory,
    host: &mut H,
) -> Result<RunStats, RunError> {
    let insts = prog.insts();
    let VmMemory { values, stack } = mem;
    stack.clear();
    let mut pc = 0usize;
    let mut stats = RunStats::default();

    loop {
        let Some(span) = obj.span(pc) else {
            return Err(RunError::MissingReturn);
        };
        let len = span.insts as usize;
        if stats.executed + len as u64 > STEP_LIMIT {
            return Err(RunError::StepLimit);
        }
        stats.executed += len as u64;
        stats.cycles += span.cycles;
        let block = &insts[pc..pc + len];
        let mut next = pc + len;
        for (at, inst) in (pc..).zip(block) {
            macro_rules! pop {
                () => {
                    stack.pop().ok_or(RunError::StackUnderflow { at })?
                };
            }
            match inst {
                Inst::PushImm(v) => stack.push(*v),
                Inst::PushVar(s) => stack.push(values[*s as usize]),
                Inst::StoreVar(s) => {
                    let v = pop!();
                    let ty = prog.slots()[*s as usize].ty;
                    values[*s as usize] = ty.clamp(v);
                }
                Inst::Unary(op) => {
                    let a = pop!();
                    stack.push(match op {
                        UnOp::Not => i64::from(a == 0),
                        UnOp::Neg => a.wrapping_neg(),
                    });
                }
                Inst::Binary(op) => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(bin_apply(*op, a, b));
                }
                Inst::Branch { when, target } => {
                    let v = pop!();
                    if (v != 0) == *when {
                        stats.cycles += u64::from(obj.cost(at).taken_extra);
                        next = *target;
                    }
                }
                Inst::Jump(target) => next = *target,
                Inst::JumpTable(targets) => {
                    let v = pop!();
                    let idx = usize::try_from(v).ok().filter(|i| *i < targets.len());
                    match idx {
                        Some(i) => next = targets[i],
                        None => return Err(RunError::BadTableIndex { at, index: v }),
                    }
                }
                Inst::PushCtrlBit { slot, bit, width } => {
                    let v = values[*slot as usize];
                    stack.push(v >> (width - 1 - bit) & 1);
                }
                Inst::SetCtrlBits { slot, bits, width } => {
                    let v = &mut values[*slot as usize];
                    for (bit, val) in bits {
                        let mask = 1i64 << (width - 1 - bit);
                        if *val {
                            *v |= mask;
                        } else {
                            *v &= !mask;
                        }
                    }
                }
                Inst::StoreCtrlBit { slot, bit, width } => {
                    let val = pop!();
                    let v = &mut values[*slot as usize];
                    let mask = 1i64 << (width - 1 - bit);
                    if val != 0 {
                        *v |= mask;
                    } else {
                        *v &= !mask;
                    }
                }
                Inst::Detect(i) => stack.push(i64::from(host.detect(*i as usize))),
                Inst::EmitPure(o) => host.emit_pure(*o as usize),
                Inst::EmitValued(o) => {
                    let v = pop!();
                    let v = match prog.output_type(*o as usize) {
                        Some(ty) => ty.clamp(v),
                        None => v,
                    };
                    host.emit_valued(*o as usize, v);
                }
                Inst::Consume => host.consume(),
                Inst::Return => return Ok(stats),
            }
        }
        pc = next;
    }
}

/// Numeric semantics identical to [`polis_expr`] evaluation (booleans as
/// 0/1, wrapping arithmetic, safe division).
fn bin_apply(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::And => i64::from(a != 0 && b != 0),
        BinOp::Or => i64::from(a != 0 || b != 0),
        BinOp::Xor => i64::from((a != 0) ^ (b != 0)),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{SlotInfo, SlotKind};
    use crate::profile::{assemble, Profile};
    use polis_expr::Type;

    fn program(insts: Vec<Inst>) -> VmProgram {
        VmProgram {
            name: "t".into(),
            insts,
            slots: vec![SlotInfo {
                name: "x".into(),
                ty: Type::uint(4),
                kind: SlotKind::State,
                init: 3,
            }],
            num_inputs: 2,
            num_outputs: 2,
            out_types: vec![None, None],
        }
    }

    fn run(p: &VmProgram, present: Vec<bool>) -> (VmMemory, CollectingHost, RunStats) {
        let obj = assemble(p, Profile::Mcu8);
        let mut mem = VmMemory::new(p);
        let mut host = CollectingHost::new(present);
        let stats = run_reaction(p, &obj, &mut mem, &mut host).unwrap();
        (mem, host, stats)
    }

    #[test]
    fn arithmetic_and_store_wraps() {
        let p = program(vec![
            Inst::PushVar(0),
            Inst::PushImm(14),
            Inst::Binary(BinOp::Add),
            Inst::StoreVar(0), // 3 + 14 = 17 -> wraps to 1 in u4
            Inst::Return,
        ]);
        let (mem, _, stats) = run(&p, vec![]);
        assert_eq!(mem.get(0), 1);
        assert_eq!(stats.executed, 5);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn branch_and_detect() {
        let p = program(vec![
            Inst::Detect(0),
            Inst::Branch {
                when: true,
                target: 3,
            },
            Inst::Return,
            Inst::EmitPure(1),
            Inst::Consume,
            Inst::Return,
        ]);
        let (_, host, s_absent) = run(&p, vec![false]);
        assert!(host.emissions.is_empty());
        assert!(!host.consumed);
        let (_, host, s_present) = run(&p, vec![true]);
        assert_eq!(host.emissions, vec![(1, None)]);
        assert!(host.consumed);
        assert!(s_present.cycles > s_absent.cycles);
    }

    #[test]
    fn jump_table_dispatch() {
        let p = program(vec![
            Inst::PushVar(0), // init 3... use imm instead
            Inst::Return,
        ]);
        let _ = p;
        let p = program(vec![
            Inst::PushImm(1),
            Inst::JumpTable(vec![3, 5, 7]),
            Inst::Return,
            Inst::EmitPure(0),
            Inst::Return,
            Inst::EmitPure(1),
            Inst::Return,
            Inst::Consume,
            Inst::Return,
        ]);
        let (_, host, _) = run(&p, vec![]);
        assert_eq!(host.emissions, vec![(1, None)]);
    }

    #[test]
    fn jump_table_out_of_range_is_error() {
        let p = program(vec![
            Inst::PushImm(9),
            Inst::JumpTable(vec![2]),
            Inst::Return,
        ]);
        let obj = assemble(&p, Profile::Mcu8);
        let mut mem = VmMemory::new(&p);
        let mut host = CollectingHost::default();
        let err = run_reaction(&p, &obj, &mut mem, &mut host).unwrap_err();
        assert!(matches!(err, RunError::BadTableIndex { index: 9, .. }));
    }

    #[test]
    fn ctrl_bit_instructions() {
        let p = program(vec![
            Inst::SetCtrlBits {
                slot: 0,
                bits: vec![(0, true), (1, false)],
                width: 2,
            }, // x = 0b10 = 2
            Inst::PushCtrlBit {
                slot: 0,
                bit: 0,
                width: 2,
            },
            Inst::StoreCtrlBit {
                slot: 0,
                bit: 1,
                width: 2,
            }, // bit1 := bit0 (=1) -> x = 0b11
            Inst::Return,
        ]);
        let (mem, _, _) = run(&p, vec![]);
        assert_eq!(mem.get(0), 3);
    }

    #[test]
    fn missing_return_detected() {
        let p = program(vec![Inst::PushImm(1)]);
        let obj = assemble(&p, Profile::Mcu8);
        let mut mem = VmMemory::new(&p);
        let mut host = CollectingHost::default();
        assert_eq!(
            run_reaction(&p, &obj, &mut mem, &mut host).unwrap_err(),
            RunError::MissingReturn
        );
    }

    #[test]
    fn safe_division_matches_expr_semantics() {
        assert_eq!(bin_apply(BinOp::Div, 7, 0), 0);
        assert_eq!(bin_apply(BinOp::Rem, 7, 0), 0);
        assert_eq!(bin_apply(BinOp::Div, 7, 2), 3);
        assert_eq!(bin_apply(BinOp::Xor, 1, 1), 0);
        assert_eq!(bin_apply(BinOp::Min, -2, 5), -2);
    }
}
