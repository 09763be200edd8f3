//! Differential test of the span-charged executor: `run_reaction`
//! charges a whole straight-line run on entry, and must agree exactly with
//! a reference interpreter that charges one instruction at a time.
//! Compared per reaction: the `Result` (stats or error), emissions,
//! `consumed` and the final memory.

use polis_cfsm::{Cfsm, OrderScheme, ReactiveFn};
use polis_core::random::{random_cfsm, RandomSpec, Rng};
use polis_core::workloads::{spec, SOURCES};
use polis_expr::{BinOp, Type, UnOp};
use polis_sgraph::{build, ite_chain};
use polis_vm::{
    assemble, compile, run_reaction, BufferPolicy, CollectingHost, Inst, ObjectCode, Profile,
    ReactionHost, RunError, RunStats, SlotInfo, SlotKind, VmMemory, VmProgram,
};

const STEP_LIMIT: u64 = 1_000_000;

/// The per-instruction interpreter: checks the step limit, fetches and
/// charges every instruction on its own.
fn reference_run(
    prog: &VmProgram,
    obj: &ObjectCode,
    mem: &mut VmMemory,
    host: &mut dyn ReactionHost,
) -> Result<RunStats, RunError> {
    let insts = prog.insts();
    let mut stack: Vec<i64> = Vec::with_capacity(16);
    let mut pc = 0usize;
    let mut stats = RunStats::default();

    macro_rules! pop {
        () => {
            stack.pop().ok_or(RunError::StackUnderflow { at: pc })?
        };
    }

    loop {
        if stats.executed >= STEP_LIMIT {
            return Err(RunError::StepLimit);
        }
        let Some(inst) = insts.get(pc) else {
            return Err(RunError::MissingReturn);
        };
        let cost = obj.cost(pc);
        stats.executed += 1;
        stats.cycles += u64::from(cost.cycles);
        let mut next = pc + 1;
        match inst {
            Inst::PushImm(v) => stack.push(*v),
            Inst::PushVar(s) => stack.push(mem.get(*s)),
            Inst::StoreVar(s) => {
                let v = pop!();
                let ty = prog.slots()[*s as usize].ty;
                mem.set(*s, ty.clamp(v));
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
                    stats.cycles += u64::from(cost.taken_extra);
                    next = *target;
                }
            }
            Inst::Jump(target) => next = *target,
            Inst::JumpTable(targets) => {
                let v = pop!();
                let idx = usize::try_from(v).ok().filter(|i| *i < targets.len());
                match idx {
                    Some(i) => next = targets[i],
                    None => return Err(RunError::BadTableIndex { at: pc, index: v }),
                }
            }
            Inst::PushCtrlBit { slot, bit, width } => {
                let v = mem.get(*slot);
                stack.push(v >> (width - 1 - bit) & 1);
            }
            Inst::SetCtrlBits { slot, bits, width } => {
                let mut v = mem.get(*slot);
                for (bit, val) in bits {
                    let mask = 1i64 << (width - 1 - bit);
                    if *val {
                        v |= mask;
                    } else {
                        v &= !mask;
                    }
                }
                mem.set(*slot, v);
            }
            Inst::StoreCtrlBit { slot, bit, width } => {
                let val = pop!();
                let mut v = mem.get(*slot);
                let mask = 1i64 << (width - 1 - bit);
                if val != 0 {
                    v |= mask;
                } else {
                    v &= !mask;
                }
                mem.set(*slot, v);
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
        pc = next;
    }
}

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

/// Runs one reaction from `mem` under both executors and asserts they
/// agree; returns the reference's result and memory. A `StepLimit` run is
/// compared on the error alone: `run_reaction` stops on entry to the run
/// that would cross the limit, the reference inside it.
fn run_both(
    prog: &VmProgram,
    obj: &ObjectCode,
    mem: &VmMemory,
    present: &[bool],
    ctx: &str,
) -> (Result<RunStats, RunError>, VmMemory) {
    let mut want_mem = mem.clone();
    let mut want_host = CollectingHost::new(present.to_vec());
    let want = reference_run(prog, obj, &mut want_mem, &mut want_host);
    let mut got_mem = mem.clone();
    let mut got_host = CollectingHost::new(present.to_vec());
    let got = run_reaction(prog, obj, &mut got_mem, &mut got_host);
    assert_eq!(got, want, "{ctx}");
    if want != Err(RunError::StepLimit) {
        assert_eq!(got_host, want_host, "{ctx}");
        assert_eq!(got_mem, want_mem, "{ctx}");
    }
    (want, want_mem)
}

/// Drives a compiled routine through `steps` reactions with random
/// presence flags and input values, under both executors.
fn drive(prog: &VmProgram, profile: Profile, rng: &mut Rng, steps: usize, ctx: &str) {
    let obj = assemble(prog, profile);
    let mut mem = VmMemory::new(prog);
    for step in 0..steps {
        for (slot, info) in prog.slots().iter().enumerate() {
            if matches!(info.kind, SlotKind::InputValue { .. }) {
                let ty = info.ty;
                mem.set(slot as u16, rng.i64(ty.min_value()..ty.max_value() + 1));
            }
        }
        let present: Vec<bool> = (0..prog.num_inputs()).map(|_| rng.bool()).collect();
        let (result, next) = run_both(prog, &obj, &mem, &present, &format!("{ctx} step {step}"));
        result.unwrap_or_else(|e| panic!("{ctx} step {step}: {e}"));
        mem = next;
    }
}

/// Both implementation styles of `m` (sifted s-graph and ITE chain), on
/// both profiles.
fn drive_machine(m: &Cfsm, rng: &mut Rng, steps: usize) {
    let mut rf = ReactiveFn::build(m);
    rf.sift(OrderScheme::OutputsAfterSupport);
    let graphs = [
        ("sgraph", build(&rf).unwrap()),
        ("chain", ite_chain(&mut rf)),
    ];
    for (style, g) in &graphs {
        let prog = compile(m, g, BufferPolicy::All);
        for profile in [Profile::Mcu8, Profile::Risc32] {
            let ctx = format!("{} {style} {profile:?}", m.name());
            drive(&prog, profile, rng, steps, &ctx);
        }
    }
}

#[test]
fn example_spec_routines_agree_with_the_reference() {
    let mut rng = Rng::new(0xb10c);
    for (name, _) in SOURCES {
        for m in spec(name).network.cfsms() {
            drive_machine(m, &mut rng, 40);
        }
    }
}

#[test]
fn random_machine_routines_agree_with_the_reference() {
    let shape = RandomSpec {
        states: 4,
        pure_inputs: 3,
        valued_inputs: 2,
        outputs: 2,
        vars: 1,
        transitions: 12,
    };
    let mut rng = Rng::new(0x5eed);
    for seed in 0..100 {
        let m = random_cfsm(&format!("r{seed}"), &shape, 0xb10c_0000 + seed);
        drive_machine(&m, &mut rng, 12);
    }
}

fn raw(insts: Vec<Inst>) -> VmProgram {
    let slots = vec![SlotInfo {
        name: "x".into(),
        ty: Type::uint(8),
        kind: SlotKind::State,
        init: 5,
    }];
    VmProgram::from_raw("raw", insts, slots, 2, 2, vec![None, Some(Type::uint(4))])
}

/// Runs `insts` from reset memory on both profiles for every presence
/// pattern of the two inputs; returns the results per pattern (Mcu8).
fn raw_results(insts: Vec<Inst>) -> Vec<Result<RunStats, RunError>> {
    let prog = raw(insts);
    let mut out = Vec::new();
    for profile in [Profile::Risc32, Profile::Mcu8] {
        let obj = assemble(&prog, profile);
        out.clear();
        for bits in 0..4u8 {
            let present = [bits & 1 != 0, bits & 2 != 0];
            let ctx = format!("{profile:?} present {present:?}");
            out.push(run_both(&prog, &obj, &VmMemory::new(&prog), &present, &ctx).0);
        }
    }
    out
}

#[test]
fn jump_table_dispatch_agrees() {
    for index in 0..4 {
        let results = raw_results(vec![
            Inst::PushImm(index),
            Inst::JumpTable(vec![3, 5, 7]),
            Inst::Return,
            Inst::EmitPure(0),
            Inst::Return,
            Inst::PushVar(0),
            Inst::EmitValued(1),
            Inst::Consume,
            Inst::Return,
        ]);
        if index == 3 {
            assert_eq!(results[0], Err(RunError::BadTableIndex { at: 1, index: 3 }));
        } else {
            assert!(results.iter().all(Result::is_ok), "{results:?}");
        }
    }
}

#[test]
fn taken_and_fallthrough_branches_agree() {
    // Input 0 decides the branch; the not-taken path falls through into
    // the branch target, a block boundary without a jump.
    let results = raw_results(vec![
        Inst::Detect(0),
        Inst::Branch {
            when: true,
            target: 4,
        },
        Inst::PushImm(9),
        Inst::StoreVar(0),
        Inst::Detect(1),
        Inst::Branch {
            when: false,
            target: 8,
        },
        Inst::EmitPure(1),
        Inst::Consume,
        Inst::Return,
    ]);
    let cycles: Vec<u64> = results.iter().map(|r| r.as_ref().unwrap().cycles).collect();
    // Presence patterns 0..4 take different paths with different costs.
    assert_ne!(cycles[0], cycles[1]);
    assert_ne!(cycles[0], cycles[2]);
}

#[test]
fn runaway_loops_hit_the_step_limit_in_both() {
    let results = raw_results(vec![Inst::Jump(0)]);
    assert!(results.iter().all(|r| *r == Err(RunError::StepLimit)));
    // A three-instruction loop body does not divide the limit evenly.
    let results = raw_results(vec![Inst::PushImm(1), Inst::StoreVar(0), Inst::Jump(0)]);
    assert!(results.iter().all(|r| *r == Err(RunError::StepLimit)));
}

#[test]
fn stack_underflow_reports_the_faulting_instruction() {
    let results = raw_results(vec![
        Inst::PushImm(1),
        Inst::Detect(0),
        Inst::Binary(BinOp::Add),
        Inst::Binary(BinOp::Add),
        Inst::Return,
    ]);
    assert!(results
        .iter()
        .all(|r| *r == Err(RunError::StackUnderflow { at: 3 })));
}

#[test]
fn running_off_the_end_is_missing_return() {
    let results = raw_results(vec![
        Inst::Detect(0),
        Inst::Branch {
            when: true,
            target: 3,
        },
        Inst::Return,
        Inst::PushImm(2),
        Inst::StoreVar(0),
    ]);
    assert!(results[0].is_ok());
    assert_eq!(results[1], Err(RunError::MissingReturn));
}
