//! The bytecode execution tier of the virtual GPU.
//!
//! [`compile`] translates a lowered slot-indexed kernel ([`SStmt`]/[`SExpr`], see
//! [`crate::exec`]) once per launch into a flat, register-file program; [`run`] executes it
//! over the ND-range with exactly the slotted interpreter's observable semantics — the same
//! [`crate::CostCounters`], the same coalescing analysis, the same bounds checks and the
//! same shadow-memory race/divergence detection, producing byte-identical buffers, counters
//! and [`VgpuError`] results.
//!
//! # Program shape
//!
//! A program is two instruction streams:
//!
//! * **Row ops** ([`RowOp`]) mirror the lock-step statement rows of the SIMT interpreter:
//!   each op runs over the active lanes of the group under the current activity mask,
//!   charges one `lockstep_rows` per statement (one per round for loop heads) and flushes
//!   the coalescing window exactly where the interpreter does. Structured control flow
//!   becomes dense jumps over the row stream with an explicit mask stack (`If`/`Else`/
//!   `EndIf`, `ForInit`/`ForHead`/`ForStep`).
//! * **Expression ops** ([`EOp`]) are a three-address register bytecode; a row op runs a
//!   slice of them (a row program). Index evaluation is fused into dedicated ops
//!   (`RAdd`/`RDivE`/…), and counter charges, pointer checks and memory instrumentation are
//!   explicit instructions (`Charge`, `PtrChk`, `Load`, `StoreChk`, …), so instrumentation
//!   is part of the ISA rather than a property of a tree walk. Charges are merged into one
//!   `Charge` per basic block.
//!
//! # Registers
//!
//! Registers are `u32` operands naming one of three files: bit 31 selects the *cell file*
//! (persistent variable slots, reset to a per-launch prototype at each work group), bit 30
//! the *constant pool* (lane-uniform literals, filled once per launch), and otherwise the
//! operand indexes the *scratch file* of the current row program. All three are
//! structure-of-arrays: a register holds one value per lane of the work group, so an op
//! decodes its operands once and then loops over the lanes. Aggregates (OpenCL short
//! vectors and tuple structs) are scalarised into consecutive registers at compile time.
//!
//! # Schedule
//!
//! The reference order is thread order: each work item runs a row's program to the end
//! before the next one starts. A row program without a global or local store runs
//! lane-batched instead, op by op over all active lanes. No lane can observe another lane's
//! effects in such a row, so only three things could depend on the order, and each is
//! restored exactly:
//!
//! * counters are sums (a charge of `n` becomes `n × active lanes`);
//! * when lanes fail, the lowest failing lane's error is reported (the lanes above it stop,
//!   since thread order never runs them);
//! * the race detector's shadow `reader` updates are deferred and replayed in (lane, op)
//!   order at the end of the row.
//!
//! A row program that may store to global or local memory runs the same executor one lane
//! at a time, in thread order. Stores through a private array do not count: no other lane
//! can see them. The only jumps (`Jz`/`Jmp`, from ternaries) point forward; they split the
//! lane list, and the lanes that jumped rejoin at the target.
//!
//! The compiler leaves out a variable's "is it set?" check where a defining row of an
//! enclosing block already ran on every active lane, and a pointer check where the operand
//! is a declared array or a pointer parameter that is never assigned.
//!
//! # Fallback
//!
//! [`compile`] is deliberately partial: constructs whose cell-file mapping cannot be proven
//! equivalent to the interpreter's name-resolution order (assignment to a field of a
//! variable, slots that are both `__local` arrays and scalar assignees, shape-changing
//! variables, recursive user functions, …) return an error string and the engine falls back
//! to the slotted interpreter for that launch. The Lift code generator never emits these
//! shapes; the fallback keeps the tier sound for hand-written modules.

use std::rc::Rc;

use lift_ocl::{AddrSpace, CBinOp, CUnOp};

use crate::cost::CostCounters;
use crate::exec::{
    compare, CastKind, Exec, Group, Math1, Math2, SExpr, SIndex, SLhs, SStmt, ShadowCell, Thread,
    VgpuError, WorkItemFn,
};
use crate::memory::{GpuValue, Ptr};

/// Register operand bit selecting the cell file.
const CELL_BIT: u32 = 1 << 31;
/// Register operand bit selecting the constant pool.
const CONST_BIT: u32 = 1 << 30;
/// "Discard the result" destination marker for [`RowOp::Eval`].
const NO_DST: u32 = u32::MAX;

/// A runtime value of the bytecode tier: the scalar subset of [`GpuValue`] plus `None` for
/// cells that hold no value yet (the interpreter's unset `thread.vals` entry). Aggregates
/// never exist at runtime — they are scalarised into consecutive registers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum V {
    /// No value: reading this as a variable is [`VgpuError::UnknownVariable`].
    None,
    Float(f64),
    Int(i64),
    Bool(bool),
    Ptr(CPtr),
}

/// A [`Ptr`] packed into 16 bytes, so a [`V`] register is 16 bytes as well.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct CPtr {
    offset: i64,
    buffer: u32,
    space: AddrSpace,
}

impl CPtr {
    fn new(space: AddrSpace, buffer: usize, offset: i64) -> CPtr {
        CPtr {
            offset,
            buffer: u32::try_from(buffer).expect("buffer table fits in u32"),
            space,
        }
    }

    fn unpack(self) -> Ptr {
        Ptr {
            space: self.space,
            buffer: self.buffer as usize,
            offset: self.offset,
        }
    }
}

impl V {
    /// Mirrors [`GpuValue::as_f64`] (`None` converts like an aggregate).
    fn as_f64(self) -> f64 {
        match self {
            V::Float(v) => v,
            V::Int(v) => v as f64,
            V::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
            V::Ptr(_) | V::None => f64::NAN,
        }
    }

    /// Mirrors [`GpuValue::as_i64`].
    fn as_i64(self) -> i64 {
        match self {
            V::Int(v) => v,
            V::Float(v) => v as i64,
            V::Bool(b) => i64::from(b),
            V::Ptr(_) | V::None => 0,
        }
    }

    /// Mirrors [`GpuValue::as_bool`].
    fn as_bool(self) -> bool {
        match self {
            V::Bool(b) => b,
            V::Int(v) => v != 0,
            V::Float(v) => v != 0.0,
            V::Ptr(_) | V::None => false,
        }
    }

    /// Mirrors [`GpuValue::as_ptr`].
    fn as_ptr(self) -> Option<CPtr> {
        match self {
            V::Ptr(p) => Some(p),
            _ => None,
        }
    }
}

/// The compile-time shape of an expression value: a single register or `n` consecutive
/// registers for a scalarised aggregate. Vectors and structs are tracked separately because
/// the interpreter's binary operations are lane-wise over vectors only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Scalar,
    Vector(u32),
    Struct(u32),
}

impl Shape {
    fn lanes(self) -> u32 {
        match self {
            Shape::Scalar => 1,
            Shape::Vector(n) | Shape::Struct(n) => n,
        }
    }

    fn is_scalar(self) -> bool {
        self == Shape::Scalar
    }
}

/// A compiled expression value: base register plus shape (aggregates occupy
/// `base..base + lanes`).
#[derive(Clone, Copy)]
struct Val {
    base: u32,
    shape: Shape,
}

impl Val {
    fn scalar(base: u32) -> Val {
        Val {
            base,
            shape: Shape::Scalar,
        }
    }
}

/// Expression bytecode. Each op runs over all lanes of its row at once. Destinations are
/// always scratch registers; sources may carry [`CELL_BIT`] or [`CONST_BIT`]. Jump targets
/// are relative to the row program and always point forward.
#[derive(Clone, Copy)]
enum EOp {
    Mov {
        dst: u32,
        src: u32,
    },
    /// Errors with [`VgpuError::UnknownVariable`] if the cell holds no value.
    SlotChk {
        cell: u32,
        slot: u32,
    },
    /// `dst = Int(src.as_i64())` — a variable read in index position.
    IdxOf {
        dst: u32,
        src: u32,
    },
    /// The interpreter's `eval_bin` on two scalar values, charging by the runtime path.
    Bin {
        op: CBinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    Neg {
        dst: u32,
        src: u32,
    },
    Not {
        dst: u32,
        src: u32,
    },
    WorkItem {
        kind: WorkItemFn,
        dst: u32,
        dim: u32,
    },
    Math1 {
        kind: Math1,
        dst: u32,
        src: u32,
    },
    Math2 {
        kind: Math2,
        dst: u32,
        a: u32,
        b: u32,
    },
    Mad {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    CastInt {
        dst: u32,
        src: u32,
    },
    CastFloat {
        dst: u32,
        src: u32,
    },
    CastBool {
        dst: u32,
        src: u32,
    },
    /// Per lane: `int_ops += int_ops` (index-expression and ternary-condition charges),
    /// `div_mod_ops += div_mod_ops` (index divisions), `vector_accesses += vector_accesses`
    /// (`vload`/`vstore` widths). [`Compiler::merge_charges`] leaves one per basic block.
    Charge {
        int_ops: u32,
        div_mod_ops: u32,
        vector_accesses: u32,
    },
    /// Errors with [`VgpuError::DivisionByZero`] if the register is integer zero.
    ZChk {
        src: u32,
    },
    /// Fused index ops over `i64` (`Int` registers).
    RAdd {
        dst: u32,
        a: u32,
        b: u32,
    },
    RMul {
        dst: u32,
        a: u32,
        b: u32,
    },
    RDivE {
        dst: u32,
        a: u32,
        b: u32,
    },
    RRemE {
        dst: u32,
        a: u32,
        b: u32,
    },
    RPow {
        dst: u32,
        src: u32,
        e: u32,
    },
    RMin {
        dst: u32,
        a: u32,
        b: u32,
    },
    RMax {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Errors with the table entry if the register does not hold a pointer.
    PtrChk {
        src: u32,
        err: u32,
    },
    /// Width-1 load through [`Exec::load`] (bounds, counters, coalescing log, race checks).
    Load {
        dst: u32,
        ptr: u32,
        idx: u32,
    },
    /// One lane of a `vload{width}`: loads `idx * width + lane` at the vector width.
    LoadLane {
        dst: u32,
        ptr: u32,
        idx: u32,
        width: u32,
        lane: u32,
    },
    /// Width-1 store; errors with the table entry if the value is not scalar.
    StoreChk {
        ptr: u32,
        idx: u32,
        val: u32,
        err: u32,
    },
    /// One lane of a `vstore{width}`.
    StoreLane {
        ptr: u32,
        idx: u32,
        val: u32,
        width: u32,
        lane: u32,
    },
    /// Lanes whose condition register is false (`as_bool`) jump.
    Jz {
        cond: u32,
        target: u32,
    },
    Jmp {
        target: u32,
    },
    /// Unconditional error from the table (unknown function, invalid store, …).
    Fail {
        err: u32,
    },
}

/// A row program: a slice of [`Program::code`], and whether it may store to global or local
/// memory (then its lanes run one at a time, in thread order).
#[derive(Clone, Copy)]
struct Prog {
    start: u32,
    len: u32,
    serial: bool,
}

/// Row-level ops: each runs one lock-step statement row over the active lanes of the group.
#[derive(Clone, Copy)]
enum RowOp {
    Ret,
    Barrier,
    /// Group-wide `__local` allocation; writes the pointer into every thread's cell.
    DeclLocal {
        cell: u32,
        len: usize,
        slot: u32,
    },
    /// Per-active-thread private allocation.
    DeclPrivate {
        cell: u32,
        len: usize,
    },
    /// `DeclScalar` without initialiser: cell = `Float(0.0)` per active thread.
    ZeroCell {
        cell: u32,
    },
    /// Run a row program over the active lanes; copy `lanes` registers from `src` into the
    /// cell file at `dst` ([`NO_DST`] discards). Flushes the coalescing window afterwards.
    Eval {
        prog: Prog,
        src: u32,
        dst: u32,
        lanes: u32,
    },
    /// Evaluate the condition per active lane (charging `int_ops`), push the then-mask if
    /// any lane took it, else jump to `else_pc`.
    If {
        prog: Prog,
        cond: u32,
        else_pc: usize,
        has_else: bool,
    },
    /// Pop the then-mask (if pushed), push the saved else-mask if any thread holds it, else
    /// jump to `end_pc`.
    Else {
        end_pc: usize,
    },
    /// Pop the branch mask.
    EndIf,
    /// Evaluate the loop initialiser into the loop-variable cell.
    ForInit {
        prog: Prog,
        src: u32,
        cell: u32,
    },
    /// One loop round: charge a row, evaluate the condition per active lane, push the
    /// iteration mask or exit to `end_pc`.
    ForHead {
        prog: Prog,
        cond: u32,
        end_pc: usize,
    },
    /// Advance the loop variable per iterating lane, pop the iteration mask, jump back.
    ForStep {
        prog: Prog,
        src: u32,
        cell: u32,
        slot: u32,
        head_pc: usize,
    },
    /// Charge the statement row, then raise the table error (e.g. an unresolvable
    /// `__local` length, raised at execution position like the interpreter).
    Fail {
        err: u32,
    },
}

/// A compiled kernel body: row stream, expression code, error table, the per-lane cell
/// prototype (kernel parameters pre-merged), the constant pool and the scratch-file size.
pub(crate) struct Program {
    rows: Vec<RowOp>,
    code: Vec<EOp>,
    errors: Vec<VgpuError>,
    proto: Vec<V>,
    consts: Vec<V>,
    n_scratch: u32,
}

// ----------------------------------------------------------------------------- compilation

/// Per-slot cell-file mapping.
#[derive(Clone, Copy)]
struct CellInfo {
    base: u32,
    shape: Shape,
    /// The cell can never hold `None` at runtime (a kernel parameter is merged into the
    /// prototype), so reads skip the [`EOp::SlotChk`].
    nonnull: bool,
}

struct Compiler<'a> {
    exec: &'a Exec,
    rows: Vec<RowOp>,
    code: Vec<EOp>,
    errors: Vec<VgpuError>,
    cells: Vec<Option<CellInfo>>,
    n_cell_regs: u32,
    proto: Vec<V>,
    consts: Vec<V>,
    /// Start of the current row program in `code` (jump targets are relative to it).
    prog_start: usize,
    scratch_top: u32,
    max_scratch: u32,
    /// How the body defines each slot.
    defs: Vec<SlotDefs>,
    /// The slot each cell register belongs to.
    cell_slots: Vec<usize>,
    /// Per slot: every lane active at the current compile point has written its cell (a
    /// defining row of an enclosing block ran before), so reading it needs no check.
    assigned: Vec<bool>,
    /// Inlining stack of user-function indices (recursion is unsupported).
    fn_stack: Vec<usize>,
    /// Substitution stack for inlined user-function parameters (innermost binding last).
    subst: Vec<(usize, Val)>,
}

/// Compiles a lowered kernel body against its prepared launch state. Returns a reason string
/// for constructs the bytecode tier does not support (the engine falls back to the
/// interpreter).
pub(crate) fn compile(body: &[SStmt], exec: &Exec) -> Result<Program, String> {
    let nslots = exec.names.len();
    let defs = prescan(body, nslots, exec)?;
    let mut c = Compiler {
        exec,
        rows: Vec::new(),
        code: Vec::new(),
        errors: Vec::new(),
        cells: vec![None; nslots],
        n_cell_regs: 0,
        proto: Vec::new(),
        consts: Vec::new(),
        prog_start: 0,
        scratch_top: 0,
        max_scratch: 0,
        defs,
        cell_slots: Vec::new(),
        assigned: vec![false; nslots],
        fn_stack: Vec::new(),
        subst: Vec::new(),
    };
    c.block(body)?;
    Ok(Program {
        rows: c.rows,
        code: c.code,
        errors: c.errors,
        proto: c.proto,
        consts: c.consts,
        n_scratch: c.max_scratch,
    })
}

/// The constructs that define a slot in a kernel body.
#[derive(Clone, Copy, Default)]
struct SlotDefs {
    /// Declared as a `__local` array.
    local: bool,
    /// Declared as a private array.
    private: bool,
    /// Declared as a scalar, assigned, or used as a loop variable.
    scalar: bool,
}

/// Collects how each slot is defined and rejects bodies whose slot usage cannot be mapped to
/// a single cell per slot: a slot that is both a `__local` array and a scalar assignee would
/// need the interpreter's two-level name resolution, and field assignment mutates only part
/// of a value.
fn prescan(body: &[SStmt], nslots: usize, exec: &Exec) -> Result<Vec<SlotDefs>, String> {
    let mut defs = vec![SlotDefs::default(); nslots];
    walk(body, &mut defs)?;
    for (slot, d) in defs.iter().enumerate() {
        if d.local && (d.private || d.scalar) {
            return Err(format!(
                "slot `{}` is both a __local array and an assigned variable",
                exec.names[slot]
            ));
        }
    }
    Ok(defs)
}

fn walk(stmts: &[SStmt], defs: &mut [SlotDefs]) -> Result<(), String> {
    for s in stmts {
        match s {
            SStmt::Block(ss) => walk(ss, defs)?,
            SStmt::DeclLocalArray { slot, .. } => defs[*slot].local = true,
            SStmt::DeclPrivateArray { slot, .. } => defs[*slot].private = true,
            SStmt::DeclScalar { slot, .. } => defs[*slot].scalar = true,
            SStmt::Assign { lhs, .. } => match lhs {
                SLhs::Var(slot) => defs[*slot].scalar = true,
                SLhs::FieldOfVar(..) => {
                    return Err("assignment to a field of a variable".to_string())
                }
                SLhs::Array(..) | SLhs::Invalid(_) => {}
            },
            SStmt::If {
                then, otherwise, ..
            } => {
                walk(then, defs)?;
                if let Some(o) = otherwise {
                    walk(o, defs)?;
                }
            }
            SStmt::For { slot, body, .. } => {
                defs[*slot].scalar = true;
                walk(body, defs)?;
            }
            SStmt::Return | SStmt::Barrier | SStmt::Expr(_) => {}
        }
    }
    Ok(())
}

impl Compiler<'_> {
    fn emit(&mut self, op: EOp) {
        self.code.push(op);
    }

    /// Allocates `n` consecutive scratch registers of the current row program.
    fn sn(&mut self, n: u32) -> u32 {
        let base = self.scratch_top;
        self.scratch_top += n;
        self.max_scratch = self.max_scratch.max(self.scratch_top);
        base
    }

    fn s1(&mut self) -> u32 {
        self.sn(1)
    }

    /// The constant-pool operand holding `v` (lane-uniform, so it is never materialised
    /// per lane).
    fn konst(&mut self, v: V) -> u32 {
        // Bitwise equality, so `-0.0` and `0.0` (and NaNs) keep their own entries.
        let same = |c: &V| match (*c, v) {
            (V::Float(x), V::Float(y)) => x.to_bits() == y.to_bits(),
            (c, v) => c == v,
        };
        let id = match self.consts.iter().position(same) {
            Some(i) => i,
            None => {
                self.consts.push(v);
                self.consts.len() - 1
            }
        };
        id as u32 | CONST_BIT
    }

    fn intc(&mut self, v: i64) -> u32 {
        self.konst(V::Int(v))
    }

    fn floatc(&mut self, v: f64) -> u32 {
        self.konst(V::Float(v))
    }

    fn boolc(&mut self, v: bool) -> u32 {
        self.konst(V::Bool(v))
    }

    fn charge(&mut self, int_ops: u32, div_mod_ops: u32, vector_accesses: u32) {
        self.emit(EOp::Charge {
            int_ops,
            div_mod_ops,
            vector_accesses,
        });
    }

    fn errid(&mut self, e: VgpuError) -> u32 {
        if let Some(i) = self.errors.iter().position(|x| *x == e) {
            return i as u32;
        }
        self.errors.push(e);
        (self.errors.len() - 1) as u32
    }

    fn fail(&mut self, e: VgpuError) {
        let err = self.errid(e);
        self.emit(EOp::Fail { err });
    }

    /// Registers for a value that is never produced at runtime (code after an
    /// unconditional [`EOp::Fail`]).
    fn dummy(&mut self, shape: Shape) -> Val {
        Val {
            base: self.sn(shape.lanes()),
            shape,
        }
    }

    /// A register usable in `as_f64`/`as_i64`/`as_ptr` position: aggregates convert exactly
    /// like a `Float(NaN)` placeholder (`NaN`, `0`, `None` respectively).
    fn num(&mut self, v: Val) -> u32 {
        if v.shape.is_scalar() {
            v.base
        } else {
            self.floatc(f64::NAN)
        }
    }

    /// A register usable in `as_bool` position: aggregates read as `false`.
    fn cond(&mut self, v: Val) -> u32 {
        if v.shape.is_scalar() {
            v.base
        } else {
            self.boolc(false)
        }
    }

    fn movn(&mut self, dst: u32, src: u32, n: u32) {
        for k in 0..n {
            self.emit(EOp::Mov {
                dst: dst + k,
                src: src + k,
            });
        }
    }

    /// Compiles a row program: resets the scratch allocator and records the start for
    /// relative jump targets. A program that may store outside private memory is marked
    /// serial: its lanes can observe each other's stores, so they must run in thread order.
    fn row_prog<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<(Prog, T), String> {
        let start = self.code.len();
        self.prog_start = start;
        self.scratch_top = 0;
        let out = f(self)?;
        self.merge_charges(start);
        let serial = self.code[start..].iter().any(|op| match *op {
            EOp::StoreChk { ptr, .. } | EOp::StoreLane { ptr, .. } => !self.private_only(ptr),
            _ => false,
        });
        let prog = Prog {
            start: start as u32,
            len: (self.code.len() - start) as u32,
            serial,
        };
        Ok((prog, out))
    }

    /// Sums the charges of each basic block of the program starting at `start` into the
    /// block's first charge op and drops the rest, remapping jump targets. Where a charge sits
    /// in its block cannot be observed: every lane that enters a block either runs all of it
    /// or fails the launch, and a failed launch reports no counters.
    fn merge_charges(&mut self, start: usize) {
        let len = self.code.len() - start;
        let mut leader = vec![false; len + 1];
        leader[0] = true;
        for (i, op) in self.code[start..].iter().enumerate() {
            if let EOp::Jz { target, .. } | EOp::Jmp { target } = *op {
                leader[target as usize] = true;
                leader[i + 1] = true;
            }
        }
        // Compact in place: `new_index[i]` is where op `i` (or what replaces it) ends up.
        let mut new_index = Vec::with_capacity(len + 1);
        let mut w = start;
        let mut block_charge = None;
        for (i, &is_leader) in leader[..len].iter().enumerate() {
            let op = self.code[start + i];
            if is_leader {
                block_charge = None;
            }
            new_index.push((w - start) as u32);
            if let EOp::Charge {
                int_ops,
                div_mod_ops,
                vector_accesses,
            } = op
            {
                if let Some(at) = block_charge {
                    if let EOp::Charge {
                        int_ops: i,
                        div_mod_ops: d,
                        vector_accesses: v,
                    } = &mut self.code[at]
                    {
                        *i += int_ops;
                        *d += div_mod_ops;
                        *v += vector_accesses;
                    }
                    continue;
                }
                block_charge = Some(w);
            }
            self.code[w] = op;
            w += 1;
        }
        new_index.push((w - start) as u32);
        self.code.truncate(w);
        for op in &mut self.code[start..] {
            if let EOp::Jz { target, .. } | EOp::Jmp { target } = op {
                *target = new_index[*target as usize];
            }
        }
    }

    /// The cell of `slot`, allocating on first touch. `want` enforces a shape (assignments,
    /// declarations); reads pass `None` and default to scalar. Kernel parameters are merged
    /// into the prototype, making the cell provably non-`None`.
    fn cell(&mut self, slot: usize, want: Option<Shape>) -> Result<CellInfo, String> {
        if let Some(info) = self.cells[slot] {
            if let Some(w) = want {
                if w != info.shape {
                    return Err(format!(
                        "slot `{}` changes shape during execution",
                        self.exec.names[slot]
                    ));
                }
            }
            return Ok(info);
        }
        let shape = want.unwrap_or(Shape::Scalar);
        let base = self.n_cell_regs;
        let lanes = shape.lanes();
        self.n_cell_regs += lanes;
        let param = self.exec.params[slot].as_ref();
        let nonnull = if shape.is_scalar() {
            match param {
                Some(p) => {
                    let v = match p {
                        GpuValue::Float(v) => V::Float(*v),
                        GpuValue::Int(v) => V::Int(*v),
                        GpuValue::Bool(b) => V::Bool(*b),
                        GpuValue::Ptr(p) => V::Ptr(CPtr::new(p.space, p.buffer, p.offset)),
                        GpuValue::Vector(_) | GpuValue::Struct(_) => {
                            return Err(format!(
                                "aggregate kernel parameter `{}`",
                                self.exec.names[slot]
                            ))
                        }
                    };
                    self.proto.push(v);
                    true
                }
                None => {
                    self.proto.push(V::None);
                    false
                }
            }
        } else {
            if param.is_some() {
                return Err(format!(
                    "slot `{}` shadows a kernel parameter with an aggregate",
                    self.exec.names[slot]
                ));
            }
            for _ in 0..lanes {
                self.proto.push(V::None);
            }
            false
        };
        self.cell_slots.resize(self.n_cell_regs as usize, slot);
        let info = CellInfo {
            base,
            shape,
            nonnull,
        };
        self.cells[slot] = Some(info);
        Ok(info)
    }

    /// The slot whose cell `r` is, if `r` is a cell operand.
    fn cell_slot(&self, r: u32) -> Option<usize> {
        (r & CELL_BIT != 0).then(|| self.cell_slots[(r ^ CELL_BIT) as usize])
    }

    /// Whether operand `r` can only hold a private-array pointer or nothing: stores through
    /// it cannot be seen by another lane.
    fn private_only(&self, r: u32) -> bool {
        self.cell_slot(r).is_some_and(|slot| {
            let d = self.defs[slot];
            d.private && !d.scalar && !d.local && self.exec.params[slot].is_none()
        })
    }

    /// Whether operand `r` holds a pointer on every lane at the current compile point: an
    /// unassigned pointer parameter, or an array slot that has been declared.
    fn known_ptr(&self, r: u32) -> bool {
        self.cell_slot(r).is_some_and(|slot| {
            let d = self.defs[slot];
            let never_defined = !(d.local || d.private || d.scalar);
            let array_only = (d.local != d.private) && !d.scalar;
            (never_defined && matches!(self.exec.params[slot], Some(GpuValue::Ptr(_))))
                || (array_only && self.assigned[slot])
        })
    }

    /// Checks that `r` holds a pointer, unless that is known at compile time.
    fn ptr_chk(&mut self, r: u32, e: VgpuError) {
        if !self.known_ptr(r) {
            let err = self.errid(e);
            self.emit(EOp::PtrChk { src: r, err });
        }
    }

    fn lookup_subst(&self, slot: usize) -> Option<Val> {
        self.subst
            .iter()
            .rev()
            .find(|(s, _)| *s == slot)
            .map(|(_, v)| *v)
    }

    /// A variable read in value position: inlined function parameters first, then the cell
    /// file (checked against `None` unless a parameter guarantees a value). The cell merges
    /// the interpreter's `thread.vals` → `__local` pointer → kernel parameter resolution
    /// order, which is sound because every defining construct writes the cell.
    fn read_var(&mut self, slot: usize) -> Result<Val, String> {
        if let Some(v) = self.lookup_subst(slot) {
            return Ok(v);
        }
        let info = self.cell(slot, None)?;
        if !info.nonnull && !self.assigned[slot] {
            self.emit(EOp::SlotChk {
                cell: info.base,
                slot: slot as u32,
            });
        }
        Ok(Val {
            base: info.base | CELL_BIT,
            shape: info.shape,
        })
    }

    /// A variable read in index position. The interpreter resolves `thread.vals` then kernel
    /// parameters — skipping `__local` arrays — so local-array slots are unsupported here.
    fn read_idx_var(&mut self, slot: usize) -> Result<u32, String> {
        if let Some(v) = self.lookup_subst(slot) {
            if !v.shape.is_scalar() {
                // An aggregate value reads as integer 0, like `GpuValue::as_i64`.
                return Ok(self.intc(0));
            }
            let dst = self.s1();
            self.emit(EOp::IdxOf { dst, src: v.base });
            return Ok(dst);
        }
        if self.defs[slot].local {
            return Err(format!(
                "__local array `{}` read in index position",
                self.exec.names[slot]
            ));
        }
        let info = self.cell(slot, None)?;
        if !info.nonnull && !self.assigned[slot] {
            self.emit(EOp::SlotChk {
                cell: info.base,
                slot: slot as u32,
            });
        }
        if !info.shape.is_scalar() {
            return Ok(self.intc(0));
        }
        let dst = self.s1();
        self.emit(EOp::IdxOf {
            dst,
            src: info.base | CELL_BIT,
        });
        Ok(dst)
    }

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &SExpr) -> Result<Val, String> {
        match e {
            SExpr::Int(v) => Ok(Val::scalar(self.intc(*v))),
            SExpr::Float(v) => Ok(Val::scalar(self.floatc(*v))),
            SExpr::Var(slot) => self.read_var(*slot),
            SExpr::Index(a) => Ok(Val::scalar(self.index(a)?)),
            SExpr::Bin(op, a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                match (va.shape, vb.shape) {
                    // Lane-wise only when the left operand is a vector (interpreter rule).
                    (Shape::Vector(n), Shape::Vector(m)) => {
                        if m < n {
                            return Err("vector operands of mismatched width".to_string());
                        }
                        let dst = self.sn(n);
                        for i in 0..n {
                            self.emit(EOp::Bin {
                                op: *op,
                                dst: dst + i,
                                a: va.base + i,
                                b: vb.base + i,
                            });
                        }
                        Ok(Val {
                            base: dst,
                            shape: Shape::Vector(n),
                        })
                    }
                    (Shape::Vector(n), _) => {
                        let rb = self.num(vb);
                        let dst = self.sn(n);
                        for i in 0..n {
                            self.emit(EOp::Bin {
                                op: *op,
                                dst: dst + i,
                                a: va.base + i,
                                b: rb,
                            });
                        }
                        Ok(Val {
                            base: dst,
                            shape: Shape::Vector(n),
                        })
                    }
                    _ => {
                        let ra = self.num(va);
                        let rb = self.num(vb);
                        let dst = self.s1();
                        self.emit(EOp::Bin {
                            op: *op,
                            dst,
                            a: ra,
                            b: rb,
                        });
                        Ok(Val::scalar(dst))
                    }
                }
            }
            SExpr::Un(op, a) => {
                let va = self.expr(a)?;
                let dst = self.s1();
                match op {
                    CUnOp::Neg => {
                        let src = self.num(va);
                        self.emit(EOp::Neg { dst, src });
                    }
                    CUnOp::Not => {
                        let src = self.cond(va);
                        self.emit(EOp::Not { dst, src });
                    }
                }
                Ok(Val::scalar(dst))
            }
            SExpr::WorkItem(kind, dim) => {
                let vd = self.expr(dim)?;
                let dim = self.num(vd);
                let dst = self.s1();
                self.emit(EOp::WorkItem {
                    kind: *kind,
                    dst,
                    dim,
                });
                Ok(Val::scalar(dst))
            }
            SExpr::VLoad(width, idx, ptr) => {
                let w = *width as u32;
                let vi = self.expr(idx)?;
                let ri = self.num(vi);
                let vp = self.expr(ptr)?;
                if !vp.shape.is_scalar() {
                    self.fail(VgpuError::NotAPointer(format!("vload{width}")));
                    return Ok(self.dummy(Shape::Vector(w)));
                }
                self.ptr_chk(vp.base, VgpuError::NotAPointer(format!("vload{width}")));
                let dst = self.sn(w);
                for lane in 0..w {
                    self.emit(EOp::LoadLane {
                        dst: dst + lane,
                        ptr: vp.base,
                        idx: ri,
                        width: w,
                        lane,
                    });
                }
                self.charge(0, 0, w);
                Ok(Val {
                    base: dst,
                    shape: Shape::Vector(w),
                })
            }
            SExpr::VStore(width, value, idx, ptr) => {
                let w = *width as u32;
                let vv = self.expr(value)?;
                // A vector value stores its own lanes; anything else is broadcast `width`
                // times (a struct converts to NaN, like the interpreter's `as_f64`).
                let (lane_base, nlanes, broadcast) = match vv.shape {
                    Shape::Vector(n) => (vv.base, n, false),
                    Shape::Struct(_) => (self.floatc(f64::NAN), w, true),
                    Shape::Scalar => (vv.base, w, true),
                };
                let vi = self.expr(idx)?;
                let ri = self.num(vi);
                let vp = self.expr(ptr)?;
                if !vp.shape.is_scalar() {
                    self.fail(VgpuError::NotAPointer(format!("vstore{width}")));
                    return Ok(self.dummy(Shape::Scalar));
                }
                self.ptr_chk(vp.base, VgpuError::NotAPointer(format!("vstore{width}")));
                for lane in 0..nlanes {
                    self.emit(EOp::StoreLane {
                        ptr: vp.base,
                        idx: ri,
                        val: if broadcast {
                            lane_base
                        } else {
                            lane_base + lane
                        },
                        width: w,
                        lane,
                    });
                }
                self.charge(0, 0, w);
                Ok(Val::scalar(self.intc(0)))
            }
            SExpr::Math1(kind, a) => {
                let va = self.expr(a)?;
                let src = self.num(va);
                let dst = self.s1();
                self.emit(EOp::Math1 {
                    kind: *kind,
                    dst,
                    src,
                });
                Ok(Val::scalar(dst))
            }
            SExpr::Math2(kind, a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                let ra = self.num(va);
                let rb = self.num(vb);
                let dst = self.s1();
                self.emit(EOp::Math2 {
                    kind: *kind,
                    dst,
                    a: ra,
                    b: rb,
                });
                Ok(Val::scalar(dst))
            }
            SExpr::Mad(a, b, c) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                let vc = self.expr(c)?;
                let ra = self.num(va);
                let rb = self.num(vb);
                let rc = self.num(vc);
                let dst = self.s1();
                self.emit(EOp::Mad {
                    dst,
                    a: ra,
                    b: rb,
                    c: rc,
                });
                Ok(Val::scalar(dst))
            }
            SExpr::CallFun(fidx, args) => {
                let fun = Rc::clone(&self.exec.functions[*fidx]);
                if fun.params.len() != args.len() {
                    self.fail(VgpuError::ArgumentMismatch {
                        expected: fun.params.len(),
                        found: args.len(),
                    });
                    return Ok(self.dummy(Shape::Scalar));
                }
                if self.fn_stack.contains(fidx) {
                    return Err("recursive user function".to_string());
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a)?);
                }
                // Inline the body with parameters substituted by the argument registers —
                // the compile-time image of the interpreter's save/bind/restore.
                let mark = self.subst.len();
                for (s, v) in fun.params.iter().zip(vals) {
                    self.subst.push((*s, v));
                }
                self.fn_stack.push(*fidx);
                let out = self.expr(&fun.body);
                self.fn_stack.pop();
                self.subst.truncate(mark);
                out
            }
            SExpr::UnknownCall(name) => {
                self.fail(VgpuError::UnknownFunction(name.clone()));
                Ok(self.dummy(Shape::Scalar))
            }
            SExpr::ArrayAccess(arr, idx) => {
                let va = self.expr(arr)?;
                if !va.shape.is_scalar() {
                    self.fail(VgpuError::NotAPointer("array expression".to_string()));
                    return Ok(self.dummy(Shape::Scalar));
                }
                self.ptr_chk(
                    va.base,
                    VgpuError::NotAPointer("array expression".to_string()),
                );
                let vi = self.expr(idx)?;
                let ri = self.num(vi);
                let dst = self.s1();
                self.emit(EOp::Load {
                    dst,
                    ptr: va.base,
                    idx: ri,
                });
                Ok(Val::scalar(dst))
            }
            SExpr::Field(obj, idx, field) => {
                let vo = self.expr(obj)?;
                match vo.shape {
                    Shape::Struct(n) | Shape::Vector(n) => {
                        if (*idx as u32) < n {
                            Ok(Val::scalar(vo.base + *idx as u32))
                        } else {
                            self.fail(VgpuError::UnknownVariable(format!("field {field}")));
                            Ok(self.dummy(Shape::Scalar))
                        }
                    }
                    // Projecting a field out of a scalar passes the value through.
                    Shape::Scalar => Ok(vo),
                }
            }
            SExpr::Cast(kind, inner) => {
                let v = self.expr(inner)?;
                match kind {
                    CastKind::Keep => Ok(v),
                    CastKind::Int => {
                        if v.shape.is_scalar() {
                            let dst = self.s1();
                            self.emit(EOp::CastInt { dst, src: v.base });
                            Ok(Val::scalar(dst))
                        } else {
                            Ok(Val::scalar(self.intc(0)))
                        }
                    }
                    CastKind::Float => {
                        if v.shape.is_scalar() {
                            let dst = self.s1();
                            self.emit(EOp::CastFloat { dst, src: v.base });
                            Ok(Val::scalar(dst))
                        } else {
                            Ok(Val::scalar(self.floatc(f64::NAN)))
                        }
                    }
                    CastKind::Bool => {
                        if v.shape.is_scalar() {
                            let dst = self.s1();
                            self.emit(EOp::CastBool { dst, src: v.base });
                            Ok(Val::scalar(dst))
                        } else {
                            Ok(Val::scalar(self.boolc(false)))
                        }
                    }
                }
            }
            SExpr::Ternary(c, t, other) => {
                let vc = self.expr(c)?;
                let rc = self.cond(vc);
                self.charge(1, 0, 0);
                let jz_at = self.code.len();
                self.emit(EOp::Jz {
                    cond: rc,
                    target: 0,
                });
                let vt = self.expr(t)?;
                let lanes = vt.shape.lanes();
                let res = self.sn(lanes);
                self.movn(res, vt.base, lanes);
                let jmp_at = self.code.len();
                self.emit(EOp::Jmp { target: 0 });
                let else_target = (self.code.len() - self.prog_start) as u32;
                if let EOp::Jz { target, .. } = &mut self.code[jz_at] {
                    *target = else_target;
                }
                let ve = self.expr(other)?;
                if ve.shape != vt.shape {
                    return Err("ternary branches of different shapes".to_string());
                }
                self.movn(res, ve.base, lanes);
                let end_target = (self.code.len() - self.prog_start) as u32;
                if let EOp::Jmp { target } = &mut self.code[jmp_at] {
                    *target = end_target;
                }
                Ok(Val {
                    base: res,
                    shape: vt.shape,
                })
            }
            SExpr::StructLit(fields) => {
                let parts = self.scalar_parts(fields)?;
                let n = parts.len() as u32;
                let dst = self.sn(n);
                for (k, r) in parts.into_iter().enumerate() {
                    self.emit(EOp::Mov {
                        dst: dst + k as u32,
                        src: r,
                    });
                }
                Ok(Val {
                    base: dst,
                    shape: Shape::Struct(n),
                })
            }
            SExpr::VectorLit(elems) => {
                let parts = self.scalar_parts(elems)?;
                let n = parts.len() as u32;
                let dst = self.sn(n);
                for (k, r) in parts.into_iter().enumerate() {
                    self.emit(EOp::Mov {
                        dst: dst + k as u32,
                        src: r,
                    });
                }
                Ok(Val {
                    base: dst,
                    shape: Shape::Vector(n),
                })
            }
        }
    }

    /// Evaluates literal aggregate elements left to right; nested aggregates are
    /// unsupported.
    fn scalar_parts(&mut self, elems: &[SExpr]) -> Result<Vec<u32>, String> {
        let mut parts = Vec::with_capacity(elems.len());
        for e in elems {
            let v = self.expr(e)?;
            if !v.shape.is_scalar() {
                return Err("nested aggregate literal".to_string());
            }
            parts.push(v.base);
        }
        Ok(parts)
    }

    /// Compiles an index expression, charging `int_ops`/`div_mod_ops` exactly where the
    /// interpreter's counting walk does.
    fn index(&mut self, a: &SIndex) -> Result<u32, String> {
        match a {
            SIndex::Cst(c) => Ok(self.intc(*c)),
            SIndex::Var(slot) => self.read_idx_var(*slot),
            SIndex::Sum(ts) => {
                if ts.len() > 1 {
                    self.charge(ts.len() as u32 - 1, 0, 0);
                }
                if ts.is_empty() {
                    return Ok(self.intc(0));
                }
                let mut acc = self.index(&ts[0])?;
                for t in &ts[1..] {
                    let r = self.index(t)?;
                    let dst = self.s1();
                    self.emit(EOp::RAdd { dst, a: acc, b: r });
                    acc = dst;
                }
                Ok(acc)
            }
            SIndex::Prod(fs) => {
                if fs.len() > 1 {
                    self.charge(fs.len() as u32 - 1, 0, 0);
                }
                if fs.is_empty() {
                    return Ok(self.intc(1));
                }
                let mut acc = self.index(&fs[0])?;
                for f in &fs[1..] {
                    let r = self.index(f)?;
                    let dst = self.s1();
                    self.emit(EOp::RMul { dst, a: acc, b: r });
                    acc = dst;
                }
                Ok(acc)
            }
            SIndex::IntDiv(a, b) => {
                self.charge(0, 1, 0);
                let rb = self.index(b)?;
                self.emit(EOp::ZChk { src: rb });
                let ra = self.index(a)?;
                let dst = self.s1();
                self.emit(EOp::RDivE { dst, a: ra, b: rb });
                Ok(dst)
            }
            SIndex::Mod(a, b) => {
                self.charge(0, 1, 0);
                let rb = self.index(b)?;
                self.emit(EOp::ZChk { src: rb });
                let ra = self.index(a)?;
                let dst = self.s1();
                self.emit(EOp::RRemE { dst, a: ra, b: rb });
                Ok(dst)
            }
            SIndex::Pow(b, e) => {
                if *e > 1 {
                    self.charge(e - 1, 0, 0);
                }
                let src = self.index(b)?;
                let dst = self.s1();
                self.emit(EOp::RPow { dst, src, e: *e });
                Ok(dst)
            }
            SIndex::Min(a, b) => {
                self.charge(1, 0, 0);
                let ra = self.index(a)?;
                let rb = self.index(b)?;
                let dst = self.s1();
                self.emit(EOp::RMin { dst, a: ra, b: rb });
                Ok(dst)
            }
            SIndex::Max(a, b) => {
                self.charge(1, 0, 0);
                let ra = self.index(a)?;
                let rb = self.index(b)?;
                let dst = self.s1();
                self.emit(EOp::RMax { dst, a: ra, b: rb });
                Ok(dst)
            }
        }
    }

    fn block(&mut self, stmts: &[SStmt]) -> Result<(), String> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, s: &SStmt) -> Result<(), String> {
        match s {
            SStmt::Block(ss) => self.block(ss),
            SStmt::Return => {
                self.rows.push(RowOp::Ret);
                Ok(())
            }
            SStmt::Barrier => {
                self.rows.push(RowOp::Barrier);
                Ok(())
            }
            SStmt::DeclLocalArray { slot, len } => {
                // Lengths are launch-invariant (they resolve against kernel arguments
                // only), so resolve once here; failures are raised at execution position.
                match self.exec.resolve_len(len) {
                    Ok(l) => {
                        let info = self.cell(*slot, Some(Shape::Scalar))?;
                        self.rows.push(RowOp::DeclLocal {
                            cell: info.base,
                            len: l,
                            slot: *slot as u32,
                        });
                        self.assigned[*slot] = true;
                    }
                    Err(e) => {
                        let err = self.errid(e);
                        self.rows.push(RowOp::Fail { err });
                    }
                }
                Ok(())
            }
            SStmt::DeclPrivateArray { slot, len } => {
                match self.exec.resolve_len(len) {
                    Ok(l) => {
                        let info = self.cell(*slot, Some(Shape::Scalar))?;
                        self.rows.push(RowOp::DeclPrivate {
                            cell: info.base,
                            len: l,
                        });
                        self.assigned[*slot] = true;
                    }
                    Err(e) => {
                        let err = self.errid(e);
                        self.rows.push(RowOp::Fail { err });
                    }
                }
                Ok(())
            }
            SStmt::DeclScalar { slot, init } => {
                match init {
                    None => {
                        let info = self.cell(*slot, Some(Shape::Scalar))?;
                        self.rows.push(RowOp::ZeroCell { cell: info.base });
                        self.assigned[*slot] = true;
                    }
                    Some(e) => {
                        let (prog, v) = self.row_prog(|c| c.expr(e))?;
                        let info = self.cell(*slot, Some(v.shape))?;
                        self.rows.push(RowOp::Eval {
                            prog,
                            src: v.base,
                            dst: info.base,
                            lanes: v.shape.lanes(),
                        });
                        self.assigned[*slot] = true;
                    }
                }
                Ok(())
            }
            SStmt::Assign { lhs, rhs } => match lhs {
                SLhs::Var(slot) => {
                    let (prog, v) = self.row_prog(|c| c.expr(rhs))?;
                    let info = self.cell(*slot, Some(v.shape))?;
                    self.rows.push(RowOp::Eval {
                        prog,
                        src: v.base,
                        dst: info.base,
                        lanes: v.shape.lanes(),
                    });
                    self.assigned[*slot] = true;
                    Ok(())
                }
                SLhs::Array(arr, idx) => {
                    let (prog, ()) = self.row_prog(|c| {
                        let vr = c.expr(rhs)?;
                        let va = c.expr(arr)?;
                        if !va.shape.is_scalar() {
                            c.fail(VgpuError::NotAPointer("array expression".to_string()));
                            return Ok(());
                        }
                        c.ptr_chk(
                            va.base,
                            VgpuError::NotAPointer("array expression".to_string()),
                        );
                        let vi = c.expr(idx)?;
                        let ri = c.num(vi);
                        if vr.shape.is_scalar() {
                            let err = c.errid(VgpuError::InvalidStore("array element".to_string()));
                            c.emit(EOp::StoreChk {
                                ptr: va.base,
                                idx: ri,
                                val: vr.base,
                                err,
                            });
                        } else {
                            // Aggregates are never scalar stores.
                            c.fail(VgpuError::InvalidStore("array element".to_string()));
                        }
                        Ok(())
                    })?;
                    self.rows.push(RowOp::Eval {
                        prog,
                        src: 0,
                        dst: NO_DST,
                        lanes: 0,
                    });
                    Ok(())
                }
                SLhs::FieldOfVar(..) => Err("assignment to a field of a variable".to_string()),
                SLhs::Invalid(rendering) => {
                    let (prog, ()) = self.row_prog(|c| {
                        c.expr(rhs)?;
                        c.fail(VgpuError::InvalidStore(rendering.clone()));
                        Ok(())
                    })?;
                    self.rows.push(RowOp::Eval {
                        prog,
                        src: 0,
                        dst: NO_DST,
                        lanes: 0,
                    });
                    Ok(())
                }
            },
            SStmt::Expr(e) => {
                let (prog, _) = self.row_prog(|c| c.expr(e))?;
                self.rows.push(RowOp::Eval {
                    prog,
                    src: 0,
                    dst: NO_DST,
                    lanes: 0,
                });
                Ok(())
            }
            SStmt::If {
                cond,
                then,
                otherwise,
            } => {
                let (prog, rc) = self.row_prog(|c| {
                    let v = c.expr(cond)?;
                    Ok(c.cond(v))
                })?;
                let if_at = self.rows.len();
                self.rows.push(RowOp::If {
                    prog,
                    cond: rc,
                    else_pc: 0,
                    has_else: otherwise.is_some(),
                });
                // A branch runs for a subset of the lanes: what it assigns does not hold
                // after the `if`.
                let outer = self.assigned.clone();
                self.block(then)?;
                self.assigned.clone_from(&outer);
                if let Some(ow) = otherwise {
                    let else_at = self.rows.len();
                    self.rows.push(RowOp::Else { end_pc: 0 });
                    self.block(ow)?;
                    self.assigned.clone_from(&outer);
                    let endif_at = self.rows.len();
                    self.rows.push(RowOp::EndIf);
                    if let RowOp::If { else_pc, .. } = &mut self.rows[if_at] {
                        *else_pc = else_at;
                    }
                    if let RowOp::Else { end_pc } = &mut self.rows[else_at] {
                        *end_pc = endif_at + 1;
                    }
                } else {
                    let endif_at = self.rows.len();
                    self.rows.push(RowOp::EndIf);
                    if let RowOp::If { else_pc, .. } = &mut self.rows[if_at] {
                        *else_pc = endif_at + 1;
                    }
                }
                Ok(())
            }
            SStmt::For {
                slot,
                init,
                cond,
                step,
                body,
            } => {
                let (iprog, vi) = self.row_prog(|c| c.expr(init))?;
                if !vi.shape.is_scalar() {
                    return Err("aggregate loop variable".to_string());
                }
                let info = self.cell(*slot, Some(Shape::Scalar))?;
                self.rows.push(RowOp::ForInit {
                    prog: iprog,
                    src: vi.base,
                    cell: info.base,
                });
                self.assigned[*slot] = true;
                // The body's assignments hold for the rest of its round (the step included)
                // but not for the next round's head or after the loop.
                let outer = self.assigned.clone();
                let head_at = self.rows.len();
                let (cprog, rc) = self.row_prog(|c| {
                    let v = c.expr(cond)?;
                    Ok(c.cond(v))
                })?;
                self.rows.push(RowOp::ForHead {
                    prog: cprog,
                    cond: rc,
                    end_pc: 0,
                });
                self.block(body)?;
                let (sprog, rs) = self.row_prog(|c| {
                    let v = c.expr(step)?;
                    Ok(c.num(v))
                })?;
                self.rows.push(RowOp::ForStep {
                    prog: sprog,
                    src: rs,
                    cell: info.base,
                    slot: *slot as u32,
                    head_pc: head_at,
                });
                self.assigned = outer;
                let after = self.rows.len();
                if let RowOp::ForHead { end_pc, .. } = &mut self.rows[head_at] {
                    *end_pc = after;
                }
                Ok(())
            }
        }
    }
}

// ------------------------------------------------------------------------------- execution

/// Executes a compiled program against prepared launch state, mirroring the interpreter's
/// group/thread iteration order, mask discipline and counter placement exactly.
pub(crate) fn run(exec: &mut Exec, prog: &Program) -> Result<(), VgpuError> {
    let groups = exec.config.num_groups();
    let local = exec.config.local;
    let mut vm = Vm::new(prog, local);
    for gz in 0..groups[2] {
        for gy in 0..groups[1] {
            for gx in 0..groups[0] {
                let mut group = Group {
                    id: [gx, gy, gz],
                    linear: gx + groups[0] * (gy + groups[1] * gz),
                    local: Vec::new(),
                    local_slots: Vec::new(),
                    epoch: 0,
                    shadow_local: Vec::new(),
                    local_names: Vec::new(),
                };
                vm.start_group(group.id, local);
                exec.counters.work_groups += 1;
                exec.counters.work_items += vm.n as u64;
                let rows_before = exec.counters.lockstep_rows;
                vm.run_group(exec, &mut group)?;
                let group_rows = exec.counters.lockstep_rows - rows_before;
                exec.counters.group_span_rows = exec.counters.group_span_rows.max(group_rows);
            }
        }
    }
    Ok(())
}

/// Where each register file starts in [`Vm::regs`]. Every register holds one value per lane
/// (`n` consecutive entries), so operand decoding happens once per op, not once per lane.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    /// Start of each file, indexed by an operand's top two bits: scratch, constant pool,
    /// cells.
    bases: [usize; 4],
}

impl Layout {
    #[inline(always)]
    fn off(self, r: u32) -> usize {
        self.bases[(r >> 30) as usize] + (r & !(CELL_BIT | CONST_BIT)) as usize * self.n
    }
}

/// Per-launch VM state, reused across work groups.
///
/// The register files are structure-of-arrays: `regs` holds the cell file, the scratch file
/// and the constant pool, each register as `n` lane values. The mask stack arena holds
/// frames of `n` booleans (the top frame is the current activity mask) and the pending
/// else-mask arena those of open `if` rows. `lanes` is the sorted list of lanes the current
/// op runs over; lanes that took a forward jump wait in `pending` until the program reaches
/// the target.
struct Vm<'p> {
    prog: &'p Program,
    n: usize,
    lay: Layout,
    regs: Vec<V>,
    /// The cell file at the start of a group: the prototype broadcast to every lane.
    cell_proto: Vec<V>,
    masks: Vec<bool>,
    else_masks: Vec<bool>,
    /// Per open `if` with an `else`: whether the then-mask was pushed.
    if_stack: Vec<bool>,
    /// Transient then-/iteration-mask buffer.
    tm: Vec<bool>,
    /// Transient else-mask buffer.
    em: Vec<bool>,
    threads: Vec<Thread>,
    lanes: Vec<u32>,
    pending: Vec<(u32, Vec<u32>)>,
    /// The lowest lane that failed in the current row, with its error.
    failure: Option<(u32, VgpuError)>,
}

impl<'p> Vm<'p> {
    fn new(prog: &'p Program, local: [usize; 3]) -> Vm<'p> {
        let n: usize = local.iter().product();
        let ncells = prog.proto.len();
        let consts = (ncells + prog.n_scratch as usize) * n;
        let lay = Layout {
            n,
            bases: [ncells * n, consts, 0, 0],
        };
        let mut regs = vec![V::None; consts + prog.consts.len() * n];
        for (k, c) in prog.consts.iter().enumerate() {
            regs[consts + k * n..consts + (k + 1) * n].fill(*c);
        }
        let cell_proto = prog
            .proto
            .iter()
            .flat_map(|v| std::iter::repeat_n(*v, n))
            .collect();
        let mut threads: Vec<Thread> = Vec::with_capacity(n);
        for lz in 0..local[2] {
            for ly in 0..local[1] {
                for lx in 0..local[0] {
                    threads.push(Thread {
                        lid: [lx, ly, lz],
                        gid: [0, 0, 0],
                        linear: lx + local[0] * (ly + local[1] * lz),
                        vals: Vec::new(),
                        private: Vec::new(),
                        returned: false,
                    });
                }
            }
        }
        Vm {
            prog,
            n,
            lay,
            regs,
            cell_proto,
            masks: Vec::with_capacity(n * 4),
            else_masks: Vec::new(),
            if_stack: Vec::new(),
            tm: vec![false; n],
            em: vec![false; n],
            threads,
            lanes: Vec::with_capacity(n),
            pending: Vec::new(),
            failure: None,
        }
    }

    /// Resets the per-group state: work-item ids, private memory, the cell file and masks.
    fn start_group(&mut self, id: [usize; 3], local: [usize; 3]) {
        for t in &mut self.threads {
            t.gid = [
                id[0] * local[0] + t.lid[0],
                id[1] * local[1] + t.lid[1],
                id[2] * local[2] + t.lid[2],
            ];
            t.private.clear();
            t.returned = false;
        }
        self.regs[..self.cell_proto.len()].copy_from_slice(&self.cell_proto);
        self.masks.clear();
        self.masks.resize(self.n, true);
        self.else_masks.clear();
        self.if_stack.clear();
    }

    /// Sets `lanes` to the active lanes of the current mask: masked in and not returned.
    fn gather(&mut self) {
        let top = self.masks.len() - self.n;
        self.lanes.clear();
        for i in 0..self.n {
            if self.masks[top + i] && !self.threads[i].returned {
                self.lanes.push(i as u32);
            }
        }
    }

    /// Raises the row failure for the lane at `pos` of `lanes`. Every active lane fails
    /// below all earlier failures (those lanes were dropped), so this is the lowest failing
    /// lane so far; it and the lanes above it stop, since thread order never runs them.
    fn fail_at(&mut self, pos: usize, err: VgpuError) {
        let lane = self.lanes[pos];
        self.lanes.truncate(pos);
        for (_, parked) in &mut self.pending {
            parked.retain(|&l| l < lane);
        }
        self.failure = Some((lane, err));
    }

    /// The row's error, if a lane failed.
    fn finish_row(&mut self) -> Result<(), VgpuError> {
        match self.failure.take() {
            Some((_, err)) => Err(err),
            None => Ok(()),
        }
    }

    /// Runs row program `p` over `lanes`; afterwards `lanes` holds the lanes that completed
    /// it, all below the failing lane if one failed.
    ///
    /// A program without global or local stores runs each op over all lanes at once: no
    /// lane can observe another's effects, so only three things depend on the order, and
    /// each is restored. Counters are sums. A failure reports the lowest failing lane. The
    /// race detector's reader updates are deferred and replayed in (lane, op) order. A
    /// program that may store runs lane by lane in thread order instead.
    fn run_row(&mut self, exec: &mut Exec, group: &mut Group, p: Prog) {
        let prog = self.prog;
        let code = &prog.code[p.start as usize..(p.start + p.len) as usize];
        if p.serial {
            let active = std::mem::take(&mut self.lanes);
            let mut done = Vec::with_capacity(active.len());
            for &l in &active {
                self.lanes.clear();
                self.lanes.push(l);
                self.exec_prog(exec, group, code);
                if self.failure.is_some() {
                    break;
                }
                done.push(l);
            }
            self.lanes = done;
        } else {
            exec.defer_reads = exec.detect;
            self.exec_prog(exec, group, code);
            if exec.detect {
                exec.defer_reads = false;
                exec.replay_reads(group);
            }
        }
    }

    /// Lanes parked at jump target `pc` rejoin `lanes`, keeping it sorted.
    fn rejoin(&mut self, pc: u32) {
        while let Some(i) = self.pending.iter().position(|(t, _)| *t == pc) {
            let (_, parked) = self.pending.swap_remove(i);
            self.lanes.extend_from_slice(&parked);
            self.lanes.sort_unstable();
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run_group(&mut self, exec: &mut Exec, group: &mut Group) -> Result<(), VgpuError> {
        let n = self.n;
        let lay = self.lay;
        let mut pc = 0usize;
        while pc < self.prog.rows.len() {
            match self.prog.rows[pc] {
                RowOp::Ret => {
                    exec.counters.lockstep_rows += 1;
                    let top = self.masks.len() - n;
                    for i in 0..n {
                        if self.masks[top + i] {
                            self.threads[i].returned = true;
                        }
                    }
                    pc += 1;
                }
                RowOp::Barrier => {
                    exec.counters.lockstep_rows += 1;
                    let top = self.masks.len() - n;
                    let mut arrived = 0;
                    let mut expected = 0;
                    for i in 0..n {
                        if !self.threads[i].returned {
                            expected += 1;
                            if self.masks[top + i] {
                                arrived += 1;
                            }
                        }
                    }
                    if arrived != expected {
                        return Err(VgpuError::DivergentBarrier {
                            group: group.id,
                            arrived,
                            expected,
                        });
                    }
                    exec.counters.barriers += 1;
                    group.epoch += 1;
                    pc += 1;
                }
                RowOp::DeclLocal { cell, len, slot } => {
                    exec.counters.lockstep_rows += 1;
                    let idx = group.local.len();
                    group.local.push(vec![0.0; len]);
                    if exec.detect {
                        group.shadow_local.push(vec![ShadowCell::default(); len]);
                        group.local_names.push(exec.names[slot as usize].clone());
                    }
                    // The allocation is group-wide: every lane resolves the slot to it,
                    // regardless of the current mask (interpreter semantics).
                    let c = cell as usize * n;
                    self.regs[c..c + n].fill(V::Ptr(CPtr::new(AddrSpace::Local, idx, 0)));
                    pc += 1;
                }
                RowOp::DeclPrivate { cell, len } => {
                    exec.counters.lockstep_rows += 1;
                    self.gather();
                    let c = cell as usize * n;
                    for &l in &self.lanes {
                        let t = &mut self.threads[l as usize];
                        let idx = t.private.len();
                        t.private.push(vec![0.0; len]);
                        self.regs[c + l as usize] = V::Ptr(CPtr::new(AddrSpace::Private, idx, 0));
                    }
                    pc += 1;
                }
                RowOp::ZeroCell { cell } => {
                    exec.counters.lockstep_rows += 1;
                    self.gather();
                    let c = cell as usize * n;
                    for &l in &self.lanes {
                        self.regs[c + l as usize] = V::Float(0.0);
                    }
                    pc += 1;
                }
                RowOp::Eval {
                    prog,
                    src,
                    dst,
                    lanes,
                } => {
                    exec.counters.lockstep_rows += 1;
                    self.gather();
                    self.run_row(exec, group, prog);
                    if dst != NO_DST {
                        for k in 0..lanes {
                            let (s, d) = (lay.off(src + k), (dst + k) as usize * n);
                            for &l in &self.lanes {
                                self.regs[d + l as usize] = self.regs[s + l as usize];
                            }
                        }
                    }
                    self.finish_row()?;
                    exec.flush_accesses();
                    pc += 1;
                }
                RowOp::If {
                    prog,
                    cond,
                    else_pc,
                    has_else,
                } => {
                    exec.counters.lockstep_rows += 1;
                    self.gather();
                    self.run_row(exec, group, prog);
                    self.tm.fill(false);
                    self.em.fill(false);
                    let mut any_then = false;
                    let c = lay.off(cond);
                    for &l in &self.lanes {
                        let l = l as usize;
                        if self.regs[c + l].as_bool() {
                            self.tm[l] = true;
                            any_then = true;
                        } else {
                            self.em[l] = true;
                        }
                    }
                    exec.counters.int_ops += self.lanes.len() as u64;
                    self.finish_row()?;
                    exec.flush_accesses();
                    if has_else {
                        self.else_masks.extend_from_slice(&self.em);
                        self.if_stack.push(any_then);
                    }
                    if any_then {
                        self.masks.extend_from_slice(&self.tm);
                        pc += 1;
                    } else {
                        pc = else_pc;
                    }
                }
                RowOp::Else { end_pc } => {
                    let then_pushed = self.if_stack.pop().expect("balanced if stack");
                    if then_pushed {
                        self.masks.truncate(self.masks.len() - n);
                    }
                    let off = self.else_masks.len() - n;
                    let any = self.else_masks[off..].iter().any(|b| *b);
                    if any {
                        for i in 0..n {
                            let b = self.else_masks[off + i];
                            self.masks.push(b);
                        }
                    }
                    self.else_masks.truncate(off);
                    pc = if any { pc + 1 } else { end_pc };
                }
                RowOp::EndIf => {
                    self.masks.truncate(self.masks.len() - n);
                    pc += 1;
                }
                RowOp::ForInit { prog, src, cell } => {
                    exec.counters.lockstep_rows += 1;
                    self.gather();
                    self.run_row(exec, group, prog);
                    let (s, d) = (lay.off(src), cell as usize * n);
                    for &l in &self.lanes {
                        self.regs[d + l as usize] = self.regs[s + l as usize];
                    }
                    self.finish_row()?;
                    exec.flush_accesses();
                    pc += 1;
                }
                RowOp::ForHead { prog, cond, end_pc } => {
                    // One row per round: the group-wide condition check.
                    exec.counters.lockstep_rows += 1;
                    self.gather();
                    self.run_row(exec, group, prog);
                    self.tm.fill(false);
                    let mut taken = 0;
                    let c = lay.off(cond);
                    for &l in &self.lanes {
                        let l = l as usize;
                        if self.regs[c + l].as_bool() {
                            self.tm[l] = true;
                            taken += 1;
                        }
                    }
                    exec.counters.int_ops += self.lanes.len() as u64;
                    exec.counters.loop_iterations += taken;
                    self.finish_row()?;
                    exec.flush_accesses();
                    if taken > 0 {
                        self.masks.extend_from_slice(&self.tm);
                        pc += 1;
                    } else {
                        pc = end_pc;
                    }
                }
                RowOp::ForStep {
                    prog,
                    src,
                    cell,
                    slot,
                    head_pc,
                } => {
                    self.gather();
                    self.run_row(exec, group, prog);
                    let (s, d) = (lay.off(src), cell as usize * n);
                    for &l in &self.lanes {
                        let l = l as usize;
                        let cur = self.regs[d + l];
                        if matches!(cur, V::None) {
                            // This lane precedes any lane that failed in the program.
                            self.failure = None;
                            return Err(VgpuError::UnknownVariable(
                                exec.names[slot as usize].clone(),
                            ));
                        }
                        self.regs[d + l] = V::Int(cur.as_i64() + self.regs[s + l].as_i64());
                    }
                    exec.counters.int_ops += self.lanes.len() as u64;
                    self.finish_row()?;
                    self.masks.truncate(self.masks.len() - n);
                    exec.flush_accesses();
                    pc = head_pc;
                }
                RowOp::Fail { err } => {
                    exec.counters.lockstep_rows += 1;
                    return Err(self.prog.errors[err as usize].clone());
                }
            }
        }
        Ok(())
    }

    /// Runs one row program over `lanes`, op by op. Lanes split at `Jz`/`Jmp` and rejoin
    /// at the (forward) target; a failing lane is dropped with every lane above it.
    #[allow(clippy::too_many_lines)]
    fn exec_prog(&mut self, exec: &mut Exec, group: &mut Group, code: &[EOp]) {
        let lay = self.lay;
        let prog = self.prog;
        let errors = &prog.errors;
        let mut pc = 0u32;
        loop {
            if !self.pending.is_empty() {
                self.rejoin(pc);
            }
            if self.lanes.is_empty() {
                match self.pending.iter().map(|(t, _)| *t).min() {
                    Some(target) => {
                        pc = target;
                        continue;
                    }
                    None => return,
                }
            }
            let Some(&op) = code.get(pc as usize) else {
                return;
            };
            let active = self.lanes.len() as u64;
            match op {
                EOp::Mov { dst, src } => self.map1(lay.off(dst), lay.off(src), |v| v),
                EOp::SlotChk { cell, slot } => {
                    let c = cell as usize * lay.n;
                    let regs = &self.regs;
                    if let Some(pos) = self
                        .lanes
                        .iter()
                        .position(|&l| matches!(regs[c + l as usize], V::None))
                    {
                        let err = VgpuError::UnknownVariable(exec.names[slot as usize].clone());
                        self.fail_at(pos, err);
                    }
                }
                EOp::IdxOf { dst, src } | EOp::CastInt { dst, src } => {
                    self.map1(lay.off(dst), lay.off(src), |v| V::Int(v.as_i64()));
                }
                EOp::Bin { op, dst, a, b } => {
                    let (d, a, b) = (lay.off(dst), lay.off(a), lay.off(b));
                    if self.lanes.len() == lay.n && self.dense_float_bin(op, d, a, b) {
                        *float_bin_counter(&mut exec.counters, op) += active;
                    } else {
                        self.bin_lanes(&mut exec.counters, op, d, a, b);
                    }
                }
                EOp::Neg { dst, src } => {
                    exec.counters.flops += active;
                    self.map1(lay.off(dst), lay.off(src), |v| match v {
                        V::Int(i) => V::Int(-i),
                        other => V::Float(-other.as_f64()),
                    });
                }
                EOp::Not { dst, src } => {
                    exec.counters.int_ops += active;
                    self.map1(lay.off(dst), lay.off(src), |v| V::Bool(!v.as_bool()));
                }
                EOp::WorkItem { kind, dst, dim } => {
                    let (d, s) = (lay.off(dst), lay.off(dim));
                    let groups = exec.config.num_groups();
                    for &l in &self.lanes {
                        let l = l as usize;
                        let k = self.regs[s + l].as_i64() as usize;
                        let t = &self.threads[l];
                        let v = match kind {
                            WorkItemFn::GlobalId => t.gid[k],
                            WorkItemFn::LocalId => t.lid[k],
                            WorkItemFn::GroupId => group.id[k],
                            WorkItemFn::GlobalSize => exec.config.global[k],
                            WorkItemFn::LocalSize => exec.config.local[k],
                            WorkItemFn::NumGroups => groups[k],
                        };
                        self.regs[d + l] = V::Int(v as i64);
                    }
                }
                EOp::Math1 { kind, dst, src } => {
                    exec.counters.flops += 4 * active;
                    self.map1(lay.off(dst), lay.off(src), |v| {
                        let v = v.as_f64();
                        V::Float(match kind {
                            Math1::Sqrt => v.sqrt(),
                            Math1::Rsqrt => 1.0 / v.sqrt(),
                            Math1::Fabs => v.abs(),
                            Math1::Exp => v.exp(),
                            Math1::Log => v.ln(),
                            Math1::Floor => v.floor(),
                        })
                    });
                }
                EOp::Math2 { kind, dst, a, b } => {
                    exec.counters.flops += active;
                    self.map2(lay.off(dst), lay.off(a), lay.off(b), |x, y| {
                        let (x, y) = (x.as_f64(), y.as_f64());
                        V::Float(match kind {
                            Math2::Min => x.min(y),
                            Math2::Max => x.max(y),
                        })
                    });
                }
                EOp::Mad { dst, a, b, c } => {
                    exec.counters.flops += 2 * active;
                    let (d, a, b, c) = (lay.off(dst), lay.off(a), lay.off(b), lay.off(c));
                    for &l in &self.lanes {
                        let l = l as usize;
                        let x = self.regs[a + l].as_f64();
                        let y = self.regs[b + l].as_f64();
                        let z = self.regs[c + l].as_f64();
                        self.regs[d + l] = V::Float(x * y + z);
                    }
                }
                EOp::CastFloat { dst, src } => {
                    self.map1(lay.off(dst), lay.off(src), |v| V::Float(v.as_f64()));
                }
                EOp::CastBool { dst, src } => {
                    self.map1(lay.off(dst), lay.off(src), |v| V::Bool(v.as_bool()));
                }
                EOp::Charge {
                    int_ops,
                    div_mod_ops,
                    vector_accesses,
                } => {
                    exec.counters.int_ops += u64::from(int_ops) * active;
                    exec.counters.div_mod_ops += u64::from(div_mod_ops) * active;
                    exec.counters.vector_accesses += u64::from(vector_accesses) * active;
                }
                EOp::ZChk { src } => {
                    let s = lay.off(src);
                    let regs = &self.regs;
                    if let Some(pos) = self
                        .lanes
                        .iter()
                        .position(|&l| regs[s + l as usize].as_i64() == 0)
                    {
                        self.fail_at(pos, VgpuError::DivisionByZero);
                    }
                }
                EOp::RAdd { dst, a, b } => self.index_op(lay, dst, a, b, |x, y| x + y),
                EOp::RMul { dst, a, b } => self.index_op(lay, dst, a, b, |x, y| x * y),
                EOp::RDivE { dst, a, b } => self.index_op(lay, dst, a, b, i64::div_euclid),
                EOp::RRemE { dst, a, b } => self.index_op(lay, dst, a, b, i64::rem_euclid),
                EOp::RMin { dst, a, b } => self.index_op(lay, dst, a, b, i64::min),
                EOp::RMax { dst, a, b } => self.index_op(lay, dst, a, b, i64::max),
                EOp::RPow { dst, src, e } => {
                    self.map1(lay.off(dst), lay.off(src), |v| V::Int(v.as_i64().pow(e)));
                }
                EOp::PtrChk { src, err } => {
                    let s = lay.off(src);
                    let regs = &self.regs;
                    if let Some(pos) = self
                        .lanes
                        .iter()
                        .position(|&l| regs[s + l as usize].as_ptr().is_none())
                    {
                        self.fail_at(pos, errors[err as usize].clone());
                    }
                }
                EOp::Load { dst, ptr, idx } => self.load(exec, group, dst, ptr, idx, 1, 0),
                EOp::LoadLane {
                    dst,
                    ptr,
                    idx,
                    width,
                    lane,
                } => self.load(exec, group, dst, ptr, idx, width, lane),
                EOp::StoreChk { ptr, idx, val, err } => {
                    self.store(
                        exec,
                        group,
                        ptr,
                        idx,
                        val,
                        1,
                        0,
                        Some(&errors[err as usize]),
                    );
                }
                EOp::StoreLane {
                    ptr,
                    idx,
                    val,
                    width,
                    lane,
                } => self.store(exec, group, ptr, idx, val, width, lane, None),
                EOp::Jz { cond, target } => {
                    let c = lay.off(cond);
                    let regs = &self.regs;
                    let (stay, jump) = self
                        .lanes
                        .iter()
                        .partition(|&&l| regs[c + l as usize].as_bool());
                    self.lanes = stay;
                    self.pending.push((target, jump));
                }
                EOp::Jmp { target } => {
                    let jump = std::mem::take(&mut self.lanes);
                    self.pending.push((target, jump));
                }
                EOp::Fail { err } => self.fail_at(0, errors[err as usize].clone()),
            }
            pc += 1;
        }
    }

    /// [`bin`] lane by lane. Two floats take the common path inline.
    fn bin_lanes(&mut self, counters: &mut CostCounters, op: CBinOp, d: usize, a: usize, b: usize) {
        let mut float_lanes = 0;
        let mut failed = None;
        for (pos, &l) in self.lanes.iter().enumerate() {
            let l = l as usize;
            self.regs[d + l] = match (self.regs[a + l], self.regs[b + l]) {
                (V::Float(x), V::Float(y)) => {
                    float_lanes += 1;
                    float_bin(op, x, y)
                }
                (x, y) => match bin(counters, op, x, y) {
                    Ok(v) => v,
                    Err(e) => {
                        failed = Some((pos, e));
                        break;
                    }
                },
            };
        }
        *float_bin_counter(counters, op) += float_lanes;
        if let Some((pos, e)) = failed {
            self.fail_at(pos, e);
        }
    }

    /// [`float_bin`] over every lane at once. Returns false when some lane does not hold two
    /// floats; the destination is then partly written, and the caller redoes the op.
    fn dense_float_bin(&mut self, op: CBinOp, d: usize, a: usize, b: usize) -> bool {
        let n = self.lay.n;
        let (out, xs, ys) = split_dst(&mut self.regs, n, d, a, b);
        match op {
            CBinOp::Add => zip_floats(out, xs, ys, |x, y| V::Float(x + y)),
            CBinOp::Sub => zip_floats(out, xs, ys, |x, y| V::Float(x - y)),
            CBinOp::Mul => zip_floats(out, xs, ys, |x, y| V::Float(x * y)),
            CBinOp::Div => zip_floats(out, xs, ys, |x, y| V::Float(x / y)),
            _ => zip_floats(out, xs, ys, |x, y| float_bin(op, x, y)),
        }
    }

    /// `d[l] = f(s[l])` on every active lane (register offsets `d`, `s`). With all lanes
    /// active the loop runs over whole registers.
    #[inline(always)]
    fn map1(&mut self, d: usize, s: usize, f: impl Fn(V) -> V) {
        let n = self.lay.n;
        if self.lanes.len() == n {
            let (out, xs, _) = split_dst(&mut self.regs, n, d, s, s);
            for (o, x) in out.iter_mut().zip(xs) {
                *o = f(*x);
            }
        } else {
            for &l in &self.lanes {
                let l = l as usize;
                self.regs[d + l] = f(self.regs[s + l]);
            }
        }
    }

    /// `d[l] = f(a[l], b[l])` on every active lane, like [`Vm::map1`].
    #[inline(always)]
    fn map2(&mut self, d: usize, a: usize, b: usize, f: impl Fn(V, V) -> V) {
        let n = self.lay.n;
        if self.lanes.len() == n {
            let (out, xs, ys) = split_dst(&mut self.regs, n, d, a, b);
            for (o, (x, y)) in out.iter_mut().zip(xs.iter().zip(ys)) {
                *o = f(*x, *y);
            }
        } else {
            for &l in &self.lanes {
                let l = l as usize;
                self.regs[d + l] = f(self.regs[a + l], self.regs[b + l]);
            }
        }
    }

    /// A fused index op over `i64` registers.
    #[inline(always)]
    fn index_op(&mut self, lay: Layout, dst: u32, a: u32, b: u32, f: impl Fn(i64, i64) -> i64) {
        self.map2(lay.off(dst), lay.off(a), lay.off(b), |x, y| {
            V::Int(f(x.as_i64(), y.as_i64()))
        });
    }

    /// Loads element `idx * scale + lane` through [`Exec::load`] for every lane; `scale` is
    /// the vector width (1 for a scalar load).
    #[allow(clippy::too_many_arguments)]
    fn load(
        &mut self,
        exec: &mut Exec,
        group: &mut Group,
        dst: u32,
        ptr: u32,
        idx: u32,
        scale: u32,
        lane: u32,
    ) {
        let (d, p, i) = (self.lay.off(dst), self.lay.off(ptr), self.lay.off(idx));
        let mut failed = None;
        for (pos, &l) in self.lanes.iter().enumerate() {
            let l = l as usize;
            let ptr = self.regs[p + l]
                .as_ptr()
                .expect("pointer verified by PtrChk")
                .unpack();
            let at = self.regs[i + l].as_i64() * i64::from(scale) + i64::from(lane);
            match exec.load(ptr, at, group, &self.threads[l], scale as usize) {
                Ok(v) => self.regs[d + l] = V::Float(f64::from(v)),
                Err(e) => {
                    failed = Some((pos, e));
                    break;
                }
            }
        }
        if let Some((pos, e)) = failed {
            self.fail_at(pos, e);
        }
    }

    /// Stores `val` to element `idx * scale + lane` through [`Exec::store`] for every lane,
    /// in lane order. With `scalar_check`, a lane whose value is not a scalar fails with
    /// that error instead of storing.
    #[allow(clippy::too_many_arguments)]
    fn store(
        &mut self,
        exec: &mut Exec,
        group: &mut Group,
        ptr: u32,
        idx: u32,
        val: u32,
        scale: u32,
        lane: u32,
        scalar_check: Option<&VgpuError>,
    ) {
        let (p, i, v) = (self.lay.off(ptr), self.lay.off(idx), self.lay.off(val));
        let mut failed = None;
        for (pos, &l) in self.lanes.iter().enumerate() {
            let l = l as usize;
            let ptr = self.regs[p + l]
                .as_ptr()
                .expect("pointer verified by PtrChk")
                .unpack();
            let at = self.regs[i + l].as_i64() * i64::from(scale) + i64::from(lane);
            let value = self.regs[v + l];
            if let Some(err) = scalar_check {
                if !matches!(value, V::Float(_) | V::Int(_) | V::Bool(_)) {
                    failed = Some((pos, err.clone()));
                    break;
                }
            }
            let value = value.as_f64();
            if let Err(e) = exec.store(ptr, at, value, group, &mut self.threads[l], scale as usize)
            {
                failed = Some((pos, e));
                break;
            }
        }
        if let Some((pos, e)) = failed {
            self.fail_at(pos, e);
        }
    }
}

/// Register `d` mutably and registers `a` and `b` shared, each `n` lanes long. An op's
/// destination is a scratch register allocated after its operands, so it never overlaps
/// them.
fn split_dst(regs: &mut [V], n: usize, d: usize, a: usize, b: usize) -> (&mut [V], &[V], &[V]) {
    if a == b {
        let [out, x] = regs
            .get_disjoint_mut([d..d + n, a..a + n])
            .expect("an op's destination is not one of its operands");
        (out, x, x)
    } else {
        let [out, x, y] = regs
            .get_disjoint_mut([d..d + n, a..a + n, b..b + n])
            .expect("an op's destination is not one of its operands");
        (out, x, y)
    }
}

/// `out[l] = f(xs[l], ys[l])` while lanes hold two floats; false at the first lane that
/// does not.
#[inline(always)]
fn zip_floats(out: &mut [V], xs: &[V], ys: &[V], f: impl Fn(f64, f64) -> V) -> bool {
    for (o, (x, y)) in out.iter_mut().zip(xs.iter().zip(ys)) {
        match (*x, *y) {
            (V::Float(x), V::Float(y)) => *o = f(x, y),
            _ => return false,
        }
    }
    true
}

/// [`bin`] on two floats, without the charge (see [`float_bin_counter`]).
#[inline(always)]
fn float_bin(op: CBinOp, x: f64, y: f64) -> V {
    match op {
        CBinOp::Add => V::Float(x + y),
        CBinOp::Sub => V::Float(x - y),
        CBinOp::Mul => V::Float(x * y),
        CBinOp::Div => V::Float(x / y),
        CBinOp::Mod => V::Float(x % y),
        _ => V::Bool(compare(op, x, y)),
    }
}

/// The counter [`bin`] charges for `op` on two floats.
fn float_bin_counter(counters: &mut CostCounters, op: CBinOp) -> &mut u64 {
    match op {
        CBinOp::Add | CBinOp::Sub | CBinOp::Mul | CBinOp::Div => &mut counters.flops,
        CBinOp::Mod => &mut counters.div_mod_ops,
        _ => &mut counters.int_ops,
    }
}

/// The interpreter's `eval_bin` over scalar runtime values, charging by the dynamic path:
/// pointer arithmetic/comparison, integer ops, then mixed/floating point.
fn bin(counters: &mut CostCounters, op: CBinOp, a: V, b: V) -> Result<V, VgpuError> {
    if let V::Ptr(p) = a {
        return Ok(match op {
            CBinOp::Add => V::Ptr(CPtr {
                offset: p.offset + b.as_i64(),
                ..p
            }),
            CBinOp::Sub => V::Ptr(CPtr {
                offset: p.offset - b.as_i64(),
                ..p
            }),
            CBinOp::Eq => V::Bool(Some(p) == b.as_ptr()),
            CBinOp::Ne => V::Bool(Some(p) != b.as_ptr()),
            _ => return Err(VgpuError::NotAPointer("invalid pointer operation".into())),
        });
    }
    if let (V::Int(x), V::Int(y)) = (a, b) {
        return Ok(match op {
            CBinOp::Add | CBinOp::Sub | CBinOp::Mul => {
                counters.int_ops += 1;
                V::Int(match op {
                    CBinOp::Add => x + y,
                    CBinOp::Sub => x - y,
                    _ => x * y,
                })
            }
            CBinOp::Div | CBinOp::Mod => {
                counters.div_mod_ops += 1;
                if y == 0 {
                    return Err(VgpuError::DivisionByZero);
                }
                V::Int(if op == CBinOp::Div {
                    x.div_euclid(y)
                } else {
                    x.rem_euclid(y)
                })
            }
            _ => {
                counters.int_ops += 1;
                V::Bool(compare(op, x as f64, y as f64))
            }
        });
    }
    let (x, y) = (a.as_f64(), b.as_f64());
    Ok(match op {
        CBinOp::Add | CBinOp::Sub | CBinOp::Mul | CBinOp::Div => {
            counters.flops += 1;
            V::Float(match op {
                CBinOp::Add => x + y,
                CBinOp::Sub => x - y,
                CBinOp::Mul => x * y,
                _ => x / y,
            })
        }
        CBinOp::Mod => {
            counters.div_mod_ops += 1;
            V::Float(x % y)
        }
        _ => {
            counters.int_ops += 1;
            V::Bool(compare(op, x, y))
        }
    })
}
