//! The unboxed register VM: what "compiled" means in this reproduction.
//!
//! A frame is four plain vectors; the dispatch loop is a single `match`
//! on monomorphic opcodes. No `Value` is touched between entry and exit,
//! which is where the order-of-magnitude win over the boxed interpreter
//! comes from (experiment E7).

use crate::bytecode::{Cmp, CompiledFunc, Instr, Program, Reg, RegFile};
use crate::export::CallOutput;
use crate::types::Type;
use crate::value::Value;
use crate::SeamlessError;
use std::cell::RefCell;

/// Executes compiled programs.
pub struct Vm<'p> {
    program: &'p Program,
    /// Lane-major register scratch for the vectorized chunk path, reused
    /// across [`Vm::run_chunk`] calls so a long array pays the allocation
    /// once.
    lanes: RefCell<Lanes>,
}

#[derive(Default)]
struct Lanes {
    f: Vec<f64>,
    i: Vec<i64>,
}

struct Frame {
    f: Vec<f64>,
    i: Vec<i64>,
    af: Vec<Vec<f64>>,
    ai: Vec<Vec<i64>>,
}

enum RawRet {
    Unit,
    F(f64),
    I(i64),
    AF(Vec<f64>),
    AI(Vec<i64>),
}

impl<'p> Vm<'p> {
    /// Wrap a program.
    pub fn new(program: &'p Program) -> Self {
        Vm {
            program,
            lanes: RefCell::new(Lanes::default()),
        }
    }

    /// Call the entry function (index 0) with boxed arguments; arrays are
    /// coerced per the compiled signature, mutated arrays come back in
    /// [`CallOutput::args`].
    pub fn call(&self, args: Vec<Value>) -> Result<CallOutput, SeamlessError> {
        self.call_func(0, args)
    }

    /// Call any function in the table.
    pub fn call_func(&self, func: usize, args: Vec<Value>) -> Result<CallOutput, SeamlessError> {
        let f = &self.program.funcs[func];
        if args.len() != f.params.len() {
            return Err(SeamlessError::Runtime(format!(
                "{} takes {} arguments, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        let mut frame = Frame {
            f: vec![0.0; f.reg_counts[0]],
            i: vec![0; f.reg_counts[1]],
            af: vec![Vec::new(); f.reg_counts[2]],
            ai: vec![Vec::new(); f.reg_counts[3]],
        };
        // coerce boxed args into registers per the *inferred* param types
        for (k, v) in args.into_iter().enumerate() {
            let (file, reg) = f.params[k];
            match file {
                RegFile::F => {
                    frame.f[reg as usize] = v.as_f64().ok_or_else(|| {
                        SeamlessError::Runtime(format!("argument {k} must be a number"))
                    })?;
                }
                RegFile::I => {
                    frame.i[reg as usize] = v.as_i64().ok_or_else(|| {
                        SeamlessError::Runtime(format!("argument {k} must be an integer"))
                    })?;
                }
                RegFile::AF => match v {
                    Value::ArrF(a) => frame.af[reg as usize] = a,
                    other => {
                        return Err(SeamlessError::Runtime(format!(
                            "argument {k} must be a float array, got {other:?}"
                        )))
                    }
                },
                RegFile::AI => match v {
                    Value::ArrI(a) => frame.ai[reg as usize] = a,
                    other => {
                        return Err(SeamlessError::Runtime(format!(
                            "argument {k} must be an int array, got {other:?}"
                        )))
                    }
                },
            }
        }
        let raw = self.exec(func, &mut frame)?;
        let ret = match (raw, f.ret) {
            (RawRet::Unit, _) => Value::Unit,
            (RawRet::F(v), _) => Value::Float(v),
            (RawRet::I(v), Type::Bool) => Value::Bool(v != 0),
            (RawRet::I(v), _) => Value::Int(v),
            (RawRet::AF(v), _) => Value::ArrF(v),
            (RawRet::AI(v), _) => Value::ArrI(v),
        };
        // hand mutated arrays back
        let out_args = f
            .params
            .iter()
            .map(|&(file, reg)| match file {
                RegFile::F => Value::Float(frame.f[reg as usize]),
                RegFile::I => Value::Int(frame.i[reg as usize]),
                RegFile::AF => Value::ArrF(std::mem::take(&mut frame.af[reg as usize])),
                RegFile::AI => Value::ArrI(std::mem::take(&mut frame.ai[reg as usize])),
            })
            .collect();
        Ok(CallOutput {
            ret,
            args: out_args,
        })
    }

    /// Unboxed elementwise fast path: run function `func` once per lane
    /// of a chunk. Lane `j` binds `inputs[k][j]` to the k-th parameter;
    /// after the body, each register named in `outs` (float or integer
    /// file) is read into `rows[m][j]`, converting to `T` like Rust `as`.
    /// No `Value` is boxed anywhere. Harvesting several registers lets a
    /// fused multi-statement kernel pay for its shared subexpressions
    /// once; harvesting [`CompiledFunc::ret_reg`] reads the return value.
    ///
    /// Every parameter must live in `T`'s register file and every input
    /// slice must be at least as long as the (equal-length) output rows.
    /// Straight-line bodies run register-vectorized; anything else runs
    /// per lane on one frame reused across the chunk (the compiler writes
    /// every register before a well-formed body reads it).
    pub fn run_chunk<T: Lane>(
        &self,
        func: usize,
        inputs: &[&[T]],
        outs: &[(RegFile, Reg)],
        rows: &mut [&mut [T]],
    ) -> Result<(), SeamlessError> {
        let f = &self.program.funcs[func];
        let err = |msg: String| Err(SeamlessError::Runtime(format!("{}: {msg}", f.name)));
        if inputs.len() != f.params.len() {
            return err(format!(
                "takes {} arguments, got {} input streams",
                f.params.len(),
                inputs.len()
            ));
        }
        if outs.len() != rows.len() {
            return err(format!(
                "{} output registers but {} output rows",
                outs.len(),
                rows.len()
            ));
        }
        let len = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != len) {
            return err("output rows differ in length".into());
        }
        for (k, &(file, _)) in f.params.iter().enumerate() {
            if file != T::FILE {
                return err(format!("parameter {k} is not a {:?}-file scalar", T::FILE));
            }
            if inputs[k].len() < len {
                return err(format!("input {k} shorter than the output rows"));
            }
        }
        for &(file, r) in outs {
            let count = match file {
                RegFile::F => f.reg_counts[0],
                RegFile::I => f.reg_counts[1],
                _ => 0,
            };
            if r as usize >= count {
                return err(format!("output register {file:?}{r} out of range"));
            }
        }
        if len == 0 {
            return Ok(());
        }
        if let Some(body) = vector_body(f) {
            // Row stride = len rounded away from a multiple of the
            // cache-line count: callers hand over power-of-two chunks
            // (4096 lanes), and exactly power-of-two row spacing lands
            // every register row on the same L1 sets, which thrashes once
            // an expression holds a few live rows. One extra line of
            // padding decorrelates them.
            let stride = len + 8;
            let mut lanes = self.lanes.borrow_mut();
            let Lanes { f: fl, i: il } = &mut *lanes;
            vector_pass(f, body, inputs, len, stride, fl, il);
            for (&(file, r), row) in outs.iter().zip(rows.iter_mut()) {
                let at = r as usize * stride;
                match file {
                    RegFile::F => row_from(row, &fl[at..at + len], T::from_f64),
                    _ => row_from(row, &il[at..at + len], T::from_i64),
                }
            }
            return Ok(());
        }
        let ret = f.ret_reg();
        let mut frame = Frame {
            f: vec![0.0; f.reg_counts[0]],
            i: vec![0; f.reg_counts[1]],
            af: vec![Vec::new(); f.reg_counts[2]],
            ai: vec![Vec::new(); f.reg_counts[3]],
        };
        for lane in 0..len {
            for (k, &(_, reg)) in f.params.iter().enumerate() {
                match T::FILE {
                    RegFile::F => frame.f[reg as usize] = inputs[k][lane].to_f64(),
                    _ => frame.i[reg as usize] = inputs[k][lane].to_i64(),
                }
            }
            match (self.exec(func, &mut frame)?, ret) {
                (RawRet::F(v), Some((RegFile::F, r))) => frame.f[r as usize] = v,
                (RawRet::I(v), Some((RegFile::I, r))) => frame.i[r as usize] = v,
                _ => {}
            }
            for (&(file, r), row) in outs.iter().zip(rows.iter_mut()) {
                row[lane] = match file {
                    RegFile::F => T::from_f64(frame.f[r as usize]),
                    _ => T::from_i64(frame.i[r as usize]),
                };
            }
        }
        Ok(())
    }
}

/// Element type of a kernel's input and output rows: the compute dtype a
/// chunk run (and a native body) is monomorphized for. `f64` rows bind
/// float-file parameters and `i64` rows integer-file ones (bools as 0/1);
/// a harvested register of the other file converts like Rust `as`.
pub trait Lane: Copy + Default + Send + Sync + 'static {
    /// The register file parameters of this element type live in.
    const FILE: RegFile;
    /// Dtype tag of native symbols (`name$f64$…`).
    const TAG: &'static str;
    /// The C type of one row element.
    const C_TYPE: &'static str;
    /// Convert a float register value.
    fn from_f64(x: f64) -> Self;
    /// Convert an integer register value.
    fn from_i64(x: i64) -> Self;
    /// Widen (or pass through) to `f64`.
    fn to_f64(self) -> f64;
    /// Narrow (or pass through) to `i64`.
    fn to_i64(self) -> i64;
    /// The bit pattern, for bitwise comparisons.
    fn bits(self) -> u64;
}

impl Lane for f64 {
    const FILE: RegFile = RegFile::F;
    const TAG: &'static str = "f64";
    const C_TYPE: &'static str = "double";
    fn from_f64(x: f64) -> Self {
        x
    }
    fn from_i64(x: i64) -> Self {
        x as f64
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn to_i64(self) -> i64 {
        self as i64
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Lane for i64 {
    const FILE: RegFile = RegFile::I;
    const TAG: &'static str = "i64";
    const C_TYPE: &'static str = "sl_i64";
    fn from_f64(x: f64) -> Self {
        x as i64
    }
    fn from_i64(x: i64) -> Self {
        x
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn to_i64(self) -> i64 {
        self
    }
    fn bits(self) -> u64 {
        self as u64
    }
}

fn row_from<S: Copy, T>(row: &mut [T], src: &[S], conv: impl Fn(S) -> T) {
    for (o, &x) in row.iter_mut().zip(src) {
        *o = conv(x);
    }
}

/// Register-vectorized execution of a straight-line scalar function:
/// each register becomes a lane-major row and every instruction is one
/// tight loop over the whole chunk. Stages the parameters into their
/// register rows, then runs `body` (the function's
/// [`CompiledFunc::straight_line_body`]); the caller reads the result
/// rows it needs out of `fl`/`il`. Only reached with a body
/// [`vector_body`] accepted, which guarantees straight-line infallible
/// instructions and, per computing instruction, a destination register
/// strictly above its same-file sources (so the row splits below never
/// alias).
fn vector_pass<T: Lane>(
    f: &CompiledFunc,
    body: &[Instr],
    inputs: &[&[T]],
    len: usize,
    stride: usize,
    fl: &mut Vec<f64>,
    il: &mut Vec<i64>,
) {
    {
        fl.resize(f.reg_counts[0] * stride, 0.0);
        il.resize(f.reg_counts[1] * stride, 0);
        for (k, &(_, reg)) in f.params.iter().enumerate() {
            let at = reg as usize * stride;
            match T::FILE {
                RegFile::F => row_from(&mut fl[at..at + len], &inputs[k][..len], T::to_f64),
                _ => row_from(&mut il[at..at + len], &inputs[k][..len], T::to_i64),
            }
        }
        // d = op(a, b), all in the float file: d's row sits above both
        // source rows, so splitting at d's offset borrows them disjointly.
        macro_rules! ff2 {
            ($d:expr, $a:expr, $b:expr, $op:expr) => {{
                let (lo, hi) = fl.split_at_mut(*$d as usize * stride);
                let a = &lo[*$a as usize * stride..][..len];
                let b = &lo[*$b as usize * stride..][..len];
                for ((o, &x), &y) in hi[..len].iter_mut().zip(a).zip(b) {
                    *o = $op(x, y);
                }
            }};
        }
        macro_rules! ff1 {
            ($d:expr, $s:expr, $op:expr) => {{
                let (lo, hi) = fl.split_at_mut(*$d as usize * stride);
                let s = &lo[*$s as usize * stride..][..len];
                for (o, &x) in hi[..len].iter_mut().zip(s) {
                    *o = $op(x);
                }
            }};
        }
        macro_rules! ii2 {
            ($d:expr, $a:expr, $b:expr, $op:expr) => {{
                let (lo, hi) = il.split_at_mut(*$d as usize * stride);
                let a = &lo[*$a as usize * stride..][..len];
                let b = &lo[*$b as usize * stride..][..len];
                for ((o, &x), &y) in hi[..len].iter_mut().zip(a).zip(b) {
                    *o = $op(x, y);
                }
            }};
        }
        macro_rules! ii1 {
            ($d:expr, $s:expr, $op:expr) => {{
                let (lo, hi) = il.split_at_mut(*$d as usize * stride);
                let s = &lo[*$s as usize * stride..][..len];
                for (o, &x) in hi[..len].iter_mut().zip(s) {
                    *o = $op(x);
                }
            }};
        }
        for ins in body {
            match ins {
                Instr::ConstF(d, v) => fl[*d as usize * stride..][..len].fill(*v),
                Instr::ConstI(d, v) => il[*d as usize * stride..][..len].fill(*v),
                // a copy needs no split, so it has no ordering rule: an
                // assignment moves a fresh value down into a variable's
                // (lower) register
                Instr::MovF(d, s) => {
                    let at = *s as usize * stride;
                    fl.copy_within(at..at + len, *d as usize * stride);
                }
                Instr::MovI(d, s) => {
                    let at = *s as usize * stride;
                    il.copy_within(at..at + len, *d as usize * stride);
                }
                Instr::IToF(d, s) => {
                    let dst = &mut fl[*d as usize * stride..][..len];
                    let src = &il[*s as usize * stride..][..len];
                    for (o, &x) in dst.iter_mut().zip(src) {
                        *o = x as f64;
                    }
                }
                Instr::FToI(d, s) => {
                    let dst = &mut il[*d as usize * stride..][..len];
                    let src = &fl[*s as usize * stride..][..len];
                    for (o, &x) in dst.iter_mut().zip(src) {
                        *o = x as i64;
                    }
                }
                Instr::AddF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x + y),
                Instr::SubF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x - y),
                Instr::MulF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x * y),
                Instr::DivF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x / y),
                Instr::ModF(d, a, b) => {
                    ff2!(d, a, b, |x: f64, y: f64| x - y * (x / y).floor())
                }
                Instr::PowF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x.powf(y)),
                Instr::NegF(d, s) => ff1!(d, s, |x: f64| -x),
                Instr::AddI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.wrapping_add(y)),
                Instr::SubI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.wrapping_sub(y)),
                Instr::MulI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.wrapping_mul(y)),
                Instr::NegI(d, s) => ii1!(d, s, |x: i64| x.wrapping_neg()),
                Instr::AbsI(d, s) => ii1!(d, s, |x: i64| x.abs()),
                Instr::CmpF(c, d, a, b) => {
                    let dst = &mut il[*d as usize * stride..][..len];
                    let a = &fl[*a as usize * stride..][..len];
                    let b = &fl[*b as usize * stride..][..len];
                    let c = *c;
                    for ((o, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *o = i64::from(cmp_f(c, x, y));
                    }
                }
                Instr::CmpI(c, d, a, b) => {
                    let c = *c;
                    ii2!(d, a, b, |x: i64, y: i64| i64::from(cmp_i(c, x, y)))
                }
                Instr::AndI(d, a, b) => {
                    ii2!(d, a, b, |x: i64, y: i64| i64::from(x != 0 && y != 0))
                }
                Instr::OrI(d, a, b) => {
                    ii2!(d, a, b, |x: i64, y: i64| i64::from(x != 0 || y != 0))
                }
                Instr::NotI(d, s) => ii1!(d, s, |x: i64| i64::from(x == 0)),
                // one monomorphic loop per builtin, so the vectorizable
                // ones (sqrt, abs, floor, ceil) actually vectorize
                Instr::Math1(mf, d, s) => {
                    use crate::bytecode::MathFn::*;
                    match mf {
                        Sqrt => ff1!(d, s, |x: f64| x.sqrt()),
                        Sin => ff1!(d, s, |x: f64| x.sin()),
                        Cos => ff1!(d, s, |x: f64| x.cos()),
                        Tan => ff1!(d, s, |x: f64| x.tan()),
                        Exp => ff1!(d, s, |x: f64| x.exp()),
                        Log => ff1!(d, s, |x: f64| x.ln()),
                        Abs => ff1!(d, s, |x: f64| x.abs()),
                        Floor => ff1!(d, s, |x: f64| x.floor()),
                        Ceil => ff1!(d, s, |x: f64| x.ceil()),
                    }
                }
                Instr::Math2(mf, d, a, b) => {
                    use crate::bytecode::Math2Fn::*;
                    match mf {
                        Hypot => ff2!(d, a, b, |x: f64, y: f64| x.hypot(y)),
                        Atan2 => ff2!(d, a, b, |x: f64, y: f64| x.atan2(y)),
                    }
                }
                // `powi` with a runtime exponent is a per-lane libcall
                // (`__powidf2`); inline its exact binary-exponentiation
                // multiply order for small exponents so the loop stays
                // vectorizable AND bit-identical to `x.powi(e)`.
                Instr::PowIC(d, a, e) => match *e {
                    0 => ff1!(d, a, |_x: f64| 1.0),
                    1 => ff1!(d, a, |x: f64| x),
                    2 => ff1!(d, a, |x: f64| x * x),
                    3 => ff1!(d, a, |x: f64| x * (x * x)),
                    4 => ff1!(d, a, |x: f64| {
                        let t = x * x;
                        t * t
                    }),
                    -1 => ff1!(d, a, |x: f64| 1.0 / x),
                    -2 => ff1!(d, a, |x: f64| 1.0 / (x * x)),
                    e => ff1!(d, a, |x: f64| x.powi(e)),
                },
                Instr::RemF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x % y),
                Instr::MinF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x.min(y)),
                Instr::MaxF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x.max(y)),
                Instr::MinI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.min(y)),
                Instr::MaxI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.max(y)),
                // straight_line_body admits nothing else
                other => unreachable!("non-vectorizable instruction {other:?}"),
            }
        }
    }
}

impl<'p> Vm<'p> {
    fn exec(&self, func: usize, fr: &mut Frame) -> Result<RawRet, SeamlessError> {
        let code = &self.program.funcs[func].instrs;
        let mut pc = 0usize;
        macro_rules! idx {
            ($arr:expr, $i:expr) => {{
                let len = $arr.len() as i64;
                let raw = $i;
                let j = if raw < 0 { raw + len } else { raw };
                if j < 0 || j >= len {
                    return Err(SeamlessError::Runtime(format!(
                        "index {raw} out of range for length {len}"
                    )));
                }
                j as usize
            }};
        }
        loop {
            let ins = &code[pc];
            pc += 1;
            match ins {
                Instr::ConstF(d, v) => fr.f[*d as usize] = *v,
                Instr::ConstI(d, v) => fr.i[*d as usize] = *v,
                Instr::MovF(d, s) => fr.f[*d as usize] = fr.f[*s as usize],
                Instr::MovI(d, s) => fr.i[*d as usize] = fr.i[*s as usize],
                Instr::MovArrF(d, s) => {
                    let v = fr.af[*s as usize].clone();
                    fr.af[*d as usize] = v;
                }
                Instr::MovArrI(d, s) => {
                    let v = fr.ai[*s as usize].clone();
                    fr.ai[*d as usize] = v;
                }
                Instr::IToF(d, s) => fr.f[*d as usize] = fr.i[*s as usize] as f64,
                Instr::FToI(d, s) => fr.i[*d as usize] = fr.f[*s as usize] as i64,
                Instr::AddF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] + fr.f[*b as usize],
                Instr::SubF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] - fr.f[*b as usize],
                Instr::MulF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] * fr.f[*b as usize],
                Instr::DivF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] / fr.f[*b as usize],
                Instr::ModF(d, a, b) => {
                    let (x, y) = (fr.f[*a as usize], fr.f[*b as usize]);
                    fr.f[*d as usize] = x - y * (x / y).floor();
                }
                Instr::PowF(d, a, b) => {
                    fr.f[*d as usize] = fr.f[*a as usize].powf(fr.f[*b as usize])
                }
                Instr::NegF(d, s) => fr.f[*d as usize] = -fr.f[*s as usize],
                Instr::AddI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].wrapping_add(fr.i[*b as usize])
                }
                Instr::SubI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].wrapping_sub(fr.i[*b as usize])
                }
                Instr::MulI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].wrapping_mul(fr.i[*b as usize])
                }
                Instr::FloorDivI(d, a, b) => {
                    let y = fr.i[*b as usize];
                    if y == 0 {
                        return Err(SeamlessError::Runtime("integer division by zero".into()));
                    }
                    fr.i[*d as usize] = fr.i[*a as usize].div_euclid(y);
                }
                Instr::ModI(d, a, b) => {
                    let y = fr.i[*b as usize];
                    if y == 0 {
                        return Err(SeamlessError::Runtime("integer modulo by zero".into()));
                    }
                    fr.i[*d as usize] = fr.i[*a as usize].rem_euclid(y);
                }
                Instr::PowI(d, a, b) => {
                    let e = fr.i[*b as usize];
                    if e < 0 {
                        return Err(SeamlessError::Runtime(
                            "negative integer exponent (use a float base)".into(),
                        ));
                    }
                    fr.i[*d as usize] =
                        fr.i[*a as usize].wrapping_pow(e.min(u32::MAX as i64) as u32);
                }
                Instr::NegI(d, s) => fr.i[*d as usize] = -fr.i[*s as usize],
                Instr::CmpF(c, d, a, b) => {
                    let (x, y) = (fr.f[*a as usize], fr.f[*b as usize]);
                    fr.i[*d as usize] = i64::from(cmp_f(*c, x, y));
                }
                Instr::CmpI(c, d, a, b) => {
                    let (x, y) = (fr.i[*a as usize], fr.i[*b as usize]);
                    fr.i[*d as usize] = i64::from(cmp_i(*c, x, y));
                }
                Instr::AndI(d, a, b) => {
                    fr.i[*d as usize] = i64::from(fr.i[*a as usize] != 0 && fr.i[*b as usize] != 0)
                }
                Instr::OrI(d, a, b) => {
                    fr.i[*d as usize] = i64::from(fr.i[*a as usize] != 0 || fr.i[*b as usize] != 0)
                }
                Instr::NotI(d, s) => fr.i[*d as usize] = i64::from(fr.i[*s as usize] == 0),
                Instr::Jump(t) => pc = *t,
                Instr::JumpIfFalse(c, t) => {
                    if fr.i[*c as usize] == 0 {
                        pc = *t;
                    }
                }
                Instr::LenF(d, a) => fr.i[*d as usize] = fr.af[*a as usize].len() as i64,
                Instr::LenI(d, a) => fr.i[*d as usize] = fr.ai[*a as usize].len() as i64,
                Instr::LoadF(d, a, i) => {
                    let arr = &fr.af[*a as usize];
                    let j = idx!(arr, fr.i[*i as usize]);
                    fr.f[*d as usize] = arr[j];
                }
                Instr::LoadI(d, a, i) => {
                    let arr = &fr.ai[*a as usize];
                    let j = idx!(arr, fr.i[*i as usize]);
                    fr.i[*d as usize] = arr[j];
                }
                Instr::StoreF(a, i, s) => {
                    let v = fr.f[*s as usize];
                    let raw = fr.i[*i as usize];
                    let arr = &mut fr.af[*a as usize];
                    let j = idx!(arr, raw);
                    arr[j] = v;
                }
                Instr::StoreI(a, i, s) => {
                    let v = fr.i[*s as usize];
                    let raw = fr.i[*i as usize];
                    let arr = &mut fr.ai[*a as usize];
                    let j = idx!(arr, raw);
                    arr[j] = v;
                }
                Instr::NewArrF(d, n) => {
                    let n = fr.i[*n as usize];
                    if n < 0 {
                        return Err(SeamlessError::Runtime("negative array length".into()));
                    }
                    fr.af[*d as usize] = vec![0.0; n as usize];
                }
                Instr::NewArrI(d, n) => {
                    let n = fr.i[*n as usize];
                    if n < 0 {
                        return Err(SeamlessError::Runtime("negative array length".into()));
                    }
                    fr.ai[*d as usize] = vec![0; n as usize];
                }
                Instr::Math1(f, d, s) => fr.f[*d as usize] = f.apply(fr.f[*s as usize]),
                Instr::Math2(f, d, a, b) => {
                    fr.f[*d as usize] = f.apply(fr.f[*a as usize], fr.f[*b as usize])
                }
                Instr::PowIC(d, a, e) => fr.f[*d as usize] = fr.f[*a as usize].powi(*e),
                Instr::RemF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] % fr.f[*b as usize],
                Instr::AbsI(d, s) => fr.i[*d as usize] = fr.i[*s as usize].abs(),
                Instr::MinF(d, a, b) => {
                    fr.f[*d as usize] = fr.f[*a as usize].min(fr.f[*b as usize])
                }
                Instr::MaxF(d, a, b) => {
                    fr.f[*d as usize] = fr.f[*a as usize].max(fr.f[*b as usize])
                }
                Instr::MinI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].min(fr.i[*b as usize])
                }
                Instr::MaxI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].max(fr.i[*b as usize])
                }
                Instr::CallExtern { ext, dst, args } => {
                    let decl = &self.program.externs[*ext];
                    let mut raw = Vec::with_capacity(args.len());
                    for &(file, reg) in args {
                        raw.push(match file {
                            RegFile::F => fr.f[reg as usize],
                            RegFile::I => fr.i[reg as usize] as f64,
                            _ => {
                                return Err(SeamlessError::Runtime(format!(
                                    "cannot pass an array to extern {}",
                                    decl.name
                                )))
                            }
                        });
                    }
                    let out = (decl.f)(&raw);
                    match dst.0 {
                        RegFile::F => fr.f[dst.1 as usize] = out,
                        RegFile::I => fr.i[dst.1 as usize] = out as i64,
                        _ => unreachable!("externs return scalars"),
                    }
                }
                Instr::ErrIfFalse(c, msg) => {
                    if fr.i[*c as usize] == 0 {
                        return Err(SeamlessError::Runtime(msg.clone()));
                    }
                }
                Instr::Call { func, dst, args } => {
                    let callee = &self.program.funcs[*func];
                    let mut inner = Frame {
                        f: vec![0.0; callee.reg_counts[0]],
                        i: vec![0; callee.reg_counts[1]],
                        af: vec![Vec::new(); callee.reg_counts[2]],
                        ai: vec![Vec::new(); callee.reg_counts[3]],
                    };
                    // move arguments in (arrays moved, scalars copied)
                    for (k, &(file, reg)) in args.iter().enumerate() {
                        let (pfile, preg) = callee.params[k];
                        match (file, pfile) {
                            (RegFile::F, RegFile::F) => inner.f[preg as usize] = fr.f[reg as usize],
                            (RegFile::I, RegFile::I) => inner.i[preg as usize] = fr.i[reg as usize],
                            (RegFile::I, RegFile::F) => {
                                inner.f[preg as usize] = fr.i[reg as usize] as f64
                            }
                            (RegFile::AF, RegFile::AF) => {
                                inner.af[preg as usize] = std::mem::take(&mut fr.af[reg as usize])
                            }
                            (RegFile::AI, RegFile::AI) => {
                                inner.ai[preg as usize] = std::mem::take(&mut fr.ai[reg as usize])
                            }
                            other => {
                                return Err(SeamlessError::Runtime(format!(
                                    "calling convention mismatch {other:?}"
                                )))
                            }
                        }
                    }
                    let raw = self.exec(*func, &mut inner)?;
                    // move arrays back (mutations become visible)
                    for (k, &(file, reg)) in args.iter().enumerate() {
                        let (_, preg) = callee.params[k];
                        match file {
                            RegFile::AF => {
                                fr.af[reg as usize] = std::mem::take(&mut inner.af[preg as usize])
                            }
                            RegFile::AI => {
                                fr.ai[reg as usize] = std::mem::take(&mut inner.ai[preg as usize])
                            }
                            _ => {}
                        }
                    }
                    if let Some((dfile, dreg)) = dst {
                        match (raw, dfile) {
                            (RawRet::F(v), RegFile::F) => fr.f[*dreg as usize] = v,
                            (RawRet::I(v), RegFile::I) => fr.i[*dreg as usize] = v,
                            (RawRet::I(v), RegFile::F) => fr.f[*dreg as usize] = v as f64,
                            (RawRet::AF(v), RegFile::AF) => fr.af[*dreg as usize] = v,
                            (RawRet::AI(v), RegFile::AI) => fr.ai[*dreg as usize] = v,
                            (RawRet::Unit, _) => {
                                return Err(SeamlessError::Runtime(format!(
                                    "{} did not return a value",
                                    callee.name
                                )))
                            }
                            other => {
                                return Err(SeamlessError::Runtime(format!(
                                    "return convention mismatch {:?}",
                                    other.1
                                )))
                            }
                        }
                    }
                }
                Instr::Ret(r) => {
                    return Ok(match r {
                        None => RawRet::Unit,
                        Some((RegFile::F, reg)) => RawRet::F(fr.f[*reg as usize]),
                        Some((RegFile::I, reg)) => RawRet::I(fr.i[*reg as usize]),
                        Some((RegFile::AF, reg)) => {
                            RawRet::AF(std::mem::take(&mut fr.af[*reg as usize]))
                        }
                        Some((RegFile::AI, reg)) => {
                            RawRet::AI(std::mem::take(&mut fr.ai[*reg as usize]))
                        }
                    });
                }
            }
        }
    }
}

/// The body the register-vectorized chunk path runs: the function's
/// [`CompiledFunc::straight_line_body`], when every computing instruction
/// writes a register strictly above its same-file sources
/// (fresh-register codegen, which both the pyish compiler's expressions
/// and the program-plane lowering produce). The ordering is what lets
/// each instruction split the lane buffer at the destination row and
/// borrow its sources from below without aliasing.
fn vector_body(f: &CompiledFunc) -> Option<&[Instr]> {
    let body = f.straight_line_body()?;
    let above = |d: &Reg, srcs: &[&Reg]| srcs.iter().all(|s| d > *s);
    body.iter()
        .all(|ins| match ins {
            Instr::NegF(d, s)
            | Instr::Math1(_, d, s)
            | Instr::PowIC(d, s, _)
            | Instr::NegI(d, s)
            | Instr::AbsI(d, s)
            | Instr::NotI(d, s) => above(d, &[s]),
            Instr::AddF(d, a, b)
            | Instr::SubF(d, a, b)
            | Instr::MulF(d, a, b)
            | Instr::DivF(d, a, b)
            | Instr::ModF(d, a, b)
            | Instr::PowF(d, a, b)
            | Instr::RemF(d, a, b)
            | Instr::MinF(d, a, b)
            | Instr::MaxF(d, a, b)
            | Instr::Math2(_, d, a, b)
            | Instr::AddI(d, a, b)
            | Instr::SubI(d, a, b)
            | Instr::MulI(d, a, b)
            | Instr::AndI(d, a, b)
            | Instr::OrI(d, a, b)
            | Instr::MinI(d, a, b)
            | Instr::MaxI(d, a, b)
            | Instr::CmpI(_, d, a, b) => above(d, &[a, b]),
            // constants, copies and cross-file conversions or compares
            // (the two files never alias) take no split
            _ => true,
        })
        .then_some(body)
}

fn cmp_f(c: Cmp, x: f64, y: f64) -> bool {
    match c {
        Cmp::Eq => x == y,
        Cmp::Ne => x != y,
        Cmp::Lt => x < y,
        Cmp::Le => x <= y,
        Cmp::Gt => x > y,
        Cmp::Ge => x >= y,
    }
}

fn cmp_i(c: Cmp, x: i64, y: i64) -> bool {
    match c {
        Cmp::Eq => x == y,
        Cmp::Ne => x != y,
        Cmp::Lt => x < y,
        Cmp::Le => x <= y,
        Cmp::Gt => x > y,
        Cmp::Ge => x >= y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use crate::parser::parse_module;

    fn run(src: &str, f: &str, args: Vec<Value>) -> Result<CallOutput, SeamlessError> {
        let types: Vec<Type> = args.iter().map(|a| a.type_of()).collect();
        let m = parse_module(src)?;
        let p = compile_program(&m, f, &types)?;
        Vm::new(&p).call(args)
    }

    #[test]
    fn vm_matches_interpreter_on_sum() {
        let src = "
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res = res + it[i]
    return res
";
        let out = run(src, "sum", vec![Value::ArrF(vec![1.0, 2.0, 3.5])]).unwrap();
        assert_eq!(out.ret, Value::Float(6.5));
    }

    #[test]
    fn fib_recursion() {
        let src = "
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
";
        let out = run(src, "fib", vec![Value::Int(15)]).unwrap();
        assert_eq!(out.ret, Value::Int(610));
    }

    #[test]
    fn array_mutation_comes_back() {
        let src = "
def axpy(y, x, a):
    for i in range(len(y)):
        y[i] = y[i] + a * x[i]
";
        let out = run(
            src,
            "axpy",
            vec![
                Value::ArrF(vec![1.0, 1.0]),
                Value::ArrF(vec![1.0, 2.0]),
                Value::Float(10.0),
            ],
        )
        .unwrap();
        assert_eq!(out.args[0], Value::ArrF(vec![11.0, 21.0]));
        // x untouched
        assert_eq!(out.args[1], Value::ArrF(vec![1.0, 2.0]));
    }

    #[test]
    fn cross_function_array_mutation() {
        let src = "
def fill(a, v):
    for i in range(len(a)):
        a[i] = v

def main(a):
    fill(a, 9.0)
    return a[0]
";
        let out = run(src, "main", vec![Value::ArrF(vec![0.0, 0.0])]).unwrap();
        assert_eq!(out.ret, Value::Float(9.0));
        assert_eq!(out.args[0], Value::ArrF(vec![9.0, 9.0]));
    }

    #[test]
    fn runtime_errors_surface() {
        let src = "def f(a):\n    return a[5]\n";
        let err = run(src, "f", vec![Value::ArrF(vec![1.0])]).unwrap_err();
        assert!(matches!(err, SeamlessError::Runtime(_)));
        let src2 = "def g(n):\n    return 1 // n\n";
        let err2 = run(src2, "g", vec![Value::Int(0)]).unwrap_err();
        assert!(matches!(err2, SeamlessError::Runtime(_)));
        let src3 =
            "def h(n):\n    t = 0\n    for i in range(0, 10, n):\n        t += 1\n    return t\n";
        let err3 = run(src3, "h", vec![Value::Int(0)]).unwrap_err();
        assert!(matches!(err3, SeamlessError::Runtime(_)));
    }

    #[test]
    fn bool_returns_are_boxed_as_bool() {
        let src = "def f(x):\n    return x > 1.5\n";
        let out = run(src, "f", vec![Value::Float(2.0)]).unwrap();
        assert_eq!(out.ret, Value::Bool(true));
    }

    #[test]
    fn zeros_builtin_returns_array() {
        let src = "
def make(n):
    a = zeros(n)
    for i in range(n):
        a[i] = float(i) * 0.5
    return a
";
        let out = run(src, "make", vec![Value::Int(4)]).unwrap();
        assert_eq!(out.ret, Value::ArrF(vec![0.0, 0.5, 1.0, 1.5]));
    }

    #[test]
    fn negative_indexing_in_vm() {
        let src = "def last(a):\n    return a[-1]\n";
        let out = run(src, "last", vec![Value::ArrF(vec![3.0, 7.0])]).unwrap();
        assert_eq!(out.ret, Value::Float(7.0));
    }

    #[test]
    fn run_chunk_return_register_matches_boxed_calls() {
        // A branchy body returns from two different registers; the
        // per-lane path stores either into the return register.
        let src = "
def f(x, y):
    if x > y:
        return x * 2.0
    return y - x
";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "f", &[Type::Float, Type::Float]).unwrap();
        let vm = Vm::new(&p);
        let ret = p.funcs[0].ret_reg().unwrap();
        let xs = [1.0, 4.0, -2.5, 0.0];
        let ys = [3.0, 1.0, -2.5, 7.25];
        let mut out = [0.0; 4];
        vm.run_chunk(0, &[&xs, &ys], &[ret], &mut [&mut out])
            .unwrap();
        for i in 0..4 {
            let boxed = vm
                .call(vec![Value::Float(xs[i]), Value::Float(ys[i])])
                .unwrap();
            assert_eq!(boxed.ret, Value::Float(out[i]));
        }
    }

    #[test]
    fn run_chunk_rejects_array_params() {
        let src = "def g(a):\n    return a[0]\n";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "g", &[Type::ArrF]).unwrap();
        let ret = p.funcs[0].ret_reg().unwrap();
        let err = Vm::new(&p)
            .run_chunk(0, &[&[1.0]], &[ret], &mut [&mut [0.0]])
            .unwrap_err();
        assert!(matches!(err, SeamlessError::Runtime(_)));
    }

    #[test]
    fn run_chunk_reads_intermediate_registers_of_either_file() {
        // Hand-built straight-line function: f2 = f0 + f1, f3 = f2 * f0,
        // i0 = f3 < f0. Reading {f2, f3, i0} out of one pass must match
        // what per-lane arithmetic says each register holds.
        let func = CompiledFunc {
            name: "multi".into(),
            params: vec![(RegFile::F, 0), (RegFile::F, 1)],
            param_types: vec![Type::Float, Type::Float],
            ret: Type::Float,
            reg_counts: [4, 1, 0, 0],
            instrs: vec![
                Instr::AddF(2, 0, 1),
                Instr::MulF(3, 2, 0),
                Instr::CmpF(Cmp::Lt, 0, 3, 0),
                Instr::Ret(Some((RegFile::F, 3))),
            ],
        };
        let p = Program {
            funcs: vec![func],
            externs: vec![],
        };
        let vm = Vm::new(&p);
        let xs = [1.5, -2.0, 0.25, 7.0];
        let ys = [0.5, 3.0, -1.25, 2.0];
        let (mut a, mut b, mut c) = ([0.0; 4], [0.0; 4], [0.0; 4]);
        let outs = [(RegFile::F, 2), (RegFile::F, 3), (RegFile::I, 0)];
        vm.run_chunk(0, &[&xs, &ys], &outs, &mut [&mut a, &mut b, &mut c])
            .unwrap();
        for i in 0..4 {
            let prod = (xs[i] + ys[i]) * xs[i];
            assert_eq!(a[i].to_bits(), (xs[i] + ys[i]).to_bits());
            assert_eq!(b[i].to_bits(), prod.to_bits());
            assert_eq!(c[i], f64::from(u8::from(prod < xs[i])));
        }
        // Out-of-range output register is a runtime error, not UB.
        let err = vm
            .run_chunk(0, &[&xs, &ys], &[(RegFile::F, 9)], &mut [&mut a])
            .unwrap_err();
        assert!(matches!(err, SeamlessError::Runtime(_)));
    }

    #[test]
    fn run_chunk_per_lane_fallback_matches_host_arithmetic() {
        // A looping function is not chunk-vectorizable; the per-lane
        // fallback must agree with boxed calls, in f64 and in i64 rows.
        let src = "
def f(x, y):
    acc = x
    i = 0
    while i < 3:
        acc = acc * 2 + y
        i = i + 1
    return acc
";
        let m = parse_module(src).unwrap();
        for (t, xs, ys) in [
            (Type::Float, [1.0, 4.0, -2.5, 0.0], [3.0, 1.0, -2.5, 7.25]),
            (Type::Int, [1.0, 4.0, -2.0, 0.0], [3.0, 1.0, -2.0, 7.0]),
        ] {
            let p = compile_program(&m, "f", &[t, t]).unwrap();
            let vm = Vm::new(&p);
            let ret = p.funcs[0].ret_reg().unwrap();
            let mut out = [0.0; 4];
            let mut iout = [0i64; 4];
            if t == Type::Float {
                vm.run_chunk(0, &[&xs, &ys], &[ret], &mut [&mut out])
                    .unwrap();
            } else {
                let (xi, yi) = (xs.map(|v| v as i64), ys.map(|v| v as i64));
                vm.run_chunk(0, &[&xi, &yi], &[ret], &mut [&mut iout])
                    .unwrap();
                out = iout.map(|v| v as f64);
            }
            for i in 0..4 {
                let expect = (0..3).fold(xs[i], |acc, _| acc * 2.0 + ys[i]);
                assert_eq!(out[i], expect, "{t:?} lane {i}");
            }
        }
    }

    /// Seeded rows for a chunk run: a few edge values, then randoms in
    /// `[-4, 4)` (f64) or `(-1000, 1000)` (i64).
    fn seeded_rows<T: Lane>(arity: usize, width: usize) -> Vec<Vec<T>> {
        const EDGE: &[f64] = &[0.0, 1.0, -1.0, 0.5, -2.0, 3.0];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        (0..arity)
            .map(|k| {
                (0..width)
                    .map(|lane| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                        match (T::FILE, EDGE.get(lane + k)) {
                            (_, Some(&e)) => T::from_f64(e),
                            (RegFile::F, None) => T::from_f64((u - 0.5) * 8.0),
                            (_, None) => T::from_i64(((u - 0.5) * 2000.0) as i64),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// `run_chunk` harvesting the return register must give, lane by
    /// lane, the bits of one boxed `call_func` per lane.
    fn assert_chunk_matches_boxed<T: Lane>(p: &Program, label: &str) {
        let f = &p.funcs[0];
        let vm = Vm::new(p);
        let ret = f.ret_reg().unwrap();
        for width in (1..=8).chain([4096, 4099]) {
            let mut rows = seeded_rows::<T>(f.params.len(), width);
            // bool rows hold 0/1, like every bool array
            for (t, row) in f.param_types.iter().zip(&mut rows) {
                if *t == Type::Bool {
                    row.iter_mut()
                        .for_each(|v| *v = T::from_i64(i64::from(v.to_i64() != 0)));
                }
            }
            let refs: Vec<&[T]> = rows.iter().map(|r| r.as_slice()).collect();
            let mut out = vec![T::default(); width];
            vm.run_chunk(0, &refs, &[ret], &mut [&mut out]).unwrap();
            for lane in 0..width {
                let args = f
                    .param_types
                    .iter()
                    .zip(&rows)
                    .map(|(t, row)| match t {
                        Type::Float => Value::Float(row[lane].to_f64()),
                        Type::Int => Value::Int(row[lane].to_i64()),
                        _ => Value::Bool(row[lane].to_i64() != 0),
                    })
                    .collect();
                let boxed = match vm.call_func(0, args).unwrap().ret {
                    Value::Float(v) => T::from_f64(v),
                    Value::Int(v) => T::from_i64(v),
                    Value::Bool(b) => T::from_i64(i64::from(b)),
                    other => panic!("{label}: non-scalar return {other:?}"),
                };
                assert_eq!(
                    out[lane].bits(),
                    boxed.bits(),
                    "{label}: width {width} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn straight_line_source_kernels_run_vectorized_and_match_boxed_calls() {
        // (source, entry, parameter type) — every one compiles to a body
        // ending `[…, Ret(Some(r)), Ret(None)]` and must take the
        // vectorized path regardless of that epilogue.
        let table: &[(&str, &str, Type)] = &[
            (
                "def body(x, y):\n    return (x * 0.5 + y) * (x - y * 1.25) + (x * y + 0.75) * 2.0 - x * x * 0.125\n",
                "body",
                Type::Float,
            ),
            ("def ident(x):\n    return x\n", "ident", Type::Float),
            ("def cube(x):\n    return x ** 3\n", "cube", Type::Float),
            (
                "def mm(x, y):\n    return max(min(x, y), sqrt(abs(x))) + exp(-y * y) * hypot(x, y) - floor(x)\n",
                "mm",
                Type::Float,
            ),
            ("def gt(a, b):\n    return a > b\n", "gt", Type::Float),
            (
                "def locals(x, y):\n    t = x * y\n    t = t + 1.0\n    u = t\n    return u * x - t\n",
                "locals",
                Type::Float,
            ),
            (
                "def ints(a, b):\n    return max(a * b - (a + 3) * -b, abs(a)) + min(a, 7)\n",
                "ints",
                Type::Int,
            ),
            (
                "def bools(a, b):\n    return (a and not b) or a == b\n",
                "bools",
                Type::Bool,
            ),
        ];
        for &(src, name, t) in table {
            let m = parse_module(src).unwrap();
            let arity = m
                .functions
                .iter()
                .find(|f| f.name == name)
                .unwrap()
                .params
                .len();
            let p = compile_program(&m, name, &vec![t; arity]).unwrap();
            assert!(
                matches!(p.funcs[0].instrs.last(), Some(Instr::Ret(None))),
                "{name}: expected the compiler's Ret(None) epilogue"
            );
            assert!(vector_body(&p.funcs[0]).is_some(), "{name}: not vectorized");
            match t {
                Type::Float => assert_chunk_matches_boxed::<f64>(&p, name),
                _ => assert_chunk_matches_boxed::<i64>(&p, name),
            }
        }
        // A branch keeps the kernel on the per-lane path, with the same bits.
        let src = "def br(x, y):\n    if x > y:\n        return x * 2.0\n    return y - x\n";
        let p = compile_program(&parse_module(src).unwrap(), "br", &[Type::Float; 2]).unwrap();
        assert!(vector_body(&p.funcs[0]).is_none());
        assert_chunk_matches_boxed::<f64>(&p, "br");
    }

    #[test]
    fn while_break_continue_match_interpreter() {
        let src = "
def f(n):
    total = 0
    i = 0
    while True:
        i = i + 1
        if i > n:
            break
        if i % 2 == 0:
            continue
        total = total + i
    return total
";
        let out = run(src, "f", vec![Value::Int(9)]).unwrap();
        assert_eq!(out.ret, Value::Int(25));
    }
}
