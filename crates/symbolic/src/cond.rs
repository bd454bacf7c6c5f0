//! Symbolic boolean conditions.
//!
//! A [`SymBool`] characterises how the program computes a branch condition
//! (or how DIODE expresses a target constraint) as a predicate over input
//! bytes. Branch conditions recorded along the seed path (the φ sequence of
//! §3.2) are `SymBool`s; the target constraint β produced by
//! [`crate::overflow_condition`] is a `SymBool` too, built from the atomic
//! overflow predicates in [`OvfKind`].

use std::fmt;
use std::sync::Arc;

use diode_lang::{BinOp, Bv, CastKind, CmpOp, UnOp};

use crate::expr::{eval_bin, Evaluator, Sym, SymExpr};

/// Atomic "this operation overflows" predicates. The solver encodes these
/// exactly (widened arithmetic at the bit level); concrete evaluation uses
/// the corresponding [`Bv`] operation flags, so the two semantics agree by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OvfKind {
    /// Unsigned addition overflow: ideal sum ≥ 2^w.
    Add,
    /// Unsigned subtraction underflow: a < b.
    Sub,
    /// Unsigned multiplication overflow: ideal product ≥ 2^w.
    Mul,
    /// Left-shift overflow: nonzero bits shifted out (or shift ≥ width of a
    /// nonzero value).
    Shl,
    /// Negation of a nonzero value (wraps under unsigned semantics).
    Neg,
    /// Non-value-preserving truncation to the given width (`Shrink`).
    Trunc(u8),
}

/// A symbolic boolean condition (cheap to clone; sub-conditions shared).
#[derive(Clone, PartialEq)]
pub enum SymBool {
    /// Constant truth value.
    Const(bool),
    /// Comparison of two equal-width expressions.
    Cmp(CmpOp, SymExpr, SymExpr),
    /// Logical negation.
    Not(Arc<SymBool>),
    /// Conjunction.
    And(Arc<SymBool>, Arc<SymBool>),
    /// Disjunction.
    Or(Arc<SymBool>, Arc<SymBool>),
    /// Atomic overflow predicate on an operation's operands. For unary
    /// kinds ([`OvfKind::Neg`], [`OvfKind::Trunc`]) the second operand is
    /// ignored and conventionally equals the first.
    Ovf(OvfKind, SymExpr, SymExpr),
}

impl SymBool {
    /// Builds a comparison, folding constant operands.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    #[must_use]
    pub fn cmp(op: CmpOp, lhs: SymExpr, rhs: SymExpr) -> SymBool {
        assert_eq!(lhs.width(), rhs.width(), "comparison width mismatch");
        if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
            return SymBool::Const(op.eval(a, b));
        }
        SymBool::Cmp(op, lhs, rhs)
    }

    /// Logical negation with double-negation elimination and constant
    /// folding. Comparisons are negated in place (`<` ↔ `>=`), which keeps
    /// recorded not-taken branch conditions small.
    #[must_use]
    pub fn negate(&self) -> SymBool {
        match self {
            SymBool::Const(b) => SymBool::Const(!b),
            SymBool::Not(inner) => (**inner).clone(),
            SymBool::Cmp(op, a, b) => SymBool::Cmp(op.negated(), a.clone(), b.clone()),
            other => SymBool::Not(Arc::new(other.clone())),
        }
    }

    /// Conjunction with constant folding.
    #[must_use]
    pub fn and(&self, rhs: &SymBool) -> SymBool {
        match (self, rhs) {
            (SymBool::Const(false), _) | (_, SymBool::Const(false)) => SymBool::Const(false),
            (SymBool::Const(true), other) | (other, SymBool::Const(true)) => other.clone(),
            (a, b) => SymBool::And(Arc::new(a.clone()), Arc::new(b.clone())),
        }
    }

    /// Disjunction with constant folding.
    #[must_use]
    pub fn or(&self, rhs: &SymBool) -> SymBool {
        match (self, rhs) {
            (SymBool::Const(true), _) | (_, SymBool::Const(true)) => SymBool::Const(true),
            (SymBool::Const(false), other) | (other, SymBool::Const(false)) => other.clone(),
            (a, b) => SymBool::Or(Arc::new(a.clone()), Arc::new(b.clone())),
        }
    }

    /// Evaluates the condition under an input-byte assignment. Branch
    /// decisions use wrapped machine values (overflow predicates evaluate
    /// via the operation flags).
    ///
    /// Iterative over the connective spine: compressed loop conditions are
    /// conjunctions with thousands of links, so recursion depth must not
    /// scale with occurrence counts. All atoms share one memo over the
    /// shared expression nodes, so the cost is linear in the expression
    /// DAG even when atoms overlap (as the atoms of an `overflow(B)` do).
    pub fn eval(&self, input: &dyn Fn(u32) -> u8) -> bool {
        let mut exprs = Evaluator::new(input);
        enum Task<'a> {
            Visit(&'a SymBool),
            Not,
            And,
            Or,
        }
        let mut tasks = vec![Task::Visit(self)];
        let mut values: Vec<bool> = Vec::new();
        while let Some(task) = tasks.pop() {
            match task {
                Task::Visit(node) => match node {
                    SymBool::Const(b) => values.push(*b),
                    SymBool::Cmp(op, a, b) => {
                        let (av, bv) = (exprs.eval(a).0, exprs.eval(b).0);
                        values.push(op.eval(av, bv));
                    }
                    SymBool::Not(inner) => {
                        tasks.push(Task::Not);
                        tasks.push(Task::Visit(inner));
                    }
                    SymBool::And(a, b) => {
                        tasks.push(Task::And);
                        tasks.push(Task::Visit(a));
                        tasks.push(Task::Visit(b));
                    }
                    SymBool::Or(a, b) => {
                        tasks.push(Task::Or);
                        tasks.push(Task::Visit(a));
                        tasks.push(Task::Visit(b));
                    }
                    SymBool::Ovf(kind, a, b) => {
                        let av = exprs.eval(a).0;
                        let mut bv = || exprs.eval(b).0;
                        values.push(match kind {
                            OvfKind::Add => av.add(bv()).1,
                            OvfKind::Sub => av.sub(bv()).1,
                            OvfKind::Mul => av.mul(bv()).1,
                            OvfKind::Shl => av.shl(bv()).1,
                            OvfKind::Neg => av.neg().1,
                            OvfKind::Trunc(w) => av.trunc(*w).1,
                        });
                    }
                },
                Task::Not => {
                    let v = values.pop().expect("operand");
                    values.push(!v);
                }
                Task::And => {
                    let (a, b) = (values.pop().expect("lhs"), values.pop().expect("rhs"));
                    values.push(a && b);
                }
                Task::Or => {
                    let (a, b) = (values.pop().expect("lhs"), values.pop().expect("rhs"));
                    values.push(a || b);
                }
            }
        }
        values.pop().expect("result")
    }

    /// Sorted input-byte offsets this condition depends on.
    #[must_use]
    pub fn input_bytes(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_bytes(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_bytes(&self, out: &mut Vec<u32>) {
        // Iterative: connective spines can be thousands of links deep.
        let mut stack: Vec<&SymBool> = vec![self];
        while let Some(node) = stack.pop() {
            match node {
                SymBool::Const(_) => {}
                SymBool::Cmp(_, a, b) | SymBool::Ovf(_, a, b) => {
                    out.extend_from_slice(a.input_bytes());
                    out.extend_from_slice(b.input_bytes());
                }
                SymBool::Not(inner) => stack.push(inner),
                SymBool::And(a, b) | SymBool::Or(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
    }

    /// True if the condition references at least one of the given sorted
    /// byte offsets. This is the paper's *relevance* test: "a condition is
    /// relevant to a target constraint β if they share the same input
    /// variable" (§3.3).
    #[must_use]
    pub fn intersects_bytes(&self, sorted: &[u32]) -> bool {
        self.input_bytes()
            .iter()
            .any(|b| sorted.binary_search(b).is_ok())
    }
}

impl fmt::Debug for SymBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SymBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymBool::Const(b) => write!(f, "{b}"),
            SymBool::Cmp(op, a, b) => {
                let name = match op {
                    CmpOp::Eq => "Eq",
                    CmpOp::Ne => "Ne",
                    CmpOp::Ult => "Ult",
                    CmpOp::Ule => "Ule",
                    CmpOp::Ugt => "Ugt",
                    CmpOp::Uge => "Uge",
                    CmpOp::Slt => "Slt",
                    CmpOp::Sle => "Sle",
                    CmpOp::Sgt => "Sgt",
                    CmpOp::Sge => "Sge",
                };
                write!(f, "{name}({a}, {b})")
            }
            SymBool::Not(inner) => write!(f, "Not({inner})"),
            SymBool::And(a, b) => write!(f, "And({a}, {b})"),
            SymBool::Or(a, b) => write!(f, "Or({a}, {b})"),
            SymBool::Ovf(kind, a, b) => match kind {
                OvfKind::Neg => write!(f, "OvfNeg({a})"),
                OvfKind::Trunc(w) => write!(f, "OvfShrink({w}, {a})"),
                OvfKind::Add => write!(f, "OvfAdd({a}, {b})"),
                OvfKind::Sub => write!(f, "OvfSub({a}, {b})"),
                OvfKind::Mul => write!(f, "OvfMul({a}, {b})"),
                OvfKind::Shl => write!(f, "OvfShl({a}, {b})"),
            },
        }
    }
}

/// Derives the target constraint β = `overflow(B)` from a target expression
/// `B` (§3.3, §4.3).
///
/// The result is satisfied by an input iff *some* operation in the
/// evaluation of `B` overflows: a disjunction of atomic overflow predicates
/// over every arithmetic node (add, sub, mul, shl, neg) and every
/// truncation in the expression DAG, in deterministic post-order. The
/// paper's §4.3 example — `((w16 × h16) × 4) / bpp` — is covered because
/// the inner multiplication contributes its own disjunct even though the
/// final division result may be small.
///
/// Returns `SymBool::Const(false)` (unsatisfiable) when the expression
/// contains no overflowing operation — e.g. a constant allocation size or
/// pure byte reassembly, which is how 17 of the paper's 40 target sites are
/// classified (Table 1, "Target Constraint Unsatisfiable" plus structurally
/// safe arithmetic).
#[must_use]
pub fn overflow_condition(expr: &SymExpr) -> SymBool {
    let mut seen = std::collections::HashSet::new();
    let mut atoms = Vec::new();
    collect_overflow_atoms(expr, &mut seen, &mut atoms);
    let mut cond = SymBool::Const(false);
    for atom in atoms {
        cond = cond.or(&atom);
    }
    cond
}

fn collect_overflow_atoms(
    expr: &SymExpr,
    seen: &mut std::collections::HashSet<usize>,
    atoms: &mut Vec<SymBool>,
) {
    let ptr = expr_ptr(expr);
    if !seen.insert(ptr) {
        return;
    }
    match expr.sym() {
        Sym::Const(_) | Sym::InputByte(_) => {}
        Sym::Un(op, a) => {
            collect_overflow_atoms(a, seen, atoms);
            if *op == UnOp::Neg && a.input_bytes().is_empty() {
                // Constant negation: decide statically.
                if let Some(bv) = const_eval(a) {
                    if bv.neg().1 {
                        atoms.push(SymBool::Const(true));
                    }
                    return;
                }
            }
            if *op == UnOp::Neg {
                atoms.push(SymBool::Ovf(OvfKind::Neg, a.clone(), a.clone()));
            }
        }
        Sym::Bin(op, a, b) => {
            collect_overflow_atoms(a, seen, atoms);
            collect_overflow_atoms(b, seen, atoms);
            let kind = match op {
                BinOp::Add => Some(OvfKind::Add),
                BinOp::Sub => Some(OvfKind::Sub),
                BinOp::Mul => Some(OvfKind::Mul),
                BinOp::Shl => Some(OvfKind::Shl),
                _ => None,
            };
            if let Some(kind) = kind {
                // Statically decidable atoms fold away (e.g. `x + 2` at
                // width 32 where x is one byte can never overflow — but
                // `x + 2` where x is a full 32-bit field can).
                if let Some(decided) = static_ovf(kind, a, b) {
                    if decided {
                        atoms.push(SymBool::Const(true));
                    }
                } else {
                    atoms.push(SymBool::Ovf(kind, a.clone(), b.clone()));
                }
            }
        }
        Sym::Cast(kind, w, a) => {
            collect_overflow_atoms(a, seen, atoms);
            if *kind == CastKind::Trunc {
                if let Some(max) = unsigned_max(a) {
                    // Truncation that provably keeps the value is not an
                    // overflow atom.
                    if max <= Bv::mask(*w) {
                        return;
                    }
                }
                atoms.push(SymBool::Ovf(OvfKind::Trunc(*w), a.clone(), a.clone()));
            }
        }
    }
}

fn expr_ptr(e: &SymExpr) -> usize {
    // Two structurally equal but distinct nodes may both be visited; that
    // only duplicates atoms, and `or` keeps the formula linear in DAG size.
    e.sym() as *const Sym as usize
}

fn const_eval(e: &SymExpr) -> Option<Bv> {
    e.as_const()
}

/// Cheap unsigned upper bound of an expression's value, used to discharge
/// statically-safe operations. Returns `None` when no useful bound exists.
fn unsigned_max(e: &SymExpr) -> Option<u128> {
    match e.sym() {
        Sym::Const(bv) => Some(bv.value()),
        Sym::InputByte(_) => Some(0xff),
        Sym::Cast(CastKind::Zext, _, a) => unsigned_max(a),
        Sym::Cast(CastKind::Trunc, w, _) => Some(Bv::mask(*w)),
        Sym::Bin(op, a, b) => {
            let (ma, mb) = (unsigned_max(a)?, unsigned_max(b)?);
            let w = e.width();
            match op {
                BinOp::Add => ma.checked_add(mb).filter(|&v| v <= Bv::mask(w)),
                BinOp::Mul => ma.checked_mul(mb).filter(|&v| v <= Bv::mask(w)),
                BinOp::And => Some(ma.min(mb)),
                BinOp::Or | BinOp::Xor => {
                    // Bounded by the next power of two covering both.
                    let bits = 128 - ma.max(mb).leading_zeros();
                    Some(if bits >= 128 {
                        u128::MAX
                    } else {
                        (1u128 << bits) - 1
                    })
                }
                BinOp::UDiv => {
                    // Division by zero yields all-ones (SMT-LIB), which can
                    // exceed the dividend: the bound only holds when the
                    // divisor is provably nonzero.
                    if b.as_const().is_some_and(|c| !c.is_zero()) {
                        Some(ma)
                    } else {
                        None
                    }
                }
                // The remainder never exceeds the dividend, including the
                // zero-divisor case (urem(a, 0) = a).
                BinOp::URem => Some(ma),
                BinOp::LShr => Some(ma),
                BinOp::Shl => {
                    let shift = b.as_const()?.value();
                    ma.checked_shl(u32::try_from(shift).ok()?)
                        .filter(|&v| v <= Bv::mask(w))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Decides an overflow atom statically when possible.
fn static_ovf(kind: OvfKind, a: &SymExpr, b: &SymExpr) -> Option<bool> {
    if let (Some(av), Some(bv)) = (a.as_const(), b.as_const()) {
        return Some(match kind {
            OvfKind::Add => av.add(bv).1,
            OvfKind::Sub => av.sub(bv).1,
            OvfKind::Mul => av.mul(bv).1,
            OvfKind::Shl => av.shl(bv).1,
            OvfKind::Neg => av.neg().1,
            OvfKind::Trunc(w) => av.trunc(w).1,
        });
    }
    let w = a.width();
    match kind {
        OvfKind::Add => {
            let (ma, mb) = (unsigned_max(a)?, unsigned_max(b)?);
            (ma.checked_add(mb)? <= Bv::mask(w)).then_some(false)
        }
        OvfKind::Mul => {
            let (ma, mb) = (unsigned_max(a)?, unsigned_max(b)?);
            (ma.checked_mul(mb)? <= Bv::mask(w)).then_some(false)
        }
        OvfKind::Shl => {
            let ma = unsigned_max(a)?;
            let shift = b.as_const()?.value();
            let shifted = ma.checked_shl(u32::try_from(shift).ok()?)?;
            (shifted <= Bv::mask(w)).then_some(false)
        }
        OvfKind::Sub => {
            // a - b never underflows if min(a) >= max(b); we only know
            // maxima, so only the trivial b == 0 case is decidable.
            b.as_const().and_then(|bv| bv.is_zero().then_some(false))
        }
        _ => None,
    }
}

/// Evaluates a binary operation as the solver will see it (re-exported for
/// cross-checking in tests).
#[must_use]
pub fn concrete_bin(op: BinOp, a: Bv, b: Bv) -> (Bv, bool) {
    eval_bin(op, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn byte32(off: u32) -> SymExpr {
        SymExpr::input_byte(off).cast(CastKind::Zext, 32)
    }

    fn c32(v: u32) -> SymExpr {
        SymExpr::constant(Bv::u32(v))
    }

    fn field32(base: u32) -> SymExpr {
        // Big-endian 4-byte field: full 32-bit range.
        let b0 = byte32(base).bin(BinOp::Shl, c32(24));
        let b1 = byte32(base + 1).bin(BinOp::Shl, c32(16));
        let b2 = byte32(base + 2).bin(BinOp::Shl, c32(8));
        let b3 = byte32(base + 3);
        b0.bin(BinOp::Or, b1).bin(BinOp::Or, b2).bin(BinOp::Or, b3)
    }

    #[test]
    fn cmp_folds_constants() {
        let c = SymBool::cmp(CmpOp::Ult, c32(3), c32(5));
        assert_eq!(c, SymBool::Const(true));
    }

    #[test]
    fn negate_flips_comparisons_in_place() {
        let c = SymBool::cmp(CmpOp::Ult, byte32(0), c32(5));
        match c.negate() {
            SymBool::Cmp(CmpOp::Uge, _, _) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.negate().negate(), c);
    }

    #[test]
    fn and_or_fold() {
        let t = SymBool::Const(true);
        let f = SymBool::Const(false);
        let c = SymBool::cmp(CmpOp::Eq, byte32(0), c32(5));
        assert_eq!(t.and(&c), c);
        assert_eq!(f.and(&c), SymBool::Const(false));
        assert_eq!(f.or(&c), c);
        assert_eq!(t.or(&c), SymBool::Const(true));
    }

    #[test]
    fn eval_respects_shortcircuit_semantics() {
        let c = SymBool::cmp(CmpOp::Ugt, byte32(0), c32(10)).and(&SymBool::cmp(
            CmpOp::Ult,
            byte32(1),
            c32(4),
        ));
        assert!(c.eval(&|off| if off == 0 { 20 } else { 2 }));
        assert!(!c.eval(&|off| if off == 0 { 5 } else { 2 }));
    }

    #[test]
    fn input_bytes_dedup() {
        let c = SymBool::cmp(CmpOp::Eq, byte32(3), byte32(3).bin(BinOp::Add, c32(1)));
        assert_eq!(c.input_bytes(), vec![3]);
        assert!(c.intersects_bytes(&[1, 3, 9]));
        assert!(!c.intersects_bytes(&[1, 2, 9]));
    }

    #[test]
    fn overflow_condition_of_pure_reassembly_is_unsat() {
        // Endianness reassembly alone cannot overflow: shifts provably
        // lose no bits, `or` has no overflow atom.
        let beta = overflow_condition(&field32(0));
        assert_eq!(beta, SymBool::Const(false));
    }

    #[test]
    fn overflow_condition_of_byte_times_small_const_is_unsat() {
        // in[0] (≤ 255) * 4 at width 32 provably fits.
        let e = byte32(0).bin(BinOp::Mul, c32(4));
        assert_eq!(overflow_condition(&e), SymBool::Const(false));
    }

    #[test]
    fn overflow_condition_of_field_mul_is_satisfiable_and_correct() {
        let e = field32(0).bin(BinOp::Mul, field32(4));
        let beta = overflow_condition(&e);
        assert_ne!(beta, SymBool::Const(false));
        // Semantic agreement: β holds iff evaluation overflows.
        let big = |off: u32| if off < 4 { 0xff } else { 0x01 };
        let small = |off: u32| if off == 3 || off == 7 { 2 } else { 0 };
        assert_eq!(beta.eval(&big), e.eval_overflow(&big).1);
        assert!(beta.eval(&big));
        assert_eq!(beta.eval(&small), e.eval_overflow(&small).1);
        assert!(!beta.eval(&small));
    }

    #[test]
    fn overflow_condition_catches_subexpression_overflow() {
        // ((w16 × h16) × 4) >> 8: the shift keeps the final value small but
        // the inner multiply still overflows (§4.3's example, with >> for /).
        let w16 = SymExpr::input_byte(0)
            .cast(CastKind::Zext, 16)
            .bin(BinOp::Shl, SymExpr::constant(Bv::new(16, 8)))
            .bin(BinOp::Or, SymExpr::input_byte(1).cast(CastKind::Zext, 16))
            .cast(CastKind::Zext, 32);
        let h16 = SymExpr::input_byte(2)
            .cast(CastKind::Zext, 16)
            .bin(BinOp::Shl, SymExpr::constant(Bv::new(16, 8)))
            .bin(BinOp::Or, SymExpr::input_byte(3).cast(CastKind::Zext, 16))
            .cast(CastKind::Zext, 32);
        let e = w16
            .bin(BinOp::Mul, h16)
            .bin(BinOp::Mul, c32(4))
            .bin(BinOp::LShr, c32(8));
        let beta = overflow_condition(&e);
        let big = |_: u32| 0xffu8;
        assert!(beta.eval(&big));
        assert_eq!(beta.eval(&big), e.eval_overflow(&big).1);
    }

    #[test]
    fn cve_2008_2430_shape_x_plus_2() {
        // Target expression x + 2 where x is a full 32-bit field: exactly
        // two overflowing values (0xFFFFFFFE, 0xFFFFFFFF) — §5.5.
        let e = field32(0).bin(BinOp::Add, c32(2));
        let beta = overflow_condition(&e);
        assert!(matches!(beta, SymBool::Ovf(OvfKind::Add, _, _)));
        let make = |v: u32| move |off: u32| (v >> (8 * (3 - off))) as u8;
        assert!(beta.eval(&make(0xffff_fffe)));
        assert!(beta.eval(&make(0xffff_ffff)));
        assert!(!beta.eval(&make(0xffff_fffd)));
        assert!(!beta.eval(&make(0)));
    }

    #[test]
    fn eval_is_linear_in_shared_dag_size() {
        // x = x + x, 64 times, over one 8-bit byte: 65 nodes that unfold
        // to a tree of 2^64 leaves, and β holds one overflow atom per
        // doubling, each sharing the whole chain below it. The work runs
        // on its own thread so an exponential evaluator fails the test
        // instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut x = SymExpr::input_byte(0);
            for _ in 0..64 {
                x = x.bin(BinOp::Add, x.clone());
            }
            let e = x.bin(BinOp::Mul, SymExpr::constant(Bv::new(8, 3)));
            let beta = overflow_condition(&e);
            let _ = tx.send((
                beta.eval(&|_| 0),
                beta.eval(&|_| 1),
                e.eval_overflow(&|_| 1),
            ));
        });
        let results = rx.recv_timeout(std::time::Duration::from_secs(30));
        assert!(
            !matches!(results, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "evaluating a shared DAG must take time linear in its size"
        );
        worker.join().expect("the evaluation thread panicked");
        let (zero, one, (value, ovf)) = results.expect("sent before the thread ended");
        assert!(!zero, "0 doubles to 0 without overflow");
        assert!(one, "1 doubled 8 times overflows 8 bits");
        assert_eq!(value.value(), 0, "2^64 * 3 wraps to 0 at 8 bits");
        assert!(ovf);
    }

    #[test]
    fn display_is_readable() {
        let e = field32(0).bin(BinOp::Mul, c32(3));
        let beta = overflow_condition(&e);
        let s = beta.to_string();
        assert!(s.starts_with("OvfMul("), "{s}");
    }
}
