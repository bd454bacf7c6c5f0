//! Symbolic arithmetic expressions over input bytes.
//!
//! A [`SymExpr`] characterises how the program computes a value as a
//! function of the *relevant input bytes* (§1.1). Expressions are immutable
//! reference-counted DAGs: when the interpreter propagates a symbolic value
//! through the program, sub-expressions are shared rather than copied,
//! which is what makes recording feasible ("compressed for efficiency",
//! §1.3).
//!
//! Construction applies the paper's §4.2 run-time simplifications: constant
//! folding, collapsing of constant add/mul chains (the `Add32` example),
//! neutral-element elimination, and cast fusion. All rewrites preserve the
//! concrete value of the expression; the few that could mask an
//! intermediate wrap-around (nested constant folds) are only applied when
//! the folded constant itself does not wrap.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use diode_lang::{BinOp, Bv, CastKind, UnOp};

/// Interior node of a symbolic expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Sym {
    /// A compile-time constant.
    Const(Bv),
    /// One byte of program input at the given offset (8 bits wide). The
    /// paper renders these as Hachoir field references (`HachField`); the
    /// byte-offset → field mapping lives in `diode-format`.
    InputByte(u32),
    /// Unary operation.
    Un(UnOp, SymExpr),
    /// Binary operation (operands have equal width).
    Bin(BinOp, SymExpr, SymExpr),
    /// Width conversion (`ToSize`/`Shrink` in the paper's rendering).
    Cast(CastKind, u8, SymExpr),
}

#[derive(Debug)]
struct Node {
    sym: Sym,
    width: u8,
    /// Sorted, deduplicated input-byte offsets this expression depends on.
    bytes: Arc<[u32]>,
}

/// A reference-counted symbolic expression (cheap to clone, shared
/// structurally).
///
/// # Examples
///
/// ```
/// use diode_lang::{BinOp, Bv, CastKind};
/// use diode_symbolic::SymExpr;
///
/// // (zext32(in[0]) << 8) | zext32(in[1]) — a 16-bit big-endian field read.
/// let hi = SymExpr::input_byte(0).cast(CastKind::Zext, 32);
/// let lo = SymExpr::input_byte(1).cast(CastKind::Zext, 32);
/// let field = hi.bin(BinOp::Shl, SymExpr::constant(Bv::u32(8))).bin(BinOp::Or, lo);
/// assert_eq!(field.width(), 32);
/// assert_eq!(field.input_bytes(), &[0, 1]);
/// assert_eq!(field.eval(&|off| [0xAB, 0xCD][off as usize]).value(), 0xABCD);
/// ```
#[derive(Clone)]
pub struct SymExpr(Arc<Node>);

impl SymExpr {
    /// A constant expression.
    #[must_use]
    pub fn constant(bv: Bv) -> Self {
        SymExpr(Arc::new(Node {
            width: bv.width(),
            sym: Sym::Const(bv),
            bytes: Arc::from(Vec::new()),
        }))
    }

    /// The input byte at `offset` (8 bits wide).
    #[must_use]
    pub fn input_byte(offset: u32) -> Self {
        SymExpr(Arc::new(Node {
            width: 8,
            sym: Sym::InputByte(offset),
            bytes: Arc::from(vec![offset]),
        }))
    }

    /// The node's operator/operands.
    #[must_use]
    pub fn sym(&self) -> &Sym {
        &self.0.sym
    }

    /// The expression's width in bits.
    #[must_use]
    pub fn width(&self) -> u8 {
        self.0.width
    }

    /// The constant value, if this expression is a constant.
    #[must_use]
    pub fn as_const(&self) -> Option<Bv> {
        match self.0.sym {
            Sym::Const(bv) => Some(bv),
            _ => None,
        }
    }

    /// Sorted input-byte offsets this expression depends on (the *relevant
    /// input bytes* of the value it describes).
    #[must_use]
    pub fn input_bytes(&self) -> &[u32] {
        &self.0.bytes
    }

    /// True if the two references share the same node (O(1)).
    #[must_use]
    pub fn ptr_eq(a: &SymExpr, b: &SymExpr) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// An opaque identity for the shared node: two expressions return the
    /// same id iff [`SymExpr::ptr_eq`] holds. Valid only while at least one
    /// of the references is alive; intended for memoized DAG traversals
    /// (e.g. the solver query cache's structural fingerprinting).
    #[must_use]
    pub fn node_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    fn merged_bytes(a: &SymExpr, b: &SymExpr) -> Arc<[u32]> {
        if a.0.bytes.is_empty() {
            return b.0.bytes.clone();
        }
        if b.0.bytes.is_empty() {
            return a.0.bytes.clone();
        }
        let mut out = Vec::with_capacity(a.0.bytes.len() + b.0.bytes.len());
        let (mut i, mut j) = (0, 0);
        while i < a.0.bytes.len() && j < b.0.bytes.len() {
            match a.0.bytes[i].cmp(&b.0.bytes[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a.0.bytes[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b.0.bytes[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a.0.bytes[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a.0.bytes[i..]);
        out.extend_from_slice(&b.0.bytes[j..]);
        Arc::from(out)
    }

    /// Builds a unary operation, folding constants and removing double
    /// negation/complement.
    ///
    /// # Panics
    ///
    /// Never panics: unary operations preserve width.
    #[must_use]
    pub fn un(&self, op: UnOp) -> SymExpr {
        if let Some(bv) = self.as_const() {
            let folded = match op {
                UnOp::Neg => self_neg(bv),
                UnOp::Not => bv.not(),
            };
            return SymExpr::constant(folded);
        }
        if let Sym::Un(inner_op, inner) = &self.0.sym {
            if *inner_op == op {
                // -(-x) == x and ~(~x) == x.
                return inner.clone();
            }
        }
        SymExpr(Arc::new(Node {
            width: self.0.width,
            sym: Sym::Un(op, self.clone()),
            bytes: self.0.bytes.clone(),
        }))
    }

    /// Builds a binary operation with on-line simplification (§4.2).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ (the interpreter checks widths
    /// before constructing symbolic values).
    #[must_use]
    pub fn bin(&self, op: BinOp, rhs: SymExpr) -> SymExpr {
        let lhs = self.clone();
        assert_eq!(
            lhs.width(),
            rhs.width(),
            "symbolic binop width mismatch for {op:?}"
        );
        let w = lhs.width();

        // Constant folding.
        if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
            return SymExpr::constant(eval_bin(op, a, b).0);
        }

        // Canonicalise: constants to the right for commutative ops.
        let (lhs, rhs) = if matches!(
            op,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        ) && lhs.as_const().is_some()
        {
            (rhs, lhs)
        } else {
            (lhs, rhs)
        };

        if let Some(c) = rhs.as_const() {
            // Neutral / absorbing elements.
            match op {
                BinOp::Add
                | BinOp::Sub
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Shl
                | BinOp::LShr
                | BinOp::AShr
                    if c.is_zero() =>
                {
                    return lhs;
                }
                BinOp::Mul if c == Bv::one(w) => return lhs,
                BinOp::Mul | BinOp::And if c.is_zero() => {
                    return SymExpr::constant(Bv::zero(w));
                }
                BinOp::And if c == Bv::ones(w) => return lhs,
                BinOp::Or if c == Bv::ones(w) => return SymExpr::constant(Bv::ones(w)),
                BinOp::UDiv if c == Bv::one(w) => return lhs,
                _ => {}
            }
            // Chain collapsing: (x op c1) op c2 → x op (c1 ⊕ c2) where safe.
            if let Sym::Bin(inner_op, x, c1) = &lhs.0.sym {
                if *inner_op == op {
                    if let Some(c1) = c1.as_const() {
                        match op {
                            BinOp::Add => {
                                // Always value-preserving; this is the
                                // paper's Add32-chain example.
                                let (folded, _) = c1.add(c);
                                return x.bin(BinOp::Add, SymExpr::constant(folded));
                            }
                            BinOp::Mul => {
                                let (folded, wrapped) = c1.mul(c);
                                if !wrapped {
                                    return x.bin(BinOp::Mul, SymExpr::constant(folded));
                                }
                            }
                            BinOp::And | BinOp::Or | BinOp::Xor => {
                                let folded = match op {
                                    BinOp::And => c1.and(c),
                                    BinOp::Or => c1.or(c),
                                    _ => c1.xor(c),
                                };
                                return x.bin(op, SymExpr::constant(folded));
                            }
                            _ => {}
                        }
                    }
                }
            }
        }

        // x - x → 0 (pointer equality only: cheap and sound).
        if op == BinOp::Sub && SymExpr::ptr_eq(&lhs, &rhs) {
            return SymExpr::constant(Bv::zero(w));
        }
        // x ^ x → 0.
        if op == BinOp::Xor && SymExpr::ptr_eq(&lhs, &rhs) {
            return SymExpr::constant(Bv::zero(w));
        }

        let bytes = SymExpr::merged_bytes(&lhs, &rhs);
        SymExpr(Arc::new(Node {
            width: w,
            sym: Sym::Bin(op, lhs, rhs),
            bytes,
        }))
    }

    /// Builds a width conversion with cast fusion.
    ///
    /// # Panics
    ///
    /// Panics if the conversion does not change width in the required
    /// direction (zext/sext must widen, trunc must narrow).
    #[must_use]
    pub fn cast(&self, kind: CastKind, width: u8) -> SymExpr {
        match kind {
            CastKind::Zext | CastKind::Sext => {
                assert!(width > self.width(), "extension must widen");
            }
            CastKind::Trunc => assert!(width < self.width(), "truncation must narrow"),
        }
        if let Some(bv) = self.as_const() {
            let folded = match kind {
                CastKind::Zext => bv.zext(width),
                CastKind::Sext => bv.sext(width),
                CastKind::Trunc => bv.trunc(width).0,
            };
            return SymExpr::constant(folded);
        }
        // Cast fusion.
        if let Sym::Cast(inner_kind, _, inner) = &self.0.sym {
            match (inner_kind, kind) {
                // zext(zext(x)) → zext(x); same for sext.
                (CastKind::Zext, CastKind::Zext) => return inner.cast(CastKind::Zext, width),
                (CastKind::Sext, CastKind::Sext) => return inner.cast(CastKind::Sext, width),
                // trunc_w(zext(x)): only zero bits can be dropped down to
                // x's width, so the result is x itself (w == |x|), a
                // shorter zext (w > |x|), or a truncation of x (w < |x|).
                (CastKind::Zext, CastKind::Trunc) => {
                    return match width.cmp(&inner.width()) {
                        std::cmp::Ordering::Equal => inner.clone(),
                        std::cmp::Ordering::Greater => inner.cast(CastKind::Zext, width),
                        std::cmp::Ordering::Less => inner.cast(CastKind::Trunc, width),
                    };
                }
                (CastKind::Trunc, CastKind::Trunc) => {
                    return inner.cast(CastKind::Trunc, width);
                }
                _ => {}
            }
        }
        SymExpr(Arc::new(Node {
            width,
            sym: Sym::Cast(kind, width, self.clone()),
            bytes: self.0.bytes.clone(),
        }))
    }

    /// Evaluates the expression under the given input-byte assignment
    /// (wrapping machine semantics, no overflow tracking).
    pub fn eval(&self, input: &dyn Fn(u32) -> u8) -> Bv {
        self.eval_overflow(input).0
    }

    /// Evaluates the expression, also reporting whether *any* operation in
    /// the evaluation overflowed its width (including non-value-preserving
    /// truncations). This is the semantic ground truth for the paper's
    /// target constraint: `overflow(B)` is satisfied by an input iff this
    /// flag is true (§4.3).
    pub fn eval_overflow(&self, input: &dyn Fn(u32) -> u8) -> (Bv, bool) {
        Evaluator::new(input).eval(self)
    }

    /// Number of distinct nodes in the DAG (shared nodes counted once).
    #[must_use]
    pub fn node_count(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        fn walk(e: &SymExpr, seen: &mut std::collections::HashSet<usize>) {
            let ptr = Arc::as_ptr(&e.0) as usize;
            if !seen.insert(ptr) {
                return;
            }
            match &e.0.sym {
                Sym::Const(_) | Sym::InputByte(_) => {}
                Sym::Un(_, a) | Sym::Cast(_, _, a) => walk(a, seen),
                Sym::Bin(_, a, b) => {
                    walk(a, seen);
                    walk(b, seen);
                }
            }
        }
        walk(self, &mut seen);
        seen.len()
    }
}

/// Concrete evaluation of expression DAGs under one input assignment.
///
/// Every interior node is evaluated once however many parents share it:
/// shared nodes are memoized by node identity, and [`crate::SymBool::eval`]
/// threads one evaluator through all of its atoms, so a condition costs
/// time linear in its DAG rather than in the tree it unfolds to. Valid
/// only while the evaluated expressions are alive (node ids are
/// addresses).
pub(crate) struct Evaluator<'i> {
    input: &'i dyn Fn(u32) -> u8,
    memo: HashMap<usize, (Bv, bool)>,
}

impl<'i> Evaluator<'i> {
    pub(crate) fn new(input: &'i dyn Fn(u32) -> u8) -> Self {
        Evaluator {
            input,
            memo: HashMap::new(),
        }
    }

    /// The wrapped value of `e` and whether any operation in it overflowed.
    pub(crate) fn eval(&mut self, e: &SymExpr) -> (Bv, bool) {
        match &e.0.sym {
            Sym::Const(bv) => return (*bv, false),
            Sym::InputByte(off) => return (Bv::byte((self.input)(*off)), false),
            Sym::Un(..) | Sym::Bin(..) | Sym::Cast(..) => {}
        }
        // A node held by one reference has one parent, which reaches it
        // once: memoizing only shared nodes keeps evaluation linear and
        // the memo no larger than the sharing it exploits.
        let shared = Arc::strong_count(&e.0) > 1;
        if shared {
            if let Some(&known) = self.memo.get(&e.node_id()) {
                return known;
            }
        }
        let result = match &e.0.sym {
            Sym::Un(op, a) => {
                let (av, ao) = self.eval(a);
                let (v, o) = match op {
                    UnOp::Neg => av.neg(),
                    UnOp::Not => (av.not(), false),
                };
                (v, ao | o)
            }
            Sym::Bin(op, a, b) => {
                let (av, ao) = self.eval(a);
                let (bv, bo) = self.eval(b);
                let (v, o) = eval_bin(*op, av, bv);
                (v, ao | bo | o)
            }
            Sym::Cast(kind, w, a) => {
                let (av, ao) = self.eval(a);
                let (v, o) = match kind {
                    CastKind::Zext => (av.zext(*w), false),
                    CastKind::Sext => (av.sext(*w), false),
                    CastKind::Trunc => av.trunc(*w),
                };
                (v, ao | o)
            }
            Sym::Const(_) | Sym::InputByte(_) => unreachable!("leaves return above"),
        };
        if shared {
            self.memo.insert(e.node_id(), result);
        }
        result
    }
}

fn self_neg(bv: Bv) -> Bv {
    bv.neg().0
}

/// Evaluates a binary operation on concrete values, returning the wrapped
/// result and the overflow flag.
#[must_use]
pub fn eval_bin(op: BinOp, a: Bv, b: Bv) -> (Bv, bool) {
    match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b),
        BinOp::UDiv => (a.udiv(b), false),
        BinOp::URem => (a.urem(b), false),
        BinOp::And => (a.and(b), false),
        BinOp::Or => (a.or(b), false),
        BinOp::Xor => (a.xor(b), false),
        BinOp::Shl => a.shl(b),
        BinOp::LShr => (a.lshr(b), false),
        BinOp::AShr => (a.ashr(b), false),
    }
}

impl PartialEq for SymExpr {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.width == other.0.width && self.0.sym == other.0.sym)
    }
}

impl fmt::Debug for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SymExpr {
    /// Renders in the paper's prefix style, e.g.
    /// `Mul(32, ToSize(32, in[8]), Constant(4))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0.sym {
            Sym::Const(bv) => write!(f, "Constant({:#x})", bv.value()),
            Sym::InputByte(off) => write!(f, "in[{off}]"),
            Sym::Un(UnOp::Neg, a) => write!(f, "Neg({}, {a})", self.0.width),
            Sym::Un(UnOp::Not, a) => write!(f, "BvNot({}, {a})", self.0.width),
            Sym::Bin(op, a, b) => {
                let name = match op {
                    BinOp::Add => "Add",
                    BinOp::Sub => "Sub",
                    BinOp::Mul => "Mul",
                    BinOp::UDiv => "UDiv",
                    BinOp::URem => "URem",
                    BinOp::And => "BvAnd",
                    BinOp::Or => "BvOr",
                    BinOp::Xor => "BvXor",
                    BinOp::Shl => "Shl",
                    BinOp::LShr => "UShr",
                    BinOp::AShr => "SShr",
                };
                write!(f, "{name}({}, {a}, {b})", self.0.width)
            }
            Sym::Cast(kind, w, a) => {
                let name = match kind {
                    CastKind::Zext => "ToSize",
                    CastKind::Sext => "SignExtend",
                    CastKind::Trunc => "Shrink",
                };
                write!(f, "{name}({w}, {a})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn byte(off: u32) -> SymExpr {
        SymExpr::input_byte(off)
    }

    fn c32(v: u32) -> SymExpr {
        SymExpr::constant(Bv::u32(v))
    }

    #[test]
    fn constant_folding() {
        let e = c32(6).bin(BinOp::Mul, c32(7));
        assert_eq!(e.as_const(), Some(Bv::u32(42)));
    }

    #[test]
    fn add_chain_collapses_like_the_paper() {
        // Add32(Add32(Add32(t10, 1), 1), 1) → Add32(t10, 3) (§4.2).
        let t10 = byte(0).cast(CastKind::Zext, 32);
        let one = c32(1);
        let e = t10
            .bin(BinOp::Add, one.clone())
            .bin(BinOp::Add, one.clone())
            .bin(BinOp::Add, one);
        match e.sym() {
            Sym::Bin(BinOp::Add, _, rhs) => assert_eq!(rhs.as_const(), Some(Bv::u32(3))),
            other => panic!("expected collapsed add, got {other:?}"),
        }
        assert_eq!(e.node_count(), 4); // in[0], zext, const 3, add
    }

    #[test]
    fn neutral_elements_are_removed() {
        let x = byte(0).cast(CastKind::Zext, 32);
        assert!(SymExpr::ptr_eq(&x.bin(BinOp::Add, c32(0)), &x));
        assert!(SymExpr::ptr_eq(&x.bin(BinOp::Mul, c32(1)), &x));
        assert!(SymExpr::ptr_eq(&x.bin(BinOp::Or, c32(0)), &x));
        assert!(SymExpr::ptr_eq(&x.bin(BinOp::Shl, c32(0)), &x));
        assert_eq!(x.bin(BinOp::Mul, c32(0)).as_const(), Some(Bv::u32(0)));
        assert_eq!(x.bin(BinOp::And, c32(0)).as_const(), Some(Bv::u32(0)));
        assert!(SymExpr::ptr_eq(
            &x.bin(BinOp::And, SymExpr::constant(Bv::ones(32))),
            &x
        ));
    }

    #[test]
    fn constants_commute_right() {
        let x = byte(0).cast(CastKind::Zext, 32);
        let e = c32(5).bin(BinOp::Add, x.clone());
        match e.sym() {
            Sym::Bin(BinOp::Add, lhs, rhs) => {
                assert!(SymExpr::ptr_eq(lhs, &x));
                assert_eq!(rhs.as_const(), Some(Bv::u32(5)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mul_chain_folds_only_without_wrap() {
        let x = byte(0).cast(CastKind::Zext, 32);
        let e = x.bin(BinOp::Mul, c32(1 << 16)).bin(BinOp::Mul, c32(4));
        match e.sym() {
            Sym::Bin(BinOp::Mul, _, rhs) => assert_eq!(rhs.as_const(), Some(Bv::u32(1 << 18))),
            other => panic!("unexpected {other:?}"),
        }
        // (x * 2^31) * 2 would fold to x*0 — the constant product wraps, so
        // the chain must NOT collapse.
        let e = x.bin(BinOp::Mul, c32(1 << 31)).bin(BinOp::Mul, c32(2));
        match e.sym() {
            Sym::Bin(BinOp::Mul, inner, rhs) => {
                assert_eq!(rhs.as_const(), Some(Bv::u32(2)));
                assert!(matches!(inner.sym(), Sym::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cast_fusion() {
        let x = byte(0); // 8 bits
        let e = x.cast(CastKind::Zext, 16).cast(CastKind::Zext, 32);
        assert!(matches!(e.sym(), Sym::Cast(CastKind::Zext, 32, inner) if inner.width() == 8));
        // trunc back to the original width cancels the zext entirely.
        let e2 = x.cast(CastKind::Zext, 32).cast(CastKind::Trunc, 8);
        assert!(SymExpr::ptr_eq(&e2, &x));
        // trunc to an intermediate width shortens the zext.
        let e3 = x.cast(CastKind::Zext, 32).cast(CastKind::Trunc, 16);
        assert!(matches!(e3.sym(), Sym::Cast(CastKind::Zext, 16, _)));
        // trunc below the original width becomes a trunc of the original.
        let e4 = x.cast(CastKind::Zext, 32).cast(CastKind::Trunc, 4);
        assert!(matches!(e4.sym(), Sym::Cast(CastKind::Trunc, 4, inner) if inner.width() == 8));
    }

    #[test]
    fn double_negation_cancels() {
        let x = byte(0);
        assert!(SymExpr::ptr_eq(&x.un(UnOp::Neg).un(UnOp::Neg), &x));
        assert!(SymExpr::ptr_eq(&x.un(UnOp::Not).un(UnOp::Not), &x));
    }

    #[test]
    fn input_bytes_merge_sorted() {
        let a = byte(9).cast(CastKind::Zext, 32);
        let b = byte(2).cast(CastKind::Zext, 32);
        let c = byte(5).cast(CastKind::Zext, 32);
        let e = a
            .bin(BinOp::Add, b)
            .bin(BinOp::Mul, c)
            .bin(BinOp::Add, byte(2).cast(CastKind::Zext, 32));
        assert_eq!(e.input_bytes(), &[2, 5, 9]);
    }

    #[test]
    fn eval_overflow_tracks_subexpressions() {
        // (in[0] zext32 * 0x0100_0000) * 16 — inner multiply overflows for
        // in[0] >= 16 even though the final value may look harmless.
        let e = byte(0)
            .cast(CastKind::Zext, 32)
            .bin(BinOp::Mul, c32(0x0100_0000))
            .bin(BinOp::Mul, c32(16));
        let (_, ovf) = e.eval_overflow(&|_| 20);
        assert!(ovf, "20 * 2^24 * 16 = 20 * 2^28 > 2^32");
        let (_, ovf) = e.eval_overflow(&|_| 1);
        assert!(!ovf, "1 * 2^24 * 16 = 2^28 fits in 32 bits");
    }

    #[test]
    fn eval_matches_wrapping_semantics() {
        let e = byte(0)
            .cast(CastKind::Zext, 32)
            .bin(BinOp::Mul, c32(0x0200_0000));
        // 200 * 0x2000000 = 0x190000000 wraps to 0x90000000.
        assert_eq!(e.eval(&|_| 200).value(), 0x9000_0000);
        let (_, ovf) = e.eval_overflow(&|_| 200);
        assert!(ovf);
        let (_, ovf) = e.eval_overflow(&|_| 3);
        assert!(!ovf);
    }

    #[test]
    fn trunc_counts_as_overflow_when_lossy() {
        let e = byte(0)
            .cast(CastKind::Zext, 32)
            .bin(BinOp::Mul, c32(2))
            .cast(CastKind::Trunc, 8);
        let (v, ovf) = e.eval_overflow(&|_| 200);
        assert_eq!(v.value(), (400u32 & 0xff) as u128);
        assert!(ovf);
        let (_, ovf) = e.eval_overflow(&|_| 100);
        assert!(!ovf);
    }

    #[test]
    fn display_uses_paper_notation() {
        let e = byte(4).cast(CastKind::Zext, 32).bin(BinOp::Shl, c32(24));
        let s = e.to_string();
        assert!(s.contains("Shl(32"), "{s}");
        assert!(s.contains("ToSize(32, in[4])"), "{s}");
        assert!(s.contains("Constant(0x18)"), "{s}");
    }
}
