//! Property tests for the solver: soundness of SAT answers (models really
//! satisfy the constraint, whichever path of `solve_with` found them),
//! agreement of UNSAT answers with brute force over small byte spaces,
//! interval-analysis soundness, and enumeration completeness.

use diode_lang::{BinOp, Bv, CastKind, CmpOp};
use diode_solver::{enumerate, interval, solve, solve_with, SolveResult, SolverConfig};
use diode_symbolic::{overflow_condition, SymBool, SymExpr};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Recipe {
    Byte(u32),
    Const(u32),
    Bin(BinOp, Box<Recipe>, Box<Recipe>),
}

fn build(r: &Recipe) -> SymExpr {
    match r {
        Recipe::Byte(o) => SymExpr::input_byte(*o).cast(CastKind::Zext, 32),
        Recipe::Const(v) => SymExpr::constant(Bv::u32(*v)),
        Recipe::Bin(op, a, b) => build(a).bin(*op, build(b)),
    }
}

fn arb_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::LShr),
    ]
}

/// Expressions over at most TWO input bytes so brute force is feasible.
fn arb_recipe() -> impl Strategy<Value = Recipe> {
    let leaf = prop_oneof![
        (0u32..2).prop_map(Recipe::Byte),
        // Shift-friendly constants keep Shl interesting without blowup.
        prop_oneof![0u32..40, 0x100u32..0x2000, Just(0xffff_fff0u32)].prop_map(Recipe::Const),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        (arb_op(), inner.clone(), inner)
            .prop_map(|(op, a, b)| Recipe::Bin(op, Box::new(a), Box::new(b)))
    })
}

fn arb_cond() -> impl Strategy<Value = SymBool> {
    let cmp = prop_oneof![
        Just(CmpOp::Ult),
        Just(CmpOp::Ule),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Slt),
    ];
    prop_oneof![
        (arb_recipe(), cmp, 0u32..0x300).prop_map(|(r, op, k)| SymBool::cmp(
            op,
            build(&r),
            SymExpr::constant(Bv::u32(k))
        )),
        arb_recipe().prop_map(|r| overflow_condition(&build(&r))),
    ]
}

fn brute_force(cond: &SymBool) -> Vec<(u8, u8)> {
    let mut models = Vec::new();
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            if cond.eval(&|o| if o == 0 { a } else { b }) {
                models.push((a, b));
            }
        }
    }
    models
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solver_agrees_with_brute_force(c1 in arb_cond(), c2 in arb_cond()) {
        let cond = c1.and(&c2);
        let brute = brute_force(&cond);
        match solve(&cond) {
            SolveResult::Sat(m) => {
                prop_assert!(!brute.is_empty(), "solver SAT but brute force found nothing");
                // The model must actually satisfy the condition.
                prop_assert!(cond.eval(&m.lookup_over(&[])));
            }
            SolveResult::Unsat => {
                prop_assert!(brute.is_empty(), "solver UNSAT but {} models exist", brute.len());
            }
            SolveResult::Unknown => prop_assert!(false, "budget exhausted"),
        }
    }

    #[test]
    fn every_model_solve_with_returns_satisfies_its_query(
        c1 in arb_cond(),
        c2 in arb_cond(),
        seed: u64,
        seeded: bool,
        presolve: bool,
    ) {
        let cond = c1.and(&c2);
        let config = SolverConfig {
            interval_presolve: presolve,
            ..SolverConfig::default()
        };
        let diversity_seed = seeded.then_some(seed);
        let (res, stats) = solve_with(&cond, &config, diversity_seed);
        if let SolveResult::Sat(m) = &res {
            prop_assert!(m.satisfies(&cond), "model {:?} fails {}", m.bytes(), cond);
        }
        prop_assert!(!matches!(res, SolveResult::Unknown), "budget exhausted");
        if stats.decided_by_probe {
            prop_assert!(!seeded, "a seeded solve took the probe");
            prop_assert_eq!(stats.vars, 0);
        }
    }

    #[test]
    fn interval_analysis_is_sound(c in arb_cond()) {
        // Tri::False must imply no models; Tri::True must imply all inputs
        // are models.
        match interval::cond_range(&c) {
            interval::Tri::False => {
                prop_assert!(brute_force(&c).is_empty(), "interval refuted a satisfiable condition");
            }
            interval::Tri::True => {
                prop_assert_eq!(brute_force(&c).len(), 256 * 256);
            }
            interval::Tri::Unknown => {}
        }
    }

    #[test]
    fn enumeration_matches_brute_force_when_small(c in arb_cond()) {
        let brute = brute_force(&c);
        prop_assume!(brute.len() <= 6);
        let e = enumerate(&c, 8, &SolverConfig::default());
        prop_assert!(e.complete);
        let mut got: Vec<(u8, u8)> = e
            .models
            .iter()
            .map(|m| (m.byte(0).unwrap_or(0), m.byte(1).unwrap_or(0)))
            .collect();
        got.sort_unstable();
        // Every enumerated model is a brute-force model…
        for g in &got {
            prop_assert!(brute.contains(g));
        }
        // …and when the condition constrains both bytes, counts match.
        let bytes = c.input_bytes();
        if bytes.contains(&0) && bytes.contains(&1) {
            prop_assert_eq!(got.len(), brute.len());
        }
    }
}
