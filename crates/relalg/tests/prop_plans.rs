//! Plan-executor oracle: random plans over random instances must compute
//! exactly the relation a straightforward set-of-rows model computes, and
//! the algebraic identities the compiler's plan shapes rely on (selection
//! through products, semi/anti-joins as filtered products, product column
//! order) must hold on the executor. `Relation` is canonical (sorted,
//! deduplicated), so equality here is byte-equality.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use wave_relalg::{
    execute, Instance, Params, Plan, Pred, PreparedQuery, RelId, RelKind, Relation, Scalar, Schema,
    Tuple, Value,
};

fn tuples(arity: usize, max_val: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..max_val, arity), 0..14)
}

fn rel_of(arity: usize, raw: &[Vec<u32>]) -> Relation {
    Relation::from_tuples(
        arity,
        raw.iter().map(|t| Tuple::from(t.iter().map(|&v| Value(v)).collect::<Vec<_>>())),
    )
}

/// Tiny deterministic generator so random plan shapes don't depend on
/// combinators the vendored proptest stand-in lacks.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random scalar over a plan of the given width (params 0..2 are
/// always bound by the harness).
fn scalar(rng: &mut Lcg, width: usize) -> Scalar {
    match rng.below(3) {
        0 if width > 0 => Scalar::Col(rng.below(width as u64) as usize),
        1 => Scalar::Param(rng.below(2) as usize),
        _ => Scalar::Const(Value(rng.below(6) as u32)),
    }
}

/// A random predicate: comparisons under conjunction, disjunction and
/// negation.
fn pred(rng: &mut Lcg, width: usize) -> Pred {
    let cmp = |rng: &mut Lcg| {
        let (a, b) = (scalar(rng, width), scalar(rng, width));
        if rng.below(2) == 0 {
            Pred::Eq(a, b)
        } else {
            Pred::Ne(a, b)
        }
    };
    match rng.below(4) {
        0 => cmp(rng),
        1 => Pred::And(vec![cmp(rng), cmp(rng)]),
        2 => Pred::Or(vec![cmp(rng), cmp(rng)]),
        _ => Pred::Not(Box::new(cmp(rng))),
    }
}

/// Build a random valid plan over the three test relations, returning
/// the plan and its width. Depth-bounded so shrunk cases stay readable.
fn random_plan(rng: &mut Lcg, schema: &Schema, depth: u32) -> (Plan, usize) {
    let rels = ["r0", "r1", "r2"];
    if depth == 0 || rng.below(3) == 0 {
        let name = rels[rng.below(3) as usize];
        let id = schema.lookup(name).unwrap();
        return (Plan::Scan(id), schema.arity(id));
    }
    let (left, lw) = random_plan(rng, schema, depth - 1);
    match rng.below(5) {
        0 => {
            let p = pred(rng, lw);
            (Plan::Select { input: Box::new(left), pred: p }, lw)
        }
        1 => {
            let (right, rw) = random_plan(rng, schema, depth - 1);
            (Plan::Product(Box::new(left), Box::new(right)), lw + rw)
        }
        2 => {
            let (right, rw) = random_plan(rng, schema, depth - 1);
            let on = if lw == 0 || rw == 0 || rng.below(4) == 0 {
                vec![]
            } else {
                vec![(rng.below(lw as u64) as usize, rng.below(rw as u64) as usize)]
            };
            if rng.below(2) == 0 {
                (Plan::SemiJoin { left: Box::new(left), right: Box::new(right), on }, lw)
            } else {
                (Plan::AntiJoin { left: Box::new(left), right: Box::new(right), on }, lw)
            }
        }
        3 if lw > 0 => {
            let cols = (0..=rng.below(lw as u64) as usize)
                .map(|_| match rng.below(5) {
                    0 => Scalar::Const(Value(rng.below(6) as u32)),
                    1 => Scalar::Param(rng.below(2) as usize),
                    _ => Scalar::Col(rng.below(lw as u64) as usize),
                })
                .collect::<Vec<_>>();
            let w = cols.len();
            (Plan::Project { input: Box::new(left), cols }, w)
        }
        _ => {
            // same-width set operation: pair the plan with itself under a
            // select so union/difference inputs always agree on width
            let p = pred(rng, lw);
            let right = Plan::Select { input: Box::new(left.clone()), pred: p };
            if rng.below(2) == 0 {
                (Plan::Union(Box::new(left), Box::new(right)), lw)
            } else {
                (Plan::Difference(Box::new(left), Box::new(right)), lw)
            }
        }
    }
}

type Rows = BTreeSet<Vec<u32>>;

/// The reference semantics: plain sets of rows, every operator written
/// as its textbook definition.
struct Model<'a> {
    rels: &'a [(RelId, Rows)],
    params: [u32; 2],
}

impl Model<'_> {
    fn scalar(&self, s: Scalar, row: &[u32]) -> u32 {
        match s {
            Scalar::Col(i) => row[i],
            Scalar::Const(v) => v.0,
            Scalar::Param(i) => self.params[i],
        }
    }

    fn holds(&self, p: &Pred, row: &[u32]) -> bool {
        match p {
            Pred::True => true,
            Pred::False => false,
            Pred::Eq(a, b) => self.scalar(*a, row) == self.scalar(*b, row),
            Pred::Ne(a, b) => self.scalar(*a, row) != self.scalar(*b, row),
            Pred::And(ps) => ps.iter().all(|q| self.holds(q, row)),
            Pred::Or(ps) => ps.iter().any(|q| self.holds(q, row)),
            Pred::Not(q) => !self.holds(q, row),
            Pred::EmptyFlag(_) => false,
        }
    }

    fn joins(row: &[u32], right: &Rows, on: &[(usize, usize)]) -> bool {
        right.iter().any(|r| on.iter().all(|&(lc, rc)| row[lc] == r[rc]))
    }

    fn eval(&self, plan: &Plan) -> Rows {
        match plan {
            Plan::Scan(id) => self.rels.iter().find(|(r, _)| r == id).unwrap().1.clone(),
            Plan::Values { rows, .. } => {
                rows.iter().map(|row| row.iter().map(|s| self.scalar(*s, &[])).collect()).collect()
            }
            Plan::Select { input, pred } => {
                self.eval(input).into_iter().filter(|row| self.holds(pred, row)).collect()
            }
            Plan::Project { input, cols } => self
                .eval(input)
                .iter()
                .map(|row| cols.iter().map(|c| self.scalar(*c, row)).collect())
                .collect(),
            Plan::Product(l, r) => {
                let (l, r) = (self.eval(l), self.eval(r));
                l.iter().flat_map(|a| r.iter().map(move |b| [&a[..], &b[..]].concat())).collect()
            }
            Plan::Union(l, r) => self.eval(l).union(&self.eval(r)).cloned().collect(),
            Plan::Difference(l, r) => self.eval(l).difference(&self.eval(r)).cloned().collect(),
            Plan::SemiJoin { left, right, on } => {
                let right = self.eval(right);
                self.eval(left).into_iter().filter(|row| Self::joins(row, &right, on)).collect()
            }
            Plan::AntiJoin { left, right, on } => {
                let right = self.eval(right);
                self.eval(left).into_iter().filter(|row| !Self::joins(row, &right, on)).collect()
            }
        }
    }
}

fn rows_of(rel: &Relation) -> Rows {
    rel.iter().map(|t| t.values().iter().map(|v| v.0).collect()).collect()
}

fn setup(a: &[Vec<u32>], b: &[Vec<u32>], c: &[Vec<u32>]) -> (Arc<Schema>, Instance) {
    let mut schema = Schema::new();
    schema.declare("r0", 2, RelKind::Database).unwrap();
    schema.declare("r1", 2, RelKind::Database).unwrap();
    schema.declare("r2", 1, RelKind::Database).unwrap();
    let schema = Arc::new(schema);
    let mut inst = Instance::empty(Arc::clone(&schema));
    inst.set_rel(schema.lookup("r0").unwrap(), rel_of(2, a));
    inst.set_rel(schema.lookup("r1").unwrap(), rel_of(2, b));
    inst.set_rel(schema.lookup("r2").unwrap(), rel_of(1, c));
    (schema, inst)
}

fn params(p0: u32, p1: u32) -> Params {
    let mut params = Params::with_slots(2);
    params.bind(0, Value(p0));
    params.bind(1, Value(p1));
    params
}

fn run(plan: &Plan, inst: &Instance) -> Relation {
    execute(plan, inst, &Params::none()).unwrap()
}

proptest! {
    /// For any plan and instance, the executor computes the model's
    /// relation, at the width `validate` reports.
    #[test]
    fn random_plans_match_a_reference_model(
        a in tuples(2, 6),
        b in tuples(2, 6),
        c in tuples(1, 6),
        seed in 0u64..1u64 << 48,
        p0 in 0u32..6,
        p1 in 0u32..6,
    ) {
        let (schema, inst) = setup(&a, &b, &c);
        let mut rng = Lcg(seed | 1);
        let (plan, width) = random_plan(&mut rng, &schema, 3);
        prop_assert_eq!(plan.validate(&schema), Ok(width));

        let rels: Vec<(RelId, Rows)> = ["r0", "r1", "r2"]
            .iter()
            .map(|n| {
                let id = schema.lookup(n).unwrap();
                (id, rows_of(inst.rel(id)))
            })
            .collect();
        let model = Model { rels: &rels, params: [p0, p1] };
        let got = execute(&plan, &inst, &params(p0, p1)).unwrap();
        prop_assert_eq!(got.arity(), width);
        prop_assert_eq!(rows_of(&got), model.eval(&plan));
    }

    /// A prepared query is the plan it wraps: same width, same result,
    /// one counted execution per run, and it rebinds cleanly.
    #[test]
    fn prepared_queries_run_their_plan(
        a in tuples(2, 6),
        b in tuples(2, 6),
        c in tuples(1, 6),
        seed in 0u64..1u64 << 48,
    ) {
        let (schema, inst) = setup(&a, &b, &c);
        let mut rng = Lcg(seed | 1);
        let (plan, width) = random_plan(&mut rng, &schema, 3);
        let q = PreparedQuery::prepare(&schema, plan.clone()).unwrap();
        prop_assert_eq!(q.width(), width);
        prop_assert!(q.param_slots() <= 2);
        for (i, (p0, p1)) in [(0, 3), (5, 5), (0, 3)].into_iter().enumerate() {
            let ps = params(p0, p1);
            prop_assert_eq!(q.run(&inst, &ps).unwrap(), execute(&plan, &inst, &ps).unwrap());
            prop_assert_eq!(q.executions(), i as u64 + 1);
        }
    }

    /// A selection that reads only left columns commutes with a product:
    /// filtering before or after the product yields the same rows.
    #[test]
    fn selections_commute_with_products(
        a in tuples(2, 6),
        b in tuples(2, 6),
        c in tuples(1, 6),
        k in 0u32..6,
    ) {
        let (schema, inst) = setup(&a, &b, &c);
        let (r0, r1) = (schema.lookup("r0").unwrap(), schema.lookup("r1").unwrap());
        let p = Pred::And(vec![
            Pred::Eq(Scalar::Col(0), Scalar::Const(Value(k))),
            Pred::Ne(Scalar::Col(1), Scalar::Col(0)),
        ]);
        let after = Plan::Select {
            input: Box::new(Plan::Product(Box::new(Plan::Scan(r0)), Box::new(Plan::Scan(r1)))),
            pred: p.clone(),
        };
        let before = Plan::Product(
            Box::new(Plan::Select { input: Box::new(Plan::Scan(r0)), pred: p }),
            Box::new(Plan::Scan(r1)),
        );
        prop_assert_eq!(run(&after, &inst), run(&before, &inst));
    }

    /// A semi-join is the left projection of the product filtered on its
    /// key pairs; an anti-join keeps exactly the left rows it drops.
    #[test]
    fn joins_are_filtered_products(
        a in tuples(2, 5),
        b in tuples(2, 5),
        c in tuples(1, 5),
        two_keys in any::<bool>(),
    ) {
        let (schema, inst) = setup(&a, &b, &c);
        let (r0, r1) = (schema.lookup("r0").unwrap(), schema.lookup("r1").unwrap());
        let on = if two_keys { vec![(0, 1), (1, 0)] } else { vec![(1, 0)] };
        let semi = Plan::SemiJoin {
            left: Box::new(Plan::Scan(r0)),
            right: Box::new(Plan::Scan(r1)),
            on: on.clone(),
        };
        let anti = Plan::AntiJoin {
            left: Box::new(Plan::Scan(r0)),
            right: Box::new(Plan::Scan(r1)),
            on: on.clone(),
        };
        let filtered = Plan::Project {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::Product(Box::new(Plan::Scan(r0)), Box::new(Plan::Scan(r1)))),
                pred: Pred::And(
                    on.iter().map(|&(l, r)| Pred::Eq(Scalar::Col(l), Scalar::Col(2 + r))).collect(),
                ),
            }),
            cols: vec![Scalar::Col(0), Scalar::Col(1)],
        };
        let semi_rel = run(&semi, &inst);
        prop_assert_eq!(&semi_rel, &run(&filtered, &inst));
        prop_assert_eq!(run(&anti, &inst), inst.rel(r0).difference(&semi_rel));
    }

    /// Swapping the sides of a product and projecting the columns back
    /// into place gives the original product.
    #[test]
    fn swapped_products_restore_column_order(
        a in tuples(2, 6),
        b in tuples(2, 6),
        c in tuples(1, 6),
    ) {
        let (schema, inst) = setup(&a, &b, &c);
        let (r0, r2) = (schema.lookup("r0").unwrap(), schema.lookup("r2").unwrap());
        let product = Plan::Product(Box::new(Plan::Scan(r0)), Box::new(Plan::Scan(r2)));
        let swapped = Plan::Project {
            input: Box::new(Plan::Product(Box::new(Plan::Scan(r2)), Box::new(Plan::Scan(r0)))),
            cols: vec![Scalar::Col(1), Scalar::Col(2), Scalar::Col(0)],
        };
        let out = run(&product, &inst);
        prop_assert_eq!(out.len(), inst.rel(r0).len() * inst.rel(r2).len());
        prop_assert_eq!(out, run(&swapped, &inst));
    }
}
