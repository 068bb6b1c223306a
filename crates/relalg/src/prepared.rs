//! Prepared queries: compile once, execute many times with fresh parameters.
//!
//! This mirrors the paper's use of JDBC prepared statements: the NDFS search
//! re-evaluates each rule body a very large number of times with different
//! current-input tuples, so the translation/validation work must be paid
//! once. A [`PreparedQuery`] owns a validated plan and an execution-count
//! statistic (useful for the ablation benchmarks).

use crate::exec::{execute, ExecError, Params};
use crate::instance::Instance;
use crate::plan::{Plan, PlanError, PlanReads};
use crate::schema::Schema;
use crate::tuple::Relation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A validated, reusable query plan.
#[derive(Debug)]
pub struct PreparedQuery {
    plan: Plan,
    width: usize,
    param_slots: usize,
    executions: AtomicU64,
}

impl Clone for PreparedQuery {
    fn clone(&self) -> Self {
        PreparedQuery {
            plan: self.plan.clone(),
            width: self.width,
            param_slots: self.param_slots,
            executions: AtomicU64::new(self.executions.load(Ordering::Relaxed)),
        }
    }
}

impl PreparedQuery {
    /// Validate `plan` against `schema` and wrap it for repeated execution.
    pub fn prepare(schema: &Arc<Schema>, plan: Plan) -> Result<Self, PlanError> {
        let width = plan.validate(schema)?;
        let param_slots = plan.param_count();
        Ok(PreparedQuery { plan, width, param_slots, executions: AtomicU64::new(0) })
    }

    /// Output width of the query.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of parameter slots that must be bound before execution.
    pub fn param_slots(&self) -> usize {
        self.param_slots
    }

    /// How many times this query has been executed (for benchmarks).
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// The underlying plan (for plan-shape assertions in tests).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Execute with the given parameter bindings.
    pub fn run(&self, inst: &Instance, params: &Params) -> Result<Relation, ExecError> {
        self.executions.fetch_add(1, Ordering::Relaxed);
        execute(&self.plan, inst, params)
    }

    /// Execute as a boolean query: true iff the result is non-empty.
    pub fn run_bool(&self, inst: &Instance, params: &Params) -> Result<bool, ExecError> {
        Ok(!self.run(inst, params)?.is_empty())
    }

    /// The read-set: relations scanned and parameter slots consulted.
    /// This is what the delta-driven memo keys a cached result on.
    pub fn reads(&self) -> PlanReads {
        self.plan.reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Pred, Scalar};
    use crate::schema::RelKind;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn setup() -> (Arc<Schema>, Instance) {
        let mut s = Schema::new();
        s.declare("r", 1, RelKind::Database).unwrap();
        let s = Arc::new(s);
        let mut inst = Instance::empty(Arc::clone(&s));
        let r = s.lookup("r").unwrap();
        inst.insert(r, Tuple::from([Value(1)]));
        inst.insert(r, Tuple::from([Value(2)]));
        (s, inst)
    }

    #[test]
    fn prepare_rejects_invalid_plans() {
        let (s, _) = setup();
        let r = s.lookup("r").unwrap();
        let bad = Plan::Project { input: Box::new(Plan::Scan(r)), cols: vec![Scalar::Col(5)] };
        assert!(PreparedQuery::prepare(&s, bad).is_err());
    }

    #[test]
    fn run_counts_executions_and_rebinds() {
        let (s, inst) = setup();
        let r = s.lookup("r").unwrap();
        let q = PreparedQuery::prepare(
            &s,
            Plan::Select {
                input: Box::new(Plan::Scan(r)),
                pred: Pred::Eq(Scalar::Col(0), Scalar::Param(0)),
            },
        )
        .unwrap();
        assert_eq!(q.param_slots(), 1);
        let mut p = Params::with_slots(1);
        p.bind(0, Value(1));
        assert!(q.run_bool(&inst, &p).unwrap());
        p.bind(0, Value(9));
        assert!(!q.run_bool(&inst, &p).unwrap());
        assert_eq!(q.executions(), 2);
    }

    #[test]
    fn clones_keep_the_count_and_reads_come_from_the_plan() {
        let (s, inst) = setup();
        let r = s.lookup("r").unwrap();
        let plan = Plan::AntiJoin {
            left: Box::new(Plan::Scan(r)),
            right: Box::new(Plan::Values { width: 1, rows: vec![vec![Scalar::Param(2)]] }),
            on: vec![(0, 0)],
        };
        let q = PreparedQuery::prepare(&s, plan.clone()).unwrap();
        assert_eq!(q.plan(), &plan);
        assert_eq!(q.reads(), plan.reads());
        assert_eq!(q.reads().value_slots, vec![2]);
        assert_eq!((q.width(), q.param_slots()), (1, 3));

        let mut p = Params::with_slots(3);
        p.bind(2, Value(1));
        let out = q.run(&inst, &p).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from([Value(2)])));
        let copy = q.clone();
        assert_eq!(copy.executions(), 1, "a clone starts from the original's count");
        copy.run(&inst, &p).unwrap();
        assert_eq!((q.executions(), copy.executions()), (1, 2), "counts are not shared");
    }
}
