//! Successor computation for pseudoconfigurations — the paper's `succP`
//! procedure plus the construction of the start pseudoconfigurations.
//!
//! Given `Cs = ⟨Ds, Vs, Is, Ps, Ss, As⟩`:
//!
//! 1. the target page `Vt` is the unique page whose target condition holds
//!    on `Cs` (zero or several true conditions ⇒ "no transition occurs",
//!    modeled as staying on `Vs`),
//! 2. the new state `St` applies the insert/delete rules (insert/delete
//!    conflicts are no-ops) and keeps only tuples over `C`,
//! 3. `Pt := Is` (the input becomes the previous input),
//! 4. for every extension in `ext(Vt)` (Heuristic-2 pruned): compute the
//!    input options by running `Vt`'s option rules, and for every input
//!    choice compute the actions (kept over `C`) — yielding one successor
//!    pseudoconfiguration per (extension, input choice).

use crate::config::{canonicalize, no_facts, Facts, PseudoConfig, SharedFacts};
use crate::domain::PagePool;
use crate::memo::QueryEngine;
use crate::profile::SearchProfile;
use crate::universe::{extension_universe, ExtensionPruning, UniverseOverflow};
use crate::visibility::Visibility;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::sync::Arc;
use wave_fol::{answers, eval, prev_shadow_name, Bindings, EvalCtx, EvalError, SchemaResolver};
use wave_obs::{SearchTracer, SpanSink, TraceEvent};
use wave_relalg::{Instance, Params, RelKind, Relation, Tuple, Value};
use wave_spec::{CompiledRule, CompiledSpec, Dataflow, PageId, RuleExec, TargetExec};

/// Errors during successor computation.
#[derive(Debug)]
pub enum SuccError {
    Overflow(UniverseOverflow),
    Eval(EvalError),
    Exec(wave_relalg::ExecError),
}

impl std::fmt::Display for SuccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuccError::Overflow(e) => write!(f, "{e}"),
            SuccError::Eval(e) => write!(f, "rule evaluation failed: {e}"),
            SuccError::Exec(e) => write!(f, "plan execution failed: {e}"),
        }
    }
}

impl std::error::Error for SuccError {}

impl From<UniverseOverflow> for SuccError {
    fn from(e: UniverseOverflow) -> Self {
        SuccError::Overflow(e)
    }
}

impl From<EvalError> for SuccError {
    fn from(e: EvalError) -> Self {
        SuccError::Eval(e)
    }
}

impl From<wave_relalg::ExecError> for SuccError {
    fn from(e: wave_relalg::ExecError) -> Self {
        SuccError::Exec(e)
    }
}

/// Everything fixed during one core's search.
pub struct SearchCtx<'a> {
    pub spec: &'a CompiledSpec,
    /// Session symbol table (spec symbols + pools + property params).
    pub symbols: &'a wave_relalg::SymbolTable,
    pub pools: &'a [PagePool],
    pub flow: &'a Dataflow,
    /// The constant set `C = C_W ∪ property constants ∪ C_∃`,
    /// sorted (membership tests binary-search it).
    pub c_values: Vec<Value>,
    /// Instance holding exactly the core tuples.
    pub base: Instance,
    pub pruning: ExtensionPruning,
    pub heuristic2: bool,
    /// When false, every rule is interpreted (ablation baseline).
    pub use_plans: bool,
    /// Observability of prev inputs / states / actions (relevance pruning).
    pub visibility: Visibility,
    /// The wave-flow slice: per-qid rule liveness and the monotone
    /// delete fast-path flags. The identity slice under `--no-slice`;
    /// every skip it licenses is runtime-inert (see [`crate::SliceInfo`]).
    pub slice: std::sync::Arc<crate::slice::SliceInfo>,
    /// Delta-driven result memo for this core
    /// (holds interior mutability, so a context is built per worker).
    pub engine: QueryEngine,
}

/// Lazily materialized evaluation state for one pseudoconfiguration.
/// Materializing the working instance clones the whole base, binding
/// parameters scans it, and the quantification domain sorts every value
/// in it — but a configuration whose queries all hit the result memo
/// needs none of the three. Deferring them behind `OnceCell`s means a
/// fully memoized expansion never touches the instance at all.
struct EvalState<'a> {
    ctx: &'a SearchCtx<'a>,
    cfg: &'a PseudoConfig,
    inst: OnceCell<Instance>,
    params: OnceCell<Params>,
    domain: OnceCell<Vec<Value>>,
}

impl<'a> EvalState<'a> {
    fn new(ctx: &'a SearchCtx<'a>, cfg: &'a PseudoConfig) -> EvalState<'a> {
        EvalState {
            ctx,
            cfg,
            inst: OnceCell::new(),
            params: OnceCell::new(),
            domain: OnceCell::new(),
        }
    }

    /// The working instance `cfg` denotes (base ∪ sections ∪ marker).
    fn inst(&self) -> &Instance {
        self.inst.get_or_init(|| self.cfg.materialize(self.ctx.spec, &self.ctx.base))
    }

    /// Parameter bindings for the working instance.
    fn params(&self) -> &Params {
        self.params.get_or_init(|| self.ctx.spec.bind_params(self.inst()))
    }

    /// Quantification domain at the working instance: active domain ∪ `C`.
    fn domain(&self) -> &[Value] {
        self.domain.get_or_init(|| {
            let mut dom = self.inst().active_domain();
            dom.extend_from_slice(&self.ctx.c_values);
            dom.sort_unstable();
            dom.dedup();
            dom
        })
    }
}

impl SearchCtx<'_> {
    /// Run one rule, returning its derived head tuples. The memo keys
    /// the result on the epochs of the sections the rule reads;
    /// `ev.inst()` materializes only on a miss (or for interpreted
    /// rules). Under a profiling run, the evaluation is wrapped in a
    /// `query:<qid>` span frame (both execution paths).
    fn run_rule<P: SpanSink>(
        &self,
        rule: &CompiledRule,
        ev: &EvalState<'_>,
        page_name: &str,
        spans: &mut P,
    ) -> Result<Vec<Tuple>, SuccError> {
        if P::ENABLED {
            spans.enter("query", u64::from(rule.reads.qid));
        }
        let out = self.run_rule_inner(rule, ev, page_name);
        if P::ENABLED {
            spans.exit();
        }
        out
    }

    fn run_rule_inner(
        &self,
        rule: &CompiledRule,
        ev: &EvalState<'_>,
        page_name: &str,
    ) -> Result<Vec<Tuple>, SuccError> {
        if self.use_plans {
            if let RuleExec::Plan(q) = &rule.exec {
                return Ok(self
                    .engine
                    .run_rows(rule.reads, q, ev.cfg, || (ev.inst(), ev.params()))?);
            }
        }
        let ctx = EvalCtx {
            instance: ev.inst(),
            symbols: self.symbols,
            current_page: Some(page_name),
            domain: ev.domain(),
        };
        let rows = answers(&rule.body, &rule.head_vars, &ctx, &SchemaResolver(&self.spec.schema))?;
        Ok(rows.into_iter().map(Tuple::from).collect())
    }

    /// Evaluate a target condition (a sentence).
    fn target_holds<P: SpanSink>(
        &self,
        t: &wave_spec::CompiledTarget,
        ev: &EvalState<'_>,
        page_name: &str,
        spans: &mut P,
    ) -> Result<bool, SuccError> {
        if P::ENABLED {
            spans.enter("query", u64::from(t.reads.qid));
        }
        let out = self.target_holds_inner(t, ev, page_name);
        if P::ENABLED {
            spans.exit();
        }
        out
    }

    fn target_holds_inner(
        &self,
        t: &wave_spec::CompiledTarget,
        ev: &EvalState<'_>,
        page_name: &str,
    ) -> Result<bool, SuccError> {
        if self.use_plans {
            if let TargetExec::Plan(q) = &t.exec {
                return Ok(self
                    .engine
                    .run_bool(t.reads, q, ev.cfg, || (ev.inst(), ev.params()))?);
            }
        }
        let ctx = EvalCtx {
            instance: ev.inst(),
            symbols: self.symbols,
            current_page: Some(page_name),
            domain: ev.domain(),
        };
        Ok(eval(&t.condition, &ctx, &SchemaResolver(&self.spec.schema), &mut Bindings::new())?)
    }

    /// Is every value of the tuple in `C`? (States and actions keep only
    /// ground tuples over `C`.)
    fn over_c(&self, t: &Tuple) -> bool {
        t.values().iter().all(|v| self.c_values.binary_search(v).is_ok())
    }

    /// The start pseudoconfigurations over the context's core: home page,
    /// empty state and previous input, every extension and input choice.
    /// `prof` collects the canonicalization share of the work; `tracer`
    /// receives one [`TraceEvent::Options`] per extension.
    pub fn initial_configs<T: SearchTracer, P: SpanSink>(
        &self,
        prof: &mut SearchProfile,
        tracer: &mut T,
        spans: &mut P,
    ) -> Result<Vec<PseudoConfig>, SuccError> {
        self.expand_page(self.spec.home, Vec::new(), Vec::new(), prof, tracer, spans)
    }

    /// The paper's `succP`. `prof` collects the canonicalization share of
    /// the work (the caller times the whole call as `expand_ns`).
    pub fn successors<T: SearchTracer, P: SpanSink>(
        &self,
        cfg: &PseudoConfig,
        prof: &mut SearchProfile,
        tracer: &mut T,
        spans: &mut P,
    ) -> Result<Vec<PseudoConfig>, SuccError> {
        let ev = EvalState::new(self, cfg);
        let page = self.spec.page(cfg.page);

        // 1) target page (statically dead conditions can never hold)
        let mut fired: Vec<PageId> = Vec::new();
        for t in &page.target_rules {
            if self.slice.live(t.reads.qid) && self.target_holds(t, &ev, &page.name, spans)? {
                fired.push(t.target);
            }
        }
        fired.dedup();
        let vt = match fired.as_slice() {
            [one] => *one,
            _ => cfg.page, // zero or several: no transition occurs
        };

        // 2) state update with insert/delete conflict = no-op, over C only
        let mut state: BTreeSet<(wave_relalg::RelId, Tuple)> = cfg.state.iter().cloned().collect();
        if self.slice.has_live_delete(cfg.page.index()) {
            let mut inserts: BTreeSet<(wave_relalg::RelId, Tuple)> = BTreeSet::new();
            let mut deletes: BTreeSet<(wave_relalg::RelId, Tuple)> = BTreeSet::new();
            for rule in &page.state_rules {
                if !self.slice.live(rule.reads.qid) {
                    continue; // statically dead: derives nothing
                }
                if !self.visibility.state_observable(rule.head) {
                    continue; // write-only state: nothing can read it
                }
                let tuples = self.run_rule(rule, &ev, &page.name, spans)?;
                let sink = if rule.insert { &mut inserts } else { &mut deletes };
                for t in tuples {
                    if self.over_c(&t) || !rule.insert {
                        sink.insert((rule.head, t));
                    }
                }
            }
            for f in inserts.iter() {
                if !deletes.contains(f) {
                    state.insert(f.clone());
                }
            }
            for f in deletes.iter() {
                if !inserts.contains(f) {
                    state.remove(f);
                }
            }
        } else {
            // monotone fast path: no live delete rule on this page, so no
            // tuple can leave the state and no insert/delete conflict can
            // arise — inserts land directly (same final set as above with
            // an empty delete batch)
            for rule in &page.state_rules {
                if !rule.insert
                    || !self.slice.live(rule.reads.qid)
                    || !self.visibility.state_observable(rule.head)
                {
                    continue;
                }
                for t in self.run_rule(rule, &ev, &page.name, spans)? {
                    if self.over_c(&t) {
                        state.insert((rule.head, t));
                    }
                }
            }
        }
        let st: Facts = state.into_iter().collect();

        // 3) previous input: current input re-keyed to the shadow
        // relations, keeping only shadows observable at the target page
        // (unobservable previous inputs would pointlessly multiply the
        // visited configurations)
        let prev: Facts = cfg
            .input
            .iter()
            .filter_map(|(rel, t)| {
                let shadow = self
                    .spec
                    .schema
                    .lookup(&prev_shadow_name(self.spec.schema.name(*rel)))
                    .expect("shadows declared for every input");
                self.visibility.prev_observable(vt, shadow).then(|| (shadow, t.clone()))
            })
            .collect();

        // 4) extensions × options × input choices
        let prev = prof.time(|p| &mut p.canon_ns, || canonicalize(prev));
        self.expand_page(vt, prev, st, prof, tracer, spans)
    }

    /// Enumerate the configurations entering `page` with the given previous
    /// input and state: every Heuristic-2 extension, every input choice,
    /// with actions computed per choice. `prev` must already be canonical;
    /// `state` is canonical by construction (it comes from a `BTreeSet`).
    fn expand_page<T: SearchTracer, P: SpanSink>(
        &self,
        page_id: PageId,
        prev: Facts,
        state: Facts,
        prof: &mut SearchProfile,
        tracer: &mut T,
        spans: &mut P,
    ) -> Result<Vec<PseudoConfig>, SuccError> {
        let page = self.spec.page(page_id);
        let pool = &self.pools[page_id.index()];
        let universe = extension_universe(
            self.spec,
            self.flow,
            self.symbols,
            &self.c_values,
            page_id,
            pool,
            &prev,
            self.pruning,
            self.heuristic2,
        )?;
        // shared across every successor of this expansion: each variant
        // clones the Arc, not the facts
        let prev: SharedFacts = Arc::new(prev);
        let state: SharedFacts = Arc::new(state);
        let mut result = Vec::new();
        for ext in universe.variants() {
            let shell = PseudoConfig {
                page: page_id,
                ext: Arc::new(ext),
                input: no_facts(),
                prev: Arc::clone(&prev),
                state: Arc::clone(&state),
                actions: no_facts(),
            };
            let ev = EvalState::new(self, &shell);

            // options per input relation; choice lists per input
            let mut choice_lists: Vec<(wave_relalg::RelId, Vec<Option<Tuple>>)> = Vec::new();
            for &input in &page.inputs {
                let mut opts: Vec<Option<Tuple>> = vec![None];
                match self.spec.schema.kind(input) {
                    RelKind::Input => {
                        let mut seen = Relation::empty(self.spec.schema.arity(input));
                        for rule in &page.option_rules {
                            if rule.head != input || !self.slice.live(rule.reads.qid) {
                                continue;
                            }
                            for t in self.run_rule(rule, &ev, &page.name, spans)? {
                                if seen.insert(t.clone()) {
                                    opts.push(Some(t));
                                }
                            }
                        }
                    }
                    RelKind::InputConstant => {
                        // text input: the page's fresh witness plus the
                        // constants the field is compared against
                        let mut vals: BTreeSet<Value> = pool
                            .input_consts
                            .iter()
                            .filter(|(r, _)| *r == input)
                            .map(|&(_, v)| v)
                            .collect();
                        let name = self.spec.schema.name(input);
                        vals.extend(
                            self.flow
                                .consts(name, 0)
                                .filter_map(|c| self.symbols.lookup_constant(c))
                                .filter(|v| self.c_values.contains(v)),
                        );
                        opts.extend(vals.into_iter().map(|v| Some(Tuple::from([v]))));
                    }
                    _ => unreachable!("page inputs are input relations"),
                }
                choice_lists.push((input, opts));
            }

            if T::ENABLED {
                // the empty choice is an option too, so `choices` (the
                // product of the per-input option counts) is exactly the
                // number of successors this extension contributes
                tracer.event(TraceEvent::Options {
                    page: page_id.index() as u32,
                    options: choice_lists.iter().map(|(_, o)| o.len() as u32 - 1).sum(),
                    choices: choice_lists.iter().map(|(_, o)| o.len() as u64).product(),
                });
            }

            // cartesian product of choices
            let mut idx = vec![0usize; choice_lists.len()];
            loop {
                let input: Facts = prof.time(
                    |p| &mut p.canon_ns,
                    || {
                        canonicalize(
                            choice_lists
                                .iter()
                                .zip(&idx)
                                .filter_map(|((rel, opts), &i)| opts[i].clone().map(|t| (*rel, t)))
                                .collect(),
                        )
                    },
                );
                let mut cfg = shell.clone();
                cfg.input = Arc::new(input);
                // actions for this choice, kept over C — only worth
                // materializing when the page has property-visible actions
                let visible_actions: Vec<&CompiledRule> = page
                    .action_rules
                    .iter()
                    .filter(|r| self.slice.live(r.reads.qid))
                    .filter(|r| self.visibility.action_observable(r.head))
                    .collect();
                if !visible_actions.is_empty() {
                    let mut actions: BTreeSet<(wave_relalg::RelId, Tuple)> = BTreeSet::new();
                    {
                        let ev2 = EvalState::new(self, &cfg);
                        for rule in visible_actions {
                            for t in self.run_rule(rule, &ev2, &page.name, spans)? {
                                if self.over_c(&t) {
                                    actions.insert((rule.head, t));
                                }
                            }
                        }
                    }
                    cfg.actions = Arc::new(actions.into_iter().collect());
                }
                result.push(cfg);

                // odometer
                let mut pos = choice_lists.len();
                let mut done = true;
                while pos > 0 {
                    pos -= 1;
                    idx[pos] += 1;
                    if idx[pos] < choice_lists[pos].1.len() {
                        done = false;
                        break;
                    }
                    idx[pos] = 0;
                }
                if done {
                    break;
                }
            }
        }
        Ok(result)
    }
}
