//! The in-process half of the wave benchmark (`wavebench/run.py` is the
//! other half: it generates the inputs and drives the `wave` binary).
//!
//! ```text
//! wavebench-driver catalog             the E1–E4 suites as JSON
//! wavebench-driver setup INPUTS REPS   front-end pass over INPUTS, REPS times
//! wavebench-driver trace INPUTS        one round of INPUTS, timed per layer
//! ```
//!
//! `INPUTS` is the JSON file `run.py` writes for one workload round. The
//! traced round runs single-threaded and times every call into a layer's
//! public entry point, so the layer totals add up to the round's work;
//! `run.py` subtracts them from the untraced wall time to get `other`.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use wave_core::{SearchLimits, SearchProfile, SearchResult, Stats, Verifier, VerifyOptions};
use wave_core::{StateStoreKind, TierParams};
use wave_lint::{LintRequest, PropertySource};
use wave_ltl::parse_property;
use wave_spec::parse_spec;
use wave_svc::{lint_records, lookup_suite, parse_json, Json, ServiceConfig, VerifyService};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // the nested DFS recurses once per pseudorun step: give the search
    // the same stack `Verifier::check` gives its search thread
    let out = std::thread::Builder::new()
        .name("wavebench-driver".into())
        .stack_size(512 << 20)
        .spawn(move || run(&args))
        .expect("spawn driver thread")
        .join()
        .expect("driver thread panicked");
    match out {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wavebench-driver: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<Json, String> {
    match args {
        [cmd] if cmd == "catalog" => Ok(catalog()),
        [cmd, inputs, reps] if cmd == "setup" => {
            let reps: usize = reps.parse().map_err(|_| format!("bad REPS {reps:?}"))?;
            setup(&Inputs::load(inputs)?, reps)
        }
        [cmd, inputs] if cmd == "trace" => {
            let inputs = Inputs::load(inputs)?;
            if inputs.requests.is_empty() {
                trace_checks(&inputs)
            } else {
                trace_requests(&inputs)
            }
        }
        _ => Err("usage: wavebench-driver catalog | setup INPUTS REPS | trace INPUTS".into()),
    }
}

/// The four bundled suites: spec source, and per property its text and
/// the expected verdict (`PropCase::holds`), the benchmark's oracle.
fn catalog() -> Json {
    let suites = ["E1", "E2", "E3", "E4"]
        .iter()
        .map(|&id| {
            let suite = lookup_suite(id).expect("bundled suite");
            let props = suite
                .properties
                .iter()
                .map(|p| {
                    Json::obj([
                        ("name", Json::from(p.name)),
                        ("holds", Json::from(p.holds)),
                        ("text", Json::from(p.text.clone())),
                    ])
                })
                .collect();
            Json::obj([
                ("suite", Json::from(id)),
                ("spec_name", Json::from(suite.spec.name.clone())),
                ("source", Json::from(suite.source)),
                ("props", Json::Arr(props)),
            ])
        })
        .collect();
    Json::Arr(suites)
}

/// One `wave check` of the check-suite or spill round.
struct Check {
    label: String,
    spec_file: String,
    property: String,
}

/// One line-JSON request of the serve-mix round.
struct Request {
    hit: bool,
    /// Built-in suite id (`E1`…) a hit names.
    suite: String,
    line: String,
}

struct Inputs {
    options: VerifyOptions,
    checks: Vec<Check>,
    warm: Vec<String>,
    requests: Vec<Request>,
}

impl Inputs {
    fn load(path: &str) -> Result<Inputs, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let json = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let str_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing {key:?}"))
        };
        let list = |key: &str| json.get(key).and_then(Json::as_array).unwrap_or(&[]).to_vec();
        let mut options = VerifyOptions::default();
        if let Some(dir) = json.get("spill_dir").and_then(Json::as_str) {
            options.state_store =
                StateStoreKind::Tiered(TierParams { mem_bytes: 0, spill_dir: Some(dir.into()) });
        }
        let checks = list("checks")
            .iter()
            .map(|c| {
                Ok(Check {
                    label: str_of(c, "label")?,
                    spec_file: str_of(c, "spec_file")?,
                    property: str_of(c, "property")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let warm = list("warm").iter().map(|w| str_of(w, "line")).collect::<Result<_, _>>()?;
        let requests = list("requests")
            .iter()
            .map(|r| {
                Ok(Request {
                    hit: r.get("hit").and_then(Json::as_bool).ok_or("missing \"hit\"")?,
                    suite: str_of(r, "suite")?,
                    line: str_of(r, "line")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Inputs { options, checks, warm, requests })
    }
}

/// Accumulated time per layer plus the search's own counters.
#[derive(Default)]
struct Layers {
    parse: Duration,
    lint: Duration,
    compile: Duration,
    prepare: Duration,
    search: Duration,
    replay: Duration,
    units: u64,
    configs: u64,
    profile: SearchProfile,
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

fn ms(d: Duration) -> Json {
    Json::from(d.as_secs_f64() * 1e3)
}

/// Outcome of one traced check: the verdict and the search statistics.
struct Outcome {
    holds: bool,
    stats: Stats,
}

/// How far [`check_layers`] takes a pair.
#[derive(Clone, Copy, PartialEq)]
enum Depth {
    /// Parse, lint, compile and prepare (the set-up pass).
    FrontEnd,
    /// Then search, as a service request does.
    Search,
    /// Then also replay a counterexample, as `wave check` does.
    Replay,
}

/// What `wave check` does for one (spec, property) pair, one layer call
/// at a time: parse, lint, compile, prepare, then the unit-by-unit
/// search of `Verifier::check` and counterexample replay, as far as
/// `depth` says. A lint error, a budget exhaustion or a failed replay is
/// an error: the benchmark's inputs must all verify cleanly.
fn check_layers(
    origin: &str,
    src: &str,
    property: &str,
    options: &VerifyOptions,
    lint: impl FnOnce(&LintRequest) -> bool,
    t: &mut Layers,
    depth: Depth,
) -> Result<Option<Outcome>, String> {
    let spec = timed(&mut t.parse, || parse_spec(src)).map_err(|e| format!("{origin}: {e}"))?;
    let req = LintRequest {
        spec_path: origin.to_string(),
        spec_src: src.to_string(),
        properties: vec![PropertySource { label: "property".into(), text: property.into() }],
    };
    if !timed(&mut t.lint, || lint(&req)) {
        return Err(format!("{origin}: lint errors on {property:?}"));
    }
    let prop =
        timed(&mut t.parse, || parse_property(property)).map_err(|e| format!("property: {e}"))?;
    let verifier = timed(&mut t.compile, || Verifier::with_options(spec, options.clone()))
        .map_err(|e| format!("{origin}: {e}"))?;
    let prepared =
        timed(&mut t.prepare, || verifier.prepare(&prop)).map_err(|e| format!("{origin}: {e}"))?;
    t.units += prepared.num_units() as u64;
    if depth == Depth::FrontEnd {
        return Ok(None);
    }
    let t0 = Instant::now();
    let limits = SearchLimits { pool: verifier.options().budget_pool(t0), cancel: None };
    let mut stats = Stats::default();
    let mut violation = None;
    for unit in 0..prepared.num_units() {
        let out = prepared.run_unit(unit, None, &limits).map_err(|e| e.to_string())?;
        stats.merge(&out.stats);
        match out.result {
            SearchResult::Clean => {}
            SearchResult::Violation(ce) => {
                violation = Some(ce);
                break;
            }
            SearchResult::Exhausted(b) => return Err(format!("{origin}: budget exhausted {b:?}")),
        }
    }
    t.search += t0.elapsed();
    t.configs += stats.configs;
    t.profile.add(&stats.profile);
    if let (Some(ce), Depth::Replay) = (&violation, depth) {
        timed(&mut t.replay, || verifier.validate_counterexample(&prop, ce))
            .map_err(|e| format!("{origin}: counterexample failed replay: {e}"))?;
    }
    Ok(Some(Outcome { holds: violation.is_none(), stats }))
}

fn lint_clean(req: &LintRequest) -> bool {
    !wave_lint::has_errors(&wave_lint::lint(req))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// The set-up pass of check-suite and spill: the front end over every
/// pair of the round (validating every input), `reps` times.
fn setup(inputs: &Inputs, reps: usize) -> Result<Json, String> {
    let sources =
        inputs.checks.iter().map(|c| read(&c.spec_file)).collect::<Result<Vec<_>, _>>()?;
    let mut secs = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut t = Layers::default();
        for (c, src) in inputs.checks.iter().zip(&sources) {
            check_layers(
                &c.spec_file,
                src,
                &c.property,
                &inputs.options,
                lint_clean,
                &mut t,
                Depth::FrontEnd,
            )?;
        }
        secs.push(Json::from(t0.elapsed().as_secs_f64()));
    }
    Ok(Json::obj([("setup_s", Json::Arr(secs))]))
}

/// Raw layer totals: milliseconds per layer and the search's counters.
/// `run.py` sums them over operations and derives the ratios.
fn totals(t: &Layers) -> Vec<(&'static str, Json)> {
    let p = &t.profile;
    let ns = |n: u64| ms(Duration::from_nanos(n));
    vec![
        ("parse_ms", ms(t.parse)),
        ("lint_ms", ms(t.lint)),
        ("compile_ms", ms(t.compile)),
        ("prepare_ms", ms(t.prepare)),
        ("search_ms", ms(t.search)),
        ("replay_ms", ms(t.replay)),
        ("expand_ms", ns(p.expand_ns)),
        ("eval_ms", ns(p.eval_ns)),
        ("intern_ms", ns(p.intern_ns)),
        ("visit_ms", ns(p.visit_ns)),
        ("canon_ms", ns(p.canon_ns)),
        ("units", Json::from(t.units)),
        ("configs", Json::from(t.configs)),
        ("memo_hits", Json::from(p.memo_hits)),
        ("memo_misses", Json::from(p.memo_misses)),
        ("intern_hits", Json::from(p.intern_hits)),
        ("intern_misses", Json::from(p.intern_misses)),
        ("join_builds", Json::from(p.join_builds)),
        ("spill_pairs", Json::from(p.spill_pairs)),
        ("spill_segments", Json::from(p.spill_segments)),
        ("spill_compactions", Json::from(p.spill_compactions)),
        ("bloom_skips", Json::from(p.bloom_skips)),
        ("cold_probes", Json::from(p.cold_probes)),
    ]
}

/// The deterministic counters of one check, as `wave check --json`
/// reports them, so `run.py` can compare the traced and untraced runs.
fn counts(label: &str, o: &Outcome) -> Json {
    let p = &o.stats.profile;
    Json::obj([
        ("label", Json::from(label)),
        ("verdict", Json::from(if o.holds { "holds" } else { "violated" })),
        ("configs", Json::from(o.stats.configs)),
        ("cores", Json::from(o.stats.cores)),
        ("intern_hits", Json::from(p.intern_hits)),
        ("intern_misses", Json::from(p.intern_misses)),
        ("memo_hits", Json::from(p.memo_hits)),
        ("memo_misses", Json::from(p.memo_misses)),
        ("join_builds", Json::from(p.join_builds)),
        ("spill_pairs", Json::from(p.spill_pairs)),
        ("spill_segments", Json::from(p.spill_segments)),
        ("spill_compactions", Json::from(p.spill_compactions)),
        ("bloom_skips", Json::from(p.bloom_skips)),
        ("cold_probes", Json::from(p.cold_probes)),
    ])
}

/// Traced round of check-suite or spill.
fn trace_checks(inputs: &Inputs) -> Result<Json, String> {
    let mut t = Layers::default();
    let mut ops = Vec::new();
    for c in &inputs.checks {
        let src = read(&c.spec_file)?;
        let o = check_layers(
            &c.spec_file,
            &src,
            &c.property,
            &inputs.options,
            lint_clean,
            &mut t,
            Depth::Replay,
        )?
        .expect("searched");
        ops.push(counts(&c.label, &o));
    }
    Ok(Json::obj([("totals", Json::obj(totals(&t))), ("ops", Json::Arr(ops))]))
}

/// Traced round of serve-mix, single-threaded. Each request goes first
/// through an in-process `VerifyService` (warmed like the server), which
/// times `run_request` and the JSON codec. It is then split, at once,
/// into the layer calls `run_request` makes, so the service's own
/// overhead is what remains and host drift stays out of the difference.
fn trace_requests(inputs: &Inputs) -> Result<Json, String> {
    let svc = VerifyService::new(ServiceConfig { jobs: 1, ..ServiceConfig::default() })
        .map_err(|e| e.to_string())?;
    for line in &inputs.warm {
        svc.run_request(&parse_json(line).map_err(|e| e.to_string())?, "job");
    }
    let m = svc.metrics();
    let (hits0, misses0) = (m.cache_hits.get(), m.cache_misses.get());
    let evictions0 = m.cache_evictions.get();
    let (mut hit_ms, mut miss_ms, mut json_ms) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut t = Layers::default();
    let mut ops = Vec::new();
    for r in &inputs.requests {
        let request = timed(&mut json_ms, || parse_json(&r.line)).map_err(|e| e.to_string())?;
        let records = timed(if r.hit { &mut hit_ms } else { &mut miss_ms }, || {
            svc.run_request(&request, "job")
        });
        let line = timed(&mut json_ms, || {
            let results = records.iter().map(|rec| rec.to_json()).collect();
            Json::obj([("ok", Json::from(true)), ("results", Json::Arr(results))]).to_string()
        });
        std::hint::black_box(line);
        let [rec] = records.as_slice() else {
            return Err(format!("expected one record for {}", r.line));
        };
        ops.push(Json::obj([
            ("verdict", Json::from(rec.verdict.clone())),
            ("cached", Json::from(rec.cached)),
        ]));

        if r.hit {
            // a hit looks the suite up (parsing its spec) and lints the
            // spec against the whole suite before the cache lookup
            let suite = timed(&mut t.parse, || lookup_suite(&r.suite)).ok_or("unknown suite")?;
            let req = LintRequest {
                spec_path: suite.name.to_string(),
                spec_src: suite.source.to_string(),
                properties: suite
                    .properties
                    .iter()
                    .map(|c| PropertySource {
                        label: format!("{}/{}", suite.name, c.name),
                        text: c.text.clone(),
                    })
                    .collect(),
            };
            std::hint::black_box(timed(&mut t.lint, || lint_records(&req)));
        } else {
            let src = request.get("spec").and_then(Json::as_str).ok_or("miss without spec")?;
            let prop = request.get("property").and_then(Json::as_str).ok_or("no property")?;
            let lint = |req: &LintRequest| {
                std::hint::black_box(lint_records(req));
                true
            };
            check_layers("inline spec", src, prop, &inputs.options, lint, &mut t, Depth::Search)?;
        }
    }
    let (hits, misses) = (m.cache_hits.get() - hits0, m.cache_misses.get() - misses0);
    let mut totals = totals(&t);
    totals.extend([
        ("hit_request_ms", ms(hit_ms)),
        ("miss_request_ms", ms(miss_ms)),
        ("json_ms", ms(json_ms)),
        ("cache_hits", Json::from(hits)),
        ("cache_misses", Json::from(misses)),
        ("cache_evictions", Json::from(m.cache_evictions.get() - evictions0)),
    ]);
    Ok(Json::obj([("totals", Json::obj(totals)), ("ops", Json::Arr(ops))]))
}
