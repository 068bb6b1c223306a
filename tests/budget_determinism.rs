//! Budget-determinism suite (ISSUE 4): a budgeted parallel run must be
//! byte-identical to the sequential leftover-budget semantics — same
//! verdict, same exhausted-budget report, same counterexample, same
//! search counters — for any worker count and any lease chunk size.
//!
//! Each suite is probed for a step budget that exhausts *mid-suite*
//! (some properties decided, some `unknown`), which is exactly the
//! regime where the old per-unit budget copies diverged.

use wave::apps::AppSuite;
use wave::VerifyOptions;
use wave_svc::{lookup_suite, JobRecord, Json, ServiceConfig, VerifyService};

fn service(jobs: usize) -> VerifyService {
    VerifyService::new(ServiceConfig { jobs, use_cache: false, ..Default::default() })
        .expect("service starts")
}

fn budgeted(max_steps: u64) -> VerifyOptions {
    VerifyOptions {
        max_steps: Some(max_steps),
        state_store: test_store(),
        naive_joins: test_naive_joins(),
        slice: test_slice(),
        ..Default::default()
    }
}

/// The query-memo setting under test: on by default, off when the CI
/// matrix sets `WAVE_TEST_JOINS=naive`. Budget determinism must hold
/// with and without the result memo.
fn test_naive_joins() -> bool {
    std::env::var("WAVE_TEST_JOINS").as_deref() == Ok("naive")
}

/// The slice setting under test: on by default, off when the CI matrix
/// sets `WAVE_TEST_SLICE=off`. Budget determinism must hold with and
/// without the dataflow slice.
fn test_slice() -> bool {
    std::env::var("WAVE_TEST_SLICE").as_deref() != Ok("off")
}

/// The store backend under test: interned by default, or the tiered
/// backend when the CI matrix sets `WAVE_TEST_STORE=tiered` (with an
/// optional `WAVE_TEST_STORE_MEM_KB` hot-tier budget). Budget
/// determinism must hold regardless of where the visited set lives.
fn test_store() -> wave::core::StateStoreKind {
    if std::env::var("WAVE_TEST_STORE").as_deref() != Ok("tiered") {
        return wave::core::StateStoreKind::default();
    }
    let mut params = wave::core::TierParams::default();
    if let Ok(kb) = std::env::var("WAVE_TEST_STORE_MEM_KB") {
        params.mem_bytes =
            kb.parse::<u64>().expect("WAVE_TEST_STORE_MEM_KB must be a KiB count") << 10;
    }
    wave::core::StateStoreKind::Tiered(params)
}

/// Render records to the deterministic part of their `--json` lines:
/// wall-clock (`stats.elapsed_ms`) and the per-phase profile (whose
/// timing counters and lease totals are chunk- and scheduling-dependent)
/// are stripped; every other byte must match.
fn normalized(records: &[JobRecord]) -> String {
    records
        .iter()
        .map(|r| {
            let Json::Obj(mut pairs) = r.to_json() else { panic!("record is an object") };
            for (key, value) in pairs.iter_mut() {
                if key == "stats" {
                    if let Json::Obj(stats) = value {
                        stats.retain(|(k, _)| k != "elapsed_ms" && k != "profile");
                    }
                }
            }
            Json::Obj(pairs).to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Find a step budget that exhausts the suite mid-way, and return it
/// with the sequential (`jobs = 1`) reference output.
fn pick_budget(suite: &AppSuite) -> (u64, String) {
    for budget in [16, 64, 200, 600, 2000, 8000] {
        let records = service(1).run_suite(suite, None, budgeted(budget));
        let unknown = records.iter().filter(|r| r.verdict == "unknown").count();
        let decided =
            records.iter().filter(|r| r.verdict == "holds" || r.verdict == "violated").count();
        assert!(records.iter().all(|r| r.verdict != "error"), "{}: {records:?}", suite.name);
        if unknown > 0 && decided > 0 {
            return (budget, normalized(&records));
        }
    }
    panic!("no candidate budget exhausts {} mid-suite", suite.name);
}

/// Worker counts to exercise: 1/2/8 always, plus whatever the CI matrix
/// injects through `WAVE_TEST_JOBS`.
fn jobs_under_test() -> Vec<usize> {
    let mut jobs = vec![1, 2, 8];
    if let Ok(extra) = std::env::var("WAVE_TEST_JOBS") {
        let extra: usize = extra.parse().expect("WAVE_TEST_JOBS must be a worker count");
        if !jobs.contains(&extra) {
            jobs.push(extra);
        }
    }
    jobs
}

fn suite_is_budget_deterministic(name: &str) {
    let suite = lookup_suite(name).expect("known suite");
    let (budget, reference) = pick_budget(&suite);
    for jobs in jobs_under_test() {
        let first = normalized(&service(jobs).run_suite(&suite, None, budgeted(budget)));
        let second = normalized(&service(jobs).run_suite(&suite, None, budgeted(budget)));
        assert_eq!(
            first, reference,
            "{name}: jobs={jobs} diverged from sequential at --max-steps {budget}"
        );
        assert_eq!(second, reference, "{name}: jobs={jobs} is unstable across runs");
    }
}

#[test]
fn e1_budgeted_output_is_jobs_invariant() {
    suite_is_budget_deterministic("E1");
}

#[test]
fn e2_budgeted_output_is_jobs_invariant() {
    suite_is_budget_deterministic("E2");
}

#[test]
fn e3_budgeted_output_is_jobs_invariant() {
    suite_is_budget_deterministic("E3");
}

#[test]
fn e4_budgeted_output_is_jobs_invariant() {
    suite_is_budget_deterministic("E4");
}

#[test]
fn lease_chunk_size_does_not_change_the_output() {
    let suite = lookup_suite("E1").expect("known suite");
    let (budget, reference) = pick_budget(&suite);
    for chunk in [1, 7] {
        let mut options = budgeted(budget);
        options.budget_chunk = chunk;
        let got = normalized(&service(8).run_suite(&suite, None, options));
        assert_eq!(got, reference, "budget_chunk={chunk} changed the output");
    }
}

#[test]
fn deadline_exhaustion_reports_actual_elapsed_never_zero() {
    // a 1ns deadline has passed before the search even starts; the old
    // code reported `time:0` when only the scheduler deadline (not the
    // per-unit copy) was set
    let suite = lookup_suite("E1").expect("known suite");
    let options = VerifyOptions {
        time_limit: Some(std::time::Duration::from_nanos(1)),
        ..Default::default()
    };
    for jobs in [1, 4] {
        let records = service(jobs).run_suite(&suite, Some("P4"), options.clone());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].verdict, "unknown", "jobs={jobs}: {records:?}");
        let budget = records[0].budget.as_deref().expect("unknown carries a budget");
        let secs: f64 = budget
            .strip_prefix("time:")
            .unwrap_or_else(|| panic!("jobs={jobs}: expected a time budget, got {budget:?}"))
            .parse()
            .expect("elapsed seconds parse");
        assert!(secs > 0.0, "jobs={jobs}: deadline report must carry actual elapsed: {budget:?}");
    }
}

#[test]
fn cached_records_byte_match_fresh_records() {
    let suite = lookup_suite("E1").expect("known suite");
    let svc = VerifyService::new(ServiceConfig { jobs: 4, ..Default::default() }).unwrap();
    // P17 is violated, P1 holds; a small budget adds an unknown so all
    // three verdict shapes cross the cache
    let (budget, _) = pick_budget(&suite);
    let fresh = svc.run_suite(&suite, None, budgeted(budget));
    let cached = svc.run_suite(&suite, None, budgeted(budget));
    assert!(cached.iter().all(|r| r.cached), "second run must be all cache hits");
    for (f, c) in fresh.iter().zip(&cached) {
        assert_eq!(f.name, c.name);
        assert_eq!(f.verdict, c.verdict, "{}", f.name);
        assert_eq!(f.budget, c.budget, "{}: cached budget string differs", f.name);
        assert_eq!(f.ce, c.ce, "{}: cached counterexample shape differs", f.name);
        assert_eq!(f.complete, c.complete, "{}", f.name);
    }
}

#[test]
fn cached_counterexample_traces_replay() {
    use wave::{parse_property, Verdict, Verifier};
    use wave_svc::{fingerprint, CachedResult, ResultCache};

    let suite = lookup_suite("E1").expect("known suite");
    let case = suite
        .properties
        .iter()
        .find(|c| c.name == "P17")
        .expect("E1 has the violated property P17");
    let verifier = Verifier::new(suite.spec.clone()).unwrap();
    let prop = parse_property(&case.text).unwrap();
    let v = verifier.check(&prop).unwrap();
    assert!(matches!(v.verdict, Verdict::Violated(_)), "P17 is violated: {:?}", v.verdict);

    // write the result through a disk cache and read it back cold
    let dir = std::env::temp_dir().join(format!("wave-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let canonical = wave::spec::print_spec(&suite.spec);
    let key = fingerprint(&canonical, &case.text, verifier.options());
    {
        let cache = ResultCache::with_dir(dir.clone()).unwrap();
        cache.put(&key, &CachedResult::from_verification(&v).unwrap());
    }
    let cache = ResultCache::with_dir(dir.clone()).unwrap();
    let hit = cache.get(&key).expect("disk hit");
    let ce = hit.counterexample().expect("hit carries the full trace");
    let Verdict::Violated(original) = &v.verdict else { unreachable!() };
    assert_eq!(ce, original, "persisted trace must round-trip exactly");
    verifier
        .validate_counterexample(&prop, ce)
        .expect("a cache-served counterexample replays like a fresh one");
    let _ = std::fs::remove_dir_all(&dir);
}
