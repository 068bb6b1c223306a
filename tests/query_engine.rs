//! Query-engine equivalence suite: the delta-driven result memo must be
//! observationally identical to executing every compiled plan afresh
//! (`--naive-joins`, which now turns off only the memo) — same
//! verdicts, same deterministic search counters, byte-identical
//! counterexample renderings — across every property of all four
//! benchmark applications.
//!
//! `WAVE_TEST_JOINS=naive` (the CI matrix leg) flips the *default* side
//! of each comparison to the ablation too, so the whole integration
//! test binary also runs green with the memo off.

use wave::apps::AppSuite;
use wave::{Verdict, Verifier, VerifyOptions};

/// Heavyweights excluded from the *debug* sweeps, mirroring
/// `store_tiered.rs` — release runs and the CI bench gate cover them.
#[cfg(debug_assertions)]
const SWEEP_EXCLUDE: [(&str, &str); 3] = [("E1", "P5"), ("E1", "P7"), ("E3", "R9")];
#[cfg(not(debug_assertions))]
const SWEEP_EXCLUDE: [(&str, &str); 0] = [];

fn suite(name: &str) -> AppSuite {
    match name {
        "E1" => wave::apps::e1::suite(),
        "E2" => wave::apps::e2::suite(),
        "E3" => wave::apps::e3::suite(),
        "E4" => wave::apps::e4::suite(),
        other => panic!("unknown suite {other}"),
    }
}

/// Everything the engine determines about one property: verdict shape,
/// the deterministic stats columns, and the rendered counterexample.
/// Memo counters are deliberately absent — they are the knob under
/// test, not part of the observable result.
#[derive(Debug, PartialEq)]
struct Outcome {
    name: String,
    verdict: String,
    configs: u64,
    cores: u64,
    assignments: u64,
    max_trie: usize,
    max_run_len: usize,
    counterexample: Option<String>,
}

/// `(outcomes, total memo hits)` for the selected properties with the
/// given memo setting.
fn run(suite: &AppSuite, names: &[&str], naive_joins: bool) -> (Vec<Outcome>, u64) {
    let options = VerifyOptions { naive_joins, ..Default::default() };
    let verifier = Verifier::with_options(suite.spec.clone(), options).expect("suite compiles");
    let mut outcomes = Vec::new();
    let mut hits = 0;
    for case in &suite.properties {
        if !names.contains(&case.name) {
            continue;
        }
        let v = verifier.check_str(&case.text).expect("check runs");
        hits += v.stats.profile.memo_hits;
        outcomes.push(Outcome {
            name: case.name.to_string(),
            verdict: match &v.verdict {
                Verdict::Holds => "holds".into(),
                Verdict::Violated(_) => "violated".into(),
                Verdict::Unknown(b) => format!("unknown({b:?})"),
            },
            configs: v.stats.configs,
            cores: v.stats.cores,
            assignments: v.stats.assignments,
            max_trie: v.stats.max_trie,
            max_run_len: v.stats.max_run_len,
            counterexample: match &v.verdict {
                Verdict::Violated(ce) => Some(verifier.render_counterexample(ce)),
                _ => None,
            },
        });
    }
    (outcomes, hits)
}

/// When the CI matrix sets `WAVE_TEST_JOINS=naive`, even the "default"
/// side of each comparison runs the ablation.
fn default_is_naive() -> bool {
    std::env::var("WAVE_TEST_JOINS").as_deref() == Ok("naive")
}

fn memo_matches_memo_off_everywhere(name: &str) {
    let suite = suite(name);
    let excluded: Vec<&str> =
        SWEEP_EXCLUDE.iter().filter(|(s, _)| *s == name).map(|(_, prop)| *prop).collect();
    let names: Vec<&str> =
        suite.properties.iter().map(|c| c.name).filter(|n| !excluded.contains(n)).collect();
    let (engine, hits) = run(&suite, &names, default_is_naive());
    let (naive, naive_hits) = run(&suite, &names, true);
    assert_eq!(engine.len(), names.len());
    assert_eq!(engine, naive, "{name}: the memo diverged from the memo-off baseline");
    assert_eq!(naive_hits, 0, "{name}: the ablation must not memoize");
    if !default_is_naive() {
        assert!(hits > 0, "{name}: the memo never hit across a whole suite");
    }
}

#[test]
fn e1_query_engine_matches_naive_on_every_property() {
    memo_matches_memo_off_everywhere("E1");
}

#[test]
fn e2_query_engine_matches_naive_on_every_property() {
    memo_matches_memo_off_everywhere("E2");
}

#[test]
fn e3_query_engine_matches_naive_on_every_property() {
    memo_matches_memo_off_everywhere("E3");
}

#[test]
fn e4_query_engine_matches_naive_on_every_property() {
    memo_matches_memo_off_everywhere("E4");
}

/// The interpreter baseline ignores the ablation flag entirely: with
/// `--interpret` there are no plans to memoize, so both settings are
/// the same run.
#[test]
fn interpret_mode_is_unaffected_by_the_ablation_flag() {
    let suite = suite("E2");
    let names = ["Q1", "Q6"];
    for naive in [false, true] {
        let options = VerifyOptions { use_plans: false, naive_joins: naive, ..Default::default() };
        let verifier = Verifier::with_options(suite.spec.clone(), options).unwrap();
        for name in names {
            let case = suite.properties.iter().find(|c| c.name == name).unwrap();
            let v = verifier.check_str(&case.text).expect("check runs");
            assert_eq!(v.stats.profile.memo_hits, 0);
            assert_eq!(v.stats.profile.memo_misses, 0);
        }
    }
}

/// The committed query bench stays structurally sound: an `opt` and a
/// `naive` row for every property, with identical deterministic columns
/// — the equivalence claim, as committed. (The numeric freshness gate is
/// `wave bench --check` in CI, which re-measures in release mode.)
#[test]
fn committed_query_bench_is_structurally_consistent() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json"))
            .expect("BENCH_query.json is committed at the repo root");
    let json = wave_svc::parse_json(&text).expect("bench file parses");
    let rows = json.get("rows").and_then(wave_svc::Json::as_array).expect("rows array");
    assert!(!rows.is_empty());
    let get =
        |row: &wave_svc::Json, key: &str| row.get(key).cloned().unwrap_or(wave_svc::Json::Null);
    for name in ["E1", "E2", "E3", "E4"] {
        let suite = suite(name);
        for case in &suite.properties {
            let matching: Vec<&wave_svc::Json> = rows
                .iter()
                .filter(|row| {
                    row.get("suite").and_then(wave_svc::Json::as_str) == Some(suite.name)
                        && row.get("prop").and_then(wave_svc::Json::as_str) == Some(case.name)
                })
                .collect();
            let joins = |r: &wave_svc::Json| get(r, "joins").as_str().map(str::to_string);
            assert_eq!(matching.len(), 2, "{name}/{}: one row per mode", case.name);
            let (opt, naive) = (matching[0], matching[1]);
            assert_eq!(joins(opt).as_deref(), Some("opt"));
            assert_eq!(joins(naive).as_deref(), Some("naive"));
            for key in ["verdict", "configs", "cores", "assignments", "max_run_len", "max_trie"] {
                assert_eq!(
                    get(opt, key),
                    get(naive, key),
                    "{name}/{}: {key} differs between engine modes",
                    case.name
                );
            }
            let expected = if case.holds { "holds" } else { "violated" };
            assert_eq!(get(opt, "verdict").as_str(), Some(expected), "{name}/{}", case.name);
        }
    }
}
