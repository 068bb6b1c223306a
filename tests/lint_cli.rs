//! End-to-end tests for `wave lint`: every diagnostic code has a golden
//! fixture (a minimal spec/property that triggers it, with the exact
//! rendered output), plus the `--deny`/`--allow` policy knobs, the JSON
//! and SARIF formats, and the lint pre-pass of `wave check`.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn wave_bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push(format!("wave{}", std::env::consts::EXE_SUFFIX));
    p
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/lint")
}

/// The lint invocation for one fixture: the spec plus any properties
/// listed one-per-line in the optional `<stem>.props` sidecar.
fn lint_args(stem: &str) -> Vec<String> {
    let mut args = vec!["lint".to_string(), format!("{stem}.wave")];
    if let Ok(props) = fs::read_to_string(fixture_dir().join(format!("{stem}.props"))) {
        for line in props.lines().filter(|l| !l.trim().is_empty()) {
            args.push("--property".to_string());
            args.push(line.to_string());
        }
    }
    args
}

#[test]
fn every_diagnostic_code_has_a_fixture_matching_its_golden() {
    let dir = fixture_dir();
    let mut stems: Vec<String> = fs::read_dir(&dir)
        .expect("fixture dir")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().and_then(|x| x.to_str()) == Some("wave"))
                .then(|| p.file_stem().unwrap().to_str().unwrap().to_string())
        })
        .collect();
    stems.sort();

    // one fixture per registered code, named after it
    for (code, _, _) in wave_lint::CODES {
        assert!(
            stems.iter().any(|s| s.eq_ignore_ascii_case(code)),
            "no fixture for diagnostic {code}"
        );
    }

    for stem in &stems {
        // bare file names in the output: run from inside the fixture dir
        let out = Command::new(wave_bin())
            .args(lint_args(stem))
            .current_dir(&dir)
            .output()
            .expect("wave runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let expected = fs::read_to_string(dir.join(format!("{stem}.expected")))
            .unwrap_or_else(|_| panic!("{stem}.expected missing"));
        assert_eq!(stdout, expected, "{stem}: output drifted from golden");
        let code = stem.to_ascii_uppercase();
        assert!(stdout.contains(&format!("[{code}]")), "{stem}: {code} not reported\n{stdout}");
        // error-class findings exit 1, warnings exit 0
        let want = if expected.contains("error[") { 1 } else { 0 };
        assert_eq!(out.status.code(), Some(want), "{stem}: wrong exit code\n{stdout}");
    }
}

#[test]
fn deny_warnings_promotes_and_allow_suppresses() {
    let dir = fixture_dir();
    let denied = Command::new(wave_bin())
        .args(["lint", "w0101.wave", "--deny", "warnings"])
        .current_dir(&dir)
        .output()
        .expect("wave runs");
    assert_eq!(denied.status.code(), Some(1), "{denied:?}");
    assert!(String::from_utf8_lossy(&denied.stdout).contains("error[W0101]"), "{denied:?}");

    let allowed = Command::new(wave_bin())
        .args(["lint", "w0101.wave", "--deny", "warnings", "--allow", "W0101"])
        .current_dir(&dir)
        .output()
        .expect("wave runs");
    assert_eq!(allowed.status.code(), Some(0), "{allowed:?}");
    assert!(allowed.stdout.is_empty(), "{allowed:?}");
}

#[test]
fn json_format_is_machine_readable() {
    let out = Command::new(wave_bin())
        .args(["lint", "w0201.wave", "--format", "json"])
        .current_dir(fixture_dir())
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = wave_svc::parse_json(String::from_utf8_lossy(&out.stdout).trim()).expect("json");
    let findings = json.as_array().expect("array");
    assert_eq!(findings.len(), 1, "{json}");
    assert_eq!(findings[0].get("code").unwrap().as_str(), Some("W0201"));
    assert!(findings[0].get("line").unwrap().as_u64().is_some());
}

#[test]
fn sarif_format_carries_rules_and_regions() {
    let out = Command::new(wave_bin())
        .args(["lint", "w0401.wave", "--format", "sarif"])
        .current_dir(fixture_dir())
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let sarif = wave_svc::parse_json(String::from_utf8_lossy(&out.stdout).trim()).expect("sarif");
    assert_eq!(sarif.get("version").unwrap().as_str(), Some("2.1.0"));
    let run = &sarif.get("runs").unwrap().as_array().unwrap()[0];
    let rules = run.get("tool").unwrap().get("driver").unwrap().get("rules").unwrap();
    assert_eq!(rules.as_array().unwrap().len(), wave_lint::CODES.len());
    let results = run.get("results").unwrap().as_array().unwrap();
    assert_eq!(results[0].get("ruleId").unwrap().as_str(), Some("W0401"));
    let region = results[0].get("locations").unwrap().as_array().unwrap()[0]
        .get("physicalLocation")
        .unwrap()
        .get("region")
        .unwrap();
    assert!(region.get("startLine").unwrap().as_u64().is_some());
}

#[test]
fn bundled_specs_lint_clean_under_deny_warnings() {
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../apps/specs");
    for entry in fs::read_dir(specs).expect("spec dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("wave") {
            continue;
        }
        let out = Command::new(wave_bin())
            .args(["lint", path.to_str().unwrap(), "--deny", "warnings"])
            .output()
            .expect("wave runs");
        assert_eq!(out.status.code(), Some(0), "{path:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{path:?} must lint clean: {out:?}");
    }
}

#[test]
fn check_prints_diagnostics_to_stderr_and_embeds_them_in_json() {
    let dir = fixture_dir();
    // human mode: findings on stderr with source locations, verdict on stdout
    let out = Command::new(wave_bin())
        .args(["check", "w0101.wave", "--property", "G @A", "--max-steps", "2000"])
        .current_dir(&dir)
        .output()
        .expect("wave runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning[W0101]"), "{stderr}");
    assert!(stderr.contains("w0101.wave:10:5"), "{stderr}");
    assert!(stderr.contains("not input-bounded"), "{stderr}");

    // --json: the same findings ride inside the record
    let out = Command::new(wave_bin())
        .args(["check", "w0101.wave", "--property", "G @A", "--max-steps", "2000", "--json"])
        .current_dir(&dir)
        .output()
        .expect("wave runs");
    let record = wave_svc::parse_json(String::from_utf8_lossy(&out.stdout).trim()).expect("json");
    let diags = record.get("diagnostics").expect("diagnostics field").as_array().unwrap();
    assert_eq!(diags[0].get("code").unwrap().as_str(), Some("W0101"));
    assert_eq!(diags[0].get("line").unwrap().as_u64(), Some(10));

    // a note-only spec: the note reaches stderr, but notes stay out of
    // the record, so it carries no diagnostics field
    let property = std::fs::read_to_string(dir.join("n0604.props")).expect("fixture");
    let args = ["check", "n0604.wave", "--property", property.trim()];
    let out = Command::new(wave_bin()).args(args).current_dir(&dir).output().expect("wave runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("note[N0604]"), "{stderr}");
    let out = Command::new(wave_bin())
        .args(args)
        .arg("--json")
        .current_dir(&dir)
        .output()
        .expect("wave runs");
    let record = wave_svc::parse_json(String::from_utf8_lossy(&out.stdout).trim()).expect("json");
    assert!(record.get("diagnostics").is_none(), "{record}");

    // a clean spec's record carries no diagnostics field at all
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../apps/specs");
    let out = Command::new(wave_bin())
        .args([
            "check",
            specs.join("e2_motogp.wave").to_str().unwrap(),
            "--property",
            "F @HP",
            "--json",
        ])
        .output()
        .expect("wave runs");
    let record = wave_svc::parse_json(String::from_utf8_lossy(&out.stdout).trim()).expect("json");
    assert!(record.get("diagnostics").is_none(), "{record}");
}

#[test]
fn lint_usage_errors_exit_two() {
    let dir = fixture_dir();
    for args in [
        vec!["lint", "w0101.wave", "--format", "xml"],
        vec!["lint", "w0101.wave", "--deny", "everything"],
        vec!["lint", "w0101.wave", "--allow", "W9999"],
        vec!["lint", "w0101.wave", "--allow", "E0001"],
        vec!["lint", "/nonexistent.wave"],
        vec!["lint"],
    ] {
        let out = Command::new(wave_bin()).args(&args).current_dir(&dir).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}
