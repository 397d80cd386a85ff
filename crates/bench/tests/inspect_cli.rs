//! End-to-end tests of the `udse-inspect` binary (regression gating exit
//! codes, Chrome-trace schema validity) and of both binaries' usage
//! errors.

use std::path::PathBuf;
use std::process::{Command, Output};

use udse_obs::Json;

fn manifest_text(wall: f64, p50: f64) -> String {
    format!(
        r#"{{
  "schema_version": 2,
  "tool": "repro",
  "created_unix_ms": 1,
  "command": ["repro", "--quick", "fig1"],
  "config": {{"quick": true, "seed": 2007}},
  "artifacts": [{{"name": "fig1", "wall_seconds": {wall}}}],
  "metrics": {{"sim.instructions": 40500000}},
  "spans": {{
    "fig1": {{"count": 1, "total_seconds": {wall}, "max_seconds": {wall}}},
    "fig1/train": {{"count": 1, "total_seconds": 2.0, "max_seconds": 2.0}}
  }},
  "quality": {{
    "validation.pooled.bips": {{
      "n": 225, "p50": {p50}, "p90": 0.0525, "max": 0.12,
      "bias": 0.0016, "rmse": 0.03, "r_squared": null
    }}
  }}
}}
"#
    )
}

fn write_fixture(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("udse_inspect_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, text).expect("fixture written");
    path
}

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_udse-inspect")).args(args).output().expect("udse-inspect runs")
}

#[test]
fn diff_gates_on_quality_and_wall_regressions() {
    let base = write_fixture("base.json", &manifest_text(3.0, 0.016));
    let same = write_fixture("same.json", &manifest_text(3.0, 0.016));
    let slow = write_fixture("slow.json", &manifest_text(9.0, 0.016));
    let bad = write_fixture("bad.json", &manifest_text(3.0, 0.09));

    // Identical fixed-seed runs pass.
    let out = inspect(&["diff", base.to_str().unwrap(), same.to_str().unwrap()]);
    assert!(out.status.success(), "identical runs must pass: {out:?}");

    // Quality beyond tolerance fails with exit code 1.
    let out = inspect(&["diff", base.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "quality regression must gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSION"), "stdout: {text}");

    // A widened tolerance lets the same pair pass. The fixture key is
    // pooled, so its center statistics answer to the pooled budget —
    // widening only the per-benchmark default must NOT unlock it.
    let out =
        inspect(&["diff", base.to_str().unwrap(), bad.to_str().unwrap(), "--tol-quality", "0.2"]);
    assert_eq!(out.status.code(), Some(1), "pooled records ignore the per-benchmark budget");
    let out = inspect(&[
        "diff",
        base.to_str().unwrap(),
        bad.to_str().unwrap(),
        "--tol-quality-pooled",
        "0.2",
    ]);
    assert!(out.status.success(), "pooled tolerance is configurable");

    // Wall-time blowup fails by default but is demotable to a warning.
    let out = inspect(&["diff", base.to_str().unwrap(), slow.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "wall regression must gate");
    let out = inspect(&["diff", base.to_str().unwrap(), slow.to_str().unwrap(), "--warn-wall"]);
    assert!(out.status.success(), "--warn-wall demotes wall regressions");
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning"));

    for p in [base, same, slow, bad] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn diff_reports_missing_files_cleanly() {
    let out = inspect(&["diff", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(out.status.code(), Some(2), "I/O errors are usage errors, not regressions");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/a.json"), "error names the path: {err}");
}

#[test]
fn show_summarizes_a_manifest() {
    let path = write_fixture("show.json", &manifest_text(3.0, 0.016));
    let out = inspect(&["show", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["tool: repro", "fig1", "validation.pooled.bips", "sim.instructions"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_emits_perfetto_loadable_json() {
    let path = write_fixture("trace.json", &manifest_text(3.0, 0.016));
    let out = inspect(&["trace", path.to_str().unwrap()]);
    assert!(out.status.success());
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let arr = doc.as_arr().expect("trace_event documents are arrays");
    assert_eq!(arr.len(), 2, "one event per span path");
    for e in arr {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").and_then(Json::as_i64).is_some());
        assert!(e.get("dur").and_then(Json::as_i64).is_some());
        assert!(e.get("pid").and_then(Json::as_i64).is_some());
        assert!(e.get("tid").and_then(Json::as_i64).is_some());
    }
    // The nested child starts where its parent starts.
    let parent = arr.iter().find(|e| e.get("name").unwrap().as_str() == Some("fig1")).unwrap();
    let child = arr.iter().find(|e| e.get("name").unwrap().as_str() == Some("fig1/train")).unwrap();
    assert_eq!(parent.get("ts"), child.get("ts"));

    // `-o` writes the file, creating parent directories on demand.
    let out_dir =
        std::env::temp_dir().join(format!("udse_inspect_trace_out_{}", std::process::id()));
    let out_path = out_dir.join("nested/run.trace.json");
    let out = inspect(&["trace", path.to_str().unwrap(), "-o", out_path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&out_path).expect("written through new directories");
    assert!(Json::parse(&text).is_ok());
    let _ = std::fs::remove_dir_all(out_dir);
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_folded_emits_flamegraph_stacks() {
    let path = write_fixture("folded.json", &manifest_text(3.0, 0.016));
    let out = inspect(&["trace", path.to_str().unwrap(), "--folded"]);
    assert!(out.status.success(), "{out:?}");
    // Golden output: flamegraph.pl folded format, one `stack count` line
    // per span with nonzero self time, frames joined by ';', sorted.
    // fig1 totals 3.0s with 2.0s in fig1/train -> 1.0s self.
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text, "fig1 1000000\nfig1;train 2000000\n");
    for line in text.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(!stack.is_empty() && count.parse::<u64>().is_ok(), "bad line: {line}");
    }

    // `-o` writes the folded file too.
    let out_path = std::env::temp_dir()
        .join(format!("udse_inspect_folded_{}", std::process::id()))
        .join("run.folded");
    let out =
        inspect(&["trace", path.to_str().unwrap(), "--folded", "-o", out_path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read_to_string(&out_path).expect("folded file written");
    assert_eq!(written, "fig1 1000000\nfig1;train 2000000\n");

    // --folded is a manifest-only view.
    let jsonl = write_fixture("folded_events.jsonl", "{}\n");
    let out = inspect(&["trace", jsonl.to_str().unwrap(), "--folded"]);
    assert_eq!(out.status.code(), Some(2), "--folded rejects JSONL input");

    let _ = std::fs::remove_dir_all(out_path.parent().unwrap());
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(jsonl);
}

#[test]
fn trace_round_trips_a_jsonl_event_stream() {
    let jsonl = "{\"name\":\"fit\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":10,\"dur\":90,\"pid\":1,\"tid\":1}\n\
                 {\"name\":\"mark\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":50,\"s\":\"t\",\"pid\":1,\"tid\":1}\n";
    let path =
        std::env::temp_dir().join(format!("udse_inspect_cli_{}_events.jsonl", std::process::id()));
    std::fs::write(&path, jsonl).expect("fixture");
    let out = inspect(&["trace", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let arr = doc.as_arr().expect("array");
    assert_eq!(arr.len(), 2);
    assert_eq!(arr[1].get("ph").and_then(Json::as_str), Some("i"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(inspect(&[]).status.code(), Some(2));
    assert_eq!(inspect(&["bogus"]).status.code(), Some(2));
    assert_eq!(inspect(&["diff", "only-one.json"]).status.code(), Some(2));
    assert_eq!(inspect(&["diff", "a", "b", "--tol-wall", "not-a-number"]).status.code(), Some(2));
    // Unknown flags and value flags without a value are usage errors
    // that name the flag, even when the rest of the command is valid.
    let path = write_fixture("usage.json", &manifest_text(3.0, 0.016));
    let path = path.to_str().unwrap();
    for (args, flag) in [
        (vec!["show", path, "--bogus"], "--bogus"),
        (vec!["diff", path, path, "--tol-gauge"], "--tol-gauge"),
        (vec!["trace", path, "-o"], "-o"),
        (vec!["trace", path, "--per-worker"], "--per-worker"),
    ] {
        let out = inspect(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("`{flag}`")), "{args:?} must name {flag}: {err}");
        assert!(err.contains("usage:"), "{args:?} must print usage: {err}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn repro_usage_errors_exit_nonzero_naming_the_flag() {
    // Every case fails while scanning the command line, before any
    // simulation starts, and must leave no manifest behind.
    let manifest =
        std::env::temp_dir().join(format!("udse_repro_usage_{}.json", std::process::id()));
    let manifest = manifest.to_str().unwrap();
    for (args, needle) in [
        (vec!["--quick", "space", "--manifest"], "`--manifest` expects a value"),
        (vec!["--quick", "--jbos", "2", "space", "--manifest", manifest], "unknown flag `--jbos`"),
        (vec!["--quick", "--verbose", "--csv"], "`--csv` expects a value"),
        (vec!["--quick", "fig99", "--manifest", manifest], "unknown artifact `fig99`"),
        (vec!["query", "--quick", "--bogus", "{}"], "unknown flag `--bogus`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(&args).output().expect("runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} produced output: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?} must report {needle}: {err}");
        assert!(err.contains("usage:"), "{args:?} must print usage: {err}");
        assert!(!std::path::Path::new(manifest).exists(), "{args:?} wrote a manifest");
    }
}
