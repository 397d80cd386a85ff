//! `udse-inspect` — summarize, diff, and trace-export run manifests.
//!
//! Usage:
//!
//! ```text
//! udse-inspect show <manifest>
//! udse-inspect diff <baseline> <new> [--tol-wall <pct>] [--tol-quality <abs>]
//!                                    [--tol-quality-pooled <abs>]
//!                                    [--tol-quality-max <abs>] [--warn-wall]
//!                                    [--tol-gauge <name>:<pct> ...]
//!                                    [--min-gauge <name>:<value> ...]
//!                                    [--tol-resource <name>:<pct>[:<floor>] ...]
//! udse-inspect trace <manifest | events.jsonl | trace.json> [--folded] [-o <out>]
//! ```
//!
//! `show` prints a human-readable summary (config, artifacts, model
//! quality, spans, resources, the query-engine digest when the run
//! executed queries, metrics). `diff` compares a new run against a
//! baseline and exits nonzero when wall time or model quality regressed
//! beyond tolerance — the CI gate used by `scripts/ci.sh`. Quality
//! budgets are per-study: `--tol-quality` is the per-benchmark default,
//! `--tol-quality-pooled` the tighter budget for pooled records, and
//! `--tol-quality-max` the looser budget for worst-single-error (`max`)
//! statistics. `--tol-gauge name:pct` (repeatable) watches a gauge
//! metric and warns — never gates — when it falls more than `pct`
//! percent below the baseline (e.g.
//! `--tol-gauge sweep.designs_per_sec:50` catches prediction-throughput
//! collapses). `--min-gauge name:value` (repeatable) is the hard floor
//! variant: the run *fails* when the named gauge in the NEW manifest
//! falls below the absolute `value` (or is missing) — e.g.
//! `--min-gauge sweep.designs_per_sec:50000000` locks in a step-change
//! throughput win that a relative watch against a refreshed baseline
//! would let erode. `--tol-resource name:pct[:floor]` (repeatable) is its
//! gating mirror image for resource metrics: the run fails when the
//! named metric *rises* more than `pct` percent above the baseline and
//! the absolute rise exceeds `floor` (default 0) — e.g.
//! `--tol-resource sweep.allocs_per_design:100:0.05` keeps the compiled
//! sweep allocation-free; `resources.`-prefixed names read the manifest
//! `resources` section (`resources.alloc_bytes`, `resources.peak_rss_kb`,
//! …). `trace` emits Chrome `trace_event` JSON (open in Perfetto or
//! `chrome://tracing`) from a JSONL event stream recorded with
//! `UDSE_TRACE=1`, an existing Chrome trace array (e.g. the one
//! `repro --trace` writes), or synthesized from a manifest's span
//! totals; `trace <manifest> --folded` instead emits folded stacks
//! (`path;to;span self_us` lines) consumable by `flamegraph.pl` and
//! inferno.
//!
//! Exit codes: 0 success / within tolerance, 1 regression detected,
//! 2 usage or I/O error (including an unknown flag or a flag missing its
//! value).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use udse_bench::cli::{Args, Flag};
use udse_bench::inspect::{self, DiffTolerances};
use udse_obs::manifest::{write_with_parents, ParsedManifest};
use udse_obs::trace;

// Same counting allocator the `repro` binary installs: `udse-inspect`
// produces no manifests, but keeping every workspace binary under the
// counter means its cost stays continuously exercised end to end.
#[global_allocator]
static ALLOC: udse_obs::CountingAlloc = udse_obs::CountingAlloc::new();

const USAGE: &str = "usage: udse-inspect <command>
  show  <manifest>                                 summarize one run
  diff  <baseline> <new> [--tol-wall <pct>] [--tol-quality <abs>]
        [--tol-quality-pooled <abs>] [--tol-quality-max <abs>] [--warn-wall]
        [--tol-gauge <name>:<pct> ...] [--min-gauge <name>:<value> ...]
        [--tol-resource <name>:<pct>[:<floor>] ...] gate a run against a baseline
  trace <manifest | events.jsonl | trace.json> [--folded] [-o <path>]
                                                   export Chrome trace_event JSON
                                                   or folded flamegraph stacks";

const DIFF_FLAGS: &[Flag] = &[
    Flag::value("--tol-wall"),
    Flag::value("--tol-quality"),
    Flag::value("--tol-quality-pooled"),
    Flag::value("--tol-quality-max"),
    Flag::switch("--warn-wall"),
    Flag::value("--tol-gauge"),
    Flag::value("--min-gauge"),
    Flag::value("--tol-resource"),
];

const TRACE_FLAGS: &[Flag] = &[Flag::switch("--folded"), Flag::value("-o")];

fn fail(message: &str) -> ExitCode {
    eprintln!("udse-inspect: {message}");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<ParsedManifest, String> {
    ParsedManifest::read_from_path(Path::new(path))
}

/// Writes `text` to `-o <path>` when given, otherwise to stdout.
fn emit(args: &Args, text: &str) -> ExitCode {
    match args.value("-o") {
        Some(out) => {
            let out = PathBuf::from(out);
            if let Err(e) = write_with_parents(&out, text) {
                return fail(&e.to_string());
            }
            eprintln!("udse-inspect: wrote {}", out.display());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// Parses every occurrence of a repeatable `name:number` gauge flag.
fn gauge_specs(args: &Args, flag: &str, shape: &str) -> Result<Vec<(String, f64)>, String> {
    args.values(flag)
        .map(|spec| {
            spec.rsplit_once(':')
                .and_then(|(name, v)| Some((name.to_string(), v.parse::<f64>().ok()?)))
                .filter(|(name, _)| !name.is_empty())
                .ok_or_else(|| format!("{flag} expects {shape}, got `{spec}`"))
        })
        .collect()
}

fn diff_main(args: &Args) -> ExitCode {
    let [old_path, new_path] = &args.positional[..] else {
        return fail("diff expects exactly two manifest paths");
    };
    let mut tol =
        DiffTolerances { warn_wall: args.has("--warn-wall"), ..DiffTolerances::default() };
    let overrides = [
        ("--tol-wall", &mut tol.wall_pct),
        ("--tol-quality", &mut tol.quality_abs),
        ("--tol-quality-pooled", &mut tol.quality_pooled_abs),
        ("--tol-quality-max", &mut tol.quality_max_abs),
    ];
    for (flag, slot) in overrides {
        if let Some(v) = args.value(flag) {
            match v.parse::<f64>() {
                Ok(v) => *slot = v,
                Err(_) => return fail(&format!("{flag} expects a number, got `{v}`")),
            }
        }
    }
    match gauge_specs(args, "--tol-gauge", "<name>:<pct>") {
        Ok(specs) => tol.gauge_warn = specs,
        Err(e) => return fail(&e),
    }
    match gauge_specs(args, "--min-gauge", "<name>:<value>") {
        Ok(specs) => tol.min_gauge = specs,
        Err(e) => return fail(&e),
    }
    // --tol-resource name:pct[:floor] (metric names are dotted, never
    // contain colons).
    for spec in args.values("--tol-resource") {
        let parsed = spec.split_once(':').and_then(|(name, rest)| {
            let (pct, floor) = match rest.split_once(':') {
                Some((p, f)) => (p.parse::<f64>().ok()?, f.parse::<f64>().ok()?),
                None => (rest.parse::<f64>().ok()?, 0.0),
            };
            (!name.is_empty()).then(|| (name.to_string(), pct, floor))
        });
        match parsed {
            Some(gate) => tol.resource_gate.push(gate),
            None => {
                return fail(&format!(
                    "--tol-resource expects <name>:<pct>[:<floor>], got `{spec}`"
                ))
            }
        }
    }
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let report = inspect::diff(&old, &new, &tol);
    print!("{}", report.render());
    if report.is_regression() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn trace_main(args: &Args) -> ExitCode {
    let [input] = &args.positional[..] else {
        return fail("trace expects exactly one input path");
    };
    if args.has("--folded") {
        if input.ends_with(".jsonl") {
            return fail("--folded reads manifest span totals, not a JSONL event stream");
        }
        return match load(input) {
            Ok(m) => emit(args, &inspect::folded_from_manifest(&m)),
            Err(e) => fail(&e),
        };
    }
    // Accept three input shapes: a JSONL event stream, an
    // already-assembled Chrome trace array (e.g. from `repro --trace`),
    // or a manifest whose span totals we synthesize events from.
    let text = match std::fs::read_to_string(input.as_str()) {
        Ok(t) => t,
        Err(e) => return fail(&format!("reading {input}: {e}")),
    };
    let events = if input.ends_with(".jsonl") {
        trace::parse_jsonl(&text).map_err(|e| format!("events {input}: {e}"))
    } else if text.trim_start().starts_with('[') {
        trace::parse_chrome_trace(&text).map_err(|e| format!("trace {input}: {e}"))
    } else {
        ParsedManifest::parse(&text)
            .map(|m| inspect::manifest_trace_events(&m))
            .map_err(|e| format!("{input}: {e}"))
    };
    match events {
        Ok(events) => emit(args, &trace::chrome_trace_json(&events).to_string_pretty()),
        Err(e) => fail(&e),
    }
}

fn main() -> ExitCode {
    udse_obs::log::init();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) if !c.starts_with('-') => (c.as_str(), rest),
        Some((c, _)) if c == "--help" || c == "-h" => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => return fail(&format!("expected a command\n{USAGE}")),
    };
    let flags = match command {
        "show" => &[][..],
        "diff" => DIFF_FLAGS,
        "trace" => TRACE_FLAGS,
        other => return fail(&format!("unknown command `{other}`\n{USAGE}")),
    };
    let args = match Args::parse(rest, flags) {
        Ok(a) => a,
        Err(e) => return fail(&format!("{command}: {e}\n{USAGE}")),
    };
    if args.help() {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match command {
        "show" => {
            let [path] = &args.positional[..] else {
                return fail("show expects exactly one manifest path");
            };
            match load(path) {
                Ok(m) => {
                    print!("{}", inspect::show(&m));
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        "diff" => diff_main(&args),
        _ => trace_main(&args),
    }
}
