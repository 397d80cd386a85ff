//! The benchmark of record.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explore|probe> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats identical, self-contained rounds of one workload for
//! `--seconds` on one pool worker and prints, as its last stdout line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, each read from the
//! run's rounds; with `--trace 1` they are the per-layer ledger, and a
//! Chrome trace is written under `perfbench/out/`. See `README.md` for the
//! workloads, the metrics and the layer each one should move.

mod check;
mod inputs;
mod ledger;
mod rounds;
#[cfg(test)]
mod tests;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use udse_obs::json::Json;

use inputs::{Scale, DEFAULT_SEED};
use ledger::Ledger;
use rounds::{Prepared, Round, Workload};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Hash of the ledger's training pass at [`Scale::RECORD`] under
/// [`DEFAULT_SEED`]: every simulated `Metrics` and fitted coefficient.
const TRAIN_HASH: u64 = 0xbafd_adca_e1c5_9cb1;

/// Output hash of one round at [`Scale::RECORD`] under [`DEFAULT_SEED`].
fn expected_hash(workload: Workload) -> u64 {
    match workload {
        Workload::Explore => 0x2701_d546_64bd_eeef,
        Workload::Probe => 0xbf50_9738_e8da_3c58,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::by_name(&value).ok_or(bad("explore or probe"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("seconds in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(DEFAULT_SEED),
            seconds: seconds.unwrap_or(50.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Runs rounds until the next one would overrun `budget_s`, but at least
/// `min_rounds`.
fn run_rounds(prepared: &Prepared, budget_s: f64, min_rounds: usize) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        let round = prepared.round();
        longest = longest.max(t.elapsed());
        eprintln!(
            "round {:>2}: setup {:.4} s, work {:.4} s, {} ops, {} failed, hash {:016x}",
            rounds.len(),
            round.setup_s,
            round.work_s,
            round.ops,
            round.failed,
            round.hash
        );
        rounds.push(round);
        if rounds.len() >= min_rounds && (start.elapsed() + longest).as_secs_f64() > budget_s {
            return rounds;
        }
    }
}

/// Failed ops over the rounds: those a round flagged itself, plus every
/// op of a round whose output hash or counter advance differs from the
/// first round's, plus everything when the default seed's hash is off.
fn failed_ops(workload: Workload, seed: u64, rounds: &[Round]) -> u64 {
    let first = &rounds[0];
    if seed == DEFAULT_SEED && first.hash != expected_hash(workload) {
        eprintln!(
            "output hash {:016x} differs from the recorded {:016x}",
            first.hash,
            expected_hash(workload)
        );
        return rounds.iter().map(|r| r.ops).sum();
    }
    rounds
        .iter()
        .map(|r| {
            if r.hash != first.hash || r.counters != first.counters {
                eprintln!(
                    "round differs from the first: hash {:016x} vs {:016x}, counters {:?} vs {:?}",
                    r.hash, first.hash, r.counters, first.counters
                );
                r.ops
            } else {
                r.failed
            }
        })
        .sum()
}

/// The work time of a round on a quiet host: each timed call at its
/// fastest over the rounds, summed. Rounds do identical work, so call `i`
/// of every round is the same call; taking each call's best run instead
/// of the best whole round keeps a contended stretch of the host from
/// spoiling a round.
fn quiet_work_s(rounds: &[Round]) -> f64 {
    (0..rounds[0].call_s.len())
        .map(|i| rounds.iter().map(|r| r.call_s[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end metrics: set-up as the median over rounds, throughput
/// from the quiet work time, and the process's peak resident set.
fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let ops = rounds[0].ops as f64;
    let peak_kb = udse_obs::cputime::peak_rss_kb().unwrap_or(0);
    vec![
        ("setup_s".to_string(), median(rounds.iter().map(|r| r.setup_s).collect()), "s"),
        ("ops_per_s".to_string(), ops / quiet_work_s(rounds), "1/s"),
        ("peak_rss_mb".to_string(), peak_kb as f64 * 1024.0 / 1e6, "MB"),
    ]
}

/// The traced run: untraced rounds, then as long again of traced rounds
/// (their quiet work time against the untraced one is the tracing
/// overhead), then one ledger pass over the training phase and one
/// ledger round of each workload, so each layer is reported whichever
/// workload was named. Returns the rounds, the ledger's checked and
/// failed ops, and the per-layer metrics.
fn traced(args: &Args, prepared: &Prepared) -> (Vec<Round>, (u64, u64), Vec<Metric>) {
    let untraced = run_rounds(prepared, args.seconds * 0.35, 2);
    udse_obs::trace::enable();
    let traced = run_rounds(prepared, args.seconds * 0.35, 2);
    let overhead = quiet_work_s(&traced) / quiet_work_s(&untraced) - 1.0;

    let mut ledger = Ledger::default();
    let train_hash = ledger.train(&inputs::train(args.seed, &Scale::RECORD));
    if args.seed == DEFAULT_SEED && train_hash != TRAIN_HASH {
        eprintln!("training hash {train_hash:016x} differs from the recorded {TRAIN_HASH:016x}");
        ledger.failed = ledger.ops;
    }
    for w in Workload::ALL {
        let round = if w == args.workload {
            let round = ledger.round(prepared);
            // A ledger round is one more round of the named workload.
            if round.hash != untraced[0].hash {
                eprintln!("ledger round hash {:016x} differs from the rounds'", round.hash);
                ledger.failed += round.ops;
            }
            round
        } else {
            ledger.round(&Prepared::new(w, args.seed, &Scale::RECORD))
        };
        ledger.ops += round.ops;
        ledger.failed += round.failed;
    }

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let doc = udse_obs::trace::chrome_trace_json(&udse_obs::trace::global().snapshot());
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.to_string_compact()))
    {
        Ok(()) => eprintln!("chrome trace: {}", path.display()),
        Err(e) => eprintln!("chrome trace not written to {}: {e}", path.display()),
    }

    let mut rounds = untraced;
    rounds.extend(traced);
    (rounds, (ledger.ops, ledger.failed.min(ledger.ops)), ledger.metrics(overhead))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker: on a small shared host a second worker makes the best
    // round far noisier (see README.md).
    udse_obs::pool::set_max_workers(1);
    let prepared = Prepared::new(args.workload, args.seed, &Scale::RECORD);

    let (rounds, (ledger_ops, ledger_failed), metrics) = if args.trace {
        traced(&args, &prepared)
    } else {
        let rounds = run_rounds(&prepared, args.seconds, 2);
        let metrics = end_to_end(&rounds);
        (rounds, (0, 0), metrics)
    };
    let attempted = rounds.iter().map(|r| r.ops).sum::<u64>() + ledger_ops;
    let failed = failed_ops(args.workload, args.seed, &rounds) + ledger_failed;
    let metrics = metrics.into_iter().map(|(name, value, unit)| {
        (name, Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))]))
    });
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    ExitCode::SUCCESS
}
