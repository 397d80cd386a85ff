use std::collections::BTreeMap;
use std::sync::Mutex;

use udse_core::query::Query;
use udse_core::Metrics;
use udse_obs::json::Json;

use crate::check::{self, Hash};
use crate::inputs::{self, ProbeOp, Scale, HELD_OUT_SEED, RESIDUAL_BENCHMARKS};
use crate::ledger::Ledger;
use crate::rounds::{Prepared, Round, Workload};
use crate::{expected_hash, failed_ops};

/// The identity counters are process-wide, so tests that run rounds
/// must not overlap.
static ROUNDS: Mutex<()> = Mutex::new(());

#[test]
fn inputs_are_a_function_of_the_seed() {
    let s = Scale::RECORD;
    assert_eq!(inputs::train(11, &s), inputs::train(11, &s));
    assert_eq!(inputs::explore(11, &s), inputs::explore(11, &s));
    assert_eq!(inputs::probe(11, &s), inputs::probe(11, &s));
    assert_ne!(inputs::train(11, &s), inputs::train(12, &s));
    assert_ne!(inputs::explore(11, &s).queries, inputs::explore(12, &s).queries);
    assert_ne!(inputs::probe(11, &s), inputs::probe(12, &s));
}

fn query_mix(seed: u64) -> BTreeMap<&'static str, usize> {
    let mut mix = BTreeMap::new();
    for q in inputs::explore(seed, &Scale::RECORD).queries {
        *mix.entry(inputs::query_layer(&q)).or_default() += 1;
    }
    mix
}

/// Direct runs by machine class, and in-space evaluations.
fn probe_mix(seed: u64) -> [usize; 4] {
    let mut mix = [0; 4];
    for op in inputs::probe(seed, &Scale::RECORD).ops {
        let class = match op {
            ProbeOp::Direct(_, cfg) if cfg.in_order => 0,
            ProbeOp::Direct(_, cfg) if cfg == udse_sim::MachineConfig::power4_baseline() => 1,
            ProbeOp::Direct(..) => 2,
            ProbeOp::Evaluate(..) => 3,
        };
        mix[class] += 1;
    }
    mix
}

#[test]
fn the_streams_follow_the_run_of_record() {
    // The paper run's 1,689 issued queries plus three ad hoc ones.
    let expected = BTreeMap::from([
        ("core.query_point", 1656),
        ("core.query_pareto", 13),
        ("core.query_optimum", 9 + 4),
        ("core.query_suite_optimum", 7),
        ("core.query_top_k", 1),
        ("core.query_what_if", 1),
        ("core.query_axis_sweep", 1),
    ]);
    // 3 x 24 residual evaluations; 27 direct runs, 3 in 11 of all.
    let probe = [1, 2, 24, 72];
    for seed in [1, 2, inputs::DEFAULT_SEED, HELD_OUT_SEED] {
        assert_eq!(query_mix(seed), expected, "seed {seed}");
        assert_eq!(probe_mix(seed), probe, "seed {seed}");
    }
}

#[test]
fn warming_covers_every_in_space_stream() {
    for seed in 0..50 {
        let inp = inputs::probe(seed, &Scale::RECORD);
        let caches = |p: &udse_core::DesignPoint| (p.il1_idx, p.dl1_idx, p.l2_idx);
        for op in &inp.ops {
            if let ProbeOp::Evaluate(b, p) = op {
                assert!(RESIDUAL_BENCHMARKS.contains(b));
                assert!(
                    inp.warm.iter().any(|(wb, w)| wb == b && caches(w) == caches(p)),
                    "seed {seed}: {b:?} {p:?} has no warm stream"
                );
            }
        }
    }
}

#[test]
fn generated_constraints_are_satisfiable() {
    // Each query constrains an axis at most once, so it is satisfiable
    // when every constraint admits some level of its axis.
    let space = udse_core::DesignSpace::exploration();
    for seed in 0..200 {
        for q in inputs::explore(seed, &Scale::RECORD).queries {
            let constraints = match &q {
                Query::ConstrainedOptimum { constraints, .. }
                | Query::ParetoSlice { constraints, .. }
                | Query::TopK { constraints, .. } => constraints,
                _ => continue,
            };
            for c in constraints {
                let levels = space.dimensions()[c.axis.slot()];
                let admits = (0..levels)
                    .map(|l| c.axis.level_value(&space, l))
                    .any(|v| c.min.is_none_or(|lo| lo <= v) && c.max.is_none_or(|hi| v <= hi));
                assert!(admits, "seed {seed}: {c:?} admits no level");
            }
        }
    }
}

#[test]
fn hash_sees_a_one_ulp_change() {
    let m = Metrics { bips: 1.25, watts: 40.0 };
    let nudged = Metrics { bips: f64::from_bits(m.bips.to_bits() + 1), ..m };
    let (mut a, mut b) = (Hash::default(), Hash::default());
    a.metrics(&m);
    b.metrics(&nudged);
    assert_ne!(a.value(), b.value());
    assert!(!check::valid(&Metrics { bips: f64::NAN, watts: 1.0 }));
    assert!(!check::valid(&Metrics { bips: 1.0, watts: 0.0 }));
}

fn round(hash: u64, counters: [u64; 6]) -> Round {
    Round { setup_s: 0.1, work_s: 1.0, call_s: vec![1.0], ops: 10, failed: 0, hash, counters }
}

#[test]
fn a_perturbed_round_fails_all_its_ops() {
    let w = Workload::Probe;
    let ok = round(7, [1, 2, 3, 0, 0, 0]);
    assert_eq!(failed_ops(w, HELD_OUT_SEED, &[ok.clone(), ok.clone()]), 0);
    assert_eq!(failed_ops(w, HELD_OUT_SEED, &[ok.clone(), round(8, ok.counters)]), 10);
    assert_eq!(failed_ops(w, HELD_OUT_SEED, &[ok.clone(), round(7, [1, 2, 4, 0, 0, 0])]), 10);
    // Under the default seed the first round must match the record.
    let recorded = round(expected_hash(w), ok.counters);
    assert_eq!(failed_ops(w, inputs::DEFAULT_SEED, &[recorded.clone(), recorded]), 0);
    assert_eq!(failed_ops(w, inputs::DEFAULT_SEED, &[ok.clone(), ok]), 20);
}

#[test]
fn rounds_are_identical_at_a_tiny_size() {
    let _serial = ROUNDS.lock().expect("round lock poisoned");
    udse_obs::pool::set_max_workers(1);
    for w in Workload::ALL {
        let prepared = Prepared::new(w, HELD_OUT_SEED, &Scale::TINY);
        let (a, b) = (prepared.round(), prepared.round());
        assert_eq!(a.failed, 0, "{w:?}");
        assert_eq!(a.call_s.len() as u64, a.ops, "{w:?}");
        assert_eq!((a.hash, a.counters), (b.hash, b.counters), "{w:?}");
        let instructions = a.counters[2];
        assert_eq!(instructions > 0, w == Workload::Probe, "{w:?}: {:?}", a.counters);
        assert_eq!(failed_ops(w, HELD_OUT_SEED, &[a, b]), 0);
    }
}

#[test]
fn the_ledger_reports_every_listed_metric() {
    let _serial = ROUNDS.lock().expect("round lock poisoned");
    udse_obs::pool::set_max_workers(1);
    let mut ledger = Ledger::default();
    ledger.train(&inputs::train(HELD_OUT_SEED, &Scale::TINY));
    for w in Workload::ALL {
        let round = ledger.round(&Prepared::new(w, HELD_OUT_SEED, &Scale::TINY));
        assert_eq!(round.failed, 0, "{w:?}");
    }
    assert_eq!(ledger.failed, 0);
    let reported: BTreeMap<String, f64> =
        ledger.metrics(0.0).into_iter().map(|(name, value, _)| (name, value)).collect();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    let listed: Vec<&str> = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("metric name"))
        .collect();
    assert_eq!(listed.len(), reported.len());
    for name in listed {
        let value = reported.get(name).unwrap_or_else(|| panic!("{name} not reported"));
        assert!(value.is_finite(), "{name} = {value}");
    }
}
