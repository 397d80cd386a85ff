//! The workloads as identical, self-contained rounds. A round builds its
//! own program state from the (read-only) inputs, times its set-up, then
//! times its work call by call; nothing a round builds outlives it, so
//! every round of a run makes the same calls and each call's fastest run
//! is a fair estimate of its cost on a quiet host.
//!
//! Each layer call of a round goes through a [`Timer`]: the plain
//! [`Calls`] timer of the measured rounds, or the per-layer
//! [`Ledger`](crate::ledger::Ledger) of the traced run.

use std::time::Instant;

use udse_core::oracle::{CachedOracle, Metrics, Oracle, SimOracle};
use udse_core::studies::TrainedSuite;
use udse_core::Engine;
use udse_sim::{SimResult, Simulator};
use udse_trace::Benchmark;

use crate::check::{self, Hash};
use crate::inputs::{self, ExploreInputs, ProbeInputs, ProbeOp, Scale};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Explore,
    Probe,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Explore, Workload::Probe];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Probe => "probe",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Program counters that must advance identically in every round.
pub const IDENTITY_COUNTERS: [&str; 6] = [
    "sim.precompute.hits",
    "sim.precompute.misses",
    "sim.instructions",
    "query.cache.hits",
    "query.cache.misses",
    "query.cache.evictions",
];

pub fn counters() -> [u64; 6] {
    IDENTITY_COUNTERS.map(|name| udse_obs::metrics::counter(name).get())
}

/// Runs the layer calls of a round, each named after its layer.
pub trait Timer {
    /// Runs one call of the round's set-up.
    fn setup<R>(&mut self, layer: &'static str, call: impl FnOnce() -> R) -> R;
    /// Runs one call of the round's work.
    fn work<R>(&mut self, layer: &'static str, call: impl FnOnce() -> R) -> R;
}

/// The timer of a measured round: the wall time of each work call, in
/// order. Set-up calls are timed only as a whole, by the round.
#[derive(Debug, Default)]
pub struct Calls(Vec<f64>);

impl Timer for Calls {
    fn setup<R>(&mut self, _layer: &'static str, call: impl FnOnce() -> R) -> R {
        call()
    }

    fn work<R>(&mut self, _layer: &'static str, call: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = call();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }
}

/// What one round measured and produced.
#[derive(Debug, Clone)]
pub struct Round {
    pub setup_s: f64,
    pub work_s: f64,
    /// Wall time of each separately timed call of the work: one query in
    /// `explore`, one simulation in `probe`.
    pub call_s: Vec<f64>,
    pub ops: u64,
    /// Ops whose outputs failed the validity check or errored.
    pub failed: u64,
    /// Hash of every output of the round.
    pub hash: u64,
    /// Advance of [`IDENTITY_COUNTERS`] over the round.
    pub counters: [u64; 6],
}

/// A workload's inputs, generated once per process from the seed, plus
/// the untimed `explore` fixture suite.
pub enum Prepared {
    Explore(ExploreInputs, TrainedSuite),
    Probe(ProbeInputs),
}

impl Prepared {
    /// # Panics
    ///
    /// Panics if the `explore` fixture suite fails to fit, which the
    /// generated sample sizes rule out.
    pub fn new(workload: Workload, seed: u64, scale: &Scale) -> Prepared {
        match workload {
            Workload::Explore => {
                let inp = inputs::explore(seed, scale);
                let oracle = SimOracle::with_trace_len(inp.fixture_trace_len)
                    .with_seed(inp.fixture_trace_seed);
                let fixture = TrainedSuite::train(&oracle, &inp.fixture_config)
                    .expect("fixture sample fits the paper spec");
                Prepared::Explore(inp, fixture)
            }
            Workload::Probe => Prepared::Probe(inputs::probe(seed, scale)),
        }
    }

    /// One measured round.
    pub fn round(&self) -> Round {
        let mut calls = Calls::default();
        let mut round = self.run(&mut calls);
        round.call_s = calls.0;
        round
    }

    /// One round with every layer call passed through `timer`.
    pub fn run<T: Timer>(&self, timer: &mut T) -> Round {
        let before = counters();
        let mut round = match self {
            Prepared::Explore(inp, fixture) => explore(inp, fixture, timer),
            Prepared::Probe(inp) => probe(inp, timer),
        };
        let after = counters();
        for ((c, a), b) in round.counters.iter_mut().zip(after).zip(before) {
            *c = a - b;
        }
        round
    }
}

/// A fresh oracle with every benchmark's trace generated and preflighted.
pub fn ready_oracle<T: Timer>(timer: &mut T, trace_len: usize, trace_seed: u64) -> SimOracle {
    let oracle = SimOracle::with_trace_len(trace_len).with_seed(trace_seed);
    for b in Benchmark::ALL {
        // The oracle's first `trace` call runs `Trace::generate`, its
        // first `preflight` call `TracePreflight::of`.
        timer.setup("trace.generate", || oracle.trace(b));
        timer.setup("sim.preflight", || oracle.preflight(b));
    }
    oracle
}

/// `explore`: set-up builds the engine and materializes the stride-1
/// characterization; the work executes the query stream.
fn explore<T: Timer>(inp: &ExploreInputs, fixture: &TrainedSuite, timer: &mut T) -> Round {
    let suite = fixture.clone();
    let t0 = Instant::now();
    let engine = timer.setup("core.engine_new", || Engine::new(suite, &inp.fixture_config));
    let sweep = timer.setup("core.sweep", || engine.full_sweep());
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let results: Vec<_> = inp
        .queries
        .iter()
        .map(|q| timer.work(inputs::query_layer(q), || engine.execute(q)))
        .collect();
    let work_s = t1.elapsed().as_secs_f64();

    let mut hash = Hash::default();
    sweep.iter().for_each(|per_benchmark| hash.word(per_benchmark.len() as u64));
    let mut failed = 0;
    for result in &results {
        match result {
            Ok(r) => {
                hash.query_result(r);
                failed += u64::from(!check::valid_result(r));
            }
            Err(e) => {
                hash.bytes(e.as_bytes());
                failed += 1;
            }
        }
    }
    Round {
        setup_s,
        work_s,
        call_s: Vec::new(),
        ops: results.len() as u64,
        failed,
        hash: hash.value(),
        counters: [0; 6],
    }
}

enum Simulated {
    Oracle(Metrics),
    Direct(SimResult),
}

/// `probe`: set-up generates and preflights the nine traces and
/// simulates the warming training designs through the memoizing oracle;
/// the work issues the simulations one at a time, in-space ones through
/// that oracle and the rest through the direct engine.
fn probe<T: Timer>(inp: &ProbeInputs, timer: &mut T) -> Round {
    let t0 = Instant::now();
    let oracle = CachedOracle::new(ready_oracle(timer, inp.trace_len, inp.trace_seed));
    let warmed = timer.setup("core.oracle_warm", || oracle.evaluate_many(&inp.warm));
    let setup_s = t0.elapsed().as_secs_f64();

    let sim = oracle.inner();
    let warmup = sim.warmup_insts();
    let t1 = Instant::now();
    let results: Vec<Simulated> = inp
        .ops
        .iter()
        .map(|op| match *op {
            ProbeOp::Evaluate(b, p) => {
                Simulated::Oracle(timer.work("core.oracle_evaluate", || oracle.evaluate(b, &p)))
            }
            ProbeOp::Direct(b, cfg) => {
                let trace = sim.trace(b);
                Simulated::Direct(
                    timer
                        .work("sim.direct", || Simulator::new(cfg).run_with_warmup(&trace, warmup)),
                )
            }
        })
        .collect();
    let work_s = t1.elapsed().as_secs_f64();

    let mut hash = Hash::default();
    warmed.iter().for_each(|m| hash.metrics(m));
    let mut failed = u64::from(!warmed.iter().all(check::valid));
    for result in &results {
        let m = match result {
            Simulated::Oracle(m) => {
                hash.metrics(m);
                *m
            }
            Simulated::Direct(r) => {
                hash.sim_result(r);
                Metrics { bips: r.bips, watts: r.watts }
            }
        };
        failed += u64::from(!check::valid(&m));
    }
    Round {
        setup_s,
        work_s,
        call_s: Vec::new(),
        ops: results.len() as u64,
        failed: failed.min(results.len() as u64),
        hash: hash.value(),
        counters: [0; 6],
    }
}
