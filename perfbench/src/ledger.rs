//! The per-layer ledger of the traced run. Every layer call it times runs
//! inside a `udse_obs` span named after the layer, and the ledger keeps
//! the call's wall time and the advance of the program's counters over
//! it. The `explore` and `probe` passes run one ordinary round with the
//! ledger as its [`Timer`]; the training pass, which no measured round
//! runs, is the ledger's own. Time the ledger spends outside the timed
//! calls is reported as unattributed.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use udse_core::space::DesignSpace;
use udse_core::studies::pareto::PredictedDesign;
use udse_core::studies::{strided_count, TrainedSuite};
use udse_core::{Oracle, PaperModels};
use udse_sim::{
    BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, Simulator, StreamScratch,
};
use udse_trace::Benchmark;

use crate::check::{self, Hash};
use crate::inputs::TrainInputs;
use crate::rounds::{counters, ready_oracle, Prepared, Round, Timer};
use crate::Metric;

const MEGA: f64 = 1e6;

#[derive(Debug, Default)]
pub struct Ledger {
    /// Seconds per call, by layer.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Advance of the identity counters over the calls, by layer.
    advance: BTreeMap<&'static str, [u64; 6]>,
    /// Instructions per trace of the passes that simulate.
    trace_len: usize,
    /// Wall time of every ledger pass, and the part inside layer calls.
    wall_s: f64,
    attributed_s: f64,
    stream_store_bytes: usize,
    /// Designs (x benchmarks) in one characterization.
    sweep_designs: u64,
    query_cache_bytes: f64,
    /// Ops whose output the ledger checked, and those that were wrong.
    pub ops: u64,
    pub failed: u64,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Layers reported as p50 / p90 / sample count, with the unit scale.
const TIMED: [(&str, &str, f64); 16] = [
    ("sim.resolve_cache", "ms", 1e3),
    ("sim.resolve_branch", "ms", 1e3),
    ("sim.stream", "ms", 1e3),
    ("sim.direct", "ms", 1e3),
    ("core.oracle_batch", "s", 1.0),
    ("core.oracle_evaluate", "ms", 1e3),
    ("regress.fit", "ms", 1e3),
    ("regress.compile", "ms", 1e3),
    ("core.engine_new", "ms", 1e3),
    ("core.query_optimum", "ms", 1e3),
    ("core.query_suite_optimum", "ms", 1e3),
    ("core.query_top_k", "ms", 1e3),
    ("core.query_pareto", "ms", 1e3),
    ("core.query_point", "ms", 1e3),
    ("core.query_what_if", "ms", 1e3),
    ("core.query_axis_sweep", "ms", 1e3),
];

/// Layers reported as a rate in millions of instructions per second;
/// each of their calls processes one whole trace.
const RATES: [&str; 4] = ["trace.generate", "sim.preflight", "sim.stream", "sim.direct"];

/// Layers whose `sim.precompute` lookups make the oracle's memo ratio.
const ORACLE_LAYERS: [&str; 2] = ["core.oracle_batch", "core.oracle_evaluate"];

impl Timer for Ledger {
    fn setup<R>(&mut self, layer: &'static str, call: impl FnOnce() -> R) -> R {
        self.time(layer, call)
    }

    fn work<R>(&mut self, layer: &'static str, call: impl FnOnce() -> R) -> R {
        self.time(layer, call)
    }
}

impl Ledger {
    /// Runs one layer call inside its span and keeps its wall time and
    /// counter advance.
    fn time<R>(&mut self, layer: &'static str, call: impl FnOnce() -> R) -> R {
        let before = counters();
        let t = Instant::now();
        let out = {
            let _span = udse_obs::span::enter(layer);
            call()
        };
        let s = t.elapsed().as_secs_f64();
        let after = counters();
        self.samples.entry(layer).or_default().push(s);
        let advance = self.advance.entry(layer).or_default();
        for ((sum, a), b) in advance.iter_mut().zip(after).zip(before) {
            *sum += a - b;
        }
        self.attributed_s += s;
        out
    }

    fn total_s(&self, layer: &str) -> f64 {
        self.samples.get(layer).map_or(0.0, |v| v.iter().sum())
    }

    /// Summed counter advance over the calls of the layers `of` accepts.
    fn advance(&self, of: impl Fn(&str) -> bool) -> [u64; 6] {
        let mut sum = [0; 6];
        for (_, adv) in self.advance.iter().filter(|(layer, _)| of(layer)) {
            sum.iter_mut().zip(adv).for_each(|(s, a)| *s += a);
        }
        sum
    }

    /// Runs `pass` and adds its wall time to the ledger's.
    fn pass<R>(&mut self, pass: impl FnOnce(&mut Ledger) -> R) -> R {
        let t = Instant::now();
        let out = pass(self);
        self.wall_s += t.elapsed().as_secs_f64();
        out
    }

    /// One round of a workload with every layer call timed. Returns the
    /// round, whose ops and failures the caller accounts for.
    pub fn round(&mut self, prepared: &Prepared) -> Round {
        let round = self.pass(|l| prepared.run(l));
        match prepared {
            Prepared::Explore(inp, _) => {
                let space = DesignSpace::exploration();
                self.sweep_designs = strided_count(&space, inp.fixture_config.eval_stride)
                    * Benchmark::ALL.len() as u64;
                self.query_cache_bytes = udse_obs::metrics::gauge("query.cache.bytes").get();
            }
            Prepared::Probe(inp) => self.trace_len = inp.trace_len,
        }
        round
    }

    /// The training phase as `TrainedSuite::train` runs it: one oracle
    /// batch over the whole training plan, then per benchmark the fit,
    /// then the compile. Between batch and fit, the same jobs are
    /// replayed one layer at a time in the batch's own order (resolve
    /// every distinct sub-config, then stream every job), each result
    /// checked bit for bit against the batch. Returns the hash of the
    /// batch's metrics and the fitted coefficients.
    pub fn train(&mut self, inp: &TrainInputs) -> u64 {
        self.trace_len = inp.trace_len;
        self.pass(|l| {
            let oracle = ready_oracle(l, inp.trace_len, inp.trace_seed);
            let plan = TrainedSuite::training_plan(&inp.config);
            let observed = l.time("core.oracle_batch", || oracle.evaluate_plan(&plan));

            let warmup = oracle.warmup_insts();
            let mut cache: HashMap<(Benchmark, CacheSubConfig), CacheStreams> = HashMap::new();
            let mut branch: HashMap<(Benchmark, BhtSubConfig), BranchStream> = HashMap::new();
            for &(b, p) in plan.jobs() {
                let pre = oracle.preflight(b);
                let cfg = p.to_machine_config();
                let sub = CacheSubConfig::of(&cfg);
                if let Entry::Vacant(slot) = cache.entry((b, sub)) {
                    let s = l.time("sim.resolve_cache", || CacheStreams::resolve(&pre, &sub));
                    l.stream_store_bytes += s.bytes();
                    slot.insert(s);
                }
                let sub = BhtSubConfig::of(&cfg);
                if let Entry::Vacant(slot) = branch.entry((b, sub)) {
                    let s = l.time("sim.resolve_branch", || BranchStream::resolve(&pre, &sub));
                    l.stream_store_bytes += s.bytes();
                    slot.insert(s);
                }
            }
            let mut scratch = StreamScratch::default();
            for (&(b, p), seen) in plan.jobs().iter().zip(&observed) {
                let pre = oracle.preflight(b);
                let cfg = p.to_machine_config();
                let cache = &cache[&(b, CacheSubConfig::of(&cfg))];
                let bht = &branch[&(b, BhtSubConfig::of(&cfg))];
                let r = l.time("sim.stream", || {
                    Simulator::new(cfg).run_streamed_with(&pre, cache, bht, warmup, &mut scratch)
                });
                let same = r.bips.to_bits() == seen.bips.to_bits()
                    && r.watts.to_bits() == seen.watts.to_bits();
                l.failed += u64::from(!same || !check::valid(seen));
            }
            l.ops += plan.len() as u64;

            let mut hash = Hash::default();
            observed.iter().for_each(|m| hash.metrics(m));
            let samples: Vec<_> =
                plan.jobs()[..inp.config.train_samples].iter().map(|j| j.1).collect();
            let space = DesignSpace::exploration();
            for (&b, obs) in Benchmark::ALL.iter().zip(observed.chunks(samples.len())) {
                let fit = l
                    .time("regress.fit", || PaperModels::train_from_observations(b, &samples, obs));
                match fit {
                    Ok(models) => {
                        hash.models(&models);
                        l.time("regress.compile", || models.compile(&space));
                    }
                    Err(_) => l.failed += samples.len() as u64,
                }
            }
            hash.value()
        })
    }

    /// Every per-layer metric as `(name, value, unit)`, plus the tracing
    /// overhead measured by the caller.
    pub fn metrics(&self, trace_overhead_frac: f64) -> Vec<Metric> {
        let mut out: Vec<Metric> = Vec::new();
        for layer in RATES {
            let calls = self.samples.get(layer).map_or(0, Vec::len);
            let rate = (calls * self.trace_len) as f64 / self.total_s(layer) / MEGA;
            out.push((format!("{layer}_minsts_per_s"), rate, "Minst/s"));
        }
        for (layer, unit, scale) in TIMED {
            let mut v: Vec<f64> = self
                .samples
                .get(layer)
                .map_or_else(Vec::new, |s| s.iter().map(|x| x * scale).collect());
            v.sort_by(f64::total_cmp);
            let (p50, p90) =
                if v.is_empty() { (0.0, 0.0) } else { (quantile(&v, 0.5), quantile(&v, 0.9)) };
            out.push((format!("{layer}_{unit}.p50"), p50, unit));
            out.push((format!("{layer}_{unit}.p90"), p90, unit));
            out.push((format!("{layer}_{unit}.n"), v.len() as f64, "count"));
        }
        let batch = self.total_s("core.oracle_batch");
        let replay = self.total_s("sim.resolve_cache")
            + self.total_s("sim.resolve_branch")
            + self.total_s("sim.stream");
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        let memo = self.advance(|layer| ORACLE_LAYERS.contains(&layer));
        let query = self.advance(|layer| layer.starts_with("core.query_"));
        let sweep_bytes = self.sweep_designs as usize * std::mem::size_of::<PredictedDesign>();
        out.extend([
            ("sim.stream_store_mb".to_string(), self.stream_store_bytes as f64 / MEGA, "MB"),
            ("core.oracle_overhead_frac".to_string(), (batch - replay) / batch, "fraction"),
            ("core.oracle_memo_hit_ratio".to_string(), ratio(memo[0], memo[1]), "fraction"),
            (
                "core.sweep_mdesigns_per_s".to_string(),
                self.sweep_designs as f64
                    * self.samples.get("core.sweep").map_or(0, Vec::len) as f64
                    / self.total_s("core.sweep")
                    / MEGA,
                "Mdesign/s",
            ),
            ("core.sweep_mb".to_string(), sweep_bytes as f64 / MEGA, "MB"),
            ("core.query_cache_hit_ratio".to_string(), ratio(query[3], query[4]), "fraction"),
            ("core.query_cache_mb".to_string(), self.query_cache_bytes / MEGA, "MB"),
            ("unattributed_frac".to_string(), 1.0 - self.attributed_s / self.wall_s, "fraction"),
            ("trace_overhead_frac".to_string(), trace_overhead_frac, "fraction"),
        ]);
        out
    }
}
