//! Seeded input generation. Every input a workload feeds the program is
//! a pure function of the workload seed and the [`Scale`], so the same
//! seed always drives the same work and produces the same outputs.

use std::collections::BTreeSet;

use udse_core::baseline::baseline_at_depth;
use udse_core::query::{Axis, Constraint, Objective, Query};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::StudyConfig;
use udse_sim::MachineConfig;
use udse_trace::Benchmark;

/// The seed the recorded output hashes belong to.
pub const DEFAULT_SEED: u64 = 2007;
#[cfg(test)]
/// A seed held out from tuning: the benchmark's sizes and mixes were
/// chosen on [`DEFAULT_SEED`] only, and this one checks they carry over.
pub const HELD_OUT_SEED: u64 = 6143;

/// SplitMix64: tiny, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn benchmark(&mut self) -> Benchmark {
        Benchmark::ALL[self.below(Benchmark::ALL.len() as u64) as usize]
    }

    fn point(&mut self, space: &DesignSpace) -> DesignPoint {
        space.decode(self.below(space.len())).expect("index below the space size")
    }
}

/// Sizes of one round of each workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Instructions per trace for `probe` and the ledger's training pass
    /// (the paper's 200k).
    pub trace_len: usize,
    /// Paper-space designs of the ledger's training pass (x 9 benchmarks).
    pub train_designs: usize,
    /// Training samples of the untimed `explore` fixture suite.
    pub fixture_samples: usize,
    /// Trace length of the `explore` fixture suite.
    pub fixture_trace_len: usize,
    /// Held-out validation points of the `explore` stream (the paper run
    /// asks 100, each for all nine benchmarks).
    pub validation_points: usize,
    /// Shared designs of the `probe` residual traffic, each simulated for
    /// the three residual benchmarks (the paper run uses 400).
    pub residual_samples: usize,
}

impl Scale {
    /// The benchmark of record.
    pub const RECORD: Scale = Scale {
        trace_len: 200_000,
        train_designs: 30,
        fixture_samples: 200,
        fixture_trace_len: 20_000,
        validation_points: 100,
        residual_samples: 24,
    };

    #[cfg(test)]
    /// A seconds-long scale for the benchmark's own tests. 30 designs is
    /// the floor: the paper spec has 23 coefficients.
    pub const TINY: Scale = Scale {
        trace_len: 2_000,
        train_designs: 30,
        fixture_samples: 60,
        fixture_trace_len: 2_000,
        validation_points: 4,
        residual_samples: 4,
    };
}

/// The training phase, timed layer by layer in the ledger only.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainInputs {
    pub trace_len: usize,
    pub trace_seed: u64,
    /// `train_samples` and `seed` pick the training plan, as
    /// `TrainedSuite::training_plan` builds it.
    pub config: StudyConfig,
}

/// `explore`: the query traffic of one paper-scale run, asked of one
/// trained suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreInputs {
    pub fixture_trace_len: usize,
    pub fixture_trace_seed: u64,
    /// The fixture's training sample; `eval_stride` 1 makes every scan
    /// exhaustive over the 262,500-point exploration space.
    pub fixture_config: StudyConfig,
    pub queries: Vec<Query>,
}

/// One `probe` simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeOp {
    /// An in-space design, simulated through the memoizing oracle.
    Evaluate(Benchmark, DesignPoint),
    /// A machine simulated by the direct engine, as the §8 artifacts do.
    Direct(Benchmark, MachineConfig),
}

/// `probe`: the §8 extension traffic, one simulation at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeInputs {
    pub trace_len: usize,
    pub trace_seed: u64,
    /// The training designs simulated in set-up, ahead of the in-space
    /// ops, so their stream lookups find a warm store as in the run of
    /// record.
    pub warm: Vec<(Benchmark, DesignPoint)>,
    pub ops: Vec<ProbeOp>,
}

/// Per-workload stream separation, so the workloads never share random
/// draws even under one seed.
fn rng_for(seed: u64, workload: u64) -> Rng {
    let mut rng = Rng::new(seed ^ workload.wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_u64();
    rng
}

pub fn train(seed: u64, scale: &Scale) -> TrainInputs {
    let mut rng = rng_for(seed, 1);
    TrainInputs {
        trace_len: scale.trace_len,
        trace_seed: rng.next_u64(),
        config: StudyConfig {
            train_samples: scale.train_designs,
            seed: rng.next_u64(),
            ..StudyConfig::paper()
        },
    }
}

/// The benchmarks whose Pareto slices Figure 3 asks for, ahead of
/// Figure 4's nine.
const FIG3_BENCHMARKS: [Benchmark; 4] =
    [Benchmark::Ammp, Benchmark::Mcf, Benchmark::Mesa, Benchmark::Jbb];

/// Studies asking the unconstrained optimum of the whole suite: Table 4,
/// Figures 8 and 9, and the heuristic-search extension.
const SUITE_OPTIMUM_CALLERS: usize = 4;

/// Times Figures 6 and 7 each ask a depth-validation prediction: four
/// times for an original point, twice for a bound point.
const ORIGINAL_ASKS: usize = 4;
const BOUND_ASKS: usize = 2;

/// The query stream of one paper-scale `repro all`, in its order, with
/// the study-derived designs drawn from the seed. Counted through the
/// engine's `query.*` counters, that run executes 1,698 queries: 1,656
/// point predictions (Figure 1's 9 x 100 validation points; Figures 6
/// and 7 ask 9 x 14 depth-validation points six times each), 13 Pareto
/// slices (Figure 3's four, Figure 4's nine), 9 per-benchmark optima
/// (Table 2; each runs one nested suite optimum, the nine nested
/// executions are not issued here), 7 depth-constrained suite-relative
/// optima (Figure 5) and 4 unconstrained suite optima. 646 of them are
/// result-cache hits. Three ad hoc queries of kinds no study asks
/// (`repro query`: a top-K ranking, a what-if delta and an axis sweep)
/// close the stream.
pub fn explore(seed: u64, scale: &Scale) -> ExploreInputs {
    let mut rng = rng_for(seed, 2);
    let fixture_trace_seed = rng.next_u64();
    let fixture_config = StudyConfig {
        train_samples: scale.fixture_samples,
        eval_stride: 1,
        seed: rng.next_u64(),
        ..StudyConfig::paper()
    };
    let stride = fixture_config.eval_stride;
    let space = DesignSpace::exploration();
    let mut queries: Vec<Query> = Vec::new();

    let validation = DesignSpace::paper().sample_uar(scale.validation_points, rng.next_u64());
    for b in Benchmark::ALL {
        queries.extend(validation.iter().map(|&p| Query::point(b, p)));
    }
    for b in FIG3_BENCHMARKS.into_iter().chain(Benchmark::ALL) {
        queries.push(Query::pareto(b, vec![], stride, fixture_config.delay_bins));
    }
    for b in Benchmark::ALL {
        queries.push(Query::optimum(Some(b), vec![], stride));
    }
    let refs: Vec<f64> = Benchmark::ALL.iter().map(|_| 0.5 + 1.5 * rng.unit()).collect();
    for &depth in space.depths() {
        let at_depth = vec![Constraint::exactly(Axis::DepthFo4, f64::from(depth))];
        queries.push(Query::suite_optimum(refs.clone(), at_depth, stride));
    }
    // Original points are the baseline at each depth; the bound points
    // stand in for the per-depth optima, one seeded design per depth.
    let originals: Vec<DesignPoint> =
        space.depths().iter().map(|&d| baseline_at_depth(d)).collect();
    let bounds: Vec<DesignPoint> = (0..space.depths().len())
        .map(|depth_idx| {
            let mut idx = space.indices(&rng.point(&space));
            idx[0] = depth_idx as u8;
            space.point(idx).expect("indices within the space")
        })
        .collect();
    for _figure in 0..2 {
        for (points, asks) in [(&originals, ORIGINAL_ASKS), (&bounds, BOUND_ASKS)] {
            for _ in 0..asks {
                for b in Benchmark::ALL {
                    queries.extend(points.iter().map(|&p| Query::point(b, p)));
                }
            }
        }
    }
    for _ in 0..SUITE_OPTIMUM_CALLERS {
        queries.push(Query::optimum(None, vec![], stride));
    }

    let k = 1 + rng.below(20) as usize;
    queries.push(Query::top_k(rng.benchmark(), vec![cache_size(&mut rng, &space)], stride, k));
    queries.push(Query::what_if(rng.benchmark(), rng.point(&space), rng.point(&space)));
    let axis = Axis::ALL[rng.below(Axis::ALL.len() as u64) as usize];
    queries.push(Query::axis_sweep(rng.benchmark(), rng.point(&space), axis));

    ExploreInputs {
        fixture_trace_len: scale.fixture_trace_len,
        fixture_trace_seed,
        fixture_config,
        queries,
    }
}

/// The ledger layer that times a query, one per query kind.
pub fn query_layer(q: &Query) -> &'static str {
    match q {
        Query::Point { .. } => "core.query_point",
        Query::ConstrainedOptimum { objective: Objective::SuiteRelative(_), .. } => {
            "core.query_suite_optimum"
        }
        Query::ConstrainedOptimum { .. } => "core.query_optimum",
        Query::ParetoSlice { .. } => "core.query_pareto",
        Query::TopK { .. } => "core.query_top_k",
        Query::WhatIf { .. } => "core.query_what_if",
        Query::AxisSweep { .. } => "core.query_axis_sweep",
    }
}

/// The cache-size axes, five levels each.
const CACHE_AXES: [Axis; 3] = [Axis::Il1Kb, Axis::Dl1Kb, Axis::L2Kb];

/// One cache-size axis fixed at one of its levels. Every seed's
/// constraint admits the same fifth of the space, so the cost of a scan
/// that sorts what it admits (top-K) does not vary by seed, and at
/// stride 1 some design always satisfies it.
fn cache_size(rng: &mut Rng, space: &DesignSpace) -> Constraint {
    let axis = CACHE_AXES[rng.below(CACHE_AXES.len() as u64) as usize];
    let level = rng.below(u64::from(space.dimensions()[axis.slot()])) as u8;
    Constraint::exactly(axis, axis.level_value(space, level))
}

/// The benchmarks of the `residuals` artifact.
pub const RESIDUAL_BENCHMARKS: [Benchmark; 3] = [Benchmark::Ammp, Benchmark::Mcf, Benchmark::Gzip];

/// §8 simulations of one paper-scale run. `residuals` evaluates 3 x 400
/// in-space designs through the memoizing oracle. The direct engine runs
/// 448 machines: `assoc` fits its extended model on 400 twolf designs
/// with D-L1 associativity cycling 1/2/4/8; the baseline machine runs 39
/// times (9 each in `stalls`, `workloads` and `inorder`, 12 in `assoc`'s
/// sweep), and in-order on the baseline 9 times (`inorder`).
const RESIDUAL_EVALUATIONS: usize = 1200;
const DIRECT_RUNS: usize = 448;
const BASELINE_RUNS: usize = 39;
const IN_ORDER_RUNS: usize = 9;
const ASSOC_CYCLE: [u32; 4] = [1, 2, 4, 8];

/// `share` of `n` direct runs, rounded to the nearest whole run.
fn share_of(n: usize, share: usize) -> usize {
    (n * share + DIRECT_RUNS / 2) / DIRECT_RUNS
}

/// The run of record's §8 traffic scaled to `residual_samples`: the
/// residual evaluations, and direct runs in the run of record's ratio to
/// them (about 3 in 11 of all simulations) and in its mix.
pub fn probe(seed: u64, scale: &Scale) -> ProbeInputs {
    let mut rng = rng_for(seed, 3);
    let trace_seed = rng.next_u64();
    let space = DesignSpace::paper();
    let samples = space.sample_uar(scale.residual_samples, rng.next_u64());

    // In the run of record, `residuals` follows training on 1,000
    // designs, which cover each benchmark's 125 cache sub-configs. Here
    // one training design per cache sub-config of the samples (its core
    // axes drawn afresh) warms the same streams.
    let caches: BTreeSet<(u8, u8, u8)> =
        samples.iter().map(|p| (p.il1_idx, p.dl1_idx, p.l2_idx)).collect();
    let warm_designs: Vec<DesignPoint> = caches
        .into_iter()
        .map(|(il1, dl1, l2)| {
            let mut idx = space.indices(&rng.point(&space));
            idx[4..].copy_from_slice(&[il1, dl1, l2]);
            space.point(idx).expect("indices within the space")
        })
        .collect();
    let warm = RESIDUAL_BENCHMARKS
        .iter()
        .flat_map(|&b| warm_designs.iter().map(move |&p| (b, p)))
        .collect();

    let evaluations = RESIDUAL_BENCHMARKS.len() * samples.len();
    let direct = (evaluations * DIRECT_RUNS + RESIDUAL_EVALUATIONS / 2) / RESIDUAL_EVALUATIONS;
    let in_order = share_of(direct, IN_ORDER_RUNS).max(1);
    let baseline = share_of(direct, BASELINE_RUNS);
    let assoc = direct - in_order - baseline;

    let base = MachineConfig::power4_baseline();
    let mut ops: Vec<ProbeOp> = Vec::with_capacity(direct + evaluations);
    ops.extend((0..baseline).map(|_| ProbeOp::Direct(rng.benchmark(), base)));
    ops.extend(
        (0..in_order)
            .map(|_| ProbeOp::Direct(rng.benchmark(), MachineConfig { in_order: true, ..base })),
    );
    let assoc_designs = space.sample_uar(assoc, rng.next_u64());
    ops.extend(assoc_designs.iter().enumerate().map(|(i, p)| {
        let cfg = MachineConfig {
            dl1_assoc: ASSOC_CYCLE[i % ASSOC_CYCLE.len()],
            ..p.to_machine_config()
        };
        ProbeOp::Direct(Benchmark::Twolf, cfg)
    }));
    for b in RESIDUAL_BENCHMARKS {
        ops.extend(samples.iter().map(|&p| ProbeOp::Evaluate(b, p)));
    }
    ProbeInputs { trace_len: scale.trace_len, trace_seed, warm, ops }
}
