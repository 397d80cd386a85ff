//! Evaluation plans: the unit of ground-truth work.
//!
//! Every simulation batch the studies build — training samples,
//! validation designs, depth/heterogeneity re-simulations, frontier
//! checks — is a list of independent `(benchmark, design point)` jobs.
//! [`EvalPlan`] names that list; [`crate::oracle::Oracle::evaluate_plan`]
//! evaluates it through the thread pool and returns metrics in job order.
//!
//! # Examples
//!
//! ```
//! use udse_core::plan::EvalPlan;
//! use udse_core::space::DesignSpace;
//! use udse_trace::Benchmark;
//!
//! let points = DesignSpace::paper().sample_uar(4, 7);
//! let plan = EvalPlan::cross_suite(&points);
//! assert_eq!(plan.len(), 9 * 4);
//! assert_eq!(plan.jobs()[4], (Benchmark::ALL[1], points[0]));
//! ```

use udse_trace::Benchmark;

use crate::space::DesignPoint;

/// An ordered batch of independent `(benchmark, design point)`
/// evaluation jobs. A job's ID is its index in the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    jobs: Vec<(Benchmark, DesignPoint)>,
}

impl EvalPlan {
    /// Wraps an existing job list.
    pub fn from_jobs(jobs: Vec<(Benchmark, DesignPoint)>) -> Self {
        EvalPlan { jobs }
    }

    /// The benchmarks-major cross product `Benchmark::ALL × points`, the
    /// shape the training and validation batches use: job
    /// `bi * points.len() + pi` is `(ALL[bi], points[pi])`.
    pub fn cross_suite(points: &[DesignPoint]) -> Self {
        let jobs = Benchmark::ALL.iter().flat_map(|&b| points.iter().map(move |p| (b, *p)));
        EvalPlan { jobs: jobs.collect() }
    }

    /// All jobs in ID order.
    pub fn jobs(&self) -> &[(Benchmark, DesignPoint)] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}
