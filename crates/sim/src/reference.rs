//! The staged reference timing model (test builds only).
//!
//! [`run_staged`] walks the trace in program order and replays the
//! cache hierarchy, stride prefetcher and branch predictor live, with
//! every occupancy structure a [`ResourcePool`] min-heap — the
//! textbook form of the dependence-scheduling model. Production code
//! never runs it: `Simulator::run_with_warmup` preflights, resolves the
//! outcome streams and runs the streamed core (`stream.rs`), whose
//! release rings, slot scans and precomputed outcomes are each argued
//! equal to this loop. The tests compare the two bit for bit, so the
//! argument is checked rather than trusted; the golden fixtures in
//! `tests/golden_sim.rs` pin both to the outputs the staged engine
//! produced when it was the production path.

use udse_trace::{OpClass, Trace};

use crate::cache::{AccessOutcome, CacheHierarchy, StridePrefetcher};
use crate::config::MachineConfig;
use crate::power::PowerModel;
use crate::predictor::BhtPredictor;
use crate::resources::ResourcePool;
use crate::result::{ActivityCounts, SimResult, StallBreakdown};
use crate::stream::{WarmupSnapshot, DEP_WINDOW};

/// Simulates `trace` on `cfg` with the staged model, discarding the
/// statistics of the first `warmup_insts` instructions — the contract
/// of `Simulator::run_with_warmup`, without its run counters.
///
/// # Panics
///
/// Panics if `warmup_insts >= trace.len()`.
pub(crate) fn run_staged(cfg: &MachineConfig, trace: &Trace, warmup_insts: usize) -> SimResult {
    assert!(warmup_insts < trace.len(), "warmup must leave at least one measured instruction");
    let t = cfg.timing();

    let mut caches = CacheHierarchy::new(cfg);
    let mut bht = BhtPredictor::with_counter_bits(cfg.bht_entries, cfg.bht_counter_bits);

    // Occupancy pools. Physical registers available for renaming are
    // the pool beyond the architected state.
    let mut rob = ResourcePool::new(cfg.rob_entries as usize);
    let mut gpr = ResourcePool::new((cfg.gpr - 32) as usize);
    let mut fpr = ResourcePool::new((cfg.fpr - 32) as usize);
    let mut spr = ResourcePool::new((cfg.spr - 8) as usize);
    let mut resv_fx = ResourcePool::new(cfg.resv_fx as usize);
    let mut resv_fp = ResourcePool::new(cfg.resv_fp as usize);
    let mut resv_br = ResourcePool::new(cfg.resv_br as usize);
    let mut lsq = ResourcePool::new(cfg.lsq_entries as usize);
    let mut sq = ResourcePool::new(cfg.store_queue_entries as usize);
    // Per-class pipelined issue slots.
    let units = cfg.units_per_class as usize;
    let mut fu_fx = ResourcePool::new(units);
    let mut fu_fp = ResourcePool::new(units);
    let mut fu_ls = ResourcePool::new(units);
    let mut fu_br = ResourcePool::new(units);

    // Completion times of the last DEP_WINDOW instructions.
    let mut complete_ring = [0u64; DEP_WINDOW];

    // Fetch state.
    let mut fetch_cycle: u64 = 0;
    let mut fetched_this_cycle: u32 = 0;
    let mut redirect_ready: u64 = 0;
    let mut prev_code_block: Option<u32> = None;

    // Dispatch / issue / commit in-order state.
    let mut last_dispatch: u64 = 0;
    let mut dispatched_this_cycle: u32 = 0;
    let mut last_issue: u64 = 0;
    let mut last_commit: u64 = 0;
    let mut committed_this_cycle: u32 = 0;

    let mut acts = ActivityCounts::default();
    let mut stalls = StallBreakdown::default();
    let mut final_commit: u64 = 0;
    let mut prefetcher = StridePrefetcher::new();
    // Counter snapshots at the warmup boundary; subtracted at the end.
    let mut warmup_commit: u64 = 0;
    let mut warmup_snapshot = WarmupSnapshot::default();

    for (i, inst) in trace.instructions().iter().enumerate() {
        if i == warmup_insts && i > 0 {
            warmup_commit = last_commit;
            warmup_snapshot = capture(&acts, &caches, &bht);
        }
        // ---------------- fetch ----------------
        let mut fc = fetch_cycle.max(redirect_ready);
        if fc > fetch_cycle {
            stalls.redirect += fc - fetch_cycle;
            fetched_this_cycle = 0;
        }
        if prev_code_block != Some(inst.code_block) {
            let miss_penalty = match caches.access_code(inst.code_block as u64) {
                AccessOutcome::L1 => 0,
                AccessOutcome::L2 => t.l2_latency,
                AccessOutcome::Memory => t.l2_latency + t.memory_latency,
            };
            if cfg.il1_next_line_prefetch {
                caches.prefetch_code(inst.code_block as u64 + 1);
            }
            if miss_penalty > 0 {
                stalls.icache += miss_penalty;
                fc += miss_penalty;
                fetched_this_cycle = 0;
            }
            prev_code_block = Some(inst.code_block);
        }
        if fetched_this_cycle >= cfg.decode_width {
            fc += 1;
            fetched_this_cycle = 0;
        }
        fetched_this_cycle += 1;
        fetch_cycle = fc;

        // ---------------- dispatch ----------------
        let mut d = (fc + t.front_stages).max(last_dispatch);
        if d == last_dispatch && dispatched_this_cycle >= cfg.dispatch_width() {
            d += 1;
        }
        let before_rob = d;
        d = rob.acquire(d);
        stalls.rob += d - before_rob;
        let reg_pool: Option<&mut ResourcePool> = match inst.op {
            OpClass::FixedPoint | OpClass::Load => Some(&mut gpr),
            OpClass::FloatingPoint => Some(&mut fpr),
            OpClass::Branch => Some(&mut spr),
            OpClass::Store => None,
        };
        if let Some(pool) = reg_pool {
            let before = d;
            d = pool.acquire(d);
            stalls.registers += d - before;
        }
        let (resv_pool, is_mem): (&mut ResourcePool, bool) = match inst.op {
            OpClass::FixedPoint => (&mut resv_fx, false),
            OpClass::FloatingPoint => (&mut resv_fp, false),
            OpClass::Branch => (&mut resv_br, false),
            OpClass::Load | OpClass::Store => (&mut lsq, true),
        };
        let before = d;
        d = resv_pool.acquire(d);
        if is_mem {
            stalls.lsq += d - before;
        } else {
            stalls.reservations += d - before;
        }
        if inst.op == OpClass::Store {
            let before = d;
            d = sq.acquire(d);
            stalls.store_queue += d - before;
        }
        if d > last_dispatch {
            dispatched_this_cycle = 0;
        }
        dispatched_this_cycle += 1;
        last_dispatch = d;

        // ---------------- operand readiness ----------------
        let mut ready = d + 1;
        for dist in [inst.src1_dist, inst.src2_dist] {
            if dist > 0 && (dist as usize) <= i.min(DEP_WINDOW) {
                let producer = complete_ring[(i - dist as usize) % DEP_WINDOW];
                ready = ready.max(producer);
            }
        }

        // ---------------- issue ----------------
        let fu: &mut ResourcePool = match inst.op {
            OpClass::FixedPoint => &mut fu_fx,
            OpClass::FloatingPoint => &mut fu_fp,
            OpClass::Load | OpClass::Store => &mut fu_ls,
            OpClass::Branch => &mut fu_br,
        };
        let mut iss = fu.acquire(ready);
        if cfg.in_order {
            iss = iss.max(last_issue);
        }
        fu.release_at(iss + 1);
        last_issue = iss;

        // ---------------- execute / complete ----------------
        let complete = match inst.op {
            OpClass::FixedPoint => iss + t.fx_latency,
            OpClass::FloatingPoint => iss + t.fp_latency,
            OpClass::Branch => iss + t.fx_latency,
            OpClass::Load => {
                acts.loads += 1;
                if cfg.dl1_stride_prefetch {
                    prefetcher.observe(&mut caches, inst.data_block as i64);
                }
                let lat = match caches.access_data(inst.data_block as u64) {
                    AccessOutcome::L1 => t.dl1_latency,
                    AccessOutcome::L2 => t.dl1_latency + t.l2_latency,
                    AccessOutcome::Memory => t.dl1_latency + t.l2_latency + t.memory_latency,
                };
                iss + 1 + lat
            }
            OpClass::Store => {
                acts.stores += 1;
                if cfg.dl1_stride_prefetch {
                    prefetcher.observe(&mut caches, inst.data_block as i64);
                }
                // Stores complete once the address is generated; the
                // data drains from the store queue after commit.
                caches.access_data(inst.data_block as u64);
                iss + 1
            }
        };

        // ---------------- commit (in order) ----------------
        let mut cm = (complete + 1).max(last_commit);
        if cm == last_commit && committed_this_cycle >= cfg.commit_width() {
            cm += 1;
        }
        if cm > last_commit {
            committed_this_cycle = 0;
        }
        committed_this_cycle += 1;
        last_commit = cm;
        final_commit = cm;

        // ---------------- releases ----------------
        rob.release_at(cm);
        match inst.op {
            OpClass::FixedPoint | OpClass::Load => gpr.release_at(cm),
            OpClass::FloatingPoint => fpr.release_at(cm),
            OpClass::Branch => spr.release_at(cm),
            OpClass::Store => {}
        }
        match inst.op {
            OpClass::FixedPoint => resv_fx.release_at(iss + 1),
            OpClass::FloatingPoint => resv_fp.release_at(iss + 1),
            OpClass::Branch => resv_br.release_at(iss + 1),
            OpClass::Load | OpClass::Store => lsq.release_at(cm),
        }
        if inst.op == OpClass::Store {
            // Store data writes back shortly after commit.
            sq.release_at(cm + 2);
        }

        // ---------------- control flow ----------------
        if inst.op == OpClass::Branch {
            acts.branches += 1;
            let correct = bht.predict_and_update(inst.branch_site as u64, inst.taken);
            if !correct {
                // Redirect: fetch resumes after the branch resolves.
                redirect_ready = redirect_ready.max(complete + 1);
            } else if inst.taken {
                // Correctly predicted taken branch still ends the
                // fetch group (one-cycle fetch bubble).
                fetched_this_cycle = cfg.decode_width;
            }
        }

        match inst.op {
            OpClass::FixedPoint => acts.fx_ops += 1,
            OpClass::FloatingPoint => acts.fp_ops += 1,
            _ => {}
        }

        complete_ring[i % DEP_WINDOW] = complete;
    }

    acts.instructions = (trace.len() - warmup_insts) as u64;
    acts.cycles = final_commit.saturating_sub(warmup_commit).max(1);
    acts.il1_accesses = caches.il1().accesses();
    acts.il1_misses = caches.il1().misses();
    acts.dl1_accesses = caches.dl1().accesses();
    acts.dl1_misses = caches.dl1().misses();
    acts.l2_accesses = caches.l2().accesses();
    acts.l2_misses = caches.l2().misses();
    acts.bht_lookups = bht.lookups();
    acts.mispredicts = bht.mispredicts();
    warmup_snapshot.subtract_from(&mut acts);

    let power = PowerModel::new(cfg).evaluate(&acts);
    SimResult::new(cfg, &acts, power, stalls)
}

/// Counter values at the warmup boundary, read off the live state
/// machines.
fn capture(acts: &ActivityCounts, caches: &CacheHierarchy, bht: &BhtPredictor) -> WarmupSnapshot {
    WarmupSnapshot {
        fx_ops: acts.fx_ops,
        fp_ops: acts.fp_ops,
        loads: acts.loads,
        stores: acts.stores,
        branches: acts.branches,
        il1_accesses: caches.il1().accesses(),
        il1_misses: caches.il1().misses(),
        dl1_accesses: caches.dl1().accesses(),
        dl1_misses: caches.dl1().misses(),
        l2_accesses: caches.l2().accesses(),
        l2_misses: caches.l2().misses(),
        bht_lookups: bht.lookups(),
        mispredicts: bht.mispredicts(),
    }
}

#[cfg(test)]
mod tests {
    //! The production path against the reference, bit for bit. The
    //! properties draw random cache geometries, prefetch flags, BHT
    //! configurations and core knobs — far beyond the Table-1
    //! cross-product — so the identity holds by construction, not by
    //! enumeration.

    use super::*;
    use crate::engine::Simulator;
    use crate::preflight::{
        BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, TracePreflight,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use udse_trace::Benchmark;

    fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
        options[rng.gen_range(0..options.len())]
    }

    /// A random machine configuration mixing Table-1 values with
    /// off-grid ones. Every knob that feeds the cache or branch sub-keys
    /// varies, as do core knobs (width, depth, in-order) that must *not*
    /// perturb the resolved streams.
    fn arbitrary_config(rng: &mut StdRng) -> MachineConfig {
        let mut cfg = MachineConfig::power4_baseline();
        cfg.il1_kb = pick(rng, &[16, 32, 64, 128, 256]);
        cfg.dl1_kb = pick(rng, &[8, 16, 32, 64, 128]);
        cfg.l2_kb = pick(rng, &[256, 512, 1024, 2048, 4096]);
        cfg.il1_assoc = pick(rng, &[1, 2, 4]);
        cfg.dl1_assoc = pick(rng, &[1, 2, 4, 8]);
        cfg.l2_assoc = pick(rng, &[2, 4, 8]);
        cfg.il1_next_line_prefetch = rng.gen();
        cfg.dl1_stride_prefetch = rng.gen();
        cfg.bht_entries = pick(rng, &[1024, 4096, 16384, 65536]);
        cfg.bht_counter_bits = pick(rng, &[1, 2]);
        cfg.fo4_per_stage = pick(rng, &[9, 12, 19, 24, 30]);
        cfg.decode_width = pick(rng, &[2, 4, 8]);
        cfg.in_order = rng.gen_bool(0.25);
        cfg.rob_entries = pick(rng, &[64, 128, 256]);
        cfg.gpr = pick(rng, &[60, 80, 130]);
        cfg.fpr = pick(rng, &[56, 72, 126]);
        cfg.spr = pick(rng, &[42, 60, 118]);
        cfg.lsq_entries = pick(rng, &[15, 30, 45]);
        cfg.store_queue_entries = pick(rng, &[14, 28, 42]);
        cfg.resv_fx = pick(rng, &[10, 12, 14]);
        cfg.resv_fp = pick(rng, &[5, 10, 20]);
        cfg.resv_br = pick(rng, &[6, 8, 10]);
        cfg.units_per_class = pick(rng, &[1, 2, 4]);
        cfg
    }

    #[test]
    fn pools_wider_than_a_byte_match_the_reference() {
        // The slot pools pack their index beside the release cycle; a
        // pool of more than 256 entries must still behave as the heap.
        let trace = Trace::generate(Benchmark::Applu, 3_000, 5);
        let mut cfg = MachineConfig::power4_baseline();
        cfg.resv_fx = 300;
        cfg.resv_fp = 300;
        cfg.units_per_class = 300;
        let production = Simulator::new(cfg).run_with_warmup(&trace, 500);
        assert_eq!(production, run_staged(&cfg, &trace, 500));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `run_with_warmup` (preflight, resolve, stream) equals the
        /// staged model, bitwise, for random designs, traces, and warmup
        /// lengths.
        #[test]
        fn run_with_warmup_is_bitwise_equal_to_reference(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = arbitrary_config(&mut rng);
            let bench = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
            let len = rng.gen_range(500usize..3_000);
            let trace = Trace::generate(bench, len, rng.gen());
            let warmup = rng.gen_range(0..len);

            let production = Simulator::new(cfg).run_with_warmup(&trace, warmup);
            prop_assert_eq!(production, run_staged(&cfg, &trace, warmup));
        }

        /// Memoization safety: streams resolved once serve every design
        /// sharing the sub-key. Two configs that differ only in core
        /// knobs (width, depth, queue sizes) must produce identical
        /// sub-keys, and the *shared* streams must reproduce both
        /// designs' reference results.
        #[test]
        fn shared_streams_serve_all_designs_with_the_same_sub_key(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = arbitrary_config(&mut rng);
            let mut other = arbitrary_config(&mut rng);
            // Align the sub-key fields; everything else stays random.
            other.il1_kb = base.il1_kb;
            other.il1_assoc = base.il1_assoc;
            other.dl1_kb = base.dl1_kb;
            other.dl1_assoc = base.dl1_assoc;
            other.l2_kb = base.l2_kb;
            other.l2_assoc = base.l2_assoc;
            other.il1_next_line_prefetch = base.il1_next_line_prefetch;
            other.dl1_stride_prefetch = base.dl1_stride_prefetch;
            other.bht_entries = base.bht_entries;
            other.bht_counter_bits = base.bht_counter_bits;
            prop_assert_eq!(CacheSubConfig::of(&base), CacheSubConfig::of(&other));
            prop_assert_eq!(BhtSubConfig::of(&base), BhtSubConfig::of(&other));

            let bench = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
            let len = rng.gen_range(500usize..2_500);
            let trace = Trace::generate(bench, len, rng.gen());
            let warmup = len / 4;

            let pre = TracePreflight::of(&trace);
            let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&base));
            let bht = BranchStream::resolve(&pre, &BhtSubConfig::of(&base));
            for cfg in [base, other] {
                let streamed = Simulator::new(cfg).run_streamed(&pre, &cache, &bht, warmup);
                prop_assert_eq!(streamed, run_staged(&cfg, &trace, warmup));
            }
        }
    }
}
