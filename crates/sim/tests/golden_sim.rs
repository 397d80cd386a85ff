//! Golden `SimResult` fixtures.
//!
//! Every case below simulates a short generated trace on one machine
//! variant and hashes every field of the resulting `SimResult` bit for
//! bit (FNV-1a over the IEEE-754 / integer bits). The expected hashes
//! were captured from the staged dependence-scheduling engine that
//! `Simulator::run_with_warmup` ran before it became a wrapper over the
//! streamed engine, so they pin the timing model's outputs
//! independently of whichever implementation is current: any change to
//! a cycle, counter, rate or power term in any case fails here.
//!
//! The table covers three benchmarks of different character (memory-,
//! branch- and FP-bound), in-order issue, both prefetchers, a 2-bit
//! BHT, D-L1 associativity 1/2/4/8, decode widths 2/4/8 and one machine
//! with everything switched on, each at warmup 0, a quarter of the
//! trace and `len - 1` (a single measured instruction).

use udse_sim::{MachineConfig, PowerBreakdown, SimResult, Simulator, StallBreakdown};
use udse_trace::{Benchmark, Trace};

const TRACE_LEN: usize = 3_000;
const TRACE_SEED: u64 = 2007;
const BENCHMARKS: [Benchmark; 3] = [Benchmark::Mcf, Benchmark::Gcc, Benchmark::Applu];
const WARMUPS: [usize; 3] = [0, TRACE_LEN / 4, TRACE_LEN - 1];

/// The machine variants, each a named edit of the POWER4 baseline.
fn variants() -> Vec<(&'static str, MachineConfig)> {
    let base = MachineConfig::power4_baseline();
    let with = |edit: fn(&mut MachineConfig)| {
        let mut cfg = base;
        edit(&mut cfg);
        cfg
    };
    vec![
        ("baseline", base),
        ("in_order", with(|c| c.in_order = true)),
        ("il1_prefetch", with(|c| c.il1_next_line_prefetch = true)),
        ("dl1_prefetch", with(|c| c.dl1_stride_prefetch = true)),
        ("bht_2bit", with(|c| c.bht_counter_bits = 2)),
        ("dl1_assoc1", with(|c| c.dl1_assoc = 1)),
        ("dl1_assoc2", with(|c| c.dl1_assoc = 2)),
        ("dl1_assoc4", with(|c| c.dl1_assoc = 4)),
        ("dl1_assoc8", with(|c| c.dl1_assoc = 8)),
        ("width2", with(|c| c.decode_width = 2)),
        ("width4", with(|c| c.decode_width = 4)),
        ("width8", with(|c| c.decode_width = 8)),
        (
            "everything",
            with(|c| {
                c.in_order = true;
                c.il1_next_line_prefetch = true;
                c.dl1_stride_prefetch = true;
                c.bht_counter_bits = 2;
                c.dl1_assoc = 8;
                c.decode_width = 8;
            }),
        ),
    ]
}

/// FNV-1a over the bits of every `SimResult` field. The exhaustive
/// destructuring makes a new field a compile error here rather than a
/// silently unhashed one.
fn hash(r: &SimResult) -> u64 {
    let SimResult {
        bips,
        watts,
        ipc,
        frequency_ghz,
        cycles,
        instructions,
        il1_miss_rate,
        dl1_miss_rate,
        l2_miss_rate,
        mispredict_rate,
        power,
        stalls,
    } = *r;
    let PowerBreakdown {
        front_w,
        rename_w,
        regfile_w,
        issue_w,
        fu_w,
        cache_w,
        bpred_w,
        clock_w,
        leakage_w,
    } = power;
    let StallBreakdown { redirect, icache, rob, registers, reservations, lsq, store_queue } =
        stalls;
    let floats = [
        bips,
        watts,
        ipc,
        frequency_ghz,
        il1_miss_rate,
        dl1_miss_rate,
        l2_miss_rate,
        mispredict_rate,
        front_w,
        rename_w,
        regfile_w,
        issue_w,
        fu_w,
        cache_w,
        bpred_w,
        clock_w,
        leakage_w,
    ];
    let ints =
        [cycles, instructions, redirect, icache, rob, registers, reservations, lsq, store_queue];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in floats.iter().map(|f| f.to_bits()).chain(ints) {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(case name, hash)` for every benchmark x variant x warmup, in table
/// order.
fn simulate_all() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for bench in BENCHMARKS {
        let trace = Trace::generate(bench, TRACE_LEN, TRACE_SEED);
        for (name, cfg) in variants() {
            let sim = Simulator::new(cfg);
            for warmup in WARMUPS {
                let case = format!("{}/{name}/w{warmup}", bench.name());
                out.push((case, hash(&sim.run_with_warmup(&trace, warmup))));
            }
        }
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("mcf/baseline/w0", 0xe570cc84c6113de8),
    ("mcf/baseline/w750", 0xf2efd85b676db6b9),
    ("mcf/baseline/w2999", 0x398ed85ed07818c8),
    ("mcf/in_order/w0", 0xaeda02a84b44f278),
    ("mcf/in_order/w750", 0x14e7982857b01ebc),
    ("mcf/in_order/w2999", 0xb9f1d7e285031551),
    ("mcf/il1_prefetch/w0", 0x64f2d91f46d09ffb),
    ("mcf/il1_prefetch/w750", 0xba4cb037d45be5a6),
    ("mcf/il1_prefetch/w2999", 0xb686094ab39a5ff7),
    ("mcf/dl1_prefetch/w0", 0x4fd064075a3ce082),
    ("mcf/dl1_prefetch/w750", 0x9b81c8c9c0203d17),
    ("mcf/dl1_prefetch/w2999", 0x21da35a42827b586),
    ("mcf/bht_2bit/w0", 0x5f880a07651b9fb7),
    ("mcf/bht_2bit/w750", 0x0755ebbc741d62c2),
    ("mcf/bht_2bit/w2999", 0x4f3a696827c1c8a7),
    ("mcf/dl1_assoc1/w0", 0x27e064029af50e6d),
    ("mcf/dl1_assoc1/w750", 0xc1c6dc1f2211ecf1),
    ("mcf/dl1_assoc1/w2999", 0x2ef1e23b8fe80d05),
    ("mcf/dl1_assoc2/w0", 0xe570cc84c6113de8),
    ("mcf/dl1_assoc2/w750", 0xf2efd85b676db6b9),
    ("mcf/dl1_assoc2/w2999", 0x398ed85ed07818c8),
    ("mcf/dl1_assoc4/w0", 0xb3bfbb480b8283bc),
    ("mcf/dl1_assoc4/w750", 0xef7e81aa7ae861e3),
    ("mcf/dl1_assoc4/w2999", 0x9ac1a6fa7568e1f8),
    ("mcf/dl1_assoc8/w0", 0xb412525d9d8c1caa),
    ("mcf/dl1_assoc8/w750", 0x22a2e675c314d695),
    ("mcf/dl1_assoc8/w2999", 0xf5455d14ff363fde),
    ("mcf/width2/w0", 0x873106b4b0cf3841),
    ("mcf/width2/w750", 0xe37146f1af4aeb71),
    ("mcf/width2/w2999", 0x194a9cba22062698),
    ("mcf/width4/w0", 0xe570cc84c6113de8),
    ("mcf/width4/w750", 0xf2efd85b676db6b9),
    ("mcf/width4/w2999", 0x398ed85ed07818c8),
    ("mcf/width8/w0", 0xec1d490c5d820cb9),
    ("mcf/width8/w750", 0x6bc3bfbf6143f61f),
    ("mcf/width8/w2999", 0x554a0e1f84d2f6a7),
    ("mcf/everything/w0", 0xd58b5c874f73b1a7),
    ("mcf/everything/w750", 0xda49f89a5d63d7a6),
    ("mcf/everything/w2999", 0x51e671aaaad33998),
    ("gcc/baseline/w0", 0x85e9408439e61ce0),
    ("gcc/baseline/w750", 0xe45eed215c16c411),
    ("gcc/baseline/w2999", 0x0f4a4b24ac27da22),
    ("gcc/in_order/w0", 0x69b5ba3f524b2887),
    ("gcc/in_order/w750", 0xefb1f5d9bebbbf97),
    ("gcc/in_order/w2999", 0x97f8ad17beab4463),
    ("gcc/il1_prefetch/w0", 0xc91c86c9f8ab0123),
    ("gcc/il1_prefetch/w750", 0x85d346fd6c76976e),
    ("gcc/il1_prefetch/w2999", 0x2159ecbb83c0a320),
    ("gcc/dl1_prefetch/w0", 0x5ef5d1224a77808e),
    ("gcc/dl1_prefetch/w750", 0xec9c10348f7b5d57),
    ("gcc/dl1_prefetch/w2999", 0xadc20c4e62b0163d),
    ("gcc/bht_2bit/w0", 0x41015416cc4ade85),
    ("gcc/bht_2bit/w750", 0xdb84a5b7f9083623),
    ("gcc/bht_2bit/w2999", 0x5fee46f10d2174de),
    ("gcc/dl1_assoc1/w0", 0xc9f6558439b0b727),
    ("gcc/dl1_assoc1/w750", 0x825008b0f119dd0d),
    ("gcc/dl1_assoc1/w2999", 0xa1be2cea4e835e6a),
    ("gcc/dl1_assoc2/w0", 0x85e9408439e61ce0),
    ("gcc/dl1_assoc2/w750", 0xe45eed215c16c411),
    ("gcc/dl1_assoc2/w2999", 0x0f4a4b24ac27da22),
    ("gcc/dl1_assoc4/w0", 0x85e9408439e61ce0),
    ("gcc/dl1_assoc4/w750", 0xe45eed215c16c411),
    ("gcc/dl1_assoc4/w2999", 0x0f4a4b24ac27da22),
    ("gcc/dl1_assoc8/w0", 0x85e9408439e61ce0),
    ("gcc/dl1_assoc8/w750", 0xe45eed215c16c411),
    ("gcc/dl1_assoc8/w2999", 0x0f4a4b24ac27da22),
    ("gcc/width2/w0", 0x56f1af401b449638),
    ("gcc/width2/w750", 0x2f11fbf8ef4f9e30),
    ("gcc/width2/w2999", 0x1b8996c587cff31d),
    ("gcc/width4/w0", 0x85e9408439e61ce0),
    ("gcc/width4/w750", 0xe45eed215c16c411),
    ("gcc/width4/w2999", 0x0f4a4b24ac27da22),
    ("gcc/width8/w0", 0xbd163f5529f7a7ae),
    ("gcc/width8/w750", 0x09d7c51d1b15de35),
    ("gcc/width8/w2999", 0xd73b5bf90305d91f),
    ("gcc/everything/w0", 0xe71b2dfb49d50bdd),
    ("gcc/everything/w750", 0xee95fdf7532895b6),
    ("gcc/everything/w2999", 0x1fdeea754409d0ba),
    ("applu/baseline/w0", 0x0bec53edfdb5c8c7),
    ("applu/baseline/w750", 0x8456b7cace6cd5ad),
    ("applu/baseline/w2999", 0xd06186b344c1773b),
    ("applu/in_order/w0", 0x4e51da8c1902eacb),
    ("applu/in_order/w750", 0x02facaa88a537e51),
    ("applu/in_order/w2999", 0x067e7e56bbbad1a9),
    ("applu/il1_prefetch/w0", 0x4cea3cfda98d3629),
    ("applu/il1_prefetch/w750", 0xf4e2a136dbbaeefd),
    ("applu/il1_prefetch/w2999", 0x8e9ab0b532d44a03),
    ("applu/dl1_prefetch/w0", 0x4ecfe4843f5d08a5),
    ("applu/dl1_prefetch/w750", 0x1759f217c9b287b5),
    ("applu/dl1_prefetch/w2999", 0x9d5eb2836909e3e3),
    ("applu/bht_2bit/w0", 0x65bb2c15aae3da1e),
    ("applu/bht_2bit/w750", 0x1a821fb4d4b2879d),
    ("applu/bht_2bit/w2999", 0x6ea41edf8ff15539),
    ("applu/dl1_assoc1/w0", 0x0bec53edfdb5c8c7),
    ("applu/dl1_assoc1/w750", 0x8456b7cace6cd5ad),
    ("applu/dl1_assoc1/w2999", 0xd06186b344c1773b),
    ("applu/dl1_assoc2/w0", 0x0bec53edfdb5c8c7),
    ("applu/dl1_assoc2/w750", 0x8456b7cace6cd5ad),
    ("applu/dl1_assoc2/w2999", 0xd06186b344c1773b),
    ("applu/dl1_assoc4/w0", 0x0bec53edfdb5c8c7),
    ("applu/dl1_assoc4/w750", 0x8456b7cace6cd5ad),
    ("applu/dl1_assoc4/w2999", 0xd06186b344c1773b),
    ("applu/dl1_assoc8/w0", 0x0bec53edfdb5c8c7),
    ("applu/dl1_assoc8/w750", 0x8456b7cace6cd5ad),
    ("applu/dl1_assoc8/w2999", 0xd06186b344c1773b),
    ("applu/width2/w0", 0xc6c705d959096d3f),
    ("applu/width2/w750", 0x31d42ca190de98f4),
    ("applu/width2/w2999", 0x0725149059e036f7),
    ("applu/width4/w0", 0x0bec53edfdb5c8c7),
    ("applu/width4/w750", 0x8456b7cace6cd5ad),
    ("applu/width4/w2999", 0xd06186b344c1773b),
    ("applu/width8/w0", 0x8d02450083a578ba),
    ("applu/width8/w750", 0xa7c5b7c95eb3dd33),
    ("applu/width8/w2999", 0xbf1b1b087389e8e7),
    ("applu/everything/w0", 0xd2b0044096ba8194),
    ("applu/everything/w750", 0x695663d80af3426f),
    ("applu/everything/w2999", 0x739df760fa845553),
];

#[test]
fn sim_results_match_golden_fixtures() {
    let got = simulate_all();
    let table: Vec<String> =
        got.iter().map(|(case, h)| format!("    (\"{case}\", 0x{h:016x}),")).collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(c, h)| (c.to_string(), h)).collect();
    assert!(
        got == expected,
        "SimResult fixtures diverge; the current engine produces:\n{}",
        table.join("\n")
    );
}
