//! `simcore` — throughput of the flat simulation core, as a machine-
//! readable perf-trajectory artifact, and the workspace's only bench
//! target.
//!
//! It measures the operations every experiment in this workspace funnels
//! through — `BarrierSim::measure` (jittered and noiseless), the raw
//! lane-parallel batch executor, `predict_compiled` and the knowledge
//! verifier — at p ∈ {16, 64}, plus the sparse scale path at
//! p ∈ {256, 1024, 4096}, and writes one row per measurement with its
//! own unit to a JSON file CI archives as `BENCH_sim.json` next to
//! `BENCH_repro.json`.
//!
//! ```text
//! cargo bench -p hpm-bench --bench simcore                      # full
//! cargo bench -p hpm-bench --bench simcore -- --quick --json BENCH_sim.json
//! cargo bench -p hpm-bench --bench simcore -- --quick --check   # CI gate
//! ```
//!
//! Three `measure` rows exist per process count, all in `reps/s`:
//!
//! * `measure_pP` — the default platform, jitter on (σ = 0.05), through
//!   the public `measure` entry point: per-repetition counter streams
//!   through the tabulated log-normal quantile function, executed in SoA
//!   lanes — the row the stochastic path's perf trajectory tracks.
//! * `measure_batch_pP` — the same work through `run_batch_compiled`
//!   directly (one `LaneScratch`, no fan-out machinery): the raw lane
//!   executor's ceiling.
//! * `measure_engine_pP` — jitter disabled: every multiplier reads as
//!   exactly 1.0, isolating the data path (CSR adjacency, SoA lanes,
//!   scratch reuse). This row tracks the simulation core itself.
//!
//! `predict_pP` (`predictions/s`) and `verify_pP` (`verifications/s`) run
//! on the plan compiled once. The scale rows are `scale_measure_pP` and
//! `scale_engine_p1024` (`reps/s`), `scale_rel_err_pP` (predict-vs-sim
//! relative error, unit `1`) and `placement_peak_bytes_pP` (peak heap
//! while building the placement, `bytes`).
//!
//! All rows run single-threaded (`hpm_par` pinned to 1 worker) so the
//! numbers are per-core throughput, comparable across machines with
//! different core counts.
//!
//! `--check` is the bench-smoke regression gate: it fails (exit 1) when
//! the jittered `measure` rows regress more than 30 % against the
//! committed [`BASELINE`], after normalizing by the noiseless
//! `measure_engine` row measured in the same run — the ratio
//! jittered/noiseless cancels machine speed, so the gate is portable
//! across runners while still catching regressions of the stochastic
//! path specifically (the threshold is generous precisely because even
//! the ratio wobbles on noisy shared runners).

use hpm_barriers::patterns::{dissemination, dissemination_plan};
use hpm_core::pattern::CommPattern;
use hpm_core::predictor::{predict_compiled, predict_compiled_with, CommCosts, PayloadSchedule};
use hpm_simnet::barrier::BarrierSim;
use hpm_simnet::batch::LaneScratch;
use hpm_simnet::microbench::{bench_platform_classes, ClassCosts, MicrobenchConfig};
use hpm_simnet::params::xeon_cluster_params;
use hpm_topology::{
    cluster_128x2x4, cluster_32x2x4, cluster_512x2x4, cluster_8x2x4, ClusterShape, Placement,
    PlacementPolicy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Counting allocator: tracks live and peak heap bytes so the scale rows
/// can report the placement's actual footprint — the artifact-level
/// enforcement that no O(p²) structure is hiding behind the type
/// signatures.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap growth while constructing (and briefly holding) the
/// placement for `p` ranks — measured on the main thread with the
/// worker pool idle.
fn placement_peak_bytes(shape: ClusterShape, p: usize) -> usize {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let placement = Placement::new(shape, PlacementPolicy::RoundRobin, p);
    std::hint::black_box(&placement);
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(before)
}

/// Times `op` for at least `window` seconds and returns ops/sec.
fn throughput(window: f64, mut op: impl FnMut()) -> f64 {
    // One untimed call warms caches and scratch.
    op();
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed().as_secs_f64() < window {
        op();
        iters += 1;
    }
    iters as f64 / t0.elapsed().as_secs_f64()
}

/// One output row: a rate (`reps/s`, `predictions/s`,
/// `verifications/s`), a dimensionless ratio (`1`) or a size (`bytes`).
struct Entry {
    id: String,
    value: f64,
    unit: &'static str,
}

fn row(id: String, value: f64, unit: &'static str) -> Entry {
    Entry { id, value, unit }
}

/// The committed reference `--check` gates against: the jittered and
/// noiseless `measure` rows on the machine that developed them (the
/// p ∈ {16, 64} rows when the batched jitter engine landed, the p = 1024
/// rows when the sparse scale path did; fixed provenance, never
/// re-measured). Absolute values only compare on similar hardware, so the
/// gate compares jittered/noiseless *ratios*, which transfer.
const BASELINE: &[(&str, f64)] = &[
    ("measure_p16", 293625.0),
    ("measure_engine_p16", 1721322.0),
    ("measure_p64", 54072.0),
    ("measure_engine_p64", 269485.0),
    ("scale_measure_p1024", 2056.0),
    ("scale_engine_p1024", 11474.0),
];

/// Upper bound on the p = 4096 placement's peak construction footprint:
/// a generous linear allowance (cores, link map, node buckets, transient
/// doubling), two orders of magnitude under the dense pairwise table
/// (16.7 MB at that scale), so such a table cannot silently return.
const PLACEMENT_PEAK_CAP_P4096: f64 = 2_000_000.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let json_path: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--json")
        .map(|k| PathBuf::from(args.get(k + 1).expect("--json needs a file path")));
    // Quick mode shrinks the timing windows, never the workload shape:
    // an "op" means the same thing in both modes.
    let window = if quick { 0.2 } else { 2.0 };
    const REPS: usize = 256;
    const LANES: usize = 8;

    hpm_par::set_threads(Some(1));
    let jittered = xeon_cluster_params();
    let noiseless = jittered.noiseless();
    let mut entries: Vec<Entry> = Vec::new();

    for p in [16usize, 64] {
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let pattern = dissemination(p);
        let payload = PayloadSchedule::none();

        let sim = BarrierSim::new(&jittered, &placement);
        let ops = throughput(window, || {
            std::hint::black_box(sim.measure(&pattern, &payload, REPS, 42));
        });
        entries.push(row(format!("measure_p{p}"), ops * REPS as f64, "reps/s"));

        let plan = pattern.plan();
        let mut lanes = LaneScratch::new();
        let ops = throughput(window, || {
            let mut rep = 0u64;
            while rep < REPS as u64 {
                std::hint::black_box(
                    sim.run_batch_compiled(&plan, &payload, 42, rep, LANES, &mut lanes),
                );
                rep += LANES as u64;
            }
        });
        entries.push(row(
            format!("measure_batch_p{p}"),
            ops * REPS as f64,
            "reps/s",
        ));

        let engine = BarrierSim::new(&noiseless, &placement);
        let ops = throughput(window, || {
            std::hint::black_box(engine.measure(&pattern, &payload, REPS, 42));
        });
        entries.push(row(
            format!("measure_engine_p{p}"),
            ops * REPS as f64,
            "reps/s",
        ));

        let costs = CommCosts::uniform(p, 1e-7, 5e-7, 1e-6);
        let ops = throughput(window, || {
            std::hint::black_box(predict_compiled(&plan, &costs, &payload));
        });
        entries.push(row(format!("predict_p{p}"), ops, "predictions/s"));

        let ops = throughput(window, || {
            std::hint::black_box(hpm_core::knowledge::verify_compiled(&plan));
        });
        entries.push(row(format!("verify_p{p}"), ops, "verifications/s"));
    }

    // Scale rows: the past-p² pipeline — sparse-authored dissemination
    // plan, sampled stratified microbenchmark, per-class cost model —
    // at p ∈ {256, 1024, 4096}. Fewer reps per op than the small rows:
    // one p = 4096 repetition simulates ~49k signal round trips.
    const SCALE_REPS: usize = 8;
    for (shape, p) in [
        (cluster_32x2x4(), 256usize),
        (cluster_128x2x4(), 1024),
        (cluster_512x2x4(), 4096),
    ] {
        let placement = Placement::new(shape, PlacementPolicy::RoundRobin, p);
        let plan = dissemination_plan(p);
        let payload = PayloadSchedule::none();

        let sim = BarrierSim::new(&jittered, &placement);
        let ops = throughput(window, || {
            std::hint::black_box(sim.measure_compiled(&plan, &payload, SCALE_REPS, 42));
        });
        let reps = ops * SCALE_REPS as f64;
        entries.push(row(format!("scale_measure_p{p}"), reps, "reps/s"));

        if p == 1024 {
            // The --check gate normalizes the p = 1024 scale row by its
            // own noiseless run, like the small rows.
            let engine = BarrierSim::new(&noiseless, &placement);
            let ops = throughput(window, || {
                std::hint::black_box(engine.measure_compiled(&plan, &payload, SCALE_REPS, 42));
            });
            let reps = ops * SCALE_REPS as f64;
            entries.push(row(format!("scale_engine_p{p}"), reps, "reps/s"));
        }

        let micro = MicrobenchConfig::quick().with_pair_sample(16);
        let profile = bench_platform_classes(&jittered, &placement, &micro, 42);
        let costs = ClassCosts::new(&placement, profile);
        let meas = sim.measure_compiled(&plan, &payload, SCALE_REPS, 42).mean();
        let pred = predict_compiled_with(&plan, &costs, &payload).total;
        entries.push(row(
            format!("scale_rel_err_p{p}"),
            (pred - meas) / meas,
            "1",
        ));

        let peak = placement_peak_bytes(shape, p) as f64;
        entries.push(row(format!("placement_peak_bytes_p{p}"), peak, "bytes"));
    }

    for e in &entries {
        // Dimensionless rows are fractions; everything else is a count.
        let digits = if e.unit == "1" { 4 } else { 0 };
        println!("{:<26} {:>14.digits$} {}", e.id, e.value, e.unit);
    }

    if let Some(path) = json_path {
        write_json(&path, quick, REPS, &entries);
        println!("wrote {}", path.display());
    }

    if check && !regression_check(&entries) {
        std::process::exit(1);
    }
}

/// The row `id` of a table of `(id, value)` pairs.
fn lookup<'a>(rows: impl IntoIterator<Item = (&'a str, f64)>, id: &str) -> f64 {
    rows.into_iter()
        .find(|(k, _)| *k == id)
        .unwrap_or_else(|| panic!("missing row {id}"))
        .1
}

/// The `--check` gate: jittered `measure` throughput, normalized by the
/// same run's noiseless row, must stay within 30 % of the committed
/// baseline's ratio, and the p = 4096 placement must stay under its
/// footprint cap. Returns false (and prints the verdict) on failure.
fn regression_check(entries: &[Entry]) -> bool {
    let fresh = |id: &str| lookup(entries.iter().map(|e| (e.id.as_str(), e.value)), id);
    let base = |id: &str| lookup(BASELINE.iter().copied(), id);
    let mut ok = true;
    let mut verdict = |id: &str, pass: bool, detail: String| {
        let word = if pass { "ok" } else { "REGRESSED" };
        println!("check {id}: {detail} — {word}");
        ok &= pass;
    };
    for (measure, engine) in [
        ("measure_p16", "measure_engine_p16"),
        ("measure_p64", "measure_engine_p64"),
        ("scale_measure_p1024", "scale_engine_p1024"),
    ] {
        let fresh_ratio = fresh(measure) / fresh(engine);
        let base_ratio = base(measure) / base(engine);
        let rel = fresh_ratio / base_ratio;
        let detail = format!(
            "jittered/noiseless ratio {fresh_ratio:.4} vs baseline {base_ratio:.4} \
             ({}% of baseline)",
            (rel * 100.0).round()
        );
        verdict(measure, rel >= 0.70, detail);
    }
    // The placement footprint cap: absolute bytes, portable across
    // machines (allocation sizes do not depend on CPU speed).
    let peak = fresh("placement_peak_bytes_p4096");
    let detail = format!("{peak:.0} B vs cap {PLACEMENT_PEAK_CAP_P4096:.0} B");
    verdict(
        "placement_peak_bytes_p4096",
        peak <= PLACEMENT_PEAK_CAP_P4096,
        detail,
    );
    if !ok {
        println!(
            "jittered measure regressed >30% vs the committed baseline \
             (machine-normalized), or the placement footprint blew its cap; \
             see benches/simcore.rs"
        );
    }
    ok
}

/// The rows as JSON array items, one per line.
fn json_rows<'a>(rows: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let items: Vec<String> = rows
        .map(|(id, v, unit)| {
            format!("    {{\"id\": \"{id}\", \"value\": {v:.4}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    items.join(",\n")
}

fn write_json(path: &PathBuf, quick: bool, reps: usize, entries: &[Entry]) {
    let fresh = json_rows(entries.iter().map(|e| (e.id.as_str(), e.value, e.unit)));
    // The gate's committed baseline rides along, so the artifact is
    // self-describing.
    let base = json_rows(BASELINE.iter().map(|&(id, v)| (id, v, "reps/s")));
    let s = format!(
        "{{\n  \"quick\": {quick},\n  \"threads\": 1,\n  \"reps_per_measure\": {reps},\n  \
         \"entries\": [\n{fresh}\n  ],\n  \"baseline\": [\n{base}\n  ]\n}}\n"
    );
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create json output dir");
    }
    std::fs::write(path, s).expect("write json report");
}
