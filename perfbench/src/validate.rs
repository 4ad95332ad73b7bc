//! `validate`: the thesis Ch. 5–7 validation loop — microbenchmark the
//! platform, build the default and adapted barriers, verify, predict,
//! then measure with jitter — over the 8×2×4 Xeon and 12×2×6 Opteron
//! p-sweeps and sparse-authored points at p ∈ {256, 1024}.

use std::cell::RefCell;
use std::time::Instant;

use hpm_barriers::hybrid::flat_dissemination_hybrid;
use hpm_barriers::{binary_tree, dissemination, dissemination_plan, greedy_adaptive_barrier};
use hpm_barriers::{linear, sss_clusters};
use hpm_core::knowledge::VerifyScratch;
use hpm_core::pattern::CommPattern;
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::{predict_compiled, predict_compiled_with, PayloadSchedule};
use hpm_simnet::barrier::{BarrierSim, BARRIER_JITTER_LABEL, MEASURE_LANES};
use hpm_simnet::microbench::MicrobenchConfig;
use hpm_simnet::microbench::{bench_platform, bench_platform_classes, ClassCosts};
use hpm_simnet::params::{opteron_cluster_params, xeon_cluster_params, PlatformParams};
use hpm_simnet::{LaneScratch, NetState, SimScratch};
use hpm_stats::JitterBuf;
use hpm_topology::{cluster_128x2x4, cluster_12x2x6, cluster_32x2x4, cluster_8x2x4};
use hpm_topology::{ClusterShape, Placement, PlacementPolicy};

use crate::trace::span;
use crate::util::{mix, probe_placement, probe_verify};
use crate::{add, Counts, Op, Scale, Workload};

/// Barrier repetitions per measured point (the thesis' 256).
const REPS: usize = 256;

/// Ordered pairs measured per link class at the sparse points.
const PAIR_SAMPLE: usize = 16;

/// Process count of the point whose plans `stats.jitter_fill.share` uses.
const SHARE_P: usize = 64;

thread_local! {
    static VERIFY: RefCell<VerifyScratch> = RefCell::new(VerifyScratch::new());
}

struct Point {
    machine: usize,
    placement: Placement,
    /// Plans authored and compiled at set-up: linear, dissemination and
    /// binary tree (dissemination only at the sparse points).
    plans: Vec<CompiledPattern>,
    sparse: bool,
}

struct Validate {
    machines: [PlatformParams; 2],
    points: Vec<Point>,
    micro: MicrobenchConfig,
    seed: u64,
}

pub fn setup(scale: Scale, seed: u64, _counts: &mut Counts) -> Box<dyn Workload> {
    let (xeon, opteron, sparse): (&[usize], &[usize], &[usize]) = match scale {
        Scale::Full => (
            &[
                2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 42, 44,
                46, 48, 50, 52, 54, 56, 58, 60, 62, 64,
            ],
            &[12, 24, 48, 72, 96, 144],
            &[256, 1024],
        ),
        Scale::Smoke => (&[2, 8], &[12], &[256]),
    };
    let mut specs: Vec<(usize, ClusterShape, usize, bool)> = Vec::new();
    specs.extend(xeon.iter().map(|&p| (0, cluster_8x2x4(), p, false)));
    specs.extend(opteron.iter().map(|&p| (1, cluster_12x2x6(), p, false)));
    for &p in sparse {
        let shape = if p <= 256 {
            cluster_32x2x4()
        } else {
            cluster_128x2x4()
        };
        specs.push((0, shape, p, true));
    }
    let points = specs
        .into_iter()
        .map(|(machine, shape, p, sparse)| {
            let placement = span("topology.placement", || {
                Placement::new(shape, PlacementPolicy::RoundRobin, p)
            });
            let plans = span("core.compile", || {
                if sparse {
                    vec![dissemination_plan(p)]
                } else {
                    vec![
                        linear(p, 0).plan(),
                        dissemination(p).plan(),
                        binary_tree(p).plan(),
                    ]
                }
            });
            Point {
                machine,
                placement,
                plans,
                sparse,
            }
        })
        .collect();
    Box::new(Validate {
        machines: [xeon_cluster_params(), opteron_cluster_params()],
        points,
        // The figure-resolution dimensions `repro all` uses.
        micro: MicrobenchConfig {
            reps: 7,
            max_requests: 4,
            size_exponents: (0, 14),
            pair_sample: None,
        },
        seed,
    })
}

/// The barrier crate's stated predict-vs-sim bound: 2.0 at p ≤ 8, where
/// call overheads dominate, and 1.0 beyond.
fn bound(p: usize) -> f64 {
    if p <= 8 {
        2.0
    } else {
        1.0
    }
}

impl Validate {
    /// Verify → predict → jittered measure of one plan, with its checks.
    fn case(
        &self,
        op: &mut Op,
        sim: &BarrierSim,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        predict: impl FnOnce() -> f64,
        seed: u64,
    ) {
        let p = plan.p();
        let synced = op.time(|| {
            span("core.verify", || {
                VERIFY.with(|v| v.borrow_mut().verify(plan).synchronizes())
            })
        });
        let pred = op.time(|| span("core.predict", predict));
        let m = op.time(|| {
            span("simnet.measure", || {
                sim.measure_compiled(plan, payload, REPS, seed)
            })
        });
        op.count(
            "simnet.measure.signals",
            (plan.total_signals() * REPS) as f64,
        );
        op.count(
            "stats.jitter_fill.draws",
            (plan.jitter_draws() * REPS) as f64,
        );
        op.digest.bool(synced);
        op.digest.f64(pred);
        op.digest.f64s(&m.samples);

        let name = plan.name();
        op.check(synced, || format!("{name} p={p}: does not synchronize"));
        op.check(
            m.samples.len() == REPS && m.samples.iter().all(|s| s.is_finite() && *s > 0.0),
            || format!("{name} p={p}: non-positive or missing samples"),
        );
        let mean = m.mean();
        let rel = (pred - mean).abs() / mean;
        op.rel_err.push(rel);
        op.check(rel < bound(p), || {
            format!(
                "{name} p={p}: predict-vs-sim error {rel:.3} over the stated {}",
                bound(p)
            )
        });
        // Lane executor ≡ single repetition, on one sampled repetition.
        let rep = (seed % REPS as u64) as usize;
        let mut net = NetState::new(sim.placement);
        let mut scratch = SimScratch::new(sim.placement);
        let one = sim.run_total_batched(plan, payload, seed, rep as u64, &mut net, &mut scratch);
        op.check(one.to_bits() == m.samples[rep].to_bits(), || {
            format!(
                "{name} p={p}: repetition {rep} alone {one} != lane sample {}",
                m.samples[rep]
            )
        });
    }
}

impl Workload for Validate {
    fn ops(&self) -> usize {
        self.points.len()
    }

    fn run(&self, k: usize, op: &mut Op) {
        let pt = &self.points[k];
        let params = &self.machines[pt.machine];
        let placement = &pt.placement;
        let p = placement.nprocs();
        let seed = mix(self.seed, k as u64);
        let (sim, none, count_map) = op.time(|| {
            (
                BarrierSim::new(params, placement),
                PayloadSchedule::none(),
                PayloadSchedule::dissemination_count_map(p),
            )
        });
        if pt.sparse {
            let micro = self.micro.with_pair_sample(PAIR_SAMPLE);
            let profile = op.time(|| {
                span("simnet.microbench", || {
                    bench_platform_classes(params, placement, &micro, seed)
                })
            });
            op.count(
                "simnet.microbench.pairs",
                profile.sampled_pairs.iter().sum::<usize>() as f64,
            );
            let costs = op.time(|| ClassCosts::new(placement, profile));
            let plan = &pt.plans[0];
            for payload in [&none, &count_map] {
                let predict = || predict_compiled_with(plan, &costs, payload).total;
                self.case(op, &sim, plan, payload, predict, seed);
            }
            return;
        }
        let profile = op.time(|| {
            span("simnet.microbench", || {
                bench_platform(params, placement, &self.micro, seed)
            })
        });
        op.count("simnet.microbench.pairs", (p * (p - 1)) as f64);
        let (hybrid, greedy) = op.time(|| {
            span("barriers.adapt", || {
                let clustering = sss_clusters(&profile.costs.l);
                let hybrid = if clustering.len() > 1 && clustering.len() < p {
                    flat_dissemination_hybrid(p, &clustering.groups)
                } else {
                    dissemination(p)
                };
                (hybrid, greedy_adaptive_barrier(&profile.costs).pattern)
            })
        });
        let adapted = op.time(|| span("core.compile", || [hybrid.plan(), greedy.plan()]));
        for plan in pt.plans.iter().chain(&adapted) {
            let predict = || predict_compiled(plan, &profile.costs, &none).total;
            self.case(op, &sim, plan, &none, predict, seed);
        }
        // The BSP sync: dissemination carrying the §6.5 count map.
        let plan = &pt.plans[1];
        let predict = || predict_compiled(plan, &profile.costs, &count_map).total;
        self.case(op, &sim, plan, &count_map, predict, seed);
    }

    fn isolate(&self, iso: &mut Counts) {
        // Jitter fill against the lane executor that consumes it, batch
        // by batch on the measurement's own streams; serial, one thread.
        for (k, pt) in self.points.iter().enumerate() {
            let params = &self.machines[pt.machine];
            let sim = BarrierSim::new(params, &pt.placement);
            let seed = mix(self.seed, k as u64);
            let mut lanes = LaneScratch::new();
            let mut buf = JitterBuf::new();
            for plan in &pt.plans {
                for first in (0..REPS).step_by(MEASURE_LANES) {
                    let n = MEASURE_LANES.min(REPS - first);
                    let draws = plan.jitter_draws();
                    let t = Instant::now();
                    span("stats.jitter_fill", || {
                        buf.fill_lanes(
                            params.jitter.sigma,
                            seed,
                            BARRIER_JITTER_LABEL,
                            first as u64,
                            n,
                            draws,
                        )
                    });
                    let fill = t.elapsed().as_secs_f64();
                    std::hint::black_box(&buf);
                    add(iso, "stats.jitter_fill.fill_s", fill);
                    add(iso, "stats.jitter_fill.filled", (draws * n) as f64);
                    if pt.placement.nprocs() == SHARE_P && !pt.sparse {
                        let t = Instant::now();
                        span("simnet.lane_batch", || {
                            let none = PayloadSchedule::none();
                            sim.run_batch_compiled(plan, &none, seed, first as u64, n, &mut lanes);
                        });
                        add(iso, "stats.jitter_fill.share_fill_s", fill);
                        add(
                            iso,
                            "stats.jitter_fill.share_run_s",
                            t.elapsed().as_secs_f64(),
                        );
                    }
                }
            }
        }
        // The same measurements with jitter off, fanned out like the ops
        // so each call runs on one worker.
        let cases: Vec<(usize, &CompiledPattern)> = self
            .points
            .iter()
            .enumerate()
            .flat_map(|(k, pt)| pt.plans.iter().map(move |plan| (k, plan)))
            .collect();
        let times = hpm_par::par_map_slice(&cases, |_, &(k, plan)| {
            let pt = &self.points[k];
            let quiet = self.machines[pt.machine].noiseless();
            let sim = BarrierSim::new(&quiet, &pt.placement);
            let t = Instant::now();
            std::hint::black_box(span("simnet.measure_noiseless", || {
                sim.measure_compiled(
                    plan,
                    &PayloadSchedule::none(),
                    REPS,
                    mix(self.seed, k as u64),
                )
            }));
            (
                t.elapsed().as_secs_f64(),
                (plan.total_signals() * REPS) as f64,
            )
        });
        for (t, signals) in times {
            add(iso, "simnet.measure_noiseless.busy_s", t);
            add(iso, "simnet.measure_noiseless.signals", signals);
        }
        // Heap probes at the largest p.
        let largest = self
            .points
            .iter()
            .max_by_key(|pt| pt.placement.nprocs())
            .expect("validate has points");
        let placement = &largest.placement;
        probe_placement(iso, placement.shape(), placement.nprocs());
        probe_verify(iso, &largest.plans[0]);
    }
}
