//! `faults`: the drop × straggler × crash grid at p ∈ {64, 256} through
//! the healthy, faulty and recovering executors, the forced k ∈ {1, 2}
//! crash sets through the recovering executor, and one BSPlib program
//! under `RecoveryPolicy::ShrinkAndContinue`.

use std::collections::BTreeSet;
use std::time::Instant;

use hpm_barriers::dissemination_plan;
use hpm_bsplib::{run_spmd, BspConfig, RecoveryPolicy};
use hpm_core::knowledge::{KnowledgeGoal, VerifyScratch};
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::PayloadSchedule;
use hpm_core::recovery::repair_plan;
use hpm_kernels::rate::xeon_core;
use hpm_simnet::barrier::{BarrierSim, BARRIER_JITTER_LABEL};
use hpm_simnet::params::{xeon_cluster_params, PlatformParams};
use hpm_simnet::{NetState, RecoveryReport, RecoveryScratch, SimScratch};
use hpm_stats::fault::{DropProb, FaultModel, FaultPlan};
use hpm_topology::{cluster_32x2x4, cluster_8x2x4, Placement, PlacementPolicy};

use crate::bsp_apps::Ring;
use crate::trace::span;
use crate::util::{mix, probe_placement, probe_verify};
use crate::{add, Counts, Op, Scale, Workload};

/// Repetitions per grid case.
const REPS: usize = 64;
/// Forced crash sets per op.
const SETS_PER_OP: usize = 16;

struct Machine {
    placement: Placement,
    plan: CompiledPattern,
}

#[derive(Clone, Copy)]
enum Task {
    /// Machine and fault model of one grid case.
    Grid(usize, FaultModel),
    /// Machine and a slice of its forced crash sets.
    Forced(usize, usize, usize),
    Shrink,
}

struct Faults {
    params: PlatformParams,
    machines: Vec<Machine>,
    forced: Vec<Vec<Vec<usize>>>,
    ops: Vec<Task>,
    seed: u64,
}

fn model(drop: f64, straggler: f64, crashes: usize) -> FaultModel {
    FaultModel {
        crash_count: crashes,
        crash_window: 1e-4,
        drop: DropProb::uniform(drop),
        straggler_prob: straggler,
        straggler_scale: 1e-4,
        straggler_alpha: 1.5,
        timeout: 2e-4,
        ..FaultModel::NONE
    }
}

pub fn setup(scale: Scale, seed: u64, _counts: &mut Counts) -> Box<dyn Workload> {
    let (ps, drops, crashes): (&[usize], &[f64], &[usize]) = match scale {
        Scale::Full => (&[64, 256], &[0.0, 0.01, 0.05], &[0, 1, 4]),
        Scale::Smoke => (&[64], &[0.0, 0.05], &[0, 1]),
    };
    let mut machines = Vec::new();
    let mut forced = Vec::new();
    let mut ops = Vec::new();
    for (m, &p) in ps.iter().enumerate() {
        let shape = if p <= 64 {
            cluster_8x2x4()
        } else {
            cluster_32x2x4()
        };
        let placement = span("topology.placement", || {
            Placement::new(shape, PlacementPolicy::RoundRobin, p)
        });
        let plan = span("core.compile", || dissemination_plan(p));
        machines.push(Machine { placement, plan });
        for &d in drops {
            for straggler in [0.0, 0.1] {
                for &c in crashes {
                    ops.push(Task::Grid(m, model(d, straggler, c)));
                }
            }
        }
        let mut sets = Vec::new();
        for k in [1usize, 2] {
            sets.extend(hpm_bench::analyze::crash_sets(p, k));
        }
        if scale == Scale::Smoke {
            sets.truncate(SETS_PER_OP);
        }
        for first in (0..sets.len()).step_by(SETS_PER_OP) {
            ops.push(Task::Forced(
                m,
                first,
                (first + SETS_PER_OP).min(sets.len()),
            ));
        }
        forced.push(sets);
    }
    ops.push(Task::Shrink);
    Box::new(Faults {
        params: xeon_cluster_params(),
        machines,
        forced,
        ops,
        seed,
    })
}

impl Faults {
    fn grid(&self, m: usize, fault: &FaultModel, seed: u64, op: &mut Op) {
        let Machine { placement, plan } = &self.machines[m];
        let p = plan.p();
        let (sim, none) = op.time(|| {
            (
                BarrierSim::new(&self.params, placement),
                PayloadSchedule::none(),
            )
        });
        let goal = KnowledgeGoal::AllToAll;
        let healthy = op.time(|| {
            span("simnet.measure", || {
                sim.measure_compiled(plan, &none, REPS, seed)
            })
        });
        let faulty = op.time(|| {
            span("simnet.faulty", || {
                sim.measure_faulty(plan, &none, fault, REPS, seed)
            })
        });
        let recovering = op.time(|| {
            span("simnet.recovering", || {
                sim.measure_recovering(plan, &none, goal, fault, REPS, seed)
            })
        });
        let signals = (plan.total_signals() * REPS) as f64;
        op.count("simnet.measure.signals", signals);
        op.count("simnet.faulty.signals", signals);
        op.count(
            "stats.jitter_fill.draws",
            (3 * plan.jitter_draws() * REPS) as f64,
        );
        op.digest.f64s(&healthy.samples);
        for (f, r) in faulty.iter().zip(&recovering) {
            op.count("simnet.faulty.retries", f.retries as f64);
            op.count("simnet.faulty.lost_signals", f.lost_signals as f64);
            op.count("simnet.recovering.replan_stages", r.replan_stages as f64);
            op.digest.f64(f.total());
            op.digest.u64(f.retries);
            op.digest.f64(r.total());
            op.digest.bool(r.recovered);
        }

        let case = format!("p={p} drop={:?} crashes={}", fault.drop, fault.crash_count);
        for (rep, (f, r)) in faulty.iter().zip(&recovering).enumerate() {
            // The recovering run's attempt is the faulty run, and with no
            // failed rank it returns exactly that run.
            op.check(r.attempt == *f, || {
                format!("{case}: rep {rep} attempt differs from the faulty run")
            });
            if f.all_completed() {
                op.check(
                    !r.replanned && r.total().to_bits() == f.total().to_bits(),
                    || format!("{case}: rep {rep} recovered run differs from a clean faulty run"),
                );
            }
            op.check(!r.replanned || r.recovered, || {
                format!("{case}: rep {rep} re-planned but did not recover")
            });
        }
        if op.reference_checks
            && fault.crash_count == 0
            && fault.drop == DropProb::uniform(0.0)
            && fault.straggler_prob == 0.0
        {
            // FaultModel::NONE is bitwise the fault-free executor.
            let none_model = sim.measure_faulty(plan, &none, &FaultModel::NONE, REPS, seed);
            let same = none_model
                .iter()
                .zip(&healthy.samples)
                .all(|(f, h)| f.total().to_bits() == h.to_bits());
            op.check(same, || {
                format!("p={p}: FaultModel::NONE differs from the healthy run")
            });
        }
    }

    fn forced(&self, m: usize, sets: &[Vec<usize>], seed: u64, op: &mut Op) {
        let Machine { placement, plan } = &self.machines[m];
        let p = plan.p();
        let goal = KnowledgeGoal::AllToAll;
        let fault = FaultModel {
            timeout: 2e-4,
            ..FaultModel::NONE
        };
        let zeros = vec![0.0; p];
        let (sim, none, mut scratch, mut net, mut rs, mut report) = op.time(|| {
            (
                BarrierSim::new(&self.params, placement),
                PayloadSchedule::none(),
                SimScratch::new(placement),
                NetState::new(placement),
                RecoveryScratch::new(),
                RecoveryReport::new(p),
            )
        });
        for set in sets {
            op.time(|| {
                let fplan = FaultPlan::with_crashes(p, placement.shape().nodes(), set);
                span("simnet.recovering_forced", || {
                    net.reset();
                    sim.run_once_recovering_with(
                        plan,
                        &none,
                        goal,
                        &fault,
                        &fplan,
                        &zeros,
                        &mut net,
                        seed,
                        BARRIER_JITTER_LABEL,
                        0,
                        &mut scratch,
                        &mut rs,
                        &mut report,
                    )
                })
            });
            op.digest.f64(report.total());
            op.digest.bool(report.replanned);
            op.check(report.recovered, || {
                format!("p={p} crashed {set:?}: not recovered")
            });
        }
        // The repaired plan attains its goal, checked on the op's first set
        // by an independent run of the knowledge recurrence.
        if !op.reference_checks {
            return;
        }
        let set = &sets[0];
        let attained = repair_plan(p, goal, set)
            .is_some_and(|plan| VerifyScratch::new().verify(&plan).synchronizes());
        op.check(attained, || {
            format!("p={p} crashed {set:?}: repaired plan misses its goal")
        });
    }

    fn shrink(&self, seed: u64, op: &mut Op) {
        let p = 16;
        let mut cfg = op.time(|| {
            BspConfig::new(
                self.params.clone(),
                Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
                xeon_core(),
                seed,
            )
        });
        cfg.fault = FaultModel {
            drop: DropProb::uniform(0.01),
            max_retries: 0,
            timeout: 2e-5,
            ..FaultModel::NONE
        };
        cfg.recovery = RecoveryPolicy::ShrinkAndContinue;
        let shifts = 4;
        let res = op.time(|| span("bsplib.run_spmd", || run_spmd(&cfg, |_| Ring::new(shifts))));
        let res = match res {
            Ok(res) => res,
            Err(e) => return op.failures.push(format!("shrink-and-continue ring: {e}")),
        };
        op.count("bsplib.supersteps", res.superstep_count() as f64);
        op.count("bsplib.recoveries", res.recoveries.len() as f64);
        let bytes: u64 = res.supersteps.iter().map(|s| s.payload_bytes).sum();
        op.count("bsplib.bytes_moved", bytes as f64);
        op.digest.f64(res.total_time);
        op.digest.u64(res.recoveries.len() as u64);
        let mut nprocs = p;
        for ev in &res.recoveries {
            op.check(ev.failed.len() + ev.survivors.len() == nprocs, || {
                format!("shrink at superstep {}: ranks do not add up", ev.superstep)
            });
            nprocs = ev.nprocs_after;
        }
        op.check(res.programs.len() == nprocs, || {
            "shrink: result does not span the survivors".into()
        });
        if res.recoveries.is_empty() {
            let exact = res
                .programs
                .iter()
                .enumerate()
                .all(|(pid, r)| r.acc == Ring::expected(pid, p, shifts));
            op.check(exact, || {
                "shrink ring without faults: sums are not exact".into()
            });
        }
    }
}

impl Workload for Faults {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run(&self, k: usize, op: &mut Op) {
        let seed = mix(self.seed, k as u64);
        match self.ops[k] {
            Task::Grid(m, fault) => self.grid(m, &fault, seed, op),
            Task::Forced(m, a, b) => self.forced(m, &self.forced[m][a..b], seed, op),
            Task::Shrink => self.shrink(seed, op),
        }
    }

    fn isolate(&self, iso: &mut Counts) {
        // Fault-plan realization and the repairs its crash sets need, on
        // the grid's own streams.
        let mut distinct = BTreeSet::new();
        let mut fplan = FaultPlan::neutral(0, 0);
        for (k, task) in self.ops.iter().enumerate() {
            let Task::Grid(m, fault) = task else { continue };
            let placement = &self.machines[*m].placement;
            let (p, nodes) = (placement.nprocs(), placement.shape().nodes());
            let seed = mix(self.seed, k as u64);
            for rep in 0..REPS as u64 {
                let t = Instant::now();
                span("stats.fault_plan", || {
                    fplan.realize_into(fault, p, nodes, seed, rep)
                });
                add(iso, "stats.fault_plan.busy_s", t.elapsed().as_secs_f64());
                let crashed = fplan.crashed_ranks();
                if crashed.is_empty() {
                    continue;
                }
                let t = Instant::now();
                std::hint::black_box(span("core.repair_plan", || {
                    repair_plan(p, KnowledgeGoal::AllToAll, &crashed)
                }));
                add(iso, "core.repair_plan.busy_s", t.elapsed().as_secs_f64());
                add(iso, "core.repair_plan.calls", 1.0);
                distinct.insert((p, crashed));
            }
        }
        add(iso, "core.repair_plan.distinct", distinct.len() as f64);

        let largest = self
            .machines
            .iter()
            .max_by_key(|m| m.plan.p())
            .expect("faults has machines");
        probe_placement(iso, largest.placement.shape(), largest.plan.p());
        probe_verify(iso, &largest.plan);
    }
}
