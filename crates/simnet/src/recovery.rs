//! Fault *recovery*: survivors detect the crash set, agree on it, and
//! finish the collective over a repaired plan.
//!
//! A recovering run is the faulty run — same streams, same draw counts —
//! and when every rank completes, recovery touches nothing, so the
//! zero-crash run is bitwise the faulty run. When ranks fail, survivors
//! pay **detection** (last survivor exit plus one [`FaultModel::timeout`]),
//! a draw-free modeled **consensus** ([`consensus_cost`]: ⌈log₂ n⌉ remote
//! zero-payload rounds), and **re-execution** of
//! [`hpm_core::recovery::repair_plan`] on the healthy kernel with the
//! survivors as its rank map, from the post-consensus instant, with
//! jitter from the dedicated `RECOVERY_JITTER_LABEL` stream. Timed-out
//! ranks are alive and rejoin; crashed ranks stay out. An unrecoverable
//! crash set (a rooted goal whose root crashed) leaves the attempt's
//! outcomes standing with `recovered = false`.

use crate::barrier::{BarrierSim, SimScratch};
use crate::faults::{total_of, FaultReport, RankOutcome};
use crate::net::NetState;
use crate::params::PlatformParams;
use hpm_core::knowledge::KnowledgeGoal;
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::PayloadSchedule;
use hpm_core::recovery::repair_plan;
use hpm_stats::fault::{FaultModel, FaultPlan};

/// Stream label (b"RCVR") for jitter drawn by the repaired-plan
/// execution — disjoint from every attempt-phase stream, so recovery
/// draws can never perturb a healthy run.
pub const RECOVERY_JITTER_LABEL: u64 = 0x5243_5652;

/// One recovering repetition: the faulty attempt's accounting plus what
/// the recovery layer did about it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// The underlying faulty attempt, verbatim — bitwise what the faulty
    /// run would have reported.
    pub attempt: FaultReport,
    /// Final per-rank outcome after recovery: survivors of a successful
    /// re-plan are `Completed` at their repaired exit (timed-out ranks
    /// rejoin), crashed ranks stay `Crashed`.
    pub outcomes: Vec<RankOutcome>,
    /// True when a repaired plan was executed over the survivors.
    pub replanned: bool,
    /// True when every non-crashed rank ended `Completed` — either the
    /// attempt needed no recovery, or the re-plan finished the job.
    pub recovered: bool,
    /// When the survivors had detected the failure: last survivor exit
    /// from the attempt plus one timeout budget. Zero when the attempt
    /// completed cleanly.
    pub detection_time: f64,
    /// Modeled agreement-round cost added on top of detection.
    pub consensus_cost: f64,
    /// Stages of the repaired plan executed (0 when none was).
    pub replan_stages: usize,
}

impl RecoveryReport {
    /// A fresh report for `p` ranks.
    #[must_use]
    pub fn new(p: usize) -> RecoveryReport {
        RecoveryReport {
            attempt: FaultReport::new(p),
            outcomes: vec![RankOutcome::Completed(0.0); p],
            ..RecoveryReport::default()
        }
    }

    /// Worst-case exit time over ranks that finished (completed or
    /// timed out); `NEG_INFINITY` if everyone crashed.
    #[must_use]
    pub fn total(&self) -> f64 {
        total_of(&self.outcomes)
    }
}

/// Reusable per-worker state of the recovery phase: the crash/survivor
/// partition of the attempt.
#[derive(Debug, Default)]
pub struct RecoveryScratch {
    crashed: Vec<usize>,
    survivors: Vec<usize>,
}

impl RecoveryScratch {
    /// An empty scratch; buffers size themselves on first use.
    #[must_use]
    pub fn new() -> RecoveryScratch {
        RecoveryScratch::default()
    }
}

/// The modeled cost of the survivors' agreement round on the crash set:
/// ⌈log₂ n⌉ dissemination rounds, each one remote zero-payload message
/// (`call_overhead + o_send + latency + o_recv`). Deliberately
/// draw-free — consensus must not perturb any stream — and zero for a
/// lone survivor.
#[must_use]
pub fn consensus_cost(params: &PlatformParams, survivors: usize) -> f64 {
    if survivors <= 1 {
        return 0.0;
    }
    let rounds = (usize::BITS - (survivors - 1).leading_zeros()) as f64;
    let lc = &params.remote;
    rounds * (params.call_overhead + lc.o_send + lc.latency + lc.o_recv)
}

impl BarrierSim<'_> {
    /// One recovering run under a caller-supplied [`FaultPlan`] (e.g.
    /// [`FaultPlan::with_crashes`] for the deterministic registry
    /// sweep): the faulty attempt from per-rank entry times, then — if
    /// ranks failed — detection, consensus and re-execution over the
    /// survivors. Allocation-free on the no-failure path (a re-plan
    /// synthesizes a fresh [`CompiledPattern`], which allocates).
    #[allow(clippy::too_many_arguments)]
    pub fn run_once_recovering_with(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        goal: KnowledgeGoal,
        fault: &FaultModel,
        fplan: &FaultPlan,
        entry: &[f64],
        net: &mut NetState,
        seed: u64,
        label: u64,
        rep: u64,
        scratch: &mut SimScratch,
        rs: &mut RecoveryScratch,
        out: &mut RecoveryReport,
    ) {
        let stream = (seed, label, rep);
        self.run_faulty(
            plan,
            payload,
            fault,
            Some(fplan),
            entry,
            net,
            stream,
            scratch,
        );
        self.recover(plan, goal, fault, net, seed, rep, scratch, rs, out);
    }

    /// Detection → consensus → re-execution, given a finished attempt in
    /// `scratch.report`. A clean attempt returns before touching anything
    /// else — the zero-crash neutrality guarantee rests on this early
    /// exit.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &self,
        plan: &CompiledPattern,
        goal: KnowledgeGoal,
        fault: &FaultModel,
        net: &mut NetState,
        seed: u64,
        rep: u64,
        scratch: &mut SimScratch,
        rs: &mut RecoveryScratch,
        out: &mut RecoveryReport,
    ) {
        // Swapped, not cloned: the buffers trade places allocation-free.
        std::mem::swap(&mut out.attempt, &mut scratch.report);
        out.outcomes.clone_from(&out.attempt.outcomes);
        (out.replanned, out.recovered, out.replan_stages) = (false, false, 0);
        (out.detection_time, out.consensus_cost) = (0.0, 0.0);
        if out.attempt.all_completed() {
            out.recovered = true;
            return;
        }
        rs.crashed.clear();
        rs.survivors.clear();
        for (r, o) in out.attempt.outcomes.iter().enumerate() {
            match o {
                RankOutcome::Crashed(_) => rs.crashed.push(r),
                RankOutcome::Completed(_) | RankOutcome::TimedOut(_) => rs.survivors.push(r),
            }
        }
        if rs.survivors.is_empty() {
            return;
        }
        out.detection_time = out.attempt.total() + fault.timeout;
        out.consensus_cost = consensus_cost(self.params, rs.survivors.len());
        let Some(repaired) = repair_plan(plan.p(), goal, &rs.crashed) else {
            return;
        };
        out.replanned = true;
        out.replan_stages = repaired.stages();
        // The survivors re-execute healthily from the common
        // post-consensus instant; `rs.survivors` maps compacted plan
        // ranks back to original ranks.
        let t0 = out.detection_time + out.consensus_cost;
        scratch.stages.cur[..repaired.p()].fill(t0);
        let stream = (seed, RECOVERY_JITTER_LABEL, rep);
        self.run_healthy(
            &repaired,
            &PayloadSchedule::none(),
            Some(&rs.survivors),
            net,
            stream,
            scratch,
        );
        for (i, &r) in rs.survivors.iter().enumerate() {
            out.outcomes[r] = RankOutcome::Completed(scratch.stages.cur[i]);
        }
        out.recovered = true;
    }

    /// Repeated recovering cold-start runs with independent streams per
    /// repetition, fanned out on [`hpm_par`]: repetition `r` realizes
    /// its faults from `(seed, FAULT_LABEL, r)` and is bit-identical to
    /// [`BarrierSim::run_once_recovering_with`] over that realized plan
    /// at `rep = r`, whatever the thread count.
    ///
    /// # Panics
    ///
    /// Panics when `fault` fails [`FaultModel::checked`], naming the
    /// offending knob.
    pub fn measure_recovering(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        goal: KnowledgeGoal,
        fault: &FaultModel,
        reps: usize,
        seed: u64,
    ) -> Vec<RecoveryReport> {
        self.fan_out_faulty(plan, payload, fault, reps, seed, |scratch, net, rs, rep| {
            let mut out = RecoveryReport::new(plan.p());
            self.recover(plan, goal, fault, net, seed, rep, scratch, rs, &mut out);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::BARRIER_JITTER_LABEL;
    use crate::params::xeon_cluster_params;
    use hpm_core::pattern::CommPattern;
    use hpm_stats::fault::DropProb;
    use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

    fn dissemination(p: usize) -> CompiledPattern {
        use hpm_core::matrix::IMat;
        use hpm_core::pattern::BarrierPattern;
        let stages = (p as f64).log2().ceil() as usize;
        let mats = (0..stages)
            .map(|s| {
                let edges: Vec<(usize, usize)> = (0..p).map(|i| (i, (i + (1 << s)) % p)).collect();
                IMat::from_edges(p, &edges)
            })
            .collect();
        BarrierPattern::new("dissemination", p, mats).plan()
    }

    fn sim_fixture(p: usize) -> (crate::params::PlatformParams, Placement) {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        (params, placement)
    }

    /// A lone recovering cold-start run at `(seed, rep)` under the fault
    /// plan realized from the fault stream, as `measure_recovering` runs
    /// its repetition `rep`.
    #[allow(clippy::too_many_arguments)]
    fn lone_recovering(
        sim: &BarrierSim<'_>,
        plan: &CompiledPattern,
        goal: KnowledgeGoal,
        fault: &FaultModel,
        seed: u64,
        rep: u64,
        scratch: &mut SimScratch,
        rs: &mut RecoveryScratch,
    ) -> RecoveryReport {
        let p = plan.p();
        let fplan = FaultPlan::realize(fault, p, sim.placement.shape().nodes(), seed, rep);
        let mut net = NetState::new(sim.placement);
        let mut out = RecoveryReport::new(p);
        sim.run_once_recovering_with(
            plan,
            &PayloadSchedule::none(),
            goal,
            fault,
            &fplan,
            &vec![0.0; p],
            &mut net,
            seed,
            BARRIER_JITTER_LABEL,
            rep,
            scratch,
            rs,
            &mut out,
        );
        out
    }

    /// Crash-free faults (drops, stragglers, slow nodes) that every rank
    /// survives: the recovering run must be bitwise the faulty run.
    #[test]
    fn clean_attempt_is_bitwise_the_faulty_run() {
        let p = 24;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let fault = FaultModel {
            drop: DropProb::uniform(0.02),
            max_retries: 12,
            slow_prob: 0.2,
            slow_mult: 2.0,
            straggler_prob: 0.1,
            straggler_scale: 5e-5,
            straggler_alpha: 1.5,
            ..FaultModel::NONE
        };
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        let mut rs = RecoveryScratch::new();
        for rep in 0..8u64 {
            net.reset();
            let faulty = sim
                .run_once(
                    &plan,
                    &payload,
                    &fault,
                    &vec![0.0; p],
                    &mut net,
                    77,
                    BARRIER_JITTER_LABEL,
                    rep,
                    &mut scratch,
                )
                .clone();
            assert!(faulty.all_completed(), "rep {rep}: fixture must be clean");
            let rec = lone_recovering(
                &sim,
                &plan,
                KnowledgeGoal::AllToAll,
                &fault,
                77,
                rep,
                &mut scratch,
                &mut rs,
            );
            assert_eq!(rec.attempt, faulty, "rep {rep}");
            assert_eq!(rec.outcomes, faulty.outcomes, "rep {rep}");
            assert!(!rec.replanned && rec.recovered);
            assert_eq!(rec.detection_time.to_bits(), 0.0f64.to_bits());
            assert_eq!(rec.total().to_bits(), faulty.total().to_bits());
        }
    }

    /// A forced crash set: survivors pay detection + consensus, execute
    /// the repaired plan, and everyone alive completes after the crash.
    #[test]
    fn forced_crashes_recover_with_cost() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let fault = FaultModel::NONE;
        let fplan = FaultPlan::with_crashes(p, placement.shape().nodes(), &[3, 7]);
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        let mut rs = RecoveryScratch::new();
        let mut out = RecoveryReport::new(p);
        sim.run_once_recovering_with(
            &plan,
            &payload,
            KnowledgeGoal::AllToAll,
            &fault,
            &fplan,
            &vec![0.0; p],
            &mut net,
            5,
            BARRIER_JITTER_LABEL,
            0,
            &mut scratch,
            &mut rs,
            &mut out,
        );
        assert!(out.replanned && out.recovered);
        assert!(!out.attempt.all_completed());
        assert_eq!(out.replan_stages, 4, "ceil(log2(14)) survivor stages");
        assert!(out.detection_time > 0.0 && out.consensus_cost > 0.0);
        let t0 = out.detection_time + out.consensus_cost;
        for (r, o) in out.outcomes.iter().enumerate() {
            match o {
                RankOutcome::Crashed(_) => assert!(r == 3 || r == 7),
                RankOutcome::Completed(t) => assert!(*t >= t0, "rank {r} exits after re-plan"),
                RankOutcome::TimedOut(_) => panic!("rank {r} should have rejoined"),
            }
        }
        assert!(out.total() > out.attempt.total());
    }

    /// A crashed root makes rooted goals unrecoverable: the attempt's
    /// outcomes stand and the report says so.
    #[test]
    fn crashed_root_reports_unrecovered() {
        let p = 8;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let fplan = FaultPlan::with_crashes(p, placement.shape().nodes(), &[0]);
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        let mut rs = RecoveryScratch::new();
        let mut out = RecoveryReport::new(p);
        sim.run_once_recovering_with(
            &plan,
            &PayloadSchedule::none(),
            KnowledgeGoal::RootReaches(0),
            &FaultModel::NONE,
            &fplan,
            &vec![0.0; p],
            &mut net,
            5,
            BARRIER_JITTER_LABEL,
            0,
            &mut scratch,
            &mut rs,
            &mut out,
        );
        assert!(!out.replanned && !out.recovered);
        assert_eq!(out.replan_stages, 0);
        assert!(out.detection_time > 0.0, "detection still happened");
        assert_eq!(out.outcomes, out.attempt.outcomes);
    }

    /// Recovering repetitions are bit-identical at any thread count, and
    /// `measure_recovering` rep `r` equals a lone run at `rep = r`.
    #[test]
    fn recovering_measure_is_thread_invariant_and_rep_keyed() {
        let p = 20;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let fault = FaultModel {
            crash_count: 2,
            crash_window: 1e-4,
            drop: DropProb::uniform(0.02),
            timeout: 2e-4,
            ..FaultModel::NONE
        };
        let goal = KnowledgeGoal::AllToAll;
        let serial = hpm_par::with_threads(Some(1), || {
            sim.measure_recovering(&plan, &payload, goal, &fault, 10, 99)
        });
        assert!(
            serial.iter().any(|r| r.replanned),
            "fixture must exercise the re-plan path"
        );
        assert!(serial.iter().all(|r| r.recovered));
        for threads in [2usize, 8] {
            let par = hpm_par::with_threads(Some(threads), || {
                sim.measure_recovering(&plan, &payload, goal, &fault, 10, 99)
            });
            assert_eq!(serial, par, "threads {threads}");
        }
        let mut scratch = SimScratch::new(&placement);
        let mut rs = RecoveryScratch::new();
        for (r, rep_report) in serial.iter().enumerate() {
            let lone = lone_recovering(
                &sim,
                &plan,
                goal,
                &fault,
                99,
                r as u64,
                &mut scratch,
                &mut rs,
            );
            assert_eq!(*rep_report, lone, "rep {r}");
        }
    }

    #[test]
    fn consensus_cost_scales_logarithmically() {
        let params = xeon_cluster_params();
        assert_eq!(consensus_cost(&params, 0), 0.0);
        assert_eq!(consensus_cost(&params, 1), 0.0);
        let one = consensus_cost(&params, 2);
        assert!(one > 0.0);
        assert_eq!(consensus_cost(&params, 64), 6.0 * one);
        assert_eq!(consensus_cost(&params, 65), 7.0 * one);
    }

    #[test]
    fn invalid_model_panics_at_entry() {
        let p = 8;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let bad = FaultModel {
            backoff: 0.0,
            ..FaultModel::NONE
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.measure_recovering(
                &plan,
                &PayloadSchedule::none(),
                KnowledgeGoal::AllToAll,
                &bad,
                1,
                1,
            )
        }))
        .expect_err("bad model must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("backoff"), "panic names the knob: {msg}");
    }
}
