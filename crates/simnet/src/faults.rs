//! The fault layer: crashes, drops, degraded links and stragglers as a
//! policy of the stage kernel, with per-rank outcomes.
//!
//! A faulty run realizes its faults into a [`FaultPlan`] from the stream
//! `(seed, FAULT_LABEL, rep)` (or takes a caller's plan), fills jitter as
//! the healthy path does, and runs the kernel under the `Faulty` policy:
//! every planned signal consumes one drop uniform from
//! `(seed, FAULT_DROP_LABEL, rep)` whatever its fate
//! ([`fault_drop_draws`]). Faulty runs are therefore bit-identical at any
//! thread count, and a [`FaultModel::is_none`] model reproduces the
//! healthy kernel bit for bit (`×1.0`, `+0.0`). Each rank ends
//! [`RankOutcome::Completed`], [`RankOutcome::TimedOut`] after waiting out
//! the retry budget [`FaultModel::loss_delay`], or
//! [`RankOutcome::Crashed`].

use crate::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
use crate::batch::{Kernel, Policy};
use crate::net::{Fate, Hazard, NetState};
use hpm_core::plan::{CompiledPattern, StagePlan};
use hpm_core::predictor::PayloadSchedule;
use hpm_stats::fault::{attempts_from_uniform, DropStream, FaultModel, FaultPlan};
use hpm_topology::{LinkClass, Placement};

/// How one rank left a faulty run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankOutcome {
    /// Exited the last stage at this time with all expected signals in.
    Completed(f64),
    /// Exited at this time, but gave up waiting on at least one signal
    /// along the way — its completion guarantee is void.
    TimedOut(f64),
    /// Crashed at this time and stopped participating.
    Crashed(f64),
}

/// One repetition's fault accounting: per-rank outcomes plus the retry
/// and loss totals the repro experiment aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Per-rank outcome.
    pub outcomes: Vec<RankOutcome>,
    /// Retransmissions across all delivered signals.
    pub retries: u64,
    /// Total latency those retransmissions added.
    pub retry_delay: f64,
    /// Signals abandoned after the full retry budget (dropped beyond
    /// budget, or aimed at a crashed receiver).
    pub lost_signals: u64,
    /// Signals never emitted because their sender had crashed.
    pub suppressed_signals: u64,
}

impl FaultReport {
    /// A fresh all-completed-at-zero report for `p` ranks.
    #[must_use]
    pub fn new(p: usize) -> FaultReport {
        FaultReport {
            outcomes: vec![RankOutcome::Completed(0.0); p],
            ..FaultReport::default()
        }
    }

    /// Resets to the all-completed-at-zero state for `p` ranks without
    /// shrinking capacity, so reports reused across repetitions stay
    /// allocation-free.
    pub fn reset(&mut self, p: usize) {
        self.outcomes.clear();
        self.outcomes.resize(p, RankOutcome::Completed(0.0));
        self.retries = 0;
        self.retry_delay = 0.0;
        self.lost_signals = 0;
        self.suppressed_signals = 0;
    }

    /// Ranks that completed cleanly.
    pub fn completed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RankOutcome::Completed(_)))
            .count()
    }

    /// True when every rank completed cleanly.
    pub fn all_completed(&self) -> bool {
        self.completed_count() == self.outcomes.len()
    }

    /// Worst-case exit time over ranks that finished the run (completed
    /// or timed out); `NEG_INFINITY` if everyone crashed.
    pub fn total(&self) -> f64 {
        total_of(&self.outcomes)
    }

    /// Ranks that completed cleanly, in rank order.
    pub fn survivors(&self) -> Vec<usize> {
        self.ranks_where(true)
    }

    /// Ranks that crashed or timed out, in rank order.
    pub fn failed(&self) -> Vec<usize> {
        self.ranks_where(false)
    }

    fn ranks_where(&self, completed: bool) -> Vec<usize> {
        (0..self.outcomes.len())
            .filter(|&r| matches!(self.outcomes[r], RankOutcome::Completed(_)) == completed)
            .collect()
    }
}

/// Worst-case exit time over ranks that finished (completed or timed
/// out); `NEG_INFINITY` if everyone crashed.
pub(crate) fn total_of(outcomes: &[RankOutcome]) -> f64 {
    outcomes.iter().fold(f64::NEG_INFINITY, |acc, o| match o {
        RankOutcome::Completed(t) | RankOutcome::TimedOut(t) => acc.max(*t),
        RankOutcome::Crashed(_) => acc,
    })
}

/// Reusable buffers of the fault policy: the realized fault plan and the
/// per-rank timeout and arrival bookkeeping, reused allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultScratch {
    fplan: FaultPlan,
    timed_out: Vec<bool>,
    arrived: Vec<usize>,
}

/// Drop-stream draws one faulty run of `plan` consumes: exactly one per
/// planned signal, so the count is the plan's total edge count — the
/// fault twin of `CompiledPattern::jitter_draws`, and what makes the
/// draw audit static.
#[must_use]
pub fn fault_drop_draws(plan: &CompiledPattern) -> usize {
    (0..plan.stages()).map(|s| plan.stage(s).edge_count()).sum()
}

/// The kernel's fault policy: a realized [`FaultPlan`], the per-signal
/// drop stream, and the bookkeeping that turns signal fates into rank
/// outcomes. Runs at width 1.
struct Faulty<'a> {
    fault: &'a FaultModel,
    fplan: &'a FaultPlan,
    placement: &'a Placement,
    drops: DropStream,
    loss_delay: f64,
    timed_out: &'a mut [bool],
    arrived: &'a mut [usize],
    report: &'a mut FaultReport,
}

impl Policy for Faulty<'_> {
    const FAULTY: bool = true;

    #[inline(always)]
    fn slow(&self, r: usize) -> f64 {
        self.fplan.node_slow[self.placement.node_of(r)]
    }

    /// Consumes exactly one drop uniform whatever the signal's fate, so
    /// the drop-draw count is the plan's edge count.
    #[inline(always)]
    fn hazard(&mut self, src: usize, dst: usize, class: LinkClass) -> Hazard {
        let u = self.drops.next_uniform();
        let (src_node, dst_node) = (self.placement.node_of(src), self.placement.node_of(dst));
        let drop_p = if class == LinkClass::Remote {
            self.fault.drop.remote
        } else {
            self.fault.drop.local
        };
        let attempts = attempts_from_uniform(u, drop_p);
        let lost = attempts > self.fault.max_retries + 1;
        Hazard {
            slow_src: self.fplan.node_slow[src_node],
            slow_dst: self.fplan.node_slow[dst_node],
            wire_deg: self.fplan.wire_mult(src_node, dst_node),
            attempts,
            lost,
            retry_delay: self.fault.retry_delay(attempts),
            loss_delay: self.loss_delay,
            src_crash: self.fplan.crash_time[src],
            dst_crash: self.fplan.crash_time[dst],
        }
    }

    #[inline(always)]
    fn book(&mut self, i: usize, j: usize, h: &Hazard, fate: &Fate) {
        match fate {
            Fate::Delivered { .. } => {
                self.report.retries += u64::from(h.attempts - 1);
                self.report.retry_delay += h.retry_delay;
                self.arrived[j] += 1;
            }
            Fate::Lost(_) => {
                self.report.lost_signals += 1;
                self.timed_out[i] = true;
            }
            Fate::SenderDead => self.report.suppressed_signals += 1,
        }
    }

    /// A surviving rank missing an expected arrival waits out the
    /// sender-symmetric retry budget past its post, then gives up.
    fn stage_end(&mut self, stage: &StagePlan, posted: &[f64], nxt: &mut [f64]) {
        for j in 0..nxt.len() {
            if self.arrived[j] < stage.in_degree(j) && self.fplan.crash_time[j] == f64::INFINITY {
                self.timed_out[j] = true;
                nxt[j] = nxt[j].max(posted[j] + self.loss_delay);
            }
            self.arrived[j] = 0;
        }
    }
}

impl BarrierSim<'_> {
    /// One faulty run from per-rank entry times (realized straggler
    /// delays are added on top) into `scratch.report`, under `fplan` or,
    /// when `None`, the plan realized from the fault stream
    /// `(seed, FAULT_LABEL, rep)`. Jitter fills from `(seed, label, rep)`
    /// exactly as on the healthy path and drop decisions come from the
    /// disjoint `FAULT_DROP_LABEL` stream, so a [`FaultModel::is_none`]
    /// model reproduces the healthy kernel bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_faulty(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        fault: &FaultModel,
        fplan: Option<&FaultPlan>,
        entry: &[f64],
        net: &mut NetState,
        stream: (u64, u64, u64),
        scratch: &mut SimScratch,
    ) {
        let (seed, _, rep) = stream;
        let p = plan.p();
        assert_eq!(entry.len(), p, "entry vector length");
        let SimScratch {
            stages,
            jitter,
            fault: fs,
            report,
        } = scratch;
        let fplan = match fplan {
            Some(f) => f,
            None => {
                fs.fplan
                    .realize_into(fault, p, self.placement.shape().nodes(), seed, rep);
                &fs.fplan
            }
        };
        assert_eq!(fplan.crash_time.len(), p, "fault plan rank count");
        stages.ensure(p, 1);
        for ((c, &e), &d) in stages.cur.iter_mut().zip(entry).zip(&fplan.straggler_delay) {
            *c = e + d;
        }
        report.reset(p);
        fs.timed_out.clear();
        fs.timed_out.resize(p, false);
        fs.arrived.clear();
        fs.arrived.resize(p, 0);
        let mut pol = Faulty {
            fault,
            fplan,
            placement: self.placement,
            drops: DropStream::new(seed, rep),
            loss_delay: fault.loss_delay(),
            timed_out: &mut fs.timed_out,
            arrived: &mut fs.arrived,
            report,
        };
        let kernel = Kernel {
            sim: *self,
            plan,
            payload,
            ranks: None,
            lanes: 1,
            stream,
        };
        kernel.run(stages, net, jitter, &mut pol);
        debug_assert_eq!(
            pol.drops.drawn(),
            fault_drop_draws(plan),
            "the fault policy consumed a different drop-draw count than the plan reports"
        );
        for (i, out) in report.outcomes.iter_mut().enumerate() {
            *out = if fplan.crash_time[i] < f64::INFINITY {
                RankOutcome::Crashed(fplan.crash_time[i])
            } else if fs.timed_out[i] {
                RankOutcome::TimedOut(stages.cur[i])
            } else {
                RankOutcome::Completed(stages.cur[i])
            };
        }
    }

    /// Repeated faulty cold-start runs with independent fault and jitter
    /// streams per repetition, fanned out on [`hpm_par`]. Repetition `r`
    /// is bit-identical to a lone [`BarrierSim::run_once`] at `rep = r`
    /// with label [`BARRIER_JITTER_LABEL`], at any thread count. Every
    /// repetition runs the fault policy, even under [`FaultModel::NONE`].
    ///
    /// # Panics
    ///
    /// Panics when `fault` fails [`FaultModel::checked`], naming the
    /// offending knob — a sweep over user-supplied models dies at entry
    /// with a clear message instead of misbehaving mid-run.
    pub fn measure_faulty(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        fault: &FaultModel,
        reps: usize,
        seed: u64,
    ) -> Vec<FaultReport> {
        self.fan_out_faulty(
            plan,
            payload,
            fault,
            reps,
            seed,
            |scratch, _, _: &mut (), _| scratch.report.clone(),
        )
    }

    /// Fans `reps` cold-start faulty attempts out on [`hpm_par`] —
    /// repetition `r` realizes its faults from `(seed, FAULT_LABEL, r)`
    /// and its jitter from `(seed, BARRIER_JITTER_LABEL, r)` — and maps
    /// each finished attempt through `finish`, with per-worker state.
    pub(crate) fn fan_out_faulty<S: Default, U: Send>(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        fault: &FaultModel,
        reps: usize,
        seed: u64,
        finish: impl Fn(&mut SimScratch, &mut NetState, &mut S, u64) -> U + Sync,
    ) -> Vec<U> {
        if let Err(e) = fault.checked() {
            panic!("invalid FaultModel: {e}");
        }
        let zeros = vec![0.0; plan.p()];
        let init = || {
            let (scratch, net) = (
                SimScratch::new(self.placement),
                NetState::new(self.placement),
            );
            (scratch, net, S::default())
        };
        hpm_par::par_map_indexed_with(reps, init, |(scratch, net, state), r| {
            let rep = r as u64;
            net.reset();
            let stream = (seed, BARRIER_JITTER_LABEL, rep);
            self.run_faulty(plan, payload, fault, None, &zeros, net, stream, scratch);
            finish(scratch, net, state, rep)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn faulty_model() -> FaultModel {
        FaultModel {
            crash_count: 2,
            crash_window: 1e-4,
            drop: DropProb::uniform(0.05),
            degraded_prob: 0.1,
            degraded_mult: 3.0,
            slow_prob: 0.2,
            slow_mult: 2.0,
            straggler_prob: 0.1,
            straggler_scale: 5e-5,
            straggler_alpha: 1.5,
            ..FaultModel::NONE
        }
    }

    fn sim_fixture(p: usize) -> (crate::params::PlatformParams, Placement) {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        (params, placement)
    }

    /// One lone cold-start run of the fault policy at `(seed, rep)` —
    /// even under `FaultModel::NONE`, unlike `run_once`.
    fn lone_faulty(
        sim: &BarrierSim<'_>,
        plan: &CompiledPattern,
        fault: &FaultModel,
        seed: u64,
        rep: u64,
        scratch: &mut SimScratch,
    ) -> FaultReport {
        let mut net = NetState::new(sim.placement);
        let zeros = vec![0.0; plan.p()];
        sim.run_faulty(
            plan,
            &PayloadSchedule::none(),
            fault,
            None,
            &zeros,
            &mut net,
            (seed, BARRIER_JITTER_LABEL, rep),
            scratch,
        );
        scratch.report.clone()
    }

    /// The zero-fault property of the tentpole: a `FaultModel::NONE` run
    /// is bitwise identical to the fault-free batched engine, sample by
    /// sample.
    #[test]
    fn none_model_matches_fault_free_engine_bitwise() {
        let p = 32;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        for rep in 0..8u64 {
            let healthy = sim.run_total_batched(&plan, &payload, 4242, rep, &mut net, &mut scratch);
            let report = lone_faulty(&sim, &plan, &FaultModel::NONE, 4242, rep, &mut scratch);
            assert!(report.all_completed());
            assert_eq!(report.retries, 0);
            assert_eq!(report.lost_signals, 0);
            assert_eq!(
                report.total().to_bits(),
                healthy.to_bits(),
                "rep {rep}: faulty-but-neutral diverged from the healthy engine"
            );
        }
    }

    /// Faulty repetitions are bit-identical at any thread count, and
    /// `measure_faulty` rep `r` equals a lone `run_once` at `r`.
    #[test]
    fn faulty_measure_is_thread_invariant_and_rep_keyed() {
        let p = 24;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let fault = faulty_model();
        let serial = hpm_par::with_threads(Some(1), || {
            sim.measure_faulty(&plan, &payload, &fault, 12, 99)
        });
        for threads in [2usize, 8] {
            let par = hpm_par::with_threads(Some(threads), || {
                sim.measure_faulty(&plan, &payload, &fault, 12, 99)
            });
            assert_eq!(serial, par, "threads {threads}");
        }
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        for (r, rep_report) in serial.iter().enumerate() {
            net.reset();
            let lone = sim.run_once(
                &plan,
                &payload,
                &fault,
                &vec![0.0; p],
                &mut net,
                99,
                BARRIER_JITTER_LABEL,
                r as u64,
                &mut scratch,
            );
            assert_eq!(rep_report, lone, "rep {r}");
        }
    }

    /// The consumed-vs-planned audit extends to fault draws: a faulty
    /// run consumes exactly `fault_drop_draws(plan)` drop uniforms and
    /// the plan's jitter draws — knob values notwithstanding.
    #[test]
    fn faulty_executor_consumes_exactly_the_plan_reported_draws() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        assert_eq!(
            fault_drop_draws(&plan),
            (0..plan.stages())
                .map(|s| plan.stage(s).edge_count())
                .sum::<usize>()
        );
        let mut scratch = SimScratch::new(&placement);
        for fault in [FaultModel::NONE, faulty_model()] {
            let _ = lone_faulty(&sim, &plan, &fault, 7, 0, &mut scratch);
            // The debug asserts inside run_faulty enforce the
            // counts; in release builds this test still pins the jitter
            // cursor through the scratch.
            assert_eq!(scratch.jitter().consumed(), plan.jitter_draws());
        }
    }

    /// Crashed ranks report as crashed; their expected receivers time
    /// out rather than hang; survivors still finish.
    #[test]
    fn crashes_surface_as_outcomes_not_hangs() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let fault = FaultModel {
            crash_count: 2,
            crash_window: 1e-5,
            ..FaultModel::NONE
        };
        let reports = sim.measure_faulty(&plan, &PayloadSchedule::none(), &fault, 6, 5);
        for (r, report) in reports.iter().enumerate() {
            let crashed: Vec<usize> = (0..p)
                .filter(|&i| matches!(report.outcomes[i], RankOutcome::Crashed(_)))
                .collect();
            assert_eq!(crashed.len(), 2, "rep {r}");
            assert!(report.suppressed_signals > 0, "rep {r}");
            // In a dissemination barrier every rank expects signals from
            // the crashed ranks eventually, so timeouts must appear.
            assert!(
                report
                    .outcomes
                    .iter()
                    .any(|o| matches!(o, RankOutcome::TimedOut(_))),
                "rep {r}: no rank timed out despite crashes"
            );
            assert!(report.total().is_finite());
        }
    }

    /// Drops slow the barrier down (retry latency) without changing who
    /// completes, and retries are reported.
    #[test]
    fn drops_cost_retries_and_inflate_completion() {
        let p = 32;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let clean = sim.measure_faulty(&plan, &payload, &FaultModel::NONE, 16, 21);
        let dropped = sim.measure_faulty(
            &plan,
            &payload,
            &FaultModel {
                drop: DropProb::uniform(0.08),
                max_retries: 10,
                ..FaultModel::NONE
            },
            16,
            21,
        );
        let mean =
            |rs: &[FaultReport]| rs.iter().map(FaultReport::total).sum::<f64>() / rs.len() as f64;
        let retries: u64 = dropped.iter().map(|r| r.retries).sum();
        assert!(retries > 0, "8% drop over 16 reps must retry at least once");
        assert!(dropped.iter().all(FaultReport::all_completed));
        assert!(
            mean(&dropped) > mean(&clean),
            "retries must inflate completion: {} vs {}",
            mean(&dropped),
            mean(&clean)
        );
    }

    /// Stragglers delay entry, and the delay propagates into completion
    /// times roughly like the §5.5 entry-skew experiment.
    #[test]
    fn stragglers_delay_completion() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let clean = sim.measure_faulty(&plan, &payload, &FaultModel::NONE, 16, 3);
        let straggly = sim.measure_faulty(
            &plan,
            &payload,
            &FaultModel {
                straggler_prob: 0.3,
                straggler_scale: 1e-3,
                straggler_alpha: 1.5,
                ..FaultModel::NONE
            },
            16,
            3,
        );
        let mean =
            |rs: &[FaultReport]| rs.iter().map(FaultReport::total).sum::<f64>() / rs.len() as f64;
        assert!(
            mean(&straggly) > 2.0 * mean(&clean),
            "millisecond-scale stragglers must dominate: {} vs {}",
            mean(&straggly),
            mean(&clean)
        );
    }

    /// Report bookkeeping: survivors and failed partition the ranks.
    #[test]
    fn survivors_and_failed_partition_ranks() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let fault = faulty_model();
        let reports = sim.measure_faulty(&plan, &PayloadSchedule::none(), &fault, 4, 13);
        for report in &reports {
            let mut all: Vec<usize> = report.survivors();
            all.extend(report.failed());
            all.sort_unstable();
            assert_eq!(all, (0..p).collect::<Vec<_>>());
            assert_eq!(report.completed_count(), report.survivors().len());
        }
    }
}
