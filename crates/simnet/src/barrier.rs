//! The healthy entry points of the Fig. 5.5 staged barrier executor.
//!
//! Per stage every process pays the call overhead, issues its signals as
//! serial acknowledged round trips, and leaves when its sends are
//! acknowledged and its expected receives processed — the stage kernel
//! of [`crate::batch`]. Patterns are compiled once into CSR form; runs
//! reuse caller-owned scratch ([`SimScratch`] at width 1, [`LaneScratch`]
//! for lane batches) and allocate nothing after warmup. Every repetition
//! owns its jitter stream `(seed, label, rep)`, so samples are identical
//! however repetitions are grouped into lanes or threads.

use crate::batch::{Healthy, Kernel, LaneScratch, Stages};
use crate::faults::{FaultReport, FaultScratch, RankOutcome};
use crate::net::NetState;
use crate::params::PlatformParams;
use hpm_core::pattern::CommPattern;
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::PayloadSchedule;
use hpm_stats::fault::FaultModel;
use hpm_stats::rng::JitterBuf;
use hpm_topology::Placement;

/// Stream label of the staged barrier executor's jitter tables: every
/// repetition `r` of a measurement with seed `s` fills from the stream
/// `(s, BARRIER_JITTER_LABEL, r)`, whether it runs alone or as one lane
/// of a batch.
pub const BARRIER_JITTER_LABEL: u64 = 0x4241_5252; // "BARR"

/// Lanes per batch of [`BarrierSim::measure`]. A tuning knob, not a
/// contract: samples are bit-identical for any lane width because each
/// repetition owns its `(seed, rep)` jitter stream.
pub const MEASURE_LANES: usize = 8;

/// Aggregated timings of repeated barrier executions.
#[derive(Debug, Clone)]
pub struct BarrierMeasurement {
    /// Completion time (max over processes) of every run.
    pub samples: Vec<f64>,
}

impl BarrierMeasurement {
    /// Arithmetic mean of the per-run worst-case times — the statistic of
    /// Figs. 5.6/5.10 ("worst-case times were collected from 256 runs …
    /// and the arithmetic mean of these is reported").
    pub fn mean(&self) -> f64 {
        hpm_stats::mean(&self.samples)
    }

    /// Median per-run worst-case time, computed directly from the
    /// samples slice by quickselect.
    pub fn median(&self) -> f64 {
        hpm_stats::quantile::median(&self.samples)
    }
}

/// Reusable state of single (width-1) runs: the kernel's stage times,
/// the jitter table, the fault layer's bookkeeping and the report of the
/// most recent run.
///
/// One scratch serves any pattern over its placement's process count;
/// carry it across stages, repetitions and supersteps so the kernel
/// never touches the allocator.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    pub(crate) stages: Stages,
    pub(crate) jitter: JitterBuf,
    pub(crate) fault: FaultScratch,
    pub(crate) report: FaultReport,
}

impl SimScratch {
    /// Scratch sized for a placement's process count.
    pub fn new(placement: &Placement) -> SimScratch {
        let mut scratch = SimScratch::default();
        scratch.stages.ensure(placement.nprocs(), 1);
        scratch
    }

    /// Per-process exit times of the most recent run.
    pub fn exits(&self) -> &[f64] {
        &self.stages.cur
    }

    /// The jitter table of the most recent run — lets audit tests compare
    /// [`JitterBuf::consumed`] against the plan's reported draw count.
    pub fn jitter(&self) -> &JitterBuf {
        &self.jitter
    }
}

/// Executes barrier patterns on a simulated platform.
#[derive(Debug, Clone, Copy)]
pub struct BarrierSim<'a> {
    pub params: &'a PlatformParams,
    pub placement: &'a Placement,
}

impl<'a> BarrierSim<'a> {
    /// Creates an executor; the placement must match the platform.
    pub fn new(params: &'a PlatformParams, placement: &'a Placement) -> BarrierSim<'a> {
        BarrierSim { params, placement }
    }

    /// One run of a compiled pattern from per-process entry times, with
    /// jitter from the stream `(seed, label, rep)`; read the exit times
    /// from [`SimScratch::exits`]. Callers own the stream naming: the
    /// BSPlib sync labels per run and uses the superstep index as `rep`.
    ///
    /// `net` carries NIC/receiver queues across calls, so consecutive
    /// communication in a superstep shares contention state. A
    /// [`FaultModel::is_none`] model runs the healthy kernel; any other
    /// runs the fault policy with faults realized from `(seed, rep)` (see
    /// [`BarrierSim::measure_faulty`]). Either way the returned report
    /// holds every rank's outcome — all `Completed` on the healthy path.
    #[allow(clippy::too_many_arguments)]
    pub fn run_once<'s>(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        fault: &FaultModel,
        entry: &[f64],
        net: &mut NetState,
        seed: u64,
        label: u64,
        rep: u64,
        scratch: &'s mut SimScratch,
    ) -> &'s FaultReport {
        let p = plan.p();
        if !fault.is_none() {
            let stream = (seed, label, rep);
            self.run_faulty(plan, payload, fault, None, entry, net, stream, scratch);
            return &scratch.report;
        }
        assert_eq!(entry.len(), p, "entry vector length");
        scratch.stages.ensure(p, 1);
        scratch.stages.cur[..p].copy_from_slice(entry);
        self.run_healthy(plan, payload, None, net, (seed, label, rep), scratch);
        let report = &mut scratch.report;
        report.reset(p);
        for (out, &t) in report.outcomes.iter_mut().zip(&scratch.stages.cur) {
            *out = RankOutcome::Completed(t);
        }
        report
    }

    /// One cold-start repetition of a compiled pattern — `net` is reset
    /// first, every rank enters at zero — with multipliers from the
    /// stream `(seed, BARRIER_JITTER_LABEL, rep)`; returns the worst-case
    /// (max) completion time. Repetition `rep` is bit-identical to lane
    /// `rep - first_rep` of [`BarrierSim::run_batch_compiled`], and
    /// repetitions reusing one `(net, scratch)` pair are allocation-free.
    pub fn run_total_batched(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        seed: u64,
        rep: u64,
        net: &mut NetState,
        scratch: &mut SimScratch,
    ) -> f64 {
        net.reset();
        let p = plan.p();
        scratch.stages.ensure(p, 1);
        scratch.stages.cur[..p].fill(0.0);
        let stream = (seed, BARRIER_JITTER_LABEL, rep);
        self.run_healthy(plan, payload, None, net, stream, scratch);
        scratch.stages.cur[..p]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// A healthy width-1 run from the entry times in `scratch`, leaving
    /// the exits there; `ranks` maps plan ranks to placement ranks.
    pub(crate) fn run_healthy(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        ranks: Option<&[usize]>,
        net: &mut NetState,
        stream: (u64, u64, u64),
        scratch: &mut SimScratch,
    ) {
        let kernel = Kernel {
            sim: *self,
            plan,
            payload,
            ranks,
            lanes: 1,
            stream,
        };
        let SimScratch { stages, jitter, .. } = scratch;
        kernel.run(stages, net, jitter, &mut Healthy);
    }

    /// Repeated cold-start runs with independent jitter streams, in
    /// lanes: repetitions execute [`MEASURE_LANES`] at a time through
    /// [`BarrierSim::run_batch_compiled`], fanned out on [`hpm_par`] with
    /// one [`LaneScratch`] per worker. Sample `r` is bit-identical to
    /// [`BarrierSim::run_total_batched`] at `rep = r`, at any lane width
    /// and any thread count.
    pub fn measure<P: CommPattern + ?Sized + Sync>(
        &self,
        pattern: &P,
        payload: &PayloadSchedule,
        reps: usize,
        seed: u64,
    ) -> BarrierMeasurement {
        self.measure_compiled(&pattern.plan(), payload, reps, seed)
    }

    /// [`BarrierSim::measure`] over an already-compiled pattern — the
    /// entry point of the scale path, where patterns are authored
    /// sparsely (see `StagePlan::from_edges`) and a dense intermediate
    /// would dwarf the simulation state.
    pub fn measure_compiled(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        reps: usize,
        seed: u64,
    ) -> BarrierMeasurement {
        let batches = reps.div_ceil(MEASURE_LANES);
        let chunks = hpm_par::par_map_indexed_with(batches, LaneScratch::new, |scratch, b| {
            let first = b * MEASURE_LANES;
            let lanes = MEASURE_LANES.min(reps - first);
            self.run_batch_compiled(plan, payload, seed, first as u64, lanes, scratch)
                .to_vec()
        });
        BarrierMeasurement {
            samples: chunks.concat(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::xeon_cluster_params;
    use hpm_core::matrix::IMat;
    use hpm_core::pattern::BarrierPattern;
    use hpm_stats::fault::FaultModel;
    use hpm_topology::{cluster_8x2x4, PlacementPolicy};

    fn linear(p: usize) -> BarrierPattern {
        let gather: Vec<(usize, usize)> = (1..p).map(|i| (i, 0)).collect();
        let release: Vec<(usize, usize)> = (1..p).map(|i| (0, i)).collect();
        BarrierPattern::new(
            "linear",
            p,
            vec![IMat::from_edges(p, &gather), IMat::from_edges(p, &release)],
        )
    }

    fn dissemination(p: usize) -> BarrierPattern {
        let stages = (p as f64).log2().ceil() as usize;
        let mats = (0..stages)
            .map(|s| {
                let edges: Vec<(usize, usize)> = (0..p).map(|i| (i, (i + (1 << s)) % p)).collect();
                IMat::from_edges(p, &edges)
            })
            .collect();
        BarrierPattern::new("dissemination", p, mats)
    }

    #[test]
    fn deterministic_given_seed() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 32);
        let sim = BarrierSim::new(&params, &placement);
        let a = sim.measure(&dissemination(32), &PayloadSchedule::none(), 5, 77);
        let b = sim.measure(&dissemination(32), &PayloadSchedule::none(), 5, 77);
        assert_eq!(a.samples, b.samples);
    }

    /// Parallel repetitions return the same samples, in the same order,
    /// as a serial loop — per-rep derived RNG streams make the schedule
    /// irrelevant.
    #[test]
    fn parallel_measure_matches_serial_bitwise() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 24);
        let sim = BarrierSim::new(&params, &placement);
        for seed in [7u64, 77, 777] {
            let serial = hpm_par::with_threads(Some(1), || {
                sim.measure(&dissemination(24), &PayloadSchedule::none(), 16, seed)
            });
            for threads in [2usize, 5, 16] {
                let par = hpm_par::with_threads(Some(threads), || {
                    sim.measure(&dissemination(24), &PayloadSchedule::none(), 16, seed)
                });
                assert_eq!(serial.samples, par.samples, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn dissemination_beats_linear_at_scale() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
        let sim = BarrierSim::new(&params, &placement);
        let lin = sim
            .measure(&linear(64), &PayloadSchedule::none(), 8, 1)
            .mean();
        let dis = sim
            .measure(&dissemination(64), &PayloadSchedule::none(), 8, 1)
            .mean();
        assert!(lin > 2.0 * dis, "linear {lin} vs dissemination {dis}");
    }

    #[test]
    fn single_node_barrier_is_microseconds() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 8);
        let sim = BarrierSim::new(&params, &placement);
        let t = sim
            .measure(&dissemination(8), &PayloadSchedule::none(), 8, 2)
            .mean();
        assert!(t > 0.0 && t < 50e-6, "one-node dissemination {t}");
    }

    #[test]
    fn multi_node_barrier_is_submillisecond_but_larger() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
        let sim = BarrierSim::new(&params, &placement);
        let t = sim
            .measure(&dissemination(64), &PayloadSchedule::none(), 8, 3)
            .mean();
        assert!(
            t > 50e-6 && t < 2e-3,
            "full-cluster dissemination {t} out of expected band"
        );
    }

    #[test]
    fn payload_slows_the_barrier() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
        let sim = BarrierSim::new(&params, &placement);
        let plain = sim
            .measure(&dissemination(64), &PayloadSchedule::none(), 8, 4)
            .mean();
        let mapped = sim
            .measure(
                &dissemination(64),
                &PayloadSchedule::dissemination_count_map(64),
                8,
                4,
            )
            .mean();
        assert!(mapped > plain, "payload {mapped} vs plain {plain}");
    }

    #[test]
    fn linear_scales_linearly_dissemination_logarithmically() {
        let params = xeon_cluster_params().noiseless();
        let placement64 = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
        let placement16 = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let s64 = BarrierSim::new(&params, &placement64);
        let s16 = BarrierSim::new(&params, &placement16);
        let lin_ratio = s64
            .measure(&linear(64), &PayloadSchedule::none(), 3, 5)
            .mean()
            / s16
                .measure(&linear(16), &PayloadSchedule::none(), 3, 5)
                .mean();
        let dis_ratio = s64
            .measure(&dissemination(64), &PayloadSchedule::none(), 3, 5)
            .mean()
            / s16
                .measure(&dissemination(16), &PayloadSchedule::none(), 3, 5)
                .mean();
        // 4x process growth: linear should grow ~4x, dissemination ~6/4x.
        assert!(lin_ratio > 2.5, "linear ratio {lin_ratio}");
        assert!(dis_ratio < 2.5, "dissemination ratio {dis_ratio}");
    }

    #[test]
    fn entry_skew_delays_completion() {
        // Delaying one process delays the barrier by about the same amount
        // — the empirical verification §5.5 describes.
        let params = xeon_cluster_params().noiseless();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(16).plan();
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        let mut run = |entry: &[f64]| {
            net.reset();
            sim.run_once(
                &plan,
                &PayloadSchedule::none(),
                &FaultModel::NONE,
                entry,
                &mut net,
                9,
                BARRIER_JITTER_LABEL,
                0,
                &mut scratch,
            )
            .total()
        };
        let base = run(&[0.0; 16]);
        let mut entry = vec![0.0; 16];
        entry[7] = 500e-6;
        let delayed = run(&entry);
        assert!(
            delayed >= base + 400e-6,
            "delay must propagate: base {base}, delayed {delayed}"
        );
    }

    /// A healthy single run is a cold-start repetition when entered at
    /// zero: `run_once` under `FaultModel::NONE` and `run_total_batched`
    /// agree bitwise, and the report holds every exit as `Completed`.
    #[test]
    fn healthy_run_once_matches_cold_start_repetition() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 24);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(24).plan();
        let payload = PayloadSchedule::dissemination_count_map(24);
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        for rep in 0..4u64 {
            let cold = sim.run_total_batched(&plan, &payload, 5, rep, &mut net, &mut scratch);
            net.reset();
            let report = sim.run_once(
                &plan,
                &payload,
                &FaultModel::NONE,
                &[0.0; 24],
                &mut net,
                5,
                BARRIER_JITTER_LABEL,
                rep,
                &mut scratch,
            );
            assert!(report.all_completed());
            assert_eq!(report.total().to_bits(), cold.to_bits(), "rep {rep}");
        }
    }
}
