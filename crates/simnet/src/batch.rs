//! The stage kernel: the one executor of the Fig. 5.5 stage recurrence,
//! over lane-major state and behind one fault-policy seam.
//!
//! Every barrier execution runs `Kernel::run`: measurement batches at
//! `L` lanes, and at width 1 the BSPlib sync, `run_total_batched`, the
//! faulty runs and the recovery re-execution. Per-rank times are lane
//! vectors (`state[rank·L + lane]`), so the pattern is walked once per
//! batch and each edge updates all lanes in a short loop of identical
//! straight-line arithmetic. The draw-major jitter table (row `d` = draw
//! `d` of every lane) is consumed in one fixed order — every rank's entry
//! draw, then per rank per edge the `o_send`/wire/`o_recv`/ack quadruple
//! — so lane `l` is bit-identical to the width-1 run of its repetition.
//!
//! The `Policy` type parameter is the fault seam: `Healthy` is a
//! zero-sized type whose constant hooks compile every fault branch and
//! every `×1.0` away; the fault layer's `Faulty` policy carries the
//! realized fault plan, drop stream and timeout bookkeeping.

use crate::barrier::{BarrierSim, BARRIER_JITTER_LABEL, MEASURE_LANES};
use crate::net::{round_trip, Fate, Hazard, NetState};
use crate::params::{LinkCost, PlatformParams};
use hpm_core::plan::{CompiledPattern, StagePlan};
use hpm_core::predictor::PayloadSchedule;
use hpm_stats::rng::JitterBuf;
use hpm_topology::LinkClass;

/// The fault seam of the stage kernel. The default hooks are the healthy
/// cluster; a policy that can fail overrides them and sets `FAULTY`.
pub(crate) trait Policy {
    /// False compiles every fault branch out of the shared signal step.
    const FAULTY: bool;

    /// Service-time multiplier of original rank `r`'s node.
    fn slow(&self, _r: usize) -> f64 {
        1.0
    }

    /// The fault terms of the signal `src → dst` (original ranks); called
    /// once per signal, before its lanes run.
    fn hazard(&mut self, _src: usize, _dst: usize, _class: LinkClass) -> Hazard {
        Hazard::NONE
    }

    /// Books the fate of the signal `i → j` (plan ranks).
    fn book(&mut self, _i: usize, _j: usize, _h: &Hazard, _fate: &Fate) {}

    /// Closes a stage after the exits in `nxt` are known.
    fn stage_end(&mut self, _stage: &StagePlan, _posted: &[f64], _nxt: &mut [f64]) {}
}

/// The healthy cluster: nothing fails.
pub(crate) struct Healthy;

impl Policy for Healthy {
    const FAULTY: bool = false;
}

/// Per-(rank, lane) stage times of the kernel: stage entries `cur` (the
/// exits after a run), exits being accumulated `nxt`, library-posted
/// times, latest inbound processing times, and the ack chain of the rank
/// currently sending, per lane.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stages {
    pub cur: Vec<f64>,
    nxt: Vec<f64>,
    posted: Vec<f64>,
    last_arrival: Vec<f64>,
    acks: Vec<f64>,
}

impl Stages {
    /// Grows the buffers to `p` ranks of `lanes` lanes.
    pub fn ensure(&mut self, p: usize, lanes: usize) {
        let Stages {
            cur,
            nxt,
            posted,
            last_arrival,
            acks,
        } = self;
        for v in [cur, nxt, posted, last_arrival] {
            v.resize(v.len().max(p * lanes), 0.0);
        }
        acks.resize(acks.len().max(lanes), 0.0);
    }
}

/// One execution of a compiled plan over `lanes` repetitions, lane `l`
/// with jitter from the stream `(seed, label, first_rep + l)`.
pub(crate) struct Kernel<'a> {
    pub sim: BarrierSim<'a>,
    pub plan: &'a CompiledPattern,
    pub payload: &'a PayloadSchedule,
    /// Original rank of every plan rank (the recovery re-execution's
    /// survivors); `None` is the identity.
    pub ranks: Option<&'a [usize]>,
    pub lanes: usize,
    /// `(seed, label, first_rep)`.
    pub stream: (u64, u64, u64),
}

impl Kernel<'_> {
    /// Fills `jitter` to the plan's draw count and runs every stage from
    /// the entry times in `st.cur`, leaving the exits there.
    /// `net` holds the lane-major NIC and receive queues of the original
    /// nodes and ranks.
    pub fn run<P: Policy>(
        &self,
        st: &mut Stages,
        net: &mut NetState,
        jitter: &mut JitterBuf,
        pol: &mut P,
    ) {
        // The widths in use get their lane count as a constant, so their
        // lane loops and copies unroll; `L = 0` reads it at run time.
        match self.lanes {
            1 => self.run_with::<P, 1>(st, net, jitter, pol),
            MEASURE_LANES => self.run_with::<P, MEASURE_LANES>(st, net, jitter, pol),
            _ => self.run_with::<P, 0>(st, net, jitter, pol),
        }
    }

    fn run_with<P: Policy, const L: usize>(
        &self,
        st: &mut Stages,
        net: &mut NetState,
        jitter: &mut JitterBuf,
        pol: &mut P,
    ) {
        let BarrierSim { params, placement } = self.sim;
        let lanes = if L == 0 { self.lanes } else { L };
        let p = self.plan.p();
        assert_eq!(
            self.ranks.map_or(placement.nprocs(), <[usize]>::len),
            p,
            "placement process count"
        );
        st.ensure(p, lanes);
        let (seed, label, first_rep) = self.stream;
        let draws = self.plan.jitter_draws();
        jitter.fill_lanes(params.jitter.sigma, seed, label, first_rep, lanes, draws);
        let el = p * lanes;
        let orig = |i: usize| self.ranks.map_or(i, |r| r[i]);
        let Stages {
            cur,
            nxt,
            posted,
            last_arrival,
            acks,
        } = st;
        let (nic_free, recv_busy) = (&mut net.nic_free, &mut net.recv_busy);
        for s in 0..self.plan.stages() {
            let stage = self.plan.stage(s);
            let bytes = self.payload.bytes(s);
            // Library call: every rank posts its receives after the call
            // overhead.
            for i in 0..p {
                let m = jitter.rows(1);
                let slow = pol.slow(orig(i));
                let base = i * lanes;
                for l in 0..lanes {
                    posted[base + l] = cur[base + l] + params.call_overhead * m[l] * slow;
                }
            }
            nxt[..el].copy_from_slice(&posted[..el]);
            last_arrival[..el].fill(f64::NEG_INFINITY);
            for i in 0..p {
                let oi = orig(i);
                acks[..lanes].copy_from_slice(&posted[i * lanes..(i + 1) * lanes]);
                for &j in stage.dsts(i) {
                    let oj = orig(j);
                    let class = placement.link(oi, oj);
                    let lc = params.link(class);
                    let wire_base = lc.latency + bytes as f64 * lc.inv_bandwidth;
                    let h = pol.hazard(oi, oj, class);
                    let m = jitter.rows(hpm_core::plan::SIGNAL_JITTER_DRAWS);
                    let nic = (class == LinkClass::Remote).then(|| {
                        let node = placement.node_of(oi);
                        &mut nic_free[node * lanes..(node + 1) * lanes]
                    });
                    signal_lanes(
                        (params, &lc, wire_base, &h),
                        (i, j),
                        nic,
                        &mut recv_busy[oj * lanes..(oj + 1) * lanes],
                        &mut last_arrival[j * lanes..(j + 1) * lanes],
                        &mut acks[..lanes],
                        &posted[j * lanes..(j + 1) * lanes],
                        m,
                        pol,
                    );
                }
                let base = i * lanes;
                for l in 0..lanes {
                    if acks[l] > nxt[base + l] {
                        nxt[base + l] = acks[l];
                    }
                }
            }
            for (n, &a) in nxt[..el].iter_mut().zip(&last_arrival[..el]) {
                *n = n.max(a);
            }
            pol.stage_end(stage, &posted[..el], &mut nxt[..el]);
            std::mem::swap(cur, nxt);
        }
        debug_assert!(
            params.jitter.sigma == 0.0 || jitter.consumed() == draws,
            "the kernel consumed a different jitter-draw count than the plan reports"
        );
    }
}

/// Signal `i → j` in every lane: the shared step, then the sender's ack
/// chain, the receiver's latest arrival and the policy's bookkeeping.
/// Slice arguments (not captured buffers) tell the compiler the lane
/// vectors never alias, which keeps the lane loop vectorizable.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn signal_lanes<P: Policy>(
    (params, lc, wire_base, h): (&PlatformParams, &LinkCost, f64, &Hazard),
    (i, j): (usize, usize),
    mut nic: Option<&mut [f64]>,
    recv_busy: &mut [f64],
    last_arrival: &mut [f64],
    acks: &mut [f64],
    posted_j: &[f64],
    m: &[f64],
    pol: &mut P,
) {
    let lanes = acks.len();
    let (rb, la, pj, m) = (
        &mut recv_busy[..lanes],
        &mut last_arrival[..lanes],
        &posted_j[..lanes],
        &m[..4 * lanes],
    );
    for l in 0..lanes {
        let mults = [m[l], m[lanes + l], m[2 * lanes + l], m[3 * lanes + l]];
        let free = nic.as_mut().map(|n| &mut n[l]);
        let fate = round_trip::<P>(
            params, lc, wire_base, h, free, &mut rb[l], acks[l], pj[l], mults,
        );
        match fate {
            Fate::Delivered { ack, processed } => {
                if processed > la[l] {
                    la[l] = processed;
                }
                acks[l] = ack;
            }
            Fate::Lost(gave_up) => acks[l] = gave_up,
            Fate::SenderDead => {}
        }
        pol.book(i, j, h, &fate);
    }
}

/// Lane-major scratch of [`BarrierSim::run_batch_compiled`]: per-(rank,
/// lane) stage times, per-(node, lane) NIC queues, per-(rank, lane)
/// receive queues, the batch jitter table and the per-lane totals. One
/// scratch serves any pattern and lane width; buffers grow to the
/// high-water mark and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct LaneScratch {
    stages: Stages,
    net: NetState,
    jitter: JitterBuf,
    totals: Vec<f64>,
}

impl LaneScratch {
    /// An empty scratch; the first run sizes it.
    pub fn new() -> LaneScratch {
        LaneScratch::default()
    }

    /// The jitter table of the most recent batch — lets audit tests
    /// compare consumed rows against the plan's reported draw count.
    pub fn jitter(&self) -> &JitterBuf {
        &self.jitter
    }
}

impl BarrierSim<'_> {
    /// Runs `lanes` cold-start repetitions of a compiled pattern
    /// simultaneously, repetition `first_rep + l` in lane `l`; returns
    /// the per-lane worst-case completion times.
    ///
    /// Sample `l` is bit-identical to
    /// `run_total_batched(plan, payload, seed, first_rep + l, ..)` —
    /// lane width and batch grouping are invisible in the numbers.
    pub fn run_batch_compiled<'s>(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        seed: u64,
        first_rep: u64,
        lanes: usize,
        scratch: &'s mut LaneScratch,
    ) -> &'s [f64] {
        assert!(lanes >= 1, "at least one lane");
        let p = plan.p();
        let nodes = self.placement.shape().nodes();
        let LaneScratch {
            stages,
            net,
            jitter,
            totals,
        } = scratch;
        stages.ensure(p, lanes);
        stages.cur[..p * lanes].fill(0.0);
        net.nic_free.clear();
        net.nic_free.resize(nodes * lanes, 0.0);
        net.recv_busy.clear();
        net.recv_busy.resize(p * lanes, 0.0);
        let kernel = Kernel {
            sim: *self,
            plan,
            payload,
            ranks: None,
            lanes,
            stream: (seed, BARRIER_JITTER_LABEL, first_rep),
        };
        kernel.run(stages, net, jitter, &mut Healthy);
        totals.clear();
        totals.extend((0..lanes).map(|l| {
            (0..p)
                .map(|i| stages.cur[i * lanes + l])
                .fold(f64::NEG_INFINITY, f64::max)
        }));
        &scratch.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::SimScratch;
    use crate::params::xeon_cluster_params;
    use hpm_core::matrix::IMat;
    use hpm_core::pattern::{BarrierPattern, CommPattern};
    use hpm_core::predictor::PayloadSchedule;
    use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

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

    /// Every lane of a batch equals the one-at-a-time batched run of the
    /// same repetition — for several lane widths, including widths that
    /// do not divide the repetition count.
    #[test]
    fn lanes_match_single_repetition_runs_bitwise() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 24);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(24).plan();
        let payload = PayloadSchedule::dissemination_count_map(24);
        let mut net = NetState::new(&placement);
        let mut scalar = SimScratch::new(&placement);
        let singles: Vec<f64> = (0..12)
            .map(|r| sim.run_total_batched(&plan, &payload, 77, r, &mut net, &mut scalar))
            .collect();
        let mut scratch = LaneScratch::new();
        for lanes in [1usize, 3, 8, 12] {
            let mut got = Vec::new();
            let mut first = 0usize;
            while first < 12 {
                let l = lanes.min(12 - first);
                got.extend_from_slice(sim.run_batch_compiled(
                    &plan,
                    &payload,
                    77,
                    first as u64,
                    l,
                    &mut scratch,
                ));
                first += l;
            }
            assert_eq!(got, singles, "lane width {lanes}");
        }
    }

    /// With jitter off every multiplier is exactly 1.0: every lane of a
    /// batch equals the width-1 run bit for bit, whatever its seed — the
    /// noiseless path does not move.
    #[test]
    fn noiseless_lanes_match_single_run_bitwise() {
        let params = xeon_cluster_params().noiseless();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(16).plan();
        let payload = PayloadSchedule::none();
        let mut net = NetState::new(&placement);
        let mut single = SimScratch::new(&placement);
        let want = sim.run_total_batched(&plan, &payload, 5, 0, &mut net, &mut single);
        let mut scratch = LaneScratch::new();
        let got = sim.run_batch_compiled(&plan, &payload, 5, 0, 4, &mut scratch);
        assert!(got.iter().all(|&t| t.to_bits() == want.to_bits()));
    }

    /// Draw-count audit (lanes and width 1): the kernel consumes exactly
    /// the draw count the compiled plan reports, per repetition. The
    /// static analyzer recomputes the same count from the CSR shape
    /// alone — asserting it agrees here ties the engines' dynamic
    /// accounting to the `jitter-draws` rule of `hpm-analyze`, so the
    /// two can never drift apart silently.
    #[test]
    fn executor_consumes_exactly_the_plan_reported_draws() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 24);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(24).plan();
        // Static twin of this audit: a clean analysis certifies the
        // plan's reported draw count matches what the stages will make
        // the engines consume below.
        assert!(hpm_analyze::analyze(&plan).is_empty());
        let payload = PayloadSchedule::dissemination_count_map(24);
        // Lane engine: rows consumed == draws, for every lane width.
        let mut scratch = LaneScratch::new();
        for lanes in [1usize, 5, 8] {
            sim.run_batch_compiled(&plan, &payload, 3, 0, lanes, &mut scratch);
            assert_eq!(
                scratch.jitter().consumed(),
                plan.jitter_draws(),
                "lane width {lanes}"
            );
        }
        // Width 1: same count.
        let mut net = NetState::new(&placement);
        let mut scalar = SimScratch::new(&placement);
        sim.run_total_batched(&plan, &payload, 3, 0, &mut net, &mut scalar);
        assert_eq!(scalar.jitter().consumed(), plan.jitter_draws());
    }

    /// Statistical equivalence: the jittered median tracks the
    /// noise-free completion time (the log-normal multiplier has median
    /// 1; the max over processes skews the composite slightly upward).
    #[test]
    fn jittered_median_tracks_noise_free_value() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let jittered = BarrierSim::new(&params, &placement);
        let noiseless_params = params.noiseless();
        let noiseless = BarrierSim::new(&noiseless_params, &placement);
        let pat = dissemination(16);
        let payload = PayloadSchedule::none();
        let med = jittered.measure(&pat, &payload, 512, 9).median();
        let base = noiseless.measure(&pat, &payload, 1, 9).samples[0];
        let rel = (med - base) / base;
        assert!(
            (-0.02..0.15).contains(&rel),
            "median {med} vs noise-free {base} (rel {rel})"
        );
    }
}
