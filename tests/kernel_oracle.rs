//! An independent oracle for the stage kernel.
//!
//! `Reference` below is a naive executor written from DESIGN.md ("The
//! flat simulation core", "The fault layer", "The recovery layer"), not
//! from the kernel: it expands each stage into its list of signal events
//! (senders by rank, destinations ascending) and processes them one at a
//! time with scalar arithmetic in the documented f64 operation order. The
//! tests compare it bitwise against every public way of running the
//! kernel — healthy single runs, `MEASURE_LANES`-wide batches, faulty
//! runs and recovering runs with their survivor re-execution — on random
//! plans, placements, payloads and fault models at p ∈ 1..64.

use hpm::model::knowledge::KnowledgeGoal;
use hpm::model::plan::CompiledPattern;
use hpm::model::predictor::PayloadSchedule;
use hpm::model::recovery::repair_plan;
use hpm::simnet::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
use hpm::simnet::params::{xeon_cluster_params, PlatformParams};
use hpm::simnet::recovery::{RecoveryReport, RecoveryScratch, RECOVERY_JITTER_LABEL};
use hpm::simnet::{FaultReport, NetState, RankOutcome};
use hpm::stats::fault::{attempts_from_uniform, DropProb, DropStream, FaultModel, FaultPlan};
use hpm::stats::rng::JitterBuf;
use hpm::stats::SplitMix64;
use hpm::topology::{cluster_12x2x6, cluster_8x2x4, LinkClass, Placement, PlacementPolicy};

/// Faults as the reference sees them: the realized plan, the model's
/// retry knobs and the per-signal drop stream.
struct Faults<'a> {
    model: &'a FaultModel,
    plan: &'a FaultPlan,
    drops: DropStream,
}

/// The naive executor: its own NIC and receive queues, indexed by
/// placement rank and node, carried across runs like `NetState`.
struct Reference<'a> {
    params: &'a PlatformParams,
    placement: &'a Placement,
    nic: Vec<f64>,
    recv: Vec<f64>,
}

impl<'a> Reference<'a> {
    fn new(params: &'a PlatformParams, placement: &'a Placement) -> Reference<'a> {
        Reference {
            params,
            placement,
            nic: vec![0.0; placement.shape().nodes()],
            recv: vec![0.0; placement.nprocs()],
        }
    }

    /// Runs the stages (`stages[s]` = the stage's `(src, dst)` signals,
    /// in plan ranks) from `entry`; `ranks[i]` is plan rank `i`'s
    /// placement rank. Returns the exits and a report (all `Completed`
    /// without faults).
    fn run(
        &mut self,
        stages: &[Vec<(usize, usize)>],
        payload: &PayloadSchedule,
        ranks: &[usize],
        entry: &[f64],
        jit: &mut JitterBuf,
        mut faults: Option<&mut Faults>,
    ) -> (Vec<f64>, FaultReport) {
        let p = ranks.len();
        let crash = |r: usize, f: &Option<&mut Faults>| {
            f.as_ref().map_or(f64::INFINITY, |f| f.plan.crash_time[r])
        };
        let slow = |r: usize, f: &Option<&mut Faults>| {
            f.as_ref()
                .map_or(1.0, |f| f.plan.node_slow[self.placement.node_of(r)])
        };
        let loss_delay = faults.as_ref().map_or(0.0, |f| f.model.loss_delay());
        let mut report = FaultReport::new(p);
        let mut timed_out = vec![false; p];
        let mut t = entry.to_vec();
        for (s, events) in stages.iter().enumerate() {
            let bytes = payload.bytes(s) as f64;
            let mut posted = vec![0.0; p];
            for i in 0..p {
                posted[i] =
                    t[i] + self.params.call_overhead * jit.next_mult() * slow(ranks[i], &faults);
            }
            let mut exit = posted.clone();
            let mut latest_in = vec![f64::NEG_INFINITY; p];
            let mut received = vec![0usize; p];
            let mut expected = vec![0usize; p];
            // The sender's clock: its post, then each signal's ack (or
            // give-up time) in turn.
            let mut clock = posted.clone();
            for &(i, j) in events {
                expected[j] += 1;
                let (a, b) = (ranks[i], ranks[j]);
                let u = faults.as_mut().map(|f| f.drops.next_uniform());
                let m: Vec<f64> = (0..4).map(|_| jit.next_mult()).collect();
                if clock[i] >= crash(a, &faults) {
                    report.suppressed_signals += 1;
                    continue;
                }
                let class = self.placement.link(a, b);
                let lc = self.params.link(class);
                let (na, nb) = (self.placement.node_of(a), self.placement.node_of(b));
                let send_done = clock[i] + lc.o_send * m[0] * slow(a, &faults);
                let (mut deg, mut attempts, mut retry_delay) = (1.0, 1, 0.0);
                if let (Some(f), Some(u)) = (faults.as_ref(), u) {
                    let drop_p = if class == LinkClass::Remote {
                        f.model.drop.remote
                    } else {
                        f.model.drop.local
                    };
                    attempts = attempts_from_uniform(u, drop_p);
                    deg = f.plan.wire_mult(na, nb);
                    if attempts > f.model.max_retries + 1 {
                        report.lost_signals += 1;
                        timed_out[i] = true;
                        clock[i] = send_done + loss_delay;
                        continue;
                    }
                    retry_delay = f.model.retry_delay(attempts);
                }
                let ready = send_done + retry_delay;
                let depart = if class == LinkClass::Remote {
                    let d = ready.max(self.nic[na]);
                    self.nic[na] = d + self.params.nic_gap;
                    d
                } else {
                    ready
                };
                let arrival = depart + (lc.latency + bytes * lc.inv_bandwidth) * m[1] * deg;
                if arrival >= crash(b, &faults) {
                    report.lost_signals += 1;
                    timed_out[i] = true;
                    clock[i] = send_done + loss_delay;
                    continue;
                }
                let start = if arrival < posted[j] {
                    posted[j] + self.params.unexpected_penalty
                } else {
                    arrival
                };
                let done = start.max(self.recv[b]) + lc.o_recv * m[2] * slow(b, &faults);
                self.recv[b] = done;
                latest_in[j] = latest_in[j].max(done);
                received[j] += 1;
                report.retries += u64::from(attempts - 1);
                report.retry_delay += retry_delay;
                clock[i] = done + lc.latency * self.params.ack_factor * m[3] * deg;
            }
            for i in 0..p {
                exit[i] = exit[i].max(clock[i]).max(latest_in[i]);
                if faults.is_some()
                    && received[i] < expected[i]
                    && crash(ranks[i], &faults).is_infinite()
                {
                    timed_out[i] = true;
                    exit[i] = exit[i].max(posted[i] + loss_delay);
                }
            }
            t = exit;
        }
        for i in 0..p {
            let c = crash(ranks[i], &faults);
            report.outcomes[i] = if c.is_finite() {
                RankOutcome::Crashed(c)
            } else if timed_out[i] {
                RankOutcome::TimedOut(t[i])
            } else {
                RankOutcome::Completed(t[i])
            };
        }
        (t, report)
    }
}

/// The signal lists of a compiled plan, in plan ranks.
fn events(plan: &CompiledPattern) -> Vec<Vec<(usize, usize)>> {
    (0..plan.stages())
        .map(|s| {
            let stage = plan.stage(s);
            (0..plan.p())
                .flat_map(|i| stage.dsts(i).iter().map(move |&j| (i, j)))
                .collect()
        })
        .collect()
}

/// One random scenario: platform, placement, plan (with its event lists
/// authored independently of the CSR) and payload.
struct Case {
    params: PlatformParams,
    placement: Placement,
    plan: CompiledPattern,
    stages: Vec<Vec<(usize, usize)>>,
    payload: PayloadSchedule,
}

fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn random_case(rng: &mut SplitMix64) -> Case {
    let p = 1 + pick(rng, 64);
    let shape = if pick(rng, 2) == 0 {
        cluster_8x2x4()
    } else {
        cluster_12x2x6()
    };
    let policy = match pick(rng, 3) {
        0 => PlacementPolicy::Block,
        2 if p <= shape.nodes() => PlacementPolicy::Spread,
        _ => PlacementPolicy::RoundRobin,
    };
    let n_stages = 1 + pick(rng, 5);
    let density = 1 + pick(rng, 4);
    let mut stages = Vec::new();
    for _ in 0..n_stages {
        let mut edges = Vec::new();
        for i in 0..p {
            for j in 0..p {
                if i != j && pick(rng, p.max(2)) < density {
                    edges.push((i, j));
                }
            }
        }
        stages.push(edges);
    }
    let payload = match pick(rng, 3) {
        0 => PayloadSchedule::uniform(n_stages, 1 << pick(rng, 14)),
        _ => PayloadSchedule::none(),
    };
    let params = if pick(rng, 4) == 0 {
        xeon_cluster_params().noiseless()
    } else {
        xeon_cluster_params()
    };
    Case {
        plan: CompiledPattern::from_stage_edges("random", p, &stages),
        placement: Placement::new(shape, policy, p),
        params,
        stages,
        payload,
    }
}

fn random_fault(rng: &mut SplitMix64) -> FaultModel {
    let unit = |rng: &mut SplitMix64| rng.next_unit_open();
    FaultModel {
        crash_count: pick(rng, 3),
        crash_window: 2e-4 * unit(rng),
        drop: DropProb {
            local: 0.05 * unit(rng),
            remote: 0.1 * unit(rng),
        },
        degraded_prob: 0.3 * unit(rng),
        degraded_mult: 1.0 + 2.0 * unit(rng),
        slow_prob: 0.3 * unit(rng),
        slow_mult: 1.0 + unit(rng),
        straggler_prob: 0.2 * unit(rng),
        straggler_scale: 1e-4 * unit(rng),
        straggler_alpha: 1.5,
        timeout: 1e-4 + 1e-3 * unit(rng),
        max_retries: pick(rng, 4) as u32,
        ..FaultModel::NONE
    }
}

fn identity(p: usize) -> Vec<usize> {
    (0..p).collect()
}

fn jitter(
    params: &PlatformParams,
    seed: u64,
    label: u64,
    rep: u64,
    plan: &CompiledPattern,
) -> JitterBuf {
    let mut buf = JitterBuf::new();
    buf.fill(params.jitter.sigma, seed, label, rep, plan.jitter_draws());
    buf
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The reference's faulty attempt at `(seed, rep)` from a cold start,
/// leaving its queues in `reference` for a re-execution.
fn reference_attempt(
    case: &Case,
    reference: &mut Reference,
    fault: &FaultModel,
    fplan: &FaultPlan,
    seed: u64,
    rep: u64,
) -> FaultReport {
    let mut faults = Faults {
        model: fault,
        plan: fplan,
        drops: DropStream::new(seed, rep),
    };
    let mut jit = jitter(&case.params, seed, BARRIER_JITTER_LABEL, rep, &case.plan);
    let entry = fplan.straggler_delay.clone();
    let p = case.plan.p();
    reference
        .run(
            &case.stages,
            &case.payload,
            &identity(p),
            &entry,
            &mut jit,
            Some(&mut faults),
        )
        .1
}

/// The reference's recovering run: the attempt, then detection,
/// consensus and the survivors' healthy re-execution of the repaired
/// plan — with every cost written out from DESIGN.md.
fn reference_recovering(
    case: &Case,
    fault: &FaultModel,
    fplan: &FaultPlan,
    goal: KnowledgeGoal,
    seed: u64,
    rep: u64,
) -> RecoveryReport {
    let p = case.plan.p();
    let mut reference = Reference::new(&case.params, &case.placement);
    let attempt = reference_attempt(case, &mut reference, fault, fplan, seed, rep);
    let mut out = RecoveryReport::new(p);
    out.outcomes = attempt.outcomes.clone();
    out.attempt = attempt;
    let completed = |o: &RankOutcome| matches!(o, RankOutcome::Completed(_));
    if out.attempt.outcomes.iter().all(completed) {
        out.recovered = true;
        return out;
    }
    let crashed: Vec<usize> = (0..p)
        .filter(|&r| matches!(out.attempt.outcomes[r], RankOutcome::Crashed(_)))
        .collect();
    let survivors: Vec<usize> = (0..p).filter(|r| !crashed.contains(r)).collect();
    if survivors.is_empty() {
        return out;
    }
    out.detection_time = out.attempt.total() + fault.timeout;
    if survivors.len() > 1 {
        let rounds = (survivors.len() as f64).log2().ceil();
        let r = &case.params.remote;
        out.consensus_cost = rounds * (case.params.call_overhead + r.o_send + r.latency + r.o_recv);
    }
    let Some(repaired) = repair_plan(p, goal, &crashed) else {
        return out;
    };
    out.replanned = true;
    out.replan_stages = repaired.stages();
    let t0 = out.detection_time + out.consensus_cost;
    let mut jit = jitter(&case.params, seed, RECOVERY_JITTER_LABEL, rep, &repaired);
    let entry = vec![t0; survivors.len()];
    let (exits, _) = reference.run(
        &events(&repaired),
        &PayloadSchedule::none(),
        &survivors,
        &entry,
        &mut jit,
        None,
    );
    for (i, &r) in survivors.iter().enumerate() {
        out.outcomes[r] = RankOutcome::Completed(exits[i]);
    }
    out.recovered = true;
    out
}

#[test]
fn healthy_kernel_matches_the_reference_at_width_one_and_in_lanes() {
    let mut rng = SplitMix64::from_parts(2012, 1, 0);
    for case_no in 0..48 {
        let case = random_case(&mut rng);
        let sim = BarrierSim::new(&case.params, &case.placement);
        let p = case.plan.p();
        let seed = rng.next_u64();
        let reps = 11;
        let lanes = sim.measure_compiled(&case.plan, &case.payload, reps, seed);
        let mut net = NetState::new(&case.placement);
        let mut scratch = SimScratch::new(&case.placement);
        for rep in 0..reps as u64 {
            let mut reference = Reference::new(&case.params, &case.placement);
            let mut jit = jitter(&case.params, seed, BARRIER_JITTER_LABEL, rep, &case.plan);
            let (exits, _) = reference.run(
                &case.stages,
                &case.payload,
                &identity(p),
                &vec![0.0; p],
                &mut jit,
                None,
            );
            let total = exits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let single =
                sim.run_total_batched(&case.plan, &case.payload, seed, rep, &mut net, &mut scratch);
            assert_eq!(
                single.to_bits(),
                total.to_bits(),
                "case {case_no} p={p} rep {rep}: width 1"
            );
            assert_eq!(
                bits(&scratch.exits()[..p]),
                bits(&exits),
                "case {case_no} rep {rep}: exits"
            );
            assert_eq!(
                lanes.samples[rep as usize].to_bits(),
                total.to_bits(),
                "case {case_no} p={p} rep {rep}: lane batch"
            );
        }
    }
}

#[test]
fn faulty_kernel_matches_the_reference() {
    let mut rng = SplitMix64::from_parts(2012, 2, 0);
    let mut bitten = 0;
    for case_no in 0..48 {
        let case = random_case(&mut rng);
        let fault = random_fault(&mut rng);
        let sim = BarrierSim::new(&case.params, &case.placement);
        let (p, nodes) = (case.plan.p(), case.placement.shape().nodes());
        let seed = rng.next_u64();
        let reports = sim.measure_faulty(&case.plan, &case.payload, &fault, 6, seed);
        for (rep, got) in reports.iter().enumerate() {
            let rep = rep as u64;
            let fplan = FaultPlan::realize(&fault, p, nodes, seed, rep);
            let mut reference = Reference::new(&case.params, &case.placement);
            let want = reference_attempt(&case, &mut reference, &fault, &fplan, seed, rep);
            assert_eq!(got, &want, "case {case_no} p={p} rep {rep}");
            bitten += usize::from(
                !want
                    .outcomes
                    .iter()
                    .all(|o| matches!(o, RankOutcome::Completed(_))),
            );
        }
    }
    assert!(bitten > 0, "the random models must fail some rank");
}

#[test]
fn recovering_kernel_matches_the_reference() {
    let mut rng = SplitMix64::from_parts(2012, 3, 0);
    let mut replanned = 0;
    for case_no in 0..48 {
        let case = random_case(&mut rng);
        let fault = random_fault(&mut rng);
        let sim = BarrierSim::new(&case.params, &case.placement);
        let (p, nodes) = (case.plan.p(), case.placement.shape().nodes());
        let goal = match pick(&mut rng, 3) {
            0 => KnowledgeGoal::RootGathers(pick(&mut rng, p)),
            1 => KnowledgeGoal::Prefix,
            _ => KnowledgeGoal::AllToAll,
        };
        let seed = rng.next_u64();
        // Faults realized from the stream, as the sweep runs them.
        let reports = sim.measure_recovering(&case.plan, &case.payload, goal, &fault, 4, seed);
        for (rep, got) in reports.iter().enumerate() {
            let rep = rep as u64;
            let fplan = FaultPlan::realize(&fault, p, nodes, seed, rep);
            let want = reference_recovering(&case, &fault, &fplan, goal, seed, rep);
            assert_eq!(got, &want, "case {case_no} p={p} rep {rep}");
            replanned += usize::from(want.replanned);
        }
        // A forced crash set through the caller-supplied-plan entry.
        let crashed: Vec<usize> = (0..p).filter(|_| pick(&mut rng, 4) == 0).collect();
        let fplan = FaultPlan::with_crashes(p, nodes, &crashed);
        let mut net = NetState::new(&case.placement);
        let mut scratch = SimScratch::new(&case.placement);
        let mut out = RecoveryReport::new(p);
        sim.run_once_recovering_with(
            &case.plan,
            &case.payload,
            goal,
            &fault,
            &fplan,
            &vec![0.0; p],
            &mut net,
            seed,
            BARRIER_JITTER_LABEL,
            0,
            &mut scratch,
            &mut RecoveryScratch::new(),
            &mut out,
        );
        let want = reference_recovering(&case, &fault, &fplan, goal, seed, 0);
        assert_eq!(out, want, "case {case_no} p={p} crashed {crashed:?}");
        replanned += usize::from(want.replanned);
    }
    assert!(replanned > 0, "the fixtures must exercise the re-execution");
}
