//! `bsp_apps`: real-payload BSPlib programs through `run_spmd` —
//! `bspbench`, `bspinprod`, the collectives catalogue (executed, and
//! predicted against the simulated pattern), the BSP stencil under all
//! three commit disciplines, the MPI, MPI+R and hybrid stencils at
//! `LARGE_N`, a small data-carrying stencil grid, and a 32 KiB ring
//! shift written here against the BSPlib interface.

use std::time::Instant;

use hpm_bsplib::bench::bspbench;
use hpm_bsplib::inprod::bspinprod;
use hpm_bsplib::{run_spmd, BspConfig, BspCtx, BspProgram, RegHandle, StepOutcome};
use hpm_collectives::exec::{
    exchange_chunk, run_allreduce, run_broadcast_flat, run_broadcast_two_phase, run_gather,
    run_reduce, run_scan, run_total_exchange, seed_vector, CollectiveOutcome,
};
use hpm_collectives::pattern::{catalog, CollectivePattern};
use hpm_collectives::predict::{predict_collective, simulate_collective};
use hpm_core::pattern::CommPattern;
use hpm_kernels::rate::xeon_core;
use hpm_simnet::exchange::{exchange_jitter_draws, ExchangeMsg, ExchangeResult, ExchangeScratch};
use hpm_simnet::microbench::{bench_platform, MicrobenchConfig, PlatformProfile};
use hpm_simnet::params::xeon_cluster_params;
use hpm_simnet::resolve_exchange_into;
use hpm_simnet::NetState;
use hpm_stats::JitterBuf;
use hpm_stencil::bsp::{run_bsp_stencil, CommitDiscipline};
use hpm_stencil::configs::LARGE_N;
use hpm_stencil::field::sequential_reference;
use hpm_stencil::hybrid::run_hybrid_stencil;
use hpm_stencil::mpi::{run_mpi_stencil, MpiVariant};
use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

use crate::trace::span;
use crate::util::{mix, probe_placement};
use crate::{add, Counts, Op, Scale, Workload};

/// Vector length of the collectives and the ring: 4096 f64 = 32 KiB.
const N: usize = 4096;
/// Payload of the predicted collectives (the crate's validation size).
const PATTERN_BYTES: u64 = 1024;
/// Repetitions of the simulated collective patterns.
const SIM_REPS: usize = 8;
/// Jacobi iterations per stencil run.
const ITERS: usize = 4;
/// Side of the data-carrying stencil grid.
const DATA_N: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Task {
    Bench,
    InProd,
    Ring,
    Exec(usize),
    Predict(usize),
    Stencil(usize),
    DataStencil,
}

/// The collectives `hpm_collectives::exec` runs.
const EXEC: [&str; 7] = [
    "broadcast-flat",
    "broadcast-two-phase",
    "reduce",
    "allreduce",
    "scan",
    "gather",
    "total-exchange",
];

const STENCILS: [&str; 6] = ["BSP-hp", "BSP-buf", "BSP-late", "MPI", "MPI+R", "Hybrid"];

struct Machine {
    cfg: BspConfig,
    profile: PlatformProfile,
    /// The collectives catalogue at this p, with each pattern's jitter
    /// draws per repetition.
    patterns: Vec<(CollectivePattern, usize)>,
}

struct BspApps {
    machines: Vec<Machine>,
    ops: Vec<(usize, Task)>,
    seed: u64,
}

pub fn setup(scale: Scale, seed: u64, counts: &mut Counts) -> Box<dyn Workload> {
    let ps: &[usize] = match scale {
        Scale::Full => &[4, 16, 64],
        Scale::Smoke => &[4, 8],
    };
    let params = xeon_cluster_params();
    let micro = MicrobenchConfig {
        reps: 7,
        max_requests: 4,
        size_exponents: (0, 14),
        pair_sample: None,
    };
    let mut machines = Vec::new();
    let mut ops = Vec::new();
    for (m, &p) in ps.iter().enumerate() {
        let placement = span("topology.placement", || {
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p)
        });
        // The cost profile the collective predictions use.
        let profile = span("simnet.microbench", || {
            bench_platform(&params, &placement, &micro, mix(seed, p as u64))
        });
        add(counts, "simnet.microbench.pairs", (p * (p - 1)) as f64);
        let cfg = BspConfig::new(
            params.clone(),
            placement,
            xeon_core(),
            mix(seed, 1000 + p as u64),
        );
        let patterns: Vec<(CollectivePattern, usize)> = span("core.compile", || {
            catalog(p, 0, PATTERN_BYTES)
                .into_iter()
                .map(|pat| {
                    let draws = pat.plan().jitter_draws();
                    (pat, draws)
                })
                .collect()
        });
        ops.extend((0..patterns.len()).map(|c| (m, Task::Predict(c))));
        machines.push(Machine {
            cfg,
            profile,
            patterns,
        });
        ops.extend([(m, Task::Bench), (m, Task::InProd), (m, Task::Ring)]);
        ops.extend((0..EXEC.len()).map(|c| (m, Task::Exec(c))));
        let whole_nodes = p % cluster_8x2x4().cores_per_node() == 0;
        ops.extend(
            (0..STENCILS.len())
                .filter(|&s| STENCILS[s] != "Hybrid" || whole_nodes)
                .map(|s| (m, Task::Stencil(s))),
        );
    }
    // The data-carrying grid runs on the second machine size.
    ops.push((1.min(machines.len() - 1), Task::DataStencil));
    Box::new(BspApps {
        machines,
        ops,
        seed,
    })
}

/// Ring shift: every superstep each process puts its current 32 KiB
/// block to its right neighbour and adds what arrived from its left.
/// After `shifts` supersteps, process `i` holds the sum of the blocks of
/// processes `i-1 … i-shifts` — an exact integer-valued check.
pub struct Ring {
    pub shifts: usize,
    step: usize,
    buf: Option<RegHandle>,
    cur: Vec<f64>,
    pub acc: Vec<f64>,
}

impl Ring {
    pub fn new(shifts: usize) -> Ring {
        Ring {
            shifts,
            step: 0,
            buf: None,
            cur: Vec::new(),
            acc: vec![0.0; N],
        }
    }

    /// The block process `pid` starts with.
    pub fn block(pid: usize) -> Vec<f64> {
        seed_vector(pid, N)
    }

    /// What process `pid` of `p` must hold after a clean run.
    pub fn expected(pid: usize, p: usize, shifts: usize) -> Vec<f64> {
        let mut want = vec![0.0; N];
        for s in 1..=shifts {
            for (w, v) in want.iter_mut().zip(Ring::block((pid + p - s % p) % p)) {
                *w += v;
            }
        }
        want
    }
}

impl BspProgram for Ring {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let p = ctx.nprocs();
        match self.step {
            0 => {
                let h = ctx.alloc(N * 8);
                ctx.push_reg(h);
                self.buf = Some(h);
                self.step = 1;
                return StepOutcome::Continue;
            }
            1 => self.cur = Ring::block(ctx.pid()),
            _ => {
                let h = self.buf.expect("registered in superstep 0");
                self.cur = ctx
                    .read_buf(h)
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect();
                for (a, v) in self.acc.iter_mut().zip(&self.cur) {
                    *a += v;
                }
                if self.step == self.shifts + 1 {
                    return StepOutcome::Halt;
                }
            }
        }
        let h = self.buf.expect("registered in superstep 0");
        let bytes: Vec<u8> = self.cur.iter().flat_map(|x| x.to_le_bytes()).collect();
        ctx.put((ctx.pid() + 1) % p, h, 0, &bytes);
        self.step += 1;
        StepOutcome::Continue
    }
}

fn exec_expected(name: &str, p: usize, pid: usize, n: usize) -> Option<Vec<f64>> {
    let sum = |upto: usize| -> Vec<f64> {
        (0..n)
            .map(|k| (0..upto).map(|r| (r * 1000 + k) as f64).sum())
            .collect()
    };
    match name {
        "broadcast-flat" | "broadcast-two-phase" => Some(seed_vector(0, n)),
        "reduce" => (pid == 0).then(|| sum(p)),
        "allreduce" => Some(sum(p)),
        "scan" => Some(sum(pid + 1)),
        "gather" => (pid == 0).then(|| (0..p).flat_map(|r| seed_vector(r, n)).collect()),
        _ => Some((0..p).flat_map(|src| exchange_chunk(src, pid, n)).collect()),
    }
}

impl Workload for BspApps {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run(&self, k: usize, op: &mut Op) {
        let (m, task) = self.ops[k];
        let machine = &self.machines[m];
        let mut cfg = machine.cfg.clone();
        cfg.seed = mix(self.seed, k as u64);
        let p = cfg.placement.nprocs();
        match task {
            Task::Bench => {
                let r = op.time(|| span("bsplib.bench", || bspbench(&cfg)));
                op.digest.f64s(&[r.r, r.g, r.l]);
                op.check(
                    [r.r, r.g, r.l].iter().all(|v| v.is_finite() && *v > 0.0),
                    || format!("bspbench p={p}: r={} g={} l={}", r.r, r.g, r.l),
                );
            }
            Task::InProd => {
                let n = 1u64 << 16;
                let r = op.time(|| span("bsplib.inprod", || bspinprod(&cfg, n, 1)));
                op.digest.f64s(&[r.seconds, r.result]);
                op.check(r.result == n as f64, || {
                    format!("bspinprod p={p}: {} != {n}", r.result)
                });
            }
            Task::Ring => {
                let shifts = 4.min(p - 1);
                let res =
                    op.time(|| span("bsplib.run_spmd", || run_spmd(&cfg, |_| Ring::new(shifts))));
                match res {
                    Ok(res) => {
                        op.count("bsplib.supersteps", res.superstep_count() as f64);
                        let bytes: u64 = res.supersteps.iter().map(|s| s.payload_bytes).sum();
                        op.count("bsplib.bytes_moved", bytes as f64);
                        op.digest.f64(res.total_time);
                        if op.reference_checks {
                            let exact = res
                                .programs
                                .iter()
                                .enumerate()
                                .all(|(pid, r)| r.acc == Ring::expected(pid, p, shifts));
                            op.check(exact, || format!("ring p={p}: sums are not exact"));
                        }
                    }
                    Err(e) => op.failures.push(format!("ring p={p}: {e}")),
                }
            }
            Task::Exec(c) => {
                let name = EXEC[c];
                let n = match name {
                    "gather" | "total-exchange" => (N / p).max(1),
                    _ => N,
                };
                let out: CollectiveOutcome = op.time(|| {
                    span("collectives.exec", || match name {
                        "broadcast-flat" => run_broadcast_flat(&cfg, 0, n),
                        "broadcast-two-phase" => run_broadcast_two_phase(&cfg, 0, n),
                        "reduce" => run_reduce(&cfg, 0, n),
                        "allreduce" => run_allreduce(&cfg, n),
                        "scan" => run_scan(&cfg, n),
                        "gather" => run_gather(&cfg, 0, n),
                        _ => run_total_exchange(&cfg, n),
                    })
                });
                op.count("bsplib.supersteps", out.supersteps as f64);
                op.digest.f64(out.total_time);
                for (pid, v) in out.values.iter().enumerate() {
                    op.digest.f64s(v);
                    if !op.reference_checks {
                        continue;
                    }
                    if let Some(want) = exec_expected(name, p, pid, n) {
                        op.check(*v == want, || {
                            format!("{name} p={p}: rank {pid} result is not exact")
                        });
                    }
                }
            }
            Task::Predict(c) => {
                let (pat, draws) = &machine.patterns[c];
                let pred = op.time(|| {
                    span("core.predict", || {
                        predict_collective(pat, &machine.profile.costs).total
                    })
                });
                let m = op.time(|| {
                    span("collectives.simulate", || {
                        simulate_collective(pat, &cfg.params, &cfg.placement, SIM_REPS, cfg.seed)
                    })
                });
                op.count("stats.jitter_fill.draws", (draws * SIM_REPS) as f64);
                op.digest.f64(pred);
                op.digest.f64s(&m.samples);
                let name = pat.name();
                let sim = m.mean();
                let rel = (pred - sim).abs() / sim;
                op.rel_err.push(rel);
                // The collectives crate's stated bounds: 0.95 for the dense
                // single-stage patterns, 0.6 for the log-depth ones.
                let dense = name == "total-exchange" || name == "broadcast-two-phase";
                let bound = if dense { 0.95 } else { 0.6 };
                op.check(rel < bound, || {
                    format!("{name} p={p}: predict-vs-sim error {rel:.3} over the stated {bound}")
                });
            }
            Task::Stencil(s) => {
                let kind = STENCILS[s];
                let params = &cfg.params;
                let placement = &cfg.placement;
                let model = &cfg.proc_model;
                let iter_times = op.time(|| match kind {
                    "BSP-hp" | "BSP-buf" | "BSP-late" => {
                        let d = match kind {
                            "BSP-hp" => CommitDiscipline::EarlyUnbuffered,
                            "BSP-buf" => CommitDiscipline::EarlyBuffered,
                            _ => CommitDiscipline::Late,
                        };
                        span("stencil.bsp", || {
                            run_bsp_stencil(&cfg, LARGE_N, ITERS, d, false).iter_times
                        })
                    }
                    "MPI" | "MPI+R" => {
                        let v = if kind == "MPI" {
                            MpiVariant::Blocking2Stage
                        } else {
                            MpiVariant::EarlyRequests
                        };
                        span("stencil.mpi", || {
                            run_mpi_stencil(
                                params, placement, model, LARGE_N, ITERS, v, 1.0, cfg.seed,
                            )
                            .iter_times
                        })
                    }
                    _ => span("stencil.hybrid", || {
                        run_hybrid_stencil(
                            params,
                            placement.shape(),
                            model,
                            LARGE_N,
                            ITERS,
                            p,
                            cfg.seed,
                        )
                        .iter_times
                    }),
                });
                op.count("stencil.iters", ITERS as f64);
                op.digest.f64s(&iter_times);
                op.check(
                    iter_times.len() == ITERS
                        && iter_times.iter().all(|t| t.is_finite() && *t > 0.0),
                    || format!("{kind} stencil p={p}: bad iteration times"),
                );
            }
            Task::DataStencil => {
                let d = CommitDiscipline::EarlyUnbuffered;
                let rep = op.time(|| {
                    span("stencil.bsp", || {
                        run_bsp_stencil(&cfg, DATA_N, ITERS, d, true)
                    })
                });
                op.count("stencil.iters", ITERS as f64);
                let init = |x: usize, y: usize| ((x * 31 + y * 17) % 101) as f64 / 101.0;
                let want: f64 = sequential_reference(DATA_N, ITERS, init).iter().sum();
                let got = rep.checksum.unwrap_or(f64::NAN);
                op.digest.f64(got);
                op.digest.f64s(&rep.iter_times);
                // The tolerance of the stencil crate's own reference test:
                // the distributed sum adds in another order.
                op.check((got - want).abs() < 1e-9, || {
                    format!("data stencil p={p}: checksum {got} vs sequential {want}")
                });
            }
        }
    }

    fn isolate(&self, iso: &mut Counts) {
        // Exchange resolution over the total-exchange message set, on a
        // fresh network each time, jitter filled outside the timing.
        for (m, machine) in self.machines.iter().enumerate() {
            let cfg = &machine.cfg;
            let p = cfg.placement.nprocs();
            let bytes = (8 * (N / p).max(1)) as u64;
            let msgs: Vec<ExchangeMsg> = (0..p)
                .flat_map(|src| {
                    (0..p)
                        .filter(move |&dst| dst != src)
                        .map(move |dst| (src, dst))
                })
                .map(|(src, dst)| ExchangeMsg {
                    src,
                    dst,
                    bytes,
                    issue: 0.0,
                })
                .collect();
            let mut net = NetState::new(&cfg.placement);
            let mut jit = JitterBuf::new();
            let mut scratch = ExchangeScratch::default();
            let mut out = ExchangeResult::default();
            for rep in 0..16u64 {
                net.reset();
                jit.fill(
                    cfg.params.jitter.sigma,
                    mix(self.seed, m as u64),
                    0x4558,
                    rep,
                    exchange_jitter_draws(&msgs),
                );
                let t = Instant::now();
                span("simnet.exchange", || {
                    resolve_exchange_into(
                        &cfg.params,
                        &cfg.placement,
                        &msgs,
                        &mut net,
                        &mut jit,
                        &mut scratch,
                        &mut out,
                    )
                });
                std::hint::black_box(&out);
                add(iso, "simnet.exchange.busy_s", t.elapsed().as_secs_f64());
                add(iso, "simnet.exchange.msgs", msgs.len() as f64);
            }
        }
        let largest = self
            .machines
            .iter()
            .max_by_key(|m| m.cfg.placement.nprocs())
            .expect("bsp_apps has machines");
        let placement = &largest.cfg.placement;
        probe_placement(iso, placement.shape(), placement.nprocs());
    }
}
