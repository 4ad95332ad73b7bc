//! End-to-end and per-layer benchmark of the hpm workspace.
//!
//! ```text
//! perfbench --workload <validate|bsp_apps|analyze|faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a fixed list of ops run as a closed loop: one pass
//! fans the ops out over the `hpm_par` workers (width set once, at
//! start), and a run makes one warm-up pass and a fixed number of timed
//! passes, as many as fill `--seconds` on the reference machine (fewer
//! only on a host too slow to fit them, see `OVERRUN`).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes, re-issues some calls in isolation, checks
//! the output digest against a width-1 child process and prints the
//! per-layer metrics. The last line of stdout is one JSON object. See
//! README.md.

mod analyze;
mod bsp_apps;
mod faults;
mod trace;
mod util;
mod validate;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use util::{median, quantile_sorted, Digest};

#[global_allocator]
static ALLOC: util::Counting = util::Counting;

/// Named counters an op, a set-up or an isolation probe accumulates.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn add(counts: &mut Counts, key: &'static str, v: f64) {
    *counts.entry(key).or_default() += v;
}

/// What one op reports: its timed work, output digest, prediction
/// errors, failed checks and layer counters.
#[derive(Default)]
pub struct Op {
    /// Set on the warm-up pass: run the checks that recompute a
    /// reference result. Every later pass must reproduce the warm-up
    /// pass's digest, which checks its outputs against the checked ones.
    pub reference_checks: bool,
    pub busy: Duration,
    pub digest: Digest,
    pub rel_err: Vec<f64>,
    pub failures: Vec<String>,
    pub counts: Counts,
}

impl Op {
    /// Runs `f` as part of the op's timed work. Output checks run outside.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.busy += t.elapsed();
        r
    }

    pub fn count(&mut self, key: &'static str, v: f64) {
        add(&mut self.counts, key, v);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A workload after set-up: a fixed list of ops.
pub trait Workload: Sync {
    fn ops(&self) -> usize;
    fn run(&self, k: usize, op: &mut Op);
    /// Traced run only: re-issues public calls on the same inputs,
    /// outside the op spans, and the counting-allocator probes.
    fn isolate(&self, iso: &mut Counts);
}

/// Input sizes: the benchmark's, or tiny ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

type SetupFn = fn(Scale, u64, &mut Counts) -> Box<dyn Workload>;

/// Name, set-up, the wall time of one pass at width 2 on a 2-core
/// x86-64 VM, and the set-ups one `setup_s` sample times. The pass time
/// fixes the work of a run: `--seconds s` runs ⌈s / pass⌉ timed passes
/// (at least 2), so every run of a workload does the same work. The
/// set-up batch makes one sample about 10 ms or more of set-up work.
const WORKLOADS: [(&str, SetupFn, f64, usize); 4] = [
    ("validate", validate::setup, 2.5, 4),
    ("bsp_apps", bsp_apps::setup, 0.08, 1),
    ("analyze", analyze::setup, 2.5, 2),
    ("faults", faults::setup, 0.8, 256),
];

/// `setup_s` samples per run; `setup_s` is the fastest.
const SETUP_SAMPLES: usize = 30;

/// A run starts no further timed pass (after the first two) once the
/// process has run this many times `--seconds`, so that a slow host
/// cannot stretch a run past its time limit. On the reference machine
/// no run reaches it.
const OVERRUN: f64 = 1.25;

/// Whether a run that has made `done` timed passes may start another.
fn in_time(done: usize, seconds: f64) -> bool {
    done < 2 || trace::epoch().elapsed().as_secs_f64() < OVERRUN * seconds
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    width: Option<usize>,
    digest_only: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        width: None,
        digest_only: false,
        scale: Scale::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--width" => {
                let w: usize = val()?.parse().map_err(|e| format!("--width: {e}"))?;
                a.width = Some(w.max(1));
            }
            "--digest-only" => a.digest_only = true,
            "--smoke" => a.scale = Scale::Smoke,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(n, ..)| *n == a.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, ..)| *n).collect();
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            names.join(", "),
            a.workload
        ));
    }
    if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

/// One pass over a workload's ops.
struct Pass {
    digest: Digest,
    ops: Vec<Op>,
    wall: f64,
    /// Σ over workers of the time between its last op's end and the
    /// pass's end.
    tail_idle: f64,
}

impl Pass {
    fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.failures.is_empty()).count()
    }

    fn op_time(&self) -> f64 {
        self.ops.iter().map(|o| o.busy.as_secs_f64()).sum()
    }
}

fn run_pass(w: &dyn Workload, pass: u64) -> Pass {
    let n = w.ops();
    // Each pass hands the ops out in an order of its own, so that an op
    // runs beside different ops on the other worker from pass to pass and
    // its fastest run is not tied to one neighbour's cache and memory
    // traffic. Results are gathered and digested in op order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&k| util::mix(pass, k as u64));
    let workers = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut done = hpm_par::par_map_indexed_with(
        n,
        || workers.fetch_add(1, Ordering::Relaxed),
        |&mut worker, i| {
            let k = order[i];
            let mut op = Op {
                reference_checks: pass == 0,
                ..Op::default()
            };
            let id = pass * n as u64 + k as u64 + 1;
            let r = catch_unwind(AssertUnwindSafe(|| trace::in_op(id, || w.run(k, &mut op))));
            if let Err(e) = r {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                op.failures.push(format!("op {k} panicked: {msg}"));
            }
            (k, op, worker, t0.elapsed().as_secs_f64())
        },
    );
    let wall = t0.elapsed().as_secs_f64();
    done.sort_by_key(|d| d.0);
    let mut last_end = vec![0.0f64; workers.load(Ordering::Relaxed)];
    let mut digest = Digest::default();
    let mut ops = Vec::with_capacity(n);
    for (_, op, worker, end) in done {
        last_end[worker] = last_end[worker].max(end);
        digest.u64(op.digest.0);
        ops.push(op);
    }
    Pass {
        digest,
        ops,
        wall,
        tail_idle: last_end.iter().map(|e| wall - e).sum(),
    }
}

/// Everything the report needs besides the metrics themselves.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn take_pass(&mut self, pass: &Pass, reference: Digest) {
        self.attempted += pass.ops.len();
        if pass.digest != reference {
            self.failed += pass.ops.len();
            self.failures.push(format!(
                "pass digest {:016x} differs from the first pass's {:016x}",
                pass.digest.0, reference.0
            ));
        } else {
            self.failed += pass.failed();
        }
        for op in &pass.ops {
            for f in &op.failures {
                if self.failures.len() < 20 {
                    self.failures.push(f.clone());
                }
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    trace::epoch();
    util::keep_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every run fans out over `available_parallelism` workers, at most
    // two: on `analyze` each worker holds a p = 4096 analysis (400 MB).
    let width = args.width.unwrap_or_else(|| nproc().min(2));
    hpm_par::set_threads(Some(width));
    let (setup, pass_s, batch) = WORKLOADS
        .iter()
        .find(|(n, ..)| *n == args.workload)
        .map(|&(_, f, s, b)| (f, s, b))
        .expect("workload name checked by parse_args");
    let passes = ((args.seconds / pass_s).ceil() as usize).max(2);

    if args.digest_only {
        let w = setup(args.scale, args.seed, &mut Counts::new());
        let pass = run_pass(&*w, 0);
        println!(
            "digest {:016x} ops {} failed {}",
            pass.digest.0,
            pass.ops.len(),
            pass.failed()
        );
        return ExitCode::SUCCESS;
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} width={} (available_parallelism={})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        width,
        nproc()
    );
    let out = if args.trace {
        traced_run(&args, setup, width, passes)
    } else {
        timed_run(&args, setup, batch, width, passes)
    };
    report(&out);
    ExitCode::SUCCESS
}

/// One `setup_s` sample: the mean time of `batch` set-ups, each timed
/// alone after the previous one's workload is dropped, and the last
/// workload built.
fn set_up(args: &Args, setup: SetupFn, batch: usize) -> (f64, Box<dyn Workload>) {
    let mut total = 0.0;
    let mut last = None;
    for _ in 0..batch {
        drop(last.take());
        let t = Instant::now();
        let w = setup(args.scale, args.seed, &mut Counts::new());
        total += t.elapsed().as_secs_f64();
        last = Some(w);
    }
    (
        total / batch as f64,
        last.expect("a batch has at least one set-up"),
    )
}

/// `--trace 0`: the end-to-end metrics, over `n` timed passes after
/// one warm-up pass.
fn timed_run(args: &Args, setup: SetupFn, batch: usize, width: usize, n: usize) -> Outcome {
    // The set-up samples are spread over the run, before the warm-up
    // pass and after timed passes, and `setup_s` is the fastest: on a
    // shared host the samples of one run fall into a fast and a slow
    // state up to 1.6x apart, so their median flips between the two
    // from run to run (README.md). The first sample builds the workload.
    let samples_after = |pass: usize| {
        (0..SETUP_SAMPLES)
            .filter(|i| i * (n + 1) / SETUP_SAMPLES == pass)
            .count()
    };
    let more_set_ups = |count: usize, times: &mut Vec<f64>| {
        times.extend((0..count).map(|_| set_up(args, setup, batch).0));
    };
    let (first, w) = set_up(args, setup, batch);
    let mut setup_times = vec![first];
    more_set_ups(samples_after(0) - 1, &mut setup_times);
    let to_first_op = trace::epoch().elapsed().as_secs_f64();
    let warm = run_pass(&*w, 0);
    let mut passes = Vec::with_capacity(n);
    for id in 1..=n {
        if !in_time(passes.len(), args.seconds) {
            break;
        }
        passes.push(run_pass(&*w, id as u64));
        more_set_ups(samples_after(id), &mut setup_times);
    }
    let rss = util::peak_rss_mb();

    let mut out = Outcome::default();
    let reference = warm.digest;
    out.take_pass(&warm, reference);
    for p in &passes {
        out.take_pass(p, reference);
    }
    // Each op counts at its fastest run over the timed passes: the host
    // is shared, and interference from other tenants only adds time
    // (Chen & Revels, HPEC 2016). The percentiles are taken over these
    // per-op times, one sample per op, and throughput is the ops the
    // `width` workers complete per second of this timed op work.
    let n_ops = passes[0].ops.len();
    let mut times: Vec<f64> = (0..n_ops)
        .map(|k| {
            passes
                .iter()
                .map(|p| p.ops[k].busy.as_secs_f64() * 1e3)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let q = util::tail_percentile(n_ops);
    let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("setup_s", setup_s, "s");
    let op_work: f64 = times.iter().sum::<f64>() / 1e3;
    out.metric("ops_per_s", (width * n_ops) as f64 / op_work, "ops/s");
    out.metric("op_p50_ms", quantile_sorted(&times, 0.5), "ms");
    out.metric("op_tail_ms", quantile_sorted(&times, q / 100.0), "ms");
    out.metric("peak_rss_mb", rss, "MB");

    println!(
        "set-up: fastest of {} samples of {batch} set-ups {setup_s:.6} s, median {:.6} s; process start to first op {to_first_op:.6} s",
        setup_times.len(),
        median(&setup_times),
    );
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    println!(
        "passes: 1 warm-up + {} of {n} timed of {n_ops} ops, median wall {:.3} s; {op_work:.3} s of op work at each op's fastest; op_tail_ms is p{q} over {n_ops} ops ({} beyond)",
        passes.len(),
        median(&walls),
        (n_ops as f64 * (1.0 - q / 100.0)).floor()
    );
    let errs: Vec<f64> = passes[0]
        .ops
        .iter()
        .flat_map(|o| o.rel_err.clone())
        .collect();
    if !errs.is_empty() {
        let max = errs.iter().copied().fold(0.0, f64::max);
        println!(
            "pred_rel_err_p50 {:.6} 1\npred_rel_err_max {:.6} 1   (over {} validated points)",
            median(&errs),
            max,
            errs.len()
        );
    }
    println!(
        "digest {:016x} (equal across all {} passes)",
        reference.0,
        passes.len() + 1
    );
    out
}

/// `--trace 1`: after one warm-up pass, `n / 2` untraced and as many
/// traced passes in turn, the isolation probes, the width-1 digest
/// check, and the per-layer metrics.
fn traced_run(args: &Args, setup: SetupFn, width: usize, n: usize) -> Outcome {
    trace::set_enabled(true);
    let mut setup_counts = Counts::new();
    let w = setup(args.scale, args.seed, &mut setup_counts);
    let setup_spans = trace::drain();

    trace::set_enabled(false);
    let warm = run_pass(&*w, 0);
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut pass_spans = Vec::new();
    for k in 0..(n / 2).max(1) as u64 {
        if !in_time(plain.len() + traced.len(), args.seconds) {
            break;
        }
        trace::set_enabled(false);
        plain.push(run_pass(&*w, 2 * k + 1));
        trace::set_enabled(true);
        traced.push(run_pass(&*w, 2 * k + 2));
        pass_spans.extend(trace::drain());
    }
    trace::set_enabled(true);
    let mut iso = Counts::new();
    w.isolate(&mut iso);
    trace::set_enabled(false);
    let iso_spans = trace::drain();

    let mut out = Outcome::default();
    let reference = warm.digest;
    for p in std::iter::once(&warm).chain(&plain).chain(&traced) {
        out.take_pass(p, reference);
    }
    // The same ops at width 1, in a child process of its own.
    let child = width1_digest(args);
    out.attempted += plain[0].ops.len();
    match child {
        Ok(d) if d == reference.0 => {
            println!(
                "digest {:016x} at width {width} and at width 1: equal",
                reference.0
            )
        }
        Ok(d) => {
            out.failed += plain[0].ops.len();
            out.failures.push(format!(
                "digest at width 1 {d:016x} differs from width {width}'s {:016x}",
                reference.0
            ));
        }
        Err(e) => {
            out.failed += plain[0].ops.len();
            out.failures.push(format!("width-1 child failed: {e}"));
        }
    }

    let n = traced.len() as f64;
    let mut pass_counts = Counts::new();
    for p in &traced {
        for op in &p.ops {
            for (k, v) in &op.counts {
                add(&mut pass_counts, k, *v);
            }
        }
    }
    for v in pass_counts.values_mut() {
        *v /= n;
    }
    let plain_op_time = plain.iter().map(Pass::op_time).sum::<f64>() / plain.len() as f64;
    let traced_op_time = traced.iter().map(Pass::op_time).sum::<f64>() / n;
    let data = LayerData {
        setup_spans: &setup_spans,
        pass_spans: &pass_spans,
        passes: n,
        setup_counts: &setup_counts,
        pass_counts: &pass_counts,
        iso: &iso,
        op_time: traced_op_time,
    };
    layer_metrics(&mut out, &data, &plain, width, plain_op_time);
    println!(
        "passes: {} untraced, {} traced; per-layer values are per traced pass plus one traced set-up",
        plain.len(),
        traced.len()
    );

    let mut all = setup_spans;
    all.extend(pass_spans);
    all.extend(iso_spans);
    let path = format!(
        "{}/../.bench_build/perfbench/trace-{}-{}.json",
        env!("CARGO_MANIFEST_DIR"),
        args.workload,
        args.seed
    );
    let written = std::path::Path::new(&path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&all)));
    match written {
        Ok(()) => println!("trace: {} spans written to {path}", all.len()),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
    out
}

fn width1_digest(args: &Args) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
    ])
    .args(["--width", "1", "--digest-only"]);
    if args.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("exit {}", out.status));
    }
    let line = text
        .lines()
        .find(|l| l.starts_with("digest "))
        .ok_or("no digest line")?;
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.get(5) != Some(&"0") {
        return Err(format!("width-1 pass failed checks: {line}"));
    }
    u64::from_str_radix(fields.get(1).ok_or("no digest")?, 16).map_err(|e| e.to_string())
}

/// What the traced run observed, for [`layer_metrics`].
struct LayerData<'a> {
    setup_spans: &'a [trace::Span],
    pass_spans: &'a [trace::Span],
    passes: f64,
    setup_counts: &'a Counts,
    pass_counts: &'a Counts,
    iso: &'a Counts,
    /// Σ op time of one traced pass.
    op_time: f64,
}

impl LayerData<'_> {
    /// Busy seconds of spans named `name`: one traced set-up plus one
    /// traced pass.
    fn busy(&self, name: &str) -> f64 {
        let sum = |spans: &[trace::Span]| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .fold(0.0, |a, s| a + s.dur_s())
        };
        sum(self.setup_spans) + sum(self.pass_spans) / self.passes
    }

    fn pass_busy(&self, name: &str) -> f64 {
        self.pass_spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |a, s| a + s.dur_s())
            / self.passes
    }

    fn calls(&self, name: &str) -> f64 {
        let n = |spans: &[trace::Span]| spans.iter().filter(|s| s.name == name).count() as f64;
        n(self.setup_spans) + n(self.pass_spans) / self.passes
    }

    fn count(&self, key: &str) -> f64 {
        self.setup_counts.get(key).copied().unwrap_or(0.0)
            + self.pass_counts.get(key).copied().unwrap_or(0.0)
    }

    fn iso(&self, key: &str) -> f64 {
        self.iso.get(key).copied().unwrap_or(0.0)
    }
}

/// `a / b`, or 0 when the layer did no work on this workload.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn layer_metrics(out: &mut Outcome, d: &LayerData, plain: &[Pass], width: usize, plain_op: f64) {
    let plain_wall: f64 = plain.iter().map(|p| p.wall).sum();
    let plain_busy: f64 = plain.iter().map(Pass::op_time).sum();
    out.metric("par.width", width as f64, "count");
    out.metric(
        "par.busy_frac",
        ratio(plain_busy, plain_wall * width as f64),
        "1",
    );
    out.metric(
        "par.tail_idle_s",
        plain.iter().map(|p| p.tail_idle).sum::<f64>() / plain.len() as f64,
        "s",
    );
    out.metric(
        "topology.placement.peak_bytes",
        d.iso("topology.placement.peak_bytes"),
        "bytes",
    );

    out.metric(
        "stats.jitter_fill.draws",
        d.count("stats.jitter_fill.draws"),
        "count",
    );
    out.metric(
        "stats.jitter_fill.ns_per_draw",
        1e9 * ratio(
            d.iso("stats.jitter_fill.fill_s"),
            d.iso("stats.jitter_fill.filled"),
        ),
        "ns",
    );
    out.metric(
        "stats.jitter_fill.share",
        ratio(
            d.iso("stats.jitter_fill.share_fill_s"),
            d.iso("stats.jitter_fill.share_run_s"),
        ),
        "1",
    );
    out.metric(
        "stats.fault_plan.busy_s",
        d.iso("stats.fault_plan.busy_s"),
        "s",
    );

    out.metric("core.compile.busy_s", d.busy("core.compile"), "s");
    let predict = d.calls("core.predict");
    out.metric("core.predict.calls", predict, "count");
    out.metric(
        "core.predict.us_per_call",
        1e6 * ratio(d.busy("core.predict"), predict),
        "us",
    );
    out.metric("core.verify.calls", d.calls("core.verify"), "count");
    out.metric("core.verify.busy_s", d.busy("core.verify"), "s");
    out.metric(
        "core.verify.peak_bytes",
        d.iso("core.verify.peak_bytes"),
        "bytes",
    );
    let repairs = d.iso("core.repair_plan.calls");
    out.metric("core.repair_plan.calls", repairs, "count");
    out.metric(
        "core.repair_plan.busy_s",
        d.iso("core.repair_plan.busy_s"),
        "s",
    );
    out.metric(
        "core.repair_plan.distinct_frac",
        ratio(d.iso("core.repair_plan.distinct"), repairs),
        "1",
    );

    out.metric("simnet.microbench.busy_s", d.busy("simnet.microbench"), "s");
    out.metric(
        "simnet.microbench.pairs",
        d.count("simnet.microbench.pairs"),
        "count",
    );
    out.metric(
        "simnet.microbench.share",
        ratio(d.pass_busy("simnet.microbench"), d.op_time),
        "1",
    );
    let signals = d.count("simnet.measure.signals");
    out.metric("simnet.measure.busy_s", d.busy("simnet.measure"), "s");
    out.metric("simnet.measure.signals", signals, "count");
    out.metric(
        "simnet.measure.ns_per_signal",
        1e9 * ratio(d.pass_busy("simnet.measure"), signals),
        "ns",
    );
    out.metric(
        "simnet.measure_noiseless.ns_per_signal",
        1e9 * ratio(
            d.iso("simnet.measure_noiseless.busy_s"),
            d.iso("simnet.measure_noiseless.signals"),
        ),
        "ns",
    );
    let faulty = d.busy("simnet.faulty");
    out.metric("simnet.faulty.busy_s", faulty, "s");
    out.metric(
        "simnet.faulty.ns_per_signal",
        1e9 * ratio(faulty, d.count("simnet.faulty.signals")),
        "ns",
    );
    out.metric(
        "simnet.faulty.retries",
        d.count("simnet.faulty.retries"),
        "count",
    );
    out.metric(
        "simnet.faulty.lost_signals",
        d.count("simnet.faulty.lost_signals"),
        "count",
    );
    let recovering = d.busy("simnet.recovering");
    out.metric("simnet.recovering.busy_s", recovering, "s");
    out.metric(
        "simnet.recovering.replan_stages",
        d.count("simnet.recovering.replan_stages"),
        "count",
    );
    out.metric(
        "simnet.recovering.overhead_ratio",
        ratio(recovering, faulty),
        "1",
    );
    out.metric(
        "simnet.exchange.us_per_msg",
        1e6 * ratio(
            d.iso("simnet.exchange.busy_s"),
            d.iso("simnet.exchange.msgs"),
        ),
        "us",
    );

    out.metric("barriers.adapt.busy_s", d.busy("barriers.adapt"), "s");

    let spmd_stepped = d.busy("bsplib.run_spmd") + d.busy("collectives.exec");
    let spmd =
        spmd_stepped + d.busy("bsplib.bench") + d.busy("bsplib.inprod") + d.busy("stencil.bsp");
    let supersteps = d.count("bsplib.supersteps");
    out.metric("bsplib.run_spmd.busy_s", spmd, "s");
    out.metric("bsplib.supersteps", supersteps, "count");
    out.metric(
        "bsplib.us_per_superstep",
        1e6 * ratio(spmd_stepped, supersteps),
        "us",
    );
    out.metric("bsplib.bytes_moved", d.count("bsplib.bytes_moved"), "bytes");
    out.metric("bsplib.recoveries", d.count("bsplib.recoveries"), "count");
    out.metric(
        "collectives.exec.calls",
        d.calls("collectives.exec"),
        "count",
    );
    out.metric("collectives.exec.busy_s", d.busy("collectives.exec"), "s");
    let iters = d.count("stencil.iters");
    let stencil = d.busy("stencil.bsp") + d.busy("stencil.mpi") + d.busy("stencil.hybrid");
    out.metric("stencil.iters", iters, "count");
    out.metric("stencil.us_per_iter", 1e6 * ratio(stencil, iters), "us");

    out.metric("analyze.plans", d.calls("analyze.plan"), "count");
    out.metric("analyze.plan.busy_s", d.busy("analyze.plan"), "s");
    out.metric(
        "analyze.k_crash.scenarios",
        d.calls("analyze.k_crash"),
        "count",
    );
    out.metric(
        "analyze.k_crash.survived",
        d.count("analyze.k_crash.survived"),
        "count",
    );
    out.metric("analyze.k_crash.busy_s", d.busy("analyze.k_crash"), "s");

    out.metric(
        "trace.overhead_frac",
        ratio(d.op_time - plain_op, plain_op),
        "1",
    );
}

fn report(out: &Outcome) {
    for (name, value, unit) in &out.metrics {
        println!("{name:<40} {value:>18.9} {unit}");
    }
    println!(
        "error_rate {:.6} 1   ({} failed of {} ops attempted)",
        if out.attempted > 0 {
            out.failed as f64 / out.attempted as f64
        } else {
            0.0
        },
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let mut correct = out.failed == 0 && out.failures.is_empty() && out.attempted > 0;
    let mut json = String::new();
    for (k, (name, value, unit)) in out.metrics.iter().enumerate() {
        let v = if value.is_finite() {
            *value
        } else {
            correct = false;
            0.0
        };
        let sep = if k == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
}
