//! `analyze`: the work of `repro analyze` — the `hpm-analyze` plan rules
//! over the 32-pattern registry at each registered p (up to 4096), plus
//! k ∈ {1, 2} crash-coverage sweeps. Pure static work in the p×p
//! knowledge recurrence: no jitter, no simulation.

use std::cell::RefCell;

use hpm_analyze::Analyzer;
use hpm_bench::analyze::{pattern_registry, RegisteredPlan};
use hpm_topology::cluster_512x2x4;

use crate::trace::span;
use crate::util::{mix, probe_placement, probe_verify};
use crate::{Counts, Op, Scale, Workload};

thread_local! {
    static ANALYZER: RefCell<Analyzer> = RefCell::new(Analyzer::new());
}

struct Analyze {
    registry: Vec<RegisteredPlan>,
    /// Per plan, the size-1 and size-2 crash sets its sweeps run.
    crash_sets: Vec<[Vec<Vec<usize>>; 2]>,
}

/// Crash sets of size `k` at `p` ranks: evenly strided anchors, shifted
/// by a seed-drawn offset, each taking `k` consecutive ranks. As many
/// anchors as `repro analyze` samples (every rank up to 64, 64 at
/// p ≤ 256, 8 up to p = 1024), but 1 at p = 4096, where one scenario
/// costs half a second.
fn crash_sets(p: usize, k: usize, seed: u64, scale: Scale) -> Vec<Vec<usize>> {
    let anchors = match (scale, p) {
        (Scale::Smoke, _) => p.min(4),
        (_, 0..=256) => p.min(64),
        (_, 257..=1024) => 8,
        _ => 1,
    };
    let stride = (p / anchors).max(1);
    let offset = (mix(seed, (p * 4 + k) as u64) % stride as u64) as usize;
    (0..anchors)
        .map(|a| {
            (0..k.min(p))
                .map(|d| (a * stride + offset + d) % p)
                .collect()
        })
        .collect()
}

pub fn setup(scale: Scale, seed: u64, _counts: &mut Counts) -> Box<dyn Workload> {
    let mut registry = span("core.compile", pattern_registry);
    if scale == Scale::Smoke {
        registry.retain(|r| r.plan.p() <= 256);
        registry.truncate(6);
    }
    let crash_sets = registry
        .iter()
        .map(|r| {
            let p = r.plan.p();
            [crash_sets(p, 1, seed, scale), crash_sets(p, 2, seed, scale)]
        })
        .collect();
    Box::new(Analyze {
        registry,
        crash_sets,
    })
}

impl Workload for Analyze {
    /// Three analysis units per registered plan: the plan rules, the
    /// k = 1 crash-coverage sweep and the k = 2 sweep.
    fn ops(&self) -> usize {
        3 * self.registry.len()
    }

    fn run(&self, k: usize, op: &mut Op) {
        let (r, unit) = (&self.registry[k / 3], k % 3);
        ANALYZER.with(|an| {
            let mut an = an.borrow_mut();
            if unit == 0 {
                let diags =
                    op.time(|| span("analyze.plan", || an.analyze_with_goal(&r.plan, r.goal)));
                op.digest.u64(diags.len() as u64);
                op.check(diags.is_empty(), || {
                    format!(
                        "{}: {} diagnostics, first: {:?}",
                        r.id,
                        diags.len(),
                        diags.first()
                    )
                });
                return;
            }
            for set in &self.crash_sets[k / 3][unit - 1] {
                let survives = op.time(|| {
                    span("analyze.k_crash", || {
                        an.k_crash_coverage(&r.plan, r.goal, set).survives()
                    })
                });
                op.digest.bool(survives);
                op.count("analyze.k_crash.survived", f64::from(u8::from(survives)));
            }
        });
    }

    fn isolate(&self, iso: &mut Counts) {
        let largest = self
            .registry
            .iter()
            .max_by_key(|r| r.plan.p())
            .expect("the registry is not empty");
        let p = largest.plan.p();
        // The placement the largest registered p runs on in the scale run.
        probe_placement(iso, cluster_512x2x4(), p.min(4096));
        probe_verify(iso, &largest.plan);
    }
}
