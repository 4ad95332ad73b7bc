//! # hpm-simnet — simulated SMP-cluster substrate
//!
//! The thesis validates its models on real gigabit-ethernet clusters of
//! multi-socket multi-core nodes. This crate is the substitution for that
//! hardware (see DESIGN.md): a deterministic, seeded simulator of message
//! cost on such clusters, exposing exactly the behaviours the thesis'
//! models must capture —
//!
//! * hierarchical link classes (same-socket / same-node / remote) with
//!   separate CPU overheads, wire latencies and bandwidths;
//! * per-node NIC egress serialization (messages from cohabiting processes
//!   queue for the wire);
//! * per-message acknowledgement round trips for small signal messages,
//!   the behaviour the Eq. 5.4 factor 2 models;
//! * the posted-receive fast path: a message reaching a process that is
//!   already waiting avoids the unexpected-message buffer penalty;
//! * multiplicative log-normal OS jitter on every timed activity, from
//!   jitter tables batch-filled to the compiled pattern's exact draw
//!   count and consumed by cursor — see DESIGN.md, "The jitter engine".
//!
//! Every barrier execution — measurement batches, the BSPlib sync,
//! faulty runs and the recovery re-execution — runs one stage kernel
//! ([`batch`]) over lane-major state, behind one fault-policy seam: the
//! healthy policy compiles to the fault-free arithmetic, the fault
//! policy ([`faults`]) adds crashes, drops, degraded links and
//! stragglers. Its entry points are on [`BarrierSim`] ([`barrier`]); the
//! signal step it shares with the message engine lives in [`net`]. The
//! recovery layer ([`recovery`]) closes the fault loop: survivors detect,
//! agree, and finish the collective over a survivor re-plan.
//!
//! Around the kernel sit the §5.6.3 platform microbenchmarks
//! ([`microbench`]), which extract the `O`/`L`/`β` matrices *exactly the
//! way an application could* (medians and regression over simulated
//! timings, never by peeking at the true parameters), and a
//! background-transfer resolver ([`exchange`]) used by the BSPlib
//! runtime to model overlapped one-sided communication.

pub mod barrier;
pub mod batch;
pub mod exchange;
pub mod faults;
pub mod microbench;
pub mod net;
pub mod params;
pub mod recovery;

pub use barrier::{BarrierMeasurement, BarrierSim, SimScratch};
pub use batch::LaneScratch;
pub use exchange::{
    exchange_jitter_draws, resolve_exchange, resolve_exchange_into, ExchangeMsg, ExchangeResult,
    ExchangeScratch,
};
pub use faults::{fault_drop_draws, FaultReport, RankOutcome};
pub use microbench::{
    bench_platform, bench_platform_classes, ClassCosts, ClassProfile, MicrobenchConfig,
    PlatformProfile,
};
pub use net::NetState;
pub use params::{LinkCost, PlatformParams};
pub use recovery::{consensus_cost, RecoveryReport, RecoveryScratch, RECOVERY_JITTER_LABEL};
