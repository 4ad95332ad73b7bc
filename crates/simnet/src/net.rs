//! The message engine: NIC egress queues, receive serialization, signal
//! round trips and one-sided transfers.
//!
//! * [`NetState::signal_round_trip`] — small control signals (barrier
//!   stages): the sender is occupied until the transport-level
//!   acknowledgement returns, the behaviour the Eq. 5.4 factor 2 models.
//!   Its arithmetic is `round_trip`, the one copy of the send → wire →
//!   receive → ack step, which the stage kernel runs lane by lane.
//! * [`NetState::transfer`] — one-sided bulk transfers (BSPlib put/get
//!   payloads), absorbed by the receiver's communication thread.
//!
//! Receive processing is serialized per process (§6.2) and remote
//! messages from cohabiting processes serialize at their node's NIC.
//! Jitter multipliers come from a batch-filled [`JitterBuf`]: a signal
//! consumes [`hpm_core::plan::SIGNAL_JITTER_DRAWS`], a non-self transfer
//! [`crate::exchange::TRANSFER_JITTER_DRAWS`].

use crate::batch::{Healthy, Policy};
use crate::params::{LinkCost, PlatformParams};
use hpm_core::plan::SIGNAL_JITTER_DRAWS;
use hpm_stats::rng::JitterBuf;
use hpm_topology::{LinkClass, Placement};

/// Mutable network state: per-node NIC egress availability and per-process
/// receive-processing availability (lane-major inside a lane batch). The
/// default state has no queues; [`NetState::new`] sizes one for a
/// placement.
#[derive(Debug, Clone, Default)]
pub struct NetState {
    pub(crate) nic_free: Vec<f64>,
    pub(crate) recv_busy: Vec<f64>,
}

/// The fault terms of one signal, fixed by the kernel's policy before
/// the signal's lanes run: node slowdowns on `o_send`/`o_recv`, link
/// degradation on the wire and ack terms, the delivery attempts the drop
/// draw decided (`lost` beyond the retry budget, whose full cost is
/// `loss_delay`), the backed-off `retry_delay` of the dropped attempts,
/// and the endpoints' crash times (∞ = alive). [`Hazard::NONE`] is the
/// healthy signal: every multiplier exactly 1.0, which the compiler folds
/// away.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hazard {
    pub slow_src: f64,
    pub slow_dst: f64,
    pub wire_deg: f64,
    pub attempts: u32,
    pub lost: bool,
    pub retry_delay: f64,
    pub loss_delay: f64,
    pub src_crash: f64,
    pub dst_crash: f64,
}

impl Hazard {
    pub(crate) const NONE: Hazard = Hazard {
        slow_src: 1.0,
        slow_dst: 1.0,
        wire_deg: 1.0,
        attempts: 1,
        lost: false,
        retry_delay: 0.0,
        loss_delay: 0.0,
        src_crash: f64::INFINITY,
        dst_crash: f64::INFINITY,
    };
}

/// What became of one signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fate {
    /// Acknowledged at the sender at `ack`, processed by the receiver at
    /// `processed`.
    Delivered { ack: f64, processed: f64 },
    /// Undeliverable — every attempt dropped, or the receiver crashed;
    /// the sender moved on at this time.
    Lost(f64),
    /// The sender had crashed before it could emit the signal.
    SenderDead,
}

/// The send → wire → receive → ack step of one signal, in the f64
/// operation order DESIGN.md ("The flat simulation core") specifies.
///
/// `m` holds the signal's `o_send`/wire/`o_recv`/ack multipliers, `nic`
/// the sender node's egress availability for a remote signal (`None`
/// otherwise) and `recv_busy` the receiver's processing availability.
/// Under a healthy policy every fault branch is compiled out and the
/// hazard multipliers are constant 1.0, so this is exactly the
/// fault-free recurrence; under the fault policy a neutral hazard
/// reproduces it bit for bit (`x·1.0 = x`, `t + 0.0 = t`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn round_trip<P: Policy>(
    params: &PlatformParams,
    lc: &LinkCost,
    wire_base: f64,
    h: &Hazard,
    nic: Option<&mut f64>,
    recv_busy: &mut f64,
    start: f64,
    dst_posted_at: f64,
    m: [f64; SIGNAL_JITTER_DRAWS],
) -> Fate {
    if P::FAULTY && start >= h.src_crash {
        return Fate::SenderDead;
    }
    let send_done = start + lc.o_send * m[0] * h.slow_src;
    if P::FAULTY && h.lost {
        return Fate::Lost(send_done + h.loss_delay);
    }
    let ready = if P::FAULTY {
        send_done + h.retry_delay
    } else {
        send_done
    };
    let arrival = depart(params, nic, ready) + wire_base * m[1] * h.wire_deg;
    if P::FAULTY && arrival >= h.dst_crash {
        return Fate::Lost(send_done + h.loss_delay);
    }
    let proc_start = if arrival < dst_posted_at {
        dst_posted_at + params.unexpected_penalty
    } else {
        arrival
    };
    let processed = proc_start.max(*recv_busy) + lc.o_recv * m[2] * h.slow_dst;
    *recv_busy = processed;
    Fate::Delivered {
        ack: processed + lc.latency * params.ack_factor * m[3] * h.wire_deg,
        processed,
    }
}

/// NIC egress serialization: a remote message ready at `ready` departs
/// when its sender node's NIC (`nic`, `None` for a local message) frees up.
#[inline(always)]
fn depart(params: &PlatformParams, nic: Option<&mut f64>, ready: f64) -> f64 {
    let Some(free) = nic else { return ready };
    let dep = ready.max(*free);
    *free = dep + params.nic_gap;
    dep
}

impl NetState {
    /// Fresh state for a placement: everything available at time zero.
    pub fn new(placement: &Placement) -> NetState {
        NetState {
            nic_free: vec![0.0; placement.shape().nodes()],
            recv_busy: vec![0.0; placement.nprocs()],
        }
    }

    /// Resets all queues to time zero.
    pub fn reset(&mut self) {
        self.nic_free.fill(0.0);
        self.recv_busy.fill(0.0);
    }

    /// One healthy signal message with acknowledgement round trip.
    ///
    /// * `start` — sender CPU time when it begins this message;
    /// * `bytes` — payload size (barrier payloads, §6.5);
    /// * `dst_posted_at` — when the receiver posted its receives; arrivals
    ///   before that pay the unexpected-message penalty.
    ///
    /// Returns `(ack_at_sender, processed_at_receiver)`.
    #[allow(clippy::too_many_arguments)]
    pub fn signal_round_trip(
        &mut self,
        params: &PlatformParams,
        placement: &Placement,
        jit: &mut JitterBuf,
        src: usize,
        dst: usize,
        start: f64,
        bytes: u64,
        dst_posted_at: f64,
    ) -> (f64, f64) {
        let class = placement.link(src, dst);
        let lc = params.link(class);
        let mut m = [0.0; SIGNAL_JITTER_DRAWS];
        m.fill_with(|| jit.next_mult());
        let wire_base = lc.latency + bytes as f64 * lc.inv_bandwidth;
        let nic = (class == LinkClass::Remote).then(|| &mut self.nic_free[placement.node_of(src)]);
        match round_trip::<Healthy>(
            params,
            &lc,
            wire_base,
            &Hazard::NONE,
            nic,
            &mut self.recv_busy[dst],
            start,
            dst_posted_at,
            m,
        ) {
            Fate::Delivered { ack, processed } => (ack, processed),
            _ => unreachable!("healthy signals always deliver"),
        }
    }

    /// One-sided bulk transfer: the sender pays only `o_send`; the message
    /// is absorbed by the receiver's communication thread when it arrives
    /// (serialized with that thread's other receptions).
    ///
    /// Returns `(send_cpu_done, processed_at_receiver)`.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &mut self,
        params: &PlatformParams,
        placement: &Placement,
        jit: &mut JitterBuf,
        src: usize,
        dst: usize,
        bytes: u64,
        issue: f64,
    ) -> (f64, f64) {
        if src == dst {
            // Local memory move: charged as pure bandwidth on the
            // same-socket link, no transport — and no jitter draws, which
            // is why the exchange draw count excludes self messages.
            let lc = params.link(LinkClass::SameSocket);
            let done = issue + bytes as f64 * lc.inv_bandwidth;
            return (done, done);
        }
        let class = placement.link(src, dst);
        let lc = params.link(class);
        let send_done = issue + lc.o_send * jit.next_mult();
        let nic = (class == LinkClass::Remote).then(|| &mut self.nic_free[placement.node_of(src)]);
        let dep = depart(params, nic, send_done);
        let wire = (lc.latency + bytes as f64 * lc.inv_bandwidth) * jit.next_mult();
        let arrival = dep + wire;
        let processed = arrival.max(self.recv_busy[dst]) + lc.o_recv * jit.next_mult();
        self.recv_busy[dst] = processed;
        (send_done, processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::xeon_cluster_params;
    use hpm_topology::{cluster_8x2x4, PlacementPolicy};

    /// Noiseless parameters: an unfilled [`JitterBuf`] serves exact ones.
    fn setup(n: usize) -> (PlatformParams, Placement, JitterBuf) {
        let params = xeon_cluster_params().noiseless();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, n);
        (params, placement, JitterBuf::new())
    }

    #[test]
    fn local_signal_is_cheap_remote_is_expensive() {
        let (params, placement, mut jit) = setup(16);
        // Ranks 0 and 2 share node 0; ranks 0 and 1 are on different nodes.
        let mut net = NetState::new(&placement);
        let (ack_local, _) =
            net.signal_round_trip(&params, &placement, &mut jit, 0, 2, 0.0, 0, 0.0);
        net.reset();
        let (ack_remote, _) =
            net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 0, 0.0);
        assert!(
            ack_remote > 5.0 * ack_local,
            "remote {ack_remote} vs local {ack_local}"
        );
    }

    #[test]
    fn nic_serializes_cohabiting_senders() {
        let (params, placement, mut jit) = setup(16);
        let mut net = NetState::new(&placement);
        // Ranks 0, 2, 4, 6 all live on node 0 (round-robin over 2 nodes);
        // they all signal remote peers at once.
        let mut arrivals = Vec::new();
        for &src in &[0usize, 2, 4, 6] {
            let (_, proc) =
                net.signal_round_trip(&params, &placement, &mut jit, src, src + 1, 0.0, 0, 0.0);
            arrivals.push(proc);
        }
        // Each successive departure is pushed back by nic_gap.
        for w in arrivals.windows(2) {
            assert!(
                w[1] >= w[0] + params.nic_gap * 0.99,
                "NIC must serialize: {arrivals:?}"
            );
        }
    }

    #[test]
    fn unexpected_message_pays_penalty() {
        let (params, placement, mut jit) = setup(16);
        let mut net = NetState::new(&placement);
        // Receiver posts late (at 1 ms): message waits and pays penalty.
        let (_, late) = net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 0, 1e-3);
        net.reset();
        let (_, posted) = net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 0, 0.0);
        assert!(late >= 1e-3 + params.unexpected_penalty);
        assert!(posted < 1e-3);
    }

    #[test]
    fn payload_bytes_cost_bandwidth() {
        let (params, placement, mut jit) = setup(16);
        let mut net = NetState::new(&placement);
        let (a0, _) = net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 0, 0.0);
        net.reset();
        let (a1, _) = net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 100_000, 0.0);
        let delta = a1 - a0;
        let expect = 100_000.0 * params.remote.inv_bandwidth;
        assert!(
            (delta - expect).abs() / expect < 1e-9,
            "bandwidth term {delta} vs {expect}"
        );
    }

    #[test]
    fn receiver_serializes_processing() {
        let (params, placement, mut jit) = setup(16);
        let mut net = NetState::new(&placement);
        // Two remote senders (ranks 0 and 2, both node 0) hit rank 5
        // (node 1) simultaneously.
        let (_, p1) = net.signal_round_trip(&params, &placement, &mut jit, 0, 5, 0.0, 0, 0.0);
        let (_, p2) = net.signal_round_trip(&params, &placement, &mut jit, 2, 5, 0.0, 0, 0.0);
        assert!(
            p2 >= p1 + params.remote.o_recv * 0.99,
            "second processing must queue behind the first"
        );
    }

    #[test]
    fn transfer_releases_sender_early() {
        let (params, placement, mut jit) = setup(16);
        let mut net = NetState::new(&placement);
        let (cpu_done, processed) = net.transfer(&params, &placement, &mut jit, 0, 1, 1 << 20, 0.0);
        // The sender is free long before the megabyte lands: overlap.
        assert!(cpu_done < processed / 100.0, "{cpu_done} vs {processed}");
    }

    /// The fault branches of the shared step: a neutral hazard under the
    /// fault policy is bitwise the healthy step; a lost signal gives up
    /// after the retry budget without touching the receiver; a dead
    /// sender emits nothing.
    #[test]
    fn hazard_branches_of_the_shared_step() {
        use crate::batch::Policy;
        struct Faulty;
        impl Policy for Faulty {
            const FAULTY: bool = true;
        }
        let params = xeon_cluster_params();
        let lc = params.remote;
        let m = [1.01, 0.98, 1.03, 0.97];
        let run = |h: &Hazard, faulty: bool| {
            let (mut nic, mut rb) = (2e-6, 3e-6);
            let fate = if faulty {
                round_trip::<Faulty>(&params, &lc, 1e-5, h, Some(&mut nic), &mut rb, 1e-6, 0.0, m)
            } else {
                round_trip::<Healthy>(&params, &lc, 1e-5, h, Some(&mut nic), &mut rb, 1e-6, 0.0, m)
            };
            (fate, nic.to_bits(), rb.to_bits())
        };
        let neutral = Hazard {
            loss_delay: 7e-3,
            ..Hazard::NONE
        };
        assert_eq!(run(&neutral, true), run(&Hazard::NONE, false));
        let lost = Hazard {
            lost: true,
            ..neutral
        };
        let (fate, _, rb) = run(&lost, true);
        assert!(matches!(fate, Fate::Lost(t) if t >= 7e-3));
        assert_eq!(rb, 3e-6f64.to_bits(), "a lost signal is never processed");
        let dead = Hazard {
            src_crash: 0.0,
            ..neutral
        };
        assert_eq!(run(&dead, true).0, Fate::SenderDead);
        let receiver_gone = Hazard {
            dst_crash: 0.0,
            ..neutral
        };
        assert!(matches!(run(&receiver_gone, true).0, Fate::Lost(_)));
    }

    #[test]
    fn self_transfer_is_memcpy_speed() {
        let (params, placement, mut jit) = setup(8);
        let mut net = NetState::new(&placement);
        let (_, done) = net.transfer(&params, &placement, &mut jit, 0, 0, 1 << 20, 0.0);
        let remote = params.remote.latency;
        assert!(done < remote * 100.0, "self transfer should be cheap");
    }
}
