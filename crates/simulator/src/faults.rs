//! Deterministic fault injection and ack/retry/timeout transport semantics.
//!
//! The paper schedules against a *static* pLogP-calibrated network, but the
//! grids it targets lose messages, flap links and crash nodes routinely. This
//! module makes the discrete-event core survive that storm without giving up
//! the repo's reproducibility contract:
//!
//! * a [`FaultPlan`] injects **message loss, duplication, extra delay, link
//!   flap windows and node crashes** into a run. Every probabilistic decision
//!   is a pure function of `(seed, decision kind, sender, receiver, attempt
//!   number)` — a dedicated `ChaCha8` stream per decision — so a faulty run
//!   is **bit-reproducible and independent of event interleaving or worker
//!   thread count**, exactly like everything else in the workspace;
//! * [`execute_plan_under_faults`] runs a [`SendPlan`] under a fault plan
//!   with **ack/retry/timeout** transport semantics (per-send retry budget,
//!   exponential backoff with deterministic jitter, duplicate suppression by
//!   first-arrival reception — the unacked-send retry cache is the per-send
//!   `delivered` table): a lost copy is retransmitted when its timeout
//!   expires, an exhausted budget emits a [`TraceKind::Drop`] and the run
//!   returns a loud [`Outcome::Incomplete`] naming every undelivered edge
//!   instead of a silent infinite completion. It has no event loop of its
//!   own: this module's faulty transport plugs into the simulator's one
//!   loop ([`crate::engine`]) where the fault-free runs use the reliable
//!   one;
//! * [`resplice_after_crash`] is the cluster-level recovery path: when a
//!   relay dies mid-collective, the already-delivered commit prefix is kept
//!   and the orphaned remainder is re-planned around the corpse via
//!   [`ScheduleEngine::reschedule_excluding`] — strictly cheaper than a
//!   naive from-scratch restart, which must re-send everything after the
//!   crash instant.
//!
//! What is modeled: per-copy loss/duplication/extra delay, unordered-pair
//! link-down windows (a transmission cannot *start* while its link is down),
//! fail-stop crashes at a fixed time (a machine dead at `t` neither sends
//! nor receives at or after `t` — a copy arriving exactly at the crash
//! instant is lost). What is not: acknowledgement traffic does not occupy
//! the network (timeouts are priced off `g + 2L`, the data-and-ack round
//! trip, but acks are free), flaps do not kill copies already in flight, and
//! crashed machines never recover.

use crate::engine::{execute_broadcast, Delivery, Expiry, Transport};
use crate::error::SimError;
use crate::network::NodeNetwork;
use crate::outcome::{FaultStats, FaultySimulation, Outcome, SimulationOutcome};
use crate::plan::SendPlan;
use crate::trace::{TraceKind, TraceSink};
use gridcast_core::{BroadcastProblem, HeuristicKind, Schedule, ScheduleEngine};
use gridcast_plogp::{MessageSize, Time};
use gridcast_topology::{ClusterId, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A window during which the wide-area link between two clusters is down:
/// no transmission between them may *start* in `[from, until)`. Copies
/// already in flight are not affected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFlap {
    /// The unordered cluster pair whose link flaps (`(c, c)` gates
    /// intra-cluster traffic of cluster `c`).
    pub between: (ClusterId, ClusterId),
    /// Start of the down window (inclusive).
    pub from: Time,
    /// End of the down window (exclusive): transmissions may start again at
    /// this instant.
    pub until: Time,
}

impl LinkFlap {
    fn covers(&self, a: usize, b: usize) -> bool {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (fa, fb) = (self.between.0.index(), self.between.1.index());
        let (flo, fhi) = if fa <= fb { (fa, fb) } else { (fb, fa) };
        (lo, hi) == (flo, fhi)
    }
}

/// A time-varying capacity window: transmissions over the **directed**
/// cluster link `from → to` that *start* inside `[from_time, until)` have
/// their gap scaled by `factor`. Copies already in flight are unaffected,
/// and the retry protocol prices its timeout off the scaled gap (a congested
/// link earns a longer timeout, exactly as a real RTT estimator would).
///
/// This is the execution-time lowering of
/// [`gridcast_core::Perturbation::TimeVaryingCapacity`]: the static model the
/// prediction leg prices never sees the window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityWindow {
    /// Sending cluster of the affected directed link.
    pub from: ClusterId,
    /// Receiving cluster of the affected directed link.
    pub to: ClusterId,
    /// Gap multiplier inside the window, positive and finite.
    pub factor: f64,
    /// Start of the window (inclusive).
    pub from_time: Time,
    /// End of the window (exclusive).
    pub until: Time,
}

/// A fail-stop node crash: the machine is dead at `at` — it starts no
/// transmission and receives no copy at or after that instant, and it never
/// recovers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeCrash {
    /// The machine that dies.
    pub node: NodeId,
    /// The instant it dies.
    pub at: Time,
}

// Decision-kind salts: each probabilistic decision draws from its own
// key-separated ChaCha8 stream, so adding a fault dimension never shifts the
// draws of another.
const SALT_LOSS: u64 = 0xA1;
const SALT_DUP: u64 = 0xA2;
const SALT_DELAY: u64 = 0xA3;
const SALT_DELAY_MAG: u64 = 0xA4;
const SALT_JITTER: u64 = 0xA5;

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded, declarative fault injection plan.
///
/// Probabilities are per *transmission attempt* (a retransmission re-rolls
/// with a fresh attempt number). The determinism contract: every draw is a
/// pure function of `(seed, decision, sender, receiver, attempt)`, so two
/// runs of the same plan under the same faults are byte-identical, from any
/// number of worker threads, in any event interleaving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root seed of every decision stream.
    pub seed: u64,
    /// Probability that a transmitted copy is lost.
    pub loss: f64,
    /// Probability that a delivered copy is duplicated (the ghost copy
    /// arrives one extra latency later; first-arrival reception suppresses
    /// it).
    pub duplication: f64,
    /// Probability that a delivered copy is delayed beyond the model time.
    pub delay_probability: f64,
    /// Maximum extra delay; the actual delay is uniform in `[0, max]`.
    pub max_extra_delay: Time,
    /// Link-down windows.
    pub flaps: Vec<LinkFlap>,
    /// Fail-stop node crashes.
    pub crashes: Vec<NodeCrash>,
    /// Time-varying capacity windows (gap scaling by start time).
    #[serde(default)]
    pub capacity_windows: Vec<CapacityWindow>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed: running under it is
    /// bit-identical to the fault-free executor (the conformance tests pin
    /// this).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss: 0.0,
            duplication: 0.0,
            delay_probability: 0.0,
            max_extra_delay: Time::ZERO,
            flaps: Vec::new(),
            crashes: Vec::new(),
            capacity_windows: Vec::new(),
        }
    }

    /// Sets the per-attempt loss probability (in `[0, 1]`).
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.loss = p;
        self
    }

    /// Sets the per-delivery duplication probability (in `[0, 1]`).
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability must be in [0, 1]"
        );
        self.duplication = p;
        self
    }

    /// Sets the extra-delay fault: with probability `p`, a delivered copy
    /// arrives up to `max` later (uniformly).
    pub fn with_extra_delay(mut self, p: f64, max: Time) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "delay probability must be in [0, 1]"
        );
        assert!(max.is_finite() && max >= Time::ZERO, "delay must be finite");
        self.delay_probability = p;
        self.max_extra_delay = max;
        self
    }

    /// Adds a link-down window.
    pub fn with_flap(mut self, flap: LinkFlap) -> Self {
        assert!(flap.from <= flap.until, "flap window must not be inverted");
        self.flaps.push(flap);
        self
    }

    /// Adds a fail-stop node crash.
    pub fn with_crash(mut self, crash: NodeCrash) -> Self {
        assert!(crash.at.is_finite(), "crash time must be finite");
        self.crashes.push(crash);
        self
    }

    /// Adds a time-varying capacity window.
    pub fn with_capacity_window(mut self, window: CapacityWindow) -> Self {
        assert!(
            window.factor.is_finite() && window.factor > 0.0,
            "capacity factor must be positive and finite"
        );
        assert!(
            window.from_time <= window.until,
            "capacity window must not be inverted"
        );
        self.capacity_windows.push(window);
        self
    }

    /// The gap of a transmission over the directed cluster link `from → to`
    /// starting at `start`, with every active capacity window applied (stacked
    /// windows multiply).
    fn capacity_gap(&self, from: usize, to: usize, start: Time, gap: Time) -> Time {
        let mut gap = gap;
        for w in &self.capacity_windows {
            if w.from.index() == from
                && w.to.index() == to
                && start >= w.from_time
                && start < w.until
            {
                gap = gap * w.factor;
            }
        }
        gap
    }

    /// A uniform draw in `[0, 1)` for one decision — a pure function of the
    /// decision coordinates, independent of any sampling that happened
    /// before it.
    fn unit(&self, salt: u64, from: NodeId, to: NodeId, attempt: u32) -> f64 {
        let mut key = self.seed ^ mix64(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        key = mix64(key ^ (((from.index() as u64) << 32) | to.index() as u64));
        key = mix64(key ^ u64::from(attempt));
        ChaCha8Rng::seed_from_u64(key).gen_f64()
    }

    /// The earliest instant at or after `at` at which the link between the
    /// two clusters is up. Windows may chain; each is applied at most once
    /// per call, so this converges.
    fn flap_clear(&self, a: usize, b: usize, at: Time) -> Time {
        let mut t = at;
        let mut moved = true;
        while moved {
            moved = false;
            for f in &self.flaps {
                if f.covers(a, b) && t >= f.from && t < f.until {
                    t = f.until;
                    moved = true;
                }
            }
        }
        t
    }

    fn crash_times(&self, n: usize) -> Vec<Time> {
        let mut crash = vec![Time::INFINITY; n];
        for c in &self.crashes {
            let i = c.node.index();
            assert!(i < n, "crash names machine {} of a {n}-machine run", c.node);
            crash[i] = crash[i].min(c.at);
        }
        crash
    }
}

/// The ack/retry/timeout protocol configuration.
///
/// A sender considers a copy unacknowledged after `max(base_timeout, g +
/// 2L) · backoff^attempt · (1 + jitter·u)` where `u ∈ [0, 1)` is a
/// deterministic per-attempt draw — the classic exponential backoff with
/// jitter, priced off the pLogP data-and-ack round trip of the actual link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total transmission budget per send (first attempt included). Must be
    /// at least 1; the send is abandoned (a [`TraceKind::Drop`]) when the
    /// budget is exhausted.
    pub max_attempts: u32,
    /// Floor for the first timeout; the per-link round trip `g + 2L` is used
    /// when larger (or when this is zero).
    pub base_timeout: Time,
    /// Multiplicative backoff per retransmission.
    pub backoff: f64,
    /// Jitter fraction: the timeout is stretched by up to this fraction,
    /// deterministically per attempt.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_timeout: Time::ZERO,
            backoff: 2.0,
            jitter: 0.1,
        }
    }
}

impl RetryPolicy {
    /// The timeout armed for `attempt` (0-based) of a send over a link with
    /// round trip `rtt = g + 2L`.
    fn timeout(
        &self,
        faults: &FaultPlan,
        from: NodeId,
        to: NodeId,
        attempt: u32,
        rtt: Time,
    ) -> Time {
        let base = rtt.max(self.base_timeout);
        let mut scale = self.backoff.powi(attempt as i32);
        if self.jitter > 0.0 {
            scale *= 1.0 + self.jitter * faults.unit(SALT_JITTER, from, to, attempt);
        }
        base * scale
    }
}

/// The faulty transport of the event core: a [`FaultPlan`] and a
/// [`RetryPolicy`] applied to every transmission of a broadcast plan.
struct Faulty<'a> {
    faults: &'a FaultPlan,
    retry: &'a RetryPolicy,
    crash_time: Vec<Time>,
    /// Flat per-send tables (`send_base[node] + k`): the transmission count
    /// and the unacked/delivered cache of the retry protocol.
    send_base: Vec<usize>,
    attempts: Vec<u32>,
    delivered: Vec<bool>,
    stats: FaultStats,
}

impl<'a> Faulty<'a> {
    fn new(plan: &SendPlan, faults: &'a FaultPlan, retry: &'a RetryPolicy) -> Self {
        let ends = plan.forwards.iter().scan(0, |total, forwards| {
            *total += forwards.len();
            Some(*total)
        });
        let send_base: Vec<usize> = std::iter::once(0).chain(ends).collect();
        let total_sends = send_base[plan.num_nodes()];
        Faulty {
            faults,
            retry,
            crash_time: faults.crash_times(plan.num_nodes()),
            send_base,
            attempts: vec![0u32; total_sends],
            delivered: vec![false; total_sends],
            // Every crash mark is queued up front and the queue drains, so
            // every crash fires.
            stats: FaultStats {
                crashes: faults.crashes.len(),
                ..FaultStats::default()
            },
        }
    }

    /// The loud result of a drained run: complete iff every machine was
    /// reached, and otherwise the undelivered plan edges in plan order.
    fn report(self, plan: &SendPlan, outcome: SimulationOutcome) -> Outcome {
        let sim = FaultySimulation {
            outcome,
            stats: self.stats,
        };
        if sim.outcome.completion.is_finite() {
            return Outcome::Complete(sim);
        }
        let mut undelivered = Vec::new();
        for (node, forwards) in plan.forwards.iter().enumerate() {
            for (k, &to) in forwards.iter().enumerate() {
                if !self.delivered[self.send_base[node] + k] {
                    undelivered.push((NodeId(node as u32), to));
                }
            }
        }
        Outcome::Incomplete {
            undelivered,
            partial: sim,
        }
    }
}

impl Transport for Faulty<'_> {
    fn crashes(&self) -> &[NodeCrash] {
        &self.faults.crashes
    }

    fn alive(&self, node: usize, at: Time) -> bool {
        self.crash_time[node] > at
    }

    fn link_up(&self, src: usize, dst: usize, at: Time) -> Time {
        self.faults.flap_clear(src, dst, at)
    }

    fn gap(&self, src: usize, dst: usize, start: Time, gap: Time) -> Time {
        self.faults.capacity_gap(src, dst, start, gap)
    }

    fn deliver(
        &mut self,
        from: NodeId,
        send: usize,
        to: NodeId,
        start: Time,
        gap: Time,
        latency: Time,
    ) -> (TraceKind, Delivery) {
        let faults = self.faults;
        let flat = self.send_base[from.index()] + send;
        let attempt = self.attempts[flat];
        self.attempts[flat] = attempt + 1;
        self.stats.attempts += 1;
        let kind = if attempt == 0 {
            TraceKind::SendStart
        } else {
            self.stats.retries += 1;
            TraceKind::Retry
        };
        let mut arrival = start + gap + latency;
        if faults.delay_probability > 0.0
            && faults.unit(SALT_DELAY, from, to, attempt) < faults.delay_probability
        {
            arrival += faults.max_extra_delay * faults.unit(SALT_DELAY_MAG, from, to, attempt);
        }
        let lost = faults.loss > 0.0 && faults.unit(SALT_LOSS, from, to, attempt) < faults.loss;
        // A copy arriving at or after the receiver's crash instant is lost too —
        // the sender cannot tell the difference and keeps retrying into the
        // void until its budget runs out.
        if lost || !self.alive(to.index(), arrival) {
            self.stats.lost += 1;
            let rtt = gap + latency + latency;
            let timeout = self.retry.timeout(faults, from, to, attempt, rtt);
            return (
                kind,
                Delivery::Lost {
                    timeout: start + timeout,
                },
            );
        }
        self.delivered[flat] = true;
        let ghost = faults.duplication > 0.0
            && faults.unit(SALT_DUP, from, to, attempt) < faults.duplication;
        if ghost {
            self.stats.duplicates += 1;
        }
        let ghost = ghost.then_some(arrival + latency);
        (kind, Delivery::Arrives { at: arrival, ghost })
    }

    fn expire(&mut self, node: usize, send: usize, now: Time) -> Expiry {
        let flat = self.send_base[node] + send;
        if self.delivered[flat] || !self.alive(node, now) {
            // Acked meanwhile (a later copy of a lost send cannot be acked —
            // but a duplicate path may deliver), or the sender itself died:
            // the timer is moot.
            Expiry::Moot
        } else if self.attempts[flat] >= self.retry.max_attempts {
            self.stats.drops += 1;
            Expiry::Drop
        } else {
            Expiry::Retransmit
        }
    }
}

/// Executes a [`SendPlan`] under a [`FaultPlan`] with ack/retry/timeout
/// transport semantics.
///
/// The plan is lowered onto the event core exactly as
/// [`execute_plan_with_sink`](crate::execute_plan_with_sink) lowers it, over
/// the faulty transport instead of the reliable one, so under a fault-free
/// plan the two are bit-identical (conformance-tested). On top of it:
///
/// * every transmission occupies its sender's interface (and, cross-cluster,
///   a WAN channel) for the gap **whether or not the copy survives** — lost
///   bytes still cost bandwidth;
/// * a lost copy (injected loss, or a receiver dead at the arrival instant)
///   arms a retry timer: `max(base_timeout, g + 2L) · backoff^attempt ·
///   (1 + jitter·u)` after the transmission started. When it expires the
///   send retransmits (a [`TraceKind::Retry`]) if its budget allows, else it
///   is abandoned with a [`TraceKind::Drop`];
/// * duplicated copies arrive one extra latency later; reception is
///   first-arrival, so duplicates are suppressed by construction;
/// * a machine whose crash time has passed neither starts transmissions
///   (pending plan sends stay unsent and are reported undelivered) nor
///   receives copies; its crash is traced as a [`TraceKind::Crash`];
/// * the run returns [`Outcome::Complete`] iff every machine was reached,
///   and otherwise a loud [`Outcome::Incomplete`] with the undelivered plan
///   edges in deterministic plan order.
///
/// A clock-regression violation returns [`SimError::ClockRegression`], and a
/// trace sink whose writer failed mid-stream returns [`SimError::Trace`]
/// after the drain.
///
/// Determinism: the result — outcome, stats, full trace — is a pure function
/// of the arguments. No global RNG, no wall clock, no thread count.
pub fn execute_plan_under_faults<S: TraceSink>(
    network: &NodeNetwork,
    plan: &SendPlan,
    m: MessageSize,
    start_offset: Time,
    faults: &FaultPlan,
    retry: &RetryPolicy,
    sink: &mut S,
) -> Result<Outcome, SimError> {
    assert!(
        retry.max_attempts >= 1,
        "the retry budget includes attempt 0"
    );
    let mut transport = Faulty::new(plan, faults, retry);
    let outcome = execute_broadcast(network, plan, m, start_offset, &mut transport, sink)?;
    Ok(transport.report(plan, outcome))
}

/// Cluster-level crash recovery: keep what the dying broadcast already
/// delivered, re-plan the rest around the corpse.
///
/// The commit prefix is every event of `original` fully delivered by
/// `crash_at` (`arrival <= crash_at`) — including deliveries *to* and sends
/// *by* the failed relay from before it died; copies still in flight at the
/// crash instant are conservatively treated as not sent and re-planned. The
/// remainder is re-scheduled from that prefix via
/// [`ScheduleEngine::reschedule_excluding`], with every surviving cluster's
/// ready time clamped to `crash_at` (nothing new starts before the failure
/// is detected).
///
/// The repair strictly beats a naive from-scratch restart whenever the
/// prefix delivered anything useful: the restart must re-send every edge
/// after `crash_at`, while the resplice starts from the already-covered
/// clusters (the core's conformance suite pins both the bit-exactness of
/// the re-plan and the strict win).
///
/// # Panics
///
/// If `failed` is the root (a dead root has nothing to recover) or
/// `crash_at` is not finite.
pub fn resplice_after_crash(
    engine: &mut ScheduleEngine,
    problem: &BroadcastProblem,
    original: &Schedule,
    kind: HeuristicKind,
    failed: ClusterId,
    crash_at: Time,
) -> Schedule {
    let committed: Vec<_> = original
        .events
        .iter()
        .copied()
        .filter(|e| e.arrival <= crash_at)
        .collect();
    engine.reschedule_excluding(problem, kind, failed, &committed, crash_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_plan_with_sink;
    use crate::trace::{CountingSink, StreamingSink};
    use gridcast_topology::{grid5000_table3, Grid};

    fn grid() -> Grid {
        grid5000_table3()
    }

    fn binomial(grid: &Grid) -> SendPlan {
        SendPlan::binomial_over_all_nodes(grid, ClusterId(0))
    }

    #[test]
    fn capacity_windows_scale_gap_only_inside_window() {
        let plan = FaultPlan::new(1).with_capacity_window(CapacityWindow {
            from: ClusterId(0),
            to: ClusterId(1),
            factor: 4.0,
            from_time: Time::from_millis(10.0),
            until: Time::from_millis(20.0),
        });
        let g = Time::from_millis(100.0);
        // Inclusive start, exclusive end, directed link only.
        assert_eq!(plan.capacity_gap(0, 1, Time::from_millis(10.0), g), g * 4.0);
        assert_eq!(plan.capacity_gap(0, 1, Time::from_millis(19.0), g), g * 4.0);
        assert_eq!(plan.capacity_gap(0, 1, Time::from_millis(20.0), g), g);
        assert_eq!(plan.capacity_gap(0, 1, Time::from_millis(5.0), g), g);
        assert_eq!(plan.capacity_gap(1, 0, Time::from_millis(15.0), g), g);
    }

    #[test]
    fn stacked_capacity_windows_multiply() {
        let w = |factor| CapacityWindow {
            from: ClusterId(2),
            to: ClusterId(3),
            factor,
            from_time: Time::ZERO,
            until: Time::from_millis(50.0),
        };
        let plan = FaultPlan::new(1)
            .with_capacity_window(w(2.0))
            .with_capacity_window(w(3.0));
        let g = Time::from_millis(10.0);
        assert_eq!(plan.capacity_gap(2, 3, Time::ZERO, g), g * 2.0 * 3.0);
    }

    #[test]
    fn fault_free_plan_is_bit_identical_to_the_plain_executor() {
        let grid = grid();
        let network = NodeNetwork::new(&grid);
        let plan = binomial(&grid);
        let m = MessageSize::from_mib(1);
        let mut plain_trace = Vec::new();
        let plain = execute_plan_with_sink(&network, &plan, m, Time::ZERO, &mut plain_trace);
        let faults = FaultPlan::new(42);
        let mut faulty_trace = Vec::new();
        let outcome = execute_plan_under_faults(
            &network,
            &plan,
            m,
            Time::ZERO,
            &faults,
            &RetryPolicy::default(),
            &mut faulty_trace,
        )
        .unwrap();
        let Outcome::Complete(sim) = outcome else {
            panic!("fault-free run must complete");
        };
        assert_eq!(sim.outcome, plain);
        assert_eq!(sim.stats.retries, 0);
        assert_eq!(sim.stats.lost, 0);
        assert_eq!(faulty_trace, plain_trace);
        // Bit-identical, not approximately equal.
        for (a, b) in sim
            .outcome
            .receive_times
            .iter()
            .zip(plain.receive_times.iter())
        {
            assert_eq!(a.as_secs().to_bits(), b.as_secs().to_bits());
        }
    }

    #[test]
    fn trace_write_failures_surface_under_faults() {
        let grid = grid();
        let network = NodeNetwork::new(&grid);
        let plan = binomial(&grid);
        // A writer with no room: its first write fails.
        let mut full: [u8; 0] = [];
        let mut sink = StreamingSink::new(&mut full[..]);
        let err = execute_plan_under_faults(
            &network,
            &plan,
            MessageSize::from_mib(1),
            Time::ZERO,
            &FaultPlan::new(1),
            &RetryPolicy::default(),
            &mut sink,
        )
        .expect_err("a failing writer must surface as SimError::Trace");
        assert!(matches!(err, SimError::Trace(_)), "{err}");
        // Taken, so reported once: `finish` no longer re-reports it.
        assert_eq!(sink.written(), 0);
        assert!(sink.finish().is_ok());
    }

    #[test]
    fn loss_with_retries_completes_with_inflated_makespan() {
        let grid = grid();
        let network = NodeNetwork::new(&grid);
        let plan = binomial(&grid);
        let m = MessageSize::from_mib(1);
        let clean = execute_plan_with_sink(&network, &plan, m, Time::ZERO, &mut crate::NullSink);
        for seed in [11u64, 23, 47] {
            let faults = FaultPlan::new(seed).with_loss(0.2);
            let retry = RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::default()
            };
            let outcome = execute_plan_under_faults(
                &network,
                &plan,
                m,
                Time::ZERO,
                &faults,
                &retry,
                &mut crate::NullSink,
            )
            .unwrap();
            let Outcome::Complete(sim) = outcome else {
                panic!("p = 0.2 with an 8-attempt budget must complete (seed {seed})");
            };
            assert!(sim.outcome.completion >= clean.completion);
            assert!(sim.stats.retries > 0, "seed {seed} rolled no losses at all");
            assert_eq!(sim.stats.lost, sim.stats.retries + sim.stats.drops);
        }
    }

    #[test]
    fn exhausted_budgets_drop_loudly_with_undelivered_edges() {
        let grid = grid();
        let network = NodeNetwork::new(&grid);
        let plan = binomial(&grid);
        let m = MessageSize::from_mib(1);
        // Certain loss: every copy dies, every send exhausts its budget.
        let faults = FaultPlan::new(7).with_loss(1.0);
        let retry = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let mut counting = CountingSink::default();
        let outcome = execute_plan_under_faults(
            &network,
            &plan,
            m,
            Time::ZERO,
            &faults,
            &retry,
            &mut counting,
        )
        .unwrap();
        let Outcome::Incomplete {
            undelivered,
            partial,
        } = outcome
        else {
            panic!("certain loss cannot complete");
        };
        // Only the source's own sends were ever attempted (nobody else got
        // the message), each dropped after 2 attempts.
        let source_sends = plan.forwards[plan.source.index()].len();
        assert_eq!(counting.sends, source_sends);
        assert_eq!(counting.retries, source_sends);
        assert_eq!(counting.drops, source_sends);
        assert_eq!(partial.stats.drops, source_sends);
        // Every plan edge is undelivered, in deterministic plan order.
        assert_eq!(undelivered.len(), plan.num_messages());
        assert!(!partial.outcome.completion.is_finite());
        assert_eq!(partial.unreached().len(), network.num_nodes() - 1);
    }

    #[test]
    fn crashes_kill_subtrees_and_are_traced() {
        let grid = grid();
        let network = NodeNetwork::new(&grid);
        let plan = binomial(&grid);
        let m = MessageSize::from_mib(1);
        // Find a relay (a non-source node that forwards) and kill it before
        // the broadcast starts: its whole subtree goes dark.
        let relay = (0..network.num_nodes())
            .find(|&i| i != plan.source.index() && !plan.forwards[i].is_empty())
            .expect("a binomial plan has relays");
        let faults = FaultPlan::new(3).with_crash(NodeCrash {
            node: NodeId(relay as u32),
            at: Time::ZERO,
        });
        let retry = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let mut counting = CountingSink::default();
        let outcome = execute_plan_under_faults(
            &network,
            &plan,
            m,
            Time::ZERO,
            &faults,
            &retry,
            &mut counting,
        )
        .unwrap();
        assert_eq!(counting.crashes, 1);
        let Outcome::Incomplete {
            undelivered,
            partial,
        } = outcome
        else {
            panic!("killing a relay must be loud");
        };
        assert_eq!(partial.stats.crashes, 1);
        // The relay's parent retried into the void, then dropped.
        assert!(partial.stats.drops >= 1);
        // The dead relay and its pending sends are all undelivered.
        assert!(undelivered
            .iter()
            .any(|&(_, to)| to == NodeId(relay as u32)));
        assert!(undelivered
            .iter()
            .any(|&(from, _)| from == NodeId(relay as u32)));
        assert!(partial.unreached().contains(&NodeId(relay as u32)));
    }

    #[test]
    fn flap_windows_defer_transmission_starts() {
        let grid = grid();
        let network = NodeNetwork::new(&grid);
        let mut plan = SendPlan::empty(NodeId(0), network.num_nodes());
        // Node 0 (cluster 0) sends to the first node of another cluster.
        let target = (0..network.num_nodes() as u32)
            .map(NodeId)
            .find(|&n| network.cluster_of(n) != network.cluster_of(NodeId(0)))
            .expect("multi-cluster grid");
        plan.forwards[0].push(target);
        let m = MessageSize::from_mib(1);
        let clean = execute_plan_with_sink(&network, &plan, m, Time::ZERO, &mut crate::NullSink);
        let down_until = Time::from_millis(40.0);
        let faults = FaultPlan::new(1).with_flap(LinkFlap {
            between: (network.cluster_of(NodeId(0)), network.cluster_of(target)),
            from: Time::ZERO,
            until: down_until,
        });
        let outcome = execute_plan_under_faults(
            &network,
            &plan,
            m,
            Time::ZERO,
            &faults,
            &RetryPolicy::default(),
            &mut crate::NullSink,
        )
        .unwrap();
        let expected = down_until + clean.receive_time(target);
        assert!(
            outcome
                .simulation()
                .outcome
                .receive_time(target)
                .approx_eq(expected, Time::from_micros(1.0)),
            "the transfer starts exactly when the link comes back up"
        );
    }

    #[test]
    fn duplication_injects_suppressed_ghost_copies() {
        let grid = grid();
        let network = NodeNetwork::new(&grid);
        let plan = binomial(&grid);
        let m = MessageSize::from_mib(1);
        let clean = execute_plan_with_sink(&network, &plan, m, Time::ZERO, &mut crate::NullSink);
        let faults = FaultPlan::new(5).with_duplication(1.0);
        let mut counting = CountingSink::default();
        let outcome = execute_plan_under_faults(
            &network,
            &plan,
            m,
            Time::ZERO,
            &faults,
            &RetryPolicy::default(),
            &mut counting,
        )
        .unwrap();
        let Outcome::Complete(sim) = outcome else {
            panic!("duplication never prevents completion");
        };
        // Ghost copies double the arrivals but reception is first-arrival:
        // every machine's receive time is exactly the clean one.
        assert_eq!(sim.stats.duplicates, clean.messages);
        assert_eq!(counting.arrivals, 2 * clean.messages);
        for (a, b) in sim
            .outcome
            .receive_times
            .iter()
            .zip(clean.receive_times.iter())
        {
            assert_eq!(a.as_secs().to_bits(), b.as_secs().to_bits());
        }
    }

    #[test]
    fn faulty_replay_is_byte_identical_for_a_fixed_seed() {
        let grid = grid();
        let network = NodeNetwork::new(&grid);
        let plan = binomial(&grid);
        let m = MessageSize::from_mib(1);
        let faults = FaultPlan::new(0xDEAD_BEEF)
            .with_loss(0.15)
            .with_duplication(0.1)
            .with_extra_delay(0.2, Time::from_millis(3.0))
            .with_crash(NodeCrash {
                node: NodeId(17),
                at: Time::from_millis(25.0),
            });
        let retry = RetryPolicy::default();
        let mut trace_a = Vec::new();
        let a = execute_plan_under_faults(
            &network,
            &plan,
            m,
            Time::ZERO,
            &faults,
            &retry,
            &mut trace_a,
        )
        .unwrap();
        let mut trace_b = Vec::new();
        let b = execute_plan_under_faults(
            &network,
            &plan,
            m,
            Time::ZERO,
            &faults,
            &retry,
            &mut trace_b,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(trace_a, trace_b);
        // And the trace respects the monotone-clock streaming contract even
        // under faults.
        assert!(trace_a.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn resplice_after_crash_reuses_the_delivered_prefix() {
        let grid = grid();
        let message = MessageSize::from_mib(1);
        let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), message);
        let mut engine = ScheduleEngine::new();
        let kind = HeuristicKind::EcefLaMax;
        let original = engine.schedule(&problem, kind);
        // Kill the first relay at the instant of its first delivery: the
        // prefix up to then is kept verbatim.
        let relay = original
            .events
            .iter()
            .map(|e| e.receiver)
            .find(|&r| original.events.iter().any(|e| e.sender == r))
            .expect("a grid schedule has relays");
        let crash_at = original
            .events
            .iter()
            .filter(|e| e.sender == relay)
            .map(|e| e.arrival)
            .fold(Time::INFINITY, Time::min);
        let repaired =
            resplice_after_crash(&mut engine, &problem, &original, kind, relay, crash_at);
        // The delivered prefix (commit order, not necessarily an index
        // prefix — arrivals interleave across links) is kept verbatim.
        let committed: Vec<_> = original
            .events
            .iter()
            .copied()
            .filter(|e| e.arrival <= crash_at)
            .collect();
        assert!(!committed.is_empty());
        for (a, b) in repaired.events.iter().zip(committed.iter()) {
            assert_eq!(a, b);
        }
        // Repairs never involve the corpse and never start before the crash.
        for e in &repaired.events[committed.len()..] {
            assert_ne!(e.sender, relay);
            assert_ne!(e.receiver, relay);
            assert!(e.start >= crash_at);
        }
        // Everyone except the corpse is covered.
        assert!(repaired.makespan_excluding(relay).is_finite());
    }
}
