//! The pattern-agnostic scheduling engine behind every heuristic.
//!
//! Every heuristic of the paper instantiates the same A/B-set formalism: pick a
//! (sender ∈ A, receiver ∈ B) pair, commit the transfer, repeat. The seed
//! implementation re-ran that loop — including a full `O(|A|·|B|)` rescan of
//! every candidate pair — inside each heuristic. [`ScheduleEngine`] extracts the
//! loop once and reduces a heuristic to a [`SelectionPolicy`]: a scoring rule
//! for candidate edges plus an optional receiver-level lookahead hook.
//!
//! ## Incremental candidate maintenance
//!
//! The engine maintains, for every receiver still in B, a row of up to
//! [`DEFAULT_K_BEST`] cached sender candidates sorted by `(edge score, sender id)`,
//! plus a **floor** entry bounding every sender outside the row. The row's
//! head is kept *exact* at all times — its stored score always equals the
//! sender's current edge score, and it is the lexicographic minimum over all
//! of A — because the selection must stay byte-identical to the paper's
//! nested loops. The remaining cached scores are *lower bounds* on their
//! senders' current scores. All three invariants lean on the monotonicity
//! contract of [`SelectionPolicy::edge_score`]: a time-sensitive score never
//! *decreases* when the sender's ready time grows.
//!
//! After a commit only two things change:
//!
//! * the committed **receiver** joined A — it is offered as a candidate to
//!   every remaining receiver in `O(K_BEST)` each: inserted into the row at
//!   its sorted position (folding any displaced last entry into the floor) or
//!   tightening the floor directly;
//! * the committed **sender**'s ready time grew — receivers whose cached best
//!   sender is that cluster are *repaired* in `O(K_BEST)`: the head is
//!   refreshed and bubbled to its sorted position, surfacing runners-up until
//!   the head is fresh. A fresh head underruns every cached lower bound, so it
//!   is the exact minimum over the row; if it also beats the floor it is the
//!   global minimum (a **second-best hit** when the old best held on, a
//!   **promotion** when a runner-up took over) and the repair is done. Only
//!   when the whole row deteriorated past the floor does the engine fall back
//!   to a **rescan**.
//!
//! Each rescan is a pruned walk over the senders in ready order (a sorted
//! array kept incrementally — ready times only grow, so a commit re-sorts
//! with one bubble pass and one insert). The walk retires as soon as the next
//! ready time plus the receiver's static score offset
//! ([`SelectionPolicy::edge_score_offset`]) exceeds its provisional
//! `(K_BEST+1)`-smallest score — sound because an edge score is bounded below
//! by its sender's ready time plus that offset — and leaves the receiver with
//! an exact rebuilt row and floor.
//!
//! Policies whose scores do not depend on ready times (Flat Tree, FEF) declare
//! [`SelectionPolicy::sender_time_sensitive`] `false`. Nothing ever
//! invalidates their heads, so the engine keeps only each receiver's head for
//! them: an offer replaces it or leaves, and no runner-up, floor or gate is
//! maintained. With the ECEF lookaheads served from a dense per-receiver bias
//! cache this brings a full schedule to `O(n² log n)` from the seed's `O(n³)`
//! (and worse with lookahead), with the rescan term — the remaining
//! super-quadratic contribution — amortised away by the runner-up repairs and
//! the pruned walk. `tests/rescan_regression.rs` pins their exact counts on
//! seeded Table-2 grids: at the default width the runners-up repair ~59% of
//! invalidations at 100 clusters and ~46% at 1000, where the walk examines
//! 4.9 M senders per seven-heuristic batch. The end-to-end timings of that
//! batch are perfbench's `batch_1000` workload, and `BENCH_ablation.json`
//! records its interleaved A/B runs.
//!
//! ## Float-first comparisons
//!
//! Nearly every step of the round loop is one comparison: a walked sender
//! against the retirement bound and the provisional floor, an offer against
//! the gate, a candidate against the round's incumbent. That comparison, not
//! memory traffic, is what the 1000-cluster batch spends its time on, so each
//! one is decided on native floats. [`Time`]'s order answers with one IEEE
//! `<` or `>` whenever two values differ and falls back to `total_cmp` only
//! on equal floats, `±0` or NaN. On top of that, the two loops that reject
//! nearly everything they see — the offer gate and the walk's top-`K+1`
//! insert — and the head-only offers of time-insensitive policies drop a
//! candidate whose score is strictly worse as a plain float before any
//! `(score, id)` tuple is compared. Strictly worse as floats implies strictly
//! worse in the total order, so every decision is the one the exact tuple
//! order makes, for every bit pattern; ties still go through the tuple order,
//! which the tie-heavy parity proptest exercises. The same reject in the
//! selection scan and the repair bubble did not measurably pay on top of the
//! float-first order, so those compare tuples directly.
//!
//! All engine buffers are reused across rounds, heuristics and problems: after
//! warm-up, a call to [`ScheduleEngine::makespan`] performs **zero heap
//! allocations** (asserted by `tests/alloc_probe.rs`). Every build records
//! the [`EngineTelemetry`] counters: one integer increment per counted event,
//! and one addition per rescan walk rather than one per walked sender.
//!
//! Tie-breaking replicates the seed heuristics exactly — byte-identical
//! schedules are asserted by `tests/proptest_invariants.rs` — so the engine is
//! a drop-in replacement, not a numerical approximation.
//!
//! One theoretical corner is out of scope of that guarantee: for the lookahead
//! ECEF variants the engine resolves each receiver's best sender on the edge
//! score alone and adds `F_j` afterwards, while the original loop compared the
//! rounded sums `fl((RT_i + g_ij + L_ij) + F_j)`. The selected *objective
//! value* is always identical (rounding is monotone), but if two senders'
//! distinct edge scores are absorbed to the exact same sum by a much larger
//! `F_j` (a sub-ulp coincidence that requires `|e₁−e₂| < ulp(e+F)`), the two
//! implementations may pick different — equally scoring — senders. Continuous
//! random instances hit this with probability ~0, and exact score ties (the
//! case that actually occurs, e.g. symmetric grids) break identically on both
//! paths.

use crate::heuristics::{
    BottomUpPolicy, EcefPolicy, FefPolicy, FlatTreePolicy, HeuristicKind, Lookahead,
};
use crate::perturb::{DeltaDirection, Perturbation, ReplayDelta};
use crate::{BroadcastProblem, Schedule, ScheduleEvent};
use gridcast_plogp::{MessageSize, Time};
use gridcast_topology::{ClusterId, Grid};
use std::cell::RefCell;

/// Asserts (in debug builds) that a policy score is not NaN.
///
/// [`Time`] forbids NaN at *construction*, but its `Add`/`Sub` operators work
/// on raw `f64` for speed — so `INF − INF` or `0 × INF` arithmetic inside a
/// policy can smuggle a NaN into the engine, where `total_cmp` sorts it
/// *above* `+∞` and silently corrupts the k-best rows (a NaN head would never
/// be displaced). Problems with infinite sentinel edges (e.g.
/// [`ScatterProblem::as_broadcast_problem`](crate::ScatterProblem::as_broadcast_problem))
/// are exactly the inputs that can trip this, so every score entering the
/// candidate cache or the selection scan passes through this check.
#[inline]
fn debug_assert_score_not_nan(score: Time) {
    debug_assert!(
        !score.as_secs().is_nan(),
        "selection produced a NaN score (INF − INF or 0 × INF in a policy?)"
    );
}

/// Sentinel sender id meaning "no cached entry".
const NO_SENDER: u32 = u32::MAX;

/// The candidate-row width `K` of a [`ScheduleEngine::new`] engine: the best
/// entry plus `K − 1` runners-up per receiver, for every policy and every
/// problem size.
///
/// The row width is a **pure performance knob**: schedules are byte-identical
/// for any `K ≥ 1` (the row head is kept exact and rescans rebuild exact
/// rows), so [`ScheduleEngine::with_k_best`] may override it freely. Wider
/// rows repair more invalidations in place but pay insertion shuffles on
/// every offer; since the per-receiver pruned rescan walk made row misses
/// cheap, the end-to-end A/B in `BENCH_ablation.json` could not tell 2 from
/// 4 or from the old per-policy table on the 1000-cluster batch, whose exact
/// repair and rescan counts at this width `tests/rescan_regression.rs` pins.
/// On the 100-cluster serve mix the old table's `K = 1` for Flat Tree and FEF
/// read ~4% more throughput, inside the benchmark's bound.
pub const DEFAULT_K_BEST: usize = 2;

/// Read-only view of the engine state handed to policies.
///
/// The flat `g + L` cost matrix is carried in **two orientations** — the
/// sender-major original and a receiver-major transposed twin holding the
/// exact same floats — and each view is constructed over whichever one its
/// call site streams contiguously. The offer loop (one fresh sender scored
/// against every receiver) reads the sender-major row; the repair path and
/// the rescan walk (many senders scored against one receiver) read the
/// receiver-major row, which keeps each pending receiver's costs inside a few
/// cache lines instead of striding a column through the whole matrix.
/// Policies are none the wiser: [`EngineView::completion_estimate`] and
/// [`EngineView::transfer`] return bit-identical values either way.
#[derive(Clone, Copy)]
pub struct EngineView<'a> {
    problem: &'a BroadcastProblem,
    in_a: &'a [bool],
    ready: &'a [Time],
    /// Flat copy of `g_ij + L_ij` in the orientation named by
    /// `receiver_major`, prebuilt per run so a completion estimate costs one
    /// memory read instead of two matrix lookups.
    mat: &'a [Time],
    /// Whether `mat` is the receiver-major twin (`mat[r·n + s]`) instead of
    /// the sender-major original (`mat[s·n + r]`).
    receiver_major: bool,
    /// The compacted list of clusters still in B (arbitrary order — commits
    /// swap-remove). Policies that maintain incremental caches over B scan
    /// this instead of testing `in_b` across all clusters.
    receivers: &'a [u32],
    n: usize,
}

impl<'a> EngineView<'a> {
    /// The problem being scheduled.
    #[inline]
    pub fn problem(&self) -> &'a BroadcastProblem {
        self.problem
    }

    /// The clusters still waiting in B, as the engine's compacted list.
    ///
    /// The order is arbitrary (commits swap-remove), so it must only be used
    /// where the result is order-independent — e.g. scanning for an extremum
    /// whose *value* is what matters.
    #[inline]
    pub fn receivers(&self) -> &'a [u32] {
        self.receivers
    }

    /// Ready time `RT_i` of a cluster in set A.
    #[inline]
    pub fn ready_time(&self, cluster: ClusterId) -> Time {
        self.ready[cluster.index()]
    }

    /// Whether the cluster is in set A (holds the message).
    #[inline]
    pub fn is_in_a(&self, cluster: ClusterId) -> bool {
        self.in_a[cluster.index()]
    }

    /// Whether the cluster is still in set B (waiting).
    #[inline]
    pub fn in_b(&self, cluster: ClusterId) -> bool {
        !self.in_a[cluster.index()]
    }

    /// The static transfer cost `g_ij + L_ij` of the edge, served from the
    /// engine's prebuilt flat matrix: bit-identical to
    /// `problem.transfer(from, to)` on the uniform path, payload-priced on the
    /// costed path.
    #[inline]
    pub fn transfer(&self, from: ClusterId, to: ClusterId) -> Time {
        if self.receiver_major {
            self.mat[to.index() * self.n + from.index()]
        } else {
            self.mat[from.index() * self.n + to.index()]
        }
    }

    /// `RT_i + g_ij + L_ij`: completion estimate of a hypothetical transfer.
    #[inline]
    pub fn completion_estimate(&self, sender: ClusterId, receiver: ClusterId) -> Time {
        self.ready[sender.index()] + self.transfer(sender, receiver)
    }
}

/// Direction of the cross-receiver objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Pick the receiver with the smallest objective (ECEF family, FEF).
    Minimize,
    /// Pick the receiver with the largest objective (BottomUp's max-min rule).
    Maximize,
}

/// Tie-breaking across receivers whose objectives compare equal.
///
/// The variants reproduce the iteration orders of the original nested-loop
/// implementations, which is what makes engine schedules byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Prefer the smallest receiver id, then the smallest sender id (the
    /// receiver-outer/sender-inner loops of the ECEF family and BottomUp).
    ReceiverThenSender,
    /// Prefer the smallest sender id, then the smallest receiver id (FEF's
    /// sender-outer/receiver-inner loop).
    SenderThenReceiver,
}

/// Per-edge payload sizes and transfer costs, overriding the uniform-message
/// matrices of a [`BroadcastProblem`] so committed transfers can carry
/// **receiver-specific blocks** — the relayed scatters and pair exchanges of
/// [`patterns`](crate::patterns).
///
/// The broadcast engine prices every edge for the problem's single message
/// size. Personalised patterns break that assumption: a scatter edge carries
/// the receiver's aggregate block (and a relayed edge a whole concatenation of
/// blocks), so `g` must be evaluated per edge, for the payload that edge
/// actually moves. `EdgeCosts` is that evaluation, flat and sender-major like
/// the engine's own `tx` matrix; [`ScheduleEngine::schedule_with_costs`] runs
/// the ordinary round loop against it. With
/// [`EdgeCosts::uniform`] the engine's behaviour — schedules, floating-point
/// times, tie-breaks — is **byte-identical** to the uncosted path (asserted by
/// the workspace parity proptests), so the broadcast fast path pays nothing
/// for the generality.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeCosts {
    n: usize,
    payload: Vec<MessageSize>,
    gap: Vec<Time>,
    latency: Vec<Time>,
}

impl EdgeCosts {
    /// Prices every directed edge of `grid` for the payload returned by
    /// `payload(sender, receiver)`: the gap is `g_{s,r}(payload)` and the
    /// latency the link latency. Diagonal entries are zero.
    pub fn priced_by_grid(
        grid: &Grid,
        mut payload: impl FnMut(ClusterId, ClusterId) -> MessageSize,
    ) -> Self {
        let n = grid.num_clusters();
        let mut costs = EdgeCosts {
            n,
            payload: Vec::with_capacity(n * n),
            gap: Vec::with_capacity(n * n),
            latency: Vec::with_capacity(n * n),
        };
        for s in 0..n {
            for r in 0..n {
                if s == r {
                    costs.payload.push(MessageSize::ZERO);
                    costs.gap.push(Time::ZERO);
                    costs.latency.push(Time::ZERO);
                } else {
                    let m = payload(ClusterId(s), ClusterId(r));
                    costs.payload.push(m);
                    costs.gap.push(grid.gap(ClusterId(s), ClusterId(r), m));
                    costs.latency.push(grid.latency(ClusterId(s), ClusterId(r)));
                }
            }
        }
        costs
    }

    /// The degenerate uniform-payload case: every edge carries the problem's
    /// message and costs exactly what the problem's matrices say. Scheduling
    /// with these costs reproduces the plain engine path bit for bit.
    pub fn uniform(problem: &BroadcastProblem) -> Self {
        let n = problem.num_clusters();
        let mut costs = EdgeCosts {
            n,
            payload: Vec::with_capacity(n * n),
            gap: Vec::with_capacity(n * n),
            latency: Vec::with_capacity(n * n),
        };
        for s in 0..n {
            for r in 0..n {
                let payload = if s == r {
                    MessageSize::ZERO
                } else {
                    problem.message
                };
                costs.payload.push(payload);
                costs.gap.push(problem.gap(ClusterId(s), ClusterId(r)));
                costs
                    .latency
                    .push(problem.latency(ClusterId(s), ClusterId(r)));
            }
        }
        costs
    }

    /// Number of clusters the cost matrix covers.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.n
    }

    /// Payload carried by the directed edge `from → to`.
    #[inline]
    pub fn payload(&self, from: ClusterId, to: ClusterId) -> MessageSize {
        self.payload[from.index() * self.n + to.index()]
    }

    /// Gap `g_{from,to}(payload)` of the edge.
    #[inline]
    pub fn gap(&self, from: ClusterId, to: ClusterId) -> Time {
        self.gap[from.index() * self.n + to.index()]
    }

    /// Latency of the edge.
    #[inline]
    pub fn latency(&self, from: ClusterId, to: ClusterId) -> Time {
        self.latency[from.index() * self.n + to.index()]
    }

    /// Full transfer time `g(payload) + L` of the edge.
    #[inline]
    pub fn transfer(&self, from: ClusterId, to: ClusterId) -> Time {
        self.gap(from, to) + self.latency(from, to)
    }
}

/// One point-to-point transfer of a [`TransferSet`]: a payload moving between
/// two cluster coordinators, with its wide-area gap and latency already priced
/// for that payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Sending cluster.
    pub from: ClusterId,
    /// Receiving cluster.
    pub to: ClusterId,
    /// Bytes this transfer moves (e.g. one cluster pair's personalised data).
    pub payload: MessageSize,
    /// Interface occupancy `g_{from,to}(payload)` on **both** endpoints.
    pub gap: Time,
    /// Link latency `L_{from,to}`.
    pub latency: Time,
}

/// A set of independent point-to-point transfers to place on the clusters'
/// single network interfaces — the many-transfer sibling of the engine's A/B
/// broadcast loop, used for personalised exchanges where every cluster both
/// sends and receives many times (an all-to-all decomposes into one transfer
/// per ordered cluster pair; see
/// [`alltoall_schedule`](crate::patterns::alltoall_schedule)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferSet {
    n: usize,
    transfers: Vec<Transfer>,
}

impl TransferSet {
    /// An empty set over `n` clusters.
    pub fn new(n: usize) -> Self {
        TransferSet {
            n,
            transfers: Vec::new(),
        }
    }

    /// Adds a transfer to the set.
    pub fn push(&mut self, transfer: Transfer) {
        assert!(
            transfer.from.index() < self.n && transfer.to.index() < self.n,
            "transfer endpoints outside the cluster set"
        );
        assert_ne!(
            transfer.from, transfer.to,
            "a cluster never sends to itself"
        );
        self.transfers.push(transfer);
    }

    /// Number of clusters the set spans.
    pub fn num_clusters(&self) -> usize {
        self.n
    }

    /// The transfers, in insertion order.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }
}

/// A committed transfer of an [`ExchangeSchedule`], with its timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedTransfer {
    /// Sending cluster.
    pub from: ClusterId,
    /// Receiving cluster.
    pub to: ClusterId,
    /// Bytes moved.
    pub payload: MessageSize,
    /// When the sender's interface starts pushing (both interfaces are then
    /// occupied until `start + gap`).
    pub start: Time,
    /// When the receiver holds the payload: `start + gap + latency`.
    pub arrival: Time,
}

/// The timed placement of a [`TransferSet`] produced by
/// [`ScheduleEngine::schedule_transfers`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeSchedule {
    /// The transfers in the order they were committed.
    pub transfers: Vec<TimedTransfer>,
    /// Per cluster: when its network interface is free for good (all sends
    /// and receives drained).
    pub interface_free: Vec<Time>,
    /// Per cluster: arrival time of the last payload it receives.
    pub last_arrival: Vec<Time>,
}

impl ExchangeSchedule {
    /// Completion time of each cluster once a per-cluster local phase of
    /// `local[i]` (e.g. the intra-cluster all-to-all) runs after its last
    /// wide-area send or receive.
    pub fn completion_with_local(&self, local: &[Time]) -> Vec<Time> {
        assert_eq!(local.len(), self.interface_free.len());
        self.interface_free
            .iter()
            .zip(&self.last_arrival)
            .zip(local)
            .map(|((&nic, &arr), &l)| nic.max(arr) + l)
            .collect()
    }

    /// The exchange makespan: the latest per-cluster completion.
    pub fn makespan_with_local(&self, local: &[Time]) -> Time {
        self.completion_with_local(local)
            .into_iter()
            .max()
            .unwrap_or(Time::ZERO)
    }
}

/// Counters describing how the engine's incremental cache behaved.
///
/// All counters are cumulative across runs of one [`ScheduleEngine`]; sample
/// them with [`ScheduleEngine::telemetry`] or [`ScheduleEngine::take_telemetry`].
/// Every build records them, so a default build reads the same counts as the
/// work pins in `tests/rescan_regression.rs`. Each is one integer increment
/// at its event; a rescan walk adds its visited-sender count once, after the
/// walk, so the walk's per-sender loop carries no counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// Rounds executed (one committed transfer each).
    pub rounds: u64,
    /// Best-sender invalidations: a committed sender's ready time grew while it
    /// was some receiver's cached best sender.
    pub invalidations: u64,
    /// Invalidations repaired in `O(1)` because the refreshed score still beat
    /// the runner-up floor.
    pub second_best_hits: u64,
    /// Invalidations repaired in `O(1)` by promoting a fresh runner-up to best.
    pub promotions: u64,
    /// Invalidations that fell back to a pruned ready-order rescan.
    pub rescans: u64,
    /// Senders examined by the rescan walks — the dominant rescan cost.
    pub walked_senders: u64,
    /// Always zero. It counted the bucket skips of a bucketed ready-order
    /// index the rescan walk no longer has; the field stays only because the
    /// benchmark harness under `perfbench/` still names it.
    pub bucket_skips: u64,
    /// Transfers committed by the exchange scheduler
    /// ([`ScheduleEngine::schedule_transfers`]).
    pub exchange_commits: u64,
    /// Heap entries popped by the exchange scheduler: one fresh pop per commit
    /// plus one per stale entry. `exchange_pops − exchange_commits` is the
    /// lazy-invalidation overhead; the complexity regression test pins it.
    pub exchange_pops: u64,
    /// Stale exchange-heap entries re-keyed and re-inserted after a pop found
    /// their stored completion outdated (an endpoint's interface moved).
    pub exchange_reinserts: u64,
    /// Candidate completions evaluated by the retained O(T²) oracle scan
    /// ([`ScheduleEngine::schedule_transfers_quadratic`]).
    pub exchange_oracle_scans: u64,
    /// Commits replayed **verbatim** from a [`CommitLog`] during a warm-start
    /// run ([`ScheduleEngine::reschedule_perturbed`] and friends): the logged
    /// selection was trusted outright and only the event times were
    /// recomputed.
    pub replayed_commits: u64,
    /// Commits a warm-start replay had to **verify** against the perturbed
    /// problem (winner tuple or dirty receivers re-scored) and still took
    /// from the log.
    pub repaired_commits: u64,
    /// Commits produced by full select/commit rounds: the warm-start suffix
    /// after a replay diverged, the crash-recovery repair of
    /// [`ScheduleEngine::reschedule_excluding`], and the cold fallback of an
    /// incompatible commit log.
    pub recomputed_commits: u64,
}

impl EngineTelemetry {
    /// Invalidations repaired from the runner-up entry without a rescan
    /// (second-best hits plus promotions).
    pub fn repaired_from_second_best(&self) -> u64 {
        self.second_best_hits + self.promotions
    }

    /// Fraction of invalidations repaired without a rescan (1.0 when no
    /// invalidation occurred).
    pub fn repair_rate(&self) -> f64 {
        if self.invalidations == 0 {
            1.0
        } else {
            self.repaired_from_second_best() as f64 / self.invalidations as f64
        }
    }
}

/// How a policy's scores react to the quantities a [`Perturbation`] can
/// change (gaps, and through them sender ready times) — consulted by the
/// commit-log replay of [`ScheduleEngine::reschedule_perturbed`] to decide
/// how much of a baseline log can be trusted under a perturbed problem.
///
/// The conservative default (every flag `false`) makes replay diverge at the
/// first commit any changed matrix entry could influence, which is always
/// correct — the flags only unlock *longer verbatim prefixes*, never
/// different output (the warm-start bit-identity invariant holds for any
/// flag combination, honest or conservative; a *dishonest* flag breaks it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayTraits {
    /// Scores and biases never read gaps or ready times — latency-only (FEF)
    /// or constant (Flat Tree) selection. Replay then trusts every logged
    /// selection outright and only recomputes event times.
    pub gap_blind: bool,
    /// Scores and biases are monotone **non-decreasing** in every gap entry
    /// (and, as [`SelectionPolicy::edge_score`] already requires, in sender
    /// ready times). Combined with a minimised objective, the
    /// receiver-then-sender tie-break and a worsening-only delta, replay can
    /// verify a suspect commit against its logged runner-up instead of
    /// diverging outright.
    pub gap_monotone: bool,
    /// [`SelectionPolicy::replay_bias`] is implemented and returns floats
    /// bit-identical to what the policy's incremental caches would serve at
    /// the same round. Required (for biased policies) before replay will
    /// re-score any logged commit; without it a dirty problem diverges at
    /// the first commit.
    pub replay_bias_exact: bool,
}

/// A scheduling heuristic reduced to its selection rule.
///
/// Per round the engine selects the receiver optimising
/// `best_over_senders(edge_score) + receiver_bias`, paired with the sender
/// achieving that best edge score (smallest score, then smallest sender id).
///
/// Policies are `Send` so a warm [`ScheduleEngine`] (which owns one boxed
/// policy per heuristic) can serve as a worker of [`crate::pool::run_ordered`],
/// the pool behind the Monte-Carlo runner, the simulator's what-if sweeps and
/// the serving daemon. Policy state is per-engine scratch, never shared, so
/// this costs implementations nothing.
pub trait SelectionPolicy: Send {
    /// Display name recorded in produced [`Schedule`]s.
    fn name(&self) -> &str;

    /// Called once before each schedule; (re)build per-problem state. Costs
    /// read through [`EngineView::transfer`] come from the engine's prebuilt
    /// flat matrix, so per-problem caches keyed on them see per-edge payload
    /// prices on the costed path instead of the problem's uniform matrices.
    fn reset(&mut self, view: &EngineView<'_>) {
        let _ = view;
    }

    /// Score of the candidate edge `sender → receiver`; lower is better.
    ///
    /// Time-sensitive policies must guarantee two things the engine's
    /// incremental cache relies on:
    ///
    /// * `edge_score(s, r) >= view.ready_time(s)` — the pruned rescans stop
    ///   walking the ready-ordered senders on this bound;
    /// * the score depends on mutable engine state only through the sender's
    ///   ready time and never *decreases* when that ready time grows — the
    ///   runner-up (second-best) floor invariant depends on this monotonicity.
    fn edge_score(&self, view: &EngineView<'_>, sender: ClusterId, receiver: ClusterId) -> Time;

    /// Receiver-level additive term (the lookahead `F_j`); defaults to zero.
    fn receiver_bias(&mut self, view: &EngineView<'_>, receiver: ClusterId) -> Time {
        let _ = (view, receiver);
        Time::ZERO
    }

    /// Whether [`SelectionPolicy::receiver_bias`] can be non-zero. When
    /// `false` the engine skips bias evaluation in the selection scan
    /// entirely.
    fn uses_receiver_bias(&self) -> bool {
        true
    }

    /// Batched form of [`SelectionPolicy::receiver_bias`]: fill `out` with the
    /// bias of every receiver in `receivers`, in order. Called once per round
    /// — policies with per-receiver bias state should override it with a
    /// monomorphic loop so the per-receiver virtual dispatch of the default
    /// disappears from the selection hot path.
    fn receiver_biases(&mut self, view: &EngineView<'_>, receivers: &[u32], out: &mut Vec<Time>) {
        out.clear();
        for &r in receivers {
            out.push(self.receiver_bias(view, ClusterId(r as usize)));
        }
    }

    /// Whether the cross-receiver objective is minimised or maximised.
    fn objective(&self) -> Objective {
        Objective::Minimize
    }

    /// Tie-break rule across receivers with equal objectives.
    fn tie_break(&self) -> TieBreak {
        TieBreak::ReceiverThenSender
    }

    /// Whether [`SelectionPolicy::edge_score`] depends on sender ready times.
    /// When `false` no commit can invalidate a cached score, so the engine
    /// skips ready-time invalidation entirely and keeps only each receiver's
    /// head: an offer replaces it iff it wins in `(score, sender)` order, and
    /// no runner-up, floor or gate is maintained (nothing would read them).
    fn sender_time_sensitive(&self) -> bool {
        true
    }

    /// A static per-receiver bound `c_j` tightening the generic
    /// `edge_score(s, r) >= ready_time(s)` contract to
    /// `edge_score(s, r) >= ready_time(s) + c_j` for **every** possible sender
    /// — e.g. the receiver's cheapest incoming transfer for completion-time
    /// scores. The engine adds it to the walked ready time when pruning
    /// rescans, retiring receivers from the ready-order walk much earlier.
    ///
    /// `min_incoming_transfer` is `min_{k != receiver} (g_kj + L_kj)`,
    /// precomputed by the engine in one sequential pass per problem —
    /// completion-estimate scores can simply return it instead of re-scanning
    /// a matrix column per receiver.
    ///
    /// The inequality must hold under *rounded* float arithmetic: the engine
    /// evaluates the bound as the single rounded sum `fl(t + c_j)`, which is
    /// dominated by any score of the shape `fl(t + x)` with `x >= c_j`
    /// (rounded addition is monotone). A `c_j` that is itself a rounded sum of
    /// score components is **not** automatically safe — addition is not
    /// associative under rounding. Only consulted for time-sensitive
    /// policies; defaults to zero (no tightening).
    fn edge_score_offset(
        &self,
        problem: &BroadcastProblem,
        receiver: ClusterId,
        min_incoming_transfer: Time,
    ) -> Time {
        let _ = (problem, receiver, min_incoming_transfer);
        Time::ZERO
    }

    /// A second, **post-rounding** static bound component `d_j`: the engine
    /// prunes rescans with `fl(fl(t + c_j) + d_j)`, so this hook is for score
    /// shapes of the form `fl(fl(t + x) + y)` with `x >= c_j` and `y >= d_j`
    /// — rounded addition is monotone in each argument separately, so the
    /// two-step bound is float-safe where folding `d_j` into `c_j` would not
    /// be (addition is not associative under rounding). BottomUp uses it for
    /// the receiver's intra-cluster broadcast time, which its scores add
    /// *after* the completion estimate's rounding. Defaults to zero, which
    /// adds exactly nothing (`fl(x + 0) = x` for the non-negative finite
    /// times the engine walks).
    fn edge_score_post_offset(&self, problem: &BroadcastProblem, receiver: ClusterId) -> Time {
        let _ = (problem, receiver);
        Time::ZERO
    }

    /// Notification that `sender → receiver` was committed (B shrank by
    /// `receiver`, and `view.receivers()` no longer lists it); policies use
    /// it to advance incremental lookahead state held in their own buffers.
    fn on_commit(&mut self, view: &EngineView<'_>, sender: ClusterId, receiver: ClusterId) {
        let _ = (view, sender, receiver);
    }

    /// How this policy's scores react to perturbed gaps — see
    /// [`ReplayTraits`]. The default (all flags off) is always sound and
    /// simply makes warm-start replay diverge early.
    fn replay_traits(&self) -> ReplayTraits {
        ReplayTraits::default()
    }

    /// Cache-free recomputation of [`SelectionPolicy::receiver_bias`] for one
    /// receiver, used while re-scoring logged commits during warm-start
    /// replay (where the policy's own incremental caches are cold — `reset`
    /// has not run). Must return floats **bit-identical** to what the cached
    /// path would serve at the same round; policies that can promise that
    /// declare [`ReplayTraits::replay_bias_exact`]. Only consulted when that
    /// flag is set.
    fn replay_bias(&self, view: &EngineView<'_>, receiver: ClusterId) -> Time {
        let _ = (view, receiver);
        Time::ZERO
    }
}

/// A candidate `(objective value, receiver, sender)` tuple as scored by the
/// selection scan — the currency of commit logging and replay verification.
pub type CandidateTuple = (Time, u32, u32);

/// Whether `a` is strictly greater than `b` as plain IEEE floats: the
/// engine's one-comparison reject. It implies `a > b` in [`Time`]'s total
/// order, so a candidate it drops loses every exact `(score, id)` comparison
/// it skips; equal floats, `±0` and NaN answer `false` and fall through to
/// that exact comparison, so every decision stays the one the tuple order
/// makes.
#[inline(always)]
fn float_gt(a: Time, b: Time) -> bool {
    a.as_secs() > b.as_secs()
}

/// Candidate `(objective, receiver, sender)` comparison.
fn candidate_improves(
    objective: Objective,
    tie: TieBreak,
    new: CandidateTuple,
    cur: CandidateTuple,
) -> bool {
    use std::cmp::Ordering;
    let ord = match objective {
        Objective::Minimize => new.0.cmp(&cur.0),
        Objective::Maximize => cur.0.cmp(&new.0),
    };
    match ord {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => match tie {
            TieBreak::ReceiverThenSender => (new.1, new.2) < (cur.1, cur.2),
            TieBreak::SenderThenReceiver => (new.2, new.1) < (cur.2, cur.1),
        },
    }
}

/// One committed round of a logged run: the selected edge, its event times,
/// and the round's **runner-up** candidate — the best `(objective, receiver,
/// sender)` tuple among the receivers that lost. The runner-up is what lets a
/// warm-start replay *verify* a re-scored winner locally: under a monotone
/// worsening delta every clean candidate can only have drifted further behind
/// the logged runner-up, so `recomputed winner still beats the logged
/// runner-up` certifies the whole round without re-scanning B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoggedCommit {
    /// Selected sender (already in A at this round).
    pub sender: u32,
    /// Selected receiver (moved from B to A by this round).
    pub receiver: u32,
    /// When the transfer started on the sender's interface.
    pub start: Time,
    /// When the payload arrived at the receiver's coordinator.
    pub arrival: Time,
    /// The winning `(objective value, receiver, sender)` tuple.
    pub winner: CandidateTuple,
    /// The best losing tuple, `(∞, u32::MAX, u32::MAX)` when B was a
    /// singleton (check [`LoggedCommit::has_runner_up`]).
    pub runner_up: CandidateTuple,
}

impl LoggedCommit {
    /// Whether the round had more than one receiver to choose from.
    #[inline]
    pub fn has_runner_up(&self) -> bool {
        self.runner_up.1 != u32::MAX
    }
}

/// The replayable record of one schedule: every commit in sequence, plus the
/// problem identity (`root`, payload, cluster count) and the heuristic that
/// produced it. Produced by [`ScheduleEngine::schedule_logged`] /
/// [`ScheduleEngine::makespans_logged`]; consumed by
/// [`ScheduleEngine::reschedule_perturbed`], which replays the longest sound
/// prefix under a perturbed problem and re-runs selection only from the first
/// divergent commit.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitLog {
    root: ClusterId,
    message: MessageSize,
    n: usize,
    kind: HeuristicKind,
    commits: Vec<LoggedCommit>,
}

impl CommitLog {
    /// The heuristic that produced this log.
    #[inline]
    pub fn kind(&self) -> HeuristicKind {
        self.kind
    }

    /// The root cluster of the logged run.
    #[inline]
    pub fn root(&self) -> ClusterId {
        self.root
    }

    /// The number of clusters of the logged problem.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.n
    }

    /// The recorded commit sequence, in round order.
    #[inline]
    pub fn commits(&self) -> &[LoggedCommit] {
        &self.commits
    }

    /// Whether `problem` has the same identity (root, payload, cluster
    /// count) as the logged run — the precondition for replaying any prefix.
    /// A mismatch (an [`Perturbation::AlternateRoot`] scenario, a different
    /// payload, a resized grid) makes the warm entry points fall back to a
    /// cold run.
    pub fn compatible_with(&self, problem: &BroadcastProblem) -> bool {
        self.root == problem.root
            && self.message == problem.message
            && self.n == problem.num_clusters()
            && self.commits.len() + 1 == self.n.max(1)
    }
}

/// Reusable buffers of one engine; split from the policy store so the two can
/// be borrowed independently.
///
/// ## Cache invariants (time-sensitive policies)
///
/// Per receiver `j` still in B the engine caches up to [`DEFAULT_K_BEST`] candidate
/// senders in the flat row `cand_*[j·K_BEST ..]` (lexicographically sorted by
/// `(score, sender id)`), plus a **floor** entry. Between commits:
///
/// 1. **Head is exact**: the row's first entry is the current lexicographic
///    minimum of `(edge_score(s, j), s)` over all `s ∈ A`, and its stored
///    score equals the sender's *current* edge score.
/// 2. **Cached scores are lower bounds**: every row entry's stored score is
///    `<=` its sender's current edge score (scores only grow — the
///    monotonicity contract of [`SelectionPolicy::edge_score`]).
/// 3. **The floor bounds everyone else**: every sender in A that is *not* in
///    the row currently satisfies
///    `(edge_score(s, j), s) >= (floor_score[j], floor_sender[j])`
///    lexicographically (`(∞, NO_SENDER)` when the row holds all of A).
///
/// Together these make an invalidation repairable in `O(K_BEST)`: refresh the
/// grown head, bubble it to its sorted position, refresh whichever cached
/// entry surfaces until the head is fresh, and accept it iff it still beats
/// the floor — only then is a ready-order rescan needed.
///
/// For a time-insensitive policy only invariant 1 is kept, and only in the
/// dense `best_*` mirrors: its scores never change, so nothing invalidates a
/// head and nothing reads the rows, floors or gates behind it.
#[derive(Debug, Default)]
struct EngineState {
    in_a: Vec<bool>,
    ready: Vec<Time>,
    events: Vec<ScheduleEvent>,
    /// Clusters still in B (unordered; positions tracked by `recv_pos`).
    receivers: Vec<u32>,
    recv_pos: Vec<u32>,
    /// Flat per-receiver candidate rows (`K_BEST` slots each), lex-sorted by
    /// `(score, sender)`; see the invariants above.
    cand_score: Vec<Time>,
    cand_sender: Vec<u32>,
    cand_len: Vec<u32>,
    /// Dense mirrors of each row's head entry: the per-round `select` scan and
    /// the invalidation test stream these contiguously instead of striding
    /// through the rows.
    best_score: Vec<Time>,
    best_sender: Vec<u32>,
    /// Per-receiver floor entry bounding every sender outside the row.
    floor_score: Vec<Time>,
    floor_sender: Vec<u32>,
    /// Per-receiver quick-reject gate for the offer loop:
    /// `max(row tail score, floor score)` while the candidate row is full,
    /// `∞` otherwise. An offered score strictly above the gate can neither
    /// enter the row nor tighten the floor, so the hot offer loop answers
    /// most receivers with one load from this dense array instead of
    /// touching the row tail and floor entries.
    gate: Vec<Time>,
    /// Senders in A, sorted ascending by `(ready time, id)`. Ready times only
    /// grow, so a commit maintains the order with one bubble-right pass for
    /// the sender and one sorted insert for the new receiver; rescans then
    /// walk a contiguous, always-valid array instead of a lazily-invalidated
    /// heap.
    order: Vec<u32>,
    /// Position of each sender in `order` (`u32::MAX` while still in B).
    order_pos: Vec<u32>,
    /// Receivers of the current commit that could not be repaired and await
    /// a rescan walk.
    pending: Vec<u32>,
    /// Per-receiver static score offsets (`SelectionPolicy::edge_score_offset`)
    /// sharpening the walk's retirement bound.
    score_offset: Vec<Time>,
    /// The post-rounding second bound component
    /// ([`SelectionPolicy::edge_score_post_offset`]).
    score_post: Vec<Time>,
    /// The rescan walk's top `K_BEST + 1` buffer, reused per pending receiver.
    tops: Vec<(Time, u32)>,
    topn: Vec<u32>,
    /// Scratch for makespan computation without building a [`Schedule`].
    arrival: Vec<Time>,
    busy: Vec<Time>,
    /// Per-round receiver-bias buffer filled by the policy's batched hook.
    bias_buf: Vec<Time>,
    /// Flat sender-major `g_ij + L_ij` combined per problem for the view's
    /// one-read completion estimates. Built from the problem's uniform-message
    /// matrices by [`EngineState::prepare_tx`], or from per-edge payload
    /// prices by [`EngineState::prepare_costs`] — the round loop itself is
    /// payload-agnostic and only ever reads these flat copies.
    tx: Vec<Time>,
    /// Flat sender-major gap matrix paired with `tx`: the interface occupancy
    /// a commit charges the sender. Identical to the problem's gap matrix on
    /// the uniform path, per-edge payload-priced on the costed path.
    gp: Vec<Time>,
    /// Receiver-major twin of `tx` (`rx[r·n + s] = tx[s·n + r]`, bit for
    /// bit): the repair path and the rescan walk score many senders
    /// against one receiver, so they stream this transposed copy row-wise
    /// instead of striding a column of `tx` through the whole matrix.
    rx: Vec<Time>,
    /// Per-receiver column minima of `tx` (cheapest incoming transfer),
    /// handed to [`SelectionPolicy::edge_score_offset`].
    min_in: Vec<Time>,
    /// Candidate-row width: [`DEFAULT_K_BEST`] unless fixed via
    /// [`ScheduleEngine::with_k_best`]; a pure performance knob — schedules
    /// stay byte-identical for any `K ≥ 1`.
    k_best: usize,
    /// Warm-replay scratch: clusters whose ready time may have drifted from
    /// the logged run because they committed a transfer over a perturbed
    /// (dirty) edge — or inherited drift from an earlier tainted commit.
    taint: Vec<bool>,
    /// Warm-replay scratch: the compacted list of dirty clusters of the
    /// current [`ReplayDelta`], so the checked replay mode scans `O(dirty)`
    /// per round instead of the whole bitmap.
    dirty_list: Vec<u32>,
    telemetry: EngineTelemetry,
}

impl EngineState {
    fn reset(&mut self, problem: &BroadcastProblem) {
        let n = problem.num_clusters();
        let root = problem.root.index();
        self.in_a.clear();
        self.in_a.resize(n, false);
        self.in_a[root] = true;
        self.ready.clear();
        self.ready.resize(n, Time::ZERO);
        self.events.clear();
        self.events.reserve(n.saturating_sub(1));
        self.receivers.clear();
        self.recv_pos.clear();
        self.recv_pos.resize(n, u32::MAX);
        for c in 0..n {
            if c != root {
                self.recv_pos[c] = self.receivers.len() as u32;
                self.receivers.push(c as u32);
            }
        }
        let k = self.k_best;
        self.cand_score.clear();
        self.cand_score.resize(n * k, Time::INFINITY);
        self.cand_sender.clear();
        self.cand_sender.resize(n * k, NO_SENDER);
        self.cand_len.clear();
        self.cand_len.resize(n, 0);
        self.floor_score.clear();
        self.floor_score.resize(n, Time::INFINITY);
        self.floor_sender.clear();
        self.floor_sender.resize(n, NO_SENDER);
        self.gate.clear();
        self.gate.resize(n, Time::INFINITY);
        self.best_score.clear();
        self.best_score.resize(n, Time::INFINITY);
        self.best_sender.clear();
        self.best_sender.resize(n, NO_SENDER);
        self.order.clear();
        self.order.reserve(n);
        self.order.push(root as u32);
        self.order_pos.clear();
        self.order_pos.resize(n, u32::MAX);
        self.order_pos[root] = 0;
        self.pending.clear();
        self.pending.reserve(n);
        self.bias_buf.clear();
        self.bias_buf.reserve(n);
        debug_assert_eq!(
            self.tx.len(),
            n * n,
            "prepare_tx must run before the round loop"
        );
        debug_assert_eq!(
            self.rx.len(),
            n * n,
            "prepare_tx must run before the round loop"
        );
        self.tops.clear();
        self.tops.reserve(n * (k + 1));
        self.topn.clear();
        self.topn.reserve(n);
    }

    fn init_caches<P: SelectionPolicy + ?Sized>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &mut P,
    ) {
        // Sender-major view: the root's row is scored against every receiver.
        let view = EngineView {
            problem,
            in_a: &self.in_a,
            ready: &self.ready,
            mat: &self.tx,
            receiver_major: false,
            receivers: &self.receivers,
            n: problem.num_clusters(),
        };
        let root = problem.root;
        let k = self.k_best;
        for &r in &self.receivers {
            let row = r as usize * k;
            self.cand_sender[row] = root.index() as u32;
            self.cand_score[row] = policy.edge_score(&view, root, ClusterId(r as usize));
            debug_assert_score_not_nan(self.cand_score[row]);
            self.cand_len[r as usize] = 1;
            self.best_score[r as usize] = self.cand_score[row];
            self.best_sender[r as usize] = self.cand_sender[row];
            // A is the singleton {root}: the row holds all of A, so the floor
            // bounds nothing.
            self.floor_score[r as usize] = Time::INFINITY;
            self.floor_sender[r as usize] = NO_SENDER;
        }
        self.score_offset.clear();
        self.score_offset.resize(problem.num_clusters(), Time::ZERO);
        self.score_post.clear();
        self.score_post.resize(problem.num_clusters(), Time::ZERO);
        if policy.sender_time_sensitive() {
            for &r in &self.receivers {
                self.score_offset[r as usize] = policy.edge_score_offset(
                    problem,
                    ClusterId(r as usize),
                    self.min_in[r as usize],
                );
                self.score_post[r as usize] =
                    policy.edge_score_post_offset(problem, ClusterId(r as usize));
            }
        }
    }

    /// The selection scan, optionally tracking the round's runner-up tuple
    /// for commit logging. `TRACK` is a const generic so the unlogged path
    /// compiles to the plain scan — the second-best bookkeeping exists only
    /// in the logged monomorphization.
    fn select_full<P: SelectionPolicy + ?Sized, const TRACK: bool>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &mut P,
    ) -> (CandidateTuple, Option<CandidateTuple>) {
        let objective = policy.objective();
        let tie = policy.tie_break();
        let EngineState {
            in_a,
            ready,
            receivers,
            best_score,
            best_sender,
            bias_buf,
            tx,
            ..
        } = self;
        let view = EngineView {
            problem,
            in_a,
            ready,
            mat: tx,
            receiver_major: false,
            receivers,
            n: problem.num_clusters(),
        };
        let biased = policy.uses_receiver_bias();
        if biased {
            policy.receiver_biases(&view, receivers, bias_buf);
        }
        let mut best: Option<(Time, u32, u32)> = None;
        let mut second: Option<(Time, u32, u32)> = None;
        for (i, &r) in receivers.iter().enumerate() {
            let bias = if biased { bias_buf[i] } else { Time::ZERO };
            let candidate = (best_score[r as usize] + bias, r, best_sender[r as usize]);
            debug_assert_score_not_nan(candidate.0);
            if best.is_none_or(|cur| candidate_improves(objective, tie, candidate, cur)) {
                if TRACK {
                    second = best;
                }
                best = Some(candidate);
            } else if TRACK
                && second.is_none_or(|cur| candidate_improves(objective, tie, candidate, cur))
            {
                second = Some(candidate);
            }
        }
        let best = best.expect("set B is non-empty while the schedule is incomplete");
        (best, second)
    }

    /// Rebuilds the candidate rows (and floors) of every receiver in
    /// `pending` with one pruned walk over A in ready order (the sorted
    /// `order` array — contiguous and always valid, so each walk is a plain
    /// scan) **per receiver**. Each receiver gets its exact top `K_BEST + 1`
    /// entries (the last one becomes the floor); the walk stops once the next
    /// ready time exceeds the receiver's `(K_BEST + 1)`-smallest score found
    /// so far — any unwalked sender scores at least its ready time, so it
    /// cannot enter the row or lower the floor.
    ///
    /// One walk per receiver, not one shared walk: a commit rarely strands
    /// more than a couple of receivers, and the per-receiver loop keeps the
    /// retirement bound in two registers (the static offsets hoisted out of
    /// the loop), the top buffer in L1 and the scores streaming from the
    /// receiver's contiguous `rx` row — an order of magnitude less per-visit
    /// overhead than the shared walk's pending-indexed inner loop.
    ///
    /// `PRUNE = false` is the warm-start rebuild: the walk visits all of A,
    /// without the retirement bound. That bound (`ready + offset` is a lower
    /// bound on the score) only holds for sender-time-sensitive policies;
    /// Flat Tree and FEF score on matrix entries alone, so
    /// [`EngineState::repair_and_finish`] — which, unlike the commit path,
    /// runs for *every* policy — must walk everything. It
    /// runs once per reschedule, not once per commit, so the missing pruning
    /// is irrelevant; both instances compute the exact lexicographic top
    /// `K_BEST + 1`, so the rows, floors and gates are bit-identical wherever
    /// both are sound.
    fn rescan_pending<P: SelectionPolicy + ?Sized, const PRUNE: bool>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &P,
    ) {
        let k = self.k_best;
        let stride = k + 1;
        let EngineState {
            in_a,
            ready,
            order,
            cand_score,
            cand_sender,
            cand_len,
            best_score,
            best_sender,
            floor_score,
            floor_sender,
            gate,
            pending,
            score_offset,
            score_post,
            tops,
            rx,
            receivers,
            telemetry,
            ..
        } = self;
        // Receiver-major view: the walk scores many senders against one
        // receiver, so the costs live in one contiguous `rx` row (a few cache
        // lines) instead of a column scattered across the whole sender-major
        // matrix.
        let view = EngineView {
            problem,
            in_a,
            ready,
            mat: rx,
            receiver_major: true,
            receivers,
            n: problem.num_clusters(),
        };
        tops.clear();
        tops.resize(stride, (Time::INFINITY, NO_SENDER));
        for &jr in pending.iter() {
            telemetry.rescans += 1;
            let j = jr as usize;
            // The static bound components are per-receiver constants: hoist
            // them so the retirement test runs on registers.
            let off1 = score_offset[j];
            let off2 = score_post[j];
            let row = &mut tops[..stride];
            let mut filled = 0usize;
            // Counted once per walk, not per sender: the loop stays free of
            // a counter, and the count is the retiring sender's position.
            let mut walked = order.len();
            for (pos, &s) in order.iter().enumerate() {
                let t = ready[s as usize];
                // Any unwalked sender scores at least `fl(fl(t + c_j) + d_j)`:
                // stop once that strictly exceeds the provisional floor. The
                // sums must be computed exactly as written, left to right — a
                // rearranged `t > floor - c_j` is not float-equivalent and
                // could cut the walk one sender too early.
                if PRUNE && filled == stride && t + off1 + off2 > row[k].0 {
                    walked = pos;
                    break;
                }
                let score = policy.edge_score(&view, ClusterId(s as usize), ClusterId(j));
                debug_assert_score_not_nan(score);
                let entry = (score, s);
                if filled < stride {
                    let mut slot = filled;
                    while slot > 0 && row[slot - 1] > entry {
                        row[slot] = row[slot - 1];
                        slot -= 1;
                    }
                    row[slot] = entry;
                    filled += 1;
                } else if !float_gt(score, row[k].0) && entry < row[k] {
                    let mut slot = k;
                    while slot > 0 && row[slot - 1] > entry {
                        row[slot] = row[slot - 1];
                        slot -= 1;
                    }
                    row[slot] = entry;
                }
            }
            telemetry.walked_senders += walked as u64;
            debug_assert!(filled > 0, "set A is never empty");
            let keep = filled.min(k);
            for (slot, &(score, s)) in row[..keep].iter().enumerate() {
                cand_score[j * k + slot] = score;
                cand_sender[j * k + slot] = s;
            }
            cand_len[j] = keep as u32;
            best_score[j] = cand_score[j * k];
            best_sender[j] = cand_sender[j * k];
            if filled == stride {
                floor_score[j] = row[k].0;
                floor_sender[j] = row[k].1;
            } else {
                // The row holds all of A: nothing to bound.
                floor_score[j] = Time::INFINITY;
                floor_sender[j] = NO_SENDER;
            }
            gate[j] = if keep == k {
                cand_score[j * k + k - 1].max(floor_score[j])
            } else {
                Time::INFINITY
            };
            // Reset the scratch for the next pending receiver.
            for slot in row.iter_mut().take(filled) {
                *slot = (Time::INFINITY, NO_SENDER);
            }
        }
        pending.clear();
    }

    /// Repairs `receiver`'s cache after its best sender `s` grew its ready
    /// time: refresh the head entry, bubble it to its sorted position, and
    /// keep refreshing whichever cached entry surfaces until the head is
    /// fresh. The fresh head is the exact minimum over the row's senders
    /// (cached scores are lower bounds, so a fresh head underruns them all);
    /// it is the global minimum iff it still beats the floor. Returns `false`
    /// when it does not and only a ready-order rescan can restore the
    /// invariants.
    fn repair_invalidated<P: SelectionPolicy + ?Sized>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &P,
        receiver: u32,
        s: u32,
    ) -> bool {
        let j = receiver as usize;
        let k = self.k_best;
        let len = self.cand_len[j] as usize;
        let row = &mut self.cand_score[j * k..j * k + len];
        let senders = &mut self.cand_sender[j * k..j * k + len];
        // Receiver-major view: every refresh scores another sender against
        // the same receiver `j`, i.e. walks one contiguous `rx` row.
        let view = EngineView {
            problem,
            in_a: &self.in_a,
            ready: &self.ready,
            mat: &self.rx,
            receiver_major: true,
            receivers: &self.receivers,
            n: problem.num_clusters(),
        };
        debug_assert_eq!(senders[0], s);
        // Refresh the head until it is exact: recompute its score, and if it
        // grew, bubble the entry to its lex position and look again. Every
        // refreshed entry is exact as of now, so each is refreshed at most
        // once and the loop ends within `len` iterations.
        loop {
            let head = (row[0], senders[0]);
            let current = policy.edge_score(&view, ClusterId(senders[0] as usize), ClusterId(j));
            debug_assert_score_not_nan(current);
            if current == row[0] {
                break;
            }
            debug_assert!(current > row[0], "edge scores never decrease");
            let grown = (current, head.1);
            let mut slot = 0;
            while slot + 1 < len && (row[slot + 1], senders[slot + 1]) < grown {
                row[slot] = row[slot + 1];
                senders[slot] = senders[slot + 1];
                slot += 1;
            }
            row[slot] = grown.0;
            senders[slot] = grown.1;
        }
        if (row[0], senders[0]) <= (self.floor_score[j], self.floor_sender[j]) {
            self.best_score[j] = self.cand_score[j * k];
            self.best_sender[j] = self.cand_sender[j * k];
            // The grown head may have bubbled into the row tail.
            self.refresh_gate(j);
            if self.best_sender[j] == s {
                self.telemetry.second_best_hits += 1;
            } else {
                self.telemetry.promotions += 1;
            }
            return true;
        }
        false
    }

    /// Recomputes `gate[j]` from the row tail and floor. Called whenever
    /// either may have changed (offer slow path, successful repair, rescan
    /// rebuild); while the row is not full — or the floor is still infinite —
    /// the gate stays `∞` and every offer takes the exact slow path.
    #[inline]
    fn refresh_gate(&mut self, j: usize) {
        let k = self.k_best;
        self.gate[j] = if self.cand_len[j] as usize == k {
            self.cand_score[j * k + k - 1].max(self.floor_score[j])
        } else {
            Time::INFINITY
        };
    }

    /// Offers the freshly-joined sender `new_sender` to every receiver of the
    /// contiguous run `receivers[from..to]` in `O(K_BEST)` each: it is
    /// inserted into the candidate row at its lex position (the overflowing
    /// last entry, a valid lower bound for its sender, is folded into the
    /// floor) or, failing that, tightens the floor directly. The commit loop
    /// hands it the stretches between invalidated receivers, and a repaired
    /// receiver as a run of one.
    ///
    /// Fast path: a score strictly above `gate[j]` as a plain float beats
    /// neither the row tail nor the floor (both comparisons are lex on
    /// `(score, sender)`, so a strictly larger score loses regardless of the
    /// sender id) and moves on after one dense load and one float comparison. Fusing the run hoists the view construction and
    /// the borrow plumbing out of the per-receiver work; with ~`|B|` offers
    /// per commit this loop is the engine's single hottest stretch at the
    /// large sizes.
    fn offer_run<P: SelectionPolicy + ?Sized>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &P,
        from: usize,
        to: usize,
        new_sender: u32,
    ) {
        let k = self.k_best;
        let EngineState {
            in_a,
            ready,
            tx,
            receivers,
            cand_score,
            cand_sender,
            cand_len,
            best_score,
            best_sender,
            floor_score,
            floor_sender,
            gate,
            ..
        } = self;
        // Sender-major view: the run streams one fresh sender's `tx` row
        // across many receivers.
        let view = EngineView {
            problem,
            in_a,
            ready,
            mat: tx,
            receiver_major: false,
            receivers,
            n: problem.num_clusters(),
        };
        for &jr in &receivers[from..to] {
            let j = jr as usize;
            let score = policy.edge_score(&view, ClusterId(new_sender as usize), ClusterId(j));
            debug_assert_score_not_nan(score);
            if float_gt(score, gate[j]) {
                continue;
            }
            let entry = (score, new_sender);
            let len = cand_len[j] as usize;
            let row = &mut cand_score[j * k..(j + 1) * k];
            let senders = &mut cand_sender[j * k..(j + 1) * k];
            if len < k {
                // Room in the row: plain sorted insert.
                let mut slot = len;
                while slot > 0 && (row[slot - 1], senders[slot - 1]) > entry {
                    row[slot] = row[slot - 1];
                    senders[slot] = senders[slot - 1];
                    slot -= 1;
                }
                row[slot] = entry.0;
                senders[slot] = entry.1;
                cand_len[j] = (len + 1) as u32;
                if slot == 0 {
                    best_score[j] = entry.0;
                    best_sender[j] = entry.1;
                }
            } else if entry < (row[k - 1], senders[k - 1]) {
                // Displace the last entry; its cached score is a valid lower
                // bound for its sender, so folding it into the floor keeps
                // invariant 3.
                let dropped = (row[k - 1], senders[k - 1]);
                let mut slot = k - 1;
                while slot > 0 && (row[slot - 1], senders[slot - 1]) > entry {
                    row[slot] = row[slot - 1];
                    senders[slot] = senders[slot - 1];
                    slot -= 1;
                }
                row[slot] = entry.0;
                senders[slot] = entry.1;
                if slot == 0 {
                    best_score[j] = entry.0;
                    best_sender[j] = entry.1;
                }
                if dropped < (floor_score[j], floor_sender[j]) {
                    floor_score[j] = dropped.0;
                    floor_sender[j] = dropped.1;
                }
            } else if entry < (floor_score[j], floor_sender[j]) {
                // Outside the row: the floor must keep bounding it.
                floor_score[j] = entry.0;
                floor_sender[j] = entry.1;
            }
            gate[j] = if cand_len[j] as usize == k {
                cand_score[j * k + k - 1].max(floor_score[j])
            } else {
                Time::INFINITY
            };
        }
    }

    /// The offer loop of a policy whose scores ignore ready times
    /// ([`SelectionPolicy::sender_time_sensitive`] `false`, Flat Tree and
    /// FEF): the freshly-joined sender replaces a receiver's head iff it
    /// beats it in `(score, sender)` order. Only the dense head mirrors are
    /// kept — no commit ever invalidates them, so no repair or rescan reads a
    /// runner-up, floor or gate. Flat Tree scores every non-root sender `∞`
    /// against the root's finite head, so each of its offers leaves on one
    /// float comparison.
    fn offer_heads<P: SelectionPolicy + ?Sized>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &P,
        new_sender: u32,
    ) {
        let EngineState {
            in_a,
            ready,
            tx,
            receivers,
            best_score,
            best_sender,
            ..
        } = self;
        let view = EngineView {
            problem,
            in_a,
            ready,
            mat: tx,
            receiver_major: false,
            receivers,
            n: problem.num_clusters(),
        };
        for &jr in receivers.iter() {
            let j = jr as usize;
            let score = policy.edge_score(&view, ClusterId(new_sender as usize), ClusterId(j));
            debug_assert_score_not_nan(score);
            if !float_gt(score, best_score[j])
                && (score, new_sender) < (best_score[j], best_sender[j])
            {
                best_score[j] = score;
                best_sender[j] = new_sender;
            }
        }
    }

    /// Restores `order` after `s`'s ready time grew: bubble it right past the
    /// senders that now sort before it. The walked distance is the number of
    /// overtaken senders — typically a handful, and each step is one `u32`
    /// move.
    #[inline]
    fn reposition_sender(&mut self, s: usize) {
        let key = (self.ready[s], s as u32);
        let mut pos = self.order_pos[s] as usize;
        debug_assert_eq!(self.order[pos], s as u32);
        while pos + 1 < self.order.len() {
            let next = self.order[pos + 1];
            if (self.ready[next as usize], next) < key {
                self.order[pos] = next;
                self.order_pos[next as usize] = pos as u32;
                pos += 1;
            } else {
                break;
            }
        }
        self.order[pos] = s as u32;
        self.order_pos[s] = pos as u32;
    }

    /// Inserts the freshly-joined sender `r` into `order` at its sorted
    /// position (its arrival time usually sorts near the end, so the shifted
    /// tail is short).
    #[inline]
    fn insert_sender(&mut self, r: usize) {
        let key = (self.ready[r], r as u32);
        let idx = self
            .order
            .binary_search_by(|&c| (self.ready[c as usize], c).cmp(&key))
            .unwrap_err();
        self.order.insert(idx, r as u32);
        for pos in idx..self.order.len() {
            self.order_pos[self.order[pos] as usize] = pos as u32;
        }
    }

    fn commit<P: SelectionPolicy + ?Sized>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &mut P,
        sender: ClusterId,
        receiver: ClusterId,
    ) {
        let (s, r) = (sender.index(), receiver.index());
        debug_assert!(self.in_a[s] && !self.in_a[r]);
        self.telemetry.rounds += 1;
        let n = problem.num_clusters();
        let start = self.ready[s];
        // Committed timings read the flat `tx`/`gp` copies, not the problem
        // matrices: on the uniform path they hold the exact same floats, and
        // on the costed path they carry the per-edge payload prices.
        let arrival = start + self.tx[s * n + r];
        self.events.push(ScheduleEvent {
            sender,
            receiver,
            start,
            arrival,
        });
        self.ready[s] = start + self.gap_of(problem, s, r);
        self.ready[r] = arrival;
        self.in_a[r] = true;
        // Remove the receiver from B (swap-remove keeps the list compact).
        let pos = self.recv_pos[r] as usize;
        let last = *self.receivers.last().expect("receiver is in B");
        self.receivers.swap_remove(pos);
        if pos < self.receivers.len() {
            self.recv_pos[last as usize] = pos as u32;
        }
        self.recv_pos[r] = u32::MAX;
        // Keep the ready-order array sorted: the sender's ready time grew (it
        // bubbles right), the receiver enters A at its sorted position.
        self.reposition_sender(s);
        self.insert_sender(r);

        let EngineState {
            in_a,
            ready,
            tx,
            receivers,
            ..
        } = &mut *self;
        let view = EngineView {
            problem,
            in_a,
            ready,
            mat: tx,
            receiver_major: false,
            receivers,
            n: problem.num_clusters(),
        };
        policy.on_commit(&view, sender, receiver);

        // A time-insensitive policy's scores never change, so nothing ever
        // invalidates its heads and nothing reads its runners-up, floors or
        // gates: an offer only has to beat the head.
        if !policy.sender_time_sensitive() {
            self.offer_heads(problem, policy, r as u32);
            return;
        }
        // Incremental cache maintenance. Receivers that relied on the committed
        // sender are repaired against their cached runners-up; the few that
        // cannot be repaired are collected and rebuilt by a pruned walk each,
        // in ready order (which already sees the freshly-joined sender).
        // Everyone else is offered the new sender in O(K_BEST).
        debug_assert!(self.pending.is_empty());
        // Receivers are offered in list order; the stretches between
        // invalidated receivers go through one fused `offer_run` each (an
        // offer only mutates its own receiver's state, so scanning a run's
        // invalidation checks up front observes the same `best_sender`
        // values a one-at-a-time loop would).
        let mut i = 0;
        let b_len = self.receivers.len();
        while i < b_len {
            let j = self.receivers[i];
            if self.best_sender[j as usize] == s as u32 {
                self.telemetry.invalidations += 1;
                if self.repair_invalidated(problem, policy, j, s as u32) {
                    self.offer_run(problem, policy, i, i + 1, r as u32);
                } else {
                    self.pending.push(j);
                }
                i += 1;
            } else {
                let from = i;
                while i < b_len && self.best_sender[self.receivers[i] as usize] != s as u32 {
                    i += 1;
                }
                self.offer_run(problem, policy, from, i, r as u32);
            }
        }
        if !self.pending.is_empty() {
            self.rescan_pending::<P, true>(problem, policy);
        }
    }

    /// (Re)builds the flat combined `g + L` matrix for `problem`. Called once
    /// per problem by the public entry points — the batched ones share one
    /// build across all heuristics instead of paying the `O(n²)` pass per
    /// run.
    /// Fills the flat `tx`/`gp` copies (and the `min_in` column minima) the
    /// round loop reads, from a per-edge `(gap, latency)` source. The transfer
    /// is computed as the single rounded sum `fl(gap + latency)` exactly like
    /// the problem's own accessor, so both callers produce bit-identical
    /// matrices from identical inputs.
    fn fill_matrices(
        &mut self,
        n: usize,
        want_gp: bool,
        mut edge: impl FnMut(ClusterId, ClusterId) -> (Time, Time),
    ) {
        self.tx.clear();
        self.tx.reserve(n * n);
        self.gp.clear();
        if want_gp {
            self.gp.reserve(n * n);
        }
        self.min_in.clear();
        self.min_in.resize(n, Time::INFINITY);
        for s in 0..n {
            for r in 0..n {
                let (gap, latency) = edge(ClusterId(s), ClusterId(r));
                let t = gap + latency;
                self.tx.push(t);
                if want_gp {
                    self.gp.push(gap);
                }
                // Column minima (diagonal excluded — a cluster never sends
                // to itself) feed the policies' static receiver offsets.
                if s != r && t < self.min_in[r] {
                    self.min_in[r] = t;
                }
            }
        }
        // The receiver-major twin holds the exact same floats, transposed.
        // Tiled so both sides stay cache-resident: writing `rx` row-major
        // with a full-column read of `tx` (or vice versa) would turn one of
        // the two 8 n² byte passes into a stream of line-sized misses.
        self.rx.clear();
        self.rx.resize(n * n, Time::ZERO);
        const TILE: usize = 32;
        let mut rb = 0;
        while rb < n {
            let r_end = (rb + TILE).min(n);
            let mut sb = 0;
            while sb < n {
                let s_end = (sb + TILE).min(n);
                for r in rb..r_end {
                    for s in sb..s_end {
                        self.rx[r * n + s] = self.tx[s * n + r];
                    }
                }
                sb = s_end;
            }
            rb = r_end;
        }
    }

    /// The gap a committed transfer occupies on the sender's interface:
    /// served from the flat `gp` copy when an edge-cost overlay is active
    /// (costed path), otherwise straight from the problem's own matrix —
    /// bit-identical floats either way, since the flat copy is verbatim.
    #[inline]
    fn gap_of(&self, problem: &BroadcastProblem, s: usize, r: usize) -> Time {
        if self.gp.is_empty() {
            problem.gap(ClusterId(s), ClusterId(r))
        } else {
            self.gp[s * problem.num_clusters() + r]
        }
    }

    fn prepare_tx(&mut self, problem: &BroadcastProblem) {
        let n = problem.num_clusters();
        // No `gp` copy: on the uniform-message path the handful of per-commit
        // gap reads go straight to the problem's matrix (`gap_of`), saving an
        // 8 n² byte build per problem.
        self.fill_matrices(n, false, |s, r| (problem.gap(s, r), problem.latency(s, r)));
    }

    /// The per-edge-payload sibling of [`EngineState::prepare_tx`]: the flat
    /// `tx`/`gp` copies the round loop reads are filled from `costs` instead
    /// of the problem's uniform-message matrices, so each committed transfer
    /// is priced for the receiver-specific block its edge carries.
    fn prepare_costs(&mut self, problem: &BroadcastProblem, costs: &EdgeCosts) {
        let n = problem.num_clusters();
        assert_eq!(
            costs.num_clusters(),
            n,
            "edge-cost matrix dimension mismatch"
        );
        self.fill_matrices(n, true, |s, r| (costs.gap(s, r), costs.latency(s, r)));
    }

    /// The warm-start crash-recovery loop behind
    /// [`ScheduleEngine::reschedule_excluding`]: replay a committed event
    /// prefix verbatim, excise the `failed` cluster from both sets, clamp
    /// every surviving sender's ready time to `resume_at`, rebuild the caches
    /// over the surviving sets, and run the ordinary select/commit rounds
    /// until every surviving receiver is covered.
    fn run_excluding<P: SelectionPolicy + ?Sized>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &mut P,
        failed: ClusterId,
        committed: &[ScheduleEvent],
        resume_at: Time,
    ) {
        self.reset(problem);
        let n = problem.num_clusters();
        let f = failed.index();
        // Replay the committed prefix verbatim, with no policy involvement:
        // these transfers already happened on the wire, including any that
        // delivered *to* the failed cluster (they occupied real interface
        // time), so the bookkeeping mirrors `commit` exactly — events,
        // ready times, A/B membership — minus selection and cache upkeep.
        for event in committed {
            let (s, r) = (event.sender.index(), event.receiver.index());
            assert!(
                self.in_a[s],
                "committed event sender must already hold the message"
            );
            assert!(!self.in_a[r], "a cluster receives the message at most once");
            self.events.push(*event);
            self.ready[s] = event.start + self.gap_of(problem, s, r);
            self.ready[r] = event.arrival;
            self.in_a[r] = true;
            let pos = self.recv_pos[r] as usize;
            let last = *self.receivers.last().expect("receiver is in B");
            self.receivers.swap_remove(pos);
            if pos < self.receivers.len() {
                self.recv_pos[last as usize] = pos as u32;
            }
            self.recv_pos[r] = u32::MAX;
        }
        // Excise the failed cluster. If it never received the message it is
        // still in B: remove it so no round ever schedules a delivery to it.
        // Either way it is marked "in A" — the dead cluster is *handled*, not
        // awaiting coverage — but it is kept out of the sender order below,
        // so it can never be picked to transmit.
        if !self.in_a[f] {
            let pos = self.recv_pos[f] as usize;
            let last = *self.receivers.last().expect("failed cluster is in B");
            self.receivers.swap_remove(pos);
            if pos < self.receivers.len() {
                self.recv_pos[last as usize] = pos as u32;
            }
            self.recv_pos[f] = u32::MAX;
            self.in_a[f] = true;
        }
        // No repair transmission starts before the recovery instant (the
        // crash has to be *detected* before anyone re-plans around it).
        for c in 0..n {
            if self.in_a[c] && c != f && self.ready[c] < resume_at {
                self.ready[c] = resume_at;
            }
        }
        // Rebuild the engine caches over the surviving sets and cover the
        // remaining receivers with ordinary rounds.
        self.repair_and_finish(problem, policy, Some(f));
    }

    /// The **repair core** shared by crash recovery and warm-start replay:
    /// given an arbitrary mid-schedule state (A/B membership, ready times, a
    /// committed event prefix), rebuild every engine cache exactly as a cold
    /// run arriving at this state would hold it, then run the ordinary
    /// select/commit rounds until B is empty. `exclude` keeps a dead cluster
    /// out of the sender order (crash path); `None` on the what-if path.
    ///
    /// The rebuilt state is *bit-identical* to the cold run's: the candidate
    /// rows come from the unpruned [`EngineState::rescan_pending`] (the
    /// exact top-`K+1`), the policy re-derives its caches from the same
    /// view a cold run would see, and the static score offsets use the same
    /// rounded expressions — which is what makes the warm-start invariant
    /// (warm output ≡ cold output, bit for bit) hold through a divergence.
    fn repair_and_finish<P: SelectionPolicy + ?Sized>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &mut P,
        exclude: Option<usize>,
    ) {
        let n = problem.num_clusters();
        // Rebuild the sorted sender order over A (minus any excluded
        // cluster).
        self.order.clear();
        for c in 0..n {
            self.order_pos[c] = u32::MAX;
            if self.in_a[c] && Some(c) != exclude {
                self.order.push(c as u32);
            }
        }
        {
            let ready = &self.ready;
            self.order
                .sort_by(|&a, &b| (ready[a as usize], a).cmp(&(ready[b as usize], b)));
        }
        for (pos, &c) in self.order.iter().enumerate() {
            self.order_pos[c as usize] = pos as u32;
        }
        // Policy reset runs *after* the replay so per-problem caches (the
        // ECEF bias/watch arrays are built over `view.receivers()`) see the
        // surviving B, exactly as a cold run on the reduced problem would.
        self.reset_policy(problem, policy);
        // Static score offsets, as in `init_caches`. On the crash path
        // `min_in` still includes the failed cluster's outgoing edges, so the
        // offsets can only be smaller than the reduced problem's — a looser
        // but still valid lower bound, affecting pruning effort, never
        // results.
        self.score_offset.clear();
        self.score_offset.resize(n, Time::ZERO);
        self.score_post.clear();
        self.score_post.resize(n, Time::ZERO);
        if policy.sender_time_sensitive() {
            for i in 0..self.receivers.len() {
                let r = self.receivers[i] as usize;
                self.score_offset[r] =
                    policy.edge_score_offset(problem, ClusterId(r), self.min_in[r]);
                self.score_post[r] = policy.edge_score_post_offset(problem, ClusterId(r));
            }
        }
        // Seed every remaining receiver's candidate row from the multi-sender
        // A set (a cold run seeds from the singleton {root}; here A already
        // holds every cluster the committed prefix reached).
        self.pending.clear();
        for i in 0..self.receivers.len() {
            let r = self.receivers[i];
            self.pending.push(r);
        }
        self.rescan_pending::<P, false>(problem, policy);
        // Ordinary rounds until the remaining receivers are all covered.
        while !self.receivers.is_empty() {
            let ((_, r, s), _) = self.select_full::<P, false>(problem, policy);
            self.telemetry.recomputed_commits += 1;
            self.commit(
                problem,
                policy,
                ClusterId(s as usize),
                ClusterId(r as usize),
            );
        }
    }

    /// Runs the policy's per-problem rebuild ([`SelectionPolicy::reset`])
    /// over the current A/B sets. Sender-major view: the ECEF lookahead
    /// refresh reads `transfer(j, k)` for the `k` still in B, all in one `tx`
    /// row.
    fn reset_policy<P: SelectionPolicy + ?Sized>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &mut P,
    ) {
        let EngineState {
            in_a,
            ready,
            tx,
            receivers,
            ..
        } = self;
        let view = EngineView {
            problem,
            in_a,
            ready,
            mat: tx,
            receiver_major: false,
            receivers,
            n: problem.num_clusters(),
        };
        policy.reset(&view);
    }

    /// The cold round loop without commit logging.
    fn run<P: SelectionPolicy + ?Sized>(&mut self, problem: &BroadcastProblem, policy: &mut P) {
        self.run_logged::<P, false>(problem, policy, &mut Vec::new());
    }

    /// The cold round loop. With `LOG` the selection scan is the
    /// monomorphization that tracks each round's runner-up, and one
    /// [`LoggedCommit`] per round is recorded into `commits`; without it the
    /// reserve and the pushes compile out, `commits` is never touched, and a
    /// warm engine's rounds allocate nothing. Both instances commit the same
    /// rounds with the same floats.
    fn run_logged<P: SelectionPolicy + ?Sized, const LOG: bool>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &mut P,
        commits: &mut Vec<LoggedCommit>,
    ) {
        self.reset(problem);
        self.reset_policy(problem, policy);
        self.init_caches(problem, policy);
        let n = problem.num_clusters();
        if LOG {
            commits.clear();
            commits.reserve(n.saturating_sub(1));
        }
        while self.events.len() + 1 < n {
            let (winner, runner_up) = self.select_full::<P, LOG>(problem, policy);
            let (sender, receiver) = (ClusterId(winner.2 as usize), ClusterId(winner.1 as usize));
            self.commit(problem, policy, sender, receiver);
            if LOG {
                let event = *self.events.last().expect("commit pushed an event");
                commits.push(LoggedCommit {
                    sender: winner.2,
                    receiver: winner.1,
                    start: event.start,
                    arrival: event.arrival,
                    winner,
                    runner_up: runner_up.unwrap_or((Time::INFINITY, u32::MAX, u32::MAX)),
                });
            }
        }
    }

    /// Replays one logged commit's bookkeeping: event times recomputed from
    /// the *current* (possibly perturbed) matrices, A/B membership and the
    /// swap-remove layout mirrored bit for bit so a divergence hands
    /// [`EngineState::repair_and_finish`] exactly the state a cold run would
    /// hold. No selection, no cache upkeep — the caller already decided this
    /// commit stands.
    fn replay_commit(&mut self, problem: &BroadcastProblem, s: usize, r: usize) {
        let n = problem.num_clusters();
        self.telemetry.rounds += 1;
        let start = self.ready[s];
        let arrival = start + self.tx[s * n + r];
        self.events.push(ScheduleEvent {
            sender: ClusterId(s),
            receiver: ClusterId(r),
            start,
            arrival,
        });
        self.ready[s] = start + self.gap_of(problem, s, r);
        self.ready[r] = arrival;
        self.in_a[r] = true;
        let pos = self.recv_pos[r] as usize;
        let last = *self.receivers.last().expect("receiver is in B");
        self.receivers.swap_remove(pos);
        if pos < self.receivers.len() {
            self.recv_pos[last as usize] = pos as u32;
        }
        self.recv_pos[r] = u32::MAX;
    }

    /// Re-scores one receiver's selection tuple from scratch against the
    /// current state: the exact lexicographic head `(edge score, sender)`
    /// over all of A, plus the policy's cache-free
    /// [`SelectionPolicy::replay_bias`]. Bit-identical to the candidate the
    /// cached selection scan of [`EngineState::select_full`] would build for
    /// this receiver — the heads it reads store verbatim `edge_score`
    /// outputs, and `replay_bias` contracts to match the cached bias.
    fn recompute_tuple<P: SelectionPolicy + ?Sized>(
        &self,
        problem: &BroadcastProblem,
        policy: &P,
        receiver: usize,
        biased: bool,
    ) -> (Time, u32, u32) {
        let n = problem.num_clusters();
        let view = EngineView {
            problem,
            in_a: &self.in_a,
            ready: &self.ready,
            mat: &self.rx,
            receiver_major: true,
            receivers: &self.receivers,
            n,
        };
        let rj = ClusterId(receiver);
        let mut head: Option<(Time, u32)> = None;
        for s in 0..n {
            if !self.in_a[s] {
                continue;
            }
            let score = policy.edge_score(&view, ClusterId(s), rj);
            debug_assert_score_not_nan(score);
            let entry = (score, s as u32);
            if head.is_none_or(|h| entry < h) {
                head = Some(entry);
            }
        }
        let (score, s) = head.expect("set A is never empty");
        let bias = if biased {
            policy.replay_bias(&view, rj)
        } else {
            Time::ZERO
        };
        (score + bias, receiver as u32, s)
    }

    /// The warm-start core: re-derive the schedule of `log` under a changed
    /// `problem`, replaying the longest provably-unchanged commit prefix and
    /// handing everything from the **first divergent commit** to
    /// [`EngineState::repair_and_finish`].
    ///
    /// Three trust regimes, picked per policy from [`ReplayTraits`] and the
    /// delta's direction:
    ///
    /// * **static** (`gap_blind`, or a clean delta): selection never reads a
    ///   perturbed quantity, so every logged selection stands and only event
    ///   times are recomputed. Never diverges.
    /// * **monotone** (`gap_monotone` × minimised objective ×
    ///   receiver-then-sender tie-break × worsening delta): every score can
    ///   only have grown, so a commit is *suspect* only when its own inputs
    ///   drifted (dirty sender row, tainted sender ready time, or dirty
    ///   receiver row under a biased policy). A suspect winner is re-scored
    ///   exactly; if it kept its sender and still beats the logged
    ///   runner-up, every other candidate — which drifted *away* — is beaten
    ///   transitively and the commit stands. Anything else diverges.
    /// * **checked** (everything else — BottomUp's maximised objective,
    ///   improving/mixed deltas, conservative custom policies): commits
    ///   replay while no dirty cluster has entered A (sender-side state is
    ///   then exact); dirty receivers still in B are re-scored against the
    ///   winner every round, and the first round that admits any drift into
    ///   A diverges.
    ///
    /// Divergence is always *safe*, never wrong: the replayed prefix leaves
    /// state bit-identical to a cold run's, and the repair core rebuilds
    /// caches exactly as that cold run would hold them — so warm output
    /// equals cold output bit for bit regardless of how early the replay
    /// gives up. The traits only buy longer prefixes.
    fn run_replay<P: SelectionPolicy + ?Sized>(
        &mut self,
        problem: &BroadcastProblem,
        policy: &mut P,
        log: &CommitLog,
        delta: &ReplayDelta,
    ) {
        let n = problem.num_clusters();
        if !log.compatible_with(problem) || delta.num_clusters() != n {
            // Moved root, altered payload, resized grid or a foreign delta:
            // nothing in the log is replayable — run cold.
            self.run(problem, policy);
            self.telemetry.recomputed_commits += self.events.len() as u64;
            return;
        }
        self.reset(problem);
        self.taint.clear();
        self.taint.resize(n, false);
        self.dirty_list.clear();
        for c in 0..n {
            if delta.is_dirty(c) {
                self.dirty_list.push(c as u32);
            }
        }

        let objective = policy.objective();
        let tie = policy.tie_break();
        let biased = policy.uses_receiver_bias();
        let sensitive = policy.sender_time_sensitive();
        let traits = policy.replay_traits();
        let bias_ok = !biased || traits.replay_bias_exact;
        let clean = !delta.any_dirty();
        let static_ok = clean || (traits.gap_blind && !sensitive);
        let monotone_ok = traits.gap_monotone
            && objective == Objective::Minimize
            && tie == TieBreak::ReceiverThenSender
            && matches!(
                delta.direction(),
                DeltaDirection::Unchanged | DeltaDirection::Worsening
            );
        // Checked mode re-scores dirty receivers every round, which needs an
        // exact cache-free bias; a biased policy that cannot provide one
        // diverges immediately (repair-from-scratch ≡ cold run).
        let checked_usable = bias_ok;

        let mut suspect_in_a = delta.is_dirty(problem.root.index());
        let mut diverged = false;

        for commit in log.commits.iter() {
            let (s, r) = (commit.sender as usize, commit.receiver as usize);
            assert!(s < n && r < n, "logged commit outside the problem");
            assert!(self.in_a[s], "logged sender must already hold the message");
            assert!(!self.in_a[r], "a cluster receives the message at most once");
            let s_was_clean = !self.taint[s] && !delta.is_dirty(s);
            if static_ok {
                self.telemetry.replayed_commits += 1;
            } else if monotone_ok {
                let suspect = delta.is_dirty(s)
                    || (sensitive && self.taint[s])
                    || (biased && delta.is_dirty(r));
                if !suspect {
                    self.telemetry.replayed_commits += 1;
                } else if !bias_ok {
                    diverged = true;
                    break;
                } else {
                    let w = self.recompute_tuple(problem, policy, r, biased);
                    debug_assert_eq!(w.1, commit.receiver);
                    if w.2 != commit.sender
                        || (commit.has_runner_up()
                            && candidate_improves(objective, tie, commit.runner_up, w))
                    {
                        diverged = true;
                        break;
                    }
                    self.telemetry.repaired_commits += 1;
                }
            } else {
                if suspect_in_a || !checked_usable {
                    diverged = true;
                    break;
                }
                let winner_suspect = biased && delta.is_dirty(r);
                let mut w = commit.winner;
                let mut verified = false;
                if winner_suspect {
                    w = self.recompute_tuple(problem, policy, r, biased);
                    verified = true;
                    if w.1 != commit.receiver
                        || w.2 != commit.sender
                        || (commit.has_runner_up()
                            && candidate_improves(objective, tie, commit.runner_up, w))
                    {
                        diverged = true;
                        break;
                    }
                }
                // A dirty receiver still waiting in B may now beat the
                // logged winner — re-score each one exactly.
                if biased {
                    for i in 0..self.dirty_list.len() {
                        let d = self.dirty_list[i] as usize;
                        if d == r || self.recv_pos[d] == u32::MAX {
                            continue;
                        }
                        let t = self.recompute_tuple(problem, policy, d, biased);
                        verified = true;
                        if candidate_improves(objective, tie, t, w) {
                            diverged = true;
                            break;
                        }
                    }
                    if diverged {
                        break;
                    }
                }
                if verified {
                    self.telemetry.repaired_commits += 1;
                } else {
                    self.telemetry.replayed_commits += 1;
                }
            }
            self.replay_commit(problem, s, r);
            #[cfg(debug_assertions)]
            if s_was_clean {
                let event = self.events.last().expect("replay pushed an event");
                debug_assert_eq!(event.start, commit.start, "clean replay drifted");
                debug_assert_eq!(event.arrival, commit.arrival, "clean replay drifted");
            }
            // Drift tracking: committing over a perturbed row moves the
            // sender's and receiver's ready times off the logged trajectory.
            if !s_was_clean {
                self.taint[s] = true;
                self.taint[r] = true;
            }
            suspect_in_a |= delta.is_dirty(r);
        }

        if diverged {
            self.repair_and_finish(problem, policy, None);
        } else {
            debug_assert!(self.receivers.is_empty(), "full replay covers all of B");
        }
    }

    /// Folds the events currently in the buffer into the reusable
    /// `arrival`/`busy` buffers using the engine's flat `gp` matrix: per
    /// cluster, when its payload arrived and until when its interface is
    /// occupied by outgoing gaps. The single event-fold behind
    /// [`EngineState::makespan_of_events`] and
    /// [`EngineState::schedule_of_events`].
    fn fold_events(&mut self, problem: &BroadcastProblem, n: usize) {
        self.arrival.clear();
        self.arrival.resize(n, Time::ZERO);
        self.busy.clear();
        self.busy.resize(n, Time::ZERO);
        for event in &self.events {
            self.arrival[event.receiver.index()] = event.arrival;
            let send_end =
                event.start + self.gap_of(problem, event.sender.index(), event.receiver.index());
            let cell = &mut self.busy[event.sender.index()];
            *cell = (*cell).max(send_end);
        }
    }

    /// Makespan of the events currently in the buffer, computed exactly like
    /// [`Schedule::from_events`] but without allocating a [`Schedule`].
    fn makespan_of_events(&mut self, problem: &BroadcastProblem) -> Time {
        let n = problem.num_clusters();
        self.fold_events(problem, n);
        let mut makespan = Time::ZERO;
        for i in 0..n {
            let coordinator_free = self.arrival[i].max(self.busy[i]);
            makespan = makespan.max(coordinator_free + problem.intra_time(ClusterId(i)));
        }
        makespan
    }

    /// Builds a [`Schedule`] from the events currently in the buffer,
    /// computing per-cluster completion times with the engine's flat `gp`
    /// matrix — the one schedule builder behind every engine entry point. On
    /// the uniform path `gp` equals the problem's gap matrix bit for bit, so
    /// this matches [`Schedule::from_events`]; on the costed path it prices
    /// what the committed edges actually carried, which the problem's own
    /// matrix cannot.
    fn schedule_of_events(&mut self, problem: &BroadcastProblem, heuristic: &str) -> Schedule {
        let n = problem.num_clusters();
        self.fold_events(problem, n);
        let cluster_completion = (0..n)
            .map(|i| self.arrival[i].max(self.busy[i]) + problem.intra_time(ClusterId(i)))
            .collect();
        Schedule {
            root: problem.root,
            events: self.events.clone(),
            cluster_completion,
            heuristic: heuristic.to_owned(),
        }
    }
}

/// One warm instance of every built-in policy, stored as **concrete types**:
/// dispatching on [`HeuristicKind`] once per run hands the round loop a
/// monomorphized policy, so the per-edge `edge_score` calls in the offer,
/// repair and rescan loops inline instead of going through a vtable —
/// roughly a third of the batch cost at 1000 clusters.
struct BuiltinPolicies {
    flat_tree: FlatTreePolicy,
    fef: FefPolicy,
    ecef: EcefPolicy,
    ecef_la: EcefPolicy,
    ecef_la_min: EcefPolicy,
    ecef_la_max: EcefPolicy,
    bottom_up: BottomUpPolicy,
}

impl Default for BuiltinPolicies {
    fn default() -> Self {
        BuiltinPolicies {
            flat_tree: FlatTreePolicy::new(),
            fef: FefPolicy,
            ecef: EcefPolicy::new(Lookahead::None),
            ecef_la: EcefPolicy::new(Lookahead::MinEdge),
            ecef_la_min: EcefPolicy::new(Lookahead::MinEdgePlusIntra),
            ecef_la_max: EcefPolicy::new(Lookahead::MaxEdgePlusIntra),
            bottom_up: BottomUpPolicy,
        }
    }
}

/// Evaluates `$body` with `$p` bound to `&mut` the concrete built-in policy
/// for `$kind` — the single point where the kind-to-policy dispatch happens.
/// Each arm instantiates `$body` for its own policy type, so the round loop
/// it calls is monomorphized per heuristic.
macro_rules! with_policy {
    ($policies:expr, $kind:expr, |$p:ident| $body:expr) => {{
        let policies: &mut BuiltinPolicies = $policies;
        match $kind {
            HeuristicKind::FlatTree => {
                let $p = &mut policies.flat_tree;
                $body
            }
            HeuristicKind::Fef => {
                let $p = &mut policies.fef;
                $body
            }
            HeuristicKind::Ecef => {
                let $p = &mut policies.ecef;
                $body
            }
            HeuristicKind::EcefLa => {
                let $p = &mut policies.ecef_la;
                $body
            }
            HeuristicKind::EcefLaMin => {
                let $p = &mut policies.ecef_la_min;
                $body
            }
            HeuristicKind::EcefLaMax => {
                let $p = &mut policies.ecef_la_max;
                $body
            }
            HeuristicKind::BottomUp => {
                let $p = &mut policies.bottom_up;
                $body
            }
        }
    }};
}

/// The winner among candidate makespans: the slot of the smallest one, ties
/// to the earlier slot; `None` when there is no candidate. The one tie-break
/// of the predictive loop: [`ScheduleEngine::price`] picks with it, and so
/// does the serving daemon when it answers from a cached entry.
pub fn best_slot(makespans: &[Time]) -> Option<usize> {
    makespans
        .iter()
        .enumerate()
        .min_by_key(|&(_, &makespan)| makespan)
        .map(|(slot, _)| slot)
}

/// Where a pricing pass ([`ScheduleEngine::price`]) takes each candidate's
/// schedule from.
#[derive(Debug, Clone, Copy)]
pub enum Candidates<'a> {
    /// Schedule each heuristic from scratch, logging its commits.
    Cold(&'a [HeuristicKind]),
    /// Replay each baseline log under `delta`: one candidate per log.
    Warm {
        /// The baseline logs, in candidate order.
        logs: &'a [CommitLog],
        /// How the priced problem differs from the logs' baseline.
        delta: &'a ReplayDelta,
    },
}

/// The result of [`ScheduleEngine::price`].
#[derive(Debug, Clone, PartialEq)]
pub struct Priced {
    /// Every candidate's makespan, in candidate order.
    pub makespans: Vec<Time>,
    /// The chosen slot: the pin, else [`best_slot`] of the makespans.
    pub slot: usize,
    /// The chosen slot's schedule events, in commit order.
    pub events: Vec<ScheduleEvent>,
    /// One commit log per candidate from a cold pass; `None` from a warm one.
    pub logs: Option<Vec<CommitLog>>,
}

/// The reusable, pattern-agnostic scheduling engine.
///
/// One engine owns the A/B bookkeeping buffers and one warm policy instance
/// per [`HeuristicKind`], so repeated scheduling — Monte-Carlo sweeps,
/// benches, serving many requests — performs no per-round allocations and
/// reuses every buffer across heuristics and problems.
///
/// ```
/// use gridcast_core::{BroadcastProblem, HeuristicKind, ScheduleEngine};
/// use gridcast_plogp::MessageSize;
/// use gridcast_topology::{grid5000_table3, ClusterId};
///
/// let grid = grid5000_table3();
/// let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
/// let mut engine = ScheduleEngine::new();
/// let schedules = engine.schedule_all(&problem, &HeuristicKind::all());
/// assert_eq!(schedules.len(), 7);
/// for s in &schedules {
///     assert!(s.validate(&problem).is_ok());
/// }
/// ```
pub struct ScheduleEngine {
    state: EngineState,
    policies: BuiltinPolicies,
}

impl Default for ScheduleEngine {
    fn default() -> Self {
        ScheduleEngine::with_k_best(DEFAULT_K_BEST)
    }
}

impl ScheduleEngine {
    /// Creates an engine with empty buffers and [`DEFAULT_K_BEST`]-wide
    /// candidate rows.
    pub fn new() -> Self {
        ScheduleEngine::default()
    }

    /// Creates an engine whose candidate rows hold `k` entries instead of
    /// [`DEFAULT_K_BEST`] — the one width override.
    ///
    /// The row width is a **pure performance knob**: the head invariant and
    /// the rescan fallback keep schedules byte-identical for any `k ≥ 1`
    /// (asserted by the engine's parity tests) — only the repair rate, and
    /// with it the rescan work, changes.
    pub fn with_k_best(k: usize) -> Self {
        assert!(k >= 1, "the candidate row needs at least the head entry");
        ScheduleEngine {
            state: EngineState {
                k_best: k,
                ..EngineState::default()
            },
            policies: BuiltinPolicies::default(),
        }
    }

    /// Schedules `problem` with the built-in policy for `kind`.
    pub fn schedule(&mut self, problem: &BroadcastProblem, kind: HeuristicKind) -> Schedule {
        self.state.prepare_tx(problem);
        self.schedule_prepared(problem, kind)
    }

    /// Like [`ScheduleEngine::schedule`], but assumes [`EngineState::prepare_tx`]
    /// already ran for this problem (the batched entry points build the
    /// transfer matrix once and schedule every heuristic against it).
    fn schedule_prepared(&mut self, problem: &BroadcastProblem, kind: HeuristicKind) -> Schedule {
        let ScheduleEngine { state, policies } = self;
        with_policy!(policies, kind, |p| state.run(problem, p));
        state.schedule_of_events(problem, kind.name())
    }

    /// Warm-start crash recovery: re-plans the remainder of a broadcast after
    /// cluster `failed` died mid-collective, splicing the repair onto the
    /// already-executed prefix instead of restarting from round zero.
    ///
    /// `committed` is the prefix of [`ScheduleEvent`]s that completed on the
    /// wire before the crash was detected (pass `&[]` for a naive
    /// from-scratch restart at `resume_at` — the baseline the resplice is
    /// measured against). Every committed event is replayed verbatim: its
    /// receiver joins the sender set A with the original arrival as its ready
    /// time, its sender's interface stays occupied for the original gap, and
    /// deliveries *to* the failed cluster are kept (they consumed real
    /// interface time even though the payload is now lost). The failed
    /// cluster is then excised from both sets — it never appears as a sender
    /// or receiver in the repair — surviving ready times are clamped to
    /// `resume_at` (no repair transmission starts before the crash is
    /// detected), and the ordinary select/commit rounds of `kind` cover the
    /// surviving receivers.
    ///
    /// With an empty prefix and `resume_at == Time::ZERO` the result is
    /// **bit-identical** (modulo the identity-preserving cluster-id remap) to
    /// a cold [`ScheduleEngine::schedule`] run on the reduced problem with
    /// the failed cluster's row and column deleted — the conformance contract
    /// the engine's own tests pin for every built-in heuristic and every
    /// failed cluster (`tests/fault_suite.rs` adds the end-to-end half: the
    /// spliced repair beats that naive restart strictly). This is the
    /// first concrete step toward warm-start what-if scheduling: the same
    /// replay-then-repair loop applies when a perturbation invalidates only a
    /// suffix of the commit sequence.
    ///
    /// The returned schedule's events are the committed prefix followed by
    /// the repair transfers. Its completion entry for the failed cluster is
    /// meaningless (a dead cluster never finishes); use
    /// [`Schedule::makespan_excluding`] rather than [`Schedule::makespan`]
    /// to judge recovery schedules.
    ///
    /// # Panics
    ///
    /// Panics when `failed` is the root (the message source cannot be
    /// excluded), when `resume_at` is not finite, or when `committed` is not
    /// a causally consistent prefix (a sender transmitting before it holds
    /// the message, or a cluster receiving twice).
    pub fn reschedule_excluding(
        &mut self,
        problem: &BroadcastProblem,
        kind: HeuristicKind,
        failed: ClusterId,
        committed: &[ScheduleEvent],
        resume_at: Time,
    ) -> Schedule {
        assert_ne!(
            failed, problem.root,
            "the root holds the message source and cannot be excluded"
        );
        assert!(
            failed.index() < problem.num_clusters(),
            "failed cluster out of range"
        );
        assert!(resume_at.is_finite(), "resume_at must be finite");
        self.state.prepare_tx(problem);
        let ScheduleEngine { state, policies } = self;
        with_policy!(policies, kind, |p| {
            state.run_excluding(problem, p, failed, committed, resume_at)
        });
        state.schedule_of_events(problem, kind.name())
    }

    /// [`ScheduleEngine::schedule`] with commit logging: the identical
    /// schedule (same rounds, same floats) plus the [`CommitLog`] that lets
    /// [`ScheduleEngine::reschedule_perturbed`] warm-start what-if variants
    /// of this problem.
    pub fn schedule_logged(
        &mut self,
        problem: &BroadcastProblem,
        kind: HeuristicKind,
    ) -> (Schedule, CommitLog) {
        self.state.prepare_tx(problem);
        let log = self.run_logged_prepared(problem, kind);
        (self.state.schedule_of_events(problem, kind.name()), log)
    }

    /// One logged run of `kind` against an already-built transfer matrix:
    /// the events land in the engine buffer and the log is returned.
    fn run_logged_prepared(
        &mut self,
        problem: &BroadcastProblem,
        kind: HeuristicKind,
    ) -> CommitLog {
        let ScheduleEngine { state, policies } = self;
        let mut commits = Vec::new();
        with_policy!(policies, kind, |p| {
            state.run_logged::<_, true>(problem, p, &mut commits)
        });
        CommitLog {
            root: problem.root,
            message: problem.message,
            n: problem.num_clusters(),
            kind,
            commits,
        }
    }

    /// The logged twin of [`ScheduleEngine::makespans_into`]: one shared
    /// transfer-matrix build, then every heuristic in `kinds` run with commit
    /// logging. Returns the makespans and one [`CommitLog`] per kind, in
    /// order — the baseline a warm what-if sweep replays against.
    pub fn makespans_logged(
        &mut self,
        problem: &BroadcastProblem,
        kinds: &[HeuristicKind],
    ) -> (Vec<Time>, Vec<CommitLog>) {
        self.state.prepare_tx(problem);
        let mut makespans = Vec::with_capacity(kinds.len());
        let mut logs = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            logs.push(self.run_logged_prepared(problem, kind));
            makespans.push(self.state.makespan_of_events(problem));
        }
        (makespans, logs)
    }

    /// The pricing pass of the predictive loop: one run per candidate gives
    /// every makespan, the chosen slot and that slot's schedule events.
    ///
    /// A [`Candidates::Cold`] pass schedules every kind with commit logging
    /// and returns the logs too; a [`Candidates::Warm`] pass replays every
    /// baseline log under its delta. The chosen slot is `pin` when one is
    /// given, else [`best_slot`] of the makespans. Its events are copied
    /// from the pass as its run lands, so the winner is never scheduled a
    /// second time. Every makespan and the events are bit-identical to a
    /// cold [`ScheduleEngine::schedule`] of the slot's kind (the replay
    /// contract of [`ScheduleEngine::reschedule_perturbed`]).
    ///
    /// # Panics
    ///
    /// With no candidates, or a pin outside them.
    pub fn price(
        &mut self,
        problem: &BroadcastProblem,
        candidates: Candidates<'_>,
        pin: Option<usize>,
    ) -> Priced {
        let len = match candidates {
            Candidates::Cold(kinds) => kinds.len(),
            Candidates::Warm { logs, .. } => logs.len(),
        };
        assert!(len > 0, "a pricing pass needs at least one candidate");
        assert!(pin.is_none_or(|p| p < len), "pinned slot {pin:?} of {len}");
        let mut makespans = Vec::with_capacity(len);
        let mut events = Vec::new();
        // Keeps a run's events while its slot is the pin or the best so far.
        let mut land = |makespan: Time, ran: &[ScheduleEvent]| {
            let slot = makespans.len();
            makespans.push(makespan);
            if pin.map_or(best_slot(&makespans) == Some(slot), |p| p == slot) {
                events.clear();
                events.extend_from_slice(ran);
            }
        };
        self.state.prepare_tx(problem);
        let logs = match candidates {
            Candidates::Cold(kinds) => Some(
                kinds
                    .iter()
                    .map(|&kind| {
                        let log = self.run_logged_prepared(problem, kind);
                        land(self.state.makespan_of_events(problem), &self.state.events);
                        log
                    })
                    .collect(),
            ),
            Candidates::Warm { logs, delta } => {
                let ScheduleEngine { state, policies } = self;
                for log in logs {
                    with_policy!(policies, log.kind, |p| state
                        .run_replay(problem, p, log, delta));
                    land(state.makespan_of_events(problem), &state.events);
                }
                None
            }
        };
        let slot = pin
            .or_else(|| best_slot(&makespans))
            .expect("a non-empty pass has a best slot");
        Priced {
            makespans,
            slot,
            events,
            logs,
        }
    }

    /// Warm-start what-if scheduling: re-derives `log`'s schedule under
    /// `problem` — the **perturbed** problem — replaying the longest
    /// provably-unchanged commit prefix and re-running selection only from
    /// the first divergent commit (see [`ReplayTraits`] for the per-policy
    /// trust regimes). `perturbations` describes *how* `problem` differs
    /// from the logged baseline; it is folded into a [`ReplayDelta`] marking
    /// the perturbed sender rows and the drift direction.
    ///
    /// **Invariant:** the result is bit-identical to a cold
    /// [`ScheduleEngine::schedule`] of `log.kind()` on `problem`, for every
    /// policy, every candidate-row width and every thread count — replay
    /// only ever commits a round it can prove the cold run would commit, and
    /// falls back to the cold path entirely when the log is incompatible
    /// (moved root, altered payload, resized grid).
    ///
    /// Telemetry splits the rounds into `replayed_commits` /
    /// `repaired_commits` / `recomputed_commits`.
    pub fn reschedule_perturbed(
        &mut self,
        problem: &BroadcastProblem,
        log: &CommitLog,
        perturbations: &[Perturbation],
    ) -> Schedule {
        let delta = ReplayDelta::from_perturbations(problem.num_clusters(), perturbations);
        self.warm_run(problem, log, &delta);
        self.state.schedule_of_events(problem, log.kind.name())
    }

    /// The delta-form primitive behind [`ScheduleEngine::reschedule_perturbed`]:
    /// runs the warm replay and leaves the events in the engine buffer
    /// ([`ScheduleEngine::events`]) without materialising a [`Schedule`] —
    /// the shape the what-if runner's hot loop wants.
    pub fn warm_run(&mut self, problem: &BroadcastProblem, log: &CommitLog, delta: &ReplayDelta) {
        self.state.prepare_tx(problem);
        let ScheduleEngine { state, policies } = self;
        with_policy!(policies, log.kind, |p| state
            .run_replay(problem, p, log, delta));
    }

    /// The warm twin of [`ScheduleEngine::makespans_into`]: one shared
    /// transfer-matrix build, then one warm replay per baseline log in
    /// `logs`, writing each replay's makespan into `out` (cleared first) in
    /// order. Every makespan is bit-identical to what a cold
    /// [`ScheduleEngine::makespan`] of that log's kind on `problem` returns.
    pub fn warm_makespans_into(
        &mut self,
        problem: &BroadcastProblem,
        logs: &[CommitLog],
        delta: &ReplayDelta,
        out: &mut Vec<Time>,
    ) {
        out.clear();
        out.reserve(logs.len());
        self.state.prepare_tx(problem);
        let ScheduleEngine { state, policies } = self;
        for log in logs {
            with_policy!(policies, log.kind, |p| state
                .run_replay(problem, p, log, delta));
            out.push(state.makespan_of_events(problem));
        }
    }

    /// Schedules `problem` with a caller-provided policy.
    pub fn schedule_with(
        &mut self,
        problem: &BroadcastProblem,
        policy: &mut dyn SelectionPolicy,
    ) -> Schedule {
        self.state.prepare_tx(problem);
        self.state.run(problem, policy);
        self.state.schedule_of_events(problem, policy.name())
    }

    /// Schedules `problem` with the built-in policy for `kind`, pricing every
    /// edge by the per-edge payload `costs` instead of the problem's
    /// uniform-message matrices: every completion estimate served by the
    /// [`EngineView`], every committed timing and the returned schedule's
    /// completion times use the costed `g(payload) + L`.
    ///
    /// Caveat shared with [`ScheduleEngine::schedule_with_costs`]: a policy
    /// component that reads the problem's raw matrices directly still sees
    /// the uniform prices. Every built-in kind reads its transfer costs
    /// through the view, the ECEF lookaheads included; FEF reads the
    /// problem's latencies, which no payload changes. The relay policies of
    /// [`patterns`](crate::patterns) only consult the view as well.
    ///
    /// With [`EdgeCosts::uniform`] this is byte-identical to
    /// [`ScheduleEngine::schedule`] — the broadcast fast path is the
    /// degenerate case, not a separate code path (the round loop only ever
    /// reads the flat matrices this entry point fills).
    pub fn schedule_costed(
        &mut self,
        problem: &BroadcastProblem,
        costs: &EdgeCosts,
        kind: HeuristicKind,
    ) -> Schedule {
        let ScheduleEngine { state, policies } = self;
        state.prepare_costs(problem, costs);
        with_policy!(policies, kind, |p| state.run(problem, p));
        state.schedule_of_events(problem, kind.name())
    }

    /// [`ScheduleEngine::schedule_costed`] with a caller-provided policy —
    /// the entry point behind the relay-capable scatter orderings of
    /// [`patterns`](crate::patterns).
    ///
    /// Policies still receive the original `problem` through the
    /// [`EngineView`], but every completion estimate served by the view (and
    /// every committed timing) is payload-priced; a policy that reads the
    /// problem's raw matrices directly sees the uniform prices instead.
    pub fn schedule_with_costs(
        &mut self,
        problem: &BroadcastProblem,
        costs: &EdgeCosts,
        policy: &mut dyn SelectionPolicy,
    ) -> Schedule {
        self.state.prepare_costs(problem, costs);
        self.state.run(problem, policy);
        self.state.schedule_of_events(problem, policy.name())
    }

    /// Makespan of `kind` on `problem` without materialising a [`Schedule`];
    /// allocation-free once the engine is warm.
    pub fn makespan(&mut self, problem: &BroadcastProblem, kind: HeuristicKind) -> Time {
        self.state.prepare_tx(problem);
        self.makespan_prepared(problem, kind)
    }

    /// [`ScheduleEngine::makespan`] without the per-problem transfer-matrix
    /// build; see [`ScheduleEngine::schedule_prepared`].
    fn makespan_prepared(&mut self, problem: &BroadcastProblem, kind: HeuristicKind) -> Time {
        let ScheduleEngine { state, policies } = self;
        with_policy!(policies, kind, |p| state.run(problem, p));
        state.makespan_of_events(problem)
    }

    /// The events of the most recent run, without allocation.
    pub fn events(&self) -> &[ScheduleEvent] {
        &self.state.events
    }

    /// The cumulative cache telemetry of this engine, recorded in every
    /// build.
    pub fn telemetry(&self) -> EngineTelemetry {
        self.state.telemetry
    }

    /// Returns the cumulative telemetry and resets the counters to zero —
    /// convenient for per-batch deltas in benches.
    pub fn take_telemetry(&mut self) -> EngineTelemetry {
        std::mem::take(&mut self.state.telemetry)
    }

    /// Schedules `problem` with every heuristic in `kinds`, reusing the state
    /// buffers across heuristics. The Monte-Carlo and what-if runners use its
    /// makespan-only sibling, [`ScheduleEngine::makespans_into`].
    pub fn schedule_all(
        &mut self,
        problem: &BroadcastProblem,
        kinds: &[HeuristicKind],
    ) -> Vec<Schedule> {
        let mut out = Vec::with_capacity(kinds.len());
        self.schedule_all_into(problem, kinds, &mut out);
        out
    }

    /// Like [`ScheduleEngine::schedule_all`], writing into a caller-owned
    /// buffer (cleared first) so sweeps can reuse the output allocation too.
    pub fn schedule_all_into(
        &mut self,
        problem: &BroadcastProblem,
        kinds: &[HeuristicKind],
        out: &mut Vec<Schedule>,
    ) {
        out.clear();
        out.reserve(kinds.len());
        self.state.prepare_tx(problem);
        for &kind in kinds {
            out.push(self.schedule_prepared(problem, kind));
        }
    }

    /// Places every transfer of `set` on the clusters' network interfaces with
    /// the greedy **earliest-completion-first** rule: each round commits the
    /// pending transfer whose completion `max(free_src, free_dst) + g + L` is
    /// smallest (ties broken by `(from, to, insertion index)`), occupying both
    /// endpoints' interfaces for the gap — the single-port model every
    /// heuristic of the paper assumes, now applied to exchanges where a
    /// cluster sends *and* receives many payloads instead of receiving once.
    ///
    /// The result is deterministic for any insertion order of equal
    /// transfers.
    ///
    /// Implementation: a **lazy-invalidation heap** over completion keys.
    /// Interface free times only *grow*, so every stored key is a lower
    /// bound on its transfer's current completion; a popped entry whose key
    /// still matches its recomputed completion is therefore the exact global
    /// minimum — ties and floats identical to the oracle — and a stale entry
    /// (one of its endpoints moved since the push) is re-keyed and
    /// re-inserted. Only entries whose bound the rising global minimum has
    /// actually passed are ever touched, so the work is `O((T + R) log T)`
    /// with `R` the re-key count: `O(T log T)` on sparse exchanges (every
    /// pending transfer incident to ≤ a few commits), and on **dense**
    /// all-to-all sets the observed `R ≈ 0.85·n·T = O(T^{3/2})` — still a
    /// 16× reduction over the `O(T²)` oracle scan at 200 clusters, widening
    /// to 32× at 400. Byte-exact float semantics force each surfaced bound to
    /// be verified individually (rounded completions are not order-stable
    /// under a common shift). The old scan is retained as
    /// [`ScheduleEngine::schedule_transfers_quadratic`], the differential
    /// oracle the proptests hold this implementation **byte-identical** to,
    /// and the telemetry counters (`exchange_pops`, `exchange_reinserts`) pin
    /// the work in `crates/core/tests/exchange_regression.rs`.
    pub fn schedule_transfers(&mut self, set: &TransferSet) -> ExchangeSchedule {
        let release = vec![Time::ZERO; set.num_clusters()];
        self.schedule_transfers_from(set, &release)
    }

    /// [`ScheduleEngine::schedule_transfers`] with per-cluster **release
    /// times**: cluster `i`'s interface only becomes available at
    /// `release[i]` (every transfer touching it starts no earlier). This is
    /// how the allgather charges each coordinator's local gather lead-in
    /// before its wide-area exchange begins.
    pub fn schedule_transfers_from(
        &mut self,
        set: &TransferSet,
        release: &[Time],
    ) -> ExchangeSchedule {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = set.num_clusters();
        assert_eq!(release.len(), n, "one release time per cluster");
        let EngineState {
            ready: free,
            arrival: last_arrival,
            telemetry,
            ..
        } = &mut self.state;
        free.clear();
        free.extend_from_slice(release);
        last_arrival.clear();
        last_arrival.resize(n, Time::ZERO);
        let transfers = set.transfers();
        // The key replicates the oracle's comparison tuple exactly, including
        // the float evaluation order of the completion.
        let key = |free: &[Time], t: &Transfer, idx: u32| {
            let start = free[t.from.index()].max(free[t.to.index()]);
            let completion = start + t.gap + t.latency;
            debug_assert_score_not_nan(completion);
            (completion, t.from.index() as u32, t.to.index() as u32, idx)
        };
        let mut heap: BinaryHeap<Reverse<(Time, u32, u32, u32)>> =
            BinaryHeap::with_capacity(transfers.len() + 1);
        for (idx, t) in transfers.iter().enumerate() {
            heap.push(Reverse(key(free, t, idx as u32)));
        }
        let mut out = Vec::with_capacity(transfers.len());
        // Invariant: every pending transfer has exactly one live heap entry,
        // keyed by a lower bound on its current completion (frees only grow).
        while let Some(Reverse(entry)) = heap.pop() {
            telemetry.exchange_pops += 1;
            let idx = entry.3;
            let t = &transfers[idx as usize];
            let current = key(free, t, idx);
            debug_assert!(current >= entry, "completion keys never decrease");
            if current != entry {
                // Stale: an endpoint's interface moved since the push.
                telemetry.exchange_reinserts += 1;
                heap.push(Reverse(current));
                continue;
            }
            // Fresh minimum over lower bounds of everything pending: this is
            // the oracle's earliest-completion pick, tie-break included.
            telemetry.exchange_commits += 1;
            let start = free[t.from.index()].max(free[t.to.index()]);
            let nic_release = start + t.gap;
            let arrival = nic_release + t.latency;
            free[t.from.index()] = nic_release;
            free[t.to.index()] = nic_release;
            last_arrival[t.to.index()] = last_arrival[t.to.index()].max(arrival);
            out.push(TimedTransfer {
                from: t.from,
                to: t.to,
                payload: t.payload,
                start,
                arrival,
            });
        }
        debug_assert_eq!(out.len(), transfers.len());
        ExchangeSchedule {
            transfers: out,
            interface_free: free.clone(),
            last_arrival: last_arrival.clone(),
        }
    }

    /// The original `O(T²)` earliest-completion-first scan, retained as the
    /// **differential oracle** for [`ScheduleEngine::schedule_transfers`]:
    /// the proptests assert the heap implementation is byte-identical to this
    /// one on random transfer sets, and the scaling figure measures the two
    /// against each other. Prefer `schedule_transfers` everywhere else.
    pub fn schedule_transfers_quadratic(&mut self, set: &TransferSet) -> ExchangeSchedule {
        let release = vec![Time::ZERO; set.num_clusters()];
        self.schedule_transfers_quadratic_from(set, &release)
    }

    /// [`ScheduleEngine::schedule_transfers_quadratic`] with per-cluster
    /// release times — the oracle twin of
    /// [`ScheduleEngine::schedule_transfers_from`].
    pub fn schedule_transfers_quadratic_from(
        &mut self,
        set: &TransferSet,
        release: &[Time],
    ) -> ExchangeSchedule {
        let n = set.num_clusters();
        assert_eq!(release.len(), n, "one release time per cluster");
        let EngineState {
            ready: free,
            arrival: last_arrival,
            telemetry,
            ..
        } = &mut self.state;
        free.clear();
        free.extend_from_slice(release);
        last_arrival.clear();
        last_arrival.resize(n, Time::ZERO);
        let mut remaining: Vec<u32> = (0..set.transfers.len() as u32).collect();
        let mut out = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let mut best_slot = 0usize;
            let mut best_key = (Time::INFINITY, u32::MAX, u32::MAX, u32::MAX);
            for (slot, &idx) in remaining.iter().enumerate() {
                telemetry.exchange_oracle_scans += 1;
                let t = &set.transfers[idx as usize];
                let start = free[t.from.index()].max(free[t.to.index()]);
                let completion = start + t.gap + t.latency;
                debug_assert_score_not_nan(completion);
                let key = (completion, t.from.index() as u32, t.to.index() as u32, idx);
                if key < best_key {
                    best_key = key;
                    best_slot = slot;
                }
            }
            let idx = remaining.swap_remove(best_slot);
            let t = &set.transfers[idx as usize];
            let start = free[t.from.index()].max(free[t.to.index()]);
            let nic_release = start + t.gap;
            let arrival = nic_release + t.latency;
            free[t.from.index()] = nic_release;
            free[t.to.index()] = nic_release;
            last_arrival[t.to.index()] = last_arrival[t.to.index()].max(arrival);
            out.push(TimedTransfer {
                from: t.from,
                to: t.to,
                payload: t.payload,
                start,
                arrival,
            });
        }
        ExchangeSchedule {
            transfers: out,
            interface_free: free.clone(),
            last_arrival: last_arrival.clone(),
        }
    }

    /// Makespans of every heuristic in `kinds` on `problem`, written into a
    /// caller-owned buffer; allocation-free once the engine is warm.
    pub fn makespans_into(
        &mut self,
        problem: &BroadcastProblem,
        kinds: &[HeuristicKind],
        out: &mut Vec<Time>,
    ) {
        out.clear();
        out.reserve(kinds.len());
        self.state.prepare_tx(problem);
        for &kind in kinds {
            out.push(self.makespan_prepared(problem, kind));
        }
    }
}

thread_local! {
    static SHARED_ENGINE: RefCell<ScheduleEngine> = RefCell::new(ScheduleEngine::new());
}

/// Runs `f` with this thread's shared engine — the buffer-reusing fast path
/// behind [`HeuristicKind::schedule`] and the [`crate::heuristics::Heuristic`]
/// impls.
pub fn with_shared_engine<R>(f: impl FnOnce(&mut ScheduleEngine) -> R) -> R {
    SHARED_ENGINE.with(|engine| f(&mut engine.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_plogp::MessageSize;
    use gridcast_topology::GridGenerator;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_problem(clusters: usize, seed: u64) -> BroadcastProblem {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1))
    }

    fn random_grid_for(clusters: usize, seed: u64) -> Grid {
        GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    fn assert_events_bit_identical(warm: &[ScheduleEvent], cold: &[ScheduleEvent], what: &str) {
        assert_eq!(warm.len(), cold.len(), "{what}: event count");
        for (i, (w, c)) in warm.iter().zip(cold).enumerate() {
            assert_eq!(w.sender, c.sender, "{what}: sender of event {i}");
            assert_eq!(w.receiver, c.receiver, "{what}: receiver of event {i}");
            assert_eq!(
                w.start.as_secs().to_bits(),
                c.start.as_secs().to_bits(),
                "{what}: start of event {i}"
            );
            assert_eq!(
                w.arrival.as_secs().to_bits(),
                c.arrival.as_secs().to_bits(),
                "{what}: arrival of event {i}"
            );
        }
    }

    /// Commit logging must not change the schedule: same rounds, same floats,
    /// and the log records exactly the committed sequence.
    #[test]
    fn logged_run_matches_plain_run_bit_for_bit() {
        let problem = random_problem(23, 5);
        let mut engine = ScheduleEngine::new();
        for kind in HeuristicKind::all() {
            let plain = engine.schedule(&problem, kind);
            let (logged, log) = engine.schedule_logged(&problem, kind);
            assert_events_bit_identical(&logged.events, &plain.events, kind.name());
            assert_eq!(log.kind(), kind);
            assert!(log.compatible_with(&problem));
            assert_eq!(log.commits().len() + 1, problem.num_clusters());
            for (c, e) in log.commits().iter().zip(&plain.events) {
                assert_eq!(c.sender as usize, e.sender.index(), "{kind}");
                assert_eq!(c.receiver as usize, e.receiver.index(), "{kind}");
                assert_eq!(c.start.as_secs().to_bits(), e.start.as_secs().to_bits());
                assert_eq!(c.arrival.as_secs().to_bits(), e.arrival.as_secs().to_bits());
            }
        }
    }

    /// The tentpole invariant at engine level: a warm replay of a baseline
    /// log under a perturbed problem is bit-identical to a cold run on that
    /// problem — for every policy, every candidate-row width, and a
    /// perturbation mix covering worsening, improving and mixed deltas
    /// (single link, whole uplink, site span, dropped relay).
    #[test]
    fn warm_replay_is_bit_identical_to_cold_for_every_policy() {
        let grid = random_grid_for(23, 9);
        let root = ClusterId(0);
        let message = MessageSize::from_mib(1);
        let base = BroadcastProblem::from_grid(&grid, root, message);
        let cases: Vec<Vec<Perturbation>> = vec![
            vec![Perturbation::DegradeLink {
                from: ClusterId(3),
                to: ClusterId(11),
                factor: 4.0,
            }],
            vec![Perturbation::DegradeUplink {
                cluster: ClusterId(7),
                factor: 2.5,
            }],
            // Improving: forces the checked mode (and divergence) for the
            // minimising policies too.
            vec![Perturbation::DegradeLink {
                from: ClusterId(0),
                to: ClusterId(1),
                factor: 0.25,
            }],
            vec![Perturbation::DegradeSite {
                first: ClusterId(4),
                span: 3,
                factor: 8.0,
            }],
            vec![Perturbation::DropRelay {
                cluster: ClusterId(13),
            }],
            // Mixed-direction chain.
            vec![
                Perturbation::DegradeUplink {
                    cluster: ClusterId(2),
                    factor: 3.0,
                },
                Perturbation::DegradeLink {
                    from: ClusterId(5),
                    to: ClusterId(6),
                    factor: 0.5,
                },
            ],
        ];
        for k in [1usize, 2, 4, 16] {
            let mut engine = ScheduleEngine::with_k_best(k);
            for kind in HeuristicKind::all() {
                let (_, log) = engine.schedule_logged(&base, kind);
                for (ci, perturbations) in cases.iter().enumerate() {
                    let mut proot = root;
                    let mut cur = grid.clone();
                    for p in perturbations {
                        if let Some(g) = p.apply(&cur, &mut proot) {
                            cur = g;
                        }
                    }
                    let perturbed = BroadcastProblem::from_grid(&cur, proot, message);
                    let cold = engine.schedule(&perturbed, kind);
                    let warm = engine.reschedule_perturbed(&perturbed, &log, perturbations);
                    assert_events_bit_identical(
                        &warm.events,
                        &cold.events,
                        &format!("{kind} K={k} case={ci}"),
                    );
                    assert_eq!(
                        warm.makespan().as_secs().to_bits(),
                        cold.makespan().as_secs().to_bits(),
                        "{kind} K={k} case={ci}"
                    );
                }
            }
        }
    }

    /// A log whose identity no longer matches the problem (here: the root
    /// moved) is not replayable; the warm entry point must fall back to a
    /// cold run and still return the bit-identical result.
    #[test]
    fn incompatible_log_falls_back_to_cold_run() {
        let grid = random_grid_for(12, 3);
        let message = MessageSize::from_mib(1);
        let base = BroadcastProblem::from_grid(&grid, ClusterId(0), message);
        let perturbations = vec![Perturbation::AlternateRoot { root: ClusterId(5) }];
        let mut engine = ScheduleEngine::new();
        for kind in HeuristicKind::all() {
            let (_, log) = engine.schedule_logged(&base, kind);
            let perturbed = BroadcastProblem::from_grid(&grid, ClusterId(5), message);
            let cold = engine.schedule(&perturbed, kind);
            let warm = engine.reschedule_perturbed(&perturbed, &log, &perturbations);
            assert_events_bit_identical(&warm.events, &cold.events, kind.name());
        }
    }

    /// The pricing pass hands over the chosen slot's events from its one run
    /// per candidate: cold and warm, best and pinned, they equal a separate
    /// cold schedule of the chosen kind, and the makespans equal the batched
    /// ones.
    #[test]
    fn price_hands_over_the_chosen_slots_events() {
        let grid = random_grid_for(23, 9);
        let base = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
        let chain = [Perturbation::DegradeSite {
            first: ClusterId(4),
            span: 3,
            factor: 8.0,
        }];
        let perturbed = base.perturbed(&grid, &chain);
        let delta = ReplayDelta::from_perturbations(grid.num_clusters(), &chain);
        let kinds = HeuristicKind::all();
        let mut engine = ScheduleEngine::new();
        let (_, logs) = engine.makespans_logged(&base, &kinds);
        let mut expected = Vec::new();
        engine.makespans_into(&perturbed, &kinds, &mut expected);
        let bits = |ts: &[Time]| -> Vec<u64> { ts.iter().map(|t| t.as_secs().to_bits()).collect() };
        for pin in std::iter::once(None).chain((0..kinds.len()).map(Some)) {
            let cold = engine.price(&perturbed, Candidates::Cold(&kinds), pin);
            let warm = Candidates::Warm {
                logs: &logs,
                delta: &delta,
            };
            let warm = engine.price(&perturbed, warm, pin);
            assert_eq!(Some(cold.slot), pin.or(best_slot(&expected)));
            assert_eq!(cold.logs.as_ref().map(Vec::len), Some(kinds.len()));
            assert!(warm.logs.is_none());
            let schedule = engine.schedule(&perturbed, kinds[cold.slot]);
            for (priced, what) in [(&cold, "cold"), (&warm, "warm")] {
                assert_eq!(priced.slot, cold.slot, "{what} {pin:?}");
                assert_eq!(bits(&priced.makespans), bits(&expected), "{what} {pin:?}");
                assert_events_bit_identical(
                    &priced.events,
                    &schedule.events,
                    &format!("{what} {pin:?}"),
                );
            }
        }
    }

    #[test]
    fn best_slot_breaks_ties_to_the_earlier_slot() {
        let ms = Time::from_millis;
        assert_eq!(best_slot(&[ms(3.0), ms(1.0), ms(1.0), ms(2.0)]), Some(1));
        assert_eq!(best_slot(&[ms(2.0)]), Some(0));
        assert_eq!(best_slot(&[]), None);
    }

    /// An unperturbed replay is a pure prefix replay: every commit verbatim,
    /// nothing repaired, nothing recomputed.
    #[test]
    fn clean_replay_replays_every_commit_verbatim() {
        let grid = random_grid_for(17, 21);
        let message = MessageSize::from_mib(1);
        let base = BroadcastProblem::from_grid(&grid, ClusterId(0), message);
        let mut engine = ScheduleEngine::new();
        for kind in HeuristicKind::all() {
            let (_, log) = engine.schedule_logged(&base, kind);
            engine.take_telemetry();
            let warm = engine.reschedule_perturbed(&base, &log, &[]);
            let t = engine.take_telemetry();
            assert_eq!(t.replayed_commits, warm.events.len() as u64, "{kind}");
            assert_eq!(t.repaired_commits, 0, "{kind}");
            assert_eq!(t.recomputed_commits, 0, "{kind}");
        }
    }

    /// Deletes `failed`'s row and column from `problem` with the monotone
    /// cluster-id remap (ids above `failed` shift down by one).
    fn reduced_excluding(problem: &BroadcastProblem, failed: ClusterId) -> BroadcastProblem {
        use gridcast_topology::SquareMatrix;
        let n = problem.num_clusters();
        let keep: Vec<usize> = (0..n).filter(|&c| c != failed.index()).collect();
        let m = keep.len();
        let mut latency = SquareMatrix::filled(m, Time::ZERO);
        let mut gap = SquareMatrix::filled(m, Time::ZERO);
        let mut intra = Vec::with_capacity(m);
        for (i, &a) in keep.iter().enumerate() {
            intra.push(problem.intra_time(ClusterId(a)));
            for (j, &b) in keep.iter().enumerate() {
                latency[(i, j)] = problem.latency(ClusterId(a), ClusterId(b));
                gap[(i, j)] = problem.gap(ClusterId(a), ClusterId(b));
            }
        }
        let root = keep
            .iter()
            .position(|&c| c == problem.root.index())
            .expect("root survives");
        BroadcastProblem::from_parts(ClusterId(root), problem.message, latency, gap, intra)
    }

    /// Conformance contract of the warm-start entry point: with an empty
    /// committed prefix and `resume_at == 0`, `reschedule_excluding` is
    /// bit-identical (modulo the monotone id remap) to a cold engine run on
    /// the reduced problem with the failed cluster deleted — for every
    /// heuristic and every possible failed cluster.
    #[test]
    fn reschedule_excluding_matches_cold_run_on_reduced_problem() {
        for (clusters, seed) in [(9usize, 11u64), (17, 23)] {
            let problem = random_problem(clusters, seed);
            let mut engine = ScheduleEngine::new();
            for kind in HeuristicKind::all() {
                for f in 1..clusters {
                    let failed = ClusterId(f);
                    let warm = engine.reschedule_excluding(&problem, kind, failed, &[], Time::ZERO);
                    let reduced = reduced_excluding(&problem, failed);
                    let cold = engine.schedule(&reduced, kind);
                    assert!(cold.validate(&reduced).is_ok());
                    let remap = |c: ClusterId| {
                        if c.index() < f {
                            c.index()
                        } else {
                            c.index() + 1
                        }
                    };
                    assert_eq!(warm.events.len(), cold.events.len(), "{kind} failed={f}");
                    for (w, c) in warm.events.iter().zip(&cold.events) {
                        assert_eq!(w.sender.index(), remap(c.sender), "{kind} failed={f}");
                        assert_eq!(w.receiver.index(), remap(c.receiver), "{kind} failed={f}");
                        assert_eq!(
                            w.start.as_secs().to_bits(),
                            c.start.as_secs().to_bits(),
                            "{kind} failed={f}"
                        );
                        assert_eq!(
                            w.arrival.as_secs().to_bits(),
                            c.arrival.as_secs().to_bits(),
                            "{kind} failed={f}"
                        );
                    }
                    assert_eq!(
                        warm.makespan_excluding(failed).as_secs().to_bits(),
                        cold.makespan().as_secs().to_bits(),
                        "{kind} failed={f}"
                    );
                }
            }
        }
    }

    /// Every surviving cluster is covered exactly once by the spliced
    /// schedule, repair sends start no earlier than `resume_at`, causality
    /// holds across the splice boundary, and the failed cluster appears in
    /// no repair event.
    #[test]
    fn reschedule_excluding_splices_consistent_repairs() {
        let problem = random_problem(14, 7);
        let mut engine = ScheduleEngine::new();
        for kind in HeuristicKind::all() {
            let full = engine.schedule(&problem, kind);
            // Crash a relay (an interior sender) at the median arrival time.
            let mut arrivals: Vec<Time> = full.events.iter().map(|e| e.arrival).collect();
            arrivals.sort();
            let crash_at = arrivals[arrivals.len() / 2];
            let failed = full
                .events
                .iter()
                .map(|e| e.sender)
                .find(|&s| s != problem.root)
                .unwrap_or(full.events.last().unwrap().receiver);
            let committed: Vec<ScheduleEvent> = full
                .events
                .iter()
                .copied()
                .filter(|e| e.arrival <= crash_at)
                .collect();
            let n_committed = committed.len();
            let spliced = engine.reschedule_excluding(&problem, kind, failed, &committed, crash_at);
            // The committed prefix is preserved verbatim.
            assert_eq!(&spliced.events[..n_committed], &committed[..], "{kind}");
            let mut received = vec![0usize; problem.num_clusters()];
            let mut ready = vec![Time::INFINITY; problem.num_clusters()];
            ready[problem.root.index()] = Time::ZERO;
            for (idx, e) in spliced.events.iter().enumerate() {
                if idx >= n_committed {
                    assert_ne!(e.sender, failed, "{kind}: dead cluster transmits");
                    assert_ne!(e.receiver, failed, "{kind}: repair delivers to the dead");
                    assert!(
                        e.start >= crash_at,
                        "{kind}: repair starts before detection"
                    );
                }
                assert!(
                    ready[e.sender.index()].is_finite() && e.start >= ready[e.sender.index()],
                    "{kind}: causality violated at event {idx}"
                );
                received[e.receiver.index()] += 1;
                ready[e.receiver.index()] = e.arrival;
            }
            for (c, &count) in received.iter().enumerate() {
                if c == problem.root.index() {
                    assert_eq!(count, 0, "{kind}");
                } else if c == failed.index() {
                    // The prefix may have delivered to the relay before it
                    // died; the repair never does (asserted above).
                    assert!(count <= 1, "{kind}");
                } else {
                    assert_eq!(count, 1, "{kind}: cluster {c} coverage");
                }
            }
        }
    }

    /// The acceptance scenario: when a relay dies mid-broadcast after
    /// delivering to part of its subtree, resplicing onto the surviving
    /// prefix strictly beats a naive from-scratch restart at the crash
    /// instant — the survivors it already fed act as extra repair senders.
    #[test]
    fn resplice_strictly_beats_naive_restart() {
        let problem = random_problem(20, 5);
        let mut engine = ScheduleEngine::new();
        let mut strict_wins = 0usize;
        for kind in HeuristicKind::all() {
            let full = engine.schedule(&problem, kind);
            let Some(relay) = full
                .events
                .iter()
                .map(|e| e.sender)
                .find(|&s| s != problem.root)
            else {
                continue;
            };
            // Crash right after the relay's first delivery completes, so at
            // least one of its children survives holding the message.
            let crash_at = full
                .events
                .iter()
                .find(|e| e.sender == relay)
                .expect("relay sends")
                .arrival;
            let committed: Vec<ScheduleEvent> = full
                .events
                .iter()
                .copied()
                .filter(|e| e.arrival <= crash_at)
                .collect();
            assert!(
                committed.iter().any(|e| e.sender != problem.root),
                "{kind}: prefix must contain a relay delivery"
            );
            let resplice = engine
                .reschedule_excluding(&problem, kind, relay, &committed, crash_at)
                .makespan_excluding(relay);
            let naive = engine
                .reschedule_excluding(&problem, kind, relay, &[], crash_at)
                .makespan_excluding(relay);
            assert!(
                resplice <= naive,
                "{kind}: resplice {resplice} worse than naive restart {naive}"
            );
            if resplice < naive {
                strict_wins += 1;
            }
        }
        assert!(
            strict_wins > 0,
            "resplice never strictly beat the naive restart on any heuristic"
        );
    }

    #[test]
    fn engine_reuse_is_deterministic() {
        let mut engine = ScheduleEngine::new();
        let p = random_problem(12, 3);
        let first = engine.schedule(&p, HeuristicKind::EcefLaMax);
        // Interleave other problems and heuristics, then repeat.
        let q = random_problem(30, 4);
        for kind in HeuristicKind::all() {
            let s = engine.schedule(&q, kind);
            assert!(s.validate(&q).is_ok(), "{kind}");
        }
        let second = engine.schedule(&p, HeuristicKind::EcefLaMax);
        assert_eq!(first, second);
    }

    #[test]
    fn makespan_matches_schedule() {
        let mut engine = ScheduleEngine::new();
        for clusters in [2usize, 5, 17, 40] {
            let p = random_problem(clusters, clusters as u64);
            for kind in HeuristicKind::all() {
                let schedule = engine.schedule(&p, kind);
                let fast = engine.makespan(&p, kind);
                assert_eq!(schedule.makespan(), fast, "{kind} on {clusters}");
            }
        }
    }

    #[test]
    fn schedule_all_covers_every_kind_in_order() {
        let mut engine = ScheduleEngine::new();
        let p = random_problem(9, 1);
        let kinds = HeuristicKind::all();
        let schedules = engine.schedule_all(&p, &kinds);
        assert_eq!(schedules.len(), kinds.len());
        for (kind, schedule) in kinds.iter().zip(&schedules) {
            assert_eq!(schedule.heuristic, kind.name());
            assert!(schedule.validate(&p).is_ok());
        }
        // The batched buffer variant agrees.
        let mut buffer = Vec::new();
        engine.schedule_all_into(&p, &kinds, &mut buffer);
        assert_eq!(buffer, schedules);
        let mut spans = Vec::new();
        engine.makespans_into(&p, &kinds, &mut spans);
        let expected: Vec<_> = schedules.iter().map(|s| s.makespan()).collect();
        assert_eq!(spans, expected);
    }

    #[test]
    fn candidate_row_width_is_a_pure_performance_knob() {
        // Schedules are byte-identical for any K ≥ 1: the row head is exact
        // between commits and the rescan fallback rebuilds exact rows, so
        // shrinking or growing the row only moves work between repairs and
        // rescans. This is what licenses `ScheduleEngine::with_k_best`.
        let mut reference = ScheduleEngine::new();
        for clusters in [2usize, 13, 48, 96] {
            let p = random_problem(clusters, 7000 + clusters as u64);
            for k in [1usize, 2, 8, 32] {
                let mut probe = ScheduleEngine::with_k_best(k);
                for kind in HeuristicKind::all() {
                    let a = reference.schedule(&p, kind);
                    let b = probe.schedule(&p, kind);
                    assert_eq!(a, b, "{kind} diverges at K={k} on {clusters} clusters");
                    for (x, y) in a.events.iter().zip(&b.events) {
                        assert_eq!(x.start.as_secs().to_bits(), y.start.as_secs().to_bits());
                        assert_eq!(x.arrival.as_secs().to_bits(), y.arrival.as_secs().to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn shared_read_paths_are_sync_and_engines_are_send() {
        // The what-if worker pool shares `&Grid`/`&BroadcastProblem` across
        // scoped threads and moves warm engines into workers; this pins the
        // auto-trait surface those pools rely on (a policy gaining an
        // un-Send/un-Sync field would fail to compile here first).
        fn shared<T: Sync + Send>() {}
        fn movable<T: Send>() {}
        shared::<gridcast_topology::Grid>();
        shared::<BroadcastProblem>();
        shared::<Schedule>();
        shared::<EdgeCosts>();
        shared::<TransferSet>();
        movable::<ScheduleEngine>();
    }

    #[test]
    fn uniform_edge_costs_reproduce_the_plain_path_bit_for_bit() {
        let mut engine = ScheduleEngine::new();
        for clusters in [2usize, 9, 33] {
            let p = random_problem(clusters, 100 + clusters as u64);
            let costs = EdgeCosts::uniform(&p);
            for kind in HeuristicKind::all() {
                let plain = engine.schedule(&p, kind);
                let costed = engine.schedule_costed(&p, &costs, kind);
                assert_eq!(plain, costed, "{kind} on {clusters} clusters");
                for (a, b) in plain.events.iter().zip(&costed.events) {
                    assert_eq!(a.start.as_secs().to_bits(), b.start.as_secs().to_bits());
                    assert_eq!(a.arrival.as_secs().to_bits(), b.arrival.as_secs().to_bits());
                }
            }
        }
    }

    #[test]
    fn per_edge_costs_change_committed_timings() {
        let p = random_problem(6, 42);
        // Double every gap: the committed schedule must slow down accordingly.
        let n = p.num_clusters();
        let mut costs = EdgeCosts::uniform(&p);
        for s in 0..n {
            for r in 0..n {
                costs.gap[s * n + r] = costs.gap[s * n + r] * 2.0;
            }
        }
        let mut engine = ScheduleEngine::new();
        let plain = engine.schedule(&p, HeuristicKind::Ecef);
        let costed = engine.schedule_costed(&p, &costs, HeuristicKind::Ecef);
        assert!(costed.makespan() > plain.makespan());
    }

    #[test]
    fn transfer_scheduler_serialises_interfaces_and_respects_gap_sums() {
        // Three clusters, two transfers sharing cluster 0's interface: they
        // must not overlap, and the second starts when the first's gap ends.
        let mut set = TransferSet::new(3);
        let mk = |from: usize, to: usize, gap_ms: f64, lat_ms: f64| Transfer {
            from: ClusterId(from),
            to: ClusterId(to),
            payload: MessageSize::from_kib(1),
            gap: Time::from_millis(gap_ms),
            latency: Time::from_millis(lat_ms),
        };
        set.push(mk(0, 1, 10.0, 1.0));
        set.push(mk(0, 2, 10.0, 5.0));
        let mut engine = ScheduleEngine::new();
        let schedule = engine.schedule_transfers(&set);
        assert_eq!(schedule.transfers.len(), 2);
        // Earliest completion first: 0→1 (11 ms) before 0→2 (15 ms).
        assert_eq!(schedule.transfers[0].to, ClusterId(1));
        assert_eq!(schedule.transfers[1].start, Time::from_millis(10.0));
        assert_eq!(schedule.transfers[1].arrival, Time::from_millis(25.0));
        assert_eq!(schedule.interface_free[0], Time::from_millis(20.0));
        // Receivers' interfaces were occupied too.
        assert_eq!(schedule.interface_free[1], Time::from_millis(10.0));
        assert_eq!(schedule.last_arrival[1], Time::from_millis(11.0));
        let local = [Time::from_millis(3.0), Time::ZERO, Time::ZERO];
        assert_eq!(
            schedule.makespan_with_local(&local),
            Time::from_millis(25.0)
        );
    }

    #[test]
    fn transfer_scheduler_is_deterministic_across_insertion_orders() {
        let p = random_problem(8, 7);
        let n = p.num_clusters();
        let mut forward = TransferSet::new(n);
        let mut reversed = Vec::new();
        for s in 0..n {
            for r in 0..n {
                if s == r {
                    continue;
                }
                let t = Transfer {
                    from: ClusterId(s),
                    to: ClusterId(r),
                    payload: p.message,
                    gap: p.gap(ClusterId(s), ClusterId(r)),
                    latency: p.latency(ClusterId(s), ClusterId(r)),
                };
                forward.push(t);
                reversed.push(t);
            }
        }
        let mut backward = TransferSet::new(n);
        for t in reversed.into_iter().rev() {
            backward.push(t);
        }
        let mut engine = ScheduleEngine::new();
        let a = engine.schedule_transfers(&forward);
        let b = engine.schedule_transfers(&backward);
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.interface_free, b.interface_free);
    }

    #[test]
    fn transfer_heap_is_byte_identical_to_the_quadratic_oracle() {
        // Mixed payload sizes on a random grid: the lazy-invalidation heap
        // must reproduce the O(T²) oracle exactly — same commit order, same
        // float bit patterns.
        for clusters in [2usize, 5, 11, 23] {
            let p = random_problem(clusters, 300 + clusters as u64);
            let mut set = TransferSet::new(clusters);
            for s in 0..clusters {
                for r in 0..clusters {
                    if s == r {
                        continue;
                    }
                    let payload = MessageSize::from_kib(1 + ((s * 7 + r * 3) % 64) as u64);
                    set.push(Transfer {
                        from: ClusterId(s),
                        to: ClusterId(r),
                        payload,
                        gap: p.gap(ClusterId(s), ClusterId(r)) * (1.0 + (r % 5) as f64 * 0.1),
                        latency: p.latency(ClusterId(s), ClusterId(r)),
                    });
                }
            }
            let mut engine = ScheduleEngine::new();
            let fast = engine.schedule_transfers(&set);
            let oracle = engine.schedule_transfers_quadratic(&set);
            assert_eq!(fast.transfers.len(), oracle.transfers.len());
            for (a, b) in fast.transfers.iter().zip(&oracle.transfers) {
                assert_eq!(a.from, b.from);
                assert_eq!(a.to, b.to);
                assert_eq!(a.start.as_secs().to_bits(), b.start.as_secs().to_bits());
                assert_eq!(a.arrival.as_secs().to_bits(), b.arrival.as_secs().to_bits());
            }
            assert_eq!(fast.interface_free, oracle.interface_free);
            assert_eq!(fast.last_arrival, oracle.last_arrival);
        }
    }

    #[test]
    fn release_times_gate_the_exchange_and_both_paths_agree() {
        let mut set = TransferSet::new(3);
        let mk = |from: usize, to: usize, gap_ms: f64, lat_ms: f64| Transfer {
            from: ClusterId(from),
            to: ClusterId(to),
            payload: MessageSize::from_kib(1),
            gap: Time::from_millis(gap_ms),
            latency: Time::from_millis(lat_ms),
        };
        set.push(mk(0, 1, 10.0, 1.0));
        set.push(mk(2, 1, 4.0, 1.0));
        let release = [Time::from_millis(50.0), Time::ZERO, Time::ZERO];
        let mut engine = ScheduleEngine::new();
        let fast = engine.schedule_transfers_from(&set, &release);
        let oracle = engine.schedule_transfers_quadratic_from(&set, &release);
        assert_eq!(fast, oracle);
        // Cluster 2 is free immediately; cluster 0's send waits for its
        // release.
        assert_eq!(fast.transfers[0].from, ClusterId(2));
        assert_eq!(fast.transfers[0].start, Time::ZERO);
        assert_eq!(fast.transfers[1].from, ClusterId(0));
        assert_eq!(fast.transfers[1].start, Time::from_millis(50.0));
    }

    #[test]
    fn events_accessor_exposes_last_run() {
        let mut engine = ScheduleEngine::new();
        let p = random_problem(6, 9);
        let schedule = engine.schedule(&p, HeuristicKind::Fef);
        assert_eq!(engine.events(), schedule.events.as_slice());
    }

    #[test]
    fn two_cluster_problems_work() {
        let mut engine = ScheduleEngine::new();
        let p = random_problem(2, 5);
        for kind in HeuristicKind::all() {
            let s = engine.schedule(&p, kind);
            assert_eq!(s.num_transfers(), 1, "{kind}");
        }
    }

    #[test]
    fn telemetry_counts_are_consistent() {
        let mut engine = ScheduleEngine::new();
        let p = random_problem(60, 11);
        engine.take_telemetry();
        for kind in HeuristicKind::all() {
            let _ = engine.schedule(&p, kind);
        }
        let t = engine.take_telemetry();
        // 7 heuristics x 59 transfers each.
        assert_eq!(t.rounds, 7 * 59);
        // Every invalidation is resolved exactly one way.
        assert_eq!(
            t.invalidations,
            t.second_best_hits + t.promotions + t.rescans
        );
        // Time-sensitive policies on a 60-cluster grid invalidate plenty, and
        // the runner-up entry must absorb most of it.
        assert!(t.invalidations > 0);
        assert!(
            t.repair_rate() >= 0.5,
            "runner-up repairs only {:.1}% of invalidations",
            t.repair_rate() * 100.0
        );
        // Telemetry resets on take.
        assert_eq!(engine.telemetry(), EngineTelemetry::default());
    }
}
