//! Grid-aware scheduling for the other collective patterns named in the paper's
//! conclusion: scatter (direct and relay-capable) and all-to-all.
//!
//! The paper closes with: *"We are particularly interested on the development of
//! efficient communication schedules for other communication patterns like
//! scatter and alltoall."* This module carries the broadcast formalism over to
//! the personalised-data case, in three layers:
//!
//! * **Direct scatter** ([`ScatterProblem`]): the MagPIe assumption — the
//!   inter-cluster level is a sequence of direct sends from the root, and the
//!   only degree of freedom is their **order**. Sending cluster `i`'s aggregate
//!   block costs the root `g_{r,i}(S_i)` of exclusive interface time, and the
//!   cluster then needs `L_{r,i} + T^{scatter}_i` more before it is done.
//!   Ordering the sends by **non-increasing tail** (`latency + local scatter
//!   time`) is the classic "largest delivery time first" rule and is provably
//!   optimal for this one-machine problem;
//!   [`ScatterOrdering::LongestTailFirst`] implements it, verified against
//!   brute-force enumeration.
//!
//! * **Relay-capable scatter** ([`RelayScatterProblem`]): the MagPIe assumption
//!   is only about *bytes* — the root pushes the same total either way — but it
//!   ignores per-message cost and link asymmetry. A coordinator that has
//!   already received its cluster's aggregate may forward **other clusters'
//!   blocks** onward: the root hands a relay one concatenated message (priced
//!   `g(Σ blocks)` — one per-message cost instead of several) and the relay's
//!   own, possibly much better, links deliver the rest. The schedule is a tree
//!   with per-sender send orders, built greedily by the engine over per-edge
//!   payload prices ([`EdgeCosts`]) and then *retimed* exactly, pricing every
//!   edge by the concatenation of the blocks its subtree carries.
//!
//! * **All-to-all** ([`alltoall_schedule`]): the exchange decomposes into one
//!   transfer per ordered cluster pair (`S_i · S_j · m` bytes each), placed on
//!   the clusters' single network interfaces by the engine's
//!   earliest-completion-first transfer scheduler
//!   ([`ScheduleEngine::schedule_transfers`](crate::ScheduleEngine::schedule_transfers)).
//!   [`alltoall_estimate`] remains as the analytic **lower bound** the
//!   schedule is checked against.
//!
//! * **Gather** ([`RelayGatherProblem`]): the exact **time-reversed dual** of
//!   the relay-capable scatter — the mirrored scatter is scheduled on the
//!   [transposed grid](gridcast_topology::Grid::transposed) and reflected
//!   about its makespan, so every edge is priced for the direction the
//!   concatenation actually travels (child → parent) and the makespans match
//!   bit for bit.
//!
//! * **Allgather** ([`allgather_schedule`]): the receive-side mirror of the
//!   exchange machinery — one aggregate-block transfer per ordered cluster
//!   pair on the same transfer scheduler, with each interface released only
//!   after its cluster's local gather and the full concatenation
//!   redistributed locally afterwards; [`allgather_estimate`] is the matching
//!   lower bound (send *and* receive interface time, one terminal latency).
//!
//! Scheduling goes through the same pattern-agnostic
//! [`ScheduleEngine`](crate::ScheduleEngine) as the broadcast heuristics: a
//! direct scatter is embedded as a broadcast problem whose non-root links are
//! infinitely expensive ([`ScatterProblem::as_broadcast_problem`]), the
//! relay-capable scatter as one whose edges are payload-priced, and each
//! ordering is a tiny [`SelectionPolicy`]. Intra-cluster pattern costs and
//! aggregate block sizes come from the shared [`PatternCost`] trait rather
//! than duplicated formulas.

use crate::engine::{
    with_shared_engine, EdgeCosts, EngineView, ExchangeSchedule, Objective, SelectionPolicy,
    Transfer, TransferSet,
};
use crate::BroadcastProblem;
use gridcast_collectives::{concat_blocks, BroadcastAlgorithm, Pattern, PatternCost};
use gridcast_plogp::{MessageSize, Time};
use gridcast_topology::{ClusterId, Grid, SquareMatrix};
use serde::{Deserialize, Serialize};

/// A scatter problem at the inter-cluster level: the root must push each
/// cluster's aggregate block to that cluster's coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScatterProblem {
    /// The cluster whose coordinator initially holds all blocks.
    pub root: ClusterId,
    /// Per-machine block size.
    pub per_node: MessageSize,
    /// For every cluster: the gap the root pays to push its aggregate block.
    pub root_gap: Vec<Time>,
    /// For every cluster: latency from the root.
    pub latency: Vec<Time>,
    /// For every cluster: the time its coordinator needs to scatter the block
    /// locally once it holds it. Zero for singletons (nothing to distribute);
    /// the **root's entry is filled and used** — [`ScatterProblem::from_grid`]
    /// models the root's own local scatter like any other cluster's, and
    /// [`ScatterProblem::makespan`] charges it once the root's interface has
    /// finished pushing every remote block (the root serves the wide-area
    /// sends first, exactly like the broadcast formalism's "forward, then
    /// broadcast locally" rule).
    pub local_scatter: Vec<Time>,
}

impl ScatterProblem {
    /// Builds the inter-cluster scatter problem for `grid`, distributing
    /// `per_node` bytes to every machine from the coordinator of `root`.
    pub fn from_grid(grid: &Grid, root: ClusterId, per_node: MessageSize) -> Self {
        let n = grid.num_clusters();
        assert!(root.index() < n, "root cluster outside the grid");
        let mut root_gap = vec![Time::ZERO; n];
        let mut latency = vec![Time::ZERO; n];
        let mut local_scatter = vec![Time::ZERO; n];
        for id in grid.cluster_ids() {
            let cluster = grid.cluster(id);
            let aggregate = Pattern::Scatter.aggregate_bytes(cluster.size, per_node);
            if id != root {
                root_gap[id.index()] = grid.gap(root, id, aggregate);
                latency[id.index()] = grid.latency(root, id);
            }
            if let Some(plogp) = cluster.intra.plogp() {
                local_scatter[id.index()] =
                    Pattern::Scatter.intra_time(plogp, cluster.size, per_node);
            }
        }
        ScatterProblem {
            root,
            per_node,
            root_gap,
            latency,
            local_scatter,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.root_gap.len()
    }

    /// The "tail" of a cluster: what still has to happen after the root finished
    /// pushing its block (`L + local scatter`).
    pub fn tail(&self, cluster: ClusterId) -> Time {
        self.latency[cluster.index()] + self.local_scatter[cluster.index()]
    }

    /// Makespan of scattering in the given send order: the root pushes the
    /// aggregate blocks back-to-back in that order, and every cluster finishes
    /// its local scatter `tail` after its block left the root; the root's own
    /// local scatter starts once its interface is free.
    pub fn makespan(&self, order: &[ClusterId]) -> Time {
        let mut clock = Time::ZERO;
        let mut makespan = Time::ZERO;
        for &cluster in order {
            debug_assert_ne!(cluster, self.root, "the root does not send to itself");
            clock += self.root_gap[cluster.index()];
            makespan = makespan.max(clock + self.tail(cluster));
        }
        // The root scatters locally once it has finished pushing everything.
        makespan.max(clock + self.local_scatter[self.root.index()])
    }

    /// Every non-root cluster, in identifier order.
    pub fn receivers(&self) -> Vec<ClusterId> {
        (0..self.num_clusters())
            .map(ClusterId)
            .filter(|&c| c != self.root)
            .collect()
    }

    /// Embeds the scatter into the broadcast formalism consumed by the
    /// [`ScheduleEngine`](crate::ScheduleEngine): only the root can send (every
    /// other link is infinitely expensive), the per-receiver gap is the cost of
    /// pushing that cluster's aggregate block, and the intra-cluster time is
    /// the local scatter. Relaying is thereby structurally excluded — exactly
    /// the MagPIe behaviour this module models.
    pub fn as_broadcast_problem(&self) -> BroadcastProblem {
        let n = self.num_clusters();
        let mut latency = SquareMatrix::filled(n, Time::INFINITY);
        let mut gap = SquareMatrix::filled(n, Time::INFINITY);
        for i in 0..n {
            latency[(i, i)] = Time::ZERO;
            gap[(i, i)] = Time::ZERO;
        }
        for j in 0..n {
            if j != self.root.index() {
                latency[(self.root.index(), j)] = self.latency[j];
                gap[(self.root.index(), j)] = self.root_gap[j];
            }
        }
        BroadcastProblem::from_parts(
            self.root,
            self.per_node,
            latency,
            gap,
            self.local_scatter.clone(),
        )
    }
}

/// The send orderings evaluated for the inter-cluster scatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScatterOrdering {
    /// Identifier order — the grid-unaware baseline (MagPIe's behaviour).
    ListOrder,
    /// Non-increasing tail (`L + local scatter`): the grid-aware rule, analogous
    /// to ECEF-LAT's "serve the clusters with the most remaining work first".
    LongestTailFirst,
    /// Non-decreasing tail — the pessimal ordering, kept for ablation.
    ShortestTailFirst,
}

impl ScatterOrdering {
    /// The send order this policy produces, scheduled by the shared
    /// pattern-agnostic engine (see [`ScatterTailPolicy`]): each round picks
    /// the receiver optimising the policy's tail objective, which reproduces
    /// the corresponding stable sort exactly (ties fall back to cluster-id
    /// order).
    pub fn order(&self, problem: &ScatterProblem) -> Vec<ClusterId> {
        let broadcast = problem.as_broadcast_problem();
        let mut policy = ScatterTailPolicy {
            root: problem.root,
            ordering: *self,
        };
        with_shared_engine(|engine| {
            engine.schedule_with(&broadcast, &mut policy);
            engine.events().iter().map(|e| e.receiver).collect()
        })
    }

    /// The makespan this policy achieves on `problem`.
    pub fn makespan(&self, problem: &ScatterProblem) -> Time {
        problem.makespan(&self.order(problem))
    }
}

/// [`SelectionPolicy`] realising a [`ScatterOrdering`] on the engine: only
/// root-outgoing edges are admissible, and the receiver bias is the cluster's
/// *tail* (`L + local scatter`), minimised or maximised depending on the
/// ordering. Demonstrates that the engine serves patterns beyond broadcast —
/// the same round loop, candidate cache and tie-breaking drive the scatter.
#[derive(Debug, Clone, Copy)]
pub struct ScatterTailPolicy {
    root: ClusterId,
    ordering: ScatterOrdering,
}

impl SelectionPolicy for ScatterTailPolicy {
    fn name(&self) -> &str {
        match self.ordering {
            ScatterOrdering::ListOrder => "Scatter(list)",
            ScatterOrdering::LongestTailFirst => "Scatter(longest-tail)",
            ScatterOrdering::ShortestTailFirst => "Scatter(shortest-tail)",
        }
    }

    fn edge_score(&self, _view: &EngineView<'_>, sender: ClusterId, _receiver: ClusterId) -> Time {
        if sender == self.root {
            Time::ZERO
        } else {
            Time::INFINITY
        }
    }

    fn receiver_bias(&mut self, view: &EngineView<'_>, receiver: ClusterId) -> Time {
        match self.ordering {
            ScatterOrdering::ListOrder => Time::ZERO,
            ScatterOrdering::LongestTailFirst | ScatterOrdering::ShortestTailFirst => {
                let problem = view.problem();
                problem.latency(self.root, receiver) + problem.intra_time(receiver)
            }
        }
    }

    fn objective(&self) -> Objective {
        match self.ordering {
            ScatterOrdering::LongestTailFirst => Objective::Maximize,
            ScatterOrdering::ListOrder | ScatterOrdering::ShortestTailFirst => Objective::Minimize,
        }
    }

    fn sender_time_sensitive(&self) -> bool {
        false
    }
}

/// Analytic **lower bound** on a personalised all-to-all in which every machine
/// exchanges `per_pair` bytes with every other machine: each ordered cluster
/// pair `(i, j)` moves `size_i · size_j · per_pair` bytes over its wide-area
/// link, so a cluster's single network interface must serialise the gaps of
/// **both** its outgoing and its incoming transfers (send *and* receive
/// interface time — the directed links may be asymmetric, so the two
/// directions are priced separately). Latencies pipeline behind the gaps and
/// only a **single terminal latency** is charged: the cluster's receives
/// serialise on its interface, so its last arrival cannot beat the summed
/// receive gaps plus the cheapest incoming latency. Each cluster additionally
/// runs its local all-to-all after its wide-area traffic drains. The estimate
/// is the maximum over clusters of these per-cluster bounds.
///
/// Every schedule produced by [`alltoall_schedule`] respects this figure (the
/// transfer scheduler uses the same single-port interface model), which the
/// tests assert; use the schedule for executable timings and this estimate to
/// compare topologies cheaply.
pub fn alltoall_estimate(grid: &Grid, per_pair: MessageSize) -> Time {
    let pair_bytes = |a: ClusterId, b: ClusterId| {
        MessageSize::from_bytes(
            per_pair.as_bytes() * u64::from(grid.cluster(a).size) * u64::from(grid.cluster(b).size),
        )
    };
    exchange_estimate(
        grid,
        pair_bytes,
        |_| Time::ZERO,
        |i| {
            let ci = grid.cluster(i);
            match ci.intra.plogp() {
                Some(plogp) => Pattern::AllToAll.intra_time(plogp, ci.size, per_pair),
                None => Time::ZERO,
            }
        },
    )
}

/// The per-cluster interface bound shared by [`alltoall_estimate`] and
/// [`allgather_estimate`] — the skeleton the PR-3 send/receive-inversion fix
/// showed must exist exactly once: cluster `i`'s single interface, available
/// only after `lead_in(i)`, serialises the gaps of its outgoing **and**
/// incoming transfers (`payload(from, to)` bytes per ordered pair, each
/// priced on its own directed link); its last arrival cannot beat the summed
/// receive gaps plus one (the cheapest) incoming latency; `tail(i)` runs
/// after the traffic drains. Returns the maximum over clusters.
fn exchange_estimate(
    grid: &Grid,
    mut payload: impl FnMut(ClusterId, ClusterId) -> MessageSize,
    mut lead_in: impl FnMut(ClusterId) -> Time,
    mut tail: impl FnMut(ClusterId) -> Time,
) -> Time {
    let mut worst = Time::ZERO;
    for i in grid.cluster_ids() {
        let mut interface = Time::ZERO;
        let mut receive_gaps = Time::ZERO;
        let mut min_in_latency = Time::INFINITY;
        for j in grid.cluster_ids() {
            if i == j {
                continue;
            }
            let in_gap = grid.gap(j, i, payload(j, i));
            interface += grid.gap(i, j, payload(i, j)) + in_gap;
            receive_gaps += in_gap;
            min_in_latency = min_in_latency.min(grid.latency(j, i));
        }
        let mut busy = interface;
        if min_in_latency.is_finite() {
            // The last incoming payload arrives no earlier than all receive
            // gaps plus one (the cheapest) latency.
            busy = busy.max(receive_gaps + min_in_latency);
        }
        worst = worst.max(lead_in(i) + busy + tail(i));
    }
    worst
}

/// Convenience: the broadcast problem's root reused for a scatter on the same
/// grid — handy when an application alternates both collectives.
pub fn scatter_problem_like(broadcast: &BroadcastProblem, grid: &Grid) -> ScatterProblem {
    ScatterProblem::from_grid(grid, broadcast.root, broadcast.message)
}

/// A scatter problem whose inter-cluster level may **relay**: a coordinator
/// that holds a concatenation of blocks forwards other clusters' blocks
/// onward instead of leaving every delivery to the root.
///
/// The schedule is a rooted tree with per-sender send orders. The message a
/// sender pushes towards child `c` is the concatenation of the blocks of `c`'s
/// whole subtree, priced by the link's `g(m)` for that concatenated size — one
/// per-message cost instead of one per block, which is exactly what the MagPIe
/// "relaying never helps" argument ignores (it counts bytes, not messages, and
/// assumes symmetric links).
///
/// Unlike [`ScatterProblem`], this type keeps the [`Grid`] so edges can be
/// priced for arbitrary concatenations.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayScatterProblem {
    /// The cluster whose coordinator initially holds all blocks.
    pub root: ClusterId,
    /// Per-machine block size.
    pub per_node: MessageSize,
    grid: Grid,
    /// Per cluster: its aggregate block (`size · per_node`).
    block: Vec<MessageSize>,
    /// Per cluster: local scatter time once its coordinator holds its block.
    local_scatter: Vec<Time>,
}

/// One inter-cluster transfer of a [`RelaySchedule`], carrying the
/// concatenated blocks of the receiver's subtree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelayEvent {
    /// Cluster whose coordinator pushes the payload.
    pub sender: ClusterId,
    /// Cluster whose coordinator receives it.
    pub receiver: ClusterId,
    /// Concatenated payload: the receiver's block plus every block it will
    /// relay onward.
    pub payload: MessageSize,
    /// When the sender's interface starts pushing.
    pub start: Time,
    /// When the receiver holds the payload: `start + g(payload) + L`.
    pub arrival: Time,
}

/// A fully timed relay-capable scatter schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelaySchedule {
    /// The root cluster.
    pub root: ClusterId,
    /// Inter-cluster transfers in commit order (each sender issues its own
    /// transfers back to back in this order).
    pub events: Vec<RelayEvent>,
    /// Per cluster: when all of its machines hold their blocks (coordinator
    /// forwards first, then scatters locally — the broadcast convention).
    pub completion: Vec<Time>,
    /// Name of the ordering that produced the schedule.
    pub heuristic: String,
}

impl RelaySchedule {
    /// The makespan: the moment every machine holds its block.
    pub fn makespan(&self) -> Time {
        self.completion.iter().copied().max().unwrap_or(Time::ZERO)
    }
}

/// The relay-capable send orderings evaluated for the inter-cluster scatter,
/// realised as [`SelectionPolicy`] impls over payload-priced edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelayOrdering {
    /// Only the root sends — the MagPIe direct scatter expressed in the relay
    /// machinery (its retimed makespan matches [`ScatterProblem::makespan`]
    /// for the same order).
    Direct,
    /// ECEF carried over to per-block payloads: each round commits the
    /// `(sender, receiver)` pair minimising `RT_s + g_{s,r}(S_r) + L_{s,r}`.
    EarliestCompletion,
    /// [`RelayOrdering::EarliestCompletion`] plus the receiver's local scatter
    /// time — the ECEF-LAt analogue, favouring clusters that still have local
    /// work to hide.
    EarliestLocalFinish,
}

impl RelayOrdering {
    /// Display name recorded in produced schedules.
    pub fn name(&self) -> &'static str {
        match self {
            RelayOrdering::Direct => "RelayScatter(direct)",
            RelayOrdering::EarliestCompletion => "RelayScatter(earliest-completion)",
            RelayOrdering::EarliestLocalFinish => "RelayScatter(earliest-local-finish)",
        }
    }
}

/// [`SelectionPolicy`] realising a [`RelayOrdering`] on the engine: edge
/// scores are the payload-priced completion estimates served by the costed
/// view (the engine's per-edge [`EdgeCosts`] path), so a relay with cheap
/// links wins senders away from the root as soon as it is reached.
#[derive(Debug, Clone, Copy)]
pub struct RelayScatterPolicy {
    root: ClusterId,
    ordering: RelayOrdering,
}

impl RelayScatterPolicy {
    /// A policy realising `ordering` for a scatter rooted at `root`.
    pub fn new(root: ClusterId, ordering: RelayOrdering) -> Self {
        RelayScatterPolicy { root, ordering }
    }
}

impl SelectionPolicy for RelayScatterPolicy {
    fn name(&self) -> &str {
        self.ordering.name()
    }

    fn edge_score(&self, view: &EngineView<'_>, sender: ClusterId, receiver: ClusterId) -> Time {
        if self.ordering == RelayOrdering::Direct && sender != self.root {
            return Time::INFINITY;
        }
        view.completion_estimate(sender, receiver)
    }

    fn receiver_bias(&mut self, view: &EngineView<'_>, receiver: ClusterId) -> Time {
        match self.ordering {
            RelayOrdering::EarliestLocalFinish => view.problem().intra_time(receiver),
            _ => Time::ZERO,
        }
    }

    fn uses_receiver_bias(&self) -> bool {
        self.ordering == RelayOrdering::EarliestLocalFinish
    }

    fn edge_score_offset(
        &self,
        _problem: &BroadcastProblem,
        _receiver: ClusterId,
        min_incoming_transfer: Time,
    ) -> Time {
        // Scores are completion estimates `RT_s + g + L`, so every sender's
        // score is bounded below by its ready time plus the receiver's
        // cheapest incoming transfer (precomputed from the costed matrix).
        min_incoming_transfer
    }
}

impl RelayScatterProblem {
    /// Builds the relay-capable scatter problem for `grid`, distributing
    /// `per_node` bytes to every machine from the coordinator of `root`.
    pub fn from_grid(grid: &Grid, root: ClusterId, per_node: MessageSize) -> Self {
        let n = grid.num_clusters();
        assert!(root.index() < n, "root cluster outside the grid");
        let mut block = vec![MessageSize::ZERO; n];
        let mut local_scatter = vec![Time::ZERO; n];
        for id in grid.cluster_ids() {
            let cluster = grid.cluster(id);
            block[id.index()] = Pattern::Scatter.aggregate_bytes(cluster.size, per_node);
            if let Some(plogp) = cluster.intra.plogp() {
                local_scatter[id.index()] =
                    Pattern::Scatter.intra_time(plogp, cluster.size, per_node);
            }
        }
        RelayScatterProblem {
            root,
            per_node,
            grid: grid.clone(),
            block,
            local_scatter,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.block.len()
    }

    /// The aggregate block of one cluster.
    pub fn block(&self, cluster: ClusterId) -> MessageSize {
        self.block[cluster.index()]
    }

    /// The local scatter time of one cluster.
    pub fn local_scatter(&self, cluster: ClusterId) -> Time {
        self.local_scatter[cluster.index()]
    }

    /// The embedding handed to the engine's structure pass: latencies and
    /// intra times are real, while the gap matrix carries the nominal
    /// `per_node` pricing — the per-receiver block prices are supplied
    /// separately through [`RelayScatterProblem::edge_costs`], exercising the
    /// engine's per-edge payload path.
    pub fn as_broadcast_problem(&self) -> BroadcastProblem {
        let n = self.num_clusters();
        let mut latency = SquareMatrix::filled(n, Time::ZERO);
        let mut gap = SquareMatrix::filled(n, Time::ZERO);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                latency[(i, j)] = self.grid.latency(ClusterId(i), ClusterId(j));
                gap[(i, j)] = self.grid.gap(ClusterId(i), ClusterId(j), self.per_node);
            }
        }
        BroadcastProblem::from_parts(
            self.root,
            self.per_node,
            latency,
            gap,
            self.local_scatter.clone(),
        )
    }

    /// Per-edge costs pricing each candidate edge for the **receiver's
    /// aggregate block** — the optimistic (single-block) price the greedy
    /// structure pass scores with; the exact concatenated prices are applied
    /// by [`RelayScatterProblem::retime`] once subtrees are known.
    pub fn edge_costs(&self) -> EdgeCosts {
        EdgeCosts::priced_by_grid(&self.grid, |_, receiver| self.block[receiver.index()])
    }

    /// Schedules the scatter with `ordering`: a greedy engine pass over
    /// payload-priced edges decides the relay tree and send orders, then the
    /// exact retiming pass prices every edge by its subtree concatenation.
    pub fn schedule(&self, ordering: RelayOrdering) -> RelaySchedule {
        let broadcast = self.as_broadcast_problem();
        let costs = self.edge_costs();
        let mut policy = RelayScatterPolicy {
            root: self.root,
            ordering,
        };
        let structure = with_shared_engine(|engine| {
            engine.schedule_with_costs(&broadcast, &costs, &mut policy)
        });
        let commits: Vec<(ClusterId, ClusterId)> = structure
            .events
            .iter()
            .map(|e| (e.sender, e.receiver))
            .collect();
        self.retime(&commits, ordering.name())
    }

    /// The makespan `ordering` achieves on this problem.
    pub fn makespan(&self, ordering: RelayOrdering) -> Time {
        self.schedule(ordering).makespan()
    }

    /// Exactly times a commit sequence (any valid A/B sequence: each sender
    /// already reached, each receiver reached exactly once):
    ///
    /// 1. the payload of the edge to `r` is the concatenation of the blocks of
    ///    `r`'s whole subtree (every cluster later committed below `r`),
    /// 2. each sender issues its transfers back to back in commit order once
    ///    it holds its own payload, the edge occupying its interface for
    ///    `g(payload)`,
    /// 3. a coordinator scatters locally after its last forward (the root:
    ///    after pushing everything) — the broadcast convention, which makes a
    ///    direct star sequence reproduce [`ScatterProblem::makespan`] exactly.
    pub fn retime(&self, commits: &[(ClusterId, ClusterId)], heuristic: &str) -> RelaySchedule {
        let n = self.num_clusters();
        assert_eq!(commits.len(), n.saturating_sub(1), "incomplete sequence");
        // Subtree payloads: walking the commits in reverse, a receiver's
        // subtree is final before its own edge is priced (its children all
        // appear later in commit order).
        let mut subtree: Vec<u64> = self.block.iter().map(|b| b.as_bytes()).collect();
        subtree[self.root.index()] = 0;
        for &(s, r) in commits.iter().rev() {
            subtree[s.index()] += subtree[r.index()];
        }
        let mut received = vec![false; n];
        received[self.root.index()] = true;
        let mut nic_free = vec![Time::ZERO; n];
        let mut events = Vec::with_capacity(commits.len());
        for &(s, r) in commits {
            assert!(received[s.index()], "sender {s} relays before receiving");
            assert!(!received[r.index()], "receiver {r} reached twice");
            assert_ne!(r, self.root, "the root never receives");
            received[r.index()] = true;
            let payload = MessageSize::from_bytes(subtree[r.index()]);
            let start = nic_free[s.index()];
            let gap = self.grid.gap(s, r, payload);
            let arrival = start + gap + self.grid.latency(s, r);
            nic_free[s.index()] = start + gap;
            nic_free[r.index()] = arrival;
            events.push(RelayEvent {
                sender: s,
                receiver: r,
                payload,
                start,
                arrival,
            });
        }
        let completion = (0..n)
            .map(|i| nic_free[i] + self.local_scatter[i])
            .collect();
        RelaySchedule {
            root: self.root,
            events,
            completion,
            heuristic: heuristic.to_owned(),
        }
    }

    /// Brute-force optimum over **every** relay tree and send order (all A/B
    /// commit sequences), exact per [`RelayScatterProblem::retime`]. The
    /// search is super-exponential; callers are limited to small instances.
    pub fn optimal_makespan(&self) -> Time {
        let n = self.num_clusters();
        assert!(n <= 6, "brute-force relay enumeration is super-exponential");
        let mut in_a = vec![false; n];
        in_a[self.root.index()] = true;
        let mut seq = Vec::with_capacity(n.saturating_sub(1));
        let mut best = Time::INFINITY;
        self.enumerate(&mut in_a, &mut seq, &mut best);
        best
    }

    fn enumerate(&self, in_a: &mut [bool], seq: &mut Vec<(ClusterId, ClusterId)>, best: &mut Time) {
        let n = self.num_clusters();
        if seq.len() + 1 == n {
            *best = (*best).min(self.retime(seq, "enumerated").makespan());
            return;
        }
        for s in 0..n {
            if !in_a[s] {
                continue;
            }
            for r in 0..n {
                if in_a[r] {
                    continue;
                }
                in_a[r] = true;
                seq.push((ClusterId(s), ClusterId(r)));
                self.enumerate(in_a, seq, best);
                seq.pop();
                in_a[r] = false;
            }
        }
    }

    /// Brute-force optimum over **direct-only** orderings (the star trees):
    /// the best the MagPIe assumption can do on this instance.
    pub fn best_direct_makespan(&self) -> Time {
        let n = self.num_clusters();
        assert!(n <= 7, "direct enumeration is factorial");
        let mut receivers: Vec<ClusterId> =
            (0..n).map(ClusterId).filter(|&c| c != self.root).collect();
        if receivers.is_empty() {
            return self.retime(&[], "singleton").makespan();
        }
        let mut best = Time::INFINITY;
        let root = self.root;
        permute_sequences(&mut receivers, 0, &mut |order| {
            let seq: Vec<(ClusterId, ClusterId)> = order.iter().map(|&r| (root, r)).collect();
            best = best.min(self.retime(&seq, "direct").makespan());
        });
        best
    }

    /// Sanity payload: the concatenation of every non-root block — what a
    /// single-relay schedule would push over the root's uplink first.
    pub fn total_remote_bytes(&self) -> MessageSize {
        concat_blocks(
            self.block
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != self.root.index())
                .map(|(_, &b)| b),
        )
    }
}

/// A gather problem whose inter-cluster level may **relay** — the exact
/// **time-reversed dual** of [`RelayScatterProblem`].
///
/// Every cluster's coordinator holds its cluster's aggregate block (collected
/// by a local gather) and all blocks must reach the `root`'s coordinator.
/// A gather tree is a scatter tree run backwards: each coordinator hands the
/// concatenation of its **whole subtree's blocks** to its parent, and a block
/// travelling `c → p` pays the `c → p` link — the sender/receiver roles of
/// every edge are swapped relative to the scatter.
///
/// The implementation *is* that duality: the problem wraps a
/// [`RelayScatterProblem`] over the [transposed grid](Grid::transposed)
/// (so every scatter edge `p → c` is priced on the original `c → p` link),
/// schedules it with the unchanged engine machinery, and reflects the result
/// about its makespan ([`RelayGatherSchedule`]). Gather's local phase is the
/// mirror too: the local gather time equals the local scatter time under the
/// pLogP model ([`Pattern::Gather`] and [`Pattern::Scatter`] share one
/// formula), charged *before* a coordinator's uplink send instead of after
/// its forwards.
///
/// The reflected schedule is genuinely executable (receives serialise on the
/// parent's interface exactly where the scatter's sends did) and its makespan
/// equals the mirrored scatter's **bit for bit**; an independent forward
/// (ASAP) retiming — [`RelayGatherProblem::forward_makespan`] — reproduces it
/// to float tolerance, which the duality proptests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayGatherProblem {
    /// The cluster whose coordinator must end up holding every block.
    pub root: ClusterId,
    /// Per-machine block size.
    pub per_node: MessageSize,
    /// The time-reversed twin: a relay-capable scatter from `root` on the
    /// transposed grid.
    mirror: RelayScatterProblem,
}

/// A fully timed relay-capable gather schedule: the reflection of a
/// [`RelaySchedule`] about its makespan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelayGatherSchedule {
    /// The sink cluster.
    pub root: ClusterId,
    /// Inter-cluster transfers in execution (time) order. `sender` is the
    /// child handing the concatenation of its subtree's blocks to `receiver`,
    /// its parent; `start` is the hand-off (the payload then travels `L` and
    /// occupies the **parent's** interface for `g(payload)` — the mirrored
    /// gap model), `arrival` the moment the parent holds it.
    pub events: Vec<RelayEvent>,
    /// Per cluster: when its subtree's data is complete at its parent (for
    /// the root: when it holds every block — the makespan).
    pub completion: Vec<Time>,
    /// Name of the ordering that produced the schedule.
    pub heuristic: String,
}

impl RelayGatherSchedule {
    /// The makespan: the moment the root's coordinator holds every block.
    pub fn makespan(&self) -> Time {
        self.completion.iter().copied().max().unwrap_or(Time::ZERO)
    }
}

impl RelayGatherProblem {
    /// Builds the relay-capable gather problem for `grid`, collecting
    /// `per_node` bytes from every machine at the coordinator of `root`.
    pub fn from_grid(grid: &Grid, root: ClusterId, per_node: MessageSize) -> Self {
        RelayGatherProblem {
            root,
            per_node,
            mirror: RelayScatterProblem::from_grid(&grid.transposed(), root, per_node),
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.mirror.num_clusters()
    }

    /// The aggregate block one cluster contributes.
    pub fn block(&self, cluster: ClusterId) -> MessageSize {
        self.mirror.block(cluster)
    }

    /// The local gather time of one cluster (its coordinator collecting the
    /// cluster's blocks before any uplink send).
    pub fn local_gather(&self, cluster: ClusterId) -> Time {
        self.mirror.local_scatter(cluster)
    }

    /// The time-reversed scatter twin — a [`RelayScatterProblem`] from `root`
    /// on the transposed grid. Exposed so the duality tests can compare
    /// against an independently built instance.
    pub fn mirror(&self) -> &RelayScatterProblem {
        &self.mirror
    }

    /// Schedules the gather with `ordering` by scheduling the mirrored
    /// scatter and reflecting the result; the makespan equals the mirror's
    /// bit for bit.
    pub fn schedule(&self, ordering: RelayOrdering) -> RelayGatherSchedule {
        self.reflect(&self.mirror.schedule(ordering))
    }

    /// The makespan `ordering` achieves on this problem.
    pub fn makespan(&self, ordering: RelayOrdering) -> Time {
        self.schedule(ordering).makespan()
    }

    /// Exactly times a gather tree given as a scatter-direction commit
    /// sequence (`(parent, child)` pairs growing the tree from the root, the
    /// same shape [`RelayScatterProblem::retime`] consumes): the mirrored
    /// scatter is retimed and reflected.
    pub fn retime(
        &self,
        commits: &[(ClusterId, ClusterId)],
        heuristic: &str,
    ) -> RelayGatherSchedule {
        self.reflect(&self.mirror.retime(commits, heuristic))
    }

    /// Reflects a mirrored-scatter schedule about its makespan `M`: event
    /// `p → c` with window `[start, arrival]` becomes gather event `c → p`
    /// with window `[M − arrival, M − start]`, in reversed order (so events
    /// stay time-ordered). The makespan is exactly `M` — same float.
    fn reflect(&self, scatter: &RelaySchedule) -> RelayGatherSchedule {
        let horizon = scatter.makespan();
        let n = self.num_clusters();
        let events = scatter
            .events
            .iter()
            .rev()
            .map(|e| RelayEvent {
                sender: e.receiver,
                receiver: e.sender,
                payload: e.payload,
                start: horizon - e.arrival,
                arrival: horizon - e.start,
            })
            .collect();
        let mut completion = vec![Time::ZERO; n];
        completion[self.root.index()] = horizon;
        for e in &scatter.events {
            completion[e.receiver.index()] = horizon - e.start;
        }
        RelayGatherSchedule {
            root: self.root,
            events,
            completion,
            heuristic: scatter.heuristic.clone(),
        }
    }

    /// Independent **forward** (ASAP) timing of a gather tree, given as a
    /// scatter-direction commit sequence: every cluster finishes its local
    /// gather first, a child hands off its subtree concatenation as soon as
    /// it is complete, the payload travels `L` and then occupies the parent's
    /// interface for `g` (receives serialise per parent in reflected order).
    ///
    /// By the reversal argument this equals the mirrored scatter's retimed
    /// makespan *mathematically*; the floats are accumulated in a different
    /// order, so tests compare with a tolerance. Used by the brute-force
    /// gather enumeration so the bracket is computed without going through
    /// the mirror.
    pub fn forward_makespan(&self, commits: &[(ClusterId, ClusterId)]) -> Time {
        let n = self.num_clusters();
        assert_eq!(commits.len(), n.saturating_sub(1), "incomplete sequence");
        // Subtree payloads, exactly as the scatter retiming computes them.
        let mut subtree: Vec<u64> = (0..n)
            .map(|i| self.mirror.block(ClusterId(i)).as_bytes())
            .collect();
        subtree[self.root.index()] = 0;
        for &(p, c) in commits.iter().rev() {
            subtree[p.index()] += subtree[c.index()];
        }
        // `avail[i]`: cluster i's subtree concatenation is complete;
        // `nic[i]`: its interface is free (local gather occupies it first).
        let mut avail: Vec<Time> = (0..n).map(|i| self.local_gather(ClusterId(i))).collect();
        let mut nic = avail.clone();
        // Reversed commit order puts every (c, grandchild) hand-off before
        // (p, c), so `avail[c]` is final when c's own edge is timed; it is
        // also each parent's receive order in the reflected schedule.
        for &(p, c) in commits.iter().rev() {
            let payload = MessageSize::from_bytes(subtree[c.index()]);
            // Mirrored pricing: the original `c → p` link is the transposed
            // grid's `p → c` entry, evaluated through the same pLogP curve as
            // the mirror so both timings price identical floats.
            let gap = self.mirror.grid.gap(p, c, payload);
            let latency = self.mirror.grid.latency(p, c);
            let occupancy_start = nic[p.index()].max(avail[c.index()] + latency);
            let done = occupancy_start + gap;
            nic[p.index()] = done;
            avail[p.index()] = avail[p.index()].max(done);
        }
        avail[self.root.index()]
    }

    /// Brute-force optimum over **every** gather tree and receive order,
    /// timed forward by [`RelayGatherProblem::forward_makespan`] — the gather
    /// side of the duality bracket. Super-exponential; small instances only.
    pub fn optimal_forward_makespan(&self) -> Time {
        let n = self.num_clusters();
        assert!(
            n <= 6,
            "brute-force gather enumeration is super-exponential"
        );
        let mut in_a = vec![false; n];
        in_a[self.root.index()] = true;
        let mut seq = Vec::with_capacity(n.saturating_sub(1));
        let mut best = Time::INFINITY;
        self.enumerate_forward(&mut in_a, &mut seq, &mut best);
        best
    }

    fn enumerate_forward(
        &self,
        in_a: &mut [bool],
        seq: &mut Vec<(ClusterId, ClusterId)>,
        best: &mut Time,
    ) {
        let n = self.num_clusters();
        if seq.len() + 1 == n {
            *best = (*best).min(self.forward_makespan(seq));
            return;
        }
        for p in 0..n {
            if !in_a[p] {
                continue;
            }
            for c in 0..n {
                if in_a[c] {
                    continue;
                }
                in_a[c] = true;
                seq.push((ClusterId(p), ClusterId(c)));
                self.enumerate_forward(in_a, seq, best);
                seq.pop();
                in_a[c] = false;
            }
        }
    }

    /// Brute-force optimum over every gather tree via the mirrored scatter's
    /// exact enumeration (bit-exact against the greedy's timing model).
    pub fn optimal_makespan(&self) -> Time {
        self.mirror.optimal_makespan()
    }

    /// Brute-force optimum over **direct-only** gathers (every cluster hands
    /// its own block straight to the root, only the receive order varies).
    pub fn best_direct_makespan(&self) -> Time {
        self.mirror.best_direct_makespan()
    }
}

fn permute_sequences(order: &mut Vec<ClusterId>, k: usize, visit: &mut impl FnMut(&[ClusterId])) {
    if k == order.len() {
        visit(order);
        return;
    }
    for i in k..order.len() {
        order.swap(k, i);
        permute_sequences(order, k + 1, visit);
        order.swap(k, i);
    }
}

/// A fully timed all-to-all exchange schedule: the per-pair transfers placed
/// by the engine plus per-cluster completion times including the local
/// exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct AllToAllSchedule {
    /// The timed per-cluster-pair transfers.
    pub exchange: ExchangeSchedule,
    /// Per cluster: when all of its machines hold all their data.
    pub completion: Vec<Time>,
}

impl AllToAllSchedule {
    /// The makespan of the exchange.
    pub fn makespan(&self) -> Time {
        self.completion.iter().copied().max().unwrap_or(Time::ZERO)
    }
}

/// Schedules a personalised all-to-all on `grid`: the exchange decomposes into
/// one transfer per ordered cluster pair (`S_i · S_j · per_pair` bytes, priced
/// by that link's `g`), placed on the clusters' single interfaces by the
/// engine's earliest-completion-first rule
/// ([`ScheduleEngine::schedule_transfers`](crate::ScheduleEngine::schedule_transfers));
/// each cluster then runs its local all-to-all. The resulting makespan is an
/// executable figure — always at least [`alltoall_estimate`], which stays the
/// analytic lower bound.
pub fn alltoall_schedule(grid: &Grid, per_pair: MessageSize) -> AllToAllSchedule {
    let set = alltoall_transfer_set(grid, per_pair);
    let local: Vec<Time> = grid
        .clusters()
        .iter()
        .map(|c| match c.intra.plogp() {
            Some(plogp) => Pattern::AllToAll.intra_time(plogp, c.size, per_pair),
            None => Time::ZERO,
        })
        .collect();
    let exchange = with_shared_engine(|engine| engine.schedule_transfers(&set));
    let completion = exchange.completion_with_local(&local);
    AllToAllSchedule {
        exchange,
        completion,
    }
}

/// The [`TransferSet`] of a personalised all-to-all on `grid`: one transfer
/// per ordered cluster pair moving `S_i · S_j · per_pair` bytes, gap priced
/// by that directed link. The single source of the exchange workload —
/// [`alltoall_schedule`] consumes it, and the scaling figure and the
/// telemetry regression bench measure exactly this set, so the benchmarked
/// workload can never drift from the product path.
pub fn alltoall_transfer_set(grid: &Grid, per_pair: MessageSize) -> TransferSet {
    let mut set = TransferSet::new(grid.num_clusters());
    for i in grid.cluster_ids() {
        let ci = grid.cluster(i);
        for j in grid.cluster_ids() {
            if i == j {
                continue;
            }
            let cj = grid.cluster(j);
            let payload = MessageSize::from_bytes(
                per_pair.as_bytes() * u64::from(ci.size) * u64::from(cj.size),
            );
            set.push(Transfer {
                from: i,
                to: j,
                payload,
                gap: grid.gap(i, j, payload),
                latency: grid.latency(i, j),
            });
        }
    }
    set
}

/// A fully timed allgather schedule: the per-ordered-pair aggregate-block
/// transfers placed by the engine (each cluster's interface released only
/// after its local gather), plus per-cluster completion times including the
/// local redistribution of the full concatenation.
#[derive(Debug, Clone, PartialEq)]
pub struct AllGatherSchedule {
    /// The timed per-cluster-pair transfers.
    pub exchange: ExchangeSchedule,
    /// Per cluster: the local gather lead-in gating its interface (the
    /// release times handed to the transfer scheduler).
    pub release: Vec<Time>,
    /// Per cluster: when all of its machines hold every block.
    pub completion: Vec<Time>,
}

impl AllGatherSchedule {
    /// The makespan of the allgather.
    pub fn makespan(&self) -> Time {
        self.completion.iter().copied().max().unwrap_or(Time::ZERO)
    }
}

/// Per-cluster local phases of the allgather: the **local gather** lead-in
/// (the coordinator collects its cluster's blocks before any wide-area send)
/// and the **local redistribution** tail (the coordinator broadcasts the full
/// concatenation — every cluster's aggregate, its own included, since each
/// rank only holds its own block — along a binomial tree once its wide-area
/// traffic drains).
fn allgather_local_phases(grid: &Grid, per_node: MessageSize) -> (Vec<Time>, Vec<Time>) {
    let total = concat_blocks(
        grid.clusters()
            .iter()
            .map(|c| Pattern::AllGather.aggregate_bytes(c.size, per_node)),
    );
    let mut release = Vec::with_capacity(grid.num_clusters());
    let mut redistribute = Vec::with_capacity(grid.num_clusters());
    for cluster in grid.clusters() {
        match cluster.intra.plogp() {
            Some(plogp) => {
                release.push(Pattern::Gather.intra_time(plogp, cluster.size, per_node));
                redistribute.push(if cluster.size > 1 {
                    BroadcastAlgorithm::BinomialTree.predict(plogp, cluster.size, total)
                } else {
                    Time::ZERO
                });
            }
            None => {
                release.push(Time::ZERO);
                redistribute.push(Time::ZERO);
            }
        }
    }
    (release, redistribute)
}

/// Analytic **lower bound** on an allgather in which every machine contributes
/// `per_node` bytes and must end up with every other machine's block: cluster
/// `i` pushes its aggregate block (`S_i · per_node`) to every other cluster
/// and receives every other cluster's aggregate, so its single interface —
/// released only after its local gather — must serialise the gaps of both its
/// outgoing **and** incoming transfers (the directed links may be asymmetric,
/// so the two directions are priced separately, exactly like the corrected
/// [`alltoall_estimate`]). Latencies pipeline behind the gaps and only a
/// single terminal latency is charged on the receive path. Each cluster then
/// redistributes the full concatenation locally. The estimate is the maximum
/// over clusters of these per-cluster bounds; every schedule produced by
/// [`allgather_schedule`] respects it (the transfer scheduler uses the same
/// single-port, release-gated interface model), which the tests assert.
pub fn allgather_estimate(grid: &Grid, per_node: MessageSize) -> Time {
    let (release, redistribute) = allgather_local_phases(grid, per_node);
    exchange_estimate(
        grid,
        // An allgather transfer carries the *sender's* aggregate block.
        |from, _| Pattern::AllGather.aggregate_bytes(grid.cluster(from).size, per_node),
        |i| release[i.index()],
        |i| redistribute[i.index()],
    )
}

/// Schedules an allgather on `grid`: the exchange decomposes into one
/// transfer per ordered cluster pair — cluster `i` pushes its **aggregate
/// block** (`S_i · per_node` bytes, priced by that link's `g`) to cluster `j`
/// — placed on the clusters' single interfaces by the engine's
/// earliest-completion-first transfer scheduler with each interface released
/// only after its cluster's local gather
/// ([`ScheduleEngine::schedule_transfers_from`](crate::ScheduleEngine::schedule_transfers_from)).
/// This is the receive-side mirror of the machinery behind
/// [`alltoall_schedule`]: same transfer engine, but every payload is a whole
/// cluster aggregate instead of a pair-personalised slice, and the local
/// phases bracket the exchange (gather before, redistribution after). The
/// resulting makespan is always at least [`allgather_estimate`].
pub fn allgather_schedule(grid: &Grid, per_node: MessageSize) -> AllGatherSchedule {
    let n = grid.num_clusters();
    let (release, redistribute) = allgather_local_phases(grid, per_node);
    let mut set = TransferSet::new(n);
    for i in grid.cluster_ids() {
        let block = Pattern::AllGather.aggregate_bytes(grid.cluster(i).size, per_node);
        for j in grid.cluster_ids() {
            if i == j {
                continue;
            }
            set.push(Transfer {
                from: i,
                to: j,
                payload: block,
                gap: grid.gap(i, j, block),
                latency: grid.latency(i, j),
            });
        }
    }
    let exchange = with_shared_engine(|engine| engine.schedule_transfers_from(&set, &release));
    let completion = exchange.completion_with_local(&redistribute);
    AllGatherSchedule {
        exchange,
        release,
        completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_plogp::PLogP;
    use gridcast_topology::{grid5000_table3, Cluster, Grid};

    fn grid5000_scatter() -> ScatterProblem {
        ScatterProblem::from_grid(&grid5000_table3(), ClusterId(0), MessageSize::from_kib(64))
    }

    /// Five clusters: a root with a slow, high-per-message uplink to everyone,
    /// one singleton relay with fast links to the three leaf clusters. The
    /// instance the acceptance criteria name: relaying through the singleton
    /// strictly beats the best direct-only ordering.
    fn slow_uplink_grid() -> Grid {
        let lan = PLogP::affine(Time::from_micros(50.0), Time::from_micros(20.0), 110e6);
        // Root uplink: 300 ms per-message cost, 50 MB/s, 200 ms latency.
        let slow = PLogP::affine(Time::from_millis(200.0), Time::from_millis(300.0), 50e6);
        // Relay fan-out: 5 ms per-message cost, 1 GB/s, 5 ms latency.
        let fast = PLogP::affine(Time::from_millis(5.0), Time::from_millis(5.0), 1e9);
        let mut builder = Grid::builder()
            .cluster(Cluster::with_plogp(ClusterId(0), "root", 4, lan.clone()))
            .cluster(Cluster::with_plogp(ClusterId(1), "relay", 1, lan.clone()))
            .cluster(Cluster::with_plogp(ClusterId(2), "leaf-a", 4, lan.clone()))
            .cluster(Cluster::with_plogp(ClusterId(3), "leaf-b", 4, lan.clone()))
            .cluster(Cluster::with_plogp(ClusterId(4), "leaf-c", 4, lan));
        for other in 1..5 {
            builder = builder.link_symmetric(ClusterId(0), ClusterId(other), slow.clone());
        }
        for leaf in 2..5 {
            builder = builder.link_symmetric(ClusterId(1), ClusterId(leaf), fast.clone());
        }
        for a in 2..5 {
            for b in (a + 1)..5 {
                builder = builder.link_symmetric(ClusterId(a), ClusterId(b), slow.clone());
            }
        }
        builder.build().unwrap()
    }

    #[test]
    fn from_grid_builds_consistent_vectors() {
        let p = grid5000_scatter();
        assert_eq!(p.num_clusters(), 6);
        assert_eq!(p.root_gap[0], Time::ZERO);
        assert_eq!(p.latency[0], Time::ZERO);
        // Singleton IDPOT clusters have no local scatter.
        assert_eq!(p.local_scatter[3], Time::ZERO);
        assert_eq!(p.local_scatter[4], Time::ZERO);
        // Bigger clusters mean bigger aggregate blocks, hence larger root gaps
        // towards them (Toulouse: 20 machines vs the 1-machine IDPOT nodes on a
        // comparable wide-area path).
        assert!(p.root_gap[5] > p.root_gap[3]);
        assert_eq!(p.receivers().len(), 5);
    }

    #[test]
    fn longest_tail_first_is_optimal_on_small_instances() {
        // Brute-force all send orders of the 5 receivers and check the rule.
        let p = grid5000_scatter();
        let receivers = p.receivers();
        let mut best = Time::INFINITY;
        let mut order = receivers.clone();
        permute(&mut order, 0, &p, &mut best);
        let rule = ScatterOrdering::LongestTailFirst.makespan(&p);
        assert!(
            rule <= best + Time::from_micros(1.0),
            "longest-tail-first ({rule}) worse than brute-force optimum ({best})"
        );
    }

    fn permute(order: &mut Vec<ClusterId>, k: usize, p: &ScatterProblem, best: &mut Time) {
        if k == order.len() {
            *best = (*best).min(p.makespan(order));
            return;
        }
        for i in k..order.len() {
            order.swap(k, i);
            permute(order, k + 1, p, best);
            order.swap(k, i);
        }
    }

    #[test]
    fn orderings_are_ranked_as_expected() {
        let p = grid5000_scatter();
        let longest = ScatterOrdering::LongestTailFirst.makespan(&p);
        let list = ScatterOrdering::ListOrder.makespan(&p);
        let shortest = ScatterOrdering::ShortestTailFirst.makespan(&p);
        assert!(longest <= list);
        assert!(longest <= shortest);
        // All three push the same bytes from the root, so none can beat the pure
        // transmission lower bound.
        let push_time: Time = p.root_gap.iter().copied().sum();
        assert!(longest >= push_time);
    }

    #[test]
    fn makespan_accounts_for_the_root_local_scatter() {
        let mut p = grid5000_scatter();
        let before = ScatterOrdering::LongestTailFirst.makespan(&p);
        // Give the root an enormous local scatter: it must dominate the makespan.
        p.local_scatter[0] = Time::from_secs(100.0);
        let after = ScatterOrdering::LongestTailFirst.makespan(&p);
        assert!(after > before);
        assert!(after >= Time::from_secs(100.0));
    }

    #[test]
    fn alltoall_estimate_scales_with_message_size() {
        let grid = grid5000_table3();
        let small = alltoall_estimate(&grid, MessageSize::from_bytes(256));
        let large = alltoall_estimate(&grid, MessageSize::from_kib(16));
        assert!(small > Time::ZERO);
        assert!(large > small);
        // The corrected figure counts send *and* receive interface time, so on
        // a symmetric grid it must dominate the send-gaps-only sum of the
        // busiest cluster.
        let m = MessageSize::from_kib(16);
        let outgoing_only = grid
            .cluster_ids()
            .map(|i| {
                grid.cluster_ids()
                    .filter(|&j| j != i)
                    .map(|j| {
                        let bytes = MessageSize::from_bytes(
                            m.as_bytes()
                                * u64::from(grid.cluster(i).size)
                                * u64::from(grid.cluster(j).size),
                        );
                        grid.gap(i, j, bytes)
                    })
                    .sum::<Time>()
            })
            .max()
            .unwrap();
        assert!(large > outgoing_only);
    }

    #[test]
    fn alltoall_estimate_counts_both_directions_with_one_terminal_latency() {
        // Two singleton clusters with asymmetric gaps: 0 → 1 cheap, 1 → 0
        // expensive. The per-cluster bound must serialise both directions on
        // each interface and add exactly one latency on the receive path.
        let cheap = PLogP::constant(Time::from_millis(1.0), Time::from_millis(10.0));
        let expensive = PLogP::constant(Time::from_millis(1.0), Time::from_millis(1000.0));
        let lan = PLogP::affine(Time::from_micros(50.0), Time::from_micros(20.0), 110e6);
        let grid = Grid::builder()
            .cluster(Cluster::with_plogp(ClusterId(0), "a", 1, lan.clone()))
            .cluster(Cluster::with_plogp(ClusterId(1), "b", 1, lan))
            .link_directed(ClusterId(0), ClusterId(1), cheap)
            .link_directed(ClusterId(1), ClusterId(0), expensive)
            .build()
            .unwrap();
        let estimate = alltoall_estimate(&grid, MessageSize::from_bytes(1));
        // Cluster 0's interface: 10 ms out + 1000 ms in = 1010 ms, which beats
        // its receive path (1000 + 1 ms) and both of cluster 1's bounds.
        assert!(
            estimate.approx_eq(Time::from_millis(1010.0), Time::from_micros(1.0)),
            "estimate {estimate} should pin both directions"
        );
    }

    #[test]
    fn alltoall_schedule_is_never_better_than_the_corrected_estimate() {
        let grid = grid5000_table3();
        for &kib in &[1u64, 16, 256] {
            let m = MessageSize::from_kib(kib);
            let schedule = alltoall_schedule(&grid, m);
            let estimate = alltoall_estimate(&grid, m);
            assert!(schedule.makespan().is_finite());
            assert_eq!(schedule.exchange.transfers.len(), 6 * 5);
            assert!(
                schedule.makespan() >= estimate,
                "schedule {} beat the lower bound {} at {kib} KiB",
                schedule.makespan(),
                estimate
            );
        }
    }

    #[test]
    fn root_local_scatter_entry_is_modelled_and_charged() {
        // Regression for the doc/behaviour mismatch: on a grid whose root
        // cluster is *modelled* (Orsay, 31 machines), `from_grid` fills the
        // root's local-scatter entry and `makespan` charges it after the
        // wide-area pushes.
        let p = grid5000_scatter();
        assert!(
            p.local_scatter[0] > Time::ZERO,
            "modelled root must keep a nonzero local scatter entry"
        );
        let order = p.receivers();
        let push_time: Time = p.root_gap.iter().copied().sum();
        assert!(p.makespan(&order) >= push_time + p.local_scatter[0]);
    }

    #[test]
    fn relay_star_retiming_matches_the_direct_scatter_model() {
        let grid = grid5000_table3();
        let per_node = MessageSize::from_kib(64);
        let direct = ScatterProblem::from_grid(&grid, ClusterId(0), per_node);
        let relay = RelayScatterProblem::from_grid(&grid, ClusterId(0), per_node);
        let order = direct.receivers();
        let star: Vec<(ClusterId, ClusterId)> = order.iter().map(|&r| (ClusterId(0), r)).collect();
        let retimed = relay.retime(&star, "star");
        assert!(
            retimed
                .makespan()
                .approx_eq(direct.makespan(&order), Time::from_micros(1.0)),
            "star retiming {} diverges from the direct model {}",
            retimed.makespan(),
            direct.makespan(&order)
        );
        // Every event of a star carries exactly the receiver's block.
        for event in &retimed.events {
            assert_eq!(event.payload, relay.block(event.receiver));
        }
    }

    #[test]
    fn relay_direct_ordering_never_beats_the_brute_force_direct_optimum() {
        let relay = RelayScatterProblem::from_grid(
            &grid5000_table3(),
            ClusterId(0),
            MessageSize::from_kib(64),
        );
        let direct = relay.makespan(RelayOrdering::Direct);
        let best_direct = relay.best_direct_makespan();
        assert!(direct + Time::from_micros(1.0) >= best_direct);
    }

    #[test]
    fn relaying_strictly_beats_the_best_direct_ordering_on_a_slow_uplink() {
        let grid = slow_uplink_grid();
        let problem =
            RelayScatterProblem::from_grid(&grid, ClusterId(0), MessageSize::from_kib(64));
        let best_direct = problem.best_direct_makespan();
        let greedy = problem.schedule(RelayOrdering::EarliestCompletion);
        assert!(
            greedy.makespan() < best_direct,
            "relay-capable greedy ({}) should strictly beat the best direct ordering ({})",
            greedy.makespan(),
            best_direct
        );
        // The greedy actually relays: some event is sent by a non-root cluster
        // and the relay's first payload concatenates several blocks.
        assert!(greedy.events.iter().any(|e| e.sender != ClusterId(0)));
        let to_relay = greedy
            .events
            .iter()
            .find(|e| e.receiver == ClusterId(1))
            .expect("relay cluster is served");
        assert!(to_relay.payload > problem.block(ClusterId(1)));
        // And the true optimum over all relay trees is at least as good.
        let optimal = problem.optimal_makespan();
        assert!(optimal <= best_direct + Time::from_micros(1.0));
        assert!(greedy.makespan() + Time::from_micros(1.0) >= optimal);
    }

    #[test]
    fn relay_brute_force_is_bounded_by_direct_enumeration_on_grid5000() {
        // 6 clusters is within the enumeration bound; the relay optimum can
        // only improve on the star optimum because stars are a subset of the
        // enumerated trees.
        let problem = RelayScatterProblem::from_grid(
            &grid5000_table3(),
            ClusterId(0),
            MessageSize::from_kib(16),
        );
        let optimal = problem.optimal_makespan();
        let best_direct = problem.best_direct_makespan();
        assert!(optimal <= best_direct + Time::from_micros(1.0));
        for ordering in [
            RelayOrdering::Direct,
            RelayOrdering::EarliestCompletion,
            RelayOrdering::EarliestLocalFinish,
        ] {
            let makespan = problem.makespan(ordering);
            assert!(makespan.is_finite());
            assert!(makespan + Time::from_micros(1.0) >= optimal, "{ordering:?}");
        }
    }

    #[test]
    fn single_relay_chain_carries_all_remote_bytes_first() {
        let grid = slow_uplink_grid();
        let problem = RelayScatterProblem::from_grid(&grid, ClusterId(0), MessageSize::from_kib(4));
        // Chain: root → relay, then the relay serves every leaf.
        let seq = vec![
            (ClusterId(0), ClusterId(1)),
            (ClusterId(1), ClusterId(2)),
            (ClusterId(1), ClusterId(3)),
            (ClusterId(1), ClusterId(4)),
        ];
        let schedule = problem.retime(&seq, "chain");
        assert_eq!(schedule.events[0].payload, problem.total_remote_bytes());
        assert!(schedule.makespan().is_finite());
    }

    /// Two singleton clusters with asymmetric directed links — the instance
    /// that catches any send/receive-interface role inversion.
    fn asymmetric_pair() -> Grid {
        let lan = PLogP::affine(Time::from_micros(50.0), Time::from_micros(20.0), 110e6);
        let cheap = PLogP::constant(Time::from_millis(1.0), Time::from_millis(10.0));
        let expensive = PLogP::constant(Time::from_millis(1.0), Time::from_millis(1000.0));
        Grid::builder()
            .cluster(Cluster::with_plogp(ClusterId(0), "a", 1, lan.clone()))
            .cluster(Cluster::with_plogp(ClusterId(1), "b", 1, lan))
            .link_directed(ClusterId(0), ClusterId(1), cheap)
            .link_directed(ClusterId(1), ClusterId(0), expensive)
            .build()
            .unwrap()
    }

    #[test]
    fn gather_makespan_equals_the_mirrored_scatter_bit_for_bit() {
        let grid = grid5000_table3();
        let per_node = MessageSize::from_kib(64);
        let gather = RelayGatherProblem::from_grid(&grid, ClusterId(0), per_node);
        let mirror = RelayScatterProblem::from_grid(&grid.transposed(), ClusterId(0), per_node);
        for ordering in [
            RelayOrdering::Direct,
            RelayOrdering::EarliestCompletion,
            RelayOrdering::EarliestLocalFinish,
        ] {
            let g = gather.makespan(ordering);
            let s = mirror.makespan(ordering);
            assert_eq!(
                g.as_secs().to_bits(),
                s.as_secs().to_bits(),
                "{ordering:?}: gather {g} diverges from mirrored scatter {s}"
            );
        }
    }

    #[test]
    fn gather_prices_edges_on_the_reversed_link_direction() {
        // Regression for the scatter-direction role inversion: on the
        // asymmetric pair, scattering from 0 uses the cheap 0 → 1 link but
        // gathering *to* 0 must pay the expensive 1 → 0 uplink.
        let grid = asymmetric_pair();
        let per_node = MessageSize::from_kib(1);
        let scatter = RelayScatterProblem::from_grid(&grid, ClusterId(0), per_node);
        let gather = RelayGatherProblem::from_grid(&grid, ClusterId(0), per_node);
        let s = scatter.makespan(RelayOrdering::Direct);
        let g = gather.makespan(RelayOrdering::Direct);
        assert!(
            g > s * 10.0,
            "gather ({g}) must pay the expensive reverse link, scatter paid {s}"
        );
        // And the dual direction agrees: gathering to 1 is as cheap as
        // scattering from 1 is expensive.
        let gather_to_1 = RelayGatherProblem::from_grid(&grid, ClusterId(1), per_node);
        assert!(gather_to_1.makespan(RelayOrdering::Direct) < g);
    }

    #[test]
    fn reflected_gather_schedule_is_executable() {
        // Replay the reflected events forward and check feasibility: every
        // child hands off after its local gather and after all its own
        // receives, and receives serialise on each parent's interface.
        let grid = grid5000_table3();
        let problem = RelayGatherProblem::from_grid(&grid, ClusterId(2), MessageSize::from_kib(64));
        for ordering in [RelayOrdering::Direct, RelayOrdering::EarliestCompletion] {
            let schedule = problem.schedule(ordering);
            let n = problem.num_clusters();
            assert_eq!(schedule.events.len(), n - 1);
            let eps = Time::from_micros(1.0);
            let mut last_window_end = vec![Time::ZERO; n];
            let mut received_all_by = vec![Time::ZERO; n];
            for e in &schedule.events {
                // Events come in time order; the payload occupies the
                // receiver's interface for its final `g` before `arrival`.
                let gap = grid.gap(e.sender, e.receiver, e.payload);
                let occupancy_start = e.arrival - gap;
                assert!(
                    occupancy_start + eps >= last_window_end[e.receiver.index()],
                    "{ordering:?}: receives overlap on {}",
                    e.receiver
                );
                last_window_end[e.receiver.index()] = e.arrival;
                // The child hands off only once its own subtree is complete
                // and its local gather is done.
                assert!(e.start + eps >= received_all_by[e.sender.index()]);
                assert!(e.start + eps >= problem.local_gather(e.sender));
                received_all_by[e.receiver.index()] =
                    received_all_by[e.receiver.index()].max(e.arrival);
            }
            assert!(schedule.makespan().approx_eq(
                received_all_by[ClusterId(2).index()].max(problem.local_gather(ClusterId(2))),
                eps
            ));
        }
    }

    #[test]
    fn forward_gather_timing_matches_the_reflection() {
        let grid = grid5000_table3();
        let problem = RelayGatherProblem::from_grid(&grid, ClusterId(0), MessageSize::from_kib(16));
        // A star and a chain, timed both ways.
        let star: Vec<(ClusterId, ClusterId)> =
            (1..6).map(|c| (ClusterId(0), ClusterId(c))).collect();
        let chain: Vec<(ClusterId, ClusterId)> =
            (1..6).map(|c| (ClusterId(c - 1), ClusterId(c))).collect();
        for seq in [star, chain] {
            let reflected = problem.retime(&seq, "t").makespan();
            let forward = problem.forward_makespan(&seq);
            assert!(
                forward.approx_eq(reflected, Time::from_micros(10.0)),
                "forward {forward} vs reflected {reflected}"
            );
        }
    }

    #[test]
    fn gather_brute_force_brackets_the_greedy_on_grid5000() {
        let problem = RelayGatherProblem::from_grid(
            &grid5000_table3(),
            ClusterId(0),
            MessageSize::from_kib(16),
        );
        let optimal = problem.optimal_makespan();
        let forward_optimal = problem.optimal_forward_makespan();
        let eps = Time::from_micros(10.0);
        assert!(optimal.approx_eq(forward_optimal, eps.max(optimal * 1e-9)));
        let best_direct = problem.best_direct_makespan();
        assert!(optimal <= best_direct + eps);
        for ordering in [
            RelayOrdering::Direct,
            RelayOrdering::EarliestCompletion,
            RelayOrdering::EarliestLocalFinish,
        ] {
            assert!(problem.makespan(ordering) + eps >= optimal, "{ordering:?}");
        }
    }

    #[test]
    fn allgather_estimate_counts_both_directions_with_one_terminal_latency() {
        // Same construction as the all-to-all regression: asymmetric gaps,
        // singleton clusters, 1-byte blocks. Cluster 0's interface must pay
        // 10 ms out + 1000 ms in = 1010 ms, beating its receive path
        // (1000 + 1 ms) and both of cluster 1's bounds.
        let grid = asymmetric_pair();
        let estimate = allgather_estimate(&grid, MessageSize::from_bytes(1));
        assert!(
            estimate.approx_eq(Time::from_millis(1010.0), Time::from_micros(1.0)),
            "estimate {estimate} should pin both directions"
        );
    }

    #[test]
    fn allgather_schedule_is_never_better_than_the_estimate() {
        let grid = grid5000_table3();
        for &kib in &[1u64, 16, 256] {
            let m = MessageSize::from_kib(kib);
            let schedule = allgather_schedule(&grid, m);
            let estimate = allgather_estimate(&grid, m);
            assert!(schedule.makespan().is_finite());
            assert_eq!(schedule.exchange.transfers.len(), 6 * 5);
            assert!(
                schedule.makespan() >= estimate,
                "schedule {} beat the lower bound {} at {kib} KiB",
                schedule.makespan(),
                estimate
            );
            // The local gather lead-in really gates the interfaces: no
            // transfer starts before its sender's (or receiver's) release.
            for t in &schedule.exchange.transfers {
                assert!(t.start >= schedule.release[t.from.index()]);
                assert!(t.start >= schedule.release[t.to.index()]);
            }
        }
    }

    #[test]
    fn scatter_problem_like_reuses_root_and_message() {
        let grid = grid5000_table3();
        let broadcast = BroadcastProblem::from_grid(&grid, ClusterId(5), MessageSize::from_kib(32));
        let scatter = scatter_problem_like(&broadcast, &grid);
        assert_eq!(scatter.root, ClusterId(5));
        assert_eq!(scatter.per_node, MessageSize::from_kib(32));
        assert_eq!(scatter.root_gap[5], Time::ZERO);
    }
}
