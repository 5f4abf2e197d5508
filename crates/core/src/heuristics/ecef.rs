//! The ECEF family: Early Completion Edge First and its lookahead variants
//! (Sections 4.3, 4.4, 5.1 and 5.2).

use crate::engine::{with_shared_engine, EngineView, ReplayTraits, SelectionPolicy};
use crate::heuristics::Heuristic;
use crate::{BroadcastProblem, Schedule};
use gridcast_plogp::Time;
use gridcast_topology::ClusterId;
use serde::{Deserialize, Serialize};

/// The lookahead function `F_j` attached to a candidate receiver `j`.
///
/// ECEF selects the pair minimising `RT_i + g_ij + L_ij`; the lookahead variants
/// add `F_j` to that sum so that the chosen receiver is also *useful* once it
/// becomes a sender. The paper's two grid-aware variants differ from Bhat's
/// original by folding the intra-cluster broadcast time `T_k` of the clusters
/// still waiting into the lookahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Lookahead {
    /// No lookahead: plain ECEF.
    None,
    /// Bhat's ECEF-LA: `F_j = min_{k ∈ B} (g_jk + L_jk)` — how quickly `j` could
    /// serve its best remaining cluster.
    MinEdge,
    /// Bhat's alternative lookahead: the *average* transfer time from `j` to the
    /// remaining clusters (mentioned in Section 4.4 as one of the other options).
    AvgEdge,
    /// ECEF-LAt (Section 5.1): `F_j = min_{k ∈ B} (g_jk + L_jk + T_k)` — the
    /// receiver should be able to finish some remaining cluster, *including its
    /// internal broadcast*, quickly.
    MinEdgePlusIntra,
    /// ECEF-LAT (Section 5.2): `F_j = max_{k ∈ B} (g_jk + L_jk + T_k)` — the
    /// selection accounts for the *worst* remaining obligation, which steers the
    /// schedule towards serving slow clusters early and overlapping their long
    /// internal broadcasts with the rest of the operation.
    MaxEdgePlusIntra,
}

impl Lookahead {
    /// Evaluates `F_j` for candidate receiver `j` given the clusters still in B.
    ///
    /// `remaining` must not include `j` itself; if no other cluster remains the
    /// lookahead is zero (the last receiver needs no forwarding ability).
    ///
    /// This is the direct `O(|remaining|)` definition; [`EcefPolicy`] evaluates
    /// the same quantity incrementally inside the engine. It stays public as
    /// the executable specification of `F_j` (and as the reference the parity
    /// property tests compare against).
    pub fn evaluate(
        &self,
        problem: &BroadcastProblem,
        j: ClusterId,
        remaining: &[ClusterId],
    ) -> Time {
        if remaining.is_empty() || matches!(self, Lookahead::None) {
            return Time::ZERO;
        }
        let edge = |k: ClusterId| problem.transfer(j, k);
        match self {
            Lookahead::None => Time::ZERO,
            Lookahead::MinEdge => remaining.iter().map(|&k| edge(k)).min().unwrap(),
            Lookahead::AvgEdge => {
                let total: Time = remaining.iter().map(|&k| edge(k)).sum();
                total / remaining.len() as f64
            }
            Lookahead::MinEdgePlusIntra => remaining
                .iter()
                .map(|&k| edge(k) + problem.intra_time(k))
                .min()
                .unwrap(),
            Lookahead::MaxEdgePlusIntra => remaining
                .iter()
                .map(|&k| edge(k) + problem.intra_time(k))
                .max()
                .unwrap(),
        }
    }
}

/// Early Completion Edge First, optionally with a lookahead function.
///
/// At each round the heuristic selects the (sender, receiver) pair minimising
///
/// ```text
/// RT_i + g_ij(m) + L_ij + F_j
/// ```
///
/// where `RT_i` is the sender's ready time (when its coordinator can start the
/// transfer) and `F_j` the configured [`Lookahead`]. The receiver then joins set
/// A with its arrival time as ready time.
#[derive(Debug, Clone, Copy)]
pub struct Ecef {
    lookahead: Lookahead,
    name: &'static str,
}

impl Ecef {
    /// Plain ECEF (no lookahead).
    pub fn plain() -> Self {
        Ecef {
            lookahead: Lookahead::None,
            name: "ECEF",
        }
    }

    /// ECEF with the given lookahead function.
    pub fn with_lookahead(lookahead: Lookahead) -> Self {
        let name = match lookahead {
            Lookahead::None => "ECEF",
            Lookahead::MinEdge => "ECEF-LA",
            Lookahead::AvgEdge => "ECEF-LA(avg)",
            Lookahead::MinEdgePlusIntra => "ECEF-LAt",
            Lookahead::MaxEdgePlusIntra => "ECEF-LAT",
        };
        Ecef { lookahead, name }
    }

    /// The configured lookahead.
    pub fn lookahead(&self) -> Lookahead {
        self.lookahead
    }
}

impl Heuristic for Ecef {
    fn name(&self) -> &str {
        self.name
    }

    fn schedule(&self, problem: &BroadcastProblem) -> Schedule {
        let mut policy = EcefPolicy::new(self.lookahead);
        with_shared_engine(|engine| engine.schedule_with(problem, &mut policy))
    }
}

/// [`SelectionPolicy`] for the whole ECEF family: the edge score is the
/// completion estimate `RT_i + g_ij + L_ij`, and the configured [`Lookahead`]
/// enters as the engine's receiver-level bias `F_j`.
///
/// The min/max lookaheads are evaluated incrementally through a **dense bias
/// cache**: `F_j` and the candidate cluster attaining it (`watch[j]`). `F_j`
/// can only change when that candidate leaves B, so
/// [`SelectionPolicy::on_commit`] refreshes exactly the receivers watching
/// the departed cluster (found with one walk over B) and the per-round
/// selection reads biases from a flat array. A refresh recomputes the
/// extremum with one pass over the engine's compacted B list
/// ([`EngineView::receivers`]) — no sorted candidate rows are materialised,
/// because *which* candidate attains the extremum is irrelevant to the bias
/// value: among tied candidates any choice of `watch[j]` yields the same
/// float and a refresh no later than the value can change. With roughly one
/// watcher per departing cluster this costs `O(|B|)` once per commit on
/// average, strictly cheaper than building and maintaining `n` sorted rows.
/// The average lookahead is still summed in ascending cluster order so the
/// floating-point result stays bit-identical to the original
/// implementation.
#[derive(Debug, Clone)]
pub struct EcefPolicy {
    lookahead: Lookahead,
    name: &'static str,
    /// Dense per-receiver lookahead values (`F_j`).
    bias: Vec<Time>,
    /// The candidate cluster whose departure invalidates `bias[j]`.
    watch: Vec<u32>,
}

impl EcefPolicy {
    /// Creates the policy for one lookahead variant.
    pub fn new(lookahead: Lookahead) -> Self {
        EcefPolicy {
            lookahead,
            name: Ecef::with_lookahead(lookahead).name,
            bias: Vec::new(),
            watch: Vec::new(),
        }
    }

    /// Recomputes the cached `F_j` of `j` with one dense pass over the
    /// engine's current B list (which no longer contains departed clusters,
    /// so no aliveness test is needed — only `j` itself is skipped).
    ///
    /// Ties are resolved by list position; that choice is unobservable in the
    /// schedule because every tied candidate carries the same value, and the
    /// cached bias is refreshed when the watched one departs — at which point
    /// any remaining tied candidate still attains the unchanged extremum.
    #[inline]
    fn refresh_bias(&mut self, view: &EngineView<'_>, j: usize) {
        let mut watch = u32::MAX;
        let mut best = Time::ZERO;
        if matches!(self.lookahead, Lookahead::MaxEdgePlusIntra) {
            for &k in view.receivers() {
                if k as usize == j {
                    continue;
                }
                let v = self.lookahead_value(view, ClusterId(j), ClusterId(k as usize));
                if watch == u32::MAX || v > best {
                    best = v;
                    watch = k;
                }
            }
        } else {
            best = Time::INFINITY;
            for &k in view.receivers() {
                if k as usize == j {
                    continue;
                }
                let v = self.lookahead_value(view, ClusterId(j), ClusterId(k as usize));
                if v < best {
                    best = v;
                    watch = k;
                }
            }
        }
        if watch == u32::MAX {
            self.watch[j] = u32::MAX;
            self.bias[j] = Time::ZERO;
        } else {
            self.watch[j] = watch;
            self.bias[j] = best;
        }
    }

    /// The lookahead value of candidate `k` seen from receiver `j`.
    ///
    /// Reads the engine's flat cost matrix through the view so that the row
    /// build in [`SelectionPolicy::reset`] streams over contiguous memory; on
    /// the uniform-price path `view.transfer` is bit-identical to
    /// `problem.transfer`.
    #[inline]
    fn lookahead_value(&self, view: &EngineView<'_>, j: ClusterId, k: ClusterId) -> Time {
        match self.lookahead {
            Lookahead::MinEdge => view.transfer(j, k),
            Lookahead::MinEdgePlusIntra | Lookahead::MaxEdgePlusIntra => {
                view.transfer(j, k) + view.problem().intra_time(k)
            }
            Lookahead::None | Lookahead::AvgEdge => Time::ZERO,
        }
    }

    fn uses_bias_cache(&self) -> bool {
        matches!(
            self.lookahead,
            Lookahead::MinEdge | Lookahead::MinEdgePlusIntra | Lookahead::MaxEdgePlusIntra
        )
    }
}

impl SelectionPolicy for EcefPolicy {
    fn name(&self) -> &str {
        self.name
    }

    fn reset(&mut self, view: &EngineView<'_>) {
        if !self.uses_bias_cache() {
            return;
        }
        let n = view.problem().num_clusters();
        self.bias.clear();
        self.bias.resize(n, Time::ZERO);
        self.watch.clear();
        self.watch.resize(n, u32::MAX);
        // Initially B is everything but the root — exactly the engine's list.
        for i in 0..view.receivers().len() {
            let j = view.receivers()[i] as usize;
            self.refresh_bias(view, j);
        }
    }

    fn edge_score(&self, view: &EngineView<'_>, sender: ClusterId, receiver: ClusterId) -> Time {
        view.completion_estimate(sender, receiver)
    }

    fn edge_score_offset(
        &self,
        _problem: &BroadcastProblem,
        _receiver: ClusterId,
        min_incoming_transfer: Time,
    ) -> Time {
        // Every candidate edge costs at least the receiver's cheapest incoming
        // transfer on top of the sender's ready time.
        min_incoming_transfer
    }

    fn receiver_bias(&mut self, view: &EngineView<'_>, receiver: ClusterId) -> Time {
        let problem = view.problem();
        match self.lookahead {
            Lookahead::None => Time::ZERO,
            Lookahead::AvgEdge => {
                // Recomputed in ascending cluster order, exactly like the
                // original `Lookahead::evaluate`, to keep the sum bit-identical.
                let mut total = Time::ZERO;
                let mut count = 0usize;
                for k in problem.cluster_ids() {
                    if k != receiver && view.in_b(k) {
                        total += problem.transfer(receiver, k);
                        count += 1;
                    }
                }
                if count == 0 {
                    Time::ZERO
                } else {
                    total / count as f64
                }
            }
            Lookahead::MinEdge | Lookahead::MinEdgePlusIntra | Lookahead::MaxEdgePlusIntra => {
                // Served from the dense cache maintained by `on_commit`.
                self.bias[receiver.index()]
            }
        }
    }

    fn uses_receiver_bias(&self) -> bool {
        !matches!(self.lookahead, Lookahead::None)
    }

    fn receiver_biases(&mut self, view: &EngineView<'_>, receivers: &[u32], out: &mut Vec<Time>) {
        match self.lookahead {
            Lookahead::None => {
                out.clear();
                out.resize(receivers.len(), Time::ZERO);
            }
            Lookahead::AvgEdge => {
                out.clear();
                for &r in receivers {
                    out.push(self.receiver_bias(view, ClusterId(r as usize)));
                }
            }
            Lookahead::MinEdge | Lookahead::MinEdgePlusIntra | Lookahead::MaxEdgePlusIntra => {
                // One sequential sweep over the dense cache — no per-receiver
                // virtual dispatch, no row-cursor chasing in the hot loop.
                out.clear();
                out.extend(receivers.iter().map(|&r| self.bias[r as usize]));
            }
        }
    }

    fn on_commit(&mut self, view: &EngineView<'_>, _sender: ClusterId, receiver: ClusterId) {
        if !self.uses_bias_cache() {
            return;
        }
        // `F_j` only changes when the candidate attaining it departs from B:
        // refresh exactly the receivers that watched the committed one. Only
        // clusters still in B have a bias anyone reads, so the watchers are
        // found by walking B (which no longer lists the departed cluster).
        let departed = receiver.index() as u32;
        for &j in view.receivers() {
            if self.watch[j as usize] == departed {
                self.refresh_bias(view, j as usize);
            }
        }
    }

    fn replay_traits(&self) -> ReplayTraits {
        ReplayTraits {
            gap_blind: false,
            // The completion estimate is `RT_i + g_ij + L_ij` and every
            // lookahead is an extremum or average over `g + L (+ T)` terms:
            // all monotone non-decreasing in every gap entry.
            gap_monotone: true,
            replay_bias_exact: true,
        }
    }

    /// Cache-free `F_j`, bit-identical to the cached path: the min/max
    /// variants recompute the extremum with the same pass `refresh_bias`
    /// runs (the cached value is refreshed no later than it can change, so a
    /// fresh extremum over the current B carries the same float), and the
    /// average variant uses the exact ascending-order sum of
    /// [`SelectionPolicy::receiver_bias`], which never caches.
    fn replay_bias(&self, view: &EngineView<'_>, receiver: ClusterId) -> Time {
        let j = receiver.index();
        match self.lookahead {
            Lookahead::None => Time::ZERO,
            Lookahead::AvgEdge => {
                let problem = view.problem();
                let mut total = Time::ZERO;
                let mut count = 0usize;
                for k in problem.cluster_ids() {
                    if k != receiver && view.in_b(k) {
                        total += problem.transfer(receiver, k);
                        count += 1;
                    }
                }
                if count == 0 {
                    Time::ZERO
                } else {
                    total / count as f64
                }
            }
            Lookahead::MaxEdgePlusIntra => {
                let mut any = false;
                let mut best = Time::ZERO;
                for &k in view.receivers() {
                    if k as usize == j {
                        continue;
                    }
                    let v = self.lookahead_value(view, receiver, ClusterId(k as usize));
                    if !any || v > best {
                        best = v;
                        any = true;
                    }
                }
                if any {
                    best
                } else {
                    Time::ZERO
                }
            }
            Lookahead::MinEdge | Lookahead::MinEdgePlusIntra => {
                let mut any = false;
                let mut best = Time::INFINITY;
                for &k in view.receivers() {
                    if k as usize == j {
                        continue;
                    }
                    let v = self.lookahead_value(view, receiver, ClusterId(k as usize));
                    if v < best {
                        best = v;
                        any = true;
                    }
                }
                if any {
                    best
                } else {
                    Time::ZERO
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_plogp::MessageSize;
    use gridcast_topology::SquareMatrix;

    fn ms(v: f64) -> Time {
        Time::from_millis(v)
    }

    /// 3-cluster instance where relaying beats root-only sending: the root's
    /// second send would have to wait for its first gap, while cluster 1 can
    /// forward immediately after receiving.
    fn relay_problem() -> BroadcastProblem {
        let mut latency = SquareMatrix::filled(3, ms(1.0));
        let mut gap = SquareMatrix::filled(3, ms(100.0));
        for i in 0..3 {
            latency[(i, i)] = Time::ZERO;
            gap[(i, i)] = Time::ZERO;
        }
        // Make 1 → 2 cheap (20 ms) so that relaying through 1 wins.
        gap[(1, 2)] = ms(20.0);
        gap[(2, 1)] = ms(20.0);
        BroadcastProblem::from_parts(
            ClusterId(0),
            MessageSize::from_mib(1),
            latency,
            gap,
            vec![Time::ZERO; 3],
        )
    }

    #[test]
    fn ecef_prefers_the_earliest_completion() {
        let problem = relay_problem();
        let schedule = Ecef::plain().schedule(&problem);
        assert!(schedule.validate(&problem).is_ok());
        // First transfer: 0 → 1 (both edges from the root cost the same, the
        // first receiver in iteration order wins).
        assert_eq!(schedule.events[0].receiver, ClusterId(1));
        // Second transfer: relaying 1 → 2 completes at 101 + 21 = 122 ms, while
        // 0 → 2 would complete at 100 + 101 = 201 ms; ECEF must pick the relay.
        assert_eq!(schedule.events[1].sender, ClusterId(1));
        assert_eq!(schedule.events[1].receiver, ClusterId(2));
        assert!(schedule
            .makespan()
            .approx_eq(ms(122.0), Time::from_micros(1.0)));
    }

    #[test]
    fn lookahead_avoids_dead_end_receivers() {
        // Two candidate receivers: cluster 1 is slightly cheaper to reach but is
        // a terrible forwarder (its outgoing edges are huge); cluster 2 costs a
        // bit more but forwards cheaply. Plain ECEF grabs cluster 1 first; the
        // lookahead variant must start with cluster 2.
        let mut latency = SquareMatrix::filled(4, ms(1.0));
        let mut gap = SquareMatrix::filled(4, ms(100.0));
        for i in 0..4 {
            latency[(i, i)] = Time::ZERO;
            gap[(i, i)] = Time::ZERO;
        }
        // Reaching 1 is marginally cheaper than reaching 2.
        gap[(0, 1)] = ms(90.0);
        gap[(0, 2)] = ms(95.0);
        // 1 forwards terribly, 2 forwards well.
        gap[(1, 2)] = ms(500.0);
        gap[(1, 3)] = ms(500.0);
        gap[(2, 3)] = ms(30.0);
        gap[(2, 1)] = ms(30.0);
        let problem = BroadcastProblem::from_parts(
            ClusterId(0),
            MessageSize::from_mib(1),
            latency,
            gap,
            vec![Time::ZERO; 4],
        );

        let plain = Ecef::plain().schedule(&problem);
        let lookahead = Ecef::with_lookahead(Lookahead::MinEdge).schedule(&problem);
        assert_eq!(plain.events[0].receiver, ClusterId(1));
        assert_eq!(lookahead.events[0].receiver, ClusterId(2));
        assert!(lookahead.makespan() <= plain.makespan());
        assert!(lookahead.validate(&problem).is_ok());
    }

    #[test]
    fn intra_aware_lookaheads_account_for_cluster_broadcast_times() {
        // Clusters 1 and 2 are fast, cluster 3 needs a huge internal broadcast;
        // every inter-cluster link is identical. ECEF-LAT (max lookahead) must
        // contact the slow cluster first so its internal broadcast overlaps with
        // the remaining wide-area traffic; ECEF-LAt keeps the fast-first
        // behaviour because its lookahead only rewards cheap *future* targets.
        let mut latency = SquareMatrix::filled(4, ms(1.0));
        let mut gap = SquareMatrix::filled(4, ms(100.0));
        for i in 0..4 {
            latency[(i, i)] = Time::ZERO;
            gap[(i, i)] = Time::ZERO;
        }
        let problem = BroadcastProblem::from_parts(
            ClusterId(0),
            MessageSize::from_mib(1),
            latency,
            gap,
            vec![Time::ZERO, Time::ZERO, Time::ZERO, ms(1000.0)],
        );
        let lat_max = Ecef::with_lookahead(Lookahead::MaxEdgePlusIntra).schedule(&problem);
        assert_eq!(lat_max.events[0].receiver, ClusterId(3));
        let lat_min = Ecef::with_lookahead(Lookahead::MinEdgePlusIntra).schedule(&problem);
        assert_eq!(lat_min.events[0].receiver, ClusterId(1));
        // Serving the slow cluster first never hurts here.
        assert!(lat_max.makespan() <= lat_min.makespan());
        assert!(lat_max.validate(&problem).is_ok());
        assert!(lat_min.validate(&problem).is_ok());
    }

    #[test]
    fn avg_lookahead_is_between_min_and_max_behaviour() {
        let problem = relay_problem();
        let avg = Ecef::with_lookahead(Lookahead::AvgEdge).schedule(&problem);
        assert!(avg.validate(&problem).is_ok());
        assert_eq!(avg.heuristic, "ECEF-LA(avg)");
    }

    #[test]
    fn names_follow_the_paper() {
        assert_eq!(Ecef::plain().name(), "ECEF");
        assert_eq!(Ecef::with_lookahead(Lookahead::MinEdge).name(), "ECEF-LA");
        assert_eq!(
            Ecef::with_lookahead(Lookahead::MinEdgePlusIntra).name(),
            "ECEF-LAt"
        );
        assert_eq!(
            Ecef::with_lookahead(Lookahead::MaxEdgePlusIntra).name(),
            "ECEF-LAT"
        );
        assert_eq!(
            Ecef::with_lookahead(Lookahead::MinEdge).lookahead(),
            Lookahead::MinEdge
        );
    }

    #[test]
    fn last_receiver_has_zero_lookahead() {
        // With a single remaining receiver every lookahead evaluates to zero, so
        // all variants agree on the final transfer.
        let problem = relay_problem();
        for lookahead in [
            Lookahead::None,
            Lookahead::MinEdge,
            Lookahead::AvgEdge,
            Lookahead::MinEdgePlusIntra,
            Lookahead::MaxEdgePlusIntra,
        ] {
            let f = lookahead.evaluate(&problem, ClusterId(2), &[]);
            assert_eq!(f, Time::ZERO, "{lookahead:?}");
        }
    }
}
