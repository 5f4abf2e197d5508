//! What-if perturbations and the replay delta they induce on a commit log.
//!
//! A [`Perturbation`] describes one way a scenario's world deviates from the
//! baseline grid: scaled link capacities, a degraded site uplink, a single
//! degraded link, a whole site's uplinks degraded together, a time-varying
//! capacity window, an alternate root, a cluster dropped from relay duty.
//! The enum used to live in the simulator crate; it moved here so that
//! [`crate::ScheduleEngine::reschedule_perturbed`] can reason about
//! perturbations directly — the simulator re-exports it unchanged.
//!
//! Two consumers read a perturbation:
//!
//! * the **cold path** ([`Perturbation::apply`], [`Perturbation::patch`])
//!   materialises the perturbed grid — either as a patched copy or as an
//!   in-place patch of a reusable scratch grid, both bit-identical — and
//!   [`BroadcastProblem::perturbed`] skips the grid altogether, patching
//!   the touched links straight into the baseline problem;
//! * the **warm path** ([`ReplayDelta::from_perturbations`]) extracts the
//!   *shape* of the change — which sender rows of the cost matrices are
//!   dirty, and whether every change can only worsen (grow) or only improve
//!   (shrink) link costs — which is what the engine's commit-log replay needs
//!   to decide how far a baseline schedule survives verbatim.

use crate::BroadcastProblem;
use gridcast_plogp::{PLogP, Time};
use gridcast_topology::{ClusterId, Grid};
use std::collections::HashMap;
use std::ops::Range;

/// Gap scale applied by [`Perturbation::DropRelay`] to a cluster's outgoing
/// links: large enough that no heuristic ever relays through the cluster
/// (every direct alternative is cheaper by orders of magnitude), finite so
/// the engine's no-NaN and no-∞-arithmetic invariants hold throughout.
pub const DROP_RELAY_FACTOR: f64 = 1e6;

/// One way a scenario deviates from the baseline grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// Multiply every inter-cluster link's gap by `factor` (`> 1` = a slower
    /// grid, `< 1` = a faster one). Latencies are unchanged.
    ScaleAllLinks {
        /// Gap multiplier, positive and finite.
        factor: f64,
    },
    /// Multiply the **outgoing** links of one cluster by `factor` — a
    /// degraded site uplink (the cluster still receives at full rate).
    DegradeUplink {
        /// The cluster whose uplink degrades.
        cluster: ClusterId,
        /// Gap multiplier, positive and finite.
        factor: f64,
    },
    /// Multiply the gap of one **directed** link by `factor` — the finest
    /// perturbation grain, and the one the warm-start speedup gate measures.
    DegradeLink {
        /// Sending side of the degraded link.
        from: ClusterId,
        /// Receiving side of the degraded link.
        to: ClusterId,
        /// Gap multiplier, positive and finite.
        factor: f64,
    },
    /// Correlated multi-link degradation: the uplinks of `span` consecutive
    /// clusters starting at `first` all scale by the same `factor` — the
    /// "every cluster of a site shares the degraded WAN egress" scenario.
    /// Grid generators lay clusters of a site out contiguously, so a site is
    /// a cluster range.
    DegradeSite {
        /// First cluster of the site.
        first: ClusterId,
        /// Number of consecutive clusters forming the site (≥ 1).
        span: usize,
        /// Gap multiplier applied to every uplink of the site, positive and
        /// finite.
        factor: f64,
    },
    /// Time-varying capacity: the gap of one directed link scales by
    /// `factor` for transmissions **starting** inside `[from_time, until)`.
    ///
    /// The static pLogP model the prediction leg prices is unchanged — the
    /// window exists only at execution time, where the simulator lowers it
    /// onto the fault injector's capacity windows. A warm replay therefore
    /// sees a clean delta and replays the baseline log verbatim.
    TimeVaryingCapacity {
        /// Sending side of the affected link.
        from: ClusterId,
        /// Receiving side of the affected link.
        to: ClusterId,
        /// Gap multiplier inside the window, positive and finite.
        factor: f64,
        /// Start of the window (inclusive).
        from_time: Time,
        /// End of the window (exclusive).
        until: Time,
    },
    /// Root the broadcast at a different cluster.
    AlternateRoot {
        /// The replacement root.
        root: ClusterId,
    },
    /// Remove a cluster from relay duty: its outgoing links become
    /// [`DROP_RELAY_FACTOR`] times slower, so no gap-aware schedule forwards
    /// through it while it remains reachable at full rate. (FEF scores edges
    /// by latency alone and stays blind to the penalty by design — its
    /// what-if report then carries the inflated makespan, which is exactly
    /// the comparison the sweep exists to surface.)
    DropRelay {
        /// The cluster excluded from relaying.
        cluster: ClusterId,
    },
}

/// Which directed links a perturbation's gap scaling touches.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LinkSelector {
    /// Every inter-cluster link.
    All,
    /// The outgoing links of `span` consecutive clusters starting at `first`.
    Rows { first: ClusterId, span: usize },
    /// One directed link.
    One { from: ClusterId, to: ClusterId },
}

impl LinkSelector {
    /// The sender rows of an `n`-cluster grid the selector touches, clamped
    /// to the grid (a span running past the last cluster, or past
    /// `usize::MAX`, ends at `n`). The one range both the link walk and the
    /// [`ReplayDelta`] read, so a delta's dirty rows are exactly the rows a
    /// patch scales.
    fn rows(&self, n: usize) -> Range<usize> {
        let (first, span) = match *self {
            LinkSelector::All => (0, n),
            LinkSelector::Rows { first, span } => (first.index(), span),
            LinkSelector::One { from, to } => {
                (from.index(), usize::from(from != to && to.index() < n))
            }
        };
        first.min(n)..first.saturating_add(span).min(n)
    }

    /// Calls `f` on every directed inter-cluster link of an `n`-cluster grid
    /// the selector touches, row-major — the one walk behind
    /// [`Perturbation::apply`], [`Perturbation::patch`] and
    /// [`BroadcastProblem::perturbed`]. The diagonal and out-of-range
    /// clusters are skipped.
    fn for_each_link(&self, n: usize, mut f: impl FnMut(ClusterId, ClusterId)) {
        for i in self.rows(n) {
            match *self {
                LinkSelector::One { to, .. } => f(ClusterId(i), to),
                _ => (0..n)
                    .filter(|&j| j != i)
                    .for_each(|j| f(ClusterId(i), ClusterId(j))),
            }
        }
    }
}

/// Whether a warm replay of baseline commit logs answers `chain`. Grid-wide
/// scaling dirties every sender row *and* patches `O(n²)` links (the
/// bookkeeping costs more than the replay saves), and a moved root makes
/// every baseline log incompatible by construction, so a chain holding
/// either runs cold. The what-if runner and the serving daemon both route
/// by this rule.
pub fn warm_eligible(chain: &[Perturbation]) -> bool {
    !chain.iter().any(|p| {
        matches!(
            p,
            Perturbation::ScaleAllLinks { .. } | Perturbation::AlternateRoot { .. }
        )
    })
}

impl Perturbation {
    /// The gap scaling this perturbation performs on the static link model,
    /// if any (`AlternateRoot` moves the root and `TimeVaryingCapacity` only
    /// exists at execution time — neither touches the model).
    fn gap_scaling(&self) -> Option<(LinkSelector, f64)> {
        match *self {
            Perturbation::ScaleAllLinks { factor } => Some((LinkSelector::All, factor)),
            Perturbation::DegradeUplink { cluster, factor } => Some((
                LinkSelector::Rows {
                    first: cluster,
                    span: 1,
                },
                factor,
            )),
            Perturbation::DegradeLink { from, to, factor } => {
                Some((LinkSelector::One { from, to }, factor))
            }
            Perturbation::DegradeSite {
                first,
                span,
                factor,
            } => Some((LinkSelector::Rows { first, span }, factor)),
            Perturbation::DropRelay { cluster } => Some((
                LinkSelector::Rows {
                    first: cluster,
                    span: 1,
                },
                DROP_RELAY_FACTOR,
            )),
            Perturbation::TimeVaryingCapacity { .. } | Perturbation::AlternateRoot { .. } => None,
        }
    }

    /// Applies the perturbation cold: updates `root` in place and returns a
    /// patched copy of `base` when any link changed (`None` when the static
    /// link model is untouched). The caller chains perturbations left to
    /// right.
    pub fn apply(&self, base: &Grid, root: &mut ClusterId) -> Option<Grid> {
        if let Perturbation::AlternateRoot { root: r } = *self {
            *root = r;
            return None;
        }
        self.gap_scaling()?;
        let mut grid = base.clone();
        self.scale_links(&mut grid, |_, _| {});
        Some(grid)
    }

    /// Applies the perturbation's gap scaling to `scratch` **in place**,
    /// recording every patched directed link in `touched` so the caller can
    /// later restore the scratch grid from its baseline.
    ///
    /// Scaling the current link value (rather than the baseline's) keeps a
    /// chain of patches bit-identical to the cold path's chain of
    /// [`Perturbation::apply`] copies: both evaluate `((g · f₁) · f₂) …` in
    /// perturbation order. Root moves and capacity windows patch nothing.
    pub fn patch(&self, scratch: &mut Grid, touched: &mut Vec<(ClusterId, ClusterId)>) {
        self.scale_links(scratch, |from, to| touched.push((from, to)));
    }

    /// Scales the gap of every link this perturbation touches in `grid`, in
    /// place, reporting each patched link to `touched`.
    fn scale_links(&self, grid: &mut Grid, mut touched: impl FnMut(ClusterId, ClusterId)) {
        let Some((selector, factor)) = self.gap_scaling() else {
            return;
        };
        selector.for_each_link(grid.num_clusters(), |from, to| {
            let scaled = grid.link(from, to).with_scaled_gap(factor);
            grid.set_link(from, to, scaled);
            touched(from, to);
        });
    }

    /// Whether this perturbation moves the broadcast root.
    pub fn moves_root(&self) -> bool {
        matches!(self, Perturbation::AlternateRoot { .. })
    }
}

impl BroadcastProblem {
    /// The problem `chain` makes of this one, derived without building the
    /// perturbed grid: `self` must be `from_grid(grid, root, message)`, and
    /// the result is **bit-identical** to `from_grid` of the grid
    /// [`Perturbation::apply`] builds by applying `chain` left to right to
    /// `grid`.
    ///
    /// Only the links the chain touches are re-evaluated. The chain is walked
    /// in order, and each touched link's pLogP model is scaled with
    /// `with_scaled_gap` in an overlay holding one model per link — the same
    /// `((g · f₁) · f₂) …` the applied grids hold, in at most `n(n−1)`
    /// entries however long the chain. Each link's latency and gap are then
    /// read off its scaled model, the expressions `from_grid` evaluates.
    /// Intra-cluster times never change. This costs a problem clone plus the
    /// touched links instead of an `n²` grid copy and rebuild per chain link.
    ///
    /// # Panics
    ///
    /// If `chain` moves the root ([`Perturbation::moves_root`]): a moved root
    /// is a different problem, not a patch of this one.
    pub fn perturbed(&self, grid: &Grid, chain: &[Perturbation]) -> BroadcastProblem {
        let n = grid.num_clusters();
        assert_eq!(n, self.num_clusters(), "the problem must come from `grid`");
        assert!(
            !chain.iter().any(Perturbation::moves_root),
            "a chain that moves the root cannot patch the problem"
        );
        let mut overlay: HashMap<(ClusterId, ClusterId), PLogP> = HashMap::new();
        for (selector, factor) in chain.iter().filter_map(Perturbation::gap_scaling) {
            selector.for_each_link(n, |from, to| {
                let scaled = overlay
                    .get(&(from, to))
                    .unwrap_or_else(|| grid.link(from, to))
                    .with_scaled_gap(factor);
                overlay.insert((from, to), scaled);
            });
        }
        let mut problem = self.clone();
        // Each link is written once, so the overlay's order does not matter.
        for ((from, to), link) in &overlay {
            problem.set_link_from_model(*from, *to, link);
        }
        problem
    }
}

/// The monotonicity of a delta's link-cost changes, as seen through the
/// engine's candidate order.
///
/// The warm replay can keep trusting a baseline commit log past the point
/// where changed state enters the sender set only when every change pushes
/// candidate tuples in one known direction; `Worsening` (every scaled gap
/// grew or stayed) is the direction the minimise-objective policies exploit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDirection {
    /// No static link changed at all.
    Unchanged,
    /// Every changed gap grew (factor ≥ 1) — costs only get worse.
    Worsening,
    /// Every changed gap shrank (factor ≤ 1) — costs only get better.
    Improving,
    /// Changes in both directions.
    Mixed,
}

impl DeltaDirection {
    fn join(self, other: DeltaDirection) -> DeltaDirection {
        use DeltaDirection::*;
        match (self, other) {
            (Unchanged, d) | (d, Unchanged) => d,
            (a, b) if a == b => a,
            _ => Mixed,
        }
    }
}

/// The shape of a perturbation set, as the engine's commit-log replay needs
/// it: which sender **rows** of the evaluated cost matrices may differ from
/// the baseline problem, and in which [`DeltaDirection`] they moved.
///
/// Row granularity is deliberate: a sender row `s` covers both the edge
/// scores *from* `s` and the receiver bias of `s` (every built-in lookahead
/// reads only the receiver's own outgoing row), so one bitmap answers both
/// "is this commit's sender suspect?" and "is this receiver's bias suspect?".
/// A single degraded link marks its whole sender row — conservative, but a
/// recompute under suspicion is an exact check, so precision costs only a
/// few extra `O(n)` scans, never correctness.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayDelta {
    dirty: Vec<bool>,
    any_dirty: bool,
    direction: DeltaDirection,
}

impl ReplayDelta {
    /// Extracts the delta of a perturbation chain over an `n`-cluster grid.
    pub fn from_perturbations(n: usize, perturbations: &[Perturbation]) -> Self {
        let mut dirty = vec![false; n];
        let mut direction = DeltaDirection::Unchanged;
        for p in perturbations {
            let Some((selector, factor)) = p.gap_scaling() else {
                continue;
            };
            direction = direction.join(if factor >= 1.0 {
                DeltaDirection::Worsening
            } else {
                DeltaDirection::Improving
            });
            dirty[selector.rows(n)].fill(true);
        }
        let any_dirty = dirty.iter().any(|&d| d);
        ReplayDelta {
            dirty,
            any_dirty,
            direction,
        }
    }

    /// A delta with no change at all (replays any compatible log verbatim).
    pub fn clean(n: usize) -> Self {
        ReplayDelta {
            dirty: vec![false; n],
            any_dirty: false,
            direction: DeltaDirection::Unchanged,
        }
    }

    /// Whether the sender row of `cluster` may differ from the baseline.
    #[inline]
    pub fn is_dirty(&self, cluster: usize) -> bool {
        self.dirty[cluster]
    }

    /// Whether any row is dirty.
    #[inline]
    pub fn any_dirty(&self) -> bool {
        self.any_dirty
    }

    /// The monotonicity of the change.
    #[inline]
    pub fn direction(&self) -> DeltaDirection {
        self.direction
    }

    /// Number of clusters the delta covers.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.dirty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_link_marks_one_row_worsening() {
        let delta = ReplayDelta::from_perturbations(
            8,
            &[Perturbation::DegradeLink {
                from: ClusterId(3),
                to: ClusterId(5),
                factor: 4.0,
            }],
        );
        assert!(delta.any_dirty());
        assert_eq!(delta.direction(), DeltaDirection::Worsening);
        for i in 0..8 {
            assert_eq!(delta.is_dirty(i), i == 3);
        }
    }

    #[test]
    fn site_span_marks_the_range() {
        let delta = ReplayDelta::from_perturbations(
            6,
            &[Perturbation::DegradeSite {
                first: ClusterId(2),
                span: 3,
                factor: 2.5,
            }],
        );
        for i in 0..6 {
            assert_eq!(delta.is_dirty(i), (2..5).contains(&i));
        }
    }

    #[test]
    fn time_varying_and_root_moves_are_clean() {
        let delta = ReplayDelta::from_perturbations(
            4,
            &[
                Perturbation::TimeVaryingCapacity {
                    from: ClusterId(0),
                    to: ClusterId(1),
                    factor: 3.0,
                    from_time: Time::ZERO,
                    until: Time::from_millis(50.0),
                },
                Perturbation::AlternateRoot { root: ClusterId(2) },
            ],
        );
        assert!(!delta.any_dirty());
        assert_eq!(delta.direction(), DeltaDirection::Unchanged);
    }

    #[test]
    fn mixed_factors_join_to_mixed() {
        let delta = ReplayDelta::from_perturbations(
            4,
            &[
                Perturbation::DegradeUplink {
                    cluster: ClusterId(0),
                    factor: 2.0,
                },
                Perturbation::DegradeUplink {
                    cluster: ClusterId(1),
                    factor: 0.5,
                },
            ],
        );
        assert_eq!(delta.direction(), DeltaDirection::Mixed);
        assert!(delta.is_dirty(0) && delta.is_dirty(1));
    }

    #[test]
    fn dirty_rows_are_the_rows_a_patch_scales() {
        let grid = gridcast_topology::grid5000_table3();
        let n = grid.num_clusters();
        let c = ClusterId;
        for p in [
            // `first + span` overflows: the rows still run to the last one.
            Perturbation::DegradeSite {
                first: c(1),
                span: usize::MAX,
                factor: 8.0,
            },
            Perturbation::DegradeSite {
                first: c(4),
                span: 5,
                factor: 2.0,
            },
            Perturbation::DegradeSite {
                first: c(n),
                span: 2,
                factor: 2.0,
            },
            Perturbation::DegradeLink {
                from: c(2),
                to: c(3),
                factor: 3.0,
            },
            Perturbation::DegradeLink {
                from: c(2),
                to: c(2),
                factor: 3.0,
            },
            Perturbation::DegradeLink {
                from: c(2),
                to: c(n),
                factor: 3.0,
            },
            Perturbation::DegradeUplink {
                cluster: c(5),
                factor: 0.5,
            },
            Perturbation::DropRelay { cluster: c(0) },
            Perturbation::ScaleAllLinks { factor: 2.0 },
            Perturbation::AlternateRoot { root: c(3) },
        ] {
            let mut touched = Vec::new();
            p.patch(&mut grid.clone(), &mut touched);
            let mut rows = vec![false; n];
            for (from, _) in touched {
                rows[from.index()] = true;
            }
            let delta = ReplayDelta::from_perturbations(n, &[p]);
            let dirty: Vec<bool> = (0..n).map(|i| delta.is_dirty(i)).collect();
            assert_eq!(dirty, rows, "{p:?}");
            assert_eq!(delta.any_dirty(), rows.contains(&true), "{p:?}");
        }
    }

    #[test]
    fn drop_relay_is_worsening() {
        let delta = ReplayDelta::from_perturbations(
            3,
            &[Perturbation::DropRelay {
                cluster: ClusterId(1),
            }],
        );
        assert_eq!(delta.direction(), DeltaDirection::Worsening);
        assert!(delta.is_dirty(1) && !delta.is_dirty(0));
    }
}
