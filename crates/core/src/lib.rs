//! # gridcast-core
//!
//! The paper's primary contribution: **inter-cluster broadcast scheduling
//! heuristics** for hierarchically structured grids.
//!
//! ## The problem
//!
//! A message held by one *root* cluster coordinator must reach every cluster of
//! the grid; once a cluster coordinator has the message and no longer needs to
//! forward it, it broadcasts it inside its own cluster (taking `T_i(m)` time).
//! Finding the schedule of inter-cluster transfers that minimises the overall
//! makespan is NP-complete, so the library implements the heuristics compared in
//! the paper:
//!
//! | heuristic | origin | selection rule |
//! |-----------|--------|----------------|
//! | Flat Tree | ECO / MagPIe | root sends to every cluster sequentially |
//! | FEF       | Bhat et al.  | smallest outgoing latency edge first |
//! | ECEF      | Bhat et al.  | minimise `RT_i + g_ij + L_ij` |
//! | ECEF-LA   | Bhat et al.  | minimise `RT_i + g_ij + L_ij + F_j`, `F_j = min_k (g_jk + L_jk)` |
//! | ECEF-LAt  | this paper   | `F_j = min_k (g_jk + L_jk + T_k)` |
//! | ECEF-LAT  | this paper   | `F_j = max_k (g_jk + L_jk + T_k)` |
//! | BottomUp  | this paper   | `max_j min_i (g_ij + L_ij + T_j)` |
//!
//! plus an exhaustive branch-and-bound search ([`optimal`]) for small grids and
//! the *mixed strategy* recommended in Section 6 ([`mixed`]).
//!
//! ## The formalism
//!
//! Clusters are split into set **A** (already reached) and set **B** (not yet
//! reached). Each scheduling step picks a sender from A and a receiver from B;
//! the receiver moves to A. Each cluster in A has a *ready time*: when it holds
//! the message, pushed forward by the gap of every transfer it sends.
//!
//! Heuristics differ only in their selection rule, a [`SelectionPolicy`]. The
//! round loop and its timing live in one place, the incremental,
//! allocation-free [`ScheduleEngine`] ([`engine`]), which also drives
//! non-broadcast patterns such as the scatter orderings of [`patterns`].
//! Heuristic structs and [`HeuristicKind::schedule`] are thin wrappers over
//! the engine.
//!
//! ```
//! use gridcast_core::{BroadcastProblem, HeuristicKind};
//! use gridcast_plogp::MessageSize;
//! use gridcast_topology::{grid5000_table3, ClusterId};
//!
//! let grid = grid5000_table3();
//! let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
//! let flat = HeuristicKind::FlatTree.schedule(&problem);
//! let grid_aware = HeuristicKind::EcefLaMax.schedule(&problem);
//! assert!(grid_aware.makespan() <= flat.makespan());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod global_minimum;
pub mod heuristics;
pub mod mixed;
pub mod optimal;
pub mod patterns;
pub mod perturb;
pub mod pool;
pub mod problem;
pub mod schedule;

pub use engine::{
    best_slot, CandidateTuple, Candidates, CommitLog, EdgeCosts, EngineTelemetry, EngineView,
    ExchangeSchedule, LoggedCommit, Objective, Priced, ReplayTraits, ScheduleEngine,
    SelectionPolicy, TieBreak, TimedTransfer, Transfer, TransferSet, DEFAULT_K_BEST,
};
pub use global_minimum::{global_minimum, per_heuristic_makespans};
pub use heuristics::{Heuristic, HeuristicKind};
pub use mixed::MixedStrategy;
pub use optimal::{optimal_schedule, OptimalSearch};
pub use patterns::{
    allgather_estimate, allgather_schedule, alltoall_estimate, alltoall_schedule,
    alltoall_transfer_set, AllGatherSchedule, AllToAllSchedule, RelayEvent, RelayGatherProblem,
    RelayGatherSchedule, RelayOrdering, RelayScatterPolicy, RelayScatterProblem, RelaySchedule,
    ScatterOrdering, ScatterProblem, ScatterTailPolicy,
};
pub use perturb::{warm_eligible, DeltaDirection, Perturbation, ReplayDelta, DROP_RELAY_FACTOR};
pub use problem::BroadcastProblem;
pub use schedule::{Schedule, ScheduleError, ScheduleEvent};
