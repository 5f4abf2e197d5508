//! Structured simulator errors.
//!
//! The discrete-event loop checks its clock on every push, in every build
//! profile: under a debug assertion, release builds would silently reorder
//! the simulation if INF−INF style arithmetic ever produced a corrupted
//! time. The fallible entry points
//! ([`execute_sized_plan_with_sink`](crate::engine::execute_sized_plan_with_sink),
//! [`execute_plan_under_faults`](crate::faults::execute_plan_under_faults))
//! surface a violation as a structured [`SimError`] instead of corrupting the
//! run. Both end their run the same way, so the same error path carries
//! [`TraceSink`](crate::TraceSink) writer failures from each: a streamed
//! trace that went to a broken pipe is loud too.

use gridcast_plogp::Time;
use std::fmt;

/// An error surfaced by the fallible executors: the run itself went wrong
/// (a clock regression) or its trace could not be written. A what-if sweep
/// has no error of its own: its runner refuses an empty candidate set when
/// it is configured.
#[derive(Debug)]
pub enum SimError {
    /// An event was scheduled before the current simulated time (or at a NaN
    /// time). The clock never runs backwards; this is the INF-arithmetic
    /// class of bug the engine's NaN audit hunts, reported instead of
    /// silently reordering the simulation.
    ClockRegression {
        /// The offending event time.
        scheduled: Time,
        /// The simulated clock when the push happened.
        now: Time,
    },
    /// The trace sink's writer failed; the first I/O error is carried here
    /// (see [`TraceSink::take_error`](crate::TraceSink::take_error)).
    Trace(std::io::Error),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ClockRegression { scheduled, now } => write!(
                f,
                "event scheduled at {scheduled} before the current simulated time {now} — \
                 the clock never runs backwards"
            ),
            SimError::Trace(e) => write!(f, "trace sink write failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::ClockRegression { .. } => None,
            SimError::Trace(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_times() {
        let e = SimError::ClockRegression {
            scheduled: Time::from_millis(1.0),
            now: Time::from_millis(2.0),
        };
        let text = e.to_string();
        assert!(text.contains("1.000ms"));
        assert!(text.contains("2.000ms"));
    }

    #[test]
    fn trace_errors_chain_their_source() {
        let e = SimError::Trace(std::io::Error::other("pipe closed"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("pipe closed"));
    }
}
