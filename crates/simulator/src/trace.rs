//! Execution traces: the sequence of sends and arrivals of a simulated run,
//! and the [`TraceSink`]s that observe it.
//!
//! The unified discrete-event core emits every [`TraceEvent`] **in
//! non-decreasing time order** to a caller-chosen sink instead of
//! materialising a `Vec<TraceEvent>` unconditionally. Four sinks cover the
//! practical spectrum:
//!
//! * [`NullSink`] — drops everything; the executor's trace plumbing compiles
//!   away entirely (the what-if sweeps run millions of events through this),
//! * [`CountingSink`] — aggregates counts without retaining events,
//! * [`StreamingSink`] — writes one line per event to any [`std::io::Write`]
//!   as the simulation runs, so a trace never has to fit in memory,
//! * `Vec<TraceEvent>` — the retained sink (every `Vec` *is* a sink), kept
//!   for test parity and for callers that genuinely need random access.

use gridcast_plogp::Time;
use gridcast_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write;

/// The kind of a trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A machine started pushing a message to another machine.
    SendStart,
    /// A machine received the full message.
    Arrival,
    /// A machine retransmitted an unacknowledged send (fault executor only):
    /// the retry timer expired without a delivery, and the retry budget still
    /// had attempts left.
    Retry,
    /// A machine abandoned a send after exhausting its retry budget (fault
    /// executor only). The payload is reported in
    /// [`Outcome::Incomplete`](crate::Outcome::Incomplete) as undelivered.
    Drop,
    /// A machine crashed (fault executor only); `from == to` names the dead
    /// machine. Sends and receptions at or after this time do not happen.
    Crash,
}

/// One entry of an execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Entry kind.
    pub kind: TraceKind,
    /// Simulation time of the entry.
    pub time: Time,
    /// Sending machine.
    pub from: NodeId,
    /// Receiving machine.
    pub to: NodeId,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TraceKind::SendStart => write!(f, "[{}] {} -> {} send", self.time, self.from, self.to),
            TraceKind::Arrival => write!(f, "[{}] {} -> {} arrival", self.time, self.from, self.to),
            TraceKind::Retry => write!(f, "[{}] {} -> {} retry", self.time, self.from, self.to),
            TraceKind::Drop => write!(f, "[{}] {} -> {} drop", self.time, self.from, self.to),
            TraceKind::Crash => write!(f, "[{}] {} crash", self.time, self.from),
        }
    }
}

/// An observer of the discrete-event core's trace stream.
///
/// The core calls [`TraceSink::record`] once per [`TraceEvent`], in
/// non-decreasing `time` order (the event queue is monotonic — this is the
/// streaming contract the sink-parity proptests pin). Implementations decide
/// what to keep: nothing, counts, a serialised stream, or the full vector.
pub trait TraceSink {
    /// Observes one event of the simulation, in non-decreasing time order.
    fn record(&mut self, event: TraceEvent);

    /// Whether the executor should construct and deliver events at all.
    /// [`NullSink`] returns `false`, letting the hot path skip event
    /// construction entirely; everything else keeps the default `true`.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Takes the sink's pending I/O error, if any. The fallible executors
    /// ([`execute_sized_plan_with_sink`](crate::engine::execute_sized_plan_with_sink)
    /// and [`execute_plan_under_faults`](crate::faults::execute_plan_under_faults))
    /// call this after the event queue drains and surface the
    /// error as [`SimError::Trace`](crate::SimError::Trace); sinks without a
    /// fallible backing (counting, retained, null) keep the default `None`.
    /// Taking the error clears it: for [`StreamingSink`] a subsequent
    /// [`finish`](StreamingSink::finish) succeeds, so the error is reported
    /// exactly once.
    #[inline]
    fn take_error(&mut self) -> Option<std::io::Error> {
        None
    }
}

/// A sink that drops every event — the zero-cost default of the untraced
/// entry points and the what-if sweeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _event: TraceEvent) {}

    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// A sink that counts events without retaining them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of [`TraceKind::SendStart`] events observed.
    pub sends: usize,
    /// Number of [`TraceKind::Arrival`] events observed.
    pub arrivals: usize,
    /// Number of [`TraceKind::Retry`] events observed.
    pub retries: usize,
    /// Number of [`TraceKind::Drop`] events observed.
    pub drops: usize,
    /// Number of [`TraceKind::Crash`] events observed.
    pub crashes: usize,
    /// Time of the last event observed (`Time::ZERO` before the first).
    pub last_time: Time,
}

impl CountingSink {
    /// Total number of events observed.
    pub fn total(&self) -> usize {
        self.sends + self.arrivals + self.retries + self.drops + self.crashes
    }
}

impl TraceSink for CountingSink {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        match event.kind {
            TraceKind::SendStart => self.sends += 1,
            TraceKind::Arrival => self.arrivals += 1,
            TraceKind::Retry => self.retries += 1,
            TraceKind::Drop => self.drops += 1,
            TraceKind::Crash => self.crashes += 1,
        }
        self.last_time = event.time;
    }
}

/// The retained-vector sink: appends every event. It anchors the parity
/// tests the streaming sinks are checked against.
impl TraceSink for Vec<TraceEvent> {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

/// A sink that writes one [`Display`](fmt::Display)-formatted line per event
/// to an [`std::io::Write`] as the simulation runs, so traces stream to disk
/// (or a pipe) instead of accumulating in memory.
///
/// Write errors are sticky: the first failure is retained, further events are
/// dropped, and either [`StreamingSink::finish`] or the executor surfaces it —
/// the fallible entry points
/// ([`execute_sized_plan_with_sink`](crate::engine::execute_sized_plan_with_sink)
/// and [`execute_plan_under_faults`](crate::faults::execute_plan_under_faults))
/// call [`TraceSink::take_error`] after the drain and return
/// [`SimError::Trace`](crate::SimError::Trace). The infallible
/// [`execute_plan_with_sink`](crate::engine::execute_plan_with_sink) never
/// fails because of a trace sink; with it, check `finish()`.
#[derive(Debug)]
pub struct StreamingSink<W: Write> {
    writer: W,
    written: usize,
    error: Option<std::io::Error>,
}

impl<W: Write> StreamingSink<W> {
    /// Wraps a writer. Callers that care about throughput should hand in a
    /// [`std::io::BufWriter`]; the sink writes one line per event.
    pub fn new(writer: W) -> Self {
        StreamingSink {
            writer,
            written: 0,
            error: None,
        }
    }

    /// Number of events successfully written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes and returns the writer, or the first write error encountered.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for StreamingSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        match writeln!(self.writer, "{event}") {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    #[inline]
    fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: TraceKind, ms: f64) -> TraceEvent {
        TraceEvent {
            kind,
            time: Time::from_millis(ms),
            from: NodeId(0),
            to: NodeId(31),
        }
    }

    #[test]
    fn display_is_readable() {
        let e = TraceEvent {
            kind: TraceKind::SendStart,
            time: Time::from_millis(1.5),
            from: NodeId(0),
            to: NodeId(31),
        };
        assert_eq!(e.to_string(), "[1.500ms] n0 -> n31 send");
        let a = TraceEvent {
            kind: TraceKind::Arrival,
            ..e
        };
        assert!(a.to_string().ends_with("arrival"));
    }

    #[test]
    fn counting_sink_aggregates_without_retaining() {
        let mut sink = CountingSink::default();
        sink.record(event(TraceKind::SendStart, 1.0));
        sink.record(event(TraceKind::SendStart, 2.0));
        sink.record(event(TraceKind::Arrival, 3.0));
        assert_eq!(sink.sends, 2);
        assert_eq!(sink.arrivals, 1);
        assert_eq!(sink.total(), 3);
        assert_eq!(sink.last_time, Time::from_millis(3.0));
    }

    #[test]
    fn streaming_sink_writes_display_lines() {
        let mut sink = StreamingSink::new(Vec::new());
        let e = event(TraceKind::SendStart, 1.5);
        let a = event(TraceKind::Arrival, 2.0);
        sink.record(e);
        sink.record(a);
        assert_eq!(sink.written(), 2);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec![e.to_string(), a.to_string()]);
    }

    #[test]
    fn null_sink_is_disabled_and_vec_sink_retains() {
        assert!(!NullSink.enabled());
        let mut vec: Vec<TraceEvent> = Vec::new();
        assert!(TraceSink::enabled(&vec));
        vec.record(event(TraceKind::Arrival, 1.0));
        assert_eq!(vec.len(), 1);
    }
}
