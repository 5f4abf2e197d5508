//! The daemon's line protocol: JSON requests in, JSON responses out.
//!
//! One request per line. Malformed lines — truncated JSON, unknown fields of
//! the wrong shape, non-finite factors, out-of-range indices — produce an
//! error *response* on the corresponding output line; nothing on the wire can
//! panic the daemon. Responses are rendered through the vendored
//! `serde_json` with a fixed field order and `{:?}`-style float formatting,
//! so byte-identical problems produce byte-identical response lines — the
//! property the cache-consistency tests pin down.

use gridcast_core::{HeuristicKind, Perturbation, ScheduleEvent};
use gridcast_plogp::{MessageSize, Time};
use gridcast_topology::{ClusterId, Grid};
use serde::{Deserialize as _, Value};

/// The longest perturbation chain a request may carry. A warm request's
/// memory is bounded by the grid however long its chain, but its CPU cost
/// grows with the chain's length times the links each perturbation touches,
/// so admission refuses longer chains with an error naming this limit.
pub const MAX_PERTURBATIONS: usize = 64;

/// Which grid a request schedules on.
#[derive(Debug, Clone, PartialEq)]
pub enum GridSpec {
    /// A named built-in topology (currently `"grid5000_table3"`).
    Named(String),
    /// A randomly generated Table 2 grid, reproducible from its parameters.
    Table2 {
        /// Number of clusters.
        clusters: usize,
        /// RNG seed.
        seed: u64,
        /// Machines per cluster.
        cluster_size: u32,
    },
    /// A full inline grid document (validated with
    /// [`Grid::check_consistency`] before use).
    Inline(Box<Grid>),
}

/// A parsed scheduling request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: Option<u64>,
    /// The grid to schedule on.
    pub grid: GridSpec,
    /// Broadcast root cluster.
    pub root: ClusterId,
    /// Payload size.
    pub payload: MessageSize,
    /// Pinned heuristic; `None` lets the engine pick the best predicted one.
    pub heuristic: Option<HeuristicKind>,
    /// Perturbations applied to the grid before scheduling, in order.
    pub perturbations: Vec<Perturbation>,
    /// Whether to include the full inter-cluster schedule in the response.
    pub include_schedule: bool,
    /// Whether to execute the chosen schedule in the node-level simulator
    /// and report the measured completion.
    pub execute: bool,
}

/// One parsed input line: a scheduling request or a control command.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestLine {
    /// A scheduling request.
    Schedule(Box<Request>),
    /// `{"cmd":"stats"}` — answer with the server's counters and latency
    /// quantiles.
    Stats,
    /// `{"cmd":"shutdown"}` — acknowledge and stop serving after this batch.
    Shutdown,
}

fn field_u64(v: &Value, name: &str) -> Result<u64, String> {
    match v.field(name) {
        Some(Value::U64(n)) => Ok(*n),
        Some(Value::I64(n)) if *n >= 0 => Ok(*n as u64),
        Some(other) => Err(format!(
            "field `{name}` must be a non-negative integer, got {other:?}"
        )),
        None => Err(format!("missing field `{name}`")),
    }
}

fn field_usize(v: &Value, name: &str) -> Result<usize, String> {
    usize::try_from(field_u64(v, name)?).map_err(|_| format!("field `{name}` out of range"))
}

fn field_f64(v: &Value, name: &str) -> Result<f64, String> {
    match v.field(name) {
        Some(Value::F64(x)) => Ok(*x),
        Some(Value::U64(n)) => Ok(*n as f64),
        Some(Value::I64(n)) => Ok(*n as f64),
        Some(other) => Err(format!("field `{name}` must be a number, got {other:?}")),
        None => Err(format!("missing field `{name}`")),
    }
}

fn positive_finite_factor(v: &Value) -> Result<f64, String> {
    let factor = field_f64(v, "factor")?;
    if factor.is_finite() && factor > 0.0 {
        Ok(factor)
    } else {
        Err(format!(
            "field `factor` must be positive and finite, got {factor}"
        ))
    }
}

fn parse_grid(v: &Value) -> Result<GridSpec, String> {
    match v {
        Value::Str(name) => Ok(GridSpec::Named(name.clone())),
        Value::Map(_) => {
            if let Some(t) = v.field("table2") {
                let clusters = field_usize(t, "clusters")?;
                if clusters == 0 {
                    return Err("table2 grid needs at least one cluster".into());
                }
                let seed = match t.field("seed") {
                    Some(_) => field_u64(t, "seed")?,
                    None => 0,
                };
                let cluster_size = match t.field("cluster_size") {
                    Some(_) => u32::try_from(field_u64(t, "cluster_size")?)
                        .map_err(|_| "field `cluster_size` out of range".to_string())?,
                    None => 16,
                };
                if cluster_size == 0 {
                    return Err("field `cluster_size` must be at least 1".into());
                }
                Ok(GridSpec::Table2 {
                    clusters,
                    seed,
                    cluster_size,
                })
            } else if let Some(doc) = v.field("inline") {
                let grid =
                    Grid::from_value(doc).map_err(|e| format!("invalid inline grid: {e}"))?;
                grid.check_consistency()
                    .map_err(|e| format!("invalid inline grid: {e}"))?;
                Ok(GridSpec::Inline(Box::new(grid)))
            } else {
                Err(
                    "field `grid` must be a topology name, {\"table2\":{..}} or {\"inline\":{..}}"
                        .into(),
                )
            }
        }
        other => Err(format!(
            "field `grid` must be a string or an object, got {other:?}"
        )),
    }
}

fn parse_perturbation(v: &Value) -> Result<Perturbation, String> {
    let kind = match v.field("kind") {
        Some(Value::Str(s)) => s.as_str(),
        _ => return Err("each perturbation needs a string `kind` field".into()),
    };
    let cluster = |name: &str| field_usize(v, name).map(ClusterId);
    match kind {
        "scale_all_links" => Ok(Perturbation::ScaleAllLinks {
            factor: positive_finite_factor(v)?,
        }),
        "degrade_uplink" => Ok(Perturbation::DegradeUplink {
            cluster: cluster("cluster")?,
            factor: positive_finite_factor(v)?,
        }),
        "degrade_link" => {
            let from = cluster("from")?;
            let to = cluster("to")?;
            if from == to {
                return Err("degrade_link needs two distinct clusters".into());
            }
            Ok(Perturbation::DegradeLink {
                from,
                to,
                factor: positive_finite_factor(v)?,
            })
        }
        "degrade_site" => {
            let span = field_usize(v, "span")?;
            if span == 0 {
                return Err("field `span` must be at least 1".into());
            }
            Ok(Perturbation::DegradeSite {
                first: cluster("first")?,
                span,
                factor: positive_finite_factor(v)?,
            })
        }
        "drop_relay" => Ok(Perturbation::DropRelay {
            cluster: cluster("cluster")?,
        }),
        "alternate_root" => Ok(Perturbation::AlternateRoot {
            root: cluster("root")?,
        }),
        other => Err(format!(
            "unknown perturbation kind `{other}` (expected scale_all_links, degrade_uplink, \
             degrade_link, degrade_site, drop_relay or alternate_root)"
        )),
    }
}

/// Parses one input line. Returns a human-readable error for anything
/// malformed — the caller turns it into an error response for that line.
pub fn parse_line(line: &str) -> Result<RequestLine, String> {
    let doc: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if !matches!(doc, Value::Map(_)) {
        return Err("a request must be a JSON object".into());
    }

    if let Some(cmd) = doc.field("cmd") {
        return match cmd {
            Value::Str(s) if s == "stats" => Ok(RequestLine::Stats),
            Value::Str(s) if s == "shutdown" => Ok(RequestLine::Shutdown),
            other => Err(format!(
                "unknown command {other:?} (expected \"stats\" or \"shutdown\")"
            )),
        };
    }

    let id = match doc.field("id") {
        Some(_) => Some(field_u64(&doc, "id")?),
        None => None,
    };
    let grid = parse_grid(
        doc.field("grid")
            .ok_or_else(|| "missing field `grid`".to_string())?,
    )?;
    let root = match doc.field("root") {
        Some(_) => ClusterId(field_usize(&doc, "root")?),
        None => ClusterId(0),
    };
    let payload = match doc.field("payload_bytes") {
        Some(_) => {
            let bytes = field_u64(&doc, "payload_bytes")?;
            if bytes == 0 {
                return Err("field `payload_bytes` must be at least 1".into());
            }
            MessageSize::from_bytes(bytes)
        }
        None => MessageSize::from_mib(1),
    };
    if let Some(pattern) = doc.field("pattern") {
        match pattern {
            Value::Str(s) if s == "broadcast" => {}
            other => {
                return Err(format!(
                    "unsupported pattern {other:?} (the daemon serves \"broadcast\")"
                ))
            }
        }
    }
    let heuristic = match doc.field("heuristic") {
        None => None,
        Some(Value::Str(name)) => Some(HeuristicKind::from_name(name).ok_or_else(|| {
            format!(
                "unknown heuristic `{name}` (expected one of {})",
                HeuristicKind::all().map(|k| k.name()).join(", ")
            )
        })?),
        Some(other) => return Err(format!("field `heuristic` must be a string, got {other:?}")),
    };
    let perturbations = match doc.field("perturbations") {
        None => Vec::new(),
        Some(Value::Seq(items)) if items.len() > MAX_PERTURBATIONS => {
            return Err(format!(
                "field `perturbations` holds {} entries; a request may chain at most \
                 {MAX_PERTURBATIONS}",
                items.len()
            ))
        }
        Some(Value::Seq(items)) => items
            .iter()
            .map(parse_perturbation)
            .collect::<Result<Vec<_>, _>>()?,
        Some(other) => {
            return Err(format!(
                "field `perturbations` must be an array, got {other:?}"
            ))
        }
    };
    let flag = |name: &str| match doc.field(name) {
        None => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(format!("field `{name}` must be a boolean, got {other:?}")),
    };
    let include_schedule = flag("include_schedule")?;
    let execute = flag("execute")?;

    Ok(RequestLine::Schedule(Box::new(Request {
        id,
        grid,
        root,
        payload,
        heuristic,
        perturbations,
        include_schedule,
        execute,
    })))
}

/// The payload of a successful response, rendered by [`render_ok`].
#[derive(Debug, Clone, PartialEq)]
pub struct OkResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Display name of the heuristic that produced the answer.
    pub heuristic: &'static str,
    /// Predicted makespan of the chosen schedule.
    pub predicted: Time,
    /// How the answer was produced: `"hit"`, `"warm"` or `"cold"`.
    pub cache: &'static str,
    /// The inter-cluster schedule, when the request asked for it.
    pub schedule: Option<Vec<ScheduleEvent>>,
    /// Simulated completion time and event count, when the request asked for
    /// execution.
    pub simulated: Option<(Time, usize)>,
}

fn push_id(fields: &mut Vec<(String, Value)>, id: Option<u64>) {
    if let Some(id) = id {
        fields.push(("id".into(), Value::U64(id)));
    }
}

/// Renders a successful response as one JSON line (no trailing newline).
pub fn render_ok(r: &OkResponse) -> String {
    let mut fields = Vec::new();
    push_id(&mut fields, r.id);
    fields.push(("status".into(), Value::Str("ok".into())));
    fields.push(("heuristic".into(), Value::Str(r.heuristic.into())));
    fields.push(("predicted_secs".into(), Value::F64(r.predicted.as_secs())));
    fields.push(("cache".into(), Value::Str(r.cache.into())));
    if let Some(events) = &r.schedule {
        let rendered = events
            .iter()
            .map(|e| {
                Value::Map(vec![
                    ("sender".into(), Value::U64(e.sender.index() as u64)),
                    ("receiver".into(), Value::U64(e.receiver.index() as u64)),
                    ("start_secs".into(), Value::F64(e.start.as_secs())),
                    ("arrival_secs".into(), Value::F64(e.arrival.as_secs())),
                ])
            })
            .collect();
        fields.push(("schedule".into(), Value::Seq(rendered)));
    }
    if let Some((completion, events_processed)) = r.simulated {
        fields.push(("simulated_secs".into(), Value::F64(completion.as_secs())));
        fields.push(("sim_events".into(), Value::U64(events_processed as u64)));
    }
    serde_json::to_string(&Value::Map(fields)).expect("response rendering is infallible")
}

/// Renders an error response as one JSON line (no trailing newline).
pub fn render_error(id: Option<u64>, message: &str) -> String {
    let mut fields = Vec::new();
    push_id(&mut fields, id);
    fields.push(("status".into(), Value::Str("error".into())));
    fields.push(("error".into(), Value::Str(message.into())));
    serde_json::to_string(&Value::Map(fields)).expect("response rendering is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_fills_defaults() {
        let line = r#"{"grid":"grid5000_table3"}"#;
        let RequestLine::Schedule(req) = parse_line(line).unwrap() else {
            panic!("expected a schedule request");
        };
        assert_eq!(req.id, None);
        assert_eq!(req.grid, GridSpec::Named("grid5000_table3".into()));
        assert_eq!(req.root, ClusterId(0));
        assert_eq!(req.payload, MessageSize::from_mib(1));
        assert_eq!(req.heuristic, None);
        assert!(req.perturbations.is_empty());
        assert!(!req.include_schedule);
        assert!(!req.execute);
    }

    #[test]
    fn full_request_parses_every_field() {
        let line = r#"{"id":7,"grid":{"table2":{"clusters":10,"seed":42,"cluster_size":8}},
            "root":3,"payload_bytes":4096,"pattern":"broadcast","heuristic":"ECEF-LAt",
            "perturbations":[{"kind":"degrade_link","from":0,"to":1,"factor":2.5},
                             {"kind":"alternate_root","root":2}],
            "include_schedule":true,"execute":true}"#
            .replace('\n', " ");
        let RequestLine::Schedule(req) = parse_line(&line).unwrap() else {
            panic!("expected a schedule request");
        };
        assert_eq!(req.id, Some(7));
        assert_eq!(
            req.grid,
            GridSpec::Table2 {
                clusters: 10,
                seed: 42,
                cluster_size: 8
            }
        );
        assert_eq!(req.root, ClusterId(3));
        assert_eq!(req.payload, MessageSize::from_bytes(4096));
        assert_eq!(req.heuristic, Some(HeuristicKind::EcefLaMin));
        assert_eq!(
            req.perturbations,
            vec![
                Perturbation::DegradeLink {
                    from: ClusterId(0),
                    to: ClusterId(1),
                    factor: 2.5
                },
                Perturbation::AlternateRoot { root: ClusterId(2) }
            ]
        );
        assert!(req.include_schedule);
        assert!(req.execute);
    }

    #[test]
    fn control_lines_parse() {
        assert_eq!(
            parse_line(r#"{"cmd":"stats"}"#).unwrap(),
            RequestLine::Stats
        );
        assert_eq!(
            parse_line(r#"{"cmd":"shutdown"}"#).unwrap(),
            RequestLine::Shutdown
        );
        assert!(parse_line(r#"{"cmd":"reboot"}"#).is_err());
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for line in [
            "",
            "not json",
            "42",
            r#"{"grid":"#,
            r#"{"grid":7}"#,
            r#"{"grid":{"table2":{"clusters":0}}}"#,
            r#"{"grid":{"table2":{"clusters":2,"cluster_size":0}}}"#,
            r#"{"grid":{"inline":{"clusters":[],"inter":{"n":0,"data":[]}}}}"#,
            r#"{"grid":"g","payload_bytes":0}"#,
            r#"{"grid":"g","pattern":"allgather"}"#,
            r#"{"grid":"g","heuristic":"ecef-lat"}"#,
            r#"{"grid":"g","perturbations":[{"kind":"degrade_link","from":1,"to":1,"factor":2}]}"#,
            r#"{"grid":"g","perturbations":[{"kind":"degrade_link","from":0,"to":1,"factor":0}]}"#,
            r#"{"grid":"g","perturbations":[{"kind":"degrade_link","from":0,"to":1,"factor":1e999}]}"#,
            r#"{"grid":"g","perturbations":[{"kind":"degrade_site","first":0,"span":0,"factor":2}]}"#,
            r#"{"grid":"g","perturbations":[{"kind":"meteor_strike"}]}"#,
            r#"{"grid":"g","id":-1}"#,
            r#"{"grid":"g","include_schedule":"yes"}"#,
        ] {
            assert!(parse_line(line).is_err(), "line should be rejected: {line}");
        }
    }

    #[test]
    fn rendering_is_deterministic_and_ordered() {
        let ok = OkResponse {
            id: Some(9),
            heuristic: "ECEF-LAT",
            predicted: Time::from_millis(1.5),
            cache: "cold",
            schedule: Some(vec![ScheduleEvent {
                sender: ClusterId(0),
                receiver: ClusterId(1),
                start: Time::ZERO,
                arrival: Time::from_millis(1.5),
            }]),
            simulated: None,
        };
        let a = render_ok(&ok);
        let b = render_ok(&ok);
        assert_eq!(a, b);
        assert!(a.starts_with(r#"{"id":9,"status":"ok","heuristic":"ECEF-LAT""#));
        assert!(a.contains(r#""schedule":[{"sender":0,"receiver":1"#));

        let err = render_error(None, "nope");
        assert_eq!(err, r#"{"status":"error","error":"nope"}"#);
    }
}
