//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request; a line longer
//! than [`MAX_LINE_BYTES`] is answered with an error and its connection
//! closed. A request is either a control command — `{"cmd":"ping"}`, `{"cmd":"stats"}`,
//! `{"cmd":"shutdown"}` — or a query batch:
//!
//! ```json
//! {"id": 7, "compact": false, "queries": [
//!   {"kind": "power", "scheme": "software-flush",
//!    "machine": {"interconnect": "bus", "processors": 16},
//!    "workload": {"shd": 0.05},
//!    "sweep": {"param": "apl", "from": 1.0, "to": 25.0, "points": 64}}
//! ]}
//! ```
//!
//! * `kind` — `"power"` (default), `"penalty"` (bus contention detail),
//!   or `"sensitivity"` (parameter ranking; bus only, no sweep).
//! * `scheme` — `"base"`, `"no-cache"`, `"software-flush"`, `"dragon"`
//!   (case-insensitive; the dash is optional).
//! * `machine` — `{"interconnect":"bus","processors":N}` with `N` from
//!   1 to [`MAX_BUS_PROCESSORS`], or
//!   `{"interconnect":"network","stages":S}` (`2^S` processors, `S` from
//!   1 to 30).
//! * `workload` — optional overrides of the Table 7 middle values,
//!   keyed by paper parameter name (`ls`, `msdat`, …, `nshd`).
//! * `sweep` — optional: vary one parameter over `points` evenly
//!   spaced values from `from` to `to`; each point is one query.
//!
//! Floats in responses are formatted with Rust's shortest round-trip
//! `Display`, so parsing them back with a correctly rounded `f64`
//! parser reproduces the served bits exactly — the golden tests and
//! `swcc-loadgen --verify` rely on this to prove served results
//! bit-identical to direct library calls.

use serde::Value;
use swcc_core::scheme::Scheme;
use swcc_core::workload::{Level, ParamId, WorkloadParams};

/// Protocol identifier reported by `{"cmd":"ping"}` responses.
pub const PROTOCOL_VERSION: &str = "swcc-serve/v1";

/// Most queries accepted in one batch request.
pub const MAX_QUERIES: usize = 1024;
/// Most sweep points accepted for one query.
pub const MAX_SWEEP_POINTS: u32 = 65_536;
/// Most query points (queries × sweep points) accepted in one request.
pub const MAX_POINTS: usize = 262_144;
/// Most processors accepted for a bus machine: 64 times the paper's
/// largest bus. The MVA solve is linear in the processor count, so this
/// keeps a request of [`MAX_POINTS`] points to a fraction of a second
/// of solving.
pub const MAX_BUS_PROCESSORS: u32 = 1024;
/// Most bytes read for one request line, its newline excluded: 1 KiB
/// for each query of the largest batch, whose queries take about 600
/// bytes each. A longer line is answered with an error naming this
/// limit, and the connection is closed.
pub const MAX_LINE_BYTES: usize = MAX_QUERIES * 1024;

/// The machine a query runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// Shared bus with `processors` CPUs (Table 1 cost model).
    Bus {
        /// Number of processors on the bus.
        processors: u32,
    },
    /// Multistage network with `stages` stages (`2^stages` CPUs).
    Network {
        /// Number of network stages.
        stages: u32,
    },
}

/// What a query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Processing power / utilization at the operating point.
    Power,
    /// Bus contention detail (waiting time, bus utilization, CPI).
    Penalty,
    /// Parameter-sensitivity ranking (bus only; no sweep).
    Sensitivity,
}

/// One parsed query, sweep already expanded into per-point workloads.
#[derive(Debug, Clone)]
pub struct Query {
    /// What is asked for.
    pub kind: QueryKind,
    /// The coherence scheme.
    pub scheme: Scheme,
    /// The machine model.
    pub machine: Machine,
    /// One workload per sweep point (exactly one when no sweep).
    pub workloads: Vec<WorkloadParams>,
    /// The swept parameter values, parallel to `workloads` (empty when
    /// no sweep).
    pub sweep_values: Vec<f64>,
}

/// A parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server counter snapshot.
    Stats,
    /// Live telemetry: rolling windows, cumulative registry, uptime and
    /// build provenance (`{"cmd":"telemetry"}`), or the retained
    /// slow-request captures (`{"cmd":"telemetry","slow":true}`).
    Telemetry {
        /// Return the slow-request capture ring instead of the snapshot.
        slow: bool,
        /// Response rendering for the snapshot.
        format: TelemetryFormat,
    },
    /// Graceful shutdown.
    Shutdown,
    /// A query batch.
    Batch(Batch),
}

/// How a `telemetry` snapshot response is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryFormat {
    /// JSON snapshot only (the default).
    Json,
    /// JSON snapshot plus the Prometheus text exposition of the same
    /// snapshot in an `"exposition"` string field.
    Prometheus,
}

/// Longest accepted client-supplied request id.
pub const MAX_REQUEST_ID_LEN: usize = 64;

/// A query batch request.
#[derive(Debug)]
pub struct Batch {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Client-supplied request id for tracing and the access log (the
    /// server generates one when absent).
    pub request: Option<String>,
    /// Compact responses: per-query arrays of the primary metric only.
    pub compact: bool,
    /// The queries.
    pub queries: Vec<Query>,
}

fn parse_scheme(name: &str) -> Option<Scheme> {
    let folded: String = name
        .chars()
        .filter(|c| *c != '-' && *c != '_')
        .collect::<String>()
        .to_ascii_lowercase();
    match folded.as_str() {
        "base" => Some(Scheme::Base),
        "nocache" => Some(Scheme::NoCache),
        "softwareflush" => Some(Scheme::SoftwareFlush),
        "dragon" => Some(Scheme::Dragon),
        _ => None,
    }
}

fn parse_param(name: &str) -> Option<ParamId> {
    ParamId::ALL.iter().copied().find(|p| p.name() == name)
}

fn parse_kind(name: &str) -> Option<QueryKind> {
    match name {
        "power" => Some(QueryKind::Power),
        "penalty" => Some(QueryKind::Penalty),
        "sensitivity" => Some(QueryKind::Sensitivity),
        _ => None,
    }
}

fn parse_machine(value: &Value) -> Result<Machine, String> {
    let kind = value
        .get_field("interconnect")
        .and_then(Value::as_str)
        .ok_or("machine needs an \"interconnect\" of \"bus\" or \"network\"")?;
    match kind {
        "bus" => {
            let processors = value
                .get_field("processors")
                .and_then(Value::as_u64)
                .ok_or("bus machine needs an integer \"processors\"")?;
            if processors == 0 || processors > u64::from(MAX_BUS_PROCESSORS) {
                return Err(format!(
                    "\"processors\" must be between 1 and {MAX_BUS_PROCESSORS}"
                ));
            }
            Ok(Machine::Bus {
                processors: processors as u32,
            })
        }
        "network" => {
            let stages = value
                .get_field("stages")
                .and_then(Value::as_u64)
                .ok_or("network machine needs an integer \"stages\"")?;
            if stages == 0 || stages > 30 {
                return Err("\"stages\" must be between 1 and 30".into());
            }
            Ok(Machine::Network {
                stages: stages as u32,
            })
        }
        other => Err(format!("unknown interconnect \"{other}\"")),
    }
}

fn parse_workload(value: Option<&Value>) -> Result<WorkloadParams, String> {
    let mut workload = WorkloadParams::at_level(Level::Middle);
    let Some(value) = value else {
        return Ok(workload);
    };
    let fields = value
        .as_object()
        .ok_or("\"workload\" must be an object of parameter overrides")?;
    for (name, raw) in fields {
        let param = parse_param(name).ok_or_else(|| format!("unknown parameter \"{name}\""))?;
        let v = raw
            .as_f64()
            .ok_or_else(|| format!("parameter \"{name}\" must be a number"))?;
        workload = workload
            .with_param(param, v)
            .map_err(|e| format!("parameter \"{name}\": {e}"))?;
    }
    Ok(workload)
}

fn parse_query(value: &Value) -> Result<Query, String> {
    let kind = match value.get_field("kind") {
        None => QueryKind::Power,
        Some(v) => {
            let name = v.as_str().ok_or("\"kind\" must be a string")?;
            parse_kind(name).ok_or_else(|| format!("unknown kind \"{name}\""))?
        }
    };
    let scheme_name = value
        .get_field("scheme")
        .and_then(Value::as_str)
        .ok_or("query needs a string \"scheme\"")?;
    let scheme =
        parse_scheme(scheme_name).ok_or_else(|| format!("unknown scheme \"{scheme_name}\""))?;
    let machine = parse_machine(
        value
            .get_field("machine")
            .ok_or("query needs a \"machine\" object")?,
    )?;
    if matches!(machine, Machine::Network { .. }) {
        if scheme.requires_bus() {
            return Err(format!("scheme \"{scheme}\" requires a bus interconnect"));
        }
        if kind != QueryKind::Power {
            return Err("only \"power\" queries are supported on a network machine".into());
        }
    }
    let base = parse_workload(value.get_field("workload"))?;

    let (workloads, sweep_values) = match value.get_field("sweep") {
        None => (vec![base], Vec::new()),
        Some(sweep) => {
            if kind == QueryKind::Sensitivity {
                return Err("\"sensitivity\" queries do not take a sweep".into());
            }
            let name = sweep
                .get_field("param")
                .and_then(Value::as_str)
                .ok_or("sweep needs a string \"param\"")?;
            let param =
                parse_param(name).ok_or_else(|| format!("unknown sweep parameter \"{name}\""))?;
            let from = sweep
                .get_field("from")
                .and_then(Value::as_f64)
                .ok_or("sweep needs a numeric \"from\"")?;
            let to = sweep
                .get_field("to")
                .and_then(Value::as_f64)
                .ok_or("sweep needs a numeric \"to\"")?;
            if !from.is_finite() || !to.is_finite() {
                return Err("sweep bounds must be finite".into());
            }
            let points = sweep
                .get_field("points")
                .and_then(Value::as_u64)
                .ok_or("sweep needs an integer \"points\"")?;
            if points == 0 || points > u64::from(MAX_SWEEP_POINTS) {
                return Err(format!(
                    "sweep \"points\" must be between 1 and {MAX_SWEEP_POINTS}"
                ));
            }
            let points = points as u32;
            let mut workloads = Vec::with_capacity(points as usize);
            let mut values = Vec::with_capacity(points as usize);
            for i in 0..points {
                let v = if points == 1 {
                    from
                } else {
                    from + (to - from) * f64::from(i) / f64::from(points - 1)
                };
                let w = base
                    .with_param(param, v)
                    .map_err(|e| format!("sweep point {i} ({name} = {v}): {e}"))?;
                workloads.push(w);
                values.push(v);
            }
            (workloads, values)
        }
    };

    Ok(Query {
        kind,
        scheme,
        machine,
        workloads,
        sweep_values,
    })
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message naming the offending query index
/// (`"query 3: …"`) for batch requests.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if !value.is_object() {
        return Err("request must be a JSON object".into());
    }
    if let Some(cmd) = value.get_field("cmd") {
        let name = cmd.as_str().ok_or("\"cmd\" must be a string")?;
        return match name {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "telemetry" => {
                let slow = value
                    .get_field("slow")
                    .and_then(Value::as_bool)
                    .unwrap_or(false);
                let format = match value.get_field("format") {
                    None => TelemetryFormat::Json,
                    Some(v) => match v.as_str() {
                        Some("json") => TelemetryFormat::Json,
                        Some("prometheus") => TelemetryFormat::Prometheus,
                        _ => {
                            return Err(
                                "telemetry \"format\" must be \"json\" or \"prometheus\"".into()
                            )
                        }
                    },
                };
                Ok(Request::Telemetry { slow, format })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown command \"{other}\"")),
        };
    }
    let queries = value
        .get_field("queries")
        .and_then(Value::as_array)
        .ok_or("request needs a \"queries\" array (or a \"cmd\")")?;
    if queries.is_empty() {
        return Err("\"queries\" must not be empty".into());
    }
    if queries.len() > MAX_QUERIES {
        return Err(format!(
            "too many queries: {} (limit {MAX_QUERIES})",
            queries.len()
        ));
    }
    let id = value.get_field("id").and_then(Value::as_u64);
    let request = match value.get_field("request") {
        None => None,
        Some(v) => {
            let rid = v.as_str().ok_or("\"request\" must be a string")?;
            if rid.is_empty() || rid.len() > MAX_REQUEST_ID_LEN {
                return Err(format!(
                    "\"request\" must be 1..={MAX_REQUEST_ID_LEN} bytes"
                ));
            }
            Some(rid.to_string())
        }
    };
    let compact = value
        .get_field("compact")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let mut parsed = Vec::with_capacity(queries.len());
    let mut total_points = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let query = parse_query(q).map_err(|e| format!("query {i}: {e}"))?;
        total_points += query.workloads.len();
        parsed.push(query);
    }
    if total_points > MAX_POINTS {
        return Err(format!(
            "too many query points: {total_points} (limit {MAX_POINTS})"
        ));
    }
    Ok(Request::Batch(Batch {
        id,
        request,
        compact,
        queries: parsed,
    }))
}

/// Appends a JSON string literal (the protocol never emits strings
/// needing more than quote/backslash/control escapes).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders an error response line.
pub fn error_response(id: Option<u64>, message: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"ok\":false");
    if let Some(id) = id {
        let _ = write!(out, ",\"id\":{id}");
    }
    out.push_str(",\"error\":");
    push_json_str(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_parse_in_every_spelling() {
        for (name, scheme) in [
            ("base", Scheme::Base),
            ("Base", Scheme::Base),
            ("no-cache", Scheme::NoCache),
            ("No-Cache", Scheme::NoCache),
            ("nocache", Scheme::NoCache),
            ("software-flush", Scheme::SoftwareFlush),
            ("Software-Flush", Scheme::SoftwareFlush),
            ("software_flush", Scheme::SoftwareFlush),
            ("dragon", Scheme::Dragon),
        ] {
            assert_eq!(parse_scheme(name), Some(scheme), "{name}");
        }
        assert_eq!(parse_scheme("snoopy"), None);
    }

    #[test]
    fn display_names_round_trip() {
        for scheme in Scheme::ALL {
            assert_eq!(parse_scheme(&scheme.to_string()), Some(scheme));
        }
    }

    #[test]
    fn batch_parses_with_defaults_and_sweeps() {
        let line = r#"{"id":9,"queries":[
            {"scheme":"dragon","machine":{"interconnect":"bus","processors":16}},
            {"kind":"power","scheme":"base","machine":{"interconnect":"network","stages":6},
             "workload":{"shd":0.1},
             "sweep":{"param":"apl","from":1.0,"to":25.0,"points":5}}
        ]}"#
        .replace('\n', " ");
        let Request::Batch(batch) = parse_request(&line).unwrap() else {
            panic!("expected a batch");
        };
        assert_eq!(batch.id, Some(9));
        assert!(!batch.compact);
        assert_eq!(batch.queries.len(), 2);
        assert_eq!(batch.queries[0].kind, QueryKind::Power);
        assert_eq!(batch.queries[0].workloads.len(), 1);
        assert!(batch.queries[0].sweep_values.is_empty());
        let sweep = &batch.queries[1];
        assert_eq!(sweep.workloads.len(), 5);
        assert_eq!(sweep.sweep_values, vec![1.0, 7.0, 13.0, 19.0, 25.0]);
        assert_eq!(sweep.workloads[2].param(ParamId::Apl), 13.0);
        assert_eq!(sweep.workloads[2].param(ParamId::Shd), 0.1);
    }

    #[test]
    fn errors_name_the_offending_query() {
        let line = r#"{"queries":[
            {"scheme":"base","machine":{"interconnect":"bus","processors":4}},
            {"scheme":"snoopy","machine":{"interconnect":"bus","processors":4}}
        ]}"#
        .replace('\n', " ");
        let err = parse_request(&line).unwrap_err();
        assert!(err.contains("query 1"), "{err}");
        assert!(err.contains("snoopy"), "{err}");
    }

    #[test]
    fn network_rejects_bus_only_requests() {
        let dragon =
            r#"{"queries":[{"scheme":"dragon","machine":{"interconnect":"network","stages":4}}]}"#;
        let err = parse_request(dragon).unwrap_err();
        assert!(err.contains("requires a bus"), "{err}");

        let penalty = r#"{"queries":[{"kind":"penalty","scheme":"base","machine":{"interconnect":"network","stages":4}}]}"#;
        let err = parse_request(penalty).unwrap_err();
        assert!(err.contains("power"), "{err}");
    }

    #[test]
    fn bus_processor_counts_are_capped() {
        let line = |n: u64| {
            format!(
                r#"{{"queries":[{{"scheme":"dragon","machine":{{"interconnect":"bus","processors":{n}}}}}]}}"#
            )
        };
        for n in [1, u64::from(MAX_BUS_PROCESSORS)] {
            assert!(parse_request(&line(n)).is_ok(), "{n} processors");
        }
        for n in [0, u64::from(MAX_BUS_PROCESSORS) + 1, u64::from(u32::MAX)] {
            let err = parse_request(&line(n)).unwrap_err();
            assert!(err.contains("query 0"), "{err}");
            assert!(err.contains("between 1 and 1024"), "{err}");
        }
    }

    #[test]
    fn sweep_bounds_are_validated() {
        let zero = r#"{"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4},"sweep":{"param":"shd","from":0.0,"to":0.1,"points":0}}]}"#;
        assert!(parse_request(zero).unwrap_err().contains("points"));

        let out_of_domain = r#"{"queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4},"sweep":{"param":"shd","from":0.0,"to":2.0,"points":3}}]}"#;
        let err = parse_request(out_of_domain).unwrap_err();
        assert!(err.contains("sweep point"), "{err}");
    }

    #[test]
    fn control_commands_parse() {
        assert!(matches!(
            parse_request(r#"{"cmd":"ping"}"#).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
        assert!(parse_request(r#"{"cmd":"reboot"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn telemetry_command_parses_with_options() {
        assert!(matches!(
            parse_request(r#"{"cmd":"telemetry"}"#).unwrap(),
            Request::Telemetry {
                slow: false,
                format: TelemetryFormat::Json
            }
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"telemetry","slow":true}"#).unwrap(),
            Request::Telemetry { slow: true, .. }
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"telemetry","format":"prometheus"}"#).unwrap(),
            Request::Telemetry {
                format: TelemetryFormat::Prometheus,
                ..
            }
        ));
        let err = parse_request(r#"{"cmd":"telemetry","format":"xml"}"#).unwrap_err();
        assert!(err.contains("prometheus"), "{err}");
    }

    #[test]
    fn batch_request_id_is_validated() {
        let ok = r#"{"request":"req-7","queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#;
        let Request::Batch(batch) = parse_request(ok).unwrap() else {
            panic!("expected a batch");
        };
        assert_eq!(batch.request.as_deref(), Some("req-7"));

        let long = format!(
            r#"{{"request":"{}","queries":[{{"scheme":"base","machine":{{"interconnect":"bus","processors":4}}}}]}}"#,
            "x".repeat(MAX_REQUEST_ID_LEN + 1)
        );
        assert!(parse_request(&long).unwrap_err().contains("request"));
        let empty = r#"{"request":"","queries":[{"scheme":"base","machine":{"interconnect":"bus","processors":4}}]}"#;
        assert!(parse_request(empty).is_err());
    }

    #[test]
    fn floats_round_trip_through_the_response_format() {
        use swcc_obs::push_json_f64;
        for v in [0.04992, 1.06912, f64::MIN_POSITIVE, 1.0 / 3.0, 16.0] {
            let mut s = String::new();
            push_json_f64(&mut s, v);
            let parsed: f64 = s.parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v}");
        }
        let mut s = String::new();
        push_json_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn error_response_escapes_the_message() {
        let resp = error_response(Some(3), "bad \"scheme\"");
        assert_eq!(resp, r#"{"ok":false,"id":3,"error":"bad \"scheme\""}"#);
    }
}
