//! Metric and trace-event names emitted by the query service.
//!
//! The serve layer reports traffic shape (requests, queries, batch
//! widths), cache effectiveness (hits / misses / coalesced admissions),
//! and solver amortization (solver calls vs lanes). Each server records
//! them into its own always-on registry (the one
//! [`ServeConfig::registry`](crate::ServeConfig::registry) passes, or a
//! private one built by [`register`]), which `stats`, `telemetry` and
//! `/metrics` all read. The trace events below are recorded only when a
//! trace sink is installed.

use swcc_obs::RegistryBuilder;

/// Request lines handled (control commands and batches alike).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Individual query points answered across all batch requests (each
/// sweep point counts once).
pub const SERVE_QUERIES: &str = "serve.queries";
/// Requests answered with an error response (parse failures, invalid
/// queries, solver errors, panics).
pub const SERVE_ERRORS: &str = "serve.errors";
/// Connections accepted by the listener pool.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Request lines rejected for exceeding their byte cap, on batch
/// connections and on the exposition listener; each closes its
/// connection.
pub const SERVE_OVERSIZED_LINES: &str = "serve.oversized_lines";
/// Connections closed because a request line did not complete within
/// the read timeout of its first byte, on batch connections and on the
/// exposition listener.
pub const SERVE_LINE_TIMEOUTS: &str = "serve.line_timeouts";

/// Admissions answered from a ready cache entry. These and the next two
/// count admissions, not points: a point whose flight was lost is
/// admitted, and counted, a second time.
pub const SERVE_CACHE_HITS: &str = "serve.cache.hits";
/// Admissions that claimed a cold cache slot, to be solved.
pub const SERVE_CACHE_MISSES: &str = "serve.cache.misses";
/// Admissions that attached to an in-flight solve instead of solving
/// (single-flight admission), another request's or this one's.
pub const SERVE_CACHE_COALESCED: &str = "serve.cache.coalesced";

/// Batch solver calls made on behalf of cache misses: one per machine
/// whose misses a request solves (an MVA grid per bus processor count,
/// a Patel batch per network stage count).
pub const SERVE_SOLVES: &str = "serve.solves";
/// Lanes submitted across all serve-side solver calls.
pub const SERVE_SOLVE_LANES: &str = "serve.solve_lanes";

/// `telemetry` protocol commands answered.
pub const SERVE_TELEMETRY_REQUESTS: &str = "serve.telemetry.requests";
/// Exposition-listener scrapes served (`--telemetry-addr`).
pub const SERVE_TELEMETRY_SCRAPES: &str = "serve.telemetry.scrapes";
/// Requests captured into the slow-request ring (over
/// `--slow-threshold-us`).
pub const SERVE_SLOW_CAPTURED: &str = "serve.slow.captured";
/// Lines appended to the structured access log.
pub const SERVE_ACCESS_LOG_LINES: &str = "serve.access_log.lines";
/// Access-log lines lost to write errors.
pub const SERVE_ACCESS_LOG_ERRORS: &str = "serve.access_log.errors";

/// Distribution of query points per batch request.
pub const SERVE_BATCH_WIDTH: &str = "serve.batch_width";
/// Distribution of wall-clock microseconds per request.
pub const SERVE_REQUEST_US: &str = "serve.request_us";
/// Distribution of microseconds spent waiting on another request's
/// in-flight solve: one observation per wait, a lost flight's retry
/// included.
pub const SERVE_FLIGHT_WAIT_US: &str = "serve.flight_wait_us";

// --- Trace event names (see `swcc_obs::trace`) -------------------------

/// Span around one batch request. Fields: `queries`, `points`.
pub const EV_SERVE_REQUEST: &str = "serve.request";
/// Span around one serve-side solver call. Fields: `machine`
/// (`"bus"` / `"network"`), `lanes`.
pub const EV_SERVE_SOLVE: &str = "serve.solve";

/// Registers every serve-layer metric on the builder.
#[must_use]
pub fn register(builder: RegistryBuilder) -> RegistryBuilder {
    builder
        .counter(SERVE_REQUESTS)
        .counter(SERVE_QUERIES)
        .counter(SERVE_ERRORS)
        .counter(SERVE_CONNECTIONS)
        .counter(SERVE_OVERSIZED_LINES)
        .counter(SERVE_LINE_TIMEOUTS)
        .counter(SERVE_CACHE_HITS)
        .counter(SERVE_CACHE_MISSES)
        .counter(SERVE_CACHE_COALESCED)
        .counter(SERVE_SOLVES)
        .counter(SERVE_SOLVE_LANES)
        .counter(SERVE_TELEMETRY_REQUESTS)
        .counter(SERVE_TELEMETRY_SCRAPES)
        .counter(SERVE_SLOW_CAPTURED)
        .counter(SERVE_ACCESS_LOG_LINES)
        .counter(SERVE_ACCESS_LOG_ERRORS)
        .histogram(
            SERVE_BATCH_WIDTH,
            &[
                1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
            ],
        )
        .histogram(
            SERVE_REQUEST_US,
            &[
                10.0,
                100.0,
                1_000.0,
                5_000.0,
                20_000.0,
                100_000.0,
                1_000_000.0,
            ],
        )
        .histogram(
            SERVE_FLIGHT_WAIT_US,
            &[
                10.0,
                100.0,
                1_000.0,
                5_000.0,
                20_000.0,
                100_000.0,
                1_000_000.0,
            ],
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_name() {
        let registry = register(RegistryBuilder::new()).build();
        for name in [
            SERVE_REQUESTS,
            SERVE_QUERIES,
            SERVE_ERRORS,
            SERVE_CONNECTIONS,
            SERVE_OVERSIZED_LINES,
            SERVE_LINE_TIMEOUTS,
            SERVE_CACHE_HITS,
            SERVE_CACHE_MISSES,
            SERVE_CACHE_COALESCED,
            SERVE_SOLVES,
            SERVE_SOLVE_LANES,
            SERVE_TELEMETRY_REQUESTS,
            SERVE_TELEMETRY_SCRAPES,
            SERVE_SLOW_CAPTURED,
            SERVE_ACCESS_LOG_LINES,
            SERVE_ACCESS_LOG_ERRORS,
        ] {
            assert_eq!(registry.counter_value(name), Some(0), "{name}");
        }
        for name in [SERVE_BATCH_WIDTH, SERVE_REQUEST_US, SERVE_FLIGHT_WAIT_US] {
            assert!(registry.histogram(name).is_some(), "{name}");
        }
    }
}
