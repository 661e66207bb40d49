//! Live telemetry plane for `dota serve`.
//!
//! Every earlier observability layer (counters, JSONL metrics, profiles,
//! request timelines) is post-hoc: the run must end before anything is
//! visible. This crate makes the serving engine observable *while it
//! moves*, without perturbing it:
//!
//! * [`exposition`] — a Prometheus text-format encoder and strict
//!   validator. The encoder snapshots `dota-trace` counters, live serve
//!   gauges, and `dota-metrics` histograms (cumulative buckets, exact
//!   `_sum`/`_count`) into valid exposition format; the validator is the
//!   same grammar check CI lints scraped output with.
//! * [`event`] — the vocabulary of the serve event spine: the engine
//!   emits one cycle-stamped [`ServeEvent`] per scheduler transition, and
//!   every observer (here and in `dota-serve`) is an [`EventSink`] folding
//!   that one stream.
//! * [`gauges`] — a shared [`ServeGauges`] cell holding the latest step
//!   boundary's state (queue depth, occupancy, SLO burn, retention rung,
//!   admission-gate state, quarantined lanes, per-lane retained work),
//!   which the endpoint reads at scrape time.
//! * [`http`] — a minimal blocking HTTP/1.1 listener
//!   ([`MetricsServer`]) serving `GET /metrics` from a background
//!   thread, plus the tiny client [`http::get`] the tests scrape it
//!   with. Zero dependencies: `std::net` only. An operator's live view
//!   is a scrape: `curl -s HOST:PORT/metrics | grep '^dota_serve_'`.
//! * [`flight`] — a bounded ring buffer ([`FlightRecorder`]) keeping the
//!   tail of the stream's control history: admissions, terminals, controller
//!   rung changes and gate flips, fault retries, quarantine
//!   enter/probe/exit. Dumped as canonical, byte-deterministic
//!   `flight.json` on typed failure, on SIGTERM, or via `--flight-out`,
//!   and diffable with `dota report diff`.
//!
//! Everything here is **observation-only**: recorders never feed back
//! into scheduling, so every committed baseline stays byte-identical
//! whether telemetry is enabled or not. Events and gauges are stamped
//! with simulated cycles, never wall time, so `flight.json` is identical
//! across thread counts and build modes.

#![deny(missing_docs)]

pub mod event;
pub mod exposition;
pub mod flight;
pub mod gauges;
pub mod http;

pub use event::{
    DeadlineClass, EventSink, FinishReason, ServeEvent, SloReading, StepRecord, Transition,
};
pub use flight::{flight_kind, FlightEvent, FlightHandle, FlightRecorder, FLIGHT_VERSION};
pub use gauges::{GaugesSample, ServeGauges};
pub use http::MetricsServer;

use std::sync::atomic::{AtomicBool, Ordering};

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sigterm {
    /// `SIGTERM` on every unix this repo targets.
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        // A relaxed store is async-signal-safe; no allocation, no locks.
        super::TERM_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    extern "C" {
        // libc's classic signal(2); std already links libc, so no crate
        // dependency is needed. The returned previous handler is unused.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(super) fn install() {
        // SAFETY: installing an async-signal-safe handler (single relaxed
        // atomic store) for SIGTERM; signal(2) itself has no memory
        // preconditions beyond a valid handler pointer.
        unsafe {
            signal(SIGTERM, on_term);
        }
    }
}

/// Installs a `SIGTERM` handler that records the request in a flag read
/// by [`term_requested`], letting `dota serve --metrics-addr` keep its
/// endpoint alive until an operator (or CI) tears it down, then dump the
/// flight recorder and exit cleanly. Idempotent; a no-op off unix.
pub fn install_term_handler() {
    #[cfg(unix)]
    sigterm::install();
}

/// `true` once a `SIGTERM` arrived after [`install_term_handler`].
pub fn term_requested() -> bool {
    TERM_REQUESTED.load(Ordering::Relaxed)
}
