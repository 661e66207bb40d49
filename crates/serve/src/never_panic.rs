//! Never-panic properties for the outside inputs the serve path parses:
//! `--faults` specs and site names, `--shed` policies, `/metrics` scrapes
//! (the exposition linter and sample reader) and the JSON `report diff` and
//! `analyze --serve` read. Each parser sees arbitrary bytes (lossy UTF-8)
//! and mutations of a valid document, and must answer `Ok` or `Err` —
//! never panic — in bounded time. The numbers `dota serve` takes run the
//! engine at the extremes validation lets through.

use crate::engine::{MAX_CAPACITY, MAX_SLO_WINDOW};
use crate::idle_tests::{run_model, Cases};
use crate::{report::MAX_REQUESTS, FinishReason, ShedPolicy};
use dota_faults::{FaultPlan, FaultSite};
use dota_metrics::Histogram;
use dota_telemetry::{exposition, GaugesSample, Transition};
use dota_transformer::MAX_SEQ_LEN;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fragments a mutation splices in: the grammar's own delimiters, escapes
/// and number edge cases.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", "\\", "\\u", "\\ud800", "\\u00e9", ",", ":", "=", "\n", "\r\n", "#",
    "# TYPE ", "# HELP ", " ", "-", ".", "e308", "1e999", "-0", "NaN", "+Inf", "inf", "_bucket",
    "{le=\"", "\"}", "99999999999999999999999", "null", "true", "é", "\u{feff}", "\0",
];

/// `base` with each word of `edits` applied as one mutation: overwrite,
/// insert or delete a byte run, duplicate a run, truncate, or splice in a
/// [`TOKENS`] fragment.
fn mutate(base: &str, edits: &[u64]) -> String {
    let mut b = base.as_bytes().to_vec();
    for &w in edits {
        let at = (w >> 8) as usize % (b.len() + 1);
        let n = 1 + (w >> 40) as usize % 16;
        let end = (at + n).min(b.len());
        match w % 6 {
            0 => b.splice(at..end, [(w >> 32) as u8]).for_each(drop),
            1 => b.insert(at, (w >> 32) as u8),
            2 => b.drain(at..end).for_each(drop),
            3 => {
                let run = b[at..end].to_vec();
                b.splice(at..at, run).for_each(drop);
            }
            4 => b.truncate(at),
            _ => {
                let token = TOKENS[(w >> 48) as usize % TOKENS.len()];
                b.splice(at..at, token.bytes()).for_each(drop);
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Runs one parse; fails the test with the input when it panics or takes
/// longer than a second (every parser here is a single pass).
fn never_panics(what: &str, input: &str, parse: impl FnOnce()) {
    let t0 = Instant::now();
    if catch_unwind(AssertUnwindSafe(parse)).is_err() {
        panic!("{what} panicked on {input:?}");
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "{what} took {took:?} on {input:?}"
    );
}

/// The two inputs of a case: a mutated `base` and raw `noise`.
fn inputs(base: &str, edits: &[u64], noise: &[u8]) -> [String; 2] {
    [
        mutate(base, edits),
        String::from_utf8_lossy(noise).into_owned(),
    ]
}

/// A scrape as `/metrics` serves it: every family kind, labels included.
fn exposition_document() -> String {
    let counters = BTreeMap::from([
        ("serve.steps".to_owned(), 42),
        ("faults.serve.probes".to_owned(), 3),
    ]);
    let gauges = GaugesSample {
        cell: "serve[slo@4x]".into(),
        cycle: 5000,
        steps: 17,
        queue_depth: 3,
        occupancy: 2,
        capacity: 4,
        admitted: 21,
        decoded_tokens: 130,
        slo_hit_rate_milli: Some(925),
        slo_burn_milli: Some(1310),
        rung: Some(2),
        gate_closed: Some(false),
        quarantined_lanes: 1,
        lane_retained: vec![4, 0, 2, 7],
        lane_skew_milli: 1333,
    };
    let mut h = Histogram::new();
    h.record_all([0.5, 1.0, 2.0, 40.0]);
    let hists = BTreeMap::from([("serve.e2e_us".to_owned(), h)]);
    exposition::render(&counters, &gauges, &hists)
}

/// JSON documents `report diff` and `analyze --serve` are pointed at.
const JSON_DOCUMENTS: [&str; 2] = [
    include_str!("../../../results/serve_baseline.json"),
    include_str!("../../../results/serve_chaos_baseline.json"),
];

proptest! {
    #[test]
    fn fault_spec_parsing_never_panics(
        base in 0usize..3,
        edits in vec(any::<u64>(), 0..9),
        noise in vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
    ) {
        let valid = [
            "slot.fail=0.05,kv.corrupt=0.02,decode.timeout=0.05",
            "dram.read=0.5, attn.input=1,,",
            "detector.corrupt=1e-3",
        ];
        for input in inputs(valid[base], &edits, &noise) {
            never_panics("FaultPlan::parse_spec", &input, || {
                if let Ok(plan) = FaultPlan::parse_spec(seed, &input) {
                    assert!(FaultSite::ALL.iter().all(|&s| (0.0..=1.0).contains(&plan.rate(s))));
                }
            });
            for name in input.split([',', '=']) {
                never_panics("FaultSite::parse", name, || {
                    let _ = FaultSite::parse(name);
                });
            }
        }
    }

    #[test]
    fn shed_policy_parsing_never_panics(
        base in 0usize..3,
        edits in vec(any::<u64>(), 0..5),
        noise in vec(any::<u8>(), 0..24),
    ) {
        let valid = ["queue", "retention", "slo"];
        for input in inputs(valid[base], &edits, &noise) {
            never_panics("ShedPolicy::parse", &input, || {
                let _ = ShedPolicy::parse(&input);
            });
        }
    }

    #[test]
    fn exposition_parsing_never_panics(
        edits in vec(any::<u64>(), 1..9),
        noise in vec(any::<u8>(), 0..256),
    ) {
        let valid = exposition_document();
        assert!(exposition::validate(&valid).is_ok());
        for input in inputs(&valid, &edits, &noise) {
            never_panics("exposition::validate / parse", &input, || {
                // The linter is the stricter of the two readers.
                if exposition::validate(&input).is_ok() {
                    assert!(exposition::parse(&input).is_ok());
                } else {
                    let _ = exposition::parse(&input);
                }
            });
        }
    }

    /// Deadlines, retry backoff and quarantine windows up to the largest
    /// values validation accepts: every request terminates once, waits out
    /// at least its base backoff per retry, and with a deadline of weeks
    /// never expires while lost lanes come back within days. A request
    /// count, width, length or SLO window past its bound, or a load so low
    /// its trace outruns the cycle clock, is a typed error naming the value.
    #[test]
    fn extreme_serve_values_never_panics(
        case in Cases,
        deadline_log2 in 0i32..=80,
        backoff_log2 in 0u32..=80,
        quarantine_log2 in 0u32..=80,
        capacity_log2 in 0u32..16,
        seq_log2 in 3u32..20,
        requests in 0usize..24,
        slo_log2 in 0u32..24,
        load_log10 in -300i32..300,
    ) {
        let mut case = case;
        if load_log10 < 0 {
            case.load = 10f64.powi(load_log10);
        }
        let o = &mut case.opts;
        (o.capacity, o.seq) = (1 << capacity_log2, 1 << seq_log2);
        (o.requests, o.slo_window, o.loads) = (requests, 1 << slo_log2, vec![case.load]);
        let deadline_us = if deadline_log2 >= 70 { f64::MAX } else { 2f64.powi(deadline_log2) };
        (o.interactive_deadline_us, o.batch_deadline_us) = (deadline_us, deadline_us);
        if let Err(e) = o.validate() {
            let past = o.capacity > MAX_CAPACITY || o.slo_window > MAX_SLO_WINDOW;
            let off = !(16..=MAX_SEQ_LEN).contains(&o.seq) || o.requests > MAX_REQUESTS;
            prop_assert!(past || off || o.requests == 0 || case.load < 1e-6, "{e}");
            let load = format!("{:?}", case.load);
            let named = [o.capacity, o.seq, o.requests, o.slo_window].map(|v| v.to_string());
            prop_assert!(named.iter().chain([&load]).any(|v| e.contains(v.as_str())), "{e}");
            return;
        }
        let backoff = 1u64.checked_shl(backoff_log2).unwrap_or(u64::MAX);
        case.cfg = o.serve_config(case.cfg.shed);
        case.cfg.retry_backoff_cycles = backoff;
        case.cfg.quarantine_cycles = 1u64.checked_shl(quarantine_log2).unwrap_or(u64::MAX);
        let (w, _) = run_model(&case, false);
        let mut ids: Vec<u64> = w.outcome.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..case.opts.requests as u64).collect::<Vec<_>>());
        let mut retried = BTreeMap::new();
        for ev in &w.stream {
            if let Transition::Retry { id, .. } = ev.what {
                retried.insert(id, ev.cycle);
            } else if let Transition::Admitted { id, attempt: 1.., .. } = ev.what {
                prop_assert!(ev.cycle >= retried[&id].saturating_add(backoff), "request {id}");
            }
        }
        for c in w.outcome.completions.iter().filter(|_| deadline_log2 >= 40 && quarantine_log2 < 40) {
            let expired = [FinishReason::QueueExpired, FinishReason::DeadlineEvicted];
            prop_assert!(!expired.contains(&c.reason), "request {} {:?}", c.id, c.reason);
        }
    }

    #[test]
    fn json_parsing_never_panics(
        base in 0usize..2,
        edits in vec(any::<u64>(), 1..9),
        noise in vec(any::<u8>(), 0..256),
    ) {
        for input in inputs(JSON_DOCUMENTS[base], &edits, &noise) {
            never_panics("serde_json::parse", &input, || {
                let _ = serde_json::parse(&input);
            });
        }
    }
}

/// Nesting is bounded, not a stack overflow: a `report diff` input of a
/// hundred thousand open brackets is an error like any other.
#[test]
fn deep_json_nesting_never_panics() {
    for open in ["[", "{\"a\":", "[{\"b\":"] {
        let input = open.repeat(100_000);
        never_panics("serde_json::parse", open, || {
            assert!(serde_json::parse(&input).is_err());
        });
    }
    let nested = format!("{}1{}", "[".repeat(100), "]".repeat(100));
    assert!(serde_json::parse(&nested).is_ok());
}
