//! Observability golden + property tests: the `dota-trace` hardware
//! counters must pin the paper's worked scheduling examples (Figs. 8–10)
//! and stay bitwise identical regardless of how many threads the host
//! fans work across.
//!
//! A session records only from the thread that opened it (and pool workers
//! it dispatches to), so these tests can run under the default
//! multi-threaded test harness without seeing each other's counters.

use dota_accel::sched;
use std::collections::BTreeMap;

/// The working example of Fig. 8: 4 queries attending to 5 keys.
fn fig8() -> Vec<Vec<u32>> {
    vec![vec![1, 2], vec![0, 1, 4], vec![1, 2], vec![0, 2, 4]]
}

/// The working example of Figs. 9/10.
fn fig9() -> Vec<Vec<u32>> {
    vec![vec![0, 1, 2], vec![1, 2, 3], vec![1, 4, 5], vec![2, 3, 4]]
}

#[test]
fn golden_fig8_row_by_row_vs_in_order() {
    // Fig. 8: row-by-row execution loads 10 keys; token-parallel in-order
    // scheduling of the same pattern loads only 5.
    let guard = dota_trace::session("fig8");
    let rbr = sched::row_by_row_loads(&fig8());
    let ino = sched::in_order_schedule(&fig8());
    assert_eq!(rbr, 10);
    assert_eq!(ino.total_loads(), 5);
    // The counters record exactly what the API returned.
    assert_eq!(guard.counter("sched.row_by_row.loads"), 10);
    assert_eq!(guard.counter("sched.in_order.loads"), 5);
}

#[test]
fn golden_fig9_in_order_vs_out_of_order() {
    // Figs. 9/10: in-order scheduling needs 11 loads; the out-of-order
    // locality-aware scheduler covers the same pattern with 7.
    let guard = dota_trace::session("fig9");
    let ino = sched::in_order_schedule(&fig9());
    let ooo = sched::locality_aware_schedule(&fig9());
    assert_eq!(ino.total_loads(), 11);
    assert_eq!(ooo.total_loads(), 7);
    assert_eq!(guard.counter("sched.in_order.loads"), 11);
    assert_eq!(guard.counter("sched.ooo.loads"), 7);
    // Reloads = loads beyond the 6 distinct keys of the pattern.
    assert_eq!(guard.counter("sched.in_order.reloads"), 5);
    assert_eq!(guard.counter("sched.ooo.reloads"), 1);
}

#[test]
fn counters_disabled_outside_sessions() {
    assert!(!dota_trace::enabled());
    let _ = sched::locality_aware_schedule(&fig9());
    let guard = dota_trace::session("empty");
    assert_eq!(guard.counter("sched.ooo.loads"), 0);
}

/// One deterministic end-to-end workload: tiny model + quantized detector
/// inference followed by a cycle-simulator replay of its trace. Returns
/// the complete counter snapshot of the run.
fn tiny_workload_counters() -> BTreeMap<String, u64> {
    use dota_accel::{AccelConfig, Accelerator};
    let guard = dota_trace::session("tiny-workload");
    let mut params = dota_autograd::ParamSet::new();
    let model = dota_transformer::Model::init(
        dota_transformer::TransformerConfig::tiny(16, 8, 2),
        &mut params,
        11,
    );
    let hook = dota_detector::DotaHook::init(
        dota_detector::DetectorConfig::new(0.25),
        model.config(),
        &mut params,
    );
    let ids = vec![1usize, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0];
    let trace = model.infer(&params, &ids, &hook.inference(&params));
    let _ = Accelerator::new(AccelConfig::default()).simulate_trace(model.config(), &trace);
    guard.counters()
}

#[test]
fn counters_identical_across_thread_counts() {
    // Every counter is a u64 sum of per-item contributions, and u64
    // addition is commutative and associative — so totals are bitwise
    // identical no matter how `dota-parallel` partitions the work. The
    // same workload also backs `counters_baseline --check`, which compares
    // the serial and `--features parallel` builds across processes.
    let snapshots: Vec<_> = [1, 4, 8]
        .map(|threads| {
            (
                threads,
                dota_parallel::with_threads(threads, tiny_workload_counters),
            )
        })
        .to_vec();
    let (_, first) = &snapshots[0];
    assert!(!first.is_empty());
    for (threads, snap) in &snapshots[1..] {
        assert_eq!(
            snap, first,
            "counters drifted between 1 and {threads} pool workers"
        );
    }
    // Sanity: the workload exercised detection, attention and the replay.
    assert_eq!(first["attn.heads"], 4);
    assert_eq!(first["detector.selections"], 4);
    assert_eq!(first["attn.connections.total"], 4 * 16 * 16);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_selections() -> impl Strategy<Value = Vec<Vec<u32>>> {
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..16, 0..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..5,
        )
    }

    proptest! {
        /// The counter view of scheduler dominance: the out-of-order
        /// scheduler never *issues* (counter, not return value) more key
        /// loads than in-order, which never issues more than row-by-row.
        #[test]
        fn ooo_counter_never_exceeds_in_order(sel in arb_selections()) {
            let guard = dota_trace::session("prop-dominance");
            let _ = sched::row_by_row_loads(&sel);
            let _ = sched::in_order_schedule(&sel);
            let _ = sched::locality_aware_schedule(&sel);
            let ooo = guard.counter("sched.ooo.loads");
            let ino = guard.counter("sched.in_order.loads");
            let rbr = guard.counter("sched.row_by_row.loads");
            prop_assert!(ooo <= ino, "ooo {ooo} > in-order {ino}");
            prop_assert!(ino <= rbr, "in-order {ino} > row-by-row {rbr}");
        }

        /// Every detected (query, key) pair is assigned in exactly one
        /// round, and the assignment counter agrees with both the
        /// schedule structure and the input pattern size.
        #[test]
        fn every_detected_pair_assigned_exactly_once(sel in arb_selections()) {
            let guard = dota_trace::session("prop-exactly-once");
            let s = sched::locality_aware_schedule(&sel);
            let total: usize = sel.iter().map(Vec::len).sum();
            let mut seen = std::collections::HashSet::new();
            for round in &s.rounds {
                for &(q, k) in &round.assignments {
                    prop_assert!(seen.insert((q, k)), "pair ({q},{k}) assigned twice");
                    prop_assert!(sel[q].contains(&k), "pair ({q},{k}) never detected");
                }
            }
            prop_assert_eq!(seen.len(), total, "some detected pair was never assigned");
            prop_assert_eq!(guard.counter("sched.ooo.assignments"), total as u64);
            // Reload accounting: loads = distinct keys + reloads.
            let distinct: std::collections::HashSet<u32> =
                sel.iter().flatten().copied().collect();
            prop_assert_eq!(
                guard.counter("sched.ooo.loads"),
                distinct.len() as u64 + guard.counter("sched.ooo.reloads")
            );
        }
    }
}
