//! Token-parallel dataflow and the locality-aware Scheduler (paper §4.3).
//!
//! The attention output `O = softmax(Q K^T) V` is computed over the
//! *detected* sparse graph. Three dataflows are modeled, matching the
//! paper's worked examples:
//!
//! * **Row-by-row** (prior work): each query processes its keys alone;
//!   every selected connection costs one key-vector load (Fig. 8, 10
//!   loads);
//! * **Token-parallel, in-order**: `T` queries proceed in lockstep, each
//!   consuming its selected keys in index order; keys needed by several
//!   queries *in the same round* are loaded once (Fig. 8, 5 loads; Fig. 9,
//!   11 loads);
//! * **Token-parallel, out-of-order**: Algorithm 1 — IDs are binned into
//!   `2^T - 1` buffers by the bitmask of queries that need them, and each
//!   round greedily issues the most-shared ID first, topping up unassigned
//!   queries from their best remaining buffers (Fig. 9/10, 7 loads).

use std::collections::VecDeque;

/// One scheduling round: the key IDs loaded and which queries consume them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Distinct key IDs loaded from SRAM/DRAM this round.
    pub loads: Vec<u32>,
    /// `(query_index, key_id)` work assignments; at most one per query.
    pub assignments: Vec<(usize, u32)>,
}

/// A complete schedule for one token-parallel group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Rounds in issue order.
    pub rounds: Vec<Round>,
}

impl Schedule {
    /// Total key-vector loads across all rounds (the paper's "total mem
    /// access" metric; a key reloaded in a later round counts again).
    pub fn total_loads(&self) -> u64 {
        self.rounds.iter().map(|r| r.loads.len() as u64).sum()
    }

    /// Number of rounds (the group's makespan in key-steps).
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Total `(query, key)` assignments.
    pub fn total_assignments(&self) -> u64 {
        self.rounds.iter().map(|r| r.assignments.len() as u64).sum()
    }
}

/// Records a produced schedule's aggregate counters under the given
/// dataflow prefix (`sched.<prefix>.*`). No-op outside a trace session.
fn record_schedule(prefix: &str, s: &Schedule) {
    if !dota_trace::enabled() {
        return;
    }
    dota_trace::count(&format!("sched.{prefix}.loads"), s.total_loads());
    dota_trace::count(&format!("sched.{prefix}.rounds"), s.round_count() as u64);
    dota_trace::count(
        &format!("sched.{prefix}.assignments"),
        s.total_assignments(),
    );
    // A key loaded in more than one round was split across rounds and
    // re-fetched (Fig. 10's k5): reloads = total loads − distinct keys.
    let distinct: std::collections::BTreeSet<u32> = s
        .rounds
        .iter()
        .flat_map(|r| r.loads.iter().copied())
        .collect();
    dota_trace::count(
        &format!("sched.{prefix}.reloads"),
        s.total_loads() - distinct.len() as u64,
    );
}

/// Key loads of the row-by-row dataflow: every selected connection loads
/// its key vector (no cross-query sharing).
pub fn row_by_row_loads(selections: &[Vec<u32>]) -> u64 {
    let loads = selections.iter().map(|s| s.len() as u64).sum();
    dota_trace::count("sched.row_by_row.loads", loads);
    loads
}

/// In-order token-parallel schedule: queries advance through their
/// selections in the given order, synchronously; a round loads the distinct
/// keys its assignments touch.
///
/// Records `sched.in_order.*` counters when a trace session is active.
pub fn in_order_schedule(selections: &[Vec<u32>]) -> Schedule {
    let s = in_order_schedule_impl(selections);
    record_schedule("in_order", &s);
    s
}

/// Uninstrumented in-order schedule (shared by the public wrapper and the
/// out-of-order fallback, which must not bump `sched.in_order.*`).
fn in_order_schedule_impl(selections: &[Vec<u32>]) -> Schedule {
    let mut rounds = Vec::new();
    let max_len = selections.iter().map(Vec::len).max().unwrap_or(0);
    for step in 0..max_len {
        let mut loads = Vec::new();
        let mut assignments = Vec::new();
        for (q, sel) in selections.iter().enumerate() {
            if let Some(&key) = sel.get(step) {
                if !loads.contains(&key) {
                    loads.push(key);
                }
                assignments.push((q, key));
            }
        }
        rounds.push(Round { loads, assignments });
    }
    Schedule { rounds }
}

/// Key loads of the in-order token-parallel schedule without its rounds:
/// the distinct keys the group's queries touch at each step, summed.
fn in_order_loads(selections: &[Vec<u32>]) -> u64 {
    let max_len = selections.iter().map(Vec::len).max().unwrap_or(0);
    let mut loads = 0;
    for step in 0..max_len {
        for (q, sel) in selections.iter().enumerate() {
            if let Some(key) = sel.get(step) {
                let seen = selections[..q]
                    .iter()
                    .any(|earlier| earlier.get(step) == Some(key));
                loads += u64::from(!seen);
            }
        }
    }
    loads
}

/// The Scheduler's ID buffers (§4.3) as flat storage: one FIFO per owner
/// bitmask, indexed by the mask itself and kept across the groups of a
/// matrix, so that after the first group binning and issue allocate only
/// the rounds they emit.
#[derive(Debug, Default)]
struct IdBuffers {
    /// `fifo[mask]`: key IDs whose not-yet-served owners are exactly `mask`.
    fifo: Vec<VecDeque<u32>>,
    /// Masks whose FIFO has held an ID during the current group, ascending:
    /// the buffers a pick compares, in the order that breaks its ties.
    live: Vec<u32>,
    /// IDs buffered across all FIFOs; a group is done at zero.
    buffered: usize,
    /// One `key << 32 | query bit` per connection of the group: sorted, the
    /// run of a key ORs into its owner mask.
    pairs: Vec<u64>,
}

impl IdBuffers {
    fn push(&mut self, mask: u32, key: u32) {
        let fifo = &mut self.fifo[mask as usize];
        if fifo.is_empty() {
            if let Err(at) = self.live.binary_search(&mask) {
                self.live.insert(at, mask);
            }
        }
        fifo.push_back(key);
        self.buffered += 1;
    }

    /// Bins the group's key IDs by owner bitmask, each FIFO in ascending
    /// key order.
    fn fill(&mut self, selections: &[Vec<u32>]) {
        debug_assert_eq!(self.buffered, 0, "previous group left IDs behind");
        let n_masks = 1usize << selections.len();
        if self.fifo.len() < n_masks {
            self.fifo.resize_with(n_masks, VecDeque::new);
        }
        self.live.clear();
        self.pairs.clear();
        for (q, sel) in selections.iter().enumerate() {
            let bit = 1u64 << q;
            self.pairs
                .extend(sel.iter().map(|&key| u64::from(key) << 32 | bit));
        }
        self.pairs.sort_unstable();
        let mut i = 0;
        while i < self.pairs.len() {
            let key = (self.pairs[i] >> 32) as u32;
            let mut mask = 0u32;
            while i < self.pairs.len() && (self.pairs[i] >> 32) as u32 == key {
                mask |= self.pairs[i] as u32;
                i += 1;
            }
            self.push(mask, key);
        }
    }

    /// The non-empty buffer serving the most `unassigned` queries;
    /// tie-break toward fewer already-assigned owners (don't split shared
    /// keys needlessly), then lower mask for determinism. `None` when the
    /// remaining IDs belong only to already-assigned queries.
    fn best(&self, unassigned: u32, assigned: u32) -> Option<u32> {
        let mut best: Option<(u32, u32, u32)> = None; // (mask, served, overlap)
        for &mask in &self.live {
            let served = (mask & unassigned).count_ones();
            if served == 0 || self.fifo[mask as usize].is_empty() {
                continue;
            }
            let overlap = (mask & assigned).count_ones();
            let better = match best {
                None => true,
                Some((_, bs, bo)) => served > bs || (served == bs && overlap < bo),
            };
            if better {
                best = Some((mask, served, overlap));
            }
        }
        best.map(|(mask, _, _)| mask)
    }

    /// Uninstrumented Algorithm 1 greedy (see [`locality_aware_schedule`]).
    fn greedy(&mut self, selections: &[Vec<u32>]) -> Schedule {
        let t = selections.len();
        assert!(
            t <= 16,
            "token parallelism {t} exceeds the modeled scheduler"
        );
        self.fill(selections);
        let mut rounds = Vec::new();
        while self.buffered > 0 {
            let mut assigned: u32 = 0;
            let mut loads = Vec::with_capacity(t);
            let mut assignments = Vec::with_capacity(t);
            loop {
                let unassigned = !assigned & ((1u32 << t) - 1);
                if unassigned == 0 {
                    break;
                }
                let Some(mask) = self.best(unassigned, assigned) else {
                    break;
                };
                let key = self.fifo[mask as usize]
                    .pop_front()
                    .expect("candidate exists");
                self.buffered -= 1;
                let serve_mask = mask & unassigned;
                for q in 0..t {
                    if serve_mask & (1 << q) != 0 {
                        assignments.push((q, key));
                    }
                }
                loads.push(key);
                assigned |= serve_mask;
                // Residual owners get the ID back for a later round.
                let residual = mask & !serve_mask;
                if residual != 0 {
                    self.push(residual, key);
                }
            }
            debug_assert!(!loads.is_empty(), "round made no progress");
            rounds.push(Round { loads, assignments });
        }
        Schedule { rounds }
    }

    /// [`locality_aware_schedule`] on these buffers.
    fn schedule(&mut self, selections: &[Vec<u32>]) -> Schedule {
        let greedy = self.greedy(selections);
        let s = if greedy.total_loads() > in_order_loads(selections) {
            dota_trace::count("sched.ooo.fallbacks", 1);
            in_order_schedule_impl(selections)
        } else {
            greedy
        };
        record_schedule("ooo", &s);
        s
    }
}

/// Algorithm 1: locality-aware out-of-order schedule for one group of up to
/// `T = selections.len()` queries (the paper uses `T = 4`).
///
/// Key IDs are binned by the bitmask of queries that selected them. Each
/// round greedily issues the ID serving the most still-unassigned queries;
/// when an issued ID also belongs to already-assigned queries, it is moved
/// to the residual-owner buffer and will be reloaded later, exactly like
/// `k5` in the paper's Fig. 10 walk-through.
///
/// The greedy most-shared-first heuristic (like the paper's FSM) is not
/// inherently point-wise dominant over in-order issue, so this wrapper
/// compares against the in-order load count and falls back to the in-order
/// schedule on the rare instance where greedy loses — making "out-of-order
/// never issues more loads than in-order" an invariant of the public API,
/// not just an aggregate tendency. Fallbacks are counted under
/// `sched.ooo.fallbacks`.
///
/// Records `sched.ooo.*` counters when a trace session is active.
///
/// # Panics
///
/// Panics if more than 16 queries are grouped (buffer count `2^T - 1`
/// explodes past any practical Scheduler, Fig. 15).
pub fn locality_aware_schedule(selections: &[Vec<u32>]) -> Schedule {
    IdBuffers::default().schedule(selections)
}

/// Schedules a whole attention matrix by splitting its query rows into
/// groups of `token_parallelism` and scheduling each group independently;
/// returns the concatenated schedule and the total key loads.
pub fn schedule_matrix(
    selections: &[Vec<u32>],
    token_parallelism: usize,
    out_of_order: bool,
) -> Schedule {
    assert!(token_parallelism > 0, "token parallelism must be positive");
    let mut all = Schedule::default();
    let mut buffers = IdBuffers::default();
    for group in selections.chunks(token_parallelism) {
        let s = if out_of_order {
            buffers.schedule(group)
        } else {
            in_order_schedule(group)
        };
        all.rounds.extend(s.rounds);
    }
    all
}

/// ID-buffer count required by a Scheduler with token parallelism `t`
/// (`2^t - 1`, Fig. 15's right axis).
pub fn buffer_requirement(t: usize) -> u64 {
    assert!(t < 64, "unreasonable token parallelism");
    (1u64 << t) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 8's 4×5 example: q1={k2,k3}, q2={k1,k2,k5}, q3={k2,k3},
    /// q4={k1,k3,k5} (0-indexed keys below).
    fn fig8() -> Vec<Vec<u32>> {
        vec![vec![1, 2], vec![0, 1, 4], vec![1, 2], vec![0, 2, 4]]
    }

    /// Fig. 9's balanced 4×6 example: q1={k1,k2,k3}, q2={k2,k3,k4},
    /// q3={k2,k5,k6}, q4={k3,k4,k5}.
    fn fig9() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 2], vec![1, 2, 3], vec![1, 4, 5], vec![2, 3, 4]]
    }

    #[test]
    fn fig8_row_by_row_is_ten_loads() {
        assert_eq!(row_by_row_loads(&fig8()), 10);
    }

    #[test]
    fn fig8_token_parallel_is_five_loads() {
        let s = in_order_schedule(&fig8());
        assert_eq!(s.total_loads(), 5, "{s:?}");
    }

    #[test]
    fn fig9_in_order_is_eleven_loads() {
        assert_eq!(in_order_schedule(&fig9()).total_loads(), 11);
    }

    #[test]
    fn fig9_out_of_order_is_seven_loads() {
        let s = locality_aware_schedule(&fig9());
        assert_eq!(s.total_loads(), 7, "{s:?}");
        // Balanced workload: exactly 3 rounds, 4 assignments each.
        assert_eq!(s.round_count(), 3);
        for r in &s.rounds {
            assert_eq!(r.assignments.len(), 4);
        }
    }

    #[test]
    fn every_connection_scheduled_exactly_once() {
        for sched_fn in [
            in_order_schedule as fn(&[Vec<u32>]) -> Schedule,
            locality_aware_schedule,
        ] {
            let sel = fig9();
            let s = sched_fn(&sel);
            let mut seen = std::collections::HashSet::new();
            for r in &s.rounds {
                for &(q, k) in &r.assignments {
                    assert!(seen.insert((q, k)), "duplicate assignment ({q},{k})");
                }
            }
            let expected: usize = sel.iter().map(Vec::len).sum();
            assert_eq!(seen.len(), expected);
            for (q, keys) in sel.iter().enumerate() {
                for &k in keys {
                    assert!(seen.contains(&(q, k)));
                }
            }
        }
    }

    #[test]
    fn at_most_one_key_per_query_per_round() {
        let s = locality_aware_schedule(&fig9());
        for r in &s.rounds {
            let mut qs: Vec<usize> = r.assignments.iter().map(|&(q, _)| q).collect();
            qs.sort_unstable();
            let before = qs.len();
            qs.dedup();
            assert_eq!(qs.len(), before, "query double-assigned in a round");
        }
    }

    #[test]
    fn out_of_order_beats_in_order_in_aggregate() {
        // With the in-order fallback the scheduler never loses point-wise;
        // this test pins the stronger aggregate claim: across many balanced
        // instances it must win clearly, not merely tie.
        use dota_tensor::rng::SeededRng;
        let mut rng = SeededRng::new(42);
        let mut ino_total = 0u64;
        let mut ooo_total = 0u64;
        for trial in 0..50 {
            let n_keys = 24;
            let k = 2 + trial % 5;
            let sel: Vec<Vec<u32>> = (0..4)
                .map(|_| {
                    rng.sample_indices(n_keys, k)
                        .into_iter()
                        .map(|i| i as u32)
                        .collect()
                })
                .collect();
            ino_total += in_order_schedule(&sel).total_loads();
            let ooo = locality_aware_schedule(&sel).total_loads();
            ooo_total += ooo;
            assert!(
                ooo >= row_by_row_loads(&sel) / 4,
                "can't beat perfect sharing"
            );
        }
        assert!(
            ooo_total < ino_total,
            "aggregate ooo {ooo_total} should beat in-order {ino_total}"
        );
    }

    #[test]
    fn empty_and_singleton_groups() {
        assert_eq!(locality_aware_schedule(&[]).total_loads(), 0);
        let one = vec![vec![3u32, 1, 2]];
        let s = locality_aware_schedule(&one);
        assert_eq!(s.total_loads(), 3);
        assert_eq!(s.total_assignments(), 3);
    }

    #[test]
    fn unbalanced_rows_handled() {
        // One query has many keys, others few: rounds continue until all
        // work drains.
        let sel = vec![vec![0, 1, 2, 3, 4], vec![0], vec![1], vec![]];
        let s = locality_aware_schedule(&sel);
        assert_eq!(s.total_assignments(), 7);
        // q0 needs 5 rounds while q1/q2 finish in round one, so exactly one
        // of the shared keys must split and reload; total loads are 6
        // (5 distinct keys + 1 reload), and the most-shared key issued
        // first (k0, serving q0+q1) is never reloaded.
        assert_eq!(s.total_loads(), 6);
        let all_loads: Vec<u32> = s.rounds.iter().flat_map(|r| r.loads.clone()).collect();
        assert_eq!(all_loads.iter().filter(|&&k| k == 0).count(), 1);
    }

    #[test]
    fn schedule_matrix_groups_rows() {
        let sel: Vec<Vec<u32>> = (0..8).map(|i| vec![i as u32 % 4]).collect();
        let s = schedule_matrix(&sel, 4, true);
        assert_eq!(s.total_assignments(), 8);
        // Each group of 4 queries needs 4 distinct keys; loads ≥ 8? No —
        // within a group all 4 keys differ, so 4 loads per group.
        assert_eq!(s.total_loads(), 8);
    }

    #[test]
    fn buffer_requirement_exponential() {
        assert_eq!(buffer_requirement(1), 1);
        assert_eq!(buffer_requirement(4), 15);
        assert_eq!(buffer_requirement(6), 63);
    }

    #[test]
    fn more_parallelism_fewer_loads_on_shared_patterns() {
        // All queries share the same keys: parallelism T divides loads by T.
        let sel: Vec<Vec<u32>> = (0..8).map(|_| vec![0, 1, 2]).collect();
        let t1 = schedule_matrix(&sel, 1, true).total_loads();
        let t4 = schedule_matrix(&sel, 4, true).total_loads();
        let t8 = schedule_matrix(&sel, 8, true).total_loads();
        assert_eq!(t1, 24);
        assert_eq!(t4, 6);
        assert_eq!(t8, 3);
    }

    /// The Algorithm 1 greedy the flat-buffer scheduler replaced, kept as
    /// its oracle: owner masks and ID buffers in `BTreeMap`s, `remove(0)`
    /// for the FIFO pop.
    fn locality_aware_schedule_oracle(selections: &[Vec<u32>]) -> Schedule {
        use std::collections::BTreeMap;
        let t = selections.len();
        if t == 0 {
            return Schedule::default();
        }
        let mut owners: BTreeMap<u32, u32> = BTreeMap::new(); // key -> query mask
        for (q, sel) in selections.iter().enumerate() {
            for &key in sel {
                *owners.entry(key).or_insert(0) |= 1 << q;
            }
        }
        let mut buffers: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (key, mask) in owners {
            buffers.entry(mask).or_default().push(key);
        }

        let mut rounds = Vec::new();
        loop {
            if buffers.values().all(Vec::is_empty) {
                break;
            }
            let mut assigned: u32 = 0;
            let mut loads = Vec::new();
            let mut assignments = Vec::new();
            loop {
                let unassigned = !assigned & ((1u32 << t) - 1);
                if unassigned == 0 {
                    break;
                }
                let mut best: Option<(u32, usize, u32)> = None; // (mask, served, overlap)
                for (&mask, ids) in &buffers {
                    if ids.is_empty() {
                        continue;
                    }
                    let served = (mask & unassigned).count_ones() as usize;
                    if served == 0 {
                        continue;
                    }
                    let overlap = (mask & assigned).count_ones();
                    let better = match best {
                        None => true,
                        Some((_, bs, bo)) => served > bs || (served == bs && overlap < bo),
                    };
                    if better {
                        best = Some((mask, served, overlap));
                    }
                }
                let Some((mask, _, _)) = best else {
                    break;
                };
                let key = buffers.get_mut(&mask).expect("candidate exists").remove(0);
                let serve_mask = mask & unassigned;
                for q in 0..t {
                    if serve_mask & (1 << q) != 0 {
                        assignments.push((q, key));
                    }
                }
                loads.push(key);
                assigned |= serve_mask;
                let residual = mask & !serve_mask;
                if residual != 0 {
                    buffers.entry(residual).or_default().push(key);
                }
            }
            rounds.push(Round { loads, assignments });
        }
        Schedule { rounds }
    }

    /// `schedule_matrix` as it was: per group, the oracle greedy unless the
    /// materialised in-order schedule loads fewer keys.
    fn schedule_matrix_oracle(selections: &[Vec<u32>], t: usize, out_of_order: bool) -> Schedule {
        let mut all = Schedule::default();
        for group in selections.chunks(t) {
            let in_order = in_order_schedule_impl(group);
            let greedy = locality_aware_schedule_oracle(group);
            let s = if out_of_order && greedy.total_loads() <= in_order.total_loads() {
                greedy
            } else {
                in_order
            };
            all.rounds.extend(s.rounds);
        }
        all
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Rows of any length, either as drawn (any order, repeated
            /// keys inside a row) or ascending and distinct over few keys
            /// (where the greedy sometimes loses and the fallback fires),
            /// with empty rows and a ragged last group: the flat-buffer
            /// scheduler emits the oracle's rounds, load for load, and the
            /// in-order load count is the in-order schedule's.
            #[test]
            fn schedule_matrix_matches_btreemap_oracle(
                drawn in proptest::collection::vec(
                    proptest::collection::vec(0u32..1000, 0..14),
                    0..20,
                ),
                n_keys in 4u32..24,
                ascending in 0usize..2,
                t in 1usize..=8,
            ) {
                let sel: Vec<Vec<u32>> = drawn
                    .iter()
                    .map(|row| {
                        let mut row: Vec<u32> = row.iter().map(|&key| key % n_keys).collect();
                        if ascending == 1 {
                            row.sort_unstable();
                            row.dedup();
                        }
                        row
                    })
                    .collect();
                for out_of_order in [true, false] {
                    prop_assert_eq!(
                        schedule_matrix(&sel, t, out_of_order),
                        schedule_matrix_oracle(&sel, t, out_of_order)
                    );
                }
                for group in sel.chunks(t) {
                    prop_assert_eq!(
                        in_order_loads(group),
                        in_order_schedule_impl(group).total_loads()
                    );
                }
            }
        }

        fn arb_selections() -> impl Strategy<Value = Vec<Vec<u32>>> {
            proptest::collection::vec(
                proptest::collection::btree_set(0u32..16, 0..6)
                    .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
                1..5,
            )
        }

        proptest! {
            #[test]
            fn ooo_schedules_everything_once(sel in arb_selections()) {
                let s = locality_aware_schedule(&sel);
                let total: usize = sel.iter().map(Vec::len).sum();
                prop_assert_eq!(s.total_assignments(), total as u64);
                let mut seen = std::collections::HashSet::new();
                for r in &s.rounds {
                    let mut round_qs = std::collections::HashSet::new();
                    for &(q, k) in &r.assignments {
                        prop_assert!(seen.insert((q, k)));
                        prop_assert!(round_qs.insert(q));
                        prop_assert!(sel[q].contains(&k));
                    }
                }
            }

            #[test]
            fn ooo_loads_bounded(sel in arb_selections()) {
                // The raw greedy is a heuristic (like the paper's FSM) and
                // not point-wise dominant over in-order, but the public
                // scheduler's in-order fallback makes dominance an API
                // invariant: ooo ≤ in-order ≤ row-by-row always.
                let ooo = locality_aware_schedule(&sel).total_loads();
                let rbr = row_by_row_loads(&sel);
                let ino = in_order_schedule(&sel).total_loads();
                prop_assert!(ooo <= ino);
                prop_assert!(ooo <= rbr);
                prop_assert!(ino <= rbr);
                // Can never need fewer loads than the max row length
                // (each round loads at least one key).
                let longest = sel.iter().map(Vec::len).max().unwrap_or(0) as u64;
                prop_assert!(ooo >= longest);
            }
        }
    }
}
