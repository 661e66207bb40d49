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
//!
//! The token-parallel schedules come two ways from one greedy: built round
//! by round ([`schedule_matrix`], [`locality_aware_schedule`],
//! [`in_order_schedule`] → [`Schedule`]) for the walk-throughs and
//! renderings that show rounds, and counted ([`matrix_loads`],
//! [`LoadCounter`] → [`LoadCounts`]) for the simulator, which reads only
//! totals.

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
    pub(crate) fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Total `(query, key)` assignments.
    pub(crate) fn total_assignments(&self) -> u64 {
        self.rounds.iter().map(|r| r.assignments.len() as u64).sum()
    }
}

/// What the simulator takes from a schedule: its counts. The counting
/// scheduler ([`LoadCounter`], [`matrix_loads`]) produces them without
/// building a single [`Round`], equal field for field to the materialised
/// [`Schedule`]'s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadCounts {
    /// Key-vector loads ([`Schedule::total_loads`]).
    pub loads: u64,
    /// Rounds (`Schedule::round_count`).
    pub rounds: u64,
    /// `(query, key)` assignments (`Schedule::total_assignments`).
    pub assignments: u64,
    /// Loads beyond a key's first within its group: a key split across
    /// rounds is re-fetched (Fig. 10's k5).
    pub reloads: u64,
    /// Groups whose greedy schedule loaded more than in-order issue and
    /// fell back to it (always 0 for the in-order dataflow).
    pub fallbacks: u64,
}

impl std::ops::AddAssign for LoadCounts {
    fn add_assign(&mut self, o: LoadCounts) {
        self.loads += o.loads;
        self.rounds += o.rounds;
        self.assignments += o.assignments;
        self.reloads += o.reloads;
        self.fallbacks += o.fallbacks;
    }
}

/// `sched.<dataflow>.{loads, rounds, assignments, reloads}`.
type CounterNames = [&'static str; 4];
const IN_ORDER: CounterNames = [
    "sched.in_order.loads",
    "sched.in_order.rounds",
    "sched.in_order.assignments",
    "sched.in_order.reloads",
];
const OOO: CounterNames = [
    "sched.ooo.loads",
    "sched.ooo.rounds",
    "sched.ooo.assignments",
    "sched.ooo.reloads",
];

impl LoadCounts {
    /// The counts of a materialised schedule over `distinct` key IDs.
    fn of(s: &Schedule, distinct: u64, fallbacks: u64) -> Self {
        Self {
            loads: s.total_loads(),
            rounds: s.round_count() as u64,
            assignments: s.total_assignments(),
            reloads: s.total_loads() - distinct,
            fallbacks,
        }
    }

    /// Adds the counts to the dataflow's `sched.*` counters. No-op outside
    /// a trace session.
    fn record(&self, names: &CounterNames) {
        if !dota_trace::enabled() {
            return;
        }
        dota_trace::count(names[0], self.loads);
        dota_trace::count(names[1], self.rounds);
        dota_trace::count(names[2], self.assignments);
        dota_trace::count(names[3], self.reloads);
        if self.fallbacks > 0 {
            dota_trace::count("sched.ooo.fallbacks", self.fallbacks);
        }
    }
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
    if dota_trace::enabled() {
        let distinct = Binning::default().distinct(selections);
        LoadCounts::of(&s, distinct, 0).record(&IN_ORDER);
    }
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

/// The in-order token-parallel schedule's counts without its rounds: per
/// step, the distinct keys the group's queries touch; one round per step of
/// the longest row; one assignment per connection.
fn in_order_counts(selections: &[Vec<u32>]) -> LoadCounts {
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
    LoadCounts {
        loads,
        rounds: max_len as u64,
        assignments: selections.iter().map(|s| s.len() as u64).sum(),
        ..LoadCounts::default()
    }
}

/// The in-order counts, if a greedy schedule of `loads` loads over `distinct`
/// key IDs lost to in-order issue. Every key is loaded at least once
/// whatever the order, so a greedy that reloaded nothing cannot have lost
/// and the in-order count is not taken.
fn in_order_if_fewer(selections: &[Vec<u32>], loads: u64, distinct: u64) -> Option<LoadCounts> {
    if loads == distinct {
        return None;
    }
    let in_order = in_order_counts(selections);
    (loads > in_order.loads).then_some(in_order)
}

/// Bins one group's key IDs by owner bitmask — the set of the group's
/// queries that selected the key — on buffers kept across groups. Rows may
/// come in any order and repeat keys.
///
/// A group whose bit maps would take no more words than it has IDs is
/// binned through them (about 3 ns per ID at the simulator's densities);
/// a sparser one sorts `(key, query)` pairs (about 9). That is where the two
/// cost the same, and it bounds the maps by the size of the input whatever
/// the largest key ID.
#[derive(Debug, Default)]
struct Binning {
    /// Sparse groups: one `key << 32 | query bit` per connection; sorted,
    /// the run of a key ORs into its owner mask.
    pairs: Vec<u64>,
    /// Dense groups: one bit per `(key, query)`, word `w` of query `q`'s
    /// map at `w * t + q`. All zero between groups.
    maps: Vec<u64>,
}

/// How [`Binning::bin`] laid a group out.
enum Binned {
    /// No key IDs at all.
    Empty,
    /// In the bit maps, over this many words per query.
    Maps(usize),
    /// As sorted pairs.
    Pairs,
}

impl Binning {
    /// Lays the group's connections out in the bit maps or as sorted
    /// pairs, whichever [`Binning`] picks for its density.
    fn bin(&mut self, selections: &[Vec<u32>]) -> Binned {
        let t = selections.len();
        let ids: usize = selections.iter().map(Vec::len).sum();
        if ids == 0 {
            return Binned::Empty;
        }
        let max = selections
            .iter()
            .fold(0, |max, sel| sel.iter().fold(max, |max, &key| max.max(key)));
        let words = (max >> 6) as usize + 1;
        if words * t <= ids {
            if self.maps.len() < words * t {
                self.maps.resize(words * t, 0);
            }
            for (q, sel) in selections.iter().enumerate() {
                for &key in sel {
                    self.maps[(key >> 6) as usize * t + q] |= 1 << (key & 63);
                }
            }
            Binned::Maps(words)
        } else {
            self.pairs.clear();
            for (q, sel) in selections.iter().enumerate() {
                let bit = 1u64 << q;
                self.pairs
                    .extend(sel.iter().map(|&key| u64::from(key) << 32 | bit));
            }
            self.pairs.sort_unstable();
            Binned::Pairs
        }
    }

    /// Calls `owner(mask, key)` once per distinct key ID of the sorted
    /// pairs, keys ascending.
    fn pair_runs(&self, mut owner: impl FnMut(u32, u32)) {
        let mut i = 0;
        while i < self.pairs.len() {
            let key = (self.pairs[i] >> 32) as u32;
            let mut mask = 0u32;
            while i < self.pairs.len() && (self.pairs[i] >> 32) as u32 == key {
                mask |= self.pairs[i] as u32;
                i += 1;
            }
            owner(mask, key);
        }
    }

    /// Calls `owner(mask, key)` once per distinct key ID of the group, keys
    /// ascending.
    fn for_each_key(&mut self, selections: &[Vec<u32>], mut owner: impl FnMut(u32, u32)) {
        let t = selections.len();
        match self.bin(selections) {
            Binned::Empty => {}
            Binned::Pairs => self.pair_runs(owner),
            Binned::Maps(words) => {
                for (w, rows) in self.maps[..words * t].chunks_exact_mut(t).enumerate() {
                    word_owners(rows, |mask, bit| owner(mask, (w as u32) << 6 | bit));
                    rows.fill(0);
                }
            }
        }
    }

    /// The group's owner-mask histogram, without a call per key:
    /// `count[mask]` gains the number of distinct key IDs whose owners are
    /// exactly `mask`. The bit maps are split a word at a time
    /// ([`split_word`]).
    fn histogram(&mut self, selections: &[Vec<u32>], count: &mut [u32]) {
        let t = selections.len();
        match self.bin(selections) {
            Binned::Empty => {}
            Binned::Pairs => self.pair_runs(|mask, _key| count[mask as usize] += 1),
            Binned::Maps(words) => {
                for rows in self.maps[..words * t].chunks_exact_mut(t) {
                    split_word(rows, count);
                    rows.fill(0);
                }
            }
        }
    }

    /// Distinct key IDs of a group of any number of rows (the in-order
    /// dataflow has no owner masks, so no limit on the queries it groups).
    fn distinct(&mut self, selections: &[Vec<u32>]) -> u64 {
        self.pairs.clear();
        self.pairs
            .extend(selections.iter().flatten().map(|&key| u64::from(key)));
        self.pairs.sort_unstable();
        self.pairs.dedup();
        self.pairs.len() as u64
    }
}

/// Calls `owner(mask, bit)` once per key of one 64-key word of a group's
/// bit maps (`rows[q]`: the keys query `q` selected), bits ascending.
fn word_owners(rows: &[u64], mut owner: impl FnMut(u32, u32)) {
    let mut any = rows.iter().fold(0, |any, &row| any | row);
    while any != 0 {
        let bit = any.trailing_zeros();
        any &= any - 1;
        let mask = rows
            .iter()
            .enumerate()
            .fold(0, |mask, (q, &row)| mask | ((row >> bit) as u32 & 1) << q);
        owner(mask, bit);
    }
}

/// Groups up to this many queries split their bit maps whole
/// ([`split_word`]): `2^6` key sets per word.
const SPLIT_ROWS: usize = 6;

/// One 64-key word of a group's bit maps into the owner-mask histogram:
/// `count[mask]` gains the number of keys held by exactly the rows of
/// `mask`. The word's keys split on one row at a time into those the row
/// holds and those it does not, every branch kept, so there is no branch
/// on the keys: for `T = 4`, 30 ANDs and 15 popcounts a word. A larger
/// group, whose `2^T` sets would outnumber the word's keys, takes its keys
/// one at a time ([`word_owners`]).
fn split_word(rows: &[u64], count: &mut [u32]) {
    if rows.len() > SPLIT_ROWS {
        word_owners(rows, |mask, _bit| count[mask as usize] += 1);
        return;
    }
    // `sets[mask]`: the keys held by exactly the rows of `mask` among
    // those split on so far.
    let mut sets = [0u64; 1 << SPLIT_ROWS];
    sets[0] = !0;
    for (q, &row) in rows.iter().enumerate() {
        let width = 1 << q;
        for mask in 0..width {
            sets[mask | width] = sets[mask] & row;
            sets[mask] &= !row;
        }
    }
    for (count, set) in count[1..1 << rows.len()].iter_mut().zip(&sets[1..]) {
        *count += set.count_ones();
    }
}

/// The Scheduler's FSM state (§4.3): how many key IDs each of the `2^T - 1`
/// ID buffers holds. A round of Algorithm 1 looks only at *which* buffers
/// are non-empty, so this is all the greedy needs; the IDs themselves matter
/// only to a caller that wants the rounds ([`IdBuffers`]).
#[derive(Debug, Default)]
struct Buckets {
    /// `count[mask]`: key IDs whose not-yet-served owners are exactly `mask`.
    count: Vec<u32>,
    /// Masks whose buffer has held an ID during the current group,
    /// ascending: the buffers a pick compares, in the order that breaks its
    /// ties.
    live: Vec<u32>,
    /// IDs buffered across all masks; a group is done at zero.
    buffered: u64,
}

impl Buckets {
    /// Readies the (drained) state for a group of `t` queries.
    fn reset(&mut self, t: usize) {
        assert!(
            t <= 16,
            "token parallelism {t} exceeds the modeled scheduler"
        );
        debug_assert_eq!(self.buffered, 0, "previous group left IDs behind");
        if self.count.len() < 1 << t {
            self.count.resize(1 << t, 0);
        }
        self.live.clear();
    }

    /// Loads a group into the (reset) buffers as counts alone, from the
    /// binning's owner-mask [`histogram`](Binning::histogram), and returns
    /// its distinct key IDs and its `(query, key)` assignments (a key
    /// repeated inside a row is one ID: one assignment per owner).
    fn fill(&mut self, binning: &mut Binning, selections: &[Vec<u32>]) -> (u64, u64) {
        binning.histogram(selections, &mut self.count);
        let count = &self.count;
        let masks = 1..1u32 << selections.len();
        self.live
            .extend(masks.filter(|&mask| count[mask as usize] > 0));
        let (mut distinct, mut assignments) = (0, 0);
        for &mask in &self.live {
            let ids = u64::from(self.count[mask as usize]);
            distinct += ids;
            assignments += ids * u64::from(mask.count_ones());
        }
        self.buffered = distinct;
        (distinct, assignments)
    }

    fn push(&mut self, mask: u32) {
        let count = &mut self.count[mask as usize];
        if *count == 0 {
            if let Err(at) = self.live.binary_search(&mask) {
                self.live.insert(at, mask);
            }
        }
        *count += 1;
        self.buffered += 1;
    }

    /// The non-empty buffer serving the most `unassigned` queries;
    /// tie-break toward fewer already-assigned owners (don't split shared
    /// keys needlessly), then lower mask for determinism. `None` when the
    /// remaining IDs belong only to already-assigned queries.
    fn best(&self, unassigned: u32, assigned: u32) -> Option<u32> {
        let mut best: Option<(u32, u32, u32)> = None; // (mask, served, overlap)
        for &mask in &self.live {
            let served = (mask & unassigned).count_ones();
            if served == 0 || self.count[mask as usize] == 0 {
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

    /// One round of Algorithm 1 over the group's `t` queries: until every
    /// query has a key or no buffered ID serves an unassigned one, issues an
    /// ID from the [`best`](Self::best) buffer and hands it back to its
    /// already-assigned (residual) owners' buffer for a later round. Calls
    /// `issue(mask, serve_mask)` per issued ID — the buffer it left and the
    /// queries it serves now.
    ///
    /// Within a round a buffer is left at most once (its owners are all
    /// assigned afterwards) and a residual buffer is never picked (its
    /// owners already are), so the round is a function of the set of
    /// non-empty buffers it starts from.
    fn round(&mut self, t: usize, mut issue: impl FnMut(u32, u32)) {
        let all = (1u32 << t) - 1;
        let mut assigned = 0u32;
        while assigned != all {
            let Some(mask) = self.best(all & !assigned, assigned) else {
                break;
            };
            let serve_mask = mask & !assigned;
            self.count[mask as usize] -= 1;
            self.buffered -= 1;
            let residual = mask & assigned;
            if residual != 0 {
                self.push(residual);
            }
            issue(mask, serve_mask);
            assigned |= serve_mask;
        }
        debug_assert!(assigned != 0, "round made no progress");
    }

    /// After a [`round`](Self::round) that issued `picks` (`(mask,
    /// residual)` each): if it left the set of non-empty buffers as it found
    /// it, the next round is the same round — plays it until a buffer it
    /// drains is empty and returns how many times that was.
    fn replay(&mut self, picks: &[(u32, u32)]) -> u64 {
        let refills = |mask: u32| picks.iter().filter(|p| p.1 == mask).count() as u32;
        let mut times = u32::MAX;
        for &(mask, residual) in picks {
            let remaining = self.count[mask as usize];
            if remaining == 0 {
                return 0; // the round emptied a buffer
            }
            if refills(mask) == 0 {
                times = times.min(remaining);
            }
            if residual != 0 {
                let issued = u32::from(picks.iter().any(|p| p.0 == residual));
                if self.count[residual as usize] + issued == refills(residual) {
                    return 0; // the round opened a buffer
                }
            }
        }
        // The largest mask a round leaves is refilled by none of its
        // residuals (each a strict subset of a mask left), so it drains.
        debug_assert_ne!(times, u32::MAX, "a round drains some buffer");
        for &(_, residual) in picks {
            if residual != 0 {
                self.count[residual as usize] += times;
                self.buffered += u64::from(times);
            }
        }
        for &(mask, _) in picks {
            self.count[mask as usize] -= times;
            self.buffered -= u64::from(times);
        }
        u64::from(times)
    }
}

/// The materialising scheduler: the FSM with the Scheduler's ID buffers
/// attached — one FIFO of key IDs per owner bitmask, indexed by the mask
/// itself and kept across the groups of a matrix, so that after the first
/// group binning and issue allocate only the rounds they emit.
#[derive(Debug, Default)]
struct IdBuffers {
    state: Buckets,
    /// `fifo[mask]`: the `state.count[mask]` key IDs of that buffer.
    fifo: Vec<VecDeque<u32>>,
    binning: Binning,
}

impl IdBuffers {
    /// Uninstrumented Algorithm 1 greedy (see [`locality_aware_schedule`])
    /// and the number of distinct key IDs it scheduled.
    fn greedy(&mut self, selections: &[Vec<u32>]) -> (Schedule, u64) {
        let t = selections.len();
        let Self {
            state,
            fifo,
            binning,
        } = self;
        state.reset(t);
        if fifo.len() < 1 << t {
            fifo.resize_with(1 << t, VecDeque::new);
        }
        let mut distinct = 0;
        binning.for_each_key(selections, |mask, key| {
            state.push(mask);
            fifo[mask as usize].push_back(key);
            distinct += 1;
        });
        let mut rounds = Vec::new();
        while state.buffered > 0 {
            let mut loads = Vec::with_capacity(t);
            let mut assignments = Vec::with_capacity(t);
            state.round(t, |mask, serve_mask| {
                let key = fifo[mask as usize]
                    .pop_front()
                    .expect("a counted ID is buffered");
                for q in 0..t {
                    if serve_mask & (1 << q) != 0 {
                        assignments.push((q, key));
                    }
                }
                loads.push(key);
                // Residual owners get the ID back for a later round.
                let residual = mask & !serve_mask;
                if residual != 0 {
                    fifo[residual as usize].push_back(key);
                }
            });
            rounds.push(Round { loads, assignments });
        }
        (Schedule { rounds }, distinct)
    }

    /// [`locality_aware_schedule`] on these buffers.
    fn schedule(&mut self, selections: &[Vec<u32>]) -> Schedule {
        let (greedy, distinct) = self.greedy(selections);
        let fallback = in_order_if_fewer(selections, greedy.total_loads(), distinct).is_some();
        let s = if fallback {
            in_order_schedule_impl(selections)
        } else {
            greedy
        };
        if dota_trace::enabled() {
            LoadCounts::of(&s, distinct, u64::from(fallback)).record(&OOO);
        }
        s
    }
}

/// The counting scheduler: what [`schedule_matrix`] would report for the
/// groups fed to it, from the same binning, the same pick rule and the same
/// round procedure, without an ID buffer or a [`Round`]. The simulator's
/// entry point: it feeds token-parallel groups as it samples them.
#[derive(Debug)]
pub struct LoadCounter {
    out_of_order: bool,
    state: Buckets,
    binning: Binning,
    /// `(mask, residual)` of each ID the current round issued.
    picks: Vec<(u32, u32)>,
    total: LoadCounts,
    groups: u64,
}

impl LoadCounter {
    /// A counter for the out-of-order (Algorithm 1, with its in-order
    /// fallback) or the in-order token-parallel dataflow.
    pub fn new(out_of_order: bool) -> Self {
        Self {
            out_of_order,
            state: Buckets::default(),
            binning: Binning::default(),
            picks: Vec::new(),
            total: LoadCounts::default(),
            groups: 0,
        }
    }

    /// Counts one token-parallel group (`selections.len()` queries in
    /// lockstep) and returns its counts.
    ///
    /// # Panics
    ///
    /// Panics if the out-of-order dataflow groups more than 16 queries.
    pub fn group(&mut self, selections: &[Vec<u32>]) -> LoadCounts {
        let (mut counts, distinct) = if self.out_of_order {
            let (greedy, distinct) = self.greedy(selections);
            let counts = match in_order_if_fewer(selections, greedy.loads, distinct) {
                Some(in_order) => LoadCounts {
                    fallbacks: 1,
                    ..in_order
                },
                None => greedy,
            };
            (counts, distinct)
        } else {
            (
                in_order_counts(selections),
                self.binning.distinct(selections),
            )
        };
        counts.reloads = counts.loads - distinct;
        self.total += counts;
        self.groups += 1;
        counts
    }

    /// Algorithm 1 on bucket counts: the greedy's loads, rounds and
    /// assignments, and the number of distinct key IDs of the group.
    fn greedy(&mut self, selections: &[Vec<u32>]) -> (LoadCounts, u64) {
        let t = selections.len();
        let Self {
            state,
            binning,
            picks,
            ..
        } = self;
        state.reset(t);
        let (distinct, assignments) = state.fill(binning, selections);
        let mut counts = LoadCounts {
            assignments,
            ..LoadCounts::default()
        };
        while state.buffered > 0 {
            picks.clear();
            state.round(t, |mask, serve_mask| picks.push((mask, mask & !serve_mask)));
            let times = 1 + state.replay(picks);
            counts.loads += times * picks.len() as u64;
            counts.rounds += times;
        }
        (counts, distinct)
    }

    /// The summed counts of every group fed so far, recorded once under
    /// `sched.ooo.*` / `sched.in_order.*` when a trace session is active.
    pub fn finish(self) -> LoadCounts {
        if self.groups > 0 {
            let names = if self.out_of_order { &OOO } else { &IN_ORDER };
            self.total.record(names);
        }
        self.total
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
/// returns the groups' rounds concatenated.
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

/// [`schedule_matrix`]'s counts without its rounds: the same groups through
/// the counting scheduler.
pub fn matrix_loads(
    selections: &[Vec<u32>],
    token_parallelism: usize,
    out_of_order: bool,
) -> LoadCounts {
    assert!(token_parallelism > 0, "token parallelism must be positive");
    let mut counter = LoadCounter::new(out_of_order);
    for group in selections.chunks(token_parallelism) {
        counter.group(group);
    }
    counter.finish()
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

    /// Three queries over six keys is where the greedy loses to in-order
    /// issue about once in a hundred groups: on every such group the
    /// counting scheduler takes the fallback the materialising one's
    /// greedy calls for.
    #[test]
    fn counted_fallbacks_match_materialised_oracle() {
        use dota_tensor::rng::SeededRng;
        let mut rng = SeededRng::new(5);
        let mut counter = LoadCounter::new(true);
        let mut buffers = IdBuffers::default();
        for _ in 0..2000 {
            let sel: Vec<Vec<u32>> = (0..3)
                .map(|_| (0..6).filter(|_| rng.uniform() < 0.5).collect())
                .collect();
            let in_order = in_order_schedule_impl(&sel);
            let fallback = buffers.greedy(&sel).0.total_loads() > in_order.total_loads();
            let counts = counter.group(&sel);
            assert_eq!(counts.fallbacks, u64::from(fallback), "{sel:?}");
            if fallback {
                assert_eq!(counts.loads, in_order.total_loads(), "{sel:?}");
                assert_eq!(counts.rounds, in_order.round_count() as u64, "{sel:?}");
                assert_eq!(counts.assignments, in_order.total_assignments(), "{sel:?}");
            }
        }
        let fallbacks = counter.finish().fallbacks;
        assert!(fallbacks >= 10, "only {fallbacks} of 2000 groups fell back");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Rows as drawn folded onto `n_keys` IDs (any order, repeated keys
        /// inside a row), or ascending and distinct (where over few keys
        /// the greedy sometimes loses and the fallback fires); `spread`
        /// strides the IDs far apart, past what a bit map may span.
        fn rows(drawn: &[Vec<u32>], n_keys: u32, ascending: bool, spread: bool) -> Vec<Vec<u32>> {
            let stride = if spread { 1 << 22 } else { 1 };
            drawn
                .iter()
                .map(|row| {
                    let mut row: Vec<u32> = row.iter().map(|&key| key % n_keys * stride).collect();
                    if ascending {
                        row.sort_unstable();
                        row.dedup();
                    }
                    row
                })
                .collect()
        }

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
                spread in 0usize..2,
                t in 1usize..=8,
            ) {
                let sel = rows(&drawn, n_keys, ascending == 1, spread == 1);
                for out_of_order in [true, false] {
                    prop_assert_eq!(
                        schedule_matrix(&sel, t, out_of_order),
                        schedule_matrix_oracle(&sel, t, out_of_order)
                    );
                }
                for group in sel.chunks(t) {
                    prop_assert_eq!(
                        in_order_counts(group).loads,
                        in_order_schedule_impl(group).total_loads()
                    );
                }
            }

            /// The same rows, and long ones (hundreds of keys over few
            /// hundred IDs, where a round repeats and the replay fires):
            /// the counting scheduler reports, group by group and summed,
            /// the loads, rounds, assignments, reloads and fallbacks of
            /// [`schedule_matrix`]'s rounds and recorded fallback, and
            /// records the same `sched.*` counters.
            #[test]
            fn matrix_loads_matches_schedule_matrix_oracle(
                short in proptest::collection::vec(
                    proptest::collection::vec(0u32..1000, 0..14),
                    0..20,
                ),
                long in proptest::collection::vec(
                    proptest::collection::vec(0u32..1000, 0..300),
                    0..10,
                ),
                n_keys in 4u32..24,
                n_keys_long in 1u32..=400,
                ascending in 0usize..2,
                spread in 0usize..2,
                t in 1usize..=8,
            ) {
                use std::collections::BTreeSet;
                for sel in [
                    rows(&short, n_keys, ascending == 1, spread == 1),
                    rows(&long, n_keys_long, ascending == 1, spread == 1),
                ] {
                    for out_of_order in [true, false] {
                        let mut counter = LoadCounter::new(out_of_order);
                        let mut total = LoadCounts::default();
                        for group in sel.chunks(t) {
                            let materialised = dota_trace::session("group");
                            let s = schedule_matrix(group, t, out_of_order);
                            let fallbacks = materialised.counters().get("sched.ooo.fallbacks").copied();
                            drop(materialised);
                            let distinct: BTreeSet<u32> = group.iter().flatten().copied().collect();
                            let want = LoadCounts::of(&s, distinct.len() as u64, fallbacks.unwrap_or(0));
                            prop_assert_eq!(counter.group(group), want);
                            total += want;
                        }
                        prop_assert_eq!(counter.finish(), total);

                        let materialised = dota_trace::session("materialised");
                        let s = schedule_matrix(&sel, t, out_of_order);
                        let want = materialised.counters();
                        drop(materialised);
                        prop_assert_eq!(s.total_loads(), total.loads);
                        let counted = dota_trace::session("counted");
                        prop_assert_eq!(matrix_loads(&sel, t, out_of_order), total);
                        prop_assert_eq!(counted.counters(), want);
                    }
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
