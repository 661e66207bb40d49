//! Deterministic fault injection for the DOTA reproduction.
//!
//! DOTA is an *approximate* system: the Detector omits attention
//! connections it predicts are weak, and the accelerator that executes the
//! pruned schedule is itself a physical machine with SRAMs, DRAM channels
//! and parallel lanes that can misbehave. This crate answers "what happens
//! when the approximation — or the hardware underneath it — goes wrong?"
//! by injecting faults at named sites, deterministically, so that a fault
//! campaign is a reproducible experiment rather than a flaky one.
//!
//! The design mirrors `dota-trace`/`dota-metrics`: a session-gated plan
//! that costs one relaxed atomic load per call site when no session is
//! active. A [`session`] installs a [`FaultPlan`] (seed + per-site rates)
//! **for the thread that opened it** and for threads that
//! [`Scope::enter`] its [`scope`] token (the thread pool does this for its
//! workers); work on any other thread is never faulted. Instrumented code
//! asks [`should_inject`] whether a fault fires at a given site for given
//! coordinates.
//!
//! **Determinism.** Whether a fault fires is a pure hash of
//! `(seed, site, coordinates)` — a splitmix64-style mix mapped to a uniform
//! value in `[0, 1)` and compared against the site's rate. No global RNG is
//! consumed, so the decision is independent of thread count, scheduling
//! order and call order: the same seed yields byte-identical campaign
//! reports across `DOTA_THREADS` ∈ {1, 8} and serial vs `parallel` builds.
//! Callers must pass coordinates that are stable across runs (layer/head
//! indices, tile ids, epoch numbers — never pointers or wall-clock values).
//!
//! ```
//! use dota_faults::{FaultPlan, FaultSite};
//!
//! let plan = FaultPlan::new(42).with_rate(FaultSite::SramBitFlip, 1.0);
//! let guard = dota_faults::session(plan);
//! assert!(dota_faults::should_inject(FaultSite::SramBitFlip, &[0, 7]));
//! assert!(!dota_faults::should_inject(FaultSite::DramRead, &[0]));
//! dota_faults::record("faults.sram.bitflips", 1);
//! assert_eq!(guard.counter("faults.sram.bitflips"), 1);
//! drop(guard); // injection off again
//! assert!(!dota_faults::should_inject(FaultSite::SramBitFlip, &[0, 7]));
//! ```
//!
//! Sessions are exclusive: [`session`] blocks until any other live
//! [`FaultGuard`] drops (nesting on one thread deadlocks by design). Every
//! injected fault must either be **absorbed** by the instrumented layer
//! (retry, dense fallback — visible in the `faults.*` counters) or surface
//! as a **typed error**; fault paths never panic.

#![deny(missing_docs)]

#[path = "../../trace/src/gate.rs"]
mod gate;

pub use gate::{enabled, scope, Scope, ScopeGuard};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A named place in the system where a fault can be injected.
///
/// Sites are coarse fault *classes*; the coordinates passed to
/// [`should_inject`] pick out the individual event (which access, which
/// lane, which layer/head, which epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// A bit flips in a banked SRAM read; the access is detected by ECC
    /// and re-read (absorbed: extra cycles + `faults.sram.bitflips`).
    SramBitFlip,
    /// A DRAM burst read fails transiently; the port retries a bounded
    /// number of times, then surfaces a typed error.
    DramRead,
    /// A compute lane is stuck at power-on; the scheduler routes around it
    /// (absorbed: reduced throughput). All lanes stuck is a typed error.
    LaneStuck,
    /// The detector's score path is corrupted (garbage selection indices);
    /// the transformer falls back to dense attention for that head.
    DetectorCorrupt,
    /// The detector's threshold comparator saturates and selects nothing;
    /// the transformer falls back to dense attention for that head.
    DetectorSaturate,
    /// An attention input tile goes non-finite (NaN/Inf); unabsorbable —
    /// inference surfaces a typed error instead of propagating garbage.
    AttnInput,
    /// A training epoch diverges (non-finite loss); the watchdog rolls
    /// back to the last good state with lr backoff, bounded retries, then
    /// a typed error.
    TrainLoss,
    /// A serving batch slot dies mid-decode; the request's in-flight state
    /// is lost, the lane is quarantined until deterministic probe steps
    /// pass, and the request retries with exponential cycle backoff
    /// (absorbed) or fails typed once its retry cap is exhausted.
    SlotFail,
    /// A K/V-cache read comes back corrupted (detected by the serving
    /// engine's integrity check); the cached state is untrustworthy, so
    /// the request restarts from scratch via the retry path.
    KvCorrupt,
    /// One slot's decode step overruns its cycle budget; the step's output
    /// is discarded and the position repeats next step (absorbed), with
    /// repeated consecutive overruns escalating to a slot-level retry.
    DecodeTimeout,
}

impl FaultSite {
    /// Every site, in a stable order (used by sweeps and `--sites all`).
    /// New sites append so earlier sites keep their hash stream.
    pub const ALL: [FaultSite; 10] = [
        FaultSite::SramBitFlip,
        FaultSite::DramRead,
        FaultSite::LaneStuck,
        FaultSite::DetectorCorrupt,
        FaultSite::DetectorSaturate,
        FaultSite::AttnInput,
        FaultSite::TrainLoss,
        FaultSite::SlotFail,
        FaultSite::KvCorrupt,
        FaultSite::DecodeTimeout,
    ];

    /// Sites exercised by the model/accelerator inference probe (the
    /// `dota faults` campaign). The serve-layer sites below only fire
    /// inside the serving engine and are swept by `dota serve --chaos`.
    pub const MODEL: [FaultSite; 7] = [
        FaultSite::SramBitFlip,
        FaultSite::DramRead,
        FaultSite::LaneStuck,
        FaultSite::DetectorCorrupt,
        FaultSite::DetectorSaturate,
        FaultSite::AttnInput,
        FaultSite::TrainLoss,
    ];

    /// Sites that fire inside the serving engine (`dota serve --chaos`).
    pub const SERVE: [FaultSite; 3] = [
        FaultSite::SlotFail,
        FaultSite::KvCorrupt,
        FaultSite::DecodeTimeout,
    ];

    /// The site's stable string name (used in CLI specs, counters and
    /// campaign reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SramBitFlip => "sram.bitflip",
            FaultSite::DramRead => "dram.read",
            FaultSite::LaneStuck => "lane.stuck",
            FaultSite::DetectorCorrupt => "detector.corrupt",
            FaultSite::DetectorSaturate => "detector.saturate",
            FaultSite::AttnInput => "attn.input",
            FaultSite::TrainLoss => "train.loss",
            FaultSite::SlotFail => "slot.fail",
            FaultSite::KvCorrupt => "kv.corrupt",
            FaultSite::DecodeTimeout => "decode.timeout",
        }
    }

    /// Parses a site from its [`name`](FaultSite::name).
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names if `s` is not one.
    pub fn parse(s: &str) -> Result<FaultSite, String> {
        FaultSite::ALL
            .iter()
            .copied()
            .find(|site| site.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown fault site `{s}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    fn index(self) -> usize {
        FaultSite::ALL
            .iter()
            .position(|&s| s == self)
            .expect("site listed in ALL")
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded fault plan: which sites fire, and how often.
///
/// Rates are probabilities in `[0, 1]` evaluated independently per
/// `(site, coordinates)` event; `1.0` fires on every event at the site and
/// `0.0` (the default) never fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; FaultSite::ALL.len()],
}

impl FaultPlan {
    /// A plan with the given seed and every rate zero.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0.0; FaultSite::ALL.len()],
        }
    }

    /// Builder: sets `site`'s rate (clamped to `[0, 1]`; NaN becomes 0).
    #[must_use]
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        self.rates[site.index()] = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `site`'s injection rate.
    pub fn rate(&self, site: FaultSite) -> f64 {
        self.rates[site.index()]
    }

    /// Parses a comma-separated `site=rate` spec, e.g.
    /// `"dram.read=0.5,attn.input=1"`.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on an unknown site, a malformed pair or
    /// a rate outside `[0, 1]`.
    pub fn parse_spec(seed: u64, spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (name, rate) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed fault spec `{part}` (expected site=rate)"))?;
            let site = FaultSite::parse(name.trim())?;
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|_| format!("invalid fault rate `{}` for site `{}`", rate.trim(), site))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "fault rate {rate} for site `{site}` outside [0, 1]"
                ));
            }
            plan = plan.with_rate(site, rate);
        }
        Ok(plan)
    }
}

struct State {
    plan: FaultPlan,
    counters: BTreeMap<String, u64>,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

fn lock_state() -> MutexGuard<'static, Option<State>> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes `(seed, site, coords)` to a uniform value in `[0, 1)`.
fn uniform(seed: u64, site: FaultSite, coords: &[u64]) -> f64 {
    let mut h = mix(seed ^ 0xd0a7_a0fa_u64.wrapping_mul(site.index() as u64 + 1));
    for (i, &c) in coords.iter().enumerate() {
        h = mix(h ^ c.wrapping_add((i as u64 + 1) << 56));
    }
    // Top 53 bits -> [0, 1) with full double precision.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Decides whether a fault fires at `site` for the event identified by
/// `coords`. Pure in `(plan.seed, site, coords)`: independent of thread
/// interleaving and call order. Always `false` outside a session or when
/// the site's rate is zero. A firing decision bumps the internal
/// `faults.<site>.injected` counter.
pub fn should_inject(site: FaultSite, coords: &[u64]) -> bool {
    if !enabled() {
        return false;
    }
    let mut st = lock_state();
    let Some(st) = st.as_mut() else { return false };
    let rate = st.plan.rate(site);
    if rate <= 0.0 {
        return false;
    }
    let fire = rate >= 1.0 || uniform(st.plan.seed, site, coords) < rate;
    if fire {
        let key = format!("faults.{}.injected", site.name());
        *st.counters.entry(key).or_insert(0) += 1;
    }
    fire
}

/// Adds `delta` to a session-scoped fault counter (e.g.
/// `faults.fallback_dense`, `faults.dram.retries`). A no-op (one atomic
/// load) outside a session. Sums are order-independent, so totals are
/// identical across thread counts.
#[inline]
pub fn record(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    if let Some(st) = st.as_mut() {
        *st.counters.entry(name.to_owned()).or_insert(0) += delta;
    }
}

/// The active plan's seed, if a session is live. Instrumented code may use
/// this to derive deterministic payloads (e.g. which bit to flip).
pub fn active_seed() -> Option<u64> {
    if !enabled() {
        return None;
    }
    lock_state().as_ref().map(|st| st.plan.seed())
}

/// Begins an exclusive fault session with `plan`. Blocks until any other
/// live session ends; do not nest sessions on one thread (deadlocks by
/// design). Injection stops when the returned guard drops.
pub fn session(plan: FaultPlan) -> FaultGuard {
    let state = State {
        plan,
        counters: BTreeMap::new(),
    };
    FaultGuard {
        _session: gate::open(|| *lock_state() = Some(state)),
    }
}

/// Exclusive handle on the active fault session (see [`session`]).
#[derive(Debug)]
pub struct FaultGuard {
    _session: gate::Session,
}

impl FaultGuard {
    /// Value of one fault counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        lock_state()
            .as_ref()
            .and_then(|st| st.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// Snapshot of every fault counter recorded in this session.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        lock_state()
            .as_ref()
            .map(|st| st.counters.clone())
            .unwrap_or_default()
    }

    /// Sum of `faults.<site>.injected` across all sites: how many faults
    /// actually fired so far in this session.
    pub fn injected_total(&self) -> u64 {
        self.counters()
            .iter()
            .filter(|(k, _)| k.ends_with(".injected"))
            .map(|(_, v)| v)
            .sum()
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        // The plan goes first; `_session` then takes the gate down.
        *lock_state() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!enabled());
        assert!(!should_inject(FaultSite::SramBitFlip, &[1, 2]));
        record("faults.noop", 3); // dropped outside a session
        let g = session(FaultPlan::new(1));
        assert_eq!(g.counter("faults.noop"), 0);
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let g = session(FaultPlan::new(7).with_rate(FaultSite::DramRead, 1.0));
        for i in 0..32 {
            assert!(should_inject(FaultSite::DramRead, &[i]));
            assert!(!should_inject(FaultSite::SramBitFlip, &[i]));
        }
        assert_eq!(g.counter("faults.dram.read.injected"), 32);
        assert_eq!(g.injected_total(), 32);
    }

    #[test]
    fn decisions_are_pure_functions_of_coords() {
        let plan = FaultPlan::new(99).with_rate(FaultSite::LaneStuck, 0.5);
        let first: Vec<bool> = {
            let _g = session(plan.clone());
            (0..256)
                .map(|i| should_inject(FaultSite::LaneStuck, &[i]))
                .collect()
        };
        // Same seed, different call order: identical decisions.
        let second: Vec<bool> = {
            let _g = session(plan);
            let mut out = vec![false; 256];
            for i in (0..256).rev() {
                out[i as usize] = should_inject(FaultSite::LaneStuck, &[i]);
            }
            out
        };
        assert_eq!(first, second);
        let fired = first.iter().filter(|&&b| b).count();
        assert!((64..192).contains(&fired), "rate 0.5 fired {fired}/256");
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<bool> = {
            let _g = session(FaultPlan::new(1).with_rate(FaultSite::DetectorCorrupt, 0.5));
            (0..64)
                .map(|i| should_inject(FaultSite::DetectorCorrupt, &[i]))
                .collect()
        };
        let b: Vec<bool> = {
            let _g = session(FaultPlan::new(2).with_rate(FaultSite::DetectorCorrupt, 0.5));
            (0..64)
                .map(|i| should_inject(FaultSite::DetectorCorrupt, &[i]))
                .collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn sites_are_independent_streams() {
        let _g = session(
            FaultPlan::new(5)
                .with_rate(FaultSite::SramBitFlip, 0.5)
                .with_rate(FaultSite::DramRead, 0.5),
        );
        let a: Vec<bool> = (0..64)
            .map(|i| should_inject(FaultSite::SramBitFlip, &[i]))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|i| should_inject(FaultSite::DramRead, &[i]))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn counters_accumulate_and_reset_across_sessions() {
        {
            let g = session(FaultPlan::new(3));
            record("faults.fallback_dense", 2);
            record("faults.fallback_dense", 1);
            assert_eq!(g.counter("faults.fallback_dense"), 3);
        }
        let g = session(FaultPlan::new(3));
        assert_eq!(g.counter("faults.fallback_dense"), 0, "counter leaked");
    }

    #[test]
    fn concurrent_decisions_are_order_independent() {
        let plan = FaultPlan::new(11).with_rate(FaultSite::SramBitFlip, 0.3);
        let serial: Vec<bool> = {
            let _g = session(plan.clone());
            (0..400)
                .map(|i| should_inject(FaultSite::SramBitFlip, &[i]))
                .collect()
        };
        let g = session(plan);
        let scope = scope();
        let threaded: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    s.spawn(move || {
                        let _in = scope.enter();
                        (0..100)
                            .map(|i| {
                                let c = t * 100 + i;
                                (c, should_inject(FaultSite::SramBitFlip, &[c]))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<(u64, bool)> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            all.into_iter().map(|(_, b)| b).collect()
        });
        assert_eq!(serial, threaded);
        let expected = serial.iter().filter(|&&b| b).count() as u64;
        assert_eq!(g.counter("faults.sram.bitflip.injected"), expected);
    }

    #[test]
    fn injection_is_scoped_to_the_owning_thread() {
        let g = session(FaultPlan::new(7).with_rate(FaultSite::DramRead, 1.0));
        // The spawned thread runs while a rate-1 session is live but never
        // entered its scope (the gate's own test covers membership): it is
        // not faulted and leaves no counter.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!should_inject(FaultSite::DramRead, &[0]));
                record("faults.stray", 1);
                assert_eq!(active_seed(), None);
            });
        });
        assert!(g.counters().is_empty());
    }

    #[test]
    fn spec_parsing() {
        let plan = FaultPlan::parse_spec(9, "dram.read=0.5, attn.input=1").unwrap();
        assert_eq!(plan.rate(FaultSite::DramRead), 0.5);
        assert_eq!(plan.rate(FaultSite::AttnInput), 1.0);
        assert_eq!(plan.rate(FaultSite::SramBitFlip), 0.0);
        assert!(FaultPlan::parse_spec(9, "bogus=1").is_err());
        assert!(FaultPlan::parse_spec(9, "dram.read").is_err());
        assert!(FaultPlan::parse_spec(9, "dram.read=2.0").is_err());
        assert!(FaultPlan::parse_spec(9, "dram.read=abc").is_err());
    }

    #[test]
    fn site_name_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()).unwrap(), site);
        }
        assert!(FaultSite::parse("nope").is_err());
    }

    #[test]
    fn serve_sites_append_after_model_sites() {
        // The hash stream keys on the position in ALL, so the model-layer
        // sites must keep indices 0..MODEL.len() forever; serve sites
        // append after them. MODEL and SERVE partition ALL.
        assert_eq!(&FaultSite::ALL[..FaultSite::MODEL.len()], &FaultSite::MODEL);
        assert_eq!(&FaultSite::ALL[FaultSite::MODEL.len()..], &FaultSite::SERVE);
    }
}
