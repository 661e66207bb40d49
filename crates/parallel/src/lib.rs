//! Host-side parallel execution layer for the DOTA reproduction.
//!
//! The paper's premise is throughput: detect-and-omit exists so attention
//! runs as fast as the hardware allows. This crate supplies the *host*
//! counterpart of that idea — a small, dependency-free fork/join layer over
//! `std::thread::scope` with a rayon-like API, used by the GEMM kernels
//! (`dota-tensor`, behind its `parallel` feature), the per-head attention
//! fan-out (`dota-transformer`), batched workload evaluation (`dota-core`)
//! and the benchmark sweep harness (`dota-bench`).
//!
//! Two primitives cover all of those:
//!
//! * [`par_map`] — order-preserving parallel map over a slice with dynamic
//!   (work-stealing-style) scheduling; used for heads, sequences and sweep
//!   points, whose costs vary.
//! * [`par_partition_mut`] — static contiguous partitioning of a mutable
//!   buffer on unit boundaries; used for row-block GEMM, where partitioning
//!   by output rows keeps parallel results bitwise identical to serial.
//!
//! The pool width is `DOTA_THREADS` (default: the machine's available
//! parallelism), read once, the first time a dispatch asks; setting
//! `DOTA_THREADS=1` forces fully serial execution, which CI uses to pin
//! down reproducibility. An in-process choice of width is a scoped value,
//! [`with_threads`], on the calling thread, never a write to the
//! environment: it needs no propagation, because a dispatch from inside a
//! worker stays serial whatever its width ([`in_worker`]).

#![deny(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of **physical** cores, the denominator of `pool_speedup` columns.
pub use dota_metrics::physical_cores as num_physical_cores;

thread_local! {
    /// Set while the current thread is a pool worker; nested dispatches
    /// check it and stay serial instead of forking a second pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// The width of the innermost [`with_threads`] scope on this thread.
    static SCOPED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `true` when called from inside a [`par_map`] / [`par_partition_mut`] /
/// [`par_panels_mut`] worker.
///
/// Library hot paths that may run both at top level and underneath another
/// fan-out (e.g. GEMM inside the per-head attention fan-out) use this to
/// avoid spawning a pool per worker: nested parallelism oversubscribes the
/// machine — `threads²` runnable threads fighting over the same caches —
/// and loses to running the inner work serially on the worker that owns it.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// The dispatching thread's trace, histogram, profiling and fault session
/// memberships. Sessions record only from threads inside their scope, so
/// each worker enters these for the duration of its share of the work.
#[derive(Clone, Copy)]
struct Scopes(
    dota_trace::Scope,
    dota_metrics::HistScope,
    dota_prof::Scope,
    dota_faults::Scope,
);

impl Scopes {
    fn of_dispatcher() -> Self {
        Scopes(
            dota_trace::scope(),
            dota_metrics::hist_scope(),
            dota_prof::scope(),
            dota_faults::scope(),
        )
    }
}

/// Marks the current thread as a pool worker inside the dispatcher's
/// `scopes` for the duration of `body`.
fn as_worker<R>(scopes: Scopes, body: impl FnOnce() -> R) -> R {
    let _in = (
        scopes.0.enter(),
        scopes.1.enter(),
        scopes.2.enter(),
        scopes.3.enter(),
    );
    IN_WORKER.with(|w| w.set(true));
    let out = body();
    IN_WORKER.with(|w| w.set(false));
    out
}

/// The number of worker threads a dispatch from this thread may use: the
/// innermost [`with_threads`] scope's width, else the process setting —
/// `DOTA_THREADS` if set to a positive integer, otherwise the machine's
/// available parallelism, resolved once per process by
/// [`dota_metrics::thread_budget`].
///
/// A malformed `DOTA_THREADS` falls back to the machine default so hot
/// library paths never fail; front ends reject it up front (the `dota`
/// binaries through `dota_core::cli::ENV`).
pub fn num_threads() -> usize {
    static PROCESS: OnceLock<usize> = OnceLock::new();
    SCOPED
        .with(Cell::get)
        .unwrap_or_else(|| *PROCESS.get_or_init(dota_metrics::thread_budget))
}

/// Runs `body` with dispatches from the calling thread capped at `n`
/// workers (`0` counts as `1`), then restores the previous width — also
/// when `body` panics. Scopes nest; other threads, including threads
/// `body` spawns itself, keep the process setting.
pub fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(n.max(1)))));
    body()
}

/// Order-preserving parallel map: returns `f(i, &items[i])` for every `i`,
/// in input order.
///
/// Work is claimed dynamically (one atomic increment per item), so uneven
/// per-item costs — long vs short sequences, dense vs sparse heads — stay
/// balanced. Falls back to a plain serial map when the pool has one thread
/// or there is at most one item.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = if in_worker() {
        1
    } else {
        num_threads().min(items.len())
    };
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let scopes = Scopes::of_dispatcher();
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    as_worker(scopes, || {
                        let mut got = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            got.push((i, f(i, &items[i])));
                        }
                        got
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    for w in &mut per_worker {
        indexed.append(w);
    }
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Splits `data` into one contiguous span per worker, aligned to `unit`
/// boundaries, and runs `f(first_unit_index, span)` on each span in
/// parallel.
///
/// `data.len()` must be a multiple of `unit` (a row-major matrix with
/// `unit = row length` is the intended use). Because the partition is by
/// whole units and `f` computes each unit independently, the result is
/// bitwise identical to calling `f(0, data)` serially — which is exactly
/// what happens when the pool has one thread.
///
/// # Panics
///
/// Panics if `unit == 0` or `data.len()` is not a multiple of `unit`.
pub fn par_partition_mut<T, F>(data: &mut [T], unit: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit > 0, "unit must be positive");
    assert_eq!(data.len() % unit, 0, "data must divide into whole units");
    let n_units = data.len() / unit;
    if n_units == 0 {
        return;
    }
    let workers = if in_worker() {
        1
    } else {
        num_threads().min(n_units)
    };
    if workers <= 1 {
        f(0, data);
        return;
    }
    // Ceil-divide so every worker gets a near-equal contiguous block.
    let units_per_worker = n_units.div_ceil(workers);
    let scopes = Scopes::of_dispatcher();
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut first_unit = 0;
        while !rest.is_empty() {
            let take = units_per_worker.min(rest.len() / unit) * unit;
            let (span, tail) = rest.split_at_mut(take);
            let start = first_unit;
            let f = &f;
            scope.spawn(move || as_worker(scopes, || f(start, span)));
            first_unit += take / unit;
            rest = tail;
        }
    });
}

/// A raw span of a larger buffer, shareable across worker threads. Each
/// panel index is claimed by exactly one worker (an atomic ticket), so the
/// reconstructed `&mut [T]` slices never alias.
struct PanelPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced through disjoint panel ranges,
// each owned by the single worker that claimed the panel's ticket.
unsafe impl<T: Send> Send for PanelPtr<T> {}
unsafe impl<T: Send> Sync for PanelPtr<T> {}

/// Splits `data` into fixed-size panels of `panel_units` units (`unit`
/// elements each; the last panel may be short) and runs
/// `f(first_unit_index, panel_span)` over them with **dynamic claiming**:
/// workers pull the next unclaimed panel from an atomic ticket counter, so
/// a slow panel (cache-cold rows, NUMA effects, a descheduled worker)
/// delays only its owner instead of the whole static partition.
///
/// This is the GEMM row-panel scheduler: panels are sized to the kernel's
/// L2 blocking (`MC` rows), claiming is load-balanced, and because every
/// panel is computed by identical code whichever worker claims it, the
/// result is bitwise identical to the serial panel loop — which is exactly
/// what runs when the pool has one thread, the data holds a single panel,
/// or the caller is itself a pool worker (nested dispatch stays serial,
/// see [`in_worker`]).
///
/// # Panics
///
/// Panics if `unit == 0`, `panel_units == 0`, or `data.len()` is not a
/// multiple of `unit`.
pub fn par_panels_mut<T, F>(data: &mut [T], unit: usize, panel_units: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit > 0, "unit must be positive");
    assert!(panel_units > 0, "panel_units must be positive");
    assert_eq!(data.len() % unit, 0, "data must divide into whole units");
    let n_units = data.len() / unit;
    if n_units == 0 {
        return;
    }
    let n_panels = n_units.div_ceil(panel_units);
    let workers = if in_worker() {
        1
    } else {
        num_threads().min(n_panels)
    };
    let panel_span = |p: usize| {
        let first = p * panel_units;
        let units = panel_units.min(n_units - first);
        (first, first * unit, units * unit)
    };
    if workers <= 1 {
        for p in 0..n_panels {
            let (first, lo, len) = panel_span(p);
            f(first, &mut data[lo..lo + len]);
        }
        return;
    }
    let base = PanelPtr(data.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let scopes = Scopes::of_dispatcher();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let base = &base;
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                as_worker(scopes, || loop {
                    let p = next.fetch_add(1, Ordering::Relaxed);
                    if p >= n_panels {
                        break;
                    }
                    let (first, lo, len) = panel_span(p);
                    // SAFETY: panel `p` was claimed by this worker alone
                    // (fetch_add tickets are unique) and panels cover
                    // disjoint element ranges of the buffer.
                    let span = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), len) };
                    f(first, span);
                })
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_is_scoped_to_the_calling_thread() {
        let process = num_threads();
        assert!(process >= 1);
        let inner = with_threads(4, || {
            let spawned = std::thread::spawn(num_threads).join().unwrap();
            assert_eq!(
                spawned, process,
                "a spawned thread reads the process setting"
            );
            let nested = with_threads(1, num_threads);
            (nested, num_threads(), with_threads(0, num_threads))
        });
        assert_eq!(inner, (1, 4, 1), "scopes nest and restore; 0 counts as 1");
        assert_eq!(num_threads(), process, "restored on exit");
        let unwound = std::panic::catch_unwind(|| with_threads(3, || panic!("body")));
        assert!(unwound.is_err());
        assert_eq!(num_threads(), process, "restored on panic");
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 7] {
            let got = with_threads(threads, || {
                let items: Vec<usize> = (0..100).collect();
                par_map(&items, |i, &x| {
                    assert_eq!(i, x);
                    x * 3
                })
            });
            assert_eq!(got, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn partition_covers_every_unit_exactly_once() {
        for threads in [1, 3, 16] {
            with_threads(threads, || {
                let rows = 37;
                let cols = 5;
                let mut data = vec![0u32; rows * cols];
                par_partition_mut(&mut data, cols, |first_row, span| {
                    for (r, row) in span.chunks_mut(cols).enumerate() {
                        for v in row.iter_mut() {
                            *v += (first_row + r) as u32 + 1;
                        }
                    }
                });
                for (i, &v) in data.iter().enumerate() {
                    assert_eq!(v, (i / cols) as u32 + 1, "unit {i} written once");
                }
            });
        }
    }

    #[test]
    fn partition_handles_empty_and_tiny() {
        let mut empty: Vec<f32> = Vec::new();
        par_partition_mut(&mut empty, 4, |_, _| panic!("no units, no calls"));
        let mut one = vec![1.0f32; 3];
        par_partition_mut(&mut one, 3, |first, span| {
            assert_eq!(first, 0);
            span[0] = 2.0;
        });
        assert_eq!(one[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "whole units")]
    fn partition_rejects_ragged_data() {
        let mut data = vec![0.0f32; 7];
        par_partition_mut(&mut data, 4, |_, _| {});
    }

    #[test]
    fn panels_cover_every_unit_exactly_once() {
        for threads in [1, 3, 16] {
            for panel_units in [1usize, 4, 7, 100] {
                with_threads(threads, || {
                    let rows = 37;
                    let cols = 5;
                    let mut data = vec![0u32; rows * cols];
                    par_panels_mut(&mut data, cols, panel_units, |first_row, span| {
                        for (r, row) in span.chunks_mut(cols).enumerate() {
                            for v in row.iter_mut() {
                                *v += (first_row + r) as u32 + 1;
                            }
                        }
                    });
                    for (i, &v) in data.iter().enumerate() {
                        assert_eq!(v, (i / cols) as u32 + 1, "unit {i} written once");
                    }
                });
            }
        }
    }

    #[test]
    fn panels_handle_empty() {
        let mut empty: Vec<f32> = Vec::new();
        par_panels_mut(&mut empty, 4, 2, |_, _| panic!("no units, no calls"));
    }

    #[test]
    fn nested_dispatch_stays_serial() {
        with_threads(4, || {
            assert!(!in_worker(), "top level is not a worker");
            let items: Vec<usize> = (0..16).collect();
            let nested_flags = par_map(&items, |_, _| {
                // Inside a worker the flag is set, and a nested map must
                // not fork again — its own workers would see the flag too.
                let inner: Vec<bool> = par_map(&[0usize, 1], |_, _| in_worker());
                (in_worker(), inner)
            });
            for (outer, inner) in nested_flags {
                assert!(outer, "worker flag set during outer dispatch");
                assert!(inner.iter().all(|&w| w), "nested map ran in-worker");
            }
            assert!(!in_worker(), "flag cleared after dispatch");
        });
    }

    #[test]
    fn workers_join_the_dispatchers_sessions() {
        with_threads(4, || {
            let trace = dota_trace::session("pool");
            let faults = dota_faults::session(
                dota_faults::FaultPlan::new(1).with_rate(dota_faults::FaultSite::DramRead, 1.0),
            );
            let items: Vec<u64> = (0..32).collect();
            let fired = par_map(&items, |_, &i| {
                dota_trace::count("pool.items", 1);
                dota_faults::should_inject(dota_faults::FaultSite::DramRead, &[i])
            });
            assert!(fired.iter().all(|&f| f), "workers see the fault plan");
            assert_eq!(trace.counter("pool.items"), 32);
            assert_eq!(faults.injected_total(), 32);
        });
    }

    #[test]
    fn physical_cores_positive() {
        assert!(num_physical_cores() >= 1);
    }
}
