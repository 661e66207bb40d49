//! The owner-scoped session gate shared by `dota-trace`, `dota-metrics`,
//! `dota-prof` and `dota-faults`.
//!
//! This is one source file compiled into each of those crates with
//! `#[path]` (they share no dependency to home it in), so every crate gets
//! its own independent gate: its own live-session id, exclusivity lock and
//! per-thread membership.
//!
//! A session is exclusive ([`open`] blocks until the previous [`Session`]
//! drops) and collects only from the thread that opened it and from
//! threads that [`Scope::enter`] its [`scope`] token; [`enabled`] is one
//! relaxed load plus one thread-local read.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Id of the live session (0 when none); ids are never reused.
static LIVE: AtomicU64 = AtomicU64::new(0);
static LAST_SESSION: AtomicU64 = AtomicU64::new(0);
static SESSION_GATE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Id of the session this thread belongs to (0 when none). Const
    /// initialized so reading it never runs a lazy TLS initializer, which
    /// could allocate (`dota-prof`'s allocator hook reads it).
    static SCOPE: Cell<u64> = const { Cell::new(0) };
}

/// Whether the calling thread belongs to the live session: it opened the
/// session, or entered its [`scope`]. Never allocates.
#[inline]
pub fn enabled() -> bool {
    let live = LIVE.load(Ordering::Relaxed);
    // `try_with`: `dota-prof`'s counting allocator calls this during
    // thread teardown, after the thread-local is gone.
    live != 0 && SCOPE.try_with(Cell::get) == Ok(live)
}

/// Whether any session is live, on whichever thread (only `dota-metrics`'
/// pull-based snapshot asks).
#[allow(dead_code)]
pub fn live() -> bool {
    LIVE.load(Ordering::Relaxed) != 0
}

/// A thread's membership in a session, for handing to threads that work
/// on its behalf (see [`scope`]).
#[derive(Debug, Clone, Copy)]
pub struct Scope(u64);

/// The calling thread's session membership (possibly none).
pub fn scope() -> Scope {
    Scope(SCOPE.with(Cell::get))
}

impl Scope {
    /// Joins the calling thread to this scope until the guard drops.
    pub fn enter(self) -> ScopeGuard {
        ScopeGuard(SCOPE.with(|s| s.replace(self.0)))
    }
}

/// Restores the thread's previous membership on drop (see [`Scope::enter`]).
#[derive(Debug)]
pub struct ScopeGuard(u64);

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.0));
    }
}

/// Exclusive hold on the gate; the session ends when it drops.
#[derive(Debug)]
pub struct Session {
    _gate: MutexGuard<'static, ()>,
}

/// Begins an exclusive session owned by the calling thread, running
/// `reset` (which clears the crate's recording) after the previous session
/// has ended and before this one goes live.
///
/// Blocks until any other live session ends. Do **not** open a second
/// session from a thread that already holds one — that deadlocks (by
/// design: two interleaved recordings would corrupt each other).
pub fn open(reset: impl FnOnce()) -> Session {
    let gate = SESSION_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    reset();
    let id = LAST_SESSION.fetch_add(1, Ordering::Relaxed) + 1;
    SCOPE.with(|s| s.set(id));
    LIVE.store(id, Ordering::SeqCst);
    Session { _gate: gate }
}

impl Drop for Session {
    fn drop(&mut self) {
        LIVE.store(0, Ordering::SeqCst);
        SCOPE.with(|s| s.set(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread running while a session is live is outside it until it
    /// enters the owner's scope, and is outside again once the guard drops.
    #[test]
    fn only_the_owner_and_threads_in_its_scope_are_enabled() {
        assert!(!enabled());
        let session = open(|| {});
        assert!(enabled() && live());
        let owner = scope();
        std::thread::scope(|s| {
            s.spawn(move || {
                assert!(live() && !enabled());
                {
                    let _in = owner.enter();
                    assert!(enabled());
                }
                assert!(!enabled());
            });
        });
        drop(session);
        assert!(!enabled());
        // A scope token outlives its session but never matches a later one.
        let _next = open(|| {});
        std::thread::scope(|s| {
            s.spawn(move || {
                let _in = owner.enter();
                assert!(!enabled());
            });
        });
    }
}
