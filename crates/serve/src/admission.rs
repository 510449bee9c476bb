//! Bounded admission: shed load past a fixed in-flight depth.

use crate::error::ServeError;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// In-flight request counter with a hard bound. Zero-cost when the
/// bound is 0 (unbounded). A request holds a [`Permit`] for its whole
/// execution; dropping the permit releases the slot.
#[derive(Debug)]
pub(crate) struct Admission {
    in_flight: AtomicUsize,
    limit: usize,
    overloads: AtomicU64,
}

/// Point-in-time admission counters for [`crate::ServeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests currently executing.
    pub in_flight: usize,
    /// Configured depth bound (0 = unbounded).
    pub limit: usize,
    /// Requests rejected with [`ServeError::Overloaded`] so far.
    pub overloads: u64,
}

/// RAII admission slot; releases on drop.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    owner: &'a Admission,
}

impl Admission {
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            in_flight: AtomicUsize::new(0),
            limit,
            overloads: AtomicU64::new(0),
        }
    }

    /// Claim a slot or fail with [`ServeError::Overloaded`].
    pub(crate) fn try_acquire(&self) -> Result<Permit<'_>, ServeError> {
        // ordering: Relaxed — the counter is a pure occupancy count used
        // for load shedding; it guards no memory (request state is
        // reached through the snapshot RwLock / writer Mutex, which
        // carry their own happens-before edges), and the RMW atomicity
        // of fetch_add alone keeps the count exact.
        let prev = self.in_flight.fetch_add(1, Ordering::Relaxed);
        if self.limit > 0 && prev >= self.limit {
            // ordering: Relaxed — undo of the optimistic reservation
            // above; same reasoning, no memory is published through it.
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
            // ordering: Relaxed — monotonic statistics counter only.
            self.overloads.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                in_flight: prev,
                limit: self.limit,
            });
        }
        Ok(Permit { owner: self })
    }

    pub(crate) fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            // ordering: Relaxed — point-in-time statistics reads; the
            // values are independent counters, not a consistent cut.
            in_flight: self.in_flight.load(Ordering::Relaxed),
            limit: self.limit,
            // ordering: Relaxed — see above.
            overloads: self.overloads.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // ordering: Relaxed — releases an occupancy slot only; the
        // request's effects travel through the locks it used, not
        // through this counter.
        self.owner.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_and_releases() {
        let a = Admission::new(2);
        let p1 = a.try_acquire();
        let p2 = a.try_acquire();
        assert!(p1.is_ok() && p2.is_ok());
        let over = a.try_acquire();
        assert!(matches!(
            over,
            Err(ServeError::Overloaded {
                in_flight: 2,
                limit: 2
            })
        ));
        drop(p1);
        assert!(a.try_acquire().is_ok(), "slot must free on drop");
        assert_eq!(a.stats().overloads, 1);
    }

    #[test]
    fn zero_limit_is_unbounded() {
        let a = Admission::new(0);
        let permits: Vec<_> = (0..64).map(|_| a.try_acquire()).collect();
        assert!(permits.iter().all(|p| p.is_ok()));
        assert_eq!(a.stats().in_flight, 64);
    }
}
