//! Background compaction: fold deltas into the base on a timer.

use crate::service::Service;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A background thread that calls [`Service::compact`] at a fixed
/// interval until stopped. Stop is prompt (condvar, not sleep) and
/// automatic on drop.
///
/// A tick does not serialize on the service's writer lock: it holds
/// the lock to log the `Compact` frame and again for the swap, while the
/// merge and index build in between run with no lock held and writes go
/// on (they are carried into the new snapshot). The tick itself waits
/// for its own swap. Readers keep serving the old snapshot `Arc`
/// throughout, so the only observable "pause" is the writer latency of
/// those two lock holds, reported as
/// [`crate::ServeStats::last_compact_nanos`].
#[derive(Debug)]
pub struct Compactor {
    signal: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Compactor {
    /// Spawn a compactor over `service`, compacting every `every`.
    pub fn spawn(service: Arc<Service>, every: Duration) -> Self {
        let signal = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::spawn(move || {
            let (stop_flag, cv) = &*thread_signal;
            let mut stopped = stop_flag.lock().unwrap_or_else(|e| e.into_inner());
            while !*stopped {
                let (guard, timeout) = cv
                    .wait_timeout(stopped, every)
                    .unwrap_or_else(|e| e.into_inner());
                stopped = guard;
                if *stopped {
                    break;
                }
                if timeout.timed_out() {
                    // A failed compaction (engine error) is not fatal to
                    // the service — the current snapshot stays published
                    // and the next tick retries.
                    let _ = service.compact();
                }
            }
        });
        Self {
            signal,
            handle: Some(handle),
        }
    }

    /// Stop the background thread and wait for it to exit. Idempotent.
    pub fn stop(&mut self) {
        let (stop_flag, cv) = &*self.signal;
        *stop_flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop();
    }
}
