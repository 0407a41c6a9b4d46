// Negative fixture: every SeqCst op says why; relaxed ops outside the
// lock-free files need no comment.

use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Flag {
    cancelled: AtomicUsize,
    hits: AtomicUsize,
}

impl Flag {
    pub fn cancel(&self) {
        // ordering: SeqCst — the cancel flag is totally ordered with the
        // live-tasklet count.
        self.cancelled.store(1, Ordering::SeqCst);
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        // ordering: SeqCst — totally ordered with `cancel`.
        self.cancelled.load(Ordering::SeqCst) == 1
    }
}
