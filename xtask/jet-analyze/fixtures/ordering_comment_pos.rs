// Positive fixture: a SeqCst store with no `// ordering:` comment saying
// why it needs a total order.

use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Flag {
    cancelled: AtomicUsize,
}

impl Flag {
    pub fn cancel(&self) {
        self.cancelled.store(1, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        // ordering: SeqCst — totally ordered with `cancel`.
        self.cancelled.load(Ordering::SeqCst) == 1
    }
}
