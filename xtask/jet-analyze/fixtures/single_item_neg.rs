// Negative fixture: the tasklet drains in bulk and says why its one
// item-at-a-time loop is needed; free fns and other impls may poll.

struct T;

impl Tasklet for T {
    fn call(&mut self) -> Progress {
        // single-item: control items mutate alignment state one at a time.
        while let Some(item) = self.input.poll_lane(0) {
            self.handle(item);
        }
        self.input.drain_batch(64, |item| self.stage(item));
        Progress::Idle
    }
}

pub fn free(c: &mut Consumer<u8>) {
    let _ = c.poll();
}

impl Decoder {
    fn step(&mut self) {
        let _ = self.input.poll();
    }
}
