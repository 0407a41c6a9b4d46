// Positive fixture: item-at-a-time polling in a tasklet's trait impl and
// in the tasklet type's inherent impl, with no `// single-item:` reason.

struct T;

impl Tasklet for T {
    fn call(&mut self) -> Progress {
        while let Some(item) = self.input.poll_lane(0) {
            self.handle(item);
        }
        Progress::Idle
    }
}

impl SenderTasklet {
    fn pump(&mut self) {
        let _ = self.input.poll(0);
    }
}
