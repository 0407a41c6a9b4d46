// Positive fixture: three blocking calls made directly in a tasklet's
// `call()` — a sleep, a channel receive and a mutex lock — each flagged.

struct T;

impl Tasklet for T {
    fn call(&mut self) -> Progress {
        std::thread::sleep(std::time::Duration::from_millis(1));
        let _ = self.rx.recv();
        let _guard = self.state.lock();
        Progress::Idle
    }
}
