//! Fixture: a reactor whose event loop reaches a tracked lock and a
//! blocking call through a call-graph cycle and a cross-file helper.

pub struct Reactor {
    queue: Mutex<Vec<u8>>,
}

impl Reactor {
    pub fn run(&self) {
        self.tick();
    }

    fn tick(&self) {
        self.step();
    }

    fn step(&self) {
        // Cycle back into tick: reachability must terminate.
        self.tick();
        helper_flush(self);
        self.dispatch();
    }

    fn dispatch(&self) {
        forward(self);
    }
}
