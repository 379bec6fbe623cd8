//! Fixture: servants' inline hooks. The reactor reaches them only
//! through a trait object and macro-generated forwarding, so each hook
//! is a root of its own.

pub struct Cached {
    table: RwLock<Table>,
}

impl ReadOps for Cached {
    fn invoke_now(&self, op: &str, out: &mut Out) -> Option<Answer> {
        let table = self.table.read();
        Some(table.answer(op, out))
    }
}

impl ForwardOps for Proxy {
    fn invoke_now(&self, op: &str, out: &mut Out) -> Option<Answer> {
        Some(forward(self, op))
    }
}

/// Waits on nothing: a taken guard defers the call.
impl PointOps for Point {
    fn invoke_now(&self, op: &str, out: &mut Out) -> Option<Answer> {
        let table = self.table.try_read()?;
        Some(table.answer(op, out))
    }
}
