//! Fixture: inline hooks that write their reply through a module path.
//! Two modules define a free `write_reply`; only the reactor's takes a
//! connection's send guard.

impl EchoOps for Echo {
    fn invoke_now(&self, op: &str, out: &mut Out) -> Option<Result<(), Error>> {
        Some(reply::write_reply(&op.len(), out))
    }
}

impl ForwardOps for Forward {
    fn invoke_now(&self, op: &str, out: &mut Out) -> Option<Result<(), Error>> {
        Some(reactor::write_reply(&self.conn, op))
    }
}
