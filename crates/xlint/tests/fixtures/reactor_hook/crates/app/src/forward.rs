//! Fixture: the remote call a forwarding hook reaches.

pub fn forward(p: &Proxy, op: &str) -> Answer {
    p.orb.call(&p.next, op)
}
