//! Fixture: guards held across typed remote calls one hop away — a
//! single `call` and a pipelined `call_all` batch.

pub fn refresh_members(s: &Site) {
    let g = s.cache.lock();
    fetch_members(s);
    drop(g);
}

fn fetch_members(s: &Site) {
    let coalition = s.coalition.clone();
    s.fed.call(&s.ior, codb::Members { coalition });
}

pub fn refresh_probes(s: &Site) {
    let g = s.cache.lock();
    probe_all(s);
    drop(g);
}

fn probe_all(s: &Site) {
    s.fed.call_all(&s.probes);
}
