//! Fixture: a dispatch path the reactor reaches that forwards a request
//! as a typed remote call.

pub fn forward(r: &Reactor) {
    let topic = r.topic.clone();
    r.fed.call(&r.next, codb::Probe { topic, known: None });
}
