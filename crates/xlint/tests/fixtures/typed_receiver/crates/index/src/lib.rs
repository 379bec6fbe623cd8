//! Fixture: the field type `Store::links` calls into, in another crate.

impl Index {
    pub fn lookup(&self, topic: &str) -> Vec<Link> {
        self.by_topic.search(topic)
    }
}
