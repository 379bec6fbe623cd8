//! Fixture: an inline hook answers from the store under a `try_read`
//! guard. The servant beside it has same-name methods that take the
//! store's blocking guard; only a receiver declared as the servant
//! reaches them.

pub struct Store {
    index: Index,
}

impl Store {
    /// `self.index` is declared an `Index`: `lookup` is `Index::lookup`.
    pub fn links(&self, topic: &str) -> Vec<Link> {
        self.index.lookup(topic)
    }
}

pub struct StoreServant {
    store: RwLock<Store>,
}

impl StoreServant {
    pub fn links(&self, topic: &str) -> Vec<Link> {
        self.store.read().links(topic)
    }

    pub fn lookup(&self, topic: &str) -> Vec<Link> {
        self.store.read().index.lookup(topic)
    }

    pub fn topics(&self) -> Vec<String> {
        self.store.read().topics()
    }
}

impl StoreOps for StoreServant {
    fn invoke_now(&self, op: &str, out: &mut Out) -> Option<Answer> {
        let store = self.store.try_read()?;
        Some(answer_of(&store, op))
    }
}

/// `store` is declared a `Store`: `store.links` is `Store::links`.
fn answer_of(store: &Store, topic: &str) -> Answer {
    Answer::from(store.links(topic))
}

impl PeerOps for Peer {
    fn invoke_now(&self, op: &str, out: &mut Out) -> Option<Answer> {
        let servant: &StoreServant = self.local();
        Some(Answer::from(servant.topics()))
    }
}
