//! Fixture: the clients of the table servant.

pub fn fetch(fed: &Fed) {
    fed.invoke("rows", &[]);
    fed.invoke("count", &[]);
}
