//! Fixture: the reply writer a hook may call; it waits on nothing.

pub fn write_reply(answer: &usize, out: &mut Out) -> Result<(), Error> {
    out.put(answer)
}
