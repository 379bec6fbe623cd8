//! Fixture: a worker's reply path, which queues under the connection's
//! send guard.

pub fn write_reply(conn: &Conn, op: &str) -> Result<(), Error> {
    let send = conn.send.lock();
    send.queue(op)
}
