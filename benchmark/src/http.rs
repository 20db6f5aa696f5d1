//! The load generator's HTTP/1.1 client.
//!
//! Plain `GET`, response framed by `content-length`, and the socket is kept
//! for the next request only when the response does not say
//! `connection: close`. Today's server always says it, so behaviour today is
//! one connection per request; a later keep-alive server shows its gain
//! without the benchmark being edited.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response head larger than this is a failure, not a reason to allocate.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// A body larger than this is a failure (the largest scan is ~1.2 MB).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// No request of any workload takes this long; a stuck socket must not hang
/// the run.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a request produced no usable response.
#[derive(Debug)]
pub enum ClientError {
    /// Connect, read or write failed, or the peer closed early.
    Io(std::io::Error),
    /// The bytes received are not the HTTP this client speaks.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection's worth of client state: at most one socket at a time.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    /// Sockets opened so far.
    pub connects: u64,
}

/// A complete response; `body` borrows the client's buffer.
#[derive(Debug)]
pub struct Reply<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            buf: Vec::with_capacity(64 * 1024),
            connects: 0,
        }
    }

    /// Issues `GET path` and reads the whole response.
    pub fn get(&mut self, path: &str) -> Result<Reply<'_>, ClientError> {
        let reused = self.conn.is_some();
        if let Err(e) = self.exchange(path) {
            // A kept socket the server closed while idle fails before any
            // byte arrives; that is the protocol's normal race, so retry
            // once on a fresh connection.
            let idle_close = reused && self.buf.is_empty() && matches!(e, ClientError::Io(_));
            if !idle_close {
                return Err(e);
            }
            self.exchange(path)?;
        }
        let (status, body_start) = self.parsed_head()?;
        Ok(Reply {
            status,
            body: &self.buf[body_start..],
        })
    }

    /// Sends the request and fills `buf` with head + body.
    fn exchange(&mut self, path: &str) -> Result<(), ClientError> {
        self.buf.clear();
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => {
                let conn = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
                conn.set_nodelay(true)?;
                conn.set_read_timeout(Some(IO_TIMEOUT))?;
                conn.set_write_timeout(Some(IO_TIMEOUT))?;
                self.connects += 1;
                conn
            }
        };
        conn.write_all(format!("GET {path} HTTP/1.1\r\nhost: spotlake-bench\r\n\r\n").as_bytes())?;

        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf) {
                break end;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ClientError::Protocol("response head too large"));
            }
            match conn.read(&mut chunk)? {
                0 => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| ClientError::Protocol("response head is not UTF-8"))?;
        let length: usize = header(head, "content-length")
            .and_then(|v| v.parse().ok())
            .ok_or(ClientError::Protocol("missing content-length"))?;
        if length > MAX_BODY_BYTES {
            return Err(ClientError::Protocol("response body too large"));
        }
        let close = header(head, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));

        let total = head_end + length;
        if self.buf.len() > total {
            return Err(ClientError::Protocol("bytes beyond content-length"));
        }
        let have = self.buf.len();
        self.buf.resize(total, 0);
        // `read_exact` reports a body cut short as `UnexpectedEof`: a
        // truncated response is a failed request, never a short success.
        conn.read_exact(&mut self.buf[have..])?;
        if !close {
            self.conn = Some(conn);
        }
        Ok(())
    }

    /// Status code and body offset of the response in `buf`.
    fn parsed_head(&self) -> Result<(u16, usize), ClientError> {
        let head_end = find_head_end(&self.buf).ok_or(ClientError::Protocol("no head"))?;
        let status = self
            .buf
            .get(..head_end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| h.strip_prefix("HTTP/1.1 "))
            .and_then(|rest| rest.get(..3)?.parse().ok())
            .ok_or(ClientError::Protocol("bad status line"))?;
        Ok((status, head_end))
    }
}

/// Offset just past the first blank line.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Value of header `name` (lower-case) in a response head.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `connections`: on each, answers every request head it reads
    /// with the next entry of `replies` (raw bytes), and closes when that
    /// entry says `connection: close` or carries no length, or when the
    /// client goes away.
    fn serve(
        replies: Vec<&'static [u8]>,
        connections: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut replies = replies.into_iter();
            for _ in 0..connections {
                let (mut conn, _) = listener.accept().unwrap();
                loop {
                    let mut head = Vec::new();
                    let mut byte = [0u8; 1];
                    while !head.ends_with(b"\r\n\r\n") {
                        match conn.read(&mut byte) {
                            Ok(1) => head.push(byte[0]),
                            _ => break,
                        }
                    }
                    if !head.ends_with(b"\r\n\r\n") {
                        break;
                    }
                    let Some(reply) = replies.next() else { break };
                    conn.write_all(reply).unwrap();
                    let says = |needle: &[u8]| reply.windows(needle.len()).any(|w| w == needle);
                    if says(b"connection: close") || !says(b"ength: ") {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn body_is_framed_by_content_length_not_by_blank_lines() {
        let (addr, server) = serve(
            vec![b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\nconnection: close\r\n\r\nab\r\n\r\ncde"],
            1,
        );
        let mut client = Client::new(addr);
        let reply = client.get("/x").unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, b"ab\r\n\r\ncde");
        server.join().unwrap();
    }

    #[test]
    fn connection_close_reconnects_and_its_absence_reuses_the_socket() {
        let closing: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok";
        let (addr, server) = serve(vec![closing, closing], 2);
        let mut client = Client::new(addr);
        assert_eq!(client.get("/a").unwrap().body, b"ok");
        assert_eq!(client.get("/b").unwrap().body, b"ok");
        assert_eq!(client.connects, 2);
        server.join().unwrap();

        let keeping: &[u8] =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nx-padding: 0123456789\r\n\r\nok";
        let (addr, server) = serve(vec![keeping, keeping, keeping], 1);
        let mut client = Client::new(addr);
        for _ in 0..3 {
            assert_eq!(client.get("/a").unwrap().body, b"ok");
        }
        assert_eq!(client.connects, 1);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn truncated_response_is_a_failure() {
        let (addr, server) = serve(
            vec![b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\nconnection: close\r\n\r\nshort"],
            1,
        );
        let mut client = Client::new(addr);
        assert!(matches!(client.get("/x"), Err(ClientError::Io(_))));
        server.join().unwrap();

        let (addr, server) = serve(vec![b"HTTP/1.1 200 OK\r\n\r\n"], 1);
        let mut client = Client::new(addr);
        assert!(matches!(client.get("/x"), Err(ClientError::Protocol(_))));
        server.join().unwrap();
    }
}
