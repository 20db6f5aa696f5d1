//! Generated-input tests of the wire layer.
//!
//! 1. Request heads, generated from parts whose meaning is known and then
//!    optionally mutated, go through `read_head` → `parse_head`, fed in
//!    arbitrary read sizes. An unmutated head must come back as exactly
//!    the request it was generated from, or as the typed error its parts
//!    call for; a mutated one as some request or some typed error. None
//!    may panic or hang.
//! 2. Sequences of one to five heads go down one socket to a real server
//!    in arbitrary write splits — pipelined in one write, a byte at a
//!    time, or in random chunks — and sometimes half-closed after the
//!    last. The responses must come back in order, one per well-formed
//!    head, each answering its own head; the first malformed head (or one
//!    asking to close) gets its answer and then the close. Nothing sent
//!    after a head may be lost or reordered.

use proptest::prelude::*;
use spotlake_serving::server::wire::{self, WireError, WireLimits};
use spotlake_serving::server::{Server, ServerConfig, ServerHandle, SharedArchive};
use spotlake_serving::HttpRequest;
use spotlake_timestream::{Database, Record, TableOptions};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

// ---- 1. heads through the parser -----------------------------------

/// A head built from parts, plus what the parser must make of it.
#[derive(Debug, Clone)]
struct Head {
    bytes: Vec<u8>,
    expect: Result<HttpRequest, u16>,
}

const METHODS: [&str; 7] = ["GET", "GET", "GET", "POST", "HEAD", "get", ""];
const VERSIONS: [&str; 5] = ["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.2"];
/// Header lines: the name as sent, and the values it may carry.
const HEADERS: [(&str, &[&str]); 8] = [
    ("host", &["a", "spotlake:8080"]),
    (
        "Connection",
        &["close", "keep-alive", "Keep-Alive, Close", "upgrade"],
    ),
    ("accept", &["*/*", ""]),
    ("Content-Length", &["0", "3", "x"]),
    ("transfer-encoding", &["chunked"]),
    ("bad name", &["v"]),
    ("", &["v"]),
    ("x-pad", &["p"]),
];

/// What `parse_head` decides for these parts, in the order it checks
/// them: the limits, the request line, the method, the version, then each
/// header, then the query string.
fn model(
    method: &str,
    target: &str,
    version: &str,
    headers: &[(String, String)],
    head_len: usize,
) -> Result<HttpRequest, u16> {
    let limits = WireLimits::default();
    let line_len = method.len() + target.len() + version.len() + 2;
    if head_len > limits.max_head_bytes || line_len > limits.max_line_bytes {
        return Err(431);
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(400);
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(505);
    }
    if method != "GET" {
        return Err(405);
    }
    let (mut close, mut keep) = (false, false);
    for (name, value) in headers {
        if name.len() + value.len() + 2 > limits.max_line_bytes {
            return Err(431);
        }
        if name.is_empty() || name.contains(' ') {
            return Err(400);
        }
        let name = name.to_ascii_lowercase();
        if name == "transfer-encoding" || (name == "content-length" && value != "0") {
            return Err(413);
        }
        if name == "connection" {
            for token in value.split(',').map(|t| t.trim().to_ascii_lowercase()) {
                close |= token == "close";
                keep |= token == "keep-alive";
            }
        }
    }
    let close = close || (version == "HTTP/1.0" && !keep);
    HttpRequest::get(target)
        .map(|request| request.with_close(close))
        .map_err(|_| 400)
}

fn heads() -> impl Strategy<Value = Head> {
    let params = prop::collection::vec(("[a-z]{1,6}", "[a-zA-Z0-9.]{0,8}", 0usize..8), 0..4);
    let headers = prop::collection::vec((0usize..HEADERS.len(), 0usize..4), 0..5);
    let pad = prop_oneof![Just(0usize), Just(0), Just(0), Just(5000), Just(9000)];
    (
        0usize..METHODS.len(),
        ("[a-z0-9._]{0,12}", params),
        0usize..VERSIONS.len(),
        headers,
        pad,
    )
        .prop_map(|(method, (path, params), version, headers, pad)| {
            let (method, version) = (METHODS[method], VERSIONS[version]);
            let mut target = format!("/{path}");
            for (i, (key, value, style)) in params.iter().enumerate() {
                target.push(if i == 0 { '?' } else { '&' });
                // One pair in eight lacks its '=': a malformed query.
                match style {
                    0 => target.push_str(key),
                    _ => target.push_str(&format!("{key}={value}")),
                }
            }
            let mut headers: Vec<(String, String)> = headers
                .into_iter()
                .map(|(h, v)| {
                    let (name, values) = HEADERS[h];
                    (name.to_owned(), values[v % values.len()].to_owned())
                })
                .collect();
            // Padding lands in the request line (past the line limit) or
            // in a header (past the head limit).
            match pad {
                5000 => target.push_str(&"t".repeat(pad)),
                0 => {}
                _ => headers.push(("x-pad".to_owned(), "p".repeat(pad))),
            }
            let mut text = format!("{method} {target} {version}\r\n");
            for (name, value) in &headers {
                text.push_str(&format!("{name}: {value}\r\n"));
            }
            text.push_str("\r\n");
            let expect = model(method, &target, version, &headers, text.len());
            Head {
                bytes: text.into_bytes(),
                expect,
            }
        })
}

/// A reader handing out its bytes at most `step` at a time.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// How a generated head is damaged before parsing (0: not at all).
type Mutation = (u8, usize, u8);

fn mutate(bytes: &mut Vec<u8>, (kind, at, byte): Mutation) {
    let at = at % (bytes.len() + 1);
    match kind {
        1 if at < bytes.len() => bytes[at] = byte,
        2 => bytes.truncate(at),
        3 => bytes.insert(at, byte),
        4 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => {}
    }
}

fn parse(bytes: &[u8], step: usize) -> Result<HttpRequest, WireError> {
    let limits = WireLimits::default();
    let mut reader = Trickle { bytes, step };
    wire::read_head(&mut reader, &limits).and_then(|head| wire::parse_head(&head, &limits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn heads_parse_to_the_generated_request_or_a_typed_error(
        head in heads(),
        mutation in (0u8..8, 0usize..10_000, any::<u8>()),
        step in prop_oneof![Just(1usize), 1usize..64, Just(100_000)],
    ) {
        let mut bytes = head.bytes.clone();
        mutate(&mut bytes, mutation);
        let got = parse(&bytes, step);
        // However the bytes were split across reads, the answer is the same.
        prop_assert_eq!(&got, &parse(&bytes, usize::MAX), "split by {}", step);
        if bytes == head.bytes {
            let got = got.map_err(|e| e.status().unwrap_or(0));
            prop_assert_eq!(got, head.expect, "{:?}", String::from_utf8_lossy(&bytes));
        } else if let Err(err) = got {
            let typed = matches!(err.status(), Some(400 | 405 | 413 | 431 | 505))
                || err == WireError::Disconnected;
            prop_assert!(typed, "untyped {:?} for {:?}", err, String::from_utf8_lossy(&bytes));
        }
    }
}

// ---- 2. head sequences down one socket ------------------------------

/// Malformed heads with the status each must get. The 413's body bytes
/// are what a server that kept going would misread as the next head.
const BAD: [(&[u8], u16); 4] = [
    (b"GET no-leading-slash HTTP/1.1\r\n\r\n", 400),
    (b"DELETE /tables HTTP/1.1\r\n\r\n", 405),
    (b"GET /tables HTTP/1.1\r\ncontent-length: 2\r\n\r\nab", 413),
    (b"GET /tables HTTP/2.0\r\n\r\n", 505),
];

/// One head of a sequence: a query for the point at `time` (asking to
/// close the connection after it, or not), or a malformed head.
#[derive(Debug, Clone, Copy)]
enum Step {
    Query { time: u64, close: bool },
    Bad(usize),
}

impl Step {
    fn bytes(self) -> Vec<u8> {
        match self {
            Step::Query { time, close } => format!(
                "GET /query?table=sps&from={time}&to={time} HTTP/1.1\r\nhost: t\r\n{}\r\n",
                if close { "connection: close\r\n" } else { "" }
            )
            .into_bytes(),
            Step::Bad(i) => BAD[i].0.to_vec(),
        }
    }
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (0u64..50, 0u8..6).prop_map(|(t, c)| Step::Query {
            time: t * 100,
            close: c == 0,
        }),
        (0u64..50, 0u8..6).prop_map(|(t, c)| Step::Query {
            time: t * 100,
            close: c == 0,
        }),
        (0usize..BAD.len()).prop_map(Step::Bad),
    ];
    prop::collection::vec(step, 1..6)
}

/// One server for every case: cases run one at a time, each on its own
/// connection, so none of them waits on another.
fn server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        let mut db = Database::new();
        db.create_table("sps", TableOptions::default()).unwrap();
        let records: Vec<Record> = (0..50u64)
            .map(|t| {
                Record::new(t * 100, "sps", (t % 7) as f64)
                    .dimension("instance_type", "m5.large")
                    .dimension("region", "us-east-1")
            })
            .collect();
        db.write("sps", &records).unwrap();
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        Server::start(SharedArchive::new(db), config).expect("bind loopback")
    })
}

/// One response: status, `connection` header, body.
type Answer = (u16, String, String);

/// The first complete response in `raw` (framed by `content-length`) and
/// the bytes it used.
fn next_answer(raw: &[u8]) -> Option<(Answer, usize)> {
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = String::from_utf8_lossy(&raw[..end]).into_owned();
    let header = |name: &str| {
        head.split("\r\n")
            .find_map(|l| l.strip_prefix(name))
            .unwrap_or_default()
            .to_owned()
    };
    let length: usize = header("content-length: ").parse().ok()?;
    let body = raw.get(end..end + length)?;
    let body = String::from_utf8_lossy(body).into_owned();
    let status = head.get(9..12)?.parse().ok()?;
    Some(((status, header("connection: "), body), end + length))
}

/// What came back on a connection: up to `count` responses, whether the
/// server then closed it, and any bytes past the last response.
struct Received {
    answers: Vec<Answer>,
    closed: bool,
    trailing: Vec<u8>,
}

/// Reads up to `count` responses, then looks for the close: waiting for
/// it when `closes`, else only briefly, to see that nothing more comes.
fn receive(conn: &mut TcpStream, count: usize, closes: bool) -> Received {
    let mut raw = Vec::new();
    let mut answers = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut read = |conn: &mut TcpStream, raw: &mut Vec<u8>| match conn.read(&mut chunk) {
        Ok(0) => false,
        Ok(n) => {
            raw.extend_from_slice(&chunk[..n]);
            true
        }
        Err(e) if e.kind() == ErrorKind::ConnectionReset => false,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => false,
        Err(e) => panic!("read: {e}"),
    };
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut open = true;
    while answers.len() < count && open {
        match next_answer(&raw) {
            Some((answer, used)) => {
                answers.push(answer);
                raw.drain(..used);
            }
            None => open = read(conn, &mut raw),
        }
    }
    if open && !closes {
        conn.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
    }
    let closed = open && !read(conn, &mut raw) && closes;
    Received {
        answers,
        closed,
        trailing: raw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pipelined_heads_are_answered_in_order_until_the_first_that_closes(
        steps in steps(),
        split in prop_oneof![Just(0usize), Just(1), 2usize..40],
        half_close in any::<bool>(),
    ) {
        let stream: Vec<u8> = steps.iter().flat_map(|s| s.bytes()).collect();
        let mut conn = TcpStream::connect(server().addr()).unwrap();
        conn.set_nodelay(true).unwrap();
        let size = if split == 0 { stream.len() } else { split };
        for chunk in stream.chunks(size) {
            // Once the server has closed, later bytes may be refused.
            if conn.write_all(chunk).is_err() {
                break;
            }
        }
        if half_close {
            let _ = conn.shutdown(Shutdown::Write);
        }

        // The answers the server owes: one per head up to and including
        // the first that closes the connection.
        let mut want: Vec<(u16, &str, Option<String>)> = Vec::new();
        for step in &steps {
            match *step {
                Step::Query { time, close } => {
                    let body = format!("\"time\":{time},");
                    want.push((200, if close { "close" } else { "keep-alive" }, Some(body)));
                    if close {
                        break;
                    }
                }
                Step::Bad(i) => {
                    want.push((BAD[i].1, "close", None));
                    break;
                }
            }
        }
        let closes = half_close || want.last().is_some_and(|w| w.1 == "close");
        let got = receive(&mut conn, want.len(), closes);
        prop_assert_eq!(got.answers.len(), want.len(), "{:?} split {} -> {:?}", steps, split, got.answers);
        prop_assert!(got.trailing.is_empty(), "{:?}: trailing {:?}", steps, got.trailing);
        prop_assert_eq!(got.closed, closes, "{:?} split {}: closed", steps, split);
        for ((status, connection, body), (want_status, want_connection, want_body)) in
            got.answers.iter().zip(&want)
        {
            prop_assert_eq!(*status, *want_status, "{:?}: {}", steps, body);
            prop_assert_eq!(connection.as_str(), *want_connection, "{:?}", steps);
            if let Some(want_body) = want_body {
                prop_assert!(body.contains(want_body.as_str()), "{:?}: {} lacks {}", steps, body, want_body);
            }
        }
    }
}
