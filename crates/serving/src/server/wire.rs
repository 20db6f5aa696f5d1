//! Fail-closed HTTP/1.1 wire parsing and response serialization.
//!
//! The parser sits between an untrusted socket and the gateway, so it
//! fails closed at every decision: hard byte limits before allocation,
//! GET only, no request bodies. Anything that is not a well-formed GET
//! head maps to a specific 4xx/5xx status — never a panic, never a
//! best-effort guess at what the client meant. Timeouts surface as their
//! own error so the engine can distinguish a slow client (408) from a
//! malformed one (400).
//!
//! One connection may carry many requests (HTTP/1.1 keep-alive, pipelined
//! or not). `HeadReader` keeps the bytes read past one head's terminator
//! for the next head, so nothing a client sent is lost or reordered, and
//! [`read_head`] is its one-head case. Whether a connection stays open is
//! the engine's decision: the parser only reports what the client asked
//! for ([`HttpRequest::wants_close`]), and [`encode_response`] writes the
//! `connection` header the engine passes it.

use crate::http::{HttpRequest, HttpResponse};
use std::io::{ErrorKind, Read, Write};

/// Byte and count limits the parser enforces before interpreting input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLimits {
    /// Maximum bytes of the request head (request line + headers).
    pub max_head_bytes: usize,
    /// Maximum bytes of the request line (method + target + version).
    pub max_line_bytes: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_head_bytes: 8 * 1024,
            max_line_bytes: 4 * 1024,
            max_headers: 64,
        }
    }
}

/// Why a request could not be served from the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The head was not well-formed HTTP (400).
    Malformed(String),
    /// A syntactically valid method other than GET (405).
    MethodNotAllowed(String),
    /// A request body was signalled; the archive is read-only (413).
    BodyNotAllowed,
    /// A [`WireLimits`] bound was exceeded (431).
    TooLarge,
    /// An HTTP version this server does not speak (505).
    UnsupportedVersion(String),
    /// The client was too slow to send its head (408).
    TimedOut,
    /// The client disconnected before completing the head (no response).
    Disconnected,
    /// Another I/O failure on the socket (no response).
    Io(ErrorKind),
}

impl WireError {
    /// The HTTP status this error is answered with, or `None` when the
    /// peer is gone and no response can be delivered.
    pub fn status(&self) -> Option<u16> {
        match self {
            WireError::Malformed(_) => Some(400),
            WireError::MethodNotAllowed(_) => Some(405),
            WireError::BodyNotAllowed => Some(413),
            WireError::TooLarge => Some(431),
            WireError::UnsupportedVersion(_) => Some(505),
            WireError::TimedOut => Some(408),
            WireError::Disconnected | WireError::Io(_) => None,
        }
    }

    /// A short human-readable reason for the error body.
    pub fn reason(&self) -> String {
        match self {
            WireError::Malformed(why) => format!("malformed request: {why}"),
            WireError::MethodNotAllowed(m) => {
                format!("method {m:?} not allowed; the archive is read-only (GET)")
            }
            WireError::BodyNotAllowed => "request bodies are not accepted".to_owned(),
            WireError::TooLarge => "request head exceeds server limits".to_owned(),
            WireError::UnsupportedVersion(v) => format!("unsupported HTTP version {v:?}"),
            WireError::TimedOut => "timed out reading the request head".to_owned(),
            WireError::Disconnected => "client disconnected".to_owned(),
            WireError::Io(kind) => format!("socket error: {kind:?}"),
        }
    }
}

/// Bytes a `HeadReader` asks the socket for at a time.
const READ_CHUNK: usize = 512;

/// Reads successive request heads off one connection. Bytes read past a
/// head's terminator stay buffered for the next head. The buffer never
/// grows past `max_head_bytes` plus one read without yielding a head or
/// [`WireError::TooLarge`].
#[derive(Debug, Default)]
pub(crate) struct HeadReader {
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a terminator, so a
    /// head that arrives a byte at a time is scanned once, not once per
    /// byte.
    scanned: usize,
}

impl HeadReader {
    /// Whether bytes of a next head have already been read.
    pub(crate) fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Takes the next complete head (terminator included) out of the
    /// buffer. `None` means more bytes are needed. A head longer than
    /// `limits.max_head_bytes` is [`WireError::TooLarge`], however its
    /// bytes were split across reads.
    pub(crate) fn take_head(&mut self, limits: &WireLimits) -> Option<Result<Vec<u8>, WireError>> {
        let window = self.buf.get(..limits.max_head_bytes).unwrap_or(&self.buf);
        // A terminator may straddle the end of the last search.
        let from = self.scanned.saturating_sub(3);
        match window.get(from..).and_then(find_terminator) {
            Some(end) => {
                let rest = self.buf.split_off(from + end);
                self.scanned = 0;
                Some(Ok(std::mem::replace(&mut self.buf, rest)))
            }
            None if self.buf.len() >= limits.max_head_bytes => Some(Err(WireError::TooLarge)),
            None => {
                self.scanned = window.len();
                None
            }
        }
    }

    /// Reads once from `reader` into the buffer. EOF is
    /// [`WireError::Disconnected`], whether or not a head was under way.
    pub(crate) fn fill<R: Read>(&mut self, reader: &mut R) -> Result<(), WireError> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match reader.read(&mut chunk) {
                Ok(0) => return Err(WireError::Disconnected),
                Ok(n) => {
                    self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&chunk));
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(match e.kind() {
                        ErrorKind::WouldBlock | ErrorKind::TimedOut => WireError::TimedOut,
                        ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::BrokenPipe => WireError::Disconnected,
                        kind => WireError::Io(kind),
                    })
                }
            }
        }
    }
}

/// Reads one head: bytes up to and including the `\r\n\r\n` terminator,
/// honouring `limits.max_head_bytes`. Bytes after the terminator are
/// dropped; a connection that carries more than one request reads through
/// a `HeadReader` instead.
pub fn read_head<R: Read>(reader: &mut R, limits: &WireLimits) -> Result<Vec<u8>, WireError> {
    let mut heads = HeadReader::default();
    loop {
        if let Some(head) = heads.take_head(limits) {
            return head;
        }
        heads.fill(reader)?;
    }
}

/// Index just past the first `\r\n\r\n`, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Parses a complete request head into an [`HttpRequest`], enforcing the
/// GET-only, body-free contract. The request records whether the client
/// asked for the connection to close: a `connection: close` token, or
/// HTTP/1.0 without `connection: keep-alive`.
pub fn parse_head(head: &[u8], limits: &WireLimits) -> Result<HttpRequest, WireError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| WireError::Malformed("head is not valid UTF-8".to_owned()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| WireError::Malformed("empty head".to_owned()))?;
    if request_line.len() > limits.max_line_bytes {
        return Err(WireError::TooLarge);
    }

    let mut tokens = request_line.split(' ');
    let (method, target, version) = match (tokens.next(), tokens.next(), tokens.next()) {
        (Some(m), Some(t), Some(v)) if tokens.next().is_none() && !m.is_empty() => (m, t, v),
        _ => {
            return Err(WireError::Malformed(format!(
                "request line is not 'METHOD target HTTP/x.y': {request_line:?}"
            )));
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(WireError::Malformed(format!("bad method token {method:?}")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(WireError::UnsupportedVersion(version.to_owned()));
    }
    if method != "GET" {
        return Err(WireError::MethodNotAllowed(method.to_owned()));
    }
    if !target.starts_with('/') {
        return Err(WireError::Malformed(format!(
            "target must be an absolute path: {target:?}"
        )));
    }

    let (mut close_asked, mut keep_asked) = (false, false);
    let mut header_count = 0usize;
    for line in lines {
        if line.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > limits.max_headers || line.len() > limits.max_line_bytes {
            return Err(WireError::TooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| WireError::Malformed(format!("header without ':': {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(WireError::Malformed(format!("bad header name {name:?}")));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim();
        if name == "transfer-encoding" {
            return Err(WireError::BodyNotAllowed);
        }
        if name == "content-length" && value.parse::<u64>().map_or(true, |n| n > 0) {
            return Err(WireError::BodyNotAllowed);
        }
        if name == "connection" {
            for token in value.split(',').map(str::trim) {
                close_asked |= token.eq_ignore_ascii_case("close");
                keep_asked |= token.eq_ignore_ascii_case("keep-alive");
            }
        }
    }

    let close = close_asked || (version == "HTTP/1.0" && !keep_asked);
    HttpRequest::get(target)
        .map(|request| request.with_close(close))
        .map_err(|e| WireError::Malformed(e.to_string()))
}

/// The canonical reason phrase for the statuses this server emits.
fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// Serializes `response` as a complete HTTP/1.1 message framed by
/// `content-length`, followed by `extra_headers` in order. The
/// `connection` header is the caller's to pass: the engine sends `close`
/// or `keep-alive` on every response.
pub fn encode_response(response: &HttpResponse, extra_headers: &[(&str, String)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + response.body.len());
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {} {}\r\n",
            response.status,
            status_reason(response.status)
        )
        .as_bytes(),
    );
    out.extend_from_slice(format!("content-type: {}\r\n", response.content_type).as_bytes());
    out.extend_from_slice(format!("content-length: {}\r\n", response.body.len()).as_bytes());
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
    out
}

/// Writes `response` to the socket in one shot.
pub fn write_response(
    writer: &mut impl Write,
    response: &HttpResponse,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    writer.write_all(&encode_response(response, extra_headers))?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(head: &str) -> Result<HttpRequest, WireError> {
        parse_head(head.as_bytes(), &WireLimits::default())
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse("GET /query?table=sps HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(req.path(), "/query");
        assert_eq!(req.param("table"), Some("sps"));
    }

    #[test]
    fn malformed_heads_fail_closed_as_400() {
        for head in [
            "GET /x\r\n\r\n",                     // missing version
            "GET  /x HTTP/1.1\r\n\r\n",           // empty token
            "GET /x HTTP/1.1 extra\r\n\r\n",      // four tokens
            "get /x HTTP/1.1\r\n\r\n",            // lowercase method token
            "GET x HTTP/1.1\r\n\r\n",             // relative target
            "GET /x HTTP/1.1\r\nnocolon\r\n\r\n", // header without colon
            "GET /x HTTP/1.1\r\n: v\r\n\r\n",     // empty header name
            "GET /q?novalue HTTP/1.1\r\n\r\n",    // bad query pair
            "\r\n\r\n",                           // empty request line
        ] {
            let err = parse(head).unwrap_err();
            assert_eq!(err.status(), Some(400), "{head:?} -> {err:?}");
        }
        let err = parse_head(b"GET /\xff\xfe HTTP/1.1\r\n\r\n", &WireLimits::default());
        assert_eq!(err.unwrap_err().status(), Some(400));
    }

    #[test]
    fn non_get_methods_are_405() {
        for method in ["POST", "PUT", "DELETE", "HEAD"] {
            let err = parse(&format!("{method} /x HTTP/1.1\r\n\r\n")).unwrap_err();
            assert_eq!(err, WireError::MethodNotAllowed(method.to_owned()));
            assert_eq!(err.status(), Some(405));
        }
    }

    #[test]
    fn old_or_future_versions_are_505() {
        let err = parse("GET /x HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), Some(505));
        assert!(parse("GET /x HTTP/1.0\r\n\r\n").is_ok());
    }

    #[test]
    fn bodies_are_rejected_413() {
        for head in [
            "GET /x HTTP/1.1\r\ncontent-length: 5\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: nonsense\r\n\r\n",
            "GET /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ] {
            assert_eq!(parse(head).unwrap_err().status(), Some(413), "{head:?}");
        }
        // Explicit zero is fine: no body follows.
        assert!(parse("GET /x HTTP/1.1\r\ncontent-length: 0\r\n\r\n").is_ok());
    }

    #[test]
    fn oversized_heads_are_431() {
        let limits = WireLimits::default();
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(8192));
        assert_eq!(
            parse_head(long_target.as_bytes(), &limits).unwrap_err(),
            WireError::TooLarge
        );
        let many_headers = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            "h: v\r\n".repeat(limits.max_headers + 1)
        );
        assert_eq!(
            parse_head(many_headers.as_bytes(), &limits).unwrap_err(),
            WireError::TooLarge
        );
    }

    #[test]
    fn read_head_stops_at_terminator_and_enforces_limits() {
        let limits = WireLimits::default();
        let mut input: &[u8] = b"GET / HTTP/1.1\r\n\r\ntrailing-bytes";
        let head = read_head(&mut input, &limits).unwrap();
        assert_eq!(head, b"GET / HTTP/1.1\r\n\r\n");

        let mut oversized: &[u8] = &vec![b'a'; limits.max_head_bytes + 1024];
        assert_eq!(
            read_head(&mut oversized, &limits).unwrap_err(),
            WireError::TooLarge
        );

        let mut truncated: &[u8] = b"GET / HTT";
        assert_eq!(
            read_head(&mut truncated, &limits).unwrap_err(),
            WireError::Disconnected
        );
        let mut empty: &[u8] = b"";
        assert_eq!(
            read_head(&mut empty, &limits).unwrap_err(),
            WireError::Disconnected
        );
    }

    #[test]
    fn a_head_reader_carries_bytes_past_a_terminator_to_the_next_head() {
        let limits = WireLimits::default();
        let mut input: &[u8] = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HT";
        let mut heads = HeadReader::default();
        assert!(heads.take_head(&limits).is_none());
        heads.fill(&mut input).unwrap();
        assert_eq!(
            heads.take_head(&limits).unwrap().unwrap(),
            b"GET /a HTTP/1.1\r\n\r\n"
        );
        assert!(heads.has_buffered());
        assert_eq!(
            heads.take_head(&limits).unwrap().unwrap(),
            b"GET /b HTTP/1.1\r\n\r\n"
        );
        assert!(
            heads.take_head(&limits).is_none(),
            "the third head is partial"
        );
        let mut rest: &[u8] = b"TP/1.1\r\n\r\n";
        heads.fill(&mut rest).unwrap();
        assert_eq!(
            heads.take_head(&limits).unwrap().unwrap(),
            b"GET /c HTTP/1.1\r\n\r\n"
        );
        assert!(!heads.has_buffered());
        assert_eq!(heads.fill(&mut rest), Err(WireError::Disconnected));
    }

    #[test]
    fn the_head_limit_does_not_depend_on_how_the_bytes_were_split() {
        let limits = WireLimits {
            max_head_bytes: 32,
            ..WireLimits::default()
        };
        let fits = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(32 - 18));
        let over = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(33 - 18));
        assert_eq!(fits.len(), 32);
        for (head, ok) in [(&fits, true), (&over, false)] {
            for split in [1, 7, 64] {
                let mut heads = HeadReader::default();
                let result = loop {
                    if let Some(result) = heads.take_head(&limits) {
                        break result;
                    }
                    let sent = heads.buf.len();
                    let mut next = head.as_bytes().get(sent..(sent + split).min(head.len()));
                    heads.fill(next.as_mut().unwrap()).unwrap();
                };
                assert_eq!(result.is_ok(), ok, "{head:?} split by {split}");
            }
        }
    }

    #[test]
    fn the_request_says_whether_the_client_asked_to_close() {
        for (head, close) in [
            ("GET / HTTP/1.1\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nconnection: close\r\n\r\n", true),
            (
                "GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n",
                true,
            ),
            ("GET / HTTP/1.0\r\n\r\n", true),
            ("GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n", false),
            (
                "GET / HTTP/1.0\r\nconnection: upgrade, keep-alive\r\n\r\n",
                false,
            ),
        ] {
            assert_eq!(parse(head).unwrap().wants_close(), close, "{head:?}");
        }
    }

    #[test]
    fn responses_encode_with_length_and_close() {
        let resp = HttpResponse::json("{\"ok\":true}".to_owned());
        let bytes = encode_response(
            &resp,
            &[
                ("connection", "close".to_owned()),
                ("retry-after", "1".to_owned()),
            ],
        );
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\nconnection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        // The connection header is the caller's: none is invented.
        let bare = String::from_utf8(encode_response(&resp, &[])).unwrap();
        assert!(!bare.contains("connection"), "{bare}");
    }

    #[test]
    fn every_emitted_status_has_a_reason() {
        for status in [200, 400, 404, 405, 408, 413, 431, 500, 503, 504, 505] {
            assert_ne!(status_reason(status), "Response", "{status}");
        }
        assert_eq!(status_reason(418), "Response");
    }
}
