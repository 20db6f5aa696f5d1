//! Minimal HTTP request/response model (the "API Gateway" wire format).

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Errors from request parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request line/path was malformed.
    BadRequest {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
        }
    }
}

impl Error for ServeError {}

/// An HTTP request: method GET only (the archive is read-only), a path,
/// decoded query parameters, and whether the client asked for its
/// connection to close after the response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    path: String,
    params: Vec<(String, String)>,
    close: bool,
}

impl HttpRequest {
    /// Parses a GET request from a path-and-query string like
    /// `/query?table=sps&region=us-east-1`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for empty paths or malformed
    /// query pairs.
    pub fn get(path_and_query: &str) -> Result<Self, ServeError> {
        if !path_and_query.starts_with('/') {
            return Err(ServeError::BadRequest {
                reason: format!("path must start with '/': {path_and_query:?}"),
            });
        }
        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (path_and_query, None),
        };
        let mut params = Vec::new();
        if let Some(query) = query {
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').ok_or_else(|| ServeError::BadRequest {
                    reason: format!("query pair without '=': {pair:?}"),
                })?;
                params.push((url_decode(k), url_decode(v)));
            }
        }
        Ok(HttpRequest {
            path: path.to_owned(),
            params,
            close: false,
        })
    }

    /// This request, asking (`true`) or not asking for the connection to
    /// close after its response.
    pub fn with_close(mut self, close: bool) -> Self {
        self.close = close;
        self
    }

    /// Whether the client asked for the connection to close after the
    /// response (`connection: close`, or HTTP/1.0 without keep-alive).
    pub fn wants_close(&self) -> bool {
        self.close
    }

    /// The request path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The first value of query parameter `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All query parameters in order.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    /// Reconstructs the path-and-query string for logging — parameters in
    /// their original order, so the same request always renders the same
    /// way in flight-recorder entries and trace spans.
    pub fn path_and_query(&self) -> String {
        let len = self.path.len()
            + self
                .params
                .iter()
                .map(|(k, v)| k.len() + v.len() + 2)
                .sum::<usize>();
        let mut out = String::with_capacity(len);
        out.push_str(&self.path);
        for (i, (k, v)) in self.params.iter().enumerate() {
            out.push(if i == 0 { '?' } else { '&' });
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }
}

/// A response status as a metric's `status` label: a static string for
/// every status this server answers with, so labelling one allocates
/// nothing.
pub(crate) fn status_label(status: u16) -> Cow<'static, str> {
    Cow::Borrowed(match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        408 => "408",
        413 => "413",
        431 => "431",
        500 => "500",
        503 => "503",
        504 => "504",
        505 => "505",
        other => return Cow::Owned(other.to_string()),
    })
}

/// Percent-decoding for query strings (`%xx` and `+` → space).
fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                if let (Some(h), Some(l)) = (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// MIME type of the body.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A 200 JSON response.
    pub fn json(body: String) -> Self {
        HttpResponse {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A 200 CSV response.
    pub fn csv(body: String) -> Self {
        HttpResponse {
            status: 200,
            content_type: "text/csv",
            body: body.into_bytes(),
        }
    }

    /// A 200 plain-text response in the Prometheus exposition format
    /// (`/metrics` only — the version parameter is part of that contract).
    pub fn text(body: String) -> Self {
        HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
        }
    }

    /// A 200 plain-text response (JSONL dumps and other non-Prometheus
    /// text).
    pub fn plain(body: String) -> Self {
        HttpResponse {
            status: 200,
            content_type: "text/plain",
            body: body.into_bytes(),
        }
    }

    /// A 200 HTML response.
    pub fn html(body: &'static str) -> Self {
        HttpResponse {
            status: 200,
            content_type: "text/html",
            body: body.as_bytes().to_vec(),
        }
    }

    /// An error response with a JSON body.
    pub fn error(status: u16, message: &str) -> Self {
        let body =
            crate::json::Json::object([("error", crate::json::Json::string(message))]).render();
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// The body as UTF-8 text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_path_and_params() {
        let r = HttpRequest::get("/query?table=sps&instance_type=m5.large&from=0").unwrap();
        assert_eq!(r.path(), "/query");
        assert_eq!(r.param("table"), Some("sps"));
        assert_eq!(r.param("instance_type"), Some("m5.large"));
        assert_eq!(r.param("missing"), None);
        assert_eq!(r.params().len(), 3);
    }

    #[test]
    fn parse_no_query() {
        let r = HttpRequest::get("/health").unwrap();
        assert_eq!(r.path(), "/health");
        assert!(r.params().is_empty());
        assert_eq!(r.path_and_query(), "/health");
    }

    #[test]
    fn path_and_query_round_trips_parameter_order() {
        let r = HttpRequest::get("/query?table=sps&instance_type=m5.large").unwrap();
        assert_eq!(
            r.path_and_query(),
            "/query?table=sps&instance_type=m5.large"
        );
        let swapped = HttpRequest::get("/query?instance_type=m5.large&table=sps").unwrap();
        assert_eq!(
            swapped.path_and_query(),
            "/query?instance_type=m5.large&table=sps"
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(HttpRequest::get("query").is_err());
        assert!(HttpRequest::get("/q?novalue").is_err());
    }

    #[test]
    fn url_decoding() {
        let r = HttpRequest::get("/q?a=hello%20world&b=1%2B1&c=x+y").unwrap();
        assert_eq!(r.param("a"), Some("hello world"));
        assert_eq!(r.param("b"), Some("1+1"));
        assert_eq!(r.param("c"), Some("x y"));
        // Malformed escape is passed through.
        let r = HttpRequest::get("/q?a=50%").unwrap();
        assert_eq!(r.param("a"), Some("50%"));
    }

    #[test]
    fn responses() {
        let r = HttpResponse::json("{}".into());
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "application/json");
        let e = HttpResponse::error(404, "no such table");
        assert_eq!(e.status, 404);
        assert!(e.body_text().contains("no such table"));
    }
}
