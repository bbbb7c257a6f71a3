//! Per-connection request handling with slow-client guards.
//!
//! Every connection gets a wall-clock deadline for delivering its full
//! request ([`HttpLimits::read_timeout`]) plus hard byte bounds on the
//! request line, header block, and body. A stalled or malicious client
//! therefore costs one worker thread for at most `read_timeout`, and
//! can never buffer unbounded data — the accept loop itself is never
//! blocked (see [`super::HttpServer`]).

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use super::router::{self, Handler, Request, Response};

/// Byte and time bounds applied to every connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Wall-clock deadline for receiving the complete request
    /// (request line + headers + declared body). Expiry answers 408.
    pub read_timeout: Duration,
    /// Per-write timeout on responses (a reader that stops draining a
    /// streamed journal tail gets disconnected).
    pub write_timeout: Duration,
    /// Maximum request-line length in bytes. Over answers 414.
    pub max_request_line: usize,
    /// Maximum header-block size in bytes (request line included).
    /// Over answers 431.
    pub max_header_bytes: usize,
    /// Maximum declared `Content-Length`. Over answers 413.
    pub max_body_bytes: usize,
    /// Maximum concurrently served connections; excess connections are
    /// answered 503 without dispatching a handler.
    pub max_connections: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(10),
            max_request_line: 4096,
            max_header_bytes: 16 * 1024,
            max_body_bytes: 256 * 1024,
            max_connections: 64,
        }
    }
}

/// Reads one request off `stream` (within `limits`), dispatches it to
/// `handler`, and writes the response. Limit violations short-circuit
/// to their 4xx without touching the handler. Write errors are
/// swallowed: the client is gone and there is nobody to tell.
pub(super) fn serve_connection(mut stream: TcpStream, limits: &HttpLimits, handler: &dyn Handler) {
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let resp = match read_request(&mut stream, limits) {
        Ok(req) => handler.handle(&req),
        Err(resp) => resp,
    };
    let _ = router::write_response(&mut stream, resp);
}

/// Answers 503 on a connection the server refuses to serve (the
/// concurrent-connection bound is hit).
pub(super) fn refuse_overloaded(mut stream: TcpStream, limits: &HttpLimits) {
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let resp = Response::text(503, "server overloaded\n").header("Retry-After", 1);
    let _ = router::write_response(&mut stream, resp);
}

/// Accumulates the full request under the deadline, enforcing all byte
/// bounds. Returns the ready-to-write error response on violation.
fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<Request, Response> {
    let deadline = Instant::now() + limits.read_timeout;
    let mut buf = Vec::new();
    let head = loop {
        if let Some(head) = parse_head(&buf, limits)? {
            break head;
        }
        read_some(stream, deadline, &mut buf)?;
    };
    let mut body = buf.split_off(head.body_start);
    while body.len() < head.content_length {
        read_some(stream, deadline, &mut body)?;
    }
    body.truncate(head.content_length);
    Ok(Request {
        method: head.method,
        target: head.target,
        headers: head.headers,
        body,
    })
}

/// A parsed request line and header block.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Head {
    method: String,
    target: String,
    headers: Vec<(String, String)>,
    /// The declared `Content-Length` (0 when absent).
    content_length: usize,
    /// Offset of the first body byte in the bytes received so far.
    body_start: usize,
}

/// Parses the head out of the bytes received so far: `Ok(None)` until
/// its terminator has arrived, or the ready-to-write error response when
/// a byte bound or the framing rules are broken.
fn parse_head(buf: &[u8], limits: &HttpLimits) -> Result<Option<Head>, Response> {
    let Some((head_end, body_start)) = find_head_end(buf) else {
        check_head_limits(buf, limits)?;
        return Ok(None);
    };
    // The terminator may have arrived in the same packet as an over-long
    // request line or header block: enforce the bounds on the final head.
    check_head_limits(&buf[..head_end], limits)?;

    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let target = parts.next().unwrap_or("").to_owned();
    if method.is_empty() || target.is_empty() {
        return Err(Response::text(400, "malformed request line\n"));
    }
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_owned(), v.trim().to_owned()))
        .collect();

    // More than one `Content-Length` is a framing error (RFC 9112
    // §6.3): which one a proxy in front of us honoured is unknowable.
    let mut lengths = headers
        .iter()
        .filter(|(n, _)| n.eq_ignore_ascii_case("content-length"));
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some((_, v)), None) => v
            .parse::<usize>()
            .map_err(|_| Response::text(400, "bad content-length\n"))?,
        (Some(_), Some(_)) => return Err(Response::text(400, "repeated content-length\n")),
    };
    if content_length > limits.max_body_bytes {
        return Err(Response::text(413, "request body too large\n"));
    }
    Ok(Some(Head {
        method,
        target,
        headers,
        content_length,
        body_start,
    }))
}

/// One bounded read under the connection deadline. Maps timeout and
/// premature EOF to their response codes.
fn read_some(
    stream: &mut TcpStream,
    deadline: Instant,
    into: &mut Vec<u8>,
) -> Result<(), Response> {
    let timeout_resp = || Response::text(408, "request read timeout\n");
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .ok_or_else(timeout_resp)?;
    let _ = stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))));
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Err(Response::text(400, "incomplete request\n")),
        Ok(n) => {
            into.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Err(timeout_resp())
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
        Err(_) => Err(Response::text(400, "read error\n")),
    }
}

/// The end of the header block and the first body byte, once a
/// terminator (`\r\n\r\n` or `\n\n`) has arrived. The first one wins: a
/// body after an LF-only head may itself hold `\r\n\r\n`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let crlf = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| (p, p + 4));
    let lf = buf
        .windows(2)
        .position(|w| w == b"\n\n")
        .map(|p| (p, p + 2));
    crlf.into_iter().chain(lf).min()
}

/// Request-line and header-block byte bounds, checked on the bytes
/// received so far (so an attacker cannot stream unbounded data).
fn check_head_limits(buf: &[u8], limits: &HttpLimits) -> Result<(), Response> {
    let line_len = buf.iter().position(|&b| b == b'\n').unwrap_or(buf.len());
    if line_len > limits.max_request_line {
        return Err(Response::text(414, "request line too long\n"));
    }
    if buf.len() > limits.max_header_bytes {
        return Err(Response::text(431, "headers too large\n"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn head_parser_survives_arbitrary_bytes(
            bytes in collection::vec(0u8..=255, 0..=16 * 1024 + 64),
            text in "[a-zA-Z0-9 :/\r\n]{0,1024}",
        ) {
            let limits = HttpLimits::default();
            for buf in [&bytes[..], text.as_bytes()] {
                match parse_head(buf, &limits) {
                    Ok(None) => prop_assert!(buf.len() <= limits.max_header_bytes),
                    Ok(Some(head)) => {
                        prop_assert!(head.body_start <= buf.len());
                        prop_assert!(head.content_length <= limits.max_body_bytes);
                        prop_assert!(!head.method.is_empty() && !head.target.is_empty());
                    }
                    Err(resp) => prop_assert!(
                        matches!(resp.status, 400 | 413 | 414 | 431),
                        "status {}",
                        resp.status
                    ),
                }
            }
        }

        #[test]
        fn well_formed_heads_parse_back_exactly(
            method in "[A-Z]{1,8}",
            target in "[!-~]{1,40}",
            names in collection::vec("[A-Za-z0-9-]{1,16}", 0..6),
            values in collection::vec("[!-~]{1,24}", 6),
            crlf in 0u8..2,
            body in "[a-z{}:\r\n]{0,48}",
            tail in 0usize..4,
            declare_empty in 0u8..2,
        ) {
            let eol = if crlf == 1 { "\r\n" } else { "\n" };
            // Bodies may hold either terminator, and often end in one.
            let body = format!("{body}{}", ["", "\r\n\r\n", "\n\n", "\r\n"][tail]);
            let mut headers: Vec<(String, String)> = names
                .into_iter()
                .zip(values)
                .filter(|(n, _)| !n.eq_ignore_ascii_case("content-length"))
                .collect();
            if !body.is_empty() || declare_empty == 1 {
                headers.push(("Content-Length".to_owned(), body.len().to_string()));
            }
            let mut request = format!("{method} {target} HTTP/1.1{eol}");
            for (n, v) in &headers {
                request.push_str(&format!("{n}: {v}{eol}"));
            }
            request.push_str(eol);
            let body_start = request.len();
            request.push_str(&body);
            let bytes = request.as_bytes();

            let limits = HttpLimits::default();
            // Every strict prefix of the head waits for more bytes.
            for end in 0..body_start {
                prop_assert!(parse_head(&bytes[..end], &limits).unwrap().is_none());
            }
            let expected = Head {
                method,
                target,
                headers,
                content_length: body.len(),
                body_start,
            };
            for end in body_start..=bytes.len() {
                prop_assert_eq!(parse_head(&bytes[..end], &limits).unwrap(), Some(expected.clone()));
            }
        }
    }
}
