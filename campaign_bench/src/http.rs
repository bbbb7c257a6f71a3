//! A minimal HTTP/1.1 client for the daemon's close-delimited answers:
//! one connection per request, read to EOF.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::stats::Failure;

/// How long a request may stall before it counts as failed. A follow
/// stream stays open for a whole campaign, so this bounds a campaign.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One answer.
#[derive(Debug)]
pub struct Answer {
    /// HTTP status code.
    pub status: u16,
    /// The body (everything after the header block).
    pub body: Vec<u8>,
}

impl Answer {
    /// The body as text (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request to `127.0.0.1:port` and reads the answer to EOF.
///
/// # Errors
///
/// [`Failure::Connect`] when the connect fails, [`Failure::Io`] when the
/// exchange breaks or the status line is malformed. A non-2xx status is
/// not an error here; see [`crate::stats::check_status`].
pub fn request(port: u16, method: &str, path: &str, body: Option<&str>) -> Result<Answer, Failure> {
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|_| Failure::Connect)?;
    let io = |e: std::io::Error| Failure::Io(e.to_string());
    stream.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(io)?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    parse(&raw)
}

fn parse(raw: &[u8]) -> Result<Answer, Failure> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| Failure::Io("answer has no header block".to_owned()))?;
    let head = std::str::from_utf8(&raw[..split])
        .map_err(|_| Failure::Io("answer header is not UTF-8".to_owned()))?;
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| Failure::Io(format!("bad status line: {head:.40}")))?;
    Ok(Answer {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body_and_rejects_garbage() {
        let a = parse(b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!((a.status, a.text().as_str()), (201, "{}"));
        assert!(matches!(
            parse(b"HTTP/1.1 201 Created"),
            Err(Failure::Io(_))
        ));
        assert!(matches!(parse(b"SPDY 9\r\n\r\n"), Err(Failure::Io(_))));
    }
}
