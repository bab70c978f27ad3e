//! A small blocking client for the serve protocol, used by `mxm query`,
//! the CI smoke test, and the integration tests.
//!
//! One [`Client`] holds one connection; [`Client::request`] writes a
//! request line and blocks for the response line. Addresses use the same
//! spelling as the server: `host:port` for TCP, `unix:/path` for a
//! Unix-domain socket.

use crate::json::{self, Json};
use crate::protocol::{read_frame, write_line, Frame, MAX_REQUEST_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

/// One protocol connection, over either transport.
pub struct Client {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    /// Connect to a server at `addr` (`host:port` or `unix:/path`).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let failed = |e: std::io::Error| format!("connect {addr}: {e}");
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let stream = UnixStream::connect(path).map_err(failed)?;
                Client::over(stream.try_clone(), stream)
            }
            #[cfg(not(unix))]
            {
                Err(format!(
                    "connect {addr}: unix sockets are not supported on this platform"
                ))
            }
        } else {
            let stream = TcpStream::connect(addr).map_err(failed)?;
            // Requests are single small writes; with Nagle on, each would
            // sit out the server's delayed ACK.
            stream.set_nodelay(true).map_err(failed)?;
            Client::over(stream.try_clone(), stream)
        }
    }

    /// A client over any connected stream and its cloned read half.
    fn over<S: Read + Write + Send + 'static>(
        read_half: std::io::Result<S>,
        stream: S,
    ) -> Result<Client, String> {
        Ok(Client {
            reader: Box::new(BufReader::new(read_half.map_err(|e| e.to_string())?)),
            writer: Box::new(stream),
        })
    }

    /// Send one request object and block for its response object.
    pub fn request(&mut self, req: &Json) -> Result<Json, String> {
        self.request_line(&req.to_line())
    }

    /// Send one raw line (must be a complete JSON object) and block for
    /// the response. The escape hatch behind `mxm query raw`.
    pub fn request_line(&mut self, line: &str) -> Result<Json, String> {
        write_line(&mut self.writer, line.to_string()).map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.reader, MAX_REQUEST_BYTES).map_err(|e| format!("recv: {e}"))? {
            Frame::Line(resp) => json::parse(&resp).map_err(|e| format!("bad response: {e}")),
            Frame::Eof => Err("server closed the connection".into()),
            Frame::Oversized => Err("response exceeded the line cap".into()),
        }
    }
}

/// One-shot convenience: connect, send a single request, return the
/// response. Errors if the response has `"ok": false` — the error
/// message includes the protocol code.
pub fn query_once(addr: &str, req: &Json) -> Result<Json, String> {
    let mut client = Client::connect(addr)?;
    let resp = client.request(req)?;
    expect_ok(resp)
}

/// The `retry_after_ms` hint of a typed `busy` response, `None` for
/// anything else (success or other errors). The client half of the
/// server's admission control: on `Some(ms)` back off about that long
/// and resend — `mxm query --retry` does exactly this.
pub fn busy_retry_after(resp: &Json) -> Option<u64> {
    let err = resp.get("error")?;
    if err.get("code").and_then(Json::as_str) != Some("busy") {
        return None;
    }
    // A missing hint is a server bug, not a reason to give up; back off
    // a conservative default.
    Some(
        err.get("retry_after_ms")
            .and_then(Json::as_u64)
            .unwrap_or(100),
    )
}

/// Unwrap a response: `Ok(resp)` when `"ok": true`, else the formatted
/// protocol error.
pub fn expect_ok(resp: Json) -> Result<Json, String> {
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(resp);
    }
    match resp.get("error") {
        Some(e) => Err(format!(
            "{}: {}",
            e.get("code").and_then(Json::as_str).unwrap_or("error"),
            e.get("message").and_then(Json::as_str).unwrap_or("")
        )),
        None => Err(format!("malformed error response: {}", resp.to_line())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_ok_formats_protocol_errors() {
        let ok = crate::protocol::ok_response(vec![("pong", Json::Bool(true))]);
        assert!(expect_ok(ok).is_ok());
        let err = crate::protocol::err_response(
            crate::protocol::ErrorCode::UnknownDataset,
            "no dataset named 'x' is loaded",
        );
        let msg = expect_ok(err).unwrap_err();
        assert!(msg.starts_with("unknown_dataset:"), "{msg}");
    }

    #[test]
    fn busy_responses_surface_their_retry_hint() {
        let busy = crate::protocol::err_response_with(
            crate::protocol::ErrorCode::Busy,
            "queue full",
            vec![("retry_after_ms", 40u64.into())],
        );
        assert_eq!(busy_retry_after(&busy), Some(40));
        // Hint missing: a conservative default, not None.
        let bare = crate::protocol::err_response(crate::protocol::ErrorCode::Busy, "queue full");
        assert_eq!(busy_retry_after(&bare), Some(100));
        // Other errors and successes are not busy.
        let other = crate::protocol::err_response(
            crate::protocol::ErrorCode::ExecFailed,
            "kernel rejected",
        );
        assert_eq!(busy_retry_after(&other), None);
        let ok = crate::protocol::ok_response(vec![]);
        assert_eq!(busy_retry_after(&ok), None);
    }

    /// A loopback "socket": serves one canned response line and counts
    /// the `write` calls the request took.
    struct Loopback {
        response: std::io::Cursor<Vec<u8>>,
        writes: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.response.read(buf)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_request_is_exactly_one_write() {
        let writes = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let half = || Loopback {
            response: std::io::Cursor::new(b"{\"ok\":true}\n".to_vec()),
            writes: writes.clone(),
        };
        let mut client = Client::over(Ok(half()), half()).unwrap();
        let resp = client.request_line(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            writes.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "a request split across writes stalls on Nagle + delayed ACK"
        );
    }

    #[test]
    fn connect_to_nothing_fails_cleanly() {
        // Port 1 is essentially never listening.
        assert!(Client::connect("127.0.0.1:1").is_err());
    }
}
