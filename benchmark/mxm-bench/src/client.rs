//! The benchmark's own protocol client: one `write_all` per request
//! line, `TCP_NODELAY` on its side, one parsed response line back. It
//! speaks only the documented wire protocol (`docs/SERVE_PROTOCOL.md`),
//! so a rewrite of the repo's `Client` cannot move a benchmark number.

use crate::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// No response for this long means the server is wedged; the run fails
/// instead of outliving the driver's per-run limit.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    sent: Arc<AtomicU64>,
    buf: String,
}

impl Client {
    /// Connect to `host:port`; every request line written through this
    /// client increments `sent`.
    pub fn connect(addr: &str, sent: Arc<AtomicU64>) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer,
            reader,
            sent,
            buf: String::new(),
        })
    }

    /// Send one request line and parse the one response line.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        self.buf.clear();
        self.buf.push_str(line);
        self.buf.push('\n');
        self.writer
            .write_all(self.buf.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.sent.fetch_add(1, Ordering::Relaxed);
        read_response(&mut self.reader, &mut self.buf)
    }
}

/// Read one `\n`-terminated line and parse it as a JSON object. EOF, a
/// missing terminator (the peer died mid-line) and non-object values are
/// all errors: a response is exactly one complete object line.
pub fn read_response(reader: &mut impl BufRead, buf: &mut String) -> Result<Json, String> {
    buf.clear();
    let n = reader.read_line(buf).map_err(|e| format!("receive: {e}"))?;
    if n == 0 {
        return Err("connection closed before a response".into());
    }
    if !buf.ends_with('\n') {
        return Err(format!("truncated response line ({n} bytes)"));
    }
    match json::parse(buf)? {
        obj @ Json::Obj(_) => Ok(obj),
        other => Err(format!("response is not an object: {}", other.to_line())),
    }
}

/// Whether a response is a success (`"ok": true`).
pub fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The typed error code of a failure response, if it has one.
pub fn error_code(resp: &Json) -> Option<&str> {
    resp.get("error")?.get("code")?.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_one_object_per_line() {
        let mut r = Cursor::new("{\"ok\":true,\"op\":\"ping\"}\n{\"ok\":false,\"error\":{\"code\":\"busy\",\"retry_after_ms\":10}}\n");
        let mut buf = String::new();
        let first = read_response(&mut r, &mut buf).unwrap();
        assert!(is_ok(&first));
        let second = read_response(&mut r, &mut buf).unwrap();
        assert!(!is_ok(&second));
        assert_eq!(error_code(&second), Some("busy"));
        assert!(read_response(&mut r, &mut buf).is_err(), "EOF is an error");
    }

    #[test]
    fn rejects_truncated_and_non_object_lines() {
        let mut buf = String::new();
        assert!(read_response(&mut Cursor::new("{\"ok\":true"), &mut buf).is_err());
        assert!(read_response(&mut Cursor::new("[1,2]\n"), &mut buf).is_err());
        assert!(read_response(&mut Cursor::new("not json\n"), &mut buf).is_err());
    }

    #[test]
    fn round_trips_over_a_socket_and_counts_lines() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let echo = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            let mut line = String::new();
            while r.read_line(&mut line).unwrap() > 0 {
                w.write_all(format!("{{\"ok\":true,\"echo\":{}}}\n", line.trim()).as_bytes())
                    .unwrap();
                line.clear();
            }
        });
        let sent = Arc::new(AtomicU64::new(0));
        let mut c = Client::connect(&addr, sent.clone()).unwrap();
        for i in 0..3u64 {
            let resp = c.request(&format!("{{\"n\":{i}}}")).unwrap();
            assert_eq!(
                resp.get("echo")
                    .and_then(|e| e.get("n"))
                    .and_then(Json::as_u64),
                Some(i)
            );
        }
        assert_eq!(sent.load(Ordering::Relaxed), 3);
        drop(c);
        echo.join().unwrap();
    }
}
