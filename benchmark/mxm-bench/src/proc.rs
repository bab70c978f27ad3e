//! Child processes of the benchmark: one-shot `mxm` commands timed from
//! spawn to exit, and the `mxm serve` process behind the socket
//! workloads. Peak memory is the child's own `VmHWM` from
//! `/proc/<pid>/status` — not `wait4`'s `ru_maxrss`, which on Linux never
//! reads lower than the *spawning* process's resident set and would
//! report the benchmark's memory for a small child.

use crate::client::Client;
use crate::json::Json;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Peak resident set of a live process, MB (10⁶ bytes). `None` once it
/// has exited (a zombie has no memory map) or off Linux.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// How often a one-shot child's `VmHWM` is sampled. The high-water mark
/// only grows, so the last sample before exit is the peak unless the
/// peak is reached in the final interval; at this interval the sampler
/// costs about a percent of one core.
const RSS_SAMPLE_INTERVAL: Duration = Duration::from_millis(2);

/// One finished one-shot command.
pub struct Finished {
    pub stdout: String,
    /// Exit code; `-1` when a signal killed it.
    pub code: i32,
    /// Highest `VmHWM` sampled while it ran, MB.
    pub rss_mb: f64,
    /// Spawn → exited, seconds.
    pub wall_s: f64,
    pub started: Instant,
    pub ended: Instant,
}

/// Children's stderr is appended to a log file, so a failure leaves its
/// message on disk without mixing into the benchmark's own output.
fn open_log(path: &Path) -> io::Result<std::fs::File> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
}

/// Run a command to completion, capturing stdout; stderr goes to
/// `stderr_log`.
pub fn run(cmd: &mut Command, stderr_log: &Path) -> io::Result<Finished> {
    let log = open_log(stderr_log)?;
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()?;
    let pid = child.id();
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let mut stdout = String::new();
    let done = AtomicBool::new(false);
    // The sampler stops before the child is reaped, so the pid it reads
    // can never belong to another process.
    let (read, rss_mb) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(vm_hwm_mb(pid).unwrap_or(0.0));
                std::thread::sleep(RSS_SAMPLE_INTERVAL);
            }
            peak
        });
        let read = pipe.read_to_string(&mut stdout);
        done.store(true, Ordering::Relaxed);
        (read, sampler.join().expect("the sampler does not panic"))
    });
    read?;
    let status = child.wait()?;
    let ended = Instant::now();
    Ok(Finished {
        stdout,
        code: status.code().unwrap_or(-1),
        rss_mb,
        wall_s: ended.duration_since(started).as_secs_f64(),
        started,
        ended,
    })
}

/// The text after `key` on the first stdout line that starts with it —
/// how `mxm run`'s `output   : nnz N, fingerprint X` report is read.
pub fn report_field<'a>(stdout: &'a str, key: &str) -> Option<&'a str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|rest| rest.trim_start_matches([' ', ':']).trim())
}

/// The fingerprint `mxm run` printed, if any.
pub fn run_fingerprint(stdout: &str) -> Option<&str> {
    report_field(stdout, "output")?
        .rsplit("fingerprint ")
        .next()
}

/// How long a fresh server may take to print its `listening on` line
/// and answer the first `ping` before the run is abandoned.
const SERVER_READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `mxm serve` child. Dropping it without [`Server::stop`]
/// kills the process — the error path never leaves a server behind.
pub struct Server {
    child: Option<Child>,
    /// Drains the server's stdout until EOF. Holding the pipe open until
    /// the child is gone keeps its final `server stopped` line from
    /// turning into an EPIPE; reading on a thread lets start-up time out.
    stdout: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
    /// Request lines written to this server by every client of it.
    pub sent: Arc<AtomicU64>,
}

impl Server {
    /// Spawn `mxm serve --listen 127.0.0.1:0 <args>` and wait for it to
    /// report its port and answer `ping`.
    pub fn spawn(mxm: &Path, args: &[&str], stderr_log: &Path) -> Result<Server, String> {
        let log = open_log(stderr_log).map_err(|e| format!("{}: {e}", stderr_log.display()))?;
        let mut child = Command::new(mxm)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", mxm.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                // The receiver goes away once the address is known; the
                // remaining lines are read and dropped.
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child: Some(child),
            stdout: Some(reader),
            addr: String::new(),
            sent: Arc::new(AtomicU64::new(0)),
        };
        // The preload happens before the listener line, so this wait
        // covers parse + sidecar write.
        let deadline = Instant::now() + SERVER_READY_TIMEOUT;
        while server.addr.is_empty() {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(line) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        server.addr = addr.to_string();
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(format!(
                        "mxm serve exited before listening (see {})",
                        stderr_log.display()
                    ))
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err("mxm serve never printed its listening line".into())
                }
            }
        }
        loop {
            let pong = server
                .connect()
                .and_then(|mut c| c.request(r#"{"op":"ping"}"#))
                .map(|r| r.get("pong").and_then(Json::as_bool) == Some(true));
            match pong {
                Ok(true) => return Ok(server),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
                other => {
                    return Err(format!(
                        "server at {} never answered ping: {other:?}",
                        server.addr
                    ))
                }
            }
        }
    }

    /// A new connection whose request lines count toward [`Server::sent`].
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr, self.sent.clone())
    }

    /// Peak resident set of the server process so far, MB.
    pub fn rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("present until stop").id();
        vm_hwm_mb(pid).ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
    }

    /// Send `shutdown`, wait for the process to exit, and return its
    /// exit code (`-1` when a signal killed it).
    pub fn stop(mut self, client: &mut Client) -> Result<i32, String> {
        let resp = client.request(r#"{"op":"shutdown"}"#)?;
        if resp.get("stopping").and_then(Json::as_bool) != Some(true) {
            return Err(format!("shutdown refused: {}", resp.to_line()));
        }
        let mut child = self.child.take().expect("present until stop");
        let status = child
            .wait()
            .map_err(|e| format!("waiting for mxm serve: {e}"))?;
        self.join_reader();
        Ok(status.code().unwrap_or(-1))
    }

    /// The child is gone, so its stdout is at EOF and the reader ends.
    fn join_reader(&mut self) {
        if let Some(reader) = self.stdout.take() {
            // The reader holds no unwraps; a join error has nothing to
            // report, and this also runs from `Drop`.
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.join_reader();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_mxm_run_report_fields() {
        let out = "matrix   : g.msb (Hit)\nsimd     : avx2 (runtime-detected; MXM_NO_SIMD=1 forces scalar)\noutput   : nnz 192290, fingerprint 51ac301d73f9f655\ntime     : 0.1 s\n";
        assert_eq!(run_fingerprint(out), Some("51ac301d73f9f655"));
        assert_eq!(
            report_field(out, "simd").and_then(|s| s.split_whitespace().next()),
            Some("avx2")
        );
        assert_eq!(run_fingerprint("no report"), None);
    }

    #[test]
    fn runs_children_to_their_exit_code() {
        let log =
            std::env::temp_dir().join(format!("mxm-bench-proc-test-{}.log", std::process::id()));
        let ok = run(Command::new("sh").args(["-c", "echo hi"]), &log).unwrap();
        assert_eq!(ok.stdout, "hi\n");
        assert_eq!(ok.code, 0);
        let bad = run(
            Command::new("sh").args(["-c", "echo oops >&2; exit 3"]),
            &log,
        )
        .unwrap();
        assert_eq!(bad.code, 3);
        assert!(std::fs::read_to_string(&log).unwrap().contains("oops"));
        std::fs::remove_file(&log).unwrap();
    }
}
