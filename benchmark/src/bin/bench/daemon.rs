//! The system under test: one `mjoin-cli serve` child process and the one
//! connection the closed loop drives it over.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the daemon may take to write its address file.
const BOOT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long one response may take before the daemon counts as hung. Far
/// above any request of any workload (the slowest run well under 1 s).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a request got no usable response line. After any of these the
/// connection is unusable and the run must stop.
#[derive(Debug)]
pub struct Broken(pub String);

/// A running daemon plus the connection to it. Dropping it kills and reaps
/// the child, so no exit path — error return, panic unwind — leaks one.
pub struct Daemon {
    child: Child,
    /// `None` only while [`Daemon::spawn`] waits for the address file.
    conn: Option<TcpStream>,
}

impl Daemon {
    /// Spawns `binary serve --addr 127.0.0.1:0 --addr-file <out>/…`, every
    /// other flag at its default, and connects once it is listening.
    pub fn spawn(binary: &Path, out_dir: &Path) -> Result<Daemon, String> {
        let addr_file: PathBuf = out_dir.join(format!("serve.{}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let mut command = Command::new(binary);
        command
            .args(["serve", "--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            // Plan search stays at the shipped default of one thread.
            .env_remove("MJOIN_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        crate::host::die_with_parent(&mut command);
        let child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        // From here on any early return drops `daemon`, which reaps the child.
        let mut daemon = Daemon { child, conn: None };
        let started = Instant::now();
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    break text.trim().to_string();
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err("daemon did not write its address file in time".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let _ = std::fs::remove_file(&addr_file);
        let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        daemon.conn = Some(stream);
        Ok(daemon)
    }

    /// Sends one request line and waits for the one response line. The
    /// latency runs from the first request byte written to the newline
    /// read.
    pub fn request(&mut self, line: &str) -> Result<(String, Duration), Broken> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        match self.exchange(&framed) {
            Ok(answer) => Ok(answer),
            Err(what) => Err(self.diagnose(what)),
        }
    }

    fn exchange(&mut self, framed: &[u8]) -> Result<(String, Duration), String> {
        let stream = self.conn.as_mut().expect("spawn connects before returning");
        let io = |what: &str, e: std::io::Error| format!("{what} failed: {e}");
        let started = Instant::now();
        stream.write_all(framed).map_err(|e| io("write", e))?;
        let mut response = Vec::new();
        let mut buf = [0u8; 1 << 16];
        let elapsed = loop {
            match stream.read(&mut buf) {
                Ok(0) => return Err("connection closed before a response".into()),
                Ok(n) => {
                    response.extend_from_slice(&buf[..n]);
                    if response.ends_with(b"\n") {
                        break started.elapsed();
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // A `WouldBlock` here is the read timeout expiring.
                Err(e) => return Err(io("read", e)),
            }
        };
        response.pop();
        if response.contains(&b'\n') {
            return Err("more than one response line".into());
        }
        let text = String::from_utf8(response).map_err(|_| "response is not UTF-8".to_string())?;
        Ok((text, elapsed))
    }

    /// Adds the child's exit status to an I/O failure, when it has one: a
    /// dead daemon is reported as such rather than as a socket error.
    fn diagnose(&mut self, what: String) -> Broken {
        match self.child.try_wait() {
            Ok(Some(status)) => Broken(format!("daemon exited ({status}); {what}")),
            _ => Broken(what),
        }
    }

    /// The daemon's peak resident set (`VmHWM`) in MB since the last call,
    /// which it ends by resetting the kernel's high-water mark (`5` to
    /// `clear_refs`). Where the reset is refused the mark simply keeps
    /// running from the daemon's start.
    pub fn take_peak_rss_mb(&self) -> Option<f64> {
        let proc_dir = format!("/proc/{}", self.child.id());
        let status = std::fs::read_to_string(format!("{proc_dir}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        let _ = std::fs::write(format!("{proc_dir}/clear_refs"), "5");
        Some(kb / 1024.0)
    }

    /// Drains the daemon with a wire-level `shutdown` and reaps it; falls
    /// back to a kill if it does not go.
    pub fn shutdown(mut self) {
        let _ = self.request(r#"{"op":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
