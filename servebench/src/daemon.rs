//! The `pplxd` process and its TCP clients.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A reply slower than this counts as a timeout (and ends its connection).
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A running daemon.  Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    // Held open so the daemon's final `println!` never hits a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Start `pplxd` on an ephemeral port and wait for its listening line.
    pub fn spawn(bin: &Path, budget: Option<usize>) -> io::Result<Daemon> {
        let mut cmd = Command::new(bin);
        cmd.args(["--port", "0", "--threads", "2"]);
        if let Some(budget) = budget {
            cmd.args(["--budget", &budget.to_string()]);
        }
        let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        match line.trim().strip_prefix("pplxd listening on ") {
            Some(addr) => daemon.addr = addr.to_string(),
            None => {
                return Err(io::Error::other(format!(
                    "unexpected pplxd banner {line:?}"
                )))
            }
        }
        Ok(daemon)
    }

    /// `VmHWM` (peak resident set) of the daemon, in MB (10^6 bytes).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the daemon's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb * 1024.0 / 1e6)
            .ok_or_else(|| "no VmHWM line in the daemon's /proc status".to_string())
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn shutdown(mut self, control: &mut Client) {
        let _ = control.request("SHUTDOWN");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills what did not exit.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One blocking client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request line and return the whole response: the status
    /// line plus every payload line, exactly as received.
    pub fn request(&mut self, line: &str) -> io::Result<Vec<u8>> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        out.clear();
        self.read_line(&mut out)?;
        if out.starts_with(b"ERR ") {
            return Ok(out);
        }
        let count = std::str::from_utf8(&out)
            .ok()
            .and_then(|s| s.strip_prefix("OK "))
            .and_then(|n| n.trim().parse::<usize>().ok())
            .ok_or_else(|| io::Error::other("malformed status line"))?;
        for _ in 0..count {
            self.read_line(&mut out)?;
        }
        Ok(out)
    }

    fn read_line(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        let n = self.reader.read_until(b'\n', out)?;
        if n == 0 || out.last() != Some(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(())
    }

    /// The daemon's `STATS` counters.
    pub fn stats(&mut self) -> Result<HashMap<String, f64>, String> {
        let reply = self
            .request("STATS")
            .map_err(|e| format!("STATS failed: {e}"))?;
        Ok(String::from_utf8_lossy(&reply)
            .lines()
            .skip(1)
            .filter_map(|l| l.split_once('='))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse::<f64>().ok()?)))
            .collect())
    }
}
