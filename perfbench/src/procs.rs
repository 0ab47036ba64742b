//! Server processes and the host counters read around the timed phase.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 per second.
const TICKS_PER_SECOND: f64 = 100.0;

/// One running `geoalign` process, killed and reaped on drop.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// The address the process reported it bound.
    pub addr: SocketAddr,
    stderr_drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bin args... --threads N` on an ephemeral loopback port and
    /// waits for its `listening on http://ADDR` line.
    pub fn spawn(bin: &Path, args: &[String], threads: usize) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "{} exited before reporting its address",
                    bin.display()
                )));
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let text = rest.split_whitespace().next().unwrap_or("");
                break text.parse::<SocketAddr>().map_err(io::Error::other)?;
            }
        };
        // Keep reading so a chatty server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            while matches!(stderr.read_until(b'\n', &mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerProc {
            child,
            addr,
            stderr_drain: Some(drain),
        })
    }

    /// User plus system CPU seconds of the whole process so far.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the full line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("malformed /proc/<pid>/stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed /proc/<pid>/stat"))
        };
        Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
    }

    /// Resident set size in MiB.
    pub fn rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmRSS in /proc/<pid>/status"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

/// Aggregate CPU jiffies of the host: `(steal, total)`.
pub fn host_cpu() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
