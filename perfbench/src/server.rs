//! The `spot-server` child process: spawned with the benchmark's fixed
//! flags, observed through `/proc` and its admin endpoint, and always
//! reaped — on success, on error and on unwind — and killed by the
//! kernel if the benchmark itself is killed.

use crate::workload::OPEN_BATCH_CAP;
use spot_bench::check::{http_get, parse_prometheus, MetricMap};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which
/// the kernel ABI fixes at 100 per second.
const TICKS_PER_SECOND: f64 = 100.0;

/// How long a fresh server may take to print its addresses.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Flags of one server launch.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The `spot-server` executable.
    pub binary: PathBuf,
    /// Base mask seed.
    pub seed: u64,
    /// Write a Chrome trace here on exit (`--trace`).
    pub trace: Option<PathBuf>,
    /// Exit after this many connections (`--serve`).
    pub serve_limit: Option<usize>,
}

/// A running `spot-server`.
pub struct ServerProc {
    child: Option<Child>,
    pid: u32,
    /// Session listener address.
    pub addr: String,
    /// Admin (`/metrics`) address.
    pub admin: String,
    tail: Arc<Mutex<VecDeque<String>>>,
    readers: Vec<JoinHandle<()>>,
}

/// Spawns a thread draining `pipe` line by line into `lines`; the last
/// lines stay in `tail` for error reports.
fn drain<R: Read + Send + 'static>(
    pipe: R,
    lines: mpsc::Sender<String>,
    tail: Arc<Mutex<VecDeque<String>>>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            if let Ok(mut t) = tail.lock() {
                if t.len() == 20 {
                    t.pop_front();
                }
                t.push_back(line.clone());
            }
            let _ = lines.send(line);
        }
    })
}

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

/// Asks the kernel to kill this process when the thread that spawned it
/// ends, so a benchmark killed by a signal, which runs no destructors,
/// still takes its server down with it.
fn die_with_parent() -> std::io::Result<()> {
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGKILL: c_ulong = 9;
    // SAFETY: prctl(PR_SET_PDEATHSIG, sig) reads no memory of ours.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

fn field_after<'a>(line: &'a str, marker: &str) -> Option<&'a str> {
    let rest = &line[line.find(marker)? + marker.len()..];
    rest.split_whitespace().next()
}

impl ServerProc {
    /// Starts the server and waits until both its session and admin
    /// listeners are up.
    pub fn spawn(launch: &Launch) -> Result<Self, String> {
        let mut cmd = Command::new(&launch.binary);
        cmd.args(["--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0"])
            .args(["--backend", "streaming", "--threads", "1", "--pool", "0"])
            .args(["--capacity", "2", "--max-sessions", "16"])
            .args(["--max-batch", &OPEN_BATCH_CAP.to_string()])
            .args(["--seed", &launch.seed.to_string()])
            .env("SPOT_LOG", "info")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(path) = &launch.trace {
            cmd.arg("--trace").arg(path);
        }
        if let Some(n) = launch.serve_limit {
            cmd.args(["--serve", &n.to_string()]);
        }
        // SAFETY: the closure runs in the forked child before exec and
        // only makes one async-signal-safe system call.
        unsafe {
            cmd.pre_exec(die_with_parent);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", launch.binary.display()))?;
        let pid = child.id();
        let tail = Arc::new(Mutex::new(VecDeque::new()));
        let (tx, rx) = mpsc::channel();
        let stdout = child.stdout.take().expect("stdout is piped");
        let stderr = child.stderr.take().expect("stderr is piped");
        let readers = vec![
            drain(stdout, tx.clone(), Arc::clone(&tail)),
            drain(stderr, tx, Arc::clone(&tail)),
        ];
        let mut server = ServerProc {
            child: Some(child),
            pid,
            addr: String::new(),
            admin: String::new(),
            tail,
            readers,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        while server.addr.is_empty() || server.admin.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx.recv_timeout(left).map_err(|_| {
                format!(
                    "spot-server did not report its addresses: {}",
                    server.tail_text()
                )
            })?;
            if let Some(addr) = field_after(&line, "listening on ") {
                server.addr = addr.to_string();
            }
            if let Some(addr) = field_after(&line, "admin endpoint on http://") {
                server.admin = addr.to_string();
            }
        }
        // The remaining lines are drained by the reader threads (so the
        // server never blocks on a full pipe) and only kept in `tail`.
        drop(rx);
        Ok(server)
    }

    /// The last lines the server printed.
    pub fn tail_text(&self) -> String {
        self.tail
            .lock()
            .map(|t| t.iter().cloned().collect::<Vec<_>>().join(" | "))
            .unwrap_or_default()
    }

    /// CPU seconds (user + system) the server has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        proc_cpu_seconds(&format!("/proc/{}/stat", self.pid))
    }

    /// Peak-RSS probe of the server process.
    pub fn peak_probe(&self) -> PeakProbe {
        PeakProbe::of(&self.pid.to_string())
    }

    /// Current `/metrics` exposition, parsed.
    pub fn scrape(&self) -> Result<MetricMap, String> {
        let body = http_get(&self.admin, "/metrics").map_err(|e| format!("scrape: {e}"))?;
        Ok(parse_prometheus(&body))
    }

    /// Waits for a server launched with a connection limit to exit on
    /// its own (it writes its trace on the way out); kills it after
    /// `timeout`.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<(), String> {
        let mut child = self.child.take().expect("child present until reaped");
        let deadline = Instant::now() + timeout;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("spot-server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Ok(None) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("spot-server did not exit: {}", self.tail_text()));
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// User + system CPU seconds from a `/proc/<pid>/stat` file.
pub fn proc_cpu_seconds(path: &str) -> Result<f64, String> {
    parse_stat_cpu(&read(path)?).ok_or_else(|| format!("{path}: unexpected format"))
}

/// `utime + stime` (fields 14 and 15) in seconds. The command name in
/// field 2 may hold spaces, so fields are counted after its `)`.
fn parse_stat_cpu(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
fn proc_peak_rss_mb(path: &str) -> Result<f64, String> {
    let status = read(path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// Reads and resets a process's resident-set high-water mark, so that
/// successive reads give the peak of each interval between them.
pub struct PeakProbe {
    status: String,
    clear_refs: String,
}

impl PeakProbe {
    /// Probe of `/proc/<pid>` (`pid` may be `self`).
    pub fn of(pid: &str) -> Self {
        Self {
            status: format!("/proc/{pid}/status"),
            clear_refs: format!("/proc/{pid}/clear_refs"),
        }
    }

    /// Peak RSS since the previous call (or process start), in MB;
    /// then restarts the high-water mark from the current RSS.
    pub fn take(&self) -> Result<f64, String> {
        let peak = proc_peak_rss_mb(&self.status)?;
        // "5" resets the peak RSS to the current RSS (proc(5)).
        std::fs::write(&self.clear_refs, "5").map_err(|e| format!("{}: {e}", self.clear_refs))?;
        Ok(peak)
    }
}

/// Removes `path` and everything under it, ignoring a missing path.
pub fn remove_tree(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_spaces_in_the_name() {
        let stat = "4242 (spot server) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 75 0 0 20 0 3 0 12345 0 0";
        assert_eq!(parse_stat_cpu(stat), Some(3.25));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(proc_cpu_seconds("/proc/self/stat").unwrap() >= 0.0);
        let probe = PeakProbe::of("self");
        let first = probe.take().unwrap();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let second = probe.take().unwrap();
        let third = probe.take().unwrap();
        // The 64 MB spike shows in its own interval only.
        assert!(second > first.min(third) + 32.0, "{first} {second} {third}");
    }

    #[test]
    fn address_lines_parse() {
        let l = "spot-server: listening on 127.0.0.1:40123 (serving mode, backend streaming)";
        assert_eq!(field_after(l, "listening on "), Some("127.0.0.1:40123"));
        let a = "[info server] admin endpoint on http://127.0.0.1:40124";
        assert_eq!(
            field_after(a, "admin endpoint on http://"),
            Some("127.0.0.1:40124")
        );
    }
}
