//! Building, starting and stopping the `vcpsd` child, plus the host
//! facts recorded with every result.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vcps_net::NetClient;

/// Deployment parameters shared by the daemon and the in-process
/// reference: scheme `s`, load factor, EWMA weight and shard count.
pub const S: usize = 2;
/// Variable-sizing load factor.
pub const LOAD_FACTOR: f64 = 3.0;
/// History EWMA weight (1.0: next size follows the last period).
pub const ALPHA: f64 = 1.0;
/// Ingest shards.
pub const SHARDS: usize = 4;

/// Where the benchmark keeps its files, relative to the checkout: span
/// traces under `traces/`, and each run's daemon logs and WAL
/// directories under `run-<pid>/`, removed when the run succeeds.
pub const WORK_DIR: &str = ".bench_e2e";

/// This run's scratch directory.
#[must_use]
pub fn run_dir() -> PathBuf {
    Path::new(WORK_DIR).join(format!("run-{}", std::process::id()))
}

/// Builds `vcpsd` from the checkout's sources (a no-op when current)
/// and returns the binary's path. Cargo's output goes to stderr.
///
/// # Errors
///
/// A failed or unlaunchable build.
pub fn build_vcpsd() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "-q",
            "-p",
            "vcps-net",
            "--bin",
            "vcpsd",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building vcpsd failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("vcpsd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("vcpsd not found at {}", bin.display()))
    }
}

/// A running `vcpsd`. Dropping it kills and reaps the process, so a
/// failing run never leaves a daemon behind.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    /// The bound address.
    pub addr: String,
    /// Spawn until the first answered ping.
    pub ready: Duration,
}

/// How a daemon is started.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// Scheme seed.
    pub scheme_seed: u64,
    /// Workers for O–D matrix queries.
    pub od_threads: usize,
    /// Durable mode: WAL directory and group-commit record count.
    pub wal: Option<(PathBuf, u64)>,
}

impl Daemon {
    /// Spawns `vcpsd` on an ephemeral loopback port, waits for its
    /// `--port-file` and its first ping.
    ///
    /// # Errors
    ///
    /// Spawn failures, or no answered ping within 30 s.
    pub fn start(bin: &Path, spec: &DaemonSpec, tag: &str) -> Result<Self, String> {
        let work = run_dir();
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let port_file = work.join(format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(work.join(format!("{tag}.log")))
            .map_err(|e| format!("daemon log: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(["--s", &S.to_string()])
            .args(["--load-factor", &LOAD_FACTOR.to_string()])
            .args(["--seed", &spec.scheme_seed.to_string()])
            .args(["--alpha", &ALPHA.to_string()])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--od-threads", &spec.od_threads.to_string()])
            .arg("--obs");
        if let Some((dir, flush_every)) = &spec.wal {
            cmd.arg("--wal-dir")
                .arg(dir)
                .args(["--flush-every", &flush_every.to_string()]);
        }
        let started = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn vcpsd: {e}"))?;
        let mut daemon = Self {
            child: Some(child),
            addr: String::new(),
            ready: Duration::ZERO,
        };
        let deadline = started + Duration::from_secs(30);
        loop {
            // The file may be caught half-written: wait for a whole address.
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if addr.trim().parse::<std::net::SocketAddr>().is_ok() {
                    daemon.addr = addr.trim().to_string();
                    break;
                }
            }
            daemon.check_alive()?;
            if Instant::now() > deadline {
                return Err("vcpsd never wrote its port file".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let mut client = daemon.connect()?;
        client.ping().map_err(|e| format!("first ping: {e}"))?;
        daemon.ready = started.elapsed();
        Ok(daemon)
    }

    fn check_alive(&mut self) -> Result<(), String> {
        if let Some(child) = self.child.as_mut() {
            if let Ok(Some(status)) = child.try_wait() {
                self.child = None;
                return Err(format!("vcpsd exited early: {status}"));
            }
        }
        Ok(())
    }

    /// Opens a client connection.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn connect(&self) -> Result<NetClient, String> {
        NetClient::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// The status file is unreadable or lacks the field.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("daemon not running")?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in status")?;
        Ok(kb / 1024.0)
    }

    /// Orderly shutdown: the shutdown frame, then waits for the exit
    /// (killing the child if it has not exited within 30 s).
    ///
    /// # Errors
    ///
    /// The shutdown was refused or the daemon exited unsuccessfully.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| format!("shutdown: {e}")));
        let mut child = self.child.take().ok_or("daemon not running")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    asked?;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("vcpsd exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("vcpsd did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The filesystem type holding `path` (longest matching mount point in
/// `/proc/mounts`), or `"unknown"`.
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
