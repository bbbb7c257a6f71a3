//! The daemon under test: the real `ideaflow_serve` binary, run as a
//! child process so its CPU and memory are measured apart from the load
//! generator.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http;

/// Environment the server must not inherit: a round hold adds sleeps to
/// every chaos round, schedule fuzz adds yields, and a thread override
/// changes the pool.
pub const SCRUBBED_ENV: &[&str] = &[
    "IDEAFLOW_SERVE_ROUND_HOLD_MS",
    "IDEAFLOW_SCHED_FUZZ",
    "IDEAFLOW_THREADS",
];

/// How long a start may take before the run fails.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// `/proc/<pid>/stat` reports CPU time in clock ticks; Linux fixes the
/// user-visible tick at 100 Hz.
const TICKS_PER_SEC: f64 = 100.0;

/// A running server.
pub struct Server {
    child: Child,
    reader: Option<JoinHandle<()>>,
    /// The port it listens on.
    pub port: u16,
}

impl Server {
    /// Spawns the server over `state_dir` and waits until it prints
    /// `listening`. Returns it with the seconds that took.
    ///
    /// # Errors
    ///
    /// Says why the server did not come up.
    pub fn start(bin: &Path, state_dir: &Path) -> Result<(Self, f64), String> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for var in SCRUBBED_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads to EOF so the server never writes into a closed pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut server = Self {
            child,
            reader: Some(reader),
            port: 0,
        };
        let deadline = started + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| "the server exited or stalled before listening".to_owned())?;
            if let Some(port) = line.strip_prefix("listening on 127.0.0.1:") {
                server.port = port
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad listening line {line:?}"))?;
                return Ok((server, started.elapsed().as_secs_f64()));
            }
        }
    }

    /// The server's user plus system CPU so far, ms.
    ///
    /// # Errors
    ///
    /// Says why `/proc/<pid>/stat` could not be read.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        proc_cpu_ms(&format!("/proc/{}/stat", self.child.id()))
    }

    /// The server's peak resident set, MB.
    ///
    /// # Errors
    ///
    /// Says why `/proc/<pid>/status` could not be read.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        proc_peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Scrapes `/metrics`.
    ///
    /// # Errors
    ///
    /// Says why the scrape failed.
    pub fn scrape(&self) -> Result<String, String> {
        let answer = http::request(self.port, "GET", "/metrics", None)
            .map_err(|f| format!("/metrics scrape failed: {f:?}"))?;
        if answer.status != 200 {
            return Err(format!("/metrics answered {}", answer.status));
        }
        Ok(answer.text())
    }

    /// Drains the server through `POST /shutdown` and waits for it to
    /// exit, so every journal is flushed.
    ///
    /// # Errors
    ///
    /// Says why the drain failed; the process is killed in that case.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answer = http::request(self.port, "POST", "/shutdown", None)
            .map_err(|f| format!("/shutdown failed: {f:?}"))?;
        if answer.status != 202 {
            return Err(format!("/shutdown answered {}", answer.status));
        }
        let deadline = Instant::now() + START_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot wait for the server: {e}")),
            }
        }
        Err("the server did not drain in time".to_owned())
    }
}

impl Drop for Server {
    /// Kills the process if it is still running and reaps it, so no run
    /// leaves a server behind, whatever path it exits by.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// User plus system CPU from a `/proc/<pid>/stat` file, ms.
///
/// # Errors
///
/// Says why the file could not be read or parsed.
pub fn proc_cpu_ms(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: no field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SEC * 1e3)
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, MB.
///
/// # Errors
///
/// Says why the file could not be read or parsed.
pub fn proc_peak_rss_mb(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// Copies a state dir's queue journal into a fresh `dest` (attempt
/// journals are not needed to recover the queue).
///
/// # Errors
///
/// Returns the I/O error.
pub fn copy_state(src: &Path, dest: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dest.join("journals"))?;
    let queue = src.join("queue.ifj");
    if queue.exists() {
        std::fs::copy(&queue, dest.join("queue.ifj"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_cpu_and_peak_rss_of_this_process() {
        let cpu = proc_cpu_ms("/proc/self/stat").unwrap();
        assert!(cpu >= 0.0);
        let rss = proc_peak_rss_mb("/proc/self/status").unwrap();
        assert!(rss > 0.0);
        assert!(proc_cpu_ms("/proc/self/no-such-file").is_err());
    }
}
