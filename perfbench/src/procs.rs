//! Server processes: spawn, readiness, peak memory, and cleanup.

use std::fs::File;
use std::net::SocketAddrV4;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use softrep_proto::{Request, Response};
use softrep_server::TcpClient;

use crate::net;
use crate::workload::{unknown_digest, PROBE_ADDR};

/// The server binary, built next to this one.
pub fn server_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = me.with_file_name("perfbench-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is not built", bin.display()))
    }
}

/// A running `perfbench-server`, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Protocol address.
    pub proto: SocketAddrV4,
    /// Web interface address (serves `/metrics`).
    pub web: SocketAddrV4,
    spawned: Instant,
}

impl ServerProc {
    /// Start a server on the store at `data`, logging to `log`, with
    /// `extra` flags appended.
    pub fn spawn(
        bin: &Path,
        data: &Path,
        log: &Path,
        extra: &[String],
    ) -> Result<ServerProc, String> {
        let proto = net::free_port().map_err(|e| format!("free port: {e}"))?;
        let web = net::free_port().map_err(|e| format!("free port: {e}"))?;
        let out = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| format!("log: {e}"))?;
        let spawned = Instant::now();
        let child = Command::new(bin)
            .arg("--data")
            .arg(data)
            .args(["--proto", &proto.to_string(), "--web", &web.to_string()])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(ServerProc { child, proto, web, spawned })
    }

    /// Poll until the server answers a query; returns the time from spawn
    /// to that first answer.
    pub fn wait_ready(&mut self, timeout: Duration) -> Result<Duration, String> {
        let probe = Request::QuerySoftware { software_id: unknown_digest(0) };
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| format!("wait: {e}"))? {
                return Err(format!("server exited during start-up ({status})"));
            }
            if self.spawned.elapsed() > timeout {
                return Err(format!("server not answering after {timeout:?}"));
            }
            if let Ok(stream) = net::connect_from(PROBE_ADDR, self.proto) {
                let mut client =
                    TcpClient::from_stream(stream).map_err(|e| format!("probe: {e}"))?;
                let deadline = Some(Duration::from_secs(30));
                client.set_timeouts(deadline, deadline).map_err(|e| format!("probe: {e}"))?;
                return match client.call(&probe) {
                    Ok(Response::UnknownSoftware { .. }) => Ok(self.spawned.elapsed()),
                    other => Err(format!("start-up probe answered {other:?}")),
                };
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set size (`VmHWM`) so far, in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
