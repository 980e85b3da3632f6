//! Server children: the real `optrules serve|coord` binary, always on
//! `127.0.0.1:0`, stopped by the `{"cmd":"shutdown"}` frame, killed on
//! drop as the fallback. CPU time and peak RSS come from `/proc`.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

extern "C" {
    /// libc's; std links it already.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines thread `tid` (0: the caller) to `cpu` alone.
fn confine(tid: i32, cpu: usize) -> std::io::Result<()> {
    // A 1024-bit `cpu_set_t` with one bit set.
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: one syscall that reads a mask outliving it; it is
    // async-signal-safe, so it may run between fork and exec.
    match unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// Confines the calling thread, and the threads it spawns, to `cpu`.
pub fn confine_this_thread(cpu: usize) -> Result<(), String> {
    confine(0, cpu).map_err(|e| format!("confining the client to cpu {cpu}: {e}"))
}

/// The CPUs the calling thread may run on, ascending (`Cpus_allowed_list`
/// of `/proc/thread-self/status`, e.g. `0-1` or `0,2-3`).
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = std::fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("reading /proc/thread-self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/thread-self/status")?;
    parse_cpu_list(list.trim()).ok_or_else(|| format!("unreadable Cpus_allowed_list {list:?}"))
}

fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?);
    }
    (!cpus.is_empty()).then_some(cpus)
}

pub struct Server {
    child: Child,
    pub addr: String,
    pub label: String,
    /// Drains the child's stdout until EOF so it can never block on a
    /// full pipe.
    drain: Option<JoinHandle<()>>,
    /// How long the child took from spawn to its `listening on` line.
    pub listen_time: Duration,
}

impl Server {
    /// Spawns `bin mode [file] args… --addr 127.0.0.1:0`, waits for the
    /// `listening on <addr>` line, and returns the bound address.
    /// Stderr goes to `<log_dir>/<label>.err`. With `cpu`, every
    /// thread of the child is confined to that one CPU.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        label: &str,
        log_dir: &Path,
        cpu: Option<usize>,
    ) -> Result<Server, String> {
        let started = Instant::now();
        let stderr = File::create(log_dir.join(format!("{label}.err")))
            .map_err(|e| format!("{label}: creating stderr log: {e}"))?;
        let mut command = Command::new(bin);
        command
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        if let Some(cpu) = cpu {
            // SAFETY: the closure makes one async-signal-safe syscall.
            unsafe { command.pre_exec(move || confine(0, cpu)) };
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("{label}: spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                // After the receiver is gone the send fails; keep
                // draining regardless.
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            label: label.to_string(),
            drain: Some(drain),
            listen_time: Duration::ZERO,
        };
        match rx.recv_timeout(LISTEN_TIMEOUT) {
            Ok(line) => match line.strip_prefix("listening on ") {
                Some(addr) => {
                    server.addr = addr.trim().to_string();
                    server.listen_time = started.elapsed();
                    Ok(server)
                }
                None => Err(format!("{label}: expected `listening on`, got {line:?}")),
            },
            Err(_) => Err(format!(
                "{label}: no `listening on` line (see {})",
                log_dir.join(format!("{label}.err")).display()
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Confines every thread the running child has to `cpu`.
    pub fn confine(&self, cpu: usize) -> Result<(), String> {
        let tasks = format!("/proc/{}/task", self.pid());
        let fail = |e: std::io::Error| format!("{}: confining to cpu {cpu}: {e}", self.label);
        for entry in std::fs::read_dir(&tasks).map_err(fail)? {
            let name = entry.map_err(fail)?.file_name();
            let tid = name
                .to_string_lossy()
                .parse()
                .map_err(|_| format!("{tasks}: {name:?}"))?;
            confine(tid, cpu).map_err(fail)?;
        }
        Ok(())
    }

    /// Graceful stop: the shutdown frame, then wait for exit. Falls
    /// back to kill if the child does not leave in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = TcpStream::connect(&self.addr).and_then(|mut stream| {
            stream.set_read_timeout(Some(EXIT_TIMEOUT))?;
            stream.write_all(b"{\"cmd\":\"shutdown\"}\n")?;
            let mut ack = String::new();
            BufReader::new(stream).read_line(&mut ack)?;
            Ok(ack)
        });
        let outcome = match sent {
            Ok(ack) if ack.trim() == "{\"ok\":\"shutdown\"}" => self.wait_exit(),
            Ok(ack) => Err(format!("{}: unexpected shutdown ack {ack:?}", self.label)),
            Err(e) => Err(format!("{}: sending shutdown: {e}", self.label)),
        };
        self.reap();
        outcome
    }

    /// Waits for a child that was told to stop by someone else (a
    /// coordinator's shutdown drains its shards).
    pub fn wait_stopped(mut self) -> Result<(), String> {
        let outcome = self.wait_exit();
        self.reap();
        outcome
    }

    /// SIGKILL, for the durability check.
    pub fn kill9(mut self) {
        self.reap();
    }

    fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{}: exited with {status}", self.label)),
                Ok(None) if Instant::now() >= deadline => {
                    return Err(format!("{}: still running after shutdown", self.label))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("{}: waiting: {e}", self.label)),
            }
        }
    }

    /// Kill (a no-op on an exited child), wait, and join the drain.
    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// `utime + stime` of a process in clock ticks (fields 14 and 15 of
/// `/proc/<pid>/stat`, counted after the parenthesised command name).
pub fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    parse_cpu_ticks(&stat).ok_or_else(|| format!("unparseable /proc/{pid}/stat"))
}

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After `)`: state is field 3, so utime (14) is the 12th from here.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of a process in KiB.
pub fn vm_hwm_kb(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    parse_vm_hwm_kb(&status).ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Clock ticks per second, from `LEDGER_CLK_TCK` (`run.sh` exports
/// `getconf CLK_TCK`); Linux's universal default otherwise.
pub fn clk_tck() -> f64 {
    std::env::var("LEDGER_CLK_TCK")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(100.0)
}

/// Bytes held by the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("listing {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with spaces and parentheses must not shift fields.
        let stat = "4242 (opt rules) x) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    321 45 0 0 20 0 3 0 1234567 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(366));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\toptrules\nVmPeak:\t  200000 kB\nVmHWM:\t    7321 kB\nVmRSS:\t 7000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(7321));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ticks(pid).is_ok());
        assert!(vm_hwm_kb(pid).unwrap() > 0);
    }

    #[test]
    fn cpu_lists_parse_and_a_thread_can_confine_itself() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-3,7"), Some(vec![0, 2, 3, 7]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
        let cpus = allowed_cpus().unwrap();
        let last = *cpus.last().unwrap();
        // On a thread of its own, so the test harness keeps its CPUs.
        std::thread::spawn(move || {
            confine_this_thread(last).unwrap();
            assert_eq!(allowed_cpus().unwrap(), vec![last]);
        })
        .join()
        .unwrap();
    }
}
