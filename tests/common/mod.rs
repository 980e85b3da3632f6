//! Process-level helpers shared by the golden and fault tests that
//! drive real `optrules serve` / `optrules coord` children over TCP.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};

/// The `optrules` binary under test.
pub fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_optrules"))
}

/// A listening child process and the address it bound.
pub struct Server {
    pub child: Child,
    pub addr: String,
}

/// Spawns a subcommand that prints `listening on <addr>` first and
/// parses the bound address from that line. Always pass `--addr
/// 127.0.0.1:0`: two children on a default port race for it. A child
/// that dies before listening fails the test with its stderr.
pub fn spawn_listening(command: &mut Command) -> Server {
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("process spawns");
    let stdout = child.stdout.as_mut().expect("stdout piped");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read listening line");
    let Some(addr) = first.trim().strip_prefix("listening on ") else {
        let _ = child.kill();
        let mut stderr = String::new();
        let _ = child
            .stderr
            .take()
            .expect("stderr piped")
            .read_to_string(&mut stderr);
        panic!("unexpected first line {first:?}; child stderr: {stderr}");
    };
    let addr = addr.to_string();
    Server { child, addr }
}

/// One-shot client: write `input`, half-close, read every response
/// line to EOF.
pub fn roundtrip(addr: &str, input: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(input.as_bytes()).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|line| line.expect("read"))
        .collect()
}

/// Sends the shutdown frame and requires a clean exit.
pub fn shutdown(mut server: Server) {
    assert_eq!(
        roundtrip(&server.addr, "{\"cmd\":\"shutdown\"}\n"),
        ["{\"ok\":\"shutdown\"}"]
    );
    assert!(server.child.wait().expect("server exits").success());
}
