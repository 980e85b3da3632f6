//! Per-connection protocol loop: limited line framing, pipelined batch
//! collection, control frames (stats/shutdown/append), ordered
//! responses.

use super::{Control, Service};
use crate::json::{self, Request};
use optrules_obs::Timer;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

/// Upper bound on requests collected into one framing batch. A client
/// streaming NDJSON nonstop keeps the read buffer non-empty
/// indefinitely; without a cap the frame loop would accumulate
/// requests (and defer every response) until the sender pauses —
/// unbounded memory on one connection. At the cap the frame executes
/// and responds, then framing resumes where it left off.
const MAX_FRAME_REQUESTS: usize = 1024;

/// How one limited line read ended.
enum LineRead {
    /// A complete line (or a final unterminated one before EOF) is in
    /// the buffer, newline stripped.
    Line,
    /// Clean end of stream with no pending bytes.
    Eof,
    /// The line exceeded the limit; the rest of it is still unread.
    TooLong,
}

/// Reads one `\n`-terminated line into `buf` (newline stripped),
/// giving up once `max` bytes have accumulated. Unlike
/// `BufRead::read_line` this cannot be made to buffer an unbounded
/// line by a hostile or broken client.
fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> io::Result<LineRead> {
    buf.clear();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                buf.extend_from_slice(&chunk[..newline]);
                reader.consume(newline + 1);
                return Ok(if buf.len() > max {
                    LineRead::TooLong
                } else {
                    LineRead::Line
                });
            }
            None => {
                let len = chunk.len();
                buf.extend_from_slice(chunk);
                reader.consume(len);
                if buf.len() > max {
                    return Ok(LineRead::TooLong);
                }
            }
        }
    }
}

/// Serves one connection to completion: frame, execute, respond, until
/// EOF, an oversized line, a shutdown frame, or an I/O error.
///
/// Requests execute in order: consecutive specs form one planned
/// `run_batch` **segment** (pinning one relation generation, with
/// plan-level dedup); a control frame first flushes the open segment,
/// so `stats` reflects exactly the requests before it and specs after
/// an `append` see the new generation. Appends take the engine's
/// writer lock, never the batch gate — a slow mining batch on another
/// connection cannot delay a write, and vice versa.
pub(super) fn serve_conn<S: Service>(
    service: &S,
    stream: TcpStream,
    control: &Control,
) -> io::Result<()> {
    let max_line = control.config.max_line_bytes;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    loop {
        // Frame: the first line blocks; any further *complete* lines
        // already sitting in the read buffer ride the same frame (the
        // newline check guarantees the extra reads cannot block on a
        // half-sent line). A pipelining client thus gets plan-level
        // dedup across every spec run it sent at once, with no
        // artificial latency added for interactive one-line clients.
        let mut requests: Vec<Request> = Vec::new();
        let mut eof = false;
        let mut overflow = false;
        loop {
            match read_line_limited(&mut reader, &mut buf, max_line)? {
                LineRead::Eof => {
                    eof = true;
                    break;
                }
                LineRead::TooLong => {
                    overflow = true;
                    break;
                }
                LineRead::Line => {
                    // Blank lines are skipped, not answered — same as
                    // `optrules batch` on stdin.
                    if !buf.iter().all(u8::is_ascii_whitespace) {
                        match std::str::from_utf8(&buf) {
                            Ok(text) => requests.push(json::parse_request(text)),
                            Err(_) => requests.push(Request::Bad(
                                "bad request: request line is not valid UTF-8".into(),
                            )),
                        }
                    }
                }
            }
            if requests.len() >= MAX_FRAME_REQUESTS || !reader.buffer().contains(&b'\n') {
                break;
            }
        }

        // Execute in request order: the service batches consecutive
        // specs into planned segments split at control frames, taking
        // an in-flight gate permit around each segment.
        let executed = !requests.is_empty();
        let timer = Timer::start();
        let (responses, shutdown_requested) = service.execute(requests, control.execute_ctx());
        // EOF produces an empty frame that still runs through execute;
        // recording it would pollute the histogram with no-op samples.
        if executed {
            timer.stop(&control.obs.batch_execute);
        }

        // Respond in request order.
        let responded = !responses.is_empty();
        let timer = Timer::start();
        let written: io::Result<()> = (|| {
            for response in responses {
                writeln!(writer, "{}", response.encode())?;
            }
            if overflow {
                let msg = format!("request line exceeds {max_line} bytes");
                writeln!(writer, "{}", json::error_envelope(msg).encode())?;
            }
            writer.flush()
        })();
        if responded {
            timer.stop(&control.obs.response_write);
        }

        // An accepted shutdown frame stops the server even when the
        // requester vanished before reading its ack (the write above
        // failing must not discard the command).
        if shutdown_requested {
            control.begin_shutdown();
            written?;
            return Ok(());
        }
        written?;
        if eof || overflow {
            return Ok(());
        }
    }
}
