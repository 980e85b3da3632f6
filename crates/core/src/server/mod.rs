//! A long-lived TCP query server over one [`SharedEngine`] — the
//! network face of the engine (`optrules serve` on the CLI).
//!
//! The NDJSON batch protocol (`optrules batch`, [`crate::json`]) is
//! one-shot-over-stdio: every invocation pays cold-cache costs and
//! nothing persists between batches. This module keeps **one**
//! `SharedEngine` warm across arbitrarily many client connections, so
//! the session-cache investment (bucketizations, counting scans,
//! singleflight) compounds into sustained throughput:
//!
//! * **Protocol** — exactly the batch protocol, over TCP: one JSON
//!   [`QuerySpec`](crate::spec::QuerySpec) per line in, one
//!   `{"ok": …}` / `{"error": …}` response per line out, in request
//!   order per connection. A request with a `cmd` key is a *control
//!   frame* (`{"cmd":"stats"}`, `{"cmd":"shutdown"}`,
//!   `{"cmd":"flush"}`, and the live write
//!   `{"cmd":"append","rows":[…]}` — schema in [`crate::json`]).
//! * **Framing** — each worker reads one request line (blocking), then
//!   drains any further complete lines its buffer already holds, and
//!   runs each run of consecutive specs as **one**
//!   [`run_batch`](crate::shared::SharedEngine::run_batch) segment: a
//!   pipelining client gets plan-level dedup across everything it sent
//!   at once, and concurrent clients coalesce cold misses across
//!   connections through the engine's singleflight cache.
//! * **Live appends** — an `append` frame produces the next relation
//!   *generation*
//!   ([`SharedEngine::append_rows`](crate::shared::SharedEngine::append_rows)).
//!   Writes serialize against each other on the engine's writer lock
//!   but never block (or wait for) in-flight batches: every batch
//!   pinned its generation when it started and keeps scanning that
//!   snapshot. Within a connection, order is program order — specs
//!   after an append see the new generation, a `stats` frame reflects
//!   exactly the requests before it.
//! * **Concurrency & backpressure** — a fixed pool of
//!   [`workers`](ServerConfig::workers) threads, each serving one
//!   connection at a time, pulls from a **bounded** accept queue
//!   ([`max_pending`](ServerConfig::max_pending)); when the queue is
//!   full the acceptor stops accepting and the OS listen backlog
//!   pushes back on clients. Independently,
//!   [`max_inflight_batches`](ServerConfig::max_inflight_batches)
//!   caps how many batches execute on the engine at once.
//! * **Robustness** — malformed JSON, unknown keys, or a failing query
//!   produce an `{"error": …}` line and the connection lives on;
//!   request lines over
//!   [`max_line_bytes`](ServerConfig::max_line_bytes) get an error
//!   response and a clean disconnect; connection I/O errors (resets,
//!   half-closes) end that connection, never a worker. Memory per
//!   connection is bounded: one line is capped, one framing batch
//!   holds at most 1024 requests before it executes and responds, and
//!   a client that stops *reading* trips
//!   [`write_timeout`](ServerConfig::write_timeout) instead of
//!   parking a worker on a full send buffer forever.
//! * **Graceful shutdown** — a `{"cmd":"shutdown"}` control frame (or
//!   [`ServerHandle::shutdown`]) stops the acceptor, EOFs every parked
//!   reader through a connection registry so in-flight connections
//!   drain and flush their remaining responses, checkpoints a durable
//!   engine ([`SharedEngine::flush`]) once the pool has exited, and
//!   lets [`ServerHandle::join`] return. The server is dependency-free
//!   and
//!   installs no signal handler: SIGINT keeps its OS default
//!   (immediate process exit); use the control frame for a clean stop.
//!
//! ```no_run
//! use optrules_core::server::{serve, ServerConfig};
//! use optrules_core::SharedEngine;
//! use optrules_relation::gen::{BankGenerator, DataGenerator};
//! use std::sync::Arc;
//!
//! let rel = BankGenerator::default().to_relation(100_000, 3);
//! let engine = Arc::new(SharedEngine::new(rel));
//! let handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("listening on {}", handle.addr()); // :0 picked a real port
//! handle.join(); // runs until a {"cmd":"shutdown"} frame arrives
//! ```

mod conn;

use crate::json::{self, Json, Request};
use crate::shared::SharedEngine;
use optrules_obs::{now_ns, Gauges, ServiceObs, Timer, TraceSink};
use optrules_relation::{AppendRows, Durability, RandomAccess};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing and protocol limits for [`serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads handling connections; each worker serves one
    /// connection at a time, so this is also the concurrent-connection
    /// limit. Clamped to at least 1.
    pub workers: usize,
    /// Bound on connections accepted but not yet picked up by a
    /// worker. When full, the acceptor blocks instead of buffering
    /// unboundedly — beyond this the OS listen backlog (and then the
    /// clients' connect timeouts) absorb the overload. Clamped to at
    /// least 1.
    pub max_pending: usize,
    /// Maximum batches executing on the engine at once across all
    /// workers. Lets an operator run many workers (cheap, mostly
    /// parked in socket reads) while capping concurrent O(N) mining
    /// work. Clamped to at least 1.
    pub max_inflight_batches: usize,
    /// Maximum request-line length in bytes. A longer line gets an
    /// `{"error": …}` response and the connection is closed (there is
    /// no way to resynchronize mid-line with bounded memory).
    pub max_line_bytes: usize,
    /// `threads` handed to each
    /// [`run_batch`](crate::shared::SharedEngine::run_batch) call —
    /// fan-out *within* one connection's framing batch. Responses are
    /// byte-identical at every value; 1 is right unless connections
    /// are few and batches are wide.
    pub batch_threads: usize,
    /// How long a response write may block before the connection is
    /// dropped. Bounds the damage a client that stops *reading* can
    /// do: without it, a worker stuck writing into a full socket send
    /// buffer is held hostage indefinitely — and so is a graceful
    /// shutdown, whose registry sweep can only EOF the *read* halves.
    /// `None` means block forever.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    /// 4 workers, 64 pending connections, 4 in-flight batches, 1 MiB
    /// request lines, sequential batch execution, 30 s write timeout.
    fn default() -> Self {
        Self {
            workers: 4,
            max_pending: 64,
            max_inflight_batches: 4,
            max_line_bytes: 1 << 20,
            batch_threads: 1,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Counting semaphore bounding concurrent batch executions
/// ([`ServerConfig::max_inflight_batches`]). Handed to
/// [`Service::execute`] so the serving identity takes a permit around
/// each planned segment it runs.
#[derive(Debug)]
pub struct Gate {
    max: usize,
    inflight: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    /// A gate admitting at most `max` concurrent permits (clamped to at
    /// least 1).
    pub fn new(max: usize) -> Self {
        Self {
            max: max.max(1),
            inflight: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a slot frees up; the guard releases it on drop.
    pub fn acquire(&self) -> GateGuard<'_> {
        let mut inflight = self.inflight.lock().expect("gate poisoned");
        while *inflight >= self.max {
            inflight = self.cv.wait(inflight).expect("gate poisoned");
        }
        *inflight += 1;
        GateGuard(self)
    }

    /// How many permits are currently held — the in-flight-batches
    /// gauge of the stats/metrics frames.
    pub fn in_flight(&self) -> usize {
        *self.inflight.lock().expect("gate poisoned")
    }
}

/// An acquired [`Gate`] slot; dropping it releases the slot.
pub struct GateGuard<'a>(&'a Gate);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        *self.0.inflight.lock().expect("gate poisoned") -= 1;
        self.0.cv.notify_one();
    }
}

/// A serving identity behind the TCP front end. The transport machinery
/// (acceptor, worker pool, framing, registry, graceful shutdown) is
/// identical for every identity; what differs is who answers the
/// request grammar — the single-node engine ([`serve`]) or the
/// scatter-gather coordinator (the `optrules-coord` crate, via
/// [`serve_service`]).
pub trait Service: Send + Sync + 'static {
    /// Executes one framing batch of parsed requests **in program
    /// order**, returning one response envelope per request plus
    /// whether a shutdown frame was seen. `ctx` carries the server's
    /// in-flight batch gate (implementations take a permit around each
    /// planned spec segment — never around appends or other control
    /// frames), [`ServerConfig::batch_threads`], and the transport's
    /// observability handles.
    fn execute(&self, requests: Vec<Request>, ctx: ExecuteCtx<'_>) -> (Vec<Json>, bool);

    /// Called exactly once by the supervisor after the acceptor and
    /// every worker have exited — the final-checkpoint / backend-drain
    /// hook of a graceful shutdown. The default does nothing.
    fn drain(&self) {}
}

/// Per-batch transport context handed to [`Service::execute`]: the
/// in-flight gate, the batch fan-out width, and the observability
/// handles the `stats` / `metrics` frames report. `trace` arrives
/// `None` — the *service* owns its span sink and substitutes it, since
/// tracing belongs to the serving identity, not the transport.
pub struct ExecuteCtx<'a> {
    /// The server's in-flight batch gate.
    pub gate: &'a Gate,
    /// [`ServerConfig::batch_threads`].
    pub batch_threads: usize,
    /// Request-lifecycle histograms of the serving process.
    pub obs: &'a ServiceObs,
    /// Uptime, live connections, in-flight batches at dequeue time.
    pub gauges: Gauges,
    /// Span sink for trace emission; `None` when tracing is off.
    pub trace: Option<&'a TraceSink>,
}

/// The single-node identity: one warm [`SharedEngine`] answers every
/// connection.
struct EngineService<R: RandomAccess> {
    engine: Arc<SharedEngine<R>>,
    trace: Option<Arc<TraceSink>>,
}

impl<R> Service for EngineService<R>
where
    R: RandomAccess + AppendRows + Durability + Send + Sync + 'static,
{
    fn execute(&self, requests: Vec<Request>, ctx: ExecuteCtx<'_>) -> (Vec<Json>, bool) {
        let ctx = ExecuteCtx {
            trace: self.trace.as_deref(),
            ..ctx
        };
        json::execute_requests(&self.engine, requests, ctx.batch_threads, Some(ctx))
    }

    /// Checkpoint the engine so a durable relation leaves no WAL tail
    /// behind a graceful shutdown. In-memory relations make this a
    /// no-op.
    fn drain(&self) {
        if let Err(e) = self.engine.flush() {
            eprintln!("optrules serve: final checkpoint failed: {e}");
        }
    }
}

/// State shared by the acceptor, the workers, and [`ServerHandle`]:
/// the shutdown latch, the live-connection registry, and the limits.
#[derive(Debug)]
struct Control {
    addr: SocketAddr,
    shutting_down: AtomicBool,
    next_conn: AtomicU64,
    /// Clones of live connections' streams, so shutdown can EOF
    /// readers parked on the next request (`Shutdown::Read` leaves the
    /// write half open — queued responses still flush).
    live: Mutex<HashMap<u64, TcpStream>>,
    gate: Gate,
    config: ServerConfig,
    /// Request-lifecycle histograms (queue wait, batch execute,
    /// response write) — pool-wide, lock-free, always on.
    obs: ServiceObs,
    /// [`now_ns`] at bind time, for the uptime gauge.
    started_ns: u64,
}

impl Control {
    /// Builds the context for one frame batch: borrows the gate and
    /// the lifecycle histograms and samples the gauges now. The trace
    /// sink is the service's to substitute.
    fn execute_ctx(&self) -> ExecuteCtx<'_> {
        ExecuteCtx {
            gate: &self.gate,
            batch_threads: self.config.batch_threads,
            obs: &self.obs,
            gauges: Gauges {
                uptime_ns: now_ns().saturating_sub(self.started_ns),
                connections: self.live.lock().expect("registry poisoned").len() as u64,
                inflight_batches: self.gate.in_flight() as u64,
            },
            trace: None,
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Idempotently starts the graceful shutdown: stop accepting,
    /// EOF every parked reader, let in-flight work drain.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for stream in self.live.lock().expect("registry poisoned").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // Wake the acceptor out of its blocking accept with a
        // throwaway connection; it re-checks the latch on every
        // accept, so a failed connect only delays exit until the next
        // real client.
        let _ = TcpStream::connect(self.addr);
    }

    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let clone = stream.try_clone().ok()?;
        self.live
            .lock()
            .expect("registry poisoned")
            .insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.live.lock().expect("registry poisoned").remove(&id);
    }
}

/// A running server: its bound address, the shutdown trigger, and the
/// thread handles. Returned by [`serve`]; dropping it does **not**
/// stop the server (the threads keep running detached) — call
/// [`shutdown`](Self::shutdown) and/or [`join`](Self::join).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    control: Arc<Control>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address — with a `:0` bind request, the port
    /// the OS picked.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers the same graceful shutdown as a `{"cmd":"shutdown"}`
    /// control frame. Idempotent; returns immediately — pair with
    /// [`join`](Self::join) to wait for the drain.
    pub fn shutdown(&self) {
        self.control.begin_shutdown();
    }

    /// Whether a shutdown has been requested (by either trigger).
    pub fn is_shutting_down(&self) -> bool {
        self.control.shutting_down()
    }

    /// Blocks until the acceptor and every worker have exited — i.e.
    /// until after a shutdown trigger, once in-flight connections have
    /// drained and flushed.
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Binds `addr` and serves the NDJSON query protocol over `engine`
/// until a shutdown is triggered. Returns immediately with a
/// [`ServerHandle`]; all work happens on the spawned acceptor + worker
/// threads. See the [module docs](self) for the protocol and
/// concurrency model.
///
/// The engine is shared, not consumed: the caller can keep querying
/// it in-process, inspect [`snapshot`](SharedEngine::snapshot), or
/// hand the same `Arc` to several servers on different ports.
///
/// # Errors
///
/// Fails if the address cannot be bound or inspected.
pub fn serve<R>(
    engine: Arc<SharedEngine<R>>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle>
where
    R: RandomAccess + AppendRows + Durability + Send + Sync + 'static,
{
    serve_traced(engine, addr, config, None)
}

/// [`serve`] with a trace sink: every planned segment and every
/// shard-internal frame emits one NDJSON span to `trace` (the CLI's
/// `--trace-log`). `None` is exactly [`serve`].
///
/// # Errors
///
/// Fails if the address cannot be bound or inspected.
pub fn serve_traced<R>(
    engine: Arc<SharedEngine<R>>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    trace: Option<Arc<TraceSink>>,
) -> io::Result<ServerHandle>
where
    R: RandomAccess + AppendRows + Durability + Send + Sync + 'static,
{
    serve_service(Arc::new(EngineService { engine, trace }), addr, config)
}

/// Binds `addr` and serves the NDJSON query protocol over an arbitrary
/// [`Service`] — the transport layer of [`serve`], reusable by any
/// serving identity (the scatter-gather coordinator rides it too).
/// Same lifecycle: returns immediately with a [`ServerHandle`]; the
/// supervisor calls [`Service::drain`] once everything has exited.
///
/// # Errors
///
/// Fails if the address cannot be bound or inspected.
pub fn serve_service<S: Service>(
    service: Arc<S>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let control = Arc::new(Control {
        addr,
        shutting_down: AtomicBool::new(false),
        next_conn: AtomicU64::new(0),
        live: Mutex::new(HashMap::new()),
        gate: Gate::new(config.max_inflight_batches),
        config,
        obs: ServiceObs::default(),
        started_ns: now_ns(),
    });
    // Each queued connection carries the timer started at accept, so
    // the dequeuing worker can record how long it sat waiting for a
    // free worker (the `queue_wait` histogram).
    let (tx, rx) = mpsc::sync_channel::<(TcpStream, Timer)>(config.max_pending.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let mut pool = Vec::with_capacity(config.workers.max(1) + 1);
    for _ in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let service = Arc::clone(&service);
        let control = Arc::clone(&control);
        pool.push(std::thread::spawn(move || worker(&rx, &*service, &control)));
    }
    {
        let control = Arc::clone(&control);
        pool.push(std::thread::spawn(move || {
            acceptor(&listener, &tx, &control)
        }));
    }
    // The supervisor owns the drain: once every worker and the
    // acceptor have exited (all connections flushed their responses),
    // the service runs its final-checkpoint hook — for the engine
    // identity, a durability flush so a graceful shutdown leaves no
    // WAL tail.
    let supervisor = std::thread::spawn(move || {
        for thread in pool {
            let _ = thread.join();
        }
        service.drain();
    });
    Ok(ServerHandle {
        addr,
        control,
        threads: vec![supervisor],
    })
}

/// The accept loop: push connections into the bounded queue until
/// shutdown. Exiting drops `tx`, which is what tells idle workers
/// (parked in `recv`) to exit once the queue drains.
fn acceptor(listener: &TcpListener, tx: &SyncSender<(TcpStream, Timer)>, control: &Control) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if control.shutting_down() => break,
            Err(_) => {
                // Transient (EMFILE, aborted handshake): don't spin.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if control.shutting_down() {
            break; // `stream` (possibly the wake connection) just drops
        }
        // Blocks while the queue is full: bounded memory; the OS
        // listen backlog queues behind it.
        if tx.send((stream, Timer::start())).is_err() {
            break;
        }
    }
}

/// One pool worker: serve queued connections until the acceptor hangs
/// up and the queue is drained. Connection-level I/O errors end that
/// connection only — the worker moves on to the next.
fn worker<S: Service>(rx: &Mutex<Receiver<(TcpStream, Timer)>>, service: &S, control: &Control) {
    loop {
        let stream = rx.lock().expect("accept queue poisoned").recv();
        let Ok((stream, queued)) = stream else { break };
        queued.stop(&control.obs.queue_wait);
        // A connection we cannot register (try_clone failure) must not
        // be served either: shutdown could never EOF it, and an idle
        // client would then hold `join` forever. Dropping it is the
        // promised clean disconnect.
        let Some(id) = control.register(&stream) else {
            continue;
        };
        // A client that stops reading must not hold this worker (or a
        // graceful shutdown) hostage on a blocked response write.
        let _ = stream.set_write_timeout(control.config.write_timeout);
        // Re-checked *after* registering: a shutdown that raced in
        // between either sees this entry in its registry sweep or is
        // seen here — the connection cannot slip past both.
        if control.shutting_down() {
            control.deregister(id);
            continue;
        }
        let _ = conn::serve_conn(service, stream, control);
        control.deregister(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn gate_caps_concurrency_at_max() {
        let gate = Gate::new(2);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let _permit = gate.acquire();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn gate_clamps_zero_to_one() {
        let gate = Gate::new(0);
        let _permit = gate.acquire(); // must not deadlock
    }

    #[test]
    fn server_config_default_is_sane() {
        let config = ServerConfig::default();
        assert!(config.workers >= 1);
        assert!(config.max_pending >= 1);
        assert!(config.max_inflight_batches >= 1);
        assert!(config.max_line_bytes >= 1024);
        assert_eq!(config.batch_threads, 1);
        assert!(
            config.write_timeout.is_some(),
            "stalled readers must not hold workers (or shutdown) forever by default"
        );
    }
}
