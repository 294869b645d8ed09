//! The long-running rule server: length-prefixed TCP, a worker pool on
//! the workspace's sanctioned spawn discipline, hot-swappable snapshots,
//! and graceful drain on the shared [`CancelToken`].
//!
//! # Protocol
//!
//! Every request and response is one frame: a `u32` little-endian length
//! followed by that many bytes. A request's first byte is its tag —
//! [`TAG_QUERY`] (`'Q'`, rest is a comma-separated basket line),
//! [`TAG_SWAP`] (`'S'`, rest is a snapshot path the *server* loads), or
//! [`TAG_PING`] (`'P'`). A response's first byte is `+` (ok) or `-`
//! (error), followed by a UTF-8 body. Connections are keep-alive: one
//! stream carries any number of frames.
//!
//! A response goes out as two buffers in vectored writes — the 5-byte
//! length and status, then the answer string itself — so the body is
//! never copied into a frame buffer. A request frame's buffer grows in
//! 64 KiB steps as its bytes arrive, so a length prefix alone reserves
//! at most one step, not the `MAX_FRAME` (1 MiB) it may announce.
//!
//! # Hot swap
//!
//! The live snapshot sits behind [`SnapshotCell`] — the `Arc` pointer
//! flip. A request clones the `Arc` once, up front, and resolves
//! entirely against that clone; a concurrent swap replaces the pointer
//! for *future* requests but can never tear an in-flight one. Swaps
//! verify the new snapshot's taxonomy digest against the serving
//! taxonomy and are refused (typed error, old snapshot stays) on
//! mismatch.
//!
//! # Drain
//!
//! Cancelling the token stops the accept loop, lets each worker finish
//! the request it is executing, and closes connections at the next frame
//! boundary. Workers are scoped threads joined before [`serve`] returns,
//! so a returned `serve` means zero worker threads remain — the soak
//! test pins exactly that.

use crate::engine::answer_basket_line;
use crate::error::ServeError;
use crate::snapshot::Snapshot;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::ctrl::CancelToken;
use negassoc_txdb::obs::{MetricId, MetricKind, Obs};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Request tag: match a basket (body = comma-separated item names).
pub const TAG_QUERY: u8 = b'Q';
/// Request tag: hot-swap to the snapshot at the body's path.
pub const TAG_SWAP: u8 = b'S';
/// Request tag: liveness probe; answers with the live snapshot version.
pub const TAG_PING: u8 = b'P';

/// How often blocked waits re-check the cancel token (the `txdb::block`
/// cadence).
const CTRL_POLL: Duration = Duration::from_millis(20);
/// Socket read/write timeout, so idle connections poll the token too.
const IO_POLL: Duration = Duration::from_millis(50);
/// Poll rounds a worker grants a mid-frame request after cancellation
/// before abandoning the connection (~1 s at [`IO_POLL`]); drain must
/// not hinge on a stalled client.
const DRAIN_GRACE_POLLS: u32 = 20;
/// Largest accepted frame; beyond this the peer is not speaking the
/// protocol.
const MAX_FRAME: u32 = 1 << 20;
/// A request frame's buffer grows by at most this much per read, so a
/// peer that announces a large frame and stalls holds at most one step.
const READ_STEP: usize = 64 << 10;

/// The hot-swap cell: an `Arc` pointer flip behind a many-reader lock.
/// Readers hold the lock only long enough to clone the `Arc`; every
/// request therefore resolves against exactly one snapshot for its whole
/// lifetime, which is the no-torn-reads guarantee.
#[derive(Debug)]
pub struct SnapshotCell {
    slot: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// A cell serving `snapshot`.
    pub fn new(snapshot: Arc<Snapshot>) -> Self {
        SnapshotCell {
            slot: RwLock::new(snapshot),
        }
    }

    /// The live snapshot (cloned handle).
    pub fn load(&self) -> Arc<Snapshot> {
        // A poisoned lock only means some reader/writer panicked while
        // holding it; the Arc inside is still valid.
        match self.slot.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poison) => Arc::clone(&poison.into_inner()),
        }
    }

    /// Flip the pointer to `next`, returning the snapshot it replaced.
    pub fn swap(&self, next: Arc<Snapshot>) -> Arc<Snapshot> {
        let mut guard = match self.slot.write() {
            Ok(guard) => guard,
            Err(poison) => poison.into_inner(),
        };
        std::mem::replace(&mut *guard, next)
    }
}

/// Everything the worker pool shares: the serving taxonomy and the
/// hot-swap cell. Construction and every swap re-verify the snapshot's
/// taxonomy digest, so the state can never pair rules with the wrong
/// hierarchy.
#[derive(Debug)]
pub struct ServeState {
    tax: Taxonomy,
    cell: SnapshotCell,
}

impl ServeState {
    /// A state serving `snapshot` over `tax`. Fails with
    /// [`ServeError::SnapshotTaxonomyMismatch`] when they disagree.
    pub fn new(tax: Taxonomy, snapshot: Arc<Snapshot>) -> Result<Self, ServeError> {
        let digest = tax.digest();
        if snapshot.meta().taxonomy_digest != digest {
            return Err(ServeError::SnapshotTaxonomyMismatch {
                snapshot: snapshot.meta().taxonomy_digest,
                taxonomy: digest,
            });
        }
        Ok(ServeState {
            tax,
            cell: SnapshotCell::new(snapshot),
        })
    }

    /// The serving taxonomy.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.tax
    }

    /// The live snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Answer one basket line against the live snapshot (the server's
    /// query path; also the bench harness's unit of work).
    pub fn answer(&self, line: &str) -> String {
        let snapshot = self.cell.load();
        answer_basket_line(&self.tax, &snapshot, line, false)
    }

    /// Install `next` as the live snapshot after digest verification.
    /// Returns `(old_version, new_version)`; on mismatch the old
    /// snapshot keeps serving.
    pub fn install(&self, next: Arc<Snapshot>) -> Result<(u64, u64), ServeError> {
        let digest = self.tax.digest();
        if next.meta().taxonomy_digest != digest {
            return Err(ServeError::SnapshotTaxonomyMismatch {
                snapshot: next.meta().taxonomy_digest,
                taxonomy: digest,
            });
        }
        let new_version = next.meta().snapshot_version;
        let old = self.cell.swap(next);
        Ok((old.meta().snapshot_version, new_version))
    }

    /// Load the snapshot at `path` and install it (the `'S'` request).
    pub fn install_from_path(&self, path: &str) -> Result<(u64, u64), ServeError> {
        let next = Snapshot::load(path, &self.tax)?;
        self.install(Arc::new(next))
    }
}

/// What one [`serve`] run did, merged across workers in spawn order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames answered (all tags).
    pub requests: u64,
    /// Query frames answered.
    pub queries: u64,
    /// Successful hot-swaps.
    pub swaps: u64,
    /// Error responses plus protocol/I/O failures.
    pub errors: u64,
    /// Worker threads the pool ran (all joined by return time).
    pub workers: usize,
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} requests ({} queries, {} swaps, {} errors) over {} connections on {} workers",
            self.requests, self.queries, self.swaps, self.errors, self.connections, self.workers
        )
    }
}

/// Pre-registered metric ids (registration hashes names; do it once, not
/// per request).
#[derive(Clone, Copy)]
struct ServeMetrics {
    connections: Option<MetricId>,
    requests: Option<MetricId>,
    queries: Option<MetricId>,
    swaps: Option<MetricId>,
    errors: Option<MetricId>,
    snapshot_version: Option<MetricId>,
    latency: [Option<MetricId>; 5],
}

/// Upper bounds (µs) of the latency histogram buckets; the last bucket
/// is unbounded.
const LATENCY_BOUNDS_US: [u128; 4] = [100, 1_000, 10_000, 100_000];
const LATENCY_NAMES: [&str; 5] = [
    "serve.latency_le_100us",
    "serve.latency_le_1ms",
    "serve.latency_le_10ms",
    "serve.latency_le_100ms",
    "serve.latency_gt_100ms",
];

impl ServeMetrics {
    fn register(obs: &Obs) -> Self {
        let mut latency = [None; 5];
        for (slot, name) in latency.iter_mut().zip(LATENCY_NAMES) {
            *slot = obs.metric(name, MetricKind::Counter);
        }
        ServeMetrics {
            connections: obs.metric("serve.connections", MetricKind::Counter),
            requests: obs.metric("serve.requests", MetricKind::Counter),
            queries: obs.metric("serve.queries", MetricKind::Counter),
            swaps: obs.metric("serve.swaps", MetricKind::Counter),
            errors: obs.metric("serve.errors", MetricKind::Counter),
            snapshot_version: obs.metric("serve.snapshot_version", MetricKind::Gauge),
            latency,
        }
    }

    fn observe_latency(&self, obs: &Obs, elapsed: Duration) {
        let us = elapsed.as_micros();
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        obs.count(self.latency[bucket], 1);
    }
}

/// Run the server until `token` cancels: accept on `listener`, fan
/// connections out to `workers` pooled threads, answer frames against
/// `state`, report counters and latency buckets through `obs`.
///
/// The accept loop runs on the calling thread and re-checks the token
/// every [`CTRL_POLL`]-ish interval (non-blocking accept + sleep);
/// workers block on the connection queue with `recv_timeout` and poll
/// the same token. All workers are scoped and joined before this
/// returns, in spawn order, with worker panics propagated.
pub fn serve(
    listener: TcpListener,
    state: &ServeState,
    workers: usize,
    token: &CancelToken,
    obs: &Obs,
) -> io::Result<ServeStats> {
    let workers = workers.max(1);
    let metrics = ServeMetrics::register(obs);
    if let Some(id) = metrics.snapshot_version {
        if let Some(m) = obs.metrics() {
            m.set(id, state.snapshot().meta().snapshot_version);
        }
    }
    listener.set_nonblocking(true)?;

    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(workers * 2);
    let conn_rx = Mutex::new(conn_rx);

    let mut stats = ServeStats {
        workers,
        ..ServeStats::default()
    };
    std::thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let conn_rx = &conn_rx;
            handles.push(scope.spawn(move || worker_loop(conn_rx, state, token, obs, metrics)));
        }

        while !token.is_cancelled() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stats.connections += 1;
                    obs.count(metrics.connections, 1);
                    // Tiny frames dominate; don't batch them.
                    let _ = stream.set_nodelay(true);
                    if conn_tx.send(stream).is_err() {
                        // Every worker exited (only possible via panic);
                        // joining below will propagate it.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(CTRL_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. a connection reset
                    // before accept); stay up.
                    stats.errors += 1;
                    obs.count(metrics.errors, 1);
                    std::thread::sleep(CTRL_POLL);
                }
            }
        }

        // Drain: no new connections; workers finish in-flight requests,
        // drop queued connections, and exit.
        drop(conn_tx);
        for handle in handles {
            match handle.join() {
                Ok(ws) => {
                    stats.requests += ws.requests;
                    stats.queries += ws.queries;
                    stats.swaps += ws.swaps;
                    stats.errors += ws.errors;
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        Ok(())
    })?;
    obs.flush();
    Ok(stats)
}

#[derive(Clone, Copy, Debug, Default)]
struct WorkerStats {
    requests: u64,
    queries: u64,
    swaps: u64,
    errors: u64,
}

/// One pooled worker: pop a connection, serve its frames until EOF or
/// drain, repeat. Blocked pops use `recv_timeout` at the control-poll
/// cadence so cancellation is never missed.
fn worker_loop(
    conn_rx: &Mutex<Receiver<TcpStream>>,
    state: &ServeState,
    token: &CancelToken,
    obs: &Obs,
    metrics: ServeMetrics,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    loop {
        if token.is_cancelled() {
            break;
        }
        let popped = {
            let guard = match conn_rx.lock() {
                Ok(guard) => guard,
                Err(poison) => poison.into_inner(),
            };
            guard.recv_timeout(CTRL_POLL)
        };
        match popped {
            Ok(stream) => handle_connection(stream, state, token, obs, metrics, &mut stats),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    stats
}

/// Serve one keep-alive connection: frames in, frames out, until the
/// peer hangs up, the protocol is violated, or the token drains us at a
/// frame boundary.
fn handle_connection(
    mut stream: TcpStream,
    state: &ServeState,
    token: &CancelToken,
    obs: &Obs,
    metrics: ServeMetrics,
    stats: &mut WorkerStats,
) {
    let _ = stream.set_read_timeout(Some(IO_POLL));
    let _ = stream.set_write_timeout(Some(IO_POLL));
    let mut frame = Vec::new();
    loop {
        match read_full(&mut stream, &mut frame, 4, token) {
            Ok(ReadOutcome::Full) => {}
            // Clean close: EOF or drain at a frame boundary.
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Truncated) | Err(_) => {
                stats.errors += 1;
                obs.count(metrics.errors, 1);
                return;
            }
        }
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        if len == 0 || len > MAX_FRAME {
            stats.errors += 1;
            obs.count(metrics.errors, 1);
            return;
        }
        match read_full(&mut stream, &mut frame, len as usize, token) {
            Ok(ReadOutcome::Full) => {}
            _ => {
                stats.errors += 1;
                obs.count(metrics.errors, 1);
                return;
            }
        }

        let started = Instant::now();
        let (ok, body) = dispatch(&frame, state, obs, metrics, stats);
        stats.requests += 1;
        obs.count(metrics.requests, 1);
        metrics.observe_latency(obs, started.elapsed());
        if !ok {
            stats.errors += 1;
            obs.count(metrics.errors, 1);
        }

        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(1 + body.len() as u32).to_le_bytes());
        header[4] = if ok { b'+' } else { b'-' };
        if write_full(&mut stream, &header, body.as_bytes(), token).is_err() {
            stats.errors += 1;
            obs.count(metrics.errors, 1);
            return;
        }
        if token.is_cancelled() {
            return;
        }
    }
}

/// Answer one decoded request frame.
fn dispatch(
    frame: &[u8],
    state: &ServeState,
    obs: &Obs,
    metrics: ServeMetrics,
    stats: &mut WorkerStats,
) -> (bool, String) {
    match frame[0] {
        TAG_QUERY => match std::str::from_utf8(&frame[1..]) {
            Ok(line) => {
                stats.queries += 1;
                obs.count(metrics.queries, 1);
                (true, state.answer(line))
            }
            Err(_) => (false, "query is not UTF-8\n".to_owned()),
        },
        TAG_SWAP => match std::str::from_utf8(&frame[1..]) {
            Ok(path) => match state.install_from_path(path.trim()) {
                Ok((old, new)) => {
                    stats.swaps += 1;
                    obs.count(metrics.swaps, 1);
                    if let (Some(id), Some(m)) = (metrics.snapshot_version, obs.metrics()) {
                        m.set(id, new);
                    }
                    (true, format!("swapped snapshot version {old} -> {new}\n"))
                }
                Err(e) => (false, format!("swap refused: {e}\n")),
            },
            Err(_) => (false, "swap path is not UTF-8\n".to_owned()),
        },
        TAG_PING => (
            true,
            format!(
                "pong snapshot {}\n",
                state.snapshot().meta().snapshot_version
            ),
        ),
        other => (false, format!("unknown request tag {:#04x}\n", other)),
    }
}

enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// Clean end: EOF (or drain) before the first byte.
    Closed,
    /// EOF mid-buffer — the peer violated the framing.
    Truncated,
}

/// Replace `buf` with the next `len` bytes of `stream`, polling the token
/// on every socket timeout. The buffer is zero-filled only as bytes
/// arrive, [`READ_STEP`] at a time. Before the first byte, cancellation
/// closes cleanly; mid-buffer it grants [`DRAIN_GRACE_POLLS`] more rounds
/// so an in-flight frame can finish, then gives up — drain never hinges
/// on a stalled client.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    len: usize,
    token: &CancelToken,
) -> io::Result<ReadOutcome> {
    buf.clear();
    let mut off = 0;
    let mut polls_after_cancel = 0u32;
    while off < len {
        if off == buf.len() {
            buf.resize(len.min(off + READ_STEP), 0);
        }
        match stream.read(&mut buf[off..]) {
            Ok(0) => {
                return Ok(if off == 0 {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Truncated
                })
            }
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if token.is_cancelled() {
                    if off == 0 {
                        return Ok(ReadOutcome::Closed);
                    }
                    polls_after_cancel += 1;
                    if polls_after_cancel > DRAIN_GRACE_POLLS {
                        return token.check().map(|()| ReadOutcome::Closed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Write `head` then `body`, vectored while any of `head` is left, polling
/// the token on timeouts with the same post-cancel grace as
/// [`read_full`].
fn write_full(
    stream: &mut TcpStream,
    head: &[u8],
    body: &[u8],
    token: &CancelToken,
) -> io::Result<()> {
    let mut off = 0;
    let mut polls_after_cancel = 0u32;
    while off < head.len() + body.len() {
        let written = if off < head.len() {
            stream.write_vectored(&[IoSlice::new(&head[off..]), IoSlice::new(body)])
        } else {
            stream.write(&body[off - head.len()..])
        };
        match written {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if token.is_cancelled() {
                    polls_after_cancel += 1;
                    if polls_after_cancel > DRAIN_GRACE_POLLS {
                        return token.check();
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Client-side round trip: send one `tag` frame with `body`, read the
/// response frame. Returns `(ok, body)` where `ok` mirrors the `+`/`-`
/// status byte. Blocking (no timeouts); callers own deadline policy via
/// socket options.
pub fn request(stream: &mut TcpStream, tag: u8, body: &[u8]) -> io::Result<(bool, String)> {
    let mut frame = Vec::with_capacity(5 + body.len());
    frame.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;

    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response frame claims {len} bytes"),
        ));
    }
    let mut status = [0u8; 1];
    stream.read_exact(&mut status)?;
    let want = len as usize - 1;
    let mut body = Vec::with_capacity(want);
    stream.take(want as u64).read_to_end(&mut body)?;
    if body.len() < want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "response frame ended after {} of {want} body bytes",
                body.len()
            ),
        ));
    }
    // The body buffer becomes the string; only invalid UTF-8 is copied.
    let body = String::from_utf8(body)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    Ok((status[0] == b'+', body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc::RuleSetExport;
    use negassoc_taxonomy::TaxonomyBuilder;
    use negassoc_txdb::ctrl::CancelReason;

    /// Answer each request frame read from one connection with the next
    /// of `replies` (status byte and body bytes), raw.
    fn scripted_peer(listener: &TcpListener, replies: &[&[u8]]) {
        let (mut stream, _) = listener.accept().expect("accept");
        for reply in replies {
            let mut len = [0u8; 4];
            stream.read_exact(&mut len).expect("request length");
            let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
            stream.read_exact(&mut frame).expect("request body");
            let mut out = (reply.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(reply);
            stream.write_all(&out).expect("reply");
        }
    }

    #[test]
    fn request_reads_status_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let replies: [&[u8]; 4] = [b"+pong\n", b"-refused\n", b"+", b"-a\xffb\xc3"];
        std::thread::scope(|s| {
            s.spawn(|| scripted_peer(&listener, &replies));
            let mut client = TcpStream::connect(addr).expect("connect");
            let ask = |c: &mut TcpStream| request(c, TAG_PING, b"").expect("round trip");
            assert_eq!(ask(&mut client), (true, "pong\n".to_owned()));
            assert_eq!(ask(&mut client), (false, "refused\n".to_owned()));
            assert_eq!(ask(&mut client), (true, String::new()));
            // Invalid UTF-8 still comes back, lossily.
            assert_eq!(ask(&mut client), (false, "a\u{fffd}b\u{fffd}".to_owned()));
        });
    }

    #[test]
    fn request_reports_a_short_body_as_unexpected_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|s| {
            s.spawn(|| {
                // Announce a 100-byte reply, send 6 of them, hang up.
                let (mut stream, _) = listener.accept().expect("accept");
                let mut request = [0u8; 5];
                stream.read_exact(&mut request).expect("request");
                stream.write_all(&100u32.to_le_bytes()).expect("length");
                stream.write_all(b"+short").expect("reply");
            });
            let mut client = TcpStream::connect(addr).expect("connect");
            let err = request(&mut client, TAG_PING, b"").expect_err("short body");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        });
    }

    #[test]
    fn write_full_delivers_head_and_body_across_partial_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let head = *b"head!";
        let body: Vec<u8> = (0..4u32 << 20).map(|i| (i % 251) as u8).collect();
        std::thread::scope(|s| {
            // A slow reader, so the writer's timed-out writes come back
            // partial and it must resume mid-buffer.
            let reader = s.spawn(|| {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut got = Vec::new();
                let mut chunk = [0u8; 64 << 10];
                loop {
                    std::thread::sleep(Duration::from_millis(1));
                    match stream.read(&mut chunk).expect("read") {
                        0 => return got,
                        n => got.extend_from_slice(&chunk[..n]),
                    }
                }
            });
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_write_timeout(Some(Duration::from_millis(5)))
                .expect("write timeout");
            write_full(&mut stream, &head, &body, &CancelToken::new()).expect("write");
            drop(stream);
            let got = reader.join().expect("reader");
            assert_eq!(got.len(), head.len() + body.len());
            assert!(got[..5] == head && got[5..] == body[..]);
        });
    }

    /// A state serving an empty snapshot over a one-item taxonomy.
    fn empty_state() -> ServeState {
        let mut tb = TaxonomyBuilder::new();
        tb.add_root("snacks");
        let tax = tb.build();
        let export = RuleSetExport {
            taxonomy_digest: tax.digest(),
            num_transactions: 0,
            min_support_count: 1,
            min_ri: 0.5,
            min_confidence: 0.5,
            positive: Vec::new(),
            negative: Vec::new(),
        };
        let snapshot = Snapshot::from_export(&export, &tax, 1).expect("snapshot");
        ServeState::new(tax, Arc::new(snapshot)).expect("state")
    }

    #[test]
    fn a_truncated_maximal_request_is_one_error_and_the_server_stays_up() {
        let state = empty_state();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let token = CancelToken::new();
        let obs = Obs::disabled();
        let stats = std::thread::scope(|s| {
            let server = s.spawn(|| serve(listener, &state, 1, &token, &obs).expect("serve"));
            {
                // Announce a maximal frame, send 10 of its bytes, hang up.
                let mut peer = TcpStream::connect(addr).expect("connect");
                peer.write_all(&MAX_FRAME.to_le_bytes()).expect("length");
                peer.write_all(&[TAG_QUERY; 10]).expect("first bytes");
            }
            let mut client = TcpStream::connect(addr).expect("connect");
            let pong = request(&mut client, TAG_PING, b"").expect("ping");
            assert_eq!(pong, (true, "pong snapshot 1\n".to_owned()));
            drop(client);
            token.cancel(CancelReason::UserInterrupt);
            server.join().expect("server")
        });
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn request_refuses_an_empty_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|s| {
            s.spawn(|| scripted_peer(&listener, &[b""]));
            let mut client = TcpStream::connect(addr).expect("connect");
            let err = request(&mut client, TAG_PING, b"").expect_err("empty frame");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        });
    }
}
