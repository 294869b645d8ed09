//! The serving half of a run: `negassoc_serve::serve` on loopback, one
//! closed-loop query connection and one hot-swap connection, both driven
//! through `negassoc_serve::request`.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Res;
use negassoc::obs::Obs;
use negassoc::{CancelReason, CancelToken};
use negassoc_serve::engine::render_matches;
use negassoc_serve::server::{TAG_PING, TAG_QUERY, TAG_SWAP};
use negassoc_serve::{answer_basket_line, request, serve, ServeState, ServeStats, Snapshot};
use negassoc_taxonomy::{ItemId, Taxonomy};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads: the CLI's default.
pub const WORKERS: usize = 4;
/// Client connections: one query, one swap. At most `nproc` client
/// threads and at most [`WORKERS`] connections, because a pooled worker
/// holds a keep-alive connection until EOF.
pub const CONNECTIONS: usize = 2;
/// Length of the serving window that follows each warm mine cycle.
pub const WINDOW: Duration = Duration::from_millis(1_000);
/// The start of every serving window whose round trips are checked but
/// not timed: it follows a mine cycle, whose data has just evicted the
/// server's from the caches, which a server running alone never sees,
/// and it carries the window's one hot swap (see [`Clients::window`]).
pub const WARMUP: Duration = Duration::from_millis(50);
/// In a traced run, one query in this many is also written as spans.
const SPAN_EVERY: u64 = 64;

/// The two snapshot versions a run alternates between.
pub struct Versions {
    /// NARS files of versions 1 and 2.
    pub paths: [PathBuf; 2],
    /// The same snapshots loaded, for the oracle and the traced layers.
    pub snaps: [Arc<Snapshot>; 2],
}

impl Versions {
    fn get(&self, version: u64) -> Option<&Arc<Snapshot>> {
        self.snaps
            .iter()
            .find(|s| s.meta().snapshot_version == version)
    }
}

/// Cancels the server when the client side is done — or unwinds.
struct CancelOnDrop<'a>(&'a CancelToken);

impl Drop for CancelOnDrop<'_> {
    fn drop(&mut self) {
        self.0.cancel(CancelReason::UserInterrupt);
    }
}

/// Serve `state` on a free loopback port while `f` runs against it, then
/// drain the server and return what `f` returned with the server's stats.
pub fn with_server<R>(
    state: &ServeState,
    f: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<(R, ServeStats)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let token = CancelToken::new();
    let obs = Obs::disabled();
    std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, state, WORKERS, &token, &obs));
        let out = {
            let _cancel = CancelOnDrop(&token);
            f(addr)
        };
        let stats = server
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        Ok((out, stats))
    })
}

/// Open a client connection.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Ping until answered; returns the live snapshot version.
pub fn ping(stream: &mut TcpStream) -> Res<u64> {
    let (ok, body) = request(stream, TAG_PING, b"")?;
    let version = body
        .trim()
        .strip_prefix("pong snapshot ")
        .and_then(|v| v.parse().ok());
    match (ok, version) {
        (true, Some(v)) => Ok(v),
        _ => Err(format!("bad ping answer {body:?}").into()),
    }
}

/// Per-query layer samples of a traced serving phase (µs, except the
/// counts).
#[derive(Default)]
pub struct QueryLayers {
    pub resolve_us: Vec<f64>,
    pub expand_us: Vec<f64>,
    pub match_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub transport_us: Vec<f64>,
    pub expanded_items: Vec<f64>,
    pub matches: Vec<f64>,
    pub answer_bytes: Vec<f64>,
}

/// What the serving windows of one run measured and checked.
pub struct ServePhase {
    /// Round trip of every timed query (µs; +∞ for a failed one), per
    /// window.
    pub windows: Vec<Vec<f64>>,
    /// Time spent in serving windows after their warm-up.
    pub wall: Duration,
    /// Queries sent, warm-up included.
    pub queries: u64,
    /// Queries that failed: I/O errors, refused frames, answers that
    /// differ from the oracle.
    pub query_failures: u64,
    /// Round trip of every swap (ms).
    pub swap_ms: Vec<f64>,
    /// Swaps refused, failed, or naming the wrong version pair.
    pub swap_failures: u64,
    /// Distinct (basket, version) answers checked against the oracle.
    pub oracle_checked: usize,
    /// The server's own counters after drain.
    pub stats: ServeStats,
    /// Traced runs only.
    pub layers: Option<QueryLayers>,
}

impl ServePhase {
    /// Timed queries.
    pub fn timed(&self) -> u64 {
        self.windows.iter().map(|w| w.len() as u64).sum()
    }

    /// Median over windows of each window's `p` percentile (µs).
    pub fn windowed(&self, p: f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, p))
            .collect();
        median(&per)
    }
}

/// The digest of every distinct answer served for one (basket, version),
/// with how many queries received it. Digests, not bodies, so the
/// benchmark's own memory stays small next to the program's.
type Seen = HashMap<(usize, u64), Vec<(Digest, u64)>>;

/// A 128-bit digest of an answer's bytes.
type Digest = (u64, u64, usize);

/// Two independent multiply-rotate lanes over 8-byte words, plus the
/// length. Each step is a bijection of a lane for a fixed word and of the
/// word for a fixed lane, so answers that differ in a single word never
/// collide; it is fast enough to run on every answer inside the loop.
fn digest(bytes: &[u8]) -> Digest {
    const K1: u64 = 0x9E37_79B9_7F4A_7C15;
    const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let (mut a, mut b) = (0x243F_6A88_85A3_08D3u64, 0x1319_8A2E_0370_7344u64);
    let mut words = bytes.chunks_exact(8);
    for chunk in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(chunk);
        let w = u64::from_le_bytes(w);
        a = (a ^ w).rotate_left(29).wrapping_mul(K1);
        b = (b ^ w).rotate_left(41).wrapping_mul(K2);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let w = u64::from_le_bytes(tail);
    a = (a ^ w).rotate_left(29).wrapping_mul(K1);
    b = (b ^ w).rotate_left(41).wrapping_mul(K2);
    (a, b, bytes.len())
}

/// Knobs of one run's serving.
pub struct Plan<'a> {
    pub baskets: &'a [String],
    pub traced: bool,
    /// Change the last character of this query's answer before it is
    /// checked (the self-test's proof that a wrong answer is caught).
    pub corrupt_query: Option<u64>,
}

/// The client side of a live server: the query connection and the swap
/// connection, and everything they have recorded.
pub struct Clients<'a> {
    tax: &'a Taxonomy,
    versions: &'a Versions,
    plan: &'a Plan<'a>,
    query: TcpStream,
    swap: TcpStream,
    /// Index into `versions` of the snapshot being served.
    live: usize,
    /// Queries sent so far.
    sent: u64,
    seen: Seen,
    phase: ServePhase,
}

/// Serve version 1 of `versions` on loopback, connect both clients, and
/// let `f` run serving windows (interleaved with whatever else it does);
/// then drain the server and check every answer against the oracle.
pub fn session<R>(
    tax: &Taxonomy,
    versions: &Versions,
    plan: &Plan,
    f: impl FnOnce(&mut Clients) -> Res<R>,
) -> Res<(R, ServePhase)> {
    let state = ServeState::new(tax.clone(), Arc::clone(&versions.snaps[0]))?;
    let (outcome, stats) = with_server(&state, |addr| -> Res<_> {
        let mut query = connect(addr)?;
        let mut swap = connect(addr)?;
        ping(&mut query)?;
        ping(&mut swap)?;
        let mut clients = Clients {
            tax,
            versions,
            plan,
            query,
            swap,
            live: 0,
            sent: 0,
            seen: Seen::new(),
            phase: ServePhase {
                windows: Vec::new(),
                wall: Duration::ZERO,
                queries: 0,
                query_failures: 0,
                swap_ms: Vec::new(),
                swap_failures: 0,
                oracle_checked: 0,
                stats: ServeStats::default(),
                layers: plan.traced.then(QueryLayers::default),
            },
        };
        let out = f(&mut clients)?;
        // Closing both connections lets the pooled workers drain.
        Ok((out, clients.seen, clients.phase))
    })?;
    let (out, seen, mut phase) = outcome?;
    phase.stats = stats;

    // The clock has stopped: every distinct answer must equal the
    // full-scan oracle's bytes for the version its first line names.
    for (&(basket, version), bodies) in &seen {
        let want = versions.get(version).map(|snap| {
            digest(answer_basket_line(tax, snap, &plan.baskets[basket], true).as_bytes())
        });
        for (got, count) in bodies {
            if want != Some(*got) {
                phase.query_failures += count;
            }
        }
    }
    phase.oracle_checked = seen.len();
    Ok((out, phase))
}

impl Clients<'_> {
    /// One serving window: closed-loop queries for [`WINDOW`], with one
    /// hot swap on the swap connection as the window opens. The cadence is
    /// the pipeline's own: each round's mine cycle is followed by one new
    /// snapshot going live. The swap (a few ms) meets the warm-up queries,
    /// so live traffic flows beside it but the timed percentiles read the
    /// serve path, not how many swaps a window holds.
    pub fn window(&mut self, tracer: &mut Tracer) {
        let (swap, live, versions) = (&mut self.swap, &mut self.live, self.versions);
        let swapped = std::thread::scope(|s| {
            let swapper = s.spawn(|| swap_once(swap, versions, live));
            let round_trips = query_window(
                &mut self.query,
                self.tax,
                versions,
                self.plan,
                &mut self.sent,
                &mut self.seen,
                &mut self.phase,
                tracer,
            );
            self.phase.windows.push(round_trips);
            swapper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        match swapped {
            Some(ms) => self.phase.swap_ms.push(ms),
            None => self.phase.swap_failures += 1,
        }
    }
}

/// Closed-loop queries over the held-out baskets for one [`WINDOW`].
/// Returns the window's round trips (µs; +∞ for a failed query).
#[allow(clippy::too_many_arguments)]
fn query_window(
    stream: &mut TcpStream,
    tax: &Taxonomy,
    versions: &Versions,
    plan: &Plan,
    sent: &mut u64,
    seen: &mut Seen,
    phase: &mut ServePhase,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let mut round_trips = Vec::new();
    let timed_from = Instant::now() + WARMUP;
    let deadline = Instant::now() + WINDOW;
    while Instant::now() < deadline {
        let i = *sent;
        *sent += 1;
        phase.queries += 1;
        let b = (i % plan.baskets.len() as u64) as usize;
        let basket = &plan.baskets[b];
        let start = Instant::now();
        let answer = request(stream, TAG_QUERY, basket.as_bytes());
        let done = Instant::now();
        let rtt_us = (done - start).as_secs_f64() * 1e6;
        let timed = start >= timed_from;
        let mut body = match answer {
            Ok((true, body)) => body,
            Ok((false, _)) | Err(_) => {
                phase.query_failures += 1;
                if timed {
                    round_trips.push(f64::INFINITY);
                }
                if answer.is_err() {
                    // The connection is gone; nothing more can be sent.
                    break;
                }
                continue;
            }
        };
        if timed {
            round_trips.push(rtt_us);
        }
        if plan.corrupt_query == Some(i) {
            corrupt(&mut body);
        }
        let Some(v) = answer_version(&body) else {
            phase.query_failures += 1;
            continue;
        };
        if let (true, Some(layers), Some(snap)) = (timed, &mut phase.layers, versions.get(v)) {
            let span = i.is_multiple_of(SPAN_EVERY).then_some(i);
            in_process(tax, snap, basket, rtt_us, layers, tracer, span, start, done);
        }
        let got = digest(body.as_bytes());
        let bodies = seen.entry((b, v)).or_default();
        match bodies.iter_mut().find(|(known, _)| *known == got) {
            Some((_, count)) => *count += 1,
            None => bodies.push((got, 1)),
        }
    }
    phase.wall += Instant::now().saturating_duration_since(timed_from);
    round_trips
}

/// The snapshot version named on an answer's first line.
fn answer_version(body: &str) -> Option<u64> {
    body.strip_prefix("snapshot ")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

/// Change the last character of an answer.
fn corrupt(body: &mut String) {
    let last = body.pop();
    body.push(if last == Some('x') { 'y' } else { 'x' });
}

/// Answer `basket` in process through the engine's public calls, timing
/// each layer, and charge the rest of the round trip to transport.
#[allow(clippy::too_many_arguments)]
fn in_process(
    tax: &Taxonomy,
    snap: &Snapshot,
    basket: &str,
    rtt_us: f64,
    layers: &mut QueryLayers,
    tracer: &mut Tracer,
    span: Option<u64>,
    sent: Instant,
    done: Instant,
) {
    let t0 = Instant::now();
    let items: Vec<ItemId> = basket
        .split(',')
        .filter_map(|name| tax.id_of(name.trim()))
        .collect();
    let t1 = Instant::now();
    let expanded = tax.expand_with_ancestors(items.iter().copied());
    let t2 = Instant::now();
    let matches = snap.match_expanded(&expanded);
    let t3 = Instant::now();
    let body = black_box(render_matches(tax, snap, &items, &matches));
    let t4 = Instant::now();
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    layers.resolve_us.push(us(t0, t1));
    layers.expand_us.push(us(t1, t2));
    layers.match_us.push(us(t2, t3));
    layers.render_us.push(us(t3, t4));
    layers.transport_us.push((rtt_us - us(t0, t4)).max(0.0));
    layers.expanded_items.push(expanded.len() as f64);
    layers
        .matches
        .push((matches.positive.len() + matches.negative.len()) as f64);
    layers.answer_bytes.push(body.len() as f64);
    if let Some(req) = span {
        tracer.push("serve.round_trip", sent, done, None, req);
        let answer = tracer.push("serve.answer_in_process", t0, t4, None, req);
        tracer.push("taxonomy.resolve", t0, t1, Some(answer), req);
        tracer.push("taxonomy.expand", t1, t2, Some(answer), req);
        tracer.push("serve.match", t2, t3, Some(answer), req);
        tracer.push("serve.render", t3, t4, Some(answer), req);
    }
}

/// Install the version that is not live. Returns the swap's round trip
/// (ms), or `None` for a failure: a refused swap, an I/O error, or a reply
/// naming the wrong version pair.
fn swap_once(stream: &mut TcpStream, versions: &Versions, live: &mut usize) -> Option<f64> {
    let next = 1 - *live;
    let path = versions.paths[next].to_string_lossy();
    let want = format!(
        "swapped snapshot version {} -> {}\n",
        versions.snaps[*live].meta().snapshot_version,
        versions.snaps[next].meta().snapshot_version
    );
    let sent = Instant::now();
    match request(stream, TAG_SWAP, path.as_bytes()) {
        Ok((true, body)) if body == want => {
            *live = next;
            Some(sent.elapsed().as_secs_f64() * 1e3)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_tell_answers_apart() {
        let a = "snapshot 1 basket [a + b] matched 1 positive, 0 negative\nP a => b sup 7\n";
        let mut b = a.to_owned();
        corrupt(&mut b);
        assert_ne!(digest(a.as_bytes()), digest(b.as_bytes()));
        // A changed byte in any word, or a changed length, changes it.
        for at in [0, 9, a.len() - 1] {
            let mut c = a.as_bytes().to_vec();
            c[at] ^= 1;
            assert_ne!(digest(a.as_bytes()), digest(&c), "byte {at}");
        }
        assert_ne!(digest(b"abc"), digest(b"abc\0"));
        assert_eq!(digest(a.as_bytes()), digest(a.to_owned().as_bytes()));
    }

    #[test]
    fn answer_version_reads_the_first_line() {
        assert_eq!(
            answer_version("snapshot 12 basket [x] matched 0 positive"),
            Some(12)
        );
        assert_eq!(answer_version("error: empty basket\n"), None);
    }
}
