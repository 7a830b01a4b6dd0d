//! Shared load-driving core for the serving benchmarks.
//!
//! The `loadgen` binary (driving an external server) and the `serve`
//! suite artifact (driving an in-process one) measure the same thing:
//! what a fleet of keep-alive connections sees. Both route through
//! [`drive`] so the request schedule, latency accounting, and outcome
//! taxonomy cannot drift apart between the two entry points.
//!
//! The outcome taxonomy matters for honest numbers:
//!
//! * `ok` (200) — served; only these record latency and count toward
//!   throughput;
//! * `shed` (429) — admission control turned the request away before it
//!   touched the batch queue;
//! * `backpressure` (503) — the bounded batch queue was full;
//! * `timeouts` (504) and `io_errors`/`other_status` — real failures.
//!
//! Shed and backpressure responses the [`RetryingClient`] absorbed on
//! retry never surface here (the eventual 200 is what the caller saw);
//! the tallies count *final* outcomes, with `retries` recording how much
//! absorbing happened.
//!
//! With a non-zero [`LoadConfig::interval`] the run is open-loop: every
//! connection's intended-send grid hangs off one shared anchor captured
//! before any thread spawns (`OpenLoopSchedule`), and latency counts
//! from the intended time — coordinated-omission-honest by construction.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use xbar_obs::json::Json;
use xbar_obs::LogHistogram;
use xbar_serve::base64::encode_f32;
use xbar_serve::{RetryPolicy, RetryingClient};

/// Sub-bucket precision of the latency histograms: 2^5 sub-buckets per
/// power of two, ~3% relative error on reported quantiles.
pub const LATENCY_SUB_BITS: u32 = 5;

/// Stack reservation per connection thread. The driver threads only
/// format a request body and block on a socket, so a small stack keeps a
/// thousand-connection fleet cheap in reserved memory.
pub const CONN_STACK_BYTES: usize = 256 * 1024;

/// One load run's shape: where to aim and how hard.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent keep-alive connections (one thread each).
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_connection: usize,
    /// Flat input length of the classify body.
    pub input_len: usize,
    /// Zero = closed-loop (next request after the previous response);
    /// non-zero = open-loop with one intended send per interval per
    /// connection, latency measured from the intended time.
    pub interval: Duration,
    /// Send bodies as JSON float arrays instead of base64.
    pub as_json_floats: bool,
    /// Master seed; each connection derives its own retry-jitter seed.
    pub seed: u64,
    /// Per-request socket timeout.
    pub timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            connections: 32,
            requests_per_connection: 25,
            input_len: 3 * 32 * 32,
            interval: Duration::ZERO,
            as_json_floats: false,
            seed: 42,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Outcome tallies and served-request latencies of a load run.
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// Latency (µs) of served requests, from the intended send time when
    /// open-loop.
    pub latency: LogHistogram,
    /// Requests answered 200.
    pub ok: u64,
    /// Requests finally answered 429 (admission control).
    pub shed: u64,
    /// Requests finally answered 503 (batch-queue backpressure).
    pub backpressure: u64,
    /// Requests answered 504.
    pub timeouts: u64,
    /// Requests answered any other non-200 status.
    pub other_status: u64,
    /// Requests that failed at the socket level even after retries.
    pub io_errors: u64,
    /// Retry attempts the clients absorbed (connection errors, 429, 503).
    pub retries: u64,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
}

impl Default for LoadStats {
    fn default() -> Self {
        LoadStats {
            latency: LogHistogram::new(LATENCY_SUB_BITS),
            ok: 0,
            shed: 0,
            backpressure: 0,
            timeouts: 0,
            other_status: 0,
            io_errors: 0,
            retries: 0,
            wall_s: 0.0,
        }
    }
}

impl LoadStats {
    /// Total requests that reached a final outcome.
    pub fn total(&self) -> u64 {
        self.ok + self.shed + self.backpressure + self.timeouts + self.other_status + self.io_errors
    }

    /// Requests lost to something other than explicit overload — the
    /// "zero dropped errors" acceptance count.
    pub fn dropped(&self) -> u64 {
        self.timeouts + self.other_status + self.io_errors
    }

    /// Served requests per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        self.ok as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    /// Fraction of final outcomes that were explicit overload (429 or
    /// 503) — what the server turned away rather than served or lost.
    pub fn shed_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.shed + self.backpressure) as f64 / total as f64
        }
    }

    /// Latency quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.latency.quantile(q)
    }

    fn absorb(&mut self, other: LoadStats) {
        self.latency
            .merge(&other.latency)
            .expect("same sub-bucket precision");
        self.ok += other.ok;
        self.shed += other.shed;
        self.backpressure += other.backpressure;
        self.timeouts += other.timeouts;
        self.other_status += other.other_status;
        self.io_errors += other.io_errors;
        self.retries += other.retries;
    }
}

/// Deterministic pseudo-image: contents do not matter for load, but
/// varying them defeats any accidental caching.
pub fn load_image(len: usize, seed: u64) -> Vec<f32> {
    // The seed is pre-mixed with a full-width odd multiplier so adjacent
    // seeds land in the surviving high bits of the hash — a bare additive
    // seed only perturbs bits the `>> 33` discards.
    let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|i| {
            let x = (i as u64 ^ mixed)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            (x >> 33) as f32 / u32::MAX as f32 - 0.25
        })
        .collect()
}

fn body_of(img: &[f32], as_json_floats: bool) -> String {
    if as_json_floats {
        let values: Vec<String> = img.iter().map(|v| format!("{v}")).collect();
        format!("{{\"image\":[{}]}}", values.join(","))
    } else {
        format!("{{\"image_b64\":\"{}\"}}", encode_f32(img))
    }
}

/// The immovable intended-send-time grid of one open-loop connection.
///
/// Coordinated-omission-honest load generation measures latency from the
/// *intended* send time of a request, not from whenever the generator got
/// around to sending it. That only works if the grid is immovable: one
/// anchor fixed before any connection starts, and request `k`'s intended
/// time a pure function `anchor + k·interval` of it. A grid re-anchored per
/// connection thread (or nudged forward when a connection errors and
/// retries) silently forgives the very stalls the open-loop mode exists to
/// charge.
///
/// Construct it from an anchor captured **once, before spawning any
/// connection threads**, so every connection shares the same grid and a
/// slow thread spawn, handshake, connection error, or retry storm cannot
/// re-anchor the schedule.
#[derive(Debug, Clone, Copy)]
struct OpenLoopSchedule {
    anchor: Instant,
    interval: Duration,
}

impl OpenLoopSchedule {
    /// A grid anchored at `anchor` with one intended send per `interval`.
    fn new(anchor: Instant, interval: Duration) -> Self {
        Self { anchor, interval }
    }

    /// The offset of request `req` (0-based) from the anchor — exactly
    /// `req · interval`, whatever happened to earlier requests.
    fn offset(&self, req: usize) -> Duration {
        Duration::from_nanos(
            u64::try_from(self.interval.as_nanos())
                .unwrap_or(u64::MAX)
                .saturating_mul(req as u64),
        )
    }

    /// The intended send time of request `req` (0-based).
    fn intended(&self, req: usize) -> Instant {
        self.anchor + self.offset(req)
    }

    /// Blocks until `intended(req)` if it is still ahead, then returns the
    /// intended time — the timestamp latency must be measured from. When
    /// the generator has fallen behind schedule this returns immediately,
    /// still with the intended time, so the backlog is charged to the
    /// server rather than silently swallowed.
    fn wait_until_intended(&self, req: usize) -> Instant {
        let intended = self.intended(req);
        let now = Instant::now();
        if now < intended {
            std::thread::sleep(intended - now);
        }
        intended
    }
}

fn drive_connection(conn: usize, cfg: &LoadConfig, schedule: OpenLoopSchedule) -> LoadStats {
    let mut stats = LoadStats::default();
    // Retrying client: transient resets, 429 shed and 503 backpressure
    // are absorbed by capped exponential backoff (per-connection jitter
    // seed desynchronises the retry storms).
    let mut client = RetryingClient::new(
        &cfg.addr,
        cfg.timeout,
        RetryPolicy {
            seed: cfg.seed ^ conn as u64,
            ..RetryPolicy::default()
        },
    );
    let open_loop = !cfg.interval.is_zero();
    for req in 0..cfg.requests_per_connection {
        let img = load_image(cfg.input_len, cfg.seed ^ ((conn * 1_000_003 + req) as u64));
        let body = body_of(&img, cfg.as_json_floats);
        // Open-loop: latency counts from the *intended* send time, so
        // falling behind schedule is charged to the server, not hidden
        // by it (coordinated omission).
        let begin = if open_loop {
            schedule.wait_until_intended(req)
        } else {
            Instant::now()
        };
        match client.post_json("/v1/classify", &body) {
            Ok(response) => match response.status {
                200 => {
                    stats.ok += 1;
                    stats.latency.record(begin.elapsed().as_micros() as u64);
                }
                429 => stats.shed += 1,
                503 => stats.backpressure += 1,
                504 => stats.timeouts += 1,
                status => {
                    eprintln!(
                        "connection {conn}: unexpected HTTP {status}: {}",
                        response.text()
                    );
                    stats.other_status += 1;
                }
            },
            Err(e) => {
                // Already retried with backoff inside the client; a
                // surfaced error is a real failure. Cap the noise: a
                // thousand broken connections need eight examples, not
                // a thousand.
                if conn < 8 {
                    eprintln!("connection {conn}: request failed: {e}");
                }
                stats.io_errors += 1;
            }
        }
    }
    stats.retries = client.retries();
    stats
}

/// Runs the configured load against `cfg.addr` and returns the merged
/// tallies. One thread per connection; the open-loop anchor is captured
/// once, here, before any thread spawns, so every intended-time grid is
/// a pure function of `(anchor, connection, request index)`. Each
/// connection's grid is phase-offset by `interval · conn / connections`:
/// the aggregate arrival rate is unchanged but spread evenly across the
/// interval instead of landing as one synchronized burst per tick — the
/// burst would measure the fleet's own thundering herd, not the server.
/// The phase is a fixed function of the connection index, so the grid
/// stays immovable and coordinated-omission-honest.
pub fn drive(cfg: &LoadConfig) -> LoadStats {
    let started = Instant::now();
    let cfg = Arc::new(cfg.clone());
    let workers: Vec<_> = (0..cfg.connections)
        .map(|conn| {
            let cfg = Arc::clone(&cfg);
            let phase = cfg
                .interval
                .mul_f64(conn as f64 / cfg.connections.max(1) as f64);
            let schedule = OpenLoopSchedule::new(started + phase, cfg.interval);
            thread::Builder::new()
                .name(format!("loadgen-{conn}"))
                .stack_size(CONN_STACK_BYTES)
                .spawn(move || drive_connection(conn, &cfg, schedule))
                .expect("spawn load-connection thread")
        })
        .collect();
    let mut all = LoadStats::default();
    for worker in workers {
        all.absorb(worker.join().expect("load thread panicked"));
    }
    all.wall_s = started.elapsed().as_secs_f64();
    all
}

/// Writes a latency histogram as JSONL: one header object carrying the
/// scalar stats and the resolution, then one `{"le_us", "count"}` object
/// per non-empty bucket. Exactly the [`LogHistogram::restore`] inputs,
/// so the file round-trips back into a histogram.
pub fn write_histogram_jsonl(path: &Path, hist: &LogHistogram) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let header = Json::Obj(vec![
        ("kind".into(), Json::Str("latency_histogram_us".to_string())),
        ("sub_bits".into(), Json::Num(hist.sub_bits() as f64)),
        ("count".into(), Json::Num(hist.count() as f64)),
        ("sum_us".into(), Json::Num(hist.sum() as f64)),
        (
            "min_us".into(),
            Json::Num(if hist.is_empty() {
                0.0
            } else {
                hist.min() as f64
            }),
        ),
        ("max_us".into(), Json::Num(hist.max() as f64)),
        ("p50_us".into(), Json::Num(hist.quantile(0.50) as f64)),
        ("p99_us".into(), Json::Num(hist.quantile(0.99) as f64)),
    ]);
    let mut text = header.to_json() + "\n";
    for (edge, count) in hist.nonzero_buckets() {
        let line = Json::Obj(vec![
            ("le_us".into(), Json::Num(edge as f64)),
            ("count".into(), Json::Num(count as f64)),
        ]);
        text.push_str(&line.to_json());
        text.push('\n');
    }
    let mut file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    file.write_all(text.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn stats_rates_are_consistent() {
        let mut stats = LoadStats {
            ok: 80,
            shed: 15,
            backpressure: 5,
            wall_s: 2.0,
            ..LoadStats::default()
        };
        for us in [100u64, 200, 400] {
            stats.latency.record(us);
        }
        assert_eq!(stats.total(), 100);
        assert_eq!(stats.dropped(), 0);
        assert!((stats.throughput_rps() - 40.0).abs() < 1e-9);
        assert!((stats.shed_rate() - 0.20).abs() < 1e-9);
        assert!(stats.quantile_us(1.0) >= 400);
        let empty = LoadStats::default();
        assert_eq!(empty.shed_rate(), 0.0);
    }

    #[test]
    fn load_images_are_deterministic_and_distinct() {
        let a = load_image(64, 7);
        assert_eq!(a, load_image(64, 7));
        assert_ne!(a, load_image(64, 8), "seed must vary the contents");
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn histogram_jsonl_round_trips() {
        let mut hist = LogHistogram::new(LATENCY_SUB_BITS);
        for us in [90u64, 450, 450, 12_000, 300_000] {
            hist.record(us);
        }
        let dir = std::env::temp_dir().join(format!("xbar_loadcore_{}", std::process::id()));
        let path = dir.join("hist.jsonl");
        write_histogram_jsonl(&path, &hist).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("kind").and_then(Json::as_str),
            Some("latency_histogram_us")
        );
        assert_eq!(header.get("count").and_then(Json::as_u64), Some(5));
        let buckets: Vec<(u64, u64)> = lines
            .map(|l| {
                let j = Json::parse(l).unwrap();
                (
                    j.get("le_us").and_then(Json::as_u64).unwrap(),
                    j.get("count").and_then(Json::as_u64).unwrap(),
                )
            })
            .collect();
        let restored = LogHistogram::restore(
            header.get("sub_bits").and_then(Json::as_u64).unwrap() as u32,
            &buckets,
            header.get("sum_us").and_then(Json::as_u64).unwrap() as u128,
            header.get("min_us").and_then(Json::as_u64).unwrap(),
            header.get("max_us").and_then(Json::as_u64).unwrap(),
        )
        .unwrap();
        assert_eq!(restored, hist);
    }

    #[test]
    fn grid_is_a_pure_function_of_the_anchor() {
        let anchor = Instant::now();
        let s = OpenLoopSchedule::new(anchor, Duration::from_millis(7));
        for req in [0usize, 1, 2, 10, 1000] {
            assert_eq!(s.offset(req), Duration::from_millis(7 * req as u64));
            assert_eq!(
                s.intended(req),
                anchor + Duration::from_millis(7 * req as u64)
            );
        }
    }

    #[test]
    fn waiting_behind_schedule_returns_the_past_intended_time() {
        let anchor = Instant::now() - Duration::from_secs(1);
        let s = OpenLoopSchedule::new(anchor, Duration::from_millis(10));
        let begin = Instant::now();
        let intended = s.wait_until_intended(3);
        assert!(
            begin.elapsed() < Duration::from_millis(500),
            "must not sleep"
        );
        assert_eq!(intended, anchor + Duration::from_millis(30));
        assert!(intended < Instant::now());
    }

    /// A listener that accepts each connection and slams it shut without
    /// answering — every request the client sends errors (after its retry
    /// backoff). The intended-time grid must come out of such a run exactly
    /// as it went in: failures advance the request index, never the anchor.
    #[test]
    fn flaky_listener_does_not_move_the_intended_grid() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                listener.set_nonblocking(true).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((mut conn, _)) => {
                            // Read a little so the client commits to the
                            // request, then drop the socket mid-exchange.
                            let mut buf = [0u8; 64];
                            let _ = conn.read(&mut buf);
                            drop(conn);
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            })
        };

        let interval = Duration::from_millis(5);
        // Anchor captured once, before the "connection" does any work —
        // the contract loadgen's threads follow.
        let anchor = Instant::now();
        let schedule = OpenLoopSchedule::new(anchor, interval);
        let mut client = RetryingClient::new(
            &addr,
            Duration::from_secs(2),
            RetryPolicy {
                max_attempts: 2,
                base_delay: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
        );
        let requests = 4usize;
        let mut failures = 0usize;
        let mut intended_times = Vec::with_capacity(requests);
        for req in 0..requests {
            let begin = schedule.wait_until_intended(req);
            intended_times.push(begin);
            if client.post_json("/v1/classify", "{}").is_err() {
                failures += 1;
            }
        }
        stop.store(true, Ordering::SeqCst);
        server.join().unwrap();

        assert!(failures > 0, "the flaky listener must fail requests");
        // The grid is untouched by those failures: every recorded intended
        // time still sits exactly req·interval past the shared anchor.
        for (req, &t) in intended_times.iter().enumerate() {
            assert_eq!(
                t - anchor,
                Duration::from_millis(5 * req as u64),
                "request {req} re-anchored the schedule"
            );
            assert_eq!(t, schedule.intended(req));
        }
    }
}
