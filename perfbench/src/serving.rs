//! The serving side of the benchmark: the server process, request bodies,
//! the closed-loop load generator, and the traced replays of request
//! decoding and of the served network layer by layer.

use crate::spans::{self_time_ns, Recorder};
use crate::stats::{mix, percentile, Outcomes, Percentile};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xbar_nn::{Layer, Mode, Sequential};
use xbar_obs::json::Json;
use xbar_serve::batcher::softmax;
use xbar_serve::{Client, ServeConfig, Server, TierModels};
use xbar_tensor::conv::{im2col, ConvGeom};
use xbar_tensor::Tensor;

/// Quick-scale VGG11 input: 3 × 32 × 32.
const INPUT_SHAPE: [usize; 3] = [3, 32, 32];
const INPUT_LEN: usize = 3 * 32 * 32;
const CLASSIFY: &str = "/v1/classify";
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// Pause before retrying a connection that could not be opened.
const RECONNECT_PAUSE: Duration = Duration::from_millis(10);

/// How a workload encodes images in `/v1/classify` bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFormat {
    /// `{"image": [floats]}`.
    FloatArray,
    /// `{"image_b64": "<little-endian f32 base64>"}`.
    Base64,
}

/// Pixel-like test images drawn from the seed: each value is a byte over
/// 256 minus one half, so it prints exactly in a handful of decimal digits
/// and survives the JSON float round trip bit for bit.
pub fn images(seed: u64, count: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            let s = mix(seed, 0x1_0000 + i as u64);
            (0..INPUT_LEN)
                .map(|j| (mix(s, j as u64) & 0xFF) as f32 / 256.0 - 0.5)
                .collect()
        })
        .collect()
}

pub fn body(image: &[f32], format: BodyFormat) -> Vec<u8> {
    match format {
        BodyFormat::FloatArray => {
            let values: Vec<String> = image.iter().map(|v| f64::from(*v).to_string()).collect();
            format!("{{\"image\":[{}]}}", values.join(",")).into_bytes()
        }
        BodyFormat::Base64 => format!(
            "{{\"image_b64\":\"{}\"}}",
            xbar_serve::base64::encode_f32(image)
        )
        .into_bytes(),
    }
}

/// What the serving process reports when it stops.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    pub rss_mb: f64,
    /// Mean µs per traced request of each server-side stage.
    pub pre_queue_us: f64,
    pub queue_us: f64,
    pub batch_us: f64,
    pub infer_us: f64,
    pub respond_us: f64,
    pub total_us: f64,
    pub traced: u64,
    pub batch_size: f64,
}

/// The serving process: this benchmark's own executable in server mode,
/// serving one artifact with `ServeConfig::default()` tunables.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProcess {
    /// Starts the server and waits until it listens.
    pub fn spawn(artifact: &Path, trace_sample: u64) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg(artifact)
            .arg(trace_sample.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server process: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut proc = ServerProcess {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        let line = proc.read_line()?;
        match line.strip_prefix("listening ") {
            Some(addr) => proc.addr = addr.trim().to_string(),
            None => return Err(format!("server process said {line:?}")),
        }
        Ok(proc)
    }

    /// CPU seconds (user + system, all threads, exited ones included) the
    /// server process has used so far, from `/proc/<pid>/stat`.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        process_cpu_s(&stat, clock_ticks_per_s())
            .ok_or_else(|| format!("no utime/stime in {path}: {stat:?}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server process exited early".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("read from server process: {e}")),
        }
    }

    /// Drains the server and collects its report.
    pub fn stop(mut self) -> Result<ServerReport, String> {
        drop(self.stdin.take());
        let line = self.read_line()?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for server process: {e}"))?;
        if !status.success() {
            return Err(format!("server process exited with {status}"));
        }
        let json = Json::parse(line.trim()).map_err(|e| format!("server report: {e}"))?;
        let num = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Ok(ServerReport {
            rss_mb: num("rss_mb"),
            pre_queue_us: num("pre_queue_us"),
            queue_us: num("queue_us"),
            batch_us: num("batch_us"),
            infer_us: num("infer_us"),
            respond_us: num("respond_us"),
            total_us: num("total_us"),
            traced: num("traced") as u64,
            batch_size: num("batch_size"),
        })
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Reached only when `stop` did not run (an error path): make sure
        // the server never outlives the benchmark.
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Server mode: mmap-load the artifact, serve it, print `listening
/// <addr>`, and serve until stdin closes; then drain and print a one-line
/// JSON report (peak RSS and the mean per-stage breakdown of the traced
/// requests).
pub fn serve_child(artifact: &str, trace_sample: u64) -> Result<(), String> {
    let bundle = xbar_core::load_artifact_bundle_mmap(artifact)
        .map_err(|e| format!("load artifact {artifact}: {e}"))?;
    let (models, meta) = TierModels::from_bundle(bundle);
    let cfg = ServeConfig {
        trace_sample,
        ..ServeConfig::default()
    };
    let server = Server::start_tiered(models, meta, cfg).map_err(|e| format!("start: {e}"))?;
    println!("listening {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    // Block until the benchmark closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
    let traces = server.trace_ring().snapshot();
    server.join();
    let mut sums = [0.0f64; 6];
    for t in &traces {
        let stage = |name: &str| t.stages.iter().find(|s| s.stage == name);
        let Some(queue) = stage("queue") else {
            continue;
        };
        sums[0] += queue.start_us.saturating_sub(t.start_us) as f64;
        sums[1] += queue.duration_us as f64;
        sums[2] += stage("batch").map_or(0, |s| s.duration_us) as f64;
        sums[3] += stage("solve").map_or(0, |s| s.duration_us) as f64;
        sums[4] += stage("respond").map_or(0, |s| s.duration_us) as f64;
        sums[5] += t.total_us as f64;
    }
    let n = traces.len().max(1) as f64;
    let batch_size = xbar_obs::metrics::snapshot()
        .histograms
        .get(xbar_obs::names::SERVE_BATCH_SIZE)
        .map_or(0.0, |h| h.mean());
    let report = Json::Obj(vec![
        ("rss_mb".into(), Json::Num(peak_rss_mb()?)),
        ("pre_queue_us".into(), Json::Num(sums[0] / n)),
        ("queue_us".into(), Json::Num(sums[1] / n)),
        ("batch_us".into(), Json::Num(sums[2] / n)),
        ("infer_us".into(), Json::Num(sums[3] / n)),
        ("respond_us".into(), Json::Num(sums[4] / n)),
        ("total_us".into(), Json::Num(sums[5] / n)),
        ("traced".into(), Json::Num(traces.len() as f64)),
        ("batch_size".into(), Json::Num(batch_size)),
    ]);
    println!("{}", report.to_json());
    Ok(())
}

/// User + system CPU seconds from the text of a `/proc/<pid>/stat` file.
/// The command name may hold spaces and parentheses, so fields are counted
/// from the last `)`: `utime` and `stime` are fields 14 and 15 of the line.
pub fn process_cpu_s(stat: &str, ticks_per_s: f64) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / ticks_per_s)
}

/// `sysconf(_SC_CLK_TCK)`: the unit of `/proc/<pid>/stat` CPU times.
fn clock_ticks_per_s() -> f64 {
    // `std` already links libc on Linux; no libc crate is needed.
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and touches no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// This process's high-water resident set size (`VmHWM`), in MB.
/// (`getrusage`'s `ru_maxrss` would not do for the server process: Linux
/// carries the spawning process's peak across `exec`.)
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Sends one classify and requires a 200 (the server answers requests).
pub fn first_answer(addr: &str, body: &[u8]) -> Result<(), String> {
    let mut client =
        Client::connect(addr, CLIENT_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))?;
    let resp = client
        .request("POST", CLASSIFY, body)
        .map_err(|e| format!("first classify: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "first classify answered {}: {}",
            resp.status,
            resp.text()
        ));
    }
    Ok(())
}

/// Result of a closed-loop load phase.
#[derive(Debug, Clone, Default)]
pub struct LoadResult {
    pub outcomes: Outcomes,
    /// Send-to-full-response latency of every `200`, in ms.
    pub latencies_ms: Vec<f64>,
    pub elapsed_s: f64,
    /// Mean generator time per request outside the client call, in µs.
    pub overhead_us: f64,
    /// Every `SAMPLE_EVERY`-th `200` per connection: (body index, body).
    pub samples: Vec<(usize, Vec<u8>)>,
}

const SAMPLE_EVERY: u64 = 20;
/// Successful requests in the unmeasured warm-up window of a serve phase.
const WARMUP_OK: u64 = 200;

/// Closed loop over `conns` keep-alive connections, one thread each: a
/// connection sends its next request only after the previous reply. Runs
/// until at least `min_s` seconds have passed and `min_ok` requests have
/// succeeded (or `4 · min_s + 30` seconds, whichever comes first).
pub fn closed_loop(
    addr: &str,
    bodies: &[Vec<u8>],
    conns: usize,
    min_s: f64,
    min_ok: u64,
) -> LoadResult {
    let ok_total = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let hard_stop = Duration::from_secs_f64(4.0 * min_s + 30.0);
    let per_conn: Vec<LoadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (ok_total, stop) = (&ok_total, &stop);
                scope.spawn(move || {
                    let mut out = LoadResult::default();
                    let mut client = Client::connect(addr, CLIENT_TIMEOUT).ok();
                    let mut outside = Duration::ZERO;
                    let mut mark = Instant::now();
                    let mut i = c;
                    while !stop.load(Ordering::Relaxed) {
                        let Some(conn) = client.as_mut() else {
                            out.outcomes.record(None);
                            std::thread::sleep(RECONNECT_PAUSE);
                            client = Client::connect(addr, CLIENT_TIMEOUT).ok();
                            mark = Instant::now();
                            continue;
                        };
                        let idx = i % bodies.len();
                        i += conns;
                        let sent = Instant::now();
                        outside += sent - mark;
                        let resp = conn.request("POST", CLASSIFY, &bodies[idx]);
                        mark = Instant::now();
                        let latency = mark - sent;
                        match resp {
                            Ok(resp) => {
                                out.outcomes.record(Some(resp.status));
                                if resp.status == 200 {
                                    out.latencies_ms.push(latency.as_secs_f64() * 1e3);
                                    if out.outcomes.ok % SAMPLE_EVERY == 1 {
                                        out.samples.push((idx, resp.body));
                                    }
                                    let done = ok_total.fetch_add(1, Ordering::Relaxed) + 1;
                                    if done >= min_ok && start.elapsed().as_secs_f64() >= min_s {
                                        stop.store(true, Ordering::Relaxed);
                                    }
                                }
                            }
                            Err(_) => {
                                out.outcomes.record(None);
                                client = Client::connect(addr, CLIENT_TIMEOUT).ok();
                            }
                        }
                        if start.elapsed() >= hard_stop {
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    // A connection's total; `closed_loop` turns it into a
                    // per-request mean.
                    out.overhead_us = outside.as_secs_f64() * 1e6;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = LoadResult {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..LoadResult::default()
    };
    let mut outside_us = 0.0;
    for r in per_conn {
        total.outcomes.merge(&r.outcomes);
        total.latencies_ms.extend(r.latencies_ms);
        total.samples.extend(r.samples);
        outside_us += r.overhead_us;
    }
    total.overhead_us = outside_us / total.outcomes.attempted.max(1) as f64;
    total
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    total
}

/// A serve phase made of several short back-to-back closed-loop windows.
/// Throughput, median latency and server CPU per request are taken per
/// window and reported as the median over windows, so a few disturbed
/// windows cannot move them; the tail is taken over all windows' latencies
/// pooled.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    pub rps: Vec<f64>,
    pub p50_ms: Vec<f64>,
    /// Server CPU ms per successful request.
    pub cpu_ms: Vec<f64>,
    /// p99 of every measured request's latency.
    pub p99: Percentile,
    /// Outcomes of every request sent, warm-up included.
    pub outcomes: Outcomes,
    /// Mean generator time per measured request outside the call, in µs.
    pub overhead_us: f64,
    pub samples: Vec<(usize, Vec<u8>)>,
}

/// Runs `count` windows of at least `total_s / count` seconds and
/// `min_ok` successes each, after an unmeasured warm-up window.
pub fn windows(
    server: &ServerProcess,
    bodies: &[Vec<u8>],
    conns: usize,
    total_s: f64,
    min_ok: u64,
    count: usize,
) -> Result<Windows, String> {
    let mut out = Windows::default();
    // The warm-up's outcomes still count.
    let addr = server.addr.as_str();
    let warm = closed_loop(addr, bodies, conns, 0.0, WARMUP_OK);
    out.outcomes.merge(&warm.outcomes);
    out.samples.extend(warm.samples);
    let (mut outside_us, mut measured) = (0.0, 0u64);
    let mut pooled = Vec::new();
    for _ in 0..count {
        let cpu0 = server.cpu_s()?;
        let w = closed_loop(addr, bodies, conns, total_s / count as f64, min_ok);
        let cpu_s = server.cpu_s()? - cpu0;
        if w.latencies_ms.is_empty() {
            return Err(format!("no request succeeded: {:?}", w.outcomes));
        }
        out.cpu_ms.push(cpu_s * 1e3 / w.outcomes.ok as f64);
        out.rps.push(w.outcomes.ok as f64 / w.elapsed_s);
        out.p50_ms.push(percentile(&w.latencies_ms, 0.5).value);
        outside_us += w.overhead_us * w.outcomes.attempted as f64;
        measured += w.outcomes.attempted;
        out.outcomes.merge(&w.outcomes);
        out.samples.extend(w.samples);
        pooled.extend(w.latencies_ms);
    }
    pooled.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    out.p99 = percentile(&pooled, 0.99);
    out.overhead_us = outside_us / measured.max(1) as f64;
    Ok(out)
}

/// The served model's answer for each image, as the server computes it:
/// softmax of a batch-1 `Sequential::forward` of the mmap-loaded artifact.
pub fn expected_scores(model: &Sequential, images: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, String> {
    let mut model = model.clone();
    images
        .iter()
        .map(|img| {
            let x = input_tensor(img)?;
            let logits = model.forward(&x, Mode::Eval).map_err(|e| e.to_string())?;
            Ok(softmax(logits.as_slice()))
        })
        .collect()
}

fn input_tensor(img: &[f32]) -> Result<Tensor, String> {
    let mut shape = vec![1];
    shape.extend_from_slice(&INPUT_SHAPE);
    Tensor::from_vec(img.to_vec(), &shape).map_err(|e| e.to_string())
}

/// Checks each sampled response against the in-process answer bit for bit.
pub fn check_samples(
    samples: &[(usize, Vec<u8>)],
    expected: &[Vec<f32>],
    errors: &mut Vec<String>,
) {
    for (idx, raw) in samples {
        let text = String::from_utf8_lossy(raw);
        let scores: Option<Vec<f32>> = Json::parse(&text).ok().and_then(|json| {
            json.get("scores")?
                .as_arr()?
                .iter()
                .map(|v| v.as_f64().map(|f| f as f32))
                .collect()
        });
        match scores {
            Some(s) if crate::mapping::bits_equal(&s, &expected[*idx]) => {}
            Some(_) => errors.push(format!(
                "image {idx}: served scores differ from in-process forward"
            )),
            None => errors.push(format!("image {idx}: response has no score array")),
        }
    }
}

/// Replays the server's body decoding (`Json::parse` plus the float or
/// base64 extraction) on the workload's bodies; returns the mean µs per
/// body and checks the decoded image is exact.
pub fn replay_decode(
    bodies: &[Vec<u8>],
    images: &[Vec<f32>],
    rounds: usize,
    rec: &mut Recorder,
    errors: &mut Vec<String>,
) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for _ in 0..rounds {
        for (i, (raw, img)) in bodies.iter().zip(images).enumerate() {
            let start = Instant::now();
            let decoded = rec.time("serve.decode", i as u64, || decode(raw));
            total += start.elapsed().as_secs_f64() * 1e6;
            n += 1;
            match decoded {
                Some(d) if crate::mapping::bits_equal(&d, img) => {}
                _ => errors.push(format!("body {i}: decoded image differs from the one sent")),
            }
        }
    }
    total / n.max(1) as f64
}

fn decode(raw: &[u8]) -> Option<Vec<f32>> {
    let json = Json::parse(std::str::from_utf8(raw).ok()?).ok()?;
    if let Some(b64) = json.get("image_b64").and_then(Json::as_str) {
        return xbar_serve::base64::decode_f32(b64).ok();
    }
    json.get("image")?
        .as_arr()?
        .iter()
        .map(|v| v.as_f64().map(|f| f as f32))
        .collect()
}

/// Mean µs per image of each network layer (`nn.conv1`…, `nn.fc`,
/// `nn.other`) and of the conv layers' im2col and GEMM, from batch-1
/// replays; plus the GEMM's achieved GFLOP/s (dense FLOP count).
#[derive(Debug, Clone, Default)]
pub struct LayerReplay {
    pub layer_us: Vec<(String, f64)>,
    pub im2col_us: f64,
    pub gemm_us: f64,
    pub gemm_gflops: f64,
}

/// Replays a batch-1 `Layer::forward` of every layer of `model` on each
/// image, and each conv layer's im2col + GEMM on the same input. Checks the
/// layer-by-layer output equals the whole forward pass and the lowered
/// conv equals the layer's output, bit for bit.
pub fn replay_layers(
    model: &Sequential,
    images: &[Vec<f32>],
    rec: &mut Recorder,
    errors: &mut Vec<String>,
) -> Result<LayerReplay, String> {
    let mut whole = model.clone();
    let mut layers = model.clone();
    let names = layer_names(model);
    let first_span = rec.spans().len();
    let mut flops = 0.0f64;
    for (i, img) in images.iter().enumerate() {
        let trace = i as u64;
        let x0 = input_tensor(img)?;
        let expected = whole.forward(&x0, Mode::Eval).map_err(|e| e.to_string())?;
        let mut x = x0;
        for (layer, name) in layers.layers_mut().iter_mut().zip(&names) {
            let y = rec
                .time(name, trace, || layer.forward(&x, Mode::Eval))
                .map_err(|e| e.to_string())?;
            if let Layer::Conv2d(conv) = layer {
                flops += lowered_conv(conv, &x, &y, rec, trace, errors)?;
            }
            x = y;
        }
        if !crate::mapping::bits_equal(x.as_slice(), expected.as_slice()) {
            errors.push(format!(
                "image {i}: layer-by-layer replay differs from the whole forward"
            ));
        }
    }
    let per_image = |ns: u64| ns as f64 / 1e3 / images.len().max(1) as f64;
    let self_ns = self_time_ns(&rec.spans()[first_span..]);
    let mut out = LayerReplay::default();
    let mut seen: Vec<&'static str> = Vec::new();
    for name in names {
        if !seen.contains(&name) {
            seen.push(name);
            out.layer_us
                .push((name.to_string(), per_image(self_ns[name])));
        }
    }
    out.im2col_us = per_image(self_ns.get("tensor.im2col").copied().unwrap_or(0));
    let gemm_ns = self_ns.get("tensor.gemm").copied().unwrap_or(0);
    out.gemm_us = per_image(gemm_ns);
    out.gemm_gflops = if gemm_ns > 0 {
        flops / gemm_ns as f64
    } else {
        0.0
    };
    Ok(out)
}

/// `nn.conv1`…`nn.convN` in network order, `nn.fc` for linear layers,
/// `nn.other` for the rest.
fn layer_names(model: &Sequential) -> Vec<&'static str> {
    const CONV: [&str; 8] = [
        "nn.conv1", "nn.conv2", "nn.conv3", "nn.conv4", "nn.conv5", "nn.conv6", "nn.conv7",
        "nn.conv8",
    ];
    let mut convs = 0;
    model
        .layers()
        .iter()
        .map(|l| match l {
            Layer::Conv2d(_) => {
                convs += 1;
                CONV.get(convs - 1).copied().unwrap_or("nn.conv8")
            }
            Layer::Linear(_) => "nn.fc",
            _ => "nn.other",
        })
        .collect()
}

/// One conv layer lowered by hand: im2col, then the weight GEMM, then the
/// bias; must equal the layer's own output. Returns the dense FLOP count.
fn lowered_conv(
    conv: &xbar_nn::layers::Conv2d,
    x: &Tensor,
    y: &Tensor,
    rec: &mut Recorder,
    trace: u64,
    errors: &mut Vec<String>,
) -> Result<f64, String> {
    let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
    let geom = ConvGeom {
        in_c: c,
        h,
        w,
        kh: conv.kernel_size(),
        kw: conv.kernel_size(),
        stride: conv.stride(),
        pad: conv.padding(),
    };
    let img = Tensor::from_vec(x.as_slice().to_vec(), &[c, h, w]).map_err(|e| e.to_string())?;
    let cols = rec
        .time("tensor.im2col", trace, || im2col(&img, &geom))
        .map_err(|e| e.to_string())?;
    let weight = &conv.weight().value;
    let prod = rec
        .time("tensor.gemm", trace, || weight.matmul(&cols))
        .map_err(|e| e.to_string())?;
    let patches = geom.n_patches();
    let bias = conv.bias().value.as_slice();
    let lowered: Vec<f32> = prod
        .as_slice()
        .chunks_exact(patches)
        .zip(bias)
        .flat_map(|(row, &b)| row.iter().map(move |&v| v + b))
        .collect();
    if !crate::mapping::bits_equal(&lowered, y.as_slice()) {
        errors.push("im2col + GEMM differs from the conv layer's output".into());
    }
    Ok(2.0 * (weight.shape()[0] * geom.patch_len() * patches) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_from_proc_stat() {
        // A command name with a space and a parenthesis, as the kernel
        // prints it; utime = 250 and stime = 50 ticks.
        let stat = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 50 0 0 20 0 5 0 1234 0 0";
        assert_eq!(process_cpu_s(stat, 100.0), Some(3.0));
        assert_eq!(process_cpu_s("4242 (cut short) S 1", 100.0), None);
        assert_eq!(process_cpu_s("no parenthesis", 100.0), None);
    }
}
