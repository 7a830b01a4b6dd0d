//! The repository benchmark: the paper's Fig. 2 flow at quick scale — map
//! pruned VGG11s onto non-ideal crossbars, fold G' into W', persist the
//! artifact, and serve it — measured end to end and, in a traced run,
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <map-sweep|serve-dense-json|serve-cf-b64> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `perfbench/README.md` describes the
//! workloads, every metric, and the first baseline.

mod mapping;
mod serving;
mod spans;
mod stats;

use mapping::{Case, Models, Pruning, ALL_PRUNINGS, SWEEP_SIZES};
use serving::{BodyFormat, ServerProcess, ServerReport};
use spans::Recorder;
use stats::{median, mix, percentile, samples_for_tail};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use xbar_core::pipeline::map_to_crossbars;
use xbar_core::{load_artifact_bundle_mmap, save_artifact_to_file, ArtifactMeta};
use xbar_obs::json::Json;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest cold + cached passes behind `map_s` and `remap_s`.
const MIN_MAP_PASSES: usize = 3;
/// Unmeasured map passes run for at least this long (and at least once)
/// before the measured ones.
const MAP_WARMUP_S: f64 = 1.0;
/// Distinct request bodies per workload.
const IMAGES: usize = 16;
/// Closed-loop windows per serve phase; throughput and median latency are
/// the windows' medians.
const SERVE_WINDOWS: usize = 10;
/// Images replayed layer by layer in the traced run.
const REPLAY_IMAGES: usize = 8;
/// Rounds of the body-decode replay.
const DECODE_ROUNDS: usize = 4;

const USAGE: &str =
    "usage: perfbench --workload <map-sweep|serve-dense-json|serve-cf-b64> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One workload: the configurations its map phase sweeps, the one it
/// serves, how its requests encode images, the share of `--seconds` its
/// map phase runs (the serve phase runs all of it), and which process does
/// its main work (whose peak RSS `peak_rss_mb` reports).
struct Workload {
    cases: Vec<Case>,
    served: usize,
    format: BodyFormat,
    map_share: f64,
    mainly_serves: bool,
}

fn workload(name: &str, seed: u64) -> Option<Workload> {
    let variation = |i: usize| mix(seed, 100 + i as u64);
    let single = |pruning, format| Workload {
        cases: vec![Case::new(pruning, 64, variation(0))],
        served: 0,
        format,
        map_share: 0.15,
        mainly_serves: true,
    };
    match name {
        "map-sweep" => {
            let cases: Vec<Case> = ALL_PRUNINGS
                .iter()
                .flat_map(|&p| SWEEP_SIZES.iter().map(move |&s| (p, s)))
                .enumerate()
                .map(|(i, (p, s))| Case::new(p, s, variation(i)))
                .collect();
            let served = cases
                .iter()
                .position(|c| c.pruning == Pruning::XbarColumn && c.size == 64)
                .expect("the sweep holds XCS 64x64");
            Some(Workload {
                cases,
                served,
                format: BodyFormat::FloatArray,
                map_share: 0.5,
                mainly_serves: false,
            })
        }
        "serve-dense-json" => Some(single(Pruning::Unpruned, BodyFormat::FloatArray)),
        "serve-cf-b64" => Some(single(Pruning::ChannelFilter, BodyFormat::Base64)),
        _ => None,
    }
}

/// Metric name → (value, unit), in report order.
type Metrics = Vec<(String, f64, &'static str)>;

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_json()
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Times of one set-up, in ms.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    build: f64,
    map: f64,
    artifact: f64,
    start: f64,
}

impl SetupTimes {
    fn total_s(&self) -> f64 {
        (self.build + self.map + self.artifact + self.start) / 1e3
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Everything set-up leaves ready: the models, the running server, and the
/// served W' as the artifact holds it.
struct Ready {
    models: Models,
    server: ServerProcess,
    served_model: xbar_nn::Sequential,
}

/// Builds the models, maps the served configuration from a cold solve
/// cache, saves and mmap-loads its artifact, and starts the server until it
/// answers a classify.
fn set_up(
    work: &Workload,
    model_seed: u64,
    artifact: &Path,
    first_body: &[u8],
) -> Result<(Ready, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let case = &work.cases[work.served];
    xbar_sim::clear_solve_cache();
    let t = Instant::now();
    let models = mapping::build_models(&work.cases, model_seed);
    times.build = ms_since(t);
    let t = Instant::now();
    let (mut mapped, report) = map_to_crossbars(&models[&case.pruning.model_key()], &case.cfg)
        .map_err(|e| format!("set-up map of {}: {e}", case.label()))?;
    times.map = ms_since(t);
    let t = Instant::now();
    let mut meta = ArtifactMeta::from_mapping(case.label(), &case.cfg, &report);
    meta.num_classes = 10;
    save_artifact_to_file(&mut mapped, &meta, artifact)
        .map_err(|e| format!("save artifact: {e}"))?;
    let bundle = load_artifact_bundle_mmap(artifact).map_err(|e| format!("load artifact: {e}"))?;
    times.artifact = ms_since(t);
    let t = Instant::now();
    let server = ServerProcess::spawn(artifact, 0)?;
    serving::first_answer(&server.addr, first_body)?;
    times.start = ms_since(t);
    Ok((
        Ready {
            models,
            server,
            served_model: bundle.model,
        },
        times,
    ))
}

fn run(args: &Args) -> Result<Report, String> {
    let work = workload(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let out_dir = PathBuf::from(".perfbench");
    let scratch = ScratchDir(out_dir.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("create {:?}: {e}", scratch.0))?;
    let artifact = scratch.0.join("served.xbarmdl");
    let mut errors: Vec<String> = Vec::new();
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    // Enough successes per window that the pooled p99 has ten beyond it.
    let min_ok = samples_for_tail(0.99, 10).div_ceil(SERVE_WINDOWS) as u64;

    // Request bodies are built from the seed before anything is timed.
    let images = serving::images(args.seed, IMAGES);
    let bodies: Vec<Vec<u8>> = images
        .iter()
        .map(|i| serving::body(i, work.format))
        .collect();

    // Set-up, several times; the last one's server stays up.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = ready.take() {
            let Ready { server, .. } = prev;
            server.stop()?;
        }
        let (r, times) = set_up(&work, mix(args.seed, 1), &artifact, &bodies[0])?;
        setups.push(times);
        ready = Some(r);
    }
    let Ready {
        models,
        server,
        served_model,
    } = ready.expect("at least one set-up");
    let expected = serving::expected_scores(&served_model, &images)?;

    // Map phase: cold then cached passes over the workload's configurations.
    let map_budget = args.seconds * work.map_share;
    let (mut cold, mut remap) = (Vec::new(), Vec::new());
    let mut maps = 0u64;
    let t = Instant::now();
    loop {
        maps += mapping::map_pass(&work.cases, &models, &mut errors)?.maps;
        if t.elapsed().as_secs_f64() >= MAP_WARMUP_S {
            break;
        }
    }
    let t = Instant::now();
    while cold.len() < MIN_MAP_PASSES || t.elapsed().as_secs_f64() < map_budget {
        let pass = mapping::map_pass(&work.cases, &models, &mut errors)?;
        cold.push(pass.cold_s);
        remap.push(pass.remap_s);
        maps += pass.maps;
    }
    let map_rss_mb = serving::peak_rss_mb()?;

    // Serve phase: closed loop against the set-up's server.
    let serve = serving::windows(&server, &bodies, conns, args.seconds, min_ok, SERVE_WINDOWS)?;
    let server_report = server.stop()?;
    serving::check_samples(&serve.samples, &expected, &mut errors);
    let map_s = median(&cold);
    let remap_s = median(&remap);
    let p50_ms = median(&serve.p50_ms);
    let cpu_ms = median(&serve.cpu_ms);
    let attempted = maps + serve.outcomes.attempted;
    let failed = serve.outcomes.failed();

    let metrics = if args.trace {
        let untraced = Untraced {
            map_s,
            remap_s,
            p50_ms,
            cpu_ms,
            serve: &serve,
            map_rss_mb,
            server: &server_report,
            setups: &setups,
        };
        traced(
            &work,
            &models,
            &served_model,
            &artifact,
            (&images, &bodies),
            conns,
            args,
            &untraced,
            &mut errors,
        )?
    } else {
        let peak_rss_mb = if work.mainly_serves {
            server_report.rss_mb
        } else {
            map_rss_mb
        };
        let setup_s: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
        vec![
            ("setup_s".into(), median(&setup_s), "s"),
            ("peak_rss_mb".into(), peak_rss_mb, "MB"),
            ("map_s".into(), map_s, "s"),
            ("remap_s".into(), remap_s, "s"),
            ("serve_cpu_ms".into(), cpu_ms, "ms"),
        ]
    };
    for e in &errors {
        eprintln!("correctness check failed: {e}");
    }
    Ok(Report {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// The untraced measurements the traced run compares itself against.
struct Untraced<'a> {
    map_s: f64,
    remap_s: f64,
    p50_ms: f64,
    cpu_ms: f64,
    serve: &'a serving::Windows,
    map_rss_mb: f64,
    server: &'a ServerReport,
    setups: &'a [SetupTimes],
}

/// The traced part of a `--trace 1` run: a span-recorded replay of one
/// cold and one cached map pass, a serve phase against a server sampling
/// every request's stage trace, and replays of body decoding and of the
/// served network layer by layer. Spans are written to
/// `.perfbench/trace-<workload>-seed<seed>.json`.
#[allow(clippy::too_many_arguments)]
fn traced(
    work: &Workload,
    models: &Models,
    served_model: &xbar_nn::Sequential,
    artifact: &Path,
    (images, bodies): (&[Vec<f32>], &[Vec<u8>]),
    conns: usize,
    args: &Args,
    untraced: &Untraced<'_>,
    errors: &mut Vec<String>,
) -> Result<Metrics, String> {
    let mut rec = Recorder::new();
    let replay = mapping::replay_pass(&work.cases, models, &mut rec, errors)?;
    let untraced_map_s = untraced.map_s + untraced.remap_s;

    let server = ServerProcess::spawn(artifact, 1)?;
    let cpu0 = server.cpu_s()?;
    let load = serving::closed_loop(
        &server.addr,
        bodies,
        conns,
        0.5 * args.seconds,
        (samples_for_tail(0.99, 10) / 2) as u64,
    );
    let traced_cpu_ms = (server.cpu_s()? - cpu0) * 1e3 / load.outcomes.ok.max(1) as f64;
    let stages = server.stop()?;
    if load.latencies_ms.is_empty() {
        return Err(format!("no traced request succeeded: {:?}", load.outcomes));
    }
    let traced_p50 = percentile(&load.latencies_ms, 0.5).value;
    let client_mean_us = stats::mean(&load.latencies_ms) * 1e3;

    let decode_us = serving::replay_decode(bodies, images, DECODE_ROUNDS, &mut rec, errors);
    let layers = serving::replay_layers(
        served_model,
        &images[..REPLAY_IMAGES.min(images.len())],
        &mut rec,
        errors,
    )?;
    let trace_path =
        PathBuf::from(".perfbench").join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    rec.write_json(&trace_path)
        .map_err(|e| format!("write {trace_path:?}: {e}"))?;

    let stage = |name: &str| replay.stage_ms.get(name).copied().unwrap_or(0.0);
    let setup =
        |f: fn(&SetupTimes) -> f64| median(&untraced.setups.iter().map(f).collect::<Vec<_>>());
    let lookups = (replay.cache_hits + replay.cache_misses).max(1) as f64;
    let ul = untraced.serve;
    let mut m: Metrics = vec![
        ("prune.unroll_ms".into(), stage("prune.unroll"), "ms"),
        ("prune.transform_ms".into(), stage("prune.transform"), "ms"),
        ("core.rearrange_ms".into(), stage("core.rearrange"), "ms"),
        ("core.partition_ms".into(), stage("core.partition"), "ms"),
        ("sim.prepare_ms".into(), stage("sim.prepare"), "ms"),
        ("sim.solve_ms".into(), stage("sim.solve"), "ms"),
        ("map.other_ms".into(), stage("map"), "ms"),
        ("map.cold_ms".into(), replay.cold_ms, "ms"),
        ("sim.cold_solve_ms".into(), replay.cold_solve_ms, "ms"),
        ("sim.tiles".into(), replay.tiles as f64, "count"),
        ("sim.solver_sweeps".into(), replay.sweeps as f64, "count"),
        ("sim.fallbacks".into(), replay.fallbacks as f64, "count"),
        ("sim.cache_hits".into(), replay.cache_hits as f64, "count"),
        (
            "sim.cache_misses".into(),
            replay.cache_misses as f64,
            "count",
        ),
        (
            "sim.cache_hit_ratio".into(),
            replay.cache_hits as f64 / lookups,
            "ratio",
        ),
        (
            "trace.map_overhead_pct".into(),
            (replay.wall_s / untraced_map_s - 1.0) * 100.0,
            "%",
        ),
        ("serve.pre_queue_us".into(), stages.pre_queue_us, "us"),
        ("serve.decode_us".into(), decode_us, "us"),
        ("serve.queue_us".into(), stages.queue_us, "us"),
        ("serve.batch_us".into(), stages.batch_us, "us"),
        ("serve.batch_size".into(), stages.batch_size, "count"),
        ("serve.infer_us".into(), stages.infer_us, "us"),
        ("serve.respond_us".into(), stages.respond_us, "us"),
        (
            "serve.unaccounted_us".into(),
            client_mean_us - stages.total_us,
            "us",
        ),
        (
            "serve.traced_requests".into(),
            stages.traced as f64,
            "count",
        ),
        (
            "trace.serve_overhead_pct".into(),
            (traced_p50 / untraced.p50_ms - 1.0) * 100.0,
            "%",
        ),
        (
            "trace.serve_cpu_overhead_pct".into(),
            (traced_cpu_ms / untraced.cpu_ms - 1.0) * 100.0,
            "%",
        ),
    ];
    for (name, us) in &layers.layer_us {
        m.push((format!("{name}_us"), *us, "us"));
    }
    m.extend([
        ("tensor.im2col_us".into(), layers.im2col_us, "us"),
        ("tensor.gemm_us".into(), layers.gemm_us, "us"),
        ("tensor.gemm_gflops".into(), layers.gemm_gflops, "GFLOP/s"),
        ("setup.build_ms".into(), setup(|s| s.build), "ms"),
        ("setup.map_ms".into(), setup(|s| s.map), "ms"),
        ("setup.artifact_ms".into(), setup(|s| s.artifact), "ms"),
        ("setup.start_ms".into(), setup(|s| s.start), "ms"),
        ("load.overhead_us".into(), ul.overhead_us, "us"),
        (
            "load.attempted".into(),
            ul.outcomes.attempted as f64,
            "count",
        ),
        ("load.ok".into(), ul.outcomes.ok as f64, "count"),
        ("load.shed_429".into(), ul.outcomes.shed_429 as f64, "count"),
        ("load.busy_503".into(), ul.outcomes.busy_503 as f64, "count"),
        (
            "load.timeout_504".into(),
            ul.outcomes.timeout_504 as f64,
            "count",
        ),
        (
            "load.other_status".into(),
            ul.outcomes.other_status as f64,
            "count",
        ),
        (
            "load.io_errors".into(),
            ul.outcomes.io_errors as f64,
            "count",
        ),
        ("load.windows".into(), ul.rps.len() as f64, "count"),
        ("serve.rps".into(), median(&ul.rps), "1/s"),
        ("serve.p50_ms".into(), untraced.p50_ms, "ms"),
        ("serve.p99_ms".into(), ul.p99.value, "ms"),
        ("load.p99_samples".into(), ul.p99.samples as f64, "count"),
        ("load.p99_beyond".into(), ul.p99.beyond as f64, "count"),
        ("mem.map_rss_mb".into(), untraced.map_rss_mb, "MB"),
        ("mem.serve_rss_mb".into(), untraced.server.rss_mb, "MB"),
    ]);
    Ok(m)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        let result = match (argv.get(1), argv.get(2).and_then(|s| s.parse().ok())) {
            (Some(artifact), Some(sample)) => serving::serve_child(artifact, sample),
            _ => Err("usage: perfbench serve-child <artifact> <trace-sample>".into()),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("server process: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
