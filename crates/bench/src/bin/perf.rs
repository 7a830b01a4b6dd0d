//! Solver-performance benchmark: cold vs cached mapping.
//!
//! Maps a width-scaled VGG11 onto non-ideal crossbars twice — first from an
//! empty solve cache (cold, every tile solved and stored), then again
//! through the cache's hit path — times both, checks the re-map is
//! bit-identical to the cold map, and writes the timings plus cache
//! counters to `results/BENCH_map.json`.
//!
//! Thin CLI wrapper over [`xbar_bench::artifacts::perfmap::perf`]; the
//! suite orchestrator runs the same code (serially — it times wall clock
//! and clears the process-wide solve cache).
//!
//! Usage: `cargo run --release -p xbar-bench --bin perf --
//! [--smoke|--quick|--full] [--seed N] [--size N] [--quiet]
//! [--trace-out <path>]`

use std::process::ExitCode;
use xbar_bench::artifacts::{perfmap, ArtifactCtx};
use xbar_bench::runner::{Arity, RunContext};

fn main() -> ExitCode {
    let mut ctx = RunContext::init("perf", &[("--size", Arity::Value)]);
    let size = match ctx.args.get("--size").map(str::parse::<usize>) {
        None => 32,
        Some(Ok(n)) if n >= 4 => n,
        Some(_) => {
            eprintln!("error: --size must be an integer >= 4");
            return ExitCode::from(2);
        }
    };
    ctx.config("crossbar_size", size);
    ctx.config("width_multiplier", ctx.args.scale.width);
    let actx = ArtifactCtx::new(ctx.args.scale, ctx.args.scale_name, ctx.args.seed);
    let result = perfmap::perf(&actx, size);
    ctx.finish();
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
