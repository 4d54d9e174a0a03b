//! The repository benchmark. It drives the shipped `wootz` binary through
//! one workload for a fixed time, checks every job's output against a
//! reference, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics with a wall-time tree (`--trace 1`). The last line of
//! stdout is the JSON result; see README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload prune-local|prune-cluster|serve-mixed [--seed N] [--seconds S]
//!     [--trace 0|1] [--threads T] [--work-root DIR]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-refs
//! ```
//!
//! Run it from the repository root: it builds `wootz` from the sources
//! there first (the build is not timed).

mod check;
mod inputs;
mod probes;
mod proc;
mod prune;
mod report;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use check::References;
use inputs::Generator;
use proc::WorkDir;
use report::Report;

/// The seed whose references are committed in `refs/references.json`.
const DEFAULT_SEED: u64 = 1;
/// Fresh serve-mixed jobs of the default seed that get committed references.
const COMMITTED_FRESH_JOBS: usize = 40;

const END_TO_END: [(&str, &str); 4] = [
    ("job_s", "s"),
    ("replay_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics of every workload `BENCHMARK.json` lists.
const PER_LAYER: [(&str, &str); 35] = [
    ("tensor.conv2d_fwd.gflops", "GFLOP/s"),
    ("tensor.conv2d_bwd.gflops", "GFLOP/s"),
    ("tensor.matmul.gflops", "GFLOP/s"),
    ("tensor.conv2d_fwd.gflop", "GFLOP"),
    ("tensor.conv2d_bwd.gflop", "GFLOP"),
    ("tensor.conv2d_fwd.calls", "count"),
    ("tensor.conv2d_bwd.calls", "count"),
    ("tensor.kernel_share", "ratio"),
    ("par.tasks", "count"),
    ("par.chunk_p50_us", "us"),
    ("nn.trainer.steps", "count"),
    ("nn.trainer.step_ms_p50", "ms"),
    ("nn.trainer.untimed_share", "ratio"),
    ("nn.eval.fwd_per_bwd", "ratio"),
    ("nn.arena.fresh", "count"),
    ("nn.arena.peak_mb", "MB"),
    ("core.teacher_s", "s"),
    ("core.pretrain_s", "s"),
    ("core.explore_s", "s"),
    ("core.residual_s", "s"),
    ("core.pretrain.steps", "count"),
    ("core.finetune.steps", "count"),
    ("core.blocks", "count"),
    ("core.evals_fresh", "count"),
    ("core.journal.bytes", "bytes"),
    ("core.journal.read_ms", "ms"),
    ("wire.frames", "count"),
    ("wire.frame_kb", "KB"),
    ("cluster.tasks", "count"),
    ("cluster.task_ms_p50", "ms"),
    ("cluster.worker_busy_share", "ratio"),
    ("cluster.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("job_s.samples", "count"),
    ("replay_ms.samples", "count"),
];

/// The store and daemon layers, which only serve-mixed observes. It
/// prints them after [`PER_LAYER`]. serve-mixed is not in
/// `BENCHMARK.json` while the program fails its output check (README.md).
const SERVE_LAYER: [(&str, &str); 9] = [
    ("store.hit_ratio", "ratio"),
    ("store.inserts", "count"),
    ("store.served_mb", "MB"),
    ("store.get_us_p50", "us"),
    ("store.open_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.replay_p90_ms", "ms"),
    ("serve.replay_samples", "count"),
];

/// What every workload runs with.
pub struct Ctx {
    pub wootz: PathBuf,
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
    pub refs: References,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    work_root: PathBuf,
    write_refs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        threads: 2,
        work_root: PathBuf::from(".perfbench-work"),
        write_refs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-refs" {
            args.write_refs = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = num(&value)? != 0,
            "--threads" => args.threads = num(&value)?.max(1) as usize,
            "--work-root" => args.work_root = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Builds the `wootz` binary from the sources in the working directory
/// and returns its path.
fn build_wootz() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "wootz-cluster",
            "--bin",
            "wootz",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building wootz failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("wootz");
    std::fs::canonicalize(&bin).map_err(|e| format!("{}: {e}", bin.display()))
}

/// Host and build facts printed with every result: numbers compare only
/// within one host.
fn metadata(args: &Args, wootz: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let binary = std::fs::read(wootz).map_or(0, |b| wootz_fault::fnv1a64(&b));
    let threads = match args.workload.as_str() {
        "prune-local" => args.threads.to_string(),
        "prune-cluster" => "coordinator 1, 2 workers x 1".to_string(),
        _ => "daemon 1".to_string(),
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpu\": \"{}\", \
         \"nproc\": {nproc}, \"kernel_threads\": \"{threads}\", \"commit\": \"{commit}\", \
         \"wootz_fnv64\": \"{binary:016x}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu.replace('"', "'"),
    )
}

/// The machine-wide CPU tick counters of `/proc/stat` (user, nice,
/// system, idle, iowait, irq, softirq, steal), to tell host contention
/// apart from the program's own time.
fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then_some(ticks)
}

fn refs_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("refs")
        .join("references.json")
}

/// Computes and writes the committed references of the default seed: the
/// prune pool, the serve warm-ups and the first serve fresh jobs.
fn write_refs(ctx: &mut Ctx) -> Result<(), String> {
    let dir = WorkDir::new(&ctx.root, "refs")?;
    let mut gen = Generator::new(&ctx.wootz, dir.path());
    let mut jobs = gen.prune_jobs(DEFAULT_SEED, prune::JOBS)?;
    let mut stream = serve::Stream::new(DEFAULT_SEED);
    jobs.extend(stream.warmups(&mut gen)?);
    for _ in 0..COMMITTED_FRESH_JOBS {
        jobs.push(stream.next_fresh(&mut gen)?);
    }
    let mut refs = References::default();
    refs.ensure(&ctx.wootz, &ctx.root, &jobs.iter().collect::<Vec<_>>())?;
    refs.write(&refs_path())?;
    println!(
        "wrote {} references to {}",
        jobs.len(),
        refs_path().display()
    );
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let wootz = build_wootz()?;
    std::fs::create_dir_all(&args.work_root).map_err(|e| e.to_string())?;
    let root = std::fs::canonicalize(&args.work_root).map_err(|e| e.to_string())?;
    let mut ctx = Ctx {
        wootz: wootz.clone(),
        root: root.clone(),
        seed: args.seed,
        seconds: args.seconds.max(1),
        trace: args.trace,
        threads: args.threads,
        refs: References::load(&refs_path())?,
    };
    if args.write_refs {
        write_refs(&mut ctx)?;
        return Ok(ExitCode::SUCCESS);
    }
    let meta = metadata(&args, &wootz);
    println!("meta {meta}");
    let cpu_before = cpu_ticks();
    let mut report: Report = match args.workload.as_str() {
        "prune-local" => prune::run(&mut ctx, false)?,
        "prune-cluster" => prune::run(&mut ctx, true)?,
        "serve-mixed" => serve::run(&mut ctx)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (prune-local, prune-cluster, serve-mixed)"
            ))
        }
    };
    for (name, n) in report.samples.clone() {
        if let Some(metric) = ["job_s", "replay_ms"].iter().find(|m| **m == name) {
            report.set(&format!("{metric}.samples"), n as f64, "count");
        }
    }
    if let (Some(a), Some(b)) = (cpu_before, cpu_ticks()) {
        let total: u64 = b.iter().zip(&a).map(|(b, a)| b - a).sum();
        let steal = b[7] - a[7];
        report.notes.push(format!(
            "host CPU time stolen by the hypervisor during this run: {:.1}%",
            100.0 * steal as f64 / total.max(1) as f64
        ));
    }
    for e in &report.errors {
        println!("FAILED: {e}");
    }
    print!("{}", report.render());
    let wanted: Vec<(&str, &str)> = match (args.trace, args.workload.as_str()) {
        (false, _) => END_TO_END.to_vec(),
        (true, "serve-mixed") => [&PER_LAYER[..], &SERVE_LAYER[..]].concat(),
        (true, _) => PER_LAYER.to_vec(),
    };
    let metrics = report.metrics_json(&wanted)?;
    if args.trace {
        let mut trees = String::new();
        for (label, tree) in [("fresh job", &report.tree), ("replay", &report.replay_tree)] {
            if let Some(t) = tree {
                println!("wall-time tree per {label} (seconds; residual = time no child covers):");
                print!("{}", t.render());
                trees.push_str(&format!(",\n  \"{label}\": {}", t.to_json()));
            }
        }
        let dir = root.join("reports");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-seed{}-trace.json", args.workload, args.seed));
        let notes: Vec<String> = report.notes.iter().map(|n| format!("{n:?}")).collect();
        let body = format!(
            "{{\n  \"meta\": {meta},\n  \"metrics\": {metrics},\n  \"notes\": [{}]{trees}\n}}\n",
            notes.join(", ")
        );
        std::fs::write(&path, body).map_err(|e| e.to_string())?;
        println!("trace report written to {}", path.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.correct(),
        report.attempted,
        report.failed
    );
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
