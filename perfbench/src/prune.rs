//! The `prune-local` and `prune-cluster` workloads: a closed loop of
//! `wootz prune --mode hierarchical --journal …` jobs on the seed's
//! inputs, one at a time, each followed by `--resume` replays of its
//! finished journal.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::check::{best_of, Outcome};
use crate::inputs::{Generator, Job};
use crate::proc::{self, WorkDir};
use crate::report::Report;
use crate::trace::{median, Metrics, Tree};
use crate::{probes, Ctx};

/// Set-up repetitions before the loop, and after each job of the loop;
/// `setup_s` is their median. Spreading them over the run keeps one busy
/// moment of the host from setting the median.
const SETUP_REPS: usize = 5;
const SETUP_REPS_PER_JOB: usize = 4;
/// Distinct jobs the loop cycles through. Work per job depends on its
/// inputs; a pool keeps the per-run median from hanging on one draw.
pub const JOBS: usize = 10;
/// Worker processes of `prune-cluster`.
const CLUSTER_WORKERS: &str = "2";

/// Where and how one job runs.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Local { threads: usize },
    Cluster,
}

impl Shape {
    /// `--resume` replays of each finished job. A local replay is cheap,
    /// and more of them steady the `replay_ms` median; a cluster replay
    /// spawns its workers again, and one per job is steady already.
    fn replays(self) -> usize {
        match self {
            Shape::Local { .. } => 3,
            Shape::Cluster => 1,
        }
    }
}

/// One finished, checked job.
struct Done {
    wall_s: f64,
    replay_s: Vec<f64>,
    peak_rss_kb: u64,
    run: Value,
    evals_fresh: u64,
    journal_bytes: u64,
    journal_read_ms: f64,
    metrics: Option<Metrics>,
}

/// `exploration: N evaluated fresh, M resumed from journal, K failed`.
fn exploration_line(stdout: &str) -> Result<(u64, u64, u64), String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("exploration: "))
        .ok_or("no `exploration:` line in the output")?;
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("ascii digits"))
        .collect();
    match nums[..] {
        [fresh, resumed, failed] => Ok((fresh, resumed, failed)),
        _ => Err(format!("unreadable exploration line `{line}`")),
    }
}

fn read_run(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one fresh job and its replays, and checks them all: the fresh run
/// did fresh work and nothing came from a journal, a replay did no fresh
/// work, and all of them name the reference's best network.
fn run_job(ctx: &Ctx, job: &Job, shape: Shape, traced: bool) -> Result<Done, String> {
    let dir = WorkDir::new(&ctx.root, "job")?;
    let files = job.write(dir.path())?;
    let journal = dir.join("run.journal");
    let metrics = dir.join("metrics.ndjson");
    let command = |out: &PathBuf, resume: bool| {
        let mut cmd = Command::new(&ctx.wootz);
        cmd.args(job.prune_args(&files))
            .arg("--journal")
            .arg(&journal)
            .arg("--out")
            .arg(out);
        match shape {
            Shape::Local { threads } => {
                cmd.args(["--threads", &threads.to_string()]);
            }
            Shape::Cluster => {
                // One kernel thread per worker; the coordinator passes its
                // `--threads` on to the workers it spawns.
                cmd.args([
                    "--threads",
                    "1",
                    "--distributed",
                    CLUSTER_WORKERS,
                    "--run-dir",
                ])
                .arg(dir.join("run-dir"));
            }
        }
        if resume {
            cmd.arg("--resume");
        } else if traced {
            cmd.arg("--metrics-out").arg(&metrics);
        }
        cmd
    };

    let out = dir.join("fresh.json");
    let fresh = proc::run(&mut command(&out, false), dir.path(), "fresh")?;
    let (evals_fresh, resumed, failed) = exploration_line(&fresh.stdout)?;
    if evals_fresh == 0 || resumed != 0 || failed != 0 {
        return Err(format!(
            "fresh job was not fresh: {evals_fresh} fresh, {resumed} resumed, {failed} failed evaluations"
        ));
    }
    let run = read_run(&out)?;
    let best = best_of(&run)?;
    ctx.refs.check(job, &best)?;
    let journal_bytes = std::fs::metadata(&journal)
        .map_err(|e| e.to_string())?
        .len();
    let journal_read_ms = if traced {
        probes::journal_read_ms(&[journal.as_path()])?[0]
    } else {
        0.0
    };

    let replay_out = dir.join("replay.json");
    let mut replay_s = Vec::with_capacity(shape.replays());
    for _ in 0..shape.replays() {
        let replay = proc::run(&mut command(&replay_out, true), dir.path(), "replay")?;
        let (again, resumed, _) = exploration_line(&replay.stdout)?;
        if again != 0 || resumed == 0 {
            return Err(format!(
                "replay was not a replay: {again} fresh, {resumed} resumed evaluations"
            ));
        }
        let replayed: Outcome = best_of(&read_run(&replay_out)?)?;
        if replayed != best {
            return Err("replay returned a different best network than its first run".to_string());
        }
        replay_s.push(replay.wall_s);
    }
    Ok(Done {
        wall_s: fresh.wall_s,
        replay_s,
        peak_rss_kb: fresh.peak_rss_kb,
        run,
        evals_fresh,
        journal_bytes,
        journal_read_ms,
        metrics: if traced {
            Some(Metrics::load(&metrics)?)
        } else {
            None
        },
    })
}

pub fn run(ctx: &mut Ctx, cluster: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let main_shape = if cluster {
        Shape::Cluster
    } else {
        Shape::Local {
            threads: ctx.threads,
        }
    };

    // Set-up: generate the inputs, several times; every repetition must
    // give the same jobs.
    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>| -> Result<Vec<Job>, String> {
        let dir = WorkDir::new(&ctx.root, "inputs")?;
        let started = Instant::now();
        let jobs = Generator::new(&ctx.wootz, dir.path()).prune_jobs(ctx.seed, JOBS)?;
        setup.push(started.elapsed().as_secs_f64());
        Ok(jobs)
    };
    let jobs = set_up(&mut setup)?;
    let digests: Vec<String> = jobs.iter().map(Job::digest).collect();
    let set_up_again = |setup: &mut Vec<f64>| -> Result<(), String> {
        let again: Vec<String> = set_up(setup)?.iter().map(Job::digest).collect();
        if again != digests {
            return Err("input generation gave other jobs for the same seed".to_string());
        }
        Ok(())
    };
    for _ in 1..SETUP_REPS {
        set_up_again(&mut setup)?;
    }
    let computed = ctx
        .refs
        .ensure(&ctx.wootz, &ctx.root, &jobs.iter().collect::<Vec<_>>())?;
    report
        .notes
        .push(format!("references computed in this run: {computed}"));

    // One round runs the next job of the pool in every variant of the
    // cycle. Traced runs pair each traced job with an untraced run of the
    // same job, so the tracing overhead is measured in the same run;
    // prune-cluster adds a local run of the same job, which prices the
    // cluster.
    let cycle: Vec<(Shape, bool)> = match (ctx.trace, cluster) {
        (false, _) => vec![(main_shape, false)],
        (true, false) => vec![(main_shape, true), (main_shape, false)],
        (true, true) => vec![
            (main_shape, true),
            (main_shape, false),
            (
                Shape::Local {
                    threads: ctx.threads,
                },
                false,
            ),
        ],
    };
    // One untimed job first, so the binary, the page cache and the CPU
    // clocks are warm when timing starts. Its output is checked too.
    report.outcome(run_job(ctx, &jobs[0], main_shape, false).map(|_| ()));

    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    let mut done: Vec<Sample> = Vec::new();
    let mut step = 0;
    while step == 0 || step % cycle.len() != 0 || Instant::now() < deadline {
        let round = step / cycle.len();
        let (shape, traced) = cycle[step % cycle.len()];
        step += 1;
        match run_job(ctx, &jobs[round % jobs.len()], shape, traced) {
            Ok(d) => {
                println!(
                    "job round {round} pool#{} traced={traced}: {:.4} s, replay {:.2} ms",
                    round % jobs.len(),
                    d.wall_s,
                    median(&d.replay_s) * 1e3
                );
                // The fresh run and its replays, all checked.
                for _ in 0..=shape.replays() {
                    report.outcome(Ok(()));
                }
                done.push(Sample {
                    round,
                    shape,
                    traced,
                    d,
                });
            }
            Err(e) => report.outcome(Err(e)),
        }
        for _ in 0..SETUP_REPS_PER_JOB {
            set_up_again(&mut setup)?;
        }
    }
    let main: Vec<&Done> = pick(&done, main_shape, false).into_values().collect();

    report.set("setup_s", median(&setup), "s");
    report.set(
        "job_s",
        median(&main.iter().map(|d| d.wall_s).collect::<Vec<_>>()),
        "s",
    );
    report.set(
        "replay_ms",
        median(
            &main
                .iter()
                .flat_map(|d| d.replay_s.iter().map(|r| r * 1e3))
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let rss: Vec<f64> = main
        .iter()
        .map(|d| d.peak_rss_kb as f64 * 1024.0 / 1e6)
        .collect();
    report.set("peak_rss_mb", median(&rss), "MB");
    report.samples.push(("setup_s", setup.len()));
    report.samples.push(("job_s", main.len()));
    report.samples.push(("replay_ms", main.len() * main_shape.replays()));
    report.samples.push(("peak_rss_mb", main.len()));

    if ctx.trace {
        let traced = pick(&done, main_shape, true);
        let untraced = pick(&done, main_shape, false);
        let pairs: Vec<f64> = traced
            .iter()
            .filter_map(|(r, t)| untraced.get(r).map(|u| t.wall_s / u.wall_s - 1.0))
            .collect();
        report.set("trace.overhead_share", median(&pairs), "ratio");
        report
            .samples
            .push(("trace.overhead_share (pairs)", pairs.len()));
        if cluster {
            let local = pick(
                &done,
                Shape::Local {
                    threads: ctx.threads,
                },
                false,
            );
            let gaps: Vec<f64> = untraced
                .iter()
                .filter_map(|(r, c)| local.get(r).map(|l| c.wall_s - l.wall_s))
                .collect();
            report.set("cluster.overhead_s", median(&gaps), "s");
            report
                .samples
                .push(("cluster.overhead_s (pairs)", gaps.len()));
        }
        per_layer(
            ctx,
            &mut report,
            &jobs[0],
            &traced.into_values().collect::<Vec<_>>(),
            cluster,
        )?;
    }
    Ok(report)
}

/// One finished job of the loop, with the round it ran in.
struct Sample {
    round: usize,
    shape: Shape,
    traced: bool,
    d: Done,
}

/// The finished jobs of one variant, by round.
fn pick(done: &[Sample], shape: Shape, traced: bool) -> BTreeMap<usize, &Done> {
    done.iter()
        .filter(|s| s.shape == shape && s.traced == traced)
        .map(|s| (s.round, &s.d))
        .collect()
}

/// The per-layer metrics of a traced prune run.
fn per_layer(
    ctx: &Ctx,
    report: &mut Report,
    job: &Job,
    traced: &[&Done],
    cluster: bool,
) -> Result<(), String> {
    let Some(first) = traced.first() else {
        return Err("no traced job finished".to_string());
    };
    fn m(d: &Done) -> &Metrics {
        d.metrics.as_ref().expect("traced jobs carry metrics")
    }
    let med = |f: &dyn Fn(&Done) -> f64| median(&traced.iter().map(|d| f(d)).collect::<Vec<_>>());
    let traced_wall = med(&|d| d.wall_s);

    let mut tree = Tree::default();
    for d in traced {
        tree.add_job("job", d.wall_s, m(d));
    }
    let pretrain_span = if cluster {
        "cluster.pretrain"
    } else {
        "pretrain.run"
    };
    let teacher = med(&|d| m(d).span_s("pipeline.full_model"));
    let pretrain = med(&|d| m(d).span_s(pretrain_span));
    let explore = med(&|d| m(d).span_s("explore.run"));
    report.set("core.teacher_s", teacher, "s");
    report.set("core.pretrain_s", pretrain, "s");
    report.set("core.explore_s", explore, "s");
    report.set(
        "core.residual_s",
        traced_wall - teacher - pretrain - explore,
        "s",
    );
    let count = |key: &str| first.run.get(key).and_then(Value::as_u64).unwrap_or(0) as f64;
    report.set("core.pretrain.steps", count("pretrain_steps"), "count");
    report.set("core.finetune.steps", count("finetune_steps"), "count");
    report.set("core.blocks", count("blocks_pretrained"), "count");
    report.set("core.evals_fresh", first.evals_fresh as f64, "count");
    report.set("core.journal.bytes", first.journal_bytes as f64, "bytes");
    report.set("core.journal.read_ms", med(&|d| d.journal_read_ms), "ms");

    let c = |name: &str| m(first).counter(name) as f64;
    let fwd_gflop = c("tensor.conv2d.flops") / 1e9;
    let bwd_gflop = c("tensor.conv2d_backward.flops") / 1e9;
    report.set("tensor.conv2d_fwd.gflop", fwd_gflop, "GFLOP");
    report.set("tensor.conv2d_bwd.gflop", bwd_gflop, "GFLOP");
    report.set("tensor.conv2d_fwd.calls", c("tensor.conv2d.calls"), "count");
    report.set(
        "tensor.conv2d_bwd.calls",
        c("tensor.conv2d_backward.calls"),
        "count",
    );
    let probe_threads = if cluster { 1 } else { ctx.threads };
    let rates = probes::kernel_rates(&job.model, 8, probe_threads)?;
    report.set("tensor.conv2d_fwd.gflops", rates.conv_fwd, "GFLOP/s");
    report.set("tensor.conv2d_bwd.gflops", rates.conv_bwd, "GFLOP/s");
    report.set("tensor.matmul.gflops", rates.matmul, "GFLOP/s");
    report.set(
        "tensor.kernel_share",
        med(&|d| {
            let gflop = |name: &str| m(d).counter(name) as f64 / 1e9;
            (gflop("tensor.conv2d.flops") / rates.conv_fwd
                + gflop("tensor.conv2d_backward.flops") / rates.conv_bwd)
                / d.wall_s
        }),
        "ratio",
    );

    report.set("par.tasks", c("par.tasks"), "count");
    report.set(
        "par.chunk_p50_us",
        m(first).hist("par.chunk_wall_us").p50 as f64,
        "us",
    );
    report.set("nn.trainer.steps", c("trainer.steps"), "count");
    report.set(
        "nn.trainer.step_ms_p50",
        med(&|d| m(d).hist("trainer.step_time_us").p50 as f64 / 1e3),
        "ms",
    );
    report.set(
        "nn.trainer.untimed_share",
        med(&|d| {
            1.0 - m(d).hist("trainer.step_time_us").sum as f64 / 1e6 / m(d).span_s("trainer.run")
        }),
        "ratio",
    );
    report.set(
        "nn.eval.fwd_per_bwd",
        c("tensor.conv2d.calls") / c("tensor.conv2d_backward.calls").max(1.0),
        "ratio",
    );
    report.set("nn.arena.fresh", c("arena.fresh"), "count");
    report.set(
        "nn.arena.peak_mb",
        m(first).gauge("arena.peak_live_bytes") / 1e6,
        "MB",
    );
    report.set("wire.frames", c("wire.frames"), "count");
    report.set(
        "wire.frame_kb",
        c("wire.frames_bytes") / 1e3 / c("wire.frames").max(1.0),
        "KB",
    );
    report
        .samples
        .push(("per-layer (traced jobs)", traced.len()));

    if cluster {
        report.set("cluster.tasks", c("cluster.tasks_completed"), "count");
        report.set(
            "cluster.task_ms_p50",
            med(&|d| m(d).hist("cluster.task_wall_ms").p50 as f64),
            "ms",
        );
        report.set(
            "cluster.worker_busy_share",
            med(&|d| m(d).hist("cluster.task_wall_ms").sum as f64 / 1e3 / (2.0 * d.wall_s)),
            "ratio",
        );
        report.notes.push(
            "worker processes export no metrics: tensor, par and nn figures cover the \
             coordinator (teacher training) only"
                .to_string(),
        );
    } else {
        report.unobserved(
            &[
                ("cluster.tasks", "count"),
                ("cluster.task_ms_p50", "ms"),
                ("cluster.worker_busy_share", "ratio"),
                ("cluster.overhead_s", "s"),
            ],
            "no cluster in prune-local",
        );
    }
    report.tree = Some(tree);
    Ok(())
}
