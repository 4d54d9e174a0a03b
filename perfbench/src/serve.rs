//! The `serve-mixed` workload: one `wootz serve` daemon with a fresh store
//! and state dir, warmed during set-up, and one client that sends a seeded
//! closed-loop stream of fresh jobs, each followed by resubmissions of
//! jobs that already finished. The daemon reads one `SubmitJob` per
//! connection, so every submission opens its own connection.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::Value;
use wootz_cluster::{job_code, Message};
use wootz_wire::Limits;

use crate::check::best_of;
use crate::inputs::{self, Generator, Job, Rng};
use crate::proc::{self, WorkDir};
use crate::report::Report;
use crate::trace::{median, quantile, Tree};
use crate::{probes, Ctx};

/// Teachers the fresh jobs draw from: few, so blocks repeat across jobs.
const TEACHERS: usize = 2;
/// Resubmissions after each fresh job: it and the fresh jobs just before
/// it, so every fresh job is replayed this often and the replayed mix
/// follows the fresh mix.
const REPLAYS_PER_FRESH: usize = 4;
/// Longest a submission may take before the run fails.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(120);
/// Kernel threads of the daemon: one, so prune-local stays the one
/// workload whose processes run two.
const DAEMON_THREADS: &str = "1";
/// Busy answers a submission retries, one millisecond apart.
const BUSY_RETRIES: usize = 1000;

/// The daemon process; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(wootz: &Path, dir: &WorkDir) -> Result<Daemon, String> {
        let stderr = std::fs::File::create(dir.join("daemon.stderr")).map_err(|e| e.to_string())?;
        let mut child = Command::new(wootz)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--threads",
                DAEMON_THREADS,
                "--store",
            ])
            .arg(dir.join("store"))
            .arg("--state")
            .arg(dir.join("state"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // Keep draining, so the daemon never writes into a closed pipe.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        read.map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .strip_prefix("serving on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("daemon did not start: `{}`", line.trim()))?
            .to_string();
        Ok(daemon)
    }

    /// Stops the daemon and returns its peak resident set in KiB.
    fn stop(mut self) -> Result<u64, String> {
        self.child.kill().map_err(|e| e.to_string())?;
        let (_, rss) = proc::wait_peak_rss(&self.child).map_err(|e| e.to_string())?;
        self.join_drain();
        std::mem::forget(self);
        Ok(rss)
    }

    fn join_drain(&mut self) {
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = proc::wait_peak_rss(&self.child);
        self.join_drain();
    }
}

/// One submission as the client saw it.
struct Submission {
    wall_s: f64,
    /// Seconds since submission and the event line, per `JobEvent`.
    events: Vec<(f64, Value)>,
    job: String,
    detail: String,
    frames: u64,
    bytes: u64,
}

impl Submission {
    fn count(&self, kind: &str) -> usize {
        self.events
            .iter()
            .filter(|(_, e)| event_kind(e) == kind)
            .count()
    }

    fn keys(&self, kind: &str) -> Vec<String> {
        self.events
            .iter()
            .filter(|(_, e)| event_kind(e) == kind)
            .filter_map(|(_, e)| e.get("key").and_then(Value::as_str).map(str::to_string))
            .collect()
    }
}

fn event_kind(e: &Value) -> &str {
    e.get("event").and_then(Value::as_str).unwrap_or("")
}

/// Sends `job` and reads events until `JobDone`, timing from the first
/// connect to the terminal frame. A `busy` answer means the daemon still
/// holds the same job, which it releases just after its `JobDone`; as the
/// protocol asks, the client then submits again (counted in `busy`).
fn submit(addr: &str, job: &Job, busy: &mut usize) -> Result<Submission, String> {
    let started = Instant::now();
    let (mut frames, mut bytes) = (0u64, 0u64);
    for _ in 0..=BUSY_RETRIES {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(SUBMIT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let sent = job
            .submit_message()
            .write_to(&mut stream)
            .map_err(|e| format!("send: {e}"))?;
        frames += 1;
        bytes += sent as u64;
        let mut events = Vec::new();
        loop {
            let (msg, n) = Message::read_from(&mut stream, &Limits::DEFAULT)
                .map_err(|e| format!("receive: {e}"))?;
            frames += 1;
            bytes += n as u64;
            match msg {
                Message::JobEvent { event, .. } => {
                    let v: Value =
                        serde_json::from_str(&event).map_err(|e| format!("event: {e}"))?;
                    events.push((started.elapsed().as_secs_f64(), v));
                }
                Message::JobDone {
                    code: job_code::BUSY,
                    ..
                } => {
                    *busy += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
                Message::JobDone { job, code, detail } => {
                    if code != job_code::OK {
                        return Err(format!("job {job} ended with code {code}: {detail}"));
                    }
                    return Ok(Submission {
                        wall_s: started.elapsed().as_secs_f64(),
                        events,
                        job,
                        detail,
                        frames,
                        bytes,
                    });
                }
                other => return Err(format!("unexpected {} from the daemon", other.name())),
            }
        }
    }
    Err(format!(
        "the daemon answered busy {BUSY_RETRIES} times in a row"
    ))
}

/// A fresh job must have evaluated something and must not repeat a job
/// id; a replay must return its first submission's `JobDone` detail byte
/// for byte and must have evaluated and pre-trained nothing.
fn check_fresh(s: &Submission, seen: &BTreeSet<String>) -> Result<(), String> {
    if seen.contains(&s.job) {
        return Err(format!("fresh job {} reused an earlier job id", s.job));
    }
    if s.count("eval_done") == 0 {
        return Err(format!("fresh job {} evaluated nothing", s.job));
    }
    Ok(())
}

fn check_replay(s: &Submission, first: &Submission) -> Result<(), String> {
    if s.detail != first.detail {
        return Err(format!(
            "replay of {} returned a JobDone detail that differs from its first submission's: {}",
            first.job,
            detail_diff(&first.detail, &s.detail)
        ));
    }
    if s.count("eval_done") + s.count("block_pretrained") > 0 {
        return Err(format!("replay of {} did fresh work", first.job));
    }
    Ok(())
}

/// The top-level fields of two `JobDone` details that differ, as
/// `field first -> replay`.
fn detail_diff(first: &str, replay: &str) -> String {
    let (Ok(a), Ok(b)) = (
        serde_json::from_str::<Value>(first),
        serde_json::from_str::<Value>(replay),
    ) else {
        return format!("{first} -> {replay}");
    };
    let text = |v: Option<&Value>| {
        v.and_then(|v| serde_json::to_string(v).ok())
            .unwrap_or_default()
    };
    let mut keys: Vec<&String> = Vec::new();
    for (k, _) in a.as_object().into_iter().chain(b.as_object()).flatten() {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let diffs: Vec<String> = keys
        .into_iter()
        .filter(|k| text(a.get(k)) != text(b.get(k)))
        .map(|k| format!("{k} {} -> {}", text(a.get(k)), text(b.get(k))))
        .collect();
    if diffs.is_empty() {
        "same fields, different bytes".to_string()
    } else {
        diffs.join(", ")
    }
}

fn store_files(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| {
        d.filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".blk"))
            .count()
    })
}

/// Splits a fresh job's wall time by the event that closes each gap:
/// teacher (up to `full_model`), pre-training (gaps closed by block
/// events), exploration (gaps closed by `eval_done`) and the tail after
/// the last event.
fn phases(s: &Submission) -> [f64; 4] {
    let mut p = [0.0; 4];
    let mut last = 0.0;
    for (t, e) in &s.events {
        let i = match event_kind(e) {
            "full_model" => 0,
            "block_cache_hit" | "block_pretrained" => 1,
            _ => 2,
        };
        p[i] += t - last;
        last = *t;
    }
    p[3] = s.wall_s - last;
    p
}

/// The seeded job stream: teachers, one warm-up job per teacher, then
/// fresh jobs that never repeat an earlier job's inputs.
pub struct Stream {
    rng: Rng,
    teachers: Vec<u64>,
    digests: BTreeSet<String>,
    fresh: usize,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        let mut teachers = Vec::new();
        while teachers.len() < TEACHERS {
            let t = inputs::teacher_seed(&mut rng);
            if !teachers.contains(&t) {
                teachers.push(t);
            }
        }
        Stream {
            rng,
            teachers,
            digests: BTreeSet::new(),
            fresh: 0,
        }
    }

    /// One fixed-explorer job per teacher.
    pub fn warmups(&mut self, gen: &mut Generator) -> Result<Vec<Job>, String> {
        let teachers = self.teachers.clone();
        let mut jobs = Vec::new();
        for t in teachers {
            let job = gen.serve_job(&mut self.rng, &[t], 0)?;
            self.digests.insert(job.digest());
            jobs.push(job);
        }
        Ok(jobs)
    }

    pub fn next_fresh(&mut self, gen: &mut Generator) -> Result<Job, String> {
        loop {
            let job = gen.serve_job(&mut self.rng, &self.teachers, self.fresh)?;
            if self.digests.insert(job.digest()) {
                self.fresh += 1;
                return Ok(job);
            }
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let work = WorkDir::new(&ctx.root, "serve")?;
    let inputs_dir = work.join("inputs");
    std::fs::create_dir(&inputs_dir).map_err(|e| e.to_string())?;
    let mut gen = Generator::new(&ctx.wootz, &inputs_dir);
    let mut stream = Stream::new(ctx.seed);

    // Set-up: inputs, daemon start and store warm-up (one job per teacher).
    let started = Instant::now();
    let warmups = stream.warmups(&mut gen)?;
    let daemon = Daemon::start(&ctx.wootz, &work)?;
    let mut seen = BTreeSet::new();
    let mut busy = 0usize;
    let mut checked: Vec<(Job, Submission)> = Vec::new();
    for job in warmups {
        let s = submit(&daemon.addr, &job, &mut busy)?;
        check_fresh(&s, &seen)?;
        seen.insert(s.job.clone());
        checked.push((job, s));
    }
    let setup_s = started.elapsed().as_secs_f64();
    let store_dir = work.join("store");
    let warm_entries = store_files(&store_dir);

    // The measured closed loop.
    let mut fresh: Vec<(Job, Submission)> = Vec::new();
    let mut replays: Vec<Submission> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    while Instant::now() < deadline || (fresh.is_empty() && report.failed == 0) {
        let job = stream.next_fresh(&mut gen)?;
        match submit(&daemon.addr, &job, &mut busy).and_then(|s| check_fresh(&s, &seen).map(|()| s))
        {
            Ok(s) => {
                seen.insert(s.job.clone());
                fresh.push((job, s));
            }
            Err(e) => {
                report.outcome(Err(e));
                continue;
            }
        }
        for back in 0..REPLAYS_PER_FRESH.min(fresh.len()) {
            let (job, first) = &fresh[fresh.len() - 1 - back];
            // A replay with a wrong result still took its time: it counts
            // as failed and its latency is kept.
            match submit(&daemon.addr, job, &mut busy) {
                Ok(s) => {
                    report.outcome(check_replay(&s, first));
                    replays.push(s);
                }
                Err(e) => report.outcome(Err(e)),
            }
        }
    }
    let peak_rss_kb = daemon.stop()?;

    // Every first submission against its reference, outside the timed
    // phases.
    checked.append(&mut fresh);
    let (warm, fresh) = checked.split_at(TEACHERS);
    let jobs: Vec<&Job> = checked.iter().map(|(j, _)| j).collect();
    let computed = ctx.refs.ensure(&ctx.wootz, &ctx.root, &jobs)?;
    report
        .notes
        .push(format!("references computed in this run: {computed}"));
    for (job, s) in &checked {
        let r = serde_json::from_str(&s.detail)
            .map_err(|e| format!("job {} detail: {e}", s.job))
            .and_then(|v| best_of(&v))
            .and_then(|best| ctx.refs.check(job, &best));
        report.outcome(r);
    }

    let fresh_walls: Vec<f64> = fresh.iter().map(|(_, s)| s.wall_s).collect();
    let replay_ms: Vec<f64> = replays.iter().map(|s| s.wall_s * 1e3).collect();
    report.set("setup_s", setup_s, "s");
    report.set("job_s", median(&fresh_walls), "s");
    report.set("replay_ms", median(&replay_ms), "ms");
    report.set("peak_rss_mb", peak_rss_kb as f64 * 1024.0 / 1e6, "MB");
    report.samples.push(("setup_s", 1));
    report.samples.push(("job_s", fresh.len()));
    report.samples.push(("replay_ms", replays.len()));
    report.samples.push(("peak_rss_mb", 1));
    report
        .notes
        .push(format!("store warm-up jobs: {}", warm.len()));
    report
        .notes
        .push(format!("busy answers resubmitted: {busy}"));

    if ctx.trace {
        per_layer(&mut report, &work, fresh, &replays, warm_entries)?;
    }
    Ok(report)
}

fn per_layer(
    report: &mut Report,
    work: &WorkDir,
    fresh: &[(Job, Submission)],
    replays: &[Submission],
    warm_entries: usize,
) -> Result<(), String> {
    let n = fresh.len() as f64;
    let mut tree = Tree::default();
    let mut sums = [0.0; 4];
    for (_, s) in fresh {
        let p = phases(s);
        tree.add("job", s.wall_s, Some(p[3]));
        for (name, v) in ["teacher", "pretrain", "explore"].iter().zip(p) {
            tree.add(&format!("job/{name}"), v, None);
        }
        for (sum, v) in sums.iter_mut().zip(p) {
            *sum += v;
        }
    }
    tree.set_jobs(fresh.len());
    let mut replay_tree = Tree::default();
    for s in replays {
        let first = s.events.first().map_or(s.wall_s, |(t, _)| *t);
        let last = s.events.last().map_or(s.wall_s, |(t, _)| *t);
        replay_tree.add("replay", s.wall_s, Some(s.wall_s - last));
        replay_tree.add("replay/first_event", first, None);
        replay_tree.add("replay/events", last - first, None);
    }
    replay_tree.set_jobs(replays.len());
    report.set("core.teacher_s", sums[0] / n, "s");
    report.set("core.pretrain_s", sums[1] / n, "s");
    report.set("core.explore_s", sums[2] / n, "s");
    report.set("core.residual_s", sums[3] / n, "s");

    let mean = |f: &dyn Fn(&Value) -> f64| {
        fresh
            .iter()
            .map(|(_, s)| serde_json::from_str::<Value>(&s.detail).map_or(0.0, |v| f(&v)))
            .sum::<f64>()
            / n
    };
    let field =
        |key: &'static str| move |v: &Value| v.get(key).and_then(Value::as_u64).unwrap_or(0) as f64;
    report.set(
        "core.pretrain.steps",
        mean(&field("pretrain_steps")),
        "count",
    );
    report.set(
        "core.finetune.steps",
        mean(&field("finetune_steps")),
        "count",
    );
    report.set("core.blocks", mean(&field("blocks_pretrained")), "count");
    let evals: usize = fresh.iter().map(|(_, s)| s.count("eval_done")).sum();
    report.set("core.evals_fresh", evals as f64 / n, "count");

    // Journals and store, probed after the daemon stopped.
    let journal_of = |s: &Submission| {
        work.join("state")
            .join("jobs")
            .join(format!("{}.journal", s.job))
    };
    let journals: Vec<PathBuf> = fresh.iter().map(|(_, s)| journal_of(s)).collect();
    let sizes: Vec<f64> = journals
        .iter()
        .map(|p| {
            std::fs::metadata(p)
                .map(|m| m.len() as f64)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    report.set("core.journal.bytes", median(&sizes), "bytes");
    let refs: Vec<&Path> = journals.iter().map(PathBuf::as_path).collect();
    report.set(
        "core.journal.read_ms",
        median(&probes::journal_read_ms(&refs)?),
        "ms",
    );

    let store_dir = work.join("store");
    let (mut hits, mut lookups, mut served) = (0usize, 0usize, 0u64);
    let mut keys = Vec::new();
    for ((job, s), journal) in fresh.iter().zip(&journals) {
        let by_block = probes::block_store_keys(journal, &job.solver)?;
        for k in s.keys("block_cache_hit") {
            let key = by_block
                .get(&k)
                .ok_or_else(|| format!("hit {k} is not in its journal"))?;
            served += std::fs::metadata(store_dir.join(key.file_name())).map_or(0, |m| m.len());
        }
        hits += s.count("block_cache_hit");
        lookups += s.count("block_cache_hit") + s.count("block_pretrained");
        keys.extend(by_block.into_values());
    }
    let key_refs: Vec<_> = keys.iter().collect();
    let (open_ms, get_us) = probes::store_timings(&store_dir, &key_refs)?;
    report.set(
        "store.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.set(
        "store.inserts",
        store_files(&store_dir).saturating_sub(warm_entries) as f64,
        "count",
    );
    report.set("store.served_mb", served as f64 / 1e6, "MB");
    report.set("store.get_us_p50", median(&get_us), "us");
    report.set("store.open_ms", median(&open_ms), "ms");

    let frames: u64 = fresh.iter().map(|(_, s)| s.frames).sum::<u64>()
        + replays.iter().map(|s| s.frames).sum::<u64>();
    let bytes: u64 = fresh.iter().map(|(_, s)| s.bytes).sum::<u64>()
        + replays.iter().map(|s| s.bytes).sum::<u64>();
    let submissions = (fresh.len() + replays.len()) as f64;
    report.set("wire.frames", frames as f64 / submissions, "count");
    report.set(
        "wire.frame_kb",
        bytes as f64 / 1e3 / frames.max(1) as f64,
        "KB",
    );

    let first_ms: Vec<f64> = fresh
        .iter()
        .filter_map(|(_, s)| s.events.first().map(|(t, _)| t * 1e3))
        .collect();
    let tail_ms: Vec<f64> = fresh
        .iter()
        .filter_map(|(_, s)| s.events.last().map(|(t, _)| (s.wall_s - t) * 1e3))
        .collect();
    let replay_ms: Vec<f64> = replays.iter().map(|s| s.wall_s * 1e3).collect();
    report.set("serve.first_event_ms", median(&first_ms), "ms");
    report.set("serve.tail_ms", median(&tail_ms), "ms");
    report.set("serve.replay_p90_ms", quantile(&replay_ms, 0.9), "ms");
    report.set("serve.replay_samples", replay_ms.len() as f64, "count");

    let rates = probes::kernel_rates(&fresh[0].0.model, 8, 1)?;
    report.set("tensor.conv2d_fwd.gflops", rates.conv_fwd, "GFLOP/s");
    report.set("tensor.conv2d_bwd.gflops", rates.conv_bwd, "GFLOP/s");
    report.set("tensor.matmul.gflops", rates.matmul, "GFLOP/s");
    report.set("trace.overhead_share", 0.0, "ratio");
    report.notes.push(
        "serve-mixed is traced from the client only; the daemon runs as in untraced runs, \
         so trace.overhead_share is 0"
            .to_string(),
    );
    report.unobserved(
        &[
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
        ],
        "the daemon writes its metrics only at exit, and the benchmark stops it with SIGKILL",
    );
    report.unobserved(
        &[
            ("cluster.tasks", "count"),
            ("cluster.task_ms_p50", "ms"),
            ("cluster.worker_busy_share", "ratio"),
            ("cluster.overhead_s", "s"),
        ],
        "no cluster in serve-mixed",
    );
    report.samples.push(("per-layer (fresh jobs)", fresh.len()));
    report.samples.push(("serve.replay_p90_ms", replays.len()));
    report.tree = Some(tree);
    report.replay_tree = Some(replay_tree);
    Ok(())
}
