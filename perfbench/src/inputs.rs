//! Seeded workload inputs: the model, the jobs and the files a job reads.
//! The same seed gives the same inputs; the program under test sees only
//! the generated files and texts.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::Command;

use wootz_cluster::Message;

use crate::proc;

/// Output classes of the `resnet_mini_deep` model every job prunes.
const CLASSES: &str = "16";
/// Convolution modules of that model.
const MODULES: &str = "6";
/// Budget of an adaptive explorer (taylor, bandit).
const ADAPTIVE_BUDGET: u64 = 8;

/// Objectives whose constraint the first round of candidates meets, so a
/// job's exploration stays two evaluations long whatever its inputs.
const OBJECTIVES: [&str; 3] = [
    "min ModelSize\nconstraint Accuracy >= 0.05\n",
    "min Flops\nconstraint Accuracy >= 0.05\n",
    "min ModelSize\nconstraint Accuracy >= 0.08\n",
];
/// Exploration strategies of serve-mixed fresh jobs.
const EXPLORERS: [&str; 3] = ["fixed", "taylor", "bandit"];
/// Teacher seeds are drawn below this; every one of them trains without
/// diverging under [`solver`].
const TEACHER_SEEDS: u64 = 256;

/// SplitMix64: a small deterministic stream for deriving inputs from the
/// workload seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5752_4f4f_545a_0001)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The four input texts of one pruning job plus its exploration strategy.
#[derive(Clone)]
pub struct Job {
    pub model: String,
    pub configs: String,
    pub solver: String,
    pub objective: String,
    pub explorer: &'static str,
    pub explorer_budget: u64,
}

/// A job's inputs written out as files, for `wootz prune`.
pub struct JobFiles {
    model: PathBuf,
    configs: PathBuf,
    solver: PathBuf,
    objective: PathBuf,
}

impl Job {
    /// Content identity of the inputs: the key of the job's reference.
    pub fn digest(&self) -> String {
        let mut bytes = Vec::new();
        for part in [
            self.model.as_str(),
            self.configs.as_str(),
            self.solver.as_str(),
            self.objective.as_str(),
            self.explorer,
            &self.explorer_budget.to_string(),
        ] {
            bytes.extend_from_slice(part.as_bytes());
            bytes.push(0xff);
        }
        format!("{:016x}", wootz_fault::fnv1a64(&bytes))
    }

    pub fn write(&self, dir: &Path) -> Result<JobFiles, String> {
        let put = |name: &str, text: &str| -> Result<PathBuf, String> {
            let path = dir.join(name);
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(path)
        };
        Ok(JobFiles {
            model: put("model.prototxt", &self.model)?,
            configs: put("configs.json", &self.configs)?,
            solver: put("solver.prototxt", &self.solver)?,
            objective: put("objective.txt", &self.objective)?,
        })
    }

    /// `wootz prune` arguments for these inputs, before the flags that
    /// choose the execution shape.
    pub fn prune_args(&self, files: &JobFiles) -> Vec<OsString> {
        let mut args: Vec<OsString> = vec!["prune".into(), "--mode".into(), "hierarchical".into()];
        for (flag, path) in [
            ("--model", &files.model),
            ("--configs", &files.configs),
            ("--solver", &files.solver),
            ("--objective", &files.objective),
        ] {
            args.push(flag.into());
            args.push(path.into());
        }
        args.push("--explorer".into());
        args.push(self.explorer.into());
        if self.explorer_budget > 0 {
            args.push("--explorer-budget".into());
            args.push(self.explorer_budget.to_string().into());
        }
        args
    }

    pub fn submit_message(&self) -> Message {
        Message::SubmitJob {
            model: self.model.clone(),
            configs: self.configs.clone(),
            solver: self.solver.clone(),
            objective: self.objective.clone(),
            mode: "hierarchical".to_string(),
            explorer: self.explorer.to_string(),
            explorer_budget: self.explorer_budget,
        }
    }
}

/// Solver of every job: `cub200`, 60 teacher steps, 16 pre-training steps
/// per block, two logical exploration workers. The learning rates are low
/// enough that no teacher, block or fine-tune diverges. Only the seed,
/// which fixes the teacher, varies.
pub fn solver(teacher_seed: u64) -> String {
    format!(
        "dataset: \"cub200\"\nbase_lr: 0.02\npretrain_lr: 0.015\nmax_iter: 60\nbatch_size: 8\n\
         pretrain_iter: 16\nnum_workers: 2\nseed: {teacher_seed}\n"
    )
}

/// A teacher seed drawn from `rng`.
pub fn teacher_seed(rng: &mut Rng) -> u64 {
    rng.next() % TEACHER_SEEDS
}

/// Generates inputs with the shipped `wootz genmodel` and `wootz sample`
/// commands, so their cost is part of set-up.
pub struct Generator<'a> {
    wootz: &'a Path,
    dir: &'a Path,
    model: Option<String>,
    files: usize,
}

impl<'a> Generator<'a> {
    pub fn new(wootz: &'a Path, dir: &'a Path) -> Generator<'a> {
        Generator {
            wootz,
            dir,
            model: None,
            files: 0,
        }
    }

    pub fn model(&mut self) -> Result<String, String> {
        if let Some(m) = &self.model {
            return Ok(m.clone());
        }
        let out = self.dir.join("model.prototxt");
        proc::run(
            Command::new(self.wootz)
                .args(["genmodel", "--classes", CLASSES, "--deep", "--out"])
                .arg(&out),
            self.dir,
            "genmodel",
        )?;
        let text = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
        self.model = Some(text.clone());
        Ok(text)
    }

    pub fn configs(&mut self, count: usize, seed: u64) -> Result<String, String> {
        self.files += 1;
        let out = self.dir.join(format!("configs-{}.json", self.files));
        proc::run(
            Command::new(self.wootz)
                .args([
                    "sample",
                    "--modules",
                    MODULES,
                    "--count",
                    &count.to_string(),
                    "--seed",
                ])
                .arg(seed.to_string())
                .arg("--out")
                .arg(&out),
            self.dir,
            "sample",
        )?;
        std::fs::read_to_string(&out).map_err(|e| e.to_string())
    }

    /// The prune workloads' jobs: `count` 16-configuration subspaces,
    /// each with its own teacher, the fixed explorer and the first
    /// objective.
    pub fn prune_jobs(&mut self, seed: u64, count: usize) -> Result<Vec<Job>, String> {
        let mut rng = Rng::new(seed);
        (0..count)
            .map(|_| {
                let configs_seed = rng.next() % 1_000_000;
                let teacher = teacher_seed(&mut rng);
                Ok(Job {
                    model: self.model()?,
                    configs: self.configs(16, configs_seed)?,
                    solver: solver(teacher),
                    objective: OBJECTIVES[0].to_string(),
                    explorer: "fixed",
                    explorer_budget: 0,
                })
            })
            .collect()
    }

    /// Serve-mixed job number `k`: a 12-configuration subspace drawn from
    /// `rng` with a teacher from `teachers`. Explorer and objective cycle
    /// with `k`, so every run sends the same mix of them.
    pub fn serve_job(&mut self, rng: &mut Rng, teachers: &[u64], k: usize) -> Result<Job, String> {
        let configs_seed = rng.next() % 1_000_000;
        let teacher = teachers[rng.below(teachers.len())];
        let explorer = EXPLORERS[k % EXPLORERS.len()];
        Ok(Job {
            model: self.model()?,
            configs: self.configs(12, configs_seed)?,
            solver: solver(teacher),
            objective: OBJECTIVES[(k / EXPLORERS.len()) % OBJECTIVES.len()].to_string(),
            explorer,
            explorer_budget: if explorer == "fixed" {
                0
            } else {
                ADAPTIVE_BUDGET
            },
        })
    }
}
