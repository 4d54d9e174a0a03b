//! The output check. Every job's best network must equal the reference
//! for its inputs: a plain single-process `--threads 1` run with no store,
//! no journal and no daemon. The determinism contract makes every other
//! execution shape match it bit for bit, so the check holds on any host,
//! at any thread count and on any seed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

use serde_json::Value;

use crate::inputs::Job;
use crate::proc::{self, WorkDir};

/// The part of a result the check compares: configuration index, rates,
/// model size and the accuracy's exact bits. `None` means no network met
/// the objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Best {
    config_index: u64,
    rates: Vec<u64>,
    model_size: u64,
    accuracy_bits: u64,
}

pub type Outcome = Option<Best>;

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn uint(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
}

/// Reads the `best` field of a run result (`wootz prune --out` or a
/// `JobDone` detail).
pub fn best_of(run: &Value) -> Result<Outcome, String> {
    let best = field(run, "best")?;
    if best.is_null() {
        return Ok(None);
    }
    let rates = field(best, "rates")?
        .as_array()
        .ok_or("`rates` is not an array")?
        .iter()
        .map(|r| r.as_u64().ok_or("rate is not an unsigned integer"))
        .collect::<Result<Vec<u64>, _>>()?;
    let accuracy = field(best, "accuracy")?
        .as_f64()
        .ok_or("`accuracy` is not a number")?;
    Ok(Some(Best {
        config_index: uint(best, "config_index")?,
        rates,
        model_size: uint(best, "model_size")?,
        accuracy_bits: accuracy.to_bits(),
    }))
}

fn outcome_json(o: &Outcome) -> String {
    match o {
        None => "null".to_string(),
        Some(b) => format!(
            "{{\"config_index\": {}, \"rates\": {:?}, \"model_size\": {}, \"accuracy_bits\": \"{:016x}\"}}",
            b.config_index, b.rates, b.model_size, b.accuracy_bits
        ),
    }
}

fn outcome_from_json(v: &Value) -> Result<Outcome, String> {
    if v.is_null() {
        return Ok(None);
    }
    let bits = field(v, "accuracy_bits")?
        .as_str()
        .ok_or("`accuracy_bits` is not a string")?;
    let rates = field(v, "rates")?
        .as_array()
        .ok_or("`rates` is not an array")?
        .iter()
        .map(|r| r.as_u64().ok_or("rate is not an unsigned integer"))
        .collect::<Result<Vec<u64>, _>>()?;
    Ok(Some(Best {
        config_index: uint(v, "config_index")?,
        rates,
        model_size: uint(v, "model_size")?,
        accuracy_bits: u64::from_str_radix(bits, 16).map_err(|e| format!("accuracy_bits: {e}"))?,
    }))
}

/// References by input digest: the committed ones, plus those this run
/// computed for inputs the committed file does not cover.
#[derive(Default)]
pub struct References {
    by_digest: BTreeMap<String, Outcome>,
}

impl References {
    /// Loads a references file; a missing file is an empty set.
    pub fn load(path: &Path) -> Result<References, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(References::default()),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut by_digest = BTreeMap::new();
        for (digest, o) in v.as_object().ok_or("references must be a JSON object")? {
            let o =
                outcome_from_json(o).map_err(|e| format!("{}: {digest}: {e}", path.display()))?;
            by_digest.insert(digest.clone(), o);
        }
        Ok(References { by_digest })
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        let body: Vec<String> = self
            .by_digest
            .iter()
            .map(|(d, o)| format!("  \"{d}\": {}", outcome_json(o)))
            .collect();
        std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Computes the references `jobs` still lack, two single-threaded runs
    /// at a time. Called outside every timed phase.
    pub fn ensure(&mut self, wootz: &Path, root: &Path, jobs: &[&Job]) -> Result<usize, String> {
        let mut todo: Vec<&Job> = Vec::new();
        for job in jobs {
            let d = job.digest();
            if !self.by_digest.contains_key(&d) && !todo.iter().any(|j| j.digest() == d) {
                todo.push(job);
            }
        }
        let computed = todo.len();
        let queue = Mutex::new(todo);
        let results: Mutex<Vec<(String, Result<Outcome, String>)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let Some(job) = queue.lock().expect("reference queue poisoned").pop() else {
                        return;
                    };
                    let r = reference_run(wootz, root, job);
                    results
                        .lock()
                        .expect("reference results poisoned")
                        .push((job.digest(), r));
                });
            }
        });
        for (digest, r) in results.into_inner().expect("reference results poisoned") {
            self.by_digest.insert(digest, r?);
        }
        Ok(computed)
    }

    pub fn check(&self, job: &Job, got: &Outcome) -> Result<(), String> {
        let d = job.digest();
        match self.by_digest.get(&d) {
            None => Err(format!("no reference for job {d}")),
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!(
                "job {d}: best network {} differs from reference {}",
                outcome_json(got),
                outcome_json(want)
            )),
        }
    }
}

fn reference_run(wootz: &Path, root: &Path, job: &Job) -> Result<Outcome, String> {
    let dir = WorkDir::new(root, "ref")?;
    let files = job.write(dir.path())?;
    let out = dir.join("ref.json");
    let inputs = format!(
        "job {} (explorer {}, objective {:?}, solver {:?}, configs {})",
        job.digest(),
        job.explorer,
        job.objective,
        job.solver,
        job.configs.split_whitespace().collect::<String>()
    );
    proc::run(
        Command::new(wootz)
            .args(job.prune_args(&files))
            .args(["--threads", "1", "--out"])
            .arg(&out),
        dir.path(),
        "reference",
    )
    .map_err(|e| format!("reference run of {inputs}: {e}"))?;
    let text = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
    best_of(&serde_json::from_str(&text).map_err(|e| format!("reference result: {e}"))?)
}
