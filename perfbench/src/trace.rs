//! Reading a job's `--metrics-out` file and folding its spans into a
//! wall-time tree whose levels add up: every node with children shows the
//! part of its time that no child covers as an explicit residual.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

/// One span of a `wootz-obs/1` metrics file.
#[derive(Clone)]
struct Span {
    path: String,
    depth: u64,
    thread: String,
    start_us: u64,
    dur_us: u64,
}

impl Span {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    fn contains(&self, other: &Span) -> bool {
        self.start_us <= other.start_us && other.end_us() <= self.end_us()
    }
}

/// Histogram summary as exported.
#[derive(Clone, Copy, Default)]
pub struct Hist {
    pub sum: u64,
    pub p50: u64,
}

/// The instruments of one process's metrics file.
#[derive(Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
    spans: Vec<Span>,
}

impl Metrics {
    pub fn load(path: &Path) -> Result<Metrics, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut m = Metrics::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v: Value = serde_json::from_str(line).map_err(|e| format!("metrics line: {e}"))?;
            let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            let u = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
            match v.get("kind").and_then(Value::as_str) {
                Some("counter") => {
                    m.counters.insert(s("name"), u("value"));
                }
                Some("gauge") => {
                    let value = v.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                    m.gauges.insert(s("name"), value);
                }
                Some("histogram") => {
                    let h = Hist {
                        sum: u("sum"),
                        p50: u("p50"),
                    };
                    m.hists.insert(s("name"), h);
                }
                Some("span") => m.spans.push(Span {
                    path: s("path"),
                    depth: u("depth"),
                    thread: s("thread"),
                    start_us: u("start_us"),
                    dur_us: u("dur_us"),
                }),
                _ => {}
            }
        }
        Ok(m)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.hists.get(name).copied().unwrap_or_default()
    }

    /// Summed seconds of every span whose path ends in `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.path == name || s.path.ends_with(&format!("/{name}")))
            .map(|s| s.dur_us as f64 / 1e6)
            .sum()
    }

    /// Spans with full paths: a root span of a helper thread is placed
    /// under the deepest main-thread span open when it started, or beside
    /// it when that span has the same name (the main thread running one
    /// of several parallel pieces itself), and its descendants follow it.
    fn rooted_spans(&self) -> Vec<Span> {
        let main: Vec<&Span> = self.spans.iter().filter(|s| s.thread == "main").collect();
        let prefix_of = |root: &Span| -> String {
            let Some(open) = main
                .iter()
                .filter(|m| m.start_us <= root.start_us && root.start_us <= m.end_us())
                .max_by_key(|m| m.depth)
            else {
                return String::new();
            };
            let parent =
                if open.path == root.path || open.path.ends_with(&format!("/{}", root.path)) {
                    open.path.rsplit_once('/').map_or("", |(p, _)| p)
                } else {
                    open.path.as_str()
                };
            if parent.is_empty() {
                String::new()
            } else {
                format!("{parent}/")
            }
        };
        self.spans
            .iter()
            .map(|s| {
                if s.thread == "main" {
                    return s.clone();
                }
                let root = self
                    .spans
                    .iter()
                    .filter(|r| r.thread == s.thread && r.depth == 0 && r.contains(s))
                    .min_by_key(|r| r.dur_us)
                    .unwrap_or(s);
                Span {
                    path: format!("{}{}", prefix_of(root), s.path),
                    ..s.clone()
                }
            })
            .collect()
    }
}

/// Length of the union of `intervals` (start, end) in microseconds.
fn covered_us(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A wall-time tree summed over jobs: per node path, total seconds and
/// the seconds its children leave uncovered.
#[derive(Default)]
pub struct Tree {
    order: Vec<String>,
    nodes: BTreeMap<String, (f64, f64, bool)>,
    jobs: usize,
}

impl Tree {
    /// Adds a node occurrence: `seconds` long, with `residual` seconds not
    /// covered by its children (`None` for a leaf).
    pub fn add(&mut self, path: &str, seconds: f64, residual: Option<f64>) {
        if !self.nodes.contains_key(path) {
            self.order.push(path.to_string());
        }
        let n = self
            .nodes
            .entry(path.to_string())
            .or_insert((0.0, 0.0, false));
        n.0 += seconds;
        if let Some(r) = residual {
            n.1 += r;
            n.2 = true;
        }
    }

    /// Adds one traced job: the wall time measured from outside, with the
    /// process's spans below it.
    pub fn add_job(&mut self, root: &str, wall_s: f64, metrics: &Metrics) {
        self.jobs += 1;
        let spans = metrics.rooted_spans();
        let children_of = |parent: Option<&Span>| -> Vec<(u64, u64)> {
            spans
                .iter()
                .filter(|c| match parent {
                    None => !c.path.contains('/'),
                    Some(p) => {
                        c.path.len() > p.path.len()
                            && c.path.starts_with(&p.path)
                            && c.path[p.path.len()..].starts_with('/')
                            && !c.path[p.path.len() + 1..].contains('/')
                            && p.contains(c)
                    }
                })
                .map(|c| (c.start_us, c.end_us()))
                .collect()
        };
        let top = children_of(None);
        let residual = wall_s - covered_us(top) as f64 / 1e6;
        self.add(root, wall_s, Some(residual));
        let mut sorted = spans.clone();
        sorted.sort_by_key(|s| (s.start_us, s.depth));
        for s in &sorted {
            let kids = children_of(Some(s));
            let secs = s.dur_us as f64 / 1e6;
            let residual = (!kids.is_empty()).then(|| secs - covered_us(kids) as f64 / 1e6);
            self.add(&format!("{root}/{}", s.path), secs, residual);
        }
    }

    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs;
    }

    /// Rendered per job: indentation follows the path, every node with
    /// children shows its residual.
    pub fn render(&self) -> String {
        let per = self.jobs.max(1) as f64;
        let mut paths = self.order.clone();
        // Children directly after their parent, siblings in start order.
        paths.sort_by_key(|p| {
            let mut key = Vec::new();
            let mut prefix = String::new();
            for part in p.split('/') {
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(part);
                key.push(
                    self.order
                        .iter()
                        .position(|o| *o == prefix)
                        .unwrap_or(usize::MAX),
                );
            }
            key
        });
        let mut out = String::new();
        for p in paths {
            let (secs, residual, has_kids) = self.nodes[&p];
            let depth = p.matches('/').count();
            let name = p.rsplit('/').next().unwrap_or(&p);
            out.push_str(&format!(
                "{:indent$}{name:<32} {:>9.4} s",
                "",
                secs / per,
                indent = 2 * depth
            ));
            if has_kids {
                out.push_str(&format!("   residual {:>8.4} s", residual / per));
            }
            out.push('\n');
        }
        out
    }

    /// The tree as JSON: path -> {seconds, residual_s?}, per job.
    pub fn to_json(&self) -> String {
        let per = self.jobs.max(1) as f64;
        let body: Vec<String> = self
            .order
            .iter()
            .map(|p| {
                let (secs, residual, has_kids) = self.nodes[p];
                let r = if has_kids {
                    format!(", \"residual_s\": {}", residual / per)
                } else {
                    String::new()
                };
                format!("    {{\"path\": \"{p}\", \"seconds\": {}{r}}}", secs / per)
            })
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    }
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}
