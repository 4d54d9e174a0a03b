//! Layer probes: timed calls into the library's public functions, made
//! from this process after (never during) the measured jobs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use wootz_core::journal::read_journal;
use wootz_core::pipeline::{block_pretrain_config, store_solver_hash};
use wootz_ir::{LayerKind, ModelIr, SolverConfig};
use wootz_store::{BlockStore, StoreKey};
use wootz_tensor::ops::{conv2d, conv2d_backward, conv2d_out_dim, matmul, Conv2dCfg};
use wootz_tensor::Tensor;

/// Seconds each kernel probe keeps calling its kernel.
const PROBE_S: f64 = 0.4;

/// One convolution of the workload model.
struct ConvShape {
    c: usize,
    h: usize,
    w: usize,
    co: usize,
    k: usize,
    cfg: Conv2dCfg,
}

/// The model's convolutions, with input shapes inferred layer by layer.
fn conv_shapes(model: &str) -> Result<Vec<ConvShape>, String> {
    let ir = ModelIr::parse(model).map_err(|e| e.to_string())?;
    let stats = wootz_core::stats::model_stats(&ir);
    let input = ir.input();
    let mut blobs = BTreeMap::new();
    blobs.insert(
        input.name.clone(),
        (input.channels, input.height, input.width),
    );
    let mut shapes = Vec::new();
    for (layer, st) in ir.layers().iter().zip(&stats.layers) {
        if let LayerKind::Convolution {
            num_output,
            kernel_size,
            stride,
            pad,
        } = &layer.kind
        {
            let (c, h, w) = *blobs
                .get(&layer.bottoms[0])
                .ok_or_else(|| format!("layer {} reads an unknown blob", layer.name))?;
            shapes.push(ConvShape {
                c,
                h,
                w,
                co: *num_output,
                k: *kernel_size,
                cfg: Conv2dCfg {
                    stride: *stride,
                    pad: *pad,
                },
            });
        }
        blobs.insert(layer.top.clone(), st.output);
    }
    Ok(shapes)
}

fn filled(shape: &[usize]) -> Tensor {
    Tensor::from_fn(shape, |i| ((i % 13) as f32 - 6.0) * 0.01)
}

/// Calls `sweep` (one pass over every shape, returning its FLOPs) until
/// [`PROBE_S`] has passed; returns GFLOP/s.
fn rate(mut sweep: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut flops = 0u64;
    while started.elapsed().as_secs_f64() < PROBE_S {
        flops += sweep();
    }
    flops as f64 / started.elapsed().as_secs_f64() / 1e9
}

/// GFLOP/s of conv forward, conv backward and matmul at the workload
/// model's own layer shapes and batch size, on the kernel pool of
/// `threads` threads. Convolution FLOPs are the program's own counters.
pub struct KernelRates {
    pub conv_fwd: f64,
    pub conv_bwd: f64,
    pub matmul: f64,
}

pub fn kernel_rates(model: &str, batch: usize, threads: usize) -> Result<KernelRates, String> {
    wootz_par::set_threads(threads);
    let shapes = conv_shapes(model)?;
    let cases: Vec<(Tensor, Tensor, Tensor, Tensor, Conv2dCfg)> = shapes
        .iter()
        .map(|s| {
            let ho = conv2d_out_dim(s.h, s.k, s.cfg.stride, s.cfg.pad);
            let wo = conv2d_out_dim(s.w, s.k, s.cfg.stride, s.cfg.pad);
            (
                filled(&[batch, s.c, s.h, s.w]),
                filled(&[s.co, s.c, s.k, s.k]),
                filled(&[s.co]),
                filled(&[batch, s.co, ho, wo]),
                s.cfg,
            )
        })
        .collect();
    let fwd_flops = wootz_obs::counter("tensor.conv2d.flops");
    let bwd_flops = wootz_obs::counter("tensor.conv2d_backward.flops");
    let conv_fwd = rate(|| {
        let before = fwd_flops.get();
        for (x, w, b, _, cfg) in &cases {
            black_box(conv2d(black_box(x), w, b, *cfg));
        }
        fwd_flops.get() - before
    });
    let conv_bwd = rate(|| {
        let before = bwd_flops.get();
        for (x, w, _, dy, cfg) in &cases {
            black_box(conv2d_backward(black_box(x), w, dy, *cfg));
        }
        bwd_flops.get() - before
    });
    // The GEMM each convolution lowers to per sample:
    // [co, c*k*k] x [c*k*k, ho*wo].
    let gemms: Vec<(Tensor, Tensor, u64)> = shapes
        .iter()
        .map(|s| {
            let kk = s.c * s.k * s.k;
            let n = conv2d_out_dim(s.h, s.k, s.cfg.stride, s.cfg.pad)
                * conv2d_out_dim(s.w, s.k, s.cfg.stride, s.cfg.pad);
            (
                filled(&[s.co, kk]),
                filled(&[kk, n]),
                2 * (s.co * kk * n) as u64,
            )
        })
        .collect();
    let matmul_rate = rate(|| {
        let mut flops = 0;
        for (a, b, f) in &gemms {
            black_box(matmul(black_box(a), b));
            flops += f;
        }
        flops
    });
    Ok(KernelRates {
        conv_fwd,
        conv_bwd,
        matmul: matmul_rate,
    })
}

/// Milliseconds `read_journal` takes on each of `journals`.
pub fn journal_read_ms(journals: &[&Path]) -> Result<Vec<f64>, String> {
    journals
        .iter()
        .map(|p| {
            let started = Instant::now();
            let (_, replay) = read_journal(p).map_err(|e| format!("{}: {e}", p.display()))?;
            black_box(replay);
            Ok(started.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// The store keys of every block a finished job's journal records, by
/// block key: the journal holds the teacher the key is derived from.
pub fn block_store_keys(
    journal: &Path,
    solver: &str,
) -> Result<BTreeMap<String, StoreKey>, String> {
    let solver = SolverConfig::parse(solver).map_err(|e| e.to_string())?;
    let (_, replay) = read_journal(journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let (teacher, _) = replay
        .full
        .ok_or_else(|| format!("{} holds no teacher", journal.display()))?;
    let hash = store_solver_hash(&teacher, &block_pretrain_config(&solver));
    Ok(replay
        .blocks
        .keys()
        .map(|k| {
            let key = StoreKey {
                structure: wootz_fault::fnv1a64(k.as_bytes()),
                dataset: solver.dataset.clone(),
                solver: hash,
            };
            (k.clone(), key)
        })
        .collect())
}

/// Timed `BlockStore::open` (milliseconds) of the run's store, then timed
/// `BlockStore::get` (microseconds) of each key. Every key must hit.
pub fn store_timings(dir: &Path, keys: &[&StoreKey]) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut open_ms = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let store = BlockStore::open(dir, None).map_err(|e| e.to_string())?;
        open_ms.push(started.elapsed().as_secs_f64() * 1e3);
        black_box(store);
    }
    let store = BlockStore::open(dir, None).map_err(|e| e.to_string())?;
    let mut get_us = Vec::new();
    for key in keys {
        let started = Instant::now();
        let entry = store.get(key);
        get_us.push(started.elapsed().as_secs_f64() * 1e6);
        if entry.is_none() {
            return Err(format!(
                "store probe: {} is not in the store",
                key.file_name()
            ));
        }
    }
    Ok((open_ms, get_us))
}
