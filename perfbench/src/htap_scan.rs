//! htap-scan: one thread runs back-to-back snapshot `range_count`
//! scans over 1/16 of a fully prefilled 16,384-key store; beside it one
//! writer runs 50% `put` (overwrites only) and 50% `get` on Zipf(0.99)
//! keys.

use std::sync::Arc;
use std::time::Instant;

use polytm::Stm;
use polytm_kv::{KvStore, Value};

use crate::gen::{writer_op, Rng, WriterOp, Zipf};
use crate::measure::{closed_loop, median, ns_since, Hist, Phase, Series, Worker};
use crate::{layers, Failures, Run, SETUPS};

const KEYS: u64 = 1 << 14;
const SPAN: u64 = KEYS / 16;
const VALUE_LEN: usize = 100;

fn value(key: u64, version: u64) -> Value {
    let mut bytes = [0x5Au8; VALUE_LEN];
    bytes[..8].copy_from_slice(&key.to_le_bytes());
    bytes[8..16].copy_from_slice(&version.to_le_bytes());
    Value::from_bytes(&bytes)
}

fn setup() -> KvStore {
    let kv = KvStore::new(Arc::new(Stm::new()));
    let entries: Vec<(u64, Value)> = (0..KEYS).map(|k| (k, value(k, 0))).collect();
    for chunk in entries.chunks(1024) {
        kv.multi_put(chunk);
    }
    kv
}

enum Side {
    Scanner { scans: Series, bad: Failures },
    Writer { ops: Series, gets: Hist, bad: Failures },
}

fn scanner(kv: &KvStore, mut rng: Rng, phase: &Phase, seconds: f64) -> Side {
    let mut scans = Series::new(seconds);
    let mut bad = Failures::default();
    while !phase.stopped() {
        let lo = rng.below(KEYS - SPAN + 1);
        let t0 = Instant::now();
        let n = kv.range_count(lo, lo + SPAN);
        let ns = ns_since(t0, Instant::now());
        if n as u64 != SPAN {
            bad.note(format!("range_count({lo}, {}) = {n}, expected {SPAN}", lo + SPAN));
        }
        if let Some(offset) = phase.offset(t0) {
            scans.record(offset, ns);
        }
    }
    Side::Scanner { scans, bad }
}

fn writer(kv: &KvStore, mut rng: Rng, phase: &Phase, seconds: f64) -> Side {
    let zipf = Zipf::new(KEYS, 0.99);
    let mut ops = Series::new(seconds);
    let mut gets = Hist::default();
    let mut bad = Failures::default();
    let mut version = 0u64;
    while !phase.stopped() {
        let op = writer_op(&mut rng, &zipf);
        let t0 = Instant::now();
        let ok = match op {
            WriterOp::Put(k) => {
                version += 1;
                kv.put(k, value(k, version)).is_some()
            }
            WriterOp::Get(k) => kv.get(k).is_some_and(|v| v.len() == VALUE_LEN),
        };
        let ns = ns_since(t0, Instant::now());
        if !ok {
            bad.note(format!("{op:?} found no {VALUE_LEN}-byte value"));
        }
        if let Some(offset) = phase.offset(t0) {
            ops.record(offset, ns);
            if matches!(op, WriterOp::Get(_)) {
                gets.record(ns);
            }
        }
    }
    Side::Writer { ops, gets, bad }
}

pub fn run(seed: u64, seconds: f64) -> Run {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kv = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        kv = Some(setup());
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let kv = kv.expect("at least one set-up");

    let kv_ref = &kv;
    let workers: Vec<Worker<'_, Side>> = vec![
        Box::new(move |p: &Phase| scanner(kv_ref, Rng::new(seed, 0), p, seconds)),
        Box::new(move |p: &Phase| writer(kv_ref, Rng::new(seed, 1), p, seconds)),
    ];
    let stm = Arc::clone(kv.stm());
    let mut edges = Vec::new();
    let (sides, window_s, cpu) = closed_loop(workers, seconds, || edges.push(stm.stats()));
    let stm_delta = edges[1].delta_since(&edges[0]);

    let mut run = Run::new(median(&setup_s), window_s);
    run.cpu = cpu;
    for side in sides {
        match side {
            Side::Scanner { scans, bad } => {
                run.read = scans;
                run.failures.absorb(bad);
            }
            Side::Writer { ops, gets, bad } => {
                run.write = ops;
                run.layers.insert("kv.get_calls", gets.count() as f64);
                run.layers.insert("kv.get_us_p50", gets.quantile(0.5) as f64 / 1e3);
                run.failures.absorb(bad);
            }
        }
    }
    run.attempted = run.read.count() + run.write.count();
    run.layers.insert("kv.scan_us_p50", run.read.pooled().quantile(0.5) as f64 / 1e3);
    layers::stm_metrics(&mut run.layers, &stm_delta, run.attempted);

    let len = kv.len() as u64;
    if len != KEYS {
        run.fail(format!("store holds {len} keys after the run, expected {KEYS}"));
    }
    run
}
