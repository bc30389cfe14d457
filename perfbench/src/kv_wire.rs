//! kv-wire: the default deployment with asynchronous durability.
//! `DurableKv` with the default `WalConfig` in `Durability::Async` over
//! `RealFs`, behind
//! `Server::spawn(.., ServerConfig::default())` on loopback. One
//! generator thread keeps two requests outstanding on each of two
//! connections (closed loop): 80% GET, 18% PUT and 2% MULTI of 8 puts,
//! Zipf(0.99) keys over 65,536 prefilled keys, 100-byte values. Latency
//! runs from each request's send to its response.
//!
//! Closed, not open, loop: on a host whose vCPUs stall for milliseconds
//! at a time, an open loop at 5k req/s charged every stall to every
//! request due during it, and its latency quantiles measured the host
//! (read p90 spread 1.36 over ten runs). Here a stall delays at most the
//! four requests in flight.
//!
//! Async, not Sync: a Sync write waits for its fsync, and the shared
//! disk's fsync time swung about twofold between runs minutes apart
//! (write p90 spread 1.0 over ten closed-loop runs). Async writes still
//! go through WAL staging, the flusher's group commits and `RealFs`
//! appends and syncs; the run flushes before the recovery check, so
//! every acknowledged write must survive.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polytm_durable::{Durability, DurableKv, DurableKvConfig, RealFs, Storage};
use polytm_kv::Value;
use polytm_server::poll::{Interest, Poller, READ, WRITE};
use polytm_server::protocol::{decode_frame, encode_request, parse_response, FrameEvent};
use polytm_server::{Request, Response, Server, ServerConfig, ServerHandle, ServerStore, WriteOp};

use crate::gen::{wire_op, Rng, WireOp, Zipf, MULTI_PUTS};
use crate::layers::{self, TimedStorage, TimedStore, WireWrite};
use crate::measure::{median, ns_since, CpuWindow, Hist, Series};
use crate::{Failures, Run, SETUPS, WARMUP_S};

const KEYS: u64 = 1 << 16;
const VALUE_LEN: usize = 100;
const CONNS: usize = 2;

fn config() -> DurableKvConfig {
    let mut config = DurableKvConfig::default();
    config.wal.mode = Durability::Async;
    config
}
/// Requests kept outstanding per connection. Two lets a GET queue
/// behind a write blocked in `wait_durable` on the same worker, and
/// lets consecutive writes coalesce.
const DEPTH: usize = 2;
/// Owner byte of a prefilled value; a load write carries its
/// connection index there.
const PREFILL_OWNER: u8 = 0xFF;
/// The tail drain must finish within this long after the window.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// 100-byte value: owner, a per-owner write tag, then filler.
fn value(owner: u8, tag: u64) -> Vec<u8> {
    let mut v = vec![0xA5u8; VALUE_LEN];
    v[0] = owner;
    v[1..9].copy_from_slice(&tag.to_le_bytes());
    v
}

fn decode_value(v: &[u8]) -> Option<(u8, u64)> {
    if v.len() != VALUE_LEN {
        return None;
    }
    Some((v[0], u64::from_le_bytes(v[1..9].try_into().ok()?)))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Get,
    Put,
    Multi,
}

struct Pending {
    seq: u32,
    kind: Kind,
    sent: Instant,
    measured: bool,
    /// (key, tag) of each put, in apply order.
    writes: Vec<(u64, u64)>,
}

/// One pipelined client connection speaking PTM1 with the server's own
/// codec.
struct WireConn {
    stream: TcpStream,
    buf: Vec<u8>,
    next_seq: u32,
    inflight: VecDeque<Pending>,
}

impl WireConn {
    fn connect(addr: SocketAddr) -> Result<WireConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        Ok(WireConn { stream, buf: Vec::new(), next_seq: 1, inflight: VecDeque::new() })
    }

    fn send(&mut self, req: &Request) -> Result<u32, String> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let wire = encode_request(req, seq, false);
        let mut at = 0;
        while at < wire.len() {
            match self.stream.write(&wire[at..]) {
                Ok(n) => at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let fd = self.stream.as_raw_fd();
                    Poller::new()
                        .wait(&[Interest { fd, events: WRITE }], Duration::from_millis(10));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(seq)
    }

    /// Read whatever the socket holds without blocking.
    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 64 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    fn next_frame(&mut self) -> Result<Option<(u32, Response)>, String> {
        match decode_frame(&self.buf) {
            FrameEvent::Frame { consumed, opcode, seq, payload } => {
                let resp =
                    parse_response(opcode, payload).map_err(|e| format!("bad response: {e:?}"))?;
                self.buf.drain(..consumed);
                Ok(Some((seq, resp)))
            }
            FrameEvent::Incomplete { .. } => Ok(None),
            FrameEvent::Corrupt(c) => Err(format!("corrupt response frame: {c:?}")),
        }
    }

    /// Blocking round trip (set-up only, before the socket goes
    /// non-blocking).
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let seq = self.send(req)?;
        loop {
            if let Some((got, resp)) = self.next_frame()? {
                return if got == seq { Ok(resp) } else { Err("sequence mismatch".into()) };
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

/// Removes the run's storage directories however the run ends, and
/// waits for the file system to finish with the deletion.
struct Workdir(PathBuf);

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        crate::measure::sync_filesystems();
    }
}

/// A deployed store, server and connected clients.
struct Deployment {
    dir: PathBuf,
    store: Arc<DurableKv>,
    device: Option<Arc<TimedStorage<RealFs>>>,
    front: Option<Arc<TimedStore>>,
    server: ServerHandle,
    conns: Vec<WireConn>,
    /// Server connection id of each client connection (traced only).
    conn_ids: Vec<u64>,
}

fn io_err(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

fn deploy(dir: &Path, traced: bool) -> Result<Deployment, String> {
    let fs = RealFs::open(dir).map_err(io_err("storage dir"))?;
    let (storage, device): (Arc<dyn Storage>, _) = if traced {
        let device = Arc::new(TimedStorage::new(fs));
        (device.clone(), Some(device))
    } else {
        (Arc::new(fs), None)
    };
    let store = Arc::new(DurableKv::open(storage, config()).map_err(io_err("open"))?);
    let prefill: Vec<(u64, Value)> =
        (0..KEYS).map(|k| (k, Value::from_bytes(&value(PREFILL_OWNER, k)))).collect();
    for chunk in prefill.chunks(1024) {
        store.multi_put(chunk).map_err(|_| "prefill lost durability".to_string())?;
    }
    let (served, front): (Arc<dyn ServerStore>, _) = if traced {
        let front = Arc::new(TimedStore::new(store.clone()));
        (front.clone(), Some(front))
    } else {
        (store.clone(), None)
    };
    let server = Server::spawn(served, "127.0.0.1:0", ServerConfig::default())
        .map_err(io_err("server spawn"))?;
    let mut conns = Vec::with_capacity(CONNS);
    let mut conn_ids = Vec::new();
    for i in 0..CONNS {
        let mut conn = WireConn::connect(server.local_addr())?;
        // One write per connection, alone, names the connection's
        // server id in the commit log. It rewrites a prefilled value
        // with itself.
        let key = i as u64;
        match conn.call(&Request::Put { key, value: value(PREFILL_OWNER, key) })? {
            Response::Written { existed: true } => {}
            other => return Err(format!("handshake put answered {other:?}")),
        }
        if let Some(front) = &front {
            conn_ids.push(front.last_conn().ok_or("handshake commit not seen")?);
        }
        conn.stream.set_nonblocking(true).map_err(io_err("nonblocking"))?;
        conns.push(conn);
    }
    Ok(Deployment { dir: dir.to_path_buf(), store, device, front, server, conns, conn_ids })
}

/// What the generator saw.
struct Load {
    /// Latency by send time, completions by receive time.
    reads: Series,
    writes: Series,
    attempted: u64,
    lag: Hist,
    send: Hist,
    joined: Vec<WireWrite>,
    /// Last acknowledged write tag per connection, per key.
    acked: Vec<HashMap<u64, u64>>,
    /// Key and value bytes of the puts acknowledged since the window
    /// opened.
    user_bytes: u64,
    failures: Failures,
}

/// Window-edge snapshots of the program's own counters.
struct Edge {
    stm: polytm::StatsSnapshot,
    batches: u64,
    batched_ops: u64,
    bytes_out: u64,
    responses: u64,
    stalled_ns: u64,
}

fn edge(d: &Deployment) -> Edge {
    let s = d.server.stats();
    Edge {
        stm: d.store.stm().stats(),
        batches: s.batches.load(Ordering::Relaxed),
        batched_ops: s.batched_ops.load(Ordering::Relaxed),
        bytes_out: s.bytes_out.load(Ordering::Relaxed),
        responses: s.responses.load(Ordering::Relaxed),
        stalled_ns: s.backpressure_stalled_ns.load(Ordering::Relaxed),
    }
}

fn check_response(p: &Pending, resp: &Response) -> Result<(), String> {
    let ok = match (p.kind, resp) {
        (Kind::Get, Response::Value(Some(v))) => decode_value(v)
            .is_some_and(|(owner, _)| owner == PREFILL_OWNER || (owner as usize) < CONNS),
        // Every key is prefilled and never deleted.
        (Kind::Put, Response::Written { existed }) => *existed,
        (Kind::Multi, Response::Applied { ops }) => *ops as usize == MULTI_PUTS,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{:?} seq {} answered {resp:?}", p.kind, p.seq))
    }
}

/// Drive the closed loop: keep [`DEPTH`] requests outstanding on every
/// connection until the window ends, then drain. `at_window` runs
/// once, just before the first measured request.
fn generate(
    d: &mut Deployment,
    seed: u64,
    seconds: f64,
    traced: bool,
    mut at_window: impl FnMut(&Deployment),
) -> Result<Load, String> {
    let zipf = Zipf::new(KEYS, 0.99);
    let mut rng = Rng::new(seed, 0);
    let window_start = Instant::now() + Duration::from_secs_f64(WARMUP_S);
    let window_end = window_start + Duration::from_secs_f64(seconds);
    let mut opened = false;

    let mut load = Load {
        reads: Series::new(seconds),
        writes: Series::new(seconds),
        attempted: 0,
        lag: Hist::default(),
        send: Hist::default(),
        joined: Vec::new(),
        acked: vec![HashMap::new(); CONNS],
        user_bytes: 0,
        failures: Failures::default(),
    };
    let mut tags = [0u64; CONNS];
    // When each connection last got a reply: its free slot is due a new
    // request from then on, and the send's delay past it is the
    // generator's lag.
    let mut freed = [Instant::now(); CONNS];
    let poller = Poller::new();
    loop {
        while Instant::now() < window_end {
            let Some(c) = (0..CONNS).find(|&c| d.conns[c].inflight.len() < DEPTH) else {
                break;
            };
            let op = wire_op(&mut rng, &zipf);
            let mut writes = Vec::new();
            let mut put = |key: u64| {
                tags[c] += 1;
                writes.push((key, tags[c]));
                value(c as u8, tags[c])
            };
            let (kind, req) = match op {
                WireOp::Get(key) => (Kind::Get, Request::Get { key }),
                WireOp::Put(key) => (Kind::Put, Request::Put { key, value: put(key) }),
                WireOp::Multi(keys) => {
                    let ops =
                        keys.iter().map(|&key| WriteOp::Put { key, value: put(key) }).collect();
                    (Kind::Multi, Request::Multi { ops })
                }
            };
            let t0 = Instant::now();
            let measured = t0 >= window_start;
            if measured && !opened {
                at_window(d);
                opened = true;
            }
            let seq = d.conns[c].send(&req)?;
            if measured {
                load.attempted += 1;
                load.lag.record(ns_since(freed[c], t0));
                load.send.record(ns_since(t0, Instant::now()));
            }
            d.conns[c].inflight.push_back(Pending { seq, kind, sent: t0, measured, writes });
        }
        let pending: usize = d.conns.iter().map(|c| c.inflight.len()).sum();
        if pending == 0 {
            break;
        }
        if Instant::now() > window_end + DRAIN_LIMIT {
            return Err(format!("{pending} requests unanswered {DRAIN_LIMIT:?} after the window"));
        }
        let interests: Vec<Interest> =
            d.conns.iter().map(|c| Interest { fd: c.stream.as_raw_fd(), events: READ }).collect();
        let ready = poller.wait(&interests, Duration::from_millis(50));
        for (c, ready) in ready.into_iter().enumerate() {
            if ready & READ == 0 {
                continue;
            }
            let conn = &mut d.conns[c];
            conn.fill()?;
            let recv = Instant::now();
            while let Some((seq, resp)) = conn.next_frame()? {
                freed[c] = recv;
                let p = conn.inflight.pop_front().ok_or("response without a request")?;
                if p.seq != seq {
                    return Err(format!("response seq {seq}, expected {}", p.seq));
                }
                if let Err(e) = check_response(&p, &resp) {
                    load.failures.note(e);
                    continue;
                }
                for &(key, tag) in &p.writes {
                    load.acked[c].insert(key, tag);
                }
                let series = if p.kind == Kind::Get { &mut load.reads } else { &mut load.writes };
                if recv >= window_start {
                    series.done(recv - window_start);
                    load.user_bytes += (p.writes.len() * (8 + VALUE_LEN)) as u64;
                }
                if !p.measured {
                    continue;
                }
                series.sample(p.sent - window_start, ns_since(p.sent, recv));
                if traced && p.kind != Kind::Get {
                    load.joined.push(WireWrite { conn: c, seq, sent: p.sent, recv });
                }
            }
        }
    }
    if !opened {
        return Err("no request fell inside the window".into());
    }
    Ok(load)
}

/// Reopen the directory the run left and check every key: a key the
/// load wrote holds the last write some connection had acknowledged
/// for it; any other key still holds its prefilled value.
fn recover_and_check(
    dir: &Path,
    acked: &[HashMap<u64, u64>],
    failures: &mut Failures,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let fs = RealFs::open(dir).map_err(io_err("reopen dir"))?;
    let store = DurableKv::open(Arc::new(fs), config()).map_err(io_err("reopen"))?;
    let recover_s = t0.elapsed().as_secs_f64();
    for key in 0..KEYS {
        let got = store.get(key);
        let decoded = got.as_ref().and_then(|v| decode_value(v.as_bytes()));
        let written = acked.iter().any(|m| m.contains_key(&key));
        let ok = match decoded {
            Some((PREFILL_OWNER, tag)) => !written && tag == key,
            Some((owner, tag)) => acked.get(owner as usize).and_then(|m| m.get(&key)) == Some(&tag),
            None => false,
        };
        if !ok {
            failures.note(format!(
                "key {key} recovered as {decoded:?}; acked last writes {:?}",
                acked.iter().map(|m| m.get(&key)).collect::<Vec<_>>()
            ));
        }
    }
    Ok(recover_s)
}

fn teardown(d: Deployment) -> PathBuf {
    let Deployment { dir, conns, server, .. } = d;
    drop(conns);
    server.shutdown();
    dir
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let root = Path::new(".bench_build").join(format!("perfbench-work-{}", std::process::id()));
    let _cleanup = Workdir(root.clone());
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut deployed = None;
    for i in 0..SETUPS {
        // Earlier set-ups' logs stay on disk until the run ends: freeing
        // their blocks mid-run would load the journal under the window.
        if let Some(old) = deployed.take() {
            teardown(old);
        }
        let dir = root.join(format!("{}-{i}", if traced { "traced" } else { "plain" }));
        let t0 = Instant::now();
        deployed = Some(deploy(&dir, traced)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut d = deployed.expect("at least one set-up");

    let mut start: Option<(Edge, CpuWindow)> = None;
    let mut load = generate(&mut d, seed, seconds, traced, |d| {
        if let Some(device) = &d.device {
            device.reset();
        }
        if let Some(front) = &d.front {
            front.reset();
        }
        start = Some((edge(d), CpuWindow::begin(seconds)));
    })?;
    let (e0, cpu) = start.ok_or("the window never started")?;
    let e1 = edge(&d);
    let cpu = cpu.finish();

    let mut run = Run::new(median(&setup_s), seconds);
    run.cpu = cpu;
    run.attempted = load.attempted;
    run.read = load.reads.clone();
    run.write = load.writes.clone();

    let stm = e1.stm.delta_since(&e0.stm);
    layers::stm_metrics(&mut run.layers, &stm, run.attempted);
    let l = &mut run.layers;
    let batches = e1.batches - e0.batches;
    let responses = (e1.responses - e0.responses).max(1);
    l.insert(
        "server.batch_ops_per_commit",
        (e1.batched_ops - e0.batched_ops) as f64 / batches.max(1) as f64,
    );
    l.insert("server.backpressure_stalled_ms", (e1.stalled_ns - e0.stalled_ns) as f64 / 1e6);
    l.insert("server.bytes_out_per_req", (e1.bytes_out - e0.bytes_out) as f64 / responses as f64);
    l.insert("durable.wal_wait_ms", stm.wal_wait_ns as f64 / 1e6);
    l.insert("durable.commits_per_fsync", stm.commits_durable as f64 / stm.fsyncs.max(1) as f64);
    l.insert("durable.wal_bytes", stm.wal_bytes as f64);
    l.insert("loadgen.lag_p99_us", load.lag.quantile(0.99) as f64 / 1e3);
    l.insert("loadgen.send_us_p50", load.send.quantile(0.5) as f64 / 1e3);
    if let Some(device) = &d.device {
        device.metrics(l);
        l.insert(
            "storage_bytes_per_user_byte",
            l["storage.append_bytes"] / load.user_bytes.max(1) as f64,
        );
    }

    let front = d.front.clone();
    let conn_ids = d.conn_ids.clone();
    let store = Arc::clone(&d.store);
    let dir = teardown(d);
    store.flush().map_err(|_| "final flush lost durability".to_string())?;
    drop(store);

    if let Some(front) = front {
        let (gets, batches) = front.take();
        let j = layers::join(&load.joined, &batches, &conn_ids);
        let mut commits = Hist::default();
        batches.iter().for_each(|b| commits.record(ns_since(b.start, b.end)));
        let mut self_ns = Hist::default();
        j.self_ns.iter().for_each(|&ns| self_ns.record(ns));
        let l = &mut run.layers;
        l.insert("kv.get_calls", gets.count() as f64);
        l.insert("kv.get_us_p50", gets.quantile(0.5) as f64 / 1e3);
        l.insert("durable.commit_calls", commits.count() as f64);
        l.insert("durable.commit_us_p50", commits.quantile(0.5) as f64 / 1e3);
        l.insert("durable.commit_us_p90", commits.quantile(0.9) as f64 / 1e3);
        l.insert("server.write_self_us_p50", self_ns.quantile(0.5) as f64 / 1e3);
        if j.unjoined + j.inconsistent > 0 {
            run.fail(format!(
                "{} writes joined no commit and {} did not decompose into self + commit time",
                j.unjoined, j.inconsistent
            ));
        }
        run.notes.push(format!(
            "join: {} of {} measured writes decompose exactly as RTT = self + commit_writes",
            j.self_ns.len(),
            load.joined.len()
        ));
    }

    run.failures.absorb(std::mem::take(&mut load.failures));
    let recover_s = recover_and_check(&dir, &load.acked, &mut run.failures)?;
    run.layers.insert("durable.recover_s", recover_s);
    let written: usize = load.acked.iter().map(HashMap::len).sum();
    run.notes.push(format!(
        "recovery: reopened in {recover_s:.3}s; {KEYS} keys checked, {written} (conn, key) last writes"
    ));
    run.notes.push(format!("closed loop: {CONNS} connections x {DEPTH} outstanding requests"));
    Ok(run)
}
