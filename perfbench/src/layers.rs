//! Per-layer measurement from outside the program: the STM's own
//! counters, a [`Storage`] decorator over the device, a
//! [`ServerStore`] decorator over the durable store, and the join of
//! client requests to the commits that served them.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use polytm::StatsSnapshot;
use polytm_durable::{DurableKv, Storage};
use polytm_server::{BatchTag, ServerStore, StoreError, TxnOp, WriteReply, WriteRequest};

use crate::measure::{ns_since, Hist};

/// The `stm.*` metrics from a counter delta over the window.
pub fn stm_metrics(out: &mut BTreeMap<&'static str, f64>, d: &StatsSnapshot, ops: u64) {
    let attempts = d.commits + d.aborts();
    let per_op = |n: u64| if ops == 0 { 0.0 } else { n as f64 / ops as f64 };
    out.insert(
        "stm.useful_ratio",
        if attempts == 0 { 0.0 } else { d.commits as f64 / attempts as f64 },
    );
    out.insert("stm.aborts_validation", (d.aborts_validation + d.aborts_read_conflict) as f64);
    out.insert("stm.aborts_locked", d.aborts_locked as f64);
    out.insert("stm.elastic_cuts_per_op", per_op(d.elastic_cuts));
    out.insert("stm.extensions_per_op", per_op(d.extensions));
    out.insert("stm.wait_gate_ms", d.wait_gate_ns as f64 / 1e6);
    out.insert("stm.wait_arbitrate_ms", d.wait_arbitrate_ns as f64 / 1e6);
    out.insert("stm.wait_clock_ms", d.wait_clock_ns as f64 / 1e6);
    out.insert("stm.aborts_unavailable", d.aborts_unavailable as f64);
}

#[derive(Default)]
struct DeviceLog {
    appends: u64,
    append_bytes: u64,
    syncs: Hist,
    busy_ns: u64,
}

/// [`Storage`] decorator: counts appends and bytes, times every call.
pub struct TimedStorage<S> {
    inner: S,
    log: Mutex<DeviceLog>,
}

impl<S: Storage> TimedStorage<S> {
    pub fn new(inner: S) -> Self {
        TimedStorage { inner, log: Mutex::new(DeviceLog::default()) }
    }

    fn timed<T>(
        &self,
        f: impl FnOnce() -> io::Result<T>,
        note: impl FnOnce(&mut DeviceLog, u64),
    ) -> io::Result<T> {
        let t0 = Instant::now();
        let out = f();
        let ns = ns_since(t0, Instant::now());
        let mut log = self.log.lock().expect("device log poisoned");
        log.busy_ns += ns;
        note(&mut log, ns);
        out
    }

    /// Forget everything recorded so far (start of the window).
    pub fn reset(&self) {
        *self.log.lock().expect("device log poisoned") = DeviceLog::default();
    }

    /// The `storage.*` metrics since the last reset.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let log = self.log.lock().expect("device log poisoned");
        out.insert("storage.sync_calls", log.syncs.count() as f64);
        out.insert("storage.sync_us_p50", log.syncs.quantile(0.5) as f64 / 1e3);
        out.insert("storage.sync_us_p90", log.syncs.quantile(0.9) as f64 / 1e3);
        out.insert("storage.append_calls", log.appends as f64);
        out.insert("storage.append_bytes", log.append_bytes as f64);
        out.insert("storage.busy_ms", log.busy_ns as f64 / 1e6);
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.timed(
            || self.inner.append(name, bytes),
            |log, _| {
                log.appends += 1;
                log.append_bytes += bytes.len() as u64;
            },
        )
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        self.timed(|| self.inner.sync(name), |log, ns| log.syncs.record(ns))
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.timed(|| self.inner.read(name), |_, _| ())
    }
    fn exists(&self, name: &str) -> io::Result<bool> {
        self.inner.exists(name)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.timed(|| self.inner.rename(from, to), |_, _| ())
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.timed(|| self.inner.remove(name), |_, _| ())
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// One `commit_writes` call as the decorator saw it.
#[derive(Clone, Copy, Debug)]
pub struct BatchRec {
    pub tag: BatchTag,
    pub start: Instant,
    pub end: Instant,
}

#[derive(Default)]
struct StoreLog {
    gets: Hist,
    batches: Vec<BatchRec>,
}

/// [`ServerStore`] decorator over the durable store: times point gets
/// and coalesced commits, and keeps each commit's [`BatchTag`] for the
/// request join.
pub struct TimedStore {
    inner: Arc<DurableKv>,
    log: Mutex<StoreLog>,
}

impl TimedStore {
    pub fn new(inner: Arc<DurableKv>) -> Self {
        TimedStore { inner, log: Mutex::new(StoreLog::default()) }
    }

    pub fn reset(&self) {
        *self.log.lock().expect("store log poisoned") = StoreLog::default();
    }

    /// Connection id the server gave the most recent commit.
    pub fn last_conn(&self) -> Option<u64> {
        self.log.lock().expect("store log poisoned").batches.last().map(|b| b.tag.conn)
    }

    /// The gets' latencies and the commits since the last reset.
    pub fn take(&self) -> (Hist, Vec<BatchRec>) {
        let log = std::mem::take(&mut *self.log.lock().expect("store log poisoned"));
        (log.gets, log.batches)
    }
}

impl ServerStore for TimedStore {
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        let t0 = Instant::now();
        let out = ServerStore::get(self.inner.as_ref(), key);
        let ns = ns_since(t0, Instant::now());
        self.log.lock().expect("store log poisoned").gets.record(ns);
        out
    }

    fn scan(&self, lo: u64, hi: u64, limit: usize) -> (Vec<(u64, Vec<u8>)>, bool) {
        ServerStore::scan(self.inner.as_ref(), lo, hi, limit)
    }

    fn cas(&self, key: u64, expected: Option<&[u8]>, new: &[u8]) -> Result<bool, StoreError> {
        ServerStore::cas(self.inner.as_ref(), key, expected, new)
    }

    fn commit_writes(
        &self,
        batch: &[WriteRequest],
        tag: BatchTag,
    ) -> Result<Vec<WriteReply>, StoreError> {
        let start = Instant::now();
        let out = ServerStore::commit_writes(self.inner.as_ref(), batch, tag);
        let end = Instant::now();
        self.log.lock().expect("store log poisoned").batches.push(BatchRec { tag, start, end });
        out
    }

    fn txn(&self, ops: &[TxnOp]) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
        ServerStore::txn(self.inner.as_ref(), ops)
    }

    fn is_read_only(&self) -> bool {
        ServerStore::is_read_only(self.inner.as_ref())
    }
}

/// One write request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct WireWrite {
    /// Index of the client connection that sent it.
    pub conn: usize,
    pub seq: u32,
    pub sent: Instant,
    pub recv: Instant,
}

/// Client writes joined to the commits that served them.
#[derive(Debug, Default)]
pub struct Join {
    /// Per joined request: client RTT minus its commit's duration.
    pub self_ns: Vec<u64>,
    /// Per joined request: its commit's duration.
    pub commit_ns: Vec<u64>,
    /// Requests no commit claimed.
    pub unjoined: u64,
    /// Requests whose commit did not lie inside their send-to-receive
    /// interval, so RTT does not decompose.
    pub inconsistent: u64,
}

/// Join each write to the commit whose tag names its connection and
/// covers its sequence number. `conn_ids[i]` is the server's id for
/// client connection `i`. For a joined request
/// `recv - sent = self_ns + commit_ns` holds exactly.
pub fn join(writes: &[WireWrite], batches: &[BatchRec], conn_ids: &[u64]) -> Join {
    let mut by_seq: HashMap<(u64, u32), usize> = HashMap::new();
    for (i, b) in batches.iter().enumerate() {
        for seq in b.tag.first_seq..=b.tag.last_seq {
            by_seq.insert((b.tag.conn, seq), i);
        }
    }
    let mut out = Join::default();
    for w in writes {
        let Some(&i) = conn_ids.get(w.conn).and_then(|id| by_seq.get(&(*id, w.seq))) else {
            out.unjoined += 1;
            continue;
        };
        let b = &batches[i];
        if b.start < w.sent || b.end > w.recv {
            out.inconsistent += 1;
            continue;
        }
        let commit = ns_since(b.start, b.end);
        out.commit_ns.push(commit);
        out.self_ns.push(ns_since(w.sent, w.recv) - commit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn join_decomposes_a_synthetic_stream() {
        let t = Instant::now();
        let at = |us: u64| t + Duration::from_micros(us);
        let tag = |conn, first_seq, last_seq| BatchTag { conn, first_seq, last_seq };
        // Server ids 11 and 12 for client connections 0 and 1.
        let conn_ids = [11, 12];
        let batches = [
            // Connection 0, seqs 2..=4 in one commit from 100 to 400 µs.
            BatchRec { tag: tag(11, 2, 4), start: at(100), end: at(400) },
            // Connection 1, seq 2 alone, 50 µs of commit.
            BatchRec { tag: tag(12, 2, 2), start: at(150), end: at(200) },
            // Same seq numbers on an unrelated connection must not match.
            BatchRec { tag: tag(99, 1, 9), start: at(0), end: at(1) },
        ];
        let w = |conn, seq, sent, recv| WireWrite { conn, seq, sent: at(sent), recv: at(recv) };
        let writes = [
            w(0, 2, 90, 450),
            w(0, 3, 95, 460),
            w(0, 4, 99, 470),
            w(1, 2, 140, 260),
            // No commit covers seq 7 on connection 1.
            w(1, 7, 300, 500),
            // Commit began before this request was sent: no decomposition.
            w(0, 3, 120, 480),
        ];
        let j = join(&writes, &batches, &conn_ids);
        assert_eq!(j.unjoined, 1);
        assert_eq!(j.inconsistent, 1);
        assert_eq!(j.commit_ns, vec![300_000, 300_000, 300_000, 50_000]);
        assert_eq!(j.self_ns, vec![60_000, 65_000, 71_000, 70_000]);
        for (i, wr) in writes.iter().take(4).enumerate() {
            assert_eq!(ns_since(wr.sent, wr.recv), j.self_ns[i] + j.commit_ns[i]);
        }
    }
}
