//! [`KvStore`]: a sharded transactional key-value store over the
//! polymorphic STM.
//!
//! ## Layout
//!
//! Keys hash to one of N **shards** (power of two, cache-padded so
//! shard headers never false-share). Each shard owns an open-addressed
//! **slot table** behind a `TVar<Table>`: a power-of-two array of
//! `TVar<Slot>` registers probed linearly, where a full slot holds the
//! key and a *per-record* `TVar<Value>`. Overwriting a record therefore
//! writes one value register — it never touches the slot array, so hot
//! updates conflict only with operations on the same key. Growing a
//! shard swaps the whole table in one monomorphic transaction (the same
//! move as `TxHashSet`'s transactional resize); record value registers
//! are carried over by handle, so in-flight value updates commute with
//! a concurrent resize.
//!
//! ## Cross-shard atomicity
//!
//! Sharding here is a *contention* structure, not a consistency
//! boundary: every operation is an STM transaction over plain `TVar`s,
//! so a [`KvStore::txn`] block spanning shards commits atomically like
//! any other transaction — commit acquires the write set's per-location
//! locks in global address order (deadlock-free) and validates the read
//! set at one point. There is no two-phase commit bolted on top; the
//! shards share one STM instance and one clock.
//!
//! ## Per-operation semantics
//!
//! * `get` runs **elastic** (requested): a probe is a search traversal,
//!   and cutting old probe reads behind the lookup is exactly the
//!   paper's `weak` use case.
//! * `put`/`delete`/`cas`/`modify`/`txn` run **opaque** (requested):
//!   an insert's correctness depends on the *entire* probe chain it
//!   examined (a cut probe read admits duplicate keys under
//!   concurrency), so writers request the discipline that validates
//!   every read. The classed constructors rely on the core's guarantee
//!   that an advisor plan never weakens a requested discipline.
//! * scans run **snapshot** (requested): one consistent cut across
//!   every shard, never aborting on read-write conflicts.

use std::sync::Arc;

use crossbeam_utils::CachePadded;
use polytm::{ClassId, CommitInfo, Semantics, Stm, TVar, Transaction, TxParams, TxResult};

use crate::value::Value;

/// Probe length at which a top-level write asks its shard to grow. The
/// trigger is probe pressure, not an occupancy counter: a shared
/// counter would serialize every insert in a shard, while probe length
/// is observed for free by the operation that suffers it.
const MAX_PROBE: usize = 8;

/// One open-addressing slot. `Full` carries the record's value
/// register; tombstones keep probe chains intact across deletes and
/// are swept (and their slots reclaimed) by the next table swap.
#[derive(Clone)]
enum Slot {
    Empty,
    Tombstone,
    Full(u64, TVar<Value>),
}

/// What a probe for one key learned from one slot, read by borrowing
/// the slot so only a matching record's handle is cloned.
enum Probe {
    Empty,
    Tombstone,
    /// The probed key's record.
    Hit(TVar<Value>),
    /// Another key's record.
    Miss,
}

impl Probe {
    fn of(slot: &Slot, key: u64) -> Self {
        match slot {
            Slot::Empty => Probe::Empty,
            Slot::Tombstone => Probe::Tombstone,
            Slot::Full(k, var) if *k == key => Probe::Hit(var.clone()),
            Slot::Full(..) => Probe::Miss,
        }
    }
}

/// A shard's slot table. Cloning shares the slot array (two words), so
/// the `TVar<Table>` register swap that grows a shard stays inside the
/// STM's inline write-payload budget.
#[derive(Clone)]
struct Table {
    slots: Arc<[TVar<Slot>]>,
}

// Slot swaps and table swaps are the store's hottest buffered writes;
// both must take the descriptor's allocation-free inline path.
const _: () = assert!(polytm::write_payload_fits_inline::<Slot>());
const _: () = assert!(polytm::write_payload_fits_inline::<Table>());

struct Shard {
    table: TVar<Table>,
}

/// `start(p)` parameters per operation kind. The defaults encode the
/// soundness analysis in the module docs; the classed constructor tags
/// each kind with its own advisor class.
#[derive(Debug, Clone, Copy)]
pub struct KvParams {
    /// Point lookups (`get`/`contains`).
    pub read: TxParams,
    /// Slot-writing operations (`put`/`delete`/batched ingest).
    pub update: TxParams,
    /// Read-modify-writes (`cas`/`modify`).
    pub rmw: TxParams,
    /// Range/prefix scans and `len`.
    pub scan: TxParams,
    /// Multi-key [`KvStore::txn`] blocks.
    pub txn: TxParams,
}

/// Distinct advisor classes a classed store occupies (read, update,
/// rmw, scan, txn).
pub const KV_CLASSES: u16 = 5;

impl KvParams {
    /// The fixed per-operation semantics (no advisor classes).
    pub fn fixed() -> Self {
        Self {
            read: TxParams::new(Semantics::elastic()),
            update: TxParams::new(Semantics::Opaque),
            rmw: TxParams::new(Semantics::Opaque),
            scan: TxParams::new(Semantics::Snapshot),
            txn: TxParams::new(Semantics::Opaque),
        }
    }

    /// As [`KvParams::fixed`], with each operation kind tagged as its
    /// own transaction class (`base`, `base + 1`, … `base + 4`) for an
    /// advisor installed on the store's STM. Reads may be reclassified
    /// toward snapshot by feedback; writers request opaque, which a
    /// plan may escalate but — by the core's plan guardrails — never
    /// weaken below the probe-validating discipline they need.
    pub fn classed(base: u16) -> Self {
        let fixed = Self::fixed();
        Self {
            read: fixed.read.with_class(ClassId(base)),
            update: fixed.update.with_class(ClassId(base + 1)),
            rmw: fixed.rmw.with_class(ClassId(base + 2)),
            scan: fixed.scan.with_class(ClassId(base + 3)),
            txn: fixed.txn.with_class(ClassId(base + 4)),
        }
    }
}

/// Construction knobs for a [`KvStore`].
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Shard count (power of two, at most 128).
    pub shards: usize,
    /// Initial slots per shard (power of two, at least 8); shards grow
    /// by doubling under probe pressure.
    pub initial_slots: usize,
    /// Per-operation `start(p)` parameters.
    pub params: KvParams,
}

impl Default for KvConfig {
    fn default() -> Self {
        Self { shards: 16, initial_slots: 64, params: KvParams::fixed() }
    }
}

/// Outcome of one raw slot-writing probe.
struct PutRaw {
    prev: Option<Value>,
    /// The probe ran long: ask for a table swap after commit.
    grow: bool,
    /// Length of the table the probe ran against — the maintenance
    /// request's witness: a post-commit resize that finds the table
    /// already swapped to a different length knows the pressure event
    /// was handled and stands down.
    table_len: usize,
}

/// Post-commit maintenance requests gathered during a transaction:
/// `(shard, observed table length)` pairs, one per shard (the first
/// observation wins — any later swap changes the length and thereby
/// invalidates the request).
#[derive(Default)]
struct GrowSet(Vec<(usize, usize)>);

impl GrowSet {
    fn note(&mut self, shard: usize, observed_len: usize) {
        if !self.0.iter().any(|&(s, _)| s == shard) {
            self.0.push((shard, observed_len));
        }
    }
}

/// Sharded transactional key-value store. Cloning shares the store.
///
/// ```
/// use std::sync::Arc;
/// use polytm::Stm;
/// use polytm_kv::{KvStore, Value};
///
/// let store = KvStore::new(Arc::new(Stm::new()));
/// assert_eq!(store.put(1, Value::from_u64(10)), None);
/// assert_eq!(store.get(1), Some(Value::from_u64(10)));
/// // Multi-key atomic transaction spanning shards:
/// store.txn(|kv| {
///     let v = kv.get(1)?.and_then(|v| v.as_u64()).unwrap_or(0);
///     kv.put(2, Value::from_u64(v + 1))?;
///     kv.delete(1)?;
///     Ok(())
/// });
/// assert_eq!(store.get(1), None);
/// assert_eq!(store.get(2), Some(Value::from_u64(11)));
/// ```
#[derive(Clone)]
pub struct KvStore {
    stm: Arc<Stm>,
    shards: Arc<[CachePadded<Shard>]>,
    params: KvParams,
}

fn mix(key: u64) -> u64 {
    let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 32;
    h
}

impl KvStore {
    /// A store with the default configuration (16 shards × 64 initial
    /// slots, fixed per-operation semantics).
    pub fn new(stm: Arc<Stm>) -> Self {
        Self::with_config(stm, KvConfig::default())
    }

    /// A store with explicit configuration.
    ///
    /// # Panics
    /// Panics on a non-power-of-two or oversized shard count, an
    /// invalid initial table size, or writer params whose semantics
    /// cannot validate a whole probe chain (read-only, or elastic —
    /// a cut probe read admits duplicate inserts; writers must request
    /// [`Semantics::Opaque`] or [`Semantics::Irrevocable`]).
    pub fn with_config(stm: Arc<Stm>, config: KvConfig) -> Self {
        assert!(
            config.shards.is_power_of_two() && config.shards <= 128,
            "shards must be a power of two in 1..=128, got {}",
            config.shards
        );
        assert!(
            config.initial_slots.is_power_of_two() && config.initial_slots >= 8,
            "initial_slots must be a power of two >= 8, got {}",
            config.initial_slots
        );
        for (label, params) in [
            ("update", config.params.update),
            ("rmw", config.params.rmw),
            ("txn", config.params.txn),
        ] {
            assert!(
                matches!(params.semantics, Semantics::Opaque | Semantics::Irrevocable),
                "{label} params must request opaque or irrevocable semantics \
                 (got {:?}): slot writes are only sound when the whole probe \
                 chain is validated",
                params.semantics
            );
        }
        let shards: Arc<[CachePadded<Shard>]> = (0..config.shards)
            .map(|_| {
                CachePadded::new(Shard {
                    table: stm.new_tvar(fresh_table(&stm, config.initial_slots)),
                })
            })
            .collect();
        Self { stm, shards, params: config.params }
    }

    /// The STM this store lives in.
    pub fn stm(&self) -> &Arc<Stm> {
        &self.stm
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total slot capacity across shards (snapshot read; a diagnostic).
    pub fn capacity(&self) -> usize {
        self.stm.run(self.params.scan, |tx| {
            let mut total = 0;
            for shard in self.shards.iter() {
                total += shard.table.read(tx)?.slots.len();
            }
            Ok(total)
        })
    }

    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        (mix(key) as usize) & (self.shards.len() - 1)
    }

    #[inline]
    fn slot_start(key: u64) -> usize {
        (mix(key) >> 16) as usize
    }

    // ------------------------------------------------------------------
    // Transaction-composable operations
    // ------------------------------------------------------------------

    /// Composable point lookup.
    pub fn get_in(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<Option<Value>> {
        let table = self.shards[self.shard_of(key)].table.read(tx)?;
        let mask = table.slots.len() - 1;
        let mut i = Self::slot_start(key) & mask;
        for _ in 0..table.slots.len() {
            match table.slots[i].read_with(tx, |s| Probe::of(s, key))? {
                Probe::Empty => return Ok(None),
                Probe::Hit(var) => return Ok(Some(var.read(tx)?)),
                Probe::Tombstone | Probe::Miss => {}
            }
            i = (i + 1) & mask;
        }
        Ok(None)
    }

    /// Composable membership test.
    pub fn contains_in(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<bool> {
        Ok(self.get_in(tx, key)?.is_some())
    }

    /// Raw slot-writing upsert. Never grows the table itself (a resize
    /// must be its own transaction); reports probe pressure instead.
    fn put_raw(&self, tx: &mut Transaction<'_>, key: u64, value: Value) -> TxResult<PutRaw> {
        let table = self.shards[self.shard_of(key)].table.read(tx)?;
        let mask = table.slots.len() - 1;
        let mut i = Self::slot_start(key) & mask;
        let mut first_tomb: Option<usize> = None;
        for probed in 0..table.slots.len() {
            match table.slots[i].read_with(tx, |s| Probe::of(s, key))? {
                Probe::Empty => {
                    // Reuse the earliest tombstone on the chain, else
                    // claim this empty slot.
                    let target = first_tomb.unwrap_or(i);
                    table.slots[target].write(tx, Slot::Full(key, self.stm.new_tvar(value)))?;
                    return Ok(PutRaw {
                        prev: None,
                        grow: probed + 1 >= MAX_PROBE,
                        table_len: table.slots.len(),
                    });
                }
                Probe::Tombstone => {
                    if first_tomb.is_none() {
                        first_tomb = Some(i);
                    }
                }
                Probe::Hit(var) => {
                    let prev = var.replace(tx, value)?;
                    return Ok(PutRaw {
                        prev: Some(prev),
                        grow: probed + 1 >= MAX_PROBE,
                        table_len: table.slots.len(),
                    });
                }
                Probe::Miss => {}
            }
            i = (i + 1) & mask;
        }
        // The probe wrapped: no empty slot left. A tombstone can still
        // absorb the insert (and the shard then wants a post-commit
        // sweep); otherwise the table is genuinely full — grow it
        // *inside this transaction* (sound: the swap is just more reads
        // and writes in the same atomic step; the probe above already
        // read every slot, so the rebuild re-reads only read-set hits)
        // and place the key in the doubled table. The in-transaction
        // grow already relieved the pressure, so it must not *also*
        // request a post-commit resize (that would double the fresh,
        // tombstone-free table a second time).
        if let Some(target) = first_tomb {
            table.slots[target].write(tx, Slot::Full(key, self.stm.new_tvar(value)))?;
            Ok(PutRaw { prev: None, grow: true, table_len: table.slots.len() })
        } else {
            self.grow_in_tx(tx, self.shard_of(key), &table, key, value)?;
            Ok(PutRaw { prev: None, grow: false, table_len: table.slots.len() })
        }
    }

    /// Double a full shard table within the caller's transaction and
    /// place `key` in the rebuilt table. Only reached when every slot
    /// is `Full` (tombstones would have absorbed the insert), so `live`
    /// is the whole slot array.
    fn grow_in_tx(
        &self,
        tx: &mut Transaction<'_>,
        si: usize,
        table: &Table,
        key: u64,
        value: Value,
    ) -> TxResult<()> {
        let mut live = Vec::with_capacity(table.slots.len() + 1);
        for slot in table.slots.iter() {
            if let Slot::Full(k, var) = slot.read(tx)? {
                live.push((k, var));
            }
        }
        live.push((key, self.stm.new_tvar(value)));
        let fresh = self.build_table(live, table.slots.len() * 2);
        self.shards[si].table.write(tx, fresh)
    }

    /// Build a fresh table of `new_len` slots (power of two) holding
    /// `live`, placed by the store's probe policy — the single
    /// placement routine behind both the in-transaction grow path and
    /// the post-commit maintenance resize.
    fn build_table(&self, live: Vec<(u64, TVar<Value>)>, new_len: usize) -> Table {
        let mask = new_len - 1;
        let mut slots: Vec<Slot> = vec![Slot::Empty; new_len];
        for (k, var) in live {
            let mut i = Self::slot_start(k) & mask;
            while !matches!(slots[i], Slot::Empty) {
                i = (i + 1) & mask;
            }
            slots[i] = Slot::Full(k, var);
        }
        Table { slots: slots.into_iter().map(|s| self.stm.new_tvar(s)).collect() }
    }

    /// Composable upsert; returns the previous value. A completely full
    /// shard table grows inside the enclosing transaction; long-probe
    /// growth maintenance otherwise runs after the enclosing top-level
    /// operation commits (see [`KvStore::txn`]).
    pub fn put_in(
        &self,
        tx: &mut Transaction<'_>,
        key: u64,
        value: Value,
    ) -> TxResult<Option<Value>> {
        Ok(self.put_raw(tx, key, value)?.prev)
    }

    /// Composable delete; returns the removed value.
    pub fn delete_in(&self, tx: &mut Transaction<'_>, key: u64) -> TxResult<Option<Value>> {
        let table = self.shards[self.shard_of(key)].table.read(tx)?;
        let mask = table.slots.len() - 1;
        let mut i = Self::slot_start(key) & mask;
        for _ in 0..table.slots.len() {
            match table.slots[i].read_with(tx, |s| Probe::of(s, key))? {
                Probe::Empty => return Ok(None),
                Probe::Hit(var) => {
                    let prev = var.read(tx)?;
                    table.slots[i].write(tx, Slot::Tombstone)?;
                    return Ok(Some(prev));
                }
                Probe::Tombstone | Probe::Miss => {}
            }
            i = (i + 1) & mask;
        }
        Ok(None)
    }

    /// Composable count over the *inclusive* span `[lo, hi_incl]` —
    /// the internal span form, so `u64::MAX` keys are countable. Slots
    /// are read by borrowing, so counting touches no record handle.
    fn count_span_in(&self, tx: &mut Transaction<'_>, lo: u64, hi_incl: u64) -> TxResult<usize> {
        let mut n = 0;
        for shard in self.shards.iter() {
            let table = shard.table.read(tx)?;
            for slot in table.slots.iter() {
                let hit = slot.read_with(
                    tx,
                    |s| matches!(s, Slot::Full(k, _) if lo <= *k && *k <= hi_incl),
                )?;
                n += usize::from(hit);
            }
        }
        Ok(n)
    }

    /// Composable scan over the *inclusive* span `[lo, hi_incl]`,
    /// sorted by key (see [`KvStore::count_span_in`]).
    fn collect_span_in(
        &self,
        tx: &mut Transaction<'_>,
        lo: u64,
        hi_incl: u64,
    ) -> TxResult<Vec<(u64, Value)>> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let table = shard.table.read(tx)?;
            for slot in table.slots.iter() {
                let hit = slot.read_with(tx, |s| match s {
                    Slot::Full(k, var) if lo <= *k && *k <= hi_incl => Some((*k, var.clone())),
                    _ => None,
                })?;
                if let Some((k, var)) = hit {
                    out.push((k, var.read(tx)?));
                }
            }
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        Ok(out)
    }

    /// Composable range count over `[lo, hi)`.
    pub fn range_count_in(&self, tx: &mut Transaction<'_>, lo: u64, hi: u64) -> TxResult<usize> {
        if lo >= hi {
            return Ok(0);
        }
        self.count_span_in(tx, lo, hi - 1)
    }

    /// Composable range scan over `[lo, hi)`, sorted by key.
    pub fn scan_range_in(
        &self,
        tx: &mut Transaction<'_>,
        lo: u64,
        hi: u64,
    ) -> TxResult<Vec<(u64, Value)>> {
        if lo >= hi {
            return Ok(Vec::new());
        }
        self.collect_span_in(tx, lo, hi - 1)
    }

    // ------------------------------------------------------------------
    // Top-level operations
    // ------------------------------------------------------------------

    /// Point lookup (one elastic transaction by default).
    pub fn get(&self, key: u64) -> Option<Value> {
        self.stm.run(self.params.read, |tx| self.get_in(tx, key))
    }

    /// Membership test.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert-or-overwrite; returns the previous value. Grows the
    /// shard's table (its own transaction, after this one commits) when
    /// the probe ran long.
    pub fn put(&self, key: u64, value: Value) -> Option<Value> {
        let raw = self.stm.run(self.params.update, |tx| self.put_raw(tx, key, value.clone()));
        if raw.grow {
            self.resize_shard(self.shard_of(key), raw.table_len);
        }
        raw.prev
    }

    /// Delete; returns the removed value.
    pub fn delete(&self, key: u64) -> Option<Value> {
        self.stm.run(self.params.update, |tx| self.delete_in(tx, key))
    }

    /// Atomic compare-and-set: when the current value at `key` equals
    /// `expected` (`None` = key absent), install `new` and return
    /// `true`; otherwise change nothing and return `false`. One opaque
    /// read-modify-write transaction.
    pub fn cas(&self, key: u64, expected: Option<&Value>, new: Value) -> bool {
        let (swapped, grow) = self.stm.run(self.params.rmw, |tx| {
            let cur = self.get_in(tx, key)?;
            if cur.as_ref() != expected {
                return Ok((false, None));
            }
            let raw = self.put_raw(tx, key, new.clone())?;
            Ok((true, raw.grow.then_some(raw.table_len)))
        });
        if let Some(observed_len) = grow {
            self.resize_shard(self.shard_of(key), observed_len);
        }
        swapped
    }

    /// Atomic read-modify-write: replace the record at `key` with
    /// `f(current)` (insert when absent); returns the previous value.
    pub fn modify(&self, key: u64, f: impl Fn(Option<&Value>) -> Value) -> Option<Value> {
        let raw = self.stm.run(self.params.rmw, |tx| {
            let cur = self.get_in(tx, key)?;
            let next = f(cur.as_ref());
            self.put_raw(tx, key, next)
        });
        if raw.grow {
            self.resize_shard(self.shard_of(key), raw.table_len);
        }
        raw.prev
    }

    /// Batched multi-put: every entry installed in **one** transaction
    /// (all-or-nothing, whatever shards the keys span). Entries are
    /// applied in key order for a deterministic probe pattern; commit
    /// acquires the touched slot locks in global address order like any
    /// other transaction. The write-heavy-ingest fast path: one commit
    /// (one clock advance, one validation) amortized over the batch.
    ///
    /// **Duplicate keys are last-write-wins**: when `entries` carries a
    /// key more than once, the store ends up with the value of the
    /// *latest* occurrence in input order, exactly as if the entries
    /// had been `put` one by one. (The key-ordered application uses a
    /// stable sort, so equal keys keep their input order and the last
    /// occurrence's upsert lands last.)
    pub fn multi_put(&self, entries: &[(u64, Value)]) {
        let mut sorted: Vec<(u64, Value)> = entries.to_vec();
        // Stable by key: duplicate keys keep their input order, so the
        // batch's last entry for a key deterministically wins (each put
        // is an upsert).
        sorted.sort_by_key(|&(k, _)| k);
        let requests = self.stm.run(self.params.update, |tx| {
            let mut requests = GrowSet::default();
            for (key, value) in &sorted {
                let raw = self.put_raw(tx, *key, value.clone())?;
                if raw.grow {
                    requests.note(self.shard_of(*key), raw.table_len);
                }
            }
            Ok(requests)
        });
        self.apply_growth(requests);
    }

    /// Run a multi-key atomic transaction against the store. The
    /// closure may touch any number of keys on any shards; it re-runs
    /// on conflict like any STM transaction, and its effects commit
    /// atomically. Shards whose probes ran long during the committed
    /// attempt are grown afterwards.
    pub fn txn<T>(&self, mut f: impl FnMut(&mut KvTxn<'_, '_>) -> TxResult<T>) -> T {
        let (value, requests) = self.stm.run(self.params.txn, |tx| {
            let mut view = KvTxn { store: self, tx, grow: GrowSet::default() };
            let value = f(&mut view)?;
            let requests = std::mem::take(&mut view.grow);
            Ok((value, requests))
        });
        self.apply_growth(requests);
        value
    }

    /// [`KvStore::txn`] plus the committed attempt's
    /// [`CommitInfo`] — the entry point the durability layer wraps: the
    /// closure stages redo bytes alongside its writes (via
    /// [`KvTxn::tx`] and [`Transaction::stage_redo`]) and the returned
    /// sequence number is what the write-ahead log's `wait_durable`
    /// takes. Growth maintenance runs after the commit, exactly as in
    /// [`KvStore::txn`] (maintenance transactions stage no redo — a
    /// table swap moves records by handle and changes no value, so
    /// recovery rebuilds tables from scratch instead of replaying
    /// them).
    pub fn txn_logged<T>(
        &self,
        mut f: impl FnMut(&mut KvTxn<'_, '_>) -> TxResult<T>,
    ) -> (T, CommitInfo) {
        let ((value, requests), info) = self.stm.run_logged(self.params.txn, |tx| {
            let mut view = KvTxn { store: self, tx, grow: GrowSet::default() };
            let value = f(&mut view)?;
            let requests = std::mem::take(&mut view.grow);
            Ok((value, requests))
        });
        self.apply_growth(requests);
        (value, info)
    }

    /// Records in `[lo, hi)` under snapshot semantics, sorted by key:
    /// one consistent cut across every shard, never aborting on
    /// read-write conflicts.
    pub fn scan_range(&self, lo: u64, hi: u64) -> Vec<(u64, Value)> {
        self.stm.run(self.params.scan, |tx| self.scan_range_in(tx, lo, hi))
    }

    /// Number of records in `[lo, hi)` (snapshot semantics).
    pub fn range_count(&self, lo: u64, hi: u64) -> usize {
        self.stm.run(self.params.scan, |tx| self.range_count_in(tx, lo, hi))
    }

    /// Records whose key has `prefix` in its bits above the low
    /// `low_bits` — i.e. keys `k` with `k >> low_bits == prefix` —
    /// sorted by key. The prefix-scan shape for hierarchic keys
    /// (tenant/bucket/object packed into a `u64`). The topmost prefix
    /// block includes `u64::MAX` itself.
    ///
    /// # Panics
    /// Panics when `low_bits >= 64` or the prefix does not fit above
    /// `low_bits`.
    pub fn scan_prefix(&self, prefix: u64, low_bits: u32) -> Vec<(u64, Value)> {
        assert!(low_bits < 64, "low_bits must leave room for a prefix");
        assert!(prefix <= (u64::MAX >> low_bits), "prefix does not fit above {low_bits} low bits");
        let lo = prefix << low_bits;
        let hi_incl = lo + ((1u64 << low_bits) - 1);
        self.stm.run(self.params.scan, |tx| self.collect_span_in(tx, lo, hi_incl))
    }

    /// Number of live records (snapshot semantics; counts the whole key
    /// space, `u64::MAX` included).
    pub fn len(&self) -> usize {
        self.stm.run(self.params.scan, |tx| self.count_span_in(tx, 0, u64::MAX))
    }

    /// True when no records are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ------------------------------------------------------------------
    // Growth
    // ------------------------------------------------------------------

    fn apply_growth(&self, requests: GrowSet) {
        for (si, observed_len) in requests.0 {
            self.resize_shard(si, observed_len);
        }
    }

    /// Swap shard `si`'s table for a fresh one in one monomorphic
    /// transaction. `observed_len` is the table length the requesting
    /// operation probed against: several operations can request
    /// maintenance for the same pressure event, the requests serialize
    /// here, and any request that finds the table already swapped to a
    /// different length stands down — the event was handled (this is
    /// what keeps stacked requests from doubling a shard repeatedly).
    /// A live request sweeps tombstones at the same size when they
    /// dominate (>= 1/8 of slots with occupancy < 25%) and doubles
    /// otherwise — a long probe chain at any occupancy is only
    /// dispersed by rehashing into a bigger table. (A same-size sweep
    /// leaves the length unchanged, so one sibling request may still
    /// run and double; growth per event is bounded by that one
    /// doubling.) Record value registers move by handle, so concurrent
    /// value overwrites commute with the swap; slot-writing operations
    /// conflict with it through the table register and validate/retry
    /// as usual.
    fn resize_shard(&self, si: usize, observed_len: usize) {
        self.stm.run(TxParams::new(Semantics::Opaque), |tx| {
            let table = self.shards[si].table.read(tx)?;
            let len = table.slots.len();
            if len != observed_len {
                return Ok(()); // already swapped: the pressure event was handled
            }
            let mut live: Vec<(u64, TVar<Value>)> = Vec::new();
            let mut tombs = 0usize;
            for slot in table.slots.iter() {
                match slot.read(tx)? {
                    Slot::Empty => {}
                    Slot::Tombstone => tombs += 1,
                    Slot::Full(k, var) => live.push((k, var)),
                }
            }
            let new_len = if tombs >= len / 8 && live.len() * 4 < len { len } else { len * 2 };
            let fresh = self.build_table(live, new_len);
            self.shards[si].table.write(tx, fresh)?;
            Ok(())
        })
    }
}

fn fresh_table(stm: &Stm, slots: usize) -> Table {
    Table { slots: (0..slots).map(|_| stm.new_tvar(Slot::Empty)).collect() }
}

/// The store view handed to a [`KvStore::txn`] closure: the same
/// composable operations, plus growth-request bookkeeping so long
/// probes inside the transaction still trigger maintenance after it
/// commits.
pub struct KvTxn<'s, 'tx> {
    store: &'s KvStore,
    tx: &'s mut Transaction<'tx>,
    grow: GrowSet,
}

impl<'tx> KvTxn<'_, 'tx> {
    /// Point lookup.
    pub fn get(&mut self, key: u64) -> TxResult<Option<Value>> {
        self.store.get_in(self.tx, key)
    }

    /// Membership test.
    pub fn contains(&mut self, key: u64) -> TxResult<bool> {
        self.store.contains_in(self.tx, key)
    }

    /// Insert-or-overwrite; returns the previous value.
    pub fn put(&mut self, key: u64, value: Value) -> TxResult<Option<Value>> {
        let raw = self.store.put_raw(self.tx, key, value)?;
        if raw.grow {
            self.grow.note(self.store.shard_of(key), raw.table_len);
        }
        Ok(raw.prev)
    }

    /// Delete; returns the removed value.
    pub fn delete(&mut self, key: u64) -> TxResult<Option<Value>> {
        self.store.delete_in(self.tx, key)
    }

    /// Number of records in `[lo, hi)` as seen by this transaction.
    pub fn range_count(&mut self, lo: u64, hi: u64) -> TxResult<usize> {
        self.store.range_count_in(self.tx, lo, hi)
    }

    /// The underlying transaction, for composing the store with other
    /// transactional structures living on the same STM inside one
    /// atomic block (e.g. maintaining a `TxMap` secondary index next to
    /// the store's records).
    pub fn tx(&mut self) -> &mut Transaction<'tx> {
        self.tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small_store() -> KvStore {
        KvStore::with_config(
            Arc::new(Stm::new()),
            KvConfig { shards: 4, initial_slots: 8, params: KvParams::fixed() },
        )
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let store = small_store();
        assert_eq!(store.put(1, Value::from_u64(10)), None);
        assert_eq!(store.put(1, Value::from_u64(11)), Some(Value::from_u64(10)));
        assert_eq!(store.get(1), Some(Value::from_u64(11)));
        assert_eq!(store.get(2), None);
        assert!(store.contains(1));
        assert_eq!(store.delete(1), Some(Value::from_u64(11)));
        assert_eq!(store.delete(1), None);
        assert!(store.is_empty());
    }

    #[test]
    fn grows_under_load_and_keeps_every_record() {
        let store = small_store(); // 4 shards x 8 slots = 32 to start
        for k in 0..500u64 {
            assert_eq!(store.put(k, Value::from_u64(k * 2)), None, "key {k}");
        }
        assert!(store.capacity() >= 500, "tables must have grown: {}", store.capacity());
        // Growth must be proportionate: stacked maintenance requests
        // for one pressure event stand down instead of doubling again.
        assert!(
            store.capacity() <= 500 * 8,
            "growth amplification: capacity {} for 500 records",
            store.capacity()
        );
        for k in 0..500u64 {
            assert_eq!(store.get(k), Some(Value::from_u64(k * 2)), "key {k}");
        }
        assert_eq!(store.len(), 500);
    }

    #[test]
    fn deletes_tombstone_and_reinserts_reuse_slots() {
        let store = small_store();
        for k in 0..64u64 {
            store.put(k, Value::from_u64(k));
        }
        for k in (0..64u64).step_by(2) {
            assert!(store.delete(k).is_some());
        }
        assert_eq!(store.len(), 32);
        // Reinsert over the tombstones, plus fresh keys.
        for k in (0..64u64).step_by(2) {
            assert_eq!(store.put(k, Value::from_u64(k + 1000)), None);
        }
        for k in 64..96u64 {
            store.put(k, Value::from_u64(k));
        }
        for k in 0..96u64 {
            assert!(store.contains(k), "key {k}");
        }
        assert_eq!(store.len(), 96);
    }

    #[test]
    fn cas_compares_by_content() {
        let store = small_store();
        // Absent-key CAS.
        assert!(!store.cas(5, Some(&Value::from_u64(1)), Value::from_u64(2)));
        assert!(store.cas(5, None, Value::from_u64(1)));
        assert_eq!(store.get(5), Some(Value::from_u64(1)));
        // Present-key CAS.
        assert!(!store.cas(5, None, Value::from_u64(9)));
        assert!(!store.cas(5, Some(&Value::from_u64(2)), Value::from_u64(9)));
        assert!(store.cas(5, Some(&Value::from_u64(1)), Value::from_u64(9)));
        assert_eq!(store.get(5), Some(Value::from_u64(9)));
    }

    #[test]
    fn modify_is_an_upserting_rmw() {
        let store = small_store();
        let bump =
            |cur: Option<&Value>| Value::from_u64(cur.and_then(Value::as_u64).unwrap_or(0) + 1);
        assert_eq!(store.modify(3, bump), None);
        assert_eq!(store.modify(3, bump), Some(Value::from_u64(1)));
        assert_eq!(store.get(3), Some(Value::from_u64(2)));
    }

    #[test]
    fn multi_put_installs_a_batch_atomically() {
        let store = small_store();
        let batch: Vec<(u64, Value)> = (0..200u64).map(|k| (k * 7, Value::from_u64(k))).collect();
        store.multi_put(&batch);
        for (k, v) in &batch {
            assert_eq!(store.get(*k).as_ref(), Some(v), "key {k}");
        }
        assert_eq!(store.len(), 200);
    }

    #[test]
    fn scans_agree_with_a_model_and_sort_by_key() {
        let store = small_store();
        let mut model = BTreeMap::new();
        let mut seed = 7u64;
        for _ in 0..400 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (seed >> 33) % 256;
            let v = Value::from_u64(seed);
            match seed % 3 {
                0 => {
                    assert_eq!(store.put(k, v.clone()), model.insert(k, v));
                }
                1 => {
                    assert_eq!(store.delete(k), model.remove(&k));
                }
                _ => {
                    assert_eq!(store.get(k), model.get(&k).cloned());
                }
            }
        }
        let got = store.scan_range(50, 200);
        let want: Vec<(u64, Value)> = model.range(50..200).map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(got, want);
        assert_eq!(store.range_count(0, u64::MAX), model.len());
    }

    #[test]
    fn prefix_scan_is_a_range_scan_over_the_prefix_block() {
        let store = small_store();
        // Keys packed as (bucket << 8) | object.
        for bucket in 0..4u64 {
            for object in 0..10u64 {
                store.put((bucket << 8) | object, Value::from_u64(bucket * 100 + object));
            }
        }
        let got = store.scan_prefix(2, 8);
        assert_eq!(got.len(), 10);
        for (i, (k, v)) in got.iter().enumerate() {
            assert_eq!(*k, (2 << 8) | i as u64);
            assert_eq!(v.as_u64(), Some(200 + i as u64));
        }
        assert!(store.scan_prefix(9, 8).is_empty());
    }

    #[test]
    fn extreme_keys_are_first_class() {
        let store = small_store();
        store.put(u64::MAX, Value::from_u64(1));
        store.put(0, Value::from_u64(2));
        assert_eq!(store.len(), 2, "len must count the whole key space, u64::MAX included");
        assert!(store.contains(u64::MAX));
        // The topmost prefix block includes u64::MAX itself.
        let top = store.scan_prefix(u64::MAX >> 8, 8);
        assert_eq!(top, vec![(u64::MAX, Value::from_u64(1))]);
        // Exclusive range bounds stay exclusive.
        assert_eq!(store.range_count(0, u64::MAX), 1);
        assert_eq!(store.range_count(3, 3), 0);
        assert!(store.scan_range(5, 2).is_empty());
    }

    #[test]
    fn multi_put_duplicate_keys_resolve_to_the_last_entry() {
        let store = small_store();
        store.multi_put(&[
            (5, Value::from_u64(1)),
            (9, Value::from_u64(7)),
            (5, Value::from_u64(2)),
            (5, Value::from_u64(3)),
        ]);
        assert_eq!(store.get(5), Some(Value::from_u64(3)), "batch order decides, stably");
        assert_eq!(store.get(9), Some(Value::from_u64(7)));
        assert_eq!(store.len(), 2);
    }

    /// Last-write-wins under pressure: seeded duplicate-heavy batches
    /// (few distinct keys, many occurrences each, interleaved with
    /// overwrites of pre-existing records) must land exactly where a
    /// one-by-one `put` replay of the batch lands.
    #[test]
    fn multi_put_duplicate_heavy_batches_match_sequential_put_replay() {
        let store = small_store();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..20u64 {
            let batch: Vec<(u64, Value)> = (0..64)
                .map(|i| {
                    // 8 distinct keys per round → each key appears ~8
                    // times per batch, in pseudo-random order.
                    let key = next() % 8;
                    let val = round * 1000 + i;
                    (key, Value::from_u64(val))
                })
                .collect();
            for (k, v) in &batch {
                model.insert(*k, v.as_u64().unwrap());
            }
            store.multi_put(&batch);
            for (k, expect) in &model {
                assert_eq!(
                    store.get(*k).and_then(|v| v.as_u64()),
                    Some(*expect),
                    "round {round}: key {k} must hold its latest batch occurrence"
                );
            }
        }
        assert_eq!(store.len(), model.len());
    }

    #[test]
    fn cross_shard_txn_commits_atomically() {
        let store = small_store();
        store.put(0, Value::from_u64(100));
        store.put(1, Value::from_u64(0));
        // Transfer 30 from key 0 to key 1 — the keys hash to whatever
        // shards they hash to; the transaction spans them regardless.
        store.txn(|kv| {
            let a = kv.get(0)?.and_then(|v| v.as_u64()).unwrap();
            let b = kv.get(1)?.and_then(|v| v.as_u64()).unwrap();
            kv.put(0, Value::from_u64(a - 30))?;
            kv.put(1, Value::from_u64(b + 30))?;
            Ok(())
        });
        assert_eq!(store.get(0).unwrap().as_u64(), Some(70));
        assert_eq!(store.get(1).unwrap().as_u64(), Some(30));
    }

    #[test]
    fn large_values_share_bytes_and_stay_on_the_inline_write_path() {
        let store = small_store();
        store.stm().reset_stats();
        let blob = Value::from_bytes(&[0xAB; 4096]);
        assert!(blob.is_shared());
        for k in 0..50u64 {
            store.put(k, blob.clone());
        }
        assert_eq!(store.get(7), Some(blob.clone()));
        // The satellite invariant: 4 KiB record payloads must not push
        // TVar writes onto the boxed slow path — the Arc keeps every
        // buffered write inside the inline budget.
        assert_eq!(
            store.stm().stats().boxed_writes,
            0,
            "large kv values must never take the boxed write-payload path"
        );
    }

    #[test]
    fn composes_with_other_stores_on_the_same_stm() {
        let stm = Arc::new(Stm::new());
        let a = KvStore::new(Arc::clone(&stm));
        let b = KvStore::new(Arc::clone(&stm));
        a.put(1, Value::from_u64(5));
        stm.run(TxParams::default(), |tx| {
            if let Some(v) = a.delete_in(tx, 1)? {
                b.put_in(tx, 1, v)?;
            }
            Ok(())
        });
        assert_eq!(a.get(1), None);
        assert_eq!(b.get(1), Some(Value::from_u64(5)));
    }

    #[test]
    #[should_panic(expected = "opaque or irrevocable")]
    fn elastic_writer_params_are_rejected() {
        let mut params = KvParams::fixed();
        params.update = TxParams::new(Semantics::elastic());
        KvStore::with_config(
            Arc::new(Stm::new()),
            KvConfig { shards: 2, initial_slots: 8, params },
        );
    }

    #[test]
    fn classed_params_assign_distinct_classes() {
        let p = KvParams::classed(10);
        let classes = [p.read.class, p.update.class, p.rmw.class, p.scan.class, p.txn.class];
        for (i, c) in classes.iter().enumerate() {
            assert_eq!(*c, Some(ClassId(10 + i as u16)));
        }
        // Classed stores construct fine (the writers still request
        // opaque).
        let store = KvStore::with_config(
            Arc::new(Stm::new()),
            KvConfig { shards: 2, initial_slots: 8, params: p },
        );
        store.put(1, Value::from_u64(1));
        assert!(store.contains(1));
    }
}
