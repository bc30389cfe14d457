//! `TVar::read_with`, the borrowing read: for every semantics it must
//! return what `read` returns and leave the same trail — read-set
//! entries, cuts, extensions, aborts and retries. Cross-thread
//! interleavings are driven deterministically over channels.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::channel;

use polytm::{Semantics, StatsSnapshot, Stm, StmConfig, TVar, Transaction, TxParams, TxResult};

fn no_fallback_config() -> StmConfig {
    StmConfig { irrevocable_fallback_after: None, ..StmConfig::default() }
}

/// How a test body reads a location: by clone or by borrow.
#[derive(Clone, Copy, Debug)]
enum Via {
    Read,
    ReadWith,
}

fn read_via(via: Via, var: &TVar<i64>, tx: &mut Transaction<'_>) -> TxResult<i64> {
    match via {
        Via::Read => var.read(tx),
        // A borrowing projection that still yields the value, so both
        // arms must agree exactly.
        Via::ReadWith => var.read_with(tx, |v| *v),
    }
}

#[test]
fn read_own_write_returns_the_buffered_value() {
    let stm = Stm::new();
    let x = stm.new_tvar(String::from("committed"));
    stm.run(TxParams::default(), |t| {
        x.write(t, String::from("buffered"))?;
        assert_eq!(x.read_with(t, |s| s.clone())?, "buffered");
        assert_eq!(x.read_with(t, String::len)?, 8);
        // A buffered write is not a read-set entry.
        assert_eq!(t.live_reads(), 0);
        Ok(())
    });
    assert_eq!(x.load_committed(), "buffered");
}

#[test]
fn snapshot_read_with_ignores_a_commit_newer_than_rv() {
    let stm = Stm::with_config(no_fallback_config());
    let x = stm.new_tvar(1i64);
    let attempts = AtomicU32::new(0);
    std::thread::scope(|s| {
        let (req_tx, req_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<()>();
        let stm_ref = &stm;
        let xh = &x;
        s.spawn(move || {
            while req_rx.recv().is_ok() {
                stm_ref.run(TxParams::default(), |t| xh.write(t, 2));
                done_tx.send(()).unwrap();
            }
        });
        let seen = stm.run(TxParams::new(Semantics::Snapshot), |t| {
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                // Commit a newer version after this snapshot's rv.
                req_tx.send(()).unwrap();
                done_rx.recv().unwrap();
            }
            assert!(x.committed_version() > t.read_version());
            x.read_with(t, |v| *v * 10)
        });
        drop(req_tx);
        assert_eq!(seen, 10, "the snapshot must read the version at its rv");
    });
    assert_eq!(attempts.load(Ordering::SeqCst), 1, "a snapshot read never aborts here");
    assert_eq!(x.load_committed(), 2);
}

/// Runs an opaque transaction that reads `x`, lets another thread
/// overwrite it, and reads it again; returns (attempts, observed pair,
/// stats).
fn opaque_reread_after_overwrite(via: Via) -> (u32, (i64, i64), StatsSnapshot) {
    let stm = Stm::with_config(no_fallback_config());
    let x = stm.new_tvar(0i64);
    let attempts = AtomicU32::new(0);
    let pair = std::thread::scope(|s| {
        let (req_tx, req_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<()>();
        let stm_ref = &stm;
        let xh = &x;
        s.spawn(move || {
            while req_rx.recv().is_ok() {
                stm_ref.run(TxParams::default(), |t| xh.modify(t, |v| v + 1));
                done_tx.send(()).unwrap();
            }
        });
        let pair = stm.run(TxParams::new(Semantics::Opaque), |t| {
            let n = attempts.fetch_add(1, Ordering::SeqCst);
            let a = read_via(via, &x, t)?;
            if n == 0 {
                req_tx.send(()).unwrap();
                done_rx.recv().unwrap();
            }
            let b = read_via(via, &x, t)?;
            Ok((a, b))
        });
        drop(req_tx);
        pair
    });
    (attempts.load(Ordering::SeqCst), pair, stm.stats())
}

#[test]
fn opaque_read_with_aborts_and_retries_exactly_like_read() {
    let (attempts, pair, stats) = opaque_reread_after_overwrite(Via::ReadWith);
    let (r_attempts, r_pair, r_stats) = opaque_reread_after_overwrite(Via::Read);
    assert_eq!(attempts, 2, "the overwritten location must abort the first attempt");
    assert_eq!(pair, (1, 1), "the committed attempt observes one value");
    assert_eq!((attempts, pair), (r_attempts, r_pair));
    assert_eq!(stats.aborts_read_conflict, 1);
    assert_eq!(stats.aborts_read_conflict, r_stats.aborts_read_conflict);
    // Both transactions commit, the retried one and the overwriter.
    assert_eq!(stats.commits, r_stats.commits);
}

/// An opaque read of a location committed after the transaction began
/// extends the read version, through either read path.
fn opaque_extension(via: Via) -> (u32, (i64, i64), u64) {
    let stm = Stm::with_config(no_fallback_config());
    let x = stm.new_tvar(0i64);
    let y = stm.new_tvar(0i64);
    let attempts = AtomicU32::new(0);
    let pair = std::thread::scope(|s| {
        let (req_tx, req_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<()>();
        let stm_ref = &stm;
        let yh = &y;
        s.spawn(move || {
            while req_rx.recv().is_ok() {
                stm_ref.run(TxParams::default(), |t| yh.write(t, 5));
                done_tx.send(()).unwrap();
            }
        });
        let pair = stm.run(TxParams::new(Semantics::Opaque), |t| {
            let n = attempts.fetch_add(1, Ordering::SeqCst);
            let a = read_via(via, &x, t)?;
            if n == 0 {
                req_tx.send(()).unwrap();
                done_rx.recv().unwrap();
            }
            let b = read_via(via, &y, t)?;
            Ok((a, b))
        });
        drop(req_tx);
        pair
    });
    (attempts.load(Ordering::SeqCst), pair, stm.stats().extensions)
}

#[test]
fn opaque_read_with_extends_exactly_like_read() {
    assert_eq!(opaque_extension(Via::ReadWith), (1, (0, 5), 1));
    assert_eq!(opaque_extension(Via::Read), (1, (0, 5), 1));
}

#[test]
fn elastic_read_with_counts_toward_cuts() {
    for via in [Via::Read, Via::ReadWith] {
        let stm = Stm::new();
        let vars: Vec<_> = (0..10).map(|i| stm.new_tvar(i as i64)).collect();
        let (sum, live) = stm.run(TxParams::weak(), |t| {
            let mut acc = 0;
            for v in &vars {
                acc += read_via(via, v, t)?;
            }
            Ok((acc, t.live_reads()))
        });
        assert_eq!(sum, 45, "{via:?}");
        // 10 reads through a window of 2: 8 reads slid out.
        assert_eq!(stm.stats().elastic_cuts, 8, "{via:?}");
        assert_eq!(live, 2, "{via:?}");
    }
    // Mixed: borrowing reads share one window with cloning reads.
    let stm = Stm::new();
    let vars: Vec<_> = (0..10).map(|i| stm.new_tvar(i as i64)).collect();
    stm.run(TxParams::weak(), |t| {
        for (i, v) in vars.iter().enumerate() {
            let via = if i % 2 == 0 { Via::Read } else { Via::ReadWith };
            read_via(via, v, t)?;
        }
        Ok(())
    });
    assert_eq!(stm.stats().elastic_cuts, 8);
}

#[test]
fn irrevocable_read_with_sees_the_frozen_committed_state() {
    let stm = Stm::new();
    let x = stm.new_tvar(vec![1u8, 2, 3]);
    let len = stm.run(TxParams::new(Semantics::Irrevocable), |t| {
        let before = x.read_with(t, Vec::len)?;
        x.write(t, vec![0; 5])?;
        Ok((before, x.read_with(t, Vec::len)?))
    });
    assert_eq!(len, (3, 5));
}
