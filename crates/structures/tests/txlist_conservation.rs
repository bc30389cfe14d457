//! Set conservation for [`TxList`] under concurrent elastic updates:
//! every `insert` that returns `true` adds exactly one key and every
//! `remove` that returns `true` takes exactly one away, so the final
//! length is the prefill plus the net successful inserts.
//!
//! The operation sequence is seeded; the interleaving is whatever the
//! scheduler makes of two threads on 16 hot keys, which is dense enough
//! that a remove racing an insert or remove through the node it
//! unlinks happens many times per run.

use std::sync::Arc;

use polytm::Stm;
use polytm_structures::TxList;

const KEYS: u64 = 16;
const THREADS: u64 = 2;
const OPS_PER_THREAD: u64 = 50_000;

/// xorshift64*: a fixed, dependency-free operation stream per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn elastic_insert_remove_conserves_the_set() {
    let list = TxList::new(Arc::new(Stm::new()));
    let mut prefill = 0i64;
    for k in (0..KEYS as i64).step_by(2) {
        assert!(list.insert(k));
        prefill += 1;
    }
    let net: i64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let list = list.clone();
                s.spawn(move || {
                    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (t + 1));
                    let mut net = 0i64;
                    for _ in 0..OPS_PER_THREAD {
                        let r = rng.next();
                        let key = (r % KEYS) as i64;
                        if (r >> 32) & 1 == 0 {
                            net += i64::from(list.insert(key));
                        } else {
                            net -= i64::from(list.remove(key));
                        }
                    }
                    net
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker panicked")).sum()
    });
    let keys = list.to_vec();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "list not strictly sorted: {keys:?}");
    assert_eq!(
        list.len() as i64,
        prefill + net,
        "final length must be prefill + net successful inserts (keys: {keys:?})"
    );
}
