//! Model-based property tests: each lock is driven single-threaded
//! through arbitrary operation sequences on several handles, against a
//! sequential reference model of reader-writer state.
//!
//! Soundness direction (must always hold): an acquisition the model
//! forbids must fail, and blocking acquisitions are only issued when the
//! model guarantees they cannot block. Conservative `try_*`
//! implementations (FOLL/ROLL/KSUH fail on a non-empty queue even when
//! compatible) are allowed to fail where the model would permit — that is
//! their documented contract — so the checks are implications, not
//! equivalences.

use oll::{
    CentralizedRwLock, FollLock, GollLock, KsuhLock, RollLock, RwHandle, RwLockFamily,
    SolarisLikeRwLock, StdRwLock,
};
use proptest::prelude::*;

const HANDLES: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Op {
    TryRead(usize),
    TryWrite(usize),
    LockRead(usize),
    LockWrite(usize),
    Unlock(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..HANDLES).prop_map(Op::TryRead),
        (0..HANDLES).prop_map(Op::TryWrite),
        (0..HANDLES).prop_map(Op::LockRead),
        (0..HANDLES).prop_map(Op::LockWrite),
        (0..HANDLES).prop_map(Op::Unlock),
    ]
}

/// What each handle currently holds, per the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    None,
    Read,
    Write,
}

fn run_model<L: RwLockFamily>(lock: &L, ops: &[Op]) {
    let mut handles: Vec<_> = (0..HANDLES).map(|_| lock.handle().unwrap()).collect();
    let mut holds = [Hold::None; HANDLES];

    let readers = |holds: &[Hold; HANDLES]| holds.iter().filter(|h| **h == Hold::Read).count();
    let writer = |holds: &[Hold; HANDLES]| holds.contains(&Hold::Write);

    for &op in ops {
        match op {
            Op::TryRead(i) => {
                if holds[i] != Hold::None {
                    continue; // handle busy: out of contract
                }
                let ok = handles[i].try_lock_read();
                if ok {
                    assert!(
                        !writer(&holds),
                        "try_read succeeded while the model shows a writer"
                    );
                    holds[i] = Hold::Read;
                }
            }
            Op::TryWrite(i) => {
                if holds[i] != Hold::None {
                    continue;
                }
                let ok = handles[i].try_lock_write();
                if ok {
                    assert!(
                        readers(&holds) == 0 && !writer(&holds),
                        "try_write succeeded while the model shows holders"
                    );
                    holds[i] = Hold::Write;
                }
            }
            Op::LockRead(i) => {
                // Only issue a blocking read when it cannot block: no
                // writer holds, and (for strict-FIFO locks) no residual
                // writer can be queued because we are single-threaded.
                if holds[i] != Hold::None || writer(&holds) {
                    continue;
                }
                handles[i].lock_read();
                holds[i] = Hold::Read;
            }
            Op::LockWrite(i) => {
                if holds[i] != Hold::None || writer(&holds) || readers(&holds) > 0 {
                    continue;
                }
                handles[i].lock_write();
                holds[i] = Hold::Write;
            }
            Op::Unlock(i) => match holds[i] {
                Hold::None => {}
                Hold::Read => {
                    handles[i].unlock_read();
                    holds[i] = Hold::None;
                }
                Hold::Write => {
                    handles[i].unlock_write();
                    holds[i] = Hold::None;
                }
            },
        }
    }
    // Drain all holds so the lock ends clean.
    for (i, hold) in holds.iter().enumerate() {
        match hold {
            Hold::None => {}
            Hold::Read => handles[i].unlock_read(),
            Hold::Write => handles[i].unlock_write(),
        }
    }
    // The drained lock must accept a full cycle.
    handles[0].lock_write();
    handles[0].unlock_write();
    handles[0].lock_read();
    handles[0].unlock_read();
}

macro_rules! model_test {
    ($name:ident, $ctor:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy(), 1..120)) {
                let lock = $ctor(HANDLES);
                run_model(&lock, &ops);
            }
        }
    };
}

model_test!(goll_follows_model, GollLock::new);
model_test!(foll_follows_model, FollLock::new);
model_test!(roll_follows_model, RollLock::new);
model_test!(ksuh_follows_model, KsuhLock::new);
model_test!(solaris_like_follows_model, SolarisLikeRwLock::new);
model_test!(centralized_follows_model, CentralizedRwLock::new);
model_test!(std_rw_follows_model, StdRwLock::new);
