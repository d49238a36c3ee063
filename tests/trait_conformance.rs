//! Behavioral conformance: every `RwLockFamily` implementation must obey
//! the same contract — guard semantics, try-lock semantics, capacity
//! accounting, and slot reuse — checked generically.

use oll::baselines::SolarisLikeRwLock;
use oll::{
    Bravo, FollLock, GollLock, RollLock, RwHandle, RwLockFamily, StdRwLock, TimedHandle,
    UpgradableHandle, Watched,
};
use oll_workloads::{LockKind, LockOptions, LockVisitor};
use std::time::Duration;

/// Boxes the lock `LockKind::with_lock` built behind the type-erased
/// [`Tester`] — plain, or wrapped in the BRAVO biasing layer (with a
/// private visible-readers table so concurrently running tests cannot
/// collide in the process-global one) armed or not; and that, when
/// `watched`, wrapped in the hazard layer.
#[derive(Clone, Copy)]
struct MakeTester {
    bravo: Option<bool>,
    watched: bool,
}

impl MakeTester {
    fn tester<L: RwLockFamily + 'static>(self, lock: L) -> Box<dyn Tester + 'static> {
        if self.watched {
            let lock: &'static Watched<L> = Box::leak(Box::new(Watched::new(lock)));
            Box::new(LockTester {
                lock,
                poison: Some(lock),
            })
        } else {
            Box::new(LockTester {
                lock: Box::leak(Box::new(lock)),
                poison: None,
            })
        }
    }
}

impl LockVisitor for MakeTester {
    type Out = Box<dyn Tester + 'static>;

    fn visit<L: RwLockFamily + 'static>(self, lock: L) -> Self::Out {
        match self.bravo {
            None => self.tester(lock),
            Some(bias) => self.tester(Bravo::wrapping(lock, bias).private_table(64)),
        }
    }
}

/// A lock's poison mark, for the locks that keep one.
trait PoisonMark {
    fn is_poisoned(&self) -> bool;
    fn clear_poison(&self);
}

impl<L: RwLockFamily> PoisonMark for Watched<L> {
    fn is_poisoned(&self) -> bool {
        Watched::is_poisoned(self)
    }

    fn clear_poison(&self) {
        Watched::clear_poison(self)
    }
}

/// Runs `f` once per lock in [`LockKind::ALL`] (each wrapped in `Bravo`,
/// armed or not, when `bravo` says so), built by the evaluation
/// harness's own dispatcher — whose exhaustive match keeps this suite in
/// lockstep with it: adding a lock kind without conformance coverage
/// fails to compile.
fn for_each(
    bravo: Option<bool>,
    f: impl FnMut(&dyn Fn(usize) -> Box<dyn Tester + 'static>, LockKind),
) {
    for_each_made(
        MakeTester {
            bravo,
            watched: false,
        },
        f,
    );
}

/// [`for_each`] with the wrappers `tester` names.
fn for_each_made(
    tester: MakeTester,
    mut f: impl FnMut(&dyn Fn(usize) -> Box<dyn Tester + 'static>, LockKind),
) {
    for kind in LockKind::ALL {
        let make = move |cap: usize| -> Box<dyn Tester + 'static> {
            kind.with_lock(cap, &LockOptions::default(), tester)
        };
        f(&make, kind);
    }
}

/// Type-erased view of a lock for the generic conformance checks.
trait Tester {
    fn capacity(&self) -> usize;
    fn with_two_handles(&self, f: &mut dyn FnMut(&mut dyn RwHandle, &mut dyn RwHandle));
    fn claim_all_then_fail(&self);
    fn reuse_after_drop(&self);
    fn panic_in_critical_sections(&self, label: &str);
}

struct LockTester<L: RwLockFamily + 'static> {
    lock: &'static L,
    /// The same lock's poison mark, when it keeps one.
    poison: Option<&'static dyn PoisonMark>,
}

impl<L: RwLockFamily> Tester for LockTester<L> {
    fn capacity(&self) -> usize {
        self.lock.capacity()
    }

    fn with_two_handles(&self, f: &mut dyn FnMut(&mut dyn RwHandle, &mut dyn RwHandle)) {
        let mut a = self.lock.handle().unwrap();
        let mut b = self.lock.handle().unwrap();
        f(&mut a, &mut b);
    }

    fn claim_all_then_fail(&self) {
        let handles: Vec<_> = (0..self.lock.capacity())
            .map(|_| self.lock.handle().unwrap())
            .collect();
        assert!(self.lock.handle().is_err(), "over-capacity claim succeeded");
        drop(handles);
    }

    fn reuse_after_drop(&self) {
        for _ in 0..3 * self.lock.capacity() {
            let mut h = self.lock.handle().unwrap();
            h.lock_read();
            h.unlock_read();
            h.lock_write();
            h.unlock_write();
        }
    }

    fn panic_in_critical_sections(&self, label: &str) {
        let mut h = self.lock.handle().unwrap();
        for write in [false, true] {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if write {
                    let _g = h.write();
                    panic!("conformance: write holder dies");
                } else {
                    let _g = h.read();
                    panic!("conformance: read holder dies");
                }
            }));
            assert!(unwound.is_err(), "{label}: panic did not propagate");
            // No deadlock: the unwinding guard released the hold, so both
            // modes must be immediately reacquirable on a second handle.
            let mut other = self.lock.handle().unwrap();
            other.lock_read();
            other.unlock_read();
            other.lock_write();
            other.unlock_write();
            // Poison marks a panicking *write* holder only, and only on
            // a watched lock; a panicking reader never poisons.
            if let Some(hz) = self.poison {
                assert_eq!(
                    hz.is_poisoned(),
                    write,
                    "{label}: wrong poison state after {} panic",
                    if write { "write" } else { "read" },
                );
                hz.clear_poison();
                assert!(!hz.is_poisoned(), "{label}: clear_poison had no effect");
            }
        }
    }
}

#[test]
fn capacity_is_reported_and_enforced() {
    for_each(None, |make, kind| {
        let t = make(3);
        assert_eq!(t.capacity(), 3, "{}", kind.name());
        t.claim_all_then_fail();
    });
}

#[test]
fn slots_are_reusable_after_handle_drop() {
    for_each(None, |make, _name| {
        let t = make(2);
        t.reuse_after_drop();
    });
}

#[test]
fn readers_share_writers_exclude() {
    for_each(None, |make, kind| {
        let t = make(2);
        let name = kind.name();
        t.with_two_handles(&mut |a, b| {
            a.lock_read();
            // A second reader must be admitted without blocking (KSUH
            // admits a reader whose predecessor is an active reader on its
            // *blocking* path; its try path is deliberately conservative).
            b.lock_read();
            b.unlock_read();
            assert!(!b.try_lock_write(), "{name}: writer entered beside reader");
            a.unlock_read();
        });
    });
}

#[test]
fn write_lock_is_exclusive() {
    for_each(None, |make, kind| {
        let t = make(2);
        let name = kind.name();
        t.with_two_handles(&mut |a, b| {
            a.lock_write();
            assert!(!b.try_lock_read(), "{name}: reader entered beside writer");
            assert!(!b.try_lock_write(), "{name}: second writer entered");
            a.unlock_write();
        });
    });
}

#[test]
fn try_write_succeeds_on_free_lock_eventually() {
    // Conservative implementations may fail try_write while residual
    // queue nodes linger; a full write cycle must clear that state.
    for_each(None, |make, kind| {
        let t = make(2);
        let name = kind.name();
        t.with_two_handles(&mut |a, _b| {
            a.lock_read();
            a.unlock_read();
            a.lock_write(); // clears any residual reader node
            a.unlock_write();
            assert!(a.try_lock_write(), "{name}: free lock refused try_write");
            a.unlock_write();
        });
    });
}

#[test]
fn bravo_wrapped_locks_enforce_capacity_and_reuse() {
    for bias in [false, true] {
        for_each(Some(bias), |make, kind| {
            let t = make(3);
            assert_eq!(t.capacity(), 3, "{} (bias={bias})", kind.name());
            t.claim_all_then_fail();
        });
        for_each(Some(bias), |make, _kind| {
            let t = make(2);
            t.reuse_after_drop();
        });
    }
}

#[test]
fn bravo_wrapped_readers_share_writers_exclude() {
    for bias in [false, true] {
        for_each(Some(bias), |make, kind| {
            let t = make(2);
            let name = kind.name();
            t.with_two_handles(&mut |a, b| {
                a.lock_read();
                // A fast reader (the wrapper bypasses the inner lock) or,
                // on a colliding slot, an inner one: either way b shares.
                b.lock_read();
                b.unlock_read();
                assert!(
                    !b.try_lock_write(),
                    "{name} (bias={bias}): writer entered beside reader"
                );
                a.unlock_read();
            });
        });
        for_each(Some(bias), |make, kind| {
            let t = make(2);
            let name = kind.name();
            t.with_two_handles(&mut |a, b| {
                a.lock_write();
                assert!(
                    !b.try_lock_read(),
                    "{name} (bias={bias}): reader entered beside writer"
                );
                assert!(
                    !b.try_lock_write(),
                    "{name} (bias={bias}): second writer entered"
                );
                a.unlock_write();
                assert!(b.try_lock_write(), "{name} (bias={bias})");
                b.unlock_write();
            });
        });
    }
}

#[test]
fn bravo_wrapped_upgrade_paths() {
    for bias in [false, true] {
        let lock = Bravo::wrapping(GollLock::new(2), bias).private_table(64);
        let mut a = lock.handle().unwrap();
        let mut b = lock.handle().unwrap();
        // Sole reader upgrades (fast-path hold when biased, slow-path
        // hold otherwise); a rival reader must force a failure that
        // keeps the read hold.
        a.lock_read();
        assert!(a.try_upgrade(), "sole reader upgrades (bias={bias})");
        a.downgrade();
        b.lock_read();
        assert!(
            !a.try_upgrade(),
            "rival reader blocks upgrade (bias={bias})"
        );
        assert!(
            !b.try_upgrade(),
            "rival reader blocks upgrade (bias={bias})"
        );
        // Both kept their read holds.
        a.unlock_read();
        assert!(b.try_upgrade(), "now-sole reader upgrades (bias={bias})");
        b.unlock_write();
    }
}

#[test]
fn bravo_wrapped_timeout_paths() {
    fn timed<L>(lock: Bravo<L>, bias: bool)
    where
        L: RwLockFamily,
        for<'a> L::Handle<'a>: TimedHandle,
    {
        let mut a = lock.handle().unwrap();
        let mut b = lock.handle().unwrap();
        assert!(a.lock_read_timeout(Duration::from_secs(5)).is_ok());
        // A reader (fast or slow) must time a writer out without the
        // revocation scan hanging the attempt.
        assert!(
            b.lock_write_timeout(Duration::from_millis(10)).is_err(),
            "writer must time out beside reader (bias={bias})"
        );
        a.unlock_read();
        assert!(b.lock_write_timeout(Duration::from_secs(5)).is_ok());
        assert!(
            a.lock_read_timeout(Duration::from_millis(10)).is_err(),
            "reader must time out beside writer (bias={bias})"
        );
        b.unlock_write();
        assert!(a.lock_read_timeout(Duration::from_secs(5)).is_ok());
        a.unlock_read();
    }
    for bias in [false, true] {
        timed(
            Bravo::wrapping(GollLock::new(2), bias).private_table(64),
            bias,
        );
        timed(
            Bravo::wrapping(FollLock::new(2), bias).private_table(64),
            bias,
        );
        timed(
            Bravo::wrapping(RollLock::new(2), bias).private_table(64),
            bias,
        );
        timed(
            Bravo::wrapping(SolarisLikeRwLock::new(2), bias).private_table(64),
            bias,
        );
        timed(
            Bravo::wrapping(StdRwLock::new(2), bias).private_table(64),
            bias,
        );
    }
}

/// The robustness sweep: every lock kind × read/write critical-section
/// panic × plain/BRAVO-wrapped (biased and unbiased)/watched/watched
/// BRAVO must unwind without deadlocking a later acquirer, and on the
/// watched locks the poison mark must track exactly the
/// panicking-write-holder case.
#[test]
fn panicking_holders_never_deadlock_and_poison_correctly() {
    quiet_conformance_panics();
    for_each(None, |make, kind| {
        make(2).panic_in_critical_sections(kind.name());
    });
    for bias in [false, true] {
        for_each(Some(bias), |make, kind| {
            make(2).panic_in_critical_sections(&format!("Bravo<{}> bias={bias}", kind.name()));
        });
    }
    for bravo in [None, Some(true)] {
        let tester = MakeTester {
            bravo,
            watched: true,
        };
        for_each_made(tester, |make, kind| {
            make(2)
                .panic_in_critical_sections(&format!("Watched<{}> bravo={bravo:?}", kind.name()));
        });
    }
}

/// Silences the default panic-hook report for this suite's own injected
/// panics; real failures still report through the previous hook.
fn quiet_conformance_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(|m| m.starts_with("conformance:")) {
                return;
            }
            prev(info);
        }));
    });
}

#[test]
fn guards_unlock_on_drop_and_sequence_correctly() {
    for_each(None, |make, kind| {
        let t = make(2);
        let name = kind.name();
        t.with_two_handles(&mut |a, b| {
            {
                a.lock_read();
                a.unlock_read();
            }
            a.lock_write();
            a.unlock_write();
            // Interleaved handles: b acquires after a released.
            assert!(b.try_lock_write(), "{name}");
            b.unlock_write();
        });
    });
}
