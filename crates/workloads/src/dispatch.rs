//! The one place a [`LockKind`] and its [`LockOptions`] become a
//! concrete lock type.
//!
//! Every consumer that must run generic code over "the lock this kind
//! names" — the throughput runner, the conformance, leak
//! and chaos suites, `examples/lockstat.rs` — is a [`LockVisitor`]
//! handed to [`LockKind::with_lock`]. The match below is exhaustive, so
//! adding a lock kind without wiring it here fails to compile, and wiring
//! it here covers every consumer at once.

use crate::config::{LockKind, LockOptions};
use oll::baselines::{CentralizedRwLock, KsuhLock, SolarisLikeRwLock, StdRwLock};
use oll::core::{FollLock, GollLock, RollLock, RwLockFamily, SelfTuning};
use oll::csnzi::TreeShape;
use oll::hazard::Watched;

/// Generic code to run over one constructed lock. A trait rather than a
/// closure because the lock's type differs per kind and option set, and
/// closures cannot be generic.
pub trait LockVisitor {
    /// What the visit produces.
    type Out;

    /// Receives the lock [`LockKind::with_lock`] built.
    fn visit<L: RwLockFamily + 'static>(self, lock: L) -> Self::Out;
}

/// Wraps the lock in [`Watched`] when `hazard` is asked for (on every
/// kind, baselines included) and hands it over.
fn arm<L: RwLockFamily + 'static, V: LockVisitor>(lock: L, opts: &LockOptions, v: V) -> V::Out {
    if opts.hazard {
        v.visit(Watched::new(lock))
    } else {
        v.visit(lock)
    }
}

impl LockKind {
    /// Builds this kind of lock for `capacity` threads under `opts` and
    /// passes it to `visitor`. The OLL locks take every option, in this
    /// order: builder options (`shape_threads`, and on FOLL/ROLL
    /// `cohort`), then the `Bravo` wrapper when `biased` or
    /// `self_tuning`, then the [`SelfTuning`] wrapper when `self_tuning`
    /// (the bias is the controller's only lever). The baselines have
    /// nothing to configure and ignore all of those. `hazard` wraps
    /// whatever was built in [`Watched`], outermost.
    pub fn with_lock<V: LockVisitor>(
        self,
        capacity: usize,
        opts: &LockOptions,
        visitor: V,
    ) -> V::Out {
        macro_rules! oll {
            ($builder:expr) => {{
                let mut b = $builder;
                if let Some(n) = opts.shape_threads {
                    b = b.tree_shape(TreeShape::for_threads(n));
                }
                if opts.self_tuning {
                    arm(
                        SelfTuning::new(b.biased(true).build_biased()),
                        opts,
                        visitor,
                    )
                } else if opts.biased {
                    arm(b.biased(true).build_biased(), opts, visitor)
                } else {
                    arm(b.build(), opts, visitor)
                }
            }};
        }
        match self {
            LockKind::Goll => oll!(GollLock::builder(capacity)),
            LockKind::Foll => oll!(FollLock::builder(capacity).cohort(opts.cohort)),
            LockKind::Roll => oll!(RollLock::builder(capacity).cohort(opts.cohort)),
            LockKind::Ksuh => arm(KsuhLock::new(capacity), opts, visitor),
            LockKind::SolarisLike => arm(SolarisLikeRwLock::new(capacity), opts, visitor),
            LockKind::Centralized => arm(CentralizedRwLock::new(capacity), opts, visitor),
            LockKind::StdRw => arm(StdRwLock::new(capacity), opts, visitor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oll::core::{Bravo, RwHandle};
    use std::any::{type_name, Any};

    /// Finds the OLL lock `Q` under whichever wrappers the options put
    /// around it.
    fn peel<Q: RwLockFamily + 'static>(lock: &dyn Any) -> Option<&Q> {
        /// `S`, bare or watched, unwrapped down to `Q`.
        fn shape<S: 'static, Q>(lock: &dyn Any, unwrap: fn(&S) -> &Q) -> Option<&Q> {
            lock.downcast_ref::<S>()
                .or_else(|| lock.downcast_ref::<Watched<S>>().map(Watched::inner))
                .map(unwrap)
        }
        None.or_else(|| shape::<Q, Q>(lock, |q| q))
            .or_else(|| shape(lock, Bravo::<Q>::inner))
            .or_else(|| shape(lock, |t: &SelfTuning<Bravo<Q>>| t.inner().inner()))
    }

    /// Checks that the lock handed over works and shows the options as
    /// far as the public API does; returns the name it goes by.
    struct Probe(LockKind, LockOptions);

    impl LockVisitor for Probe {
        type Out = &'static str;

        fn visit<L: RwLockFamily + 'static>(self, lock: L) -> &'static str {
            let Probe(kind, opts) = self;
            let what = format!("{} under {opts:?}", kind.name());

            assert_eq!(lock.capacity(), 2, "{what}");
            let mut h = lock.handle().expect("fresh lock has a free slot");
            h.lock_read();
            h.unlock_read();
            h.lock_write();
            h.unlock_write();
            drop(h);

            let oll = matches!(kind, LockKind::Goll | LockKind::Foll | LockKind::Roll);
            let ty = type_name::<L>();
            let biased = opts.biased || opts.self_tuning;
            assert_eq!(ty.contains("Bravo"), oll && biased, "{what}: {ty}");
            assert_eq!(
                ty.contains("SelfTuning"),
                oll && opts.self_tuning,
                "{what}: {ty}"
            );

            // The cohort gate as the OLL lock underneath reports it; `None`
            // when there is no OLL lock underneath.
            let any: &dyn Any = &lock;
            let built = None
                .or_else(|| peel::<GollLock>(any).map(|_| false))
                .or_else(|| peel::<FollLock>(any).map(FollLock::is_cohort))
                .or_else(|| peel::<RollLock>(any).map(RollLock::is_cohort));
            let asked = opts.cohort && kind != LockKind::Goll;
            assert_eq!(built, oll.then_some(asked), "{what}");

            assert_eq!(ty.contains("Watched"), opts.hazard, "{what}: {ty}");
            lock.name()
        }
    }

    #[test]
    fn every_kind_under_every_option_set_is_what_was_asked_for() {
        for kind in LockKind::ALL {
            let names: std::collections::HashSet<_> = (0..32u32)
                .map(|bits| {
                    let on = |bit: u32| bits & (1 << bit) != 0;
                    let opts = LockOptions {
                        shape_threads: on(0).then_some(2),
                        biased: on(1),
                        hazard: on(2),
                        cohort: on(3),
                        self_tuning: on(4),
                    };
                    kind.with_lock(2, &opts, Probe(kind, opts))
                })
                .collect();
            assert_eq!(
                names.len(),
                1,
                "{}: wrappers rename: {names:?}",
                kind.name()
            );
        }
    }
}
