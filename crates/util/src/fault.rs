//! Deterministic fault injection at named synchronization points.
//!
//! Races in the lock slow paths (a timeout racing a hand-off, a reader
//! cancelling while the last active reader departs) occupy windows of a few
//! instructions; stress tests hit them once in millions of iterations, if
//! ever. This module lets tests *force* those interleavings: the lock code
//! is annotated with [`inject`]`("site-name")` calls at the interesting
//! windows, and a test installs a `FaultPlan` that deterministically
//! widens chosen windows by yielding the thread there.
//!
//! Properties that make this usable as a test oracle:
//!
//! * **Zero cost when disabled.** Without `cfg(feature = "fault-injection")`
//!   the `inject` calls compile to empty inline functions; the lock crates
//!   ship no fault-injection code in normal builds.
//! * **Deterministic.** Whether site occurrence *k* of site *s* delays, and
//!   for how long, is a pure function of `(plan.seed, s, k)`. The same plan
//!   on the same schedule-relevant inputs reproduces the same injected
//!   delays — no global RNG state, no wall-clock dependence.
//! * **Scoped.** `FaultPlan::install` returns a guard; dropping it
//!   uninstalls the plan, so tests compose under `cargo test` as long as
//!   fault-injection tests run single-threaded per plan (the plan itself is
//!   process-global).

#[cfg(feature = "fault-injection")]
mod enabled {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// A deterministic schedule of delays at named injection sites.
    #[derive(Debug, Clone)]
    pub struct FaultPlan {
        /// Seed for the per-occurrence decision function.
        pub seed: u64,
        /// Only sites whose name contains this substring are considered;
        /// empty matches every site.
        pub site_filter: String,
        /// Probability (percent, 0–100) that a matching occurrence delays.
        pub percent: u32,
        /// Delay length: an injected occurrence yields between 1 and
        /// `max_yields` times (also derived deterministically).
        pub max_yields: u32,
        /// Probability (percent, 0–100) that a matching occurrence
        /// *panics* instead of delaying. Chaos tests use this to prove a
        /// thread dying inside a lock slow path or critical section never
        /// strands the other participants. The decision is just as
        /// deterministic as the delay decision.
        pub panic_percent: u32,
    }

    impl FaultPlan {
        /// A plan delaying every occurrence of sites matching `site_filter`.
        pub fn every(seed: u64, site_filter: &str, max_yields: u32) -> Self {
            Self {
                seed,
                site_filter: site_filter.to_string(),
                percent: 100,
                max_yields,
                panic_percent: 0,
            }
        }

        /// A plan delaying a `percent` fraction of matching occurrences.
        pub fn sometimes(seed: u64, site_filter: &str, percent: u32, max_yields: u32) -> Self {
            Self {
                seed,
                site_filter: site_filter.to_string(),
                percent,
                max_yields,
                panic_percent: 0,
            }
        }

        /// A plan panicking at a `percent` fraction of matching
        /// occurrences (and never delaying). The panic unwinds from
        /// inside the annotated window — callers are expected to contain
        /// it with `catch_unwind` and assert the lock survived.
        pub fn panicking(seed: u64, site_filter: &str, percent: u32) -> Self {
            Self {
                seed,
                site_filter: site_filter.to_string(),
                percent: 0,
                max_yields: 0,
                panic_percent: percent,
            }
        }

        /// Sets the panic probability on an existing plan, combining
        /// delays and panics in one chaos schedule.
        pub fn with_panic_percent(mut self, percent: u32) -> Self {
            self.panic_percent = percent;
            self
        }

        /// Installs the plan process-wide; the returned guard uninstalls it
        /// on drop. Also resets the per-site occurrence counters so every
        /// install starts from the same deterministic schedule.
        #[must_use = "dropping the guard immediately uninstalls the plan"]
        pub fn install(self) -> FaultGuard {
            let slot = plan_slot();
            let mut g = slot.lock().unwrap();
            assert!(
                g.is_none(),
                "a FaultPlan is already installed; fault-injection tests must not overlap"
            );
            for c in &COUNTERS {
                c.count.store(0, Ordering::Relaxed);
            }
            *g = Some(self);
            FaultGuard(())
        }
    }

    /// Uninstalls the active [`FaultPlan`] when dropped.
    #[derive(Debug)]
    pub struct FaultGuard(());

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *plan_slot().lock().unwrap() = None;
        }
    }

    fn plan_slot() -> &'static Mutex<Option<FaultPlan>> {
        static SLOT: OnceLock<Mutex<Option<FaultPlan>>> = OnceLock::new();
        SLOT.get_or_init(|| Mutex::new(None))
    }

    /// Per-site occurrence counters, keyed by a hash of the site name.
    /// Collisions only merge two sites' counters — determinism survives
    /// because the merged counter sequence is itself deterministic.
    const COUNTER_BUCKETS: usize = 256;

    struct SiteCounter {
        count: AtomicU64,
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: SiteCounter = SiteCounter {
        count: AtomicU64::new(0),
    };
    static COUNTERS: [SiteCounter; COUNTER_BUCKETS] = [ZERO; COUNTER_BUCKETS];

    fn fnv(s: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// SplitMix64 finalizer: the pure decision function over (seed, site, k).
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The active injection point. See the module docs; called via the
    /// public [`super::inject`] wrapper.
    enum Decision {
        Yield(u32),
        Panic,
    }

    pub fn inject(site: &'static str, allow_panic: bool) {
        // Fast path: no plan installed. One uncontended mutex lock per call
        // is acceptable — this code only exists in fault-injection builds.
        let decision = {
            let g = plan_slot().lock().unwrap();
            let Some(plan) = g.as_ref() else { return };
            if !plan.site_filter.is_empty() && !site.contains(plan.site_filter.as_str()) {
                return;
            }
            let h = fnv(site);
            let k = COUNTERS[(h as usize) % COUNTER_BUCKETS]
                .count
                .fetch_add(1, Ordering::Relaxed);
            let roll = mix(plan.seed ^ h ^ k.wrapping_mul(0x2545_f491_4f6c_dd1d));
            // An independent deterministic draw for the panic decision, so
            // mixed plans (delays + panics) keep both schedules stable.
            let panic_roll = mix(roll ^ 0x517c_c1b7_2722_0a95);
            if allow_panic && plan.panic_percent > 0 && panic_roll % 100 < plan.panic_percent as u64
            {
                Decision::Panic
            } else if roll % 100 < plan.percent as u64 {
                Decision::Yield(1 + (mix(roll) % plan.max_yields.max(1) as u64) as u32)
            } else {
                return;
            }
        };
        // Act outside the plan lock: delayed threads must not serialize,
        // and a panic while holding it would poison the slot for every
        // later `inject` in the process.
        match decision {
            Decision::Yield(n) => {
                for _ in 0..n {
                    std::thread::yield_now();
                }
            }
            Decision::Panic => panic!("injected panic at fault site `{site}`"),
        }
    }
}

#[cfg(feature = "fault-injection")]
pub use enabled::{FaultGuard, FaultPlan};

/// Marks a named synchronization window in lock slow-path code.
///
/// With `feature = "fault-injection"` this consults the installed
/// [`FaultPlan`] (if any) and may yield the calling thread to widen the
/// window; otherwise it is an empty `#[inline(always)]` function that the
/// optimizer erases.
#[cfg(feature = "fault-injection")]
#[inline(always)]
pub fn inject(site: &'static str) {
    enabled::inject(site, true);
}

/// Like [`inject`], but only ever *delays* — panic draws are skipped.
///
/// For sites inside windows where the surrounding operation has already
/// committed and an unwind could not be made sound locally (e.g. a
/// C-SNZI arrival that landed on a closed word and has not yet taken
/// itself back: a panic there would leak a surplus the unwinding thread
/// can no longer depart without, in a pathological schedule, becoming
/// the lock's owner mid-unwind). Yield plans still widen such windows;
/// chaos plans direct their panics at the sites annotated with plain
/// [`inject`].
#[cfg(feature = "fault-injection")]
#[inline(always)]
pub fn inject_yield_only(site: &'static str) {
    enabled::inject(site, false);
}

/// Fault injection is compiled out: this is a no-op.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn inject(_site: &'static str) {}

/// Fault injection is compiled out: this is a no-op.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn inject_yield_only(_site: &'static str) {}

#[cfg(all(test, feature = "fault-injection", not(loom)))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The fault plan is process-global; serialize the tests that install one.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn no_plan_is_a_noop() {
        inject("test.nothing-installed");
    }

    #[test]
    fn plan_decisions_are_deterministic() {
        let _serial = serial();
        // Record which of the first 100 occurrences delay, twice, by
        // re-installing the same plan; the schedules must match. We can't
        // observe yields directly, so probe via the decision function by
        // comparing two identical runs' counter-advancement behavior:
        // identical plans and identical call sequences must behave
        // identically, which we assert indirectly by exercising the path.
        for _ in 0..2 {
            let guard = FaultPlan::sometimes(42, "det-site", 50, 3).install();
            for _ in 0..100 {
                inject("det-site.a");
                inject("det-site.b");
            }
            drop(guard);
        }
    }

    #[test]
    fn filter_skips_unrelated_sites() {
        let _serial = serial();
        let guard = FaultPlan::every(7, "only-this", 2).install();
        // Unmatched site: must not consume occurrence counters or delay.
        for _ in 0..10 {
            inject("something-else");
        }
        drop(guard);
    }

    #[test]
    fn panic_plans_fire_deterministically() {
        let _serial = serial();
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let schedule = |seed: u64| {
            let guard = FaultPlan::panicking(seed, "panic-site", 50).install();
            let fired: Vec<bool> = (0..50)
                .map(|_| catch_unwind(AssertUnwindSafe(|| inject("panic-site.x"))).is_err())
                .collect();
            drop(guard);
            fired
        };
        let a = schedule(99);
        let b = schedule(99);
        assert_eq!(a, b, "same seed must reproduce the same panic schedule");
        assert!(a.iter().any(|&f| f), "50% plan should fire at least once");
        assert!(a.iter().any(|&f| !f), "50% plan should also skip");
    }

    #[test]
    fn yield_only_sites_never_panic() {
        let _serial = serial();
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let guard = FaultPlan::panicking(3, "committed-window", 100).install();
        for _ in 0..50 {
            assert!(
                catch_unwind(AssertUnwindSafe(|| inject_yield_only("committed-window"))).is_ok(),
                "a yield-only site took a panic draw"
            );
        }
        drop(guard);
    }

    #[test]
    fn panic_plans_leave_the_slot_usable() {
        let _serial = serial();
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let guard = FaultPlan::panicking(1, "always-dies", 100).install();
        assert!(catch_unwind(AssertUnwindSafe(|| inject("always-dies"))).is_err());
        drop(guard);
        // The slot must not be poisoned: a fresh plan still installs.
        let guard = FaultPlan::every(2, "calm", 1).install();
        inject("calm");
        drop(guard);
    }
}
