//! Timeline analysis: where did each acquisition's microseconds go?
//!
//! A single forward pass over the time-sorted records drives a small
//! state machine per `(thread, lock)`:
//!
//! - `read_begin`/`write_begin` opens an acquisition,
//!   `read_acquired`/`write_acquired` closes it. The `enqueued` and
//!   `granted` markers in between split the total wait into **spin**
//!   (entry → queue join), **queued** (queue join → grant), and
//!   **hand-off** (grant → wake) components that sum to the total by
//!   construction.
//! - An `enqueued(token)` parks the thread on `token`; a later
//!   `granted(token)` from the *releasing* thread stitches grantor and
//!   grantee into a [`HandoffEdge`]. Edges whose grantee goes on to
//!   grant someone else chain into multi-hop [`Cascade`]s — the grant
//!   cascades the telemetry counters can only count.
//! - Anomaly passes flag **convoys** (≥K consecutive hand-off-granted
//!   acquisitions on one lock with no fast path breaking the chain) and
//!   **starvation** (a waiter queued longer than `factor ×` the
//!   distribution's percentile). A cross-lock pass reports **wait-for
//!   chains**: a waiter whose lock holder is itself parked on another
//!   lock.

use crate::report::fmt_ns;
use oll_telemetry::trace::{Timeline, TraceKind};
use std::collections::HashMap;

/// Tunables for the anomaly passes.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// A convoy is ≥ this many consecutive hand-off-granted
    /// acquisitions on one lock.
    pub convoy_k: usize,
    /// Starvation baseline percentile of the queued-time distribution.
    pub starvation_percentile: f64,
    /// Starvation threshold = `factor ×` that percentile.
    pub starvation_factor: f64,
    /// Ignore queued times below this floor (scheduler noise).
    pub min_starvation_ns: u64,
    /// Maps a trace thread id to a locality (cohort) rank so hand-off
    /// edges can be classified as same-socket or cross-socket. The
    /// default mirrors the cohort lock's own placement heuristic
    /// (`oll_util::topology::cohort_of_current`): a trace tid is the
    /// recording thread's `dense_thread_id() + 1`, so
    /// `cohort_of((tid - 1) % cpus)` reproduces the lock-side mapping. On
    /// undetected (single-socket fallback) topologies every tid maps to
    /// rank 0 and the cross-socket count is deterministically zero.
    pub cohort_of_tid: fn(u32) -> usize,
}

/// Default [`AnalyzerConfig::cohort_of_tid`]: the topology-derived rank
/// the cohort writer path would pick for this dense thread id.
fn topology_cohort_of_tid(tid: u32) -> usize {
    let t = oll_util::topology::Topology::get();
    t.cohort_of((tid as usize).saturating_sub(1) % t.cpus())
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self {
            convoy_k: 8,
            starvation_percentile: 95.0,
            starvation_factor: 4.0,
            min_starvation_ns: 1_000,
            cohort_of_tid: topology_cohort_of_tid,
        }
    }
}

/// One completed acquisition with its wait breakdown.
/// `spin_ns + queued_ns + handoff_ns == acquired_ns - begin_ns`.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Acquiring thread.
    pub tid: u32,
    /// The lock.
    pub lock: u32,
    /// Write (vs read) acquisition.
    pub write: bool,
    /// `lock_*` entry time.
    pub begin_ns: u64,
    /// Queue-join time, if the slow path was taken.
    pub enqueued_ns: Option<u64>,
    /// Grant time, if ownership arrived via an explicit hand-off.
    pub granted_ns: Option<u64>,
    /// Success time.
    pub acquired_ns: u64,
    /// Causality token waited on, if queued.
    pub token: Option<u64>,
    /// Entry → queue join (the whole wait, if never queued).
    pub spin_ns: u64,
    /// Queue join → grant (or → success when no grant was seen).
    pub queued_ns: u64,
    /// Grant → wake.
    pub handoff_ns: u64,
}

impl Acquisition {
    /// Total acquisition latency.
    pub fn total_ns(&self) -> u64 {
        self.acquired_ns - self.begin_ns
    }
}

/// A stitched hand-off: `grantor_tid` released and granted the waiter(s)
/// parked on `token`; `grantee_tid` woke at `wake_ns`.
#[derive(Debug, Clone)]
pub struct HandoffEdge {
    /// The lock.
    pub lock: u32,
    /// What the grantee was parked on.
    pub token: u64,
    /// Releasing (granting) thread.
    pub grantor_tid: u32,
    /// Grant time (emitted by the grantor).
    pub grant_ns: u64,
    /// Woken thread.
    pub grantee_tid: u32,
    /// Grantee's `*_acquired` time (`None` if it never woke inside the
    /// collection window).
    pub wake_ns: Option<u64>,
}

/// A chain of hand-offs where each grantee became the next grantor.
#[derive(Debug, Clone)]
pub struct Cascade {
    /// The lock.
    pub lock: u32,
    /// Thread chain: first grantor, then each grantee in order.
    pub tids: Vec<u32>,
    /// First grant time.
    pub start_ns: u64,
    /// Last grant time.
    pub end_ns: u64,
}

impl Cascade {
    /// Number of hand-off hops (edges) in the chain.
    pub fn hops(&self) -> usize {
        self.tids.len().saturating_sub(1)
    }
}

/// ≥K consecutive hand-off-granted acquisitions on one lock.
#[derive(Debug, Clone)]
pub struct Convoy {
    /// The lock.
    pub lock: u32,
    /// Consecutive hand-off-granted acquisitions.
    pub length: usize,
    /// First acquisition's success time.
    pub start_ns: u64,
    /// Last acquisition's success time.
    pub end_ns: u64,
}

/// A waiter queued far beyond the distribution's percentile.
#[derive(Debug, Clone)]
pub struct Starvation {
    /// The lock.
    pub lock: u32,
    /// The starved thread.
    pub tid: u32,
    /// How long it sat in the queue.
    pub queued_ns: u64,
    /// The threshold it exceeded.
    pub threshold_ns: u64,
}

/// A cross-lock blocking chain observed at one instant: `tids[0]` waits
/// on `locks[0]`, held by `tids[1]` which waits on `locks[1]`, …
#[derive(Debug, Clone)]
pub struct WaitChain {
    /// Threads, waiter first.
    pub tids: Vec<u32>,
    /// Locks, one per wait hop.
    pub locks: Vec<u32>,
    /// When the chain was observed.
    pub ts_ns: u64,
}

/// A robustness event surfaced by the hazard layer — a poisoning, a
/// detected deadlock, a watchdog stall escalation, or a forced bias
/// degradation — copied out of the record stream so a report reader sees
/// them next to the contention anomalies they usually explain.
#[derive(Debug, Clone)]
pub struct HazardAnomaly {
    /// The lock.
    pub lock: u32,
    /// Thread that emitted the event.
    pub tid: u32,
    /// Which hazard event (one of [`TraceKind::Poisoned`],
    /// [`TraceKind::DeadlockDetected`], [`TraceKind::WatchdogStall`],
    /// [`TraceKind::BiasDegraded`]).
    pub kind: TraceKind,
    /// When it was emitted.
    pub ts_ns: u64,
}

/// A self-tuning controller decision that changed policy — copied out of
/// the record stream so a report reader can correlate a throughput or
/// wait-time regime change with the knob store that caused it.
#[derive(Debug, Clone)]
pub struct PolicyFlip {
    /// The lock whose controller flipped.
    pub lock: u32,
    /// Thread whose slow-path entry closed the deciding window.
    pub tid: u32,
    /// When the flip was emitted.
    pub ts_ns: u64,
    /// Controller-defined payload (the packed old/new regime pair).
    pub token: u64,
}

/// Per-lock wait aggregate over all completed acquisitions.
#[derive(Debug, Clone, Default)]
pub struct LockBreakdown {
    /// The lock.
    pub lock: u32,
    /// Completed acquisitions.
    pub acquisitions: usize,
    /// … of which entered the wait queue.
    pub queued: usize,
    /// … of which were woken by an explicit hand-off.
    pub via_handoff: usize,
    /// Summed spin component.
    pub spin_ns: u64,
    /// Summed queued component.
    pub queued_ns: u64,
    /// Summed hand-off component.
    pub handoff_ns: u64,
    /// Worst single acquisition latency.
    pub max_total_ns: u64,
}

/// Everything [`analyze`] derives from a timeline.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Every completed acquisition, in completion order.
    pub acquisitions: Vec<Acquisition>,
    /// Per-lock aggregates (sorted by lock id).
    pub breakdowns: Vec<LockBreakdown>,
    /// Stitched hand-off edges, in grant order.
    pub edges: Vec<HandoffEdge>,
    /// Multi-hop grant cascades (≥ 2 edges).
    pub cascades: Vec<Cascade>,
    /// Convoy anomalies.
    pub convoys: Vec<Convoy>,
    /// Starvation anomalies.
    pub starvations: Vec<Starvation>,
    /// Cross-lock wait-for chains (≥ 2 hops), capped at 256.
    pub wait_chains: Vec<WaitChain>,
    /// Hazard-layer events (poison / deadlock / watchdog), capped at 256.
    pub hazard_anomalies: Vec<HazardAnomaly>,
    /// Self-tuning controller policy flips, capped at 256.
    pub policy_flips: Vec<PolicyFlip>,
    /// Sampling windows the controller closed (`tuner_sample` records).
    pub tuner_samples: u64,
    /// Regime changes the controller saw but held back on (hysteresis or
    /// the decision-rate cap; `tuner_hold` records).
    pub tuner_holds: u64,
    /// Hand-off edges whose grantor and grantee map to different
    /// locality ranks under [`AnalyzerConfig::cohort_of_tid`].
    pub cross_socket_handoffs: u64,
    /// Total stitched hand-off edges (`edges.len()`), the denominator
    /// for the cross-socket ratio.
    pub total_handoffs: u64,
    /// `granted` markers with no parked waiter in the window (grants
    /// that raced collection or whose enqueue fell outside it).
    pub unmatched_grants: u64,
    /// Copied from the timeline for report rendering.
    pub dropped: u64,
}

#[derive(Debug)]
struct Pending {
    write: bool,
    begin_ns: u64,
    enqueued: Option<(u64, u64)>, // (ts, token)
    granted_ns: Option<u64>,
}

/// Runs every analyzer pass over `tl`.
pub fn analyze(tl: &Timeline, cfg: &AnalyzerConfig) -> TraceReport {
    let mut report = TraceReport {
        dropped: tl.dropped,
        ..TraceReport::default()
    };

    let mut pending: HashMap<(u32, u32), Pending> = HashMap::new();
    let mut waiters: HashMap<(u32, u64), Vec<u32>> = HashMap::new();
    let mut open_edges: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    let mut holders: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut waiting_on: HashMap<u32, u32> = HashMap::new();

    for r in &tl.records {
        let key = (r.tid, r.lock);
        match r.kind {
            TraceKind::ReadBegin | TraceKind::WriteBegin => {
                pending.insert(
                    key,
                    Pending {
                        write: r.kind == TraceKind::WriteBegin,
                        begin_ns: r.ts_ns,
                        enqueued: None,
                        granted_ns: None,
                    },
                );
            }
            TraceKind::Enqueued => {
                if let Some(p) = pending.get_mut(&key) {
                    p.enqueued = Some((r.ts_ns, r.token));
                }
                waiters.entry((r.lock, r.token)).or_default().push(r.tid);
                waiting_on.insert(r.tid, r.lock);
                record_wait_chain(&mut report, r.tid, r.lock, r.ts_ns, &holders, &waiting_on);
            }
            TraceKind::Granted => match waiters.remove(&(r.lock, r.token)) {
                Some(tids) if !tids.is_empty() => {
                    for grantee in tids {
                        if let Some(p) = pending.get_mut(&(grantee, r.lock)) {
                            p.granted_ns = Some(r.ts_ns);
                        }
                        let idx = report.edges.len();
                        report.edges.push(HandoffEdge {
                            lock: r.lock,
                            token: r.token,
                            grantor_tid: r.tid,
                            grant_ns: r.ts_ns,
                            grantee_tid: grantee,
                            wake_ns: None,
                        });
                        open_edges.entry((grantee, r.lock)).or_default().push(idx);
                    }
                }
                _ => report.unmatched_grants += 1,
            },
            TraceKind::ReadAcquired | TraceKind::WriteAcquired => {
                if let Some(p) = pending.remove(&key) {
                    report
                        .acquisitions
                        .push(close_acquisition(&p, r.tid, r.lock, r.ts_ns));
                }
                if let Some(idxs) = open_edges.remove(&key) {
                    for idx in idxs {
                        report.edges[idx].wake_ns = Some(r.ts_ns);
                    }
                }
                holders.entry(r.lock).or_default().push(r.tid);
                waiting_on.remove(&r.tid);
            }
            TraceKind::ReadRelease | TraceKind::WriteRelease => {
                if let Some(h) = holders.get_mut(&r.lock) {
                    if let Some(pos) = h.iter().rposition(|&t| t == r.tid) {
                        h.remove(pos);
                    }
                }
            }
            TraceKind::Poisoned
            | TraceKind::DeadlockDetected
            | TraceKind::WatchdogStall
            | TraceKind::BiasDegraded
                if report.hazard_anomalies.len() < 256 =>
            {
                report.hazard_anomalies.push(HazardAnomaly {
                    lock: r.lock,
                    tid: r.tid,
                    kind: r.kind,
                    ts_ns: r.ts_ns,
                });
            }
            TraceKind::TunerSample => report.tuner_samples += 1,
            TraceKind::TunerHold => report.tuner_holds += 1,
            TraceKind::TunerFlip if report.policy_flips.len() < 256 => {
                report.policy_flips.push(PolicyFlip {
                    lock: r.lock,
                    tid: r.tid,
                    ts_ns: r.ts_ns,
                    token: r.token,
                });
            }
            TraceKind::Timeout | TraceKind::Cancel => {
                // The waiter gave up: close its books so a stale token
                // registration can't be matched to a later grant.
                if let Some(p) = pending.remove(&key) {
                    if let Some((_, token)) = p.enqueued {
                        if let Some(tids) = waiters.get_mut(&(r.lock, token)) {
                            tids.retain(|&t| t != r.tid);
                        }
                    }
                }
                waiting_on.remove(&r.tid);
            }
            _ => {}
        }
    }

    report.breakdowns = breakdowns(&report.acquisitions);
    report.total_handoffs = report.edges.len() as u64;
    report.cross_socket_handoffs = report
        .edges
        .iter()
        .filter(|e| (cfg.cohort_of_tid)(e.grantor_tid) != (cfg.cohort_of_tid)(e.grantee_tid))
        .count() as u64;
    report.cascades = find_cascades(&report.edges);
    report.convoys = find_convoys(&report.acquisitions, cfg);
    report.starvations = find_starvations(&report.acquisitions, cfg);
    report
}

fn close_acquisition(p: &Pending, tid: u32, lock: u32, acquired_ns: u64) -> Acquisition {
    let total = acquired_ns.saturating_sub(p.begin_ns);
    let (spin, queued, handoff, token) = match p.enqueued {
        None => (total, 0, 0, None),
        Some((enq, token)) => {
            let spin = enq.saturating_sub(p.begin_ns);
            match p.granted_ns {
                Some(g) => (
                    spin,
                    g.saturating_sub(enq),
                    acquired_ns.saturating_sub(g),
                    Some(token),
                ),
                None => (spin, acquired_ns.saturating_sub(enq), 0, Some(token)),
            }
        }
    };
    Acquisition {
        tid,
        lock,
        write: p.write,
        begin_ns: p.begin_ns,
        enqueued_ns: p.enqueued.map(|(ts, _)| ts),
        granted_ns: p.granted_ns,
        acquired_ns,
        token,
        spin_ns: spin,
        queued_ns: queued,
        handoff_ns: handoff,
    }
}

fn breakdowns(acqs: &[Acquisition]) -> Vec<LockBreakdown> {
    let mut by_lock: HashMap<u32, LockBreakdown> = HashMap::new();
    for a in acqs {
        let b = by_lock.entry(a.lock).or_insert_with(|| LockBreakdown {
            lock: a.lock,
            ..LockBreakdown::default()
        });
        b.acquisitions += 1;
        b.queued += usize::from(a.enqueued_ns.is_some());
        b.via_handoff += usize::from(a.granted_ns.is_some());
        b.spin_ns += a.spin_ns;
        b.queued_ns += a.queued_ns;
        b.handoff_ns += a.handoff_ns;
        b.max_total_ns = b.max_total_ns.max(a.total_ns());
    }
    let mut v: Vec<_> = by_lock.into_values().collect();
    v.sort_by_key(|b| b.lock);
    v
}

/// Chains edges where each grantee turns around and grants the next
/// waiter on the same lock. Greedy over grant order.
fn find_cascades(edges: &[HandoffEdge]) -> Vec<Cascade> {
    // (lock, last grantee) -> index into `chains`.
    let mut open: HashMap<(u32, u32), usize> = HashMap::new();
    let mut chains: Vec<Cascade> = Vec::new();
    for e in edges {
        let extend = open.remove(&(e.lock, e.grantor_tid));
        match extend {
            Some(ci) if chains[ci].end_ns <= e.grant_ns => {
                chains[ci].tids.push(e.grantee_tid);
                chains[ci].end_ns = e.grant_ns;
                open.insert((e.lock, e.grantee_tid), ci);
            }
            _ => {
                let ci = chains.len();
                chains.push(Cascade {
                    lock: e.lock,
                    tids: vec![e.grantor_tid, e.grantee_tid],
                    start_ns: e.grant_ns,
                    end_ns: e.grant_ns,
                });
                open.insert((e.lock, e.grantee_tid), ci);
            }
        }
    }
    chains.retain(|c| c.hops() >= 2);
    chains
}

fn find_convoys(acqs: &[Acquisition], cfg: &AnalyzerConfig) -> Vec<Convoy> {
    let mut by_lock: HashMap<u32, Vec<&Acquisition>> = HashMap::new();
    for a in acqs {
        by_lock.entry(a.lock).or_default().push(a);
    }
    let mut out = Vec::new();
    for (lock, mut list) in by_lock {
        list.sort_by_key(|a| a.acquired_ns);
        let mut run: Vec<&Acquisition> = Vec::new();
        for a in list.iter().chain(std::iter::once(&&Acquisition {
            // Sentinel fast-path acquisition flushes the final run.
            tid: 0,
            lock,
            write: false,
            begin_ns: u64::MAX,
            enqueued_ns: None,
            granted_ns: None,
            acquired_ns: u64::MAX,
            token: None,
            spin_ns: 0,
            queued_ns: 0,
            handoff_ns: 0,
        })) {
            if a.granted_ns.is_some() {
                run.push(a);
                continue;
            }
            if run.len() >= cfg.convoy_k {
                out.push(Convoy {
                    lock,
                    length: run.len(),
                    start_ns: run[0].acquired_ns,
                    end_ns: run[run.len() - 1].acquired_ns,
                });
            }
            run.clear();
        }
    }
    out.sort_by_key(|c| c.start_ns);
    out
}

fn find_starvations(acqs: &[Acquisition], cfg: &AnalyzerConfig) -> Vec<Starvation> {
    let mut queued: Vec<u64> = acqs
        .iter()
        .filter(|a| a.enqueued_ns.is_some())
        .map(|a| a.queued_ns)
        .collect();
    if queued.len() < 8 {
        return Vec::new();
    }
    queued.sort_unstable();
    let idx = ((cfg.starvation_percentile / 100.0) * (queued.len() - 1) as f64).round() as usize;
    let threshold = ((queued[idx.min(queued.len() - 1)] as f64) * cfg.starvation_factor) as u64;
    let threshold = threshold.max(cfg.min_starvation_ns);
    let mut out: Vec<Starvation> = acqs
        .iter()
        .filter(|a| a.enqueued_ns.is_some() && a.queued_ns > threshold)
        .map(|a| Starvation {
            lock: a.lock,
            tid: a.tid,
            queued_ns: a.queued_ns,
            threshold_ns: threshold,
        })
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.queued_ns));
    out
}

fn record_wait_chain(
    report: &mut TraceReport,
    tid: u32,
    lock: u32,
    ts_ns: u64,
    holders: &HashMap<u32, Vec<u32>>,
    waiting_on: &HashMap<u32, u32>,
) {
    if report.wait_chains.len() >= 256 {
        return;
    }
    let mut tids = vec![tid];
    let mut locks = vec![lock];
    let mut cur = lock;
    while tids.len() < 8 {
        let Some(&holder) = holders.get(&cur).and_then(|h| h.last()) else {
            break;
        };
        if tids.contains(&holder) {
            break; // cycle guard
        }
        tids.push(holder);
        let Some(&next) = waiting_on.get(&holder) else {
            break;
        };
        if locks.contains(&next) {
            break;
        }
        locks.push(next);
        cur = next;
    }
    if locks.len() >= 2 {
        report.wait_chains.push(WaitChain { tids, locks, ts_ns });
    }
}

/// Renders the analyzer's findings as a terminal report.
pub fn render_report_text(tl: &Timeline, report: &TraceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "flight recorder: {} record(s), {} dropped{}, {} lock(s), {} thread(s)\n",
        tl.records.len(),
        report.dropped,
        if report.dropped > 0 {
            " (TRUNCATED)"
        } else {
            ""
        },
        tl.locks.len(),
        tl.threads.len(),
    ));
    let queued: usize = report.breakdowns.iter().map(|b| b.queued).sum();
    let handoff: usize = report.breakdowns.iter().map(|b| b.via_handoff).sum();
    out.push_str(&format!(
        "acquisitions: {} ({} queued, {} woken by hand-off)\n",
        report.acquisitions.len(),
        queued,
        handoff,
    ));
    for b in &report.breakdowns {
        let n = b.acquisitions.max(1) as u64;
        out.push_str(&format!(
            "  {:<24} {:>7} acq | avg spin {} queued {} handoff {} | max {}\n",
            tl.lock_name(b.lock),
            b.acquisitions,
            fmt_ns(b.spin_ns / n),
            fmt_ns(b.queued_ns / n),
            fmt_ns(b.handoff_ns / n),
            fmt_ns(b.max_total_ns),
        ));
    }
    out.push_str(&format!(
        "hand-off edges: {} stitched, {} unmatched grant(s)\n",
        report.edges.len(),
        report.unmatched_grants,
    ));
    let cross_pct = if report.total_handoffs == 0 {
        0.0
    } else {
        100.0 * report.cross_socket_handoffs as f64 / report.total_handoffs as f64
    };
    out.push_str(&format!(
        "cross-socket hand-offs: {} / {} ({cross_pct:.1}%)\n",
        report.cross_socket_handoffs, report.total_handoffs,
    ));
    if report.cascades.is_empty() {
        out.push_str("grant cascades: none\n");
    } else {
        let longest = report
            .cascades
            .iter()
            .max_by_key(|c| c.hops())
            .expect("non-empty");
        let chain = longest
            .tids
            .iter()
            .map(|t| format!("t{t}"))
            .collect::<Vec<_>>()
            .join("->");
        out.push_str(&format!(
            "grant cascades: {} multi-hop; longest {} hops on {} ({chain}, {})\n",
            report.cascades.len(),
            longest.hops(),
            tl.lock_name(longest.lock),
            fmt_ns(longest.end_ns.saturating_sub(longest.start_ns)),
        ));
    }
    if report.convoys.is_empty() {
        out.push_str("convoys: none\n");
    } else {
        for c in report.convoys.iter().take(5) {
            out.push_str(&format!(
                "convoy: {} consecutive hand-offs on {} over {}\n",
                c.length,
                tl.lock_name(c.lock),
                fmt_ns(c.end_ns.saturating_sub(c.start_ns)),
            ));
        }
    }
    if report.starvations.is_empty() {
        out.push_str("starvation: none\n");
    } else {
        let worst = &report.starvations[0];
        out.push_str(&format!(
            "starvation: {} waiter(s) past threshold {}; worst t{} on {} queued {}\n",
            report.starvations.len(),
            fmt_ns(worst.threshold_ns),
            worst.tid,
            tl.lock_name(worst.lock),
            fmt_ns(worst.queued_ns),
        ));
    }
    if report.wait_chains.is_empty() {
        out.push_str("wait-for chains: none\n");
    } else {
        let longest = report
            .wait_chains
            .iter()
            .max_by_key(|c| c.locks.len())
            .expect("non-empty");
        let hops = longest
            .tids
            .iter()
            .map(|t| format!("t{t}"))
            .collect::<Vec<_>>()
            .join(" -> ");
        out.push_str(&format!(
            "wait-for chains: {} observed; deepest {} hops ({hops})\n",
            report.wait_chains.len(),
            longest.locks.len(),
        ));
    }
    if report.hazard_anomalies.is_empty() {
        out.push_str("hazard events: none\n");
    } else {
        out.push_str(&format!(
            "hazard events: {} observed\n",
            report.hazard_anomalies.len()
        ));
        for h in report.hazard_anomalies.iter().take(5) {
            out.push_str(&format!(
                "  {} on {} (t{}) at {}\n",
                h.kind.name(),
                tl.lock_name(h.lock),
                h.tid,
                fmt_ns(h.ts_ns),
            ));
        }
    }
    if report.tuner_samples > 0 || !report.policy_flips.is_empty() {
        out.push_str(&format!(
            "policy flips: {} across {} sampling window(s), {} held by hysteresis\n",
            report.policy_flips.len(),
            report.tuner_samples,
            report.tuner_holds,
        ));
        for f in report.policy_flips.iter().take(5) {
            out.push_str(&format!(
                "  flip on {} (t{}) at {} [regimes {:#x}]\n",
                tl.lock_name(f.lock),
                f.tid,
                fmt_ns(f.ts_ns),
                f.token,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oll_telemetry::trace::TraceRecord;

    fn rec(ts: u64, tid: u32, lock: u32, kind: TraceKind, token: u64) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            tid,
            lock,
            kind,
            token,
        }
    }

    /// t1 holds; t2 and t3 queue; t1 grants t2; t2 grants t3 — one
    /// two-hop cascade, two edges, full breakdowns.
    fn cascade_timeline() -> Timeline {
        Timeline {
            records: vec![
                rec(10, 1, 1, TraceKind::WriteBegin, 0),
                rec(11, 1, 1, TraceKind::WriteAcquired, 0),
                rec(20, 2, 1, TraceKind::WriteBegin, 0),
                rec(25, 2, 1, TraceKind::Enqueued, 100),
                rec(30, 3, 1, TraceKind::WriteBegin, 0),
                rec(40, 3, 1, TraceKind::Enqueued, 200),
                rec(50, 1, 1, TraceKind::WriteRelease, 0),
                rec(55, 1, 1, TraceKind::Granted, 100),
                rec(60, 2, 1, TraceKind::WriteAcquired, 0),
                rec(70, 2, 1, TraceKind::WriteRelease, 0),
                rec(75, 2, 1, TraceKind::Granted, 200),
                rec(90, 3, 1, TraceKind::WriteAcquired, 0),
            ],
            ..Timeline::default()
        }
    }

    #[test]
    fn edges_breakdowns_and_cascade() {
        let report = analyze(&cascade_timeline(), &AnalyzerConfig::default());
        assert_eq!(report.acquisitions.len(), 3);
        assert_eq!(report.edges.len(), 2);
        assert_eq!(report.unmatched_grants, 0);

        let e0 = &report.edges[0];
        assert_eq!((e0.grantor_tid, e0.grantee_tid), (1, 2));
        assert_eq!(e0.wake_ns, Some(60));
        let e1 = &report.edges[1];
        assert_eq!((e1.grantor_tid, e1.grantee_tid), (2, 3));
        assert_eq!(e1.wake_ns, Some(90));

        // t2: begin 20, enq 25, grant 55, acquired 60.
        let a2 = report.acquisitions.iter().find(|a| a.tid == 2).unwrap();
        assert_eq!(
            (a2.spin_ns, a2.queued_ns, a2.handoff_ns, a2.total_ns()),
            (5, 30, 5, 40)
        );
        assert_eq!(a2.spin_ns + a2.queued_ns + a2.handoff_ns, a2.total_ns());

        // One cascade t1 -> t2 -> t3.
        assert_eq!(report.cascades.len(), 1);
        assert_eq!(report.cascades[0].tids, vec![1, 2, 3]);
        assert_eq!(report.cascades[0].hops(), 2);

        let text = render_report_text(&cascade_timeline(), &report);
        assert!(text.contains("2 hops"));
        assert!(text.contains("t1->t2->t3"));
    }

    #[test]
    fn cross_socket_handoffs_follow_the_cohort_mapper() {
        // Parity mapper: t1/t3 on rank 1, t2 on rank 0 — both edges of
        // the cascade (t1->t2, t2->t3) cross ranks.
        let mut cfg = AnalyzerConfig {
            cohort_of_tid: |tid| (tid % 2) as usize,
            ..AnalyzerConfig::default()
        };
        let report = analyze(&cascade_timeline(), &cfg);
        assert_eq!(report.total_handoffs, 2);
        assert_eq!(report.cross_socket_handoffs, 2);
        let text = render_report_text(&cascade_timeline(), &report);
        assert!(text.contains("cross-socket hand-offs: 2 / 2 (100.0%)"));

        // Single-rank mapper (the undetected-topology fallback shape):
        // every hand-off is local.
        cfg.cohort_of_tid = |_| 0;
        let report = analyze(&cascade_timeline(), &cfg);
        assert_eq!(report.total_handoffs, 2);
        assert_eq!(report.cross_socket_handoffs, 0);
        let text = render_report_text(&cascade_timeline(), &report);
        assert!(text.contains("cross-socket hand-offs: 0 / 2 (0.0%)"));
    }

    #[test]
    fn default_cohort_mapping_is_the_lock_sides() {
        use oll_util::topology::{cohort_of_current, dense_thread_id};
        let cohort_of_tid = AnalyzerConfig::default().cohort_of_tid;
        for _ in 0..4 {
            let (tid, cohort) =
                std::thread::spawn(|| (dense_thread_id() as u32 + 1, cohort_of_current()))
                    .join()
                    .unwrap();
            assert_eq!(cohort_of_tid(tid), cohort, "tid {tid}");
        }
    }

    #[test]
    fn timeout_clears_waiter_registration() {
        let mut tl = cascade_timeline();
        // t3 times out before t2's grant; the grant must not stitch an
        // edge to a departed waiter.
        tl.records.insert(10, rec(72, 3, 1, TraceKind::Timeout, 0));
        tl.records.truncate(12); // keep the grant, drop t3's WriteAcquired
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.edges.len(), 1); // only t1 -> t2 remains
        assert_eq!(report.unmatched_grants, 1);
    }

    #[test]
    fn convoy_detection() {
        let mut records = vec![rec(1, 9, 1, TraceKind::WriteBegin, 0)];
        records.push(rec(2, 9, 1, TraceKind::WriteAcquired, 0));
        let mut ts = 10;
        for i in 0..10u64 {
            let tid = 10 + i as u32;
            records.push(rec(ts, tid, 1, TraceKind::WriteBegin, 0));
            records.push(rec(ts + 1, tid, 1, TraceKind::Enqueued, i + 1));
            records.push(rec(ts + 2, tid - 1, 1, TraceKind::Granted, i + 1));
            records.push(rec(ts + 3, tid, 1, TraceKind::WriteAcquired, 0));
            ts += 10;
        }
        let tl = Timeline {
            records,
            ..Timeline::default()
        };
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.convoys.len(), 1);
        assert_eq!(report.convoys[0].length, 10);
        // A 9-hop cascade rides along: t9 grants t10 grants t11 ...
        assert!(report.cascades.iter().any(|c| c.hops() >= 9));
    }

    #[test]
    fn wait_chain_across_locks() {
        let tl = Timeline {
            records: vec![
                // t1 holds lock 2; t2 holds lock 1 and queues on lock 2;
                // t3 queues on lock 1 => chain t3 -> t2 -> t1.
                rec(10, 1, 2, TraceKind::WriteBegin, 0),
                rec(11, 1, 2, TraceKind::WriteAcquired, 0),
                rec(20, 2, 1, TraceKind::WriteBegin, 0),
                rec(21, 2, 1, TraceKind::WriteAcquired, 0),
                rec(30, 2, 2, TraceKind::WriteBegin, 0),
                rec(31, 2, 2, TraceKind::Enqueued, 500),
                rec(40, 3, 1, TraceKind::WriteBegin, 0),
                rec(41, 3, 1, TraceKind::Enqueued, 600),
            ],
            ..Timeline::default()
        };
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.wait_chains.len(), 1);
        assert_eq!(report.wait_chains[0].tids, vec![3, 2, 1]);
        assert_eq!(report.wait_chains[0].locks, vec![1, 2]);
    }

    #[test]
    fn hazard_events_are_collected_and_rendered() {
        let mut tl = cascade_timeline();
        tl.records.push(rec(95, 2, 1, TraceKind::Poisoned, 0));
        tl.records
            .push(rec(96, 3, 1, TraceKind::DeadlockDetected, 0));
        tl.records.push(rec(97, 3, 1, TraceKind::WatchdogStall, 0));
        tl.records.push(rec(98, 3, 1, TraceKind::BiasDegraded, 0));
        // Recovery events are informational, not anomalies.
        tl.records.push(rec(99, 2, 1, TraceKind::PoisonCleared, 0));
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.hazard_anomalies.len(), 4);
        assert_eq!(report.hazard_anomalies[0].kind, TraceKind::Poisoned);
        assert_eq!(report.hazard_anomalies[0].tid, 2);
        let text = render_report_text(&tl, &report);
        assert!(text.contains("hazard events: 4 observed"));
        assert!(text.contains("deadlock_detected"));
    }

    #[test]
    fn policy_flips_are_collected_and_rendered() {
        let mut tl = cascade_timeline();
        let quiet = analyze(&tl, &AnalyzerConfig::default());
        assert!(quiet.policy_flips.is_empty());
        assert!(!render_report_text(&tl, &quiet).contains("policy flips"));

        tl.records.push(rec(95, 2, 1, TraceKind::TunerSample, 0));
        tl.records.push(rec(96, 2, 1, TraceKind::TunerHold, 0));
        tl.records.push(rec(97, 2, 1, TraceKind::TunerSample, 0));
        tl.records.push(rec(98, 2, 1, TraceKind::TunerFlip, 0x12));
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.tuner_samples, 2);
        assert_eq!(report.tuner_holds, 1);
        assert_eq!(report.policy_flips.len(), 1);
        assert_eq!(report.policy_flips[0].token, 0x12);
        let text = render_report_text(&tl, &report);
        assert!(text.contains("policy flips: 1 across 2 sampling window(s), 1 held by hysteresis"));
        assert!(text.contains("regimes 0x12"));
    }

    #[test]
    fn starvation_detection() {
        let mut records = Vec::new();
        let mut ts = 0;
        // 19 quick queued acquisitions, one 1000x outlier.
        for i in 0..20u64 {
            let tid = (i + 1) as u32;
            let queued = if i == 19 { 2_000_000 } else { 2_000 };
            records.push(rec(ts, tid, 1, TraceKind::WriteBegin, 0));
            records.push(rec(ts + 10, tid, 1, TraceKind::Enqueued, i + 1));
            records.push(rec(ts + 10 + queued, 99, 1, TraceKind::Granted, i + 1));
            records.push(rec(ts + 11 + queued, tid, 1, TraceKind::WriteAcquired, 0));
            ts += 20 + queued;
        }
        let tl = Timeline {
            records,
            ..Timeline::default()
        };
        let report = analyze(&tl, &AnalyzerConfig::default());
        assert_eq!(report.starvations.len(), 1);
        assert_eq!(report.starvations[0].queued_ns, 2_000_000);
    }
}
