//! Exhaustive small-scope model of the root-word protocol (the `root`
//! module docs: four states, five rules).
//!
//! An unconditional arrival can land on a closed word, so the protocol's
//! safety is a statement about *interleavings*, which no sequential test
//! and no seeded stress run can exhaust. This file does, at small scope:
//! breadth-first over every interleaving of a handful of threads, one
//! atomic access (or one mutex step) per transition, with a visited set on
//! the full state. The word is simulated, but every decision taken on it
//! is the production code's own — the pure `RootWord` functions that
//! `csnzi.rs` applies with atomics are applied here to a `u64`.
//!
//! Two locks are modelled around the word, because each leans on the
//! protocol differently:
//!
//! * a **mini-GOLL** — queue mutex, writer queue, reader group,
//!   `open_with_arrivals(total, writers_remain)`, reader-release prefers
//!   the writer — where the word *is* the lock;
//! * a **mini queue lock** — one recyclable reader node with the
//!   `WAITING / GRANTED / ABANDONED` word, writers closing behind it, a
//!   reader that times out of its wait, and a stale arriver that read the
//!   tail before the node was recycled — where the word belongs to a node
//!   that is reused, so a claim can be won by a decrement left over from
//!   an earlier drain.
//!
//! Checked in every state: at most one owner, no reader inside beside an
//! owner, no counter underflow. In every terminal state: all threads done,
//! the word open-empty (or resting owned-empty in the pool) — zero leaked
//! arrivals — and the queues empty. And from every state some terminal
//! state is reachable: a lost hand-off shows up as a state nobody can
//! finish from, whether the stuck threads block or spin.
//!
//! The checker must also be able to *fail*: three seeded wrong variants
//! of the rules (a test-only parameter of the model, never of the
//! library) are each rejected with a printed trace.

#![cfg(not(loom))]

use oll_csnzi::root::{Decrement, RootWord};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

// ----------------------------------------------------------------------
// The explorer
// ----------------------------------------------------------------------

/// One thread's possible next steps: `(label, successor)` pairs — empty
/// when the thread is done or blocked — or the invariant the step broke.
type Steps<M> = Result<Vec<(&'static str, M)>, String>;

trait Model: Clone + Eq + Hash + Debug {
    fn threads(&self) -> usize;
    fn step(&self, tid: usize) -> Steps<Self>;
    fn all_done(&self) -> bool;
    /// Holds in every reachable state.
    fn invariant(&self) -> Result<(), String>;
    /// Holds in every state where all threads are done.
    fn terminal(&self) -> Result<(), String>;
    fn describe(&self) -> String;
}

/// A violated property and the shortest schedule that reaches it.
struct Failure {
    what: String,
    trace: Vec<String>,
}

impl Failure {
    fn print(&self, model: &str) {
        println!("{model}: {} — after {} steps:", self.what, self.trace.len());
        for line in &self.trace {
            println!("    {line}");
        }
    }
}

/// What an exploration that found nothing wrong covered.
struct Explored {
    states: usize,
    /// Every step label taken on some schedule.
    steps: HashSet<&'static str>,
}

/// Breadth-first over every interleaving from `init`. `Ok`: all
/// properties hold.
fn explore<M: Model>(init: M) -> Result<Explored, Failure> {
    let mut states: Vec<M> = vec![init.clone()];
    // How each state was first reached: (parent, thread, step label).
    let mut via: Vec<(u32, u8, &'static str)> = vec![(0, 0, "")];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new()];
    let mut index: HashMap<M, u32> = HashMap::from([(init, 0)]);
    let mut frontier: VecDeque<u32> = VecDeque::from([0]);
    let mut steps = HashSet::new();

    let trace_to = |states: &[M], via: &[(u32, u8, &'static str)], mut at: u32| {
        let mut lines = Vec::new();
        while at != 0 {
            let (parent, tid, label) = via[at as usize];
            lines.push(format!(
                "T{tid} {label:<28} -> {}",
                states[at as usize].describe()
            ));
            at = parent;
        }
        lines.reverse();
        lines
    };
    let fail = |states: &[M], via: &[(u32, u8, &'static str)], at: u32, what: String| Failure {
        what,
        trace: trace_to(states, via, at),
    };

    while let Some(at) = frontier.pop_front() {
        let state = states[at as usize].clone();
        if let Err(what) = state.invariant() {
            return Err(fail(&states, &via, at, what));
        }
        if state.all_done() {
            if let Err(what) = state.terminal() {
                return Err(fail(&states, &via, at, what));
            }
            continue;
        }
        for tid in 0..state.threads() {
            let successors = match state.step(tid) {
                Ok(successors) => successors,
                Err(what) => {
                    let what = format!("{what} (T{tid}'s next step)");
                    return Err(fail(&states, &via, at, what));
                }
            };
            for (label, next) in successors {
                steps.insert(label);
                let to = *index.entry(next).or_insert_with_key(|next| {
                    states.push(next.clone());
                    via.push((at, tid as u8, label));
                    preds.push(Vec::new());
                    frontier.push_back(states.len() as u32 - 1);
                    states.len() as u32 - 1
                });
                preds[to as usize].push(at);
            }
        }
    }

    // No lost hand-off: every state can still reach a terminal one.
    let mut finishes = vec![false; states.len()];
    let mut work: Vec<u32> = (0..states.len() as u32)
        .filter(|&s| states[s as usize].all_done())
        .collect();
    for &s in &work {
        finishes[s as usize] = true;
    }
    while let Some(s) = work.pop() {
        for &p in &preds[s as usize] {
            if !std::mem::replace(&mut finishes[p as usize], true) {
                work.push(p);
            }
        }
    }
    match finishes.iter().position(|&ok| !ok) {
        None => Ok(Explored {
            states: states.len(),
            steps,
        }),
        Some(stuck) => Err(fail(
            &states,
            &via,
            stuck as u32,
            "lost hand-off: no schedule finishes every thread from here".into(),
        )),
    }
}

// ----------------------------------------------------------------------
// The word, under the shipped rules and three wrong ones
// ----------------------------------------------------------------------

/// Which rules the simulated word follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Rules {
    /// What `csnzi.rs` does: every decision below is a `RootWord` function.
    Shipped,
    /// ROADMAP item 5's sketch: no OWNED flag, so "write-acquired" and
    /// "the last reader just left" are the same word, and any decrement
    /// that takes a closed word to zero believes it is the last departer
    /// — including the undo of an arrival that landed on a held lock.
    NoOwnedBit,
    /// `open` as the plain store of Figure 2: it erases the increment of
    /// an arrival that landed closed and has not undone itself yet.
    OpenIsAStore,
    /// The OWNED flag without the claim CAS: a decrement that sees
    /// *drained* sets the flag unconditionally, so two decrementers of
    /// one drain (the second a failed arrival's undo) both take the duty.
    NoClaimCas,
}

const ONE: u64 = RootWord::ONE_DIRECT;
/// Owned-empty is the OWNED flag and nothing else.
const OWNED_FLAG: u64 = RootWord::CLOSED_EMPTY.pack();

/// What a decrementer does next.
enum AfterDecrement {
    Nothing,
    TryClaim,
    /// (Wrong rules only.) It is the last departer without further ado.
    OwnsNow,
}

impl Rules {
    /// The word a closer or claimer leaves when it comes to own the
    /// object.
    fn owned_empty(self) -> u64 {
        match self {
            Rules::NoOwnedBit => RootWord::DRAINED.pack(),
            _ => RootWord::CLOSED_EMPTY.pack(),
        }
    }

    fn strip(self, word: u64) -> u64 {
        match self {
            Rules::NoOwnedBit => word & !OWNED_FLAG,
            _ => word,
        }
    }

    /// Rule 1. Returns whether the arrival arrived.
    fn arrive(self, word: &mut u64) -> bool {
        let old = *word;
        *word = old + ONE;
        RootWord::after_arrive(old)
    }

    /// Rule 2, the `fetch_sub` half.
    fn decrement(self, word: &mut u64) -> Result<AfterDecrement, String> {
        let old = *word;
        if RootWord::unpack(old).direct == 0 {
            return Err(format!(
                "counter underflow: decrement of {:?}",
                RootWord::unpack(old)
            ));
        }
        *word = old - ONE;
        Ok(match self {
            // (`NoClaimCas` differs in `claim` below, not here.)
            Rules::Shipped | Rules::OpenIsAStore | Rules::NoClaimCas => {
                match RootWord::after_decrement(old, ONE) {
                    Decrement::Held => AfterDecrement::Nothing,
                    Decrement::TryClaim => AfterDecrement::TryClaim,
                }
            }
            Rules::NoOwnedBit => {
                if *word == RootWord::DRAINED.pack() {
                    AfterDecrement::OwnsNow
                } else {
                    AfterDecrement::Nothing
                }
            }
        })
    }

    /// Rule 2, the claim. Returns whether this thread is the last
    /// departer.
    fn claim(self, word: &mut u64) -> bool {
        match self {
            Rules::NoClaimCas => {
                *word |= OWNED_FLAG;
                true
            }
            _ => {
                let won = *word == RootWord::DRAINED.pack();
                if won {
                    *word = RootWord::CLOSED_EMPTY.pack();
                }
                won
            }
        }
    }

    /// Rule 3, `CloseIfEmpty`. Returns whether the closer owns the word.
    fn close_if_empty(self, word: &mut u64) -> bool {
        match RootWord::close_if_empty_target(*word) {
            Some(new) => {
                *word = self.strip(new);
                true
            }
            None => false,
        }
    }

    /// Rule 3, `Close`. `None`: already closed; `Some(acquired)`.
    fn close(self, word: &mut u64) -> Option<bool> {
        let new = self.strip(RootWord::close_target(*word)?);
        *word = new;
        Some(new == self.owned_empty())
    }

    /// Rule 4.
    fn open(self, word: &mut u64, cnt: u64, close: bool) -> Result<(), String> {
        let old = RootWord::unpack(*word);
        match self {
            Rules::Shipped | Rules::NoClaimCas => {
                if !old.owned {
                    return Err(format!("open of a word nobody owns: {old:?}"));
                }
                *word = word.wrapping_add(RootWord::open_delta(cnt, close));
            }
            Rules::NoOwnedBit => {
                *word += (cnt * ONE) + u64::from(!close);
            }
            Rules::OpenIsAStore => {
                *word = RootWord {
                    direct: cnt,
                    tree: 0,
                    open: !close,
                    owned: false,
                }
                .pack();
            }
        }
        Ok(())
    }
}

fn show(word: u64) -> String {
    let w = RootWord::unpack(word);
    let state = match (w.open, w.owned, w.surplus()) {
        (true, ..) => "open",
        (false, true, _) => "owned",
        (false, false, 0) => "drained",
        (false, false, _) => "draining",
    };
    format!("{state}({})", w.surplus())
}

// ----------------------------------------------------------------------
// Model (a): a mini-GOLL
// ----------------------------------------------------------------------

const MAX_THREADS: usize = 5;
type Mask = u8;

fn bit(tid: usize) -> Mask {
    1 << tid
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GPc {
    Done,
    // Reader acquire (one round).
    Arrive,
    Undo,
    /// `after_failed_arrival`: the claim follows a failed arrival's undo
    /// (else a real departure).
    Claim {
        after_failed_arrival: bool,
    },
    QueueLock,
    QueueCheck,
    QueueUnlock {
        joined: bool,
    },
    WaitGrant,
    ReadInside,
    // Writer acquire.
    CloseIfEmpty,
    WQueueLock,
    Close,
    WQueueUnlock {
        acquired: bool,
    },
    WriteInside,
    // `release_owned`, by whoever owns the word.
    RelLock,
    RelDequeue,
    RelUnlock,
    RelSignal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GThread {
    pc: GPc,
    writer: bool,
    /// Read rounds still to start after the current one.
    rounds_left: u8,
    /// In `release_owned`: the release class, whom to signal, and where
    /// to carry on.
    from_reader: bool,
    signal: Mask,
    resume_at_queue: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Goll {
    rules: Rules,
    word: u64,
    mutex: Option<u8>,
    /// Waiting writers, FIFO (tids; 0xFF = empty slot).
    writers: [u8; 2],
    /// The waiting reader group.
    readers: Mask,
    granted: Mask,
    // Ghost state, for the invariants only.
    owner: Option<u8>,
    readers_inside: Mask,
    threads: [GThread; MAX_THREADS],
    live: usize,
}

impl Goll {
    /// `shape`: one `R` (a reader, arriving twice), `r` (a reader,
    /// arriving once) or `W` (a writer, acquiring once) per thread.
    fn new(shape: &str, rules: Rules) -> Self {
        let absent = GThread {
            pc: GPc::Done,
            writer: false,
            rounds_left: 0,
            from_reader: false,
            signal: 0,
            resume_at_queue: false,
        };
        let mut threads = [absent; MAX_THREADS];
        for (slot, kind) in threads.iter_mut().zip(shape.chars()) {
            *slot = match kind {
                'R' | 'r' => GThread {
                    pc: GPc::Arrive,
                    rounds_left: u8::from(kind == 'R'),
                    ..absent
                },
                'W' => GThread {
                    pc: GPc::CloseIfEmpty,
                    writer: true,
                    ..absent
                },
                other => panic!("unknown thread kind {other}"),
            };
        }
        Self {
            rules,
            word: RootWord::OPEN_EMPTY.pack(),
            mutex: None,
            writers: [0xFF; 2],
            readers: 0,
            granted: 0,
            owner: None,
            readers_inside: 0,
            threads,
            live: shape.len(),
        }
    }

    fn become_owner(&mut self, tid: usize) -> Result<(), String> {
        match self.owner.replace(tid as u8) {
            None => Ok(()),
            Some(other) => Err(format!("two owners: T{other} and T{tid}")),
        }
    }

    /// Starts `release_owned` on `tid`, which owns the word.
    fn release(&mut self, tid: usize, from_reader: bool, resume_at_queue: bool) {
        let t = &mut self.threads[tid];
        t.from_reader = from_reader;
        t.resume_at_queue = resume_at_queue;
        t.pc = GPc::RelLock;
    }

    /// The acquisition (and release) `tid` was on is over.
    fn round_over(&mut self, tid: usize) {
        let t = &mut self.threads[tid];
        t.pc = if t.rounds_left > 0 {
            t.rounds_left -= 1;
            GPc::Arrive
        } else {
            GPc::Done
        };
    }

    fn after_decrement(
        &mut self,
        tid: usize,
        after: AfterDecrement,
        after_failed_arrival: bool,
    ) -> Result<(), String> {
        match after {
            AfterDecrement::Nothing if after_failed_arrival => {
                self.threads[tid].pc = GPc::QueueLock;
            }
            AfterDecrement::Nothing => self.round_over(tid),
            AfterDecrement::TryClaim => {
                self.threads[tid].pc = GPc::Claim {
                    after_failed_arrival,
                };
            }
            AfterDecrement::OwnsNow => {
                self.become_owner(tid)?;
                self.release(tid, true, after_failed_arrival);
            }
        }
        Ok(())
    }

    fn pop_writer(&mut self) -> Option<u8> {
        let first = self.writers[0];
        (first != 0xFF).then(|| {
            self.writers = [self.writers[1], 0xFF];
            first
        })
    }

    fn push_writer(&mut self, tid: usize) {
        let slot = self.writers.iter().position(|&w| w == 0xFF).expect("room");
        self.writers[slot] = tid as u8;
    }
}

impl Model for Goll {
    fn threads(&self) -> usize {
        self.live
    }

    fn all_done(&self) -> bool {
        self.threads.iter().all(|t| t.pc == GPc::Done)
    }

    fn step(&self, tid: usize) -> Steps<Self> {
        let mut s = self.clone();
        let me = bit(tid);
        let rules = s.rules;
        let label = match self.threads[tid].pc {
            GPc::Done => return Ok(Vec::new()),
            GPc::Arrive => {
                if rules.arrive(&mut s.word) {
                    s.readers_inside |= me;
                    s.threads[tid].pc = GPc::ReadInside;
                    "arrive: fetch_add, open"
                } else {
                    s.threads[tid].pc = GPc::Undo;
                    "arrive: fetch_add, CLOSED"
                }
            }
            GPc::Undo => {
                let after = rules.decrement(&mut s.word)?;
                s.after_decrement(tid, after, true)?;
                "undo: fetch_sub"
            }
            GPc::Claim {
                after_failed_arrival,
            } => {
                if rules.claim(&mut s.word) {
                    s.become_owner(tid)?;
                    s.release(tid, true, after_failed_arrival);
                    "claim: won"
                } else {
                    s.after_decrement(tid, AfterDecrement::Nothing, after_failed_arrival)?;
                    "claim: lost"
                }
            }
            GPc::QueueLock | GPc::WQueueLock | GPc::RelLock => {
                if s.mutex.is_some() {
                    return Ok(Vec::new());
                }
                s.mutex = Some(tid as u8);
                s.threads[tid].pc = match self.threads[tid].pc {
                    GPc::QueueLock => GPc::QueueCheck,
                    GPc::WQueueLock => GPc::Close,
                    _ => GPc::RelDequeue,
                };
                "queue mutex: lock"
            }
            GPc::QueueCheck => {
                let joined = !RootWord::unpack(s.word).open;
                if joined {
                    s.readers |= me;
                }
                s.threads[tid].pc = GPc::QueueUnlock { joined };
                if joined {
                    "query: closed, join group"
                } else {
                    "query: open, retry"
                }
            }
            GPc::QueueUnlock { joined } => {
                s.mutex = None;
                s.threads[tid].pc = if joined { GPc::WaitGrant } else { GPc::Arrive };
                "queue mutex: unlock"
            }
            GPc::WaitGrant => {
                if s.granted & me == 0 {
                    return Ok(Vec::new());
                }
                s.granted &= !me;
                if s.threads[tid].writer {
                    if s.owner != Some(tid as u8) {
                        return Err(format!("T{tid} granted a write it does not own"));
                    }
                    s.threads[tid].pc = GPc::WriteInside;
                } else {
                    s.readers_inside |= me;
                    s.threads[tid].pc = GPc::ReadInside;
                }
                "granted"
            }
            GPc::ReadInside => {
                s.readers_inside &= !me;
                let after = rules.decrement(&mut s.word)?;
                s.after_decrement(tid, after, false)?;
                "depart: fetch_sub"
            }
            GPc::CloseIfEmpty => {
                if rules.close_if_empty(&mut s.word) {
                    s.become_owner(tid)?;
                    s.threads[tid].pc = GPc::WriteInside;
                    "close_if_empty: acquired"
                } else {
                    s.threads[tid].pc = GPc::WQueueLock;
                    "close_if_empty: busy"
                }
            }
            GPc::Close => {
                let acquired = rules.close(&mut s.word) == Some(true);
                if acquired {
                    s.become_owner(tid)?;
                } else {
                    s.push_writer(tid);
                }
                s.threads[tid].pc = GPc::WQueueUnlock { acquired };
                if acquired {
                    "close: acquired"
                } else {
                    "close: held, enqueue"
                }
            }
            GPc::WQueueUnlock { acquired } => {
                s.mutex = None;
                s.threads[tid].pc = if acquired {
                    GPc::WriteInside
                } else {
                    GPc::WaitGrant
                };
                "queue mutex: unlock"
            }
            GPc::WriteInside => {
                s.release(tid, false, false);
                "write: leave critical section"
            }
            GPc::RelDequeue => {
                if s.owner != Some(tid as u8) {
                    return Err(format!("T{tid} releases a lock it does not own"));
                }
                let from_reader = s.threads[tid].from_reader;
                // A reader release prefers the writer that closed the
                // word; a writer release lets the waiting readers go
                // first (the Alternating policy).
                let to_writer = if from_reader || s.readers == 0 {
                    s.pop_writer()
                } else {
                    None
                };
                let label = if let Some(w) = to_writer {
                    s.owner = Some(w);
                    s.threads[tid].signal = bit(w as usize);
                    "dequeue: hand to writer"
                } else {
                    s.owner = None;
                    let group = std::mem::take(&mut s.readers);
                    s.threads[tid].signal = group;
                    let writers_remain = s.writers[0] != 0xFF;
                    rules.open(&mut s.word, u64::from(group.count_ones()), writers_remain)?;
                    if group == 0 {
                        "dequeue: nobody, open"
                    } else {
                        "dequeue: open_with_arrivals"
                    }
                };
                s.threads[tid].pc = GPc::RelUnlock;
                label
            }
            GPc::RelUnlock => {
                s.mutex = None;
                s.threads[tid].pc = GPc::RelSignal;
                "queue mutex: unlock"
            }
            GPc::RelSignal => {
                let t = &mut s.threads[tid];
                if t.signal != 0 {
                    let next = t.signal & t.signal.wrapping_neg();
                    t.signal &= !next;
                    s.granted |= next;
                }
                if s.threads[tid].signal == 0 {
                    if s.threads[tid].resume_at_queue {
                        s.threads[tid].pc = GPc::QueueLock;
                    } else {
                        s.round_over(tid);
                    }
                }
                "grant"
            }
        };
        Ok(vec![(label, s)])
    }

    fn invariant(&self) -> Result<(), String> {
        match self.owner {
            Some(owner) if self.readers_inside != 0 => Err(format!(
                "reader(s) {:#b} inside while T{owner} owns the lock",
                self.readers_inside
            )),
            _ => Ok(()),
        }
    }

    fn terminal(&self) -> Result<(), String> {
        if self.word != RootWord::OPEN_EMPTY.pack() {
            return Err(format!("leaked arrival: word ends {}", show(self.word)));
        }
        if self.readers != 0 || self.writers[0] != 0xFF || self.granted != 0 {
            return Err("queue not empty at the end".into());
        }
        if self.mutex.is_some() || self.owner.is_some() {
            return Err("lock still held at the end".into());
        }
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "word {} owner {:?} inside {:#b} writers {:?} readers {:#b}",
            show(self.word),
            self.owner,
            self.readers_inside,
            self.writers,
            self.readers
        )
    }
}

// ----------------------------------------------------------------------
// Model (b): a mini queue lock around one recyclable reader node
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ref {
    Nil,
    /// The reader node.
    Node,
    /// The writer node of thread `tid`.
    Writer(u8),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeState {
    Granted,
    Waiting,
    Abandoned,
}

/// Who owns the reader node's word while it is in the *owned* state
/// (ghost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WordOwner {
    Nobody,
    /// The node rests in the pool.
    Pool,
    /// Abandoned to whoever grants the node.
    Granter,
    Thread(u8),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum QKind {
    /// `acquire_read` / `reader_unlock`, `rounds` times.
    Reader,
    /// One `acquire_read` that may time out of its wait for the grant.
    TimedReader,
    /// Read "the tail is the reader node" long ago: starts at the
    /// arrival, whatever has become of the node since.
    StaleArriver,
    /// `writer_lock` (FIFO: closes its reader predecessor at once) /
    /// `writer_unlock`.
    Writer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum QPc {
    Done,
    // acquire_read
    LoadTail,
    Alloc {
        pred: Ref,
    },
    Enqueue {
        pred: Ref,
    },
    Link {
        pred: u8,
    },
    Open,
    Arrive,
    Undo,
    /// `life`: the node's life when the decrement that led here was made.
    Claim {
        then: After,
        life: bool,
    },
    Await,
    Cancel,
    ReadInside,
    // discharge_drained
    DischargeState {
        then: After,
    },
    DischargeNext {
        then: After,
    },
    DischargeGrant {
        succ: u8,
        then: After,
    },
    DischargeFree {
        then: After,
    },
    // writer_lock
    SwapTail,
    WLink {
        pred: Ref,
    },
    SpinOpen,
    Close,
    Takeover,
    FreeTaken,
    AwaitOwn,
    WriteInside,
    // writer_unlock
    Unlock,
    AwaitLink,
    Grant {
        succ: Ref,
    },
    Cleanup,
}

/// Where a thread carries on after a claim attempt (and the discharge a
/// won claim obliges it to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum After {
    /// A failed arrival: back round the acquire loop.
    Retry,
    /// A departure or a cancel: this acquisition is over.
    RoundOver,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct QThread {
    kind: QKind,
    pc: QPc,
    rounds_left: u8,
    /// Holds the reader node, allocated but not (or no longer) enqueued.
    spare: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Queue {
    rules: Rules,
    tail: Ref,
    // The reader node.
    word: u64,
    node_state: NodeState,
    node_next: Ref,
    in_use: bool,
    /// Flips at every allocation of the node (ghost: tells a claim won by
    /// a decrement of an earlier life from one of the current life).
    life: bool,
    // The writer nodes, by thread.
    writer_waiting: Mask,
    writer_next: [Ref; MAX_THREADS],
    // Ghost state.
    word_owner: WordOwner,
    writer_inside: Option<u8>,
    readers_inside: Mask,
    threads: [QThread; MAX_THREADS],
    live: usize,
}

impl Queue {
    /// `shape`: `R` reader (two rounds), `T` timed reader, `S` stale
    /// arriver, `W` writer.
    fn new(shape: &str, rules: Rules) -> Self {
        let absent = QThread {
            kind: QKind::Reader,
            pc: QPc::Done,
            rounds_left: 0,
            spare: false,
        };
        let mut threads = [absent; MAX_THREADS];
        for (slot, kind) in threads.iter_mut().zip(shape.chars()) {
            *slot = match kind {
                'R' => QThread {
                    pc: QPc::LoadTail,
                    rounds_left: 1,
                    ..absent
                },
                'T' => QThread {
                    kind: QKind::TimedReader,
                    pc: QPc::LoadTail,
                    ..absent
                },
                'S' => QThread {
                    kind: QKind::StaleArriver,
                    pc: QPc::Arrive,
                    ..absent
                },
                'W' => QThread {
                    kind: QKind::Writer,
                    pc: QPc::SwapTail,
                    ..absent
                },
                other => panic!("unknown thread kind {other}"),
            };
        }
        Self {
            rules,
            tail: Ref::Nil,
            word: rules.owned_empty(),
            node_state: NodeState::Granted,
            node_next: Ref::Nil,
            in_use: false,
            life: false,
            writer_waiting: 0,
            writer_next: [Ref::Nil; MAX_THREADS],
            word_owner: WordOwner::Pool,
            writer_inside: None,
            readers_inside: 0,
            threads,
            live: shape.len(),
        }
    }

    fn pass_word(&mut self, from: WordOwner, to: WordOwner) -> Result<(), String> {
        if self.word_owner != from {
            return Err(format!(
                "the node's word changes hands {from:?} -> {to:?}, but {:?} owns it",
                self.word_owner
            ));
        }
        self.word_owner = to;
        Ok(())
    }

    /// `free_reader_node`, by `tid`, which must own the node's word.
    fn free_node(&mut self, from: WordOwner) -> Result<(), String> {
        if self.rules != Rules::NoOwnedBit && !RootWord::unpack(self.word).owned {
            return Err(format!("freed a node whose word is {}", show(self.word)));
        }
        self.pass_word(from, WordOwner::Pool)?;
        self.in_use = false;
        Ok(())
    }

    fn enter_write(&mut self, tid: usize) -> Result<(), String> {
        match self.writer_inside.replace(tid as u8) {
            None => Ok(()),
            Some(other) => Err(format!("two writers inside: T{other} and T{tid}")),
        }
    }

    fn round_over(&mut self, tid: usize) {
        let t = &mut self.threads[tid];
        t.pc = if t.rounds_left > 0 {
            t.rounds_left -= 1;
            QPc::LoadTail
        } else {
            QPc::Done
        };
    }

    fn carry_on(&mut self, tid: usize, then: After) {
        match then {
            After::Retry if self.threads[tid].kind != QKind::StaleArriver => {
                self.threads[tid].pc = QPc::LoadTail;
            }
            _ => self.round_over(tid),
        }
    }

    fn after_decrement(
        &mut self,
        tid: usize,
        after: AfterDecrement,
        then: After,
    ) -> Result<(), String> {
        match after {
            AfterDecrement::Nothing => self.carry_on(tid, then),
            AfterDecrement::TryClaim => {
                let life = self.life;
                self.threads[tid].pc = QPc::Claim { then, life };
            }
            AfterDecrement::OwnsNow => {
                self.pass_word(WordOwner::Nobody, WordOwner::Thread(tid as u8))?;
                self.threads[tid].pc = QPc::DischargeState { then };
            }
        }
        Ok(())
    }

    /// `grant(Writer(w))`: writers never abandon in this model.
    fn grant_writer(&mut self, w: u8) -> Result<(), String> {
        if self.writer_waiting & bit(w as usize) == 0 {
            return Err(format!("granted T{w}, which is not waiting"));
        }
        self.writer_waiting &= !bit(w as usize);
        Ok(())
    }
}

/// The step that makes `discharge_drained` read everything afresh: the
/// claim is won by a thread whose decrement drained an *earlier* life of
/// the node — it stalled before its CAS, somebody else claimed that drain,
/// the node was recycled, and its next drain is the one this CAS takes.
const LATE_CLAIM: &str = "claim: won, for a later life";

impl Model for Queue {
    fn threads(&self) -> usize {
        self.live
    }

    fn all_done(&self) -> bool {
        self.threads.iter().all(|t| t.pc == QPc::Done)
    }

    fn step(&self, tid: usize) -> Steps<Self> {
        let mut s = self.clone();
        let me = bit(tid);
        let mine = WordOwner::Thread(tid as u8);
        let rules = s.rules;
        let label = match self.threads[tid].pc {
            QPc::Done => return Ok(Vec::new()),

            // ---- acquire_read --------------------------------------
            QPc::LoadTail => match s.tail {
                Ref::Node => {
                    s.threads[tid].pc = QPc::Arrive;
                    "tail: reader node, join it"
                }
                pred => {
                    // Spinning in `alloc_reader_node` is waiting for the
                    // one node to come back to the pool.
                    if !s.threads[tid].spare && s.in_use {
                        return Ok(Vec::new());
                    }
                    s.threads[tid].pc = QPc::Alloc { pred };
                    "tail: nil or writer, need a node"
                }
            },
            QPc::Alloc { pred } => {
                if s.threads[tid].spare {
                    s.threads[tid].pc = QPc::Enqueue { pred };
                    "alloc: reuse spare"
                } else if s.in_use {
                    s.threads[tid].pc = QPc::LoadTail;
                    "alloc: taken, retry"
                } else {
                    s.in_use = true;
                    s.life = !s.life;
                    s.pass_word(WordOwner::Pool, mine)?;
                    s.threads[tid].spare = true;
                    s.threads[tid].pc = QPc::Enqueue { pred };
                    "alloc: claimed node"
                }
            }
            QPc::Enqueue { pred } => {
                if s.tail == pred {
                    s.node_state = if pred == Ref::Nil {
                        NodeState::Granted
                    } else {
                        NodeState::Waiting
                    };
                    s.node_next = Ref::Nil;
                    s.tail = Ref::Node;
                    s.threads[tid].spare = false;
                    s.threads[tid].pc = match pred {
                        Ref::Writer(w) => QPc::Link { pred: w },
                        _ => QPc::Open,
                    };
                    "enqueue: tail CAS ok"
                } else {
                    s.threads[tid].pc = QPc::LoadTail;
                    "enqueue: tail moved, retry"
                }
            }
            QPc::Link { pred } => {
                s.writer_next[pred as usize] = Ref::Node;
                s.threads[tid].pc = QPc::Open;
                "enqueue: link behind writer"
            }
            QPc::Open => {
                s.pass_word(mine, WordOwner::Nobody)?;
                rules.open(&mut s.word, 0, false)?;
                s.threads[tid].pc = QPc::Arrive;
                "enqueue: open the node"
            }
            QPc::Arrive => {
                if rules.arrive(&mut s.word) {
                    s.threads[tid].pc = QPc::Await;
                    "arrive: fetch_add, open"
                } else {
                    s.threads[tid].pc = QPc::Undo;
                    "arrive: fetch_add, CLOSED"
                }
            }
            QPc::Undo => {
                let after = rules.decrement(&mut s.word)?;
                s.after_decrement(tid, after, After::Retry)?;
                "undo: fetch_sub"
            }
            QPc::Claim { then, life } => {
                if rules.claim(&mut s.word) {
                    s.pass_word(WordOwner::Nobody, mine)?;
                    s.threads[tid].pc = QPc::DischargeState { then };
                    if life == s.life {
                        "claim: won"
                    } else {
                        LATE_CLAIM
                    }
                } else {
                    s.carry_on(tid, then);
                    "claim: lost"
                }
            }
            QPc::Await => {
                let mut next = Vec::new();
                if s.node_state == NodeState::Granted {
                    let mut granted = s.clone();
                    granted.readers_inside |= me;
                    granted.threads[tid].pc = QPc::ReadInside;
                    next.push(("await: node granted", granted));
                }
                if s.threads[tid].kind == QKind::TimedReader {
                    s.threads[tid].pc = QPc::Cancel;
                    next.push(("await: deadline passed", s));
                }
                return Ok(next);
            }
            QPc::Cancel => {
                let after = rules.decrement(&mut s.word)?;
                s.after_decrement(tid, after, After::RoundOver)?;
                "cancel: fetch_sub"
            }
            QPc::ReadInside => {
                s.readers_inside &= !me;
                let after = rules.decrement(&mut s.word)?;
                s.after_decrement(tid, after, After::RoundOver)?;
                "depart: fetch_sub"
            }

            // ---- discharge_drained ---------------------------------
            // Everything is read *after* the claim: the claimer may have
            // decremented in an earlier life of the node.
            QPc::DischargeState { then } => {
                if s.node_state == NodeState::Waiting {
                    s.node_state = NodeState::Abandoned;
                    s.pass_word(mine, WordOwner::Granter)?;
                    s.carry_on(tid, then);
                    "discharge: WAITING -> ABANDONED"
                } else {
                    s.threads[tid].pc = QPc::DischargeNext { then };
                    "discharge: node is granted"
                }
            }
            QPc::DischargeNext { then } => {
                let Ref::Writer(succ) = s.node_next else {
                    return Err("discharge: the drained node has no successor".into());
                };
                s.threads[tid].pc = QPc::DischargeGrant { succ, then };
                "discharge: read qnext"
            }
            QPc::DischargeGrant { succ, then } => {
                s.grant_writer(succ)?;
                s.threads[tid].pc = QPc::DischargeFree { then };
                "discharge: grant successor"
            }
            QPc::DischargeFree { then } => {
                s.node_next = Ref::Nil;
                s.free_node(mine)?;
                s.carry_on(tid, then);
                "discharge: free node"
            }

            // ---- writer_lock ---------------------------------------
            QPc::SwapTail => {
                let pred = std::mem::replace(&mut s.tail, Ref::Writer(tid as u8));
                if pred == Ref::Nil {
                    s.enter_write(tid)?;
                    s.threads[tid].pc = QPc::WriteInside;
                    "swap tail: queue empty, acquired"
                } else {
                    s.writer_waiting |= me;
                    s.threads[tid].pc = QPc::WLink { pred };
                    "swap tail: queued"
                }
            }
            QPc::WLink { pred } => {
                match pred {
                    Ref::Node => {
                        s.node_next = Ref::Writer(tid as u8);
                        s.threads[tid].pc = QPc::SpinOpen;
                    }
                    Ref::Writer(w) => {
                        s.writer_next[w as usize] = Ref::Writer(tid as u8);
                        s.threads[tid].pc = QPc::AwaitOwn;
                    }
                    Ref::Nil => unreachable!(),
                }
                "link behind predecessor"
            }
            QPc::SpinOpen => {
                if !RootWord::unpack(s.word).open {
                    return Ok(Vec::new());
                }
                s.threads[tid].pc = QPc::Close;
                "predecessor node is open"
            }
            QPc::Close => match rules.close(&mut s.word) {
                None => return Err("a second closer behind one reader node".into()),
                Some(true) => {
                    s.pass_word(WordOwner::Nobody, mine)?;
                    s.threads[tid].pc = QPc::Takeover;
                    "close: empty, take the node over"
                }
                Some(false) => {
                    s.threads[tid].pc = QPc::AwaitOwn;
                    "close: readers inside, wait for the last"
                }
            },
            QPc::Takeover => {
                if s.node_state != NodeState::Granted {
                    return Ok(Vec::new());
                }
                s.threads[tid].pc = QPc::FreeTaken;
                "takeover: node granted"
            }
            QPc::FreeTaken => {
                s.free_node(mine)?;
                s.writer_waiting &= !me;
                s.enter_write(tid)?;
                s.threads[tid].pc = QPc::WriteInside;
                "takeover: free node, acquired"
            }
            QPc::AwaitOwn => {
                if s.writer_waiting & me != 0 {
                    return Ok(Vec::new());
                }
                s.enter_write(tid)?;
                s.threads[tid].pc = QPc::WriteInside;
                "granted"
            }
            QPc::WriteInside => {
                s.writer_inside = None;
                s.threads[tid].pc = QPc::Unlock;
                "write: leave critical section"
            }

            // ---- writer_unlock -------------------------------------
            QPc::Unlock => match s.writer_next[tid] {
                Ref::Nil if s.tail == Ref::Writer(tid as u8) => {
                    s.tail = Ref::Nil;
                    s.threads[tid].pc = QPc::Done;
                    "unlock: queue emptied"
                }
                Ref::Nil => {
                    s.threads[tid].pc = QPc::AwaitLink;
                    "unlock: successor is linking in"
                }
                succ => {
                    s.threads[tid].pc = QPc::Grant { succ };
                    "unlock: read qnext"
                }
            },
            QPc::AwaitLink => match s.writer_next[tid] {
                Ref::Nil => return Ok(Vec::new()),
                succ => {
                    s.threads[tid].pc = QPc::Grant { succ };
                    "unlock: read qnext"
                }
            },
            QPc::Grant { succ } => match succ {
                Ref::Writer(w) => {
                    s.grant_writer(w)?;
                    s.threads[tid].pc = QPc::Cleanup;
                    "grant: writer"
                }
                Ref::Node if s.node_state == NodeState::Waiting => {
                    s.node_state = NodeState::Granted;
                    s.threads[tid].pc = QPc::Cleanup;
                    "grant: reader node"
                }
                Ref::Node if s.node_state == NodeState::Abandoned => {
                    // The cascade: recycle the abandoned node and pass the
                    // lock to the writer that closed it.
                    let next = std::mem::replace(&mut s.node_next, Ref::Nil);
                    if next == Ref::Nil {
                        return Err("cascade: abandoned node has no successor".into());
                    }
                    s.free_node(WordOwner::Granter)?;
                    s.threads[tid].pc = QPc::Grant { succ: next };
                    "grant: cascade over abandoned node"
                }
                _ => return Err(format!("grant of {succ:?} in state {:?}", s.node_state)),
            },
            QPc::Cleanup => {
                s.writer_next[tid] = Ref::Nil;
                s.threads[tid].pc = QPc::Done;
                "unlock: clean up"
            }
        };
        Ok(vec![(label, s)])
    }

    fn invariant(&self) -> Result<(), String> {
        match self.writer_inside {
            Some(w) if self.readers_inside != 0 => Err(format!(
                "reader(s) {:#b} inside beside writer T{w}",
                self.readers_inside
            )),
            _ => Ok(()),
        }
    }

    fn terminal(&self) -> Result<(), String> {
        let resting = match self.tail {
            // The steady state of a queue lock after reads: the node
            // stays queued, granted, open and empty.
            Ref::Node => {
                self.in_use
                    && self.word == RootWord::OPEN_EMPTY.pack()
                    && self.node_state == NodeState::Granted
            }
            Ref::Nil => {
                !self.in_use
                    && self.word == self.rules.owned_empty()
                    && self.word_owner == WordOwner::Pool
            }
            Ref::Writer(_) => false,
        };
        if !resting {
            return Err(format!(
                "node pool not whole: tail {:?}, in_use {}, word {}, {:?}, owner {:?}",
                self.tail,
                self.in_use,
                show(self.word),
                self.node_state,
                self.word_owner
            ));
        }
        if self.writer_waiting != 0 || self.writer_next.iter().any(|&n| n != Ref::Nil) {
            return Err("writer nodes still linked at the end".into());
        }
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "tail {:?} node[{} {:?} next {:?}{}] write {:?} read {:#b}",
            self.tail,
            show(self.word),
            self.node_state,
            self.node_next,
            if self.in_use { "" } else { " FREE" },
            self.writer_inside,
            self.readers_inside
        )
    }
}

// ----------------------------------------------------------------------
// The tests
// ----------------------------------------------------------------------

fn holds<M: Model>(name: &str, init: M) -> Explored {
    match explore(init) {
        Ok(explored) => {
            println!("{name}: {} states, all properties hold", explored.states);
            explored
        }
        Err(failure) => {
            failure.print(name);
            panic!("{name}: {}", failure.what);
        }
    }
}

fn rejected<M: Model>(name: &str, init: M) -> Failure {
    match explore(init) {
        Ok(explored) => panic!(
            "{name}: the checker passed a wrong protocol ({} states)",
            explored.states
        ),
        Err(failure) => {
            failure.print(name);
            failure
        }
    }
}

#[test]
fn mini_goll_holds_under_the_shipped_rules() {
    for shape in ["RRW", "RRWW", "RRRW", "rrrWW"] {
        let explored = holds(&format!("goll {shape}"), Goll::new(shape, Rules::Shipped));
        assert!(explored.states > 1_000, "{shape}: hardly explored");
        // The protocol's own corner is on some schedule: a failed
        // arrival's undo is the last departure, and hands the lock off.
        assert!(explored.steps.contains("claim: won"), "{shape}");
    }
}

#[test]
fn mini_queue_lock_holds_under_the_shipped_rules() {
    // R: two full read acquisitions; T: a read that may time out of its
    // wait; S: an arrival at the node from a stale tail read; W: writers
    // closing behind the node. Every shape recycles the one node.
    const CASCADE: &str = "grant: cascade over abandoned node";
    let (mut late_claims, mut cascades) = (Vec::new(), Vec::new());
    for shape in ["RTW", "RSW", "RSWW", "TSWW", "RTSW", "RTWW"] {
        let explored = holds(&format!("queue {shape}"), Queue::new(shape, Rules::Shipped));
        assert!(explored.states > 1_000, "{shape}: hardly explored");
        assert!(explored.steps.contains("claim: won"), "{shape}");
        if explored.steps.contains(LATE_CLAIM) {
            late_claims.push(shape);
        }
        if explored.steps.contains(CASCADE) {
            cascades.push(shape);
        }
    }
    // The two corners that made `discharge_drained` one function both take
    // two closers (one whose drain is claimed, one whose node is reused or
    // still waiting) and a reader that comes back: the shapes that have
    // them must reach a claim won for a later life of the node, and a
    // claimer that finds the node still waiting and leaves it abandoned
    // for the granter's cascade.
    println!("late claims on {late_claims:?}, abandoned-node cascades on {cascades:?}");
    assert!(late_claims.contains(&"RTWW"), "{late_claims:?}");
    assert!(cascades.contains(&"RTWW"), "{cascades:?}");
}

#[test]
fn checker_rejects_a_word_without_the_owned_state() {
    // ROADMAP item 5's sketch. Three threads suffice: a writer holds the
    // lock, an arrival lands on its closed-empty word, and the undo takes
    // the closed word to zero — the last-departer signal.
    let failure = rejected(
        "goll RRW, no OWNED bit",
        Goll::new("RRW", Rules::NoOwnedBit),
    );
    assert!(failure.what.contains("two owners"), "{}", failure.what);
    assert!(
        failure.trace.len() <= 4,
        "shortest trace: {}",
        failure.trace.len()
    );
    rejected(
        "queue RSW, no OWNED bit",
        Queue::new("RSW", Rules::NoOwnedBit),
    );
}

#[test]
fn checker_rejects_open_as_a_plain_store() {
    let failure = rejected(
        "goll RRW, open is a store",
        Goll::new("RRW", Rules::OpenIsAStore),
    );
    assert!(failure.what.contains("underflow"), "{}", failure.what);
    assert!(
        failure.trace.len() <= 7,
        "shortest trace: {}",
        failure.trace.len()
    );
    rejected(
        "queue RSW, open is a store",
        Queue::new("RSW", Rules::OpenIsAStore),
    );
}

#[test]
fn checker_rejects_the_owned_state_without_the_claim_cas() {
    let failure = rejected(
        "goll RRW, no claim CAS",
        Goll::new("RRW", Rules::NoClaimCas),
    );
    assert!(
        failure.trace.len() <= 12,
        "shortest trace: {}",
        failure.trace.len()
    );
    rejected(
        "queue RSWW, no claim CAS",
        Queue::new("RSWW", Rules::NoClaimCas),
    );
}
