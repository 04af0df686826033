//! The rank runtime and point-to-point messaging layer.
//!
//! [`Universe::run`] plays the role of `mpirun`: it spawns `P` rank threads,
//! hands each a [`RankCtx`] (its "MPI rank"), runs the same SPMD closure on
//! every rank, and collects the per-rank results in rank order. Ranks
//! communicate through per-destination mailboxes (one FIFO queue per ordered
//! rank pair, created lazily), so sends never block, memory is `O(P + pairs)`
//! rather than `O(P²)`, and deterministic SPMD programs match sends to
//! receives by (source, program order) exactly as MPI does with a single tag.
//!
//! Two execution modes share this transport ([`UniverseCfg`]):
//!
//! * **free-running threads** (default): every rank is an OS thread scheduled
//!   by the kernel — the honest mode whose measured wall/CPU times the
//!   experiments report;
//! * **sequential round-robin** (`sequential: true`): rank bodies still live
//!   on (small-stack) threads so blocking receives can suspend mid-closure,
//!   but a cooperative scheduler gates them so **exactly one rank executes at
//!   a time**, handing the turn round-robin to the next runnable rank
//!   whenever the current one blocks. This executes thousands of ranks on
//!   one running thread at a time — the paper-scale virtual-time mode.
//!
//! Two ledgers capture the paper's communication metrics:
//! * a process-global [`VolumeLedger`] counts every payload byte that crosses
//!   distinct ranks, split by [`VolumeCategory`];
//! * a per-rank [`CommTimers`] accumulates wall time spent inside
//!   communication calls (including waiting), the same accounting an MPI
//!   profiler would produce.
//!
//! When a [`NetModel`] is attached, a third ledger — the per-rank virtual
//! clock [`RankCtx::vtimers`] — charges every off-rank message `α + β·bytes`
//! to both endpoints, again split by category (see [`crate::net`]).

use crate::net::NetModel;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// CPU time consumed by the calling thread.
///
/// Wall-clock phase timing is unreliable when simulated ranks oversubscribe
/// the host's cores (a rank's "elapsed" includes time spent descheduled
/// while other ranks compute). Thread CPU time is robust: blocked channel
/// receives park the thread and accrue nothing, so a delta across a compute
/// phase measures exactly the work this rank performed.
///
/// The `clock_gettime` result is checked: if the per-thread CPU clock is
/// unavailable (some sandboxes and exotic kernels), the function falls back
/// to a process-wide monotonic clock instead of returning garbage — phase
/// splits degrade gracefully rather than corrupting the stats.
///
/// On a mesh universe ([`Universe::run_mesh`]) many ranks share one worker
/// thread, so the raw per-thread clock would charge a rank for its
/// neighbors' compute. When the caller is a mesh fiber this returns the
/// fiber's own virtual CPU clock (accumulated across suspensions) instead.
pub fn thread_cpu_time() -> Duration {
    if let Some(d) = crate::mesh::current_fiber_cpu() {
        return d;
    }
    raw_thread_cpu_time()
}

/// The raw per-OS-thread CPU clock, ignoring fiber multiplexing. The mesh
/// scheduler uses this to meter fiber slices.
pub(crate) fn raw_thread_cpu_time() -> Duration {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid out-pointer; the clock id is a constant.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    } else {
        // Checked fallback: deltas stay monotone (an `Instant` anchored at
        // first use), so downstream `saturating_sub` phase math stays valid.
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed()
    }
}

/// What a transfer was for; used to split volume/time the way the paper's
/// plots do (TTM reduce-scatter vs. regridding vs. Gram/SVD support traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VolumeCategory {
    /// Reduce-scatter inside a distributed TTM (paper: `(q_n − 1)|Out(u)|`).
    TtmReduceScatter,
    /// All-to-all regridding traffic (paper: `|In(u)|`).
    Regrid,
    /// All-gather + all-reduce supporting the Gram/SVD step.
    Gram,
    /// Everything else (setup, gathers for verification, …).
    Other,
}

const CATEGORY_COUNT: usize = 4;

impl VolumeCategory {
    #[inline]
    fn idx(self) -> usize {
        match self {
            VolumeCategory::TtmReduceScatter => 0,
            VolumeCategory::Regrid => 1,
            VolumeCategory::Gram => 2,
            VolumeCategory::Other => 3,
        }
    }

    /// All categories in index order.
    pub fn all() -> [VolumeCategory; CATEGORY_COUNT] {
        [
            VolumeCategory::TtmReduceScatter,
            VolumeCategory::Regrid,
            VolumeCategory::Gram,
            VolumeCategory::Other,
        ]
    }
}

/// Process-global byte counters, shared by all ranks of a universe.
#[derive(Debug, Default)]
pub struct VolumeLedger {
    bytes: [AtomicU64; CATEGORY_COUNT],
}

impl VolumeLedger {
    fn add(&self, cat: VolumeCategory, bytes: u64) {
        self.bytes[cat.idx()].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn report(&self) -> VolumeReport {
        let mut bytes = [0u64; CATEGORY_COUNT];
        for (o, b) in bytes.iter_mut().zip(&self.bytes) {
            *o = b.load(Ordering::Relaxed);
        }
        VolumeReport { bytes }
    }
}

/// Immutable snapshot of a [`VolumeLedger`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VolumeReport {
    bytes: [u64; CATEGORY_COUNT],
}

impl VolumeReport {
    /// Bytes transferred for one category.
    pub fn bytes(&self, cat: VolumeCategory) -> u64 {
        self.bytes[cat.idx()]
    }

    /// Total bytes across categories.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Elements (f64) transferred for one category.
    pub fn elements(&self, cat: VolumeCategory) -> u64 {
        self.bytes(cat) / 8
    }

    /// Total elements across categories.
    pub fn total_elements(&self) -> u64 {
        self.total_bytes() / 8
    }

    /// Difference of two snapshots (self − earlier).
    pub fn since(&self, earlier: &VolumeReport) -> VolumeReport {
        let mut bytes = [0u64; CATEGORY_COUNT];
        for (o, (a, b)) in bytes.iter_mut().zip(self.bytes.iter().zip(&earlier.bytes)) {
            *o = a - b;
        }
        VolumeReport { bytes }
    }
}

/// Per-rank time spent inside communication calls, by category. Holds
/// measured wall nanoseconds in [`RankCtx::timers`] and modeled α–β
/// nanoseconds in [`RankCtx::vtimers`].
#[derive(Clone, Debug, Default)]
pub struct CommTimers {
    nanos: [u64; CATEGORY_COUNT],
}

impl CommTimers {
    fn add(&mut self, cat: VolumeCategory, d: Duration) {
        self.nanos[cat.idx()] += d.as_nanos() as u64;
    }

    fn add_nanos(&mut self, cat: VolumeCategory, ns: u64) {
        self.nanos[cat.idx()] += ns;
    }

    /// Time spent in one category.
    pub fn time(&self, cat: VolumeCategory) -> Duration {
        Duration::from_nanos(self.nanos[cat.idx()])
    }

    /// Total communication time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Merge another rank's timers (used when aggregating max/mean).
    pub fn merge_max(&mut self, other: &CommTimers) {
        for (a, b) in self.nanos.iter_mut().zip(&other.nanos) {
            *a = (*a).max(*b);
        }
    }

    /// Difference of two snapshots (`self − earlier`), used to attribute
    /// communication time to an enclosing phase.
    pub fn since(&self, earlier: &CommTimers) -> CommTimers {
        let mut nanos = [0u64; CATEGORY_COUNT];
        for (o, (a, b)) in nanos.iter_mut().zip(self.nanos.iter().zip(&earlier.nanos)) {
            *o = a.saturating_sub(*b);
        }
        CommTimers { nanos }
    }
}

/// A message: an operation tag for sanity checking plus the payload.
#[derive(Debug)]
pub(crate) struct Msg {
    tag: u32,
    payload: Vec<f64>,
}

/// One rank's inbox: FIFO queues keyed by source rank, created lazily so a
/// universe costs `O(P + communicating pairs)` memory, not `O(P²)`.
#[derive(Default)]
pub(crate) struct Mailbox {
    queues: Mutex<HashMap<usize, VecDeque<Msg>>>,
    cv: Condvar,
}

/// Ignore mutex poisoning: a rank that panics while holding a lock must not
/// turn its peers' diagnostics into `PoisonError`s — the runtime's own
/// poison flag carries the failure instead.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Process-wide count of sequential-scheduler token hand-offs (diagnostic:
/// each hand-off costs a kernel context switch, the dominant per-operation
/// cost of paper-scale sequential universes).
static SCHED_SWITCHES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide token hand-off counter.
pub fn sched_switches() -> u64 {
    SCHED_SWITCHES.load(Ordering::Relaxed)
}

// ------------------------------------------------------------------ scheduler

/// What a rank in the sequential scheduler is currently doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RankState {
    /// Eligible to run (or currently running).
    Runnable,
    /// Blocked on a receive from the given source rank.
    BlockedRecv(usize),
    /// Waiting at a barrier.
    BlockedBarrier,
    /// Closure finished (or panicked).
    Done,
}

struct SeqState {
    states: Vec<RankState>,
    /// Runnable ranks awaiting their turn, in hand-off order (round-robin).
    ready: VecDeque<usize>,
    barrier_waiting: usize,
    live: usize,
    /// Diagnostic for scheduler-detected failures (deadlock); waiting ranks
    /// re-raise it so the first-joined rank reports the real cause.
    poison_msg: Option<String>,
}

/// Cooperative round-robin scheduler: rank bodies are parked threads, but
/// exactly one holds the turn; it runs until it blocks (recv on an empty
/// queue, barrier) or finishes, then hands the turn to the next runnable
/// rank. All scheduling decisions are deterministic, so virtual-time runs
/// are exactly reproducible.
///
/// The hand-off itself is a lock-free `park`/`unpark` on the token atomics —
/// a single futex wake per switch — because at P = 8192 the switch cost is
/// the sweep's bottleneck, not the payload bytes.
struct SeqSched {
    state: Mutex<SeqState>,
    /// The rank currently holding the execution turn.
    current: AtomicUsize,
    poisoned: AtomicBool,
    /// Rank thread handles, registered by each rank at startup. `advance`
    /// spins briefly if the target has not registered yet (startup only).
    threads: Vec<OnceLock<std::thread::Thread>>,
}

impl SeqSched {
    fn new(nranks: usize) -> Self {
        SeqSched {
            state: Mutex::new(SeqState {
                states: vec![RankState::Runnable; nranks],
                ready: (1..nranks).collect(),
                barrier_waiting: 0,
                live: nranks,
                poison_msg: None,
            }),
            current: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            threads: (0..nranks).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Park until it is `me`'s turn. Panics if the universe is poisoned.
    fn wait_turn(&self, me: usize) {
        while self.current.load(Ordering::Acquire) != me {
            if self.poisoned.load(Ordering::Acquire) {
                self.raise_poison();
            }
            std::thread::park();
        }
        if self.poisoned.load(Ordering::Acquire) {
            self.raise_poison();
        }
    }

    /// Panic with the scheduler's recorded diagnostic (or the generic
    /// cascade message matching the threaded mode's channel semantics).
    fn raise_poison(&self) -> ! {
        let msg = lock_ignore_poison(&self.state)
            .poison_msg
            .clone()
            .unwrap_or_else(|| "sender dropped: a rank panicked".to_string());
        panic!("{msg}");
    }

    /// Hand the turn to `next`: publish the token, then wake the thread.
    fn hand_token(&self, next: usize) {
        SCHED_SWITCHES.fetch_add(1, Ordering::Relaxed);
        self.current.store(next, Ordering::Release);
        let t = loop {
            if let Some(t) = self.threads[next].get() {
                break t;
            }
            std::thread::yield_now(); // startup race only
        };
        t.unpark();
    }

    /// Wake every registered rank (poison propagation).
    fn unpark_all(&self) {
        for slot in &self.threads {
            if let Some(t) = slot.get() {
                t.unpark();
            }
        }
    }

    /// Hand the turn to the next runnable rank. `g.states[from]` must
    /// already reflect why `from` is giving it up.
    fn advance(&self, g: &mut SeqState, from: usize) {
        loop {
            if let Some(next) = g.ready.pop_front() {
                // Lazy deletion: entries can go stale when a rank was
                // re-blocked after being queued (cannot happen today, but
                // cheap to guard).
                if g.states[next] != RankState::Runnable {
                    continue;
                }
                self.hand_token(next);
                return;
            }
            if g.live == 0 {
                return; // everyone finished; main thread takes over
            }
            // Nobody runnable: receivers blocked on finished senders must be
            // resumed so they can fail loudly (matching the channel-
            // disconnect diagnostics of the threaded mode).
            let mut revived = false;
            for r in 0..g.states.len() {
                if let RankState::BlockedRecv(src) = g.states[r] {
                    if g.states[src] == RankState::Done {
                        g.states[r] = RankState::Runnable;
                        g.ready.push_back(r);
                        revived = true;
                    }
                }
            }
            if revived {
                continue;
            }
            // Genuine deadlock: every live rank waits on a live rank.
            let msg = format!(
                "deadlock in sequential scheduler: all {} live ranks are blocked \
                 (rank {from} yielded last)",
                g.live
            );
            g.poison_msg = Some(msg.clone());
            self.poisoned.store(true, Ordering::Release);
            self.unpark_all();
            panic!("{msg}");
        }
    }

    /// Mark `dst` runnable if it is blocked on a message from `src`.
    fn on_message(&self, dst: usize, src: usize) {
        let mut g = lock_ignore_poison(&self.state);
        if g.states[dst] == RankState::BlockedRecv(src) {
            g.states[dst] = RankState::Runnable;
            g.ready.push_back(dst);
        }
    }

    /// Block `me` on a receive from `src`; returns once resumed. The caller
    /// re-checks its queue (a resume can also mean "the sender died").
    fn block_on_recv(&self, me: usize, src: usize) {
        {
            let mut g = lock_ignore_poison(&self.state);
            if self.poisoned.load(Ordering::Acquire) {
                drop(g);
                self.raise_poison();
            }
            if g.states[src] == RankState::Done {
                drop(g);
                panic!("sender dropped: a rank panicked");
            }
            g.states[me] = RankState::BlockedRecv(src);
            self.advance(&mut g, me);
        }
        self.wait_turn(me);
    }

    /// `true` iff `src` has finished.
    fn sender_done(&self, src: usize) -> bool {
        lock_ignore_poison(&self.state).states[src] == RankState::Done
    }

    /// Barrier across all live ranks.
    fn barrier(&self, me: usize) {
        {
            let mut g = lock_ignore_poison(&self.state);
            g.barrier_waiting += 1;
            if g.barrier_waiting >= g.live {
                Self::release_barrier(&mut g);
                return; // last arrival keeps the turn
            }
            g.states[me] = RankState::BlockedBarrier;
            self.advance(&mut g, me);
        }
        self.wait_turn(me);
    }

    fn release_barrier(g: &mut SeqState) {
        g.barrier_waiting = 0;
        for r in 0..g.states.len() {
            if g.states[r] == RankState::BlockedBarrier {
                g.states[r] = RankState::Runnable;
                g.ready.push_back(r);
            }
        }
    }

    /// Called from the rank guard when `me`'s closure returns or panics.
    fn done(&self, me: usize, panicking: bool) {
        let mut g = lock_ignore_poison(&self.state);
        g.states[me] = RankState::Done;
        g.live -= 1;
        if panicking {
            self.poisoned.store(true, Ordering::Release);
            self.unpark_all();
            return;
        }
        if g.live > 0 && g.barrier_waiting > 0 && g.barrier_waiting >= g.live {
            Self::release_barrier(&mut g);
        }
        if g.live > 0 {
            self.advance(&mut g, me);
        }
    }
}

// ------------------------------------------------------------------- universe

/// Execution configuration for a universe.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniverseCfg {
    /// Gate ranks through the deterministic round-robin scheduler (one rank
    /// executing at a time) instead of free-running threads. Required for
    /// paper-scale rank counts; measured wall times are meaningless here, so
    /// pair it with a [`NetModel`].
    pub sequential: bool,
    /// Attach an α–β model: every off-rank message charges
    /// [`RankCtx::vtimers`] at both endpoints.
    pub net: Option<NetModel>,
}

/// Shared state of one universe.
pub(crate) struct Shared {
    mail: Vec<Mailbox>,
    pub(crate) ledger: VolumeLedger,
    done: Vec<AtomicBool>,
    poisoned: AtomicBool,
    /// Threaded-mode barrier (the sequential mode has its own).
    barrier: Barrier,
    sched: Option<SeqSched>,
    net: Option<NetModel>,
    /// Mesh-mode scheduler ([`Universe::run_mesh`]); the other two modes
    /// leave it `None`.
    pub(crate) mesh: Option<crate::mesh::MeshSched>,
}

impl Shared {
    /// Shared state for a mesh universe (no threaded barrier users, no
    /// sequential scheduler; the mesh scheduler owns all blocking).
    pub(crate) fn for_mesh(
        nranks: usize,
        mesh: crate::mesh::MeshSched,
        net: Option<NetModel>,
    ) -> Shared {
        Shared {
            mail: (0..nranks).map(|_| Mailbox::default()).collect(),
            ledger: VolumeLedger::default(),
            done: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
            poisoned: AtomicBool::new(false),
            barrier: Barrier::new(nranks),
            sched: None,
            net,
            mesh: Some(mesh),
        }
    }
}

/// Handle to one simulated MPI rank. Created by [`Universe::run`]; all
/// communication goes through methods on this type.
pub struct RankCtx {
    rank: usize,
    nranks: usize,
    shared: Arc<Shared>,
    /// Measured communication-time accounting for this rank.
    pub timers: CommTimers,
    /// Modeled (α–β virtual clock) communication time for this rank; all
    /// zero unless the universe was configured with a [`NetModel`].
    pub vtimers: CommTimers,
    /// Communication ops issued so far (mesh mode: the clock the simulated
    /// allocator schedules kills against).
    mesh_ops: u64,
}

impl RankCtx {
    /// Context for a mesh-mode rank (see [`Universe::run_mesh`]).
    pub(crate) fn for_mesh(rank: usize, nranks: usize, shared: Arc<Shared>) -> RankCtx {
        RankCtx {
            rank,
            nranks,
            shared,
            timers: CommTimers::default(),
            vtimers: CommTimers::default(),
            mesh_ops: 0,
        }
    }

    /// This rank's id in `0..nranks`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// OS threads the running mesh has spawned that are still live (its
    /// workers, plus one per unfinished rank where fibers are threads);
    /// `None` outside [`Universe::run_mesh`].
    pub fn mesh_threads_live(&self) -> Option<usize> {
        self.shared.mesh.as_ref().map(|m| m.threads_live())
    }

    /// The attached network model, if the universe runs in virtual time.
    pub fn net(&self) -> Option<&NetModel> {
        self.shared.net.as_ref()
    }

    /// Snapshot of the universe-wide volume ledger.
    pub fn volume(&self) -> VolumeReport {
        self.shared.ledger.report()
    }

    /// Block until every rank reaches the barrier.
    pub fn barrier(&mut self) {
        let t0 = Instant::now();
        if let Some(mesh) = &self.shared.mesh {
            mesh.precheck(self.rank, &mut self.mesh_ops);
            mesh.barrier(self.rank);
        } else {
            match &self.shared.sched {
                Some(sched) => sched.barrier(self.rank),
                None => {
                    self.shared.barrier.wait();
                }
            }
        }
        self.timers.add(VolumeCategory::Other, t0.elapsed());
        if let Some(net) = &self.shared.net {
            self.vtimers
                .add_nanos(VolumeCategory::Other, net.barrier_ns(self.nranks));
        }
    }

    /// Send `payload` to `dst`. Never blocks (queues are unbounded).
    /// Self-sends are delivered but cost neither volume nor modeled time.
    pub fn send(&mut self, dst: usize, tag: u32, payload: Vec<f64>, cat: VolumeCategory) {
        debug_assert!(dst < self.nranks, "bad destination {dst}");
        if let Some(mesh) = &self.shared.mesh {
            mesh.precheck(self.rank, &mut self.mesh_ops);
        }
        if dst != self.rank {
            let bytes = (payload.len() * 8) as u64;
            self.shared.ledger.add(cat, bytes);
            if let Some(net) = &self.shared.net {
                self.vtimers
                    .add_nanos(cat, net.msg_ns_between(self.rank, dst, bytes));
            }
        }
        let t0 = Instant::now();
        {
            let mb = &self.shared.mail[dst];
            let mut q = lock_ignore_poison(&mb.queues);
            q.entry(self.rank)
                .or_default()
                .push_back(Msg { tag, payload });
        }
        if let Some(mesh) = &self.shared.mesh {
            mesh.on_message(dst, self.rank);
        } else {
            match &self.shared.sched {
                Some(sched) => sched.on_message(dst, self.rank),
                None => self.shared.mail[dst].cv.notify_all(),
            }
        }
        self.timers.add(cat, t0.elapsed());
    }

    /// Receive the next message from `src`, asserting the expected tag.
    ///
    /// # Panics
    /// Panics if the sender finished without sending (the classic
    /// "sender dropped" of a mismatched SPMD program) or the tag does not
    /// match.
    pub fn recv(&mut self, src: usize, tag: u32, cat: VolumeCategory) -> Vec<f64> {
        debug_assert!(src < self.nranks, "bad source {src}");
        let t0 = Instant::now();
        let msg = if self.shared.mesh.is_some() {
            self.recv_mesh(src)
        } else {
            match &self.shared.sched {
                Some(_) => self.recv_sequential(src),
                None => self.recv_threaded(src),
            }
        };
        self.timers.add(cat, t0.elapsed());
        if src != self.rank {
            if let Some(net) = &self.shared.net {
                self.vtimers.add_nanos(
                    cat,
                    net.msg_ns_between(src, self.rank, (msg.payload.len() * 8) as u64),
                );
            }
        }
        assert_eq!(
            msg.tag, tag,
            "rank {}: tag mismatch receiving from {src} (got {}, want {tag})",
            self.rank, msg.tag
        );
        msg.payload
    }

    fn try_pop(&self, src: usize) -> Option<Msg> {
        let mut q = lock_ignore_poison(&self.shared.mail[self.rank].queues);
        q.get_mut(&src).and_then(VecDeque::pop_front)
    }

    fn recv_threaded(&self, src: usize) -> Msg {
        let mb = &self.shared.mail[self.rank];
        let mut q = lock_ignore_poison(&mb.queues);
        loop {
            if let Some(m) = q.get_mut(&src).and_then(VecDeque::pop_front) {
                return m;
            }
            // Matches the old channel-disconnect diagnostic: the sender is
            // gone (normally or by panic) and no message will ever arrive.
            if self.shared.poisoned.load(Ordering::SeqCst)
                || self.shared.done[src].load(Ordering::SeqCst)
            {
                drop(q);
                panic!("sender dropped: a rank panicked");
            }
            q = mb.cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn recv_mesh(&mut self, src: usize) -> Msg {
        let mesh = self.shared.mesh.as_ref().expect("mesh mode");
        mesh.precheck(self.rank, &mut self.mesh_ops);
        mesh.recv_wait(self.rank, src, || self.try_pop(src))
    }

    fn recv_sequential(&self, src: usize) -> Msg {
        let sched = self.shared.sched.as_ref().expect("sequential mode");
        loop {
            // Only this rank runs right now, so pop-then-block is race-free.
            if let Some(m) = self.try_pop(src) {
                return m;
            }
            if sched.sender_done(src) {
                panic!("sender dropped: a rank panicked");
            }
            sched.block_on_recv(self.rank, src);
        }
    }
}

/// Marks the rank finished (normally or by panic) and wakes every peer that
/// could be waiting on it — the mailbox/scheduler analogue of dropping the
/// rank's channel endpoints.
struct RankGuard {
    shared: Arc<Shared>,
    rank: usize,
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        let panicking = std::thread::panicking();
        if panicking {
            self.shared.poisoned.store(true, Ordering::SeqCst);
        }
        self.shared.done[self.rank].store(true, Ordering::SeqCst);
        match &self.shared.sched {
            Some(sched) => sched.done(self.rank, panicking),
            None => {
                for mb in &self.shared.mail {
                    mb.cv.notify_all();
                }
            }
        }
    }
}

/// Factory for SPMD runs.
pub struct Universe;

/// Everything a run produces: per-rank results (in rank order) plus the
/// volume ledger snapshot.
pub struct RunOutput<R> {
    /// Closure results, indexed by rank.
    pub results: Vec<R>,
    /// Bytes moved between distinct ranks during the run.
    pub volume: VolumeReport,
}

/// Stack size of a rank thread in **sequential** universes, where thousands
/// of rank threads coexist: the engine's rank bodies keep bulk data on the
/// heap, so a small stack keeps a P = 8192 universe cheap. Free-running
/// (measured) universes keep the platform's default stack — arbitrary user
/// closures must not inherit a shrunken stack.
const SEQ_RANK_STACK_BYTES: usize = 192 * 1024;

impl Universe {
    /// Run `f` on `nranks` simulated ranks (free-running threads, no network
    /// model) and wait for all of them.
    ///
    /// The closure is the SPMD program: it receives this rank's [`RankCtx`]
    /// and may communicate with peers through it. A panic on any rank
    /// propagates and fails the run.
    ///
    /// # Panics
    /// Panics if `nranks == 0` or if any rank panics.
    pub fn run<R, F>(nranks: usize, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        Self::run_cfg(nranks, &UniverseCfg::default(), f)
    }

    /// [`Universe::run`] with an explicit [`UniverseCfg`] (sequential
    /// scheduling and/or a virtual-time network model).
    ///
    /// # Panics
    /// Panics if `nranks == 0` or if any rank panics.
    pub fn run_cfg<R, F>(nranks: usize, cfg: &UniverseCfg, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        assert!(nranks > 0, "need at least one rank");
        let shared = Arc::new(Shared {
            mail: (0..nranks).map(|_| Mailbox::default()).collect(),
            ledger: VolumeLedger::default(),
            done: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
            poisoned: AtomicBool::new(false),
            barrier: Barrier::new(nranks),
            sched: cfg.sequential.then(|| SeqSched::new(nranks)),
            net: cfg.net,
            mesh: None,
        });

        let results: Vec<R> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nranks)
                .map(|rank| {
                    let f = &f;
                    let shared = Arc::clone(&shared);
                    let mut builder = std::thread::Builder::new().name(format!("rank{rank}"));
                    if cfg.sequential {
                        builder = builder.stack_size(SEQ_RANK_STACK_BYTES);
                    }
                    builder
                        .spawn_scoped(s, move || {
                            let guard = RankGuard {
                                shared: Arc::clone(&shared),
                                rank,
                            };
                            if let Some(sched) = &guard.shared.sched {
                                sched.threads[rank]
                                    .set(std::thread::current())
                                    .expect("rank registers its thread once");
                                sched.wait_turn(rank);
                            }
                            let mut ctx = RankCtx {
                                rank,
                                nranks,
                                shared: Arc::clone(&guard.shared),
                                timers: CommTimers::default(),
                                vtimers: CommTimers::default(),
                                mesh_ops: 0,
                            };
                            f(&mut ctx)
                        })
                        .expect("spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // Re-raise with the original payload so `should_panic`
                    // expectations and error messages survive the thread hop.
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        });

        RunOutput {
            results,
            volume: shared.ledger.report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = Universe::run(1, |ctx| ctx.rank() * 10);
        assert_eq!(out.results, vec![0]);
        assert_eq!(out.volume.total_bytes(), 0);
    }

    #[test]
    fn results_in_rank_order() {
        let out = Universe::run(8, |ctx| ctx.rank());
        assert_eq!(out.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ring_send_recv() {
        let p = 5;
        let out = Universe::run(p, |ctx| {
            let next = (ctx.rank() + 1) % p;
            let prev = (ctx.rank() + p - 1) % p;
            ctx.send(next, 7, vec![ctx.rank() as f64], VolumeCategory::Other);
            let got = ctx.recv(prev, 7, VolumeCategory::Other);
            got[0] as usize
        });
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
        // p messages of 1 f64 each, none self-sends.
        assert_eq!(out.volume.total_bytes(), (p * 8) as u64);
    }

    #[test]
    fn self_send_costs_nothing() {
        let out = Universe::run(2, |ctx| {
            let me = ctx.rank();
            ctx.send(me, 1, vec![1.0, 2.0], VolumeCategory::Other);
            ctx.recv(me, 1, VolumeCategory::Other)
        });
        assert_eq!(out.results[0], vec![1.0, 2.0]);
        assert_eq!(out.volume.total_bytes(), 0);
    }

    #[test]
    fn volume_categories_are_separate() {
        let out = Universe::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![0.0; 4], VolumeCategory::Regrid);
                ctx.send(1, 2, vec![0.0; 2], VolumeCategory::TtmReduceScatter);
            } else {
                ctx.recv(0, 1, VolumeCategory::Regrid);
                ctx.recv(0, 2, VolumeCategory::TtmReduceScatter);
            }
        });
        assert_eq!(out.volume.bytes(VolumeCategory::Regrid), 32);
        assert_eq!(out.volume.bytes(VolumeCategory::TtmReduceScatter), 16);
        assert_eq!(out.volume.bytes(VolumeCategory::Gram), 0);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Universe::run(4, |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every increment must be visible.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn fifo_order_per_pair() {
        let out = Universe::run(2, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..10 {
                    ctx.send(1, i, vec![i as f64], VolumeCategory::Other);
                }
                vec![]
            } else {
                (0..10)
                    .map(|i| ctx.recv(0, i, VolumeCategory::Other)[0])
                    .collect::<Vec<f64>>()
            }
        });
        assert_eq!(
            out.results[1],
            (0..10).map(|i| i as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn report_since_subtracts() {
        let a = VolumeReport {
            bytes: [10, 20, 30, 40],
        };
        let b = VolumeReport {
            bytes: [15, 20, 31, 40],
        };
        let d = b.since(&a);
        assert_eq!(d.bytes(VolumeCategory::TtmReduceScatter), 5);
        assert_eq!(d.bytes(VolumeCategory::Gram), 1);
        assert_eq!(d.total_bytes(), 6);
    }

    // -------------------------------------------------- sequential scheduler

    fn seq() -> UniverseCfg {
        UniverseCfg {
            sequential: true,
            net: None,
        }
    }

    #[test]
    fn sequential_ring_matches_threaded() {
        let p = 7;
        let out = Universe::run_cfg(p, &seq(), |ctx| {
            let next = (ctx.rank() + 1) % p;
            let prev = (ctx.rank() + p - 1) % p;
            ctx.send(next, 7, vec![ctx.rank() as f64], VolumeCategory::Other);
            let got = ctx.recv(prev, 7, VolumeCategory::Other);
            got[0] as usize
        });
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
        assert_eq!(out.volume.total_bytes(), (p * 8) as u64);
    }

    #[test]
    fn sequential_barrier_and_results() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let out = Universe::run_cfg(6, &seq(), |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            assert_eq!(counter.load(Ordering::SeqCst), 6);
            ctx.rank() * 2
        });
        assert_eq!(out.results, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn sequential_is_deterministic() {
        // Same program, twice: identical results and ledger.
        let run = || {
            Universe::run_cfg(9, &seq(), |ctx| {
                let me = ctx.rank();
                let peer = (me * 5 + 3) % 9;
                ctx.send(peer, 1, vec![me as f64; me % 3 + 1], VolumeCategory::Other);
                let mut sum = 0.0;
                for src in 0..9 {
                    if (src * 5 + 3) % 9 == me {
                        sum += ctx.recv(src, 1, VolumeCategory::Other).iter().sum::<f64>();
                    }
                }
                sum
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.volume, b.volume);
    }

    #[test]
    #[should_panic(expected = "deliberate sequential failure")]
    fn sequential_panic_propagates() {
        Universe::run_cfg(4, &seq(), |ctx| {
            if ctx.rank() == 3 {
                panic!("deliberate sequential failure");
            }
            ctx.rank()
        });
    }

    #[test]
    #[should_panic(expected = "deadlock in sequential scheduler")]
    fn sequential_detects_deadlock() {
        // 0 and 1 wait on each other without sending.
        Universe::run_cfg(2, &seq(), |ctx| {
            let peer = 1 - ctx.rank();
            let _ = ctx.recv(peer, 1, VolumeCategory::Other);
        });
    }

    #[test]
    fn sequential_scales_to_thousands_of_ranks() {
        // A ring exchange across 4096 ranks: impossible with a channel
        // matrix, routine with mailboxes + the round-robin scheduler.
        let p = 4096;
        let out = Universe::run_cfg(p, &seq(), |ctx| {
            let next = (ctx.rank() + 1) % p;
            let prev = (ctx.rank() + p - 1) % p;
            ctx.send(next, 9, vec![ctx.rank() as f64], VolumeCategory::Other);
            ctx.recv(prev, 9, VolumeCategory::Other)[0] as usize
        });
        assert_eq!(out.results.len(), p);
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
    }

    // --------------------------------------------------------- virtual time

    #[test]
    fn virtual_clock_charges_both_endpoints() {
        let net = NetModel::new(Duration::from_nanos(100), 1.0e9); // 1 ns/byte
        let cfg = UniverseCfg {
            sequential: true,
            net: Some(net),
        };
        let out = Universe::run_cfg(2, &cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![0.0; 4], VolumeCategory::Regrid);
            } else {
                ctx.recv(0, 1, VolumeCategory::Regrid);
            }
            ctx.vtimers.clone()
        });
        let expect = net.msg_ns(32);
        assert_eq!(
            out.results[0].time(VolumeCategory::Regrid).as_nanos() as u64,
            expect
        );
        assert_eq!(
            out.results[1].time(VolumeCategory::Regrid).as_nanos() as u64,
            expect
        );
        assert_eq!(out.results[0].time(VolumeCategory::Gram), Duration::ZERO);
    }

    #[test]
    fn virtual_clock_ignores_self_sends() {
        let cfg = UniverseCfg {
            sequential: false,
            net: Some(NetModel::bgq()),
        };
        let out = Universe::run_cfg(1, &cfg, |ctx| {
            ctx.send(0, 1, vec![1.0; 64], VolumeCategory::Other);
            let _ = ctx.recv(0, 1, VolumeCategory::Other);
            ctx.vtimers.total()
        });
        assert_eq!(out.results[0], Duration::ZERO);
    }

    #[test]
    fn measured_universe_has_zero_virtual_time() {
        let out = Universe::run(3, |ctx| {
            let next = (ctx.rank() + 1) % 3;
            ctx.send(next, 4, vec![1.0], VolumeCategory::Other);
            let _ = ctx.recv((ctx.rank() + 2) % 3, 4, VolumeCategory::Other);
            ctx.vtimers.total()
        });
        assert!(out.results.iter().all(|&d| d == Duration::ZERO));
    }
}
