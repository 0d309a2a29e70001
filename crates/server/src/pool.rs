//! A bounded worker pool for the TCP front end.
//!
//! The seed transport spawned one unbounded thread per accepted
//! connection, so a connection flood translated directly into thread
//! exhaustion — the availability failure §2.1 warns about. The pool caps
//! concurrent workers: admission is an explicit [`WorkerPool::try_acquire`]
//! that either returns a [`WorkerPermit`] or tells the caller to shed load
//! *before* any thread is created. Every spawned worker's [`JoinHandle`]
//! is retained so shutdown can drain and join them instead of leaking.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

/// Why the pool refused to run a job.
#[derive(Debug)]
pub enum PoolRejected {
    /// Every worker slot is occupied; shed load.
    Full,
    /// The OS refused to create a thread.
    Spawn(std::io::Error),
}

impl std::fmt::Display for PoolRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolRejected::Full => f.write_str("worker pool is at capacity"),
            PoolRejected::Spawn(e) => write!(f, "could not spawn worker thread: {e}"),
        }
    }
}

impl std::error::Error for PoolRejected {}

#[derive(Default)]
struct PoolState {
    active: usize,
    handles: Vec<JoinHandle<()>>,
}

/// A bounded pool of worker threads.
pub struct WorkerPool {
    max_workers: usize,
    state: Arc<Mutex<PoolState>>,
}

/// An occupied worker slot. Dropping the permit releases the slot, so a
/// worker that panics still frees capacity.
pub struct WorkerPermit {
    state: Arc<Mutex<PoolState>>,
}

impl Drop for WorkerPermit {
    fn drop(&mut self) {
        let mut st = self.state.lock();
        st.active = st.active.saturating_sub(1);
    }
}

impl WorkerPool {
    /// A pool running at most `max_workers` jobs concurrently (clamped to
    /// at least one).
    pub fn new(max_workers: usize) -> Self {
        WorkerPool { max_workers: max_workers.max(1), state: Arc::default() }
    }

    /// The configured concurrency bound.
    pub fn max_workers(&self) -> usize {
        self.max_workers
    }

    /// Workers currently holding a slot.
    pub fn active(&self) -> usize {
        self.state.lock().active
    }

    /// Claim a worker slot, or `None` when the pool is saturated.
    pub fn try_acquire(&self) -> Option<WorkerPermit> {
        let mut st = self.state.lock();
        if st.active >= self.max_workers {
            return None;
        }
        st.active += 1;
        Some(WorkerPermit { state: Arc::clone(&self.state) })
    }

    /// Run `f` on a new worker thread holding `permit`. The permit is
    /// released when `f` returns (or panics); the join handle is retained
    /// for [`WorkerPool::join_deadline`].
    pub fn spawn(
        &self,
        permit: WorkerPermit,
        f: impl FnOnce() + Send + 'static,
    ) -> Result<(), PoolRejected> {
        let spawned =
            std::thread::Builder::new().name("softrep-tcp-worker".to_string()).spawn(move || {
                let _slot = permit;
                f();
            });
        match spawned {
            Ok(handle) => {
                let mut st = self.state.lock();
                st.handles.push(handle);
                // Opportunistically shed finished handles so the vec stays
                // bounded by the concurrency cap plus recent churn.
                let finished = take_finished(&mut st);
                drop(st);
                join_all(finished);
                Ok(())
            }
            Err(e) => Err(PoolRejected::Spawn(e)),
        }
    }

    /// Acquire-and-spawn in one step.
    pub fn try_spawn(&self, f: impl FnOnce() + Send + 'static) -> Result<(), PoolRejected> {
        let permit = self.try_acquire().ok_or(PoolRejected::Full)?;
        self.spawn(permit, f)
    }

    /// Join every worker, waiting up to `deadline` for stragglers. Returns
    /// `true` when all workers finished and were joined; `false` when the
    /// deadline passed with workers still running (their handles are kept,
    /// so a later call can finish the join).
    pub fn join_deadline(&self, deadline: Duration) -> bool {
        let step = Duration::from_millis(2);
        let mut waited = Duration::ZERO;
        loop {
            let (finished, pending) = {
                let mut st = self.state.lock();
                let finished = take_finished(&mut st);
                (finished, st.handles.len())
            };
            join_all(finished);
            if pending == 0 {
                return true;
            }
            if waited >= deadline {
                return false;
            }
            let nap = step.min(deadline - waited);
            std::thread::sleep(nap);
            waited += nap;
        }
    }
}

/// A bounded pool of *persistent* worker threads consuming typed jobs
/// from a queue — the execution half of the reactor front end.
///
/// [`WorkerPool`] above is admission control for thread-per-connection
/// serving: one thread per accepted connection, created on demand. The
/// reactor inverts that: connections are cheap state machines on one
/// event loop, which answers the single-key queries itself, and only the
/// expensive requests need threads: password stretching, writes that
/// may wait for an fsync, RSA, replication reads. Those must not stall
/// the loop, and spawning a thread per request would add its cost to
/// each, so `DispatchPool` keeps `workers` threads alive for the
/// server's lifetime and feeds them through a queue. The queue is
/// unbounded here but bounded in practice: the reactor dispatches at most
/// one in-flight request per connection, so queue depth ≤ open
/// connections ≤ `max_open_connections`.
///
/// Jobs are a concrete type `T`, not boxed closures, so steady-state
/// submission allocates nothing (the `VecDeque` ring amortizes).
pub struct DispatchPool<T: Send + 'static> {
    inner: Arc<DispatchShared<T>>,
    workers: Vec<JoinHandle<()>>,
}

struct DispatchShared<T> {
    queue: std::sync::Mutex<DispatchQueue<T>>,
    available: std::sync::Condvar,
}

struct DispatchQueue<T> {
    jobs: std::collections::VecDeque<T>,
    shutdown: bool,
}

/// Lock a std mutex without the poison panic: a worker that panicked has
/// already been isolated by `catch_unwind`, and counters/queues stay
/// usable either way.
fn lock_queue<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl<T: Send + 'static> DispatchPool<T> {
    /// Start `workers` named threads (clamped to at least one) running
    /// `run` on every submitted job.
    pub fn new(
        workers: usize,
        name: &str,
        run: impl Fn(T) + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        let inner = Arc::new(DispatchShared {
            queue: std::sync::Mutex::new(DispatchQueue {
                jobs: std::collections::VecDeque::new(),
                shutdown: false,
            }),
            available: std::sync::Condvar::new(),
        });
        let run: Arc<dyn Fn(T) + Send + Sync> = Arc::new(run);
        let mut handles = Vec::new();
        for i in 0..workers.max(1) {
            let shared = Arc::clone(&inner);
            let run = Arc::clone(&run);
            let handle =
                std::thread::Builder::new().name(format!("{name}-{i}")).spawn(move || loop {
                    let job = {
                        let mut q = lock_queue(&shared.queue);
                        loop {
                            if let Some(job) = q.jobs.pop_front() {
                                break Some(job);
                            }
                            if q.shutdown {
                                break None;
                            }
                            q = match shared.available.wait(q) {
                                Ok(guard) => guard,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                        }
                    };
                    match job {
                        // A panicking handler loses its job, never the
                        // worker: capacity survives the panic.
                        Some(job) => {
                            let _ =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(job)));
                        }
                        None => return,
                    }
                })?;
            handles.push(handle);
        }
        Ok(DispatchPool { inner, workers: handles })
    }

    /// Queue a job. Returns `false` (dropping the job) once shutdown has
    /// begun.
    pub fn submit(&self, job: T) -> bool {
        {
            let mut q = lock_queue(&self.inner.queue);
            if q.shutdown {
                return false;
            }
            q.jobs.push_back(job);
        }
        self.inner.available.notify_one();
        true
    }

    /// Jobs waiting for a worker (excludes jobs currently executing).
    pub fn queued(&self) -> usize {
        lock_queue(&self.inner.queue).jobs.len()
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stop accepting jobs, let the workers drain what is already queued,
    /// and join them.
    pub fn shutdown(mut self) {
        {
            let mut q = lock_queue(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pull the finished handles out of the state (joined outside the lock).
fn take_finished(st: &mut PoolState) -> Vec<JoinHandle<()>> {
    let mut finished = Vec::new();
    let mut pending = Vec::new();
    for handle in st.handles.drain(..) {
        if handle.is_finished() {
            finished.push(handle);
        } else {
            pending.push(handle);
        }
    }
    st.handles = pending;
    finished
}

fn join_all(handles: Vec<JoinHandle<()>>) {
    for handle in handles {
        // A worker that panicked already released its permit via Drop;
        // there is nothing further to propagate.
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn capacity_is_enforced_and_slots_are_reusable() {
        let pool = WorkerPool::new(2);
        let a = pool.try_acquire().expect("slot 1");
        let _b = pool.try_acquire().expect("slot 2");
        assert!(pool.try_acquire().is_none(), "third acquire must fail");
        assert_eq!(pool.active(), 2);
        drop(a);
        assert_eq!(pool.active(), 1);
        assert!(pool.try_acquire().is_some(), "released slot is reusable");
    }

    #[test]
    fn try_spawn_runs_jobs_and_releases_slots() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.try_spawn(move || tx.send(42u32).expect("send")).expect("spawn");
        assert_eq!(rx.recv().expect("worker ran"), 42);
        assert!(pool.join_deadline(Duration::from_secs(5)), "worker joins");
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn saturated_pool_rejects_with_full() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel();
        pool.try_spawn(move || {
            started_tx.send(()).expect("signal start");
            let _ = rx.recv(); // hold the slot until the test releases it
        })
        .expect("first spawn");
        started_rx.recv().expect("worker started");
        assert!(matches!(pool.try_spawn(|| {}), Err(PoolRejected::Full)));
        drop(tx);
        assert!(pool.join_deadline(Duration::from_secs(5)));
    }

    #[test]
    fn join_deadline_gives_up_on_stragglers_then_finishes_later() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel::<()>();
        pool.try_spawn(move || {
            let _ = rx.recv();
        })
        .expect("spawn");
        assert!(!pool.join_deadline(Duration::from_millis(20)), "worker still blocked");
        drop(tx); // unblock
        assert!(pool.join_deadline(Duration::from_secs(5)), "worker joins after unblock");
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn permit_released_even_when_worker_panics() {
        let pool = WorkerPool::new(1);
        pool.try_spawn(|| panic!("worker exploded")).expect("spawn");
        assert!(pool.join_deadline(Duration::from_secs(5)));
        assert_eq!(pool.active(), 0, "panicking worker must release its slot");
        assert!(pool.try_acquire().is_some());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.max_workers(), 1);
        assert!(pool.try_acquire().is_some());
    }

    #[test]
    fn dispatch_pool_runs_jobs_on_persistent_workers() {
        let (tx, rx) = mpsc::channel();
        let pool = DispatchPool::new(2, "test-dispatch", move |n: u32| {
            tx.send(n * 2).expect("send");
        })
        .expect("spawn");
        assert_eq!(pool.workers(), 2);
        for n in 0..20 {
            assert!(pool.submit(n));
        }
        let mut out: Vec<u32> = (0..20).map(|_| rx.recv().expect("job ran")).collect();
        out.sort_unstable();
        assert_eq!(out, (0..20).map(|n| n * 2).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn dispatch_pool_shutdown_drains_queued_jobs_then_rejects() {
        let (tx, rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let pool = DispatchPool::new(1, "test-drain", move |n: u32| {
            let _ = gate_rx.lock().recv();
            tx.send(n).expect("send");
        })
        .expect("spawn");
        // One executing (blocked on the gate), two queued behind it.
        for n in 0..3 {
            assert!(pool.submit(n));
            gate_tx.send(()).expect("open gate"); // one open per job
        }
        pool.shutdown();
        // All three queued jobs ran before the workers exited.
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn dispatch_pool_survives_a_panicking_job() {
        let (tx, rx) = mpsc::channel();
        let pool = DispatchPool::new(1, "test-panic", move |n: u32| {
            if n == 0 {
                panic!("job exploded");
            }
            tx.send(n).expect("send");
        })
        .expect("spawn");
        assert!(pool.submit(0));
        assert!(pool.submit(7));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).expect("worker survived"), 7);
        pool.shutdown();
    }

    #[test]
    fn dispatch_pool_zero_workers_clamps_to_one() {
        let pool = DispatchPool::new(0, "test-clamp", |_: ()| {}).expect("spawn");
        assert_eq!(pool.workers(), 1);
        pool.shutdown();
    }
}
