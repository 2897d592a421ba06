//! The IPC Manager: connection handshake, queue-pair registry, and the
//! runtime-liveness signal used by crash recovery.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::credentials::Credentials;
use crate::doorbell::Doorbell;
use crate::queue_pair::{QueueFlags, QueuePair};

/// The next client domain id. One counter per process, not per manager:
/// the buffer pool is one process-wide arena whose slots remember the
/// domain that wrote them (`BufferPool::alloc_for`), so two Runtimes in
/// one process must never give two clients the same id. 0 is the Runtime.
static NEXT_DOMAIN: AtomicU32 = AtomicU32::new(1);

/// A client's connection to the Runtime: its domain id (address space) and
/// the queue pairs allocated for it during the handshake.
pub struct ClientConnection<T> {
    /// Domain (address-space) id assigned by the manager, unique in the
    /// process. Domain 0 is the Runtime itself.
    pub domain: u32,
    /// Credentials presented over the (simulated) UNIX domain socket.
    pub creds: Credentials,
    /// Primary queue pairs allocated for this client.
    pub queues: Vec<Arc<QueuePair<T>>>,
    /// Completion doorbell: registered on every queue's CQ at connect
    /// time, rung by workers posting completions. `Client::wait` parks on
    /// it instead of spinning.
    pub bell: Arc<Doorbell>,
}

/// The Runtime's IPC manager.
///
/// Tracks every queue pair (the Work Orchestrator iterates them), assigns
/// domain ids, and exposes the liveness flag that client-side `wait`
/// operations poll to detect a crashed Runtime (paper §III-C3).
pub struct IpcManager<T> {
    qps: RwLock<Vec<Arc<QueuePair<T>>>>,
    connections: RwLock<Vec<(u32, Credentials)>>,
    next_qid: AtomicU64,
    online: AtomicBool,
    /// Rung on every liveness transition so `wait_online` can park
    /// instead of yield-spinning.
    liveness: Doorbell,
    /// Depth of each allocated queue.
    depth: usize,
}

impl<T> IpcManager<T> {
    /// Create a manager whose queues hold `depth` in-flight requests each.
    pub fn new(depth: usize) -> Arc<Self> {
        Arc::new(IpcManager {
            qps: RwLock::new(Vec::new()),
            connections: RwLock::new(Vec::new()),
            next_qid: AtomicU64::new(0),
            online: AtomicBool::new(true),
            liveness: Doorbell::new(),
            depth,
        })
    }

    /// Handshake: register a client and allocate `n_queues` primary
    /// ordered queue pairs for it — the only place a served queue is made.
    ///
    /// Each direction is a zero-CAS SPSC ring: the queue has exactly one
    /// producer (this client connection) and one consumer (the single
    /// worker the orchestrator assigns it to — reassignment goes through
    /// the drain-and-handoff protocol in `Runtime::rebalance`, so the
    /// contract holds across moves).
    pub fn connect(&self, creds: Credentials, n_queues: usize) -> ClientConnection<T> {
        let domain = NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
        let queues: Vec<_> = (0..n_queues.max(1))
            .map(|_| {
                let id = self.next_qid.fetch_add(1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
                let qp = Arc::new(QueuePair::new(id, self.depth, QueueFlags::default()));
                self.qps.write().push(qp.clone()); // lock-class: ipc.qps
                qp
            })
            .collect();
        self.connections.write().push((domain, creds)); // lock-class: ipc.conns
                                                        // One completion bell per connection, registered before the client
                                                        // can submit: workers ring it as they post completions.
        let bell = Arc::new(Doorbell::new());
        for q in &queues {
            q.register_cq_bell(&bell);
        }
        ClientConnection {
            domain,
            creds,
            queues,
            bell,
        }
    }

    /// All primary queues (the upgrade protocol and orchestrator operate
    /// on these).
    pub fn primary_queues(&self) -> Vec<Arc<QueuePair<T>>> {
        self.qps.read().clone() // lock-class: ipc.qps
    }

    /// Connected clients (domain, credentials).
    pub fn connections(&self) -> Vec<(u32, Credentials)> {
        self.connections.read().clone() // lock-class: ipc.conns
    }

    // ---- runtime liveness (crash recovery) --------------------------------

    /// True while the Runtime is serving requests.
    pub fn is_online(&self) -> bool {
        self.online.load(Ordering::Acquire)
    }

    /// Mark the Runtime crashed/offline. Client `wait` loops notice.
    pub fn set_offline(&self) {
        self.online.store(false, Ordering::Release);
        self.liveness.ring();
    }

    /// Mark the Runtime restarted.
    pub fn set_online(&self) {
        self.online.store(true, Ordering::Release);
        self.liveness.ring();
    }

    /// Block until the Runtime is online or `timeout` expires. Returns
    /// whether it came back. This is the client half of the paper's
    /// `Wait` crash-detection: "wait for it to be restarted by the
    /// administrator (for a configurable period of time)".
    pub fn wait_online(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Capture-before-check: a transition after this capture makes
            // the park below return immediately (doorbell protocol).
            let epoch = self.liveness.epoch();
            if self.is_online() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.liveness.wait_past(epoch, deadline - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_allocates_domains_and_queues() {
        let m: Arc<IpcManager<u32>> = IpcManager::new(8);
        let a = m.connect(Credentials::new(1, 100, 100), 2);
        let b = m.connect(Credentials::new(2, 100, 100), 1);
        assert_ne!(a.domain, b.domain);
        assert_eq!(a.queues.len(), 2);
        assert_eq!(m.primary_queues().len(), 3);
        assert_eq!(m.connections().len(), 2);
    }

    #[test]
    fn liveness_toggle_and_wait() {
        let m: Arc<IpcManager<u32>> = IpcManager::new(1);
        assert!(m.is_online());
        m.set_offline();
        assert!(!m.wait_online(Duration::from_millis(10)));
        let m2 = m.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            m2.set_online();
        });
        assert!(m.wait_online(Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn queue_flow_through_manager() {
        let m: Arc<IpcManager<&'static str>> = IpcManager::new(4);
        let conn = m.connect(Credentials::new(1, 0, 0), 1);
        conn.queues[0].submit("hello", 0, conn.domain).unwrap();
        // The Runtime (domain 0) consumes.
        let mut ctx = labstor_sim::Ctx::new();
        let env = conn.queues[0].consume(&mut ctx, 0).unwrap();
        assert_eq!(env.payload, "hello");
    }
}
