//! `ModelDisk`: the benchmark's own [`Vfs`].
//!
//! It keeps the log in memory and charges every `fsync` a fixed latency by
//! spinning to a deadline, so `durable-commit` measures the engine's WAL and
//! commit pipeline against a known device instead of the sandbox's disk
//! (whose real fsync is reported only as a probe). It also remembers how
//! many bytes the last fsync covered, which is what a power cut would leave.

use rnt_wal::{Vfs, WalError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The modelled fsync latency of `durable-commit`, stated in the report.
pub const FSYNC_LATENCY: Duration = Duration::from_micros(100);

/// About three times what a 60 s run of `durable-commit` appends.
const LOG_CAPACITY: usize = 256 << 20;

#[derive(Default)]
struct File {
    exists: bool,
    bytes: Vec<u8>,
    /// Length covered by the last fsync (or atomic replace).
    synced: usize,
}

/// A one-file in-memory [`Vfs`] with a fixed fsync latency and I/O counters.
/// The path argument of every call is ignored: an engine opens one log.
#[derive(Default)]
pub struct ModelDisk {
    file: Mutex<File>,
    fsync_latency: Duration,
    bytes_appended: AtomicU64,
    fsyncs: AtomicU64,
}

/// I/O totals of a [`ModelDisk`].
#[derive(Clone, Copy, Default)]
pub struct DiskCounters {
    /// Bytes passed to `append`.
    pub bytes: u64,
    /// `fsync` calls.
    pub fsyncs: u64,
}

impl ModelDisk {
    /// An empty disk whose fsync takes `fsync_latency`. Address space for
    /// a whole run's log is reserved now (untouched, so not resident): a
    /// growing `Vec` would copy the log, under the file lock, every time it
    /// doubled.
    pub fn new(fsync_latency: Duration) -> Self {
        let disk = ModelDisk { fsync_latency, ..ModelDisk::default() };
        disk.lock().bytes.reserve_exact(LOG_CAPACITY);
        disk
    }

    /// A disk holding `bytes`, all of them durable, with free fsyncs.
    pub fn holding(bytes: Vec<u8>) -> Self {
        let disk = ModelDisk::default();
        *disk.lock() = File { exists: true, synced: bytes.len(), bytes };
        disk
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, File> {
        self.file.lock().expect("no holder of the file lock panics")
    }

    /// The bytes a crash right now would leave: the prefix the last fsync
    /// covered.
    pub fn durable_image(&self) -> Vec<u8> {
        let file = self.lock();
        file.bytes[..file.synced].to_vec()
    }

    /// I/O totals so far.
    pub fn counters(&self) -> DiskCounters {
        DiskCounters {
            bytes: self.bytes_appended.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }
}

impl Vfs for ModelDisk {
    fn append(&self, _path: &str, data: &[u8]) -> Result<(), WalError> {
        let mut file = self.lock();
        file.exists = true;
        file.bytes.extend_from_slice(data);
        drop(file);
        self.bytes_appended.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn fsync(&self, _path: &str) -> Result<(), WalError> {
        let deadline = Instant::now() + self.fsync_latency;
        {
            let mut file = self.lock();
            file.synced = file.bytes.len();
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        // Spin, not sleep: a sleep's wake-up jitter on a small host is
        // larger than the latency being modelled.
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, WalError> {
        let file = self.lock();
        if !file.exists {
            return Err(WalError::Io { op: "read", detail: format!("{path}: not found") });
        }
        Ok(file.bytes.clone())
    }

    fn replace(&self, _path: &str, data: &[u8]) -> Result<(), WalError> {
        let mut file = self.lock();
        file.exists = true;
        file.bytes.clear();
        file.bytes.extend_from_slice(data);
        file.synced = data.len();
        Ok(())
    }

    fn exists(&self, _path: &str) -> bool {
        self.lock().exists
    }
}
