//! Test support shared by the chaos suites: disks whose forces are slow
//! or parked, so that commits queue behind a force and group-commit
//! batches form without any timing window.
//!
//! Each suite compiles this module on its own and uses part of it.
#![allow(dead_code)]

use rnt_wal::{MemVfs, Vfs, WalError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The engine suites' parkable disk, `GateVfs`, shared rather than
/// copied.
#[path = "../../../core/tests/common/mod.rs"]
pub mod gate;

/// A [`MemVfs`] whose fsync takes `latency` (a sleep, so the other
/// threads run even on one core). Each fsync covers the bytes appended
/// before it began, and publishes that length as durable when it
/// returns. It counts the forces in flight at once, the appends that
/// arrive while one is, and the engine calls that start and finish
/// inside one force ([`SlowVfs::inside`]).
pub struct SlowVfs {
    pub mem: MemVfs,
    latency: Duration,
    /// Forces in flight now, and the most ever at once.
    pub forcing: AtomicU64,
    pub most_forcing: AtomicU64,
    /// Forces started so far: tells one force from the next.
    pub forces: AtomicU64,
    /// The longest log prefix a returned force covered.
    pub durable: AtomicU64,
    pub appends_during_force: AtomicU64,
    pub calls_during_force: AtomicU64,
}

impl SlowVfs {
    pub fn new(latency: Duration) -> Self {
        SlowVfs {
            mem: MemVfs::new(),
            latency,
            forcing: AtomicU64::new(0),
            most_forcing: AtomicU64::new(0),
            forces: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            appends_during_force: AtomicU64::new(0),
            calls_during_force: AtomicU64::new(0),
        }
    }

    /// Run `call`, counting it if forces were in flight from before it
    /// began until after it returned, with none starting meanwhile —
    /// which could not be, were the force holding a lock `call` needs.
    pub fn inside<R>(&self, call: impl FnOnce() -> R) -> R {
        let during = || {
            (self.forcing.load(Ordering::SeqCst) > 0).then(|| self.forces.load(Ordering::SeqCst))
        };
        let before = during();
        let out = call();
        if before.is_some() && during() == before {
            self.calls_during_force.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl Vfs for SlowVfs {
    fn append(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        if self.forcing.load(Ordering::SeqCst) > 0 {
            self.appends_during_force.fetch_add(1, Ordering::Relaxed);
        }
        self.mem.append(path, data)
    }
    fn fsync(&self, path: &str) -> Result<(), WalError> {
        let covers = self.mem.snapshot(path).len() as u64;
        self.forces.fetch_add(1, Ordering::SeqCst);
        let now = self.forcing.fetch_add(1, Ordering::SeqCst) + 1;
        self.most_forcing.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(self.latency);
        self.forcing.fetch_sub(1, Ordering::SeqCst);
        self.mem.fsync(path)?;
        self.durable.fetch_max(covers, Ordering::SeqCst);
        Ok(())
    }
    fn read(&self, path: &str) -> Result<Vec<u8>, WalError> {
        self.mem.read(path)
    }
    fn replace(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        self.mem.replace(path, data)
    }
    fn exists(&self, path: &str) -> bool {
        self.mem.exists(path)
    }
}
