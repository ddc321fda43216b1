//! Test support shared by the engine's integration suites: a disk the
//! test can stall, so that commits are caught inside a parked force, and
//! overlap it, without any timing window.
//!
//! Each suite compiles this module on its own and uses part of it.
#![allow(dead_code)]

use rnt_wal::{MemVfs, Vfs, WalError};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A [`MemVfs`] the test can stall — a slow disk it controls. Fsyncs
/// park while the disk is closed, unless let through one by one by
/// arrival ticket; appends park while held. It counts the appends that
/// land and their bytes. Everything else passes straight through,
/// including the armed faults of the inner `MemVfs`.
pub struct GateVfs {
    pub mem: MemVfs,
    gate: Mutex<Gate>,
    cv: Condvar,
    appends: AtomicU64,
    bytes: AtomicU64,
}

#[derive(Default)]
struct Gate {
    /// Whether fsyncs must wait.
    closed: bool,
    /// Fsyncs parked now; fsyncs ever arrived (an fsync's ticket is the
    /// count before it); fsyncs returned from the inner `MemVfs`.
    parked: usize,
    arrived: u64,
    returned: u64,
    /// Tickets let through a closed disk.
    released: Vec<u64>,
    /// Whether appends must wait; appends parked now.
    appends_held: bool,
    appends_parked: usize,
}

impl GateVfs {
    /// A closed disk: every fsync parks until it is opened or released.
    pub fn closed() -> Arc<Self> {
        Arc::new(GateVfs {
            mem: MemVfs::new(),
            gate: Mutex::new(Gate { closed: true, ..Gate::default() }),
            cv: Condvar::new(),
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// `(appends, bytes)` landed so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.appends.load(SeqCst), self.bytes.load(SeqCst))
    }

    /// Wait (bounded) until `done` holds; false on timeout, so the caller
    /// can open the disk before failing.
    fn reaches(&self, done: impl Fn(&Gate) -> bool) -> bool {
        let guard = self.gate.lock().unwrap();
        let (_guard, timeout) = self.cv.wait_timeout_while(guard, PATIENCE, |g| !done(g)).unwrap();
        !timeout.timed_out()
    }

    /// Wait until `n` fsyncs are parked inside the Vfs at once.
    pub fn parks(&self, n: usize) -> bool {
        self.reaches(|g| g.parked >= n)
    }

    /// Block until an fsync is parked inside the Vfs.
    pub fn wait_parked(&self) {
        assert!(self.parks(1), "no fsync reached the disk");
    }

    /// Block until an append is parked inside the Vfs.
    pub fn wait_append_parked(&self) {
        assert!(self.reaches(|g| g.appends_parked > 0), "no append reached the disk");
    }

    /// Block until `n` fsyncs have returned from the inner `MemVfs`.
    pub fn wait_returned(&self, n: u64) {
        assert!(self.reaches(|g| g.returned >= n), "a released fsync never returned");
    }

    fn update(&self, change: impl FnOnce(&mut Gate)) {
        change(&mut self.gate.lock().unwrap());
        self.cv.notify_all();
    }

    /// Open the disk: nothing parks any more.
    pub fn open(&self) {
        self.update(|g| (g.closed, g.appends_held) = (false, false));
    }

    /// Close the disk: fsyncs park again.
    pub fn close(&self) {
        self.update(|g| g.closed = true);
    }

    /// The ticket the next fsync to arrive will get.
    pub fn next_ticket(&self) -> u64 {
        self.gate.lock().unwrap().arrived
    }

    /// Let the fsync with arrival ticket `ticket` through a closed disk.
    pub fn release(&self, ticket: u64) {
        self.update(|g| g.released.push(ticket));
    }

    /// Park every append from now on, until the disk opens.
    pub fn hold_appends(&self) {
        self.update(|g| g.appends_held = true);
    }

    /// Let appends through again, fsyncs staying as they are.
    pub fn release_appends(&self) {
        self.update(|g| g.appends_held = false);
    }
}

impl Vfs for GateVfs {
    fn append(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        let mut gate = self.gate.lock().unwrap();
        gate.appends_parked += 1;
        self.cv.notify_all();
        gate = self.cv.wait_while(gate, |g| g.appends_held).unwrap();
        gate.appends_parked -= 1;
        drop(gate);
        self.mem.append(path, data)?;
        self.appends.fetch_add(1, SeqCst);
        self.bytes.fetch_add(data.len() as u64, SeqCst);
        Ok(())
    }
    fn fsync(&self, path: &str) -> Result<(), WalError> {
        let mut gate = self.gate.lock().unwrap();
        let ticket = gate.arrived;
        gate.arrived += 1;
        gate.parked += 1;
        self.cv.notify_all();
        gate = self.cv.wait_while(gate, |g| g.closed && !g.released.contains(&ticket)).unwrap();
        gate.parked -= 1;
        drop(gate);
        let out = self.mem.fsync(path);
        self.update(|g| g.returned += 1);
        out
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

/// How long a test waits for something that must happen before it calls
/// it a hang.
pub const PATIENCE: Duration = Duration::from_secs(20);
