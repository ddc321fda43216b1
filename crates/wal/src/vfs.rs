//! The virtual filesystem the log talks through: a real-file impl and an
//! in-memory fault-injecting impl the chaos harness drives.

use crate::error::WalError;
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The I/O surface a write-ahead log needs. Deliberately tiny: append,
/// fsync, whole-file read, and an atomic replace for checkpoint rewrites.
pub trait Vfs: Send + Sync {
    /// Append `data` to the file at `path`, creating it if absent.
    fn append(&self, path: &str, data: &[u8]) -> Result<(), WalError>;
    /// Durably flush previous appends to `path`.
    fn fsync(&self, path: &str) -> Result<(), WalError>;
    /// Read the entire file.
    fn read(&self, path: &str) -> Result<Vec<u8>, WalError>;
    /// Read the file from byte `offset` to its end (empty past the end).
    fn read_from(&self, path: &str, offset: usize) -> Result<Vec<u8>, WalError> {
        Ok(self.read(path)?.get(offset..).unwrap_or_default().to_vec())
    }
    /// Atomically and durably replace the file's contents (checkpoint
    /// rewrite): after a crash the file holds either the old bytes or the
    /// new, never a mix, and once this returns, the new.
    fn replace(&self, path: &str, data: &[u8]) -> Result<(), WalError>;
    /// True iff the file exists.
    fn exists(&self, path: &str) -> bool;
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> WalError {
    move |e| WalError::Io { op, detail: e.to_string() }
}

/// The real-file [`Vfs`]: appends through a cached `File` handle, fsync is
/// `sync_data`, replace is write-temp + rename (atomic on POSIX) + a sync
/// of the parent directory (which makes the rename durable).
///
/// Appends are serialized by the handle-map lock; an fsync only clones
/// the shared handle under it and syncs **outside**, so appends to the
/// file proceed while a force is in flight.
#[derive(Default)]
pub struct StdVfs {
    handles: Mutex<HashMap<String, Arc<std::fs::File>>>,
}

impl StdVfs {
    /// A fresh real-file Vfs.
    pub fn new() -> Self {
        StdVfs::default()
    }

    /// The cached append handle of `path`, opened on first use.
    fn handle(
        handles: &mut HashMap<String, Arc<std::fs::File>>,
        path: &str,
        op: &'static str,
    ) -> Result<Arc<std::fs::File>, WalError> {
        if let Some(file) = handles.get(path) {
            return Ok(file.clone());
        }
        let file =
            std::fs::OpenOptions::new().create(true).append(true).open(path).map_err(io_err(op))?;
        let file = Arc::new(file);
        handles.insert(path.to_string(), file.clone());
        Ok(file)
    }
}

impl Vfs for StdVfs {
    fn append(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        // Written under the map lock: one appender at a time, so a
        // `write_all` that takes several `write`s cannot interleave.
        let mut handles = self.handles.lock().expect("vfs lock");
        let file = Self::handle(&mut handles, path, "append")?;
        (&*file).write_all(data).map_err(io_err("append"))
    }

    fn fsync(&self, path: &str) -> Result<(), WalError> {
        // The map lock is gone by the end of this statement; the sync
        // itself blocks nobody.
        let file = Self::handle(&mut self.handles.lock().expect("vfs lock"), path, "fsync")?;
        file.sync_data().map_err(io_err("fsync"))
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, WalError> {
        std::fs::read(path).map_err(io_err("read"))
    }

    fn read_from(&self, path: &str, offset: usize) -> Result<Vec<u8>, WalError> {
        use std::io::{Read, Seek};
        let mut file = std::fs::File::open(path).map_err(io_err("read"))?;
        file.seek(std::io::SeekFrom::Start(offset as u64)).map_err(io_err("read"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err("read"))?;
        Ok(bytes)
    }

    fn replace(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        let tmp = format!("{path}.tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(io_err("replace-create"))?;
            f.write_all(data).map_err(io_err("replace-write"))?;
            f.sync_data().map_err(io_err("replace-sync"))?;
        }
        // Drop the stale append handle so later appends reopen the new
        // file rather than writing to the unlinked inode, and hold the map
        // lock until the directory sync: an append or fsync that opened
        // `path` between the drop and the rename would cache the old
        // inode, and a force that synced the new file before the
        // directory would ack bytes a power cut can still take back.
        let mut handles = self.handles.lock().expect("vfs lock");
        handles.remove(path);
        std::fs::rename(&tmp, path).map_err(io_err("rename"))?;
        let dir = match std::path::Path::new(path).parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => std::path::Path::new("."),
        };
        std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io_err("replace-dirsync"))
    }

    fn exists(&self, path: &str) -> bool {
        std::path::Path::new(path).exists()
    }
}

/// The in-memory fault-injecting [`Vfs`].
///
/// Besides behaving as a plain RAM filesystem, it models the crash the
/// recovery path exists for: [`MemVfs::arm_crash`] makes the `n`-th
/// subsequent append *tear* — only a prefix of its bytes lands — and
/// silently swallows everything after it, exactly what a power cut during
/// a buffered write leaves behind. [`MemVfs::snapshot`] exposes the raw
/// bytes so harnesses can also cut, flip, or truncate them explicitly
/// (see [`crate::faults`]) and hand them to recovery.
///
/// It can also *fail loudly*, which a dying process never does:
/// [`MemVfs::arm_append_error`] and [`MemVfs::arm_fsync_error`] make one
/// later call return a typed [`WalError::Io`], the disk-full / EIO case
/// the engine must answer by refusing to ack durability ever after.
#[derive(Default)]
pub struct MemVfs {
    files: Mutex<HashMap<String, Vec<u8>>>,
    /// `Some((appends_left, keep_bytes))`: after `appends_left` more whole
    /// appends, the next one keeps only `keep_bytes` bytes and the file
    /// stops accepting writes.
    crash: Mutex<Option<(u64, usize)>>,
    crashed: Mutex<bool>,
    /// `Some(n)`: the append after `n` more succeed returns an error.
    append_error: Mutex<Option<u64>>,
    /// `Some(n)`: the fsync after `n` more succeed returns an error.
    fsync_error: Mutex<Option<u64>>,
}

/// Count one call against an armed error; true iff this call is the one
/// that fails (which disarms the slot — the fault is one-shot).
fn error_fires(slot: &Mutex<Option<u64>>) -> bool {
    let mut slot = slot.lock().expect("vfs lock");
    match slot.as_mut() {
        Some(0) => {
            *slot = None;
            true
        }
        Some(left) => {
            *left -= 1;
            false
        }
        None => false,
    }
}

fn injected(op: &'static str) -> WalError {
    WalError::Io { op, detail: "injected fault".to_string() }
}

impl MemVfs {
    /// A fresh, empty, fault-free in-memory Vfs.
    pub fn new() -> Self {
        MemVfs::default()
    }

    /// Arm a torn-write crash: the next `whole_appends` appends land
    /// intact, the one after lands only its first `keep_bytes` bytes, and
    /// every append past that is silently dropped (the process is "dead").
    pub fn arm_crash(&self, whole_appends: u64, keep_bytes: usize) {
        *self.crash.lock().expect("vfs lock") = Some((whole_appends, keep_bytes));
    }

    /// Arm an append failure: the next `after_n` appends succeed, the one
    /// after returns [`WalError::Io`] and lands no bytes. One-shot — later
    /// appends succeed again, so whatever keeps failing afterwards is the
    /// caller's own poisoning, not this Vfs.
    pub fn arm_append_error(&self, after_n: u64) {
        *self.append_error.lock().expect("vfs lock") = Some(after_n);
    }

    /// Arm an fsync failure: the next `after_n` fsyncs succeed, the one
    /// after returns [`WalError::Io`]. One-shot, like
    /// [`MemVfs::arm_append_error`].
    pub fn arm_fsync_error(&self, after_n: u64) {
        *self.fsync_error.lock().expect("vfs lock") = Some(after_n);
    }

    /// True once an armed crash has fired.
    pub fn crashed(&self) -> bool {
        *self.crashed.lock().expect("vfs lock")
    }

    /// The file's current raw bytes (empty if absent).
    pub fn snapshot(&self, path: &str) -> Vec<u8> {
        self.files.lock().expect("vfs lock").get(path).cloned().unwrap_or_default()
    }

    /// Overwrite the file's raw bytes (installing a corrupted or cut log).
    pub fn install(&self, path: &str, bytes: Vec<u8>) {
        self.files.lock().expect("vfs lock").insert(path.to_string(), bytes);
    }
}

impl Vfs for MemVfs {
    fn append(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        if *self.crashed.lock().expect("vfs lock") {
            return Ok(()); // post-crash writes vanish
        }
        if error_fires(&self.append_error) {
            return Err(injected("append"));
        }
        let mut keep = data.len();
        {
            let mut crash = self.crash.lock().expect("vfs lock");
            if let Some((left, keep_bytes)) = crash.as_mut() {
                if *left == 0 {
                    keep = (*keep_bytes).min(data.len());
                    *crash = None;
                    *self.crashed.lock().expect("vfs lock") = true;
                } else {
                    *left -= 1;
                }
            }
        }
        let mut files = self.files.lock().expect("vfs lock");
        files.entry(path.to_string()).or_default().extend_from_slice(&data[..keep]);
        Ok(())
    }

    fn fsync(&self, _path: &str) -> Result<(), WalError> {
        if error_fires(&self.fsync_error) {
            return Err(injected("fsync"));
        }
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, WalError> {
        self.files
            .lock()
            .expect("vfs lock")
            .get(path)
            .cloned()
            .ok_or(WalError::Io { op: "read", detail: format!("{path}: not found") })
    }

    fn read_from(&self, path: &str, offset: usize) -> Result<Vec<u8>, WalError> {
        let files = self.files.lock().expect("vfs lock");
        let file = files
            .get(path)
            .ok_or(WalError::Io { op: "read", detail: format!("{path}: not found") })?;
        Ok(file.get(offset..).unwrap_or_default().to_vec())
    }

    fn replace(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        if *self.crashed.lock().expect("vfs lock") {
            return Ok(());
        }
        self.files.lock().expect("vfs lock").insert(path.to_string(), data.to_vec());
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.files.lock().expect("vfs lock").contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_appends_and_reads() {
        let vfs = MemVfs::new();
        vfs.append("a.wal", b"abc").unwrap();
        vfs.append("a.wal", b"def").unwrap();
        assert_eq!(vfs.read("a.wal").unwrap(), b"abcdef");
        assert!(vfs.exists("a.wal"));
        assert!(!vfs.exists("b.wal"));
    }

    #[test]
    fn mem_vfs_torn_crash() {
        let vfs = MemVfs::new();
        vfs.arm_crash(1, 2);
        vfs.append("a.wal", b"first").unwrap(); // intact
        vfs.append("a.wal", b"second").unwrap(); // torn: only "se"
        vfs.append("a.wal", b"third").unwrap(); // dropped
        assert!(vfs.crashed());
        assert_eq!(vfs.read("a.wal").unwrap(), b"firstse");
    }

    #[test]
    fn mem_vfs_armed_errors_are_one_shot() {
        let vfs = MemVfs::new();
        vfs.arm_append_error(1);
        vfs.append("a.wal", b"one").unwrap();
        assert!(matches!(vfs.append("a.wal", b"two"), Err(WalError::Io { op: "append", .. })));
        vfs.append("a.wal", b"three").unwrap();
        assert_eq!(vfs.read("a.wal").unwrap(), b"onethree", "the failed append lands nothing");
        vfs.arm_fsync_error(0);
        assert!(matches!(vfs.fsync("a.wal"), Err(WalError::Io { op: "fsync", .. })));
        vfs.fsync("a.wal").unwrap();
    }

    #[test]
    fn mem_vfs_replace_is_whole() {
        let vfs = MemVfs::new();
        vfs.append("a.wal", b"old").unwrap();
        vfs.replace("a.wal", b"new-contents").unwrap();
        assert_eq!(vfs.read("a.wal").unwrap(), b"new-contents");
    }

    #[test]
    fn std_vfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rnt-wal-test-{}", std::process::id()));
        let _cleanup = Cleanup(vec![dir.clone()]);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let vfs = StdVfs::new();
        vfs.append(path, b"abc").unwrap();
        vfs.fsync(path).unwrap();
        vfs.append(path, b"def").unwrap();
        assert_eq!(vfs.read(path).unwrap(), b"abcdef");
        vfs.replace(path, b"xyz").unwrap();
        assert_eq!(vfs.read(path).unwrap(), b"xyz");
        vfs.append(path, b"!").unwrap();
        assert_eq!(vfs.read(path).unwrap(), b"xyz!");
    }

    /// Removes the files and directories a test made, also when one of
    /// its asserts fails.
    struct Cleanup(Vec<std::path::PathBuf>);

    impl Drop for Cleanup {
        fn drop(&mut self) {
            for path in &self.0 {
                let _ = std::fs::remove_file(path);
                let _ = std::fs::remove_dir_all(path);
            }
        }
    }

    /// `replace` syncs the directory that names the file — `.` for a bare
    /// file name — and either way the new bytes read back, appends go to
    /// the new file, and no temp file is left.
    #[test]
    fn std_vfs_replace_of_a_nested_and_a_bare_path() {
        let dir = std::env::temp_dir().join(format!("rnt-wal-replace-{}", std::process::id()));
        let bare = format!("rnt-wal-replace-{}.wal", std::process::id());
        let _cleanup =
            Cleanup(vec![dir.clone(), bare.clone().into(), format!("{bare}.tmp").into()]);
        std::fs::create_dir_all(&dir).unwrap();
        let nested = dir.join("nested.wal");
        for path in [nested.to_str().unwrap(), bare.as_str()] {
            let vfs = StdVfs::new();
            vfs.append(path, b"old").unwrap();
            vfs.replace(path, b"new").unwrap();
            vfs.append(path, b"!").unwrap();
            assert_eq!(vfs.read(path).unwrap(), b"new!", "{path}");
            assert_eq!(vfs.read_from(path, 2).unwrap(), b"w!", "{path}");
            assert_eq!(vfs.read_from(path, 9).unwrap(), b"", "{path}");
            let tmp = format!("{path}.tmp");
            assert!(!std::path::Path::new(&tmp).exists(), "{tmp} left behind");
        }
    }

    /// A force racing a `replace` never leaves the handle of the replaced
    /// file cached: every append after a `replace` lands in the file the
    /// path names.
    #[test]
    fn std_vfs_appends_after_a_replace_racing_fsyncs_land_in_the_new_file() {
        let dir = std::env::temp_dir().join(format!("rnt-wal-race-{}", std::process::id()));
        let _cleanup = Cleanup(vec![dir.clone()]);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("raced.wal");
        let path = path.to_str().unwrap();
        let vfs = StdVfs::new();
        vfs.append(path, b"seed").unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    vfs.fsync(path).unwrap();
                }
            });
            let _stop = StopOnDrop(&done);
            for i in 0u32..300 {
                vfs.replace(path, &i.to_le_bytes()).unwrap();
                vfs.append(path, b"+").unwrap();
                let expected = [&i.to_le_bytes()[..], b"+"].concat();
                assert_eq!(vfs.read(path).unwrap(), expected, "append {i} missed the file");
            }
        });
    }

    /// Sets the flag when dropped, so a looping helper thread ends also
    /// when the test's thread panics.
    struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Appends issued while other threads fsync the same file all land,
    /// in order: the force shares the handle, it does not take it away.
    #[test]
    fn std_vfs_appends_during_fsync_all_land_in_order() {
        let dir = std::env::temp_dir().join(format!("rnt-wal-force-{}", std::process::id()));
        let _cleanup = Cleanup(vec![dir.clone()]);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("concurrent.wal");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let vfs = StdVfs::new();
        const APPENDS: u32 = 2000;
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        let fsyncs = std::thread::scope(|s| {
            let forcers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut n = 0u32;
                        // At least one force after the appender is done,
                        // so the loop cannot end before it ever overlapped.
                        loop {
                            let last = done.load(std::sync::atomic::Ordering::SeqCst);
                            vfs.fsync(path).unwrap();
                            n += 1;
                            if last {
                                return n;
                            }
                        }
                    })
                })
                .collect();
            start.wait();
            for i in 0..APPENDS {
                vfs.append(path, &i.to_le_bytes()).unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            forcers.into_iter().map(|h| h.join().unwrap()).sum::<u32>()
        });
        assert!(fsyncs >= 2);
        let bytes = vfs.read(path).unwrap();
        let expected: Vec<u8> = (0..APPENDS).flat_map(|i| i.to_le_bytes()).collect();
        assert_eq!(bytes, expected);
    }
}
