//! The one filesystem surface under every data-directory file: the
//! whole-file blobs (`keys.bin`, `nullifiers.snap`, `publish.guard`) go
//! through [`atomic_write`] and [`read`], and the message store's segment
//! log through [`list_dir`], [`Appender`], [`truncate`], [`remove`] and
//! [`sync_dir`]. Callers decide *when* to sync; this module is the only
//! place that touches `std::fs` for them, so it is where a crash-point
//! injector counting every read, write, rename, unlink and fsync goes.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Replaces the file at `path` with `bytes` so that a crash at any
/// instant leaves either the previous contents or the new ones — never a
/// torn file, and never the *previous* file resurrected after the call
/// returned: create the parent directory → write a sibling `.tmp` →
/// `sync_all` it → `rename` over `path` → fsync the parent directory
/// (without which a power loss can undo the rename itself; for
/// `publish.guard` that would let the node publish twice in one epoch).
/// When the write, the `sync_all` or the `rename` fails, the `.tmp`
/// sibling is removed (best effort) and that error is returned.
///
/// What is unit-tested here is what needs no fault injection (no temp
/// file left behind on success or on a failed rename, in-place
/// replacement, parent creation); killing the process at each
/// write/rename/fsync boundary is for the crash-point injector this
/// module is the home of.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(parent)?;
    let tmp = path.with_extension("tmp");
    if let Err(e) = write_and_rename(&tmp, path, bytes) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_dir(parent)
}

fn write_and_rename(tmp: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)
}

/// Reads the whole file at `path`.
pub fn read(path: &Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}

/// The paths of the entries in `dir`, creating it (and its parents) when
/// it is missing. The order is the directory's, not sorted.
pub fn list_dir(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    std::fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.path()))
        .collect()
}

/// Unlinks the file at `path`.
pub fn remove(path: &Path) -> std::io::Result<()> {
    std::fs::remove_file(path)
}

/// Cuts the file at `path` to `len` bytes and `sync_all`s it.
pub fn truncate(path: &Path, len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

/// Fsyncs the directory `dir`, making the entries created, renamed or
/// unlinked in it durable.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// A buffered handle that only ever appends to one file. Dropping it
/// writes the buffer out without a sync.
#[derive(Debug)]
pub struct Appender(BufWriter<File>);

impl Appender {
    /// Creates (or truncates) the file at `path` and writes `header`
    /// straight through, unbuffered. The new directory entry is durable
    /// only after a [`sync_dir`] of its parent.
    pub fn create(path: &Path, header: &[u8]) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        file.write_all(header)?;
        Ok(Appender(BufWriter::new(file)))
    }

    /// Reopens the existing file at `path`, positioned at its end.
    pub fn reopen(path: &Path) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Appender(BufWriter::new(file)))
    }

    /// Appends `bytes` to the buffer (which writes through when full).
    pub fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.0.write_all(bytes)
    }

    /// Writes the buffer out and `sync_data`s the file.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.0.flush()?;
        self.0.get_ref().sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_parent_replaces_in_place_and_leaves_no_temp() {
        let root = std::env::temp_dir().join(format!("waku-wire-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("nested/data");
        let path = dir.join("state.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(read(&path).unwrap(), b"second, longer");
        assert_eq!(list_dir(&dir).unwrap(), [path], "only the target remains");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn failed_rename_leaves_no_temp() {
        let root = std::env::temp_dir().join(format!("waku-wire-fs-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // A non-empty directory at the target path: the rename fails after
        // the temp file was written and synced.
        let path = root.join("state");
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        assert!(atomic_write(&path, b"never lands").is_err());
        assert_eq!(list_dir(&root).unwrap(), [path], "no .tmp sibling left");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn appender_creates_reopens_appends_and_truncates() {
        let root = std::env::temp_dir().join(format!("waku-wire-fs-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        assert!(list_dir(&root).unwrap().is_empty(), "created empty");
        let path = root.join("log");
        let mut file = Appender::create(&path, b"HDR").unwrap();
        assert_eq!(read(&path).unwrap(), b"HDR", "header written through");
        file.append(b"ab").unwrap();
        file.sync().unwrap();
        drop(file);
        let mut file = Appender::reopen(&path).unwrap();
        file.append(b"cd").unwrap();
        file.sync().unwrap();
        sync_dir(&root).unwrap();
        assert_eq!(read(&path).unwrap(), b"HDRabcd");
        truncate(&path, 4).unwrap();
        assert_eq!(read(&path).unwrap(), b"HDRa");
        remove(&path).unwrap();
        assert!(list_dir(&root).unwrap().is_empty());
        assert!(Appender::reopen(&path).is_err(), "reopen never creates");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
