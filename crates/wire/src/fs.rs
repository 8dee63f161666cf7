//! Crash-safe whole-file replacement.

use std::fs::File;
use std::io::Write;
use std::path::Path;

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
/// write/rename/fsync boundary needs a crash-point injector.
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
    File::open(parent)?.sync_all()
}

fn write_and_rename(tmp: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)
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
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state.bin"], "only the target remains");
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
        let names: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state"], "no .tmp sibling left behind");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
