//! One append-only file, the primitive under every log in the workspace:
//! minisql's `wal.sql`, patterndb's examples log and seqd's ingest logs.
//! Each log keeps its own payload grammar; [`AppendFile`] owns the rest. It
//! tracks the length up to its last whole append and cuts a failed append
//! back out, so the next one never lands behind a torn one, and its
//! [`AppendFile::sync`] costs nothing when nothing is new. [`replace`]
//! rewrites a file through a caller-named temp. [`sync_dir`] makes a
//! directory's entries durable: POSIX orders neither a rename nor a file
//! creation against a later sync of another file. [`inject`] is the one
//! test seam.

use std::cell::Cell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A failure [`inject`] plants for the next operation of its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// An append writes this many bytes of its payload, then fails.
    TornWrite(usize),
    /// A file sync fails.
    Sync,
    /// A directory sync fails.
    DirSync,
}

thread_local!(static FAULT: Cell<Option<Fault>> = const { Cell::new(None) });

/// Test seam: the next operation of `fault`'s kind on this thread fails
/// (`None` clears a fault that has not fired).
pub fn inject(fault: Option<Fault>) {
    FAULT.with(|f| f.set(fault));
}

/// The planted fault, taken if `kind` accepts it.
fn planted(kind: impl Fn(Fault) -> bool) -> Option<Fault> {
    FAULT.with(|f| f.get().filter(|&x| kind(x)).and_then(|_| f.take()))
}

/// Sync a file's data (and the length it is read back by).
fn sync_data(file: &File) -> io::Result<()> {
    match planted(|f| f == Fault::Sync) {
        Some(_) => Err(io::Error::other("injected sync failure")),
        None => file.sync_data(),
    }
}

/// Make the entries of directory `dir` durable: files created, renamed or
/// removed in it.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    match planted(|f| f == Fault::DirSync) {
        Some(_) => Err(io::Error::other("injected directory sync failure")),
        None => File::open(dir)?.sync_all(),
    }
}

/// Replace the file at `path` with what `write` writes: into `tmp`, synced,
/// then renamed over `path`, so a crash leaves either whole; the rename's
/// own durability is the caller's [`sync_dir`]. Returns the new file.
pub fn replace<E: From<io::Error>>(
    path: impl AsRef<Path>,
    tmp: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<AppendFile, E> {
    let mut out = BufWriter::new(File::create(tmp)?);
    write(&mut out)?;
    sync_data(&out.into_inner().map_err(|e| e.into_error())?)?;
    let mut file = AppendFile::open(tmp)?;
    fs::rename(tmp, &path)?;
    file.path = path.as_ref().to_path_buf();
    Ok(file)
}

/// A file open for appending and reading.
#[derive(Debug)]
pub struct AppendFile {
    path: PathBuf,
    file: File,
    /// Length up to the last whole append.
    len: u64,
    /// Length the last sync made durable (what the file held at open).
    synced: u64,
}

impl AppendFile {
    /// Open `path`, creating it if missing and keeping what it holds.
    pub fn open(path: impl AsRef<Path>) -> io::Result<AppendFile> {
        let mut options = OpenOptions::new();
        let file = options.create(true).read(true).append(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(AppendFile {
            path: path.as_ref().to_path_buf(),
            file,
            len,
            synced: len,
        })
    }

    /// Open `path` empty: created, or cut to nothing.
    pub fn create(path: impl AsRef<Path>) -> io::Result<AppendFile> {
        let mut file = AppendFile::open(path)?;
        file.cut(0)?;
        Ok(file)
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Length up to the last whole append.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `bytes` with one write and return the offset they start at.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<u64> {
        let at = self.len;
        let written = match planted(|f| matches!(f, Fault::TornWrite(_))) {
            Some(Fault::TornWrite(n)) => self
                .file
                .write_all(&bytes[..n.min(bytes.len())])
                .and(Err(io::Error::other("injected torn write"))),
            _ => self.file.write_all(bytes),
        };
        if let Err(e) = written {
            self.cut(at)?;
            return Err(e);
        }
        self.len += bytes.len() as u64;
        Ok(at)
    }

    /// Make every append so far durable; returns whether one was new.
    pub fn sync(&mut self) -> io::Result<bool> {
        if self.synced == self.len {
            return Ok(false);
        }
        sync_data(&self.file)?;
        self.synced = self.len;
        Ok(true)
    }

    /// Append `bytes` and sync them; if either fails, they are cut back out.
    pub fn append_synced(&mut self, bytes: &[u8]) -> io::Result<u64> {
        let at = self.append(bytes)?;
        if let Err(e) = self.sync() {
            self.cut(at)?;
            return Err(e);
        }
        Ok(at)
    }

    /// Cut the file back to its first `len` bytes.
    pub fn cut(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.synced = self.synced.min(len);
        self.len = len;
        Ok(())
    }

    /// Read from offset `at` up to the end of the last whole append.
    pub fn read_from(&self, at: u64) -> io::Result<io::Take<&File>> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(at))?;
        Ok(file.take(self.len.saturating_sub(at)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::prop::{self, Config};
    use testkit::{prop_assert, prop_assert_eq};

    /// Random appends (whole, torn at any byte, synced, synced with a
    /// failed sync), cuts, replaces and drop-and-reopen, against a
    /// `Vec<u8>`: after every step the file holds the model's bytes, the
    /// handle and a reopened one report its length, and reads agree.
    #[test]
    fn an_append_file_tracks_a_byte_model() {
        let ops = prop::vec((prop::range(0u8..8), prop::range(0u64..1 << 20)), 1..40);
        prop::check(&Config::cases(128), &ops, |ops| {
            let dir = std::env::temp_dir().join(format!(
                "minisql-log-prop-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            inject(None);
            let path = dir.join("log");
            let mut file = AppendFile::open(&path).unwrap();
            let mut model: Vec<u8> = Vec::new();
            for (step, &(op, arg)) in ops.iter().enumerate() {
                let bytes: Vec<u8> = (0..arg % 23).map(|i| (step as u8) ^ (i as u8)).collect();
                match op {
                    0 | 1 => {
                        prop_assert_eq!(file.append(&bytes).unwrap(), model.len() as u64);
                        model.extend_from_slice(&bytes);
                    }
                    2 => {
                        inject(Some(Fault::TornWrite((arg >> 8) as usize % 24)));
                        prop_assert!(file.append(&bytes).is_err());
                    }
                    3 => {
                        file.append_synced(&bytes).unwrap();
                        model.extend_from_slice(&bytes);
                        prop_assert!(!file.sync().unwrap(), "nothing left to sync");
                    }
                    4 => {
                        inject(Some(Fault::Sync));
                        let synced = file.append_synced(&bytes);
                        prop_assert!(synced.is_err() || bytes.is_empty());
                        inject(None);
                    }
                    5 => {
                        let len = (arg >> 8) % (model.len() as u64 + 1);
                        file.cut(len).unwrap();
                        model.truncate(len as usize);
                    }
                    6 => {
                        let tmp = dir.join("log.tmp");
                        file = replace(&path, &tmp, |out| out.write_all(&bytes)).unwrap();
                        prop_assert!(!tmp.exists());
                        prop_assert!(!file.sync().unwrap(), "a replacement is synced");
                        model = bytes;
                    }
                    _ => {
                        drop(file);
                        file = AppendFile::open(&path).unwrap();
                    }
                }
                prop_assert_eq!(&fs::read(&path).unwrap(), &model, "step {}", step);
                prop_assert_eq!(file.len(), model.len() as u64);
                prop_assert_eq!(AppendFile::open(&path).unwrap().len(), model.len() as u64);
                let at = (arg >> 4) % (model.len() as u64 + 1);
                let mut tail = Vec::new();
                file.read_from(at).unwrap().read_to_end(&mut tail).unwrap();
                prop_assert_eq!(&tail[..], &model[at as usize..]);
            }
            fs::remove_dir_all(&dir).unwrap();
            Ok(())
        });
    }

    #[test]
    fn a_failed_sync_keeps_the_bytes_and_is_retried() {
        let dir = std::env::temp_dir().join(format!("minisql-log-sync-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut file = AppendFile::create(dir.join("log")).unwrap();
        file.append(b"abc").unwrap();
        inject(Some(Fault::Sync));
        assert!(file.sync().is_err());
        assert_eq!(file.len(), 3, "a plain sync does not cut");
        assert!(file.sync().unwrap(), "still owed");
        assert!(!file.sync().unwrap());
        inject(Some(Fault::DirSync));
        assert!(sync_dir(&dir).is_err());
        sync_dir(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
