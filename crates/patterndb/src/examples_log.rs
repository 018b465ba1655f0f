//! The examples log: every pattern's example bodies, appended to one file
//! beside the store's database, so they are read from disk when a review or
//! an export asks for them and never held in memory. A pattern row keeps
//! only where its bodies are (`examples_at`, `examples_len`).
//!
//! The log is append-only. The store appends a new pattern's bodies before
//! its row is written and syncs them before the transaction's `COMMIT`
//! reaches the WAL; a `ROLLBACK` or a failed commit cuts the log back to its
//! length at `BEGIN`. A crash between the log's sync and the WAL's `COMMIT`
//! leaves bytes no committed row points at: [`PatternStore::open`] cuts
//! them.
//!
//! Deleted rows leave their bodies behind. A checkpoint that finds more
//! orphaned bytes than live ones copies the live bodies into the next
//! *generation*, `examples.<g+1>.log`, and switches to it in the same
//! transaction that moves every row's location; the store's one-row
//! `examples_log` table names the current generation. Whichever side of
//! that `COMMIT` a crash lands on, the generation the table names holds
//! every body its rows point at; open removes the other files.
//!
//! [`PatternStore::in_memory`] runs the same code over a `Vec<u8>`.
//!
//! [`PatternStore::open`]: crate::PatternStore::open
//! [`PatternStore::in_memory`]: crate::PatternStore::in_memory

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The bytes of one generation: a file in the store directory, or a buffer.
#[derive(Debug)]
enum Medium {
    File { dir: PathBuf, file: File },
    Memory(Vec<u8>),
}

/// One generation of the examples log, open for appending and reading.
#[derive(Debug)]
pub(crate) struct ExamplesLog {
    medium: Medium,
    generation: i64,
    /// Length of the log up to its last whole append.
    len: u64,
}

/// The file name of generation `generation`.
fn file_name(generation: i64) -> String {
    format!("examples.{generation}.log")
}

/// The generation a file name in the store directory belongs to, if any.
fn generation_of(name: &str) -> Option<i64> {
    name.strip_prefix("examples.")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

impl ExamplesLog {
    /// An empty log held in memory.
    pub(crate) fn memory() -> ExamplesLog {
        ExamplesLog {
            medium: Medium::Memory(Vec::new()),
            generation: 0,
            len: 0,
        }
    }

    /// Open (creating if needed) generation `generation` in the store
    /// directory `dir`, and remove every other generation's file: one a
    /// crash left behind before or after the switch to a new generation.
    pub(crate) fn open(dir: &Path, generation: i64) -> io::Result<ExamplesLog> {
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let stale = name.to_str().and_then(generation_of);
            if stale.is_some_and(|g| g != generation) {
                fs::remove_file(dir.join(&name))?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(dir.join(file_name(generation)))?;
        Ok(ExamplesLog {
            len: file.metadata()?.len(),
            medium: Medium::File {
                dir: dir.to_path_buf(),
                file,
            },
            generation,
        })
    }

    /// An empty next generation, in the same medium.
    pub(crate) fn next_generation(&self) -> io::Result<ExamplesLog> {
        let generation = self.generation + 1;
        let medium = match &self.medium {
            Medium::Memory(_) => Medium::Memory(Vec::new()),
            Medium::File { dir, .. } => {
                let file = OpenOptions::new()
                    .create(true)
                    .read(true)
                    .append(true)
                    .open(dir.join(file_name(generation)))?;
                file.set_len(0)?;
                Medium::File {
                    dir: dir.clone(),
                    file,
                }
            }
        };
        Ok(ExamplesLog {
            medium,
            generation,
            len: 0,
        })
    }

    /// This log's generation.
    pub(crate) fn generation(&self) -> i64 {
        self.generation
    }

    /// Length of the log in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Append `bytes` and return the offset they start at. A write that
    /// fails is cut back out, so the next append follows the last whole
    /// one.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> io::Result<u64> {
        let at = self.len;
        let written = match &mut self.medium {
            Medium::Memory(buf) => {
                // Grow by an eighth, not double: the buffer is the bulk of
                // an in-memory store, and half of it could sit unused.
                if buf.capacity() - buf.len() < bytes.len() {
                    buf.reserve_exact(bytes.len().max(buf.len() / 8));
                }
                buf.extend_from_slice(bytes);
                Ok(())
            }
            Medium::File { file, .. } => file.write_all(bytes),
        };
        if let Err(e) = written {
            self.cut(at)?;
            return Err(e);
        }
        self.len += bytes.len() as u64;
        Ok(at)
    }

    /// Make every append so far durable.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        match &self.medium {
            Medium::Memory(_) => Ok(()),
            Medium::File { file, .. } => file.sync_data(),
        }
    }

    /// Cut the log back to its first `len` bytes.
    pub(crate) fn cut(&mut self, len: u64) -> io::Result<()> {
        match &mut self.medium {
            Medium::Memory(buf) => buf.truncate(len as usize),
            Medium::File { file, .. } => file.set_len(len)?,
        }
        self.len = len;
        Ok(())
    }

    /// The `len` bytes at offset `at`.
    pub(crate) fn read(&self, at: u64, len: u64) -> io::Result<Vec<u8>> {
        let end = at.checked_add(len).filter(|&end| end <= self.len);
        let Some(end) = end else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "bytes {at}..+{len} lie past the end of the log ({})",
                    self.len
                ),
            ));
        };
        match &self.medium {
            Medium::Memory(buf) => Ok(buf[at as usize..end as usize].to_vec()),
            Medium::File { file, .. } => {
                let mut file: &File = file;
                let mut bytes = vec![0; len as usize];
                file.seek(SeekFrom::Start(at))?;
                file.read_exact(&mut bytes)?;
                Ok(bytes)
            }
        }
    }

    /// Delete this generation's file, once another generation replaced it.
    pub(crate) fn remove(self) -> io::Result<()> {
        match self.medium {
            Medium::Memory(_) => Ok(()),
            Medium::File { dir, file } => {
                drop(file);
                fs::remove_file(dir.join(file_name(self.generation)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_names_round_trip() {
        assert_eq!(generation_of(&file_name(0)), Some(0));
        assert_eq!(generation_of(&file_name(17)), Some(17));
        for other in [
            "examples.log",
            "wal.sql",
            "examples.x.log",
            "examples.1.log.tmp",
        ] {
            assert_eq!(generation_of(other), None, "{other}");
        }
    }

    #[test]
    fn file_and_memory_logs_append_read_and_cut_alike() {
        let dir = std::env::temp_dir().join(format!("patterndb-exlog-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(file_name(3)), b"stale").unwrap();
        let file = ExamplesLog::open(&dir, 0).unwrap();
        assert!(!dir.join(file_name(3)).exists(), "other generations go");
        for mut log in [ExamplesLog::memory(), file] {
            assert_eq!(log.append(b"5:hello").unwrap(), 0);
            assert_eq!(log.append(b"3:abc").unwrap(), 7);
            log.sync().unwrap();
            assert_eq!(log.read(7, 5).unwrap(), b"3:abc");
            assert!(log.read(7, 6).is_err(), "past the end");
            log.cut(7).unwrap();
            assert_eq!((log.len(), log.append(b"x").unwrap()), (7, 7));
            let next = log.next_generation().unwrap();
            assert_eq!((next.generation(), next.len()), (1, 0));
            next.remove().unwrap();
        }
        assert_eq!(fs::read(dir.join(file_name(0))).unwrap(), b"5:hellox");
        assert_eq!(ExamplesLog::open(&dir, 0).unwrap().len(), 8);
        fs::remove_dir_all(&dir).unwrap();
    }
}
