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
//! A generation is a [`minisql::log::AppendFile`], its directory entry
//! synced as it is created, before a `COMMIT` can name it;
//! [`PatternStore::in_memory`] keeps the bytes in a `Vec<u8>` instead.
//!
//! [`PatternStore::open`]: crate::PatternStore::open
//! [`PatternStore::in_memory`]: crate::PatternStore::in_memory

use minisql::log::{self, AppendFile};
use std::fs;
use std::io::{self, Read};
use std::path::Path;

/// The bytes of one generation: a file in the store directory, or a buffer.
#[derive(Debug)]
enum Medium {
    File(AppendFile),
    Memory(Vec<u8>),
}

/// One generation of the examples log, open for appending and reading.
#[derive(Debug)]
pub(crate) struct ExamplesLog {
    medium: Medium,
    generation: i64,
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
        Ok(ExamplesLog {
            medium: Medium::File(AppendFile::open(dir.join(file_name(generation)))?),
            generation,
        })
    }

    /// An empty next generation, in the same medium; a file's directory
    /// entry is synced before a `COMMIT` can name it.
    pub(crate) fn next_generation(&self) -> io::Result<ExamplesLog> {
        let generation = self.generation + 1;
        let medium = match &self.medium {
            Medium::Memory(_) => Medium::Memory(Vec::new()),
            Medium::File(file) => {
                let dir = file.path().parent().unwrap_or(Path::new("."));
                let next = AppendFile::create(dir.join(file_name(generation)))?;
                log::sync_dir(dir)?;
                Medium::File(next)
            }
        };
        Ok(ExamplesLog { medium, generation })
    }

    /// This log's generation.
    pub(crate) fn generation(&self) -> i64 {
        self.generation
    }

    /// Length of the log in bytes.
    pub(crate) fn len(&self) -> u64 {
        match &self.medium {
            Medium::File(file) => file.len(),
            Medium::Memory(buf) => buf.len() as u64,
        }
    }

    /// Append `bytes` and return the offset they start at. A write that
    /// fails is cut back out, so the next append follows the last whole
    /// one.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> io::Result<u64> {
        match &mut self.medium {
            Medium::File(file) => file.append(bytes),
            Medium::Memory(buf) => {
                // Grow by an eighth, not double: the buffer is the bulk of
                // an in-memory store, and half of it could sit unused.
                if buf.capacity() - buf.len() < bytes.len() {
                    buf.reserve_exact(bytes.len().max(buf.len() / 8));
                }
                buf.extend_from_slice(bytes);
                Ok((buf.len() - bytes.len()) as u64)
            }
        }
    }

    /// Make every append so far durable; nothing to do when none is new.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        match &mut self.medium {
            Medium::File(file) => file.sync().map(drop),
            Medium::Memory(_) => Ok(()),
        }
    }

    /// Cut the log back to its first `len` bytes.
    pub(crate) fn cut(&mut self, len: u64) -> io::Result<()> {
        match &mut self.medium {
            Medium::File(file) => file.cut(len),
            Medium::Memory(buf) => {
                buf.truncate(len as usize);
                Ok(())
            }
        }
    }

    /// The `len` bytes at offset `at`.
    pub(crate) fn read(&self, at: u64, len: u64) -> io::Result<Vec<u8>> {
        let end = self.len();
        if at.checked_add(len).is_none_or(|last| last > end) {
            let past = format!("bytes {at}..+{len} lie past the end of the log ({end})");
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, past));
        }
        let mut bytes = vec![0; len as usize];
        match &self.medium {
            Medium::File(file) => file.read_from(at)?.read_exact(&mut bytes)?,
            Medium::Memory(buf) => bytes.copy_from_slice(&buf[at as usize..][..len as usize]),
        }
        Ok(bytes)
    }

    /// Delete this generation's file, once another generation replaced it.
    pub(crate) fn remove(self) -> io::Result<()> {
        match self.medium {
            Medium::Memory(_) => Ok(()),
            Medium::File(file) => fs::remove_file(file.path()),
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
