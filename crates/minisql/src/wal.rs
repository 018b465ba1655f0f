//! Durability: snapshot + write-ahead log.
//!
//! A persistent database is a directory holding two files:
//!
//! * `snapshot.sql` — the framed statement list of the last checkpoint;
//! * `wal.sql` — framed mutation statements appended since the checkpoint.
//!
//! The frame grammar:
//!
//! ```text
//! file  := (frame | group)*
//! frame := '#' <statement-byte-length> '\n' <statement-bytes> '\n'
//! group := '!' <payload-byte-length> '\n' frame*
//! ```
//!
//! Length-prefixed frames let string literals containing newlines (log
//! messages stored as pattern examples frequently do) survive recovery
//! byte-exactly. A statement executed outside a transaction is one frame; a
//! committed transaction is one group — its header states the total length of
//! the statement frames that follow, and header and frames are appended with
//! a single write — so recovery sees a transaction entirely or not at all.
//! Files written before groups existed hold plain frames only and read
//! unchanged.
//!
//! [`Wal::log`] renders bound parameters into the statement text before
//! appending, so the WAL is self-contained plain SQL. Recovery replays the
//! snapshot then the WAL in order and drops what a crash tore at the end of
//! a file: a header cut before its newline, a frame shorter than its length,
//! or a group whose payload is incomplete (every statement of it, including
//! the whole frames that did arrive). Every append is synced to disk
//! (`sync_data`) before it returns, so a `COMMIT` that succeeded survives a
//! power loss. An append whose write or sync fails is cut back out of the
//! file at once, so the next one never lands behind a torn frame.
//! [`Wal::checkpoint`] atomically replaces the snapshot (write-to-temp +
//! rename) and truncates the WAL.

use crate::error::Error;
use crate::lexer::{lex, Tok};
use crate::value::SqlValue;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Handle to a database directory's durability files.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    /// `wal.sql`, opened for appending.
    wal: File,
    /// Length of `wal.sql` up to its last whole append.
    len: u64,
    /// Test seam: the next append stops after this many bytes and fails.
    #[cfg(test)]
    pub(crate) tear_next_write: Option<usize>,
    /// Test seam: the next append's sync fails.
    #[cfg(test)]
    pub(crate) fail_next_sync: bool,
}

impl Wal {
    /// Open (creating if needed) the durability files under `dir`.
    pub fn open(dir: &Path) -> Result<Wal, Error> {
        fs::create_dir_all(dir)?;
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("wal.sql"))?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            len: wal.metadata()?.len(),
            wal,
            #[cfg(test)]
            tear_next_write: None,
            #[cfg(test)]
            fail_next_sync: false,
        })
    }

    /// All statements to replay, snapshot first. A tail of `wal.sql` torn
    /// by a crash mid-append is cut off, so that the appends that follow
    /// land after the last whole frame.
    pub fn recover(&mut self) -> Result<Vec<String>, Error> {
        let mut stmts = Vec::new();
        let snapshot = self.dir.join("snapshot.sql");
        if snapshot.exists() {
            read_frames(&snapshot, &mut stmts)?;
        }
        let whole = read_frames(&self.dir.join("wal.sql"), &mut stmts)?;
        if whole < self.len {
            self.wal.set_len(whole)?;
            self.len = whole;
        }
        Ok(stmts)
    }

    /// Append one mutation statement, with parameters rendered inline.
    pub fn log(&mut self, sql: &str, params: &[SqlValue]) -> Result<(), Error> {
        let mut frame = Vec::new();
        write_frame(&mut frame, &render_statement(sql, params)?)?;
        self.append(&frame)
    }

    /// Append a committed transaction — `frames` is its statements, each
    /// rendered and framed by [`write_frame`] — as one group, in one write.
    pub fn log_group(&mut self, frames: &[u8]) -> Result<(), Error> {
        if frames.is_empty() {
            return Ok(());
        }
        let mut group = format!("!{}\n", frames.len()).into_bytes();
        group.extend_from_slice(frames);
        self.append(&group)
    }

    /// Append `bytes` with one write and sync them to disk. A failed write
    /// may have landed in part, and a failed sync leaves unknown what is
    /// durable: either way the file is cut back to its length before the
    /// append, so what the next append writes follows the last whole frame.
    fn append(&mut self, bytes: &[u8]) -> Result<(), Error> {
        if let Err(e) = self.write(bytes).and_then(|()| self.sync()) {
            self.wal.set_len(self.len)?;
            return Err(e.into());
        }
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if let Some(torn) = self.tear_next_write.take() {
            self.wal.write_all(&bytes[..torn.min(bytes.len())])?;
            return Err(io::Error::other("injected short write"));
        }
        self.wal.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_sync) {
            return Err(io::Error::other("injected sync failure"));
        }
        self.wal.sync_data()
    }

    /// Atomically replace the snapshot with the frames `write_frames` emits
    /// and truncate the WAL.
    pub fn checkpoint(
        &mut self,
        write_frames: impl FnOnce(&mut BufWriter<File>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let tmp = self.dir.join("snapshot.sql.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        write_frames(&mut out)?;
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, self.dir.join("snapshot.sql"))?;
        self.wal.set_len(0)?;
        self.len = 0;
        Ok(())
    }
}

/// Write the frame of one rendered statement.
pub(crate) fn write_frame(out: &mut impl Write, stmt: &str) -> Result<(), Error> {
    writeln!(out, "#{}", stmt.len())?;
    out.write_all(stmt.as_bytes())?;
    out.write_all(b"\n")?;
    Ok(())
}

/// Append the statements framed in the file at `path` to `out`; returns
/// the length of the file without its torn tail, if it has one.
fn read_frames(path: &Path, out: &mut Vec<String>) -> Result<u64, Error> {
    let mut data = String::new();
    File::open(path)?.read_to_string(&mut data)?;
    let whole = parse_frames(&data, None, out)
        .map_err(|what| Error::Corrupt(format!("{what} in {path:?}")))?;
    Ok(whole as u64)
}

/// Append the statements framed in `data` to `out`. `group` is `None` for a
/// whole file, where a tail torn by a crash mid-append — a header without
/// its newline, a frame or group shorter than its length — ends the parse
/// quietly (standard WAL recovery semantics), or the file offset of the
/// group whose complete payload `data` is, where the same is corruption.
/// Returns how many bytes of `data` precede the torn tail.
fn parse_frames(data: &str, group: Option<usize>, out: &mut Vec<String>) -> Result<usize, String> {
    let base = group.unwrap_or(0);
    let torn = |at: usize| match group {
        None => Ok(at),
        Some(_) => Err(format!("frame at byte {} overruns its group", base + at)),
    };
    let mut i = 0usize;
    while i < data.len() {
        let sigil = data.as_bytes()[i];
        if sigil != b'#' && (sigil != b'!' || group.is_some()) {
            return Err(format!("bad frame header at byte {}", base + i));
        }
        let Some(nl) = data[i..].find('\n') else {
            return torn(i);
        };
        let len: usize = data[i + 1..i + nl]
            .parse()
            .map_err(|_| format!("bad frame length at byte {}", base + i))?;
        let start = i + nl + 1;
        let rest = data.len() - start;
        // A frame is its statement plus a newline; a group is its payload.
        let end = if sigil == b'#' {
            len.checked_add(1)
        } else {
            Some(len)
        }
        .filter(|n| *n <= rest)
        .map(|n| start + n);
        let Some(end) = end else {
            return torn(i);
        };
        let body = data
            .get(start..start + len)
            .ok_or_else(|| format!("frame at byte {} splits a character", base + i))?;
        if sigil == b'#' {
            out.push(body.to_string());
        } else {
            parse_frames(body, Some(base + start), out)?;
        }
        i = end;
    }
    Ok(data.len())
}

/// Render a parameterised statement into standalone SQL text: `?` tokens are
/// replaced by literals and everything is re-assembled from lexer tokens
/// (which also strips comments).
pub fn render_statement(sql: &str, params: &[SqlValue]) -> Result<String, Error> {
    let toks = lex(sql)?;
    let mut out = String::new();
    let mut param_idx = 0usize;
    for t in toks {
        if !out.is_empty() {
            out.push(' ');
        }
        match t {
            Tok::Ident(s) => out.push_str(&s),
            Tok::Str(s) => out.push_str(&format!("'{}'", s.replace('\'', "''"))),
            Tok::Int(v) => out.push_str(&v.to_string()),
            // As the snapshot writes it: `0.0` stays a real, not `0`.
            Tok::Float(v) => out.push_str(&crate::engine::sql_literal(&SqlValue::Real(v))),
            Tok::Param => {
                let v = params.get(param_idx).ok_or(Error::ParamCount {
                    expected: param_idx + 1,
                    got: params.len(),
                })?;
                param_idx += 1;
                out.push_str(&crate::engine::sql_literal(v));
            }
            Tok::Punct(p) => out.push_str(p),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_inlines_params() {
        let s = render_statement(
            "INSERT INTO t VALUES (?, ?, ?)",
            &["a'b".into(), 5i64.into(), SqlValue::Null],
        )
        .unwrap();
        assert_eq!(s, "INSERT INTO t VALUES ( 'a''b' , 5 , NULL )");
    }

    #[test]
    fn render_rejects_missing_params() {
        assert!(render_statement("INSERT INTO t VALUES (?)", &[]).is_err());
    }

    #[test]
    fn frames_survive_newlines() {
        let dir = std::env::temp_dir().join(format!("minisql-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.log("INSERT INTO t VALUES (?)", &["line1\nline2".into()])
                .unwrap();
            wal.log("DELETE FROM t", &[]).unwrap();
        }
        let mut wal = Wal::open(&dir).unwrap();
        let stmts = wal.recover().unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].contains("line1\nline2"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_frame_is_dropped() {
        let dir = std::env::temp_dir().join(format!("minisql-torn-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.log("DELETE FROM a", &[]).unwrap();
        }
        // Simulate a crash mid-append.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("wal.sql"))
            .unwrap();
        f.write_all(b"#100\nDELETE FROM").unwrap();
        drop(f);
        let mut wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.recover().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
