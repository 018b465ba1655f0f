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
//! A statement is rendered by [`render_statement`], its bound parameters
//! inlined, before it is appended, so the WAL is self-contained plain SQL.
//! Recovery reads the snapshot then the WAL through a buffer, replays each
//! statement as soon as its frame is read, and drops what a crash tore at
//! the end of a file: a header cut before its newline, a frame shorter than its length,
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
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
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

    /// Replay every statement, snapshot first, handing each to `replay`
    /// as soon as its frame is read; a group's statements run once its
    /// whole payload is read, so a torn group runs none of them. A tail of
    /// `wal.sql` torn by a crash mid-append is cut off, so that the appends
    /// that follow land after the last whole frame.
    pub fn recover(
        &mut self,
        mut replay: impl FnMut(&str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let snapshot = self.dir.join("snapshot.sql");
        if snapshot.exists() {
            replay_frames(&snapshot, &mut replay)?;
        }
        let whole = replay_frames(&self.dir.join("wal.sql"), &mut replay)?;
        if whole < self.len {
            self.wal.set_len(whole)?;
            self.len = whole;
        }
        Ok(())
    }

    /// Append one mutation statement, rendered by [`render_statement`].
    pub fn log(&mut self, stmt: &str) -> Result<(), Error> {
        let mut frame = Vec::new();
        write_frame(&mut frame, stmt)?;
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

/// What [`next_frame`] read.
enum Frame {
    /// The end of the input, after a whole frame or none.
    End,
    /// A header or a body cut short by the end of the input.
    Torn,
    /// A whole frame: its sigil, and the length of its header line. The
    /// body — a statement plus its newline, or a group's payload — is in
    /// the caller's buffer.
    Whole { sigil: u8, header: usize },
    /// What makes the input corrupt rather than torn.
    Bad(String),
}

/// Read the frame at offset `at` of `r` into `body`; `in_group` when `r` is
/// a group's payload, which holds no group.
fn next_frame(
    r: &mut impl BufRead,
    at: u64,
    in_group: bool,
    body: &mut Vec<u8>,
) -> io::Result<Frame> {
    body.clear();
    r.read_until(b'\n', body)?;
    let Some(&sigil) = body.first() else {
        return Ok(Frame::End);
    };
    if sigil != b'#' && (sigil != b'!' || in_group) {
        return Ok(Frame::Bad(format!("bad frame header at byte {at}")));
    }
    if body.last() != Some(&b'\n') {
        return Ok(Frame::Torn);
    }
    let header = body.len();
    let len = std::str::from_utf8(&body[1..header - 1]).map(str::parse::<usize>);
    let Ok(Ok(len)) = len else {
        return Ok(Frame::Bad(format!("bad frame length at byte {at}")));
    };
    // A frame is its statement plus a newline; a group is its payload.
    let Some(len) = len.checked_add(usize::from(sigil == b'#')) else {
        return Ok(Frame::Torn);
    };
    body.clear();
    r.take(len as u64).read_to_end(body)?;
    Ok(match body.len() == len {
        true => Frame::Whole { sigil, header },
        false => Frame::Torn,
    })
}

/// The statement of a `#` frame at offset `at` whose body is `body`.
fn statement(body: &[u8], at: u64) -> Result<&str, String> {
    std::str::from_utf8(&body[..body.len() - 1])
        .map_err(|_| format!("frame at byte {at} splits a character"))
}

/// Replay the statements framed in the file at `path`, reading it through a
/// buffer; returns the length of the file without its torn tail, if it has
/// one. A tail torn by a crash mid-append — a header without its newline,
/// a frame or group shorter than its length — ends the replay quietly
/// (standard WAL recovery semantics); inside a group whose payload is
/// whole, the same is corruption.
fn replay_frames(
    path: &Path,
    replay: &mut impl FnMut(&str) -> Result<(), Error>,
) -> Result<u64, Error> {
    let corrupt = |what: String| Error::Corrupt(format!("{what} in {path:?}"));
    let mut file = BufReader::with_capacity(1 << 16, File::open(path)?);
    let (mut body, mut frame, mut group) = (Vec::new(), Vec::new(), Vec::new());
    let mut at = 0u64;
    loop {
        let (sigil, header) = match next_frame(&mut file, at, false, &mut body)? {
            Frame::End | Frame::Torn => return Ok(at),
            Frame::Bad(what) => return Err(corrupt(what)),
            Frame::Whole { sigil, header } => (sigil, header as u64),
        };
        if sigil == b'#' {
            replay(statement(&body, at).map_err(corrupt)?)?;
        } else {
            group.clear();
            let (mut payload, mut inner) = (&body[..], at + header);
            loop {
                match next_frame(&mut payload, inner, true, &mut frame)? {
                    Frame::End => break,
                    Frame::Torn => {
                        return Err(corrupt(format!("frame at byte {inner} overruns its group")))
                    }
                    Frame::Bad(what) => return Err(corrupt(what)),
                    Frame::Whole { header: line, .. } => {
                        group.push(statement(&frame, inner).map_err(corrupt)?.to_string());
                        inner += (line + frame.len()) as u64;
                    }
                }
            }
            for stmt in &group {
                replay(stmt)?;
            }
        }
        at += header + body.len() as u64;
    }
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
                // `NaN` or `inf` would read back as a column name.
                crate::table::storable(v.cell())?;
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

    /// Every statement recovery replays, in order.
    fn recovered(wal: &mut Wal) -> Result<Vec<String>, Error> {
        let mut stmts = Vec::new();
        wal.recover(|stmt| {
            stmts.push(stmt.to_string());
            Ok(())
        })?;
        Ok(stmts)
    }

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
            let stmt = render_statement("INSERT INTO t VALUES (?)", &["line1\nline2".into()]);
            wal.log(&stmt.unwrap()).unwrap();
            wal.log("DELETE FROM t").unwrap();
        }
        let mut wal = Wal::open(&dir).unwrap();
        let stmts = recovered(&mut wal).unwrap();
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
            wal.log("DELETE FROM a").unwrap();
        }
        // Simulate a crash mid-append.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("wal.sql"))
            .unwrap();
        f.write_all(b"#100\nDELETE FROM").unwrap();
        drop(f);
        let mut wal = Wal::open(&dir).unwrap();
        assert_eq!(recovered(&mut wal).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What a crash cannot write is corruption, reported with its offset;
    /// what a crash does write, a short tail, is cut quietly.
    #[test]
    fn corrupt_frames_are_refused_and_torn_tails_are_not() {
        let dir = std::env::temp_dir().join(format!("minisql-corrupt-{}", std::process::id()));
        let ok = "#3\nabc\n";
        let cases: [(&[u8], Result<usize, &str>); 9] = [
            (b"#3\nabc\n#3\nde", Ok(1)),
            (b"#3\nabc\n#1", Ok(1)),
            (b"#3\nabc\n!16\n#3\nabc\n#3\n", Ok(1)),
            (b"#3\nabc\n!7\n#3\nabc\n#3\nabc\n", Ok(3)),
            (b"#3\nabc\n?3\nabc\n", Err("bad frame header at byte 7")),
            (b"#3\nabc\n#x\nabc\n", Err("bad frame length at byte 7")),
            (
                b"!12\n#3\nabc\n#9\nab",
                Err("frame at byte 11 overruns its group"),
            ),
            (b"!7\n!3\n#1\na\n", Err("bad frame header at byte 3")),
            (
                "#1\né\n".as_bytes(),
                Err("frame at byte 0 splits a character"),
            ),
        ];
        for (file, expect) in cases {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("snapshot.sql"), ok).unwrap();
            fs::write(dir.join("wal.sql"), file).unwrap();
            let got = recovered(&mut Wal::open(&dir).unwrap());
            let shown = String::from_utf8_lossy(file);
            match (expect, got) {
                (Ok(n), Ok(stmts)) => assert_eq!(stmts.len(), 1 + n, "{shown:?}"),
                (Err(what), Err(Error::Corrupt(msg))) => assert!(msg.contains(what), "{msg}"),
                (_, got) => panic!("{shown:?}: {got:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
