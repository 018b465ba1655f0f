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
//! the whole frames that did arrive).
//!
//! `wal.sql` is a [`crate::log::AppendFile`], each append synced before it
//! returns, so a `COMMIT` that succeeded survives a power loss.

use crate::error::Error;
use crate::lexer::{lex, Tok};
use crate::log::{self, AppendFile};
use crate::value::SqlValue;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Handle to a database directory's durability files.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    /// `wal.sql`.
    file: AppendFile,
}

impl Wal {
    /// Open (creating if needed) the durability files under `dir` and
    /// replay every statement, snapshot first, handing each to `replay` as
    /// soon as its frame is read; a group's statements run once its whole
    /// payload is read, so a torn group runs none of them. A tail of
    /// `wal.sql` torn by a crash mid-append is cut off, so that the appends
    /// that follow land after the last whole frame.
    pub fn open(
        dir: &Path,
        mut replay: impl FnMut(&str) -> Result<(), Error>,
    ) -> Result<Wal, Error> {
        std::fs::create_dir_all(dir)?;
        let snapshot = dir.join("snapshot.sql");
        if snapshot.exists() {
            replay_frames(File::open(&snapshot)?, &snapshot, &mut replay)?;
        }
        let mut file = AppendFile::open(dir.join("wal.sql"))?;
        let whole = replay_frames(file.read_from(0)?, file.path(), &mut replay)?;
        if whole < file.len() {
            file.cut(whole)?;
        }
        let dir = dir.to_path_buf();
        Ok(Wal { dir, file })
    }

    /// Append one mutation statement, rendered by [`render_statement`].
    pub fn log(&mut self, stmt: &str) -> Result<(), Error> {
        let mut frame = Vec::new();
        write_frame(&mut frame, stmt)?;
        self.file.append_synced(&frame)?;
        Ok(())
    }

    /// Append a committed transaction — `frames` is its statements, each
    /// rendered and framed by [`write_frame`] — as one group, in one write.
    pub fn log_group(&mut self, frames: &[u8]) -> Result<(), Error> {
        if frames.is_empty() {
            return Ok(());
        }
        let mut group = format!("!{}\n", frames.len()).into_bytes();
        group.extend_from_slice(frames);
        self.file.append_synced(&group)?;
        Ok(())
    }

    /// Replace the snapshot with the frames `write_frames` emits, sync the
    /// directory so its new entry is durable before the WAL is cut, and
    /// truncate the WAL. A failed directory sync still cuts the WAL, which
    /// the new snapshot covers: left whole, a reopen would replay it twice.
    pub fn checkpoint(
        &mut self,
        write_frames: impl FnOnce(&mut BufWriter<File>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let snapshot = self.dir.join("snapshot.sql");
        log::replace(&snapshot, &self.dir.join("snapshot.sql.tmp"), write_frames)?;
        let synced = log::sync_dir(&self.dir);
        self.file.cut(0)?;
        Ok(synced?)
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

/// Replay the statements framed in `file` (at `path`), reading it through a
/// buffer; returns the length of the file without its torn tail, if it has
/// one. A tail torn by a crash mid-append — a header without its newline,
/// a frame or group shorter than its length — ends the replay quietly
/// (standard WAL recovery semantics); inside a group whose payload is
/// whole, the same is corruption.
fn replay_frames(
    file: impl Read,
    path: &Path,
    replay: &mut impl FnMut(&str) -> Result<(), Error>,
) -> Result<u64, Error> {
    let corrupt = |what: String| Error::Corrupt(format!("{what} in {path:?}"));
    let mut file = BufReader::with_capacity(1 << 16, file);
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
    use std::fs::{self, OpenOptions};

    /// Every statement recovery replays, in order.
    fn recovered(dir: &Path) -> Result<Vec<String>, Error> {
        let mut stmts = Vec::new();
        Wal::open(dir, |stmt| {
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
            let mut wal = Wal::open(&dir, |_| Ok(())).unwrap();
            let stmt = render_statement("INSERT INTO t VALUES (?)", &["line1\nline2".into()]);
            wal.log(&stmt.unwrap()).unwrap();
            wal.log("DELETE FROM t").unwrap();
        }
        let stmts = recovered(&dir).unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].contains("line1\nline2"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_frame_is_dropped() {
        let dir = std::env::temp_dir().join(format!("minisql-torn-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut wal = Wal::open(&dir, |_| Ok(())).unwrap();
            wal.log("DELETE FROM a").unwrap();
        }
        // Simulate a crash mid-append.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("wal.sql"))
            .unwrap();
        f.write_all(b"#100\nDELETE FROM").unwrap();
        drop(f);
        assert_eq!(recovered(&dir).unwrap().len(), 1);
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
            let got = recovered(&dir);
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
