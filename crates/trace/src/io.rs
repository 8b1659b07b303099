//! Reading and writing traces.
//!
//! Two interchange formats are provided, mirroring how multiprocessor
//! address traces (like the ATUM-2 sets the paper used) were shipped:
//!
//! * **Text** — one record per line, `<cpu> <kind> <hex address>`, where
//!   `kind` is `i` (instruction fetch), `r` (load), `w` (store), or `f`
//!   (flush). `#` starts a comment; blank lines are ignored. Diff-able
//!   and easy to hand-author in tests.
//!
//!   ```text
//!   # four records, two processors
//!   0 i 0x1000
//!   0 r 0x80000010
//!   1 i 0x41000
//!   1 w 0x80000010
//!   ```
//!
//! * **Binary** — a fixed 16-byte header (`SWCCTRC1`, processor count,
//!   record count) followed by 11 bytes per record (cpu `u16`, kind
//!   `u8`, address `u64`, all little-endian). Compact and fast.
//!
//! Both readers validate their input and report precise errors.

use std::error::Error as StdError;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use crate::record::{Access, AccessKind, Addr, CpuId, Trace};

/// Magic bytes opening a binary trace.
pub const BINARY_MAGIC: &[u8; 8] = b"SWCCTRC1";

/// Errors produced while reading a trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A malformed text line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A malformed binary stream.
    Corrupt {
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceIoError::Corrupt { message } => {
                write!(f, "corrupt binary trace: {message}")
            }
        }
    }
}

impl StdError for TraceIoError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn kind_char(kind: AccessKind) -> char {
    match kind {
        AccessKind::Fetch => 'i',
        AccessKind::Load => 'r',
        AccessKind::Store => 'w',
        AccessKind::Flush => 'f',
    }
}

fn kind_from_char(c: &str) -> Option<AccessKind> {
    match c {
        "i" => Some(AccessKind::Fetch),
        "r" => Some(AccessKind::Load),
        "w" => Some(AccessKind::Store),
        "f" => Some(AccessKind::Flush),
        _ => None,
    }
}

/// Opening of the header line [`write_text`] writes first:
/// `# swcc trace: <cpus> cpus, <records> records`.
const TEXT_HEADER: &str = "# swcc trace: ";

/// Writes a trace in the text format, header line first.
///
/// A `&mut` reference to any writer can be passed.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_text<W: Write>(trace: &Trace, mut writer: W) -> Result<(), TraceIoError> {
    writeln!(
        writer,
        "{TEXT_HEADER}{} cpus, {} records",
        trace.cpus(),
        trace.len()
    )?;
    for a in trace {
        writeln!(writer, "{} {} {:#x}", a.cpu.0, kind_char(a.kind), a.addr)?;
    }
    Ok(())
}

/// Reads a trace in the text format.
///
/// When the first line is the header [`write_text`] writes, its
/// processor count is the trace's, so trailing idle processors survive
/// a round trip. Without the header the count is inferred from the
/// largest processor id present.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] with a line number for malformed
/// lines, a malformed header, and processor ids at or above the
/// header's count (or equal to `u16::MAX`, which leaves no count to
/// hold them); propagates I/O errors.
pub fn read_text<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    let mut declared = None;
    let mut records = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let err = |message: String| TraceIoError::Parse {
            line: lineno,
            message,
        };
        if let Some(header) = line.strip_prefix(TEXT_HEADER).filter(|_| lineno == 1) {
            let cpus = header
                .split_once(" cpus")
                .and_then(|(cpus, _)| cpus.trim().parse::<u16>().ok())
                .ok_or_else(|| err(format!("malformed header {line:?}")))?;
            declared = Some(cpus);
            continue;
        }
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        let cpu: u16 = parts
            .next()
            .ok_or_else(|| err("missing cpu field".into()))?
            .parse()
            .map_err(|e| err(format!("bad cpu field: {e}")))?;
        let bound = declared.unwrap_or(u16::MAX);
        if cpu >= bound {
            return Err(err(format!("cpu {cpu} out of range (< {bound})")));
        }
        let kind = parts
            .next()
            .and_then(kind_from_char)
            .ok_or_else(|| err("kind must be one of i/r/w/f".into()))?;
        let addr_str = parts
            .next()
            .ok_or_else(|| err("missing address field".into()))?;
        let digits = addr_str.strip_prefix("0x").unwrap_or(addr_str);
        let addr = u64::from_str_radix(digits, 16)
            .map_err(|e| err(format!("bad address {addr_str:?}: {e}")))?;
        if let Some(extra) = parts.next() {
            return Err(err(format!("unexpected trailing field {extra:?}")));
        }
        records.push(Access::new(CpuId(cpu), kind, Addr(addr)));
    }
    // Extending grows the count to cover every id, so a headerless
    // trace infers it and a declared one keeps it.
    let mut trace = Trace::new(declared.unwrap_or(0));
    trace.extend(records);
    Ok(trace)
}

/// Writes a trace in the binary format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary<W: Write>(trace: &Trace, mut writer: W) -> Result<(), TraceIoError> {
    writer.write_all(BINARY_MAGIC)?;
    writer.write_all(&trace.cpus().to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes()[..6])?;
    for a in trace {
        writer.write_all(&a.cpu.0.to_le_bytes())?;
        writer.write_all(&[kind_char(a.kind) as u8])?;
        writer.write_all(&a.addr.0.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a trace in the binary format.
///
/// # Errors
///
/// Returns [`TraceIoError::Corrupt`] for bad magic, truncated streams,
/// unknown record kinds, or out-of-range processor ids; propagates I/O
/// errors.
pub fn read_binary<R: Read>(mut reader: R) -> Result<Trace, TraceIoError> {
    let corrupt = |message: &str| TraceIoError::Corrupt {
        message: message.to_string(),
    };
    let mut header = [0u8; 16];
    reader
        .read_exact(&mut header)
        .map_err(|_| corrupt("truncated header"))?;
    if &header[..8] != BINARY_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let cpus = u16::from_le_bytes([header[8], header[9]]);
    let mut count_bytes = [0u8; 8];
    count_bytes[..6].copy_from_slice(&header[10..16]);
    let count = u64::from_le_bytes(count_bytes);
    let mut trace = Trace::new(cpus);
    let mut record = [0u8; 11];
    for i in 0..count {
        reader
            .read_exact(&mut record)
            .map_err(|_| corrupt(&format!("truncated at record {i}")))?;
        let cpu = u16::from_le_bytes([record[0], record[1]]);
        if cpu >= cpus {
            return Err(corrupt(&format!(
                "record {i}: cpu {cpu} out of range (< {cpus})"
            )));
        }
        let kind = kind_from_char(std::str::from_utf8(&record[2..3]).unwrap_or("?"))
            .ok_or_else(|| corrupt(&format!("record {i}: unknown kind byte {}", record[2])))?;
        let addr = u64::from_le_bytes(record[3..11].try_into().expect("slice is 8 bytes"));
        trace.push(Access::new(CpuId(cpu), kind, Addr(addr)));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::pops_like;

    fn sample() -> Trace {
        pops_like(2, 500, 3).generate()
    }

    #[test]
    fn text_round_trip() {
        // The second trace's trailing processors are idle: only the
        // header carries its processor count.
        let mut idle = Trace::new(4);
        idle.push(Access::new(CpuId(0), AccessKind::Load, Addr(0x10)));
        for t in [sample(), idle] {
            let mut buf = Vec::new();
            write_text(&t, &mut buf).unwrap();
            let back = read_text(buf.as_slice()).unwrap();
            assert_eq!(t, back);
        }
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(t, back);
        assert_eq!(buf.len(), 16 + 11 * t.len());
    }

    #[test]
    fn text_accepts_comments_and_blanks() {
        let src = "\n# comment\n0 i 0x10  # trailing comment\n\n1 w 20\n";
        let t = read_text(src.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].kind, AccessKind::Fetch);
        assert_eq!(t.records()[1].addr, Addr(0x20));
        assert_eq!(t.cpus(), 2);
    }

    #[test]
    fn text_reports_line_numbers() {
        let src = "0 i 0x10\n0 z 0x10\n";
        match read_text(src.as_bytes()) {
            Err(TraceIoError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("i/r/w/f"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn text_rejects_trailing_fields() {
        let src = "0 i 0x10 junk\n";
        assert!(matches!(
            read_text(src.as_bytes()),
            Err(TraceIoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn text_rejects_bad_cpu_and_address() {
        assert!(read_text("x i 0x10\n".as_bytes()).is_err());
        assert!(read_text("0 i zz\n".as_bytes()).is_err());
        assert!(read_text("0 i\n".as_bytes()).is_err());
        // Id 65535 leaves no processor count to hold it; with a header,
        // ids must lie below the declared count.
        assert!(read_text("65535 r 0x10\n".as_bytes()).is_err());
        assert!(read_text("# swcc trace: 2 cpus, 1 records\n2 r 0x10\n".as_bytes()).is_err());
        assert!(read_text("# swcc trace: many cpus\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_binary(buf.as_slice()),
            Err(TraceIoError::Corrupt { .. })
        ));
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        match read_binary(buf.as_slice()) {
            Err(TraceIoError::Corrupt { message }) => assert!(message.contains("truncated")),
            other => panic!("expected corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_out_of_range_cpu() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        // Patch the first record's cpu to 7 (header says 2 cpus).
        buf[16] = 7;
        assert!(matches!(
            read_binary(buf.as_slice()),
            Err(TraceIoError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_trace_round_trips_both_formats() {
        let t = Trace::new(0);
        let mut text = Vec::new();
        write_text(&t, &mut text).unwrap();
        assert_eq!(read_text(text.as_slice()).unwrap().len(), 0);
        let mut bin = Vec::new();
        write_binary(&t, &mut bin).unwrap();
        assert_eq!(read_binary(bin.as_slice()).unwrap().len(), 0);
    }

    #[test]
    fn errors_display_helpfully() {
        let e = TraceIoError::Parse {
            line: 7,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = TraceIoError::Corrupt {
            message: "oops".into(),
        };
        assert!(e.to_string().contains("oops"));
    }
}
