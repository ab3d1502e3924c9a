//! Binary trace serialization.
//!
//! Traces can be captured once (functional emulation is the expensive part
//! for long runs) and replayed through many timing configurations. The
//! format is little-endian:
//!
//! ```text
//! magic "LVPT" | version u32 | record count u64
//! per record:
//!   pc u64 | next_pc u64 | eff_addr u64 | value u64
//!   inst_words u8 | words u32 × inst_words      (lvp-isa binary encoding)
//!   extra_count u8 | extras u64 × extra_count
//! ```
//!
//! Readers and writers are generic over [`std::io::Read`]/[`std::io::Write`];
//! pass `&mut file` if you need the handle afterwards.

use crate::record::{Trace, TraceRecord, MAX_CHUNKS};
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};

const MAGIC: &[u8; 4] = b"LVPT";
const VERSION: u32 = 1;

/// Errors produced while reading a serialized trace.
#[derive(Debug)]
pub enum TraceIoError {
    Io(io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// An embedded instruction failed to decode.
    BadInstruction(lvp_isa::DecodeError),
    /// A record carries more 64-bit value chunks than any instruction can
    /// produce ([`MAX_CHUNKS`]).
    TooManyValues(usize),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::BadInstruction(e) => write!(f, "corrupt instruction: {e}"),
            TraceIoError::TooManyValues(n) => {
                write!(f, "record carries {n} value chunks (at most {MAX_CHUNKS})")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> TraceIoError {
        TraceIoError::Io(e)
    }
}

/// Writes `trace` to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut words = Vec::with_capacity(3);
    for rec in trace.records() {
        write_record(&mut w, rec, &mut words)?;
    }
    Ok(())
}

fn write_record<W: Write>(w: &mut W, rec: &TraceRecord, words: &mut Vec<u32>) -> io::Result<()> {
    w.write_all(&rec.pc.to_le_bytes())?;
    w.write_all(&rec.next_pc.to_le_bytes())?;
    w.write_all(&rec.eff_addr.to_le_bytes())?;
    w.write_all(&rec.value.to_le_bytes())?;
    words.clear();
    lvp_isa::encode(rec.inst, words);
    w.write_all(&[words.len() as u8])?;
    for word in words.iter() {
        w.write_all(&word.to_le_bytes())?;
    }
    let extras: &[u64] = rec.extra_values.as_deref().unwrap_or(&[]);
    w.write_all(&[extras.len() as u8])?;
    for x in extras {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

/// Incremental trace writer for streaming capture: records are appended as
/// they are produced (no in-memory [`Trace`]), and [`TraceWriter::finish`]
/// seeks back to patch the up-front record count. The resulting bytes are
/// identical to [`write_trace`] over the same records.
pub struct TraceWriter<W: Write + Seek> {
    w: W,
    count: u64,
    words: Vec<u32>,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Writes the header (with a zero count placeholder) and returns the
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn new(mut w: W) -> io::Result<TraceWriter<W>> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            count: 0,
            words: Vec::with_capacity(3),
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn push(&mut self, rec: &TraceRecord) -> io::Result<()> {
        write_record(&mut self.w, rec, &mut self.words)?;
        self.count += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Patches the record count into the header, flushes, and returns the
    /// underlying writer. A dropped-without-finish writer leaves a
    /// zero-count (i.e. visibly truncated) file rather than a corrupt one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn finish(mut self) -> io::Result<W> {
        let end = self.w.stream_position()?;
        self.w.seek(SeekFrom::Start((MAGIC.len() + 4) as u64))?;
        self.w.write_all(&self.count.to_le_bytes())?;
        self.w.seek(SeekFrom::Start(end))?;
        self.w.flush()?;
        Ok(self.w)
    }
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Reads a trace previously written by [`write_trace`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed input or I/O failure.
pub fn read_trace<R: Read>(mut r: R) -> Result<Trace, TraceIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let count = read_u64(&mut r)?;
    let mut trace = Trace::new();
    let mut words = Vec::with_capacity(3);
    for _ in 0..count {
        let pc = read_u64(&mut r)?;
        let next_pc = read_u64(&mut r)?;
        let eff_addr = read_u64(&mut r)?;
        let value = read_u64(&mut r)?;
        let n_words = read_u8(&mut r)? as usize;
        words.clear();
        for _ in 0..n_words {
            words.push(read_u32(&mut r)?);
        }
        let (inst, used) = lvp_isa::decode(&words).map_err(TraceIoError::BadInstruction)?;
        if used != n_words {
            return Err(TraceIoError::BadInstruction(
                lvp_isa::DecodeError::Truncated,
            ));
        }
        let n_extra = read_u8(&mut r)? as usize;
        if n_extra >= MAX_CHUNKS {
            return Err(TraceIoError::TooManyValues(n_extra + 1));
        }
        let extra_values = if n_extra == 0 {
            None
        } else {
            let mut v = Vec::with_capacity(n_extra);
            for _ in 0..n_extra {
                v.push(read_u64(&mut r)?);
            }
            Some(v.into_boxed_slice())
        };
        trace.push(TraceRecord {
            seq: 0,
            pc,
            inst,
            next_pc,
            eff_addr,
            value,
            extra_values,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_util::{load, store};
    use lvp_isa::{Instruction, Reg, RegList};

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(load(0x1000, 0x8000, 42));
        t.push(store(0x1004, 0x8008, 7));
        let mut ldm = load(0x1008, 0x9000, 1);
        ldm.inst = Instruction::Ldm {
            list: RegList::of(&[Reg::X1, Reg::X2]),
            rn: Reg::X0,
        };
        ldm.extra_values = Some(vec![2].into_boxed_slice());
        t.push(ldm);
        let mut br = load(0x100c, 0, 0);
        br.inst = Instruction::B { target: 0x1000 };
        br.next_pc = 0x1000;
        br.eff_addr = 0;
        t.push(br);
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE0000"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(read_trace(cut).unwrap_err(), TraceIoError::Io(_)));
    }

    #[test]
    fn version_checked() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LVPT");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            TraceIoError::BadVersion(99)
        ));
    }

    #[test]
    fn oversized_value_lists_rejected() {
        let mut t = Trace::new();
        let mut rec = load(0x100, 0x8000, 1);
        rec.extra_values = Some(vec![0; MAX_CHUNKS].into_boxed_slice());
        t.push(rec);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert!(matches!(
            read_trace(buf.as_slice()).unwrap_err(),
            TraceIoError::TooManyValues(n) if n == MAX_CHUNKS + 1
        ));
    }

    #[test]
    fn streaming_writer_matches_batch_bytes() {
        let t = sample();
        let mut batch = Vec::new();
        write_trace(&t, &mut batch).unwrap();

        let mut w = TraceWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
        for rec in t.records() {
            w.push(rec).unwrap();
        }
        assert_eq!(w.count(), t.len() as u64);
        let streamed = w.finish().unwrap().into_inner();
        assert_eq!(streamed, batch, "streamed bytes must equal batch bytes");
        assert_eq!(
            read_trace(streamed.as_slice()).unwrap().records(),
            t.records()
        );

        // Empty streaming capture is a valid empty trace.
        let empty = TraceWriter::new(std::io::Cursor::new(Vec::new()))
            .unwrap()
            .finish()
            .unwrap()
            .into_inner();
        assert!(read_trace(empty.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&Trace::new(), &mut buf).unwrap();
        assert!(read_trace(buf.as_slice()).unwrap().is_empty());
    }
}
