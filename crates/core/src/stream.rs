//! Streaming export for long-horizon runs.
//!
//! A million-window run cannot hold its trace, metric rows or packet log
//! in memory. [`StreamSink`] flushes all three to disk at every `R_w`
//! boundary, so the in-memory buffers ([`crate::system::System`]'s ring
//! recorder, registry window list and packet log) hold at most one window
//! of data. Two files are produced:
//!
//! - a **JSONL trace** (`.jsonl`): one line per trace event, then one line
//!   per metric window — the same line formats `tracereport` emits, so
//!   existing tooling reads a streamed trace unchanged;
//! - a **binary delivery log** (`.erpd`): fixed 29-byte little-endian
//!   records (`id u64, dst u32, injected u64, delivered u64, labelled
//!   u8`), guarded by an FNV-1a-64 checksum trailer — the `.ertr`
//!   discipline applied to output instead of input.
//!
//! Crash-safe resume: the byte positions and the *running* delivery
//! checksum live in a [`StreamCursor`] that every checkpoint embeds
//! (see [`crate::checkpoint`]). [`StreamSink::resume`] truncates both
//! files back to the cursor — anything a killed run wrote past its last
//! checkpoint is discarded, and the resumed run regenerates it
//! byte-for-byte.

use crate::metrics::PacketDelivery;
use crate::system::WindowFlush;
use desim::snap::{fnv1a_update, Snap, SnapError, SnapReader, SnapWriter, FNV_OFFSET};
use erapid_telemetry::jsonl_line;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Magic prefix of a streamed delivery log.
pub const DELIV_MAGIC: [u8; 4] = *b"ERPD";
/// Delivery-log format version.
pub const DELIV_VERSION: u16 = 1;
/// Trailer tag ending a finalized delivery log.
pub const DELIV_TRAILER: [u8; 4] = *b"END.";
/// Header length: magic + version.
const DELIV_HEADER: u64 = 6;
/// One fixed-width delivery record.
const DELIV_RECORD: u64 = 29;
/// Trailer length: tag + record count + checksum.
const DELIV_TRAILER_LEN: u64 = 20;

/// Resume point of a [`StreamSink`]: how many bytes of each file are
/// checkpoint-covered, and the running checksum over the delivery records
/// written so far. Embedded in every snapshot so a restore can truncate
/// the files back to exactly the state the checkpoint saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCursor {
    /// Bytes of JSONL trace covered.
    pub trace_bytes: u64,
    /// Bytes of the delivery log covered (including its header).
    pub deliv_bytes: u64,
    /// Delivery records covered.
    pub deliv_records: u64,
    /// Running FNV-1a-64 over the covered delivery record bytes.
    pub deliv_fnv: u64,
}

impl StreamCursor {
    /// The cursor of a freshly-created sink: empty trace, header-only
    /// delivery log, checksum at the FNV offset basis.
    pub fn start() -> Self {
        Self {
            trace_bytes: 0,
            deliv_bytes: DELIV_HEADER,
            deliv_records: 0,
            deliv_fnv: FNV_OFFSET,
        }
    }
}

impl Snap for StreamCursor {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.trace_bytes);
        w.u64(self.deliv_bytes);
        w.u64(self.deliv_records);
        w.u64(self.deliv_fnv);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            trace_bytes: r.u64()?,
            deliv_bytes: r.u64()?,
            deliv_records: r.u64()?,
            deliv_fnv: r.u64()?,
        })
    }
}

/// Which files a [`StreamSink`] writes. Either side is optional: a
/// metrics-only marathon can stream just the trace, a replay diff just the
/// deliveries.
#[derive(Debug, Clone, Default)]
pub struct StreamPaths {
    /// JSONL trace + metric-window output path.
    pub trace: Option<PathBuf>,
    /// Binary packet-delivery log path.
    pub deliveries: Option<PathBuf>,
}

/// Window-boundary flusher bounding in-memory telemetry to one window.
pub struct StreamSink {
    trace: Option<BufWriter<File>>,
    deliv: Option<BufWriter<File>>,
    cursor: StreamCursor,
    line: String,
}

impl StreamSink {
    /// Creates the output files fresh (truncating any stale leftovers) and
    /// writes the delivery-log header.
    pub fn create(paths: &StreamPaths) -> io::Result<Self> {
        let trace = match &paths.trace {
            Some(p) => Some(BufWriter::new(File::create(p)?)),
            None => None,
        };
        let deliv = match &paths.deliveries {
            Some(p) => {
                let mut f = BufWriter::new(File::create(p)?);
                f.write_all(&DELIV_MAGIC)?;
                f.write_all(&DELIV_VERSION.to_le_bytes())?;
                Some(f)
            }
            None => None,
        };
        Ok(Self {
            trace,
            deliv,
            cursor: StreamCursor::start(),
            line: String::new(),
        })
    }

    /// Reopens existing output files at a checkpointed cursor, truncating
    /// anything a killed run wrote past it. The resumed run then
    /// regenerates those bytes exactly.
    pub fn resume(paths: &StreamPaths, cursor: StreamCursor) -> io::Result<Self> {
        fn reopen(path: &Path, keep: u64) -> io::Result<BufWriter<File>> {
            let f = OpenOptions::new().read(true).write(true).open(path)?;
            if f.metadata()?.len() < keep {
                return Err(io::Error::other(format!(
                    "{} is shorter than its checkpoint cursor",
                    path.display()
                )));
            }
            f.set_len(keep)?;
            let mut f = BufWriter::new(f);
            f.seek(SeekFrom::Start(keep))?;
            Ok(f)
        }
        let trace = match &paths.trace {
            Some(p) => Some(reopen(p, cursor.trace_bytes)?),
            None => None,
        };
        let deliv = match &paths.deliveries {
            Some(p) => Some(reopen(p, cursor.deliv_bytes)?),
            None => None,
        };
        Ok(Self {
            trace,
            deliv,
            cursor,
            line: String::new(),
        })
    }

    /// The current resume point. Valid to embed in a checkpoint only after
    /// [`Self::flush_window`] returned (the data behind it is on disk).
    pub fn cursor(&self) -> StreamCursor {
        self.cursor
    }

    /// Streams one window's drain: trace events as JSONL, metric windows
    /// as JSONL rows (named by `counter_names`/`gauge_names`, the
    /// [`crate::system::System::metric_counter_names`] order), deliveries
    /// as binary records. Flushes to the OS so the advanced cursor is
    /// durable before any checkpoint embeds it.
    pub fn flush_window(
        &mut self,
        flush: &WindowFlush,
        counter_names: &[String],
        gauge_names: &[String],
    ) -> io::Result<()> {
        if let Some(out) = &mut self.trace {
            self.line.clear();
            for rec in &flush.records {
                self.line.push_str(&jsonl_line(rec));
                self.line.push('\n');
            }
            for win in &flush.windows {
                let _ = write!(self.line, "{{\"window\":{}", win.window);
                for (name, v) in counter_names.iter().zip(&win.counters) {
                    let _ = write!(self.line, ",\"{name}\":{v}");
                }
                for (name, v) in gauge_names.iter().zip(&win.gauges) {
                    let _ = write!(self.line, ",\"{name}\":{v}");
                }
                self.line.push_str("}\n");
            }
            out.write_all(self.line.as_bytes())?;
            out.flush()?;
            self.cursor.trace_bytes += self.line.len() as u64;
        }
        if let Some(out) = &mut self.deliv {
            let mut buf = [0u8; DELIV_RECORD as usize];
            for p in &flush.packets {
                encode_delivery(p, &mut buf);
                out.write_all(&buf)?;
                self.cursor.deliv_fnv = fnv1a_update(self.cursor.deliv_fnv, &buf);
                self.cursor.deliv_bytes += DELIV_RECORD;
                self.cursor.deliv_records += 1;
            }
            out.flush()?;
        }
        Ok(())
    }

    /// Writes the delivery-log trailer (record count + checksum) and
    /// flushes both files. Returns the final cursor (pre-trailer — the
    /// trailer itself is never checkpoint-covered).
    pub fn finalize(mut self) -> io::Result<StreamCursor> {
        if let Some(out) = &mut self.trace {
            out.flush()?;
        }
        if let Some(out) = &mut self.deliv {
            out.write_all(&DELIV_TRAILER)?;
            out.write_all(&self.cursor.deliv_records.to_le_bytes())?;
            out.write_all(&self.cursor.deliv_fnv.to_le_bytes())?;
            out.flush()?;
        }
        Ok(self.cursor)
    }
}

/// Drives a run with streaming export and optional checkpointing: at
/// every `R_w` boundary the hook drains one window into `sink`, then (if
/// due) snapshots the quiescent system with the post-flush cursor. After
/// the run, the post-last-boundary tail is flushed; the caller finalizes
/// the sink.
///
/// A sink or checkpoint I/O error stops all further streaming (the run
/// itself completes — simulation state never depends on export I/O) and
/// is returned at the end.
pub fn run_streaming(
    sys: &mut crate::system::System,
    sink: &mut StreamSink,
    mut ckpt: Option<&mut crate::checkpoint::Checkpointer>,
) -> io::Result<desim::Cycle> {
    let window = sys.config().schedule.window;
    let counters = sys.metric_counter_names();
    let gauges = sys.metric_gauge_names();
    let mut failed: Option<io::Error> = None;
    let end = sys.run(&mut |s| {
        let now = s.now();
        if failed.is_some() || now == 0 || !now.is_multiple_of(window) {
            return;
        }
        let flush = s.drain_window();
        if let Err(e) = sink.flush_window(&flush, &counters, &gauges) {
            failed = Some(e);
            return;
        }
        if let Some(c) = ckpt.as_deref_mut() {
            if let Err(e) = c.maybe_checkpoint(s, sink.cursor()) {
                failed = Some(e);
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let tail = sys.drain_window();
    sink.flush_window(&tail, &counters, &gauges)?;
    Ok(end)
}

fn encode_delivery(p: &PacketDelivery, buf: &mut [u8; DELIV_RECORD as usize]) {
    buf[0..8].copy_from_slice(&p.id.to_le_bytes());
    buf[8..12].copy_from_slice(&p.dst.to_le_bytes());
    buf[12..20].copy_from_slice(&p.injected_at.to_le_bytes());
    buf[20..28].copy_from_slice(&p.delivered_at.to_le_bytes());
    buf[28] = u8::from(p.labelled);
}

/// Reads back a finalized delivery log, verifying magic, version, record
/// framing, trailer count and checksum. The verification half of the
/// streaming contract — `marathon` diffs two of these byte-for-byte.
pub fn read_deliveries(path: &Path) -> Result<Vec<PacketDelivery>, SnapError> {
    let bytes = std::fs::read(path).map_err(|e| SnapError::Io(e.to_string()))?;
    let min = DELIV_HEADER + DELIV_TRAILER_LEN;
    if (bytes.len() as u64) < min {
        return Err(SnapError::Format(
            "delivery log shorter than header + trailer".into(),
        ));
    }
    if bytes[0..4] != DELIV_MAGIC {
        return Err(SnapError::Format("delivery log magic mismatch".into()));
    }
    let ver = u16::from_le_bytes([bytes[4], bytes[5]]);
    if ver != DELIV_VERSION {
        return Err(SnapError::Version(ver));
    }
    let body = &bytes[DELIV_HEADER as usize..bytes.len() - DELIV_TRAILER_LEN as usize];
    if !(body.len() as u64).is_multiple_of(DELIV_RECORD) {
        return Err(SnapError::Format(
            "delivery log body is not whole records".into(),
        ));
    }
    let trailer = &bytes[bytes.len() - DELIV_TRAILER_LEN as usize..];
    if trailer[0..4] != DELIV_TRAILER {
        return Err(SnapError::Format("delivery log trailer missing".into()));
    }
    let mut count = [0u8; 8];
    count.copy_from_slice(&trailer[4..12]);
    let count = u64::from_le_bytes(count);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(&trailer[12..20]);
    let stored = u64::from_le_bytes(stored);
    if count != body.len() as u64 / DELIV_RECORD {
        return Err(SnapError::Format(
            "delivery log trailer count disagrees with body length".into(),
        ));
    }
    let computed = fnv1a_update(FNV_OFFSET, body);
    if computed != stored {
        return Err(SnapError::Checksum { stored, computed });
    }
    let mut out = Vec::with_capacity(count as usize);
    for rec in body.chunks_exact(DELIV_RECORD as usize) {
        let mut id = [0u8; 8];
        id.copy_from_slice(&rec[0..8]);
        let mut dst = [0u8; 4];
        dst.copy_from_slice(&rec[8..12]);
        let mut injected = [0u8; 8];
        injected.copy_from_slice(&rec[12..20]);
        let mut delivered = [0u8; 8];
        delivered.copy_from_slice(&rec[20..28]);
        out.push(PacketDelivery {
            id: u64::from_le_bytes(id),
            dst: u32::from_le_bytes(dst),
            injected_at: u64::from_le_bytes(injected),
            delivered_at: u64::from_le_bytes(delivered),
            labelled: rec[28] != 0,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("erapid-stream-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn deliveries(n: u64, base: u64) -> Vec<PacketDelivery> {
        (0..n)
            .map(|i| PacketDelivery {
                id: base + i,
                dst: (i % 64) as u32,
                injected_at: 10 * i,
                delivered_at: 10 * i + 37,
                labelled: i % 3 == 0,
            })
            .collect()
    }

    #[test]
    fn delivery_log_round_trips() {
        let dir = tmpdir("roundtrip");
        let paths = StreamPaths {
            trace: None,
            deliveries: Some(dir.join("d.erpd")),
        };
        let mut sink = StreamSink::create(&paths).unwrap();
        let flush = WindowFlush {
            records: Vec::new(),
            windows: Vec::new(),
            packets: deliveries(5, 0),
        };
        sink.flush_window(&flush, &[], &[]).unwrap();
        let cursor = sink.finalize().unwrap();
        assert_eq!(cursor.deliv_records, 5);
        let back = read_deliveries(paths.deliveries.as_deref().unwrap()).unwrap();
        assert_eq!(back, flush.packets);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn resume_truncates_uncheckpointed_tail() {
        let dir = tmpdir("resume");
        let paths = StreamPaths {
            trace: Some(dir.join("t.jsonl")),
            deliveries: Some(dir.join("d.erpd")),
        };
        // Window 1 flushed and checkpointed; window 2 flushed but "lost"
        // to a crash (its cursor never made a checkpoint).
        let mut sink = StreamSink::create(&paths).unwrap();
        let w1 = WindowFlush {
            records: Vec::new(),
            windows: Vec::new(),
            packets: deliveries(3, 0),
        };
        sink.flush_window(&w1, &[], &[]).unwrap();
        let ckpt = sink.cursor();
        let w2_lost = WindowFlush {
            records: Vec::new(),
            windows: Vec::new(),
            packets: deliveries(4, 100),
        };
        sink.flush_window(&w2_lost, &[], &[]).unwrap();
        drop(sink); // killed: no finalize, trailing bytes past the cursor
                    // Resume from the checkpoint and regenerate window 2 differently
                    // sized — proving the stale tail really was discarded.
        let mut sink = StreamSink::resume(&paths, ckpt).unwrap();
        assert_eq!(sink.cursor(), ckpt);
        let w2 = WindowFlush {
            records: Vec::new(),
            windows: Vec::new(),
            packets: deliveries(2, 200),
        };
        sink.flush_window(&w2, &[], &[]).unwrap();
        sink.finalize().unwrap();
        let back = read_deliveries(paths.deliveries.as_deref().unwrap()).unwrap();
        let mut expect = w1.packets.clone();
        expect.extend_from_slice(&w2.packets);
        assert_eq!(back, expect);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_delivery_log_is_detected() {
        let dir = tmpdir("corrupt");
        let paths = StreamPaths {
            trace: None,
            deliveries: Some(dir.join("d.erpd")),
        };
        let mut sink = StreamSink::create(&paths).unwrap();
        let flush = WindowFlush {
            records: Vec::new(),
            windows: Vec::new(),
            packets: deliveries(8, 0),
        };
        sink.flush_window(&flush, &[], &[]).unwrap();
        sink.finalize().unwrap();
        let p = paths.deliveries.as_deref().unwrap();
        let mut bytes = std::fs::read(p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(p, &bytes).unwrap();
        assert!(matches!(
            read_deliveries(p),
            Err(SnapError::Checksum { .. })
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn cursor_snap_round_trip() {
        let c = StreamCursor {
            trace_bytes: 123,
            deliv_bytes: 456,
            deliv_records: 7,
            deliv_fnv: 0xdead_beef_cafe_f00d,
        };
        let mut w = SnapWriter::new();
        c.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(StreamCursor::load(&mut r).unwrap(), c);
        r.expect_end().unwrap();
    }
}
